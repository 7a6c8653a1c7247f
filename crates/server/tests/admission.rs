//! Admission control under load: when a drain is in progress and the
//! pending queue is full, new queries degrade immediately to `unknown`
//! answers with cause `"admission"` — they are never queued
//! unboundedly — and the workspace recovers to normal answers as soon
//! as the pressure stops.

mod common;

use car_server::json::{parse, Json};
use car_server::service::ServerConfig;
use car_server::Client;
use common::spawn_server;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pigeonhole schema in the surface DSL: `holes + 1` pigeon rows over
/// `holes` columns per block. Coherence checking is refutation-heavy,
/// so each uncached query keeps the workspace lock busy for a while.
fn php_schema(blocks: usize, holes: usize) -> String {
    let mut out = String::new();
    for c in 0..blocks {
        let _ = write!(out, "class R{c} isa ");
        for i in 0..=holes {
            if i > 0 {
                out.push_str(" and ");
            }
            out.push('(');
            for j in 0..holes {
                if j > 0 {
                    out.push_str(" or ");
                }
                let _ = write!(out, "H{c}_{i}_{j}");
            }
            out.push(')');
        }
        out.push_str(" endclass\n");
        for i in 0..=holes {
            for j in 0..holes {
                let _ = write!(out, "class H{c}_{i}_{j} isa R{c}");
                for k in 0..=holes {
                    if k != i {
                        let _ = write!(out, " and not H{c}_{k}_{j}");
                    }
                }
                out.push_str(" endclass\n");
            }
        }
    }
    out
}

fn response(line: &str) -> Json {
    parse(line.trim_end()).expect("valid JSON response")
}

fn first_answer(v: &Json) -> &Json {
    &v.get("answers").and_then(Json::as_arr).expect("answers array")[0]
}

#[test]
fn saturated_queue_degrades_to_admission_unknowns_and_recovers() {
    // The worker pool (default 4) runs the hog's drain and the probe's
    // query concurrently, on the two connections' own workers.
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
    // Zero queue depth: any query arriving mid-drain degrades.
    config.quota.max_pending = 0;
    // Disable caching so every coherence check recomputes, keeping the
    // drain busy for a meaningful window.
    config.quota.workspace_limits.bundle_cache_cap = 0;
    config.quota.workspace_limits.cluster_cache_cap = 0;
    let mut server = spawn_server(config);
    let addr = server.addr();

    let schema = php_schema(2, 4);
    let open = format!(
        r#"{{"op":"open","workspace":"w","schema":{}}}"#,
        car_server::json::to_string(&Json::Str(schema))
    );
    let mut setup = Client::connect(addr).unwrap();
    let v = response(&setup.roundtrip(&open).unwrap());
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));

    const QUERY: &str = r#"{"op":"query","workspace":"w","queries":[{"kind":"coherent"}]}"#;
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // The hog: keeps the workspace drain busy with expensive,
        // uncacheable coherence checks until told to stop.
        let hog_stop = Arc::clone(&stop);
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            while !hog_stop.load(Ordering::Relaxed) {
                let v = response(&client.roundtrip(QUERY).unwrap());
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            }
        });

        // The probe: keeps asking until it observes an admission
        // degradation. Probes landing in the tiny between-drain gaps
        // become leaders and answer normally; with the hog busy >95% of
        // the time, an admission answer shows up almost immediately.
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut saw_admission = false;
        while Instant::now() < deadline {
            let v = response(&client.roundtrip(QUERY).unwrap());
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            let answer = first_answer(&v);
            match answer.get("cause").and_then(Json::as_str) {
                Some("admission") => {
                    assert_eq!(
                        answer.get("outcome"),
                        Some(&Json::Str("unknown".into())),
                        "admission answers must be unknown"
                    );
                    saw_admission = true;
                    break;
                }
                // A gap probe that became leader: a real answer.
                None => {
                    assert_eq!(answer.get("outcome"), Some(&Json::Str("disproved".into())));
                }
                Some(other) => panic!("unexpected degradation cause {other}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        assert!(saw_admission, "no admission degradation observed in 60s");

        // Recovery: once the hog's final in-flight drain finishes, the
        // same connection gets a real answer again (pigeonhole blocks
        // are incoherent → disproved). The first probe or two may still
        // race that last drain and degrade.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let v = response(&client.roundtrip(QUERY).unwrap());
            let answer = first_answer(&v);
            if answer.get("cause").and_then(Json::as_str) == Some("admission") {
                assert!(
                    Instant::now() < deadline,
                    "workspace still degraded 60s after pressure stopped"
                );
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            assert_eq!(
                answer.get("outcome"),
                Some(&Json::Str("disproved".into())),
                "workspace must answer normally after pressure stops"
            );
            break;
        }
    });
    server.stop();
}
