//! Crash and shutdown recovery across real server restarts: a second
//! [`Server`] over the same `--data-dir` must come back answering
//! bit-identically, whether the first one was killed mid-load (journal
//! replay) or drained gracefully (snapshot, zero replay). Also covers
//! the remote `shutdown` operation and skipping unusable workspace
//! directories.

mod common;

use car_core::persist::fault;
use car_server::json::{parse, Json};
use car_server::protocol::{WireDelta, WireQuery};
use car_server::service::ServerConfig;
use car_server::{Client, Server};
use common::{apply_frame, open_frame, query_frame, spawn_server, Shadow, SCHEMA};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("car-server-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An unbudgeted server persisting into `data_dir`, so answers are
/// deterministic and survive restarts.
fn durable_server(data_dir: &Path) -> Server {
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
    config.data_dir = Some(data_dir.to_owned());
    spawn_server(config)
}

fn ok(resp: &str) -> Json {
    let v = parse(resp.trim_end()).expect("response is valid JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "expected ok: {resp}");
    v
}

fn err_kind(resp: &str) -> String {
    let v = parse(resp.trim_end()).expect("response is valid JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "expected error: {resp}");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error has a kind")
        .to_owned()
}

fn simple_frame(op: &str, workspace: &str, id: u64) -> String {
    format!(r#"{{"id":{id},"op":"{op}","workspace":"{workspace}"}}"#)
}

/// The edit script every restart test runs: two deltas, an undo, a
/// redo — four journal records.
fn deltas() -> Vec<WireDelta> {
    vec![
        WireDelta::AddClass { name: "TA".into() },
        WireDelta::SetIsa { class: "TA".into(), isa: vec![vec![("Student".into(), false)]] },
    ]
}

fn queries() -> Vec<WireQuery> {
    vec![
        WireQuery::Coherent,
        WireQuery::Satisfiable("TA".into()),
        WireQuery::Subsumes { sup: "Person".into(), sub: "TA".into() },
        WireQuery::Disjoint("TA".into(), "Professor".into()),
        WireQuery::Equivalent("Student".into(), "Student".into()),
    ]
}

/// Runs the edit script over one connection and returns the answers
/// the pre-restart server gave.
fn run_script(client: &mut Client, workspace: &str) -> Json {
    ok(&client.roundtrip(&open_frame(workspace, 1, SCHEMA)).unwrap());
    let applied = ok(&client.roundtrip(&apply_frame(workspace, 2, &deltas())).unwrap());
    assert_eq!(applied.get("applied"), Some(&Json::UInt(2)));
    ok(&client.roundtrip(&simple_frame("undo", workspace, 3)).unwrap());
    ok(&client.roundtrip(&simple_frame("redo", workspace, 4)).unwrap());
    let resp = ok(&client.roundtrip(&query_frame(workspace, 5, &queries())).unwrap());
    resp.get("answers").expect("query response has answers").clone()
}

/// The shadow's ground-truth answers for the same script.
fn shadow_answers() -> Json {
    let mut shadow = Shadow::new(SCHEMA);
    assert_eq!(shadow.apply(&deltas()), 2);
    shadow.undo();
    shadow.redo();
    Json::Arr(shadow.query(&queries()))
}

fn stat(v: &Json, key: &str) -> u64 {
    match v.get(key) {
        Some(&Json::UInt(n)) => n,
        other => panic!("stats field {key} missing or non-numeric: {other:?}"),
    }
}

#[test]
fn crash_recovery_replays_the_journal_bit_identically() {
    let data = scratch("crash");

    let mut first = durable_server(&data);
    let mut client = Client::connect(first.addr()).unwrap();
    let before = run_script(&mut client, "w");
    assert_eq!(before, shadow_answers());
    // Power cut: stop the accept loop without draining or snapshotting.
    // Durability now rests entirely on the journal.
    first.stop();
    drop(client);
    drop(first);

    let mut second = durable_server(&data);
    let report = second.service().recovery_report();
    assert_eq!(report.workspaces_recovered, 1, "{report:?}");
    assert_eq!(report.ops_replayed, 4, "2 deltas + undo + redo: {report:?}");
    assert_eq!(report.replay_failures, 0, "{report:?}");
    assert_eq!(report.dirs_skipped, 0, "{report:?}");

    let mut client = Client::connect(second.addr()).unwrap();
    let resp = ok(&client.roundtrip(&query_frame("w", 5, &queries())).unwrap());
    assert_eq!(
        resp.get("answers"),
        Some(&before),
        "post-crash answers must be bit-identical"
    );
    // The undo/redo survived too: one more undo retracts the TA isa.
    let undone = ok(&client.roundtrip(&simple_frame("undo", "w", 6)).unwrap());
    assert_eq!(undone.get("moved"), Some(&Json::Bool(true)));

    // The warm workspace pulled its enumerations from the durable
    // store instead of recomputing them.
    let stats = ok(&client.roundtrip(&simple_frame("stats", "w", 7)).unwrap());
    assert!(
        stat(&stats, "disk_cluster_hits") + stat(&stats, "disk_ccs_hits") > 0,
        "warm restart must hit the durable store: {stats:?}"
    );
    second.stop();
}

#[test]
fn graceful_shutdown_snapshots_so_recovery_replays_nothing() {
    let data = scratch("graceful");

    let mut first = durable_server(&data);
    let mut client = Client::connect(first.addr()).unwrap();
    let before = run_script(&mut client, "w");
    let snapshots = first.shutdown();
    assert_eq!(snapshots, 1, "drain must snapshot the open workspace");
    assert_eq!(first.service().durability_failures(), 0);
    drop(client);
    drop(first);

    let mut second = durable_server(&data);
    let report = second.service().recovery_report();
    assert_eq!(report.workspaces_recovered, 1, "{report:?}");
    assert_eq!(report.ops_replayed, 0, "a drained server leaves no journal tail: {report:?}");
    assert_eq!(report.truncated_tails, 0, "{report:?}");

    let mut client = Client::connect(second.addr()).unwrap();
    let resp = ok(&client.roundtrip(&query_frame("w", 5, &queries())).unwrap());
    assert_eq!(resp.get("answers"), Some(&before));
    second.stop();
}

#[test]
fn remote_shutdown_is_forbidden_by_default() {
    let mut server = durable_server(&scratch("noshutdown"));
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(err_kind(&client.roundtrip(r#"{"op":"shutdown","id":1}"#).unwrap()), "forbidden");
    // The connection and service are unaffected.
    ok(&client.roundtrip(r#"{"op":"ping","id":2}"#).unwrap());
    assert!(!server.service().shutdown_requested());
    server.stop();
}

#[test]
fn remote_shutdown_drains_and_snapshots_when_allowed() {
    let data = scratch("remote-shutdown");
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
    config.data_dir = Some(data.clone());
    config.allow_remote_shutdown = true;
    let mut server = spawn_server(config);

    let mut client = Client::connect(server.addr()).unwrap();
    let before = run_script(&mut client, "w");
    let resp = ok(&client.roundtrip(r#"{"op":"shutdown","id":9}"#).unwrap());
    assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
    // The binary's main loop: block on the signal, then drain.
    let snapshots = server.serve_until_shutdown();
    assert_eq!(snapshots, 1);
    drop(client);
    drop(server);

    let mut second = durable_server(&data);
    let report = second.service().recovery_report();
    assert_eq!(report.workspaces_recovered, 1, "{report:?}");
    assert_eq!(report.ops_replayed, 0, "{report:?}");
    let mut client = Client::connect(second.addr()).unwrap();
    let resp = ok(&client.roundtrip(&query_frame("w", 5, &queries())).unwrap());
    assert_eq!(resp.get("answers"), Some(&before));
    second.stop();
}

#[test]
fn corrupt_workspace_dir_is_skipped_without_harming_the_rest() {
    let data = scratch("skipdir");

    let mut first = durable_server(&data);
    let mut client = Client::connect(first.addr()).unwrap();
    let good_answers = run_script(&mut client, "good");
    let _ = run_script(&mut client, "bad");
    assert_eq!(first.shutdown(), 2);
    drop(client);
    drop(first);

    // Tear the bad workspace's snapshots in half (every one — they are
    // epoch-named, `snapshot.<epoch>.car`). With the journal already
    // compacted away, the directory is unrecoverable.
    let bad_dir = data.join("workspaces").join("default").join("bad");
    let mut torn = 0;
    for entry in std::fs::read_dir(&bad_dir).unwrap().flatten() {
        let name = entry.file_name();
        if !name.to_string_lossy().starts_with("snapshot") {
            continue;
        }
        let snap = entry.path();
        let len = std::fs::metadata(&snap).unwrap().len();
        fault::truncate_file(&snap, len / 2).unwrap();
        torn += 1;
    }
    assert!(torn > 0, "no snapshot file found to corrupt in {bad_dir:?}");

    let mut second = durable_server(&data);
    let report = second.service().recovery_report();
    assert_eq!(report.workspaces_recovered, 1, "{report:?}");
    assert_eq!(report.dirs_skipped, 1, "{report:?}");

    let mut client = Client::connect(second.addr()).unwrap();
    let resp = ok(&client.roundtrip(&query_frame("good", 5, &queries())).unwrap());
    assert_eq!(resp.get("answers"), Some(&good_answers));
    assert_eq!(
        err_kind(&client.roundtrip(&query_frame("bad", 6, &queries())).unwrap()),
        "unknown_workspace"
    );
    second.stop();
}

/// Kill the server while several connections are mid-burst. Every
/// *acknowledged* edit must survive into the next incarnation; the
/// recovered workspaces answer queries without replay failures.
#[test]
fn killing_the_server_mid_load_loses_no_acknowledged_edit() {
    let data = scratch("midload");
    let mut first = durable_server(&data);
    let addr = first.addr();

    let workers: Vec<_> = (0..3)
        .map(|t| {
            std::thread::spawn(move || {
                let ws = format!("load-{t}");
                let mut client = Client::connect(addr).unwrap();
                ok(&client.roundtrip(&open_frame(&ws, 1, SCHEMA)).unwrap());
                let mut acked = 0u64;
                for i in 0..24 {
                    let delta =
                        vec![WireDelta::AddClass { name: format!("C{t}_{i}") }];
                    // The stop() below may cut the connection at any
                    // point; only a parsed ok-response counts as acked.
                    let Ok(resp) = client.roundtrip(&apply_frame(&ws, 2 + i, &delta)) else {
                        break;
                    };
                    let Ok(v) = parse(resp.trim_end()) else { break };
                    if v.get("ok") != Some(&Json::Bool(true)) {
                        break;
                    }
                    acked += 1;
                }
                (ws, acked)
            })
        })
        .collect();

    // Let the load build, then pull the plug mid-burst.
    std::thread::sleep(std::time::Duration::from_millis(30));
    first.stop();
    drop(first);
    let acked: Vec<(String, u64)> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let mut second = durable_server(&data);
    let report = second.service().recovery_report();
    assert_eq!(report.workspaces_recovered, 3, "{report:?}");
    assert_eq!(report.replay_failures, 0, "{report:?}");
    let total_acked: u64 = acked.iter().map(|(_, n)| n).sum();
    assert!(
        report.ops_replayed >= total_acked,
        "journal lost acknowledged edits: replayed {} < acked {total_acked}",
        report.ops_replayed
    );

    let mut client = Client::connect(second.addr()).unwrap();
    for (ws, acked) in &acked {
        // Every acknowledged class is present in the recovered schema.
        let stats = ok(&client.roundtrip(&simple_frame("stats", ws, 90)).unwrap());
        let base_classes = 4; // Person, Professor, Student, Course
        assert!(
            stat(&stats, "classes") >= base_classes + acked,
            "{ws}: {acked} acked edits but only {} classes after recovery",
            stat(&stats, "classes")
        );
        // And the workspace still reasons correctly.
        let resp = ok(&client
            .roundtrip(&query_frame(ws, 91, &[WireQuery::Coherent]))
            .unwrap());
        assert!(resp.get("answers").is_some());
    }
    second.stop();
}
