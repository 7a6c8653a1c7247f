//! Protocol fuzz: seeded random mixes of valid traffic, malformed
//! JSON, truncated lines and oversized frames, from 1, 4 and 16
//! concurrent connections. Invariants:
//!
//! * every frame gets exactly one response, in order, and it is valid
//!   JSON with an `ok` field — the server never panics, never hangs,
//!   never closes a connection over bad input;
//! * corrupt frames never change workspace state;
//! * every valid operation's result is bit-identical to replaying the
//!   same operations on a direct in-process [`car_core::Workspace`].

mod common;

use car_server::json::{parse, Json};
use car_server::service::ServerConfig;
use car_server::{Client, Server};
use common::{apply_frame, open_frame, query_frame, spawn_server, Shadow, SCHEMA};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Frame cap for the fuzz server: small enough that oversize attempts
/// are cheap, large enough for every legitimate generated frame.
const FRAME_CAP: usize = 4096;

fn fuzz_server() -> Server {
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
    config.max_frame_bytes = FRAME_CAP;
    spawn_server(config)
}

/// A corrupt frame and the error kind it must provoke.
fn corrupt_frame(rng: &mut SmallRng) -> (Vec<u8>, &'static str) {
    match rng.gen_range(0u32..5) {
        0 => {
            // Truncate a valid frame at a random interior byte.
            let full = format!(r#"{{"op":"ping","id":{}}}"#, rng.gen_range(0u64..1000));
            let cut = rng.gen_range(1..full.len() - 1);
            (full.as_bytes()[..cut].to_vec(), "bad_json")
        }
        1 => {
            // Printable garbage that is not JSON.
            let len = rng.gen_range(1usize..40);
            let garbage: Vec<u8> =
                std::iter::once(b'x').chain((1..len).map(|_| rng.gen_range(b'a'..=b'z'))).collect();
            (garbage, "bad_json")
        }
        2 => {
            // Invalid UTF-8.
            (vec![0xff, 0xfe, b'{', b'}'], "bad_json")
        }
        3 => {
            // Oversized frame.
            let mut frame = b"{\"op\":\"ping\",\"pad\":\"".to_vec();
            frame.extend(std::iter::repeat_n(b'x', FRAME_CAP + rng.gen_range(1usize..100)));
            frame.extend(b"\"}");
            (frame, "frame_too_large")
        }
        _ => {
            // Valid JSON, invalid shape.
            let shapes: [&[u8]; 4] = [
                b"[1,2,3]",
                b"{\"op\":\"query\",\"workspace\":\"w\"}",
                b"{\"op\":\"apply\",\"workspace\":\"w\",\"deltas\":[{\"kind\":\"warp\"}]}",
                b"{\"op\":42}",
            ];
            (shapes[rng.gen_range(0..shapes.len())].to_vec(), "bad_request")
        }
    }
}

fn response_json(line: &str) -> Json {
    parse(line.trim_end()).expect("every response line is valid JSON")
}

/// One connection's fuzz session: deterministic per seed, with its own
/// tenant so concurrent sessions cannot interact.
fn fuzz_session(addr: std::net::SocketAddr, seed: u64, iterations: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tenant = format!("t{seed}");
    let with_tenant = |frame: &str| {
        // Splice the tenant into the frame's top-level object.
        format!("{{\"tenant\":\"{tenant}\",{}", &frame[1..])
    };
    let mut client = Client::connect(addr).unwrap();
    let resp = client.roundtrip(&with_tenant(&open_frame("w", 0, SCHEMA))).unwrap();
    assert_eq!(response_json(&resp).get("ok"), Some(&Json::Bool(true)));
    let mut shadow = Shadow::new(SCHEMA);

    for i in 0..iterations {
        match rng.gen_range(0u32..10) {
            // Corrupt input: exactly one error response, state intact.
            0..=3 => {
                let (mut frame, want_kind) = corrupt_frame(&mut rng);
                frame.push(b'\n');
                client.send_raw(&frame).unwrap();
                let resp = response_json(&client.read_response().unwrap());
                assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "iteration {i}");
                let kind = resp
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .expect("error frame has a kind");
                assert_eq!(kind, want_kind, "iteration {i}");
            }
            // Valid edits, mirrored in the shadow.
            4 | 5 => {
                let deltas = fuzz_deltas(&mut rng);
                let resp = client.roundtrip(&with_tenant(&apply_frame("w", u64::from(i), &deltas))).unwrap();
                let v = response_json(&resp);
                let applied = v.get("applied").and_then(Json::as_u64).unwrap();
                assert_eq!(applied, shadow.apply(&deltas), "iteration {i}");
            }
            6 => {
                let resp = client
                    .roundtrip(&with_tenant(&format!(r#"{{"op":"undo","workspace":"w","id":{i}}}"#)))
                    .unwrap();
                assert_eq!(
                    response_json(&resp).get("moved"),
                    Some(&Json::Bool(shadow.undo())),
                    "iteration {i}"
                );
            }
            // Pipelined interleaving: a burst of frames written before
            // any response is read; responses must come back 1:1 in
            // order, with corrupt frames answered in sequence too.
            7 => {
                let burst = rng.gen_range(2usize..5);
                let mut expected: Vec<Option<Vec<Json>>> = Vec::new();
                for b in 0..burst {
                    if rng.gen_bool(0.3) {
                        let (mut frame, _) = corrupt_frame(&mut rng);
                        frame.push(b'\n');
                        client.send_raw(&frame).unwrap();
                        expected.push(None);
                    } else {
                        let queries = fuzz_queries(&mut rng);
                        client
                            .send(&with_tenant(&query_frame(
                                "w",
                                u64::from(i) * 10 + b as u64,
                                &queries,
                            )))
                            .unwrap();
                        expected.push(Some(shadow.query(&queries)));
                    }
                }
                for (b, want) in expected.into_iter().enumerate() {
                    let resp = response_json(&client.read_response().unwrap());
                    match want {
                        None => {
                            assert_eq!(
                                resp.get("ok"),
                                Some(&Json::Bool(false)),
                                "iteration {i} burst {b}"
                            );
                        }
                        Some(answers) => {
                            assert_eq!(
                                resp.get("id").and_then(Json::as_u64),
                                Some(u64::from(i) * 10 + b as u64),
                                "iteration {i} burst {b}: responses out of order"
                            );
                            let got = resp.get("answers").and_then(Json::as_arr).unwrap();
                            assert_eq!(got, &answers[..], "iteration {i} burst {b}");
                        }
                    }
                }
            }
            // Plain queries.
            _ => {
                let queries = fuzz_queries(&mut rng);
                let resp =
                    client.roundtrip(&with_tenant(&query_frame("w", u64::from(i), &queries))).unwrap();
                let v = response_json(&resp);
                let got = v.get("answers").and_then(Json::as_arr).unwrap();
                assert_eq!(got, &shadow.query(&queries)[..], "iteration {i}");
            }
        }
    }
    let resp = client.roundtrip(r#"{"op":"ping","id":424242}"#).unwrap();
    assert_eq!(response_json(&resp).get("id"), Some(&Json::UInt(424242)));
}

fn fuzz_deltas(rng: &mut SmallRng) -> Vec<car_server::protocol::WireDelta> {
    use car_server::protocol::WireDelta;
    let pool = ["Person", "Professor", "Student", "Course", "X0", "X1", "Nope"];
    let name = |rng: &mut SmallRng| pool[rng.gen_range(0..pool.len())].to_owned();
    (0..rng.gen_range(1usize..3))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => WireDelta::AddClass { name: format!("X{}", rng.gen_range(0u32..2)) },
            1 => WireDelta::RemoveClass { name: name(rng) },
            _ => WireDelta::SetIsa {
                class: name(rng),
                isa: (0..rng.gen_range(0usize..2))
                    .map(|_| vec![(name(rng), rng.gen_bool(0.3))])
                    .collect(),
            },
        })
        .collect()
}

fn fuzz_queries(rng: &mut SmallRng) -> Vec<car_server::protocol::WireQuery> {
    use car_server::protocol::WireQuery;
    let pool = ["Person", "Professor", "Student", "Course", "X0", "X1", "Nope"];
    let name = |rng: &mut SmallRng| pool[rng.gen_range(0..pool.len())].to_owned();
    (0..rng.gen_range(1usize..4))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => WireQuery::Coherent,
            1 => WireQuery::Subsumes { sup: name(rng), sub: name(rng) },
            2 => WireQuery::Disjoint(name(rng), name(rng)),
            _ => WireQuery::Satisfiable(name(rng)),
        })
        .collect()
}

fn run_fuzz(connections: u64, iterations: u32) {
    let mut server = fuzz_server();
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..connections {
            scope.spawn(move || fuzz_session(addr, c, iterations));
        }
    });
    server.stop();
}

#[test]
fn fuzz_single_connection() {
    run_fuzz(1, 60);
}

#[test]
fn fuzz_four_connections() {
    run_fuzz(4, 30);
}

#[test]
fn fuzz_sixteen_connections() {
    run_fuzz(16, 15);
}

/// A client that dies mid-frame (no trailing newline): the final
/// partial line is processed as a frame and answered before the server
/// sees EOF.
#[test]
fn truncated_final_line_is_still_answered() {
    let mut server = fuzz_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(br#"{"op":"ping","id":5}"#).unwrap();
    client.shutdown_write();
    let rest = client.drain();
    let v = response_json(&rest);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(v.get("id"), Some(&Json::UInt(5)));
    server.stop();
}

/// Abruptly dropped connections (mid-burst) must not wedge the server.
#[test]
fn dropped_connections_leave_the_server_healthy() {
    let mut server = fuzz_server();
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut client = Client::connect(server.addr()).unwrap();
        let _ = client.send(&open_frame("w", 0, SCHEMA));
        for i in 0..rng.gen_range(1u64..5) {
            let _ = client.send(&query_frame("w", i, &fuzz_queries(&mut rng)));
        }
        drop(client); // vanish without reading responses
    }
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.roundtrip(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(response_json(&resp).get("ok"), Some(&Json::Bool(true)));
    server.stop();
}
