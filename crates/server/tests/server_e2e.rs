//! End-to-end tests over real TCP connections: protocol robustness on
//! hostile input, bit-identical agreement with in-process reasoning,
//! and correct coalescing under concurrency.

mod common;

use car_core::syntax::Card;
use car_server::json::{parse, Json};
use car_server::protocol::{WireDelta, WireQuery};
use car_server::service::ServerConfig;
use car_server::{Client, Server};
use common::{apply_frame, open_frame, query_frame, spawn_server, Shadow, SCHEMA};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A server with no reasoning budget, so answers are deterministic and
/// comparable with an unbounded in-process shadow.
fn unbudgeted_server() -> Server {
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
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

#[test]
fn malformed_frames_never_tear_down_the_connection() {
    let mut server = unbudgeted_server();
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(err_kind(&client.roundtrip("this is not json").unwrap()), "bad_json");
    ok(&client.roundtrip(r#"{"op":"ping"}"#).unwrap());
    assert_eq!(err_kind(&client.roundtrip(r#"{"op":"ping""#).unwrap()), "bad_json");
    assert_eq!(err_kind(&client.roundtrip(r#"{"op":"warp"}"#).unwrap()), "bad_request");
    assert_eq!(err_kind(&client.roundtrip("[1,2,3]").unwrap()), "bad_request");
    // Invalid UTF-8 bytes.
    client.send_raw(b"\xff\xfe{\"op\":\"ping\"}\n").unwrap();
    assert_eq!(err_kind(&client.read_response().unwrap()), "bad_json");
    // The same connection still works afterwards.
    let pong = ok(&client.roundtrip(r#"{"op":"ping","id":9}"#).unwrap());
    assert_eq!(pong.get("id"), Some(&Json::UInt(9)));
    server.stop();
}

/// Satellite regression: inputs that used to (or would) abort the
/// process — unbounded parser recursion, unbounded JSON recursion,
/// unbounded frame sizes — come back as spanned error responses
/// through the server loop, and the connection survives each one.
#[test]
fn formerly_panicking_inputs_error_through_the_server() {
    let config = ServerConfig { max_frame_bytes: 1 << 20, ..Default::default() };
    let mut server = spawn_server(config);
    let mut client = Client::connect(server.addr()).unwrap();

    // 100k nested parens in schema text: the recursive-descent parser
    // depth guard turns this into a positioned parse error.
    let bomb = format!("class A isa {}B{} endclass", "(".repeat(100_000), ")".repeat(100_000));
    let resp = client.roundtrip(&open_frame("w", 1, &bomb)).unwrap();
    assert_eq!(err_kind(&resp), "parse");
    let v = parse(resp.trim_end()).unwrap();
    assert!(v.get("error").unwrap().get("line").is_some());

    // 200k-deep JSON arrays: the JSON depth guard answers instead of
    // blowing the stack.
    let json_bomb = format!(
        r#"{{"op":"query","workspace":"w","queries":{}{}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    assert_eq!(err_kind(&client.roundtrip(&json_bomb).unwrap()), "bad_json");

    // A frame beyond the cap is discarded up to its newline.
    let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(2 << 20));
    assert_eq!(err_kind(&client.roundtrip(&huge).unwrap()), "frame_too_large");

    // Deep undo on a fresh workspace (nothing to undo) is a clean no-op.
    ok(&client.roundtrip(&open_frame("w", 2, "class A endclass")).unwrap());
    let undo = ok(&client.roundtrip(r#"{"op":"undo","workspace":"w"}"#).unwrap());
    assert_eq!(undo.get("moved"), Some(&Json::Bool(false)));

    // The connection survived all of it.
    ok(&client.roundtrip(r#"{"op":"ping"}"#).unwrap());
    server.stop();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let mut server = unbudgeted_server();
    let mut client = Client::connect(server.addr()).unwrap();
    ok(&client.roundtrip(&open_frame("w", 0, SCHEMA)).unwrap());
    for id in 1..=20u64 {
        client.send(&format!(r#"{{"op":"ping","id":{id}}}"#)).unwrap();
    }
    for id in 1..=20u64 {
        let resp = ok(&client.read_response().unwrap());
        assert_eq!(resp.get("id"), Some(&Json::UInt(id)));
    }
    server.stop();
}

/// The class-name pool the generators draw from. `Ghost` is never
/// defined, exercising the unknown-class answer path.
const POOL: &[&str] =
    &["Person", "Professor", "Student", "Course", "Extra0", "Extra1", "Extra2", "Ghost"];

fn random_formula(rng: &mut SmallRng) -> Vec<Vec<(String, bool)>> {
    (0..rng.gen_range(0usize..3))
        .map(|_| {
            (0..rng.gen_range(1usize..3))
                .map(|_| {
                    (POOL[rng.gen_range(0..POOL.len())].to_owned(), rng.gen_bool(0.3))
                })
                .collect()
        })
        .collect()
}

fn random_deltas(rng: &mut SmallRng) -> Vec<WireDelta> {
    (0..rng.gen_range(1usize..4))
        .map(|_| match rng.gen_range(0u32..10) {
            0 | 1 => WireDelta::AddClass {
                name: format!("Extra{}", rng.gen_range(0u32..3)),
            },
            2 => WireDelta::RemoveClass {
                name: POOL[rng.gen_range(0..POOL.len())].to_owned(),
            },
            3 => {
                let (min, max) = (rng.gen_range(0u64..3), rng.gen_range(0u64..3));
                WireDelta::SetAttribute {
                    class: POOL[rng.gen_range(0..POOL.len())].to_owned(),
                    attr: format!("a{}", rng.gen_range(0u32..2)),
                    inverse: rng.gen_bool(0.2),
                    // min > max is generated on purpose: an invalid
                    // cardinality must fail cleanly, identically on
                    // both sides.
                    spec: rng.gen_bool(0.8).then(|| (Card { min, max: Some(max) }, random_formula(rng))),
                }
            }
            4 => WireDelta::SetParticipation {
                class: POOL[rng.gen_range(0..POOL.len())].to_owned(),
                rel: "Teaches".to_owned(),
                role: ["teacher", "taught", "bogus"][rng.gen_range(0usize..3)].to_owned(),
                card: rng.gen_bool(0.7).then(|| Card { min: rng.gen_range(0u64..2), max: Some(rng.gen_range(1u64..3)) }),
            },
            _ => WireDelta::SetIsa {
                class: POOL[rng.gen_range(0..POOL.len())].to_owned(),
                isa: random_formula(rng),
            },
        })
        .collect()
}

fn random_queries(rng: &mut SmallRng) -> Vec<WireQuery> {
    let name = |rng: &mut SmallRng| POOL[rng.gen_range(0..POOL.len())].to_owned();
    (0..rng.gen_range(1usize..5))
        .map(|_| match rng.gen_range(0u32..5) {
            0 => WireQuery::Coherent,
            1 => WireQuery::Subsumes { sup: name(rng), sub: name(rng) },
            2 => WireQuery::Disjoint(name(rng), name(rng)),
            3 => WireQuery::Equivalent(name(rng), name(rng)),
            _ => WireQuery::Satisfiable(name(rng)),
        })
        .collect()
}

/// The tentpole acceptance check: a mixed edit/undo/redo/query traffic
/// stream answered over TCP is bit-identical to replaying the same
/// operations on an in-process [`car_core::Workspace`].
#[test]
fn server_answers_are_bit_identical_to_in_process_replay() {
    let mut server = unbudgeted_server();
    let mut client = Client::connect(server.addr()).unwrap();
    ok(&client.roundtrip(&open_frame("w", 0, SCHEMA)).unwrap());
    let mut shadow = Shadow::new(SCHEMA);

    let mut rng = SmallRng::seed_from_u64(0xCA5);
    for step in 0..60u64 {
        match rng.gen_range(0u32..10) {
            0 => {
                let resp = ok(&client.roundtrip(&format!(
                    r#"{{"op":"undo","workspace":"w","id":{step}}}"#
                )).unwrap());
                assert_eq!(resp.get("moved"), Some(&Json::Bool(shadow.undo())), "step {step}");
            }
            1 => {
                let resp = ok(&client.roundtrip(&format!(
                    r#"{{"op":"redo","workspace":"w","id":{step}}}"#
                )).unwrap());
                assert_eq!(resp.get("moved"), Some(&Json::Bool(shadow.redo())), "step {step}");
            }
            2..=5 => {
                let deltas = random_deltas(&mut rng);
                let resp = client.roundtrip(&apply_frame("w", step, &deltas)).unwrap();
                let v = parse(resp.trim_end()).unwrap();
                let applied = v.get("applied").and_then(Json::as_u64).unwrap();
                assert_eq!(applied, shadow.apply(&deltas), "step {step}: {deltas:?}");
            }
            _ => {
                let queries = random_queries(&mut rng);
                let resp = ok(&client.roundtrip(&query_frame("w", step, &queries)).unwrap());
                let got = resp.get("answers").and_then(Json::as_arr).unwrap();
                let want = shadow.query(&queries);
                assert_eq!(got, &want[..], "step {step}: {queries:?}");
            }
        }
    }
    server.stop();
}

/// Concurrent read-only clients on one workspace: the coalescing path
/// (leader drains followers' batches) must route every answer to the
/// right client with the right value.
#[test]
fn coalesced_concurrent_queries_are_answered_correctly() {
    let mut server = unbudgeted_server();
    let mut setup = Client::connect(server.addr()).unwrap();
    ok(&setup.roundtrip(&open_frame("w", 0, SCHEMA)).unwrap());

    // Expected answers, computed once in-process.
    let cases: Vec<(WireQuery, Json)> = {
        let mut shadow = Shadow::new(SCHEMA);
        let queries = vec![
            WireQuery::Subsumes { sup: "Person".into(), sub: "Student".into() },
            WireQuery::Subsumes { sup: "Student".into(), sub: "Person".into() },
            WireQuery::Disjoint("Student".into(), "Professor".into()),
            WireQuery::Satisfiable("Course".into()),
            WireQuery::Coherent,
            WireQuery::Satisfiable("Ghost".into()),
        ];
        let answers = shadow.query(&queries);
        queries.into_iter().zip(answers).collect()
    };

    let addr = server.addr();
    std::thread::scope(|scope| {
        for t in 0..16u64 {
            let cases = &cases;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                let mut client = Client::connect(addr).unwrap();
                for i in 0..25u64 {
                    let picks: Vec<usize> =
                        (0..rng.gen_range(1usize..4)).map(|_| rng.gen_range(0..cases.len())).collect();
                    let queries: Vec<WireQuery> =
                        picks.iter().map(|&k| cases[k].0.clone()).collect();
                    let resp = client.roundtrip(&query_frame("w", t * 1000 + i, &queries)).unwrap();
                    let v = parse(resp.trim_end()).unwrap();
                    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
                    let answers = v.get("answers").and_then(Json::as_arr).unwrap();
                    assert_eq!(answers.len(), picks.len());
                    for (answer, &k) in answers.iter().zip(&picks) {
                        assert_eq!(answer, &cases[k].1, "client {t} iteration {i}");
                    }
                }
            });
        }
    });
    server.stop();
}
