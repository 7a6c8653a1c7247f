//! `car_loadgen` — load generator for the `car-server` protocol.
//!
//! Spawns an in-process [`car_server::Server`] on an ephemeral port and
//! replays mixed edit/query traffic from many concurrent TCP clients
//! (default 120), in three phases:
//!
//! 1. **mixed** — every client owns a private workspace and runs a
//!    seeded deterministic stream of applies, undos and query batches.
//!    Every answer is compared against an in-process
//!    [`car_core::Workspace`] replay of the same client's operations;
//!    the `replay_mismatches` counter must stay 0.
//! 2. **coalesce** — every client hammers one shared read-only
//!    workspace, exercising the leader/follower batched-query path;
//!    answers are compared against precomputed expected values.
//! 3. **pressure** — a separate server with a 1-step budget: every
//!    query must degrade to `unknown` with cause `budget`,
//!    deterministically, proving exhaustion never panics, poisons a
//!    workspace, or drops a response.
//!
//! With `--restart` the three phases above are replaced by the
//! crash-safety phases of `BENCH_7.json`:
//!
//! 1. **restart_crash** — durable clients edit journaled workspaces,
//!    record a final answer set, then the server is killed without
//!    draining; a second server over the same `--data-dir` must replay
//!    every acknowledged operation and answer bit-identically.
//! 2. **restart_graceful** — the same workload, but the first server
//!    drains and snapshots; recovery must replay *zero* journal ops.
//! 3. **warm_start_pigeonhole** — an in-process pigeonhole workload
//!    run cold (empty store) and then warm (reopened store): identical
//!    answers, every cluster recovered from disk, and far fewer DPLL
//!    propagations.
//!
//! With `--reactor` (Linux only) the phases become the
//! connection-density phases of `BENCH_10.json`:
//!
//! 1. **reactor_idle_dense** — a real `car-server` child process
//!    holds 10,000 idle connections while the standard 120-client
//!    mixed workload runs against it, every answer
//!    shadow-verified; the child's thread count must stay O(workers),
//!    its epoll wakeups bounded by traffic, and a remote `shutdown`
//!    must drain it cleanly.
//! 2. **reactor_backpressure** — bounded-output discipline: a slow
//!    reader observes `backpressure_stalls` and still gets every
//!    response in order once it drains; a non-reading client pipelining
//!    past a small `--max-write-buffer` is disconnected exactly once
//!    while the server stays healthy for others.
//!
//! With `--fleet` the phases become the multi-writer safety phases of
//! `BENCH_9.json`:
//!
//! 1. **fleet_takeover** — a leader, a read-only follower and a
//!    standby leader share one data directory. The follower must
//!    answer every workspace bit-identically while refusing every edit
//!    with `read_only`; the standby must respect the live leader's
//!    workspace leases, adopt every workspace within a TTL of the
//!    leader's power cut, answer bit-identically, and accept edits
//!    again.
//! 2. **fleet_fencing** — a writer's lease dies while its in-memory
//!    handle (the zombie) lives on; a successor steals the claim and
//!    fences the directory at a higher epoch; the zombie then resumes
//!    appending. Recovery must reject every stale-epoch record and
//!    keep every acknowledged and successor edit.
//!
//! Output is the `BENCH_6.json` (or `BENCH_7.json` / `BENCH_9.json`)
//! document: per-phase deterministic counters (gated in CI via
//! `--check`, like `BENCH_5.json`) plus wall-clock observations —
//! total time, p50/p99 latency, throughput — which are recorded but
//! never gated.
//!
//! Usage:
//!   car_loadgen [--clients N] [--iters N]   print BENCH_6.json
//!   car_loadgen --check BENCH_6.json        compare counters, ignore walls
//!   car_loadgen --restart                   print BENCH_7.json
//!   car_loadgen --restart --check BENCH_7.json
//!   car_loadgen --fleet                     print BENCH_9.json
//!   car_loadgen --fleet --check BENCH_9.json
//!   car_loadgen --reactor                   print BENCH_10.json (Linux)
//!   car_loadgen --reactor --check BENCH_10.json

use car_bench::telemetry::counter_lines;
use car_core::persist::{Disk, DiskStore, SharedStore, StoreLimits};
use car_core::reasoner::Strategy;
use car_core::syntax::{Card, ClassFormula, SchemaBuilder};
use car_core::{
    Acquire, JournalOp, Lease, ReasonerConfig, Schema, SchemaDelta, Workspace,
    WorkspaceDir, WorkspaceLimits,
};
use car_server::json::{obj, parse, s, to_string, Json};
use car_server::protocol::{answer_json, unknown_answer, WireDelta, WireQuery};
use car_server::service::{ServerConfig, StoreMode};
use car_server::{Client, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCHEMA: &str = "
    class Person endclass
    class Professor isa Person endclass
    class Student isa Person and not Professor endclass
    class Grad isa Student endclass
    class Course
      participates_in Teaches[taught] : (1, 1)
    endclass
    relation Teaches(teacher, taught)
      constraints (teacher : Professor); (taught : Course)
    endrelation
";

const POOL: &[&str] = &["Person", "Professor", "Student", "Grad", "Course", "Zed"];

/// One phase's results: deterministic counters plus wall observations.
struct PhaseReport {
    name: &'static str,
    counters: BTreeMap<String, u64>,
    wall: Duration,
    latencies_us: Vec<u64>,
    requests: u64,
}

/// Per-client tallies, merged across threads after the phase.
#[derive(Default)]
struct ClientTally {
    requests: u64,
    proved: u64,
    disproved: u64,
    unknown: u64,
    mismatches: u64,
    edits_applied: u64,
    latencies_us: Vec<u64>,
}

fn formula(rng: &mut SmallRng) -> Vec<Vec<(String, bool)>> {
    (0..rng.gen_range(0usize..2))
        .map(|_| {
            (0..rng.gen_range(1usize..3))
                .map(|_| (POOL[rng.gen_range(0..POOL.len())].to_owned(), rng.gen_bool(0.25)))
                .collect()
        })
        .collect()
}

fn deltas(rng: &mut SmallRng) -> Vec<WireDelta> {
    (0..rng.gen_range(1usize..3))
        .map(|_| match rng.gen_range(0u32..6) {
            0 => WireDelta::AddClass { name: format!("Zed{}", rng.gen_range(0u32..3)) },
            1 => WireDelta::SetAttribute {
                class: POOL[rng.gen_range(0..POOL.len())].to_owned(),
                attr: "a".to_owned(),
                inverse: false,
                spec: Some((
                    Card { min: rng.gen_range(0u64..2), max: Some(rng.gen_range(1u64..3)) },
                    formula(rng),
                )),
            },
            _ => WireDelta::SetIsa {
                class: POOL[rng.gen_range(0..POOL.len())].to_owned(),
                isa: formula(rng),
            },
        })
        .collect()
}

fn queries(rng: &mut SmallRng) -> Vec<WireQuery> {
    let name = |rng: &mut SmallRng| POOL[rng.gen_range(0..POOL.len())].to_owned();
    (0..rng.gen_range(1usize..4))
        .map(|_| match rng.gen_range(0u32..5) {
            0 => WireQuery::Coherent,
            1 => WireQuery::Subsumes { sup: name(rng), sub: name(rng) },
            2 => WireQuery::Disjoint(name(rng), name(rng)),
            3 => WireQuery::Equivalent(name(rng), name(rng)),
            _ => WireQuery::Satisfiable(name(rng)),
        })
        .collect()
}

fn delta_json(d: &WireDelta) -> Json {
    let formula_json = |f: &Vec<Vec<(String, bool)>>| {
        Json::Arr(
            f.iter()
                .map(|clause| {
                    Json::Arr(
                        clause
                            .iter()
                            .map(|(class, neg)| {
                                let mut fields = vec![("class", s(class))];
                                if *neg {
                                    fields.push(("neg", Json::Bool(true)));
                                }
                                obj(fields)
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    match d {
        WireDelta::AddClass { name } => obj(vec![("kind", s("add_class")), ("name", s(name))]),
        WireDelta::SetIsa { class, isa } => {
            obj(vec![("kind", s("set_isa")), ("class", s(class)), ("isa", formula_json(isa))])
        }
        WireDelta::SetAttribute { class, attr, inverse, spec } => obj(vec![
            ("kind", s("set_attribute")),
            ("class", s(class)),
            ("attr", s(attr)),
            ("inverse", Json::Bool(*inverse)),
            (
                "spec",
                spec.as_ref().map_or(Json::Null, |(card, ty)| {
                    obj(vec![
                        (
                            "card",
                            Json::Arr(vec![
                                Json::UInt(card.min),
                                card.max.map_or(Json::Null, Json::UInt),
                            ]),
                        ),
                        ("type", formula_json(ty)),
                    ])
                }),
            ),
        ]),
        // The generators above produce only the three kinds handled
        // here; the full serialization lives in the server test suite.
        _ => unreachable!("loadgen generates add_class/set_isa/set_attribute only"),
    }
}

fn frame(tenant: &str, workspace: &str, id: u64, op: &str, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![
        ("id", Json::UInt(id)),
        ("op", s(op)),
        ("tenant", s(tenant)),
        ("workspace", s(workspace)),
    ];
    fields.extend(extra);
    to_string(&obj(fields))
}

/// In-process replay of one client's operations on a raw [`Workspace`].
struct Shadow {
    ws: Workspace,
}

impl Shadow {
    fn new() -> Shadow {
        let schema = car_parser::parse_schema(SCHEMA).expect("loadgen schema parses");
        Shadow { ws: Workspace::new(schema, ReasonerConfig::default()) }
    }

    fn apply(&mut self, deltas: &[WireDelta]) -> u64 {
        let mut applied = 0;
        for delta in deltas {
            let Ok(resolved) = delta.resolve(self.ws.schema()) else { break };
            if self.ws.apply(&resolved).is_err() {
                break;
            }
            applied += 1;
        }
        applied
    }

    fn query(&mut self, queries: &[WireQuery]) -> Vec<Json> {
        let mut combined = Vec::new();
        let plan: Vec<Result<usize, String>> = queries
            .iter()
            .map(|q| {
                q.resolve(self.ws.schema()).map(|typed| {
                    let at = combined.len();
                    combined.push(typed);
                    at
                })
            })
            .collect();
        let results = self.ws.query_batch_results(&combined);
        plan.into_iter()
            .map(|entry| match entry {
                Ok(at) => answer_json(&results[at]),
                Err(name) => unknown_answer("unknown_class", &format!("unknown class '{name}'")),
            })
            .collect()
    }
}

fn tally_answers(tally: &mut ClientTally, answers: &[Json]) {
    for a in answers {
        match a.get("outcome").and_then(Json::as_str) {
            Some("proved") => tally.proved += 1,
            Some("disproved") => tally.disproved += 1,
            _ => tally.unknown += 1,
        }
    }
}

fn timed_roundtrip(client: &mut Client, frame: &str, tally: &mut ClientTally) -> Json {
    let start = Instant::now();
    let resp = client.roundtrip(frame).expect("server responds");
    tally.latencies_us.push(start.elapsed().as_micros() as u64);
    tally.requests += 1;
    parse(resp.trim_end()).expect("response is valid JSON")
}

/// Phase 1: private workspaces, mixed edits and queries, full replay
/// verification. `name` distinguishes the in-process run
/// (`loadgen_mixed`) from the reactor-child run (`reactor_idle_dense`
/// reuses this workload as its active-traffic half).
fn mixed_phase(name: &'static str, addr: SocketAddr, clients: u64, iters: u32) -> PhaseReport {
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut rng = SmallRng::seed_from_u64(0xB0A0 + c);
                    let tenant = format!("t{c}");
                    let mut client = Client::connect(addr).expect("connect");
                    let open = frame(&tenant, "w", 0, "open", vec![("schema", s(SCHEMA))]);
                    let v = timed_roundtrip(&mut client, &open, &mut tally);
                    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "open failed");
                    let mut shadow = Shadow::new();
                    for i in 1..=iters {
                        match rng.gen_range(0u32..10) {
                            0..=2 => {
                                let ds = deltas(&mut rng);
                                let f = frame(
                                    &tenant,
                                    "w",
                                    u64::from(i),
                                    "apply",
                                    vec![("deltas", Json::Arr(ds.iter().map(delta_json).collect()))],
                                );
                                let v = timed_roundtrip(&mut client, &f, &mut tally);
                                let applied =
                                    v.get("applied").and_then(Json::as_u64).unwrap_or(u64::MAX);
                                let want = shadow.apply(&ds);
                                tally.edits_applied += want;
                                if applied != want {
                                    tally.mismatches += 1;
                                }
                            }
                            3 => {
                                let f = frame(&tenant, "w", u64::from(i), "undo", vec![]);
                                let v = timed_roundtrip(&mut client, &f, &mut tally);
                                let moved = shadow.ws.undo();
                                if v.get("moved") != Some(&Json::Bool(moved)) {
                                    tally.mismatches += 1;
                                }
                            }
                            _ => {
                                let qs = queries(&mut rng);
                                let f = frame(
                                    &tenant,
                                    "w",
                                    u64::from(i),
                                    "query",
                                    vec![(
                                        "queries",
                                        Json::Arr(
                                            qs.iter()
                                                .map(|q| query_json(q))
                                                .collect(),
                                        ),
                                    )],
                                );
                                let v = timed_roundtrip(&mut client, &f, &mut tally);
                                let got = v.get("answers").and_then(Json::as_arr).unwrap_or(&[]);
                                let want = shadow.query(&qs);
                                tally_answers(&mut tally, got);
                                if got != &want[..] {
                                    tally.mismatches += 1;
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    merge(name, clients, tallies, start.elapsed())
}

fn query_json(q: &WireQuery) -> Json {
    match q {
        WireQuery::Satisfiable(c) => obj(vec![("kind", s("satisfiable")), ("class", s(c))]),
        WireQuery::Coherent => obj(vec![("kind", s("coherent"))]),
        WireQuery::Subsumes { sup, sub } => {
            obj(vec![("kind", s("subsumes")), ("sup", s(sup)), ("sub", s(sub))])
        }
        WireQuery::Disjoint(a, b) => {
            obj(vec![("kind", s("disjoint")), ("a", s(a)), ("b", s(b))])
        }
        WireQuery::Equivalent(a, b) => {
            obj(vec![("kind", s("equivalent")), ("a", s(a)), ("b", s(b))])
        }
    }
}

/// Phase 2: one shared read-only workspace; all clients' batches
/// coalesce through the leader/follower path.
fn coalesce_phase(addr: SocketAddr, clients: u64, iters: u32) -> PhaseReport {
    // Precompute expected answers once.
    let cases: Vec<(WireQuery, Json)> = {
        let mut shadow = Shadow::new();
        let qs = vec![
            WireQuery::Subsumes { sup: "Person".into(), sub: "Grad".into() },
            WireQuery::Subsumes { sup: "Grad".into(), sub: "Person".into() },
            WireQuery::Disjoint("Student".into(), "Professor".into()),
            WireQuery::Coherent,
            WireQuery::Satisfiable("Zed".into()),
        ];
        let answers = shadow.query(&qs);
        qs.into_iter().zip(answers).collect()
    };
    {
        let mut setup = Client::connect(addr).expect("connect");
        let open = frame("shared", "hot", 0, "open", vec![("schema", s(SCHEMA))]);
        let resp = setup.roundtrip(&open).expect("open shared");
        assert!(resp.contains("\"ok\":true"), "shared open failed: {resp}");
    }

    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cases = &cases;
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut rng = SmallRng::seed_from_u64(0xC0A7 + c);
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..iters {
                        let picks: Vec<usize> = (0..rng.gen_range(1usize..4))
                            .map(|_| rng.gen_range(0..cases.len()))
                            .collect();
                        let qs: Vec<Json> =
                            picks.iter().map(|&k| query_json(&cases[k].0)).collect();
                        let f = frame(
                            "shared",
                            "hot",
                            c * 100_000 + u64::from(i),
                            "query",
                            vec![("queries", Json::Arr(qs))],
                        );
                        let v = timed_roundtrip(&mut client, &f, &mut tally);
                        let got = v.get("answers").and_then(Json::as_arr).unwrap_or(&[]);
                        tally_answers(&mut tally, got);
                        if got.len() != picks.len()
                            || got.iter().zip(&picks).any(|(a, &k)| a != &cases[k].1)
                        {
                            tally.mismatches += 1;
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    merge("loadgen_coalesce", clients, tallies, start.elapsed())
}

/// Phase 3: a 1-step budget server — every query must come back
/// `unknown` with cause `budget`, never a panic, never a lost response.
fn pressure_phase(clients: u64, iters: u32) -> PhaseReport {
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_steps = Some(1);
    let mut server = Server::spawn("127.0.0.1:0", config).expect("bind pressure server");
    let addr = server.addr();

    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let tenant = format!("p{c}");
                    let mut client = Client::connect(addr).expect("connect");
                    let open = frame(&tenant, "w", 0, "open", vec![("schema", s(SCHEMA))]);
                    let v = timed_roundtrip(&mut client, &open, &mut tally);
                    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
                    for i in 0..iters {
                        let f = frame(
                            &tenant,
                            "w",
                            u64::from(i),
                            "query",
                            vec![(
                                "queries",
                                Json::Arr(vec![query_json(&WireQuery::Coherent)]),
                            )],
                        );
                        let v = timed_roundtrip(&mut client, &f, &mut tally);
                        let answers = v.get("answers").and_then(Json::as_arr).unwrap_or(&[]);
                        tally_answers(&mut tally, answers);
                        let budget_unknown = answers.len() == 1
                            && answers[0].get("outcome") == Some(&Json::Str("unknown".into()))
                            && answers[0].get("cause") == Some(&Json::Str("budget".into()));
                        if !budget_unknown {
                            tally.mismatches += 1;
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let report = merge("loadgen_pressure", clients, tallies, start.elapsed());
    server.stop();
    report
}

// -------------------------------------------------------------------
// Restart phases (BENCH_7.json)
// -------------------------------------------------------------------

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("car-loadgen-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(data_dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.quota.deadline = None;
    config.quota.max_items = None;
    config.quota.max_pending = usize::MAX;
    config.data_dir = Some(data_dir.to_owned());
    config
}

/// The fixed answer-set batch every restart client runs before and
/// after the restart; equality of the two responses is the
/// bit-identical acceptance check.
fn restart_queries() -> Vec<WireQuery> {
    let mut qs = vec![WireQuery::Coherent];
    for name in POOL {
        qs.push(WireQuery::Satisfiable((*name).to_owned()));
        qs.push(WireQuery::Subsumes { sup: "Person".into(), sub: (*name).to_owned() });
    }
    qs.push(WireQuery::Disjoint("Student".into(), "Professor".into()));
    qs
}

/// Pre-restart load: every client opens a durable workspace, runs a
/// seeded stream of applies and undos (each acknowledged operation is
/// journaled server-side), and records the answer set. Returns the
/// tallies, the per-client acknowledged-op counts, and the answers.
fn restart_workload(
    addr: SocketAddr,
    clients: u64,
    iters: u32,
) -> (Vec<ClientTally>, Vec<u64>, Vec<Json>) {
    let results: Vec<(ClientTally, u64, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut rng = SmallRng::seed_from_u64(0xD07A + c);
                    let tenant = format!("t{c}");
                    let mut client = Client::connect(addr).expect("connect");
                    let open = frame(&tenant, "w", 0, "open", vec![("schema", s(SCHEMA))]);
                    let v = timed_roundtrip(&mut client, &open, &mut tally);
                    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "open failed");
                    let mut acked = 0u64;
                    for i in 1..=iters {
                        if rng.gen_bool(0.25) {
                            let f = frame(&tenant, "w", u64::from(i), "undo", vec![]);
                            let v = timed_roundtrip(&mut client, &f, &mut tally);
                            if v.get("moved") == Some(&Json::Bool(true)) {
                                acked += 1;
                            }
                        } else {
                            let ds = deltas(&mut rng);
                            let f = frame(
                                &tenant,
                                "w",
                                u64::from(i),
                                "apply",
                                vec![("deltas", Json::Arr(ds.iter().map(delta_json).collect()))],
                            );
                            let v = timed_roundtrip(&mut client, &f, &mut tally);
                            acked += v.get("applied").and_then(Json::as_u64).unwrap_or(0);
                            tally.edits_applied +=
                                v.get("applied").and_then(Json::as_u64).unwrap_or(0);
                        }
                    }
                    let qs = restart_queries();
                    let f = frame(
                        &tenant,
                        "w",
                        9_000,
                        "query",
                        vec![("queries", Json::Arr(qs.iter().map(query_json).collect()))],
                    );
                    let v = timed_roundtrip(&mut client, &f, &mut tally);
                    let answers = v.get("answers").cloned().unwrap_or(Json::Null);
                    tally_answers(
                        &mut tally,
                        v.get("answers").and_then(Json::as_arr).unwrap_or(&[]),
                    );
                    (tally, acked, answers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut tallies = Vec::new();
    let mut acked = Vec::new();
    let mut answers = Vec::new();
    for (t, a, ans) in results {
        tallies.push(t);
        acked.push(a);
        answers.push(ans);
    }
    (tallies, acked, answers)
}

/// Post-restart verification: re-query every recovered workspace with
/// the same batch and collect the warm disk-hit counters.
fn requery_workspaces(addr: SocketAddr, clients: u64) -> (Vec<ClientTally>, Vec<Json>, u64) {
    let results: Vec<(ClientTally, Json, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let tenant = format!("t{c}");
                    let mut client = Client::connect(addr).expect("connect");
                    let qs = restart_queries();
                    let f = frame(
                        &tenant,
                        "w",
                        9_000,
                        "query",
                        vec![("queries", Json::Arr(qs.iter().map(query_json).collect()))],
                    );
                    let v = timed_roundtrip(&mut client, &f, &mut tally);
                    let answers = v.get("answers").cloned().unwrap_or(Json::Bool(false));
                    let stats = frame(&tenant, "w", 9_001, "stats", vec![]);
                    let v = timed_roundtrip(&mut client, &stats, &mut tally);
                    let hits = v.get("disk_cluster_hits").and_then(Json::as_u64).unwrap_or(0)
                        + v.get("disk_ccs_hits").and_then(Json::as_u64).unwrap_or(0);
                    (tally, answers, hits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut tallies = Vec::new();
    let mut answers = Vec::new();
    let mut hits = 0;
    for (t, ans, h) in results {
        tallies.push(t);
        answers.push(ans);
        hits += h;
    }
    (tallies, answers, hits)
}

/// One restart phase: load a durable server, kill it (`graceful` =
/// false) or drain it (`graceful` = true), bring up a successor over
/// the same data directory, and verify answers survive bit-identically.
fn restart_phase(
    name: &'static str,
    graceful: bool,
    clients: u64,
    iters: u32,
) -> PhaseReport {
    let dir = scratch_dir(name);
    let start = Instant::now();

    let mut first = Server::spawn("127.0.0.1:0", durable_config(&dir)).expect("bind");
    let (mut tallies, acked, before) = restart_workload(first.addr(), clients, iters);
    let snapshots = if graceful { first.shutdown() } else { first.stop(); 0 };
    let durability_failures = first.service().durability_failures();
    drop(first);

    let mut second = Server::spawn("127.0.0.1:0", durable_config(&dir)).expect("rebind");
    let report = second.service().recovery_report();
    let (tallies2, after, warm_disk_hits) = requery_workspaces(second.addr(), clients);
    second.stop();
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    tallies.extend(tallies2);
    let mismatches =
        before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
    let total_acked: u64 = acked.iter().sum();

    let mut merged = merge(name, clients, tallies, wall);
    merged.counters.insert("acked_ops".into(), total_acked);
    merged.counters.insert("workspaces_recovered".into(), report.workspaces_recovered);
    merged.counters.insert("ops_replayed".into(), report.ops_replayed);
    merged.counters.insert("replay_failures".into(), report.replay_failures);
    merged.counters.insert("truncated_tails".into(), report.truncated_tails);
    merged.counters.insert("dirs_skipped".into(), report.dirs_skipped);
    merged.counters.insert("durability_failures".into(), durability_failures);
    merged.counters.insert("post_restart_mismatches".into(), mismatches);
    merged.counters.insert("warm_disk_hits".into(), warm_disk_hits);
    if graceful {
        merged.counters.insert("snapshots_written".into(), snapshots);
    }
    merged
}

/// Pigeonhole blocks for the warm-start phase: each block's root
/// demands `HOLES + 1` pigeons fit into `HOLES` holes (a pure DPLL
/// refutation), so cold-start propagation cost is large and any warm
/// recomputation is visible in the counters.
const PHP_BLOCKS: usize = 6;
const PHP_HOLES: usize = 4;

fn pigeonhole_schema(blocks: usize, holes: usize) -> Schema {
    let mut b = SchemaBuilder::new();
    for c in 0..blocks {
        let root = b.class(&format!("R{c}"));
        let h: Vec<Vec<_>> = (0..holes + 1)
            .map(|i| (0..holes).map(|j| b.class(&format!("H{c}_{i}_{j}"))).collect())
            .collect();
        let mut isa = ClassFormula::top();
        for row in &h {
            isa = isa.and(ClassFormula::union_of(row.iter().copied()));
        }
        b.define_class(root).isa(isa).finish();
        for i in 0..holes + 1 {
            for j in 0..holes {
                let mut f = ClassFormula::class(root);
                for (k, row) in h.iter().enumerate() {
                    if k != i {
                        f = f.and(ClassFormula::neg_class(row[j]));
                    }
                }
                b.define_class(h[i][j]).isa(f).finish();
            }
        }
    }
    b.build().unwrap()
}

/// Phase 3: the acceptance workload. A cold in-process run over an
/// empty durable store, then a warm run over the reopened store: the
/// answer vectors must be identical, every cluster must come back from
/// disk (zero rebuilds), and the warm run must spend fewer DPLL
/// propagations than the cold one.
fn warm_start_pigeonhole() -> PhaseReport {
    let dir = scratch_dir("php-store");
    let schema = pigeonhole_schema(PHP_BLOCKS, PHP_HOLES);
    let config =
        ReasonerConfig { strategy: Strategy::Preselect, ..ReasonerConfig::default() };
    let open_store = || -> SharedStore {
        Arc::new(Mutex::new(DiskStore::open_real(&dir, StoreLimits::default()).unwrap()))
    };
    let satisfiability = |ws: &mut Workspace| -> Vec<bool> {
        let schema = ws.schema().clone();
        schema
            .symbols()
            .class_ids()
            .map(|c| ws.try_is_satisfiable(c).expect("unbudgeted"))
            .collect()
    };
    let propagations = car_logic::search_counters().propagations;
    let start = Instant::now();

    let mut cold = Workspace::new(schema.clone(), config.clone());
    cold.set_store(open_store());
    let cold_answers = satisfiability(&mut cold);
    let cold_stats = cold.stats();
    let cold_propagations = car_logic::search_counters().propagations - propagations;
    drop(cold);

    let warm_wall = Instant::now();
    let mut warm = Workspace::new(schema, config);
    warm.set_store(open_store());
    let warm_answers = satisfiability(&mut warm);
    let warm_stats = warm.stats();
    let warm_propagations =
        car_logic::search_counters().propagations - propagations - cold_propagations;
    let warm_wall = warm_wall.elapsed();
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let mut counters = BTreeMap::new();
    counters.insert("classes".into(), cold_answers.len() as u64);
    counters.insert("answers_identical".into(), u64::from(cold_answers == warm_answers));
    counters.insert("cold_disk_writes".into(), cold_stats.disk_writes);
    counters.insert("cold_propagations".into(), cold_propagations);
    counters.insert("warm_propagations".into(), warm_propagations);
    counters.insert("warm_disk_cluster_hits".into(), warm_stats.disk_cluster_hits);
    counters.insert("warm_clusters_reused".into(), warm_stats.clusters_reused);
    counters.insert("warm_clusters_rebuilt".into(), warm_stats.clusters_rebuilt);
    counters.insert(
        "warm_saves_propagations".into(),
        u64::from(warm_propagations < cold_propagations),
    );
    PhaseReport {
        name: "warm_start_pigeonhole",
        counters,
        wall,
        // No network latencies in this phase; record the warm pass as
        // the single observation so p50/p99 show the restart cost.
        latencies_us: vec![warm_wall.as_micros() as u64],
        requests: 0,
    }
}

fn restart_run(clients: u64, iters: u32) -> Vec<PhaseReport> {
    vec![
        restart_phase("restart_crash", false, clients, iters),
        restart_phase("restart_graceful", true, clients, iters),
        warm_start_pigeonhole(),
    ]
}

// -------------------------------------------------------------------
// Fleet phases (BENCH_9.json)
// -------------------------------------------------------------------

fn fleet_config(data_dir: &Path, mode: StoreMode, ttl: Duration) -> ServerConfig {
    let mut config = durable_config(data_dir);
    config.store_mode = mode;
    config.lease_ttl = ttl;
    config
}

/// Fleet phase 1: three servers over ONE data directory. A leader
/// takes the seeded edit load; a read-only follower must answer every
/// workspace bit-identically while refusing every edit; a standby
/// leader must respect the live leader's workspace leases, then adopt
/// every workspace within a TTL of the leader's power cut — and keep
/// answering bit-identically, with edits flowing again.
fn fleet_takeover_phase(clients: u64, iters: u32) -> PhaseReport {
    let dir = scratch_dir("fleet");
    let ttl = Duration::from_millis(200);
    let start = Instant::now();

    let mut leader = Server::spawn("127.0.0.1:0", fleet_config(&dir, StoreMode::Leader, ttl))
        .expect("bind leader");
    let (mut tallies, acked, before) = restart_workload(leader.addr(), clients, iters);
    let total_acked: u64 = acked.iter().sum();

    let mut follower =
        Server::spawn("127.0.0.1:0", fleet_config(&dir, StoreMode::Follower, ttl))
            .expect("bind follower");
    let (tallies_f, follower_answers, _) = requery_workspaces(follower.addr(), clients);
    let follower_mismatches =
        before.iter().zip(&follower_answers).filter(|(b, a)| b != a).count() as u64;
    tallies.extend(tallies_f);
    // One refused edit per tenant: the read-only contract end to end.
    let mut refused = 0u64;
    for c in 0..clients {
        let tenant = format!("t{c}");
        let mut client = Client::connect(follower.addr()).expect("connect follower");
        let ds = vec![WireDelta::AddClass { name: "Refused".into() }];
        let f = frame(
            &tenant,
            "w",
            50_000,
            "apply",
            vec![("deltas", Json::Arr(ds.iter().map(delta_json).collect()))],
        );
        let v = parse(client.roundtrip(&f).expect("roundtrip").trim_end()).expect("json");
        let kind = v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        if kind == Some("read_only") {
            refused += 1;
        }
    }
    let read_only_rejections = follower.service().read_only_rejections();
    assert_eq!(refused, read_only_rejections, "every refusal is counted");

    // The standby sees every workspace lease held by the live leader.
    let mut standby = Server::spawn("127.0.0.1:0", fleet_config(&dir, StoreMode::Leader, ttl))
        .expect("bind standby");
    let dirs_lease_held = standby.service().recovery_report().dirs_lease_held;

    // Power cut (stop, not shutdown): no final snapshot, no lease
    // release. The standby's keeper must adopt every workspace.
    leader.stop();
    drop(leader);
    let deadline = Instant::now() + Duration::from_secs(120);
    while standby.service().leases_taken_over() < clients {
        assert!(
            Instant::now() < deadline,
            "keeper adopted only {} of {clients} workspaces",
            standby.service().leases_taken_over()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let leases_taken_over = standby.service().leases_taken_over();
    let ops_replayed = standby.service().recovery_report().ops_replayed;

    let (tallies2, after, _) = requery_workspaces(standby.addr(), clients);
    let post_takeover_mismatches =
        before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
    tallies.extend(tallies2);
    // Edits flow through the adopter without any client reopening.
    let mut post_takeover_applied = 0u64;
    for c in 0..clients {
        let tenant = format!("t{c}");
        let mut client = Client::connect(standby.addr()).expect("connect standby");
        let ds = vec![WireDelta::AddClass { name: "PostTakeover".into() }];
        let f = frame(
            &tenant,
            "w",
            60_000,
            "apply",
            vec![("deltas", Json::Arr(ds.iter().map(delta_json).collect()))],
        );
        let v = parse(client.roundtrip(&f).expect("roundtrip").trim_end()).expect("json");
        post_takeover_applied += v.get("applied").and_then(Json::as_u64).unwrap_or(0);
    }

    follower.stop();
    standby.stop();
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let mut merged = merge("fleet_takeover", clients, tallies, wall);
    merged.counters.insert("acked_ops".into(), total_acked);
    merged.counters.insert("follower_mismatches".into(), follower_mismatches);
    merged.counters.insert("read_only_rejections".into(), read_only_rejections);
    merged.counters.insert("dirs_lease_held".into(), dirs_lease_held);
    merged.counters.insert("leases_taken_over".into(), leases_taken_over);
    merged.counters.insert("ops_replayed".into(), ops_replayed);
    merged.counters.insert("post_takeover_mismatches".into(), post_takeover_mismatches);
    merged.counters.insert("post_takeover_applied".into(), post_takeover_applied);
    merged
}

/// Fleet phase 2: the zombie-writer scenario at the persistence layer.
/// A writer journals acknowledged edits, its lease dies (power cut), a
/// successor steals the claim, fences the directory at a higher epoch
/// and writes its own edit — then the original writer's still-live
/// handle resumes appending at the stale epoch. Recovery must reject
/// every stale record and keep every acknowledged and successor edit.
fn fleet_fencing_phase() -> PhaseReport {
    let dir = scratch_dir("fleet-fencing");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let disk = Disk::real();
    let start = Instant::now();

    let mut zombie_lease = match Lease::acquire(&dir, "loadgen", &disk).expect("claim") {
        Acquire::Acquired(l) => l,
        Acquire::Held(info) => panic!("fresh dir already claimed: {info:?}"),
    };
    let mut zombie_wd = WorkspaceDir::create(&dir, disk.clone()).expect("create");
    zombie_wd.set_epoch(zombie_lease.epoch());
    let schema = SchemaBuilder::new().build().expect("empty schema");
    let mut ws = Workspace::new(schema, ReasonerConfig::default());
    zombie_wd.save_snapshot("fleet", "z", ws.schema(), &[], &[]).expect("first snapshot");
    let mut acked_ops = 0u64;
    for i in 0..3 {
        let delta = SchemaDelta::AddClass { name: format!("Z{i}") };
        ws.apply(&delta).expect("apply");
        zombie_wd.append_op(&JournalOp::Apply(delta)).expect("append");
        acked_ops += 1;
    }
    // Power cut: the claim dies but the writer's in-memory handle —
    // the zombie — lives on.
    zombie_lease.abandon();

    let mut successor_lease = match Lease::acquire(&dir, "loadgen", &disk).expect("steal") {
        Acquire::Acquired(l) => l,
        Acquire::Held(info) => panic!("abandoned claim not stolen: {info:?}"),
    };
    let rec = WorkspaceDir::recover(&dir, disk.clone()).expect("recover");
    let ops_replayed = rec.ops.len() as u64;
    successor_lease.ensure_epoch_above(rec.epoch).expect("dominate");
    let mut wd2 = rec.dir;
    wd2.set_epoch(successor_lease.epoch());
    let mut ws2 = Workspace::restore(
        rec.schema,
        rec.undo,
        rec.redo,
        ReasonerConfig::default(),
        WorkspaceLimits::default(),
    );
    for op in &rec.ops {
        if let JournalOp::Apply(d) = op {
            ws2.apply(d).expect("replay");
        }
    }
    wd2.save_snapshot("fleet", "z", ws2.schema(), ws2.undo_stack(), ws2.redo_stack())
        .expect("fencing snapshot");
    let successor = SchemaDelta::AddClass { name: "Successor".into() };
    ws2.apply(&successor).expect("successor apply");
    wd2.append_op(&JournalOp::Apply(successor)).expect("successor append");

    // The zombie wakes and keeps writing at its stale epoch; the
    // appends land on disk but must never survive replay.
    let mut stale_appends = 0u64;
    for i in 0..4 {
        let delta = SchemaDelta::AddClass { name: format!("Stale{i}") };
        if zombie_wd.append_op(&JournalOp::Apply(delta)).is_ok() {
            stale_appends += 1;
        }
    }

    let fin = WorkspaceDir::recover(&dir, disk).expect("final recover");
    let fenced_records_rejected = fin.fenced_records;
    let mut ws3 = Workspace::restore(
        fin.schema,
        fin.undo,
        fin.redo,
        ReasonerConfig::default(),
        WorkspaceLimits::default(),
    );
    for op in &fin.ops {
        if let JournalOp::Apply(d) = op {
            ws3.apply(d).expect("final replay");
        }
    }
    let names: Vec<String> = ws3
        .schema()
        .classes()
        .map(|(id, _)| ws3.schema().symbols().class_name(id).to_owned())
        .collect();
    let stale_classes_leaked = names.iter().filter(|n| n.starts_with("Stale")).count() as u64;
    let survivors_intact = u64::from(
        (0..3).all(|i| names.iter().any(|n| n == &format!("Z{i}")))
            && names.iter().any(|n| n == "Successor"),
    );
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let mut counters = BTreeMap::new();
    counters.insert("acked_ops".into(), acked_ops);
    counters.insert("ops_replayed".into(), ops_replayed);
    counters.insert("stale_appends".into(), stale_appends);
    counters.insert("fenced_records_rejected".into(), fenced_records_rejected);
    counters.insert("stale_classes_leaked".into(), stale_classes_leaked);
    counters.insert("survivors_intact".into(), survivors_intact);
    PhaseReport {
        name: "fleet_fencing",
        counters,
        wall,
        latencies_us: vec![wall.as_micros() as u64],
        requests: 0,
    }
}

fn fleet_run(clients: u64, iters: u32) -> Vec<PhaseReport> {
    vec![fleet_takeover_phase(clients, iters), fleet_fencing_phase()]
}

// -------------------------------------------------------------------
// Reactor phases (BENCH_10.json, Linux only)
// -------------------------------------------------------------------

/// Idle connections the reactor child must hold alongside the active
/// mixed workload. The local hard fd cap is commonly 20,000+ and
/// `raise_fd_limit` lifts the soft cap, so 10k client sockets here plus
/// 10k server-side sockets in the child both fit.
#[cfg(target_os = "linux")]
const IDLE_CONNS: u64 = 10_000;

#[cfg(target_os = "linux")]
mod reactor_phases {
    use super::{
        frame, merge, mixed_phase, ClientTally, Json, PhaseReport, SCHEMA, IDLE_CONNS,
    };
    use car_server::json::{obj, parse, s, Json as J};
    use car_server::service::ServerConfig;
    use car_server::{Client, Server};
    use std::io::BufRead;
    use std::net::{SocketAddr, TcpStream};
    use std::process::{Child, Command, Stdio};
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    /// The sibling `car-server` binary (both land in the same cargo
    /// target directory).
    fn server_binary() -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("current exe");
        let bin = exe.parent().expect("target dir").join("car-server");
        assert!(
            bin.exists(),
            "{} not found — build it first (cargo build --release -p car-server)",
            bin.display()
        );
        bin
    }

    /// Spawns the reactor child on an ephemeral port and parses the
    /// listen address off its stdout banner.
    fn spawn_reactor_child() -> (Child, SocketAddr) {
        let mut child = Command::new(server_binary())
            .args([
                "--addr",
                "127.0.0.1:0",
                "--deadline-ms",
                "0",
                "--max-items",
                "0",
                "--max-pending",
                "1000000",
                "--allow-remote-shutdown",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn car-server child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("child exited before announcing its address")
                .expect("child stdout");
            if let Some(rest) = line.split(" listening on ").nth(1) {
                break rest.trim().parse().expect("child listen address");
            }
        };
        // Keep the pipe drained so the child never blocks on stdout.
        std::thread::spawn(move || for _ in lines {});
        (child, addr)
    }

    fn health(control: &mut Client) -> J {
        let resp = control.roundtrip(r#"{"id":0,"op":"health"}"#).expect("health");
        parse(resp.trim_end()).expect("health is valid JSON")
    }

    fn net_field(health: &J, key: &str) -> u64 {
        health
            .get("net")
            .and_then(|n| n.get(key))
            .and_then(J::as_u64)
            .unwrap_or_else(|| panic!("health.net.{key} missing"))
    }

    /// `Threads:` from the child's `/proc/<pid>/status`.
    fn child_threads(child: &Child) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Phase 1: the child holds [`IDLE_CONNS`] parked connections while
    /// the standard shadow-verified mixed workload runs. Everything
    /// gated is a deterministic count or a bounded-by-construction
    /// boolean — never wall clock.
    pub fn idle_dense_phase(clients: u64, iters: u32) -> PhaseReport {
        let (mut child, addr) = spawn_reactor_child();
        let start = Instant::now();

        // One long-lived control connection for health and shutdown, so
        // polling never perturbs the accepted-connection count.
        let mut control = Client::connect(addr).expect("control connect");

        let mut idle: Vec<TcpStream> = Vec::with_capacity(IDLE_CONNS as usize);
        for _ in 0..IDLE_CONNS {
            idle.push(TcpStream::connect(addr).expect("idle connect"));
        }
        // Wait until the workers have registered every idle socket.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let v = health(&mut control);
            if net_field(&v, "conns_open") >= IDLE_CONNS + 1 {
                break;
            }
            assert!(Instant::now() < deadline, "reactor never registered 10k conns");
            std::thread::sleep(Duration::from_millis(20));
        }
        let threads_with_10k = child_threads(&child);

        let mut report = mixed_phase("reactor_idle_dense", addr, clients, iters);

        let v = health(&mut control);
        let conns_accepted = net_field(&v, "conns_accepted");
        let conns_open = net_field(&v, "conns_open");
        let frames_decoded = net_field(&v, "frames_decoded");
        let wakeups = net_field(&v, "wakeups");
        let workers = net_field(&v, "workers");

        // The idle sockets are all still parked and answering: poke one.
        use std::io::{Read as _, Write as _};
        let mut probe = idle.pop().expect("idle socket");
        probe.write_all(b"{\"id\":77,\"op\":\"ping\"}\n").expect("probe write");
        let mut buf = [0u8; 256];
        let n = probe.read(&mut buf).expect("probe read");
        let probe_ok =
            u64::from(String::from_utf8_lossy(&buf[..n]).contains("\"ok\":true"));

        // Remote shutdown drains the child; its exit status is the
        // graceful-drain acceptance bit.
        let resp = control.roundtrip(r#"{"id":1,"op":"shutdown"}"#).expect("shutdown");
        let shutdown_acked = u64::from(resp.contains("\"shutting_down\":true"));
        drop(idle);
        drop(probe);
        drop(control);
        let clean_exit = u64::from(child.wait().expect("child wait").success());

        report.wall = start.elapsed();
        let c = &mut report.counters;
        c.insert("idle_conns".into(), IDLE_CONNS);
        // Every accept is accounted for: the idle fleet, one mixed
        // client each, and the control connection. Nothing else dials
        // the child, so this is exact.
        c.insert("conns_accepted".into(), conns_accepted);
        c.insert("held_10k".into(), u64::from(conns_open >= IDLE_CONNS + 1));
        // Health polls share the control connection, so their frame
        // count varies with host speed; gate coverage, not the total.
        c.insert(
            "frames_decoded_covers_mixed".into(),
            u64::from(frames_decoded >= clients * (u64::from(iters) + 1)),
        );
        c.insert("net_workers".into(), workers);
        // O(workers) threads, not O(connections): the child runs a main
        // thread, the worker pool, and a few runtime extras — nowhere
        // near one-per-connection.
        c.insert(
            "threads_bounded".into(),
            u64::from(threads_with_10k > 0 && threads_with_10k <= workers + 12),
        );
        // Wakeups scale with traffic (frames in, responses out,
        // accepts), never with idle time.
        c.insert(
            "wakeups_bounded".into(),
            u64::from(wakeups <= 6 * frames_decoded + 4 * conns_accepted + 4096),
        );
        c.insert("idle_probe_ok".into(), probe_ok);
        c.insert("shutdown_acked".into(), shutdown_acked);
        c.insert("clean_child_exit".into(), clean_exit);
        report
    }

    /// One query frame whose response is ~1MB (10k unknown-class
    /// answers): larger than any default socket buffer pair, so an
    /// unread response must stall in the reactor's write buffer.
    fn bulky_frame(id: u64) -> String {
        let queries: Vec<J> = (0..10_000)
            .map(|i| obj(vec![("kind", s("satisfiable")), ("class", s(&format!("Nope{i}")))]))
            .collect();
        frame("bp", "w", id, "query", vec![("queries", Json::Arr(queries))])
    }

    fn reactor_config() -> ServerConfig {
        let mut config = ServerConfig::default();
        config.quota.deadline = None;
        config.quota.max_items = None;
        config.quota.max_pending = usize::MAX;
        config
    }

    /// Phase 2: write-backpressure discipline, both sides of the cap.
    pub fn backpressure_phase() -> PhaseReport {
        let start = Instant::now();
        let mut tally = ClientTally::default();

        // Slow reader under the cap: responses must outgrow what the
        // kernel can absorb (tcp_wmem + tcp_rmem autotune maxima, tens
        // of MB on some hosts), stall in the reactor's buffer, then
        // drain in order once the client finally reads.
        const SLOW_FRAMES: u64 = 64;
        let mut config = reactor_config();
        config.max_write_buffer_bytes = 256 << 20; // never disconnect this leg
        let mut server = Server::spawn("127.0.0.1:0", config).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let open = frame("bp", "w", 0, "open", vec![("schema", s(SCHEMA))]);
        let resp = client.roundtrip(&open).expect("open");
        assert!(resp.contains("\"ok\":true"), "open failed: {resp}");
        for id in 1..=SLOW_FRAMES {
            client.send(&bulky_frame(id)).expect("send");
        }
        let mut ordered = true;
        for id in 1..=SLOW_FRAMES {
            tally.requests += 1;
            let resp = client.read_response().expect("read");
            if !resp.contains(&format!("\"id\":{id},")) {
                ordered = false;
            }
        }
        let counters = server.service().net_counters();
        let stalls = counters.backpressure_stalls.load(Ordering::Relaxed);
        let under_cap_disconnects =
            counters.write_buffer_disconnects.load(Ordering::Relaxed);
        server.stop();

        // Over the cap: a non-reading client is disconnected exactly
        // once; the server stays healthy for a fresh client.
        let mut config = reactor_config();
        config.max_write_buffer_bytes = 64 * 1024;
        let mut server = Server::spawn("127.0.0.1:0", config).expect("bind capped");
        let mut hog = Client::connect(server.addr()).expect("connect hog");
        let open = frame("bp", "w", 0, "open", vec![("schema", s(SCHEMA))]);
        let resp = hog.roundtrip(&open).expect("open");
        assert!(resp.contains("\"ok\":true"), "open failed: {resp}");
        for id in 1..=24u64 {
            if hog.send(&bulky_frame(id)).is_err() {
                break; // already disconnected
            }
        }
        let counters = std::sync::Arc::clone(server.service().net_counters());
        let deadline = Instant::now() + Duration::from_secs(30);
        while counters.write_buffer_disconnects.load(Ordering::Relaxed) == 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let cap_disconnects = counters.write_buffer_disconnects.load(Ordering::Relaxed);
        let mut fresh = Client::connect(server.addr()).expect("connect fresh");
        tally.requests += 1;
        let resp = fresh.roundtrip(r#"{"id":9,"op":"ping"}"#).expect("ping");
        let healthy = u64::from(resp.contains("\"ok\":true"));
        server.stop();

        let wall = start.elapsed();
        let mut report = merge("reactor_backpressure", 2, vec![tally], wall);
        let c = &mut report.counters;
        c.insert("stall_observed".into(), u64::from(stalls >= 1));
        c.insert("ordered_drain".into(), u64::from(ordered));
        c.insert("under_cap_disconnects".into(), under_cap_disconnects);
        c.insert("cap_disconnects".into(), cap_disconnects);
        c.insert("healthy_after_disconnect".into(), healthy);
        report
    }
}

#[cfg(target_os = "linux")]
fn reactor_run(clients: u64, iters: u32) -> Vec<PhaseReport> {
    // The soft fd limit (often 1024) would cap the idle fleet; lift it
    // to the hard cap like the reactor server itself does.
    let _ = car_server::reactor::sys::raise_fd_limit();
    vec![
        reactor_phases::idle_dense_phase(clients, iters),
        reactor_phases::backpressure_phase(),
    ]
}

fn merge(
    name: &'static str,
    clients: u64,
    tallies: Vec<ClientTally>,
    wall: Duration,
) -> PhaseReport {
    let mut total = ClientTally::default();
    for t in tallies {
        total.requests += t.requests;
        total.proved += t.proved;
        total.disproved += t.disproved;
        total.unknown += t.unknown;
        total.mismatches += t.mismatches;
        total.edits_applied += t.edits_applied;
        total.latencies_us.extend(t.latencies_us);
    }
    let mut counters = BTreeMap::new();
    counters.insert("clients".into(), clients);
    counters.insert("requests".into(), total.requests);
    counters.insert("proved".into(), total.proved);
    counters.insert("disproved".into(), total.disproved);
    counters.insert("unknown".into(), total.unknown);
    counters.insert("replay_mismatches".into(), total.mismatches);
    if name == "loadgen_mixed" || name == "reactor_idle_dense" {
        counters.insert("edits_applied".into(), total.edits_applied);
    }
    total.latencies_us.sort_unstable();
    PhaseReport {
        name,
        counters,
        wall,
        latencies_us: total.latencies_us,
        requests: total.requests,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let at = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[at.min(sorted_us.len() - 1)]
}

/// Renders the `BENCH_6.json` document: same `"counters"` block shape
/// as `BENCH_5.json` (so [`counter_lines`] gates them), with the
/// wall-clock observations as separate, never-gated fields.
fn render(reports: &[PhaseReport]) -> String {
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"benches\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let throughput = if r.wall.as_secs_f64() > 0.0 {
            (r.requests as f64 / r.wall.as_secs_f64()).round() as u64
        } else {
            0
        };
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \"wall_us\": {},\n      \
             \"p50_us\": {},\n      \"p99_us\": {},\n      \"throughput_rps\": {},\n      \
             \"counters\": {{",
            r.name,
            r.wall.as_micros(),
            percentile(&r.latencies_us, 0.50),
            percentile(&r.latencies_us, 0.99),
            throughput,
        );
        for (j, (k, v)) in r.counters.iter().enumerate() {
            let _ = write!(out, "{}\n        \"{}\": {}", if j > 0 { "," } else { "" }, k, v);
        }
        let _ = write!(out, "\n      }}\n    }}{}\n", if i + 1 < reports.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn run(clients: u64, iters: u32) -> Vec<PhaseReport> {
    let mut config = ServerConfig::default();
    // No reasoning budget in the gated phases: answers must be
    // deterministic on arbitrarily slow hosts.
    config.quota.deadline = None;
    config.quota.max_items = None;
    // Deep enough that admission control never degrades the
    // deterministic phases (the pressure phase and the server test
    // suite cover degradation).
    config.quota.max_pending = usize::MAX;
    let mut server = Server::spawn("127.0.0.1:0", config).expect("bind loadgen server");
    let addr = server.addr();
    let reports = vec![
        mixed_phase("loadgen_mixed", addr, clients, iters),
        coalesce_phase(addr, clients, iters),
        pressure_phase(clients, iters.min(3)),
    ];
    server.stop();
    reports
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut clients: u64 = 120;
    let mut iters: u32 = 6;
    let mut check: Option<String> = None;
    let mut restart = false;
    let mut fleet = false;
    let mut reactor = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--restart" => restart = true,
            "--fleet" => fleet = true,
            "--reactor" => reactor = true,
            "--clients" => {
                i += 1;
                clients = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("car_loadgen: --clients needs a number");
                    std::process::exit(2)
                });
            }
            "--iters" => {
                i += 1;
                iters = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("car_loadgen: --iters needs a number");
                    std::process::exit(2)
                });
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("car_loadgen: --check needs a path");
                    std::process::exit(2)
                }));
            }
            other => {
                eprintln!(
                    "usage: car_loadgen [--restart | --fleet | --reactor] [--clients N] \
                     [--iters N] [--check BENCH.json]"
                );
                eprintln!("car_loadgen: unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if u32::from(restart) + u32::from(fleet) + u32::from(reactor) > 1 {
        eprintln!("car_loadgen: --restart, --fleet and --reactor are mutually exclusive");
        return ExitCode::FAILURE;
    }
    #[cfg(not(target_os = "linux"))]
    if reactor {
        eprintln!("car_loadgen: --reactor requires Linux (epoll)");
        return ExitCode::FAILURE;
    }

    #[cfg(target_os = "linux")]
    let reports = if reactor {
        reactor_run(clients, iters)
    } else if fleet {
        fleet_run(clients, iters)
    } else if restart {
        restart_run(clients, iters)
    } else {
        run(clients, iters)
    };
    #[cfg(not(target_os = "linux"))]
    let reports = if fleet {
        fleet_run(clients, iters)
    } else if restart {
        restart_run(clients, iters)
    } else {
        run(clients, iters)
    };
    let fresh = render(&reports);
    match check {
        None => {
            print!("{fresh}");
            ExitCode::SUCCESS
        }
        Some(path) => {
            let committed = match std::fs::read_to_string(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("car_loadgen: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let want = counter_lines(&committed);
            let got = counter_lines(&fresh);
            if want == got {
                println!("car_loadgen: all {} counters match {path}", got.len());
                ExitCode::SUCCESS
            } else {
                eprintln!("car_loadgen: counter drift against {path}:");
                for line in &want {
                    if !got.contains(line) {
                        eprintln!("  - {line}");
                    }
                }
                for line in &got {
                    if !want.contains(line) {
                        eprintln!("  + {line}");
                    }
                }
                ExitCode::FAILURE
            }
        }
    }
}
