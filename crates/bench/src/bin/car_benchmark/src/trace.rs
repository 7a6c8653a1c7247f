//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run replays the workload's seeded stream in-process on one
//! thread: server workloads against `car_server::service::Service`
//! (default configuration, a scratch data directory where the workload
//! has one), `cold_classify` through `Reasoner`. Every top-level
//! operation is one span. Its layers are spans of the benchmark's own
//! calls into each layer's public functions, made right after it: the
//! wire parsers on the same frame, a shadow `Workspace`/`WorkspaceDir`
//! fed the same resolved edits, and — whenever the shadow misses its
//! bundle cache — a stage decomposition of that schema version. The
//! layer spans re-run the work the top span did, so per request the top
//! span's time not covered by its direct layer spans is what no layer
//! accounts for: admission and coalescing waits, response encoding and
//! the service's own bookkeeping inside `Service::handle`.
//!
//! Counts of the system's own work (pivots, propagations, decisions)
//! are deltas of the thread-local engine counters around the top spans,
//! exact because everything runs on one thread; cache and store counts
//! come from the service's own `stats` answers at the end.

use crate::gen::Item;
use crate::server::{self, ServerProc};
use crate::stats;
use crate::wire;
use crate::workloads::{self, Script, Step, Tally, Workload};
use car_core::clusters::clustered_ccs;
use car_core::disequations::DisequationSystem;
use car_core::enumerate::sat_models;
use car_core::expansion::{Expansion, ExpansionLimits};
use car_core::implication::Implications;
use car_core::persist::Disk;
use car_core::preselection::Preselection;
use car_core::satisfiability::SatAnalysis;
use car_core::{
    DiskStore, JournalOp, Query, ReasonerConfig, Schema, SharedStore, StoreLimits, Workspace,
    WorkspaceDir,
};
use car_server::json::{self, Json};
use car_server::protocol::{parse_request, Request, WireQuery};
use car_server::service::{ServerConfig, Service};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("server.json.parse_us", "us"),
    ("server.protocol.parse_request_us", "us"),
    ("server.service.execute_us.query", "us"),
    ("server.service.execute_us.apply", "us"),
    ("server.service.execute_us.open", "us"),
    ("server.frame_bytes", "bytes"),
    ("server.response_bytes", "bytes"),
    ("server.net.overhead_us", "us"),
    ("server.net.frames_decoded", "count"),
    ("server.admission_rejects", "count"),
    ("parser.parse_schema_us", "us"),
    ("core.incremental.apply_us", "us"),
    ("core.incremental.query_batch_us", "us"),
    ("core.incremental.bundle_misses", "count"),
    ("core.incremental.bundle_hit_ratio", "ratio"),
    ("core.incremental.cluster_reuse_ratio", "ratio"),
    ("core.preselection.compute_us", "us"),
    ("core.enumerate.us", "us"),
    ("core.enumerate.compound_classes", "count"),
    ("logic.propagations", "count"),
    ("logic.decisions", "count"),
    ("core.expansion.build_us", "us"),
    ("core.expansion.compound_attrs", "count"),
    ("core.expansion.compound_rels", "count"),
    ("core.disequations.build_us", "us"),
    ("core.disequations.unknowns", "count"),
    ("core.disequations.rows", "count"),
    ("lp.support_us", "us"),
    ("lp.calls", "count"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("core.satisfiability.run_us", "us"),
    ("core.satisfiability.self_us", "us"),
    ("core.satisfiability.iterations", "count"),
    ("core.implication.classification_us", "us"),
    ("core.persist.journal.append_us", "us"),
    ("core.persist.journal.recover_us", "us"),
    ("core.persist.journal.ops_replayed", "count"),
    ("core.persist.store.disk_cluster_hits", "count"),
    ("core.persist.store.disk_writes", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// How much of the stream a traced run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The first 2,000 window frames, 60 corpus items or 2 crash cycles.
    Standard,
    /// A few operations, in-process only, for tests.
    Small,
}

impl Size {
    fn frames(self) -> usize {
        match self {
            Size::Standard => 2000,
            Size::Small => 40,
        }
    }

    fn items(self) -> usize {
        match self {
            Size::Standard => 60,
            Size::Small => 8,
        }
    }

    fn cycles(self) -> usize {
        match self {
            Size::Standard => 2,
            Size::Small => 1,
        }
    }
}

/// What a traced run produced.
#[derive(Debug)]
pub struct TraceResult {
    /// Correctness of the replayed operations.
    pub tally: Tally,
    /// Every [`PER_LAYER`] metric, in order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Exact work counts (the determinism test compares these).
    pub counts: BTreeMap<&'static str, u64>,
    /// Human-readable diagnostics.
    pub notes: Vec<String>,
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans in memory, written out when the run ends; plus the layer
/// samples the metrics are computed from.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    /// Top-span time and the part of it the direct layer spans cover.
    top_us: f64,
    covered_us: f64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            top_us: 0.0,
            covered_us: 0.0,
        }
    }

    /// Runs `f` as span `name` and records its duration as a sample of
    /// `name`.
    fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        });
        self.sample(name, (end - start) as f64 / 1e3);
        (out, self.spans.len() - 1)
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn dur_us(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Closes a top span's accounting: its direct children cover what
    /// they re-ran.
    fn settle(&mut self, top: usize) {
        let covered: f64 = (top + 1..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(top))
            .map(|i| self.dur_us(i))
            .sum();
        let total = self.dur_us(top);
        self.top_us += total;
        self.covered_us += covered.min(total);
    }

    fn p50(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }

    fn total(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"req":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The engines' thread-local work counters.
#[derive(Clone, Copy)]
struct Engine {
    pivots: u64,
    propagations: u64,
    decisions: u64,
}

impl Engine {
    fn now() -> Engine {
        let s = car_logic::search_counters();
        Engine {
            pivots: car_lp::pivot_count(),
            propagations: s.propagations,
            decisions: s.decisions,
        }
    }

    /// Charges the work since `before` to the system's counts.
    fn charge(before: Engine, rec: &mut Recorder) {
        let after = Engine::now();
        rec.count("lp.pivots", after.pivots - before.pivots);
        rec.count(
            "logic.propagations",
            after.propagations - before.propagations,
        );
        rec.count("logic.decisions", after.decisions - before.decisions);
    }
}

/// Which analysis bundle a decomposition rebuilds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bundle {
    /// Satisfiability: the hierarchy fast path when it applies, else
    /// preselection clusters; `arity` applies the Theorem 4.5 transform
    /// first, as `Reasoner::new` does.
    Sat { arity: bool },
    /// Implication: complete AllSAT enumeration, optionally followed by
    /// the classification sweep.
    Full { classification: bool },
}

/// The stage decomposition of one schema version, as children of
/// `parent`: enumeration → `Expansion::build` → `SatAnalysis::run`,
/// whose `ΨS` build and LP support are re-run as its own children.
fn decompose(rec: &mut Recorder, req: u64, parent: usize, schema: &Schema, bundle: Bundle) {
    let limits = ExpansionLimits::default();
    let reduced = match bundle {
        Bundle::Sat { arity: true }
            if schema
                .symbols()
                .rel_ids()
                .any(|r| car_core::arity::reducible(schema, r)) =>
        {
            rec.time(req, "core.arity.reduce", Some(parent), || {
                car_core::arity::reduce_arities(schema).ok()
            })
            .0
            .map(|r| r.schema)
        }
        _ => None,
    };
    let schema = reduced.as_ref().unwrap_or(schema);
    let ccs = match bundle {
        Bundle::Sat { .. } => match car_core::hierarchy::detect(schema) {
            Some(h) => {
                rec.time(req, "core.enumerate", Some(parent), || {
                    car_core::hierarchy::path_closure_ccs(schema, &h)
                })
                .0
            }
            None => {
                let (pre, _) = rec.time(req, "core.preselection.compute", Some(parent), || {
                    Preselection::compute(schema)
                });
                match rec
                    .time(req, "core.enumerate", Some(parent), || {
                        clustered_ccs(schema, &pre, usize::MAX)
                    })
                    .0
                {
                    Ok(ccs) => ccs,
                    Err(_) => return,
                }
            }
        },
        Bundle::Full { .. } => match rec
            .time(req, "core.enumerate", Some(parent), || {
                sat_models(schema, &[], usize::MAX)
            })
            .0
        {
            Ok(ccs) => ccs,
            Err(_) => return,
        },
    };
    rec.count("core.enumerate.compound_classes", ccs.len() as u64);
    let Ok(expansion) = rec
        .time(req, "core.expansion.build", Some(parent), || {
            Expansion::build(schema, ccs, &limits)
        })
        .0
    else {
        return;
    };
    rec.count(
        "core.expansion.compound_attrs",
        expansion.compound_attrs().len() as u64,
    );
    rec.count(
        "core.expansion.compound_rels",
        expansion.compound_rels().len() as u64,
    );
    let pivots0 = car_lp::pivot_count();
    let (analysis, run) = rec.time(req, "core.satisfiability.run", Some(parent), || {
        SatAnalysis::run(&expansion)
    });
    let run_pivots = car_lp::pivot_count() - pivots0;
    let iterations = analysis.stats().iterations as u64;
    rec.count("core.satisfiability.iterations", iterations);
    rec.count("lp.calls", analysis.stats().lp_calls as u64);
    // One unpinned ΨS build and its support analysis, re-run as the
    // fixpoint's children; later iterations pin more unknowns.
    let (system, build) = rec.time(req, "core.disequations.build", Some(run), || {
        DisequationSystem::build(&expansion, &[])
    });
    rec.count("core.disequations.unknowns", system.num_unknowns() as u64);
    rec.count("core.disequations.rows", system.num_disequations() as u64);
    let pivots0 = car_lp::pivot_count();
    let (_, support) = rec.time(req, "lp.support", Some(run), || {
        car_lp::try_support(system.problem(), &car_lp::SolveHooks::default())
    });
    let pivots = car_lp::pivot_count() - pivots0;
    rec.count("lp.support_pivots", pivots);
    // Self time: the fixpoint minus its ΨS builds and LP work, taking
    // every iteration's build as long as the unpinned one and charging
    // the fixpoint's pivots at the measured cost per pivot.
    let per_pivot = if pivots > 0 {
        rec.dur_us(support) / pivots as f64
    } else {
        0.0
    };
    let self_us =
        rec.dur_us(run) - iterations as f64 * rec.dur_us(build) - run_pivots as f64 * per_pivot;
    rec.sample("core.satisfiability.self_us", self_us);
    if let Bundle::Full {
        classification: true,
    } = bundle
    {
        rec.time(req, "core.implication.classification", Some(parent), || {
            Implications::new(&expansion, &analysis).classification(schema)
        });
    }
}

// ---------------------------------------------------------------------
// Server workloads
// ---------------------------------------------------------------------

/// The shadow: one `Workspace` (and `WorkspaceDir` when durable) per
/// served workspace, fed the same resolved edits.
struct Shadow {
    root: Option<PathBuf>,
    store: Option<SharedStore>,
    spaces: HashMap<(String, String), (Workspace, Option<WorkspaceDir>)>,
}

impl Shadow {
    fn new(root: Option<PathBuf>) -> Result<Shadow, String> {
        let store = match &root {
            Some(r) => Some(Arc::new(Mutex::new(
                DiskStore::open_real(&r.join("store"), StoreLimits::default())
                    .map_err(|e| format!("shadow store: {e}"))?,
            ))),
            None => None,
        };
        Ok(Shadow {
            root,
            store,
            spaces: HashMap::new(),
        })
    }

    fn dir_of(&self, tenant: &str, workspace: &str) -> Option<PathBuf> {
        self.root
            .as_ref()
            .map(|r| r.join("ws").join(tenant).join(workspace))
    }

    fn workspace(&self, schema: Schema) -> Workspace {
        let mut ws = Workspace::new(schema, ReasonerConfig::default());
        if let Some(store) = &self.store {
            ws.set_store(Arc::clone(store));
        }
        ws
    }

    /// Mirrors one parsed request, recording layer spans under `top`.
    fn mirror(&mut self, rec: &mut Recorder, req: u64, top: usize, tenant: &str, request: Request) {
        match request {
            Request::Open {
                workspace, schema, ..
            } => {
                let Ok(parsed) = rec
                    .time(req, "parser.parse_schema", Some(top), || {
                        car_parser::parse_schema(&schema)
                    })
                    .0
                else {
                    return;
                };
                let (ws, _) = rec.time(req, "core.incremental.open", Some(top), || {
                    self.workspace(parsed)
                });
                let dir = self.dir_of(tenant, &workspace).and_then(|path| {
                    rec.time(req, "core.persist.journal.create", Some(top), || {
                        let mut dir = WorkspaceDir::create(&path, Disk::real()).ok()?;
                        dir.save_snapshot(tenant, &workspace, ws.schema(), &[], &[])
                            .ok()?;
                        Some(dir)
                    })
                    .0
                });
                self.spaces
                    .insert((tenant.to_owned(), workspace), (ws, dir));
            }
            Request::Apply { workspace, deltas } => {
                let Some((ws, dir)) = self.spaces.get_mut(&(tenant.to_owned(), workspace)) else {
                    return;
                };
                for delta in deltas {
                    let Ok(resolved) = delta.resolve(ws.schema()) else {
                        return;
                    };
                    if rec
                        .time(req, "core.incremental.apply", Some(top), || {
                            ws.apply(&resolved)
                        })
                        .0
                        .is_err()
                    {
                        return;
                    }
                    if let Some(dir) = dir {
                        let _ = rec.time(req, "core.persist.journal.append", Some(top), || {
                            dir.append_op(&JournalOp::Apply(resolved))
                        });
                    }
                }
            }
            Request::Undo { workspace } => {
                let Some((ws, dir)) = self.spaces.get_mut(&(tenant.to_owned(), workspace)) else {
                    return;
                };
                if rec
                    .time(req, "core.incremental.undo", Some(top), || ws.undo())
                    .0
                {
                    if let Some(dir) = dir {
                        let _ = rec.time(req, "core.persist.journal.append", Some(top), || {
                            dir.append_op(&JournalOp::Undo)
                        });
                    }
                }
            }
            Request::Query { workspace, queries } => {
                let Some((ws, _)) = self.spaces.get_mut(&(tenant.to_owned(), workspace)) else {
                    return;
                };
                let (full, sat): (Vec<WireQuery>, Vec<WireQuery>) =
                    queries.into_iter().partition(|q| {
                        matches!(
                            q,
                            WireQuery::Subsumes { .. }
                                | WireQuery::Disjoint(..)
                                | WireQuery::Equivalent(..)
                        )
                    });
                // One batch per bundle kind, so each miss is attributed
                // to the bundle that missed.
                for (group, bundle) in [
                    (sat, Bundle::Sat { arity: false }),
                    (
                        full,
                        Bundle::Full {
                            classification: false,
                        },
                    ),
                ] {
                    let resolved: Vec<Query> = group
                        .iter()
                        .filter_map(|q| q.resolve(ws.schema()).ok())
                        .collect();
                    if resolved.is_empty() {
                        continue;
                    }
                    let misses = ws.stats().bundle_misses;
                    let (_, span) =
                        rec.time(req, "core.incremental.query_batch", Some(top), || {
                            ws.query_batch_results(&resolved)
                        });
                    if ws.stats().bundle_misses > misses {
                        let schema = ws.schema().clone();
                        decompose(rec, req, span, &schema, bundle);
                    }
                }
            }
            _ => {}
        }
    }

    /// Mirrors the service's recovery: every workspace restored from its
    /// snapshot plus the journal replayed through the edit path.
    fn recover(&mut self, rec: &mut Recorder, req: u64, top: usize) {
        let keys: Vec<(String, String)> = self.spaces.keys().cloned().collect();
        for key in keys {
            let Some(path) = self.dir_of(&key.0, &key.1) else {
                continue;
            };
            let Some(found) = rec
                .time(req, "core.persist.journal.recover", Some(top), || {
                    WorkspaceDir::recover(&path, Disk::real())
                })
                .0
            else {
                continue;
            };
            let (ws, _) = rec.time(req, "core.incremental.replay", Some(top), || {
                let mut ws = Workspace::restore(
                    found.schema,
                    found.undo,
                    found.redo,
                    ReasonerConfig::default(),
                    car_core::WorkspaceLimits::default(),
                );
                if let Some(store) = &self.store {
                    ws.set_store(Arc::clone(store));
                }
                for op in &found.ops {
                    match op {
                        JournalOp::Apply(delta) => {
                            let _ = ws.apply(delta);
                        }
                        JournalOp::Undo => {
                            ws.undo();
                        }
                        JournalOp::Redo => {
                            ws.redo();
                        }
                    }
                }
                ws
            });
            self.spaces.insert(key, (ws, Some(found.dir)));
        }
    }
}

fn service_config(data_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        data_dir: data_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    }
}

/// The frame bytes the decoder hands the service (no newline).
fn raw(frame: &str) -> &[u8] {
    frame.trim_end_matches('\n').as_bytes()
}

/// The execute-time sample a frame belongs to, by operation.
fn op_of(frame: &str) -> Option<&'static str> {
    [
        ("query", "server.service.execute_us.query"),
        ("apply", "server.service.execute_us.apply"),
        ("open", "server.service.execute_us.open"),
    ]
    .into_iter()
    .find(|(op, _)| frame.contains(&format!(r#""op":"{op}""#)))
    .map(|(_, name)| name)
}

/// Replays the script against an in-process service; with a recorder,
/// every step is traced and mirrored. Returns the wall time of the
/// replay and the service.
fn replay(
    steps: &[Step],
    durable: bool,
    name: &str,
    mut rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Result<(f64, Service, Option<PathBuf>), String> {
    let dir = if durable {
        Some(server::fresh_dir(&format!(
            "trace-{name}-{}",
            rec.is_some()
        ))?)
    } else {
        None
    };
    let data = dir.as_ref().map(|d| d.join("service"));
    let mut shadow = Shadow::new(dir.as_ref().map(|d| d.join("shadow")))?;
    let mut service = Service::new(service_config(data.as_deref()));
    let mut wall = 0.0;
    let mut recovered = 0;
    for (k, step) in steps.iter().enumerate() {
        match (step, rec.as_deref_mut()) {
            (Step::Frame((id, frame, expect)), None) => {
                let t = Instant::now();
                let response = service.execute_frame(raw(frame));
                wall += t.elapsed().as_secs_f64();
                tally.note(wire::check(&response, *id, expect));
            }
            (Step::Frame((id, frame, expect)), Some(rec)) => {
                let before = Engine::now();
                let (response, top) = rec.time(*id, "server.service.execute_frame", None, || {
                    service.execute_frame(raw(frame))
                });
                Engine::charge(before, rec);
                wall += rec.dur_us(top) / 1e6;
                let verdict = wire::check(&response, *id, expect);
                tally.note(verdict);
                if let Some(op) = op_of(frame) {
                    rec.sample(op, rec.dur_us(top));
                }
                rec.sample("server.frame_bytes", raw(frame).len() as f64);
                rec.sample("server.response_bytes", response.trim_end().len() as f64);
                if response.contains(r#""cause":"admission""#) {
                    rec.count("server.admission_rejects", 1);
                }
                let text = std::str::from_utf8(raw(frame)).unwrap_or_default();
                if let Ok(parsed) = rec
                    .time(*id, "server.json.parse", Some(top), || json::parse(text))
                    .0
                {
                    let ((envelope, request), _) =
                        rec.time(*id, "server.protocol.parse_request", Some(top), || {
                            parse_request(&parsed)
                        });
                    if let Ok(request) = request {
                        shadow.mirror(rec, *id, top, &envelope.tenant, request);
                    }
                }
                rec.settle(top);
            }
            (Step::Crash, rec) => {
                // The power cut: leases left on disk, nothing written.
                service.abandon_leases();
                drop(service);
                let req = k as u64;
                let t = Instant::now();
                match rec {
                    None => {
                        service = Service::new(service_config(data.as_deref()));
                        wall += t.elapsed().as_secs_f64();
                    }
                    Some(rec) => {
                        let (s, top) = rec.time(req, "server.service.recover", None, || {
                            Service::new(service_config(data.as_deref()))
                        });
                        service = s;
                        wall += rec.dur_us(top) / 1e6;
                        shadow.recover(rec, req, top);
                        rec.settle(top);
                    }
                }
                recovered += service.recovery_report().ops_replayed;
            }
        }
    }
    if let Some(rec) = rec {
        rec.count("core.persist.journal.ops_replayed", recovered);
    }
    Ok((wall, service, dir))
}

/// Sums the cache and store counters of every workspace's `stats`
/// answer.
fn stats_totals(service: &Service, steps: &[Step]) -> BTreeMap<&'static str, u64> {
    let mut seen = std::collections::BTreeSet::new();
    for step in steps {
        if let Step::Frame((_, frame, _)) = step {
            if let Ok(v) = json::parse(frame.trim_end()) {
                if let (Some(t), Some(w)) = (
                    v.get("tenant").and_then(Json::as_str),
                    v.get("workspace").and_then(Json::as_str),
                ) {
                    seen.insert((t.to_owned(), w.to_owned()));
                }
            }
        }
    }
    let mut totals = BTreeMap::new();
    for (t, w) in seen {
        let line = service.execute_frame(
            format!(r#"{{"op":"stats","tenant":"{t}","workspace":"{w}"}}"#).as_bytes(),
        );
        let Ok(v) = json::parse(line.trim_end()) else {
            continue;
        };
        for key in [
            "bundle_hits",
            "bundle_misses",
            "clusters_reused",
            "clusters_rebuilt",
            "disk_cluster_hits",
            "disk_writes",
        ] {
            *totals.entry(key).or_default() += v.get(key).and_then(Json::as_u64).unwrap_or(0);
        }
    }
    totals
}

/// Replays the script closed-loop over TCP against the real server
/// (one connection), returning each frame's round trip in µs (`None`
/// for crash steps) and the server's count of decoded frames.
fn tcp_replay(
    steps: &[Step],
    durable: bool,
    name: &str,
) -> Result<(Vec<Option<f64>>, u64), String> {
    let bin = server::server_binary()?;
    let dir = if durable {
        Some(server::fresh_dir(&format!("trace-{name}-tcp"))?)
    } else {
        None
    };
    let mut server = ServerProc::spawn(&bin, dir.as_deref())?;
    let mut rtts = Vec::with_capacity(steps.len());
    let mut decoded = 0;
    let mut conn = crate::load::Conn::connect(server.addr)?;
    let frames_decoded = |addr| -> u64 {
        crate::load::Conn::connect(addr)
            .and_then(|mut c| c.roundtrip("{\"id\":0,\"op\":\"health\"}\n"))
            .ok()
            .and_then(|line| json::parse(line.trim_end()).ok())
            .and_then(|v| wire::field(&v, &["net", "frames_decoded"]).and_then(Json::as_u64))
            .unwrap_or(0)
    };
    for step in steps {
        match step {
            Step::Frame((_, frame, _)) => {
                let t = Instant::now();
                conn.roundtrip(frame)?;
                rtts.push(Some(t.elapsed().as_secs_f64() * 1e6));
            }
            Step::Crash => {
                // The health probe itself is one decoded frame.
                decoded += frames_decoded(server.addr).saturating_sub(1);
                server.kill();
                server = ServerProc::spawn(&bin, dir.as_deref())?;
                conn = crate::load::Conn::connect(server.addr)?;
                rtts.push(None);
            }
        }
    }
    decoded += frames_decoded(server.addr).saturating_sub(1);
    server.kill();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((rtts, decoded))
}

fn trace_server(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    out: &mut TraceResult,
) -> Result<Recorder, String> {
    let Script {
        durable,
        setup,
        mut window,
    } = workloads::script(workload, seed, seconds, size.cycles()).ok_or("not a server workload")?;
    window.truncate(size.frames());
    let steps: Vec<Step> = setup.into_iter().chain(window).collect();
    let name = workload.name();
    let mut scratch = Tally::default();
    let (wall_off, _, dir_off) = replay(&steps, durable, name, None, &mut scratch)?;
    let mut rec = Recorder::new();
    let (wall_on, service, dir_on) = replay(&steps, durable, name, Some(&mut rec), &mut out.tally)?;
    out.tally.attempted = steps.iter().filter(|s| matches!(s, Step::Frame(_))).count() as u64;
    let totals = stats_totals(&service, &steps);
    drop(service);
    for dir in [dir_off, dir_on].into_iter().flatten() {
        let _ = std::fs::remove_dir_all(dir);
    }
    for (key, name) in [
        ("bundle_misses", "core.incremental.bundle_misses"),
        ("disk_cluster_hits", "core.persist.store.disk_cluster_hits"),
        ("disk_writes", "core.persist.store.disk_writes"),
    ] {
        rec.count(name, totals.get(key).copied().unwrap_or(0));
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let get = |k| totals.get(k).copied().unwrap_or(0);
    rec.sample(
        "core.incremental.bundle_hit_ratio",
        ratio(get("bundle_hits"), get("bundle_misses")),
    );
    rec.sample(
        "core.incremental.cluster_reuse_ratio",
        ratio(get("clusters_reused"), get("clusters_rebuilt")),
    );
    rec.count("core.incremental.bundle_hits", get("bundle_hits"));
    rec.count("core.incremental.clusters_reused", get("clusters_reused"));
    rec.count("core.incremental.clusters_rebuilt", get("clusters_rebuilt"));
    rec.sample(
        "trace.overhead_pct",
        (wall_on - wall_off) / wall_off * 100.0,
    );

    // Network overhead: the same frames over TCP, minus the in-process
    // execution time of each query frame. Small traces (tests) stay
    // in-process.
    if size == Size::Standard {
        let (rtts, decoded) = tcp_replay(&steps, durable, name)?;
        rec.count("server.net.frames_decoded", decoded);
        let mut execs = rec
            .spans
            .iter()
            .filter(|s| s.name == "server.service.execute_frame")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3);
        let mut overheads = Vec::new();
        for (step, rtt) in steps.iter().zip(&rtts) {
            if let (Step::Frame((_, frame, _)), Some(rtt)) = (step, rtt) {
                let exec = execs.next().unwrap_or(0.0);
                if frame.contains(r#""op":"query""#) {
                    overheads.push(rtt - exec);
                }
            }
        }
        rec.sample("server.net.overhead_us", stats::median(&overheads));
    }
    Ok(rec)
}

// ---------------------------------------------------------------------
// cold_classify
// ---------------------------------------------------------------------

fn trace_cold(seed: u64, size: Size, out: &mut TraceResult) -> Recorder {
    let corpus: Vec<Item> = workloads::corpus(seed)
        .into_iter()
        .take(size.items())
        .collect();
    let start = Instant::now();
    for item in &corpus {
        let _ = workloads::classify(item);
    }
    let wall_off = start.elapsed().as_secs_f64();
    let mut rec = Recorder::new();
    let mut wall_on = 0.0;
    for (i, item) in corpus.iter().enumerate() {
        let req = i as u64;
        let before = Engine::now();
        let (got, top) = rec.time(req, "core.reasoner.verdict", None, || {
            workloads::classify(item)
        });
        Engine::charge(before, &mut rec);
        wall_on += rec.dur_us(top) / 1e6;
        out.tally.attempted += 1;
        out.tally.note(workloads::judge(item, &got));
        let Ok(schema) = rec
            .time(req, "parser.parse_schema", Some(top), || {
                car_parser::parse_schema(&item.text)
            })
            .0
        else {
            continue;
        };
        decompose(&mut rec, req, top, &schema, Bundle::Sat { arity: true });
        if item.classification.is_some() {
            decompose(
                &mut rec,
                req,
                top,
                &schema,
                Bundle::Full {
                    classification: true,
                },
            );
        }
        rec.settle(top);
    }
    rec.sample(
        "trace.overhead_pct",
        (wall_on - wall_off) / wall_off * 100.0,
    );
    rec
}

/// Runs the traced replay of `workload`.
///
/// # Errors
/// Set-up failures of the replayed service or the TCP replay.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: Size) -> Result<TraceResult, String> {
    let mut out = TraceResult {
        tally: Tally::default(),
        metrics: Vec::new(),
        counts: BTreeMap::new(),
        notes: Vec::new(),
    };
    let rec = match workload {
        Workload::ColdClassify => trace_cold(seed, size, &mut out),
        _ => trace_server(workload, seed, seconds, size, &mut out)?,
    };
    let path = server::scratch_root().join(format!("trace-{}.jsonl", workload.name()));
    rec.write_jsonl(&path)?;
    out.notes.push(format!(
        "{} spans written to {}",
        rec.spans.len(),
        path.display()
    ));
    let unattributed = if rec.top_us > 0.0 {
        (rec.top_us - rec.covered_us) / rec.top_us * 100.0
    } else {
        0.0
    };
    let support_pivots = rec.counts.get("lp.support_pivots").copied().unwrap_or(0);
    for (name, unit) in PER_LAYER {
        // Timings are medians of the span (or sample) of the same name,
        // without the `_us` / `.us` suffix for spans.
        let span = name
            .strip_suffix("_us")
            .or_else(|| name.strip_suffix(".us"))
            .unwrap_or(name);
        let value = match name {
            "trace.unattributed_pct" => unattributed,
            "lp.us_per_pivot" if support_pivots > 0 => {
                rec.total("lp.support") / support_pivots as f64
            }
            "lp.us_per_pivot" => 0.0,
            _ if unit == "count" => rec.counts.get(name).copied().unwrap_or(0) as f64,
            _ if rec.samples.contains_key(name) => rec.p50(name),
            _ => rec.p50(span),
        };
        out.metrics.push((name.to_owned(), value, unit));
    }
    out.counts = rec.counts.clone();
    Ok(out)
}
