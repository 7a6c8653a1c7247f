//! The four workloads: their seeded scripts and their timed runs
//! (`--trace 0`).
//!
//! Each run renders all its inputs from the seed first, sets the system
//! up several times (keeping the last), measures for the requested
//! window, and checks every answer against the construction in
//! [`crate::gen`]. Inputs are drawn from decks (see [`Rng::deck`]), so
//! the seed changes every frame while each run does the same mix of work.

use crate::gen::{self, Fig2Query, Rng};
use crate::load::{self, Conn, Slot, Ticker};
use crate::server::{self, ServerProc};
use crate::stats;
use crate::wire::{self, Expect, Verdict};
use car_core::Reasoner;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. `shared_reads`, whose
/// set-up builds the implication bundle (about 1.5 s), sets up [`FEW_SETUPS`]
/// times.
pub const SETUPS: usize = 5;
/// Set-ups per `shared_reads` run.
pub const FEW_SETUPS: usize = 3;

/// CPU readings split the window into this many intervals: few enough
/// that each holds hundreds of milliseconds of CPU time, against the
/// 10 ms tick of `/proc/<pid>/stat`.
const CPU_BLOCKS: usize = 10;

/// `shared_reads` offered load, frames per second over both
/// connections: the server spends about 30 µs of CPU per frame, a third
/// of one core, and its latency is the same at 6,000 and 12,000 frames
/// per second.
pub const SHARED_RATE: f64 = 10000.0;
/// `edit_session` offered load, edit-then-recheck steps per second: the
/// server spends about 4 ms of CPU per step, a fifth of one core.
pub const EDIT_RATE: f64 = 50.0;
/// `edit_session` tenants, each with a private workspace.
pub const EDIT_TENANTS: usize = 16;
/// Figure 2 copies per `edit_session` workspace.
pub const EDIT_MODULES: usize = 2;
/// Figure 2 copies per `crash_recovery` workspace.
pub const CRASH_MODULES: usize = 4;
/// `crash_recovery` workspaces (one tenant each).
pub const CRASH_WORKSPACES: usize = 32;
/// Rounds of acknowledged edits (two per workspace each) before the
/// first crash.
pub const CRASH_EDITS: usize = 8;
/// Upper bound on `crash_recovery` cycles (edits are rendered up front).
pub const CRASH_MAX_CYCLES: usize = 64;
/// `cold_classify` corpus size; the window cycles through it.
pub const CORPUS_ITEMS: usize = 800;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-tenant edit-then-recheck sessions on a durable server.
    EditSession,
    /// Cached reads of one shared Figure 2 workspace.
    SharedReads,
    /// In-process verdicts on a fresh seeded corpus.
    ColdClassify,
    /// Repeated SIGKILL and recovery of a populated data directory.
    CrashRecovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EditSession,
        Workload::SharedReads,
        Workload::ColdClassify,
        Workload::CrashRecovery,
    ];

    /// The workload's `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditSession => "edit_session",
            Workload::SharedReads => "shared_reads",
            Workload::ColdClassify => "cold_classify",
            Workload::CrashRecovery => "crash_recovery",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Attempted and failed operations; `wrong` counts the failures that
/// contradict the construction (wrong answers and lost edits).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Errors, `unknown` answers, wrong answers and lost edits.
    pub failed: u64,
    /// Wrong answers and lost edits.
    pub wrong: u64,
}

impl Tally {
    /// Counts one checked response towards failures (not attempts).
    pub fn note(&mut self, verdict: Verdict) {
        if verdict != Verdict::Right {
            self.failed += 1;
        }
        if verdict == Verdict::Wrong {
            self.wrong += 1;
        }
    }
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operation counts.
    pub tally: Tally,
    /// Every timed operation as (due or start time in s since the
    /// window opened, latency in ms), in time order.
    pub ops: Vec<(f64, f64)>,
    /// Each set-up's duration, in s.
    pub setup_s: Vec<f64>,
    /// Readings (s since the window opened, ms) of the CPU time the
    /// system under test has used in the window.
    pub cpu: Vec<(f64, f64)>,
    /// Peak resident set size of the system under test.
    pub peak_rss_mb: f64,
    /// Open-loop generator lateness per send, in ms (empty for closed
    /// loops).
    pub lateness_ms: Vec<f64>,
    /// The server's network runtime, from its own `health` answer.
    pub net_mode: Option<String>,
    /// Human-readable diagnostics.
    pub notes: Vec<String>,
}

/// One request: id, rendered frame, and what its response must say.
pub type Frame = (u64, String, Expect);

/// One step of a server workload's script.
#[derive(Debug, Clone)]
pub enum Step {
    /// Send a frame.
    Frame(Frame),
    /// Kill the server without warning and start it again on the same
    /// data directory.
    Crash,
}

/// A server workload's frames in send order: what a timed run sends
/// (without the timing) and what `trace` replays.
#[derive(Debug, Clone)]
pub struct Script {
    /// Whether the server runs with a data directory.
    pub durable: bool,
    /// Set-up steps, before the window.
    pub setup: Vec<Step>,
    /// The window's steps.
    pub window: Vec<Step>,
}

/// The script of a server workload (`None` for `cold_classify`, which
/// has no server). `cycles` bounds `crash_recovery`'s crash cycles.
#[must_use]
pub fn script(workload: Workload, seed: u64, seconds: f64, cycles: usize) -> Option<Script> {
    let frames = |f: Vec<Frame>| f.into_iter().map(Step::Frame).collect::<Vec<_>>();
    match workload {
        Workload::SharedReads => Some(Script {
            durable: false,
            setup: frames(shared_setup()),
            window: frames(shared_plan(seed, seconds).in_send_order()),
        }),
        Workload::EditSession => {
            let plan = edit_plan(seed, seconds);
            Some(Script {
                durable: true,
                setup: frames(edit_setup(&plan.initial)),
                window: frames(plan.plan.in_send_order()),
            })
        }
        Workload::CrashRecovery => {
            let plan = crash_plan(seed);
            let mut window = Vec::new();
            for c in 0..cycles.min(CRASH_MAX_CYCLES) {
                let (touches, [lane0, lane1]) = plan.cycle_frames(c);
                window.push(Step::Crash);
                window.extend(frames(touches));
                window.extend(frames(lane0));
                window.extend(frames(lane1));
            }
            Some(Script {
                durable: true,
                setup: frames(crash_setup(&plan)),
                window,
            })
        }
        Workload::ColdClassify => None,
    }
}

/// Runs one workload's timed window.
///
/// # Errors
/// Set-up failures, lost connections and missing responses.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    match workload {
        Workload::EditSession => edit_session(seed, seconds),
        Workload::SharedReads => shared_reads(seed, seconds),
        Workload::ColdClassify => cold_classify(seed, seconds),
        Workload::CrashRecovery => crash_recovery(seed, seconds),
    }
}

/// Sends set-up frames one at a time; any unexpected answer aborts.
fn send_all(addr: SocketAddr, frames: &[Frame]) -> Result<(), String> {
    let mut conn = Conn::connect(addr)?;
    for (id, frame, expect) in frames {
        let line = conn.roundtrip(frame)?;
        match wire::check(&line, *id, expect) {
            Verdict::Right => {}
            v => {
                return Err(format!(
                    "set-up request {id} answered {v:?}: {}",
                    line.trim_end()
                ))
            }
        }
    }
    Ok(())
}

fn net_mode(addr: SocketAddr) -> Option<String> {
    let line = Conn::connect(addr)
        .ok()?
        .roundtrip("{\"id\":0,\"op\":\"health\"}\n")
        .ok()?;
    let v = car_server::json::parse(line.trim_end()).ok()?;
    wire::field(&v, &["net", "mode"])
        .and_then(|m| m.as_str())
        .map(str::to_owned)
}

/// Runs `setup` `times` times, tearing down all but the last.
fn repeated<T>(
    out: &mut RunResult,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    teardown: impl Fn(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..times {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let start = Instant::now();
        kept = Some(setup()?);
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    kept.ok_or_else(|| "no set-up ran".to_owned())
}

/// A server started and loaded with `frames`, on a fresh `dir` if given.
fn loaded_server(bin: &Path, dir: Option<&Path>, frames: &[Frame]) -> Result<ServerProc, String> {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let server = ServerProc::spawn(bin, dir)?;
    match send_all(server.addr, frames) {
        Ok(()) => Ok(server),
        Err(e) => {
            server.kill();
            Err(e)
        }
    }
}

/// An open-loop schedule: per connection, the send times and the frames
/// sent together at each.
struct Plan {
    conns: Vec<Vec<(Duration, Vec<Frame>)>>,
}

impl Plan {
    fn new(conns: usize) -> Plan {
        Plan {
            conns: vec![Vec::new(); conns],
        }
    }

    fn push(&mut self, conn: usize, due: f64, frames: Vec<Frame>) {
        self.conns[conn].push((Duration::from_secs_f64(due), frames));
    }

    /// Every frame, in send order across connections.
    fn in_send_order(&self) -> Vec<Frame> {
        let mut all: Vec<(Duration, usize, &Frame)> = self
            .conns
            .iter()
            .flat_map(|c| {
                c.iter()
                    .flat_map(|(due, frames)| frames.iter().map(move |f| (*due, f)))
            })
            .enumerate()
            .map(|(k, (due, f))| (due, k, f))
            .collect();
        all.sort_by_key(|&(due, k, _)| (due, k));
        all.into_iter().map(|(_, _, f)| f.clone()).collect()
    }

    /// Runs the plan against `server` and checks every response; each
    /// send is one timed operation, lasting until its last response
    /// arrives.
    fn execute(
        &self,
        server: &ServerProc,
        seconds: f64,
        out: &mut RunResult,
    ) -> Result<(), String> {
        let slots: Vec<Vec<Slot>> = self
            .conns
            .iter()
            .map(|c| {
                c.iter()
                    .map(|(due, frames)| Slot {
                        due: *due,
                        bytes: frames.iter().flat_map(|(_, f, _)| f.bytes()).collect(),
                        responses: frames.len(),
                    })
                    .collect()
            })
            .collect();
        let cpu0 = server.cpu_ms();
        let probe = || server.cpu_ms() - cpu0;
        let mut ticker = Ticker::new(&probe, Duration::from_secs_f64(seconds / CPU_BLOCKS as f64));
        let observed = load::open_loop(server.addr, &slots, &mut ticker)?;
        out.cpu = ticker
            .readings
            .iter()
            .map(|&(t, c)| (t.as_secs_f64(), c))
            .collect();
        for ((conn, slots), obs) in self.conns.iter().zip(&slots).zip(&observed) {
            let expects = conn.iter().flat_map(|(_, frames)| frames);
            for (line, (id, _, expect)) in obs.lines.iter().zip(expects) {
                out.tally.note(wire::check(line, *id, expect));
            }
            for (slot, done) in slots.iter().zip(&obs.done) {
                out.ops.push((
                    slot.due.as_secs_f64(),
                    done.saturating_sub(slot.due).as_secs_f64() * 1e3,
                ));
            }
            out.lateness_ms
                .extend(obs.lateness.iter().map(|l| l.as_secs_f64() * 1e3));
            out.tally.attempted += slots.len() as u64;
        }
        out.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// shared_reads
// ---------------------------------------------------------------------

const SHARED_TENANT: &str = "shared";
const SHARED_WS: &str = "fig2";

fn fig2_query_frame(id: u64, queries: &[Fig2Query]) -> Frame {
    let rendered: Vec<String> = queries.iter().map(|q| q.wire()).collect();
    (
        id,
        wire::query(id, SHARED_TENANT, SHARED_WS, &rendered),
        Expect::Answers(queries.iter().map(|q| q.expected()).collect()),
    )
}

/// Open Figure 2, then one query of every kind: builds both the
/// satisfiability and the complete (implication) bundle, so the window
/// sees only cache hits.
fn shared_setup() -> Vec<Frame> {
    vec![
        (
            1,
            wire::open(1, SHARED_TENANT, SHARED_WS, &gen::figure2()),
            Expect::Ok,
        ),
        fig2_query_frame(
            2,
            &[
                Fig2Query::Subsumes("Person", "Grad_Student"),
                Fig2Query::Disjoint("Student", "Professor"),
                Fig2Query::Equivalent("Course", "Adv_Course"),
                Fig2Query::Satisfiable("Adv_Course"),
            ],
        ),
    ]
}

fn shared_plan(seed: u64, seconds: f64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let n = (SHARED_RATE * seconds).round() as usize;
    let arrivals = rng.arrivals(n, seconds);
    let sizes = rng.deck(&[1, 2, 3], n);
    let conns = rng.deck(&[0, 1], n);
    let mut plan = Plan::new(2);
    for (i, due) in arrivals.into_iter().enumerate() {
        let queries: Vec<Fig2Query> = (0..sizes[i]).map(|_| Fig2Query::random(&mut rng)).collect();
        plan.push(
            conns[i],
            due,
            vec![fig2_query_frame(i as u64 + 100, &queries)],
        );
    }
    plan
}

fn shared_reads(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let bin = server::server_binary()?;
    let plan = shared_plan(seed, seconds);
    let setup = shared_setup();
    let mut out = RunResult::default();
    let server = repeated(
        &mut out,
        FEW_SETUPS,
        || loaded_server(&bin, None, &setup),
        ServerProc::kill,
    )?;
    let result = plan.execute(&server, seconds, &mut out);
    out.peak_rss_mb = server.peak_rss_mb();
    out.net_mode = net_mode(server.addr);
    server.kill();
    result.map(|()| out)
}

// ---------------------------------------------------------------------
// edit_session
// ---------------------------------------------------------------------

/// One tenant's schema state: `Grad_Student_m<i>` bounds per module,
/// with the undo history the server keeps.
#[derive(Debug, Clone)]
struct Session {
    cards: Vec<(u64, u64)>,
    undo: Vec<Vec<(u64, u64)>>,
}

impl Session {
    fn schema(&self) -> String {
        gen::fig2_modules(&self.cards)
    }

    /// The recheck: coherence plus module `m`'s two fragile classes.
    fn recheck(&self, id: u64, tenant: &str, m: usize) -> Frame {
        let sfx = gen::module_suffix(m);
        let sat = !gen::module_unsat(self.cards[m]);
        let queries = [
            wire::coherent(),
            wire::satisfiable(&format!("Grad_Student{sfx}")),
            wire::satisfiable(&format!("Adv_Course{sfx}")),
        ];
        let coherent = self.cards.iter().all(|&c| !gen::module_unsat(c));
        (
            id,
            wire::query(id, tenant, WS, &queries),
            Expect::Answers(vec![coherent, sat, sat]),
        )
    }
}

/// Every module's `Grad_Student` satisfiability: a workspace's whole
/// state as far as answers can reveal it.
fn audit(id: u64, tenant: &str, cards: &[(u64, u64)]) -> Frame {
    let (queries, answers): (Vec<String>, Vec<bool>) = cards
        .iter()
        .enumerate()
        .map(|(m, &card)| {
            (
                wire::satisfiable(&format!("Grad_Student{}", gen::module_suffix(m))),
                !gen::module_unsat(card),
            )
        })
        .unzip();
    (
        id,
        wire::query(id, tenant, WS, &queries),
        Expect::Answers(answers),
    )
}

fn tenant(j: usize) -> String {
    format!("t{j}")
}

const WS: &str = "w";

/// The steps of an edit session.
#[derive(Debug, Clone, Copy)]
enum EditKind {
    Apply,
    Undo,
    Recheck,
}

/// Per step: 6 in 10 apply an edit, 1 undoes one, 3 only recheck — and
/// every step ends with the recheck. An apply almost always creates a
/// schema version never analyzed before (a bundle miss), so most steps
/// time a rebuild; an undo returns to a cached version.
const EDIT_MIX: [EditKind; 10] = [
    EditKind::Apply,
    EditKind::Apply,
    EditKind::Apply,
    EditKind::Apply,
    EditKind::Apply,
    EditKind::Apply,
    EditKind::Undo,
    EditKind::Recheck,
    EditKind::Recheck,
    EditKind::Recheck,
];

struct EditPlan {
    initial: Vec<Session>,
    plan: Plan,
    last: Vec<Session>,
}

fn edit_plan(seed: u64, seconds: f64) -> EditPlan {
    let mut rng = Rng::new(seed, 2);
    let initial: Vec<Session> = (0..EDIT_TENANTS)
        .map(|_| Session {
            cards: gen::module_cards(&mut rng, EDIT_MODULES, 1),
            undo: Vec::new(),
        })
        .collect();
    let mut sessions = initial.clone();
    let n = (EDIT_RATE * seconds).round() as usize;
    let arrivals = rng.arrivals(n, seconds);
    let kinds = rng.deck(&EDIT_MIX, n);
    let tenants = rng.deck(&(0..EDIT_TENANTS).collect::<Vec<_>>(), n);
    let modules = rng.deck(&(0..EDIT_MODULES).collect::<Vec<_>>(), 2 * n);
    // A third of the new bounds make their module unsatisfiable, as
    // uniform `a` in 1..=9 would.
    let sides = rng.deck(&[true, false, false], n);
    let mut plan = Plan::new(2);
    let mut id = 100;
    for (k, due) in arrivals.into_iter().enumerate() {
        let j = tenants[k];
        let t = tenant(j);
        let session = &mut sessions[j];
        let mut frames = Vec::new();
        id += 1;
        match kinds[k] {
            EditKind::Apply => {
                let m = modules[2 * k];
                let card = gen::card(&mut rng, sides[k]);
                frames.push((id, wire::set_card(id, &t, WS, m, card), Expect::Applied));
                session.undo.push(session.cards.clone());
                session.cards[m] = card;
            }
            EditKind::Undo => {
                let moved = match session.undo.pop() {
                    Some(prev) => {
                        session.cards = prev;
                        true
                    }
                    None => false,
                };
                frames.push((id, wire::undo(id, &t, WS), Expect::Moved(moved)));
            }
            EditKind::Recheck => {}
        }
        id += 1;
        frames.push(session.recheck(id, &t, modules[2 * k + 1]));
        plan.push(j % 2, due, frames);
    }
    EditPlan {
        initial,
        plan,
        last: sessions,
    }
}

/// Open every tenant's workspace and analyze it once.
fn edit_setup(sessions: &[Session]) -> Vec<Frame> {
    sessions
        .iter()
        .enumerate()
        .flat_map(|(j, session)| {
            let t = tenant(j);
            let id = j as u64 * 2 + 1;
            [
                (id, wire::open(id, &t, WS, &session.schema()), Expect::Ok),
                session.recheck(id + 1, &t, 0),
            ]
        })
        .collect()
}

/// Restarts the server on `dir` and checks that every session's state
/// survived: a lost acknowledged edit shows as a wrong answer.
fn audit_after_restart(
    bin: &Path,
    dir: &Path,
    sessions: &[Session],
    out: &mut RunResult,
) -> Result<(), String> {
    let server = ServerProc::spawn(bin, Some(dir))?;
    let mut conn = Conn::connect(server.addr)?;
    let mut lost = 0;
    for (j, session) in sessions.iter().enumerate() {
        let (id, frame, expect) = audit(9_000_000 + j as u64, &tenant(j), &session.cards);
        if wire::check(&conn.roundtrip(&frame)?, id, &expect) != Verdict::Right {
            lost += 1;
        }
    }
    out.tally.wrong += lost;
    out.tally.failed += lost;
    out.notes.push(format!(
        "restart audit: {} sessions checked, {lost} lost edits",
        sessions.len()
    ));
    server.kill();
    Ok(())
}

fn edit_session(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let bin = server::server_binary()?;
    let plan = edit_plan(seed, seconds);
    let setup = edit_setup(&plan.initial);
    let dir = server::fresh_dir("edit_session")?;
    let mut out = RunResult::default();
    let server = repeated(
        &mut out,
        SETUPS,
        || loaded_server(&bin, Some(&dir), &setup),
        ServerProc::kill,
    )?;
    let result = plan.plan.execute(&server, seconds, &mut out);
    out.peak_rss_mb = server.peak_rss_mb();
    out.net_mode = net_mode(server.addr);
    server.kill();
    let result = result.and_then(|()| audit_after_restart(&bin, &dir, &plan.last, &mut out));
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}

// ---------------------------------------------------------------------
// crash_recovery
// ---------------------------------------------------------------------

/// One round of edits: `(workspace, module, new bounds)`.
type Edits = Vec<(usize, usize, (u64, u64))>;

fn crash_tenant(j: usize) -> String {
    format!("c{j}")
}

/// Initial states, the pre-crash edit rounds, and one edit per workspace
/// per cycle.
struct CrashPlan {
    initial: Vec<Vec<(u64, u64)>>,
    before: Vec<Edits>,
    cycles: Vec<Edits>,
}

impl CrashPlan {
    /// Workspace states after the pre-crash rounds. Every cycle applies
    /// its edit and undoes it, so the state — and the size of every
    /// workspace's history — is the same at each crash, and every cycle
    /// does the same work however many fit in the window.
    fn settled(&self) -> Vec<Vec<(u64, u64)>> {
        let mut cards = self.initial.clone();
        for &(j, m, card) in self.before.iter().flatten() {
            cards[j][m] = card;
        }
        cards
    }

    /// Cycle `c`'s first-touch queries, and per connection the edits:
    /// each workspace's apply then undo, on connection `j mod 2`.
    fn cycle_frames(&self, c: usize) -> (Vec<Frame>, [Vec<Frame>; 2]) {
        let id0 = 10_000_000 * (c as u64 + 1);
        let mut lanes: [Vec<Frame>; 2] = Default::default();
        for (k, &(j, m, card)) in self.cycles[c].iter().enumerate() {
            let id = id0 + 5_000_000 + 2 * k as u64;
            let t = crash_tenant(j);
            lanes[j % 2].push((id, wire::set_card(id, &t, WS, m, card), Expect::Applied));
            lanes[j % 2].push((id + 1, wire::undo(id + 1, &t, WS), Expect::Moved(true)));
        }
        (audits(&self.settled(), id0), lanes)
    }
}

fn crash_plan(seed: u64) -> CrashPlan {
    let mut rng = Rng::new(seed, 3);
    let initial: Vec<Vec<(u64, u64)>> = (0..CRASH_WORKSPACES)
        .map(|_| gen::module_cards(&mut rng, CRASH_MODULES, 1))
        .collect();
    let mut cards = initial.clone();
    // Every workspace keeps exactly one unsatisfiable copy: a round moves
    // it to copy (old + 1 + r mod 3) in two edits, each flipping a copy.
    let before: Vec<Edits> = (0..CRASH_EDITS)
        .map(|r| {
            let mut edits = Vec::new();
            for (j, ws) in cards.iter_mut().enumerate() {
                let old = ws
                    .iter()
                    .position(|&c| gen::module_unsat(c))
                    .expect("one unsatisfiable copy");
                let new = (old + 1 + r % (CRASH_MODULES - 1)) % CRASH_MODULES;
                for (m, unsat) in [(old, false), (new, true)] {
                    ws[m] = gen::card(&mut rng, unsat);
                    edits.push((j, m, ws[m]));
                }
            }
            edits
        })
        .collect();
    // Cycle c flips copy (j + c) mod 4 of workspace j (and undoes it).
    let cycles: Vec<Edits> = (0..CRASH_MAX_CYCLES)
        .map(|c| {
            cards
                .iter()
                .enumerate()
                .map(|(j, ws)| {
                    let m = (j + c) % CRASH_MODULES;
                    (j, m, gen::card(&mut rng, !gen::module_unsat(ws[m])))
                })
                .collect()
        })
        .collect();
    CrashPlan {
        initial,
        before,
        cycles,
    }
}

fn edit_frames(edits: &Edits, id0: u64) -> Vec<Frame> {
    edits
        .iter()
        .enumerate()
        .map(|(k, &(j, m, card))| {
            let id = id0 + k as u64;
            (
                id,
                wire::set_card(id, &crash_tenant(j), WS, m, card),
                Expect::Applied,
            )
        })
        .collect()
}

fn audits(cards: &[Vec<(u64, u64)>], id0: u64) -> Vec<Frame> {
    cards
        .iter()
        .enumerate()
        .map(|(j, ws)| audit(id0 + j as u64, &crash_tenant(j), ws))
        .collect()
}

/// Open every workspace, apply the pre-crash rounds, query each once
/// (which also fills the durable store).
fn crash_setup(plan: &CrashPlan) -> Vec<Frame> {
    let mut frames: Vec<Frame> = plan
        .initial
        .iter()
        .enumerate()
        .map(|(j, ws)| {
            let id = j as u64 + 1;
            (
                id,
                wire::open(id, &crash_tenant(j), WS, &gen::fig2_modules(ws)),
                Expect::Ok,
            )
        })
        .collect();
    for (r, edits) in plan.before.iter().enumerate() {
        frames.extend(edit_frames(edits, 1000 * (r as u64 + 1)));
    }
    frames.extend(audits(&plan.settled(), 100_000));
    frames
}

/// Runs each lane of frames closed-loop on its own connection and
/// thread (at most two), returning per frame the completion time since
/// `t0` and the verdict.
fn closed_loop(
    addr: SocketAddr,
    lanes: &[Vec<Frame>],
    t0: Instant,
) -> Result<Vec<(Duration, Verdict)>, String> {
    assert!(
        lanes.len() <= 2,
        "the load generator uses at most two connections"
    );
    let run = |lane: &[Frame]| -> Result<Vec<(Duration, Verdict)>, String> {
        let mut conn = Conn::connect(addr)?;
        lane.iter()
            .map(|(id, frame, expect)| {
                let line = conn.roundtrip(frame)?;
                Ok((t0.elapsed(), wire::check(&line, *id, expect)))
            })
            .collect()
    };
    std::thread::scope(|scope| {
        let other = lanes.get(1).map(|lane| scope.spawn(|| run(lane)));
        let mut out = match lanes.first() {
            Some(lane) => run(lane)?,
            None => Vec::new(),
        };
        if let Some(other) = other {
            out.extend(
                other
                    .join()
                    .map_err(|_| "closed-loop thread panicked".to_owned())??,
            );
        }
        Ok(out)
    })
}

/// The `(workspaces, ops replayed)` counts of a `recovered …` banner.
fn recovery_counts(line: &str) -> Option<(u64, u64)> {
    let rest = line.split("recovered ").nth(1)?;
    let mut words = rest.split_whitespace();
    let workspaces = words.next()?.parse().ok()?;
    let replayed = words.nth(1)?.trim_start_matches('(').parse().ok()?;
    Some((workspaces, replayed))
}

fn crash_recovery(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let bin = server::server_binary()?;
    let plan = crash_plan(seed);
    let setup = crash_setup(&plan);
    let dir = server::fresh_dir("crash_recovery")?;
    let mut out = RunResult::default();
    let mut server = repeated(
        &mut out,
        SETUPS,
        || loaded_server(&bin, Some(&dir), &setup),
        ServerProc::kill,
    )?;
    // CPU is read as each server dies, so each cycle's interval holds
    // exactly its server's recovery, first touches and edits.
    let mut cpu_base = server.cpu_ms();
    let mut cpu_total = 0.0;
    let mut ready = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    let result = loop {
        if cycle == CRASH_MAX_CYCLES || (cycle > 0 && start.elapsed().as_secs_f64() >= seconds) {
            break Ok(());
        }
        cpu_total += server.cpu_ms() - cpu_base;
        if cycle > 0 {
            peaks.push(server.peak_rss_mb());
        }
        server.kill();
        // Every first-touch query is due the moment the crashed server
        // is respawned: its latency includes the recovery it waits for.
        let t0 = Instant::now();
        let since_start = start.elapsed().as_secs_f64();
        out.cpu.push((since_start, cpu_total));
        server = ServerProc::spawn(&bin, Some(&dir))?;
        cpu_base = 0.0;
        ready.push(server.ready.as_secs_f64());
        // Recovery replays exactly the edits acknowledged since the last
        // recovery's fencing snapshot; any other count lost (or invented)
        // an acknowledged edit.
        let replayed = if cycle == 0 {
            plan.before.iter().map(Vec::len).sum()
        } else {
            // Each cycle's edit and its undo.
            2 * plan.cycles[cycle - 1].len()
        };
        let counts = server.recovery_line.as_deref().and_then(recovery_counts);
        if counts != Some((CRASH_WORKSPACES as u64, replayed as u64)) {
            out.tally.wrong += 1;
            out.tally.failed += 1;
            out.notes.push(format!(
                "cycle {cycle}: expected {replayed} ops replayed, banner {:?}",
                server.recovery_line
            ));
        }
        let (touches, edits) = plan.cycle_frames(cycle);
        let first_touch = match closed_loop(server.addr, &[touches], t0) {
            Ok(v) => v,
            Err(e) => break Err(e),
        };
        for (at, verdict) in first_touch {
            out.tally.attempted += 1;
            out.tally.note(verdict);
            out.ops.push((since_start, at.as_secs_f64() * 1e3));
        }
        match closed_loop(server.addr, &edits, t0) {
            Ok(v) => {
                for (_, verdict) in v.into_iter().filter(|(_, v)| *v != Verdict::Right) {
                    out.notes
                        .push(format!("cycle {cycle}: edit answered {verdict:?}"));
                    out.tally.failed += 1;
                }
            }
            Err(e) => break Err(e),
        }
        cycle += 1;
    };
    cpu_total += server.cpu_ms() - cpu_base;
    out.cpu.push((start.elapsed().as_secs_f64(), cpu_total));
    peaks.push(server.peak_rss_mb());
    // Every respawned server recovers the same directory: report the
    // typical one's peak.
    out.peak_rss_mb = stats::median(&peaks);
    out.net_mode = net_mode(server.addr);
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    out.notes.push(format!(
        "{cycle} crash cycles; respawn-to-listening median {:.1} ms",
        stats::median(&ready) * 1e3
    ));
    result.map(|()| out)
}

// ---------------------------------------------------------------------
// cold_classify
// ---------------------------------------------------------------------

/// A verdict: the unsatisfiable classes and, when asked, the strict
/// subsumptions, all by name and sorted.
pub type Answer = (Vec<String>, Option<Vec<(String, String)>>);

/// DSL text → `parse_schema` → `Reasoner::new` →
/// `try_unsatisfiable_classes` (+ `try_classification`).
///
/// # Errors
/// Parse and reasoning errors, as text.
pub fn classify(item: &gen::Item) -> Result<Answer, String> {
    let schema = car_parser::parse_schema(&item.text).map_err(|e| e.to_string())?;
    let reasoner = Reasoner::new(&schema);
    let mut unsat: Vec<String> = reasoner
        .try_unsatisfiable_classes()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|c| schema.class_name(c).to_owned())
        .collect();
    unsat.sort();
    let classification = match item.classification {
        None => None,
        Some(_) => {
            let mut pairs: Vec<(String, String)> = reasoner
                .try_classification()
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|(sup, sub)| {
                    (
                        schema.class_name(sup).to_owned(),
                        schema.class_name(sub).to_owned(),
                    )
                })
                .collect();
            pairs.sort();
            Some(pairs)
        }
    };
    Ok((unsat, classification))
}

/// How one verdict compares with the item's construction.
#[must_use]
pub fn judge(item: &gen::Item, got: &Result<Answer, String>) -> Verdict {
    match got {
        Err(_) => Verdict::Error,
        Ok((unsat, classification))
            if *unsat == item.unsat && *classification == item.classification =>
        {
            Verdict::Right
        }
        Ok(_) => Verdict::Wrong,
    }
}

/// The run's corpus, rendered from the seed.
#[must_use]
pub fn corpus(seed: u64) -> Vec<gen::Item> {
    gen::corpus(&mut Rng::new(seed, 4), CORPUS_ITEMS)
}

fn cold_classify(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let corpus = repeated(
        &mut out,
        SETUPS,
        || {
            for item in gen::warm_up() {
                if judge(&item, &classify(&item)) != Verdict::Right {
                    return Err(format!(
                        "warm-up {} item answered wrongly",
                        item.family.label()
                    ));
                }
            }
            Ok(corpus(seed))
        },
        drop,
    )?;
    let self_stat = format!("/proc/{}/stat", std::process::id());
    let cpu0 = server::cpu_ms(&self_stat);
    let probe = || server::cpu_ms(&self_stat) - cpu0;
    let mut ticker = Ticker::new(&probe, Duration::from_secs_f64(seconds / CPU_BLOCKS as f64));
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let item = &corpus[i % corpus.len()];
        let t = start.elapsed();
        let got = classify(item);
        out.ops
            .push((t.as_secs_f64(), (start.elapsed() - t).as_secs_f64() * 1e3));
        out.tally.attempted += 1;
        out.tally.note(judge(item, &got));
        ticker.poll(start.elapsed());
        i += 1;
    }
    ticker.finish(start.elapsed());
    out.cpu = ticker
        .readings
        .iter()
        .map(|&(t, c)| (t.as_secs_f64(), c))
        .collect();
    out.peak_rss_mb = server::peak_rss_mb(&format!("/proc/{}/status", std::process::id()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_banner_parses() {
        let line = "car-server: recovered 32 workspaces (256 journal ops replayed, 0 truncated tails, \
                    0 fenced records rejected, 0 unusable dirs skipped, 0 dirs lease-held elsewhere)";
        assert_eq!(recovery_counts(line), Some((32, 256)));
    }

    #[test]
    fn scripts_are_seeded() {
        let frames = |seed| -> Vec<String> {
            script(Workload::EditSession, seed, 2.0, 0)
                .expect("server workload")
                .window
                .into_iter()
                .filter_map(|s| match s {
                    Step::Frame((_, f, _)) => Some(f),
                    Step::Crash => None,
                })
                .collect()
        };
        assert_eq!(frames(7), frames(7));
        assert_ne!(frames(7), frames(8));
    }
}
