//! Multi-tenant service core: the workspace registry, per-tenant
//! quotas, and the admission-controlled, coalescing query path.
//!
//! ## Concurrency model
//!
//! Workspaces live in a sharded registry (`Mutex<HashMap>` per shard,
//! keyed by tenant + workspace name) so connections on different
//! workspaces never contend on one lock. Each workspace entry owns two
//! locks with a strict ordering discipline — the *batch queue* lock and
//! the *workspace* lock are never held at the same time:
//!
//! * **Edits** (`apply`/`undo`/`redo`) take the workspace lock
//!   directly; they are short (no reasoning happens at edit time).
//! * **Queries** enqueue into the batch queue. The first arrival
//!   becomes the *leader*: it takes the workspace lock and drains the
//!   queue in rounds, answering *all* pending batches with a single
//!   [`Workspace::query_batch_results`] call per round — concurrent
//!   queries against the same workspace version share one bundle
//!   computation and one budget, instead of serializing N full
//!   reasoning passes. Followers block on a per-batch condvar slot.
//!
//! ## Admission control and degradation
//!
//! The queue is bounded (`max_pending` batches). When a drain is in
//! progress and the queue is full, new queries are not queued
//! unboundedly — they degrade immediately to `unknown` answers with
//! cause `"admission"`. Every drain round runs under a fresh
//! per-tenant [`Budget`], so a pathological schema exhausts its own
//! budget (`unknown` with cause `"deadline"`/`"budget"`) rather than
//! starving other tenants or wedging the workspace: budget failures
//! are not cached and the workspace stays valid for the next request.

use crate::json::{obj, s, Json};
use crate::protocol::{
    answer_json, err_response, ok_response, parse_request, unknown_answer, Envelope,
    Request, WireError, WireQuery,
};
use car_core::persist::{codec, read_generation, Disk};
use car_core::{
    Acquire, Budget, BudgetLimits, DiskStore, JournalOp, Lease, LeaseWatch, ReasonerConfig,
    SharedStore, StoreLimits, Workspace, WorkspaceDir, WorkspaceLimits,
};
use car_parser::parse_schema;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-tenant resource quotas, applied to every workspace of every
/// tenant (this build has a single global quota class; the structure is
/// per-request so per-tenant tiers can be layered on later).
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Wall-clock allowance per query drain round.
    pub deadline: Option<Duration>,
    /// Step allowance per query drain round.
    pub max_steps: Option<u64>,
    /// Materialized-object allowance per query drain round.
    pub max_items: Option<u64>,
    /// Maximum batches queued behind an in-progress drain before new
    /// queries degrade to `unknown` (`"admission"`).
    pub max_pending: usize,
    /// Maximum workspaces one tenant may hold open.
    pub max_workspaces: usize,
    /// Cache and undo-stack bounds for each workspace.
    pub workspace_limits: WorkspaceLimits,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            deadline: Some(Duration::from_secs(10)),
            max_steps: None,
            max_items: Some(5_000_000),
            max_pending: 64,
            max_workspaces: 32,
            workspace_limits: WorkspaceLimits::default(),
        }
    }
}

impl TenantQuota {
    fn budget(&self) -> Budget {
        Budget::new(BudgetLimits {
            deadline: self.deadline,
            max_steps: self.max_steps,
            max_items: self.max_items,
        })
    }
}

/// How this process relates to the durable state under `data_dir`.
///
/// A fleet shares one data directory: exactly one *leader* per
/// workspace holds that workspace's lease and writes its snapshot and
/// journal; any number of *followers* serve queries from the same files
/// without ever writing. Leadership is per workspace lease, not per
/// process — two leader processes over one data dir partition the
/// workspaces between themselves via the lease files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Acquire leases, recover, and write. The default.
    Leader,
    /// Never acquire a lease and never write: serve queries from the
    /// on-disk state as of the last refresh, and answer every edit with
    /// a `read_only` error.
    Follower,
}

/// Network-layer counters, shared between the network runtime and the
/// service so `health`/`stats` can surface them. All updated with
/// relaxed ordering — they are monitoring data, not synchronization.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Connections accepted since startup.
    pub conns_accepted: AtomicU64,
    /// Currently open connections (gauge).
    pub conns_open: AtomicU64,
    /// Non-blank frames decoded (each produced exactly one response).
    pub frames_decoded: AtomicU64,
    /// Over-cap lines discarded to their newline (`frame_too_large`).
    pub frames_oversized: AtomicU64,
    /// Writes that could not complete in one call and re-armed
    /// `EPOLLOUT` instead of blocking a thread.
    pub backpressure_stalls: AtomicU64,
    /// Connections dropped because a non-reading client let its output
    /// buffer exceed `max_write_buffer_bytes`.
    pub write_buffer_disconnects: AtomicU64,
    /// `epoll_wait` returns across all workers (bounded by traffic,
    /// never by wall clock — the only timeout is the 1 ms back-off of
    /// a failed accept).
    pub wakeups: AtomicU64,
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Quotas applied to each tenant.
    pub quota: TenantQuota,
    /// Maximum request frame size in bytes (longer lines are discarded
    /// and answered with `frame_too_large`).
    pub max_frame_bytes: usize,
    /// Worker threads per reasoning pass.
    pub threads: NonZeroUsize,
    /// Root of the durable state: the shared content-addressed
    /// enumeration store plus per-workspace snapshots and journals.
    /// `None` runs fully in memory (the pre-persistence behavior).
    pub data_dir: Option<PathBuf>,
    /// Byte budget of the on-disk enumeration store.
    pub store_max_bytes: u64,
    /// Whether the `shutdown` operation is honored. Off by default: a
    /// remote peer should not be able to stop the server unless the
    /// operator opted in.
    pub allow_remote_shutdown: bool,
    /// Leader (lease-holding writer) or read-only follower over the
    /// shared `data_dir`.
    pub store_mode: StoreMode,
    /// How long a workspace lease may go without a heartbeat before
    /// another process may take it over. The keeper renews well inside
    /// this (every `lease_ttl / 4`, floored at 25ms).
    pub lease_ttl: Duration,
    /// Network worker threads; each owns the connection it was woken
    /// for while it reads, executes and writes.
    pub net_workers: NonZeroUsize,
    /// Bytes of unsent output a connection may accumulate before it is
    /// disconnected as a non-reader.
    pub max_write_buffer_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            quota: TenantQuota::default(),
            max_frame_bytes: 1 << 20,
            threads: NonZeroUsize::MIN,
            data_dir: None,
            store_max_bytes: StoreLimits::default().max_bytes,
            allow_remote_shutdown: false,
            store_mode: StoreMode::Leader,
            lease_ttl: Duration::from_secs(2),
            net_workers: NonZeroUsize::new(4).unwrap_or(NonZeroUsize::MIN),
            max_write_buffer_bytes: 8 << 20,
        }
    }
}

/// What startup recovery found under the data directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Workspaces rebuilt from snapshot (+ journal replay).
    pub workspaces_recovered: u64,
    /// Journal operations replayed on top of snapshots.
    pub ops_replayed: u64,
    /// Journals whose torn/corrupt tail cut replay short (the verified
    /// prefix was still replayed).
    pub truncated_tails: u64,
    /// Workspace directories with no usable snapshot; skipped. The
    /// name becomes available again for a fresh `open`.
    pub dirs_skipped: u64,
    /// Replayed operations that failed to re-apply (replay of that
    /// workspace stops at the failure; earlier ops are kept).
    pub replay_failures: u64,
    /// Journal records written by a deposed (fenced) writer and
    /// rejected during replay — a zombie leader's appends, kept out of
    /// the history by epoch fencing.
    pub fenced_records_rejected: u64,
    /// Workspace directories whose lease another live process holds;
    /// left alone (the keeper watches them and takes over on expiry).
    pub dirs_lease_held: u64,
}

impl RecoveryReport {
    /// Field-wise accumulate (keeper takeovers and follower lazy loads
    /// add to the startup report).
    fn absorb(&mut self, other: &RecoveryReport) {
        self.workspaces_recovered += other.workspaces_recovered;
        self.ops_replayed += other.ops_replayed;
        self.truncated_tails += other.truncated_tails;
        self.dirs_skipped += other.dirs_skipped;
        self.replay_failures += other.replay_failures;
        self.fenced_records_rejected += other.fenced_records_rejected;
        self.dirs_lease_held += other.dirs_lease_held;
    }
}

/// Journal compaction threshold: after this many operations since the
/// last snapshot, the next journaled edit triggers a snapshot (which
/// truncates the journal).
const COMPACT_AFTER_OPS: u64 = 256;

/// How long a follower waits for its leader before degrading. Far above
/// any sane drain time (drains are budget-bounded); this is a hang
/// backstop, not a tuning knob.
const FOLLOWER_TIMEOUT: Duration = Duration::from_secs(300);

const SHARDS: usize = 16;

/// Diagnostic owner label stamped into lease files.
const LEASE_LABEL: &str = "car-server";

/// Every workspace directory under `data_dir/workspaces` (two levels:
/// tenant, then workspace). Missing roots yield an empty list.
fn workspace_dirs(data_dir: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    let Ok(tenants) = std::fs::read_dir(data_dir.join("workspaces")) else {
        return dirs;
    };
    for tenant_dir in tenants.flatten() {
        let Ok(workspaces) = std::fs::read_dir(tenant_dir.path()) else { continue };
        for ws_dir in workspaces.flatten() {
            dirs.push(ws_dir.path());
        }
    }
    dirs
}

/// A follower's staleness fingerprint for one workspace directory:
/// the compaction generation (odd while a compaction is in flight)
/// plus a hash over the (name, length) of every snapshot/journal file
/// in the directory. Snapshots and journals are named by the writer's
/// fencing epoch, so a takeover shows up as a new file name and an
/// epoch sweep as a removal — both change the hash even when the new
/// journal happens to match the old one's length. Purely advisory — a
/// refresh triggered by a torn observation only costs a re-read, never
/// a wrong answer, because restore applies the same verification rules
/// as recovery.
fn follower_fingerprint(path: &Path) -> (u64, u64) {
    let gen = read_generation(path, &Disk::real()).unwrap_or(0);
    let mut files: Vec<String> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with("snapshot") || name.starts_with("journal")) {
                continue;
            }
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            files.push(format!("{name} {len}"));
        }
    }
    files.sort();
    (gen, codec::fnv64(files.join("\n").as_bytes()))
}

struct PendingBatch {
    queries: Vec<WireQuery>,
    slot: Arc<Slot>,
}

struct Slot {
    answers: Mutex<Option<Vec<Json>>>,
    ready: Condvar,
}

/// One enqueued batch's resolution plan (per query: an index into the
/// round's combined batch, or the unknown class name) plus the slot
/// its answers go to.
type BatchPlan = (Vec<Result<usize, String>>, Arc<Slot>);

struct BatchQueue {
    pending: Vec<PendingBatch>,
    /// A leader currently holds (or is about to take) the workspace
    /// lock and will drain `pending`.
    draining: bool,
}

struct WsEntry {
    tenant: String,
    name: String,
    ws: Mutex<Workspace>,
    queue: Mutex<BatchQueue>,
    /// Bumped on every successful `apply`/`undo`/`redo`; lets clients
    /// correlate answers with schema versions.
    version: AtomicU64,
    /// The workspace's durable home (snapshot + journal), when the
    /// server has a data directory. Lock ordering: always taken *after*
    /// the workspace lock, never the other way round.
    dir: Option<Mutex<WorkspaceDir>>,
    /// The leader's claim on the durable home. `None` for memory-only
    /// entries and on followers. Lock ordering: after the dir lock.
    lease: Mutex<Option<Lease>>,
    /// Set once the claim is observed lost (a successor took over).
    /// Edits on a fenced entry are refused; queries keep serving the
    /// in-memory state.
    fenced: AtomicBool,
    /// Follower staleness fingerprint: (compaction generation, hash of
    /// snapshot/journal file names and lengths) as of the last refresh.
    /// `None` outside follower mode.
    freshness: Option<Mutex<(u64, u64)>>,
}

/// The shared, thread-safe service state: registry plus configuration.
pub struct Service {
    config: ServerConfig,
    shards: Vec<Mutex<HashMap<WsKey, Arc<WsEntry>>>>,
    /// Shared durable enumeration store, attached to every workspace.
    store: Option<SharedStore>,
    /// Behind a mutex because keeper takeovers keep adding to it after
    /// startup.
    recovery: Mutex<RecoveryReport>,
    /// Snapshot/journal writes that failed. The in-memory operation
    /// still succeeded; only durability was lost (the next successful
    /// snapshot re-covers the state).
    durability_failures: AtomicU64,
    /// Expired leases this process took over (keeper sweeps).
    leases_taken_over: AtomicU64,
    /// Edit requests refused because this server is a follower.
    read_only_rejections: AtomicU64,
    /// Directories with an `open` between creating the directory and
    /// claiming its lease. The keeper sweep must not claim these: it
    /// would depose its own in-flight `open`, which shares its fate
    /// anyway. Registered before the directory exists, removed when the
    /// open completes, so any directory a sweep can see mid-open is in
    /// here.
    opening: Mutex<std::collections::HashSet<PathBuf>>,
    /// Set by an (operator-enabled) `shutdown` request; the server
    /// binary waits on this and then drains gracefully.
    shutdown_flag: Mutex<bool>,
    shutdown_ready: Condvar,
    /// Network-layer counters, updated by the network runtime.
    net: Arc<NetCounters>,
}

/// Removes a path from [`Service::opening`] when the `open` that
/// registered it returns (on every path, including errors).
struct OpeningGuard<'a> {
    set: &'a Mutex<std::collections::HashSet<PathBuf>>,
    path: PathBuf,
}

impl<'a> OpeningGuard<'a> {
    fn new(set: &'a Mutex<std::collections::HashSet<PathBuf>>, path: PathBuf) -> Self {
        set.lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(path.clone());
        OpeningGuard { set, path }
    }
}

impl Drop for OpeningGuard<'_> {
    fn drop(&mut self) {
        self.set
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&self.path);
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WsKey {
    tenant: String,
    workspace: String,
}

impl Service {
    /// A fresh service. With a `data_dir` configured, this opens (or
    /// creates) the durable store and recovers every workspace found
    /// under `data_dir/workspaces` from its snapshot and journal; any
    /// damaged artifact degrades to "not recovered", never to a wrong
    /// answer or a panic.
    #[must_use]
    pub fn new(config: ServerConfig) -> Service {
        let mut service = Service {
            config,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            store: None,
            recovery: Mutex::new(RecoveryReport::default()),
            durability_failures: AtomicU64::new(0),
            leases_taken_over: AtomicU64::new(0),
            read_only_rejections: AtomicU64::new(0),
            opening: Mutex::new(std::collections::HashSet::new()),
            shutdown_flag: Mutex::new(false),
            shutdown_ready: Condvar::new(),
            net: Arc::new(NetCounters::default()),
        };
        if let Some(data_dir) = service.config.data_dir.clone() {
            let limits = StoreLimits { max_bytes: service.config.store_max_bytes };
            match service.config.store_mode {
                StoreMode::Leader => {
                    match DiskStore::open_real(&data_dir.join("store"), limits) {
                        Ok(store) => service.store = Some(Arc::new(Mutex::new(store))),
                        Err(e) => {
                            eprintln!(
                                "car-server: cannot open store under {}: {e}; running without one",
                                data_dir.display()
                            );
                        }
                    }
                }
                StoreMode::Follower => {
                    // A follower's store never writes, sweeps, or
                    // evicts; opening it cannot fail.
                    service.store = Some(Arc::new(Mutex::new(DiskStore::open_read_only(
                        &data_dir.join("store"),
                        limits,
                        Disk::real(),
                    ))));
                }
            }
            let report = service.recover_workspaces(&data_dir);
            *service.recovery.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                report;
        }
        service
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared network-layer counters (updated by the net runtime,
    /// surfaced by `health`/`stats`).
    #[must_use]
    pub fn net_counters(&self) -> &Arc<NetCounters> {
        &self.net
    }

    /// Decodes and dispatches one raw frame, always producing exactly
    /// one response line. This is the full protocol boundary — UTF-8
    /// check, JSON parse, request parse, dispatch — independent of the
    /// network runtime, so in-process callers run ops identically.
    #[must_use]
    pub fn execute_frame(&self, raw: &[u8]) -> String {
        let text = match std::str::from_utf8(raw) {
            Ok(t) => t,
            Err(e) => {
                let mut err = WireError::new("bad_json", "frame is not valid UTF-8");
                err.offset = Some(e.valid_up_to());
                return err_response(None, &err);
            }
        };
        let frame = match crate::json::parse(text) {
            Ok(f) => f,
            Err(e) => {
                let mut err = WireError::new("bad_json", e.message);
                err.offset = Some(e.offset);
                return err_response(None, &err);
            }
        };
        let (envelope, request) = parse_request(&frame);
        match request {
            Ok(req) => self.handle(&envelope, req),
            Err(e) => err_response(envelope.id, &e),
        }
    }

    /// What recovery found so far: the startup scan plus every keeper
    /// takeover since (all zeroes without a data dir).
    #[must_use]
    pub fn recovery_report(&self) -> RecoveryReport {
        *self.recovery.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Expired leases this process has taken over.
    #[must_use]
    pub fn leases_taken_over(&self) -> u64 {
        self.leases_taken_over.load(Ordering::Relaxed)
    }

    /// Edit requests refused because this server is a follower.
    #[must_use]
    pub fn read_only_rejections(&self) -> u64 {
        self.read_only_rejections.load(Ordering::Relaxed)
    }

    /// Snapshot/journal writes that failed so far.
    #[must_use]
    pub fn durability_failures(&self) -> u64 {
        self.durability_failures.load(Ordering::Relaxed)
    }

    /// `true` once a `shutdown` request was accepted.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        *self.shutdown_flag.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until a `shutdown` request is accepted.
    pub fn wait_shutdown(&self) {
        let mut flag =
            self.shutdown_flag.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*flag {
            flag = self
                .shutdown_ready
                .wait(flag)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn request_shutdown(&self) {
        *self.shutdown_flag.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.shutdown_ready.notify_all();
    }

    /// The reasoning configuration every workspace runs under.
    fn reasoner_config(&self) -> ReasonerConfig {
        ReasonerConfig {
            threads: self.config.threads,
            budget: self.config.quota.budget(),
            ..ReasonerConfig::default()
        }
    }

    /// The durable home of one workspace. Tenant and workspace are
    /// free-form wire input, so each is escaped into a traversal-free
    /// path segment ([`codec::esc_path`] escapes separators and leading
    /// dots); the segments are re-checked here as a second line of
    /// defense in front of `create` and `remove_dir_all`.
    fn workspace_dir_path(&self, tenant: &str, workspace: &str) -> Option<PathBuf> {
        fn safe(seg: &str) -> bool {
            !seg.is_empty() && seg != "." && seg != ".." && !seg.contains(['/', '\\'])
        }
        let root = self.config.data_dir.as_ref()?.join("workspaces");
        let (tenant, workspace) = (codec::esc_path(tenant), codec::esc_path(workspace));
        (safe(&tenant) && safe(&workspace)).then(|| root.join(tenant).join(workspace))
    }

    /// Scans `data_dir/workspaces` and rebuilds every recoverable
    /// workspace: snapshot state, then replay of the journal's verified
    /// prefix through the normal [`Workspace`] edit path. A leader only
    /// adopts directories whose lease it can claim; a follower restores
    /// everything read-only.
    fn recover_workspaces(&self, data_dir: &Path) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        for path in workspace_dirs(data_dir) {
            match self.config.store_mode {
                StoreMode::Leader => match Lease::acquire(&path, LEASE_LABEL, &Disk::real())
                {
                    Ok(Acquire::Acquired(lease)) => {
                        self.adopt_leased_dir(&path, lease, &mut report);
                    }
                    Ok(Acquire::Held(_)) => report.dirs_lease_held += 1,
                    Err(_) => report.dirs_skipped += 1,
                },
                StoreMode::Follower => self.follower_restore(&path, &mut report),
            }
        }
        report
    }

    /// Replays recovered journal operations through the normal edit
    /// path, updating `report`.
    fn replay_ops(
        &self,
        ws: &mut Workspace,
        ops: &[JournalOp],
        report: &mut RecoveryReport,
    ) {
        for op in ops {
            let ok = match op {
                JournalOp::Apply(delta) => ws.apply(delta).is_ok(),
                JournalOp::Undo => {
                    ws.undo();
                    true
                }
                JournalOp::Redo => {
                    ws.redo();
                    true
                }
            };
            if !ok {
                report.replay_failures += 1;
                break;
            }
            report.ops_replayed += 1;
        }
    }

    /// Recovers one workspace directory under an already-acquired
    /// lease: fences every prior writer's epoch, replays, writes the
    /// fencing snapshot, and registers the entry (which now owns the
    /// lease). Returns `false` when the directory had no usable
    /// snapshot (the lease is released so a fresh `open` can claim it).
    fn adopt_leased_dir(
        &self,
        path: &Path,
        mut lease: Lease,
        report: &mut RecoveryReport,
    ) -> bool {
        let Some(rec) = WorkspaceDir::recover(path, Disk::real()) else {
            report.dirs_skipped += 1;
            let _ = lease.release();
            return false;
        };
        // Fence all prior writers: the claim's epoch must exceed every
        // epoch already in the history. If that cannot be guaranteed
        // (I/O error and a non-dominating epoch), serving this
        // directory could let two writers interleave — leave it for a
        // later sweep instead.
        if lease.ensure_epoch_above(rec.epoch).is_err() && lease.epoch() <= rec.epoch {
            report.dirs_skipped += 1;
            let _ = lease.release();
            return false;
        }
        let mut dir = rec.dir;
        dir.set_epoch(lease.epoch());
        let mut ws = Workspace::restore(
            rec.schema,
            rec.undo,
            rec.redo,
            self.reasoner_config(),
            self.config.quota.workspace_limits,
        );
        if let Some(store) = &self.store {
            ws.set_store(Arc::clone(store));
        }
        self.replay_ops(&mut ws, &rec.ops, report);
        report.truncated_tails += u64::from(rec.truncated_tail);
        report.fenced_records_rejected += rec.fenced_records;
        report.workspaces_recovered += 1;
        // The fencing snapshot: stamped with the new epoch, it closes
        // the history to every earlier writer *before* this entry
        // serves anything. Recovery rejects any record whose epoch is
        // below its snapshot's, so a paused zombie's later appends die
        // at the next replay. If the snapshot cannot be written, this
        // writer must not append at the new epoch either (its records
        // would be discarded as a damaged tail) — detach and serve
        // memory-only.
        if dir
            .save_snapshot(&rec.tenant, &rec.workspace, ws.schema(), ws.undo_stack(), ws.redo_stack())
            .is_err()
        {
            self.durability_failures.fetch_add(1, Ordering::Relaxed);
            dir.detach();
        }
        let key = WsKey { tenant: rec.tenant.clone(), workspace: rec.workspace.clone() };
        let entry = Arc::new(WsEntry {
            tenant: rec.tenant,
            name: rec.workspace,
            ws: Mutex::new(ws),
            queue: Mutex::new(BatchQueue { pending: Vec::new(), draining: false }),
            version: AtomicU64::new(rec.ops.len() as u64),
            dir: Some(Mutex::new(dir)),
            lease: Mutex::new(Some(lease)),
            fenced: AtomicBool::new(false),
            freshness: None,
        });
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, entry);
        true
    }

    /// Restores one workspace directory read-only (no lease, no
    /// writes): the follower serves whatever verified prefix is on disk
    /// and refreshes when the fingerprint moves.
    fn follower_restore(&self, path: &Path, report: &mut RecoveryReport) {
        // Fingerprint *before* reading: if the leader writes mid-
        // restore, the stored fingerprint no longer matches the files
        // and the next query refreshes again.
        let fp = follower_fingerprint(path);
        let Some(rec) = WorkspaceDir::recover(path, Disk::real()) else {
            report.dirs_skipped += 1;
            return;
        };
        let mut ws = Workspace::restore(
            rec.schema,
            rec.undo,
            rec.redo,
            self.reasoner_config(),
            self.config.quota.workspace_limits,
        );
        if let Some(store) = &self.store {
            ws.set_store(Arc::clone(store));
        }
        self.replay_ops(&mut ws, &rec.ops, report);
        report.truncated_tails += u64::from(rec.truncated_tail);
        report.fenced_records_rejected += rec.fenced_records;
        report.workspaces_recovered += 1;
        let key = WsKey { tenant: rec.tenant.clone(), workspace: rec.workspace.clone() };
        let entry = Arc::new(WsEntry {
            tenant: rec.tenant,
            name: rec.workspace,
            ws: Mutex::new(ws),
            queue: Mutex::new(BatchQueue { pending: Vec::new(), draining: false }),
            version: AtomicU64::new(rec.ops.len() as u64),
            dir: None,
            lease: Mutex::new(None),
            fenced: AtomicBool::new(false),
            freshness: Some(Mutex::new(fp)),
        });
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, entry);
    }

    /// Snapshots every workspace (compacting its journal). Returns how
    /// many snapshots were written; failures bump
    /// [`Self::durability_failures`] and leave prior snapshots intact.
    pub fn snapshot_all(&self) -> u64 {
        let mut written = 0;
        for shard in &self.shards {
            let entries: Vec<Arc<WsEntry>> = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .values()
                .cloned()
                .collect();
            for entry in entries {
                let ws = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if self.snapshot_entry(&entry, &ws) {
                    written += 1;
                }
            }
        }
        written
    }

    /// Checks the entry's claim on its durable home before a write.
    /// `Ok(())` means proceed (which includes "no lease to check" and
    /// "could not read the lease" — the latter is a durability problem,
    /// not a deposition). `Err(())` means the entry is fenced: a
    /// successor owns the history now, the dir has been detached, and
    /// nothing may be written or acknowledged as durable.
    ///
    /// This check is the polite fast path; the hard guarantee is epoch
    /// isolation on disk — snapshots and journals are named by fencing
    /// epoch, so any write that slips through the
    /// pause-between-check-and-write window lands in this writer's own
    /// stale-epoch files and recovery prefers the successor's.
    fn check_lease(&self, entry: &WsEntry) -> Result<(), ()> {
        if entry.fenced.load(Ordering::Relaxed) {
            return Err(());
        }
        let mut guard =
            entry.lease.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(lease) = guard.as_ref() else { return Ok(()) };
        match lease.validate() {
            Ok(true) => Ok(()),
            Ok(false) => {
                // Deposed. Drop the handle (the file belongs to the
                // successor) and stop every future write up front.
                entry.fenced.store(true, Ordering::Relaxed);
                *guard = None;
                drop(guard);
                if let Some(dir) = &entry.dir {
                    dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner).detach();
                }
                Err(())
            }
            Err(_) => {
                // Cannot tell (I/O error reading our own lease). Treat
                // as a durability failure and skip the write, but keep
                // the claim: the keeper's next renew settles it.
                self.durability_failures.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Writes one workspace's snapshot (caller holds the ws lock).
    /// Returns `false` when the entry has no durable home, lost its
    /// lease, or the write failed.
    fn snapshot_entry(&self, entry: &WsEntry, ws: &Workspace) -> bool {
        let Some(dir) = &entry.dir else { return false };
        if self.check_lease(entry).is_err() {
            return false;
        }
        let mut dir = dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let saved = dir
            .save_snapshot(
                &entry.tenant,
                &entry.name,
                ws.schema(),
                ws.undo_stack(),
                ws.redo_stack(),
            )
            .is_ok();
        if !saved {
            self.durability_failures.fetch_add(1, Ordering::Relaxed);
        }
        saved
    }

    /// Journals one operation on a workspace (caller holds the ws
    /// lock), compacting when the journal has grown enough. Append
    /// failures only cost durability; returns `false` only when the
    /// entry is *fenced* — a successor holds the lease, so the edit
    /// must not be acknowledged (the caller rolls it back).
    fn journal_op(&self, entry: &WsEntry, ws: &Workspace, op: &JournalOp) -> bool {
        let Some(dir) = &entry.dir else { return true };
        if self.check_lease(entry).is_err() {
            return false;
        }
        let needs_compaction = {
            let mut dir = dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if dir.append_op(op).is_err() {
                self.durability_failures.fetch_add(1, Ordering::Relaxed);
            }
            dir.ops_since_snapshot() >= COMPACT_AFTER_OPS
        };
        if needs_compaction {
            self.snapshot_entry(entry, ws);
        }
        true
    }

    fn shard(&self, key: &WsKey) -> &Mutex<HashMap<WsKey, Arc<WsEntry>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn lookup(&self, tenant: &str, workspace: &str) -> Result<Arc<WsEntry>, WireError> {
        let key = WsKey { tenant: tenant.to_owned(), workspace: workspace.to_owned() };
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned()
            .ok_or_else(|| {
                WireError::new("unknown_workspace", format!("no workspace '{workspace}'"))
            })
    }

    /// Looks a workspace up for a *read* path. A follower hit is
    /// refreshed when the on-disk fingerprint moved; a follower miss
    /// additionally tries a lazy load from disk (the leader may have
    /// created the workspace after our startup scan).
    fn lookup_fresh(&self, tenant: &str, workspace: &str) -> Result<Arc<WsEntry>, WireError> {
        match self.lookup(tenant, workspace) {
            Ok(entry) => {
                self.refresh_follower(&entry);
                Ok(entry)
            }
            Err(e) => {
                if self.config.store_mode == StoreMode::Follower {
                    if let Some(entry) = self.follower_load(tenant, workspace) {
                        return Ok(entry);
                    }
                }
                Err(e)
            }
        }
    }

    /// Rebuilds a follower entry from disk when its staleness
    /// fingerprint moved. Serving continues from the old state if the
    /// directory is currently unrecoverable (mid-rewrite); the next
    /// query tries again. No-op outside follower mode.
    fn refresh_follower(&self, entry: &Arc<WsEntry>) {
        let Some(freshness) = &entry.freshness else { return };
        let Some(path) = self.workspace_dir_path(&entry.tenant, &entry.name) else {
            return;
        };
        let before = follower_fingerprint(&path);
        {
            let seen =
                freshness.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // An odd generation means a compaction is in flight — the
            // seqlock's write marker — so even a matching fingerprint
            // must be re-checked next time.
            if *seen == before && before.0.is_multiple_of(2) {
                return;
            }
        }
        let Some(rec) = WorkspaceDir::recover(&path, Disk::real()) else { return };
        let mut ws = Workspace::restore(
            rec.schema,
            rec.undo,
            rec.redo,
            self.reasoner_config(),
            self.config.quota.workspace_limits,
        );
        if let Some(store) = &self.store {
            ws.set_store(Arc::clone(store));
        }
        let mut scratch = RecoveryReport::default();
        self.replay_ops(&mut ws, &rec.ops, &mut scratch);
        // Store the *pre-read* fingerprint: anything the leader wrote
        // while we were rebuilding makes the next query mismatch and
        // refresh again. A mid-compaction read can never stick.
        let stamp =
            if before.0.is_multiple_of(2) { before } else { (u64::MAX, u64::MAX) };
        let mut guard = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = ws;
        entry.version.store(rec.ops.len() as u64, Ordering::Relaxed);
        drop(guard);
        *freshness.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = stamp;
    }

    /// Loads a workspace a follower has never seen from disk, if its
    /// directory exists and recovers. Returns the registered entry.
    fn follower_load(&self, tenant: &str, workspace: &str) -> Option<Arc<WsEntry>> {
        let path = self.workspace_dir_path(tenant, workspace)?;
        let mut report = RecoveryReport::default();
        self.follower_restore(&path, &mut report);
        if report.workspaces_recovered > 0 {
            self.recovery
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .absorb(&report);
        }
        self.lookup(tenant, workspace).ok()
    }

    fn tenant_workspace_count(&self, tenant: &str) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .keys()
                    .filter(|k| k.tenant == tenant)
                    .count()
            })
            .sum()
    }

    /// Handles one parsed request and produces the full response line.
    /// Never panics on any input; errors come back as error responses.
    #[must_use]
    pub fn handle(&self, envelope: &Envelope, request: Request) -> String {
        let id = envelope.id;
        if self.config.store_mode == StoreMode::Follower
            && matches!(
                request,
                Request::Open { .. }
                    | Request::Close { .. }
                    | Request::Apply { .. }
                    | Request::Undo { .. }
                    | Request::Redo { .. }
            )
        {
            self.read_only_rejections.fetch_add(1, Ordering::Relaxed);
            return crate::protocol::err_response(
                id,
                &WireError::new(
                    "read_only",
                    "this server is a read-only follower; send edits to the leader",
                ),
            );
        }
        match request {
            Request::Ping => ok_response(id, vec![("pong", Json::Bool(true))]),
            Request::Health => self.health(envelope),
            Request::Open { workspace, schema, replace } => {
                self.open(envelope, &workspace, &schema, replace)
            }
            Request::Close { workspace } => self.close(envelope, &workspace),
            Request::Apply { workspace, deltas } => {
                self.apply(envelope, &workspace, &deltas)
            }
            Request::Undo { workspace } => self.undo_redo(envelope, &workspace, true),
            Request::Redo { workspace } => self.undo_redo(envelope, &workspace, false),
            Request::Query { workspace, queries } => {
                self.query(envelope, &workspace, queries)
            }
            Request::Stats { workspace } => self.stats(envelope, &workspace),
            Request::List => self.list(envelope),
            Request::Shutdown => {
                if !self.config.allow_remote_shutdown {
                    return crate::protocol::err_response(
                        id,
                        &WireError::new(
                            "forbidden",
                            "shutdown is disabled (start with --allow-remote-shutdown)",
                        ),
                    );
                }
                self.request_shutdown();
                ok_response(id, vec![("shutting_down", Json::Bool(true))])
            }
        }
    }

    fn open(
        &self,
        envelope: &Envelope,
        workspace: &str,
        schema_text: &str,
        replace: bool,
    ) -> String {
        let id = envelope.id;
        let schema = match parse_schema(schema_text) {
            Ok(s) => s,
            Err(e) => return crate::protocol::err_response(id, &WireError::from(&e)),
        };
        let num_classes = schema.num_classes();
        let mut ws = Workspace::with_limits(
            schema,
            self.reasoner_config(),
            self.config.quota.workspace_limits,
        );
        if let Some(store) = &self.store {
            ws.set_store(Arc::clone(store));
        }
        let key =
            WsKey { tenant: envelope.tenant.clone(), workspace: workspace.to_owned() };

        // Count before inserting so the cap is enforced even for the
        // insert that would exceed it. Races between two concurrent
        // opens of *different* names can overshoot by one; the cap is a
        // resource guard, not an accounting invariant.
        let previous = self.lookup(&envelope.tenant, workspace).ok();
        let existing = previous.is_some();
        if !existing && self.tenant_workspace_count(&envelope.tenant)
            >= self.config.quota.max_workspaces
        {
            return crate::protocol::err_response(
                id,
                &WireError::new(
                    "quota",
                    format!(
                        "tenant '{}' already has {} workspaces open",
                        envelope.tenant, self.config.quota.max_workspaces
                    ),
                ),
            );
        }
        if existing && !replace {
            return crate::protocol::err_response(
                id,
                &WireError::new(
                    "workspace_exists",
                    format!("workspace '{workspace}' already exists (pass \"replace\":true)"),
                ),
            );
        }

        // Retire the replaced entry's durable writer *before* creating
        // the new one at the same path: an in-flight request that
        // looked the old entry up can still hold it, and its journal
        // appends (and torn-tail truncations) must never interleave
        // with the new writer's. Taking the old dir lock serializes
        // with any append in flight right now; the detach flag stops
        // every later one. Its lease is released too, so the new writer
        // can claim the directory.
        if let Some(old) = &previous {
            if let Some(old_dir) = &old.dir {
                old_dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner).detach();
            }
            let old_lease = old
                .lease
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(lease) = old_lease {
                let _ = lease.release();
            }
        }

        // Give the workspace its durable home and snapshot immediately,
        // so a crash right after `open` recovers it. The directory must
        // be claimed before anything is written into it: opening a
        // workspace another live process owns fails with `lease_held`
        // rather than forking the history. Other failures leave the
        // workspace memory-only for its lifetime.
        let mut new_lease: Option<Lease> = None;
        let mut lease_held = false;
        // Shield the directory from this process's own keeper sweep for
        // the create→claim window: registered before the directory
        // exists, dropped once the open holds (or failed to hold) the
        // lease and registered the entry.
        let path = self.workspace_dir_path(&envelope.tenant, workspace);
        let _opening = path.clone().map(|p| OpeningGuard::new(&self.opening, p));
        let dir = path.and_then(|path| {
            let mut dir = match WorkspaceDir::create(&path, Disk::real()) {
                Ok(d) => d,
                Err(_) => {
                    self.durability_failures.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
            match Lease::acquire(&path, LEASE_LABEL, &Disk::real()) {
                Ok(Acquire::Acquired(mut lease)) => {
                    // The epoch must strictly exceed every epoch already
                    // on disk before anything is written: file names
                    // embed the epoch, and a reused epoch would let two
                    // writers share a file. If the raise fails and the
                    // claim is not already above, serve memory-only.
                    if lease.ensure_epoch_above(dir.epoch()).is_err()
                        && lease.epoch() <= dir.epoch()
                    {
                        self.durability_failures.fetch_add(1, Ordering::Relaxed);
                        let _ = lease.release();
                        return None;
                    }
                    dir.set_epoch(lease.epoch());
                    new_lease = Some(lease);
                }
                Ok(Acquire::Held(_)) => {
                    lease_held = true;
                    return None;
                }
                Err(_) => {
                    self.durability_failures.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            if dir
                .save_snapshot(&envelope.tenant, workspace, ws.schema(), &[], &[])
                .is_err()
            {
                self.durability_failures.fetch_add(1, Ordering::Relaxed);
            }
            Some(Mutex::new(dir))
        });
        if lease_held {
            return crate::protocol::err_response(
                id,
                &WireError::new(
                    "lease_held",
                    format!(
                        "another live process holds the lease on workspace '{workspace}'"
                    ),
                ),
            );
        }
        let entry = Arc::new(WsEntry {
            tenant: envelope.tenant.clone(),
            name: workspace.to_owned(),
            ws: Mutex::new(ws),
            queue: Mutex::new(BatchQueue { pending: Vec::new(), draining: false }),
            version: AtomicU64::new(0),
            dir,
            lease: Mutex::new(new_lease),
            fenced: AtomicBool::new(false),
            freshness: None,
        });
        self.shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, entry);
        ok_response(
            id,
            vec![
                ("workspace", s(workspace)),
                ("classes", Json::UInt(num_classes as u64)),
                ("replaced", Json::Bool(existing)),
            ],
        )
    }

    fn close(&self, envelope: &Envelope, workspace: &str) -> String {
        let key =
            WsKey { tenant: envelope.tenant.clone(), workspace: workspace.to_owned() };
        let removed = self
            .shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&key);
        if let Some(entry) = removed {
            // A closed workspace is gone for good; its durable state
            // must not resurrect it on the next restart. Detach the
            // writer first so an in-flight request still holding the
            // entry cannot recreate files after the deletion.
            if let Some(dir) = &entry.dir {
                dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner).detach();
            }
            // Release before deleting: the release deregisters the
            // in-process nonce so the name can be re-claimed instantly.
            let lease = entry
                .lease
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(lease) = lease {
                let _ = lease.release();
            }
            if let Some(path) = self.workspace_dir_path(&envelope.tenant, workspace) {
                let _ = std::fs::remove_dir_all(path);
            }
            ok_response(envelope.id, vec![("closed", s(workspace))])
        } else {
            crate::protocol::err_response(
                envelope.id,
                &WireError::new("unknown_workspace", format!("no workspace '{workspace}'")),
            )
        }
    }

    fn apply(
        &self,
        envelope: &Envelope,
        workspace: &str,
        deltas: &[crate::protocol::WireDelta],
    ) -> String {
        let entry = match self.lookup(&envelope.tenant, workspace) {
            Ok(e) => e,
            Err(e) => return crate::protocol::err_response(envelope.id, &e),
        };
        let mut ws = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut applied: u64 = 0;
        for delta in deltas {
            // Resolve against the *current* schema so a delta may refer
            // to classes introduced earlier in this same request.
            let resolved = match delta.resolve(ws.schema()) {
                Ok(d) => d,
                Err(e) => {
                    return self.partial_apply_response(envelope.id, applied, &entry, &e);
                }
            };
            if let Err(e) = ws.apply(&resolved) {
                return self.partial_apply_response(
                    envelope.id,
                    applied,
                    &entry,
                    &WireError::from(&e),
                );
            }
            // Journal only what actually applied; a crash replays
            // exactly this sequence through the same edit path.
            if !self.journal_op(&entry, &ws, &JournalOp::Apply(resolved)) {
                // Fenced: a successor owns the durable history, so this
                // edit can never be made durable. Roll the in-memory
                // state back and refuse rather than acknowledge an edit
                // that a recovery would not have.
                ws.undo();
                return self.partial_apply_response(
                    envelope.id,
                    applied,
                    &entry,
                    &WireError::new(
                        "lease_lost",
                        "another process took over this workspace's lease; edits are refused",
                    ),
                );
            }
            applied += 1;
        }
        let version = if applied > 0 {
            entry.version.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            entry.version.load(Ordering::Relaxed)
        };
        ok_response(
            envelope.id,
            vec![("applied", Json::UInt(applied)), ("version", Json::UInt(version))],
        )
    }

    /// An apply that failed midway still reports how many deltas were
    /// applied (they remain applied; the request is not transactional —
    /// clients can `undo` them).
    fn partial_apply_response(
        &self,
        id: Option<u64>,
        applied: u64,
        entry: &WsEntry,
        error: &WireError,
    ) -> String {
        let version = if applied > 0 {
            entry.version.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            entry.version.load(Ordering::Relaxed)
        };
        crate::json::to_string(&obj(vec![
            ("id", match id {
                Some(n) => Json::UInt(n),
                None => Json::Null,
            }),
            ("ok", Json::Bool(false)),
            ("applied", Json::UInt(applied)),
            ("version", Json::UInt(version)),
            ("error", error.to_json()),
        ])) + "\n"
    }

    fn undo_redo(&self, envelope: &Envelope, workspace: &str, undo: bool) -> String {
        let entry = match self.lookup(&envelope.tenant, workspace) {
            Ok(e) => e,
            Err(e) => return crate::protocol::err_response(envelope.id, &e),
        };
        let mut ws = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let moved = if undo { ws.undo() } else { ws.redo() };
        if moved
            && !self.journal_op(
                &entry,
                &ws,
                if undo { &JournalOp::Undo } else { &JournalOp::Redo },
            )
        {
            // Fenced: invert the in-memory move and refuse the edit.
            if undo {
                ws.redo();
            } else {
                ws.undo();
            }
            drop(ws);
            return crate::protocol::err_response(
                envelope.id,
                &WireError::new(
                    "lease_lost",
                    "another process took over this workspace's lease; edits are refused",
                ),
            );
        }
        // Bump while still holding the workspace lock (mirroring
        // `apply`), so the reported version corresponds to the state
        // this operation produced even under concurrent edits.
        let version = if moved {
            entry.version.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            entry.version.load(Ordering::Relaxed)
        };
        drop(ws);
        ok_response(
            envelope.id,
            vec![("moved", Json::Bool(moved)), ("version", Json::UInt(version))],
        )
    }

    fn stats(&self, envelope: &Envelope, workspace: &str) -> String {
        let entry = match self.lookup_fresh(&envelope.tenant, workspace) {
            Ok(e) => e,
            Err(e) => return crate::protocol::err_response(envelope.id, &e),
        };
        let ws = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let stats = ws.stats();
        let classes = ws.schema().num_classes();
        drop(ws);
        let journal_ops = entry.dir.as_ref().map(|dir| {
            dir.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .ops_since_snapshot()
        });
        let mut fields = vec![
            ("version", Json::UInt(entry.version.load(Ordering::Relaxed))),
            ("classes", Json::UInt(classes as u64)),
            ("bundle_hits", Json::UInt(stats.bundle_hits)),
            ("bundle_misses", Json::UInt(stats.bundle_misses)),
            ("clusters_reused", Json::UInt(stats.clusters_reused)),
            ("clusters_rebuilt", Json::UInt(stats.clusters_rebuilt)),
            ("edits_applied", Json::UInt(stats.edits_applied)),
            ("disk_cluster_hits", Json::UInt(stats.disk_cluster_hits)),
            ("disk_ccs_hits", Json::UInt(stats.disk_ccs_hits)),
            ("disk_writes", Json::UInt(stats.disk_writes)),
            ("disk_write_failures", Json::UInt(stats.disk_write_failures)),
            ("net_conns_open", Json::UInt(self.net.conns_open.load(Ordering::Relaxed))),
            (
                "net_backpressure_stalls",
                Json::UInt(self.net.backpressure_stalls.load(Ordering::Relaxed)),
            ),
        ];
        if let Some(ops) = journal_ops {
            fields.push(("journal_ops_since_snapshot", Json::UInt(ops)));
        }
        if let Some(effective) = stats.effective_strategy {
            fields.push(("effective_strategy", Json::Str(format!("{effective:?}"))));
        }
        ok_response(envelope.id, fields)
    }

    fn list(&self, envelope: &Envelope) -> String {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .keys()
                    .filter(|k| k.tenant == envelope.tenant)
                    .map(|k| k.workspace.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        ok_response(
            envelope.id,
            vec![("workspaces", Json::Arr(names.into_iter().map(Json::Str).collect()))],
        )
    }

    /// The `health` op: role, per-workspace lease state (this tenant's
    /// workspaces only), recovery counters, and durability counters.
    fn health(&self, envelope: &Envelope) -> String {
        let role = match self.config.store_mode {
            StoreMode::Leader => "leader",
            StoreMode::Follower => "follower",
        };
        let mut entries: Vec<Arc<WsEntry>> = self
            .all_entries()
            .into_iter()
            .filter(|e| e.tenant == envelope.tenant)
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let workspaces: Vec<Json> = entries
            .iter()
            .map(|e| {
                let epoch = e
                    .lease
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .as_ref()
                    .map_or(0, Lease::epoch);
                let mut fields = vec![
                    ("workspace", s(&e.name)),
                    ("lease_epoch", Json::UInt(epoch)),
                    ("fenced", Json::Bool(e.fenced.load(Ordering::Relaxed))),
                ];
                // try_lock: health must answer even while a drain holds
                // a workspace lock; the strategy is then just omitted.
                if let Ok(ws) = e.ws.try_lock() {
                    if let Some(effective) = ws.stats().effective_strategy {
                        fields
                            .push(("effective_strategy", Json::Str(format!("{effective:?}"))));
                    }
                }
                obj(fields)
            })
            .collect();
        let r = self.recovery_report();
        ok_response(
            envelope.id,
            vec![
                ("role", s(role)),
                ("workspaces", Json::Arr(workspaces)),
                (
                    "recovery",
                    obj(vec![
                        ("workspaces_recovered", Json::UInt(r.workspaces_recovered)),
                        ("ops_replayed", Json::UInt(r.ops_replayed)),
                        ("truncated_tails", Json::UInt(r.truncated_tails)),
                        ("dirs_skipped", Json::UInt(r.dirs_skipped)),
                        ("replay_failures", Json::UInt(r.replay_failures)),
                        ("fenced_records_rejected", Json::UInt(r.fenced_records_rejected)),
                        ("dirs_lease_held", Json::UInt(r.dirs_lease_held)),
                    ]),
                ),
                ("durability_failures", Json::UInt(self.durability_failures())),
                ("leases_taken_over", Json::UInt(self.leases_taken_over())),
                ("read_only_rejections", Json::UInt(self.read_only_rejections())),
                ("net", self.net_json()),
            ],
        )
    }

    /// The `health` response's `net` object: worker-pool size and every
    /// [`NetCounters`] field. Lets the fleet sweeps observe the network
    /// runtime (open connections, backpressure stalls, wakeups) through
    /// the same ops they already poll.
    fn net_json(&self) -> Json {
        let n = &self.net;
        obj(vec![
            ("workers", Json::UInt(self.config.net_workers.get() as u64)),
            ("conns_accepted", Json::UInt(n.conns_accepted.load(Ordering::Relaxed))),
            ("conns_open", Json::UInt(n.conns_open.load(Ordering::Relaxed))),
            ("frames_decoded", Json::UInt(n.frames_decoded.load(Ordering::Relaxed))),
            ("frames_oversized", Json::UInt(n.frames_oversized.load(Ordering::Relaxed))),
            (
                "backpressure_stalls",
                Json::UInt(n.backpressure_stalls.load(Ordering::Relaxed)),
            ),
            (
                "write_buffer_disconnects",
                Json::UInt(n.write_buffer_disconnects.load(Ordering::Relaxed)),
            ),
            ("wakeups", Json::UInt(n.wakeups.load(Ordering::Relaxed))),
        ])
    }

    // -----------------------------------------------------------------
    // Fleet keeping: heartbeats, takeover sweeps, lease lifecycle
    // -----------------------------------------------------------------

    /// Every registered workspace entry, across all tenants.
    fn all_entries(&self) -> Vec<Arc<WsEntry>> {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .values()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Renews every held lease (the keeper's heartbeat). An entry whose
    /// claim turns out gone is fenced: its writer detaches and all
    /// later edits are refused.
    pub fn renew_leases(&self) {
        for entry in self.all_entries() {
            let mut guard =
                entry.lease.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(lease) = guard.as_mut() else { continue };
            match lease.renew() {
                Ok(true) => {}
                Ok(false) => {
                    entry.fenced.store(true, Ordering::Relaxed);
                    *guard = None;
                    drop(guard);
                    if let Some(dir) = &entry.dir {
                        dir.lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .detach();
                    }
                }
                Err(_) => {
                    self.durability_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// One keeper sweep over the shared data dir (leader only): adopts
    /// workspace directories this process does not hold — unclaimed
    /// ones immediately, abandoned ones once their lease expires.
    /// `watches` carries expiry observations between sweeps. Returns
    /// how many directories were adopted this sweep.
    pub fn sweep_leases(&self, watches: &mut HashMap<PathBuf, LeaseWatch>) -> u64 {
        if self.config.store_mode != StoreMode::Leader {
            return 0;
        }
        let Some(data_dir) = self.config.data_dir.clone() else { return 0 };
        let ttl = self.config.lease_ttl;
        let disk = Disk::real();
        let held: std::collections::HashSet<PathBuf> = self
            .all_entries()
            .iter()
            .filter(|e| {
                e.lease
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .is_some()
            })
            .filter_map(|e| self.workspace_dir_path(&e.tenant, &e.name))
            .collect();
        let mut adopted = 0;
        for path in workspace_dirs(&data_dir) {
            if held.contains(&path) {
                // An earlier sweep may have started watching this dir
                // before its open finished; the claim is live now.
                watches.remove(&path);
                continue;
            }
            // Checked per-path, after the directory scan: an `open`
            // registers the path before creating the directory, so any
            // directory this scan saw mid-open is already registered.
            if self
                .opening
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .contains(&path)
            {
                continue;
            }
            let acquired = match watches.get_mut(&path) {
                None => match Lease::acquire(&path, LEASE_LABEL, &disk) {
                    Ok(Acquire::Acquired(lease)) => Some(lease),
                    Ok(Acquire::Held(info)) => {
                        watches.insert(path.clone(), LeaseWatch::new(info));
                        None
                    }
                    Err(_) => None,
                },
                Some(watch) => match watch.expired(&path, &disk, ttl) {
                    Ok(true) => {
                        let observed = watch.info().clone();
                        match Lease::take_over(&path, LEASE_LABEL, &disk, &observed) {
                            Ok(Acquire::Acquired(lease)) => {
                                watches.remove(&path);
                                Some(lease)
                            }
                            Ok(Acquire::Held(info)) => {
                                *watch = LeaseWatch::new(info);
                                None
                            }
                            Err(_) => None,
                        }
                    }
                    _ => None,
                },
            };
            if let Some(lease) = acquired {
                let mut report = RecoveryReport::default();
                if self.adopt_leased_dir(&path, lease, &mut report) {
                    adopted += 1;
                    self.leases_taken_over.fetch_add(1, Ordering::Relaxed);
                }
                self.recovery
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .absorb(&report);
            }
        }
        // Directories that vanished (closed workspaces) need no watch.
        watches.retain(|path, _| path.exists());
        adopted
    }

    /// Releases every held lease — the graceful exit. The lease files
    /// are removed, so a successor claims each workspace instantly and
    /// with a clean epoch handoff. Call *after* the final snapshots.
    pub fn release_leases(&self) {
        for entry in self.all_entries() {
            let lease = entry
                .lease
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(lease) = lease {
                let _ = lease.release();
            }
        }
    }

    /// Abandons every held lease without touching the files — the
    /// simulated power cut. Lease files stay on disk for takeover; the
    /// in-process nonces are deregistered (dropping the handles does
    /// that), so a same-process successor steals instantly instead of
    /// waiting out the TTL. Entries are fenced; later edits are
    /// refused.
    pub fn abandon_leases(&self) {
        for entry in self.all_entries() {
            entry.fenced.store(true, Ordering::Relaxed);
            if let Some(dir) = &entry.dir {
                dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner).detach();
            }
            entry.lease.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        }
    }

    // -----------------------------------------------------------------
    // The coalescing query path
    // -----------------------------------------------------------------

    fn query(
        &self,
        envelope: &Envelope,
        workspace: &str,
        queries: Vec<WireQuery>,
    ) -> String {
        let entry = match self.lookup_fresh(&envelope.tenant, workspace) {
            Ok(e) => e,
            Err(e) => return crate::protocol::err_response(envelope.id, &e),
        };
        if queries.is_empty() {
            return ok_response(envelope.id, vec![("answers", Json::Arr(Vec::new()))]);
        }
        let n = queries.len();

        // Enqueue (or degrade, if the queue is saturated behind an
        // in-progress drain).
        let slot = Arc::new(Slot { answers: Mutex::new(None), ready: Condvar::new() });
        let is_leader = {
            let mut queue =
                entry.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if queue.draining && queue.pending.len() >= self.config.quota.max_pending {
                drop(queue);
                let degraded: Vec<Json> = (0..n)
                    .map(|_| {
                        unknown_answer(
                            "admission",
                            "workspace query queue is full; retry later",
                        )
                    })
                    .collect();
                return ok_response(envelope.id, vec![("answers", Json::Arr(degraded))]);
            }
            queue.pending.push(PendingBatch { queries, slot: Arc::clone(&slot) });
            let lead = !queue.draining;
            queue.draining = true;
            lead
        };

        if is_leader {
            self.drain(&entry);
        }

        // The leader's own slot is filled by its first drain round;
        // followers wait for whichever round picks them up. The timeout
        // is a backstop against a crashed leader, not a scheduling
        // mechanism.
        let mut answers =
            slot.answers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut waited = Duration::ZERO;
        while answers.is_none() {
            if waited >= FOLLOWER_TIMEOUT {
                let degraded: Vec<Json> = (0..n)
                    .map(|_| unknown_answer("admission", "query leader did not respond"))
                    .collect();
                return ok_response(envelope.id, vec![("answers", Json::Arr(degraded))]);
            }
            let step = Duration::from_secs(5);
            let (guard, _) = slot
                .ready
                .wait_timeout(answers, step)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            answers = guard;
            waited += step;
        }
        let answers = answers.take().unwrap_or_default();
        ok_response(envelope.id, vec![("answers", Json::Arr(answers))])
    }

    /// Leader drain loop: repeatedly swap out everything pending and
    /// answer it in one batched reasoning pass, until the queue is
    /// empty. The queue lock and the workspace lock are never held
    /// together.
    fn drain(&self, entry: &WsEntry) {
        let mut ws = entry.ws.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            let batches = {
                let mut queue =
                    entry.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if queue.pending.is_empty() {
                    queue.draining = false;
                    break;
                }
                std::mem::take(&mut queue.pending)
            };

            // One fresh budget per round: all coalesced batches share
            // it, so a round costs one tenant-quota unit no matter how
            // many clients piled in.
            ws.set_budget(self.config.quota.budget());

            // Resolve names against the now-current schema. Unresolved
            // queries answer immediately; resolved ones join the
            // combined batch.
            let mut combined: Vec<car_core::Query> = Vec::new();
            let mut plans: Vec<BatchPlan> = Vec::with_capacity(batches.len());
            for batch in &batches {
                let plan = batch
                    .queries
                    .iter()
                    .map(|q| {
                        q.resolve(ws.schema()).map(|typed| {
                            let at = combined.len();
                            combined.push(typed);
                            at
                        })
                    })
                    .collect();
                plans.push((plan, Arc::clone(&batch.slot)));
            }

            let results = ws.query_batch_results(&combined);

            for (plan, slot) in plans {
                let answers: Vec<Json> = plan
                    .into_iter()
                    .map(|entry| match entry {
                        Ok(at) => answer_json(&results[at]),
                        Err(name) => unknown_answer(
                            "unknown_class",
                            &format!("unknown class '{name}'"),
                        ),
                    })
                    .collect();
                *slot.answers.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                    Some(answers);
                slot.ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::protocol::parse_request;

    fn service() -> Service {
        Service::new(ServerConfig::default())
    }

    fn run(svc: &Service, line: &str) -> Json {
        let frame = parse(line).unwrap();
        let (env, req) = parse_request(&frame);
        let response = match req {
            Ok(r) => svc.handle(&env, r),
            Err(e) => crate::protocol::err_response(env.id, &e),
        };
        parse(response.trim_end()).unwrap()
    }

    const SCHEMA: &str = "
        class Person endclass
        class Professor isa Person endclass
        class Student isa Person and not Professor endclass
    ";

    #[test]
    fn open_query_roundtrip() {
        let svc = service();
        let open = run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        assert_eq!(open.get("ok"), Some(&Json::Bool(true)));
        let resp = run(
            &svc,
            r#"{"op":"query","workspace":"w","queries":[
                {"kind":"subsumes","sup":"Person","sub":"Student"},
                {"kind":"disjoint","a":"Student","b":"Professor"},
                {"kind":"subsumes","sup":"Student","sub":"Person"},
                {"kind":"satisfiable","class":"Ghost"}]}"#,
        );
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("proved".into())));
        assert_eq!(answers[1].get("outcome"), Some(&Json::Str("proved".into())));
        assert_eq!(answers[2].get("outcome"), Some(&Json::Str("disproved".into())));
        assert_eq!(answers[3].get("outcome"), Some(&Json::Str("unknown".into())));
        assert_eq!(answers[3].get("cause"), Some(&Json::Str("unknown_class".into())));
    }

    #[test]
    fn apply_undo_redo_cycle() {
        let svc = service();
        run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        let applied = run(
            &svc,
            r#"{"op":"apply","workspace":"w","deltas":[
                {"kind":"add_class","name":"TA"},
                {"kind":"set_isa","class":"TA","isa":[[{"class":"Student"}],[{"class":"Professor"}]]}]}"#,
        );
        assert_eq!(applied.get("applied"), Some(&Json::UInt(2)));
        // TA isa Student and Professor, which are disjoint → unsat.
        let q = r#"{"op":"query","workspace":"w","queries":[{"kind":"satisfiable","class":"TA"}]}"#;
        let resp = run(&svc, q);
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("disproved".into())));

        let undo = run(&svc, r#"{"op":"undo","workspace":"w"}"#);
        assert_eq!(undo.get("moved"), Some(&Json::Bool(true)));
        let resp = run(&svc, q);
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        // After undoing the isa edit, TA is unconstrained → satisfiable.
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("proved".into())));

        let redo = run(&svc, r#"{"op":"redo","workspace":"w"}"#);
        assert_eq!(redo.get("moved"), Some(&Json::Bool(true)));
        let resp = run(&svc, q);
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("disproved".into())));
    }

    #[test]
    fn failed_apply_reports_progress_and_preserves_workspace() {
        let svc = service();
        run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        let resp = run(
            &svc,
            r#"{"op":"apply","workspace":"w","deltas":[
                {"kind":"add_class","name":"TA"},
                {"kind":"remove_class","name":"Person"}]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("applied"), Some(&Json::UInt(1)));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind"), Some(&Json::Str("class_referenced".into())));
        // The workspace still answers queries, and TA (delta 1) exists.
        let resp = run(
            &svc,
            r#"{"op":"query","workspace":"w","queries":[{"kind":"satisfiable","class":"TA"}]}"#,
        );
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("proved".into())));
    }

    #[test]
    fn tenants_are_isolated() {
        let svc = service();
        run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"tenant\":\"a\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        let resp = run(
            &svc,
            r#"{"op":"query","tenant":"b","workspace":"w","queries":[{"kind":"coherent"}]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            resp.get("error").unwrap().get("kind"),
            Some(&Json::Str("unknown_workspace".into()))
        );
        let list_a = run(&svc, r#"{"op":"list","tenant":"a"}"#);
        let list_b = run(&svc, r#"{"op":"list","tenant":"b"}"#);
        assert_eq!(
            list_a.get("workspaces"),
            Some(&Json::Arr(vec![Json::Str("w".into())]))
        );
        assert_eq!(list_b.get("workspaces"), Some(&Json::Arr(Vec::new())));
    }

    #[test]
    fn workspace_quota_is_enforced() {
        let mut config = ServerConfig::default();
        config.quota.max_workspaces = 2;
        let svc = Service::new(config);
        let open = |name: &str| {
            format!(
                "{{\"op\":\"open\",\"workspace\":\"{name}\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str("class A endclass".into()))
            )
        };
        assert_eq!(run(&svc, &open("w1")).get("ok"), Some(&Json::Bool(true)));
        assert_eq!(run(&svc, &open("w2")).get("ok"), Some(&Json::Bool(true)));
        let third = run(&svc, &open("w3"));
        assert_eq!(third.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            third.get("error").unwrap().get("kind"),
            Some(&Json::Str("quota".into()))
        );
        // Replacing an existing workspace is not a new allocation.
        let replace = run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w1\",\"replace\":true,\"schema\":{}}}",
                crate::json::to_string(&Json::Str("class B endclass".into()))
            ),
        );
        assert_eq!(replace.get("ok"), Some(&Json::Bool(true)));
        // Closing frees the slot.
        run(&svc, r#"{"op":"close","workspace":"w2"}"#);
        assert_eq!(run(&svc, &open("w3")).get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn invalid_schema_text_is_a_spanned_error() {
        let svc = service();
        let resp = run(
            &svc,
            r#"{"op":"open","workspace":"w","schema":"class A isa ((((B endclass"}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind"), Some(&Json::Str("parse".into())));
        assert!(err.get("line").is_some());
        assert!(err.get("col").is_some());
    }

    #[test]
    fn hostile_tenant_and_workspace_names_cannot_escape_the_data_dir() {
        let base = std::env::temp_dir()
            .join(format!("car-service-traversal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(base.join("canary.txt"), b"outside the data dir").unwrap();
        let data = base.join("data");
        let config = ServerConfig { data_dir: Some(data.clone()), ..Default::default() };
        let svc = Service::new(config);

        let frame = |op: &str, tenant: &str, ws: &str| {
            format!(
                "{{\"op\":\"{op}\",\"tenant\":{},\"workspace\":{},\"schema\":{}}}",
                crate::json::to_string(&Json::Str(tenant.into())),
                crate::json::to_string(&Json::Str(ws.into())),
                crate::json::to_string(&Json::Str("class A endclass".into()))
            )
        };
        for (tenant, ws) in
            [("..", ".."), (".", "."), ("../../etc", "../x"), ("t", ".."), ("", "")]
        {
            let open = run(&svc, &frame("open", tenant, ws));
            assert_eq!(open.get("ok"), Some(&Json::Bool(true)), "{tenant}/{ws}");
            let close = run(&svc, &frame("close", tenant, ws));
            assert_eq!(close.get("ok"), Some(&Json::Bool(true)), "{tenant}/{ws}");
        }
        // Every artifact stayed under the workspaces root: nothing
        // outside was created, and `close` deleted nothing outside.
        assert!(base.join("canary.txt").exists(), "close() escaped the data dir");
        assert!(data.exists());
        // Snapshots are epoch-named (`snapshot.car` or
        // `snapshot.<epoch>.car`), so check by prefix rather than one
        // fixed name.
        let escaped = std::fs::read_dir(&base).unwrap().flatten().any(|e| {
            e.file_name().to_string_lossy().starts_with("snapshot")
        });
        assert!(!escaped, "open() escaped the data dir");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn budget_exhaustion_degrades_to_unknown_with_cause() {
        let mut config = ServerConfig::default();
        config.quota.max_steps = Some(1);
        let svc = Service::new(config);
        run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        let resp = run(
            &svc,
            r#"{"op":"query","workspace":"w","queries":[{"kind":"coherent"}]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let answers = resp.get("answers").and_then(Json::as_arr).unwrap();
        assert_eq!(answers[0].get("outcome"), Some(&Json::Str("unknown".into())));
        assert_eq!(answers[0].get("cause"), Some(&Json::Str("budget".into())));
        // The workspace is not poisoned: a larger budget would answer.
        // (Here just verify another request still gets a response.)
        let again = run(&svc, r#"{"op":"stats","workspace":"w"}"#);
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn stats_report_the_effective_strategy_after_a_query() {
        let svc = service();
        run(
            &svc,
            &format!(
                "{{\"op\":\"open\",\"workspace\":\"w\",\"schema\":{}}}",
                crate::json::to_string(&Json::Str(SCHEMA.into()))
            ),
        );
        // Before any reasoning the workspace has no effective strategy.
        let before = run(&svc, r#"{"op":"stats","workspace":"w"}"#);
        assert_eq!(before.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(before.get("effective_strategy"), None);
        run(
            &svc,
            r#"{"op":"query","workspace":"w","queries":[{"kind":"coherent"}]}"#,
        );
        // Afterwards the stats carry the strategy the engine actually
        // ran, not merely the one that was requested.
        let after = run(&svc, r#"{"op":"stats","workspace":"w"}"#);
        assert_eq!(after.get("ok"), Some(&Json::Bool(true)));
        match after.get("effective_strategy") {
            Some(Json::Str(s)) => assert!(
                ["Naive", "Sat", "Preselect", "ColumnGen", "Auto"].contains(&s.as_str()),
                "unexpected effective strategy {s:?}"
            ),
            other => panic!("missing effective_strategy field: {other:?}"),
        }
    }
}
