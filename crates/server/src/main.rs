//! The `car-server` binary: CLI flag parsing around
//! [`car_server::Server`].

use car_server::service::{ServerConfig, StoreMode};
use car_server::Server;
use std::num::NonZeroUsize;
use std::time::Duration;

const USAGE: &str = "\
car-server — multi-tenant CAR reasoning service (line-delimited JSON over TCP)

USAGE: car-server [OPTIONS]

OPTIONS:
  --addr <host:port>        Listen address (default 127.0.0.1:7474; port 0 = ephemeral)
  --deadline-ms <n>         Per-query-round wall-clock budget (default 10000; 0 = none)
  --max-steps <n>           Per-query-round step budget (default none)
  --max-items <n>           Per-query-round allocation budget (default 5000000; 0 = none)
  --max-pending <n>         Queued query batches per workspace before admission
                            control degrades answers to unknown (default 64)
  --max-workspaces <n>      Open workspaces per tenant (default 32)
  --max-frame-bytes <n>     Request frame size cap (default 1048576)
  --undo-cap <n>            Undo/redo history depth per workspace (default 256)
  --bundle-cache-cap <n>    Cached analysis bundles per workspace (default 64)
  --cluster-cache-cap <n>   Cached cluster enumerations per workspace (default 4096)
  --threads <n>             Worker threads per reasoning pass (default 1)
  --data-dir <path>         Durable state root: content-addressed enumeration store
                            plus per-workspace snapshots and journals. On start,
                            workspaces found there are recovered; without this flag
                            the server is memory-only
  --store-max-bytes <n>     Byte budget of the on-disk enumeration store
                            (default 268435456)
  --store-mode <mode>       'leader' (default) acquires per-workspace leases and
                            writes; 'follower' serves the same data dir read-only,
                            answering edits with a read_only error
  --lease-ttl-ms <n>        Lease heartbeat time-to-live: how long a workspace
                            lease may go silent before another leader takes it
                            over (default 2000)
  --net-workers <n>         Network worker threads sharing one epoll instance; the
                            worker woken for a connection reads, executes and
                            answers its frames (default 4)
  --max-write-buffer <n>    Bytes of unsent output a non-reading client may
                            accumulate before it is disconnected (default 8388608)
  --allow-remote-shutdown   Honor the 'shutdown' operation: drain in-flight work,
                            snapshot every workspace, exit (default off)
  --help                    Show this help
";

fn fail(message: &str) -> ! {
    eprintln!("car-server: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_config(args: &[String]) -> (String, ServerConfig) {
    let mut addr = "127.0.0.1:7474".to_owned();
    let mut config = ServerConfig::default();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        match args.get(*i) {
            Some(v) => v,
            None => fail(&format!("flag '{}' needs a value", args[*i - 1])),
        }
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            "--addr" => addr = value(&mut i).to_owned(),
            "--data-dir" => {
                config.data_dir = Some(std::path::PathBuf::from(value(&mut i)));
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--store-mode" => {
                config.store_mode = match value(&mut i) {
                    "leader" => StoreMode::Leader,
                    "follower" => StoreMode::Follower,
                    other => fail(&format!(
                        "--store-mode must be 'leader' or 'follower', not '{other}'"
                    )),
                };
            }
            _ => {
                let v = value(&mut i);
                let n: u64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("'{v}' is not a number for {flag}")));
                match flag {
                    "--deadline-ms" => {
                        config.quota.deadline =
                            (n > 0).then(|| Duration::from_millis(n));
                    }
                    "--max-steps" => config.quota.max_steps = (n > 0).then_some(n),
                    "--max-items" => config.quota.max_items = (n > 0).then_some(n),
                    "--max-pending" => config.quota.max_pending = n as usize,
                    "--max-workspaces" => config.quota.max_workspaces = n as usize,
                    "--max-frame-bytes" => config.max_frame_bytes = n as usize,
                    "--store-max-bytes" => config.store_max_bytes = n,
                    "--lease-ttl-ms" => {
                        if n == 0 {
                            fail("--lease-ttl-ms must be at least 1");
                        }
                        config.lease_ttl = Duration::from_millis(n);
                    }
                    "--undo-cap" => config.quota.workspace_limits.undo_cap = n as usize,
                    "--bundle-cache-cap" => {
                        config.quota.workspace_limits.bundle_cache_cap = n as usize;
                    }
                    "--cluster-cache-cap" => {
                        config.quota.workspace_limits.cluster_cache_cap = n as usize;
                    }
                    "--threads" => {
                        config.threads = NonZeroUsize::new(n as usize)
                            .unwrap_or_else(|| fail("--threads must be at least 1"));
                    }
                    "--net-workers" => {
                        config.net_workers = NonZeroUsize::new(n as usize)
                            .unwrap_or_else(|| fail("--net-workers must be at least 1"));
                    }
                    "--max-write-buffer" => {
                        config.max_write_buffer_bytes = n as usize;
                    }
                    other => fail(&format!("unknown flag '{other}'")),
                }
            }
        }
        i += 1;
    }
    (addr, config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, config) = parse_config(&args);
    // Connection-dense serving wants the hard fd cap, not the (often
    // 1024) soft default.
    let _ = car_server::reactor::sys::raise_fd_limit();
    let mut server = match Server::spawn(addr.as_str(), config) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {addr}: {e}")),
    };
    let recovery = server.service().recovery_report();
    if recovery.workspaces_recovered > 0
        || recovery.dirs_skipped > 0
        || recovery.dirs_lease_held > 0
    {
        println!(
            "car-server: recovered {} workspaces ({} journal ops replayed, \
             {} truncated tails, {} fenced records rejected, {} unusable dirs \
             skipped, {} dirs lease-held elsewhere)",
            recovery.workspaces_recovered,
            recovery.ops_replayed,
            recovery.truncated_tails,
            recovery.fenced_records_rejected,
            recovery.dirs_skipped,
            recovery.dirs_lease_held
        );
    }
    let role = match server.service().config().store_mode {
        StoreMode::Leader => "leader",
        StoreMode::Follower => "follower",
    };
    println!("car-server ({role}) listening on {}", server.addr());
    // Blocks forever unless a remote shutdown arrives (which requires
    // --allow-remote-shutdown); then drains and snapshots.
    let snapshots = server.serve_until_shutdown();
    println!("car-server: drained; {snapshots} workspace snapshots written");
}
