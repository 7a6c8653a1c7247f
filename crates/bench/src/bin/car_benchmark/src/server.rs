//! The `car-server` child process: spawn, address discovery, CPU and
//! memory readings from `/proc`, and SIGKILL.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The sibling `car-server` binary: `run.sh` builds both into the same
/// cargo target directory.
///
/// # Errors
/// When the binary is missing.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let bin = exe.with_file_name("car-server");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found (build it with cargo build --release -p car-server)",
            bin.display()
        ))
    }
}

/// A running server child.
pub struct ServerProc {
    child: Child,
    /// The listening address parsed from the banner.
    pub addr: SocketAddr,
    /// Spawn-to-listening time: for a populated data directory, the
    /// whole startup recovery.
    pub ready: Duration,
    /// The `recovered …` banner line, when the server printed one.
    pub recovery_line: Option<String>,
    /// Kept open (and unread) so the child never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts `car-server` with default flags, an ephemeral loopback
    /// port and, when given, a data directory; returns once it listens.
    ///
    /// # Errors
    /// Spawn failures and a child that exits before listening.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let start = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("car-server stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut recovery_line = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("car-server exited before listening".into());
                }
                Ok(_) => {}
            }
            if line.contains(" recovered ") {
                recovery_line = Some(line.trim().to_owned());
            }
            if let Some(rest) = line.split(" listening on ").nth(1) {
                match rest.trim().parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listen banner: {line}"));
                    }
                }
            }
        };
        Ok(ServerProc {
            child,
            addr,
            ready: start.elapsed(),
            recovery_line,
            _stdout: stdout,
        })
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user + system, all threads) the child has used so far.
    #[must_use]
    pub fn cpu_ms(&self) -> f64 {
        cpu_ms(&format!("/proc/{}/stat", self.pid()))
    }

    /// The child's peak resident set size.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// SIGKILL, then reap (a dead but unreaped holder would still look
    /// alive to the successor's lease check through `/proc`).
    pub fn kill(self) {
        drop(self);
    }
}

/// Every way out of a run — including an error — kills and reaps the
/// server, so no child outlives the benchmark.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` file in milliseconds. Linux
/// reports both in USER_HZ ticks, which the ABI fixes at 100 per second.
#[must_use]
pub fn cpu_ms(stat_path: &str) -> f64 {
    let text = std::fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// `VmHWM` of a `/proc/<pid>/status` file in MiB.
#[must_use]
pub fn peak_rss_mb(status_path: &str) -> f64 {
    let text = std::fs::read_to_string(status_path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The scratch directory for data dirs and traces: inside the cargo
/// target directory, so a run reads and writes only inside its checkout.
#[must_use]
pub fn scratch_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("car_benchmark")
}

/// A fresh, empty scratch directory `name` (removed first if present).
///
/// # Errors
/// Filesystem failures.
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = scratch_root().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
