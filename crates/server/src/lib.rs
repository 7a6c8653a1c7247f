//! # car-server — a multi-tenant reasoning service over TCP
//!
//! A dependency-free (std-only) long-running server exposing
//! [`car_core::Workspace`]s over line-delimited JSON. Design goals, in
//! order:
//!
//! 1. **Isolation** — a malformed frame, an invalid schema, a bad
//!    delta, or a budget-exhausting query affects exactly one response;
//!    never the connection, never the workspace, never another tenant.
//! 2. **Bounded everything** — frame size, query queue depth, undo
//!    history, caches, per-round reasoning budgets, read accumulation
//!    and write backpressure buffers all have caps; overload degrades
//!    to `unknown` answers or a single disconnected slow client instead
//!    of queueing unboundedly.
//! 3. **Coalescing** — concurrent queries against the same workspace
//!    version are answered by a single batched reasoning pass (leader
//!    drains the queue; followers wait on a condvar).
//!
//! The network runtime is the [`reactor`] module: `--net-workers`
//! threads share one `epoll` instance, and the worker woken for a
//! connection owns it for one turn — it reads at most one chunk,
//! decodes frames with [`protocol::FrameDecoder`], runs
//! [`Service::execute_frame`] and writes each response, then re-arms
//! the connection behind every other ready one. Tens of
//! thousands of idle connections cost no threads. The crate targets
//! Linux only. See `DESIGN.md` §15.
//!
//! All cross-connection state lives in [`service::Service`] behind
//! sharded mutexes.
//!
//! See `DESIGN.md` §11 for the protocol reference.

#[cfg(not(target_os = "linux"))]
compile_error!("car-server targets Linux only: its network runtime is built on epoll");

pub mod json;
pub mod protocol;
pub mod reactor;
pub mod service;

use service::{ServerConfig, Service, StoreMode};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The lease keeper: renews this process's claims and sweeps the
/// shared data dir for unclaimed or abandoned workspaces, every
/// `lease_ttl / 4` (floored at 25ms). The 10ms inner sleep keeps
/// shutdown prompt without busy-waiting.
fn keeper_loop(service: &Service, stopping: &AtomicBool) {
    let tick = (service.config().lease_ttl / 4).max(Duration::from_millis(25));
    let mut watches = HashMap::new();
    let mut last = Instant::now();
    while !stopping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
        if last.elapsed() < tick {
            continue;
        }
        service.renew_leases();
        service.sweep_leases(&mut watches);
        last = Instant::now();
    }
}

/// How long [`Server::shutdown`] waits for in-flight connections to
/// finish their current request after the read half-close.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A running server: bound listener plus its network runtime. Dropping
/// it does *not* stop the workers; call [`Server::stop`] (abrupt) or
/// [`Server::shutdown`] (graceful drain + snapshot).
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    stopping: Arc<AtomicBool>,
    /// `None` once stopped.
    runtime: Option<reactor::Handle>,
    /// Lease keeper: heartbeats held leases and sweeps the shared data
    /// dir for expired ones. Only spawned for a leader with a data dir.
    keeper_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    /// Propagates bind and epoll setup failures.
    pub fn spawn(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service::new(config));
        let stopping = Arc::new(AtomicBool::new(false));
        let runtime = Some(reactor::Handle::spawn(
            listener,
            Arc::clone(&service),
            service.config().net_workers.get(),
        )?);
        let keeper_thread = (service.config().data_dir.is_some()
            && service.config().store_mode == StoreMode::Leader)
            .then(|| {
                let service = Arc::clone(&service);
                let stopping = Arc::clone(&stopping);
                std::thread::spawn(move || keeper_loop(&service, &stopping))
            });
        Ok(Server { addr, service, stopping, runtime, keeper_thread })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the service, for in-process callers (the load
    /// generator's replay-verification path uses this).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops the workers and the keeper and joins them.
    fn halt(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(runtime) = self.runtime.take() {
            runtime.stop();
        }
        if let Some(handle) = self.keeper_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, joins the runtime's threads (a worker finishes
    /// the frame it is executing first), and closes the listener and
    /// every connection.
    ///
    /// This is the *power cut* exit: no snapshots are written and the
    /// lease files are left on disk — a successor gets each workspace
    /// through takeover, exactly as it would after a real crash. (The
    /// in-process lease nonces are abandoned, so a successor in this
    /// same process steals instantly instead of waiting out the TTL.)
    pub fn stop(&mut self) {
        self.halt();
        self.service.abandon_leases();
    }

    /// Graceful shutdown: stop accepting, half-close every active
    /// connection's read side (frames already received finish and get
    /// their responses; the next read sees EOF), wait for connections
    /// to drain, snapshot every workspace, then release every lease
    /// (removing the lease files, so a successor claims each workspace
    /// instantly instead of waiting out a takeover). Returns the number
    /// of snapshots written.
    ///
    /// Contrast with [`Server::stop`], which abandons connections,
    /// writes nothing, and leaves the lease files in place — the
    /// crash-recovery tests use `stop` as the "power cut" and
    /// `shutdown` as the clean exit.
    pub fn shutdown(&mut self) -> u64 {
        self.stopping.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        if let Some(runtime) = &self.runtime {
            runtime.request_drain();
            while runtime.conns_open() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Connections that never finished inside the timeout are torn
        // down with the workers.
        self.halt();
        let written = self.service.snapshot_all();
        self.service.release_leases();
        written
    }

    /// Blocks until a remote `shutdown` request is accepted (which
    /// requires `allow_remote_shutdown`), then drains gracefully.
    /// Returns the number of snapshots written.
    pub fn serve_until_shutdown(&mut self) -> u64 {
        self.service.wait_shutdown();
        self.shutdown()
    }
}

/// A tiny blocking client for tests and the load generator: one
/// connection, synchronous request/response.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one raw frame (newline appended) and reads one response
    /// line.
    ///
    /// # Errors
    /// Propagates I/O failures; `UnexpectedEof` if the server hung up.
    pub fn roundtrip(&mut self, frame: &str) -> std::io::Result<String> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_response()
    }

    /// Sends one raw frame without reading the response (for pipelining
    /// tests).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Sends raw bytes exactly as given (malformed-frame tests).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one response line.
    ///
    /// # Errors
    /// Propagates I/O failures; `UnexpectedEof` if the server hung up.
    pub fn read_response(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }

    /// Half-closes the write side so the server sees EOF.
    pub fn shutdown_write(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }

    /// Exposes the underlying socket, e.g. for tests that set socket
    /// options while deliberately stalling a server.
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// Reads whatever remains until EOF (to observe final responses
    /// after a half-close).
    #[must_use]
    pub fn drain(&mut self) -> String {
        let mut rest = String::new();
        let _ = self.reader.read_to_string(&mut rest);
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::protocol::{Decoded, FrameDecoder};

    /// The lib-level framing contract — the incremental decoder every
    /// connection reads through.
    #[test]
    fn frames_are_bounded_and_partial_finals_count() {
        let mut decoder = FrameDecoder::new(10);
        decoder.push(b"abc\ndef");
        assert_eq!(decoder.next_event(), Some(Decoded::Frame(b"abc".to_vec())));
        assert_eq!(decoder.next_event(), None);
        assert_eq!(decoder.finish(), Some(Decoded::Frame(b"def".to_vec())));
        assert_eq!(decoder.finish(), None);
    }

    #[test]
    fn oversized_frames_are_discarded_to_the_newline() {
        let mut decoder = FrameDecoder::new(64);
        decoder.push(b"x".repeat(100).as_slice());
        decoder.push(b"\n{\"op\":\"ping\"}\n");
        assert_eq!(decoder.next_event(), Some(Decoded::TooLarge));
        assert_eq!(
            decoder.next_event(),
            Some(Decoded::Frame(b"{\"op\":\"ping\"}".to_vec()))
        );
    }

    #[test]
    fn exact_cap_is_not_too_large() {
        let mut decoder = FrameDecoder::new(5);
        decoder.push(b"12345\n");
        assert_eq!(decoder.next_event(), Some(Decoded::Frame(b"12345".to_vec())));
    }
}
