//! The network runtime: a fixed pool of workers sharing one `epoll`
//! instance, each owning whichever connection it was woken for.
//!
//! * **One epoll, `--net-workers` threads.** Every worker blocks in
//!   `epoll_wait` on the same instance and takes one event at a time.
//!   The listener and every connection are registered with
//!   `EPOLLONESHOT`, so an event disarms its fd: exactly one worker is
//!   woken for it, and no other worker can be woken for that fd until
//!   the owner re-arms it.
//! * **The woken worker owns the connection for one turn.** It flushes
//!   pending output, reads at most one 16 KiB chunk, decodes it with the
//!   shared [`FrameDecoder`], runs [`Service::execute_frame`] and writes
//!   each response; then it re-arms the connection. Frames are served
//!   one at a time per connection and answered in order, and a
//!   connection is read only after every frame already decoded from it
//!   was answered, so a pipelining client cannot grow the server's
//!   buffers faster than it is answered. A connection that is still
//!   readable when re-armed goes to the back of epoll's ready list, so
//!   a client that keeps its socket full gets one chunk per turn and
//!   cannot hold a worker from other clients. There is no event-loop
//!   thread and no hand-off queue: a frame's read, execution and write
//!   happen on one thread, with no cross-thread wakeup on the request
//!   path.
//!   Leader-based query coalescing, admission control and per-round
//!   budgets live in the service layer; a coalescing leader drains its
//!   batch inside its own worker call, so the pool never deadlocks on
//!   followers alone.
//! * **Write backpressure**: responses go to a per-connection output
//!   buffer; what the socket does not take re-arms `EPOLLOUT` instead
//!   of blocking a thread. A client that stops reading accumulates
//!   output only up to `max_write_buffer_bytes`, then is disconnected.
//!   Once a connection's read side is closed it is re-armed for
//!   `EPOLLOUT` alone, so a half-closed client that stops reading
//!   costs no wakeups at all.
//! * **Accept back-off**: an accept error such as `EMFILE` leaves the
//!   one-shot listener disarmed (re-arming at once would spin on the
//!   same error) until a connection closes or 1 ms has passed.
//!
//! Everything is std-only: the handful of syscalls epoll needs are
//! declared directly in [`sys`] (libc is always linked; no crates).
//!
//! Graceful drain: stop accepting, half-close every connection's read
//! side, finish the frames already received and flush their responses,
//! then close. See `DESIGN.md` §15.

use crate::protocol::{err_response, Decoded, FrameDecoder, WireError};
use crate::service::{NetCounters, Service};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Direct syscall declarations for the readiness API. `std::net` has no
/// non-blocking readiness interface; these calls are the entire surface
/// the runtime needs, and libc is always linked into Rust binaries on
/// Linux, so plain `extern "C"` declarations suffice.
pub mod sys {
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
    /// ABI omits the padding there); naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        /// User token (we store a connection id, never a pointer).
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32)
            -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn last_err() -> std::io::Error {
        std::io::Error::last_os_error()
    }

    /// An owned epoll instance.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates the epoll fd (close-on-exec).
        ///
        /// # Errors
        /// Propagates `epoll_create1` failure.
        pub fn new() -> std::io::Result<Epoll> {
            // SAFETY: no pointers involved.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(last_err());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
                return Err(last_err());
            }
            Ok(())
        }

        /// Registers `fd` with the given interest set and token.
        ///
        /// # Errors
        /// Propagates `epoll_ctl` failure.
        pub fn add(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes `fd`'s interest set; for an `EPOLLONESHOT` fd this
        /// re-arms it, and an fd already ready fires at once.
        ///
        /// # Errors
        /// Propagates `epoll_ctl` failure.
        pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregisters `fd`.
        pub fn del(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits for readiness events (`timeout_ms < 0` waits forever);
        /// retries `EINTR` internally.
        ///
        /// # Errors
        /// Propagates non-`EINTR` `epoll_wait` failures.
        pub fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> std::io::Result<usize> {
            loop {
                // SAFETY: `events` is a valid mutable slice; the kernel
                // writes at most `events.len()` entries.
                let n = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = last_err();
                if err.kind() != std::io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: we own the fd.
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking `eventfd` that wakes epoll waiters from another
    /// thread. Registered level-triggered and never drained, so once
    /// notified it wakes every waiter — the stop signal.
    pub struct Wakeup {
        fd: RawFd,
    }

    impl Wakeup {
        /// Creates the eventfd (nonblocking, close-on-exec).
        ///
        /// # Errors
        /// Propagates `eventfd` failure.
        pub fn new() -> std::io::Result<Wakeup> {
            // SAFETY: no pointers involved.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(last_err());
            }
            Ok(Wakeup { fd })
        }

        /// The fd to register with an [`Epoll`].
        #[must_use]
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Makes the fd readable, waking an epoll waiter.
        pub fn notify(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack value.
            unsafe { write(self.fd, std::ptr::addr_of!(one).cast(), 8) };
        }
    }

    impl Drop for Wakeup {
        fn drop(&mut self) {
            // SAFETY: we own the fd.
            unsafe { close(self.fd) };
        }
    }

    /// Raises the soft `RLIMIT_NOFILE` to the hard cap and returns the
    /// resulting soft limit. Connection-dense processes (the server and
    /// its load generator) call this so 10k+ sockets don't trip the
    /// default 1024-fd soft limit.
    #[must_use]
    pub fn raise_fd_limit() -> u64 {
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live stack value of the C layout.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.cur < lim.max {
            let raised = RLimit { cur: lim.max, max: lim.max };
            // SAFETY: passes a live, initialized struct by pointer.
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return raised.cur;
            }
        }
        lim.cur
    }
}

use sys::{Epoll, EpollEvent, Wakeup, EPOLLIN, EPOLLONESHOT, EPOLLOUT};

/// Epoll token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the stop eventfd.
const TOKEN_STOP: u64 = 1;
/// First connection token.
const TOKEN_CONN0: u64 = 2;

/// The most one turn reads from a connection.
const READ_CHUNK: usize = 16 * 1024;

/// How long a failed accept leaves the listener disarmed when no
/// connection closes in the meantime.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// One connection. The registry and a drain share the stream; `state`
/// is only ever locked by the worker that owns the connection's
/// current one-shot event, so it is uncontended.
struct Conn {
    stream: TcpStream,
    state: Mutex<ConnState>,
}

struct ConnState {
    decoder: FrameDecoder,
    /// Pending output; `out_pos` is the write cursor (both reset when
    /// fully flushed).
    out: Vec<u8>,
    out_pos: usize,
    /// EOF observed (the client half-closed, or a drain half-closed the
    /// read side). Frames already decoded still get answered.
    read_closed: bool,
}

impl ConnState {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The next decoded event, including the final unterminated frame
    /// once the read side is closed (`finish` is idempotent once drained).
    fn next_event(&mut self) -> Option<Decoded> {
        if self.read_closed {
            self.decoder.finish()
        } else {
            self.decoder.next_event()
        }
    }
}

/// The open connections, by epoll token.
struct Registry {
    conns: HashMap<u64, Arc<Conn>>,
    next_token: u64,
    /// A drain began: new connections are refused.
    draining: bool,
}

/// State shared by the workers and the server handle.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    stop: Wakeup,
    stopping: AtomicBool,
    /// The listener hit an accept error and is left disarmed.
    accept_paused: AtomicBool,
    registry: Mutex<Registry>,
    service: Arc<Service>,
    counters: Arc<NetCounters>,
    max_frame: usize,
    max_write_buffer: usize,
}

impl Reactor {
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-arms a one-shot fd. Re-arming the listener fails once a drain
    /// deregistered it, which callers ignore.
    fn arm(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.epoll.modify(fd, token, events | EPOLLONESHOT)
    }

    fn worker(&self) {
        let mut events = [EpollEvent::default(); 1];
        let mut chunk = vec![0u8; READ_CHUNK];
        // When this worker's failed accept left the listener disarmed:
        // the time to re-arm it, unless a closing connection does first.
        let mut resume_at = None;
        loop {
            let timeout = match resume_at {
                Some(_) => ACCEPT_BACKOFF.as_millis() as i32,
                None => -1,
            };
            let Ok(n) = self.epoll.wait(&mut events, timeout) else { return };
            self.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            if self.stopping.load(Ordering::SeqCst) {
                // Pass the wakeup on, in case the kernel woke only us.
                self.stop.notify();
                return;
            }
            if resume_at.is_some_and(|at| Instant::now() >= at) {
                resume_at = None;
                self.resume_accepting();
            }
            if n == 0 {
                continue;
            }
            match events[0].data {
                TOKEN_LISTENER => {
                    if !self.accept() {
                        resume_at = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                }
                TOKEN_STOP => {}
                token => self.serve(token, &mut chunk),
            }
        }
    }

    /// Accepts until the backlog is empty, then re-arms the listener.
    /// Returns false if an accept error left it disarmed instead.
    fn accept(&self) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let _ = self.arm(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN);
                    return true;
                }
                // Out of descriptors (EMFILE, ENFILE) or another accept
                // failure: back off with the listener disarmed.
                Err(_) => {
                    self.accept_paused.store(true, Ordering::SeqCst);
                    return false;
                }
            }
        }
    }

    /// Ends an accept back-off: called when a connection closes (which
    /// frees a descriptor) or when the back-off has passed.
    fn resume_accepting(&self) {
        if self.accept_paused.swap(false, Ordering::SeqCst) {
            let _ = self.arm(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN);
        }
    }

    fn register(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let fd = stream.as_raw_fd();
        let mut registry = self.registry();
        if registry.draining {
            return; // a drain raced an incoming connection
        }
        let token = registry.next_token;
        registry.next_token += 1;
        let state = ConnState {
            decoder: FrameDecoder::new(self.max_frame),
            out: Vec::new(),
            out_pos: 0,
            read_closed: false,
        };
        registry
            .conns
            .insert(token, Arc::new(Conn { stream, state: Mutex::new(state) }));
        if self.epoll.add(fd, token, EPOLLIN | EPOLLONESHOT).is_err() {
            registry.conns.remove(&token);
            return;
        }
        self.counters.conns_accepted.fetch_add(1, Ordering::Relaxed);
        self.counters.conns_open.store(registry.conns.len() as u64, Ordering::Relaxed);
    }

    /// Serves the connection behind a one-shot event, then re-arms or
    /// closes it.
    fn serve(&self, token: u64, chunk: &mut [u8]) {
        let Some(conn) = self.registry().conns.get(&token).cloned() else { return };
        let interest = {
            let mut state = conn.state.lock().unwrap_or_else(PoisonError::into_inner);
            self.pump(&conn.stream, &mut state, chunk)
        };
        let rearmed = interest
            .is_some_and(|events| self.arm(conn.stream.as_raw_fd(), token, events).is_ok());
        if !rearmed {
            self.close(token);
        }
    }

    /// Takes one turn on the connection: flushes, reads at most one
    /// chunk, answers every frame decoded so far in order. Returns the
    /// events to re-arm, or `None` once the connection is finished (EOF,
    /// every frame answered, output flushed) or failed. One chunk per
    /// turn keeps the pool fair: re-arming a connection that is still
    /// readable queues it behind every other ready one, so a client that
    /// keeps its socket full cannot hold a worker.
    fn pump(&self, mut stream: &TcpStream, state: &mut ConnState, chunk: &mut [u8]) -> Option<u32> {
        self.flush(stream, state)?;
        if !state.read_closed && !self.stopping.load(Ordering::Relaxed) {
            match stream.read(chunk) {
                Ok(0) => state.read_closed = true,
                Ok(n) => state.decoder.push(&chunk[..n]),
                // Spurious or interrupted: re-arming re-checks readiness.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => return None,
            }
        }
        while let Some(event) = state.next_event() {
            let Some(response) = self.respond(event) else { continue };
            state.out.extend_from_slice(response.as_bytes());
            self.flush(stream, state)?;
            // The cap applies to what the socket would not take: a
            // prompt reader drains through the kernel and never
            // accumulates here, while a stalled one is disconnected
            // rather than buffered without bound.
            if state.pending_out() > self.max_write_buffer {
                self.counters.write_buffer_disconnects.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let stalled = state.pending_out() > 0;
        match (state.read_closed, stalled) {
            (true, false) => None,
            // Nothing more to read: wait only for the socket to drain.
            (true, true) => Some(EPOLLOUT),
            (false, false) => Some(EPOLLIN),
            (false, true) => Some(EPOLLIN | EPOLLOUT),
        }
    }

    /// The response to one decoded event; `None` for a blank line.
    fn respond(&self, event: Decoded) -> Option<String> {
        match event {
            Decoded::TooLarge => {
                self.counters.frames_oversized.fetch_add(1, Ordering::Relaxed);
                let max = self.max_frame;
                Some(err_response(
                    None,
                    &WireError::new(
                        "frame_too_large",
                        format!("request frame exceeds {max} bytes"),
                    ),
                ))
            }
            Decoded::Frame(raw) if raw.iter().all(u8::is_ascii_whitespace) => None,
            Decoded::Frame(raw) => {
                self.counters.frames_decoded.fetch_add(1, Ordering::Relaxed);
                Some(self.service.execute_frame(&raw))
            }
        }
    }

    /// Writes pending output until the socket stops taking it. A write
    /// the socket took only part of, or none of, counts one
    /// backpressure stall. `None` on a write error.
    fn flush(&self, mut stream: &TcpStream, state: &mut ConnState) -> Option<()> {
        while state.out_pos < state.out.len() {
            match stream.write(&state.out[state.out_pos..]) {
                Ok(0) => return None,
                Ok(n) => {
                    state.out_pos += n;
                    if state.out_pos < state.out.len() {
                        self.counters.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.counters.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if state.out_pos == state.out.len() {
            state.out.clear();
            state.out_pos = 0;
        }
        Some(())
    }

    /// Forgets a connection; its socket closes once the last reference
    /// drops, which also removes it from the epoll set.
    fn close(&self, token: u64) {
        let mut registry = self.registry();
        registry.conns.remove(&token);
        self.counters.conns_open.store(registry.conns.len() as u64, Ordering::Relaxed);
        drop(registry);
        self.resume_accepting();
    }
}

/// A running runtime: the shared state plus the worker threads.
pub(crate) struct Handle {
    reactor: Arc<Reactor>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// Starts `workers` threads on a shared epoll over an already-bound
    /// listener.
    ///
    /// # Errors
    /// Propagates epoll/eventfd setup failures.
    pub fn spawn(
        listener: TcpListener,
        service: Arc<Service>,
        workers: usize,
    ) -> std::io::Result<Handle> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let stop = Wakeup::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLONESHOT)?;
        epoll.add(stop.raw_fd(), TOKEN_STOP, EPOLLIN)?;
        let config = service.config();
        let reactor = Arc::new(Reactor {
            epoll,
            listener,
            stop,
            stopping: AtomicBool::new(false),
            accept_paused: AtomicBool::new(false),
            registry: Mutex::new(Registry {
                conns: HashMap::new(),
                next_token: TOKEN_CONN0,
                draining: false,
            }),
            counters: Arc::clone(service.net_counters()),
            max_frame: config.max_frame_bytes,
            max_write_buffer: config.max_write_buffer_bytes,
            service: Arc::clone(&service),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let reactor = Arc::clone(&reactor);
                std::thread::spawn(move || reactor.worker())
            })
            .collect();
        Ok(Handle { reactor, workers })
    }

    /// Graceful drain: stop accepting and half-close every read side.
    /// Frames already received (including those executing) finish and
    /// flush; then each connection sees EOF and closes.
    pub fn request_drain(&self) {
        let mut registry = self.reactor.registry();
        registry.draining = true;
        self.reactor.epoll.del(self.reactor.listener.as_raw_fd());
        for conn in registry.conns.values() {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
    }

    /// Open connections right now.
    pub fn conns_open(&self) -> u64 {
        self.reactor.counters.conns_open.load(Ordering::Relaxed)
    }

    /// Stops the workers and joins them, then closes the listener and
    /// every remaining connection.
    pub fn stop(self) {
        self.reactor.stopping.store(true, Ordering::SeqCst);
        self.reactor.stop.notify();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.reactor.counters.conns_open.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_oneshot_fd_fires_once_until_rearmed() {
        let epoll = Epoll::new().unwrap();
        let wake = Wakeup::new().unwrap();
        epoll.add(wake.raw_fd(), 7, EPOLLIN | EPOLLONESHOT).unwrap();
        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        wake.notify();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        // Still readable, but disarmed: no second event.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Re-arming an fd that is still ready fires at once.
        epoll.modify(wake.raw_fd(), 7, EPOLLIN | EPOLLONESHOT).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
    }

    #[test]
    fn fd_limit_raise_reports_a_usable_limit() {
        assert!(sys::raise_fd_limit() >= 1024 || sys::raise_fd_limit() == 0);
    }
}
