//! Client-side load shapes: an open-loop schedule over at most two
//! connections (one thread each), and a blocking closed-loop client.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scheduled send: one or more newline-terminated frames written
/// together at `due`, producing `responses` response lines.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Send time, as an offset from the start of the window.
    pub due: Duration,
    /// The rendered frames.
    pub bytes: Vec<u8>,
    /// Response lines the frames produce.
    pub responses: usize,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Per slot: how late the generator actually sent it.
    pub lateness: Vec<Duration>,
    /// Per slot: arrival of its last response line, from window start.
    pub done: Vec<Duration>,
    /// Every response line, in arrival order.
    pub lines: Vec<String>,
}

/// How long after the last scheduled send responses may still arrive
/// before the run counts them as lost.
const DRAIN: Duration = Duration::from_secs(30);

/// The longest the generator sleeps at once. On a virtual machine a
/// vCPU left idle for longer may be descheduled by the host, and waking
/// it can take milliseconds; short naps keep the send clock within a
/// fraction of a millisecond at negligible CPU cost.
const MAX_NAP: Duration = Duration::from_millis(2);

/// Runs `plans[i]` on connection `i` (at most two), each on its own
/// thread, against one shared start instant. Latency of a slot is
/// `done − due`: a stall delays every later slot's clock too. `ticker`
/// is polled by the first connection's thread (the caller's) throughout
/// the window.
///
/// # Errors
/// Connection failures and responses missing after the drain timeout.
pub fn open_loop(
    addr: SocketAddr,
    plans: &[Vec<Slot>],
    ticker: &mut Ticker<'_>,
) -> Result<Vec<Observed>, String> {
    assert!(
        plans.len() <= 2,
        "the load generator uses at most two connections"
    );
    let streams = plans
        .iter()
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let mut pairs = streams.into_iter().zip(plans);
        let first = pairs.next();
        let second = pairs
            .next()
            .map(|(s, p)| scope.spawn(move || drive(s, p, start, None)));
        let mut out = Vec::new();
        if let Some((s, p)) = first {
            out.push(drive(s, p, start, Some(ticker)));
        }
        if let Some(handle) = second {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|_| Err("load thread panicked".into())),
            );
        }
        ticker.finish(start.elapsed());
        out.into_iter().collect()
    })
}

fn drive(
    mut stream: TcpStream,
    slots: &[Slot],
    start: Instant,
    mut ticker: Option<&mut Ticker<'_>>,
) -> Result<Observed, String> {
    let expected: usize = slots.iter().map(|s| s.responses).sum();
    // Response line k completes slot `owner[k]` once it is that slot's
    // last line; the server answers one connection's frames in order.
    let owner: Vec<usize> = slots
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.responses))
        .collect();
    let mut obs = Observed {
        lateness: Vec::with_capacity(slots.len()),
        done: vec![Duration::ZERO; slots.len()],
        lines: Vec::with_capacity(expected),
    };
    let give_up = slots.last().map_or(Duration::ZERO, |s| s.due) + DRAIN;
    let mut partial: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0;
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    while obs.lines.len() < expected {
        if let Some(ticker) = ticker.as_deref_mut() {
            ticker.poll(start.elapsed());
        }
        while next < slots.len() && slots[next].due <= start.elapsed() {
            stream
                .write_all(&slots[next].bytes)
                .map_err(|e| format!("send: {e}"))?;
            obs.lateness
                .push(start.elapsed().saturating_sub(slots[next].due));
            next += 1;
        }
        let now = start.elapsed();
        let until = if next < slots.len() {
            slots[next].due
        } else {
            give_up
        };
        if now >= give_up {
            return Err(format!(
                "{} of {expected} responses missing",
                expected - obs.lines.len()
            ));
        }
        // Block for data until the next send is due: the wait doubles as
        // the schedule's timer.
        let nap = until.saturating_sub(now).min(MAX_NAP);
        if !wait_readable(&stream, nap).map_err(|e| format!("poll: {e}"))? {
            continue;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("receive: {e}")),
        };
        let at = start.elapsed();
        let mut rest = &buf[..n];
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            partial.extend_from_slice(&rest[..pos]);
            rest = &rest[pos + 1..];
            let k = obs.lines.len();
            if k >= expected {
                return Err("more responses than frames".into());
            }
            obs.done[owner[k]] = at;
            obs.lines
                .push(String::from_utf8_lossy(&partial).into_owned());
            partial.clear();
        }
        partial.extend_from_slice(rest);
    }
    Ok(obs)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` has data or `timeout` passes. `ppoll` keeps
/// nanosecond timeouts; `SO_RCVTIMEO` would round them up to the
/// kernel's jiffy, which made the schedule run milliseconds late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd`
    // and `struct timespec` values for the whole call (64-bit Linux:
    // `nfds_t` is `unsigned long`, `time_t` and `long` are 64-bit), the
    // count is 1, and a null signal mask means "leave the mask alone".
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Readings of a cumulative counter (the measured process's CPU time)
/// taken about every `every` through a window, so per-interval rates can
/// be compared and a slow stretch of the host outvoted.
pub struct Ticker<'a> {
    probe: &'a dyn Fn() -> f64,
    every: Duration,
    next: Duration,
    /// `(time since window start, reading)`, starting at zero.
    pub readings: Vec<(Duration, f64)>,
}

impl<'a> Ticker<'a> {
    /// A ticker whose first reading is taken now, at time zero.
    pub fn new(probe: &'a dyn Fn() -> f64, every: Duration) -> Ticker<'a> {
        Ticker {
            probe,
            every,
            next: every,
            readings: vec![(Duration::ZERO, probe())],
        }
    }

    /// Takes a reading if an interval boundary has passed.
    pub fn poll(&mut self, now: Duration) {
        if now >= self.next {
            self.readings.push((now, (self.probe)()));
            while self.next <= now {
                self.next += self.every;
            }
        }
    }

    /// Takes the closing reading.
    pub fn finish(&mut self, now: Duration) {
        self.readings.push((now, (self.probe)()));
    }
}

/// A blocking one-request-at-a-time client.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to the server.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one newline-terminated frame and reads one response line.
    ///
    /// # Errors
    /// I/O failures and a closed connection.
    pub fn roundtrip(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}
