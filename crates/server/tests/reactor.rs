//! The network runtime's regression suite: slowloris byte-at-a-time
//! delivery, oversized-frame resync, partial final frames, pipelining
//! order, graceful and remote shutdown, prompt stop. On top of that,
//! the bounded-everything guarantees: a non-reading client is
//! disconnected once its output buffer hits the cap (instead of being
//! buffered without bound), a half-closed client that stops reading
//! costs no wakeups, an exhausted descriptor table makes the accept
//! path back off instead of spinning, and the thread count stays
//! O(workers) while hundreds of idle connections are parked.

mod common;

use common::{open_frame, query_frame, spawn_server, Shadow, SCHEMA};
use car_server::protocol::WireQuery;
use car_server::service::ServerConfig;
use car_server::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ok(response: &str) -> bool {
    response.contains("\"ok\":true")
}

/// Opens the fixture schema and returns the (verified) response.
fn open_fixture(client: &mut Client) {
    let response = client.roundtrip(&open_frame("w", 1, SCHEMA)).expect("open");
    assert!(ok(&response), "open failed: {response}");
}

#[test]
fn ping_pipelining_preserves_response_order() {
    let mut server = spawn_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    for id in 0..32 {
        client.send(&format!("{{\"id\":{id},\"op\":\"ping\"}}")).unwrap();
    }
    for id in 0..32 {
        let response = client.read_response().unwrap();
        assert!(
            response.contains(&format!("\"id\":{id},")),
            "out-of-order response {response}"
        );
    }
    server.stop();
}

#[test]
fn slowloris_byte_at_a_time_frames_still_answer() {
    let mut server = spawn_server(ServerConfig::default());
    let mut slow = Client::connect(server.addr()).unwrap();
    // Three pipelined frames dripped one byte at a time.
    let frames = b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"ping\"}\n{\"id\":3,\"op\":\"ping\"}\n";
    for chunk in frames.chunks(1) {
        slow.send_raw(chunk).unwrap();
        // A concurrent fast client stays fully responsive while the
        // slowloris drips (the event loop must not block on the
        // slow connection).
        if chunk == b"}" {
            let mut fast = Client::connect(server.addr()).unwrap();
            let response = fast.roundtrip("{\"op\":\"ping\"}").unwrap();
            assert!(ok(&response), "fast client starved: {response}");
        }
    }
    for id in 1..=3 {
        let response = slow.read_response().unwrap();
        assert!(
            response.contains(&format!("\"id\":{id},")) && ok(&response),
            "slowloris frame {id} got {response}"
        );
    }
    server.stop();
}

#[test]
fn oversized_frames_resync_at_the_newline() {
    let mut server =
        spawn_server(ServerConfig { max_frame_bytes: 256, ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(&[b"x".repeat(4096).as_slice(), b"\n"].concat()).unwrap();
    let response = client.read_response().unwrap();
    assert!(
        response.contains("frame_too_large"),
        "expected frame_too_large, got {response}"
    );
    // The connection survived and the next frame parses cleanly.
    let response = client.roundtrip("{\"id\":9,\"op\":\"ping\"}").unwrap();
    assert!(ok(&response) && response.contains("\"id\":9,"), "{response}");
    let counters = server.service().net_counters();
    assert_eq!(counters.frames_oversized.load(Ordering::Relaxed), 1);
    server.stop();
}

#[test]
fn partial_final_frames_and_blank_lines() {
    let mut server = spawn_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    // Blank and whitespace-only lines produce no response.
    client.send_raw(b"\n   \n\t\n").unwrap();
    // An unterminated final frame still gets answered after EOF.
    client.send_raw(b"{\"id\":7,\"op\":\"ping\"}").unwrap();
    client.shutdown_write();
    let rest = client.drain();
    assert!(
        rest.contains("\"id\":7,") && ok(&rest),
        "partial final frame got {rest:?}"
    );
    assert_eq!(rest.matches('\n').count(), 1, "blank lines answered");
    server.stop();
}

#[test]
fn query_answers_match_the_shadow() {
    let queries = vec![
        WireQuery::Satisfiable("Student".into()),
        WireQuery::Subsumes { sup: "Person".into(), sub: "Professor".into() },
        WireQuery::Disjoint("Student".into(), "Professor".into()),
        WireQuery::Satisfiable("Nope".into()),
        WireQuery::Coherent,
    ];
    let mut shadow = Shadow::new(SCHEMA);
    let expected = shadow.query(&queries);
    let mut server = spawn_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    open_fixture(&mut client);
    let response = client.roundtrip(&query_frame("w", 2, &queries)).unwrap();
    for answer in &expected {
        let rendered = car_server::json::to_string(answer);
        assert!(
            response.contains(&rendered),
            "answer {rendered} missing from {response}"
        );
    }
    server.stop();
}

#[test]
fn graceful_shutdown_answers_inflight_then_eofs() {
    let mut server = spawn_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    open_fixture(&mut client);
    client.send(&query_frame("w", 3, &[WireQuery::Coherent])).unwrap();
    // Let the frame reach the server before the drain begins (the
    // drain half-closes reads; bytes still on the wire would be a
    // client bug, not a lost in-flight request).
    std::thread::sleep(Duration::from_millis(100));
    let snapshots = server.shutdown();
    assert_eq!(snapshots, 0); // memory-only server writes nothing
    let rest = client.drain();
    assert!(
        rest.contains("\"id\":3,") && ok(&rest),
        "in-flight query lost in shutdown: {rest:?}"
    );
}

#[test]
fn remote_shutdown_drains_and_closes() {
    let mut server =
        spawn_server(ServerConfig { allow_remote_shutdown: true, ..ServerConfig::default() });
    let addr = server.addr();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let response = client.roundtrip("{\"id\":1,\"op\":\"shutdown\"}").unwrap();
        assert!(response.contains("\"shutting_down\":true"), "{response}");
        // After the drain the server closes the connection.
        assert_eq!(client.drain(), "");
    });
    let snapshots = server.serve_until_shutdown();
    assert_eq!(snapshots, 0);
    client_thread.join().unwrap();
}

#[test]
fn stop_is_prompt_without_a_self_connection() {
    let mut server = spawn_server(ServerConfig::default());
    // The old implementation unblocked accept by dialing itself; the
    // eventfd wakeup must not fabricate connections.
    let started = std::time::Instant::now();
    server.stop();
    assert!(started.elapsed() < Duration::from_secs(2), "slow stop");
    let counters = server.service().net_counters();
    assert_eq!(counters.conns_accepted.load(Ordering::Relaxed), 0);
}

/// Builds one query frame whose response is large (many unknown-class
/// answers), for filling kernel buffers deterministically.
fn bulky_frame(id: u64, queries: usize) -> String {
    let queries: Vec<WireQuery> =
        (0..queries).map(|i| WireQuery::Satisfiable(format!("Missing{i}"))).collect();
    query_frame("w", id, &queries)
}

#[test]
fn reactor_backpressure_disconnects_a_nonreading_client() {
    let mut server =
        spawn_server(ServerConfig { max_write_buffer_bytes: 64 * 1024, ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    open_fixture(&mut client);
    // Pipeline responses far past the write-buffer cap without reading.
    // Each response is ~1MB, so the kernel's socket buffers saturate
    // after a handful and the rest must land in the reactor's
    // userspace buffer — which is capped at 64KB here.
    for id in 0..64 {
        if client.send(&bulky_frame(100 + id, 10_000)).is_err() {
            break; // server already dropped us
        }
    }
    // The server must disconnect rather than buffer without bound.
    let counters = Arc::clone(server.service().net_counters());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counters.write_buffer_disconnects.load(Ordering::Relaxed) == 0
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(counters.write_buffer_disconnects.load(Ordering::Relaxed), 1);
    assert!(counters.backpressure_stalls.load(Ordering::Relaxed) >= 1);
    // The server stays healthy for other clients.
    let mut fresh = Client::connect(server.addr()).unwrap();
    let response = fresh.roundtrip("{\"op\":\"ping\"}").unwrap();
    assert!(ok(&response), "{response}");
    server.stop();
}

#[test]
fn reactor_thread_count_is_o_workers_not_o_connections() {
    fn thread_count() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }
    let mut server = spawn_server(ServerConfig::default());
    let baseline = thread_count();
    let mut idle = Vec::new();
    for _ in 0..400 {
        idle.push(TcpStream::connect(server.addr()).unwrap());
    }
    // Wait until the reactor has registered them all.
    let counters = Arc::clone(server.service().net_counters());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counters.conns_open.load(Ordering::Relaxed) < 400
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(counters.conns_open.load(Ordering::Relaxed), 400);
    let with_conns = thread_count();
    assert!(
        with_conns <= baseline + 4,
        "400 idle connections grew threads from {baseline} to {with_conns}"
    );
    // They all still work.
    let mut one = idle.pop().unwrap();
    one.write_all(b"{\"id\":42,\"op\":\"ping\"}\n").unwrap();
    let mut buf = [0u8; 256];
    let n = one.read(&mut buf).unwrap();
    assert!(String::from_utf8_lossy(&buf[..n]).contains("\"id\":42,"));
    drop(idle);
    server.stop();
}

/// A client that pipelines pings into a small receive buffer, half-closes
/// its write side and never reads leaves a connection whose read side is
/// closed while output is still pending. That connection must wait for
/// `EPOLLOUT` alone: re-arming read-hangup interest would fire on every
/// wait, since the hangup never clears.
#[test]
fn reactor_half_closed_nonreader_costs_no_wakeups() {
    const PINGS: u64 = 150_000;
    let mut server = spawn_server(ServerConfig::default());
    let counters = Arc::clone(server.service().net_counters());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    set_socket_buffer(&stream, SO_RCVBUF, 4096);
    stream.write_all(&b"{\"op\":\"ping\"}\n".repeat(PINGS as usize)).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while counters.frames_decoded.load(Ordering::Relaxed) < PINGS {
        assert!(Instant::now() < deadline, "pipelined pings were not all answered");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the worker read the EOF that follows the last frame.
    std::thread::sleep(Duration::from_millis(200));
    assert!(counters.backpressure_stalls.load(Ordering::Relaxed) >= 1);
    assert_eq!(counters.conns_open.load(Ordering::Relaxed), 1, "output still pending");
    let before = counters.wakeups.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs(1));
    let woken = counters.wakeups.load(Ordering::Relaxed) - before;
    assert!(woken <= 100, "{woken} wakeups in one second on an idle half-closed connection");
    drop(stream);
    server.stop();
}

/// A client that always keeps more than a read chunk queued (it pipelines
/// pings from one thread and reads the answers on another) must not keep
/// its worker: with every worker facing such a client, fresh clients'
/// pings still answer promptly, because a worker reads one chunk per turn
/// and then re-arms the connection behind every other ready one. A
/// worker that instead read until a short read would serve a fresh
/// client only when a pipeliner's receive queue happened to run dry; on
/// a 2-vCPU Linux VM that put the median wait at 95-205 ms, against
/// 10-15 ms for one chunk per turn.
#[test]
fn reactor_busy_pipeliners_do_not_starve_a_fresh_client() {
    const WORKERS: usize = 2;
    const ROUNDS: usize = 21;
    let mut server = spawn_server(ServerConfig {
        net_workers: WORKERS.try_into().unwrap(),
        max_write_buffer_bytes: 64 << 20,
        ..ServerConfig::default()
    });
    let counters = Arc::clone(server.service().net_counters());
    let pings = b"{\"op\":\"ping\"}\n".repeat(16 * 1024);
    let mut hogs = Vec::new();
    let mut threads = Vec::new();
    for _ in 0..WORKERS {
        let stream = connect_with_small_segments(server.addr());
        set_socket_buffer(&stream, SO_SNDBUF, 1 << 20);
        let (mut writer, mut reader) = (stream.try_clone().unwrap(), stream.try_clone().unwrap());
        let pings = pings.clone();
        threads.push(std::thread::spawn(move || while writer.write_all(&pings).is_ok() {}));
        threads.push(std::thread::spawn(move || {
            // Reading in large, spaced-out gulps leaves the CPU to the
            // writers and the server.
            let mut buf = vec![0u8; 256 * 1024];
            while matches!(reader.read(&mut buf), Ok(n) if n > 0) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        hogs.push(stream);
    }
    // Wait until both pipeliners are being served.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counters.frames_decoded.load(Ordering::Relaxed) < 100_000 {
        assert!(Instant::now() < deadline, "pipelined pings were not served");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Fresh clients, one after another: each waits only for the turns
    // queued ahead of it, never for a pipeliner to run dry.
    let mut waits = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut fresh = Client::connect(server.addr()).unwrap();
        fresh.stream().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let response = fresh.roundtrip("{\"op\":\"ping\"}").expect("a fresh client was starved");
        assert!(ok(&response), "{response}");
        waits.push(started.elapsed());
    }
    waits.sort();
    let before = counters.frames_decoded.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(50));
    let still_busy = counters.frames_decoded.load(Ordering::Relaxed) > before;
    for stream in &hogs {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for thread in threads {
        thread.join().unwrap();
    }
    server.stop();
    let median = waits[ROUNDS / 2];
    assert!(median < Duration::from_millis(60), "fresh clients waited {waits:?}");
    assert!(still_busy, "the pipeliners stopped before the fresh pings were measured");
}

/// Connects with a 1 KiB maximum segment size. Loopback's 64 KiB segments
/// make the receiver advertise window in whole-segment steps, so its
/// queue runs empty after every window's worth; small segments keep the
/// server's receive queue topped up while it reads.
fn connect_with_small_segments(addr: SocketAddr) -> TcpStream {
    use std::os::fd::FromRawFd;
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const IPPROTO_TCP: i32 = 6;
    const TCP_MAXSEG: i32 = 2;
    let SocketAddr::V4(v4) = addr else { panic!("IPv4 server address expected") };
    let target = SockaddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be_bytes(),
        addr: v4.ip().octets(),
        zero: [0; 8],
    };
    // SAFETY: plain fd syscalls on live stack values; the fd is owned by
    // the returned stream.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        assert!(fd >= 0, "socket");
        let stream = TcpStream::from_raw_fd(fd);
        assert_eq!(setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &1024, 4), 0, "TCP_MAXSEG");
        let len = std::mem::size_of::<SockaddrIn>() as u32;
        assert_eq!(connect(fd, &target, len), 0, "connect");
        stream
    }
}

const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

/// `setsockopt(SO_SNDBUF or SO_RCVBUF)`: std has no setter for socket
/// buffer sizes.
fn set_socket_buffer(stream: &TcpStream, option: i32, bytes: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    // SAFETY: passes a live i32 and its size.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, option, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt({option})");
}

/// A `car-server` child under `ulimit -n 64`, killed on drop.
struct LimitedServer {
    child: Child,
    addr: SocketAddr,
}

impl LimitedServer {
    fn spawn() -> LimitedServer {
        let mut child = Command::new("sh")
            .args(["-c", "ulimit -n 64; exec \"$0\" --addr 127.0.0.1:0"])
            .arg(env!("CARGO_BIN_EXE_car-server"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn car-server");
        let mut reader = BufReader::new(child.stdout.take().expect("server stdout"));
        let addr = loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read server") > 0,
                "car-server exited before listening"
            );
            if let Some((_, addr)) = line.trim_end().rsplit_once("listening on ") {
                break addr.parse().expect("listen address");
            }
        };
        LimitedServer { child, addr }
    }
}

impl Drop for LimitedServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn net_counter(client: &mut Client, key: &str) -> u64 {
    let response = client.roundtrip("{\"op\":\"health\"}").unwrap();
    let health = car_server::json::parse(response.trim_end()).unwrap();
    health
        .get("net")
        .and_then(|net| net.get(key))
        .and_then(car_server::json::Json::as_u64)
        .unwrap_or_else(|| panic!("health.net.{key} missing: {response}"))
}

/// With the descriptor table full, `accept` fails with `EMFILE` while the
/// backlog stays readable. The listener must stay disarmed until a
/// connection closes or a short back-off passes, not be re-armed into
/// the same failure millions of times a second.
#[test]
fn reactor_accept_backs_off_when_descriptors_run_out() {
    let server = LimitedServer::spawn();
    let mut control = Client::connect(server.addr).unwrap();
    let flood: Vec<TcpStream> =
        (0..100).map(|_| TcpStream::connect(server.addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(500));
    let open = net_counter(&mut control, "conns_open");
    assert!(open < 64, "{open} connections open under a 64-descriptor limit");
    drop(flood);
    // The closed flood frees descriptors; the server accepts again.
    let mut fresh = Client::connect(server.addr).unwrap();
    fresh.stream().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let response = fresh.roundtrip("{\"op\":\"ping\"}").unwrap();
    assert!(ok(&response), "{response}");
    let wakeups = net_counter(&mut control, "wakeups");
    assert!(wakeups <= 10_000, "{wakeups} wakeups while the descriptor table was full");
}
