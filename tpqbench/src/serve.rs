//! serve-hot and serve-churn: a `tpq serve` process with default settings,
//! driven over two TCP connections.
//!
//! serve-hot: two closed-loop connections draw Zipf(1.0) requests from a
//! pool of distinct Figure-7 queries under one constraint text, after a
//! warm-up that minimizes every pool entry once, so every measured request
//! is a memo hit.
//!
//! serve-churn: one connection replays the serve-hot mix on a fixed
//! schedule (open loop, timed from when each request was due); the other
//! sends only new-schema requests in a closed loop, cycling through more
//! distinct `->>` chain constraint texts than the engine cache holds, so
//! every one of them rebuilds an engine and its closure.
//!
//! The traced half replays each request in-process through the public
//! functions the server calls (with a span around each) and reads the
//! server's own phase timings over the `TIMELINE` and `STATS` verbs.

use crate::check;
use crate::host::{self, CpuTicks};
use crate::inputs::{churn_requests, serve_pool, ChurnRequest, Known};
use crate::report::{self, EndToEnd, Layers, Outcome};
use crate::stats::{best_mean, median};
use crate::trace;
use crate::{Args, RunDir};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tpq_base::{Guard, Json, SmallRng, TypeInterner};
use tpq_workload::Zipf;

/// Distinct queries in the hot pool (each one a memo miss in warm-up).
const POOL: usize = 384;
/// Distinct constraint texts churned through (the engine cache holds 8).
const CHURN_TEXTS: usize = 12;
/// Hot requests per second on serve-churn's scheduled connection.
const CHURN_HOT_RATE: f64 = 1000.0;
/// Pause of the churn client between a reply and its next request. With
/// a closure of about 30 ms this keeps the engine-cache lock busy about
/// three quarters of the time, and lets the queued hot requests drain in
/// every gap, so hot latency measures one closure's wait.
const CHURN_THINK: Duration = Duration::from_millis(12);
/// Server start-ups measured for `setup_s` (the last one is kept).
const STARTS: usize = 21;
/// How long a closed-loop client waits for one response.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `tpq serve` child; killed and reaped if dropped unstopped.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Start the server and time start-up until its first `PING` reply.
    fn start(tpq: &Path) -> Result<(ServerProc, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(tpq)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start tpq serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("tpq serve exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.parse::<SocketAddr>().map_err(|e| format!("bad banner {line:?}: {e}"))?;
            }
        };
        let server = ServerProc { child, addr, _stdout: stdout };
        let mut conn = Conn::open(addr)?;
        let pong = conn.call("PING")?;
        let elapsed = t0.elapsed().as_secs_f64();
        if !pong.contains("\"ok\":true") {
            return Err(format!("unexpected PING reply {pong}"));
        }
        Ok((server, elapsed))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to drain and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.call("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("tpq serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("tpq serve did not drain within 15 s".into()), // Drop kills it.
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes).map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    /// A multi-line verb (`TIMELINE`), read up to its `# EOF` line.
    fn call_multi(&mut self, verb: &str) -> Result<Vec<String>, String> {
        self.send(verb)?;
        let mut lines = Vec::new();
        loop {
            let line = self.recv()?;
            if line == "# EOF" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }
}

/// A minimization request line.
fn request_line(query: &str, constraints: &str) -> String {
    Json::object(vec![
        ("query", Json::Str(query.into())),
        ("constraints", Json::Str(constraints.into())),
    ])
    .to_string_compact()
}

/// A response's minimized query and trace id, or its error.
fn parse_response(line: &str) -> Result<(String, u64), String> {
    let json = Json::parse(line).map_err(|e| format!("bad response ({e}): {line}"))?;
    let trace =
        json.get("trace").and_then(Json::as_str).and_then(|t| u64::from_str_radix(t, 16).ok());
    match (json.get("minimized").and_then(Json::as_str), trace) {
        (Some(m), Some(t)) => Ok((m.to_owned(), t)),
        _ => Err(format!("error response: {line}")),
    }
}

/// The in-process replay of the server's request path for the traced half.
struct Replay {
    types: Mutex<TypeInterner>,
    hits: std::sync::atomic::AtomicU64,
    total: std::sync::atomic::AtomicU64,
}

impl Replay {
    fn new() -> Replay {
        Replay { types: Mutex::new(TypeInterner::new()), hits: 0.into(), total: 0.into() }
    }

    /// Parse, look up the engine, key, minimize through the memo and
    /// render, as the server does, one span per step.
    fn run(&self, query: &str, constraints: &str) {
        use std::sync::atomic::Ordering::Relaxed;
        let (q, ics) = {
            let mut types = self.types.lock().unwrap_or_else(|p| p.into_inner());
            let ics = {
                let _s = trace::span("constraints.parse");
                tpq_constraints::parse_constraints(constraints, &mut types)
                    .expect("constraints parse")
            };
            let q = {
                let _s = trace::span("pattern.parse");
                tpq_pattern::parse_pattern(query, &mut types).expect("query parses")
            };
            (q, ics)
        };
        let engine = {
            let _s = trace::span("core.engine");
            tpq_core::shared_engine(&ics, tpq_core::Strategy::default())
        };
        {
            let _s = trace::span("pattern.canonical_key");
            std::hint::black_box(q.canonical_key());
        }
        let out = {
            let _s = trace::span("core.minimize");
            engine.minimize_cached_guarded(&q, &Guard::unlimited()).expect("unguarded minimize")
        };
        let types = self.types.lock().unwrap_or_else(|p| p.into_inner());
        let _s = trace::span("pattern.print");
        std::hint::black_box(tpq_pattern::print::to_dsl(&out.pattern, &types));
        self.total.fetch_add(1, Relaxed);
        self.hits.fetch_add(u64::from(out.cache_hit), Relaxed);
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Request key (pool entry or churn text) and latency (microseconds)
    /// of every attempted operation; a failed one counts as +inf.
    lat_us: Vec<(usize, f64)>,
    attempted: u64,
    verified: u64,
    defects: Vec<String>,
    /// Trace id → client-observed round trip, nanoseconds (traced half).
    rtt_ns: Vec<(u64, u64)>,
    /// Worst lateness of a scheduled send, microseconds.
    max_send_lag_us: f64,
}

impl ClientLog {
    /// Count a failed operation on request `key` (`usize::MAX` when the
    /// connection itself failed).
    fn fail(&mut self, key: usize, what: String) {
        self.lat_us.push((key, f64::INFINITY));
        if self.defects.len() < 8 {
            self.defects.push(what);
        }
    }

    /// Add this connection's checked operations to `out`.
    fn account(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.attempted - self.verified;
        for d in &self.defects {
            if out.defects.len() < 8 {
                out.defects.push(d.clone());
            }
        }
    }
}

/// The pool as request lines, with the answers verified during warm-up.
struct Hot<'a> {
    pool: &'a [Known],
    lines: Vec<String>,
    constraints: &'a str,
    verified: Vec<String>,
}

impl Hot<'_> {
    /// Check one answer to pool entry `i`: byte-equal to the verified one,
    /// or (if the rendering differs) of the known minimal size.
    fn check(&self, i: usize, minimized: &str) -> Result<(), String> {
        if minimized == self.verified[i] {
            Ok(())
        } else {
            check::minimized_size(minimized, self.pool[i].expected)
        }
    }
}

/// A seeded Zipf(1.0) draw over the pool; entry `i` has popularity rank
/// `i`, so the size profile of the traffic does not depend on the seed.
struct Draw {
    zipf: Zipf,
    rng: SmallRng,
}

impl Draw {
    fn new(n: usize, seed: u64, stream: u64) -> Draw {
        let rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream));
        Draw { zipf: Zipf::new(n, 1.0), rng }
    }

    fn next(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// Closed loop on one connection over the hot pool until `until`.
fn hot_closed(
    addr: SocketAddr,
    hot: &Hot,
    mut draw: Draw,
    until: Instant,
    replay: Option<&Replay>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(usize::MAX, e);
            return log;
        }
    };
    let mut op = 0u64;
    while Instant::now() < until {
        let i = draw.next();
        op += 1;
        let _op = trace::op("serve.op", op);
        log.attempted += 1;
        let t0 = Instant::now();
        let reply = {
            let _s = trace::span("serve.request");
            conn.call(&hot.lines[i])
        };
        let rtt = t0.elapsed();
        match reply.and_then(|r| parse_response(&r)).and_then(|(m, t)| hot.check(i, &m).map(|()| t))
        {
            Ok(t) => {
                log.verified += 1;
                log.lat_us.push((i, rtt.as_secs_f64() * 1e6));
                if let Some(r) = replay {
                    log.rtt_ns.push((t, rtt.as_nanos() as u64));
                    r.run(&hot.pool[i].dsl, hot.constraints);
                }
            }
            Err(e) => {
                log.fail(i, format!("hot request {i}: {e}"));
                if e.starts_with("send failed")
                    || e.starts_with("receive failed")
                    || e.starts_with("server closed")
                {
                    break;
                }
            }
        }
    }
    log
}

/// Open loop on one connection: a hot request every `1/rate` seconds
/// until `until`, latency timed from when each request was due.
fn hot_open(
    addr: SocketAddr,
    hot: &Hot,
    mut draw: Draw,
    rate: f64,
    until: Instant,
    replay: Option<&Replay>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(usize::MAX, e);
            return log;
        }
    };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut next_due = Instant::now();
    let mut pending: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let drain_deadline = until + IO_TIMEOUT;
    loop {
        let now = Instant::now();
        if now >= until && pending.is_empty() {
            break;
        }
        if now >= drain_deadline {
            for (_, i) in pending.drain(..) {
                log.fail(i, format!("hot request {i}: no response within {IO_TIMEOUT:?}"));
            }
            break;
        }
        while next_due <= now && next_due < until {
            let i = draw.next();
            log.attempted += 1;
            log.max_send_lag_us = log.max_send_lag_us.max((now - next_due).as_secs_f64() * 1e6);
            if let Err(e) = conn.send(&hot.lines[i]) {
                log.fail(i, format!("hot request {i}: {e}"));
                return log;
            }
            pending.push_back((next_due, i));
            next_due += interval;
        }
        let wait = if next_due < until {
            next_due.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        let _ = conn.stream.set_read_timeout(Some(wait.max(Duration::from_micros(100))));
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                for (_, i) in pending.drain(..) {
                    log.fail(i, format!("hot request {i}: server closed the connection"));
                }
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                for (_, i) in pending.drain(..) {
                    log.fail(i, format!("hot request {i}: receive failed: {e}"));
                }
                break;
            }
        }
        let arrived = Instant::now();
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let Some((due, i)) = pending.pop_front() else {
                log.attempted += 1;
                log.fail(usize::MAX, "unsolicited response".into());
                continue;
            };
            let text = String::from_utf8_lossy(&line);
            let lat = arrived - due;
            match parse_response(text.trim_end()).and_then(|(m, t)| hot.check(i, &m).map(|()| t)) {
                Ok(t) => {
                    log.verified += 1;
                    log.lat_us.push((i, lat.as_secs_f64() * 1e6));
                    if let Some(r) = replay {
                        log.rtt_ns.push((t, lat.as_nanos() as u64));
                        let _op = trace::op("serve.op", log.verified);
                        r.run(&hot.pool[i].dsl, hot.constraints);
                    }
                }
                Err(e) => log.fail(i, format!("hot request {i}: {e}")),
            }
        }
    }
    log
}

/// Closed loop of new-schema requests, with a fixed pause between a
/// reply and the next request, until `until`.
fn churn_closed(
    addr: SocketAddr,
    churn: &[ChurnRequest],
    lines: &[String],
    until: Instant,
    replay: Option<&Replay>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(usize::MAX, e);
            return log;
        }
    };
    let mut j = 0usize;
    while Instant::now() < until {
        if j > 0 {
            std::thread::sleep(CHURN_THINK);
        }
        let i = j % churn.len();
        j += 1;
        let _op = trace::op("serve.op", j as u64);
        log.attempted += 1;
        let t0 = Instant::now();
        let reply = {
            let _s = trace::span("serve.request");
            conn.call(&lines[i])
        };
        let rtt = t0.elapsed();
        let checked = reply
            .and_then(|r| parse_response(&r))
            .and_then(|(m, t)| check::minimized_size(&m, churn[i].query.expected).map(|()| t));
        match checked {
            Ok(t) => {
                log.verified += 1;
                log.lat_us.push((i, rtt.as_secs_f64() * 1e6));
                if let Some(r) = replay {
                    log.rtt_ns.push((t, rtt.as_nanos() as u64));
                    r.run(&churn[i].query.dsl, &churn[i].constraints);
                }
            }
            Err(e) => {
                log.fail(i, format!("churn request {i}: {e}"));
                if e.starts_with("send failed")
                    || e.starts_with("receive failed")
                    || e.starts_with("server closed")
                {
                    break;
                }
            }
        }
    }
    log
}

/// One measured window: the clients of the workload, run to `window`.
/// Returns (hot logs, churn log, wall seconds).
fn drive(
    addr: SocketAddr,
    hot: &Hot,
    churn: Option<(&[ChurnRequest], &[String])>,
    seed: u64,
    stream: u64,
    window: Duration,
    replay: Option<&Replay>,
) -> (Vec<ClientLog>, Option<ClientLog>, f64) {
    let t0 = Instant::now();
    let until = t0 + window;
    let n = hot.pool.len();
    let (hot_logs, churn_log) = std::thread::scope(|s| match churn {
        None => {
            let a =
                s.spawn(move || hot_closed(addr, hot, Draw::new(n, seed, stream), until, replay));
            let b = s.spawn(move || {
                hot_closed(addr, hot, Draw::new(n, seed, stream + 1), until, replay)
            });
            (vec![a.join().expect("client thread"), b.join().expect("client thread")], None)
        }
        Some((reqs, lines)) => {
            let a = s.spawn(move || {
                hot_open(addr, hot, Draw::new(n, seed, stream), CHURN_HOT_RATE, until, replay)
            });
            let b = s.spawn(move || churn_closed(addr, reqs, lines, until, replay));
            (vec![a.join().expect("client thread")], Some(b.join().expect("client thread")))
        }
    });
    (hot_logs, churn_log, t0.elapsed().as_secs_f64())
}

/// The connections whose answers measure how fast the server answers:
/// both hot ones on serve-hot; on serve-churn only the closed-loop
/// new-schema one, because the hot connection there sends on a fixed
/// schedule whatever the server does.
fn served<'a>(hot_logs: &'a [ClientLog], churn_logs: &'a [ClientLog]) -> &'a [ClientLog] {
    if churn_logs.is_empty() {
        hot_logs
    } else {
        churn_logs
    }
}

/// Warm a fresh server up: every pool entry once (memo misses), over both
/// connections at once so the misses are timed under load. Returns each
/// entry's round trip in milliseconds and its answer, checked against
/// the known minimal size.
fn warm_up(addr: SocketAddr, hot: &Hot) -> Vec<(usize, f64, Result<String, String>)> {
    std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                s.spawn(move || {
                    let entries = (half..hot.pool.len()).step_by(2);
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            return entries
                                .map(|i| (i, f64::INFINITY, Err(e.clone())))
                                .collect::<Vec<_>>()
                        }
                    };
                    entries
                        .map(|i| {
                            let t0 = Instant::now();
                            let reply = conn.call(&hot.lines[i]).and_then(|r| parse_response(&r));
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let checked = reply.and_then(|(m, _)| {
                                check::minimized_size(&m, hot.pool[i].expected).map(|()| m)
                            });
                            (i, ms, checked)
                        })
                        .collect()
                })
            })
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("warm-up thread")).collect()
    })
}

pub fn run(args: &Args, dir: &RunDir, churn_mode: bool) -> Result<Outcome, String> {
    let tpq = crate::build_tpq(&dir.root)?;
    let pool = serve_pool(args.seed, POOL);
    let churn = churn_mode.then(|| churn_requests(args.seed, CHURN_TEXTS));
    let churn_lines: Vec<String> =
        churn.iter().flatten().map(|r| request_line(&r.query.dsl, &r.constraints)).collect();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: {} distinct pool queries, {} constraint lines{}",
        pool.queries.len(),
        pool.constraints.lines().count(),
        match &churn {
            Some(c) => format!(
                ", {} churn texts of {}-{} edges, hot schedule {CHURN_HOT_RATE}/s",
                c.len(),
                c.iter().map(|r| r.constraints.lines().count()).min().unwrap_or(0),
                c.iter().map(|r| r.constraints.lines().count()).max().unwrap_or(0)
            ),
            None => String::new(),
        }
    ));

    // Set-up: start-up until the first PING reply, several times.
    let mut setup = Vec::new();
    for _ in 1..STARTS {
        let (server, s) = ServerProc::start(&tpq)?;
        setup.push(s);
        server.shutdown()?;
    }
    let (server, s) = ServerProc::start(&tpq)?;
    setup.push(s);

    let mut hot = Hot {
        pool: &pool.queries,
        lines: pool.queries.iter().map(|k| request_line(&k.dsl, &pool.constraints)).collect(),
        constraints: &pool.constraints,
        verified: vec![String::new(); pool.queries.len()],
    };
    // A wrong warm-up answer is a failed operation; its entry keeps no
    // verified answer, so every later answer to it is checked again.
    let mut warm_ms = Vec::new();
    for (i, ms, checked) in warm_up(server.addr, &hot) {
        out.attempted += 1;
        warm_ms.push(ms);
        match checked {
            Ok(m) => hot.verified[i] = m,
            Err(e) => out.fail(format!("warm-up of pool entry {i}: {e}")),
        }
    }

    let ticks0 = CpuTicks::now();
    let churn_ref = churn.as_deref().map(|c| (c, churn_lines.as_slice()));
    let cpu0 = host::process_cpu_ms(server.pid()).map_err(|e| e.to_string())?;
    let (hot_logs, churn_log, wall) =
        drive(server.addr, &hot, churn_ref, args.seed, 0, args.window(), None);
    let cpu_ms = host::process_cpu_ms(server.pid()).map_err(|e| e.to_string())? - cpu0;
    let churn_logs: Vec<ClientLog> = churn_log.into_iter().collect();
    for log in hot_logs.iter().chain(&churn_logs) {
        log.account(&mut out);
    }
    let rss = host::peak_rss_mb(&server.pid().to_string()).map_err(|e| e.to_string())?;

    let mut e2e = EndToEnd::default();
    e2e.set("setup_s", median(&setup), setup.len());
    // The best time of each hot pool entry; on serve-churn that is the
    // scheduled connection, whose requests wait behind closures.
    let (best, timed) = best_mean(hot_logs.iter().flat_map(|l| l.lat_us.iter().copied()));
    e2e.set("latency_best_us", best, timed);
    e2e.set("peak_rss_mb", rss, 1);
    let hot_lat: Vec<f64> =
        hot_logs.iter().flat_map(|l| l.lat_us.iter().map(|&(_, v)| v)).collect();
    out.notes.push(format!(
        "latency = hot request round trip; {} requests over {timed} pool entries",
        hot_lat.len()
    ));
    report::latency_notes(&hot_lat, &mut out.notes);
    let verified: u64 = served(&hot_logs, &churn_logs).iter().map(|l| l.verified).sum();
    let ops_per_s = verified as f64 / wall;
    let requests: u64 = hot_logs.iter().chain(&churn_logs).map(|l| l.attempted).sum();
    out.notes.push(format!(
        "ops_per_s {ops_per_s:.1}, server cpu_ms_per_kop {:.1} (printed only)",
        cpu_ms / (requests.max(1) as f64 / 1e3)
    ));
    if churn_mode {
        let ms: Vec<f64> =
            churn_logs.iter().flat_map(|c| c.lat_us.iter().map(|&(_, u)| u / 1e3)).collect();
        out.notes.push(format!("new-schema requests: p50 {:.3} ms", median(&ms)));
    }
    out.notes.push(format!(
        "warm-up (first sight of each pool entry at start-up): p50 {:.4} ms",
        median(&warm_ms)
    ));
    if let Some(lag) =
        hot_logs.iter().map(|l| l.max_send_lag_us).reduce(f64::max).filter(|_| churn_mode)
    {
        out.notes.push(format!("hot schedule: worst send lateness {lag:.0} us"));
    }

    let mut layers = Layers::default();
    if args.trace {
        traced_half(args, dir, &server, &hot, churn_ref, &mut out, &mut layers, ops_per_s)?;
    }
    let steal = ticks0.steal_share_until(&CpuTicks::now());
    out.notes.push(format!("host.steal_share {steal:.4}"));
    server.shutdown()?;
    if args.trace {
        layers.set("host.steal_share", steal);
        out.notes.push(format!("layers not exercised here: {}", layers.idle().join(" ")));
        out.metrics = layers.finish();
    } else {
        out.metrics = e2e.finish();
    }
    Ok(out)
}

/// The traced half: the same clients with an in-process replay of every
/// answered request, then the server's phase timings joined by trace id.
#[allow(clippy::too_many_arguments)]
fn traced_half(
    args: &Args,
    dir: &RunDir,
    server: &ServerProc,
    hot: &Hot,
    churn: Option<(&[ChurnRequest], &[String])>,
    out: &mut Outcome,
    layers: &mut Layers,
    untraced_ops_per_s: f64,
) -> Result<(), String> {
    let replay = Replay::new();
    // Warm the in-process engine as the server's was warmed.
    for k in hot.pool {
        replay.run(&k.dsl, hot.constraints);
    }
    replay.hits.store(0, std::sync::atomic::Ordering::Relaxed);
    replay.total.store(0, std::sync::atomic::Ordering::Relaxed);
    // The closure of each distinct constraint text, measured once.
    let mut closed_len = Vec::new();
    {
        let mut types = TypeInterner::new();
        let texts: Vec<&str> = std::iter::once(hot.constraints)
            .chain(churn.iter().flat_map(|(reqs, _)| reqs.iter().map(|r| r.constraints.as_str())))
            .collect();
        trace::set_enabled(true);
        for (i, text) in texts.iter().enumerate() {
            let ics =
                tpq_constraints::parse_constraints(text, &mut types).map_err(|e| e.to_string())?;
            let _s = trace::op("constraints.closure", i as u64);
            closed_len.push(ics.closure().len() as f64);
        }
        trace::set_enabled(false);
    }
    let drop_closures = trace::drain();

    trace::set_enabled(true);
    let (hot_logs, churn_log, wall) =
        drive(server.addr, hot, churn, args.seed, 2, args.window(), Some(&replay));
    trace::set_enabled(false);
    let mut spans = drop_closures;
    spans.extend(trace::drain());
    let churn_logs: Vec<ClientLog> = churn_log.into_iter().collect();
    let verified: u64 = served(&hot_logs, &churn_logs).iter().map(|l| l.verified).sum();
    let mut rtt: HashMap<u64, u64> = HashMap::new();
    for log in hot_logs.into_iter().chain(churn_logs) {
        rtt.extend(log.rtt_ns.iter().copied());
        log.account(out);
    }

    // The server's side: phase timings of the newest requests, and totals.
    let mut conn = Conn::open(server.addr)?;
    let timeline = conn.call_multi("TIMELINE 1024")?;
    let stats = Json::parse(&conn.call("STATS")?).map_err(|e| e.to_string())?;
    let (mut queue, mut parse, mut minimize, mut render, mut unattributed, mut outside) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for line in &timeline {
        let Ok(rec) = Json::parse(line) else { continue };
        let trace =
            rec.get("trace").and_then(Json::as_str).and_then(|t| u64::from_str_radix(t, 16).ok());
        let Some(client_rtt) = trace.and_then(|t| rtt.get(&t)) else { continue };
        let ns = |k: &str| {
            rec.get("phases_ns").and_then(|p| p.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let total = rec.get("total_ns").and_then(Json::as_f64).unwrap_or(0.0);
        let phases = [ns("queue"), ns("parse"), ns("minimize"), ns("render")];
        queue.push(phases[0]);
        parse.push(phases[1]);
        minimize.push(phases[2]);
        render.push(phases[3]);
        unattributed.push(total - phases.iter().sum::<f64>());
        outside.push(*client_rtt as f64 - total);
    }
    let mean_us = |v: &[f64]| crate::stats::mean(v) / 1e3;
    layers.set("serve.queue_us", mean_us(&queue));
    layers.set("serve.parse_us", mean_us(&parse));
    layers.set("serve.minimize_us", mean_us(&minimize));
    layers.set("serve.render_us", mean_us(&render));
    layers.set("serve.unattributed_us", mean_us(&unattributed));
    layers.set("serve.outside_us", mean_us(&outside));
    out.notes
        .push(format!("{} flight records joined to client round trips by trace id", queue.len()));
    let get = |path: &[&str]| -> f64 {
        let mut j = &stats;
        for p in path {
            match j.get(p) {
                Some(next) => j = next,
                None => return 0.0,
            }
        }
        j.as_f64().unwrap_or(0.0)
    };
    layers.set("serve.shed", get(&["shed", "total"]));
    layers.set("obs.flight_dropped", get(&["flight", "dropped"]));
    let stalls = stats
        .get("obs")
        .and_then(|o| o.get("counters"))
        .and_then(Json::as_array)
        .and_then(|cs| {
            cs.iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some("serve.backpressure.stalls"))
        })
        .and_then(|c| c.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    layers.set("serve.backpressure_stalls", stalls);

    let self_ns = trace::self_times(&spans);
    let by_name = trace::by_name(&spans, &self_ns);
    crate::write_trace(dir, &spans, &self_ns, &by_name, out);
    layers.record_spans(&by_name);
    layers.set("constraints.closed_len", crate::stats::mean(&closed_len));
    let total = replay.total.load(std::sync::atomic::Ordering::Relaxed);
    let hits = replay.hits.load(std::sync::atomic::Ordering::Relaxed);
    layers.set("core.memo_hit_ratio", hits as f64 / total.max(1) as f64);
    let traced = verified as f64 / wall;
    layers.set("trace.overhead_ratio", traced / untraced_ops_per_s.max(1e-12));
    Ok(())
}
