//! The TCP server: socket lifecycle, request dispatch, shutdown.
//!
//! Two I/O engines share everything in this module. The default (Linux)
//! engine is the epoll reactor in [`crate::reactor`]: one thread
//! multiplexes every socket and CPU-bound minimization fans out to the
//! [`tpq_base::pool::TaskPool`], whose completions re-enter the reactor
//! through an eventfd. The `--threaded` fallback in
//! `Server::run_threaded` dedicates one thread per connection instead.
//! Either way `--jobs` bounds CPU concurrency independently of
//! `--max-conns` (socket concurrency), and the protocol semantics —
//! verbs, admission control, tracing, drain — live here, engine-neutral.
//! Engines come from [`tpq_core::shared_engine`], so every connection
//! shares one constraint closure and one canonical-pattern memo cache
//! per constraint set, and all queries are interned through one
//! process-wide [`TypeInterner`] (see [`global_types`]).
//!
//! Shutdown is cooperative: [`ServeHandle::shutdown`] (or a SIGTERM /
//! ctrl-c when signal handling is installed, or the `SHUTDOWN` protocol
//! verb) makes the accept loop stop taking connections; handlers finish
//! the request they are on, answer it, and close; [`Server::run`] then
//! waits for the active-connection count to drain (bounded by
//! [`ServeConfig::drain_ms`]) before joining the worker pool.

use crate::proto::{success_response, ProtoError, Request, Syntax, DEFAULT_MAX_LINE_BYTES};
use crate::snapshot::SnapshotStats;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tpq_base::pool::TaskPool;
use tpq_base::{failpoint, Guard, Json, TypeInterner};
use tpq_constraints::parse_constraints;
use tpq_core::{shared_engine, Strategy};
use tpq_pattern::print::to_dsl;
use tpq_pattern::{parse_pattern, parse_xpath};

/// How often blocked loops (accept, idle reads, drain) re-check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Read timeout on connection sockets; bounds how long an idle
/// connection takes to notice a server shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Server tunables. `Default` gives a loopback development server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Minimization worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// Maximum simultaneous connections; excess connections receive one
    /// `overloaded` error line and are closed.
    pub max_conns: usize,
    /// Server-wide per-request wall-clock deadline (ms). A request's own
    /// `deadline_ms` may tighten but never exceed it.
    pub deadline_ms: Option<u64>,
    /// Server-wide per-request step budget; same capping rule.
    pub budget: Option<u64>,
    /// Strategy for requests that do not name one.
    pub strategy: Strategy,
    /// Upper bound on one request line, in bytes.
    pub max_line_bytes: usize,
    /// How long [`Server::run`] waits for in-flight connections to finish
    /// after shutdown is requested, in milliseconds.
    pub drain_ms: u64,
    /// Install SIGINT/SIGTERM handlers that trigger graceful shutdown
    /// (the `tpq serve` CLI sets this; tests drive shutdown explicitly).
    pub handle_signals: bool,
    /// Slow-query threshold in milliseconds: a request taking at least
    /// this long is logged with its trace id and per-phase breakdown.
    /// `None` disables the slow-query log.
    pub slow_ms: Option<u64>,
    /// Where the slow-query log goes: a file path (appended, created if
    /// missing) or `None` for stderr.
    pub slow_log: Option<std::path::PathBuf>,
    /// Admission-queue bound: requests in flight (executing *or* waiting
    /// on a pool worker) beyond this are shed with a typed `overloaded`
    /// error carrying a `retry_after_ms` hint — before they are parsed,
    /// so a shed request costs almost nothing. Distinct from
    /// [`max_conns`](ServeConfig::max_conns), which gates *connections*
    /// at accept time.
    pub queue_depth: usize,
    /// Write a warm-restart cache snapshot here after the drain completes
    /// (atomically: tmp sibling + rename). `None` disables.
    pub snapshot: Option<PathBuf>,
    /// Restore a snapshot from here at bind time. A missing file is a
    /// normal cold start; a corrupt, truncated, wrong-version or
    /// interner-incompatible file is *rejected* (logged, counted) and the
    /// server starts cold — it never crashes or restores partially.
    pub restore: Option<PathBuf>,
    /// Use the legacy thread-per-connection engine instead of the epoll
    /// reactor (the `--threaded` CLI flag). Ignored off Linux, where the
    /// threaded engine is the only one available.
    pub threaded: bool,
    /// Where the flight recorder dumps its black box (atomically: tmp
    /// sibling + rename) when a worker panics or SIGUSR1 arrives. `None`
    /// disables dumping; the in-memory ring and the `TIMELINE` verb stay
    /// on regardless.
    pub flight_dump: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            jobs: 0,
            max_conns: 64,
            deadline_ms: None,
            budget: None,
            strategy: Strategy::default(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            drain_ms: 5_000,
            handle_signals: false,
            slow_ms: None,
            slow_log: None,
            queue_depth: 256,
            snapshot: None,
            restore: None,
            threaded: false,
            flight_dump: None,
        }
    }
}

/// What one server lifetime did; returned by [`Server::run`].
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the `max_conns` limit.
    pub refused: u64,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with an error response.
    pub requests_failed: u64,
    /// Requests shed with a typed `overloaded` / `injected` error
    /// (admission queue, armed failpoint, or drain flush); a subset of
    /// [`requests_failed`](ServeSummary::requests_failed).
    pub requests_shed: u64,
    /// Where the drain-time snapshot landed, when one was configured and
    /// the write succeeded.
    pub snapshot_written: Option<PathBuf>,
}

/// What the `--restore` attempt at bind time did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreStatus {
    /// `"cold"` (no snapshot configured, or the file does not exist yet),
    /// `"restored"`, or `"rejected"`.
    pub outcome: &'static str,
    /// What the restored snapshot contained (zeroed unless restored).
    pub stats: SnapshotStats,
    /// Why the snapshot was rejected, when it was.
    pub reason: Option<String>,
}

impl Default for RestoreStatus {
    fn default() -> RestoreStatus {
        RestoreStatus { outcome: "cold", stats: SnapshotStats::default(), reason: None }
    }
}

/// Shared mutable server state: counters, the worker pool, config.
/// Crate-visible so the epoll reactor drives the same counters and
/// request path as the threaded engine.
pub(crate) struct ServerState {
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    /// Requests currently being processed (the `serve.inflight` gauge).
    pub(crate) inflight: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) requests_ok: AtomicU64,
    pub(crate) requests_failed: AtomicU64,
    /// Requests shed at the admission queue (`queue_depth` exceeded).
    pub(crate) shed_queue_full: AtomicU64,
    /// Requests shed by the armed `serve.shed` failpoint.
    pub(crate) shed_injected: AtomicU64,
    /// Buffered requests answered with a typed error during drain.
    pub(crate) shed_drain: AtomicU64,
    pub(crate) pool: TaskPool,
    pub(crate) config: ServeConfig,
    pub(crate) started: Instant,
    /// Open slow-query log file (`None` = log to stderr).
    slow_log: Option<Mutex<std::fs::File>>,
    /// What `--restore` did at bind time (immutable afterwards).
    restore: RestoreStatus,
    /// The always-on flight recorder both engines feed; drained by the
    /// `TIMELINE` verb, dumped on worker panic or SIGUSR1.
    pub(crate) flight: tpq_obs::FlightRecorder,
    /// The rolling 60-second window behind the STATS `window` block and
    /// the `tpq_*_1m` METRICS gauges.
    pub(crate) window: tpq_obs::RollingWindow,
}

impl ServerState {
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
            || (self.config.handle_signals && crate::signal::triggered())
    }

    /// Total requests shed across all three reasons.
    pub(crate) fn requests_shed(&self) -> u64 {
        self.shed_queue_full.load(Ordering::Relaxed)
            + self.shed_injected.load(Ordering::Relaxed)
            + self.shed_drain.load(Ordering::Relaxed)
    }
}

/// A clonable handle that can observe and stop a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    state: Arc<ServerState>,
}

impl ServeHandle {
    /// Request graceful shutdown: stop accepting, drain in-flight work.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// Has shutdown been requested (by any route)?
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown_requested()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::Acquire)
    }

    /// What the `--restore` attempt at bind time did.
    pub fn restore_status(&self) -> &RestoreStatus {
        &self.state.restore
    }

    /// Dump the flight recorder to the configured `--flight-dump` path
    /// right now, returning the number of records written. Errors when no
    /// dump path was configured. This is the programmatic twin of sending
    /// the process SIGUSR1.
    pub fn dump_flight(&self) -> std::io::Result<usize> {
        match &self.state.config.flight_dump {
            Some(path) => self.state.flight.dump(path),
            None => Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "no --flight-dump path configured",
            )),
        }
    }
}

/// The process-wide [`TypeInterner`] behind every request the serve layer
/// parses. One interner for the whole process keeps [`TypeId`]s globally
/// consistent, which is what makes sharing canonical-key memo caches
/// across connections (and across [`Server`] instances in tests) sound.
///
/// [`TypeId`]: tpq_base::TypeId
pub fn global_types() -> &'static Mutex<TypeInterner> {
    static TYPES: OnceLock<Mutex<TypeInterner>> = OnceLock::new();
    TYPES.get_or_init(|| Mutex::new(TypeInterner::new()))
}

/// Lock the global interner, recovering from a poisoned lock (the
/// interner is append-only, so a panic mid-intern leaves it usable).
fn lock_types() -> std::sync::MutexGuard<'static, TypeInterner> {
    global_types().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bound, not-yet-running minimization server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listen socket and spawn the worker pool. Also enables the
    /// `tpq-obs` layer so the `STATS` verb has data to report.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let jobs = if config.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.jobs
        };
        tpq_obs::set_enabled(true);
        if config.handle_signals {
            crate::signal::install();
        }
        let slow_log = match &config.slow_log {
            Some(path) => {
                Some(Mutex::new(std::fs::OpenOptions::new().create(true).append(true).open(path)?))
            }
            None => None,
        };
        let restore = restore_at_bind(config.restore.as_deref());
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                inflight: AtomicUsize::new(0),
                accepted: AtomicU64::new(0),
                refused: AtomicU64::new(0),
                requests_ok: AtomicU64::new(0),
                requests_failed: AtomicU64::new(0),
                shed_queue_full: AtomicU64::new(0),
                shed_injected: AtomicU64::new(0),
                shed_drain: AtomicU64::new(0),
                pool: TaskPool::new(jobs),
                config,
                started: Instant::now(),
                slow_log,
                restore,
                flight: tpq_obs::FlightRecorder::default(),
                window: tpq_obs::RollingWindow::new(),
            }),
        })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for observing and stopping this server from other threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { state: Arc::clone(&self.state) }
    }

    /// Serve until shutdown is requested, then drain and return totals.
    ///
    /// On Linux this runs the epoll reactor ([`crate::reactor`]) unless
    /// [`ServeConfig::threaded`] asks for the legacy engine; elsewhere the
    /// threaded engine is the only one. Minimization work runs on the
    /// shared worker pool either way. Returns after in-flight connections
    /// finish (bounded by [`ServeConfig::drain_ms`]).
    pub fn run(self) -> std::io::Result<ServeSummary> {
        #[cfg(target_os = "linux")]
        if !self.state.config.threaded {
            return crate::reactor::run(self.listener, self.state);
        }
        self.run_threaded()
    }

    /// The thread-per-connection engine: one dedicated handler thread per
    /// accepted socket, blocking reads with a short timeout to notice
    /// shutdown.
    fn run_threaded(self) -> std::io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        while !self.state.shutdown_requested() {
            if self.state.config.handle_signals && crate::signal::take_usr1() {
                maybe_dump_flight(&self.state, "SIGUSR1");
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    if state.active.load(Ordering::Acquire) >= state.config.max_conns {
                        refuse_connection(&state, stream);
                        continue;
                    }
                    state.active.fetch_add(1, Ordering::AcqRel);
                    state.accepted.fetch_add(1, Ordering::Relaxed);
                    tpq_obs::incr("serve.conn.accepted", 1);
                    std::thread::spawn(move || {
                        let _active = ActiveGuard(&state);
                        handle_connection(&state, stream);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Refuse new connections from here on; drain the in-flight ones.
        // Handlers notice the shutdown flag, answer the line they are on,
        // flush any further buffered lines with typed drain errors, and
        // close — so every request a client finished sending gets *some*
        // response before the socket goes away.
        drop(self.listener);
        let drain_deadline = Instant::now() + Duration::from_millis(self.state.config.drain_ms);
        while self.state.active.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(finalize(&self.state))
    }
}

/// Join the worker pool, write the drain-time snapshot if one is
/// configured, and summarize the server lifetime. Shared epilogue of both
/// engines — by the time it runs no socket I/O remains.
pub(crate) fn finalize(state: &ServerState) -> ServeSummary {
    state.pool.shutdown();
    // With the pool joined the cache layers are quiescent: snapshot
    // them for the next boot's --restore.
    let snapshot_written = match &state.config.snapshot {
        Some(path) => match crate::snapshot::write_snapshot(path, &lock_types()) {
            Ok(stats) => {
                tpq_obs::incr("snapshot.write.patterns", stats.patterns as u64);
                Some(path.clone())
            }
            Err(e) => {
                eprintln!("tpq-serve: snapshot write to {} failed: {e}", path.display());
                None
            }
        },
        None => None,
    };
    ServeSummary {
        accepted: state.accepted.load(Ordering::Relaxed),
        refused: state.refused.load(Ordering::Relaxed),
        requests_ok: state.requests_ok.load(Ordering::Relaxed),
        requests_failed: state.requests_failed.load(Ordering::Relaxed),
        requests_shed: state.requests_shed(),
        snapshot_written,
    }
}

/// Decrements the active-connection count when the handler exits, even
/// if it panics.
struct ActiveGuard<'a>(&'a ServerState);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Attempt the bind-time snapshot restore. A missing file is a normal
/// cold start (first boot of a `--restore`d deployment); anything else
/// that fails validation is *rejected* — logged to stderr, counted, and
/// the server starts cold.
fn restore_at_bind(path: Option<&std::path::Path>) -> RestoreStatus {
    let Some(path) = path else {
        return RestoreStatus::default();
    };
    if !path.exists() {
        return RestoreStatus::default();
    }
    match crate::snapshot::restore_snapshot(path, &mut lock_types()) {
        Ok(stats) => RestoreStatus { outcome: "restored", stats, reason: None },
        Err(e) => {
            eprintln!("tpq-serve: restore from {} failed: {e}; starting cold", path.display());
            RestoreStatus {
                outcome: "rejected",
                stats: SnapshotStats::default(),
                reason: Some(e.reason),
            }
        }
    }
}

/// Tell an over-limit client why it is being dropped. The stream must
/// still be in blocking mode (freshly accepted sockets are).
pub(crate) fn refuse_connection(state: &ServerState, mut stream: TcpStream) {
    state.refused.fetch_add(1, Ordering::Relaxed);
    tpq_obs::incr("serve.conn.refused", 1);
    let error = ProtoError::overloaded(format!(
        "connection limit of {} reached, try again later",
        state.config.max_conns
    ));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(stream, "{}", error.to_json());
}

/// What the dispatcher wants done with the connection after a line.
pub(crate) enum Flow {
    /// Send this response and keep reading.
    Respond(Json),
    /// Send this pre-rendered multi-line text verbatim (the `METRICS`
    /// exposition) and keep reading. The text carries its own `# EOF`
    /// terminator line so clients can re-frame the stream.
    Raw(String),
    /// Blank line: nothing to send.
    Skip,
    /// Send this response, then trigger graceful server shutdown.
    Shutdown(Json),
}

/// Serve one connection: split the byte stream into lines, dispatch each,
/// write one response line per request.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let t_conn = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'conn: loop {
        // Process every complete line already buffered.
        while let Some(newline) = buffer.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buffer.drain(..=newline).collect();
            let Ok(text) = std::str::from_utf8(&line[..line.len() - 1]) else {
                let e = ProtoError::bad_request("request line is not valid UTF-8");
                let _ = writeln!(stream, "{}", e.to_json());
                break 'conn;
            };
            match dispatch(state, text.trim()) {
                Flow::Skip => {}
                Flow::Respond(json) => {
                    if writeln!(stream, "{json}").is_err() {
                        break 'conn;
                    }
                }
                Flow::Raw(text) => {
                    if stream.write_all(text.as_bytes()).is_err() {
                        break 'conn;
                    }
                }
                Flow::Shutdown(json) => {
                    let _ = writeln!(stream, "{json}");
                    state.shutdown.store(true, Ordering::Release);
                    flush_buffered_on_drain(state, &mut stream, &mut buffer);
                    break 'conn;
                }
            }
            if state.shutdown_requested() {
                // Drained: the in-flight line was answered above; every
                // further buffered line gets a typed drain error instead
                // of vanishing with the socket.
                flush_buffered_on_drain(state, &mut stream, &mut buffer);
                break 'conn;
            }
        }
        // Refuse to buffer a line past the cap — framing is gone, close.
        if buffer.len() > state.config.max_line_bytes {
            let e = ProtoError::bad_request(format!(
                "request line exceeds {} bytes",
                state.config.max_line_bytes
            ));
            let _ = writeln!(stream, "{}", e.to_json());
            state.requests_failed.fetch_add(1, Ordering::Relaxed);
            tpq_obs::incr("serve.request.error", 1);
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // client closed
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.shutdown_requested() && buffer.is_empty() {
                    break; // idle connection during drain
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    tpq_obs::record_duration("serve.conn", t_conn.elapsed());
}

/// Satellite of the drain contract: a connection closing because the
/// server is draining answers every *complete* line still sitting in its
/// read buffer with a typed `overloaded` error (reason `drain`) instead
/// of silently dropping it. A trailing partial line was never a request
/// the client finished sending, so it closes unanswered.
fn flush_buffered_on_drain(state: &ServerState, stream: &mut TcpStream, buffer: &mut Vec<u8>) {
    while let Some(newline) = buffer.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buffer.drain(..=newline).collect();
        let is_request = match std::str::from_utf8(&line[..line.len() - 1]) {
            Ok(text) => !text.trim().is_empty(),
            Err(_) => true, // garbage still deserves a response line
        };
        if !is_request {
            continue;
        }
        let e = drain_shed_error(state, line.len() - 1);
        if writeln!(stream, "{}", e.to_json()).is_err() {
            return;
        }
    }
}

/// Count one buffered request shed by the drain (flight record
/// included; `line_len` is the shed line's size sans newline) and build
/// its typed error. Both engines answer such requests with this instead
/// of letting them vanish with the socket.
pub(crate) fn drain_shed_error(state: &ServerState, line_len: usize) -> ProtoError {
    state.shed_drain.fetch_add(1, Ordering::Relaxed);
    state.requests_failed.fetch_add(1, Ordering::Relaxed);
    tpq_obs::incr("serve.shed.drain", 1);
    tpq_obs::incr("serve.request.error", 1);
    let e = ProtoError::overloaded(
        "server is draining; request was not processed — retry against the restarted server",
    );
    record_flight(
        state,
        FlightDraft::shed(line_len, &e, Instant::now()),
        rendered_len(&e.to_json()),
        false,
    );
    e
}

/// Route one trimmed request line (threaded engine): verbs answer
/// synchronously, JSON requests run to completion on this thread.
fn dispatch(state: &ServerState, line: &str) -> Flow {
    match dispatch_verb(state, line) {
        Some(flow) => flow,
        None => Flow::Respond(handle_request(state, line)),
    }
}

/// The engine-neutral half of dispatch: answer protocol verbs (and the
/// cheap rejections) synchronously, or return `None` for a JSON
/// minimization request, which each engine executes its own way — the
/// threaded engine inline, the reactor on a pool worker.
pub(crate) fn dispatch_verb(state: &ServerState, line: &str) -> Option<Flow> {
    if line.is_empty() {
        return Some(Flow::Skip);
    }
    match line {
        "PING" => Some(Flow::Respond(Json::object(vec![("ok", Json::Bool(true))]))),
        "STATS" => Some(Flow::Respond(stats_json(state))),
        "METRICS" => Some(Flow::Raw(metrics_text(state))),
        "SHUTDOWN" => {
            tpq_obs::incr("serve.shutdown", 1);
            Some(Flow::Shutdown(Json::object(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ])))
        }
        _ if line == "TIMELINE" || line.starts_with("TIMELINE ") => {
            Some(timeline_flow(state, line["TIMELINE".len()..].trim()))
        }
        _ if !line.starts_with('{') => Some(Flow::Respond(
            ProtoError::bad_request(format!(
                "unknown verb '{}' (expected PING, STATS, METRICS, TIMELINE, SHUTDOWN or a JSON object)",
                line.chars().take(32).collect::<String>()
            ))
            .to_json(),
        )),
        _ => None,
    }
}

/// How many flight records a bare `TIMELINE` (no count) returns.
const DEFAULT_TIMELINE_RECORDS: usize = 50;

/// The `TIMELINE [n]` verb: the newest `n` flight records (default
/// [`DEFAULT_TIMELINE_RECORDS`], oldest first) as JSON lines, terminated
/// by `# EOF` exactly like `METRICS`. Reads are non-destructive — the
/// ring keeps its contents for the crash dump — so pollers deduplicate
/// by the records' `seq` field.
fn timeline_flow(state: &ServerState, arg: &str) -> Flow {
    let n = if arg.is_empty() {
        DEFAULT_TIMELINE_RECORDS
    } else {
        match arg.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Flow::Respond(
                    ProtoError::bad_request(format!(
                        "TIMELINE count must be a positive integer, got '{arg}'"
                    ))
                    .to_json(),
                )
            }
        }
    };
    let mut text = tpq_obs::flight_to_json_lines(&state.flight.recent(n));
    text.push_str("# EOF\n");
    Flow::Raw(text)
}

/// The `METRICS` verb: the whole tpq-obs registry plus the server gauges
/// in Prometheus text exposition format, terminated by a `# EOF` line so
/// clients of the line-framed protocol know where the exposition ends.
fn metrics_text(state: &ServerState) -> String {
    let inflight = state.inflight.load(Ordering::Acquire);
    // Queue depth = requests waiting for (not holding) a pool worker.
    let queued = inflight.saturating_sub(state.pool.size());
    let snapshot_age_seconds = match state.restore.outcome {
        "restored" => {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64);
            now_ms.saturating_sub(state.restore.stats.created_unix_ms) as f64 / 1e3
        }
        _ => 0.0,
    };
    let window = state.window.snapshot();
    let gauges = [
        ("serve.inflight", inflight as f64),
        ("serve.connections.active", state.active.load(Ordering::Acquire) as f64),
        ("serve.uptime_seconds", state.started.elapsed().as_secs_f64()),
        ("serve.queue.depth", queued as f64),
        ("serve.queue.limit", state.config.queue_depth as f64),
        ("serve.snapshot.restored", f64::from(u8::from(state.restore.outcome == "restored"))),
        ("serve.snapshot.rejected", f64::from(u8::from(state.restore.outcome == "rejected"))),
        ("serve.snapshot.bytes", state.restore.stats.bytes as f64),
        ("serve.snapshot.age_seconds", snapshot_age_seconds),
        // The rolling 60-second window: RED rates and latency quantiles.
        ("serve.request.rate_1m", window.request_rate()),
        ("serve.error.rate_1m", window.error_rate()),
        ("serve.shed.rate_1m", window.shed_rate()),
        ("serve.request.p50_seconds_1m", window.p50_ns as f64 / 1e9),
        ("serve.request.p95_seconds_1m", window.p95_ns as f64 / 1e9),
        ("serve.request.p99_seconds_1m", window.p99_ns as f64 / 1e9),
        // Flight-recorder health.
        ("serve.flight.recorded", state.flight.recorded() as f64),
        ("serve.flight.dropped", state.flight.dropped() as f64),
    ];
    let mut text = tpq_obs::prometheus(&gauges);
    text.push_str("# EOF\n");
    text
}

/// The `STATS` verb: server totals plus the whole tpq-obs registry.
fn stats_json(state: &ServerState) -> Json {
    Json::object(vec![
        ("uptime_ms", Json::Int(state.started.elapsed().as_millis() as i64)),
        (
            "connections",
            Json::object(vec![
                ("active", Json::Int(state.active.load(Ordering::Acquire) as i64)),
                ("accepted", Json::Int(state.accepted.load(Ordering::Relaxed) as i64)),
                ("refused", Json::Int(state.refused.load(Ordering::Relaxed) as i64)),
            ]),
        ),
        (
            "requests",
            Json::object(vec![
                ("ok", Json::Int(state.requests_ok.load(Ordering::Relaxed) as i64)),
                ("error", Json::Int(state.requests_failed.load(Ordering::Relaxed) as i64)),
                ("inflight", Json::Int(state.inflight.load(Ordering::Acquire) as i64)),
            ]),
        ),
        (
            "shed",
            Json::object(vec![
                ("queue_full", Json::Int(state.shed_queue_full.load(Ordering::Relaxed) as i64)),
                ("injected", Json::Int(state.shed_injected.load(Ordering::Relaxed) as i64)),
                ("drain", Json::Int(state.shed_drain.load(Ordering::Relaxed) as i64)),
                ("total", Json::Int(state.requests_shed() as i64)),
                ("queue_limit", Json::Int(state.config.queue_depth as i64)),
            ]),
        ),
        (
            "snapshot",
            Json::object(vec![
                ("restore", Json::Str(state.restore.outcome.to_owned())),
                ("restored_engines", Json::Int(state.restore.stats.engines as i64)),
                ("restored_patterns", Json::Int(state.restore.stats.patterns as i64)),
                ("bytes", Json::Int(state.restore.stats.bytes as i64)),
                ("created_unix_ms", Json::Int(state.restore.stats.created_unix_ms as i64)),
            ]),
        ),
        (
            "pool",
            Json::object(vec![
                ("workers", Json::Int(state.pool.size() as i64)),
                ("executed", Json::Int(state.pool.executed() as i64)),
            ]),
        ),
        ("window", window_json(&state.window.snapshot())),
        (
            "flight",
            Json::object(vec![
                ("recorded", Json::Int(state.flight.recorded() as i64)),
                ("dropped", Json::Int(state.flight.dropped() as i64)),
                ("capacity", Json::Int(state.flight.capacity() as i64)),
            ]),
        ),
        // Event-ring losses, surfaced top-level (and inside the obs
        // report) so clients notice silent event loss without digging.
        ("events_dropped", Json::Int(tpq_obs::events_dropped() as i64)),
        ("obs", tpq_obs::report().to_json()),
    ])
}

/// The STATS `window` block: the rolling 60-second RED view. `seconds`
/// is the covered span (grows to 60 after the first minute); quantiles
/// are in microseconds, matching the response `stats.micros` field.
fn window_json(w: &tpq_obs::WindowStats) -> Json {
    let errors: Vec<(&str, Json)> =
        w.errors.iter().map(|&(kind, n)| (kind, Json::Int(n as i64))).collect();
    Json::object(vec![
        ("seconds", Json::Int(w.seconds as i64)),
        ("requests", Json::Int(w.requests() as i64)),
        ("ok", Json::Int(w.ok as i64)),
        ("errors", Json::object(errors)),
        ("shed", Json::Int(w.shed as i64)),
        ("request_rate", Json::Float(w.request_rate())),
        ("error_rate", Json::Float(w.error_rate())),
        ("shed_rate", Json::Float(w.shed_rate())),
        ("p50_us", Json::Float(w.p50_ns as f64 / 1e3)),
        ("p95_us", Json::Float(w.p95_ns as f64 / 1e3)),
        ("p99_us", Json::Float(w.p99_ns as f64 / 1e3)),
    ])
}

/// The effective per-request limit for one resource: the tighter of the
/// request's ask and the server's ceiling.
fn effective_limit(requested: Option<u64>, ceiling: Option<u64>) -> Option<u64> {
    match (requested, ceiling) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (r, c) => r.or(c),
    }
}

/// Per-phase wall-clock breakdown of one request, for the slow-query log.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    parse: Duration,
    minimize: Duration,
    render: Duration,
}

/// The protocol spelling of a strategy, for flight records.
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CdmThenAcim => "full",
        Strategy::CimOnly => "cim",
        Strategy::AcimOnly => "acim",
        Strategy::CdmOnly => "cdm",
    }
}

/// Milliseconds since the Unix epoch, for flight-record timestamps.
fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A [`tpq_obs::FlightRecord`] in the making: everything the request
/// path knows before the response is rendered onto the wire. The engine
/// finishing the delivery fills in `bytes_out` and the backpressure flag
/// via [`record_flight`] — the reactor only knows those at completion
/// delivery, after the pool worker is long gone.
#[derive(Debug, Clone)]
pub(crate) struct FlightDraft {
    trace: u64,
    strategy: &'static str,
    queue_ns: u64,
    parse_ns: u64,
    minimize_ns: u64,
    render_ns: u64,
    total_ns: u64,
    bytes_in: u64,
    outcome: &'static str,
    cache_hit: bool,
    shed: bool,
}

impl FlightDraft {
    /// A draft for a request shed before it was parsed (admission queue,
    /// injected fault, or drain flush): no trace, no phases, just the
    /// arrival size, the shed outcome and the (tiny) time spent.
    pub(crate) fn shed(line_len: usize, error: &ProtoError, t0: Instant) -> FlightDraft {
        FlightDraft {
            trace: 0,
            strategy: "-",
            queue_ns: 0,
            parse_ns: 0,
            minimize_ns: 0,
            render_ns: 0,
            total_ns: t0.elapsed().as_nanos() as u64,
            bytes_in: line_len as u64 + 1,
            outcome: error.kind,
            cache_hit: false,
            shed: true,
        }
    }
}

/// Finalize one request's flight record: feed the rolling window, push
/// the record into the ring, and — when the request crashed its worker —
/// dump the black box while the evidence is still in it. Called by both
/// engines at the point where response size and backpressure state are
/// known (write time for the threaded engine, completion delivery for
/// the reactor).
pub(crate) fn record_flight(
    state: &ServerState,
    draft: FlightDraft,
    bytes_out: u64,
    backpressure: bool,
) {
    if draft.outcome == "ok" {
        state.window.record_ok(draft.total_ns);
    } else {
        state.window.record_error(draft.outcome, draft.shed, draft.total_ns);
    }
    let crashed = draft.outcome == "panic";
    state.flight.record(tpq_obs::FlightRecord {
        seq: 0, // assigned by the ring
        t_unix_ms: now_unix_ms(),
        trace: draft.trace,
        verb: "minimize",
        strategy: draft.strategy,
        queue_ns: draft.queue_ns,
        parse_ns: draft.parse_ns,
        minimize_ns: draft.minimize_ns,
        render_ns: draft.render_ns,
        total_ns: draft.total_ns,
        bytes_in: draft.bytes_in,
        bytes_out,
        outcome: draft.outcome,
        cache_hit: draft.cache_hit,
        shed: draft.shed,
        backpressure,
    });
    if crashed {
        maybe_dump_flight(state, "worker panic");
    }
}

/// Dump the flight ring to the configured `--flight-dump` path (no-op
/// without one). `reason` is for the stderr note only.
pub(crate) fn maybe_dump_flight(state: &ServerState, reason: &str) {
    let Some(path) = &state.config.flight_dump else {
        return;
    };
    match state.flight.dump(path) {
        Ok(n) => {
            eprintln!(
                "tpq-serve: flight recorder dumped {n} records to {} ({reason})",
                path.display()
            );
        }
        Err(e) => {
            eprintln!("tpq-serve: flight dump to {} failed: {e} ({reason})", path.display());
        }
    }
}

/// The framed size of a response: its compact rendering plus the newline.
fn rendered_len(json: &Json) -> u64 {
    json.to_string_compact().len() as u64 + 1
}

/// Decrements the in-flight request gauge when the request finishes,
/// even if the handler panics.
struct InflightGuard<'a>(&'a ServerState);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answer one minimization request line on the calling thread (threaded
/// engine): admission control, then the full [`process_request`] path.
fn handle_request(state: &ServerState, line: &str) -> Json {
    let t0 = Instant::now();
    let n_prev = state.inflight.fetch_add(1, Ordering::AcqRel);
    let _inflight = InflightGuard(state);
    // Admission control, before the request is even parsed: shedding has
    // to be cheaper than serving, or it does not protect anything. The
    // fetch_add-then-compare makes the queue_depth bound exact under
    // concurrency (each admitted request observed a distinct n_prev).
    if let Some(shed) = admission_check(state, n_prev) {
        state.requests_failed.fetch_add(1, Ordering::Relaxed);
        tpq_obs::incr("serve.request.error", 1);
        let json = shed.to_json();
        record_flight(state, FlightDraft::shed(line.len(), &shed, t0), rendered_len(&json), false);
        return json;
    }
    let (json, draft) = process_request(state, line, t0, false);
    // The threaded engine writes from this thread, so delivery size is
    // known right here and backpressure does not exist (writes block).
    record_flight(state, draft, rendered_len(&json), false);
    json
}

/// Execute one *admitted* minimization request: mint its trace id
/// (echoed back as the `trace` response field), minimize, bump the
/// outcome counters, feed the slow-query log, and assemble the request's
/// [`FlightDraft`] (the caller records it once delivery size and
/// backpressure are known). `run_inline` says whether the caller already
/// sits on a pool worker (the reactor) — then the minimization runs
/// right here behind the same `pool.task` failpoint and panic shield a
/// [`TaskPool::run`] round-trip would apply — or should block on
/// [`TaskPool::run`] (the threaded engine). `t0` is the request's
/// arrival time; time between `t0` and this call is queue time.
pub(crate) fn process_request(
    state: &ServerState,
    line: &str,
    t0: Instant,
    run_inline: bool,
) -> (Json, FlightDraft) {
    let queue_ns = t0.elapsed().as_nanos() as u64;
    let trace = tpq_obs::fresh_trace_id();
    let _scope = tpq_obs::trace_scope(trace);
    let mut phases = Phases::default();
    let mut draft = FlightDraft {
        trace,
        strategy: "-",
        queue_ns,
        parse_ns: 0,
        minimize_ns: 0,
        render_ns: 0,
        total_ns: 0,
        bytes_in: line.len() as u64 + 1,
        outcome: "ok",
        cache_hit: false,
        shed: false,
    };
    let result = minimize_request(state, line, t0, &mut phases, run_inline, &mut draft);
    let elapsed = t0.elapsed();
    tpq_obs::record_duration("serve.request", elapsed);
    maybe_log_slow(state, line, trace, elapsed, &phases);
    draft.parse_ns = phases.parse.as_nanos() as u64;
    draft.minimize_ns = phases.minimize.as_nanos() as u64;
    draft.render_ns = phases.render.as_nanos() as u64;
    draft.total_ns = elapsed.as_nanos() as u64;
    let json = match result {
        Ok(json) => {
            state.requests_ok.fetch_add(1, Ordering::Relaxed);
            tpq_obs::incr("serve.request.ok", 1);
            json
        }
        Err(e) => {
            state.requests_failed.fetch_add(1, Ordering::Relaxed);
            tpq_obs::incr("serve.request.error", 1);
            draft.outcome = e.kind;
            e.to_json()
        }
    };
    (with_trace(json, trace), draft)
}

/// The admission decision for a request that observed `n_prev` requests
/// already in flight. `None` admits; `Some` is the typed shed error:
/// `overloaded` + `retry_after_ms` when the queue bound is exceeded, or
/// the armed `serve.shed` failpoint's `injected` error (the chaos
/// battery's way of forcing sheds without real overload).
pub(crate) fn admission_check(state: &ServerState, n_prev: usize) -> Option<ProtoError> {
    if let Err(e) = failpoint::hit("serve.shed") {
        state.shed_injected.fetch_add(1, Ordering::Relaxed);
        tpq_obs::incr("serve.shed.injected", 1);
        return Some(ProtoError::from_error(&e));
    }
    if n_prev >= state.config.queue_depth {
        state.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        tpq_obs::incr("serve.shed.queue_full", 1);
        // Back off proportionally to how far past the bound we are,
        // capped: deep overload should not translate into minutes-long
        // client sleeps.
        let excess = (n_prev - state.config.queue_depth) as u64;
        let retry_after_ms = 25u64.saturating_mul(excess + 1).min(1_000);
        return Some(ProtoError::overloaded_retry_after(
            format!(
                "admission queue full ({} requests in flight, bound {})",
                n_prev, state.config.queue_depth
            ),
            retry_after_ms,
        ));
    }
    None
}

/// Append the request's trace id to a response object (success and error
/// responses alike), leaving the established inner shapes untouched.
fn with_trace(json: Json, trace: u64) -> Json {
    match json {
        Json::Object(mut members) => {
            members.push(("trace".to_owned(), Json::Str(tpq_obs::trace_hex(trace))));
            Json::Object(members)
        }
        other => other,
    }
}

/// Write one slow-query log line when the request crossed the configured
/// threshold: trace id, total latency, per-phase breakdown and the
/// (truncated) request line, as one JSON object per line.
fn maybe_log_slow(state: &ServerState, line: &str, trace: u64, elapsed: Duration, phases: &Phases) {
    let Some(slow_ms) = state.config.slow_ms else {
        return;
    };
    if elapsed.as_millis() < u128::from(slow_ms) {
        return;
    }
    tpq_obs::incr("serve.request.slow", 1);
    const MAX_LOGGED_QUERY: usize = 512;
    let truncated: String = line.chars().take(MAX_LOGGED_QUERY).collect();
    let entry = Json::object(vec![
        ("trace", Json::Str(tpq_obs::trace_hex(trace))),
        ("elapsed_ms", Json::Float(elapsed.as_secs_f64() * 1e3)),
        (
            "phases_us",
            Json::object(vec![
                ("parse", Json::Float(phases.parse.as_secs_f64() * 1e6)),
                ("minimize", Json::Float(phases.minimize.as_secs_f64() * 1e6)),
                ("render", Json::Float(phases.render.as_secs_f64() * 1e6)),
            ]),
        ),
        ("request", Json::Str(truncated)),
    ])
    .to_string_compact();
    match &state.slow_log {
        Some(file) => {
            let mut file = file.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let _ = writeln!(file, "{entry}");
        }
        None => eprintln!("tpq-serve slow query: {entry}"),
    }
}

/// Parse, guard and minimize one request, recording the per-phase
/// breakdown into `phases`. The minimization itself runs on the worker
/// pool (`run_inline = false`) or on the calling thread behind the same
/// failpoint-and-shield contract (`run_inline = true`; see
/// [`run_shielded`]).
fn minimize_request(
    state: &ServerState,
    line: &str,
    t0: Instant,
    phases: &mut Phases,
    run_inline: bool,
    draft: &mut FlightDraft,
) -> Result<Json, ProtoError> {
    let t_parse = Instant::now();
    let req = Request::parse(line)?;
    // Parse constraints before the query, under the process-wide
    // interner, so equal constraint text always produces equal
    // constraint sets (the shared-engine and memo-cache key).
    let (query, ics) = {
        let mut types = lock_types();
        let ics = parse_constraints(&req.constraints, &mut types)
            .map_err(|e| ProtoError::from_error(&e))?;
        let query = match req.syntax {
            Syntax::Dsl => parse_pattern(&req.query, &mut types),
            Syntax::Xpath => parse_xpath(&req.query, &mut types),
        }
        .map_err(|e| ProtoError::from_error(&e))?;
        (query, ics)
    };
    phases.parse = t_parse.elapsed();
    let strategy = req.strategy.unwrap_or(state.config.strategy);
    draft.strategy = strategy_name(strategy);
    let guard = {
        let mut builder = Guard::builder();
        if let Some(ms) = effective_limit(req.deadline_ms, state.config.deadline_ms) {
            builder = builder.deadline_ms(ms);
        }
        if let Some(steps) = effective_limit(req.budget, state.config.budget) {
            builder = builder.budget(steps);
        }
        builder.build()
    };
    let engine = shared_engine(&ics, strategy);
    let input_nodes = query.size();
    // Trace identity is thread-local: carry the request's id onto
    // whichever pool worker executes the minimization.
    let trace = tpq_obs::current_trace();
    let t_min = Instant::now();
    let work = move || {
        let _scope = tpq_obs::trace_scope(trace);
        engine.minimize_cached_guarded(&query, &guard)
    };
    let out = if run_inline { run_shielded(work) } else { state.pool.run(work) }
        .map_err(|e| ProtoError::from_error(&e))?;
    phases.minimize = t_min.elapsed();
    draft.cache_hit = out.cache_hit;
    let t_render = Instant::now();
    let minimized = to_dsl(&out.pattern, &lock_types());
    phases.render = t_render.elapsed();
    Ok(success_response(
        minimized,
        input_nodes,
        out.pattern.size(),
        out.cache_hit,
        &out.stats,
        t0.elapsed(),
    ))
}

/// Run `f` on the calling thread under exactly the contract a
/// [`TaskPool`] worker would apply: the `pool.task` failpoint fires
/// first, inside a `catch_unwind` shield, so an injected or genuine
/// panic becomes an [`Error::WorkerPanic`] instead of unwinding the
/// caller. The reactor executes minimizations through this after
/// [`TaskPool::spawn`] has already moved them onto a worker (a nested
/// `pool.run` would deadlock a single-worker pool).
///
/// [`Error::WorkerPanic`]: tpq_base::Error::WorkerPanic
fn run_shielded<R, F>(f: F) -> tpq_base::Result<R>
where
    F: FnOnce() -> tpq_base::Result<R>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        failpoint::hit("pool.task")?;
        f()
    })) {
        Ok(result) => result,
        Err(payload) => {
            Err(tpq_base::Error::WorkerPanic { message: tpq_base::pool::panic_message(payload) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_limit_takes_the_tighter_bound() {
        assert_eq!(effective_limit(None, None), None);
        assert_eq!(effective_limit(Some(5), None), Some(5));
        assert_eq!(effective_limit(None, Some(7)), Some(7));
        assert_eq!(effective_limit(Some(5), Some(7)), Some(5));
        assert_eq!(effective_limit(Some(9), Some(7)), Some(7), "server ceiling wins");
    }

    #[test]
    fn default_config_is_a_loopback_dev_server() {
        let c = ServeConfig::default();
        assert!(c.addr.starts_with("127.0.0.1"));
        assert!(!c.handle_signals);
        assert_eq!(c.max_line_bytes, DEFAULT_MAX_LINE_BYTES);
    }
}
