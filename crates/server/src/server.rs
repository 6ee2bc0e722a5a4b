//! The server proper: config, shared state, accept loop, session loop.
//!
//! One OS thread per connection (the workspace carries no async
//! runtime, and the engine's pipelined executor is synchronous anyway);
//! a session is a plain request/response loop over the
//! [line protocol](crate::protocol). All cross-session state —
//! the engine, the served [`DocumentHandle`], the prepared-plan
//! registry, the [`ResultCache`] and the [`Admission`] budget — lives
//! in one [`ServerState`] shared by `Arc`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{CacheCounters, ExecMetrics, Json, ResultCacheCounters, SessionProfile};
use parking_lot::{Mutex, RwLock};
use rewriting::{PreparedQuery, QueryResults, Uload};
use storage::{DocumentHandle, DocumentVersion};
use uload_error::{Error, Result};

use crate::admission::{Admission, AdmissionError};
use crate::cache::ResultCache;
use crate::conn::{is_poll_timeout, BindAddr, Conn, Listener};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    cancelled_line, done_line, err_line, parse_request, prepared_line, row_line, Request,
    MAX_FRAME_BYTES,
};
use crate::slowlog::{SlowDisposition, SlowLog, SlowQueryEntry};

/// Serving knobs. Builder-style like
/// [`EngineConfig`](rewriting::EngineConfig): start from `default()`,
/// chain `with_*` calls.
///
/// ```
/// use uload_server::{BindAddr, ServerConfig};
/// let cfg = ServerConfig::default()
///     .with_addr(BindAddr::Tcp("127.0.0.1:0".into()))
///     .with_admission(1 << 20, 1 << 18)
///     .with_result_cache(256, 100_000);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen. Default: TCP on a kernel-assigned localhost port.
    pub addr: BindAddr,
    /// Total admission budget in resident tuples, summed over all
    /// concurrently executing (uncached) requests.
    pub admission_total: u64,
    /// Budget one executing request is admitted under — and the ceiling
    /// enforced on its `Residency` gauge while it streams.
    pub admission_per_query: u64,
    /// How long a request waits in the admission queue before `ERR`.
    pub admission_timeout: Duration,
    /// Result-cache capacity in entries (`0` disables it).
    pub result_cache_capacity: usize,
    /// Largest result (rows) worth memoizing; bigger ones are streamed
    /// but not cached.
    pub result_cache_max_rows: usize,
    /// Granularity at which idle sessions and the accept loop notice a
    /// shutdown (and at which a dead client is detected).
    pub idle_poll: Duration,
    /// Pause inserted after each streamed batch (uncached path only).
    /// Zero (the default) streams at full speed; a nonzero value
    /// rate-limits output per session — it also widens the window in
    /// which a mid-stream `CANCEL` is observed, which the cancellation
    /// tests rely on.
    pub stream_throttle: Duration,
    /// Collect server-wide telemetry: latency histograms, registry
    /// counters, per-session `ExecMetrics` (uncached executions run
    /// with per-operator metering forced on — the zero-cost `Meter`
    /// discipline keeps this within the `telemetry_overhead` bench's
    /// ≤5% bound). Off, `METRICS` still answers but histograms and
    /// kernel counters stay empty.
    pub telemetry: bool,
    /// Latency at or above which a request is captured in the
    /// slow-query log.
    pub slow_query_threshold: Duration,
    /// Slow-query ring capacity in entries (`0` disables capture).
    pub slowlog_capacity: usize,
    /// Attach a full `EXPLAIN ANALYZE` profile to the slow-log entries
    /// of completed uncached queries, read off the counters the slow run
    /// itself kept (which also feeds the engine's q-error histograms).
    /// Uncached executions run with
    /// per-operator metering on for this, as they do for `telemetry`.
    pub slowlog_profile: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: BindAddr::Tcp("127.0.0.1:0".into()),
            admission_total: 1 << 20,
            admission_per_query: 1 << 18,
            admission_timeout: Duration::from_secs(5),
            result_cache_capacity: 256,
            result_cache_max_rows: 100_000,
            idle_poll: Duration::from_millis(50),
            stream_throttle: Duration::ZERO,
            telemetry: true,
            slow_query_threshold: Duration::from_millis(250),
            slowlog_capacity: 128,
            slowlog_profile: true,
        }
    }
}

impl ServerConfig {
    /// Listen address.
    pub fn with_addr(mut self, addr: BindAddr) -> ServerConfig {
        self.addr = addr;
        self
    }

    /// Admission budget: `total` tuples shared by all executing
    /// requests, `per_query` tuples per admitted request.
    pub fn with_admission(mut self, total: u64, per_query: u64) -> ServerConfig {
        self.admission_total = total;
        self.admission_per_query = per_query;
        self
    }

    /// Admission-queue wait bound.
    pub fn with_admission_timeout(mut self, d: Duration) -> ServerConfig {
        self.admission_timeout = d;
        self
    }

    /// Result-cache shape: `capacity` entries, `max_rows` per entry.
    pub fn with_result_cache(mut self, capacity: usize, max_rows: usize) -> ServerConfig {
        self.result_cache_capacity = capacity;
        self.result_cache_max_rows = max_rows;
        self
    }

    /// Shutdown/cancel polling granularity.
    pub fn with_idle_poll(mut self, d: Duration) -> ServerConfig {
        self.idle_poll = d;
        self
    }

    /// Per-batch output pacing (zero = full speed).
    pub fn with_stream_throttle(mut self, d: Duration) -> ServerConfig {
        self.stream_throttle = d;
        self
    }

    /// Server-wide telemetry collection on/off.
    pub fn with_telemetry(mut self, on: bool) -> ServerConfig {
        self.telemetry = on;
        self
    }

    /// Slow-query log shape: capture requests at or over `threshold`,
    /// keep the most recent `capacity` (0 disables capture).
    pub fn with_slowlog(mut self, threshold: Duration, capacity: usize) -> ServerConfig {
        self.slow_query_threshold = threshold;
        self.slowlog_capacity = capacity;
        self
    }

    /// Attach `EXPLAIN ANALYZE` profiles to slow-log entries (built
    /// from the offending run's own counters) on/off.
    pub fn with_slowlog_profile(mut self, on: bool) -> ServerConfig {
        self.slowlog_profile = on;
        self
    }

    /// Reject nonsensical combinations up front.
    pub fn validate(&self) -> Result<()> {
        if self.admission_per_query == 0 {
            return Err(Error::Config("admission_per_query must be > 0".into()));
        }
        if self.admission_per_query > self.admission_total {
            return Err(Error::Config(format!(
                "admission_per_query ({}) exceeds admission_total ({}): no request could ever be admitted",
                self.admission_per_query, self.admission_total
            )));
        }
        if self.idle_poll.is_zero() {
            return Err(Error::Config("idle_poll must be > 0".into()));
        }
        Ok(())
    }
}

/// Everything the sessions share.
pub struct ServerState {
    engine: Uload,
    handle: RwLock<DocumentHandle>,
    prepared: RwLock<HashMap<u64, Arc<PreparedQuery>>>,
    cache: ResultCache,
    admission: Admission,
    metrics: ServerMetrics,
    slowlog: SlowLog,
    config: ServerConfig,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    sessions_active: AtomicU64,
    sessions_total: AtomicU64,
}

impl ServerState {
    fn new(engine: Uload, handle: DocumentHandle, config: ServerConfig) -> ServerState {
        ServerState {
            engine,
            handle: RwLock::new(handle),
            prepared: RwLock::new(HashMap::new()),
            cache: ResultCache::new(config.result_cache_capacity, config.result_cache_max_rows),
            admission: Admission::new(
                config.admission_total,
                config.admission_per_query,
                config.admission_timeout,
            ),
            metrics: ServerMetrics::new(),
            slowlog: SlowLog::new(config.slow_query_threshold, config.slowlog_capacity),
            config,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            sessions_active: AtomicU64::new(0),
            sessions_total: AtomicU64::new(0),
        }
    }

    /// The engine this server answers with.
    pub fn engine(&self) -> &Uload {
        &self.engine
    }

    /// Snapshot of the currently served document (cheap `Arc` clone).
    pub fn document(&self) -> DocumentHandle {
        self.handle.read().clone()
    }

    /// Replace the served document. In-flight requests keep streaming
    /// from their snapshot; all result-cache entries for the old
    /// version stop matching at the next lookup (the version is part of
    /// the cache key), so there is no explicit invalidation step.
    pub fn swap_document(&self, doc: xmltree::Document) -> DocumentVersion {
        let mut h = self.handle.write();
        *h = h.reload(doc);
        h.version()
    }

    /// The shared admission budget (for observability and tests).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The shared result cache (for observability and tests).
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The server's global metrics (histograms, counters, gauges).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The slow-query log (drained by the `SLOWLOG` command).
    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// The `METRICS` response: the whole-server observability snapshot
    /// — session/admission/slowlog state, cache counters, the engine's
    /// q-error histograms and the full registry (counters, gauges,
    /// latency histograms). Validated against
    /// `schemas/metrics.schema.json`.
    pub fn metrics_json(&self) -> Json {
        // point-in-time gauges are refreshed at snapshot time
        let admission = Json::obj(vec![
            ("total", Json::Num(self.admission.total() as f64)),
            ("per_query", Json::Num(self.admission.per_query() as f64)),
            ("in_use", Json::Num(self.admission.in_use() as f64)),
            ("peak", Json::Num(self.admission.peak() as f64)),
            (
                "admitted_total",
                Json::Num(self.admission.admitted_total() as f64),
            ),
            (
                "timeouts_total",
                Json::Num(self.admission.timeouts_total() as f64),
            ),
        ]);
        let rc = self.cache.counters();
        let result_cache = Json::obj(vec![
            ("hits", Json::Num(rc.hits as f64)),
            ("misses", Json::Num(rc.misses as f64)),
            ("insertions", Json::Num(rc.insertions as f64)),
            ("evictions", Json::Num(rc.evictions as f64)),
            ("entries", Json::Num(rc.entries as f64)),
            ("hit_rate", Json::Num(rc.hit_rate())),
        ]);
        let canonical = match self.engine.cache_stats() {
            Some(s) => Json::obj(vec![
                ("hits", Json::Num(s.hits as f64)),
                ("misses", Json::Num(s.misses as f64)),
                ("evictions", Json::Num(s.evictions as f64)),
                ("entries", Json::Num(s.entries as f64)),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            (
                "server",
                Json::obj(vec![
                    ("telemetry", Json::Bool(self.config.telemetry)),
                    ("sessions_active", Json::Num(self.sessions_active() as f64)),
                    ("sessions_total", Json::Num(self.sessions_total() as f64)),
                    ("prepared_plans", Json::Num(self.prepared_count() as f64)),
                    ("admission", admission),
                ]),
            ),
            (
                "caches",
                Json::obj(vec![("result", result_cache), ("canonical", canonical)]),
            ),
            ("slowlog", self.slowlog.summary_json()),
            ("q_error", self.engine.q_error().to_json()),
            ("registry", self.metrics.snapshot().to_json()),
        ])
    }

    /// Prepared plans currently registered.
    pub fn prepared_count(&self) -> usize {
        self.prepared.read().len()
    }

    /// Sessions currently connected.
    pub fn sessions_active(&self) -> u64 {
        self.sessions_active.load(Ordering::Relaxed)
    }

    /// Sessions ever accepted.
    pub fn sessions_total(&self) -> u64 {
        self.sessions_total.load(Ordering::Relaxed)
    }

    /// `true` once a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Register a prepared plan under its fingerprint, returning the
    /// fingerprint. Re-preparing an equivalent query is a no-op hit on
    /// the registry.
    fn register(&self, prep: PreparedQuery) -> u64 {
        let fp = prep.fingerprint();
        self.prepared
            .write()
            .entry(fp)
            .or_insert_with(|| Arc::new(prep));
        fp
    }

    /// The plan registered under a fingerprint.
    pub fn prepared_plan(&self, fp: u64) -> Option<Arc<PreparedQuery>> {
        self.prepared.read().get(&fp).cloned()
    }
}

/// A running server: join handle + shared state.
pub struct ServerHandle {
    addr: BindAddr,
    state: Arc<ServerState>,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// The actually-bound listen address (port resolved).
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// The shared server state (stats, admission gauge, caches).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Ask the server to stop: the accept loop exits, idle sessions
    /// disconnect at their next poll, in-flight requests finish.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Block until the accept loop (and every session it spawned) has
    /// exited. Call [`ServerHandle::shutdown`] first, or this blocks
    /// until a client sends `SHUTDOWN`.
    pub fn wait(&self) {
        if let Some(t) = self.accept.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Bind and start serving `handle` with `engine` under `config`.
    /// Returns once the listener is bound; serving happens on
    /// background threads until [`ServerHandle::shutdown`] (or a client
    /// `SHUTDOWN`).
    pub fn start(
        config: ServerConfig,
        engine: Uload,
        handle: DocumentHandle,
    ) -> Result<ServerHandle> {
        config.validate()?;
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let idle = config.idle_poll;
        let state = Arc::new(ServerState::new(engine, handle, config));
        tracing::info!(target: "uload::server", "listening on {addr}");

        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("uload-accept".into())
            .spawn(move || accept_loop(listener, accept_state, idle))
            .map_err(|e| Error::Io(e.to_string()))?;

        Ok(ServerHandle {
            addr,
            state,
            accept: Mutex::new(Some(accept)),
        })
    }
}

fn accept_loop(listener: Listener, state: Arc<ServerState>, idle: Duration) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok(conn) => {
                let id = state.next_session.fetch_add(1, Ordering::Relaxed);
                state.sessions_total.fetch_add(1, Ordering::Relaxed);
                state.sessions_active.fetch_add(1, Ordering::Relaxed);
                let st = Arc::clone(&state);
                let t = std::thread::Builder::new()
                    .name(format!("uload-session-{id}"))
                    .spawn(move || {
                        let _ = session_loop(id, conn, &st);
                        st.sessions_active.fetch_sub(1, Ordering::Relaxed);
                        tracing::debug!(target: "uload::server", "session {id} ended");
                    });
                match t {
                    Ok(t) => sessions.push(t),
                    Err(e) => {
                        state.sessions_active.fetch_sub(1, Ordering::Relaxed);
                        tracing::warn!(target: "uload::server", "spawn failed: {e}");
                    }
                }
                sessions.retain(|t| !t.is_finished());
            }
            Err(ref e) if is_poll_timeout(e) => std::thread::sleep(idle),
            Err(e) => {
                tracing::warn!(target: "uload::server", "accept failed: {e}");
                std::thread::sleep(idle);
            }
        }
    }
    for t in sessions {
        let _ = t.join();
    }
    tracing::info!(target: "uload::server", "accept loop exited");
}

/// Per-session counters behind [`SessionProfile`]. Result-cache hits
/// and misses are attributed to the session that looked them up;
/// insertion/eviction/entry counts in `STATS` come from the shared
/// cache.
#[derive(Default)]
struct SessionCounters {
    queries: u64,
    prepared: u64,
    rows: u64,
    cancelled: u64,
    budget_aborts: u64,
    admission_timeouts: u64,
    rc_hits: u64,
    rc_misses: u64,
    /// Kernel counters absorbed from this session's metered uncached
    /// executions (telemetry on only).
    exec: ExecMetrics,
}

fn session_profile(id: u64, c: &SessionCounters, state: &ServerState) -> SessionProfile {
    let shared = state.cache.counters();
    SessionProfile {
        session_id: id,
        queries: c.queries,
        prepared: c.prepared,
        rows: c.rows,
        cancelled: c.cancelled,
        budget_aborts: c.budget_aborts,
        admission_timeouts: c.admission_timeouts,
        result_cache: ResultCacheCounters {
            hits: c.rc_hits,
            misses: c.rc_misses,
            insertions: shared.insertions,
            evictions: shared.evictions,
            entries: shared.entries,
        },
        canonical: state.engine.cache_stats().map(|s| CacheCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            verdict_entries: s.verdict_entries,
            annotation_entries: s.annotation_entries,
        }),
        exec: c.exec,
    }
}

/// How one `EXEC` ended (drives the terminator line).
enum ExecEnd {
    Done {
        rows: u64,
        cached: bool,
        version: DocumentVersion,
        ns: u64,
    },
    Cancelled {
        rows: u64,
    },
    Failed(String),
}

fn session_loop(id: u64, conn: Box<dyn Conn>, state: &ServerState) -> std::io::Result<()> {
    conn.set_read_timeout_d(Some(state.config.idle_poll))?;
    let mut writer = BufWriter::new(conn.try_clone_box()?);
    let mut reader = BufReader::new(conn.try_clone_box()?);
    // Persistent partial-line buffer: a timed-out (or non-blocking,
    // during mid-stream cancel polling) read may have already consumed
    // a line fragment, which must survive until the newline arrives on
    // a later read. Cleared only once a complete line is parsed.
    let mut line = Vec::new();
    let mut counters = SessionCounters::default();
    tracing::debug!(target: "uload::server", "session {id} started");

    loop {
        loop {
            match read_frame(&mut reader, &mut line) {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => break,
                Err(ref e) if is_poll_timeout(e) => {
                    if state.is_shutting_down() {
                        return Ok(());
                    }
                }
                // the rest of an oversized frame cannot be told apart
                // from the next request: refuse it and end the session
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    send(&mut writer, &err_line(&e.to_string()))?;
                    return close_refused(&mut reader, state.config.idle_poll);
                }
                Err(e) => return Err(e),
            }
        }
        let req = parse_frame(&line);
        line.clear();
        let req = match req {
            Ok(r) => r,
            Err(msg) => {
                send(&mut writer, &err_line(&msg))?;
                continue;
            }
        };
        match req {
            Request::Prepare(text) => {
                let span = tracing::debug_span!(target: "uload::server", "prepare");
                let _g = span.enter();
                let t = Instant::now();
                match state.engine.prepare_query(&text) {
                    Ok(prep) => {
                        counters.prepared += 1;
                        state.metrics.prepares.inc();
                        if state.config.telemetry {
                            state.metrics.prepare_ns.record_duration(t.elapsed());
                        }
                        let fp = state.register(prep);
                        tracing::debug!(
                            target: "uload::server",
                            "session {id}: prepared fp={fp:016x} in {}ns",
                            t.elapsed().as_nanos()
                        );
                        send(&mut writer, &prepared_line(fp))?;
                    }
                    Err(e) => {
                        state.metrics.errors.inc();
                        send(&mut writer, &err_line(&e.to_string()))?
                    }
                }
            }
            Request::Exec(fp) => {
                let span = tracing::debug_span!(target: "uload::server", "exec");
                let _g = span.enter();
                match state.prepared_plan(fp) {
                    Some(prep) => {
                        let end = execute(
                            state,
                            id,
                            &prep,
                            &mut reader,
                            &mut writer,
                            &mut line,
                            &mut counters,
                        )?;
                        finish(&mut writer, fp, end, &mut counters)?;
                    }
                    None => {
                        state.metrics.errors.inc();
                        send(
                            &mut writer,
                            &err_line(&format!("no prepared plan under fingerprint {fp:016x}")),
                        )?
                    }
                }
            }
            Request::Query(text) => {
                let span = tracing::debug_span!(target: "uload::server", "query");
                let _g = span.enter();
                match state.engine.prepare_query(&text) {
                    Ok(prep) => {
                        let fp = state.register(prep);
                        let prep = state.prepared_plan(fp).expect("just registered");
                        let end = execute(
                            state,
                            id,
                            &prep,
                            &mut reader,
                            &mut writer,
                            &mut line,
                            &mut counters,
                        )?;
                        finish(&mut writer, fp, end, &mut counters)?;
                    }
                    Err(e) => {
                        state.metrics.errors.inc();
                        send(&mut writer, &err_line(&e.to_string()))?
                    }
                }
            }
            Request::Explain(text) => {
                let span = tracing::debug_span!(target: "uload::server", "explain");
                let _g = span.enter();
                match state.engine.explain(&text) {
                    Ok(explain) => send(
                        &mut writer,
                        &format!("EXPLAIN {}", explain.to_json().to_string_compact()),
                    )?,
                    Err(e) => {
                        state.metrics.errors.inc();
                        send(&mut writer, &err_line(&e.to_string()))?
                    }
                }
            }
            Request::Stats => {
                let json = session_profile(id, &counters, state).to_json();
                send(&mut writer, &format!("STATS {}", json.to_string_compact()))?;
            }
            Request::Metrics => {
                let json = state.metrics_json();
                send(
                    &mut writer,
                    &format!("METRICS {}", json.to_string_compact()),
                )?;
            }
            Request::Slowlog => {
                let entries = state.slowlog().drain();
                let json = Json::Arr(entries.iter().map(SlowQueryEntry::to_json).collect());
                send(
                    &mut writer,
                    &format!("SLOWLOG {}", json.to_string_compact()),
                )?;
            }
            Request::Cancel => {
                // nothing in flight: acknowledge as a zero-row cancel
                send(&mut writer, &cancelled_line(0))?;
            }
            Request::Shutdown => {
                state.request_shutdown();
                send(&mut writer, "BYE")?;
                return Ok(());
            }
            Request::Quit => {
                send(&mut writer, "BYE")?;
                return Ok(());
            }
        }
    }
}

fn send(w: &mut BufWriter<Box<dyn Conn>>, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn finish(
    w: &mut BufWriter<Box<dyn Conn>>,
    fp: u64,
    end: ExecEnd,
    counters: &mut SessionCounters,
) -> std::io::Result<()> {
    counters.queries += 1;
    match end {
        ExecEnd::Done {
            rows,
            cached,
            version,
            ns,
        } => {
            counters.rows += rows;
            send(w, &done_line(rows, cached, fp, version, ns))
        }
        ExecEnd::Cancelled { rows } => {
            counters.rows += rows;
            counters.cancelled += 1;
            send(w, &cancelled_line(rows))
        }
        ExecEnd::Failed(msg) => send(w, &err_line(&msg)),
    }
}

/// Run one prepared plan for a session, streaming `ROW` lines.
///
/// Cache hit: the memoized rows are written straight out — no
/// admission, no executor, nothing materialized. Miss: admission first
/// (bounded wait), then the
/// engine's streaming cursor with a per-batch ceiling check on its
/// `Residency` gauge and a per-batch poll for a client `CANCEL` (or
/// disconnect); completed results are memoized for the snapshot's
/// document version.
fn execute(
    state: &ServerState,
    session_id: u64,
    prep: &PreparedQuery,
    reader: &mut BufReader<Box<dyn Conn>>,
    writer: &mut BufWriter<Box<dyn Conn>>,
    line: &mut Vec<u8>,
    counters: &mut SessionCounters,
) -> std::io::Result<ExecEnd> {
    let started = Instant::now();
    let telemetry = state.config.telemetry;
    state.metrics.requests.inc();
    let handle = state.document(); // snapshot: swaps don't affect us mid-stream
    let key = (prep.fingerprint(), handle.version());

    if let Some(rows) = state.cache.get(key) {
        counters.rc_hits += 1;
        state.metrics.result_cache_hits.inc();
        for xml in rows.iter() {
            writer.write_all(row_line(xml).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        let elapsed = started.elapsed();
        let n = rows.len() as u64;
        state.metrics.rows_streamed.add(n);
        if telemetry {
            state.metrics.record_cached(elapsed);
        }
        observe_slow(
            state,
            session_id,
            prep,
            elapsed,
            true,
            None,
            n,
            SlowDisposition::Done,
        );
        return Ok(ExecEnd::Done {
            rows: n,
            cached: true,
            version: handle.version(),
            ns: elapsed.as_nanos() as u64,
        });
    }
    counters.rc_misses += 1;
    state.metrics.result_cache_misses.inc();

    state.metrics.queue_depth.inc();
    let wait = Instant::now();
    let acquired = state.admission.acquire();
    state.metrics.queue_depth.dec();
    if telemetry {
        state
            .metrics
            .admission_wait_ns
            .record_duration(wait.elapsed());
    }
    let _permit = match acquired {
        Ok(p) => p,
        Err(AdmissionError::Timeout) => {
            counters.admission_timeouts += 1;
            state.metrics.admission_timeouts.inc();
            state.metrics.errors.inc();
            observe_slow(
                state,
                session_id,
                prep,
                started.elapsed(),
                false,
                None,
                0,
                SlowDisposition::Failed,
            );
            return Ok(ExecEnd::Failed(
                "admission queue full: server at its resident-tuple budget".into(),
            ));
        }
    };

    // with telemetry on, per-operator metering is forced on so kernel
    // counters reach the session and registry totals (the zero-cost
    // `Meter` kernels keep the metered run within the bench's bound);
    // a slow-log profile is read off the same counters
    let stream = if telemetry || state.config.slowlog_profile {
        state.engine.stream_prepared_metered(prep, &handle)
    } else {
        state.engine.stream_prepared(prep, &handle)
    };
    let mut results = match stream {
        Ok(r) => r,
        Err(e) => {
            state.metrics.errors.inc();
            return Ok(ExecEnd::Failed(e.to_string()));
        }
    };

    let per_query = state.admission.per_query();
    let mut emitted: u64 = 0;
    let mut budget_abort = false;
    let mut collected: Option<Vec<String>> = Some(Vec::new());
    let outcome = loop {
        match results.next_batch() {
            Ok(Some(batch)) => {
                for t in batch.tuples.iter() {
                    let xml = t.get(0).as_str().unwrap_or("").to_string();
                    writer.write_all(row_line(&xml).as_bytes())?;
                    writer.write_all(b"\n")?;
                    emitted += 1;
                    if let Some(c) = collected.as_mut() {
                        if c.len() < state.config.result_cache_max_rows {
                            c.push(xml);
                        } else {
                            collected = None; // too big to memoize
                        }
                    }
                }
                writer.flush()?;
                if results.peak_resident_tuples() > per_query {
                    results.close();
                    counters.budget_aborts += 1;
                    budget_abort = true;
                    break ExecEnd::Failed(format!(
                        "per-query budget exceeded: {} resident tuples > {per_query}",
                        results.peak_resident_tuples()
                    ));
                }
                if !state.config.stream_throttle.is_zero() {
                    std::thread::sleep(state.config.stream_throttle);
                }
                match poll_cancel(reader, line)? {
                    Poll::Cancel => {
                        results.close();
                        break ExecEnd::Cancelled { rows: emitted };
                    }
                    Poll::Disconnect => {
                        results.close();
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "client disconnected mid-stream",
                        ));
                    }
                    Poll::Quiet => {}
                }
            }
            Ok(None) => {
                if let Some(rows) = collected.take() {
                    state.cache.insert(key, Arc::new(rows));
                }
                break ExecEnd::Done {
                    rows: emitted,
                    cached: false,
                    version: handle.version(),
                    ns: started.elapsed().as_nanos() as u64,
                };
            }
            Err(e) => {
                results.close();
                break ExecEnd::Failed(e.to_string());
            }
        }
    };

    let elapsed = started.elapsed();
    state
        .metrics
        .residency_high_water
        .set_max(results.peak_resident_tuples());
    if telemetry {
        let sp = results.stream_profile();
        let mut totals = ExecMetrics::default();
        for op in &sp.ops {
            totals.absorb(&op.metrics);
        }
        counters.exec.absorb(&totals);
        state.metrics.absorb_exec(&totals);
    }
    let (rows_out, disposition) = match &outcome {
        ExecEnd::Done { rows, .. } => {
            if telemetry {
                state.metrics.record_uncached(elapsed);
            }
            state.metrics.rows_streamed.add(*rows);
            (*rows, SlowDisposition::Done)
        }
        ExecEnd::Cancelled { rows } => {
            state.metrics.cancelled.inc();
            state.metrics.rows_streamed.add(*rows);
            (*rows, SlowDisposition::Cancelled)
        }
        ExecEnd::Failed(_) => {
            state.metrics.errors.inc();
            if budget_abort {
                state.metrics.budget_aborts.inc();
            }
            (
                emitted,
                if budget_abort {
                    SlowDisposition::BudgetAbort
                } else {
                    SlowDisposition::Failed
                },
            )
        }
    };
    observe_slow(
        state,
        session_id,
        prep,
        elapsed,
        false,
        Some(&results),
        rows_out,
        disposition,
    );
    // the stream drops here and releases its resident state, then the
    // permit
    Ok(outcome)
}

/// Count a request against the slow-query threshold and, when it
/// qualifies, capture it in the ring — for a completed uncached
/// execution (`run`) optionally with its `EXPLAIN ANALYZE` profile, read
/// off the counters the run kept (which also records its q-errors in the
/// engine's histograms). The query is not executed again.
#[allow(clippy::too_many_arguments)]
fn observe_slow(
    state: &ServerState,
    session_id: u64,
    prep: &PreparedQuery,
    latency: Duration,
    cached: bool,
    run: Option<&QueryResults<'_>>,
    rows: u64,
    disposition: SlowDisposition,
) {
    if latency >= state.config.slow_query_threshold {
        state.metrics.slow_queries.inc();
    }
    if !state.slowlog.qualifies(latency) {
        return;
    }
    let profile = run
        .filter(|_| state.config.slowlog_profile && disposition == SlowDisposition::Done)
        .and_then(|run| state.engine.profile_stream(prep, run));
    tracing::debug!(
        target: "uload::server",
        "session {session_id}: slow query fp={:016x} latency={}ns rows={rows} ({})",
        prep.fingerprint(),
        latency.as_nanos(),
        disposition.as_str()
    );
    state.slowlog.record(SlowQueryEntry {
        session_id,
        fingerprint: prep.fingerprint(),
        query: prep.query().to_string(),
        latency_ns: latency.as_nanos() as u64,
        cached,
        rows,
        disposition,
        profile,
    });
}

enum Poll {
    Quiet,
    Cancel,
    Disconnect,
}

/// Read the next piece of one request line into `frame`, as
/// [`BufRead::read_until`] does up to a newline: `Ok(0)` at end of
/// stream, and on a timeout the bytes that did arrive stay in `frame`
/// for the next call. A frame that grows past [`MAX_FRAME_BYTES`]
/// without its newline is refused with an `InvalidData` error, so one
/// client cannot grow the buffer without bound.
fn read_frame(
    reader: &mut BufReader<Box<dyn Conn>>,
    frame: &mut Vec<u8>,
) -> std::io::Result<usize> {
    // one byte past the cap: room for the newline of a full-size frame
    let room = (MAX_FRAME_BYTES + 1).saturating_sub(frame.len()) as u64;
    let read = reader.by_ref().take(room).read_until(b'\n', frame);
    if frame.len() > MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame exceeds {MAX_FRAME_BYTES} bytes without a newline"),
        ));
    }
    read
}

/// End a session that refused an oversized frame with a clean close, not
/// a reset: shut the write side (the peer reads the `ERR` line, then end
/// of stream), then read and discard what the peer still sends — at most
/// [`MAX_FRAME_BYTES`] more, within one `deadline` — so that closing the
/// socket finds no unread bytes to answer with a reset.
fn close_refused(reader: &mut BufReader<Box<dyn Conn>>, deadline: Duration) -> std::io::Result<()> {
    reader.get_ref().shutdown_d(Shutdown::Write)?;
    let until = Instant::now() + deadline;
    let mut left = MAX_FRAME_BYTES;
    let mut chunk = [0u8; 8 << 10];
    while left > 0 {
        let wait = until.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            break;
        }
        reader.get_ref().set_read_timeout_d(Some(wait))?;
        let take = left.min(chunk.len());
        match reader.read(&mut chunk[..take]) {
            Ok(0) | Err(_) => break,
            Ok(n) => left -= n,
        }
    }
    Ok(())
}

/// Parse one request line read by [`read_frame`].
fn parse_frame(frame: &[u8]) -> std::result::Result<Request, String> {
    std::str::from_utf8(frame)
        .map_err(|_| "request line is not valid UTF-8".to_string())
        .and_then(parse_request)
}

/// Non-blocking peek for a `CANCEL` between batches. A partial line
/// (no newline yet) stays in the session's persistent `line` buffer
/// across polls — and across the end of the stream, so a `CANCEL`
/// whose tail arrives late still parses (as a no-op cancel) in the
/// main loop. Any complete non-`CANCEL` line mid-stream is ignored; an
/// oversized one stays in the buffer, and the main loop refuses it once
/// the stream has ended.
fn poll_cancel(reader: &mut BufReader<Box<dyn Conn>>, line: &mut Vec<u8>) -> std::io::Result<Poll> {
    reader.get_ref().set_nonblocking_d(true)?;
    let mut out = Poll::Quiet;
    loop {
        match read_frame(reader, line) {
            Ok(0) => {
                out = Poll::Disconnect;
                break;
            }
            Ok(_) => {
                let cancel = matches!(parse_frame(line), Ok(Request::Cancel));
                line.clear();
                if cancel {
                    out = Poll::Cancel;
                    break;
                }
                // anything else sent mid-stream is swallowed
            }
            Err(ref e) if is_poll_timeout(e) || e.kind() == ErrorKind::InvalidData => break,
            Err(e) => {
                reader.get_ref().set_nonblocking_d(false)?;
                return Err(e);
            }
        }
    }
    reader.get_ref().set_nonblocking_d(false)?;
    Ok(out)
}
