//! Integration tests of the multi-client query server: concurrent
//! sessions sharing the versioned result cache (identical and
//! rewritten-equivalent query texts), graceful mid-stream cancellation
//! (explicit `CANCEL` and plain disconnect) releasing the `Residency`
//! budget, admission control bounding oversubscribed clients, and
//! document swaps invalidating the cache through the version key.

use std::time::{Duration, Instant};

use uload::json;
use uload::prelude::*;
use uload::server::RowEvent;

const QUERY: &str = r#"for $x in doc("X")//item return <res>{$x/name/text()}</res>"#;
/// Same plan as [`QUERY`] after parsing: whitespace and variable
/// spelling differ, the extracted pattern does not.
const QUERY_EQUIV: &str = r#"for   $y in doc("X")//item   return <res>{$y/name/text()}</res>"#;
const VIEW: &str = "//item[id:s]{ /n? name1:name[val] }";

fn engine_over(doc: &Document, batch_size: usize) -> Uload {
    let mut u = Uload::builder()
        .document(doc)
        .batch_size(batch_size)
        .cache_capacity(1024)
        .build()
        .unwrap();
    u.add_view_text("V", VIEW, doc).unwrap();
    u
}

fn start(doc: Document, batch_size: usize, config: ServerConfig) -> ServerHandle {
    let engine = engine_over(&doc, batch_size);
    Server::start(config, engine, DocumentHandle::new(doc)).unwrap()
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn equivalent_texts_share_a_fingerprint_and_a_cache_entry() {
    let server = start(generate::xmark(2, 13), 64, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();

    let fp = c.prepare(QUERY).unwrap();
    let fp_equiv = c.prepare(QUERY_EQUIV).unwrap();
    assert_eq!(
        fp, fp_equiv,
        "equivalent texts must plan to one fingerprint"
    );
    assert_eq!(server.state().prepared_count(), 1);

    let cold = c.exec(fp).unwrap();
    assert!(!cold.cached && !cold.rows.is_empty());
    let warm = c.exec(fp_equiv).unwrap();
    assert!(warm.cached, "second execution must hit the result cache");
    assert_eq!(cold.rows, warm.rows);

    // the full-text QUERY path lands on the same cache entry too
    let via_query = c.query(QUERY_EQUIV).unwrap();
    assert!(via_query.cached);
    assert_eq!(via_query.fingerprint, fp);

    let stats = json::parse(&c.stats_json().unwrap()).unwrap();
    let rc = stats.get("result_cache").unwrap();
    assert_eq!(rc.get("hits").unwrap().as_f64().unwrap(), 2.0);
    assert_eq!(rc.get("misses").unwrap().as_f64().unwrap(), 1.0);
    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn concurrent_sessions_hit_the_shared_caches() {
    let server = start(generate::xmark(2, 13), 64, ServerConfig::default());
    let addr = server.addr().clone();

    // round 1: populate (exactly one session inserts; racing sessions
    // may each miss once). round 2: everyone must hit.
    let mut warm = Client::connect(&addr).unwrap();
    let baseline = warm.query(QUERY).unwrap();
    assert!(!baseline.cached);

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let want = baseline.rows.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                // alternate identical and rewritten-equivalent spellings
                let text = if i % 2 == 0 { QUERY } else { QUERY_EQUIV };
                let reply = c.query(text).unwrap();
                assert!(reply.cached, "client {i} missed a warm cache");
                assert_eq!(reply.rows, want, "client {i} rows diverged");
                c.quit().unwrap();
            })
        })
        .collect();
    for t in clients {
        t.join().unwrap();
    }

    // shared result cache: 1 miss (the warm-up), 4 hits
    let counters = server.state().result_cache().counters();
    assert_eq!(counters.hits, 4);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.entries, 1);

    // the rewriting layer's CanonicalCache served repeat preparations
    let stats = json::parse(&warm.stats_json().unwrap()).unwrap();
    let canonical = stats.get("canonical_cache").unwrap();
    assert!(
        canonical.get("hits").unwrap().as_f64().unwrap() > 0.0,
        "concurrent equivalent queries never hit the CanonicalCache"
    );
    warm.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn cancel_mid_stream_releases_budget_and_leaves_server_serving() {
    // one-row batches and a per-batch throttle → the stream is reliably
    // still in flight when the CANCEL lands
    let config = ServerConfig::default().with_stream_throttle(Duration::from_millis(20));
    let server = start(generate::xmark(3, 13), 1, config);
    let mut c = Client::connect(server.addr()).unwrap();
    let fp = c.prepare(QUERY).unwrap();

    c.start_exec(fp).unwrap();
    let mut seen = 0u64;
    // read a couple of rows, then cancel mid-stream
    let outcome = loop {
        match c.next_event().unwrap() {
            RowEvent::Row(_) => {
                seen += 1;
                if seen == 2 {
                    c.cancel().unwrap();
                }
            }
            other => break other,
        }
    };
    match outcome {
        RowEvent::Cancelled { rows } => assert!(rows >= 2, "cancel lost delivered rows"),
        other => panic!("expected CANCELLED, got {other:?}"),
    }

    // the admission permit must be back and the residency released
    wait_until("cancelled permit release", || {
        server.state().admission().in_use() == 0
    });

    // the cancelled request never memoized a partial result…
    assert_eq!(server.state().result_cache().counters().entries, 0);
    // …and the same session (and a fresh one) still get full answers
    let full = c.exec(fp).unwrap();
    assert!(!full.cached && full.rows.len() as u64 > 2);
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert_eq!(c2.query(QUERY).unwrap().rows, full.rows);

    let stats = json::parse(&c.stats_json().unwrap()).unwrap();
    assert_eq!(stats.get("cancelled").unwrap().as_f64().unwrap(), 1.0);
    c.quit().unwrap();
    c2.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn dropped_session_mid_stream_releases_budget() {
    let config = ServerConfig::default().with_stream_throttle(Duration::from_millis(20));
    let server = start(generate::xmark(3, 13), 1, config);
    {
        let mut c = Client::connect(server.addr()).unwrap();
        let fp = c.prepare(QUERY).unwrap();
        c.start_exec(fp).unwrap();
        match c.next_event().unwrap() {
            RowEvent::Row(_) => {}
            other => panic!("expected a first row, got {other:?}"),
        }
        assert!(
            server.state().admission().in_use() > 0,
            "stream in flight must hold its admission permit"
        );
        // client dropped here, socket closes with the stream in flight
    }
    wait_until("disconnect permit release", || {
        server.state().admission().in_use() == 0
    });
    // the server is still healthy for other sessions
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert!(!c2.query(QUERY).unwrap().rows.is_empty());
    c2.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn oversubscribed_clients_never_exceed_the_admission_budget() {
    // two admission slots, result cache off so every request executes
    let config = ServerConfig::default()
        .with_admission(2 * (1 << 18), 1 << 18)
        .with_result_cache(0, 0);
    let server = start(generate::xmark(2, 13), 16, config);
    let addr = server.addr().clone();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for _ in 0..3 {
                    assert!(!c.query(QUERY).unwrap().rows.is_empty());
                }
                c.quit().unwrap();
            })
        })
        .collect();
    for t in clients {
        t.join().unwrap();
    }

    let adm = server.state().admission();
    assert_eq!(adm.admitted_total(), 18, "all requests must have executed");
    assert!(
        adm.peak() <= adm.total(),
        "admission over-committed: peak {} > total {}",
        adm.peak(),
        adm.total()
    );
    assert_eq!(adm.in_use(), 0);
    server.shutdown();
    server.wait();
}

#[test]
fn per_query_budget_overrun_aborts_with_an_error() {
    // a 1-tuple ceiling no real join can stay under
    let config = ServerConfig::default()
        .with_admission(1, 1)
        .with_result_cache(0, 0);
    let server = start(generate::xmark(2, 13), 8, config);
    let mut c = Client::connect(server.addr()).unwrap();
    let err = c.query(QUERY).unwrap_err();
    assert!(
        err.to_string().contains("budget exceeded"),
        "expected a budget abort, got: {err}"
    );
    let stats = json::parse(&c.stats_json().unwrap()).unwrap();
    assert_eq!(stats.get("budget_aborts").unwrap().as_f64().unwrap(), 1.0);
    // budget released despite the abort
    assert_eq!(server.state().admission().in_use(), 0);
    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn deeply_nested_query_answers_err_and_the_session_keeps_serving() {
    let server = start(generate::xmark(2, 13), 64, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let deep = "(".repeat(20_000) + r#"doc("X")//item"# + &")".repeat(20_000);
    let err = c.query(&deep).unwrap_err();
    assert!(err.to_string().contains("nests deeper"), "{err}");
    assert!(!c.query(QUERY).unwrap().rows.is_empty());
    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

/// Send `QUERY ` and 1.5 MiB with no newline over `conn` and read the
/// answer: the `ERR` line, then end of stream. The session shuts its
/// write side and reads the rest of the frame before it closes, so
/// every byte sent is taken and no reset reaches the client; then the
/// server still serves a new session.
fn oversized_frame_gets_err_then_end_of_stream<S>(server: ServerHandle, conn: S, writer: S)
where
    S: std::io::Read + std::io::Write + Send + 'static,
{
    use std::io::{BufRead, BufReader};
    use uload::server::protocol::MAX_FRAME_BYTES;
    let flood = std::thread::spawn(move || {
        let mut w = writer;
        w.write_all(b"QUERY ")?;
        w.write_all(&vec![b'x'; MAX_FRAME_BYTES + MAX_FRAME_BYTES / 2])
    });
    let mut r = BufReader::new(conn);
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR frame exceeds"), "{reply}");
    reply.clear();
    assert_eq!(
        r.read_line(&mut reply).unwrap(),
        0,
        "session left open: {reply}"
    );
    flood.join().unwrap().unwrap();
    let mut other = Client::connect(server.addr()).unwrap();
    assert!(other.stats_json().unwrap().starts_with('{'));
    other.quit().unwrap();
    server.shutdown();
    server.wait();
}

/// The session drains the refused frame for one idle poll: long enough
/// here for the flood to arrive whole on a loaded test machine.
const DRAIN_POLL: Duration = Duration::from_millis(250);

#[test]
fn oversized_frame_answers_err_closes_the_session_and_the_server_keeps_serving() {
    use std::os::unix::net::UnixStream;
    let path = std::env::temp_dir().join(format!("uload-frame-test-{}.sock", std::process::id()));
    let config = ServerConfig::default()
        .with_addr(BindAddr::Unix(path.clone()))
        .with_idle_poll(DRAIN_POLL);
    let server = start(generate::xmark(2, 13), 64, config);
    let conn = UnixStream::connect(&path).unwrap();
    let writer = conn.try_clone().unwrap();
    oversized_frame_gets_err_then_end_of_stream(server, conn, writer);
}

/// Over TCP a reset can discard the `ERR` line before the client reads
/// it; the clean close delivers it.
#[test]
fn oversized_frame_over_tcp_answers_err_then_end_of_stream() {
    let config = ServerConfig::default().with_idle_poll(DRAIN_POLL);
    let server = start(generate::xmark(2, 13), 64, config);
    let BindAddr::Tcp(addr) = server.addr().clone() else {
        panic!("the default server listens on TCP");
    };
    let conn = std::net::TcpStream::connect(addr.as_str()).unwrap();
    let writer = conn.try_clone().unwrap();
    oversized_frame_gets_err_then_end_of_stream(server, conn, writer);
}

#[test]
fn document_swap_invalidates_through_the_version_key() {
    let server = start(generate::xmark(2, 13), 64, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let fp = c.prepare(QUERY).unwrap();
    let cold = c.exec(fp).unwrap();
    assert!(c.exec(fp).unwrap().cached);

    // same fingerprint, new version → the warm entry silently stops
    // matching; no explicit invalidation anywhere. (The rows themselves
    // still come from the engine's materialized views, so the point of
    // the version key is conservative invalidation: never serve a
    // memoized result attributed to a document that has been replaced.)
    let v2 = server.state().swap_document(generate::xmark(3, 17));
    let fresh = c.exec(fp).unwrap();
    assert!(!fresh.cached, "stale entry served across a document swap");
    assert_eq!(fresh.version, v2.0);
    assert_ne!(cold.version, fresh.version);
    // and the new version is itself cached now
    assert!(c.exec(fp).unwrap().cached);
    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn slow_query_lands_in_slowlog_with_profile_and_fast_one_does_not() {
    // one-row batches plus a per-batch throttle make the uncached
    // execution reliably cross the slow-query threshold; the cached
    // replay serves memoized rows at full speed and must stay out
    let config = ServerConfig::default()
        .with_stream_throttle(Duration::from_millis(10))
        .with_slowlog(Duration::from_millis(25), 16);
    let server = start(generate::xmark(2, 13), 1, config);
    let mut c = Client::connect(server.addr()).unwrap();
    let fp = c.prepare(QUERY).unwrap();

    let cold = c.exec(fp).unwrap();
    assert!(!cold.cached && cold.rows.len() >= 3);
    let warm = c.exec(fp).unwrap();
    assert!(warm.cached);

    let log = json::parse(&c.slowlog_json().unwrap()).unwrap();
    let entries = log.as_arr().unwrap();
    assert_eq!(
        entries.len(),
        1,
        "exactly the throttled uncached exec qualifies: {entries:?}"
    );
    let e = &entries[0];
    assert_eq!(e.get("fp").unwrap().as_str().unwrap(), format!("{fp:016x}"));
    assert_eq!(e.get("disposition").unwrap().as_str().unwrap(), "done");
    assert!(matches!(e.get("cached").unwrap(), uload::Json::Bool(false)));
    assert!(e.get("latency_ns").unwrap().as_f64().unwrap() >= 25e6);
    assert_eq!(
        e.get("rows").unwrap().as_f64().unwrap(),
        cold.rows.len() as f64
    );
    // the captured QueryProfile is the full per-node tree, not a stub
    let profile = e.get("profile").unwrap();
    assert!(
        profile.get("plan").is_some(),
        "slow entry must carry the re-profiled plan: {profile:?}"
    );

    // the captured profile fed the engine's q-error histograms, one
    // observation per plan node, and METRICS reports them
    let nodes = server.state().prepared_plan(fp).unwrap().plan().size();
    assert_eq!(
        server.state().engine().q_error().observations(),
        nodes as u64
    );
    let metrics = json::parse(&c.metrics_json().unwrap()).unwrap();
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/metrics.schema.json"
    ))
    .unwrap();
    json::validate(&metrics, &json::parse(&schema_text).unwrap()).unwrap();
    let q_error = metrics.get("q_error").unwrap();
    assert_eq!(
        q_error.get("observations").unwrap().as_f64().unwrap(),
        nodes as f64
    );
    assert!(!q_error.get("kinds").unwrap().as_arr().unwrap().is_empty());

    // SLOWLOG drains: a second call returns nothing, but the lifetime
    // counter remembers the capture
    let again = json::parse(&c.slowlog_json().unwrap()).unwrap();
    assert!(again.as_arr().unwrap().is_empty());
    assert_eq!(server.state().slowlog().recorded(), 1);
    assert_eq!(server.state().metrics().slow_queries.get(), 1);

    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn metrics_snapshot_validates_against_schema_and_stats_absorb_exec_counters() {
    // join-only rewriting over two single-node views: the plan is a
    // structural join (fused twig), so the metered execution reports
    // real kernel counters instead of a pure view scan's zeros
    let doc = generate::xmark(2, 13);
    let mut cfg = EngineConfig::default();
    cfg.rewrite.allow_navigation = false;
    let mut engine = Uload::builder().document(&doc).config(cfg).build().unwrap();
    engine
        .add_view_text("v_items", "//item[id:s]", &doc)
        .unwrap();
    engine
        .add_view_text("v_names", "//name[id:s,val]", &doc)
        .unwrap();
    let server = Server::start(ServerConfig::default(), engine, DocumentHandle::new(doc)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let fp = c.prepare(r#"doc("X")//item/name"#).unwrap();
    assert!(!c.exec(fp).unwrap().cached);
    assert!(c.exec(fp).unwrap().cached);

    // per-session STATS surfaces the absorbed kernel counters of the
    // uncached execution
    let stats = json::parse(&c.stats_json().unwrap()).unwrap();
    let exec = stats.get("exec").unwrap();
    assert!(
        exec.get("comparisons").unwrap().as_f64().unwrap() > 0.0,
        "session exec counters never absorbed: {exec:?}"
    );
    assert!(exec.get("batches_scanned").unwrap().as_f64().is_some());
    assert!(exec.get("vector_compares").unwrap().as_f64().is_some());

    // METRICS validates against the published contract
    let metrics = json::parse(&c.metrics_json().unwrap()).unwrap();
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/metrics.schema.json"
    ))
    .unwrap();
    let schema = json::parse(&schema_text).unwrap();
    json::validate(&metrics, &schema).unwrap();

    // the request path recorded exactly one uncached and one cached
    // execution into the latency histograms
    let m = server.state().metrics();
    assert_eq!(m.exec_uncached_ns.count(), 1);
    assert_eq!(m.exec_cached_ns.count(), 1);
    assert_eq!(m.requests.get(), 2);
    assert_eq!(m.result_cache_hits.get(), 1);
    assert_eq!(m.result_cache_misses.get(), 1);
    assert!(m.exec_comparisons.get() > 0);

    // ...and the registry snapshot agrees with the wire form
    let uncached = metrics
        .get("registry")
        .unwrap()
        .get("histograms")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|h| h.get("name").unwrap().as_str() == Some("server.exec_uncached_ns"))
        .expect("exec_uncached_ns histogram missing from METRICS");
    assert_eq!(uncached.get("count").unwrap().as_f64().unwrap(), 1.0);

    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn explain_reports_feedback_provenance_without_executing() {
    let server = start(generate::xmark(2, 13), 64, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();

    let explain = json::parse(&c.explain_json(QUERY).unwrap()).unwrap();
    assert_eq!(explain.get("query").unwrap().as_str().unwrap(), QUERY);
    // EXPLAIN reports the plan PREPARE registers
    let fp = server
        .state()
        .engine()
        .prepare_query(QUERY)
        .unwrap()
        .fingerprint();
    assert_eq!(
        explain.get("fingerprint").unwrap().as_str().unwrap(),
        format!("{fp:016x}")
    );
    let plan = explain.get("plan").unwrap();
    assert!(plan.get("op").unwrap().as_str().is_some());
    assert!(plan.get("est_rows").unwrap().as_f64().is_some());
    // nothing executed: no request counted, nothing cached
    assert_eq!(server.state().metrics().requests.get(), 0);
    assert_eq!(server.state().result_cache().counters().entries, 0);

    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn telemetry_off_still_answers_metrics_with_empty_histograms() {
    let config = ServerConfig::default().with_telemetry(false);
    let server = start(generate::xmark(2, 13), 64, config);
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(!c.query(QUERY).unwrap().rows.is_empty());

    let metrics = json::parse(&c.metrics_json().unwrap()).unwrap();
    assert!(matches!(
        metrics.get("server").unwrap().get("telemetry").unwrap(),
        uload::Json::Bool(false)
    ));
    let m = server.state().metrics();
    assert_eq!(m.exec_uncached_ns.count(), 0, "histograms must stay idle");
    // structural counters still tick (they are free), latency ones don't
    assert!(m.requests.get() > 0);

    c.quit().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn unix_socket_transport_works_end_to_end() {
    let path = std::env::temp_dir().join(format!("uload-server-test-{}.sock", std::process::id()));
    let config = ServerConfig::default().with_addr(BindAddr::Unix(path.clone()));
    let server = start(generate::xmark(2, 13), 64, config);
    let mut c = Client::connect(server.addr()).unwrap();
    let reply = c.query(QUERY).unwrap();
    assert!(!reply.rows.is_empty());
    c.quit().unwrap();
    server.shutdown();
    server.wait();
    assert!(!path.exists(), "socket file must be cleaned up on shutdown");
}
