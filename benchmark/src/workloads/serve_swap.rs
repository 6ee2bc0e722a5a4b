//! `serve_swap`: the server on a Unix socket, two closed-loop clients
//! replaying seeded Zipf(1.0) request sequences
//! ([`RequestSequence`]), and a document swap by client 0 every
//! [`SWAP_EVERY`] of its requests.
//!
//! The run is: load phase → `PREPARE` passes on the idle server
//! (`plan_ms`) → rounds. A round is one swap interval of client 0 (the
//! main thread): re-parse the XML text, `swap_document`, then its
//! requests; client 1 keeps sending throughout. 90 % of requests are
//! `EXEC fp`, 10 % ad-hoc `QUERY text` planned on the server. Both
//! clients hold one session and wait for `DONE` before the next request.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use uload::prelude::*;
use uload::server::RowEvent;

use super::inprocess::{joins_config, reload};
use super::{note_inputs, oracle_pass, Run};
use crate::engine::{ms_since, Digest};
use crate::inputs::RequestSequence;
use crate::report::Samples;
use crate::stats::median;
use crate::sys::process_cpu_ms;
use crate::trace::Tracer;

/// Requests of client 0 between two document swaps (one round).
const SWAP_EVERY: usize = 200;
const SWAP_EVERY_QUICK: usize = 60;
/// Share of requests sent as ad-hoc `QUERY text`.
const ADHOC_SHARE: f64 = 0.10;
/// Result-cache entries: a third of the 24 plans, so Zipf's tail evicts.
const RESULT_CACHE_CAPACITY: usize = 8;

/// One prepared plan as the clients know it.
struct Plan {
    name: &'static str,
    text: &'static str,
    fp: u64,
    expected: Digest,
}

/// Round-trip latencies by what the server did, for the `server.*` metrics.
#[derive(Default)]
struct Latencies {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    adhoc_ms: Vec<f64>,
}

impl Latencies {
    fn absorb(&mut self, other: Latencies) {
        self.hit_ms.extend(other.hit_ms);
        self.miss_ms.extend(other.miss_ms);
        self.adhoc_ms.extend(other.adhoc_ms);
    }
}

/// One closed-loop client: a session, its seeded request sequence and
/// everything it measured.
struct Session {
    client: Client,
    sequence: RequestSequence,
    samples: Samples,
    lat: Latencies,
    requests: u64,
}

impl Session {
    fn connect(addr: &BindAddr, sequence: RequestSequence) -> uload::Result<Session> {
        Ok(Session {
            client: Client::connect(addr)?,
            sequence,
            samples: Samples::default(),
            lat: Latencies::default(),
            requests: 0,
        })
    }

    /// `EXEC fp`, timed to the first response line and to `DONE`.
    fn exec(&mut self, plan: &Plan) -> uload::Result<(Digest, bool, f64, f64)> {
        let t = Instant::now();
        self.client.start_exec(plan.fp)?;
        let mut digest = Digest::of([]);
        let mut first_ms = None;
        loop {
            let event = self.client.next_event()?;
            first_ms.get_or_insert_with(|| ms_since(t));
            match event {
                RowEvent::Row(xml) => digest.push(&xml),
                RowEvent::Done { cached, .. } => {
                    return Ok((digest, cached, first_ms.unwrap_or(0.0), ms_since(t)))
                }
                RowEvent::Cancelled { .. } => {
                    return Err(uload::Error::Eval("stream cancelled server-side".into()))
                }
            }
        }
    }

    /// Send the next request of the sequence and check its answer. A
    /// refused or wrong answer counts as failed; only a broken session
    /// is an error.
    fn request(&mut self, plans: &[Plan], tr: &mut Tracer) -> uload::Result<()> {
        let (rank, adhoc) = self.sequence.next_request();
        let plan = &plans[rank];
        self.requests += 1;
        tr.set_request(self.requests);
        if adhoc {
            let (reply, ms) = tr.timed("server.query", || self.client.query(plan.text));
            match reply {
                Ok(reply) => {
                    let ok = Digest::of(reply.rows.iter().map(String::as_str)) == plan.expected;
                    self.samples.check(ok, || {
                        format!("QUERY {}: rows differ from the oracle's", plan.name)
                    });
                    self.lat.adhoc_ms.push(ms);
                }
                Err(uload::Error::Io(e)) => return Err(uload::Error::Io(e)),
                Err(e) => self
                    .samples
                    .check(false, || format!("QUERY {}: {e}", plan.name)),
            }
            return Ok(());
        }
        let span = tr.open("server.exec");
        let outcome = self.exec(plan);
        tr.close(span);
        match outcome {
            Ok((digest, cached, first_ms, ms)) => {
                let ok = digest == plan.expected;
                self.samples.check(ok, || {
                    format!(
                        "EXEC {}: {} rows differ from the oracle's {}",
                        plan.name,
                        digest.rows(),
                        plan.expected.rows()
                    )
                });
                if cached {
                    self.lat.hit_ms.push(ms);
                } else {
                    self.lat.miss_ms.push(ms);
                    if ok {
                        let kind = format!("{}/miss", plan.name);
                        Samples::push(&mut self.samples.query_ms, &kind, ms);
                        Samples::push(&mut self.samples.first_batch_ms, &kind, first_ms);
                    }
                }
            }
            Err(uload::Error::Io(e)) => return Err(uload::Error::Io(e)),
            Err(e) => self
                .samples
                .check(false, || format!("EXEC {}: {e}", plan.name)),
        }
        Ok(())
    }
}

pub fn run(run: &mut Run) -> uload::Result<()> {
    let expected = oracle_pass(run.inputs, &mut run.samples)?;
    note_inputs(run.inputs, &mut run.samples);
    run.begin_measured();

    // load phase: the last load's products go to the server
    run.tracer.set_enabled(run.opts.traced);
    let mut loaded = Vec::new();
    for _ in 0..run.opts.epochs() {
        reload(run, &joins_config(), &mut loaded)?;
        run.samples.layers.end_pass();
    }
    let served = loaded.pop().expect("serve_swap has one document");
    run.samples
        .note("view_tuples", served.engine.store().total_tuples());
    let inputs = run.inputs;
    let xml = &inputs.docs[0].xml;

    let socket = run
        .opts
        .out_dir
        .join(format!("serve-{}.sock", std::process::id()));
    let config = ServerConfig::default()
        .with_addr(BindAddr::Unix(socket))
        .with_result_cache(RESULT_CACHE_CAPACITY, 100_000);
    let server = Server::start(config, served.engine, served.handle)?;
    let state = server.state();
    let swap_every = if run.opts.quick {
        SWAP_EVERY_QUICK
    } else {
        SWAP_EVERY
    };
    let sequence = |seed| RequestSequence::new(seed, inputs.queries.len(), swap_every, ADHOC_SHARE);
    let mut c0 = Session::connect(server.addr(), sequence(run.opts.seed))?;

    // PREPARE passes on the idle server: one plan_ms sample per query each
    let mut plans: Vec<Plan> = Vec::new();
    for pass in 0..run.opts.min_rounds() {
        for (q, expected) in run.inputs.queries.iter().zip(&expected) {
            let t = Instant::now();
            let fp = c0.client.prepare(q.text)?;
            Samples::push(&mut run.samples.plan_ms, q.name, ms_since(t));
            if pass == 0 {
                plans.push(Plan {
                    name: q.name,
                    text: q.text,
                    fp,
                    expected: *expected,
                });
            }
        }
    }

    let stop = AtomicBool::new(false);
    let c1_done = AtomicU64::new(0);
    let mut c1 = Session::connect(
        server.addr(),
        sequence(run.opts.seed ^ 0x5eed_c11e_0000_0001),
    )?;
    let mut c1_tracer = run.tracer.sibling();
    let mut swap_ms = Vec::new();
    let rounds_outcome = std::thread::scope(|scope| -> uload::Result<(Session, Tracer)> {
        let (plans, stop, c1_done) = (&plans, &stop, &c1_done);
        let second = scope.spawn(move || -> uload::Result<(Session, Tracer)> {
            while !stop.load(Ordering::Relaxed) {
                c1.request(plans, &mut c1_tracer)?;
                c1_done.fetch_add(1, Ordering::Relaxed);
            }
            Ok((c1, c1_tracer))
        });
        let first = (|| -> uload::Result<()> {
            while run.more_rounds(0, 1) {
                let recorded = run.begin_round();
                let round = run.tracer.open("round");
                let (cpu0, t, others0) = (
                    process_cpu_ms(),
                    Instant::now(),
                    c1_done.load(Ordering::Relaxed),
                );
                // the write beside the reads: the same XML text parsed again
                let swap = run.tracer.open("server.swap");
                let (doc, _) = run.tracer.timed("xmltree.parse", || parse_document(xml));
                state.swap_document(doc?);
                run.tracer.close(swap);
                swap_ms.push(ms_since(t));
                for _ in 0..swap_every {
                    c0.request(plans, &mut run.tracer)?;
                }
                let others = c1_done.load(Ordering::Relaxed) - others0;
                let ops = swap_every as u64 + others;
                run.samples
                    .round_cpu_ms
                    .push((process_cpu_ms() - cpu0) / ops as f64);
                run.samples
                    .round_qps
                    .push(ops as f64 / t.elapsed().as_secs_f64());
                run.tracer.close(round);
                run.end_round(ms_since(t), recorded);
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let second = second.join().expect("client 1 panicked");
        first.and(second)
    });
    let (c1, c1_tracer) = rounds_outcome?;

    // both clients' measurements together
    let requests = c0.requests + c1.requests;
    let mut lat = c0.lat;
    lat.absorb(c1.lat);
    run.samples.absorb(c0.samples);
    run.samples.absorb(c1.samples);
    run.tracer.absorb(c1_tracer);
    let Latencies {
        hit_ms: hits,
        miss_ms: misses,
        adhoc_ms: adhoc,
    } = lat;

    let layers = &mut run.samples.layers;
    layers.set("server.hit_ms_p50", median(&hits));
    layers.set("server.miss_ms_p50", median(&misses));
    layers.set("server.adhoc_query_ms_p50", median(&adhoc));
    let mut all: Vec<f64> = hits.iter().chain(&misses).chain(&adhoc).copied().collect();
    all.sort_by(f64::total_cmp);
    layers.set(
        "server.roundtrip_ms_p99",
        all[(all.len() * 99 / 100).min(all.len() - 1)],
    );
    layers.set(
        "server.exec_hit_rate",
        hits.len() as f64 / (hits.len() + misses.len()).max(1) as f64,
    );
    layers.set("server.swap_ms", median(&swap_ms));
    layers.set("server.swaps", swap_ms.len() as f64);
    layers.set(
        "server.admission_wait_ms",
        state.metrics().admission_wait_ns.snapshot().mean() / 1e6,
    );
    let cache = state.result_cache().counters();
    layers.set("server.cache_evictions", cache.evictions as f64);
    if run.opts.traced {
        // what the server adds to a miss: its round trip less the same
        // plan executed in-process on the server's own engine
        let handle = state.document();
        let mut overheads = Vec::new();
        for p in &plans {
            let Some(prep) = state.prepared_plan(p.fp) else {
                continue;
            };
            let in_process: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    let out = state
                        .engine()
                        .execute_prepared(&prep, &handle)
                        .map(|o| o.into_strings());
                    std::hint::black_box(&out);
                    ms_since(t)
                })
                .collect();
            if let Some(served) = run.samples.query_ms.get(&format!("{}/miss", p.name)) {
                overheads.push(median(served) - median(&in_process));
            }
        }
        run.samples
            .layers
            .set("server.overhead_ms", median(&overheads));
    }
    run.samples.note("requests", requests);
    run.samples.note("exec_hits", hits.len());
    run.samples.note("exec_misses", misses.len());
    run.samples.note("adhoc_queries", adhoc.len());
    run.samples.note("cache_evictions", cache.evictions);

    c0.client.quit()?;
    c1.client.quit()?;
    server.shutdown();
    server.wait();
    Ok(())
}
