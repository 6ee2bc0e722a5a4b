//! The four workloads. Three run the engine in-process and share one
//! round structure ([`inprocess`]); `serve_swap` drives the server
//! ([`serve_swap`]).

pub mod inprocess;
pub mod serve_swap;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use uload::prelude::*;

use crate::engine::{self, Digest};
use crate::inputs::Inputs;
use crate::report::Samples;
use crate::trace::Tracer;

/// What a run was asked for.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Options {
    /// Rounds a run never goes below, whatever the budget.
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            3
        } else {
            crate::report::MIN_SAMPLES
        }
    }

    /// Epochs of a workload that does not reload every round: each
    /// loads the document afresh (one `load_s` sample) and runs its share
    /// of the rounds on the fresh engine, so that a run averages over
    /// several memory layouts instead of inheriting one.
    pub fn epochs(&self) -> usize {
        if self.quick {
            2
        } else {
            crate::report::MIN_SAMPLES
        }
    }
}

/// State every workload carries through a run.
pub struct Run<'a> {
    pub opts: &'a Options,
    pub inputs: &'a Inputs,
    pub samples: Samples,
    pub tracer: Tracer,
    /// When the measured phases (loads and rounds) began.
    measured_from: Instant,
    /// Suite wall time of rounds recorded with and without spans.
    suite_traced_ms: Vec<f64>,
    suite_untraced_ms: Vec<f64>,
}

impl<'a> Run<'a> {
    pub fn new(opts: &'a Options, inputs: &'a Inputs, samples: Samples) -> Run<'a> {
        let now = Instant::now();
        Run {
            opts,
            inputs,
            samples,
            tracer: Tracer::new(opts.traced, now),
            measured_from: now,
            suite_traced_ms: Vec::new(),
            suite_untraced_ms: Vec::new(),
        }
    }

    /// Start the clock of the measured phases.
    pub fn begin_measured(&mut self) {
        self.measured_from = Instant::now();
    }

    /// Whole rounds until epoch `epoch` of `epochs` has spent its share
    /// of the budget, never fewer than its share of the floor.
    pub fn more_rounds(&self, epoch: usize, epochs: usize) -> bool {
        let share = (epoch + 1) as f64 / epochs as f64;
        let floor = (self.opts.min_rounds() as f64 * share).ceil() as usize;
        let deadline = self.measured_from + Duration::from_secs_f64(self.opts.seconds * share);
        self.samples.rounds < floor || Instant::now() < deadline
    }

    /// In a traced run every other round records spans and runs the
    /// per-layer probes; the rounds between measure the same suite
    /// unrecorded, which is what `harness.trace_overhead` compares.
    pub fn begin_round(&mut self) -> bool {
        let record = self.opts.traced && self.samples.rounds.is_multiple_of(2);
        self.tracer.set_enabled(record);
        self.tracer.set_request(self.samples.rounds as u64 + 1);
        record
    }

    pub fn end_round(&mut self, suite_ms: f64, recorded: bool) {
        if recorded {
            self.suite_traced_ms.push(suite_ms);
        } else {
            self.suite_untraced_ms.push(suite_ms);
        }
        self.samples.calib_ms.push(engine::calibration_spin());
        self.samples.rounds += 1;
    }

    /// Close a run: harness metrics and the facts every workload notes.
    pub fn finish(mut self) -> (Samples, Tracer) {
        let s = &mut self.samples;
        s.layers
            .set("harness.calib_ms", crate::stats::median(&s.calib_ms));
        if !self.suite_traced_ms.is_empty() && !self.suite_untraced_ms.is_empty() {
            s.layers.set(
                "harness.trace_overhead",
                crate::stats::median(&self.suite_traced_ms)
                    / crate::stats::median(&self.suite_untraced_ms),
            );
        }
        if let (Some(nodes), Some(tuples)) = (
            s.layers.get("xmltree.nodes"),
            s.layers.get("storage.view_tuples"),
        ) {
            s.layers.set("storage.tuples_per_node", tuples / nodes);
        }
        s.note("rounds", s.rounds);
        s.note(
            "calib_ms",
            format!(
                "{:.4} spread={:.4}",
                crate::stats::median(&s.calib_ms),
                crate::stats::quartile_spread(&s.calib_ms)
            ),
        );
        (self.samples, self.tracer)
    }
}

/// The untimed oracle pass: what `Uload::execute_direct` returns for
/// every query on the document the engine will be given.
pub fn oracle_pass(inputs: &Inputs, samples: &mut Samples) -> uload::Result<Vec<Digest>> {
    let t = Instant::now();
    let docs: Vec<Document> = inputs
        .docs
        .iter()
        .map(|d| parse_document(&d.xml))
        .collect::<uload::Result<_>>()?;
    let expected = inputs
        .queries
        .iter()
        .map(|q| engine::oracle(q.text, &docs[q.doc]))
        .collect::<uload::Result<Vec<_>>>()?;
    samples.note("check_s", format!("{:.3}", t.elapsed().as_secs_f64()));
    samples.note(
        "oracle_rows",
        expected.iter().map(Digest::rows).sum::<u64>(),
    );
    Ok(expected)
}

/// Facts about the inputs for the run body.
pub fn note_inputs(inputs: &Inputs, samples: &mut Samples) {
    for d in &inputs.docs {
        samples.note(&format!("{}_bytes", d.name), d.xml.len());
        samples.note(&format!("{}_nodes", d.name), d.nodes);
        samples.note(&format!("{}_views", d.name), d.views.len());
    }
    samples.note("queries", inputs.queries.len());
}
