//! Volcano-style pipelined executor: `open` / `next_batch` / `close`
//! cursors streaming vectorized [`TupleBatch`]es through the plan tree,
//! so memory scales with the *resident* state (build sides, breaker
//! buffers, one in-flight batch per operator) instead of with every
//! intermediate relation, and `LIMIT`-style consumers can stop early.
//!
//! The cursor compiler ([`build_cursor`]) classifies each
//! [`LogicalPlan`] node:
//!
//! * **streaming unary** (`Select`, duplicate-preserving `Project`,
//!   `Unnest`, `XmlTemplate`, `Navigate`, `Fetch`, `DeriveAncestorId`,
//!   `Rename`, `CastSchema`) — each child batch is evaluated through the
//!   node as a one-level plan over a shadow catalog, reusing the
//!   materialized [`Evaluator`] kernels verbatim (the same trick
//!   `eval_profiled` uses), so the streamed semantics cannot drift from
//!   the oracle;
//! * **build–probe binary** (`Product`, `Join`, `StructJoin`,
//!   `Difference`) — the right side is drained and kept resident once,
//!   then left batches probe it (all these operators are per-left-tuple,
//!   so batching the left preserves both results and order). `Join` is
//!   native: the value-join kernel's table (`hashjoin`, the one
//!   the materialized evaluator uses) is built when the right side is
//!   drained and every left batch probes it directly; the other three
//!   still re-enter the evaluator per batch over the shadow catalog;
//! * **`Union`** — left exhausted first, then right, pass-through;
//! * **`TwigJoin`** — inputs are drained (they are base ID streams in
//!   fused plans), the holistic merge enumerates solution index vectors,
//!   and output tuples are assembled batch by batch; shapes the holistic
//!   operator does not cover fall back to a one-shot cascade evaluation,
//!   exactly like the oracle;
//! * **pipeline breakers** (`Project` with `distinct`, `GroupBy`,
//!   `Sort`, `NestAll`) — the input is materialized, the node evaluated
//!   once, and the result streamed out. A single-key `Sort` directly
//!   over a base scan whose declared [`crate::OrderSpec`] already
//!   satisfies the key is elided (stable sort of sorted input is the
//!   identity).
//!
//! `close()` propagates cancellation down the tree: children are closed,
//! resident state is released, and every further `next_batch` returns
//! `Ok(None)` without touching the children again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use obs::{ExecMetrics, Meter, NoMeter, StatsStore};
use xmltree::Document;

use crate::eval::{
    twig_shape, twig_solutions, Catalog, EvalConfig, EvalError, Evaluator, Relation, TwigShape,
};
use crate::hashjoin::JoinTable;
use crate::plan::{JoinKind, LogicalPlan, Predicate, TwigStep};
use crate::value::{Schema, Tuple};

// ----------------------------------------------------------------------
// batches, residency, per-op counters

/// A batch of tuples flowing through the cursor tree. The schema lives
/// on the cursor ([`Cursor::schema`]); batches carry only rows. Sizes
/// are *about* [`CursorConfig::batch_size`]: filters emit less,
/// expanding operators (`Unnest`, `Navigate`, joins) may emit more.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleBatch {
    pub tuples: Vec<Tuple>,
}

impl TupleBatch {
    pub fn new(tuples: Vec<Tuple>) -> TupleBatch {
        TupleBatch { tuples }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Shared gauge of the tuples currently materialized inside a cursor
/// tree — build sides, breaker buffers, twig inputs, plus each
/// operator's last emitted batch — with its high-water mark. This is the
/// `peak-resident-tuples` figure `--profile` and experiment E11 report.
#[derive(Debug, Default)]
pub struct Residency {
    cur: Cell<u64>,
    peak: Cell<u64>,
}

impl Residency {
    fn alloc(&self, n: usize) {
        let cur = self.cur.get() + n as u64;
        self.cur.set(cur);
        if cur > self.peak.get() {
            self.peak.set(cur);
        }
    }

    fn free(&self, n: usize) {
        self.cur.set(self.cur.get().saturating_sub(n as u64));
    }

    pub fn current(&self) -> u64 {
        self.cur.get()
    }

    pub fn peak(&self) -> u64 {
        self.peak.get()
    }
}

/// Live per-operator streaming counters, shared between the cursor that
/// updates them and the [`StreamExec`] that reports them.
#[derive(Debug, Default)]
pub struct OpCells {
    pub batches: Cell<u64>,
    pub rows: Cell<u64>,
    pub metrics: RefCell<ExecMetrics>,
}

/// One operator's registration in a [`StreamExec`], in plan pre-order:
/// display label, breaker flag, live counters.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub label: String,
    pub breaker: bool,
    pub cells: Rc<OpCells>,
}

/// Per-cursor monitor: accounts emitted batches against the shared
/// residency gauge (a cursor's last emitted batch stays resident until
/// its next pull or close) and bumps the op counters when profiling.
struct Mon {
    residency: Rc<Residency>,
    cells: Option<Rc<OpCells>>,
    outstanding: Cell<usize>,
}

impl Mon {
    fn begin_pull(&self) {
        self.residency.free(self.outstanding.replace(0));
    }

    fn emit(&self, tuples: Vec<Tuple>) -> TupleBatch {
        self.residency.alloc(tuples.len());
        self.outstanding.set(tuples.len());
        if let Some(c) = &self.cells {
            c.batches.set(c.batches.get() + 1);
            c.rows.set(c.rows.get() + tuples.len() as u64);
        }
        TupleBatch::new(tuples)
    }

    /// A metrics slot for a per-batch [`Evaluator`], `None` when
    /// profiling is off (the kernels then run the unmetered path).
    fn metrics_slot(&self) -> Option<RefCell<ExecMetrics>> {
        self.cells
            .as_ref()
            .map(|_| RefCell::new(ExecMetrics::default()))
    }

    fn absorb(&self, m: ExecMetrics) {
        if let Some(c) = &self.cells {
            if !m.is_zero() {
                c.metrics.borrow_mut().absorb(&m);
            }
        }
    }

    /// Run a native kernel against this operator's metrics when
    /// profiling, against the free [`NoMeter`] otherwise.
    fn metered<R>(&self, f: impl FnOnce(&mut dyn Meter) -> R) -> R {
        match &self.cells {
            Some(c) => f(&mut *c.metrics.borrow_mut()),
            None => f(&mut NoMeter),
        }
    }

    fn finish(&self) {
        self.begin_pull();
    }
}

// ----------------------------------------------------------------------
// the cursor contract

/// The Volcano cursor contract. `open` is idempotent and recurses into
/// children; `next_batch` returns `Ok(None)` once exhausted (and forever
/// after); `close` releases resident state, propagates cancellation to
/// the children, and makes every further `next_batch` return `Ok(None)`
/// without pulling the children again.
pub trait Cursor {
    fn schema(&self) -> &Schema;
    fn open(&mut self) -> Result<(), EvalError>;
    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError>;
    fn close(&mut self);
}

/// Runtime arm-switch hint for the holistic twig operator, threaded in
/// by the planner when the feedback store says this plan's arm choice
/// has mispredicted before. At the first batch boundary (after the leaf
/// streams are drained, before the merge runs) the twig cursor compares
/// the observed combined leaf cardinality against `est_leaf_rows`; a
/// ≥2× deviation in either direction means the cost model priced the
/// merge from the wrong stream sizes, so the cursor falls over to the
/// cascade arm (the same one-shot path uncovered shapes take — answers
/// are identical by construction) and records the outcome back into the
/// store. The cascade→twig direction has no mid-query hook (an unfused
/// plan carries no `TwigJoin` node); it is handled at re-plan time.
#[derive(Debug, Clone)]
pub struct ArmSwitchHint {
    /// The feedback store the switch outcome is recorded into.
    pub stats: Arc<StatsStore>,
    /// `DocumentVersion` counter the plan runs under (0 = unversioned).
    pub doc_version: u64,
    /// Fingerprint of the executing plan.
    pub plan_fp: u64,
    /// The cost model's estimate of the combined twig leaf cardinality.
    pub est_leaf_rows: f64,
}

/// Observed-vs-estimated leaf-cardinality deviation that triggers the
/// mid-query arm fallover (mirrors the ≥2× wrong-arm telemetry rule).
const ARM_SWITCH_RATIO: f64 = 2.0;

impl ArmSwitchHint {
    /// Whether `observed` leaf rows contradict the estimate badly enough
    /// to fall over to the cascade arm.
    fn should_switch(&self, observed: f64) -> bool {
        let est = self.est_leaf_rows.max(1.0);
        let obs = observed.max(1.0);
        (obs / est).max(est / obs) >= ARM_SWITCH_RATIO
    }
}

/// Knobs for [`build_cursor`].
#[derive(Debug, Clone)]
pub struct CursorConfig {
    /// Target rows per batch (≥ 1; see [`TupleBatch`] for how operators
    /// may deviate).
    pub batch_size: usize,
    /// Physical-operator choices, shared with the materialized oracle.
    pub eval: EvalConfig,
    /// Collect per-operator batch/row counters and kernel metrics,
    /// reported via [`StreamExec::op_stats`].
    pub profiling: bool,
    /// Mid-query twig→cascade fallover hint (see [`ArmSwitchHint`]);
    /// `None` disables the check entirely.
    pub arm_hint: Option<ArmSwitchHint>,
}

impl Default for CursorConfig {
    fn default() -> Self {
        CursorConfig {
            batch_size: 1024,
            eval: EvalConfig::default(),
            profiling: false,
            arm_hint: None,
        }
    }
}

/// A compiled cursor tree plus its shared bookkeeping: the root cursor,
/// the residency gauge, and (when profiling) the pre-order op counters.
pub struct StreamExec<'a> {
    root: Box<dyn Cursor + 'a>,
    residency: Rc<Residency>,
    ops: Vec<OpStats>,
    batch_size: usize,
    opened: bool,
}

impl<'a> StreamExec<'a> {
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Pull the next batch (opens the tree on the first call).
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if !self.opened {
            self.root.open()?;
            self.opened = true;
        }
        self.root.next_batch()
    }

    /// Cancel the stream: closes the whole cursor tree.
    pub fn close(&mut self) {
        self.root.close();
    }

    /// High-water mark of tuples resident in the tree so far.
    pub fn peak_resident(&self) -> u64 {
        self.residency.peak()
    }

    /// Tuples resident right now (0 after `close`).
    pub fn resident_now(&self) -> u64 {
        self.residency.current()
    }

    /// Per-operator streaming counters in plan pre-order; empty unless
    /// [`CursorConfig::profiling`] was set.
    pub fn op_stats(&self) -> &[OpStats] {
        &self.ops
    }

    /// Drain the stream into a materialized relation.
    pub fn collect(mut self) -> Result<Relation, EvalError> {
        let mut tuples = Vec::new();
        while let Some(b) = self.next_batch()? {
            tuples.extend(b.tuples);
        }
        let schema = self.schema().clone();
        self.close();
        Ok(Relation::new(schema, tuples))
    }
}

// ----------------------------------------------------------------------
// breaker classification

/// Is this plan node a pipeline breaker (must see its whole input before
/// emitting anything)? `Sort` counts even though [`build_cursor`] elides
/// it when the input is a base scan whose declared
/// [`crate::OrderSpec`] already satisfies the single sort key.
pub fn is_pipeline_breaker(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Project { distinct: true, .. }
            | LogicalPlan::GroupBy { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::NestAll { .. }
    )
}

/// Pre-order labels of every pipeline breaker in `plan` — the
/// annotation the rewriting layer logs before streaming starts.
pub fn pipeline_breakers(plan: &LogicalPlan) -> Vec<String> {
    fn rec(p: &LogicalPlan, out: &mut Vec<String>) {
        if is_pipeline_breaker(p) {
            out.push(p.node_label());
        }
        for c in p.child_plans() {
            rec(c, out);
        }
    }
    let mut out = Vec::new();
    rec(plan, &mut out);
    out
}

// ----------------------------------------------------------------------
// the cursor compiler

/// Compile `plan` into a cursor tree over `catalog` (plus optional
/// source document for navigation operators). Schema resolution and
/// plan validation happen *here*, by probing every node over empty
/// inputs — the returned executor only then streams batches on demand.
pub fn build_cursor<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    config: &CursorConfig,
) -> Result<StreamExec<'a>, EvalError> {
    let mut b = Builder {
        catalog,
        doc,
        cfg: config.clone(),
        residency: Rc::new(Residency::default()),
        ops: Vec::new(),
    };
    let root = b.build(plan)?;
    Ok(StreamExec {
        root,
        residency: b.residency,
        ops: b.ops,
        batch_size: config.batch_size.max(1),
        opened: false,
    })
}

struct Builder<'a> {
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    cfg: CursorConfig,
    residency: Rc<Residency>,
    ops: Vec<OpStats>,
}

impl<'a> Builder<'a> {
    fn mon(&mut self, plan: &LogicalPlan) -> Mon {
        let cells = if self.cfg.profiling {
            let c = Rc::new(OpCells::default());
            self.ops.push(OpStats {
                label: plan.node_label(),
                breaker: is_pipeline_breaker(plan),
                cells: Rc::clone(&c),
            });
            Some(c)
        } else {
            None
        };
        Mon {
            residency: Rc::clone(&self.residency),
            cells,
            outstanding: Cell::new(0),
        }
    }

    fn batch(&self) -> usize {
        self.cfg.batch_size.max(1)
    }

    /// Schema (and eager validation) of a one-level plan, probed over
    /// empty stand-in inputs.
    fn probe(&self, one_level: &LogicalPlan, ins: &[(&str, &Schema)]) -> Result<Schema, EvalError> {
        let mut cat = Catalog::new();
        for (n, s) in ins {
            cat.insert(*n, Relation::empty((*s).clone()));
        }
        let ev = Evaluator {
            catalog: &cat,
            doc: self.doc,
            config: self.cfg.eval,
            metrics: None,
        };
        Ok(ev.eval(one_level)?.schema)
    }

    fn build(&mut self, plan: &LogicalPlan) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        use LogicalPlan::*;
        match plan {
            Scan { relation } => {
                let rel = self
                    .catalog
                    .get(relation)
                    .ok_or_else(|| EvalError::UnknownRelation(relation.clone()))?;
                let mon = self.mon(plan);
                Ok(Box::new(ScanCursor {
                    rel,
                    pos: 0,
                    batch: self.batch(),
                    mon,
                    closed: false,
                }))
            }
            Sort { input, by } => {
                // Sort elision over a declared order: a stable sort of
                // input already sorted on the (single) key is the
                // identity, so stream the scan through untouched.
                if by.len() == 1 {
                    if let Scan { relation } = input.as_ref() {
                        if let Some(ord) = self.catalog.declared_order(relation) {
                            if ord.satisfies(&by[0]) {
                                tracing::debug!(
                                    target: "uload::cursor",
                                    "Sort({}) elided: declared order of `{relation}` satisfies it",
                                    by[0].as_str()
                                );
                                return self.build(input);
                            }
                        }
                    }
                }
                self.breaker(plan)
            }
            Project { distinct: true, .. } | GroupBy { .. } | NestAll { .. } => self.breaker(plan),
            Union { .. } => {
                let mon = self.mon(plan);
                let kids = plan.child_plans();
                let left = self.build(kids[0])?;
                let right = self.build(kids[1])?;
                let one_level =
                    plan.with_child_plans(vec![LogicalPlan::scan("__l"), LogicalPlan::scan("__r")]);
                // probe for the arity check the oracle applies
                self.probe(
                    &one_level,
                    &[("__l", left.schema()), ("__r", right.schema())],
                )?;
                Ok(Box::new(UnionCursor {
                    left,
                    right,
                    on_right: false,
                    mon,
                    closed: false,
                }))
            }
            TwigJoin { root, steps } => self.twig(plan, root, steps),
            Product { .. } | Join { .. } | StructJoin { .. } | Difference { .. } => {
                self.binary(plan)
            }
            Select { .. }
            | Project { .. }
            | Unnest { .. }
            | XmlTemplate { .. }
            | Navigate { .. }
            | Fetch { .. }
            | DeriveAncestorId { .. }
            | Rename { .. }
            | CastSchema { .. } => self.unary(plan),
        }
    }

    fn unary(&mut self, plan: &LogicalPlan) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let mon = self.mon(plan);
        let kids = plan.child_plans();
        debug_assert_eq!(kids.len(), 1);
        let child = self.build(kids[0])?;
        let one_level = plan.with_child_plans(vec![LogicalPlan::scan("__in")]);
        let schema = self.probe(&one_level, &[("__in", child.schema())])?;
        let in_schema = child.schema().clone();
        Ok(Box::new(MapCursor {
            child,
            in_schema,
            one_level,
            schema,
            batch: self.batch(),
            spill: Spill::default(),
            doc: self.doc,
            eval: self.cfg.eval,
            mon,
            closed: false,
        }))
    }

    fn binary(&mut self, plan: &LogicalPlan) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let mon = self.mon(plan);
        let kids = plan.child_plans();
        debug_assert_eq!(kids.len(), 2);
        let left = self.build(kids[0])?;
        let right = self.build(kids[1])?;
        let one_level =
            plan.with_child_plans(vec![LogicalPlan::scan("__l"), LogicalPlan::scan("__r")]);
        let schema = self.probe(
            &one_level,
            &[("__l", left.schema()), ("__r", right.schema())],
        )?;
        let left_schema = left.schema().clone();
        let probe = match plan {
            LogicalPlan::Join { pred, kind, .. } => Probe::Join {
                pred: pred.clone(),
                kind: *kind,
                right: Vec::new(),
                table: None,
            },
            _ => {
                let mut cat = Catalog::new();
                cat.insert("__r", Relation::empty(right.schema().clone()));
                Probe::Reenter { cat, one_level }
            }
        };
        Ok(Box::new(BinaryCursor {
            left,
            right: Some(right),
            right_rows: 0,
            probe,
            schema,
            left_schema,
            batch: self.batch(),
            spill: Spill::default(),
            doc: self.doc,
            eval: self.cfg.eval,
            mon,
            closed: false,
        }))
    }

    fn breaker(&mut self, plan: &LogicalPlan) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let mon = self.mon(plan);
        let kids = plan.child_plans();
        debug_assert_eq!(kids.len(), 1);
        let child = self.build(kids[0])?;
        let one_level = plan.with_child_plans(vec![LogicalPlan::scan("__in")]);
        let schema = self.probe(&one_level, &[("__in", child.schema())])?;
        let in_schema = child.schema().clone();
        Ok(Box::new(BreakerCursor {
            child,
            in_schema,
            one_level,
            schema,
            out: Vec::new(),
            pos: 0,
            materialized: false,
            batch: self.batch(),
            doc: self.doc,
            eval: self.cfg.eval,
            mon,
            closed: false,
        }))
    }

    fn twig(
        &mut self,
        plan: &LogicalPlan,
        root: &LogicalPlan,
        steps: &[TwigStep],
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        if steps.is_empty() {
            return self.build(root);
        }
        let mon = self.mon(plan);
        let mut children = Vec::with_capacity(steps.len() + 1);
        children.push(self.build(root)?);
        for s in steps {
            children.push(self.build(&s.input)?);
        }
        let schemas: Vec<&Schema> = children.iter().map(|c| c.schema()).collect();
        let shape = if self.cfg.eval.use_twigstack {
            twig_shape(&schemas, steps)
        } else {
            None
        };
        let names: Vec<String> = (0..children.len()).map(|k| format!("__t{k}")).collect();
        let one_level =
            plan.with_child_plans(names.iter().map(|n| LogicalPlan::scan(n.clone())).collect());
        let schema = match &shape {
            Some(s) => s.schema.clone(),
            None => {
                // the one-shot fallback path re-enters `eval`, which
                // detects the uncovered shape itself and cascades
                let ins: Vec<(&str, &Schema)> = names
                    .iter()
                    .map(|n| n.as_str())
                    .zip(schemas.iter().copied())
                    .collect();
                self.probe(&one_level, &ins)?
            }
        };
        Ok(Box::new(TwigCursor {
            children,
            steps: steps.to_vec(),
            shape,
            names,
            one_level,
            schema,
            state: TwigState::Start,
            batch: self.batch(),
            doc: self.doc,
            eval: self.cfg.eval,
            hint: self.cfg.arm_hint.clone(),
            mon,
            closed: false,
        }))
    }
}

// ----------------------------------------------------------------------
// cursor implementations

/// Source: batches cloned off a catalog relation.
struct ScanCursor<'a> {
    rel: &'a Relation,
    pos: usize,
    batch: usize,
    mon: Mon,
    closed: bool,
}

impl Cursor for ScanCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.rel.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if self.pos >= self.rel.tuples.len() {
            return Ok(None);
        }
        let hi = (self.pos + self.batch).min(self.rel.tuples.len());
        let tuples = self.rel.tuples[self.pos..hi].to_vec();
        self.pos = hi;
        Ok(Some(self.mon.emit(tuples)))
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.mon.finish();
    }
}

/// Bounded-output staging shared by the streaming cursors: a per-batch
/// evaluation can produce more than `batch_size` rows (joins multiply),
/// so the surplus is held here — accounted on the residency gauge — and
/// emitted one bounded batch at a time. Without this, a single fat
/// input batch would ride through the whole pipeline as one giant
/// batch, defeating the executor's memory bound.
#[derive(Default)]
struct Spill {
    out: Vec<Tuple>,
    pos: usize,
}

impl Spill {
    fn is_empty(&self) -> bool {
        self.pos >= self.out.len()
    }

    /// Park an oversized evaluation output; every row counts as resident
    /// until emitted (or cleared on close).
    fn stage(&mut self, mon: &Mon, tuples: Vec<Tuple>) {
        debug_assert!(self.is_empty());
        mon.residency.alloc(tuples.len());
        self.out = tuples;
        self.pos = 0;
    }

    /// Emit the next bounded batch from the parked rows.
    fn emit_next(&mut self, mon: &Mon, batch: usize) -> TupleBatch {
        let hi = (self.pos + batch.max(1)).min(self.out.len());
        let tuples = self.out[self.pos..hi].to_vec();
        mon.residency.free(tuples.len());
        self.pos = hi;
        if self.is_empty() {
            self.out = Vec::new();
            self.pos = 0;
        }
        mon.emit(tuples)
    }

    fn clear(&mut self, mon: &Mon) {
        mon.residency.free(self.out.len() - self.pos);
        self.out = Vec::new();
        self.pos = 0;
    }
}

/// Streaming unary operator: each child batch runs through the node as
/// a one-level plan over a shadow catalog (`__in` = the batch); output
/// larger than one batch drains through the [`Spill`].
struct MapCursor<'a> {
    child: Box<dyn Cursor + 'a>,
    in_schema: Schema,
    one_level: LogicalPlan,
    schema: Schema,
    batch: usize,
    spill: Spill,
    doc: Option<&'a Document>,
    eval: EvalConfig,
    mon: Mon,
    closed: bool,
}

impl Cursor for MapCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let mut cat = Catalog::new();
            cat.insert("__in", Relation::new(self.in_schema.clone(), batch.tuples));
            let ev = Evaluator {
                catalog: &cat,
                doc: self.doc,
                config: self.eval,
                metrics: self.mon.metrics_slot(),
            };
            let out = ev.eval(&self.one_level)?;
            if let Some(m) = ev.metrics {
                self.mon.absorb(m.into_inner());
            }
            // a filtered-empty batch is not end-of-stream: keep pulling
            if !out.tuples.is_empty() {
                self.spill.stage(&self.mon, out.tuples);
                return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
            }
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.child.close();
        self.spill.clear(&self.mon);
        self.mon.finish();
    }
}

/// How a [`BinaryCursor`] turns one left batch and the resident right
/// side into output.
enum Probe {
    /// `Join`: the value-join kernel, its table built once over the
    /// drained right side (`None` until then).
    Join {
        pred: Predicate,
        kind: JoinKind,
        right: Vec<Tuple>,
        table: Option<JoinTable>,
    },
    /// `Product`, `StructJoin`, `Difference`: the node re-evaluated as a
    /// one-level plan over a shadow catalog (`__r` = the right side,
    /// `__l` = the batch).
    Reenter {
        cat: Catalog,
        one_level: LogicalPlan,
    },
}

/// Build–probe binary operator: the right side is drained once and stays
/// resident until close, then every left batch probes it, oversized probe
/// output draining through the [`Spill`]. Correct for every operator
/// whose output is a per-left-tuple function of the whole right side.
struct BinaryCursor<'a> {
    left: Box<dyn Cursor + 'a>,
    right: Option<Box<dyn Cursor + 'a>>,
    right_rows: usize,
    probe: Probe,
    schema: Schema,
    left_schema: Schema,
    batch: usize,
    spill: Spill,
    doc: Option<&'a Document>,
    eval: EvalConfig,
    mon: Mon,
    closed: bool,
}

impl Cursor for BinaryCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.left.open()?;
        if let Some(r) = &mut self.right {
            r.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        if let Some(mut r) = self.right.take() {
            let mut tuples = Vec::new();
            while let Some(b) = r.next_batch()? {
                tuples.extend(b.tuples);
            }
            let rs = r.schema().clone();
            r.close();
            self.right_rows = tuples.len();
            self.mon.residency.alloc(tuples.len());
            match &mut self.probe {
                Probe::Join {
                    pred, right, table, ..
                } => {
                    *table =
                        Some(self.mon.metered(|m| {
                            JoinTable::build(pred, &self.left_schema, &rs, &tuples, m)
                        })?);
                    *right = tuples;
                }
                Probe::Reenter { cat, .. } => cat.insert("__r", Relation::new(rs, tuples)),
            }
        }
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let out = match &mut self.probe {
                Probe::Join {
                    kind, right, table, ..
                } => {
                    let table = table.as_ref().expect("built when the right side drained");
                    self.mon
                        .metered(|m| table.join(&batch.tuples, right, *kind, m))
                }
                Probe::Reenter { cat, one_level } => {
                    cat.insert("__l", Relation::new(self.left_schema.clone(), batch.tuples));
                    let ev = Evaluator {
                        catalog: cat,
                        doc: self.doc,
                        config: self.eval,
                        metrics: self.mon.metrics_slot(),
                    };
                    let out = ev.eval(one_level)?;
                    if let Some(m) = ev.metrics {
                        self.mon.absorb(m.into_inner());
                    }
                    out.tuples
                }
            };
            if !out.is_empty() {
                self.spill.stage(&self.mon, out);
                return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
            }
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.left.close();
        if let Some(r) = &mut self.right {
            r.close();
        }
        self.mon.residency.free(self.right_rows);
        self.right_rows = 0;
        self.spill.clear(&self.mon);
        self.mon.finish();
    }
}

/// Pass-through duplicate-preserving union: left to exhaustion, then
/// right.
struct UnionCursor<'a> {
    left: Box<dyn Cursor + 'a>,
    right: Box<dyn Cursor + 'a>,
    on_right: bool,
    mon: Mon,
    closed: bool,
}

impl Cursor for UnionCursor<'_> {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.left.open()?;
        self.right.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.on_right {
            if let Some(b) = self.left.next_batch()? {
                return Ok(Some(self.mon.emit(b.tuples)));
            }
            self.on_right = true;
            self.left.close();
        }
        match self.right.next_batch()? {
            Some(b) => Ok(Some(self.mon.emit(b.tuples))),
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.left.close();
        self.right.close();
        self.mon.finish();
    }
}

/// Pipeline breaker: materialize the input, evaluate the node once,
/// stream the buffered result out batch by batch.
struct BreakerCursor<'a> {
    child: Box<dyn Cursor + 'a>,
    in_schema: Schema,
    one_level: LogicalPlan,
    schema: Schema,
    out: Vec<Tuple>,
    pos: usize,
    materialized: bool,
    batch: usize,
    doc: Option<&'a Document>,
    eval: EvalConfig,
    mon: Mon,
    closed: bool,
}

impl Cursor for BreakerCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.materialized {
            self.materialized = true;
            let mut tuples = Vec::new();
            while let Some(b) = self.child.next_batch()? {
                self.mon.residency.alloc(b.len());
                tuples.extend(b.tuples);
            }
            let n_in = tuples.len();
            self.child.close();
            let mut cat = Catalog::new();
            cat.insert("__in", Relation::new(self.in_schema.clone(), tuples));
            let ev = Evaluator {
                catalog: &cat,
                doc: self.doc,
                config: self.eval,
                metrics: self.mon.metrics_slot(),
            };
            let out = ev.eval(&self.one_level)?;
            if let Some(m) = ev.metrics {
                self.mon.absorb(m.into_inner());
            }
            self.mon.residency.free(n_in);
            self.mon.residency.alloc(out.tuples.len());
            self.out = out.tuples;
        }
        if self.pos >= self.out.len() {
            return Ok(None);
        }
        let hi = (self.pos + self.batch).min(self.out.len());
        let tuples = self.out[self.pos..hi].to_vec();
        self.mon.residency.free(tuples.len());
        self.pos = hi;
        Ok(Some(self.mon.emit(tuples)))
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.child.close();
        if self.materialized {
            self.mon.residency.free(self.out.len() - self.pos);
        }
        self.out = Vec::new();
        self.pos = 0;
        self.mon.finish();
    }
}

enum TwigState {
    Start,
    /// Holistic: inputs resident, solutions enumerated, assembling
    /// output tuples batch by batch.
    Stream {
        rels: Vec<Relation>,
        solutions: Vec<Vec<usize>>,
        pos: usize,
        resident: usize,
    },
    /// Uncovered shape: the one-shot cascade result, draining.
    Drain {
        out: Vec<Tuple>,
        pos: usize,
    },
    Done,
}

/// Holistic twig join: drains its inputs (base ID streams in fused
/// plans), runs the multi-way merge once, then assembles one output
/// tuple per solution lazily — solutions are index vectors, so the
/// concatenated tuples never sit in memory all at once.
struct TwigCursor<'a> {
    children: Vec<Box<dyn Cursor + 'a>>,
    steps: Vec<TwigStep>,
    shape: Option<TwigShape>,
    names: Vec<String>,
    one_level: LogicalPlan,
    schema: Schema,
    state: TwigState,
    batch: usize,
    doc: Option<&'a Document>,
    eval: EvalConfig,
    hint: Option<ArmSwitchHint>,
    mon: Mon,
    closed: bool,
}

impl Cursor for TwigCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        for c in &mut self.children {
            c.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if matches!(self.state, TwigState::Start) {
            let mut rels = Vec::with_capacity(self.children.len());
            let mut resident = 0usize;
            for c in &mut self.children {
                let mut tuples = Vec::new();
                while let Some(b) = c.next_batch()? {
                    resident += b.len();
                    self.mon.residency.alloc(b.len());
                    tuples.extend(b.tuples);
                }
                let schema = c.schema().clone();
                c.close();
                rels.push(Relation::new(schema, tuples));
            }
            // Mid-query arm check: the leaf streams are fully drained, so
            // their real combined cardinality is known before the merge
            // has run. If a hint is attached (the store flagged this
            // plan's arm choice before) and the observation contradicts
            // the estimate the merge was priced on, fall over to the
            // cascade arm below — same answers, honestly-priced path —
            // and record the outcome.
            let fall_over = match (&self.shape, &self.hint) {
                (Some(_), Some(h)) if h.should_switch(resident as f64) => {
                    h.stats.record_arm_switch(h.doc_version, h.plan_fp, false);
                    tracing::debug!(
                        target: "uload::cost",
                        "twig arm fell over to cascade mid-query: observed {} leaf rows vs est {:.0}",
                        resident,
                        h.est_leaf_rows
                    );
                    true
                }
                _ => false,
            };
            self.state = match &self.shape {
                Some(shape) if !fall_over => {
                    let slot = self.mon.metrics_slot();
                    let solutions = twig_solutions(&rels, shape, &self.steps, slot.as_ref())?;
                    if let Some(s) = slot {
                        self.mon.absorb(s.into_inner());
                    }
                    TwigState::Stream {
                        rels,
                        solutions,
                        pos: 0,
                        resident,
                    }
                }
                _ => {
                    let mut cat = Catalog::new();
                    for (n, r) in self.names.iter().zip(rels) {
                        cat.insert(n.clone(), r);
                    }
                    // on a fallover the shape *is* covered, so the
                    // one-shot evaluation must have the holistic knob
                    // off or it would just run the twig arm again
                    let mut eval_cfg = self.eval;
                    if fall_over {
                        eval_cfg.use_twigstack = false;
                    }
                    let ev = Evaluator {
                        catalog: &cat,
                        doc: self.doc,
                        config: eval_cfg,
                        metrics: self.mon.metrics_slot(),
                    };
                    let out = ev.eval(&self.one_level)?;
                    if let Some(m) = ev.metrics {
                        self.mon.absorb(m.into_inner());
                    }
                    self.mon.residency.free(resident);
                    self.mon.residency.alloc(out.tuples.len());
                    TwigState::Drain {
                        out: out.tuples,
                        pos: 0,
                    }
                }
            };
        }
        match &mut self.state {
            TwigState::Stream {
                rels,
                solutions,
                pos,
                resident,
            } => {
                if *pos >= solutions.len() {
                    self.mon.residency.free(*resident);
                    *resident = 0;
                    self.state = TwigState::Done;
                    return Ok(None);
                }
                let hi = (*pos + self.batch).min(solutions.len());
                let mut tuples = Vec::with_capacity(hi - *pos);
                for sol in &solutions[*pos..hi] {
                    let mut t = rels[0].tuples[sol[0]].clone();
                    for (j, &i) in sol.iter().enumerate().skip(1) {
                        t = t.concat(&rels[j].tuples[i]);
                    }
                    tuples.push(t);
                }
                *pos = hi;
                Ok(Some(self.mon.emit(tuples)))
            }
            TwigState::Drain { out, pos } => {
                if *pos >= out.len() {
                    self.state = TwigState::Done;
                    return Ok(None);
                }
                let hi = (*pos + self.batch).min(out.len());
                let tuples = out[*pos..hi].to_vec();
                self.mon.residency.free(tuples.len());
                *pos = hi;
                Ok(Some(self.mon.emit(tuples)))
            }
            TwigState::Done => Ok(None),
            TwigState::Start => unreachable!("materialized above"),
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for c in &mut self.children {
            c.close();
        }
        match std::mem::replace(&mut self.state, TwigState::Done) {
            TwigState::Stream { resident, .. } => self.mon.residency.free(resident),
            TwigState::Drain { out, pos } => self.mon.residency.free(out.len() - pos),
            _ => {}
        }
        self.mon.finish();
    }
}

// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{derived, ColumnDemand};
    use crate::plan::{Axis, CmpOp, JoinKind, Predicate};
    use crate::value::Value;
    use crate::OrderSpec;
    use xmltree::generate::bib_sample;
    use xmltree::{Document, NodeKind};

    fn setup() -> (Document, Catalog) {
        let doc = bib_sample();
        let mut cat = Catalog::new();
        for l in ["library", "book", "phdthesis", "title", "author"] {
            let rel = derived(&doc, Some(l), NodeKind::Element, ColumnDemand::ALL);
            cat.insert_ordered(l, rel, OrderSpec::by("ID"));
        }
        let years = derived(&doc, Some("year"), NodeKind::Attribute, ColumnDemand::ALL);
        cat.insert("year_attr", years);
        (doc, cat)
    }

    /// Drain `plan` through the pipelined executor at several batch
    /// sizes and require byte-identical results to the oracle.
    fn assert_streams(plan: &LogicalPlan, cat: &Catalog, doc: Option<&Document>) {
        let ev = Evaluator {
            catalog: cat,
            doc,
            config: EvalConfig::default(),
            metrics: None,
        };
        let oracle = ev.eval(plan).unwrap();
        for bs in [1usize, 2, 3, 7, 1024] {
            let cfg = CursorConfig {
                batch_size: bs,
                ..Default::default()
            };
            let exec = build_cursor(plan, cat, doc, &cfg).unwrap();
            let got = exec.collect().unwrap();
            assert_eq!(got, oracle, "batch_size={bs} plan={plan}");
        }
    }

    #[test]
    fn scan_select_project_stream_like_the_oracle() {
        let (doc, cat) = setup();
        assert_streams(&LogicalPlan::scan("book"), &cat, Some(&doc));
        assert_streams(
            &LogicalPlan::scan("title").select(Predicate::eq("Val", Value::str("Data on the Web"))),
            &cat,
            Some(&doc),
        );
        assert_streams(
            &LogicalPlan::scan("title").project(&["ID", "Val"]),
            &cat,
            Some(&doc),
        );
    }

    #[test]
    fn binary_operators_stream_like_the_oracle() {
        let (doc, cat) = setup();
        let books = LogicalPlan::scan("book");
        let titles = LogicalPlan::scan("title");
        assert_streams(&books.clone().product(titles.clone()), &cat, Some(&doc));
        for kind in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::LeftOuter,
            JoinKind::Nest,
            JoinKind::NestOuter,
        ] {
            let p = books
                .clone()
                .struct_join(titles.clone(), "ID", "ID", Axis::Child, kind);
            assert_streams(&p, &cat, Some(&doc));
        }
        let rtitles = LogicalPlan::scan("title")
            .project(&["ID", "Val"])
            .rename(&["tid", "tval"]);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::LeftOuter] {
            assert_streams(
                &books.clone().join(
                    rtitles.clone(),
                    Predicate::col_cmp("Val", CmpOp::Eq, "tval"),
                    kind,
                ),
                &cat,
                Some(&doc),
            );
        }
        assert_streams(&titles.clone().union(titles.clone()), &cat, Some(&doc));
        assert_streams(
            &titles.clone().difference(
                titles
                    .clone()
                    .select(Predicate::eq("Val", Value::str("Data on the Web"))),
            ),
            &cat,
            Some(&doc),
        );

        // `Difference` removes exactly the tuples `tuple_cmp_all` calls
        // equal to some right tuple — `⊥ = ⊥`, IDs by `pre`, `1 ≠ "1"`,
        // nested collections element-wise — keeps duplicates of the rest
        // in order, and streams as it materializes
        use crate::order::tuple_cmp_all;
        use crate::value::Collection;
        use xmltree::StructuralId;
        let coll = |xs: &[i64]| {
            Value::Coll(Collection::list(
                xs.iter()
                    .map(|x| Tuple::new(vec![Value::Int(*x)]))
                    .collect(),
            ))
        };
        let pool = [
            Value::Null,
            Value::Int(1),
            Value::str("1"),
            Value::str("x"),
            Value::Id(StructuralId::new(4, 9, 1)),
            Value::Id(StructuralId::new(4, 2, 3)),
            Value::Id(StructuralId::new(5, 1, 1)),
            coll(&[1, 2]),
            coll(&[1]),
            coll(&[]),
        ];
        let rel = |picks: &[(usize, usize)]| {
            let tuples = picks
                .iter()
                .map(|&(a, b)| Tuple::new(vec![pool[a].clone(), pool[b].clone()]))
                .collect();
            Relation::new(Schema::atoms(&["A", "B"]), tuples)
        };
        let left: Vec<(usize, usize)> = (0..pool.len())
            .flat_map(|a| [(a, 0), (a, 1), (a, 1), (a, (a + 3) % pool.len())])
            .collect();
        let right = [(0, 0), (1, 1), (2, 5), (5, 8), (7, 1), (9, 2), (3, 3)];
        let mut cat = Catalog::new();
        cat.insert("l", rel(&left));
        cat.insert("r", rel(&right));
        let plan = LogicalPlan::scan("l").difference(LogicalPlan::scan("r"));
        let got = Evaluator::new(&cat).eval(&plan).unwrap();
        let (l, r) = (cat.get("l").unwrap(), cat.get("r").unwrap());
        let want: Vec<Tuple> = l
            .tuples
            .iter()
            .filter(|t| {
                !r.tuples
                    .iter()
                    .any(|rt| tuple_cmp_all(t, rt) == std::cmp::Ordering::Equal)
            })
            .cloned()
            .collect();
        assert_eq!(got.tuples, want);
        assert!(want.len() < l.len() && want.len() > l.len() / 2);
        assert_streams(&plan, &cat, None);
    }

    #[test]
    fn breakers_stream_like_the_oracle() {
        let (doc, cat) = setup();
        let titles = LogicalPlan::scan("title");
        assert_streams(
            &titles
                .clone()
                .union(titles.clone())
                .project_distinct(&["Val"]),
            &cat,
            Some(&doc),
        );
        assert_streams(
            &LogicalPlan::GroupBy {
                input: Box::new(LogicalPlan::scan("author")),
                keys: vec!["Val".into()],
                nest_as: "occ".into(),
            },
            &cat,
            Some(&doc),
        );
        assert_streams(&titles.clone().sort(&["Val"]), &cat, Some(&doc));
        assert_streams(
            &LogicalPlan::NestAll {
                input: Box::new(titles.clone()),
                as_name: "all".into(),
            },
            &cat,
            Some(&doc),
        );
        // NestAll over an *empty* input still yields its single tuple
        assert_streams(
            &LogicalPlan::NestAll {
                input: Box::new(titles.select(Predicate::eq("Val", Value::str("no such title")))),
                as_name: "all".into(),
            },
            &cat,
            Some(&doc),
        );
    }

    /// A one-column ID stream with a distinct name, the shape fused
    /// twig plans feed the holistic operator.
    fn id_col(rel: &str, as_name: &str) -> LogicalPlan {
        LogicalPlan::scan(rel).project(&["ID"]).rename(&[as_name])
    }

    #[test]
    fn twig_join_streams_like_the_oracle() {
        let (doc, cat) = setup();
        let plan = id_col("library", "id0").twig_join(vec![
            TwigStep {
                input: id_col("book", "id1"),
                parent_attr: "id0".into(),
                attr: "id1".into(),
                axis: Axis::Descendant,
            },
            TwigStep {
                input: id_col("title", "id2"),
                parent_attr: "id1".into(),
                attr: "id2".into(),
                axis: Axis::Child,
            },
        ]);
        assert_streams(&plan, &cat, Some(&doc));
        // cascade fallback (holistic off) must match too
        let ev = Evaluator {
            catalog: &cat,
            doc: Some(&doc),
            config: EvalConfig::default(),
            metrics: None,
        };
        let oracle = ev.eval(&plan).unwrap();
        let cfg = CursorConfig {
            batch_size: 2,
            eval: EvalConfig {
                use_twigstack: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle);
    }

    #[test]
    fn arm_hint_falls_over_to_cascade_and_records_the_switch() {
        let (doc, cat) = setup();
        let plan = id_col("library", "id0").twig_join(vec![
            TwigStep {
                input: id_col("book", "id1"),
                parent_attr: "id0".into(),
                attr: "id1".into(),
                axis: Axis::Descendant,
            },
            TwigStep {
                input: id_col("title", "id2"),
                parent_attr: "id1".into(),
                attr: "id2".into(),
                axis: Axis::Child,
            },
        ]);
        let oracle = build_cursor(&plan, &cat, Some(&doc), &CursorConfig::default())
            .unwrap()
            .collect()
            .unwrap();

        // estimate wildly above the real combined leaf cardinality: the
        // cursor must fall over to the cascade arm, produce identical
        // rows, and record exactly one switch in the store
        let stats = Arc::new(StatsStore::new());
        let cfg = CursorConfig {
            arm_hint: Some(ArmSwitchHint {
                stats: Arc::clone(&stats),
                doc_version: 5,
                plan_fp: 0x51,
                est_leaf_rows: 1_000_000.0,
            }),
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle, "fallover must not change answers");
        let arm = stats.arm(5, 0x51).expect("switch recorded");
        assert_eq!(arm.switches, 1);
        assert_eq!(arm.mispredicts, 1);

        // an accurate estimate keeps the twig arm and records nothing
        let quiet = Arc::new(StatsStore::new());
        let total: usize = ["library", "book", "title"]
            .iter()
            .map(|n| cat.get(n).unwrap().len())
            .sum();
        let cfg = CursorConfig {
            arm_hint: Some(ArmSwitchHint {
                stats: Arc::clone(&quiet),
                doc_version: 5,
                plan_fp: 0x51,
                est_leaf_rows: total as f64,
            }),
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle);
        assert!(quiet.arm(5, 0x51).is_none(), "no switch on a sane estimate");
    }

    #[test]
    fn unnest_roundtrip_streams() {
        let (doc, cat) = setup();
        let nested = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "ts",
        );
        let plan = LogicalPlan::Unnest {
            input: Box::new(nested),
            attr: "ts".into(),
        };
        assert_streams(&plan, &cat, Some(&doc));
    }

    #[test]
    fn sort_elision_streams_declared_order() {
        let (doc, cat) = setup();
        let plan = LogicalPlan::scan("book").sort(&["ID"]);
        assert_streams(&plan, &cat, Some(&doc));
        // elided: the whole tree is the scan, so nothing is buffered
        let cfg = CursorConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        exec.next_batch().unwrap();
        assert_eq!(exec.peak_resident(), 1, "no breaker buffer for the sort");
        // an un-declared order still goes through the breaker
        let by_val = LogicalPlan::scan("book").sort(&["Val"]);
        assert_streams(&by_val, &cat, Some(&doc));
    }

    #[test]
    fn batch_boundaries_around_input_size() {
        let (doc, cat) = setup();
        // relation sizes in the bib sample are small; check ±1 around
        // them and around the default size
        let n = cat.get("author").unwrap().len();
        let plan = LogicalPlan::scan("author").project(&["Val"]);
        for bs in [1, 2, n.saturating_sub(1).max(1), n, n + 1, 1023, 1024, 1025] {
            let cfg = CursorConfig {
                batch_size: bs,
                ..Default::default()
            };
            let exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
            let got = exec.collect().unwrap();
            assert_eq!(got.len(), n, "batch_size={bs}");
        }
    }

    #[test]
    fn build_errors_surface_before_streaming() {
        let (doc, cat) = setup();
        assert!(matches!(
            build_cursor(
                &LogicalPlan::scan("nope"),
                &cat,
                Some(&doc),
                &CursorConfig::default()
            )
            .err(),
            Some(EvalError::UnknownRelation(_))
        ));
        let bad = LogicalPlan::scan("book").select(Predicate::eq("Nope", Value::Int(1)));
        assert!(matches!(
            build_cursor(&bad, &cat, Some(&doc), &CursorConfig::default()).err(),
            Some(EvalError::UnknownAttribute(_))
        ));
    }

    /// A child that counts how many times it is pulled — the probe for
    /// the cancellation contract.
    struct Probe<'a> {
        inner: Box<dyn Cursor + 'a>,
        pulls: Rc<Cell<usize>>,
    }

    impl Cursor for Probe<'_> {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn open(&mut self) -> Result<(), EvalError> {
            self.inner.open()
        }
        fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
            self.pulls.set(self.pulls.get() + 1);
            self.inner.next_batch()
        }
        fn close(&mut self) {
            self.inner.close();
        }
    }

    #[test]
    fn close_cancels_mid_stream_without_pulling_children() {
        let (_doc, cat) = setup();
        let rel = cat.get("author").unwrap();
        let residency = Rc::new(Residency::default());
        let mon = |r: &Rc<Residency>| Mon {
            residency: Rc::clone(r),
            cells: None,
            outstanding: Cell::new(0),
        };
        let pulls = Rc::new(Cell::new(0));
        let scan = ScanCursor {
            rel,
            pos: 0,
            batch: 1,
            mon: mon(&residency),
            closed: false,
        };
        let probe = Probe {
            inner: Box::new(scan),
            pulls: Rc::clone(&pulls),
        };
        let plan = LogicalPlan::scan("__in").select(Predicate::True);
        let mut cur = MapCursor {
            child: Box::new(probe),
            in_schema: rel.schema.clone(),
            one_level: plan,
            schema: rel.schema.clone(),
            batch: 1,
            spill: Spill::default(),
            doc: None,
            eval: EvalConfig::default(),
            mon: mon(&residency),
            closed: false,
        };
        cur.open().unwrap();
        assert!(cur.next_batch().unwrap().is_some());
        let pulled = pulls.get();
        assert!(pulled >= 1);
        cur.close();
        // after close: no more batches, and the child is never pulled
        for _ in 0..3 {
            assert!(cur.next_batch().unwrap().is_none());
        }
        assert_eq!(pulls.get(), pulled, "child pulled after close");
        assert_eq!(residency.current(), 0, "close releases resident tuples");
    }

    #[test]
    fn early_close_keeps_residency_below_materialized_size() {
        let (doc, cat) = setup();
        // a product is quadratic when materialized; pull one batch only
        let plan = LogicalPlan::scan("author").product(LogicalPlan::scan("title"));
        let ev = Evaluator::with_document(&cat, &doc);
        let full = ev.eval(&plan).unwrap().len() as u64;
        let cfg = CursorConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        assert!(exec.next_batch().unwrap().is_some());
        exec.close();
        assert_eq!(exec.resident_now(), 0);
        assert!(
            exec.peak_resident() < full + cat.get("title").unwrap().len() as u64,
            "peak {} vs full {}",
            exec.peak_resident(),
            full
        );
    }

    #[test]
    fn profiling_counts_batches_rows_and_kernel_work() {
        let (doc, cat) = setup();
        let plan = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        let cfg = CursorConfig {
            batch_size: 1,
            profiling: true,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        let mut rows = 0u64;
        while let Some(b) = exec.next_batch().unwrap() {
            rows += b.len() as u64;
        }
        let ops = exec.op_stats();
        assert_eq!(ops.len(), 3, "join + two scans");
        assert!(ops[0].label.starts_with("StructJoin"));
        assert_eq!(ops[0].cells.rows.get(), rows);
        assert!(ops[0].cells.batches.get() >= 1);
        assert!(
            ops[0].cells.metrics.borrow().comparisons > 0,
            "metered kernels feed op metrics"
        );
        assert!(!ops[0].breaker);
        assert!(exec.peak_resident() > 0);
    }

    #[test]
    fn breaker_annotation_lists_pre_order_labels() {
        let plan = LogicalPlan::scan("a")
            .union(LogicalPlan::scan("b"))
            .project_distinct(&["x"])
            .sort(&["x"]);
        let labels = pipeline_breakers(&plan);
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("Sort"));
        assert!(labels[1].starts_with("Project"));
        assert!(is_pipeline_breaker(&plan));
        assert!(!is_pipeline_breaker(&LogicalPlan::scan("a")));
    }
}
