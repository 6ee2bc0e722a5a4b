//! The executor: `next_batch` / `close` cursors streaming vectorized
//! [`TupleBatch`]es through the plan tree. This is the only place a
//! [`LogicalPlan`] is executed. Memory scales with the *resident* state
//! (build sides, breaker buffers, one in-flight batch per operator)
//! instead of with every intermediate relation, and `LIMIT`-style
//! consumers can stop early; drained at an unbounded batch
//! ([`crate::Evaluator::eval`]) it is the materialized evaluation.
//!
//! The cursor compiler ([`build_cursor`]) binds each [`LogicalPlan`] node
//! once to the schemas of its inputs — paths resolved, predicates bound,
//! the output schema computed, so an ill-formed plan fails before a tuple
//! moves — and wraps the bound operator ([`crate::eval`]) in the cursor
//! that fits how it consumes input:
//!
//! * **streaming unary** (`Select`, duplicate-preserving `Project`,
//!   `Unnest`, `XmlTemplate`, `Navigate`, `Fetch`, `DeriveAncestorId`,
//!   `Rename`, `CastSchema`) — the operator is applied to each child
//!   batch;
//! * **pipeline breakers** ([`is_pipeline_breaker`]: `GroupBy`, `Sort`,
//!   `NestAll`, and a `Project` with `distinct` unless it keeps a key its
//!   input provably has over the catalog — then it streams as a plain
//!   `Project`) — the same cursor in breaker mode: the input is drained,
//!   the operator applied once, and the result streamed out. A
//!   single-key `Sort` directly over a base scan whose declared
//!   [`crate::OrderSpec`] already satisfies the key is elided (stable sort
//!   of sorted input is the identity);
//! * **build–probe binary** (`Product`, `Join`, `StructJoin`,
//!   `Difference`) — the right side is drained and packed once (hash
//!   table, ID columns) and stays resident, then left batches probe it
//!   (all these operators are per-left-tuple, so batching the left
//!   preserves both results and order);
//! * **`Union`** — left exhausted first, then right, pass-through;
//! * **`TwigJoin`** — base-relation inputs (`Scan`, `Rename` over a
//!   `Scan`: the stored views of fused plans) are read in place off the
//!   catalog, other inputs are drained; the holistic merge enumerates
//!   solution index vectors, and output tuples are assembled batch by
//!   batch; shapes the holistic operator does not cover run the
//!   equivalent cascade of binary structural joins, bound at compile
//!   time, over copies of the inputs.
//!
//! The compiler also passes down which columns some ancestor reads (a
//! `Project` names them, a predicate or a navigation adds its own): a
//! `Navigate` leaves an unread `_Val` or `_Cont` `⊥` instead of
//! serializing it.
//!
//! `close()` propagates cancellation down the tree: children are closed,
//! resident state is released, and every further `next_batch` returns
//! `Ok(None)` without touching the children again.
//!
//! With [`CursorConfig::profiling`] on, every plan node — including the
//! ones that get no cursor of their own — owns one [`OpStats`] slot, in
//! plan pre-order, holding the rows and batches it emitted, its kernel
//! counters and its inclusive wall time. `EXPLAIN ANALYZE` is read off
//! those slots; there is no separate profiled execution.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use obs::{ExecMetrics, Meter};
use xmltree::Document;

use crate::eval::{
    reducing_selection, twig_shape, twig_solutions, Binary, Build, Catalog, ColumnDemand,
    EvalError, Metrics, Probe, Relation, TwigShape, Unary,
};
use crate::plan::{JoinKind, LogicalPlan, NavMode, Path, TwigStep};
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
/// `peak-resident-tuples` figure `--profile` reports and the server's
/// per-query budget enforces.
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

/// Live per-operator counters, shared between the cursor that updates
/// them and the [`StreamExec`] that reports them.
#[derive(Debug, Default)]
pub struct OpCells {
    pub batches: Cell<u64>,
    pub rows: Cell<u64>,
    /// Wall time spent inside this operator's `next_batch`, its inputs'
    /// included.
    pub time_ns: Cell<u64>,
    pub metrics: RefCell<ExecMetrics>,
}

/// One plan node's registration in a [`StreamExec`], in plan pre-order:
/// display label, breaker flag, live counters.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub label: String,
    pub breaker: bool,
    pub cells: Rc<OpCells>,
}

/// Per-cursor monitor: accounts emitted batches against the shared
/// residency gauge (a cursor's last emitted batch stays resident until
/// its next pull or close) and lends the kernels the node's metrics when
/// profiling.
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
        TupleBatch::new(tuples)
    }

    /// Run a kernel against this operator's metrics when profiling,
    /// unmetered otherwise.
    fn metered<R>(&self, f: impl FnOnce(Metrics<'_>) -> R) -> R {
        match &self.cells {
            Some(c) => f(Some(&mut c.metrics.borrow_mut())),
            None => f(None),
        }
    }

    /// Pull `child` dry and close it; every buffered row counts as
    /// resident from the moment it is pulled.
    fn drain(&self, child: &mut dyn Cursor) -> Result<Vec<Tuple>, EvalError> {
        let mut tuples = Vec::new();
        while let Some(b) = child.next_batch()? {
            self.residency.alloc(b.len());
            tuples.extend(b.tuples);
        }
        child.close();
        Ok(tuples)
    }

    fn finish(&self) {
        self.begin_pull();
    }
}

// ----------------------------------------------------------------------
// the cursor contract

/// The cursor contract. `next_batch` returns `Ok(None)` once exhausted
/// (and forever after); `close` releases resident state, propagates
/// cancellation to the children, and makes every further `next_batch`
/// return `Ok(None)` without pulling the children again.
pub trait Cursor {
    fn schema(&self) -> &Schema;
    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError>;
    fn close(&mut self);
}

/// Knobs for [`build_cursor`].
#[derive(Debug, Clone)]
pub struct CursorConfig {
    /// Target rows per batch (≥ 1; see [`TupleBatch`] for how operators
    /// may deviate). `usize::MAX` is unbounded: every operator sees its
    /// whole input as one batch, which is how [`crate::Evaluator::eval`]
    /// materializes a plan.
    pub batch_size: usize,
    /// Keep per-node rows, batches, kernel metrics and wall time,
    /// reported via [`StreamExec::op_stats`].
    pub profiling: bool,
}

impl Default for CursorConfig {
    fn default() -> Self {
        CursorConfig {
            batch_size: 1024,
            profiling: false,
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
}

impl<'a> StreamExec<'a> {
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Pull the next batch.
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
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

    /// One entry per plan node in plan pre-order; empty unless
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
// breaker classification and duplicate-freeness

/// Is this plan node a pipeline breaker (must see its whole input before
/// emitting anything) when it runs over `catalog`? This is the rule
/// [`build_cursor`] compiles by, so [`OpStats::breaker`],
/// [`pipeline_breakers`] and every report built on them name exactly the
/// nodes that buffer. A `π°` that keeps a key of its input runs as a
/// streaming `Π` and is not one. `Sort` counts even though
/// [`build_cursor`] elides it when the input is a base scan whose declared
/// [`crate::OrderSpec`] already satisfies the single sort key.
pub fn is_pipeline_breaker(plan: &LogicalPlan, catalog: &Catalog) -> bool {
    match plan {
        LogicalPlan::Project {
            input,
            cols,
            distinct: true,
        } => !dedup_is_redundant(input, cols, catalog),
        LogicalPlan::GroupBy { .. } | LogicalPlan::Sort { .. } | LogicalPlan::NestAll { .. } => {
            true
        }
        _ => false,
    }
}

/// Pre-order labels of every pipeline breaker in `plan` over `catalog` —
/// the annotation the rewriting layer logs before streaming starts.
pub fn pipeline_breakers(plan: &LogicalPlan, catalog: &Catalog) -> Vec<String> {
    fn rec(p: &LogicalPlan, catalog: &Catalog, out: &mut Vec<String>) {
        if is_pipeline_breaker(p, catalog) {
            out.push(p.node_label());
        }
        for c in p.child_plans() {
            rec(c, catalog, out);
        }
    }
    let mut out = Vec::new();
    rec(plan, catalog, &mut out);
    out
}

/// Does `π°[cols]` over `input` have nothing to eliminate? It has not
/// when `input` has a key ([`set_key`]), every kept column is a flat
/// input column named once, and every key column is kept: input tuples
/// differ on the key, so their projections differ too.
fn dedup_is_redundant(input: &LogicalPlan, cols: &[Path], catalog: &Catalog) -> bool {
    kept_key(input, cols, catalog).is_some()
}

/// The key of `input` that `π°[cols]` keeps, when that makes its hash
/// pass redundant (see [`dedup_is_redundant`]).
fn kept_key<'p>(
    input: &'p LogicalPlan,
    cols: &[Path],
    catalog: &'p Catalog,
) -> Option<Vec<Cow<'p, str>>> {
    let Keyed { cols: names, key } = set_key(input, catalog)?;
    let named_once = |c: &str| names.iter().filter(|n| *n == c).count() == 1;
    let kept = |c: &str| cols.iter().any(|p| p.as_str() == c);
    // a dotted column is a nested sub-projection, which can merge tuples
    let redundant = cols.iter().all(|c| named_once(c.as_str()))
        && key
            .iter()
            .all(|&k| named_once(&names[k]) && kept(&names[k]));
    redundant.then(|| key.iter().map(|&k| names[k].clone()).collect())
}

/// A plan's top-level column names with a key: positions of columns on
/// which no two of its tuples agree under `π°`'s equality.
struct Keyed<'p> {
    cols: Vec<Cow<'p, str>>,
    key: Vec<usize>,
}

impl<'p> Keyed<'p> {
    fn concat(mut self, other: Keyed<'p>) -> Keyed<'p> {
        let offset = self.cols.len();
        self.cols.extend(other.cols);
        self.key.extend(other.key.into_iter().map(|k| k + offset));
        self
    }
}

/// `plan`'s columns and a key of them ([`Keyed`]), when one is
/// provable; `None` when `plan` may hold duplicates. Worked out
/// bottom-up from the keys the catalog declares
/// ([`Catalog::declare_set`]):
///
/// * a `Scan` of a declared relation has the declared key;
/// * `Rename` and `CastSchema` rename the columns and keep the key by
///   position; `Sort` keeps it, and so does a `Select` unless it reduces
///   a nested collection (a dotted column compared with a constant: two
///   tuples can reduce to one);
/// * an inner `StructJoin` off a flat left attribute and without
///   `nest_as`, and a `TwigJoin` whose steps all hang off flat
///   attributes, have the union of their inputs' keys: each output tuple
///   is one vector of input tuples;
/// * a `Navigate` in `Flat` or `Outer` mode has its input's key plus the
///   reached node's `_ID` (the node's `_Val` and `_Cont` are functions of
///   it); in `Exists` mode it filters and keeps its input's key;
/// * `π°` is keyed on every column it keeps, by construction.
///
/// A path descends into a nested schema only at a `.`
/// ([`Schema::resolve`]), so a dotted path is one that crosses a
/// collection.
fn set_key<'p>(plan: &'p LogicalPlan, catalog: &'p Catalog) -> Option<Keyed<'p>> {
    use LogicalPlan::*;
    let flat = |p: &Path| !p.as_str().contains('.');
    let field_names = |s: &'p Schema| {
        s.fields
            .iter()
            .map(|f| Cow::from(f.name.as_str()))
            .collect()
    };
    // the key stays at its positions under the new names
    let renamed = |keyed: Keyed<'p>, cols: Vec<Cow<'p, str>>| {
        (cols.len() == keyed.cols.len()).then_some(Keyed {
            cols,
            key: keyed.key,
        })
    };
    match plan {
        Scan { relation } => Some(Keyed {
            key: catalog.declared_key(relation)?.to_vec(),
            cols: field_names(&catalog.get(relation)?.schema),
        }),
        Rename { input, names } => renamed(
            set_key(input, catalog)?,
            names.iter().map(|n| Cow::from(n.as_str())).collect(),
        ),
        CastSchema { input, schema } => renamed(set_key(input, catalog)?, field_names(schema)),
        Sort { input, .. } => set_key(input, catalog),
        Select { pred, .. } if reducing_selection(pred).is_some() => None,
        Select { input, .. } => set_key(input, catalog),
        StructJoin {
            left,
            right,
            left_attr,
            kind: JoinKind::Inner,
            nest_as: None,
            ..
        } if flat(left_attr) => Some(set_key(left, catalog)?.concat(set_key(right, catalog)?)),
        TwigJoin { root, steps } if steps.iter().all(|s| flat(&s.parent_attr)) => {
            let mut keyed = set_key(root, catalog)?;
            for s in steps {
                keyed = keyed.concat(set_key(&s.input, catalog)?);
            }
            Some(keyed)
        }
        Navigate {
            input,
            mode: NavMode::Exists,
            ..
        } => set_key(input, catalog),
        Navigate {
            input, as_prefix, ..
        } => {
            let mut keyed = set_key(input, catalog)?;
            keyed.key.push(keyed.cols.len());
            keyed
                .cols
                .extend(["ID", "Val", "Cont"].map(|c| Cow::from(format!("{as_prefix}_{c}"))));
            Some(keyed)
        }
        Project {
            cols,
            distinct: true,
            ..
        } => {
            let mut heads: Vec<Cow<'p, str>> = Vec::new();
            for c in cols {
                if !heads.iter().any(|h| h == head(c)) {
                    heads.push(Cow::from(head(c)));
                }
            }
            let key = (0..heads.len()).collect();
            Some(Keyed { cols: heads, key })
        }
        _ => None,
    }
}

/// The top-level column a (possibly dotted) path starts at.
fn head(p: &Path) -> &str {
    p.as_str().split('.').next().unwrap_or_default()
}

// ----------------------------------------------------------------------
// the cursor compiler

/// Compile `plan` into a cursor tree over `catalog` (plus optional
/// source document for navigation operators). Every node is bound to its
/// input schemas *here*, so an unknown relation or attribute, a type
/// misuse or a missing document fails the build — the returned executor
/// only then streams batches on demand.
pub fn build_cursor<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    config: &CursorConfig,
) -> Result<StreamExec<'a>, EvalError> {
    let mut b = Builder {
        catalog,
        doc,
        cfg: config,
        batch: config.batch_size.max(1),
        residency: Rc::new(Residency::default()),
        ops: Vec::new(),
    };
    let root = b.build(plan, None)?;
    Ok(StreamExec {
        root,
        residency: b.residency,
        ops: b.ops,
        batch_size: b.batch,
    })
}

/// The top-level columns of a node's output that some ancestor reads;
/// `None` is every column. A `Project` narrows it to the heads of its
/// columns; `Select`, `Join` and `Navigate` add the columns they read
/// themselves; every other node reads whole tuples and resets it.
type Demand<'p> = Option<Vec<&'p str>>;

/// `demand` plus the heads of `cols` (still `None` when it was).
fn demand_with<'p>(demand: &Demand<'p>, cols: impl IntoIterator<Item = &'p Path>) -> Demand<'p> {
    let mut d = demand.clone()?;
    d.extend(cols.into_iter().map(head));
    Some(d)
}

struct Builder<'a, 'c> {
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    cfg: &'c CursorConfig,
    batch: usize,
    residency: Rc<Residency>,
    ops: Vec<OpStats>,
}

impl<'a> Builder<'a, '_> {
    /// The one place a plan node becomes something that runs, computing
    /// only the `demand`ed columns where an operator can skip one.
    fn build<'p>(
        &mut self,
        plan: &'p LogicalPlan,
        demand: Demand<'p>,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        use LogicalPlan::*;
        let breaker = is_pipeline_breaker(plan, self.catalog);
        let cells = self.register(plan, breaker);
        let mon = Mon {
            residency: Rc::clone(&self.residency),
            cells: cells.clone(),
            outstanding: Cell::new(0),
        };
        let doc = self.doc;
        let cursor: Box<dyn Cursor + 'a> = match plan {
            Scan { relation } => {
                let rel = self.relation(relation)?;
                Box::new(ScanCursor {
                    rel,
                    pos: 0,
                    batch: self.batch,
                    mon,
                    closed: false,
                })
            }
            // a stable sort of input already sorted on the (single) key
            // is the identity: the node keeps its slot, the scan streams
            // through untouched
            Sort { input, by } if self.sort_is_elided(input, by) => self.build(input, None)?,
            // likewise a twig of no steps is its root
            TwigJoin { root, steps } if steps.is_empty() => self.build(root, None)?,

            Select { input, pred } => {
                let demand = demand_with(&demand, pred.columns());
                self.unary(input, demand, mon, breaker, |s| Unary::select(s, pred))?
            }
            // a `π°` that is no breaker has no duplicates to eliminate
            Project {
                input,
                cols,
                distinct,
            } => {
                if *distinct && !breaker {
                    self.log_dedup_elided(input, cols);
                }
                let demand = Some(cols.iter().map(head).collect());
                self.unary(input, demand, mon, breaker, |s| {
                    Unary::project(s, cols, *distinct && breaker)
                })?
            }
            GroupBy {
                input,
                keys,
                nest_as,
            } => self.unary(input, None, mon, breaker, |s| {
                Unary::group_by(s, keys, nest_as)
            })?,
            Unnest { input, attr } => {
                self.unary(input, None, mon, breaker, |s| Unary::unnest(s, attr))?
            }
            NestAll { input, as_name } => self.unary(input, None, mon, breaker, |s| {
                Ok(Unary::nest_all(s, as_name))
            })?,
            Sort { input, by } => self.unary(input, None, mon, breaker, |s| Unary::sort(s, by))?,
            XmlTemplate { input, templ } => self.unary(input, None, mon, breaker, |s| {
                Ok(Unary::xml_template(s, templ))
            })?,
            Navigate {
                input,
                from_attr,
                axis,
                label,
                as_prefix,
                mode,
            } => {
                let reads = |item: &str| {
                    let col = format!("{as_prefix}_{item}");
                    demand.as_ref().is_none_or(|d| d.contains(&col.as_str()))
                };
                let want = ColumnDemand {
                    tag: false,
                    val: reads("Val"),
                    cont: reads("Cont"),
                };
                if *mode != NavMode::Exists && !(want.val && want.cont) {
                    tracing::debug!(
                        target: "uload::cursor",
                        "{} skips{}{}: no ancestor reads it",
                        plan.node_label(),
                        if want.val { "" } else { " _Val" },
                        if want.cont { "" } else { " _Cont" },
                    );
                }
                let demand = demand_with(&demand, [from_attr]);
                self.unary(input, demand, mon, breaker, |s| {
                    Unary::navigate(s, doc, from_attr, *axis, label, as_prefix, *mode, want)
                })?
            }
            Fetch {
                input,
                id_attr,
                what,
                as_name,
            } => self.unary(input, None, mon, breaker, |s| {
                Unary::fetch(s, doc, id_attr, *what, as_name)
            })?,
            DeriveAncestorId {
                input,
                attr,
                levels,
                as_name,
            } => self.unary(input, None, mon, breaker, |s| {
                Unary::derive_ancestor(s, doc, attr, *levels, as_name)
            })?,
            CastSchema { input, schema } => {
                self.unary(input, None, mon, breaker, |s| Unary::cast(s, schema))?
            }
            Rename { input, names } => {
                self.unary(input, None, mon, breaker, |s| Unary::rename(s, names))?
            }

            Product { left, right } => {
                self.binary(left, right, None, mon, |l, r| Ok(Binary::product(l, r)))?
            }
            // a nest join folds its right side into one column, which the
            // demand does not name
            Join {
                left,
                right,
                pred,
                kind,
            } => {
                let demand = match kind {
                    JoinKind::Nest | JoinKind::NestOuter => None,
                    _ => demand_with(&demand, pred.columns()),
                };
                self.binary(left, right, demand, mon, |l, r| {
                    Binary::value_join(l, r, pred, *kind)
                })?
            }
            StructJoin {
                left,
                right,
                left_attr,
                right_attr,
                axis,
                kind,
                nest_as,
            } => self.binary(left, right, None, mon, |l, r| {
                Binary::struct_join(
                    l,
                    r,
                    left_attr,
                    right_attr,
                    *axis,
                    *kind,
                    nest_as.as_deref(),
                )
            })?,
            Difference { left, right } => {
                self.binary(left, right, None, mon, |l, _| Ok(Binary::difference(l)))?
            }
            Union { left, right } => {
                let left = self.build(left, None)?;
                let right = self.build(right, None)?;
                let (l, r) = (left.schema().arity(), right.schema().arity());
                if l != r {
                    return Err(EvalError::TypeError(format!(
                        "union arity mismatch: {l} vs {r}"
                    )));
                }
                Box::new(UnionCursor {
                    left,
                    right,
                    on_right: false,
                    mon,
                    closed: false,
                })
            }
            TwigJoin { root, steps } => self.twig(root, steps, mon)?,
        };
        Ok(match cells {
            Some(cells) => Box::new(Profiled {
                inner: cursor,
                cells,
            }),
            None => cursor,
        })
    }

    /// Register `plan`'s profiling slot. Every plan node owns one,
    /// registered before its inputs' (pre-order), whether or not it gets
    /// a cursor of its own.
    fn register(&mut self, plan: &LogicalPlan, breaker: bool) -> Option<Rc<OpCells>> {
        self.cfg.profiling.then(|| {
            let cells = Rc::new(OpCells::default());
            self.ops.push(OpStats {
                label: plan.node_label(),
                breaker,
                cells: Rc::clone(&cells),
            });
            cells
        })
    }

    /// The catalog relation `name`.
    fn relation(&self, name: &str) -> Result<&'a Relation, EvalError> {
        self.catalog
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    /// Sort elision over a declared order: `by` is one key and `input` a
    /// base scan whose declared order satisfies it.
    fn sort_is_elided(&self, input: &LogicalPlan, by: &[Path]) -> bool {
        let (LogicalPlan::Scan { relation }, [key]) = (input, by) else {
            return false;
        };
        let elided = self
            .catalog
            .declared_order(relation)
            .is_some_and(|ord| ord.satisfies(key));
        if elided {
            tracing::debug!(
                target: "uload::cursor",
                "Sort({}) elided: declared order of `{relation}` satisfies it",
                key.as_str()
            );
        }
        elided
    }

    /// The debug line saying why a `π°` streams; the key is only worked
    /// out again when the line is logged.
    fn log_dedup_elided(&self, input: &LogicalPlan, cols: &[Path]) {
        tracing::debug!(
            target: "uload::cursor",
            "Project°[{}] elided: it keeps the key [{}] of its input",
            cols.iter().map(Path::as_str).collect::<Vec<_>>().join(","),
            kept_key(input, cols, self.catalog)
                .unwrap_or_default()
                .join(",")
        );
    }

    fn unary<'p>(
        &mut self,
        input: &'p LogicalPlan,
        demand: Demand<'p>,
        mon: Mon,
        breaker: bool,
        bind: impl FnOnce(&Schema) -> Result<Unary<'a>, EvalError>,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let child = self.build(input, demand)?;
        let op = bind(child.schema())?;
        Ok(Box::new(MapCursor {
            child,
            op,
            drain_first: breaker,
            batch: self.batch,
            spill: Spill::default(),
            mon,
            closed: false,
        }))
    }

    /// A build–probe binary; `demand` goes to both inputs.
    fn binary<'p>(
        &mut self,
        left: &'p LogicalPlan,
        right: &'p LogicalPlan,
        demand: Demand<'p>,
        mon: Mon,
        bind: impl FnOnce(&Schema, &Schema) -> Result<Binary, EvalError>,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let left = self.build(left, demand.clone())?;
        let right = self.build(right, demand)?;
        let op = bind(left.schema(), right.schema())?;
        Ok(Box::new(BinaryCursor {
            left,
            right: RightSide::Pending(right, op.build),
            right_rows: 0,
            schema: op.schema,
            batch: self.batch,
            spill: Spill::default(),
            mon,
            closed: false,
        }))
    }

    fn twig(
        &mut self,
        root: &LogicalPlan,
        steps: &[TwigStep],
        mon: Mon,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let mut inputs = Vec::with_capacity(steps.len() + 1);
        inputs.push(self.twig_input(root)?);
        for s in steps {
            inputs.push(self.twig_input(&s.input)?);
        }
        let schemas: Vec<&Schema> = inputs.iter().map(TwigInput::schema).collect();
        let shape = twig_shape(&schemas, steps);
        // The cascade — the twig desugared to left-deep `Inner`
        // structural joins — is bound only for a shape the holistic
        // operator does not cover (map-extended attributes, two steps off
        // different ID columns of one input).
        let mut cascade = Vec::new();
        let mut cascade_schema = schemas[0].clone();
        if shape.is_none() {
            for (s, right) in steps.iter().zip(&schemas[1..]) {
                let join = Binary::struct_join(
                    &cascade_schema,
                    right,
                    &s.parent_attr,
                    &s.attr,
                    s.axis,
                    JoinKind::Inner,
                    None,
                )?;
                cascade_schema = join.schema.clone();
                cascade.push(join);
            }
        }
        let schema = match &shape {
            Some(shape) => shape.schema.clone(),
            None => cascade_schema,
        };
        Ok(Box::new(TwigCursor {
            inputs,
            steps: steps.to_vec(),
            shape,
            cascade,
            schema,
            state: TwigState::Start,
            batch: self.batch,
            spill: Spill::default(),
            mon,
            closed: false,
        }))
    }

    /// One twig input. A base relation — a `Scan`, or a `Rename` over
    /// one — is read in place off the catalog: its nodes keep their
    /// slots, but nothing is copied and nothing becomes resident. Any
    /// other input is compiled to a cursor and drained.
    fn twig_input(&mut self, plan: &LogicalPlan) -> Result<TwigInput<'a>, EvalError> {
        let (scan, names) = match plan {
            LogicalPlan::Rename { input, names } => (input.as_ref(), Some(names)),
            _ => (plan, None),
        };
        let LogicalPlan::Scan { relation } = scan else {
            return Ok(TwigInput::Drained(self.build(plan, None)?));
        };
        let mut slots = Vec::new();
        if names.is_some() {
            slots.extend(self.register(plan, false));
        }
        slots.extend(self.register(scan, false));
        let rel = self.relation(relation)?;
        let schema = match names {
            Some(names) => Cow::Owned(Unary::rename(&rel.schema, names)?.schema),
            None => Cow::Borrowed(&rel.schema),
        };
        Ok(TwigInput::Stored {
            rows: &rel.tuples,
            schema,
            slots,
        })
    }
}

// ----------------------------------------------------------------------
// cursor implementations

/// The profiling shell around a plan node's cursor (or, for a node that
/// was elided, around its input's): counts what comes out and how long
/// pulling it took, inputs included. Absent when not profiling.
struct Profiled<'a> {
    inner: Box<dyn Cursor + 'a>,
    cells: Rc<OpCells>,
}

impl Cursor for Profiled<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        let start = Instant::now();
        let out = self.inner.next_batch();
        let c = &self.cells;
        c.time_ns
            .set(c.time_ns.get() + start.elapsed().as_nanos() as u64);
        if let Ok(Some(b)) = &out {
            c.batches.set(c.batches.get() + 1);
            c.rows.set(c.rows.get() + b.len() as u64);
        }
        out
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

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

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if self.pos >= self.rel.tuples.len() {
            return Ok(None);
        }
        let hi = self
            .pos
            .saturating_add(self.batch)
            .min(self.rel.tuples.len());
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

/// Bounded-output staging shared by the cursors: applying an operator to
/// one batch can produce more than `batch_size` rows (joins multiply), so
/// the surplus is held here — accounted on the residency gauge — and
/// emitted one bounded batch at a time. Without this, a single fat input
/// batch would ride through the whole pipeline as one giant batch,
/// defeating the executor's memory bound.
#[derive(Default)]
struct Spill {
    out: std::vec::IntoIter<Tuple>,
}

impl Spill {
    fn is_empty(&self) -> bool {
        self.out.len() == 0
    }

    /// Emit `tuples`: as they are when they fit one batch, otherwise
    /// parked — every row resident until emitted (or cleared on close) —
    /// and handed out a batch at a time.
    fn emit(&mut self, mon: &Mon, batch: usize, tuples: Vec<Tuple>) -> TupleBatch {
        debug_assert!(self.is_empty());
        if tuples.len() <= batch {
            return mon.emit(tuples);
        }
        mon.residency.alloc(tuples.len());
        self.out = tuples.into_iter();
        self.emit_next(mon, batch)
    }

    /// Emit the next bounded batch from the parked rows.
    fn emit_next(&mut self, mon: &Mon, batch: usize) -> TupleBatch {
        let tuples: Vec<Tuple> = self.out.by_ref().take(batch).collect();
        mon.residency.free(tuples.len());
        mon.emit(tuples)
    }

    fn clear(&mut self, mon: &Mon) {
        mon.residency.free(self.out.len());
        self.out = Vec::new().into_iter();
    }
}

/// Unary operator. Streaming: the bound operator is applied to each
/// child batch. Breaker: the child is drained, the operator applied to
/// the whole input once. Either way, output larger than one batch
/// drains through the [`Spill`].
struct MapCursor<'a> {
    child: Box<dyn Cursor + 'a>,
    op: Unary<'a>,
    /// A breaker that has not yet drained its input.
    drain_first: bool,
    batch: usize,
    spill: Spill,
    mon: Mon,
    closed: bool,
}

impl Cursor for MapCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.op.schema
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
            let out = if self.drain_first {
                // the drained child is closed: after this the streaming
                // arm below finds it exhausted
                self.drain_first = false;
                let input = self.mon.drain(&mut *self.child)?;
                let n_in = input.len();
                let out = (self.op.apply)(input);
                self.mon.residency.free(n_in);
                out
            } else {
                let Some(batch) = self.child.next_batch()? else {
                    return Ok(None);
                };
                (self.op.apply)(batch.tuples)
            };
            // a filtered-empty batch is not end-of-stream: keep pulling
            if !out.is_empty() {
                return Ok(Some(self.spill.emit(&self.mon, self.batch, out)));
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

/// The right input of a [`BinaryCursor`]: not yet drained, or packed by
/// the operator's build step into the probe left batches run through.
enum RightSide<'a> {
    Pending(Box<dyn Cursor + 'a>, Build),
    Resident(Probe),
    Closed,
}

/// Build–probe binary operator: the right side is drained and packed
/// once and stays resident until close, then every left batch probes it,
/// oversized probe output draining through the [`Spill`]. Correct for
/// every operator whose output is a per-left-tuple function of the whole
/// right side.
struct BinaryCursor<'a> {
    left: Box<dyn Cursor + 'a>,
    right: RightSide<'a>,
    right_rows: usize,
    schema: Schema,
    batch: usize,
    spill: Spill,
    mon: Mon,
    closed: bool,
}

impl Cursor for BinaryCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        self.right = match std::mem::replace(&mut self.right, RightSide::Closed) {
            RightSide::Pending(mut right, build) => {
                let tuples = self.mon.drain(&mut *right)?;
                self.right_rows = tuples.len();
                RightSide::Resident(self.mon.metered(|m| build(tuples, m))?)
            }
            ready => ready,
        };
        let RightSide::Resident(probe) = &self.right else {
            return Ok(None); // draining or packing the right side failed
        };
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let out = self.mon.metered(|m| probe(batch.tuples, m))?;
            if !out.is_empty() {
                return Ok(Some(self.spill.emit(&self.mon, self.batch, out)));
            }
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.left.close();
        if let RightSide::Pending(right, _) = &mut self.right {
            right.close();
        }
        self.right = RightSide::Closed;
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

/// One input of a [`TwigCursor`] (see `Builder::twig_input`).
enum TwigInput<'a> {
    /// A catalog relation read in place, with the profiling slots of the
    /// plan nodes it stands for (`Rename`, then `Scan`).
    Stored {
        rows: &'a [Tuple],
        schema: Cow<'a, Schema>,
        slots: Vec<Rc<OpCells>>,
    },
    /// A computed input, drained when the merge starts.
    Drained(Box<dyn Cursor + 'a>),
}

impl TwigInput<'_> {
    fn schema(&self) -> &Schema {
        match self {
            TwigInput::Stored { schema, .. } => schema,
            TwigInput::Drained(c) => c.schema(),
        }
    }
}

enum TwigState<'a> {
    Start,
    /// Holistic: inputs at hand, solutions enumerated, assembling output
    /// tuples batch by batch. `resident` counts the drained inputs' rows.
    Stream {
        inputs: Vec<Cow<'a, [Tuple]>>,
        solutions: Vec<Vec<usize>>,
        pos: usize,
        resident: usize,
    },
    /// Exhausted, or the cascade ran and its result is in the spill.
    Done,
}

/// Holistic twig join: reads its stored inputs in place and drains the
/// computed ones, runs the multi-way merge once, then assembles one
/// output tuple per solution lazily — solutions are index vectors, so
/// the concatenated tuples never sit in memory all at once. For a shape
/// the merge does not cover, the bound cascade (see `Builder::twig`)
/// runs the binary joins over copies of the same inputs instead and
/// streams their result out.
struct TwigCursor<'a> {
    inputs: Vec<TwigInput<'a>>,
    steps: Vec<TwigStep>,
    shape: Option<TwigShape>,
    cascade: Vec<Binary>,
    schema: Schema,
    state: TwigState<'a>,
    batch: usize,
    spill: Spill,
    mon: Mon,
    closed: bool,
}

impl<'a> TwigCursor<'a> {
    /// Gather the inputs and run the holistic merge, or the bound
    /// cascade when the shape has none; `Some` is the cascade's whole
    /// output.
    fn start(&mut self) -> Result<Option<Vec<Tuple>>, EvalError> {
        let mut inputs: Vec<Cow<'a, [Tuple]>> = Vec::with_capacity(self.inputs.len());
        let (mut leaf_rows, mut resident) = (0usize, 0usize);
        for input in &mut self.inputs {
            let rows = match input {
                TwigInput::Stored { rows, slots, .. } => {
                    // what the scan would have emitted, batch for batch
                    let (n, batches) = (rows.len() as u64, rows.len().div_ceil(self.batch));
                    for c in slots.iter() {
                        c.rows.set(c.rows.get() + n);
                        c.batches.set(c.batches.get() + batches as u64);
                    }
                    Cow::Borrowed(*rows)
                }
                TwigInput::Drained(c) => {
                    let tuples = self.mon.drain(&mut **c)?;
                    resident += tuples.len();
                    Cow::Owned(tuples)
                }
            };
            leaf_rows += rows.len();
            inputs.push(rows);
        }
        if let Some(shape) = &self.shape {
            let rows: Vec<&[Tuple]> = inputs.iter().map(|r| r.as_ref()).collect();
            let solutions = self
                .mon
                .metered(|m| twig_solutions(&rows, shape, &self.steps, m))?;
            self.state = TwigState::Stream {
                inputs,
                solutions,
                pos: 0,
                resident,
            };
            return Ok(None);
        }
        tracing::debug!(
            target: "uload::eval",
            "twig join fell back to binary cascade ({} steps)",
            self.steps.len()
        );
        self.state = TwigState::Done;
        // the binary joins consume their inputs: the one place a stored
        // input is copied, and resident while they run
        self.mon.residency.alloc(leaf_rows - resident);
        let mut inputs = inputs.into_iter().map(Cow::into_owned);
        let mut acc = inputs.next().expect("a twig has a root input");
        for (join, right) in std::mem::take(&mut self.cascade).into_iter().zip(inputs) {
            acc = self.mon.metered(|mut m| {
                let probe = (join.build)(right, m.as_deref_mut())?;
                probe(acc, m)
            })?;
        }
        self.mon.metered(|m| {
            if let Some(m) = m {
                m.note_fallback();
            }
        });
        self.mon.residency.free(leaf_rows);
        Ok(Some(acc))
    }
}

impl Cursor for TwigCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        if matches!(self.state, TwigState::Start) {
            if let Some(out) = self.start()? {
                if !out.is_empty() {
                    return Ok(Some(self.spill.emit(&self.mon, self.batch, out)));
                }
            }
        }
        let TwigState::Stream {
            inputs,
            solutions,
            pos,
            resident,
        } = &mut self.state
        else {
            return Ok(None);
        };
        if *pos >= solutions.len() {
            self.mon.residency.free(*resident);
            self.state = TwigState::Done;
            return Ok(None);
        }
        // one output tuple per solution, built in one allocation;
        // twig_join already emits them in the cascade's lexicographic order
        let hi = pos.saturating_add(self.batch).min(solutions.len());
        let arity = self.schema.arity();
        let mut tuples = Vec::with_capacity(hi - *pos);
        for sol in &solutions[*pos..hi] {
            let mut vals = Vec::with_capacity(arity);
            for (rows, &i) in inputs.iter().zip(sol) {
                vals.extend_from_slice(&rows[i].0);
            }
            tuples.push(Tuple::new(vals));
        }
        *pos = hi;
        Ok(Some(self.mon.emit(tuples)))
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for input in &mut self.inputs {
            if let TwigInput::Drained(c) = input {
                c.close();
            }
        }
        if let TwigState::Stream { resident, .. } =
            std::mem::replace(&mut self.state, TwigState::Done)
        {
            self.mon.residency.free(resident);
        }
        self.spill.clear(&self.mon);
        self.mon.finish();
    }
}

// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{derived, ColumnDemand, Evaluator};
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

    fn run(
        plan: &LogicalPlan,
        cat: &Catalog,
        doc: Option<&Document>,
        batch_size: usize,
    ) -> Relation {
        let cfg = CursorConfig {
            batch_size,
            ..Default::default()
        };
        build_cursor(plan, cat, doc, &cfg)
            .unwrap()
            .collect()
            .unwrap()
    }

    /// Drain `plan` at batch sizes from one row to unbounded (what
    /// [`Evaluator::eval`] runs) and require the same rows in the same
    /// order every time.
    fn assert_batch_invariant(plan: &LogicalPlan, cat: &Catalog, doc: Option<&Document>) {
        let want = run(plan, cat, doc, usize::MAX);
        for bs in [1usize, 2, 3, 7, 1024, usize::MAX] {
            let got = run(plan, cat, doc, bs);
            assert_eq!(got, want, "batch_size={bs} plan={plan}");
        }
    }

    #[test]
    fn scan_select_project_are_batch_size_invariant() {
        let (doc, cat) = setup();
        assert_batch_invariant(&LogicalPlan::scan("book"), &cat, Some(&doc));
        assert_batch_invariant(
            &LogicalPlan::scan("title").select(Predicate::eq("Val", Value::str("Data on the Web"))),
            &cat,
            Some(&doc),
        );
        assert_batch_invariant(
            &LogicalPlan::scan("title").project(&["ID", "Val"]),
            &cat,
            Some(&doc),
        );
    }

    #[test]
    fn binary_operators_are_batch_size_invariant() {
        let (doc, cat) = setup();
        let books = LogicalPlan::scan("book");
        let titles = LogicalPlan::scan("title");
        assert_batch_invariant(&books.clone().product(titles.clone()), &cat, Some(&doc));
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
            assert_batch_invariant(&p, &cat, Some(&doc));
        }
        let rtitles = LogicalPlan::scan("title")
            .project(&["ID", "Val"])
            .rename(&["tid", "tval"]);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::LeftOuter] {
            assert_batch_invariant(
                &books.clone().join(
                    rtitles.clone(),
                    Predicate::col_cmp("Val", CmpOp::Eq, "tval"),
                    kind,
                ),
                &cat,
                Some(&doc),
            );
        }
        assert_batch_invariant(&titles.clone().union(titles.clone()), &cat, Some(&doc));
        assert_batch_invariant(
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
        // nested collections element-wise — and keeps duplicates of the
        // rest in order, at every batch size
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
        assert_batch_invariant(&plan, &cat, None);
    }

    #[test]
    fn breakers_are_batch_size_invariant() {
        let (doc, cat) = setup();
        let titles = LogicalPlan::scan("title");
        assert_batch_invariant(
            &titles
                .clone()
                .union(titles.clone())
                .project_distinct(&["Val"]),
            &cat,
            Some(&doc),
        );
        assert_batch_invariant(
            &LogicalPlan::GroupBy {
                input: Box::new(LogicalPlan::scan("author")),
                keys: vec!["Val".into()],
                nest_as: "occ".into(),
            },
            &cat,
            Some(&doc),
        );
        assert_batch_invariant(&titles.clone().sort(&["Val"]), &cat, Some(&doc));
        assert_batch_invariant(
            &LogicalPlan::NestAll {
                input: Box::new(titles.clone()),
                as_name: "all".into(),
            },
            &cat,
            Some(&doc),
        );
        // NestAll over an *empty* input still yields its single tuple
        assert_batch_invariant(
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
    fn twig_join_is_batch_size_invariant() {
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
        assert_batch_invariant(&plan, &cat, Some(&doc));
        // not vacuous: two books, one title each
        let got = run(&plan, &cat, Some(&doc), 2);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn unnest_roundtrip_is_batch_size_invariant() {
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
        assert_batch_invariant(&plan, &cat, Some(&doc));
    }

    #[test]
    fn sort_elision_streams_declared_order() {
        let (doc, cat) = setup();
        let plan = LogicalPlan::scan("book").sort(&["ID"]);
        assert_batch_invariant(&plan, &cat, Some(&doc));
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
        assert_batch_invariant(&by_val, &cat, Some(&doc));
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

    /// A child that counts how many times it is pulled — the witness for
    /// the cancellation contract.
    struct CountingCursor<'a> {
        inner: Box<dyn Cursor + 'a>,
        pulls: Rc<Cell<usize>>,
    }

    impl Cursor for CountingCursor<'_> {
        fn schema(&self) -> &Schema {
            self.inner.schema()
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
        let counting = CountingCursor {
            inner: Box::new(scan),
            pulls: Rc::clone(&pulls),
        };
        let mut cur = MapCursor {
            child: Box::new(counting),
            op: Unary::select(&rel.schema, &Predicate::True).unwrap(),
            drain_first: false,
            batch: 1,
            spill: Spill::default(),
            mon: mon(&residency),
            closed: false,
        };
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

    /// Drain `plan` over the bib sample with profiling on; the rows and
    /// the per-node slots.
    fn profiled(plan: &LogicalPlan, cat: &Catalog, batch_size: usize) -> (Relation, Vec<OpStats>) {
        let cfg = CursorConfig {
            batch_size,
            profiling: true,
        };
        let doc = bib_sample();
        let mut exec = build_cursor(plan, cat, Some(&doc), &cfg).unwrap();
        let mut tuples = Vec::new();
        while let Some(b) = exec.next_batch().unwrap() {
            tuples.extend(b.tuples);
        }
        assert!(exec.peak_resident() > 0);
        let ops = exec.op_stats().to_vec();
        (Relation::new(exec.schema().clone(), tuples), ops)
    }

    #[test]
    fn profiling_keeps_results_and_mirrors_the_plan() {
        let (_doc, cat) = setup();
        let plan = LogicalPlan::scan("book")
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .struct_join(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
                JoinKind::Inner,
            )
            .project(&["a_v"]);
        let plain = run(&plan, &cat, None, 1);
        let (rel, ops) = profiled(&plan, &cat, 1);
        assert_eq!(rel, plain, "profiling must not change results");
        // one slot per node, pre-order: project → join → {rename → scan} × 2
        assert_eq!(ops.len(), plan.size());
        let labels: Vec<&str> = ops.iter().map(|o| o.label.as_str()).collect();
        assert!(labels[0].starts_with("Project"), "{labels:?}");
        assert!(labels[1].starts_with("StructJoin"), "{labels:?}");
        assert_eq!(labels[3], "Scan(book)");
        assert_eq!(labels[5], "Scan(author)");
        assert_eq!(ops[0].cells.rows.get(), plain.len() as u64);
        assert_eq!(ops[1].cells.rows.get(), plain.len() as u64);
        assert!(ops[1].cells.batches.get() >= 1);
        assert!(
            ops[1].cells.metrics.borrow().comparisons > 0,
            "metered kernels feed the node's metrics"
        );
        assert!(ops.iter().all(|o| !o.breaker));
        // a node's time includes its inputs'
        let ns = |i: usize| ops[i].cells.time_ns.get();
        assert!(ns(0) >= ns(1) && ns(1) >= ns(2) + ns(4));
        assert!(ns(2) >= ns(3) && ns(3) > 0);
    }

    /// An elided `Sort` and a `TwigJoin` without steps get no cursor of
    /// their own but keep their slot, so the pre-order op list pairs with
    /// the plan (and the cost model's estimate tree) node for node.
    #[test]
    fn every_plan_node_owns_a_slot_even_when_it_is_skipped() {
        let (_doc, cat) = setup();
        let plan = LogicalPlan::scan("book")
            .sort(&["ID"])
            .twig_join(Vec::new())
            .project(&["ID"]);
        let (rel, ops) = profiled(&plan, &cat, 1);
        assert_eq!(rel.len(), 2);
        assert_eq!(ops.len(), plan.size());
        let labels: Vec<&str> = ops.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            ["Project[ID]", "TwigJoin(0 steps)", "Sort[ID]", "Scan(book)"]
        );
        for op in &ops {
            assert_eq!(op.cells.rows.get(), 2, "{}", op.label);
            assert_eq!(op.cells.batches.get(), 2, "{}", op.label);
        }
        assert!(ops[2].breaker && !ops[1].breaker);
    }

    #[test]
    fn twig_cascade_arm_counts_a_fallback_on_the_twig_node() {
        let (_doc, cat) = setup();
        let flat = LogicalPlan::scan("book")
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .twig_join(vec![TwigStep::new(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
            )]);
        let (_, ops) = profiled(&flat, &cat, 1024);
        assert_eq!(ops[0].cells.metrics.borrow().twig_fallbacks, 0);
        // a step off an ID inside a nested collection: a shape the
        // holistic merge does not cover, so the twig binds its cascade
        let nested = LogicalPlan::scan("library").struct_nest_join(
            LogicalPlan::scan("book"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "books",
        );
        let twig = nested.clone().twig_join(vec![TwigStep::new(
            LogicalPlan::scan("author"),
            "books.ID",
            "ID",
            Axis::Child,
        )]);
        let cascade = nested.struct_join(
            LogicalPlan::scan("author"),
            "books.ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        let (rel, ops) = profiled(&twig, &cat, 1024);
        assert!(!rel.is_empty());
        assert_eq!(rel, run(&cascade, &cat, None, 1024));
        assert_eq!(ops.len(), twig.size());
        let m = *ops[0].cells.metrics.borrow();
        assert_eq!(m.twig_fallbacks, 1, "{m:?}");
        assert!(
            m.comparisons > 0,
            "the cascade's joins meter into it: {m:?}"
        );
        assert_eq!(ops[0].cells.rows.get(), rel.len() as u64);
    }

    #[test]
    fn breaker_annotation_lists_pre_order_labels() {
        let plan = LogicalPlan::scan("a")
            .union(LogicalPlan::scan("b"))
            .project_distinct(&["x"])
            .sort(&["x"]);
        let cat = Catalog::new();
        let labels = pipeline_breakers(&plan, &cat);
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("Sort"));
        assert!(labels[1].starts_with("Project"));
        assert!(is_pipeline_breaker(&plan, &cat));
        assert!(!is_pipeline_breaker(&LogicalPlan::scan("a"), &cat));
    }

    /// `setup()`'s relations, each keyed on `ID`, plus an undeclared
    /// `_dup` copy of each holding every tuple twice.
    fn set_catalog() -> Catalog {
        let (_doc, mut cat) = setup();
        for name in ["library", "book", "phdthesis", "title", "author"] {
            assert!(cat.declare_set(name, &["ID"]));
            let rel = cat.get(name).unwrap().clone();
            let twice = rel.tuples.iter().chain(&rel.tuples).cloned().collect();
            cat.insert(format!("{name}_dup"), Relation::new(rel.schema, twice));
        }
        cat
    }

    /// The fused shape the rewriter emits: `π°` keeping every column of a
    /// twig over two renamed views.
    fn dedup_over_twig(book: &str, title: &str) -> LogicalPlan {
        LogicalPlan::scan(book)
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .twig_join(vec![TwigStep::new(
                LogicalPlan::scan(title).rename(&["t_id", "t_t", "t_v", "t_c"]),
                "b_id",
                "t_id",
                Axis::Child,
            )])
            .project_distinct(&["t_v", "b_id", "b_t", "b_v", "b_c", "t_id", "t_t", "t_c"])
    }

    /// A `π°` over a declared set is listed as a breaker nowhere — not
    /// by `pipeline_breakers`, not on its op slot — and streams; over an
    /// undeclared relation it still is one, and still eliminates.
    #[test]
    fn dedup_over_a_declared_set_is_no_breaker() {
        let cat = set_catalog();
        let flagged = |plan: &LogicalPlan| {
            let (rel, ops) = profiled(plan, &cat, 1);
            let flags: Vec<String> = ops
                .iter()
                .filter(|o| o.breaker)
                .map(|o| o.label.clone())
                .collect();
            assert_eq!(flags, pipeline_breakers(plan, &cat), "one rule, {plan}");
            (rel, flags)
        };
        let set = dedup_over_twig("book", "title");
        let (rel, flags) = flagged(&set);
        assert!(flags.is_empty(), "{flags:?}");
        assert!(!is_pipeline_breaker(&set, &cat));
        assert_eq!(rel.len(), 2);
        // streams: one row out costs one batch of each input, not a drain
        let cfg = CursorConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut exec = build_cursor(&set, &cat, None, &cfg).unwrap();
        exec.next_batch().unwrap();
        assert!(exec.peak_resident() <= 2, "{}", exec.peak_resident());

        let dup = dedup_over_twig("book_dup", "title_dup");
        let (dedup, flags) = flagged(&dup);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].starts_with("Project°"), "{flags:?}");
        assert_eq!(dedup, rel, "the hash pass removed the copies");
        assert_batch_invariant(&set, &cat, None);
        assert_batch_invariant(&dup, &cat, None);

        // where a kept key is provable the hash pass goes, wherever the
        // kept columns move; where it is not, or the projection can merge
        // tuples, it stays
        let all = ["ID", "Tag", "Val", "Cont", "as"];
        let nested = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "as",
        );
        let deduped = nested.project_distinct(&all);
        let cases = [
            // a non-reducing selection over a set, columns reordered
            (
                LogicalPlan::scan("book")
                    .select(Predicate::eq("Val", Value::str("x")))
                    .project_distinct(&["Cont", "ID", "Val", "Tag"]),
                false,
            ),
            // a `π°` is a set
            (deduped.clone().project_distinct(&all), false),
            // a subset of the columns that keeps the key
            (
                LogicalPlan::scan("book").project_distinct(&["ID", "Tag", "Val"]),
                false,
            ),
            // one that drops it
            (
                LogicalPlan::scan("book").project_distinct(&["Tag", "Val"]),
                true,
            ),
            // navigation keeps its input's key and adds the reached `_ID`
            (
                nav(LogicalPlan::scan("book"), NavMode::Flat)
                    .project_distinct(&["ID", "a_ID", "a_Val"]),
                false,
            ),
            (
                nav(LogicalPlan::scan("book"), NavMode::Outer).project_distinct(&["ID", "a_Val"]),
                true,
            ),
            (
                nav(LogicalPlan::scan("book"), NavMode::Exists).project_distinct(&["ID"]),
                false,
            ),
            (
                nav(LogicalPlan::scan("book_dup"), NavMode::Flat).project_distinct(&["ID", "a_ID"]),
                true,
            ),
            // a nest join
            (deduped.clone(), true),
            // a nested sub-projection
            (
                deduped
                    .clone()
                    .project_distinct(&["ID", "Tag", "Val", "Cont", "as.ID"]),
                true,
            ),
            // a selection that reduces a nested collection
            (
                deduped
                    .select(Predicate::eq("as.Val", Value::str("Suciu")))
                    .project_distinct(&all),
                true,
            ),
        ];
        let doc = bib_sample();
        for (plan, breaks) in cases {
            assert_eq!(is_pipeline_breaker(&plan, &cat), breaks, "{plan}");
            flagged(&plan);
            assert_batch_invariant(&plan, &cat, Some(&doc));
        }
    }

    /// `Navigate` from `ID` to the `author` children, as `a_*`.
    fn nav(input: LogicalPlan, mode: NavMode) -> LogicalPlan {
        LogicalPlan::Navigate {
            input: Box::new(input),
            from_attr: "ID".into(),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode,
        }
    }

    /// A twig reads stored inputs in place, and each `Scan`/`Rename`
    /// slot still reports what the scan would have emitted: every row,
    /// in as many batches as the batch size cuts them into. None of
    /// them is resident.
    #[test]
    fn borrowed_twig_inputs_keep_their_slots() {
        let (_doc, cat) = setup();
        let twig = LogicalPlan::scan("book")
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .twig_join(vec![
                TwigStep::new(LogicalPlan::scan("author"), "b_id", "ID", Axis::Child),
                TwigStep::new(id_col("title", "t_id"), "b_id", "t_id", Axis::Child),
            ]);
        let (books, authors) = (
            cat.get("book").unwrap().len(),
            cat.get("author").unwrap().len(),
        );
        let titles = cat.get("title").unwrap().len();
        for batch in [1usize, 2, 1024, usize::MAX] {
            let (rel, ops) = profiled(&twig, &cat, batch);
            assert_eq!(rel, run(&twig, &cat, None, batch));
            assert_eq!(ops.len(), twig.size());
            let slots: Vec<(&str, u64, u64)> = ops
                .iter()
                .map(|o| (o.label.as_str(), o.cells.rows.get(), o.cells.batches.get()))
                .collect();
            let cut = |n: usize| n.div_ceil(batch) as u64;
            assert_eq!(
                slots[1..],
                [
                    ("Rename", books as u64, cut(books)),
                    ("Scan(book)", books as u64, cut(books)),
                    ("Scan(author)", authors as u64, cut(authors)),
                    ("Rename", titles as u64, cut(titles)),
                    ("Project[ID]", titles as u64, cut(titles)),
                    ("Scan(title)", titles as u64, cut(titles)),
                ],
                "batch {batch}"
            );
        }
        // over stored inputs alone, only the emitted batch is resident
        let stored = LogicalPlan::scan("book").twig_join(vec![TwigStep::new(
            LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
            "ID",
            "a_id",
            Axis::Child,
        )]);
        let cfg = CursorConfig {
            batch_size: usize::MAX,
            ..Default::default()
        };
        let mut exec = build_cursor(&stored, &cat, None, &cfg).unwrap();
        let out = exec.next_batch().unwrap().unwrap().len() as u64;
        assert_eq!((out, exec.peak_resident()), (3, 3));
    }
}
