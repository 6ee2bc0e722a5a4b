//! The cost model for rewriting plans, with cardinality feedback.
//!
//! The paper ranks rewritings by operator count ("a minimal plan", §5.3);
//! a real optimizer also weighs the data volumes behind the scans. This
//! module estimates plan cost from the materialized views' actual sizes
//! (available in the catalog) with textbook per-operator formulas, and the
//! pipeline uses it to pick among verified rewritings. Estimates feed on
//! the same statistics a path summary supports (§4.2.1).
//!
//! Since PR 9 the model is a struct, [`CostModel`], and the estimate is
//! typed ([`Estimate`]): besides the catalog it can consume the measured
//! cardinalities a profiled run left in [`obs::StatsStore`]. When the
//! store holds observations for `(document version, plan fingerprint,
//! node)`, the node's row estimate blends the measured mean over the
//! catalog figure with a confidence weight that grows with the number of
//! observations; nodes (or whole document versions) the store has never
//! seen fall back to the pure catalog estimate, so planning for unseen
//! data stays deterministic and byte-identical to the feedback-free
//! model.

use algebra::{Catalog, JoinKind, LogicalPlan};
use obs::StatsStore;

/// The twig kernel's batched columnar sweep retires compares
/// lane-at-a-time with no data-dependent branches; the measured
/// per-element constant on dense merges sits well under that of the
/// element-at-a-time StackTree loop the cascade's charge is calibrated
/// on. The discount is deliberately modest so the planner never picks a
/// larger plan purely on kernel width.
const COLUMNAR_SWEEP_DISCOUNT: f64 = 0.5;

/// Laplace-style smoothing constant of the feedback blend: with `n`
/// observations the measured mean gets weight `n / (n + K)`, so one
/// observation already moves the estimate but never fully overrides the
/// catalog, and repeated confirmation converges toward the measurement.
const FEEDBACK_SMOOTHING: f64 = 2.0;

/// Where a node's row estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// Pure catalog arithmetic — no measured observations consulted.
    Catalog,
    /// Blended with measured cardinalities from the [`StatsStore`].
    Feedback,
}

/// A typed cost estimate: output cardinality, abstract cost units, and
/// the provenance of the row figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows (blended with measurements when available).
    pub rows: f64,
    /// Estimated cost in abstract units (comparisons touched).
    pub cost: f64,
    /// Whether `rows` consumed measured feedback.
    pub source: EstimateSource,
    /// Feedback weight in `[0, 1)`: `0.0` for pure catalog estimates,
    /// approaching `1.0` as observations accumulate.
    pub confidence: f64,
}

/// One node of an estimated plan tree (the payload of `EXPLAIN`):
/// operator label, its [`Estimate`], and the children in
/// `child_plans()` order.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateNode {
    /// Operator label (`LogicalPlan::node_label`).
    pub op: String,
    /// This node's estimate.
    pub estimate: Estimate,
    pub children: Vec<EstimateNode>,
}

impl EstimateNode {
    /// Nodes in this subtree whose estimate consumed feedback.
    pub fn feedback_nodes(&self) -> usize {
        let own = usize::from(self.estimate.source == EstimateSource::Feedback);
        own + self
            .children
            .iter()
            .map(EstimateNode::feedback_nodes)
            .sum::<usize>()
    }

    /// Total nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(EstimateNode::node_count)
            .sum::<usize>()
    }
}

#[derive(Debug, Clone, Copy)]
struct FeedbackContext<'a> {
    stats: &'a StatsStore,
    doc_version: u64,
    plan_fp: u64,
}

/// The cost model: a catalog of materialized relation sizes and
/// (optionally) the cardinality feedback recorded by profiled runs.
///
/// Unknown relations count as size 1000. Without feedback
/// ([`CostModel::new`]) the arithmetic is exactly the historical static
/// model; [`CostModel::with_feedback`] keys the store lookup by the
/// `(document version, plan fingerprint)` the observations were recorded
/// under, matching node indices by the same pre-order walk
/// `StatsStore::record_profile` uses.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    feedback: Option<FeedbackContext<'a>>,
}

impl<'a> CostModel<'a> {
    /// A feedback-free model: pure catalog estimates.
    pub fn new(catalog: &'a Catalog) -> CostModel<'a> {
        CostModel {
            catalog,
            feedback: None,
        }
    }

    /// Attach measured-cardinality feedback: node estimates blend the
    /// store's observations recorded under `(doc_version, plan_fp)`.
    pub fn with_feedback(
        mut self,
        stats: &'a StatsStore,
        doc_version: u64,
        plan_fp: u64,
    ) -> CostModel<'a> {
        self.feedback = Some(FeedbackContext {
            stats,
            doc_version,
            plan_fp,
        });
        self
    }

    /// The root estimate of `plan`.
    pub fn estimate(&self, plan: &LogicalPlan) -> Estimate {
        self.estimate_tree(plan).estimate
    }

    /// The scalar plan cost used for ranking.
    pub fn cost(&self, plan: &LogicalPlan) -> f64 {
        self.estimate(plan).cost
    }

    /// The full per-node estimate tree (the `EXPLAIN` payload).
    pub fn estimate_tree(&self, plan: &LogicalPlan) -> EstimateNode {
        let mut idx = 0u32;
        self.node(plan, &mut idx)
    }

    /// Estimate one node: pre-order index assignment (matching
    /// `StatsStore::record_profile`), recurse into `child_plans()`,
    /// combine with the per-operator formula, then blend in feedback.
    fn node(&self, plan: &LogicalPlan, idx: &mut u32) -> EstimateNode {
        let my_idx = *idx;
        *idx += 1;
        let children: Vec<EstimateNode> = plan
            .child_plans()
            .into_iter()
            .map(|c| self.node(c, idx))
            .collect();
        let (cost, rows) = self.combine(plan, &children);
        let (rows, source, confidence) = self.blend(my_idx, rows);
        EstimateNode {
            op: plan.node_label(),
            estimate: Estimate {
                rows,
                cost,
                source,
                confidence,
            },
            children,
        }
    }

    /// Blend the catalog row estimate with the store's measured mean,
    /// weighted by observation count. Catalog passthrough when the store
    /// has never seen this `(version, fingerprint, node)`.
    fn blend(&self, node_idx: u32, est_rows: f64) -> (f64, EstimateSource, f64) {
        if let Some(fb) = &self.feedback {
            if let Some(stats) = fb.stats.node(fb.doc_version, fb.plan_fp, node_idx) {
                if stats.observations > 0 {
                    let n = stats.observations as f64;
                    let w = n / (n + FEEDBACK_SMOOTHING);
                    let rows = w * stats.mean_actual_rows() + (1.0 - w) * est_rows;
                    return (rows, EstimateSource::Feedback, w);
                }
            }
        }
        (est_rows, EstimateSource::Catalog, 0.0)
    }

    /// Per-operator (cost, rows) from the already-estimated children —
    /// the historical formulas, fed the children's (possibly blended)
    /// cardinalities so measured selectivities propagate upward.
    fn combine(&self, plan: &LogicalPlan, children: &[EstimateNode]) -> (f64, f64) {
        use LogicalPlan::*;
        let ch = |i: usize| {
            let e = &children[i].estimate;
            (e.cost, e.rows)
        };
        match plan {
            Scan { relation } => {
                let rows = self.catalog.get(relation).map(|r| r.len()).unwrap_or(1000) as f64;
                (rows, rows)
            }
            Select { .. } => {
                let (c, r) = ch(0);
                (c + r, r * 0.33)
            }
            Project { distinct, .. } => {
                let (c, r) = ch(0);
                // duplicate elimination pays a comparison sweep
                (c + if *distinct { r * r.log2().max(1.0) } else { r }, r)
            }
            Product { .. } => {
                let (cl, rl) = ch(0);
                let (cr, rr) = ch(1);
                (cl + cr + rl * rr, rl * rr)
            }
            Join { pred, kind, .. } => {
                let (cl, rl) = ch(0);
                let (cr, rr) = ch(1);
                let out = match kind {
                    JoinKind::Semi => rl * 0.5,
                    JoinKind::Nest | JoinKind::NestOuter => rl,
                    _ => (rl * rr * 0.1).max(rl.min(rr)),
                };
                // the executor reads the algorithm off the predicate, and
                // so does the price: an equality conjunct means one hash
                // build over the right input, one probe per left tuple and
                // one test per output row; anything else is the nested loop
                let join = if pred.equi_conjuncts().is_empty() {
                    rl * rr
                } else {
                    rl + rr + out
                };
                (cl + cr + join, out)
            }
            StructJoin { kind, .. } => {
                let (cl, rl) = ch(0);
                let (cr, rr) = ch(1);
                let out = match kind {
                    JoinKind::Semi => rl * 0.5,
                    JoinKind::Nest | JoinKind::NestOuter => rl,
                    JoinKind::LeftOuter => rl.max(rr),
                    JoinKind::Inner => rr.max(rl * 0.5),
                };
                // StackTree: sort + merge
                let sort = (rl + rr) * (rl + rr).log2().max(1.0);
                (cl + cr + sort, out)
            }
            TwigJoin { steps, .. } => {
                // Holistic TwigStack: one multi-way merge over all streams,
                // no intermediate pair lists between the binary joins. Cost
                // is the sum of the input costs plus a single merge sweep of
                // the combined stream length; output folds the binary Inner
                // formula step by step (same answer, none of the cascade's
                // per-level sort-merge charges).
                let (mut cost, mut out) = ch(0);
                let mut total_rows = out;
                let mut min_rows = out;
                for i in 0..steps.len() {
                    let (cs, rs) = ch(1 + i);
                    cost += cs;
                    total_rows += rs;
                    min_rows = min_rows.min(rs);
                    out = rs.max(out * 0.5);
                }
                let log = total_rows.log2().max(1.0);
                // The sweep is batched: lane-wide branch-free compares
                // retire elements at a fraction of the per-element
                // constant, which matters exactly in the dense case where
                // seeking cannot help.
                let linear_merge = total_rows * log * COLUMNAR_SWEEP_DISCOUNT;
                // Skip-aware selectivity: the packed pre column is
                // seekable by construction, so the merge touches roughly
                // the most selective stream plus the output — everything
                // else is seeked over at a gallop (log) charge per touched
                // element and stream. On skewed twigs this term undercuts
                // the linear sweep.
                let seek_merge = (min_rows + out) * log * (steps.len() as f64 + 1.0);
                let merge = linear_merge.min(seek_merge);
                (cost + merge, out)
            }
            Union { .. } => {
                let (cl, rl) = ch(0);
                let (cr, rr) = ch(1);
                (cl + cr, rl + rr)
            }
            Difference { .. } => {
                let (cl, rl) = ch(0);
                let (cr, rr) = ch(1);
                (cl + cr + rl * rr, rl)
            }
            GroupBy { .. } | Sort { .. } => {
                let (c, r) = ch(0);
                (c + r * r.log2().max(1.0), r)
            }
            Unnest { .. } => {
                let (c, r) = ch(0);
                (c + r, r * 3.0)
            }
            NestAll { .. } => {
                let (c, r) = ch(0);
                (c + r, 1.0)
            }
            XmlTemplate { .. } => {
                let (c, r) = ch(0);
                (c + r, r)
            }
            Navigate { mode, .. } => {
                let (c, r) = ch(0);
                let out = match mode {
                    algebra::NavMode::Exists => r * 0.5,
                    _ => r * 2.0,
                };
                // document navigation per input tuple
                (c + r * 4.0, out)
            }
            DeriveAncestorId { .. } | Fetch { .. } => {
                let (c, r) = ch(0);
                (c + r * 2.0, r)
            }
            // Pure schema adapters: pass the child's figures through
            // unchanged. (They still hold a pre-order index of their own,
            // matching the profiled plan tree.)
            Rename { .. } | CastSchema { .. } => ch(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{Relation, Schema, Tuple, Value};
    use obs::{ExecMetrics, PlanNodeProfile, QueryProfile};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mk = |n: usize| {
            Relation::new(
                Schema::atoms(&["ID"]),
                (0..n)
                    .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
                    .collect(),
            )
        };
        c.insert("small", mk(10));
        c.insert("big", mk(10_000));
        c
    }

    fn plan_cost(plan: &LogicalPlan, c: &Catalog) -> f64 {
        CostModel::new(c).cost(plan)
    }

    fn rows_of(plan: &LogicalPlan, c: &Catalog) -> f64 {
        CostModel::new(c).estimate(plan).rows
    }

    /// A profile tree mirroring `plan`'s shape where every node reports
    /// `actual` measured rows.
    fn uniform_profile(plan: &LogicalPlan, actual: u64) -> PlanNodeProfile {
        PlanNodeProfile {
            op: plan.node_label(),
            est_cost: 0.0,
            est_rows: 0.0,
            actual_rows: actual,
            time_ns: 1,
            metrics: ExecMetrics::default(),
            mispredicted: false,
            children: plan
                .child_plans()
                .into_iter()
                .map(|c| uniform_profile(c, actual))
                .collect(),
        }
    }

    fn query_profile(plan: PlanNodeProfile) -> QueryProfile {
        QueryProfile {
            query: "q".to_string(),
            phases: Vec::new(),
            plan,
            cache: None,
            streamed: None,
            total_ns: 1,
        }
    }

    #[test]
    fn scans_cost_their_size() {
        let c = catalog();
        assert!(
            plan_cost(&LogicalPlan::scan("small"), &c) < plan_cost(&LogicalPlan::scan("big"), &c)
        );
        // unknown relations get a default
        assert!(plan_cost(&LogicalPlan::scan("nope"), &c) > 0.0);
    }

    #[test]
    fn index_backed_plan_beats_full_scan_join() {
        let c = catalog();
        let via_small = LogicalPlan::scan("small").select(algebra::Predicate::True);
        let via_big = LogicalPlan::scan("big").join(
            LogicalPlan::scan("big"),
            algebra::Predicate::True,
            algebra::JoinKind::Inner,
        );
        assert!(plan_cost(&via_small, &c) < plan_cost(&via_big, &c));
    }

    #[test]
    fn hash_join_is_priced_linear_and_nested_loop_quadratic() {
        let c = catalog();
        let join = |pred| {
            LogicalPlan::scan("big").rename(&["a"]).join(
                LogicalPlan::scan("big").rename(&["b"]),
                pred,
                algebra::JoinKind::Inner,
            )
        };
        let eq = algebra::Predicate::col_cmp("a", algebra::CmpOp::Eq, "b");
        let lt = algebra::Predicate::col_cmp("a", algebra::CmpOp::Lt, "b");
        let hash = CostModel::new(&c).estimate_tree(&join(eq.clone().and(lt.clone())));
        let nl = CostModel::new(&c).estimate_tree(&join(lt));
        assert_eq!(hash.op, "HashJoin(⋈)");
        assert_eq!(nl.op, "NLJoin(⋈)");
        // same inputs, same output estimate; only the algorithm's price differs
        assert_eq!(hash.estimate.rows, nl.estimate.rows);
        let inputs = 2.0 * 10_000.0;
        assert_eq!(nl.estimate.cost, inputs + 10_000.0 * 10_000.0);
        assert_eq!(hash.estimate.cost, inputs + inputs + hash.estimate.rows);
        // and the equality join now ranks below the product it replaces
        let product = LogicalPlan::scan("big")
            .rename(&["a"])
            .product(LogicalPlan::scan("big").rename(&["b"]))
            .select(eq.clone());
        assert!(plan_cost(&join(eq), &c) < plan_cost(&product, &c));
    }

    #[test]
    fn twig_estimate_beats_binary_cascade() {
        let c = catalog();
        // a depth-4 chain over the big relation: cascade pays a
        // sort-merge at every level, the twig pays one global merge
        let chain = |fused: bool| {
            let mut plan = LogicalPlan::scan("big").rename(&["a"]);
            for (i, col) in ["b", "c", "d"].iter().enumerate() {
                plan = plan.struct_join(
                    LogicalPlan::scan("big").rename(&[*col]),
                    if i == 0 { "a" } else { "b" },
                    *col,
                    algebra::Axis::Descendant,
                    algebra::JoinKind::Inner,
                );
            }
            if fused {
                algebra::fuse_struct_joins(&plan)
            } else {
                plan
            }
        };
        let cascade = chain(false);
        let twig = chain(true);
        assert!(matches!(twig, LogicalPlan::TwigJoin { .. }));
        assert!(
            plan_cost(&twig, &c) < plan_cost(&cascade, &c),
            "twig {} vs cascade {}",
            plan_cost(&twig, &c),
            plan_cost(&cascade, &c)
        );
    }

    #[test]
    fn selective_stream_makes_twig_cheaper() {
        // same twig shape, one leaf swapped from `big` to `small`: the
        // skip-aware term must reward the seekable, selective variant
        let c = catalog();
        let twig = |leaf: &str| {
            let plan = LogicalPlan::scan("big")
                .rename(&["a"])
                .struct_join(
                    LogicalPlan::scan("big").rename(&["b"]),
                    "a",
                    "b",
                    algebra::Axis::Descendant,
                    algebra::JoinKind::Inner,
                )
                .struct_join(
                    LogicalPlan::scan(leaf).rename(&["c"]),
                    "b",
                    "c",
                    algebra::Axis::Descendant,
                    algebra::JoinKind::Inner,
                );
            algebra::fuse_struct_joins(&plan)
        };
        assert!(
            plan_cost(&twig("small"), &c) < plan_cost(&twig("big"), &c),
            "selective twig {} vs uniform twig {}",
            plan_cost(&twig("small"), &c),
            plan_cost(&twig("big"), &c)
        );
    }

    #[test]
    fn semijoins_cheaper_output_than_joins() {
        let c = catalog();
        let semi = LogicalPlan::scan("big").struct_join(
            LogicalPlan::scan("small"),
            "ID",
            "ID",
            algebra::Axis::Child,
            algebra::JoinKind::Semi,
        );
        let semi_rows = rows_of(&semi, &c);
        let inner = LogicalPlan::scan("big").struct_join(
            LogicalPlan::scan("small"),
            "ID",
            "ID",
            algebra::Axis::Child,
            algebra::JoinKind::Inner,
        );
        let inner_rows = rows_of(&inner, &c);
        assert!(semi_rows <= inner_rows);
    }

    #[test]
    fn twig_prices_are_pinned() {
        // Golden figures, recorded at 8e11f3f from the model as the
        // default engine configuration drove it (seeking and columnar
        // sweeps both priced in). Plans are chosen by comparing these
        // numbers, so a change here is a change of plans.
        let c = catalog();
        let twig_of = |leaf: &str| {
            let plan = LogicalPlan::scan("big")
                .rename(&["a"])
                .struct_join(
                    LogicalPlan::scan("big").rename(&["b"]),
                    "a",
                    "b",
                    algebra::Axis::Descendant,
                    algebra::JoinKind::Inner,
                )
                .struct_join(
                    LogicalPlan::scan(leaf).rename(&["c"]),
                    "b",
                    "c",
                    algebra::Axis::Descendant,
                    algebra::JoinKind::Inner,
                );
            let twig = algebra::fuse_struct_joins(&plan);
            assert!(matches!(twig, LogicalPlan::TwigJoin { .. }));
            twig
        };
        // dense: three equal streams, the batched linear sweep prices it
        let dense = CostModel::new(&c).estimate(&twig_of("big"));
        assert_eq!(dense.cost, 253090.12320405908);
        assert_eq!(dense.rows, 10000.0);
        // selective: a 10-row leaf, the seek term prices it
        let selective = CostModel::new(&c).estimate(&twig_of("small"));
        assert_eq!(selective.cost, 162965.777635665);
        assert_eq!(selective.rows, 5000.0);
    }

    #[test]
    fn feedback_blends_measured_rows_with_growing_confidence() {
        let c = catalog();
        let plan = LogicalPlan::scan("big").select(algebra::Predicate::True);
        let fp = 0xfeedu64;
        let stats = obs::StatsStore::new();

        // catalog says Select outputs 10_000 * 0.33; the runs measure 10
        let catalog_est = CostModel::new(&c).estimate(&plan);
        stats.record_profile(7, fp, &query_profile(uniform_profile(&plan, 10)));
        let one = CostModel::new(&c)
            .with_feedback(&stats, 7, fp)
            .estimate(&plan);
        assert_eq!(one.source, EstimateSource::Feedback);
        assert!(one.confidence > 0.0 && one.confidence < 1.0);
        assert!(
            one.rows < catalog_est.rows && one.rows > 10.0,
            "blend must sit between measurement and catalog: {} vs ({}, {})",
            one.rows,
            catalog_est.rows,
            10.0
        );

        // more observations → more weight on the measurement
        for _ in 0..9 {
            stats.record_profile(7, fp, &query_profile(uniform_profile(&plan, 10)));
        }
        let ten = CostModel::new(&c)
            .with_feedback(&stats, 7, fp)
            .estimate(&plan);
        assert!(ten.confidence > one.confidence);
        assert!(ten.rows < one.rows, "{} !< {}", ten.rows, one.rows);

        // an unseen document version falls back to pure catalog figures
        let unseen = CostModel::new(&c)
            .with_feedback(&stats, 8, fp)
            .estimate(&plan);
        assert_eq!(unseen, catalog_est);
        // as does an unseen fingerprint
        let other_fp = CostModel::new(&c)
            .with_feedback(&stats, 7, fp ^ 1)
            .estimate(&plan);
        assert_eq!(other_fp, catalog_est);
    }

    #[test]
    fn feedback_rescores_a_twig() {
        // A 2-step twig over large streams; once feedback reveals the
        // streams are tiny, its cost must drop below its static figure.
        let c = catalog();
        let plan = LogicalPlan::scan("big")
            .rename(&["a"])
            .struct_join(
                LogicalPlan::scan("big").rename(&["b"]),
                "a",
                "b",
                algebra::Axis::Descendant,
                algebra::JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("big").rename(&["c"]),
                "b",
                "c",
                algebra::Axis::Descendant,
                algebra::JoinKind::Inner,
            );
        let twig = algebra::fuse_struct_joins(&plan);
        let fp = 0xabcdu64;
        let stats = obs::StatsStore::new();
        for _ in 0..8 {
            stats.record_profile(3, fp, &query_profile(uniform_profile(&twig, 5)));
        }
        let cold = CostModel::new(&c).cost(&twig);
        let warm = CostModel::new(&c).with_feedback(&stats, 3, fp).cost(&twig);
        assert!(
            warm < cold,
            "measured-tiny streams must cut the twig cost: {warm} vs {cold}"
        );
    }

    #[test]
    fn estimate_tree_indexes_match_the_profile_walk() {
        // Rename is a pure adapter but still holds a pre-order slot, so
        // the tree must line up node-for-node with the profiled plan.
        let c = catalog();
        let plan = LogicalPlan::scan("small")
            .rename(&["x"])
            .select(algebra::Predicate::True);
        let tree = CostModel::new(&c).estimate_tree(&plan);
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.op, plan.node_label());
        assert_eq!(tree.children[0].children[0].op, "Scan(small)");

        // feedback recorded at pre-order idx 2 (the scan) must land on
        // the scan node of the tree, not the adapters
        let stats = obs::StatsStore::new();
        let fp = 0x77u64;
        stats.record_profile(1, fp, &query_profile(uniform_profile(&plan, 4)));
        let warm = CostModel::new(&c)
            .with_feedback(&stats, 1, fp)
            .estimate_tree(&plan);
        assert_eq!(warm.feedback_nodes(), 3);
        let scan = &warm.children[0].children[0];
        assert_eq!(scan.estimate.source, EstimateSource::Feedback);
        assert!(scan.estimate.rows < 10.0, "blend toward the measured 4");
    }
}
