//! The twig workloads and their reference oracles: XMark tree patterns
//! over the columnar ID streams, the binary cascade each one desugars to,
//! and [`cascade_solutions`], the pair-list cascade the holistic
//! operator's answers are checked against. Shared by the property tests
//! and the `profiling_overhead` bench.

/// One twig workload: a tree pattern (node `k`'s parent is `parents[k]`
/// via `axes[k]`; entry 0 is the root and its slots are unused) over one
/// XMark label stream per pattern node.
pub struct TwigWorkload {
    pub name: String,
    pub labels: Vec<&'static str>,
    pub parents: Vec<usize>,
    pub axes: Vec<algebra::Axis>,
}

impl TwigWorkload {
    /// The pattern as the holistic operator consumes it.
    pub fn pattern(&self) -> algebra::TwigPattern {
        let mut p = algebra::TwigPattern::root();
        for k in 1..self.labels.len() {
            p.add_child(self.parents[k], self.axes[k]);
        }
        p
    }

    /// One pre-sorted `(id, position)` stream per pattern node, served
    /// from the columnar index.
    pub fn streams(&self, idx: &storage::IdStreamIndex) -> Vec<Vec<(xmltree::StructuralId, u32)>> {
        self.labels
            .iter()
            .map(|l| {
                idx.elements(l)
                    .iter()
                    .enumerate()
                    .map(|(i, &sid)| (sid, i as u32))
                    .collect()
            })
            .collect()
    }

    /// The same streams as the store keeps them packed for the join
    /// kernels (payloads are positions, as in [`TwigWorkload::streams`];
    /// a label the document lacks is an empty column).
    pub fn columns(&self, idx: &storage::IdStreamIndex) -> Vec<algebra::IdColumns> {
        self.labels
            .iter()
            .map(|l| {
                idx.columnar(l, xmltree::NodeKind::Element)
                    .cloned()
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The equivalent binary structural-join cascade as a logical plan
    /// over the catalog-registered `ids_*` relations.
    pub fn cascade_plan(&self) -> algebra::LogicalPlan {
        use algebra::{JoinKind, LogicalPlan};
        use storage::IdStreamIndex;
        let cols: Vec<String> = (0..self.labels.len()).map(|i| format!("id{i}")).collect();
        let mut plan = LogicalPlan::scan(IdStreamIndex::relation_of(self.labels[0]))
            .rename(&[cols[0].as_str()]);
        for k in 1..self.labels.len() {
            plan = plan.struct_join(
                LogicalPlan::scan(IdStreamIndex::relation_of(self.labels[k]))
                    .rename(&[cols[k].as_str()]),
                cols[self.parents[k]].as_str(),
                cols[k].as_str(),
                self.axes[k],
                JoinKind::Inner,
            );
        }
        plan
    }

    /// The fused holistic plan the planner produces for the same twig.
    pub fn twig_plan(&self) -> algebra::LogicalPlan {
        algebra::fuse_struct_joins(&self.cascade_plan())
    }
}

fn chain(name: &str, labels: &[&'static str]) -> TwigWorkload {
    let n = labels.len();
    TwigWorkload {
        name: name.to_string(),
        labels: labels.to_vec(),
        parents: (0..n).map(|k| k.saturating_sub(1)).collect(),
        axes: vec![algebra::Axis::Descendant; n],
    }
}

fn fan(name: &str, root: &'static str, children: &[&'static str]) -> TwigWorkload {
    let mut labels = vec![root];
    labels.extend_from_slice(children);
    TwigWorkload {
        name: name.to_string(),
        labels,
        parents: vec![0; children.len() + 1],
        axes: vec![algebra::Axis::Child; children.len() + 1],
    }
}

/// The bench grid: XMark descendant chains of depth 2–5 (through the
/// recursive `parlist` region, where the cascade's intermediate pair
/// lists blow up) and child-axis stars of fanout 1–4 under `item`.
pub fn twig_workloads() -> Vec<TwigWorkload> {
    vec![
        chain("chain_depth2", &["description", "parlist"]),
        chain("chain_depth3", &["description", "parlist", "listitem"]),
        chain(
            "chain_depth4",
            &["description", "parlist", "listitem", "text"],
        ),
        chain(
            "chain_depth5",
            &["description", "parlist", "listitem", "text", "keyword"],
        ),
        // pruning twigs: the binary cascade materializes intermediate
        // lists that later steps mostly (or entirely) discard — nested
        // parlists are rare, and `bold` never contains `keyword`
        chain(
            "chain_deep4",
            &["description", "parlist", "parlist", "listitem"],
        ),
        chain(
            "chain_selective4",
            &["description", "text", "bold", "keyword"],
        ),
        fan("fan_width1", "item", &["location"]),
        fan("fan_width2", "item", &["location", "quantity"]),
        fan("fan_width3", "item", &["location", "quantity", "name"]),
        fan(
            "fan_width4",
            "item",
            &["location", "quantity", "name", "description"],
        ),
    ]
}

/// Build the catalog of cached ID streams the twig plans scan.
pub fn twig_catalog(doc: &xmltree::Document) -> algebra::Catalog {
    let mut catalog = algebra::Catalog::new();
    storage::IdStreamIndex::build(doc).register(&mut catalog);
    catalog
}

/// The binary-cascade physical operator, at the same level as
/// [`algebra::twig_join`]: one [`stack_tree_pairs`] per pattern edge
/// (`packed` = the base streams as the store serves them, packed once by
/// the caller) or, with `packed = None`, one [`nested_loop_pairs`], with
/// the intermediate solution list materialized between steps and the
/// join column re-sorted and re-packed per step — exactly the work a
/// binary-join engine performs, minus the (engine-neutral) tuple
/// formatting.
///
/// [`stack_tree_pairs`]: algebra::stacktree::stack_tree_pairs
/// [`nested_loop_pairs`]: algebra::stacktree::nested_loop_pairs
pub fn cascade_solutions(
    parents: &[usize],
    axes: &[algebra::Axis],
    streams: &[Vec<(xmltree::StructuralId, u32)>],
    packed: Option<&[algebra::IdColumns]>,
) -> Vec<Vec<usize>> {
    use algebra::stacktree::{nested_loop_pairs, stack_tree_pairs};
    use algebra::{IdColumns, NoMeter, DEFAULT_BLOCK};
    let n = streams.len();
    let mut tuples: Vec<Vec<usize>> = streams[0].iter().map(|&(_, p)| vec![p as usize]).collect();
    for k in 1..n {
        let p = parents[k];
        let mut left: Vec<(xmltree::StructuralId, u32)> = tuples
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let ti = u32::try_from(ti).expect("intermediate list exceeds 2^32 rows");
                (streams[p][t[p]].0, ti)
            })
            .collect();
        let pairs = match packed {
            Some(cols) => {
                left.sort_unstable_by_key(|&(s, _)| s.pre);
                let lc = IdColumns::from_pairs(&left, DEFAULT_BLOCK);
                stack_tree_pairs(&lc, &cols[k], axes[k], &mut NoMeter)
            }
            None => nested_loop_pairs(&left, &streams[k], axes[k]),
        };
        tuples = pairs
            .into_iter()
            .map(|(ti, di)| {
                let mut t = tuples[ti].clone();
                t.push(di);
                t
            })
            .collect();
    }
    tuples
}
