//! Algebraic XAM semantics `⟦χ⟧_d` (§2.2.2).
//!
//! A XAM is evaluated over a document by constructing a structural-join
//! tree **isomorphic to the XAM tree** (Definition 2.2.4): each non-`⊤`
//! node contributes its tag-derived collection `R_t` / `R_*` (attributes:
//! `R_t^α`), filtered by its value formula; each edge contributes a
//! structural (semi/outer/nest) join; a final projection `Π_χ` retains
//! exactly the stored attributes and eliminates duplicates
//! (Definitions 2.2.3 and 2.2.5 — evaluation internally keeps IDs to run
//! the joins, then projects them away if unstored).
//!
//! The `⊤` node matches the (virtual) document node: a `/`-edge from `⊤`
//! restricts matches to the root element, a `//`-edge matches any element.
//! Multiple children of `⊤` are combined by cartesian product (they share
//! no structural relation other than living in the same document, cf. the
//! `V10 × V11` rewriting of §3.3.3).
//!
//! Evaluation builds only what the XAM reads: each node's collection
//! carries `ID` plus the columns the XAM stores or tests
//! ([`build_catalog`]), and `Π_χ` skips duplicate elimination when the
//! IDs it keeps already tell all tuples apart ([`final_projection`]).
//!
//! A *chain* XAM — one path of plain `/` joins below a single `/` or `//`
//! edge from `⊤`, no value formula, kept IDs that form a key — is what a
//! path- or tag-partitioned store is made of (§2.1). [`evaluate`] reads
//! it off the document instead of running the join tree
//! ([`Route::Posting`]): each node of the leaf's label posting climbs
//! its parent pointers once per chain node, and only the bindings that
//! match build the stored columns. The rows come out in the join tree's
//! order, lexicographic by the bound nodes' `pre` from the top down —
//! by top node, then leaf, since a child chain's leaf fixes every node
//! above it. The relation is the join tree's, row for row.

use std::collections::HashMap;

use algebra::{
    eval::{derived, ColumnDemand},
    Axis, Catalog, EvalError, Evaluator, JoinKind, LogicalPlan, Operand, Path, Predicate, Relation,
    Schema, Tuple, Value,
};
use xmltree::{Document, NodeId, NodeKind};

use crate::ast::{EdgeSem, Formula, FormulaConst, Xam, XamEdge, XamNodeId};

/// Which stored item a result column corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredAttr {
    Id,
    Tag,
    Val,
    Cont,
}

impl StoredAttr {
    pub fn suffix(self) -> &'static str {
        match self {
            StoredAttr::Id => "ID",
            StoredAttr::Tag => "Tag",
            StoredAttr::Val => "Val",
            StoredAttr::Cont => "Cont",
        }
    }
}

/// One column of a XAM's result: which node, which item, and the dotted
/// path of the column in the output schema (crossing nest collections).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputColumn {
    pub node: XamNodeId,
    pub attr: StoredAttr,
    pub path: String,
}

/// The name [`build_join_plan`] scans, and [`build_catalog`] registers,
/// the tag-derived collection of node `n` under.
pub fn base_name(xam: &Xam, n: XamNodeId) -> String {
    format!("__xam_base_{}", xam.node(n).name)
}

/// Field name of an attribute of node `n` (unique across the XAM because
/// node names are unique).
pub fn field_name(xam: &Xam, n: XamNodeId, attr: StoredAttr) -> String {
    format!("{}_{}", xam.node(n).name, attr.suffix())
}

/// The dotted output path prefix of every node: nodes below a nested edge
/// live inside the nest collection named after the child node.
fn prefixes(xam: &Xam) -> Vec<String> {
    let mut out = vec![String::new(); xam.len()];
    for n in xam.pattern_nodes() {
        let p = xam.parent(n).unwrap();
        let node = xam.node(n);
        out[n.index()] = if node.edge.sem.is_nested() {
            format!("{}{}.", out[p.index()], node.name)
        } else {
            out[p.index()].clone()
        };
    }
    out
}

/// Is `n` (or any ancestor up to `⊤`) reachable only through a semijoin
/// edge? Such nodes contribute no output columns.
fn under_semijoin(xam: &Xam, n: XamNodeId) -> bool {
    let mut cur = n;
    while let Some(p) = xam.parent(cur) {
        if xam.node(cur).edge.sem.is_semijoin() {
            return true;
        }
        cur = p;
    }
    false
}

/// The output columns of a XAM, in pre-order of nodes then
/// ID/Tag/Val/Cont order — this is the tuple signature of `⟦χ⟧_d`.
pub fn output_columns(xam: &Xam) -> Vec<OutputColumn> {
    let pref = prefixes(xam);
    let mut out = Vec::new();
    for n in xam.pattern_nodes() {
        if under_semijoin(xam, n) {
            continue;
        }
        let node = xam.node(n);
        let mut push = |attr: StoredAttr| {
            out.push(OutputColumn {
                node: n,
                attr,
                path: format!("{}{}", pref[n.index()], field_name(xam, n, attr)),
            });
        };
        if node.stores_id.is_some() {
            push(StoredAttr::Id);
        }
        if node.stores_tag {
            push(StoredAttr::Tag);
        }
        if node.stores_val {
            push(StoredAttr::Val);
        }
        if node.stores_cont {
            push(StoredAttr::Cont);
        }
    }
    out
}

/// Convert a value formula on node `n` into an algebra predicate over its
/// `Val` column.
fn formula_to_predicate(col: &str, f: &Formula) -> Predicate {
    match f {
        Formula::True => Predicate::True,
        Formula::False =>
        // unsatisfiable: Val = Val is true, so use a contradiction
        {
            Predicate::Not(Box::new(Predicate::True))
        }
        Formula::Cmp(op, c) => {
            let v = match c {
                FormulaConst::Int(i) => Value::Int(*i),
                FormulaConst::Str(s) => Value::str(s),
            };
            Predicate::Cmp(Operand::Col(Path::new(col)), *op, Operand::Const(v))
        }
        Formula::And(a, b) => Predicate::And(
            Box::new(formula_to_predicate(col, a)),
            Box::new(formula_to_predicate(col, b)),
        ),
        Formula::Or(a, b) => Predicate::Or(
            Box::new(formula_to_predicate(col, a)),
            Box::new(formula_to_predicate(col, b)),
        ),
    }
}

/// The columns of each node's tag-derived collection (indexed by XAM
/// node) that evaluating the XAM reads besides `ID`: those `Π_χ` keeps,
/// and `Val` where the node's value formula tests it.
fn column_demand(xam: &Xam) -> Vec<ColumnDemand> {
    let mut demand = vec![ColumnDemand::default(); xam.len()];
    for c in output_columns(xam) {
        let d = &mut demand[c.node.index()];
        match c.attr {
            StoredAttr::Id => {}
            StoredAttr::Tag => d.tag = true,
            StoredAttr::Val => d.val = true,
            StoredAttr::Cont => d.cont = true,
        }
    }
    for n in xam.pattern_nodes() {
        if xam.node(n).value_predicate != Formula::True {
            demand[n.index()].val = true;
        }
    }
    demand
}

/// Build the catalog of tag-derived base relations for a XAM over `doc`:
/// per node, the columns `{name}_ID` and those of `{name}_Tag`,
/// `{name}_Val`, `{name}_Cont` that the XAM's plans read
/// ([`build_join_plan`] under [`final_projection`] or any projection to
/// [`output_columns`]).
pub fn build_catalog(xam: &Xam, doc: &Document) -> Catalog {
    let demand = column_demand(xam);
    let mut cat = Catalog::new();
    for n in xam.pattern_nodes() {
        let node = xam.node(n);
        let kind = if node.is_attribute {
            NodeKind::Attribute
        } else {
            NodeKind::Element
        };
        let mut rel = derived(doc, node.tag_predicate.as_deref(), kind, demand[n.index()]);
        for f in &mut rel.schema.fields {
            // `derived` names its columns by the `StoredAttr` suffixes
            f.name = format!("{}_{}", node.name, f.name);
        }
        cat.insert(base_name(xam, n), rel);
    }
    cat
}

/// Build the structural-join plan isomorphic to the XAM tree, *without*
/// the final projection (every column [`build_catalog`] built is kept);
/// apply [`final_projection`] to get `⟦χ⟧_d` proper.
pub fn build_join_plan(xam: &Xam) -> LogicalPlan {
    let top_children = xam.children(XamNodeId::TOP);
    assert!(
        !top_children.is_empty(),
        "a XAM must have at least one node besides ⊤"
    );
    let mut plan: Option<LogicalPlan> = None;
    for &c in top_children {
        let sub = node_plan(xam, c);
        // `/` from ⊤ restricts to the root element: depth = 1
        let sub = if xam.node(c).edge.axis == Axis::Child {
            // the root element is the unique element with no parent; we
            // encode "is root" as pre-rank 0 (document order starts there)
            sub.select(Predicate::Cmp(
                Operand::Col(Path::new(field_name(xam, c, StoredAttr::Id))),
                algebra::CmpOp::Le,
                Operand::Const(Value::Id(xmltree::StructuralId::new(0, u32::MAX, 1))),
            ))
        } else {
            sub
        };
        let sub = if xam.node(c).edge.sem.is_nested() {
            LogicalPlan::NestAll {
                input: Box::new(sub),
                as_name: xam.node(c).name.clone(),
            }
        } else {
            sub
        };
        plan = Some(match plan {
            None => sub,
            Some(p) => p.product(sub),
        });
    }
    plan.unwrap()
}

/// Plan for the subtree rooted at a non-`⊤` node: base relation, value
/// selection, then one structural join per child, bottom-up.
fn node_plan(xam: &Xam, n: XamNodeId) -> LogicalPlan {
    let node = xam.node(n);
    let mut plan = LogicalPlan::scan(base_name(xam, n));
    if node.value_predicate != Formula::True {
        plan = plan.select(formula_to_predicate(
            &field_name(xam, n, StoredAttr::Val),
            &node.value_predicate,
        ));
    }
    for &c in xam.children(n) {
        let child_plan = node_plan(xam, c);
        let edge = xam.node(c).edge;
        let kind = match edge.sem {
            EdgeSem::Join => JoinKind::Inner,
            EdgeSem::Outer => JoinKind::LeftOuter,
            EdgeSem::Semi => JoinKind::Semi,
            EdgeSem::NestJoin => JoinKind::Nest,
            EdgeSem::NestOuter => JoinKind::NestOuter,
        };
        plan = LogicalPlan::StructJoin {
            left: Box::new(plan),
            right: Box::new(child_plan),
            left_attr: Path::new(field_name(xam, n, StoredAttr::Id)),
            right_attr: Path::new(field_name(xam, c, StoredAttr::Id)),
            axis: edge.axis,
            kind,
            nest_as: edge.sem.is_nested().then(|| xam.node(c).name.clone()),
        };
    }
    plan
}

/// Can no two tuples of [`build_join_plan`]'s output agree on every `ID`
/// column `Π_χ` keeps? Then the projection has no duplicates to remove.
///
/// Join tuples are one per binding of the nodes reached from `⊤` through
/// join and outerjoin edges only (a semijoin filters, a nest edge folds
/// its subtree into one collection). Two of them differ at some such
/// node, so it is enough that each one's binding can be read off the
/// kept IDs: it keeps its own ID, or it is the root element (`/` from
/// `⊤`), or it is the parent — `/`, plain join — of a node whose binding
/// can.
fn kept_ids_form_a_key(xam: &Xam) -> bool {
    fn pinned(xam: &Xam, n: XamNodeId) -> bool {
        let node = xam.node(n);
        (node.stores_id.is_some() && !under_semijoin(xam, n))
            || (xam.parent(n) == Some(XamNodeId::TOP) && node.edge.axis == Axis::Child)
            || xam.children(n).iter().any(|&c| {
                let edge = xam.node(c).edge;
                edge.axis == Axis::Child && edge.sem == EdgeSem::Join && pinned(xam, c)
            })
    }
    // does `n`'s binding multiply top-level tuples? (`build_join_plan`
    // reads only nestedness off the edges leaving `⊤`)
    fn multiplies(xam: &Xam, n: XamNodeId) -> bool {
        let mut cur = n;
        while let Some(p) = xam.parent(cur) {
            let sem = xam.node(cur).edge.sem;
            if sem.is_nested() || (sem.is_semijoin() && p != XamNodeId::TOP) {
                return false;
            }
            cur = p;
        }
        true
    }
    xam.pattern_nodes()
        .all(|n| !multiplies(xam, n) || pinned(xam, n))
}

/// Wrap a join plan with the final `Π_χ` projection: keep exactly the
/// stored attributes (by dotted path) and eliminate duplicate tuples —
/// a pass the plan leaves out when the kept `ID` columns already tell
/// every tuple from every other.
pub fn final_projection(xam: &Xam, plan: LogicalPlan) -> LogicalPlan {
    let cols: Vec<Path> = output_columns(xam)
        .into_iter()
        .map(|c| Path::new(c.path))
        .collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        cols,
        distinct: !kept_ids_form_a_key(xam),
    }
}

/// How [`evaluate`] computes `⟦χ⟧_d` for a XAM; both give the same
/// relation, row for row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A chain XAM read off its leaf's label posting and the parent
    /// pointers.
    Posting,
    /// [`build_join_plan`] under [`final_projection`], over
    /// [`build_catalog`].
    JoinTree,
}

impl Route {
    /// The route [`evaluate`] takes for `xam`.
    pub fn of(xam: &Xam) -> Route {
        if chain(xam).is_some() {
            Route::Posting
        } else {
            Route::JoinTree
        }
    }
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Route::Posting => "posting",
            Route::JoinTree => "join_tree",
        })
    }
}

/// The nodes of a chain XAM, top down: `⊤` has one child, on a `/` or
/// `//` plain-join edge, every node below has at most one child, on a
/// `/` plain-join edge, no node tests its value, and the kept IDs form a
/// key (a chain that is no key needs `Π_χ`'s hash pass).
fn chain(xam: &Xam) -> Option<Vec<XamNodeId>> {
    let &[top] = xam.children(XamNodeId::TOP) else {
        return None;
    };
    if xam.node(top).edge.sem != EdgeSem::Join {
        return None;
    }
    let mut chain = vec![top];
    let mut n = top;
    loop {
        if xam.node(n).value_predicate != Formula::True {
            return None;
        }
        match xam.children(n) {
            [] => break,
            &[c] if xam.node(c).edge == XamEdge::child() => {
                chain.push(c);
                n = c;
            }
            _ => return None,
        }
    }
    kept_ids_form_a_key(xam).then_some(chain)
}

/// `⟦χ⟧_d` of the chain XAM whose nodes, top down, are `chain`
/// ([`Route::Posting`]).
fn evaluate_chain(xam: &Xam, chain: &[XamNodeId], doc: &Document) -> Relation {
    let columns = output_columns(xam);
    let names: Vec<&str> = columns.iter().map(|c| c.path.as_str()).collect();
    let schema = Schema::atoms(&names);
    // each node's kind and interned label (`None` for `*`); a label the
    // document lacks matches nothing
    let mut steps = Vec::with_capacity(chain.len());
    for &n in chain {
        let node = xam.node(n);
        let kind = if node.is_attribute {
            NodeKind::Attribute
        } else {
            NodeKind::Element
        };
        let label = match node.tag_predicate.as_deref() {
            None => None,
            Some(tag) => match doc.find_label(tag) {
                Some(id) => Some(id),
                None => return Relation::empty(schema),
            },
        };
        steps.push((kind, label));
    }
    // where each stored column reads its node's binding
    let reads: Vec<(usize, StoredAttr)> = columns
        .iter()
        .map(|c| {
            let at = chain.iter().position(|&n| n == c.node);
            (at.expect("a chain XAM's columns are its nodes'"), c.attr)
        })
        .collect();
    let rooted = xam.node(chain[0]).edge.axis == Axis::Child;
    let leaf = xam.node(chain[chain.len() - 1]);
    let (leaf_kind, _) = steps[chain.len() - 1];
    let mut bound = vec![NodeId::ROOT; chain.len()];
    let mut tags: HashMap<u32, Value> = HashMap::new();
    let mut buf = String::new();
    // the stored values, row after row: the tuples are allocated after
    // the strings, next to each other, as the join tree's `π` allocates
    // them (a scan of the view reads them in a row)
    let mut values: Vec<Value> = Vec::new();
    let mut rows = 0;
    // each row's top node, where rows can come out of the join tree's order
    let mut tops: Vec<NodeId> = Vec::new();
    let track_tops = !rooted && chain.len() > 1;
    'leaves: for &n in doc.label_posting(leaf.tag_predicate.as_deref(), leaf_kind) {
        let mut cur = n;
        bound[chain.len() - 1] = n;
        for (i, &(kind, label)) in steps.iter().enumerate().rev().skip(1) {
            match doc.parent(cur) {
                Some(p) if doc.kind(p) == kind && label.is_none_or(|l| doc.label_id(p) == l) => {
                    bound[i] = p;
                    cur = p;
                }
                _ => continue 'leaves,
            }
        }
        // `/` from ⊤ binds the root element only
        if rooted && cur != doc.root() {
            continue;
        }
        values.extend(reads.iter().map(|&(i, attr)| {
            let n = bound[i];
            match attr {
                StoredAttr::Id => Value::Id(doc.structural_id(n)),
                StoredAttr::Tag => tags
                    .entry(doc.label_id(n))
                    .or_insert_with(|| Value::str(doc.label(n)))
                    .clone(),
                StoredAttr::Val => {
                    buf.clear();
                    doc.write_value(n, &mut buf);
                    Value::str(&buf)
                }
                StoredAttr::Cont => {
                    buf.clear();
                    xmltree::parser::serialize_node(doc, n, &mut buf);
                    Value::str(&buf)
                }
            }
        }));
        rows += 1;
        if track_tops {
            tops.push(bound[0]);
        }
    }
    let mut values = values.into_iter();
    let mut tuples: Vec<Tuple> = (0..rows)
        .map(|_| Tuple::new(values.by_ref().take(reads.len()).collect()))
        .collect();
    // the rows are in leaf order, the join tree's by top node first: they
    // differ only where a `//`-rooted chain's top label nests in itself
    if !tops.is_sorted() {
        let mut rows: Vec<(NodeId, Tuple)> = tops.into_iter().zip(tuples).collect();
        rows.sort_by_key(|&(top, _)| top);
        tuples = rows.into_iter().map(|(_, t)| t).collect();
    }
    Relation::new(schema, tuples)
}

/// Evaluate a XAM (without access restrictions) over a document:
/// `⟦χ⟧_d`, a nested relation whose schema is given by
/// [`output_columns`]. A chain XAM is read off the label postings
/// ([`Route::Posting`]), any other runs its join tree.
///
/// ```
/// let doc = xmltree::generate::bib_sample();
/// let xam = xam_core::parse_xam("//book[id:s]{ /title[val] }").unwrap();
/// let rel = xam_core::evaluate(&xam, &doc).unwrap();
/// assert_eq!(rel.len(), 2); // both books have titles
/// ```
pub fn evaluate(xam: &Xam, doc: &Document) -> Result<Relation, EvalError> {
    if let Some(chain) = chain(xam) {
        return Ok(evaluate_chain(xam, &chain, doc));
    }
    let cat = build_catalog(xam, doc);
    let plan = final_projection(xam, build_join_plan(xam));
    Evaluator::with_document(&cat, doc).eval(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_xam;
    use xmltree::generate::bib_sample;

    #[test]
    fn two_node_xam_chi1() {
        // χ1 of Figure 2.8: ⊤ //j book [Tag] — both books
        let doc = bib_sample();
        let xam = parse_xam("//book[id:s,tag]").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.tuples[0].get(1).as_str(), Some("book"));
    }

    #[test]
    fn semijoin_chi2() {
        // χ2: books having a year attribute — only the 1999 one
        let doc = bib_sample();
        let xam = parse_xam("//book[id:s,tag]{ /s @year }").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1);
        // semijoin child stores nothing → 2 columns only
        assert_eq!(rel.schema.arity(), 2);
    }

    #[test]
    fn nested_chi3() {
        // χ3: as χ2 plus nested title (ID, Tag, Val)
        let doc = bib_sample();
        let xam = parse_xam("//book[id:s,tag]{ /s @year, /n t:title[id:s,tag,val] }").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1);
        let titles = rel.tuples[0].get(2).as_coll().unwrap();
        assert_eq!(titles.len(), 1);
        assert_eq!(titles.tuples[0].get(2).as_str(), Some("Data on the Web"));
    }

    #[test]
    fn value_predicates_filter() {
        let doc = bib_sample();
        let xam = parse_xam(r#"//*[id:s]{ /@year[val="2004"] }"#).unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1); // only the phdthesis has year=2004
    }

    #[test]
    fn optional_edges_keep_parents() {
        let doc = bib_sample();
        // all books, with optional year value
        let xam = parse_xam("//book[id:s]{ /? y:@year[val] }").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 2);
        let with_year: Vec<bool> = rel.tuples.iter().map(|t| !t.get(1).is_null()).collect();
        assert_eq!(with_year, vec![true, false]);
    }

    #[test]
    fn child_of_top_is_root_only() {
        let doc = bib_sample();
        // `/library` from ⊤ matches the root; `/book` from ⊤ matches nothing
        let xam = parse_xam("/library[id:s]").unwrap();
        assert_eq!(evaluate(&xam, &doc).unwrap().len(), 1);
        let xam = parse_xam("/book[id:s]").unwrap();
        assert_eq!(evaluate(&xam, &doc).unwrap().len(), 0);
    }

    #[test]
    fn star_node_matches_all_elements() {
        let doc = bib_sample();
        let xam = parse_xam("//*[id:s]").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), doc.element_count());
    }

    #[test]
    fn duplicate_elimination_in_projection() {
        let doc = bib_sample();
        // two books have authors; projecting only the (unstored-ID) tag of
        // the parent gives one tuple per distinct tag, not per author
        let xam = parse_xam("//book[tag]{ /author }").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1); // "book" — duplicates eliminated
    }

    #[test]
    fn output_columns_reflect_nesting() {
        let xam = parse_xam("//item[id:s]{ /name[val], //n? li:listitem[cont] }").unwrap();
        let cols = output_columns(&xam);
        let paths: Vec<&str> = cols.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"item1_ID"));
        assert!(paths.iter().any(|p| p.starts_with("li.")));
    }

    #[test]
    fn semijoin_suppresses_descendant_columns() {
        let xam = parse_xam("//a[id:s]{ /s b[val]{ /c[val] } }").unwrap();
        let cols = output_columns(&xam);
        assert_eq!(cols.len(), 1); // only a's ID
    }

    #[test]
    fn cartesian_product_of_top_children() {
        let doc = bib_sample();
        let xam = parse_xam("//x:book[id:s]").unwrap();
        // manually add a second ⊤ child: phdthesis
        let mut xam = xam;
        let mut phd = crate::ast::XamNode::star("y");
        phd.tag_predicate = Some("phdthesis".into());
        phd.stores_id = Some(crate::ast::IdKind::Structural);
        phd.edge = crate::ast::XamEdge::descendant();
        xam.add_child(xam.root(), phd);
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 2); // 2 books × 1 thesis
        assert_eq!(rel.schema.arity(), 2);
    }

    /// The views of a tag- and a path-partitioned store (§2.1) over
    /// `doc`: `//l[id:s]` per element label, `/l1{ /l2{ … [id:s,val] } }`
    /// per rooted label path.
    fn partition_views(doc: &Document) -> std::collections::BTreeSet<String> {
        let mut views = std::collections::BTreeSet::new();
        for n in doc.all_nodes() {
            if doc.kind(n) == NodeKind::Text {
                continue;
            }
            if doc.kind(n) == NodeKind::Element {
                views.insert(format!("//{}[id:s]", doc.label(n)));
            }
            let path = doc.label_path(n);
            let steps: Vec<&str> = path[1..].split('/').collect();
            let mut text = String::new();
            for (i, step) in steps.iter().enumerate() {
                text.push_str(if i == 0 { "/" } else { "{ /" });
                text.push_str(step);
            }
            text.push_str("[id:s,val]");
            text.push_str(&" }".repeat(steps.len() - 1));
            views.insert(text);
        }
        views
    }

    /// Which XAMs `evaluate` reads off the postings: every view of a tag-
    /// or path-partitioned store, and the chains below; anything with a
    /// branch, a value formula, an edge other than a plain `/` join below
    /// `⊤`, or kept IDs that are no key runs the join tree.
    #[test]
    fn chains_take_the_posting_route() {
        for doc in [
            xmltree::generate::xmark(2, 7),
            xmltree::generate::dblp(20, 7),
            xmltree::generate::bib_document_with_sections(),
        ] {
            let views = partition_views(&doc);
            assert!(views.len() >= 10);
            for text in views {
                let xam = parse_xam(&text).unwrap();
                assert_eq!(Route::of(&xam), Route::Posting, "{text}");
            }
        }
        for text in [
            "//*[id:s]{ /@*[id:s,val] }",
            "/lib{ /book{ /@year[id:s,val] } }",
            "//sec[id:s]{ /sec[id:s]{ /p[id:s] } }",
            "//a{ /b[id:s] }",
            "/a[tag,cont]",
            "/lib{ /*[tag]{ /author[id:s] } }",
        ] {
            assert_eq!(
                Route::of(&parse_xam(text).unwrap()),
                Route::Posting,
                "{text}"
            );
        }
        for text in [
            "//*[tag]{ /*[tag] }",
            "//b[tag,val]",
            "//book{ /title[val] }",
            "//a[id:s]{ /b[id:s]{ /c } }",
            r#"/lib{ /book{ /title[id:s,val="Next"] } }"#,
            "//a{ //b[id:s] }",
            "//a[id:s]{ /b[id:s], /c[id:s] }",
            "//a[id:s]{ /? b[id:s] }",
            "//a[id:s]{ /n b[id:s] }",
            "//a[id:s]{ /s b }",
        ] {
            assert_eq!(
                Route::of(&parse_xam(text).unwrap()),
                Route::JoinTree,
                "{text}"
            );
        }
    }

    /// Over a recursive label the join tree is top-node major: the
    /// posting route sorts its leaf-ordered rows to match.
    #[test]
    fn posting_route_keeps_the_join_tree_order() {
        let doc = xmltree::parse_document("<r><a><a><b>1</b></a><b>2</b></a><a><b>3</b></a></r>")
            .unwrap();
        let xam = parse_xam("//a{ /b[id:s] }").unwrap();
        assert_eq!(Route::of(&xam), Route::Posting);
        let rel = evaluate(&xam, &doc).unwrap();
        let pres: Vec<u32> = rel
            .tuples
            .iter()
            .map(|t| t.get(0).as_id().unwrap().pre)
            .collect();
        assert_eq!(pres, [5, 3, 8]);
        let join_tree = Evaluator::with_document(&build_catalog(&xam, &doc), &doc)
            .eval(&final_projection(&xam, build_join_plan(&xam)))
            .unwrap();
        assert_eq!(rel, join_tree);
    }

    #[test]
    fn figure_2_4_example_join_tree() {
        // the XAM of Fig. 2.4(a): book with year attribute, author with
        // lastname — over bib_sample authors have no lastname children, so
        // use title instead to exercise a 3-level chain
        let doc = bib_sample();
        let xam = parse_xam("//library[id:s]{ /book[id:s]{ /title[val] } }").unwrap();
        let rel = evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
