//! Property-based tests over randomly generated documents and patterns:
//! the invariants the paper's theory promises, checked on concrete data.

use proptest::prelude::*;
use summary::Summary;
use uload_bench::pattern_gen::{self, GenConfig};
use xmltree::{generate, DocumentBuilder, NodeKind};

/// A strategy producing small random XML documents: a sequence of
/// open/close/leaf operations folded into a builder.
fn arb_document() -> impl Strategy<Value = xmltree::Document> {
    prop::collection::vec((0usize..6, 0usize..3), 1..40).prop_map(|ops| {
        let labels = ["a", "b", "c", "d", "item", "name"];
        let mut b = DocumentBuilder::new();
        b.open_element("root");
        let mut depth = 1usize;
        for (l, action) in ops {
            match action {
                0 | 1 => {
                    b.open_element(labels[l]);
                    depth += 1;
                }
                _ if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.leaf_element(labels[l], "v");
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (pre, post, depth) predicates agree with parent-chain ground truth
    /// on arbitrary documents.
    #[test]
    fn structural_ids_sound(doc in arb_document()) {
        for n in doc.all_nodes() {
            for m in doc.all_nodes() {
                let (sn, sm) = (doc.structural_id(n), doc.structural_id(m));
                let mut anc = doc.parent(m);
                let mut truth = false;
                while let Some(a) = anc {
                    if a == n { truth = true; break; }
                    anc = doc.parent(a);
                }
                prop_assert_eq!(sn.is_ancestor_of(sm), truth);
                // Dewey IDs agree with the pre/post plane
                let (dn, dm) = (doc.dewey_id(n), doc.dewey_id(m));
                prop_assert_eq!(dn.is_ancestor_of(&dm), truth);
            }
        }
    }

    /// Serialize→parse is the identity on structure.
    #[test]
    fn parser_roundtrip(doc in arb_document()) {
        let text = xmltree::parser::serialize(&doc);
        let doc2 = xmltree::parse_document(&text).unwrap();
        prop_assert_eq!(doc.len(), doc2.len());
        for (a, b) in doc.all_nodes().zip(doc2.all_nodes()) {
            prop_assert_eq!(doc.label(a), doc2.label(b));
            prop_assert_eq!(doc.kind(a), doc2.kind(b));
        }
    }

    /// The summary has one node per distinct rooted path, and every
    /// document node classifies onto a summary node with the same path.
    #[test]
    fn summary_classifies_every_node(doc in arb_document()) {
        let s = Summary::of_document(&doc);
        let phi = s.classify(&doc).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for n in doc.all_nodes() {
            prop_assert_eq!(s.path_of(phi[n.index()]), doc.label_path(n));
            distinct.insert(doc.label_path(n));
        }
        prop_assert_eq!(distinct.len(), s.len());
        prop_assert!(s.conforms(&doc));
    }

    /// Strong (`+`) edges really guarantee a child on that path.
    #[test]
    fn strong_edges_hold(doc in arb_document()) {
        let s = Summary::of_document(&doc);
        let phi = s.classify(&doc).unwrap();
        for sn in s.all_nodes() {
            if s.parent(sn).is_none() || !s.edge_card(sn).is_strong() {
                continue;
            }
            let parent = s.parent(sn).unwrap();
            for n in doc.all_nodes() {
                if phi[n.index()] != parent || doc.kind(n) == NodeKind::Text {
                    continue;
                }
                let has = doc.children(n).iter().any(|&c| phi[c.index()] == sn);
                prop_assert!(has, "strong edge violated at {}", s.path_of(sn));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Containment reflexivity and soundness for generated satisfiable
    /// patterns over the XMark summary.
    #[test]
    fn containment_reflexive_and_sound(seed in 0u64..500) {
        let doc = generate::xmark(2, 17);
        let s = Summary::of_document(&doc);
        let cfg = GenConfig::xmark(5, 1);
        let pats = pattern_gen::generate_set(&s, &cfg, 3, seed);
        for p in &pats {
            prop_assert!(uload::contain(p, p, &s, &Default::default()).contained, "reflexivity:\n{}", p);
        }
        // pairwise soundness on the concrete document
        for p in &pats {
            for q in &pats {
                if uload::contain(p, q, &s, &Default::default()).contained {
                    let rp = xam_core::embed::evaluate_embed(p, &doc);
                    let rq = xam_core::embed::evaluate_embed(q, &doc);
                    prop_assert!(rp.is_subset(&rq), "unsound:\n{}\n⊆?\n{}", p, q);
                }
            }
        }
    }

    /// Minimization preserves S-equivalence and never grows the pattern.
    #[test]
    fn minimization_sound(seed in 0u64..200) {
        let doc = generate::xmark(2, 23);
        let s = Summary::of_document(&doc);
        let cfg = GenConfig::xmark(6, 1).with_optional(0.0);
        let pats = pattern_gen::generate_set(&s, &cfg, 2, seed);
        for p in &pats {
            for m in containment::minimize_by_contraction(p, &s) {
                prop_assert!(m.pattern_size() <= p.pattern_size());
                prop_assert!(containment::equivalent(&m, p, &s));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The holistic `TwigStack` operator agrees exactly with both binary
    /// cascades — StackTree and nested loop — on random `/`+`//` tree
    /// patterns over generated XMark and DBLP documents, and the planner
    /// path (fused `TwigJoin` plan) returns the same relation whether the
    /// holistic operator is enabled or the evaluator falls back to the
    /// cascade.
    #[test]
    fn twig_join_matches_binary_cascades(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
    ) {
        let dblp = dblp_sel == 1;
        let doc = if dblp { generate::dblp(6, 7) } else { generate::xmark(3, 7) };
        let pool: [&'static str; 10] = if dblp {
            ["dblp", "article", "inproceedings", "book", "author",
             "title", "year", "journal", "pages", "url"]
        } else {
            ["site", "regions", "item", "name", "description",
             "parlist", "listitem", "text", "keyword", "mailbox"]
        };
        // random tree pattern: node k hangs off a random earlier node
        // with a random Child/Descendant axis
        let mut w = uload_bench::twig::TwigWorkload {
            name: "prop".into(),
            labels: Vec::new(),
            parents: Vec::new(),
            axes: Vec::new(),
        };
        for (k, &(label, parent, child)) in spec.iter().enumerate() {
            w.labels.push(pool[label]);
            w.parents.push(if k == 0 { 0 } else { parent % k });
            w.axes.push(if child == 1 { algebra::Axis::Child } else { algebra::Axis::Descendant });
        }

        let idx = storage::IdStreamIndex::build(&doc);
        let pattern = w.pattern();
        let streams = w.streams(&idx);
        let cols = w.columns(&idx);
        let refs: Vec<&algebra::IdColumns> = cols.iter().collect();
        let twig = algebra::twig_join(&pattern, &refs, &mut algebra::NoMeter);
        let mut stack = uload_bench::twig::cascade_solutions(
            &w.parents, &w.axes, &streams, Some(&cols));
        stack.sort_unstable();
        let mut nested = uload_bench::twig::cascade_solutions(
            &w.parents, &w.axes, &streams, None);
        nested.sort_unstable();
        prop_assert_eq!(&twig, &stack, "twig vs StackTree cascade on {:?}", w.labels);
        prop_assert_eq!(&stack, &nested, "StackTree vs nested loop on {:?}", w.labels);

        // planner path: the fused plan over the catalog-registered ID
        // streams against its binary cascade (labels absent from the
        // document have no ids_* relation, so skip those specs)
        if streams.iter().all(|s| !s.is_empty()) {
            let cat = uload_bench::twig::twig_catalog(&doc);
            let ev = algebra::Evaluator::new(&cat);
            let on = ev.eval(&w.twig_plan()).unwrap();
            let cascade = ev.eval(&w.cascade_plan()).unwrap();
            prop_assert_eq!(on.tuples.len(), twig.len());
            prop_assert_eq!(on, cascade, "planner twig vs its cascade on {:?}", w.labels);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executor's answer does not depend on how its input is cut
    /// into batches: one row at a time, a few, the default, or everything
    /// at once (what `Evaluator::eval` runs) give the same rows in the
    /// same order on random XMark and DBLP twig plans — the fused
    /// holistic form and the binary cascade it desugars to.
    #[test]
    fn results_are_batch_size_invariant(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
    ) {
        let dblp = dblp_sel == 1;
        let doc = if dblp { generate::dblp(6, 7) } else { generate::xmark(3, 7) };
        let pool: [&'static str; 10] = if dblp {
            ["dblp", "article", "inproceedings", "book", "author",
             "title", "year", "journal", "pages", "url"]
        } else {
            ["site", "regions", "item", "name", "description",
             "parlist", "listitem", "text", "keyword", "mailbox"]
        };
        let mut w = uload_bench::twig::TwigWorkload {
            name: "prop".into(),
            labels: Vec::new(),
            parents: Vec::new(),
            axes: Vec::new(),
        };
        for (k, &(label, parent, child)) in spec.iter().enumerate() {
            w.labels.push(pool[label]);
            w.parents.push(if k == 0 { 0 } else { parent % k });
            w.axes.push(if child == 1 { algebra::Axis::Child } else { algebra::Axis::Descendant });
        }
        let idx = storage::IdStreamIndex::build(&doc);
        if w.streams(&idx).iter().any(|s| s.is_empty()) {
            return Ok(()); // label absent: no ids_* relation to scan
        }
        let cat = uload_bench::twig::twig_catalog(&doc);
        let run = |plan: &algebra::LogicalPlan, batch_size: usize| {
            let ccfg = algebra::CursorConfig { batch_size, ..Default::default() };
            algebra::build_cursor(plan, &cat, None, &ccfg).unwrap().collect().unwrap()
        };
        let want = run(&w.twig_plan(), usize::MAX);
        prop_assert_eq!(&algebra::Evaluator::new(&cat).eval(&w.twig_plan()).unwrap(), &want);
        for plan in [w.twig_plan(), w.cascade_plan()] {
            for batch_size in [1usize, 2, 7, 1024, usize::MAX] {
                prop_assert_eq!(
                    &run(&plan, batch_size), &want,
                    "batch {} changed the answer on {:?}", batch_size, w.labels
                );
            }
        }
        // value joins whose key columns sit inside nested collections
        // (multi-valued, and empty where a node has no such child): the
        // resident hash table probed a batch at a time against one probe
        // with everything, at batch sizes around the left input's
        let rel = |k: usize| {
            algebra::LogicalPlan::scan(storage::IdStreamIndex::relation_of(w.labels[k]))
        };
        let nested = |[id, kid, kids]: [&str; 3]| {
            rel(0).rename(&[id]).struct_nest_join(rel(1).rename(&[kid]), id, kid, w.axes[1], true, kids)
        };
        let n = cat.get(&storage::IdStreamIndex::relation_of(w.labels[0])).unwrap().len();
        for kind in [
            algebra::JoinKind::Inner,
            algebra::JoinKind::Semi,
            algebra::JoinKind::LeftOuter,
            algebra::JoinKind::Nest,
            algebra::JoinKind::NestOuter,
        ] {
            let plan = nested(["a", "b", "bs"]).join(
                nested(["c", "d", "ds"]),
                algebra::Predicate::col_cmp("bs.b", algebra::CmpOp::Eq, "ds.d"),
                kind,
            );
            let oracle = algebra::Evaluator::new(&cat).eval(&plan).unwrap();
            for batch_size in [1, 2, n.max(2) - 1, n + 1, 1024] {
                let ccfg = algebra::CursorConfig { batch_size, ..Default::default() };
                let streamed = algebra::build_cursor(&plan, &cat, None, &ccfg).unwrap().collect().unwrap();
                prop_assert_eq!(
                    &streamed, &oracle,
                    "batch size changed the {} join of {:?} (batch {})",
                    kind, &w.labels[..2], batch_size
                );
            }
        }
    }
}

/// What bounded batches buy: on a multiplying twig — `site//item` with
/// three `//keyword` branches, k³ solutions per item — the binary cascade
/// drained as one batch holds every intermediate list whole, while at 64
/// rows a batch only the build sides and one batch per operator are
/// resident. And a consumer that stops after ten rows has pulled no more
/// than it asked for plus one batch.
#[test]
fn bounded_batches_bound_residency_on_a_multiplying_star() {
    let doc = generate::xmark(3, 11);
    let cat = uload_bench::twig::twig_catalog(&doc);
    let plan = uload_bench::twig::TwigWorkload {
        name: "deep_star_kw3".into(),
        labels: vec!["site", "item", "keyword", "keyword", "keyword"],
        parents: vec![0, 0, 1, 1, 1],
        axes: vec![algebra::Axis::Descendant; 5],
    }
    .cascade_plan();
    let exec = |batch_size: usize| {
        let ccfg = algebra::CursorConfig {
            batch_size,
            ..Default::default()
        };
        algebra::build_cursor(&plan, &cat, None, &ccfg).unwrap()
    };
    let drain = |batch_size: usize| {
        let mut exec = exec(batch_size);
        let mut rows = 0;
        while let Some(b) = exec.next_batch().unwrap() {
            rows += b.len();
        }
        (rows, exec.peak_resident())
    };
    let (rows, whole) = drain(usize::MAX);
    let (rows_64, bounded) = drain(64);
    assert!(rows > 0 && rows == rows_64);
    assert!(
        whole > 2 * bounded,
        "no residency win: {whole} resident as one batch, {bounded} at 64 rows a batch"
    );
    let mut limited = exec(64);
    let mut pulled = 0;
    while pulled < 10 {
        pulled += limited.next_batch().unwrap().map_or(10, |b| b.len());
    }
    limited.close();
    assert!(pulled <= 10 + 64 && limited.resident_now() == 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two join kernels against the nested-loop cascade, on the
    /// inputs that have broken seeking before: streams that repeat node
    /// IDs (multi-tuple join inputs do, so `pre` order is only
    /// non-strict and a duplicate can straddle a fence-block boundary),
    /// packed at fence block sizes from degenerate to default. Random
    /// small documents nest a label inside itself at random depth; the
    /// XMark document makes streams long enough to span 64-wide blocks;
    /// `<a><b>k</b>` nested 60 deep is the deep recursion the twig runs
    /// without an alternative (an `a` chain's solutions grow as depth to
    /// the pattern size, so there patterns keep at most three nodes and
    /// streams are not duplicated).
    /// Patterns are drawn from the document, so nearly every case has
    /// solutions to lose.
    #[test]
    fn kernels_match_nested_loop_on_duplicated_streams(
        small in arb_document(),
        doc_sel in 0usize..4,
        spec in prop::collection::vec((0usize..100_000, 0usize..8, 0usize..2), 2..5),
        dups in prop::collection::vec(0usize..3, 1..40),
    ) {
        use algebra::Axis::{Child, Descendant};
        let xmark = doc_sel == 0;
        let deep = doc_sel == 1;
        let doc = if xmark {
            generate::xmark(2, 7)
        } else if deep {
            xmltree::parse_document(&("<a><b>k</b>".repeat(60) + &"</a>".repeat(60))).unwrap()
        } else {
            small
        };
        let spec = &spec[..if deep { spec.len().min(3) } else { spec.len() }];
        // pattern node 0 is a random inner element — there always is
        // one, the document root — (on XMark one at item level or below:
        // a star under `site` has millions of solutions), node k a
        // random element below the one drawn for
        // its parent — any earlier node that has elements below it —
        // reached by `/` only if it is a child of it and the coin says so
        let below = |n: xmltree::NodeId| -> Vec<xmltree::NodeId> {
            doc.descendants(n).filter(|&m| doc.kind(m) == NodeKind::Element).collect()
        };
        let roots: Vec<xmltree::NodeId> = doc
            .elements()
            .filter(|&n| (!xmark || doc.structural_id(n).depth >= 4) && !below(n).is_empty())
            .collect();
        let mut drawn = vec![roots[spec[0].0 % roots.len()]];
        let mut under = vec![below(drawn[0])];
        let (mut parents, mut axes) = (vec![0], vec![Descendant]);
        for &(pick, parent, child) in &spec[1..] {
            let inner: Vec<usize> = (0..drawn.len()).filter(|&j| !under[j].is_empty()).collect();
            let p = inner[parent % inner.len()];
            let n = under[p][pick % under[p].len()];
            let is_child = doc.parent(n) == Some(drawn[p]);
            drawn.push(n);
            under.push(below(n));
            parents.push(p);
            axes.push(if is_child && child == 1 { Child } else { Descendant });
        }
        let mut pattern = algebra::TwigPattern::root();
        for k in 1..drawn.len() {
            pattern.add_child(parents[k], axes[k]);
        }
        // stream k: the IDs of the drawn node's label in document order,
        // element i in 1–3 consecutive copies; payloads are positions
        let copies = |i: usize| if deep { 1 } else { 1 + dups[i % dups.len()] };
        let sids: Vec<Vec<xmltree::StructuralId>> = drawn
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                doc.nodes_with_label(doc.label(n), NodeKind::Element)
                    .enumerate()
                    .flat_map(|(i, m)| std::iter::repeat_n(doc.structural_id(m), copies(i + k)))
                    .collect()
            })
            .collect();
        let streams: Vec<Vec<(xmltree::StructuralId, u32)>> = sids
            .iter()
            .map(|s| s.iter().enumerate().map(|(i, &sid)| (sid, i as u32)).collect())
            .collect();
        let labels: Vec<&str> = drawn.iter().map(|&n| doc.label(n)).collect();
        let mut oracle = uload_bench::twig::cascade_solutions(
            &parents, &axes, &streams, None);
        oracle.sort_unstable();

        for block in [1usize, 2, 3, 64] {
            let cols: Vec<algebra::IdColumns> = sids
                .iter()
                .map(|s| algebra::IdColumns::from_sids_with_block(s, block))
                .collect();
            let refs: Vec<&algebra::IdColumns> = cols.iter().collect();
            let twig = algebra::twig_join(&pattern, &refs, &mut algebra::NoMeter);
            prop_assert_eq!(
                &twig, &oracle,
                "twig_join (block {}) vs nested loop on {:?} {:?} {:?}", block, labels, parents, axes
            );
            let mut stack = uload_bench::twig::cascade_solutions(
                &parents, &axes, &streams, Some(&cols));
            stack.sort_unstable();
            prop_assert_eq!(
                &stack, &oracle,
                "stack_tree_pairs cascade (block {}) vs nested loop on {:?} {:?} {:?}",
                block, labels, parents, axes
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural joins over inputs that repeat node IDs across tuples
    /// (as a view column legitimately does) stay exact through the
    /// evaluator: the merge seeks over a *non-strictly* pre-sorted
    /// stream, and duplicates straddling fence-block boundaries must not
    /// cause over-pruning. The evaluator must return exactly the rows
    /// the nested-loop kernel pairs, left row by left row.
    #[test]
    fn struct_join_with_duplicate_ids_matches_oracle(
        pair_sel in 0usize..5,
        dups in prop::collection::vec(0usize..3, 1..40),
        axis_sel in 0usize..2,
    ) {
        use algebra::{Catalog, JoinKind, LogicalPlan, Relation, Schema, Tuple, Value};
        let doc = generate::xmark(3, 7);
        let (anc_l, desc_l) = [
            ("item", "keyword"),
            ("parlist", "listitem"),
            ("site", "item"),
            ("description", "bold"),
            ("listitem", "parlist"),
        ][pair_sel];
        let axis = if axis_sel == 1 { algebra::Axis::Child } else { algebra::Axis::Descendant };

        // relations with each node ID repeated 1–3× in consecutive
        // tuples (document order preserved, so streams arrive sorted
        // with duplicates — the layout that exercises block straddles)
        let duplicated = |label: &str| {
            let tuples: Vec<Tuple> = doc
                .nodes_with_label(label, NodeKind::Element)
                .enumerate()
                .flat_map(|(i, n)| {
                    let sid = doc.structural_id(n);
                    std::iter::repeat_with(move || Tuple::new(vec![Value::Id(sid)]))
                        .take(1 + dups[i % dups.len()])
                })
                .collect();
            Relation::new(Schema::atoms(&["ID"]), tuples)
        };
        let (anc, desc) = (duplicated(anc_l), duplicated(desc_l));
        let ids = |r: &Relation| -> Vec<(xmltree::StructuralId, u32)> {
            r.tuples.iter().enumerate().map(|(i, t)| (t.get(0).as_id().unwrap(), i as u32)).collect()
        };
        let mut pairs = algebra::nested_loop_pairs(&ids(&anc), &ids(&desc), axis);
        pairs.sort_unstable();
        let oracle: Vec<Tuple> = pairs
            .into_iter()
            .map(|(a, d)| Tuple::new(vec![anc.tuples[a].get(0).clone(), desc.tuples[d].get(0).clone()]))
            .collect();
        let mut cat = Catalog::new();
        cat.insert("anc_dup", anc);
        cat.insert("desc_dup", desc);
        let plan = LogicalPlan::scan("anc_dup").rename(&["A"]).struct_join(
            LogicalPlan::scan("desc_dup").rename(&["B"]),
            "A",
            "B",
            axis,
            JoinKind::Inner,
        );

        let got = algebra::Evaluator::new(&cat).eval(&plan).unwrap();
        prop_assert_eq!(
            &got.tuples, &oracle,
            "{} {:?} {} dropped or invented pairs",
            anc_l, axis, desc_l
        );
    }
}

/// The catalogs of `dedup_elision_never_changes_answers`: seven views
/// over one XMark document, each keyed as the store declares it (two hold
/// a nested collection), and an undeclared `_dup` copy of each with every
/// row repeated one to three times; beside them the same relations with
/// no declaration at all — the catalog on which every `π°` hashes. Plus
/// the relation names, in a fixed order, and the document.
type DedupCatalogs = (
    algebra::Catalog,
    algebra::Catalog,
    Vec<String>,
    xmltree::Document,
);

fn dedup_catalogs() -> &'static DedupCatalogs {
    static CATALOGS: std::sync::OnceLock<DedupCatalogs> = std::sync::OnceLock::new();
    CATALOGS.get_or_init(|| {
        let doc = generate::xmark(2, 7);
        let mut store = storage::MaterializedStore::new();
        for (name, xam) in [
            ("v_item_name", "//i:item[id:s]{ /n:name[id:s,val] }"),
            ("v_item_kw", "//i:item[id:s]{ //k:keyword[id:s,val] }"),
            ("v_item_kws", "//i:item[id:s]{ //n k:keyword[id:s,val] }"),
            ("v_item_kwo", "//i:item[id:s]{ //n? k:keyword[id:s,val] }"),
            ("v_kw", "//k:keyword[id:s,val]"),
            ("v_desc", "//d:description[id:s]"),
            // no ID kept: reducing its collections can merge tuples
            ("v_kw_vals", "//i:item{ //n k:keyword[val] }"),
        ] {
            store
                .add_view(name, xam_core::parse_xam(xam).unwrap(), &doc)
                .unwrap();
        }
        let (mut declared, mut oracle) = (algebra::Catalog::new(), algebra::Catalog::new());
        let mut names = Vec::new();
        for (i, (name, _)) in store.definitions().iter().enumerate() {
            let rel = store.relation(name).unwrap().clone();
            let copies = rel
                .tuples
                .iter()
                .enumerate()
                .flat_map(|(j, t)| std::iter::repeat_n(t.clone(), 1 + (i + j) % 3))
                .collect();
            let dup = algebra::Relation::new(rel.schema.clone(), copies);
            let dup_name = format!("{name}_dup");
            for cat in [&mut declared, &mut oracle] {
                cat.insert(name.clone(), rel.clone());
                cat.insert(dup_name.clone(), dup.clone());
            }
            // the key the store declared for the view
            let key: Vec<&str> = store
                .catalog()
                .declared_key(name)
                .unwrap()
                .iter()
                .map(|&k| rel.schema.fields[k].name.as_str())
                .collect();
            assert!(declared.declare_set(name, &key));
            names.extend([name.clone(), dup_name]);
        }
        (declared, oracle, names, doc)
    })
}

/// Why a reducing selection ends set-ness: items that store only their
/// keywords' values differ in some keyword, and cutting each collection
/// down to the keywords that pass makes some of them equal. The `π°`
/// above keeps its hash pass and removes them.
#[test]
fn reducing_selection_keeps_the_hash_pass() {
    use algebra::{LogicalPlan, Predicate, Value};
    let (declared, oracle, _, _) = dedup_catalogs();
    let reduced =
        LogicalPlan::scan("v_kw_vals").select(Predicate::eq("k.k_Val", Value::str("gold")));
    let plan = reduced.clone().project_distinct(&["k"]);
    assert!(algebra::is_pipeline_breaker(&plan, declared));
    let eval = |cat, plan| algebra::Evaluator::new(cat).eval(plan).unwrap();
    let (all, distinct) = (eval(declared, &reduced), eval(declared, &plan));
    assert!(
        distinct.len() < all.len(),
        "{} of {}",
        distinct.len(),
        all.len()
    );
    assert_eq!(distinct, eval(oracle, &plan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Skipping `π°`'s hash pass over an input with a key it keeps
    /// never changes an answer: random plans — scans of keyed views (flat
    /// and nested) and of undeclared relations with duplicate rows,
    /// renamed or not, filtered by flat or collection-reducing
    /// selections, combined by an inner twig or a cascade of inner
    /// structural joins, navigated from (`Flat`, `Outer`, `Exists`; `/`
    /// and `//`; a label, `*`, an attribute, an absent label), under a
    /// `π°` keeping all columns (shuffled), a subset, every ID plus some
    /// items, all but a navigation's `_ID`, one `_Val`, or nested
    /// sub-projections — return the same rows in the same order, at batch
    /// sizes 1, 7 and unbounded, as on a catalog that declares nothing.
    #[test]
    fn dedup_elision_never_changes_answers(
        leaves in prop::collection::vec((0usize..14, 0usize..2, 0usize..3, 0usize..4), 1..4),
        joins in prop::collection::vec((0usize..4, 0usize..4, 0usize..4, 0usize..3), 3..4),
        twig in 0usize..2,
        navs in prop::collection::vec((0usize..16, 0usize..3, 0usize..2, 0usize..6), 0..3),
        proj_mode in 0usize..7,
        keys in prop::collection::vec(0usize..1000, 16..17),
    ) {
        use algebra::{
            CmpOp, FieldKind, LogicalPlan, NavMode, Operand, Path, Predicate, TwigStep, Value,
        };
        let (declared, oracle, names, doc) = dedup_catalogs();
        // one leaf per pattern node; the columns of several are renamed
        // apart
        let mut inputs = Vec::new();
        let mut fields: Vec<algebra::Field> = Vec::new();
        let mut ids: Vec<Vec<String>> = Vec::new();
        for (j, &(pick, rename, select, cst)) in leaves.iter().enumerate() {
            let name = &names[pick % names.len()];
            let mut schema = declared.get(name).unwrap().schema.clone();
            let mut leaf = LogicalPlan::scan(name.as_str());
            if leaves.len() > 1 || rename == 1 {
                for f in &mut schema.fields {
                    f.name = format!("l{j}_{}", f.name);
                }
                let new: Vec<&str> = schema.fields.iter().map(|f| f.name.as_str()).collect();
                leaf = leaf.rename(&new);
            }
            // a flat `Val` test, or one inside the nested collection (a
            // reducing selection) where the relation has one
            let flat_val = schema.fields.iter().find(|f| f.name.ends_with("_Val"));
            let nested_val = schema.fields.iter().find_map(|f| match &f.kind {
                FieldKind::Nested(s) => s
                    .fields
                    .iter()
                    .find(|g| g.name.ends_with("_Val"))
                    .map(|g| format!("{}.{}", f.name, g.name)),
                FieldKind::Atom => None,
            });
            let col = match select {
                1 => flat_val.map(|f| f.name.clone()),
                2 => nested_val.or(flat_val.map(|f| f.name.clone())),
                _ => None,
            };
            if let Some(col) = col {
                leaf = leaf.select(Predicate::Cmp(
                    Operand::Col(Path::new(col)),
                    [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][cst % 3],
                    Operand::Const(Value::str(["g", "m", "t"][cst % 3])),
                ));
            }
            ids.push(
                schema
                    .fields
                    .iter()
                    .filter(|f| f.name.ends_with("_ID") && f.kind == FieldKind::Atom)
                    .map(|f| f.name.clone())
                    .collect(),
            );
            fields.extend(schema.fields.iter().cloned());
            inputs.push(leaf);
        }
        // leaf k hangs off an ID column of an earlier leaf
        if inputs.len() > 1 && ids.iter().any(Vec::is_empty) {
            return Ok(()); // an ID-less view only stands alone
        }
        let mut inputs = inputs.into_iter();
        let mut plan = inputs.next().unwrap();
        let mut steps = Vec::new();
        for (k, input) in inputs.enumerate().map(|(k, p)| (k + 1, p)) {
            let (parent, pcol, ccol, axis) = joins[k - 1];
            let parent = parent % k;
            let parent_attr = ids[parent][pcol % ids[parent].len()].clone();
            let attr = ids[k][ccol % ids[k].len()].clone();
            let axis = if axis == 0 { algebra::Axis::Child } else { algebra::Axis::Descendant };
            if twig == 1 {
                steps.push(TwigStep::new(input, parent_attr, attr, axis));
            } else {
                plan = plan.struct_join(input, parent_attr, attr, axis, algebra::JoinKind::Inner);
            }
        }
        if twig == 1 {
            plan = plan.twig_join(steps);
        }
        // navigation from a flat ID column of what is there so far
        let mut nav_ids = Vec::new();
        for (j, &(from, mode, axis, label)) in navs.iter().enumerate() {
            let flat_ids: Vec<String> = fields
                .iter()
                .filter(|f| f.name.ends_with("_ID") && f.kind == FieldKind::Atom)
                .map(|f| f.name.clone())
                .collect();
            if flat_ids.is_empty() {
                break;
            }
            let mode = [NavMode::Flat, NavMode::Outer, NavMode::Exists][mode];
            let prefix = format!("nv{j}");
            plan = LogicalPlan::Navigate {
                input: Box::new(plan),
                from_attr: Path::new(flat_ids[from % flat_ids.len()].clone()),
                axis: [algebra::Axis::Child, algebra::Axis::Descendant][axis],
                label: ["keyword", "*", "@id", "nope", "name", "listitem"][label].into(),
                as_prefix: prefix.clone(),
                mode,
            };
            if mode != NavMode::Exists {
                for c in ["ID", "Val", "Cont"] {
                    fields.push(algebra::Field::atom(format!("{prefix}_{c}")));
                }
                nav_ids.push(format!("{prefix}_ID"));
            }
        }
        // π° over every column in a shuffled order, over a subset, over
        // every ID and some other columns, over all but a navigation's ID,
        // over one `_Val`, or with each nested column cut down to one of
        // its fields
        let mut order: Vec<usize> = (0..fields.len()).collect();
        order.sort_by_key(|&i| keys[i % keys.len()] * 31 + i);
        let coin = |i: usize| keys[i % keys.len()] % 2 == 0;
        let name = |i: &usize| fields[*i].name.clone();
        let cols: Vec<String> = match proj_mode {
            0 | 1 => order.iter().map(name).collect(),
            2 => order.iter().filter(|&&i| coin(i) || i == order[0]).map(name).collect(),
            3 => order
                .iter()
                .filter(|&&i| fields[i].name.ends_with("_ID") || coin(i) || i == order[0])
                .map(name)
                .collect(),
            4 => order
                .iter()
                .filter(|&&i| nav_ids.last() != Some(&fields[i].name))
                .map(name)
                .collect(),
            5 => {
                let vals: Vec<String> = fields
                    .iter()
                    .filter(|f| f.name.ends_with("_Val") && f.kind == FieldKind::Atom)
                    .map(|f| f.name.clone())
                    .collect();
                match vals.is_empty() {
                    true => order.iter().take(1).map(name).collect(),
                    false => vec![vals[keys[0] % vals.len()].clone()],
                }
            }
            _ => fields
                .iter()
                .map(|f| match &f.kind {
                    FieldKind::Nested(s) => format!("{}.{}", f.name, s.fields[0].name),
                    FieldKind::Atom => f.name.clone(),
                })
                .collect(),
        };
        if cols.is_empty() {
            return Ok(()); // a navigation's lone ID dropped: nothing to keep
        }
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        let plan = plan.project_distinct(&cols);

        let run = |cat: &algebra::Catalog, batch_size: usize| {
            let ccfg = algebra::CursorConfig { batch_size, ..Default::default() };
            algebra::build_cursor(&plan, cat, Some(doc), &ccfg).unwrap().collect().unwrap()
        };
        prop_assert!(algebra::is_pipeline_breaker(&plan, oracle));
        if proj_mode == 4 && !nav_ids.is_empty() {
            // a navigation's reached nodes are told apart by their ID alone
            prop_assert!(algebra::is_pipeline_breaker(&plan, declared), "{}", plan);
        }
        let want = run(oracle, usize::MAX);
        for batch_size in [1, 7, usize::MAX] {
            prop_assert_eq!(
                &run(declared, batch_size), &want,
                "batch {} changed {} (hash pass elided: {})",
                batch_size, plan, !algebra::is_pipeline_breaker(&plan, declared)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Telemetry histograms bound true quantiles within one log-linear
    /// bucket, and merging per-shard snapshots is indistinguishable from
    /// recording everything into a single histogram. The reported
    /// quantile never undershoots the exact nearest-rank order statistic
    /// and overshoots by at most the bucket width (exact below 16,
    /// ≤ 1/16 relative above).
    #[test]
    fn histogram_quantiles_within_one_bucket(
        values in prop::collection::vec(0u64..(1u64 << 44), 1..400),
        parts in 1usize..6,
    ) {
        let shards: Vec<uload::Histogram> =
            (0..parts).map(|_| uload::Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % parts].record(v);
        }
        let mut merged = uload::HistogramSnapshot::empty();
        for s in &shards {
            merged.merge(&s.snapshot());
        }
        prop_assert_eq!(merged.count(), values.len() as u64);

        // sharded-and-merged == one whole histogram, bucket for bucket
        let whole = uload::Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        prop_assert_eq!(&merged, &whole.snapshot());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(merged.min(), sorted[0]);
        prop_assert_eq!(merged.max(), *sorted.last().unwrap());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let got = merged.quantile(q);
            prop_assert!(got >= truth, "q={} reported {} < true {}", q, got, truth);
            let slack = if truth < 16 { 0 } else { truth >> 4 };
            prop_assert!(
                got - truth <= slack,
                "q={} reported {} vs true {} exceeds one bucket (slack {})",
                q, got, truth, slack
            );
        }
    }
}

/// The cache-backed engine is observationally identical to the uncached
/// one: same containment verdicts (and, on positive runs, the same model
/// sizes) and the same rewriting sets, in the same order. Two fixed
/// seeds: the check enumerates whole canonical models, and some seeds'
/// patterns make that take minutes in a debug build.
#[test]
fn cached_engine_matches_uncached() {
    for seed in [122, 119] {
        if let Err(e) = cached_engine_matches_uncached_at(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

fn cached_engine_matches_uncached_at(seed: u64) -> TestCaseResult {
    let doc = generate::xmark(2, 17);
    let s = Summary::of_document(&doc);
    let cfg = GenConfig::xmark(4, 1);
    let pats = pattern_gen::generate_set(&s, &cfg, 3, seed);
    let cache = uload::CanonicalCache::new(256);

    // containment verdicts
    for p in &pats {
        for q in &pats {
            let plain = uload::contain(p, q, &s, &Default::default());
            let cached_opts = uload::ContainOptions::default().with_cache(&cache);
            let cached = uload::contain(p, q, &s, &cached_opts);
            prop_assert_eq!(
                plain.contained,
                cached.contained,
                "verdict:\n{}\n⊆?\n{}",
                p,
                q
            );
            if plain.contained {
                prop_assert_eq!(
                    plain.model_size,
                    cached.model_size,
                    "model:\n{}\n⊆?\n{}",
                    p,
                    q
                );
            }
            // a second cached call must replay the same verdict
            let replay = uload::contain(p, q, &s, &cached_opts);
            prop_assert_eq!(cached.contained, replay.contained);
        }
    }

    // rewriting sets, on the §5.6 workload shape (conjunctive size-4
    // query, size-3 views plus one exactly-covering view)
    let qcfg = GenConfig::xmark(4, 1).with_optional(0.0);
    let qs = pattern_gen::generate_set(&s, &qcfg, 1, 9000 + seed);
    let q = &qs[0];
    let noise = pattern_gen::generate_set(
        &s,
        &GenConfig::xmark(3, 1).with_optional(0.0),
        3,
        500 + seed,
    );
    let mut views: Vec<(String, xam_core::Xam)> = noise
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("v{i}"), v))
        .collect();
    views.push(("exact".into(), q.clone()));
    let eng = uload::EngineOptions {
        cache: Some(&cache),
        ..Default::default()
    };
    let (plain_rw, _) = rewriting::rewrite(q, &views, &s);
    let (cached_rw, _) = uload::rewrite_with_engine(q, &views, &s, Default::default(), &eng);
    let key = |r: &uload::Rewriting| format!("{:?}|{}", r.views_used, r.plan);
    let plain_keys: Vec<String> = plain_rw.iter().map(key).collect();
    let cached_keys: Vec<String> = cached_rw.iter().map(key).collect();
    prop_assert!(!plain_rw.is_empty(), "covering view must yield a rewriting");
    prop_assert_eq!(plain_keys, cached_keys, "rewriting sets differ for\n{}", q);
    prop_assert!(cache.stats().hits > 0, "cache never hit");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The rewriter's view index returns, in ascending order, exactly the
    /// views a brute-force all-pairs check finds compatible with the
    /// query — some (query node, view node) pair of the same kind whose
    /// path annotations meet — and never an R-marked view.
    #[test]
    fn view_index_covers_exactly_the_compatible_views(
        seed in 0u64..1000,
        dblp_sel in 0usize..2,
    ) {
        let dblp = dblp_sel == 1;
        let doc = if dblp { generate::dblp(6, 7) } else { generate::xmark(3, 7) };
        let s = Summary::of_document(&doc);
        let gen = |size: usize, count: usize, seed: u64| {
            let cfg = if dblp { GenConfig::dblp(size, 1) } else { GenConfig::xmark(size, 1) };
            pattern_gen::generate_set(&s, &cfg, count, seed)
        };
        let attrs: Vec<_> = s.all_nodes().filter(|&n| s.kind(n) == NodeKind::Attribute).collect();
        prop_assert!(!attrs.is_empty());
        let attr_view = |i: usize| {
            let a = attrs[(seed as usize * 7 + i * 13) % attrs.len()];
            let parent = s.label(s.parent(a).unwrap());
            xam_core::parse_xam(&format!("//{parent}{{ /@{}[val] }}", s.label(a))).unwrap()
        };
        let mut queries = gen(4, 3, seed);
        queries.push(attr_view(0));

        let mut views: Vec<xam_core::Xam> = gen(3, 6, 10_000 + seed);
        views.extend((1..4).map(attr_view));
        // R-marked copies of a query and of a view: compatible by
        // construction, never indexed
        for src in [queries[0].clone(), views[0].clone()] {
            let mut r = src;
            let ret = r.return_nodes()[0];
            r.node_mut(ret).requires_id = true;
            views.push(r);
        }
        let views: Vec<(String, xam_core::Xam)> = views
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("v{i}"), v))
            .collect();
        let index = rewriting::ViewIndex::build(&views, &s);
        prop_assert_eq!(index.len(), views.len());

        let ann = |p: &xam_core::Xam| containment::canonical::path_annotations_all(p, &s);
        let compatible = |q: &xam_core::Xam, v: &xam_core::Xam| {
            let (q_ann, v_ann) = (ann(q), ann(v));
            q.pattern_nodes().any(|qn| {
                v.pattern_nodes().any(|vn| {
                    q.node(qn).is_attribute == v.node(vn).is_attribute
                        && !q_ann[qn.index()].is_disjoint(&v_ann[vn.index()])
                })
            })
        };
        let r_copy = &views[views.len() - 2].1;
        prop_assert!(compatible(&queries[0], r_copy), "the R-marked copy must be compatible");
        let mut covered = 0;
        for q in &queries {
            let want: Vec<usize> = views
                .iter()
                .enumerate()
                .filter(|(_, (_, v))| !v.has_access_restrictions() && compatible(q, v))
                .map(|(i, _)| i)
                .collect();
            covered += want.len();
            prop_assert_eq!(index.covering(&ann(q)), want, "query\n{}", q);
        }
        prop_assert!(covered > 0, "no query met any view");
    }
}
