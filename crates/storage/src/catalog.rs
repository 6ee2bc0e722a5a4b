//! The XAM model library (§2.3): ready-made XAM descriptions of published
//! XML storage and indexing schemes, demonstrating the language's
//! expressive power. Each function returns `(name, XAM)` pairs that can be
//! fed to a [`crate::MaterializedStore`] and to the rewriting layer.

use summary::Summary;
use xam_core::{parse_xam, Xam};
use xmltree::NodeKind;

/// The *Edge* approach of Florescu & Kossmann (Figure 2.11a): element values,
/// attribute values, elements by (simple, order-reflecting) ID, and
/// attributes. The `source`-indexed variant adds an `R` marker.
pub fn edge_model() -> Vec<(String, Xam)> {
    vec![
        (
            "edge_elem_val".into(),
            parse_xam("//*[id:o,tag,val]").unwrap(),
        ),
        (
            "edge_attr_val".into(),
            parse_xam("//e:*[id:o]{ /@*[val] }").unwrap(),
        ),
        ("edge_elements".into(), parse_xam("//*[id:o,tag]").unwrap()),
        (
            "edge_source_index".into(),
            parse_xam("//*[id:o!]{ /*[id:o,tag,val] }").unwrap(),
        ),
    ]
}

/// The *Universal table* (Figure 2.11b): one wide tuple per source node
/// with outer-joined child slots — modeled as a XAM with optional child
/// branches for every label in the summary.
pub fn universal_model(s: &Summary) -> Vec<(String, Xam)> {
    let mut labels: Vec<String> = Vec::new();
    for n in s.all_nodes() {
        if s.kind(n) == NodeKind::Element && s.parent(n).is_some() {
            let l = s.label(n).to_string();
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
    }
    let mut body = String::from("//src:*[id:o,tag]{ ");
    for (i, l) in labels.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("/? {l}[id:o,val]"));
    }
    body.push_str(" }");
    vec![("universal".into(), parse_xam(&body).unwrap())]
}

/// DOM access paths (Figure 2.13 a–e): `getElementsByTagName` (tag
/// required), parent-to-child and child-to-parent navigation (IDs
/// required), descendant-by-tag.
pub fn dom_model() -> Vec<(String, Xam)> {
    vec![
        // (a) elements of a given (required) tag
        ("dom_by_tag".into(), parse_xam("//*[id:i,tag!]").unwrap()),
        // (c) getChildNodes: parent ID required, children returned
        (
            "dom_children".into(),
            parse_xam("//*[id:i!]{ /*[id:i,tag,val] }").unwrap(),
        ),
        // (d) getParentNode: child ID required, parent returned
        (
            "dom_parent".into(),
            parse_xam("//*[id:i]{ /*[id:i!] }").unwrap(),
        ),
        // (e) descendants of a known node with a known tag
        (
            "dom_desc_by_tag".into(),
            parse_xam("//*[id:i!]{ //*[id:i,tag!] }").unwrap(),
        ),
    ]
}

/// Tag-partitioned storage (Timber/Natix, §2.3.2): per-tag ID sequences —
/// one XAM per element label of the summary.
pub fn tag_partition_model(s: &Summary) -> Vec<(String, Xam)> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for n in s.all_nodes() {
        if s.kind(n) != NodeKind::Element || s.parent(n).is_none() {
            continue;
        }
        let l = s.label(n).to_string();
        if seen.insert(l.clone()) {
            out.push((
                format!("tagpart_{l}"),
                parse_xam(&format!("//{l}[id:s]")).unwrap(),
            ));
        }
    }
    out
}

/// Path-partitioned storage (XQueC/early Monet, Figure 2.14b — "the
/// preferred representation"): one XAM per rooted path, with `[Tag=c]`
/// filters along the chain, returning structural IDs (and values for
/// leaf-adjacent paths).
pub fn path_partition_model(s: &Summary) -> Vec<(String, Xam)> {
    let mut out = Vec::new();
    for n in s.all_nodes() {
        if s.kind(n) == NodeKind::Text {
            continue;
        }
        // build /l1{ /l2{ … [id:s,val] } }
        let mut chain: Vec<String> = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let sigil = if s.kind(c) == NodeKind::Attribute {
                "@"
            } else {
                ""
            };
            chain.push(format!("{sigil}{}", s.label(c)));
            cur = s.parent(c);
        }
        chain.reverse();
        let mut text = String::new();
        for (i, l) in chain.iter().enumerate() {
            if i == 0 {
                text.push_str(&format!("/{l}"));
            } else {
                text.push_str(&format!("{{ /{l}"));
            }
            if i == chain.len() - 1 {
                text.push_str("[id:s,val]");
            }
        }
        for _ in 1..chain.len() {
            text.push_str(" }");
        }
        out.push((
            crate::engines::PathPartitionStore::relation_of(&s.path_of(n)),
            parse_xam(&text).unwrap(),
        ));
    }
    out
}

/// XISS indexes (Figure 2.15): element index (tag required), attribute
/// index, structural parent/child indexes, value index.
pub fn xiss_model() -> Vec<(String, Xam)> {
    vec![
        ("xiss_element".into(), parse_xam("//*[id:s,tag!]").unwrap()),
        (
            "xiss_attribute".into(),
            parse_xam("//e:*[id:s]{ /@*[id:s,val] }").unwrap(),
        ),
        (
            "xiss_children".into(),
            parse_xam("//*[id:s!]{ /*[id:s,tag] }").unwrap(),
        ),
        (
            "xiss_parent".into(),
            parse_xam("//*[id:s]{ /*[id:s!] }").unwrap(),
        ),
        ("xiss_value".into(), parse_xam("//*[id:s,val!]").unwrap()),
    ]
}

/// A T-index for a specific query template (Figure 2.16): direct access
/// to `*.book` nodes with a `name/last = "Suciu"`-style condition.
pub fn t_index(label: &str, key_path: &[&str], key_value: &str) -> (String, Xam) {
    let mut text = format!("//*{{ /{label}[id:s]{{ ");
    for (i, k) in key_path.iter().enumerate() {
        if i > 0 {
            text.push_str("{ ");
        }
        text.push_str(&format!("/{k}"));
        if i == key_path.len() - 1 {
            text.push_str(&format!("[val=\"{key_value}\"]"));
        }
    }
    for _ in 1..key_path.len() {
        text.push_str(" }");
    }
    text.push_str(" } }");
    (format!("tindex_{label}"), parse_xam(&text).unwrap())
}

/// IndexFabric raw paths (Figure 2.17): root-to-leaf paths with required
/// leaf values — a full-text-ish lookup keyed by value.
pub fn index_fabric_raw(s: &Summary) -> Vec<(String, Xam)> {
    let mut out = Vec::new();
    for n in s.all_nodes() {
        // leaf element paths only (those with a #text child)
        let has_text = s.children(n).iter().any(|&c| s.kind(c) == NodeKind::Text);
        if !has_text {
            continue;
        }
        let mut chain: Vec<String> = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            chain.push(s.label(c).to_string());
            cur = s.parent(c);
        }
        chain.reverse();
        let mut text = String::new();
        for (i, l) in chain.iter().enumerate() {
            if i == 0 {
                text.push_str(&format!("/{l}"));
            } else {
                text.push_str(&format!("{{ /{l}"));
            }
            if i == chain.len() - 1 {
                text.push_str("[id:s,val!]");
            }
        }
        for _ in 1..chain.len() {
            text.push_str(" }");
        }
        out.push((
            format!("fabric{}", s.path_of(n).replace('/', "-")),
            parse_xam(&text).unwrap(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaterializedStore;
    use algebra::eval::{derived, ColumnDemand};
    use algebra::{Catalog, Evaluator, LogicalPlan, Path, Relation};
    use xam_core::semantics::{
        base_name, build_catalog, build_join_plan, final_projection, output_columns, Route,
    };
    use xmltree::generate::{bib_document, bib_sample, dblp, xmark};
    use xmltree::Document;

    /// View materialization as it was before it became demand-driven,
    /// kept as the oracle: all of `R_t(ID, Tag, Val, Cont)` for every
    /// node whatever the XAM stores, and a `Π_χ` that always eliminates
    /// duplicates.
    fn evaluate_eagerly(xam: &Xam, doc: &Document) -> Relation {
        let mut cat = Catalog::new();
        for n in xam.pattern_nodes() {
            let node = xam.node(n);
            let kind = if node.is_attribute {
                NodeKind::Attribute
            } else {
                NodeKind::Element
            };
            let mut rel = derived(doc, node.tag_predicate.as_deref(), kind, ColumnDemand::ALL);
            for f in &mut rel.schema.fields {
                f.name = format!("{}_{}", node.name, f.name);
            }
            cat.insert(base_name(xam, n), rel);
        }
        let plan = LogicalPlan::Project {
            input: Box::new(build_join_plan(xam)),
            cols: output_columns(xam)
                .into_iter()
                .map(|c| Path::new(c.path))
                .collect(),
            distinct: true,
        };
        Evaluator::with_document(&cat, doc).eval(&plan).unwrap()
    }

    /// Tag and path partitioning load by posting: each stored relation
    /// equals, row for row, the eager oracle's and the explicit join
    /// tree's, and is declared with the key of its ID column. `r` nests
    /// `a` in itself and `b` in `a` at two depths.
    #[test]
    fn partition_models_materialize_as_the_eager_evaluator_did() {
        let recursive = xmltree::parse_document(concat!(
            "<r><a><a><b>1</b></a><b>2</b></a><a><b k=\"x\">3</b></a>",
            "<c><a><b>4</b><a><a><b>5</b></a></a></a></c></r>",
        ))
        .unwrap();
        for (doc, min_views) in [(xmark(15, 42), 40), (dblp(200, 42), 40), (recursive, 10)] {
            let s = Summary::of_document(&doc);
            let mut views = tag_partition_model(&s);
            views.extend(path_partition_model(&s));
            assert!(
                views.len() > min_views,
                "tag and path views of every label and path"
            );
            let mut store = MaterializedStore::new();
            for (name, xam) in views {
                assert_eq!(Route::of(&xam), Route::Posting, "{name} ← {xam}");
                store.add_view(name.clone(), xam.clone(), &doc).unwrap();
                let stored = store.relation(&name).unwrap();
                assert!(*stored == evaluate_eagerly(&xam, &doc), "{name} ← {xam}");
                let join_tree = Evaluator::with_document(&build_catalog(&xam, &doc), &doc)
                    .eval(&final_projection(&xam, build_join_plan(&xam)))
                    .unwrap();
                assert!(*stored == join_tree, "{name} ← {xam}");
                assert_eq!(
                    store.catalog().declared_key(&name),
                    Some(&[0][..]),
                    "{name} ← {xam}"
                );
                let ids: std::collections::HashSet<_> =
                    stored.tuples.iter().map(|t| t.get(0).as_id()).collect();
                assert_eq!(ids.len(), stored.len(), "{name} ← {xam}");
            }
        }
    }

    #[test]
    fn edge_model_materializes() {
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        for (name, xam) in edge_model() {
            if xam.has_access_restrictions() {
                continue; // indexes need bindings; skip materialization
            }
            store.add_view(name, xam, &doc).unwrap();
        }
        assert!(store.relation("edge_elements").unwrap().len() >= 7);
    }

    #[test]
    fn tag_partition_covers_labels() {
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let model = tag_partition_model(&s);
        let names: Vec<&str> = model.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"tagpart_book"));
        assert!(names.contains(&"tagpart_author"));
        // tags are deduplicated across paths (author under book & phdthesis)
        assert_eq!(names.iter().filter(|n| **n == "tagpart_author").count(), 1);
    }

    #[test]
    fn path_partition_xams_select_by_path() {
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let model = path_partition_model(&s);
        let mut store = MaterializedStore::new();
        for (name, xam) in model {
            store.add_view(name, xam, &doc).unwrap();
        }
        let book_author = store
            .relation(&crate::engines::PathPartitionStore::relation_of(
                "/bib/book/author",
            ))
            .unwrap();
        assert_eq!(book_author.len(), 4);
        let phd_author = store
            .relation(&crate::engines::PathPartitionStore::relation_of(
                "/bib/phdthesis/author",
            ))
            .unwrap();
        assert_eq!(phd_author.len(), 1);
    }

    #[test]
    fn universal_model_one_wide_tuple_per_node() {
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let model = universal_model(&s);
        let mut store = MaterializedStore::new();
        for (name, xam) in model {
            store.add_view(name, xam, &doc).unwrap();
        }
        let u = store.relation("universal").unwrap();
        // every element yields at least one source tuple (repeated child
        // labels multiply, as in a full outerjoin of Edge tables)
        assert!(u.len() >= doc.element_count());
    }

    #[test]
    fn t_index_parses_and_models_lookup() {
        let (_, xam) = t_index("book", &["title"], "Data on the Web");
        assert!(xam.pattern_size() >= 3);
        let doc = bib_document();
        let rel = xam_core::evaluate(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn index_fabric_requires_values() {
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let model = index_fabric_raw(&s);
        assert!(!model.is_empty());
        for (_, xam) in &model {
            assert!(xam.has_access_restrictions());
        }
    }

    #[test]
    fn xiss_and_dom_models_parse() {
        assert_eq!(xiss_model().len(), 5);
        assert_eq!(dom_model().len(), 4);
    }
}
