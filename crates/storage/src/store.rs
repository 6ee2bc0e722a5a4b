//! The materialized XAM store: named XAM definitions evaluated over a
//! document into nested relations.
//!
//! This is the runtime shape of "the storage is described by a set of
//! XAMs" (§2.2): adding or removing a storage structure is just adding or
//! removing a (name, XAM) pair — no optimizer code changes, which is the
//! paper's physical-data-independence pitch. The rewriting layer reads the
//! definitions; the execution layer scans the materialized relations
//! through an [`algebra::Catalog`].

use std::cmp::Ordering;

use algebra::{order::value_cmp, Catalog, EvalError, FieldKind, OrderSpec, Relation};
use xam_core::semantics::{OutputColumn, Route, StoredAttr};
use xam_core::Xam;
use xmltree::Document;

/// A set of materialized views/storage modules, each described by a XAM.
#[derive(Debug, Clone, Default)]
pub struct MaterializedStore {
    defs: Vec<(String, Xam)>,
    catalog: Catalog,
}

impl MaterializedStore {
    pub fn new() -> MaterializedStore {
        MaterializedStore::default()
    }

    /// Materialize a XAM over the document and register it under `name`,
    /// returning its position in [`MaterializedStore::definitions`]. A
    /// name already present keeps its position and gets the new
    /// definition, so the definitions always describe the relations.
    pub fn add_view(
        &mut self,
        name: impl Into<String>,
        xam: Xam,
        doc: &Document,
    ) -> Result<usize, EvalError> {
        let name = name.into();
        let span = tracing::debug_span!(target: "uload::storage", "materialize_view");
        let rel = span.in_scope(|| xam_core::evaluate(&xam, doc))?;
        tracing::debug!(
            target: "uload::storage",
            "materialized view `{name}` by {}, {} tuples ← {xam}",
            Route::of(&xam),
            rel.len()
        );
        let columns = xam_core::semantics::output_columns(&xam);
        let order = declared_order(&rel);
        let key = view_key(&xam, &columns, &rel);
        self.catalog.insert_ordered(name.clone(), rel, order);
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        let declared = self.catalog.declare_set(&name, &key);
        debug_assert!(declared, "a view's key names its own columns");
        match self.defs.iter().position(|(n, _)| *n == name) {
            Some(pos) => {
                self.defs[pos].1 = xam;
                Ok(pos)
            }
            None => {
                self.defs.push((name, xam));
                Ok(self.defs.len() - 1)
            }
        }
    }

    /// Drop a view — the "change the storage by updating the XAM set"
    /// operation of the introduction.
    pub fn drop_view(&mut self, name: &str) -> bool {
        self.defs.retain(|(n, _)| n != name);
        self.catalog.remove(name).is_some()
    }

    /// The view definitions, in registration order.
    pub fn definitions(&self) -> &[(String, Xam)] {
        &self.defs
    }

    pub fn definition(&self, name: &str) -> Option<&Xam> {
        self.defs.iter().find(|(n, _)| n == name).map(|(_, x)| x)
    }

    /// The relation catalog for plan evaluation.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.catalog.get(name)
    }

    /// Total stored tuples across all views (a size metric for the
    /// experiments).
    pub fn total_tuples(&self) -> usize {
        self.defs
            .iter()
            .filter_map(|(n, _)| self.catalog.get(n))
            .map(|r| r.len())
            .sum()
    }

    pub fn len(&self) -> usize {
        self.defs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

/// The order a materialized view is declared with: its first column,
/// when that is an atom and the rows are sorted on it under `Sort`'s
/// order. The join tree sorts on the top node's bindings, so a first
/// column of a node below it, or a `Tag`/`Val`/`Cont`, need not be.
fn declared_order(rel: &Relation) -> OrderSpec {
    match rel.schema.fields.first() {
        Some(first)
            if first.kind == FieldKind::Atom
                && rel
                    .tuples
                    .windows(2)
                    .all(|w| value_cmp(w[0].get(0), w[1].get(0)) != Ordering::Greater) =>
        {
            OrderSpec::by(first.name.clone())
        }
        _ => OrderSpec::none(),
    }
}

/// The key a materialized view is declared with. `⟦χ⟧_d` is a set
/// (Def. 2.2.3), and a node's `Tag`, `Val` and `Cont` are functions of
/// its ID: the ID columns plus every item of a node that stores no ID are
/// a key. A view with a nested collection is keyed on all its columns.
fn view_key(xam: &Xam, columns: &[OutputColumn], rel: &Relation) -> Vec<String> {
    if columns.iter().any(|c| c.path.contains('.')) {
        return rel.schema.fields.iter().map(|f| f.name.clone()).collect();
    }
    columns
        .iter()
        .filter(|c| c.attr == StoredAttr::Id || xam.node(c.node).stores_id.is_none())
        .map(|c| c.path.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xam_core::parse_xam;
    use xmltree::generate::bib_sample;

    #[test]
    fn add_and_drop_views() {
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        store
            .add_view("v_books", parse_xam("//book[id:s,cont]").unwrap(), &doc)
            .unwrap();
        store
            .add_view(
                "v_titles",
                parse_xam("//book[id:s]{ /title[val] }").unwrap(),
                &doc,
            )
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.relation("v_books").unwrap().len(), 2);
        assert!(store.total_tuples() >= 4);
        assert!(store.drop_view("v_books"));
        assert!(!store.drop_view("v_books"));
        assert!(store.relation("v_books").is_none());
        assert!(store.relation("v_titles").is_some());
    }

    /// A drop touches the dropped view only: the views that stay keep the
    /// declared order the pipelined executor elides sorts on.
    #[test]
    fn drop_keeps_the_declared_order_of_surviving_views() {
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        for (name, text) in [
            ("v_books", "//book[id:s,cont]"),
            ("v_titles", "//book[id:s]{ /title[val] }"),
            ("v_authors", "//a:author[id:s]"),
        ] {
            store
                .add_view(name, parse_xam(text).unwrap(), &doc)
                .unwrap();
        }
        let orders = |store: &MaterializedStore| {
            ["v_titles", "v_authors"].map(|v| store.catalog().declared_order(v).cloned())
        };
        let before = orders(&store);
        assert_eq!(
            before,
            [Some(OrderSpec::by("book1_ID")), Some(OrderSpec::by("a_ID"))]
        );
        // every view has a declared key, until it is dropped
        let key = |v| store.catalog().declared_key(v).map(<[usize]>::to_vec);
        assert_eq!(
            ["v_books", "v_titles", "v_authors"].map(key),
            [Some(vec![0]), Some(vec![0, 1]), Some(vec![0])]
        );
        assert!(store.drop_view("v_books"));
        assert!(store.catalog().declared_order("v_books").is_none());
        assert!(store.catalog().declared_key("v_books").is_none());
        assert!(store.catalog().declared_key("v_titles").is_some());
        assert_eq!(orders(&store), before);
        assert_eq!(store.len(), 2);
    }

    /// A view declares the order of its first column only when its rows
    /// are in it. `a` nests in itself, so `//a{ /b[id:s] }` holds `b` at
    /// pre 5, 3, 8: a `Sort` on `b_ID` over it must not be elided.
    #[test]
    fn declared_order_holds_of_the_stored_rows() {
        let doc = xmltree::parse_document("<r><a><a><b>1</b></a><b>2</b></a><a><b>3</b></a></r>")
            .unwrap();
        let mut store = MaterializedStore::new();
        for (name, text, sorted) in [
            ("v_b", "//a{ /b[id:s] }", false),
            ("v_ab", "//a[id:s]{ /b[id:s] }", true),
            ("v_b_val", "//a{ /b[val] }", false),
            ("v_a_tag", "//a[tag]{ /b[id:s] }", true),
            ("v_b_first", "//b[id:s]", true),
        ] {
            store
                .add_view(name, parse_xam(text).unwrap(), &doc)
                .unwrap();
            let rel = store.relation(name).unwrap();
            let first = &rel.schema.fields[0].name;
            let in_order = rel
                .tuples
                .windows(2)
                .all(|w| value_cmp(w[0].get(0), w[1].get(0)) != Ordering::Greater);
            assert_eq!(in_order, sorted, "{text}");
            let declared = store.catalog().declared_order(name).unwrap();
            assert_eq!(
                declared.satisfies(&algebra::Path::new(first)),
                sorted,
                "{text}"
            );
        }
    }

    /// A view is keyed on its ID columns plus the items of the nodes that
    /// store no ID; one with a nested collection on every column.
    #[test]
    fn views_are_keyed_on_ids_and_the_items_of_id_less_nodes() {
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        for (text, key) in [
            (
                "//b:book[id:s,val]{ /t:title[id:s,val] }",
                &["b_ID", "t_ID"][..],
            ),
            ("//b:book[id:s,tag]{ /a:author[val] }", &["b_ID", "a_Val"]),
            ("//b:book{ /t:title[val] }", &["t_Val"]),
            ("//b:book[id:s]{ /n? t:title[id:s,val] }", &["b_ID", "t"]),
        ] {
            store.add_view("v", parse_xam(text).unwrap(), &doc).unwrap();
            let rel = store.relation("v").unwrap();
            let got = store.catalog().declared_key("v").unwrap();
            let got: Vec<&str> = got
                .iter()
                .map(|&k| rel.schema.fields[k].name.as_str())
                .collect();
            assert_eq!(got, key, "{text}");
        }
    }

    /// Re-adding a name replaces its definition in place: the rewriter
    /// must never plan over a XAM that no longer describes the relation.
    #[test]
    fn re_adding_a_name_replaces_its_definition_in_place() {
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        let title = parse_xam("//title[id:s,val]").unwrap();
        let author = parse_xam("//author[id:s,val]").unwrap();
        assert_eq!(store.add_view("v", title, &doc).unwrap(), 0);
        assert_eq!(
            store
                .add_view("w", parse_xam("//book[id:s]").unwrap(), &doc)
                .unwrap(),
            1
        );
        assert_eq!(store.add_view("v", author.clone(), &doc).unwrap(), 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.definitions()[0], ("v".to_string(), author.clone()));
        assert_eq!(store.definition("v"), Some(&author));
        assert_eq!(store.relation("v").unwrap().len(), 4);
    }

    #[test]
    fn views_are_scannable_through_plans() {
        use algebra::{Evaluator, LogicalPlan};
        let doc = bib_sample();
        let mut store = MaterializedStore::new();
        store
            .add_view("v", parse_xam("//book[id:s]{ /title[val] }").unwrap(), &doc)
            .unwrap();
        let ev = Evaluator::new(store.catalog());
        let rel = ev.eval(&LogicalPlan::scan("v")).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
