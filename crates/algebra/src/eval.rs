//! The execution engine's operators (§1.2.3): every [`LogicalPlan`] node
//! as a *bound operator* — a function from input tuples to output tuples,
//! fixed once to its input schemas — over a [`Catalog`] of stored nested
//! relations, optionally backed by the source [`Document`] for navigation
//! and ancestor-ID derivation. The cursor tree in [`crate::cursor`] is the
//! one place plans are walked: it binds each node through this module
//! when it compiles a plan and applies the bound operator to each batch.
//! [`Evaluator::eval`] is that tree drained at an unbounded batch.
//!
//! Physical choices: structural joins run the `StackTree` merge over
//! ID-sorted, packed inputs; value joins whose predicate has an
//! equality conjunct between the two inputs build an in-memory hash table
//! over the right input and probe it (the `hashjoin` module), and run the
//! nested loop only when there is no such conjunct (`<`, `contains`, `∨`,
//! `¬`); `Difference` probes the right input's tuples by hash; `GroupBy`
//! uses a hash table preserving first-seen group order; `Sort_φ` is a
//! stable comparison sort. The right side of every binary operator is
//! packed once, when it has been drained.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use obs::{ExecMetrics, Meter, NoMeter};
use xmltree::{Document, NodeId, NodeKind, StructuralId};

use crate::cursor::{build_cursor, CursorConfig};
use crate::hashjoin::{assemble_join, join_schema, JoinTable};
use crate::order::{tuple_cmp_all, value_cmp, OrderSpec};
use crate::plan::{
    Axis, CmpOp, FetchWhat, JoinKind, LogicalPlan, NavMode, Operand, Path, Predicate, TwigStep,
};
use crate::pred::{cmp_values, BoundPred, NO_TUPLE};
use crate::simd::{IdColumns, DEFAULT_BLOCK};
use crate::stacktree::stack_tree_pairs;
use crate::twig::{twig_join, TwigPattern};
use crate::value::{Collection, Field, FieldKind, Schema, Tuple, Value};
use crate::xmlgen::Template;

/// A materialized nested relation: schema + tuples (list semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub schema: Schema,
    pub tuples: Vec<Tuple>,
}

impl Relation {
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation { schema, tuples }
    }

    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Named store of base relations (storage modules, indexes, materialized
/// views) visible to plans.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: HashMap<String, Relation>,
    orders: HashMap<String, OrderSpec>,
    /// Declared keys, as field positions.
    keys: HashMap<String, Vec<usize>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a relation. Replacing one clears its key declaration:
    /// nothing is known about the new tuples.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        self.keys.remove(&name);
        self.relations.insert(name, rel);
    }

    /// Register a relation together with its declared output order (and,
    /// like [`Catalog::insert`], without a key declaration).
    pub fn insert_ordered(&mut self, name: impl Into<String>, rel: Relation, order: OrderSpec) {
        let name = name.into();
        self.orders.insert(name.clone(), order);
        self.insert(name, rel);
    }

    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Unregister a relation, its declared order and its key declaration;
    /// every other entry is left as it was.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.orders.remove(name);
        self.keys.remove(name);
        self.relations.remove(name)
    }

    /// The [`OrderSpec`] a relation was registered with via
    /// [`Catalog::insert_ordered`], if any. Lets the pipelined executor
    /// elide a `Sort` boundary over a base scan whose declared order
    /// already satisfies the requested key.
    pub fn declared_order(&self, name: &str) -> Option<&OrderSpec> {
        self.orders.get(name)
    }

    /// Declare that no two tuples of the registered relation `name` agree
    /// on the top-level columns `key` under `π°`'s equality — a
    /// materialized XAM is a set by Def. 2.2.3, and its stored IDs are a
    /// key of it. The executor then skips the hash pass of a `π°` that
    /// keeps the key (see `Duplicate elimination` in DESIGN.md). `false`,
    /// and nothing declared, when no such relation is registered or a
    /// key column is not exactly one of its top-level fields.
    pub fn declare_set(&mut self, name: &str, key: &[&str]) -> bool {
        let Some(rel) = self.relations.get(name) else {
            return false;
        };
        let fields = &rel.schema.fields;
        let position = |k: &str| match fields.iter().filter(|f| f.name == k).count() {
            1 => fields.iter().position(|f| f.name == k),
            _ => None,
        };
        let Some(mut key) = key.iter().map(|k| position(k)).collect::<Option<Vec<_>>>() else {
            return false;
        };
        key.sort_unstable();
        key.dedup();
        self.keys.insert(name.to_string(), key);
        true
    }

    /// The key `name` was declared with ([`Catalog::declare_set`]) since
    /// it was last inserted, as field positions.
    pub fn declared_key(&self, name: &str) -> Option<&[usize]> {
        self.keys.get(name).map(Vec::as_slice)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Evaluation errors: unknown relations/attributes, type misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownRelation(String),
    UnknownAttribute(String),
    TypeError(String),
    NeedsDocument(&'static str),
    /// A structural-join input of this many rows: the join kernels number
    /// rows with 32 bits.
    TooManyRows(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            EvalError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::NeedsDocument(op) => {
                write!(
                    f,
                    "operator {op} requires a source document in the evaluator"
                )
            }
            EvalError::TooManyRows(n) => write!(
                f,
                "structural join input has {n} rows; the join kernels address at most {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// The plan interpreter's front door. There is one executor — the cursor
/// tree [`build_cursor`] compiles — and [`Evaluator::eval`] drains it at
/// an unbounded batch, so every operator sees its whole input exactly
/// once and the result comes back materialized.
pub struct Evaluator<'a> {
    pub catalog: &'a Catalog,
    pub doc: Option<&'a Document>,
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a Catalog) -> Evaluator<'a> {
        Evaluator { catalog, doc: None }
    }

    pub fn with_document(catalog: &'a Catalog, doc: &'a Document) -> Evaluator<'a> {
        Evaluator {
            catalog,
            doc: Some(doc),
        }
    }

    /// Evaluate a logical plan to a materialized relation.
    pub fn eval(&self, plan: &LogicalPlan) -> Result<Relation, EvalError> {
        let cfg = CursorConfig {
            batch_size: usize::MAX,
            ..CursorConfig::default()
        };
        build_cursor(plan, self.catalog, self.doc, &cfg)?.collect()
    }
}

// ----------------------------------------------------------------------
// bound operators
//
// The cursor compiler binds each plan node once to its input schemas:
// paths resolved, predicates bound, the output schema computed. An
// unknown attribute or a type misuse fails there, before a tuple is
// read. What is left is a function from input tuples to output tuples,
// applied to whatever batch the cursor tree hands it.

/// A unary operator bound to its input schema.
pub(crate) struct Unary<'a> {
    pub schema: Schema,
    pub apply: Box<dyn Fn(Vec<Tuple>) -> Vec<Tuple> + 'a>,
}

/// The kernel counters of the operator being run; `None` when nobody is
/// profiling, and the kernels then run their [`NoMeter`] instantiation.
pub(crate) type Metrics<'m> = Option<&'m mut ExecMetrics>;

/// One left batch in, its output against the resident right side out.
pub(crate) type Probe = Box<dyn Fn(Vec<Tuple>, Metrics<'_>) -> Result<Vec<Tuple>, EvalError>>;

/// A binary operator whose output is a per-left-tuple function of the
/// whole right input, bound to both schemas. `build` takes the drained
/// right side, packs it once (hash table, ID columns) and returns the
/// [`Probe`] every left batch then runs through.
pub(crate) struct Binary {
    pub schema: Schema,
    pub build: Build,
}

pub(crate) type Build = Box<dyn FnOnce(Vec<Tuple>, Metrics<'_>) -> Result<Probe, EvalError>>;

fn probe(f: impl Fn(Vec<Tuple>, Metrics<'_>) -> Result<Vec<Tuple>, EvalError> + 'static) -> Probe {
    Box::new(f)
}

/// Run `f` against the operator's metrics when profiling, against the
/// free [`NoMeter`] otherwise.
fn with_meter<R>(m: Metrics<'_>, f: impl FnOnce(&mut dyn Meter) -> R) -> R {
    match m {
        Some(m) => f(m),
        None => f(&mut NoMeter),
    }
}

impl<'a> Unary<'a> {
    fn new(schema: Schema, apply: impl Fn(Vec<Tuple>) -> Vec<Tuple> + 'a) -> Unary<'a> {
        Unary {
            schema,
            apply: Box::new(apply),
        }
    }

    // ------------------------------------------------------------------
    // selection

    pub(crate) fn select(input: &Schema, pred: &Predicate) -> Result<Unary<'a>, EvalError> {
        // `map`-extension with reduction for a single comparison over one
        // nested column (Example 1.2.2); plain existential otherwise.
        if let Some((p, op, c)) = reducing_selection(pred) {
            let (idx, c) = (resolve(input, p)?, c.clone());
            return Ok(Unary::new(input.clone(), move |tuples| {
                tuples
                    .into_iter()
                    .filter_map(|t| reduce_tuple(t, &idx, &mut |v| cmp_values(v, op, &c)))
                    .collect()
            }));
        }
        // binding resolves every attribute, so an unknown one fails here,
        // before the first tuple is read
        let bound = BoundPred::bind(pred, input, input.arity())?;
        Ok(Unary::new(input.clone(), move |mut tuples| {
            tuples.retain(|t| bound.holds(t, &NO_TUPLE));
            tuples
        }))
    }

    // ------------------------------------------------------------------
    // projection

    pub(crate) fn project(
        input: &Schema,
        cols: &[Path],
        distinct: bool,
    ) -> Result<Unary<'a>, EvalError> {
        let spec = ProjSpec::build(input, cols)?;
        if !distinct && spec.is_identity(input) {
            return Ok(Unary::new(input.clone(), |tuples| tuples));
        }
        Ok(Unary::new(spec.schema(input), move |tuples| {
            let mut out: Vec<Tuple> = tuples.iter().map(|t| spec.apply(t)).collect();
            if distinct {
                retain_first_occurrences(&mut out);
            }
            out
        }))
    }

    // ------------------------------------------------------------------
    // group-by / unnest / nest-all / sort

    pub(crate) fn group_by(
        input: &Schema,
        keys: &[Path],
        nest_as: &str,
    ) -> Result<Unary<'a>, EvalError> {
        let key_idx: Vec<usize> = keys
            .iter()
            .map(|p| {
                let idx = resolve(input, p)?;
                if idx.len() != 1 {
                    return Err(EvalError::TypeError(
                        "group-by keys must be top-level attributes".into(),
                    ));
                }
                Ok(idx[0])
            })
            .collect::<Result<_, _>>()?;
        let rest_idx: Vec<usize> = (0..input.arity())
            .filter(|i| !key_idx.contains(i))
            .collect();
        let rest_schema = Schema::new(rest_idx.iter().map(|&i| input.fields[i].clone()).collect());
        let mut schema_fields: Vec<Field> =
            key_idx.iter().map(|&i| input.fields[i].clone()).collect();
        schema_fields.push(Field::nested(nest_as, rest_schema));

        Ok(Unary::new(Schema::new(schema_fields), move |tuples| {
            // groups in first-appearance order, found through the
            // `ByValue` hash of their key — `π°`'s equality
            let mut groups: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
            let mut slots: HashMap<u64, Vec<usize>> = HashMap::new();
            for mut t in tuples {
                let mut take = |i: usize| std::mem::replace(&mut t.0[i], Value::Null);
                let key = Tuple::new(key_idx.iter().map(|&i| take(i)).collect());
                let rest = Tuple::new(rest_idx.iter().map(|&i| take(i)).collect());
                let slot = slots.entry(hash_of(&key)).or_default();
                let found = slot
                    .iter()
                    .copied()
                    .find(|&g| ByValue(&groups[g].0) == ByValue(&key));
                let g = found.unwrap_or_else(|| {
                    slot.push(groups.len());
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(rest);
            }
            groups
                .into_iter()
                .map(|(mut key, rest)| {
                    key.0.push(Value::Coll(Collection::list(rest)));
                    key
                })
                .collect()
        }))
    }

    pub(crate) fn unnest(input: &Schema, attr: &Path) -> Result<Unary<'a>, EvalError> {
        let idx = resolve(input, attr)?;
        if idx.len() != 1 {
            return Err(EvalError::TypeError(
                "unnest attribute must be top-level".into(),
            ));
        }
        let i = idx[0];
        let inner = match &input.fields[i].kind {
            FieldKind::Nested(s) => s.clone(),
            FieldKind::Atom => {
                return Err(EvalError::TypeError("unnest of atomic attribute".into()))
            }
        };
        let mut fields = Vec::new();
        for (j, f) in input.fields.iter().enumerate() {
            if j == i {
                fields.extend(inner.fields.iter().cloned());
            } else {
                fields.push(f.clone());
            }
        }
        let schema = Schema::new(fields);
        let arity = schema.arity();
        Ok(Unary::new(schema, move |tuples| {
            let mut out = Vec::new();
            for t in &tuples {
                if let Value::Coll(c) = t.get(i) {
                    for nt in &c.tuples {
                        let mut vals = Vec::with_capacity(arity);
                        for (j, v) in t.0.iter().enumerate() {
                            if j == i {
                                vals.extend(nt.0.iter().cloned());
                            } else {
                                vals.push(v.clone());
                            }
                        }
                        out.push(Tuple::new(vals));
                    }
                }
            }
            out
        }))
    }

    pub(crate) fn nest_all(input: &Schema, as_name: &str) -> Unary<'a> {
        let schema = Schema::new(vec![Field::nested(as_name, input.clone())]);
        Unary::new(schema, |tuples| {
            vec![Tuple::new(vec![Value::Coll(Collection::list(tuples))])]
        })
    }

    pub(crate) fn sort(input: &Schema, by: &[Path]) -> Result<Unary<'a>, EvalError> {
        let idxs: Vec<Vec<usize>> = by
            .iter()
            .map(|p| resolve(input, p))
            .collect::<Result<_, _>>()?;
        Ok(Unary::new(input.clone(), move |mut tuples| {
            tuples.sort_by(|a, b| {
                for idx in &idxs {
                    let va = flat_value(a, idx);
                    let vb = flat_value(b, idx);
                    let c = value_cmp(&va, &vb);
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            tuples
        }))
    }

    // ------------------------------------------------------------------
    // tagging, schema-only operators

    pub(crate) fn xml_template(input: &Schema, templ: &Template) -> Unary<'a> {
        let templ = templ.bind(input);
        Unary::new(Schema::atoms(&["xml"]), move |tuples| {
            let mut buf = String::new();
            tuples
                .iter()
                .map(|t| {
                    buf.clear();
                    templ.render(t, &mut buf);
                    Tuple::new(vec![Value::str(&buf)])
                })
                .collect()
        })
    }

    pub(crate) fn cast(input: &Schema, schema: &Schema) -> Result<Unary<'a>, EvalError> {
        fn shape_eq(a: &Schema, b: &Schema) -> bool {
            a.arity() == b.arity()
                && a.fields
                    .iter()
                    .zip(&b.fields)
                    .all(|(x, y)| match (&x.kind, &y.kind) {
                        (FieldKind::Atom, FieldKind::Atom) => true,
                        (FieldKind::Nested(m), FieldKind::Nested(n)) => shape_eq(m, n),
                        _ => false,
                    })
        }
        if !shape_eq(input, schema) {
            return Err(EvalError::TypeError(format!(
                "cast shape mismatch: {input} vs {schema}"
            )));
        }
        Ok(Unary::new(schema.clone(), |tuples| tuples))
    }

    pub(crate) fn rename(input: &Schema, names: &[String]) -> Result<Unary<'a>, EvalError> {
        if names.len() != input.arity() {
            return Err(EvalError::TypeError(format!(
                "rename arity mismatch: {} names for {} fields",
                names.len(),
                input.arity()
            )));
        }
        let mut schema = input.clone();
        for (f, n) in schema.fields.iter_mut().zip(names) {
            f.name = n.clone();
        }
        Ok(Unary::new(schema, |tuples| tuples))
    }

    // ------------------------------------------------------------------
    // document-backed operators

    /// `Navigate`: each input tuple paired with the nodes its `from_attr`
    /// ID reaches, found through the label's posting ([`Reach`]). Of the
    /// `_Val` and `_Cont` columns only those `want` asks for are built;
    /// the others are `⊥` (the schema is the same either way).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn navigate(
        input: &Schema,
        doc: Option<&'a Document>,
        from_attr: &Path,
        axis: Axis,
        label: &str,
        as_prefix: &str,
        mode: NavMode,
        want: ColumnDemand,
    ) -> Result<Unary<'a>, EvalError> {
        let doc = doc.ok_or(EvalError::NeedsDocument("Navigate"))?;
        let idx = resolve(input, from_attr)?;
        if crosses_collection(input, &idx) {
            return Err(EvalError::TypeError(
                "navigate source attribute must not be nested".into(),
            ));
        }
        let col = idx[0];
        let mut schema = input.clone();
        if mode != NavMode::Exists {
            schema.fields.push(Field::atom(format!("{as_prefix}_ID")));
            schema.fields.push(Field::atom(format!("{as_prefix}_Val")));
            schema.fields.push(Field::atom(format!("{as_prefix}_Cont")));
        }
        let arity = schema.arity();
        let reach = Reach::bind(doc, axis, label);
        Ok(Unary::new(schema, move |tuples| {
            let mut out = Vec::with_capacity(tuples.len());
            let (mut reached, mut buf) = (Vec::new(), String::new());
            let mut item = |on: bool, write: fn(&Document, NodeId, &mut String), m| {
                if !on {
                    return Value::Null;
                }
                buf.clear();
                write(doc, m, &mut buf);
                Value::str(&buf)
            };
            for t in tuples {
                let from = t.get(col).as_id();
                if mode == NavMode::Exists {
                    if from.is_some_and(|n| reach.any(doc, n)) {
                        out.push(t);
                    }
                    continue;
                }
                reached.clear();
                if let Some(n) = from {
                    reach.collect(doc, n, &mut reached);
                }
                if reached.is_empty() && mode == NavMode::Outer {
                    let mut vals = Vec::with_capacity(arity);
                    vals.extend_from_slice(&t.0);
                    vals.resize(arity, Value::Null);
                    out.push(Tuple::new(vals));
                }
                for &m in &reached {
                    let mut vals = Vec::with_capacity(arity);
                    vals.extend_from_slice(&t.0);
                    vals.push(Value::Id(doc.structural_id(m)));
                    vals.push(item(want.val, Document::write_value, m));
                    vals.push(item(want.cont, xmltree::parser::serialize_node, m));
                    out.push(Tuple::new(vals));
                }
            }
            out
        }))
    }

    pub(crate) fn fetch(
        input: &Schema,
        doc: Option<&'a Document>,
        id_attr: &Path,
        what: FetchWhat,
        as_name: &str,
    ) -> Result<Unary<'a>, EvalError> {
        let doc = doc.ok_or(EvalError::NeedsDocument("Fetch"))?;
        let idx = resolve(input, id_attr)?;
        let mut schema = input.clone();
        schema.fields.push(Field::atom(as_name));
        Ok(Unary::new(schema, move |tuples| {
            tuples
                .iter()
                .map(|t| {
                    let v = match flat_value(t, &idx).as_id() {
                        None => Value::Null,
                        Some(sid) => {
                            let n = NodeId(sid.pre);
                            match what {
                                FetchWhat::Val => Value::str(doc.value(n)),
                                FetchWhat::Cont => Value::str(doc.content(n)),
                                FetchWhat::Tag => Value::str(doc.label(n)),
                            }
                        }
                    };
                    let mut nt = t.clone();
                    nt.0.push(v);
                    nt
                })
                .collect()
        }))
    }

    pub(crate) fn derive_ancestor(
        input: &Schema,
        doc: Option<&'a Document>,
        attr: &Path,
        levels: u16,
        as_name: &str,
    ) -> Result<Unary<'a>, EvalError> {
        let doc = doc.ok_or(EvalError::NeedsDocument("DeriveAncestorId"))?;
        let idx = resolve(input, attr)?;
        let mut schema = input.clone();
        schema.fields.push(Field::atom(as_name));
        Ok(Unary::new(schema, move |tuples| {
            let mut out = Vec::new();
            for t in &tuples {
                let anc = flat_value(t, &idx).as_id().and_then(|sid| {
                    let mut n = NodeId(sid.pre);
                    for _ in 0..levels {
                        n = doc.parent(n)?;
                    }
                    Some(doc.structural_id(n))
                });
                let mut nt = t.clone();
                nt.0.push(anc.map(Value::Id).unwrap_or(Value::Null));
                out.push(nt);
            }
            out
        }))
    }
}

impl Binary {
    fn new(
        schema: Schema,
        build: impl FnOnce(Vec<Tuple>, Metrics<'_>) -> Result<Probe, EvalError> + 'static,
    ) -> Binary {
        Binary {
            schema,
            build: Box::new(build),
        }
    }

    pub(crate) fn product(left: &Schema, right: &Schema) -> Binary {
        Binary::new(left.concat(right), |right, _| {
            Ok(probe(move |left, _| {
                let mut out = Vec::with_capacity(left.len() * right.len());
                for lt in &left {
                    for rt in &right {
                        out.push(lt.concat(rt));
                    }
                }
                Ok(out)
            }))
        })
    }

    /// `Difference` probes the right input's tuples by their
    /// [`ByValue`] hash.
    pub(crate) fn difference(left: &Schema) -> Binary {
        Binary::new(left.clone(), |right, _| {
            let mut slots: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, t) in right.iter().enumerate() {
                slots.entry(hash_of(t)).or_default().push(i);
            }
            Ok(probe(move |mut left, _| {
                left.retain(|t| {
                    !slots
                        .get(&hash_of(t))
                        .is_some_and(|slot| slot.iter().any(|&i| ByValue(t) == ByValue(&right[i])))
                });
                Ok(left)
            }))
        })
    }

    // ------------------------------------------------------------------
    // value joins

    pub(crate) fn value_join(
        left: &Schema,
        right: &Schema,
        pred: &Predicate,
        kind: JoinKind,
    ) -> Result<Binary, EvalError> {
        let mut table = JoinTable::bind(pred, left, right)?;
        let schema = join_schema(left, right, kind, None);
        Ok(Binary::new(schema, move |right, m| {
            with_meter(m, |m| table.fill(&right, m));
            Ok(probe(move |left, m| {
                Ok(with_meter(m, |m| table.join(&left, &right, kind, m)))
            }))
        }))
    }

    // ------------------------------------------------------------------
    // structural joins

    pub(crate) fn struct_join(
        left: &Schema,
        right: &Schema,
        left_attr: &Path,
        right_attr: &Path,
        axis: Axis,
        kind: JoinKind,
        nest_as: Option<&str>,
    ) -> Result<Binary, EvalError> {
        let lidx = resolve(left, left_attr)?;
        let ridx = resolve(right, right_attr)?;
        if crosses_collection(right, &ridx) {
            return Err(EvalError::TypeError(
                "structural join right attribute must not be nested".into(),
            ));
        }
        let schema = struct_join_schema(left, &lidx, right, kind, nest_as)?;
        let (rcol, arity) = (ridx[0], right.arity());
        Ok(Binary::new(schema, move |tuples, _| {
            // the right side's sorted (sid, row) stream, packed once
            let ids = IdColumns::from_pairs(&id_stream(&tuples, rcol)?, DEFAULT_BLOCK);
            let right = StructRight { tuples, ids, arity };
            Ok(probe(move |left, m| {
                map_struct_join(left, &lidx, &right, axis, kind, m)
            }))
        }))
    }
}

/// The resident right side of a structural join.
struct StructRight {
    tuples: Vec<Tuple>,
    /// Its sorted `(sid, row)` stream, packed for the StackTree merge.
    ids: IdColumns,
    arity: usize,
}

/// Flat structural join: gather the left batch's sorted (sid, row)
/// stream, pack, merge against the resident right side.
fn flat_struct_join(
    left: &[Tuple],
    lcol: usize,
    right: &StructRight,
    axis: Axis,
    kind: JoinKind,
    m: Metrics<'_>,
) -> Result<Vec<Tuple>, EvalError> {
    let lc = IdColumns::from_pairs(&id_stream(left, lcol)?, DEFAULT_BLOCK);
    let pairs = match m {
        Some(m) => stack_tree_pairs(&lc, &right.ids, axis, m),
        None => stack_tree_pairs(&lc, &right.ids, axis, &mut NoMeter),
    };
    let mut matches: Vec<Vec<usize>> = vec![Vec::new(); left.len()];
    for (li, ri) in pairs {
        matches[li].push(ri);
    }
    for m in &mut matches {
        m.sort_unstable();
    }
    Ok(assemble_join(
        left,
        &right.tuples,
        right.arity,
        &matches,
        kind,
    ))
}

/// `map`-extended structural join: while the left ID lives inside a
/// nested collection attribute (Example 1.2.3) the join is applied inside
/// each nested collection; left tuples whose every nested collection
/// joins empty are eliminated (for the non-outer kinds).
fn map_struct_join(
    left: Vec<Tuple>,
    lidx: &[usize],
    right: &StructRight,
    axis: Axis,
    kind: JoinKind,
    mut m: Metrics<'_>,
) -> Result<Vec<Tuple>, EvalError> {
    let [first, rest @ ..] = lidx else {
        unreachable!("resolved paths are never empty")
    };
    if rest.is_empty() {
        return flat_struct_join(&left, *first, right, axis, kind, m);
    }
    let keep_empty = matches!(kind, JoinKind::LeftOuter | JoinKind::NestOuter);
    let mut out = Vec::new();
    for mut t in left {
        let Value::Coll(c) = &mut t.0[*first] else {
            continue;
        };
        let inner = std::mem::take(&mut c.tuples);
        let joined = map_struct_join(inner, rest, right, axis, kind, m.as_deref_mut())?;
        if joined.is_empty() && !keep_empty {
            continue; // eliminate: all nested maps empty
        }
        t.0[*first] = Value::Coll(Collection::list(joined));
        out.push(t);
    }
    Ok(out)
}

/// Output schema of a structural join whose left attribute sits at
/// `lidx`: the flat [`join_schema`] at the level the attribute lives on,
/// re-wrapped in each nested field the path crosses.
fn struct_join_schema(
    left: &Schema,
    lidx: &[usize],
    right: &Schema,
    kind: JoinKind,
    nest_as: Option<&str>,
) -> Result<Schema, EvalError> {
    if !crosses_collection(left, lidx) {
        return Ok(join_schema(left, right, kind, nest_as));
    }
    let FieldKind::Nested(inner) = &left.fields[lidx[0]].kind else {
        return Err(EvalError::TypeError(
            "map struct join expected nested field".into(),
        ));
    };
    let mut schema = left.clone();
    schema.fields[lidx[0]].kind =
        FieldKind::Nested(struct_join_schema(inner, &lidx[1..], right, kind, nest_as)?);
    Ok(schema)
}

// ----------------------------------------------------------------------
// navigation

/// A `Navigate` step's label resolved against the document once, when
/// the operator is bound: `l` is an element label, `@a` an attribute,
/// `*` any element.
enum Reach<'a> {
    /// `//`: the label's posting (every element's, for `*`), sorted by
    /// `pre`, so the nodes below `n` are one run of it.
    Descendants(&'a [NodeId]),
    /// `/`: the children of this kind and interned label (`None`: any).
    Children(NodeKind, Option<u32>),
    /// `/` to a label no node carries.
    Nothing,
}

impl<'a> Reach<'a> {
    fn bind(doc: &'a Document, axis: Axis, label: &str) -> Reach<'a> {
        let (kind, name) = match label.strip_prefix('@') {
            Some(a) => (NodeKind::Attribute, Some(a)),
            None if label == "*" => (NodeKind::Element, None),
            None => (NodeKind::Element, Some(label)),
        };
        match (axis, name) {
            (Axis::Descendant, name) => Reach::Descendants(doc.label_posting(name, kind)),
            (Axis::Child, None) => Reach::Children(kind, None),
            (Axis::Child, Some(l)) => match doc.find_label(l) {
                Some(id) => Reach::Children(kind, Some(id)),
                None => Reach::Nothing,
            },
        }
    }

    /// The run of `posting` inside the subtree of `n`, found by two
    /// binary searches on `pre` alone: a subtree holds
    /// `post - pre + depth - 1` nodes after its root, so its last node in
    /// document order is `post + depth - 1`.
    fn below(posting: &'a [NodeId], n: StructuralId) -> &'a [NodeId] {
        let last = n.post + u32::from(n.depth) - 1;
        let lo = posting.partition_point(|m| m.0 <= n.pre);
        let len = posting[lo..].partition_point(|m| m.0 <= last);
        &posting[lo..lo + len]
    }

    fn is_child(doc: &Document, m: NodeId, kind: NodeKind, label: Option<u32>) -> bool {
        doc.kind(m) == kind && label.is_none_or(|l| doc.label_id(m) == l)
    }

    /// Append the nodes reached from `n` to `out`, in document order.
    fn collect(&self, doc: &Document, n: StructuralId, out: &mut Vec<NodeId>) {
        match *self {
            Reach::Descendants(posting) => out.extend_from_slice(Reach::below(posting, n)),
            Reach::Children(kind, label) => out.extend(
                doc.children(NodeId(n.pre))
                    .iter()
                    .filter(|&&m| Reach::is_child(doc, m, kind, label)),
            ),
            Reach::Nothing => {}
        }
    }

    /// Does `n` reach any node? Stops at the first.
    fn any(&self, doc: &Document, n: StructuralId) -> bool {
        match *self {
            Reach::Descendants(posting) => !Reach::below(posting, n).is_empty(),
            Reach::Children(kind, label) => doc
                .children(NodeId(n.pre))
                .iter()
                .any(|&m| Reach::is_child(doc, m, kind, label)),
            Reach::Nothing => false,
        }
    }
}

// ----------------------------------------------------------------------
// path utilities

/// Resolve a dotted path to field indexes.
fn resolve(schema: &Schema, p: &Path) -> Result<Vec<usize>, EvalError> {
    schema
        .resolve(p.as_str())
        .ok_or_else(|| EvalError::UnknownAttribute(p.as_str().to_string()))
}

/// The selection `Unary::select` runs `map`-extended with reduction: one
/// comparison of a column inside a nested collection with a constant. A
/// path descends into a nested schema only at a `.` ([`Schema::resolve`]),
/// so that is a dotted column; the duplicate-freeness rules in
/// [`crate::cursor`] read the same test.
pub(crate) fn reducing_selection(pred: &Predicate) -> Option<(&Path, CmpOp, &Value)> {
    match pred {
        Predicate::Cmp(Operand::Col(p), op, Operand::Const(c)) if p.as_str().contains('.') => {
            Some((p, *op, c))
        }
        _ => None,
    }
}

/// Does the prefix of this index path (all but the last step) cross a
/// nested collection?
fn crosses_collection(schema: &Schema, idx: &[usize]) -> bool {
    if idx.len() <= 1 {
        return false;
    }
    matches!(schema.fields[idx[0]].kind, FieldKind::Nested(_))
}

/// Value at a flat (non-collection-crossing) index path.
fn flat_value(t: &Tuple, idx: &[usize]) -> Value {
    debug_assert_eq!(idx.len(), 1);
    t.get(idx[0]).clone()
}

/// Reduce a tuple on a nested path: keep only nested tuples whose value at
/// the path satisfies `f`; eliminate the tuple if nothing remains
/// (Example 1.2.2's `map(σ, r, A1.A11)`).
fn reduce_tuple(mut t: Tuple, idx: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> Option<Tuple> {
    fn rec(v: &mut Value, rest: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> bool {
        match v {
            Value::Coll(c) => {
                c.tuples.retain_mut(|t| {
                    let inner = &mut t.0[rest[0]];
                    rec(inner, &rest[1..], f)
                });
                !c.tuples.is_empty()
            }
            v => {
                if rest.is_empty() {
                    f(v)
                } else {
                    false
                }
            }
        }
    }
    let keep = rec(&mut t.0[idx[0]], &idx[1..], f);
    keep.then_some(t)
}

/// The `(id, row)` stream of top-level ID column `col` in `pre` order —
/// what [`IdColumns::from_pairs`] packs.
/// Rows whose value is not an ID (`⊥`) are left out. This is the one
/// place row numbers narrow to the kernels' 32 bits, so it is the one
/// place that can refuse an input for its size.
fn id_stream(tuples: &[Tuple], col: usize) -> Result<Vec<(StructuralId, u32)>, EvalError> {
    if tuples.len() > u32::MAX as usize {
        return Err(EvalError::TooManyRows(tuples.len()));
    }
    let mut ids: Vec<(StructuralId, u32)> = tuples
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.get(col).as_id().map(|sid| (sid, i as u32)))
        .collect();
    if !ids.windows(2).all(|w| w[0].0.pre <= w[1].0.pre) {
        ids.sort_by_key(|(s, _)| s.pre);
    }
    Ok(ids)
}

// ----------------------------------------------------------------------
// duplicate elimination

/// A tuple under the equality of [`tuple_cmp_all`]: strings by content,
/// IDs by `pre` alone, `⊥ = ⊥`, collections element-wise whatever their
/// [`crate::CollKind`]; values of different types never collide.
struct ByValue<'a>(&'a Tuple);

impl PartialEq for ByValue<'_> {
    fn eq(&self, other: &Self) -> bool {
        tuple_cmp_all(self.0, other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for ByValue<'_> {}

impl Hash for ByValue<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        fn hash_tuple<H: Hasher>(t: &Tuple, state: &mut H) {
            state.write_usize(t.arity());
            for v in &t.0 {
                std::mem::discriminant(v).hash(state);
                match v {
                    Value::Null => {}
                    Value::Id(id) => id.pre.hash(state),
                    Value::Int(x) => x.hash(state),
                    Value::Str(s) => s.hash(state),
                    Value::Coll(c) => {
                        state.write_usize(c.tuples.len());
                        for t in &c.tuples {
                            hash_tuple(t, state);
                        }
                    }
                }
            }
        }
        hash_tuple(self.0, state);
    }
}

/// The [`ByValue`] hash of a tuple: the one hash key `Difference` and
/// `GroupBy` probe with.
fn hash_of(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    ByValue(t).hash(&mut h);
    h.finish()
}

/// Duplicate elimination of `π°`: keep the first of every class of
/// [`ByValue`]-equal tuples, in order.
fn retain_first_occurrences(tuples: &mut Vec<Tuple>) {
    let mut seen: HashSet<ByValue<'_>> = HashSet::with_capacity(tuples.len());
    let first: Vec<bool> = tuples.iter().map(|t| seen.insert(ByValue(t))).collect();
    drop(seen);
    let mut first = first.into_iter();
    tuples.retain(|_| first.next().expect("one flag per tuple"));
}

/// [`tuple_cmp_all`]'s equality classes rendered as a string key: the
/// oracle for [`ByValue`]'s `Hash`.
#[cfg(test)]
fn dedup_key(t: &Tuple) -> String {
    use std::fmt::Write as _;
    fn write_tuple_key(t: &Tuple, out: &mut String) {
        let _ = write!(out, "({}", t.arity());
        for v in &t.0 {
            match v {
                Value::Null => out.push('n'),
                Value::Id(id) => {
                    let _ = write!(out, "i{}", id.pre);
                }
                Value::Int(x) => {
                    let _ = write!(out, "d{x}");
                }
                Value::Str(s) => {
                    let _ = write!(out, "s{}:{s}", s.len());
                }
                Value::Coll(c) => {
                    let _ = write!(out, "c{}", c.tuples.len());
                    for t in &c.tuples {
                        write_tuple_key(t, out);
                    }
                }
            }
        }
        out.push(')');
    }
    let mut out = String::new();
    write_tuple_key(t, &mut out);
    out
}

// ----------------------------------------------------------------------
// twig shape analysis

/// The holistic operator's view of a twig's inputs: the single ID column
/// of each input the pattern references, each step's parent
/// pattern-node index, and the concatenated output schema (root, then
/// step inputs in order — the cascade's own output shape).
#[derive(Debug, Clone)]
pub(crate) struct TwigShape {
    pub node_attr: Vec<usize>,
    pub parents: Vec<usize>,
    pub schema: Schema,
}

/// Resolve a twig's step attributes against its inputs' schemas, in the
/// exact order the binary cascade would. `None` means the shape is not
/// covered by the holistic operator — map-extended (dotted) attributes,
/// or two steps hanging off *different* ID columns of one input — and
/// the caller must fall back to the cascade.
pub(crate) fn twig_shape(schemas: &[&Schema], steps: &[TwigStep]) -> Option<TwigShape> {
    debug_assert_eq!(schemas.len(), steps.len() + 1);
    // field-offset ranges of each input in the concatenated schema
    let mut offsets: Vec<usize> = Vec::with_capacity(schemas.len() + 1);
    offsets.push(0);
    for s in schemas {
        offsets.push(offsets.last().unwrap() + s.arity());
    }
    // node_attr[j]: the single ID column of input j the pattern uses
    let mut node_attr: Vec<Option<usize>> = vec![None; schemas.len()];
    let mut parents: Vec<usize> = Vec::with_capacity(steps.len());
    let mut prefix = schemas[0].clone();
    for (k, s) in steps.iter().enumerate() {
        // the step's own attribute, inside its input
        match schemas[k + 1].resolve(s.attr.as_str()) {
            Some(idx) if idx.len() == 1 => node_attr[k + 1] = Some(idx[0]),
            _ => return None,
        }
        // the parent attribute, against the concatenated prefix
        // (exactly what the cascade's left side would resolve on)
        match prefix.resolve(s.parent_attr.as_str()) {
            Some(idx) if idx.len() == 1 => {
                let flat = idx[0];
                let p = offsets.partition_point(|&o| o <= flat) - 1;
                let local = flat - offsets[p];
                match node_attr[p] {
                    None => node_attr[p] = Some(local),
                    Some(prev) if prev == local => {}
                    Some(_) => return None,
                }
                parents.push(p);
            }
            _ => return None,
        }
        prefix = prefix.concat(schemas[k + 1]);
    }
    Some(TwigShape {
        node_attr: node_attr
            .into_iter()
            .map(|a| a.expect("every pattern node is referenced"))
            .collect(),
        parents,
        schema: prefix,
    })
}

/// Run the holistic multi-way merge over the twig inputs, whose shape
/// was validated by [`twig_shape`]: one row-index vector per solution
/// (root first), in the cascade's lexicographic order.
pub(crate) fn twig_solutions(
    inputs: &[&[Tuple]],
    shape: &TwigShape,
    steps: &[TwigStep],
    m: Metrics<'_>,
) -> Result<Vec<Vec<usize>>, EvalError> {
    let mut pattern = TwigPattern::root();
    for (k, s) in steps.iter().enumerate() {
        let id = pattern.add_child(shape.parents[k], s.axis);
        debug_assert_eq!(id, k + 1);
    }
    // pack each stream to structure-of-arrays — one linear pass per
    // stream — and run the merge
    let mut cols: Vec<IdColumns> = Vec::with_capacity(inputs.len());
    for (tuples, &col) in inputs.iter().zip(&shape.node_attr) {
        let ids = id_stream(tuples, col)?;
        cols.push(IdColumns::from_pairs(&ids, DEFAULT_BLOCK));
    }
    let refs: Vec<&IdColumns> = cols.iter().collect();
    Ok(match m {
        Some(m) => twig_join(&pattern, &refs, m),
        None => twig_join(&pattern, &refs, &mut NoMeter),
    })
}

// ----------------------------------------------------------------------
// projection spec

/// Compiled projection: which fields to keep, with optional nested
/// sub-projections.
struct ProjSpec {
    keep: Vec<(usize, Option<ProjSpec>)>,
}

impl ProjSpec {
    fn build(schema: &Schema, cols: &[Path]) -> Result<ProjSpec, EvalError> {
        // Group paths by leading segment, preserving first-appearance order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<String>> = HashMap::new();
        for c in cols {
            let (head, rest) = match c.as_str().split_once('.') {
                Some((h, r)) => (h.to_string(), Some(r.to_string())),
                None => (c.as_str().to_string(), None),
            };
            let e = groups.entry(head.clone()).or_insert_with(|| {
                order.push(head);
                Vec::new()
            });
            if let Some(r) = rest {
                e.push(r);
            }
        }
        let mut keep = Vec::new();
        for head in order {
            let i = schema
                .index_of(&head)
                .ok_or_else(|| EvalError::UnknownAttribute(head.clone()))?;
            let subs = &groups[&head];
            if subs.is_empty() {
                keep.push((i, None));
            } else {
                let inner = match &schema.fields[i].kind {
                    FieldKind::Nested(s) => s,
                    FieldKind::Atom => {
                        return Err(EvalError::UnknownAttribute(format!("{head}.{}", subs[0])))
                    }
                };
                let sub_paths: Vec<Path> = subs.iter().map(|s| Path::new(s.clone())).collect();
                keep.push((i, Some(ProjSpec::build(inner, &sub_paths)?)));
            }
        }
        Ok(ProjSpec { keep })
    }

    /// Does the projection keep every field of `schema`, whole and in
    /// place? Then it is the identity on tuples.
    fn is_identity(&self, schema: &Schema) -> bool {
        self.keep.len() == schema.arity()
            && self
                .keep
                .iter()
                .enumerate()
                .all(|(j, (i, sub))| *i == j && sub.is_none())
    }

    fn schema(&self, schema: &Schema) -> Schema {
        let fields = self
            .keep
            .iter()
            .map(|(i, sub)| {
                let f = &schema.fields[*i];
                match sub {
                    None => f.clone(),
                    Some(spec) => {
                        let inner = match &f.kind {
                            FieldKind::Nested(s) => spec.schema(s),
                            FieldKind::Atom => unreachable!(),
                        };
                        Field::nested(f.name.clone(), inner)
                    }
                }
            })
            .collect();
        Schema::new(fields)
    }

    fn apply(&self, t: &Tuple) -> Tuple {
        let vals = self
            .keep
            .iter()
            .map(|(i, sub)| {
                let v = t.get(*i);
                match sub {
                    None => v.clone(),
                    Some(spec) => match v {
                        Value::Coll(c) => Value::Coll(Collection {
                            kind: c.kind,
                            tuples: c.tuples.iter().map(|nt| spec.apply(nt)).collect(),
                        }),
                        _ => Value::Null,
                    },
                }
            })
            .collect();
        Tuple::new(vals)
    }
}

/// Project a materialized relation to the given dotted paths (public
/// wrapper over the evaluator's projection, used by layers that need to
/// project schemas/relations outside a plan — e.g. XAM binding schemas).
pub fn project_relation(rel: &Relation, paths: &[Path]) -> Result<Relation, EvalError> {
    let spec = ProjSpec::build(&rel.schema, paths)?;
    let schema = spec.schema(&rel.schema);
    let tuples = rel.tuples.iter().map(|t| spec.apply(t)).collect();
    Ok(Relation::new(schema, tuples))
}

// ----------------------------------------------------------------------
// tag-derived collections over documents

/// Which columns of a tag-derived collection to build besides `ID`.
/// `Val` and `Cont` cost a subtree walk and a string per node, so a
/// caller asks only for the ones it reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnDemand {
    pub tag: bool,
    pub val: bool,
    pub cont: bool,
}

impl ColumnDemand {
    /// All of `R_t(ID, Tag, Val, Cont)`.
    pub const ALL: ColumnDemand = ColumnDemand {
        tag: true,
        val: true,
        cont: true,
    };
}

/// Build the *tag-derived list* of Definition 2.2.1 in document order:
/// `R_t` (or `R_t^α` for `kind = Attribute`) for `Some(label)`, `R_*` for
/// `None`. Its columns are `ID` and those of `Tag`, `Val`, `Cont` that
/// `demand` asks for, in that order. Costs `O(|R_t|)` plus the bytes of
/// the demanded columns: the nodes come from the document's postings.
pub fn derived(
    doc: &Document,
    label: Option<&str>,
    kind: NodeKind,
    demand: ColumnDemand,
) -> Relation {
    let mut names = vec!["ID"];
    for (on, name) in [
        (demand.tag, "Tag"),
        (demand.val, "Val"),
        (demand.cont, "Cont"),
    ] {
        if on {
            names.push(name);
        }
    }
    let nodes = doc.label_posting(label, kind);
    // one shared string per label instead of one allocation per node
    let mut tags: HashMap<u32, Value> = HashMap::new();
    let mut buf = String::new();
    let mut tuples = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let mut t = Vec::with_capacity(names.len());
        t.push(Value::Id(doc.structural_id(n)));
        if demand.tag {
            let tag = tags
                .entry(doc.label_id(n))
                .or_insert_with(|| Value::str(doc.label(n)));
            t.push(tag.clone());
        }
        if demand.val {
            buf.clear();
            doc.write_value(n, &mut buf);
            t.push(Value::str(&buf));
        }
        if demand.cont {
            buf.clear();
            xmltree::parser::serialize_node(doc, n, &mut buf);
            t.push(Value::str(&buf));
        }
        tuples.push(Tuple::new(t));
    }
    Relation::new(Schema::atoms(&names), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate::bib_sample;

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

    #[test]
    fn scan_and_select() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let r = ev.eval(&LogicalPlan::scan("book")).unwrap();
        assert_eq!(r.len(), 2);
        let p =
            LogicalPlan::scan("title").select(Predicate::eq("Val", Value::str("Data on the Web")));
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unknown_relation_and_attribute_errors() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        assert!(matches!(
            ev.eval(&LogicalPlan::scan("nope")),
            Err(EvalError::UnknownRelation(_))
        ));
        let p = LogicalPlan::scan("book").select(Predicate::eq("Nope", Value::Int(1)));
        assert!(matches!(ev.eval(&p), Err(EvalError::UnknownAttribute(_))));
    }

    /// A predicate naming an unknown column fails when it is bound,
    /// before any tuple is evaluated: these tuples are shorter than
    /// their schema, so reading `Val` off one would panic.
    #[test]
    fn select_rejects_unknown_column_before_reading_a_tuple() {
        let mut cat = Catalog::new();
        let stubs = vec![Tuple::new(vec![Value::Int(1)]); 3];
        cat.insert("t", Relation::new(Schema::atoms(&["ID", "Val"]), stubs));
        let pred = Predicate::eq("Val", Value::Int(1)).or(Predicate::eq("Nope", Value::Int(1)));
        let plan = LogicalPlan::scan("t").select(pred);
        assert_eq!(
            Evaluator::new(&cat).eval(&plan),
            Err(EvalError::UnknownAttribute("Nope".into()))
        );
    }

    #[test]
    fn structural_join_parent_child() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // book ⋈≺ author: 2 books, first has 2 authors, second has 1
        let p = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema.arity(), 8);
    }

    #[test]
    fn structural_semijoin_and_outerjoin() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // books having a year attribute: only the 1999 one
        let semi = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Semi,
        );
        let r = ev.eval(&semi).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema.arity(), 4);
        // outer join keeps both books, padding the second with nulls
        let outer = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::LeftOuter,
        );
        let r = ev.eval(&outer).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.tuples[1].get(4).is_null());
    }

    #[test]
    fn nest_structural_join() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "authors",
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        let first_authors = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(first_authors.len(), 2);
        // nest-outer keeps books without authors too (none here, same count)
        let p2 = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            true,
            "years",
        );
        let r2 = ev.eval(&p2).unwrap();
        assert_eq!(r2.len(), 2);
        assert_eq!(r2.tuples[1].get(4).as_coll().unwrap().len(), 0);
    }

    #[test]
    fn descendant_axis_join() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("library").struct_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Descendant,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3); // all three titles are descendants
    }

    #[test]
    fn stacktree_matches_nested_loop() {
        let (_doc, cat) = setup();
        let p = LogicalPlan::scan("library").struct_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Descendant,
            JoinKind::Inner,
        );
        let got = Evaluator::new(&cat).eval(&p).unwrap();
        let (lib, auth) = (cat.get("library").unwrap(), cat.get("author").unwrap());
        let mut pairs = crate::stacktree::nested_loop_pairs(
            &id_stream(&lib.tuples, 0).unwrap(),
            &id_stream(&auth.tuples, 0).unwrap(),
            Axis::Descendant,
        );
        pairs.sort_unstable();
        let want: Vec<Tuple> = pairs
            .into_iter()
            .map(|(l, a)| Tuple::new([lib.tuples[l].0.clone(), auth.tuples[a].0.clone()].concat()))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got.tuples, want);
    }

    #[test]
    fn projection_flat_and_nested() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book")
            .struct_nest_join(
                LogicalPlan::scan("author"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "authors",
            )
            .project(&["ID", "authors.Val"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.schema.to_string(), "(ID, authors(Val))");
        let auth = r.tuples[0].get(1).as_coll().unwrap();
        assert_eq!(auth.tuples[0].arity(), 1);
    }

    #[test]
    fn distinct_projection() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("author").project(&["Tag"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 4);
        let p = LogicalPlan::scan("author").project_distinct(&["Tag"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
    }

    /// Regression for the `O(n²)` `seen` scan the hashed key set
    /// replaced: 10k duplicates collapse to their distinct values, with
    /// the comparator's exact equality classes (order preserved
    /// first-seen, `Int(1)` ≠ `Str("1")`, nulls equal each other, IDs
    /// equal by `pre` alone, collections compared element-wise).
    #[test]
    fn distinct_projection_hashes_10k_duplicates() {
        let schema = Schema::atoms(&["K", "V"]);
        let mut tuples = Vec::with_capacity(10_000);
        for i in 0..10_000u32 {
            let v = match i % 5 {
                0 => Value::Int(1),
                1 => Value::str("1"),
                2 => Value::Null,
                3 => Value::Coll(Collection::list(vec![Tuple::new(vec![Value::Int(7)])])),
                _ => Value::str("x"),
            };
            tuples.push(Tuple::new(vec![Value::Int((i % 10) as i64 / 5), v]));
        }
        let mut cat = Catalog::new();
        cat.insert("dup", Relation::new(schema, tuples));
        let ev = Evaluator::new(&cat);
        let r = ev
            .eval(&LogicalPlan::scan("dup").project_distinct(&["K", "V"]))
            .unwrap();
        assert_eq!(r.len(), 10, "5 values × 2 keys survive");
        // the hashed keys respect tuple_cmp_all's equality exactly
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            assert_ne!(
                dedup_key(&r.tuples[a]),
                dedup_key(&r.tuples[b]),
                "{} vs {}",
                r.tuples[a],
                r.tuples[b]
            );
        }
        for t in &r.tuples {
            assert_eq!(dedup_key(t), dedup_key(&t.clone()));
        }
        // first-seen order is preserved, as with the old scan
        assert_eq!(r.tuples[0].get(1), &Value::Int(1));
        assert_eq!(r.tuples[1].get(1), &Value::str("1"));
    }

    /// A key declaration lasts until the name is next written:
    /// `insert`, `insert_ordered` and `remove` each clear it. Only a
    /// registered relation can be declared, and only on columns it has,
    /// each named once; the key is kept as field positions.
    #[test]
    fn writing_a_declared_name_clears_the_declaration() {
        let (_doc, mut cat) = setup();
        let rel = cat.get("book").unwrap().clone();
        assert!(!cat.declare_set("nope", &["ID"]) && cat.declared_key("nope").is_none());
        assert!(!cat.declare_set("book", &["ID", "Nope"]));
        assert!(cat.declared_key("book").is_none());
        let twin = Relation::new(Schema::atoms(&["ID", "ID"]), Vec::new());
        cat.insert("twin", twin);
        assert!(!cat.declare_set("twin", &["ID"]) && cat.declare_set("twin", &[]));
        for what in ["insert", "insert_ordered", "remove"] {
            cat.insert_ordered("book", rel.clone(), OrderSpec::by("ID"));
            assert!(cat.declared_key("book").is_none());
            assert!(cat.declare_set("book", &["Val", "ID", "Val"]));
            assert_eq!(cat.declared_key("book"), Some(&[0, 2][..]));
            assert!(cat.declare_set("title", &["ID"]));
            match what {
                "insert" => cat.insert("book", rel.clone()),
                "insert_ordered" => cat.insert_ordered("book", rel.clone(), OrderSpec::by("ID")),
                _ => assert!(cat.remove("book").is_some()),
            }
            assert!(
                cat.declared_key("book").is_none(),
                "{what} kept the declaration"
            );
            assert!(
                cat.declared_key("title").is_some(),
                "{what} touched another name"
            );
        }
    }

    /// Groups are keyed by `π°`'s equality (`ByValue`), in first-seen
    /// order: nested collections compare element-wise whatever their
    /// kind, IDs by `pre` alone, and `1` is not `"1"`.
    #[test]
    fn group_by_keys_on_tuple_equality() {
        use crate::value::CollKind;
        use xmltree::StructuralId;
        let coll = |kind, xs: &[i64]| {
            Value::Coll(Collection {
                kind,
                tuples: xs
                    .iter()
                    .map(|x| Tuple::new(vec![Value::Int(*x)]))
                    .collect(),
            })
        };
        let id = |pre, post| Value::Id(StructuralId::new(pre, post, 1));
        let keys = [
            coll(CollKind::Set, &[1, 2]),
            Value::Int(1),
            coll(CollKind::List, &[1, 2]),
            id(4, 9),
            Value::str("1"),
            coll(CollKind::Bag, &[1, 2]),
            id(4, 2),
            coll(CollKind::List, &[2, 1]),
            Value::Int(1),
        ];
        let tuples = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Tuple::new(vec![k.clone(), Value::Int(i as i64)]))
            .collect();
        let mut cat = Catalog::new();
        cat.insert("t", Relation::new(Schema::atoms(&["K", "V"]), tuples));
        let plan = LogicalPlan::GroupBy {
            input: Box::new(LogicalPlan::scan("t")),
            keys: vec![Path::new("K")],
            nest_as: "vs".into(),
        };
        let r = Evaluator::new(&cat).eval(&plan).unwrap();
        let groups: Vec<(Value, Vec<i64>)> = r
            .tuples
            .iter()
            .map(|t| {
                let vs = t.get(1).as_coll().unwrap();
                let vs = vs.tuples.iter().map(|v| match v.get(0) {
                    Value::Int(i) => *i,
                    v => panic!("{v}"),
                });
                (t.get(0).clone(), vs.collect())
            })
            .collect();
        assert_eq!(
            groups,
            [
                (keys[0].clone(), vec![0, 2, 5]),
                (Value::Int(1), vec![1, 8]),
                (id(4, 9), vec![3, 6]),
                (Value::str("1"), vec![4]),
                (keys[7].clone(), vec![7]),
            ]
        );
    }

    #[test]
    fn value_join_and_semijoin() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // self-join titles on equal values: 3 tuples (each matches itself)
        let p = LogicalPlan::Project {
            input: Box::new(LogicalPlan::scan("title")),
            cols: vec![Path::new("Val")],
            distinct: false,
        }
        .join(
            LogicalPlan::scan("title").project(&["Cont"]),
            Predicate::True,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 9); // cross product via true predicate
    }

    #[test]
    fn union_difference() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let u = LogicalPlan::scan("book").union(LogicalPlan::scan("phdthesis"));
        assert_eq!(ev.eval(&u).unwrap().len(), 3);
        let d = LogicalPlan::scan("book").difference(LogicalPlan::scan("book"));
        assert_eq!(ev.eval(&d).unwrap().len(), 0);
        // arity mismatch errors
        let bad = LogicalPlan::scan("book").union(LogicalPlan::scan("book").project(&["ID"]));
        assert!(ev.eval(&bad).is_err());
    }

    #[test]
    fn group_by_and_unnest_roundtrip() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let g = LogicalPlan::GroupBy {
            input: Box::new(LogicalPlan::scan("author").project(&["Tag", "Val"])),
            keys: vec![Path::new("Tag")],
            nest_as: "vals".into(),
        };
        let r = ev.eval(&g).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples[0].get(1).as_coll().unwrap().len(), 4);
        let u = LogicalPlan::Unnest {
            input: Box::new(g),
            attr: Path::new("vals"),
        };
        let r = ev.eval(&u).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema.arity(), 2);
    }

    #[test]
    fn nested_select_reduces() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // nest authors under books, then select books having author "Suciu";
        // the nested collection is reduced to the matching author.
        let p = LogicalPlan::scan("book")
            .struct_nest_join(
                LogicalPlan::scan("author"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "authors",
            )
            .select(Predicate::eq("authors.Val", Value::str("Suciu")));
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        let auth = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(auth.len(), 1);
        assert_eq!(auth.tuples[0].get(2).as_str(), Some("Suciu"));
    }

    #[test]
    fn map_struct_join_into_nested() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // nest books under library, then struct-join authors inside nest
        let p = LogicalPlan::scan("library")
            .struct_nest_join(
                LogicalPlan::scan("book"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "books",
            )
            .struct_join(
                LogicalPlan::scan("author"),
                "books.ID",
                "ID",
                Axis::Child,
                JoinKind::Inner,
            );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        // nested books collection now pairs each book with its authors
        let books = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(books.len(), 3); // (book1,a1),(book1,a2),(book2,a3)
    }

    #[test]
    fn sort_by_value() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("author").sort(&["Val"]);
        let r = ev.eval(&p).unwrap();
        let vals: Vec<_> = r
            .tuples
            .iter()
            .map(|t| t.get(2).as_str().unwrap().to_string())
            .collect();
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn navigate_from_ids() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode: NavMode::Flat,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.schema.index_of("a_Val").is_some());
        // without a document the operator errors
        let ev2 = Evaluator::new(&cat);
        assert!(matches!(ev2.eval(&p), Err(EvalError::NeedsDocument(_))));
    }

    /// Descent by posting reaches exactly the nodes a walk of the subtree
    /// (or of the children) comparing label strings reaches, in document
    /// order, and `any` agrees — over XMark and over `a` nesting itself
    /// 60 deep.
    #[test]
    fn descent_by_posting_equals_the_subtree_walk() {
        let deep = "<a><b>k</b>".repeat(60) + &"</a>".repeat(60);
        let deep = xmltree::parser::parse_document(&deep).unwrap();
        let steps = [
            (Axis::Descendant, "keyword"),
            (Axis::Descendant, "@id"),
            (Axis::Descendant, "*"),
            (Axis::Descendant, "a"),
            (Axis::Descendant, "b"),
            (Axis::Descendant, "nope"),
            (Axis::Child, "name"),
            (Axis::Child, "@id"),
            (Axis::Child, "*"),
            (Axis::Child, "b"),
            (Axis::Child, "nope"),
        ];
        for doc in [xmltree::generate::xmark(5, 7), deep] {
            let mut total = 0;
            for (axis, label) in steps {
                let reach = Reach::bind(&doc, axis, label);
                let matches = |m: NodeId| match label.strip_prefix('@') {
                    Some(a) => doc.kind(m) == NodeKind::Attribute && doc.label(m) == a,
                    None => {
                        doc.kind(m) == NodeKind::Element && (label == "*" || doc.label(m) == label)
                    }
                };
                let mut reached = 0;
                for n in doc.all_nodes() {
                    let want: Vec<NodeId> = match axis {
                        Axis::Descendant => doc.descendants(n).filter(|&m| matches(m)).collect(),
                        Axis::Child => doc
                            .children(n)
                            .iter()
                            .copied()
                            .filter(|&m| matches(m))
                            .collect(),
                    };
                    let (sid, mut got) = (doc.structural_id(n), Vec::new());
                    reach.collect(&doc, sid, &mut got);
                    assert_eq!(got, want, "{n}{axis}{label}");
                    assert_eq!(reach.any(&doc, sid), !want.is_empty(), "{n}{axis}{label}");
                    reached += got.len();
                }
                assert!(reached > 0 || label != "*", "{axis}{label}");
                total += reached;
            }
            // not vacuous: every node is reached many times over
            assert!(total > 4 * doc.len(), "{total} of {}", doc.len());
        }
    }

    /// `Navigate` builds only the `_Val`/`_Cont` columns some ancestor
    /// reads: a `Π` keeping one navigation's `_Cont` gets the node's
    /// content there, and the operator leaves what it is not asked for ⊥.
    #[test]
    fn navigate_builds_only_demanded_columns() {
        let (doc, cat) = setup();
        let nav = |input, label: &str, prefix: &str| LogicalPlan::Navigate {
            input: Box::new(input),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: label.into(),
            as_prefix: prefix.into(),
            mode: NavMode::Flat,
        };
        let both = nav(nav(LogicalPlan::scan("book"), "author", "a"), "title", "t");
        let ev = Evaluator::with_document(&cat, &doc);
        let kept = ev
            .eval(&both.clone().project(&["a_ID", "a_Cont", "t_ID"]))
            .unwrap();
        assert_eq!(kept.len(), 3);
        for t in &kept.tuples {
            let a = NodeId(t.get(0).as_id().unwrap().pre);
            assert_eq!(t.get(1).as_str(), Some(doc.content(a).as_str()));
        }
        let all = ev.eval(&both).unwrap();
        assert_eq!(all.len(), 3);
        // a column only a predicate reads is built
        let authors = nav(LogicalPlan::scan("book"), "author", "a");
        let sel = authors
            .select(Predicate::eq("a_Val", Value::str("Suciu")))
            .project(&["a_ID"]);
        assert_eq!(ev.eval(&sel).unwrap().len(), 1);
        let titles = LogicalPlan::scan("title").project(&["Val"]).rename(&["v"]);
        let join = nav(LogicalPlan::scan("book"), "title", "t")
            .join(
                titles,
                Predicate::col_cmp("t_Cont", CmpOp::Ne, "v"),
                JoinKind::Semi,
            )
            .project(&["t_ID"]);
        assert_eq!(ev.eval(&join).unwrap().len(), 2);
        let schema = &cat.get("book").unwrap().schema;
        for (want, val, cont) in [
            (ColumnDemand::default(), true, true),
            (
                ColumnDemand {
                    val: true,
                    ..Default::default()
                },
                false,
                true,
            ),
            (
                ColumnDemand {
                    cont: true,
                    ..Default::default()
                },
                true,
                false,
            ),
        ] {
            let op = Unary::navigate(
                schema,
                Some(&doc),
                &Path::new("ID"),
                Axis::Child,
                "author",
                "a",
                NavMode::Flat,
                want,
            )
            .unwrap();
            let out = (op.apply)(cat.get("book").unwrap().tuples.clone());
            assert_eq!(out.len(), 3);
            for t in &out {
                let a = NodeId(t.get(4).as_id().unwrap().pre);
                assert_eq!(t.get(5).is_null(), val);
                assert_eq!(t.get(6).is_null(), cont);
                if !cont {
                    assert_eq!(t.get(6).as_str(), Some(doc.content(a).as_str()));
                }
                if !val {
                    assert_eq!(t.get(5).as_str(), Some(doc.value(a).as_str()));
                }
            }
        }
    }

    #[test]
    fn derive_ancestor_ids() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        let p = LogicalPlan::DeriveAncestorId {
            input: Box::new(LogicalPlan::scan("author")),
            attr: Path::new("ID"),
            levels: 1,
            as_name: "parentID".into(),
        };
        let r = ev.eval(&p).unwrap();
        for t in &r.tuples {
            let parent = t.get(4).as_id().unwrap();
            let child = t.get(0).as_id().unwrap();
            assert!(parent.is_parent_of(child));
        }
    }

    #[test]
    fn nest_all_packs_everything() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::NestAll {
            input: Box::new(LogicalPlan::scan("author")),
            as_name: "A1".into(),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples[0].get(0).as_coll().unwrap().len(), 4);
    }

    #[test]
    fn rename_and_cast_schema() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book").rename(&["a", "b", "c", "d"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.schema.to_string(), "(a, b, c, d)");
        // arity mismatch errors
        let bad = LogicalPlan::scan("book").rename(&["x"]);
        assert!(matches!(ev.eval(&bad), Err(EvalError::TypeError(_))));
        // deep cast replaces nested names when shapes agree
        let nested = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "authors",
        );
        let target = {
            let mut s = Schema::atoms(&["i", "t", "v", "c"]);
            s.fields.push(Field::nested(
                "people",
                Schema::atoms(&["pi", "pt", "pv", "pc"]),
            ));
            s
        };
        let cast = LogicalPlan::CastSchema {
            input: Box::new(nested.clone()),
            schema: target.clone(),
        };
        let r = ev.eval(&cast).unwrap();
        assert_eq!(r.schema, target);
        // shape mismatch errors
        let bad = LogicalPlan::CastSchema {
            input: Box::new(nested),
            schema: Schema::atoms(&["only", "four", "flat", "cols", "x"]),
        };
        assert!(ev.eval(&bad).is_err());
    }

    #[test]
    fn fetch_and_navigate_modes() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        // Fetch the value/content/tag of books from their IDs
        let p = LogicalPlan::Fetch {
            input: Box::new(LogicalPlan::scan("book").project(&["ID"])),
            id_attr: Path::new("ID"),
            what: crate::plan::FetchWhat::Tag,
            as_name: "tag".into(),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.tuples[0].get(1).as_str(), Some("book"));
        // Navigate Exists keeps only books with authors, adds no columns
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode: NavMode::Exists,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema.arity(), 4);
        // Navigate Outer null-pads (books → @year on the second book)
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "@year".into(),
            as_prefix: "y".into(),
            mode: NavMode::Outer,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.tuples[1].get(4).is_null());
    }

    #[test]
    fn twig_join_matches_cascade_exactly() {
        let (_doc, cat) = setup();
        // library ⋈≺≺ book ⋈≺ author ⋈≺ title as one twig
        let cascade = LogicalPlan::scan("library")
            .rename(&["l_id", "l_t", "l_v", "l_c"])
            .struct_join(
                LogicalPlan::scan("book").rename(&["b_id", "b_t", "b_v", "b_c"]),
                "l_id",
                "b_id",
                Axis::Descendant,
                JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
                JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("title").rename(&["t_id", "t_t", "t_v", "t_c"]),
                "b_id",
                "t_id",
                Axis::Child,
                JoinKind::Inner,
            );
        let fused = crate::twig::fuse_struct_joins(&cascade);
        assert!(matches!(fused, LogicalPlan::TwigJoin { .. }));
        let ev = Evaluator::new(&cat);
        let via_twig = ev.eval(&fused).unwrap();
        let via_cascade = ev.eval(&cascade).unwrap();
        assert_eq!(via_twig, via_cascade, "tuples and order must agree");
        assert_eq!(via_twig.len(), 3); // 2 authors + 1 author, each with a title
        let LogicalPlan::TwigJoin { root, steps } = &fused else {
            unreachable!("fused above")
        };
        let desugared = crate::twig::twig_to_cascade(root, steps);
        assert_eq!(ev.eval(&desugared).unwrap(), via_twig);
    }

    #[test]
    fn twig_join_falls_back_on_nested_attrs() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // left attribute inside a nested collection: the holistic path
        // cannot run, the arm must transparently take the cascade route
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
        let direct = nested.struct_join(
            LogicalPlan::scan("author"),
            "books.ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        assert_eq!(ev.eval(&twig).unwrap(), ev.eval(&direct).unwrap());
    }

    #[test]
    fn twig_join_unknown_attr_errors() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let twig = LogicalPlan::scan("book").twig_join(vec![TwigStep::new(
            LogicalPlan::scan("author"),
            "Nope",
            "ID",
            Axis::Child,
        )]);
        assert!(matches!(
            ev.eval(&twig),
            Err(EvalError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn xml_template_operator() {
        use crate::xmlgen::Template;
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::XmlTemplate {
            input: Box::new(LogicalPlan::scan("title").project(&["Val"])),
            templ: Template::elem("t", vec![Template::attr("Val")]),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuples[0].get(0).as_str(), Some("<t>Data on the Web</t>"));
    }
}
