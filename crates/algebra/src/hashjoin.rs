//! The value-join kernel: one build/probe table for every `Join` the
//! engine runs.
//!
//! The algorithm is read off the predicate. If it has an equality
//! conjunct `l.a = r.b` spanning both inputs ([`Predicate::equi_conjuncts`]),
//! the right side is hashed once on a *normalised* key of `b`
//! ([`join_key`]) and each left tuple probes with the keys of `a`. The
//! table only **narrows** the candidates: the whole bound predicate is
//! then evaluated on every candidate pair, so key collisions, further
//! conjuncts (equalities or not) and `Value::compare`'s non-transitive
//! corners cost a wasted test, never a wrong row. Without such a
//! conjunct (`<`, `contains`, `∨`, `¬`, or an equality within one side)
//! the nested loop runs the same bound predicate on every pair.
//!
//! Both algorithms produce, per left tuple, the matching right indices
//! in ascending order — left-major output, the nested loop's order — and
//! all five [`JoinKind`]s are assembled from those lists by
//! [`assemble_join`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use obs::Meter;

use crate::eval::EvalError;
use crate::plan::{JoinKind, Predicate};
use crate::pred::{any_reachable, BoundPred, ColRef};
use crate::value::{Collection, Field, Schema, Tuple, Value};

/// A value's equality class under [`Value::compare`], coarsened to
/// something hashable: whenever `a.compare(b) == Some(Equal)`, `a` and
/// `b` have the same key. The converse does not hold (`Int` keys go
/// through `f64`, so `2^53` and `2^53 + 1` share one) — the predicate
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey<'a> {
    /// `Int`s and numeric-looking strings, by the bits of their `f64`
    /// (`-0.0` folded into `0.0`).
    Num(u64),
    /// Every other string, by content.
    Str(&'a str),
    /// IDs, by pre rank.
    Id(u32),
}

/// The join key of a value; `None` for values that equal nothing (`⊥`,
/// collections, strings that parse as `NaN`).
pub(crate) fn join_key(v: &Value) -> Option<JoinKey<'_>> {
    fn num(x: f64) -> Option<JoinKey<'static>> {
        let x = if x == 0.0 { 0.0 } else { x };
        (!x.is_nan()).then(|| JoinKey::Num(x.to_bits()))
    }
    match v {
        Value::Int(i) => num(*i as f64),
        Value::Str(s) => match s.trim().parse::<f64>() {
            Ok(x) => num(x),
            Err(_) => Some(JoinKey::Str(s)),
        },
        Value::Id(id) => Some(JoinKey::Id(id.pre)),
        Value::Null | Value::Coll(_) => None,
    }
}

fn key_hash(v: &Value) -> Option<u64> {
    join_key(v).map(|k| {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    })
}

/// Call `f` with the hash of every keyed value reachable at `idx` (one
/// per entry of a nested collection the path crosses).
fn each_key_hash(t: &Tuple, idx: &[usize], f: &mut impl FnMut(u64)) {
    any_reachable(t, idx, &mut |v| {
        if let Some(h) = key_hash(v) {
            f(h);
        }
        false
    });
}

/// The hashed equality conjunct: its column on either side, and the right
/// tuples' indices by the key hash of its right-side column, each list
/// ascending.
#[derive(Debug)]
struct HashSide {
    probe_col: Vec<usize>,
    build_col: Vec<usize>,
    slots: HashMap<u64, Vec<usize>>,
}

/// A value join's predicate bound to its input schemas, plus — when the
/// predicate is hashable — the table over the right input.
#[derive(Debug)]
pub(crate) struct JoinTable {
    pred: BoundPred,
    hash: Option<HashSide>,
    right_arity: usize,
}

impl JoinTable {
    /// Bind `pred` to `left ++ right` (an unknown attribute fails here)
    /// and pick the equality conjunct across the two sides to hash on, if
    /// it has one. The table is empty until [`JoinTable::fill`].
    pub(crate) fn bind(
        pred: &Predicate,
        left: &Schema,
        right: &Schema,
    ) -> Result<JoinTable, EvalError> {
        let schema = left.concat(right);
        let split = left.arity();
        let bound = BoundPred::bind(pred, &schema, split)?;
        let hash = pred.equi_conjuncts().into_iter().find_map(|(a, b)| {
            // both resolve: `bind` just did
            let a = ColRef::resolve(a, &schema, split).ok()?;
            let b = ColRef::resolve(b, &schema, split).ok()?;
            let (probe_col, build_col) = match (a.right, b.right) {
                (false, true) => (a.idx, b.idx),
                (true, false) => (b.idx, a.idx),
                _ => return None,
            };
            Some(HashSide {
                probe_col,
                build_col,
                slots: HashMap::new(),
            })
        });
        Ok(JoinTable {
            pred: bound,
            hash,
            right_arity: right.arity(),
        })
    }

    /// Build the table over `right_tuples`. The build side is always the
    /// right one: it is the side the cursor tree holds whole.
    pub(crate) fn fill(&mut self, right_tuples: &[Tuple], meter: &mut dyn Meter) {
        let Some(hash) = &mut self.hash else {
            return;
        };
        let mut inserted = 0u64;
        for (ri, rt) in right_tuples.iter().enumerate() {
            each_key_hash(rt, &hash.build_col, &mut |h| {
                inserted += 1;
                let slot = hash.slots.entry(h).or_default();
                if slot.last() != Some(&ri) {
                    slot.push(ri);
                }
            });
        }
        meter.comparisons(inserted);
    }

    /// Per left tuple, the indices of the right tuples it joins with,
    /// ascending. `right` must be the slice the table was built over.
    pub(crate) fn probe(
        &self,
        left: &[Tuple],
        right: &[Tuple],
        meter: &mut dyn Meter,
    ) -> Vec<Vec<usize>> {
        let Some(hash) = &self.hash else {
            return nested_loop_matches(&self.pred, left, right, meter);
        };
        let mut tests = 0u64;
        let mut cands: Vec<usize> = Vec::new();
        let matches = left
            .iter()
            .map(|lt| {
                cands.clear();
                let mut keys = 0u64;
                each_key_hash(lt, &hash.probe_col, &mut |h| {
                    keys += 1;
                    if let Some(slot) = hash.slots.get(&h) {
                        cands.extend_from_slice(slot);
                    }
                });
                if keys > 1 {
                    // several keys (a multi-valued column) may reach the
                    // same right tuple, and not in index order
                    cands.sort_unstable();
                    cands.dedup();
                }
                tests += keys + cands.len() as u64;
                cands
                    .iter()
                    .copied()
                    .filter(|&ri| self.pred.holds(lt, &right[ri]))
                    .collect()
            })
            .collect();
        meter.comparisons(tests);
        matches
    }

    /// Probe and assemble: the output tuples of joining `left` with the
    /// right side the table was built over.
    pub(crate) fn join(
        &self,
        left: &[Tuple],
        right: &[Tuple],
        kind: JoinKind,
        meter: &mut dyn Meter,
    ) -> Vec<Tuple> {
        let matches = self.probe(left, right, meter);
        assemble_join(left, right, self.right_arity, &matches, kind)
    }
}

/// The reference algorithm, and the only one for predicates without a
/// hashable conjunct: test every pair.
pub(crate) fn nested_loop_matches(
    pred: &BoundPred,
    left: &[Tuple],
    right: &[Tuple],
    meter: &mut dyn Meter,
) -> Vec<Vec<usize>> {
    meter.comparisons((left.len() * right.len()) as u64);
    left.iter()
        .map(|lt| {
            (0..right.len())
                .filter(|&ri| pred.holds(lt, &right[ri]))
                .collect()
        })
        .collect()
}

/// Output schema of a (value or structural) join of the given kind.
pub(crate) fn join_schema(
    left: &Schema,
    right: &Schema,
    kind: JoinKind,
    nest_as: Option<&str>,
) -> Schema {
    match kind {
        JoinKind::Inner | JoinKind::LeftOuter => left.concat(right),
        JoinKind::Semi => left.clone(),
        JoinKind::Nest | JoinKind::NestOuter => left.concat(&Schema::new(vec![Field::nested(
            nest_as.unwrap_or("s"),
            right.clone(),
        )])),
    }
}

/// Assemble join output from per-left match lists, left-major.
pub(crate) fn assemble_join(
    left: &[Tuple],
    right: &[Tuple],
    right_arity: usize,
    matches: &[Vec<usize>],
    kind: JoinKind,
) -> Vec<Tuple> {
    let mut tuples = Vec::new();
    for (lt, ms) in left.iter().zip(matches) {
        match kind {
            JoinKind::Inner => tuples.extend(ms.iter().map(|&ri| lt.concat(&right[ri]))),
            JoinKind::Semi => {
                if !ms.is_empty() {
                    tuples.push(lt.clone());
                }
            }
            JoinKind::LeftOuter if ms.is_empty() => {
                tuples.push(lt.concat(&Tuple::nulls(right_arity)));
            }
            JoinKind::LeftOuter => tuples.extend(ms.iter().map(|&ri| lt.concat(&right[ri]))),
            JoinKind::Nest if ms.is_empty() => {}
            JoinKind::Nest | JoinKind::NestOuter => {
                let nested = ms.iter().map(|&ri| right[ri].clone()).collect();
                let mut t = lt.clone();
                t.0.push(Value::Coll(Collection::list(nested)));
                tuples.push(t);
            }
        }
    }
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{build_cursor, CursorConfig};
    use crate::eval::{Catalog, Evaluator, Relation};
    use crate::plan::{CmpOp, LogicalPlan};
    use obs::{ExecMetrics, NoMeter};
    use proptest::prelude::*;
    use xmltree::StructuralId;

    fn build(
        pred: &Predicate,
        l: &Relation,
        r: &Relation,
        meter: &mut dyn Meter,
    ) -> Result<JoinTable, EvalError> {
        let mut table = JoinTable::bind(pred, &l.schema, &r.schema)?;
        table.fill(&r.tuples, meter);
        Ok(table)
    }

    const KINDS: [JoinKind; 5] = [
        JoinKind::Inner,
        JoinKind::Semi,
        JoinKind::LeftOuter,
        JoinKind::Nest,
        JoinKind::NestOuter,
    ];

    const TWO_53: i64 = 1 << 53;

    /// Values chosen to sit on every seam of `Value::compare`: `⊥`,
    /// `Int` against numeric-looking strings in several spellings, the
    /// `f64` precision edge where `Int = Str` stops being transitive,
    /// `NaN`, padded non-numeric strings, IDs equal by `pre` alone, and
    /// a collection where an atom is expected.
    fn awkward() -> Vec<Value> {
        let mut pool = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Int(TWO_53 - 1),
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Id(StructuralId::new(1, 9, 1)),
            Value::Id(StructuralId::new(1, 3, 2)),
            Value::Id(StructuralId::new(2, 2, 2)),
            Value::Coll(Collection::list(vec![Tuple::new(vec![Value::Int(1)])])),
        ];
        for s in [
            "1",
            " 1",
            "1.0",
            "1e0",
            "-0",
            "0",
            "2",
            "NaN",
            "inf",
            "Infinity",
            "abc",
            "abc ",
            "",
            "9007199254740992",
            "9007199254740993",
        ] {
            pool.push(Value::str(s));
        }
        pool
    }

    /// Picks for one tuple: `K`, the `(X, Y)` entries of `N`, `C`.
    type Row = (usize, Vec<(usize, i64)>, i64);

    /// `(K, N(X, Y), C)`: an atomic key, a nested collection with a
    /// multi-valued (possibly empty) key column `X`, an integer `C`.
    fn side(prefix: &str, rows: &[Row]) -> Relation {
        let pool = awkward();
        let n = |s: &str| format!("{prefix}{s}");
        let schema = Schema::new(vec![
            Field::atom(n("K")),
            Field::nested(n("N"), Schema::atoms(&[&n("X"), &n("Y")])),
            Field::atom(n("C")),
        ]);
        let tuples = rows
            .iter()
            .map(|(k, nested, c)| {
                let nested = nested
                    .iter()
                    .map(|(x, y)| Tuple::new(vec![pool[x % pool.len()].clone(), Value::Int(*y)]))
                    .collect();
                Tuple::new(vec![
                    pool[k % pool.len()].clone(),
                    Value::Coll(Collection::list(nested)),
                    Value::Int(*c),
                ])
            })
            .collect();
        Relation::new(schema, tuples)
    }

    fn eq(l: &str, r: &str) -> Predicate {
        Predicate::col_cmp(l, CmpOp::Eq, r)
    }

    /// (predicate, whether the kernel must hash it)
    fn predicates() -> Vec<(Predicate, bool)> {
        let lt = Predicate::col_cmp("lN.lY", CmpOp::Lt, "rC");
        vec![
            (eq("lK", "rK"), true),
            (eq("rK", "lK"), true),
            (eq("lN.lX", "rK"), true),
            (eq("lK", "rN.rX"), true),
            (eq("lN.lX", "rN.rX"), true),
            (eq("lK", "rK").and(lt.clone()), true),
            (lt.clone().and(eq("rN.rX", "lN.lX")), true),
            // the first equality is within one side: hash on the second
            (eq("lK", "lC").and(eq("lC", "rC")), true),
            (lt.clone(), false),
            (eq("lK", "rK").or(lt), false),
            (Predicate::Not(Box::new(eq("lK", "rK"))), false),
            (eq("lK", "lC"), false),
            (Predicate::True, false),
        ]
    }

    fn rows() -> impl Strategy<Value = Vec<Row>> {
        prop::collection::vec(
            (
                0usize..64,
                prop::collection::vec((0usize..64, 0i64..4), 0..3),
                0i64..4,
            ),
            0..7,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernel — and the executor on top of it, at every batch
        /// size — return exactly the nested loop's tuples in the nested
        /// loop's order, for every join kind, on relations full of values
        /// that `Value::compare` treats specially.
        #[test]
        fn hash_join_matches_nested_loop(l in rows(), r in rows()) {
            let (l, r) = (side("l", &l), side("r", &r));
            let mut cat = Catalog::new();
            cat.insert("l", l.clone());
            cat.insert("r", r.clone());
            let ev = Evaluator::new(&cat);
            for (pred, hashable) in predicates() {
                let table = build(&pred, &l, &r, &mut NoMeter).unwrap();
                prop_assert_eq!(table.hash.is_some(), hashable, "{}", pred);
                let reference =
                    nested_loop_matches(&table.pred, &l.tuples, &r.tuples, &mut NoMeter);
                prop_assert_eq!(
                    &table.probe(&l.tuples, &r.tuples, &mut NoMeter),
                    &reference,
                    "{}", pred
                );
                for kind in KINDS {
                    let want = Relation::new(
                        join_schema(&l.schema, &r.schema, kind, None),
                        assemble_join(&l.tuples, &r.tuples, r.schema.arity(), &reference, kind),
                    );
                    let plan =
                        LogicalPlan::scan("l").join(LogicalPlan::scan("r"), pred.clone(), kind);
                    prop_assert_eq!(&ev.eval(&plan).unwrap(), &want, "{} {}", kind, pred);
                    for batch_size in [1, 2, l.len().max(2) - 1, l.len() + 1, 1024] {
                        let cfg = CursorConfig { batch_size, ..Default::default() };
                        let got = build_cursor(&plan, &cat, None, &cfg).unwrap().collect().unwrap();
                        prop_assert_eq!(&got, &want, "{} {} batch {}", kind, pred, batch_size);
                    }
                }
                // the inner join is the selection over the product
                let product = LogicalPlan::scan("l").product(LogicalPlan::scan("r")).select(pred.clone());
                let inner = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), pred.clone(), JoinKind::Inner);
                prop_assert_eq!(ev.eval(&inner).unwrap(), ev.eval(&product).unwrap(), "{}", pred);
            }
        }
    }

    #[test]
    fn join_keys_follow_value_compare() {
        use std::cmp::Ordering::Equal;
        let pool = awkward();
        // soundness, exhaustively over the pool: equal values share a key
        for a in &pool {
            for b in &pool {
                if a.compare(b) == Some(Equal) {
                    let (ka, kb) = (join_key(a), join_key(b));
                    assert!(
                        ka.is_some() && ka == kb,
                        "{a} = {b} but keys {ka:?} / {kb:?}"
                    );
                }
            }
        }
        let num = |v: &Value| match join_key(v) {
            Some(JoinKey::Num(bits)) => f64::from_bits(bits),
            other => panic!("{v}: {other:?}"),
        };
        for one in [
            Value::Int(1),
            Value::str("1"),
            Value::str(" 1"),
            Value::str("1.0"),
        ] {
            assert_eq!(num(&one), 1.0);
        }
        assert_eq!(num(&Value::str("-0")).to_bits(), 0.0f64.to_bits());
        assert_eq!(num(&Value::str("inf")), num(&Value::str("Infinity")));
        // the precision edge: one key, and the predicate tells them apart
        assert_eq!(num(&Value::Int(TWO_53)), num(&Value::Int(TWO_53 + 1)));
        assert_ne!(
            Value::Int(TWO_53).compare(&Value::Int(TWO_53 + 1)),
            Some(Equal)
        );
        assert_eq!(join_key(&Value::str("abc ")), Some(JoinKey::Str("abc ")));
        assert_eq!(
            join_key(&Value::Id(StructuralId::new(7, 1, 1))),
            Some(JoinKey::Id(7))
        );
        for none in [Value::Null, Value::str("NaN"), pool[10].clone()] {
            assert_eq!(join_key(&none), None, "{none}");
        }
    }

    #[test]
    fn hash_join_work_is_linear_and_nested_loop_quadratic() {
        let n = 200usize;
        let rows: Vec<Row> = (0..n).map(|i| (i, vec![], 0)).collect();
        // distinct keys: Int(i) spelled through the pool would repeat, so
        // build the key column directly
        let mut l = side("l", &rows);
        let mut r = side("r", &rows);
        for (i, (lt, rt)) in l.tuples.iter_mut().zip(&mut r.tuples).enumerate() {
            lt.0[0] = Value::Int(i as i64);
            rt.0[0] = Value::str(format!("{i}.0"));
        }
        let run = |pred: &Predicate| {
            let mut m = ExecMetrics::default();
            let t = build(pred, &l, &r, &mut m).unwrap();
            let out = t.join(&l.tuples, &r.tuples, JoinKind::Inner, &mut m);
            (out.len(), m.comparisons)
        };
        // build n + probe n + one test per candidate
        assert_eq!(run(&eq("lK", "rK")), (n, 3 * n as u64));
        assert_eq!(
            run(
                &Predicate::col_cmp("lK", CmpOp::Le, "rK").and(Predicate::col_cmp(
                    "lK",
                    CmpOp::Ge,
                    "rK"
                ))
            ),
            (n, (n * n) as u64)
        );
    }

    #[test]
    fn unknown_attribute_fails_the_build() {
        let (l, r) = (side("l", &[]), side("r", &[]));
        let err = build(&eq("lK", "nope"), &l, &r, &mut NoMeter);
        assert!(matches!(err, Err(EvalError::UnknownAttribute(a)) if a == "nope"));
    }
}
