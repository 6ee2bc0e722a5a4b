//! Predicates bound to schemas: attribute paths are resolved to index
//! paths once, so an unknown attribute is an error *before* any tuple is
//! read, and evaluation over a tuple is infallible and allocation-free.
//!
//! A [`BoundPred`] ranges over a *pair* of tuples — the two sides of a
//! join — so a join never has to concatenate a candidate pair just to
//! test it. A selection is the one-sided case: every column resolves to
//! the left tuple and the right one is empty.

use crate::eval::EvalError;
use crate::plan::{CmpOp, Operand, Predicate};
use crate::value::{Schema, Tuple, Value};

/// A column of one side of a tuple pair, as an index path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColRef {
    pub right: bool,
    pub idx: Vec<usize>,
}

impl ColRef {
    /// Resolve `p` against the concatenated schema of a pair whose left
    /// side has `split` top-level fields — the same lookup (left side
    /// wins a name clash) a join over the concatenated tuple would do.
    pub(crate) fn resolve(
        p: &crate::plan::Path,
        schema: &Schema,
        split: usize,
    ) -> Result<ColRef, EvalError> {
        let mut idx = schema
            .resolve(p.as_str())
            .ok_or_else(|| EvalError::UnknownAttribute(p.as_str().to_string()))?;
        let right = idx[0] >= split;
        if right {
            idx[0] -= split;
        }
        Ok(ColRef { right, idx })
    }

    fn any(&self, l: &Tuple, r: &Tuple, f: &mut impl FnMut(&Value) -> bool) -> bool {
        any_reachable(if self.right { r } else { l }, &self.idx, f)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundOperand {
    Col(ColRef),
    Const(Value),
}

impl BoundOperand {
    fn bind(o: &Operand, schema: &Schema, split: usize) -> Result<BoundOperand, EvalError> {
        Ok(match o {
            Operand::Col(p) => BoundOperand::Col(ColRef::resolve(p, schema, split)?),
            Operand::Const(v) => BoundOperand::Const(v.clone()),
        })
    }

    fn any(&self, l: &Tuple, r: &Tuple, f: &mut impl FnMut(&Value) -> bool) -> bool {
        match self {
            BoundOperand::Col(c) => c.any(l, r, f),
            BoundOperand::Const(v) => f(v),
        }
    }
}

/// A [`Predicate`] with its columns resolved against a pair of schemas.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundPred {
    True,
    Cmp(BoundOperand, CmpOp, BoundOperand),
    IsNull(ColRef),
    NotNull(ColRef),
    And(Box<BoundPred>, Box<BoundPred>),
    Or(Box<BoundPred>, Box<BoundPred>),
    Not(Box<BoundPred>),
}

/// The right-hand tuple of a one-sided (selection) predicate.
pub(crate) static NO_TUPLE: Tuple = Tuple(Vec::new());

impl BoundPred {
    /// Bind `pred` to the concatenated `schema` of a tuple pair whose
    /// left side has `split` top-level fields (`split = arity` for a
    /// selection). Fails on the first attribute the schema does not have.
    pub(crate) fn bind(
        pred: &Predicate,
        schema: &Schema,
        split: usize,
    ) -> Result<BoundPred, EvalError> {
        let sub = |p: &Predicate| BoundPred::bind(p, schema, split).map(Box::new);
        Ok(match pred {
            Predicate::True => BoundPred::True,
            Predicate::Cmp(l, op, r) => BoundPred::Cmp(
                BoundOperand::bind(l, schema, split)?,
                *op,
                BoundOperand::bind(r, schema, split)?,
            ),
            Predicate::IsNull(p) => BoundPred::IsNull(ColRef::resolve(p, schema, split)?),
            Predicate::NotNull(p) => BoundPred::NotNull(ColRef::resolve(p, schema, split)?),
            Predicate::And(a, b) => BoundPred::And(sub(a)?, sub(b)?),
            Predicate::Or(a, b) => BoundPred::Or(sub(a)?, sub(b)?),
            Predicate::Not(a) => BoundPred::Not(sub(a)?),
        })
    }

    /// Does the predicate hold on the pair `(l, r)`? Column paths that
    /// cross nested collections are existential: a comparison holds if
    /// *some* pair of reachable values satisfies it.
    pub(crate) fn holds(&self, l: &Tuple, r: &Tuple) -> bool {
        match self {
            BoundPred::True => true,
            BoundPred::And(a, b) => a.holds(l, r) && b.holds(l, r),
            BoundPred::Or(a, b) => a.holds(l, r) || b.holds(l, r),
            BoundPred::Not(a) => !a.holds(l, r),
            // vacuously null when nothing is reachable
            BoundPred::IsNull(c) => !c.any(l, r, &mut |v| !v.is_null()),
            BoundPred::NotNull(c) => c.any(l, r, &mut |v| !v.is_null()),
            BoundPred::Cmp(a, op, b) => {
                a.any(l, r, &mut |x| b.any(l, r, &mut |y| cmp_values(x, *op, y)))
            }
        }
    }
}

/// Does `f` hold on some atomic value reachable at an index path,
/// descending through nested collections (existential `map` semantics)?
/// Visits the values in place and stops at the first hit. A path that
/// runs into an atom before it ends reaches `⊥`.
pub(crate) fn any_reachable(t: &Tuple, idx: &[usize], f: &mut impl FnMut(&Value) -> bool) -> bool {
    fn rec(v: &Value, rest: &[usize], f: &mut impl FnMut(&Value) -> bool) -> bool {
        match (v, rest) {
            (v, []) => f(v),
            (Value::Coll(c), [i, rest @ ..]) => c.tuples.iter().any(|t| rec(t.get(*i), rest, f)),
            _ => f(&Value::Null),
        }
    }
    rec(t.get(idx[0]), &idx[1..], f)
}

pub(crate) fn cmp_values(a: &Value, op: CmpOp, b: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Parent => match (a.as_id(), b.as_id()) {
            (Some(x), Some(y)) => x.is_parent_of(y),
            _ => false,
        },
        CmpOp::Ancestor => match (a.as_id(), b.as_id()) {
            (Some(x), Some(y)) => x.is_ancestor_of(y),
            _ => false,
        },
        CmpOp::Contains => match (a, b) {
            (Value::Str(x), Value::Str(y)) => x.contains(y.as_ref()),
            _ => false,
        },
        _ => match a.compare(b) {
            None => false,
            Some(ord) => match op {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
                CmpOp::Parent | CmpOp::Ancestor | CmpOp::Contains => unreachable!(),
            },
        },
    }
}
