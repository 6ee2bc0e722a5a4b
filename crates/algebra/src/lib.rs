//! # algebra — a nested relational algebra for XML processing
//!
//! Implements the logical algebra of §1.2.2 of the paper and the execution
//! engine of §1.2.3. The data model is nested relational: tuples whose
//! attributes are atomic values or collections (set / list / bag) of
//! homogeneous tuples, with tuple and collection constructors alternating.
//!
//! Operators: `Scan`, selections `σ`, projections `π`/`π°`, product `×`,
//! union `∪`, difference `\`, value joins (inner / semi / left-outer),
//! *structural* joins `⋈≺` and `⋈≺≺` with semijoin, outerjoin, **nest**
//! join and nest-outerjoin variants (Definitions 1.2.1–1.2.2), group-by,
//! unnest, the `map` meta-operator extending unary and binary operators to
//! nested attributes, and the `xml` tagging operator building serialized XML
//! from nested tuples.
//!
//! The physical layer implements the `StackTreeDesc` / `StackTreeAnc`
//! structural-join algorithms and a holistic `TwigStack`-style twig join
//! evaluating whole tree patterns in one multi-way merge — one kernel
//! each, over one packed ID-stream layout ([`IdColumns`]) — a naive
//! nested-loop structural join kept as their oracle and ablation
//! baseline, a hash build/probe kernel for value joins with an equality
//! conjunct, and order descriptors tracking which attribute the output of
//! each operator is sorted on.

pub mod cursor;
pub mod eval;
mod hashjoin;
pub mod order;
pub mod plan;
mod pred;
pub mod simd;
pub mod stacktree;
pub mod twig;
pub mod value;
pub mod xmlgen;

pub use cursor::{
    build_cursor, is_pipeline_breaker, pipeline_breakers, Cursor, CursorConfig, OpCells, OpStats,
    Residency, StreamExec, TupleBatch,
};
pub use eval::{Catalog, EvalError, Evaluator, Relation};
pub use obs::{ExecMetrics, Meter, NoMeter};
pub use order::OrderSpec;
pub use plan::{
    Axis, CmpOp, FetchWhat, JoinKind, LogicalPlan, NavMode, Operand, Path, Predicate, TwigStep,
};
pub use simd::{count_leading_lt, IdColumns, DEFAULT_BLOCK};
pub use stacktree::{nested_loop_pairs, stack_tree_pairs};
pub use twig::{fuse_struct_joins, twig_join, twig_to_cascade, TwigNode, TwigPattern};
pub use value::{CollKind, Collection, Field, FieldKind, Schema, Tuple, Value};
pub use xmlgen::Template;
