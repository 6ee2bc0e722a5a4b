//! Logical plans: the operator tree of the algebra (§1.2.2).
//!
//! Plans reference base relations by name (resolved through a
//! [`crate::Catalog`] at evaluation time) and attributes by dotted paths
//! (resolved against schemas). Unary operators applied to a nested path are
//! implicitly `map`-extended with existential semantics, as in the paper's
//! `map(σ, r, A1.A11)`; binary structural joins likewise accept a nested
//! left attribute (Example 1.2.3).

use std::fmt;

use crate::value::Value;

/// A dotted attribute path, e.g. `A1.A12`. Paths are kept symbolic in plans
/// and resolved against the input schema during evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path(pub String);

impl Path {
    pub fn new(s: impl Into<String>) -> Path {
        Path(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Path {
        Path(s.to_string())
    }
}

/// Comparators `θ`: value comparators on `A`, plus the structural `≺`
/// (parent) and `≺≺` (ancestor), which only apply to `I` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `≺` — left is the parent of right (IDs only).
    Parent,
    /// `≺≺` — left is an ancestor of right (IDs only).
    Ancestor,
    /// Full-text containment: the left string contains the right word
    /// (the `contains(t, w)` function of §2.1.2's QEP12).
    Contains,
}

impl CmpOp {
    pub fn is_structural(self) -> bool {
        matches!(self, CmpOp::Parent | CmpOp::Ancestor)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Parent => "≺",
            CmpOp::Ancestor => "≺≺",
            CmpOp::Contains => "contains",
        };
        write!(f, "{s}")
    }
}

/// One side of a comparison: an attribute or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Col(Path),
    Const(Value),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(p) => write!(f, "{p}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Selection / join predicates: comparisons composed with ∧, ∨, ¬, plus
/// null tests (used by the optional-edge compensations of Chapter 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Cmp(Operand, CmpOp, Operand),
    IsNull(Path),
    NotNull(Path),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
    True,
}

impl Predicate {
    pub fn eq(col: impl Into<String>, v: Value) -> Predicate {
        Predicate::Cmp(Operand::Col(Path::new(col)), CmpOp::Eq, Operand::Const(v))
    }

    pub fn col_cmp(l: impl Into<String>, op: CmpOp, r: impl Into<String>) -> Predicate {
        Predicate::Cmp(Operand::Col(Path::new(l)), op, Operand::Col(Path::new(r)))
    }

    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// The `Col = Col` comparisons this predicate is a conjunction over
    /// (reached through `∧` alone, never under `∨` or `¬`): the equalities
    /// a value join can hash on. Everything else in the predicate is
    /// residue the join still has to evaluate on each candidate pair.
    pub fn equi_conjuncts(&self) -> Vec<(&Path, &Path)> {
        fn rec<'p>(p: &'p Predicate, out: &mut Vec<(&'p Path, &'p Path)>) {
            match p {
                Predicate::And(a, b) => {
                    rec(a, out);
                    rec(b, out);
                }
                Predicate::Cmp(Operand::Col(l), CmpOp::Eq, Operand::Col(r)) => out.push((l, r)),
                _ => {}
            }
        }
        let mut out = Vec::new();
        rec(self, &mut out);
        out
    }

    /// Every attribute path the predicate reads, in order of appearance.
    pub fn columns(&self) -> Vec<&Path> {
        fn rec<'p>(p: &'p Predicate, out: &mut Vec<&'p Path>) {
            match p {
                Predicate::Cmp(l, _, r) => {
                    for o in [l, r] {
                        if let Operand::Col(c) = o {
                            out.push(c);
                        }
                    }
                }
                Predicate::IsNull(c) | Predicate::NotNull(c) => out.push(c),
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    rec(a, out);
                    rec(b, out);
                }
                Predicate::Not(a) => rec(a, out),
                Predicate::True => {}
            }
        }
        let mut out = Vec::new();
        rec(self, &mut out);
        out
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp(l, op, r) => write!(f, "{l}{op}{r}"),
            Predicate::IsNull(p) => write!(f, "{p}=⊥"),
            Predicate::NotNull(p) => write!(f, "{p}≠⊥"),
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(a) => write!(f, "¬({a})"),
            Predicate::True => write!(f, "true"),
        }
    }
}

/// Structural axis of a structural join: `/` (parent-child) or `//`
/// (ancestor-descendant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => write!(f, "/"),
            Axis::Descendant => write!(f, "//"),
        }
    }
}

/// How a [`LogicalPlan::Navigate`] combines reached nodes with its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NavMode {
    /// One output tuple per (input, reached node); inputs without reachable
    /// nodes are dropped.
    Flat,
    /// As `Flat`, but inputs without reachable nodes survive null-padded.
    Outer,
    /// Pure filter: keep the input tuple iff at least one node is
    /// reachable; no columns added (a navigational semijoin).
    Exists,
}

/// What a [`LogicalPlan::Fetch`] reads from the document for an ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchWhat {
    /// The node's value (concatenated text).
    Val,
    /// The node's serialized content.
    Cont,
    /// The node's tag.
    Tag,
}

/// Join flavour, shared by value joins and structural joins: the paper's
/// `j` (join), `s` (semijoin), `o` (left outerjoin), `nj` (nest join) and
/// `no` (nest outerjoin) edge/operator annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Semi,
    LeftOuter,
    /// Nest join: matching right tuples are packed into one nested
    /// collection attribute appended to the left tuple; left tuples without
    /// matches are dropped (Definition 1.2.2).
    Nest,
    /// Nest outerjoin: as `Nest`, but left tuples without matches survive
    /// with an empty nested collection.
    NestOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "⋈",
            JoinKind::Semi => "⋉",
            JoinKind::LeftOuter => "⟕",
            JoinKind::Nest => "⋈ⁿ",
            JoinKind::NestOuter => "⟕ⁿ",
        };
        write!(f, "{s}")
    }
}

/// One non-root node of a [`LogicalPlan::TwigJoin`] pattern: an input
/// whose `attr` IDs hang off `parent_attr` (an ID attribute of the
/// prefix relation assembled so far — root ⨯ earlier steps) along `axis`.
#[derive(Debug, Clone, PartialEq)]
pub struct TwigStep {
    pub input: LogicalPlan,
    /// ID attribute of the already-assembled prefix the step hangs off.
    pub parent_attr: Path,
    /// ID attribute within `input`.
    pub attr: Path,
    pub axis: Axis,
}

impl TwigStep {
    pub fn new(
        input: LogicalPlan,
        parent_attr: impl Into<String>,
        attr: impl Into<String>,
        axis: Axis,
    ) -> TwigStep {
        TwigStep {
            input,
            parent_attr: Path::new(parent_attr),
            attr: Path::new(attr),
            axis,
        }
    }
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a named base (nested) relation from the catalog.
    Scan { relation: String },
    /// `σ_pred`, `map`-extended to nested paths with existential semantics.
    Select {
        input: Box<LogicalPlan>,
        pred: Predicate,
    },
    /// `π` (duplicate-preserving) or `π°` (duplicate-eliminating when
    /// `distinct`). Columns are dotted paths; nested prefixes project the
    /// nested relation down to the named sub-attributes.
    Project {
        input: Box<LogicalPlan>,
        cols: Vec<Path>,
        distinct: bool,
    },
    /// Cartesian product `×`.
    Product {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// Value join with arbitrary predicate.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        pred: Predicate,
        kind: JoinKind,
    },
    /// Structural join on ID attributes (Definitions 1.2.1 / 1.2.2): pairs
    /// left tuples whose `left_attr` ID is the parent (axis `/`) or an
    /// ancestor (axis `//`) of right tuples' `right_attr` ID. `left_attr`
    /// may be nested (map extension, Example 1.2.3).
    StructJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_attr: Path,
        right_attr: Path,
        axis: Axis,
        kind: JoinKind,
        /// Name for the nested attribute appended by `Nest`/`NestOuter`.
        nest_as: Option<String>,
    },
    /// Holistic twig join (TwigStack, §1.2.3 extended): the whole tree
    /// pattern — root plus one [`TwigStep`] per further pattern node — is
    /// evaluated in a single multi-way merge over the per-node ID streams,
    /// with no intermediate pair materialization. Semantically equivalent
    /// to the left-deep cascade of `Inner` [`LogicalPlan::StructJoin`]s
    /// obtained by folding the steps in order (see
    /// [`crate::twig::twig_to_cascade`]); counts as **one** operator.
    TwigJoin {
        root: Box<LogicalPlan>,
        steps: Vec<TwigStep>,
    },
    /// Duplicate-preserving union (same schema both sides).
    Union {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// Set difference `\` on whole tuples.
    Difference {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
    /// Group-by `γ`: group on `keys`, nesting the remaining columns into a
    /// collection attribute named `nest_as`.
    GroupBy {
        input: Box<LogicalPlan>,
        keys: Vec<Path>,
        nest_as: String,
    },
    /// Unnest `u_B` of a top-level collection attribute.
    Unnest { input: Box<LogicalPlan>, attr: Path },
    /// Pack *all* input tuples into a single tuple with one collection
    /// attribute (the `n` nest operator used when translating element
    /// constructors, §3.3.2).
    NestAll {
        input: Box<LogicalPlan>,
        as_name: String,
    },
    /// Sort by the given attribute paths (ascending; IDs by pre rank).
    Sort {
        input: Box<LogicalPlan>,
        by: Vec<Path>,
    },
    /// XML construction operator `xml_templ` (§1.2.2): emits one serialized
    /// XML string column per input tuple, shaped by the template.
    XmlTemplate {
        input: Box<LogicalPlan>,
        templ: crate::xmlgen::Template,
    },
    /// Navigation from stored IDs into the document (used when a rewriting
    /// must navigate inside a view's `Cont` attribute, §5.2): for each input
    /// tuple, pairs it with the document nodes reached from `from_attr` by
    /// descending to `label` along the axis. In `Flat`/`Outer` modes adds
    /// columns `<as_prefix>_ID`, `<as_prefix>_Val` and `<as_prefix>_Cont`;
    /// `Exists` only filters.
    Navigate {
        input: Box<LogicalPlan>,
        from_attr: Path,
        axis: Axis,
        label: String,
        as_prefix: String,
        mode: NavMode,
    },
    /// Fetch the value/content/tag of the node whose ID is in `id_attr`
    /// from the document, as a new column — the runtime counterpart of
    /// "navigating inside a stored `Cont`" when a view stores IDs but not
    /// the item a rewriting needs.
    Fetch {
        input: Box<LogicalPlan>,
        id_attr: Path,
        what: FetchWhat,
        as_name: String,
    },
    /// Derive the ID of the parent (or the depth-`d` ancestor) of the IDs
    /// in `attr`, exposing it as a new column. Only legal when the stored
    /// IDs are navigational (`p`-class); checked by the rewriter, executed
    /// against the document (§4.4).
    DeriveAncestorId {
        input: Box<LogicalPlan>,
        attr: Path,
        /// Number of levels to go up (1 = parent).
        levels: u16,
        as_name: String,
    },
    /// Rename the top-level fields of the input (positional). Needed to
    /// disambiguate self-joins of the same base relation, as in QEP5's
    /// `main1`, `main2`, `main3` occurrences.
    Rename {
        input: Box<LogicalPlan>,
        names: Vec<String>,
    },
    /// Replace the input's (possibly nested) schema with a structurally
    /// identical one — a deep rename. The rewriter uses it to expose a
    /// view's columns under the names the query plan expects.
    CastSchema {
        input: Box<LogicalPlan>,
        schema: crate::value::Schema,
    },
}

impl LogicalPlan {
    pub fn scan(relation: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            relation: relation.into(),
        }
    }

    pub fn select(self, pred: Predicate) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            pred,
        }
    }

    pub fn project(self, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            cols: cols.iter().map(|c| Path::new(*c)).collect(),
            distinct: false,
        }
    }

    pub fn project_distinct(self, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            cols: cols.iter().map(|c| Path::new(*c)).collect(),
            distinct: true,
        }
    }

    pub fn product(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Product {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    pub fn join(self, right: LogicalPlan, pred: Predicate, kind: JoinKind) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
            kind,
        }
    }

    pub fn struct_join(
        self,
        right: LogicalPlan,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
        axis: Axis,
        kind: JoinKind,
    ) -> LogicalPlan {
        LogicalPlan::StructJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_attr: Path::new(left_attr),
            right_attr: Path::new(right_attr),
            axis,
            kind,
            nest_as: None,
        }
    }

    pub fn struct_nest_join(
        self,
        right: LogicalPlan,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
        axis: Axis,
        outer: bool,
        nest_as: impl Into<String>,
    ) -> LogicalPlan {
        LogicalPlan::StructJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_attr: Path::new(left_attr),
            right_attr: Path::new(right_attr),
            axis,
            kind: if outer {
                JoinKind::NestOuter
            } else {
                JoinKind::Nest
            },
            nest_as: Some(nest_as.into()),
        }
    }

    /// Build a holistic twig join with `self` as the pattern root.
    pub fn twig_join(self, steps: Vec<TwigStep>) -> LogicalPlan {
        LogicalPlan::TwigJoin {
            root: Box::new(self),
            steps,
        }
    }

    pub fn union(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    pub fn difference(self, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Difference {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Rename top-level fields (positional).
    pub fn rename(self, names: &[&str]) -> LogicalPlan {
        LogicalPlan::Rename {
            input: Box::new(self),
            names: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn sort(self, by: &[&str]) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            by: by.iter().map(|c| Path::new(*c)).collect(),
        }
    }

    /// Number of operator nodes in the plan (used by the rewriting cost
    /// model: "a minimal plan has the smallest number of operators", §5.3).
    pub fn size(&self) -> usize {
        use LogicalPlan::*;
        1 + match self {
            Scan { .. } => 0,
            Select { input, .. }
            | Project { input, .. }
            | GroupBy { input, .. }
            | Unnest { input, .. }
            | NestAll { input, .. }
            | Sort { input, .. }
            | XmlTemplate { input, .. }
            | Navigate { input, .. }
            | DeriveAncestorId { input, .. }
            | Fetch { input, .. }
            | Rename { input, .. }
            | CastSchema { input, .. } => input.size(),
            Product { left, right }
            | Join { left, right, .. }
            | StructJoin { left, right, .. }
            | Union { left, right }
            | Difference { left, right } => left.size() + right.size(),
            TwigJoin { root, steps } => {
                root.size() + steps.iter().map(|s| s.input.size()).sum::<usize>()
            }
        }
    }

    /// Names of the base relations (views) scanned by this plan.
    pub fn scanned_relations(&self) -> Vec<&str> {
        fn rec<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a str>) {
            use LogicalPlan::*;
            match p {
                Scan { relation } => out.push(relation),
                Select { input, .. }
                | Project { input, .. }
                | GroupBy { input, .. }
                | Unnest { input, .. }
                | NestAll { input, .. }
                | Sort { input, .. }
                | XmlTemplate { input, .. }
                | Navigate { input, .. }
                | DeriveAncestorId { input, .. }
                | Fetch { input, .. }
                | Rename { input, .. }
                | CastSchema { input, .. } => rec(input, out),
                Product { left, right }
                | Join { left, right, .. }
                | StructJoin { left, right, .. }
                | Union { left, right }
                | Difference { left, right } => {
                    rec(left, out);
                    rec(right, out);
                }
                TwigJoin { root, steps } => {
                    rec(root, out);
                    for s in steps {
                        rec(&s.input, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(self, &mut out);
        out
    }

    /// The operator kinds, one per variant: the keys of per-operator
    /// statistics such as the engine's q-error histograms.
    pub const KINDS: [&'static str; 19] = [
        "Scan",
        "Select",
        "Project",
        "Product",
        "Join",
        "StructJoin",
        "TwigJoin",
        "Union",
        "Difference",
        "GroupBy",
        "Unnest",
        "NestAll",
        "Sort",
        "XmlTemplate",
        "Navigate",
        "Fetch",
        "DeriveAncestorId",
        "Rename",
        "CastSchema",
    ];

    /// This node's operator kind: its variant name, one of
    /// [`LogicalPlan::KINDS`].
    pub fn kind(&self) -> &'static str {
        use LogicalPlan::*;
        match self {
            Scan { .. } => "Scan",
            Select { .. } => "Select",
            Project { .. } => "Project",
            Product { .. } => "Product",
            Join { .. } => "Join",
            StructJoin { .. } => "StructJoin",
            TwigJoin { .. } => "TwigJoin",
            Union { .. } => "Union",
            Difference { .. } => "Difference",
            GroupBy { .. } => "GroupBy",
            Unnest { .. } => "Unnest",
            NestAll { .. } => "NestAll",
            Sort { .. } => "Sort",
            XmlTemplate { .. } => "XmlTemplate",
            Navigate { .. } => "Navigate",
            Fetch { .. } => "Fetch",
            DeriveAncestorId { .. } => "DeriveAncestorId",
            Rename { .. } => "Rename",
            CastSchema { .. } => "CastSchema",
        }
    }

    /// The direct child plans, left to right (a `TwigJoin` yields its
    /// root followed by each step's input). The cost model's estimate
    /// tree is built through this accessor, in the order the executor
    /// registers its per-node counters, so the two pair node for node.
    pub fn child_plans(&self) -> Vec<&LogicalPlan> {
        use LogicalPlan::*;
        match self {
            Scan { .. } => vec![],
            Select { input, .. }
            | Project { input, .. }
            | GroupBy { input, .. }
            | Unnest { input, .. }
            | NestAll { input, .. }
            | Sort { input, .. }
            | XmlTemplate { input, .. }
            | Navigate { input, .. }
            | DeriveAncestorId { input, .. }
            | Fetch { input, .. }
            | Rename { input, .. }
            | CastSchema { input, .. } => vec![input],
            Product { left, right }
            | Join { left, right, .. }
            | StructJoin { left, right, .. }
            | Union { left, right }
            | Difference { left, right } => vec![left, right],
            TwigJoin { root, steps } => {
                let mut out = Vec::with_capacity(1 + steps.len());
                out.push(root.as_ref());
                out.extend(steps.iter().map(|s| &s.input));
                out
            }
        }
    }

    /// This node with each direct child plan replaced by `f` of it, in
    /// [`LogicalPlan::child_plans`] order: the one-level step of every
    /// bottom-up plan rewrite.
    pub fn map_children(&self, mut f: impl FnMut(&LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        use LogicalPlan::*;
        let mut g = |p: &LogicalPlan| Box::new(f(p));
        match self {
            Scan { .. } => self.clone(),
            Select { input, pred } => Select {
                input: g(input),
                pred: pred.clone(),
            },
            Project {
                input,
                cols,
                distinct,
            } => Project {
                input: g(input),
                cols: cols.clone(),
                distinct: *distinct,
            },
            Product { left, right } => Product {
                left: g(left),
                right: g(right),
            },
            Join {
                left,
                right,
                pred,
                kind,
            } => Join {
                left: g(left),
                right: g(right),
                pred: pred.clone(),
                kind: *kind,
            },
            StructJoin {
                left,
                right,
                left_attr,
                right_attr,
                axis,
                kind,
                nest_as,
            } => StructJoin {
                left: g(left),
                right: g(right),
                left_attr: left_attr.clone(),
                right_attr: right_attr.clone(),
                axis: *axis,
                kind: *kind,
                nest_as: nest_as.clone(),
            },
            TwigJoin { root, steps } => TwigJoin {
                root: g(root),
                steps: steps
                    .iter()
                    .map(|s| TwigStep {
                        input: *g(&s.input),
                        parent_attr: s.parent_attr.clone(),
                        attr: s.attr.clone(),
                        axis: s.axis,
                    })
                    .collect(),
            },
            Union { left, right } => Union {
                left: g(left),
                right: g(right),
            },
            Difference { left, right } => Difference {
                left: g(left),
                right: g(right),
            },
            GroupBy {
                input,
                keys,
                nest_as,
            } => GroupBy {
                input: g(input),
                keys: keys.clone(),
                nest_as: nest_as.clone(),
            },
            Unnest { input, attr } => Unnest {
                input: g(input),
                attr: attr.clone(),
            },
            NestAll { input, as_name } => NestAll {
                input: g(input),
                as_name: as_name.clone(),
            },
            Sort { input, by } => Sort {
                input: g(input),
                by: by.clone(),
            },
            XmlTemplate { input, templ } => XmlTemplate {
                input: g(input),
                templ: templ.clone(),
            },
            Navigate {
                input,
                from_attr,
                axis,
                label,
                as_prefix,
                mode,
            } => Navigate {
                input: g(input),
                from_attr: from_attr.clone(),
                axis: *axis,
                label: label.clone(),
                as_prefix: as_prefix.clone(),
                mode: *mode,
            },
            Fetch {
                input,
                id_attr,
                what,
                as_name,
            } => Fetch {
                input: g(input),
                id_attr: id_attr.clone(),
                what: *what,
                as_name: as_name.clone(),
            },
            DeriveAncestorId {
                input,
                attr,
                levels,
                as_name,
            } => DeriveAncestorId {
                input: g(input),
                attr: attr.clone(),
                levels: *levels,
                as_name: as_name.clone(),
            },
            Rename { input, names } => Rename {
                input: g(input),
                names: names.clone(),
            },
            CastSchema { input, schema } => CastSchema {
                input: g(input),
                schema: schema.clone(),
            },
        }
    }

    /// Short operator label for this node alone (no recursion into
    /// children), used by profile trees: `Scan(v_items)`,
    /// `StructJoin(⋈,/)`, `twig(2 steps)`, … A value join is named after
    /// the algorithm its predicate selects: `HashJoin(⋈)` when it has an
    /// equality conjunct to hash on ([`Predicate::equi_conjuncts`]),
    /// `NLJoin(⋈)` otherwise.
    pub fn node_label(&self) -> String {
        use LogicalPlan::*;
        match self {
            Scan { relation } => format!("Scan({relation})"),
            Select { pred, .. } => format!("Select[{pred}]"),
            Project { cols, distinct, .. } => format!(
                "Project{}[{}]",
                if *distinct { "°" } else { "" },
                cols.iter().map(Path::as_str).collect::<Vec<_>>().join(",")
            ),
            Product { .. } => "Product".to_string(),
            Join { pred, kind, .. } if pred.equi_conjuncts().is_empty() => {
                format!("NLJoin({kind})")
            }
            Join { kind, .. } => format!("HashJoin({kind})"),
            StructJoin {
                left_attr,
                right_attr,
                axis,
                kind,
                ..
            } => format!("StructJoin({kind},{left_attr}{axis}{right_attr})"),
            TwigJoin { steps, .. } => format!("TwigJoin({} steps)", steps.len()),
            Union { .. } => "Union".to_string(),
            Difference { .. } => "Difference".to_string(),
            GroupBy { keys, .. } => format!(
                "GroupBy[{}]",
                keys.iter().map(Path::as_str).collect::<Vec<_>>().join(",")
            ),
            Unnest { attr, .. } => format!("Unnest[{attr}]"),
            NestAll { .. } => "NestAll".to_string(),
            Sort { by, .. } => format!(
                "Sort[{}]",
                by.iter().map(Path::as_str).collect::<Vec<_>>().join(",")
            ),
            XmlTemplate { .. } => "XmlTemplate".to_string(),
            Navigate {
                from_attr,
                axis,
                label,
                ..
            } => format!("Navigate[{from_attr}{axis}{label}]"),
            Fetch { id_attr, what, .. } => format!("Fetch[{id_attr}:{what:?}]"),
            DeriveAncestorId { attr, levels, .. } => {
                format!("DeriveAncestorId[{attr}^{levels}]")
            }
            Rename { .. } => "Rename".to_string(),
            CastSchema { .. } => "CastSchema".to_string(),
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use LogicalPlan::*;
        match self {
            Scan { relation } => write!(f, "{relation}"),
            Select { input, pred } => write!(f, "σ[{pred}]({input})"),
            Project {
                input,
                cols,
                distinct,
            } => {
                write!(f, "π{}[", if *distinct { "°" } else { "" })?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]({input})")
            }
            Product { left, right } => write!(f, "({left} × {right})"),
            Join {
                left,
                right,
                pred,
                kind,
            } => write!(f, "({left} {kind}[{pred}] {right})"),
            StructJoin {
                left,
                right,
                left_attr,
                right_attr,
                axis,
                kind,
                ..
            } => {
                let rel = match axis {
                    Axis::Child => "≺",
                    Axis::Descendant => "≺≺",
                };
                write!(f, "({left} {kind}[{left_attr}{rel}{right_attr}] {right})")
            }
            TwigJoin { root, steps } => {
                write!(f, "twig({root}")?;
                for s in steps {
                    let rel = match s.axis {
                        Axis::Child => "≺",
                        Axis::Descendant => "≺≺",
                    };
                    write!(f, ", [{}{}{}] {}", s.parent_attr, rel, s.attr, s.input)?;
                }
                write!(f, ")")
            }
            Union { left, right } => write!(f, "({left} ∪ {right})"),
            Difference { left, right } => write!(f, "({left} \\ {right})"),
            GroupBy { input, keys, .. } => {
                write!(f, "γ[")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, "]({input})")
            }
            Unnest { input, attr } => write!(f, "u[{attr}]({input})"),
            NestAll { input, .. } => write!(f, "n({input})"),
            Sort { input, by } => {
                write!(f, "sort[")?;
                for (i, k) in by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, "]({input})")
            }
            XmlTemplate { input, .. } => write!(f, "xml({input})"),
            Navigate {
                input,
                from_attr,
                axis,
                label,
                ..
            } => write!(f, "nav[{from_attr}{axis}{label}]({input})"),
            DeriveAncestorId {
                input,
                attr,
                levels,
                ..
            } => write!(f, "parent^{levels}[{attr}]({input})"),
            Rename { input, .. } => write!(f, "ρ({input})"),
            CastSchema { input, .. } => write!(f, "ρ*({input})"),
            Fetch {
                input,
                id_attr,
                what,
                ..
            } => write!(f, "fetch[{id_attr}:{what:?}]({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let p = LogicalPlan::scan("book")
            .struct_join(
                LogicalPlan::scan("author"),
                "ID",
                "ID",
                Axis::Child,
                JoinKind::Inner,
            )
            .select(Predicate::eq("Val", Value::str("Suciu")))
            .project(&["ID"]);
        assert_eq!(p.size(), 5); // 2 scans + join + select + project
        assert_eq!(p.scanned_relations(), vec!["book", "author"]);
        let s = p.to_string();
        assert!(s.contains("book"), "{s}");
        assert!(s.contains("≺"), "{s}");
    }

    #[test]
    fn kind_is_the_variant_name() {
        let join = LogicalPlan::scan("a")
            .rename(&["x"])
            .struct_join(
                LogicalPlan::scan("b"),
                "x",
                "ID",
                Axis::Child,
                JoinKind::Inner,
            )
            .select(Predicate::True)
            .project(&["x"]);
        let mut nodes = vec![&join];
        while let Some(p) = nodes.pop() {
            assert!(LogicalPlan::KINDS.contains(&p.kind()));
            assert!(format!("{p:?}").starts_with(&format!("{} ", p.kind())));
            nodes.extend(p.child_plans());
        }
    }

    #[test]
    fn child_accessors_mirror_plan_shape() {
        let join = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        assert_eq!(join.child_plans().len(), 2);
        assert_eq!(join.node_label(), "StructJoin(⋈,ID/ID)");

        let twig = LogicalPlan::scan("a").twig_join(vec![
            TwigStep::new(LogicalPlan::scan("b"), "ID", "ID", Axis::Descendant),
            TwigStep::new(LogicalPlan::scan("c"), "ID", "ID", Axis::Child),
        ]);
        let kids = twig.child_plans();
        assert_eq!(kids.len(), 3);
        assert_eq!(kids[0].node_label(), "Scan(a)");
        assert_eq!(twig.node_label(), "TwigJoin(2 steps)");
    }

    #[test]
    fn predicate_combinators() {
        let p = Predicate::True.and(Predicate::eq("A", Value::Int(1)));
        assert_eq!(p, Predicate::eq("A", Value::Int(1)));
        let q = Predicate::eq("A", Value::Int(1)).and(Predicate::NotNull(Path::new("B")));
        assert!(matches!(q, Predicate::And(..)));
    }

    #[test]
    fn equality_conjuncts_name_the_join_algorithm() {
        let eq = Predicate::col_cmp("a", CmpOp::Eq, "b");
        let lt = Predicate::col_cmp("c.d", CmpOp::Lt, "e");
        let both = eq.clone().and(lt.clone());
        assert_eq!(
            both.equi_conjuncts(),
            vec![(&Path::new("a"), &Path::new("b"))]
        );
        let cols: Vec<&str> = both.columns().into_iter().map(Path::as_str).collect();
        assert_eq!(cols, ["a", "b", "c.d", "e"]);
        // an equality under ∨ or ¬, or against a constant, is not a join key
        for p in [
            lt.clone(),
            eq.clone().or(lt),
            Predicate::Not(Box::new(eq.clone())),
            Predicate::eq("a", Value::Int(1)),
            Predicate::True,
        ] {
            assert!(p.equi_conjuncts().is_empty(), "{p}");
            let nl = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), p, JoinKind::Semi);
            assert_eq!(nl.node_label(), "NLJoin(⋉)");
        }
        let hj = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), both, JoinKind::Inner);
        assert_eq!(hj.node_label(), "HashJoin(⋈)");
    }
}
