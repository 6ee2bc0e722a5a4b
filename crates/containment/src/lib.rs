//! # containment — XAM containment and minimization under summary constraints
//!
//! Chapter 4 of the paper: deciding `p ⊆_S q` — for every document
//! conforming to the summary `S`, `p`'s result tuples are among `q`'s —
//! via the *canonical model* technique:
//!
//! 1. enumerate the embeddings of `p` into `S`, each inducing a canonical
//!    tree ([`canonical`]);
//! 2. `p ⊆_S q` iff `q` accepts every canonical tree's return tuple
//!    (Proposition 4.4.1, condition 3), evaluated by [`pattern_eval`];
//! 3. decorated patterns add formula implication, optional edges multiply
//!    the model by erasure sets, attribute patterns require identical
//!    stored-attribute annotations (Prop 4.4.3), and nested patterns
//!    require compatible nesting sequences, relaxed across one-to-one
//!    summary edges (Prop 4.4.4);
//! 4. unions add a value-cover condition over canonical-tree formulas
//!    (§4.4.2), decided exactly by region sampling.
//!
//! Negative answers exit as soon as one canonical tree contradicts the
//! condition — the effect the paper measures in §4.6 (negative tests are
//! faster because `mod_S(p)` need not be fully built).

pub mod cache;
pub mod canonical;
pub mod minimize;
pub mod pattern_eval;

use std::collections::{HashMap, HashSet};

use summary::{Summary, SummaryNodeId};
use xam_core::ast::{Formula, Xam, XamNodeId};

pub use cache::{CacheStats, CanonicalCache};
pub use canonical::{canonical_model, CanonicalTree, ModelStats};
pub use minimize::{
    minimize_by_contraction, minimize_by_contraction_with, minimize_global, minimize_global_with,
};
pub use pattern_eval::{accepts_tuple, eval_on_canonical};

/// Outcome of a containment decision, with the statistics the experiments
/// of §4.6 report.
#[derive(Debug, Clone, Copy)]
pub struct ContainmentOutcome {
    pub contained: bool,
    /// Canonical trees actually built before the decision (full model for
    /// positive answers, a prefix for negative ones — the early exit).
    pub trees_checked: usize,
    /// `|mod_S(p)|` if fully enumerated (positive answers), else trees seen.
    pub model_size: usize,
}

/// Is `p` satisfiable under `S` — does any conforming document give it a
/// non-empty result? By Proposition 4.3.1 this is `mod_S(p) ≠ ∅`.
pub fn satisfiable(p: &Xam, s: &Summary) -> bool {
    let mut any = false;
    canonical::for_each_embedding(p, s, &mut |_| {
        any = true;
        false // stop at the first embedding
    });
    any
}

/// The stored-attribute signature of return nodes (Prop 4.4.3 cond 1).
fn attr_signature_of(p: &Xam, rets: &[XamNodeId]) -> Vec<(bool, bool, bool, bool)> {
    rets.iter()
        .map(|&n| {
            let node = p.node(n);
            (
                node.stores_id.is_some(),
                node.stores_tag,
                node.stores_val,
                node.stores_cont,
            )
        })
        .collect()
}

fn attr_signature(p: &Xam) -> Vec<(bool, bool, bool, bool)> {
    attr_signature_of(p, &p.return_nodes())
}

/// Knobs of a containment decision — the one options struct behind the
/// unified [`contain`] entry point.
///
/// The default (`ContainOptions::default()`) is the uncached decision
/// with return nodes taken from each pattern in pre-order — the
/// behaviour of the historical `contained_in` family.
///
/// Configured the same way as every options struct in the workspace
/// (`rewriting::EngineConfig`, `uload_server::ServerConfig`): start
/// from `default()`, chain `with_*` calls.
///
/// ```
/// use containment::{CanonicalCache, ContainOptions};
/// let cache = CanonicalCache::new(256);
/// let opts = ContainOptions::default().with_cache(&cache);
/// assert!(opts.cache.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ContainOptions<'a> {
    /// Shared verdict memo; `None` disables caching.
    pub cache: Option<&'a CanonicalCache>,
    /// Fingerprint of the summary if the caller amortized it
    /// ([`cache::summary_fingerprint`]); computed on demand otherwise.
    pub summary_fp: Option<u64>,
    /// Explicit, position-aligned return-node lists: `p_rets[i]`
    /// corresponds to `q_rets[i]`. The rewriter uses this to align a
    /// rewriting pattern's outputs (whose pre-order may differ) with
    /// the query's. `None` uses each pattern's own pre-order returns.
    pub aligned: Option<(&'a [XamNodeId], &'a [XamNodeId])>,
}

impl<'a> ContainOptions<'a> {
    pub fn with_cache(mut self, cache: &'a CanonicalCache) -> Self {
        self.cache = Some(cache);
        self
    }

    pub fn with_aligned(mut self, p_rets: &'a [XamNodeId], q_rets: &'a [XamNodeId]) -> Self {
        self.aligned = Some((p_rets, q_rets));
        self
    }
}

/// Decide `p ⊆_S q` (full pattern language). This is the single
/// containment entry point; caching and return-node alignment are
/// selected through [`ContainOptions`].
pub fn contain(p: &Xam, q: &Xam, s: &Summary, opts: &ContainOptions) -> ContainmentOutcome {
    let (own_p, own_q);
    let (p_rets, q_rets): (&[XamNodeId], &[XamNodeId]) = match opts.aligned {
        Some((pr, qr)) => (pr, qr),
        None => {
            own_p = p.return_nodes();
            own_q = q.return_nodes();
            (&own_p, &own_q)
        }
    };
    if let Some(cache) = opts.cache {
        let s_fp = opts
            .summary_fp
            .unwrap_or_else(|| cache::summary_fingerprint(s));
        let key = (
            cache::pattern_fingerprint(p),
            cache::rets_fingerprint(p_rets),
            cache::pattern_fingerprint(q),
            cache::rets_fingerprint(q_rets),
            s_fp,
        );
        if let Some(hit) = cache.get_verdict(key.0, key.1, key.2, key.3, key.4) {
            tracing::trace!(
                target: "uload::containment",
                "verdict cache hit: contained={} (model of {} trees)",
                hit.contained,
                hit.model_size
            );
            return hit;
        }
        let outcome = decide(p, q, s, p_rets, q_rets);
        tracing::debug!(
            target: "uload::containment",
            "decided p ⊆ q: contained={} after {}/{} canonical trees",
            outcome.contained,
            outcome.trees_checked,
            outcome.model_size
        );
        cache.put_verdict(key.0, key.1, key.2, key.3, key.4, outcome);
        outcome
    } else {
        let outcome = decide(p, q, s, p_rets, q_rets);
        tracing::trace!(
            target: "uload::containment",
            "decided p ⊆ q (uncached): contained={} after {}/{} canonical trees",
            outcome.contained,
            outcome.trees_checked,
            outcome.model_size
        );
        outcome
    }
}

fn decide(
    p: &Xam,
    q: &Xam,
    s: &Summary,
    p_rets: &[XamNodeId],
    q_rets: &[XamNodeId],
) -> ContainmentOutcome {
    // 1. attribute signatures must agree position-wise (Prop 4.4.3)
    if attr_signature_of(p, p_rets) != attr_signature_of(q, q_rets) {
        return ContainmentOutcome {
            contained: false,
            trees_checked: 0,
            model_size: 0,
        };
    }
    // 2. nested-pattern conditions (Prop 4.4.4)
    let p_has_nesting = p.pattern_nodes().any(|n| p.node(n).edge.sem.is_nested());
    let q_has_nesting = q.pattern_nodes().any(|n| q.node(n).edge.sem.is_nested());
    if (p_has_nesting || q_has_nesting) && !nesting_compatible(p, q, s, p_rets, q_rets) {
        return ContainmentOutcome {
            contained: false,
            trees_checked: 0,
            model_size: 0,
        };
    }
    // 3. canonical-model check with early exit
    let erasures = canonical::erasure_sets(p);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut checked = 0usize;
    let mut ok = true;
    canonical::for_each_embedding(p, s, &mut |e| {
        for f in &erasures {
            let t = canonical::canonical_tree_with_rets(p, s, e, f, p_rets);
            if seen.contains(&t.key()) {
                continue;
            }
            // §4.3.2: erased trees join the model only if `p` still
            // produces the ⊥-padded tuple on them
            if !f.is_empty()
                && !pattern_eval::accepts_tuple_with_rets(p, s, &t, &t.return_tuple, p_rets)
            {
                continue;
            }
            seen.insert(t.key());
            checked += 1;
            if !pattern_eval::accepts_tuple_with_rets(q, s, &t, &t.return_tuple, q_rets) {
                ok = false;
                return false; // early exit
            }
        }
        true
    });
    ContainmentOutcome {
        contained: ok,
        trees_checked: checked,
        model_size: seen.len(),
    }
}

/// `S`-equivalence: two-way containment (Definition 4.4.1).
pub fn equivalent(p: &Xam, q: &Xam, s: &Summary) -> bool {
    equivalent_with(p, q, s, &ContainOptions::default())
}

/// [`equivalent`] under explicit [`ContainOptions`] (shared cache).
pub fn equivalent_with(p: &Xam, q: &Xam, s: &Summary, opts: &ContainOptions) -> bool {
    contain(p, q, s, opts).contained && contain(q, p, s, opts).contained
}

// --------------------------------------------------------------------
// nested patterns (Proposition 4.4.4)

/// The nesting sequence of return node `r` under embedding `e`: summary
/// images of ancestors whose downward edge (toward `r`) is nested.
fn nesting_sequence(p: &Xam, e: &canonical::SummaryEmbedding, r: XamNodeId) -> Vec<SummaryNodeId> {
    let mut seq = Vec::new();
    let mut cur = r;
    while let Some(par) = p.parent(cur) {
        if p.node(cur).edge.sem.is_nested() && par != XamNodeId::TOP {
            if let Some(sn) = e[par.index()] {
                seq.push(sn);
            }
        }
        cur = par;
    }
    seq.reverse();
    seq
}

/// Are two nesting sequences equal, or connected exclusively by
/// one-to-one summary edges (the relaxation at the end of §4.4.5)?
fn sequences_compatible(s: &Summary, a: &[SummaryNodeId], b: &[SummaryNodeId]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(&x, &y)| {
        x == y
            || (s.is_ancestor_or_self(x, y) && s.one_to_one_chain(x, y))
            || (s.is_ancestor_or_self(y, x) && s.one_to_one_chain(y, x))
    })
}

/// Conditions 2(a)/2(b) of Proposition 4.4.4.
fn nesting_compatible(
    p: &Xam,
    q: &Xam,
    s: &Summary,
    p_rets: &[XamNodeId],
    q_rets: &[XamNodeId],
) -> bool {
    if p_rets.len() != q_rets.len() {
        return false;
    }
    // 2(a): same nesting depth per position
    for (&pr, &qr) in p_rets.iter().zip(q_rets) {
        if p.nesting_depth(pr) != q.nesting_depth(qr) {
            return false;
        }
    }
    // 2(b): for every embedding of p there is a q embedding with the same
    // return tuple and compatible nesting sequences
    let mut q_by_tuple: HashMap<Vec<Option<SummaryNodeId>>, Vec<Vec<Vec<SummaryNodeId>>>> =
        HashMap::new();
    canonical::for_each_embedding(q, s, &mut |e| {
        let tuple: Vec<Option<SummaryNodeId>> = q_rets.iter().map(|r| e[r.index()]).collect();
        let seqs: Vec<Vec<SummaryNodeId>> =
            q_rets.iter().map(|&r| nesting_sequence(q, e, r)).collect();
        q_by_tuple.entry(tuple).or_default().push(seqs);
        true
    });
    let mut ok = true;
    canonical::for_each_embedding(p, s, &mut |e| {
        let tuple: Vec<Option<SummaryNodeId>> = p_rets.iter().map(|r| e[r.index()]).collect();
        let p_seqs: Vec<Vec<SummaryNodeId>> =
            p_rets.iter().map(|&r| nesting_sequence(p, e, r)).collect();
        let found = q_by_tuple.get(&tuple).is_some_and(|cands| {
            cands.iter().any(|q_seqs| {
                p_seqs
                    .iter()
                    .zip(q_seqs)
                    .all(|(a, b)| sequences_compatible(s, a, b))
            })
        });
        if !found {
            ok = false;
            return false;
        }
        true
    });
    ok
}

// --------------------------------------------------------------------
// unions (Proposition 4.4.2 and the decorated condition of §4.4.2)

/// Decide `p ⊆_S q_1 ∪ … ∪ q_m`.
///
/// Condition 1 (Prop 4.4.2): every canonical tree's return tuple is
/// accepted by some `q_i`. Condition 2 (§4.4.2): the value formulas of
/// each canonical tree of `p` imply the disjunction of the formulas of
/// the matching canonical trees of the accepting `q_i`s — decided exactly
/// by sampling one witness per region of each variable's domain.
pub fn contained_in_union(p: &Xam, qs: &[&Xam], s: &Summary) -> bool {
    if qs.is_empty() {
        return !satisfiable(p, s);
    }
    // attribute signatures
    let sig = attr_signature(p);
    let viable: Vec<&Xam> = qs
        .iter()
        .copied()
        .filter(|q| attr_signature(q) == sig)
        .collect();
    if viable.is_empty() {
        return !satisfiable(p, s);
    }
    // Condition 1 is *structural* (the worked example of §4.4.2 puts
    // p_φ1 in f(t″) although its formula is not implied): acceptance is
    // tested with formulas stripped; condition 2 handles values.
    let stripped: Vec<Xam> = viable.iter().map(|q| strip_formulas(q)).collect();
    let erasures = canonical::erasure_sets(p);
    let mut seen = HashSet::new();
    let mut ok = true;
    canonical::for_each_embedding(p, s, &mut |e| {
        for f in &erasures {
            let t = canonical::canonical_tree(p, s, e, f);
            if seen.contains(&t.key()) {
                continue;
            }
            if !f.is_empty() && !pattern_eval::accepts_tuple(p, s, &t, &t.return_tuple) {
                continue;
            }
            seen.insert(t.key());
            // condition 1: some pattern structurally accepts the tuple
            let accepting: Vec<&Xam> = viable
                .iter()
                .copied()
                .zip(&stripped)
                .filter(|(_, qs)| pattern_eval::accepts_tuple(qs, s, &t, &t.return_tuple))
                .map(|(q, _)| q)
                .collect();
            if accepting.is_empty() {
                ok = false;
                return false;
            }
            // condition 2: value cover
            if !formula_cover(&t, &accepting, s) {
                ok = false;
                return false;
            }
        }
        true
    });
    ok
}

/// Copy of a pattern with every value formula replaced by `T`.
fn strip_formulas(p: &Xam) -> Xam {
    let mut out = p.clone();
    for n in 0..out.nodes.len() {
        out.nodes[n].value_predicate = Formula::True;
    }
    out
}

/// Check `φ_{t} ⟹ ⋁_{t' ∈ g(t)} φ_{t'}` where `g(t)` are the canonical
/// trees of the accepting patterns with the same return tuple.
fn formula_cover(t: &CanonicalTree, accepting: &[&Xam], s: &Summary) -> bool {
    // gather g(t): matching trees of the accepting patterns
    let mut g: Vec<CanonicalTree> = Vec::new();
    for q in accepting {
        let erasures = canonical::erasure_sets(q);
        canonical::for_each_embedding(q, s, &mut |e| {
            for f in &erasures {
                let tq = canonical::canonical_tree(q, s, e, f);
                if tq.return_tuple == t.return_tuple {
                    g.push(tq);
                }
            }
            true
        });
    }
    // variables: summary nodes with a non-trivial formula anywhere
    let mut vars: Vec<SummaryNodeId> = Vec::new();
    let formulas_of = |tree: &CanonicalTree, map: &mut HashMap<SummaryNodeId, Formula>| {
        for n in &tree.nodes {
            if n.formula != Formula::True {
                let e = map.entry(n.summary).or_insert(Formula::True);
                let merged = std::mem::replace(e, Formula::True);
                *e = merged.and(n.formula.clone());
            }
        }
    };
    let mut phi_t: HashMap<SummaryNodeId, Formula> = HashMap::new();
    formulas_of(t, &mut phi_t);
    let mut phi_g: Vec<HashMap<SummaryNodeId, Formula>> = Vec::new();
    for tg in &g {
        let mut m = HashMap::new();
        formulas_of(tg, &mut m);
        phi_g.push(m);
    }
    for k in phi_t.keys() {
        if !vars.contains(k) {
            vars.push(*k);
        }
    }
    for m in &phi_g {
        for k in m.keys() {
            if !vars.contains(k) {
                vars.push(*k);
            }
        }
    }
    if vars.is_empty() {
        return true; // no value constraints anywhere
    }
    // per-variable sample points
    let samples: Vec<Vec<String>> = vars
        .iter()
        .map(|v| {
            let mut fs: Vec<&Formula> = Vec::new();
            if let Some(f) = phi_t.get(v) {
                fs.push(f);
            }
            for m in &phi_g {
                if let Some(f) = m.get(v) {
                    fs.push(f);
                }
            }
            sample_points(&fs)
        })
        .collect();
    // product of samples, capped
    let total: usize = samples.iter().map(|s| s.len()).product();
    if total > 200_000 {
        // refuse to decide (conservatively not contained); realistic
        // patterns stay far below this
        return false;
    }
    let mut idx = vec![0usize; vars.len()];
    loop {
        // evaluate
        let assign: HashMap<SummaryNodeId, &str> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, samples[i][idx[i]].as_str()))
            .collect();
        let eval_map = |m: &HashMap<SummaryNodeId, Formula>| -> bool {
            m.iter().all(|(v, f)| f.eval(assign[v]))
        };
        if eval_map(&phi_t) && !phi_g.iter().any(eval_map) {
            return false;
        }
        // increment
        let mut i = 0;
        loop {
            if i == idx.len() {
                return true;
            }
            idx[i] += 1;
            if idx[i] < samples[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

/// Region-sampling points for a set of single-variable formulas: every
/// constant, a point strictly inside every open region, and points beyond
/// the extremes.
fn sample_points(fs: &[&Formula]) -> Vec<String> {
    // reuse Formula::implies' internal logic by round-tripping through a
    // dedicated sampler: collect constants via Display parsing would be
    // fragile, so re-walk the formulas
    fn collect<'f>(f: &'f Formula, out: &mut Vec<&'f xam_core::ast::FormulaConst>) {
        match f {
            Formula::Cmp(_, c) => out.push(c),
            Formula::And(a, b) | Formula::Or(a, b) => {
                collect(a, out);
                collect(b, out);
            }
            _ => {}
        }
    }
    let mut consts = Vec::new();
    for f in fs {
        collect(f, &mut consts);
    }
    let mut nums: Vec<f64> = Vec::new();
    let mut all_numeric = true;
    for c in &consts {
        match c {
            xam_core::ast::FormulaConst::Int(i) => nums.push(*i as f64),
            xam_core::ast::FormulaConst::Str(s) => match s.trim().parse::<f64>() {
                Ok(x) => nums.push(x),
                Err(_) => {
                    all_numeric = false;
                    break;
                }
            },
        }
    }
    if all_numeric {
        nums.sort_by(|a, b| a.partial_cmp(b).unwrap());
        nums.dedup();
        let mut pts = Vec::new();
        if nums.is_empty() {
            pts.push(0.0);
        } else {
            pts.push(nums[0] - 1.0);
            for w in nums.windows(2) {
                pts.push((w[0] + w[1]) / 2.0);
            }
            pts.push(nums[nums.len() - 1] + 1.0);
            pts.extend(nums.iter().copied());
        }
        pts.iter()
            .map(|x| {
                if x.fract() == 0.0 {
                    format!("{}", *x as i64)
                } else {
                    format!("{x}")
                }
            })
            .collect()
    } else {
        let mut strs: Vec<String> = consts
            .iter()
            .map(|c| match c {
                xam_core::ast::FormulaConst::Int(i) => i.to_string(),
                xam_core::ast::FormulaConst::Str(s) => s.clone(),
            })
            .collect();
        strs.sort();
        strs.dedup();
        let mut pts = vec![String::new()];
        for s in &strs {
            pts.push(s.clone());
            pts.push(format!("{s}\u{1}"));
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xam_core::parse_xam;
    use xmltree::parse_document;

    fn s_of(xml: &str) -> Summary {
        Summary::of_document(&parse_document(xml).unwrap())
    }

    /// Shorthand: default (sequential, uncached) containment verdict.
    fn c(p: &Xam, q: &Xam, s: &Summary) -> bool {
        contain(p, q, s, &ContainOptions::default()).contained
    }

    #[test]
    fn self_containment() {
        let s = s_of("<a><b><c/></b><d/></a>");
        for p in ["//b[id:s]", "//b[id:s]{ /c[id:s] }", "//*[id:s]"] {
            let x = parse_xam(p).unwrap();
            assert!(c(&x, &x, &s), "{p} ⊈ itself");
            assert!(equivalent(&x, &x, &s));
        }
    }

    #[test]
    fn star_generalizes_label() {
        let s = s_of("<a><b><c/></b><d/></a>");
        let b = parse_xam("//b[id:s]").unwrap();
        let star = parse_xam("//*[id:s]").unwrap();
        assert!(c(&b, &star, &s));
        assert!(!c(&star, &b, &s));
    }

    #[test]
    fn summary_constraints_enable_containment() {
        // in this summary every b sits under a, so //b ≡_S /a/b — without
        // constraints this containment would fail
        let s = s_of("<a><b/><b/></a>");
        let anyb = parse_xam("//b[id:s]").unwrap();
        let ab = parse_xam("/a{ /b[id:s] }").unwrap();
        assert!(c(&anyb, &ab, &s));
        assert!(c(&ab, &anyb, &s));
        assert!(equivalent(&anyb, &ab, &s));
    }

    #[test]
    fn branch_constraints_from_summary() {
        // every b has a c child in the summary-annotated sense? No: the
        // summary says b *can* have a c child; //b ⊆ //b[c] must FAIL
        // because a conforming document may have a b without c.
        let s = s_of("<a><b><c/></b><b><c/></b></a>");
        let b = parse_xam("//b[id:s]").unwrap();
        let bc = parse_xam("//b[id:s]{ /s c }").unwrap();
        // the canonical-tree check is purely structural: mod_S(//b) has the
        // tree a/b, which //b[c] does not accept
        assert!(!c(&b, &bc, &s));
        assert!(c(&bc, &b, &s));
    }

    #[test]
    fn intermediate_paths_resolved_by_summary() {
        // summary: a/f/d/e. //a//e ≡_S //a//d//e since every e is under d.
        let s = s_of("<a><f><d><e/></d></f></a>");
        let ae = parse_xam("//a{ //e[id:s] }").unwrap();
        let ade = parse_xam("//a{ //d{ //e[id:s] } }").unwrap();
        assert!(equivalent(&ae, &ade, &s));
    }

    #[test]
    fn decorated_containment() {
        let s = s_of("<a><b>3</b></a>");
        let p = parse_xam("//b[id:s,val=3]").unwrap();
        let q = parse_xam("//b[id:s,val>1]").unwrap();
        assert!(c(&p, &q, &s));
        assert!(!c(&q, &p, &s));
    }

    #[test]
    fn attribute_signature_must_match() {
        let s = s_of("<a><b/></a>");
        let p = parse_xam("//b[id:s]").unwrap();
        let q = parse_xam("//b[val]").unwrap();
        // same structure, different stored attributes → not contained
        assert!(!c(&p, &q, &s));
    }

    #[test]
    fn optional_pattern_containment() {
        // Figure 4.10-style: optional edges; p1 with optional branches is
        // contained in p2 = the same pattern with fewer constraints
        let s = s_of("<t><a><c><b/><d><e/></d></c><c/></a></t>");
        let p1 = parse_xam("//a{ /c[id:s]{ /? b[id:s], /? d{ /e } } }").unwrap();
        let p2 = parse_xam("//c[id:s]{ /? b[id:s] }").unwrap();
        assert!(c(&p1, &p2, &s));
    }

    #[test]
    fn union_containment() {
        // summary with b under a and b under d: //b ⊆ /a/b ∪ //d/b
        let s = s_of("<r><a><b/></a><d><b/></d></r>");
        let b = parse_xam("//b[id:s]").unwrap();
        let ab = parse_xam("//a{ /b[id:s] }").unwrap();
        let db = parse_xam("//d{ /b[id:s] }").unwrap();
        assert!(!c(&b, &ab, &s));
        assert!(!c(&b, &db, &s));
        assert!(contained_in_union(&b, &[&ab, &db], &s));
        assert!(contained_in_union(&ab, &[&b], &s));
    }

    #[test]
    fn union_value_cover() {
        // §4.4.2-style: v=3 region split across two patterns
        let s = s_of("<a><b>3</b></a>");
        let p = parse_xam("//b[id:s,val>0,val<10]").unwrap();
        let q1 = parse_xam("//b[id:s,val>0,val<5]").unwrap();
        let q2 = parse_xam("//b[id:s,val>=5]").unwrap();
        assert!(!c(&p, &q1, &s));
        assert!(contained_in_union(&p, &[&q1, &q2], &s));
        // removing the upper half breaks the cover
        assert!(!contained_in_union(&p, &[&q1], &s));
    }

    #[test]
    fn nested_pattern_conditions() {
        let s = s_of("<a><b><c/><c/></b><b><c/></b></a>");
        let flat = parse_xam("//b[id:s]{ /c[id:s] }").unwrap();
        let nested = parse_xam("//b[id:s]{ /n c[id:s] }").unwrap();
        // nesting depth differs → not contained either way
        assert!(!c(&flat, &nested, &s));
        assert!(!c(&nested, &flat, &s));
        assert!(c(&nested, &nested, &s));
    }

    #[test]
    fn nested_relaxation_via_one_to_one() {
        // x has exactly one w child (1-edge); nesting under x vs under w is
        // equivalent
        let s = s_of("<a><x><w><c/><c/></w></x><x><w><c/></w></x></a>");
        let under_x = parse_xam("//x[id:s]{ //n c[id:s] }").unwrap();
        let under_w = parse_xam("//x[id:s]{ /w{ /n c[id:s] } }").unwrap();
        assert!(c(&under_w, &under_x, &s));
    }

    #[test]
    fn satisfiability() {
        let s = s_of("<a><b/></a>");
        assert!(satisfiable(&parse_xam("//b").unwrap(), &s));
        assert!(!satisfiable(&parse_xam("//zzz").unwrap(), &s));
        assert!(!satisfiable(&parse_xam("//b{ /b }").unwrap(), &s));
    }

    #[test]
    fn early_exit_reports_fewer_trees() {
        let s = s_of("<a><b><c/></b><b><d/></b><b><e/></b></a>");
        let p = parse_xam("//b[id:s]").unwrap();
        let q = parse_xam("//b[id:s]{ /s c }").unwrap();
        let neg = contain(&p, &q, &s, &ContainOptions::default());
        assert!(!neg.contained);
        let pos = contain(&p, &p, &s, &ContainOptions::default());
        assert!(pos.contained);
        assert!(neg.trees_checked <= pos.trees_checked);
    }

    #[test]
    fn cached_verdicts_are_stable_and_hit() {
        let s = s_of("<a><b><c/></b><d/></a>");
        let cache = CanonicalCache::new(64);
        let p = parse_xam("//b[id:s]").unwrap();
        let q = parse_xam("//*[id:s]").unwrap();
        let opts = ContainOptions::default().with_cache(&cache);
        let first = contain(&p, &q, &s, &opts);
        let second = contain(&p, &q, &s, &opts);
        assert_eq!(first.contained, second.contained);
        assert_eq!(first.model_size, second.model_size);
        let stats = cache.stats();
        assert!(stats.hits >= 1, "second call should hit: {stats:?}");
        // the cached verdict agrees with the uncached one
        assert_eq!(
            first.contained,
            contain(&p, &q, &s, &ContainOptions::default()).contained
        );
    }
}
