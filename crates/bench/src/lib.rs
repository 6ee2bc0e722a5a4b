//! # uload-bench — inputs for the experiments, tests and benches
//!
//! The synthetic stand-ins for the paper's datasets and query patterns
//! (see DESIGN.md, *Substitutions*), shared by the `experiments` binary,
//! the property tests and the two Criterion benches.
//!
//! * [`datasets`] — the documents & summaries of Figure 4.13;
//! * [`xmark_queries`] — the 20 XMark benchmark query patterns;
//! * [`pattern_gen`] — the §4.6 random satisfiable-pattern generator
//!   (n = 3..13 nodes, fanout 3, P(\*) = 0.1, P(value pred) = 0.2,
//!   P(`//`) = 0.5, P(optional) = 0.5, 1–3 return nodes);
//! * [`twig`] — XMark twig workloads and the binary-cascade oracles the
//!   holistic twig join is checked against.

pub mod datasets;
pub mod pattern_gen;
pub mod twig;
pub mod xmark_queries;
