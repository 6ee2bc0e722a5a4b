//! # uload — physical data independence for XML via XML Access Modules
//!
//! The façade of the workspace: one import surface over the layered
//! crates (`xmltree` → `summary` → `xam-core` → `containment` →
//! `rewriting` → `storage` → `uload-server`). Typical use goes through
//! [`prelude`]:
//!
//! ```
//! use uload::prelude::*;
//!
//! let doc = parse_document("<bib><book><title>t</title></book></bib>")?;
//! let mut engine = Uload::builder()
//!     .document(&doc)
//!     .config(EngineConfig::default())
//!     .build()?;
//! engine.add_view_text("v", "//book[id:s]{ /n? t:title[cont] }", &doc)?;
//! let (results, rewritings) = engine.answer(
//!     r#"for $b in doc("d")//book return <r>{$b/title}</r>"#,
//!     &doc,
//! )?;
//! assert_eq!(results.len(), 1);
//! assert_eq!(rewritings[0].views_used, vec!["v"]);
//! # uload::Result::Ok(())
//! ```
//!
//! For the serving path, the same query goes through a versioned
//! [`DocumentHandle`] and a reusable [`PreparedQuery`]:
//!
//! ```
//! use uload::prelude::*;
//!
//! let doc = parse_document("<bib><book><title>t</title></book></bib>")?;
//! let mut engine = Uload::builder().document(&doc).build()?;
//! engine.add_view_text("v", "//book[id:s]{ /n? t:title[cont] }", &doc)?;
//! let handle = DocumentHandle::new(doc);
//! let prep = engine.prepare_query(
//!     r#"for $b in doc("d")//book return <r>{$b/title}</r>"#,
//! )?;
//! let out = engine.execute_prepared(&prep, &handle)?;
//! assert_eq!(out.items.len(), 1);
//! assert_eq!(out.plan_fingerprint, prep.fingerprint());
//! # uload::Result::Ok(())
//! ```
//!
//! One-off helpers that need no engine instance (XAM evaluation, direct
//! XQuery execution, pattern extraction) are associated functions on
//! [`Uload`] — [`Uload::evaluate_xam`], [`Uload::execute_direct`],
//! [`Uload::parse_query`], [`Uload::extract_patterns`]. Only
//! [`parse_document`] and [`parse_xam`] remain first-class crate-root
//! functions (they are the two entry points everything else starts
//! from); the old deprecated free-function wrappers are gone.
//!
//! Every fallible function of this façade returns [`Result`] with the
//! unified [`Error`] — the per-crate error types never surface here.

pub use uload_error::{Error, Result};

pub use algebra::{fuse_struct_joins, Evaluator, Relation, StreamExec, TupleBatch, TwigPattern};
pub use containment::{
    canonical_model, contain, contained_in_union, equivalent, equivalent_with,
    minimize_by_contraction, minimize_by_contraction_with, minimize_global, minimize_global_with,
    satisfiable, CacheStats, CanonicalCache, ContainOptions, ContainmentOutcome,
};
pub use obs::json;
pub use obs::{
    init_from_env, CacheCounters, Counter, EnvFilter, ExecMetrics, FmtSubscriber, Gauge, Histogram,
    HistogramSnapshot, Json, MetricsRegistry, OpStreamProfile, PlanNodeProfile, QErrorSnapshot,
    QueryProfile, RegistrySnapshot, ResultCacheCounters, SessionProfile, StreamProfile,
};
pub use rewriting::{
    plan_fingerprint, rewrite_with_engine, CostModel, EngineConfig, EngineOptions, Estimate,
    EstimateNode, Explain, PreparedQuery, QueryItem, QueryOutput, QueryResults, RewriteConfig,
    RewriteStats, Rewriting, Uload, UloadBuilder,
};
pub use storage::{catalog, qep, DocumentHandle, DocumentVersion, IdStreamIndex};
pub use summary::Summary;
pub use xam_core::{Xam, XamNodeId};
pub use xmltree::{generate, Document};
pub use xquery::{ExtractedQuery, Query};

/// The multi-client serving layer (re-export of the `uload-server`
/// crate): [`server::Server`], [`server::ServerConfig`],
/// [`server::Client`] and the line protocol.
pub use uload_server as server;

pub use uload_server::{
    BindAddr, Client, ExecReply, Server, ServerConfig, ServerHandle, ServerMetrics, SlowLog,
    SlowQueryEntry,
};

/// Parse an XML document (façade wrapper returning the unified error).
pub fn parse_document(text: &str) -> Result<Document> {
    Uload::parse_document(text)
}

/// Parse a textual XAM pattern.
pub fn parse_xam(text: &str) -> Result<Xam> {
    Uload::parse_xam(text)
}

/// The one-stop import: `use uload::prelude::*;`.
///
/// The one-off helpers live as associated functions on [`Uload`], which
/// the prelude already brings in.
pub mod prelude {
    pub use crate::{
        canonical_model, catalog, contain, contained_in_union, equivalent, fuse_struct_joins,
        generate, init_from_env, minimize_by_contraction, minimize_global, parse_document,
        parse_xam, plan_fingerprint, qep, rewrite_with_engine, BindAddr, CacheStats,
        CanonicalCache, Client, ContainOptions, ContainmentOutcome, CostModel, Document,
        DocumentHandle, DocumentVersion, EngineConfig, EngineOptions, Error, Estimate,
        EstimateNode, Evaluator, ExecReply, Explain, Histogram, HistogramSnapshot, IdStreamIndex,
        MetricsRegistry, PlanNodeProfile, PreparedQuery, QueryItem, QueryOutput, QueryProfile,
        QueryResults, Relation, Result, ResultCacheCounters, RewriteConfig, Rewriting, Server,
        ServerConfig, ServerHandle, SessionProfile, StreamProfile, Summary, TupleBatch,
        TwigPattern, Uload, Xam,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_roundtrip() {
        let doc = parse_document("<a><b>1</b><b>2</b></a>").unwrap();
        let s = Summary::of_document(&doc);
        let p = parse_xam("//b[id:s]").unwrap();
        let out = contain(&p, &p, &s, &ContainOptions::default());
        assert!(out.contained);
        assert!(matches!(parse_document("<unclosed>"), Err(Error::Parse(_))));
        assert!(matches!(parse_xam("//["), Err(Error::Parse(_))));
    }

    #[test]
    fn builder_through_prelude() {
        let doc = parse_document("<a><b/></a>").unwrap();
        let engine = Uload::builder()
            .document(&doc)
            .config(EngineConfig::default())
            .build()
            .unwrap();
        assert_eq!(engine.summary().len(), 2);
    }

    #[test]
    fn associated_facade_helpers_work() {
        let doc = parse_document("<a><b>1</b></a>").unwrap();
        let xam = parse_xam("//b[id:s]").unwrap();
        let rel = Uload::evaluate_xam(&xam, &doc).unwrap();
        assert_eq!(rel.len(), 1);
        let out = Uload::execute_direct(r#"doc("d")//b"#, &doc).unwrap();
        assert_eq!(out.items.len(), 1);
        let q = Uload::parse_query(r#"doc("d")//b"#).unwrap();
        assert!(!Uload::extract_patterns(&q).unwrap().patterns.is_empty());
    }
}
