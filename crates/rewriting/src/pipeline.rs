//! The end-to-end ULoad pipeline (Figure 5.1): XQuery in, XML out,
//! evaluated **entirely over materialized views**.
//!
//! [`Uload`] holds a document's summary and a [`storage::MaterializedStore`]
//! of XAM views. [`Uload::answer`] parses a query, extracts its maximal
//! patterns, rewrites each against the view set, substitutes the
//! rewritings into the combined plan (products, value-join post-filters,
//! tagging template) and executes. If some pattern has no rewriting, the
//! query is not answerable from the views and an error is returned —
//! rewritings are *total* (§5.1).
//!
//! Engines are assembled with [`Uload::builder`]; [`EngineConfig`]
//! selects worker threads and the shared containment cache, both of
//! which change only wall-clock time, never results.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use algebra::{CursorConfig, Evaluator, LogicalPlan, OpStats, Relation, StreamExec, TupleBatch};
use containment::{CacheStats, CanonicalCache};
use obs::{
    CacheCounters, OpStreamProfile, PlanNodeProfile, QErrorHistograms, QErrorSnapshot,
    QueryProfile, StreamProfile,
};
use parking_lot::Mutex;
use storage::DocumentHandle;
use summary::Summary;
use uload_error::{Error, Result};
use xam_core::Xam;
use xmltree::Document;

use crate::cost::{CostModel, EstimateNode};
use crate::rewrite::{rewrite_indexed, EngineOptions, RewriteConfig, Rewriting};
use crate::viewindex::ViewIndex;

/// Engine-wide execution knobs, threaded through [`Uload`] to every
/// containment and rewriting call.
///
/// **The one way to build a configuration** is `Default` plus the
/// chainable `with_*` setters — the same style `ContainOptions` uses —
/// handed to [`UloadBuilder::config`]:
///
/// ```
/// # use rewriting::{EngineConfig, Uload};
/// # let doc = xmltree::parse_document("<a><b/></a>").unwrap();
/// let engine = Uload::builder()
///     .document(&doc)
///     .config(
///         EngineConfig::default()
///             .with_threads(4)
///             .with_cache_capacity(1024)
///             .with_batch_size(256),
///     )
///     .build()?;
/// # assert_eq!(engine.config().threads, 4);
/// # uload_error::Result::Ok(())
/// ```
///
/// (The fields stay `pub` for struct-literal updates in tests and
/// experiments; `with_*` is the blessed call-site style.)
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for canonical-model enumeration and candidate
    /// verification. `0` and `1` both mean sequential. Results are
    /// deterministic at any thread count (worker outputs are merged in
    /// stable candidate order).
    pub threads: usize,
    /// Capacity of the shared [`CanonicalCache`] (verdict entries);
    /// `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Collect an `EXPLAIN ANALYZE` [`QueryProfile`] on every
    /// [`Uload::answer`] call (retrievable via [`Uload::last_profile`]).
    /// A profiled answer is one metered run of the plan; off (the
    /// default), answering takes the unmetered path.
    pub profiling: bool,
    /// Target rows per [`TupleBatch`] pulled through the streaming
    /// executor behind [`Uload::query`] (must be ≥ 1). Operators may
    /// emit smaller batches (filters) or larger ones (joins, `Unnest`);
    /// this only sets the granularity at which base scans chunk.
    pub batch_size: usize,
    /// The rewriting search bounds (§5.3's generate-and-test knobs).
    pub rewrite: RewriteConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            cache_capacity: 4096,
            profiling: false,
            batch_size: 1024,
            rewrite: RewriteConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Worker threads (`0` and `1` both mean sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shared-cache capacity; `0` disables caching.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Toggle `EXPLAIN ANALYZE` profiling of every answered query.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Target rows per streamed batch (≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// The rewriting search bounds.
    pub fn with_rewrite(mut self, rewrite: RewriteConfig) -> Self {
        self.rewrite = rewrite;
        self
    }

    /// Sanity-check the knobs (the builder calls this).
    pub fn validate(&self) -> Result<()> {
        if self.threads > 1024 {
            return Err(Error::Config(format!(
                "threads = {} exceeds the 1024 worker limit",
                self.threads
            )));
        }
        if self.batch_size == 0 {
            return Err(Error::Config("batch_size must be at least 1".into()));
        }
        if self.rewrite.max_views == 0 {
            return Err(Error::Config("rewrite.max_views must be at least 1".into()));
        }
        if self.rewrite.max_mappings == 0 {
            return Err(Error::Config(
                "rewrite.max_mappings must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`Uload`]: `Uload::builder().document(&doc).build()?`.
pub struct UloadBuilder<'d> {
    doc: Option<&'d Document>,
    config: EngineConfig,
}

impl<'d> UloadBuilder<'d> {
    /// The document whose summary the engine is set up over (required).
    pub fn document(mut self, doc: &'d Document) -> Self {
        self.doc = Some(doc);
        self
    }

    /// Replace the whole configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads (shortcut for mutating [`EngineConfig::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Cache capacity; `0` disables the shared cache.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Toggle `EXPLAIN ANALYZE` profiling of every answered query.
    pub fn profiling(mut self, on: bool) -> Self {
        self.config.profiling = on;
        self
    }

    /// Target rows per batch of the streaming executor (≥ 1).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// The rewriting search bounds.
    pub fn rewrite_config(mut self, rewrite: RewriteConfig) -> Self {
        self.config.rewrite = rewrite;
        self
    }

    /// Validate the configuration and assemble the engine.
    pub fn build(self) -> Result<Uload> {
        let doc = self
            .doc
            .ok_or_else(|| Error::Config("UloadBuilder: no document was provided".into()))?;
        self.config.validate()?;
        Ok(Uload::assemble(doc, self.config))
    }
}

/// The ULoad prototype: a summary-aware, view-backed XQuery processor.
pub struct Uload {
    summary: Summary,
    summary_fp: u64,
    store: storage::MaterializedStore,
    /// The rewriter's index over `store`'s definitions, kept in step by
    /// [`Uload::add_view`].
    view_index: ViewIndex,
    config: EngineConfig,
    cache: Option<Arc<CanonicalCache>>,
    last_profile: Mutex<Option<QueryProfile>>,
    q_error: QErrorHistograms,
}

impl Uload {
    /// Start building an engine: `Uload::builder().document(&doc).build()?`.
    pub fn builder<'d>() -> UloadBuilder<'d> {
        UloadBuilder {
            doc: None,
            config: EngineConfig::default(),
        }
    }

    fn assemble(doc: &Document, config: EngineConfig) -> Uload {
        let summary = Summary::of_document(doc);
        let summary_fp = containment::cache::summary_fingerprint(&summary);
        let cache = if config.cache_capacity > 0 {
            Some(Arc::new(CanonicalCache::new(config.cache_capacity)))
        } else {
            None
        };
        Uload {
            summary,
            summary_fp,
            store: storage::MaterializedStore::new(),
            view_index: ViewIndex::default(),
            config,
            cache,
            last_profile: Mutex::new(None),
            q_error: QErrorHistograms::new(&LogicalPlan::KINDS),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    pub fn store(&self) -> &storage::MaterializedStore {
        &self.store
    }

    /// The view index the rewriter searches: one slot per definition of
    /// [`Uload::store`], in the same order.
    pub fn view_index(&self) -> &ViewIndex {
        &self.view_index
    }

    /// Build the columnar ID-stream access module for `doc`, every
    /// column partitioned by the engine's summary so pattern scans can
    /// open only summary-compatible partitions
    /// ([`storage::IdStreamIndex::pruned_stream`]).
    pub fn id_stream_index(&self, doc: &Document) -> storage::IdStreamIndex {
        storage::IdStreamIndex::build_with_summary(doc, &self.summary)
    }

    /// Effectiveness counters of the shared cache (`None` when caching
    /// is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_deref().map(CanonicalCache::stats)
    }

    /// The engine's estimate error so far: one histogram of q-error ×100
    /// per operator kind, with one observation per node of every
    /// profile [`Uload::answer_profiled`], [`Uload::profile_prepared`]
    /// and [`Uload::profile_stream`] produced.
    pub fn q_error(&self) -> QErrorSnapshot {
        self.q_error.snapshot()
    }

    /// The execution context handed to the rewriting/containment layers.
    fn engine_options(&self) -> EngineOptions<'_> {
        EngineOptions {
            threads: self.config.threads,
            cache: self.cache.as_deref(),
            summary_fp: Some(self.summary_fp),
        }
    }

    /// Materialize a view over the document and add it to the set — the
    /// only step needed to change the physical design (no optimizer code).
    /// A name added again replaces its view in place.
    pub fn add_view(&mut self, name: impl Into<String>, xam: Xam, doc: &Document) -> Result<()> {
        let pos = self
            .store
            .add_view(name, xam, doc)
            .map_err(|e| Error::Storage(e.to_string()))?;
        let (_, xam) = &self.store.definitions()[pos];
        self.view_index.set(pos, xam, &self.summary);
        Ok(())
    }

    /// Parse a textual XAM and add it as a view.
    pub fn add_view_text(
        &mut self,
        name: impl Into<String>,
        text: &str,
        doc: &Document,
    ) -> Result<()> {
        let xam = xam_core::parse_xam(text).map_err(|e| Error::Parse(e.to_string()))?;
        self.add_view(name, xam, doc)
    }

    /// Rewrite one pattern against the current views, ranked by the
    /// estimated cost over the *actual* view sizes (cheapest first); ties
    /// fall back to the paper's operator-count minimality.
    pub fn rewrite_pattern(&self, q: &Xam) -> Vec<Rewriting> {
        let (rws, _) = rewrite_indexed(
            q,
            self.store.definitions(),
            Some(&self.view_index),
            &self.summary,
            self.config.rewrite,
            &self.engine_options(),
        );
        let model = CostModel::new(self.store.catalog());
        let mut priced: Vec<(f64, Rewriting)> = rws
            .into_iter()
            .map(|rw| (model.cost(&rw.plan), rw))
            .collect();
        priced.sort_by(|(ca, a), (cb, b)| {
            ca.partial_cmp(cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.size.cmp(&b.size))
        });
        priced.into_iter().map(|(_, rw)| rw).collect()
    }

    /// Parse, extract, rewrite, combine and fuse: everything up to
    /// evaluation, with per-phase wall times. Structural-join cascades
    /// always fuse into holistic `TwigJoin` operators.
    fn prepare(&self, query: &str) -> Result<Prepared> {
        let t = Instant::now();
        let q = xquery::parse_query(query).map_err(|e| Error::Parse(e.to_string()))?;
        let parse_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let ex = xquery::extract_patterns(&q).map_err(|e| Error::Translate(e.to_string()))?;
        let extract_ns = t.elapsed().as_nanos() as u64;
        tracing::debug!(
            target: "uload::query",
            "extracted {} pattern(s) from query",
            ex.patterns.len()
        );

        let t = Instant::now();
        let mut plans: Vec<LogicalPlan> = Vec::new();
        let mut used: Vec<Rewriting> = Vec::new();
        for (i, pat) in ex.patterns.iter().enumerate() {
            if !containment::satisfiable(pat, &self.summary) {
                return Err(Error::UnsatisfiablePattern(pat.to_string()));
            }
            let rws = self.rewrite_pattern(pat);
            match rws.into_iter().next() {
                Some(rw) => {
                    tracing::debug!(
                        target: "uload::rewrite",
                        "pattern {i} rewritten over views {:?} ({} operators)",
                        rw.views_used,
                        rw.size
                    );
                    plans.push(rw.plan.clone());
                    used.push(rw);
                }
                None => {
                    return Err(Error::NoRewriting {
                        pattern_index: i,
                        pattern: pat.to_string(),
                    })
                }
            }
        }
        let rewrite_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let plan = algebra::fuse_struct_joins(&xquery::translate::combine_plans(&ex, plans));
        let plan_ns = t.elapsed().as_nanos() as u64;
        Ok(Prepared {
            plan,
            used,
            parse_ns,
            extract_ns,
            rewrite_ns,
            plan_ns,
        })
    }

    fn serialize(rel: &Relation) -> Vec<String> {
        rel.tuples
            .iter()
            .map(|t| t.get(0).as_str().unwrap_or("").to_string())
            .collect()
    }

    /// Answer a query from the views: returns one serialized XML string
    /// per result, plus the per-pattern rewritings used.
    ///
    /// With [`EngineConfig::profiling`] on, this runs the profiled path
    /// and stashes the resulting [`QueryProfile`] for
    /// [`Uload::last_profile`].
    pub fn answer(&self, query: &str, doc: &Document) -> Result<(Vec<String>, Vec<Rewriting>)> {
        if self.config.profiling {
            let (out, used, _) = self.answer_profiled(query, doc)?;
            return Ok((out, used));
        }
        let span = tracing::debug_span!(target: "uload::query", "answer");
        let _g = span.enter();
        let prep = self.prepare_query(query)?;
        let out = self.answer_prepared(&prep, doc)?;
        Ok((out, prep.rewritings))
    }

    /// Parse, extract, rewrite and plan a query once, returning a
    /// [`PreparedQuery`] that can be executed any number of times (and
    /// from any thread — it is plain data). This is the server's
    /// `PREPARE` step: the expensive phases run once, and the prepared
    /// plan's [`PreparedQuery::fingerprint`] keys both the prepared-plan
    /// registry and the `(fingerprint, document version)` result cache.
    pub fn prepare_query(&self, query: &str) -> Result<PreparedQuery> {
        let span = tracing::debug_span!(target: "uload::query", "prepare");
        let _g = span.enter();
        let p = self.prepare(query)?;
        Ok(self.finish_prepared(query, p.plan, p.used))
    }

    /// Wrap an executable plan as a [`PreparedQuery`]; its breakers are
    /// classified over the store's catalog, by the rule the executor
    /// compiles with.
    fn finish_prepared(
        &self,
        query: &str,
        plan: LogicalPlan,
        rewritings: Vec<Rewriting>,
    ) -> PreparedQuery {
        let breakers = algebra::pipeline_breakers(&plan, self.store.catalog());
        let fingerprint = plan_fingerprint(&plan);
        PreparedQuery {
            query: query.to_string(),
            plan,
            rewritings,
            breakers,
            fingerprint,
        }
    }

    /// `EXPLAIN` without executing: the plan [`Uload::prepare_query`]
    /// returns, with the per-node [`crate::cost::Estimate`]s the planner
    /// ranked it by.
    pub fn explain(&self, query: &str) -> Result<Explain> {
        let p = self.prepare(query)?;
        Ok(Explain {
            query: query.to_string(),
            fingerprint: plan_fingerprint(&p.plan),
            plan: CostModel::new(self.store.catalog()).estimate_tree(&p.plan),
        })
    }

    /// Execute a prepared plan to completion (materialized), returning
    /// the serialized rows. The plan was already fused at prepare time;
    /// only the per-call document is supplied here.
    pub fn answer_prepared(&self, prep: &PreparedQuery, doc: &Document) -> Result<Vec<String>> {
        let rel = Evaluator::with_document(self.store.catalog(), doc)
            .eval(&prep.plan)
            .map_err(|e| Error::Eval(e.to_string()))?;
        Ok(Self::serialize(&rel))
    }

    /// Execute a prepared plan over a versioned [`DocumentHandle`] —
    /// the serving path's entry point — returning the typed
    /// [`QueryOutput`] whose `plan_fingerprint` equals
    /// [`PreparedQuery::fingerprint`].
    pub fn execute_prepared(
        &self,
        prep: &PreparedQuery,
        handle: &DocumentHandle,
    ) -> Result<QueryOutput> {
        let items = self.answer_prepared(prep, handle.document())?;
        Ok(QueryOutput {
            items: items.into_iter().map(|xml| QueryItem { xml }).collect(),
            plan_fingerprint: prep.fingerprint,
        })
    }

    /// Stream a prepared plan over a versioned [`DocumentHandle`]. Like
    /// [`Uload::query`] this supports batch-at-a-time pulls and
    /// first-class cancellation via [`QueryResults::close`] (or drop) —
    /// the hook the server's per-request `CANCEL` and its
    /// admission-budget enforcement reuse.
    pub fn stream_prepared<'e>(
        &'e self,
        prep: &PreparedQuery,
        handle: &'e DocumentHandle,
    ) -> Result<QueryResults<'e>> {
        self.stream_prepared_with(prep, handle.document(), self.config.profiling)
    }

    /// [`Uload::stream_prepared`] with per-operator metering forced on
    /// regardless of [`EngineConfig::profiling`], so
    /// [`QueryResults::stream_profile`] reports real kernel counters and
    /// [`Uload::profile_stream`] can read the run's `EXPLAIN ANALYZE`
    /// off it. The server's telemetry path uses this to feed per-session
    /// and registry `ExecMetrics` totals; the `Meter` kernels make the
    /// metered run cost the same as the plain one (held to ≤5% by the
    /// `telemetry_overhead` bench).
    pub fn stream_prepared_metered<'e>(
        &'e self,
        prep: &PreparedQuery,
        handle: &'e DocumentHandle,
    ) -> Result<QueryResults<'e>> {
        self.stream_prepared_with(prep, handle.document(), true)
    }

    fn stream_prepared_with<'e>(
        &'e self,
        prep: &PreparedQuery,
        doc: &'e Document,
        profiling: bool,
    ) -> Result<QueryResults<'e>> {
        let ccfg = CursorConfig {
            batch_size: self.config.batch_size,
            profiling,
        };
        if !prep.breakers.is_empty() {
            tracing::debug!(
                target: "uload::eval",
                "plan has {} pipeline breaker(s): {:?}",
                prep.breakers.len(),
                prep.breakers
            );
        }
        let exec = algebra::build_cursor(&prep.plan, self.store.catalog(), Some(doc), &ccfg)
            .map_err(|e| Error::Eval(e.to_string()))?;
        Ok(QueryResults {
            exec,
            pending: VecDeque::new(),
            rewritings: prep.rewritings.clone(),
            breakers: prep.breakers.clone(),
            batches: 0,
            rows: 0,
            closed: false,
        })
    }

    /// Answer a query as a *stream*: rewrite and plan up front, then
    /// return a [`QueryResults`] cursor that pulls result batches on
    /// demand through the executor. Nothing beyond the plan's
    /// pipeline breakers (and join build sides) is materialized, and
    /// dropping or [`QueryResults::close`]-ing the stream early cancels
    /// the whole cursor tree — the LIMIT-style early-termination path.
    ///
    /// The streamed rows are exactly [`Uload::answer`]'s rows, in the
    /// same order: `answer` is this stream drained as one batch.
    pub fn query<'e>(&'e self, query: &str, doc: &'e Document) -> Result<QueryResults<'e>> {
        let span = tracing::debug_span!(target: "uload::query", "query");
        let _g = span.enter();
        let prep = self.prepare_query(query)?;
        self.stream_prepared_with(&prep, doc, self.config.profiling)
    }

    /// `EXPLAIN ANALYZE`: answer the query while measuring every phase
    /// and operator, pairing the cost model's estimates with actuals.
    ///
    /// The plan runs **once**, metered, and the profile — plan tree and
    /// stream report alike — is read off the counters that run kept.
    pub fn answer_profiled(
        &self,
        query: &str,
        doc: &Document,
    ) -> Result<(Vec<String>, Vec<Rewriting>, QueryProfile)> {
        let total = Instant::now();
        let span = tracing::debug_span!(target: "uload::query", "answer_profiled");
        let _g = span.enter();
        let p = self.prepare(query)?;
        let prep = self.finish_prepared(query, p.plan, p.used);

        let t = Instant::now();
        let mut results = self.stream_prepared_with(&prep, doc, true)?;
        let out = results.by_ref().collect::<Result<Vec<String>>>()?;
        let eval_ns = t.elapsed().as_nanos() as u64;

        let mut profile = self
            .profile_of(&prep, &results)
            .expect("the run was metered");
        profile.phases = vec![
            ("parse".to_string(), p.parse_ns),
            ("extract".to_string(), p.extract_ns),
            ("rewrite".to_string(), p.rewrite_ns),
            ("plan".to_string(), p.plan_ns),
            ("eval".to_string(), eval_ns),
        ];
        profile.total_ns = total.elapsed().as_nanos() as u64;
        self.publish_profile(&prep, &profile);
        Ok((out, prep.rewritings, profile))
    }

    /// `EXPLAIN ANALYZE` an already-prepared plan over a versioned
    /// [`DocumentHandle`]: one metered run
    /// ([`Uload::stream_prepared_metered`]) drained, and its
    /// [`Uload::profile_stream`].
    pub fn profile_prepared(
        &self,
        prep: &PreparedQuery,
        handle: &DocumentHandle,
    ) -> Result<QueryProfile> {
        let span = tracing::debug_span!(target: "uload::query", "profile_prepared");
        let _g = span.enter();
        let mut results = self.stream_prepared_metered(prep, handle)?;
        while results.next_batch()?.is_some() {}
        Ok(self
            .profile_stream(prep, &results)
            .expect("the run was metered"))
    }

    /// The `EXPLAIN ANALYZE` record of a run that has already happened:
    /// `results` is `prep` streamed with metering on
    /// ([`Uload::stream_prepared_metered`], or any stream of a profiling
    /// engine) and pulled as far as the caller cared to; `None` if it was
    /// not metered. Nothing is executed here — the cost model's estimates
    /// are paired with the counters the run kept. The profile's q-errors
    /// are recorded ([`Uload::q_error`]) and the profile is stashed for
    /// [`Uload::last_profile`]. This is how the server profiles a slow
    /// query without running it twice.
    pub fn profile_stream(
        &self,
        prep: &PreparedQuery,
        results: &QueryResults<'_>,
    ) -> Option<QueryProfile> {
        let profile = self.profile_of(prep, results)?;
        self.publish_profile(prep, &profile);
        Some(profile)
    }

    /// Pair the cost model's estimate tree for `prep`'s plan with the
    /// per-node counters `results` kept (`None` if it kept none). The one
    /// phase is `eval`: the root operator's inclusive time.
    fn profile_of(&self, prep: &PreparedQuery, results: &QueryResults<'_>) -> Option<QueryProfile> {
        let ops = results.exec.op_stats();
        let eval_ns = ops.first()?.cells.time_ns.get();
        let estimates = CostModel::new(self.store.catalog()).estimate_tree(&prep.plan);
        let mut ops = ops.iter();
        let plan = pair_nodes(&estimates, &mut ops);
        debug_assert!(ops.next().is_none(), "one slot per plan node");
        Some(QueryProfile {
            query: prep.query.clone(),
            phases: vec![("eval".to_string(), eval_ns)],
            plan,
            cache: self.cache_stats().map(|s| CacheCounters {
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                verdict_entries: s.verdict_entries,
                model_entries: s.model_entries,
                annotation_entries: s.annotation_entries,
            }),
            streamed: Some(results.stream_profile()),
            total_ns: eval_ns,
        })
    }

    /// Record every node's q-error under its operator kind and stash
    /// the profile for [`Uload::last_profile`].
    fn publish_profile(&self, prep: &PreparedQuery, profile: &QueryProfile) {
        fn record(q_error: &QErrorHistograms, plan: &LogicalPlan, node: &PlanNodeProfile) {
            q_error.record(plan.kind(), node.est_rows, node.actual_rows);
            for (child, node) in plan.child_plans().into_iter().zip(&node.children) {
                record(q_error, child, node);
            }
        }
        record(&self.q_error, &prep.plan, &profile.plan);
        *self.last_profile.lock() = Some(profile.clone());
    }

    /// The profile of the most recent profiled answer on this engine
    /// (`None` until one has run).
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().clone()
    }
}

/// Associated façade helpers: the blessed single entry surface for the
/// parsing/translation steps that need no engine instance. (These used
/// to be loose free functions on the `uload` crate root; the root keeps
/// thin delegating wrappers for the widely-used ones.)
impl Uload {
    /// Parse an XML document.
    pub fn parse_document(text: &str) -> Result<Document> {
        xmltree::parse_document(text).map_err(|e| Error::Parse(e.to_string()))
    }

    /// Parse a textual XAM pattern.
    pub fn parse_xam(text: &str) -> Result<Xam> {
        xam_core::parse_xam(text).map_err(|e| Error::Parse(e.to_string()))
    }

    /// Parse an XQuery into its AST (for pattern extraction).
    pub fn parse_query(text: &str) -> Result<xquery::Query> {
        xquery::parse_query(text).map_err(|e| Error::Parse(e.to_string()))
    }

    /// Extract the maximal XAM patterns of a parsed XQuery (Chapter 3).
    pub fn extract_patterns(q: &xquery::Query) -> Result<xquery::ExtractedQuery> {
        xquery::extract_patterns(q).map_err(|e| Error::Translate(e.to_string()))
    }

    /// Evaluate a XAM directly over a document (no views involved).
    pub fn evaluate_xam(xam: &Xam, doc: &Document) -> Result<Relation> {
        xam_core::evaluate(xam, doc).map_err(|e| Error::Eval(e.to_string()))
    }

    /// Execute an XQuery directly over a document (no views involved),
    /// returning the typed [`QueryOutput`].
    pub fn execute_direct(text: &str, doc: &Document) -> Result<QueryOutput> {
        let (items, plan) = xquery::execute_query_with_plan(text, doc)
            .map_err(|e| Error::Translate(e.to_string()))?;
        Ok(QueryOutput {
            items: items.into_iter().map(|xml| QueryItem { xml }).collect(),
            plan_fingerprint: plan_fingerprint(&plan),
        })
    }
}

/// Hash of a logical plan's canonical textual form — stable across runs
/// of the same engine version, so two queries that plan identically
/// (modulo whitespace, variable spelling or any rewrite that converges
/// on the same plan) share one fingerprint. This is the key of the
/// server's prepared-plan registry and (paired with a
/// [`storage::DocumentVersion`]) of its result cache.
pub fn plan_fingerprint(plan: &LogicalPlan) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    plan.to_string().hash(&mut h);
    h.finish()
}

/// A query prepared once and executable many times: the executable plan
/// (structural-join cascades already fused into twigs), the rewritings that
/// produced it, and the plan [`fingerprint`](PreparedQuery::fingerprint).
/// Plain data — `Send + Sync`, shareable across server sessions.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    query: String,
    plan: LogicalPlan,
    rewritings: Vec<Rewriting>,
    breakers: Vec<String>,
    fingerprint: u64,
}

impl PreparedQuery {
    /// The original query text.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The executable plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The per-pattern rewritings the planner chose.
    pub fn rewritings(&self) -> &[Rewriting] {
        &self.rewritings
    }

    /// Hash of the executable plan's canonical form (see
    /// [`plan_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Pre-order labels of the plan's pipeline breakers.
    pub fn breakers(&self) -> &[String] {
        &self.breakers
    }
}

/// Typed output of [`Uload::execute_prepared`] / [`Uload::execute_direct`]:
/// one serialized item per result row, plus a fingerprint of the logical
/// plan that produced them (stable across runs of the same engine
/// version, so regressions in planning show up as a fingerprint change
/// even when the rows agree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The query's result items, in result order.
    pub items: Vec<QueryItem>,
    /// Hash of the executed logical plan's canonical textual form.
    pub plan_fingerprint: u64,
}

/// One serialized result item of a [`QueryOutput`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryItem {
    /// The item serialized as XML.
    pub xml: String,
}

impl QueryOutput {
    /// The serialized items as plain strings (the pre-0.4 shape).
    pub fn into_strings(self) -> Vec<String> {
        self.items.into_iter().map(|i| i.xml).collect()
    }
}

/// A streaming result set from [`Uload::query`].
///
/// Iterates serialized XML items (`Iterator<Item = Result<String>>`),
/// pulling tuple batches through the pipelined executor only as they
/// are consumed. For batch-at-a-time consumers, [`QueryResults::next_batch`]
/// exposes the raw [`TupleBatch`]es instead (the two drain the same
/// stream — don't interleave them unless that's what you mean).
///
/// Stopping early is first-class: [`QueryResults::close`] (or simply
/// dropping the value) cancels the whole cursor tree, so a LIMIT-style
/// consumer never pays for the rows it doesn't look at.
pub struct QueryResults<'e> {
    exec: StreamExec<'e>,
    pending: VecDeque<String>,
    rewritings: Vec<Rewriting>,
    breakers: Vec<String>,
    batches: u64,
    rows: u64,
    closed: bool,
}

impl QueryResults<'_> {
    /// Pull the next raw batch of result tuples (`None` once exhausted
    /// or after [`QueryResults::close`]).
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.closed {
            return Ok(None);
        }
        match self.exec.next_batch() {
            Ok(Some(b)) => {
                self.batches += 1;
                self.rows += b.len() as u64;
                Ok(Some(b))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(Error::Eval(e.to_string())),
        }
    }

    /// Cancel the stream: close the whole cursor tree and release its
    /// resident state. Idempotent; also runs on drop.
    pub fn close(&mut self) {
        if !self.closed {
            self.exec.close();
            self.closed = true;
        }
    }

    /// The per-pattern rewritings the planner chose for this query.
    pub fn rewritings(&self) -> &[Rewriting] {
        &self.rewritings
    }

    /// Pre-order labels of the plan's pipeline breakers (operators that
    /// must buffer their whole input before emitting).
    pub fn breakers(&self) -> &[String] {
        &self.breakers
    }

    /// The configured target batch size.
    pub fn batch_size(&self) -> usize {
        self.exec.batch_size()
    }

    /// Rows pulled out of the stream so far.
    pub fn rows_emitted(&self) -> u64 {
        self.rows
    }

    /// High-water mark of tuples resident in the executor so far.
    pub fn peak_resident_tuples(&self) -> u64 {
        self.exec.peak_resident()
    }

    /// Snapshot of this stream's profile so far. Per-operator entries
    /// are populated only for a metered stream
    /// ([`Uload::stream_prepared_metered`], or an engine built with
    /// [`EngineConfig::profiling`] on); the top-level batch/row/residency
    /// counters are always live.
    pub fn stream_profile(&self) -> StreamProfile {
        stream_profile_of(&self.exec, self.batches, self.rows, self.breakers.clone())
    }
}

impl Iterator for QueryResults<'_> {
    type Item = Result<String>;

    fn next(&mut self) -> Option<Result<String>> {
        loop {
            if let Some(s) = self.pending.pop_front() {
                return Some(Ok(s));
            }
            match self.next_batch() {
                Ok(Some(b)) => self.pending.extend(
                    b.tuples
                        .iter()
                        .map(|t| t.get(0).as_str().unwrap_or("").to_string()),
                ),
                Ok(None) => return None,
                Err(e) => {
                    self.close();
                    return Some(Err(e));
                }
            }
        }
    }
}

impl Drop for QueryResults<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Assemble a [`StreamProfile`] from a (possibly drained) executor.
fn stream_profile_of(
    exec: &StreamExec<'_>,
    batches: u64,
    rows: u64,
    breakers: Vec<String>,
) -> StreamProfile {
    let ops = exec
        .op_stats()
        .iter()
        .map(|o| OpStreamProfile {
            op: o.label.clone(),
            breaker: o.breaker,
            batches: o.cells.batches.get(),
            rows: o.cells.rows.get(),
            metrics: *o.cells.metrics.borrow(),
        })
        .collect();
    StreamProfile {
        batch_size: exec.batch_size() as u64,
        batches,
        rows,
        peak_resident_tuples: exec.peak_resident(),
        breakers,
        ops,
    }
}

/// Output of [`Uload::prepare`]: the combined, fused plan plus the
/// rewritings and phase wall times that produced it.
struct Prepared {
    plan: LogicalPlan,
    used: Vec<Rewriting>,
    parse_ns: u64,
    extract_ns: u64,
    rewrite_ns: u64,
    plan_ns: u64,
}

/// Typed output of [`Uload::explain`]: why the planner picked what it
/// picked. The plan tree carries a per-node [`crate::cost::Estimate`];
/// the root's estimate is the plan's cost.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query text.
    pub query: String,
    /// Fingerprint of the chosen executable plan.
    pub fingerprint: u64,
    /// The per-node estimate tree of the plan.
    pub plan: EstimateNode,
}

impl Explain {
    /// Serialize for the wire (`EXPLAIN` protocol reply) and the CLI.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("query", Json::Str(self.query.clone())),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("plan", estimate_node_json(&self.plan)),
        ])
    }
}

fn estimate_node_json(node: &EstimateNode) -> obs::Json {
    use obs::Json;
    Json::obj(vec![
        ("op", Json::Str(node.op.clone())),
        ("est_rows", Json::Num(node.estimate.rows)),
        ("est_cost", Json::Num(node.estimate.cost)),
        (
            "children",
            Json::Arr(node.children.iter().map(estimate_node_json).collect()),
        ),
    ])
}

/// Walk the plan's estimate tree and the run's per-node counters in
/// lockstep — the executor keeps one slot per plan node in pre-order, so
/// they share one shape by construction — and attach the cost model's
/// estimates.
fn pair_nodes(est: &EstimateNode, ops: &mut std::slice::Iter<'_, OpStats>) -> PlanNodeProfile {
    let op = ops.next().expect("one slot per plan node");
    let est_rows = est.estimate.rows;
    let actual_rows = op.cells.rows.get();
    let ratio = obs::q_error(est_rows, actual_rows);
    let mispredicted = ratio >= 4.0 && (actual_rows > 0 || est_rows >= 1.0);
    if mispredicted {
        tracing::debug!(
            target: "uload::cost",
            "cardinality estimate off {ratio:.1}× at {}: est {est_rows:.0} vs actual {actual_rows}",
            op.label
        );
    }
    PlanNodeProfile {
        op: op.label.clone(),
        est_cost: est.estimate.cost,
        est_rows,
        actual_rows,
        time_ns: op.cells.time_ns.get(),
        metrics: *op.cells.metrics.borrow(),
        mispredicted,
        children: est.children.iter().map(|c| pair_nodes(c, ops)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate::{bib_sample, xmark};

    fn engine(doc: &Document) -> Uload {
        Uload::builder().document(doc).build().unwrap()
    }

    #[test]
    fn answers_from_exact_views() {
        let doc = bib_sample();
        let mut u = engine(&doc);
        u.add_view_text("v_books", "//book[id:s]{ /n? title1:title[cont] }", &doc)
            .unwrap();
        // the query pattern extracted from this FLWR is exactly the view
        let (out, used) = u
            .answer(r#"for $b in doc("d")//book return <r>{$b/title}</r>"#, &doc)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("<title>Data on the Web</title>"), "{out:?}");
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].views_used, vec!["v_books"]);
    }

    #[test]
    fn fails_without_covering_views() {
        let doc = bib_sample();
        let u = engine(&doc);
        let err = u.answer(r#"doc("d")//book/title"#, &doc);
        assert!(matches!(err, Err(Error::NoRewriting { .. })));
    }

    #[test]
    fn builder_validates_config() {
        let doc = bib_sample();
        assert!(matches!(Uload::builder().build(), Err(Error::Config(_))));
        let bad = EngineConfig {
            threads: 5000,
            ..Default::default()
        };
        assert!(matches!(
            Uload::builder().document(&doc).config(bad).build(),
            Err(Error::Config(_))
        ));
        let ok = Uload::builder()
            .document(&doc)
            .threads(4)
            .cache_capacity(128)
            .build()
            .unwrap();
        assert_eq!(ok.config().threads, 4);
        assert!(ok.cache_stats().is_some());
        let uncached = Uload::builder()
            .document(&doc)
            .cache_capacity(0)
            .build()
            .unwrap();
        assert!(uncached.cache_stats().is_none());
    }

    #[test]
    fn parallel_cached_engine_answers_like_default() {
        let doc = bib_sample();
        let q = r#"for $b in doc("d")//book return <r>{$b/title}</r>"#;
        let view = "//book[id:s]{ /n? title1:title[cont] }";
        let mut base = engine(&doc);
        base.add_view_text("v", view, &doc).unwrap();
        let (out_base, _) = base.answer(q, &doc).unwrap();
        let mut par = Uload::builder()
            .document(&doc)
            .threads(4)
            .cache_capacity(1024)
            .build()
            .unwrap();
        par.add_view_text("v", view, &doc).unwrap();
        let (out_par, _) = par.answer(q, &doc).unwrap();
        assert_eq!(out_base, out_par);
        // the engine actually exercised its cache
        let stats = par.cache_stats().unwrap();
        assert!(stats.hits + stats.misses > 0, "{stats:?}");
    }

    #[test]
    fn id_stream_index_is_partitioned_by_the_summary() {
        let doc = xmark(2, 13);
        assert!(!engine(&doc)
            .id_stream_index(&doc)
            .partitions("item", xmltree::NodeKind::Element)
            .is_empty());
    }

    #[test]
    fn motivating_example_section_5_2() {
        // the §5.2 scenario on an XMark-like document: V1 stores items
        // with nested optional listitems (IDs + content), V2 stores item
        // names; the query needs both plus keyword navigation
        let doc = xmark(2, 13);
        let mut u = engine(&doc);
        u.add_view_text("V2", "//item[id:s]{ /n? name1:name[val] }", &doc)
            .unwrap();
        let (out, used) = u
            .answer(
                r#"for $x in doc("X")//item return <res>{$x/name/text()}</res>"#,
                &doc,
            )
            .unwrap();
        let items = doc.elements().filter(|&n| doc.label(n) == "item").count();
        assert_eq!(out.len(), items);
        assert_eq!(used[0].views_used, vec!["V2"]);
    }

    #[test]
    fn cost_ranking_prefers_cheaper_views() {
        // both views can answer //book/title: the exact small view
        // directly, the coarse //* view via selection+navigation over a
        // much larger relation — the cost model must rank the exact view
        // first
        let doc = bib_sample();
        let mut u = engine(&doc);
        u.add_view_text("v_exact", "//book[id:s]{ /title[val] }", &doc)
            .unwrap();
        u.add_view_text("v_everything", "//*[id:s,tag,val,cont]", &doc)
            .unwrap();
        let q = xam_core::parse_xam("//book[id:s]{ /title[val] }").unwrap();
        let rws = u.rewrite_pattern(&q);
        assert!(rws.len() >= 2, "both views should offer rewritings");
        assert_eq!(
            rws[0].views_used,
            vec!["v_exact"],
            "cost ranking must prefer the small exact view"
        );
    }

    #[test]
    fn profiled_answers_match_plain_answers() {
        let doc = xmark(2, 13);
        let q = r#"for $x in doc("X")//item return <res>{$x/name/text()}</res>"#;
        let view = "//item[id:s]{ /n? name1:name[val] }";
        let mut plain = engine(&doc);
        plain.add_view_text("V", view, &doc).unwrap();
        let (out_plain, _) = plain.answer(q, &doc).unwrap();
        assert!(
            plain.last_profile().is_none(),
            "profiling is off by default"
        );

        let mut prof = Uload::builder()
            .document(&doc)
            .profiling(true)
            .build()
            .unwrap();
        prof.add_view_text("V", view, &doc).unwrap();
        let (out_prof, used, profile) = prof.answer_profiled(q, &doc).unwrap();
        assert_eq!(out_plain, out_prof);
        assert_eq!(used.len(), 1);

        // the profile mirrors the executed plan and carries sane numbers
        assert_eq!(profile.query, q);
        assert_eq!(profile.phases.len(), 5);
        assert!(profile.phases.iter().any(|(n, _)| n == "eval"));
        assert_eq!(profile.plan.actual_rows as usize, out_prof.len());
        assert!(profile.total_ns > 0);
        assert!(profile.cache.is_some(), "default engine has a cache");
        assert_eq!(prof.last_profile().as_ref(), Some(&profile));

        // answer() on a profiling engine takes the profiled path
        let (out_answer, _) = prof.answer(q, &doc).unwrap();
        assert_eq!(out_answer, out_plain);
    }

    #[test]
    fn profile_of_a_fused_twig_plan() {
        // join-only rewriting (navigation off) over two single-node views:
        // the plan is a structural join that always fuses into a twig,
        // which runs once, metered, with estimates attached
        let doc = xmark(2, 13);
        let q = r#"doc("X")//item/name"#;
        let mut cfg = EngineConfig {
            profiling: true,
            ..Default::default()
        };
        cfg.rewrite.allow_navigation = false;
        let mut u = Uload::builder().document(&doc).config(cfg).build().unwrap();
        u.add_view_text("v_items", "//item[id:s]", &doc).unwrap();
        u.add_view_text("v_names", "//name[id:s,val]", &doc)
            .unwrap();
        let (out, used, profile) = u.answer_profiled(q, &doc).unwrap();
        assert!(!out.is_empty());
        assert_eq!(used[0].views_used, vec!["v_items", "v_names"]);
        assert_eq!(profile.plan.actual_rows as usize, out.len());
        // the plan tree actually contains the fused operator
        fn has_twig(n: &super::PlanNodeProfile) -> bool {
            n.op.starts_with("TwigJoin") || n.children.iter().any(has_twig)
        }
        assert!(has_twig(&profile.plan));
        assert_eq!(
            u.prepare_query(q).unwrap().fingerprint(),
            u.explain(q).unwrap().fingerprint,
            "explain reports the prepared plan"
        );
        // estimates are attached on every node
        fn all_estimated(n: &super::PlanNodeProfile) -> bool {
            n.est_cost > 0.0 && n.children.iter().all(all_estimated)
        }
        assert!(all_estimated(&profile.plan));
        // render and JSON both work end to end
        let text = profile.render();
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("actual rows="));
        let json = profile.to_json();
        assert!(obs::json::parse(&json.to_string_pretty()).is_ok());
    }

    #[test]
    fn dropping_a_view_changes_answerability() {
        let doc = bib_sample();
        let mut u = engine(&doc);
        u.add_view_text("v", "//author[id:s]{ /n? v:#text }", &doc)
            .ok(); // #text views unsupported: ignore result
                   // add a plain covering view
        u.add_view_text("v_auth", "//book[id:s]{ /n? a:author[cont] }", &doc)
            .unwrap();
        let q = r#"for $b in doc("d")//book return <r>{$b/author}</r>"#;
        assert!(u.answer(q, &doc).is_ok());
    }
}
