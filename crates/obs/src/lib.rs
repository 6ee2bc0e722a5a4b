//! # obs — the engine-wide observability layer
//!
//! Everything the rest of the workspace uses to *watch itself run*:
//!
//! * [`metrics`] — per-operator execution counters ([`ExecMetrics`]) and
//!   the zero-cost [`Meter`] hook the physical join kernels are generic
//!   over, plus [`CacheCounters`] (a dependency-free mirror of the
//!   containment cache's statistics);
//! * [`profile`] — the `EXPLAIN ANALYZE` surface: [`QueryProfile`] /
//!   [`PlanNodeProfile`] (estimated cost paired with the cardinality,
//!   time and kernel counters the executor measured), renderable as
//!   pretty text and JSON;
//! * [`json`] — a hand-rolled JSON value, writer, parser and a small
//!   JSON-Schema-subset validator (the workspace carries no serializer
//!   dependency), used to keep the profile format contract-checked;
//! * [`subscriber`] — a `tracing` subscriber with an env-filter,
//!   installed from the `ULOAD_LOG` variable by [`init_from_env`];
//! * [`telemetry`] — server-wide metrics: the [`MetricsRegistry`] of
//!   atomic [`Counter`]s/[`Gauge`]s and lock-free log-linear
//!   [`Histogram`]s with mergeable snapshots (p50/p90/p99/p999);
//! * [`stats`] — estimate error: one q-error [`Histogram`] per operator
//!   kind ([`QErrorHistograms`]), fed by every published profile.
//!
//! ## Span taxonomy
//!
//! The engine emits spans/events under these targets (filter with
//! `ULOAD_LOG`, e.g. `ULOAD_LOG=uload=debug` or
//! `ULOAD_LOG=uload::eval=trace,warn`):
//!
//! | target               | what it covers                                  |
//! |----------------------|-------------------------------------------------|
//! | `uload::query`       | whole-query lifecycle (parse → … → eval)        |
//! | `uload::rewrite`     | per-pattern rewriting (generate-and-test)       |
//! | `uload::containment` | containment verdicts / canonical models         |
//! | `uload::eval`        | physical evaluation, twig fallbacks             |
//! | `uload::cost`        | cost-model decisions and mispredictions         |
//! | `uload::storage`     | ID-stream index builds, QEP construction        |
//! | `uload::server`      | serving path: `PREPARE`/`EXEC`/`QUERY` handling |

pub mod json;
pub mod metrics;
pub mod profile;
pub mod stats;
pub mod subscriber;
pub mod telemetry;

pub use json::Json;
pub use metrics::{CacheCounters, ExecMetrics, Meter, NoMeter, ResultCacheCounters};
pub use profile::{OpStreamProfile, PlanNodeProfile, QueryProfile, SessionProfile, StreamProfile};
pub use stats::{q_error, QErrorHistograms, QErrorSnapshot};
pub use subscriber::{init_from_env, EnvFilter, FmtSubscriber};
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
