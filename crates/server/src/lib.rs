//! # uload-server — the multi-client serving layer
//!
//! A thread-per-connection front-end over the
//! [`Uload`](rewriting::Uload) engine, turning the embedded query
//! pipeline into a long-lived service:
//!
//! * **Sessions** — one OS thread per TCP or Unix-socket connection,
//!   speaking the newline-delimited [`protocol`];
//! * **Prepared plans** — `PREPARE` plans once and registers the result
//!   under its [plan fingerprint](rewriting::plan_fingerprint); `EXEC`
//!   replays it without re-parsing, re-rewriting or re-planning;
//! * **Versioned result cache** — completed results are memoized under
//!   `(fingerprint, `[`DocumentVersion`](storage::DocumentVersion)`)`;
//!   swapping the served document mints a new version and implicitly
//!   invalidates every stale entry ([`cache`]);
//! * **Admission control** — concurrent uncached executions share a
//!   resident-tuple budget ([`admission`]); each admitted request is
//!   additionally killed if its own `Residency` gauge crosses the
//!   per-query ceiling, so total materialized state stays bounded no
//!   matter how many clients connect;
//! * **Cancellation** — `CANCEL` mid-stream (or a client disconnect)
//!   closes the engine's cursor tree via `QueryResults::close`,
//!   releasing resident state and the admission permit immediately;
//! * **Observability** — `STATS` returns a per-session
//!   [`SessionProfile`](obs::SessionProfile) with result-cache and
//!   `CanonicalCache` hit rates plus absorbed kernel counters;
//!   `METRICS` returns the server-wide [`metrics`] snapshot (latency
//!   histograms with p50/p90/p99/p999, admission-wait and queue-depth
//!   telemetry, cache rollups and per-operator q-error histograms),
//!   `SLOWLOG` drains the structured [`slowlog`] ring of
//!   threshold-crossing requests, and
//!   `ULOAD_LOG=uload::server=debug` traces the serving path.
//!
//! ```no_run
//! use uload_server::{Client, Server, ServerConfig};
//! use rewriting::Uload;
//! use storage::DocumentHandle;
//!
//! let doc = Uload::parse_document("<lib><book/></lib>")?;
//! let engine = Uload::builder().document(&doc).build()?;
//! let handle = DocumentHandle::new(doc);
//! let server = Server::start(ServerConfig::default(), engine, handle)?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let fp = client.prepare("for $b in //book return $b")?;
//! let first = client.exec(fp)?; // cold: plans ran
//! let warm = client.exec(fp)?; // warm: served from the result cache
//! assert!(warm.cached && first.rows == warm.rows);
//! server.shutdown();
//! server.wait();
//! # Ok::<(), uload_error::Error>(())
//! ```

pub mod admission;
pub mod cache;
pub mod client;
pub mod conn;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod slowlog;

pub use admission::{Admission, AdmissionError, Permit};
pub use cache::ResultCache;
pub use client::{Client, ExecReply, RowEvent};
pub use conn::BindAddr;
pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
pub use slowlog::{SlowDisposition, SlowLog, SlowQueryEntry};
