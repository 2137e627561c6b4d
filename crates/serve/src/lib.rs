//! iam-serve — a concurrent selectivity-estimation service over trained
//! IAM models (std-only, no external dependencies).
//!
//! The estimators in `iam-core` answer queries fastest in batches: one
//! progressive-sampling pass shares its forward passes across all queries
//! at each slot (§5.3 of the paper, "Batch Query Inference"). This crate
//! turns that batch advantage into a service for *concurrent* callers:
//!
//! * [`registry`] — versioned model registry: atomic hot-swap behind an
//!   `Arc`, bounded rollback history, and load-from-snapshot that leaves
//!   the active version untouched on failure;
//! * [`service`] — the micro-batching scheduler: a bounded request queue
//!   feeding worker threads that coalesce up to `max_batch` requests per
//!   inference call, with a flush deadline, per-request timeouts,
//!   [`ServeError::Overloaded`] backpressure, and graceful draining
//!   shutdown — fronted by the in-process [`Client`] handle;
//! * [`cache`] — a sharded, version-tagged LRU over canonical query keys;
//! * [`metrics`] — atomic counters, queue-depth gauge, and fixed-bucket
//!   latency/batch-size histograms with a [`Metrics::snapshot`] API and a
//!   plain-text dump;
//! * [`net`] — a `TcpListener` line protocol (one query per line, one
//!   selectivity per line) over the same [`Client`], on the listener and
//!   stop-aware connection `iam-dist` also serves on;
//! * [`sql`] — execution of parsed `iam-sql` statements against a
//!   [`Client`]: `COUNT(*)` through the estimator (bit-identical to the
//!   line protocol for equivalent predicates), `SUM`/`AVG` through
//!   `core::aqp`, `EXPLAIN` through the `iam-opt` plan renderer; reached
//!   over TCP as the `SQL <statement>` command.
//!
//! Correctness rests on one invariant from `iam_core::infer`: every
//! query's sampling seed derives from the model's salt and the query's
//! [`canonical_key`](iam_data::RangeQuery::canonical_key), so an estimate
//! is a pure function of (model version, query). Coalescing, thread
//! counts, and caching therefore cannot change any answer — the service
//! returns bitwise-identical results to direct batched inference.

#![deny(missing_docs)]

pub mod cache;
pub mod error;
pub mod metrics;
pub mod net;
pub mod registry;
pub mod service;
pub mod sql;

pub use cache::QueryCache;
pub use error::ServeError;
pub use metrics::{Metrics, MetricsSnapshot};
pub use net::{parse_query, render_query, TcpFrontend, MAX_LINE_BYTES};
pub use registry::{ModelRegistry, ModelVersion};
pub use service::{Client, ServeConfig, Service};
pub use sql::execute_sql;
