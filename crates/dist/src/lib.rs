//! iam-dist — a distributed estimation cluster over `iam-serve`
//! (std-only, no external dependencies).
//!
//! The single-process service answers a query in ~0.16 ms, which puts the
//! serving tier in the regime where network fan-out, not inference,
//! bounds throughput — the right shape for horizontal scale-out. This
//! crate adds that scale-out:
//!
//! * [`proto`] — a length-prefixed binary wire protocol with hard frame
//!   bounds and bit-exact f64 transport;
//! * [`placement`] — a deterministic table→worker map with R-way replicas
//!   and a round-robin replica rotation, which the coordinator reorders so
//!   a batch's groups spread over a shared replica set;
//! * [`worker`] — a worker process hosting one `iam-serve`
//!   [`Service`](iam_serve::Service) (registry + cache + micro-batcher)
//!   per placed table;
//! * [`coordinator`] — membership, scatter/gather over client batches
//!   (partition by table → parallel RPC with retry-on-alternate-replica →
//!   order-preserving merge), and snapshot shipping for cluster-wide
//!   `refresh_model` without dropped requests.
//!
//! The correctness story composes three invariants proved by the lower
//! layers: persistence is bitwise-lossless (`iam-core`), served estimates
//! are a pure function of (model, query) (`iam-serve`), and floats cross
//! the wire as raw bits ([`proto`]). Therefore *any* replica's answer to
//! a query is bit-identical to single-process inference — replica choice,
//! failover, and batch partitioning cannot change a single bit.

#![deny(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod placement;
pub mod proto;
pub mod stats;
pub mod worker;

pub use coordinator::{ClusterQuery, Coordinator, DistConfig, ShipOutcome};
pub use error::DistError;
pub use placement::{PlacementMap, WorkerId};
pub use proto::{read_frame, write_frame, Frame, Msg, MAX_FRAME, MAX_SNAPSHOT_FRAME};
pub use stats::MetricsFrontend;
pub use worker::{WorkerConfig, WorkerHandle};
