//! Columnar tables, queries, synthetic datasets, workloads and metrics.
//!
//! This crate is the substrate shared by every estimator in the IAM
//! reproduction: it defines the in-memory [`Table`] representation
//! (dictionary-encoded categorical columns and raw `f64` continuous
//! columns), conjunctive range [`Query`]s and their normalised
//! [`RangeQuery`] form, an exact ground-truth executor, the paper's
//! query-workload generator (§6.1.3), the Q-error metric, dataset
//! diagnostics (NCIE correlation and Fisher skewness), and synthetic
//! stand-ins for the paper's four real-world datasets.

#![deny(missing_docs)]

pub mod column;
// audit-allow(dead-pub): README's "Beyond the paper" entry point for loading your own data
pub mod csv;
pub mod encode;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod metrics;
pub mod query;
// the dataset diagnostics of §6.1.1: the synthetic generators' tests hold
// their datasets to the paper's skewness and correlation with them
#[cfg(test)]
mod stats;
pub mod synth;
pub mod table;
pub mod workload;

pub use column::{CatColumn, Column, ContColumn};
pub use encode::ColumnEncoding;
pub use error::DataError;
pub use estimator::{EstimatorHarness, SelectivityEstimator};
pub use exec::exact_selectivity;
pub use metrics::{q_error, ErrorSummary};
pub use query::{Interval, Op, Predicate, Query, RangeQuery};
pub use table::Table;
pub use workload::{WorkloadConfig, WorkloadGenerator};
