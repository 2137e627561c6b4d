//! IAM — the paper's estimator: GMM domain reduction + ResMADE + unbiased
//! progressive sampling.
//!
//! The crate exposes:
//!
//! * [`reduce`] — the closed [`reduce::Reducer`] type over its four
//!   variants: GMM (the paper's choice, §4.2), equi-depth histogram,
//!   spline histogram and uniform mixture model (the §6.6 alternatives);
//! * [`schema`] — per-column handling (direct / reduced / factorised),
//!   slot layout for the AR model, row encoding and query construction
//!   (§5.1);
//! * [`train`] — the joint end-to-end training loop (Eq. 6) with wildcard
//!   skipping;
//! * [`infer`] — the unbiased progressive-sampling estimator (§5.2,
//!   Algorithm 1) with batched inference;
//! * [`estimator`] — [`estimator::IamEstimator`] (implements
//!   `SelectivityEstimator`) plus [`estimator::neurocard_lite`], the
//!   Neurocard-style AR baseline (column factorisation, no reduction);
//! * [`aqp`] — AVG/SUM/COUNT aggregate estimation over predicate regions
//!   (the paper's stated future-work extension);
//! * [`invariant`] — debug-build runtime checks for the numeric
//!   invariants the sampler's unbiasedness depends on (softmax unit mass,
//!   non-negative range masses, monotone CDFs, selectivities in `[0, 1]`);
//!   compiled to nothing in release builds unless the `invariants`
//!   feature is on.
//!
//! Training, planning and inference are instrumented with `iam-obs` probes
//! (`iam_train_*` / `iam_plan_*` / `iam_infer_*` in the global registry,
//! `train.epoch` / `infer.progressive_sample` spans) —
//! see the README's "Observability" section.

#![deny(missing_docs)]

pub mod aqp;
pub mod config;
pub mod estimator;
pub mod infer;
pub mod invariant;
pub mod persist;
mod probes;
pub mod reduce;
mod reference;
pub mod schema;
pub mod train;

pub use config::{IamConfig, ReducerKind};
pub use estimator::{neurocard_lite, IamEstimator};
pub use schema::{ColumnHandler, IamSchema, SlotConstraint};
