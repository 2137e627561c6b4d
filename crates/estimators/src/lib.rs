//! Baseline selectivity estimators from the paper's evaluation (§6.1.2).
//!
//! Every estimator implements `iam_data::SelectivityEstimator`, answering
//! normalised conjunctive range queries:
//!
//! * [`sampling`] — uniform row sample sized to IAM's space budget;
//! * `postgres` — 1-D histograms + MCVs with attribute independence
//!   (Postgres's documented row-estimation model);
//! * [`mhist`] — MaxDiff-style multidimensional histogram;
//! * `bayesnet` — Chow-Liu tree Bayesian network over discretised bins;
//! * [`kde`] — Gaussian-kernel density over a sample (Scott's rule);
//! * `quicksel` — uniform mixture model fitted to a training workload;
//! * [`spn`] — DeepDB-style sum-product network (LearnSPN-lite);
//! * [`mscn`] — query-driven MLP over predicate features + sample bitmap;
//! * [`uae`] — AR model trained on data *and* query-derived tuples
//!   (UAE-lite; `uae_q` trains on query-derived tuples only).

#![deny(missing_docs)]

mod bayesnet;
pub mod kde;
pub mod mhist;
pub mod mscn;
mod postgres;
mod quicksel;
pub mod sampling;
pub mod spn;
pub mod uae;

pub use bayesnet::ChowLiuNet;
pub use kde::KdeEstimator;
pub use mhist::Mhist;
pub use mscn::MscnLite;
pub use postgres::Postgres1d;
pub use quicksel::QuickSelLite;
pub use sampling::SamplingEstimator;
pub use spn::SpnEstimator;
pub use uae::{uae_lite, uae_q_lite};
