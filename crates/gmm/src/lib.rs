//! One-dimensional Gaussian mixture models for domain reduction (paper §4.2).
//!
//! IAM fits one GMM per continuous attribute and replaces each raw value by
//! the index of its most probable component, shrinking domains from millions
//! of distinct values to `K ≈ 30`. This crate provides:
//!
//! * the [`Gmm1d`] model — pdf, posteriors, argmax assignment (Eq. 5), all
//!   scored by the one [`Scorer`] kernel that EM and the SGD trainer share,
//!   exact per-component range mass `P̂_GMM(R)` (via `erf`), and sampling;
//! * classic [`em`] fitting, IAM's one initialiser (the paper's VBGM init
//!   lost the q-error tail when measured: EXPERIMENTS.md, "Ablations");
//! * [`vbgm`] — variational Bayesian GMM that picks the number of
//!   components (paper §4.2); only the benchmark's `gmm.vbgm.fit_ms` probe
//!   calls it;
//! * [`sgd`] — the gradient-based maximum-likelihood trainer (Eq. 4) that
//!   lets GMMs share IAM's mini-batch training loop.

#![deny(missing_docs)]

pub mod em;
pub mod math;
pub mod model;
pub mod prefix;
pub mod sgd;
pub mod vbgm;

pub use em::fit_em;
pub use model::{Gmm1d, Scorer};
pub use prefix::CdfPrefixTable;
pub use sgd::{GmmSgdTrainer, SgdConfig};
pub use vbgm::{fit_vbgm, VbgmConfig};
