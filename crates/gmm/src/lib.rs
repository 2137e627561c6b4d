//! One-dimensional Gaussian mixture models for domain reduction (paper §4.2).
//!
//! IAM fits one GMM per continuous attribute and replaces each raw value by
//! the index of its most probable component, shrinking domains from millions
//! of distinct values to `K ≈ 30`. This crate provides:
//!
//! * the [`Gmm1d`] model — pdf, posteriors, argmax assignment (Eq. 5), all
//!   scored by the one [`Scorer`] kernel that EM and the SGD trainer share,
//!   per-component range mass `P̂_GMM(R)` both exactly (via `erf`) and by the
//!   paper's Monte-Carlo scheme, and sampling;
//! * classic [`em`] fitting (the reference the paper contrasts with);
//! * [`vbgm`] — variational Bayesian GMM used to initialise and to pick the
//!   number of components (paper §4.2, "When to Use GMMs");
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
