//! A minimal neural-network library with manual backpropagation.
//!
//! The paper trains ResMADE — a masked autoregressive MLP with residual
//! connections (4 hidden layers of 256/128/128/256 units) — on mini-batches
//! with Adam. At that scale a GPU framework is unnecessary: this crate
//! provides exactly the pieces IAM and the deep baselines need, in pure
//! Rust `f32`:
//!
//! * `linear::Linear` — (optionally masked) affine layers with analytic
//!   gradients; layers hold parameters and gradients only, activations
//!   live in the caller's scratch;
//! * `embedding::Embedding` — learned per-column lookup tables with an
//!   extra MASK row for wildcard skipping;
//! * [`adam::Adam`] — the Adam optimiser over a flat parameter visitor;
//! * [`made::MadeNet`] — MADE/ResMADE: degree-based autoregressive masks,
//!   per-column softmax heads, cross-entropy training, and batched
//!   conditional inference for progressive sampling;
//! * [`mlp::Mlp`] — a plain MLP used by the query-driven baselines (MSCN).

#![deny(missing_docs)]

mod adam;
mod embedding;
pub mod init;
mod linear;
mod made;
pub mod mlp;

pub use adam::{Adam, AdamConfig};
pub use made::{FusedTables, InferScratch, MadeConfig, MadeNet};
pub use mlp::{Mlp, MlpConfig};

/// Visitor over (parameter, gradient) pairs — the contract between models
/// and the optimiser. Implementations must visit the same tensors in the
/// same order on every call.
pub trait Parameters {
    /// Call `f(param, grad)` for every parameter tensor.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Zero all gradient buffers.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.iter_mut().for_each(|x| *x = 0.0));
    }

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}
