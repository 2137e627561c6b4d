//! A plain fully-connected network for the query-driven baselines.
//!
//! MSCN-style estimators featurise a query into a fixed-length vector and
//! regress its (log-)selectivity. This MLP has ReLU hidden layers and a
//! single linear output trained with mean-squared error.

use crate::init::Initializer;
use crate::linear::{pack_layers, Linear, Packed, Relu};
use crate::Parameters;

/// Configuration of an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature width.
    pub in_dim: usize,
    /// Hidden widths, e.g. `[256, 256]` (the paper's MSCN setting).
    pub hidden: Vec<usize>,
    /// Weight init seed.
    pub seed: u64,
}

/// MLP with scalar output. Like the layers it is built from, it holds
/// parameters and gradient accumulators only: activations live in the
/// locals of [`Mlp::predict`] and [`Mlp::train_batch`].
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build from config.
    pub fn new(cfg: &MlpConfig) -> Self {
        let mut init = Initializer::new(cfg.seed);
        let mut layers = Vec::new();
        let mut prev = cfg.in_dim;
        for &h in &cfg.hidden {
            layers.push(Linear::new(prev, h, &mut init));
            prev = h;
        }
        layers.push(Linear::new(prev, 1, &mut init));
        Mlp { layers }
    }

    /// Forward `batch` rows of features; returns one scalar per row.
    pub fn predict(&self, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        let (mut acts, _) = self.forward(&pack_layers(&self.layers, Vec::new()), x, batch);
        *out = acts.pop().expect("the output layer's activations");
    }

    /// One forward pass: `acts[l]` is layer `l`'s input (the last entry is
    /// the output) and `masks[l]` hidden layer `l`'s ReLU pattern — what
    /// the backward pass of [`Self::train_batch`] needs.
    fn forward(
        &self,
        packed: &[Packed],
        x: &[f32],
        batch: usize,
    ) -> (Vec<Vec<f32>>, Vec<Vec<bool>>) {
        let nl = self.layers.len();
        let mut acts = Vec::with_capacity(nl + 1);
        let mut masks = Vec::with_capacity(nl - 1);
        acts.push(x.to_vec());
        for (l, layer) in self.layers.iter().enumerate() {
            let mut y = Vec::new();
            layer.forward(&packed[l], &acts[l], batch, &mut y);
            if l + 1 < nl {
                let mut mask = Vec::new();
                Relu::forward_masked(&mut y, &mut mask);
                masks.push(mask);
            }
            acts.push(y);
        }
        (acts, masks)
    }

    /// One MSE training step on `(x, y)`; gradients accumulated for the
    /// optimiser. Returns the batch MSE.
    pub fn train_batch(&mut self, x: &[f32], y: &[f32], batch: usize) -> f32 {
        assert_eq!(y.len(), batch);
        let packed = pack_layers(&self.layers, Vec::new());
        let (acts, masks) = self.forward(&packed, x, batch);
        let nl = self.layers.len();
        let preds = &acts[nl];
        let mut loss = 0.0f32;
        let mut dy = vec![0.0f32; batch];
        let scale = 1.0 / batch as f32;
        for b in 0..batch {
            let err = preds[b] - y[b];
            loss += err * err;
            dy[b] = 2.0 * err * scale;
        }
        loss *= scale;
        let mut dx = Vec::new();
        for l in (0..nl).rev() {
            if l + 1 < nl {
                Relu::backward_masked(&mut dy, &masks[l]);
            }
            self.layers[l].backward(&packed[l], &acts[l], &dy, batch, &mut dx);
            std::mem::swap(&mut dy, &mut dx);
        }
        loss
    }
}

impl Parameters for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{Adam, AdamConfig};

    #[test]
    fn fits_a_linear_function() {
        // y = 2 x0 - x1 + 0.5
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f32 / 20.0;
            let b = (i % 7) as f32 / 7.0;
            xs.push(a);
            xs.push(b);
            ys.push(2.0 * a - b + 0.5);
        }
        let mut mlp = Mlp::new(&MlpConfig { in_dim: 2, hidden: vec![16], seed: 3 });
        let mut opt = Adam::new(AdamConfig { lr: 1e-2, ..Default::default() });
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            last = mlp.train_batch(&xs, &ys, 200);
            opt.step(&mut mlp);
        }
        assert!(last < 1e-3, "final MSE {last}");
        let mut out = Vec::new();
        mlp.predict(&[0.5, 0.5], 1, &mut out);
        assert!((out[0] - 1.0).abs() < 0.1, "{}", out[0]);
    }

    #[test]
    fn fits_a_nonlinear_function() {
        // y = |x| needs the hidden layer
        let xs: Vec<f32> = (-50..50).map(|i| i as f32 / 25.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| x.abs()).collect();
        let mut mlp = Mlp::new(&MlpConfig { in_dim: 1, hidden: vec![32, 32], seed: 4 });
        let mut opt = Adam::new(AdamConfig { lr: 5e-3, ..Default::default() });
        let mut last = f32::INFINITY;
        for _ in 0..600 {
            last = mlp.train_batch(&xs, &ys, xs.len());
            opt.step(&mut mlp);
        }
        assert!(last < 5e-3, "final MSE {last}");
    }

    #[test]
    fn predict_is_pure() {
        let mlp = Mlp::new(&MlpConfig { in_dim: 3, hidden: vec![8], seed: 5 });
        let x = [0.1, 0.2, 0.3];
        let mut a = Vec::new();
        let mut b = Vec::new();
        mlp.predict(&x, 1, &mut a);
        mlp.predict(&x, 1, &mut b);
        assert_eq!(a, b);
    }
}
