//! The Adam optimiser (Kingma & Ba), the paper's training method.

use crate::Parameters;

/// Exponential decay of the first moment (Kingma & Ba's default; neither
/// the paper nor Naru tunes it).
const BETA1: f32 = 0.9;

/// Exponential decay of the second moment.
const BETA2: f32 = 0.999;

/// Numerical fuzz of the update's denominator.
const EPS: f32 = 1e-8;

/// Global gradient-norm clip: a step whose gradient norm exceeds it is
/// scaled down to it.
const CLIP_NORM: f32 = 5.0;

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Learning rate.
    ///
    /// Ledger: crates/core/src/estimator.rs
    pub lr: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 2e-3 }
    }
}

/// Adam state: first/second moment buffers laid out in visit order.
#[derive(Clone)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    initialized: bool,
}

impl Adam {
    /// New optimiser.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam { cfg, m: Vec::new(), v: Vec::new(), t: 0, initialized: false }
    }

    /// Apply one update to every parameter of `model` and zero the grads.
    pub fn step<P: Parameters + ?Sized>(&mut self, model: &mut P) {
        if !self.initialized {
            let mut total = 0usize;
            model.visit_params(&mut |p, _| total += p.len());
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
            self.initialized = true;
        }
        // global grad clipping
        let mut norm_sq = 0.0f64;
        model.visit_params(&mut |_, g| {
            norm_sq += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
        });
        let norm = norm_sq.sqrt() as f32;
        let scale = if norm > CLIP_NORM { CLIP_NORM / norm } else { 1.0 };

        self.t += 1;
        let lr = self.cfg.lr;
        let (b1, b2, eps) = (BETA1, BETA2, EPS);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut cursor = 0usize;
        model.visit_params(&mut |p, g| {
            let ms = &mut m[cursor..cursor + p.len()];
            let vs = &mut v[cursor..cursor + p.len()];
            cursor += p.len();
            // zipped, so the bounds checks go and the loop vectorises; each
            // element sees the same ops in the same order
            for (((p, g), m), v) in p.iter_mut().zip(g.iter_mut()).zip(ms).zip(vs) {
                let gi = *g * scale;
                *m = b1 * *m + (1.0 - b1) * gi;
                *v = b2 * *v + (1.0 - b2) * gi * gi;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
                *g = 0.0;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-parameter quadratic "model": loss = (w - 3)².
    struct Quad {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl Parameters for Quad {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            f(&mut self.w, &mut self.g);
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let mut q = Quad { w: vec![-5.0], g: vec![0.0] };
        let mut opt = Adam::new(AdamConfig { lr: 0.1 });
        for _ in 0..500 {
            q.g[0] = 2.0 * (q.w[0] - 3.0);
            opt.step(&mut q);
        }
        assert!((q.w[0] - 3.0).abs() < 0.05, "w = {}", q.w[0]);
    }

    #[test]
    fn grads_zeroed_after_step() {
        let mut q = Quad { w: vec![0.0], g: vec![1.0] };
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut q);
        assert_eq!(q.g[0], 0.0);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut q = Quad { w: vec![0.0, 0.0], g: vec![1e6, 1e6] };
        let mut opt = Adam::new(AdamConfig { lr: 0.1 });
        opt.step(&mut q);
        // the first moment saw the gradient scaled to norm CLIP_NORM (each
        // of the two entries CLIP_NORM / √2), and the step is bounded by lr
        let clipped = CLIP_NORM / 2f32.sqrt();
        assert!(opt.m.iter().all(|m| (m - (1.0 - BETA1) * clipped).abs() < 1e-5), "{:?}", opt.m);
        assert!(q.w.iter().all(|w| w.abs() <= 0.11), "{:?}", q.w);
    }

    #[test]
    fn zero_grad_is_noop_update() {
        let mut q = Quad { w: vec![1.5], g: vec![0.0] };
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut q);
        assert_eq!(q.w[0], 1.5);
    }
}
