//! The Adam optimiser (Kingma & Ba), the paper's training method.

use crate::Parameters;

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    /// Optional global gradient-norm clip (0 disables).
    pub clip_norm: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 2e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip_norm: 5.0 }
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
        // optional global grad clipping
        let scale = if self.cfg.clip_norm > 0.0 {
            let mut norm_sq = 0.0f64;
            model.visit_params(&mut |_, g| {
                norm_sq += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
            });
            let norm = norm_sq.sqrt() as f32;
            if norm > self.cfg.clip_norm {
                self.cfg.clip_norm / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        self.t += 1;
        let lr = self.cfg.lr;
        let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
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
        let mut opt = Adam::new(AdamConfig { lr: 0.1, clip_norm: 0.0, ..Default::default() });
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
        let mut opt = Adam::new(AdamConfig { lr: 0.1, clip_norm: 1.0, ..Default::default() });
        opt.step(&mut q);
        // with clipping the effective gradient norm is 1, so the Adam step is
        // bounded by lr
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
