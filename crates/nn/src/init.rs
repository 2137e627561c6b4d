//! Deterministic weight initialisation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded initialiser producing Kaiming-uniform weights.
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// New initialiser from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer { rng: StdRng::seed_from_u64(seed) }
    }

    /// Uniform in `[-bound, bound]`.
    pub(crate) fn uniform(&mut self, n: usize, bound: f32) -> Vec<f32> {
        (0..n).map(|_| (self.rng.random::<f32>() * 2.0 - 1.0) * bound).collect()
    }

    /// Kaiming-uniform for a `fan_in`-input layer: `bound = sqrt(1/fan_in)`.
    pub(crate) fn kaiming(&mut self, n: usize, fan_in: usize) -> Vec<f32> {
        let bound = (1.0 / fan_in.max(1) as f32).sqrt();
        self.uniform(n, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = Initializer::new(5).kaiming(100, 64);
        let b = Initializer::new(5).kaiming(100, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded() {
        let w = Initializer::new(1).kaiming(1000, 16);
        let bound = (1.0f32 / 16.0).sqrt();
        assert!(w.iter().all(|&x| x.abs() <= bound));
        // not degenerate
        assert!(w.iter().any(|&x| x.abs() > bound * 0.5));
    }
}
