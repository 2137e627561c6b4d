//! Synthetic stand-ins for the paper's real-world datasets.
//!
//! The original evaluation uses WISDM (phone/watch sensor streams), TWI
//! (geo-tagged tweets) and HIGGS (particle-collision kinematics). Those raw
//! datasets are not redistributable here, so each generator reproduces the
//! *statistical profile* the paper's analysis leans on — column types and
//! cardinalities, correlation strength (NCIE) and skewness (Fisher) — at a
//! configurable row count. See DESIGN.md §2 for the substitution table.

pub(crate) mod higgs;
pub mod twi;
pub mod wisdm;

use rand::{Rng, RngExt};

pub use twi::twi;
pub use wisdm::wisdm;

/// A named synthetic dataset for experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Sensor data: 2 categorical + 3 continuous, strongly correlated.
    Wisdm,
    /// Spatial data: 2 continuous (lat/lon), strongly correlated.
    Twi,
    /// Physics features: 7 continuous, weakly correlated, heavily skewed.
    Higgs,
}

impl Dataset {
    /// Dataset name as printed in result tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Wisdm => "WISDM",
            Dataset::Twi => "TWI",
            Dataset::Higgs => "HIGGS",
        }
    }

    /// Generate the dataset at the requested scale.
    pub fn generate(self, nrows: usize, seed: u64) -> crate::table::Table {
        match self {
            Dataset::Wisdm => wisdm(nrows, seed),
            Dataset::Twi => twi(nrows, seed),
            Dataset::Higgs => higgs::higgs(nrows, seed),
        }
    }

    /// All three single-table datasets, in paper order.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Wisdm, Dataset::Twi, Dataset::Higgs]
    }
}

/// Draw a standard normal via the Marsaglia polar method.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Zipf weights `w_k ∝ (k+1)^{-s}`, normalised to sum to 1.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-s)).collect();
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}

/// Cumulative distribution from weights, for inverse-CDF sampling.
pub fn cumsum(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Sample an index from a cumulative distribution.
pub fn sample_cdf<R: Rng + ?Sized>(rng: &mut R, cdf: &[f64]) -> usize {
    let u = rng.random::<f64>() * cdf.last().copied().unwrap_or(1.0);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zipf_is_normalised_and_decreasing() {
        let w = zipf_weights(10, 1.2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
    }

    #[test]
    fn cdf_sampling_matches_weights() {
        let w = vec![0.7, 0.2, 0.1];
        let cdf = cumsum(&w);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_cdf(&mut rng, &cdf)] += 1;
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.7).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.1).abs() < 0.01);
    }

    #[test]
    fn generators_are_deterministic() {
        for d in Dataset::all() {
            let a = d.generate(500, 42);
            let b = d.generate(500, 42);
            assert_eq!(a.columns, b.columns, "{} not deterministic", d.name());
        }
    }

    #[test]
    fn dataset_profiles_match_paper_direction() {
        // correlation: WISDM & TWI stronger than HIGGS (paper NCIE 0.33/0.37
        // vs 0.67 on the decreasing scale).
        let wisdm = Dataset::Wisdm.generate(8000, 7);
        let twi = Dataset::Twi.generate(8000, 7);
        let higgs = Dataset::Higgs.generate(8000, 7);
        let b = 30;
        let n_wisdm = crate::stats::ncie_paper(&wisdm, b);
        let n_twi = crate::stats::ncie_paper(&twi, b);
        let n_higgs = crate::stats::ncie_paper(&higgs, b);
        assert!(n_wisdm < n_higgs, "WISDM {n_wisdm} should correlate more than HIGGS {n_higgs}");
        assert!(n_twi < n_higgs, "TWI {n_twi} should correlate more than HIGGS {n_higgs}");
        // skewness: HIGGS far more skewed than the others.
        let s_higgs = crate::stats::table_skewness(&higgs).abs();
        let s_twi = crate::stats::table_skewness(&twi).abs();
        assert!(s_higgs > 5.0, "HIGGS skew {s_higgs}");
        assert!(s_twi < 3.0, "TWI skew {s_twi}");
    }
}
