//! Synthetic HIGGS: high-level kinematic features of particle collisions.
//!
//! Paper profile: 11M rows, 7 continuous columns (`m_jj`, `m_jjj`, `m_lv`,
//! `m_jlv`, `m_bb`, `m_wbb`, `m_wwbb`; domains 3 × 10^5 – 8 × 10^6), *weak*
//! cross-column correlation (NCIE 0.67 on the paper's decreasing scale) and
//! *extreme* positive skew (Fisher ≈ 81): invariant masses are heavy-tailed.

use super::normal;
use crate::column::{Column, ContColumn};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The seven high-level feature names used in the paper.
pub(crate) const FEATURES: [&str; 7] =
    ["m_jj", "m_jjj", "m_lv", "m_jlv", "m_bb", "m_wbb", "m_wwbb"];

/// Generate a HIGGS-like table with `nrows` rows.
pub(crate) fn higgs(nrows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4849_4747); // "HIGG"

    // Per-feature lognormal body parameters. σ grows across features so the
    // tails differ; the tiny shared-latent coefficient keeps correlation weak.
    struct Feature {
        mu: f64,
        sigma: f64,
        shared_coef: f64,
        tail_p: f64,   // probability of a deep power-law tail event
        tail_amp: f64, // amplitude of tail events
    }
    let feats: Vec<Feature> = (0..FEATURES.len())
        .map(|i| Feature {
            mu: -0.2 + 0.15 * i as f64,
            sigma: 0.35 + 0.08 * i as f64 + 0.1 * rng.random::<f64>(),
            shared_coef: 0.12 + 0.05 * rng.random::<f64>(),
            tail_p: 0.002 + 0.002 * rng.random::<f64>(),
            tail_amp: 20.0 + 60.0 * rng.random::<f64>(),
        })
        .collect();

    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(nrows); FEATURES.len()];
    for _ in 0..nrows {
        let shared = normal(&mut rng);
        for (j, f) in feats.iter().enumerate() {
            let own = normal(&mut rng);
            let z = f.shared_coef * shared + (1.0 - f.shared_coef * f.shared_coef).sqrt() * own;
            let mut v = (f.mu + f.sigma * z).exp();
            if rng.random::<f64>() < f.tail_p {
                // Pareto-style tail event: this is what drives Fisher
                // skewness into the tens, as in real HIGGS masses.
                let u: f64 = rng.random::<f64>();
                v += f.tail_amp * u.powf(-0.7);
            }
            cols[j].push(v);
        }
    }

    Table::new(
        "higgs",
        cols.into_iter()
            .zip(FEATURES)
            .map(|(values, name)| Column::Continuous(ContColumn::new(name, values)))
            .collect(),
    )
    .expect("columns constructed with equal length")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_paper() {
        let t = higgs(1000, 1);
        assert_eq!(t.ncols(), 7);
        assert!(t.columns.iter().all(|c| c.is_continuous()));
        for (c, name) in t.columns.iter().zip(FEATURES) {
            assert_eq!(c.name(), name);
        }
    }

    #[test]
    fn values_positive_and_heavy_tailed() {
        let t = higgs(30_000, 2);
        for c in &t.columns {
            let Column::Continuous(cc) = c else { unreachable!() };
            assert!(cc.min().unwrap() > 0.0, "masses are positive");
        }
        let skew = crate::stats::table_skewness(&t);
        assert!(skew > 5.0, "HIGGS must be strongly right-skewed, got {skew}");
    }

    #[test]
    fn weak_correlation() {
        let t = higgs(8000, 3);
        // paper-scale: HIGGS NCIE (decreasing scale) is the *largest* of the
        // three datasets; here we only assert absolute weakness.
        let n = crate::stats::ncie_standard(&t, 30);
        assert!(n < 0.35, "expected weak correlation, got standard NCIE {n}");
    }
}
