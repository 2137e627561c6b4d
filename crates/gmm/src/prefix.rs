//! Per-component CDF prefix tables over a value grid.
//!
//! `P_GMM(R_i)` mass vectors dominate plan-building for reduced columns:
//! every range interval costs one `normal_mass` (two `erf` evaluations)
//! per component. A [`CdfPrefixTable`] caches the component CDFs at the
//! column's token grid (its sorted distinct values) once at
//! model-prepare time, so the mass vector for an arbitrary on-grid range
//! is two table lookups and one subtraction per component — O(K) with no
//! `erf` in the hot path.
//!
//! Bitwise contract: cached entries store exactly
//! `std_normal_cdf((grid[g] − mean_k) / std_k)` — the same expression
//! `normal_mass` evaluates — so
//! [`CdfPrefixTable::mass_into`] is **bit-identical** to
//! [`Gmm1d::range_mass_exact`] for on-grid bounds, and falls back to the
//! identical fresh computation for off-grid or infinite bounds. Golden
//! estimate bits are therefore unchanged with tables enabled (the
//! default).

use crate::math::std_normal_cdf;
use crate::model::Gmm1d;

/// Cached per-component standard-normal CDF values at a sorted value
/// grid, plus the component parameters needed to evaluate off-grid
/// bounds with identical arithmetic.
#[derive(Debug, Clone)]
pub struct CdfPrefixTable {
    /// Sorted distinct grid values (the reduced column's token grid).
    grid: Vec<f64>,
    /// Row-major `K × grid.len()`: `cdf[k][g] = Φ((grid[g] − μ_k)/σ_k)`.
    cdf: Vec<f64>,
    /// Component means (for off-grid fallback evaluation).
    means: Vec<f64>,
    /// Component stds (for off-grid fallback evaluation).
    stds: Vec<f64>,
}

impl CdfPrefixTable {
    /// Precompute the CDF table for `gmm` over `grid`.
    ///
    /// `grid` must be sorted ascending and duplicate-free (binary search
    /// is used at query time); it is typically the column's distinct
    /// values captured at schema-build time.
    ///
    /// # Panics
    /// Panics in debug builds if `grid` is not strictly ascending.
    pub fn build(gmm: &Gmm1d, grid: &[f64]) -> Self {
        debug_assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "CDF prefix grid must be strictly ascending"
        );
        let k = gmm.k();
        let mut cdf = Vec::with_capacity(k * grid.len());
        for c in 0..k {
            let (mean, std) = (gmm.means[c], gmm.stds[c]);
            // exactly the per-bound expression normal_mass evaluates
            cdf.extend(grid.iter().map(|&v| std_normal_cdf((v - mean) / std)));
        }
        CdfPrefixTable {
            grid: grid.to_vec(),
            cdf,
            means: gmm.means.clone(),
            stds: gmm.stds.clone(),
        }
    }

    /// Number of mixture components the table was built for.
    pub fn k(&self) -> usize {
        self.means.len()
    }

    /// Resident bytes of the cached table (grid + CDF rows + params).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.grid.as_slice())
            + std::mem::size_of_val(self.cdf.as_slice())
            + std::mem::size_of_val(self.means.as_slice())
            + std::mem::size_of_val(self.stds.as_slice())
    }

    /// CDF of component `c` at bound `v`: cached lookup when `v` is on
    /// the grid, otherwise the identical fresh expression. Mirrors the
    /// bound handling of [`normal_mass`](crate::math::normal_mass):
    /// `+∞ → 1`, `−∞ → 0`.
    #[inline]
    fn cdf_at(&self, c: usize, v: f64) -> f64 {
        if v == f64::INFINITY {
            return 1.0;
        }
        if v == f64::NEG_INFINITY {
            return 0.0;
        }
        if let Ok(g) = self.grid.binary_search_by(|p| p.partial_cmp(&v).unwrap()) {
            return self.cdf[c * self.grid.len() + g];
        }
        std_normal_cdf((v - self.means[c]) / self.stds[c])
    }

    /// Per-component mass of `[lo, hi]`, appended into `out` (which is
    /// cleared first) — drop-in for [`Gmm1d::range_mass_exact`], and
    /// bit-identical to it for every bound (on-grid, off-grid, ±∞, and
    /// empty `lo > hi` intervals, which yield all-zero mass).
    ///
    /// The prefix difference `Φ(hi) − Φ(lo)` can go tiny-negative from
    /// round-off in the tails; the `.max(0.0)` clamp below matches
    /// `normal_mass` exactly, so downstream zero-mass handling
    /// (`pick_in_window`) sees identical zeros either way.
    pub fn mass_into(&self, lo: f64, hi: f64, out: &mut Vec<f64>) {
        out.clear();
        if lo > hi {
            out.resize(self.k(), 0.0);
            return;
        }
        out.extend((0..self.k()).map(|c| (self.cdf_at(c, hi) - self.cdf_at(c, lo)).max(0.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::normal_mass;

    fn gmm() -> Gmm1d {
        Gmm1d::new(vec![0.5, 0.3, 0.2], vec![-1.0, 0.5, 12.0], vec![0.4, 2.0, 0.05])
    }

    fn grid() -> Vec<f64> {
        vec![-3.0, -1.0, -0.25, 0.0, 0.5, 1.75, 4.0, 11.9, 12.0, 12.1]
    }

    fn exact(g: &Gmm1d, lo: f64, hi: f64) -> Vec<f64> {
        (0..g.k()).map(|c| normal_mass(lo, hi, g.means[c], g.stds[c])).collect()
    }

    #[test]
    fn on_grid_bounds_are_bitwise_identical_to_normal_mass() {
        let g = gmm();
        let grid = grid();
        let t = CdfPrefixTable::build(&g, &grid);
        let mut out = Vec::new();
        for (i, &lo) in grid.iter().enumerate() {
            for &hi in &grid[i..] {
                t.mass_into(lo, hi, &mut out);
                let want = exact(&g, lo, hi);
                for (c, (got, want)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "component {c}, [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn off_grid_and_infinite_bounds_match_bitwise() {
        let g = gmm();
        let t = CdfPrefixTable::build(&g, &grid());
        let mut out = Vec::new();
        let bounds = [
            (-2.5, 0.3),                        // both off-grid
            (-1.0, 0.31),                       // lo on-grid, hi off
            (f64::NEG_INFINITY, 0.5),           // −∞ to on-grid
            (-0.25, f64::INFINITY),             // on-grid to +∞
            (f64::NEG_INFINITY, f64::INFINITY), // full line: mass 1
        ];
        for (lo, hi) in bounds {
            t.mass_into(lo, hi, &mut out);
            let want = exact(&g, lo, hi);
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn empty_interval_yields_all_zero_mass() {
        let g = gmm();
        let t = CdfPrefixTable::build(&g, &grid());
        let mut out = vec![99.0];
        t.mass_into(2.0, 1.0, &mut out);
        assert_eq!(out, vec![0.0; g.k()]);
        // matches normal_mass's lo > hi short-circuit bitwise
        assert_eq!(exact(&g, 2.0, 1.0), vec![0.0; g.k()]);
    }

    #[test]
    fn component_rows_are_monotone_cdfs() {
        let g = gmm();
        let t = CdfPrefixTable::build(&g, &grid());
        assert_eq!(t.cdf.len(), t.k() * t.grid.len());
        for (c, row) in t.cdf.chunks(t.grid.len()).enumerate() {
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "component {c} not monotone");
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn agreement_within_1e12_everywhere_on_a_dense_sweep() {
        // belt-and-braces numeric bound on top of the bitwise tests
        let g = gmm();
        let t = CdfPrefixTable::build(&g, &grid());
        let mut out = Vec::new();
        for i in -30..=30 {
            let lo = i as f64 * 0.5;
            for j in 0..=20 {
                let hi = lo + j as f64 * 0.7;
                t.mass_into(lo, hi, &mut out);
                for (got, want) in out.iter().zip(exact(&g, lo, hi)) {
                    assert!((got - want).abs() <= 1e-12, "[{lo}, {hi}]: {got} vs {want}");
                }
            }
        }
    }
}
