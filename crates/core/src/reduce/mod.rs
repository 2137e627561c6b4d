//! Domain reduction: map a huge continuous domain onto `K` reduced values.
//!
//! A [`Reducer`] supplies the two operations the IAM pipeline needs:
//! `reduce(v)` — the reduced attribute value `a'` fed to the AR model — and
//! `range_mass(R)` — the per-reduced-value probability `P(v ∈ R | a' = k)`
//! that corrects progressive sampling for range queries (§5.2).

pub mod gmm;
pub mod hist;
pub mod spline;
pub mod umm;

pub use gmm::GmmReducer;
pub use hist::HistReducer;
pub use spline::SplineReducer;
pub use umm::UmmReducer;

use iam_data::Interval;

/// A fitted reducer: the paper's GMM or one of the three §6.6
/// alternatives. Maps raw continuous values into `[0, k)` and answers
/// range-mass queries.
#[derive(Clone)]
pub enum Reducer {
    /// One 1-D Gaussian mixture (paper §4.2).
    Gmm(GmmReducer),
    /// Equi-depth histogram.
    Hist(HistReducer),
    /// Piecewise-linear CDF spline.
    Spline(SplineReducer),
    /// Uniform mixture model.
    Umm(UmmReducer),
}

impl Reducer {
    /// Number of reduced values `K`.
    pub fn k(&self) -> usize {
        match self {
            Reducer::Gmm(r) => r.k(),
            Reducer::Hist(r) => r.k(),
            Reducer::Spline(r) => r.k(),
            Reducer::Umm(r) => r.k(),
        }
    }

    /// The reduced value of `v` (paper Eq. 5 for GMMs).
    pub fn reduce(&self, v: f64) -> usize {
        match self {
            Reducer::Gmm(r) => r.reduce(v),
            Reducer::Hist(r) => r.reduce(v),
            Reducer::Spline(r) => r.reduce(v),
            Reducer::Umm(r) => r.reduce(v),
        }
    }

    /// `out[j] = P(value ∈ iv | reduced value = j)` — the bias-correction
    /// vector `P̂_GMM(R_i)` of §5.2 (its analogue for the other reducers).
    pub fn range_mass(&self, iv: &Interval, out: &mut Vec<f64>) {
        match self {
            Reducer::Gmm(r) => r.range_mass(iv, out),
            Reducer::Hist(r) => r.range_mass(iv, out),
            Reducer::Spline(r) => r.range_mass(iv, out),
            Reducer::Umm(r) => r.range_mass(iv, out),
        }
    }

    /// The value span `[lo, hi]` of reduced value `k`: its histogram
    /// bucket, spline segment or uniform component (a GMM component is
    /// unbounded).
    pub(crate) fn span(&self, k: usize) -> (f64, f64) {
        match self {
            Reducer::Gmm(_) => (f64::NEG_INFINITY, f64::INFINITY),
            Reducer::Hist(r) => r.bucket_span(k),
            Reducer::Spline(r) => (r.knots_x[k], r.knots_x[k + 1]),
            Reducer::Umm(r) => (r.lo[k], r.hi[k]),
        }
    }

    /// Model footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Reducer::Gmm(r) => r.size_bytes(),
            Reducer::Hist(r) => r.size_bytes(),
            Reducer::Spline(r) => r.size_bytes(),
            Reducer::Umm(r) => r.size_bytes(),
        }
    }
}

/// Clamp an interval to finite bounds for reducers that need them.
pub(crate) fn clamp_interval(iv: &Interval, lo_default: f64, hi_default: f64) -> (f64, f64) {
    let lo = if iv.lo == f64::NEG_INFINITY { lo_default } else { iv.lo };
    let hi = if iv.hi == f64::INFINITY { hi_default } else { iv.hi };
    (lo, hi)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::Reducer;
    use iam_data::Interval;

    /// Reference check used by every reducer's tests: the estimator
    /// `Σ_j count(a'=j) · range_mass(R)[j] / n` should approximate the true
    /// fraction of values in `R`, when the reducer fits the data well.
    pub fn empirical_consistency(reducer: &Reducer, values: &[f64], iv: &Interval) -> (f64, f64) {
        let n = values.len() as f64;
        let mut counts = vec![0usize; reducer.k()];
        for &v in values {
            counts[reducer.reduce(v)] += 1;
        }
        let mut mass = Vec::new();
        reducer.range_mass(iv, &mut mass);
        let est: f64 = counts.iter().zip(&mass).map(|(&c, &m)| c as f64 * m).sum::<f64>() / n;
        let truth = values.iter().filter(|&&v| iv.contains(v)).count() as f64 / n;
        (est, truth)
    }
}
