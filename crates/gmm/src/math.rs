//! Numerical primitives: `erf`, normal pdf/cdf, log-sum-exp.

/// `1/sqrt(2π)`.
pub(crate) const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `sqrt(2)`.
pub(crate) const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Error function via Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5 × 10⁻⁷),
/// extended to the full line by odd symmetry.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    // coefficients of A&S 7.1.26
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal density.
#[inline]
pub fn std_normal_pdf(z: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal CDF `Φ(z)`.
#[inline]
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// Density of `N(mean, std²)` at `x`.
#[cfg(test)]
pub(crate) fn normal_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    std_normal_pdf(z) / std
}

/// Log-density of `N(mean, std²)` at `x`: the reference the scoring
/// kernel ([`crate::Scorer`]) keeps the bits of.
#[cfg(test)]
pub(crate) fn normal_log_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    -0.5 * z * z - std.ln() - 0.918_938_533_204_672_7 // ln(sqrt(2π))
}

/// `P(lo ≤ X ≤ hi)` for `X ~ N(mean, std²)`; bounds may be infinite.
pub(crate) fn normal_mass(lo: f64, hi: f64, mean: f64, std: f64) -> f64 {
    if lo > hi {
        return 0.0;
    }
    let cdf = |v: f64| -> f64 {
        if v == f64::INFINITY {
            1.0
        } else if v == f64::NEG_INFINITY {
            0.0
        } else {
            std_normal_cdf((v - mean) / std)
        }
    };
    (cdf(hi) - cdf(lo)).max(0.0)
}

/// Numerically stable `log Σ exp(xs)`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // reference values from tables
        let cases =
            [(0.0, 0.0), (0.5, 0.5204999), (1.0, 0.8427008), (2.0, 0.9953223), (-1.0, -0.8427008)];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-6, "erf({x}) = {} want {want}", erf(x));
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        for z in [0.3, 1.0, 2.5] {
            assert!((std_normal_cdf(z) + std_normal_cdf(-z) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn normal_mass_full_line_is_one() {
        assert!((normal_mass(f64::NEG_INFINITY, f64::INFINITY, 3.0, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(normal_mass(2.0, 1.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn normal_mass_one_sigma() {
        // ~68.27% within one σ
        let m = normal_mass(-1.0, 1.0, 0.0, 1.0);
        assert!((m - 0.682689).abs() < 1e-4, "{m}");
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // trapezoid integral of pdf over [-3, 3] vs cdf difference
        let n = 10_000;
        let (a, b) = (-3.0, 3.0);
        let h = (b - a) / n as f64;
        let mut integral = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            integral += 0.5 * (normal_pdf(x0, 0.5, 1.5) + normal_pdf(x0 + h, 0.5, 1.5)) * h;
        }
        let want = normal_mass(a, b, 0.5, 1.5);
        assert!((integral - want).abs() < 1e-5);
    }

    #[test]
    fn log_pdf_consistent_with_pdf() {
        for (x, m, s) in [(0.0, 0.0, 1.0), (2.0, -1.0, 0.5), (1e3, 0.0, 100.0)] {
            assert!((normal_log_pdf(x, m, s).exp() - normal_pdf(x, m, s)).abs() < 1e-12);
        }
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f64::consts::LN_2).abs() < 1e-12);
        // huge magnitudes shouldn't overflow
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }
}
