//! Dataset diagnostics: Fisher skewness and NCIE correlation (§6.1.1).
//!
//! The paper characterises each dataset by Fisher's moment skewness and by
//! the Nonlinear Correlation Information Entropy (NCIE) of Wang, Shen &
//! Zhang (2005). NCIE is computed from the eigenvalues of the nonlinear
//! correlation coefficient (NCC) matrix, where each pairwise NCC is a
//! normalised mutual information estimated on an equal-frequency `b × b`
//! grid of the ranks.
//!
//! Note: in the original definition NCIE grows with correlation strength;
//! the paper reports a *decreasing* variant ("smaller NCIE indicates
//! stronger correlation"). [`ncie_paper`] therefore returns `1 − NCIE` so
//! our diagnostics read on the same scale as the paper's Table values.

use crate::column::Column;
use crate::table::Table;

/// Fisher's moment coefficient of skewness `g1 = m3 / m2^{3/2}`.
pub(crate) fn fisher_skewness(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let (mut m2, mut m3) = (0.0, 0.0);
    for &v in values {
        let d = v - mean;
        m2 += d * d;
        m3 += d * d * d;
    }
    m2 /= n as f64;
    m3 /= n as f64;
    if m2 <= 0.0 {
        0.0
    } else {
        m3 / m2.powf(1.5)
    }
}

/// Mean Fisher skewness over the continuous columns of a table — the
/// dataset-level skewness figure the paper quotes.
pub(crate) fn table_skewness(table: &Table) -> f64 {
    let conts: Vec<&Vec<f64>> = table
        .columns
        .iter()
        .filter_map(|c| match c {
            Column::Continuous(cc) => Some(&cc.values),
            Column::Categorical(_) => None,
        })
        .collect();
    if conts.is_empty() {
        return 0.0;
    }
    conts.iter().map(|v| fisher_skewness(v)).sum::<f64>() / conts.len() as f64
}

/// Rank values into `b` equal-frequency bins; returns per-row bin ids.
fn rank_bins(values: &[f64], b: usize) -> Vec<usize> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&i, &j| values[i].total_cmp(&values[j]));
    let mut bins = vec![0usize; n];
    for (rank, &row) in order.iter().enumerate() {
        bins[row] = (rank * b / n).min(b - 1);
    }
    bins
}

/// Pairwise nonlinear correlation coefficient: mutual information on a
/// `b × b` equal-frequency grid, normalised by `log b` so a bijective
/// dependence yields 1 and independence 0.
pub(crate) fn ncc(x: &[f64], y: &[f64], b: usize) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n == 0 || b < 2 {
        return 0.0;
    }
    let bx = rank_bins(x, b);
    let by = rank_bins(y, b);
    let mut joint = vec![0usize; b * b];
    for i in 0..n {
        joint[bx[i] * b + by[i]] += 1;
    }
    // equal-frequency marginals are ~uniform; compute exactly anyway
    let mut mx = vec![0usize; b];
    let mut my = vec![0usize; b];
    for i in 0..n {
        mx[bx[i]] += 1;
        my[by[i]] += 1;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for i in 0..b {
        for j in 0..b {
            let c = joint[i * b + j];
            if c == 0 {
                continue;
            }
            let pij = c as f64 / nf;
            let pi = mx[i] as f64 / nf;
            let pj = my[j] as f64 / nf;
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    (mi / (b as f64).ln()).clamp(0.0, 1.0)
}

/// Eigenvalues of a small symmetric matrix via cyclic Jacobi rotations.
pub(crate) fn symmetric_eigenvalues(mat: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(mat.len(), n * n);
    let mut a = mat.to_vec();
    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a[p * n + q] * a[p * n + q];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    (0..n).map(|i| a[i * n + i]).collect()
}

/// Standard NCIE in `[0, 1]`: `1 + Σ (λ_i/N) log_N (λ_i/N)` over the
/// eigenvalues of the NCC matrix. 0 = fully independent, 1 = fully
/// dependent.
pub(crate) fn ncie_standard(table: &Table, bins: usize) -> f64 {
    let cols: Vec<Vec<f64>> =
        table.columns.iter().map(|c| (0..c.len()).map(|r| c.value_as_f64(r)).collect()).collect();
    let n = cols.len();
    if n < 2 {
        return 0.0;
    }
    let mut mat = vec![0.0; n * n];
    for i in 0..n {
        mat[i * n + i] = 1.0;
        for j in (i + 1)..n {
            let c = ncc(&cols[i], &cols[j], bins);
            mat[i * n + j] = c;
            mat[j * n + i] = c;
        }
    }
    let eig = symmetric_eigenvalues(&mat, n);
    let nf = n as f64;
    let mut h = 0.0;
    for l in eig {
        let p = (l / nf).max(0.0);
        if p > 0.0 {
            h += p * p.ln() / nf.ln();
        }
    }
    (1.0 + h).clamp(0.0, 1.0)
}

/// The paper-style NCIE where *smaller means more correlated*
/// (`1 − ncie_standard`).
pub(crate) fn ncie_paper(table: &Table, bins: usize) -> f64 {
    1.0 - ncie_standard(table, bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ContColumn;

    #[test]
    fn skewness_of_symmetric_data_is_zero() {
        let v: Vec<f64> = (-100..=100).map(|i| i as f64).collect();
        assert!(fisher_skewness(&v).abs() < 1e-9);
    }

    #[test]
    fn skewness_of_right_tail_is_positive() {
        let mut v: Vec<f64> = vec![0.0; 100];
        v.extend([50.0, 80.0, 100.0]);
        assert!(fisher_skewness(&v) > 1.0);
    }

    #[test]
    fn ncc_of_identical_series_is_high() {
        let x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(ncc(&x, &x, 30) > 0.95);
    }

    #[test]
    fn ncc_of_independent_series_is_low() {
        // deterministic pseudo-independent pair
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 1.6180339887).fract()).collect();
        let y: Vec<f64> = (0..2000).map(|i| (i as f64 * std::f64::consts::E).fract()).collect();
        assert!(ncc(&x, &y, 30) < 0.2);
    }

    #[test]
    fn jacobi_eigenvalues_of_diagonal() {
        let m = vec![3.0, 0.0, 0.0, 1.0];
        let mut e = symmetric_eigenvalues(&m, 2);
        e.sort_by(f64::total_cmp);
        assert!((e[0] - 1.0).abs() < 1e-9 && (e[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn jacobi_eigenvalues_of_2x2() {
        // [[2,1],[1,2]] -> eigenvalues 1, 3
        let m = vec![2.0, 1.0, 1.0, 2.0];
        let mut e = symmetric_eigenvalues(&m, 2);
        e.sort_by(f64::total_cmp);
        assert!((e[0] - 1.0).abs() < 1e-9 && (e[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ncie_orders_dependence() {
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 1.618).fract()).collect();
        let y_dep: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let y_ind: Vec<f64> = (0..2000).map(|i| (i as f64 * std::f64::consts::E).fract()).collect();
        let dep = Table::new(
            "dep",
            vec![
                crate::column::Column::Continuous(ContColumn::new("x", x.clone())),
                crate::column::Column::Continuous(ContColumn::new("y", y_dep)),
            ],
        )
        .unwrap();
        let ind = Table::new(
            "ind",
            vec![
                crate::column::Column::Continuous(ContColumn::new("x", x)),
                crate::column::Column::Continuous(ContColumn::new("y", y_ind)),
            ],
        )
        .unwrap();
        let s_dep = ncie_standard(&dep, 30);
        let s_ind = ncie_standard(&ind, 30);
        assert!(s_dep > s_ind, "dependent {s_dep} should exceed independent {s_ind}");
        // paper-style flips the ordering
        assert!(ncie_paper(&dep, 30) < ncie_paper(&ind, 30));
    }
}
