//! The §5 progressive sampler (paper §5.2, Algorithm 1), written once and
//! plainly for one query — the executable spec of inference.
//!
//! Each of `n` samples starts at the all-MASK tuple. At every constrained
//! slot the live samples (weight `p̂ > 0`) are forwarded, the AR
//! conditional is renormalised over the slot's admissible window — for a
//! GMM-reduced column the whole reduced domain re-weighted by
//! `P̂_GMM(R_i)`, the bias correction of Theorem 5.1 — its mass multiplies
//! into `p̂`, and a token is drawn from it. Draws come from the one `rng`
//! in sample order. `Wildcard` slots keep their MASK token, and a sample
//! whose weight reaches 0 is never drawn again.
//!
//! Two callers share it. AQP draws its tuples with [`sample`] (after
//! rewriting wildcards into full ranges). The batched kernel
//! [`crate::infer::estimate_batch`] dedups prefixes, hoists window work
//! and skips terminal draws, and the oracle test below pins it to this
//! sampler bit for bit: for a plan seeded with `sampling_salt ^
//! canonical_key`, the clamped mean of [`sample`]'s weights has the same
//! `to_bits` as `estimate_batch_shared`. The window and pick rules both
//! use live here ([`sample_range`], [`sample_weighted`],
//! [`pick_in_window`], [`factor_lo_window`]).

use crate::schema::SlotConstraint;
use iam_nn::{FusedTables, InferScratch, MadeNet};
use rand::rngs::StdRng;
use rand::RngExt;

/// Draw `n` progressive samples of one query `plan`, returning every
/// sample's slot tokens and its weight `p̂`.
pub(crate) fn sample(
    net: &MadeNet,
    tables: &FusedTables,
    plan: &[SlotConstraint],
    n: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<usize>>, Vec<f64>) {
    let mut tokens: Vec<Vec<usize>> = vec![(0..plan.len()).map(|s| net.mask_token(s)).collect(); n];
    let mut weights = vec![1.0f64; n];
    let mut scratch = InferScratch::new();
    let (mut inputs, mut logits, mut probs, mut weighted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (slot, constraint) in plan.iter().enumerate() {
        if *constraint == SlotConstraint::Wildcard {
            continue;
        }
        let live: Vec<usize> = (0..n).filter(|&r| weights[r] > 0.0).collect();
        if live.is_empty() {
            break;
        }
        inputs.clear();
        for &r in &live {
            inputs.extend_from_slice(&tokens[r]);
        }
        net.forward_column_fused(tables, &mut scratch, &inputs, live.len(), slot, &mut logits);
        let width = net.domain_size(slot);
        for (i, &r) in live.iter().enumerate() {
            net.row_softmax(&logits, i, width, &mut probs);
            crate::invariant::check_softmax_mass(&probs, "reference slot softmax");
            let p_hat = &mut weights[r];
            let pick = match constraint {
                SlotConstraint::Wildcard => unreachable!("wildcards were skipped"),
                SlotConstraint::Range(a, b) => sample_range(&probs, *a, *b, p_hat, rng),
                SlotConstraint::Weights(w) => {
                    weighted.clear();
                    weighted.extend(probs.iter().zip(w).map(|(&p, &m)| p as f64 * m));
                    crate::invariant::check_mass_vector(&weighted, "bias-corrected slot weights");
                    sample_weighted(&weighted, p_hat, rng)
                }
                &SlotConstraint::FactorLo { lo_idx, hi_idx, base } => {
                    // the hi subcolumn is the previous slot, already drawn
                    let (a, b) = factor_lo_window(tokens[r][slot - 1], lo_idx, hi_idx, base, width);
                    if a > b {
                        *p_hat = 0.0;
                        None
                    } else {
                        sample_range(&probs, a, b, p_hat, rng)
                    }
                }
            };
            if let Some(v) = pick {
                tokens[r][slot] = v;
            }
        }
    }
    (tokens, weights)
}

/// The admissible window `[a, b]` of a factorised column's low subcolumn
/// (domain `width`) for the raw range `[lo_idx, hi_idx]`, given the sampled
/// high token `hi`: inside the range's first block the window starts at
/// the range's low digit, inside its last block it ends at the high digit,
/// and every block between is whole. `a > b` means the window is empty.
pub(crate) fn factor_lo_window(
    hi: usize,
    lo_idx: usize,
    hi_idx: usize,
    base: usize,
    width: usize,
) -> (usize, usize) {
    let a = if hi == lo_idx / base { lo_idx % base } else { 0 };
    let b = if hi == hi_idx / base { hi_idx % base } else { base - 1 };
    (a, b.min(width - 1))
}

/// Walk a probability window's running sum and return the first index at
/// which the cumulative mass reaches `u`, never returning a zero-mass
/// index. Zero entries are skipped outright (adding `0.0` to the
/// accumulator is exact, so the walk is unchanged for every reachable
/// index) — boundary draws (`u == 0.0` with leading zeros, or `u` at the
/// full mass with trailing zeros) used to land on them. When float
/// round-off leaves `u` beyond the final cumulative sum, the fallback is
/// the last *nonzero*-probability index: falling back to the window's last
/// index could select a zero-probability value and condition every later
/// slot on an impossible prefix. Returns `None` only when every entry is
/// `<= 0` (callers check the mass first).
pub(crate) fn pick_in_window(window: impl Iterator<Item = f64>, u: f64) -> Option<usize> {
    let mut acc = 0.0f64;
    let mut last_nonzero = None;
    for (j, p) in window.enumerate() {
        if p > 0.0 {
            acc += p;
            last_nonzero = Some(j);
            if u <= acc {
                return Some(j);
            }
        }
    }
    last_nonzero
}

/// Renormalise `probs` over `[a, b]`, fold the mass into `p_hat` and draw an
/// index. Returns `None` (and kills the sample) on zero mass, without a
/// draw.
pub(crate) fn sample_range(
    probs: &[f32],
    a: usize,
    b: usize,
    p_hat: &mut f64,
    rng: &mut StdRng,
) -> Option<usize> {
    debug_assert!(a <= b && b < probs.len());
    let mass: f64 = probs[a..=b].iter().map(|&p| p as f64).sum();
    if mass <= 0.0 {
        *p_hat = 0.0;
        return None;
    }
    *p_hat *= mass.min(1.0);
    let u = rng.random::<f64>() * mass;
    pick_in_window(probs[a..=b].iter().map(|&p| p as f64), u).map(|j| a + j)
}

/// Same, but over an already bias-corrected weight vector (`p_AR × P̂_GMM`).
pub(crate) fn sample_weighted(
    weighted: &[f64],
    p_hat: &mut f64,
    rng: &mut StdRng,
) -> Option<usize> {
    let mass: f64 = weighted.iter().sum();
    if mass <= 0.0 {
        *p_hat = 0.0;
        return None;
    }
    *p_hat *= mass.min(1.0);
    let u = rng.random::<f64>() * mass;
    pick_in_window(weighted.iter().copied(), u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{neurocard_lite, IamConfig, IamEstimator, ReducerKind};
    use iam_data::query::Op;
    use iam_data::synth::Dataset;
    use iam_data::{Interval, RangeQuery, Table, WorkloadConfig, WorkloadGenerator};
    use rand::SeedableRng;

    /// The six oracle models on one small WISDM table: the four reducers,
    /// the hard-weights ablation and the Neurocard baseline, whose
    /// factorised sensor axes (domain > 256) plan FactorLo slots.
    fn models(table: &Table) -> Vec<(&'static str, IamEstimator)> {
        let base = IamConfig {
            components: 6,
            hidden: vec![32, 32],
            embed_dim: 8,
            epochs: 2,
            batch_size: 150,
            samples: 64,
            seed: 7,
            ..IamConfig::default()
        };
        let cfgs = [
            ("gmm", IamConfig { reducer: ReducerKind::Gmm, ..base.clone() }),
            ("hist", IamConfig { reducer: ReducerKind::Hist, ..base.clone() }),
            ("spline", IamConfig { reducer: ReducerKind::Spline, ..base.clone() }),
            ("umm", IamConfig { reducer: ReducerKind::Umm, ..base.clone() }),
            ("hard_range_weights", IamConfig { hard_range_weights: true, ..base.clone() }),
            ("neurocard_lite", neurocard_lite(IamConfig { factorize_threshold: 256, ..base })),
        ];
        cfgs.into_iter().map(|(name, cfg)| (name, IamEstimator::fit(table, cfg))).collect()
    }

    /// 64 generated queries plus the edge intervals: empty, a point on a
    /// continuous column, one-sided unbounded, full domain, and nothing
    /// constrained.
    fn queries(table: &Table) -> Vec<RangeQuery> {
        let ncols = table.ncols();
        let mut gen = WorkloadGenerator::new(table, WorkloadConfig::default(), 33);
        let mut qs: Vec<RangeQuery> =
            gen.gen_queries(64).iter().map(|q| q.normalize(ncols).unwrap().0).collect();
        let iam_data::Column::Continuous(x) = &table.columns[2] else { panic!("x is continuous") };
        let with = |cols: &[(usize, Interval)]| {
            let mut q = RangeQuery::unconstrained(ncols);
            for &(c, iv) in cols {
                q.cols[c] = Some(iv);
            }
            q
        };
        let full = Interval::full();
        qs.extend([
            with(&[(2, Interval::closed(5.0, 4.0))]),
            with(&[(1, Interval::point(3.0)), (3, Interval::closed(2.0, -2.0))]),
            with(&[(2, Interval::point(x.values[0]))]),
            with(&[(1, Interval::point(2.0)), (2, Interval::point(x.values[17]))]),
            with(&[(3, Interval::from_op(Op::Ge, 0.5))]),
            with(&[(4, Interval::from_op(Op::Le, -1.0)), (0, Interval::from_op(Op::Ge, 20.0))]),
            with(&[(2, Interval::from_op(Op::Ge, -3.0)), (3, Interval::from_op(Op::Le, 4.0))]),
            with(&[(2, full)]),
            with(&[(0, full), (1, full), (2, full), (3, full), (4, full)]),
            with(&[(1, full), (4, Interval::closed(-2.0, 2.0))]),
            RangeQuery::unconstrained(ncols),
        ]);
        qs
    }

    /// The reference estimate: the clamped mean of [`sample`]'s weights
    /// under the serving seed `sampling_salt ^ canonical_key`.
    fn reference_estimate(est: &IamEstimator, q: &RangeQuery) -> f64 {
        let Some(plan) = est.schema.query_plan(q) else { return 0.0 };
        let n = est.cfg.samples.max(1);
        let mut rng = StdRng::seed_from_u64(est.sampling_salt() ^ q.canonical_key());
        let (_, weights) = sample(est.net(), est.fused(), &plan, n, &mut rng);
        let s = (weights.iter().sum::<f64>() / n as f64).clamp(0.0, 1.0);
        crate::invariant::check_selectivity(s, "reference estimate");
        s
    }

    #[test]
    fn batched_kernel_matches_the_reference_sampler_bitwise() {
        let table = Dataset::Wisdm.generate(1500, 7);
        let qs = queries(&table);
        for (name, est) in models(&table) {
            let want: Vec<u64> = qs.iter().map(|q| reference_estimate(&est, q).to_bits()).collect();
            assert!(want.iter().any(|&b| f64::from_bits(b) > 0.0), "{name}: all estimates 0");
            if name == "neurocard_lite" {
                let factor_lo = qs
                    .iter()
                    .filter_map(|q| est.schema.query_plan(q))
                    .filter(|p| p.iter().any(|c| matches!(c, SlotConstraint::FactorLo { .. })))
                    .count();
                assert!(factor_lo > 0, "neurocard_lite planned no FactorLo slot");
            }
            for threads in [1, 3] {
                let got = est.estimate_batch_shared(&qs, threads);
                for (i, (&w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w,
                        g.to_bits(),
                        "{name} query {i} at t={threads}: reference {:e} vs kernel {g:e} ({:?})",
                        f64::from_bits(w),
                        qs[i].cols
                    );
                }
            }
        }
    }

    #[test]
    fn factor_lo_window_bounds_the_first_and_last_blocks() {
        // raw range [300, 700] with base 256: blocks 1 (300..=511) and 2
        // (512..=700); block 0 and 3 are outside
        assert_eq!(factor_lo_window(1, 300, 700, 256, 256), (44, 255));
        assert_eq!(factor_lo_window(2, 300, 700, 256, 256), (0, 188));
        // one block holds the whole range
        assert_eq!(factor_lo_window(1, 300, 400, 256, 256), (44, 144));
        // a low subcolumn narrower than the block's start: empty window
        let (a, b) = factor_lo_window(1, 300, 700, 256, 40);
        assert!(a > b);
    }
}
