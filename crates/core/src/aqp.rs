//! Approximate query processing on top of IAM — the paper's stated future
//! work ("extend IAM on other approximate query processing queries, such
//! as AVG and SUM queries", §8).
//!
//! The unbiased progressive sampler draws tuples from the model restricted
//! to the query region, each carrying an importance weight
//! `p̂(s) = Π_i P̂(A_i ∈ R_i | s_<i)`. AQP draws them with the plain
//! per-query reference sampler (`reference.rs`, the spec the batched
//! selectivity kernel is pinned to), after turning every wildcard slot into
//! a full range so the target column is always sampled. Aggregates follow
//! by self-normalised importance sampling: for a target column `c`,
//!
//! * `AVG(c | R) ≈ Σ_s p̂(s) · v_c(s) / Σ_s p̂(s)`
//! * `SUM(c | R) ≈ AVG · sel(R) · |T|`, `COUNT(R) ≈ sel(R) · |T|`
//!
//! where `v_c(s)` is the tuple's reconstructed value for column `c`: the
//! decoded ordinal for direct/factorised columns, the *truncated component
//! mean* `E[X | component k, X ∈ R_c]` for GMM-reduced columns (closed form
//! via the standard truncated-normal identity), and the midpoint of the
//! sampled token's span ∩ `R_c` for the histogram-family reducers (bucket,
//! spline segment or uniform component).

use crate::estimator::IamEstimator;
use crate::reduce::Reducer;
use crate::reference;
use crate::schema::{ColumnHandler, SlotConstraint, SlotRole};
use iam_data::{Interval, RangeQuery};
use iam_gmm::math::{std_normal_cdf, std_normal_pdf};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Domain-separation constant mixed into the per-query aggregate sampling
/// seed so AQP draws never correlate with the selectivity sampler's (which
/// seeds from `sampling_salt ^ canonical_key` alone).
const AQP_SEED_SALT: u64 = 0xA9_9AD0_17E5;

/// Result of an aggregate estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateEstimate {
    /// Estimated `AVG(column)` over the query region (`NaN` when the
    /// region has no estimated mass).
    pub avg: f64,
    /// Estimated `SUM(column)` over the query region.
    pub sum: f64,
    /// Estimated `COUNT(*)` of the region.
    pub count: f64,
    /// Estimated selectivity of the region.
    pub selectivity: f64,
}

/// Mean of a normal `N(mean, std²)` truncated to `[lo, hi]`.
pub fn truncated_normal_mean(mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
    let a = if lo == f64::NEG_INFINITY { f64::NEG_INFINITY } else { (lo - mean) / std };
    let b = if hi == f64::INFINITY { f64::INFINITY } else { (hi - mean) / std };
    let phi = |z: f64| if z.is_infinite() { 0.0 } else { std_normal_pdf(z) };
    let cap_phi = |z: f64| {
        if z == f64::NEG_INFINITY {
            0.0
        } else if z == f64::INFINITY {
            1.0
        } else {
            std_normal_cdf(z)
        }
    };
    let denom = cap_phi(b) - cap_phi(a);
    if denom <= 1e-12 {
        // degenerate: fall back to the nearest boundary / mean
        return mean.clamp(lo.min(hi), hi.max(lo));
    }
    mean + std * (phi(a) - phi(b)) / denom
}

impl IamEstimator {
    /// Estimate `AVG`/`SUM`/`COUNT` of column `target_col` over the region
    /// described by `rq`, using `nrows` as the table cardinality.
    ///
    /// Deterministic, shareable aggregate estimation: `&self`, so a single
    /// trained model behind an `Arc` can answer aggregates from many
    /// threads concurrently (the SQL front-end path).
    ///
    /// The sampling seed is derived from the model's
    /// [`Self::sampling_salt`], the query's
    /// [`RangeQuery::canonical_key`], and a fixed AQP domain-separation
    /// constant — making every aggregate a pure function of
    /// (model, query, target column): independent of call order and of
    /// concurrent load, mirroring the guarantee
    /// [`Self::estimate_batch_shared`] gives for selectivities.
    pub fn estimate_aggregate_shared(
        &self,
        rq: &RangeQuery,
        target_col: usize,
        nrows: usize,
    ) -> AggregateEstimate {
        let seed = self.sampling_salt()
            ^ rq.canonical_key()
            ^ AQP_SEED_SALT
            ^ (target_col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        crate::probes::aqp().queries.inc();
        let plan = match self.schema.query_plan(rq) {
            Some(p) => p,
            None => {
                return AggregateEstimate { avg: f64::NAN, sum: 0.0, count: 0.0, selectivity: 0.0 }
            }
        };
        // the target column may be unconstrained, and every slot must be
        // materialised to reconstruct it: wildcards become full ranges
        let plan: Vec<SlotConstraint> = plan
            .into_iter()
            .zip(&self.schema.slot_domains)
            .map(|(c, &d)| match c {
                SlotConstraint::Wildcard => SlotConstraint::Range(0, d - 1),
                other => other,
            })
            .collect();
        let samples = self.cfg.samples;
        let mut rng = StdRng::seed_from_u64(seed);
        let (tuples, weights) = {
            let _span = iam_obs::span!("aqp.sample");
            reference::sample(self.net(), self.fused(), &plan, samples, &mut rng)
        };
        let sel: f64 = weights.iter().sum::<f64>() / samples.max(1) as f64;
        let target_iv = rq.cols[target_col].unwrap_or(Interval::full());

        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (slots, &w) in tuples.iter().zip(&weights) {
            if w <= 0.0 {
                continue;
            }
            let v = self.reconstruct_value(slots, target_col, &target_iv);
            num += w * v;
            den += w;
        }
        let avg = if den > 0.0 { num / den } else { f64::NAN };
        let count = sel * nrows as f64;
        AggregateEstimate {
            avg,
            sum: if avg.is_nan() { 0.0 } else { avg * count },
            count,
            selectivity: sel.clamp(0.0, 1.0),
        }
    }

    /// Reconstruct a representative raw value of `col` from sampled slots.
    fn reconstruct_value(&self, slots: &[usize], col: usize, iv: &Interval) -> f64 {
        // locate the slot(s) of this column
        let first_slot =
            self.schema.slots.iter().position(|r| r.col() == col).expect("column has a slot");
        match &self.schema.handlers[col] {
            ColumnHandler::Direct(enc) => enc.decode(slots[first_slot]),
            ColumnHandler::Factorized { enc, base } => {
                debug_assert!(matches!(self.schema.slots[first_slot], SlotRole::FactorHi { .. }));
                let idx = slots[first_slot] * base + slots[first_slot + 1];
                enc.decode(idx.min(enc.domain_size() - 1))
            }
            ColumnHandler::Reduced(Reducer::Gmm(g)) => {
                let k = slots[first_slot];
                truncated_normal_mean(g.gmm().means[k], g.gmm().stds[k], iv.lo, iv.hi)
            }
            // histogram family: the midpoint of the sampled token's span
            // (bucket, segment or uniform component) ∩ the range
            ColumnHandler::Reduced(r) => {
                let (lo, hi) = r.span(slots[first_slot]);
                (lo.max(iv.lo) + hi.min(iv.hi)) / 2.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IamConfig;
    use iam_data::column::{CatColumn, Column, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::Table;
    use rand::RngExt;

    fn table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Vec::new();
        let mut x = Vec::new();
        for _ in 0..n {
            let g = rng.random_range(0..3u32);
            c.push(g);
            x.push(g as f64 * 10.0 + iam_data::synth::normal(&mut rng));
        }
        Table::new(
            "t",
            vec![
                Column::Categorical(CatColumn::from_codes_dense("g", c, 3)),
                Column::Continuous(ContColumn::new("x", x)),
            ],
        )
        .unwrap()
    }

    fn cfg() -> IamConfig {
        IamConfig {
            components: 8,
            hidden: vec![48, 48],
            embed_dim: 8,
            epochs: 6,
            lr: 5e-3,
            samples: 600,
            reduce_threshold: 100,
            seed: 3,
            ..IamConfig::default()
        }
    }

    #[test]
    fn truncated_mean_identities() {
        // untruncated: mean itself
        assert!(
            (truncated_normal_mean(2.0, 1.0, f64::NEG_INFINITY, f64::INFINITY) - 2.0).abs() < 1e-9
        );
        // symmetric truncation: mean preserved
        assert!((truncated_normal_mean(0.0, 1.0, -2.0, 2.0)).abs() < 1e-9);
        // right tail only: mean above the cut
        let m = truncated_normal_mean(0.0, 1.0, 1.0, f64::INFINITY);
        assert!(m > 1.0 && m < 2.0, "{m}");
    }

    #[test]
    fn avg_tracks_truth_on_conditioned_region() {
        let t = table(6000, 1);
        let est = IamEstimator::fit(&t, cfg());
        // AVG(x) over group 2 — truth ≈ 20
        let q = Query::new(vec![Predicate { col: 0, op: Op::Eq, value: 2.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let agg = est.estimate_aggregate_shared(&rq, 1, t.nrows());
        // ground truth
        let Column::Continuous(xc) = &t.columns[1] else { unreachable!() };
        let Column::Categorical(gc) = &t.columns[0] else { unreachable!() };
        let (mut s, mut k) = (0.0, 0usize);
        for r in 0..t.nrows() {
            if gc.codes[r] == 2 {
                s += xc.values[r];
                k += 1;
            }
        }
        let truth_avg = s / k as f64;
        let truth_count = k as f64;
        assert!((agg.avg - truth_avg).abs() < 1.5, "AVG: est {} truth {truth_avg}", agg.avg);
        assert!(
            (agg.count - truth_count).abs() < 0.2 * truth_count,
            "COUNT: est {} truth {truth_count}",
            agg.count
        );
        assert!((agg.sum - truth_avg * truth_count).abs() < 0.3 * (truth_avg * truth_count).abs());
    }

    #[test]
    fn avg_respects_range_truncation() {
        let t = table(6000, 2);
        let est = IamEstimator::fit(&t, cfg());
        // AVG(x) over x >= 15: only groups 2-ish qualify; truth ≈ 20
        let q = Query::new(vec![Predicate { col: 1, op: Op::Ge, value: 15.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let agg = est.estimate_aggregate_shared(&rq, 1, t.nrows());
        let Column::Continuous(xc) = &t.columns[1] else { unreachable!() };
        let sel: Vec<f64> = xc.values.iter().copied().filter(|&v| v >= 15.0).collect();
        let truth = sel.iter().sum::<f64>() / sel.len() as f64;
        assert!((agg.avg - truth).abs() < 1.5, "est {} truth {truth}", agg.avg);
        assert!(agg.avg >= 15.0, "AVG over x≥15 cannot be below 15: {}", agg.avg);
    }

    #[test]
    fn histogram_avg_reconstructs_from_the_sampled_bucket() {
        // a Hist-reduced target's value is the midpoint of the sampled
        // bucket ∩ the query range — not of the query range alone, which
        // reads an unbounded side as 0
        let t = table(6000, 1);
        let est = IamEstimator::fit(&t, IamConfig { reducer: crate::ReducerKind::Hist, ..cfg() });
        let Column::Continuous(xc) = &t.columns[1] else { unreachable!() };
        let Column::Categorical(gc) = &t.columns[0] else { unreachable!() };
        let mean = |keep: &dyn Fn(usize) -> bool| {
            let v: Vec<f64> = (0..t.nrows()).filter(|&r| keep(r)).map(|r| xc.values[r]).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        // AVG(x) with x unconstrained (truth ≈ 20), then over x ≥ 15
        let cases = [
            (Predicate { col: 0, op: Op::Eq, value: 2.0 }, mean(&|r| gc.codes[r] == 2)),
            (Predicate { col: 1, op: Op::Ge, value: 15.0 }, mean(&|r| xc.values[r] >= 15.0)),
        ];
        for (pred, truth) in cases {
            let (rq, _) = Query::new(vec![pred]).normalize(2).unwrap();
            let agg = est.estimate_aggregate_shared(&rq, 1, t.nrows());
            assert!((agg.avg - truth).abs() < 1.5, "{pred:?}: est {} truth {truth}", agg.avg);
        }
    }

    #[test]
    fn shared_aggregates_are_deterministic() {
        let t = table(2000, 4);
        let est = IamEstimator::fit(&t, cfg());
        let q = Query::new(vec![Predicate { col: 0, op: Op::Eq, value: 1.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let a = est.estimate_aggregate_shared(&rq, 1, t.nrows());
        let b = est.estimate_aggregate_shared(&rq, 1, t.nrows());
        assert_eq!(a.avg.to_bits(), b.avg.to_bits());
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert_eq!(a.count.to_bits(), b.count.to_bits());
        assert_eq!(a.selectivity.to_bits(), b.selectivity.to_bits());
        // distinct target columns decorrelate their seeds but still share
        // the region, so selectivity stays a pure function of the query
        let c = est.estimate_aggregate_shared(&rq, 0, t.nrows());
        assert!(c.count.is_finite());
    }

    #[test]
    fn empty_region_reports_zero_mass() {
        let t = table(2000, 3);
        let est = IamEstimator::fit(&t, cfg());
        let mut rq = iam_data::RangeQuery::unconstrained(2);
        rq.cols[1] = Some(Interval::closed(1e6, 2e6));
        let agg = est.estimate_aggregate_shared(&rq, 1, t.nrows());
        assert!(agg.count < 2.0, "count {}", agg.count);
        assert!(agg.selectivity < 1e-3);
    }
}
