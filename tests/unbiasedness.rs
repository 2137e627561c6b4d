//! Theorem 5.1: the modified progressive sampling is an *unbiased*
//! estimator of the model's own probability mass.
//!
//! Strategy: build a small model whose implied selectivity can be computed
//! *exhaustively* (enumerating every tuple of the reduced domain), then
//! check that the mean of many independent progressive-sampling runs
//! converges to it — both for plain AR columns and for GMM-reduced columns
//! with the `P̂_GMM(R)` bias correction.

use iam_core::{IamConfig, IamEstimator};
use iam_data::column::{CatColumn, Column, ContColumn};
use iam_data::query::{Interval, Op, Predicate, Query};
use iam_data::{RangeQuery, SelectivityEstimator, Table};
use iam_gmm::Gmm1d;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A small mixed table: categorical(4) × categorical(3) × continuous
/// (reduced by a GMM).
fn small_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut x = Vec::new();
    let blobs = Gmm1d::new(vec![0.4, 0.35, 0.25], vec![-6.0, 0.0, 7.0], vec![1.0, 0.8, 1.3]);
    for _ in 0..n {
        let ai = rng.random_range(0..4u32);
        let bi = (ai + rng.random_range(0..2u32)) % 3;
        a.push(ai);
        b.push(bi);
        x.push(blobs.sample(&mut rng) + ai as f64);
    }
    Table::new(
        "small",
        vec![
            Column::Categorical(CatColumn::from_codes_dense("a", a, 4)),
            Column::Categorical(CatColumn::from_codes_dense("b", b, 3)),
            Column::Continuous(ContColumn::new("x", x)),
        ],
    )
    .unwrap()
}

/// Exhaustively compute the trained model's implied estimate for `rq`:
/// enumerate every reduced tuple, chain the AR conditionals, and apply the
/// same per-slot constraint weights the sampler uses.
fn exhaustive_model_selectivity(est: &IamEstimator, rq: &RangeQuery) -> f64 {
    use iam_core::SlotConstraint;
    let plan = match est.schema.query_plan(rq) {
        Some(p) => p,
        None => return 0.0,
    };
    let nslots = est.schema.nslots();

    // recursive enumeration over slot values, carrying prefix probability
    fn recurse(
        est: &IamEstimator,
        plan: &[iam_core::SlotConstraint],
        prefix: &mut Vec<usize>,
        slot: usize,
        nslots: usize,
    ) -> f64 {
        if slot == nslots {
            return 1.0;
        }
        match &plan[slot] {
            SlotConstraint::Wildcard => {
                // wildcard skipping: feed MASK, weight 1
                prefix.push(usize::MAX); // placeholder meaning MASK
                let total = recurse(est, plan, prefix, slot + 1, nslots);
                prefix.pop();
                total
            }
            constraint => {
                let probs = conditional(est, prefix, slot);
                let mut total = 0.0;
                for (v, &p) in probs.iter().enumerate() {
                    let w = match constraint {
                        SlotConstraint::Range(a, b) => {
                            if v >= *a && v <= *b {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        SlotConstraint::Weights(w) => w[v],
                        SlotConstraint::FactorLo { .. } => unreachable!("no factorised cols here"),
                        SlotConstraint::Wildcard => unreachable!(),
                    };
                    if p * w == 0.0 {
                        continue;
                    }
                    prefix.push(v);
                    total += p * w * recurse(est, plan, prefix, slot + 1, nslots);
                    prefix.pop();
                }
                total
            }
        }
    }

    /// AR conditional for `slot` given a prefix (usize::MAX = MASK).
    fn conditional(est: &IamEstimator, prefix: &[usize], slot: usize) -> Vec<f64> {
        let nslots = est.schema.nslots();
        let net = est.net();
        let mut inputs = vec![0usize; nslots];
        for s in 0..nslots {
            inputs[s] = if s < prefix.len() && prefix[s] != usize::MAX {
                prefix[s]
            } else {
                net.mask_token(s)
            };
        }
        let mut logits = Vec::new();
        // the plain full forward: the reference the production sampler's
        // fused column forward is checked against
        net.forward(&inputs, 1, &mut logits);
        let mut probs = Vec::new();
        net.column_softmax(&logits, 0, slot, &mut probs);
        probs.iter().map(|&p| p as f64).collect()
    }

    let mut prefix = Vec::new();
    recurse(est, &plan, &mut prefix, 0, nslots)
}

fn check_unbiased(est: IamEstimator, rq: &RangeQuery, runs: usize, tol: f64) {
    let expected = exhaustive_model_selectivity(&est, rq);
    let mut total = 0.0;
    for r in 0..runs {
        // one independent sampling run per seed
        let seed = StdRng::seed_from_u64(0xBEEF + r as u64).random::<u64>();
        total += est.estimate_seeded(std::slice::from_ref(rq), &[seed], 1)[0];
    }
    let mean = total / runs as f64;
    assert!(
        (mean - expected).abs() <= tol * expected.max(1e-3),
        "progressive sampling biased: mean {mean} vs exhaustive {expected}"
    );
}

fn cfg() -> IamConfig {
    IamConfig {
        components: 6,
        hidden: vec![32, 32],
        embed_dim: 8,
        epochs: 4,
        samples: 400,
        seed: 3,
        reduce_threshold: 100,
        ..IamConfig::default()
    }
}

#[test]
fn unbiased_on_plain_ar_columns() {
    let table = small_table(4000, 1);
    let est = IamEstimator::fit(&table, cfg());
    // range touches only the two categorical (Direct) columns
    let q = Query::new(vec![
        Predicate { col: 0, op: Op::Le, value: 1.0 },
        Predicate { col: 1, op: Op::Ge, value: 1.0 },
    ]);
    let (rq, _) = q.normalize(3).unwrap();
    check_unbiased(est, &rq, 30, 0.05);
}

#[test]
fn unbiased_with_gmm_corrected_column() {
    let table = small_table(4000, 2);
    let est = IamEstimator::fit(&table, cfg());
    // range on the GMM-reduced continuous column — the Theorem 5.1 case
    let q = Query::new(vec![
        Predicate { col: 2, op: Op::Ge, value: -2.0 },
        Predicate { col: 2, op: Op::Le, value: 5.0 },
    ]);
    let (rq, _) = q.normalize(3).unwrap();
    check_unbiased(est, &rq, 30, 0.05);
}

#[test]
fn unbiased_on_mixed_constraints() {
    let table = small_table(4000, 3);
    let est = IamEstimator::fit(&table, cfg());
    // categorical point + categorical range + continuous range, with the
    // middle column acting through conditionals
    let q = Query::new(vec![
        Predicate { col: 0, op: Op::Eq, value: 2.0 },
        Predicate { col: 2, op: Op::Le, value: 1.5 },
    ]);
    let (rq, _) = q.normalize(3).unwrap();
    check_unbiased(est, &rq, 40, 0.08);
}

#[test]
fn interval_edge_cases_agree() {
    let table = small_table(3000, 4);
    let est = IamEstimator::fit(&table, cfg());
    // full-domain range over the reduced column behaves like no constraint
    let mut rq_full = RangeQuery::unconstrained(3);
    rq_full.cols[2] = Some(Interval::closed(-1e9, 1e9));
    let sel = est.estimate(&rq_full);
    assert!((sel - 1.0).abs() < 0.02, "covering range should estimate ~1, got {sel}");
}
