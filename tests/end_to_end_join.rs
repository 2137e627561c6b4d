//! Cross-crate end-to-end test: join-cardinality estimation and the
//! optimizer pipeline on the synthetic IMDB schema.

use iam_core::{IamConfig, IamEstimator};
use iam_join::flat::{exact_card, flatten_foj};
use iam_join::imdb::{synthetic_imdb, ImdbConfig};
use iam_join::workload::JoinWorkloadGenerator;
use iam_opt::{
    execute, optimize, ExactCardEstimator, FlatCardEstimator, IndependenceCardEstimator,
    JoinCardEstimator,
};

fn quick_cfg(seed: u64) -> IamConfig {
    IamConfig {
        components: 12,
        hidden: vec![64, 64],
        embed_dim: 8,
        epochs: 6,
        lr: 5e-3,
        samples: 300,
        factorize_threshold: 256,
        seed,
        ..IamConfig::default()
    }
}

#[test]
fn iam_join_estimates_are_sane() {
    let star = synthetic_imdb(&ImdbConfig { movies: 1500, seed: 1 });
    let (flat, schema) = flatten_foj(&star, 9000, 2);
    let iam = IamEstimator::fit(&flat, quick_cfg(2));
    let mut gen = JoinWorkloadGenerator::new(&star, 3);
    let mut errs: Vec<f64> = Vec::new();
    for q in gen.gen_queries(25) {
        let truth = exact_card(&star, &q).max(1.0);
        let got = schema.estimate_card(&iam, &q).max(1.0);
        errs.push((truth / got).max(got / truth));
    }
    errs.sort_by(f64::total_cmp);
    let median = errs[errs.len() / 2];
    assert!(median < 5.0, "median join q-error {median} ({errs:?})");
}

#[test]
fn optimizer_plans_execute_to_the_same_cardinality() {
    // any estimator's plan must produce the same final result as ground
    // truth — estimates affect *order*, never correctness
    let star = synthetic_imdb(&ImdbConfig { movies: 800, seed: 4 });
    let (flat, schema) = flatten_foj(&star, 5000, 5);
    let iam = IamEstimator::fit(&flat, quick_cfg(5));
    let arms: Vec<Box<dyn JoinCardEstimator>> = vec![
        Box::new(ExactCardEstimator::new(&star)),
        Box::new(IndependenceCardEstimator::new(&star)),
        Box::new(FlatCardEstimator::new(&iam, &schema)),
    ];
    let mut gen = JoinWorkloadGenerator::new(&star, 6);
    for q in gen.gen_queries(12) {
        let truth = exact_card(&star, &q) as u64;
        for est in &arms {
            let plan = optimize(&q, est.as_ref());
            let rep = execute(&star, &q, &plan);
            assert_eq!(rep.card, truth, "estimator {} broke correctness", est.name());
        }
    }
}

#[test]
fn better_estimates_do_not_increase_work() {
    let star = synthetic_imdb(&ImdbConfig { movies: 1200, seed: 7 });
    let exact = ExactCardEstimator::new(&star);
    let pg = IndependenceCardEstimator::new(&star);
    let mut gen = JoinWorkloadGenerator::new(&star, 8);
    let (mut w_exact, mut w_pg) = (0u64, 0u64);
    for q in gen.gen_queries(30) {
        let p1 = optimize(&q, &exact);
        let p2 = optimize(&q, &pg);
        w_exact += execute(&star, &q, &p1).intermediate_tuples;
        w_pg += execute(&star, &q, &p2).intermediate_tuples;
    }
    assert!(
        w_exact <= w_pg,
        "exact-cardinality plans must not do more work: exact {w_exact} vs postgres {w_pg}"
    );
}

#[test]
fn foj_sample_reflects_indicator_semantics() {
    let star = synthetic_imdb(&ImdbConfig { movies: 600, seed: 9 });
    let (flat, schema) = flatten_foj(&star, 8000, 10);
    // fraction of FOJ rows with dim t present ≈ Σ_m cnt>0-weighted share
    for (t, dim) in star.dims.iter().enumerate() {
        let ind_col = schema.dim_offsets[t];
        let present = (0..flat.nrows())
            .filter(|&r| flat.columns[ind_col].value_as_f64(r) == 1.0)
            .count() as f64
            / flat.nrows() as f64;
        // expected = Σ_m [cnt>0]·w_m / Σ w_m
        let mut num = 0.0;
        let mut den = 0.0;
        for m in 0..star.hub.nrows() {
            let mut w = 1.0;
            for d in &star.dims {
                w *= d.rows_of[m].len().max(1) as f64;
            }
            den += w;
            if !dim.rows_of[m].is_empty() {
                num += w;
            }
        }
        let expected = num / den;
        assert!(
            (present - expected).abs() < 0.03,
            "dim {t}: sampled presence {present} vs expected {expected}"
        );
    }
}
