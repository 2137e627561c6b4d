//! End-to-end query optimization (paper §6.4 / Figure 5): plug different
//! estimators into a Selinger-style optimizer and execute the chosen plans.
//!
//! ```sh
//! cargo run --release --example optimizer_endtoend
//! ```

use iam_core::{neurocard_lite, IamConfig, IamEstimator};
use iam_join::flat::flatten_foj;
use iam_join::imdb::{synthetic_imdb, ImdbConfig};
use iam_join::workload::JoinWorkloadGenerator;
use iam_opt::{
    execute, optimize, ExactCardEstimator, FlatCardEstimator, IndependenceCardEstimator,
    JoinCardEstimator,
};

fn main() {
    let star = synthetic_imdb(&ImdbConfig { movies: 4000, seed: 31 });
    let (flat, schema) = flatten_foj(&star, 12_000, 32);
    let cfg = IamConfig { epochs: 5, samples: 256, factorize_threshold: 256, ..IamConfig::small() };
    println!("training IAM + Neurocard-style ablation on the FOJ sample...");
    let iam = IamEstimator::fit(&flat, cfg.clone());
    let nc = IamEstimator::fit(&flat, neurocard_lite(cfg));

    let arms: Vec<(&str, Box<dyn JoinCardEstimator>)> = vec![
        ("exact", Box::new(ExactCardEstimator::new(&star))),
        ("Postgres", Box::new(IndependenceCardEstimator::new(&star))),
        ("Neurocard", Box::new(FlatCardEstimator::new(&nc, &schema))),
        ("IAM", Box::new(FlatCardEstimator::new(&iam, &schema))),
    ];

    let mut gen = JoinWorkloadGenerator::new(&star, 33);
    let queries = gen.gen_queries(30);

    println!("\n{:<12} {:>14} {:>14}", "estimator", "work (tuples)", "exec time (s)");
    for (name, est) in &arms {
        let mut work = 0u64;
        let mut secs = 0.0f64;
        for q in &queries {
            let plan = optimize(q, est.as_ref());
            let rep = execute(&star, q, &plan);
            work += rep.intermediate_tuples;
            secs += rep.seconds;
        }
        println!("{name:<12} {work:>14} {secs:>14.3}");
    }
    println!("\n(better estimates → better join orders → less intermediate work)");
}
