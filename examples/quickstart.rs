//! Quickstart: train IAM on a small synthetic dataset and estimate a few
//! queries against ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{
    exact_selectivity, q_error, SelectivityEstimator, WorkloadConfig, WorkloadGenerator,
};

fn main() {
    // 1. Get a table. TWI is two continuous columns (latitude/longitude)
    //    with ~n distinct values each — the "large domain" regime IAM
    //    targets. Swap in your own `iam_data::Table` here.
    let table = Dataset::Twi.generate(20_000, 42);
    println!("dataset: {} rows × {} columns", table.nrows(), table.ncols());

    // 2. Configure IAM. Defaults follow the paper (30 GMM components,
    //    reduction threshold 1000, ResMADE 256/128/128/256); `small()` is a
    //    fast profile for demos.
    let cfg = IamConfig { epochs: 5, samples: 512, ..IamConfig::small() };

    // 3. Train. GMMs are fitted per continuous column and refined jointly
    //    with the AR model (Eq. 6 of the paper).
    let t0 = std::time::Instant::now();
    let iam = IamEstimator::fit(&table, cfg);
    println!(
        "trained in {:.1}s — model size {:.1} KB, final loss {:.3}",
        t0.elapsed().as_secs_f64(),
        iam.model_size_bytes() as f64 / 1024.0,
        iam.stats.last().map(|s| s.total()).unwrap_or(f64::NAN),
    );

    // 4. Estimate. Queries are conjunctions of range predicates; the
    //    harness computes exact selectivities for comparison.
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 7);
    println!("\n{:<44} {:>10} {:>10} {:>8}", "query", "actual", "estimate", "q-error");
    for q in gen.gen_queries(8) {
        let truth = exact_selectivity(&table, &q);
        let (rq, _) = q.normalize(table.ncols()).expect("valid query");
        let est = iam.estimate(&rq);
        let desc: Vec<String> = q
            .predicates
            .iter()
            .map(|p| format!("c{}{}{:.1}", p.col, op_str(p.op), p.value))
            .collect();
        println!(
            "{:<44} {:>10.5} {:>10.5} {:>8.2}",
            desc.join(" AND "),
            truth,
            est,
            q_error(truth, est, table.nrows())
        );
    }
}

fn op_str(op: iam_data::Op) -> &'static str {
    match op {
        iam_data::Op::Eq => "=",
        iam_data::Op::Ne => "!=",
        iam_data::Op::Lt => "<",
        iam_data::Op::Le => "<=",
        iam_data::Op::Gt => ">",
        iam_data::Op::Ge => ">=",
    }
}
