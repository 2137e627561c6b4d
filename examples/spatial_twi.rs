//! Spatial workload demo: rectangle (bounding-box) queries over a
//! tweet-like lat/lon dataset — the use-case from the paper's introduction
//! ("find POIs in a spatial range").
//!
//! Compares IAM with its own Neurocard-style ablation (no GMM reduction)
//! on the same architecture, showing the domain-reduction effect.
//!
//! ```sh
//! cargo run --release --example spatial_twi
//! ```

use iam_core::{neurocard_lite, IamConfig, IamEstimator};
use iam_data::query::{Op, Predicate, Query};
use iam_data::synth::Dataset;
use iam_data::{exact_selectivity, q_error, ErrorSummary, SelectivityEstimator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let table = Dataset::Twi.generate(30_000, 7);
    println!("TWI-like dataset: {} rows (lat/lon)", table.nrows());

    let cfg = IamConfig { epochs: 6, samples: 512, factorize_threshold: 256, ..IamConfig::small() };
    println!("training IAM (GMM-reduced domains)...");
    let iam = IamEstimator::fit(&table, cfg.clone());
    println!("training Neurocard-style ablation (factorised domains)...");
    let nc = IamEstimator::fit(&table, neurocard_lite(cfg));

    // rectangle queries: lat/lon windows of random position and size
    let mut rng = StdRng::seed_from_u64(99);
    let mut make_box = || -> Query {
        let lat0 = 25.0 + rng.random::<f64>() * 20.0;
        let lon0 = -124.0 + rng.random::<f64>() * 50.0;
        let h = 0.5 + rng.random::<f64>() * 6.0;
        let w = 0.5 + rng.random::<f64>() * 8.0;
        Query::new(vec![
            Predicate { col: 0, op: Op::Ge, value: lat0 },
            Predicate { col: 0, op: Op::Le, value: lat0 + h },
            Predicate { col: 1, op: Op::Ge, value: lon0 },
            Predicate { col: 1, op: Op::Le, value: lon0 + w },
        ])
    };

    let queries: Vec<Query> = (0..60).map(|_| make_box()).collect();
    let mut errs_iam = Vec::new();
    let mut errs_nc = Vec::new();
    for q in &queries {
        let truth = exact_selectivity(&table, q);
        let (rq, _) = q.normalize(2).expect("valid");
        errs_iam.push(q_error(truth, iam.estimate(&rq), table.nrows()));
        errs_nc.push(q_error(truth, nc.estimate(&rq), table.nrows()));
    }

    println!("\nbounding-box workload ({} queries):", queries.len());
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Estimator", "Mean", "Median", "95th", "99th", "Max"
    );
    println!("{}", ErrorSummary::from_errors(&errs_iam).unwrap().table_row("IAM"));
    println!("{}", ErrorSummary::from_errors(&errs_nc).unwrap().table_row("Neurocard"));
    println!(
        "\nmodel sizes: IAM {:.1} KB vs Neurocard {:.1} KB",
        iam.model_size_bytes() as f64 / 1024.0,
        nc.model_size_bytes() as f64 / 1024.0
    );
}
