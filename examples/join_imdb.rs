//! Join cardinality estimation on the synthetic IMDB star schema
//! (NeuroCard-style full-outer-join training, paper §2.2/§3).
//!
//! ```sh
//! cargo run --release --example join_imdb
//! ```

use iam_core::{IamConfig, IamEstimator};
use iam_join::flat::{exact_card, flatten_foj};
use iam_join::imdb::{synthetic_imdb, ImdbConfig};
use iam_join::workload::JoinWorkloadGenerator;

fn main() {
    // 1. Schema: title + 5 dimension tables joined on movie_id
    let star = synthetic_imdb(&ImdbConfig { movies: 4000, seed: 21 });
    println!("synthetic IMDB:");
    println!("  title: {} rows", star.hub.nrows());
    for d in &star.dims {
        println!("  {}: {} rows", d.table.name, d.table.nrows());
    }
    println!("  |full outer join| = {:.3e}", star.foj_size());

    // 2. Sample the full outer join (Exact-Weight) and train IAM on the
    //    flat sample — continuous columns GMM-reduced, large categoricals
    //    factorised, per-table presence indicators included.
    let (flat, schema) = flatten_foj(&star, 15_000, 22);
    println!(
        "\ntraining IAM on a {}-row FOJ sample ({} flat columns)...",
        flat.nrows(),
        flat.ncols()
    );
    let cfg = IamConfig { epochs: 6, samples: 512, factorize_threshold: 256, ..IamConfig::small() };
    let iam = IamEstimator::fit(&flat, cfg);

    // 3. JOB-light-style join queries with exact ground truth
    let mut gen = JoinWorkloadGenerator::new(&star, 23);
    println!("\n{:<28} {:>12} {:>12} {:>8}", "join graph + preds", "actual", "estimate", "q-err");
    for q in gen.gen_queries(10) {
        let truth = exact_card(&star, &q);
        let got = schema.estimate_card(&iam, &q);
        let tables: Vec<&str> = q
            .join_dims
            .iter()
            .enumerate()
            .filter(|&(_, &j)| j)
            .map(|(t, _)| star.dims[t].table.name.as_str())
            .collect();
        let qe = (truth.max(1.0) / got.max(1.0)).max(got.max(1.0) / truth.max(1.0));
        println!(
            "{:<28} {truth:>12.0} {got:>12.0} {qe:>8.2}",
            format!("title+{} ({}p)", tables.len(), q.num_predicates()),
        );
    }
}
