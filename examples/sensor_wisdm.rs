//! Sensor analytics demo: mixed categorical/continuous predicates over a
//! WISDM-like accelerometer dataset — "how many high-energy readings did
//! subject S record during activity A?"
//!
//! Also demonstrates the harness-level query algebra: `≠` predicates and
//! disjunctions via inclusion–exclusion.
//!
//! ```sh
//! cargo run --release --example sensor_wisdm
//! ```

use iam_core::{IamConfig, IamEstimator};
use iam_data::query::{Op, Predicate, Query};
use iam_data::synth::Dataset;
use iam_data::{exact_selectivity, q_error, EstimatorHarness};

fn main() {
    let table = Dataset::Wisdm.generate(30_000, 11);
    println!(
        "WISDM-like dataset: {} rows × {} cols (subject, activity, x, y, z)",
        table.nrows(),
        table.ncols()
    );

    let cfg = IamConfig { epochs: 6, samples: 512, ..IamConfig::small() };
    let iam = IamEstimator::fit(&table, cfg);
    println!("trained; model {:.1} KB", {
        use iam_data::SelectivityEstimator;
        iam.model_size_bytes() as f64 / 1024.0
    });

    // analyst-style questions
    let ncols = table.ncols();
    let questions: Vec<(&str, Query)> = vec![
        (
            "subject 03, activity 05, x > 5",
            Query::new(vec![
                Predicate { col: 0, op: Op::Eq, value: 3.0 },
                Predicate { col: 1, op: Op::Eq, value: 5.0 },
                Predicate { col: 2, op: Op::Gt, value: 5.0 },
            ]),
        ),
        (
            "any subject but 00, burst on all axes",
            Query::new(vec![
                Predicate { col: 0, op: Op::Ne, value: 0.0 },
                Predicate { col: 2, op: Op::Ge, value: 20.0 },
                Predicate { col: 3, op: Op::Ge, value: 20.0 },
                Predicate { col: 4, op: Op::Ge, value: 20.0 },
            ]),
        ),
        (
            "activities 0-3, y in [-5, 5]",
            Query::new(vec![
                Predicate { col: 1, op: Op::Le, value: 3.0 },
                Predicate { col: 3, op: Op::Ge, value: -5.0 },
                Predicate { col: 3, op: Op::Le, value: 5.0 },
            ]),
        ),
    ];

    println!("\n{:<42} {:>10} {:>10} {:>8}", "question", "actual", "estimate", "q-err");
    for (desc, q) in &questions {
        let truth = exact_selectivity(&table, q);
        // Ne is handled by the harness via inclusion-exclusion
        let est = EstimatorHarness::estimate_query(&iam, q, ncols);
        println!(
            "{desc:<42} {truth:>10.5} {est:>10.5} {:>8.2}",
            q_error(truth, est, table.nrows())
        );
    }

    // disjunction: sedentary OR vigorous activity codes
    let d1 = Query::new(vec![Predicate { col: 1, op: Op::Le, value: 2.0 }]);
    let d2 = Query::new(vec![Predicate { col: 1, op: Op::Ge, value: 15.0 }]);
    let est = EstimatorHarness::estimate_disjunction(&iam, &[d1.clone(), d2.clone()], ncols);
    let truth = {
        let a = exact_selectivity(&table, &d1);
        let b = exact_selectivity(&table, &d2);
        a + b // disjoint ranges
    };
    println!(
        "{:<42} {truth:>10.5} {est:>10.5} {:>8.2}",
        "activity <= 2 OR activity >= 15",
        q_error(truth, est, table.nrows())
    );
}
