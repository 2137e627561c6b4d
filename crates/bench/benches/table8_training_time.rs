//! Table 8: training time (s) on IMDB for MSCN / DeepDB / Neurocard / IAM,
//! plus a training-throughput sweep over worker-thread counts.
//!
//! The sweep retrains IAM with `train_threads` ∈ {1, 2, 4} (override the
//! list with `IAM_BENCH_THREAD_SWEEP`, e.g. `1,2,4,8`) and prints the
//! per-configuration epoch time and rows/s. The thread count never changes
//! the trained weights (see `iam_core::train`), so the sweep measures pure
//! wall-time scaling.

use iam_bench::join_exp::JoinExperiment;
use iam_bench::BenchScale;
use iam_core::{neurocard_lite, IamConfig, IamEstimator};
use iam_estimators::spn::SpnConfig;
use iam_estimators::{mscn::MscnConfig, MscnLite, SpnEstimator};
use std::time::Instant;

/// One sweep configuration's measurements.
struct SweepRow {
    threads: usize,
    mean_epoch_s: f64,
    rows_per_s: f64,
    final_ar_loss: f64,
}

fn sweep_threads() -> Vec<usize> {
    std::env::var("IAM_BENCH_THREAD_SWEEP")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

fn run_sweep(table: &iam_data::Table, cfg: &IamConfig, epochs: usize) -> Vec<SweepRow> {
    // one unmeasured fit first: the very first training run pays page
    // faults / frequency ramp-up and would bias whichever thread count
    // happens to go first
    let _ = IamEstimator::fit(table, IamConfig { epochs: 1, ..cfg.clone() });
    sweep_threads()
        .into_iter()
        .map(|threads| {
            let cfg = IamConfig { epochs, train_threads: threads, ..cfg.clone() };
            let est = IamEstimator::fit(table, cfg);
            let secs: f64 = est.stats.iter().map(|s| s.seconds).sum();
            let rows: usize = est.stats.iter().map(|s| s.rows).sum();
            SweepRow {
                threads,
                mean_epoch_s: secs / epochs.max(1) as f64,
                rows_per_s: rows as f64 / secs.max(1e-9),
                final_ar_loss: est.stats.last().map_or(f64::NAN, |s| s.ar_loss),
            }
        })
        .collect()
}

fn main() {
    let scale = BenchScale::from_env();
    eprintln!("[table8] preparing IMDB");
    let exp = JoinExperiment::prepare(&scale);
    let cfg = scale.iam_config();

    let t0 = Instant::now();
    let _mscn =
        MscnLite::fit(&exp.flat, &exp.train, MscnConfig { seed: scale.seed, ..Default::default() });
    let mscn_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _spn = SpnEstimator::new(&exp.flat, SpnConfig::default());
    let spn_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _nc = IamEstimator::fit(&exp.flat, neurocard_lite(cfg.clone()));
    let nc_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let _iam = IamEstimator::fit(&exp.flat, cfg.clone());
    let iam_s = t0.elapsed().as_secs_f64();

    println!("\n=== Table 8: training time on IMDB (s) ===");
    println!("{:<12} {:>9}", "Estimator", "seconds");
    println!("{:<12} {:>9.1}", "MSCN", mscn_s);
    println!("{:<12} {:>9.1}", "DeepDB", spn_s);
    println!("{:<12} {:>9.1}", "Neurocard", nc_s);
    println!("{:<12} {:>9.1}", "IAM", iam_s);

    // throughput sweep: a short retrain per thread count is enough for a
    // stable rows/s figure, and the final loss column makes the
    // thread-invariance visible in the printed table
    let sweep_epochs = scale.epochs.clamp(1, 3);
    eprintln!("[table8] thread sweep ({sweep_epochs} epochs per config)");
    let rows = run_sweep(&exp.flat, &cfg, sweep_epochs);

    println!("\n=== IAM training throughput vs train_threads ===");
    println!("{:<8} {:>12} {:>10} {:>14}", "threads", "epoch (ms)", "rows/s", "final ar loss");
    for r in &rows {
        println!(
            "{:<8} {:>12.1} {:>10.0} {:>14.6}",
            r.threads,
            r.mean_epoch_s * 1000.0,
            r.rows_per_s,
            r.final_ar_loss
        );
    }
}
