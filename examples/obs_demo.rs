//! Observability demo: train a small IAM model with full instrumentation
//! on, estimate a workload, and dump every signal `iam-obs` collects:
//!
//! - `target/obs/metrics.prom` — Prometheus text exposition of the global
//!   registry (training/inference counters, histograms, span timings).
//! - `target/obs/spans.folded` — folded stacks for `flamegraph.pl` or
//!   speedscope.
//! - `target/obs/spans.jsonl` — one span record per line: every span the
//!   main thread closed while a `TraceCtx` was installed.
//!
//! Per-epoch losses are not in any of the files as a series: they live in
//! `IamEstimator::stats` (and the last epoch's in the `iam_train_*_loss`
//! gauges); the demo prints them.
//!
//! ```sh
//! cargo run --release -p iam-core --example obs_demo
//! ```
//!
//! The demo ends by cross-checking the three outputs against each other:
//! the Prometheus dump, the folded stacks and the span records must all
//! tell the same story.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use iam_obs::tracetree;

const EPOCHS: usize = 3;
const QUERIES: usize = 16;
const SAMPLES: usize = 256;
const SAMPLER_SPAN: &str = "infer.progressive_sample";

fn main() {
    let out = std::path::Path::new("target/obs");
    std::fs::create_dir_all(out).expect("create target/obs");
    iam_obs::span::enable();
    tracetree::enable();
    let ctx = tracetree::install(iam_obs::TraceCtx::root(1));

    let table = Dataset::Twi.generate(10_000, 42);
    let cfg = IamConfig { epochs: EPOCHS, samples: SAMPLES, ..IamConfig::small() };
    let iam = IamEstimator::fit(&table, cfg);

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 7);
    for q in gen.gen_queries(QUERIES) {
        let (rq, _) = q.normalize(table.ncols()).expect("valid query");
        let _ = iam.estimate(&rq);
    }
    drop(ctx);

    let prom = iam_obs::Registry::global().render_prometheus();
    let folded = iam_obs::span::folded_stacks();
    let records = tracetree::drain();
    let jsonl = tracetree::to_jsonl(&records);
    std::fs::write(out.join("metrics.prom"), &prom).expect("write metrics.prom");
    std::fs::write(out.join("spans.folded"), &folded).expect("write spans.folded");
    std::fs::write(out.join("spans.jsonl"), &jsonl).expect("write spans.jsonl");

    // cross-check 1: the Prometheus dump against what the program did
    let prom_sample = |series: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{series} missing from metrics.prom"))
            .parse()
            .expect("integer sample")
    };
    assert_eq!(prom_sample("iam_train_epochs_total") as usize, EPOCHS);
    assert_eq!(prom_sample("iam_infer_queries_total") as usize, QUERIES);
    assert_eq!(prom_sample("iam_infer_samples_total") as usize, QUERIES * SAMPLES);
    assert_eq!(iam.stats.len(), EPOCHS, "one EpochStats per epoch");

    // cross-check 2: the three span views count the sampler's calls alike —
    // the registry mirror (by leaf name), the per-path aggregate behind
    // spans.folded, and the span records behind spans.jsonl
    let mirror = prom_sample(&format!("iam_span_calls_total{{span=\"{SAMPLER_SPAN}\"}}"));
    let by_path: u64 = iam_obs::span::report()
        .iter()
        .filter(|(path, _)| path.rsplit(';').next() == Some(SAMPLER_SPAN))
        .map(|(_, agg)| agg.count)
        .sum();
    let recorded = records.iter().filter(|r| r.name == SAMPLER_SPAN).count() as u64;
    assert_eq!(mirror, QUERIES as u64, "one sampler span per estimated query");
    assert_eq!(by_path, mirror, "per-path aggregate vs registry mirror");
    assert_eq!(recorded, mirror, "span records vs registry mirror");
    assert_eq!(tracetree::dropped(), 0, "the record buffer overflowed");
    assert_eq!(jsonl.lines().count(), records.len(), "one JSONL line per record");
    assert!(folded.lines().any(|l| l.contains(SAMPLER_SPAN)), "sampler missing from spans.folded");

    println!("wrote {}/metrics.prom ({} samples)", out.display(), prom.lines().count());
    println!("wrote {}/spans.folded ({} paths)", out.display(), folded.lines().count());
    println!("wrote {}/spans.jsonl ({} records)", out.display(), records.len());
    println!("per-epoch losses (IamEstimator::stats):");
    for (i, s) in iam.stats.iter().enumerate() {
        println!("  epoch {} ar {:.4} gmm {:.4}", i + 1, s.ar_loss, s.gmm_loss);
    }
    println!("per-phase wall time:");
    for (path, agg) in iam_obs::span::report() {
        println!("  {:>10}µs total {:>6} calls  {}", agg.total_us, agg.count, path);
    }
    println!("all expositions consistent ✓");
}
