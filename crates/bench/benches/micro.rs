//! Criterion micro-benchmarks for the hot paths: GMM operations, MADE
//! forward passes and progressive-sampling inference.

use criterion::{criterion_group, criterion_main, Criterion};
use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use iam_gmm::Gmm1d;
use iam_nn::{InferScratch, MadeConfig, MadeNet};
use std::hint::black_box;

fn gmm_ops(c: &mut Criterion) {
    let gmm = Gmm1d::new(
        (0..30).map(|i| 1.0 + i as f64).collect(),
        (0..30).map(|i| i as f64 * 3.0).collect(),
        vec![1.5; 30],
    );
    c.bench_function("gmm_assign", |b| b.iter(|| black_box(gmm.assign(black_box(42.7)))));
    c.bench_function("gmm_range_mass_exact", |b| {
        b.iter(|| black_box(gmm.range_mass_exact(black_box(10.0), black_box(55.0))))
    });
}

fn made_forward(c: &mut Criterion) {
    let net = MadeNet::new(MadeConfig {
        domain_sizes: vec![51, 18, 30, 30, 30],
        hidden: vec![128, 64, 64, 128],
        embed_dim: 16,
        residual: true,
        seed: 1,
    });
    let tables = net.build_fused_tables();
    let mut scratch = InferScratch::new();
    let batch = 256usize;
    let inputs: Vec<usize> = (0..batch * 5).map(|i| i % 18).collect();
    let mut out = Vec::new();
    c.bench_function("made_forward_column_fused_b256", |b| {
        b.iter(|| {
            net.forward_column_fused(&tables, &mut scratch, black_box(&inputs), batch, 4, &mut out);
            black_box(out.len())
        })
    });
}

fn made_train(c: &mut Criterion) {
    let mut net = MadeNet::new(MadeConfig {
        domain_sizes: vec![51, 18, 30, 30, 30],
        hidden: vec![128, 64, 64, 128],
        embed_dim: 16,
        residual: true,
        seed: 2,
    });
    let batch = 256usize;
    let inputs: Vec<usize> = (0..batch * 5).map(|i| (i * 7) % 18).collect();
    let targets: Vec<usize> = (0..batch * 5).map(|i| (i * 13) % 18).collect();
    c.bench_function("made_train_batch_b256_t1", |b| {
        b.iter(|| black_box(net.train_batch_sharded(black_box(&inputs), &targets, batch, 1)))
    });
}

fn iam_inference(c: &mut Criterion) {
    let table = Dataset::Wisdm.generate(5000, 3);
    let cfg = IamConfig { epochs: 2, samples: 256, ..IamConfig::small() };
    let mut iam = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 5);
    let rqs: Vec<RangeQuery> =
        gen.gen_queries(16).into_iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    let mut i = 0usize;
    c.bench_function("iam_estimate_single", |b| {
        b.iter(|| {
            let rq = &rqs[i % rqs.len()];
            i += 1;
            black_box(iam.estimate(black_box(rq)))
        })
    });
}

criterion_group!(benches, gmm_ops, made_forward, made_train, iam_inference);
criterion_main!(benches);
