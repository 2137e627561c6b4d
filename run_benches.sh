#!/bin/sh
# Regenerates every paper table/figure. Scale via IAM_BENCH_* env vars.
#
# Simulation mode: IAM_BENCH_SIMULATE_CORES=N runs the thread-sweeping
# bench (table8_training_time) with N worker threads even when the host
# has fewer physical cores. This exercises the N-core sharding/determinism
# paths, but the wall-clock numbers are NOT comparable to a real N-core
# host — the bench stamps the simulated count into BENCH_training.json
# next to "host_parallelism" so downstream readers can tell the runs apart.
set -eux
cargo bench -p iam-bench --bench table2_wisdm
cargo bench -p iam-bench --bench table3_twi
cargo bench -p iam-bench --bench table4_higgs
cargo bench -p iam-bench --bench table5_imdb
cargo bench -p iam-bench --bench fig4_inference_time
cargo bench -p iam-bench --bench table6_model_size
cargo bench -p iam-bench --bench table7_batch
cargo bench -p iam-bench --bench fig5_end_to_end
cargo bench -p iam-bench --bench fig6_training_curve
cargo bench -p iam-bench --bench table8_training_time
cargo bench -p iam-bench --bench table9_11_reducers
cargo bench -p iam-bench --bench fig7_components
cargo bench -p iam-bench --bench table12_size_vs_components
cargo bench -p iam-bench --bench ablations
cargo bench -p iam-bench --bench micro -- --quick --noplot
