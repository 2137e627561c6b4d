#!/bin/sh
# Regenerates every paper table/figure. Scale via IAM_BENCH_* env vars.
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
