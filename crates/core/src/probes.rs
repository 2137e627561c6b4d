//! Lazily-registered handles into the global `iam-obs` registry.
//!
//! Every probe bundle is created once (`OnceLock`) so the hot paths touch
//! only pre-resolved `Arc` handles — no name lookup, no lock. Metric
//! naming: `iam_train_*` for the joint training loop (Eq. 3+4 losses),
//! `iam_plan_*` for query-plan construction (§5.1 widening), `iam_infer_*`
//! for progressive sampling (§5.2), `iam_aqp_*` for aggregates.

use iam_obs::{Counter, FloatGauge, Gauge, Histogram, Registry};
use std::sync::{Arc, OnceLock};

/// Powers-of-two bounds for count-shaped histograms (fanouts, non-zeros).
const POW2_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384];

/// Bounds for per-epoch wall time, in milliseconds.
const EPOCH_MS_BOUNDS: [u64; 10] = [5, 20, 50, 100, 250, 500, 1_000, 5_000, 30_000, 300_000];

/// Bounds for per-query renormalization mass, in parts-per-million of 1.0.
const MASS_PPM_BOUNDS: [u64; 11] =
    [1, 10, 100, 1_000, 10_000, 50_000, 100_000, 250_000, 500_000, 750_000, 1_000_000];

/// Training-loop probes (one bundle per process).
pub(crate) struct TrainProbes {
    /// Completed epochs.
    pub epochs: Arc<Counter>,
    /// Rows visited across all epochs.
    pub rows: Arc<Counter>,
    /// Mini-batches (joint GMM+AR steps).
    pub batches: Arc<Counter>,
    /// Last epoch's mean AR cross-entropy (Eq. 3, nats).
    pub ar_loss: Arc<FloatGauge>,
    /// Last epoch's mean GMM negative log-likelihood (Eq. 4).
    pub gmm_loss: Arc<FloatGauge>,
    /// Last epoch's training throughput (rows/s).
    pub rows_per_sec: Arc<FloatGauge>,
    /// Epoch wall-time distribution (ms).
    pub epoch_ms: Arc<Histogram>,
    /// Effective worker-thread count of the training pipeline.
    pub threads: Arc<Gauge>,
}

pub(crate) fn train() -> &'static TrainProbes {
    static P: OnceLock<TrainProbes> = OnceLock::new();
    P.get_or_init(|| {
        let r = Registry::global();
        TrainProbes {
            epochs: r.counter("iam_train_epochs_total", &[]),
            rows: r.counter("iam_train_rows_total", &[]),
            batches: r.counter("iam_train_batches_total", &[]),
            ar_loss: r.float_gauge("iam_train_ar_loss", &[]),
            gmm_loss: r.float_gauge("iam_train_gmm_loss", &[]),
            rows_per_sec: r.float_gauge("iam_train_rows_per_sec", &[]),
            epoch_ms: r.histogram("iam_train_epoch_ms", &[], &EPOCH_MS_BOUNDS),
            threads: r.gauge("iam_train_threads", &[]),
        }
    })
}

/// Query-plan probes: how §5.1 widening reshapes each constrained slot.
pub(crate) struct PlanProbes {
    /// Reduced-domain width a range constraint was widened to (the fanout
    /// the sampler must renormalize over; K of the column's GMM).
    pub widened_fanout: Arc<Histogram>,
    /// Non-zero entries of the `P̂_GMM(R_i)` component vector — its sparsity
    /// is what keeps widened sampling cheap.
    pub component_nnz: Arc<Histogram>,
    /// Plans that proved a query empty (selectivity exactly 0).
    pub empty_plans: Arc<Counter>,
}

pub(crate) fn plan() -> &'static PlanProbes {
    static P: OnceLock<PlanProbes> = OnceLock::new();
    P.get_or_init(|| {
        let r = Registry::global();
        PlanProbes {
            widened_fanout: r.histogram("iam_plan_widened_fanout", &[], &POW2_BOUNDS),
            component_nnz: r.histogram("iam_plan_component_nnz", &[], &POW2_BOUNDS),
            empty_plans: r.counter("iam_plan_empty_total", &[]),
        }
    })
}

/// Progressive-sampling probes (§5.2, Algorithm 1).
pub(crate) struct InferProbes {
    /// Queries answered by progressive sampling (live plans only).
    pub queries: Arc<Counter>,
    /// Progressive samples drawn (queries × samples-per-query).
    pub samples: Arc<Counter>,
    /// Sample rows pushed through an AR forward pass, summed over slots —
    /// the single best proxy for inference cost.
    pub forward_rows: Arc<Counter>,
    /// Samples whose running probability ended at zero: a zero-mass
    /// window at any constrained slot, the last one included.
    pub dead_samples: Arc<Counter>,
    /// Per-query mean renormalization mass `mean_s p̂(s)` (ppm of 1.0) —
    /// how much probability mass the constrained supports retain.
    pub renorm_mass_ppm: Arc<Histogram>,
    /// Forward rows avoided by prefix deduplication (rows whose sampled
    /// prefix matched an earlier row in the same slot step).
    pub dedup_hits: Arc<Counter>,
    /// Resident size of the fused embedding→layer-1 token tables (bytes),
    /// set wherever they are rebuilt.
    pub table_bytes: Arc<Gauge>,
}

pub(crate) fn infer() -> &'static InferProbes {
    static P: OnceLock<InferProbes> = OnceLock::new();
    P.get_or_init(|| {
        let r = Registry::global();
        InferProbes {
            queries: r.counter("iam_infer_queries_total", &[]),
            samples: r.counter("iam_infer_samples_total", &[]),
            forward_rows: r.counter("iam_infer_forward_rows_total", &[]),
            dead_samples: r.counter("iam_infer_dead_samples_total", &[]),
            renorm_mass_ppm: r.histogram("iam_infer_renorm_mass_ppm", &[], &MASS_PPM_BOUNDS),
            dedup_hits: r.counter("iam_infer_dedup_hits_total", &[]),
            table_bytes: r.gauge("iam_infer_table_bytes", &[]),
        }
    })
}

/// AQP aggregate-estimation probes.
pub(crate) struct AqpProbes {
    /// Aggregate queries answered.
    pub queries: Arc<Counter>,
}

pub(crate) fn aqp() -> &'static AqpProbes {
    static P: OnceLock<AqpProbes> = OnceLock::new();
    P.get_or_init(|| AqpProbes {
        queries: Registry::global().counter("iam_aqp_queries_total", &[]),
    })
}
