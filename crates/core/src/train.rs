//! Joint end-to-end training (paper §4.3, Eq. 6).
//!
//! Every mini-batch first takes one gradient step on each column's GMM
//! (`loss_GMM`, Eq. 4), refreshes that column's reducer from the trainer's
//! snapshot, re-encodes the batch rows with the *current* reducers and then
//! takes one Adam step on the AR cross-entropy (`loss_AR`, Eq. 3). The
//! reported loss is their sum. Wildcard skipping masks a random subset of
//! input columns per tuple (Naru §5.3), leaving targets intact.
//!
//! All three phases run on `cfg.train_threads` workers: GMM steps are
//! parallel across columns (disjoint trainers/handlers), encoding is
//! parallel across row ranges (one pre-drawn wildcard seed per row keeps
//! the masking pattern independent of the sharding), and the AR step uses
//! `MadeNet::train_batch_sharded`, whose fixed-order shard reduction makes
//! the trained model bitwise identical for every thread count.

use crate::config::IamConfig;
use crate::probes;
use crate::reduce::Reducer;
use crate::schema::{ColumnHandler, IamSchema, SlotRole};
use iam_data::{Column, Table};
use iam_gmm::{GmmSgdTrainer, SgdConfig};
use iam_nn::{Adam, MadeNet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-epoch loss report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean per-tuple AR cross-entropy (nats).
    pub ar_loss: f64,
    /// Mean per-value GMM negative log-likelihood, summed over reduced
    /// columns.
    pub gmm_loss: f64,
    /// Wall-clock seconds for the epoch.
    pub seconds: f64,
    /// Rows visited this epoch.
    pub rows: usize,
}

impl EpochStats {
    /// Total joint loss (Eq. 6).
    pub fn total(&self) -> f64 {
        self.ar_loss + self.gmm_loss
    }

    /// Training throughput (rows/s), 0 when the epoch took no measurable
    /// time.
    pub(crate) fn rows_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.rows as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Per-shard scratch for [`encode_rows`], hoisted out of the row loop so a
/// shard allocates once per batch instead of once per row.
#[derive(Default)]
struct EncodeScratch {
    row_f64: Vec<f64>,
    slot_vals: Vec<usize>,
    cols: Vec<usize>,
}

/// Encode a slice of table rows into `targets`/`inputs` (each
/// `rows.len() × nslots`), applying wildcard masking with one dedicated
/// RNG per row (seeded from `seeds`), so the result depends only on the
/// row and its seed — never on which shard or thread encoded it.
#[allow(clippy::too_many_arguments)]
fn encode_rows(
    table: &Table,
    schema: &IamSchema,
    net: &MadeNet,
    cfg: &IamConfig,
    rows: &[usize],
    seeds: &[u64],
    targets: &mut [usize],
    inputs: &mut [usize],
    scratch: &mut EncodeScratch,
) {
    let ncols = table.ncols();
    let nslots = schema.nslots();
    for (k, &r) in rows.iter().enumerate() {
        table.row_as_f64(r, &mut scratch.row_f64);
        schema.encode_row(&scratch.row_f64, &mut scratch.slot_vals);
        targets[k * nslots..(k + 1) * nslots].copy_from_slice(&scratch.slot_vals);
        // wildcard skipping: mask a uniform-size random subset of columns
        if cfg.wildcard_skipping {
            let mut wrng = StdRng::seed_from_u64(seeds[k]);
            let kmask = wrng.random_range(0..=ncols);
            // choose kmask distinct columns via partial shuffle of col ids
            scratch.cols.clear();
            scratch.cols.extend(0..ncols);
            for i in 0..kmask {
                let j = wrng.random_range(i..ncols);
                scratch.cols.swap(i, j);
            }
            for (slot, role) in schema.slots.iter().enumerate() {
                if scratch.cols[..kmask].contains(&role.col()) {
                    scratch.slot_vals[slot] = net.mask_token(slot);
                }
            }
        }
        inputs[k * nslots..(k + 1) * nslots].copy_from_slice(&scratch.slot_vals);
    }
}

/// Encode one mini-batch, fanned out over `threads` row shards.
#[allow(clippy::too_many_arguments)]
fn encode_chunk(
    table: &Table,
    schema: &IamSchema,
    net: &MadeNet,
    cfg: &IamConfig,
    chunk: &[usize],
    seeds: &[u64],
    targets: &mut [usize],
    inputs: &mut [usize],
    threads: usize,
) {
    let nslots = schema.nslots();
    let workers = threads.clamp(1, chunk.len());
    if workers == 1 {
        let mut scratch = EncodeScratch::default();
        encode_rows(table, schema, net, cfg, chunk, seeds, targets, inputs, &mut scratch);
        return;
    }
    let per = chunk.len().div_ceil(workers);
    std::thread::scope(|s| {
        for (((rows, seeds), tchunk), ichunk) in chunk
            .chunks(per)
            .zip(seeds.chunks(per))
            .zip(targets.chunks_mut(per * nslots))
            .zip(inputs.chunks_mut(per * nslots))
        {
            s.spawn(move || {
                let mut scratch = EncodeScratch::default();
                encode_rows(table, schema, net, cfg, rows, seeds, tchunk, ichunk, &mut scratch);
            });
        }
    });
}

/// One GMM gradient step per reduced column, fanned out over `threads`
/// (each column owns a disjoint trainer + handler). Returns the summed
/// per-column losses, accumulated in ascending column order regardless of
/// the thread count.
fn gmm_chunk_step(
    table: &Table,
    schema: &mut IamSchema,
    gmm_trainers: &mut [Option<GmmSgdTrainer>],
    chunk: &[usize],
    threads: usize,
) -> f64 {
    let mut items: Vec<(usize, &mut GmmSgdTrainer, &mut ColumnHandler)> = gmm_trainers
        .iter_mut()
        .zip(schema.handlers.iter_mut())
        .enumerate()
        .filter_map(|(col, (t, h))| t.as_mut().map(|t| (col, t, h)))
        .collect();
    if items.is_empty() {
        return 0.0;
    }
    let mut losses = vec![0.0f64; items.len()];
    let step_one =
        |item: &mut (usize, &mut GmmSgdTrainer, &mut ColumnHandler), raw: &mut Vec<f64>| -> f64 {
            let (col, trainer, handler) = item;
            let Column::Continuous(cc) = &table.columns[*col] else { return 0.0 };
            raw.clear();
            raw.extend(chunk.iter().map(|&r| cc.values[r]));
            let loss = trainer.step(raw);
            if let ColumnHandler::Reduced(Reducer::Gmm(g)) = &mut **handler {
                g.set_gmm(trainer.snapshot());
            }
            loss
        };
    let workers = threads.clamp(1, items.len());
    if workers == 1 {
        let mut raw = Vec::with_capacity(chunk.len());
        for (item, loss) in items.iter_mut().zip(&mut losses) {
            *loss = step_one(item, &mut raw);
        }
    } else {
        let per = items.len().div_ceil(workers);
        std::thread::scope(|s| {
            for (ichunk, lchunk) in items.chunks_mut(per).zip(losses.chunks_mut(per)) {
                let step_one = &step_one;
                s.spawn(move || {
                    let mut raw = Vec::with_capacity(chunk.len());
                    for (item, loss) in ichunk.iter_mut().zip(lchunk.iter_mut()) {
                        *loss = step_one(item, &mut raw);
                    }
                });
            }
        });
    }
    // fixed column order keeps the reported loss deterministic
    losses.iter().sum()
}

/// One pass over the table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_epoch(
    table: &Table,
    schema: &mut IamSchema,
    net: &mut MadeNet,
    opt: &mut Adam,
    gmm_trainers: &mut [Option<GmmSgdTrainer>],
    cfg: &IamConfig,
    rng: &mut StdRng,
) -> EpochStats {
    let _span = iam_obs::span!("train.epoch");
    let started = std::time::Instant::now();
    let n = table.nrows();
    let nslots = schema.nslots();
    assert!(n > 0, "cannot train on an empty table");
    let threads = cfg.effective_train_threads();

    // epoch shuffle
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }

    let bs = cfg.batch_size.clamp(1, n);
    let mut targets: Vec<usize> = Vec::with_capacity(bs * nslots);
    let mut inputs: Vec<usize> = Vec::with_capacity(bs * nslots);
    let mut row_seeds: Vec<u64> = Vec::with_capacity(bs);

    let mut ar_loss_sum = 0.0f64;
    let mut gmm_loss_sum = 0.0f64;
    let mut batches = 0usize;
    let (mut gmm_secs, mut encode_secs, mut ar_secs) = (0.0f64, 0.0f64, 0.0f64);

    for chunk in order.chunks(bs) {
        // 1) GMM gradient step per reduced column (joint training)
        if cfg.joint_training {
            // audit-allow(loop-instant): feeds the per-epoch phase-time
            // accumulators; batch granularity, not per-row
            let t0 = std::time::Instant::now();
            let _span = iam_obs::span!("train.gmm_step");
            gmm_loss_sum += gmm_chunk_step(table, schema, gmm_trainers, chunk, threads);
            gmm_secs += t0.elapsed().as_secs_f64();
        }

        // 2) encode the batch with the current reducers
        // audit-allow(loop-instant): feeds the per-epoch phase-time
        // accumulators; batch granularity, not per-row
        let t0 = std::time::Instant::now();
        {
            let _span = iam_obs::span!("train.encode");
            targets.resize(chunk.len() * nslots, 0);
            inputs.resize(chunk.len() * nslots, 0);
            // pre-draw one wildcard seed per row on the epoch RNG, in row
            // order, so the masking pattern is a function of the epoch
            // stream alone, not of how rows are sharded across workers
            row_seeds.clear();
            row_seeds.resize(chunk.len(), 0);
            if cfg.wildcard_skipping {
                for s in row_seeds.iter_mut() {
                    *s = rng.random();
                }
            }
            encode_chunk(
                table,
                schema,
                net,
                cfg,
                chunk,
                &row_seeds,
                &mut targets,
                &mut inputs,
                threads,
            );
        }
        encode_secs += t0.elapsed().as_secs_f64();

        // 3) AR step
        // audit-allow(loop-instant): feeds the per-epoch phase-time
        // accumulators; batch granularity, not per-row
        let t0 = std::time::Instant::now();
        let _span = iam_obs::span!("train.ar_step");
        ar_loss_sum += net.train_batch_sharded(&inputs, &targets, chunk.len(), threads) as f64;
        opt.step(net);
        ar_secs += t0.elapsed().as_secs_f64();
        batches += 1;
    }

    let stats = EpochStats {
        ar_loss: ar_loss_sum / batches.max(1) as f64,
        gmm_loss: gmm_loss_sum / batches.max(1) as f64,
        seconds: started.elapsed().as_secs_f64(),
        rows: n,
    };
    let p = probes::train();
    p.epochs.inc();
    p.rows.add(n as u64);
    p.batches.add(batches as u64);
    p.ar_loss.set(stats.ar_loss);
    p.gmm_loss.set(stats.gmm_loss);
    p.rows_per_sec.set(stats.rows_per_sec());
    p.epoch_ms.observe((stats.seconds * 1000.0) as u64);
    p.threads.set(threads as i64);
    p.gmm_phase_ms.set(gmm_secs * 1000.0);
    p.encode_phase_ms.set(encode_secs * 1000.0);
    p.ar_phase_ms.set(ar_secs * 1000.0);
    stats
}

/// Create the per-column GMM trainers for joint training (only columns whose
/// handler is a GMM reducer get one).
pub(crate) fn make_gmm_trainers(schema: &IamSchema, cfg: &IamConfig) -> Vec<Option<GmmSgdTrainer>> {
    schema
        .handlers
        .iter()
        .map(|h| match h {
            ColumnHandler::Reduced(Reducer::Gmm(g)) => {
                Some(GmmSgdTrainer::from_init(g.gmm(), SgdConfig { lr: (cfg.lr as f64) * 2.0 }))
            }
            _ => None,
        })
        .collect()
}

/// Validate a slot/role layout invariant used by the wildcard masker: a
/// factorised column's two slots are adjacent and share the column id.
pub(crate) fn check_slot_layout(schema: &IamSchema) -> bool {
    let mut i = 0;
    while i < schema.slots.len() {
        match schema.slots[i] {
            SlotRole::FactorHi { col } => {
                if i + 1 >= schema.slots.len() {
                    return false;
                }
                match schema.slots[i + 1] {
                    SlotRole::FactorLo { col: c2 } if c2 == col => i += 2,
                    _ => return false,
                }
            }
            SlotRole::FactorLo { .. } => return false,
            SlotRole::Whole { .. } => i += 1,
        }
    }
    true
}
