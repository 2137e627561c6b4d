//! MADE / ResMADE — the masked autoregressive network (paper §3).
//!
//! The network consumes one embedded token per column and produces, for
//! every column `i`, the logits of `P̂(A_i | A_1..A_{i-1})`. Autoregressive
//! structure is enforced with degree-based binary masks (Germain et al.,
//! MADE): input group `i` carries degree `i+1`, hidden unit `k` carries
//! degree `d_k ∈ [1, n−1]` assigned cyclically, and
//!
//! * first layer:    hidden `k` sees input group `j` iff `j+1 ≤ d_k`;
//! * hidden layers:  unit `k₂` sees unit `k₁` iff `d_{k₂} ≥ d_{k₁}`;
//! * output layer:   column `i`'s logits see hidden `k` iff `d_k ≤ i`.
//!
//! Residual (ResMADE) skips are added between consecutive hidden layers of
//! equal width; the cyclic degree assignment gives positionally identical
//! degrees, so identity skips preserve the autoregressive property.
//!
//! Every column's embedding table carries one extra MASK row (id =
//! `domain_size`) used for *wildcard skipping* (§5.3): during training a
//! random subset of input columns is replaced by MASK so the conditionals
//! marginalise over unqueried columns at inference time.
//!
//! One training step ([`MadeNet::train_batch_sharded`]) packs the layers'
//! live weights and rebuilds the per-(slot, token) layer-1 tables of
//! [`FusedTables`] once, before its shards start; each shard's layer-1
//! forward is then the token-table sum inference runs, and the grouped
//! kernel stays the reference ([`MadeNet::forward`]). The loss takes one
//! softmax per column and distinct input prefix: column `c`'s logits
//! depend only on a row's inputs `0..c`, so rows sharing that prefix share
//! the column's logits bit for bit.

use crate::embedding::Embedding;
use crate::init::Initializer;
use crate::linear::{pack_layers, Linear, Packed, Relu};
use crate::Parameters;

/// Rows per gradient shard in [`MadeNet::train_batch_sharded`]. The shard
/// decomposition is a function of the batch size ALONE — never of the
/// thread count — so the fixed-order shard reduction yields bitwise
/// identical gradients for every `threads` value.
pub const TRAIN_SHARD_ROWS: usize = 64;

/// Configuration of a [`MadeNet`].
#[derive(Debug, Clone)]
pub struct MadeConfig {
    /// Reduced domain size of each column, in autoregressive order.
    pub domain_sizes: Vec<usize>,
    /// Hidden layer widths, e.g. the paper's `[256, 128, 128, 256]`.
    pub hidden: Vec<usize>,
    /// Per-column embedding dimension.
    pub embed_dim: usize,
    /// Add residual skips between equal-width hidden layers (ResMADE).
    pub residual: bool,
    /// Seed for weight init.
    pub seed: u64,
}

impl Default for MadeConfig {
    fn default() -> Self {
        MadeConfig {
            domain_sizes: Vec::new(),
            hidden: vec![256, 128, 128, 256],
            embed_dim: 16,
            residual: true,
            seed: 42,
        }
    }
}

/// Reusable activation buffers for the inference forward
/// ([`MadeNet::forward_column_fused`]). One scratch per thread lets many
/// threads run forward passes over one shared `&MadeNet` concurrently.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    bufs: Vec<Vec<f32>>,
}

impl InferScratch {
    /// Fresh, empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Precomputed per-(slot, token) first-layer contributions: since the
/// input row of the MADE first layer is a concatenation of per-slot
/// embeddings, `T[slot][token] = W₁[:, slot·e..(slot+1)·e] × embed_slot(token)`
/// can be cached once per model (reduced domains are tiny, K ≈ 30 plus one
/// MASK row). The first hidden layer then becomes a fixed-slot-order sum
/// of `nslots` cached hidden-dim vectors plus bias — the exact scalars, in
/// the exact order, the grouped input-layer kernel produces
/// (`Linear::forward_grouped` with one group per slot), so the fused and
/// the full forward agree bitwise. The O(nslots·e·h₀) layer-1 GEMM
/// per row collapses to O(nslots·h₀) adds, and the embedding gather is
/// skipped entirely.
///
/// The tables also hold the packed forward weights ([`Packed`]) of every
/// later layer, which the blocked kernels of the column forward read.
///
/// Tables are a pure function of the model's weights and embedding
/// tables: rebuild after every parameter update (snapshot load, the end
/// of a training epoch). Training builds the same token tables once per
/// optimiser step, next to its packed weights, and runs its layer-1
/// forward from them ([`MadeNet::train_batch_sharded`]). One blocked
/// builder ([`Linear::group_tables`]) serves both, and one sum
/// (`table_sum`) reads them.
#[derive(Debug, Clone)]
pub struct FusedTables {
    /// Per slot: `(domain_size + 1) × hidden₀` row-major f32 token table
    /// (the extra row is the MASK token).
    slots: Vec<Vec<f32>>,
    /// Per layer, its packed forward weights (empty for layer 1, which the
    /// token tables replace).
    packed: Vec<Packed>,
}

impl FusedTables {
    /// Resident size of the cached tables and packed weights, in bytes.
    pub fn size_bytes(&self) -> usize {
        let tables: usize = self.slots.iter().map(|t| std::mem::size_of_val(t.as_slice())).sum();
        tables + self.packed.iter().map(Packed::size_bytes).sum::<usize>()
    }
}

/// Per-shard training scratch for [`MadeNet::train_batch_sharded`]:
/// activations, ReLU activation masks, activation gradients and private
/// parameter-gradient buffers. One scratch per shard (not per thread) so
/// the gradient reduction order is independent of the thread count;
/// buffers are allocated on first use and reused across batches.
#[derive(Debug, Default)]
pub struct TrainScratch {
    bufs: Vec<Vec<f32>>,
    masks: Vec<Vec<bool>>,
    grads: Vec<Vec<f32>>,
    dy: Vec<f32>,
    /// Per row and column, the id of the row's input prefix `0..col`
    /// (`rows × ncols`), ids numbered by first appearance per column.
    prefix: Vec<u32>,
    /// Per column, the first row of each prefix id.
    first: Vec<u32>,
    /// One column's `(prefix id, token)` → next prefix id table.
    next: Vec<u32>,
    /// Per column, the softmax of each distinct prefix, back to back;
    /// column `c`'s start in `col_probs[c]`.
    probs: Vec<f32>,
    col_probs: Vec<usize>,
    /// Per-layer weight/bias gradients, same shapes as the model's.
    gw: Vec<Vec<f32>>,
    gb: Vec<Vec<f32>>,
    /// Per-column embedding-table gradients.
    gemb: Vec<Vec<f32>>,
    /// Summed (not yet batch-normalised) NLL of the shard's rows, nats.
    loss: f64,
}

impl TrainScratch {
    fn ensure(&mut self, net: &MadeNet) {
        let nl = net.layers.len();
        self.grads.resize(nl + 1, Vec::new());
        if self.gw.len() != nl {
            self.gw = net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
            self.gb = net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
            self.gemb = net.embeddings.iter().map(|e| vec![0.0; e.table.len()]).collect();
        } else {
            for g in self.gw.iter_mut().chain(self.gb.iter_mut()).chain(self.gemb.iter_mut()) {
                g.fill(0.0);
            }
        }
        self.loss = 0.0;
    }
}

/// `dst += src`, elementwise; the shard-gradient reduction primitive.
fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Softmax of one logit segment into `probs` — the one softmax, shared by
/// the training loss and the samplers.
fn softmax(seg: &[f32], probs: &mut Vec<f32>) {
    probs.resize(seg.len(), 0.0); // every element is written below
    softmax_into(seg, probs);
}

/// [`softmax`] into a slice of the segment's length.
fn softmax_into(seg: &[f32], probs: &mut [f32]) {
    debug_assert_eq!(seg.len(), probs.len());
    let max = seg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for (p, &l) in probs.iter_mut().zip(seg) {
        *p = (l - max).exp();
        total += *p;
    }
    let inv = 1.0 / total;
    for p in probs.iter_mut() {
        *p *= inv;
    }
}

/// Layer 1's pre-activations of `batch` rows of `inputs` (`batch × ncols`
/// tokens) from token tables: per row the bias plus, in ascending slot
/// order, slot `s`'s cached vector of the row's token `s` — the grouped
/// kernel's sum, bit for bit (see [`FusedTables`]). Element-wise adds, no
/// reduction, so any vector width the compiler picks gives the same bits.
fn table_sum(slots: &[Vec<f32>], bias: &[f32], inputs: &[usize], batch: usize, out: &mut Vec<f32>) {
    let h0 = bias.len();
    out.resize(batch * h0, 0.0); // every element is written below
    for (y, toks) in out.chunks_exact_mut(h0).zip(inputs.chunks_exact(slots.len())) {
        y.copy_from_slice(bias);
        for (table, &tok) in slots.iter().zip(toks) {
            for (yk, tk) in y.iter_mut().zip(&table[tok * h0..(tok + 1) * h0]) {
                *yk += tk;
            }
        }
    }
}

/// The masked autoregressive network with manual backprop. Holds
/// parameters and gradient accumulators; activations live in the caller's
/// scratch ([`InferScratch`]) or in the per-shard training pool.
pub struct MadeNet {
    cfg: MadeConfig,
    embeddings: Vec<Embedding>,
    layers: Vec<Linear>,
    /// `skip_from[l] == true` → add layer `l`'s input to its activated output.
    skip_from: Vec<bool>,
    /// Start offset of column `i`'s logits within the output vector.
    logit_offsets: Vec<usize>,
    total_logits: usize,
    /// Per-shard scratch of [`MadeNet::train_batch_sharded`], reused across
    /// batches. Scratch, not model state: a clone starts with an empty pool.
    train_pool: Vec<TrainScratch>,
    /// Per layer, the packed weights of the current training step (rebuilt
    /// by [`MadeNet::train_batch_sharded`]; scratch like `train_pool`).
    packed: Vec<Packed>,
    /// The current training step's token tables (see [`FusedTables`];
    /// scratch like `packed`).
    slots: Vec<Vec<f32>>,
}

impl Clone for MadeNet {
    fn clone(&self) -> Self {
        MadeNet {
            cfg: self.cfg.clone(),
            embeddings: self.embeddings.clone(),
            layers: self.layers.clone(),
            skip_from: self.skip_from.clone(),
            logit_offsets: self.logit_offsets.clone(),
            total_logits: self.total_logits,
            train_pool: Vec::new(),
            packed: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl MadeNet {
    /// Build the network with degree-based masks.
    pub fn new(cfg: MadeConfig) -> Self {
        let n = cfg.domain_sizes.len();
        assert!(n >= 1, "need at least one column");
        assert!(!cfg.hidden.is_empty(), "need at least one hidden layer");
        let mut init = Initializer::new(cfg.seed);
        let e = cfg.embed_dim;

        let embeddings: Vec<Embedding> = cfg
            .domain_sizes
            .iter()
            .map(|&d| Embedding::new(d + 1, e, &mut init)) // +1: MASK row
            .collect();

        // degree of hidden unit k in any hidden layer of width `width`; a
        // unit's degree is its class, so the kernels block by degree and
        // the column forward selects the degrees it needs
        let max_deg = n.saturating_sub(1).max(1);
        let degree = |k: usize| (k % max_deg) + 1;
        let degrees = |width: usize| (0..width).map(degree).collect::<Vec<_>>();

        let mut layers = Vec::new();
        let mut skip_from = Vec::new();

        // input layer: (n*e) -> hidden[0]
        let in_dim = n * e;
        let h0 = cfg.hidden[0];
        let mut mask = vec![0.0f32; h0 * in_dim];
        let d0: Vec<usize> = (0..h0).map(|k| if n == 1 { 0 } else { degree(k) }).collect();
        for k in 0..h0 {
            for j in 0..n {
                if j < d0[k] {
                    for t in 0..e {
                        mask[k * in_dim + j * e + t] = 1.0;
                    }
                }
            }
        }
        layers.push(Linear::new_masked(in_dim, h0, mask, &d0, e, &mut init));
        skip_from.push(false);

        // hidden-to-hidden layers
        for l in 1..cfg.hidden.len() {
            let (hin, hout) = (cfg.hidden[l - 1], cfg.hidden[l]);
            let mut mask = vec![0.0f32; hout * hin];
            for k2 in 0..hout {
                for k1 in 0..hin {
                    if degree(k2) >= degree(k1) {
                        mask[k2 * hin + k1] = 1.0;
                    }
                }
            }
            layers.push(Linear::new_masked(hin, hout, mask, &degrees(hout), hin, &mut init));
            skip_from.push(cfg.residual && hin == hout);
        }

        // output layer: hidden[last] -> Σ dom_i
        let hlast = cfg.hidden[cfg.hidden.len() - 1];
        let mut logit_offsets = Vec::with_capacity(n);
        let mut total_logits = 0usize;
        for &d in &cfg.domain_sizes {
            logit_offsets.push(total_logits);
            total_logits += d;
        }
        let mut mask = vec![0.0f32; total_logits * hlast];
        let mut head_col = vec![0usize; total_logits]; // a head row's class is its column
        for (i, &d) in cfg.domain_sizes.iter().enumerate() {
            for o in logit_offsets[i]..logit_offsets[i] + d {
                head_col[o] = i;
                for k in 0..hlast {
                    if n > 1 && degree(k) <= i {
                        mask[o * hlast + k] = 1.0;
                    }
                    // column 0 (and the n == 1 case) sees nothing: marginal
                    // learned purely through the output bias.
                }
            }
        }
        layers.push(Linear::new_masked(hlast, total_logits, mask, &head_col, hlast, &mut init));
        skip_from.push(false);

        MadeNet {
            cfg,
            embeddings,
            layers,
            skip_from,
            logit_offsets,
            total_logits,
            train_pool: Vec::new(),
            packed: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cfg.domain_sizes.len()
    }

    /// Domain size of column `i`.
    pub fn domain_size(&self, col: usize) -> usize {
        self.cfg.domain_sizes[col]
    }

    /// The MASK token id of column `i` (one past its domain).
    pub fn mask_token(&self, col: usize) -> usize {
        self.cfg.domain_sizes[col]
    }

    /// Total output width `Σ |A_i|`.
    pub fn total_logits(&self) -> usize {
        self.total_logits
    }

    /// Byte-range of column `i`'s logits within an output row.
    pub fn logit_range(&self, col: usize) -> std::ops::Range<usize> {
        let start = self.logit_offsets[col];
        start..start + self.cfg.domain_sizes[col]
    }

    /// The plain full forward, and the reference every other path is
    /// pinned to: `batch × total_logits` logits into `out`.
    ///
    /// `inputs` is row-major `batch × ncols` of encoded values; a value equal
    /// to `mask_token(col)` feeds the MASK embedding. This is the forward
    /// the training step runs; inference runs
    /// [`Self::forward_column_fused`], whose output is bitwise this one's
    /// [`Self::logit_range`] slice.
    pub fn forward(&self, inputs: &[usize], batch: usize, out: &mut Vec<f32>) {
        let mut bufs = Vec::new();
        let packed = pack_layers(&self.layers, Vec::new());
        self.forward_full(&packed, None, inputs, batch, &mut bufs, &mut Vec::new());
        std::mem::swap(out, &mut bufs[self.layers.len()]);
    }

    /// [`Self::forward`] into caller-held activations: `bufs[l]` is layer
    /// `l`'s input (`bufs[0]` the embedded row, the last one the logits)
    /// and `masks[l]` its ReLU pattern — what backward needs. `packed`
    /// holds the current weights ([`pack_layers`]). Layer 1 runs the
    /// grouped kernel, or, given the current token tables `slots` (the
    /// training step), their [`table_sum`], which is the same bits.
    fn forward_full(
        &self,
        packed: &[Packed],
        slots: Option<&[Vec<f32>]>,
        inputs: &[usize],
        batch: usize,
        bufs: &mut Vec<Vec<f32>>,
        masks: &mut Vec<Vec<bool>>,
    ) {
        let n = self.ncols();
        assert_eq!(inputs.len(), batch * n);
        let e = self.cfg.embed_dim;
        let stride = n * e;
        let nlayers = self.layers.len();
        bufs.resize(nlayers + 1, Vec::new());
        masks.resize(nlayers - 1, Vec::new());
        bufs[0].resize(batch * stride, 0.0);
        for (c, emb) in self.embeddings.iter().enumerate() {
            emb.gather((0..batch).map(|b| inputs[b * n + c]), &mut bufs[0], c * e, stride);
        }
        for l in 0..nlayers {
            let (head, tail) = bufs.split_at_mut(l + 1);
            let x = &head[l];
            let y = &mut tail[0];
            // the input layer runs the grouped kernel (one group per slot
            // embedding), or replays it bitwise from the token tables
            if l == 0 {
                match slots {
                    Some(slots) => table_sum(slots, &self.layers[0].b, inputs, batch, y),
                    None => self.layers[0].forward_grouped(&packed[0], x, batch, y),
                }
            } else {
                self.layers[l].forward(&packed[l], x, batch, y);
            }
            if l + 1 < nlayers {
                Relu::forward_masked(y, &mut masks[l]);
                if self.skip_from[l] {
                    for (yi, xi) in y.iter_mut().zip(x.iter()) {
                        *yi += xi;
                    }
                }
            }
        }
    }

    /// Precompute the fused embedding→layer-1 token tables for this model's
    /// current parameters (see [`FusedTables`]). Cheap relative to one
    /// training epoch: `Σ_slots (domain+1) · h₀` dot products of width `e`,
    /// eight units per vector.
    pub fn build_fused_tables(&self) -> FusedTables {
        let mut packed: Vec<Packed> = (self.layers.iter())
            .map(|layer| {
                let mut p = Packed::default();
                layer.pack_forward(&mut p);
                p
            })
            .collect();
        let mut slots = Vec::new();
        self.token_tables(&packed[0], &mut slots);
        // the column forward reads the tables, never layer 1's weights
        packed[0] = Packed::default();
        FusedTables { slots, packed }
    }

    /// The per-(slot, token) layer-1 tables into `slots`, from layer 1's
    /// current packed weights `packed0`.
    fn token_tables(&self, packed0: &Packed, slots: &mut Vec<Vec<f32>>) {
        let rows: Vec<&[f32]> = self.embeddings.iter().map(|e| e.table.as_slice()).collect();
        self.layers[0].group_tables(packed0, &rows, slots);
    }

    /// Inference forward computing only column `col`'s logits
    /// (`batch × domain_size(col)` into `out`) — progressive sampling calls
    /// this once per column per step. Three shortcuts, each bitwise
    /// invisible next to [`Self::forward`]'s `logit_range(col)` slice:
    ///
    /// * the embedding gather and the first-layer GEMM are replaced by
    ///   summing `nslots` cached hidden-dim vectors of `tables` onto the
    ///   bias, in ascending slot order (the cached vectors ARE the grouped
    ///   kernel's per-group scalars; see [`FusedTables`]). `tables` must
    ///   have been built from this model's current parameters;
    /// * hidden layers compute only the units column `col` can see (the
    ///   degree filter below);
    /// * the output layer computes only column `col`'s rows.
    ///
    /// Layers after the first read the packed weights held in `tables`.
    pub fn forward_column_fused(
        &self,
        tables: &FusedTables,
        scratch: &mut InferScratch,
        inputs: &[usize],
        batch: usize,
        col: usize,
        out: &mut Vec<f32>,
    ) {
        let n = self.ncols();
        assert_eq!(inputs.len(), batch * n);
        debug_assert_eq!(tables.slots.len(), n, "tables built for a different model");
        let nlayers = self.layers.len();
        let bufs = &mut scratch.bufs;
        if bufs.len() < nlayers {
            bufs.resize(nlayers, Vec::new());
        }
        table_sum(&tables.slots, &self.layers[0].b, inputs, batch, &mut bufs[1]);
        // `bufs[1]` now holds the first layer's pre-activations.
        // `skip_from[0]` is always false — the input layer has no residual —
        // so `bufs[0]` is never read.
        debug_assert!(!self.skip_from[0]);
        // Degree filter: column `col`'s logits depend only on hidden units
        // with degree ≤ col (the head mask zeroes the rest, and the
        // hidden-hidden masks never feed a lower degree from a higher one).
        // A hidden unit's class is its degree, so the blocked kernel runs
        // just the blocks of degree ≤ col and zeroes the rest. Skipped
        // positions stay finite (zero, or the residual input) and no block
        // that runs lists them as an input, so the computed bits are
        // identical to the full forward.
        for l in 0..nlayers - 1 {
            let (head, tail) = bufs.split_at_mut(l + 1);
            let x = &head[l];
            let y = &mut tail[0];
            if l > 0 {
                let layer = &self.layers[l];
                layer.forward_classes(&tables.packed[l], x, batch, 0..col + 1, 0..layer.out_dim, y);
            }
            Relu::forward(y);
            if self.skip_from[l] {
                for (yi, xi) in y.iter_mut().zip(x.iter()) {
                    *yi += xi;
                }
            }
        }
        // a head row's class is its column
        self.layers[nlayers - 1].forward_classes(
            &tables.packed[nlayers - 1],
            &bufs[nlayers - 1],
            batch,
            col..col + 1,
            self.logit_range(col),
            out,
        );
    }

    /// Softmax over a `batch × width` logits buffer (as produced by
    /// [`Self::forward_column_fused`]) for batch row `b`, written into
    /// `probs`.
    pub fn row_softmax(&self, logits: &[f32], b: usize, width: usize, probs: &mut Vec<f32>) {
        softmax(&logits[b * width..(b + 1) * width], probs);
    }

    /// Softmax of column `col`'s logits for batch row `b` of full-forward
    /// `logits`, written into `probs`.
    pub fn column_softmax(&self, logits: &[f32], b: usize, col: usize, probs: &mut Vec<f32>) {
        let row = &logits[b * self.total_logits..(b + 1) * self.total_logits];
        softmax(&row[self.logit_range(col)], probs);
    }

    /// One training step on one thread:
    /// [`Self::train_batch_sharded`]`(inputs, targets, batch, 1)`.
    pub fn train_batch(&mut self, inputs: &[usize], targets: &[usize], batch: usize) -> f32 {
        self.train_batch_sharded(inputs, targets, batch, 1)
    }

    /// Data-parallel training step. The mini-batch is split into fixed
    /// [`TRAIN_SHARD_ROWS`]-row shards; each shard runs forward/backward
    /// into its own gradient buffers ([`TrainScratch`]), shards are dealt
    /// round-robin to `threads` scoped workers, and shard gradients are
    /// reduced into the model's accumulators in ascending shard order.
    ///
    /// Determinism contract (mirrors `infer::estimate_batch` on the
    /// inference side): the shard decomposition and the reduction order
    /// depend only on the batch size, so the accumulated gradient — and
    /// therefore any model trained through this path — is bitwise
    /// identical for every `threads` value, including 1. Returns the mean
    /// per-tuple negative log-likelihood (Eq. 3, nats), reduced in the
    /// same fixed order.
    pub fn train_batch_sharded(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
        threads: usize,
    ) -> f32 {
        let n = self.ncols();
        assert!(batch > 0, "empty training batch");
        assert_eq!(inputs.len(), batch * n);
        assert_eq!(targets.len(), batch * n);
        let nshards = batch.div_ceil(TRAIN_SHARD_ROWS);
        let mut pool = std::mem::take(&mut self.train_pool);
        if pool.len() < nshards {
            pool.resize_with(nshards, TrainScratch::default);
        }
        let inv_batch = 1.0 / batch as f32;
        let workers = threads.clamp(1, nshards);
        // the weights changed since the last step: pack them and build the
        // token tables once, for every shard
        let packed = pack_layers(&self.layers, std::mem::take(&mut self.packed));
        let mut slots = std::mem::take(&mut self.slots);
        {
            let _tables = iam_obs::span!("train.tables");
            self.token_tables(&packed[0], &mut slots);
        }
        {
            let net = &*self;
            let (packed, slots) = (&packed[..], &slots[..]);
            let run_shard = |s: usize, scratch: &mut TrainScratch| {
                let r0 = s * TRAIN_SHARD_ROWS;
                let rows = (batch - r0).min(TRAIN_SHARD_ROWS);
                net.train_shard(
                    packed,
                    slots,
                    scratch,
                    &inputs[r0 * n..(r0 + rows) * n],
                    &targets[r0 * n..(r0 + rows) * n],
                    rows,
                    inv_batch,
                );
            };
            if workers == 1 {
                for (s, scratch) in pool.iter_mut().take(nshards).enumerate() {
                    run_shard(s, scratch);
                }
            } else {
                let mut work: Vec<Vec<(usize, &mut TrainScratch)>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (s, scratch) in pool.iter_mut().take(nshards).enumerate() {
                    work[s % workers].push((s, scratch));
                }
                std::thread::scope(|sc| {
                    let mut work = work.into_iter();
                    let mine = work.next().expect("workers >= 1");
                    for assigned in work {
                        let run_shard = &run_shard;
                        sc.spawn(move || {
                            for (s, scratch) in assigned {
                                run_shard(s, scratch);
                            }
                        });
                    }
                    for (s, scratch) in mine {
                        run_shard(s, scratch);
                    }
                });
            }
        }

        // fixed-order reduction: ascending shard index, so float summation
        // grouping never depends on the thread count
        let _reduce = iam_obs::span!("train.reduce");
        let mut loss = 0.0f64;
        for shard in pool.iter().take(nshards) {
            loss += shard.loss;
            for (l, layer) in self.layers.iter_mut().enumerate() {
                add_assign(&mut layer.gw, &shard.gw[l]);
                add_assign(&mut layer.gb, &shard.gb[l]);
            }
            for (c, emb) in self.embeddings.iter_mut().enumerate() {
                add_assign(&mut emb.grad, &shard.gemb[c]);
            }
        }
        self.train_pool = pool;
        self.packed = packed;
        self.slots = slots;
        (loss / batch as f64) as f32
    }

    /// One shard's forward/backward (`&self`): activations live in the
    /// shard's scratch, parameter gradients accumulate into the shard's
    /// private buffers (already scaled by `inv_batch`, the full mini-batch
    /// normaliser), and the shard's summed NLL lands in `scratch.loss`.
    /// `packed` holds every layer's weights for this step and `slots` the
    /// token tables built from them.
    #[allow(clippy::too_many_arguments)]
    fn train_shard(
        &self,
        packed: &[Packed],
        slots: &[Vec<f32>],
        scratch: &mut TrainScratch,
        inputs: &[usize],
        targets: &[usize],
        rows: usize,
        inv_batch: f32,
    ) {
        let _gemm = iam_obs::span!("train.gemm");
        scratch.ensure(self);
        let n = self.ncols();
        let e = self.cfg.embed_dim;
        let stride = n * e;
        let nlayers = self.layers.len();
        let TrainScratch {
            bufs,
            masks,
            grads,
            dy,
            prefix,
            first,
            next,
            probs,
            col_probs,
            gw,
            gb,
            gemb,
            loss,
        } = scratch;

        {
            let _forward = iam_obs::span!("train.forward");
            self.forward_full(packed, Some(slots), inputs, rows, bufs, masks);
        }

        // per-column softmax cross-entropy: loss and dL/dlogits
        let softmax_span = iam_obs::span!("train.softmax");
        let logits = &bufs[nlayers];
        let dlogits = &mut grads[nlayers];
        dlogits.resize(logits.len(), 0.0);
        let t = self.total_logits;
        // Column `c`'s logits depend only on a row's inputs `0..c` (the
        // degree masks), so rows with equal prefixes carry equal bits there:
        // one softmax per distinct prefix and column, taken on the prefix's
        // first row. Column 0's prefix is empty, so it is one per shard.
        prefix.clear();
        prefix.resize(rows * n, 0);
        probs.clear();
        col_probs.clear();
        let mut ids = 1; // distinct prefixes of the current column
        for col in 0..n {
            let (range, dom) = (self.logit_range(col), self.domain_size(col));
            col_probs.push(probs.len());
            first.clear();
            for b in 0..rows {
                let id = prefix[b * n + col] as usize;
                if id == first.len() {
                    first.push(b as u32);
                    let at = probs.len();
                    probs.resize(at + dom, 0.0);
                    softmax_into(&logits[b * t..][range.clone()], &mut probs[at..]);
                }
                debug_assert!(
                    logits[b * t..][range.clone()]
                        .iter()
                        .zip(&logits[first[id] as usize * t..][range.clone()])
                        .all(|(a, z)| a.to_bits() == z.to_bits()),
                    "column {col}'s logits differ between rows with one input prefix"
                );
            }
            debug_assert_eq!(first.len(), ids);
            if col + 1 < n {
                // (prefix id, token) → the next column's prefix id
                let tokens = dom + 1; // the MASK token is `dom`
                next.clear();
                next.resize(ids * tokens, u32::MAX);
                ids = 0;
                for b in 0..rows {
                    let key = prefix[b * n + col] as usize * tokens + inputs[b * n + col];
                    if next[key] == u32::MAX {
                        next[key] = ids as u32;
                        ids += 1;
                    }
                    prefix[b * n + col + 1] = next[key];
                }
            }
        }
        // one row-major pass, in the per-row order, so the loss sums alike
        let mut nll = 0.0f64;
        for b in 0..rows {
            for col in 0..n {
                let dom = self.domain_size(col);
                let at = col_probs[col] + prefix[b * n + col] as usize * dom;
                let p = &probs[at..at + dom];
                let target = targets[b * n + col];
                debug_assert!(target < dom);
                nll -= (p[target].max(1e-30) as f64).ln();
                let base = b * t + self.logit_offsets[col];
                for (j, (d, &pj)) in dlogits[base..base + dom].iter_mut().zip(p).enumerate() {
                    *d = (pj - if j == target { 1.0 } else { 0.0 }) * inv_batch;
                }
            }
        }
        *loss = nll;
        drop(softmax_span);

        // backward through the layers into the shard's gradient buffers
        let _backward = iam_obs::span!("train.backward");
        for l in (0..nlayers).rev() {
            let (gin, gout) = {
                let (head, tail) = grads.split_at_mut(l + 1);
                (&mut head[l], &tail[0])
            };
            dy.clear();
            dy.extend_from_slice(gout);
            if l + 1 < nlayers {
                Relu::backward_masked(dy, &masks[l]);
            }
            let layer = &self.layers[l];
            layer.backward_into(&packed[l], &bufs[l], dy, rows, &mut gw[l], &mut gb[l], gin);
            if l + 1 < nlayers && self.skip_from[l] {
                // the skip path: d(input) += d(output)
                for (gi, go) in gin.iter_mut().zip(gout.iter()) {
                    *gi += go;
                }
            }
        }

        // scatter into the shard's embedding-gradient buffers
        let dx0 = &grads[0];
        debug_assert_eq!(dx0.len(), rows * stride);
        for (c, emb) in self.embeddings.iter().enumerate() {
            let ids = (0..rows).map(|b| inputs[b * n + c]);
            emb.scatter_grad(ids, dx0, c * e, stride, &mut gemb[c]);
        }
    }

    /// Whether every masked weight is `0.0` — what the exactness argument
    /// of the blocked kernels rests on ([`crate::linear`]). Training keeps
    /// it; a snapshot loader must check it.
    pub fn masked_weights_are_zero(&self) -> bool {
        self.layers.iter().all(Linear::masked_weights_are_zero)
    }

    /// Stored size in bytes (all dense parameters at f32).
    pub fn size_bytes(&mut self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// The parameter count [`MadeNet::new`] would produce for this shape,
    /// computed **without allocating anything** and with checked
    /// arithmetic (`None` on overflow). Deserialisers use it to reject an
    /// implausible snapshot config *before* network construction commits
    /// the memory (a hostile few-hundred-byte header must not be able to
    /// request a terabyte-scale allocation).
    pub fn param_count_for(domains: &[usize], hidden: &[usize], embed_dim: usize) -> Option<u64> {
        if domains.is_empty() || hidden.is_empty() {
            return None;
        }
        let e = embed_dim as u64;
        let mut total: u64 = 0;
        // embeddings: one (domain + 1 MASK row) × e table per column
        for &d in domains {
            total = total.checked_add((d as u64).checked_add(1)?.checked_mul(e)?)?;
        }
        // input layer: (n·e) × h0 weights + h0 bias
        let in_dim = (domains.len() as u64).checked_mul(e)?;
        let mut prev = in_dim;
        for &h in hidden {
            let h = h as u64;
            total = total.checked_add(prev.checked_mul(h)?.checked_add(h)?)?;
            prev = h;
        }
        // output layer: h_last × Σ|A_i| weights + Σ|A_i| bias
        let logits = domains.iter().try_fold(0u64, |a, &d| a.checked_add(d as u64))?;
        total = total.checked_add(prev.checked_mul(logits)?.checked_add(logits)?)?;
        Some(total)
    }

    /// Read-only walk over the parameter tensors, in
    /// [`Parameters::visit_params`] order — for `&self` callers that only
    /// read weights (serialisation, size accounting).
    pub fn for_each_param(&self, f: &mut dyn FnMut(&[f32])) {
        for e in &self.embeddings {
            f(&e.table);
        }
        for l in &self.layers {
            f(&l.w);
            f(&l.b);
        }
    }
}

impl Parameters for MadeNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for e in &mut self.embeddings {
            e.visit_params(f);
        }
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{Adam, AdamConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn tiny_net(domains: Vec<usize>, seed: u64) -> MadeNet {
        MadeNet::new(MadeConfig {
            domain_sizes: domains,
            hidden: vec![32, 32],
            embed_dim: 8,
            residual: true,
            seed,
        })
    }

    #[test]
    fn autoregressive_property_holds() {
        // logits of column i must not change when inputs at columns >= i change
        let net = tiny_net(vec![4, 3, 5], 1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        net.forward(&[2, 1, 4], 1, &mut out_a);
        net.forward(&[2, 1, 0], 1, &mut out_b); // change col 2
        assert_eq!(&out_a[net.logit_range(0)], &out_b[net.logit_range(0)]);
        assert_eq!(&out_a[net.logit_range(1)], &out_b[net.logit_range(1)]);

        net.forward(&[2, 2, 4], 1, &mut out_b); // change col 1
        assert_eq!(&out_a[net.logit_range(0)], &out_b[net.logit_range(0)]);
        // col 2 SHOULD see col 1
        let r2 = net.logit_range(2);
        assert_ne!(&out_a[r2.clone()], &out_b[r2]);
    }

    #[test]
    fn first_column_is_a_pure_marginal() {
        let net = tiny_net(vec![4, 3], 2);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        net.forward(&[0, 0], 1, &mut out_a);
        net.forward(&[3, 2], 1, &mut out_b);
        assert_eq!(&out_a[net.logit_range(0)], &out_b[net.logit_range(0)]);
    }

    #[test]
    fn column_zero_logits_are_the_head_bias_on_every_row() {
        // the premise of the shard-wide column-0 softmax in `train_shard`:
        // column 0's head rows see no input, so its logits are bitwise the
        // head bias on every row, whatever the inputs (MASK tokens included)
        let mut net = tiny_net(vec![4, 3, 5], 43);
        let data: Vec<usize> = (0..60).map(|i| [i % 4, i % 3, i % 5][i % 3]).collect();
        let mut opt = Adam::new(AdamConfig::default());
        for chunk in data.chunks_exact(30) {
            net.train_batch(chunk, chunk, 10);
            opt.step(&mut net);
        }
        let (m0, m1, m2) = (net.mask_token(0), net.mask_token(1), net.mask_token(2));
        let inputs = [1, 2, 0, m0, m1, m2, 3, m1, 4, 0, 0, m2, 2, 1, 3];
        let mut logits = Vec::new();
        net.forward(&inputs, 5, &mut logits);
        let bias = &net.layers.last().unwrap().b[net.logit_range(0)];
        for b in 0..5 {
            let row = &logits[b * net.total_logits()..][net.logit_range(0)];
            assert_eq!(bits(row), bits(bias), "row {b}");
        }
    }

    /// A net after a few optimiser steps, so no weight is at its init.
    fn trained_net(domains: Vec<usize>, seed: u64) -> MadeNet {
        let mut net = tiny_net(domains.clone(), seed);
        let n = domains.len();
        let data: Vec<usize> = (0..20 * n).map(|i| (i * 7 + i / n) % domains[i % n]).collect();
        let mut opt = Adam::new(AdamConfig::default());
        for chunk in data.chunks_exact(10 * n) {
            net.train_batch(chunk, chunk, 10);
            opt.step(&mut net);
        }
        net
    }

    /// `rows` training rows over `domains`: targets, and inputs that are the
    /// targets with about 40 % MASK tokens — so input prefixes repeat.
    fn masked_rows(domains: &[usize], rows: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = domains.len();
        let targets: Vec<usize> =
            (0..rows * n).map(|i| rng.random_range(0..domains[i % n])).collect();
        let inputs = (targets.iter().enumerate())
            .map(|(i, &t)| if rng.random::<f64>() < 0.4 { domains[i % n] } else { t })
            .collect();
        (inputs, targets)
    }

    #[test]
    fn rows_with_one_input_prefix_share_its_column_logits_bitwise() {
        // the premise of the prefix softmax in `train_shard`, which
        // generalises column 0's: column `c`'s logits depend only on a
        // row's inputs `0..c`, so rows that agree there (MASK tokens
        // included) carry the same bits in column `c`, whatever follows
        let domains = vec![3usize, 2, 4, 3];
        let net = trained_net(domains.clone(), 59);
        let (n, rows) = (domains.len(), 40);
        let (inputs, _) = masked_rows(&domains, rows, 61);
        let mut logits = Vec::new();
        net.forward(&inputs, rows, &mut logits);
        let t = net.total_logits();
        let mut shared = 0;
        for col in 0..n {
            let seg = |b: usize| bits(&logits[b * t..][net.logit_range(col)]);
            for a in 0..rows {
                for b in a + 1..rows {
                    if inputs[a * n..a * n + col] == inputs[b * n..b * n + col] {
                        assert_eq!(seg(a), seg(b), "column {col}, rows {a} and {b}");
                        shared += (inputs[a * n + col..(a + 1) * n]
                            != inputs[b * n + col..(b + 1) * n])
                            as usize;
                    }
                }
            }
        }
        assert!(shared > 100, "only {shared} pairs share a prefix and differ after it");
    }

    #[test]
    fn prefix_softmax_matches_per_row_softmax_bitwise() {
        // `train_shard` takes one softmax per distinct input prefix and
        // column; its dlogits and loss must be the per-row loop's, bit for
        // bit, on rows whose prefixes repeat through MASK tokens
        let domains = vec![4usize, 3, 5, 2];
        let net = trained_net(domains.clone(), 53);
        let (n, rows) = (domains.len(), 64);
        let (inputs, targets) = masked_rows(&domains, rows, 67);
        let packed = pack_layers(&net.layers, Vec::new());
        let mut slots = Vec::new();
        net.token_tables(&packed[0], &mut slots);
        let mut scratch = TrainScratch::default();
        let inv_batch = 1.0 / 100.0;
        net.train_shard(&packed, &slots, &mut scratch, &inputs, &targets, rows, inv_batch);

        // the per-row loop over the reference forward's logits
        let mut logits = Vec::new();
        net.forward(&inputs, rows, &mut logits);
        let t = net.total_logits();
        let (mut want, mut probs, mut nll) = (vec![0.0f32; logits.len()], Vec::new(), 0.0f64);
        for b in 0..rows {
            for col in 0..n {
                net.column_softmax(&logits, b, col, &mut probs);
                let target = targets[b * n + col];
                nll -= (probs[target].max(1e-30) as f64).ln();
                let base = b * t + net.logit_offsets[col];
                for (j, &pj) in probs.iter().enumerate() {
                    want[base + j] = (pj - if j == target { 1.0 } else { 0.0 }) * inv_batch;
                }
            }
        }
        assert_eq!(bits(&scratch.grads[net.layers.len()]), bits(&want), "dlogits");
        assert_eq!(scratch.loss.to_bits(), nll.to_bits(), "loss");
        // and the prefixes did repeat: fewer softmaxes than rows × columns
        assert!(scratch.probs.len() < rows * t / 2, "{} softmax floats", scratch.probs.len());
    }

    #[test]
    fn training_token_tables_replay_the_grouped_kernel_bitwise() {
        // training's layer-1 forward, the token-table sum, against the
        // grouped kernel it replaces, on the tables the step built
        let domains = vec![4usize, 3, 5];
        let mut net = trained_net(domains.clone(), 71);
        let rows = 23;
        let (inputs, targets) = masked_rows(&domains, rows, 73);
        net.train_batch(&inputs, &targets, rows);
        let mut x = Vec::new();
        net.forward_full(&net.packed, None, &inputs, rows, &mut x, &mut Vec::new());
        let (mut grouped, mut summed) = (Vec::new(), Vec::new());
        net.layers[0].forward_grouped(&net.packed[0], &x[0], rows, &mut grouped);
        table_sum(&net.slots, &net.layers[0].b, &inputs, rows, &mut summed);
        assert_eq!(bits(&summed), bits(&grouped));
        assert!(grouped.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn masked_weights_are_zero_until_one_is_set() {
        let mut net = trained_net(vec![4, 3, 5], 79);
        assert!(net.masked_weights_are_zero());
        let layer = &mut net.layers[0];
        let k = layer.mask.as_ref().unwrap().iter().position(|&m| m == 0.0).unwrap();
        layer.w[k] = 0.25;
        assert!(!net.masked_weights_are_zero());
    }

    #[test]
    fn column_softmax_normalises() {
        let net = tiny_net(vec![4, 3], 3);
        let mut out = Vec::new();
        net.forward(&[1, 1, 2, 0], 2, &mut out);
        let mut p = Vec::new();
        for b in 0..2 {
            for col in 0..2 {
                net.column_softmax(&out, b, col, &mut p);
                assert_eq!(p.len(), net.domain_size(col));
                assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
                assert!(p.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn learns_a_dependent_joint_distribution() {
        // P(a) uniform over {0,1}; b = a with prob 0.9 else 1-a
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let mut data = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let a = rng.random_range(0..2usize);
            let b = if rng.random::<f64>() < 0.9 { a } else { 1 - a };
            data.push(a);
            data.push(b);
        }
        let mut net = tiny_net(vec![2, 2], 4);
        let mut opt = Adam::new(AdamConfig { lr: 5e-3, ..Default::default() });
        let bs = 128;
        for epoch in 0..30 {
            let _ = epoch;
            for chunk in data.chunks_exact(bs * 2) {
                net.train_batch(chunk, chunk, bs);
                opt.step(&mut net);
            }
        }
        // check P(b | a=0) ≈ (0.9, 0.1)
        let mut logits = Vec::new();
        net.forward(&[0, net.mask_token(1)], 1, &mut logits);
        let mut p = Vec::new();
        net.column_softmax(&logits, 0, 1, &mut p);
        assert!((p[0] - 0.9).abs() < 0.05, "P(b=0|a=0) = {}", p[0]);
        // and P(a) ≈ uniform
        net.column_softmax(&logits, 0, 0, &mut p);
        assert!((p[0] - 0.5).abs() < 0.05, "P(a=0) = {}", p[0]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let mut data = Vec::with_capacity(n * 3);
        for _ in 0..n {
            let a = rng.random_range(0..5usize);
            data.push(a);
            data.push((a * 2) % 7); // deterministic function of a
            data.push(rng.random_range(0..3usize));
        }
        let mut net = tiny_net(vec![5, 7, 3], 5);
        let mut opt = Adam::new(AdamConfig::default());
        let bs = 100;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            for chunk in data.chunks_exact(bs * 3) {
                last = net.train_batch(chunk, chunk, bs);
                first.get_or_insert(last);
                opt.step(&mut net);
            }
        }
        let first = first.unwrap();
        assert!(last.is_finite() && first.is_finite());
        // the b column is a deterministic function of a: plenty of loss to shed
        assert!(last < first - 1.0, "loss should fall materially: {first} -> {last}");
    }

    #[test]
    fn wildcard_mask_token_feeds_distinct_embedding() {
        let net = tiny_net(vec![4, 3], 6);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        // same prefix, col-0 value vs MASK: col-1 conditionals must differ
        net.forward(&[1, 0], 1, &mut out_a);
        net.forward(&[net.mask_token(0), 0], 1, &mut out_b);
        let r1 = net.logit_range(1);
        assert_ne!(&out_a[r1.clone()], &out_b[r1]);
    }

    /// Column `col` of the full forward's logits, `batch × domain_size(col)`
    /// — what the column forward must reproduce bit for bit.
    fn full_forward_column(net: &MadeNet, inputs: &[usize], batch: usize, col: usize) -> Vec<f32> {
        let mut full = Vec::new();
        net.forward(inputs, batch, &mut full);
        full.chunks_exact(net.total_logits())
            .flat_map(|row| &row[net.logit_range(col)])
            .copied()
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_column_matches_full_forward() {
        let net = tiny_net(vec![4, 3, 5], 11);
        let tables = net.build_fused_tables();
        let mut scratch = InferScratch::new();
        let inputs = [1usize, 2, 0, 3, 1, 4];
        let mut full = Vec::new();
        net.forward(&inputs, 2, &mut full);
        for col in 0..3 {
            let mut partial = Vec::new();
            net.forward_column_fused(&tables, &mut scratch, &inputs, 2, col, &mut partial);
            assert_eq!(full_forward_column(&net, &inputs, 2, col), partial, "col {col}");
            // softmaxes agree too
            let mut p1 = Vec::new();
            let mut p2 = Vec::new();
            net.column_softmax(&full, 1, col, &mut p1);
            net.row_softmax(&partial, 1, net.domain_size(col), &mut p2);
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn fused_forward_matches_unfused_bitwise() {
        let mut net = tiny_net(vec![4, 3, 5], 19);
        // make the weights non-trivial: a few training steps
        let data: Vec<usize> = (0..60).map(|i| [i % 4, i % 3, i % 5][i % 3]).collect();
        let mut opt = Adam::new(AdamConfig::default());
        for chunk in data.chunks_exact(30) {
            net.train_batch(chunk, chunk, 10);
            opt.step(&mut net);
        }
        let tables = net.build_fused_tables();
        assert!(tables.size_bytes() > 0);
        // sampled values and MASK tokens; 7 rows run the 4-row micro-kernel
        // block and the scalar tail
        let (m0, m1, m2) = (net.mask_token(0), net.mask_token(1), net.mask_token(2));
        let inputs = [1, 2, 0, m0, m1, m2, 3, m1, 4, 0, 0, m2, 2, 1, 3, m0, 2, 1, 3, m1, m2];
        let mut scratch = InferScratch::new();
        for col in 0..3 {
            let plain = full_forward_column(&net, &inputs, 7, col);
            let mut fused = Vec::new();
            net.forward_column_fused(&tables, &mut scratch, &inputs, 7, col, &mut fused);
            assert_eq!(bits(&plain), bits(&fused), "col {col}");
        }
    }

    #[test]
    fn fused_tables_track_parameter_updates() {
        let mut net = tiny_net(vec![3, 3], 23);
        let stale = net.build_fused_tables();
        let data = [0usize, 1, 2, 0, 1, 2];
        let mut opt = Adam::new(AdamConfig::default());
        net.train_batch(&data, &data, 3);
        opt.step(&mut net);
        let fresh = net.build_fused_tables();
        let inputs = [net.mask_token(0), net.mask_token(1)];
        let mut scratch = InferScratch::new();
        let want = full_forward_column(&net, &inputs, 1, 1);
        let mut got = Vec::new();
        net.forward_column_fused(&fresh, &mut scratch, &inputs, 1, 1, &mut got);
        assert_eq!(bits(&want), bits(&got));
        let mut old = Vec::new();
        net.forward_column_fused(&stale, &mut scratch, &inputs, 1, 1, &mut old);
        assert_ne!(want, old, "stale tables must not match the updated model");
    }

    #[test]
    fn shared_net_forwards_concurrently() {
        let net = tiny_net(vec![4, 3, 5], 13);
        let tables = net.build_fused_tables();
        let inputs = [1usize, 2, 0, 3, 1, 4];
        let want = full_forward_column(&net, &inputs, 2, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (net, tables, want, inputs) = (&net, &tables, &want, &inputs);
                s.spawn(move || {
                    let mut scratch = InferScratch::new();
                    let mut out = Vec::new();
                    for _ in 0..50 {
                        net.forward_column_fused(tables, &mut scratch, inputs, 2, 2, &mut out);
                        assert_eq!(bits(&out), bits(want));
                    }
                });
            }
        });
    }

    #[test]
    fn clone_starts_with_an_empty_training_pool() {
        // the pool is ⌈batch/64⌉ full sets of gradient buffers: scratch a
        // clone must not carry, while parameters and gradients it must
        let mut net = tiny_net(vec![3, 3, 3], 29);
        let data: Vec<usize> = (0..150 * 3).map(|i| i % 3).collect();
        net.train_batch_sharded(&data, &data, 150, 2);
        assert_eq!(net.train_pool.len(), 3);
        let mut copy = net.clone();
        assert!(copy.train_pool.is_empty());
        assert_eq!(grad_bits(&mut copy), grad_bits(&mut net));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        net.forward(&data[..6], 2, &mut a);
        copy.forward(&data[..6], 2, &mut b);
        assert_eq!(bits(&a), bits(&b));
        // and the clone trains on: its pool regrows on demand
        assert_eq!(
            copy.train_batch_sharded(&data, &data, 150, 1).to_bits(),
            net.train_batch_sharded(&data, &data, 150, 1).to_bits()
        );
    }

    /// Mean per-tuple NLL of `targets` under the full forward of `inputs`,
    /// in f64 — the loss `train_batch_sharded` differentiates.
    fn mean_nll(net: &MadeNet, inputs: &[usize], targets: &[usize], batch: usize) -> f64 {
        let n = net.ncols();
        let mut logits = Vec::new();
        net.forward(inputs, batch, &mut logits);
        let mut nll = 0.0f64;
        for b in 0..batch {
            for col in 0..n {
                let seg = &logits[b * net.total_logits()..][net.logit_range(col)];
                let max = seg.iter().fold(f64::NEG_INFINITY, |m, &l| m.max(l as f64));
                let lse = seg.iter().map(|&l| (l as f64 - max).exp()).sum::<f64>().ln() + max;
                nll += lse - seg[targets[b * n + col]] as f64;
            }
        }
        nll / batch as f64
    }

    #[test]
    fn train_batch_gradients_match_finite_differences() {
        // the one trainer against central differences of the full forward's
        // loss, on a net with every structural feature: masked layers
        // (mask applied after the shard reduction), a residual pair (skip
        // gradients), MASK tokens in the input (embedding scatter), and a
        // batch of 70 = one full 64-row shard + a 6-row shard whose rows
        // run the 4-row block and the scalar tail
        let mut rng = StdRng::seed_from_u64(31);
        let domains = vec![4usize, 3, 5];
        let batch = 70;
        let targets: Vec<usize> =
            (0..batch * 3).map(|i| rng.random_range(0..domains[i % 3])).collect();
        let inputs: Vec<usize> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| if rng.random::<f64>() < 0.3 { domains[i % 3] } else { t })
            .collect();
        let mut net = MadeNet::new(MadeConfig {
            domain_sizes: domains.clone(),
            hidden: vec![12, 12],
            embed_dim: 4,
            residual: true,
            seed: 37,
        });
        assert!(net.skip_from[1], "the hidden pair must be residual");
        // move the biases off zero so no ReLU sits at its kink
        net.visit_params(&mut |p, _| {
            for (i, v) in p.iter_mut().enumerate() {
                *v += ((i * 7 + 3) % 11) as f32 * 0.01 - 0.05;
            }
        });
        // per tensor in `visit_params` order: its connectivity mask, if any
        let mut masks: Vec<Option<Vec<f32>>> = vec![None; net.embeddings.len()];
        for layer in &mut net.layers {
            let mask = layer.mask.clone().expect("every MADE layer is masked");
            for (w, m) in layer.w.iter_mut().zip(&mask) {
                *w *= m;
            }
            masks.extend([Some(mask), None]);
        }
        let mut two = net.clone();
        let loss = net.train_batch_sharded(&inputs, &targets, batch, 1);
        assert!((loss as f64 - mean_nll(&net, &inputs, &targets, batch)).abs() < 1e-4);
        two.train_batch_sharded(&inputs, &targets, batch, 2);
        assert_eq!(grad_bits(&mut net), grad_bits(&mut two), "threads 1 vs 2");
        let mut analytic = Vec::new();
        net.visit_params(&mut |_, g| analytic.push(g.to_vec()));

        // small enough that a ReLU kink inside ±h is rare (low-degree units
        // see only a handful of distinct inputs, so one crossing moves many
        // rows at once), large enough to clear f32 noise
        let h = 1e-4f32;
        let (mut checked, mut nonzero) = (0, 0);
        for (t, grads) in analytic.iter().enumerate() {
            // a spread of entries per tensor
            for idx in (0..grads.len()).step_by(grads.len() / 12 + 1) {
                if masks[t].as_ref().is_some_and(|m| m[idx] == 0.0) {
                    assert_eq!(grads[idx], 0.0, "masked weight {t}[{idx}] has a gradient");
                    continue;
                }
                let mut loss_at = |d: f32| {
                    let mut at = 0;
                    net.visit_params(&mut |p, _| {
                        if at == t {
                            p[idx] += d;
                        }
                        at += 1;
                    });
                    mean_nll(&net, &inputs, &targets, batch)
                };
                let (up, down) = (loss_at(h), loss_at(-2.0 * h));
                loss_at(h); // back to the centre (to an ulp)
                let fd = (up - down) / (2.0 * h as f64);
                let got = grads[idx] as f64;
                assert!(
                    (fd - got).abs() < 1.5e-3 + 0.02 * fd.abs(),
                    "tensor {t}[{idx}]: fd {fd} vs analytic {got}"
                );
                checked += 1;
                nonzero += (got != 0.0) as usize;
            }
        }
        assert!(checked > 60 && nonzero > 30, "checked {checked}, non-zero {nonzero}");
    }

    /// Gradients (post-`train_batch_sharded`, pre-optimiser) as bit
    /// patterns, for exact comparisons.
    fn grad_bits(net: &mut MadeNet) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, g| bits.extend(g.iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn sharded_gradients_are_thread_count_invariant() {
        // 150 rows -> 3 shards (64/64/22); the shard decomposition and
        // reduction order are fixed, so every thread count must produce
        // bitwise-identical gradients and loss
        let mut rng = StdRng::seed_from_u64(21);
        let batch = 150;
        let data: Vec<usize> = (0..batch * 3).map(|_| rng.random_range(0..3usize)).collect();
        let mut reference: Option<(Vec<u32>, u32)> = None;
        for threads in [1usize, 2, 4, 7] {
            let mut net = tiny_net(vec![3, 3, 3], 17);
            let loss = net.train_batch_sharded(&data, &data, batch, threads);
            let got = (grad_bits(&mut net), loss.to_bits());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(want, &got, "threads={threads}"),
            }
        }
    }

    #[test]
    fn sharded_training_learns_like_the_sequential_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let mut data = Vec::with_capacity(n * 3);
        for _ in 0..n {
            let a = rng.random_range(0..5usize);
            data.push(a);
            data.push((a * 2) % 7);
            data.push(rng.random_range(0..3usize));
        }
        let mut net = tiny_net(vec![5, 7, 3], 5);
        let mut opt = Adam::new(AdamConfig::default());
        let bs = 100;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            for chunk in data.chunks_exact(bs * 3) {
                last = net.train_batch_sharded(chunk, chunk, bs, 2);
                first.get_or_insert(last);
                opt.step(&mut net);
            }
        }
        let first = first.unwrap();
        assert!(last.is_finite() && first.is_finite());
        assert!(last < first - 1.0, "loss should fall materially: {first} -> {last}");
    }

    #[test]
    fn param_count_and_size() {
        let mut net = tiny_net(vec![4, 3], 8);
        let n_params = net.num_params();
        // embeddings: (4+1)*8 + (3+1)*8 = 72; layers exist too
        assert!(n_params > 72);
        assert_eq!(net.size_bytes(), n_params * 4);
        // the read-only walk sees the same tensors in the same order
        let (mut via_mut, mut via_ref) = (Vec::new(), Vec::new());
        net.visit_params(&mut |p, _| via_mut.push(p.to_vec()));
        net.for_each_param(&mut |p| via_ref.push(p.to_vec()));
        assert_eq!(via_mut, via_ref);
    }

    #[test]
    fn param_count_for_matches_construction() {
        for (domains, hidden, embed) in [
            (vec![4usize, 3], vec![16usize, 16], 8usize),
            (vec![7], vec![32], 4),
            (vec![2, 9, 5, 11], vec![24, 12, 24], 6),
        ] {
            let mut net = MadeNet::new(MadeConfig {
                domain_sizes: domains.clone(),
                hidden: hidden.clone(),
                embed_dim: embed,
                residual: true,
                seed: 3,
            });
            assert_eq!(
                MadeNet::param_count_for(&domains, &hidden, embed),
                Some(net.num_params() as u64),
                "shape {domains:?} {hidden:?} e={embed}"
            );
        }
        // degenerate and overflowing shapes answer None instead of lying
        assert_eq!(MadeNet::param_count_for(&[], &[8], 4), None);
        assert_eq!(MadeNet::param_count_for(&[4], &[], 4), None);
        assert_eq!(MadeNet::param_count_for(&[usize::MAX, usize::MAX], &[8], usize::MAX), None);
    }

    #[test]
    fn single_column_model_learns_marginal() {
        let mut data = Vec::new();
        for _ in 0..300 {
            data.push(0usize);
            data.push(0);
            data.push(1);
        } // P(0)=2/3
        let mut net = tiny_net(vec![2], 10);
        let mut opt = Adam::new(AdamConfig { lr: 1e-2, ..Default::default() });
        for _ in 0..40 {
            for chunk in data.chunks_exact(90) {
                net.train_batch(chunk, chunk, 90);
                opt.step(&mut net);
            }
        }
        let mut logits = Vec::new();
        net.forward(&[net.mask_token(0)], 1, &mut logits);
        let mut p = Vec::new();
        net.column_softmax(&logits, 0, 0, &mut p);
        assert!((p[0] - 2.0 / 3.0).abs() < 0.05, "P(0) = {}", p[0]);
    }
}
