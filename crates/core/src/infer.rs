//! Unbiased progressive sampling (paper §5.2, Algorithm 1), batched — the
//! one inference entry point, [`estimate_batch`].
//!
//! The kernel computes what the plain per-query sampler in `reference.rs`
//! computes, bit for bit: `S_p` samples advance slot by slot; at slot `i`
//! the AR conditional `P̂_AR(A'_i | s_<i)` is renormalised over the
//! constrained support (for a GMM-reduced column the whole reduced domain,
//! re-weighted by `P̂_GMM(R_i)` — the bias correction of Theorem 5.1); the
//! factor `P̂(A_i ∈ R_i | s_<i)` multiplies into the sample's running
//! probability, and the estimate is the clamped mean over the samples. The
//! oracle test in `reference.rs` pins the two together. Everything the
//! kernel adds buys speed and changes no bit: forwards batched across a
//! chunk's queries, rows with equal sampled prefixes forwarded once, window
//! mass and pick accumulators hoisted per (query, unique prefix), and no
//! draw at a query's last constrained slot.
//!
//! # Determinism and parallelism
//!
//! Every query draws from its **own** RNG stream ([`estimate_batch`] takes
//! one seed per query), and a query's draws happen in a fixed
//! (slot, sample) order regardless of which other queries share the batch.
//! Consequently a query's estimate depends only on the model and its seed —
//! **not** on batch composition, chunking, or thread count. That invariant
//! is what lets the serving layer coalesce arbitrary requests into
//! micro-batches while staying bitwise reproducible, and lets cached
//! results be reused safely.
//!
//! The forward passes still run batched across all of a chunk's queries at
//! each slot — the shared-GEMM amortisation of §5.3 ("Batch Query
//! Inference", Table 7) is preserved.

use crate::probes;
use crate::reference;
use crate::schema::{IamSchema, SlotConstraint};
use iam_nn::{FusedTables, InferScratch, MadeNet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// Multiply-xor hasher for the prefix-group intern map: the keys are
/// packed `(group id, token)` words (trusted data, no DoS surface), where
/// SipHash's per-call overhead dominates the whole dedup pass. Hash
/// quality only affects bucket collisions — group identity comes from
/// full `Eq` on the keys, and first-encounter order comes from the row
/// iteration order, so the hasher choice cannot change results.
#[derive(Default)]
struct PrefixHasher(u64);

impl std::hash::Hasher for PrefixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0 ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // one multiply per key — the hot path for the packed u64 keys
        self.0 = (self.0 ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // finalizing xor-shift: the multiply alone leaves the low bits
        // weak, and HashMap indexes with the high seven + low bits
        let h = self.0;
        h ^ (h >> 29)
    }
}

type PrefixBuildHasher = std::hash::BuildHasherDefault<PrefixHasher>;

/// Hoisted sampling window for one (query, unique-prefix) pair at one slot
/// step of [`sample_chunk`]: it starts at token `a` and has mass `mass`,
/// and `cum[start..start + len]` is its precomputed `pick_in_window`
/// accumulator (`last` is the fallback last-nonzero offset within it). A
/// point `[a, a]` is a 1-wide window; an empty FactorLo window has mass 0.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    a: usize,
    mass: f64,
    start: usize,
    len: usize,
    last: Option<usize>,
}

/// Reusable per-worker buffers for progressive-sampling runs: the network
/// scratch plus every gather/dedup/softmax buffer of the slot loop. One
/// scratch serves one chunk of an [`estimate_batch`] call at a time;
/// [`ScratchPool`] recycles them across micro-batches so the serving hot
/// path allocates nothing beyond first-use growth.
#[derive(Debug, Default)]
pub struct QueryScratch {
    nn: InferScratch,
    inputs: Vec<usize>,
    p_hat: Vec<f64>,
    gather_rows: Vec<usize>,
    gather_inputs: Vec<usize>,
    unique_of: Vec<u32>,
    logits: Vec<f32>,
    probs: Vec<f32>,
    probs_all: Vec<f32>,
    weighted: Vec<f64>,
    cum: Vec<f64>,
    stamp: Vec<u32>,
    hoisted: Vec<Window>,
    group: Vec<u32>,
    intern: HashMap<u64, u32, PrefixBuildHasher>,
    id_seen: Vec<u32>,
    id_uniq: Vec<u32>,
}

impl QueryScratch {
    /// Fresh, empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A free list of [`QueryScratch`] shared by inference workers: scratch is
/// checked out per call and returned afterwards, so repeated micro-batches
/// (the serving layer's steady state) reuse grown buffers instead of
/// reallocating them. Poisoning is benign — a scratch lost to a panicking
/// worker is simply rebuilt on the next checkout.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn take(&self) -> QueryScratch {
        match self.free.lock() {
            Ok(mut v) => v.pop().unwrap_or_default(),
            Err(poisoned) => {
                self.free.clear_poison();
                poisoned.into_inner().pop().unwrap_or_default()
            }
        }
    }

    pub(crate) fn put(&self, scratch: QueryScratch) {
        if let Ok(mut v) = self.free.lock() {
            v.push(scratch);
        }
    }
}

/// Batched progressive-sampling estimator — the one inference entry point.
///
/// `plans[q]` is the slot-constraint plan for query `q` (`None` → provably
/// empty, estimate 0) and `seeds[q]` its RNG seed: `results[q]` depends
/// only on `(net, schema, plans[q], samples_per_query, seeds[q])` — never
/// on the other queries in the batch. `tables` must have been built from
/// `net`'s current parameters.
///
/// Queries are split into `threads` contiguous chunks, one
/// `std::thread::scope` worker per chunk (none for `threads <= 1`), all
/// sharing the model immutably. Workers write straight into disjoint
/// chunks of one result buffer and check their [`QueryScratch`] out of
/// `pool`, so steady-state micro-batches reuse grown buffers across calls.
/// Because of the per-query seeding invariant (see module docs), the
/// result is bitwise identical for every `threads` value.
#[allow(clippy::too_many_arguments)]
pub fn estimate_batch(
    net: &MadeNet,
    schema: &IamSchema,
    plans: &[Option<Vec<SlotConstraint>>],
    samples_per_query: usize,
    seeds: &[u64],
    tables: &FusedTables,
    threads: usize,
    pool: &ScratchPool,
) -> Vec<f64> {
    assert_eq!(plans.len(), seeds.len(), "one seed per query");
    let mut results = vec![0.0f64; plans.len()];
    let run = |pc: &[Option<Vec<SlotConstraint>>], sc: &[u64], rc: &mut [f64]| {
        let mut scratch = pool.take();
        sample_chunk(net, schema, pc, samples_per_query, sc, tables, &mut scratch, rc);
        pool.put(scratch);
    };
    let threads = threads.clamp(1, plans.len().max(1));
    if threads == 1 {
        run(plans, seeds, &mut results);
        return results;
    }
    let chunk = plans.len().div_ceil(threads);
    // the chunk decomposition must cover every query, tail chunk included:
    // `chunks`/`chunks_mut` both emit ⌈len/chunk⌉ pieces whose lengths sum
    // to len, and zipping three decompositions of equal-length slices keeps
    // them aligned offset for offset
    assert_eq!(
        plans.chunks(chunk).map(<[_]>::len).sum::<usize>(),
        results.len(),
        "chunk decomposition must cover the tail chunk"
    );
    // the trace context is thread-local; hand each fan-out thread a child
    // context so infer spans still stitch into the caller's trace tree
    let ctx = iam_obs::tracetree::child_ctx();
    std::thread::scope(|s| {
        for ((pc, sc), rc) in
            plans.chunks(chunk).zip(seeds.chunks(chunk)).zip(results.chunks_mut(chunk))
        {
            let run = &run;
            s.spawn(move || {
                let _ctx = ctx.map(iam_obs::tracetree::install);
                run(pc, sc, rc);
            });
        }
    });
    results
}

/// The per-chunk kernel behind [`estimate_batch`], writing into its slice
/// of the shared result buffer.
///
/// Forwards run through the precomputed embedding→layer-1 token tables
/// (see [`iam_nn::FusedTables`]). Within each slot step, sample rows
/// with identical sampled prefixes are deduplicated and forwarded once
/// (logits are scattered back); at the first constrained slot every live
/// row still carries the all-MASK prefix, so the whole chunk shares a
/// single forward row. Deduplication never changes results: the forward
/// kernels are batch-position invariant and a row's logits depend only on
/// its own inputs.
///
/// The softmax + weighted-sampling step is likewise batched across the
/// prefix-deduped row set: per-window mass sums and cumulative-pick
/// accumulators are computed once per (query, unique prefix) with the
/// reference samplers' exact sequential arithmetic, so estimates are
/// bitwise identical to the per-row formulation. The RNG draw order is
/// pinned — rows in `gather_rows` order, one `f64` draw per surviving
/// row from its own query's stream — with one exception: at a query's
/// *last* constrained slot the sampled token and the remainder of its
/// stream are never read again, so the draw and pick are skipped and only
/// the (identical) mass factor is applied.
#[allow(clippy::too_many_arguments)]
fn sample_chunk(
    net: &MadeNet,
    schema: &IamSchema,
    plans: &[Option<Vec<SlotConstraint>>],
    samples_per_query: usize,
    seeds: &[u64],
    tables: &FusedTables,
    scratch: &mut QueryScratch,
    results: &mut [f64],
) {
    assert_eq!(plans.len(), seeds.len(), "one seed per query");
    assert_eq!(plans.len(), results.len(), "one result slot per query");
    let _span = iam_obs::span!("infer.progressive_sample");
    let nslots = schema.nslots();
    let sp = samples_per_query.max(1);
    // map live queries to sample-row blocks
    let live: Vec<usize> = (0..plans.len()).filter(|&q| plans[q].is_some()).collect();
    results.fill(0.0);
    if live.is_empty() {
        return;
    }
    let rows = live.len() * sp;
    let mut rngs: Vec<StdRng> = live.iter().map(|&q| StdRng::seed_from_u64(seeds[q])).collect();

    let QueryScratch {
        nn,
        inputs,
        p_hat,
        gather_rows,
        gather_inputs,
        unique_of,
        logits,
        probs,
        probs_all,
        weighted,
        cum,
        stamp,
        hoisted,
        group,
        intern,
        id_seen,
        id_uniq,
    } = scratch;

    // sample state: all slots start at their MASK token
    inputs.clear();
    inputs.reserve(rows * nslots);
    for _ in 0..rows {
        for s in 0..nslots {
            inputs.push(net.mask_token(s));
        }
    }
    p_hat.clear();
    p_hat.resize(rows, 1.0);

    // Incremental prefix-group ids: `group[row]` identifies the row's
    // sampled prefix — two rows carry the same id iff their `inputs`
    // prefixes are equal. All rows start in group 0 (the all-MASK prefix);
    // when a row picks token `v` at a slot it moves to the id interned for
    // `(old group, v)`, while unpicked rows keep their id (their prefix
    // gained only MASKs, which preserves pairwise equality — ids are never
    // reused, so an id always denotes one prefix). This turns per-slot
    // dedup from an O(prefix-length) slice hash per row into two O(1)
    // array reads.
    group.clear();
    group.resize(rows, 0);
    let mut next_id: u32 = 1;
    id_seen.clear();
    id_uniq.clear();
    let mut slot_gen: u32 = 0;

    // local accounting, flushed to the registry once per batch
    let mut forward_rows = 0u64;
    let mut dedup_hits = 0u64;

    for slot in 0..nslots {
        // which rows need a model forward at this slot?
        gather_rows.clear();
        for (li, &q) in live.iter().enumerate() {
            let plan = plans[q].as_ref().expect("live query has a plan");
            if plan[slot] == SlotConstraint::Wildcard {
                continue;
            }
            for s in 0..sp {
                let row = li * sp + s;
                if p_hat[row] > 0.0 {
                    gather_rows.push(row);
                }
            }
        }
        if gather_rows.is_empty() {
            continue;
        }
        forward_rows += gather_rows.len() as u64;

        // prefix deduplication: a row's logits at this slot depend only on
        // its sampled prefix (every slot ≥ `slot` is still MASK for every
        // row), so rows sharing a prefix share one forward. At early slots
        // few distinct prefixes exist — slot 0 always collapses to ONE
        // all-MASK row for the whole chunk. Prefix identity is the
        // incrementally maintained `group` id, so grouping is two array
        // reads per row; `id_seen[g]` stamps the slot generation that
        // first met id `g`, making the per-slot reset O(new ids).
        let nuniq = {
            let _dspan = iam_obs::span!("infer.prefix_dedup");
            unique_of.clear();
            gather_inputs.clear();
            slot_gen += 1;
            id_seen.resize(next_id as usize, 0);
            id_uniq.resize(next_id as usize, 0);
            for &row in gather_rows.iter() {
                let g = group[row] as usize;
                if id_seen[g] != slot_gen {
                    id_seen[g] = slot_gen;
                    id_uniq[g] = (gather_inputs.len() / nslots) as u32;
                    gather_inputs.extend_from_slice(&inputs[row * nslots..(row + 1) * nslots]);
                }
                unique_of.push(id_uniq[g]);
            }
            gather_inputs.len() / nslots
        };
        dedup_hits += (gather_rows.len() - nuniq) as u64;

        // compact forward over just the unique prefixes
        net.forward_column_fused(tables, nn, gather_inputs, nuniq, slot, logits);
        let width = net.domain_size(slot);

        // one softmax per unique prefix, reused by every duplicate row
        probs_all.clear();
        probs_all.reserve(nuniq * width);
        for u in 0..nuniq {
            net.row_softmax(logits, u, width, probs);
            crate::invariant::check_softmax_mass(probs, "infer slot softmax");
            probs_all.extend_from_slice(probs);
        }

        // Batched softmax-sampling pass. `gather_rows` is ordered by
        // (query, sample index), so a query's rows are contiguous, and a
        // row's sampling window — its mass sum and `pick_in_window`
        // accumulator — depends only on (query, unique prefix `u`): the
        // constraint comes from the query's plan, and even the FactorLo
        // window bounds derive from the prefix's hi-slot token, which is
        // part of the deduped unique row. So the O(width) mass/cumulative
        // work is hoisted to once per (query, u) — computed with the
        // exact sequential arithmetic of `sample_range`/`sample_weighted`,
        // hence bitwise identical — and the per-row loop only draws and
        // scans precomputed accumulators.
        //
        // RNG draw order is pinned: rows are visited in `gather_rows`
        // order and each surviving row draws exactly one `f64` from its
        // query's stream (zero-mass windows draw nothing), exactly as the
        // per-query reference sampler does.
        // per-(query, unique-prefix) hoisted state, directly indexed by the
        // unique id `u` — no hashing in the per-row loop. `stamp[u]` holds
        // the epoch (query ordinal within this slot) that last wrote
        // `hoisted[u]`; bumping the epoch on a query change invalidates
        // every entry in O(1), because rows arrive grouped by query.
        stamp.clear();
        stamp.resize(nuniq, 0);
        hoisted.clear();
        hoisted.resize(nuniq, Window::default());
        cum.clear();
        intern.clear(); // fresh (group, token) interning per slot
        let mut epoch = 0u32;
        let mut cur_li = usize::MAX;
        let mut terminal = false;
        for (gi, &row) in gather_rows.iter().enumerate() {
            let li = row / sp;
            let plan = plans[live[li]].as_ref().expect("live query has a plan");
            if li != cur_li {
                // next query: its plan differs, so hoisted state resets
                cur_li = li;
                epoch += 1;
                cum.clear();
                // a query's last constrained slot: the sampled token and
                // the rest of its RNG stream are never read again
                terminal = plan[slot + 1..].iter().all(|c| *c == SlotConstraint::Wildcard);
            }
            let u = unique_of[gi] as usize;
            if stamp[u] != epoch {
                stamp[u] = epoch;
                let probs = &probs_all[u * width..(u + 1) * width];
                let range = |cum: &mut Vec<f64>, a: usize, b: usize| {
                    hoist(cum, a, probs[a..=b].iter().map(|&p| p as f64))
                };
                hoisted[u] = match plan[slot] {
                    SlotConstraint::Wildcard => unreachable!("wildcards were filtered"),
                    SlotConstraint::Range(a, b) => range(cum, a, b),
                    SlotConstraint::Weights(ref w) => {
                        debug_assert_eq!(w.len(), width);
                        weighted.clear();
                        weighted.extend(probs.iter().zip(w).map(|(&p, &m)| p as f64 * m));
                        crate::invariant::check_mass_vector(
                            weighted,
                            "bias-corrected slot weights",
                        );
                        hoist(cum, 0, weighted.iter().copied())
                    }
                    SlotConstraint::FactorLo { lo_idx, hi_idx, base } => {
                        // the hi slot precedes this one, so its sampled
                        // token is part of the unique prefix row
                        let hi = gather_inputs[u * nslots + slot - 1];
                        let (a, b) = reference::factor_lo_window(hi, lo_idx, hi_idx, base, width);
                        if a > b {
                            Window::default()
                        } else {
                            range(cum, a, b)
                        }
                    }
                };
            }
            if let Some(v) = hoisted[u].step(cum, &mut p_hat[row], terminal, &mut rngs[li]) {
                inputs[row * nslots + slot] = v;
                // refine the row's prefix-group id: rows picking the same
                // token out of the same group stay together
                let key = ((group[row] as u64) << 32) | v as u64;
                group[row] = *intern.entry(key).or_insert_with(|| {
                    let id = next_id;
                    next_id += 1;
                    id
                });
            }
        }
    }

    let p = probes::infer();
    let mut dead_samples = 0u64;
    for (li, &q) in live.iter().enumerate() {
        let block = &p_hat[li * sp..(li + 1) * sp];
        dead_samples += block.iter().filter(|&&x| x == 0.0).count() as u64;
        results[q] = (block.iter().sum::<f64>() / sp as f64).clamp(0.0, 1.0);
        crate::invariant::check_selectivity(results[q], "progressive-sampling estimate");
        p.renorm_mass_ppm.observe((results[q] * 1e6) as u64);
    }
    p.queries.add(live.len() as u64);
    p.samples.add(rows as u64);
    p.forward_rows.add(forward_rows);
    p.dead_samples.add(dead_samples);
    p.dedup_hits.add(dedup_hits);
}

/// Hoist one window of values starting at token `a`: its mass — the
/// reference samplers' exact sequential sum — and its `pick_in_window`
/// accumulator, appended to `arena`. Entry `j` holds the running sum after
/// value `j`, with the same skip-zeros sequential adds as
/// `pick_in_window`, so [`Window::step`] picks exactly the index the walk
/// would. Zero-mass entries store NaN (every `<=` against NaN is false, so
/// they can never be picked), and `last` mirrors the walk's last-nonzero
/// fallback.
fn hoist(arena: &mut Vec<f64>, a: usize, values: impl Iterator<Item = f64> + Clone) -> Window {
    let mass: f64 = values.clone().sum();
    let start = arena.len();
    let mut acc = 0.0f64;
    let mut last = None;
    for (j, p) in values.enumerate() {
        if p > 0.0 {
            acc += p;
            last = Some(j);
            arena.push(acc);
        } else {
            arena.push(f64::NAN);
        }
    }
    Window { a, mass, start, len: arena.len() - start, last }
}

impl Window {
    /// One row's step through this window, in the reference samplers'
    /// order: zero mass kills the sample without a draw, the mass folds
    /// into `p_hat`, then one draw scans the accumulator for the token. At
    /// a `terminal` slot (the query's last constrained one) nothing reads
    /// the token or the rest of the RNG stream, so the draw is skipped.
    fn step(self, cum: &[f64], p_hat: &mut f64, terminal: bool, rng: &mut StdRng) -> Option<usize> {
        if self.mass <= 0.0 {
            *p_hat = 0.0;
            return None;
        }
        *p_hat *= self.mass.min(1.0);
        if terminal {
            return None;
        }
        let draw = rng.random::<f64>() * self.mass;
        let cum = &cum[self.start..self.start + self.len];
        cum.iter().position(|&c| draw <= c).or(self.last).map(|j| self.a + j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{pick_in_window, sample_range, sample_weighted};

    #[test]
    fn sample_range_masses_accumulate() {
        let probs = vec![0.1f32, 0.2, 0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(1);
        let mut p_hat = 1.0;
        let v = sample_range(&probs, 1, 2, &mut p_hat, &mut rng).unwrap();
        assert!((1..=2).contains(&v));
        assert!((p_hat - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_mass_kills_sample() {
        let probs = vec![0.5f32, 0.0, 0.0, 0.5];
        let mut rng = StdRng::seed_from_u64(2);
        let mut p_hat = 1.0;
        assert!(sample_range(&probs, 1, 2, &mut p_hat, &mut rng).is_none());
        assert_eq!(p_hat, 0.0);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let weighted = vec![0.0, 0.25, 0.75, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let mut p = 1.0;
            counts[sample_weighted(&weighted, &mut p, &mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[0] + counts[3], 0);
        let frac = counts[2] as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.03, "{frac}");
    }

    #[test]
    fn roundoff_fallback_lands_on_last_nonzero_index() {
        // regression: with trailing zero-probability entries, a draw that
        // round-off pushes past the final cumulative sum used to fall back
        // to the window's LAST index — a zero-mass value that conditions
        // every later slot on an impossible prefix. The fallback must be
        // the last nonzero-probability index instead.
        let window = [0.3f64, 0.0, 0.4, 0.0, 0.0];
        let mass: f64 = window.iter().sum();
        // u strictly above the accumulated mass forces the fallback path
        let u = mass * (1.0 + 1e-9);
        assert_eq!(pick_in_window(window.iter().copied(), u), Some(2));
        // all-zero window: nothing pickable
        assert_eq!(pick_in_window([0.0f64; 4].iter().copied(), 0.0), None);
    }

    #[test]
    fn boundary_draw_skips_leading_zero_mass_entries() {
        // regression: u == 0.0 satisfied `u <= acc` at the first entry even
        // when that entry had zero probability
        let window = [0.0f64, 0.0, 0.6, 0.4];
        assert_eq!(pick_in_window(window.iter().copied(), 0.0), Some(2));
    }

    #[test]
    fn sample_range_never_picks_a_zero_probability_index() {
        let probs = vec![0.0f32, 0.3, 0.0, 0.7, 0.0];
        for seed in 0..500 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p_hat = 1.0;
            let v = sample_range(&probs, 0, 4, &mut p_hat, &mut rng).unwrap();
            assert!(probs[v] > 0.0, "seed {seed} picked zero-mass index {v}");
        }
    }

    #[test]
    fn sample_weighted_never_picks_a_zero_weight_index() {
        let weighted = vec![0.0f64, 1e-12, 0.0, 1e-300, 0.0];
        for seed in 0..500 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p_hat = 1.0;
            let v = sample_weighted(&weighted, &mut p_hat, &mut rng).unwrap();
            assert!(weighted[v] > 0.0, "seed {seed} picked zero-weight index {v}");
        }
    }

    #[test]
    fn sample_point_matches_degenerate_range_bitwise() {
        // a point is a 1-wide window: its hoisted step must reproduce
        // sample_range(probs, a, a, ..) exactly — same pick, same p_hat
        // bits, same RNG stream afterwards — since the one draw
        // `r·mass ≤ mass` always lands on the point
        let probs = vec![0.05f32, 0.3, 0.0, 0.65];
        for a in 0..probs.len() {
            let mut cum = vec![f64::NAN; 2]; // windows start mid-arena
            let w = hoist(&mut cum, a, std::iter::once(probs[a] as f64));
            for seed in 0..50 {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (mut p1, mut p2) = (0.7f64, 0.7f64);
                let v1 = sample_range(&probs, a, a, &mut p1, &mut r1);
                let v2 = w.step(&cum, &mut p2, false, &mut r2);
                assert_eq!(v1, v2, "pick diverged at a={a} seed={seed}");
                assert_eq!(p1.to_bits(), p2.to_bits(), "p_hat diverged at a={a}");
                assert_eq!(
                    r1.random::<u64>(),
                    r2.random::<u64>(),
                    "RNG stream diverged at a={a} seed={seed}"
                );
            }
        }
        // zero mass: sample kills in both paths, with the same RNG stream
        let mut cum = Vec::new();
        let w = hoist(&mut cum, 2, std::iter::once(probs[2] as f64));
        let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let (mut p1, mut p2) = (1.0f64, 1.0f64);
        assert!(sample_range(&probs, 2, 2, &mut p1, &mut r1).is_none());
        assert!(w.step(&cum, &mut p2, false, &mut r2).is_none());
        assert_eq!(p1, 0.0);
        assert_eq!(p2, 0.0);
        assert_eq!(r1.random::<u64>(), r2.random::<u64>());
    }

    #[test]
    fn hoisted_pick_matches_reference_samplers_bitwise() {
        // the batched sampling pass must reproduce sample_range /
        // sample_weighted exactly: same pick, same p_hat bits, same RNG
        // stream — including zero-mass windows, interior/trailing zeros,
        // and the round-off fallback
        let windows: Vec<Vec<f32>> = vec![
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.0, 0.3, 0.0, 0.7, 0.0],
            vec![0.5, 0.0, 0.0, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![1e-30, 0.0, 1e-38],
        ];
        for probs in &windows {
            let b = probs.len() - 1;
            let spans = [(0, b), (1, b), (1, b - 1)];
            for (a, b) in spans {
                let mut cum = vec![f64::NAN; 3]; // windows start mid-arena
                let w = hoist(&mut cum, a, probs[a..=b].iter().map(|&p| p as f64));
                for seed in 0..200 {
                    let (mut r1, mut r2) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let (mut p1, mut p2) = (0.9f64, 0.9f64);
                    let want = sample_range(probs, a, b, &mut p1, &mut r1);
                    let got = w.step(&cum, &mut p2, false, &mut r2);
                    assert_eq!(want, got, "pick diverged on {probs:?}[{a}..={b}] seed {seed}");
                    assert_eq!(p1.to_bits(), p2.to_bits(), "p_hat diverged on {probs:?}");
                    assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "RNG diverged");
                }
            }
        }
        // weighted vectors take the same path; an empty window is dead
        // without a draw
        let weighted = vec![0.0f64, 1e-12, 0.0, 1e-300, 0.0];
        let mut cum = Vec::new();
        let w = hoist(&mut cum, 0, weighted.iter().copied());
        for seed in 0..200 {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut p1, mut p2) = (1.0f64, 1.0f64);
            let want = sample_weighted(&weighted, &mut p1, &mut r1);
            let got = w.step(&cum, &mut p2, false, &mut r2);
            assert_eq!(want, got, "seed {seed}");
            assert_eq!(p1.to_bits(), p2.to_bits());
            let mut p3 = 1.0;
            assert_eq!(Window::default().step(&cum, &mut p3, false, &mut r1), None);
            assert_eq!(p3, 0.0);
            assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "a dead window drew");
        }
    }

    #[test]
    fn prefix_difference_clamped_zeros_are_never_selected() {
        // regression: a CDF difference in a far tail can go tiny-negative
        // from round-off before `normal_mass`'s `.max(0.0)` clamp, leaving
        // *exact* 0.0 entries in the P̂_GMM mass vector. Those zeros must
        // be unpickable under both the reference sampler and the batched
        // hoisted pick, for boundary draws included.
        let gmm =
            iam_gmm::Gmm1d::new(vec![0.4, 0.3, 0.3], vec![-50.0, 0.0, 50.0], vec![0.5, 1.0, 0.5]);
        // an interval deep in component 2's territory: components 0 and 1
        // have (clamped) zero mass there
        let mass = gmm.range_mass_exact(49.0, 51.0);
        assert_eq!(mass[0], 0.0, "far-tail mass must clamp to exactly 0.0");
        assert!(mass[2] > 0.0);
        // a plausible softmax row times that mass vector
        let probs = [0.2f32, 0.5, 0.3];
        let weighted: Vec<f64> = probs.iter().zip(&mass).map(|(&p, &m)| p as f64 * m).collect();
        let mut cum = Vec::new();
        let w = hoist(&mut cum, 0, weighted.iter().copied());
        for seed in 0..500 {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut p1, mut p2) = (1.0f64, 1.0f64);
            let want = sample_weighted(&weighted, &mut p1, &mut r1).unwrap();
            let got = w.step(&cum, &mut p2, false, &mut r2).unwrap();
            assert_eq!(want, got, "seed {seed}");
            assert!(weighted[want] > 0.0, "seed {seed} picked clamped-zero index {want}");
        }
        // boundary draws: u == 0.0 (first positive entry) and a draw past
        // the full mass (fallback) must also avoid the zeros
        let m: f64 = weighted.iter().sum();
        assert!(weighted[pick_in_window(weighted.iter().copied(), 0.0).unwrap()] > 0.0);
        let fb = pick_in_window(weighted.iter().copied(), m * (1.0 + 1e-9)).unwrap();
        assert!(weighted[fb] > 0.0, "fallback landed on a clamped zero");
    }
}
