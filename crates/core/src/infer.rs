//! Unbiased progressive sampling (paper §5.2, Algorithm 1), batched.
//!
//! For each query, `S_p` samples advance slot by slot. At slot `i` the AR
//! conditional `P̂_AR(A'_i | s_<i)` is renormalised over the constrained
//! support; for a GMM-reduced column the support is the whole reduced
//! domain and the conditional is re-weighted by `P̂_GMM(R_i)` — the bias
//! correction that makes the sampler unbiased (Theorem 5.1). The factor
//! `P̂(A_i ∈ R_i | s_<i)` multiplies into the sample's running probability;
//! the query estimate is the mean over its samples.
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

/// Hoisted sampling state for one (query, unique-prefix) pair at one slot
/// step of the batched sampling pass in [`sample_chunk`].
#[derive(Debug, Clone, Copy)]
enum Hoisted {
    /// One-token window at the index (`sample_point` fast path).
    Point(usize),
    /// Multi-token window starting at `a`, with its mass and a
    /// precomputed `pick_in_window` accumulator at `cum[start..start+len]`
    /// (`last` is the fallback last-nonzero offset within the window).
    Window { a: usize, mass: f64, start: usize, len: usize, last: Option<usize> },
    /// Empty FactorLo window: kills the sample without drawing.
    Dead,
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
    hoisted: Vec<Hoisted>,
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
        // query's stream (zero-mass and empty-window rows draw nothing),
        // exactly as the unbatched per-row path did.
        // per-(query, unique-prefix) hoisted state, directly indexed by the
        // unique id `u` — no hashing in the per-row loop. `stamp[u]` holds
        // the epoch (query ordinal within this slot) that last wrote
        // `hoisted[u]`; bumping the epoch on a query change invalidates
        // every entry in O(1), because rows arrive grouped by query.
        stamp.clear();
        stamp.resize(nuniq, 0);
        hoisted.clear();
        hoisted.resize(nuniq, Hoisted::Dead);
        cum.clear();
        intern.clear(); // fresh (group, token) interning per slot
        let mut epoch = 0u32;
        let mut cur_li = usize::MAX;
        let mut terminal = false;
        for (gi, &row) in gather_rows.iter().enumerate() {
            let li = row / sp;
            if li != cur_li {
                // next query: its plan differs, so hoisted state resets
                cur_li = li;
                epoch += 1;
                cum.clear();
                // a query's last constrained slot: the sampled token and
                // the rest of its RNG stream are never read again
                let plan = plans[live[li]].as_ref().expect("live query has a plan");
                terminal = plan[slot + 1..].iter().all(|c| *c == SlotConstraint::Wildcard);
            }
            let q = live[li];
            let rng = &mut rngs[li];
            let plan = plans[q].as_ref().expect("live query has a plan");
            let u = unique_of[gi] as usize;
            let probs = &probs_all[u * width..(u + 1) * width];
            if stamp[u] != epoch {
                stamp[u] = epoch;
                hoisted[u] = match &plan[slot] {
                    SlotConstraint::Wildcard => unreachable!("wildcards were filtered"),
                    SlotConstraint::Range(a, b) if a == b => Hoisted::Point(*a),
                    SlotConstraint::Range(a, b) => {
                        // identical expression to sample_range's mass
                        let mass: f64 = probs[*a..=*b].iter().map(|&p| p as f64).sum();
                        let (start, len, last) =
                            push_cum(cum, probs[*a..=*b].iter().map(|&p| p as f64));
                        Hoisted::Window { a: *a, mass, start, len, last }
                    }
                    SlotConstraint::Weights(w) => {
                        debug_assert_eq!(w.len(), width);
                        weighted.clear();
                        weighted.extend(probs.iter().zip(w).map(|(&p, &m)| p as f64 * m));
                        crate::invariant::check_mass_vector(
                            weighted,
                            "bias-corrected slot weights",
                        );
                        let mass: f64 = weighted.iter().sum();
                        let (start, len, last) = push_cum(cum, weighted.iter().copied());
                        Hoisted::Window { a: 0, mass, start, len, last }
                    }
                    SlotConstraint::FactorLo { lo_idx, hi_idx, base } => {
                        // the hi slot precedes this one, so its sampled
                        // token is part of the unique prefix row
                        let hi_sampled = gather_inputs[u * nslots + slot - 1];
                        let first_block = lo_idx / base;
                        let last_block = hi_idx / base;
                        let a = if hi_sampled == first_block { lo_idx % base } else { 0 };
                        let b = if hi_sampled == last_block { hi_idx % base } else { base - 1 };
                        let b = b.min(width - 1);
                        if a > b {
                            Hoisted::Dead
                        } else if a == b {
                            Hoisted::Point(a)
                        } else {
                            let mass: f64 = probs[a..=b].iter().map(|&p| p as f64).sum();
                            let (start, len, last) =
                                push_cum(cum, probs[a..=b].iter().map(|&p| p as f64));
                            Hoisted::Window { a, mass, start, len, last }
                        }
                    }
                };
            }
            if terminal {
                // Mass-only fast path for the query's final constrained
                // slot: p̂ updates are the reference arms' exact
                // expressions, and the skipped draw/pick/intern work is
                // observable only through this query's own later slots
                // and RNG stream — of which there are none.
                match hoisted[u] {
                    Hoisted::Dead => p_hat[row] = 0.0,
                    Hoisted::Point(a) => {
                        let mass = probs[a] as f64;
                        if mass <= 0.0 {
                            p_hat[row] = 0.0;
                        } else {
                            p_hat[row] *= mass.min(1.0);
                        }
                    }
                    Hoisted::Window { mass, .. } => {
                        if mass <= 0.0 {
                            p_hat[row] = 0.0;
                        } else {
                            p_hat[row] *= mass.min(1.0);
                        }
                    }
                }
                continue;
            }
            let picked = match hoisted[u] {
                Hoisted::Dead => {
                    p_hat[row] = 0.0;
                    None
                }
                Hoisted::Point(a) => sample_point(probs, a, &mut p_hat[row], rng),
                Hoisted::Window { a, mass, start, len, last } => {
                    if mass <= 0.0 {
                        p_hat[row] = 0.0;
                        None
                    } else {
                        p_hat[row] *= mass.min(1.0);
                        let draw = rng.random::<f64>() * mass;
                        // precomputed pick_in_window walk: `cum[j]` is the
                        // running sum after entry j (NaN at zero-mass
                        // entries, which therefore never satisfy `<=`)
                        let mut pick = last;
                        for (j, &c) in cum[start..start + len].iter().enumerate() {
                            if draw <= c {
                                pick = Some(j);
                                break;
                            }
                        }
                        pick.map(|j| a + j)
                    }
                }
            };
            if let Some(v) = picked {
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

/// Append one window's `pick_in_window` accumulator to `arena`: entry `j`
/// holds the running sum after including window value `j`, computed with
/// the same skip-zeros sequential adds as [`pick_in_window`] — so a scan
/// for the first `draw <= cum[j]` returns exactly the index the walk
/// would. Zero-mass entries store NaN (every `<=` against NaN is false,
/// so they can never be picked), and the returned fallback mirrors the
/// walk's last-nonzero index. Returns `(start, len, last_nonzero)`.
fn push_cum(
    arena: &mut Vec<f64>,
    window: impl Iterator<Item = f64>,
) -> (usize, usize, Option<usize>) {
    let start = arena.len();
    let mut acc = 0.0f64;
    let mut last = None;
    let mut len = 0usize;
    for (j, p) in window.enumerate() {
        if p > 0.0 {
            acc += p;
            last = Some(j);
            arena.push(acc);
        } else {
            arena.push(f64::NAN);
        }
        len += 1;
    }
    (start, len, last)
}

/// Walk a probability window's running sum and return the first index at
/// which the cumulative mass reaches `u`, never returning a zero-mass
/// index. Zero entries are skipped outright (adding `0.0` to the
/// accumulator is exact, so the walk is unchanged for every reachable
/// index) — boundary draws (`u == 0.0` with leading zeros, or `u` at the
/// full mass with trailing zeros) used to land on them. When float
/// round-off leaves `u` beyond the final cumulative sum, the fallback is
/// the last *nonzero*-probability index: falling back to the window's last
/// index could select a zero-probability value and condition every later
/// slot on an impossible prefix. Returns `None` only when every entry is
/// `<= 0` (callers check the mass first).
fn pick_in_window(window: impl Iterator<Item = f64>, u: f64) -> Option<usize> {
    let mut acc = 0.0f64;
    let mut last_nonzero = None;
    for (j, p) in window.enumerate() {
        if p > 0.0 {
            acc += p;
            last_nonzero = Some(j);
            if u <= acc {
                return Some(j);
            }
        }
    }
    last_nonzero
}

/// Renormalise `probs` over `[a, b]`, fold the mass into `p_hat` and draw an
/// index. Returns `None` (and kills the sample) on zero mass.
///
/// Reference implementation: the batched sampling pass in
/// [`sample_chunk`] hoists this window's mass sum and cumulative walk per
/// (query, unique prefix) via [`push_cum`] and must stay
/// bitwise-equivalent — the equivalence tests below compare against this
/// function. The AQP sampler (`aqp::sample_region`) draws with it directly.
pub(crate) fn sample_range(
    probs: &[f32],
    a: usize,
    b: usize,
    p_hat: &mut f64,
    rng: &mut StdRng,
) -> Option<usize> {
    debug_assert!(a <= b && b < probs.len());
    let mass: f64 = probs[a..=b].iter().map(|&p| p as f64).sum();
    if mass <= 0.0 {
        *p_hat = 0.0;
        return None;
    }
    *p_hat *= mass.min(1.0);
    let u = rng.random::<f64>() * mass;
    pick_in_window(probs[a..=b].iter().map(|&p| p as f64), u).map(|j| a + j)
}

/// Point-constraint short-circuit for `sample_range(probs, a, a, ..)`: a
/// one-element window has mass `probs[a]` and only one pickable index, so
/// the cumulative walk is skipped entirely. The RNG stream must stay
/// identical to the general path, which draws exactly once *after* its
/// zero-mass check — so this draws (and discards) one `f64` in the same
/// place, and draws nothing when the mass is zero.
fn sample_point(probs: &[f32], a: usize, p_hat: &mut f64, rng: &mut StdRng) -> Option<usize> {
    debug_assert!(a < probs.len());
    let mass = probs[a] as f64;
    if mass <= 0.0 {
        *p_hat = 0.0;
        return None;
    }
    *p_hat *= mass.min(1.0);
    let _ = rng.random::<f64>();
    Some(a)
}

/// Same, but over an already bias-corrected weight vector (`p_AR × P̂_GMM`).
/// Reference implementation for the batched pass, like [`sample_range`].
pub(crate) fn sample_weighted(
    weighted: &[f64],
    p_hat: &mut f64,
    rng: &mut StdRng,
) -> Option<usize> {
    let mass: f64 = weighted.iter().sum();
    if mass <= 0.0 {
        *p_hat = 0.0;
        return None;
    }
    *p_hat *= mass.min(1.0);
    let u = rng.random::<f64>() * mass;
    pick_in_window(weighted.iter().copied(), u)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sample_point_matches_degenerate_range_bitwise() {
        // the short-circuit must reproduce sample_range(probs, a, a, ..)
        // exactly: same pick, same p_hat bits, same RNG stream afterwards
        let probs = vec![0.05f32, 0.3, 0.0, 0.65];
        for a in 0..probs.len() {
            for seed in 0..50 {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (mut p1, mut p2) = (0.7f64, 0.7f64);
                let v1 = sample_range(&probs, a, a, &mut p1, &mut r1);
                let v2 = sample_point(&probs, a, &mut p2, &mut r2);
                assert_eq!(v1, v2, "pick diverged at a={a} seed={seed}");
                assert_eq!(p1.to_bits(), p2.to_bits(), "p_hat diverged at a={a}");
                assert_eq!(
                    r1.random::<u64>(),
                    r2.random::<u64>(),
                    "RNG stream diverged at a={a} seed={seed}"
                );
            }
        }
        // zero mass: sample kills without drawing in both paths
        let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let (mut p1, mut p2) = (1.0f64, 1.0f64);
        assert!(sample_range(&probs, 2, 2, &mut p1, &mut r1).is_none());
        assert!(sample_point(&probs, 2, &mut p2, &mut r2).is_none());
        assert_eq!(p1, 0.0);
        assert_eq!(p2, 0.0);
        assert_eq!(r1.random::<u64>(), r2.random::<u64>());
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

    /// The batched pass's hoisted pick: mass + `push_cum` once, then the
    /// per-row scan — mirrors the Window arm of the batched sampler.
    fn hoisted_pick(window: &[f64], p_hat: &mut f64, rng: &mut StdRng) -> Option<usize> {
        let mass: f64 = window.iter().sum();
        let mut cum = Vec::new();
        let (start, len, last) = push_cum(&mut cum, window.iter().copied());
        if mass <= 0.0 {
            *p_hat = 0.0;
            return None;
        }
        *p_hat *= mass.min(1.0);
        let draw = rng.random::<f64>() * mass;
        let mut pick = last;
        for (j, &c) in cum[start..start + len].iter().enumerate() {
            if draw <= c {
                pick = Some(j);
                break;
            }
        }
        pick
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
            for seed in 0..200 {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (mut p1, mut p2) = (0.9f64, 0.9f64);
                let b = probs.len() - 1;
                let want = sample_range(probs, 0, b, &mut p1, &mut r1);
                let w64: Vec<f64> = probs.iter().map(|&p| p as f64).collect();
                let got = hoisted_pick(&w64, &mut p2, &mut r2);
                assert_eq!(want, got, "pick diverged on {probs:?} seed {seed}");
                assert_eq!(p1.to_bits(), p2.to_bits(), "p_hat diverged on {probs:?}");
                assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "RNG diverged on {probs:?}");
            }
        }
        // weighted vectors take the same path
        let weighted = vec![0.0f64, 1e-12, 0.0, 1e-300, 0.0];
        for seed in 0..200 {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut p1, mut p2) = (1.0f64, 1.0f64);
            let want = sample_weighted(&weighted, &mut p1, &mut r1);
            let got = hoisted_pick(&weighted, &mut p2, &mut r2);
            assert_eq!(want, got, "seed {seed}");
            assert_eq!(p1.to_bits(), p2.to_bits());
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
        for seed in 0..500 {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (mut p1, mut p2) = (1.0f64, 1.0f64);
            let want = sample_weighted(&weighted, &mut p1, &mut r1).unwrap();
            let got = hoisted_pick(&weighted, &mut p2, &mut r2).unwrap();
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
