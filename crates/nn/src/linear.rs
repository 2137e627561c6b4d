//! (Optionally masked) affine layers with manual backprop, on one
//! degree-blocked, output-lane kernel family.
//!
//! # Layout
//!
//! [`Linear::new_masked`] reads the layer's 0/1 mask once. Outputs that
//! share a mask row *and* a class (a MADE degree, or a head column) are
//! grouped into blocks of at most 8. Each block lists the inputs
//! its rows see. Inputs that share a mask column are grouped the same way
//! for the backward pass, each block listing the outputs that see it. A
//! block never straddles a class, because inference selects blocks by
//! class ([`Linear::forward_classes`]); equal rows alone would not do,
//! since e.g. neighbouring head columns have equal rows when the hidden
//! width is below the number of degrees. [`Linear::pack`] then copies the
//! live weights into kernel order ([`Packed`]): one 8-float vector per
//! (output block, live input), holding the block's outputs side by side,
//! and one per (input block, live output). Masked weights are not stored,
//! so no pass multiplies one. An unmasked layer is the all-live case.
//!
//! # Kernels
//!
//! * **Forward.** Output `o` is `bias[o] + Σ_g d_g`, one term per input
//!   group `g` in ascending order (one group spanning the row for a plain
//!   layer, one per slot embedding for the MADE input layer). `d_g` is the
//!   `dot_lanes` value of the group: input `i` feeds lane
//!   `(i − g·group) % 8`, each lane adds its inputs in ascending order with
//!   a rounded `mul` then `add` (no FMA), and the lanes meet in the
//!   `reduce_lanes` tree. One register per lane holds that lane for all
//!   eight outputs of a block; lanes `p` and `p + 4` run interleaved, which
//!   is the tree's first level. A group in which the block sees nothing is
//!   skipped. Four batch rows share each weight load.
//! * **Group tables.** [`Linear::group_tables`] runs the forward's per-group
//!   term alone against rows of one input group (the MADE input layer's
//!   token tables): the same blocks, lanes and tree, four rows per pass.
//! * **Backward `dx`.** One register per input block and batch row, summed
//!   over the block's live outputs in ascending `o`, stored once.
//! * **Backward `gw`.** One register per (live output, input block), summed
//!   over the batch rows in ascending `b`, stored once. Masked `gw` entries
//!   are never written, so no mask multiply follows the backward.
//! * **Backward `gb`.** Ascending `b` per output.
//!
//! Every kernel is written once against `Vec8`: `Scalar8` is the portable
//! body, `simd::Avx2` the packed one, chosen at run time.
//!
//! # Why the bits are the unblocked kernels'
//!
//! The reference is the plain row kernel: every output a `dot_lanes` over
//! the whole weight row, every gradient element a sum over all terms.
//!
//! * Each output gets the same products, in the same lanes, in the same
//!   order, through the same tree; so does each gradient element.
//! * Each skipped term is a product with a masked weight (forward, `dx`) or
//!   lands in a masked `gw` entry, and a masked weight is exactly `0.0`
//!   (it starts at zero and its gradient is always zero). With a finite
//!   factor such a product is `±0`.
//! * Adding `±0` changes no accumulator except `−0`, and none is ever
//!   `−0`: accumulators start at `+0.0`, biases start at `+0.0` and Adam's
//!   `p − δ` never turns `+0` into `−0`, and a round-to-nearest sum is `−0`
//!   only when both addends are. Padding lanes of a partial block carry
//!   `0.0` weights under the same argument and are never stored.
//! * A masked `gw` entry stays `+0.0` where the reference held `±0.0`. Adam
//!   squares it for the clip norm and scales it into moments that start at
//!   `+0.0`, so the moments, the clip norm and the weights are unchanged.
//! * The argument needs finite inputs, since `0 · ∞` is NaN (the degree
//!   filter of inference has always relied on the same). The training
//!   entry points (`forward`, `forward_grouped`, `backward_into`)
//!   `debug_assert!` it, and packing asserts that the layout matches the
//!   mask. The inference entry (`forward_classes`) leaves a non-finite
//!   model to the estimator's invariant layer, which checks every softmax.

use crate::init::Initializer;
use std::collections::HashMap;
use std::ops::Range;

/// Independent partial sums per dot product (one SIMD lane each), and the
/// most outputs or inputs one kernel block carries.
const LANES: usize = 8;

/// Batch rows that share one pass over a block's packed weights.
const ROWS: usize = 4;

/// Outputs whose `gw` registers share one pass over an input block.
const GW_OUTS: usize = 4;

/// Fixed tree reduction of the lane accumulators; every kernel uses this
/// same order so identical `(w, x)` pairs give identical results.
#[inline(always)]
fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    let mut s = acc;
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            s[l] += s[l + width];
        }
        width /= 2;
    }
    s[0]
}

/// Lane-blocked dot product. The tail reuses the lane accumulators (lane
/// `l` takes tail element `l`) so the result is a pure function of the
/// element sequence, not of the caller. Dispatches to the AVX2 variant
/// when the CPU supports it — bitwise identical by construction (see
/// [`simd`]).
#[inline(always)]
pub(crate) fn dot_lanes(w: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(w.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if simd::enabled() {
        // SAFETY: guarded by runtime AVX2 detection.
        return unsafe { simd::dot_lanes_avx2(w, x) };
    }
    dot_lanes_scalar(w, x)
}

/// Portable scalar body of `dot_lanes`; also the reference the SIMD
/// variant and the blocked kernels are tested against.
#[inline(always)]
fn dot_lanes_scalar(w: &[f32], x: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut i = 0;
    while i + LANES <= w.len() {
        for l in 0..LANES {
            acc[l] += w[i + l] * x[i + l];
        }
        i += LANES;
    }
    for (l, (wi, xi)) in w[i..].iter().zip(&x[i..]).enumerate() {
        acc[l] += wi * xi;
    }
    reduce_lanes(acc)
}

/// Eight `f32` lanes, the one vector type the blocked kernels are written
/// against. Every op rounds each lane as the scalar `*` and `+` do (no FMA
/// contraction, no reassociation), so all implementations agree bit for
/// bit.
trait Vec8: Copy {
    fn zero() -> Self;
    fn load(v: &[f32; LANES]) -> Self;
    fn splat(v: f32) -> Self;
    fn store(self) -> [f32; LANES];
    fn add(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
}

/// The portable `Vec8`.
#[derive(Clone, Copy)]
struct Scalar8([f32; LANES]);

impl Vec8 for Scalar8 {
    #[inline(always)]
    fn zero() -> Self {
        Scalar8([0.0; LANES])
    }
    #[inline(always)]
    fn load(v: &[f32; LANES]) -> Self {
        Scalar8(*v)
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Scalar8([v; LANES])
    }
    #[inline(always)]
    fn store(self) -> [f32; LANES] {
        self.0
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Scalar8(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Scalar8(std::array::from_fn(|l| self.0[l] * o.0[l]))
    }
}

/// Runtime-dispatched AVX2 variants of the lane kernels.
///
/// `LANES == 8` is exactly one `__m256`. `_mm256_mul_ps` and
/// `_mm256_add_ps` round each lane exactly like the scalar code, and no
/// FMA is formed, so [`Avx2`] is [`super::Scalar8`] bit for bit — which
/// `simd_kernels_match_scalar_bitwise` and the differential kernel test pin.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{reduce_lanes, Bwd, Fwd, Layout, Vec8, LANES};
    use std::arch::x86_64::*;

    /// Whether the AVX2 paths may run (cached by the detection macro).
    #[inline(always)]
    pub(super) fn enabled() -> bool {
        std::is_x86_feature_detected!("avx2")
    }

    /// AVX2 [`super::dot_lanes`]. Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_lanes_avx2(w: &[f32], x: &[f32]) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= w.len() {
            // SAFETY: `i + LANES <= len` bounds both 8-float loads.
            let wv = _mm256_loadu_ps(w.as_ptr().add(i));
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xv));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (l, (wi, xi)) in w[i..].iter().zip(&x[i..]).enumerate() {
            lanes[l] += wi * xi;
        }
        reduce_lanes(lanes)
    }

    /// One `__m256`. Only the AVX2-enabled kernels below construct it, so
    /// its methods run only where AVX2 is available.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256);

    impl Vec8 for Avx2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX2 is available wherever an `Avx2` exists.
            unsafe { Avx2(_mm256_setzero_ps()) }
        }
        #[inline(always)]
        fn load(v: &[f32; LANES]) -> Self {
            // SAFETY: as in `zero`; `v` is eight readable floats.
            unsafe { Avx2(_mm256_loadu_ps(v.as_ptr())) }
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: as in `zero`.
            unsafe { Avx2(_mm256_set1_ps(v)) }
        }
        #[inline(always)]
        fn store(self) -> [f32; LANES] {
            let mut t = [0.0f32; LANES];
            // SAFETY: as in `zero`; `t` is eight writable floats.
            unsafe { _mm256_storeu_ps(t.as_mut_ptr(), self.0) };
            t
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: as in `zero`.
            unsafe { Avx2(_mm256_add_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: as in `zero`.
            unsafe { Avx2(_mm256_mul_ps(self.0, o.0)) }
        }
    }

    /// [`super::forward_body`] on AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward(f: &Fwd, out: &mut [f32]) {
        super::forward_body::<Avx2>(f, out)
    }

    /// [`super::tables_body`] on AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tables(
        lay: &Layout,
        wp: &[[f32; LANES]],
        rows: &[&[f32]],
        tables: &mut [Vec<f32>],
    ) {
        super::tables_body::<Avx2>(lay, wp, rows, tables)
    }

    /// [`super::backward_body`] on AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn backward(b: &Bwd, gw: &mut [f32], dx: &mut [f32]) {
        super::backward_body::<Avx2>(b, gw, dx)
    }
}

/// Up to `LANES` outputs that share a mask row and a class.
#[derive(Debug, Clone)]
struct OutBlock {
    class: usize,
    outs: Vec<usize>,
    /// The block's input groups that hold a live input, in [`Layout::segs`].
    segs: Range<usize>,
    /// The block's live inputs in kernel order, in [`Layout::fwd_idx`]
    /// (and, eight floats each, in [`Packed`]'s forward weights).
    entries: Range<usize>,
}

/// One input group of an [`OutBlock`]: per lane pair `(p, p + 4)`, how many
/// live inputs each of the two lanes takes. A pair's entries alternate
/// `p, p + 4, p, p + 4, …` while both lanes have one left, then the longer
/// lane's rest follows.
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// The group's first input index.
    start: u32,
    pairs: [[u32; 2]; 4],
}

impl Seg {
    /// The seg's live inputs (its entries).
    fn len(&self) -> usize {
        self.pairs.iter().map(|&[a, b]| (a + b) as usize).sum()
    }
}

/// Up to `LANES` inputs that share a mask column.
#[derive(Debug, Clone)]
struct InBlock {
    ins: Vec<usize>,
    /// The outputs that see the block, ascending, in [`Layout::bwd_idx`]
    /// (and, eight floats each, in [`Packed`]'s backward weights).
    outs: Range<usize>,
}

/// The blocked structure of one layer, a pure function of its mask, its
/// output classes and its input group width.
#[derive(Debug, Clone)]
struct Layout {
    in_dim: usize,
    out_dim: usize,
    group: usize,
    /// Sorted by class.
    blocks: Vec<OutBlock>,
    segs: Vec<Seg>,
    fwd_idx: Vec<u32>,
    in_blocks: Vec<InBlock>,
    bwd_idx: Vec<u32>,
}

/// `items` grouped by `key`, groups in order of first appearance.
fn group_by<K: std::hash::Hash + Eq>(
    items: impl Iterator<Item = usize>,
    key: impl Fn(usize) -> K,
) -> Vec<Vec<usize>> {
    let mut index = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for it in items {
        let g = *index.entry(key(it)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(it);
    }
    groups
}

impl Layout {
    /// `live(o, i)`: whether output `o` sees input `i`. `class[o]` is the
    /// inference class of output `o`; `group` the forward's input group
    /// width (it tiles the row).
    fn new(
        in_dim: usize,
        out_dim: usize,
        live: impl Fn(usize, usize) -> bool,
        class: &[usize],
        group: usize,
    ) -> Self {
        assert_eq!(class.len(), out_dim, "one class per output");
        assert!(group > 0 && in_dim.is_multiple_of(group), "groups must tile the input row");
        assert!(u32::try_from(in_dim.max(out_dim)).is_ok(), "layer too wide");
        let row = |o: usize| (0..in_dim).map(|i| live(o, i)).collect::<Vec<bool>>();
        let col = |i: usize| (0..out_dim).map(|o| live(o, i)).collect::<Vec<bool>>();
        let mut lay = Layout {
            in_dim,
            out_dim,
            group,
            blocks: Vec::new(),
            segs: Vec::new(),
            fwd_idx: Vec::new(),
            in_blocks: Vec::new(),
            bwd_idx: Vec::new(),
        };

        let mut rows = group_by(0..out_dim, |o| (class[o], row(o)));
        rows.sort_by_key(|g| class[g[0]]); // stable: first appearance within a class
        for outs in rows.iter().flat_map(|g| g.chunks(LANES)) {
            let seen = row(outs[0]);
            let (seg0, entry0) = (lay.segs.len(), lay.fwd_idx.len());
            for g0 in (0..in_dim).step_by(group) {
                let lane = |l: usize| {
                    (g0 + l..g0 + group).step_by(LANES).filter(|&i| seen[i]).map(|i| i as u32)
                };
                let mut pairs = [[0u32; 2]; 4];
                for (p, pair) in pairs.iter_mut().enumerate() {
                    let (a, b): (Vec<u32>, Vec<u32>) = (lane(p).collect(), lane(p + 4).collect());
                    *pair = [a.len() as u32, b.len() as u32];
                    let common = a.len().min(b.len());
                    for k in 0..common {
                        lay.fwd_idx.extend([a[k], b[k]]);
                    }
                    lay.fwd_idx.extend(&a[common..]);
                    lay.fwd_idx.extend(&b[common..]);
                }
                if pairs != [[0; 2]; 4] {
                    lay.segs.push(Seg { start: g0 as u32, pairs });
                }
            }
            lay.blocks.push(OutBlock {
                class: class[outs[0]],
                outs: outs.to_vec(),
                segs: seg0..lay.segs.len(),
                entries: entry0..lay.fwd_idx.len(),
            });
        }

        for ins in group_by(0..in_dim, col).iter().flat_map(|g| g.chunks(LANES)) {
            let start = lay.bwd_idx.len();
            lay.bwd_idx.extend((0..out_dim).filter(|&o| live(o, ins[0])).map(|o| o as u32));
            lay.in_blocks.push(InBlock { ins: ins.to_vec(), outs: start..lay.bwd_idx.len() });
        }
        lay
    }

    /// Whether the blocks encode exactly `mask` (all-live when `None`):
    /// every output and input in one block, and each block's live list the
    /// mask's row or column.
    fn matches(&self, mask: Option<&[f32]>) -> bool {
        let (ni, no) = (self.in_dim, self.out_dim);
        let (mut out_seen, mut in_seen) = (vec![0u32; no], vec![0u32; ni]);
        let (mut fwd, mut bwd) = (vec![0u32; no * ni], vec![0u32; no * ni]);
        for blk in &self.blocks {
            for &o in &blk.outs {
                out_seen[o] += 1;
                for &i in &self.fwd_idx[blk.entries.clone()] {
                    fwd[o * ni + i as usize] += 1;
                }
            }
        }
        for ib in &self.in_blocks {
            for &i in &ib.ins {
                in_seen[i] += 1;
                for &o in &self.bwd_idx[ib.outs.clone()] {
                    bwd[o as usize * ni + i] += 1;
                }
            }
        }
        let want = |k: usize| mask.is_none_or(|m| m[k] != 0.0) as u32;
        out_seen.iter().chain(&in_seen).all(|&n| n == 1)
            && (0..no * ni).all(|k| fwd[k] == want(k) && bwd[k] == want(k))
    }

    /// The blocks whose class lies in `classes`.
    fn class_blocks(&self, classes: Range<usize>) -> &[OutBlock] {
        let lo = self.blocks.partition_point(|b| b.class < classes.start);
        let hi = self.blocks.partition_point(|b| b.class < classes.end);
        &self.blocks[lo..hi]
    }
}

/// A layer's live weights in kernel order — a copy of [`Linear::w`] that
/// must be rebuilt ([`Linear::pack`]) after every change to it.
#[derive(Debug, Clone, Default)]
pub struct Packed {
    fwd: Vec<[f32; LANES]>,
    bwd: Vec<[f32; LANES]>,
}

impl Packed {
    /// Resident size, in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.fwd.as_slice()) + std::mem::size_of_val(self.bwd.as_slice())
    }
}

/// The exactness argument's precondition (`0 · ∞` is NaN).
fn all_finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// One forward call's operands ([`forward_body`]).
struct Fwd<'a> {
    lay: &'a Layout,
    blocks: &'a [OutBlock],
    wp: &'a [[f32; LANES]],
    bias: &'a [f32],
    x: &'a [f32],
    batch: usize,
    /// `out` is `batch × width`; output `o` lands in column `o − col0`.
    col0: usize,
    width: usize,
}

/// One input group's `dot_lanes` value for every output of a block, one
/// register per row: the seg's entries are taken from the front of `w` and
/// `idx`, which are left past them, and `x(r, i)` splats row `r`'s input
/// `i`.
#[inline(always)]
fn seg_dots<V: Vec8, const R: usize>(
    seg: &Seg,
    w: &mut &[[f32; LANES]],
    idx: &mut &[u32],
    x: impl Fn(usize, u32) -> V,
) -> [V; R] {
    let mut s = [[V::zero(); 4]; R];
    for (p, &[na, nb]) in seg.pairs.iter().enumerate() {
        let (na, nb) = (na as usize, nb as usize);
        let (w_p, i_p);
        ((w_p, *w), (i_p, *idx)) = (w.split_at(na + nb), idx.split_at(na + nb));
        let common = 2 * na.min(nb);
        let (mut a, mut b) = ([V::zero(); R], [V::zero(); R]);
        for (w2, i2) in w_p[..common].chunks_exact(2).zip(i_p[..common].chunks_exact(2)) {
            let (wa, wb) = (V::load(&w2[0]), V::load(&w2[1]));
            for r in 0..R {
                a[r] = a[r].add(wa.mul(x(r, i2[0])));
                b[r] = b[r].add(wb.mul(x(r, i2[1])));
            }
        }
        let acc = if na > nb { &mut a } else { &mut b };
        for (w, &i) in w_p[common..].iter().zip(&i_p[common..]) {
            let w = V::load(w);
            for (r, a) in acc.iter_mut().enumerate() {
                *a = a.add(w.mul(x(r, i)));
            }
        }
        for r in 0..R {
            s[r][p] = a[r].add(b[r]); // the tree's first level: lane p + lane p+4
        }
    }
    std::array::from_fn(|r| {
        let [s0, s1, s2, s3] = s[r];
        s0.add(s2).add(s1.add(s3))
    })
}

/// Rows `xs` of one block: `bias8` plus the block's group terms, one
/// register per row holding the block's outputs.
///
/// # Safety
/// Every row in `xs` holds `lay.in_dim` floats. (Every input index of
/// `lay` is below `in_dim`, by construction in [`Layout::new`].)
#[inline(always)]
unsafe fn block_rows<V: Vec8, const R: usize>(
    lay: &Layout,
    blk: &OutBlock,
    wp: &[[f32; LANES]],
    bias8: V,
    xs: [&[f32]; R],
) -> [V; R] {
    debug_assert!(xs.iter().all(|x| x.len() == lay.in_dim));
    // SAFETY: every `i` is a layout input index, below `in_dim`, and every
    // `xs[r]` holds `in_dim` floats (the contract). Unchecked, the reads
    // measured ≈ 10 % more `kernel_batch` qps than bounds-checked ones.
    let x = |r: usize, i: u32| V::splat(unsafe { *xs[r].get_unchecked(i as usize) });
    let mut y = [bias8; R];
    let (mut wp, mut idx) = (&wp[blk.entries.clone()], &lay.fwd_idx[blk.entries.clone()]);
    for seg in &lay.segs[blk.segs.clone()] {
        let d = seg_dots::<V, R>(seg, &mut wp, &mut idx, x);
        for r in 0..R {
            y[r] = y[r].add(d[r]);
        }
    }
    y
}

/// Every group dot of `lay` against every row of `rows[g]` into
/// `tables[g]` ([`Linear::group_tables`]), in [`ROWS`]-row passes and a
/// single-row tail. `tables[g]` is pre-filled with `+0.0`.
#[inline(always)]
fn tables_body<V: Vec8>(
    lay: &Layout,
    wp: &[[f32; LANES]],
    rows: &[&[f32]],
    tables: &mut [Vec<f32>],
) {
    let (group, out_dim) = (lay.group, lay.out_dim);
    for blk in &lay.blocks {
        let (mut wp, mut idx) = (&wp[blk.entries.clone()], &lay.fwd_idx[blk.entries.clone()]);
        for seg in &lay.segs[blk.segs.clone()] {
            let (w_s, i_s);
            ((w_s, wp), (i_s, idx)) = (wp.split_at(seg.len()), idx.split_at(seg.len()));
            let start = seg.start as usize;
            let (xs, table) = (rows[start / group], &mut tables[start / group]);
            let x = |t: usize| {
                move |r: usize, i: u32| V::splat(xs[(t + r) * group + i as usize - start])
            };
            let mut store = |t: usize, d: V| {
                for (v, &o) in d.store().iter().zip(&blk.outs) {
                    table[t * out_dim + o] = *v;
                }
            };
            let n = xs.len() / group;
            let mut t0 = 0;
            while t0 + ROWS <= n {
                let ds = seg_dots::<V, ROWS>(seg, &mut { w_s }, &mut { i_s }, x(t0));
                for (r, d) in ds.into_iter().enumerate() {
                    store(t0 + r, d);
                }
                t0 += ROWS;
            }
            for t in t0..n {
                let [d] = seg_dots::<V, 1>(seg, &mut { w_s }, &mut { i_s }, x(t));
                store(t, d);
            }
        }
    }
}

/// The blocked forward over `f.blocks`, in [`ROWS`]-row passes and a
/// single-row tail.
#[inline(always)]
fn forward_body<V: Vec8>(f: &Fwd, out: &mut [f32]) {
    let in_dim = f.lay.in_dim;
    let x_row = |b: usize| &f.x[b * in_dim..(b + 1) * in_dim];
    for blk in f.blocks {
        let mut b8 = [0.0f32; LANES];
        for (bj, &o) in b8.iter_mut().zip(&blk.outs) {
            *bj = f.bias[o];
        }
        let bias8 = V::load(&b8);
        let mut store = |row: usize, y: V| {
            for (yj, &o) in y.store().iter().zip(&blk.outs) {
                out[row * f.width + o - f.col0] = *yj;
            }
        };
        let mut b0 = 0;
        while b0 + ROWS <= f.batch {
            let xs = std::array::from_fn(|r| x_row(b0 + r));
            // SAFETY: each `x_row` is `in_dim` floats.
            let ys = unsafe { block_rows::<V, ROWS>(f.lay, blk, f.wp, bias8, xs) };
            for (r, y) in ys.into_iter().enumerate() {
                store(b0 + r, y);
            }
            b0 += ROWS;
        }
        for row in b0..f.batch {
            // SAFETY: as above.
            let [y] = unsafe { block_rows::<V, 1>(f.lay, blk, f.wp, bias8, [x_row(row)]) };
            store(row, y);
        }
    }
}

/// One backward call's operands ([`backward_body`]).
struct Bwd<'a> {
    lay: &'a Layout,
    wp: &'a [[f32; LANES]],
    x: &'a [f32],
    dy: &'a [f32],
    batch: usize,
}

/// `dx` and `gw` of the blocked backward (`gb` needs no blocks).
#[inline(always)]
fn backward_body<V: Vec8>(bw: &Bwd, gw: &mut [f32], dx: &mut [f32]) {
    let lay = bw.lay;
    let (in_dim, out_dim, batch) = (lay.in_dim, lay.out_dim, bw.batch);
    let dy = |b: usize, o: usize| V::splat(bw.dy[b * out_dim + o]);
    // the block's inputs of every batch row, packed 8-wide for the gw pass
    let mut xb = vec![[0.0f32; LANES]; batch];
    for ib in &lay.in_blocks {
        let (wp, outs) = (&bw.wp[ib.outs.clone()], &lay.bwd_idx[ib.outs.clone()]);
        if outs.is_empty() {
            continue; // no output sees these inputs: dx stays +0, gw masked
        }
        // dx[b][ins] = Σ_o dy[b][o] · w[o][ins], ascending o
        let mut b0 = 0;
        while b0 < batch {
            let r_n = (batch - b0).min(ROWS);
            let mut acc = [V::zero(); ROWS];
            if r_n == ROWS {
                for (w, &o) in wp.iter().zip(outs) {
                    let w = V::load(w);
                    for (r, a) in acc.iter_mut().enumerate() {
                        *a = a.add(dy(b0 + r, o as usize).mul(w));
                    }
                }
            } else {
                for (r, a) in acc.iter_mut().enumerate().take(r_n) {
                    for (w, &o) in wp.iter().zip(outs) {
                        *a = a.add(dy(b0 + r, o as usize).mul(V::load(w)));
                    }
                }
            }
            for (r, a) in acc.iter().enumerate().take(r_n) {
                for (aj, &i) in a.store().iter().zip(&ib.ins) {
                    dx[(b0 + r) * in_dim + i] = *aj;
                }
            }
            b0 += r_n;
        }

        // gw[o][ins] += Σ_b dy[b][o] · x[b][ins], ascending b
        for (b, xr) in xb.iter_mut().enumerate() {
            for (xj, &i) in xr.iter_mut().zip(&ib.ins) {
                *xj = bw.x[b * in_dim + i];
            }
        }
        for chunk in outs.chunks(GW_OUTS) {
            let mut acc = [V::zero(); GW_OUTS];
            for (a, &o) in acc.iter_mut().zip(chunk) {
                let mut t = [0.0f32; LANES];
                for (tj, &i) in t.iter_mut().zip(&ib.ins) {
                    *tj = gw[o as usize * in_dim + i];
                }
                *a = V::load(&t);
            }
            if let &[o0, o1, o2, o3] = chunk {
                let o = [o0, o1, o2, o3].map(|o| o as usize);
                for (b, xr) in xb.iter().enumerate() {
                    let xv = V::load(xr);
                    for (a, &oq) in acc.iter_mut().zip(&o) {
                        *a = a.add(dy(b, oq).mul(xv));
                    }
                }
            } else {
                for (a, &o) in acc.iter_mut().zip(chunk) {
                    for (b, xr) in xb.iter().enumerate() {
                        *a = a.add(dy(b, o as usize).mul(V::load(xr)));
                    }
                }
            }
            for (a, &o) in acc.iter().zip(chunk) {
                for (aj, &i) in a.store().iter().zip(&ib.ins) {
                    gw[o as usize * in_dim + i] = *aj;
                }
            }
        }
    }
}

/// A dense affine layer `y = x Wᵀ + b`, optionally constrained by a binary
/// connectivity mask (MADE-style). Holds parameters, their gradient
/// accumulators and the blocked layout of its mask: activations belong to
/// the caller, so every forward is `&self` and backward takes the layer
/// input it needs. The kernels read the weights through a [`Packed`] copy
/// the caller rebuilds after each update.
///
/// Masked weights start at zero, the kernels never read them, and their
/// gradients are never written, so Adam keeps them exactly zero.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input features.
    pub in_dim: usize,
    /// Output features.
    pub out_dim: usize,
    /// Weights, row-major `out_dim × in_dim`.
    pub w: Vec<f32>,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
    /// Optional 0/1 connectivity mask, same layout as `w`.
    pub mask: Option<Vec<f32>>,
    /// Weight gradients.
    pub gw: Vec<f32>,
    /// Bias gradients.
    pub gb: Vec<f32>,
    layout: Layout,
}

impl Linear {
    /// New unmasked layer with Kaiming init.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Self {
        Self::build(in_dim, out_dim, None, &vec![0; out_dim], in_dim.max(1), init)
    }

    /// New masked layer; `mask` is row-major `out_dim × in_dim` of 0/1.
    /// `class[o]` is output `o`'s inference class (what
    /// [`Self::forward_classes`] selects by), and `group` the input group
    /// width of [`Self::forward_grouped`] (`in_dim` for a plain layer).
    pub fn new_masked(
        in_dim: usize,
        out_dim: usize,
        mask: Vec<f32>,
        class: &[usize],
        group: usize,
        init: &mut Initializer,
    ) -> Self {
        assert_eq!(mask.len(), in_dim * out_dim);
        Self::build(in_dim, out_dim, Some(mask), class, group, init)
    }

    fn build(
        in_dim: usize,
        out_dim: usize,
        mask: Option<Vec<f32>>,
        class: &[usize],
        group: usize,
        init: &mut Initializer,
    ) -> Self {
        let live = |o: usize, i: usize| mask.as_ref().is_none_or(|m| m[o * in_dim + i] != 0.0);
        let layout = Layout::new(in_dim, out_dim, live, class, group);
        let mut w = init.kaiming(in_dim * out_dim, in_dim);
        for (w, m) in w.iter_mut().zip(mask.iter().flatten()) {
            *w *= m;
        }
        Linear {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            mask,
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            layout,
        }
    }

    /// Rebuild `packed` — forward and backward weights — from the current
    /// weights (training: once per optimiser step).
    pub fn pack(&self, packed: &mut Packed) {
        self.pack_forward(packed);
        let lay = &self.layout;
        packed.bwd.clear();
        packed.bwd.resize(lay.bwd_idx.len(), [0.0; LANES]);
        for ib in &lay.in_blocks {
            for k in ib.outs.clone() {
                let o = lay.bwd_idx[k] as usize;
                for (wj, &i) in packed.bwd[k].iter_mut().zip(&ib.ins) {
                    *wj = self.w[o * self.in_dim + i];
                }
            }
        }
    }

    /// Rebuild only the forward weights of `packed` (inference).
    pub fn pack_forward(&self, packed: &mut Packed) {
        let lay = &self.layout;
        debug_assert!(lay.matches(self.mask.as_deref()), "packed layout does not match the mask");
        packed.fwd.clear();
        packed.fwd.resize(lay.fwd_idx.len(), [0.0; LANES]);
        packed.bwd.clear();
        for blk in &lay.blocks {
            for e in blk.entries.clone() {
                let i = lay.fwd_idx[e] as usize;
                for (wj, &o) in packed.fwd[e].iter_mut().zip(&blk.outs) {
                    *wj = self.w[o * self.in_dim + i];
                }
            }
        }
    }

    /// Run the blocked forward over `blocks` into `out` (`batch × cols.len()`,
    /// zero where no block writes).
    fn run_forward(
        &self,
        packed: &Packed,
        x: &[f32],
        batch: usize,
        blocks: &[OutBlock],
        cols: Range<usize>,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(x.len(), batch * self.in_dim, "input is not batch × in_dim");
        assert_eq!(packed.fwd.len(), self.layout.fwd_idx.len(), "stale packed weights");
        out.clear();
        out.resize(batch * cols.len(), 0.0);
        let f = Fwd {
            lay: &self.layout,
            blocks,
            wp: &packed.fwd,
            bias: &self.b,
            x,
            batch,
            col0: cols.start,
            width: cols.len(),
        };
        #[cfg(target_arch = "x86_64")]
        if simd::enabled() {
            // SAFETY: guarded by runtime AVX2 detection.
            return unsafe { simd::forward(&f, out) };
        }
        forward_body::<Scalar8>(&f, out)
    }

    /// Forward for a `batch × in_dim` input; writes `batch × out_dim` into
    /// `out`. A plain layer: its input row is one group.
    pub fn forward(&self, packed: &Packed, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(self.layout.group, self.in_dim, "a grouped layer runs forward_grouped");
        debug_assert!(all_finite(x), "the blocked kernels need finite inputs");
        self.run_forward(packed, x, batch, &self.layout.blocks, 0..self.out_dim, out);
    }

    /// Grouped forward: the input row is `in_dim / group` contiguous groups
    /// (the `group` given to [`Self::new_masked`]) and every output is its
    /// bias plus one `dot_lanes` scalar per group, added in ascending
    /// group order. The MADE input layer runs this (one group per slot
    /// embedding), so the fused token tables, which cache the group
    /// scalars, replay it bitwise.
    pub fn forward_grouped(&self, packed: &Packed, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        debug_assert!(all_finite(x), "the blocked kernels need finite inputs");
        self.run_forward(packed, x, batch, &self.layout.blocks, 0..self.out_dim, out);
    }

    /// Forward computing only the outputs whose class lies in `classes`,
    /// into `batch × cols.len()` (output `o` in column `o − cols.start`;
    /// the selected outputs must lie in `cols`). Every other column reads
    /// `0.0`; each computed output carries exactly the [`Self::forward`]
    /// bits. Inference selects MADE's live hidden degrees and one head
    /// column this way. Unlike the training entry points it does not assert
    /// finite inputs: a non-finite model (a poisoned weight) must reach the
    /// estimator's own invariant checks, which test every softmax.
    pub fn forward_classes(
        &self,
        packed: &Packed,
        x: &[f32],
        batch: usize,
        classes: Range<usize>,
        cols: Range<usize>,
        out: &mut Vec<f32>,
    ) {
        self.run_forward(packed, x, batch, self.layout.class_blocks(classes), cols, out);
    }

    /// One group's scalar contribution to output unit `o`: the lane-reduced
    /// dot of weight row `o`'s `[offset, offset + x.len())` block against
    /// `x`. This is exactly the scalar [`Self::forward_grouped`] adds for
    /// that group: the plain reference the blocked table builder
    /// ([`Self::group_tables`]) is pinned to.
    pub fn group_dot(&self, o: usize, offset: usize, x: &[f32]) -> f32 {
        let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
        dot_lanes(&row[offset..offset + x.len()], x)
    }

    /// Every output's group dot ([`Self::group_dot`]) against every row of
    /// every input group: `rows[g]` holds rows of input group `g` (`group`
    /// floats each, the `group` given to [`Self::new_masked`]), and
    /// `tables[g]` receives `rows × out_dim`, output `o` in column `o`. The
    /// MADE input layer's token tables: group `g` is slot `g`'s embedding
    /// table.
    ///
    /// Built on the forward blocks and `packed`'s forward weights (which
    /// must be current): a block's group dots come out eight outputs per
    /// vector, in `dot_lanes`'s lanes and tree, so each is bitwise
    /// `group_dot`'s. An output that sees none of group `g` reads `+0.0`,
    /// which `group_dot` also gives for finite rows, its weights there
    /// being masked and so zero. Like [`Self::forward_classes`] it does not
    /// assert finite rows: inference builds its tables here, and a
    /// non-finite model must reach the estimator's own invariant checks.
    pub fn group_tables(&self, packed: &Packed, rows: &[&[f32]], tables: &mut Vec<Vec<f32>>) {
        let group = self.layout.group;
        assert_eq!(rows.len(), self.in_dim / group, "one row set per input group");
        assert_eq!(packed.fwd.len(), self.layout.fwd_idx.len(), "stale packed weights");
        tables.resize_with(rows.len(), Vec::new);
        for (t, r) in tables.iter_mut().zip(rows) {
            assert!(r.len().is_multiple_of(group), "rows of another width");
            t.clear();
            t.resize(r.len() / group * self.out_dim, 0.0);
        }
        #[cfg(target_arch = "x86_64")]
        if simd::enabled() {
            // SAFETY: guarded by runtime AVX2 detection.
            return unsafe { simd::tables(&self.layout, &packed.fwd, rows, tables) };
        }
        tables_body::<Scalar8>(&self.layout, &packed.fwd, rows, tables)
    }

    /// Backward into caller-provided gradient buffers: given the layer
    /// input `x` and `dL/dy` (`batch × out_dim`), accumulate into `gw`/`gb`
    /// and write `dL/dx` into `dx`. `packed` must hold this layer's current
    /// weights ([`Self::pack`]). Masked `gw` entries are never written.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        packed: &Packed,
        x: &[f32],
        dy: &[f32],
        batch: usize,
        gw: &mut [f32],
        gb: &mut [f32],
        dx: &mut Vec<f32>,
    ) {
        let (ni, no) = (self.in_dim, self.out_dim);
        assert_eq!(x.len(), batch * ni, "input is not batch × in_dim");
        assert_eq!(dy.len(), batch * no, "dy is not batch × out_dim");
        assert_eq!((gw.len(), gb.len()), (no * ni, no), "gradient buffers of another shape");
        assert_eq!(packed.bwd.len(), self.layout.bwd_idx.len(), "stale packed weights");
        debug_assert!(all_finite(x) && all_finite(dy), "the blocked kernels need finite inputs");
        for row in dy.chunks_exact(no) {
            for (g, d) in gb.iter_mut().zip(row) {
                *g += d;
            }
        }
        dx.clear();
        dx.resize(batch * ni, 0.0);
        let b = Bwd { lay: &self.layout, wp: &packed.bwd, x, dy, batch };
        #[cfg(target_arch = "x86_64")]
        if simd::enabled() {
            // SAFETY: guarded by runtime AVX2 detection.
            return unsafe { simd::backward(&b, gw, dx) };
        }
        backward_body::<Scalar8>(&b, gw, dx)
    }

    /// [`Self::backward_into`] the layer's own accumulators — the whole
    /// backward of a model that trains unsharded ([`crate::Mlp`]).
    pub fn backward(
        &mut self,
        packed: &Packed,
        x: &[f32],
        dy: &[f32],
        batch: usize,
        dx: &mut Vec<f32>,
    ) {
        let (mut gw, mut gb) = (std::mem::take(&mut self.gw), std::mem::take(&mut self.gb));
        self.backward_into(packed, x, dy, batch, &mut gw, &mut gb, dx);
        (self.gw, self.gb) = (gw, gb);
    }

    /// Whether every masked weight is `0.0` (either sign), as training
    /// keeps it.
    pub fn masked_weights_are_zero(&self) -> bool {
        let mask = self.mask.iter().flatten();
        self.w.iter().zip(mask).all(|(&w, &m)| m != 0.0 || w == 0.0)
    }

    /// Visit (param, grad) pairs.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    /// Scalar parameter count (masked weights included; they are stored).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Every layer's packed weights ([`Linear::pack`]) for their current
/// parameters, reusing `packed`'s buffers.
pub(crate) fn pack_layers(layers: &[Linear], mut packed: Vec<Packed>) -> Vec<Packed> {
    packed.resize_with(layers.len(), Packed::default);
    for (layer, p) in layers.iter().zip(&mut packed) {
        layer.pack(p);
    }
    packed
}

/// ReLU. The activation pattern backward needs is recorded into a
/// caller-held mask, never in the layer. Every body is one branch-free
/// select over a slice (`if on { v } else { 0.0 }`), which the compiler
/// vectorises.
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// The single activation predicate shared by the training and
    /// inference paths: a unit is active iff its pre-activation is
    /// strictly positive, so NaN and -0.0 both clamp to +0.0 everywhere.
    #[inline(always)]
    fn is_active(v: f32) -> bool {
        v > 0.0
    }

    /// In-place forward recording the activation pattern into `active`
    /// (training: one mask per layer per shard).
    pub fn forward_masked(x: &mut [f32], active: &mut Vec<bool>) {
        active.clear();
        active.resize(x.len(), false);
        for (v, a) in x.iter_mut().zip(active.iter_mut()) {
            let on = Self::is_active(*v);
            *a = on;
            *v = if on { *v } else { 0.0 };
        }
    }

    /// In-place forward (inference).
    pub fn forward(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = if Self::is_active(*v) { *v } else { 0.0 };
        }
    }

    /// In-place backward: zero the gradients of units `active` recorded
    /// as inactive.
    pub fn backward_masked(dy: &mut [f32], active: &[bool]) {
        debug_assert_eq!(dy.len(), active.len());
        for (g, &on) in dy.iter_mut().zip(active) {
            *g = if on { *g } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn packed(l: &Linear) -> Packed {
        let mut p = Packed::default();
        l.pack(&mut p);
        p
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_matches_manual_matmul() {
        let mut init = Initializer::new(1);
        let mut l = Linear::new(3, 2, &mut init);
        l.w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // row0=[1,2,3], row1=[4,5,6]
        l.b = vec![0.5, -0.5];
        let mut out = Vec::new();
        l.forward(&packed(&l), &[1.0, 0.0, -1.0, 2.0, 2.0, 2.0], 2, &mut out);
        assert_eq!(out, vec![1.0 - 3.0 + 0.5, 4.0 - 6.0 - 0.5, 12.0 + 0.5, 30.0 - 0.5]);
    }

    /// The portable bodies of the blocked kernels, whatever the host runs.
    fn forward_scalar(l: &Linear, p: &Packed, x: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(x.len(), batch * l.in_dim);
        let mut out = vec![0.0; batch * l.out_dim];
        let f = Fwd {
            lay: &l.layout,
            blocks: &l.layout.blocks,
            wp: &p.fwd,
            bias: &l.b,
            x,
            batch,
            col0: 0,
            width: l.out_dim,
        };
        forward_body::<Scalar8>(&f, &mut out);
        out
    }

    fn backward_scalar(
        l: &Linear,
        p: &Packed,
        x: &[f32],
        dy: &[f32],
        batch: usize,
        gw: &mut [f32],
    ) -> Vec<f32> {
        assert_eq!((x.len(), dy.len()), (batch * l.in_dim, batch * l.out_dim));
        let mut dx = vec![0.0; batch * l.in_dim];
        let b = Bwd { lay: &l.layout, wp: &p.bwd, x, dy, batch };
        backward_body::<Scalar8>(&b, gw, &mut dx);
        dx
    }

    #[test]
    fn simd_kernels_match_scalar_bitwise() {
        // the AVX2 dispatch must be invisible: same lanes, same per-lane
        // op order, same tail and tree reduction — every length (full
        // 8-blocks and ragged tails) must agree to the bit
        let vals = |seed: u32, n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    (((i as u32).wrapping_mul(2654435761) ^ seed) % 1000) as f32 * 0.00317 - 1.2
                })
                .collect()
        };
        for n in [1usize, 7, 8, 9, 16, 23, 40, 48, 51, 64] {
            let (w, x) = (vals(1, n), vals(100, n));
            assert_eq!(
                dot_lanes(&w, &x).to_bits(),
                dot_lanes_scalar(&w, &x).to_bits(),
                "dot_lanes drifted at n={n}"
            );
        }
    }

    /// A random masked layer: rows drawn from a small pool of patterns (so
    /// blocks hold several outputs, and some overflow eight), one of them
    /// all-zero, a random class per output, and input 0 seen by no output.
    fn random_layer(rng: &mut StdRng, in_dim: usize, out_dim: usize, group: usize) -> Linear {
        let mut pool: Vec<Vec<f32>> = (0..3)
            .map(|_| {
                (0..in_dim).map(|i| (i > 0 && rng.random::<f64>() < 0.5) as u8 as f32).collect()
            })
            .collect();
        pool.push(vec![0.0; in_dim]);
        let pick: Vec<usize> =
            (0..out_dim)
                .map(|o| {
                    if o % 7 == 3 {
                        rng.random_range(0..in_dim) % 4
                    } else {
                        rng.random_range(0..3)
                    }
                })
                .collect();
        let mut mask = Vec::new();
        for &k in &pick {
            if rng.random::<f64>() < 0.25 {
                mask.extend((0..in_dim).map(|i| (i > 0 && rng.random::<f64>() < 0.5) as u8 as f32));
            } else {
                mask.extend(&pool[k]);
            }
        }
        let class: Vec<usize> = (0..out_dim).map(|_| rng.random_range(0..3)).collect();
        let mut l = Linear::new_masked(
            in_dim,
            out_dim,
            mask,
            &class,
            group,
            &mut Initializer::new(rng.random()),
        );
        for b in &mut l.b {
            *b = rng.random_range(-1.0..1.0);
        }
        l
    }

    /// Naive reference forward: per output, the bias plus one full-row
    /// `dot_lanes` per group, masked zeros multiplied in.
    fn naive_forward(l: &Linear, x: &[f32], batch: usize) -> Vec<f32> {
        let (ni, group) = (l.in_dim, l.layout.group);
        let mut out = Vec::new();
        for b in 0..batch {
            for o in 0..l.out_dim {
                let mut acc = l.b[o];
                for g0 in (0..ni).step_by(group) {
                    let r = g0..g0 + group;
                    acc += dot_lanes_scalar(&l.w[o * ni..][r.clone()], &x[b * ni..][r]);
                }
                out.push(acc);
            }
        }
        out
    }

    #[test]
    fn blocked_kernels_match_the_naive_reference_bitwise() {
        // forward, grouped forward and backward against a plain reference
        // — per output the dot_lanes lane order, per gradient element an
        // ascending sum over every term, masked ones included — on random
        // masks, ragged widths, all-zero rows and columns, group widths
        // other than 8, and batches 1–9; and the portable bodies against
        // the dispatched (AVX2 on x86-64) ones
        let mut rng = StdRng::seed_from_u64(41);
        for (in_dim, out_dim, group) in [
            (13usize, 11usize, 13usize),
            (24, 20, 6),
            (40, 64, 8),
            (9, 17, 3),
            (16, 5, 16),
            (30, 37, 10),
        ] {
            let l = random_layer(&mut rng, in_dim, out_dim, group);
            let p = packed(&l);
            for batch in 1..=9 {
                // zeros and negatives among the inputs and gradients
                let mut draw = |n: usize| -> Vec<f32> {
                    (0..n)
                        .map(|_| {
                            if rng.random::<f64>() < 0.2 {
                                0.0
                            } else {
                                rng.random_range(-2.0..2.0)
                            }
                        })
                        .collect()
                };
                let (x, dy) = (draw(batch * in_dim), draw(batch * out_dim));
                let gw0 = draw(in_dim * out_dim);
                let gb0 = draw(out_dim);
                let case = format!("{in_dim}×{out_dim}, group {group}, batch {batch}");

                let want = naive_forward(&l, &x, batch);
                let mut got = Vec::new();
                l.forward_grouped(&p, &x, batch, &mut got);
                assert_eq!(bits(&got), bits(&want), "forward, {case}");
                assert_eq!(
                    bits(&forward_scalar(&l, &p, &x, batch)),
                    bits(&want),
                    "scalar forward, {case}"
                );
                for c in 0..3 {
                    let mut part = vec![f32::NAN; 2]; // stale contents must not survive
                    l.forward_classes(&p, &x, batch, c..c + 1, 0..out_dim, &mut part);
                    for (k, (&g, &w)) in part.iter().zip(&want).enumerate() {
                        let o = k % out_dim;
                        let expect = if l
                            .layout
                            .blocks
                            .iter()
                            .any(|b| b.class == c && b.outs.contains(&o))
                        {
                            w
                        } else {
                            0.0
                        };
                        assert_eq!(g.to_bits(), expect.to_bits(), "class {c} output {o}, {case}");
                    }
                }

                let mask = l.mask.as_ref().unwrap();
                let (mut gw, mut gb, mut dx) = (gw0.clone(), gb0.clone(), Vec::new());
                l.backward_into(&p, &x, &dy, batch, &mut gw, &mut gb, &mut dx);
                let mut gw_scalar = gw0.clone();
                let dx_scalar = backward_scalar(&l, &p, &x, &dy, batch, &mut gw_scalar);
                for i in 0..in_dim {
                    for b in 0..batch {
                        let mut want = 0.0f32;
                        for o in 0..out_dim {
                            want += dy[b * out_dim + o] * l.w[o * in_dim + i];
                        }
                        assert_eq!(
                            dx[b * in_dim + i].to_bits(),
                            want.to_bits(),
                            "dx[{b}][{i}], {case}"
                        );
                    }
                    for o in 0..out_dim {
                        let k = o * in_dim + i;
                        let mut want = gw0[k];
                        if mask[k] != 0.0 {
                            for b in 0..batch {
                                want += dy[b * out_dim + o] * x[b * in_dim + i];
                            }
                        }
                        assert_eq!(gw[k].to_bits(), want.to_bits(), "gw[{o}][{i}], {case}");
                    }
                }
                for o in 0..out_dim {
                    let want = (0..batch).fold(gb0[o], |g, b| g + dy[b * out_dim + o]);
                    assert_eq!(gb[o].to_bits(), want.to_bits(), "gb[{o}], {case}");
                }
                assert_eq!(bits(&dx_scalar), bits(&dx), "scalar dx, {case}");
                assert_eq!(bits(&gw_scalar), bits(&gw), "scalar gw, {case}");
            }
        }
    }

    #[test]
    fn token_table_builder_matches_group_dot_bitwise() {
        // the blocked table builder against the scalar group dot, for every
        // (group, row, output): widths 8, 12 and 16 (a full lane set, a
        // ragged tail, two passes per lane), rows with −0.0, zeros and
        // negatives, row counts that run the 4-row pass and the tail
        let mut rng = StdRng::seed_from_u64(47);
        for e in [8usize, 12, 16] {
            let nslots = 4;
            let l = random_layer(&mut rng, nslots * e, 37, e);
            let p = packed(&l);
            let rows: Vec<Vec<f32>> = (0..nslots)
                .map(|_| {
                    let n = rng.random_range(1..=9usize) * e;
                    (0..n)
                        .map(|_| match rng.random_range(0..5) {
                            0 => -0.0,
                            1 => 0.0,
                            _ => rng.random_range(-2.0..2.0),
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let mut tables = vec![vec![f32::NAN; 3]]; // stale contents must not survive
            l.group_tables(&p, &refs, &mut tables);
            assert_eq!(tables.len(), nslots);
            let mut scalar: Vec<Vec<f32>> = tables.iter().map(|t| vec![0.0; t.len()]).collect();
            tables_body::<Scalar8>(&l.layout, &p.fwd, &refs, &mut scalar);
            for (a, b) in scalar.iter().zip(&tables) {
                assert_eq!(bits(a), bits(b), "scalar body, e {e}");
            }
            for (g, (table, xs)) in tables.iter().zip(&rows).enumerate() {
                assert_eq!(table.len(), xs.len() / e * 37);
                for (t, x) in xs.chunks_exact(e).enumerate() {
                    for o in 0..37 {
                        assert_eq!(
                            table[t * 37 + o].to_bits(),
                            l.group_dot(o, g * e, x).to_bits(),
                            "e {e}, group {g}, row {t}, output {o}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_never_straddle_a_class() {
        // equal mask rows in different classes (the head's columns when the
        // hidden width is below the number of degrees) stay apart
        let class = [0usize, 1, 0, 1, 2, 2, 2];
        let l = Linear::new_masked(4, 7, vec![1.0; 28], &class, 4, &mut Initializer::new(5));
        for b in &l.layout.blocks {
            assert!(
                b.outs.iter().all(|&o| class[o] == b.class),
                "block {:?} of class {}",
                b.outs,
                b.class
            );
        }
        assert_eq!(l.layout.blocks.len(), 3);
        assert!(l.layout.matches(l.mask.as_deref()));
    }

    #[test]
    fn blocked_forward_is_batch_position_invariant() {
        // the same input row must produce bitwise-identical outputs whether
        // it lands in a 4-row pass or the single-row tail, and whether all
        // outputs or only a class's are computed
        let mut init = Initializer::new(9);
        // odd dims exercise lane tails
        let class: Vec<usize> = (0..19).map(|o| o / 6).collect();
        let l = Linear::new_masked(37, 19, vec![1.0; 37 * 19], &class, 37, &mut init);
        let p = packed(&l);
        let row: Vec<f32> = (0..37).map(|i| ((i * 31 + 7) % 13) as f32 * 0.173 - 0.8).collect();
        for batch in [1usize, 3, 4, 5, 8, 11] {
            let x: Vec<f32> = row.iter().copied().cycle().take(batch * 37).collect();
            let mut full = Vec::new();
            l.forward(&p, &x, batch, &mut full);
            for b in 0..batch {
                assert_eq!(&full[b * 19..(b + 1) * 19], &full[0..19], "batch {batch} row {b}");
            }
            let mut part = Vec::new();
            l.forward_classes(&p, &x, batch, 1..2, 6..12, &mut part);
            for b in 0..batch {
                assert_eq!(&part[b * 6..(b + 1) * 6], &full[b * 19 + 6..b * 19 + 12]);
            }
        }
    }

    #[test]
    fn grouped_forward_is_a_fixed_order_sum_of_group_dots() {
        // the grouped kernel must equal bias + per-group dot_lanes scalars
        // added in ascending group order, for every batch position (4-row
        // pass and single-row tail alike) — the contract the fused token
        // tables rely on
        // 4 groups of width 6
        let l = Linear::new_masked(24, 9, vec![1.0; 24 * 9], &[0; 9], 6, &mut Initializer::new(11));
        let p = packed(&l);
        let x: Vec<f32> = (0..7 * 24).map(|i| ((i * 17 + 3) % 29) as f32 * 0.11 - 1.2).collect();
        for batch in [1usize, 3, 4, 5, 7] {
            let mut got = Vec::new();
            l.forward_grouped(&p, &x[..batch * 24], batch, &mut got);
            for b in 0..batch {
                let xrow = &x[b * 24..(b + 1) * 24];
                for o in 0..9 {
                    let mut want = l.b[o];
                    for g in 0..4 {
                        want += l.group_dot(o, g * 6, &xrow[g * 6..(g + 1) * 6]);
                    }
                    assert_eq!(
                        want.to_bits(),
                        got[b * 9 + o].to_bits(),
                        "batch {batch} row {b} out {o}"
                    );
                }
            }
        }
        // one group spanning the whole row is the plain layer
        let plain = Linear::new(24, 9, &mut Initializer::new(11));
        let whole =
            Linear::new_masked(24, 9, vec![1.0; 24 * 9], &[0; 9], 24, &mut Initializer::new(11));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.forward(&packed(&plain), &x[..5 * 24], 5, &mut a);
        whole.forward_grouped(&packed(&whole), &x[..5 * 24], 5, &mut b);
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut init = Initializer::new(2);
        let mut l = Linear::new(4, 3, &mut init);
        let x: Vec<f32> = vec![0.3, -0.7, 1.2, 0.1, -0.4, 0.9, 0.0, 2.0];
        // loss = sum(y^2)/2 so dL/dy = y
        let mut out = Vec::new();
        let p = packed(&l);
        l.forward(&p, &x, 2, &mut out);
        let dy = out.clone();
        let mut dx = Vec::new();
        l.backward(&p, &x, &dy, 2, &mut dx);

        let h = 1e-3f32;
        let loss = |layer: &Linear, x: &[f32]| {
            let mut o = Vec::new();
            layer.forward(&packed(layer), x, 2, &mut o);
            o.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        // check a few weight grads
        for idx in [0, 5, 11] {
            let mut lp = l.clone();
            lp.w[idx] += h;
            let mut lm = l.clone();
            lm.w[idx] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((fd - l.gw[idx]).abs() < 1e-2, "w[{idx}]: fd {fd} vs {}", l.gw[idx]);
        }
        // check a bias grad
        let mut lp = l.clone();
        lp.b[1] += h;
        let mut lm = l.clone();
        lm.b[1] -= h;
        let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
        assert!((fd - l.gb[1]).abs() < 1e-2);
        // check dx by perturbing an input
        let mut xp = x.clone();
        xp[2] += h;
        let mut xm = x.clone();
        xm[2] -= h;
        let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
        assert!((fd - dx[2]).abs() < 1e-2, "dx[2]: fd {fd} vs {}", dx[2]);
    }

    #[test]
    fn masked_weights_start_and_stay_consistent() {
        let mut init = Initializer::new(3);
        // 2x2 with anti-diagonal masked out
        let mask = vec![1.0, 0.0, 0.0, 1.0];
        let mut l = Linear::new_masked(2, 2, mask, &[0, 0], 2, &mut init);
        assert_eq!(l.w[1], 0.0);
        assert_eq!(l.w[2], 0.0);
        let p = packed(&l);
        let mut out = Vec::new();
        l.forward(&p, &[1.0, 1.0], 1, &mut out);
        let mut dx = Vec::new();
        l.backward(&p, &[1.0, 1.0], &[1.0, 1.0], 1, &mut dx);
        // masked gradients are never written: exactly +0.0
        assert_eq!(l.gw[1].to_bits(), 0.0f32.to_bits());
        assert_eq!(l.gw[2].to_bits(), 0.0f32.to_bits());
        // masked connection contributes nothing to dx either
        assert!((dx[0] - l.w[0]).abs() < 1e-6);
    }

    #[test]
    fn relu_round_trip() {
        let mut active = Vec::new();
        let mut x = vec![-1.0, 2.0, 0.0, 3.0];
        Relu::forward_masked(&mut x, &mut active);
        assert_eq!(x, vec![0.0, 2.0, 0.0, 3.0]);
        let mut g = vec![1.0, 1.0, 1.0, 1.0];
        Relu::backward_masked(&mut g, &active);
        assert_eq!(g, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_paths_agree_on_nan_and_negative_zero() {
        // regression: the inference forward used `*v < 0.0`, which left NaN
        // in place while the mask-recording training forward zeroed it
        let src = vec![f32::NAN, -0.0, 0.0, -1.5, 2.5, f32::NEG_INFINITY, f32::INFINITY];
        let mut a = src.clone();
        let mut b = src.clone();
        Relu::forward_masked(&mut a, &mut Vec::new());
        Relu::forward(&mut b);
        assert_eq!(a, vec![0.0, 0.0, 0.0, 0.0, 2.5, 0.0, f32::INFINITY]);
        // bitwise agreement, including the sign bit of clamped -0.0
        assert_eq!(bits(&a), bits(&b));
    }
}
