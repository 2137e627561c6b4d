//! (Optionally masked) affine layers with manual backprop.
//!
//! The forward/backward kernels are register-blocked: dot products are
//! split over `LANES` independent partial accumulators (making the
//! float-summation order explicit so the compiler can vectorise without
//! reassociating), and the forward micro-kernel processes `ROW_BLOCK`
//! batch rows per weight-row load so `w` rows stay in registers/L1. The
//! per-`(batch, out)` result depends only on the weight row and the input
//! row — never on which batch block or output range it was computed in —
//! so full forwards, row-range forwards, and sharded training forwards
//! agree bitwise.

use crate::init::Initializer;

/// Independent partial sums per dot product (one SIMD lane each).
const LANES: usize = 8;

/// Batch rows processed per forward micro-kernel invocation.
const ROW_BLOCK: usize = 4;

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

/// Portable scalar body of [`dot_lanes`]; also the reference the SIMD
/// variant is tested against.
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

/// Four dot products against one weight row, lane-for-lane identical to
/// four [`dot_lanes`] calls — the row block only buys cache reuse.
#[inline(always)]
fn dot4_lanes(w: &[f32], x: [&[f32]; ROW_BLOCK]) -> [f32; ROW_BLOCK] {
    #[cfg(target_arch = "x86_64")]
    if simd::enabled() {
        // SAFETY: guarded by runtime AVX2 detection.
        return unsafe { simd::dot4_lanes_avx2(w, x) };
    }
    dot4_lanes_scalar(w, x)
}

/// Portable scalar body of [`dot4_lanes`].
#[inline(always)]
fn dot4_lanes_scalar(w: &[f32], x: [&[f32]; ROW_BLOCK]) -> [f32; ROW_BLOCK] {
    let mut acc = [[0.0f32; LANES]; ROW_BLOCK];
    let mut i = 0;
    while i + LANES <= w.len() {
        for r in 0..ROW_BLOCK {
            for l in 0..LANES {
                acc[r][l] += w[i + l] * x[r][i + l];
            }
        }
        i += LANES;
    }
    for (l, wi) in w[i..].iter().enumerate() {
        for r in 0..ROW_BLOCK {
            acc[r][l] += wi * x[r][i + l];
        }
    }
    let mut out = [0.0f32; ROW_BLOCK];
    for r in 0..ROW_BLOCK {
        out[r] = reduce_lanes(acc[r]);
    }
    out
}

/// Runtime-dispatched AVX2 variants of the lane kernels.
///
/// `LANES == 8` is exactly one `__m256`, and the scalar kernels already
/// keep eight *independent* partial sums with `acc[l] += w[i+l] * x[i+l]`
/// per step. The packed form performs the same per-lane IEEE single mul
/// and add in the same sequence — no reassociation, no FMA contraction
/// (`_mm256_mul_ps` + `_mm256_add_ps` round each op exactly like the
/// scalar code) — so results are bitwise identical to the scalar kernels,
/// which the `simd_kernels_match_scalar_bitwise` test pins. The tail and
/// the final tree reduction run through the identical scalar code.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{reduce_lanes, LANES, ROW_BLOCK};
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

    /// AVX2 [`super::dot4_lanes`]. Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4_lanes_avx2(w: &[f32], x: [&[f32]; ROW_BLOCK]) -> [f32; ROW_BLOCK] {
        let mut acc = [_mm256_setzero_ps(); ROW_BLOCK];
        let mut i = 0;
        while i + LANES <= w.len() {
            // SAFETY: `i + LANES <= len` bounds every 8-float load (the
            // four batch rows share the weight row's length).
            let wv = _mm256_loadu_ps(w.as_ptr().add(i));
            for r in 0..ROW_BLOCK {
                let xv = _mm256_loadu_ps(x[r].as_ptr().add(i));
                acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(wv, xv));
            }
            i += LANES;
        }
        let mut lanes = [[0.0f32; LANES]; ROW_BLOCK];
        for r in 0..ROW_BLOCK {
            _mm256_storeu_ps(lanes[r].as_mut_ptr(), acc[r]);
        }
        for (l, wi) in w[i..].iter().enumerate() {
            for r in 0..ROW_BLOCK {
                lanes[r][l] += wi * x[r][i + l];
            }
        }
        let mut out = [0.0f32; ROW_BLOCK];
        for r in 0..ROW_BLOCK {
            out[r] = reduce_lanes(lanes[r]);
        }
        out
    }
}

/// Blocked `out[b][o - col0] = bias[o] + w[o]·x[b]` for every output unit
/// `o` that `units` yields; `out` is `batch × width`, already sized by the
/// caller, and columns no unit maps to are left as they are. One kernel
/// serves the full forward (`0..out_dim`), a row range and the strided
/// runs of the degree-filtered inference forward: a unit's value depends
/// only on its weight row and the input row, never on which other units
/// run beside it.
#[allow(clippy::too_many_arguments)]
fn gemm_bias_rows(
    w: &[f32],
    bias: &[f32],
    in_dim: usize,
    units: impl Iterator<Item = usize> + Clone,
    col0: usize,
    width: usize,
    x: &[f32],
    batch: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), batch * in_dim);
    debug_assert_eq!(out.len(), batch * width);
    let mut b0 = 0;
    while b0 + ROW_BLOCK <= batch {
        let xs = [
            &x[b0 * in_dim..(b0 + 1) * in_dim],
            &x[(b0 + 1) * in_dim..(b0 + 2) * in_dim],
            &x[(b0 + 2) * in_dim..(b0 + 3) * in_dim],
            &x[(b0 + 3) * in_dim..(b0 + 4) * in_dim],
        ];
        units.clone().for_each(|o| {
            let d = dot4_lanes(&w[o * in_dim..(o + 1) * in_dim], xs);
            let bo = bias[o];
            for r in 0..ROW_BLOCK {
                out[(b0 + r) * width + o - col0] = bo + d[r];
            }
        });
        b0 += ROW_BLOCK;
    }
    for bi in b0..batch {
        let xrow = &x[bi * in_dim..(bi + 1) * in_dim];
        units.clone().for_each(|o| {
            out[bi * width + o - col0] =
                bias[o] + dot_lanes(&w[o * in_dim..(o + 1) * in_dim], xrow);
        });
    }
}

/// Group-blocked `out[b][o] = bias[o] + Σ_g w[o][g·group..]·x[b][g·group..]`
/// where the input row is a concatenation of `in_dim / group` contiguous
/// groups of width `group` (the per-slot embeddings of the MADE input
/// layer). Each group's dot product is lane-reduced to a scalar first
/// ([`dot_lanes`]), then the group scalars are added to the bias in
/// ascending group order. That makes every output a fixed-group-order sum
/// of per-`(group, input-group-content)` scalars — the summation order the
/// fused token-table inference path reproduces exactly, so cached
/// `W·embed` contributions are bitwise identical to this kernel.
fn gemm_bias_grouped(
    w: &[f32],
    bias: &[f32],
    in_dim: usize,
    group: usize,
    x: &[f32],
    batch: usize,
    out: &mut [f32],
) {
    debug_assert!(group > 0 && in_dim.is_multiple_of(group), "groups must tile the input row");
    let out_dim = bias.len();
    debug_assert_eq!(x.len(), batch * in_dim);
    debug_assert_eq!(out.len(), batch * out_dim);
    let ngroups = in_dim / group;
    let mut b0 = 0;
    while b0 + ROW_BLOCK <= batch {
        let xs = [
            &x[b0 * in_dim..(b0 + 1) * in_dim],
            &x[(b0 + 1) * in_dim..(b0 + 2) * in_dim],
            &x[(b0 + 2) * in_dim..(b0 + 3) * in_dim],
            &x[(b0 + 3) * in_dim..(b0 + 4) * in_dim],
        ];
        for o in 0..out_dim {
            let wrow = &w[o * in_dim..(o + 1) * in_dim];
            let mut acc = [bias[o]; ROW_BLOCK];
            for g in 0..ngroups {
                let gr = g * group..(g + 1) * group;
                let d = dot4_lanes(
                    &wrow[gr.clone()],
                    [&xs[0][gr.clone()], &xs[1][gr.clone()], &xs[2][gr.clone()], &xs[3][gr]],
                );
                for r in 0..ROW_BLOCK {
                    acc[r] += d[r];
                }
            }
            for r in 0..ROW_BLOCK {
                out[(b0 + r) * out_dim + o] = acc[r];
            }
        }
        b0 += ROW_BLOCK;
    }
    for bi in b0..batch {
        let xrow = &x[bi * in_dim..(bi + 1) * in_dim];
        for o in 0..out_dim {
            let wrow = &w[o * in_dim..(o + 1) * in_dim];
            let mut acc = bias[o];
            for g in 0..ngroups {
                let gr = g * group..(g + 1) * group;
                acc += dot_lanes(&wrow[gr.clone()], &xrow[gr]);
            }
            out[bi * out_dim + o] = acc;
        }
    }
}

/// Backward kernel: accumulates `gw`/`gb` and adds `dL/dx` into `dx`
/// (caller zeroes `dx`). Output-row outer loop keeps one `w`/`gw` row
/// cache-hot across the whole batch, and the two separate elementwise
/// loops vectorise without reordering any accumulation: per element the
/// summation order (ascending `b` for `gw`/`gb`, ascending `o` for `dx`)
/// matches the naive kernel exactly.
#[allow(clippy::too_many_arguments)]
fn backward_kernel(
    w: &[f32],
    in_dim: usize,
    out_dim: usize,
    x: &[f32],
    dy: &[f32],
    batch: usize,
    gw: &mut [f32],
    gb: &mut [f32],
    dx: &mut [f32],
) {
    debug_assert_eq!(x.len(), batch * in_dim);
    debug_assert_eq!(dy.len(), batch * out_dim);
    debug_assert_eq!(dx.len(), batch * in_dim);
    debug_assert_eq!(gw.len(), out_dim * in_dim);
    debug_assert_eq!(gb.len(), out_dim);
    for o in 0..out_dim {
        let wrow = &w[o * in_dim..(o + 1) * in_dim];
        let gwrow = &mut gw[o * in_dim..(o + 1) * in_dim];
        for bi in 0..batch {
            let g = dy[bi * out_dim + o];
            if g == 0.0 {
                // ReLU/CE gradients are sparse; skipping zeros is exact
                continue;
            }
            gb[o] += g;
            let xrow = &x[bi * in_dim..(bi + 1) * in_dim];
            for (gw_i, xi) in gwrow.iter_mut().zip(xrow) {
                *gw_i += g * xi;
            }
            let dxrow = &mut dx[bi * in_dim..(bi + 1) * in_dim];
            for (dx_i, wi) in dxrow.iter_mut().zip(wrow) {
                *dx_i += g * wi;
            }
        }
    }
}

/// A dense affine layer `y = x Wᵀ + b`, optionally constrained by a binary
/// connectivity mask (MADE-style). Holds parameters and their gradient
/// accumulators only: activations belong to the caller, so every forward
/// is `&self` and backward takes the layer input it needs.
///
/// Masking is enforced by construction and by masking *gradients*: masked
/// weights start at zero and Adam updates of an always-zero gradient keep
/// them exactly zero, so the hot forward path is a plain GEMM.
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
}

impl Linear {
    /// New unmasked layer with Kaiming init.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Self {
        Linear {
            in_dim,
            out_dim,
            w: init.kaiming(in_dim * out_dim, in_dim),
            b: vec![0.0; out_dim],
            mask: None,
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// New masked layer; `mask` is row-major `out_dim × in_dim` of 0/1.
    pub fn new_masked(
        in_dim: usize,
        out_dim: usize,
        mask: Vec<f32>,
        init: &mut Initializer,
    ) -> Self {
        assert_eq!(mask.len(), in_dim * out_dim);
        let mut layer = Self::new(in_dim, out_dim, init);
        for (w, m) in layer.w.iter_mut().zip(&mask) {
            *w *= m;
        }
        layer.mask = Some(mask);
        layer
    }

    /// Forward for a `batch × in_dim` input; writes `batch × out_dim` into
    /// `out` (resized as needed).
    pub fn forward(&self, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        let width = self.out_dim;
        out.resize(batch * width, 0.0);
        gemm_bias_rows(&self.w, &self.b, self.in_dim, 0..width, 0, width, x, batch, out);
    }

    /// Grouped forward (see `gemm_bias_grouped`): the input row is
    /// treated as `in_dim / group` contiguous groups and every output is a
    /// fixed-group-order sum of per-group scalar dots plus the bias. Used
    /// for the MADE input layer (one group per slot embedding) so the
    /// fused token-table path can replay it bitwise.
    pub fn forward_grouped(&self, x: &[f32], batch: usize, group: usize, out: &mut Vec<f32>) {
        out.resize(batch * self.out_dim, 0.0);
        gemm_bias_grouped(&self.w, &self.b, self.in_dim, group, x, batch, out);
    }

    /// One group's scalar contribution to output unit `o`: the lane-reduced
    /// dot of weight row `o`'s `[offset, offset + x.len())` block against
    /// `x`. This is exactly the scalar `gemm_bias_grouped` adds for that
    /// group, so values cached from here (the fused token tables) replay
    /// the grouped kernel bit for bit.
    pub fn group_dot(&self, o: usize, offset: usize, x: &[f32]) -> f32 {
        let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
        dot_lanes(&row[offset..offset + x.len()], x)
    }

    /// Forward computing only the output units whose index satisfies
    /// `o % stride < keep`, writing `0.0` for every other unit (full
    /// `batch × out_dim` output). Computed units get exactly the
    /// [`Self::forward`] value, so this is safe for inference paths where
    /// the skipped units' *outgoing* weights are exactly zero (MADE's
    /// degree masks: a later-degree unit never feeds an earlier-degree
    /// one). `keep == stride` degenerates to the full forward.
    pub fn forward_strided_runs(
        &self,
        x: &[f32],
        batch: usize,
        stride: usize,
        keep: usize,
        out: &mut Vec<f32>,
    ) {
        debug_assert!(stride > 0 && keep <= stride);
        let width = self.out_dim;
        out.clear();
        out.resize(batch * width, 0.0);
        let units = (0..width).step_by(stride).flat_map(|run| run..(run + keep).min(width));
        gemm_bias_rows(&self.w, &self.b, self.in_dim, units, 0, width, x, batch, out);
    }

    /// Forward computing only output rows `rows` (inference): writes
    /// `batch × rows.len()` into `out`.
    pub fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        rows: std::ops::Range<usize>,
        out: &mut Vec<f32>,
    ) {
        debug_assert!(rows.end <= self.out_dim);
        let (col0, width) = (rows.start, rows.len());
        out.resize(batch * width, 0.0);
        gemm_bias_rows(&self.w, &self.b, self.in_dim, rows, col0, width, x, batch, out);
    }

    /// Backward into caller-provided gradient buffers: given the layer
    /// input `x` and `dL/dy` (`batch × out_dim`), accumulate into `gw`/`gb`
    /// and write `dL/dx` into `dx`. Data-parallel training gives every
    /// shard its own `gw`/`gb` and reduces them afterwards, so the
    /// connectivity mask is NOT applied here — apply it once after the
    /// reduction (see `MadeNet::train_batch_sharded`).
    pub fn backward_into(
        &self,
        x: &[f32],
        dy: &[f32],
        batch: usize,
        gw: &mut [f32],
        gb: &mut [f32],
        dx: &mut Vec<f32>,
    ) {
        dx.clear();
        dx.resize(batch * self.in_dim, 0.0);
        backward_kernel(&self.w, self.in_dim, self.out_dim, x, dy, batch, gw, gb, dx);
    }

    /// [`Self::backward_into`] the layer's own accumulators, connectivity
    /// mask applied — the whole backward of a model that trains unsharded
    /// ([`crate::Mlp`]).
    pub fn backward(&mut self, x: &[f32], dy: &[f32], batch: usize, dx: &mut Vec<f32>) {
        let (mut gw, mut gb) = (std::mem::take(&mut self.gw), std::mem::take(&mut self.gb));
        self.backward_into(x, dy, batch, &mut gw, &mut gb, dx);
        if let Some(mask) = &self.mask {
            for (g, m) in gw.iter_mut().zip(mask) {
                *g *= m;
            }
        }
        (self.gw, self.gb) = (gw, gb);
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

/// ReLU. The activation pattern backward needs is recorded into a
/// caller-held mask, never in the layer.
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
        active.reserve(x.len());
        for v in x.iter_mut() {
            let on = Self::is_active(*v);
            active.push(on);
            if !on {
                *v = 0.0;
            }
        }
    }

    /// In-place forward (inference).
    pub fn forward(x: &mut [f32]) {
        for v in x.iter_mut() {
            if !Self::is_active(*v) {
                *v = 0.0;
            }
        }
    }

    /// In-place backward: zero the gradients of units `active` recorded
    /// as inactive.
    pub fn backward_masked(dy: &mut [f32], active: &[bool]) {
        debug_assert_eq!(dy.len(), active.len());
        for (g, &on) in dy.iter_mut().zip(active) {
            if !on {
                *g = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_matmul() {
        let mut init = Initializer::new(1);
        let mut l = Linear::new(3, 2, &mut init);
        l.w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // row0=[1,2,3], row1=[4,5,6]
        l.b = vec![0.5, -0.5];
        let mut out = Vec::new();
        l.forward(&[1.0, 0.0, -1.0, 2.0, 2.0, 2.0], 2, &mut out);
        assert_eq!(out, vec![1.0 - 3.0 + 0.5, 4.0 - 6.0 - 0.5, 12.0 + 0.5, 30.0 - 0.5]);
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
            let w = vals(1, n);
            let xs: Vec<Vec<f32>> = (0..4).map(|r| vals(100 + r, n)).collect();
            let x4 = [&xs[0][..], &xs[1][..], &xs[2][..], &xs[3][..]];
            assert_eq!(
                dot_lanes(&w, &xs[0]).to_bits(),
                dot_lanes_scalar(&w, &xs[0]).to_bits(),
                "dot_lanes drifted at n={n}"
            );
            let a = dot4_lanes(&w, x4);
            let b = dot4_lanes_scalar(&w, x4);
            for r in 0..4 {
                assert_eq!(a[r].to_bits(), b[r].to_bits(), "dot4_lanes row {r} drifted at n={n}");
            }
        }
    }

    #[test]
    fn strided_runs_forward_matches_full_on_kept_units() {
        // kept units (o % stride < keep) must carry the exact full-forward
        // bits; skipped units must read exactly 0.0
        let mut init = Initializer::new(21);
        let l = Linear::new(40, 48, &mut init);
        let x: Vec<f32> = (0..5 * 40).map(|i| ((i * 37 + 11) % 17) as f32 * 0.21 - 1.7).collect();
        let mut full = Vec::new();
        l.forward(&x, 5, &mut full);
        for (stride, keep) in [(4usize, 0usize), (4, 1), (4, 3), (4, 4), (6, 2), (5, 5)] {
            let mut part = vec![f32::NAN; 3]; // stale garbage must be overwritten
            l.forward_strided_runs(&x, 5, stride, keep, &mut part);
            for b in 0..5 {
                for o in 0..48 {
                    let got = part[b * 48 + o];
                    if o % stride < keep {
                        assert_eq!(
                            got.to_bits(),
                            full[b * 48 + o].to_bits(),
                            "kept unit {o} drifted (stride {stride}, keep {keep})"
                        );
                    } else {
                        assert_eq!(got.to_bits(), 0.0f32.to_bits(), "skipped unit {o} not zeroed");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_forward_is_batch_position_invariant() {
        // the same input row must produce bitwise-identical outputs whether
        // it lands in a 4-row micro-kernel block or the scalar tail, and
        // whether the full output or only a row range is computed
        let mut init = Initializer::new(9);
        let l = Linear::new(37, 19, &mut init); // odd dims exercise lane tails
        let row: Vec<f32> = (0..37).map(|i| ((i * 31 + 7) % 13) as f32 * 0.173 - 0.8).collect();
        for batch in [1usize, 3, 4, 5, 8, 11] {
            let x: Vec<f32> = row.iter().copied().cycle().take(batch * 37).collect();
            let mut full = Vec::new();
            l.forward(&x, batch, &mut full);
            for b in 0..batch {
                assert_eq!(&full[b * 19..(b + 1) * 19], &full[0..19], "batch {batch} row {b}");
            }
            let mut part = Vec::new();
            l.forward_rows(&x, batch, 6..13, &mut part);
            for b in 0..batch {
                assert_eq!(&part[b * 7..(b + 1) * 7], &full[b * 19 + 6..b * 19 + 13]);
            }
        }
    }

    #[test]
    fn grouped_forward_is_a_fixed_order_sum_of_group_dots() {
        // the grouped kernel must equal bias + per-group dot_lanes scalars
        // added in ascending group order, for every batch position (micro-
        // kernel block and scalar tail alike) — the contract the fused
        // token tables rely on
        let mut init = Initializer::new(11);
        let l = Linear::new(4 * 6, 9, &mut init); // 4 groups of width 6
        let x: Vec<f32> = (0..7 * 24).map(|i| ((i * 17 + 3) % 29) as f32 * 0.11 - 1.2).collect();
        for batch in [1usize, 3, 4, 5, 7] {
            let mut got = Vec::new();
            l.forward_grouped(&x[..batch * 24], batch, 6, &mut got);
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
        // one group spanning the whole row degenerates to the plain kernel
        let mut flat = Vec::new();
        let mut whole = Vec::new();
        l.forward(&x[..5 * 24], 5, &mut flat);
        l.forward_grouped(&x[..5 * 24], 5, 24, &mut whole);
        assert_eq!(flat, whole);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut init = Initializer::new(2);
        let mut l = Linear::new(4, 3, &mut init);
        let x: Vec<f32> = vec![0.3, -0.7, 1.2, 0.1, -0.4, 0.9, 0.0, 2.0];
        // loss = sum(y^2)/2 so dL/dy = y
        let mut out = Vec::new();
        l.forward(&x, 2, &mut out);
        let dy = out.clone();
        let mut dx = Vec::new();
        l.backward(&x, &dy, 2, &mut dx);

        let h = 1e-3f32;
        let loss = |layer: &Linear| {
            let mut o = Vec::new();
            layer.forward(&x, 2, &mut o);
            o.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        // check a few weight grads
        for idx in [0, 5, 11] {
            let mut lp = l.clone();
            lp.w[idx] += h;
            let mut lm = l.clone();
            lm.w[idx] -= h;
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!((fd - l.gw[idx]).abs() < 1e-2, "w[{idx}]: fd {fd} vs {}", l.gw[idx]);
        }
        // check a bias grad
        let mut lp = l.clone();
        lp.b[1] += h;
        let mut lm = l.clone();
        lm.b[1] -= h;
        let fd = (loss(&lp) - loss(&lm)) / (2.0 * h);
        assert!((fd - l.gb[1]).abs() < 1e-2);
        // check dx by perturbing an input
        let mut xp = x.clone();
        xp[2] += h;
        let mut xm = x.clone();
        xm[2] -= h;
        let mut o = Vec::new();
        l.forward(&xp, 2, &mut o);
        let up: f32 = o.iter().map(|v| v * v).sum::<f32>() / 2.0;
        l.forward(&xm, 2, &mut o);
        let dn: f32 = o.iter().map(|v| v * v).sum::<f32>() / 2.0;
        let fd = (up - dn) / (2.0 * h);
        assert!((fd - dx[2]).abs() < 1e-2, "dx[2]: fd {fd} vs {}", dx[2]);
    }

    #[test]
    fn masked_weights_start_and_stay_consistent() {
        let mut init = Initializer::new(3);
        // 2x2 with anti-diagonal masked out
        let mask = vec![1.0, 0.0, 0.0, 1.0];
        let mut l = Linear::new_masked(2, 2, mask, &mut init);
        assert_eq!(l.w[1], 0.0);
        assert_eq!(l.w[2], 0.0);
        let mut out = Vec::new();
        l.forward(&[1.0, 1.0], 1, &mut out);
        let mut dx = Vec::new();
        l.backward(&[1.0, 1.0], &[1.0, 1.0], 1, &mut dx);
        assert_eq!(l.gw[1], 0.0);
        assert_eq!(l.gw[2], 0.0);
        // masked connection contributes nothing to dx either... note dx uses
        // w (already zero at masked positions), so it is consistent.
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
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }
}
