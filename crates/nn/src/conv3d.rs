//! 3D convolution with same-padding and full backpropagation, lowered to
//! an implicit-im2col GEMM over a zero-padded input copy.
//!
//! # Kernel layout and bit-identity
//!
//! The weight tensor is stored flat as `[out_c][in_c·k³]` — each output
//! channel's row is the patch vector in `(ic, a, b, c)` lexicographic
//! order. Instead of materializing the `[K][N]` im2col patch matrix
//! (`K = in_c·k³`, `N` = output voxels), the kernels index a zero-padded
//! copy of the input through a per-tap offset table: tap `kx` of output
//! voxel `(x, y, z)` lives at `off[kx] + x·pd2·pd3 + y·pd3 + z` in the
//! padded volume, and because the `z`/V axis is contiguous, every tap of a
//! fixed output row is a contiguous slice. Forward is then
//! `out = W · B + bias` with `B` never written down, computed by a
//! register-blocked micro-kernel (`MR` output channels × `NR` z lanes,
//! K ascending).
//!
//! Activations are channel-major `[C, B, d1, d2, d3]` batches — a rank-4
//! input is a batch of one, byte for byte — so the one forward and the
//! one backward below serve inference, shared selectors and training at
//! every batch size. The batch axis folds into the GEMM `N` axis where
//! tiles can span samples (flat `1×1×1` GEMMs, shallow-grid panels).
//!
//! Every kernel in this module preserves the *per-output-element*
//! accumulation order of the naive seven-loop implementation (kept below as
//! the `cfg`-gated reference oracle, `Conv3d::set_naive`):
//!
//! * forward: bias first, then taps in `(ic, a, b, c)` ascending order;
//! * weight grad: for each element, one *fresh* z-ascending dot per output
//!   row, added in row-ascending order;
//! * bias grad: fresh z-ascending row sums, rows ascending;
//! * input grad: contributions in `(oc asc, x₁ asc, y asc, z desc)` order,
//!   realized as a gather with loop order `oc asc, a desc, b desc, c asc`
//!   over a zero-padded output-gradient buffer.
//!
//! Out-of-range taps either vanish with the whole `(a, b)` plane (skipped,
//! exactly as the naive loops skip them) or appear as explicit `±0.0`
//! terms read from the padded buffers; since IEEE-754 addition of `-0.0`
//! never changes a value and the accumulators provably never hold `-0.0`,
//! both treatments are bit-identical to the naive loops. Blocking only
//! ever groups *independent* output elements (output-channel lanes, z
//! lanes, input-channel lanes), never the terms of one element's sum, so
//! logits, gradients, and therefore whole training trajectories are
//! unchanged by this lowering.

use crate::init::Initializer;
use crate::kernels::{self, ICT, MR, NR, WL};
use crate::layer::{Layer, Param};
use crate::tensor::{batch_dims, Shape, Tensor};
use crate::workspace::{NnWorkspace, ProfKind};
use oarsmt_telemetry::Counter;
/// Target im2col panel width in columns for the small-`d3` forward path
/// (panels are whole output rows, so the actual width is the nearest
/// multiple of `d3`). Keeps the patch panel cache-resident.
const PANEL_COLS: usize = 4096;

/// A 3D convolution layer: weight `[out_c, in_c, k, k, k]`, bias `[out_c]`,
/// stride 1, zero same-padding `k / 2` (so spatial dimensions are
/// preserved — the property that keeps the U-Net image-in-image-out for
/// arbitrary sizes).
///
/// The paper's network uses `3×3×3` kernels throughout plus `1×1×1` output
/// heads; both are supported (any odd `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv3d {
    in_c: usize,
    out_c: usize,
    k: usize,
    weight: Param,
    bias: Param,
    /// Route through the naive reference loops instead of the GEMM kernels
    /// (bit-identity oracle for tests and the bench's integrity check).
    #[cfg(any(test, feature = "naive-ref"))]
    use_naive: bool,
}

impl Conv3d {
    /// Creates a convolution with He-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same-padding needs odd kernels) or a channel
    /// count is zero.
    pub fn new(in_c: usize, out_c: usize, k: usize, init: &mut Initializer) -> Self {
        assert!(k % 2 == 1, "same-padding conv needs an odd kernel, got {k}");
        assert!(in_c > 0 && out_c > 0);
        let fan_in = in_c * k * k * k;
        let weight = Param::new(init.he_uniform(&[out_c, in_c, k, k, k], fan_in));
        let bias = Param::new(Tensor::zeros(&[out_c]));
        Conv3d {
            in_c,
            out_c,
            k,
            weight,
            bias,
            #[cfg(any(test, feature = "naive-ref"))]
            use_naive: false,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Selects the naive reference implementation (the pre-GEMM seven-loop
    /// code) for this layer. Test/bench oracle only.
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_naive(&mut self, on: bool) {
        self.use_naive = on;
    }

    /// Oracle forward: the per-sample seven-loop kernel, each sample
    /// gathered out of and scattered back into the batched layout.
    #[cfg(any(test, feature = "naive-ref"))]
    fn forward_naive_batch(&self, x: &Tensor, out: &mut Tensor, ws: &mut NnWorkspace) {
        let [_, bsz, d1, d2, d3] = batch_dims(x.shape());
        let spatial = d1 * d2 * d3;
        let mut xb = ws.alloc(&[self.in_c, d1, d2, d3]);
        for b in 0..bsz {
            gather_sample(x.data(), bsz, b, spatial, xb.data_mut());
            let yb = self.forward_naive(&xb);
            scatter_sample(yb.data(), bsz, b, spatial, out.data_mut());
        }
        ws.free(xb);
    }

    /// Oracle backward: per-sample naive backward over per-sample copies,
    /// samples ascending — the exact sequential `+=` order on every
    /// weight/bias-gradient element.
    #[cfg(any(test, feature = "naive-ref"))]
    fn backward_naive_batch(
        &mut self,
        xc: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        ws: &mut NnWorkspace,
    ) {
        let [_, bsz, d1, d2, d3] = batch_dims(grad_out.shape());
        let spatial = d1 * d2 * d3;
        let s = xc.shape();
        let mut xb = ws.alloc(&s[1..]);
        let mut gb = ws.alloc(&[self.out_c, d1, d2, d3]);
        let vol = xb.len();
        for b in 0..bsz {
            xb.data_mut().copy_from_slice(&xc.data()[b * vol..][..vol]);
            gather_sample(grad_out.data(), bsz, b, spatial, gb.data_mut());
            let gi = self.backward_naive(&xb, &gb);
            scatter_sample(gi.data(), bsz, b, spatial, grad_in.data_mut());
        }
        ws.free(xb);
        ws.free(gb);
    }

    /// The original seven-loop forward, kept verbatim as the bit-identity
    /// oracle for the GEMM kernels.
    #[cfg(any(test, feature = "naive-ref"))]
    fn forward_naive(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        let (d1, d2, d3) = (shape[1], shape[2], shape[3]);
        let k = self.k;
        let p = k / 2;
        let mut out = Tensor::zeros(&[self.out_c, d1, d2, d3]);
        let bias = self.bias.value.data().to_vec();
        let w = self.weight.value.data();
        let xin = x.data();
        let out_data = out.data_mut();
        // The z axis is contiguous: accumulate per (oc, x, y) output row
        // with shifted-slice AXPYs.
        #[allow(clippy::needless_range_loop)] // `oc` drives offset math, not just `bias[oc]`
        for oc in 0..self.out_c {
            for x1 in 0..d1 {
                for y in 0..d2 {
                    let o_base = ((oc * d1 + x1) * d2 + y) * d3;
                    let out_row = &mut out_data[o_base..o_base + d3];
                    out_row.fill(bias[oc]);
                    for ic in 0..self.in_c {
                        for a in 0..k {
                            let sx = x1 + a;
                            if sx < p || sx - p >= d1 {
                                continue;
                            }
                            let ix = sx - p;
                            for b in 0..k {
                                let sy = y + b;
                                if sy < p || sy - p >= d2 {
                                    continue;
                                }
                                let iy = sy - p;
                                let i_base = ((ic * d1 + ix) * d2 + iy) * d3;
                                let w_base = (((oc * self.in_c + ic) * k + a) * k + b) * k;
                                for c in 0..k {
                                    let (z0, z1, i0) = tap_range(d3, c, p);
                                    if z0 >= z1 {
                                        continue;
                                    }
                                    let wv = w[w_base + c];
                                    let src = &xin[i_base + i0..i_base + i0 + (z1 - z0)];
                                    let dst = &mut out_row[z0..z1];
                                    for (d, s) in dst.iter_mut().zip(src) {
                                        *d += wv * s;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The original backward loops, preserved term-for-term as the
    /// bit-identity oracle for the GEMM kernels. `xc` is the cached
    /// forward input — padded when `k > 1`, so the interior reads shift
    /// by `p` on each axis (the values and their order are unchanged).
    #[cfg(any(test, feature = "naive-ref"))]
    fn backward_naive(&mut self, xc: &Tensor, grad_out: &Tensor) -> Tensor {
        let k = self.k;
        let p = k / 2;
        let (d1, d2, d3) = {
            let s = xc.shape();
            (s[1] - 2 * p, s[2] - 2 * p, s[3] - 2 * p)
        };
        let (pd1, pd2, pd3) = (d1 + 2 * p, d2 + 2 * p, d3 + 2 * p);
        let mut grad_in = Tensor::zeros(&[self.in_c, d1, d2, d3]);
        let g = grad_out.data();
        let xin = xc.data();
        let w = self.weight.value.data();
        let gw = self.weight.grad.data_mut();
        let gb = self.bias.grad.data_mut();
        let gi = grad_in.data_mut();

        #[allow(clippy::needless_range_loop)] // `oc` drives offset math, not just `gb[oc]`
        for oc in 0..self.out_c {
            for x1 in 0..d1 {
                for y in 0..d2 {
                    let o_base = ((oc * d1 + x1) * d2 + y) * d3;
                    let g_row = &g[o_base..o_base + d3];
                    gb[oc] += g_row.iter().sum::<f32>();
                    for ic in 0..self.in_c {
                        for a in 0..k {
                            let sx = x1 + a;
                            if sx < p || sx - p >= d1 {
                                continue;
                            }
                            let ix = sx - p;
                            for b in 0..k {
                                let sy = y + b;
                                if sy < p || sy - p >= d2 {
                                    continue;
                                }
                                let iy = sy - p;
                                let i_base = ((ic * d1 + ix) * d2 + iy) * d3;
                                let x_base = ((ic * pd1 + ix + p) * pd2 + iy + p) * pd3 + p;
                                let w_base = (((oc * self.in_c + ic) * k + a) * k + b) * k;
                                for c in 0..k {
                                    let (z0, z1, i0) = tap_range(d3, c, p);
                                    if z0 >= z1 {
                                        continue;
                                    }
                                    let len = z1 - z0;
                                    let g_slice = &g_row[z0..z1];
                                    let x_slice = &xin[x_base + i0..x_base + i0 + len];
                                    // dL/dw: dot(g_row, x_row shifted).
                                    let mut dot = 0.0f32;
                                    for (gv, xv) in g_slice.iter().zip(x_slice) {
                                        dot += gv * xv;
                                    }
                                    gw[w_base + c] += dot;
                                    // dL/dx: shifted AXPY of g_row by w.
                                    let wv = w[w_base + c];
                                    let gi_slice = &mut gi[i_base + i0..i_base + i0 + len];
                                    for (d, gv) in gi_slice.iter_mut().zip(g_slice) {
                                        *d += wv * gv;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// The overlap of a length-`d` axis with a kernel tap at offset `c`
/// (padding `p`): output indices `z` for which `z + c - p` is a valid input
/// index. Returns `(z_start, z_end, input_start)`.
#[inline]
#[cfg(any(test, feature = "naive-ref"))]
fn tap_range(d: usize, c: usize, p: usize) -> (usize, usize, usize) {
    let z0 = p.saturating_sub(c);
    let z1 = (d + p).saturating_sub(c).min(d);
    let i0 = z0 + c - p;
    (z0, z1.max(z0), i0)
}

/// Builds the sample-major zero-padded cache `[B, in_c, d1+2p, d2+2p,
/// d3+2p]` from a channel-major input `[in_c, B, d1, d2, d3]` (or a rank-4
/// batch of one). Sample `b`'s subtensor is one contiguous padded volume,
/// which is what the per-sample kernels consume (`p == 0` degenerates to a
/// plain re-layout).
fn pad_batch(x: &Tensor, p: usize, ws: &mut NnWorkspace) -> Tensor {
    let [in_c, bsz, d1, d2, d3] = batch_dims(x.shape());
    let (pd1, pd2, pd3) = (d1 + 2 * p, d2 + 2 * p, d3 + 2 * p);
    let spatial = d1 * d2 * d3;
    let pvol = pd1 * pd2 * pd3;
    let mut xp = ws.alloc(&[bsz, in_c, pd1, pd2, pd3]);
    let xd = x.data();
    let xpd = xp.data_mut();
    for b in 0..bsz {
        for ic in 0..in_c {
            let sbase = (ic * bsz + b) * spatial;
            let dbase = (b * in_c + ic) * pvol;
            for x1 in 0..d1 {
                for y in 0..d2 {
                    let src = sbase + (x1 * d2 + y) * d3;
                    let dst = dbase + ((x1 + p) * pd2 + y + p) * pd3 + p;
                    xpd[dst..dst + d3].copy_from_slice(&xd[src..src + d3]);
                }
            }
        }
    }
    xp
}

/// Fills `off` with the padded-volume offset of each kernel tap in
/// `(ic, a, b, c)` lexicographic order — the K axis of the implicit patch
/// matrix. Tap `kx` of output voxel `(x, y, z)` then lives at
/// `off[kx] + x·pd2·pd3 + y·pd3 + z` of the padded input.
fn tap_offsets(in_c: usize, k: usize, pd1: usize, pd2: usize, pd3: usize, off: &mut Vec<usize>) {
    off.clear();
    for ic in 0..in_c {
        for a in 0..k {
            for b in 0..k {
                for c in 0..k {
                    off.push(((ic * pd1 + a) * pd2 + b) * pd3 + c);
                }
            }
        }
    }
}

/// Fills the im2col panel for output rows `[r0, r1)` from the *padded*
/// input: `bbuf[kx · cols + col0 + j]` holds tap `kx` of output voxel `j`
/// (columns are `col0 + (row − r0) · d3 + z`). Because `xp` is zero-padded
/// the extraction is pure row copies through the tap-offset table. `col0`
/// lets one panel be assembled from several samples' padded volumes.
///
/// Taps come in `(ic, a, b)` groups of `k` consecutive z offsets
/// (`off[g + c] == off[g] + c`), so one padded row segment of
/// `d3 + k − 1` floats serves all `k` tap rows of a group: read it once
/// and write the `k` shifted copies together, instead of re-reading the
/// row per tap. The copies are explicit element loops — this path only
/// runs for `d3 <` [`NR`], where segments are short enough that a
/// `memcpy` call would cost more than the moves.
#[allow(clippy::too_many_arguments)]
fn im2col_from_padded(
    xp: &[f32],
    off: &[usize],
    k: usize,
    d2: usize,
    d3: usize,
    pd2: usize,
    pd3: usize,
    r0: usize,
    r1: usize,
    bbuf: &mut [f32],
    cols: usize,
    col0: usize,
) {
    debug_assert_eq!(off.len() % k, 0);
    let mut g = 0;
    while g < off.len() {
        let base = off[g];
        debug_assert_eq!(off[g + k - 1], base + k - 1);
        // Const-specialize the pooled U-Net geometries (`k = 3`,
        // `d3 ∈ {2, 3}`) so the per-row copies fully unroll; the third
        // const is `d3 + k − 1` spelled out (const generics cannot be
        // computed at the call site).
        match (k, d3) {
            (3, 2) => im2col_group::<3, 2, 4>(xp, base, d2, pd2, pd3, r0, r1, bbuf, cols, col0, g),
            (3, 3) => im2col_group::<3, 3, 5>(xp, base, d2, pd2, pd3, r0, r1, bbuf, cols, col0, g),
            _ => im2col_group_any(xp, base, k, d2, d3, pd2, pd3, r0, r1, bbuf, cols, col0, g),
        }
        g += k;
    }
}

/// One `(ic, a, b)` tap group of the im2col fill, `K` and `D3` known at
/// compile time (`SEG = D3 + K − 1` is the padded row-segment length).
/// Row coordinates advance incrementally — no division in the row loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn im2col_group<const K: usize, const D3: usize, const SEG: usize>(
    xp: &[f32],
    base: usize,
    d2: usize,
    pd2: usize,
    pd3: usize,
    r0: usize,
    r1: usize,
    bbuf: &mut [f32],
    cols: usize,
    col0: usize,
    g: usize,
) {
    debug_assert_eq!(SEG, D3 + K - 1);
    let (mut x, mut y) = (r0 / d2, r0 % d2);
    let mut dst = col0;
    for _ in r0..r1 {
        let src = base + (x * pd2 + y) * pd3;
        // lint: panic-ok(the slice is exactly SEG long by construction, so the array conversion cannot fail; the expect only converts the type)
        let seg: &[f32; SEG] = xp[src..src + SEG].try_into().expect("segment length");
        for c in 0..K {
            let o0 = (g + c) * cols + dst;
            bbuf[o0..o0 + D3].copy_from_slice(&seg[c..c + D3]);
        }
        dst += D3;
        y += 1;
        if y == d2 {
            y = 0;
            x += 1;
        }
    }
}

/// Runtime-size fallback of [`im2col_group`] for geometries outside the
/// specialized set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn im2col_group_any(
    xp: &[f32],
    base: usize,
    k: usize,
    d2: usize,
    d3: usize,
    pd2: usize,
    pd3: usize,
    r0: usize,
    r1: usize,
    bbuf: &mut [f32],
    cols: usize,
    col0: usize,
    g: usize,
) {
    let (mut x, mut y) = (r0 / d2, r0 % d2);
    let mut dst = col0;
    for _ in r0..r1 {
        let src = base + (x * pd2 + y) * pd3;
        let seg = &xp[src..src + d3 + k - 1];
        for c in 0..k {
            let o0 = (g + c) * cols + dst;
            let krow = &mut bbuf[o0..o0 + d3];
            for (o, &v) in krow.iter_mut().zip(&seg[c..c + d3]) {
                *o = v;
            }
        }
        dst += d3;
        y += 1;
        if y == d2 {
            y = 0;
            x += 1;
        }
    }
}

/// `out[i][col0 + j] = bias[i] + Σ_k a[i][k] · b[k][j]` for `i < m`,
/// `j < n`, with the K loop strictly ascending per output element.
/// Dispatched whole through [`kernels::gemm_bias`]: the scalar lane walks
/// [`MR`]×[`NR`] register tiles (the bit-identity layout), the AVX2 lane
/// walks wider column-major panels with the same per-element accumulation
/// order.
#[allow(clippy::too_many_arguments)]
fn gemm_bias(
    m: usize,
    kd: usize,
    n: usize,
    a: &[f32],
    bias: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    col0: usize,
    simd: bool,
) {
    kernels::gemm_bias(simd, m, kd, n, a, bias, b, ldb, out, ldo, col0);
}

/// Forward: `out[oc][r][z] = bias[oc] + Σ_kx w[oc][kx] · xp[off[kx] + …]`
/// with the K loop strictly ascending per output element. Register-blocked
/// [`MR`]×[`NR`] tiles; ragged edges use narrower tiles with the same
/// per-element order. Output channel `oc` lands at row `oc * ldo + col0`,
/// so sample `b` is written straight into the channel-major `[C, B, …]`
/// layout (`ldo = B·spatial`, `col0 = b·spatial`) with no staging copy.
#[allow(clippy::too_many_arguments)]
fn conv_fwd(
    xp: &[f32],
    off: &[usize],
    d2: usize,
    d3: usize,
    rows: usize,
    pd2: usize,
    pd3: usize,
    w: &[f32],
    bias: &[f32],
    out_c: usize,
    out: &mut [f32],
    ldo: usize,
    col0: usize,
    simd: bool,
) {
    let mut oc0 = 0;
    while oc0 < out_c {
        if out_c - oc0 >= MR {
            fwd_rows::<MR>(
                xp, off, d2, d3, rows, pd2, pd3, w, bias, oc0, out, ldo, col0, simd,
            );
            oc0 += MR;
        } else {
            fwd_rows::<1>(
                xp, off, d2, d3, rows, pd2, pd3, w, bias, oc0, out, ldo, col0, simd,
            );
            oc0 += 1;
        }
    }
}

/// One block of `M` output channels of the forward pass.
#[allow(clippy::too_many_arguments)]
fn fwd_rows<const M: usize>(
    xp: &[f32],
    off: &[usize],
    d2: usize,
    d3: usize,
    rows: usize,
    pd2: usize,
    pd3: usize,
    w: &[f32],
    bias: &[f32],
    oc0: usize,
    out: &mut [f32],
    ldo: usize,
    col0: usize,
    simd: bool,
) {
    for r in 0..rows {
        let src_r = ((r / d2) * pd2 + r % d2) * pd3;
        let out_r = col0 + r * d3;
        let mut zc = 0;
        while d3 - zc >= NR {
            kernels::fwd_tile::<M, NR>(
                simd,
                xp,
                off,
                src_r + zc,
                w,
                bias,
                oc0,
                out,
                ldo,
                out_r + zc,
            );
            zc += NR;
        }
        while d3 - zc >= 4 {
            kernels::fwd_tile::<M, 4>(
                simd,
                xp,
                off,
                src_r + zc,
                w,
                bias,
                oc0,
                out,
                ldo,
                out_r + zc,
            );
            zc += 4;
        }
        while zc < d3 {
            kernels::fwd_tile::<M, 1>(
                simd,
                xp,
                off,
                src_r + zc,
                w,
                bias,
                oc0,
                out,
                ldo,
                out_r + zc,
            );
            zc += 1;
        }
    }
}

/// Copies sample `b` out of a channel-major batched volume (`[C, B, …]`,
/// flat per-channel stride `bsz * spatial`) into a contiguous `[C, …]`
/// destination. Only the naive-oracle routes gather whole samples; the GEMM
/// routes read the batched layout in place.
#[cfg(any(test, feature = "naive-ref"))]
fn gather_sample(src: &[f32], bsz: usize, b: usize, spatial: usize, dst: &mut [f32]) {
    let channels = dst.len() / spatial;
    for c in 0..channels {
        dst[c * spatial..(c + 1) * spatial]
            .copy_from_slice(&src[(c * bsz + b) * spatial..][..spatial]);
    }
}

/// Inverse of [`gather_sample`]: writes a contiguous `[C, …]` sample into
/// slot `b` of a channel-major batched volume.
#[cfg(any(test, feature = "naive-ref"))]
fn scatter_sample(src: &[f32], bsz: usize, b: usize, spatial: usize, dst: &mut [f32]) {
    let channels = src.len() / spatial;
    for c in 0..channels {
        dst[(c * bsz + b) * spatial..][..spatial]
            .copy_from_slice(&src[c * spatial..(c + 1) * spatial]);
    }
}

/// Transposes `g` (`[out_c][n]`) into `gt` (`[n][out_c]`).
fn transpose_into(g: &[f32], out_c: usize, n: usize, gt: &mut Vec<f32>) {
    gt.clear();
    gt.resize(out_c * n, 0.0);
    for oc in 0..out_c {
        for (j, &v) in g[oc * n..(oc + 1) * n].iter().enumerate() {
            gt[j * out_c + oc] = v;
        }
    }
}

/// Accumulates weight gradients: `gw[oc][kx] += dot(g[oc][row],
/// xp[off[kx] + row])` with one fresh z-ascending dot per row (the naive
/// order), rows ascending, vectorized across [`WL`] output-channel lanes
/// through the transposed gradient `gt`.
#[allow(clippy::too_many_arguments)]
fn weight_grad(
    gt: &[f32],
    out_c: usize,
    xp: &[f32],
    off: &[usize],
    d2: usize,
    d3: usize,
    rows: usize,
    pd2: usize,
    pd3: usize,
    gw: &mut [f32],
    simd: bool,
) {
    let kd = off.len();
    for r in 0..rows {
        let src_r = ((r / d2) * pd2 + r % d2) * pd3;
        let gt_base = r * d3 * out_c;
        for (kx, &o) in off.iter().enumerate() {
            let xrow = &xp[o + src_r..o + src_r + d3];
            let mut oc0 = 0;
            while oc0 < out_c {
                if out_c - oc0 >= WL {
                    kernels::wg_lanes::<WL>(simd, xrow, gt, gt_base, out_c, oc0, gw, kd, kx);
                    oc0 += WL;
                } else {
                    kernels::wg_lanes::<1>(simd, xrow, gt, gt_base, out_c, oc0, gw, kd, kx);
                    oc0 += 1;
                }
            }
        }
    }
}

/// Input gradient as a register-tiled gather: for each `(ic, ix, iy)` row
/// the z-lane accumulators sweep `oc asc, a desc, b desc, c asc` — the
/// naive contribution order — reading the (zero-padded) gradient `gsrc`
/// of padded dims `[out_c][pd1][pd2][pd3]`. [`ICT`] input channels share
/// each padded-row read; out-of-range `(a, b)` planes are skipped exactly
/// as the naive loops skip them.
/// Input-channel row `ic` lands at `ic * ldo + col0`, so sample `b` is
/// written straight into the channel-major `[C, B, …]` layout
/// (`ldo = B·spatial`, `col0 = b·spatial`) with no staging copy.
#[allow(clippy::too_many_arguments)]
fn input_grad_gather(
    gsrc: &[f32],
    out_c: usize,
    in_c: usize,
    k: usize,
    p: usize,
    d1: usize,
    d2: usize,
    d3: usize,
    pd1: usize,
    pd2: usize,
    pd3: usize,
    w: &[f32],
    gi: &mut [f32],
    ldo: usize,
    col0: usize,
    simd: bool,
) {
    let mut ic0 = 0;
    while ic0 < in_c {
        let rem = in_c - ic0;
        if rem >= ICT {
            ig_rows::<ICT>(
                gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ldo, col0, simd,
            );
            ic0 += ICT;
        } else if rem == 3 {
            ig_rows::<3>(
                gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ldo, col0, simd,
            );
            ic0 += 3;
        } else if rem == 2 {
            ig_rows::<2>(
                gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ldo, col0, simd,
            );
            ic0 += 2;
        } else {
            ig_rows::<1>(
                gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ldo, col0, simd,
            );
            ic0 += 1;
        }
    }
}

/// One block of `L` input channels of the gradient gather.
#[allow(clippy::too_many_arguments)]
fn ig_rows<const L: usize>(
    gsrc: &[f32],
    out_c: usize,
    in_c: usize,
    k: usize,
    p: usize,
    d1: usize,
    d2: usize,
    d3: usize,
    pd1: usize,
    pd2: usize,
    pd3: usize,
    w: &[f32],
    gi: &mut [f32],
    ic0: usize,
    ldo: usize,
    col0: usize,
    simd: bool,
) {
    for ix in 0..d1 {
        for iy in 0..d2 {
            let mut zc = 0;
            while d3 - zc >= NR {
                kernels::ig_tile::<L, NR>(
                    simd, gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ix, iy,
                    zc, ldo, col0,
                );
                zc += NR;
            }
            while d3 - zc >= 4 {
                kernels::ig_tile::<L, 4>(
                    simd, gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ix, iy,
                    zc, ldo, col0,
                );
                zc += 4;
            }
            while zc < d3 {
                kernels::ig_tile::<L, 1>(
                    simd, gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ix, iy,
                    zc, ldo, col0,
                );
                zc += 1;
            }
        }
    }
}

impl Layer for Conv3d {
    /// The zero-padded, sample-major input `[B, in_c, d1+2p, d2+2p,
    /// d3+2p]` (a plain re-layout when `k == 1`): the forward builds the
    /// padded copy anyway, so caching it costs nothing and saves backward
    /// the rebuild.
    type Cache = Tensor;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Tensor>) {
        let t = ws.prof_start();
        let [in_c, bsz, d1, d2, d3] = batch_dims(x.shape());
        assert_eq!(in_c, self.in_c, "conv3d channel mismatch");
        let spatial = d1 * d2 * d3;
        let n = bsz * spatial;
        // Tier A: forward multiply-accumulates, attributed to the layer the
        // workspace is currently tagged with (same count on every path,
        // including the naive oracle).
        let macs = (self.out_c * self.in_c * self.k * self.k * self.k) as u64 * n as u64;
        ws.counters.add_at(ws.mac_slot, macs);

        let k = self.k;
        let p = k / 2;
        let (pd1, pd2, pd3) = (d1 + 2 * p, d2 + 2 * p, d3 + 2 * p);
        let pvol = pd1 * pd2 * pd3;
        let mut out = ws.alloc(Shape::of(x.shape()).with_channels(self.out_c).dims());

        #[cfg(any(test, feature = "naive-ref"))]
        if self.use_naive {
            // Oracle route; the cache is the same padded copy as the GEMM
            // route's (identical state for backward).
            self.forward_naive_batch(x, &mut out, ws);
            let cache = ws.training().then(|| pad_batch(x, p, ws));
            ws.prof_end(t, ProfKind::ConvFwd);
            return (out, cache);
        }

        let w = self.weight.value.data();
        let bias = self.bias.value.data();
        let simd = ws.simd_active();
        if simd {
            ws.counters.bump(Counter::GemmKernelSimd);
        }
        if p == 0 {
            // 1×1×1: the input *is* the patch matrix with flat `[B·n]`
            // columns — one GEMM serves the whole batch, with the
            // per-element accumulation order (bias first, K ascending)
            // of the naive loops.
            ws.counters.bump(Counter::GemmFlat);
            gemm_bias(
                self.out_c,
                self.in_c,
                n,
                w,
                bias,
                x.data(),
                n,
                out.data_mut(),
                n,
                0,
                simd,
            );
            let cache = ws.training().then(|| pad_batch(x, 0, ws));
            ws.prof_end(t, ProfKind::ConvFwd);
            return (out, cache);
        }

        let xp = pad_batch(x, p, ws);
        let mut off = std::mem::take(&mut ws.tap_off);
        tap_offsets(self.in_c, k, pd1, pd2, pd3, &mut off);
        if d3 >= NR {
            // Deep-z grids: the implicit-im2col kernel is already
            // tile-efficient; run it per sample, writing each sample's rows
            // straight into the batched layout via the kernel's output
            // stride — no staging copy.
            ws.counters.bump(Counter::GemmDirect);
            for b in 0..bsz {
                let xpb = &xp.data()[b * self.in_c * pvol..][..self.in_c * pvol];
                conv_fwd(
                    xpb,
                    &off,
                    d2,
                    d3,
                    d1 * d2,
                    pd2,
                    pd3,
                    w,
                    bias,
                    self.out_c,
                    out.data_mut(),
                    n,
                    b * spatial,
                    simd,
                );
            }
        } else {
            // Shallow-z grids (the pooled U-Net levels): materialize patch
            // panels over *global* rows `0 .. B·rows` so GEMM tiles run over
            // flat columns spanning row and sample boundaries — with
            // `d3 < NR` the implicit-im2col tiles would mostly be scalar
            // edges.
            ws.counters.bump(Counter::GemmPanel);
            let rows = d1 * d2;
            let rows_g = bsz * rows;
            let kd = self.in_c * k * k * k;
            let rows_per_panel = (PANEL_COLS / d3).clamp(1, rows_g);
            let mut bbuf = ws.take_im2col(kd * rows_per_panel * d3);
            let xpd = xp.data();
            let mut r0g = 0;
            while r0g < rows_g {
                let r1g = (r0g + rows_per_panel).min(rows_g);
                let cols = (r1g - r0g) * d3;
                // A panel may span samples: fill it from each sample's
                // padded volume at its column offset within the panel.
                let mut r = r0g;
                while r < r1g {
                    let b = r / rows;
                    let r0 = r % rows;
                    let r1 = rows.min(r0 + (r1g - r));
                    let xpb = &xpd[b * self.in_c * pvol..][..self.in_c * pvol];
                    im2col_from_padded(
                        xpb,
                        &off,
                        k,
                        d2,
                        d3,
                        pd2,
                        pd3,
                        r0,
                        r1,
                        &mut bbuf,
                        cols,
                        (r - r0g) * d3,
                    );
                    r += r1 - r0;
                }
                gemm_bias(
                    self.out_c,
                    kd,
                    cols,
                    w,
                    bias,
                    &bbuf,
                    cols,
                    out.data_mut(),
                    n,
                    r0g * d3,
                    simd,
                );
                r0g = r1g;
            }
            ws.put_im2col(bbuf);
        }
        ws.tap_off = off;
        let cache = if ws.training() {
            Some(xp)
        } else {
            ws.free(xp);
            None
        };
        ws.prof_end(t, ProfKind::ConvFwd);
        (out, cache)
    }

    fn backward(&mut self, xc: Tensor, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.prof_start();
        let k = self.k;
        let p = k / 2;
        let [out_c, bsz, d1, d2, d3] = batch_dims(grad_out.shape());
        assert_eq!(out_c, self.out_c, "conv3d gradient channel mismatch");
        let (pd1, pd2, pd3) = (d1 + 2 * p, d2 + 2 * p, d3 + 2 * p);
        assert_eq!(
            xc.shape(),
            &[bsz, self.in_c, pd1, pd2, pd3],
            "conv3d backward cache does not match the gradient"
        );
        let spatial = d1 * d2 * d3;
        let n = bsz * spatial;
        let pvol = pd1 * pd2 * pd3;
        let rows = d1 * d2;
        // Tier A: backward runs the weight-gradient and input-gradient
        // passes, each the forward's MAC count.
        let macs = (self.out_c * self.in_c * k * k * k) as u64 * n as u64;
        ws.counters.add_at(ws.mac_slot, 2 * macs);
        let mut grad_in = ws.alloc(Shape::of(grad_out.shape()).with_channels(self.in_c).dims());

        #[cfg(any(test, feature = "naive-ref"))]
        if self.use_naive {
            self.backward_naive_batch(&xc, &grad_out, &mut grad_in, ws);
            ws.free(xc);
            ws.free(grad_out);
            ws.prof_end(t, ProfKind::ConvBwd);
            return grad_in;
        }

        let g = grad_out.data();
        let simd = ws.simd_active();
        if simd {
            ws.counters.bump(Counter::GemmKernelSimd);
        }

        // Bias gradient: per element `gb[oc]`, fresh z-ascending row sums
        // added samples-ascending then rows-ascending — the sequential
        // per-sample order of the naive loops.
        {
            let gbias = self.bias.grad.data_mut();
            for (oc, gbv) in gbias.iter_mut().enumerate().take(self.out_c) {
                for b in 0..bsz {
                    for r in 0..rows {
                        let base = (oc * bsz + b) * spatial + r * d3;
                        *gbv += g[base..base + d3].iter().sum::<f32>();
                    }
                }
            }
        }

        // Weight gradient: one transpose of the whole gradient (sample
        // `b`'s `[spatial][out_c]` block lands contiguously), then per
        // (row, tap, oc) fresh z-ascending dots over the padded input
        // cache, vectorized across output-channel lanes, samples
        // ascending.
        let mut gt = std::mem::take(&mut ws.g_t);
        transpose_into(g, self.out_c, n, &mut gt);
        let mut off = std::mem::take(&mut ws.tap_off);
        tap_offsets(self.in_c, k, pd1, pd2, pd3, &mut off);
        {
            let gw = self.weight.grad.data_mut();
            for b in 0..bsz {
                let gtb = &gt[b * spatial * self.out_c..][..spatial * self.out_c];
                let xpb = &xc.data()[b * self.in_c * pvol..][..self.in_c * pvol];
                weight_grad(gtb, self.out_c, xpb, &off, d2, d3, rows, pd2, pd3, gw, simd);
            }
        }
        ws.tap_off = off;
        ws.g_t = gt;

        // Input gradient: per sample, gather the strided gradient into a
        // contiguous zero-padded copy, then run the register-tiled gather
        // in the naive order (oc asc, a desc ⇒ x₁ asc, b desc ⇒ y asc,
        // c asc) with the batched output stride, so sample `b`'s rows land
        // straight in the `[C, B, …]` layout — no staging volume.
        let mut gpad = std::mem::take(&mut ws.g_pad);
        // One memset for the whole batch: every interior cell is
        // overwritten per sample below, so only the (always-zero) padding
        // halo needs clearing — not once per sample.
        gpad.clear();
        gpad.resize(self.out_c * pvol, 0.0);
        for b in 0..bsz {
            for oc in 0..self.out_c {
                for x1 in 0..d1 {
                    for y in 0..d2 {
                        let src = (oc * bsz + b) * spatial + (x1 * d2 + y) * d3;
                        let dst = ((oc * pd1 + x1 + p) * pd2 + y + p) * pd3 + p;
                        gpad[dst..dst + d3].copy_from_slice(&g[src..src + d3]);
                    }
                }
            }
            input_grad_gather(
                &gpad,
                self.out_c,
                self.in_c,
                k,
                p,
                d1,
                d2,
                d3,
                pd1,
                pd2,
                pd3,
                self.weight.value.data(),
                grad_in.data_mut(),
                n,
                b * spatial,
                simd,
            );
        }
        ws.g_pad = gpad;
        ws.free(xc);
        ws.free(grad_out);
        ws.prof_end(t, ProfKind::ConvBwd);
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    fn conv(in_c: usize, out_c: usize, k: usize, seed: u64) -> Conv3d {
        Conv3d::new(in_c, out_c, k, &mut Initializer::new(seed))
    }

    /// Forward through a fresh workspace, output only.
    fn fwd(c: &Conv3d, x: &Tensor) -> Tensor {
        c.forward(x, &mut NnWorkspace::new()).0
    }

    /// One training step (forward, then backward of `gout`) through `ws`:
    /// returns the output and the input gradient.
    fn step(c: &mut Conv3d, x: &Tensor, gout: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Tensor) {
        let (y, cache) = c.forward(x, ws);
        let g = ws.alloc_copy(gout);
        let gi = c.backward(cache.expect("training workspace records caches"), g, ws);
        (y, gi)
    }

    #[test]
    fn output_shape_preserves_spatial_dims() {
        let c = conv(2, 5, 3, 0);
        let x = Tensor::zeros(&[2, 4, 6, 3]);
        assert_eq!(fwd(&c, &x).shape(), &[5, 4, 6, 3]);
        // Also for 1x1x1 kernels and odd sizes.
        let c1 = conv(2, 1, 1, 0);
        assert_eq!(fwd(&c1, &x).shape(), &[1, 4, 6, 3]);
        // And batched inputs keep their batch axis.
        let x5 = Tensor::zeros(&[2, 3, 4, 6, 3]);
        assert_eq!(fwd(&c, &x5).shape(), &[5, 3, 4, 6, 3]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // One input channel, one output channel, 3x3x3 kernel with a 1 at
        // the center: convolution must be the identity.
        let mut c = conv(1, 1, 3, 0);
        c.params_mut()[0].value.fill(0.0);
        // Index of weight [oc=0, ic=0, a=1, b=1, c=1] in the flat buffer.
        #[allow(clippy::erasing_op, clippy::identity_op)]
        let center = ((0 * 3 + 1) * 3 + 1) * 3 + 1;
        c.weight.value.data_mut()[center] = 1.0;
        c.bias.value.fill(0.0);
        let x = Tensor::from_fn4(&[1, 3, 3, 2], |_, a, b, d| (a * 100 + b * 10 + d) as f32);
        assert_eq!(fwd(&c, &x), x);
    }

    #[test]
    fn bias_shifts_output() {
        let mut c = conv(1, 1, 1, 0);
        c.weight.value.fill(0.0);
        c.bias.value.fill(2.5);
        let y = fwd(&c, &Tensor::zeros(&[1, 2, 2, 2]));
        assert!(y.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn zero_padding_at_borders() {
        // Kernel of all ones sums the 3x3x1 neighborhood; at a corner of a
        // 2x2x1 input only 4 cells exist.
        let mut c = conv(1, 1, 3, 0);
        c.weight.value.fill(1.0);
        c.bias.value.fill(0.0);
        let x = Tensor::from_vec(&[1, 2, 2, 1], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(fwd(&c, &x).data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut c = conv(2, 3, 3, 7);
        let x = Initializer::new(3).uniform(&[2, 3, 2, 2], 1.0);
        check_layer_gradients(&mut c, &x, 1e-2, 2e-2);
    }

    #[test]
    fn gradients_match_for_1x1_kernels() {
        let mut c = conv(3, 2, 1, 9);
        let x = Initializer::new(4).uniform(&[3, 2, 3, 2], 1.0);
        check_layer_gradients(&mut c, &x, 1e-2, 2e-2);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_panics() {
        conv(1, 1, 2, 0);
    }

    /// Asserts two tensors are equal down to the exact bit pattern of every
    /// element (stricter than `==`, which treats `-0.0 == 0.0`).
    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {i} differs ({x:e} vs {y:e})"
            );
        }
    }

    /// Cases covering k ∈ {1, 3}, odd and non-power-of-two spatial sizes,
    /// degenerate axes, and channel counts off the micro-kernel tile sizes.
    const ORACLE_CASES: &[(usize, usize, usize, [usize; 3])] = &[
        (1, 1, 3, [1, 1, 1]),
        (1, 1, 3, [1, 1, 7]),
        (2, 3, 3, [3, 5, 7]),
        (3, 4, 1, [2, 3, 5]),
        (7, 8, 3, [2, 11, 13]),
        (4, 2, 3, [5, 1, 9]),
        (2, 9, 3, [2, 6, 6]),
        (5, 1, 1, [3, 4, 5]),
        (8, 16, 3, [2, 9, 9]),
        (3, 5, 5, [3, 7, 6]),
    ];

    #[test]
    fn gemm_matches_naive_oracle_bitwise() {
        for (case, &(in_c, out_c, k, [d1, d2, d3])) in ORACLE_CASES.iter().enumerate() {
            let seed = 0x9E37 + case as u64;
            let proto = conv(in_c, out_c, k, seed);
            let x = Initializer::new(seed ^ 1).uniform(&[in_c, d1, d2, d3], 1.0);
            let gout = Initializer::new(seed ^ 2).uniform(&[out_c, d1, d2, d3], 1.0);

            let mut fast = proto.clone();
            let (y_fast, gi_fast) = step(&mut fast, &x, &gout, &mut NnWorkspace::new());

            let mut slow = proto.clone();
            slow.set_naive(true);
            let (y_slow, gi_slow) = step(&mut slow, &x, &gout, &mut NnWorkspace::new());

            let what = format!("case {case} ({in_c}->{out_c} k{k} {d1}x{d2}x{d3})");
            assert_bits_eq(&y_fast, &y_slow, &format!("{what} forward"));
            assert_bits_eq(&gi_fast, &gi_slow, &format!("{what} grad_in"));
            assert_bits_eq(
                &fast.weight.grad,
                &slow.weight.grad,
                &format!("{what} grad_w"),
            );
            assert_bits_eq(&fast.bias.grad, &slow.bias.grad, &format!("{what} grad_b"));
        }
    }

    #[test]
    fn batched_path_matches_sequential_bitwise() {
        // For every oracle case and batch size, one batched forward and
        // backward must be bit-identical, per sample, to per-sample B=1
        // calls over the samples in order — including the accumulated
        // weight/bias gradients.
        for (case, &(in_c, out_c, k, [d1, d2, d3])) in ORACLE_CASES.iter().enumerate() {
            for &bsz in &[1usize, 4, 16] {
                let seed = 0xBA7C + case as u64;
                let proto = conv(in_c, out_c, k, seed);
                let xs: Vec<Tensor> = (0..bsz)
                    .map(|b| {
                        Initializer::new(seed ^ (2 * b as u64 + 2))
                            .uniform(&[in_c, d1, d2, d3], 1.0)
                    })
                    .collect();
                let gs: Vec<Tensor> = (0..bsz)
                    .map(|b| {
                        Initializer::new(seed ^ (2 * b as u64 + 3))
                            .uniform(&[out_c, d1, d2, d3], 1.0)
                    })
                    .collect();

                // Sequential reference: one layer, samples in order,
                // gradients accumulating.
                let mut seq = proto.clone();
                let mut ws = NnWorkspace::new();
                let (ys, gis): (Vec<Tensor>, Vec<Tensor>) = (0..bsz)
                    .map(|b| step(&mut seq, &xs[b], &gs[b], &mut ws))
                    .unzip();

                // Batched run.
                let mut bat = proto.clone();
                let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
                let g5 = Tensor::stack_batch(&gs.iter().collect::<Vec<_>>());
                let (y5, gi5) = step(&mut bat, &x5, &g5, &mut NnWorkspace::new());

                let what = format!("case {case} B{bsz} ({in_c}->{out_c} k{k} {d1}x{d2}x{d3})");
                for b in 0..bsz {
                    assert_bits_eq(&y5.unstack_sample(b), &ys[b], &format!("{what} y[{b}]"));
                    assert_bits_eq(
                        &gi5.unstack_sample(b),
                        &gis[b],
                        &format!("{what} grad_in[{b}]"),
                    );
                }
                assert_bits_eq(
                    &bat.weight.grad,
                    &seq.weight.grad,
                    &format!("{what} grad_w"),
                );
                assert_bits_eq(&bat.bias.grad, &seq.bias.grad, &format!("{what} grad_b"));

                // The batched naive oracle agrees too (same per-sample
                // seven-loop kernels, batched layout).
                let mut nv = proto.clone();
                nv.set_naive(true);
                let (yn, gin) = step(&mut nv, &x5, &g5, &mut NnWorkspace::new());
                assert_bits_eq(&yn, &y5, &format!("{what} naive y"));
                assert_bits_eq(&gin, &gi5, &format!("{what} naive grad_in"));
                assert_bits_eq(
                    &nv.weight.grad,
                    &bat.weight.grad,
                    &format!("{what} naive gw"),
                );
            }
        }
    }

    #[test]
    fn gemm_stays_bitwise_identical_across_workspace_reuse() {
        // Repeated passes through one workspace (stale pool contents, grown
        // buffers) must not perturb results.
        let proto = conv(3, 6, 3, 42);
        let x = Initializer::new(7).uniform(&[3, 4, 5, 6], 1.0);
        let gout = Initializer::new(8).uniform(&[6, 4, 5, 6], 1.0);
        let mut fresh = proto.clone();
        let (y0, gi0) = step(&mut fresh, &x, &gout, &mut NnWorkspace::new());

        let mut reused = proto.clone();
        let mut ws = NnWorkspace::new();
        for _ in 0..3 {
            reused.zero_grad();
            let (y, gi) = step(&mut reused, &x, &gout, &mut ws);
            assert_bits_eq(&y, &y0, "reused forward");
            assert_bits_eq(&gi, &gi0, "reused grad_in");
            assert_bits_eq(&reused.weight.grad, &fresh.weight.grad, "reused grad_w");
            ws.free(y);
            ws.free(gi);
        }
    }

    /// The default lane (AVX2 wherever the host has it) against the
    /// forced-scalar lane across the oracle case matrix, at B=1 and B=4:
    /// forward (direct, flat and panel dispatch), input-gradient gather,
    /// weight and bias gradients agree bit for bit, and the dispatch
    /// counter proves which lane ran.
    #[test]
    fn default_lane_matches_forced_scalar_bitwise() {
        for (case, &(in_c, out_c, k, [d1, d2, d3])) in ORACLE_CASES.iter().enumerate() {
            for bsz in [1usize, 4] {
                let seed = 0x51D + case as u64;
                let proto = conv(in_c, out_c, k, seed);
                let x = Initializer::new(seed ^ 1).uniform(&[in_c, bsz, d1, d2, d3], 1.0);
                let gout = Initializer::new(seed ^ 2).uniform(&[out_c, bsz, d1, d2, d3], 1.0);

                let mut wide = proto.clone();
                let mut ws = NnWorkspace::new();
                let (y_w, gi_w) = step(&mut wide, &x, &gout, &mut ws);

                let mut scalar = proto.clone();
                let mut ws_s = NnWorkspace::new();
                ws_s.force_scalar();
                let (y_s, gi_s) = step(&mut scalar, &x, &gout, &mut ws_s);

                let what = format!("case {case} B{bsz} ({in_c}->{out_c} k{k} {d1}x{d2}x{d3})");
                assert_bits_eq(&y_w, &y_s, &format!("{what} forward"));
                assert_bits_eq(&gi_w, &gi_s, &format!("{what} grad_in"));
                assert_bits_eq(
                    &wide.weight.grad,
                    &scalar.weight.grad,
                    &format!("{what} grad_w"),
                );
                assert_bits_eq(
                    &wide.bias.grad,
                    &scalar.bias.grad,
                    &format!("{what} grad_b"),
                );
                let dispatched = if kernels::simd_available() { 2 } else { 0 };
                assert_eq!(
                    ws.counters.get(Counter::GemmKernelSimd),
                    dispatched,
                    "{what}"
                );
                assert_eq!(
                    ws_s.counters.get(Counter::GemmKernelSimd),
                    0,
                    "{what} forced"
                );
            }
        }
    }

    #[test]
    fn inference_workspace_skips_backward_cache() {
        let c = conv(2, 2, 3, 1);
        let x = Initializer::new(2).uniform(&[2, 3, 3, 3], 1.0);
        let mut ws = NnWorkspace::new();
        ws.training = false;
        let (y_inf, cache) = c.forward(&x, &mut ws);
        assert!(cache.is_none());
        let (y_train, cache) = c.forward(&x, &mut NnWorkspace::new());
        assert_bits_eq(&y_inf, &y_train, "inference forward");
        assert!(cache.is_some());
    }
}
