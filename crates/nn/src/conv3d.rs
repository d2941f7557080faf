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
//! padded volume. The forward walks each x-plane as one *padded-flat*
//! span: lane `j = y·pd3 + z` reads `xp[off[kx] + plane + j]`, so a
//! register tile (`MR` output channels × `FL` lanes, K ascending) runs
//! across row boundaries. Lanes that land in the z padding (`z ≥ d3`)
//! are computed and never stored, unless rows cost the lane's tiles no
//! more as spans of their own (`Lane::span_cost`); `1×1×1` convs run
//! the same tile over the unpadded flat `[in_c, B·spatial]` input, where
//! no lane is junk.
//!
//! Activations are channel-major `[C, B, d1, d2, d3]` batches — a rank-4
//! input is a batch of one, byte for byte — so the one forward and the
//! one backward below serve inference, shared selectors and training at
//! every batch size. The batch axis folds into the GEMM `N` axis: a
//! `1×1×1` span covers every sample, and the padded spans of each sample
//! write straight into the batched layout.
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
use crate::kernels::{self, Lane, FL, ICT, MR, NR, WL};
use crate::layer::{Layer, Param};
use crate::tensor::{batch_dims, Shape, Tensor};
use crate::workspace::NnWorkspace;
use oarsmt_telemetry::{Counter, Span};

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

/// Forward over one padded-flat span: output lane `j < len` is
/// `bias[oc] + Σ_kx w[oc][kx] · xp[off[kx] + src + j]`, K strictly
/// ascending. Lane `j` is an output voxel iff `j % row < valid` (`row`
/// is the padded row stride, `valid` the row's real length); those lanes
/// are stored in order from `out[oc · ldo + out_base]` on, and the junk
/// lanes between rows are computed and dropped. Register tiles are
/// [`MR`] output channels × [`FL`] lanes, single channels on the
/// `out_c % MR` remainder and a narrower lane width on the span's tail.
#[allow(clippy::too_many_arguments)]
fn conv_span(
    lane: Lane,
    xp: &[f32],
    off: &[usize],
    src: usize,
    len: usize,
    row: usize,
    valid: usize,
    w: &[f32],
    bias: &[f32],
    out_c: usize,
    out: &mut [f32],
    ldo: usize,
    out_base: usize,
) {
    let mut stored = out_base;
    let mut j0 = 0;
    while j0 < len {
        let width = FL.min(len - j0);
        let keep = if valid == row {
            kernels::low_lanes(width)
        } else {
            let mut keep = 0u16;
            let mut z = j0 % row;
            for j in 0..width {
                keep |= u16::from(z < valid) << j;
                z += 1;
                if z == row {
                    z = 0;
                }
            }
            keep
        };
        if keep != 0 {
            let s = src + j0;
            let mut oc0 = 0;
            while oc0 < out_c {
                if out_c - oc0 >= MR {
                    kernels::flat_tile::<MR>(
                        lane, xp, off, s, width, w, bias, oc0, out, ldo, stored, keep,
                    );
                    oc0 += MR;
                } else {
                    kernels::flat_tile::<1>(
                        lane, xp, off, s, width, w, bias, oc0, out, ldo, stored, keep,
                    );
                    oc0 += 1;
                }
            }
        }
        stored += keep.count_ones() as usize;
        j0 += width;
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
        let t = ws.spans.begin(Span::NnConvFwd, ws.spans.now());
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
            ws.spans.end(t, ws.spans.now());
            return (out, cache);
        }

        let w = self.weight.value.data();
        let bias = self.bias.value.data();
        let lane = ws.lane();
        if lane != Lane::Scalar {
            ws.counters.bump(Counter::GemmKernelSimd);
        }
        let mut off = std::mem::take(&mut ws.tap_off);
        let cache = if p == 0 {
            // 1×1×1: the input *is* the patch matrix, channel `ic` at flat
            // offset `ic · B·spatial` — one span over the whole batch, with
            // no padding and so no junk lane.
            off.clear();
            off.extend((0..self.in_c).map(|ic| ic * n));
            conv_span(
                lane,
                x.data(),
                &off,
                0,
                n,
                n,
                n,
                w,
                bias,
                self.out_c,
                out.data_mut(),
                n,
                0,
            );
            ws.training().then(|| pad_batch(x, 0, ws))
        } else {
            // One padded-flat span per x-plane of each sample, written
            // straight into the channel-major `[C, B, …]` layout — or one
            // span per row, where the rows cost the lane's tiles no more
            // than the plane with its junk lanes does.
            let xp = pad_batch(x, p, ws);
            tap_offsets(self.in_c, k, pd1, pd2, pd3, &mut off);
            // `(d2 − 1)·pd3 + d3`: from the first voxel of the plane to
            // one past its last.
            let span = (d2 * pd3).saturating_sub(2 * p);
            let (rows, len, stride, row) = if d2 * lane.span_cost(d3) <= lane.span_cost(span) {
                (d2, d3, pd3, d3)
            } else {
                (1, span, 0, pd3)
            };
            for b in 0..bsz {
                for x1 in 0..d1 {
                    for y in 0..rows {
                        conv_span(
                            lane,
                            xp.data(),
                            &off,
                            b * self.in_c * pvol + x1 * pd2 * pd3 + y * stride,
                            len,
                            row,
                            d3,
                            w,
                            bias,
                            self.out_c,
                            out.data_mut(),
                            n,
                            b * spatial + x1 * d2 * d3 + y * d3,
                        );
                    }
                }
            }
            if ws.training() {
                Some(xp)
            } else {
                ws.free(xp);
                None
            }
        };
        ws.tap_off = off;
        ws.spans.end(t, ws.spans.now());
        (out, cache)
    }

    fn backward(&mut self, xc: Tensor, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.spans.begin(Span::NnConvBwd, ws.spans.now());
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
            ws.spans.end(t, ws.spans.now());
            return grad_in;
        }

        let g = grad_out.data();
        let simd = ws.lane() != Lane::Scalar;
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
        ws.spans.end(t, ws.spans.now());
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

    /// Every lane the host has against the scalar lane across the oracle
    /// case matrix, at B=1 and B=4: forward (padded-flat and `1×1×1`
    /// spans), input-gradient gather, weight and bias gradients agree bit
    /// for bit, and the dispatch counter proves which lane ran.
    #[test]
    fn every_lane_matches_scalar_bitwise() {
        for (case, &(in_c, out_c, k, [d1, d2, d3])) in ORACLE_CASES.iter().enumerate() {
            for bsz in [1usize, 4] {
                let seed = 0x51D + case as u64;
                let proto = conv(in_c, out_c, k, seed);
                let x = Initializer::new(seed ^ 1).uniform(&[in_c, bsz, d1, d2, d3], 1.0);
                let gout = Initializer::new(seed ^ 2).uniform(&[out_c, bsz, d1, d2, d3], 1.0);
                let run = |lane: Lane| {
                    let mut c = proto.clone();
                    let mut ws = NnWorkspace::new();
                    assert_eq!(ws.set_lane(lane), lane);
                    let (y, gi) = step(&mut c, &x, &gout, &mut ws);
                    (c, y, gi, ws.counters)
                };
                let (scalar, y_s, gi_s, _) = run(Lane::Scalar);
                for lane in Lane::available() {
                    let (wide, y_w, gi_w, counters) = run(lane);
                    let what = format!(
                        "{} case {case} B{bsz} ({in_c}->{out_c} k{k} {d1}x{d2}x{d3})",
                        lane.name()
                    );
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
                    let simd = if lane == Lane::Scalar { 0 } else { 2 };
                    assert_eq!(counters.get(Counter::GemmKernelSimd), simd, "{what}");
                }
            }
        }
    }

    /// The padded-flat forward on every lane against the naive oracle over
    /// spans that end mid-tile (`span % 16 ≠ 0`), every channel remainder
    /// of the 4-channel tile, `k ∈ {1, 3, 5}` and the shallow and deep `d3`
    /// the U-Net levels produce, at B=1 and B=4. Each lane meets both span
    /// partitions: per plane (e.g. `d3 = 3`) and per row (scalar at
    /// `d3 % 4 == 0`, AVX2 at `d3 ∈ {12, 16}`).
    #[test]
    fn flat_forward_matches_naive_on_every_lane() {
        let mut case = 0u64;
        for k in [1usize, 3, 5] {
            for d3 in [1usize, 2, 3, 4, 8, 12, 16] {
                for out_c in [1usize, 3, 4, 5, 8] {
                    for bsz in [1usize, 4] {
                        case += 1;
                        let (in_c, d1, d2) = (2, 2, 3);
                        let proto = conv(in_c, out_c, k, 0xF1A7 + case);
                        let x = Initializer::new(case).uniform(&[in_c, bsz, d1, d2, d3], 1.0);
                        let mut naive = proto.clone();
                        naive.set_naive(true);
                        let y_n = fwd(&naive, &x);
                        for lane in Lane::available() {
                            let mut ws = NnWorkspace::new();
                            ws.set_lane(lane);
                            let y = proto.forward(&x, &mut ws).0;
                            let what = format!(
                                "{} {in_c}->{out_c} k{k} B{bsz} {d1}x{d2}x{d3}",
                                lane.name()
                            );
                            assert_bits_eq(&y, &y_n, &what);
                        }
                    }
                }
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
