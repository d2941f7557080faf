//! AVX2 ports of the register tiles in [`scalar`](super::scalar),
//! bit-identical to them.
//!
//! Each kernel keeps the scalar tile's loop structure and per-element
//! accumulation *sequence* exactly, and each step is a separate
//! `_mm256_mul_ps` then `_mm256_add_ps` — two roundings, the same two the
//! scalar `acc += w * x` performs. FMA is deliberately not in the enabled
//! target features, so codegen has no fused instruction to contract the
//! pair into (and Rust never contracts floating-point ops on its own):
//! every lane computes the scalar tile's bits (DESIGN.md §9). One 8-wide
//! `__m256` register covers the `NR = 8` z lanes (forward, panel GEMM,
//! gather) or the `WL = 8` output-channel lanes (weight grad), so the tile
//! geometry is unchanged.
//!
//! # Safety
//!
//! Every function here carries `#[target_feature(enable = "avx2")]`, so
//! calling one is `unsafe` with the contract *the running CPU supports
//! AVX2* — the dispatchers in [`super`] establish that via the cached
//! [`simd_available`](super::simd_available) probe. The pointer
//! arithmetic inside touches exactly the indices the scalar tiles address
//! through checked slices; each `unsafe` block states the bound it relies
//! on, and debug builds re-check the tile's outermost bounds with
//! `debug_assert!`.

use core::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::{ICT, MR, NR, WL};

/// Forward tile, `MR = 4` output channels × `NR = 8` z lanes: SIMD twin
/// of [`scalar::fwd_tile`](super::scalar::fwd_tile)`::<4, 8>`.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fwd_tile_4x8(
    xp: &[f32],
    off: &[usize],
    src_base: usize,
    w: &[f32],
    bias: &[f32],
    oc0: usize,
    out: &mut [f32],
    ldo: usize,
    out_base: usize,
) {
    let kd = off.len();
    debug_assert!(bias.len() >= oc0 + MR);
    debug_assert!(w.len() >= (oc0 + MR) * kd);
    debug_assert!(out.len() >= (oc0 + MR - 1) * ldo + out_base + NR);
    let mut acc = [_mm256_setzero_ps(); MR];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = _mm256_set1_ps(bias[oc0 + i]);
    }
    for (kx, &o) in off.iter().enumerate() {
        debug_assert!(xp.len() >= o + src_base + NR);
        // SAFETY: the scalar tile reads `xp[o + src_base .. o + src_base + 8]`
        // through a checked slice; the caller passes the same `off`/`src_base`.
        let src = unsafe { _mm256_loadu_ps(xp.as_ptr().add(o + src_base)) };
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(
                *a,
                _mm256_mul_ps(_mm256_set1_ps(w[(oc0 + i) * kd + kx]), src),
            );
        }
    }
    for (i, a) in acc.iter().enumerate() {
        // SAFETY: row `oc0 + i` spans `[(oc0 + i)·ldo + out_base, +8)`, in
        // bounds per the debug_assert above (same slice the scalar tile
        // writes through `copy_from_slice`).
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add((oc0 + i) * ldo + out_base), *a) };
    }
}

/// Columns a wide GEMM tile covers: two `__m256` per row, eight
/// accumulator registers per `MR`-row block — enough independent
/// multiply-add chains to cover the add latency that the 8-column tile
/// leaves on the table.
const NW: usize = 2 * NR;

/// Whole panel/flat GEMM, SIMD lane of
/// [`scalar::gemm_bias`](super::scalar::gemm_bias). Walks 16-column
/// panels **column-major** (all row blocks of one panel before the next),
/// so the `kd`×16 slice of `b` a panel reads stays L1-resident instead of
/// being re-streamed from L2/L3 once per row block. Per output element
/// the accumulation is still one bias-first K-ascending chain; only the
/// tile traversal order differs from the scalar lane, and traversal order
/// never touches element values.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_wide(
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
) {
    let mut j0 = 0;
    while j0 + NW <= n {
        let mut i0 = 0;
        while i0 + MR <= m {
            gemm_tile_4x16(a, bias, b, ldb, kd, i0, j0, out, ldo, col0);
            i0 += MR;
        }
        if i0 < m {
            super::scalar::gemm_cols(a, bias, b, ldb, kd, i0, m, j0, j0 + NW, out, ldo, col0);
        }
        j0 += NW;
    }
    if j0 + NR <= n {
        let mut i0 = 0;
        while i0 + MR <= m {
            gemm_tile_4x8(a, bias, b, ldb, kd, i0, j0, out, ldo, col0);
            i0 += MR;
        }
        if i0 < m {
            super::scalar::gemm_cols(a, bias, b, ldb, kd, i0, m, j0, j0 + NR, out, ldo, col0);
        }
        j0 += NR;
    }
    if j0 < n {
        super::scalar::gemm_cols(a, bias, b, ldb, kd, 0, m, j0, n, out, ldo, col0);
    }
}

/// Wide GEMM tile, `MR = 4` rows × [`NW`]` = 16` columns: each of the
/// eight accumulators is an independent multiply-add chain, and each
/// broadcast of `a[i][k]` feeds two of them.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn gemm_tile_4x16(
    a: &[f32],
    bias: &[f32],
    b: &[f32],
    ldb: usize,
    kd: usize,
    i0: usize,
    j0: usize,
    out: &mut [f32],
    ldo: usize,
    col0: usize,
) {
    debug_assert!(bias.len() >= i0 + MR);
    debug_assert!(a.len() >= (i0 + MR) * kd);
    debug_assert!(kd == 0 || b.len() >= (kd - 1) * ldb + j0 + NW);
    debug_assert!(out.len() >= (i0 + MR - 1) * ldo + col0 + j0 + NW);
    let mut lo = [_mm256_setzero_ps(); MR];
    let mut hi = [_mm256_setzero_ps(); MR];
    for i in 0..MR {
        let bv = _mm256_set1_ps(bias[i0 + i]);
        lo[i] = bv;
        hi[i] = bv;
    }
    for kx in 0..kd {
        let base = kx * ldb + j0;
        // SAFETY: the scalar lane reads `b[kx·ldb + j0 .. +16]` through
        // checked slices; bounds re-checked by the debug_assert above.
        let b0 = unsafe { _mm256_loadu_ps(b.as_ptr().add(base)) };
        // SAFETY: as above, columns `j0 + 8 .. j0 + 16` of row `kx`.
        let b1 = unsafe { _mm256_loadu_ps(b.as_ptr().add(base + 8)) };
        for i in 0..MR {
            let av = _mm256_set1_ps(a[(i0 + i) * kd + kx]);
            lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(av, b0));
            hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(av, b1));
        }
    }
    for i in 0..MR {
        let o = (i0 + i) * ldo + col0 + j0;
        // SAFETY: row `i0 + i` spans `[o, o + 16)`, in bounds per the
        // debug_assert above.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(o), lo[i]) };
        // SAFETY: as above, the upper 8 of the same 16-column span.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(o + 8), hi[i]) };
    }
}

/// Narrow GEMM tile, `MR = 4` rows × `NR = 8` columns, for the column
/// remainder of [`gemm_bias_wide`]: SIMD twin of
/// [`scalar::gemm_tile`](super::scalar::gemm_tile).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn gemm_tile_4x8(
    a: &[f32],
    bias: &[f32],
    b: &[f32],
    ldb: usize,
    kd: usize,
    i0: usize,
    j0: usize,
    out: &mut [f32],
    ldo: usize,
    col0: usize,
) {
    debug_assert!(bias.len() >= i0 + MR);
    debug_assert!(a.len() >= (i0 + MR) * kd);
    debug_assert!(kd == 0 || b.len() >= (kd - 1) * ldb + j0 + NR);
    debug_assert!(out.len() >= (i0 + MR - 1) * ldo + col0 + j0 + NR);
    let mut acc = [_mm256_setzero_ps(); MR];
    for (i, v) in acc.iter_mut().enumerate() {
        *v = _mm256_set1_ps(bias[i0 + i]);
    }
    for kx in 0..kd {
        // SAFETY: the scalar tile reads `b[kx·ldb + j0 .. +8]` through a
        // checked slice; bounds re-checked by the debug_assert above.
        let brow = unsafe { _mm256_loadu_ps(b.as_ptr().add(kx * ldb + j0)) };
        for (i, v) in acc.iter_mut().enumerate() {
            *v = _mm256_add_ps(
                *v,
                _mm256_mul_ps(_mm256_set1_ps(a[(i0 + i) * kd + kx]), brow),
            );
        }
    }
    for (i, v) in acc.iter().enumerate() {
        // SAFETY: row `i0 + i` spans `[(i0 + i)·ldo + col0 + j0, +8)`, in
        // bounds per the debug_assert above.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add((i0 + i) * ldo + col0 + j0), *v) };
    }
}

/// Weight-gradient lanes, `WL = 8` output channels: SIMD twin of
/// [`scalar::wg_lanes`](super::scalar::wg_lanes)`::<8>`.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn wg_lanes_8(
    xrow: &[f32],
    gt: &[f32],
    gt_base: usize,
    out_c: usize,
    oc0: usize,
    gw: &mut [f32],
    kd: usize,
    kx: usize,
) {
    debug_assert!(xrow.is_empty() || gt.len() >= gt_base + (xrow.len() - 1) * out_c + oc0 + WL);
    let mut acc = _mm256_setzero_ps();
    for (z, &xv) in xrow.iter().enumerate() {
        let lane = gt_base + z * out_c + oc0;
        // SAFETY: the scalar kernel reads `gt[lane .. lane + 8]` through a
        // checked slice; bounds re-checked by the debug_assert above.
        let g = unsafe { _mm256_loadu_ps(gt.as_ptr().add(lane)) };
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xv), g));
    }
    let mut lanes = [0.0f32; WL];
    // SAFETY: `lanes` is exactly 8 floats.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    for (l, &av) in lanes.iter().enumerate() {
        gw[(oc0 + l) * kd + kx] += av;
    }
}

/// Input-gradient gather tile, `ICT = 4` input channels × `NR = 8` z
/// lanes: SIMD twin of [`scalar::ig_tile`](super::scalar::ig_tile)
/// `::<4, 8>` (same `oc asc, a desc, b desc, c asc` sweep).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ig_tile_4x8(
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
    ix: usize,
    iy: usize,
    zc: usize,
    ldo: usize,
    col0: usize,
) {
    let p2 = 2 * p;
    let kk = k * k * k;
    debug_assert!(gi.len() >= (ic0 + ICT - 1) * ldo + col0 + (ix * d2 + iy) * d3 + zc + NR);
    let mut acc = [_mm256_setzero_ps(); ICT];
    for oc in 0..out_c {
        for a in (0..k).rev() {
            let px = ix + p2 - a;
            if px < p || px - p >= d1 {
                continue;
            }
            for b in (0..k).rev() {
                let py = iy + p2 - b;
                if py < p || py - p >= d2 {
                    continue;
                }
                let w_base = (((oc * in_c + ic0) * k + a) * k + b) * k;
                for c in 0..k {
                    let g_base = ((oc * pd1 + px) * pd2 + py) * pd3 + (p2 - c) + zc;
                    debug_assert!(gsrc.len() >= g_base + NR);
                    // SAFETY: the scalar tile reads `gsrc[g_base .. g_base + 8]`
                    // through a checked slice for the same `(oc, px, py, c, zc)`.
                    let g = unsafe { _mm256_loadu_ps(gsrc.as_ptr().add(g_base)) };
                    for (l, accl) in acc.iter_mut().enumerate() {
                        let wv = _mm256_set1_ps(w[w_base + l * kk + c]);
                        *accl = _mm256_add_ps(*accl, _mm256_mul_ps(wv, g));
                    }
                }
            }
        }
    }
    for (l, accl) in acc.iter().enumerate() {
        let gb = (ic0 + l) * ldo + col0 + (ix * d2 + iy) * d3 + zc;
        // SAFETY: row `ic0 + l` spans `[gb, gb + 8)`, in bounds per the
        // debug_assert above (the scalar tile's `copy_from_slice` range).
        unsafe { _mm256_storeu_ps(gi.as_mut_ptr().add(gb), *accl) };
    }
}

// The kernels above hard-code one 8-wide register per tile row; they are
// only correct at the exact geometry the dispatchers check for.
const _: () = assert!(MR == 4 && NR == 8 && WL == 8 && ICT == 4);
