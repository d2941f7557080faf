//! AVX2 ports of the register tiles in [`scalar`](super::scalar),
//! bit-identical to them.
//!
//! Each kernel keeps the scalar tile's loop structure and per-element
//! accumulation *sequence* exactly, and each step is a separate
//! `_mm256_mul_ps` then `_mm256_add_ps` — two roundings, the same two the
//! scalar `acc += w * x` performs. FMA is deliberately not in the enabled
//! target features, so codegen has no fused instruction to contract the
//! pair into (and Rust never contracts floating-point ops on its own):
//! every lane computes the scalar tile's bits (DESIGN.md §9). Two 8-wide
//! `__m256` registers cover the `FL = 16` flat lanes of the forward tile;
//! one covers the `NR = 8` z lanes of the gather or the `WL = 8`
//! output-channel lanes of the weight gradient, so the tile geometry is
//! unchanged.
//!
//! # Safety
//!
//! Every function here carries `#[target_feature(enable = "avx2")]`, so
//! calling one is `unsafe` with the contract *the running CPU supports
//! AVX2* — the dispatchers in [`super`] establish that via the cached
//! [`host_lane`](super::host_lane) probe. The pointer arithmetic inside
//! touches exactly the indices the scalar tiles address through checked
//! slices; each `unsafe` block states the bound it relies on. The forward
//! tile asserts those bounds (once per call for the weights and the
//! output, once per tap for the input); the backward tiles re-check their
//! outermost bounds with `debug_assert!` in debug builds.

use core::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps, _mm256_mul_ps,
    _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
};

use super::{FL, ICT, NR, WL};

/// Padded-flat forward tile, `M` output channels × [`FL`]` = 16` lanes as
/// two `__m256` per channel: SIMD twin of
/// [`scalar::flat_tile`](super::scalar::flat_tile). With `FULL` every
/// load is a plain 16-float read; otherwise (the tail tile of a span,
/// `width < 16`) `_mm256_maskload_ps` reads only lanes `< width`, so the
/// tile never touches memory the scalar tile does not, and the zeroed
/// lanes it leaves are never stored.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn flat_tile<const M: usize, const FULL: bool>(
    xp: &[f32],
    off: &[usize],
    src: usize,
    width: usize,
    w: &[f32],
    bias: &[f32],
    oc0: usize,
    out: &mut [f32],
    ldo: usize,
    out_base: usize,
    keep: u16,
) {
    let kd = off.len();
    // A full tile reads all 16 lanes.
    let reach = if FULL { FL } else { width };
    // The bounds every unchecked access below relies on.
    assert!(
        bias.len() >= oc0 + M
            && w.len() >= (oc0 + M) * kd
            && out.len() >= (oc0 + M - 1) * ldo + out_base + keep.count_ones() as usize,
        "flat tile out of bounds"
    );
    // Load masks: lane `l` is live iff `l < width` (all-ones `i32`).
    let live: [i32; FL] = core::array::from_fn(|l| -i32::from(l < width));
    // SAFETY: `live` is exactly 16 `i32`s, read as two halves of 8.
    let (m0, m1) = unsafe {
        (
            _mm256_loadu_si256(live.as_ptr().cast()),
            _mm256_loadu_si256(live.as_ptr().add(8).cast()),
        )
    };
    let mut lo = [_mm256_setzero_ps(); M];
    let mut hi = [_mm256_setzero_ps(); M];
    for i in 0..M {
        let b = _mm256_set1_ps(bias[oc0 + i]);
        lo[i] = b;
        hi[i] = b;
    }
    // Row `i` of the weight block: `w[(oc0 + i)·kd ..][..kd]`.
    let rows: [*const f32; M] = core::array::from_fn(|i| w.as_ptr().wrapping_add((oc0 + i) * kd));
    for (kx, &o) in off.iter().enumerate() {
        assert!(o + src + reach <= xp.len(), "flat tile input out of bounds");
        let p = xp.as_ptr().wrapping_add(o + src);
        let (x0, x1) = if FULL {
            // SAFETY: `xp[o + src .. o + src + 16]` is in bounds per the
            // assert (`reach == 16` on a full tile).
            unsafe { (_mm256_loadu_ps(p), _mm256_loadu_ps(p.wrapping_add(8))) }
        } else {
            // SAFETY: masked loads touch only the live lanes, i.e.
            // `xp[o + src .. o + src + width]`, in bounds per the assert.
            unsafe {
                (
                    _mm256_maskload_ps(p, m0),
                    _mm256_maskload_ps(p.wrapping_add(8), m1),
                )
            }
        };
        for i in 0..M {
            // SAFETY: `kx < kd`, so this is `w[(oc0 + i)·kd + kx]`, in
            // bounds per the assert above the loop.
            let wv = _mm256_set1_ps(unsafe { *rows[i].add(kx) });
            lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(wv, x0));
            hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(wv, x1));
        }
    }
    for i in 0..M {
        let ob = (oc0 + i) * ldo + out_base;
        if keep == u16::MAX {
            // SAFETY: all 16 lanes are kept, so the row spans
            // `[ob, ob + 16)`, in bounds per the assert above.
            unsafe {
                _mm256_storeu_ps(out.as_mut_ptr().add(ob), lo[i]);
                _mm256_storeu_ps(out.as_mut_ptr().add(ob + 8), hi[i]);
            }
        } else {
            let mut row = [0.0f32; FL];
            // SAFETY: `row` is exactly 16 floats.
            unsafe {
                _mm256_storeu_ps(row.as_mut_ptr(), lo[i]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), hi[i]);
            }
            super::scalar::store_kept(&row, keep, &mut out[ob..]);
        }
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

// The kernels above hard-code two (forward) or one 8-wide register per
// tile row; they are only correct at the exact geometry the dispatchers
// check for.
const _: () = assert!(FL == 16 && NR == 8 && WL == 8 && ICT == 4);
