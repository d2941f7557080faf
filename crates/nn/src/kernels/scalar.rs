//! The scalar register tiles: the default kernel family, bit-identical to
//! the naive seven-loop oracle (the accumulation-order contract lives in
//! the `conv3d` module docs and DESIGN.md §9).

use super::FL;

/// The padded-flat forward tile: `M` output channels × `width ≤ FL`
/// lanes, bias first, taps strictly ascending per element. Lane `j`
/// accumulates `xp[off[kx] + src + j]`; the lanes set in `keep` are
/// stored, packed in lane order, from `out[(oc0 + i)·n + out_base]` on.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn flat_tile<const M: usize>(
    xp: &[f32],
    off: &[usize],
    src: usize,
    width: usize,
    w: &[f32],
    bias: &[f32],
    oc0: usize,
    out: &mut [f32],
    n: usize,
    out_base: usize,
    keep: u16,
) {
    // The lanes run in chunks of 8, then 4, then 1, each chunk with its
    // own K loop over register-resident accumulators (lanes are
    // independent elements, so no element's order changes).
    let mut acc = [[0.0f32; FL]; M];
    let mut lo = 0;
    while width - lo >= 8 {
        chunk::<M, 8>(&mut acc, xp, off, src, lo, w, bias, oc0);
        lo += 8;
    }
    while width - lo >= 4 {
        chunk::<M, 4>(&mut acc, xp, off, src, lo, w, bias, oc0);
        lo += 4;
    }
    while lo < width {
        chunk::<M, 1>(&mut acc, xp, off, src, lo, w, bias, oc0);
        lo += 1;
    }
    for (i, row) in acc.iter().enumerate() {
        let ob = (oc0 + i) * n + out_base;
        if keep == u16::MAX {
            out[ob..ob + FL].copy_from_slice(row);
        } else {
            store_kept(row, keep, &mut out[ob..]);
        }
    }
}

/// Lanes `lo .. lo + W` of the tile: bias first, taps ascending, in `W`
/// local accumulators per row, copied into `acc` at the end.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn chunk<const M: usize, const W: usize>(
    acc: &mut [[f32; FL]; M],
    xp: &[f32],
    off: &[usize],
    src: usize,
    lo: usize,
    w: &[f32],
    bias: &[f32],
    oc0: usize,
) {
    let kd = off.len();
    let mut part = [[0.0f32; W]; M];
    for (i, row) in part.iter_mut().enumerate() {
        *row = [bias[oc0 + i]; W];
    }
    for (kx, &o) in off.iter().enumerate() {
        let s = &xp[o + src + lo..][..W];
        for (i, row) in part.iter_mut().enumerate() {
            let wv = w[(oc0 + i) * kd + kx];
            for (v, &x) in row.iter_mut().zip(s) {
                *v += wv * x;
            }
        }
    }
    for (row, p) in acc.iter_mut().zip(&part) {
        row[lo..lo + W].copy_from_slice(p);
    }
}

/// Writes the lanes of `row` set in `keep` to `dst`, packed in lane order
/// (the shared partial-tile store of the scalar and AVX2 tiles).
#[inline(always)]
pub(crate) fn store_kept(row: &[f32; FL], keep: u16, dst: &mut [f32]) {
    let mut m = keep;
    let mut o = 0;
    while m != 0 {
        dst[o] = row[m.trailing_zeros() as usize];
        o += 1;
        m &= m - 1;
    }
}

/// One fresh z-ascending dot for `L` output-channel lanes of tap `kx`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn wg_lanes<const L: usize>(
    xrow: &[f32],
    gt: &[f32],
    gt_base: usize,
    out_c: usize,
    oc0: usize,
    gw: &mut [f32],
    kd: usize,
    kx: usize,
) {
    let mut acc = [0.0f32; L];
    for (z, &xv) in xrow.iter().enumerate() {
        let lane = gt_base + z * out_c + oc0;
        for (av, &gv) in acc.iter_mut().zip(&gt[lane..lane + L]) {
            *av += xv * gv;
        }
    }
    for (l, &av) in acc.iter().enumerate() {
        gw[(oc0 + l) * kd + kx] += av;
    }
}

/// The gather register tile: `L` input channels × `N` z lanes of one
/// `(ix, iy)` input row, accumulated in `oc asc, a desc, b desc, c asc`
/// order and stored once.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ig_tile<const L: usize, const N: usize>(
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
    let mut acc = [[0.0f32; N]; L];
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
                    let gch = &gsrc[g_base..g_base + N];
                    for (l, accl) in acc.iter_mut().enumerate() {
                        let wv = w[w_base + l * kk + c];
                        for (v, &gv) in accl.iter_mut().zip(gch) {
                            *v += wv * gv;
                        }
                    }
                }
            }
        }
    }
    for (l, accl) in acc.iter().enumerate() {
        let gb = (ic0 + l) * ldo + col0 + (ix * d2 + iy) * d3 + zc;
        gi[gb..gb + N].copy_from_slice(accl);
    }
}
