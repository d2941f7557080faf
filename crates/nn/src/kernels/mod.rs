//! GEMM micro-kernel family and runtime kernel dispatch.
//!
//! The convolution lowering in [`conv3d`](crate::conv3d) funnels every
//! FLOP through four register tiles: the forward tile (`MR` output
//! channels × `NR` z lanes), the panel GEMM tile (same geometry over a
//! materialized patch panel), the weight-gradient lanes (`WL` output
//! channels) and the input-gradient gather tile (`ICT` input channels ×
//! `NR` z lanes). This module owns those tiles in two lanes:
//!
//! * `scalar` — bit-identical to the naive seven-loop oracle (the
//!   per-element accumulation-order contract of DESIGN.md §9), and the
//!   fallback on every host without AVX2.
//! * `avx2` — AVX2 ports of the same tiles, compiled under the default
//!   `simd` cargo feature on `x86_64`. Each step is a separate multiply
//!   then add, in the scalar tile's per-element order, so the wide lane
//!   is bit-identical to the scalar one — not an approximation of it.
//!
//! Dispatch is automatic: [`NnWorkspace::new`](crate::workspace::NnWorkspace::new)
//! resolves the lane once from [`simd_available`] — a cached
//! `is_x86_feature_detected!` probe — and the kernels branch on that
//! plain `bool`. Because both lanes produce the same bits, the choice is
//! invisible in every result; the telemetry counter `gemm_kernel_simd`
//! records each conv kernel entry that ran the wide lane, making the
//! dispatch observable in tests and bench artifacts.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;
pub(crate) mod scalar;

/// Micro-kernel rows (output channels per forward register tile).
pub(crate) const MR: usize = 4;
/// Micro-kernel columns (z lanes per register tile).
pub(crate) const NR: usize = 8;
/// Output-channel lanes of the weight-gradient kernel.
pub(crate) const WL: usize = 8;
/// Input-channel lanes of the input-gradient gather (share each padded
/// gradient-row read across `ICT` register accumulator rows).
pub(crate) const ICT: usize = 4;

/// Whether the AVX2 kernel lane can run on this build and host: `true`
/// iff the `simd` feature is compiled in, the target is `x86_64`, and the
/// CPU reports `avx2`. The CPUID probe runs once and is cached in a
/// process-wide dispatch table (`OnceLock`), so creating a workspace pays
/// one atomic load, not a CPUID.
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Dispatches the forward register tile: `M` output channels × `N` z
/// lanes, bias first, K strictly ascending per element. The AVX2 lane
/// runs only for the full `MR`×`NR` geometry; ragged edges always take
/// the scalar tile (their per-element order is identical either way).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fwd_tile<const M: usize, const N: usize>(
    simd: bool,
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd && M == MR && N == NR {
        // SAFETY: `simd` is only true when the workspace observed
        // `simd_available()`, i.e. the running CPU supports AVX2.
        unsafe { avx2::fwd_tile_4x8(xp, off, src_base, w, bias, oc0, out, ldo, out_base) };
        return;
    }
    let _ = simd;
    scalar::fwd_tile::<M, N>(xp, off, src_base, w, bias, oc0, out, ldo, out_base);
}

/// Dispatches the whole panel/flat GEMM
/// (`out[i][col0 + j] = bias[i] + Σ_k a[i][k]·b[k][j]`, `i < m`,
/// `j < n`). The two lanes traverse the output differently — scalar walks
/// `MR`×`NR` tiles row-block-major (the bit-identity layout), the AVX2
/// lane walks 16-column panels column-major so each `kd`×16 slice of `b`
/// stays L1-resident across every row block — but every output element is
/// still one bias-first K-ascending accumulation in both.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias(
    simd: bool,
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        // SAFETY: `simd` is only true when the workspace observed
        // `simd_available()`, i.e. the running CPU supports AVX2.
        unsafe { avx2::gemm_bias_wide(m, kd, n, a, bias, b, ldb, out, ldo, col0) };
        return;
    }
    let _ = simd;
    scalar::gemm_bias(m, kd, n, a, bias, b, ldb, out, ldo, col0);
}

/// Dispatches the weight-gradient lanes: one fresh z-ascending dot for
/// `L` output-channel lanes of tap `kx`. The AVX2 lane runs only for the
/// full `WL`-lane geometry **and** a z run deep enough (`ICT` taps) to
/// amortize its horizontal spill — on the shallow pooled grids the spill
/// costs more than the wide multiply-adds save.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn wg_lanes<const L: usize>(
    simd: bool,
    xrow: &[f32],
    gt: &[f32],
    gt_base: usize,
    out_c: usize,
    oc0: usize,
    gw: &mut [f32],
    kd: usize,
    kx: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd && L == WL && xrow.len() >= ICT {
        // SAFETY: `simd` is only true when the workspace observed
        // `simd_available()`, i.e. the running CPU supports AVX2.
        unsafe { avx2::wg_lanes_8(xrow, gt, gt_base, out_c, oc0, gw, kd, kx) };
        return;
    }
    let _ = simd;
    scalar::wg_lanes::<L>(xrow, gt, gt_base, out_c, oc0, gw, kd, kx);
}

/// Dispatches the input-gradient gather tile: `L` input channels × `N` z
/// lanes of one `(ix, iy)` input row, accumulated in the naive
/// `oc asc, a desc, b desc, c asc` order. The AVX2 lane runs only for
/// the full `ICT`×`NR` geometry.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ig_tile<const L: usize, const N: usize>(
    simd: bool,
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd && L == ICT && N == NR {
        // SAFETY: `simd` is only true when the workspace observed
        // `simd_available()`, i.e. the running CPU supports AVX2.
        unsafe {
            avx2::ig_tile_4x8(
                gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ix, iy, zc, ldo,
                col0,
            );
        }
        return;
    }
    let _ = simd;
    scalar::ig_tile::<L, N>(
        gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, w, gi, ic0, ix, iy, zc, ldo, col0,
    );
}

#[cfg(test)]
mod tests {
    //! Wide lane == scalar lane, bit for bit, per dispatcher. Each test
    //! runs the dispatcher twice on the same random inputs, once with the
    //! wide lane requested and once forced scalar, over full tiles,
    //! ragged `m`/`n` edges and empty reductions (`kd = 0`). On a host or
    //! build without the wide lane there is nothing to compare.

    use super::*;

    /// Deterministic values in `[-1, 1)` (splitmix64 bits), with every
    /// seventh one a `-0.0` to exercise signed-zero handling.
    fn values(seed: u64, len: usize) -> Vec<f32> {
        let mut z = seed;
        (0..len)
            .map(|i| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                if i % 7 == 6 {
                    -0.0
                } else {
                    (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                }
            })
            .collect()
    }

    fn assert_bits(wide: &[f32], scalar: &[f32], what: &str) {
        assert_eq!(wide.len(), scalar.len(), "{what}: length");
        for (i, (w, s)) in wide.iter().zip(scalar).enumerate() {
            assert_eq!(
                w.to_bits(),
                s.to_bits(),
                "{what}: element {i} ({w:e} vs {s:e})"
            );
        }
    }

    fn fwd_case<const M: usize, const N: usize>(kd: usize, seed: u64) {
        let (oc0, src_base, out_base, ldo) = (1, 3, 2, N + 5);
        let off: Vec<usize> = (0..kd).map(|k| (k * 5) % 13).collect();
        let xp = values(seed, 13 + src_base + N);
        let w = values(seed ^ 1, (oc0 + M) * kd);
        let bias = values(seed ^ 2, oc0 + M);
        let fresh = values(seed ^ 3, (oc0 + M) * ldo);
        let run = |simd: bool| {
            let mut out = fresh.clone();
            fwd_tile::<M, N>(
                simd, &xp, &off, src_base, &w, &bias, oc0, &mut out, ldo, out_base,
            );
            out
        };
        assert_bits(
            &run(true),
            &run(false),
            &format!("fwd_tile {M}x{N} kd {kd}"),
        );
    }

    #[test]
    fn fwd_tile_wide_equals_scalar_bitwise() {
        if !simd_available() {
            return;
        }
        for (i, kd) in [0usize, 1, 7, 27, 81].into_iter().enumerate() {
            let seed = 0xF00 + i as u64;
            fwd_case::<MR, NR>(kd, seed);
            fwd_case::<3, NR>(kd, seed);
            fwd_case::<MR, 5>(kd, seed);
            fwd_case::<1, 1>(kd, seed);
        }
    }

    #[test]
    fn gemm_bias_wide_equals_scalar_bitwise() {
        if !simd_available() {
            return;
        }
        let mut seed = 0x6E33;
        for m in [1usize, 3, 4, 5, 8, 9] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
                for kd in [0usize, 1, 6, 27] {
                    seed += 1;
                    let (ldb, col0) = (n + 3, 2);
                    let ldo = col0 + n + 1;
                    let a = values(seed, m * kd);
                    let bias = values(seed ^ 1, m);
                    let b = values(seed ^ 2, kd * ldb);
                    let fresh = values(seed ^ 3, m * ldo);
                    let run = |simd: bool| {
                        let mut out = fresh.clone();
                        gemm_bias(simd, m, kd, n, &a, &bias, &b, ldb, &mut out, ldo, col0);
                        out
                    };
                    assert_bits(
                        &run(true),
                        &run(false),
                        &format!("gemm_bias {m}x{n} kd {kd}"),
                    );
                }
            }
        }
    }

    fn wg_case<const L: usize>(z_len: usize, seed: u64) {
        let (out_c, oc0, kd, kx, gt_base) = (L + 3, 2, 5, 3, 4);
        let xrow = values(seed, z_len);
        let gt = values(seed ^ 1, gt_base + z_len * out_c + oc0 + L);
        let fresh = values(seed ^ 2, (oc0 + L) * kd);
        let run = |simd: bool| {
            let mut gw = fresh.clone();
            wg_lanes::<L>(simd, &xrow, &gt, gt_base, out_c, oc0, &mut gw, kd, kx);
            gw
        };
        assert_bits(&run(true), &run(false), &format!("wg_lanes {L} z {z_len}"));
    }

    #[test]
    fn wg_lanes_wide_equals_scalar_bitwise() {
        if !simd_available() {
            return;
        }
        for (i, z_len) in [0usize, 1, 3, 4, 5, 8, 17, 64].into_iter().enumerate() {
            let seed = 0x3617 + i as u64;
            wg_case::<WL>(z_len, seed);
            wg_case::<3>(z_len, seed);
        }
    }

    fn ig_case<const L: usize, const N: usize>(k: usize, d3: usize, seed: u64) {
        let (out_c, in_c, ic0, d1, d2, col0) = (3, L + 2, 1, 3, 4, 5);
        let p = k / 2;
        let (pd1, pd2, pd3) = (d1 + 2 * p, d2 + 2 * p, d3 + 2 * p);
        let ldo = col0 + d1 * d2 * d3 + 3;
        let gsrc = values(seed, out_c * pd1 * pd2 * pd3);
        let w = values(seed ^ 1, out_c * in_c * k * k * k);
        let fresh = values(seed ^ 2, in_c * ldo);
        let run = |simd: bool| {
            let mut gi = fresh.clone();
            for ix in 0..d1 {
                for iy in 0..d2 {
                    let mut zc = 0;
                    while zc + N <= d3 {
                        ig_tile::<L, N>(
                            simd, &gsrc, out_c, in_c, k, p, d1, d2, d3, pd1, pd2, pd3, &w, &mut gi,
                            ic0, ix, iy, zc, ldo, col0,
                        );
                        zc += N;
                    }
                }
            }
            gi
        };
        assert_bits(
            &run(true),
            &run(false),
            &format!("ig_tile {L}x{N} k {k} d3 {d3}"),
        );
    }

    #[test]
    fn ig_tile_wide_equals_scalar_bitwise() {
        if !simd_available() {
            return;
        }
        for (i, (k, d3)) in [(3usize, 16usize), (3, 21), (1, 8), (5, 9)]
            .into_iter()
            .enumerate()
        {
            let seed = 0x1617 + i as u64;
            ig_case::<ICT, NR>(k, d3, seed);
            ig_case::<3, NR>(k, d3, seed);
            ig_case::<ICT, 5>(k, d3, seed);
        }
    }
}
