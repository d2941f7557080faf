//! Convolution register tiles and runtime kernel-lane dispatch.
//!
//! The convolution lowering in [`conv3d`](crate::conv3d) funnels every
//! FLOP through three register tiles: the padded-flat forward tile (`MR`
//! output channels × `FL` flat lanes), the weight-gradient lanes (`WL`
//! output channels) and the input-gradient gather tile (`ICT` input
//! channels × `NR` z lanes). This module owns those tiles in three lanes:
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
//! resolves the lane once from [`host_lane`] — a cached
//! `is_x86_feature_detected!` probe — and the kernels branch on that
//! plain [`Lane`]. Because every lane produces the same bits, the choice
//! is invisible in every result; the telemetry counter `gemm_kernel_simd`
//! records which lane ran, making the dispatch observable in tests and
//! bench artifacts.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;
pub(crate) mod scalar;

/// Output channels per forward register tile.
pub(crate) const MR: usize = 4;
/// Flat lanes per forward register tile: two `__m256` or sixteen scalar
/// accumulators per output channel.
pub(crate) const FL: usize = 16;
/// z lanes per input-gradient gather tile.
pub(crate) const NR: usize = 8;
/// Output-channel lanes of the weight-gradient kernel.
pub(crate) const WL: usize = 8;
/// Input-channel lanes of the input-gradient gather (share each padded
/// gradient-row read across `ICT` register accumulator rows).
pub(crate) const ICT: usize = 4;

/// The mask of lanes `0 .. n` of a flat tile (`n ≤ FL`).
#[inline(always)]
pub(crate) const fn low_lanes(n: usize) -> u16 {
    if n >= FL {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// The taps a forward tile reads: in each input channel's block of `per`
/// taps, the contiguous run `lo .. hi`. A conv's blocks are its `k³` taps
/// in `(a, b, c)` order, so the layer planes `a` whose input plane lies
/// inside the grid are one run `a_lo·k² .. a_hi·k²`; the taps outside it
/// read only the zero halo and are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Taps {
    pub(crate) per: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl Taps {
    /// Every tap of a `kd`-tap weight row, as one run.
    pub(crate) fn all(kd: usize) -> Taps {
        Taps {
            per: kd.max(1),
            lo: 0,
            hi: kd,
        }
    }
}

/// A kernel lane. Ordered narrowest first: a host that runs a lane runs
/// every narrower one, and every lane computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The scalar tiles: every build and host.
    Scalar,
    /// The AVX2 tiles (`simd` feature, `x86_64`, CPU `avx2`).
    Avx2,
}

impl Lane {
    /// Every lane, narrowest first.
    pub const ALL: [Lane; 2] = [Lane::Scalar, Lane::Avx2];

    /// The lane's name, as bench artifacts and run manifests record it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Avx2 => "avx2",
        }
    }

    /// The forward-tile work of one span of `len` lanes, in tile steps:
    /// `FL`-lane tiles on the wide lane (the tail tile costs a full one);
    /// on the scalar lane 4-lane steps, where each lane of a width's
    /// remainder mod 4 is a single-lane step that costs as much as a
    /// 4-lane one.
    pub(crate) fn span_cost(self, len: usize) -> usize {
        match self {
            Lane::Scalar => len / 4 + len % 4,
            Lane::Avx2 => len.div_ceil(FL),
        }
    }

    /// The lanes this build can run on this host, narrowest first (always
    /// starts with [`Lane::Scalar`]).
    pub fn available() -> impl Iterator<Item = Lane> {
        let widest = host_lane();
        Lane::ALL.into_iter().filter(move |&l| l <= widest)
    }
}

/// The widest kernel lane this build can run on this host. The CPUID probe
/// runs once and is cached in a process-wide dispatch table (`OnceLock`),
/// so creating a workspace pays one atomic load, not a CPUID. Without the
/// `simd` feature, or off `x86_64`, this is [`Lane::Scalar`].
#[must_use]
pub fn host_lane() -> Lane {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static LANE: OnceLock<Lane> = OnceLock::new();
        *LANE.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                Lane::Avx2
            } else {
                Lane::Scalar
            }
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        Lane::Scalar
    }
}

/// Dispatches the padded-flat forward tile: `M` output channels ×
/// `width ≤ FL` lanes, bias first, the taps of `taps` strictly ascending
/// per element. Lane `j` accumulates `xp[off[kx] + src + j]`; the lanes
/// set in `keep` are stored, packed in lane order, at
/// `out[(oc0 + i)·ldo + out_base ..]`, and every other lane is computed
/// and dropped. `width < FL` only on the
/// tail tile of a span, whose missing lanes are never read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn flat_tile<const M: usize>(
    lane: Lane,
    xp: &[f32],
    off: &[usize],
    taps: Taps,
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
    debug_assert!(width > 0 && width <= FL);
    debug_assert!(u32::from(keep) >> width == 0);
    debug_assert!(taps.lo <= taps.hi && taps.hi <= taps.per && off.len().is_multiple_of(taps.per));
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match lane {
        Lane::Avx2 if width == FL => {
            // SAFETY: the workspace holds `Lane::Avx2` only when
            // `host_lane()` observed `avx2` on the running CPU.
            unsafe {
                avx2::flat_tile::<M, true>(
                    xp, off, taps, src, width, w, bias, oc0, out, ldo, out_base, keep,
                );
            }
            return;
        }
        Lane::Avx2 => {
            // SAFETY: as above.
            unsafe {
                avx2::flat_tile::<M, false>(
                    xp, off, taps, src, width, w, bias, oc0, out, ldo, out_base, keep,
                );
            }
            return;
        }
        Lane::Scalar => {}
    }
    let _ = lane;
    scalar::flat_tile::<M>(
        xp, off, taps, src, width, w, bias, oc0, out, ldo, out_base, keep,
    );
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
        // SAFETY: `simd` is only true when the workspace's lane is AVX2,
        // i.e. `host_lane()` observed `avx2` on the running CPU.
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
        // SAFETY: `simd` is only true when the workspace's lane is AVX2,
        // i.e. `host_lane()` observed `avx2` on the running CPU.
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
    //! Every wide lane == the scalar lane, bit for bit, per dispatcher.
    //! Each test runs the dispatcher on the same random inputs once per
    //! lane the host has, over full tiles, ragged widths and keep masks,
    //! and empty reductions (`kd = 0`). On a host or build without a wide
    //! lane there is nothing to compare.

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

    /// The wide lanes of this host (every available lane but scalar).
    fn wide_lanes() -> impl Iterator<Item = Lane> {
        Lane::available().filter(|&l| l != Lane::Scalar)
    }

    /// Also names the host's lanes (`ci.sh` prints them with
    /// `--nocapture`): every lane test below runs on each of them.
    #[test]
    fn host_lanes_are_ordered_and_start_scalar() {
        let lanes: Vec<Lane> = Lane::available().collect();
        let names: Vec<&str> = lanes.iter().map(|l| l.name()).collect();
        println!("kernel lanes on this host: {}", names.join(" "));
        assert_eq!(lanes[0], Lane::Scalar);
        assert_eq!(*lanes.last().expect("non-empty"), host_lane());
        assert!(lanes.windows(2).all(|p| p[0] < p[1]));
        let names: Vec<&str> = Lane::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names, ["scalar", "avx2"]);
    }

    fn flat_case<const M: usize>(kd: usize, taps: Taps, width: usize, keep: u16, seed: u64) {
        // The input ends exactly at the last lane the tile may read, so an
        // over-read on the tail tile would leave the slice.
        let (oc0, src, out_base) = (1, 3, 2);
        let off: Vec<usize> = (0..kd).map(|k| (k * 5) % 13).collect();
        let xp = values(seed, 12 + src + width);
        let w = values(seed ^ 1, (oc0 + M) * kd);
        let bias = values(seed ^ 2, oc0 + M);
        let ldo = out_base + keep.count_ones() as usize + 3;
        let fresh = values(seed ^ 3, (oc0 + M) * ldo);
        let run = |lane: Lane| {
            let mut out = fresh.clone();
            flat_tile::<M>(
                lane, &xp, &off, taps, src, width, &w, &bias, oc0, &mut out, ldo, out_base, keep,
            );
            out
        };
        let scalar = run(Lane::Scalar);
        for lane in wide_lanes() {
            assert_bits(
                &run(lane),
                &scalar,
                &format!(
                    "{} flat_tile {M} kd {kd} {taps:?} width {width} keep {keep:#x}",
                    lane.name()
                ),
            );
        }
    }

    /// Every tap, and the sub-runs a conv plane reads: the `k = 3`
    /// blocks' first, last and middle layer planes, the `k = 5` blocks'
    /// middle plane, and an empty run.
    #[test]
    fn flat_tile_wide_equals_scalar_bitwise() {
        let runs = [
            (0usize, Taps::all(0)),
            (1, Taps::all(1)),
            (7, Taps::all(7)),
            (27, Taps::all(27)),
            (81, Taps::all(81)),
            (
                27,
                Taps {
                    per: 27,
                    lo: 9,
                    hi: 27,
                },
            ),
            (
                54,
                Taps {
                    per: 27,
                    lo: 0,
                    hi: 18,
                },
            ),
            (
                81,
                Taps {
                    per: 27,
                    lo: 9,
                    hi: 18,
                },
            ),
            (
                250,
                Taps {
                    per: 125,
                    lo: 50,
                    hi: 75,
                },
            ),
            (
                27,
                Taps {
                    per: 27,
                    lo: 9,
                    hi: 9,
                },
            ),
        ];
        for (i, (kd, taps)) in runs.into_iter().enumerate() {
            let seed = 0xF00 + i as u64;
            for width in [1usize, 5, 8, 9, 15, FL] {
                let all = low_lanes(width);
                // Every kept lane, junk lanes in the middle (a padded row
                // boundary), and only the odd lanes.
                for keep in [all, all & 0xF3CF, all & 0xAAAA] {
                    flat_case::<MR>(kd, taps, width, keep, seed);
                    flat_case::<1>(kd, taps, width, keep, seed);
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
        if host_lane() == Lane::Scalar {
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
        if host_lane() == Lane::Scalar {
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
