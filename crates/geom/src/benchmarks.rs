//! Synthetic re-creations of the public ML-OARSMT benchmark layouts.
//!
//! The paper's Table 4 evaluates on eight public benchmarks (rt1–rt5 from
//! the OARSMT literature, ind1–ind3 industrial cases) whose original files
//! ship with \[12\]'s artifact, which is not available offline. Following the
//! substitution rule in DESIGN.md §5, each benchmark is re-created
//! synthetically with the published Hanan-graph dimensions, layer count,
//! pin count and obstacle count (down-scaled by [`SCALE`] to fit the CPU
//! budget), using a fixed per-benchmark seed so results are reproducible.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coord::GridPoint;
use crate::hanan::{HananGraph, VertexKind};

/// Down-scaling factor applied to the published benchmark dimensions and
/// pin/obstacle counts (e.g. rt3's `294×285` Hanan graph becomes `~37×36`).
pub const SCALE: usize = 8;

/// Static description of one public benchmark layout (one row of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Benchmark name (`rt1`…`rt5`, `ind1`…`ind3`).
    pub name: &'static str,
    /// Published Hanan-graph `H` dimension.
    pub paper_h: usize,
    /// Published Hanan-graph `V` dimension.
    pub paper_v: usize,
    /// Published layer count `M`.
    pub paper_m: usize,
    /// Published pin count.
    pub paper_pins: usize,
    /// Published obstacle count.
    pub paper_obstacles: usize,
}

impl BenchmarkSpec {
    /// The eight benchmarks of Table 4 with their published parameters.
    pub fn all() -> [BenchmarkSpec; 8] {
        fn spec(
            name: &'static str,
            h: usize,
            v: usize,
            m: usize,
            pins: usize,
            obstacles: usize,
        ) -> BenchmarkSpec {
            BenchmarkSpec {
                name,
                paper_h: h,
                paper_v: v,
                paper_m: m,
                paper_pins: pins,
                paper_obstacles: obstacles,
            }
        }
        [
            spec("rt1", 45, 44, 10, 25, 10),
            spec("rt2", 136, 131, 10, 100, 20),
            spec("rt3", 294, 285, 10, 250, 50),
            spec("rt4", 458, 449, 10, 500, 50),
            spec("rt5", 702, 707, 4, 1000, 1000),
            spec("ind1", 33, 28, 4, 50, 6),
            spec("ind2", 83, 191, 5, 200, 85),
            spec("ind3", 221, 223, 9, 250, 13),
        ]
    }

    /// Scaled dimensions `(h, v, m, pins, obstacles)` actually used by this
    /// reproduction. Dimensions shrink by [`SCALE`]; pins shrink with area so
    /// pin *density* is preserved; layer counts shrink by half (min 2).
    pub fn scaled(&self) -> (usize, usize, usize, usize, usize) {
        let h = (self.paper_h / SCALE).max(6);
        let v = (self.paper_v / SCALE).max(6);
        let m = (self.paper_m / 2).max(2);
        // Pins scale with the *linear* factor so the benchmarks keep enough
        // pins to exercise Steiner selection (the paper's rt2 has 100 pins;
        // an area-ratio scaling would leave 2).
        let pins = (self.paper_pins / SCALE).clamp(4, h * v / 6);
        let obstacles = (self.paper_obstacles / SCALE).clamp(2, h * v / 4);
        (h, v, m, pins, obstacles)
    }

    /// Builds the synthetic benchmark layout: a Hanan graph with the scaled
    /// dimensions, distance-like gap costs, via cost 3 (as in Table 4), and
    /// deterministically placed pins and rectangular obstacle clusters.
    pub fn build(&self) -> HananGraph {
        let (h, v, m, pins, obstacles) = self.scaled();
        let mut rng = StdRng::seed_from_u64(fxhash(self.name));
        // Distance-like gap costs: mostly 1–4 units, mimicking non-uniform
        // Hanan gaps of a physical layout.
        let x_costs = (0..h - 1).map(|_| rng.gen_range(1..=4) as f64).collect();
        let y_costs = (0..v - 1).map(|_| rng.gen_range(1..=4) as f64).collect();
        let mut g = HananGraph::with_costs(h, v, m, x_costs, y_costs, 3.0)
            .expect("scaled benchmark dims are valid");

        // Obstacles: rectangular clusters up to 3x3 on random layers.
        for _ in 0..obstacles {
            let w = rng.gen_range(1..=3usize);
            let d = rng.gen_range(1..=3usize);
            let layer = rng.gen_range(0..m);
            let h0 = rng.gen_range(0..h.saturating_sub(w).max(1));
            let v0 = rng.gen_range(0..v.saturating_sub(d).max(1));
            for dh in 0..w {
                for dv in 0..d {
                    let p = GridPoint::new(h0 + dh, v0 + dv, layer);
                    if g.in_bounds(p) {
                        let _ = g.add_obstacle_vertex(p);
                    }
                }
            }
        }

        // Pins: uniformly scattered over free vertices.
        let mut placed = 0;
        while placed < pins {
            let p = GridPoint::new(
                rng.gen_range(0..h),
                rng.gen_range(0..v),
                rng.gen_range(0..m),
            );
            if g.kind(p) == VertexKind::Empty && g.add_pin(p).is_ok() {
                placed += 1;
            }
        }
        g
    }
}

impl fmt::Display for BenchmarkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, v, m, pins, obs) = self.scaled();
        write!(
            f,
            "{}: paper {}x{}x{} ({} pins, {} obstacles) -> scaled {}x{}x{} ({} pins, {} obstacles)",
            self.name,
            self.paper_h,
            self.paper_v,
            self.paper_m,
            self.paper_pins,
            self.paper_obstacles,
            h,
            v,
            m,
            pins,
            obs
        )
    }
}

/// Stable tiny string hash for per-benchmark seeds (FNV-1a).
fn fxhash(s: &str) -> u64 {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        x ^= b as u64;
        x = x.wrapping_mul(0x1000_0000_01b3);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_are_deterministic() {
        for spec in BenchmarkSpec::all() {
            let a = spec.build();
            let b = spec.build();
            assert_eq!(a, b, "{} must be deterministic", spec.name);
            let (h, v, m, pins, _) = spec.scaled();
            assert_eq!(a.dims(), (h, v, m));
            assert_eq!(a.pins().len(), pins);
            assert!(a.pins().len() >= 3);
        }
    }

    #[test]
    fn scaled_preserves_relative_sizes() {
        let all = BenchmarkSpec::all();
        let rt1 = all[0].scaled();
        let rt5 = all[4].scaled();
        assert!(rt5.0 > rt1.0, "rt5 remains the largest rt benchmark");
        assert!(rt5.3 > rt1.3, "rt5 keeps more pins than rt1");
    }

    #[test]
    fn benchmark_names_are_unique() {
        let all = BenchmarkSpec::all();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i].name, all[j].name);
            }
        }
    }

    #[test]
    fn via_cost_is_three_as_in_table4() {
        for spec in BenchmarkSpec::all() {
            assert_eq!(spec.build().via_cost(), 3.0);
        }
    }
}
