//! Random workload generators.
//!
//! Two families of random layouts are generated here, both directly on the
//! Hanan grid (the paper's training data and test subsets are specified at
//! the Hanan-graph level, Section 3.6 and Table 1):
//!
//! * training-style layouts with `16×16…32×32` grids, 4–10 layers, edge
//!   costs 1–1000, via costs 3–5, and overlapping 1×3 / 1×4 obstacles;
//! * the randomly generated test subsets T32…T512 of Table 1, re-scaled for
//!   CPU-budget reproduction (the structure — the size ladder and the
//!   pin/obstacle growth — is preserved; see DESIGN.md §5).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coord::GridPoint;
use crate::error::GeomError;
use crate::hanan::{HananGraph, VertexKind};

/// Configuration of the random Hanan-graph generator.
///
/// Defaults mirror the paper's `16×16×4` training configuration
/// (Section 3.6): edge costs 1–1000, via cost 3–5, obstacles of length 3 or
/// 4 placed horizontally or vertically, possibly overlapping.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Horizontal grid dimension `H`.
    pub h: usize,
    /// Vertical grid dimension `V`.
    pub v: usize,
    /// Number of routing layers `M`.
    pub m: usize,
    /// Inclusive range of the number of pins.
    pub pins: (usize, usize),
    /// Inclusive range of the number of obstacle strips.
    pub obstacles: (usize, usize),
    /// Inclusive range of per-gap edge costs.
    pub edge_cost: (f64, f64),
    /// Inclusive range of the via cost.
    pub via_cost: (f64, f64),
    /// Inclusive range of obstacle strip lengths (the paper uses 3–4).
    pub obstacle_len: (usize, usize),
}

impl GeneratorConfig {
    /// The paper's `16×16×4` training configuration: 3–6 pins, 32–64
    /// obstacles, edge costs 1–1000, via cost 3–5, obstacle strips of
    /// length 3–4.
    pub fn training_16x16x4() -> Self {
        GeneratorConfig {
            h: 16,
            v: 16,
            m: 4,
            pins: (3, 6),
            obstacles: (32, 64),
            edge_cost: (1.0, 1000.0),
            via_cost: (3.0, 5.0),
            obstacle_len: (3, 4),
        }
    }

    /// A training configuration for arbitrary dimensions, scaling the
    /// obstacle count with the area exactly as the paper scales it from the
    /// `16×16×4` base (32–64 obstacles per `16·16·4` vertices).
    pub fn training(h: usize, v: usize, m: usize) -> Self {
        let base = GeneratorConfig::training_16x16x4();
        let scale = (h * v * m) as f64 / (16.0 * 16.0 * 4.0);
        GeneratorConfig {
            h,
            v,
            m,
            obstacles: (
                ((32.0 * scale).round() as usize).max(1),
                ((64.0 * scale).round() as usize).max(2),
            ),
            ..base
        }
    }

    /// Laptop-scale dimensions with the paper's cost texture: edge costs
    /// 1–1000 and via costs 3–5 (Section 3.6). High cost variance is what
    /// makes Steiner-point sharing pay off, so trainers and the Figs. 11–12
    /// experiments use this preset.
    pub fn paper_costs(h: usize, v: usize, m: usize, pins: (usize, usize)) -> Self {
        GeneratorConfig {
            edge_cost: (1.0, 1000.0),
            via_cost: (3.0, 5.0),
            ..GeneratorConfig::tiny(h, v, m, pins)
        }
    }

    /// A small, fast configuration for unit tests and laptop-scale
    /// experiments.
    pub fn tiny(h: usize, v: usize, m: usize, pins: (usize, usize)) -> Self {
        GeneratorConfig {
            h,
            v,
            m,
            pins,
            obstacles: ((h * v * m / 16).max(1), (h * v * m / 8).max(2)),
            edge_cost: (1.0, 10.0),
            via_cost: (3.0, 5.0),
            obstacle_len: (2, 3),
        }
    }

    /// Checks that every layout this configuration may draw exists: the
    /// grid is non-empty and within [`MAX_VERTICES`](crate::hanan::MAX_VERTICES),
    /// and the largest pin count fits on it.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptyDimension`] or [`GeomError::TooManyVertices`]
    ///   for a grid [`HananGraph::checked_len`] rejects.
    /// * [`GeomError::TooManyPins`] if `pins.1` exceeds the vertex count.
    pub fn validate(&self) -> Result<(), GeomError> {
        let vertices = HananGraph::checked_len(self.h, self.v, self.m)?;
        if self.pins.1 > vertices {
            return Err(GeomError::TooManyPins {
                pins: self.pins.1,
                vertices,
            });
        }
        Ok(())
    }
}

impl fmt::Display for GeneratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} grid, {}..={} pins, {}..={} obstacles",
            self.h, self.v, self.m, self.pins.0, self.pins.1, self.obstacles.0, self.obstacles.1
        )
    }
}

/// A seeded random generator of routing cases (Hanan graphs with pins and
/// obstacles).
///
/// ```
/// use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
///
/// let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (3, 5)), 42);
/// let g = gen.generate();
/// assert!(g.pins().len() >= 3 && g.pins().len() <= 5);
/// ```
#[derive(Debug, Clone)]
pub struct CaseGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl CaseGenerator {
    /// Creates a generator with the given configuration and RNG seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        CaseGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates one random routing case.
    ///
    /// Obstacles are placed before pins, and pins are drawn only from empty
    /// vertices, so every generated case is well-formed by construction.
    /// When the obstacles leave fewer empty vertices than the drawn pin
    /// count, they are redrawn from the same random stream with half as
    /// many strips, until the pins fit (with no strips they always do).
    /// A case whose pins fit on the first draw never takes that branch.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GeneratorConfig::validate`].
    pub fn generate(&mut self) -> HananGraph {
        let c = self.config.clone();
        if let Err(e) = c.validate() {
            panic!("invalid generator configuration: {e}");
        }
        let x_costs = (0..c.h - 1)
            .map(|_| {
                self.rng
                    .gen_range(c.edge_cost.0..=c.edge_cost.1)
                    .round()
                    .max(1.0)
            })
            .collect();
        let y_costs = (0..c.v - 1)
            .map(|_| {
                self.rng
                    .gen_range(c.edge_cost.0..=c.edge_cost.1)
                    .round()
                    .max(1.0)
            })
            .collect();
        let via = self.rng.gen_range(c.via_cost.0..=c.via_cost.1).round();
        let mut g = HananGraph::with_costs(c.h, c.v, c.m, x_costs, y_costs, via)
            .expect("generator config produces valid grids");

        let mut n_obstacles = self.rng.gen_range(c.obstacles.0..=c.obstacles.1);
        self.place_obstacles(&mut g, n_obstacles);
        let n_pins = self.rng.gen_range(c.pins.0..=c.pins.1);
        while g.len() - g.obstacle_count() < n_pins {
            n_obstacles /= 2;
            g = HananGraph::with_costs(
                c.h,
                c.v,
                c.m,
                g.x_costs().to_vec(),
                g.y_costs().to_vec(),
                via,
            )
            .expect("the same costs built the first grid");
            self.place_obstacles(&mut g, n_obstacles);
        }

        // At least as many empty vertices as pins still to place, so the
        // rejection sampling ends.
        let mut placed = 0;
        while placed < n_pins {
            let p = GridPoint::new(
                self.rng.gen_range(0..c.h),
                self.rng.gen_range(0..c.v),
                self.rng.gen_range(0..c.m),
            );
            if g.kind(p) == VertexKind::Empty && g.add_pin(p).is_ok() {
                placed += 1;
            }
        }
        g
    }

    /// Draws `n` obstacle strips onto `g`.
    fn place_obstacles(&mut self, g: &mut HananGraph, n: usize) {
        let c = &self.config;
        for _ in 0..n {
            let len = self.rng.gen_range(c.obstacle_len.0..=c.obstacle_len.1);
            let horizontal = self.rng.gen_bool(0.5);
            let m = self.rng.gen_range(0..c.m);
            let (max_h, max_v) = if horizontal {
                (c.h.saturating_sub(len), c.v - 1)
            } else {
                (c.h - 1, c.v.saturating_sub(len))
            };
            let h0 = self.rng.gen_range(0..=max_h);
            let v0 = self.rng.gen_range(0..=max_v);
            for k in 0..len {
                let p = if horizontal {
                    GridPoint::new(h0 + k, v0, m)
                } else {
                    GridPoint::new(h0, v0 + k, m)
                };
                if g.in_bounds(p) {
                    // Overlaps are allowed (paper: obstacles may overlap to
                    // form more complicated shapes).
                    let _ = g.add_obstacle_vertex(p);
                }
            }
        }
    }

    /// Generates `n` random routing cases.
    pub fn generate_many(&mut self, n: usize) -> Vec<HananGraph> {
        (0..n).map(|_| self.generate()).collect()
    }
}

/// Specification of one randomly generated test subset (one row of the
/// paper's Table 1), with both the paper's original parameters and the
/// scaled parameters used by this reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSubsetSpec {
    /// Subset name, e.g. `"T32"`.
    pub name: &'static str,
    /// Paper dimensions `(H, V, M-range)` for reference.
    pub paper_dims: (usize, usize, (usize, usize)),
    /// Paper layout count for reference.
    pub paper_layouts: usize,
    /// Scaled `H` used by this reproduction.
    pub h: usize,
    /// Scaled `V`.
    pub v: usize,
    /// Scaled layer range (inclusive).
    pub m: (usize, usize),
    /// Scaled pin-count range (inclusive).
    pub pins: (usize, usize),
    /// Scaled obstacle-count range (inclusive).
    pub obstacles: (usize, usize),
    /// Number of layouts evaluated per subset in this reproduction.
    pub layouts: usize,
}

impl TestSubsetSpec {
    /// The seven test subsets of Table 1, re-scaled for CPU-budget
    /// reproduction. The ladder structure is preserved: each rung roughly
    /// doubles one grid dimension, and pin/obstacle counts grow with area
    /// exactly as in the paper (pins ≈ `H·V/102`, obstacles ≈ `H·V/8 …
    /// H·V·5/8` per the paper's Table 1 ratios).
    pub fn ladder() -> Vec<TestSubsetSpec> {
        fn rung(
            name: &'static str,
            paper: (usize, usize, (usize, usize), usize),
            h: usize,
            v: usize,
            layouts: usize,
        ) -> TestSubsetSpec {
            let area = h * v;
            TestSubsetSpec {
                name,
                paper_dims: (paper.0, paper.1, paper.2),
                paper_layouts: paper.3,
                h,
                v,
                m: (2, 4),
                pins: ((area / 128).max(3), (area / 32).max(4)),
                obstacles: ((area / 8).max(4), (area / 2).max(8)),
                layouts,
            }
        }
        vec![
            rung("T32", (32, 32, (4, 10), 50_000), 8, 8, 120),
            rung("T64", (64, 64, (4, 10), 50_000), 12, 12, 100),
            rung("T128", (128, 128, (4, 10), 50_000), 16, 16, 60),
            rung("T128_2", (128, 256, (4, 10), 50_000), 16, 24, 40),
            rung("T256", (256, 256, (4, 10), 16_000), 24, 24, 20),
            rung("T256_2", (256, 512, (4, 10), 1_000), 24, 40, 16),
            rung("T512", (512, 512, (4, 10), 360), 40, 40, 12),
        ]
    }

    /// A [`CaseGenerator`] drawing layouts from this subset. Layer count is
    /// drawn uniformly from the subset's range by regenerating the config
    /// per case; for simplicity the midpoint of the range is used here and
    /// callers wanting the full range can vary `m` themselves.
    pub fn generator(&self, seed: u64) -> CaseGenerator {
        let m = (self.m.0 + self.m.1) / 2;
        CaseGenerator::new(
            GeneratorConfig {
                h: self.h,
                v: self.v,
                m,
                pins: self.pins,
                obstacles: self.obstacles,
                edge_cost: (1.0, 1000.0),
                via_cost: (3.0, 5.0),
                obstacle_len: (3, 4),
            },
            seed,
        )
    }
}

impl fmt::Display for TestSubsetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} (m {}..={}), pins {}..={}, obstacles {}..={}, {} layouts",
            self.name,
            self.h,
            self.v,
            self.m.0,
            self.m.1,
            self.pins.0,
            self.pins.1,
            self.obstacles.0,
            self.obstacles.1,
            self.layouts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the case text of every layout `config` draws for
    /// `seeds`, one generator per seed.
    fn layouts_hash(config: &GeneratorConfig, seeds: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &seed in seeds {
            let text = crate::io::write_case(&CaseGenerator::new(config.clone(), seed).generate());
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Layouts that generated without a redraw keep their exact text
    /// (hashes recorded before the redraw branch existed).
    #[test]
    fn layouts_that_fit_first_time_are_unchanged() {
        let cases = [
            (
                GeneratorConfig::tiny(8, 8, 2, (3, 6)),
                &[0u64, 1, 2, 3, 4, 5, 6, 7][..],
                0x61a8_f295_d5f2_f85f,
            ),
            (
                GeneratorConfig::paper_costs(2, 2, 1, (2, 2)),
                &[2, 5, 6, 7, 8],
                0x73e1_4ef5_8a7b_6a3d,
            ),
            (
                GeneratorConfig::training_16x16x4(),
                &[1, 2],
                0xf31c_9e17_6ff3_6ab4,
            ),
            (
                GeneratorConfig::paper_costs(12, 12, 2, (3, 6)),
                &[9, 10, 11],
                0xa60e_fc20_cd0a_7c5f,
            ),
        ];
        for (cfg, seeds, want) in cases {
            assert_eq!(layouts_hash(&cfg, seeds), want, "{cfg}");
        }
    }

    /// The tiny configurations whose obstacles can cover every vertex:
    /// `oarsmt gen 2 2 1 2 SEED` (seeds 1, 3 and 4 used to panic) and the
    /// `tiny` 2–3 × 2–3 × 1 grids with 2–3 pins.
    #[test]
    fn congested_tiny_grids_redraw_their_obstacles() {
        let mut configs = vec![GeneratorConfig::paper_costs(2, 2, 1, (2, 2))];
        for h in 2..=3 {
            for v in 2..=3 {
                configs.push(GeneratorConfig::tiny(h, v, 1, (2, 3)));
            }
        }
        for cfg in configs {
            for seed in 0..64 {
                let g = CaseGenerator::new(cfg.clone(), seed).generate();
                let pins = g.pins().len();
                assert!(
                    (cfg.pins.0..=cfg.pins.1).contains(&pins),
                    "{cfg} seed {seed}"
                );
                for &p in g.pins() {
                    assert_eq!(g.kind(p), VertexKind::Pin);
                }
                assert_eq!(g, CaseGenerator::new(cfg.clone(), seed).generate());
            }
        }
    }

    #[test]
    fn configs_whose_pins_cannot_fit_are_rejected() {
        assert_eq!(
            GeneratorConfig::paper_costs(1, 2, 1, (3, 3)).validate(),
            Err(GeomError::TooManyPins {
                pins: 3,
                vertices: 2
            })
        );
        assert_eq!(
            GeneratorConfig::tiny(0, 2, 1, (2, 2)).validate(),
            Err(GeomError::EmptyDimension { dims: (0, 2, 1) })
        );
        assert_eq!(
            GeneratorConfig::paper_costs(1, 2, 1, (2, 2)).validate(),
            Ok(())
        );
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::tiny(8, 8, 2, (3, 6));
        let a = CaseGenerator::new(cfg.clone(), 7).generate();
        let b = CaseGenerator::new(cfg.clone(), 7).generate();
        let c = CaseGenerator::new(cfg, 8).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_cases_are_well_formed() {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(10, 10, 3, (3, 6)), 1);
        for g in gen.generate_many(20) {
            assert!(g.pins().len() >= 3 && g.pins().len() <= 6);
            for &p in g.pins() {
                assert_eq!(g.kind(p), VertexKind::Pin);
            }
            assert!(g.via_cost() >= 3.0 && g.via_cost() <= 5.0);
            for &c in g.x_costs().iter().chain(g.y_costs()) {
                assert!((1.0..=10.0).contains(&c));
            }
        }
    }

    #[test]
    fn training_config_scales_obstacles_with_area() {
        let base = GeneratorConfig::training_16x16x4();
        let double = GeneratorConfig::training(32, 16, 4);
        assert_eq!(double.obstacles.0, base.obstacles.0 * 2);
        assert_eq!(double.obstacles.1, base.obstacles.1 * 2);
    }

    #[test]
    fn ladder_has_seven_rungs_with_growing_area() {
        let ladder = TestSubsetSpec::ladder();
        assert_eq!(ladder.len(), 7);
        for w in ladder.windows(2) {
            assert!(w[1].h * w[1].v >= w[0].h * w[0].v);
        }
        assert_eq!(ladder[0].name, "T32");
        assert_eq!(ladder[6].name, "T512");
    }

    #[test]
    fn ladder_generators_produce_cases() {
        for spec in TestSubsetSpec::ladder().into_iter().take(2) {
            let g = spec.generator(3).generate();
            assert_eq!(g.h(), spec.h);
            assert_eq!(g.v(), spec.v);
            assert!(g.pins().len() >= spec.pins.0);
        }
    }
}
