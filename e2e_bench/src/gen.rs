//! The benchmark's own seeded layout generator.
//!
//! Inputs are drawn from a SplitMix64 stream owned by the benchmark, not
//! from the product's `CaseGenerator`, so a change to the product cannot
//! change what the benchmark routes. The rung parameters reproduce the
//! Table 1 ladder of the repository (`TestSubsetSpec::ladder`): `M = 3`,
//! gap costs 1–1000, via cost 3–5, obstacle strips of length 3–4, pins
//! and obstacles growing with area.

use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_graph::DIAL_MAX_EDGE_COST;

use crate::audit::routable;

/// SplitMix64 (Steele, Lea and Flood 2014): a tiny, fully specified PRNG,
/// so the inputs never depend on another crate's generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo + 1) as u128;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as usize
    }
}

/// Derives an independent stream seed from a parent seed and an index.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// One layout family: grid size plus inclusive pin, obstacle-strip and
/// strip-length ranges.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub h: usize,
    pub v: usize,
    pub m: usize,
    pub pins: (usize, usize),
    pub obstacles: (usize, usize),
    pub strip_len: (usize, usize),
}

/// A Table 1 rung of the repository's ladder at `h × v`, three layers.
const fn ladder_rung(name: &'static str, h: usize, v: usize) -> Rung {
    let area = h * v;
    Rung {
        name,
        h,
        v,
        m: 3,
        pins: (max(area / 128, 3), max(area / 32, 4)),
        obstacles: (max(area / 8, 4), max(area / 2, 8)),
        strip_len: (3, 4),
    }
}

/// The trainer's own layout family at `h × v × 2` (the product's
/// `GeneratorConfig::paper_costs` with 3–6 pins).
const fn train_rung(name: &'static str, h: usize, v: usize) -> Rung {
    let vol = h * v * 2;
    Rung {
        name,
        h,
        v,
        m: 2,
        pins: (3, 6),
        obstacles: (max(vol / 16, 1), max(vol / 8, 2)),
        strip_len: (2, 3),
    }
}

const fn max(a: usize, b: usize) -> usize {
    if a > b {
        a
    } else {
        b
    }
}

pub const T32: Rung = ladder_rung("T32", 8, 8);
pub const T64: Rung = ladder_rung("T64", 12, 12);
pub const T128: Rung = ladder_rung("T128", 16, 16);
pub const T128_2: Rung = ladder_rung("T128_2", 16, 24);
pub const T256: Rung = ladder_rung("T256", 24, 24);
pub const T256_2: Rung = ladder_rung("T256_2", 24, 40);
pub const T512: Rung = ladder_rung("T512", 40, 40);
pub const TRAIN8: Rung = train_rung("train8", 8, 8);
pub const TRAIN12: Rung = train_rung("train12", 12, 12);

/// A pinned set of layouts: layout `i` belongs to rung `i % rungs.len()`
/// and is a pure function of `(seed, i)`.
///
/// Pin and obstacle counts are stratified over each rung's range instead of
/// drawn at random, so the mix of easy and hard layouts is the same for
/// every seed and a percentile over the set moves little between seeds;
/// the seed still draws every cost, obstacle position and pin position.
#[derive(Debug, Clone)]
pub struct LayoutSet {
    pub rungs: &'static [Rung],
    pub layouts: usize,
    /// Database-unit scale: every gap and via cost times 8 (see [`to_dbu`]).
    pub dbu: bool,
    pub seed: u64,
}

impl LayoutSet {
    /// Layout `i`. Draws are retried until the benchmark's own BFS finds
    /// every pin reachable, so no layout in a set is unroutable; at
    /// database-unit scale they are also retried until some edge costs more
    /// than the Dial queue's ceiling, so every query takes the heap.
    pub fn layout(&self, i: usize) -> HananGraph {
        let r = self.rungs.len();
        let rung = &self.rungs[i % r];
        let (k, n) = (i / r, self.layouts.div_ceil(r));
        let pins = stratified(rung.pins, (k as f64 + 0.5) / n as f64);
        // A golden-ratio sequence decorrelates obstacle from pin counts.
        let obstacles = stratified(
            rung.obstacles,
            (0.618_033_988_75 * (k as f64 + 1.0)).fract(),
        );
        for attempt in 0u64.. {
            let mut rng = SplitMix64::new(derive(derive(self.seed, i as u64), attempt));
            let mut g = draw(rung, pins, obstacles, &mut rng);
            if !routable(&g) {
                continue;
            }
            if self.dbu {
                g = to_dbu(&g);
                if g.integer_cost_ceiling()
                    .is_some_and(|c| c <= DIAL_MAX_EDGE_COST)
                {
                    continue;
                }
            }
            return g;
        }
        unreachable!("the attempt loop only ends by returning")
    }

    /// FNV over every layout's dimensions, costs, vertex kinds and pins.
    pub fn inputs_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for i in 0..self.layouts {
            hash_layout(&mut h, &self.layout(i));
        }
        h.finish()
    }
}

/// The value at quantile `u` in `[0, 1)` of the inclusive `range`.
fn stratified(range: (usize, usize), u: f64) -> usize {
    let span = (range.1 - range.0 + 1) as f64;
    range.0 + ((u * span) as usize).min(range.1 - range.0)
}

/// The same layout in database units: every gap and via cost times 8
/// (1–1000 becomes 8–8000), obstacles and pins unchanged.
pub fn to_dbu(g: &HananGraph) -> HananGraph {
    let (h, v, m) = g.dims();
    let scale = |c: &[f64]| c.iter().map(|&x| x * 8.0).collect();
    let mut out = HananGraph::with_costs(
        h,
        v,
        m,
        scale(g.x_costs()),
        scale(g.y_costs()),
        g.via_cost() * 8.0,
    )
    .expect("scaled costs stay finite and positive");
    for idx in 0..g.len() {
        if g.kind_at(idx) == VertexKind::Obstacle {
            out.add_obstacle_vertex(g.point(idx)).expect("same grid");
        }
    }
    for &p in g.pins() {
        out.add_pin(p).expect("same grid");
    }
    out
}

fn draw(rung: &Rung, pins: usize, obstacles: usize, rng: &mut SplitMix64) -> HananGraph {
    let (h, v, m) = (rung.h, rung.v, rung.m);
    let mut cost = |lo, hi| rng.range(lo, hi) as f64;
    let x_costs = (0..h - 1).map(|_| cost(1, 1000)).collect();
    let y_costs = (0..v - 1).map(|_| cost(1, 1000)).collect();
    let via = cost(3, 5);
    let mut g = HananGraph::with_costs(h, v, m, x_costs, y_costs, via)
        .expect("rung dimensions and costs are valid");
    for _ in 0..obstacles {
        let len = rng.range(rung.strip_len.0, rung.strip_len.1);
        let horizontal = rng.range(0, 1) == 1;
        let layer = rng.range(0, m - 1);
        let (h0, v0) = if horizontal {
            (rng.range(0, h - len), rng.range(0, v - 1))
        } else {
            (rng.range(0, h - 1), rng.range(0, v - len))
        };
        for step in 0..len {
            let p = if horizontal {
                GridPoint::new(h0 + step, v0, layer)
            } else {
                GridPoint::new(h0, v0 + step, layer)
            };
            g.add_obstacle_vertex(p)
                .expect("strips stay inside the grid");
        }
    }
    while g.pins().len() < pins {
        let p = GridPoint::new(
            rng.range(0, h - 1),
            rng.range(0, v - 1),
            rng.range(0, m - 1),
        );
        if g.kind(p) == VertexKind::Empty {
            g.add_pin(p).expect("an empty vertex takes a pin");
        }
    }
    g
}

fn hash_layout(h: &mut Fnv, g: &HananGraph) {
    let (gh, gv, gm) = g.dims();
    for d in [gh, gv, gm] {
        h.u64(d as u64);
    }
    for &c in g.x_costs().iter().chain(g.y_costs()) {
        h.f64(c);
    }
    h.f64(g.via_cost());
    for idx in 0..g.len() {
        h.bytes(&[g.kind_at(idx) as u8]);
    }
    for p in g.pins() {
        for c in [p.h, p.v, p.m] {
            h.u64(c as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(seed: u64, dbu: bool) -> LayoutSet {
        LayoutSet {
            rungs: &[T32, T128],
            layouts: 12,
            dbu,
            seed,
        }
    }

    #[test]
    fn ladder_rungs_match_table_1() {
        assert_eq!((T32.pins, T32.obstacles), ((3, 4), (8, 32)));
        assert_eq!((T128.pins, T128.obstacles), ((3, 8), (32, 128)));
        assert_eq!((T512.pins, T512.obstacles), ((12, 50), (200, 800)));
    }

    #[test]
    fn same_seed_gives_same_inputs_hash() {
        assert_eq!(set(7, false).inputs_hash(), set(7, false).inputs_hash());
        assert_ne!(set(7, false).inputs_hash(), set(8, false).inputs_hash());
    }

    #[test]
    fn pin_counts_are_stratified_over_the_range() {
        let s = LayoutSet {
            rungs: &[T128],
            layouts: 6,
            dbu: false,
            seed: 1,
        };
        let pins: Vec<usize> = (0..6).map(|i| s.layout(i).pins().len()).collect();
        assert_eq!(pins, [3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn layouts_are_routable_and_within_their_rung() {
        let s = set(3, false);
        for i in 0..s.layouts {
            let g = s.layout(i);
            let rung = s.rungs[i % 2];
            assert_eq!(g.dims(), (rung.h, rung.v, rung.m));
            assert!((rung.pins.0..=rung.pins.1).contains(&g.pins().len()));
            assert!(routable(&g));
        }
    }

    #[test]
    fn dbu_scale_lifts_the_cost_ceiling_above_dial() {
        let s = set(5, true);
        for i in 0..s.layouts {
            let ceiling = s.layout(i).integer_cost_ceiling().unwrap();
            assert!(ceiling > DIAL_MAX_EDGE_COST, "layout {i}: {ceiling}");
        }
    }
}
