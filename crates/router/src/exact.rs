//! Exact Steiner minimum trees on Hanan graphs via the Dreyfus–Wagner
//! dynamic program.
//!
//! For layouts with few pins this computes the *optimal* ML-OARSMT cost
//! (optimal with respect to the Hanan graph), which the test-suite and the
//! ablation benches use to measure the optimality gap of the heuristic
//! routers. Complexity is `O(3^t · V + 2^t · V log V)` for `t = n − 1`
//! terminals, so keep `n ≤ ~8` and layouts small.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use oarsmt_geom::{GridPoint, HananGraph};

use crate::error::RouteError;

/// Maximum pin count accepted by [`steiner_exact_cost`]; beyond this the
/// dynamic program's `3^n` term becomes unreasonable.
pub const MAX_EXACT_PINS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    v: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.v.cmp(&self.v))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes the exact minimum Steiner-tree cost connecting all pins of the
/// graph (the ML-OARSMT optimum on the Hanan graph).
///
/// # Errors
///
/// * [`RouteError::TooFewTerminals`] if the graph has fewer than two pins
///   or more than [`MAX_EXACT_PINS`] (the error carries the pin count).
/// * [`RouteError::BlockedTerminal`] if a pin is blocked.
/// * [`RouteError::Disconnected`] if the pins cannot all be connected.
///
/// # Example
///
/// ```
/// use oarsmt_geom::{HananGraph, GridPoint};
/// use oarsmt_router::exact::steiner_exact_cost;
///
/// // A 4-arm cross: the optimal tree routes through the center, cost 8.
/// let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
/// for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
///     g.add_pin(GridPoint::new(h, v, 0))?;
/// }
/// assert_eq!(steiner_exact_cost(&g)?, 8.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn steiner_exact_cost(graph: &HananGraph) -> Result<f64, RouteError> {
    let pins: Vec<GridPoint> = graph.pins().to_vec();
    let n = pins.len();
    if !(2..=MAX_EXACT_PINS).contains(&n) {
        return Err(RouteError::TooFewTerminals(n));
    }
    for &p in &pins {
        if graph.is_blocked(p) {
            return Err(RouteError::BlockedTerminal(p));
        }
    }
    let vcount = graph.len();
    // Terminals t_1..t_{n-1}; the root terminal t_0 is folded in at the end.
    let t = n - 1;
    let full: usize = (1 << t) - 1;
    let inf = f64::INFINITY;
    // dp[mask][v]: cheapest tree connecting terminal subset `mask` and v.
    let mut dp = vec![vec![inf; vcount]; full + 1];
    for (i, &pin) in pins.iter().skip(1).enumerate() {
        dp[1 << i][graph.index(pin)] = 0.0;
        relax(graph, &mut dp[1 << i]);
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        // Merge step: combine two disjoint submask trees at every vertex.
        let mut sub = (mask - 1) & mask;
        while sub > mask / 2 {
            // Enumerate each unordered pair once (sub > mask ^ sub).
            let other = mask ^ sub;
            // `dp[sub]`/`dp[other]` are read while `dp[mask]` is written, so
            // iterator-based access would need split borrows of `dp`.
            #[allow(clippy::needless_range_loop)]
            for v in 0..vcount {
                let a = dp[sub][v];
                if a == inf {
                    continue;
                }
                let b = dp[other][v];
                if b == inf {
                    continue;
                }
                let c = a + b;
                if c < dp[mask][v] {
                    dp[mask][v] = c;
                }
            }
            sub = (sub - 1) & mask;
        }
        // Grow step: extend the subset trees along shortest paths.
        relax(graph, &mut dp[mask]);
    }
    let root = graph.index(pins[0]);
    let answer = dp[full][root];
    if answer.is_finite() {
        Ok(answer)
    } else {
        Err(RouteError::Disconnected { reached: pins[0] })
    }
}

/// Dijkstra-style relaxation of a dp layer: propagate every finite entry
/// along graph edges until fixpoint.
fn relax(graph: &HananGraph, layer: &mut [f64]) {
    let mut heap: BinaryHeap<HeapEntry> = layer
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c.is_finite())
        .map(|(v, &c)| HeapEntry {
            cost: c,
            v: v as u32,
        })
        .collect();
    while let Some(HeapEntry { cost, v }) = heap.pop() {
        let vi = v as usize;
        if cost > layer[vi] {
            continue;
        }
        let p = graph.point(vi);
        if graph.is_blocked(p) {
            continue;
        }
        for (q, w) in graph.neighbors(p) {
            let qi = graph.index(q);
            let nd = cost + w;
            if nd < layer[qi] {
                layer[qi] = nd;
                heap.push(HeapEntry {
                    cost: nd,
                    v: qi as u32,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin18::Lin18Router;
    use crate::oarmst::OarmstRouter;
    use crate::RouteContext;
    use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};

    fn pins(g: &mut HananGraph, pts: &[(usize, usize, usize)]) {
        for &(h, v, m) in pts {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
    }

    #[test]
    fn two_pins_equal_shortest_path() {
        let mut g = HananGraph::uniform(6, 4, 2, 2.0, 3.0, 4.0);
        pins(&mut g, &[(0, 0, 0), (5, 3, 1)]);
        let exact = steiner_exact_cost(&g).unwrap();
        assert_eq!(exact, 5.0 * 2.0 + 3.0 * 3.0 + 4.0);
    }

    #[test]
    fn three_pins_on_an_l_share_the_corner() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        pins(&mut g, &[(0, 0, 0), (4, 0, 0), (0, 4, 0)]);
        // Optimal: both arms from the corner pin = 8.
        assert_eq!(steiner_exact_cost(&g).unwrap(), 8.0);
    }

    #[test]
    fn obstacles_force_detours_in_the_optimum() {
        let mut g = HananGraph::uniform(5, 3, 1, 1.0, 1.0, 3.0);
        for v in 0..2 {
            g.add_obstacle_vertex(GridPoint::new(2, v, 0)).unwrap();
        }
        pins(&mut g, &[(0, 1, 0), (4, 1, 0)]);
        assert_eq!(steiner_exact_cost(&g).unwrap(), 6.0);
    }

    #[test]
    fn disconnected_pins_error() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        for v in 0..3 {
            g.add_obstacle_vertex(GridPoint::new(1, v, 0)).unwrap();
        }
        pins(&mut g, &[(0, 0, 0), (2, 2, 0)]);
        assert!(matches!(
            steiner_exact_cost(&g),
            Err(RouteError::Disconnected { .. })
        ));
    }

    #[test]
    fn too_many_pins_is_rejected() {
        let mut g = HananGraph::uniform(13, 13, 1, 1.0, 1.0, 3.0);
        for i in 0..11 {
            g.add_pin(GridPoint::new(i, i, 0)).unwrap();
        }
        assert!(matches!(
            steiner_exact_cost(&g),
            Err(RouteError::TooFewTerminals(11))
        ));
    }

    #[test]
    fn heuristics_never_beat_the_optimum() {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (3, 5)), 77);
        let mut compared = 0;
        for g in gen.generate_many(12) {
            let Ok(exact) = steiner_exact_cost(&g) else {
                continue;
            };
            let heuristic = OarmstRouter::new()
                .route_in(&mut RouteContext::new(), &g, &[])
                .unwrap()
                .cost();
            let lin = Lin18Router::new().route(&g).unwrap().cost();
            assert!(heuristic >= exact - 1e-9, "heuristic below optimum");
            assert!(lin >= exact - 1e-9, "lin18 below optimum");
            // And the heuristics are within a sane factor of optimal.
            assert!(heuristic <= exact * 2.0 + 1e-9);
            compared += 1;
        }
        assert!(compared >= 8);
    }

    #[test]
    fn optimum_is_invariant_under_pin_order() {
        let mut g1 = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
        pins(&mut g1, &[(0, 0, 0), (5, 5, 0), (0, 5, 0), (5, 0, 0)]);
        let mut g2 = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
        pins(&mut g2, &[(5, 0, 0), (0, 5, 0), (5, 5, 0), (0, 0, 0)]);
        assert_eq!(
            steiner_exact_cost(&g1).unwrap(),
            steiner_exact_cost(&g2).unwrap()
        );
    }
}
