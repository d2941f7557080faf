//! Re-implementation of the strongest algorithmic baseline \[14\]:
//! K.-W. Lin et al., *"A maze routing-based methodology with bounded
//! exploration and path-assessed retracing for constrained multilayer
//! obstacle-avoiding rectilinear Steiner tree construction"* (TODAES 2018).
//!
//! The paper compares its RL router against \[14\]'s released executable
//! (Tables 2–4); that binary is not redistributable, so this module
//! re-implements the methodology on our shared Hanan-graph substrate
//! (DESIGN.md §5, substitution 2). The two defining ingredients are kept:
//!
//! * **bounded exploration** — every maze-routing query is restricted to the
//!   bounding box of the terminals expanded by a margin, trading a little
//!   solution quality for speed on large layouts;
//! * **path-assessed retracing** — the router rips up each pin's branch and
//!   reroutes it against the rest of the tree, over a number of rounds that
//!   grows with the pin count (and is *not* gated on improvement — the
//!   original executable runs its full schedule, which is what makes it
//!   slow on large layouts, Table 3); afterwards, implied Steiner vertices
//!   (degree ≥ 3) are promoted to candidates and the tree reconstructed,
//!   keeping improvements.

use std::fmt;

use oarsmt_geom::{GridPoint, HananGraph};

use crate::context::RouteContext;
use crate::error::RouteError;
use crate::oarmst::OarmstRouter;
use crate::tree::RouteTree;

/// Maximum implied-Steiner retracing rounds.
const MAX_RETRACE: usize = 2;

/// Bounded-exploration margin in grid steps.
const MARGIN: usize = 2;

/// The \[14\]-style algorithmic ML-OARSMT router.
///
/// The router owns the [`RouteContext`] its routing loop reuses (DESIGN.md
/// §8), so one router serves one thread; a context never changes results,
/// only allocation.
#[derive(Debug, Clone)]
pub struct Lin18Router {
    /// Whether to run path-assessed reassessment (alternate construction
    /// orders, rounds scaling with the pin count).
    reassess: bool,
    ctx: RouteContext,
}

impl Default for Lin18Router {
    fn default() -> Self {
        Lin18Router {
            reassess: true,
            ctx: RouteContext::new(),
        }
    }
}

impl Lin18Router {
    /// Creates the router with the default margin (2) and retrace budget
    /// (2 rounds).
    pub fn new() -> Self {
        Lin18Router::default()
    }

    /// Disables path-assessed reassessment (builder style). Mostly useful
    /// for ablations: without it the router reduces to a single bounded
    /// construction plus implied-Steiner retracing.
    #[must_use]
    pub fn without_reassess(mut self) -> Self {
        self.reassess = false;
        self
    }

    /// The number of reassessment rounds for a `k`-pin layout. Scales with
    /// the pin count, reflecting \[14\]'s per-path retracing expense.
    pub fn reassess_rounds(&self, pin_count: usize) -> usize {
        if self.reassess {
            (pin_count / 2).clamp(2, 24)
        } else {
            0
        }
    }

    /// Routes the graph's pins, returning the best tree found.
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route_in`]; additionally, when bounded
    /// exploration makes pins unreachable, the router automatically falls
    /// back to an unbounded search before reporting
    /// [`RouteError::Disconnected`].
    pub fn route(&mut self, graph: &HananGraph) -> Result<RouteTree, RouteError> {
        let rounds = self.reassess_rounds(graph.pins().len());
        let ctx = &mut self.ctx;
        let mut best = bounded_route_in(ctx, graph, &[])?;

        // Path-assessed retracing: each round rips up every pin's branch
        // (the degree-≤2 path from the pin to the first branch vertex or
        // other terminal) and reroutes it against the rest of the tree,
        // accepting improvements — one polish round on the pins. Rounds
        // grow with the pin count and are not gated on improvement:
        // [14]'s executable runs its full retracing schedule, which is what
        // makes it slow on large layouts (Table 3).
        for _ in 0..rounds {
            best = crate::retrace::polish_round_in(ctx, graph, best, graph.pins())?.0;
        }

        // Implied-Steiner retracing: promote degree>=3 vertices and
        // reconstruct, keeping only improvements.
        for _ in 0..MAX_RETRACE {
            let implied = best.steiner_vertices(graph, graph.pins());
            if implied.is_empty() {
                break;
            }
            let retraced = bounded_route_in(ctx, graph, &implied)?;
            if retraced.cost() + 1e-9 < best.cost() {
                ctx.recycle_tree(std::mem::replace(&mut best, retraced));
            } else {
                ctx.recycle_tree(retraced);
                break;
            }
        }
        Ok(best)
    }
}

/// \[14\]'s bounded exploration: one OARMST build restricted to the
/// terminals' bounding box plus the margin, retried unbounded only when
/// that window cannot connect the pins.
fn bounded_route_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    candidates: &[GridPoint],
) -> Result<RouteTree, RouteError> {
    let bounded = OarmstRouter::new().with_bounds_margin(MARGIN);
    match bounded.route_in(ctx, graph, candidates) {
        Err(RouteError::Disconnected { .. }) => {
            OarmstRouter::new().route_in(ctx, graph, candidates)
        }
        other => other,
    }
}

impl fmt::Display for Lin18Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lin18 router (margin {MARGIN}, retrace {MAX_RETRACE})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    fn pins(g: &mut HananGraph, pts: &[(usize, usize, usize)]) {
        for &(h, v, m) in pts {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
    }

    #[test]
    fn routes_simple_cases_like_oarmst() {
        let mut g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
        pins(&mut g, &[(0, 0, 0), (5, 5, 0)]);
        let t = Lin18Router::new().route(&g).unwrap();
        assert_eq!(t.cost(), 10.0);
        assert!(t.is_tree());
    }

    #[test]
    fn retracing_never_worsens_cost() {
        let mut g = HananGraph::uniform(7, 7, 2, 1.0, 1.0, 3.0);
        pins(&mut g, &[(0, 3, 0), (6, 3, 0), (3, 0, 1), (3, 6, 1)]);
        let plain = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let lin = Lin18Router::new().route(&g).unwrap();
        assert!(lin.cost() <= plain.cost() + 1e-9);
        assert!(lin.spans_in(&g, g.pins()));
    }

    #[test]
    fn falls_back_to_unbounded_when_bounded_fails() {
        // Two pins in the same rows but separated by a wall that forces a
        // detour far outside the bounding box.
        let mut g = HananGraph::uniform(9, 9, 1, 1.0, 1.0, 3.0);
        for v in 0..8 {
            g.add_obstacle_vertex(GridPoint::new(4, v, 0)).unwrap();
        }
        pins(&mut g, &[(3, 0, 0), (5, 0, 0)]);
        assert!(matches!(
            OarmstRouter::new().with_bounds_margin(MARGIN).route_in(
                &mut RouteContext::new(),
                &g,
                &[]
            ),
            Err(RouteError::Disconnected { .. })
        ));
        let t = Lin18Router::new().route(&g).unwrap();
        assert!(t.spans_in(&g, g.pins()));
        // The fallback is exactly an unbounded route, bit for bit.
        let unbounded = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        assert_eq!(t.cost().to_bits(), unbounded.cost().to_bits());
        assert_eq!(t.edges(), unbounded.edges());
    }

    #[test]
    fn random_cases_route_validly() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(10, 10, 2, (3, 6)), 5);
        let mut r = Lin18Router::new();
        for g in gen.generate_many(10) {
            match r.route(&g) {
                Ok(t) => {
                    assert!(t.is_tree());
                    assert!(t.spans_in(&g, g.pins()));
                }
                Err(RouteError::Disconnected { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod retrace_tests {
    use super::*;

    #[test]
    fn reassess_rounds_scale_with_pins_and_can_be_disabled() {
        let r = Lin18Router::new();
        assert_eq!(r.reassess_rounds(3), 2);
        assert_eq!(r.reassess_rounds(16), 8);
        assert_eq!(r.reassess_rounds(200), 24);
        assert_eq!(Lin18Router::new().without_reassess().reassess_rounds(16), 0);
    }
}
