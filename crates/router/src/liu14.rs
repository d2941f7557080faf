//! Geometric-reduction baseline router in the spirit of \[16\]
//! (C.-H. Liu et al., *"Efficient Multilayer Obstacle-Avoiding Rectilinear
//! Steiner Tree Construction Based on Geometric Reduction"*, TCAD 2014).
//!
//! The paper copies \[16\]'s published Table-4 numbers; this module provides
//! a behavioural stand-in (DESIGN.md §5, substitution 3). On top of the
//! spanning-graph construction it performs one geometric-reduction step:
//! grid vertices where embedded MST paths meet with degree ≥ 3 become
//! Steiner candidates, and the tree is reconstructed over pins plus the
//! candidates with redundant-candidate pruning. Quality therefore lands
//! between \[12\] (no Steiner refinement) and \[14\] (iterated retracing),
//! matching the ordering of Table 4.

use std::fmt;

use oarsmt_geom::HananGraph;

use crate::error::RouteError;
use crate::oarmst::OarmstRouter;
use crate::spanning::SpanningRouter;
use crate::tree::RouteTree;

/// The \[16\]-style geometric-reduction router.
///
/// The router owns one [`SpanningRouter`] and runs its reduction build on
/// that router's [`RouteContext`](crate::RouteContext) (DESIGN.md §8), so
/// one router serves one thread; a context never changes results, only
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct Liu14Router {
    spanning: SpanningRouter,
}

impl Liu14Router {
    /// Creates the router.
    pub fn new() -> Self {
        Liu14Router::default()
    }

    /// Routes the graph's pins: spanning construction, then one
    /// Steiner-candidate reduction pass, keeping the cheaper tree.
    ///
    /// # Errors
    ///
    /// Same as [`SpanningRouter::route`].
    pub fn route(&mut self, graph: &HananGraph) -> Result<RouteTree, RouteError> {
        let base = self.spanning.route(graph)?;
        let implied = base.steiner_vertices(graph, graph.pins());
        if implied.is_empty() {
            return Ok(base);
        }
        let ctx = &mut self.spanning.ctx;
        let reduced = OarmstRouter::new().route_in(ctx, graph, &implied)?;
        Ok(if reduced.cost() < base.cost() {
            ctx.recycle_tree(base);
            reduced
        } else {
            ctx.recycle_tree(reduced);
            base
        })
    }
}

impl fmt::Display for Liu14Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("geometric-reduction router")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
    use oarsmt_geom::GridPoint;

    #[test]
    fn reduction_improves_on_spanning_for_crosses() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let span = SpanningRouter::new().route(&g).unwrap();
        let liu = Liu14Router::new().route(&g).unwrap();
        assert!(liu.cost() <= span.cost());
    }

    #[test]
    fn never_worse_than_spanning_on_random_cases() {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(9, 9, 2, (4, 7)), 31);
        let (mut router, mut spanning) = (Liu14Router::new(), SpanningRouter::new());
        for g in gen.generate_many(10) {
            let span = match spanning.route(&g) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let liu = router.route(&g).unwrap();
            assert!(liu.cost() <= span.cost() + 1e-9);
            assert!(liu.spans_in(&g, g.pins()));
        }
    }
}
