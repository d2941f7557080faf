//! The end-to-end RL ML-OARSMT router (Fig. 2 of the paper).

use std::fmt;
use std::time::{Duration, Instant};

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{OarmstRouter, RouteContext, RouteTree};

use crate::error::CoreError;
use crate::selector::Selector;
use crate::topk::{select_top_k_into, steiner_budget};

/// Result of routing one layout, including the phase timings the paper
/// reports in Table 3 (Steiner-point selection time vs total time).
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// The final ML-OARSMT.
    pub tree: RouteTree,
    /// The Steiner points actually proposed by the selector (before
    /// OARMST pruning).
    pub steiner_points: Vec<GridPoint>,
    /// Wall-clock time of the Steiner-point selection (one inference plus
    /// top-k).
    pub select_time: Duration,
    /// Total wall-clock time including OARMST construction.
    pub total_time: Duration,
}

impl fmt::Display for RouteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routed: cost {}, {} steiner candidates, {:?} total",
            self.tree.cost(),
            self.steiner_points.len(),
            self.total_time
        )
    }
}

/// The RL router: a Steiner-point [`Selector`] feeding the OARMST router.
///
/// Two passes follow the selected build. The safeguard also builds the
/// pins-only OARMST and keeps whichever tree is cheaper, so a poorly
/// trained selector can never make the result worse than no Steiner points
/// at all. Refinement then alternates path-assessed polish with rebuilds
/// over the implied Steiner vertices. Raw selector quality (the ST-to-MST
/// ratio of Figs. 11–12) is measured without this router, by
/// `oarsmt_rl::trainer::st_to_mst_over_cases` on the bare OARMST builder.
#[derive(Debug, Clone)]
pub struct RlRouter<S> {
    selector: S,
    oarmst: OarmstRouter,
    /// Per-router workspace: Dijkstra state, cached layout index sets, and
    /// inference scratch, rebound lazily to whichever layout is routed.
    /// One router (and hence one context) lives on each worker thread in
    /// the parallel evaluation paths.
    ctx: RouteContext,
}

impl<S: Selector> RlRouter<S> {
    /// Creates a router with the safeguard and refinement enabled.
    pub fn new(selector: S) -> Self {
        RlRouter {
            selector,
            // The refine loop runs its own explicit polish, so the inner
            // OARMST builds skip theirs.
            oarmst: OarmstRouter::new().with_polish_rounds(0),
            ctx: RouteContext::new(),
        }
    }

    /// Read-only access to the wrapped selector (used by the parallel
    /// multi-net path to clone per-worker routers).
    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// Telemetry counters accumulated by every route through this router
    /// (context + Dijkstra workspace + NN workspace, merged in index order).
    /// Monotone across calls; diff with
    /// [`oarsmt_telemetry::CounterSet::delta_since`] to attribute work to a
    /// single route.
    #[must_use]
    pub fn counters(&self) -> oarsmt_telemetry::CounterSet {
        self.ctx.counters_total()
    }

    /// Routes a layout: one selector inference, top `n − 2` Steiner points,
    /// OARMST construction with pruning, the pins-only safeguard, and
    /// refinement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Route`] when the pins cannot be connected (see
    /// [`OarmstRouter::route`]).
    pub fn route(&mut self, graph: &HananGraph) -> Result<RouteOutcome, CoreError> {
        self.route_with(graph, false)
    }

    /// [`RlRouter::route`], with `always_safeguard` forcing the pins-only
    /// safeguard build even where it is known to repeat the selected
    /// build (the reference composition the skip is tested against).
    fn route_with(
        &mut self,
        graph: &HananGraph,
        always_safeguard: bool,
    ) -> Result<RouteOutcome, CoreError> {
        // lint: timing-ok(select_time is reported metadata; never feeds results)
        let start = Instant::now();
        let k = steiner_budget(graph.pins().len());
        self.selector
            .fsp_into_ws(graph, &[], &mut self.ctx.fsp, &mut self.ctx.nn);
        let mut steiner_points = Vec::new();
        select_top_k_into(
            graph,
            &self.ctx.fsp,
            k,
            &[],
            &mut self.ctx.scored,
            &mut self.ctx.excluded,
            &mut steiner_points,
        );
        let select_time = start.elapsed();

        let mut tree = self
            .oarmst
            .route_in(&mut self.ctx, graph, &steiner_points)?;
        // When pruning dropped every candidate, the selected build's last
        // Prim pass was over the pins alone, from the same start: the
        // safeguard tree itself, bit for bit, so it is not built again.
        if always_safeguard || !self.ctx.kept().is_empty() {
            let plain = self.oarmst.route_in(&mut self.ctx, graph, &[])?;
            if plain.cost() < tree.cost() {
                self.ctx.recycle_tree(std::mem::replace(&mut tree, plain));
            } else {
                self.ctx.recycle_tree(plain);
            }
        }
        // Alternate path-assessed polish (to convergence) with
        // reconstruction over the discovered branch vertices plus the
        // selector's candidates — the OARMST step follows [14], whose
        // retracing interleaves both moves until the tree stabilizes.
        for round in 0..4 {
            let mut terminals: Vec<GridPoint> = graph.pins().to_vec();
            terminals.extend(tree.steiner_vertices(graph, graph.pins()));
            for _ in 0..8 {
                let (polished, improved) = oarsmt_router::retrace::polish_round_in(
                    &mut self.ctx,
                    graph,
                    tree,
                    &terminals,
                )?;
                tree = polished;
                if !improved {
                    break;
                }
            }
            let mut promoted = tree.steiner_vertices(graph, graph.pins());
            promoted.extend_from_slice(&steiner_points);
            // Rotate the Prim start terminal per round: alternate
            // construction orders explore different equal-cost path
            // choices.
            let rebuilt =
                self.oarmst
                    .clone()
                    .with_start(round)
                    .route_in(&mut self.ctx, graph, &promoted)?;
            if rebuilt.cost() + 1e-9 < tree.cost() {
                self.ctx.recycle_tree(std::mem::replace(&mut tree, rebuilt));
            } else {
                self.ctx.recycle_tree(rebuilt);
                break;
            }
        }
        Ok(RouteOutcome {
            tree,
            steiner_points,
            select_time,
            total_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{MedianHeuristicSelector, NeuralSelector};
    use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
    use oarsmt_nn::unet::UNetConfig;

    fn cross_graph() -> HananGraph {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        g
    }

    fn tiny_neural(seed: u64) -> NeuralSelector {
        NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed,
        })
    }

    #[test]
    fn median_selector_finds_the_cross_center() {
        let g = cross_graph();
        let mut router = RlRouter::new(MedianHeuristicSelector::new());
        let out = router.route(&g).unwrap();
        // Optimal cross tree costs 8 through the center (2,2,0).
        assert_eq!(out.tree.cost(), 8.0);
        assert!(out.steiner_points.contains(&GridPoint::new(2, 2, 0)));
    }

    #[test]
    fn safeguard_bounds_cost_by_pins_only_tree() {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (3, 6)), 3);
        let oarmst = OarmstRouter::new();
        let mut router = RlRouter::new(tiny_neural(0));
        for g in gen.generate_many(10) {
            let Ok(plain) = oarmst.route(&g, &[]) else {
                continue;
            };
            let out = router.route(&g).unwrap();
            assert!(out.tree.cost() <= plain.cost() + 1e-9);
            assert!(out.tree.spans_in(&g, g.pins()));
            assert!(out.tree.is_tree());
        }
    }

    /// Skipping the safeguard after an empty kept set changes no result:
    /// on random layouts, with a selector whose candidates are mostly
    /// pruned and one whose candidates often survive, the routed tree
    /// equals the always-safeguarded composition edge for edge and cost
    /// bit for bit, and the skip does fire.
    #[test]
    fn safeguard_skip_matches_the_unskipped_composition() {
        fn check<S: Selector + Clone>(selector: S, seed: u64) -> usize {
            let mut gen = CaseGenerator::new(GeneratorConfig::tiny(10, 10, 2, (3, 8)), seed);
            let mut fast = RlRouter::new(selector.clone());
            let mut full = RlRouter::new(selector);
            let mut skipped = 0;
            let pops = |r: &RlRouter<S>| r.counters().get(oarsmt_telemetry::Counter::DijkstraPops);
            for g in gen.generate_many(24) {
                let (fast0, full0) = (pops(&fast), pops(&full));
                let (Ok(a), Ok(b)) = (fast.route(&g), full.route_with(&g, true)) else {
                    continue;
                };
                assert_eq!(a.tree.edges(), b.tree.edges());
                assert_eq!(a.tree.cost().to_bits(), b.tree.cost().to_bits());
                assert_eq!(a.steiner_points, b.steiner_points);
                skipped += usize::from(pops(&fast) - fast0 < pops(&full) - full0);
            }
            skipped
        }
        assert!(check(tiny_neural(5), 11) > 0, "the skip never fired");
        check(MedianHeuristicSelector::new(), 12);
    }

    #[test]
    fn steiner_budget_matches_pin_count() {
        let g = cross_graph(); // 4 pins -> 2 candidates
        let mut router = RlRouter::new(MedianHeuristicSelector::new());
        let out = router.route(&g).unwrap();
        assert!(out.steiner_points.len() <= 2);
    }

    #[test]
    fn timings_are_ordered() {
        let g = cross_graph();
        let mut router = RlRouter::new(tiny_neural(1));
        let out = router.route(&g).unwrap();
        assert!(out.select_time <= out.total_time);
    }

    #[test]
    fn router_counters_are_monotone_and_deterministic() {
        use oarsmt_telemetry::Counter;
        let g = cross_graph();
        let mut router = RlRouter::new(MedianHeuristicSelector::new());
        router.route(&g).unwrap();
        let first = router.counters();
        assert!(first.get(Counter::DijkstraPops) > 0);
        router.route(&g).unwrap();
        let delta = router.counters().delta_since(&first);
        assert_eq!(
            delta.get(Counter::DijkstraPops),
            first.get(Counter::DijkstraPops),
            "identical routes cost identical counted work"
        );
    }

    #[test]
    fn two_pin_layouts_need_no_selection() {
        let mut g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 3, 0)).unwrap();
        let mut router = RlRouter::new(MedianHeuristicSelector::new());
        let out = router.route(&g).unwrap();
        assert!(out.steiner_points.is_empty());
        assert_eq!(out.tree.cost(), 6.0);
    }
}
