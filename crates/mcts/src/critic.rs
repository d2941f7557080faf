//! The critic: predicting the final routing cost of a partial state
//! (orange box of Fig. 5).
//!
//! For a state at level `i` (with `i` Steiner points selected), the critic
//! queries the Steiner-point selector for the final selected probabilities,
//! completes the state with the top `n − 2 − i` remaining valid vertices,
//! runs the OARMST router over pins + all Steiner points, and reports the
//! resulting cost.

use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{OarmstRouter, RouteContext, RouteError};

/// The critic built on top of a Steiner-point selector.
#[derive(Debug)]
pub struct Critic {
    /// Prices completed states: the full OARMST step (prune and polish).
    oarmst: OarmstRouter,
    /// Prices raw states: the same router with prune and polish off, built
    /// once so the hot path never clones a router.
    unpruned: OarmstRouter,
}

impl Default for Critic {
    fn default() -> Self {
        Critic {
            oarmst: OarmstRouter::new(),
            unpruned: OarmstRouter::new()
                .with_max_prune_rounds(0)
                .with_polish_rounds(0),
        }
    }
}

impl Critic {
    /// Creates a critic.
    pub fn new() -> Self {
        Critic::default()
    }

    /// Predicts the final routing cost of a state given the selector's
    /// `fsp` for that state (so callers can reuse one inference for both
    /// the actor and the critic). The completed state is assembled in the
    /// context's completion buffer and priced with the context's routing
    /// workspaces — no per-call allocation on the MCTS simulation hot path.
    ///
    /// # Errors
    ///
    /// Propagates OARMST routing failures.
    pub fn predict_with_fsp_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        selected: &[GridPoint],
        fsp: &[f32],
    ) -> Result<f64, RouteError> {
        let budget = steiner_budget(graph.pins().len());
        let remaining = budget.saturating_sub(selected.len());
        // Take the buffer out so `ctx` stays free for the routing call.
        let mut all = std::mem::take(&mut ctx.completion);
        all.clear();
        all.extend_from_slice(selected);
        select_top_k_into(
            graph,
            fsp,
            remaining,
            selected,
            &mut ctx.scored,
            &mut ctx.excluded,
            &mut all,
        );
        let cost = self.oarmst.route_cost_in(ctx, graph, &all);
        ctx.completion = all;
        cost
    }

    /// The raw routing cost of a state *without* completion: pins plus the
    /// already-selected Steiner points (unpruned). Used instead of the
    /// prediction during early curriculum stages and for the terminal
    /// rules. Routes through a caller-owned [`RouteContext`].
    ///
    /// # Errors
    ///
    /// Propagates OARMST routing failures.
    pub fn state_cost_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        selected: &[GridPoint],
    ) -> Result<f64, RouteError> {
        self.unpruned.route_cost_in(ctx, graph, selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt::selector::{MedianHeuristicSelector, Selector, UniformSelector};
    use oarsmt_geom::GridPoint;

    fn cross() -> HananGraph {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        g
    }

    #[test]
    fn critic_with_good_selector_predicts_low_cost() {
        let g = cross();
        let critic = Critic::new();
        let mut ctx = RouteContext::new();
        let mut fsp = Vec::new();
        MedianHeuristicSelector::new().fsp_into_ws(&g, &[], &mut fsp, &mut ctx.nn);
        let predicted = critic.predict_with_fsp_in(&mut ctx, &g, &[], &fsp).unwrap();
        // The heuristic puts the center first; a 4-pin cross with the
        // center costs 8.
        assert_eq!(predicted, 8.0);
    }

    #[test]
    fn critic_completion_respects_already_selected_points() {
        let g = cross();
        let critic = Critic::new();
        let mut sel = UniformSelector::new(0.5);
        let center = GridPoint::new(2, 2, 0);
        // With the center already fixed, completion adds at most 1 more
        // point; the state's final cost can't exceed the unpruned cost of
        // center + one extra stub... but must at least span the cross.
        let mut ctx = RouteContext::new();
        let mut fsp = Vec::new();
        sel.fsp_into_ws(&g, &[center], &mut fsp, &mut ctx.nn);
        let cost = critic
            .predict_with_fsp_in(&mut ctx, &g, &[center], &fsp)
            .unwrap();
        assert!(cost >= 8.0);
    }

    #[test]
    fn state_cost_is_unpruned() {
        let g = cross();
        let critic = Critic::new();
        let mut ctx = RouteContext::new();
        let empty = critic.state_cost_in(&mut ctx, &g, &[]).unwrap();
        let with_center = critic
            .state_cost_in(&mut ctx, &g, &[GridPoint::new(2, 2, 0)])
            .unwrap();
        assert_eq!(with_center, 8.0);
        assert!(empty >= with_center);
        // A bad Steiner point strictly increases the unpruned cost.
        let with_bad = critic
            .state_cost_in(&mut ctx, &g, &[GridPoint::new(4, 4, 0)])
            .unwrap();
        assert!(with_bad > with_center);
    }
}
