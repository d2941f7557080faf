//! The combinatorial Monte-Carlo tree search (Section 3.4, Figs. 5–7).

use std::fmt;

use oarsmt::selector::Selector;
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{RouteContext, RouteError};

use crate::config::MctsConfig;
use crate::engine::{Engine, Scheme};
use crate::label::LabelCounters;

/// Result of one complete combinatorial MCTS on an initial layout.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The dense training label `L_fsp(v)` of Eq. (3), one entry per vertex.
    pub label: Vec<f32>,
    /// The raw `n_sel` / `n_opp` counters behind the label.
    pub counters: LabelCounters,
    /// The executed Steiner-point combination (the terminal root's state),
    /// sorted by selection priority.
    pub executed: Vec<GridPoint>,
    /// Routing cost of the executed terminal state.
    pub final_cost: f64,
    /// Routing cost `rc_{s_0}` of the initial layout (pins only).
    pub initial_cost: f64,
    /// Number of nodes materialized in the search tree (the paper's
    /// search-efficiency claim: combinatorial trees are smaller).
    pub nodes_created: usize,
    /// Number of critic evaluations (leaf simulations).
    pub simulations: usize,
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mcts: {} -> {} cost, {} steiner points, {} nodes, {} sims",
            self.initial_cost,
            self.final_cost,
            self.executed.len(),
            self.nodes_created,
            self.simulations
        )
    }
}

/// The combinatorial MCTS driver.
#[derive(Debug)]
pub struct CombinatorialMcts {
    engine: Engine,
}

impl CombinatorialMcts {
    /// Creates a search driver with the given configuration.
    pub fn new(config: MctsConfig) -> Self {
        CombinatorialMcts {
            engine: Engine::new(config),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MctsConfig {
        &self.engine.config
    }

    /// Runs the full search on an initial layout: repeated `α`-iteration
    /// exploration phases, each followed by executing the most-visited root
    /// action, until the root is terminal (Section 3.4). Returns the label
    /// of Eq. (3) plus the executed combination.
    ///
    /// Every critic rollout routes through the caller-owned
    /// [`RouteContext`], and the selection/inference scratch buffers are
    /// borrowed from it for the duration of the search. One context per
    /// worker thread; a reused context gives results bit-identical to a
    /// fresh one's.
    ///
    /// # Errors
    ///
    /// Propagates OARMST routing failures (e.g. disconnected pins).
    pub fn search_in<S: Selector>(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        selector: &mut S,
    ) -> Result<SearchOutcome, RouteError> {
        let mut counters = LabelCounters::new(graph);
        let run =
            self.engine
                .search_in(ctx, graph, selector, Scheme::Combinatorial(&mut counters))?;
        Ok(SearchOutcome {
            label: counters.label(),
            counters,
            executed: run.executed,
            final_cost: run.final_cost,
            initial_cost: run.initial_cost,
            nodes_created: run.nodes_created,
            simulations: run.simulations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt::selector::{MedianHeuristicSelector, UniformSelector};
    use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
    use oarsmt_geom::VertexKind;
    use oarsmt_telemetry::Counter;

    fn cross() -> HananGraph {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        g
    }

    #[test]
    fn two_pin_layout_has_trivial_search() {
        let mut g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 3, 0)).unwrap();
        let mcts = CombinatorialMcts::new(MctsConfig::tiny());
        let out = mcts
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        assert!(out.executed.is_empty());
        assert_eq!(out.final_cost, out.initial_cost);
        assert!(out.label.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn search_never_worsens_the_executed_cost() {
        let g = cross();
        let mcts = CombinatorialMcts::new(MctsConfig::tiny());
        let out = mcts
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        // Terminal rule 2 stops any execution that increases cost, so the
        // executed state can cost at most the initial cost.
        assert!(out.final_cost <= out.initial_cost + 1e-9);
    }

    #[test]
    fn good_selector_finds_the_cross_center() {
        let g = cross();
        let cfg = MctsConfig {
            base_iterations: 64,
            base_size: g.len(),
            ..MctsConfig::default()
        };
        let out = CombinatorialMcts::new(cfg)
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        assert!(
            out.executed.contains(&GridPoint::new(2, 2, 0)),
            "executed {:?}",
            out.executed
        );
        assert_eq!(out.final_cost, 8.0);
    }

    #[test]
    fn labels_are_probabilities_on_valid_vertices_only() {
        let g = cross();
        let out = CombinatorialMcts::new(MctsConfig::tiny())
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.4))
            .unwrap();
        for idx in 0..g.len() {
            let l = out.label[idx];
            assert!((0.0..=1.0).contains(&l));
            if g.kind_at(idx) != VertexKind::Empty {
                assert_eq!(l, 0.0, "pins/obstacles never get opportunities");
            }
        }
        // n_sel <= n_opp everywhere.
        for (s, o) in out.counters.n_sel().iter().zip(out.counters.n_opp()) {
            assert!(s <= o);
        }
    }

    #[test]
    fn executed_combination_is_priority_sorted_and_unique() {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (4, 6)), 2);
        let mcts = CombinatorialMcts::new(MctsConfig::tiny());
        let mut sel = MedianHeuristicSelector::new();
        for g in gen.generate_many(5) {
            let Ok(out) = mcts.search_in(&mut RouteContext::new(), &g, &mut sel) else {
                continue;
            };
            for w in out.executed.windows(2) {
                assert!(w[0] < w[1], "strictly increasing priority order");
            }
            for p in &out.executed {
                assert_eq!(g.kind(*p), VertexKind::Empty);
            }
        }
    }

    #[test]
    fn critic_free_mode_matches_early_curriculum() {
        let g = cross();
        let cfg = MctsConfig {
            use_critic: false,
            ..MctsConfig::tiny()
        };
        let out = CombinatorialMcts::new(cfg)
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        assert!(out.final_cost <= out.initial_cost + 1e-9);
        assert!(out.simulations > 0);
    }

    /// Satellite pin: visit tallies captured from the pre-refactor
    /// implementation (each child cloned its parent's `selected` vector).
    /// The parent-pointer representation must reproduce them bit-identically
    /// — any drift means the reconstruction changed the search trajectory.
    #[test]
    fn visit_tallies_match_pre_refactor_goldens() {
        let g = cross();
        let sum = |xs: &[u32]| xs.iter().map(|&x| u64::from(x)).sum::<u64>();

        let out = CombinatorialMcts::new(MctsConfig::tiny())
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.4))
            .unwrap();
        assert_eq!(sum(out.counters.n_sel()), 9);
        assert_eq!(sum(out.counters.n_opp()), 183);
        assert_eq!(out.nodes_created, 5);
        assert_eq!(out.simulations, 2);
        assert_eq!(out.final_cost, 12.0);
        assert_eq!(out.initial_cost, 12.0);
        assert_eq!(
            out.executed,
            vec![GridPoint::new(0, 0, 0), GridPoint::new(0, 1, 0)]
        );

        let out = CombinatorialMcts::new(MctsConfig::tiny())
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        assert_eq!(sum(out.counters.n_sel()), 8);
        assert_eq!(sum(out.counters.n_opp()), 78);
        assert_eq!(out.nodes_created, 7);
        assert_eq!(out.simulations, 3);
        assert_eq!(
            out.executed,
            vec![GridPoint::new(0, 1, 0), GridPoint::new(0, 3, 0)]
        );

        let cfg = MctsConfig {
            base_iterations: 64,
            base_size: g.len(),
            ..MctsConfig::default()
        };
        let out = CombinatorialMcts::new(cfg)
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        assert_eq!(sum(out.counters.n_sel()), 183);
        assert_eq!(sum(out.counters.n_opp()), 1335);
        assert_eq!(out.nodes_created, 33);
        assert_eq!(out.simulations, 8);
        assert_eq!(out.final_cost, 8.0);
        assert_eq!(
            out.executed,
            vec![GridPoint::new(1, 2, 0), GridPoint::new(2, 2, 0)]
        );
    }

    /// An all-zero selector gives every action the uniform prior, so root
    /// edges tie on visits and `Q`; the combinatorial scheme then executes
    /// the smaller action (the largest one would be `(0, 2)` here).
    #[test]
    fn root_move_ties_break_toward_the_smaller_action() {
        let g = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 6)), 17)
            .generate_many(3)
            .remove(2);
        let cfg = MctsConfig {
            use_critic: false,
            ..MctsConfig::tiny()
        };
        let out = CombinatorialMcts::new(cfg)
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.0))
            .unwrap();
        assert_eq!(out.executed, vec![GridPoint::new(0, 0, 0)]);
        assert_eq!(out.nodes_created, 4);
    }

    #[test]
    fn search_in_with_reused_context_matches_fresh_search() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        use oarsmt_router::RouteContext;
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (4, 6)), 11);
        let mcts = CombinatorialMcts::new(MctsConfig::tiny());
        let mut ctx = RouteContext::new(); // reused across every layout
        for g in gen.generate_many(6) {
            let mut sel = MedianHeuristicSelector::new();
            let Ok(fresh) = mcts.search_in(&mut RouteContext::new(), &g, &mut sel) else {
                continue;
            };
            let reused = mcts.search_in(&mut ctx, &g, &mut sel).unwrap();
            assert_eq!(fresh.executed, reused.executed);
            assert_eq!(fresh.final_cost.to_bits(), reused.final_cost.to_bits());
            assert_eq!(fresh.label, reused.label);
            assert_eq!(fresh.nodes_created, reused.nodes_created);
            assert_eq!(fresh.simulations, reused.simulations);
        }
    }

    #[test]
    fn search_counters_accumulate_into_the_context() {
        use oarsmt_router::RouteContext;
        let g = cross();
        let mcts = CombinatorialMcts::new(MctsConfig::tiny());
        let mut ctx = RouteContext::new();
        let out = mcts
            .search_in(&mut ctx, &g, &mut UniformSelector::new(0.4))
            .unwrap();
        let totals = ctx.counters_total();
        assert_eq!(
            totals.get(Counter::MctsRollouts),
            out.simulations as u64,
            "every critic rollout is counted"
        );
        assert!(totals.get(Counter::MctsExpansions) >= 1);
        assert!(totals.get(Counter::DijkstraPops) > 0, "routing is counted");
        // A second identical search adds an identical delta: counters are
        // deterministic functions of the work, not of the environment.
        let before = ctx.counters_total();
        mcts.search_in(&mut ctx, &g, &mut UniformSelector::new(0.4))
            .unwrap();
        let delta = ctx.counters_total().delta_since(&before);
        assert_eq!(delta.get(Counter::MctsRollouts), out.simulations as u64);
        assert_eq!(
            delta.get(Counter::DijkstraPops),
            before.get(Counter::DijkstraPops)
        );
    }

    #[test]
    fn node_count_is_reported() {
        let g = cross();
        let out = CombinatorialMcts::new(MctsConfig::tiny())
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        assert!(out.nodes_created >= 1);
    }
}
