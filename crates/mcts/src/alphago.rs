//! Conventional (AlphaGo-like) MCTS baseline (Section 4.2).
//!
//! Differences from the combinatorial search:
//!
//! * actions at every level may pick **any** valid vertex — different orders
//!   of the same Steiner-point set are distinct tree paths, so the search
//!   space is redundant;
//! * one training sample is generated **per executed move** (the visit
//!   distribution over the root's children), instead of one dense label per
//!   search tree;
//! * the trained agent is *sequential*: inference selects one Steiner point
//!   at a time and re-runs the network with the grown pin set (`n − 2`
//!   inferences per layout).

use oarsmt::selector::Selector;
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{RouteContext, RouteError};

use crate::config::MctsConfig;
use crate::engine::{Engine, Scheme};

/// One per-move training sample of the conventional scheme: the state
/// (already-selected Steiner points, to be encoded as extra pins) and the
/// per-vertex visit distribution.
#[derive(Debug, Clone)]
pub struct AlphaGoSample {
    /// Steiner points selected before this move.
    pub state: Vec<GridPoint>,
    /// Normalized root-visit distribution over all vertices (zeros on
    /// invalid vertices).
    pub label: Vec<f32>,
}

/// Result of one conventional MCTS run.
#[derive(Debug, Clone)]
pub struct AlphaGoOutcome {
    /// One sample per executed move.
    pub samples: Vec<AlphaGoSample>,
    /// The executed Steiner points, in selection order.
    pub executed: Vec<GridPoint>,
    /// Routing cost of the final state.
    pub final_cost: f64,
    /// Pins-only routing cost `rc_{s_0}`.
    pub initial_cost: f64,
    /// Number of nodes materialized (for the search-size comparison against
    /// the combinatorial scheme).
    pub nodes_created: usize,
    /// Number of critic evaluations.
    pub simulations: usize,
}

/// The conventional MCTS driver.
#[derive(Debug)]
pub struct AlphaGoMcts {
    engine: Engine,
}

impl AlphaGoMcts {
    /// Creates a driver with the given configuration.
    pub fn new(config: MctsConfig) -> Self {
        AlphaGoMcts {
            engine: Engine::new(config),
        }
    }

    /// Runs the conventional search, producing one sample per executed
    /// move, through a caller-owned [`RouteContext`] (see
    /// [`crate::search::CombinatorialMcts::search_in`]).
    ///
    /// # Errors
    ///
    /// Propagates OARMST routing failures.
    pub fn search_in<S: Selector>(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        selector: &mut S,
    ) -> Result<AlphaGoOutcome, RouteError> {
        let mut samples = Vec::new();
        let run =
            self.engine
                .search_in(ctx, graph, selector, Scheme::Conventional(&mut samples))?;
        Ok(AlphaGoOutcome {
            samples,
            executed: run.executed,
            final_cost: run.final_cost,
            initial_cost: run.initial_cost,
            nodes_created: run.nodes_created,
            simulations: run.simulations,
        })
    }
}

/// Sequential inference with a trained (or heuristic) selector: select one
/// Steiner point at a time, feeding each selection back as a pin — the
/// test-time behaviour of the AlphaGo-like and PPO baselines, requiring
/// `n − 2` network inferences. Every inference and top-1 pick runs out of
/// `ctx`'s `fsp`/`scored`/`excluded` buffers and its `nn` workspace.
/// Returns the selected points.
pub fn sequential_select<S: Selector>(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    selector: &mut S,
) -> Vec<GridPoint> {
    let budget = steiner_budget(graph.pins().len());
    let mut selected: Vec<GridPoint> = Vec::with_capacity(budget);
    let mut next = Vec::with_capacity(1);
    for _ in 0..budget {
        selector.fsp_into_ws(graph, &selected, &mut ctx.fsp, &mut ctx.nn);
        next.clear();
        select_top_k_into(
            graph,
            &ctx.fsp,
            1,
            &selected,
            &mut ctx.scored,
            &mut ctx.excluded,
            &mut next,
        );
        match next.first() {
            Some(&p) => selected.push(p),
            None => break,
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CombinatorialMcts;
    use oarsmt::selector::{MedianHeuristicSelector, UniformSelector};

    fn cross() -> HananGraph {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        g
    }

    #[test]
    fn per_move_samples_are_distributions() {
        let g = cross();
        let out = AlphaGoMcts::new(MctsConfig::tiny())
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        for s in &out.samples {
            let sum: f32 = s.label.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "labels are distributions");
            for &l in &s.label {
                assert!((0.0..=1.0).contains(&l));
            }
        }
    }

    #[test]
    fn conventional_tree_is_larger_than_combinatorial() {
        // The paper's efficiency claim: with the same iteration budget and
        // an uncommitted (training-start) selector, the priority-ordered
        // action space materializes fewer nodes in total.
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let cfg = MctsConfig {
            base_iterations: 32,
            base_size: 6 * 6, // 6x6x1 grid
            ..MctsConfig::default()
        };
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 6)), 17);
        let mut sel = UniformSelector::new(0.5);
        let (mut comb_nodes, mut conv_nodes) = (0usize, 0usize);
        for g in gen.generate_many(6) {
            let Ok(comb) = CombinatorialMcts::new(cfg.clone()).search_in(
                &mut RouteContext::new(),
                &g,
                &mut sel,
            ) else {
                continue;
            };
            let conv = AlphaGoMcts::new(cfg.clone())
                .search_in(&mut RouteContext::new(), &g, &mut sel)
                .unwrap();
            comb_nodes += comb.nodes_created;
            conv_nodes += conv.nodes_created;
        }
        assert!(
            conv_nodes > comb_nodes,
            "conventional {conv_nodes} vs combinatorial {comb_nodes}"
        );
    }

    /// FNV-1a over every sample's state coordinates and label bits.
    fn samples_hash(samples: &[AlphaGoSample]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for s in samples {
            eat(s.state.len() as u64);
            for p in &s.state {
                eat(p.h as u64);
                eat(p.v as u64);
                eat(p.m as u64);
            }
            eat(s.label.len() as u64);
            for &l in &s.label {
                eat(u64::from(l.to_bits()));
            }
        }
        h
    }

    /// Pins the conventional search's whole trajectory (tree size, executed
    /// moves, final cost and every per-move sample) so a refactor of the
    /// shared engine cannot move it by a bit. Mirrors
    /// `visit_tallies_match_pre_refactor_goldens` for the combinatorial
    /// search.
    #[test]
    fn conventional_search_matches_goldens() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let check = |out: AlphaGoOutcome,
                     nodes: usize,
                     sims: usize,
                     executed: &[(usize, usize)],
                     cost_bits: u64,
                     hash: u64| {
            let executed: Vec<GridPoint> = executed
                .iter()
                .map(|&(h, v)| GridPoint::new(h, v, 0))
                .collect();
            assert_eq!(out.nodes_created, nodes);
            assert_eq!(out.simulations, sims);
            assert_eq!(out.executed, executed);
            assert_eq!(out.final_cost.to_bits(), cost_bits);
            assert_eq!(samples_hash(&out.samples), hash);
        };
        let g = cross();
        let mcts = AlphaGoMcts::new(MctsConfig::tiny());
        let out = mcts
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.4))
            .unwrap();
        check(
            out,
            8,
            2,
            &[(0, 0), (1, 2)],
            0x4026_0000_0000_0000,
            0x9b86_5197_9bb5_8831,
        );
        let out = mcts
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        check(
            out,
            3,
            2,
            &[(2, 2), (1, 2)],
            0x4020_0000_0000_0000,
            0x6153_0375_630f_2c64,
        );

        let g = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 6)), 17).generate();
        let out = mcts
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        check(
            out,
            4,
            1,
            &[(0, 2)],
            0x404d_8000_0000_0000,
            0x3847_d01c_de4c_c09c,
        );
        // A deeper search on the same layout: many ties in visit count
        // under the uniform prior, so the executed-move tie-break shows.
        let cfg = MctsConfig {
            base_iterations: 32,
            base_size: g.len(),
            ..MctsConfig::default()
        };
        let out = AlphaGoMcts::new(cfg)
            .search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.5))
            .unwrap();
        check(
            out,
            58,
            10,
            &[(3, 1), (4, 2)],
            0x404b_0000_0000_0000,
            0xff2f_9bb5_5a5a_cbb8,
        );
    }

    #[test]
    fn search_in_with_reused_context_matches_fresh_search() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (4, 6)), 11);
        let mcts = AlphaGoMcts::new(MctsConfig::tiny());
        let mut ctx = RouteContext::new(); // reused across every layout
        for g in gen.generate_many(6) {
            let mut sel = MedianHeuristicSelector::new();
            let Ok(fresh) = mcts.search_in(&mut RouteContext::new(), &g, &mut sel) else {
                continue;
            };
            let reused = mcts.search_in(&mut ctx, &g, &mut sel).unwrap();
            assert_eq!(fresh.executed, reused.executed);
            assert_eq!(fresh.final_cost.to_bits(), reused.final_cost.to_bits());
            assert_eq!(samples_hash(&fresh.samples), samples_hash(&reused.samples));
            assert_eq!(fresh.nodes_created, reused.nodes_created);
            assert_eq!(fresh.simulations, reused.simulations);
        }
    }

    #[test]
    fn executed_cost_never_exceeds_initial() {
        let g = cross();
        let out = AlphaGoMcts::new(MctsConfig::tiny())
            .search_in(
                &mut RouteContext::new(),
                &g,
                &mut MedianHeuristicSelector::new(),
            )
            .unwrap();
        assert!(out.final_cost <= out.initial_cost + 1e-9);
    }

    #[test]
    fn sequential_select_needs_one_inference_per_point() {
        /// Counts selector invocations.
        struct Counting {
            inner: MedianHeuristicSelector,
            calls: usize,
        }
        impl Selector for Counting {
            fn fsp_into_ws(
                &mut self,
                g: &HananGraph,
                e: &[GridPoint],
                out: &mut Vec<f32>,
                ws: &mut oarsmt_nn::NnWorkspace,
            ) {
                self.calls += 1;
                self.inner.fsp_into_ws(g, e, out, ws);
            }
        }
        let g = cross(); // 4 pins -> budget 2
        let mut s = Counting {
            inner: MedianHeuristicSelector::new(),
            calls: 0,
        };
        let pts = sequential_select(&mut RouteContext::new(), &g, &mut s);
        assert_eq!(pts.len(), 2);
        assert_eq!(s.calls, 2, "sequential agents pay n-2 inferences");
    }
}
