//! Property-based tests for the MCTS crates: search-tree structure,
//! label algebra, actor/critic consistency.

use oarsmt::selector::{MedianHeuristicSelector, Selector, UniformSelector};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::VertexKind;
use oarsmt_mcts::actor::action_policy_into;
use oarsmt_mcts::{AlphaGoMcts, CombinatorialMcts, Critic, MctsConfig};
use oarsmt_nn::NnWorkspace;
use oarsmt_router::RouteContext;
use proptest::prelude::*;

fn config(size: usize, alpha: usize) -> MctsConfig {
    MctsConfig {
        base_iterations: alpha,
        base_size: size,
        use_critic: false,
        ..MctsConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn combinatorial_labels_never_exceed_opportunity_counts(seed in 0u64..400) {
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(6, 6, 1, (3, 5)), seed);
        let g = gen.generate();
        let mcts = CombinatorialMcts::new(config(36, 48));
        let Ok(out) = mcts.search_in(&mut RouteContext::new(), &g, &mut UniformSelector::new(0.1)) else {
            return Ok(());
        };
        for (i, (&s, &o)) in out
            .counters
            .n_sel()
            .iter()
            .zip(out.counters.n_opp())
            .enumerate()
        {
            prop_assert!(s <= o, "vertex {i}: n_sel {s} > n_opp {o}");
            if g.kind_at(i) != VertexKind::Empty {
                prop_assert_eq!(o, 0, "invalid vertices get no opportunities");
            }
        }
        // Executed combination is within the Steiner budget.
        prop_assert!(out.executed.len() <= g.pins().len().saturating_sub(2));
    }

    #[test]
    fn both_searches_report_consistent_costs(seed in 0u64..400) {
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(6, 6, 1, (3, 4)), seed);
        let g = gen.generate();
        let comb = CombinatorialMcts::new(config(36, 24));
        let conv = AlphaGoMcts::new(config(36, 24));
        let mut sel = UniformSelector::new(0.1);
        let (Ok(a), Ok(b)) = (comb.search_in(&mut RouteContext::new(), &g, &mut sel), conv.search_in(&mut RouteContext::new(), &g, &mut sel)) else {
            return Ok(());
        };
        // Both start from the same pins-only cost.
        prop_assert!((a.initial_cost - b.initial_cost).abs() < 1e-9);
        prop_assert!(a.final_cost > 0.0 && b.final_cost > 0.0);
    }

    #[test]
    fn critic_completion_stays_near_state_cost(seed in 0u64..400) {
        // The critic's prediction (state completed with top-probability
        // Steiner points, pruned) must be finite, positive, and close to
        // the bare state cost.
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(6, 6, 1, (3, 5)), seed);
        let g = gen.generate();
        let critic = Critic::new();
        let mut sel = MedianHeuristicSelector::new();
        let Ok(state_cost) = critic.state_cost_in(&mut RouteContext::new(), &g, &[]) else {
            return Ok(());
        };
        let mut ctx = RouteContext::new();
        let mut fsp = Vec::new();
        sel.fsp_into_ws(&g, &[], &mut fsp, &mut ctx.nn);
        let predicted = critic
            .predict_with_fsp_in(&mut ctx, &g, &[], &fsp)
            .unwrap();
        prop_assert!(predicted.is_finite() && predicted > 0.0);
        // Completion prunes redundant candidates, so the prediction stays
        // near the bare state cost (an irredundant-but-harmful candidate
        // can exceed it slightly, never wildly).
        prop_assert!(predicted <= state_cost * 1.3 + 1e-9);
    }

    #[test]
    fn actor_policy_matches_manual_telescoping(seed in 0u64..400, scale in 0.02f32..0.3) {
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(5, 5, 1, (3, 4)), seed);
        let g = gen.generate();
        let mut fsp = Vec::new();
        UniformSelector::new(scale).fsp_into_ws(&g, &[], &mut fsp, &mut NnWorkspace::new());
        let mut policy = Vec::new();
        action_policy_into(&g, &fsp, None, &mut policy);
        // Manual recomputation of eq. (1).
        let mut manual: Vec<(u32, f64)> = Vec::new();
        let mut skip = 1.0f64;
        for i in 0..g.len() {
            if g.kind_at(i) != VertexKind::Empty {
                continue;
            }
            manual.push((i as u32, f64::from(scale) * skip));
            skip *= 1.0 - f64::from(scale);
        }
        let total: f64 = manual.iter().map(|&(_, p)| p).sum();
        prop_assert_eq!(policy.len(), manual.len());
        for (a, &(v, p)) in policy.iter().zip(&manual) {
            prop_assert_eq!(a.vertex, v);
            prop_assert!((a.prob - p / total).abs() < 1e-12);
        }
    }
}
