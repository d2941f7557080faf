//! Scenario tests tied to specific claims of the paper.

use oarsmt::eval::st_to_mst_ratio;
use oarsmt::rl_router::RlRouter;
use oarsmt::selector::{MedianHeuristicSelector, NeuralSelector, Selector, UniformSelector};
use oarsmt_geom::benchmarks::BenchmarkSpec;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig, TestSubsetSpec};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_mcts::alphago::sequential_select;
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::unet::UNetConfig;
use oarsmt_nn::NnWorkspace;
use oarsmt_router::{OarmstRouter, RouteContext};

/// Section 2.1: "a layout with n pins needs at most n−2 irredundant Steiner
/// points" — the router must never propose more.
#[test]
fn steiner_budget_never_exceeds_n_minus_2() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (3, 8)), 11);
    let mut router = RlRouter::new(MedianHeuristicSelector::new());
    for g in gen.generate_many(10) {
        let Ok(out) = router.route(&g) else { continue };
        assert!(out.steiner_points.len() <= g.pins().len().saturating_sub(2));
    }
}

/// Section 3.1: "determining all selected Steiner points only requires one
/// inference of the neural network" — versus `n − 2` for sequential agents.
#[test]
fn one_shot_vs_sequential_inference_counts() {
    struct Counting<S> {
        inner: S,
        calls: usize,
    }
    impl<S: Selector> Selector for Counting<S> {
        fn fsp_into_ws(
            &mut self,
            g: &HananGraph,
            e: &[GridPoint],
            out: &mut Vec<f32>,
            ws: &mut NnWorkspace,
        ) {
            self.calls += 1;
            self.inner.fsp_into_ws(g, e, out, ws);
        }
    }
    let mut g = HananGraph::uniform(8, 8, 1, 1.0, 1.0, 3.0);
    for (h, v) in [(0, 0), (7, 0), (0, 7), (7, 7), (3, 3), (5, 2)] {
        g.add_pin(GridPoint::new(h, v, 0)).unwrap();
    }
    // One-shot router: exactly one inference.
    let mut counting = Counting {
        inner: MedianHeuristicSelector::new(),
        calls: 0,
    };
    let mut router = RlRouter::new(&mut counting);
    router.route(&g).unwrap();
    assert_eq!(counting.calls, 1, "the paper's router infers once");
    // Sequential baseline: n - 2 inferences.
    let mut counting = Counting {
        inner: MedianHeuristicSelector::new(),
        calls: 0,
    };
    let pts = sequential_select(&mut RouteContext::new(), &g, &mut counting);
    assert_eq!(pts.len(), 4);
    assert_eq!(counting.calls, 4, "sequential agents infer n-2 times");
}

/// Section 3.3: the agent is image-in-image-out for any (H, V, M) — the
/// same weights route layouts of many sizes.
#[test]
fn one_network_many_sizes() {
    let mut selector = NeuralSelector::with_config(UNetConfig {
        in_channels: 7,
        base_channels: 2,
        levels: 2,
        seed: 5,
    });
    let mut ws = NnWorkspace::new();
    let mut fsp = Vec::new();
    for (h, v, m) in [(4, 7, 1), (12, 12, 4), (9, 3, 2), (16, 5, 3)] {
        let g = HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0);
        selector.fsp_into_ws(&g, &[], &mut fsp, &mut ws);
        assert_eq!(fsp.len(), h * v * m);
        assert!(fsp.iter().all(|p| (0.0..=1.0).contains(p)));
    }
}

/// Section 3.4: combinatorial MCTS explores unique combinations — the
/// executed Steiner set is strictly increasing in selection priority.
#[test]
fn combinatorial_search_emits_priority_ordered_combinations() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(7, 7, 1, (4, 6)), 21);
    let mcts = CombinatorialMcts::new(MctsConfig::tiny());
    let mut sel = UniformSelector::new(0.1);
    for g in gen.generate_many(6) {
        let Ok(out) = mcts.search_in(&mut RouteContext::new(), &g, &mut sel) else {
            continue;
        };
        for w in out.executed.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}

/// Fig. 2's promise: the final ML-OARSMT connects all pins; combined with
/// the ST-to-MST metric of Figs. 11–12 it never exceeds ~1.0 for a
/// safeguarded router.
#[test]
fn safeguarded_st_to_mst_is_at_most_one() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (4, 6)), 33);
    let mut router = RlRouter::new(UniformSelector::new(0.2));
    let mut ctx = RouteContext::new();
    for g in gen.generate_many(8) {
        let Ok(out) = router.route(&g) else { continue };
        let ratio = st_to_mst_ratio(&mut ctx, &g, &out.tree).unwrap();
        assert!(ratio <= 1.0 + 1e-9, "safeguard caps the ratio at 1.0");
    }
}

/// Table 1 / Table 4 workloads must be constructible and routable.
#[test]
fn all_declared_workloads_are_routable() {
    // Benchmarks of Table 4.
    let oarmst = OarmstRouter::new();
    for spec in BenchmarkSpec::all() {
        let g = spec.build();
        oarmst
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap_or_else(|e| panic!("{} must route: {e}", spec.name));
    }
    // Layouts from each Table 1 rung: dense random obstacles occasionally
    // wall a pin off (the harness skips those), so require that most of a
    // small sample routes.
    for spec in TestSubsetSpec::ladder() {
        let mut gen = spec.generator(1);
        let mut ok = 0;
        for g in gen.generate_many(5) {
            if let Ok(t) = oarmst.route_in(&mut RouteContext::new(), &g, &[]) {
                assert!(t.spans_in(&g, g.pins()));
                ok += 1;
            }
        }
        assert!(ok >= 3, "{}: only {ok}/5 layouts routed", spec.name);
    }
}
