//! Property-based integration tests across crates: Hanan reduction, tree
//! invariants, augmentation symmetries, actor policies, MCTS labels.

use oarsmt::selector::{Selector, UniformSelector};
use oarsmt::topk::select_top_k_into;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{Coord, HananGraph, Layout, Obstacle, Pin, Rect, VertexKind};
use oarsmt_mcts::actor::action_policy_into;
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::NnWorkspace;
use oarsmt_rl::augment::{transform_sample, Symmetry};
use oarsmt_rl::sample::TrainingSample;
use oarsmt_router::{OarmstRouter, RouteContext, RouteError};
use proptest::prelude::*;

fn arbitrary_layout() -> impl Strategy<Value = Layout> {
    (
        2usize..4,
        prop::collection::vec(((0i64..40), (0i64..40), 0usize..3), 2..6),
        prop::collection::vec(
            ((0i64..40), (0i64..40), (1i64..6), (1i64..6), 0usize..3),
            0..6,
        ),
    )
        .prop_filter_map(
            "pins must be distinct and off obstacles",
            |(layers, pins, obs)| {
                let mut layout = Layout::new(3);
                let _ = layers;
                for &(x, y, w, h, m) in &obs {
                    layout = layout.with_obstacle(Obstacle::new(Rect::new(x, y, x + w, y + h), m));
                }
                let mut seen = std::collections::HashSet::new();
                for &(x, y, m) in &pins {
                    if !seen.insert((x, y, m)) {
                        return None;
                    }
                    layout = layout.with_pin(Pin::new(Coord::new(x, y), m));
                }
                layout.validate().ok()?;
                Some(layout)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hanan_reduction_places_every_pin_on_a_cut(layout in arbitrary_layout()) {
        let graph = HananGraph::from_layout(&layout).unwrap();
        // Every pin's physical coordinate is one of the cut coordinates.
        prop_assert_eq!(graph.pins().len(), layout.pins().len());
        for (pin, gp) in layout.pins().iter().zip(graph.pins()) {
            prop_assert_eq!(graph.physical(*gp), pin.at);
        }
        // Hanan graph never exceeds the uniform grid over the bounding box.
        let (lo, hi) = layout.bounding_box().unwrap();
        let uniform = ((hi.x - lo.x + 1) * (hi.y - lo.y + 1)) as usize * layout.layers();
        prop_assert!(graph.len() <= uniform);
    }

    #[test]
    fn routed_trees_satisfy_all_invariants(layout in arbitrary_layout()) {
        let graph = HananGraph::from_layout(&layout).unwrap();
        match OarmstRouter::new().route_in(&mut RouteContext::new(), &graph, &[]) {
            Ok(tree) => {
                prop_assert!(tree.is_tree());
                prop_assert!(tree.spans_in(&graph, graph.pins()));
                prop_assert!(tree.cost() >= 0.0);
                for &(a, b) in tree.edges() {
                    prop_assert!(!graph.is_blocked(graph.point(a as usize)));
                    prop_assert!(!graph.is_blocked(graph.point(b as usize)));
                }
            }
            Err(RouteError::Disconnected { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn exact_tree_cost_is_invariant_under_symmetries(seed in 0u64..500) {
        use oarsmt_router::exact::steiner_exact_cost;
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(7, 5, 2, (3, 5)), seed);
        let graph = gen.generate();
        let Ok(exact) = steiner_exact_cost(&graph) else {
            return Ok(()); // unroutable layout
        };
        for sym in Symmetry::all() {
            let tg = sym.apply_graph(&graph);
            let texact = steiner_exact_cost(&tg).expect("symmetry preserves routability");
            // The optimum is a true invariant of the symmetry group.
            prop_assert!((texact - exact).abs() < 1e-6,
                "symmetry {:?}: {} vs {}", sym, texact, exact);
            // The heuristic may differ by tie-breaking but must stay near
            // the optimum in every orientation.
            let Ok(ht) = OarmstRouter::new().route_in(&mut RouteContext::new(), &tg, &[]) else {
                return Ok(());
            };
            prop_assert!(ht.cost() >= texact - 1e-6);
            prop_assert!(ht.cost() <= texact * 1.6 + 1e-6,
                "heuristic far from optimum under {:?}: {} vs {}", sym, ht.cost(), texact);
        }
    }

    #[test]
    fn actor_policy_is_a_distribution_over_valid_actions(seed in 0u64..500, p in 0.01f32..0.9) {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (3, 5)), seed);
        let graph = gen.generate();
        let mut fsp = Vec::new();
        UniformSelector::new(p).fsp_into_ws(&graph, &[], &mut fsp, &mut NnWorkspace::new());
        let mut policy = Vec::new();
        action_policy_into(&graph, &fsp, None, &mut policy);
        let total: f64 = policy.iter().map(|a| a.prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for a in &policy {
            prop_assert!(a.prob >= 0.0);
            prop_assert_eq!(graph.kind_at(a.vertex as usize), VertexKind::Empty);
        }
    }

    #[test]
    fn top_k_selection_returns_valid_sorted_points(seed in 0u64..500, k in 0usize..8) {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (3, 6)), seed);
        let graph = gen.generate();
        let mut fsp = Vec::new();
        UniformSelector::new(0.3).fsp_into_ws(&graph, &[], &mut fsp, &mut NnWorkspace::new());
        let mut sel = Vec::new();
        select_top_k_into(&graph, &fsp, k, &[], &mut Vec::new(), &mut Vec::new(), &mut sel);
        prop_assert!(sel.len() <= k);
        for w in sel.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for p in &sel {
            prop_assert_eq!(graph.kind(*p), VertexKind::Empty);
        }
    }

    #[test]
    fn augmented_samples_preserve_label_multiset(seed in 0u64..200) {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(5, 7, 2, (3, 4)), seed);
        let graph = gen.generate();
        let label: Vec<f32> = (0..graph.len()).map(|i| (i % 10) as f32 / 10.0).collect();
        let sample = TrainingSample::new(graph, vec![], label.clone());
        for sym in Symmetry::all() {
            let t = transform_sample(&sample, sym);
            let mut a = label.clone();
            let mut b = t.label.clone();
            a.sort_by(f32::total_cmp);
            b.sort_by(f32::total_cmp);
            prop_assert_eq!(a, b, "label multiset preserved under {:?}", sym);
        }
    }
}

#[test]
fn mcts_labels_bounded_and_zero_on_invalid_vertices() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 6)), 31);
    let mcts = CombinatorialMcts::new(MctsConfig::tiny());
    let mut sel = UniformSelector::new(0.1);
    let mut checked = 0;
    for graph in gen.generate_many(6) {
        let Ok(out) = mcts.search_in(&mut RouteContext::new(), &graph, &mut sel) else {
            continue;
        };
        for idx in 0..graph.len() {
            assert!((0.0..=1.0).contains(&out.label[idx]));
            if graph.kind_at(idx) != VertexKind::Empty {
                assert_eq!(out.label[idx], 0.0);
            }
        }
        checked += 1;
    }
    assert!(checked >= 4);
}
