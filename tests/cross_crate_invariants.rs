//! Property-based integration tests across crates: Hanan reduction, tree
//! invariants (every router's tree queries against brute force),
//! augmentation symmetries, actor policies, MCTS labels.

use oarsmt::rl_router::RlRouter;
use oarsmt::selector::{Selector, UniformSelector};
use oarsmt::topk::select_top_k_into;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{Coord, GridPoint, HananGraph, Layout, Obstacle, Pin, Rect, VertexKind};
use oarsmt_graph::StampMap;
use oarsmt_mcts::actor::action_policy_into;
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::NnWorkspace;
use oarsmt_rl::augment::{transform_sample, Symmetry};
use oarsmt_rl::sample::TrainingSample;
use oarsmt_router::prune::retain_irredundant_in;
use oarsmt_router::retrace::polish_round_in;
use oarsmt_router::{
    Lin18Router, Liu14Router, OarmstRouter, RouteContext, RouteError, RouteTree, SpanningRouter,
};
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

/// Whether `edges` over `n` vertices form one tree, by a depth-first walk.
fn brute_is_tree(n: usize, edges: &[(u32, u32)]) -> bool {
    let mut used = vec![false; n];
    for &(a, b) in edges {
        used[a as usize] = true;
        used[b as usize] = true;
    }
    let used = used.iter().filter(|&&u| u).count();
    let mut reached = vec![false; n];
    let mut stack: Vec<u32> = edges.first().map(|e| e.0).into_iter().collect();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut reached[v as usize], true) {
            continue;
        }
        for &(a, b) in edges {
            if a == v || b == v {
                stack.push(a ^ b ^ v);
            }
        }
    }
    let connected = reached.iter().filter(|&&r| r).count() == used;
    edges.is_empty() || (connected && used == edges.len() + 1)
}

/// Checks one router's tree against answers computed here from its edge
/// list alone: distinct edges, `is_tree` (also with one edge cut out),
/// `spans_in`, `steiner_vertices`, and which candidates the prune keeps
/// (exactly those of degree ≥ 3).
fn check_tree_queries(graph: &HananGraph, tree: &RouteTree, what: &str) -> TestCaseResult {
    let edges = tree.edges();
    let mut distinct = edges.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(distinct.len(), edges.len(), "{}: repeated edge", what);

    prop_assert_eq!(
        tree.is_tree(),
        brute_is_tree(graph.len(), edges),
        "{}: is_tree",
        what
    );
    if let Some(&(a, b)) = edges.get(edges.len() / 2) {
        let mut cut = RouteTree::new();
        cut.copy_from(tree);
        prop_assert!(cut.remove_edge(graph, a, b));
        prop_assert_eq!(
            cut.is_tree(),
            brute_is_tree(graph.len(), cut.edges()),
            "{}: is_tree with an edge cut",
            what
        );
    }

    let mut deg = vec![0u32; graph.len()];
    for &(a, b) in edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let pins = graph.pins();
    let spans =
        (edges.is_empty() && pins.len() <= 1) || pins.iter().all(|&p| deg[graph.index(p)] > 0);
    prop_assert_eq!(tree.spans_in(graph, pins), spans, "{}: spans_in pins", what);
    for (i, &d) in deg.iter().enumerate() {
        let one = [graph.point(i)];
        prop_assert_eq!(
            tree.spans_in(graph, &one),
            edges.is_empty() || d > 0,
            "{}: spans_in vertex {}",
            what,
            i
        );
    }

    let joints: Vec<GridPoint> = (0..graph.len())
        .filter(|&i| deg[i] >= 3)
        .map(|i| graph.point(i))
        .collect();
    prop_assert_eq!(
        tree.steiner_vertices(graph, &[]),
        joints,
        "{}: joints",
        what
    );
    let steiner: Vec<GridPoint> = joints
        .iter()
        .copied()
        .filter(|p| !pins.contains(p))
        .collect();
    prop_assert_eq!(
        tree.steiner_vertices(graph, pins),
        steiner,
        "{}: Steiner",
        what
    );

    let mut kept: Vec<GridPoint> = (0..graph.len()).map(|i| graph.point(i)).collect();
    let removed = retain_irredundant_in(&mut StampMap::new(), graph, tree, &mut kept);
    prop_assert_eq!(
        removed,
        graph.len() - joints.len(),
        "{}: pruned count",
        what
    );
    prop_assert_eq!(kept, joints, "{}: kept candidates", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn route_tree_queries_match_brute_force(
        m in 1usize..4,
        seed in 0u64..100_000,
        picks in prop::collection::vec(0usize..100_000, 0..6),
    ) {
        let graph =
            CaseGenerator::new(GeneratorConfig::paper_costs(9, 8, m, (3, 7)), seed).generate();
        let candidates: Vec<GridPoint> =
            picks.iter().map(|&i| graph.point(i % graph.len())).collect();
        let mut ctx = RouteContext::new();
        let built = match OarmstRouter::new()
            .with_polish_rounds(0)
            .route_in(&mut ctx, &graph, &candidates)
        {
            Ok(t) => t,
            Err(RouteError::Disconnected { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("route_in: {e}"))),
        };
        check_tree_queries(&graph, &built, "route_in (unpolished)")?;
        let (polished, _) = polish_round_in(&mut ctx, &graph, built, graph.pins()).unwrap();
        check_tree_queries(&graph, &polished, "polish_round_in")?;
        let full = OarmstRouter::new().route_in(&mut ctx, &graph, &candidates).unwrap();
        check_tree_queries(&graph, &full, "route_in")?;
        let rl = RlRouter::new(UniformSelector::new(0.3)).route(&graph).unwrap();
        check_tree_queries(&graph, &rl.tree, "RlRouter::route")?;
        check_tree_queries(&graph, &Lin18Router::new().route(&graph).unwrap(), "Lin18Router")?;
        check_tree_queries(&graph, &Liu14Router::new().route(&graph).unwrap(), "Liu14Router")?;
        check_tree_queries(&graph, &SpanningRouter::new().route(&graph).unwrap(), "SpanningRouter")?;
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
