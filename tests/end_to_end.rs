//! End-to-end integration: physical layout → Hanan reduction → Steiner
//! selection → OARMST → validated ML-OARSMT, across all routers.

use oarsmt::rl_router::RlRouter;
use oarsmt::selector::{MedianHeuristicSelector, NeuralSelector};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{Coord, GridPoint, HananGraph, Layout, Obstacle, Pin, Rect};
use oarsmt_nn::unet::UNetConfig;
use oarsmt_router::{
    Lin18Router, Liu14Router, OarmstRouter, RouteContext, RouteError, SpanningRouter,
};

fn tiny_selector(seed: u64) -> NeuralSelector {
    NeuralSelector::with_config(UNetConfig {
        in_channels: 7,
        base_channels: 2,
        levels: 1,
        seed,
    })
}

#[test]
fn physical_layout_routes_end_to_end() {
    let layout = Layout::new(3)
        .with_pin(Pin::new(Coord::new(0, 0), 0))
        .with_pin(Pin::new(Coord::new(100, 20), 1))
        .with_pin(Pin::new(Coord::new(40, 90), 2))
        .with_pin(Pin::new(Coord::new(90, 80), 0))
        .with_obstacle(Obstacle::new(Rect::new(30, 30, 70, 60), 0))
        .with_obstacle(Obstacle::new(Rect::new(30, 30, 70, 60), 1))
        .with_via_cost(4.0);
    let graph = HananGraph::from_layout(&layout).expect("layout reduces");

    let mut router = RlRouter::new(tiny_selector(1));
    let out = router.route(&graph).expect("routes");
    assert!(out.tree.is_tree());
    assert!(out.tree.spans_in(&graph, graph.pins()));
    // No tree edge touches an obstacle vertex.
    for &(a, b) in out.tree.edges() {
        assert!(!graph.is_blocked(graph.point(a as usize)));
        assert!(!graph.is_blocked(graph.point(b as usize)));
    }
}

#[test]
fn all_routers_agree_on_two_pin_shortest_path() {
    let mut g = HananGraph::uniform(7, 5, 2, 2.0, 3.0, 4.0);
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(GridPoint::new(6, 4, 1)).unwrap();
    let expected = 6.0 * 2.0 + 4.0 * 3.0 + 4.0; // straight route + one via

    let plain = OarmstRouter::new()
        .route_in(&mut RouteContext::new(), &g, &[])
        .unwrap()
        .cost();
    let lin = Lin18Router::new().route(&g).unwrap().cost();
    let liu = Liu14Router::new().route(&g).unwrap().cost();
    let span = SpanningRouter::new().route(&g).unwrap().cost();
    let mut rl = RlRouter::new(MedianHeuristicSelector::new());
    let ours = rl.route(&g).unwrap().tree.cost();

    for (name, cost) in [
        ("oarmst", plain),
        ("lin18", lin),
        ("liu14", liu),
        ("spanning", span),
        ("ours", ours),
    ] {
        assert_eq!(cost, expected, "{name} must find the shortest 2-pin route");
    }
}

#[test]
fn baseline_quality_ordering_holds_on_average() {
    // Table 4's ordering: spanning [12] worst, geometric reduction [16] in
    // between, [14] best among baselines. Verify over random layouts on
    // average (individual layouts may tie).
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(10, 10, 2, (5, 8)), 404);
    let (mut span_sum, mut liu_sum, mut lin_sum) = (0.0, 0.0, 0.0);
    let mut n = 0;
    let (mut liu14, mut lin18) = (Liu14Router::new(), Lin18Router::new());
    for g in gen.generate_many(12) {
        let Ok(span) = SpanningRouter::new().route(&g) else {
            continue;
        };
        let liu = liu14.route(&g).unwrap();
        let lin = lin18.route(&g).unwrap();
        span_sum += span.cost();
        liu_sum += liu.cost();
        lin_sum += lin.cost();
        n += 1;
    }
    assert!(n >= 8, "most random layouts route");
    assert!(liu_sum <= span_sum + 1e-6, "[16] beats [12] on average");
    assert!(lin_sum <= liu_sum + 1e-6, "[14] beats [16] on average");
}

#[test]
fn rl_router_never_loses_to_plain_oarmst_with_safeguard() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(9, 9, 2, (4, 7)), 505);
    let oarmst = OarmstRouter::new();
    let mut router = RlRouter::new(tiny_selector(2));
    for g in gen.generate_many(10) {
        let Ok(plain) = oarmst.route_in(&mut RouteContext::new(), &g, &[]) else {
            continue;
        };
        let out = router.route(&g).unwrap();
        assert!(out.tree.cost() <= plain.cost() + 1e-9);
    }
}

#[test]
fn arbitrary_sizes_route_with_one_selector() {
    // The headline property: one network handles any (H, V, M).
    let mut router = RlRouter::new(tiny_selector(3));
    for (h, v, m) in [(4, 4, 1), (9, 5, 2), (6, 11, 3), (14, 3, 2)] {
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(h, v, m, (3, 5)), 7);
        let g = gen.generate();
        match router.route(&g) {
            Ok(out) => {
                assert!(out.tree.spans_in(&g, g.pins()), "{h}x{v}x{m}");
            }
            Err(oarsmt::CoreError::Route(RouteError::Disconnected { .. })) => {}
            Err(e) => panic!("{h}x{v}x{m}: {e}"),
        }
    }
}
