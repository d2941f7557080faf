//! Integration tests for the adoption features beyond the paper's scope:
//! exact optimum, geometry export, text-format I/O.

use oarsmt::selector::MedianHeuristicSelector;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::io::{parse_case, write_case};
use oarsmt_router::exact::steiner_exact_cost;
use oarsmt_router::segments::{render_layer, RouteGeometry};
use oarsmt_router::{Lin18Router, OarmstRouter, RouteContext};

#[test]
fn text_format_round_trips_generated_cases() {
    let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(9, 7, 3, (3, 6)), 60);
    for g in gen.generate_many(5) {
        let text = write_case(&g);
        let back = parse_case(&text).expect("own output parses");
        assert_eq!(g, back);
        // And the parsed case routes identically.
        if let Ok(t1) = OarmstRouter::new().route_in(&mut RouteContext::new(), &g, &[]) {
            let t2 = OarmstRouter::new()
                .route_in(&mut RouteContext::new(), &back, &[])
                .unwrap();
            assert_eq!(t1.cost(), t2.cost());
        }
    }
}

#[test]
fn geometry_export_covers_the_tree() {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (4, 6)), 61);
    for g in gen.generate_many(5) {
        let Ok(tree) = OarmstRouter::new().route_in(&mut RouteContext::new(), &g, &[]) else {
            continue;
        };
        let geo = RouteGeometry::extract(&g, &tree);
        // Every via in the tree appears in the export.
        assert_eq!(geo.vias.len(), tree.via_count(&g));
        // Unit-cost grids: wirelength equals planar cost.
        let planar_cost: f64 = tree.cost() - geo.vias.len() as f64 * g.via_cost();
        assert!(geo.wirelength() as f64 <= planar_cost + 1e-9 + planar_cost);
        // Rendering produces one text block per layer.
        for layer in 0..g.m() {
            let art = render_layer(&g, &tree, layer);
            assert_eq!(art.lines().count(), 2 * g.v() - 1);
        }
    }
}

#[test]
fn exact_optimum_lower_bounds_every_router() {
    let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(7, 7, 2, (4, 6)), 62);
    let mut compared = 0;
    for g in gen.generate_many(8) {
        let Ok(optimum) = steiner_exact_cost(&g) else {
            continue;
        };
        let plain = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap()
            .cost();
        let lin = Lin18Router::new().route(&g).unwrap().cost();
        let mut rl = oarsmt::RlRouter::new(MedianHeuristicSelector::new());
        let ours = rl.route(&g).unwrap().tree.cost();
        for (name, cost) in [("plain", plain), ("lin18", lin), ("ours", ours)] {
            assert!(
                cost >= optimum - 1e-6,
                "{name} ({cost}) below optimum ({optimum})"
            );
        }
        compared += 1;
    }
    assert!(compared >= 5);
}

#[test]
fn cli_text_format_supports_hand_written_cases() {
    let text = "\
# hand-written case
hanan 5 5 2
via 4
pin 0 0 0
pin 4 4 1
pin 0 4 0
obstacle 2 2 0
obstacle 2 2 1
";
    let g = parse_case(text).expect("hand-written case parses");
    assert_eq!(g.dims(), (5, 5, 2));
    let tree = OarmstRouter::new()
        .route_in(&mut RouteContext::new(), &g, &[])
        .unwrap();
    assert!(tree.spans_in(&g, g.pins()));
    for &(a, b) in tree.edges() {
        assert!(!g.is_blocked(g.point(a as usize)));
        assert!(!g.is_blocked(g.point(b as usize)));
    }
}
