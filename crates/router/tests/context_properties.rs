//! Property tests pinning the [`RouteContext`] reuse contract: routing
//! through a reused context is *bit-identical* to fresh-allocation routing
//! — same cost bits, same edge list, same pruned Steiner set — for random
//! layouts and random candidate sets, across layout changes, and across
//! interleaved query kinds.

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{OarmstRouter, RouteContext, RouteError, RouteTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_case(seed: u64) -> HananGraph {
    CaseGenerator::new(GeneratorConfig::paper_costs(8, 7, 2, (3, 6)), seed).generate()
}

/// Random candidate set: arbitrary grid points, intentionally allowed to
/// collide with pins, obstacles, or each other (dedup is part of the
/// contract under test).
fn random_candidates(graph: &HananGraph, rng: &mut StdRng) -> Vec<GridPoint> {
    let n = rng.gen_range(0..6usize);
    (0..n)
        .map(|_| {
            GridPoint::new(
                rng.gen_range(0..graph.h()),
                rng.gen_range(0..graph.v()),
                rng.gen_range(0..graph.m()),
            )
        })
        .collect()
}

fn assert_identical(
    graph: &HananGraph,
    fresh: &Result<RouteTree, RouteError>,
    reused: &Result<RouteTree, RouteError>,
) {
    match (fresh, reused) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "cost bits");
            assert_eq!(a.edges(), b.edges(), "edge list");
            assert_eq!(
                a.steiner_vertices(graph, graph.pins()),
                b.steiner_vertices(graph, graph.pins()),
                "pruned Steiner set"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "error kind"),
        (a, b) => panic!("fresh {a:?} but reused {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One context serves many layouts and many candidate sets; every
    /// query must match the fresh-allocation route bit for bit.
    #[test]
    fn reused_context_routes_bit_identically(seed in 0u64..600) {
        let router = OarmstRouter::new();
        let mut ctx = RouteContext::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(8, 7, 2, (3, 6)), seed);
        for g in gen.generate_many(3) {
            for _ in 0..2 {
                let cand = random_candidates(&g, &mut rng);
                let fresh = router.route_in(&mut RouteContext::new(), &g, &cand);
                let reused = router.route_in(&mut ctx, &g, &cand);
                assert_identical(&g, &fresh, &reused);
            }
        }
    }

    /// The cost-only context entry points (the MCTS critic's hot path)
    /// agree bit-for-bit with the tree-returning fresh routes.
    #[test]
    fn cost_only_entry_points_match_fresh_trees(seed in 0u64..600) {
        let g = random_case(seed);
        let router = OarmstRouter::new();
        let mut ctx = RouteContext::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0575);
        for _ in 0..3 {
            let cand = random_candidates(&g, &mut rng);
            let fresh = router.route_in(&mut RouteContext::new(), &g, &cand);
            match (fresh, router.route_cost_in(&mut ctx, &g, &cand)) {
                (Ok(t), Ok(c)) => prop_assert_eq!(t.cost().to_bits(), c.to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => return Err(TestCaseError::fail(format!("route {a:?} vs cost {b:?}"))),
            }
            let build_only = router.clone().with_max_prune_rounds(0).with_polish_rounds(0);
            let fresh = build_only.route_in(&mut RouteContext::new(), &g, &cand);
            match (fresh, build_only.route_cost_in(&mut ctx, &g, &cand)) {
                (Ok(t), Ok(c)) => prop_assert_eq!(t.cost().to_bits(), c.to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => return Err(TestCaseError::fail(format!("unpruned {a:?} vs {b:?}"))),
            }
        }
    }

    /// Bounded-exploration routing (the one query family that bypasses the
    /// CSR fast path) obeys the same reuse contract.
    #[test]
    fn bounded_router_reuse_is_bit_identical(seed in 0u64..300) {
        let g = random_case(seed);
        let router = OarmstRouter::new().with_bounds_margin(2);
        let mut ctx = RouteContext::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B);
        let cand = random_candidates(&g, &mut rng);
        let fresh = router.route_in(&mut RouteContext::new(), &g, &cand);
        let reused = router.route_in(&mut ctx, &g, &cand);
        assert_identical(&g, &fresh, &reused);
    }
}
