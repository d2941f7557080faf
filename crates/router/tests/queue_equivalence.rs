//! Property tests pinning the [`QueuePolicy`] contract of DESIGN.md §12:
//!
//! * `Auto` routes **bit-identically** to the retained binary-heap oracle —
//!   same cost bits, same edge list, same pruned Steiner set — across
//!   random layouts, random candidate sets, and bounded-exploration
//!   margins. On the paper's bounded-integer cost models its Prim builds
//!   take A* keyed by the open-terminal bound on the Dial bucket queue
//!   (§12.5) and its single-target polish reroutes take A* on the heap
//!   (§12.4), each with the canonical read-out.
//! * Op counters: `Auto` pops no more than the oracle, polish or not.
//!   Exact equality needs no oracle: a layout and its ×8 DBU scaling run
//!   the same A* keys ×8, on Dial's queue and on the heap, so they match
//!   in every op count.
//! * On cost models that are not integer, `Auto` falls back to the heap
//!   (zero bucket scans) and stays identical trivially.
//! * Golden pins freeze bounded-exploration routing (cost bits, edge
//!   hash, heap and `Auto` op counts) and \[14\]'s router, and every counter
//!   of the default lane, bucket scans included.
//!
//! The Prim build itself is checked against a fresh-search-per-step
//! reference in `prim_frontier.rs`.

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_graph::DIAL_MAX_EDGE_COST;
use oarsmt_router::{Lin18Router, OarmstRouter, QueuePolicy, RouteContext, RouteError, RouteTree};
use oarsmt_telemetry::{Counter, CounterSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_case(seed: u64) -> HananGraph {
    CaseGenerator::new(GeneratorConfig::paper_costs(9, 8, 2, (3, 7)), seed).generate()
}

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
    oracle: &Result<RouteTree, RouteError>,
    tested: &Result<RouteTree, RouteError>,
    label: &str,
) {
    match (oracle, tested) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "{label}: cost bits");
            assert_eq!(a.edges(), b.edges(), "{label}: edge list");
            assert_eq!(
                a.steiner_vertices(graph, graph.pins()),
                b.steiner_vertices(graph, graph.pins()),
                "{label}: pruned Steiner set"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: error kind"),
        (a, b) => panic!("{label}: oracle {a:?} but tested {b:?}"),
    }
}

const OPS: [Counter; 3] = [
    Counter::DijkstraPops,
    Counter::DijkstraRelaxations,
    Counter::DijkstraPushes,
];

/// One route on a fresh context: the tree and the route's counter delta.
fn route(
    router: &OarmstRouter,
    graph: &HananGraph,
    cand: &[GridPoint],
) -> (Result<RouteTree, RouteError>, CounterSet) {
    let mut ctx = RouteContext::new();
    let tree = router.route_in(&mut ctx, graph, cand);
    (tree, ctx.counters_total())
}

/// `Auto` against the heap oracle under `router`'s settings: identical
/// trees, no more pops, and a Dial frontier on a polish-free route.
fn assert_auto_matches_heap(
    router: OarmstRouter,
    graph: &HananGraph,
    cand: &[GridPoint],
    label: &str,
) {
    for polish in [0, 1] {
        let r = router.clone().with_polish_rounds(polish);
        let (oracle, dh) = route(&r.clone().with_queue_policy(QueuePolicy::Heap), graph, cand);
        let (auto, da) = route(&r.with_queue_policy(QueuePolicy::Auto), graph, cand);
        assert_identical(graph, &oracle, &auto, &format!("{label} polish {polish}"));
        assert_eq!(dh.get(Counter::DijkstraBucketScans), 0, "{label}");
        if polish == 0 && oracle.is_ok() {
            assert!(da.get(Counter::DijkstraBucketScans) > 0, "{label}: no Dial");
        }
        let (ph, pa) = (dh.get(Counter::DijkstraPops), da.get(Counter::DijkstraPops));
        assert!(pa <= ph, "{label}: Auto popped {pa} > oracle {ph}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: `Auto` ≡ heap oracle bit for bit on
    /// random paper-cost layouts, with no more pops.
    #[test]
    fn auto_routes_bit_identically_to_heap_oracle(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A1);
        let g = random_case(seed);
        for _ in 0..2 {
            let cand = random_candidates(&g, &mut rng);
            assert_auto_matches_heap(OarmstRouter::new(), &g, &cand, "auto vs heap");
        }
    }

    /// `Auto` resolves to Dial on paper-cost layouts and must therefore be
    /// bit-identical to the oracle too (the router's new default).
    #[test]
    fn auto_default_matches_heap_oracle(seed in 0u64..500) {
        let g = random_case(seed);
        // The paper's generator always emits integral costs, so Auto is
        // always Dial-eligible here.
        prop_assert!(g.integer_cost_ceiling().is_some());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA070);
        let cand = random_candidates(&g, &mut rng);
        let oracle = OarmstRouter::new()
            .with_queue_policy(QueuePolicy::Heap)
            .route_in(&mut RouteContext::new(), &g, &cand);
        let auto = OarmstRouter::new().route_in(&mut RouteContext::new(), &g, &cand); // default policy
        assert_identical(&g, &oracle, &auto, "auto vs heap");
    }

    /// Bounded-exploration queries (the window-filtered instance of the
    /// relaxation loop) obey the same equivalence.
    #[test]
    fn bounded_auto_matches_bounded_heap(seed in 0u64..300, margin in 0usize..4) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0B0);
        let cand = random_candidates(&g, &mut rng);
        let router = OarmstRouter::new().with_bounds_margin(margin);
        assert_auto_matches_heap(router, &g, &cand, "bounded auto vs heap");
    }
}

/// The same layout with every cost ×8 (the DBU scaling of `route_dbu`).
fn scaled_x8(g: &HananGraph) -> HananGraph {
    let (h, v, m) = g.dims();
    let x8 = |c: &[f64]| c.iter().map(|&c| 8.0 * c).collect();
    let mut out = HananGraph::with_costs(
        h,
        v,
        m,
        x8(g.x_costs()),
        x8(g.y_costs()),
        8.0 * g.via_cost(),
    )
    .unwrap();
    for i in 0..g.len() {
        if g.kind_at(i) == VertexKind::Obstacle {
            out.add_obstacle_vertex(g.point(i)).unwrap();
        }
    }
    for &p in g.pins() {
        out.add_pin(p).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact op-count identity that needs no oracle: a layout and its
    /// ×8 scaling key every A* entry ×8 (`g` and both bounds scale), so
    /// the Prim builds on Dial's queue and on the heap (past the ceiling)
    /// pop the same `(key, index)` sequence. Same edges, the cost ×8 bit
    /// for bit, and equal pops, relaxations and pushes, polish or not.
    #[test]
    fn dbu_scaling_keeps_every_op_count(seed in 0u64..500) {
        let g = random_case(seed);
        let big = scaled_x8(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDB08);
        let cand = random_candidates(&g, &mut rng);
        for polish in [0, 1] {
            let router = OarmstRouter::new().with_polish_rounds(polish);
            let (a, da) = route(&router, &g, &cand);
            let (b, db) = route(&router, &big, &cand);
            let label = format!("seed {seed} polish {polish}");
            match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!((8.0 * a.cost()).to_bits(), b.cost().to_bits(), "{}", label);
                    prop_assert_eq!(a.edges(), b.edges(), "{}", label);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", label),
                (a, b) => panic!("{label}: {a:?} but scaled {b:?}"),
            }
            for c in OPS {
                prop_assert_eq!(da.get(c), db.get(c), "{}: {:?}", label, c);
            }
            if big.integer_cost_ceiling().is_some_and(|c| c > DIAL_MAX_EDGE_COST) {
                prop_assert_eq!(db.get(Counter::DijkstraBucketScans), 0, "{}", label);
            }
        }
    }
}

/// An `Auto` route on a fractional-cost graph must fall back to the heap
/// (DESIGN.md §12.2 eligibility) and still match the oracle.
#[test]
fn dial_falls_back_on_fractional_costs() {
    let mut g = HananGraph::uniform(7, 7, 2, 1.25, 1.0, 3.5);
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(GridPoint::new(6, 6, 1)).unwrap();
    g.add_pin(GridPoint::new(0, 6, 0)).unwrap();
    assert_eq!(g.integer_cost_ceiling(), None);
    let mut ctx = RouteContext::new();
    let before = ctx.counters_total();
    let dial = OarmstRouter::new()
        .with_queue_policy(QueuePolicy::Auto)
        .route_in(&mut ctx, &g, &[]);
    let oracle = OarmstRouter::new()
        .with_queue_policy(QueuePolicy::Heap)
        .route_in(&mut RouteContext::new(), &g, &[]);
    assert_identical(&g, &oracle, &dial, "fractional fallback");
    let delta = ctx.counters_total().delta_since(&before);
    assert_eq!(
        delta.get(Counter::DijkstraBucketScans),
        0,
        "fallback must not touch the bucket queue"
    );
}

/// FNV-1a over a tree's edge list: a compact, toolchain-stable geometry
/// fingerprint for the golden pins below.
fn edge_hash(tree: &RouteTree) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in tree.edges() {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Golden pins for bounded-exploration routing: tree cost bits, an
/// edge-list hash, and the Dijkstra op-count deltas of
/// `with_bounds_margin(0..=3)` routes under `Heap` and under `Auto` (whose
/// trees must agree; its A* builds and polish pop less), plus [14]'s
/// `Lin18Router`, whose sweep starts bounded. Any change to how bounded
/// maze queries expand shows up here.
#[test]
fn bounded_golden_pins() {
    let mut lines = Vec::new();
    for seed in [3u64, 11, 42, 77, 123] {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6B0D);
        let cand = random_candidates(&g, &mut rng);
        for margin in 0..=3usize {
            let pin = |policy: QueuePolicy| {
                let mut ctx = RouteContext::new();
                let before = ctx.counters_total();
                let tree = OarmstRouter::new()
                    .with_bounds_margin(margin)
                    .with_queue_policy(policy)
                    .route_in(&mut ctx, &g, &cand);
                let d = ctx.counters_total().delta_since(&before);
                let ops = OPS.map(|c| d.get(c));
                let tree = match tree {
                    Ok(t) => format!("{:x} {:x}", t.cost().to_bits(), edge_hash(&t)),
                    Err(e) => format!("err {e:?}"),
                };
                (tree, ops)
            };
            let (heap, heap_ops) = pin(QueuePolicy::Heap);
            let (auto, auto_ops) = pin(QueuePolicy::Auto);
            assert_eq!(heap, auto, "seed {seed} margin {margin}");
            lines.push(format!(
                "s{seed} m{margin} {heap} {heap_ops:?} {auto_ops:?}"
            ));
        }
        let lin = match Lin18Router::new().route(&g) {
            Ok(t) => format!("{:x} {:x}", t.cost().to_bits(), edge_hash(&t)),
            Err(e) => format!("err {e:?}"),
        };
        lines.push(format!("s{seed} lin18 {lin}"));
    }
    let golden = [
        "s3 m0 409c880000000000 614cf4889a0ebe7 [198, 769, 277] [79, 299, 157]",
        "s3 m1 409c880000000000 614cf4889a0ebe7 [240, 952, 331] [81, 328, 180]",
        "s3 m2 409c880000000000 614cf4889a0ebe7 [262, 1056, 363] [81, 329, 181]",
        "s3 m3 409c880000000000 614cf4889a0ebe7 [262, 1061, 368] [81, 329, 181]",
        "s3 lin18 409c880000000000 614cf4889a0ebe7",
        "s11 m0 40a4d60000000000 3f5a015a5e332c8e [245, 1029, 379] [108, 435, 214]",
        "s11 m1 40a4d60000000000 3f5a015a5e332c8e [275, 1177, 435] [114, 480, 241]",
        "s11 m2 40a4d60000000000 3f5a015a5e332c8e [285, 1225, 452] [114, 480, 241]",
        "s11 m3 40a4d60000000000 3f5a015a5e332c8e [288, 1237, 457] [114, 480, 241]",
        "s11 lin18 40a4d60000000000 3f5a015a5e332c8e",
        "s42 m0 40c2f70000000000 d96b5cdeb7cc34f7 [487, 1887, 670] [80, 281, 235]",
        "s42 m1 40c2f70000000000 d96b5cdeb7cc34f7 [523, 2046, 714] [88, 324, 258]",
        "s42 m2 40c2f70000000000 d96b5cdeb7cc34f7 [531, 2075, 723] [92, 340, 265]",
        "s42 m3 40c2f70000000000 d96b5cdeb7cc34f7 [531, 2075, 723] [92, 340, 265]",
        "s42 lin18 40c2f70000000000 d96b5cdeb7cc34f7",
        "s77 m0 40b4f20000000000 c6a7988c4f945069 [300, 1046, 472] [116, 385, 254]",
        "s77 m1 40b4f20000000000 c6a7988c4f945069 [342, 1227, 543] [122, 441, 295]",
        "s77 m2 40b4f20000000000 c6a7988c4f945069 [367, 1330, 586] [123, 450, 301]",
        "s77 m3 40b4f20000000000 c6a7988c4f945069 [373, 1356, 595] [123, 451, 302]",
        "s77 lin18 40b4f20000000000 c6a7988c4f945069",
        "s123 m0 40c3e28000000000 7ccb4230fc561828 [622, 2580, 778] [180, 737, 397]",
        "s123 m1 40c3e28000000000 7ccb4230fc561828 [622, 2586, 784] [180, 740, 400]",
        "s123 m2 40c3e28000000000 7ccb4230fc561828 [622, 2586, 784] [180, 740, 400]",
        "s123 m3 40c3e28000000000 7ccb4230fc561828 [622, 2586, 784] [180, 740, 400]",
        "s123 lin18 40c3e28000000000 7ccb4230fc561828",
    ];
    assert_eq!(lines, golden, "bounded routing behaviour changed");
}

/// Golden pins for the default lane's counters: every op count of an
/// `Auto` route (A* builds on Dial's queue, A* polish) on fixed seeds,
/// `dijkstra_bucket_scans` included, plus the cost bits and edge hash,
/// unbounded and at margin 1. The scan count is the number of keys the
/// bucket cursor walked (DESIGN.md §12.3), so it is a property of the pop
/// sequence, not of how the queue finds the next occupied bucket; a
/// change to the ring's internals must leave every number here unchanged.
#[test]
fn dial_counter_golden_pins() {
    let mut lines = Vec::new();
    for seed in [3u64, 11, 42, 77, 123] {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA7);
        let cand = random_candidates(&g, &mut rng);
        for margin in [None, Some(1)] {
            let mut router = OarmstRouter::new();
            if let Some(m) = margin {
                router = router.with_bounds_margin(m);
            }
            let mut ctx = RouteContext::new();
            let tree = router.route_in(&mut ctx, &g, &cand).unwrap();
            let d = ctx.counters_total();
            let ops = [
                Counter::DijkstraPops,
                Counter::DijkstraRelaxations,
                Counter::DijkstraPushes,
                Counter::DijkstraBucketScans,
            ]
            .map(|c| d.get(c));
            lines.push(format!(
                "s{seed} {margin:?} {:x} {:x} {ops:?}",
                tree.cost().to_bits(),
                edge_hash(&tree)
            ));
        }
    }
    let golden = [
        "s3 None 409c880000000000 614cf4889a0ebe7 [50, 192, 118, 4234]",
        "s3 Some(1) 409c880000000000 614cf4889a0ebe7 [50, 191, 117, 4234]",
        "s11 None 40a4d60000000000 3f5a015a5e332c8e [87, 354, 203, 6571]",
        "s11 Some(1) 40a4d60000000000 3f5a015a5e332c8e [87, 354, 203, 6571]",
        "s42 None 40c2f70000000000 d96b5cdeb7cc34f7 [170, 665, 432, 21744]",
        "s42 Some(1) 40c2f70000000000 d96b5cdeb7cc34f7 [164, 641, 420, 21744]",
        "s77 None 40b4f20000000000 c6a7988c4f945069 [58, 200, 176, 5362]",
        "s77 Some(1) 40b4f20000000000 c6a7988c4f945069 [56, 189, 168, 5362]",
        "s123 None 40c3e28000000000 7ccb4230fc561828 [290, 1188, 592, 36133]",
        "s123 Some(1) 40c3e28000000000 7ccb4230fc561828 [290, 1188, 592, 36133]",
    ];
    assert_eq!(lines, golden, "Dial counters changed");
}
