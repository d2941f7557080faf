//! Equivalence oracle for the resumable Prim frontier (DESIGN.md §12.5).
//!
//! `OarmstRouter` keeps one Dijkstra frontier alive for a whole Prim
//! build and resumes it each step. The reference below is the plain
//! maze-router Prim: every step runs one fresh multi-source
//! `shortest_path_into` seeded with the whole current tree. Both must
//! return the same trees — cost bits and edge list — and the same errors,
//! through `route_in` (prune and polish included), and through `route_in`
//! and `route_cost_in` of the same router with prune and polish off
//! (`with_max_prune_rounds(0).with_polish_rounds(0)`, the MCTS critic's
//! state pricer). Covered: random paper-cost layouts under every
//! bounds margin and start terminal, `Heap` and `Auto`; tie-heavy
//! all-equal-cost grids; fractional costs, which take the heap; and
//! walled-off candidates and pins.

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_graph::dijkstra::SearchBounds;
use oarsmt_graph::{DijkstraWorkspace, GridAdjacency, StampMap};
use oarsmt_router::prune::retain_irredundant_in;
use oarsmt_router::retrace::polish_round_policy_in;
use oarsmt_router::{OarmstRouter, QueuePolicy, RouteContext, RouteError, RouteTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The settings one reference route runs under, mirroring the router's
/// builder options.
#[derive(Clone, Copy, Debug)]
struct Setup {
    margin: Option<usize>,
    start: usize,
    policy: QueuePolicy,
}

impl Setup {
    fn router(self) -> OarmstRouter {
        let mut r = OarmstRouter::new()
            .with_start(self.start)
            .with_queue_policy(self.policy);
        if let Some(m) = self.margin {
            r = r.with_bounds_margin(m);
        }
        r
    }
}

/// Candidates that are in bounds, unblocked and not a pin or an earlier
/// candidate, in order.
fn dedup(graph: &HananGraph, candidates: &[GridPoint]) -> Vec<GridPoint> {
    let mut out: Vec<GridPoint> = Vec::new();
    for &c in candidates {
        if graph.in_bounds(c)
            && !graph.is_blocked(c)
            && !graph.pins().contains(&c)
            && !out.contains(&c)
        {
            out.push(c);
        }
    }
    out
}

/// The reference Prim build: one fresh whole-tree search per step.
fn reference_build(
    graph: &HananGraph,
    kept: &[GridPoint],
    setup: Setup,
) -> Result<RouteTree, RouteError> {
    let pins = graph.pins();
    for &p in pins {
        if graph.is_blocked(p) {
            return Err(RouteError::BlockedTerminal(p));
        }
    }
    let terminals: Vec<GridPoint> = pins.iter().chain(kept).copied().collect();
    let bounds = setup
        .margin
        .map(|m| SearchBounds::around(graph, terminals.iter().copied(), m));
    let mut adj = GridAdjacency::new();
    adj.ensure(graph);
    let mut ws = DijkstraWorkspace::new();
    let first = terminals[setup.start % terminals.len()];
    let mut tree_vertices = vec![first];
    let mut unconnected: Vec<GridPoint> =
        terminals.iter().copied().filter(|&t| t != first).collect();
    let mut tree = RouteTree::new();
    let mut path = Vec::new();
    while !unconnected.is_empty() {
        let targets: Vec<usize> = unconnected.iter().map(|&t| graph.index(t)).collect();
        let searched = ws.shortest_path_into(
            graph,
            &adj,
            &tree_vertices,
            |i| targets.contains(&i),
            bounds,
            setup.policy,
            &[],
            &mut path,
        );
        if let Err(e) = searched {
            if unconnected.iter().any(|t| pins.contains(t)) {
                return Err(RouteError::from(e));
            }
            break;
        }
        for w in path.windows(2) {
            tree.add_edge(graph, w[0], w[1]);
        }
        for &p in &path {
            if !tree_vertices.contains(&p) {
                tree_vertices.push(p);
            }
            unconnected.retain(|&t| t != p);
        }
    }
    Ok(tree)
}

/// The reference `route_in`: build, prune to a fixed point (at most eight
/// rounds), then polish — the same pipeline around the reference build.
fn reference_route(
    graph: &HananGraph,
    candidates: &[GridPoint],
    setup: Setup,
) -> Result<RouteTree, RouteError> {
    if graph.pins().len() < 2 {
        return Err(RouteError::TooFewTerminals(graph.pins().len()));
    }
    let mut kept = dedup(graph, candidates);
    let mut tree = reference_build(graph, &kept, setup)?;
    let mut degrees = StampMap::new();
    for _ in 0..8 {
        if retain_irredundant_in(&mut degrees, graph, &tree, &mut kept) == 0 {
            break;
        }
        tree = reference_build(graph, &kept, setup)?;
    }
    let terminals: Vec<GridPoint> = graph.pins().iter().chain(&kept).copied().collect();
    let (polished, _) = polish_round_policy_in(
        &mut RouteContext::new(),
        graph,
        tree,
        &terminals,
        setup.policy,
    )?;
    Ok(polished)
}

fn assert_same(
    label: &str,
    reference: &Result<RouteTree, RouteError>,
    frontier: &Result<RouteTree, RouteError>,
) {
    match (reference, frontier) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "{label}: cost bits");
            assert_eq!(a.edges(), b.edges(), "{label}: edge list");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: error"),
        (a, b) => panic!("{label}: reference {a:?} but frontier {b:?}"),
    }
}

/// Checks one router, and the same router with prune and polish off,
/// against the reference, through one warm context (reuse must not leak
/// state).
fn check(
    label: &str,
    ctx: &mut RouteContext,
    graph: &HananGraph,
    cand: &[GridPoint],
    setup: Setup,
) {
    let router = setup.router();
    let label = format!("{label} {setup:?}");
    let reference = reference_route(graph, cand, setup);
    assert_same(&label, &reference, &router.route_in(ctx, graph, cand));

    let unpruned = if graph.pins().len() < 2 {
        Err(RouteError::TooFewTerminals(graph.pins().len()))
    } else {
        reference_build(graph, &dedup(graph, cand), setup)
    };
    let build_only = router.with_max_prune_rounds(0).with_polish_rounds(0);
    assert_same(
        &format!("{label} unpruned"),
        &unpruned,
        &build_only.route_in(ctx, graph, cand),
    );
    let cost = build_only.route_cost_in(ctx, graph, cand);
    match (&unpruned, cost) {
        (Ok(t), Ok(c)) => assert_eq!(t.cost().to_bits(), c.to_bits(), "{label}: unpruned cost"),
        (Err(a), Err(b)) => assert_eq!(*a, b, "{label}: unpruned cost error"),
        (a, b) => panic!("{label}: reference {a:?} but cost {b:?}"),
    }
}

fn random_candidates(graph: &HananGraph, rng: &mut StdRng, max: usize) -> Vec<GridPoint> {
    let n = rng.gen_range(0..=max);
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

/// The same layout with every cost mapped through `f`.
fn with_mapped_costs(g: &HananGraph, f: impl Fn(f64) -> f64) -> HananGraph {
    let (h, v, m) = g.dims();
    let mut out = HananGraph::with_costs(
        h,
        v,
        m,
        g.x_costs().iter().map(|&c| f(c)).collect(),
        g.y_costs().iter().map(|&c| f(c)).collect(),
        f(g.via_cost()),
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

const POLICIES: [QueuePolicy; 2] = [QueuePolicy::Heap, QueuePolicy::Auto];

#[test]
fn frontier_matches_fresh_search_prim_on_random_layouts() {
    let mut ctx = RouteContext::new();
    for seed in 0..24u64 {
        let g = CaseGenerator::new(GeneratorConfig::paper_costs(10, 9, 2, (3, 8)), seed).generate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9F1A);
        let cand = random_candidates(&g, &mut rng, 8);
        for margin in [None, Some(0), Some(1), Some(2), Some(3)] {
            for policy in POLICIES {
                let start = (seed as usize) % 3;
                check(
                    &format!("seed {seed}"),
                    &mut ctx,
                    &g,
                    &cand,
                    Setup {
                        margin,
                        start,
                        policy,
                    },
                );
            }
        }
    }
}

#[test]
fn frontier_matches_on_tie_heavy_equal_cost_grids() {
    let mut ctx = RouteContext::new();
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = HananGraph::uniform(9, 8, 3, 1.0, 1.0, 1.0);
        for _ in 0..rng.gen_range(0..20) {
            let p = GridPoint::new(
                rng.gen_range(0..9),
                rng.gen_range(0..8),
                rng.gen_range(0..3),
            );
            let _ = g.add_obstacle_vertex(p);
        }
        for _ in 0..rng.gen_range(2..8) {
            let p = GridPoint::new(
                rng.gen_range(0..9),
                rng.gen_range(0..8),
                rng.gen_range(0..3),
            );
            let _ = g.add_pin(p);
        }
        let cand = random_candidates(&g, &mut rng, 6);
        for margin in [None, Some(1)] {
            for policy in POLICIES {
                for start in 0..2 {
                    check(
                        &format!("ties {seed}"),
                        &mut ctx,
                        &g,
                        &cand,
                        Setup {
                            margin,
                            start,
                            policy,
                        },
                    );
                }
            }
        }
    }
}

#[test]
fn frontier_matches_on_fractional_costs() {
    let mut ctx = RouteContext::new();
    for seed in 0..12u64 {
        let base =
            CaseGenerator::new(GeneratorConfig::paper_costs(9, 8, 2, (3, 7)), seed).generate();
        let g = with_mapped_costs(&base, |c| c * 0.37 + 0.125);
        assert_eq!(
            g.integer_cost_ceiling(),
            None,
            "fractional costs take the heap"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF4AC);
        let cand = random_candidates(&g, &mut rng, 6);
        for margin in [None, Some(2)] {
            for policy in POLICIES {
                check(
                    &format!("fractional {seed}"),
                    &mut ctx,
                    &g,
                    &cand,
                    Setup {
                        margin,
                        start: 0,
                        policy,
                    },
                );
            }
        }
    }
}

/// A 6×6 layout with the corner (5, 5) walled off on its only layer.
fn pocket_grid() -> HananGraph {
    let mut g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
    for p in [(4, 5), (4, 4), (5, 4)] {
        g.add_obstacle_vertex(GridPoint::new(p.0, p.1, 0)).unwrap();
    }
    g
}

#[test]
fn frontier_matches_on_walled_off_candidates_and_pins() {
    let mut ctx = RouteContext::new();
    let pocket = GridPoint::new(5, 5, 0);
    // A walled-off candidate is dropped, wherever it sits in the order.
    let mut g = pocket_grid();
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(GridPoint::new(0, 5, 0)).unwrap();
    g.add_pin(GridPoint::new(3, 1, 0)).unwrap();
    let cand = [GridPoint::new(2, 2, 0), pocket, GridPoint::new(1, 4, 0)];
    for start in 0..5 {
        for policy in POLICIES {
            for margin in [None, Some(0)] {
                check(
                    "pocket candidate",
                    &mut ctx,
                    &g,
                    &cand,
                    Setup {
                        margin,
                        start,
                        policy,
                    },
                );
            }
        }
    }
    // A walled-off pin is fatal, with the same error.
    let mut g = pocket_grid();
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(pocket).unwrap();
    g.add_pin(GridPoint::new(2, 3, 0)).unwrap();
    for start in 0..3 {
        for policy in POLICIES {
            let setup = Setup {
                margin: None,
                start,
                policy,
            };
            check(
                "pocket pin",
                &mut ctx,
                &g,
                &[GridPoint::new(1, 1, 0)],
                setup,
            );
            assert!(matches!(
                setup.router().route_in(&mut ctx, &g, &[]),
                Err(RouteError::Disconnected { .. })
            ));
        }
    }
}

/// Targets whose distances fall from step to step: the first lies three
/// wide gaps from the root, each later one a unit gap from the path just
/// joined. Every later step's path enters at key 0 while the first steps'
/// entries wait thousands of keys above it (Dial, integer costs far under
/// the ceiling), and a last pin far across the grid drains them.
#[test]
fn frontier_matches_when_later_targets_lie_much_nearer() {
    let mut ctx = RouteContext::new();
    let mut g = HananGraph::with_costs(
        8,
        4,
        2,
        vec![900.0, 1000.0, 1.0, 700.0, 1.0, 1000.0, 3.0],
        vec![1.0, 950.0, 1.0],
        5.0,
    )
    .unwrap();
    g.add_obstacle_vertex(GridPoint::new(2, 1, 0)).unwrap();
    for p in [(0, 0, 0), (3, 0, 0), (3, 1, 0), (4, 1, 0), (7, 3, 1)] {
        g.add_pin(GridPoint::new(p.0, p.1, p.2)).unwrap();
    }
    assert!(g.integer_cost_ceiling().is_some_and(|c| c <= 1000));
    let cand = [GridPoint::new(5, 1, 0), GridPoint::new(4, 0, 1)];
    for start in 0..5 {
        for policy in POLICIES {
            for margin in [None, Some(0)] {
                for c in [&[][..], &cand] {
                    check(
                        "nearer later targets",
                        &mut ctx,
                        &g,
                        c,
                        Setup {
                            margin,
                            start,
                            policy,
                        },
                    );
                }
            }
        }
    }
}

/// Many terminals, so the A* bound to the open set (DESIGN.md §12.5) is
/// transformed again mid-pass each time the open set halves (12 open, then
/// at 6, 3 and 1), while a walled-off candidate stays open to the end and
/// the last step drains the frontier. Gap costs vary, so the prefix-space
/// bound is not a plain grid distance.
#[test]
fn frontier_matches_when_the_bound_refreshes_mid_pass() {
    let mut ctx = RouteContext::new();
    let mut g = HananGraph::with_costs(
        10,
        9,
        2,
        vec![3.0, 40.0, 1.0, 7.0, 2.0, 90.0, 1.0, 5.0, 12.0],
        vec![6.0, 1.0, 30.0, 2.0, 2.0, 8.0, 1.0, 4.0],
        5.0,
    )
    .unwrap();
    // (9, 8, 1) is walled off on both layers.
    for p in [(8, 8, 0), (8, 8, 1), (9, 7, 0), (9, 7, 1), (9, 8, 0)] {
        g.add_obstacle_vertex(GridPoint::new(p.0, p.1, p.2))
            .unwrap();
    }
    for p in [(4, 2, 0), (4, 3, 0), (4, 4, 1), (5, 4, 1)] {
        g.add_obstacle_vertex(GridPoint::new(p.0, p.1, p.2))
            .unwrap();
    }
    let pins = [
        (0, 0, 0),
        (9, 0, 1),
        (0, 8, 1),
        (5, 5, 0),
        (2, 6, 0),
        (7, 2, 1),
        (3, 1, 0),
        (8, 5, 0),
        (1, 3, 1),
        (6, 7, 0),
    ];
    for p in pins {
        g.add_pin(GridPoint::new(p.0, p.1, p.2)).unwrap();
    }
    let cand = [
        GridPoint::new(9, 8, 1),
        GridPoint::new(4, 6, 0),
        GridPoint::new(2, 2, 1),
    ];
    for start in 0..4 {
        for policy in POLICIES {
            for margin in [None, Some(0), Some(2)] {
                check(
                    "refreshed bound",
                    &mut ctx,
                    &g,
                    &cand,
                    Setup {
                        margin,
                        start,
                        policy,
                    },
                );
            }
        }
    }
}

/// Gap costs near the 2³² integer ceiling: path costs stay below 2⁵³, so
/// `Auto` still keys its Prim builds by A*, on the heap, with keys far
/// past 2³²; the trees are the plain searches' bit for bit.
#[test]
fn frontier_matches_near_the_integer_cost_ceiling() {
    let mut ctx = RouteContext::new();
    let top = (1u64 << 32) as f64;
    let base = CaseGenerator::new(GeneratorConfig::paper_costs(7, 6, 2, (3, 6)), 5).generate();
    let g = with_mapped_costs(&base, |c| top - 1000.0 + c);
    assert!(g.integer_cost_ceiling().is_some_and(|c| c <= 1 << 32));
    let mut rng = StdRng::seed_from_u64(0x2032);
    let cand = random_candidates(&g, &mut rng, 5);
    for start in 0..3 {
        for policy in POLICIES {
            for margin in [None, Some(1)] {
                check(
                    "near 2^32",
                    &mut ctx,
                    &g,
                    &cand,
                    Setup {
                        margin,
                        start,
                        policy,
                    },
                );
            }
        }
    }
}
