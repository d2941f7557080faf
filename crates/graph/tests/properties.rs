//! Property-based tests for the graph-search substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::dijkstra::SearchBounds;
use oarsmt_graph::mst::{mst_cost, prim_mst};
use oarsmt_graph::{
    BucketQueue, DijkstraWorkspace, GraphError, GridAdjacency, QueuePolicy, UnionFind,
};
use oarsmt_telemetry::Counter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_case(seed: u64) -> HananGraph {
    CaseGenerator::new(GeneratorConfig::paper_costs(7, 6, 2, (3, 5)), seed).generate()
}

fn adjacency(graph: &HananGraph) -> GridAdjacency {
    let mut adj = GridAdjacency::new();
    adj.ensure(graph);
    adj
}

/// One point-to-point maze query under `Auto`: `(cost, path)`.
fn query(
    ws: &mut DijkstraWorkspace,
    graph: &HananGraph,
    adj: &GridAdjacency,
    a: GridPoint,
    b: GridPoint,
) -> Result<(f64, Vec<GridPoint>), GraphError> {
    let target = graph.index(b);
    let mut path = Vec::new();
    let cost = ws.shortest_path_into(
        graph,
        adj,
        &[a],
        |i| i == target,
        None,
        QueuePolicy::Auto,
        &[],
        &mut path,
    )?;
    Ok((cost, path))
}

fn shortest_path(
    graph: &HananGraph,
    a: GridPoint,
    b: GridPoint,
) -> Result<(f64, Vec<GridPoint>), GraphError> {
    query(
        &mut DijkstraWorkspace::new(),
        graph,
        &adjacency(graph),
        a,
        b,
    )
}

fn random_free_point(graph: &HananGraph, rng: &mut StdRng) -> GridPoint {
    loop {
        let p = GridPoint::new(
            rng.gen_range(0..graph.h()),
            rng.gen_range(0..graph.v()),
            rng.gen_range(0..graph.m()),
        );
        if !graph.is_blocked(p) {
            return p;
        }
    }
}

/// `graph` with every cost multiplied by `k` (DBU scaling) and the same
/// obstacles.
fn scaled(graph: &HananGraph, k: f64) -> HananGraph {
    let (h, v, m) = graph.dims();
    let times = |c: &[f64]| c.iter().map(|&x| x * k).collect();
    let mut g = HananGraph::with_costs(
        h,
        v,
        m,
        times(graph.x_costs()),
        times(graph.y_costs()),
        graph.via_cost() * k,
    )
    .unwrap();
    for idx in 0..graph.len() {
        let p = graph.point(idx);
        if graph.is_blocked(p) {
            g.add_obstacle_vertex(p).unwrap();
        }
    }
    g
}

/// A uniform unit-cost grid with a few random obstacles: nearly every
/// vertex of the source–target box lies on some shortest path.
fn tie_heavy_case(seed: u64) -> HananGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = HananGraph::uniform(9, 8, 2, 1.0, 1.0, 1.0);
    for _ in 0..rng.gen_range(0..12usize) {
        let p = random_free_point(&g, &mut rng);
        g.add_obstacle_vertex(p).unwrap();
    }
    g
}

/// One maze query to `targets` with them as the hint under `Auto` against
/// the unhinted heap oracle: identical path points and cost bits (or the
/// same error); for one target, no more pops.
fn hinted_auto_matches_heap(
    graph: &HananGraph,
    sources: &[GridPoint],
    targets: &[GridPoint],
    bounds: Option<SearchBounds>,
) -> Result<(), TestCaseError> {
    let adj = adjacency(graph);
    let tset: Vec<usize> = targets.iter().map(|&p| graph.index(p)).collect();
    let run = |policy: QueuePolicy, hint: &[GridPoint]| {
        let mut ws = DijkstraWorkspace::new();
        let mut path = Vec::new();
        let cost = ws.shortest_path_into(
            graph,
            &adj,
            sources,
            |i| tset.contains(&i),
            bounds,
            policy,
            hint,
            &mut path,
        );
        (cost.map(f64::to_bits), path, ws.counters)
    };
    let (heap_cost, heap_path, heap_ops) = run(QueuePolicy::Heap, &[]);
    let (auto_cost, auto_path, auto_ops) = run(QueuePolicy::Auto, targets);
    prop_assert_eq!(heap_cost, auto_cost);
    prop_assert_eq!(heap_path, auto_path);
    let (hp, ap) = (
        heap_ops.get(Counter::DijkstraPops),
        auto_ops.get(Counter::DijkstraPops),
    );
    // Several targets make `h` zero on their whole bounding box, so only
    // a single target is guaranteed to settle a subset of the heap's.
    prop_assert!(
        targets.len() > 1 || ap <= hp,
        "Auto popped {} > heap {}",
        ap,
        hp
    );
    // A hinted query on integer costs is A* on the heap, never Dial.
    prop_assert_eq!(auto_ops.get(Counter::DijkstraBucketScans), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A hinted `Auto` query (A* with the canonical read-out) returns the
    /// heap oracle's path bit for bit: multi-source seeds, obstacles,
    /// tie-heavy uniform grids, search windows, ×8 DBU-scaled costs and
    /// several targets.
    #[test]
    fn hinted_auto_paths_are_the_heap_oracle_paths(seed in 0u64..800, margin in 0usize..4) {
        let paper = random_case(seed);
        let cases = [scaled(&paper, 8.0), paper, tie_heavy_case(seed)];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA57A);
        for g in &cases {
            for _ in 0..3 {
                let sources: Vec<GridPoint> =
                    (0..rng.gen_range(1..5usize)).map(|_| random_free_point(g, &mut rng)).collect();
                let targets: Vec<GridPoint> =
                    (0..rng.gen_range(1..4usize)).map(|_| random_free_point(g, &mut rng)).collect();
                let window = SearchBounds::around(g, sources.iter().chain(&targets).copied(), margin);
                hinted_auto_matches_heap(g, &sources, &targets[..1], None)?;
                hinted_auto_matches_heap(g, &sources, &targets[..1], Some(window))?;
                hinted_auto_matches_heap(g, &sources, &targets, None)?;
            }
        }
    }

    /// The CSR built in one index-order pass equals
    /// `HananGraph::neighbors` at every vertex, neighbor order and edge-cost
    /// bits included, on generated 1–8 × 1–8 layouts of one to three layers
    /// with obstacles. One adjacency serves two layouts in turn, so the
    /// second build starts from a stale cache.
    #[test]
    fn csr_equals_graph_neighbors_on_generated_layouts(
        seed in 0u64..800,
        h in 1usize..9,
        v in 1usize..9,
        m in 1usize..4,
    ) {
        let pins = (1, (h * v * m).min(4));
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(h, v, m, pins), seed);
        let mut adj = GridAdjacency::new();
        for g in gen.generate_many(2) {
            adj.ensure(&g);
            prop_assert!(adj.matches(&g));
            prop_assert_eq!(adj.len(), g.len());
            for idx in 0..g.len() {
                let want: Vec<(u32, u64)> = g
                    .neighbors(g.point(idx))
                    .map(|(q, c)| (g.index(q) as u32, c.to_bits()))
                    .collect();
                let got: Vec<(u32, u64)> =
                    adj.neighbors(idx).map(|(j, c)| (j, c.to_bits())).collect();
                prop_assert_eq!(want, got, "vertex {}", idx);
            }
        }
    }

    #[test]
    fn dijkstra_distances_satisfy_triangle_inequality(seed in 0u64..800) {
        let g = random_case(seed);
        let adj = adjacency(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut d = Vec::new();
        for &p in g.pins() {
            ws.pin_distances_from(&g, &adj, p, &mut d).unwrap();
        }
        let n = g.pins().len();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(d[a * n + b].to_bits(), d[b * n + a].to_bits());
                for c in 0..n {
                    let (ab, bc, ac) = (d[a * n + b], d[b * n + c], d[a * n + c]);
                    if ab.is_finite() && bc.is_finite() {
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_paths_are_symmetric(seed in 0u64..800) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let a = random_free_point(&g, &mut rng);
        let b = random_free_point(&g, &mut rng);
        match (shortest_path(&g, a, b), shortest_path(&g, b, a)) {
            (Ok(p1), Ok(p2)) => prop_assert!((p1.0 - p2.0).abs() < 1e-9),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "reachability must be symmetric"),
        }
    }

    #[test]
    fn path_edges_are_grid_neighbors_with_matching_costs(seed in 0u64..800) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 13);
        let a = random_free_point(&g, &mut rng);
        let b = random_free_point(&g, &mut rng);
        if let Ok((cost, path)) = shortest_path(&g, a, b) {
            let mut sum = 0.0;
            for w in path.windows(2) {
                let c = g.edge_cost(w[0], w[1]);
                prop_assert!(c.is_some(), "consecutive points must be neighbors");
                sum += c.unwrap();
            }
            prop_assert!((sum - cost).abs() < 1e-9);
        }
    }

    #[test]
    fn reused_search_space_matches_fresh_searches(seed in 0u64..400) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 21);
        let adj = adjacency(&g);
        let mut space = DijkstraWorkspace::new();
        for _ in 0..4 {
            let a = random_free_point(&g, &mut rng);
            let b = random_free_point(&g, &mut rng);
            let reused = query(&mut space, &g, &adj, a, b);
            let fresh = shortest_path(&g, a, b);
            match (reused, fresh) {
                (Ok(p1), Ok(p2)) => prop_assert!(p1 == p2, "reuse changed the path"),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "reuse must not change reachability"),
            }
        }
    }

    #[test]
    fn mst_cost_is_minimal_among_random_spanning_trees(seed in 0u64..300) {
        // Build a random metric, compare Prim against random spanning trees.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..7usize);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                dist[i * n + j] =
                    (pts[i].0 - pts[j].0).abs() + (pts[i].1 - pts[j].1).abs();
            }
        }
        let mst = prim_mst(&dist, n).unwrap();
        let best = mst_cost(&mst);
        // Random spanning trees via random edge insertion + union-find.
        for _ in 0..10 {
            let mut uf = UnionFind::new(n);
            let mut cost = 0.0;
            let mut edges = 0;
            while edges < n - 1 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && uf.union(a, b) {
                    cost += dist[a * n + b];
                    edges += 1;
                }
            }
            prop_assert!(best <= cost + 1e-9, "prim {best} vs random {cost}");
        }
    }
}

/// One operation of a random [`BucketQueue`] session; keys and bounds are
/// relative to the queue's cursor (the last popped key, 0 after a rewind).
#[derive(Debug, Clone)]
enum QueueOp {
    /// Push `idx` at `cursor + offset`. Offset 0 right after a pop is a
    /// same-key arrival while that key is open.
    Push { offset: u64, idx: u32 },
    /// Pop at most `count` entries whose keys lie below `cursor + bound`.
    Pop { bound: u64, count: usize },
    /// Move the cursor back to key 0, under every waiting key.
    Rewind,
}

/// Six pushes to three pops to one rewind. A push offset is small (same
/// key or the next few), near (within 100) or far (1000 to 20000 keys up);
/// a pop bound is near or unbounded.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..10, 0u8..3, 0u64..20_000, 0u32..64, 1usize..8).prop_map(
        |(kind, class, raw, idx, count)| match kind {
            0..=5 => QueueOp::Push {
                offset: [raw % 3, raw % 100, 1000 + raw % 19_000][class as usize],
                idx,
            },
            6..=8 => QueueOp::Pop {
                bound: if class == 0 { u64::MAX } else { raw % 200 },
                count,
            },
            _ => QueueOp::Rewind,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The key-indexed Dial queue against a `BinaryHeap<Reverse<(key,
    /// index)>>` oracle over random push / bounded-pop / rewind sequences:
    /// every pop is the oracle's least entry, a pop is refused exactly when
    /// the oracle's least key is not below the bound, and the scan counter
    /// is the sum of the cursor's forward walks. Keys reach far above the
    /// queue's current key range (growth), and same-key arrivals land on
    /// an open key.
    #[test]
    fn bucket_queue_matches_heap_oracle(
        ops in proptest::collection::vec(queue_op(), 1..120),
    ) {
        let mut q = BucketQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let (mut cursor, mut walked, mut scans) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                QueueOp::Push { offset, idx } => {
                    q.push(cursor + offset, idx);
                    oracle.push(Reverse((cursor + offset, idx)));
                }
                QueueOp::Pop { bound, count } => {
                    let below = cursor.saturating_add(bound);
                    for _ in 0..count {
                        let expect = oracle
                            .peek()
                            .map(|r| r.0)
                            .filter(|&(k, _)| k < below);
                        prop_assert_eq!(q.pop_min(below, &mut scans), expect);
                        let Some((k, _)) = expect else { break };
                        oracle.pop();
                        walked += k - cursor;
                        cursor = k;
                    }
                }
                QueueOp::Rewind => {
                    q.rewind();
                    cursor = 0;
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
            prop_assert_eq!(scans, walked);
        }
        q.reset();
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
    }
}
