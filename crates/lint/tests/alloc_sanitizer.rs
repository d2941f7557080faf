//! Dynamic counterpart of the static D2 zero-alloc rule: a counting
//! `#[global_allocator]` proves the registered hot paths (`route_in`,
//! `predict_with_fsp_in`, `fsp_into_ws` of the neural and median-heuristic
//! selectors) perform
//! **zero** heap allocations in steady state,
//! and that `search_in` and the warm \[16\]/\[14\] baselines
//! (`Liu14Router::route`, `Lin18Router::route`) reach a stable per-call
//! allocation count (their outputs own freshly allocated vectors, so
//! zero is not the target there — stability across identical runs is).
//! It also proves the always-on Tier A telemetry counters advance *inside*
//! those zero-alloc windows: observability costs no heap traffic.
//!
//! Build and run with:
//!
//! ```text
//! cargo test --release -p oarsmt-lint --features alloc-count --test alloc_sanitizer
//! ```
//!
//! Everything runs inside one `#[test]` so no concurrent test thread can
//! touch the process-global counter mid-measurement.

#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use oarsmt::selector::{MedianHeuristicSelector, NeuralSelector, Selector, UniformSelector};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_mcts::{AlphaGoMcts, CombinatorialMcts, Critic, MctsConfig};
use oarsmt_nn::{Lane, NnWorkspace};
use oarsmt_router::{Lin18Router, Liu14Router, OarmstRouter, RouteContext};
use oarsmt_telemetry::{Counter, Span};

/// Counts every allocation and reallocation made through the global
/// allocator. Deallocations are not counted: a hot path that frees memory
/// it did not allocate would already show up as an alloc elsewhere.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: inherits the caller's `GlobalAlloc::dealloc` contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, which always
        // delegates to `System`, so freeing through `System` is valid.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: inherits the caller's `GlobalAlloc::realloc` contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same provenance argument as `dealloc`; `new_size`
        // obeys the caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count attributable to `f` (single-threaded by construction).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn graph() -> HananGraph {
    let mut g = HananGraph::uniform(6, 6, 2, 1.0, 1.0, 3.0);
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(GridPoint::new(5, 5, 0)).unwrap();
    g.add_pin(GridPoint::new(0, 5, 1)).unwrap();
    g.add_pin(GridPoint::new(5, 0, 1)).unwrap();
    g
}

#[test]
fn hot_paths_are_allocation_free_in_steady_state() {
    // The counter must actually count, or the zero assertions below would
    // pass vacuously.
    let (n, buf) = allocs_during(|| vec![0u8; 4096]);
    assert!(n >= 1, "counting allocator is not wired in");
    drop(buf);

    let g = graph();
    let mut ctx = RouteContext::new();

    // --- route_in: zero allocations once the context is warm. ---
    let router = OarmstRouter::new();
    let candidates = [GridPoint::new(2, 2, 0), GridPoint::new(3, 3, 1)];
    let mut warm_cost = 0.0;
    for _ in 0..3 {
        let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_cost = tree.cost();
        ctx.recycle_tree(tree);
    }
    let pops_before = ctx.counters_total().get(Counter::DijkstraPops);
    let (n, steady_cost) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "route_in allocated {n} times in steady state");
    assert_eq!(steady_cost, warm_cost, "steady-state result drifted");
    // The always-on Tier A counters advanced inside that zero-alloc window:
    // counting is free, not just cheap.
    assert!(
        ctx.counters_total().get(Counter::DijkstraPops) > pops_before,
        "Tier A counters did not advance during the zero-alloc routes"
    );

    // --- selection + routing with the span recorder armed: one warm
    // `fsp_into_ws` + `route_in` loop writes U-Net layer and routing
    // phase events into the context's one preallocated ring, with zero
    // allocations, and both kinds of event actually land. ---
    let mut traced_sel = NeuralSelector::random(0x7ACE);
    ctx.nn.spans.arm(1 << 14); // the one allocating call, outside the window
    let mut warm_traced = 0.0;
    for _ in 0..3 {
        traced_sel.fsp_into_ws(&g, &[], &mut ctx.fsp, &mut ctx.nn);
        let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_traced = tree.cost();
        ctx.recycle_tree(tree);
    }
    let hists_before = *ctx.nn.spans.hists();
    let (n, traced_cost) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            traced_sel.fsp_into_ws(&g, &[], &mut ctx.fsp, &mut ctx.nn);
            let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "traced selection + route_in allocated {n} times");
    assert_eq!(traced_cost, warm_traced, "tracing changed routing results");
    assert_eq!(
        traced_cost, warm_cost,
        "the selector pass changed the route"
    );
    let landed = ctx.nn.spans.hists().delta_since(&hists_before);
    let events = ctx.nn.spans.events_in_order();
    for span in [Span::NnConvFwd, Span::RouteDijkstra] {
        assert!(landed.get(span).count >= 8, "{span:?} never recorded");
        assert!(
            events.iter().any(|e| e.span == span),
            "{span:?} never reached the ring"
        );
    }

    // --- route_in with polish rounds: every reroute is a single-target
    // query with a target hint, so `Auto` runs it as A* on the heap (the
    // f = g + h search, its per-query bound rebuild, the settle-on up to
    // the target's f and the canonical read-out), allocation-free once
    // warm. The same routes pop fewer vertices than under the heap
    // oracle, which shows A* actually ran. ---
    let polished = OarmstRouter::new().with_polish_rounds(4);
    let mut warm_polished = 0.0;
    for _ in 0..3 {
        let tree = polished.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_polished = tree.cost();
        ctx.recycle_tree(tree);
    }
    let routes = |ctx: &mut RouteContext, router: &OarmstRouter| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = router.route_in(ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    };
    let before = ctx.counters_total();
    let (n, steady_polished) = allocs_during(|| routes(&mut ctx, &polished));
    assert_eq!(
        n, 0,
        "polished route_in allocated {n} times in steady state"
    );
    assert_eq!(
        steady_polished, warm_polished,
        "steady-state polished result drifted"
    );
    let auto_pops = ctx
        .counters_total()
        .delta_since(&before)
        .get(Counter::DijkstraPops);
    let oracle = polished
        .clone()
        .with_queue_policy(oarsmt_router::QueuePolicy::Heap);
    let before = ctx.counters_total();
    assert_eq!(
        routes(&mut ctx, &oracle),
        steady_polished,
        "A* polish left the oracle's tree"
    );
    let heap_pops = ctx
        .counters_total()
        .delta_since(&before)
        .get(Counter::DijkstraPops);
    assert!(
        auto_pops < heap_pops,
        "A* never ran: {auto_pops} pops vs heap {heap_pops}"
    );

    // --- route_in with bounded exploration: the window-filtered instance
    // of the relaxation loop is allocation-free once warm as well. ---
    let bounded = OarmstRouter::new().with_bounds_margin(2);
    let mut warm_bounded = 0.0;
    for _ in 0..3 {
        let tree = bounded.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_bounded = tree.cost();
        ctx.recycle_tree(tree);
    }
    let (n, steady_bounded) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = bounded.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "bounded route_in allocated {n} times in steady state");
    assert_eq!(
        steady_bounded, warm_bounded,
        "steady-state bounded result drifted"
    );

    // --- route_in on a wide Dial key range: paper-scale gap costs (up to
    // 1000) push keys into the thousands, so pops scan across many
    // occupancy words; once the key range and the bucket pool have grown,
    // warm routes allocate nothing either. ---
    let mut wide = HananGraph::with_costs(
        6,
        6,
        2,
        vec![1000.0, 7.0, 530.0, 64.0, 999.0],
        vec![3.0, 880.0, 65.0, 1.0, 700.0],
        5.0,
    )
    .unwrap();
    for p in [(0, 0, 0), (5, 5, 0), (0, 5, 1), (5, 0, 1)] {
        wide.add_pin(GridPoint::new(p.0, p.1, p.2)).unwrap();
    }
    let mut warm_wide = 0.0;
    for _ in 0..3 {
        let tree = router.route_in(&mut ctx, &wide, &candidates).unwrap();
        warm_wide = tree.cost();
        ctx.recycle_tree(tree);
    }
    let scans_before = ctx.counters_total().get(Counter::DijkstraBucketScans);
    let (n, steady_wide) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = router.route_in(&mut ctx, &wide, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(
        n, 0,
        "wide-cost route_in allocated {n} times in steady state"
    );
    assert_eq!(
        steady_wide, warm_wide,
        "steady-state wide-cost result drifted"
    );
    assert!(
        ctx.counters_total().get(Counter::DijkstraBucketScans) - scans_before > 8 * 1024,
        "the wide-cost routes never walked 1024 keys per route"
    );

    // --- route_in on a 40x40x3 paper-cost layout with candidates: dozens
    // of Prim steps per build, so the resumable frontier's persisted heap,
    // its key range and its bucket pool reach their high-water marks in
    // the warm-up and stay there. ---
    let (large, large_cand) = (0u64..)
        .find_map(|seed| {
            let g = oarsmt_geom::gen::CaseGenerator::new(
                oarsmt_geom::gen::GeneratorConfig::paper_costs(40, 40, 3, (12, 16)),
                seed,
            )
            .generate();
            let cand: Vec<GridPoint> = (0..12)
                .map(|k| GridPoint::new(3 + 3 * k, 37 - 3 * k, k % 3))
                .collect();
            router
                .route_in(&mut RouteContext::new(), &g, &cand)
                .is_ok()
                .then_some((g, cand))
        })
        .expect("some seed yields a routable layout");
    let mut warm_large = 0.0;
    for _ in 0..2 {
        let tree = router.route_in(&mut ctx, &large, &large_cand).unwrap();
        warm_large = tree.cost();
        ctx.recycle_tree(tree);
    }
    let pops_before = ctx.counters_total().get(Counter::DijkstraPops);
    let (n, steady_large) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..3 {
            let tree = router.route_in(&mut ctx, &large, &large_cand).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "40x40x3 route_in allocated {n} times in steady state");
    assert_eq!(
        steady_large, warm_large,
        "steady-state 40x40x3 result drifted"
    );
    assert!(
        ctx.counters_total().get(Counter::DijkstraPops) - pops_before > 3 * 1000,
        "the 40x40x3 routes settled almost nothing"
    );

    // --- predict_with_fsp_in: zero allocations with a precomputed fsp. ---
    let critic = Critic::new();
    let mut median = MedianHeuristicSelector::new();
    let selected = [GridPoint::new(2, 2, 0)];
    let mut fsp = Vec::new();
    median.fsp_into_ws(&g, &selected, &mut fsp, &mut NnWorkspace::new());
    let mut warm_value = 0.0;
    for _ in 0..3 {
        warm_value = critic
            .predict_with_fsp_in(&mut ctx, &g, &selected, &fsp)
            .unwrap();
    }
    let rollout_pops_before = ctx.counters_total().get(Counter::DijkstraPops);
    let (n, steady_value) = allocs_during(|| {
        let mut value = 0.0;
        for _ in 0..8 {
            value = critic
                .predict_with_fsp_in(&mut ctx, &g, &selected, &fsp)
                .unwrap();
        }
        value
    });
    assert_eq!(
        n, 0,
        "predict_with_fsp_in allocated {n} times in steady state"
    );
    assert_eq!(steady_value, warm_value, "steady-state result drifted");
    assert!(
        ctx.counters_total().get(Counter::DijkstraPops) > rollout_pops_before,
        "rollout counters did not advance during the zero-alloc predicts"
    );

    // --- MedianHeuristicSelector::fsp_into_ws (the critic lane's
    // selector): the axis medians are counted, not sorted, so a warm call
    // into a warm buffer allocates nothing. ---
    let mut median_ws = NnWorkspace::new();
    let warm_fsp = fsp.clone();
    let (n, ()) = allocs_during(|| {
        for _ in 0..8 {
            median.fsp_into_ws(&g, &selected, &mut fsp, &mut median_ws);
        }
    });
    assert_eq!(
        n, 0,
        "MedianHeuristicSelector::fsp_into_ws allocated {n} times in steady state"
    );
    assert_eq!(fsp, warm_fsp, "steady-state median fsp drifted");

    // --- fsp_into_ws: neural inference is allocation-free once the
    // workspace pools and the output vector are warm, over states with 0,
    // 1 and 2 extra pins, on every kernel lane the host has. ---
    let mut neural = NeuralSelector::random(0xA110C);
    let states: Vec<Vec<GridPoint>> = vec![
        vec![],
        vec![GridPoint::new(1, 1, 0)],
        vec![GridPoint::new(2, 3, 1), GridPoint::new(4, 2, 0)],
        vec![GridPoint::new(3, 3, 0)],
    ];
    let mut lane_sums = Vec::new();
    for lane in Lane::available() {
        let mut ws = NnWorkspace::new();
        assert_eq!(ws.set_lane(lane), lane);
        let mut out = Vec::new();
        let mut warm_sum = 0.0f32;
        for _ in 0..3 {
            for s in &states {
                neural.fsp_into_ws(&g, s, &mut out, &mut ws);
                warm_sum += out.iter().sum::<f32>();
            }
        }
        let before = ws.counters;
        let (n, steady_sum) = allocs_during(|| {
            let mut sum = 0.0f32;
            for _ in 0..3 {
                for s in &states {
                    neural.fsp_into_ws(&g, s, &mut out, &mut ws);
                    sum += out.iter().sum::<f32>();
                }
            }
            sum
        });
        let name = lane.name();
        assert_eq!(
            n, 0,
            "{name}: fsp_into_ws allocated {n} times in steady state"
        );
        assert_eq!(
            steady_sum, warm_sum,
            "{name}: steady-state inference result drifted"
        );
        let ran = ws.counters.delta_since(&before);
        assert!(
            ran.get(Counter::BatchFlushes) > 0,
            "{name}: network-pass counters did not advance during the zero-alloc inferences"
        );
        // The lane's tiles write through the same pooled buffers: the
        // zero-alloc inferences above ran exactly this lane's tiles, and a
        // silent fallback to a narrower lane would fail here.
        assert_eq!(
            ran.get(Counter::GemmKernelSimd) > 0,
            lane != Lane::Scalar,
            "{name}: wide tiles dispatched exactly on a wide lane"
        );
        lane_sums.push(steady_sum.to_bits());
    }
    assert!(
        lane_sums.windows(2).all(|p| p[0] == p[1]),
        "every lane infers the same bits"
    );

    // --- shared-reference inference: `&NeuralSelector` (how the trainer's
    // sample generators share one weight set) serves `fsp_into_ws` through
    // `UNet3d::predict_in(&self)` with zero steady-state allocations. ---
    let mut shared = &neural;
    let mut shared_ws = NnWorkspace::new();
    let mut shared_out = Vec::new();
    let extra = [GridPoint::new(2, 3, 1)];
    let mut warm_shared = 0.0f32;
    for _ in 0..3 {
        shared.fsp_into_ws(&g, &extra, &mut shared_out, &mut shared_ws);
        warm_shared = shared_out.iter().sum();
    }
    let flushes_before = shared_ws.counters.get(Counter::BatchFlushes);
    let (n, steady_shared) = allocs_during(|| {
        let mut sum = 0.0f32;
        for _ in 0..8 {
            shared.fsp_into_ws(&g, &extra, &mut shared_out, &mut shared_ws);
            sum = shared_out.iter().sum();
        }
        sum
    });
    assert_eq!(
        n, 0,
        "(&selector).fsp_into_ws allocated {n} times in steady state"
    );
    assert_eq!(
        steady_shared, warm_shared,
        "steady-state shared result drifted"
    );
    assert_eq!(
        shared_ws.counters.get(Counter::BatchFlushes) - flushes_before,
        8,
        "one network pass per shared inference"
    );

    // --- search_in: identical runs must cost an identical (small) number
    // of allocations — the SearchOutcome's owned vectors and nothing that
    // grows run over run. ---
    let mcts = CombinatorialMcts::new(MctsConfig::tiny());
    let mut uniform = UniformSelector::new(0.4);
    for _ in 0..2 {
        mcts.search_in(&mut ctx, &g, &mut uniform).unwrap();
    }
    let c0 = ctx.counters_total();
    let (a, first) = allocs_during(|| mcts.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c1 = ctx.counters_total();
    let (b, second) = allocs_during(|| mcts.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c2 = ctx.counters_total();
    assert_eq!(
        a, b,
        "search_in allocation count changed between identical runs ({a} vs {b})"
    );
    assert_eq!(first.final_cost, second.final_cost);
    assert_eq!(first.executed, second.executed);
    // Identical searches on a warm context produce bit-identical counter
    // deltas, and nonzero ones: the counters observed real work.
    let (da, db) = (c1.delta_since(&c0), c2.delta_since(&c1));
    assert_eq!(da, db, "counter deltas differ between identical searches");
    assert!(da.get(Counter::MctsRollouts) > 0);

    // The conventional scheme runs the same engine under the same
    // contract: its per-move samples are owned output, nothing grows.
    let conventional = AlphaGoMcts::new(MctsConfig::tiny());
    for _ in 0..2 {
        conventional.search_in(&mut ctx, &g, &mut uniform).unwrap();
    }
    let c0 = ctx.counters_total();
    let (a, first) = allocs_during(|| conventional.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c1 = ctx.counters_total();
    let (b, second) = allocs_during(|| conventional.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c2 = ctx.counters_total();
    assert_eq!(
        a, b,
        "AlphaGoMcts::search_in allocation count changed between identical runs ({a} vs {b})"
    );
    assert_eq!(first.final_cost, second.final_cost);
    assert_eq!(first.executed, second.executed);
    let (da, db) = (c1.delta_since(&c0), c2.delta_since(&c1));
    assert_eq!(
        da, db,
        "counter deltas differ between identical conventional searches"
    );
    assert!(da.get(Counter::MctsRollouts) > 0);

    // --- the [16] and [14] baselines: each router owns its context, so a
    // warm route on a repeated layout costs the same allocations every
    // call (the returned tree, the MST edge list and the implied-Steiner
    // vectors), never a per-call CSR, Dijkstra workspace or distance
    // vector. ---
    let layout = oarsmt_geom::gen::CaseGenerator::new(
        oarsmt_geom::gen::GeneratorConfig::paper_costs(16, 16, 3, (4, 10)),
        0x5EA7,
    )
    .generate_many(4)
    .swap_remove(3);
    let mut liu = Liu14Router::new();
    let mut lin = Lin18Router::new();
    for _ in 0..2 {
        liu.route(&layout).unwrap();
        lin.route(&layout).unwrap();
    }
    let (a, first) = allocs_during(|| liu.route(&layout).unwrap());
    let (b, second) = allocs_during(|| liu.route(&layout).unwrap());
    eprintln!("warm Liu14Router::route: {a} allocations per call");
    assert_eq!(
        a, b,
        "Liu14Router::route allocation count changed between identical runs ({a} vs {b})"
    );
    assert_eq!(first.edges(), second.edges());
    let (a, first) = allocs_during(|| lin.route(&layout).unwrap());
    let (b, second) = allocs_during(|| lin.route(&layout).unwrap());
    eprintln!("warm Lin18Router::route: {a} allocations per call");
    assert_eq!(
        a, b,
        "Lin18Router::route allocation count changed between identical runs ({a} vs {b})"
    );
    assert_eq!(first.edges(), second.edges());
}
