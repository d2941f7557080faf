//! Observability invariants at the router level: the flight recorder must
//! never perturb routing results, and `CounterSet::fold_pool_splits` must
//! be exactly the normalization that makes a cold context's counters equal
//! a warm context's (the one documented non-invariant pair).

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_router::{OarmstRouter, RouteContext};
use oarsmt_telemetry::tracing::{summarize, to_chrome_json, verify_chrome};
use oarsmt_telemetry::{Counter, Span};

fn cases(n: usize) -> Vec<HananGraph> {
    CaseGenerator::new(GeneratorConfig::paper_costs(8, 7, 2, (3, 6)), 42).generate_many(n)
}

/// Routes every case through `ctx`, recycling trees so the pool warms up.
fn route_all(router: &OarmstRouter, ctx: &mut RouteContext, cases: &[HananGraph]) -> Vec<u64> {
    cases
        .iter()
        .map(|g| {
            let tree = router.route_in(ctx, g, &[]).expect("routable case");
            let bits = tree.cost().to_bits();
            ctx.recycle_tree(tree);
            bits
        })
        .collect()
}

/// A cold context misses the tree pool once per outstanding tree; a warm
/// context hits it. `fold_pool_splits` must erase exactly that difference
/// — after folding, cold and warm counter sets are bit-identical.
#[test]
fn fold_pool_splits_reconciles_cold_and_warm_contexts() {
    let router = OarmstRouter::new();
    let cases = cases(6);

    let mut cold = RouteContext::new();
    let cold_costs = route_all(&router, &mut cold, &cases);

    let mut warm = RouteContext::new();
    route_all(&router, &mut warm, &cases); // warm-up pass
    let warmed = warm.counters_total();
    let warm_costs = route_all(&router, &mut warm, &cases);

    assert_eq!(cold_costs, warm_costs, "warmth never changes results");

    let cold_total = cold.counters_total();
    let mut warm_delta = warm.counters_total().delta_since(&warmed);
    assert!(
        cold_total.get(Counter::TreePoolMisses) > 0,
        "cold pass must actually miss the pool"
    );
    assert!(
        warm_delta.get(Counter::TreePoolHits) > 0,
        "warm pass must actually hit the pool"
    );
    assert_ne!(
        cold_total.get(Counter::TreePoolHits),
        warm_delta.get(Counter::TreePoolHits),
        "the split differs before folding"
    );

    let mut cold_folded = cold_total;
    cold_folded.fold_pool_splits();
    warm_delta.fold_pool_splits();
    assert_eq!(
        cold_folded, warm_delta,
        "after folding, cold and warm counters are bit-identical"
    );
    assert_eq!(cold_folded.get(Counter::TreePoolMisses), 0);
}

/// Routing with the flight recorder armed records balanced phase spans
/// whose ring summary equals the histograms, and changes neither results
/// nor deterministic counters.
#[test]
fn trace_recorder_is_invisible_to_results_and_counters() {
    let router = OarmstRouter::new();
    let cases = cases(4);

    let mut plain = RouteContext::new();
    let plain_costs = route_all(&router, &mut plain, &cases);

    let mut traced = RouteContext::new();
    traced.nn.spans.arm(4096);
    let traced_costs = route_all(&router, &mut traced, &cases);

    assert_eq!(plain_costs, traced_costs, "tracing never changes results");
    assert_eq!(
        plain.counters_total(),
        traced.counters_total(),
        "tracing never changes Tier A counters"
    );

    assert!(!traced.nn.spans.is_empty(), "phases were recorded");
    let events = traced.nn.spans.events_in_order();
    let aggs = summarize(&events);
    assert_eq!(traced.nn.spans.dropped(), 0);
    for span in [Span::RoutePrepare, Span::RouteDijkstra, Span::RouteRetrace] {
        let agg = aggs.iter().find(|a| a.span == span);
        let hist = traced.nn.spans.hists().get(span);
        assert!(hist.count > 0, "{span:?} missing from trace summary");
        assert_eq!(
            agg.map(|a| (a.count, a.total_ns)),
            Some((hist.count, hist.total_ns)),
            "{span:?}: ring and histogram disagree"
        );
    }
    let json = to_chrome_json(&events, traced.nn.spans.dropped());
    let check = verify_chrome(&json).expect("recorder output is balanced");
    assert_eq!(check.events, events.len());
}

/// A tiny ring still yields a balanced export: old begin events fall off
/// the front, and the exporter skips their orphaned ends.
#[test]
fn truncated_ring_exports_balanced_chrome_json() {
    let router = OarmstRouter::new();
    let mut ctx = RouteContext::new();
    ctx.nn.spans.arm(8);
    route_all(&router, &mut ctx, &cases(4));
    assert!(ctx.nn.spans.dropped() > 0, "ring must actually overflow");
    let events = ctx.nn.spans.events_in_order();
    let json = to_chrome_json(&events, ctx.nn.spans.dropped());
    verify_chrome(&json).expect("truncated export stays balanced");
}
