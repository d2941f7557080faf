//! The hard requirement of the parallel engine: `--threads 1` and
//! `--threads N` must produce **bit-identical** results — per-layout costs
//! and win/loss tallies in evaluation, and dense MCTS labels in sample
//! generation. Each job derives its seed from its index and results are
//! folded in index order, so the worker partition can never leak into the
//! output.

use oarsmt::parallel::{derive_seed, run_seeded, run_seeded_with};
use oarsmt::rl_router::RlRouter;
use oarsmt::selector::NeuralSelector;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::unet::UNetConfig;
use oarsmt_router::{Lin18Router, RouteContext};
use oarsmt_telemetry::{Counter, CounterSet};

fn small_selector(seed: u64) -> NeuralSelector {
    NeuralSelector::with_config(UNetConfig {
        in_channels: 7,
        base_channels: 2,
        levels: 1,
        seed,
    })
}

fn layout(seed: u64) -> oarsmt_geom::HananGraph {
    CaseGenerator::new(GeneratorConfig::tiny(6, 6, 2, (3, 5)), seed).generate()
}

/// Table-2-style evaluation: baseline cost, our cost and the win tally per
/// layout, for a given worker count.
fn evaluate(threads: usize) -> (Vec<(u64, u64)>, usize) {
    const LAYOUTS: usize = 10;
    const SEED: u64 = 0xDAC2024;
    let selector = small_selector(5);
    let lin18 = Lin18Router::new();
    let rows = run_seeded_with(
        LAYOUTS,
        SEED,
        threads,
        || RlRouter::new(selector.clone()),
        |router, _i, seed| {
            let graph = layout(seed);
            let base = lin18.route(&graph).ok()?;
            let ours = router.route(&graph).ok()?;
            Some((base.cost().to_bits(), ours.tree.cost().to_bits()))
        },
    );
    let costs: Vec<(u64, u64)> = rows.into_iter().flatten().collect();
    let wins = costs
        .iter()
        .filter(|&&(b, o)| f64::from_bits(o) < f64::from_bits(b))
        .count();
    (costs, wins)
}

#[test]
fn table2_style_eval_is_bit_identical_across_thread_counts() {
    let (costs_1, wins_1) = evaluate(1);
    assert!(!costs_1.is_empty(), "fixed workload must route");
    for threads in [2, 4] {
        let (costs_n, wins_n) = evaluate(threads);
        assert_eq!(
            costs_1, costs_n,
            "per-layout costs differ at {threads} threads"
        );
        assert_eq!(wins_1, wins_n);
    }
}

#[test]
fn mcts_labels_are_bit_identical_across_thread_counts() {
    let generate = |threads: usize| -> Vec<Vec<u32>> {
        let selector = small_selector(7);
        let config = MctsConfig {
            base_iterations: 8,
            base_size: 25,
            ..MctsConfig::default()
        };
        run_seeded_with(
            6,
            99,
            threads,
            || selector.clone(),
            |sel, _i, seed| {
                let graph = layout(seed);
                let mcts = CombinatorialMcts::new(config.clone());
                match mcts.search(&graph, sel) {
                    Ok(out) => out.label.iter().map(|p| p.to_bits()).collect(),
                    Err(_) => Vec::new(),
                }
            },
        )
    };
    let one = generate(1);
    let four = generate(4);
    assert_eq!(one, four, "MCTS labels depend on the worker partition");
    assert!(
        one.iter().any(|l| !l.is_empty()),
        "some searches must succeed"
    );
}

/// Runs the golden searches of the label test above with per-job counter
/// deltas (the same capture/fold pattern the sample-generation engine
/// uses) and returns the folded totals plus the number of trace events the
/// workers recorded. `trace_cap > 0` arms the flight recorder on every
/// worker context before the searches run.
fn search_counters_traced(threads: usize, trace_cap: usize) -> (CounterSet, u64) {
    let config = MctsConfig {
        base_iterations: 8,
        base_size: 25,
        ..MctsConfig::default()
    };
    let deltas = run_seeded_with(
        6,
        99,
        threads,
        || {
            let mut ctx = RouteContext::new();
            if trace_cap > 0 {
                ctx.nn.spans.arm(trace_cap);
            }
            (ctx, small_selector(7))
        },
        |state, _i, seed| {
            let (ctx, sel) = state;
            let graph = layout(seed);
            let mcts = CombinatorialMcts::new(config.clone());
            let before = ctx.counters_total();
            let _ = mcts.search_in(ctx, &graph, sel);
            let events = ctx.nn.spans.len() as u64 + ctx.nn.spans.dropped();
            (ctx.counters_total().delta_since(&before), events)
        },
    );
    let mut total = CounterSet::new();
    let mut events = 0;
    for (delta, n) in &deltas {
        total.merge_from(delta);
        events = events.max(*n);
    }
    (total, events)
}

fn search_counters(threads: usize) -> CounterSet {
    search_counters_traced(threads, 0).0
}

#[test]
fn search_counter_totals_are_bit_identical_across_thread_counts() {
    let mut one = search_counters(1);
    let mut four = search_counters(4);
    // Pure work counters must agree with no caveats at all.
    for c in [
        Counter::DijkstraPops,
        Counter::DijkstraRelaxations,
        Counter::MctsExpansions,
        Counter::MctsRollouts,
    ] {
        assert_eq!(one.get(c), four.get(c), "{c:?} depends on thread count");
    }
    // Pool hit/miss *splits* legitimately differ (each worker warms its own
    // context), but their sums are pure functions of the work.
    one.fold_pool_splits();
    four.fold_pool_splits();
    assert_eq!(one, four, "counter totals depend on the worker partition");
    assert!(!one.is_zero(), "golden searches must count real work");
}

/// The flight recorder is a pure observer: arming it on every worker
/// context changes no deterministic counter, and the folded totals stay
/// bit-identical between `--threads 1` and `--threads 4` with tracing on.
#[test]
fn counter_totals_survive_an_active_trace_recorder() {
    let (mut plain, no_events) = search_counters_traced(1, 0);
    let (mut traced_1, events_1) = search_counters_traced(1, 4096);
    let (mut traced_4, events_4) = search_counters_traced(4, 4096);
    assert_eq!(no_events, 0, "a disabled recorder must record nothing");
    assert!(events_1 > 0, "an armed recorder must capture route spans");
    assert!(events_4 > 0, "an armed recorder must capture route spans");
    plain.fold_pool_splits();
    traced_1.fold_pool_splits();
    traced_4.fold_pool_splits();
    assert_eq!(plain, traced_1, "tracing perturbed the counters");
    assert_eq!(
        traced_1, traced_4,
        "traced counter totals depend on thread count"
    );
}

#[test]
fn derived_seeds_are_a_pure_function_of_master_and_index() {
    let direct: Vec<u64> = (0..16).map(|i| derive_seed(3, i)).collect();
    let pooled = run_seeded(16, 3, 4, |_i, seed| seed);
    assert_eq!(direct, pooled);
}
