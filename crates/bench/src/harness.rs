//! Shared experiment machinery: the pretrained selector and the subset
//! comparison runner behind Tables 2–3 and Fig. 10.

use std::path::PathBuf;

use oarsmt::eval::CostComparison;
use oarsmt::parallel;
use oarsmt::rl_router::RlRouter;
use oarsmt::selector::NeuralSelector;
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_nn::unet::UNetConfig;
use oarsmt_rl::schedule::laptop_schedule;
use oarsmt_rl::Trainer;
use oarsmt_router::{Lin18Router, RouteError};
use oarsmt_telemetry::{CounterSet, Span, SpanRecorder, SpanSet};

/// Architecture of the experiment selector (small enough to train in
/// minutes on one core, wide enough to learn the 3–6-pin patterns).
pub fn experiment_net_config() -> UNetConfig {
    UNetConfig {
        in_channels: 7,
        base_channels: 4,
        levels: 2,
        seed: 1234,
    }
}

/// Path of the cached pretrained selector weights.
fn weights_path() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    dir.join("selector-v1.bin")
}

/// Returns the experiment selector, training it with the scaled schedule of
/// [`laptop_schedule`] on first use and caching the weights under
/// `crates/bench/artifacts/`.
///
/// # Panics
///
/// Panics if training fails systematically (cannot generate routable
/// layouts) or the cache directory is not writable.
pub fn pretrained_selector() -> NeuralSelector {
    let path = weights_path();
    let mut selector = NeuralSelector::with_config(experiment_net_config());
    if path.exists() && selector.load(&path).is_ok() {
        return selector;
    }
    eprintln!("[harness] training experiment selector (one-time, cached at {path:?})");
    let mut trainer = Trainer::new(laptop_schedule(7));
    let reports = trainer
        .run(&mut selector)
        .expect("training on random layouts must succeed");
    for r in &reports {
        eprintln!("[harness] {r}");
    }
    std::fs::create_dir_all(path.parent().expect("artifacts dir")).expect("create artifacts dir");
    selector.save(&path).expect("cache selector weights");
    selector
}

/// Per-subset outcome of the ours-vs-\[14\] comparison.
#[derive(Debug, Clone)]
pub struct SubsetResult {
    /// Subset name.
    pub name: &'static str,
    /// Cost statistics (baseline = \[14\], ours = RL router).
    pub comparison: CostComparison,
    /// What this subset added to the caller's recorder: one
    /// [`Span::BenchRung`] and per layout one [`Span::PhaseBaseline`] /
    /// [`Span::PhaseSelect`] / [`Span::PhaseRoute`] record. The phase
    /// nanoseconds are measured inside each job and folded in index order,
    /// so they populate regardless of the `telemetry-timing` feature.
    pub spans: SpanSet,
    /// Deterministic work counters, per-job deltas folded in index order.
    pub counters: CounterSet,
    /// Per-layout `(obstacle_ratio, improvement_ratio)` points (Fig. 10).
    pub obstacle_points: Vec<(f64, f64)>,
    /// Layouts skipped because their pins were walled off.
    pub skipped: usize,
}

/// Outcome of one layout inside [`run_subset`]'s fan-out.
enum LayoutOutcome {
    /// Pins walled off by obstacles — counted, not an error.
    Skipped,
    /// Both routers succeeded.
    Row {
        base_cost: f64,
        ours_cost: f64,
        /// `(baseline, select, route)` wall-clock nanoseconds.
        phase_ns: [u64; 3],
        obstacle_point: (f64, f64),
    },
}

/// Runs one subset: generates its layouts, routes each with the \[14\]
/// baseline and with our RL router on a pool of `threads` workers, and
/// accumulates cost, runtime and obstacle-ratio statistics.
///
/// The subset is one [`Span::BenchRung`] in `spans`, opened live. Each
/// layout's three phase times, measured on its worker, are laid end to end
/// inside it with explicit timestamps, so an armed recorder holds the
/// subset as a per-layout timeline.
///
/// Layout `i` is generated from `parallel::derive_seed(seed, i)` and the
/// per-layout results are folded in index order, so costs, win/loss tallies
/// and obstacle points are **bit-identical for every thread count**; only
/// the measured times vary. Workers share `selector` read-only (a
/// `&NeuralSelector` is itself a `Selector`, running the cache-free
/// inference path, which is bit-identical to the owned path) — no worker
/// clones the weight set.
///
/// # Errors
///
/// Propagates systematic routing failures; layouts whose pins are
/// disconnected by obstacles are counted in `skipped`.
pub fn run_subset(
    spec: &TestSubsetSpec,
    selector: &NeuralSelector,
    seed: u64,
    threads: usize,
    spans: &mut SpanRecorder,
) -> Result<SubsetResult, RouteError> {
    let before = *spans.hists();
    // A pool's phases laid end to end can outrun the wall clock, so an
    // earlier rung may have ended ahead of `now()`: start after it.
    let mut t = spans.now().max(spans.latest_ns());
    let rung = spans.begin(Span::BenchRung, t);
    let lin18 = Lin18Router::new();
    let outcomes = parallel::run_seeded_with(
        spec.layouts,
        seed,
        threads,
        || RlRouter::new(selector),
        |router, _idx, layout_seed| -> Result<(LayoutOutcome, CounterSet), RouteError> {
            let graph = spec.generator(layout_seed).generate();
            // Each job reports its counter delta (the worker's router
            // context is reused, so absolute readings mix layouts).
            let before = router.counters();
            let t0 = std::time::Instant::now();
            let base = match lin18.route(&graph) {
                Ok(t) => t,
                Err(RouteError::Disconnected { .. }) | Err(RouteError::BlockedTerminal(_)) => {
                    return Ok((
                        LayoutOutcome::Skipped,
                        router.counters().delta_since(&before),
                    ));
                }
                Err(e) => return Err(e),
            };
            let baseline = t0.elapsed();

            let outcome = match router.route(&graph) {
                Ok(o) => o,
                Err(oarsmt::CoreError::Route(RouteError::Disconnected { .. })) => {
                    return Ok((
                        LayoutOutcome::Skipped,
                        router.counters().delta_since(&before),
                    ));
                }
                Err(oarsmt::CoreError::Route(e)) => return Err(e),
                Err(e) => panic!("unexpected selector error: {e}"),
            };
            let base_cost = base.cost();
            let ours_cost = outcome.tree.cost();
            let row = LayoutOutcome::Row {
                base_cost,
                ours_cost,
                phase_ns: [
                    baseline.as_nanos() as u64,
                    outcome.select_time.as_nanos() as u64,
                    outcome
                        .total_time
                        .saturating_sub(outcome.select_time)
                        .as_nanos() as u64,
                ],
                obstacle_point: (graph.obstacle_ratio(), (base_cost - ours_cost) / base_cost),
            };
            Ok((row, router.counters().delta_since(&before)))
        },
    );

    // Fold in submission order: f64 accumulation and the counter reduction
    // see a fixed visit order.
    let mut comparison = CostComparison::new();
    let mut counters = CounterSet::new();
    let mut obstacle_points = Vec::new();
    let mut skipped = 0usize;
    for outcome in outcomes {
        let (layout, delta) = outcome?;
        counters.merge_from(&delta);
        match layout {
            LayoutOutcome::Skipped => skipped += 1,
            LayoutOutcome::Row {
                base_cost,
                ours_cost,
                phase_ns,
                obstacle_point,
            } => {
                comparison.record(base_cost, ours_cost);
                for (span, ns) in [Span::PhaseBaseline, Span::PhaseSelect, Span::PhaseRoute]
                    .into_iter()
                    .zip(phase_ns)
                {
                    let phase = spans.begin(span, t);
                    t += ns;
                    spans.end(phase, t);
                }
                obstacle_points.push(obstacle_point);
            }
        }
    }
    spans.end(rung, t.max(spans.now()));
    Ok(SubsetResult {
        name: spec.name,
        comparison,
        spans: spans.hists().delta_since(&before),
        counters,
        obstacle_points,
        skipped,
    })
}

/// One checkpoint of the Figs. 11–12 training-time curves.
#[derive(Debug, Clone, Copy)]
pub struct CurveRow {
    /// Cumulative training wall-clock seconds at this checkpoint.
    pub train_seconds: f64,
    /// Average ST-to-MST ratio on the in-training pin range.
    pub st_mst_small: f64,
    /// Average ST-to-MST ratio on the beyond-training pin range.
    pub st_mst_large: f64,
}

/// The three routers compared in Figs. 11–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Ours: combinatorial MCTS, one-shot inference.
    Combinatorial,
    /// Conventional AlphaGo-like MCTS, sequential inference.
    AlphaGoLike,
    /// PPO, sequential inference.
    Ppo,
}

impl Policy {
    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Combinatorial => "ours",
            Policy::AlphaGoLike => "alphago-like",
            Policy::Ppo => "ppo",
        }
    }
}

/// Trains one policy on fixed-size layouts and evaluates its ST-to-MST
/// ratio after every stage — the machinery behind Figs. 11–12.
///
/// `size` is the fixed layout size; `pin_train` the training pin range;
/// evaluation uses `pin_train` ("small") and `pin_beyond` ("large", beyond
/// the training range, testing generalization as in Fig. 11(b)).
pub fn training_curve(
    policy: Policy,
    size: (usize, usize, usize),
    pin_train: (usize, usize),
    pin_beyond: (usize, usize),
    stages: usize,
    seed: u64,
) -> Vec<CurveRow> {
    use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
    use oarsmt_mcts::MctsConfig;
    use oarsmt_rl::ppo::{PpoConfig, PpoTrainer};
    use oarsmt_rl::trainer::{st_to_mst_over_cases, InferenceMode, Trainer, TrainerConfig};
    use std::time::Instant;

    let (h, v, m) = size;
    let small_cases = CaseGenerator::new(
        GeneratorConfig::paper_costs(h, v, m, pin_train),
        seed ^ 0xCAFE,
    )
    .generate_many(40);
    let large_cases = CaseGenerator::new(
        GeneratorConfig::paper_costs(h, v, m, pin_beyond),
        seed ^ 0xBEEF,
    )
    .generate_many(40);

    let trainer_config = TrainerConfig {
        sizes: vec![size],
        layouts_per_size: 20,
        stages,
        curriculum_stages: 2,
        pin_range: pin_train,
        epochs_per_stage: 2,
        batch_size: 32,
        learning_rate: 1e-3,
        augment: true,
        mcts: MctsConfig {
            base_iterations: 2 * h * v * m,
            base_size: h * v * m,
            ..MctsConfig::default()
        },
        seed,
        threads: 0,
    };
    let mut rows = Vec::with_capacity(stages);
    let mut elapsed = 0.0f64;
    match policy {
        Policy::Combinatorial | Policy::AlphaGoLike => {
            let mut trainer = if policy == Policy::Combinatorial {
                Trainer::new(trainer_config)
            } else {
                Trainer::new_alphago(trainer_config)
            };
            let mode = if policy == Policy::Combinatorial {
                InferenceMode::OneShot
            } else {
                InferenceMode::Sequential
            };
            let mut selector = NeuralSelector::with_config(experiment_net_config());
            for stage in 0..stages {
                let t0 = Instant::now();
                trainer
                    .run_stage(&mut selector, stage)
                    .expect("training stage");
                elapsed += t0.elapsed().as_secs_f64();
                rows.push(CurveRow {
                    train_seconds: elapsed,
                    st_mst_small: st_to_mst_over_cases(&mut selector, mode, &small_cases),
                    st_mst_large: st_to_mst_over_cases(&mut selector, mode, &large_cases),
                });
            }
        }
        Policy::Ppo => {
            let mut trainer = PpoTrainer::new(
                PpoConfig {
                    iterations: 1,
                    episodes_per_iter: 24,
                    epochs: 2,
                    size,
                    pin_range: pin_train,
                    seed,
                    ..PpoConfig::default()
                },
                experiment_net_config(),
            );
            for stage in 0..stages {
                let t0 = Instant::now();
                trainer.run_iteration(stage);
                elapsed += t0.elapsed().as_secs_f64();
                rows.push(CurveRow {
                    train_seconds: elapsed,
                    st_mst_small: st_to_mst_over_cases(
                        trainer.policy_mut(),
                        InferenceMode::Sequential,
                        &small_cases,
                    ),
                    st_mst_large: st_to_mst_over_cases(
                        trainer.policy_mut(),
                        InferenceMode::Sequential,
                        &large_cases,
                    ),
                });
            }
        }
    }
    rows
}

/// Prints the Figs. 11–12 curves for all three policies at one layout size.
pub fn print_training_curves(size: (usize, usize, usize), stages: usize, seed: u64) {
    use crate::report::Table;
    let pin_train = (3, 5);
    let pin_beyond = (6, 9);
    for policy in [Policy::Combinatorial, Policy::AlphaGoLike, Policy::Ppo] {
        let rows = training_curve(policy, size, pin_train, pin_beyond, stages, seed);
        println!(
            "{} ({}x{}x{}, train pins {}-{}, beyond {}-{}):",
            policy.name(),
            size.0,
            size.1,
            size.2,
            pin_train.0,
            pin_train.1,
            pin_beyond.0,
            pin_beyond.1
        );
        let mut table = Table::new(["train s", "st/mst (3-5 pins)", "st/mst (6-9 pins)"]);
        for r in &rows {
            table.row([
                format!("{:.1}", r.train_seconds),
                format!("{:.4}", r.st_mst_small),
                format!("{:.4}", r.st_mst_large),
            ]);
        }
        table.print();
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_subset_accumulates_statistics() {
        let spec = TestSubsetSpec {
            name: "tiny",
            paper_dims: (32, 32, (4, 10)),
            paper_layouts: 0,
            h: 7,
            v: 7,
            m: (2, 2),
            pins: (3, 5),
            obstacles: (4, 8),
            layouts: 4,
        };
        let selector = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 0,
        });
        let mut spans = SpanRecorder::new();
        spans.arm(256);
        let result = run_subset(&spec, &selector, 99, 1, &mut spans).unwrap();
        assert!(result.comparison.count() + result.skipped == 4);
        assert!(result.comparison.count() > 0);
        assert_eq!(result.obstacle_points.len(), result.comparison.count());
        // One rung holding one span per phase per routed layout, in the
        // ring exactly as in the histograms.
        let n = result.comparison.count() as u64;
        assert_eq!(result.spans.get(Span::BenchRung).count, 1);
        assert_eq!(result.spans.get(Span::PhaseSelect).count, n);
        let events = spans.events_in_order();
        assert_eq!(events.len() as u64, 2 + 6 * n);
        for agg in oarsmt_telemetry::tracing::summarize(&events) {
            assert_eq!(agg.total_ns, result.spans.get(agg.span).total_ns);
        }
    }

    #[test]
    fn run_subset_is_thread_count_invariant() {
        let spec = TestSubsetSpec {
            name: "tiny",
            paper_dims: (32, 32, (4, 10)),
            paper_layouts: 0,
            h: 7,
            v: 7,
            m: (2, 2),
            pins: (3, 5),
            obstacles: (4, 8),
            layouts: 8,
        };
        let selector = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 3,
        });
        let one = run_subset(&spec, &selector, 7, 1, &mut SpanRecorder::new()).unwrap();
        let mut spans = SpanRecorder::new();
        spans.arm(1024);
        let four = run_subset(&spec, &selector, 7, 4, &mut spans).unwrap();
        // A second rung on the same recorder: the ladder's timeline never
        // goes backwards, even where four workers' phases outran the wall.
        run_subset(&spec, &selector, 8, 4, &mut spans).unwrap();
        let events = spans.events_in_order();
        assert_eq!(spans.dropped(), 0);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(one.comparison, four.comparison);
        assert_eq!(one.obstacle_points, four.obstacle_points);
        assert_eq!(one.skipped, four.skipped);
        // Counters are bit-identical too, modulo the pool hit/miss split
        // (each worker warms its own context).
        let (mut c1, mut c4) = (one.counters, four.counters);
        c1.fold_pool_splits();
        c4.fold_pool_splits();
        assert_eq!(c1, c4, "counter totals are thread-count invariant");
        assert!(!c1.is_zero());
    }
}
