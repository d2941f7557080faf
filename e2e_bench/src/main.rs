//! End-to-end and per-layer benchmark of the OARSMT RL router.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <route_small|route_large|route_dbu|train> --seed <u64> \
//!     [--seconds <s>] [--trace <0|1>] [--quick]
//! ```
//!
//! One process runs one workload on one thread, single client, closed
//! loop. It prints every metric as `name value unit`, the `inputs_hash`
//! and `result_hash`, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. `--trace 0` measures the
//! end-to-end metrics with all tracing off; `--trace 1` is a separate run
//! that rebuilds each route from its layer calls and reports per-layer
//! metrics, writing its spans to `e2e_bench/out/`. The exit code is nonzero
//! when any output check fails.

mod audit;
mod gen;
mod serve;
mod stats;
mod trace;
mod train;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use oarsmt::selector::NeuralSelector;
use oarsmt::RlRouter;
use oarsmt_nn::unet::UNetConfig;
use oarsmt_rl::Trainer;

use gen::{derive, fnv, Fnv, LayoutSet, Rung};
use serve::Serve;
use stats::median;
use train::Train;

/// One measured value; its unit is fixed by [`END_TO_END`] or [`PER_LAYER`].
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric { name, value }
    }
}

/// Every end-to-end metric and its unit, reported by every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric and its unit. The trainer's own metrics read 0
/// on the route workloads, which have no training phase.
const PER_LAYER: [(&str, &str); 27] = [
    ("core.encode_us_p50", "us"),
    ("nn.unet_fwd_us_p50", "us"),
    ("nn.unet_gflops", "GFLOP/s"),
    ("nn.macs_per_route", "count"),
    ("core.topk_us_p50", "us"),
    ("router.build_ms_p50", "ms"),
    ("router.polish_ms_p50", "ms"),
    ("router.candidates_kept_ratio", "ratio"),
    ("router.polish_accept_ratio", "ratio"),
    ("router.refine_accept_ratio", "ratio"),
    ("router.safeguard_win_frac", "ratio"),
    ("graph.pops_per_route", "count"),
    ("graph.relaxations_per_route", "count"),
    ("graph.pushes_per_route", "count"),
    ("graph.bucket_scans_per_pop", "ratio"),
    ("graph.ns_per_pop", "ns"),
    ("router.tree_pool_hit_ratio", "ratio"),
    ("nn.pool_hit_ratio", "ratio"),
    ("nn.batch_occupancy", "count"),
    ("lin18.route_ms_p50", "ms"),
    ("mcts.gen_share", "ratio"),
    ("mcts.rollouts_per_stage", "count"),
    ("mcts.critic_pops_per_rollout", "count"),
    ("mcts.cost_ratio", "ratio"),
    ("nn.fit_loss_final", "bce"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The pinned selector weights (a copy of the repository's
/// `selector-v1.bin`) and their FNV-1a hash. A mismatch fails set-up; the
/// benchmark never retrains.
const WEIGHTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/selector-v1.bin");
const WEIGHTS_FNV: u64 = 0x28a1_4111_9653_f07c;

/// Set-up is timed once at the start and this many times before every
/// pass, so its samples spread over the run like the passes do; the
/// median is reported. Its cold route is on a fixed layout (layout 0 of
/// the workload under `SETUP_SEED`), so set-up time does not move with
/// `--seed`.
const SETUP_PER_PASS: usize = 3;
const SETUP_SEED: u64 = 0;

/// Wall-clock budgets per run, inside the 180 s a run may take.
const WALL_BUDGET_S: f64 = 150.0;
const QUICK_BUDGET_S: f64 = 60.0;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Route {
        rungs: &'static [Rung],
        layouts: usize,
        dbu: bool,
        /// \[14\] routes every this-many-th layout of each rung.
        baseline_every: usize,
    },
    Train {
        layouts_per_size: usize,
        stages: usize,
    },
}

/// Layouts the train workload's selector serves after training.
const TRAIN_SERVED: usize = 200;

fn workload(name: &str, quick: bool) -> Option<Workload> {
    let n = |full: usize| if quick { 6 } else { full };
    Some(match name {
        // T32/T64/T128: inference and per-call overhead dominate.
        "route_small" => Workload::Route {
            rungs: &[gen::T32, gen::T64, gen::T128],
            layouts: n(1500),
            dbu: false,
            baseline_every: 1,
        },
        // T256/T256_2/T512: OARMST build, prune, polish and Dijkstra
        // dominate. Three rungs, so the median falls inside one rung's
        // distribution rather than in the gap between two. [14] runs about
        // four times longer than ours here, so it routes one layout in ten.
        "route_large" => Workload::Route {
            rungs: &[gen::T256, gen::T256_2, gen::T512],
            layouts: n(300),
            dbu: false,
            baseline_every: 10,
        },
        // T128..T256 at database-unit costs: every query takes the heap.
        "route_dbu" => Workload::Route {
            rungs: &[gen::T128, gen::T128_2, gen::T256],
            layouts: n(600),
            dbu: true,
            baseline_every: 1,
        },
        "train" => Workload::Train {
            layouts_per_size: if quick { 1 } else { 4 },
            stages: if quick { 2 } else { 8 },
        },
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: e2e_bench --workload <route_small|route_large|route_dbu|train> \
                     --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        quick: false,
    };
    let mut seed = None;
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if workload(&args.workload, false).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Reads the pinned weights, checks their hash and loads them.
fn load_selector() -> Result<NeuralSelector, String> {
    let bytes = std::fs::read(WEIGHTS).map_err(|e| format!("read {WEIGHTS}: {e}"))?;
    let hash = fnv(&bytes);
    if hash != WEIGHTS_FNV {
        return Err(format!(
            "{WEIGHTS}: FNV {hash:#018x}, pinned {WEIGHTS_FNV:#018x}"
        ));
    }
    let mut selector = NeuralSelector::with_config(UNetConfig {
        in_channels: 7,
        base_channels: 4,
        levels: 2,
        seed: 1234,
    });
    selector.load(WEIGHTS).map_err(|e| e.to_string())?;
    Ok(selector)
}

/// Runs `f`, appending its wall time in seconds to `times`.
fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// Weights, router and the first cold route of `first`.
fn route_setup(first: &oarsmt_geom::HananGraph) -> Result<RlRouter<NeuralSelector>, String> {
    let mut router = RlRouter::new(load_selector()?);
    router
        .route(first)
        .map_err(|e| format!("first route: {e}"))?;
    Ok(router)
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs passes until `seconds` would be overrun by more than half of the
/// next pass, if it takes as long as the last (at least one pass; exactly
/// two with `--quick`). Before each pass, `setup` is timed
/// [`SETUP_PER_PASS`] times.
fn measure(
    args: &Args,
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<(), String>,
    mut pass: impl FnMut(),
) -> Result<usize, String> {
    let start = Instant::now();
    let mut passes = 0;
    loop {
        for _ in 0..SETUP_PER_PASS {
            timed(setup_s, &mut setup)?;
        }
        let t = Instant::now();
        pass();
        passes += 1;
        let next_mid = start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() / 2.0;
        if (args.quick && passes == 2) || (!args.quick && next_mid > args.seconds) {
            return Ok(passes);
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    inputs_hash: u64,
    result_hash: u64,
    passes: usize,
    summary: Vec<String>,
    trace_json: Option<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let tag = fnv(args.workload.as_bytes());
    let seed = derive(args.seed, tag);
    let mut report = Report::default();
    let mut results = Fnv::default();
    let mut setup_s = Vec::new();
    let serve = match workload(&args.workload, args.quick).expect("checked by parse_args") {
        Workload::Route {
            rungs,
            layouts,
            dbu,
            baseline_every,
        } => {
            let set = LayoutSet {
                rungs,
                layouts,
                dbu,
                seed,
            };
            report.inputs_hash = set.inputs_hash();
            let first = LayoutSet {
                seed: SETUP_SEED,
                ..set.clone()
            }
            .layout(0);
            let router = timed(&mut setup_s, || route_setup(&first))?;
            let mut serve = Serve::new(set, baseline_every, router, args.trace);
            report.passes = measure(
                args,
                &mut setup_s,
                || route_setup(&first).map(drop),
                || serve.pass(),
            )?;
            serve
        }
        Workload::Train {
            layouts_per_size,
            stages,
        } => {
            let config = train::config(layouts_per_size, stages);
            let set = LayoutSet {
                rungs: &[gen::TRAIN8, gen::TRAIN12],
                layouts: if args.quick { 6 } else { TRAIN_SERVED },
                dbu: false,
                seed: derive(seed, 1),
            };
            let mut inputs = Fnv::default();
            inputs.u64(set.inputs_hash());
            inputs.bytes(format!("{config:?}").as_bytes());
            report.inputs_hash = inputs.finish();
            let first = LayoutSet {
                seed: SETUP_SEED,
                ..set.clone()
            }
            .layout(0);
            let setup = || {
                let _trainer = Trainer::new(config.clone());
                route_setup(&first)
            };
            let router = timed(&mut setup_s, setup)?;
            let mut train = Train::new(config.clone(), router.selector().clone());
            report.passes = measure(
                args,
                &mut setup_s,
                || setup().map(drop),
                || {
                    train.pass(|trained| {
                        Serve::new(set.clone(), 1, RlRouter::new(trained), args.trace)
                    })
                },
            )?;
            report
                .metrics
                .push(Metric::new("throughput_per_s", train.samples_per_s()));
            report.metrics.extend(train.per_layer());
            train.result_hash(&mut results);
            report.attempted += train.attempted;
            report.failures.append(&mut train.failures);
            train.serve.ok_or("training failed before serving")?
        }
    };
    serve.result_hash(&mut results);
    report.result_hash = results.finish();
    report.attempted += serve.attempted;
    report.failures.extend_from_slice(&serve.failures);
    // The train workload's own throughput and occupancy come first and win.
    for m in serve.end_to_end().into_iter().chain(serve.per_layer()) {
        if !report.metrics.iter().any(|r| r.name == m.name) {
            report.metrics.push(m);
        }
    }
    report
        .metrics
        .push(Metric::new("setup_s", median(&setup_s)));
    report
        .metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mb()));
    report.summary = serve.summary();
    report.trace_json = serve.trace_json();
    Ok(report)
}

/// The metrics a run of kind `trace` reports, with their units, in table
/// order. A missing or non-finite end-to-end metric is a failure; only the
/// trainer's per-layer metrics may be absent (route workloads have no
/// training phase) and read 0.
fn select(report: &mut Report, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let wanted: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match report.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.value,
            None if trace => 0.0,
            _ => {
                report.failures.push(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    metrics
}

/// The last stdout line: `correct`, `attempted`, `failed` and every metric
/// of the run's kind with its unit.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let budget = if args.quick {
        QUICK_BUDGET_S
    } else {
        WALL_BUDGET_S
    };
    if wall_s > budget {
        report.failures.push(format!(
            "wall time {wall_s:.1} s over the {budget} s budget"
        ));
    }
    if let Some(json) = &report.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            report.failures.push(format!("write {path}: {e}"));
        }
    }
    let metrics = select(&mut report, args.trace);
    for f in report.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    if report.failures.len() > 20 {
        eprintln!("... and {} more failures", report.failures.len() - 20);
    }
    println!(
        "workload {} seed {} passes {}",
        args.workload, args.seed, report.passes
    );
    println!("inputs_hash {:#018x}", report.inputs_hash);
    println!("result_hash {:#018x}", report.result_hash);
    println!("wall_s {wall_s:.3}");
    for line in &report.summary {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{}",
        result_json(
            correct,
            report.attempted.max(1),
            report.failures.len(),
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 1.0,
            trace,
            quick: true,
        }
    }

    fn value(metrics: &[(&str, f64, &str)], name: &str) -> f64 {
        metrics.iter().find(|m| m.0 == name).unwrap().1
    }

    const WORKLOADS: [&str; 4] = ["route_small", "route_large", "route_dbu", "train"];

    #[test]
    fn quick_runs_pass_their_checks_and_measure_every_metric() {
        for w in WORKLOADS {
            let mut report = run(&args(w, false)).unwrap();
            let metrics = select(&mut report, false);
            assert!(report.failures.is_empty(), "{w}: {:?}", report.failures);
            assert!(report.attempted > 0);
            for (name, v, _) in &metrics {
                assert!(*v > 0.0, "{w}: {name} = {v}");
            }
            let again = run(&args(w, false)).unwrap();
            assert_eq!(report.inputs_hash, again.inputs_hash, "{w}");
            assert_eq!(report.result_hash, again.result_hash, "{w}");
        }
    }

    /// The traced composition must equal `RlRouter::route` bit for bit
    /// (checked inside every traced run) and cover the route's time.
    #[test]
    fn traced_runs_compose_the_router_exactly() {
        for w in WORKLOADS {
            let mut report = run(&args(w, true)).unwrap();
            let metrics = select(&mut report, true);
            assert!(report.failures.is_empty(), "{w}: {:?}", report.failures);
            assert!(value(&metrics, "trace.coverage") >= 0.95, "{w}");
            assert!(value(&metrics, "nn.macs_per_route") > 0.0, "{w}");
            assert!(report
                .trace_json
                .as_ref()
                .unwrap()
                .contains("\"lin18.route\""));
            let scans = value(&metrics, "graph.bucket_scans_per_pop");
            match w {
                "route_dbu" => assert_eq!(scans, 0.0, "DBU costs must take the heap"),
                "route_small" => assert!(scans > 0.0, "paper costs must take Dial"),
                _ => {}
            }
            let trained = value(&metrics, "mcts.rollouts_per_stage") > 0.0;
            assert_eq!(trained, w == "train", "{w}");
        }
    }

    #[test]
    fn dbu_layouts_route_to_the_same_trees_at_eight_times_the_cost() {
        let set = LayoutSet {
            rungs: &[gen::T128, gen::T256],
            layouts: 4,
            dbu: false,
            seed: 5,
        };
        let mut router = RlRouter::new(load_selector().unwrap());
        for i in 0..set.layouts {
            let g = set.layout(i);
            let d = gen::to_dbu(&g);
            assert!(d.integer_cost_ceiling().unwrap() > oarsmt_graph::DIAL_MAX_EDGE_COST);
            let a = router.route(&g).unwrap().tree;
            let b = router.route(&d).unwrap().tree;
            assert_eq!(a.edges(), b.edges(), "layout {i}");
            assert_eq!((a.cost() * 8.0).to_bits(), b.cost().to_bits(), "layout {i}");
        }
    }

    #[test]
    fn every_metric_and_workload_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload train --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 20.0, true, false)
        );
        assert!(parse("--workload train").is_err(), "seed is required");
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload train --seed 1 --trace 2").is_err());
        assert!(parse("--workload train --seed 1 --seconds 0").is_err());
        assert!(parse("--workload train --seed 1 --bogus 1").is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("a", 1.5, "ms"), ("b", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
