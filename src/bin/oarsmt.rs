//! `oarsmt` — command-line interface to the RL ML-OARSMT router.
//!
//! ```text
//! oarsmt gen H V M PINS SEED [FILE]   generate a random case (stdout or FILE)
//! oarsmt route FILE [--selector W]    route a case, print stats + ASCII art
//! oarsmt compare FILE                 run all routers on a case
//! oarsmt train OUT.bin [STAGES] [--threads N] [--trace FILE] [--run-id ID]
//!                                     train a selector, save weights
//! oarsmt trace CASE [--out FILE] [--cap N] [--repeat N]
//! oarsmt trace --verify FILE          flight-record a route / check a trace
//! oarsmt report FILE [FILE2]          render (or diff) telemetry snapshots
//! oarsmt report RUNDIR [RUNDIR2]      render (or diff) run-metrics streams
//! oarsmt report --check CUR BASE [--policy report.toml]
//! oarsmt report --summary DIR [--out FILE]
//! ```
//!
//! Case files use the text format of [`oarsmt_geom::io`]. `train`
//! parallelizes sample generation across `--threads` workers (default: the
//! `OARSMT_THREADS` environment variable, else all cores); generated
//! samples — and therefore the trained weights — are bit-identical for
//! every thread count, and on every host: the fit loop runs the AVX2 GEMM
//! kernels where the CPU has them, which are bit-identical to the scalar
//! ones (DESIGN.md §9).
//!
//! Observability (DESIGN.md §14): `--trace` exports a Chrome
//! `trace_event` JSON viewable in `chrome://tracing` / Perfetto
//! (timestamps are real only when built with `--features
//! telemetry-timing`; without it the event *sequence* still records).
//! `--run-id ID` streams per-stage metrics into `runs/ID/metrics.jsonl`.
//! `report --check` is the CI regression gate: deterministic counters must
//! be bit-identical to the baseline and wall-clock metrics within the
//! policy's bands; violations print as a table and exit nonzero.

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use oarsmt::rl_router::RlRouter;
use oarsmt::selector::{MedianHeuristicSelector, NeuralSelector};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::io::{parse_case, write_case};
use oarsmt_geom::HananGraph;
use oarsmt_nn::unet::UNetConfig;
use oarsmt_router::segments::{render_layer, RouteGeometry};
use oarsmt_router::{Lin18Router, Liu14Router, SpanningRouter};
use oarsmt_telemetry::runlog::{RunLog, RunLogger, StageStats};
use oarsmt_telemetry::{tracing, Span};

/// Error and usage reports ignore a failed stderr write: `eprintln!`
/// panics on a closed pipe, which would turn exit status 1 or 2 into 101.
fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads_flag = match oarsmt::parallel::take_threads_flag(&mut args) {
        Ok(flag) => flag,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("train") => cmd_train(&args[1..], threads_flag),
        Some("trace") => cmd_trace(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        _ => {
            let _ = writeln!(
                io::stderr(),
                "usage:\n  oarsmt gen H V M PINS SEED [FILE]\n  oarsmt route FILE [--selector WEIGHTS.bin]\n  oarsmt compare FILE\n  oarsmt train OUT.bin [STAGES] [--threads N] [--trace FILE] [--run-id ID]\n  oarsmt trace CASE [--out FILE] [--cap N] [--repeat N]\n  oarsmt trace --verify FILE\n  oarsmt report FILE-or-RUNDIR [FILE2-or-RUNDIR2]\n  oarsmt report --check CURRENT BASELINE [--policy report.toml]\n  oarsmt report --summary DIR [--out FILE]\n\nreport renders the telemetry snapshot embedded in a BENCH_*.json artifact\n(or a raw .jsonl snapshot, or a runs/<id> directory); with two arguments\nit prints a diff. --check exits nonzero when counters drift or wall-clock\nleaves the policy band. trace exports Chrome trace_event JSON\n(chrome://tracing; real timestamps need --features telemetry-timing).\nOARSMT_THREADS=N sets the default worker count."
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Removes `--flag VALUE` from `args`, returning the value when present.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} expects a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

fn load_case(path: &str) -> Result<HananGraph, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_case(&text)?)
}

fn cmd_gen(args: &[String]) -> CliResult {
    let nums: Vec<usize> = args
        .iter()
        .take(5)
        .map(|s| s.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| "gen expects: H V M PINS SEED [FILE]")?;
    let [h, v, m, pins, seed] = nums[..] else {
        return Err("gen expects: H V M PINS SEED [FILE]".into());
    };
    let mut gen = CaseGenerator::new(
        GeneratorConfig::paper_costs(h, v, m, (pins, pins)),
        seed as u64,
    );
    let text = write_case(&gen.generate());
    match args.get(5) {
        Some(path) => {
            std::fs::write(path, &text)?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_route(args: &[String]) -> CliResult {
    let path = args.first().ok_or("route expects a case file")?;
    let graph = load_case(path)?;
    let weights = args
        .iter()
        .position(|a| a == "--selector")
        .and_then(|i| args.get(i + 1));

    let outcome = match weights {
        Some(w) => {
            let mut selector = NeuralSelector::with_config(UNetConfig {
                in_channels: 7,
                base_channels: 4,
                levels: 2,
                seed: 0,
            });
            selector.load(w)?;
            RlRouter::new(selector).route(&graph)?
        }
        None => RlRouter::new(MedianHeuristicSelector::new()).route(&graph)?,
    };
    println!("{graph}");
    println!("{outcome}");
    let geometry = RouteGeometry::extract(&graph, &outcome.tree);
    println!("{geometry}");
    for layer in 0..graph.m() {
        println!("layer {layer}:");
        print!("{}", render_layer(&graph, &outcome.tree, layer));
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let path = args.first().ok_or("compare expects a case file")?;
    let graph = load_case(path)?;
    println!("{graph}");
    let span = SpanningRouter::new().route(&graph)?;
    println!("spanning  [12]-style: cost {:.0}", span.cost());
    let liu = Liu14Router::new().route(&graph)?;
    println!("geo-red.  [16]-style: cost {:.0}", liu.cost());
    let lin = Lin18Router::new().route(&graph)?;
    println!("maze+retr [14]-style: cost {:.0}", lin.cost());
    let ours = RlRouter::new(MedianHeuristicSelector::new()).route(&graph)?;
    println!("rl router (median)  : cost {:.0}", ours.tree.cost());
    if graph.pins().len() <= oarsmt_router::exact::MAX_EXACT_PINS {
        match oarsmt_router::exact::steiner_exact_cost(&graph) {
            Ok(opt) => println!("exact optimum       : cost {opt:.0}"),
            Err(e) => println!("exact optimum       : {e}"),
        }
    }
    Ok(())
}

fn cmd_train(args: &[String], threads_flag: Option<usize>) -> CliResult {
    let mut args = args.to_vec();
    let trace_path = take_value_flag(&mut args, "--trace")?;
    let run_id = take_value_flag(&mut args, "--run-id")?;
    let out = args.first().ok_or("train expects an output path")?.clone();
    let stages: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let threads = oarsmt::parallel::thread_count(threads_flag);
    eprintln!("[train] generating samples on {threads} worker(s)");
    let config = oarsmt_rl::trainer::TrainerConfig {
        stages,
        threads,
        ..oarsmt_rl::schedule::laptop_schedule(1)
    };
    let mut selector = NeuralSelector::with_config(UNetConfig {
        in_channels: 7,
        base_channels: 4,
        levels: 2,
        seed: 1,
    });
    let mut trainer = oarsmt_rl::Trainer::new(config);

    let manifest = oarsmt_telemetry::Manifest {
        run: "train".to_string(),
        mode: oarsmt_nn::host_lane().name().to_string(),
        threads,
        seed: 1,
        timing: oarsmt_telemetry::TIMING_ENABLED,
    };
    let mut logger = match &run_id {
        Some(id) => {
            let mut l = RunLogger::create(Path::new("runs"), id)?;
            l.log_manifest(&manifest)?;
            Some(l)
        }
        None => None,
    };
    // The trainer records each stage's gen/fit split and the fit loop's
    // layer spans into one recorder; arming it flight-records the run. A
    // laptop-schedule stage writes ~13k events (at most 1152 samples, 108
    // batches), so 2^14 per stage keeps every stage of a run up to 64
    // stages; a longer run exports its most recent 2^20 events (24 MB) and
    // reports how many it dropped.
    if trace_path.is_some() {
        trainer
            .spans_mut()
            .arm(stages.max(1).saturating_mul(1 << 14).min(1 << 20));
    }
    let mut prev = trainer.counters();
    for stage in 0..stages {
        let report = trainer.run_stage(&mut selector, stage)?;
        println!("{report}");
        let total = trainer.counters();
        let delta = total.delta_since(&prev);
        prev = total;
        let gen_ns = report.sample_gen_time.as_nanos() as u64;
        let fit_ns = report.train_time.as_nanos() as u64;
        if let Some(l) = logger.as_mut() {
            l.log_stage(
                &StageStats {
                    stage,
                    samples: report.samples,
                    loss: f64::from(report.avg_loss),
                    mcts_cost_ratio: report.mcts_cost_ratio,
                    gen_secs: report.sample_gen_time.as_secs_f64(),
                    fit_secs: report.train_time.as_secs_f64(),
                },
                &delta,
                &[(Span::TrainGen, gen_ns), (Span::TrainFit, fit_ns)],
            )?;
        }
    }
    if let Some(path) = &trace_path {
        let rec = trainer.spans_mut();
        let events = rec.events_in_order();
        std::fs::write(path, tracing::to_chrome_json(&events, rec.dropped()))?;
        eprintln!(
            "[train] trace ({} events, {} earlier ones dropped) written to {path}",
            events.len(),
            rec.dropped()
        );
    }
    if let Some(l) = &logger {
        eprintln!("[train] metrics in {}", l.dir().display());
    }
    selector.save(&out)?;
    println!("weights saved to {out}");
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    if let Some(i) = args.iter().position(|a| a == "--verify") {
        let path = args
            .get(i + 1)
            .ok_or("trace --verify expects a trace file")?;
        let text = std::fs::read_to_string(path)?;
        let check = tracing::verify_chrome(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: OK ({} events, max depth {})",
            check.events, check.max_depth
        );
        return Ok(());
    }
    let out = take_value_flag(&mut args, "--out")?;
    let cap: usize = match take_value_flag(&mut args, "--cap")? {
        Some(v) => v.parse().map_err(|_| format!("bad --cap `{v}`"))?,
        None => 65_536,
    };
    let repeat: usize = match take_value_flag(&mut args, "--repeat")? {
        Some(v) => v.parse().map_err(|_| format!("bad --repeat `{v}`"))?,
        None => 3,
    };
    let path = args.first().ok_or("trace expects a case file")?;
    let graph = load_case(path)?;

    if !oarsmt_telemetry::TIMING_ENABLED {
        eprintln!(
            "[trace] built without `telemetry-timing`: event sequence is \
             recorded but every timestamp is zero"
        );
    }
    let router = oarsmt_router::OarmstRouter::new();
    let mut ctx = oarsmt_router::RouteContext::new();
    ctx.nn.spans.arm(cap);
    for _ in 0..repeat.max(1) {
        let tree = router.route_in(&mut ctx, &graph, &[])?;
        ctx.recycle_tree(tree);
    }
    let rec = &ctx.nn.spans;
    let events = rec.events_in_order();
    print!("{}", tracing::render_summary(&tracing::summarize(&events)));
    if rec.dropped() > 0 {
        println!(
            "({} older events dropped; raise --cap to keep them)",
            rec.dropped()
        );
    }
    if let Some(out) = out {
        let json = tracing::to_chrome_json(&events, rec.dropped());
        tracing::verify_chrome(&json).map_err(|e| format!("internal: {e}"))?;
        std::fs::write(&out, json)?;
        println!("trace ({} events) written to {out}", events.len());
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> CliResult {
    let mut args = args.to_vec();

    if let Some(i) = args.iter().position(|a| a == "--summary") {
        args.remove(i);
        let out = take_value_flag(&mut args, "--out")?;
        let dir = args.first().ok_or("report --summary expects a directory")?;
        let text = oarsmt_telemetry::check::summary(Path::new(dir))?;
        match out {
            Some(path) => {
                std::fs::write(&path, &text)?;
                eprintln!("summary written to {path}");
            }
            None => print!("{text}"),
        }
        return Ok(());
    }

    if let Some(i) = args.iter().position(|a| a == "--check") {
        args.remove(i);
        let policy = match take_value_flag(&mut args, "--policy")? {
            Some(path) => oarsmt_telemetry::Policy::parse(&std::fs::read_to_string(&path)?)
                .map_err(|e| format!("{path}: {e}"))?,
            None => oarsmt_telemetry::Policy::default(),
        };
        let [cur, base] = &args[..] else {
            return Err("report --check expects: CURRENT BASELINE [--policy FILE]".into());
        };
        let report = oarsmt_telemetry::check::check(
            &std::fs::read_to_string(cur).map_err(|e| format!("{cur}: {e}"))?,
            &std::fs::read_to_string(base).map_err(|e| format!("{base}: {e}"))?,
            &policy,
        )?;
        if report.ok() {
            println!(
                "check OK: {} counters bit-identical, {} wall-clock metrics in band",
                report.counters_checked, report.metrics_checked
            );
            return Ok(());
        }
        print!("{}", oarsmt_telemetry::check::render_check(&report));
        return Err(format!(
            "regression check failed ({} violations)",
            report.violations.len()
        )
        .into());
    }

    let first = args.first().ok_or("report expects: FILE [FILE2]")?;
    // A run directory (runs/<id>) renders/diffs its metrics stream; a file
    // renders/diffs the embedded telemetry snapshot.
    if Path::new(first).is_dir() {
        let a = RunLog::load(Path::new(first))?;
        match args.get(1) {
            Some(second) => {
                let b = RunLog::load(Path::new(second))?;
                print!("{}", oarsmt_telemetry::runlog::diff(&a, &b));
            }
            None => print!("{}", oarsmt_telemetry::runlog::render(&a)),
        }
        return Ok(());
    }
    let load =
        |path: &str| -> Result<oarsmt_telemetry::TelemetrySnapshot, Box<dyn std::error::Error>> {
            let text = std::fs::read_to_string(path)?;
            oarsmt_telemetry::TelemetrySnapshot::from_jsonl(&text)
                .map_err(|e| format!("{path}: {e}").into())
        };
    let a = load(first)?;
    match args.get(1) {
        Some(second) => {
            let b = load(second)?;
            print!("{}", oarsmt_telemetry::report::diff(&a, &b));
        }
        None => print!("{}", oarsmt_telemetry::report::render(&a)),
    }
    Ok(())
}
