//! `oarsmt_bench critic`: rollouts/sec of the MCTS critic on the Table 3
//! (Table 1 ladder) layouts, with and without a reused [`RouteContext`].
//!
//! A *rollout* is the routing work one combinatorial-MCTS leaf expansion
//! performs (Section 3.4): one selector inference (`fsp`), one critic
//! completion + pruned OARMST route (`predict_with_fsp_in`), and one
//! unpruned state pricing (`state_cost_in`). The selector is the
//! training-independent [`MedianHeuristicSelector`] so the numbers isolate
//! the routing/workspace cost rather than neural inference.
//!
//! Two modes run over identical layout sequences:
//!
//! * **fresh** — a new selector output and a new [`RouteContext`] for
//!   every call, so every call allocates its workspaces;
//! * **reused** — one [`RouteContext`] and one `fsp` buffer per rung.
//!
//! The per-rung checksums must match bit-identically between modes (checked
//! always, fatal on mismatch). The **headline speedup** compares the reused
//! path against the *recorded* `BENCH_critic_baseline.json` artifact — a
//! live fresh-vs-reused ratio is misleading, because the "fresh" lane also
//! picks up every unrelated improvement since the baseline was captured
//! (it shares routers, kernels and selectors with the reused lane). The
//! live ratio is still printed, labelled as an API-overhead measure. Full
//! mode additionally checks this run's checksums against the recorded
//! baseline values (quick mode runs a different workload, so only rates
//! compare). Emits a `BENCH_critic.json` artifact.
//!
//! Usage: `oarsmt_bench critic [--quick] [--out PATH] [--baseline PATH]
//! [--trace FILE] [--runlog DIR]`
//!
//! `--trace FILE` flight-records the reused lane (each rung as a
//! `bench_rung` span decomposing into `critic_select` / `critic_route`
//! and the router's prepare/dijkstra/retrace phases) and exports Chrome
//! `trace_event` JSON; `--runlog DIR` appends one rung record per ladder rung into
//! `DIR/metrics.jsonl` for `oarsmt report`.

use std::time::Instant;

use oarsmt::selector::{MedianHeuristicSelector, Selector};
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_geom::HananGraph;
use oarsmt_mcts::Critic;
use oarsmt_router::RouteContext;
use oarsmt_telemetry::{Counter, CounterSet, Span, SpanRecorder, SpanSet};

use crate::artifact::{int, json_field, json_num, num, text};
use crate::runner::{Lane, Output, Run};
use crate::Table;

const SEED: u64 = 0xDAC2024;

/// The `critic` lane.
pub const LANE: Lane = Lane {
    name: "critic",
    producer: "critic_throughput",
    seed: SEED,
    flags: &["--quick", "--out", "--baseline", "--trace", "--runlog"],
    run: run_lane,
};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Fresh,
    Reused,
}

struct ModeResult {
    rollouts: usize,
    secs: f64,
    checksum: f64,
    /// The rung's span histograms: the [`Span::CriticSelect`] /
    /// [`Span::CriticRoute`] wall-clock split (zero-duration events unless
    /// `telemetry-timing` is on), plus the router phases in reused mode.
    /// Both modes carry the same select/route brackets, so the api ratio
    /// stays fair.
    spans: SpanSet,
    /// Counter totals of the rung's routing work (reused mode only: the
    /// fresh mode's throwaway contexts take their counters with them).
    counters: CounterSet,
}

/// Runs the level sweep on one layout: every prefix of the heuristic's
/// top-k combination is priced exactly as an MCTS leaf would be. Spans go
/// to `ctx`'s recorder in both modes; `ctx` routes and `fsp_buf` is used
/// only in reused mode.
fn sweep_layout(
    critic: &Critic,
    selector: &mut MedianHeuristicSelector,
    graph: &HananGraph,
    mode: Mode,
    ctx: &mut RouteContext,
    fsp_buf: &mut Vec<f32>,
    checksum: &mut f64,
) -> Option<usize> {
    let budget = steiner_budget(graph.pins().len());
    // The heuristic ignores the NN workspace; setup allocates afresh in
    // both modes, as every fresh-mode query does.
    let mut fsp0 = Vec::with_capacity(graph.len());
    selector.fsp_into_ws(graph, &[], &mut fsp0, &mut ctx.nn);
    let mut combo = Vec::new();
    select_top_k_into(
        graph,
        &fsp0,
        budget,
        &[],
        &mut Vec::new(),
        &mut Vec::new(),
        &mut combo,
    );
    let mut rollouts = 0usize;
    for level in 0..=combo.len() {
        let selected = &combo[..level];
        let t = ctx.nn.spans.begin(Span::CriticSelect, ctx.nn.spans.now());
        let mut fresh_fsp;
        let fsp: &mut Vec<f32> = match mode {
            Mode::Fresh => {
                fresh_fsp = Vec::with_capacity(graph.len());
                &mut fresh_fsp
            }
            Mode::Reused => fsp_buf,
        };
        selector.fsp_into_ws(graph, selected, fsp, &mut ctx.nn);
        ctx.nn.spans.end(t, ctx.nn.spans.now());
        let t = ctx.nn.spans.begin(Span::CriticRoute, ctx.nn.spans.now());
        let priced = match mode {
            Mode::Fresh => critic
                .predict_with_fsp_in(&mut RouteContext::new(), graph, selected, fsp)
                .and_then(|p| {
                    Ok(p + critic.state_cost_in(&mut RouteContext::new(), graph, selected)?)
                }),
            Mode::Reused => critic
                .predict_with_fsp_in(ctx, graph, selected, fsp)
                .and_then(|p| Ok(p + critic.state_cost_in(ctx, graph, selected)?)),
        };
        // Closed before a disconnected layout bails out, so the ring
        // stays balanced.
        ctx.nn.spans.end(t, ctx.nn.spans.now());
        *checksum += priced.ok()?;
        rollouts += 1;
    }
    Some(rollouts)
}

/// Runs one rung in one mode over the deterministic layout sequence,
/// bracketed in a [`Span::BenchRung`] span. With `trace`, the caller's
/// armed recorder rides inside the rung's context (swapped in and out).
fn run_rung(
    spec: &TestSubsetSpec,
    mode: Mode,
    layouts_per_rung: usize,
    repeats: usize,
    mut trace: Option<&mut SpanRecorder>,
) -> ModeResult {
    let critic = Critic::new();
    let mut selector = MedianHeuristicSelector::new();
    let mut ctx = RouteContext::new();
    if let Some(rec) = trace.as_deref_mut() {
        std::mem::swap(&mut ctx.nn.spans, rec);
    }
    let before = *ctx.nn.spans.hists();
    let rung = ctx.nn.spans.begin(Span::BenchRung, ctx.nn.spans.now());
    let mut fsp_buf = Vec::new();
    let mut gen = spec.generator(SEED);
    let mut rollouts = 0usize;
    let mut layouts = 0usize;
    let mut checksum = 0.0f64;
    let mut secs = 0.0f64;
    while layouts < layouts_per_rung {
        let graph = gen.generate();
        let t0 = Instant::now();
        let mut ok = true;
        for _ in 0..repeats {
            match sweep_layout(
                &critic,
                &mut selector,
                &graph,
                mode,
                &mut ctx,
                &mut fsp_buf,
                &mut checksum,
            ) {
                Some(r) => rollouts += r,
                None => {
                    ok = false; // disconnected layout: draw another
                    break;
                }
            }
        }
        if ok {
            secs += t0.elapsed().as_secs_f64();
            layouts += 1;
        }
    }
    ctx.nn.spans.end(rung, ctx.nn.spans.now());
    let spans = ctx.nn.spans.hists().delta_since(&before);
    if let Some(rec) = trace {
        std::mem::swap(&mut ctx.nn.spans, rec);
    }
    ModeResult {
        rollouts,
        secs,
        checksum,
        spans,
        counters: ctx.counters_total(),
    }
}

fn run_lane(run: &mut Run) -> Result<Output, String> {
    let baseline = run.require_baseline()?;
    let rungs = run.ladder(TestSubsetSpec::ladder());
    let layouts_per_rung = if run.quick { 2 } else { 4 };
    let repeats = run.repeats();

    let mut table = Table::new([
        "subset",
        "rollouts",
        "fresh r/s",
        "reused r/s",
        "api ratio",
        "select share",
        "vs baseline",
    ]);
    let mut out = Output::default();
    let mut tot = (0usize, 0.0f64, 0.0f64); // rollouts, fresh secs, reused secs
    for spec in &rungs {
        let fresh = run_rung(spec, Mode::Fresh, layouts_per_rung, repeats, None);
        let reused = run_rung(spec, Mode::Reused, layouts_per_rung, repeats, run.trace());
        assert_eq!(
            fresh.checksum.to_bits(),
            reused.checksum.to_bits(),
            "{}: reused-context rollouts diverged from fresh",
            spec.name
        );
        assert_eq!(fresh.rollouts, reused.rollouts);
        let fresh_rps = fresh.rollouts as f64 / fresh.secs;
        let reused_rps = reused.rollouts as f64 / reused.secs;
        let api_ratio = reused_rps / fresh_rps;
        let base_line = baseline
            .rung(spec.name)
            .unwrap_or_else(|| panic!("{}: missing from {}", spec.name, run.baseline_path()));
        if !run.quick {
            // Same workload as the recorded run: results must match exactly
            // (the artifact stores the checksum with 6 decimals).
            let recorded = json_field(base_line, "checksum").expect("baseline checksum");
            assert_eq!(
                recorded,
                format!("{:.6}", reused.checksum),
                "{}: rollout results diverged from the recorded baseline",
                spec.name
            );
        }
        let base_rps = json_num(base_line, "rps").expect("baseline rps");
        let speedup = reused_rps / base_rps;
        let sel_secs = reused.spans.total_secs(Span::CriticSelect);
        let route_secs = reused.spans.total_secs(Span::CriticRoute);
        let select_share = if sel_secs + route_secs > 0.0 {
            format!("{:.1}%", 100.0 * sel_secs / (sel_secs + route_secs))
        } else {
            "n/a".to_string() // telemetry-timing off
        };
        table.row([
            spec.name.to_string(),
            fresh.rollouts.to_string(),
            format!("{fresh_rps:.1}"),
            format!("{reused_rps:.1}"),
            format!("{api_ratio:.2}x"),
            select_share,
            format!("{speedup:.2}x"),
        ]);
        out.rungs.push(vec![
            text("name", spec.name),
            int("rollouts", fresh.rollouts),
            num("fresh_secs", fresh.secs, 6),
            num("fresh_rps", fresh_rps, 3),
            num("reused_secs", reused.secs, 6),
            num("reused_rps", reused_rps, 3),
            num("speedup", speedup, 3),
            int("select_ns", reused.spans.get(Span::CriticSelect).total_ns),
            int("route_ns", reused.spans.get(Span::CriticRoute).total_ns),
            int("dijkstra_pops", reused.counters.get(Counter::DijkstraPops)),
            num("checksum", fresh.checksum, 6),
        ]);
        tot.0 += fresh.rollouts;
        tot.1 += fresh.secs;
        tot.2 += reused.secs;
        out.spans.merge_from(&reused.spans);
        out.counters.merge_from(&reused.counters);
        run.log_rung(
            spec.name,
            "reused_rps",
            reused_rps,
            reused.secs,
            &reused.counters,
        );
        run.progress(&format!("{} done", spec.name));
    }

    let fresh_rps = tot.0 as f64 / tot.1;
    let reused_rps = tot.0 as f64 / tot.2;
    out.title = format!("critic throughput ({} mode)", run.mode());
    out.tables.push(table);
    out.notes.push(format!(
        "total: {} rollouts; fresh {:.1} r/s, reused {:.1} r/s, api ratio {:.2}x",
        tot.0,
        fresh_rps,
        reused_rps,
        reused_rps / fresh_rps
    ));
    if !run.quick {
        if let Some(base_rps) = baseline.top_num("total_rps") {
            out.notes.push(format!(
                "overall speedup vs {}: {:.2}x",
                run.baseline_path(),
                reused_rps / base_rps
            ));
        }
    }
    let sel_tot = out.spans.total_secs(Span::CriticSelect);
    let route_tot = out.spans.total_secs(Span::CriticRoute);
    if sel_tot + route_tot > 0.0 {
        out.notes.push(format!(
            "attribution (reused lane): select {:.1}%, route {:.1}% of rollout time",
            100.0 * sel_tot / (sel_tot + route_tot),
            100.0 * route_tot / (sel_tot + route_tot)
        ));
    }
    out.totals = vec![
        int("total_rollouts", tot.0),
        num("fresh_rps", fresh_rps, 3),
        num("reused_rps", reused_rps, 3),
        num("speedup", reused_rps / fresh_rps, 3),
    ];
    Ok(out)
}
