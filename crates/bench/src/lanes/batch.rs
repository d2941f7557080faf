//! `oarsmt_bench batch`: batched-selector equivalence and throughput.
//!
//! The batched path folds a batch of same-shape states into the GEMM N
//! axis (one matrix multiply with `N = B·spatial` per conv instead of
//! `B`). This lane pins the two promises that refactor makes, per
//! [`SIZE_LADDER`] rung:
//!
//! 1. **Bit-identity** — `Selector::fsp_batch_into_ws` at B ∈ {4, 16}
//!    reproduces B per-sample `fsp_into_ws` calls bit-for-bit (each one a
//!    B=1 pass of the same kernel; the sweep's B=1 point is that call
//!    itself), and
//!    `Trainer::fit_batch` walks the exact weight trajectory of
//!    `Trainer::fit_batch_sequential` (asserted here via per-step loss
//!    bits; the rl-level property tests also compare post-step weights).
//! 2. **Throughput** — both arms are timed in the same run, interleaved
//!    per repeat with best-of-N per arm, and full mode gates on the
//!    within-run ratio: the batched inference flush must beat the
//!    single-sample arm on the smallest rung (where batching pays;
//!    measured ≈ 1.3× at S8), and `fit_batch` must never regress below
//!    the sequential arm beyond timing noise. The **recorded baseline
//!    artifact** (`BENCH_batch_baseline.json`, bootstrapped from the
//!    first full run's single-sample arm per the repo's
//!    honest-comparison policy) pins `cs_fsp` bitwise across runs and
//!    keeps the `vs base` columns honest; it is not used as a timing
//!    gate because this host shows ±40% cross-run throughput swings.
//!
//! Honest-measurement note (see EXPERIMENTS.md): the batched *inference*
//! flush wins ≈ 1.3× at S8 — per-call overhead amortization plus GEMM
//! panels spanning samples at the pooled/bottleneck levels (a single
//! `[1, 2, 2]` conv step is ≈ 1.7× faster batched, and `p = 0` convs
//! collapse to one flat GEMM per batch). Batched *fitting* is parity on
//! this CPU (≈ 0.95–1.1×): the backward weight-gradient accumulation is
//! contractually bound to the sequential per-sample `+=` order, so its
//! kernels run per sample in both arms and the batch axis cannot fatten
//! them. The refactor's fit value is the bit-identical single-step batch
//! API (and the layout groundwork for wide-ISA/accelerator backends), not
//! a CPU fit speedup — so the fit gate here is a no-regression floor,
//! not the 1.3× the inference flush clears.
//!
//! Sweeps and timed arms all run on the default kernel lane — the AVX2
//! tiles wherever the host has them, which give every output element the
//! scalar tiles' bits whatever column boundary it lands on (DESIGN.md §9)
//! — and the artifact's `kernel` field names the lane that ran. The
//! `cs_fsp` and `cs_loss` checksums are therefore lane-independent.
//!
//! Usage: `oarsmt_bench batch [--quick] [--out PATH] [--baseline PATH]`

use std::time::Instant;

use oarsmt::selector::{NeuralSelector, Selector};
use oarsmt_geom::gen::CaseGenerator;
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::NnWorkspace;
use oarsmt_rl::sample::TrainingSample;
use oarsmt_rl::trainer::{Trainer, TrainerConfig};
use oarsmt_telemetry::{Counter, CounterSet};

use super::{
    assert_lane_dispatched, f64_sum, heuristic_label, kernel_lane, selector_config, SizeRung,
    SIZE_LADDER,
};
use crate::artifact::{hex, int, json_field, json_num, num, text};
use crate::runner::{Lane, Output, Run};
use crate::Table;

/// The `batch` lane.
pub const LANE: Lane = Lane {
    name: "batch",
    producer: "selector_batch_bench",
    seed: 0xDAC2024,
    flags: &["--quick", "--out", "--baseline"],
    run: run_lane,
};

/// Batch size of the timed arms (the largest Table-1 acceptance point).
const BATCH: usize = 16;

/// Timed batched flushes (each evaluates [`BATCH`] states) and timed fit
/// steps per arm (0 = inference-only rung) per [`SIZE_LADDER`] rung, in a
/// full run.
const ITERS: [(usize, usize); 6] = [(60, 40), (24, 16), (12, 8), (4, 0), (2, 0), (1, 0)];

/// [`BATCH`] deterministic selector states (extra-pin lists of varying
/// length), the flattened batch the queue-and-flush protocol sees.
fn rung_states(graph: &HananGraph) -> Vec<Vec<GridPoint>> {
    let n = graph.len();
    let stride: Vec<GridPoint> = (0..8).map(|j| graph.point((j * 7919) % n)).collect();
    (0..BATCH).map(|i| stride[..(i % 6)].to_vec()).collect()
}

/// Flattens `states` into the `(pts, lens)` convention.
fn flatten(states: &[Vec<GridPoint>]) -> (Vec<GridPoint>, Vec<u32>) {
    let mut pts = Vec::new();
    let mut lens = Vec::new();
    for s in states {
        pts.extend_from_slice(s);
        lens.push(s.len() as u32);
    }
    (pts, lens)
}

/// [`BATCH`] same-size training samples with sparse median-heuristic
/// labels (the `fit_batch` workload).
fn fit_samples(r: &SizeRung) -> Vec<TrainingSample> {
    (0..BATCH)
        .map(|i| {
            let graph = CaseGenerator::new(r.config(), 0xBA7C4 ^ (i as u64) << 13).generate();
            let label = heuristic_label(&graph);
            TrainingSample::new(graph, vec![], label)
        })
        .collect()
}

struct RungResult {
    /// Batched/single inference throughput in states per second.
    batch_states_per_s: f64,
    single_states_per_s: f64,
    /// Mean GEMM batch occupancy (columns per flush) of the batched arm.
    occupancy: f64,
    /// Checksum of the concatenated B=16 batched fsp output.
    cs_fsp: u64,
    counters: CounterSet,
}

/// One rung's inference arms: bitwise equivalence sweep, then timed
/// batched and per-sample (B=1) loops through one reused workspace.
fn run_fwd_rung(r: &SizeRung, iters: usize, repeats: usize) -> RungResult {
    let graph = r.graph();
    let states = rung_states(&graph);
    let mut sel = NeuralSelector::with_config(selector_config());
    let mut ws = NnWorkspace::new();
    let mut batch_out = Vec::new();
    let mut single_out = Vec::new();
    let n = graph.len();

    // --- bitwise equivalence: every acceptance B, per-state blocks ---
    let mut cs_fsp = 0u64;
    for b in [1usize, 4, BATCH] {
        let (pts, lens) = flatten(&states[..b]);
        sel.fsp_batch_into_ws(&graph, &pts, &lens, &mut batch_out, &mut ws);
        assert_eq!(batch_out.len(), b * n, "{}: batch output length", r.name);
        for (i, s) in states[..b].iter().enumerate() {
            sel.fsp_into_ws(&graph, s, &mut single_out, &mut ws);
            let blk = &batch_out[i * n..(i + 1) * n];
            for (j, (&bv, &sv)) in blk.iter().zip(single_out.iter()).enumerate() {
                assert_eq!(
                    bv.to_bits(),
                    sv.to_bits(),
                    "{}: B={b} state {i} diverged from its B=1 call at {j}",
                    r.name
                );
            }
        }
        if b == BATCH {
            cs_fsp = f64_sum(&batch_out).to_bits();
        }
    }

    // The sweep ran on the lane the timed arms will use.
    assert_lane_dispatched(r.name, &ws.counters);

    // --- timed arms (B = 16 per flush, best of `repeats`) ---
    // The two arms are interleaved per repeat: host slowdowns on this box
    // arrive in multi-second windows, so alternating batched and
    // single-sample segments exposes both arms to the same windows, and
    // each arm keeps its best-of-N wall time.
    let (pts, lens) = flatten(&states);
    let mut batch_secs = f64::INFINITY;
    let mut single_secs = f64::INFINITY;
    let mut cols = 0;
    let mut flushes = 0;
    for _ in 0..repeats {
        let cols0 = ws.counters.get(Counter::GemmBatchCols);
        let flushes0 = ws.counters.get(Counter::BatchFlushes);
        let t0 = Instant::now();
        for _ in 0..iters {
            sel.fsp_batch_into_ws(&graph, &pts, &lens, &mut batch_out, &mut ws);
            std::hint::black_box(batch_out[0]);
        }
        batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());
        cols += ws.counters.get(Counter::GemmBatchCols) - cols0;
        flushes += ws.counters.get(Counter::BatchFlushes) - flushes0;

        let t0 = Instant::now();
        for _ in 0..iters {
            for s in &states {
                sel.fsp_into_ws(&graph, s, &mut single_out, &mut ws);
                std::hint::black_box(single_out[0]);
            }
        }
        single_secs = single_secs.min(t0.elapsed().as_secs_f64());
    }

    let evals = (iters * BATCH) as f64;
    RungResult {
        batch_states_per_s: evals / batch_secs,
        single_states_per_s: evals / single_secs,
        occupancy: cols as f64 / flushes.max(1) as f64,
        cs_fsp,
        counters: ws.counters,
    }
}

struct FitResult {
    batch_steps_per_s: f64,
    seq_steps_per_s: f64,
    /// Checksum over the per-step losses (both arms must agree bitwise).
    cs_loss: u64,
    counters: CounterSet,
}

/// One rung's fit arms: both start from identical weights and Adam state,
/// so the bit-identical trajectories make the timing an apples-to-apples
/// comparison of the same computation.
fn run_fit_rung(r: &SizeRung, iters: usize, repeats: usize) -> FitResult {
    let samples = fit_samples(r);
    let refs: Vec<&TrainingSample> = samples.iter().collect();
    let cfg = TrainerConfig {
        learning_rate: 1e-3,
        ..TrainerConfig::default()
    };

    let mut t_batch = Trainer::new(cfg.clone());
    let mut s_batch = NeuralSelector::with_config(selector_config());
    let mut t_seq = Trainer::new(cfg);
    let mut s_seq = NeuralSelector::with_config(selector_config());

    // Best-of-`repeats` rounds; the two arms stay in weight lockstep, so
    // each round's loss trajectories must agree bitwise and each round
    // times the same computation on both sides.
    let mut batch_secs = f64::INFINITY;
    let mut seq_secs = f64::INFINITY;
    let mut cs_loss = 0u64;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let batch_losses: Vec<u32> = (0..iters)
            .map(|_| t_batch.fit_batch(&mut s_batch, &refs).to_bits())
            .collect();
        batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let seq_losses: Vec<u32> = (0..iters)
            .map(|_| t_seq.fit_batch_sequential(&mut s_seq, &refs).to_bits())
            .collect();
        seq_secs = seq_secs.min(t0.elapsed().as_secs_f64());

        assert_eq!(
            batch_losses, seq_losses,
            "{}: fit_batch loss trajectory diverged from sequential",
            r.name
        );
        cs_loss = batch_losses
            .iter()
            .fold(cs_loss, |acc, &b| acc.rotate_left(7) ^ u64::from(b));
    }
    let mut counters = t_batch.counters();
    counters.merge_from(&t_seq.counters());
    FitResult {
        batch_steps_per_s: iters as f64 / batch_secs,
        seq_steps_per_s: iters as f64 / seq_secs,
        cs_loss,
        counters,
    }
}

fn run_lane(run: &mut Run) -> Result<Output, String> {
    let baseline = run.baseline();
    let scale = if run.quick { 4 } else { 1 }; // quick: 1/4 of the iterations
    let quick = run.quick;

    let mut fwd_table = Table::new([
        "rung",
        "batch st/s",
        "single st/s",
        "live x",
        "vs base",
        "occupancy",
        "fsp checksum",
    ]);
    let mut fit_table = Table::new(["rung", "batch fit/s", "seq fit/s", "live x", "vs base"]);
    let mut out = Output::default();
    let mut fit_rungs = Vec::new();

    for (r, (flush, fit)) in run.ladder(SIZE_LADDER.iter().zip(ITERS)) {
        let iters = (flush / scale).max(1);
        let res = run_fwd_rung(r, iters, run.repeats());
        out.counters.merge_from(&res.counters);

        // Bit-identity vs the recorded baseline, when one exists: the
        // batched output must never drift between runs.
        let base_single = baseline.as_ref().and_then(|b| {
            let line = b.rung(r.name)?;
            let cs = json_field(line, "cs_fsp").expect("baseline cs_fsp");
            assert_eq!(
                cs,
                format!("{:016x}", res.cs_fsp),
                "{}: cs_fsp diverged from the recorded baseline artifact",
                r.name
            );
            json_num(line, "single_states_per_s")
        });
        let vs_base = base_single.map(|b| res.batch_states_per_s / b);
        // The batched flush must beat the single-sample arm where
        // batching pays (the smallest rung; measured ≈ 1.3×, floor
        // absorbs timing noise). The gate uses the within-run live
        // ratio — the two arms interleave through the same host noise
        // windows — because this box shows ±40% *cross-run* throughput
        // swings that would make any cross-run gate flaky; `vs_base`
        // stays reported for the record. Quick mode runs too few
        // iterations for stable timing, so only full mode gates.
        let live = res.batch_states_per_s / res.single_states_per_s;
        assert!(
            quick || r.name != "S8" || live >= 1.15,
            "{}: batched flush is {live:.2}x the single-sample arm (< 1.15x)",
            r.name
        );
        fwd_table.row([
            r.name.to_string(),
            format!("{:.2}", res.batch_states_per_s),
            format!("{:.2}", res.single_states_per_s),
            format!("{live:.2}x"),
            vs_base.map_or("-".to_string(), |x| format!("{x:.2}x")),
            format!("{:.1}", res.occupancy),
            format!("{:016x}", res.cs_fsp),
        ]);
        out.rungs.push(vec![
            text("name", r.name),
            int("bsz", BATCH),
            int("flush_iters", iters),
            num("batch_states_per_s", res.batch_states_per_s, 3),
            num("single_states_per_s", res.single_states_per_s, 3),
            num("occupancy", res.occupancy, 2),
            hex("cs_fsp", res.cs_fsp),
        ]);
        run.progress(&format!("{} fwd done", r.name));

        if fit > 0 {
            let fit_iters = (fit / scale).max(1);
            let fit = run_fit_rung(r, fit_iters, run.repeats());
            out.counters.merge_from(&fit.counters);
            let fit_name = format!("fit{}", r.name);
            let base_seq = baseline.as_ref().and_then(|b| {
                let line = b.rung(&fit_name)?;
                json_num(line, "seq_steps_per_s")
            });
            let vs_base = base_seq.map(|b| fit.batch_steps_per_s / b);
            // No-regression floor on the within-run ratio (see the
            // module docs for why this is not 1.3×: the backward
            // accumulation order pins the weight-gradient kernels to
            // per-sample execution, so batched fitting is parity on
            // CPU). Quick mode runs too few iterations for stable
            // timing, so only full mode gates.
            let live = fit.batch_steps_per_s / fit.seq_steps_per_s;
            assert!(
                quick || live >= 0.85,
                "{fit_name}: fit_batch regressed to {live:.2}x the sequential arm (< 0.85x)"
            );
            fit_table.row([
                fit_name.clone(),
                format!("{:.3}", fit.batch_steps_per_s),
                format!("{:.3}", fit.seq_steps_per_s),
                format!("{live:.2}x"),
                vs_base.map_or("-".to_string(), |x| format!("{x:.2}x")),
            ]);
            fit_rungs.push(vec![
                text("name", &fit_name),
                int("bsz", BATCH),
                int("fit_iters", fit_iters),
                num("batch_steps_per_s", fit.batch_steps_per_s, 4),
                num("seq_steps_per_s", fit.seq_steps_per_s, 4),
                hex("cs_loss", fit.cs_loss),
            ]);
            run.progress(&format!("{} fit done", r.name));
        }
    }

    let kernel = kernel_lane();
    out.title = format!(
        "batched selector throughput ({} mode, {kernel} kernels, B = {BATCH}; speedups vs {})",
        run.mode(),
        if baseline.is_some() {
            run.baseline_path()
        } else {
            "(no baseline recorded yet)"
        }
    );
    out.tables = vec![fwd_table, fit_table];
    out.notes.push(format!(
        "checksums: every rung's B in {{4, 16}} flushes on the {kernel} lane bit-identical \
         to per-sample B=1 calls"
    ));
    out.rungs.extend(fit_rungs);
    out.header = vec![text("mode", "batch"), text("kernel", kernel)];
    if baseline.is_none() && !quick {
        // Bootstrap: record this run's single-sample arm as the baseline
        // for future comparisons (honest-comparison policy: the recorded
        // denominator predates any further batched-path tuning).
        out.bootstrap = Some(vec![
            text("mode", "single-sample-baseline"),
            text("kernel", kernel),
        ]);
    }
    Ok(out)
}
