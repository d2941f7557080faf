//! `oarsmt_bench batch`: batched-fit equivalence and throughput.
//!
//! `Trainer::fit_batch` stacks a batch of same-size training samples on
//! the U-Net's batch axis (GEMM `N = B·spatial` per conv) and takes one
//! Adam step. This lane pins the two promises that path makes, per fit
//! rung of [`SIZE_LADDER`]:
//!
//! 1. **Bit-identity** — `fit_batch` walks the exact weight trajectory of
//!    `Trainer::fit_batch_sequential` (asserted here via per-step loss
//!    bits; the rl-level property tests also compare post-step weights).
//! 2. **Throughput** — both arms are timed in the same run as
//!    interleaved pairs, alternating which arm runs first, and full mode
//!    gates on the median of the `PAIRS` per-pair ratios: `fit_batch`
//!    must never regress below the sequential arm beyond timing noise.
//!    Each arm's reported steps/s is its best pair, as a best-of
//!    estimator. The recorded baseline artifact (`BENCH_batch_baseline.json`) keeps
//!    the `vs base` column; it is not a timing gate because this host
//!    shows ±40% cross-run swings.
//!
//! Honest-measurement note (see EXPERIMENTS.md): batched fitting is
//! parity on this CPU (≈ 0.95–1.1×): the backward weight-gradient
//! accumulation is contractually bound to the sequential per-sample `+=`
//! order, so its kernels run per sample in both arms and the batch axis
//! cannot fatten them. The value is the bit-identical single-step batch
//! API, not a CPU fit speedup — so the gate is a no-regression floor.
//!
//! Both arms run on the default kernel lane — the widest the host has,
//! which gives every output element the scalar tiles' bits whatever tile
//! it lands in (DESIGN.md §9) — and the artifact's `kernel` field names
//! the lane that ran. The `cs_loss`
//! checksum is therefore lane-independent.
//!
//! Usage: `oarsmt_bench batch [--quick] [--out PATH] [--baseline PATH]`

use std::time::Instant;

use oarsmt::selector::NeuralSelector;
use oarsmt_geom::gen::CaseGenerator;
use oarsmt_rl::sample::TrainingSample;
use oarsmt_rl::trainer::{Trainer, TrainerConfig};
use oarsmt_telemetry::CounterSet;

use super::{
    assert_lane_dispatched, heuristic_label, kernel_lane, selector_config, SizeRung, SIZE_LADDER,
};
use crate::artifact::{hex, int, json_num, num, text};
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

/// Training samples per fit step.
const BATCH: usize = 16;

/// Timed fit steps per arm and repeat for the first [`SIZE_LADDER`] rungs,
/// in a full run (the larger rungs are not fitted).
const FIT_ITERS: [usize; 3] = [40, 16, 8];

/// Interleaved timing pairs per rung in a full run. The repeats' steps
/// are split evenly over them, so every run walks the same trajectory
/// (and the same `cs_loss`) whatever the pair count; the floor gates on
/// the median of their ratios, which needs at least five.
const PAIRS: usize = 8;

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

struct FitResult {
    /// Per-arm best over the pairs (the fastest chunk of each arm).
    batch_steps_per_s: f64,
    seq_steps_per_s: f64,
    /// Median over the pairs of `fit_batch` / sequential throughput.
    live: f64,
    /// Checksum over the per-step losses (both arms must agree bitwise).
    cs_loss: u64,
    counters: CounterSet,
}

/// Runs `steps` fit steps, returning steps per second and each step's
/// loss bits.
fn timed(steps: usize, mut step: impl FnMut() -> f32) -> (f64, Vec<u32>) {
    let t0 = Instant::now();
    let losses = (0..steps).map(|_| step().to_bits()).collect();
    (steps as f64 / t0.elapsed().as_secs_f64(), losses)
}

/// The largest of `rates`.
fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// One rung's fit arms: both start from identical weights and Adam state,
/// so the bit-identical trajectories make the timing an apples-to-apples
/// comparison of the same computation. `steps` per arm are timed in
/// `pairs` equal chunks; each pair runs both arms, the first arm
/// alternating, so drift in host speed hits both arms alike. Each arm
/// reports its best chunk; the floor gates on the median pair ratio.
fn run_fit_rung(r: &SizeRung, steps: usize, pairs: usize) -> FitResult {
    assert_eq!(
        steps % pairs,
        0,
        "{}: {steps} steps over {pairs} pairs",
        r.name
    );
    let chunk = steps / pairs;
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

    // The two arms stay in weight lockstep, so each pair's loss
    // trajectories must agree bitwise and each pair times the same
    // computation on both sides.
    let mut batch_rates = Vec::with_capacity(pairs);
    let mut seq_rates = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    let mut cs_loss = 0u64;
    for pair in 0..pairs {
        let mut batch_arm = || timed(chunk, || t_batch.fit_batch(&mut s_batch, &refs));
        let mut seq_arm = || timed(chunk, || t_seq.fit_batch_sequential(&mut s_seq, &refs));
        let ((batch_rate, batch_losses), (seq_rate, seq_losses)) = if pair % 2 == 0 {
            let b = batch_arm();
            (b, seq_arm())
        } else {
            let s = seq_arm();
            (batch_arm(), s)
        };
        assert_eq!(
            batch_losses, seq_losses,
            "{}: fit_batch loss trajectory diverged from sequential",
            r.name
        );
        cs_loss = batch_losses
            .iter()
            .fold(cs_loss, |acc, &b| acc.rotate_left(7) ^ u64::from(b));
        batch_rates.push(batch_rate);
        seq_rates.push(seq_rate);
        ratios.push(batch_rate / seq_rate);
    }
    let mut counters = t_batch.counters();
    counters.merge_from(&t_seq.counters());
    // Both arms ran on the lane the artifact names.
    assert_lane_dispatched(r.name, &counters);
    FitResult {
        batch_steps_per_s: best(&batch_rates),
        seq_steps_per_s: best(&seq_rates),
        live: median(ratios),
        cs_loss,
        counters,
    }
}

fn run_lane(run: &mut Run) -> Result<Output, String> {
    let baseline = run.baseline();
    let scale = if run.quick { 4 } else { 1 }; // quick: 1/4 of the iterations
    let quick = run.quick;

    let mut fit_table = Table::new(["rung", "batch fit/s", "seq fit/s", "live x", "vs base"]);
    let mut out = Output::default();

    // Quick mode runs too few steps for stable timing: one pair, no gate.
    let pairs = if quick { 1 } else { PAIRS };
    for (r, fit) in run.ladder(SIZE_LADDER.iter().zip(FIT_ITERS)) {
        let fit_iters = (fit / scale).max(1);
        let fit = run_fit_rung(r, fit_iters * run.repeats(), pairs);
        out.counters.merge_from(&fit.counters);
        let fit_name = format!("fit{}", r.name);
        let base_seq = baseline.as_ref().and_then(|b| {
            let line = b.rung(&fit_name)?;
            json_num(line, "seq_steps_per_s")
        });
        let vs_base = base_seq.map(|b| fit.batch_steps_per_s / b);
        // No-regression floor on the median within-run pair ratio (see
        // the module docs for why this is not a speedup bar: the backward
        // accumulation order pins the weight-gradient kernels to
        // per-sample execution, so batched fitting is parity on CPU).
        let live = fit.live;
        assert!(
            quick || live >= 0.85,
            "{fit_name}: fit_batch regressed to {live:.2}x the sequential arm (median of \
             {pairs} pairs, < 0.85x)"
        );
        fit_table.row([
            fit_name.clone(),
            format!("{:.3}", fit.batch_steps_per_s),
            format!("{:.3}", fit.seq_steps_per_s),
            format!("{live:.2}x"),
            vs_base.map_or("-".to_string(), |x| format!("{x:.2}x")),
        ]);
        out.rungs.push(vec![
            text("name", &fit_name),
            int("bsz", BATCH),
            int("fit_iters", fit_iters),
            int("pairs", pairs),
            num("batch_steps_per_s", fit.batch_steps_per_s, 4),
            num("seq_steps_per_s", fit.seq_steps_per_s, 4),
            num("live_ratio", live, 4),
            hex("cs_loss", fit.cs_loss),
        ]);
        run.progress(&format!("{} fit done", r.name));
    }

    let kernel = kernel_lane();
    out.title = format!(
        "batched fit throughput ({} mode, {kernel} kernels, B = {BATCH}; speedups vs {})",
        run.mode(),
        if baseline.is_some() {
            run.baseline_path()
        } else {
            "(no baseline recorded yet)"
        }
    );
    out.tables = vec![fit_table];
    out.notes.push(format!(
        "checksums: every rung's fit_batch loss trajectory on the {kernel} lane bit-identical \
         to fit_batch_sequential"
    ));
    out.header = vec![text("mode", "batch"), text("kernel", kernel)];
    if baseline.is_none() && !quick {
        // Bootstrap: record this run as the baseline for future
        // comparisons (honest-comparison policy: the recorded denominator
        // predates any further batched-path tuning).
        out.bootstrap = Some(vec![
            text("mode", "single-sample-baseline"),
            text("kernel", kernel),
        ]);
    }
    Ok(out)
}
