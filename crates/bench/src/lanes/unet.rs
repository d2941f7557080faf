//! `oarsmt_bench unet`: selector-forward and train-step throughput of the
//! 3D Residual U-Net on the [`SIZE_LADDER`].
//!
//! A *forward* is one [`UNet3d::predict_in`] over the 7-channel feature
//! encoding of a generated layout — exactly the inference a
//! `NeuralSelector::fsp_into_ws` performs once per MCTS search. A *train
//! step* is one `zero_grad` + `forward` + BCE-with-logits + `backward` on
//! the same input with a sparse synthetic label — the inner loop of
//! `Trainer::fit_batch`.
//!
//! Everything runs on the default kernel lane — the AVX2 tiles wherever
//! the host has them, bit-identical to the scalar tiles (DESIGN.md §9) —
//! and the artifact's `kernel` field names the lane that ran. Per rung the
//! lane records an output checksum (forward logits) and gradient checksums
//! (input gradient, concatenated parameter gradients) as exact `f64` bit
//! patterns, and asserts:
//!
//! 1. bit identity against the in-process **naive reference
//!    convolutions** (`set_naive`, the pre-GEMM loops kept as an oracle);
//! 2. bit identity against the **recorded baseline artifact**
//!    (`BENCH_unet_baseline.json`, captured on the scalar lane before the
//!    GEMM/workspace rewrite) — also the denominator of the reported
//!    speedups;
//! 3. implicitly, bit identity across workspace reuse (the timed loops
//!    reuse one workspace; any drift would change the artifact
//!    checksums);
//! 4. that the wide tiles dispatched (`gemm_simd > 0`) exactly when
//!    [`oarsmt_nn::simd_available`] holds.
//!
//! The report always ends with a per-layer-kind time split of the timed
//! loops, read off the workspace's span histograms (real durations under
//! `telemetry-timing`, the bench default).
//!
//! Usage: `oarsmt_bench unet [--quick] [--out PATH] [--baseline PATH]`

use std::time::Instant;

use oarsmt::features::{encode_features_into, from_graph_order, valid_mask};
use oarsmt_nn::layer::Layer;
use oarsmt_nn::loss::bce_with_logits;
use oarsmt_nn::tensor::Tensor;
use oarsmt_nn::unet::UNet3d;
use oarsmt_nn::NnWorkspace;
use oarsmt_telemetry::{Counter, CounterSet, SpanSet, TIMING_ENABLED};

use super::{
    assert_lane_dispatched, f64_sum, heuristic_label, kernel_lane, selector_config, SizeRung,
    SIZE_LADDER,
};
use crate::artifact::{hex, int, json_field, json_num, num, text};
use crate::runner::{Lane, Output, Run};
use crate::Table;

/// The `unet` lane.
pub const LANE: Lane = Lane {
    name: "unet",
    producer: "unet_throughput",
    seed: 0xDAC2024,
    flags: &["--quick", "--out", "--baseline"],
    run: run_lane,
};

/// Timed forward (predict) and train-step iterations per
/// [`SIZE_LADDER`] rung, in a full run.
const ITERS: [(usize, usize); 6] = [(300, 120), (150, 60), (80, 32), (50, 20), (30, 12), (16, 6)];

/// Layout feature tensor + sparse label/mask for a rung.
fn rung_inputs(r: &SizeRung) -> (Tensor, Tensor, Tensor) {
    let graph = r.graph();
    let x = encode_features_into(&graph, &[], &mut NnWorkspace::new());
    let targets = from_graph_order(&heuristic_label(&graph), &graph);
    let mask = valid_mask(&graph, &[]);
    (x, targets, mask)
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Checksums {
    /// Bit patterns: predict output, forward logits, input gradient,
    /// concatenated parameter gradients.
    predict: u64,
    logits: u64,
    grad_in: u64,
    param_grads: u64,
}

struct RungResult {
    fwd_secs: f64,
    train_secs: f64,
    cs: Checksums,
    /// Tier B per-layer spans of the timed loops (zero durations unless
    /// the `telemetry-timing` feature is on).
    spans: SpanSet,
    /// Tier A counters for the whole rung (checksum pass + timed loops;
    /// the naive oracle routes through its own discarded workspaces).
    counters: CounterSet,
}

/// One predict + one train step through `ws`: the checksums a rung
/// records.
fn checksum_pass(
    net: &mut UNet3d,
    x: &Tensor,
    targets: &Tensor,
    mask: &Tensor,
    ws: &mut NnWorkspace,
) -> Checksums {
    let probs = net.predict_in(x, ws);
    let predict = f64_sum(probs.data()).to_bits();
    ws.free(probs);
    net.zero_grad();
    let (logits, cache) = net.forward(x, ws);
    let cs_logits = f64_sum(logits.data()).to_bits();
    let out = bce_with_logits(&logits, targets, Some(mask));
    ws.free(logits);
    let grad_in = net.backward(cache.expect("training workspace"), out.grad, ws);
    let cs_grad_in = f64_sum(grad_in.data()).to_bits();
    ws.free(grad_in);
    let mut param_sum = 0.0f64;
    for p in net.params_mut() {
        param_sum += f64_sum(p.grad.data());
    }
    Checksums {
        predict,
        logits: cs_logits,
        grad_in: cs_grad_in,
        param_grads: param_sum.to_bits(),
    }
}

/// Runs one rung: oracle + checksum passes first (untimed), then timing
/// loops through one reused workspace.
fn run_rung(r: &SizeRung, fwd_iters: usize, train_iters: usize) -> RungResult {
    let (x, targets, mask) = rung_inputs(r);
    let mut net = UNet3d::new(selector_config());
    let mut ws = NnWorkspace::new();

    // --- checksum pass through the GEMM + workspace path ---
    let cs = checksum_pass(&mut net, &x, &targets, &mask, &mut ws);

    // --- in-process oracle: the naive reference loops must agree bitwise ---
    let mut ref_net = net.clone();
    ref_net.zero_grad();
    ref_net.set_naive(true);
    let ref_cs = checksum_pass(&mut ref_net, &x, &targets, &mask, &mut NnWorkspace::new());
    assert!(
        cs == ref_cs,
        "{}: GEMM path diverged from naive reference convolutions",
        r.name
    );

    assert_lane_dispatched(r.name, &ws.counters);
    let untimed = *ws.spans.hists();

    // --- forward (inference) timing ---
    let t0 = Instant::now();
    for _ in 0..fwd_iters {
        let p = net.predict_in(&x, &mut ws);
        std::hint::black_box(p.data()[0]);
        ws.free(p);
    }
    let fwd_secs = t0.elapsed().as_secs_f64();

    // --- train-step timing ---
    let t0 = Instant::now();
    for _ in 0..train_iters {
        net.zero_grad();
        let (logits, cache) = net.forward(&x, &mut ws);
        let out = bce_with_logits(&logits, &targets, Some(&mask));
        ws.free(logits);
        let g = net.backward(cache.expect("training workspace"), out.grad, &mut ws);
        std::hint::black_box(g.data()[0]);
        ws.free(g);
    }
    let train_secs = t0.elapsed().as_secs_f64();

    RungResult {
        fwd_secs,
        train_secs,
        cs,
        spans: ws.spans.hists().delta_since(&untimed),
        counters: ws.counters,
    }
}

/// Asserts that this run's checksums match the recorded baseline rung
/// bit-for-bit (the rewrite must not change a single logit or gradient).
fn assert_baseline_checksums(name: &str, line: &str, cs: &Checksums) {
    for (key, ours) in [
        ("cs_predict", cs.predict),
        ("cs_logits", cs.logits),
        ("cs_grad_in", cs.grad_in),
        ("cs_param_grads", cs.param_grads),
    ] {
        let recorded = json_field(line, key).unwrap_or_else(|| panic!("{name}: baseline {key}"));
        assert_eq!(
            recorded,
            format!("{ours:016x}"),
            "{name}: {key} diverged from the recorded baseline artifact"
        );
    }
}

fn run_lane(run: &mut Run) -> Result<Output, String> {
    let baseline = run.require_baseline()?;
    let scale = if run.quick { 4 } else { 1 }; // quick: 1/4 of the iterations

    let mut table = Table::new([
        "rung",
        "fwd/s",
        "xfwd",
        "train/s",
        "xtrain",
        "gemm d/p/f",
        "logits checksum",
    ]);
    let mut out = Output::default();
    let mut tot = (0usize, 0.0f64, 0usize, 0.0f64);
    for (r, (fwd, train)) in run.ladder(SIZE_LADDER.iter().zip(ITERS)) {
        let fwd_iters = (fwd / scale).max(2);
        let train_iters = (train / scale).max(1);
        let res = run_rung(r, fwd_iters, train_iters);
        let base_line = baseline
            .rung(r.name)
            .unwrap_or_else(|| panic!("{}: missing from {}", r.name, run.baseline_path()));
        assert_baseline_checksums(r.name, base_line, &res.cs);
        let fwd_per_s = fwd_iters as f64 / res.fwd_secs;
        let train_per_s = train_iters as f64 / res.train_secs;
        let base_fwd = json_num(base_line, "fwd_per_s").expect("baseline fwd_per_s");
        let base_train = json_num(base_line, "train_per_s").expect("baseline train_per_s");
        let c = &res.counters;
        table.row([
            r.name.to_string(),
            format!("{fwd_per_s:.2}"),
            format!("{:.2}x", fwd_per_s / base_fwd),
            format!("{train_per_s:.2}"),
            format!("{:.2}x", train_per_s / base_train),
            format!(
                "{}/{}/{}",
                c.get(Counter::GemmDirect),
                c.get(Counter::GemmPanel),
                c.get(Counter::GemmFlat)
            ),
            format!("{:016x}", res.cs.logits),
        ]);
        out.rungs.push(vec![
            text("name", r.name),
            int("fwd_iters", fwd_iters),
            num("fwd_secs", res.fwd_secs, 6),
            num("fwd_per_s", fwd_per_s, 3),
            int("train_iters", train_iters),
            num("train_secs", res.train_secs, 6),
            num("train_per_s", train_per_s, 3),
            int("gemm_direct", c.get(Counter::GemmDirect)),
            int("gemm_panel", c.get(Counter::GemmPanel)),
            int("gemm_flat", c.get(Counter::GemmFlat)),
            int("gemm_simd", c.get(Counter::GemmKernelSimd)),
            int("macs", c.total_macs()),
            hex("cs_predict", res.cs.predict),
            hex("cs_logits", res.cs.logits),
            hex("cs_grad_in", res.cs.grad_in),
            hex("cs_param_grads", res.cs.param_grads),
        ]);
        tot.0 += fwd_iters;
        tot.1 += res.fwd_secs;
        tot.2 += train_iters;
        tot.3 += res.train_secs;
        out.spans.merge_from(&res.spans);
        out.counters.merge_from(&res.counters);
        run.progress(&format!("{} done", r.name));
    }

    let kernel = kernel_lane();
    out.title = format!(
        "unet selector throughput ({} mode, {kernel} kernels; speedups vs {})",
        run.mode(),
        run.baseline_path()
    );
    out.tables.push(table);
    let tot_fwd = tot.0 as f64 / tot.1;
    let tot_train = tot.2 as f64 / tot.3;
    out.notes
        .push(format!("total: fwd {tot_fwd:.2}/s, train {tot_train:.2}/s"));
    if let (Some(base_fwd), Some(base_train)) = (
        baseline.top_num("total_fwd_per_s"),
        baseline.top_num("total_train_per_s"),
    ) {
        // Quick mode runs a rung subset, so only the full ladder compares
        // cleanly against the recorded totals.
        if !run.quick {
            out.notes.push(format!(
                "overall speedup: fwd {:.2}x, train {:.2}x",
                tot_fwd / base_fwd,
                tot_train / base_train
            ));
        }
    }
    out.notes.push(format!(
        "checksums: all rungs on the {kernel} lane bit-identical to naive reference and \
         recorded baseline"
    ));

    let total: f64 = out.spans.iter().map(|(_, h)| h.total_ns as f64 / 1e9).sum();
    let mut pt = Table::new(["layer kind", "secs", "share"]);
    for (name, h) in out.spans.iter() {
        if h.count == 0 {
            continue;
        }
        let secs = h.total_ns as f64 / 1e9;
        pt.row([
            name.to_string(),
            format!("{secs:.4}"),
            format!("{:.1}%", 100.0 * secs / total.max(1e-12)),
        ]);
    }
    out.notes.push(format!(
        "\nper-layer time split (timed loops, all rungs)\n\n{}{}",
        if TIMING_ENABLED {
            ""
        } else {
            "(telemetry-timing feature off: spans recorded as zero-duration events)\n\n"
        },
        pt.render().trim_end()
    ));

    out.header = vec![text("mode", "gemm-workspace"), text("kernel", kernel)];
    out.totals = vec![
        num("total_fwd_per_s", tot_fwd, 3),
        num("total_train_per_s", tot_train, 3),
    ];
    Ok(out)
}
