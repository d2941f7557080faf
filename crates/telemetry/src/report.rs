//! Human-readable rendering and diffing of telemetry snapshots — the
//! backend of the `oarsmt report` CLI subcommand.
//!
//! [`render`] pretty-prints one snapshot (manifest header, non-zero
//! counters, non-empty spans); [`diff`] lines two snapshots up counter by
//! counter and span by span with absolute deltas and ratios, so "what got
//! slower between these two `BENCH_*.json` runs, and why" is one command.

use crate::counters::{Counter, ALL_COUNTERS, COUNTER_NAMES};
use crate::snapshot::TelemetrySnapshot;
use crate::timing::{ALL_SPANS, SPAN_NAMES};

/// Groups 1234567 as `1_234_567` — counter magnitudes (MACs especially)
/// are unreadable without separators.
fn group(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

fn fmt_ratio(a: u64, b: u64) -> String {
    if a == 0 && b == 0 {
        "=".to_string()
    } else if a == 0 {
        "new".to_string()
    } else {
        format!("{:.2}x", b as f64 / a as f64)
    }
}

/// Mean selector batch occupancy (`gemm_batch_cols / batch_flushes`), or
/// `None` when the snapshot recorded no network forwards.
fn occupancy(snap: &TelemetrySnapshot) -> Option<f64> {
    let flushes = snap.counters.get(Counter::BatchFlushes);
    if flushes == 0 {
        return None;
    }
    Some(snap.counters.get(Counter::GemmBatchCols) as f64 / flushes as f64)
}

fn manifest_line(snap: &TelemetrySnapshot) -> String {
    let m = &snap.manifest;
    format!(
        "run={} mode={} threads={} seed={} timing={}",
        m.run, m.mode, m.threads, m.seed, m.timing
    )
}

/// Renders one snapshot as a readable report.
#[must_use]
pub fn render(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("manifest: {}\n", manifest_line(snap)));
    out.push_str("\ncounters:\n");
    let mut any = false;
    for (name, value) in snap.counters.iter() {
        if value == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!("  {name:<22} {:>20}\n", group(value)));
    }
    if !any {
        out.push_str("  (all zero)\n");
    }
    if let Some(occ) = occupancy(snap) {
        out.push_str(&format!("  {:<22} {:>20.2}\n", "batch_occupancy", occ));
    }
    out.push_str("\nspans:\n");
    any = false;
    for (name, h) in snap.spans.iter() {
        if h.count == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!(
            "  {name:<16} count {:>12}  total {:>10.3} ms  mean {:>10} ns\n",
            group(h.count),
            h.total_ns as f64 / 1e6,
            group(h.mean_ns())
        ));
    }
    if !any {
        out.push_str(&format!(
            "  (none recorded{})\n",
            if snap.manifest.timing {
                ""
            } else {
                "; producing build had telemetry-timing off"
            }
        ));
    }
    out
}

/// Renders a counter/span diff of two snapshots (`a` → `b`).
#[must_use]
pub fn diff(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("a: {}\n", manifest_line(a)));
    out.push_str(&format!("b: {}\n", manifest_line(b)));
    out.push_str("\ncounters (a -> b):\n");
    out.push_str(&format!(
        "  {:<22} {:>16} {:>16} {:>17} {:>8}\n",
        "counter", "a", "b", "delta", "ratio"
    ));
    let mut any = false;
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        let va = a.counters.get(ALL_COUNTERS[i]);
        let vb = b.counters.get(ALL_COUNTERS[i]);
        if va == 0 && vb == 0 {
            continue;
        }
        any = true;
        let delta = vb as i128 - va as i128;
        let sign = if delta >= 0 { "+" } else { "-" };
        out.push_str(&format!(
            "  {name:<22} {:>16} {:>16} {sign}{:>16} {:>8}\n",
            group(va),
            group(vb),
            group(delta.unsigned_abs() as u64),
            fmt_ratio(va, vb)
        ));
    }
    if !any {
        out.push_str("  (all zero in both)\n");
    }
    match (occupancy(a), occupancy(b)) {
        (None, None) => {}
        (oa, ob) => {
            let f = |o: Option<f64>| o.map_or("-".to_string(), |v| format!("{v:.2}"));
            out.push_str(&format!(
                "  {:<22} {:>16} {:>16}\n",
                "batch_occupancy",
                f(oa),
                f(ob)
            ));
        }
    }
    out.push_str("\nspans, total ns (a -> b):\n");
    any = false;
    for (i, name) in SPAN_NAMES.iter().enumerate() {
        let ha = *a.spans.get(ALL_SPANS[i]);
        let hb = *b.spans.get(ALL_SPANS[i]);
        if ha.count == 0 && hb.count == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!(
            "  {name:<16} {:>16} {:>16} {:>8}\n",
            group(ha.total_ns),
            group(hb.total_ns),
            fmt_ratio(ha.total_ns, hb.total_ns)
        ));
    }
    if !any {
        out.push_str("  (none recorded in either)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;
    use crate::snapshot::Manifest;
    use crate::timing::Span;
    use crate::tracing::SpanRecorder;

    fn snap(pops: u64, ns: u64) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            manifest: Manifest {
                run: "unet_throughput".to_string(),
                mode: "full".to_string(),
                threads: 1,
                seed: 7,
                timing: ns > 0,
            },
            ..TelemetrySnapshot::default()
        };
        s.counters.add(Counter::DijkstraPops, pops);
        if ns > 0 {
            let mut rec = SpanRecorder::new();
            let m = rec.begin(Span::NnConvFwd, 0);
            rec.end(m, ns);
            s.spans = *rec.hists();
        }
        s
    }

    #[test]
    fn render_reports_batch_occupancy() {
        let mut s = snap(0, 0);
        assert!(!render(&s).contains("batch_occupancy"));
        s.counters.add(Counter::BatchFlushes, 4);
        s.counters.add(Counter::GemmBatchCols, 10);
        let r = render(&s);
        assert!(r.contains("batch_occupancy"), "{r}");
        assert!(r.contains("2.50"), "{r}");
        let d = diff(&snap(0, 0), &s);
        assert!(d.contains("batch_occupancy"), "{d}");
        assert!(d.contains("2.50"), "{d}");
    }

    #[test]
    fn group_inserts_separators() {
        assert_eq!(group(0), "0");
        assert_eq!(group(999), "999");
        assert_eq!(group(1000), "1_000");
        assert_eq!(group(1234567), "1_234_567");
    }

    #[test]
    fn render_shows_nonzero_counters_and_spans() {
        let r = render(&snap(1500, 2048));
        assert!(r.contains("run=unet_throughput"));
        assert!(r.contains("dijkstra_pops"));
        assert!(r.contains("1_500"));
        assert!(r.contains("nn_conv_fwd"));
        assert!(!r.contains("gemm_kernel_simd"), "zero counters stay hidden");
    }

    #[test]
    fn render_flags_timing_off_builds() {
        let r = render(&snap(1, 0));
        assert!(r.contains("telemetry-timing off"));
    }

    #[test]
    fn diff_reports_delta_and_ratio() {
        let d = diff(&snap(100, 1000), &snap(250, 500));
        assert!(d.contains("dijkstra_pops"));
        assert!(d.contains("+"));
        assert!(d.contains("2.50x"));
        assert!(d.contains("0.50x"));
    }

    #[test]
    fn diff_handles_counters_appearing_only_on_one_side() {
        let a = snap(0, 0);
        let mut b = snap(0, 0);
        b.counters.add(Counter::GemmKernelSimd, 5);
        let d = diff(&a, &b);
        assert!(d.contains("gemm_kernel_simd"));
        assert!(d.contains("new"));
    }
}
