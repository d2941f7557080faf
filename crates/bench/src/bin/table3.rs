//! Regenerates **Table 3**: runtime comparison between the \[14\] baseline
//! and our RL router (Steiner-point selection time vs total time, and the
//! speedup) on the randomly generated test subsets.
//!
//! Paper shape to reproduce: the baseline may be faster on the smallest
//! subset, but our speedup grows with layout size, and the Steiner-point
//! selection time grows mildly (one inference per layout regardless of the
//! pin count).

//! `--trace FILE` exports a Chrome `trace_event` JSON of the ladder: one
//! `bench_rung` span per subset holding each layout's baseline/select/route
//! phases as the harness records them (measured per layout, so they carry
//! real durations in every build).

#![forbid(unsafe_code)]

use std::io::Write as _;

use oarsmt_bench::{harness, Table};
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_telemetry::{tracing, Span, SpanRecorder};

fn main() {
    let flags = oarsmt_bench::runner::table_flags("table3", true);
    let threads = flags.threads;
    let mut rec = SpanRecorder::new();
    if flags.trace.is_some() {
        rec.arm(1 << 16);
    }
    println!("Table 3: runtime comparison between [14] and our router ({threads} threads)\n");
    let selector = harness::pretrained_selector();
    let mut table = Table::new([
        "subset",
        "layouts",
        "[14] avg s (a)",
        "Spoint select",
        "route",
        "ours total (b)",
        "speedup (a/b)",
    ]);
    for spec in TestSubsetSpec::ladder() {
        let result = harness::run_subset(&spec, &selector, 0xDAC2024, threads, &mut rec)
            .expect("subset must route");
        let n = result.comparison.count().max(1) as f64;
        let base = result.spans.total_secs(Span::PhaseBaseline) / n;
        let select = result.spans.total_secs(Span::PhaseSelect) / n;
        let route = result.spans.total_secs(Span::PhaseRoute) / n;
        let total = select + route;
        table.row([
            result.name.to_string(),
            result.comparison.count().to_string(),
            format!("{base:.5}"),
            format!("{select:.5}"),
            format!("{route:.5}"),
            format!("{total:.5}"),
            format!("{:.1}x", base / total),
        ]);
        let _ = writeln!(std::io::stderr(), "[table3] {} done", result.name);
    }
    table.print();
    if let Some(path) = &flags.trace {
        let events = rec.events_in_order();
        std::fs::write(path, tracing::to_chrome_json(&events, rec.dropped())).expect("write trace");
        let _ = writeln!(
            std::io::stderr(),
            "[table3] trace ({} events) -> {path}",
            events.len()
        );
    }
    println!("\npaper: speedup 0.8x on T32 rising to ~75x on T512");
}
