//! Regenerates **Table 2**: routing-cost comparison between the \[14\]
//! baseline and our RL router on the randomly generated test subsets.
//!
//! Paper shape to reproduce: our router's average routing cost is lower on
//! every subset (≈2.3–2.7% in the paper), the average improvement ratio
//! tracks the difference ratio, and the win rate grows with layout size.

#![forbid(unsafe_code)]

use std::io::Write as _;

use oarsmt_bench::{harness, Table};
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_telemetry::SpanRecorder;

fn main() {
    let threads = oarsmt_bench::runner::table_flags("table2", false).threads;
    println!("Table 2: routing-cost comparison between [14] and our router ({threads} threads)\n");
    let selector = harness::pretrained_selector();
    let mut table = Table::new([
        "subset",
        "layouts",
        "[14] avg (a)",
        "ours avg (b)",
        "(a-b)/a",
        "avg imp",
        "win",
        "loss",
    ]);
    let mut spans = SpanRecorder::new();
    for spec in TestSubsetSpec::ladder() {
        let result = harness::run_subset(&spec, &selector, 0xDAC2024, threads, &mut spans)
            .expect("subset must route");
        let c = &result.comparison;
        table.row([
            result.name.to_string(),
            c.count().to_string(),
            format!("{:.0}", c.avg_baseline()),
            format!("{:.0}", c.avg_ours()),
            format!("{:+.3}%", 100.0 * c.diff_ratio()),
            format!("{:+.3}%", 100.0 * c.avg_improvement_ratio()),
            format!("{:.1}%", 100.0 * c.win_rate()),
            format!("{:.1}%", 100.0 * c.loss_rate()),
        ]);
        let _ = writeln!(
            std::io::stderr(),
            "[table2] {} done ({} skipped)",
            result.name,
            result.skipped
        );
    }
    table.print();
    println!(
        "\npaper: improvement 2.26%..2.68%, win rate 64.7%..100% growing with size, loss -> 0%"
    );
}
