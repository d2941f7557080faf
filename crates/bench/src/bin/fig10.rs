//! Regenerates **Fig. 10**: average routing-cost improvement ratio of our
//! router over the \[14\] baseline versus the layout obstacle ratio, per
//! test subset.
//!
//! Paper shape to reproduce: within each subset the improvement ratio
//! generally *increases* with the obstacle ratio — the RL router's
//! advantage grows as layouts get harder to route.

#![forbid(unsafe_code)]

use oarsmt::eval::ObstacleRatioCurve;
use oarsmt::parallel;
use oarsmt_bench::{harness, Table};
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_telemetry::SpanRecorder;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flag = parallel::take_threads_flag(&mut args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: fig10 [--threads N]   (or OARSMT_THREADS=N)");
        std::process::exit(2);
    });
    let threads = parallel::thread_count(flag);
    println!("Fig. 10: avg improvement ratio vs obstacle ratio, per subset ({threads} threads)\n");
    let selector = harness::pretrained_selector();
    let mut spans = SpanRecorder::new();
    for spec in TestSubsetSpec::ladder() {
        let result = harness::run_subset(&spec, &selector, 0xF160, threads, &mut spans)
            .expect("subset must route");
        let max_ratio = result
            .obstacle_points
            .iter()
            .map(|&(o, _)| o)
            .fold(0.05, f64::max);
        let mut curve = ObstacleRatioCurve::new(4, max_ratio + 1e-9);
        for &(obstacle, improvement) in &result.obstacle_points {
            curve.record(obstacle, improvement);
        }
        println!("subset {}:", result.name);
        let mut table = Table::new(["obstacle ratio (bin center)", "avg improvement", "layouts"]);
        for (center, avg, n) in curve.rows() {
            table.row([
                format!("{center:.3}"),
                format!("{:+.3}%", 100.0 * avg),
                n.to_string(),
            ]);
        }
        table.print();
        println!();
    }
    println!("paper: improvement rises with obstacle ratio across all subsets");
}
