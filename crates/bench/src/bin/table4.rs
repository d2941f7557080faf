//! Regenerates **Table 4**: routing-cost comparison on the public benchmark
//! layouts (synthetic re-creations; DESIGN.md §5) against the three
//! algorithmic baselines \[12\] (spanning graph), \[16\] (geometric
//! reduction) and \[14\] (maze routing with retracing), with via cost 3.
//!
//! Paper shape to reproduce: ours beats \[12\] by the largest margin
//! (avg ≈ 4.75%), \[16\] by less (≈ 0.99%) and \[14\] by the least
//! (≈ 0.61%); an isolated small regression against one baseline on one
//! benchmark (ind2 in the paper) is within the expected noise.

#![forbid(unsafe_code)]

use std::io::Write as _;

use oarsmt::rl_router::RlRouter;
use oarsmt_bench::{harness, Table};
use oarsmt_geom::benchmarks::BenchmarkSpec;
use oarsmt_router::{Lin18Router, Liu14Router, SpanningRouter};

fn main() {
    println!("Table 4: routing cost on public benchmark layouts (via cost 3)\n");
    let mut selector = harness::pretrained_selector();
    let mut router = RlRouter::new(&mut selector);
    let mut spanning = SpanningRouter::new();
    let mut liu = Liu14Router::new();
    let mut lin = Lin18Router::new();

    let mut table = Table::new([
        "case", "HxVxM", "pins", "obst", "[12] (a)", "[16] (b)", "[14] (c)", "ours (d)", "(a-d)/a",
        "(b-d)/b", "(c-d)/c",
    ]);
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for spec in BenchmarkSpec::all() {
        let graph = spec.build();
        let (h, v, m, pins, obst) = spec.scaled();
        let a = spanning.route(&graph).expect("benchmark routes").cost();
        let b = liu.route(&graph).expect("benchmark routes").cost();
        let c = lin.route(&graph).expect("benchmark routes").cost();
        let d = router.route(&graph).expect("benchmark routes").tree.cost();
        let imps = [(a - d) / a, (b - d) / b, (c - d) / c];
        for (s, i) in sums.iter_mut().zip(imps) {
            *s += i;
        }
        count += 1;
        table.row([
            spec.name.to_string(),
            format!("{h}x{v}x{m}"),
            pins.to_string(),
            obst.to_string(),
            format!("{a:.0}"),
            format!("{b:.0}"),
            format!("{c:.0}"),
            format!("{d:.0}"),
            format!("{:+.3}%", 100.0 * imps[0]),
            format!("{:+.3}%", 100.0 * imps[1]),
            format!("{:+.3}%", 100.0 * imps[2]),
        ]);
        let _ = writeln!(std::io::stderr(), "[table4] {} done", spec.name);
    }
    table.row([
        "avg".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:+.3}%", 100.0 * sums[0] / count as f64),
        format!("{:+.3}%", 100.0 * sums[1] / count as f64),
        format!("{:+.3}%", 100.0 * sums[2] / count as f64),
    ]);
    table.print();
    println!("\npaper: avg improvement +4.753% vs [12], +0.986% vs [16], +0.609% vs [14]");
}
