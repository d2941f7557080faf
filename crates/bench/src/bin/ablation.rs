//! Quality ablations for the design choices called out in DESIGN.md §4:
//! what each mechanism of the routers buys, measured on one random
//! workload. Runtimes are measured by `table3` and the `oarsmt_bench`
//! lanes, not here.
//!
//! `cargo run --release -p oarsmt-bench --bin ablation`

#![forbid(unsafe_code)]

use oarsmt::rl_router::RlRouter;
use oarsmt::selector::{MedianHeuristicSelector, Selector};
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_bench::Table;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_nn::NnWorkspace;
use oarsmt_router::exact::steiner_exact_cost;
use oarsmt_router::{Lin18Router, OarmstRouter, RouteContext};

fn main() {
    let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(9, 9, 2, (4, 6)), 0xAB1A);
    let cases: Vec<HananGraph> = gen
        .generate_many(40)
        .into_iter()
        .filter(|g| {
            OarmstRouter::new()
                .route_in(&mut RouteContext::new(), g, &[])
                .is_ok()
        })
        .collect();
    println!(
        "quality ablations on {} random 9x9x2 layouts (4-6 pins, paper costs)\n",
        cases.len()
    );

    // Reference: the exact optimum where computable.
    let exact: Vec<Option<f64>> = cases.iter().map(|g| steiner_exact_cost(g).ok()).collect();
    let sum_exact: f64 = exact.iter().flatten().sum();

    let mut table = Table::new(["configuration", "total cost", "vs exact optimum"]);
    let mut row = |name: &str, costs: Vec<f64>| {
        let total: f64 = costs.iter().sum();
        let vs: f64 = costs
            .iter()
            .zip(&exact)
            .filter_map(|(&c, e)| e.map(|e| c / e))
            .sum::<f64>()
            / exact.iter().flatten().count() as f64;
        table.row([
            name.to_string(),
            format!("{total:.0}"),
            format!("{:.3}x", vs),
        ]);
    };

    // 1. OARMST construction variants.
    row(
        "oarmst (no polish)",
        cases
            .iter()
            .map(|g| {
                OarmstRouter::new()
                    .with_polish_rounds(0)
                    .route_in(&mut RouteContext::new(), g, &[])
                    .unwrap()
                    .cost()
            })
            .collect(),
    );
    row(
        "oarmst (polish, default)",
        cases
            .iter()
            .map(|g| {
                OarmstRouter::new()
                    .route_in(&mut RouteContext::new(), g, &[])
                    .unwrap()
                    .cost()
            })
            .collect(),
    );
    row(
        "oarmst (bounded margin 1)",
        cases
            .iter()
            .map(|g| {
                OarmstRouter::new()
                    .with_bounds_margin(1)
                    .route_in(&mut RouteContext::new(), g, &[])
                    .map(|t| t.cost())
                    .unwrap_or(f64::NAN)
            })
            .collect(),
    );

    // 2. [14] baseline with and without its retracing schedule.
    row(
        "lin18 (no reassess)",
        cases
            .iter()
            .map(|g| {
                Lin18Router::new()
                    .without_reassess()
                    .route(g)
                    .unwrap()
                    .cost()
            })
            .collect(),
    );
    row(
        "lin18 (full)",
        cases
            .iter()
            .map(|g| Lin18Router::new().route(g).unwrap().cost())
            .collect(),
    );

    // 3. RL router mechanism stack.
    row(
        "ours (selector only, no refine/safeguard)",
        cases
            .iter()
            .map(|g| {
                // One inference, the top n - 2 vertices, one OARMST build.
                let mut fsp = Vec::new();
                MedianHeuristicSelector::new().fsp_into_ws(
                    g,
                    &[],
                    &mut fsp,
                    &mut NnWorkspace::new(),
                );
                let mut points = Vec::new();
                select_top_k_into(
                    g,
                    &fsp,
                    steiner_budget(g.pins().len()),
                    &[],
                    &mut Vec::new(),
                    &mut Vec::new(),
                    &mut points,
                );
                OarmstRouter::new()
                    .with_polish_rounds(0)
                    .route_in(&mut RouteContext::new(), g, &points)
                    .unwrap()
                    .cost()
            })
            .collect(),
    );
    row(
        "ours (full)",
        cases
            .iter()
            .map(|g| {
                RlRouter::new(MedianHeuristicSelector::new())
                    .route(g)
                    .unwrap()
                    .tree
                    .cost()
            })
            .collect(),
    );
    row(
        "exact optimum",
        exact.iter().map(|e| e.unwrap_or(f64::NAN)).collect(),
    );
    table.print();
    println!("\n(total exact optimum over solvable layouts: {sum_exact:.0})");
    println!("expected ordering: no-polish > bounded >= polish >= lin18 >= ours >= exact");
}
