//! Comparing the three policy-optimization schemes of Section 4.2 on one
//! tiny setting: combinatorial MCTS (ours), conventional AlphaGo-like MCTS,
//! and PPO — including the search-efficiency ablation (tree sizes) behind
//! the paper's 3.48× sample-generation claim.
//!
//! Run with `cargo run --release --example compare_policies`.

use oarsmt::selector::UniformSelector;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_mcts::{AlphaGoMcts, CombinatorialMcts, MctsConfig};
use oarsmt_nn::unet::UNetConfig;
use oarsmt_rl::ppo::{PpoConfig, PpoTrainer};
use oarsmt_router::RouteContext;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 6)), 99);
    let cases = gen.generate_many(8);
    let cfg = MctsConfig {
        base_iterations: 8 * 36,
        base_size: 36,
        use_critic: false,
        ..MctsConfig::default()
    };

    // An uncommitted selector isolates the search schemes themselves.
    let mut selector = UniformSelector::new(0.08);

    println!("search-efficiency comparison (same iteration budget):");
    let mut comb_nodes = 0usize;
    let mut conv_nodes = 0usize;
    let mut comb_time = std::time::Duration::ZERO;
    let mut conv_time = std::time::Duration::ZERO;
    let mut comb_gain = 0.0f64;
    let mut conv_gain = 0.0f64;
    let mut n = 0usize;
    for graph in &cases {
        let t0 = Instant::now();
        let Ok(comb) = CombinatorialMcts::new(cfg.clone()).search_in(
            &mut RouteContext::new(),
            graph,
            &mut selector,
        ) else {
            continue;
        };
        comb_time += t0.elapsed();
        let t0 = Instant::now();
        let conv = AlphaGoMcts::new(cfg.clone()).search_in(
            &mut RouteContext::new(),
            graph,
            &mut selector,
        )?;
        conv_time += t0.elapsed();
        comb_nodes += comb.nodes_created;
        conv_nodes += conv.nodes_created;
        comb_gain += 1.0 - comb.final_cost / comb.initial_cost;
        conv_gain += 1.0 - conv.final_cost / conv.initial_cost;
        n += 1;
    }
    println!(
        "  combinatorial: {comb_nodes} nodes, {comb_time:?}, avg cost gain {:.2}%",
        100.0 * comb_gain / n as f64
    );
    println!(
        "  conventional : {conv_nodes} nodes, {conv_time:?}, avg cost gain {:.2}%",
        100.0 * conv_gain / n as f64
    );
    println!("  (paper: combinatorial sample generation is 3.48x faster than conventional)");

    println!("\nppo baseline (one iteration on the same distribution):");
    let mut ppo = PpoTrainer::new(
        PpoConfig {
            iterations: 1,
            episodes_per_iter: 8,
            size: (6, 6, 1),
            pin_range: (4, 6),
            seed: 99,
            ..PpoConfig::default()
        },
        UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 99,
        },
    );
    for report in ppo.run() {
        println!("  {report}");
    }
    println!("  (paper: the PPO router trails both MCTS routers throughout training)");
    Ok(())
}
