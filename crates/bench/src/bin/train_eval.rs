//! Diagnostic (not a paper experiment): trains the experiment selector
//! stage by stage and tracks its quality after every stage — both the
//! ST-to-MST ratio and the comparison against the \[14\] baseline — to
//! calibrate the training schedule used by `pretrained_selector`.

#![forbid(unsafe_code)]

use oarsmt::eval::CostComparison;
use oarsmt::rl_router::RlRouter;
use oarsmt::selector::NeuralSelector;
use oarsmt_bench::harness::experiment_net_config;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig, TestSubsetSpec};
use oarsmt_rl::trainer::{st_to_mst_over_cases, InferenceMode, Trainer, TrainerConfig};
use oarsmt_router::Lin18Router;

fn eval_vs_lin18(selector: &mut NeuralSelector, spec: &TestSubsetSpec) -> CostComparison {
    let mut lin18 = Lin18Router::new();
    let mut cmp = CostComparison::new();
    let mut router = RlRouter::new(&mut *selector);
    let mut gen = spec.generator(0xE7A1);
    for graph in gen.generate_many(30) {
        let Ok(base) = lin18.route(&graph) else {
            continue;
        };
        let Ok(out) = router.route(&graph) else {
            continue;
        };
        cmp.record(base.cost(), out.tree.cost());
    }
    cmp
}

fn main() {
    let stages: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let config = TrainerConfig {
        stages,
        ..oarsmt_rl::schedule::laptop_schedule(7)
    };
    let mut trainer = Trainer::new(config);
    let mut selector = NeuralSelector::with_config(experiment_net_config());
    let eval_cases =
        CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (4, 6)), 0xE7A2).generate_many(40);
    let t32 = &TestSubsetSpec::ladder()[0];

    let base_ratio = st_to_mst_over_cases(&mut selector, InferenceMode::OneShot, &eval_cases);
    println!("stage -1 (untrained): st/mst {base_ratio:.4}");
    for stage in 0..stages {
        let report = trainer.run_stage(&mut selector, stage).expect("stage");
        let ratio = st_to_mst_over_cases(&mut selector, InferenceMode::OneShot, &eval_cases);
        let cmp = eval_vs_lin18(&mut selector, t32);
        println!("stage {stage}: {report}\n         st/mst {ratio:.4} | vs lin18: {cmp}");
    }
}
