//! The `train` workload: `Trainer::run_stage` from the pinned weights,
//! then the trained selector serves a held-out layout set beside \[14\].
//!
//! Training is deterministic, so every pass repeats the same stages bit for
//! bit from the same start; a stage's time is its fastest pass.
//!
//! The trainer draws its own layouts from a fixed `TrainerConfig::seed`;
//! only the served layouts follow `--seed`. Search work per layout varies
//! several-fold, so with a seed-dependent training set the samples per
//! second of ten seeds spread 27% (interquartile range over median),
//! against 4% with the training set fixed.

use std::time::Instant;

use oarsmt::selector::NeuralSelector;
use oarsmt_mcts::MctsConfig;
use oarsmt_rl::{Trainer, TrainerConfig};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::gen::Fnv;
use crate::serve::{mean, ratio, Serve};
use crate::Metric;

/// The trainer's seed, the same for every `--seed`.
const TRAINER_SEED: u64 = 0x7EA1_2024;

/// Paper-cost 8×8×2 and 12×12×2 layouts, 3–6 pins, 576 MCTS iterations
/// per 72 vertices, 2 epochs of batch 32 over the 16-fold augmentation,
/// on one thread.
pub fn config(layouts_per_size: usize, stages: usize) -> TrainerConfig {
    TrainerConfig {
        sizes: vec![(8, 8, 2), (12, 12, 2)],
        layouts_per_size,
        stages,
        curriculum_stages: 0,
        pin_range: (3, 6),
        epochs_per_stage: 2,
        batch_size: 32,
        learning_rate: 1e-3,
        augment: true,
        mcts: MctsConfig {
            base_iterations: 576,
            base_size: 72,
            ..MctsConfig::default()
        },
        seed: TRAINER_SEED,
        threads: 1,
    }
}

/// What one stage reported, fixed by the first pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageResult {
    samples: usize,
    loss_bits: u32,
    mcts_ratio_bits: u64,
}

#[derive(Debug)]
pub struct Train {
    config: TrainerConfig,
    pinned: NeuralSelector,
    stages: Vec<StageResult>,
    stage_ns: Vec<Vec<u64>>,
    gen_ns: Vec<Vec<u64>>,
    fit_ns: Vec<Vec<u64>>,
    /// Trainer counters over the first pass's stages.
    counters: CounterSet,
    pub serve: Option<Serve>,
    pub passes: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Train {
    pub fn new(config: TrainerConfig, pinned: NeuralSelector) -> Self {
        let n = config.stages;
        Train {
            config,
            pinned,
            stages: Vec::new(),
            stage_ns: vec![Vec::new(); n],
            gen_ns: vec![Vec::new(); n],
            fit_ns: vec![Vec::new(); n],
            counters: CounterSet::new(),
            serve: None,
            passes: 0,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Trains every stage from the pinned weights, then serves the
    /// held-out set with the result. `serve` builds the server on the
    /// first pass from the trained selector.
    pub fn pass(&mut self, serve: impl FnOnce(NeuralSelector) -> Serve) {
        let mut selector = self.pinned.clone();
        let mut trainer = Trainer::new(self.config.clone());
        let start = trainer.counters();
        for stage in 0..self.config.stages {
            self.attempted += 1;
            let t = Instant::now();
            let report = match trainer.run_stage(&mut selector, stage) {
                Ok(r) => r,
                Err(e) => {
                    self.failures.push(format!("stage {stage}: {e}"));
                    return;
                }
            };
            self.stage_ns[stage].push(t.elapsed().as_nanos() as u64);
            self.gen_ns[stage].push(report.sample_gen_time.as_nanos() as u64);
            self.fit_ns[stage].push(report.train_time.as_nanos() as u64);
            let result = StageResult {
                samples: report.samples,
                loss_bits: report.avg_loss.to_bits(),
                mcts_ratio_bits: report.mcts_cost_ratio.to_bits(),
            };
            if self.passes == 0 {
                self.stages.push(result);
            } else if self.stages[stage] != result {
                self.failures.push(format!(
                    "stage {stage}: pass {} differs from pass 0",
                    self.passes
                ));
            }
        }
        if self.passes == 0 {
            self.counters = trainer.counters().delta_since(&start);
            self.serve = Some(serve(selector));
        }
        if let Some(s) = &mut self.serve {
            s.pass();
        }
        self.passes += 1;
    }

    pub fn result_hash(&self, h: &mut Fnv) {
        for s in &self.stages {
            h.u64(s.samples as u64);
            h.u64(u64::from(s.loss_bits));
            h.u64(s.mcts_ratio_bits);
        }
    }

    /// Total seconds over the stages, each at its fastest pass.
    fn best_s(col: &[Vec<u64>]) -> f64 {
        col.iter()
            .filter_map(|v| v.iter().min())
            .map(|&ns| ns as f64 / 1e9)
            .sum()
    }

    /// Fitted samples per second of `run_stage` wall time.
    pub fn samples_per_s(&self) -> f64 {
        let samples: usize = self.stages.iter().map(|s| s.samples).sum();
        ratio(samples as f64, Train::best_s(&self.stage_ns))
    }

    /// The trainer's own per-layer metrics.
    pub fn per_layer(&self) -> Vec<Metric> {
        let c = &self.counters;
        let gen = Train::best_s(&self.gen_ns);
        let fit = Train::best_s(&self.fit_ns);
        let rollouts = c.get(Counter::MctsRollouts) as f64;
        let ratios: Vec<f64> = self
            .stages
            .iter()
            .map(|s| f64::from_bits(s.mcts_ratio_bits))
            .collect();
        let loss = self
            .stages
            .last()
            .map_or(0.0, |s| f64::from(f32::from_bits(s.loss_bits)));
        vec![
            Metric::new("mcts.gen_share", ratio(gen, gen + fit)),
            Metric::new(
                "mcts.rollouts_per_stage",
                ratio(rollouts, self.stages.len() as f64),
            ),
            Metric::new(
                "mcts.critic_pops_per_rollout",
                ratio(c.get(Counter::DijkstraPops) as f64, rollouts),
            ),
            Metric::new("mcts.cost_ratio", mean(&ratios)),
            Metric::new("nn.fit_loss_final", loss),
            Metric::new(
                "nn.batch_occupancy",
                ratio(
                    c.get(Counter::GemmBatchCols) as f64,
                    c.get(Counter::BatchFlushes) as f64,
                ),
            ),
        ]
    }
}
