//! The stage-based training loop of Fig. 8: combinatorial MCTS generates
//! labelled samples on random layouts, the selector is fitted with BCE, and
//! the upgraded selector powers the actor and critic of the next stage.
//! Includes the mixed-size schedule and curriculum of Section 3.6, plus an
//! AlphaGo-like baseline trainer (per-move samples, Section 4.2).

use std::fmt;
use std::time::{Duration, Instant};

use oarsmt::parallel;
use oarsmt::selector::{NeuralSelector, Selector};
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_mcts::alphago::{sequential_select, AlphaGoMcts};
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::layer::Layer;
use oarsmt_nn::loss::bce_with_logits_batch;
use oarsmt_nn::optim::Adam;
use oarsmt_nn::{NnWorkspace, Tensor, UNet3d};
use oarsmt_router::OarmstRouter;
use oarsmt_telemetry::{CounterSet, Span, SpanRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::augment::augment_16;
use crate::dataset::Dataset;
use crate::sample::TrainingSample;

/// Which policy-optimization scheme generates the samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's combinatorial MCTS (one dense label per search tree).
    Combinatorial,
    /// The conventional AlphaGo-like MCTS (one label per executed move).
    AlphaGo,
}

/// Trainer configuration. Defaults are the laptop-scale equivalent of the
/// paper's Section 3.6 schedule (see
/// [`schedule`](crate::schedule) for the paper's original constants).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Layout sizes per stage (the paper mixes 12 sizes; scaled here).
    pub sizes: Vec<(usize, usize, usize)>,
    /// Random layouts generated per size per stage (paper: 1000).
    pub layouts_per_size: usize,
    /// Total training stages (paper: 32).
    pub stages: usize,
    /// Stages of curriculum learning with fixed pin counts and no critic
    /// (paper: 4).
    pub curriculum_stages: usize,
    /// Pin-count range after the curriculum (paper: 3–6).
    pub pin_range: (usize, usize),
    /// Epochs per stage (paper: 4).
    pub epochs_per_stage: usize,
    /// Batch size (paper: 256).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Whether to apply the 16-fold augmentation.
    pub augment: bool,
    /// MCTS budget.
    pub mcts: MctsConfig,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for sample generation (`0` = auto: the
    /// `OARSMT_THREADS` environment variable, else all cores). Generated
    /// samples are bit-identical for every thread count — each layout's
    /// seed is derived from its index, and one MCTS search runs per worker
    /// at a time (see [`oarsmt::parallel`]).
    pub threads: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            sizes: vec![(8, 8, 2)],
            layouts_per_size: 4,
            stages: 3,
            curriculum_stages: 1,
            pin_range: (3, 5),
            epochs_per_stage: 2,
            batch_size: 16,
            learning_rate: 1e-3,
            augment: true,
            mcts: MctsConfig::tiny(),
            seed: 0,
            threads: 0,
        }
    }
}

/// Statistics of one training stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage index (0-based).
    pub stage: usize,
    /// Samples fitted this stage (after augmentation).
    pub samples: usize,
    /// Mean BCE loss over the stage's final epoch.
    pub avg_loss: f32,
    /// Mean `final/initial` routing-cost ratio achieved by the searches
    /// (how good the generated combinations were).
    pub mcts_cost_ratio: f64,
    /// Wall-clock time spent generating samples.
    pub sample_gen_time: Duration,
    /// Wall-clock time spent fitting.
    pub train_time: Duration,
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {}: {} samples, loss {:.4}, mcts ratio {:.4}, gen {:?}, fit {:?}",
            self.stage,
            self.samples,
            self.avg_loss,
            self.mcts_cost_ratio,
            self.sample_gen_time,
            self.train_time
        )
    }
}

/// The stage trainer.
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    scheme: Scheme,
    optimizer: Adam,
    rng: StdRng,
    /// NN scratch arena reused across every fitted sample (see
    /// `oarsmt_nn::NnWorkspace`); sample *generation* workers each carry
    /// their own inside their `RouteContext`.
    ws: NnWorkspace,
    /// Telemetry counters from sample generation, folded from the per-job
    /// deltas in index order (thread-count invariant).
    gen_counters: CounterSet,
}

impl Trainer {
    /// Creates a trainer for the paper's combinatorial scheme.
    pub fn new(config: TrainerConfig) -> Self {
        let optimizer = Adam::new(config.learning_rate);
        let rng = StdRng::seed_from_u64(config.seed);
        Trainer {
            config,
            scheme: Scheme::Combinatorial,
            optimizer,
            rng,
            ws: NnWorkspace::new(),
            gen_counters: CounterSet::new(),
        }
    }

    /// Creates a trainer using the AlphaGo-like baseline scheme.
    pub fn new_alphago(config: TrainerConfig) -> Self {
        Trainer {
            scheme: Scheme::AlphaGo,
            ..Trainer::new(config)
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Telemetry counters accumulated so far: MCTS/routing work from sample
    /// generation (per-job deltas folded in index order, so totals are
    /// bit-identical for any thread count) plus the fit loop's NN workspace
    /// counters (MACs, pool traffic, GEMM dispatch).
    #[must_use]
    pub fn counters(&self) -> CounterSet {
        let mut total = self.gen_counters;
        total.merge_from(&self.ws.counters);
        total
    }

    /// The span recorder of the fit loop: its U-Net layer spans, and each
    /// stage's `TrainStage` / `TrainGen` / `TrainFit` split. Arm it to
    /// flight-record training.
    pub fn spans_mut(&mut self) -> &mut SpanRecorder {
        &mut self.ws.spans
    }

    /// Runs all configured stages, returning one report per stage.
    ///
    /// # Errors
    ///
    /// Propagates routing failures from sample generation (rare: a random
    /// layout whose pins are walled off is skipped, not fatal; only
    /// systematic failures surface).
    pub fn run(
        &mut self,
        selector: &mut NeuralSelector,
    ) -> Result<Vec<StageReport>, oarsmt_router::RouteError> {
        let mut reports = Vec::with_capacity(self.config.stages);
        for stage in 0..self.config.stages {
            reports.push(self.run_stage(selector, stage)?);
        }
        Ok(reports)
    }

    /// Runs a single stage: generate samples with the current selector,
    /// then fit.
    ///
    /// # Errors
    ///
    /// See [`Trainer::run`].
    pub fn run_stage(
        &mut self,
        selector: &mut NeuralSelector,
        stage: usize,
    ) -> Result<StageReport, oarsmt_router::RouteError> {
        // The gen/fit split is measured here and injected into the fit
        // loop's recorder, so the stage spans carry real durations in
        // every build and nest around the fit loop's layer spans.
        let t0 = self.ws.spans.now();
        let stage_span = self.ws.spans.begin(Span::TrainStage, t0);
        let gen_span = self.ws.spans.begin(Span::TrainGen, t0);
        // lint: timing-ok(reported wall-clock metadata; never feeds results)
        let gen_start = Instant::now();
        let (samples, mcts_cost_ratio) = self.generate_samples(selector, stage)?;
        let sample_gen_time = gen_start.elapsed();
        let t1 = t0 + sample_gen_time.as_nanos() as u64;
        self.ws.spans.end(gen_span, t1);

        let fit_span = self.ws.spans.begin(Span::TrainFit, t1);
        // lint: timing-ok(reported wall-clock metadata; never feeds results)
        let fit_start = Instant::now();
        let expanded: Vec<TrainingSample> = if self.config.augment {
            samples.iter().flat_map(augment_16).collect()
        } else {
            samples
        };
        let sample_count = expanded.len();
        let mut dataset = Dataset::new(expanded, self.config.seed ^ stage as u64);
        let mut last_epoch_loss = 0.0f32;
        for _epoch in 0..self.config.epochs_per_stage {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for batch in dataset.epoch_batches(self.config.batch_size) {
                epoch_loss += f64::from(self.fit_batch(selector, &batch));
                batches += 1;
            }
            last_epoch_loss = (epoch_loss / batches.max(1) as f64) as f32;
        }
        let train_time = fit_start.elapsed();
        let t2 = t1 + train_time.as_nanos() as u64;
        self.ws.spans.end(fit_span, t2);
        self.ws.spans.end(stage_span, t2);
        Ok(StageReport {
            stage,
            samples: sample_count,
            avg_loss: last_epoch_loss,
            mcts_cost_ratio,
            sample_gen_time,
            train_time,
        })
    }

    /// The curriculum of Section 3.6: fixed pin counts and no critic during
    /// the first stages, then random pin counts with the critic.
    fn stage_settings(&self, stage: usize) -> ((usize, usize), bool) {
        if stage < self.config.curriculum_stages {
            let pins = (3 + stage).min(self.config.pin_range.1).max(3);
            ((pins, pins), false)
        } else {
            (self.config.pin_range, true)
        }
    }

    fn generate_samples(
        &mut self,
        selector: &mut NeuralSelector,
        stage: usize,
    ) -> Result<(Vec<TrainingSample>, f64), oarsmt_router::RouteError> {
        let (pins, use_critic) = self.stage_settings(stage);
        let mcts_config = MctsConfig {
            use_critic,
            ..self.config.mcts.clone()
        };
        let scheme = self.scheme;
        let threads = parallel::thread_count(Some(self.config.threads));
        // Workers share the stage's frozen selector read-only: a
        // `&NeuralSelector` is itself a `Selector` (the cache-free
        // inference path, bit-identical to the owned path), so no worker
        // clones the weight set. The caller's selector is only updated by
        // the subsequent fit. Each worker also carries one RouteContext,
        // reused across all of its layouts (the per-layout results are
        // bit-identical either way).
        let proto: &NeuralSelector = selector;
        let mut samples = Vec::new();
        let mut ratio_sum = 0.0f64;
        let mut ratio_count = 0usize;
        for &(h, v, m) in &self.config.sizes.clone() {
            let cfg = GeneratorConfig::paper_costs(h, v, m, pins);
            // One draw per size, exactly like the sequential schedule, so
            // the master RNG advances identically for any thread count.
            let size_seed: u64 = self.rng.gen();
            type LayoutSamples =
                Result<(Option<(Vec<TrainingSample>, f64)>, CounterSet), oarsmt_router::RouteError>;
            let per_layout = parallel::run_seeded_with(
                self.config.layouts_per_size,
                size_seed,
                threads,
                || (proto, oarsmt_router::RouteContext::new()),
                |(sel, ctx), _idx, layout_seed| -> LayoutSamples {
                    let graph = CaseGenerator::new(cfg.clone(), layout_seed).generate();
                    // Contexts are reused across a worker's layouts, so
                    // each job reports its counter *delta*; the index-order
                    // fold below makes the totals partition-independent.
                    let before = ctx.counters_total();
                    let payload = match scheme {
                        Scheme::Combinatorial => {
                            let mcts = CombinatorialMcts::new(mcts_config.clone());
                            match mcts.search_in(ctx, &graph, sel) {
                                Ok(out) => {
                                    let ratio = out.final_cost / out.initial_cost;
                                    let sample = TrainingSample::new(graph, vec![], out.label);
                                    Some((vec![sample], ratio))
                                }
                                Err(oarsmt_router::RouteError::Disconnected { .. }) => None,
                                Err(e) => return Err(e),
                            }
                        }
                        Scheme::AlphaGo => {
                            let mcts = AlphaGoMcts::new(mcts_config.clone());
                            match mcts.search_in(ctx, &graph, sel) {
                                Ok(out) => {
                                    let ratio = out.final_cost / out.initial_cost;
                                    let per_move = out
                                        .samples
                                        .into_iter()
                                        .map(|s| {
                                            TrainingSample::new(graph.clone(), s.state, s.label)
                                        })
                                        .collect();
                                    Some((per_move, ratio))
                                }
                                Err(oarsmt_router::RouteError::Disconnected { .. }) => None,
                                Err(e) => return Err(e),
                            }
                        }
                    };
                    Ok((payload, ctx.counters_total().delta_since(&before)))
                },
            );
            // Fold in index order: sample order, float accumulation, and
            // counter totals are independent of the worker partition.
            for item in per_layout {
                let (payload, delta) = item?;
                self.gen_counters.merge_from(&delta);
                if let Some((layout_samples, ratio)) = payload {
                    ratio_sum += ratio;
                    ratio_count += 1;
                    samples.extend(layout_samples);
                }
            }
        }
        let ratio = if ratio_count == 0 {
            1.0
        } else {
            ratio_sum / ratio_count as f64
        };
        Ok((samples, ratio))
    }

    /// Fits one batch with accumulated gradients; returns the mean loss.
    ///
    /// When every sample shares the same layout dimensions (and the batch
    /// holds more than one sample), the batch is stacked channel-major and
    /// driven through the network's batched forward/backward — one GEMM
    /// with `N = B·spatial` per conv instead of `B` — which is bit-identical
    /// to [`Trainer::fit_batch_sequential`]: same loss, same post-step
    /// weights (see `crates/rl/tests/batch_equivalence.rs`). Mixed-size
    /// batches fall back to the sequential path, so training trajectories
    /// never depend on how the mixed-size schedule happens to batch.
    pub fn fit_batch(&mut self, selector: &mut NeuralSelector, batch: &[&TrainingSample]) -> f32 {
        let homogeneous = batch.len() > 1 && batch.windows(2).all(|w| w[0].dims() == w[1].dims());
        if !homogeneous {
            return self.fit_batch_sequential(selector, batch);
        }
        let net = selector.net_mut();
        net.zero_grad();
        let scale = 1.0 / batch.len() as f32;
        let loss = accumulate_gradients(net, &mut self.ws, batch, scale);
        self.optimizer.step(net);
        loss * scale
    }

    /// The reference batch fit: one B=1 pass per sample, gradients
    /// accumulated in sample order. [`Trainer::fit_batch`] must match this
    /// bit-for-bit on homogeneous batches; it also serves as the fallback
    /// for mixed-size batches and as the baseline arm of
    /// the `oarsmt_bench batch` lane.
    pub fn fit_batch_sequential(
        &mut self,
        selector: &mut NeuralSelector,
        batch: &[&TrainingSample],
    ) -> f32 {
        let net = selector.net_mut();
        net.zero_grad();
        let scale = 1.0 / batch.len() as f32;
        let mut loss_sum = 0.0f32;
        for sample in batch {
            loss_sum += accumulate_gradients(net, &mut self.ws, &[sample], scale);
        }
        self.optimizer.step(net);
        loss_sum * scale
    }
}

/// One training pass over a same-shape batch: the samples stacked into the
/// channel-major `[7, B, M, H, V]` layout, one forward, per-sample BCE
/// (each normalized by its own mask), and one backward of the
/// `scale`-weighted gradient, accumulating into the network's parameter
/// gradients. Returns the ascending-`b` sum of the per-sample mean losses.
fn accumulate_gradients(
    net: &mut UNet3d,
    ws: &mut NnWorkspace,
    batch: &[&TrainingSample],
    scale: f32,
) -> f32 {
    let encoded: Vec<(Tensor, Tensor, Tensor)> = batch.iter().map(|s| s.to_tensors()).collect();
    let xs: Vec<&Tensor> = encoded.iter().map(|(x, _, _)| x).collect();
    let x = Tensor::stack_batch(&xs);
    let (logits, cache) = net.forward(&x, ws);
    let targets: Vec<&Tensor> = encoded.iter().map(|(_, t, _)| t).collect();
    let masks: Vec<&Tensor> = encoded.iter().map(|(_, _, m)| m).collect();
    let out = bce_with_logits_batch(&logits, &targets, &masks);
    // The gradient rides in the logits' pooled buffer and `x` is dropped,
    // not pooled: only pool-drawn tensors go back to the pool, so it stays
    // at its high-water mark instead of growing by two tensors a step.
    let mut grad = logits;
    grad.data_mut().copy_from_slice(out.grad.data());
    grad.scale(scale);
    let cache = cache.expect("the trainer's workspace records backward caches");
    let grad_in = net.backward(cache, grad, ws);
    ws.free(grad_in);
    out.loss
}

/// How a trained selector is applied at test time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// One inference selects all `n − 2` points (the paper's router).
    OneShot,
    /// One inference per point, each selection fed back as a pin (the
    /// AlphaGo-like / PPO baselines).
    Sequential,
}

/// Evaluates a selector's average **ST-to-MST ratio** over layouts — the
/// metric of Figs. 11–12. Lower is better; 1.0 means the Steiner points
/// bought nothing. Layouts whose pins cannot be connected are skipped.
pub fn st_to_mst_over_cases<S: Selector>(
    selector: &mut S,
    mode: InferenceMode,
    cases: &[HananGraph],
) -> f64 {
    // The figs isolate *selector* quality: use the bare OARMST constructor
    // (no path-assessed polish) for both the Steiner tree and the MST so
    // the measured difference comes from the selected points alone.
    let oarmst = OarmstRouter::new().with_polish_rounds(0);
    let mut ctx = oarsmt_router::RouteContext::new();
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for graph in cases {
        let Ok(mst) = oarmst.route_in(&mut ctx, graph, &[]) else {
            continue;
        };
        let points = match mode {
            InferenceMode::OneShot => {
                selector.fsp_into_ws(graph, &[], &mut ctx.fsp, &mut ctx.nn);
                let mut points = Vec::new();
                select_top_k_into(
                    graph,
                    &ctx.fsp,
                    steiner_budget(graph.pins().len()),
                    &[],
                    &mut ctx.scored,
                    &mut ctx.excluded,
                    &mut points,
                );
                points
            }
            InferenceMode::Sequential => sequential_select(&mut ctx, graph, selector),
        };
        let Ok(st) = oarmst.route_in(&mut ctx, graph, &points) else {
            continue;
        };
        sum += st.cost() / mst.cost();
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_nn::unet::UNetConfig;

    fn tiny_selector(seed: u64) -> NeuralSelector {
        NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed,
        })
    }

    /// The selector's inference on `g` (no extra pins).
    fn fsp(selector: &mut NeuralSelector, g: &HananGraph) -> Vec<f32> {
        let mut out = Vec::new();
        selector.fsp_into_ws(g, &[], &mut out, &mut NnWorkspace::new());
        out
    }

    fn tiny_config() -> TrainerConfig {
        TrainerConfig {
            sizes: vec![(5, 5, 1)],
            layouts_per_size: 2,
            stages: 2,
            curriculum_stages: 1,
            pin_range: (3, 4),
            epochs_per_stage: 1,
            batch_size: 8,
            augment: false,
            mcts: MctsConfig {
                base_iterations: 8,
                base_size: 25,
                ..MctsConfig::default()
            },
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn trainer_runs_stages_and_reports() {
        let mut trainer = Trainer::new(tiny_config());
        let mut selector = tiny_selector(0);
        let reports = trainer.run(&mut selector).unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.samples > 0);
            assert!(r.avg_loss.is_finite());
            assert!(r.mcts_cost_ratio.is_finite() && r.mcts_cost_ratio > 0.0);
        }
    }

    #[test]
    fn training_reduces_loss_on_repeated_data() {
        // Two stages on the same seed: the second stage's loss should not
        // blow up (and usually decreases).
        let mut cfg = tiny_config();
        cfg.stages = 1;
        cfg.epochs_per_stage = 6;
        let mut trainer = Trainer::new(cfg);
        let mut selector = tiny_selector(1);
        let r = trainer.run_stage(&mut selector, 1).unwrap();
        assert!(r.avg_loss.is_finite());
        assert!(r.avg_loss < 1.0, "BCE on sparse labels settles below 1");
    }

    #[test]
    fn alphago_trainer_produces_per_move_samples() {
        let mut trainer = Trainer::new_alphago(tiny_config());
        let mut selector = tiny_selector(2);
        let r = trainer.run_stage(&mut selector, 1).unwrap();
        // Per-move sampling yields at least as many samples as layouts.
        assert!(r.samples >= 1);
    }

    #[test]
    fn sample_generation_is_thread_count_invariant() {
        // One full stage (generation + fit) with 1 worker and with 4
        // workers: identical samples in identical order imply bit-identical
        // weights afterwards.
        let g = oarsmt_geom::HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let mut cfg = tiny_config();
            cfg.layouts_per_size = 6;
            cfg.threads = threads;
            let mut trainer = Trainer::new(cfg);
            let mut selector = tiny_selector(11);
            let report = trainer.run_stage(&mut selector, 1).unwrap();
            outputs.push((
                report.samples,
                report.mcts_cost_ratio,
                fsp(&mut selector, &g),
            ));
        }
        assert_eq!(outputs[0].0, outputs[1].0, "sample counts differ");
        assert_eq!(outputs[0].1.to_bits(), outputs[1].1.to_bits());
        assert_eq!(outputs[0].2, outputs[1].2, "weights diverged");
    }

    #[test]
    fn curriculum_fixes_pins_and_disables_critic() {
        let trainer = Trainer::new(TrainerConfig {
            curriculum_stages: 4,
            pin_range: (3, 6),
            ..tiny_config()
        });
        assert_eq!(trainer.stage_settings(0), ((3, 3), false));
        assert_eq!(trainer.stage_settings(1), ((4, 4), false));
        assert_eq!(trainer.stage_settings(3), ((6, 6), false));
        assert_eq!(trainer.stage_settings(4), ((3, 6), true));
    }

    #[test]
    fn st_to_mst_evaluation_is_at_most_one_for_good_selectors() {
        use oarsmt::selector::MedianHeuristicSelector;
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let cases = CaseGenerator::new(GeneratorConfig::tiny(6, 6, 1, (4, 5)), 9).generate_many(6);
        let mut sel = MedianHeuristicSelector::new();
        let one_shot = st_to_mst_over_cases(&mut sel, InferenceMode::OneShot, &cases);
        let sequential = st_to_mst_over_cases(&mut sel, InferenceMode::Sequential, &cases);
        assert!(one_shot <= 1.1, "one_shot {one_shot}");
        assert!(sequential <= 1.5);
    }
}
