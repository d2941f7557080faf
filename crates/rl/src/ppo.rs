//! PPO baseline trainer (Section 4.2).
//!
//! The paper compares its combinatorial MCTS against a PPO-trained router
//! whose agent is a *sequential* Steiner-point selector: at every step the
//! policy network scores all vertices, a masked softmax over the valid ones
//! defines the action distribution, one vertex is sampled, and the
//! selection is fed back as a pin. The episode return is the relative
//! routing-cost reduction of the final tree; a separate value network
//! (actor-critic) provides the baseline, and updates use the clipped
//! surrogate objective of Schulman et al.

use std::fmt;

use oarsmt::features::{encode_features_into, tensor_offset, to_graph_order_into, valid_mask};
use oarsmt::selector::NeuralSelector;
use oarsmt::topk::steiner_budget;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::layer::Layer;
use oarsmt_nn::optim::Adam;
use oarsmt_nn::tensor::Tensor;
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::NnWorkspace;
use oarsmt_router::OarmstRouter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PPO hyperparameters.
#[derive(Debug, Clone)]
pub struct PpoConfig {
    /// Training iterations (collect + update cycles).
    pub iterations: usize,
    /// Episodes collected per iteration.
    pub episodes_per_iter: usize,
    /// PPO epochs over the collected steps.
    pub epochs: usize,
    /// Clipping parameter ε.
    pub clip: f32,
    /// Policy learning rate.
    pub lr_policy: f32,
    /// Value learning rate.
    pub lr_value: f32,
    /// Layout size for episode generation.
    pub size: (usize, usize, usize),
    /// Pin-count range.
    pub pin_range: (usize, usize),
    /// Master seed.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            iterations: 2,
            episodes_per_iter: 4,
            epochs: 2,
            clip: 0.2,
            lr_policy: 1e-3,
            lr_value: 1e-3,
            size: (6, 6, 1),
            pin_range: (3, 5),
            seed: 0,
        }
    }
}

/// Statistics of one PPO iteration.
#[derive(Debug, Clone, Copy)]
pub struct PpoReport {
    /// Iteration index.
    pub iteration: usize,
    /// Mean episode return (relative cost reduction; higher is better).
    pub avg_return: f64,
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean value-function MSE.
    pub value_loss: f32,
}

impl fmt::Display for PpoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ppo iter {}: return {:.4}, policy loss {:.4}, value loss {:.4}",
            self.iteration, self.avg_return, self.policy_loss, self.value_loss
        )
    }
}

/// One stored transition of a collected episode.
#[derive(Debug, Clone)]
struct Step {
    graph_idx: usize,
    state: Vec<GridPoint>,
    action: usize,
    old_logp: f32,
    ret: f32,
}

/// The PPO trainer: a policy network (the usual selector architecture) and
/// a value network.
#[derive(Debug)]
pub struct PpoTrainer {
    config: PpoConfig,
    policy: NeuralSelector,
    value: UNet3d,
    opt_policy: Adam,
    opt_value: Adam,
    rng: StdRng,
    /// Scratch arena of both networks' passes.
    ws: NnWorkspace,
}

impl PpoTrainer {
    /// Creates a trainer with fresh networks.
    pub fn new(config: PpoConfig, net_config: UNetConfig) -> Self {
        let policy = NeuralSelector::with_config(net_config);
        let value = UNet3d::new(UNetConfig {
            seed: net_config.seed ^ 0x5eed,
            ..net_config
        });
        PpoTrainer {
            opt_policy: Adam::new(config.lr_policy),
            opt_value: Adam::new(config.lr_value),
            rng: StdRng::seed_from_u64(config.seed),
            ws: NnWorkspace::new(),
            config,
            policy,
            value,
        }
    }

    /// The trained policy, usable as a sequential [`Selector`]
    /// (via [`NeuralSelector`]'s implementation).
    ///
    /// [`Selector`]: oarsmt::selector::Selector
    pub fn policy_mut(&mut self) -> &mut NeuralSelector {
        &mut self.policy
    }

    /// Runs all configured iterations.
    pub fn run(&mut self) -> Vec<PpoReport> {
        (0..self.config.iterations)
            .map(|i| self.run_iteration(i))
            .collect()
    }

    /// One collect + update cycle.
    pub fn run_iteration(&mut self, iteration: usize) -> PpoReport {
        let (graphs, steps, avg_return) = self.collect();
        let (policy_loss, value_loss) = self.update(&graphs, &steps);
        PpoReport {
            iteration,
            avg_return,
            policy_loss,
            value_loss,
        }
    }

    /// Collects episodes with the current policy.
    fn collect(&mut self) -> (Vec<HananGraph>, Vec<Step>, f64) {
        let (h, v, m) = self.config.size;
        let mut gen = CaseGenerator::new(
            GeneratorConfig::paper_costs(h, v, m, self.config.pin_range),
            self.rng.gen(),
        );
        let oarmst = OarmstRouter::new();
        // One reusable routing workspace for the whole collection phase.
        let mut ctx = oarsmt_router::RouteContext::new();
        let mut graphs = Vec::new();
        let mut steps = Vec::new();
        let mut return_sum = 0.0f64;
        let mut episodes = 0usize;
        while episodes < self.config.episodes_per_iter {
            let graph = gen.generate();
            let Ok(base) = oarmst.route_in(&mut ctx, &graph, &[]) else {
                continue; // unroutable layout; draw another
            };
            let budget = steiner_budget(graph.pins().len());
            let mut state: Vec<GridPoint> = Vec::new();
            let mut episode: Vec<(Vec<GridPoint>, usize, f32)> = Vec::new();
            for _ in 0..budget {
                let (probs, valid) = self.policy_distribution(&graph, &state);
                if valid.is_empty() {
                    break;
                }
                let action = sample_index(&probs, &valid, &mut self.rng);
                let logp = probs[action].max(1e-12).ln();
                episode.push((state.clone(), action, logp));
                state.push(graph.point(action));
            }
            let Ok(tree) = oarmst.route_in(&mut ctx, &graph, &state) else {
                continue;
            };
            let ret = ((base.cost() - tree.cost()) / base.cost()) as f32;
            return_sum += f64::from(ret);
            episodes += 1;
            let graph_idx = graphs.len();
            graphs.push(graph);
            for (s, a, logp) in episode {
                steps.push(Step {
                    graph_idx,
                    state: s,
                    action: a,
                    old_logp: logp,
                    ret,
                });
            }
        }
        (graphs, steps, return_sum / episodes.max(1) as f64)
    }

    /// Clipped-surrogate policy update plus value regression.
    fn update(&mut self, graphs: &[HananGraph], steps: &[Step]) -> (f32, f32) {
        if steps.is_empty() {
            return (0.0, 0.0);
        }
        let clip = self.config.clip;
        let mut policy_loss_sum = 0.0f64;
        let mut value_loss_sum = 0.0f64;
        let mut updates = 0usize;
        for _ in 0..self.config.epochs {
            for step in steps {
                let graph = &graphs[step.graph_idx];
                let x = encode_features_into(graph, &step.state, &mut self.ws);

                // ---- value network: V(s) = masked mean of its output.
                let (value_logits, value_cache) = self.value.forward(&x, &mut self.ws);
                let mask = valid_mask(graph, &step.state);
                let mask_sum: f32 = mask.data().iter().sum();
                let v: f32 = value_logits
                    .data()
                    .iter()
                    .zip(mask.data())
                    .map(|(&o, &w)| o * w)
                    .sum::<f32>()
                    / mask_sum.max(1.0);
                let v_err = v - step.ret;
                value_loss_sum += f64::from(v_err * v_err);
                // The logits' pooled buffer becomes the gradient (every
                // element is overwritten).
                let mut v_grad = value_logits;
                for (g, &w) in v_grad.data_mut().iter_mut().zip(mask.data()) {
                    *g = 2.0 * v_err * w / mask_sum.max(1.0);
                }
                self.value.zero_grad();
                let value_cache = value_cache.expect("training workspace");
                let gi = self.value.backward(value_cache, v_grad, &mut self.ws);
                self.ws.free(gi);
                self.opt_value.step(&mut self.value);

                // ---- policy network: clipped surrogate on the advantage.
                let advantage = step.ret - v;
                let net = self.policy.net_mut();
                let (logits, cache) = net.forward(&x, &mut self.ws);
                let (probs, valid) = masked_softmax(&logits, graph, &step.state);
                let new_logp = probs[step.action].max(1e-12).ln();
                let ratio = (new_logp - step.old_logp).exp();
                let surrogate =
                    (ratio * advantage).min(ratio.clamp(1.0 - clip, 1.0 + clip) * advantage);
                policy_loss_sum += f64::from(-surrogate);
                // Gradient is zero when the clip is active against us.
                let active = (advantage > 0.0 && ratio < 1.0 + clip)
                    || (advantage < 0.0 && ratio > 1.0 - clip);
                let mut p_grad = logits;
                p_grad.fill(0.0);
                if active {
                    let coeff = -advantage * ratio;
                    for &i in &valid {
                        let onehot = if i == step.action { 1.0 } else { 0.0 };
                        let off = tensor_offset(graph, graph.point(i));
                        p_grad.data_mut()[off] = coeff * (onehot - probs[i]);
                    }
                }
                net.zero_grad();
                let cache = cache.expect("training workspace");
                let gi = net.backward(cache, p_grad, &mut self.ws);
                self.ws.free(gi);
                self.opt_policy.step(net);
                self.ws.free(x);
                updates += 1;
            }
        }
        (
            (policy_loss_sum / updates.max(1) as f64) as f32,
            (value_loss_sum / updates.max(1) as f64) as f32,
        )
    }

    /// The policy's masked action distribution for a state.
    fn policy_distribution(
        &mut self,
        graph: &HananGraph,
        state: &[GridPoint],
    ) -> (Vec<f32>, Vec<usize>) {
        let x = encode_features_into(graph, state, &mut self.ws);
        let (logits, _) = self.policy.net_mut().forward(&x, &mut self.ws);
        let dist = masked_softmax(&logits, graph, state);
        self.ws.free(logits);
        self.ws.free(x);
        dist
    }
}

/// Softmax over the valid (empty, unselected) vertices; invalid vertices
/// get probability zero. `logits` arrive in tensor layout (`[1, M, H, V]`);
/// the returned probabilities and indices are in **graph-index order**.
fn masked_softmax(
    logits: &Tensor,
    graph: &HananGraph,
    state: &[GridPoint],
) -> (Vec<f32>, Vec<usize>) {
    let mut lg = Vec::with_capacity(graph.len());
    to_graph_order_into(logits.data(), graph, &mut lg);
    let selected: Vec<usize> = state.iter().map(|&p| graph.index(p)).collect();
    let valid: Vec<usize> = (0..graph.len())
        .filter(|&i| graph.kind_at(i) == oarsmt_geom::VertexKind::Empty && !selected.contains(&i))
        .collect();
    let mut probs = vec![0.0f32; graph.len()];
    if valid.is_empty() {
        return (probs, valid);
    }
    let max = valid
        .iter()
        .map(|&i| lg[i])
        .fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for &i in &valid {
        let e = (lg[i] - max).exp();
        probs[i] = e;
        total += e;
    }
    for &i in &valid {
        probs[i] /= total;
    }
    (probs, valid)
}

/// Samples a vertex index from the masked distribution.
fn sample_index(probs: &[f32], valid: &[usize], rng: &mut StdRng) -> usize {
    let r: f32 = rng.gen();
    let mut acc = 0.0f32;
    for &i in valid {
        acc += probs[i];
        if r <= acc {
            return i;
        }
    }
    *valid.last().expect("valid set is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> UNetConfig {
        UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 0,
        }
    }

    #[test]
    fn ppo_runs_and_reports_finite_losses() {
        let mut t = PpoTrainer::new(PpoConfig::default(), tiny_net());
        let reports = t.run();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.policy_loss.is_finite());
            assert!(r.value_loss.is_finite());
            assert!(r.avg_return.is_finite());
        }
    }

    #[test]
    fn masked_softmax_is_a_distribution_over_valid_vertices() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 2, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        let logits = Tensor::from_vec(&[1, 1, 3, 3], (0..9).map(|i| i as f32).collect()).unwrap();
        let (probs, valid) = masked_softmax(&logits, &g, &[]);
        assert_eq!(valid.len(), 6);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(probs[g.index(GridPoint::new(0, 0, 0))], 0.0);
        assert_eq!(probs[g.index(GridPoint::new(1, 0, 0))], 0.0);
    }

    #[test]
    fn sampling_respects_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![0.0, 0.5, 0.0, 0.5];
        let valid = vec![1, 3];
        for _ in 0..20 {
            let i = sample_index(&probs, &valid, &mut rng);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn value_losses_shrink_on_fixed_data() {
        // Running more iterations on the same distribution should not make
        // the value loss explode.
        let mut t = PpoTrainer::new(
            PpoConfig {
                iterations: 3,
                episodes_per_iter: 3,
                epochs: 2,
                ..PpoConfig::default()
            },
            tiny_net(),
        );
        let reports = t.run();
        let first = reports.first().unwrap().value_loss;
        let last = reports.last().unwrap().value_loss;
        assert!(last <= first * 10.0 + 1.0, "value loss stays bounded");
    }
}
