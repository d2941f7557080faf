//! Diagnostic (not a paper experiment): inspects combinatorial-MCTS label
//! quality and whether the selector can learn from it.

#![forbid(unsafe_code)]

use oarsmt::selector::{NeuralSelector, Selector, UniformSelector};
use oarsmt_bench::harness::experiment_net_config;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_nn::layer::Layer;
use oarsmt_nn::loss::bce_with_logits;
use oarsmt_nn::optim::Adam;
use oarsmt_nn::NnWorkspace;
use oarsmt_rl::sample::TrainingSample;
use oarsmt_router::RouteContext;

fn main() {
    // 1. Known-optimum sanity check: a cross layout whose center is the
    //    unique good Steiner point. Does the label rank the center first?
    let mut g = HananGraph::uniform(7, 7, 1, 1.0, 1.0, 3.0);
    for &(h, v) in &[(0, 3), (6, 3), (3, 0), (3, 6)] {
        g.add_pin(GridPoint::new(h, v, 0)).unwrap();
    }
    let mcts = CombinatorialMcts::new(MctsConfig {
        base_iterations: 10 * g.len(),
        base_size: g.len(),
        use_critic: false,
        ..MctsConfig::default()
    });
    let out = mcts
        .search_in(
            &mut RouteContext::new(),
            &g,
            &mut UniformSelector::new(0.08),
        )
        .unwrap();
    let mut ranked: Vec<(f32, GridPoint)> = (0..g.len())
        .filter(|&i| g.kind_at(i) == VertexKind::Empty)
        .map(|i| (out.label[i], g.point(i)))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!(
        "cross layout: executed {:?}, cost {} -> {}",
        out.executed, out.initial_cost, out.final_cost
    );
    println!("top-5 label vertices (want (3,3,0) first):");
    for (l, p) in ranked.iter().take(5) {
        println!("  {p}  label {l:.3}");
    }

    // 2. Learnability: generate a fixed batch of labelled samples and check
    //    that BCE on them actually decreases and that predictions correlate
    //    with labels.
    let cfg = GeneratorConfig::tiny(6, 6, 1, (4, 5));
    let mut gen = CaseGenerator::new(cfg, 5);
    let mut samples = Vec::new();
    let mcts = CombinatorialMcts::new(MctsConfig {
        base_iterations: 360,
        base_size: 36,
        use_critic: false,
        ..MctsConfig::default()
    });
    let mut sel = UniformSelector::new(0.08);
    for graph in gen.generate_many(24) {
        if let Ok(out) = mcts.search_in(&mut RouteContext::new(), &graph, &mut sel) {
            samples.push(TrainingSample::new(graph, vec![], out.label));
        }
    }
    let mass: f32 = samples
        .iter()
        .map(|s| s.label.iter().sum::<f32>())
        .sum::<f32>()
        / samples.len() as f32;
    let peak: f32 = samples
        .iter()
        .map(|s| s.label.iter().cloned().fold(0.0f32, f32::max))
        .sum::<f32>()
        / samples.len() as f32;
    println!(
        "\n{} samples, avg label mass {mass:.3}, avg peak label {peak:.3}",
        samples.len()
    );

    let mut selector = NeuralSelector::with_config(experiment_net_config());
    let mut opt = Adam::new(2e-3);
    let mut ws = NnWorkspace::new();
    for epoch in 0..40 {
        let mut loss_sum = 0.0f32;
        for s in &samples {
            let (x, t, m) = s.to_tensors();
            let net = selector.net_mut();
            net.zero_grad();
            let (logits, cache) = net.forward(&x, &mut ws);
            let out = bce_with_logits(&logits, &t, Some(&m));
            loss_sum += out.loss;
            ws.free(logits);
            let gi = net.backward(cache.expect("training workspace"), out.grad, &mut ws);
            ws.free(gi);
            opt.step(net);
        }
        if epoch % 10 == 0 || epoch == 39 {
            println!(
                "epoch {epoch}: avg loss {:.4}",
                loss_sum / samples.len() as f32
            );
        }
    }
    // Correlation between prediction and label on the training samples.
    let mut num = 0.0f64;
    let mut den_p = 0.0f64;
    let mut den_l = 0.0f64;
    let mut fsp = Vec::new();
    for s in &samples {
        selector.fsp_into_ws(&s.graph, &[], &mut fsp, &mut ws);
        let n = fsp.len() as f64;
        let mp = fsp.iter().map(|&p| p as f64).sum::<f64>() / n;
        let ml = s.label.iter().map(|&l| l as f64).sum::<f64>() / n;
        for (&p, &l) in fsp.iter().zip(&s.label) {
            let dp = p as f64 - mp;
            let dl = l as f64 - ml;
            num += dp * dl;
            den_p += dp * dp;
            den_l += dl * dl;
        }
    }
    println!(
        "prediction/label correlation on training data: {:.3}",
        num / (den_p.sqrt() * den_l.sqrt()).max(1e-12)
    );
}
