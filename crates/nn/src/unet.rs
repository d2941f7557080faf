//! The 3D Residual U-Net — the paper's Steiner-point selector architecture
//! (Section 3.3, Fig. 4).
//!
//! The network is image-in-image-out: a `[in_channels, H, V, M]` feature
//! volume maps to a `[1, H, V, M]` logit volume for **any** spatial shape
//! (and a channel-major `[in_channels, B, H, V, M]` batch to
//! `[1, B, H, V, M]` — a rank-4 input is a batch of one). Encoder levels
//! apply a residual block then ceil-mode max pooling; the decoder upsamples
//! back to each skip connection's exact shape, concatenates, and applies
//! another residual block; a `1×1×1` convolution head produces per-vertex
//! logits. [`UNet3d::predict_in`] applies the sigmoid to obtain the final
//! selected probabilities of the paper.
//!
//! The encoder/decoder dataflow is written once, in [`Layer::forward`]:
//! training keeps the cache it returns for [`Layer::backward`], and
//! `predict_in` runs the same pass with caches off through `&self`, so
//! one network serves any number of threads without cloning weights.

use crate::activation::sigmoid;
use crate::conv3d::Conv3d;
use crate::init::Initializer;
use crate::layer::{Layer, Param};
use crate::pool::{MaxPool3d, PoolCache};
use crate::residual::{ResidualBlock, ResidualCache};
use crate::tensor::{batch_dims, volumes, Shape, Tensor};
use crate::upsample::Upsample3d;
use crate::workspace::NnWorkspace;
use oarsmt_telemetry::Counter;

/// Configuration of a [`UNet3d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UNetConfig {
    /// Input feature channels (the paper's encoding uses 7).
    pub in_channels: usize,
    /// Channels of the first encoder level; level `i` uses
    /// `base_channels * 2^i`.
    pub base_channels: usize,
    /// Number of encoder/decoder levels (the bottleneck adds one more
    /// resolution).
    pub levels: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            in_channels: 7,
            base_channels: 8,
            levels: 2,
            seed: 0,
        }
    }
}

/// The 3D Residual U-Net.
#[derive(Debug, Clone)]
pub struct UNet3d {
    config: UNetConfig,
    enc: Vec<ResidualBlock>,
    bottleneck: ResidualBlock,
    dec: Vec<ResidualBlock>,
    head: Conv3d,
    /// Channel count entering decoder level `i` from below (what gets
    /// upsampled).
    up_channels: Vec<usize>,
}

/// What [`UNet3d`]'s backward needs from its forward.
#[derive(Debug)]
pub struct UNetCache {
    /// Per encoder level, shallowest first: block and pooling caches.
    enc: Vec<(ResidualCache, PoolCache)>,
    bottleneck: ResidualCache,
    /// Per decoder level, deepest first: the upsample's input shape and
    /// the block cache.
    dec: Vec<(Shape, ResidualCache)>,
    head: Tensor,
}

impl UNet3d {
    /// Builds the network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`, `base_channels == 0` or
    /// `in_channels == 0`.
    pub fn new(config: UNetConfig) -> Self {
        assert!(config.levels > 0 && config.base_channels > 0 && config.in_channels > 0);
        let mut init = Initializer::new(config.seed);
        let c = |i: usize| config.base_channels << i;
        let mut enc = Vec::new();
        for i in 0..config.levels {
            let in_c = if i == 0 { config.in_channels } else { c(i - 1) };
            enc.push(ResidualBlock::new(in_c, c(i), 3, &mut init));
        }
        let bottleneck = ResidualBlock::new(c(config.levels - 1), c(config.levels), 3, &mut init);
        let mut dec = Vec::new();
        let mut up_channels = Vec::new();
        for i in 0..config.levels {
            // Decoder level i receives (from below) the output of decoder
            // level i+1 (c(i+1) channels) or the bottleneck (c(levels)).
            let from_below = if i + 1 == config.levels {
                c(config.levels)
            } else {
                c(i + 1)
            };
            dec.push(ResidualBlock::new(from_below + c(i), c(i), 3, &mut init));
            up_channels.push(from_below);
        }
        let head = Conv3d::new(config.base_channels, 1, 1, &mut init);
        UNet3d {
            config,
            enc,
            bottleneck,
            dec,
            head,
            up_channels,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Sets the output head's bias so a freshly initialized network emits
    /// probabilities around `sigmoid(bias)` instead of `0.5`. Steiner-point
    /// labels are sparse, and the combinatorial-MCTS actor's telescoping
    /// product (Eq. 1 of the paper) degenerates when every probability is
    /// large, so selectors initialize the head bias negative.
    pub fn init_output_bias(&mut self, bias: f32) {
        let mut params = self.head.params_mut();
        params
            .last_mut()
            .expect("head has weight and bias")
            .value
            .fill(bias);
    }

    /// Inference: per-vertex probabilities in `(0, 1)` — the "final
    /// selected probability" array of the paper — shaped `[1, H, V, M]`
    /// for a rank-4 input and `[1, B, H, V, M]` for a channel-major batch.
    ///
    /// Runs [`Layer::forward`] with backward caches off and every
    /// intermediate drawn from the workspace pool, then applies the
    /// sigmoid in place on the logits. Takes `&self`, so owned, shared and
    /// batched inference are this one call; sample `b` of a batch is
    /// bit-identical to predicting it alone.
    pub fn predict_in(&self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let saved = std::mem::replace(&mut ws.training, false);
        let (mut probs, cache) = self.forward(x, ws);
        ws.training = saved;
        debug_assert!(cache.is_none(), "inference records no caches");
        for v in probs.data_mut() {
            *v = sigmoid(*v);
        }
        probs
    }

    /// Routes every convolution through the naive reference loops
    /// (bit-identity oracle; see [`Conv3d::set_naive`]).
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_naive(&mut self, on: bool) {
        for b in &mut self.enc {
            b.set_naive(on);
        }
        self.bottleneck.set_naive(on);
        for b in &mut self.dec {
            b.set_naive(on);
        }
        self.head.set_naive(on);
    }
}

impl Layer for UNet3d {
    type Cache = UNetCache;

    /// Forward pass producing **logits**, `[1, H, V, M]` per sample.
    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<UNetCache>) {
        let [c, bsz, ..] = batch_dims(x.shape());
        assert_eq!(c, self.config.in_channels, "channel mismatch");
        // Occupancy telemetry (`gemm_batch_cols / batch_flushes`): B
        // columns per pass, a rank-4 sample being a batch of one.
        ws.counters.add(Counter::GemmBatchCols, bsz as u64);
        ws.counters.bump(Counter::BatchFlushes);
        let levels = self.config.levels;
        // lint: alloc-ok(training only: inference passes record no caches)
        let mut enc_caches = ws.training().then(|| Vec::with_capacity(levels));
        // lint: alloc-ok(training only: inference passes record no caches)
        let mut dec_caches = ws.training().then(|| Vec::with_capacity(levels));
        // Skip activations live on the workspace's reusable stack.
        let mut skips = std::mem::take(&mut ws.skips);
        debug_assert!(skips.is_empty());
        let outer_slot = ws.set_mac_slot(Counter::MacsOther);
        let mut cur: Option<Tensor> = None;
        for (i, block) in self.enc.iter().enumerate() {
            ws.set_mac_slot(Counter::enc_macs(i));
            let (y, block_cache) = block.forward(cur.as_ref().unwrap_or(x), ws);
            if let Some(t) = cur.take() {
                ws.free(t);
            }
            let (pooled, pool_cache) = MaxPool3d.forward(&y, ws);
            skips.push(y);
            if let (Some(caches), Some(b), Some(p)) = (&mut enc_caches, block_cache, pool_cache) {
                caches.push((b, p));
            }
            cur = Some(pooled);
        }
        // lint: panic-ok(structural: UNetConfig validates levels >= 1, so the encoder loop always ran and `cur` is Some)
        let t = cur.expect("levels > 0");
        ws.set_mac_slot(Counter::MacsBottleneck);
        let (mut cur, bottleneck) = self.bottleneck.forward(&t, ws);
        ws.free(t);
        for (i, block) in self.dec.iter().enumerate().rev() {
            ws.set_mac_slot(Counter::dec_macs(i));
            // lint: panic-ok(structural: the encoder pushed exactly `levels` skips in this same call and the decoder pops each level once)
            let skip = skips.pop().expect("one skip per level");
            let skip_shape = Shape::of(skip.shape());
            let (up, up_shape) = Upsample3d::to_shape(volumes(skip.shape()).1).forward(&cur, ws);
            ws.free(cur);
            // cat = [up ; skip] along channels — two copies, because both
            // ranks are channel-major.
            let cat_c = up.shape()[0] + skip.shape()[0];
            let mut cat = ws.alloc(skip_shape.with_channels(cat_c).dims());
            cat.data_mut()[..up.len()].copy_from_slice(up.data());
            cat.data_mut()[up.len()..].copy_from_slice(skip.data());
            ws.free(up);
            ws.free(skip);
            let (y, block_cache) = block.forward(&cat, ws);
            ws.free(cat);
            if let (Some(caches), Some(u), Some(b)) = (&mut dec_caches, up_shape, block_cache) {
                caches.push((u, b));
            }
            cur = y;
        }
        ws.skips = skips;
        ws.set_mac_slot(Counter::MacsHead);
        let (out, head) = self.head.forward(&cur, ws);
        ws.free(cur);
        ws.restore_mac_slot(outer_slot);
        let cache = match (enc_caches, bottleneck, dec_caches, head) {
            (Some(enc), Some(bottleneck), Some(dec), Some(head)) => Some(UNetCache {
                enc,
                bottleneck,
                dec,
                head,
            }),
            _ => None,
        };
        (out, cache)
    }

    fn backward(&mut self, cache: UNetCache, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let UNetCache {
            enc,
            bottleneck,
            dec,
            head,
        } = cache;
        // Skip gradients live on the workspace's reusable stack.
        let mut skips = std::mem::take(&mut ws.skips);
        debug_assert!(skips.is_empty());
        let outer_slot = ws.set_mac_slot(Counter::MacsHead);
        let mut grad = self.head.backward(head, grad_out, ws);
        // Decoder caches were recorded deepest first: reversed, level `i`
        // ascends from the shallowest.
        for (i, (up_shape, block_cache)) in dec.into_iter().rev().enumerate() {
            ws.set_mac_slot(Counter::dec_macs(i));
            grad = self.dec[i].backward(block_cache, grad, ws);
            // Split [g_up ; g_skip] along channels (pooled buffers).
            let c0 = self.up_channels[i];
            let shape = Shape::of(grad.shape());
            let c = grad.shape()[0];
            assert!(c0 < c, "split point must leave both halves");
            let split = c0 * (grad.len() / c);
            let mut g_up = ws.alloc(shape.with_channels(c0).dims());
            let mut g_skip = ws.alloc(shape.with_channels(c - c0).dims());
            g_up.data_mut().copy_from_slice(&grad.data()[..split]);
            g_skip.data_mut().copy_from_slice(&grad.data()[split..]);
            ws.free(grad);
            skips.push(g_skip);
            let mut up = Upsample3d::to_shape(volumes(g_up.shape()).1);
            grad = up.backward(up_shape, g_up, ws);
        }
        ws.set_mac_slot(Counter::MacsBottleneck);
        grad = self.bottleneck.backward(bottleneck, grad, ws);
        for (i, (block_cache, pool_cache)) in enc.into_iter().enumerate().rev() {
            ws.set_mac_slot(Counter::enc_macs(i));
            grad = MaxPool3d.backward(pool_cache, grad, ws);
            // lint: panic-ok(structural: the decoder pushed exactly one skip gradient per level in this same call)
            let g_skip = skips.pop().expect("one skip gradient per level");
            grad.add_assign(&g_skip);
            ws.free(g_skip);
            grad = self.enc[i].backward(block_cache, grad, ws);
        }
        ws.skips = skips;
        ws.restore_mac_slot(outer_slot);
        grad
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = Vec::new();
        for b in &mut self.enc {
            ps.extend(b.params_mut());
        }
        ps.extend(self.bottleneck.params_mut());
        for b in &mut self.dec {
            ps.extend(b.params_mut());
        }
        ps.extend(self.head.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    fn tiny_net(seed: u64) -> UNet3d {
        UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 2,
            levels: 2,
            seed,
        })
    }

    fn logits(net: &UNet3d, x: &Tensor) -> Tensor {
        net.forward(x, &mut NnWorkspace::new()).0
    }

    /// One training pass with `dL/dy = y`: returns the logits and the
    /// input gradient (parameter gradients accumulate in `net`).
    fn train_pass(net: &mut UNet3d, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Tensor) {
        let (y, cache) = net.forward(x, ws);
        let g = ws.alloc_copy(&y);
        let gi = net.backward(cache.expect("training workspace records caches"), g, ws);
        (y, gi)
    }

    #[test]
    fn output_is_single_channel_same_spatial_shape() {
        let net = tiny_net(0);
        for dims in [[4, 4, 2], [5, 3, 1], [7, 2, 3], [1, 1, 1], [9, 9, 4]] {
            let x = Tensor::zeros(&[2, dims[0], dims[1], dims[2]]);
            let y = logits(&net, &x);
            assert_eq!(y.shape(), &[1, dims[0], dims[1], dims[2]], "dims {dims:?}");
        }
    }

    #[test]
    fn predict_outputs_probabilities() {
        let net = tiny_net(1);
        let x = Initializer::new(2).uniform(&[2, 4, 5, 2], 1.0);
        let p = net.predict_in(&x, &mut NnWorkspace::new());
        for &v in p.data() {
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn deeper_nets_still_handle_tiny_inputs() {
        let net = UNet3d::new(UNetConfig {
            in_channels: 3,
            base_channels: 2,
            levels: 3,
            seed: 4,
        });
        let x = Tensor::zeros(&[3, 3, 2, 1]);
        assert_eq!(logits(&net, &x).shape(), &[1, 3, 2, 1]);
    }

    /// No level cap: the skip stack lives in the workspace and grows with
    /// the network, so a 9-level net runs inference and training alike.
    #[test]
    fn nine_level_net_predicts_and_trains() {
        let mut net = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 1,
            levels: 9,
            seed: 6,
        });
        let x = Initializer::new(7).uniform(&[2, 3, 2, 2], 1.0);
        let mut ws = NnWorkspace::new();
        let p = net.predict_in(&x, &mut ws);
        assert_eq!(p.shape(), &[1, 3, 2, 2]);
        let (y, gi) = train_pass(&mut net, &x, &mut ws);
        assert_eq!(gi.shape(), x.shape());
        for (pv, yv) in p.data().iter().zip(y.data()) {
            assert_eq!(pv.to_bits(), sigmoid(*yv).to_bits());
        }
    }

    #[test]
    fn same_seed_same_output() {
        let x = Initializer::new(11).uniform(&[2, 4, 4, 2], 1.0);
        let ya = logits(&tiny_net(42), &x);
        let yb = logits(&tiny_net(42), &x);
        let yc = logits(&tiny_net(43), &x);
        assert_eq!(ya, yb);
        assert_ne!(ya, yc);
    }

    #[test]
    fn gradcheck_whole_network() {
        // Small input to keep the finite-difference loop cheap.
        let mut net = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 1,
            levels: 1,
            seed: 3,
        });
        let x = Initializer::new(5).uniform(&[2, 2, 2, 1], 1.0);
        check_layer_gradients(&mut net, &x, 1e-2, 5e-2);
    }

    #[test]
    fn param_count_grows_with_width() {
        let mut small = tiny_net(0);
        let mut big = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 4,
            levels: 2,
            seed: 0,
        });
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut net = tiny_net(9);
        let x = Initializer::new(10).uniform(&[2, 5, 4, 2], 1.0);
        let (_, g) = train_pass(&mut net, &x, &mut NnWorkspace::new());
        assert_eq!(g.shape(), x.shape());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: element {i}: {p} vs {q}");
        }
    }

    /// Whole-network GEMM-vs-naive bit-identity: logits, input gradients and
    /// every parameter gradient must match the reference loops exactly.
    #[test]
    fn gemm_network_matches_naive_oracle_bitwise() {
        for (levels, dims, seed) in [
            (1, [3, 5, 7], 21u64),
            (2, [5, 4, 6], 22),
            (3, [7, 3, 5], 23),
        ] {
            let mut fast = UNet3d::new(UNetConfig {
                in_channels: 3,
                base_channels: 2,
                levels,
                seed,
            });
            let mut naive = fast.clone();
            naive.set_naive(true);
            let x = Initializer::new(seed + 100).uniform(&[3, dims[0], dims[1], dims[2]], 1.0);
            let (y_fast, gi_fast) = train_pass(&mut fast, &x, &mut NnWorkspace::new());
            let (y_naive, gi_naive) = train_pass(&mut naive, &x, &mut NnWorkspace::new());
            assert_bits_eq(&y_fast, &y_naive, "logits");
            assert_bits_eq(&gi_fast, &gi_naive, "input grad");
            for (pf, pn) in fast.params_mut().iter().zip(naive.params_mut().iter()) {
                assert_bits_eq(&pf.grad, &pn.grad, "param grad");
            }
        }
    }

    /// The default kernel lane (AVX2 wherever the host has it) against
    /// the forced-scalar lane and the naive oracle, over one whole
    /// forward, backward and Adam step of a selector-shaped network wide
    /// enough to fill every register tile: logits, input gradients and
    /// the updated parameters must agree bit for bit.
    #[test]
    fn default_lane_matches_scalar_and_naive_through_an_adam_step() {
        use crate::optim::Adam;
        let proto = UNet3d::new(UNetConfig {
            in_channels: 7,
            base_channels: 8,
            levels: 2,
            seed: 71,
        });
        let x = Initializer::new(72).uniform(&[7, 9, 10, 16], 1.0);
        let run = |lane: &str| {
            let mut net = proto.clone();
            let mut ws = NnWorkspace::new();
            match lane {
                "scalar" => ws.force_scalar(),
                "naive" => net.set_naive(true),
                _ => {}
            }
            let (y, gi) = train_pass(&mut net, &x, &mut ws);
            Adam::new(1e-2).step(&mut net);
            let wide = ws.counters.get(Counter::GemmKernelSimd);
            (net, y, gi, wide)
        };
        let (mut net, y, gi, wide) = run("default");
        assert_eq!(wide > 0, crate::simd_available(), "default lane dispatch");
        for lane in ["scalar", "naive"] {
            let (mut other, y_o, gi_o, wide_o) = run(lane);
            assert_eq!(wide_o, 0, "{lane}: the wide tiles must not run");
            assert_bits_eq(&y, &y_o, &format!("{lane} logits"));
            assert_bits_eq(&gi, &gi_o, &format!("{lane} input grad"));
            for (p, q) in net.params_mut().iter().zip(other.params_mut().iter()) {
                assert_bits_eq(&p.value, &q.value, &format!("{lane} param after Adam"));
            }
        }
    }

    /// Whole-network batch-vs-per-sample bit identity: logits, input
    /// gradients and accumulated parameter gradients of one batched pass
    /// must equal B=1 passes over the samples in order, for every batch
    /// size — and the naive oracle must agree with the GEMM route.
    #[test]
    fn batched_network_matches_sequential_bitwise() {
        for (levels, dims, seed) in [
            (1usize, [3usize, 5, 7], 51u64),
            (2, [5, 4, 6], 52),
            (3, [7, 3, 5], 53),
        ] {
            for &bsz in &[1usize, 4] {
                let proto = UNet3d::new(UNetConfig {
                    in_channels: 3,
                    base_channels: 2,
                    levels,
                    seed,
                });
                let xs: Vec<Tensor> = (0..bsz)
                    .map(|b| {
                        Initializer::new(seed + 100 + b as u64)
                            .uniform(&[3, dims[0], dims[1], dims[2]], 1.0)
                    })
                    .collect();

                let mut seq = proto.clone();
                let mut ws = NnWorkspace::new();
                let (ys, gis): (Vec<Tensor>, Vec<Tensor>) =
                    xs.iter().map(|x| train_pass(&mut seq, x, &mut ws)).unzip();

                let mut bat = proto.clone();
                let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
                let (y5, gi5) = train_pass(&mut bat, &x5, &mut NnWorkspace::new());

                let what = format!("levels {levels} B{bsz}");
                for b in 0..bsz {
                    assert_bits_eq(&y5.unstack_sample(b), &ys[b], &format!("{what} y[{b}]"));
                    assert_bits_eq(
                        &gi5.unstack_sample(b),
                        &gis[b],
                        &format!("{what} grad_in[{b}]"),
                    );
                }
                for (pb, ps) in bat.params_mut().iter().zip(seq.params_mut().iter()) {
                    assert_bits_eq(&pb.grad, &ps.grad, &format!("{what} param grad"));
                }

                let mut nv = proto.clone();
                nv.set_naive(true);
                let (yn, gin) = train_pass(&mut nv, &x5, &mut NnWorkspace::new());
                assert_bits_eq(&yn, &y5, &format!("{what} naive y"));
                assert_bits_eq(&gin, &gi5, &format!("{what} naive grad_in"));
            }
        }
    }

    /// `predict_in` on a batch is bit-identical per sample to `predict_in`
    /// on each sample alone, restores training mode, and counts B columns
    /// in one flush.
    #[test]
    fn batched_predict_matches_per_sample_predict() {
        let net = tiny_net(61);
        let xs: Vec<Tensor> = (0..3)
            .map(|b| Initializer::new(62 + b).uniform(&[2, 5, 3, 4], 1.0))
            .collect();
        let mut ws = NnWorkspace::new();
        let ps: Vec<Tensor> = xs.iter().map(|x| net.predict_in(x, &mut ws)).collect();

        let mut wsb = NnWorkspace::new();
        let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
        let p5 = net.predict_in(&x5, &mut wsb);
        assert!(wsb.training(), "predict_in must restore training mode");
        for (b, p) in ps.iter().enumerate() {
            assert_bits_eq(&p5.unstack_sample(b), p, &format!("probs[{b}]"));
        }
        assert_eq!(wsb.counters.get(Counter::GemmBatchCols), 3);
        assert_eq!(wsb.counters.get(Counter::BatchFlushes), 1);
    }

    /// Reusing one workspace across passes must not change any bit, and
    /// `predict_in` is the sigmoid of the training forward's logits.
    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let mut fresh = tiny_net(31);
        let mut pooled = fresh.clone();
        let x = Initializer::new(32).uniform(&[2, 5, 3, 4], 1.0);
        let (y_ref, gi_ref) = train_pass(&mut fresh, &x, &mut NnWorkspace::new());
        let mut ws = NnWorkspace::new();
        for _ in 0..2 {
            pooled.zero_grad();
            let (y, gi) = train_pass(&mut pooled, &x, &mut ws);
            assert_bits_eq(&y, &y_ref, "logits");
            assert_bits_eq(&gi, &gi_ref, "input grad");
            let p = pooled.predict_in(&x, &mut ws);
            for (pv, yv) in p.data().iter().zip(y_ref.data()) {
                assert_eq!(pv.to_bits(), sigmoid(*yv).to_bits(), "probabilities");
            }
            assert!(ws.training(), "predict_in must restore training mode");
            ws.free(y);
            ws.free(gi);
            ws.free(p);
        }
    }
}
