//! 3D convolutional residual blocks (He et al., as adopted by the paper's
//! architecture: "3D convolutional residual blocks", Section 3.3).

use crate::activation::Relu;
use crate::conv3d::Conv3d;
use crate::init::Initializer;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::NnWorkspace;

/// A pre-activation-free residual block:
/// `y = relu(conv2(relu(conv1(x))) + proj(x))`,
/// where `proj` is the identity when channel counts match and a `1×1×1`
/// convolution otherwise.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv3d,
    conv2: Conv3d,
    projection: Option<Conv3d>,
}

/// What [`ResidualBlock`]'s backward needs: every sublayer's cache.
#[derive(Debug)]
pub struct ResidualCache {
    conv1: Tensor,
    relu1: Tensor,
    conv2: Tensor,
    projection: Option<Tensor>,
    relu_out: Tensor,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_c` to `out_c` channels with
    /// `k × k × k` kernels (the paper uses `k = 3`).
    pub fn new(in_c: usize, out_c: usize, k: usize, init: &mut Initializer) -> Self {
        ResidualBlock {
            conv1: Conv3d::new(in_c, out_c, k, init),
            conv2: Conv3d::new(out_c, out_c, k, init),
            projection: (in_c != out_c).then(|| Conv3d::new(in_c, out_c, 1, init)),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Routes every convolution through the naive reference loops
    /// (bit-identity oracle; see [`Conv3d::set_naive`]).
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_naive(&mut self, on: bool) {
        self.conv1.set_naive(on);
        self.conv2.set_naive(on);
        if let Some(proj) = &mut self.projection {
            proj.set_naive(on);
        }
    }
}

impl Layer for ResidualBlock {
    type Cache = ResidualCache;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<ResidualCache>) {
        let (h, conv1) = self.conv1.forward(x, ws);
        let (h, relu1) = Relu::forward_owned(h, ws);
        let (mut sum, conv2) = self.conv2.forward(&h, ws);
        ws.free(h);
        let projection = match &self.projection {
            Some(proj) => {
                let (skip, cache) = proj.forward(x, ws);
                sum.add_assign(&skip);
                ws.free(skip);
                cache
            }
            None => {
                sum.add_assign(x);
                None
            }
        };
        let (y, relu_out) = Relu::forward_owned(sum, ws);
        let cache = match (conv1, relu1, conv2, relu_out) {
            (Some(conv1), Some(relu1), Some(conv2), Some(relu_out)) => Some(ResidualCache {
                conv1,
                relu1,
                conv2,
                projection,
                relu_out,
            }),
            _ => None,
        };
        (y, cache)
    }

    fn backward(&mut self, cache: ResidualCache, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let grad_sum = Relu.backward(cache.relu_out, grad_out, ws);
        // Main branch.
        let g = ws.alloc_copy(&grad_sum);
        let g = self.conv2.backward(cache.conv2, g, ws);
        let g = Relu.backward(cache.relu1, g, ws);
        let mut g_main = self.conv1.backward(cache.conv1, g, ws);
        // Skip branch.
        let g_skip = match (&mut self.projection, cache.projection) {
            (Some(proj), Some(pc)) => proj.backward(pc, grad_sum, ws),
            (None, None) => grad_sum,
            // lint: panic-ok(caller-contract guard: a cache from another block is API misuse and must fail loudly, not compute garbage gradients)
            _ => panic!("residual backward with a cache from a different block"),
        };
        g_main.add_assign(&g_skip);
        ws.free(g_skip);
        g_main
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.conv1.params_mut();
        ps.extend(self.conv2.params_mut());
        if let Some(proj) = &mut self.projection {
            ps.extend(proj.params_mut());
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    fn fwd(b: &ResidualBlock, x: &Tensor) -> Tensor {
        b.forward(x, &mut NnWorkspace::new()).0
    }

    #[test]
    fn same_channel_block_has_no_projection() {
        let mut b = ResidualBlock::new(3, 3, 3, &mut Initializer::new(0));
        assert_eq!(b.params_mut().len(), 4); // two convs x (w, b)
        let x = Tensor::zeros(&[3, 2, 2, 2]);
        assert_eq!(fwd(&b, &x).shape(), &[3, 2, 2, 2]);
    }

    #[test]
    fn channel_change_uses_projection() {
        let mut b = ResidualBlock::new(2, 5, 3, &mut Initializer::new(0));
        assert_eq!(b.params_mut().len(), 6);
        let x = Tensor::zeros(&[2, 3, 2, 1]);
        assert_eq!(fwd(&b, &x).shape(), &[5, 3, 2, 1]);
    }

    #[test]
    fn zero_weights_pass_skip_through_relu() {
        let mut b = ResidualBlock::new(2, 2, 3, &mut Initializer::new(0));
        for p in b.params_mut() {
            p.value.fill(0.0);
        }
        let x = Tensor::from_fn4(&[2, 2, 2, 1], |c, a, bb, _| (c + a + bb) as f32 - 1.0);
        let y = fwd(&b, &x);
        // With zero main branch and identity skip, y = relu(x).
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert_eq!(*yv, xv.max(0.0));
        }
    }

    #[test]
    fn gradcheck_identity_skip() {
        let mut b = ResidualBlock::new(2, 2, 3, &mut Initializer::new(5));
        let x = Initializer::new(6).uniform(&[2, 2, 2, 2], 1.0);
        check_layer_gradients(&mut b, &x, 1e-2, 3e-2);
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: element {i}: {p} vs {q}");
        }
    }

    /// Batch-vs-per-sample bit identity through a projected block: one
    /// batched forward/backward against B=1 calls in sample order
    /// (outputs, input gradients, accumulated parameter gradients), and
    /// the cache-free inference forward against the training forward.
    #[test]
    fn batched_block_matches_per_sample_bitwise() {
        for &bsz in &[1usize, 3] {
            let proto = ResidualBlock::new(2, 4, 3, &mut Initializer::new(21));
            let xs: Vec<Tensor> = (0..bsz)
                .map(|b| Initializer::new(30 + b as u64).uniform(&[2, 3, 2, 2], 1.0))
                .collect();
            let gs: Vec<Tensor> = (0..bsz)
                .map(|b| Initializer::new(40 + b as u64).uniform(&[4, 3, 2, 2], 1.0))
                .collect();

            let mut seq = proto.clone();
            let mut ws = NnWorkspace::new();
            let mut ys = Vec::new();
            let mut gis = Vec::new();
            for b in 0..bsz {
                let (y, cache) = seq.forward(&xs[b], &mut ws);
                gis.push(seq.backward(cache.unwrap(), ws.alloc_copy(&gs[b]), &mut ws));
                ys.push(y);
            }

            let mut bat = proto.clone();
            let mut wsb = NnWorkspace::new();
            let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
            let g5 = Tensor::stack_batch(&gs.iter().collect::<Vec<_>>());
            let (y5, cache) = bat.forward(&x5, &mut wsb);
            let gi5 = bat.backward(cache.unwrap(), wsb.alloc_copy(&g5), &mut wsb);

            wsb.training = false;
            let (y5_inf, none) = proto.forward(&x5, &mut wsb);
            assert!(none.is_none(), "inference records no cache");
            assert_bits_eq(&y5_inf, &y5, &format!("B{bsz} inference"));

            for b in 0..bsz {
                assert_bits_eq(&y5.unstack_sample(b), &ys[b], &format!("B{bsz} y[{b}]"));
                assert_bits_eq(
                    &gi5.unstack_sample(b),
                    &gis[b],
                    &format!("B{bsz} grad_in[{b}]"),
                );
            }
            for (pb, ps) in bat.params_mut().iter().zip(seq.params_mut().iter()) {
                assert_bits_eq(&pb.grad, &ps.grad, &format!("B{bsz} param grad"));
            }
        }
    }

    #[test]
    fn gradcheck_projected_skip() {
        let mut b = ResidualBlock::new(2, 3, 1, &mut Initializer::new(8));
        let x = Initializer::new(9).uniform(&[2, 2, 2, 1], 1.0);
        check_layer_gradients(&mut b, &x, 1e-2, 3e-2);
    }
}
