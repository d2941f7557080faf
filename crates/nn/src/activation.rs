//! Elementwise activations: ReLU and sigmoid.
//!
//! Both are shape-agnostic (any rank, so rank-4 samples and rank-5
//! batches alike) and stateless: the backward cache is a pooled copy of
//! the forward output, handed back only when the workspace is recording.

use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::{NnWorkspace, ProfKind};

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }

    /// Consuming forward: clamps `x` in place (no output buffer at all).
    /// Used by the residual blocks, which own their intermediates. The
    /// cache is the output: gradient passes exactly where it is positive.
    pub fn forward_owned(mut x: Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Tensor>) {
        let t = ws.prof_start();
        for v in x.data_mut() {
            *v = v.max(0.0);
        }
        let cache = ws.training().then(|| ws.alloc_copy(&x));
        ws.prof_end(t, ProfKind::ActFwd);
        (x, cache)
    }
}

impl Layer for Relu {
    /// The forward output.
    type Cache = Tensor;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Tensor>) {
        let y = ws.alloc_copy(x);
        Relu::forward_owned(y, ws)
    }

    fn backward(&mut self, y: Tensor, mut grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.prof_start();
        // `y = max(x, 0)` is never NaN, so `y <= 0` is exactly `x <= 0`
        // or `x` NaN — where the gradient stops.
        for (gv, &yv) in grad_out.data_mut().iter_mut().zip(y.data()) {
            if yv <= 0.0 {
                *gv = 0.0;
            }
        }
        ws.free(y);
        ws.prof_end(t, ProfKind::ActBwd);
        grad_out
    }
}

/// Logistic sigmoid, `y = 1 / (1 + e^{-x})` — the paper's output activation
/// ensuring every Steiner-point probability lies in `(0, 1)` (Section 3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid
    }
}

/// The scalar sigmoid function, exposed for loss computations.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Sigmoid {
    /// The forward output.
    type Cache = Tensor;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Tensor>) {
        let t = ws.prof_start();
        let mut y = ws.alloc(x.shape());
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = sigmoid(v);
        }
        let cache = ws.training().then(|| ws.alloc_copy(&y));
        ws.prof_end(t, ProfKind::ActFwd);
        (y, cache)
    }

    fn backward(&mut self, y: Tensor, mut grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.prof_start();
        for (gv, &yv) in grad_out.data_mut().iter_mut().zip(y.data()) {
            *gv *= yv * (1.0 - yv);
        }
        ws.free(y);
        ws.prof_end(t, ProfKind::ActBwd);
        grad_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let mut ws = NnWorkspace::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 0.5, 3.0]).unwrap();
        let (y, cache) = r.forward(&x, &mut ws);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
        let g = Tensor::from_vec(&[4], vec![1.0; 4]).unwrap();
        let g = r.backward(cache.unwrap(), g, &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_cache_is_pooled_and_skipped_in_inference() {
        let x = Tensor::from_vec(&[3], vec![-1.0, 2.0, 3.0]).unwrap();
        let mut ws = NnWorkspace::new();
        let (y, cache) = Relu.forward(&x, &mut ws);
        let cache = cache.expect("training records the cache");
        let ptr = cache.data().as_ptr();
        ws.free(y);
        let gi = Relu.backward(cache, ws.alloc_copy(&x), &mut ws);
        assert_eq!(gi.data(), &[0.0, 2.0, 3.0]);
        // The retired cache storage comes straight back from the pool.
        let (y, _) = Relu.forward(&x, &mut ws);
        assert_eq!(y.data().as_ptr(), ptr);
        ws.training = false;
        assert!(Relu.forward(&x, &mut ws).1.is_none());
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let x = Tensor::from_vec(&[3], vec![-10.0, 0.0, 10.0]).unwrap();
        let (y, _) = Sigmoid::new().forward(&x, &mut NnWorkspace::new());
        assert!(y.data()[0] > 0.0 && y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] < 1.0 && y.data()[2] > 0.999);
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[6], vec![-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]).unwrap();
        check_layer_gradients(&mut r, &x, 1e-3, 1e-3);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[5], vec![-1.5, -0.3, 0.0, 0.7, 2.0]).unwrap();
        check_layer_gradients(&mut s, &x, 1e-3, 2e-3);
    }
}
