//! The [`Layer`] trait and trainable [`Param`]eters.

use std::fmt;

use crate::tensor::Tensor;
use crate::workspace::NnWorkspace;

/// A trainable parameter: the value tensor and its accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zero gradient of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "param {:?}", self.value.shape())
    }
}

/// A differentiable layer.
///
/// One forward serves every use: it takes `&self`, accepts a rank-4
/// `[C, d1, d2, d3]` sample or a channel-major rank-5 `[C, B, d1, d2, d3]`
/// batch (a rank-4 input is a batch of one — the layouts are
/// byte-identical), and hands back the backward cache only when the
/// workspace is recording ([`NnWorkspace::training`]). Inference, shared
/// selectors and training therefore run the same arithmetic; the caller
/// that wants gradients keeps the cache and passes it to the one backward.
///
/// Per-sample results are bit-identical at every batch size: batching
/// only regroups *independent* output elements, never the terms of one
/// element's sum, and parameter-gradient accumulation visits samples in
/// ascending batch order (the sequential per-sample `+=` sequence).
pub trait Layer {
    /// What [`Layer::backward`] needs from the matching forward.
    type Cache;

    /// Computes the layer output from workspace-pooled storage; the cache
    /// is `Some` iff `ws.training()`.
    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Self::Cache>);

    /// Propagates the output gradient (taken by value, so it can be
    /// reused in place or recycled into the pool) to the input gradient,
    /// accumulating parameter gradients along the way.
    fn backward(&mut self, cache: Self::Cache, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor;

    /// The layer's trainable parameters (empty for activations and pooling).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tracks_matching_grad_shape() {
        let mut p = Param::new(Tensor::zeros(&[3, 2]));
        assert_eq!(p.grad.shape(), &[3, 2]);
        p.grad.fill(1.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
