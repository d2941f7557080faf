//! Nearest-neighbor 3D upsampling to an arbitrary target shape.
//!
//! The decoder path of the U-Net must restore whatever spatial shape the
//! matching encoder level had — which, with ceil-mode pooling of arbitrary
//! inputs, is not always exactly double. [`Upsample3d`] therefore maps to an
//! explicit target shape using nearest-neighbor indexing, and its backward
//! pass accumulates gradients onto the source cells.

use crate::layer::Layer;
use crate::tensor::{volumes, Shape, Tensor};
use crate::workspace::NnWorkspace;
use oarsmt_telemetry::Span;

/// Nearest-neighbor upsampling to a fixed target spatial shape.
#[derive(Debug, Clone, Copy)]
pub struct Upsample3d {
    target: [usize; 3],
}

impl Upsample3d {
    /// Creates an upsampler mapping the trailing three axes of its input to
    /// `target` (leading channel and batch axes pass through).
    pub fn to_shape(target: [usize; 3]) -> Self {
        Upsample3d { target }
    }

    /// Source index for an output index along one axis.
    #[inline]
    fn src(i: usize, in_d: usize, out_d: usize) -> usize {
        (i * in_d / out_d).min(in_d - 1)
    }
}

/// The nearest-neighbor kernel: every leading axis is an independent
/// volume (`c` for rank-4, `c·b` channel-major for rank-5 — per-sample
/// bit identity is structural because outputs are pure copies).
fn up_core(xd: &[f32], c_eff: usize, din: [usize; 3], dout: [usize; 3], od: &mut [f32]) {
    let [d1, d2, d3] = din;
    let [o1, o2, o3] = dout;
    for ci in 0..c_eff {
        for x1 in 0..o1 {
            let ix = Upsample3d::src(x1, d1, o1);
            for y in 0..o2 {
                let iy = Upsample3d::src(y, d2, o2);
                let xrow = &xd[((ci * d1 + ix) * d2 + iy) * d3..][..d3];
                let orow = &mut od[((ci * o1 + x1) * o2 + y) * o3..][..o3];
                for (z, o) in orow.iter_mut().enumerate() {
                    *o = xrow[Upsample3d::src(z, d3, o3)];
                }
            }
        }
    }
}

/// Backward of [`up_core`]: accumulates replicated gradients onto source
/// cells. Output cells of one source cell are visited in the same ascending
/// order regardless of leading-axis count, so the per-element `+=` order
/// matches the sequential per-sample pass bit for bit.
fn up_back_core(gd: &[f32], c_eff: usize, din: [usize; 3], dout: [usize; 3], gi: &mut [f32]) {
    let [d1, d2, d3] = din;
    let [o1, o2, o3] = dout;
    for ci in 0..c_eff {
        for x1 in 0..o1 {
            let ix = Upsample3d::src(x1, d1, o1);
            for y in 0..o2 {
                let iy = Upsample3d::src(y, d2, o2);
                let grow = &gd[((ci * o1 + x1) * o2 + y) * o3..][..o3];
                let irow = &mut gi[((ci * d1 + ix) * d2 + iy) * d3..][..d3];
                for (z, &g) in grow.iter().enumerate() {
                    irow[Upsample3d::src(z, d3, o3)] += g;
                }
            }
        }
    }
}

impl Layer for Upsample3d {
    /// The input shape.
    type Cache = Shape;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Shape>) {
        let t = ws.spans.begin(Span::NnUpFwd, ws.spans.now());
        let in_shape = Shape::of(x.shape());
        let (c_eff, din) = volumes(x.shape());
        let mut out = ws.alloc(in_shape.with_spatial(self.target).dims());
        up_core(x.data(), c_eff, din, self.target, out.data_mut());
        ws.spans.end(t, ws.spans.now());
        (out, ws.training().then_some(in_shape))
    }

    fn backward(&mut self, in_shape: Shape, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.spans.begin(Span::NnUpBwd, ws.spans.now());
        assert_eq!(
            grad_out.shape(),
            in_shape.with_spatial(self.target).dims(),
            "upsample gradient shape"
        );
        let (c_eff, din) = volumes(in_shape.dims());
        let mut grad_in = ws.alloc(in_shape.dims());
        up_back_core(grad_out.data(), c_eff, din, self.target, grad_in.data_mut());
        ws.free(grad_out);
        ws.spans.end(t, ws.spans.now());
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_replicates_each_cell() {
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![1.0, 2.0]).unwrap();
        let (y, _) = Upsample3d::to_shape([4, 1, 1]).forward(&x, &mut NnWorkspace::new());
        assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn restores_odd_shapes_after_ceil_pooling() {
        // 5 pooled (ceil) -> 3; upsample back to 5.
        let x = Tensor::from_vec(&[1, 3, 1, 1], vec![10.0, 20.0, 30.0]).unwrap();
        let (y, _) = Upsample3d::to_shape([5, 1, 1]).forward(&x, &mut NnWorkspace::new());
        assert_eq!(y.shape(), &[1, 5, 1, 1]);
        // floor(i * 3 / 5): 0,0,1,1,2
        assert_eq!(y.data(), &[10.0, 10.0, 20.0, 20.0, 30.0]);
    }

    #[test]
    fn backward_accumulates_replicated_gradients() {
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![0.0, 0.0]).unwrap();
        let mut u = Upsample3d::to_shape([4, 1, 1]);
        let mut ws = NnWorkspace::new();
        let (_, cache) = u.forward(&x, &mut ws);
        let g = Tensor::from_vec(&[1, 4, 1, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let g = u.backward(cache.unwrap(), g, &mut ws);
        assert_eq!(g.data(), &[3.0, 7.0]);
    }

    #[test]
    fn identity_when_shapes_match() {
        let x = Tensor::from_fn4(&[2, 2, 3, 1], |c, a, b, _| (c * 10 + a + b) as f32);
        let u = Upsample3d::to_shape([2, 3, 1]);
        assert_eq!(u.forward(&x, &mut NnWorkspace::new()).0, x);
    }
}
