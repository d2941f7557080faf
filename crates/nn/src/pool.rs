//! Ceil-mode 3D max pooling.
//!
//! The U-Net downsamples with window-2, stride-2 max pooling in **ceil
//! mode**: an axis of size `d` pools to `ceil(d / 2)`, so odd and even (and
//! even size-1) axes all work. Together with
//! [`upsample`](crate::upsample)-to-target-shape on the decoder side, this
//! is what lets the network consume Hanan graphs of any `H × V × M`.

use crate::layer::Layer;
use crate::tensor::{volumes, Shape, Tensor};
use crate::workspace::NnWorkspace;
use oarsmt_telemetry::Span;

/// Window-2, stride-2, ceil-mode 3D max pooling over the trailing three
/// axes; every leading axis (`c` for a rank-4 sample, `c·b` for a
/// channel-major rank-5 batch) is an independent volume, so per-sample
/// bit identity across batch sizes is structural.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxPool3d;

/// What [`MaxPool3d`]'s backward needs: the input shape and, per output
/// element, which cell of its window held the maximum.
#[derive(Debug, Clone)]
pub struct PoolCache {
    in_shape: Shape,
    /// Pooled-shape tensor of window offsets `dx·4 + dy·2 + dz` (small
    /// integers, exact in `f32`), so the cache lives in the workspace pool.
    argmax: Tensor,
}

/// Pooled size of one axis.
#[inline]
pub fn pooled(d: usize) -> usize {
    d.div_ceil(2)
}

impl MaxPool3d {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        MaxPool3d
    }
}

/// The pooling kernel. `argmax`, when recording, receives each output's
/// window offset `dx·4 + dy·2 + dz`.
fn pool_core(xd: &[f32], s: &[usize], out: &mut [f32], mut argmax: Option<&mut [f32]>) {
    let (c_eff, [d1, d2, d3]) = volumes(s);
    let (o1, o2, o3) = (pooled(d1), pooled(d2), pooled(d3));
    let spatial = d1 * d2 * d3;
    let mut oi = 0;
    for ci in 0..c_eff {
        let base = ci * spatial;
        for x1 in 0..o1 {
            for y in 0..o2 {
                for z in 0..o3 {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_code = 0usize;
                    for dx in 0..2 {
                        let ix = x1 * 2 + dx;
                        if ix >= d1 {
                            continue;
                        }
                        for dy in 0..2 {
                            let iy = y * 2 + dy;
                            if iy >= d2 {
                                continue;
                            }
                            for dz in 0..2 {
                                let iz = z * 2 + dz;
                                if iz >= d3 {
                                    continue;
                                }
                                let v = xd[base + (ix * d2 + iy) * d3 + iz];
                                if v > best {
                                    best = v;
                                    best_code = dx * 4 + dy * 2 + dz;
                                }
                            }
                        }
                    }
                    out[oi] = best;
                    if let Some(am) = argmax.as_deref_mut() {
                        am[oi] = best_code as f32;
                    }
                    oi += 1;
                }
            }
        }
    }
}

impl Layer for MaxPool3d {
    type Cache = PoolCache;

    fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<PoolCache>) {
        let t = ws.spans.begin(Span::NnPoolFwd, ws.spans.now());
        let in_shape = Shape::of(x.shape());
        let (_, [d1, d2, d3]) = volumes(x.shape());
        let out_shape = in_shape.with_spatial([pooled(d1), pooled(d2), pooled(d3)]);
        let mut out = ws.alloc(out_shape.dims());
        if !ws.training() {
            pool_core(x.data(), x.shape(), out.data_mut(), None);
            ws.spans.end(t, ws.spans.now());
            return (out, None);
        }
        let mut argmax = ws.alloc(out_shape.dims());
        pool_core(x.data(), x.shape(), out.data_mut(), Some(argmax.data_mut()));
        ws.spans.end(t, ws.spans.now());
        (out, Some(PoolCache { in_shape, argmax }))
    }

    /// Routes each output gradient to its window's maximum. Windows are
    /// disjoint, so every input cell receives at most one term and there
    /// is no accumulation-order question.
    fn backward(&mut self, cache: PoolCache, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.spans.begin(Span::NnPoolBwd, ws.spans.now());
        assert_eq!(grad_out.len(), cache.argmax.len(), "maxpool gradient shape");
        let s = cache.in_shape.dims();
        let (c_eff, [d1, d2, d3]) = volumes(s);
        let (o1, o2, o3) = (pooled(d1), pooled(d2), pooled(d3));
        let spatial = d1 * d2 * d3;
        let mut grad_in = ws.alloc(s);
        let (gi, g, codes) = (grad_in.data_mut(), grad_out.data(), cache.argmax.data());
        let mut oi = 0;
        for ci in 0..c_eff {
            for x1 in 0..o1 {
                for y in 0..o2 {
                    for z in 0..o3 {
                        let code = codes[oi] as usize;
                        let (ix, iy, iz) = (
                            x1 * 2 + (code >> 2),
                            y * 2 + ((code >> 1) & 1),
                            z * 2 + (code & 1),
                        );
                        gi[ci * spatial + (ix * d2 + iy) * d3 + iz] += g[oi];
                        oi += 1;
                    }
                }
            }
        }
        ws.free(cache.argmax);
        ws.free(grad_out);
        ws.spans.end(t, ws.spans.now());
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_sizes_use_ceil() {
        assert_eq!(pooled(1), 1);
        assert_eq!(pooled(2), 1);
        assert_eq!(pooled(3), 2);
        assert_eq!(pooled(5), 3);
        assert_eq!(pooled(8), 4);
    }

    #[test]
    fn pools_maxima_per_window() {
        let x = Tensor::from_fn4(&[1, 2, 2, 2], |_, a, b, c| (a * 4 + b * 2 + c) as f32);
        let (y, _) = MaxPool3d::new().forward(&x, &mut NnWorkspace::new());
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 7.0);
    }

    #[test]
    fn odd_axes_keep_tail_windows() {
        let x = Tensor::from_fn4(&[1, 3, 1, 1], |_, a, _, _| a as f32);
        let (y, _) = MaxPool3d::new().forward(&x, &mut NnWorkspace::new());
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![3.0, 5.0]).unwrap();
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let (y, cache) = p.forward(&x, &mut ws);
        assert_eq!(y.data(), &[5.0]);
        let g = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]).unwrap();
        let g = p.backward(cache.unwrap(), g, &mut ws);
        assert_eq!(g.data(), &[0.0, 2.0]);
    }

    #[test]
    fn size_one_axes_pass_through() {
        let x = Tensor::from_fn4(&[2, 1, 1, 1], |c, _, _, _| c as f32);
        let (y, _) = MaxPool3d::new().forward(&x, &mut NnWorkspace::new());
        assert_eq!(y.shape(), &[2, 1, 1, 1]);
        assert_eq!(y.data(), x.data());
    }
}
