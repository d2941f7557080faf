//! Finite-difference gradient checking for layers.
//!
//! Used extensively by the substrate's tests: every differentiable layer is
//! verified against central finite differences on both its input gradient
//! and its parameter gradients.

use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::NnWorkspace;

/// A scalar loss for gradient checking: `L = sum(y^2) / 2`, whose gradient
/// with respect to `y` is simply `y`.
fn loss_of(y: &Tensor) -> f64 {
    y.data()
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        / 2.0
}

/// Checks a layer's analytic gradients against central finite differences.
///
/// Uses the loss `L = ||forward(x)||² / 2`. Verifies the input gradient and
/// every parameter gradient to the given relative/absolute tolerance.
///
/// # Panics
///
/// Panics (test-style assertion) when a gradient mismatches.
pub fn check_layer_gradients<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
    // Analytic pass.
    let mut ws = NnWorkspace::new();
    layer.zero_grad();
    let (y, cache) = layer.forward(x, &mut ws);
    let cache = cache.expect("a training workspace records caches");
    let grad_in = layer.backward(cache, y, &mut ws); // dL/dy = y for our loss

    // Perturbed passes only need the output.
    ws.training = false;
    let mut loss_at = |layer: &L, x: &Tensor| loss_of(&layer.forward(x, &mut ws).0);

    // Input gradient check.
    let mut x_pert = x.clone();
    for i in 0..x.len() {
        let orig = x_pert.data()[i];
        x_pert.data_mut()[i] = orig + eps;
        let lp = loss_at(layer, &x_pert);
        x_pert.data_mut()[i] = orig - eps;
        let lm = loss_at(layer, &x_pert);
        x_pert.data_mut()[i] = orig;
        let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let analytic = grad_in.data()[i];
        assert_close(analytic, numeric, tol, &format!("input grad [{i}]"));
    }

    // Parameter gradient check. Snapshot analytic grads first.
    let analytic_grads: Vec<Vec<f32>> = layer
        .params_mut()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();
    let n_params = analytic_grads.len();
    // Index-based loops: `layer.params_mut()` must be re-borrowed inside the
    // body between forward passes, so iterators cannot hold the params.
    #[allow(clippy::needless_range_loop)]
    for pi in 0..n_params {
        let plen = layer.params_mut()[pi].value.len();
        for i in 0..plen {
            let orig = layer.params_mut()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = loss_at(layer, x);
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = loss_at(layer, x);
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = analytic_grads[pi][i];
            assert_close(analytic, numeric, tol, &format!("param {pi} grad [{i}]"));
        }
    }
}

/// Asserts two gradient values agree within a mixed relative/absolute
/// tolerance.
fn assert_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let denom = analytic.abs().max(numeric.abs()).max(1.0);
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel <= tol,
        "{what}: analytic {analytic} vs numeric {numeric} (rel err {rel})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Param;

    /// y = k * x with a single scalar parameter k — trivially checkable.
    struct Scale {
        k: Param,
    }

    impl Layer for Scale {
        type Cache = Tensor;
        fn forward(&self, x: &Tensor, ws: &mut NnWorkspace) -> (Tensor, Option<Tensor>) {
            let k = self.k.value.data()[0];
            (x.map(|v| k * v), ws.training().then(|| x.clone()))
        }
        fn backward(&mut self, x: Tensor, grad_out: Tensor, _ws: &mut NnWorkspace) -> Tensor {
            let k = self.k.value.data()[0];
            let dk: f32 = grad_out
                .data()
                .iter()
                .zip(x.data())
                .map(|(&g, &xv)| g * xv)
                .sum();
            self.k.grad.data_mut()[0] += dk;
            grad_out.map(|g| k * g)
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.k]
        }
    }

    #[test]
    fn gradcheck_accepts_correct_layer() {
        let mut layer = Scale {
            k: Param::new(Tensor::from_vec(&[1], vec![1.5]).unwrap()),
        };
        let x = Tensor::from_vec(&[4], vec![0.3, -0.7, 1.1, 0.0]).unwrap();
        check_layer_gradients(&mut layer, &x, 1e-3, 1e-3);
    }

    #[test]
    #[should_panic(expected = "grad")]
    fn gradcheck_rejects_wrong_gradient() {
        /// Deliberately wrong backward: claims dL/dx = 0.
        struct Broken;
        impl Layer for Broken {
            type Cache = ();
            fn forward(&self, x: &Tensor, _ws: &mut NnWorkspace) -> (Tensor, Option<()>) {
                (x.map(|v| 2.0 * v), Some(()))
            }
            fn backward(&mut self, _: (), grad_out: Tensor, _ws: &mut NnWorkspace) -> Tensor {
                grad_out.map(|_| 0.0)
            }
        }
        let mut layer = Broken;
        let x = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        check_layer_gradients(&mut layer, &x, 1e-3, 1e-3);
    }
}
