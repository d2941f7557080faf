//! The first-order optimizer: Adam.
//!
//! Adam owns per-parameter state vectors keyed by the *order* in which
//! a layer reports its parameters (which is deterministic for every layer in
//! this crate), so it can be applied to any [`Layer`].

use crate::layer::Layer;

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam step using the parameters' accumulated gradients.
    pub fn step<L: Layer + ?Sized>(&mut self, layer: &mut L) {
        let mut params = layer.params_mut();
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((w, &g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Param};
    use crate::tensor::Tensor;
    use crate::workspace::NnWorkspace;

    /// A quadratic bowl: loss = (w - 3)^2 with dL/dw = 2(w - 3).
    struct Bowl {
        w: Param,
    }

    impl Bowl {
        fn new(start: f32) -> Self {
            Bowl {
                w: Param::new(Tensor::from_vec(&[1], vec![start]).unwrap()),
            }
        }
        fn loss(&self) -> f32 {
            let w = self.w.value.data()[0];
            (w - 3.0) * (w - 3.0)
        }
        fn compute_grad(&mut self) {
            let w = self.w.value.data()[0];
            self.w.grad.data_mut()[0] = 2.0 * (w - 3.0);
        }
    }

    impl Layer for Bowl {
        type Cache = ();
        fn forward(&self, x: &Tensor, _ws: &mut NnWorkspace) -> (Tensor, Option<()>) {
            (x.clone(), Some(()))
        }
        fn backward(&mut self, _: (), g: Tensor, _ws: &mut NnWorkspace) -> Tensor {
            g
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.w]
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut bowl = Bowl::new(10.0);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            bowl.zero_grad();
            bowl.compute_grad();
            opt.step(&mut bowl);
        }
        assert!(bowl.loss() < 1e-3, "loss {}", bowl.loss());
    }
}
