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

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Changes the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Serializes the optimizer state (step count and moment vectors) so a
    /// training run can resume exactly where it stopped.
    ///
    /// # Errors
    ///
    /// Returns an error on write failure.
    pub fn save_state<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(&self.t.to_le_bytes())?;
        writer.write_all(&(self.m.len() as u64).to_le_bytes())?;
        for vecs in [&self.m, &self.v] {
            for vec in vecs {
                writer.write_all(&(vec.len() as u64).to_le_bytes())?;
                for &x in vec {
                    writer.write_all(&x.to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Restores state saved by [`Adam::save_state`].
    ///
    /// # Errors
    ///
    /// Returns an error on read failure or truncation.
    pub fn load_state<R: std::io::Read>(&mut self, mut reader: R) -> std::io::Result<()> {
        let mut b8 = [0u8; 8];
        reader.read_exact(&mut b8)?;
        self.t = u64::from_le_bytes(b8);
        reader.read_exact(&mut b8)?;
        let count = u64::from_le_bytes(b8) as usize;
        let read_group = |reader: &mut R| -> std::io::Result<Vec<Vec<f32>>> {
            let mut group = Vec::with_capacity(count);
            for _ in 0..count {
                let mut b8 = [0u8; 8];
                reader.read_exact(&mut b8)?;
                let len = u64::from_le_bytes(b8) as usize;
                let mut vec = vec![0.0f32; len];
                for x in &mut vec {
                    let mut b4 = [0u8; 4];
                    reader.read_exact(&mut b4)?;
                    *x = f32::from_le_bytes(b4);
                }
                group.push(vec);
            }
            Ok(group)
        };
        self.m = read_group(&mut reader)?;
        self.v = read_group(&mut reader)?;
        Ok(())
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

    #[test]
    fn adam_state_round_trips_and_resumes_identically() {
        // Train two bowls identically; checkpoint one mid-way and resume.
        let run_straight = || {
            let mut bowl = Bowl::new(0.0);
            let mut opt = Adam::new(0.1);
            for _ in 0..20 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            bowl.w.value.data()[0]
        };
        let run_resumed = || {
            let mut bowl = Bowl::new(0.0);
            let mut opt = Adam::new(0.1);
            for _ in 0..10 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            let mut bytes = Vec::new();
            opt.save_state(&mut bytes).unwrap();
            let mut opt2 = Adam::new(0.1);
            opt2.load_state(bytes.as_slice()).unwrap();
            for _ in 0..10 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt2.step(&mut bowl);
            }
            bowl.w.value.data()[0]
        };
        assert_eq!(run_straight(), run_resumed());
    }

    #[test]
    fn lr_is_adjustable() {
        let mut opt = Adam::new(0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }
}
