//! The Adam optimizer, operating on [`Param`]s.

use crate::layers::Param;
use serde::{Deserialize, Serialize};

/// The Adam optimizer (Kingma & Ba), the paper's training optimizer
/// (Sec. 5.1: Adam, initial LR 5e-4 with exponential decay).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential-decay factor applied to `lr` after every step.
    pub lr_decay: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl Adam {
    /// Creates Adam with standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            lr_decay: 1.0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Sets a per-step exponential learning-rate decay.
    pub fn with_decay(mut self, decay: f32) -> Self {
        self.lr_decay = decay;
        self
    }

    /// Applies one update step to every parameter.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            let n = p.value.len();
            for i in 0..n {
                let g = p.grad.as_slice()[i];
                let m = self.beta1 * p.m.as_slice()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * p.v.as_slice()[i] + (1.0 - self.beta2) * g * g;
                p.m.as_mut_slice()[i] = m;
                p.v.as_mut_slice()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                p.value.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        self.lr *= self.lr_decay;
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor2;

    fn quadratic_param(at: f32) -> Param {
        Param::new(Tensor2::from_vec(1, 1, vec![at]))
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // f(x) = (x - 3)^2, grad = 2(x - 3).
        let mut p = quadratic_param(-5.0);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            p.zero_grad();
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            adam.step(&mut [&mut p]);
        }
        let x = p.value.as_slice()[0];
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_lr_decay_applies() {
        let mut adam = Adam::new(1.0).with_decay(0.5);
        let mut p = quadratic_param(0.0);
        adam.step(&mut [&mut p]);
        assert!((adam.lr - 0.5).abs() < 1e-6);
        adam.step(&mut [&mut p]);
        assert!((adam.lr - 0.25).abs() < 1e-6);
    }

    #[test]
    fn adam_step_counter() {
        let mut adam = Adam::new(0.01);
        assert_eq!(adam.steps(), 0);
        let mut p = quadratic_param(1.0);
        adam.step(&mut [&mut p]);
        adam.step(&mut [&mut p]);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction the very first Adam step has magnitude ~lr
        // regardless of gradient scale.
        for g0 in [0.01f32, 100.0] {
            let mut p = quadratic_param(0.0);
            p.grad.as_mut_slice()[0] = g0;
            let mut adam = Adam::new(0.1);
            adam.step(&mut [&mut p]);
            let x = p.value.as_slice()[0];
            assert!((x.abs() - 0.1).abs() < 1e-3, "g0={g0}, step={x}");
        }
    }
}
