//! Gradient-descent optimisers.
//!
//! Both stages of the FitAct workflow use the same interface: conventional
//! training typically uses [`Sgd`] with momentum; the bound post-training uses
//! [`Adam`], as in the paper ("we use the ADAM optimizer to solve it").

use crate::Parameter;
use fitact_tensor::Tensor;
use std::fmt;

/// An optimiser updates trainable parameters in place from their accumulated
/// gradients. Parameters whose [`Parameter::trainable`] flag is `false` are
/// skipped, which is how the post-training stage freezes Θ_A while learning
/// Θ_R.
pub trait Optimizer: fmt::Debug {
    /// Applies one update step to the given parameters.
    ///
    /// The slice must be presented in a stable order across calls: internal
    /// state (momentum, Adam moments) is tracked positionally.
    fn step(&mut self, params: &mut [&mut Parameter]);

    /// Clears all gradients.
    fn zero_grad(&mut self, params: &mut [&mut Parameter]) {
        for p in params.iter_mut() {
            p.zero_grad();
        }
    }

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Changes the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and optional weight
/// decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Creates SGD with momentum and weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.data().dims()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            if !p.trainable() {
                continue;
            }
            let wd = self.weight_decay;
            let grad: Vec<f32> = if wd > 0.0 {
                p.grad()
                    .as_slice()
                    .iter()
                    .zip(p.data().as_slice())
                    .map(|(g, w)| g + wd * w)
                    .collect()
            } else {
                p.grad().as_slice().to_vec()
            };
            let v = self.velocity[i].as_mut_slice();
            let data = p.data_mut().as_mut_slice();
            for j in 0..data.len() {
                v[j] = self.momentum * v[j] + grad[j];
                data[j] -= self.lr * v[j];
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The Adam optimiser (Kingma & Ba, 2014), as used by the paper's
/// post-training phase.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard hyper-parameters
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Creates Adam with explicit betas and weight decay.
    pub fn with_config(lr: f32, beta1: f32, beta2: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Parameter]) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.data().dims()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.data().dims()))
                .collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            if !p.trainable() {
                continue;
            }
            let wd = self.weight_decay;
            let grads: Vec<f32> = if wd > 0.0 {
                p.grad()
                    .as_slice()
                    .iter()
                    .zip(p.data().as_slice())
                    .map(|(g, w)| g + wd * w)
                    .collect()
            } else {
                p.grad().as_slice().to_vec()
            };
            let m = self.m[i].as_mut_slice();
            let v = self.v[i].as_mut_slice();
            let data = p.data_mut().as_mut_slice();
            for j in 0..data.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * grads[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * grads[j] * grads[j];
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                data[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: f32) -> Parameter {
        Parameter::new("x", Tensor::from_vec(vec![start], &[1]).unwrap())
    }

    /// Sets grad = 2x (gradient of x²).
    fn quadratic_grad(p: &mut Parameter) {
        let x = p.data().as_slice()[0];
        p.grad_mut().as_mut_slice()[0] = 2.0 * x;
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let mut p = quadratic_param(5.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.data().as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = quadratic_param(5.0);
        let mut with_m = quadratic_param(5.0);
        let mut opt_plain = Sgd::new(0.01);
        let mut opt_m = Sgd::with_momentum(0.01, 0.9, 0.0);
        for _ in 0..50 {
            quadratic_grad(&mut plain);
            opt_plain.step(&mut [&mut plain]);
            quadratic_grad(&mut with_m);
            opt_m.step(&mut [&mut with_m]);
        }
        assert!(with_m.data().as_slice()[0].abs() < plain.data().as_slice()[0].abs());
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights_without_gradient() {
        let mut p = quadratic_param(1.0);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        // No task gradient at all: decay alone should shrink the weight.
        for _ in 0..10 {
            p.zero_grad();
            opt.step(&mut [&mut p]);
        }
        assert!(p.data().as_slice()[0] < 1.0);
        assert!(p.data().as_slice()[0] > 0.0);
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut p = quadratic_param(3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.data().as_slice()[0].abs() < 1e-2);
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn frozen_parameters_are_not_updated() {
        let mut p = quadratic_param(2.0);
        p.freeze();
        let mut opt = Adam::new(0.5);
        quadratic_grad(&mut p);
        opt.step(&mut [&mut p]);
        assert_eq!(p.data().as_slice()[0], 2.0);

        let mut opt = Sgd::new(0.5);
        opt.step(&mut [&mut p]);
        assert_eq!(p.data().as_slice()[0], 2.0);
    }

    #[test]
    fn zero_grad_clears_all_params() {
        let mut a = quadratic_param(1.0);
        let mut b = quadratic_param(2.0);
        quadratic_grad(&mut a);
        quadratic_grad(&mut b);
        let mut opt = Sgd::new(0.1);
        opt.zero_grad(&mut [&mut a, &mut b]);
        assert_eq!(a.grad().sum(), 0.0);
        assert_eq!(b.grad().sum(), 0.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        let mut opt = Adam::new(0.001);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    fn adam_with_config_uses_weight_decay() {
        let mut p = quadratic_param(1.0);
        let mut opt = Adam::with_config(0.05, 0.9, 0.999, 0.9);
        for _ in 0..20 {
            p.zero_grad();
            opt.step(&mut [&mut p]);
        }
        assert!(p.data().as_slice()[0] < 1.0);
    }
}
