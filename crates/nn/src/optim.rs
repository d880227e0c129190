//! Gradient-descent optimizers.
//!
//! The paper trains every network with RMSprop at learning rate 0.01
//! (Table I); SGD, Adam and AdaDelta are provided for ablations — the paper
//! itself names "SGD, RMSprop, ADAELTA" as the family of applicable
//! optimizers (Section III).

use crate::Param;

/// A gradient-descent update rule over a set of parameters.
///
/// Optimizers are stateless with respect to *which* parameters they see:
/// per-parameter state (moving averages, moments) lives in
/// [`Param::state`], so the same optimizer instance can drive any model.
pub trait Optimizer {
    /// Applies one update step to every parameter, consuming `grad` (the
    /// gradients are left in place; callers zero them before the next
    /// backward pass).
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Adjusts the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0 }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params {
            if self.momentum == 0.0 {
                let lr = self.lr;
                let grad = p.grad.clone();
                p.value.axpy(-lr, &grad).expect("sgd shapes");
            } else {
                p.ensure_state(1);
                let (g, v) = (p.grad.as_slice().to_vec(), &mut p.state[0]);
                for (vi, &gi) in v.as_mut_slice().iter_mut().zip(&g) {
                    *vi = self.momentum * *vi - self.lr * gi;
                }
                let v = p.state[0].clone();
                p.value.add_assign(&v).expect("sgd momentum shapes");
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

/// RMSprop (Tieleman & Hinton) — the paper's training algorithm.
///
/// `cache ← ρ·cache + (1−ρ)·g²;  θ ← θ − lr·g / (√cache + ε)`
///
/// with the Keras defaults `ρ = 0.9`, `ε = 1e-7`.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
}

impl RmsProp {
    /// Moving-average decay ρ of the squared gradients.
    const RHO: f32 = 0.9;
    /// Denominator guard ε.
    const EPS: f32 = 1e-7;

    /// RMSprop at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params {
            p.ensure_state(1);
            let n = p.value.len();
            for i in 0..n {
                let g = p.grad.as_slice()[i];
                let cache = &mut p.state[0].as_mut_slice()[i];
                *cache = Self::RHO * *cache + (1.0 - Self::RHO) * g * g;
                p.value.as_mut_slice()[i] -= self.lr * g / (cache.sqrt() + Self::EPS);
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

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in params {
            p.ensure_state(2);
            let n = p.value.len();
            for i in 0..n {
                let g = p.grad.as_slice()[i];
                let m = &mut p.state[0].as_mut_slice()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let mhat = *m / b1t;
                let v = &mut p.state[1].as_mut_slice()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let vhat = *v / b2t;
                p.value.as_mut_slice()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
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

/// AdaDelta (Zeiler): learning-rate-free adaptive updates.
#[derive(Debug, Clone)]
pub struct AdaDelta {
    rho: f32,
    eps: f32,
    /// Scaling factor applied to the adaptive step (1.0 in the original
    /// formulation; exposed as the "learning rate" for trait uniformity).
    lr: f32,
}

impl AdaDelta {
    /// AdaDelta with `ρ = 0.95`, `ε = 1e-6`, unit step scale.
    pub fn new() -> Self {
        Self {
            rho: 0.95,
            eps: 1e-6,
            lr: 1.0,
        }
    }
}

impl Default for AdaDelta {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for AdaDelta {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params {
            p.ensure_state(2);
            let n = p.value.len();
            for i in 0..n {
                let g = p.grad.as_slice()[i];
                let eg = &mut p.state[0].as_mut_slice()[i];
                *eg = self.rho * *eg + (1.0 - self.rho) * g * g;
                let eg_v = *eg;
                let ed = &mut p.state[1].as_mut_slice()[i];
                let delta = -((*ed + self.eps).sqrt() / (eg_v + self.eps).sqrt()) * g;
                *ed = self.rho * *ed + (1.0 - self.rho) * delta * delta;
                p.value.as_mut_slice()[i] += self.lr * delta;
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
    use pelican_tensor::Tensor;

    /// One optimizer step on f(θ) = θ² starting at θ = 1 (gradient 2).
    fn one_step(opt: &mut dyn Optimizer) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![1], vec![1.0]).unwrap());
        p.grad = Tensor::from_vec(vec![1], vec![2.0]).unwrap();
        opt.step(&mut [&mut p]);
        p.value.as_slice()[0]
    }

    #[test]
    fn sgd_takes_lr_scaled_step() {
        assert!((one_step(&mut Sgd::new(0.1)) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn rmsprop_first_step_is_lr_over_sqrt_one_minus_rho() {
        // cache = 0.1*g² → step = lr·g/(√(0.1·4)) = 0.01·2/0.6325 ≈ 0.0316.
        let v = one_step(&mut RmsProp::new(0.01));
        assert!(
            (v - (1.0 - 0.01 * 2.0 / (0.4f32).sqrt())).abs() < 1e-4,
            "{v}"
        );
    }

    #[test]
    fn adam_first_step_approximates_lr() {
        // With bias correction the first Adam step is ≈ lr·sign(g).
        let v = one_step(&mut Adam::new(0.01));
        assert!((v - 0.99).abs() < 1e-4, "{v}");
    }

    #[test]
    fn adadelta_moves_against_gradient() {
        let v = one_step(&mut AdaDelta::new());
        assert!(v < 1.0);
    }

    /// All optimizers must descend a simple quadratic.
    #[test]
    fn all_optimizers_descend_quadratic() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Sgd::new(0.1)),
            Box::new(Sgd::with_momentum(0.05, 0.9)),
            Box::new(RmsProp::new(0.05)),
            Box::new(Adam::new(0.1)),
            Box::new(AdaDelta::new()),
        ];
        for mut opt in opts {
            let mut p = Param::new(Tensor::from_vec(vec![1], vec![3.0]).unwrap());
            // AdaDelta's unit-free steps start tiny; give everyone a long
            // horizon so the test measures convergence, not speed.
            for _ in 0..3000 {
                let theta = p.value.as_slice()[0];
                p.grad = Tensor::from_vec(vec![1], vec![2.0 * theta]).unwrap();
                opt.step(&mut [&mut p]);
            }
            let theta = p.value.as_slice()[0];
            assert!(theta.abs() < 0.5, "failed to descend: θ = {theta}");
        }
    }

    #[test]
    fn momentum_accelerates_along_consistent_gradient() {
        let mut plain = Param::new(Tensor::from_vec(vec![1], vec![0.0]).unwrap());
        let mut mom = Param::new(Tensor::from_vec(vec![1], vec![0.0]).unwrap());
        let mut sgd = Sgd::new(0.1);
        let mut sgdm = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..10 {
            plain.grad = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
            mom.grad = Tensor::from_vec(vec![1], vec![1.0]).unwrap();
            sgd.step(&mut [&mut plain]);
            sgdm.step(&mut [&mut mom]);
        }
        assert!(mom.value.as_slice()[0] < plain.value.as_slice()[0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = RmsProp::new(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        o.set_learning_rate(0.001);
        assert_eq!(o.learning_rate(), 0.001);
    }
}
