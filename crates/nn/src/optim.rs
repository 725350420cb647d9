//! Optimizers.
//!
//! The paper trains with the Nadam optimizer (Adam with Nesterov momentum),
//! initial learning rate 1e-4 and the Keras default schedule
//! `lr_t = lr / (1 + decay · t)` with `decay = 0.004` applied per update.
//! SGD and plain Adam are provided for comparison and tests.

use crate::param::Parameter;

/// A gradient-descent style optimizer that updates one [`Parameter`] at a
/// time (all state that is per-parameter lives inside the parameter's moment
/// buffers).
pub trait Optimizer {
    /// Applies one update to a parameter using its accumulated gradient.
    fn update(&self, param: &mut Parameter);

    /// Advances the global step counter (call once per mini-batch, after all
    /// parameters have been updated).
    fn advance(&mut self);

    /// Current effective learning rate (after any decay schedule).
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    step: u64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            step: 0,
        }
    }
}

impl Optimizer for Sgd {
    fn update(&self, param: &mut Parameter) {
        for i in 0..param.len() {
            if self.momentum > 0.0 {
                param.m[i] = self.momentum * param.m[i] + param.grad[i];
                param.value[i] -= self.lr * param.m[i];
            } else {
                param.value[i] -= self.lr * param.grad[i];
            }
        }
    }

    fn advance(&mut self) {
        self.step += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer (Kingma & Ba).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Base learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub epsilon: f32,
    /// Learning-rate decay per step (Keras-style `lr / (1 + decay * t)`).
    pub decay: f32,
    step: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the usual defaults.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            decay: 0.0,
            step: 0,
        }
    }

    fn effective_lr(&self) -> f32 {
        self.lr / (1.0 + self.decay * self.step as f32)
    }
}

impl Optimizer for Adam {
    fn update(&self, param: &mut Parameter) {
        let t = (self.step + 1) as f32;
        let lr = self.effective_lr();
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for i in 0..param.len() {
            let g = param.grad[i];
            param.m[i] = self.beta1 * param.m[i] + (1.0 - self.beta1) * g;
            param.v[i] = self.beta2 * param.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = param.m[i] / bc1;
            let v_hat = param.v[i] / bc2;
            param.value[i] -= lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn advance(&mut self) {
        self.step += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.effective_lr()
    }
}

/// Nadam optimizer: Adam with Nesterov momentum, as used by the paper
/// (initial learning rate 1e-4, decay 0.004).
#[derive(Debug, Clone)]
pub struct Nadam {
    /// Base learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub epsilon: f32,
    /// Learning-rate decay per step (Keras-style `lr / (1 + decay * t)`).
    pub decay: f32,
    step: u64,
}

impl Nadam {
    /// Creates a Nadam optimizer with the paper's hyper-parameters.
    pub fn paper_defaults() -> Self {
        Nadam::new(1e-4, 0.004)
    }

    /// Creates a Nadam optimizer.
    pub fn new(lr: f32, decay: f32) -> Self {
        Nadam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            decay,
            step: 0,
        }
    }

    fn effective_lr(&self) -> f32 {
        self.lr / (1.0 + self.decay * self.step as f32)
    }
}

impl Optimizer for Nadam {
    fn update(&self, param: &mut Parameter) {
        let t = (self.step + 1) as f32;
        let lr = self.effective_lr();
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc1_next = 1.0 - self.beta1.powf(t + 1.0);
        let bc2 = 1.0 - self.beta2.powf(t);
        for i in 0..param.len() {
            let g = param.grad[i];
            param.m[i] = self.beta1 * param.m[i] + (1.0 - self.beta1) * g;
            param.v[i] = self.beta2 * param.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = param.m[i] / bc1_next;
            let v_hat = param.v[i] / bc2;
            // Nesterov look-ahead on the first moment.
            let m_nesterov = self.beta1 * m_hat + (1.0 - self.beta1) * g / bc1;
            param.value[i] -= lr * m_nesterov / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn advance(&mut self) {
        self.step += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.effective_lr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 with each optimizer and check convergence.
    fn minimise<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        let mut p = Parameter::new(vec![0.0]);
        for _ in 0..steps {
            p.zero_grad();
            p.grad[0] = 2.0 * (p.value[0] - 3.0);
            opt.update(&mut p);
            opt.advance();
        }
        p.value[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimise(Sgd::new(0.1, 0.0), 200);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let plain = minimise(Sgd::new(0.02, 0.0), 60);
        let with_momentum = minimise(Sgd::new(0.02, 0.9), 60);
        assert!((with_momentum - 3.0).abs() < (plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimise(Adam::new(0.1), 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn nadam_converges_on_quadratic() {
        let x = minimise(Nadam::new(0.1, 0.0), 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn learning_rate_decay_reduces_lr() {
        let mut n = Nadam::paper_defaults();
        let lr0 = n.learning_rate();
        for _ in 0..100 {
            n.advance();
        }
        assert!(n.learning_rate() < lr0);
        assert!((n.learning_rate() - 1e-4 / 1.4).abs() < 1e-7);
    }

    #[test]
    fn paper_defaults_match_section_4() {
        let n = Nadam::paper_defaults();
        assert!((n.lr - 1e-4).abs() < 1e-12);
        assert!((n.decay - 0.004).abs() < 1e-12);
    }
}
