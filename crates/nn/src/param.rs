//! Trainable parameters.
//!
//! Each layer owns its [`Parameter`]s; a parameter bundles the value, the
//! accumulated gradient and the optimizer moment buffers so that optimizers
//! can be stateless apart from their global step counter.

/// A trainable parameter tensor (flattened storage; the owning layer knows
/// its logical shape).
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Current value.
    pub value: Vec<f32>,
    /// Gradient accumulated by the current backward pass.
    pub grad: Vec<f32>,
    /// First-moment buffer (Adam/Nadam).
    pub m: Vec<f32>,
    /// Second-moment buffer (Adam/Nadam).
    pub v: Vec<f32>,
}

impl Parameter {
    /// Creates a parameter from initial values.
    pub fn new(value: Vec<f32>) -> Self {
        let n = value.len();
        Parameter {
            value,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Number of scalar values.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        for g in self.grad.iter_mut() {
            *g = 0.0;
        }
    }

    /// L2 norm of the gradient (useful for tests and debugging).
    pub fn grad_norm(&self) -> f32 {
        self.grad.iter().map(|g| g * g).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_allocates_buffers() {
        let p = Parameter::new(vec![1.0, -2.0, 3.0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.grad, vec![0.0; 3]);
        assert_eq!(p.m, vec![0.0; 3]);
        assert_eq!(p.v, vec![0.0; 3]);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears_accumulator() {
        let mut p = Parameter::new(vec![1.0, 1.0]);
        p.grad = vec![0.5, -0.5];
        assert!(p.grad_norm() > 0.0);
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0, 0.0]);
        assert_eq!(p.grad_norm(), 0.0);
    }
}
