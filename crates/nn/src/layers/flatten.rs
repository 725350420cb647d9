//! Flatten layer: `[N, C, H, W] → [N, C·H·W]`.

use crate::layers::{Layer, PerSample};
use crate::tensor::Tensor;

/// Flattens every batch item into a feature vector.
#[derive(Clone)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_shape: Vec::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        self.cached_shape = input.shape().to_vec();
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.reshaped(&[input.batch_size(), input.item_len()])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.reshaped(&self.cached_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn per_sample(&self) -> Option<PerSample<'_>> {
        Some(PerSample::Flatten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_restore_shapes() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 60]);
        let g = Tensor::zeros(&[2, 60]);
        assert_eq!(f.backward(&g).shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn data_order_is_preserved() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = f.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }
}
