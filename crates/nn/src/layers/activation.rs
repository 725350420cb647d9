//! Activation functions.
//!
//! The paper uses ReLU after every convolution and after the first dense
//! layer (Sec. 4).

use crate::layers::{Layer, PerSample};
use crate::tensor::Tensor;

/// `max(v, 0)` in place, the ReLU of every element.
pub(crate) fn relu_in_place(values: &mut [f32]) {
    for v in values {
        *v = v.max(0.0);
    }
}

/// ReLU backward from the layer's *output*: keeps a gradient element where
/// the output is `> 0` and writes `+0.0` elsewhere.  `max(v, 0) > 0`
/// exactly when `v > 0` (NaN, `±0` and negatives all map to a zero), so
/// this is the input mask [`Relu`] caches, without caching it.  Written as
/// a select so the loop vectorises.
pub(crate) fn relu_backward(output: &[f32], grad: &mut [f32]) {
    assert_eq!(output.len(), grad.len(), "ReLU gradient size");
    for (g, &y) in grad.iter_mut().zip(output) {
        *g = if y > 0.0 { *g } else { 0.0 };
    }
}

/// Rectified linear unit applied element-wise.
#[derive(Clone)]
pub struct Relu {
    cached_mask: Vec<bool>,
    cached_shape: Vec<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu {
            cached_mask: Vec::new(),
            cached_shape: Vec::new(),
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        self.cached_mask = input.data().iter().map(|&v| v > 0.0).collect();
        self.cached_shape = input.shape().to_vec();
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        relu_in_place(out.data_mut());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(grad_output.len(), self.cached_mask.len());
        Tensor::from_vec(
            &self.cached_shape,
            grad_output
                .data()
                .iter()
                .zip(self.cached_mask.iter())
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn per_sample(&self) -> Option<PerSample<'_>> {
        Some(PerSample::Relu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 3.0, -0.5, 2.0]);
        let _ = relu.forward(&x, true);
        let g = Tensor::from_vec(&[1, 4], vec![1.0, 1.0, 1.0, 1.0]);
        let gi = relu.backward(&g);
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // The subgradient at exactly zero is taken as 0.
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 1], vec![0.0]);
        let _ = relu.forward(&x, true);
        let gi = relu.backward(&Tensor::from_vec(&[1, 1], vec![7.0]));
        assert_eq!(gi.data(), &[0.0]);
    }

    #[test]
    fn output_mask_equals_input_mask_on_special_values() {
        // The sharded passes mask by the output, the layer by its cached
        // input: both must keep exactly the same gradient elements.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let x = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::MIN_POSITIVE,
            1.5,
            -2.5,
        ];
        let g: Vec<f32> = (1..=x.len()).map(|i| i as f32).collect();
        let mut relu = Relu::new();
        let shape = [1, x.len()];
        let y = relu.forward(&Tensor::from_vec(&shape, x.clone()), true);
        let by_input = relu.backward(&Tensor::from_vec(&shape, g.clone()));

        let mut out = x;
        relu_in_place(&mut out);
        let mut by_output = g;
        relu_backward(&out, &mut by_output);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(y.data()));
        assert_eq!(bits(&by_output), bits(by_input.data()));
        assert_eq!(bits(&by_output[4..7]), bits(&[5.0, 0.0, 7.0]));
    }
}
