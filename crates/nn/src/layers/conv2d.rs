//! 2-D convolution (valid padding, stride 1) via direct kernels.
//!
//! The paper's CNN (Fig. 8) stacks 3 × 3 convolutions with ReLU activations
//! and pooling; Keras' default "valid" padding is used, so each convolution
//! shrinks the spatial size by `kernel - 1`.
//!
//! Each pass — forward, input gradient, weight gradient — is one call into
//! the direct kernels of `crate::kernels`, which read the whole mini-batch's
//! `[N, C, H, W]` tensors in place.  The weight and bias gradients sum
//! per-sample partials in fixed sample order, so results are bit-identical
//! to the historical per-sample loops, and to the sample-sharded training
//! step that adds the same partials on its calling thread.

use crate::init::glorot_uniform;
use crate::kernels::{self, ConvGeometry};
use crate::layers::{Layer, PerSample};
use crate::param::Parameter;
use crate::tensor::Tensor;
use rand::Rng;

/// A 2-D convolution layer with square kernels, stride 1 and valid padding.
#[derive(Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Weight stored as `[out_channels, in_channels * kernel * kernel]`.
    weight: Parameter,
    /// Bias stored as `[out_channels]`.
    bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Glorot-uniform weights.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel >= 1, "kernel must be at least 1");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Parameter::new(glorot_uniform(fan_in, fan_out, out_channels * fan_in, rng));
        let bias = Parameter::new(vec![0.0; out_channels]);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Output spatial size for an input spatial size (valid padding).
    ///
    /// # Panics
    /// Panics when the kernel is larger than the input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.geometry(h, w).output_hw()
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry::valid(self.in_channels, h, w, self.kernel)
    }

    /// The forward arithmetic shared by `forward` and `infer`.
    fn forward_batch(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [N, C, H, W]");
        assert_eq!(shape[1], self.in_channels, "Conv2d channel mismatch");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let geometry = self.geometry(h, w);
        let (oh, ow) = geometry.output_hw();
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        kernels::conv2d_forward(
            input.data(),
            n,
            &geometry,
            &self.weight.value,
            &self.bias.value,
            self.out_channels,
            out.data_mut(),
        );
        out
    }

    /// Accumulates the weight and bias gradients for the cached forward
    /// pass (shared by `backward` and `backward_head`).  Returns the
    /// batch size and the geometry of the cached input.
    fn accumulate_parameter_grads(&mut self, grad_output: &Tensor) -> (usize, ConvGeometry) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let shape = input.shape();
        let n = shape[0];
        let geometry = self.geometry(shape[2], shape[3]);
        let (oh, ow) = geometry.output_hw();
        assert_eq!(
            grad_output.shape(),
            &[n, self.out_channels, oh, ow],
            "Conv2d gradient shape mismatch"
        );
        kernels::conv2d_weight_grad(
            input.data(),
            grad_output.data(),
            n,
            &geometry,
            self.out_channels,
            &mut self.weight.grad,
        );

        // db: per-sample sums, added in sample order.
        let mut sums = vec![0.0f32; n * self.out_channels];
        bias_sums(grad_output.data(), oh * ow, &mut sums);
        for sample in sums.chunks_exact(self.out_channels.max(1)) {
            for (acc, &s) in self.bias.grad.iter_mut().zip(sample) {
                *acc += s;
            }
        }
        (n, geometry)
    }
}

/// Per-sample bias-gradient partials: the sum, from `+0.0` in row-major
/// order, of each `plane`-long channel plane of an `[N, out_channels, oh,
/// ow]` output gradient, written to `sums` (`N × out_channels`).
pub(crate) fn bias_sums(grad_output: &[f32], plane: usize, sums: &mut [f32]) {
    assert_eq!(
        grad_output.len(),
        plane * sums.len(),
        "Conv2d bias sum size"
    );
    for (k, s) in sums.iter_mut().enumerate() {
        *s = vvd_dsp::accum::sum_f32(grad_output[k * plane..][..plane].iter().copied());
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let out = self.forward_batch(input);
        self.cached_input = Some(input.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.forward_batch(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (n, geometry) = self.accumulate_parameter_grads(grad_output);
        let mut grad_input = Tensor::zeros(&[n, self.in_channels, geometry.height, geometry.width]);
        kernels::conv2d_input_grad(
            grad_output.data(),
            n,
            &geometry,
            &self.weight.value,
            self.out_channels,
            grad_input.data_mut(),
        );
        grad_input
    }

    fn backward_head(&mut self, grad_output: &Tensor) {
        // First layer of the network: nobody consumes the input gradient,
        // so only the parameter gradients are accumulated (bit-identical
        // to the ones `backward` produces).
        let _ = self.accumulate_parameter_grads(grad_output);
    }

    fn parameters(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn per_sample(&self) -> Option<PerSample<'_>> {
        Some(PerSample::Conv {
            out_channels: self.out_channels,
            kernel: self.kernel,
            weight: &self.weight.value,
            bias: &self.bias.value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(in_c: usize, out_c: usize, k: usize) -> Conv2d {
        let mut rng = StdRng::seed_from_u64(0);
        Conv2d::new(in_c, out_c, k, &mut rng)
    }

    #[test]
    fn output_shape_valid_padding() {
        let mut conv = layer(1, 2, 3);
        let x = Tensor::zeros(&[1, 1, 5, 7]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "convolution kernel 3x3 does not fit a 2x2 input")]
    fn kernel_larger_than_input_panics_instead_of_wrapping() {
        // Checked in release builds too: the subtraction never wraps.
        let _ = layer(1, 1, 3).output_hw(2, 2);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut conv = layer(1, 1, 1);
        conv.weight.value = vec![1.0];
        conv.bias.value = vec![0.0];
        let x = Tensor::from_vec(&[1, 1, 2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution_result() {
        let mut conv = layer(1, 1, 3);
        conv.weight.value = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]; // centre tap
        conv.bias.value = vec![0.5];
        let x = Tensor::from_vec(
            &[1, 1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn bias_gradient_is_sum_of_output_grad() {
        let mut conv = layer(1, 2, 3);
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| i as f32 * 0.1).collect());
        let y = conv.forward(&x, true);
        let g = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let _ = conv.backward(&g);
        // Each output map is 2x2 = 4 elements of ones.
        assert!((conv.bias.grad[0] - 4.0).abs() < 1e-5);
        assert!((conv.bias.grad[1] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_weights() {
        // Numerical gradient check on a tiny convolution.
        let mut conv = layer(1, 1, 2);
        let x = Tensor::from_vec(
            &[1, 1, 3, 3],
            vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6, 0.7, 0.8, 0.9],
        );
        // Loss = sum of outputs.
        let y = conv.forward(&x, true);
        let g = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let _ = conv.backward(&g);
        let analytic = conv.weight.grad.clone();
        let eps = 1e-3f32;
        for (idx, &analytic_grad) in analytic.iter().enumerate() {
            let orig = conv.weight.value[idx];
            conv.weight.value[idx] = orig + eps;
            let y_plus: f32 = conv.forward(&x, true).data().iter().sum();
            conv.weight.value[idx] = orig - eps;
            let y_minus: f32 = conv.forward(&x, true).data().iter().sum();
            conv.weight.value[idx] = orig;
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic_grad).abs() < 1e-2,
                "weight {idx}: numeric {numeric} vs analytic {analytic_grad}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut conv = layer(1, 1, 2);
        let x_data = vec![0.3, -0.1, 0.2, 0.5, -0.4, 0.6, 0.1, 0.0, -0.2];
        let x = Tensor::from_vec(&[1, 1, 3, 3], x_data.clone());
        let y = conv.forward(&x, true);
        let g = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let grad_input = conv.backward(&g);
        let eps = 1e-3f32;
        for idx in 0..x_data.len() {
            let mut plus = x_data.clone();
            plus[idx] += eps;
            let mut minus = x_data.clone();
            minus[idx] -= eps;
            let yp: f32 = conv
                .forward(&Tensor::from_vec(&[1, 1, 3, 3], plus), true)
                .data()
                .iter()
                .sum();
            let ym: f32 = conv
                .forward(&Tensor::from_vec(&[1, 1, 3, 3], minus), true)
                .data()
                .iter()
                .sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - grad_input.data()[idx]).abs() < 1e-2,
                "input {idx}: numeric {numeric} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn multi_channel_shapes() {
        let mut conv = layer(3, 5, 3);
        let x = Tensor::zeros(&[2, 3, 10, 12]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 5, 8, 10]);
        assert_eq!(conv.parameter_count(), 5 * 3 * 9 + 5);
        let g = Tensor::zeros(y.shape());
        let gi = conv.backward(&g);
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn backward_head_accumulates_identical_parameter_grads() {
        let x = Tensor::from_vec(
            &[2, 1, 5, 6],
            (0..60).map(|i| (i as f32 * 0.19).sin()).collect(),
        );
        let mut full = layer(1, 3, 3);
        let mut head = full.clone();
        let y = full.forward(&x, true);
        let _ = head.forward(&x, true);
        let g = Tensor::from_vec(
            y.shape(),
            (0..y.len()).map(|i| (i as f32 * 0.07).cos()).collect(),
        );
        let _ = full.backward(&g);
        head.backward_head(&g);
        assert_eq!(full.weight.grad, head.weight.grad);
        assert_eq!(full.bias.grad, head.bias.grad);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut conv = layer(2, 3, 3);
        let x = Tensor::from_vec(
            &[2, 2, 5, 6],
            (0..120).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let trained = conv.forward(&x, false);
        assert_eq!(conv.infer(&x).data(), trained.data());
    }

    #[test]
    fn batched_backward_equals_per_sample_accumulation() {
        // Gradients from one batched pass must equal the sum of per-sample
        // passes accumulated in sample order — bit for bit.
        let x = Tensor::from_vec(
            &[3, 1, 4, 5],
            (0..60).map(|i| (i as f32 * 0.13).cos()).collect(),
        );
        let g_data: Vec<f32> = (0..3 * 2 * 3 * 4)
            .map(|i| (i as f32 * 0.21).sin())
            .collect();
        let mut batched = layer(1, 2, 2);
        let y = batched.forward(&x, true);
        assert_eq!(y.shape(), &[3, 2, 3, 4]);
        let g = Tensor::from_vec(&[3, 2, 3, 4], g_data.clone());
        let gi = batched.backward(&g);

        let mut per_sample = layer(1, 2, 2);
        let mut gi_items: Vec<f32> = Vec::new();
        for i in 0..3 {
            let xi = Tensor::from_vec(&[1, 1, 4, 5], x.item(i).to_vec());
            let _ = per_sample.forward(&xi, true);
            let gi_item = per_sample.backward(&Tensor::from_vec(&[1, 2, 3, 4], g.item(i).to_vec()));
            gi_items.extend_from_slice(gi_item.data());
        }
        assert_eq!(batched.weight.grad, per_sample.weight.grad);
        assert_eq!(batched.bias.grad, per_sample.bias.grad);
        assert_eq!(gi.data(), &gi_items[..]);
    }
}
