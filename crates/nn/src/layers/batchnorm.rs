//! Batch normalisation over the channel dimension of `[N, C, H, W]` inputs.
//!
//! The paper reports that *removing* the batch-normalisation layers of the
//! reference architecture from [13] did not change accuracy while reducing
//! training time (Sec. 4); the layer is provided so that the ablation bench
//! can reproduce that observation.

use crate::layers::Layer;
use crate::param::Parameter;
use crate::tensor::Tensor;

/// Batch normalisation with learnable per-channel scale and shift.
#[derive(Clone)]
pub struct BatchNorm2d {
    channels: usize,
    epsilon: f32,
    momentum: f32,
    gamma: Parameter,
    beta: Parameter,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Cached values for backward.
    cached_input: Option<Tensor>,
    cached_mean: Vec<f32>,
    cached_var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for the given number of channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            epsilon: 1e-5,
            momentum: 0.1,
            gamma: Parameter::new(vec![1.0; channels]),
            beta: Parameter::new(vec![0.0; channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_input: None,
            cached_mean: vec![0.0; channels],
            cached_var: vec![1.0; channels],
        }
    }

    fn channel_stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let shape = input.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let count = (n * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for i in 0..n {
            let item = input.item(i);
            for ch in 0..c {
                for v in &item[ch * h * w..(ch + 1) * h * w] {
                    mean[ch] += v;
                }
            }
        }
        for m in mean.iter_mut() {
            *m /= count;
        }
        for i in 0..n {
            let item = input.item(i);
            for ch in 0..c {
                for v in &item[ch * h * w..(ch + 1) * h * w] {
                    let d = v - mean[ch];
                    var[ch] += d * d;
                }
            }
        }
        for v in var.iter_mut() {
            *v /= count;
        }
        (mean, var)
    }

    /// Normalises the input with the given per-channel statistics.
    fn normalize(&self, input: &Tensor, mean: &[f32], var: &[f32]) -> Tensor {
        let shape = input.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut out = Tensor::zeros(shape);
        for i in 0..n {
            let item = input.item(i);
            let out_item = out.item_mut(i);
            for ch in 0..c {
                let inv_std = 1.0 / (var[ch] + self.epsilon).sqrt();
                let g = self.gamma.value[ch];
                let b = self.beta.value[ch];
                for idx in ch * h * w..(ch + 1) * h * w {
                    out_item[idx] = (item[idx] - mean[ch]) * inv_std * g + b;
                }
            }
        }
        out
    }
}

impl Layer for BatchNorm2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "BatchNorm2d expects [N, C, H, W]");
        assert_eq!(shape[1], self.channels, "BatchNorm2d channel mismatch");
        let c = shape[1];

        let (mean, var) = if training {
            let (m, v) = self.channel_stats(input);
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * m[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * v[ch];
            }
            (m, v)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let out = self.normalize(input, &mean, &var);
        self.cached_input = Some(input.clone());
        self.cached_mean = mean;
        self.cached_var = var;
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "BatchNorm2d expects [N, C, H, W]");
        assert_eq!(shape[1], self.channels, "BatchNorm2d channel mismatch");
        self.normalize(input, &self.running_mean, &self.running_var)
    }

    fn buffers(&self) -> Vec<Vec<f32>> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }

    fn load_buffers(&mut self, buffers: &[Vec<f32>]) {
        assert_eq!(buffers.len(), 2, "BatchNorm2d expects 2 buffers");
        assert_eq!(buffers[0].len(), self.channels, "running-mean size");
        assert_eq!(buffers[1].len(), self.channels, "running-var size");
        self.running_mean.copy_from_slice(&buffers[0]);
        self.running_var.copy_from_slice(&buffers[1]);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        // Standard batch-norm backward pass (per channel).
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let shape = input.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let count = (n * h * w) as f32;
        let mut grad_input = Tensor::zeros(shape);

        for ch in 0..c {
            let mean = self.cached_mean[ch];
            let var = self.cached_var[ch];
            let inv_std = 1.0 / (var + self.epsilon).sqrt();
            let gamma = self.gamma.value[ch];

            // Accumulate the channel-wide sums needed by the backward formula.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in 0..n {
                let g = grad_output.item(i);
                let x = input.item(i);
                for idx in ch * h * w..(ch + 1) * h * w {
                    let xhat = (x[idx] - mean) * inv_std;
                    sum_dy += g[idx];
                    sum_dy_xhat += g[idx] * xhat;
                }
            }
            self.beta.grad[ch] += sum_dy;
            self.gamma.grad[ch] += sum_dy_xhat;

            for i in 0..n {
                let g = grad_output.item(i);
                let x = input.item(i);
                let gi = grad_input.item_mut(i);
                for idx in ch * h * w..(ch + 1) * h * w {
                    let xhat = (x[idx] - mean) * inv_std;
                    gi[idx] =
                        gamma * inv_std / count * (count * g[idx] - sum_dy - xhat * sum_dy_xhat);
                }
            }
        }
        grad_input
    }

    fn parameters(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_output_is_normalised_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec(
            &[2, 2, 1, 2],
            vec![1.0, 3.0, 10.0, 20.0, 5.0, 7.0, 30.0, 40.0],
        );
        let y = bn.forward(&x, true);
        // Per-channel mean ~0, variance ~1.
        let shape = y.shape().to_vec();
        let (n, _c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..n {
                let item = y.item(i);
                vals.extend_from_slice(&item[ch * h * w..(ch + 1) * h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn inference_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(&[4, 1, 1, 1], vec![2.0, 4.0, 6.0, 8.0]);
        // A few training passes to build the running stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]), false);
        // 5.0 is the mean of the training batch, so the output should be ~0.
        assert!(y.data()[0].abs() < 0.2, "inference output {}", y.data()[0]);
    }

    #[test]
    fn gradient_check_input() {
        let mut bn = BatchNorm2d::new(1);
        let x_data = vec![0.5, -1.0, 2.0, 0.3, 1.4, -0.7];
        let x = Tensor::from_vec(&[3, 1, 1, 2], x_data.clone());
        let y = bn.forward(&x, true);
        // Loss = weighted sum so the gradient is non-uniform.
        let weights: Vec<f32> = (0..y.len()).map(|i| 0.3 + 0.2 * i as f32).collect();
        let g = Tensor::from_vec(y.shape(), weights.clone());
        let grad_input = bn.backward(&g);
        let eps = 1e-2f32;
        for idx in 0..x_data.len() {
            let mut plus = x_data.clone();
            plus[idx] += eps;
            let mut minus = x_data.clone();
            minus[idx] -= eps;
            let loss = |bn: &mut BatchNorm2d, data: Vec<f32>| -> f32 {
                bn.forward(&Tensor::from_vec(&[3, 1, 1, 2], data), true)
                    .data()
                    .iter()
                    .zip(weights.iter())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let numeric = (loss(&mut bn, plus) - loss(&mut bn, minus)) / (2.0 * eps);
            assert!(
                (numeric - grad_input.data()[idx]).abs() < 0.05,
                "input {idx}: numeric {numeric} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn multi_channel_gradients_match_the_formula_bit_for_bit() {
        let (n, c, h, w) = (2, 3, 2, 3);
        let plane = h * w;
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = vec![0.5, 1.5, -2.0];
        bn.beta.value = vec![0.1, -0.2, 0.3];
        let x = Tensor::from_vec(
            &[n, c, h, w],
            (0..n * c * plane)
                .map(|i| (i as f32 * 0.37).sin() * (1.0 + i as f32 * 0.1))
                .collect(),
        );
        let g = Tensor::from_vec(
            &[n, c, h, w],
            (0..n * c * plane)
                .map(|i| (i as f32 * 0.91).cos() + 0.2)
                .collect(),
        );
        let _ = bn.forward(&x, true);
        let grad_input = bn.backward(&g);

        // The backward formula, evaluated element by element in the
        // layer's own summation order.
        let count = (n * plane) as f32;
        let at = |t: &Tensor, i: usize, ch: usize, k: usize| t.item(i)[ch * plane + k];
        for ch in 0..c {
            let (mean, gamma) = (bn.cached_mean[ch], bn.gamma.value[ch]);
            let inv_std = 1.0 / (bn.cached_var[ch] + bn.epsilon).sqrt();
            let xhat = |i: usize, k: usize| (at(&x, i, ch, k) - mean) * inv_std;
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for i in 0..n {
                for k in 0..plane {
                    sum_dy += at(&g, i, ch, k);
                    sum_dy_xhat += at(&g, i, ch, k) * xhat(i, k);
                }
            }
            assert_eq!(bn.beta.grad[ch].to_bits(), sum_dy.to_bits(), "beta {ch}");
            assert_eq!(
                bn.gamma.grad[ch].to_bits(),
                sum_dy_xhat.to_bits(),
                "gamma {ch}"
            );
            for i in 0..n {
                for k in 0..plane {
                    let expected = gamma * inv_std / count
                        * (count * at(&g, i, ch, k) - sum_dy - xhat(i, k) * sum_dy_xhat);
                    assert_eq!(
                        at(&grad_input, i, ch, k).to_bits(),
                        expected.to_bits(),
                        "input ({i}, {ch}, {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn gamma_beta_are_trainable() {
        let mut bn = BatchNorm2d::new(3);
        assert_eq!(bn.parameters().len(), 2);
        assert_eq!(bn.parameters()[0].len(), 3);
    }
}
