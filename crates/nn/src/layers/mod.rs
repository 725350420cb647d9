//! Neural-network layers.
//!
//! Every layer implements [`Layer`]: a forward pass that caches whatever it
//! needs for the backward pass, a backward pass that accumulates parameter
//! gradients and returns the gradient with respect to its input, and access
//! to its trainable [`Parameter`]s for the optimizer.
//!
//! Image tensors follow the `[batch, channels, height, width]` convention;
//! fully-connected tensors are `[batch, features]`.

mod activation;
mod batchnorm;
mod conv2d;
mod dense;
mod dropout;
mod flatten;
mod pool;

pub use activation::Relu;
pub(crate) use activation::{relu_backward, relu_in_place};
pub use batchnorm::BatchNorm2d;
pub(crate) use conv2d::bias_sums;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub(crate) use pool::{avg_pool, avg_pool_backward, max_pool, max_pool_backward};
pub use pool::{AvgPool2d, MaxPool2d};

use crate::param::Parameter;
use crate::tensor::Tensor;

/// A differentiable network layer.
///
/// Layers are `Send + Sync` and clonable through [`Layer::clone_box`]:
/// trained models can be duplicated into worker threads, and — because
/// [`Layer::infer`] takes `&self` — a single trained model behind an
/// [`std::sync::Arc`] can serve predictions from many estimators at once
/// without cloning its weights.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch.  `training` toggles
    /// behaviour that differs between training and inference (dropout,
    /// batch-norm statistics).
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Inference-only forward pass: bit-identical to
    /// `forward(input, false)` but without any cache writes, so a shared
    /// (immutably borrowed) trained layer can serve predictions.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// Clones the layer behind the trait object (deep copy of parameters,
    /// caches and any RNG state).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Propagates the gradient of the loss with respect to the layer output
    /// back to the layer input, accumulating parameter gradients on the way.
    ///
    /// Must be called after a corresponding `forward` call.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Backward pass for the *first* layer of a network, whose input
    /// gradient nobody consumes: accumulates parameter gradients only.
    /// The default computes and discards the input gradient; layers with
    /// an expensive input-gradient path (convolution) override it.
    /// Parameter gradients are bit-identical to [`Layer::backward`]'s.
    fn backward_head(&mut self, grad_output: &Tensor) {
        let _ = self.backward(grad_output);
    }

    /// The layer's trainable parameters (empty for stateless layers).
    fn parameters(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Non-trainable state that inference depends on (batch-norm running
    /// statistics), in a fixed per-layer order.  Empty for most layers.
    fn buffers(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Restores state captured by [`Layer::buffers`].
    ///
    /// # Panics
    /// Panics when the buffer layout does not match the layer.
    fn load_buffers(&mut self, buffers: &[Vec<f32>]) {
        assert!(
            buffers.is_empty(),
            "{} has no buffers, got {}",
            self.name(),
            buffers.len()
        );
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// The layer as a step of the sample-sharded model passes, when its
    /// training pass treats every sample of a batch on its own.  `None`
    /// (the default) for layers that couple a batch in training — a dense
    /// layer's weight gradient, batch statistics, a dropout stream — which
    /// end the sharded prefix of a training step.
    fn per_sample(&self) -> Option<PerSample<'_>> {
        None
    }
}

/// What a per-sample layer does to one sample's activation: the view the
/// sample-sharded passes of [`crate::Sequential`] run it through.
#[derive(Debug, Clone, Copy)]
pub enum PerSample<'a> {
    /// A square-kernel, stride-1, valid-padding convolution whose
    /// parameters are `[weight, bias]`.
    Conv {
        /// Output channels.
        out_channels: usize,
        /// Kernel size.
        kernel: usize,
        /// `out_channels × in_channels·kernel²` weights.
        weight: &'a [f32],
        /// Per-output-channel bias.
        bias: &'a [f32],
    },
    /// Element-wise `max(x, 0)`.
    Relu,
    /// Square average pooling with matching stride.
    AvgPool {
        /// Window size.
        window: usize,
    },
    /// Square max pooling with matching stride.
    MaxPool {
        /// Window size.
        window: usize,
    },
    /// `[C, H, W]` to `[C·H·W]`; the data does not move.
    Flatten,
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
