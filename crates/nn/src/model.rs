//! Sequential model container and its sample-sharded passes.
//!
//! A batch's samples are independent through a network's leading
//! per-sample layers (convolution, ReLU, pooling, flatten — see
//! [`crate::layers::PerSample`]), so every model pass cuts the batch into
//! contiguous sample shards, one per worker of [`vvd_dsp::worker_budget`],
//! and fans out once per pass over per-shard buffers:
//!
//! * **inference** ([`Sequential::infer`]) runs the whole network per
//!   shard — past the prefix through [`Layer::infer`], which treats every
//!   sample on its own too;
//! * **a training step** runs the prefix forward per shard, the
//!   batch-coupled tail (dense layers, and batch norm or dropout, which end
//!   the prefix) on the calling thread, then the prefix backward per
//!   shard; the calling thread adds the shards' per-sample convolution
//!   partials into the gradients in sample order.
//!
//! No element's arithmetic or addition order depends on the shard count,
//! so every result is bit-identical to the per-layer [`Layer::forward`] /
//! [`Layer::backward`] chain over the whole batch.

use crate::layers::Layer;
use crate::loss::mse;
use crate::optim::Optimizer;
use crate::shard::{add_partials, each_shard, Scratch};
use crate::tensor::Tensor;

/// A stack of layers executed in order.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[allow(clippy::should_implement_trait)] // builder push, not arithmetic
    pub fn add<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order (for summaries and tests).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&mut self) -> usize {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .map(|p| p.len())
            .sum()
    }

    /// Inference pass through every layer without touching any layer
    /// caches, usable through a shared reference (e.g. a trained model
    /// behind an [`std::sync::Arc`] serving many estimators at once).  The
    /// batch runs in sample shards over [`vvd_dsp::worker_budget`] workers;
    /// the result does not depend on their number.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_sharded(input, vvd_dsp::worker_budget())
    }

    /// Inference helper (no training-mode behaviour, no cache writes).
    pub fn predict(&self, input: &Tensor) -> Tensor {
        self.infer(input)
    }

    /// [`Sequential::infer`] over at most `shards` sample shards, in
    /// buffers that live for this call only.
    pub(crate) fn infer_sharded(&self, input: &Tensor, shards: usize) -> Tensor {
        let n = input.batch_size();
        if n == 0 {
            return self.layers.iter().fold(input.clone(), |x, l| l.infer(&x));
        }
        let mut scratch = self.scratch(&input.shape()[1..], n, shards, false);
        let samples: Vec<usize> = (0..n).collect();
        Tensor::concat(&self.infer_shards(&mut scratch, input, &samples))
    }

    /// Shard buffers for passes over batches of up to `batch` items of
    /// `item_shape` in up to `shards` shards, laid out for the prefix: the
    /// leading layers whose training pass treats every sample on its own.
    /// Backward buffers only when `backward`.
    pub(crate) fn scratch(
        &self,
        item_shape: &[usize],
        batch: usize,
        shards: usize,
        backward: bool,
    ) -> Scratch {
        let prefix = self.layers.iter().take_while(|l| l.per_sample().is_some());
        let prefix = &self.layers[..prefix.count()];
        Scratch::new(prefix, item_shape, batch, shards, backward)
    }

    /// Inference over `samples` of `x` in one fan-out: each shard runs the
    /// prefix in its buffers and the remaining layers through
    /// [`Layer::infer`].  Returns the shards' outputs in sample order.
    pub(crate) fn infer_shards(
        &self,
        scratch: &mut Scratch,
        x: &Tensor,
        samples: &[usize],
    ) -> Vec<Tensor> {
        let Scratch { layout, shards } = scratch;
        let (prefix, tail) = self.layers.split_at(layout.len());
        each_shard(shards, samples.len(), |shard, range| {
            let out = shard.forward(prefix, layout, x, &samples[range]);
            tail.iter().fold(out, |t, layer| layer.infer(&t))
        })
    }

    /// One training step's forward and backward passes over the samples
    /// `batch` of `(x, y)` under the MSE loss: accumulates every parameter
    /// gradient and returns the batch loss.
    ///
    /// The prefix runs forward and backward in sample shards; the tail runs
    /// on the calling thread through [`Layer::forward`] and
    /// [`Layer::backward`] (the network's first layer through
    /// [`Layer::backward_head`]).
    pub(crate) fn accumulate_gradients(
        &mut self,
        scratch: &mut Scratch,
        x: &Tensor,
        y: &Tensor,
        batch: &[usize],
    ) -> f32 {
        let Scratch { layout, shards } = scratch;
        let (prefix, tail) = self.layers.split_at_mut(layout.len());
        let shared: &[Box<dyn Layer>] = prefix;
        let outs = each_shard(shards, batch.len(), |shard, range| {
            shard.forward(shared, layout, x, &batch[range])
        });
        let used = outs.len();
        let mut t = Tensor::concat(&outs);
        for layer in tail.iter_mut() {
            t = layer.forward(&t, true);
        }
        let (loss, mut grad) = mse(&t, &y.select_batch(batch));
        for (k, layer) in tail.iter_mut().enumerate().rev() {
            if k == 0 && shared.is_empty() {
                layer.backward_head(&grad);
            } else {
                grad = layer.backward(&grad);
            }
        }
        if !shared.is_empty() {
            let width = grad.item_len();
            each_shard(shards, batch.len(), |shard, range| {
                let g = &grad.data()[range.start * width..range.end * width];
                shard.backward(shared, layout, g);
            });
            add_partials(prefix, &shards[..used]);
        }
        loss
    }

    /// The MSE of the network's inference over the whole of `(x, y)`, run
    /// `chunk` samples at a time through `scratch`: bit-identical to
    /// `mse_value(&self.infer(x), y)`, whose element order its one running
    /// sum keeps.
    pub(crate) fn validation_loss(
        &self,
        scratch: &mut Scratch,
        x: &Tensor,
        y: &Tensor,
        chunk: usize,
    ) -> f32 {
        assert_eq!(
            x.batch_size(),
            y.batch_size(),
            "validation set size mismatch"
        );
        let samples: Vec<usize> = (0..x.batch_size()).collect();
        let mut targets = y.data().iter();
        let mut sum = 0.0f32;
        for batch in samples.chunks(chunk.max(1)) {
            for out in self.infer_shards(scratch, x, batch) {
                assert_eq!(&out.shape()[1..], &y.shape()[1..], "MSE shape mismatch");
                for (&p, &t) in out.data().iter().zip(&mut targets) {
                    let d = p - t;
                    sum += d * d;
                }
            }
        }
        sum / y.len().max(1) as f32
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        for layer in self.layers.iter_mut() {
            for p in layer.parameters() {
                p.zero_grad();
            }
        }
    }

    /// Applies one optimizer update to every parameter and advances the
    /// optimizer step counter.
    pub fn step<O: Optimizer>(&mut self, optimizer: &mut O) {
        for layer in self.layers.iter_mut() {
            for p in layer.parameters() {
                optimizer.update(p);
            }
        }
        optimizer.advance();
    }

    /// Snapshot of every parameter value (used to keep the best-validation
    /// epoch, as the paper does).
    pub fn state(&mut self) -> Vec<Vec<f32>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .map(|p| p.value.clone())
            .collect()
    }

    /// Snapshot of every layer's non-trainable buffers (batch-norm running
    /// statistics), in layer order.
    pub fn buffers_state(&self) -> Vec<Vec<f32>> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    /// Restores a snapshot produced by [`Sequential::buffers_state`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the model's buffer layout.
    pub fn load_buffers_state(&mut self, buffers: &[Vec<f32>]) {
        let mut idx = 0usize;
        for layer in self.layers.iter_mut() {
            let count = layer.buffers().len();
            assert!(idx + count <= buffers.len(), "buffer state layout mismatch");
            layer.load_buffers(&buffers[idx..idx + count]);
            idx += count;
        }
        assert_eq!(idx, buffers.len(), "buffer state layout mismatch");
    }

    /// Restores a snapshot produced by [`Sequential::state`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the model's parameter layout.
    pub fn load_state(&mut self, state: &[Vec<f32>]) {
        let params: Vec<&mut crate::param::Parameter> = self
            .layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .collect();
        assert_eq!(params.len(), state.len(), "state layout mismatch");
        for (p, s) in params.into_iter().zip(state.iter()) {
            assert_eq!(p.len(), s.len(), "parameter size mismatch");
            p.value.copy_from_slice(s);
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu};
    use crate::optim::{Nadam, Sgd};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .add(Dense::new(2, 8, &mut rng))
            .add(Relu::new())
            .add(Dense::new(8, 1, &mut rng))
    }

    /// One training step over the whole of `(x, y)`, in two shards.
    fn train_step<O: Optimizer>(m: &mut Sequential, x: &Tensor, y: &Tensor, opt: &mut O) -> f32 {
        let batch: Vec<usize> = (0..x.batch_size()).collect();
        let mut scratch = m.scratch(&x.shape()[1..], batch.len(), 2, true);
        m.zero_grad();
        let loss = m.accumulate_gradients(&mut scratch, x, y, &batch);
        m.step(opt);
        loss
    }

    #[test]
    fn model_structure_helpers() {
        let mut m = tiny_model(0);
        assert_eq!(m.len(), 3);
        assert_eq!(m.layer_names(), vec!["Dense", "ReLU", "Dense"]);
        assert_eq!(m.parameter_count(), 2 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // Learn y = x0 + 2*x1 on a small grid.
        let mut m = tiny_model(1);
        let mut opt = Sgd::new(0.05, 0.9);
        let xs: Vec<Vec<f32>> = (0..16)
            .map(|i| vec![(i % 4) as f32 / 4.0, (i / 4) as f32 / 4.0])
            .collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|v| vec![v[0] + 2.0 * v[1]]).collect();
        let x = Tensor::stack(&xs, &[2]);
        let y = Tensor::stack(&ys, &[1]);

        let initial_loss = mse(&m.infer(&x), &y).0;
        for _ in 0..300 {
            train_step(&mut m, &x, &y, &mut opt);
        }
        let final_loss = mse(&m.infer(&x), &y).0;
        assert!(
            final_loss < initial_loss * 0.05,
            "loss did not drop enough: {initial_loss} -> {final_loss}"
        );
    }

    #[test]
    fn state_roundtrip_restores_predictions() {
        let mut m = tiny_model(2);
        let x = Tensor::from_vec(&[1, 2], vec![0.3, -0.4]);
        let before = m.predict(&x);
        let snapshot = m.state();

        // Perturb the weights by "training" on garbage.
        let mut opt = Sgd::new(0.5, 0.0);
        let garbage = Tensor::from_vec(&[1, 1], vec![100.0]);
        for _ in 0..10 {
            train_step(&mut m, &x, &garbage, &mut opt);
        }
        assert!((m.predict(&x).data()[0] - before.data()[0]).abs() > 1e-3);

        m.load_state(&snapshot);
        let after = m.predict(&x);
        assert_eq!(after.data(), before.data());
    }

    #[test]
    fn cloned_model_predicts_identically_and_is_independent() {
        let m = tiny_model(4);
        let x = Tensor::from_vec(&[1, 2], vec![0.7, -0.2]);
        let mut c = m.clone();
        assert_eq!(m.predict(&x).data(), c.predict(&x).data());

        // Training the clone must not affect the original.
        let before = m.predict(&x);
        let mut opt = Sgd::new(0.5, 0.0);
        let target = Tensor::from_vec(&[1, 1], vec![42.0]);
        for _ in 0..5 {
            train_step(&mut c, &x, &target, &mut opt);
        }
        assert_eq!(m.predict(&x).data(), before.data());
        assert!((c.predict(&x).data()[0] - before.data()[0]).abs() > 1e-3);
    }

    #[test]
    fn zero_grad_clears_all_gradients() {
        let mut m = tiny_model(3);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let mut scratch = m.scratch(&[2], 1, 1, true);
        m.accumulate_gradients(
            &mut scratch,
            &x,
            &Tensor::from_vec(&[1, 1], vec![0.0]),
            &[0],
        );
        let any_nonzero = m
            .layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .any(|p| p.grad_norm() > 0.0);
        assert!(any_nonzero);
        m.zero_grad();
        let all_zero = m
            .layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .all(|p| p.grad_norm() == 0.0);
        assert!(all_zero);
    }

    /// Image height and width of the sharding tests: the first pool has a
    /// ragged row and column, the second a ragged row.
    const H: usize = 11;
    const W: usize = 13;

    /// An image network whose sharded prefix ends at its flatten (`end`
    /// 0), at a batch norm right after the first convolution (1) or at a
    /// dropout after the second pool (2), pooling by average or max.
    fn image_model(end: u8, max_pool: bool, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = |m: Sequential| {
            if max_pool {
                m.add(MaxPool2d::new(2))
            } else {
                m.add(AvgPool2d::new(2))
            }
        };
        // [1, 11, 13] -> conv [3, 9, 11] -> pool [3, 4, 5]
        //             -> conv [2, 3, 4]  -> pool [2, 1, 2]
        let mut m = Sequential::new().add(Conv2d::new(1, 3, 3, &mut rng));
        if end == 1 {
            m = m.add(BatchNorm2d::new(3));
        }
        m = pool(m.add(Relu::new()));
        m = pool(m.add(Conv2d::new(3, 2, 2, &mut rng)).add(Relu::new()));
        if end == 2 {
            m = m.add(Dropout::new(0.3, seed));
        }
        m.add(Flatten::new())
            .add(Dense::new(4, 5, &mut rng))
            .add(Relu::new())
            .add(Dense::new(5, 2, &mut rng))
    }

    /// `n` images with exact zeros, negative zeros and negatives mixed in,
    /// and their 2-output targets.
    fn image_data(n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut value = || match rng.gen_range(0u8..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        };
        let x: Vec<f32> = (0..n * H * W).map(|_| value()).collect();
        let y: Vec<f32> = (0..n * 2).map(|_| value()).collect();
        (
            Tensor::from_vec(&[n, 1, H, W], x),
            Tensor::from_vec(&[n, 2], y),
        )
    }

    /// One training step through the layers' own passes over the whole
    /// batch: the order every sharded step must reproduce.
    fn reference_step(m: &mut Sequential, x: &Tensor, y: &Tensor, opt: &mut Nadam) -> f32 {
        m.zero_grad();
        let mut t = x.clone();
        for layer in m.layers.iter_mut() {
            t = layer.forward(&t, true);
        }
        let (loss, mut g) = mse(&t, y);
        for (i, layer) in m.layers.iter_mut().enumerate().rev() {
            if i == 0 {
                layer.backward_head(&g);
            } else {
                g = layer.backward(&g);
            }
        }
        m.step(opt);
        loss
    }

    /// Parameters, gradients and buffers as raw bits.
    fn model_bits(m: &mut Sequential) -> Vec<Vec<u32>> {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let mut out: Vec<Vec<u32>> = m.buffers_state().iter().map(|b| bits(b)).collect();
        for p in m.layers.iter_mut().flat_map(|l| l.parameters()) {
            out.push(bits(&p.value));
            out.push(bits(&p.grad));
        }
        out
    }

    proptest! {
        /// Training steps through the sharded passes, over a shuffled
        /// set with a ragged last batch, equal the per-layer chain over
        /// each whole batch: every loss, parameter, gradient and running
        /// statistic, bit for bit.
        #[test]
        fn sharded_steps_equal_the_per_layer_chain(
            batch in 1usize..18,
            extra in 0usize..18,
            shards in 1usize..6,
            end in 0u8..3,
            max_pool in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let n = batch + extra;
            let (x, y) = image_data(n, seed);
            let mut sharded = image_model(end, max_pool, seed);
            let mut reference = sharded.clone();
            let (mut opt_s, mut opt_r) = (Nadam::new(0.01, 0.001), Nadam::new(0.01, 0.001));
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed ^ 1));

            let mut scratch = sharded.scratch(&[1, H, W], batch, shards, true);
            for chunk in order.chunks(batch) {
                sharded.zero_grad();
                let loss = sharded.accumulate_gradients(&mut scratch, &x, &y, chunk);
                sharded.step(&mut opt_s);
                let (xb, yb) = (x.select_batch(chunk), y.select_batch(chunk));
                let expected = reference_step(&mut reference, &xb, &yb, &mut opt_r);
                prop_assert_eq!(loss.to_bits(), expected.to_bits());
            }
            prop_assert_eq!(model_bits(&mut sharded), model_bits(&mut reference));
        }

        /// Inference in any number of shards equals one shard and the
        /// per-layer chain, across `PREDICT_CHUNK`-sized batches.
        #[test]
        fn sharded_inference_equals_one_shard(
            n in 1usize..34,
            shards in 2usize..6,
            end in 0u8..3,
            max_pool in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let mut m = image_model(end, max_pool, seed);
            let (x, y) = image_data(n, seed);
            // One step gives the batch norm non-trivial running statistics.
            reference_step(&mut m, &x, &y, &mut Nadam::new(0.01, 0.0));
            let bits = |t: &Tensor| t.data().iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
            let one = m.infer_sharded(&x, 1);
            prop_assert_eq!(one.shape(), &[n, 2]);
            prop_assert_eq!(bits(&m.infer_sharded(&x, shards)), bits(&one));
            let chain = m.layers.iter().fold(x.clone(), |t, layer| layer.infer(&t));
            prop_assert_eq!(bits(&chain), bits(&one));
        }
    }
}
