//! Training loop with best-validation-epoch model selection.
//!
//! The paper trains for up to 200 epochs but keeps "the ML model weights
//! after a specific epoch that give best validation set performance"
//! (Sec. 4).  [`Trainer`] implements exactly that: mini-batch training with
//! a caller-supplied optimizer, per-epoch validation MSE, and restoration of
//! the best snapshot at the end.
//!
//! A fit sizes its model's shard buffers once, for the mini-batch size and
//! the [`vvd_dsp::worker_budget`] shard count, reuses them for every
//! training step and every mini-batch-sized validation chunk, and drops
//! them when it returns: a trained model holds no scratch.

use crate::model::Sequential;
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle seed (the data order is the only source of randomness in the
    /// loop itself).
    pub shuffle_seed: u64,
    /// If `true`, keep the weights of the epoch with the lowest validation
    /// MSE (the paper's model selection); otherwise keep the final weights.
    pub keep_best_validation_epoch: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 16,
            shuffle_seed: 0,
            keep_best_validation_epoch: true,
        }
    }
}

/// Per-epoch training history and the selected epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Training loss after each epoch.
    pub train_loss: Vec<f32>,
    /// Validation loss after each epoch.
    pub val_loss: Vec<f32>,
    /// Index of the epoch whose weights were kept.
    pub best_epoch: usize,
    /// Validation loss of the kept epoch.
    pub best_val_loss: f32,
}

/// Mini-batch trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `(train_x, train_y)`, evaluating on
    /// `(val_x, val_y)` after every epoch.
    ///
    /// Inputs are batch tensors (first dimension = sample index).  Returns
    /// the training history; the model is left holding either the best-
    /// validation or the final weights according to the configuration.
    pub fn fit<O: Optimizer>(
        &self,
        model: &mut Sequential,
        optimizer: &mut O,
        train_x: &Tensor,
        train_y: &Tensor,
        val_x: &Tensor,
        val_y: &Tensor,
    ) -> TrainReport {
        let n = train_x.batch_size();
        assert_eq!(n, train_y.batch_size(), "training set size mismatch");
        assert!(n > 0, "empty training set");
        let batch = self.config.batch_size.max(1);
        let shards = vvd_dsp::worker_budget();
        let mut scratch = model.scratch(&train_x.shape()[1..], batch, shards, true);
        let mut rng = StdRng::seed_from_u64(self.config.shuffle_seed);
        let mut indices: Vec<usize> = (0..n).collect();

        let mut report = TrainReport {
            train_loss: Vec::with_capacity(self.config.epochs),
            val_loss: Vec::with_capacity(self.config.epochs),
            best_epoch: 0,
            best_val_loss: f32::INFINITY,
        };
        let mut best_state: Option<Vec<Vec<f32>>> = None;

        for epoch in 0..self.config.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in indices.chunks(batch) {
                model.zero_grad();
                let loss = model.accumulate_gradients(&mut scratch, train_x, train_y, chunk);
                model.step(optimizer);
                epoch_loss += loss;
                batches += 1;
            }
            let train_loss = epoch_loss / batches.max(1) as f32;
            // Bit-identical to `mse_value(&model.infer(val_x), val_y)`.
            let val_loss = if val_x.batch_size() > 0 {
                model.validation_loss(&mut scratch, val_x, val_y, batch)
            } else {
                train_loss
            };
            report.train_loss.push(train_loss);
            report.val_loss.push(val_loss);

            if val_loss < report.best_val_loss {
                report.best_val_loss = val_loss;
                report.best_epoch = epoch;
                if self.config.keep_best_validation_epoch {
                    best_state = Some(model.state());
                }
            }
        }

        if let (true, Some(state)) = (self.config.keep_best_validation_epoch, best_state) {
            model.load_state(&state);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::mse_value;
    use crate::optim::Nadam;
    use rand::Rng;

    fn toy_dataset(n: usize, seed: u64) -> (Tensor, Tensor) {
        // y = sin-ish smooth function of 2 inputs, learnable by a small MLP.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            xs.push(vec![a, b]);
            ys.push(vec![0.5 * a - 0.3 * b + 0.2 * a * b]);
        }
        (Tensor::stack(&xs, &[2]), Tensor::stack(&ys, &[1]))
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .add(Dense::new(2, 16, &mut rng))
            .add(Relu::new())
            .add(Dense::new(16, 1, &mut rng))
    }

    #[test]
    fn training_improves_validation_loss() {
        let (tx, ty) = toy_dataset(128, 0);
        let (vx, vy) = toy_dataset(32, 1);
        let mut model = mlp(7);
        let mut opt = Nadam::new(0.01, 0.0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 16,
            shuffle_seed: 3,
            keep_best_validation_epoch: true,
        });
        let report = trainer.fit(&mut model, &mut opt, &tx, &ty, &vx, &vy);
        assert_eq!(report.train_loss.len(), 40);
        assert!(
            report.best_val_loss < report.val_loss[0] * 0.2,
            "validation loss did not improve: first {} best {}",
            report.val_loss[0],
            report.best_val_loss
        );
    }

    #[test]
    fn best_epoch_weights_are_restored() {
        let (tx, ty) = toy_dataset(64, 2);
        let (vx, vy) = toy_dataset(32, 3);
        let mut model = mlp(11);
        let mut opt = Nadam::new(0.02, 0.0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 25,
            batch_size: 8,
            shuffle_seed: 5,
            keep_best_validation_epoch: true,
        });
        let report = trainer.fit(&mut model, &mut opt, &tx, &ty, &vx, &vy);
        // The restored model must reproduce the best recorded validation loss.
        let final_val = mse_value(&model.infer(&vx), &vy);
        assert!(
            (final_val - report.best_val_loss).abs() < 1e-5,
            "restored model val loss {final_val} != best {}",
            report.best_val_loss
        );
        assert!(report.best_epoch < 25);
    }

    #[test]
    fn best_val_loss_is_the_restored_models_inference_loss_bit_for_bit() {
        // 37 validation samples leave a ragged last chunk at every batch
        // size here.  Several sizes, because a sum added up in another
        // order can still round to the same bits.
        let (tx, ty) = toy_dataset(40, 6);
        let (vx, vy) = toy_dataset(37, 7);
        for batch_size in [3, 5, 7, 8] {
            let mut model = mlp(17);
            let mut opt = Nadam::new(0.02, 0.0);
            let trainer = Trainer::new(TrainConfig {
                epochs: 6,
                batch_size,
                shuffle_seed: 9,
                keep_best_validation_epoch: true,
            });
            let report = trainer.fit(&mut model, &mut opt, &tx, &ty, &vx, &vy);
            let restored = mse_value(&model.infer(&vx), &vy);
            assert_eq!(
                report.best_val_loss.to_bits(),
                restored.to_bits(),
                "batch size {batch_size}"
            );
        }
    }

    #[test]
    fn report_is_consistent() {
        let (tx, ty) = toy_dataset(32, 4);
        let (vx, vy) = toy_dataset(16, 5);
        let mut model = mlp(13);
        let mut opt = Nadam::new(0.01, 0.0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 8,
            shuffle_seed: 1,
            keep_best_validation_epoch: false,
        });
        let report = trainer.fit(&mut model, &mut opt, &tx, &ty, &vx, &vy);
        let min_val = report
            .val_loss
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert_eq!(report.best_val_loss, min_val);
        assert_eq!(report.val_loss.len(), 5);
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let trainer = Trainer::new(TrainConfig::default());
        let mut model = mlp(1);
        let mut opt = Nadam::paper_defaults();
        let empty_x = Tensor::zeros(&[0, 2]);
        let empty_y = Tensor::zeros(&[0, 1]);
        let _ = trainer.fit(&mut model, &mut opt, &empty_x, &empty_y, &empty_x, &empty_y);
    }
}
