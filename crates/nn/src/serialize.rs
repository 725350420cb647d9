//! Model-weight serialisation.
//!
//! The paper publishes its trained Keras model alongside the dataset; the
//! reproduction offers the same ability by snapshotting a model's parameter
//! state to JSON (self-describing, diff-able, no extra dependencies beyond
//! `serde_json`).

use crate::model::Sequential;
use serde::{Deserialize, Serialize};

/// A serialisable snapshot of a model's trainable parameters and
/// non-trainable buffers together with a free-form architecture tag used to
/// detect mismatched loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCheckpoint {
    /// Identifier of the architecture the weights belong to.
    pub architecture: String,
    /// Flattened parameter values in layer order.
    pub parameters: Vec<Vec<f32>>,
    /// Non-trainable buffers (batch-norm running statistics) in layer
    /// order.  Empty for models without buffered layers; an empty list
    /// leaves the target model's buffers at their initial values.
    ///
    /// The field is required: checkpoints written by the buffer-less v1
    /// format do not parse (the vendored serde derive has no per-field
    /// defaulting).  No v1 checkpoints are persisted anywhere — the format
    /// only goes to disk via the model cache introduced together with this
    /// field.
    pub buffers: Vec<Vec<f32>>,
}

impl ModelCheckpoint {
    /// Captures the current weights and buffers of a model.
    pub fn capture(architecture: &str, model: &mut Sequential) -> Self {
        ModelCheckpoint {
            architecture: architecture.to_string(),
            parameters: model.state(),
            buffers: model.buffers_state(),
        }
    }

    /// Restores the weights (and buffers, when present) into a
    /// freshly-built model of the same architecture.
    ///
    /// # Errors
    /// Returns an error string if the architecture tag, the parameter
    /// layout or the buffer layout does not match.
    pub fn restore(&self, architecture: &str, model: &mut Sequential) -> Result<(), String> {
        if self.architecture != architecture {
            return Err(format!(
                "checkpoint architecture '{}' does not match '{architecture}'",
                self.architecture
            ));
        }
        let current = model.state();
        if current.len() != self.parameters.len()
            || current
                .iter()
                .zip(self.parameters.iter())
                .any(|(a, b)| a.len() != b.len())
        {
            return Err("checkpoint parameter layout does not match the model".to_string());
        }
        if !self.buffers.is_empty() {
            let buffers = model.buffers_state();
            if buffers.len() != self.buffers.len()
                || buffers
                    .iter()
                    .zip(self.buffers.iter())
                    .any(|(a, b)| a.len() != b.len())
            {
                return Err("checkpoint buffer layout does not match the model".to_string());
            }
        }
        model.load_state(&self.parameters);
        if !self.buffers.is_empty() {
            model.load_buffers_state(&self.buffers);
        }
        Ok(())
    }

    /// Serialises the checkpoint to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation cannot fail")
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    /// Returns the underlying `serde_json` error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .add(Dense::new(3, 5, &mut rng))
            .add(Relu::new())
            .add(Dense::new(5, 2, &mut rng))
    }

    #[test]
    fn json_roundtrip_restores_predictions() {
        let mut original = model(0);
        let x = Tensor::from_vec(&[1, 3], vec![0.1, -0.2, 0.7]);
        let expected = original.predict(&x);

        let checkpoint = ModelCheckpoint::capture("mlp-3-5-2", &mut original);
        let json = checkpoint.to_json();
        let parsed = ModelCheckpoint::from_json(&json).unwrap();

        let mut restored = model(99); // different random init
        assert_ne!(restored.predict(&x).data(), expected.data());
        parsed.restore("mlp-3-5-2", &mut restored).unwrap();
        assert_eq!(restored.predict(&x).data(), expected.data());
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let mut m = model(1);
        let checkpoint = ModelCheckpoint::capture("arch-a", &mut m);
        let mut other = model(2);
        assert!(checkpoint.restore("arch-b", &mut other).is_err());
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        let mut m = model(1);
        let checkpoint = ModelCheckpoint::capture("arch", &mut m);
        let mut rng = StdRng::seed_from_u64(5);
        let mut different = Sequential::new().add(Dense::new(3, 4, &mut rng));
        assert!(checkpoint.restore("arch", &mut different).is_err());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ModelCheckpoint::from_json("not json").is_err());
    }

    mod full_stack_roundtrip {
        use super::*;
        use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, MaxPool2d};
        use crate::optim::Sgd;
        use crate::train::{TrainConfig, Trainer};

        /// A model using every layer type in `layers/`: Conv2d, BatchNorm2d,
        /// ReLU, AvgPool2d, MaxPool2d, Dropout, Flatten, Dense.
        fn every_layer_model(seed: u64) -> Sequential {
            let mut rng = StdRng::seed_from_u64(seed);
            Sequential::new()
                .add(Conv2d::new(1, 3, 3, &mut rng))
                .add(BatchNorm2d::new(3))
                .add(Relu::new())
                .add(AvgPool2d::new(2))
                .add(Conv2d::new(3, 4, 3, &mut rng))
                .add(Relu::new())
                .add(MaxPool2d::new(2))
                .add(Dropout::new(0.25, seed))
                .add(Flatten::new())
                .add(Dense::new(4 * 2 * 2, 6, &mut rng))
                .add(Relu::new())
                .add(Dense::new(6, 2, &mut rng))
        }

        fn probe() -> Tensor {
            Tensor::from_vec(
                &[2, 1, 14, 14],
                (0..2 * 14 * 14).map(|i| (i as f32 * 0.17).sin()).collect(),
            )
        }

        #[test]
        fn roundtrip_covers_every_layer_type_bit_exactly() {
            let mut original = every_layer_model(1);
            // Train a little so batch-norm accumulates non-trivial running
            // statistics (they live in buffers, not parameters).
            let mut opt = Sgd::new(0.01, 0.0);
            let x = probe();
            let trainer = Trainer::new(TrainConfig {
                epochs: 5,
                batch_size: 2,
                shuffle_seed: 0,
                keep_best_validation_epoch: false,
            });
            let (no_x, no_y) = (Tensor::zeros(&[0, 1, 14, 14]), Tensor::zeros(&[0, 2]));
            let zeros = Tensor::zeros(&[2, 2]);
            trainer.fit(&mut original, &mut opt, &x, &zeros, &no_x, &no_y);
            let expected = original.predict(&x);

            let json = ModelCheckpoint::capture("every-layer", &mut original).to_json();
            let parsed = ModelCheckpoint::from_json(&json).unwrap();
            assert!(
                !parsed.buffers.is_empty(),
                "batch-norm running stats must be captured"
            );

            let mut restored = every_layer_model(99); // different random init
            assert_ne!(restored.predict(&x).data(), expected.data());
            parsed.restore("every-layer", &mut restored).unwrap();
            assert_eq!(
                restored.predict(&x).data(),
                expected.data(),
                "deserialize(serialize(model)) must predict bit-identically"
            );
        }

        #[test]
        fn buffer_layout_mismatch_is_rejected() {
            let mut m = every_layer_model(2);
            let mut checkpoint = ModelCheckpoint::capture("every-layer", &mut m);
            checkpoint.buffers.pop();
            let mut other = every_layer_model(3);
            assert!(checkpoint.restore("every-layer", &mut other).is_err());
        }
    }
}
