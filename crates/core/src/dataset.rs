//! Image → CIR sample pairs and tensor assembly.

use crate::preprocess::CirNormalizer;
use vvd_dsp::FirFilter;
use vvd_nn::Tensor;
use vvd_vision::DepthImage;

/// One training/validation/test sample: a preprocessed depth image and the
/// perfect channel estimate it should map to.
#[derive(Debug, Clone, PartialEq)]
pub struct VvdSample {
    /// Preprocessed (cropped, normalised) depth image.
    pub image: DepthImage,
    /// Target channel impulse response (the perfect LS estimate of the
    /// packet this frame is paired with).
    pub target_cir: FirFilter,
}

/// A set of samples with consistent dimensions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VvdDataset {
    /// The samples.
    pub samples: Vec<VvdSample>,
}

impl VvdDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        VvdDataset {
            samples: Vec::new(),
        }
    }

    /// Adds a sample.
    ///
    /// # Panics
    /// Panics when image or CIR dimensions differ from already-added
    /// samples.
    pub fn push(&mut self, sample: VvdSample) {
        if let Some(first) = self.samples.first() {
            assert_eq!(
                (first.image.height(), first.image.width()),
                (sample.image.height(), sample.image.width()),
                "inconsistent image dimensions"
            );
            assert_eq!(
                first.target_cir.len(),
                sample.target_cir.len(),
                "inconsistent CIR tap counts"
            );
        }
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Image height of the samples (0 for an empty dataset).
    pub fn image_height(&self) -> usize {
        self.samples.first().map_or(0, |s| s.image.height())
    }

    /// Image width of the samples (0 for an empty dataset).
    pub fn image_width(&self) -> usize {
        self.samples.first().map_or(0, |s| s.image.width())
    }

    /// Number of CIR taps of the targets (0 for an empty dataset).
    pub fn channel_taps(&self) -> usize {
        self.samples.first().map_or(0, |s| s.target_cir.len())
    }

    /// Computes the CIR normaliser from this dataset (call on the training
    /// split only, per Sec. 4).
    pub fn normalizer(&self) -> CirNormalizer {
        let cirs: Vec<FirFilter> = self.samples.iter().map(|s| s.target_cir.clone()).collect();
        CirNormalizer::from_training_set(&cirs)
    }

    /// Builds the input tensor `[N, 1, H, W]`.
    pub fn input_tensor(&self) -> Tensor {
        let h = self.image_height();
        let w = self.image_width();
        let items: Vec<Vec<f32>> = self
            .samples
            .iter()
            .map(|s| s.image.data().to_vec())
            .collect();
        if items.is_empty() {
            return Tensor::zeros(&[0, 1, h, w]);
        }
        Tensor::stack(&items, &[1, h, w])
    }

    /// Builds the target tensor `[N, 2 · taps]` using the given normaliser.
    pub fn target_tensor(&self, normalizer: &CirNormalizer) -> Tensor {
        let taps = self.channel_taps();
        let items: Vec<Vec<f32>> = self
            .samples
            .iter()
            .map(|s| normalizer.normalize(&s.target_cir))
            .collect();
        if items.is_empty() {
            return Tensor::zeros(&[0, 2 * taps]);
        }
        Tensor::stack(&items, &[2 * taps])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vvd_dsp::Complex;

    fn sample(depth: f32, tap: f64) -> VvdSample {
        VvdSample {
            image: DepthImage::filled(6, 4, depth),
            target_cir: FirFilter::from_taps(&[Complex::new(tap, -tap), Complex::new(0.0, tap)]),
        }
    }

    #[test]
    fn tensors_have_expected_shapes() {
        let mut ds = VvdDataset::new();
        ds.push(sample(0.5, 1e-3));
        ds.push(sample(0.7, 2e-3));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.image_height(), 4);
        assert_eq!(ds.image_width(), 6);
        assert_eq!(ds.channel_taps(), 2);
        let x = ds.input_tensor();
        assert_eq!(x.shape(), &[2, 1, 4, 6]);
        let norm = ds.normalizer();
        let y = ds.target_tensor(&norm);
        assert_eq!(y.shape(), &[2, 4]);
        // Normalised targets stay within [-1, 1] on the training set.
        assert!(y.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn normalizer_roundtrip_through_dataset() {
        let mut ds = VvdDataset::new();
        ds.push(sample(0.2, 5e-4));
        let norm = ds.normalizer();
        let y = ds.target_tensor(&norm);
        let restored = norm.denormalize(y.item(0));
        let err = restored
            .taps()
            .squared_error(ds.samples[0].target_cir.taps());
        assert!(err < 1e-16);
    }

    #[test]
    fn empty_dataset_is_harmless() {
        let ds = VvdDataset::new();
        assert!(ds.is_empty());
        assert_eq!(ds.input_tensor().shape(), &[0, 1, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn inconsistent_dimensions_panic() {
        let mut ds = VvdDataset::new();
        ds.push(sample(0.5, 1e-3));
        ds.push(VvdSample {
            image: DepthImage::filled(3, 3, 0.1),
            target_cir: FirFilter::identity(),
        });
    }
}
