//! The paper's image preprocessing pipeline (Fig. 7).
//!
//! Measured 720 × 1080 frames are downsampled by a factor of 10 to 72 × 108
//! and cropped to 50 × 90 so that only the region in which mobile objects
//! can appear is kept; depths are then normalised before entering the CNN.
//! The reproduction renders directly at the downsampled resolution (the
//! renderer *is* the downsampling anti-alias filter in that case), but the
//! pipeline still supports an explicit downsample factor so the full-path
//! behaviour can be tested.

use crate::image::DepthImage;

/// Configuration of the preprocessing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Integer block-average downsampling factor applied first (1 = none).
    pub downsample_factor: usize,
    /// First kept row after downsampling.
    pub crop_row_start: usize,
    /// Number of kept rows (paper: 50).
    pub crop_rows: usize,
    /// First kept column after downsampling.
    pub crop_col_start: usize,
    /// Number of kept columns (paper: 90).
    pub crop_cols: usize,
    /// Depth (metres) by which pixels are divided for normalisation; equal
    /// to the camera's maximum depth so that values land in `[0, 1]`.
    pub normalization_depth: f32,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            downsample_factor: 1,
            crop_row_start: 14,
            crop_rows: 50,
            crop_col_start: 9,
            crop_cols: 90,
            normalization_depth: 12.0,
        }
    }
}

impl PreprocessConfig {
    /// Output image height after preprocessing.
    pub fn output_height(&self) -> usize {
        self.crop_rows
    }

    /// Output image width after preprocessing.
    pub fn output_width(&self) -> usize {
        self.crop_cols
    }

    /// A configuration for the paper's full-resolution path: 720 × 1080
    /// frames downsampled by 10 and cropped to 50 × 90.
    pub fn full_resolution() -> Self {
        PreprocessConfig {
            downsample_factor: 10,
            ..Self::default()
        }
    }
}

/// Applies downsampling, cropping and normalisation to a raw depth frame.
///
/// # Panics
/// Panics when the crop region does not fit into the downsampled image.
pub fn preprocess(raw: &DepthImage, cfg: &PreprocessConfig) -> DepthImage {
    let small = if cfg.downsample_factor > 1 {
        raw.downsample(cfg.downsample_factor)
    } else {
        raw.clone()
    };
    let cropped = small.crop(
        cfg.crop_row_start,
        cfg.crop_row_start + cfg.crop_rows,
        cfg.crop_col_start,
        cfg.crop_col_start + cfg.crop_cols,
    );
    cropped.scaled(cfg.normalization_depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_produces_paper_dimensions() {
        let raw = DepthImage::filled(108, 72, 6.0);
        let cfg = PreprocessConfig::default();
        let out = preprocess(&raw, &cfg);
        assert_eq!(out.height(), 50);
        assert_eq!(out.width(), 90);
        assert_eq!((cfg.output_height(), cfg.output_width()), (50, 90));
        // Normalised values are depth / normalization_depth.
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn full_resolution_pipeline_matches_paper() {
        // 1080 x 720 frame -> downsample by 10 -> 108 x 72 -> crop 90 x 50.
        let raw = DepthImage::filled(1080, 720, 3.0);
        let out = preprocess(&raw, &PreprocessConfig::full_resolution());
        assert_eq!(out.height(), 50);
        assert_eq!(out.width(), 90);
    }

    #[test]
    fn normalised_values_are_in_unit_range_for_in_range_depths() {
        let mut raw = DepthImage::filled(108, 72, 11.0);
        raw.set(20, 50, 0.5);
        let out = preprocess(&raw, &PreprocessConfig::default());
        assert!(out.max() <= 1.0 + 1e-6);
        assert!(out.min() >= 0.0);
    }

    #[test]
    fn crop_region_keeps_spatial_information() {
        // A close object inside the crop region must survive preprocessing.
        let mut raw = DepthImage::filled(108, 72, 10.0);
        for r in 30..45 {
            for c in 40..55 {
                raw.set(r, c, 2.0);
            }
        }
        let out = preprocess(&raw, &PreprocessConfig::default());
        let has_close = out.data().iter().any(|&v| (v - 2.0 / 12.0).abs() < 1e-6);
        assert!(has_close);
    }

    #[test]
    #[should_panic]
    fn crop_larger_than_image_panics() {
        let raw = DepthImage::filled(40, 40, 1.0);
        let _ = preprocess(&raw, &PreprocessConfig::default());
    }
}
