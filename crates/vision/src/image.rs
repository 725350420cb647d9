//! Depth image container.

/// A single-channel depth image, row-major, depths in metres (or normalised
/// units after preprocessing).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl DepthImage {
    /// Creates an image filled with a constant depth.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        DepthImage {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "depth image dimension mismatch");
        DepthImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the image has no pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel accessor (row, col).
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.width + col]
    }

    /// Mutable pixel accessor (row, col).
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.width + col] = value;
    }

    /// Row-major pixel slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Minimum pixel value (0 for an empty image).
    pub fn min(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().cloned().fold(f32::INFINITY, f32::min)
        }
    }

    /// Maximum pixel value (0 for an empty image).
    pub fn max(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        }
    }

    /// Mean pixel value (0 for an empty image).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Mean absolute difference against another image of the same size.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mean_abs_diff(&self, other: &DepthImage) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimension mismatch"
        );
        if self.data.is_empty() {
            return 0.0;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / self.data.len() as f32
    }

    /// Extracts a rectangular crop (`rows` and `cols` are half-open ranges).
    ///
    /// # Panics
    /// Panics if the crop exceeds the image bounds.
    pub fn crop(
        &self,
        row_start: usize,
        row_end: usize,
        col_start: usize,
        col_end: usize,
    ) -> DepthImage {
        assert!(
            row_end <= self.height && col_end <= self.width,
            "crop out of bounds"
        );
        assert!(
            row_start <= row_end && col_start <= col_end,
            "invalid crop range"
        );
        let mut data = Vec::with_capacity((row_end - row_start) * (col_end - col_start));
        for r in row_start..row_end {
            data.extend_from_slice(
                &self.data[r * self.width + col_start..r * self.width + col_end],
            );
        }
        DepthImage::from_data(col_end - col_start, row_end - row_start, data)
    }

    /// Block-average downsampling by an integer factor (truncates edges that
    /// do not fill a whole block).
    pub fn downsample(&self, factor: usize) -> DepthImage {
        assert!(factor > 0, "downsample factor must be positive");
        let out_h = self.height / factor;
        let out_w = self.width / factor;
        let mut data = Vec::with_capacity(out_h * out_w);
        for r in 0..out_h {
            for c in 0..out_w {
                let mut acc = 0.0f32;
                for dr in 0..factor {
                    for dc in 0..factor {
                        acc += self.get(r * factor + dr, c * factor + dc);
                    }
                }
                data.push(acc / (factor * factor) as f32);
            }
        }
        DepthImage::from_data(out_w, out_h, data)
    }

    /// Returns a copy with every pixel divided by `scale`.
    pub fn scaled(&self, scale: f32) -> DepthImage {
        DepthImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|v| v / scale).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(width: usize, height: usize) -> DepthImage {
        let data = (0..width * height).map(|i| i as f32).collect();
        DepthImage::from_data(width, height, data)
    }

    #[test]
    fn accessors_and_stats() {
        let img = gradient(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(2, 3), 11.0);
        assert_eq!(img.min(), 0.0);
        assert_eq!(img.max(), 11.0);
        assert!((img.mean() - 5.5).abs() < 1e-6);
    }

    #[test]
    fn crop_extracts_expected_region() {
        let img = gradient(6, 5);
        let c = img.crop(1, 4, 2, 5);
        assert_eq!(c.height(), 3);
        assert_eq!(c.width(), 3);
        assert_eq!(c.get(0, 0), img.get(1, 2));
        assert_eq!(c.get(2, 2), img.get(3, 4));
    }

    #[test]
    fn downsample_averages_blocks() {
        let img = DepthImage::from_data(4, 2, vec![1.0, 1.0, 3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
        let d = img.downsample(2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 1), 3.0);
    }

    #[test]
    fn mean_abs_diff_detects_changes() {
        let a = DepthImage::filled(3, 3, 2.0);
        let mut b = a.clone();
        assert_eq!(a.mean_abs_diff(&b), 0.0);
        b.set(1, 1, 5.0);
        assert!((a.mean_abs_diff(&b) - 3.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn scaled_divides_pixels() {
        let img = DepthImage::filled(2, 2, 8.0);
        assert_eq!(img.scaled(4.0).get(0, 0), 2.0);
    }

    #[test]
    #[should_panic]
    fn crop_out_of_bounds_panics() {
        let img = DepthImage::filled(4, 4, 1.0);
        let _ = img.crop(0, 5, 0, 4);
    }
}
