//! Scalar statistics helpers.
//!
//! The paper reports every metric as a box plot over the 15 set-combination
//! means (Sec. 6).  [`BoxStats`] computes exactly those five-number summaries
//! plus mean, and the free functions cover the mean/variance needs of the
//! Kalman filter and the evaluation harness.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0 for slices with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted slice.
///
/// Returns 0 for an empty slice.  Equivalent to numpy's default
/// `interpolation="linear"` percentile, which is what a box plot uses.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Five-number summary plus mean, as drawn by a box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations summarised.
    pub n: usize,
}

impl BoxStats {
    /// Computes the summary of a sample; all fields are 0 for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return BoxStats {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                n: 0,
            };
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        BoxStats {
            min,
            q1: quantile(xs, 0.25),
            median: median(xs),
            q3: quantile(xs, 0.75),
            max,
            mean: mean(xs),
            n: xs.len(),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min={:.4e} q1={:.4e} med={:.4e} q3={:.4e} max={:.4e} mean={:.4e} (n={})",
            self.min, self.q1, self.median, self.q3, self.max, self.mean, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(BoxStats::from_samples(&[]).n, 0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), 2.5);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn box_stats_ordering_invariant() {
        let xs = [0.3, 0.1, 0.9, 0.5, 0.2, 0.7];
        let b = BoxStats::from_samples(&xs);
        assert!(b.min <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.max);
        assert_eq!(b.n, 6);
        assert!(b.iqr() >= 0.0);
    }

    #[test]
    fn box_stats_of_constant_sample() {
        let xs = [2.0; 5];
        let b = BoxStats::from_samples(&xs);
        assert_eq!(b.min, 2.0);
        assert_eq!(b.max, 2.0);
        assert_eq!(b.median, 2.0);
        assert_eq!(b.mean, 2.0);
        assert_eq!(b.iqr(), 0.0);
    }
}
