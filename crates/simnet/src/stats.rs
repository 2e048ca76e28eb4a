//! Small statistics helpers for experiment harnesses: summary statistics,
//! percentiles and empirical CDFs.

use crate::time::Duration;

/// A growable series of f64 samples with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Series {
        Series::default()
    }

    /// Build from an iterator of samples (also available through the
    /// `FromIterator` impl / `collect()`).
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_iter(iter: impl IntoIterator<Item = f64>) -> Series {
        Series {
            samples: iter.into_iter().collect(),
        }
    }

    /// Build from a slice of durations, in milliseconds.
    pub fn from_durations_ms(durations: &[Duration]) -> Series {
        Series::from_iter(durations.iter().map(|d| d.millis_f64()))
    }

    /// Add a sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum sample (0 for an empty series).
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_finite()
    }

    /// Maximum sample (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank on the sorted
    /// samples. Returns 0 for an empty series.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Empirical CDF as (value, cumulative-fraction) points, sorted by value.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len() as f64;
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

impl FromIterator<f64> for Series {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Series {
        Series {
            samples: iter.into_iter().collect(),
        }
    }
}

/// Replace infinities (empty-fold sentinels) by zero.
trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_all_zeros() {
        let s = Series::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn summary_statistics() {
        let s = Series::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = Series::from_iter((1..=100).map(|v| v as f64));
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert!((s.percentile(95.0) - 95.0).abs() <= 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = Series::from_iter([5.0, 1.0, 3.0, 2.0, 4.0]);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn from_durations_converts_to_ms() {
        let s = Series::from_durations_ms(&[Duration::from_millis(5), Duration::from_micros(1500)]);
        assert_eq!(s.samples, &[5.0, 1.5]);
    }
}
