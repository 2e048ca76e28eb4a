//! Order statistics over a handful of repetitions.

/// Minimum, median and quartiles of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Summary {
            n: v.len(),
            min,
            max,
            q1,
            median,
            q3,
        })
    }

    /// Distance between the quartiles: the run-to-run spread the bounds are
    /// judged against. `None` for a single value, which has none to show.
    pub fn iqr(&self) -> Option<f64> {
        (self.n > 1).then_some(self.q3 - self.q1)
    }

    /// [`Summary::iqr`] as a share of the median.
    pub fn spread(&self) -> Option<f64> {
        self.iqr()
            .filter(|_| self.median != 0.0)
            .map(|iqr| iqr / self.median.abs())
    }
}

/// Quartiles of a sorted, non-empty sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the one the acceptance check
/// uses), so spreads printed here can be compared with its numbers. A
/// single value is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: at the clamped ends the rule extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread().unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_value_and_no_values() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(
            s.spread(),
            None,
            "one value shows no spread, not a spread of 0"
        );
        assert!(Summary::of(&[]).is_none());
    }
}
