//! Radio path-loss models and the paper's rxPower→distance regression.
//!
//! ACACIA converts LTE-direct received-power readings into distances using a
//! **linear regression of rxPower against log-distance**, fitted once per
//! environment (§5.5: "a linear regression model for the path loss between a
//! user and landmark is constructed for the given environment, which is a
//! one-time overhead").

/// Log-distance path-loss ground truth used by the channel simulator.
///
/// `rx(d) = tx_power_dbm - pl0_db - 10·n·log10(d)` with distances clamped to
/// 10 cm so the model never blows up at zero range.
#[derive(Debug, Clone, Copy)]
pub struct PathLossModel {
    /// Transmit power in dBm (LTE-direct UE class ~23 dBm).
    pub tx_power_dbm: f64,
    /// Reference loss at 1 m, dB.
    pub pl0_db: f64,
    /// Path-loss exponent (2 free space, ~2.5-4 indoors).
    pub exponent: f64,
}

impl PathLossModel {
    /// Indoor retail-environment defaults giving roughly the -60..-105 dBm
    /// span visible in the paper's Fig. 6(c).
    pub fn indoor_default() -> PathLossModel {
        PathLossModel {
            tx_power_dbm: 23.0,
            pl0_db: 63.0,
            exponent: 3.8,
        }
    }

    /// Mean received power at distance `d` metres (no shadowing).
    pub fn rx_power_dbm(&self, d: f64) -> f64 {
        let d = d.max(0.1);
        self.tx_power_dbm - self.pl0_db - 10.0 * self.exponent * d.log10()
    }

    /// Invert the model exactly (useful for sanity checks).
    pub fn distance_for(&self, rx_dbm: f64) -> f64 {
        10f64.powf((self.tx_power_dbm - self.pl0_db - rx_dbm) / (10.0 * self.exponent))
    }
}

/// A fitted `rxPower = alpha + beta·log10(distance)` regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedPathLoss {
    /// Intercept (dBm at 1 m).
    pub alpha: f64,
    /// Slope (dB per decade of distance; negative).
    pub beta: f64,
}

/// Errors from the regression fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two samples.
    TooFewSamples,
    /// All distances identical (slope undefined).
    DegenerateDistances,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples => write!(f, "need at least two calibration samples"),
            FitError::DegenerateDistances => {
                write!(f, "calibration samples must span more than one distance")
            }
        }
    }
}

impl std::error::Error for FitError {}

impl FittedPathLoss {
    /// Ordinary least squares over `(distance_m, rx_dbm)` calibration
    /// samples.
    pub fn fit(samples: &[(f64, f64)]) -> Result<FittedPathLoss, FitError> {
        if samples.len() < 2 {
            return Err(FitError::TooFewSamples);
        }
        let xs: Vec<f64> = samples.iter().map(|&(d, _)| d.max(0.1).log10()).collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, rx)| rx).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        if sxx < 1e-12 {
            return Err(FitError::DegenerateDistances);
        }
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let beta = sxy / sxx;
        let alpha = my - beta * mx;
        Ok(FittedPathLoss { alpha, beta })
    }

    /// Predicted distance for a received power reading. Distances are
    /// clamped to `[0.1, 1000]` m — extrapolating a noisy regression beyond
    /// that is meaningless indoors.
    pub fn predict_distance(&self, rx_dbm: f64) -> f64 {
        if self.beta.abs() < 1e-12 {
            return 0.1;
        }
        10f64
            .powf((rx_dbm - self.alpha) / self.beta)
            .clamp(0.1, 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_monotonically_decreases_with_distance() {
        let m = PathLossModel::indoor_default();
        let mut last = f64::INFINITY;
        for d in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            let rx = m.rx_power_dbm(d);
            assert!(rx < last, "rx at {d} m was {rx}");
            last = rx;
        }
    }

    #[test]
    fn model_inversion_roundtrips() {
        let m = PathLossModel::indoor_default();
        for d in [1.0, 3.0, 10.0, 30.0] {
            let rx = m.rx_power_dbm(d);
            assert!((m.distance_for(rx) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn rx_span_matches_paper_figure() {
        // Fig. 6(c) shows rxPower between roughly -50 and -105 dBm over the
        // walk; our defaults must land in that ballpark for 1..50 m.
        let m = PathLossModel::indoor_default();
        assert!(m.rx_power_dbm(1.0) > -70.0);
        assert!(m.rx_power_dbm(50.0) < -85.0);
    }

    #[test]
    fn fit_recovers_exact_model() {
        let m = PathLossModel::indoor_default();
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
            .iter()
            .map(|&d| (d, m.rx_power_dbm(d)))
            .collect();
        let fit = FittedPathLoss::fit(&samples).unwrap();
        assert!((fit.beta - (-10.0 * m.exponent)).abs() < 1e-9);
        for d in [1.5, 3.0, 12.0] {
            assert!((fit.predict_distance(m.rx_power_dbm(d)) - d).abs() < 1e-6);
        }
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert_eq!(
            FittedPathLoss::fit(&[(1.0, -50.0)]),
            Err(FitError::TooFewSamples)
        );
        assert_eq!(
            FittedPathLoss::fit(&[(2.0, -50.0), (2.0, -55.0), (2.0, -60.0)]),
            Err(FitError::DegenerateDistances)
        );
    }

    #[test]
    fn predict_distance_clamps_extremes() {
        let fit = FittedPathLoss {
            alpha: -15.0,
            beta: -28.0,
        };
        assert_eq!(fit.predict_distance(50.0), 0.1);
        assert_eq!(fit.predict_distance(-500.0), 1000.0);
    }

    #[test]
    fn flat_fit_degrades_gracefully() {
        let fit = FittedPathLoss {
            alpha: -60.0,
            beta: 0.0,
        };
        assert_eq!(fit.predict_distance(-60.0), 0.1);
    }
}
