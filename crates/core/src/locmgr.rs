//! The LTE-direct localization manager (paper §5.5, §6.3(iii)).
//!
//! Runs at the CI server: loads per-environment metadata (landmark
//! positions and the one-time path-loss regression), aggregates rxPower
//! reports arriving from the client, and tri-laterates the client's
//! current location to feed the AR back-end's search-space pruning.

use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::{FittedPathLoss, PathLossModel};
use acacia_geo::point::Point;
use acacia_geo::trilateration::{trilaterate, RangeMeasurement};
use std::collections::BTreeMap;

/// Environment metadata the manager "reads from a file" at startup
/// (paper: landmark count/locations/names plus the regression parameters
/// (α, β)).
#[derive(Debug, Clone)]
pub struct LocalizationMetadata {
    /// Landmark name → position.
    pub landmarks: BTreeMap<String, Point>,
    /// rxPower → distance regression.
    pub pathloss: FittedPathLoss,
}

impl LocalizationMetadata {
    /// Build metadata for a floor: landmark positions from the plan, and
    /// the regression fitted against calibration samples of `model` over
    /// 1–40 m (the paper's one-time calibration walk).
    pub fn for_floor(floor: &FloorPlan, model: &PathLossModel) -> LocalizationMetadata {
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 6.0, 9.0, 13.0, 18.0, 25.0, 40.0]
            .iter()
            .map(|&d| (d, model.rx_power_dbm(d)))
            .collect();
        LocalizationMetadata {
            landmarks: floor
                .landmarks
                .iter()
                .map(|l| (l.name.clone(), l.pos))
                .collect(),
            pathloss: FittedPathLoss::fit(&samples).expect("calibration fit"),
        }
    }
}

/// The localization manager: latest reading per landmark → location.
#[derive(Debug, Clone)]
pub struct LocalizationManager {
    meta: LocalizationMetadata,
    /// Smoothed rxPower per landmark (EWMA over reports).
    readings: BTreeMap<String, f64>,
    /// EWMA factor for successive readings of the same landmark.
    alpha: f64,
    /// Estimates produced so far.
    pub estimates: u64,
}

impl LocalizationManager {
    /// New manager over the environment metadata.
    pub fn new(meta: LocalizationMetadata) -> LocalizationManager {
        LocalizationManager {
            meta,
            readings: BTreeMap::new(),
            alpha: 0.5,
            estimates: 0,
        }
    }

    /// Ingest one rxPower report. Unknown landmarks are ignored.
    pub fn report(&mut self, landmark: &str, rx_power_dbm: f64) {
        if !self.meta.landmarks.contains_key(landmark) {
            return;
        }
        let entry = self
            .readings
            .entry(landmark.to_string())
            .or_insert(rx_power_dbm);
        *entry = self.alpha * rx_power_dbm + (1.0 - self.alpha) * *entry;
    }

    /// Latest (landmark, rxPower) view — the input for the `rxPower`
    /// baseline strategy.
    pub fn rx_view(&self) -> Vec<(String, f64)> {
        self.readings.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Tri-laterate from the current readings. Needs ≥3 landmarks.
    pub fn estimate(&mut self) -> Option<Point> {
        if self.readings.len() < 3 {
            return None;
        }
        let measurements: Vec<RangeMeasurement> = self
            .readings
            .iter()
            .filter_map(|(name, &rx)| {
                let pos = *self.meta.landmarks.get(name)?;
                Some(RangeMeasurement::new(
                    pos,
                    self.meta.pathloss.predict_distance(rx),
                ))
            })
            .collect();
        let sol = trilaterate(&measurements).ok()?;
        self.estimates += 1;
        Some(sol.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_d2d::channel::RadioChannel;
    use acacia_d2d::discovery::ProximityWorld;
    use acacia_d2d::modem::Modem;
    use acacia_d2d::service::SubscriptionFilter;

    fn manager(floor: &FloorPlan) -> LocalizationManager {
        let model = PathLossModel::indoor_default();
        LocalizationManager::new(LocalizationMetadata::for_floor(floor, &model))
    }

    #[test]
    fn ideal_channel_localizes_precisely() {
        let floor = FloorPlan::retail_store();
        let model = PathLossModel::indoor_default();
        let mut mgr = manager(&floor);
        let truth = Point::new(13.0, 8.0);
        for lm in &floor.landmarks {
            mgr.report(&lm.name, model.rx_power_dbm(truth.distance(lm.pos)));
        }
        let est = mgr.estimate().expect("estimate");
        assert!(
            est.distance(truth) < 0.5,
            "error {} m at {est:?}",
            est.distance(truth)
        );
    }

    #[test]
    fn needs_three_landmarks() {
        let floor = FloorPlan::retail_store();
        let mut mgr = manager(&floor);
        mgr.report("L1", -70.0);
        mgr.report("L2", -75.0);
        assert!(mgr.estimate().is_none());
        mgr.report("L3", -80.0);
        assert!(mgr.estimate().is_some());
    }

    #[test]
    fn realistic_channel_error_is_metres_not_tens() {
        // The paper's headline localization accuracy: ~3 m mean error with
        // all seven landmarks (Fig. 9(b)).
        let floor = FloorPlan::retail_store();
        let model = PathLossModel::indoor_default();
        let channel = RadioChannel::new(model, 77);
        let world = ProximityWorld::from_floor(&floor, "acme", channel);

        let mut total = 0.0;
        let mut n = 0;
        for cp in &floor.checkpoints {
            let mut mgr = manager(&floor);
            let mut modem = Modem::new();
            modem.subscribe(SubscriptionFilter::service_wide("acme"));
            for ev in world.scan_dwell(&mut modem, cp.pos, 0, 4) {
                mgr.report(&ev.publisher, ev.rx_power_dbm);
            }
            if let Some(est) = mgr.estimate() {
                total += est.distance(cp.pos);
                n += 1;
            }
        }
        assert!(n >= 20, "only {n} checkpoints localized");
        let mean = total / n as f64;
        assert!(
            (1.0..6.0).contains(&mean),
            "mean localization error {mean:.2} m"
        );
    }

    #[test]
    fn unknown_landmarks_ignored() {
        let floor = FloorPlan::retail_store();
        let mut mgr = manager(&floor);
        mgr.report("nonsense", -50.0);
        assert_eq!(mgr.readings.len(), 0);
    }

    #[test]
    fn ewma_smooths_oscillating_readings() {
        let floor = FloorPlan::retail_store();
        let mut mgr = manager(&floor);
        mgr.report("L1", -70.0);
        mgr.report("L1", -80.0);
        let v = mgr.rx_view();
        assert_eq!(v.len(), 1);
        assert!((v[0].1 - (-75.0)).abs() < 1e-9, "smoothed {}", v[0].1);
    }
}
