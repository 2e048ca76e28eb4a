//! The D2D radio channel: log-distance path loss, deterministic shadowing
//! and the rxPower / SNR side information LTE-direct reports with each
//! received service discovery message.
//!
//! The paper's Fig. 6 shows why this matters: **rxPower** spans ~50 dB and
//! correlates strongly with distance, while **SNR** is clipped to the ~25 dB
//! dynamic range usable for decoding and therefore saturates near landmarks.
//! ACACIA consequently localizes on rxPower. The channel model reproduces
//! both behaviours.

use acacia_geo::pathloss::PathLossModel;
use acacia_geo::point::Point;

/// Receiver sensitivity: messages below this power are not decoded.
pub const SENSITIVITY_DBM: f64 = -112.0;

/// Thermal-plus-interference noise floor at the receiver.
pub const NOISE_FLOOR_DBM: f64 = -100.0;

/// Usable SNR dynamic range for decoding, dB (paper: "25 dB span compared
/// to 50 dB span in rxPower").
pub const SNR_SPAN_DB: f64 = 25.0;

/// One received service-discovery transmission's radio measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioReading {
    /// Received power, dBm.
    pub rx_power_dbm: f64,
    /// Signal-to-noise ratio clipped to the decoder's dynamic range, dB.
    pub snr_db: f64,
}

/// Deterministic radio channel between fixed publishers and a moving
/// subscriber.
#[derive(Debug, Clone)]
pub struct RadioChannel {
    /// Large-scale path loss.
    pub pathloss: PathLossModel,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Per-reading fast-fading standard deviation, dB.
    pub fading_sigma_db: f64,
    seed: u64,
}

impl RadioChannel {
    /// Channel with the given seed; same seed ⇒ identical readings.
    pub fn new(pathloss: PathLossModel, seed: u64) -> RadioChannel {
        RadioChannel {
            pathloss,
            // Indoor log-normal shadowing; 4.5 dB reproduces the paper's
            // ~3 m mean localization error with all seven landmarks.
            shadowing_sigma_db: 4.5,
            fading_sigma_db: 1.5,
            seed,
        }
    }

    /// Sample the channel from a publisher at `tx_pos` (identified by
    /// `publisher_id`) to a subscriber at `rx_pos` at time-step `tick`.
    ///
    /// Returns `None` when the message lands below receiver sensitivity.
    ///
    /// Shadowing is a deterministic function of the publisher and the
    /// subscriber's 1 m grid cell (spatially consistent: standing still
    /// yields the same shadowing), while fading varies per `tick`.
    pub fn sample(
        &self,
        publisher_id: u64,
        tx_pos: Point,
        rx_pos: Point,
        tick: u64,
    ) -> Option<RadioReading> {
        let d = tx_pos.distance(rx_pos);
        let mean = self.pathloss.rx_power_dbm(d);
        let cell = (quantize(rx_pos.x), quantize(rx_pos.y));
        let shadow = self.shadowing_sigma_db
            * gaussian(hash4(self.seed, publisher_id, cell.0 as u64, cell.1 as u64));
        let fade =
            self.fading_sigma_db * gaussian(hash4(self.seed ^ 0x9e37_79b9, publisher_id, tick, 0));
        let rx = mean + shadow + fade;
        if rx < SENSITIVITY_DBM {
            return None;
        }
        let snr = (rx - NOISE_FLOOR_DBM).clamp(0.0, SNR_SPAN_DB);
        Some(RadioReading {
            rx_power_dbm: rx,
            snr_db: snr,
        })
    }
}

/// Quantize a coordinate to a 1 m shadowing grid (offset so negatives work).
fn quantize(v: f64) -> i64 {
    (v.floor() as i64) + 1_000_000
}

/// SplitMix64-style avalanche hash of four words.
fn hash4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(d.wrapping_mul(0x2545_f491_4f6c_dd1d));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Map a hash to a standard-normal sample via Box-Muller on two halves.
fn gaussian(h: u64) -> f64 {
    let u1 = ((h >> 32) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
    let u2 = ((h & 0xffff_ffff) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ideal channel: no shadowing, no fading.
    fn ideal(pathloss: PathLossModel) -> RadioChannel {
        RadioChannel {
            shadowing_sigma_db: 0.0,
            fading_sigma_db: 0.0,
            ..RadioChannel::new(pathloss, 0)
        }
    }
    use acacia_geo::pathloss::PathLossModel;

    fn channel() -> RadioChannel {
        RadioChannel::new(PathLossModel::indoor_default(), 42)
    }

    #[test]
    fn readings_are_deterministic() {
        let ch = channel();
        let a = ch.sample(1, Point::new(0.0, 0.0), Point::new(5.0, 5.0), 3);
        let b = ch.sample(1, Point::new(0.0, 0.0), Point::new(5.0, 5.0), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = channel().sample(1, Point::new(0.0, 0.0), Point::new(5.0, 5.0), 3);
        let b = RadioChannel::new(PathLossModel::indoor_default(), 43).sample(
            1,
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            3,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn ideal_channel_matches_pathloss_exactly() {
        let pl = PathLossModel::indoor_default();
        let ch = ideal(pl);
        let r = ch
            .sample(7, Point::new(0.0, 0.0), Point::new(3.0, 4.0), 0)
            .unwrap();
        assert!((r.rx_power_dbm - pl.rx_power_dbm(5.0)).abs() < 1e-12);
    }

    #[test]
    fn rx_power_decreases_with_distance_on_average() {
        let ch = channel();
        let near: f64 = (0..50)
            .filter_map(|t| ch.sample(1, Point::new(0.0, 0.0), Point::new(2.0, 0.0), t))
            .map(|r| r.rx_power_dbm)
            .sum::<f64>()
            / 50.0;
        let far: f64 = (0..50)
            .filter_map(|t| ch.sample(1, Point::new(0.0, 0.0), Point::new(30.0, 0.0), t))
            .map(|r| r.rx_power_dbm)
            .sum::<f64>()
            / 50.0;
        assert!(near > far + 20.0, "near {near} far {far}");
    }

    #[test]
    fn snr_saturates_near_landmark_rx_power_does_not() {
        // The paper's core argument for using rxPower over SNR: close to a
        // publisher, SNR pins at its dynamic-range ceiling while rxPower
        // keeps discriminating.
        let ch = ideal(PathLossModel::indoor_default());
        let at = |d: f64| {
            ch.sample(1, Point::new(0.0, 0.0), Point::new(d, 0.0), 0)
                .unwrap()
        };
        let r1 = at(0.5);
        let r2 = at(1.5);
        assert_eq!(r1.snr_db, SNR_SPAN_DB);
        assert_eq!(
            r2.snr_db, SNR_SPAN_DB,
            "SNR indistinguishable near the landmark"
        );
        assert!(
            r1.rx_power_dbm > r2.rx_power_dbm + 5.0,
            "rxPower still discriminates"
        );
    }

    #[test]
    fn below_sensitivity_is_not_received() {
        let ch = ideal(PathLossModel::indoor_default());
        // indoor_default gives ~-40 dBm at 1 m and loses 38 dB per decade:
        // at 1 km the signal is ~-154 dBm, far below sensitivity.
        assert!(ch
            .sample(1, Point::new(0.0, 0.0), Point::new(1000.0, 0.0), 0)
            .is_none());
    }

    #[test]
    fn shadowing_is_spatially_consistent() {
        let ch = RadioChannel {
            fading_sigma_db: 0.0,
            ..channel()
        };
        // Same grid cell => identical reading regardless of tick.
        let a = ch.sample(1, Point::new(0.0, 0.0), Point::new(5.2, 5.7), 1);
        let b = ch.sample(1, Point::new(0.0, 0.0), Point::new(5.2, 5.7), 99);
        assert_eq!(a, b);
    }
}
