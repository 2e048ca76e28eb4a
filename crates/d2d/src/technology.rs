//! Alternative proximity-discovery technologies (paper §8, "Other
//! proximity discovery techniques with ACACIA").
//!
//! ACACIA's device manager is technology-agnostic: anything with a
//! pub/sub discovery message and a received-power reading can drive it.
//! Besides LTE-direct the paper names **iBeacon** (Bluetooth LE) and
//! **Wi-Fi Aware**; this module captures their radio and timing
//! characteristics so the rest of the stack runs unchanged on any of them.

use acacia_geo::pathloss::PathLossModel;

/// A proximity service discovery technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProximityTech {
    /// 3GPP Release-12 device-to-device discovery (the paper's choice).
    LteDirect,
    /// Apple iBeacon over Bluetooth Low Energy advertisements.
    IBeacon,
    /// Wi-Fi Aware (Neighbor Awareness Networking).
    WifiAware,
}

impl ProximityTech {
    /// All supported technologies.
    pub const ALL: [ProximityTech; 3] = [
        ProximityTech::LteDirect,
        ProximityTech::IBeacon,
        ProximityTech::WifiAware,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProximityTech::LteDirect => "LTE-direct",
            ProximityTech::IBeacon => "iBeacon",
            ProximityTech::WifiAware => "Wi-Fi Aware",
        }
    }

    /// Discovery/advertisement period, seconds. LTE-direct occasions are
    /// eNB-scheduled every 5–10 s; BLE beacons advertise several times a
    /// second; NAN discovery windows recur every ~0.5 s.
    pub fn period_s(&self) -> f64 {
        match self {
            ProximityTech::LteDirect => 5.0,
            ProximityTech::IBeacon => 0.3,
            ProximityTech::WifiAware => 0.5,
        }
    }

    /// Transmit power, dBm.
    pub(crate) fn tx_power_dbm(&self) -> f64 {
        match self {
            ProximityTech::LteDirect => 23.0,
            ProximityTech::IBeacon => 0.0,
            ProximityTech::WifiAware => 15.0,
        }
    }

    /// Indoor path-loss model at this technology's carrier frequency
    /// (2.4/5 GHz lose more at the reference metre than 700 MHz–2 GHz
    /// LTE bands; exponents are comparable indoors).
    pub fn pathloss(&self) -> PathLossModel {
        match self {
            ProximityTech::LteDirect => PathLossModel::indoor_default(),
            ProximityTech::IBeacon => PathLossModel {
                tx_power_dbm: self.tx_power_dbm(),
                pl0_db: 65.0,
                exponent: 3.4,
            },
            ProximityTech::WifiAware => PathLossModel {
                tx_power_dbm: self.tx_power_dbm(),
                pl0_db: 70.0,
                exponent: 3.6,
            },
        }
    }

    /// Does discovery require deployed infrastructure? (The paper's pitch
    /// for LTE-direct: the eNB only *schedules*; landmarks are ordinary
    /// phones. iBeacon requires battery beacons on shelves; Wi-Fi Aware
    /// needs nothing either but burns handset power.)
    pub fn needs_infrastructure(&self) -> bool {
        matches!(self, ProximityTech::IBeacon)
    }

    /// Practical indoor discovery range in metres: the distance at which
    /// the mean received power crosses the receiver sensitivity.
    pub fn nominal_range_m(&self) -> f64 {
        let pl = self.pathloss();
        pl.distance_for(crate::channel::SENSITIVITY_DBM + 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RadioChannel;
    use crate::discovery::ProximityWorld;
    use crate::modem::Modem;
    use crate::service::SubscriptionFilter;
    use acacia_geo::floor::FloorPlan;
    use acacia_geo::point::Point;

    /// A radio channel with `tech`'s characteristics.
    fn channel(tech: ProximityTech, seed: u64) -> RadioChannel {
        RadioChannel::new(tech.pathloss(), seed ^ (tech as u64) << 32)
    }

    #[test]
    fn lte_direct_has_longest_range() {
        let lte = ProximityTech::LteDirect.nominal_range_m();
        let ble = ProximityTech::IBeacon.nominal_range_m();
        let wifi = ProximityTech::WifiAware.nominal_range_m();
        assert!(lte > wifi, "lte {lte:.0} m vs wifi {wifi:.0} m");
        assert!(wifi > ble, "wifi {wifi:.0} m vs ble {ble:.0} m");
        // The paper cites LTE-direct's "superior range": hundreds of
        // metres outdoors; our indoor model should still exceed 50 m.
        assert!(lte > 50.0, "lte range {lte:.0} m");
        assert!(ble > 10.0 && ble < 80.0, "ble range {ble:.0} m");
    }

    #[test]
    fn faster_advertisement_means_faster_discovery() {
        assert!(ProximityTech::IBeacon.period_s() < ProximityTech::LteDirect.period_s());
        assert!(ProximityTech::WifiAware.period_s() < ProximityTech::LteDirect.period_s());
    }

    #[test]
    fn only_ibeacon_needs_infrastructure() {
        assert!(ProximityTech::IBeacon.needs_infrastructure());
        assert!(!ProximityTech::LteDirect.needs_infrastructure());
        assert!(!ProximityTech::WifiAware.needs_infrastructure());
    }

    #[test]
    fn every_technology_drives_the_same_discovery_pipeline() {
        let floor = FloorPlan::retail_store();
        for tech in ProximityTech::ALL {
            let mut world = ProximityWorld::from_floor(&floor, "acme", channel(tech, 9));
            world.period_s = tech.period_s();
            let mut modem = Modem::new();
            modem.subscribe(SubscriptionFilter::service_wide("acme"));
            // Standing next to L4, every technology hears it.
            let events = world.scan(&mut modem, Point::new(14.0, 2.6), 0);
            assert!(
                events.iter().any(|e| e.publisher == "L4"),
                "{} heard nothing from the adjacent landmark",
                tech.name()
            );
        }
    }

    #[test]
    fn ble_hears_fewer_landmarks_than_lte_direct() {
        let floor = FloorPlan::retail_store();
        let hear_count = |tech: ProximityTech| {
            let world = ProximityWorld::from_floor(&floor, "acme", channel(tech, 4));
            let mut modem = Modem::new();
            modem.subscribe(SubscriptionFilter::service_wide("acme"));
            // Count over several occasions from a far corner of the store
            // (most landmarks sit 15-28 m away).
            (0..6)
                .map(|t| world.scan(&mut modem, Point::new(27.5, 14.5), t).len())
                .sum::<usize>()
        };
        let lte = hear_count(ProximityTech::LteDirect);
        let ble = hear_count(ProximityTech::IBeacon);
        assert!(lte > ble, "lte heard {lte}, ble heard {ble}");
    }
}
