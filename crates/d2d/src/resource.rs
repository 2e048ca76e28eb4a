//! Uplink resource accounting for LTE-direct discovery.
//!
//! Discovery resources are allocated "in the uplink part of the LTE
//! spectrum, which is lightly loaded compared to the downlink … this has a
//! negligible impact on the uplink capacity (utilizes < 1% of uplink
//! resources)" (paper §3). This module quantifies that claim for arbitrary
//! carrier configurations and bounds how many publishers fit per discovery
//! period ("hundreds of devices").

/// Uplink physical-layer configuration of an eNodeB.
#[derive(Debug, Clone, Copy)]
pub struct UplinkConfig {
    /// Resource blocks per 1 ms subframe (50 for a 10 MHz carrier, 100 for
    /// 20 MHz).
    pub rbs_per_subframe: u32,
    /// Subframes per second (always 1000 in LTE).
    pub subframes_per_sec: u32,
}

impl UplinkConfig {
    /// A 10 MHz LTE carrier.
    pub(crate) fn mhz10() -> UplinkConfig {
        UplinkConfig {
            rbs_per_subframe: 50,
            subframes_per_sec: 1000,
        }
    }

    /// A 20 MHz LTE carrier.
    pub(crate) fn mhz20() -> UplinkConfig {
        UplinkConfig {
            rbs_per_subframe: 100,
            subframes_per_sec: 1000,
        }
    }

    /// Total resource blocks per second.
    pub(crate) fn rbs_per_sec(&self) -> u64 {
        self.rbs_per_subframe as u64 * self.subframes_per_sec as u64
    }
}

/// A periodic discovery-resource allocation made by the eNodeB.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryAllocation {
    /// Period between discovery occasions, seconds (paper: 5 or 10 s).
    pub period_s: f64,
    /// Uplink subframes reserved per occasion.
    pub subframes_per_occasion: u32,
    /// Resource-block pairs a single discovery message occupies (LTE-direct
    /// expressions fit in 2 RBs).
    pub rbs_per_message: u32,
}

impl DiscoveryAllocation {
    /// The default used throughout the reproduction: 40 subframes every 5 s.
    pub(crate) fn default_5s() -> DiscoveryAllocation {
        DiscoveryAllocation {
            period_s: 5.0,
            subframes_per_occasion: 40,
            rbs_per_message: 2,
        }
    }

    /// Fraction of total uplink resources consumed by discovery.
    pub(crate) fn utilization(&self, cfg: UplinkConfig) -> f64 {
        let rbs_per_occasion = self.subframes_per_occasion as f64 * cfg.rbs_per_subframe as f64;
        let total_rbs_per_period = cfg.rbs_per_sec() as f64 * self.period_s;
        rbs_per_occasion / total_rbs_per_period
    }

    /// How many distinct publishers can broadcast per discovery occasion.
    pub(crate) fn capacity_per_occasion(&self, cfg: UplinkConfig) -> u32 {
        self.subframes_per_occasion * cfg.rbs_per_subframe / self.rbs_per_message
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allocation_is_under_one_percent() {
        let alloc = DiscoveryAllocation::default_5s();
        for cfg in [UplinkConfig::mhz10(), UplinkConfig::mhz20()] {
            let u = alloc.utilization(cfg);
            assert!(u < 0.01, "utilization {u} must stay below 1%");
            assert!(u > 0.0);
        }
    }

    #[test]
    fn capacity_supports_hundreds_of_devices() {
        let alloc = DiscoveryAllocation::default_5s();
        let cap = alloc.capacity_per_occasion(UplinkConfig::mhz10());
        assert!(cap >= 200, "capacity {cap} should be hundreds of devices");
    }

    #[test]
    fn longer_period_lowers_utilization() {
        let five = DiscoveryAllocation::default_5s();
        let ten = DiscoveryAllocation {
            period_s: 10.0,
            ..five
        };
        let cfg = UplinkConfig::mhz10();
        assert!(ten.utilization(cfg) < five.utilization(cfg));
    }

    #[test]
    fn wider_carrier_lowers_relative_utilization_not_capacity() {
        let alloc = DiscoveryAllocation::default_5s();
        assert_eq!(
            alloc.utilization(UplinkConfig::mhz10()),
            alloc.utilization(UplinkConfig::mhz20()),
        );
        assert!(
            alloc.capacity_per_occasion(UplinkConfig::mhz20())
                > alloc.capacity_per_occasion(UplinkConfig::mhz10())
        );
    }
}
