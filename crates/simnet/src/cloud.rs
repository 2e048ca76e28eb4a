//! Wide-area path presets calibrated to the paper's measurements.
//!
//! The paper measures RTTs from a smartphone on a commercial LTE network in
//! the US midwest to Amazon EC2 in three regions (Fig. 3(c)): the California
//! region shows the lowest median RTT (~70 ms), Oregon and Virginia higher.
//! The LTE access network itself contributes ~13 ms RTT (Fig. 10(a)), the
//! centralized core adds hierarchical-routing delay, and the remainder is
//! Internet transit. These presets encode the transit leg; the LTE access
//! leg comes from `acacia-lte`'s radio model.

use crate::link::LinkConfig;
use crate::time::Duration;

/// EC2 regions used in the paper's measurement study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ec2Region {
    /// us-west-1 — closest to the midwest vantage point in the paper's data.
    California,
    /// us-west-2.
    Oregon,
    /// us-east-1.
    Virginia,
}

impl Ec2Region {
    /// All regions, in the paper's presentation order.
    pub const ALL: [Ec2Region; 3] = [
        Ec2Region::California,
        Ec2Region::Oregon,
        Ec2Region::Virginia,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Ec2Region::California => "California",
            Ec2Region::Oregon => "Oregon",
            Ec2Region::Virginia => "Virginia",
        }
    }

    /// One-way Internet transit delay from the (midwest) PGW to the region.
    pub fn one_way_delay(&self) -> Duration {
        match self {
            Ec2Region::California => Duration::from_micros(18_500),
            Ec2Region::Oregon => Duration::from_micros(28_000),
            Ec2Region::Virginia => Duration::from_micros(40_000),
        }
    }

    /// Per-packet jitter bound of the transit leg. Wide-area paths in the
    /// paper show long tails (Fig. 3(c) reaches 180 ms), which the uniform
    /// jitter here approximates.
    pub(crate) fn jitter(&self) -> Duration {
        match self {
            Ec2Region::California => Duration::from_micros(9_000),
            Ec2Region::Oregon => Duration::from_micros(12_000),
            Ec2Region::Virginia => Duration::from_micros(16_000),
        }
    }

    /// Link configuration for the transit leg (high-rate, delay dominated).
    pub fn link_config(&self) -> LinkConfig {
        LinkConfig::rate_limited(1_000_000_000, self.one_way_delay())
            .with_queue(4 * 1024 * 1024)
            .with_jitter(self.jitter())
    }

    /// Measured uplink bandwidth from the paper's Fig. 3(d), by signal
    /// quality, in bits/s. Uplink capacity is a property of the radio leg
    /// but the paper reports it per-region because TCP throughput over the
    /// longer paths is slightly lower.
    pub fn uplink_bps(&self, excellent_signal: bool) -> u64 {
        let base = match self {
            Ec2Region::California => 12_000_000,
            Ec2Region::Oregon => 11_200_000,
            Ec2Region::Virginia => 10_500_000,
        };
        if excellent_signal {
            base
        } else {
            // "Fair (2/4 bars)" roughly halves the uplink rate in Fig. 3(d).
            base / 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn california_is_closest() {
        assert!(Ec2Region::California.one_way_delay() < Ec2Region::Oregon.one_way_delay());
        assert!(Ec2Region::Oregon.one_way_delay() < Ec2Region::Virginia.one_way_delay());
    }

    #[test]
    fn fair_signal_halves_uplink() {
        for region in Ec2Region::ALL {
            assert_eq!(region.uplink_bps(false), region.uplink_bps(true) / 2);
        }
    }

    #[test]
    fn link_config_carries_delay_and_jitter() {
        let cfg = Ec2Region::Virginia.link_config();
        assert_eq!(cfg.delay, Duration::from_micros(40_000));
        assert!(cfg.jitter > Duration::ZERO);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Ec2Region::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
