//! Control-overhead accounting for bearer-management policies (paper §4).
//!
//! The paper's argument for on-demand dedicated bearers: LTE tears bearers
//! down after **11.576 s** of inactivity and re-establishes them on the
//! next data activity (a "radio promotion" event). Each cycle costs a
//! fixed batch of control messages; a device that *always* keeps a second
//! (MEC) bearer pays that batch **for both bearers** at every cycle, while
//! ACACIA pays it once plus a dedicated-bearer setup only when LTE-direct
//! actually finds a service.

use acacia_simnet::time::Duration;

/// The idle timer after which LTE releases a device's bearers (the paper
/// cites 11.576 s, measured by Huang et al. on a commercial network).
pub const IDLE_TIMEOUT: Duration = Duration::from_micros(11_576_000);

/// On-the-wire bytes of one default-bearer release + re-establish cycle,
/// as measured by running the real procedures (§4: 2914 bytes).
pub const CYCLE_BYTES: u64 = 2914;

/// Control bytes for activating one dedicated bearer (network-initiated,
/// Fig. 5 steps 2–4: Rx + Gx + CreateBearer pair + E-RAB setup pair + two
/// flow-mods), from the calibrated wire-size table.
pub const DEDICATED_SETUP_BYTES: u64 = 320 + 340 + 240 + 130 + 300 + 130 + 190 + 180 + 2 * 400;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_projection_anchors() {
        // §4: "this could translate to 2.58MB of control traffic per day
        // per device ... (i.e., 929 times per day)" — that is the *extra*
        // bearer's share, i.e. one CYCLE_BYTES batch per cycle.
        let typical_extra = 929u64 * CYCLE_BYTES;
        assert!((2.5e6..2.8e6).contains(&(typical_extra as f64)));
        // "...as high as 20MB per device per day (i.e., 7200 times)".
        let worst_extra = 7_200u64 * CYCLE_BYTES;
        assert!((19e6..22e6).contains(&(worst_extra as f64)));
    }

    /// Extra daily bytes an always-on MEC bearer pays over ACACIA's
    /// on-demand one: the always-on bearer cycles with the default bearer
    /// (one more batch per cycle), while on-demand pays one dedicated-bearer
    /// setup per MEC session.
    fn always_on_penalty(idle_cycles_per_day: u64, service_matches_per_day: u64) -> i64 {
        (idle_cycles_per_day * CYCLE_BYTES) as i64
            - (service_matches_per_day * DEDICATED_SETUP_BYTES) as i64
    }

    #[test]
    fn on_demand_wins_for_realistic_usage() {
        // A shopper starts a handful of MEC sessions a day; the phone
        // cycles idle hundreds of times.
        for cycles in [929, 7_200] {
            for matches in [0, 3, 10, 50] {
                let penalty = always_on_penalty(cycles, matches);
                assert!(
                    penalty > 0,
                    "always-on should lose at {cycles} cycles / {matches} matches"
                );
            }
        }
    }

    #[test]
    fn break_even_point_is_implausibly_high() {
        // On-demand only loses if the user starts more MEC sessions per
        // day than the phone has idle cycles × (CYCLE/SETUP) — hundreds.
        let cycles = 929;
        let break_even = cycles * CYCLE_BYTES / DEDICATED_SETUP_BYTES;
        assert!(break_even > 700, "break-even at {break_even} sessions/day");
        assert!(always_on_penalty(cycles, break_even + 1) < 0);
    }

    #[test]
    fn idle_timeout_matches_paper() {
        assert_eq!(IDLE_TIMEOUT.millis(), 11_576);
    }
}
