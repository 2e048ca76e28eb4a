//! QoS Class Identifiers (3GPP TS 23.203 table 6.1.7).
//!
//! A bearer carries a QCI that fixes its scheduling priority, packet delay
//! budget and loss-rate target. ACACIA's dedicated MEC bearers use the
//! non-GBR QCIs 5–9 (paper Fig. 10(a) sweeps exactly those).

/// A QoS Class Identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Qci(pub u8);

impl Qci {
    /// Default-bearer QCI in commercial LTE deployments.
    pub const DEFAULT_BEARER: Qci = Qci(9);

    /// The non-GBR QCIs swept in the paper's Fig. 10(a).
    pub const NON_GBR: [Qci; 5] = [Qci(5), Qci(6), Qci(7), Qci(8), Qci(9)];

    /// Scheduling priority (lower = served first), per TS 23.203.
    pub fn priority(&self) -> u8 {
        match self.0 {
            1 => 2,
            2 => 4,
            3 => 3,
            4 => 5,
            5 => 1,
            6 => 6,
            7 => 7,
            8 => 8,
            9 => 9,
            _ => 9,
        }
    }

    /// Packet delay budget in milliseconds, per TS 23.203.
    pub fn delay_budget_ms(&self) -> u32 {
        match self.0 {
            1 => 100,
            2 => 150,
            3 => 50,
            4 => 300,
            5 => 100,
            6 => 300,
            7 => 100,
            8 | 9 => 300,
            _ => 300,
        }
    }

    /// Packet error loss rate target (as a fraction), per TS 23.203.
    pub fn loss_rate(&self) -> f64 {
        match self.0 {
            1 => 1e-2,
            2 => 1e-3,
            3 => 1e-3,
            4 => 1e-6,
            5 => 1e-6,
            6 => 1e-6,
            7 => 1e-3,
            8 | 9 => 1e-6,
            _ => 1e-6,
        }
    }

    /// DSCP/TOS byte used to mark this class's packets in the data plane.
    ///
    /// Monotone mapping: higher scheduling priority (smaller number) ⇒
    /// higher DSCP, with priority `p` mapped to DSCP `10 - p`. Priorities
    /// at or beyond 10 saturate to DSCP 0 (best effort) instead of
    /// colliding with priority 9's band, so the mapping is strictly
    /// monotone over the whole TS 23.203 priority range 1–9 and
    /// non-increasing beyond it.
    pub fn tos(&self) -> u8 {
        10u8.saturating_sub(self.priority()) << 2
    }
}

impl std::fmt::Display for Qci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QCI {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qci5_has_highest_non_gbr_priority() {
        let mut best = Qci(5);
        for q in Qci::NON_GBR {
            if q.priority() < best.priority() {
                best = q;
            }
        }
        assert_eq!(best, Qci(5));
    }

    #[test]
    fn priorities_strictly_ordered_across_fig10a_sweep() {
        let ps: Vec<u8> = Qci::NON_GBR.iter().map(|q| q.priority()).collect();
        for w in ps.windows(2) {
            assert!(w[0] < w[1], "priorities {ps:?} must increase 5→9");
        }
    }

    #[test]
    fn gbr_classification() {
        // QCIs 1-4 are the guaranteed-bit-rate classes.
        for q in Qci::NON_GBR {
            assert!(!(1..=4).contains(&q.0));
        }
    }

    #[test]
    fn tos_is_monotone_in_priority() {
        assert!(Qci(5).tos() > Qci(9).tos());
        assert!(Qci(7).tos() > Qci(8).tos());
    }

    #[test]
    fn tos_mapping_pinned_for_gbr_and_non_gbr() {
        // DSCP = 10 - priority, ToS = DSCP << 2. Pin every class the
        // repo's scenarios can mark so the link scheduler's class layout
        // is frozen: GBR 1–4 …
        assert_eq!(Qci(1).tos(), 32); // priority 2
        assert_eq!(Qci(2).tos(), 24); // priority 4
        assert_eq!(Qci(3).tos(), 28); // priority 3
        assert_eq!(Qci(4).tos(), 20); // priority 5
                                      // … and all of NON_GBR (5–9).
        assert_eq!(Qci(5).tos(), 36); // priority 1
        assert_eq!(Qci(6).tos(), 16); // priority 6
        assert_eq!(Qci(7).tos(), 12); // priority 7
        assert_eq!(Qci(8).tos(), 8); // priority 8
        assert_eq!(Qci(9).tos(), 4); // priority 9
    }

    #[test]
    fn tos_is_strictly_monotone_and_collision_free_across_known_classes() {
        // Sort QCIs 1–9 by scheduling priority; the ToS sequence must be
        // strictly decreasing — no two classes share a DSCP band.
        let mut qcis: Vec<Qci> = (1..=9).map(Qci).collect();
        qcis.sort_by_key(|q| q.priority());
        for w in qcis.windows(2) {
            assert!(
                w[0].tos() > w[1].tos(),
                "{} (prio {}) and {} (prio {}) must map to distinct, ordered bands",
                w[0],
                w[0].priority(),
                w[1],
                w[1].priority()
            );
        }
    }

    #[test]
    fn tos_saturates_to_best_effort_for_out_of_range_priorities() {
        // Unknown QCIs take priority 9 (ToS 4, DSCP 1); they must never
        // collide upward into a real class's band, and the former
        // priority-10 wraparound (which aliased priority 9's band) is
        // pinned out: DSCP saturates at 0.
        assert_eq!(Qci(0).tos(), 4);
        assert_eq!(Qci(77).tos(), 4);
        assert_eq!(10u8.saturating_sub(10) << 2, 0);
        assert_eq!(10u8.saturating_sub(200) << 2, 0);
    }

    #[test]
    fn delay_budgets_match_spec_anchors() {
        assert_eq!(Qci(5).delay_budget_ms(), 100);
        assert_eq!(Qci(9).delay_budget_ms(), 300);
        assert_eq!(Qci(3).delay_budget_ms(), 50);
    }
}
