//! Mobility primitives: UE trajectories, per-cell RSRP, and the A3
//! handover-event tracker.
//!
//! The paper deploys ACACIA on an ip.access small cell coexisting with a
//! commercial macrocell — users continuously walk in and out of MEC
//! coverage, so the dedicated bearer must follow (or gracefully fall back
//! from) the serving cell. This module holds the *pure* pieces of that
//! story: waypoint walks driven by the simnet clock, a [`CellSite`] RSRP
//! model reusing the `geo` path-loss ground truth, and an [`A3Tracker`]
//! implementing the standard A3 entering condition (neighbour better than
//! serving by a hysteresis margin, sustained for a time-to-trigger). The
//! protocol side (X2 messages, the eNB state machine) lives in
//! [`crate::wire`] and [`crate::enb`].

use acacia_geo::{PathLossModel, Point};
use acacia_simnet::time::{Duration, Instant};

/// A stop on a walk: a position and how long the UE lingers there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Where, in metres.
    pub pos: Point,
    /// Dwell time once the waypoint is reached.
    pub dwell: Duration,
}

impl Waypoint {
    /// A waypoint with no dwell (pass straight through).
    pub fn passing(pos: Point) -> Waypoint {
        Waypoint {
            pos,
            dwell: Duration::ZERO,
        }
    }

    /// A waypoint where the UE stops for `dwell`.
    pub fn dwelling(pos: Point, dwell: Duration) -> Waypoint {
        Waypoint { pos, dwell }
    }
}

/// A deterministic waypoint walk: straight lines at constant speed with
/// per-waypoint dwells. Positions are a pure function of elapsed time, so
/// trajectory evaluation is replayable and thread-safe.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The walk, stored at its exact length (a walk lives as long as its
    /// UE, and a built-up `Vec` would keep its growth capacity).
    waypoints: Box<[Waypoint]>,
    speed_mps: f64,
    /// Leg i: time to walk waypoint i → i+1, then dwell at i+1.
    start: Instant,
}

impl Trajectory {
    /// Build a walk through `waypoints` at `speed_mps`, starting (at the
    /// first waypoint) at simulation time `start`. Panics on an empty
    /// waypoint list or non-positive speed.
    pub(crate) fn new(waypoints: Vec<Waypoint>, speed_mps: f64, start: Instant) -> Trajectory {
        assert!(!waypoints.is_empty(), "trajectory needs >= 1 waypoint");
        assert!(speed_mps > 0.0, "speed must be positive");
        Trajectory {
            waypoints: waypoints.into_boxed_slice(),
            speed_mps,
            start,
        }
    }

    /// Total walking + dwelling time from the first waypoint to rest at
    /// the last (the initial waypoint's dwell counts too).
    pub(crate) fn total_duration(&self) -> Duration {
        let mut total = self.waypoints[0].dwell;
        for w in self.waypoints.windows(2) {
            let walk = w[0].pos.distance(w[1].pos) / self.speed_mps;
            total = total
                .saturating_add(Duration::from_secs_f64(walk))
                .saturating_add(w[1].dwell);
        }
        total
    }

    /// Position at simulation time `now`: clamped to the first waypoint
    /// before `start` and to the last waypoint after the walk completes.
    pub(crate) fn position(&self, now: Instant) -> Point {
        let mut remaining = now.saturating_since(self.start).secs_f64();
        let mut dwell = self.waypoints[0].dwell.secs_f64();
        if remaining <= dwell {
            return self.waypoints[0].pos;
        }
        remaining -= dwell;
        for w in self.waypoints.windows(2) {
            let leg = w[0].pos.distance(w[1].pos) / self.speed_mps;
            if remaining < leg {
                return w[0].pos.lerp(w[1].pos, remaining / leg);
            }
            remaining -= leg;
            dwell = w[1].dwell.secs_f64();
            if remaining < dwell {
                return w[1].pos;
            }
            remaining -= dwell;
        }
        self.waypoints[self.waypoints.len() - 1].pos
    }
}

/// A cell's radio footprint: transmitter position plus a log-distance
/// path-loss model giving mean RSRP (no shadowing — determinism first).
#[derive(Debug, Clone, Copy)]
pub struct CellSite {
    /// Transmitter position, metres.
    pub pos: Point,
    /// Ground-truth path loss.
    pub model: PathLossModel,
}

impl CellSite {
    /// RSRP seen by a UE at `ue_pos`, in centi-dBm. Integer centi-dBm is
    /// what goes on the wire (measurement reports stay float-free and
    /// byte-deterministic).
    pub(crate) fn rsrp_cdbm(&self, ue_pos: Point) -> i32 {
        (self.model.rx_power_dbm(self.pos.distance(ue_pos)) * 100.0).round() as i32
    }
}

/// A3-event parameters (3GPP 36.331 §5.5.4.4, simplified: offset folded
/// into the hysteresis).
#[derive(Debug, Clone, Copy)]
pub(crate) struct A3Config {
    /// Neighbour must beat serving by this margin, centi-dB.
    pub(crate) hysteresis_cdb: i32,
    /// The margin must hold continuously for this long before a
    /// measurement report fires.
    pub(crate) time_to_trigger: Duration,
    /// Measurement sampling interval.
    pub(crate) interval: Duration,
}

/// The A3 parameters every moving UE measures with: a 3 dB hysteresis,
/// a 256 ms time-to-trigger, one sample every 120 ms.
pub(crate) const A3: A3Config = A3Config {
    hysteresis_cdb: 300,
    time_to_trigger: Duration::from_millis(256),
    interval: Duration::from_millis(120),
};

/// Tracks the A3 entering condition across measurement samples and fires
/// once the time-to-trigger elapses.
#[derive(Debug, Clone, Default)]
pub struct A3Tracker {
    /// Best offset-better neighbour and when it first satisfied A3.
    candidate: Option<(usize, Instant)>,
}

impl A3Tracker {
    /// Feed one measurement sample taken at `pos`: the RSRP of each of
    /// `sites`, of which `sites[serving]` is the serving cell. Returns
    /// `Some(target_index)` when a neighbour has been offset-better (by
    /// [`A3`]'s hysteresis) for at least its time-to-trigger.
    pub(crate) fn observe(
        &mut self,
        now: Instant,
        serving: usize,
        sites: &[CellSite],
        pos: Point,
    ) -> Option<usize> {
        self.observe_rsrp(&A3, now, serving, sites.len(), |i| sites[i].rsrp_cdbm(pos))
    }

    /// [`A3Tracker::observe`] over `cells` cells whose RSRP, in centi-dBm,
    /// `rsrp_cdbm` gives by index: evaluated per cell, never collected.
    fn observe_rsrp(
        &mut self,
        cfg: &A3Config,
        now: Instant,
        serving: usize,
        cells: usize,
        rsrp_cdbm: impl Fn(usize) -> i32,
    ) -> Option<usize> {
        let serving_rsrp = rsrp_cdbm(serving);
        // Best neighbour satisfying the entering condition; ties broken by
        // lowest index for determinism.
        let best = (0..cells)
            .filter(|&i| i != serving)
            .map(|i| (i, rsrp_cdbm(i)))
            .filter(|&(_, r)| r >= serving_rsrp + cfg.hysteresis_cdb)
            .max_by_key(|&(i, r)| (r, std::cmp::Reverse(i)))
            .map(|(i, _)| i);
        match (best, self.candidate) {
            (None, _) => {
                self.candidate = None;
                None
            }
            (Some(b), Some((c, since))) if b == c => {
                if now.saturating_since(since) >= cfg.time_to_trigger {
                    Some(b)
                } else {
                    None
                }
            }
            (Some(b), _) => {
                // New (or switched) candidate: restart the timer. Fire
                // immediately only if time-to-trigger is zero.
                self.candidate = Some((b, now));
                if cfg.time_to_trigger == Duration::ZERO {
                    Some(b)
                } else {
                    None
                }
            }
        }
    }

    /// Forget the tracked candidate (after a handover, or after sending a
    /// report, to avoid duplicate triggers while the network executes).
    pub(crate) fn reset(&mut self) {
        self.candidate = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One A3 sample from RSRP values listed by cell.
    fn sample(
        a3: &mut A3Tracker,
        cfg: &A3Config,
        now: Instant,
        serving: usize,
        rsrp_cdbm: &[i32],
    ) -> Option<usize> {
        a3.observe_rsrp(cfg, now, serving, rsrp_cdbm.len(), |i| rsrp_cdbm[i])
    }

    fn t(s: f64) -> Instant {
        Instant::ZERO
            .checked_add(Duration::from_secs_f64(s))
            .unwrap()
    }

    #[test]
    fn trajectory_interpolates_and_clamps() {
        let tr = Trajectory::new(
            vec![
                Waypoint::passing(Point::new(0.0, 0.0)),
                Waypoint::dwelling(Point::new(10.0, 0.0), Duration::from_secs(5)),
                Waypoint::passing(Point::new(10.0, 10.0)),
            ],
            1.0,
            t(1.0),
        );
        assert_eq!(tr.position(t(0.0)), Point::new(0.0, 0.0)); // before start
        assert_eq!(tr.position(t(6.0)), Point::new(5.0, 0.0)); // mid leg 1
        assert_eq!(tr.position(t(13.0)), Point::new(10.0, 0.0)); // dwelling
        assert_eq!(tr.position(t(21.0)), Point::new(10.0, 5.0)); // mid leg 2
        assert_eq!(tr.position(t(100.0)), Point::new(10.0, 10.0)); // done
        assert_eq!(tr.total_duration(), Duration::from_secs(25));
    }

    #[test]
    fn rsrp_decreases_with_distance() {
        let site = CellSite {
            pos: Point::new(0.0, 0.0),
            model: PathLossModel::indoor_default(),
        };
        let near = site.rsrp_cdbm(Point::new(2.0, 0.0));
        let far = site.rsrp_cdbm(Point::new(30.0, 0.0));
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn a3_requires_hysteresis_and_ttt() {
        let cfg = A3Config {
            hysteresis_cdb: 300,
            time_to_trigger: Duration::from_millis(250),
            interval: Duration::from_millis(100),
        };
        let mut a3 = A3Tracker::default();
        // Neighbour better but inside hysteresis: never triggers.
        assert_eq!(sample(&mut a3, &cfg, t(0.0), 0, &[-9000, -8800]), None);
        // Crosses hysteresis: starts the clock.
        assert_eq!(sample(&mut a3, &cfg, t(0.1), 0, &[-9000, -8600]), None);
        assert_eq!(sample(&mut a3, &cfg, t(0.2), 0, &[-9000, -8600]), None);
        // 250 ms sustained: fires.
        assert_eq!(sample(&mut a3, &cfg, t(0.35), 0, &[-9000, -8600]), Some(1));
    }

    #[test]
    fn a3_resets_when_condition_lapses() {
        let cfg = A3Config {
            hysteresis_cdb: 300,
            time_to_trigger: Duration::from_millis(200),
            interval: Duration::from_millis(100),
        };
        let mut a3 = A3Tracker::default();
        assert_eq!(sample(&mut a3, &cfg, t(0.0), 0, &[-9000, -8600]), None);
        // Condition lapses: timer must restart.
        assert_eq!(sample(&mut a3, &cfg, t(0.1), 0, &[-9000, -8950]), None);
        assert_eq!(sample(&mut a3, &cfg, t(0.3), 0, &[-9000, -8600]), None);
        assert_eq!(sample(&mut a3, &cfg, t(0.4), 0, &[-9000, -8600]), None);
        assert_eq!(sample(&mut a3, &cfg, t(0.5), 0, &[-9000, -8600]), Some(1));
    }

    #[test]
    fn a3_zero_ttt_fires_immediately() {
        let cfg = A3Config {
            hysteresis_cdb: 100,
            time_to_trigger: Duration::ZERO,
            interval: Duration::from_millis(100),
        };
        let mut a3 = A3Tracker::default();
        assert_eq!(sample(&mut a3, &cfg, t(0.0), 1, &[-8000, -9000]), Some(0));
    }

    /// Sites read in place decide exactly as their RSRPs collected first,
    /// sample by sample along a walk past three cells.
    #[test]
    fn a3_over_sites_matches_collected_rsrp() {
        let cfg = A3;
        let sites: Vec<CellSite> = [0.0, 40.0, 80.0]
            .map(|x| CellSite {
                pos: Point::new(x, 0.0),
                model: PathLossModel::indoor_default(),
            })
            .into();
        let (mut by_site, mut by_value) = (A3Tracker::default(), A3Tracker::default());
        let (mut serving, mut fired) = (0, 0);
        for step in 0..200u32 {
            let now = t(f64::from(step) * 0.12);
            let pos = Point::new(f64::from(step) * 0.5, 3.0);
            let rsrp: Vec<i32> = sites.iter().map(|s| s.rsrp_cdbm(pos)).collect();
            let got = by_site.observe(now, serving, &sites, pos);
            assert_eq!(
                got,
                sample(&mut by_value, &cfg, now, serving, &rsrp),
                "step {step}"
            );
            if let Some(target) = got {
                (serving, fired) = (target, fired + 1);
                by_site.reset();
                by_value.reset();
            }
        }
        assert_eq!((serving, fired), (2, 2), "the walk hands over twice");
    }
}
