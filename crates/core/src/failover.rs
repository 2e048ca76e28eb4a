//! Node-lifecycle chaos over the regional scenario: MEC/GW crash-restart
//! injection and the end-to-end session failover ladder.
//!
//! The [`crate::metro`] scenario (with [`FailoverWiring`]
//! enabled) already carries the full detection-and-recovery machinery:
//! MEC servers heartbeat the cloud MRS, the MRS runs miss-N-of-M lease
//! audits, streaming clients periodically re-validate their resolution,
//! and the GW-C guards against anchoring dedicated bearers on gateways
//! with no path to the UE. This module adds the *faults*: a seeded
//! [`NodeFaultPlan`] crashing a region's MEC server (and, for correlated
//! region outages, its local GW-U), the O&M failure indication that
//! flushes the dead gateway's bearers, and the post-outage pokes that
//! revive a restarted node's heartbeat chain. It then audits the outcome
//! of **every** session:
//!
//! * **stayed** — the serving MEC never lapsed (unaffected regions);
//! * **neighbor-MEC** — the session re-anchored on the next-closest
//!   region's server over the default bearer;
//! * **cloud-fallback** — the session degraded to the cloud path;
//! * **restart-rebind** — the session left and came back after the
//!   crashed server restarted and its lease was restored.
//!
//! Every session must land in exactly one bucket and complete its frame
//! budget — `wedged == 0` at every shard count is the experiment's
//! headline invariant.

use crate::arclient::ArFrontend;
use crate::corridor::Timeline;
use crate::metro::{FailoverWiring, MetroConfig, MetroReport, MetroScenario};
use crate::mrs::Mrs;
use acacia_lte::entities::{gwc_port, GwControl};
use acacia_lte::wire::ControlMsg;
use acacia_simnet::fault::{NodeFaultPlan, NodeFaultRule};
use acacia_simnet::packet::Packet;
use acacia_simnet::time::Duration;

/// What dies, and whether it comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMode {
    /// The victim region's MEC server crash-stops and never returns.
    CrashStop,
    /// The MEC server crash-restarts after the configured outage.
    CrashRestart,
    /// Correlated region outage: the MEC server *and* the region's local
    /// GW-U crash-restart together, and the O&M plane tells the GW-C to
    /// flush every bearer anchored on the dead gateway.
    RegionOutage,
}

impl FailoverMode {
    /// Stable label for tables and sweep output.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverMode::CrashStop => "crash-stop",
            FailoverMode::CrashRestart => "crash-restart",
            FailoverMode::RegionOutage => "region-outage",
        }
    }
}

/// Failover experiment parameters.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// The regions underneath (their `failover` wiring is force-enabled
    /// by [`FailoverScenario::run`]).
    pub metro: MetroConfig,
    /// Crash shape.
    pub mode: FailoverMode,
    /// Region whose MEC (and GW-U, for [`FailoverMode::RegionOutage`])
    /// dies.
    pub crash_region: usize,
    /// Crash instant, as an offset from schedule time — pick it inside
    /// the streaming phase.
    pub crash_after: Duration,
    /// Outage length for the restarting modes (ignored by
    /// [`FailoverMode::CrashStop`]).
    pub outage: Duration,
    /// Seed of the node-fault plan (probability draws; the schedule
    /// itself is deterministic).
    pub fault_seed: u64,
}

impl FailoverConfig {
    /// Failover over the smoke city ([`MetroConfig::city_smoke`]):
    /// 8 regions × 4 UEs, 3 frames, crash 2 s into the run.
    pub fn smoke(mode: FailoverMode, outage: Duration) -> FailoverConfig {
        FailoverConfig {
            metro: MetroConfig {
                failover: Some(FailoverWiring::default()),
                ..MetroConfig::city_smoke()
            },
            mode,
            crash_region: 0,
            crash_after: Duration::from_secs(2),
            outage,
            fault_seed: 11,
        }
    }
}

/// Which bucket each session landed in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverOutcomes {
    /// Sessions that never failed over.
    pub stayed: usize,
    /// Sessions anchored on a neighbor region's MEC at the end.
    pub neighbor_mec: usize,
    /// Sessions that ended on the cloud fallback.
    pub cloud_fallback: usize,
    /// Sessions that left and re-bound to the restarted original server.
    pub restart_rebind: usize,
}

impl FailoverOutcomes {
    /// Sessions accounted for across all buckets.
    pub fn total(&self) -> usize {
        self.stayed + self.neighbor_mec + self.cloud_fallback + self.restart_rebind
    }
}

/// Results of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The underlying regional report (frames, handovers, wedged, parity).
    pub metro: MetroReport,
    /// Outcome audit over every session.
    pub outcomes: FailoverOutcomes,
    /// Service interruptions recorded at each failover (seconds, sorted
    /// ascending): the gap between the session's last forward progress
    /// and the adoption of the new server.
    pub interruptions_s: Vec<f64>,
    /// Total failovers across all sessions.
    pub failovers: u64,
    /// Lease rechecks issued by clients.
    pub lease_rechecks: u64,
    /// Engine: node restarts executed.
    pub node_restarts: u64,
    /// Engine: arrivals rejected at crashed nodes.
    pub node_arrivals_rejected: u64,
    /// Engine: stale-epoch timers dropped.
    pub node_timers_dropped: u64,
    /// MRS: heartbeats ingested.
    pub mrs_heartbeats: u64,
    /// MRS: lease evictions.
    pub mrs_evictions: u64,
    /// MRS: post-eviction restores.
    pub mrs_restores: u64,
    /// GW-C: GW-U failure notices processed.
    pub gwu_failure_notices: u64,
    /// GW-C: dedicated bearers flushed by failure notices.
    pub gwu_flush_released: u64,
    /// GW-C: dedicated installs NACKed for lack of a local path.
    pub dedicated_rejected_no_path: u64,
    /// GW-C: dedicated-bearer activation counter.
    pub dedicated_active: u64,
    /// GW-C: dedicated bearers actually in the session table.
    pub dedicated_live: u64,
    /// GW-C: dedicated activations still mid-flight at collection.
    pub dedicated_pending: u64,
}

impl FailoverReport {
    /// Interruption percentile (`p` in [0, 100]) over all recorded
    /// failovers; 0.0 when none happened.
    pub fn interruption_percentile(&self, p: f64) -> f64 {
        if self.interruptions_s.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (self.interruptions_s.len() - 1) as f64).round() as usize;
        self.interruptions_s[idx.min(self.interruptions_s.len() - 1)]
    }

    /// The recovery-counter conservation identity the soaks assert: the
    /// GW-C's activation counter must equal the bearers actually present
    /// (plus none mid-flight), and every session must be in exactly one
    /// outcome bucket.
    pub fn conserved(&self) -> bool {
        self.dedicated_active == self.dedicated_live
            && self.dedicated_pending == 0
            && self.outcomes.total() == self.metro.ue_count
            && self.metro.cross_shard_conserved()
    }
}

/// A built failover run (regional scenario + fault plan).
pub struct FailoverScenario;

impl FailoverScenario {
    /// Build the regions, inject the crash schedule, run every session
    /// to completion, and audit the outcomes.
    pub fn run(cfg: FailoverConfig) -> FailoverReport {
        let mut metro_cfg = cfg.metro.clone();
        if metro_cfg.failover.is_none() {
            metro_cfg.failover = Some(FailoverWiring::default());
        }
        assert!(
            cfg.crash_region < metro_cfg.regions(),
            "crash region out of range"
        );
        let mut scenario = MetroScenario::build(metro_cfg);
        let mut timeline = scenario.schedule();
        // Crashed sessions ride out the outage plus the detection and
        // re-resolution ladder before finishing their frames.
        timeline.deadline = timeline.deadline + cfg.outage + Duration::from_secs(10);

        Self::inject(&mut scenario, &cfg, &timeline);
        scenario.await_sessions(&timeline);
        Self::collect(&mut scenario, &timeline)
    }

    /// Attach the node-fault plan and schedule the O&M side effects.
    fn inject(scenario: &mut MetroScenario, cfg: &FailoverConfig, timeline: &Timeline) {
        let crash_at = timeline.start + cfg.crash_after;
        let victim = scenario.servers[cfg.crash_region];
        let mut plan = NodeFaultPlan::new(cfg.fault_seed);
        match cfg.mode {
            FailoverMode::CrashStop => {
                plan.add_rule(NodeFaultRule::crash_stop(victim, crash_at));
            }
            FailoverMode::CrashRestart => {
                plan.add_rule(NodeFaultRule::crash_restart(victim, crash_at, cfg.outage));
            }
            FailoverMode::RegionOutage => {
                plan.add_rule(NodeFaultRule::crash_restart(victim, crash_at, cfg.outage));
                let (gwu, gwu_addr) = scenario.net.local_gwu_in_region(cfg.crash_region as u32);
                plan.add_rule(NodeFaultRule::crash_restart(gwu, crash_at, cfg.outage));
                // O&M failure detection: tell the GW-C to flush every
                // dedicated bearer anchored on the dead gateway. The
                // detection delay models the monitoring plane's lag.
                let detect_at = crash_at + Duration::from_millis(200);
                let msg = ControlMsg::GwuFailureIndication { gwu_addr };
                let gwc_addr = scenario
                    .net
                    .sim
                    .node_ref::<GwControl>(scenario.net.gwc)
                    .addr;
                let pkt = msg.into_packet(gwu_addr, gwc_addr);
                scenario
                    .net
                    .sim
                    .inject_packet(scenario.net.gwc, gwc_port::SGW_U, detect_at, pkt);
            }
        }
        scenario.net.sim.attach_node_fault_plan(&plan);

        if cfg.mode != FailoverMode::CrashStop {
            // Timers armed before the crash die with the old lifecycle
            // epoch, so a restarted node needs a *packet* to wake up: an
            // ICMP poke sourced at the MRS (whose echo reply it silently
            // ignores) lands just after the outage window closes,
            // triggers the lazy restart, and — because `hb_live` is
            // false after `on_restart` — re-arms the heartbeat chain.
            let poke_at = crash_at + cfg.outage + Duration::from_millis(1);
            let server_addr = scenario.server_addrs[cfg.crash_region];
            let poke = Packet::icmp(scenario.mrs_addr, server_addr, 0).with_created(poke_at);
            scenario.net.sim.inject_packet(victim, 0, poke_at, poke);
            if cfg.mode == FailoverMode::RegionOutage {
                let (gwu, gwu_addr) = scenario.net.local_gwu_in_region(cfg.crash_region as u32);
                let poke = Packet::icmp(scenario.mrs_addr, gwu_addr, 0).with_created(poke_at);
                // Port 1 is a data port: the switch has no rule for the
                // poke and drops it, but arriving at all is what drives
                // the lazy crash-window exit (and the restart counter).
                scenario.net.sim.inject_packet(gwu, 1, poke_at, poke);
            }
        }
    }

    /// Classify every session and gather the recovery counters.
    fn collect(scenario: &mut MetroScenario, timeline: &Timeline) -> FailoverReport {
        let metro = scenario.collect(timeline);
        let mut outcomes = FailoverOutcomes::default();
        let mut interruptions = Vec::new();
        let mut failovers = 0u64;
        let mut lease_rechecks = 0u64;
        for (i, &client) in scenario.clients.iter().enumerate() {
            let c = scenario.net.sim.node_ref::<ArFrontend>(client);
            failovers += c.failovers;
            lease_rechecks += c.lease_rechecks;
            for &(_, gap) in &c.failover_log {
                interruptions.push(gap.secs_f64());
            }
            let fin = c.current_server();
            if c.failovers == 0 {
                outcomes.stayed += 1;
            } else if Some(fin) == scenario.cloud_addr {
                outcomes.cloud_fallback += 1;
            } else if fin == scenario.server_addrs[scenario.config().ue_region(i)] {
                outcomes.restart_rebind += 1;
            } else {
                outcomes.neighbor_mec += 1;
            }
        }
        interruptions.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mrs = scenario.net.sim.node_ref::<Mrs>(scenario.mrs);
        let gwc = scenario.net.sim.node_ref::<GwControl>(scenario.net.gwc);
        FailoverReport {
            outcomes,
            interruptions_s: interruptions,
            failovers,
            lease_rechecks,
            node_restarts: scenario.net.sim.node_restarts(),
            node_arrivals_rejected: scenario.net.sim.node_arrivals_rejected(),
            node_timers_dropped: scenario.net.sim.node_timers_dropped(),
            mrs_heartbeats: mrs.heartbeats_seen,
            mrs_evictions: mrs.evictions,
            mrs_restores: mrs.restores,
            gwu_failure_notices: gwc.gwu_failure_notices,
            gwu_flush_released: gwc.gwu_flush_released,
            dedicated_rejected_no_path: gwc.dedicated_rejected_no_path,
            dedicated_active: gwc.dedicated_active,
            dedicated_live: gwc.dedicated_live(),
            dedicated_pending: gwc.dedicated_pending(),
            metro,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: FailoverMode, outage: Duration) -> FailoverConfig {
        let mut cfg = FailoverConfig::smoke(mode, outage);
        cfg.metro.region_sizes = vec![2, 2];
        cfg.metro.frame_count = 2;
        cfg
    }

    #[test]
    fn crash_stop_fails_sessions_over_and_nobody_wedges() {
        let r = FailoverScenario::run(tiny(FailoverMode::CrashStop, Duration::ZERO));
        assert_eq!(
            r.metro.wedged(),
            0,
            "every session completes: {:?}",
            r.outcomes
        );
        assert_eq!(r.metro.protocol_wedged(), 0);
        assert!(r.conserved(), "conservation: {r:?}");
        assert!(r.failovers > 0, "the crashed region's sessions moved");
        assert_eq!(r.mrs_evictions, 1, "one server evicted");
        assert_eq!(r.mrs_restores, 0, "crash-stop never comes back");
        assert_eq!(r.node_restarts, 0);
        assert!(
            r.node_arrivals_rejected + r.node_timers_dropped > 0,
            "the dead node shed work: {r:?}"
        );
        assert_eq!(
            r.outcomes.neighbor_mec + r.outcomes.cloud_fallback,
            r.metro.ue_count / 2,
            "the crashed region's sessions all left: {:?}",
            r.outcomes
        );
    }

    #[test]
    fn lone_region_crash_stop_degrades_to_cloud() {
        // With a single region there is no neighbor MEC to fall over to:
        // the only live resolution after the crash is the cloud
        // fallback, and every crashed session must take it.
        let mut cfg = tiny(FailoverMode::CrashStop, Duration::ZERO);
        cfg.metro.region_sizes = vec![2];
        let r = FailoverScenario::run(cfg);
        assert_eq!(r.metro.wedged(), 0, "outcomes: {:?}", r.outcomes);
        assert!(r.conserved(), "conservation: {r:?}");
        assert_eq!(r.outcomes.neighbor_mec, 0, "no neighbor exists");
        assert!(
            r.outcomes.cloud_fallback > 0,
            "crashed sessions degrade to the cloud: {:?}",
            r.outcomes
        );
    }

    #[test]
    fn crash_restart_recovers_and_counts_the_restart() {
        let r = FailoverScenario::run(tiny(FailoverMode::CrashRestart, Duration::from_secs(1)));
        assert_eq!(r.metro.wedged(), 0, "outcomes: {:?}", r.outcomes);
        assert_eq!(r.metro.protocol_wedged(), 0);
        assert!(r.conserved(), "conservation: {r:?}");
        assert_eq!(r.node_restarts, 1, "the MEC server restarted");
        assert_eq!(r.mrs_evictions, 1);
        assert_eq!(r.mrs_restores, 1, "the restarted lease was restored");
    }

    /// Each session's original server is its own region's, however
    /// unequal the regions: all three sessions of the crashed region 0
    /// come back to it, and the lone region-1 session never moves.
    #[test]
    fn crash_restart_rebinds_every_session_of_an_uneven_region() {
        let mut cfg = FailoverConfig::smoke(FailoverMode::CrashRestart, Duration::from_secs(1));
        cfg.metro.region_sizes = vec![3, 1];
        let r = FailoverScenario::run(cfg);
        assert_eq!(r.metro.wedged(), 0, "outcomes: {:?}", r.outcomes);
        assert!(r.conserved(), "conservation: {r:?}");
        assert_eq!(
            r.outcomes,
            FailoverOutcomes {
                stayed: 1,
                restart_rebind: 3,
                ..FailoverOutcomes::default()
            }
        );
    }

    #[test]
    fn region_outage_flushes_the_dead_gateway() {
        let r = FailoverScenario::run(tiny(FailoverMode::RegionOutage, Duration::from_secs(1)));
        assert_eq!(r.metro.wedged(), 0, "outcomes: {:?}", r.outcomes);
        assert_eq!(r.metro.protocol_wedged(), 0);
        assert!(r.conserved(), "conservation: {r:?}");
        assert_eq!(r.node_restarts, 2, "MEC server + local GW-U restarted");
        assert_eq!(r.gwu_failure_notices, 1);
        assert!(
            r.gwu_flush_released > 0,
            "the dead gateway's bearers were flushed: {r:?}"
        );
    }
}
