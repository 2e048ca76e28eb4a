//! The MEC Registration Server (paper §5.3): the core-network Application
//! Function that CI device managers talk to.
//!
//! The MRS keeps a registry of CI services and the MEC servers hosting
//! them, picks the **closest** CI server for a requesting UE, and signals
//! the PCRF over Rx to create/delete the dedicated-bearer connectivity.
//!
//! # Lease monitoring
//!
//! Servers enrolled with `Mrs::monitor_server` are expected to send
//! periodic [`AppMsg::Heartbeat`]s. Once the harness arms
//! [`Mrs::LEASE_AUDIT`], a lease audit runs every 120 ms; a server whose
//! beats are missing in at least 3 of its last 5 audits is **evicted**
//! — it stops being eligible for resolution, so the next device-manager
//! re-resolution fails over to the next-closest instance (a neighbor
//! region's MEC, or the cloud). A dead server that beats again (e.g.
//! after a crash-restart) is restored at the next audit. Liveness is per
//! *server address*: one eviction removes the server from every service
//! it backs.

use crate::msg::{AppMsg, MRS_PORT};
use acacia_lte::qci::Qci;
use acacia_lte::wire::{ControlMsg, PolicyRule};
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId};
use acacia_simnet::time::Duration;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A CI server instance registered for a service.
#[derive(Debug, Clone)]
pub struct ServerInstance {
    /// Server address.
    pub addr: Ipv4Addr,
    /// Network distance score (e.g. hops or measured delay, lower =
    /// closer to the requesting UE's eNB).
    pub distance: f64,
}

/// MRS port map.
pub mod port {
    use super::PortId;
    /// Data-network side (UE requests over the default bearer).
    pub const DATA: PortId = 0;
    /// Rx toward the PCRF.
    pub const RX: PortId = 1;
}

struct Pending {
    service: String,
    reply_to: (Ipv4Addr, u16),
    server: Ipv4Addr,
}

/// Period of the lease audit.
pub(crate) const LEASE_CHECK_PERIOD: Duration = Duration::from_millis(120);
/// A server is evicted when at least this many of its last
/// [`LEASE_WINDOW_M`] audits saw no fresh heartbeat (miss-N-of-M;
/// tolerates isolated loss on the heartbeat path).
const LEASE_MISS_N: usize = 3;
/// Size of the sliding audit window for miss-N-of-M eviction.
const LEASE_WINDOW_M: usize = 5;

/// Lease health of one monitored server.
#[derive(Debug, Clone)]
struct ServerHealth {
    /// Beats received since the last lease audit.
    beats_since_audit: u32,
    /// Miss history of the last [`LEASE_WINDOW_M`] audits (`true` = miss).
    window: VecDeque<bool>,
    /// Is the server currently eligible for resolution?
    live: bool,
}

impl ServerHealth {
    fn new() -> ServerHealth {
        ServerHealth {
            beats_since_audit: 0,
            window: VecDeque::new(),
            live: true,
        }
    }
}

/// The MRS node.
pub struct Mrs {
    /// Own address.
    pub addr: Ipv4Addr,
    /// Dedicated-bearer QCI handed to the PCRF.
    pub qci: Qci,
    registry: BTreeMap<String, Vec<ServerInstance>>,
    pending: BTreeMap<u32, Pending>,
    /// Stable (service, UE) → service-id binding: a re-request (e.g. the
    /// device manager re-confirming connectivity after a handover) must
    /// carry the *same* id so the PCEF can recognise it as idempotent
    /// instead of stacking a second bearer.
    allocated: BTreeMap<(String, Ipv4Addr), u32>,
    next_service_id: u32,
    /// Per-server lease health, keyed by server address. Only servers
    /// explicitly enrolled with [`Mrs::monitor_server`] are audited;
    /// un-enrolled servers (e.g. the cloud fallback) are always live.
    health: BTreeMap<Ipv4Addr, ServerHealth>,
    /// Requests served (create + delete).
    pub requests: u64,
    /// Requests rejected (unknown service or no live instance).
    pub rejected: u64,
    /// Heartbeats ingested.
    pub heartbeats_seen: u64,
    /// Lease audits run.
    pub audits: u64,
    /// Servers evicted (total events, not currently-dead count).
    pub evictions: u64,
    /// Servers restored after an eviction.
    pub restores: u64,
}

impl Mrs {
    /// Timer token that runs one lease audit and re-arms the next:
    /// `sim.schedule_timer(mrs, start, Mrs::LEASE_AUDIT)`.
    pub const LEASE_AUDIT: u64 = 1;

    /// New MRS.
    pub(crate) fn new(addr: Ipv4Addr) -> Mrs {
        Mrs {
            addr,
            qci: Qci(7),
            registry: BTreeMap::new(),
            pending: BTreeMap::new(),
            allocated: BTreeMap::new(),
            next_service_id: 1,
            health: BTreeMap::new(),
            requests: 0,
            rejected: 0,
            heartbeats_seen: 0,
            audits: 0,
            evictions: 0,
            restores: 0,
        }
    }

    /// Register a CI server for `service`.
    pub(crate) fn register_service(&mut self, service: &str, server: ServerInstance) {
        self.registry
            .entry(service.to_string())
            .or_default()
            .push(server);
    }

    /// Enroll a server address in lease auditing. Un-enrolled servers
    /// never expire (use for the cloud fallback, which has no MEC
    /// lifecycle).
    pub(crate) fn monitor_server(&mut self, server: Ipv4Addr) {
        self.health.entry(server).or_insert_with(ServerHealth::new);
    }

    /// Is `server` currently eligible for resolution?
    fn is_live(&self, server: Ipv4Addr) -> bool {
        self.health.get(&server).is_none_or(|h| h.live)
    }

    /// The closest registered **live** server for a service.
    pub(crate) fn closest(&self, service: &str) -> Option<&ServerInstance> {
        self.registry
            .get(service)?
            .iter()
            .filter(|s| self.is_live(s.addr))
            .min_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("distance is finite")
            })
    }

    /// One lease audit pass: score each enrolled server's beat window,
    /// evict the dead, restore the recovered.
    fn audit(&mut self) {
        self.audits += 1;
        let mut evictions = 0u64;
        let mut restores = 0u64;
        for h in self.health.values_mut() {
            let beat = h.beats_since_audit > 0;
            h.beats_since_audit = 0;
            h.window.push_back(!beat);
            while h.window.len() > LEASE_WINDOW_M {
                h.window.pop_front();
            }
            let missed = h.window.iter().filter(|&&m| m).count();
            if h.live && missed >= LEASE_MISS_N {
                h.live = false;
                evictions += 1;
            } else if !h.live && beat {
                // A dead server that beats again is back: clear the miss
                // history so one stale window can't re-evict it.
                h.live = true;
                h.window.clear();
                restores += 1;
            }
        }
        self.evictions += evictions;
        self.restores += restores;
    }

    fn answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        reply_to: (Ipv4Addr, u16),
        service: &str,
        ok: bool,
        server: Option<Ipv4Addr>,
    ) {
        let msg = AppMsg::MrsAck {
            service: service.to_string(),
            ok,
            server,
        };
        let pkt = msg.into_packet((self.addr, MRS_PORT), reply_to, 0, ctx.now());
        ctx.send(port::DATA, pkt);
    }
}

impl Node for Mrs {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        match in_port {
            port::DATA => match AppMsg::from_packet(&pkt) {
                Some(AppMsg::Heartbeat { server, .. }) => {
                    self.heartbeats_seen += 1;
                    if let Some(h) = self.health.get_mut(&server) {
                        h.beats_since_audit += 1;
                    }
                }
                Some(AppMsg::MrsRequest {
                    service,
                    ue_addr,
                    create,
                }) => {
                    self.requests += 1;
                    let reply_to = (pkt.src, pkt.src_port);
                    let Some(server) = self.closest(&service).map(|s| s.addr) else {
                        self.rejected += 1;
                        self.answer(ctx, reply_to, &service, false, None);
                        return;
                    };
                    let key = (service.clone(), ue_addr);
                    let service_id = match self.allocated.get(&key) {
                        Some(&id) => id,
                        None => {
                            let id = self.next_service_id;
                            self.next_service_id += 1;
                            self.allocated.insert(key, id);
                            id
                        }
                    };
                    self.pending.insert(
                        service_id,
                        Pending {
                            service: service.clone(),
                            reply_to,
                            server,
                        },
                    );
                    let rule = PolicyRule {
                        service_id,
                        ue_addr,
                        server_addr: server,
                        server_port: 0,
                        qci: self.qci,
                        install: create,
                    };
                    let msg = ControlMsg::RxAuthRequest { rule };
                    ctx.send(port::RX, msg.into_packet(self.addr, Ipv4Addr::UNSPECIFIED));
                }
                _ => {}
            },
            port::RX => {
                let Some(ControlMsg::RxAuthAnswer { service_id, ok }) =
                    ControlMsg::from_packet(&pkt)
                else {
                    return;
                };
                let Some(p) = self.pending.remove(&service_id) else {
                    return;
                };
                let service = p.service.clone();
                let server = Some(p.server);
                self.answer(ctx, p.reply_to, &service, ok, server);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == Self::LEASE_AUDIT {
            self.audit();
            ctx.schedule_in(LEASE_CHECK_PERIOD, Self::LEASE_AUDIT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 4, 0, a)
    }

    #[test]
    fn closest_server_selection() {
        let mut mrs = Mrs::new(ip(100));
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(1),
                distance: 5.0,
            },
        );
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(2),
                distance: 1.0,
            },
        );
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(3),
                distance: 9.0,
            },
        );
        assert_eq!(mrs.closest("acme").unwrap().addr, ip(2));
        assert!(mrs.closest("unknown").is_none());
    }

    #[test]
    fn unknown_service_is_rejected_via_data_port() {
        use acacia_simnet::link::LinkConfig;
        use acacia_simnet::sim::Simulator;
        use acacia_simnet::time::{Duration, Instant};
        use acacia_simnet::traffic::Sink;

        let mut sim = Simulator::new(1);
        let mrs = sim.add_node(Box::new(Mrs::new(ip(100))));
        let sink = sim.add_node(Box::new(Sink::new()));
        sim.connect(
            (mrs, port::DATA),
            (sink, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );
        let req = AppMsg::MrsRequest {
            service: "nope".into(),
            ue_addr: ip(9),
            create: true,
        }
        .into_packet((ip(9), 9000), (ip(100), MRS_PORT), 0, Instant::ZERO);
        sim.inject_packet(mrs, port::DATA, Instant::ZERO, req);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Sink>(sink).packets(), 1, "a NACK went out");
        let m = sim.node_ref::<Mrs>(mrs);
        assert_eq!(m.requests, 1);
        assert_eq!(m.rejected, 1);
    }

    fn beat_from(server: Ipv4Addr) -> Packet {
        AppMsg::Heartbeat {
            service: "acme".into(),
            server,
        }
        .into_packet(
            (server, 9000),
            (ip(100), MRS_PORT),
            0,
            acacia_simnet::time::Instant::ZERO,
        )
    }

    /// Drive the audit directly (unit-level; the failover scenario covers
    /// the timer-driven path end to end).
    #[test]
    fn miss_n_of_m_evicts_and_resolution_falls_over() {
        let mut mrs = Mrs::new(ip(100));
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(1),
                distance: 1.0,
            },
        );
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(2),
                distance: 2.0,
            },
        );
        mrs.monitor_server(ip(1));
        // ip(2) is the (un-enrolled) fallback: always live.
        for _ in 0..LEASE_MISS_N {
            assert_eq!(mrs.closest("acme").unwrap().addr, ip(1));
            mrs.audit();
        }
        assert_eq!(mrs.evictions, 1, "N consecutive misses evict");
        assert_eq!(mrs.closest("acme").unwrap().addr, ip(2), "failover");
        let h = &mrs.health[&ip(1)];
        assert!(!h.live);
        assert_eq!(h.window.iter().filter(|&&m| m).count(), LEASE_MISS_N);
        assert!(mrs.is_live(ip(2)), "the un-enrolled fallback stays live");
    }

    #[test]
    fn a_beat_restores_an_evicted_server() {
        let mut mrs = Mrs::new(ip(100));
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(1),
                distance: 1.0,
            },
        );
        mrs.monitor_server(ip(1));
        for _ in 0..LEASE_MISS_N {
            mrs.audit();
        }
        assert!(mrs.closest("acme").is_none(), "sole instance evicted");
        // The restarted server beats again.
        let mut sim_pkt = beat_from(ip(1));
        sim_pkt.dst_port = MRS_PORT;
        // Feed the beat through the health table directly (packet path is
        // covered by the scenario tests).
        mrs.heartbeats_seen += 1;
        let h = mrs.health.get_mut(&ip(1)).unwrap();
        h.beats_since_audit += 1;
        mrs.audit();
        assert_eq!(mrs.restores, 1);
        assert_eq!(mrs.closest("acme").unwrap().addr, ip(1), "restored");
        let _ = sim_pkt;
    }

    #[test]
    fn isolated_misses_inside_the_window_do_not_evict() {
        let mut mrs = Mrs::new(ip(100));
        mrs.register_service(
            "acme",
            ServerInstance {
                addr: ip(1),
                distance: 1.0,
            },
        );
        mrs.monitor_server(ip(1));
        // One silent audit in every three: at most 2 misses land in any
        // 5-audit window, below the default 3-of-5 threshold.
        for _ in 0..8 {
            for _ in 0..2 {
                let h = mrs.health.get_mut(&ip(1)).unwrap();
                h.beats_since_audit += 1;
                mrs.audit();
            }
            mrs.audit(); // one silent audit
        }
        assert_eq!(mrs.evictions, 0, "lone misses tolerated");
        assert!(mrs.health[&ip(1)].live);
    }
}
