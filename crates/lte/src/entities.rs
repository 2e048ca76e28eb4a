//! EPC control-plane entities: MME, HSS, PCRF and the combined split-GW
//! controller (SGW-C + PGW-C + PCEF) that programs the GW-U data planes
//! over OpenFlow.
//!
//! The GW-C "decouples the 3GPP control plane and the OpenFlow control
//! plane" (paper §5.4): it speaks GTPv2-C with the MME on one side and
//! pushes flow rules to the user-plane switches on the other.

use crate::ids::{Allocator, Ebi, Imsi, Teid};
use crate::log::MsgLog;
use crate::qci::Qci;
use crate::tft::{PacketFilter, Tft};
use crate::wire::{ControlMsg, ErabSetup, FlowActionSpec, FlowMatchSpec, PolicyRule};
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// MME port map.
pub mod mme_port {
    use super::PortId;
    /// S1AP to the first eNB (additional eNBs get ports from
    /// `super::Mme::register_enb`, starting right after `HSS`).
    pub const ENB: PortId = 0;
    /// GTP-C to the GW-C.
    pub const GWC: PortId = 1;
    /// S6a to the HSS.
    pub const HSS: PortId = 2;
}

/// Per-UE attachment state at the MME.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmeUeState {
    /// Nothing yet.
    Unknown,
    /// Waiting for HSS authentication.
    AuthWait,
    /// Waiting for the GW-C session.
    SessionWait,
    /// Waiting for the eNB context setup.
    CtxSetupWait,
    /// Waiting for Modify Bearer completion.
    ModifyWait,
    /// Fully attached and RRC-connected.
    Attached,
    /// Release in progress.
    ReleaseWait,
    /// Attached but RRC-idle.
    Idle,
    /// Service request in progress.
    ServiceWait,
}

#[derive(Debug, Clone)]
struct MmeUeCtx {
    state: MmeUeState,
    ue_addr: Option<Ipv4Addr>,
    default_erab: Option<ErabSetup>,
    enb_teid: Option<Teid>,
    /// The eNB currently serving this UE (updated by Path Switch and by
    /// the arrival port of UE-originated S1AP messages).
    enb_addr: Ipv4Addr,
    /// Last Path Switch transaction handled, keyed by the requesting eNB
    /// (transaction ids are per-eNB counters).
    last_ps: Option<(Ipv4Addr, u32)>,
    /// Cached Path Switch Request Ack payload: a retransmitted request
    /// whose answer was lost is answered from here instead of re-running
    /// the bearer relocation at the GW-C.
    ps_ack: Option<Vec<ErabSetup>>,
}

/// The Mobility Management Entity.
pub struct Mme {
    /// Own address.
    pub addr: Ipv4Addr,
    /// Registered eNBs: (S1 address, MME port), index 0 = the first eNB.
    enbs: Vec<(Ipv4Addr, PortId)>,
    gwc_addr: Ipv4Addr,
    hss_addr: Ipv4Addr,
    ues: BTreeMap<Imsi, MmeUeCtx>,
    log: MsgLog,
}

impl Mme {
    /// New MME with one eNB wired on [`mme_port::ENB`].
    pub fn new(
        addr: Ipv4Addr,
        enb_addr: Ipv4Addr,
        gwc_addr: Ipv4Addr,
        hss_addr: Ipv4Addr,
        log: MsgLog,
    ) -> Mme {
        Mme {
            addr,
            enbs: vec![(enb_addr, mme_port::ENB)],
            gwc_addr,
            hss_addr,
            ues: BTreeMap::new(),
            log,
        }
    }

    /// Register an additional eNB; returns the MME port its S1AP link must
    /// be connected to.
    pub(crate) fn register_enb(&mut self, enb_addr: Ipv4Addr) -> PortId {
        let port = mme_port::HSS + self.enbs.len();
        self.enbs.push((enb_addr, port));
        port
    }

    /// Attachment state of a UE.
    pub fn ue_state(&self, imsi: Imsi) -> MmeUeState {
        self.ues
            .get(&imsi)
            .map(|c| c.state.clone())
            .unwrap_or(MmeUeState::Unknown)
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, port: PortId, dst: Ipv4Addr, msg: ControlMsg) {
        self.log.record(ctx.now(), &msg);
        ctx.send(port, msg.into_packet(self.addr, dst));
    }

    /// (port, address) of the eNB serving `imsi` (first eNB by default).
    fn enb_route(&self, imsi: Imsi) -> (PortId, Ipv4Addr) {
        let addr = self
            .ues
            .get(&imsi)
            .map(|c| c.enb_addr)
            .unwrap_or(self.enbs[0].0);
        self.enbs
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|&(a, p)| (p, a))
            .unwrap_or((self.enbs[0].1, self.enbs[0].0))
    }

    fn ctx_mut(&mut self, imsi: Imsi) -> &mut MmeUeCtx {
        let default_enb = self.enbs[0].0;
        self.ues.entry(imsi).or_insert(MmeUeCtx {
            state: MmeUeState::Unknown,
            ue_addr: None,
            default_erab: None,
            enb_teid: None,
            enb_addr: default_enb,
            last_ps: None,
            ps_ack: None,
        })
    }

    /// A UE-originated S1AP message arrived on `port`: whichever eNB owns
    /// that port is the one serving the UE now. Keeps `enb_addr` honest
    /// when the UE re-entered through a cell the MME never heard a Path
    /// Switch from (e.g. the core-detour fallback after a failed one).
    fn note_serving_enb(&mut self, imsi: Imsi, port: PortId) {
        let Some(&(addr, _)) = self.enbs.iter().find(|&&(_, p)| p == port) else {
            return;
        };
        self.ctx_mut(imsi).enb_addr = addr;
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, msg: ControlMsg) {
        use ControlMsg::*;
        match msg {
            InitialUeAttach { imsi } => {
                self.note_serving_enb(imsi, in_port);
                self.ctx_mut(imsi).state = MmeUeState::AuthWait;
                let m = S6aAuthInfoRequest { imsi };
                let hss = self.hss_addr;
                self.send(ctx, mme_port::HSS, hss, m);
            }
            S6aAuthInfoAnswer { imsi, ok } => {
                if !ok {
                    self.ctx_mut(imsi).state = MmeUeState::Unknown;
                    return;
                }
                self.ctx_mut(imsi).state = MmeUeState::SessionWait;
                let gwc = self.gwc_addr;
                self.send(ctx, mme_port::GWC, gwc, CreateSessionRequest { imsi });
            }
            CreateSessionResponse {
                imsi,
                ue_addr,
                erab,
            } => {
                {
                    let c = self.ctx_mut(imsi);
                    c.ue_addr = Some(ue_addr);
                    c.default_erab = Some(erab.clone());
                    c.state = MmeUeState::CtxSetupWait;
                }
                let (port, enb) = self.enb_route(imsi);
                self.send(
                    ctx,
                    port,
                    enb,
                    InitialContextSetupRequest {
                        imsi,
                        erabs: vec![erab],
                    },
                );
            }
            InitialUeServiceRequest { imsi } => {
                self.note_serving_enb(imsi, in_port);
                // A service request for a UE the MME still believes
                // attached means a failure path (the path-switch
                // fallback) released the radio context unilaterally.
                // Flush the stale core flows before rebuilding; the
                // flush is ordered before the Modify Bearer that the
                // restore sends on the same GTP-C link, so the rebuilt
                // rules can never be torn down by it.
                if self.ctx_mut(imsi).state == MmeUeState::Attached {
                    let gwc = self.gwc_addr;
                    self.send(ctx, mme_port::GWC, gwc, DeleteBearerCommand { imsi });
                }
                self.ctx_mut(imsi).state = MmeUeState::ServiceWait;
                let (port, enb) = self.enb_route(imsi);
                // Empty E-RAB list = restore stored bearers at the eNB.
                self.send(
                    ctx,
                    port,
                    enb,
                    InitialContextSetupRequest {
                        imsi,
                        erabs: vec![],
                    },
                );
            }
            InitialContextSetupResponse { imsi, enb_teids } => {
                let default_teid = enb_teids
                    .iter()
                    .find(|(ebi, _)| *ebi == Ebi::DEFAULT)
                    .map(|&(_, t)| t);
                {
                    let c = self.ctx_mut(imsi);
                    c.enb_teid = default_teid.or(c.enb_teid);
                    c.state = MmeUeState::ModifyWait;
                }
                let Some(teid) = self.ues[&imsi].enb_teid else {
                    // The eNB had no stored bearer to restore (the UE
                    // re-entered through a cell that never held its
                    // context): rebuild the default E-RAB from the session
                    // record instead of wedging in ServiceWait.
                    if let Some(erab) = self.ues[&imsi].default_erab.clone() {
                        self.ctx_mut(imsi).state = MmeUeState::ServiceWait;
                        let (port, enb) = self.enb_route(imsi);
                        self.send(
                            ctx,
                            port,
                            enb,
                            InitialContextSetupRequest {
                                imsi,
                                erabs: vec![erab],
                            },
                        );
                    }
                    return;
                };
                let gwc = self.gwc_addr;
                let (_, enb) = self.enb_route(imsi);
                self.send(
                    ctx,
                    mme_port::GWC,
                    gwc,
                    ModifyBearerRequest {
                        imsi,
                        enb_teid: teid,
                        enb_addr: enb,
                    },
                );
            }
            ModifyBearerResponse { imsi } => {
                let ue_addr = {
                    let c = self.ctx_mut(imsi);
                    let addr = if c.state == MmeUeState::ServiceWait
                        || c.state == MmeUeState::ModifyWait && c.ue_addr.is_none()
                    {
                        None
                    } else {
                        c.ue_addr
                    };
                    c.state = MmeUeState::Attached;
                    addr
                };
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, DownlinkNasAccept { imsi, ue_addr });
            }
            // Dedicated bearer: GW-C initiated.
            CreateBearerRequest { imsi, erab } => {
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, ErabSetupRequest { imsi, erab });
            }
            ErabSetupResponse {
                imsi,
                ebi,
                enb_teid,
            } => {
                let gwc = self.gwc_addr;
                let (_, enb) = self.enb_route(imsi);
                self.send(
                    ctx,
                    mme_port::GWC,
                    gwc,
                    CreateBearerResponse {
                        imsi,
                        ebi,
                        enb_teid,
                        enb_addr: enb,
                    },
                );
            }
            DeleteBearerRequest { imsi, ebi } => {
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, ErabReleaseCommand { imsi, ebi });
            }
            ErabReleaseResponse { imsi, ebi } => {
                let gwc = self.gwc_addr;
                self.send(ctx, mme_port::GWC, gwc, DeleteBearerResponse { imsi, ebi });
            }
            // Idle release.
            UeContextReleaseRequest { imsi } => {
                self.ctx_mut(imsi).state = MmeUeState::ReleaseWait;
                let gwc = self.gwc_addr;
                self.send(
                    ctx,
                    mme_port::GWC,
                    gwc,
                    ReleaseAccessBearersRequest { imsi },
                );
            }
            ReleaseAccessBearersResponse { imsi } => {
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, UeContextReleaseCommand { imsi });
            }
            UeContextReleaseComplete { imsi } => {
                self.ctx_mut(imsi).state = MmeUeState::Idle;
            }
            // Downlink data pending for an idle UE: page it.
            DownlinkDataNotification { imsi } if self.ctx_mut(imsi).state == MmeUeState::Idle => {
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, Paging { imsi });
            }
            // X2 handover: the target eNB owns the UE's S1 legs now.
            PathSwitchRequest {
                imsi,
                enb_addr,
                erabs,
                txid,
            } => {
                // Duplicate / retransmitted request: never re-run the
                // bearer relocation — either replay the cached Ack (its
                // first copy was lost) or let the in-flight one answer.
                if self.ctx_mut(imsi).last_ps == Some((enb_addr, txid)) {
                    if let Some(cached) = self.ctx_mut(imsi).ps_ack.clone() {
                        let (port, enb) = self.enb_route(imsi);
                        self.send(
                            ctx,
                            port,
                            enb,
                            PathSwitchRequestAck {
                                imsi,
                                erabs: cached,
                            },
                        );
                    }
                    return;
                }
                let default_teid = erabs
                    .iter()
                    .find(|(ebi, _)| *ebi == Ebi::DEFAULT)
                    .map(|&(_, t)| t);
                {
                    let c = self.ctx_mut(imsi);
                    c.enb_addr = enb_addr;
                    c.enb_teid = default_teid.or(c.enb_teid);
                    c.last_ps = Some((enb_addr, txid));
                    c.ps_ack = None;
                }
                let gwc = self.gwc_addr;
                self.send(
                    ctx,
                    mme_port::GWC,
                    gwc,
                    BearerRelocationRequest {
                        imsi,
                        enb_addr,
                        enb_teids: erabs,
                    },
                );
            }
            BearerRelocationResponse {
                imsi,
                erabs,
                released,
            } => {
                self.ctx_mut(imsi).ps_ack = Some(erabs.clone());
                let (port, enb) = self.enb_route(imsi);
                self.send(ctx, port, enb, PathSwitchRequestAck { imsi, erabs });
                // Bearers the target cell cannot serve are released via the
                // standard E-RAB release procedure.
                for ebi in released {
                    let (port, enb) = self.enb_route(imsi);
                    self.send(ctx, port, enb, ErabReleaseCommand { imsi, ebi });
                }
            }
            _ => {}
        }
    }
}

impl Node for Mme {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if let Some(msg) = ControlMsg::from_packet(&pkt) {
            self.handle(ctx, port, msg);
        }
    }
}

/// The Home Subscriber Server: a subscriber database answering S6a
/// authentication-information requests.
pub struct Hss {
    /// Own address.
    pub addr: Ipv4Addr,
    subscribers: BTreeSet<Imsi>,
    log: MsgLog,
    /// Requests answered.
    pub answered: u64,
}

impl Hss {
    /// New HSS with a subscriber list.
    pub fn new(addr: Ipv4Addr, subscribers: Vec<Imsi>, log: MsgLog) -> Hss {
        Hss {
            addr,
            subscribers: subscribers.into_iter().collect(),
            log,
            answered: 0,
        }
    }
}

impl Node for Hss {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let Some(ControlMsg::S6aAuthInfoRequest { imsi }) = ControlMsg::from_packet(&pkt) else {
            return;
        };
        let ok = self.subscribers.contains(&imsi);
        self.answered += 1;
        let msg = ControlMsg::S6aAuthInfoAnswer { imsi, ok };
        self.log.record(ctx.now(), &msg);
        ctx.send(port, msg.into_packet(self.addr, pkt.src));
    }
}

/// PCRF port map.
pub mod pcrf_port {
    use super::PortId;
    /// Gx toward the PCEF (GW-C).
    pub const GWC: PortId = 0;
    /// Rx toward application functions (ACACIA's MRS).
    pub const AF: PortId = 1;
}

/// The Policy and Charging Rules Function: turns Rx requests from
/// application functions into Gx rule pushes toward the PCEF.
pub struct Pcrf {
    /// Own address.
    pub addr: Ipv4Addr,
    gwc_addr: Ipv4Addr,
    /// service_id → AF address awaiting an answer.
    pending: BTreeMap<u32, Ipv4Addr>,
    log: MsgLog,
    /// Rules pushed so far.
    pub rules_pushed: u64,
}

impl Pcrf {
    /// New PCRF.
    pub fn new(addr: Ipv4Addr, gwc_addr: Ipv4Addr, log: MsgLog) -> Pcrf {
        Pcrf {
            addr,
            gwc_addr,
            pending: BTreeMap::new(),
            log,
            rules_pushed: 0,
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, port: PortId, dst: Ipv4Addr, msg: ControlMsg) {
        self.log.record(ctx.now(), &msg);
        ctx.send(port, msg.into_packet(self.addr, dst));
    }
}

impl Node for Pcrf {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        match ControlMsg::from_packet(&pkt) {
            Some(ControlMsg::RxAuthRequest { rule }) => {
                self.pending.insert(rule.service_id, pkt.src);
                self.rules_pushed += 1;
                let gwc = self.gwc_addr;
                self.send(
                    ctx,
                    pcrf_port::GWC,
                    gwc,
                    ControlMsg::GxReauthRequest { rule },
                );
            }
            Some(ControlMsg::GxReauthAnswer { service_id, ok }) => {
                if let Some(af) = self.pending.remove(&service_id) {
                    self.send(
                        ctx,
                        pcrf_port::AF,
                        af,
                        ControlMsg::RxAuthAnswer { service_id, ok },
                    );
                }
            }
            _ => {}
        }
    }
}

/// GW-C port map.
pub mod gwc_port {
    use super::PortId;
    /// GTP-C to the MME.
    pub const MME: PortId = 0;
    /// Gx to the PCRF.
    pub const PCRF: PortId = 1;
    /// OpenFlow to the core SGW-U.
    pub const SGW_U: PortId = 2;
    /// OpenFlow to the core PGW-U.
    pub const PGW_U: PortId = 3;
    /// OpenFlow to the first local (MEC) GW-U.
    pub const LOCAL_GWU: PortId = 4;
    /// First local GW-U control port; a city-scale topology wires one
    /// local GW-U per region at `LOCAL_GWU_BASE + region_index`.
    pub const LOCAL_GWU_BASE: PortId = 4;
}

/// One local (MEC) combined S/PGW-U site the GW-C programs.
///
/// A single-site topology has exactly one of these; a city-scale sharded
/// topology carries one per region so every region's dedicated bearers
/// anchor on a gateway in that region.
#[derive(Debug, Clone)]
pub struct LocalGw {
    /// Tunnel address of this local GW-U.
    pub addr: Ipv4Addr,
    /// GW-C control port wired to this GW-U
    /// (`gwc_port::LOCAL_GWU_BASE + site_index`).
    pub ctrl_port: PortId,
    /// GW-U output port toward the eNB (default when no override).
    pub port_enb: usize,
    /// GW-U output port toward its MEC server(s).
    pub port_mec: usize,
    /// Per-eNB output port overrides (multi-cell MEC sites).
    pub enb_ports: Vec<(Ipv4Addr, usize)>,
    /// eNBs with a direct path to this GW-U (MEC-equipped cells);
    /// empty = every eNB. Dedicated bearers can only re-anchor onto these.
    pub enbs: Vec<Ipv4Addr>,
    /// MEC server addresses anchored behind this GW-U.
    pub servers: Vec<Ipv4Addr>,
}

impl LocalGw {
    /// Output port toward `enb`.
    pub(crate) fn port_for(&self, enb: Ipv4Addr) -> usize {
        self.enb_ports
            .iter()
            .find(|&&(a, _)| a == enb)
            .map(|&(_, p)| p)
            .unwrap_or(self.port_enb)
    }

    /// Does `enb` have a direct path to this GW-U?
    pub(crate) fn serves_enb(&self, enb: Ipv4Addr) -> bool {
        self.enbs.is_empty() || self.enbs.contains(&enb)
    }
}

/// Static data-plane topology the GW-C programs against.
#[derive(Debug, Clone)]
pub struct GwTopology {
    /// Core SGW-U tunnel address.
    pub sgw_u: Ipv4Addr,
    /// Core PGW-U tunnel address.
    pub pgw_u: Ipv4Addr,
    /// SGW-U port toward the eNB.
    pub sgw_port_enb: usize,
    /// SGW-U port toward the PGW-U.
    pub sgw_port_pgw: usize,
    /// PGW-U port toward the SGW-U.
    pub pgw_port_sgw: usize,
    /// PGW-U port toward the Internet.
    pub pgw_port_inet: usize,
    /// Local (MEC) GW-U sites, one per MEC-equipped region.
    pub locals: Vec<LocalGw>,
    /// Base address for UE IP assignment (host part increments).
    pub ue_ip_base: Ipv4Addr,
    /// Per-eNB SGW-U output port overrides for multi-cell topologies
    /// (empty = every eNB behind `sgw_port_enb`).
    pub sgw_enb_ports: Vec<(Ipv4Addr, usize)>,
}

impl GwTopology {
    /// SGW-U output port toward `enb`.
    pub(crate) fn sgw_port_for(&self, enb: Ipv4Addr) -> usize {
        self.sgw_enb_ports
            .iter()
            .find(|&&(a, _)| a == enb)
            .map(|&(_, p)| p)
            .unwrap_or(self.sgw_port_enb)
    }

    /// The local GW-U site anchoring `server`, if any.
    pub(crate) fn local_for_server(&self, server: Ipv4Addr) -> Option<&LocalGw> {
        self.locals.iter().find(|g| g.servers.contains(&server))
    }
}

#[derive(Debug, Clone)]
struct Session {
    ue_addr: Ipv4Addr,
    teid_sgw_ul: Teid,
    teid_sgw_dl: Teid,
    teid_pgw_ul: Teid,
    enb_teid: Option<Teid>,
    enb_addr: Option<Ipv4Addr>,
    /// Dedicated bearers: ebi → (local UL teid, rule).
    dedicated: ByEbi<(Teid, PolicyRule)>,
    /// Pending dedicated-bearer activations: ebi → (rule, local teid).
    pending_dedicated: ByEbi<(PolicyRule, Teid)>,
}

/// One session's bearers keyed by EBI, in a `Vec` sorted by EBI and sized
/// to what it holds: a session holds one or two, most of the time none
/// pending, and an emptied table gives its allocation back.
#[derive(Debug, Clone)]
struct ByEbi<V>(Vec<(u8, V)>);

impl<V> Default for ByEbi<V> {
    fn default() -> Self {
        ByEbi(Vec::new())
    }
}

impl<V> ByEbi<V> {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// The entries in EBI order.
    fn iter(&self) -> std::slice::Iter<'_, (u8, V)> {
        self.0.iter()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Insert `v` under `ebi`, replacing any value already there.
    fn insert(&mut self, ebi: u8, v: V) {
        match self.0.binary_search_by_key(&ebi, |&(e, _)| e) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => {
                self.0.reserve_exact(1);
                self.0.insert(i, (ebi, v));
            }
        }
    }

    fn remove(&mut self, ebi: u8) -> Option<V> {
        let i = self.0.binary_search_by_key(&ebi, |&(e, _)| e).ok()?;
        let (_, v) = self.0.remove(i);
        self.release_if_empty();
        Some(v)
    }

    fn retain(&mut self, keep: impl FnMut(&(u8, V)) -> bool) {
        self.0.retain(keep);
        self.release_if_empty();
    }

    fn clear(&mut self) {
        self.0 = Vec::new();
    }

    fn release_if_empty(&mut self) {
        if self.0.is_empty() {
            self.0 = Vec::new();
        }
    }
}

/// The combined SGW-C + PGW-C (+ PCEF) controller.
pub struct GwControl {
    /// Own control address.
    pub addr: Ipv4Addr,
    topo: GwTopology,
    alloc: Allocator,
    sessions: BTreeMap<Imsi, Session>,
    next_ue_host: u32,
    log: MsgLog,
    /// Dedicated bearers activated.
    pub dedicated_active: u64,
    /// Dedicated bearers re-anchored onto a new cell's local GW-U.
    pub dedicated_reanchored: u64,
    /// Dedicated bearers torn down because the target cell has no MEC.
    pub dedicated_released: u64,
    /// GW-U failure notices processed.
    pub gwu_failure_notices: u64,
    /// Dedicated bearers flushed because their local GW-U died (a
    /// subset of `dedicated_released`).
    pub gwu_flush_released: u64,
    /// Dedicated-bearer installs NACKed because the anchoring GW-U has
    /// no path to the UE's serving eNB (cross-region failover target).
    pub dedicated_rejected_no_path: u64,
}

impl GwControl {
    /// New GW-C over the given data-plane topology.
    pub fn new(addr: Ipv4Addr, topo: GwTopology, log: MsgLog) -> GwControl {
        GwControl {
            addr,
            topo,
            alloc: Allocator::new(),
            sessions: BTreeMap::new(),
            next_ue_host: 1,
            log,
            dedicated_active: 0,
            dedicated_reanchored: 0,
            dedicated_released: 0,
            gwu_failure_notices: 0,
            gwu_flush_released: 0,
            dedicated_rejected_no_path: 0,
        }
    }

    /// The UE address assigned to `imsi`, if attached.
    pub fn ue_addr(&self, imsi: Imsi) -> Option<Ipv4Addr> {
        self.sessions.get(&imsi).map(|s| s.ue_addr)
    }

    /// Mutable access to the data-plane topology (used when servers are
    /// added after construction).
    pub(crate) fn topology_mut(&mut self) -> &mut GwTopology {
        &mut self.topo
    }

    /// Dedicated bearers currently installed across all sessions, counted
    /// from the session table itself. Conservation invariant:
    /// `dedicated_active == dedicated_live()` whenever no activation is
    /// mid-flight (the chaos/failover soaks assert this).
    pub fn dedicated_live(&self) -> u64 {
        self.sessions
            .values()
            .map(|s| s.dedicated.len() as u64)
            .sum()
    }

    /// Dedicated-bearer activations currently mid-flight (pending
    /// CreateBearerResponse).
    pub fn dedicated_pending(&self) -> u64 {
        self.sessions
            .values()
            .map(|s| s.pending_dedicated.len() as u64)
            .sum()
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, port: PortId, dst: Ipv4Addr, msg: ControlMsg) {
        self.log.record(ctx.now(), &msg);
        ctx.send(port, msg.into_packet(self.addr, dst));
    }

    fn flowmod(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        sw_addr: Ipv4Addr,
        add: bool,
        mtch: FlowMatchSpec,
        actions: Vec<FlowActionSpec>,
    ) {
        let msg = ControlMsg::FlowMod {
            add,
            priority: 100,
            mtch,
            actions,
        };
        self.send(ctx, port, sw_addr, msg);
    }

    fn alloc_ue_ip(&mut self) -> Ipv4Addr {
        let base = u32::from(self.topo.ue_ip_base);
        let ip = Ipv4Addr::from(base + self.next_ue_host);
        self.next_ue_host += 1;
        ip
    }

    /// Program the SGW-U legs (UL toward PGW, DL toward eNB). Used both at
    /// attach (Modify Bearer) and at service-request re-establishment.
    fn install_sgw_rules(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(s) = self.sessions.get(&imsi).cloned() else {
            return;
        };
        let (Some(enb_teid), Some(enb_addr)) = (s.enb_teid, s.enb_addr) else {
            return;
        };
        let (sgw_u, pgw_u) = (self.topo.sgw_u, self.topo.pgw_u);
        let (sgw_to_pgw, sgw_to_enb) = (self.topo.sgw_port_pgw, self.topo.sgw_port_for(enb_addr));
        // UL: arriving tunnelled with teid_sgw_ul → re-tunnel to the PGW-U.
        self.flowmod(
            ctx,
            gwc_port::SGW_U,
            sgw_u,
            true,
            FlowMatchSpec {
                teid: Some(s.teid_sgw_ul),
                dst: None,
                src: None,
            },
            vec![
                FlowActionSpec::GtpDecap,
                FlowActionSpec::GtpEncap {
                    peer: pgw_u,
                    teid: s.teid_pgw_ul,
                },
                FlowActionSpec::Output { port: sgw_to_pgw },
            ],
        );
        // DL: arriving tunnelled with teid_sgw_dl → re-tunnel to the eNB.
        self.flowmod(
            ctx,
            gwc_port::SGW_U,
            sgw_u,
            true,
            FlowMatchSpec {
                teid: Some(s.teid_sgw_dl),
                dst: None,
                src: None,
            },
            vec![
                FlowActionSpec::GtpDecap,
                FlowActionSpec::GtpEncap {
                    peer: enb_addr,
                    teid: enb_teid,
                },
                FlowActionSpec::Output { port: sgw_to_enb },
            ],
        );
    }

    fn remove_sgw_rules(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(s) = self.sessions.get(&imsi).cloned() else {
            return;
        };
        let sgw_u = self.topo.sgw_u;
        for teid in [s.teid_sgw_ul, s.teid_sgw_dl] {
            self.flowmod(
                ctx,
                gwc_port::SGW_U,
                sgw_u,
                false,
                FlowMatchSpec {
                    teid: Some(teid),
                    dst: None,
                    src: None,
                },
                vec![],
            );
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        use ControlMsg::*;
        match msg {
            CreateSessionRequest { imsi } => {
                let ue_addr = self.alloc_ue_ip();
                let session = Session {
                    ue_addr,
                    teid_sgw_ul: self.alloc.teid(),
                    teid_sgw_dl: self.alloc.teid(),
                    teid_pgw_ul: self.alloc.teid(),
                    enb_teid: None,
                    enb_addr: None,
                    dedicated: ByEbi::default(),
                    pending_dedicated: ByEbi::default(),
                };
                let (sgw_u, pgw_u) = (self.topo.sgw_u, self.topo.pgw_u);
                let (pgw_to_inet, pgw_to_sgw) = (self.topo.pgw_port_inet, self.topo.pgw_port_sgw);
                // PGW-U UL: decap to the Internet.
                self.flowmod(
                    ctx,
                    gwc_port::PGW_U,
                    pgw_u,
                    true,
                    FlowMatchSpec {
                        teid: Some(session.teid_pgw_ul),
                        dst: None,
                        src: None,
                    },
                    vec![
                        FlowActionSpec::GtpDecap,
                        FlowActionSpec::Output { port: pgw_to_inet },
                    ],
                );
                // PGW-U DL: plain packets to the UE → tunnel to the SGW-U.
                self.flowmod(
                    ctx,
                    gwc_port::PGW_U,
                    pgw_u,
                    true,
                    FlowMatchSpec {
                        teid: None,
                        dst: Some(ue_addr),
                        src: None,
                    },
                    vec![
                        // Downlink TFT: best-effort class; the encap
                        // copies the inner ToS onto the tunnel header.
                        FlowActionSpec::SetTos {
                            tos: Qci::DEFAULT_BEARER.tos(),
                        },
                        FlowActionSpec::GtpEncap {
                            peer: sgw_u,
                            teid: session.teid_sgw_dl,
                        },
                        FlowActionSpec::Output { port: pgw_to_sgw },
                    ],
                );
                let erab = ErabSetup {
                    ebi: Ebi::DEFAULT,
                    qci: Qci::DEFAULT_BEARER,
                    gw_teid: session.teid_sgw_ul,
                    gw_addr: sgw_u,
                    tft: Tft::new(),
                };
                self.sessions.insert(imsi, session);
                self.send(
                    ctx,
                    gwc_port::MME,
                    pkt_peer(ctx),
                    CreateSessionResponse {
                        imsi,
                        ue_addr,
                        erab,
                    },
                );
            }
            ModifyBearerRequest {
                imsi,
                enb_teid,
                enb_addr,
            } => {
                if let Some(s) = self.sessions.get_mut(&imsi) {
                    s.enb_teid = Some(enb_teid);
                    s.enb_addr = Some(enb_addr);
                }
                self.install_sgw_rules(ctx, imsi);
                self.send(
                    ctx,
                    gwc_port::MME,
                    pkt_peer(ctx),
                    ModifyBearerResponse { imsi },
                );
            }
            ReleaseAccessBearersRequest { imsi } => {
                self.remove_sgw_rules(ctx, imsi);
                self.send(
                    ctx,
                    gwc_port::MME,
                    pkt_peer(ctx),
                    ReleaseAccessBearersResponse { imsi },
                );
            }
            // SGW-U saw downlink data for a released session → page.
            DownlinkDataByTeid { teid } => {
                let Some((&imsi, _)) = self.sessions.iter().find(|(_, s)| s.teid_sgw_dl == teid)
                else {
                    return;
                };
                self.send(
                    ctx,
                    gwc_port::MME,
                    self.addr,
                    DownlinkDataNotification { imsi },
                );
            }
            // PCEF side: a policy rule arrives from the PCRF.
            GxReauthRequest { rule } => {
                let Some((&imsi, _)) = self
                    .sessions
                    .iter()
                    .find(|(_, s)| s.ue_addr == rule.ue_addr)
                else {
                    let sid = rule.service_id;
                    self.send(
                        ctx,
                        gwc_port::PCRF,
                        pkt_peer(ctx),
                        GxReauthAnswer {
                            service_id: sid,
                            ok: false,
                        },
                    );
                    return;
                };
                if rule.install {
                    // Idempotent re-request (e.g. the device manager
                    // re-confirming connectivity after a handover that
                    // kept the bearer): answer success without stacking a
                    // second bearer for the same service.
                    let already = {
                        let s = &self.sessions[&imsi];
                        s.dedicated
                            .values()
                            .any(|(_, r)| r.service_id == rule.service_id)
                            || s.pending_dedicated
                                .values()
                                .any(|(r, _)| r.service_id == rule.service_id)
                    };
                    if already {
                        let sid = rule.service_id;
                        self.send(
                            ctx,
                            gwc_port::PCRF,
                            pkt_peer(ctx),
                            GxReauthAnswer {
                                service_id: sid,
                                ok: true,
                            },
                        );
                        return;
                    }
                    let Some(gw_addr) =
                        self.topo.local_for_server(rule.server_addr).map(|g| g.addr)
                    else {
                        let sid = rule.service_id;
                        self.send(
                            ctx,
                            gwc_port::PCRF,
                            pkt_peer(ctx),
                            GxReauthAnswer {
                                service_id: sid,
                                ok: false,
                            },
                        );
                        return;
                    };
                    // A local anchor only works if that GW-U has a direct
                    // path to the UE's serving eNB. A failover target in
                    // a *different* region does not — NACK so the client
                    // rides the default bearer through the core instead
                    // of blackholing uplink on a half-built local leg.
                    let reachable = match self.sessions[&imsi].enb_addr {
                        Some(enb) => self
                            .topo
                            .local_for_server(rule.server_addr)
                            .is_some_and(|g| g.serves_enb(enb)),
                        None => true,
                    };
                    if !reachable {
                        self.dedicated_rejected_no_path += 1;
                        let sid = rule.service_id;
                        self.send(
                            ctx,
                            gwc_port::PCRF,
                            pkt_peer(ctx),
                            GxReauthAnswer {
                                service_id: sid,
                                ok: false,
                            },
                        );
                        return;
                    }
                    // Network-initiated dedicated bearer with the *local*
                    // GW-U as the F-TEID target (paper step 3).
                    let ebi = Ebi(6
                        + (self.sessions[&imsi].dedicated.len() as u8
                            + self.sessions[&imsi].pending_dedicated.len() as u8));
                    let teid_local_ul = self.alloc.teid();
                    let tft = Tft::single(if rule.server_port == 0 {
                        PacketFilter::to_host(rule.server_addr)
                    } else {
                        let mut f = PacketFilter::to_host(rule.server_addr);
                        f.remote_port = Some((rule.server_port, rule.server_port));
                        f
                    });
                    let erab = ErabSetup {
                        ebi,
                        qci: rule.qci,
                        gw_teid: teid_local_ul,
                        gw_addr,
                        tft,
                    };
                    self.sessions
                        .get_mut(&imsi)
                        .expect("session exists")
                        .pending_dedicated
                        .insert(ebi.0, (rule, teid_local_ul));
                    let mme = pkt_peer_or(ctx, self.addr);
                    let _ = mme;
                    self.send(
                        ctx,
                        gwc_port::MME,
                        self.addr, // dst resolved by port topology
                        CreateBearerRequest { imsi, erab },
                    );
                } else {
                    // Removal: find the bearer serving this service.
                    let Some(&(ebi, _)) = self.sessions[&imsi]
                        .dedicated
                        .iter()
                        .find(|(_, (_, r))| r.service_id == rule.service_id)
                    else {
                        let sid = rule.service_id;
                        self.send(
                            ctx,
                            gwc_port::PCRF,
                            pkt_peer(ctx),
                            GxReauthAnswer {
                                service_id: sid,
                                ok: false,
                            },
                        );
                        return;
                    };
                    self.send(
                        ctx,
                        gwc_port::MME,
                        self.addr,
                        DeleteBearerRequest {
                            imsi,
                            ebi: Ebi(ebi),
                        },
                    );
                }
            }
            CreateBearerResponse {
                imsi,
                ebi,
                enb_teid,
                enb_addr,
            } => {
                let Some(session) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                let Some((rule, teid_local_ul)) = session.pending_dedicated.remove(ebi.0) else {
                    return;
                };
                let ue_addr = session.ue_addr;
                session
                    .dedicated
                    .insert(ebi.0, (teid_local_ul, rule.clone()));
                self.dedicated_active += 1;
                let gw = self
                    .topo
                    .local_for_server(rule.server_addr)
                    .expect("dedicated rule has an owning local GW-U")
                    .clone();
                // Local GW-U UL: tunnel from the eNB → decap to MEC.
                self.flowmod(
                    ctx,
                    gw.ctrl_port,
                    gw.addr,
                    true,
                    FlowMatchSpec {
                        teid: Some(teid_local_ul),
                        dst: None,
                        src: None,
                    },
                    vec![
                        FlowActionSpec::GtpDecap,
                        FlowActionSpec::Output { port: gw.port_mec },
                    ],
                );
                // Local GW-U DL: MEC server → tunnel to the eNB.
                self.flowmod(
                    ctx,
                    gw.ctrl_port,
                    gw.addr,
                    true,
                    FlowMatchSpec {
                        teid: None,
                        dst: Some(ue_addr),
                        src: None,
                    },
                    vec![
                        // Downlink TFT: dedicated-bearer QCI class.
                        FlowActionSpec::SetTos {
                            tos: rule.qci.tos(),
                        },
                        FlowActionSpec::GtpEncap {
                            peer: enb_addr,
                            teid: enb_teid,
                        },
                        FlowActionSpec::Output {
                            port: gw.port_for(enb_addr),
                        },
                    ],
                );
                let sid = rule.service_id;
                self.send(
                    ctx,
                    gwc_port::PCRF,
                    self.addr,
                    GxReauthAnswer {
                        service_id: sid,
                        ok: true,
                    },
                );
            }
            DeleteBearerResponse { imsi, ebi } => {
                let Some(session) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                let Some((teid_local_ul, rule)) = session.dedicated.remove(ebi.0) else {
                    return;
                };
                let ue_addr = session.ue_addr;
                let gw = self
                    .topo
                    .local_for_server(rule.server_addr)
                    .expect("dedicated rule has an owning local GW-U")
                    .clone();
                self.flowmod(
                    ctx,
                    gw.ctrl_port,
                    gw.addr,
                    false,
                    FlowMatchSpec {
                        teid: Some(teid_local_ul),
                        dst: None,
                        src: None,
                    },
                    vec![],
                );
                self.flowmod(
                    ctx,
                    gw.ctrl_port,
                    gw.addr,
                    false,
                    FlowMatchSpec {
                        teid: None,
                        dst: Some(ue_addr),
                        src: None,
                    },
                    vec![],
                );
                let sid = rule.service_id;
                self.send(
                    ctx,
                    gwc_port::PCRF,
                    self.addr,
                    GxReauthAnswer {
                        service_id: sid,
                        ok: true,
                    },
                );
            }
            // Failure-path flush (MME-initiated): the radio side already
            // dropped every bearer of this UE, so tear the dedicated
            // flows down without the per-bearer E-RAB handshake and
            // release the S1-U legs — downlink arriving before the
            // restore's Modify Bearer buffers at the SGW-U instead of
            // chasing the dead eNB context, and MEC-server replies fall
            // through to the core-detour route.
            DeleteBearerCommand { imsi } => {
                let Some(s) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                let ue_addr = s.ue_addr;
                let dedicated: Vec<(u8, Teid, PolicyRule)> = s
                    .dedicated
                    .iter()
                    .map(|(ebi, (t, r))| (*ebi, *t, r.clone()))
                    .collect();
                s.dedicated.clear();
                s.pending_dedicated.clear();
                // Per-TEID removals in EBI order, each to its owning GW-U,
                // then one catch-all dst=UE removal per GW-U touched (in
                // first-appearance order — identical message sequence to
                // the single-site topology when there is one GW-U).
                let mut touched: Vec<LocalGw> = Vec::new();
                for (_, teid_local_ul, rule) in &dedicated {
                    let gw = self
                        .topo
                        .local_for_server(rule.server_addr)
                        .expect("dedicated rule has an owning local GW-U")
                        .clone();
                    self.flowmod(
                        ctx,
                        gw.ctrl_port,
                        gw.addr,
                        false,
                        FlowMatchSpec {
                            teid: Some(*teid_local_ul),
                            dst: None,
                            src: None,
                        },
                        vec![],
                    );
                    if !touched.iter().any(|g| g.addr == gw.addr) {
                        touched.push(gw);
                    }
                }
                for gw in touched {
                    self.flowmod(
                        ctx,
                        gw.ctrl_port,
                        gw.addr,
                        false,
                        FlowMatchSpec {
                            teid: None,
                            dst: Some(ue_addr),
                            src: None,
                        },
                        vec![],
                    );
                }
                if !dedicated.is_empty() {
                    self.dedicated_released += dedicated.len() as u64;
                    self.dedicated_active =
                        self.dedicated_active.saturating_sub(dedicated.len() as u64);
                }
                self.remove_sgw_rules(ctx, imsi);
            }
            // Dead local GW-U: flush every dedicated bearer anchored on
            // the failed switch — controller state and PCEF accounting
            // only. The switch's flow table died with it (and a restart
            // comes back empty), so no removal FlowMods chase the dead
            // GW-U, and the default bearer via the core SGW-U is left
            // untouched. UE traffic re-classifies onto the default
            // bearer as soon as the client re-anchors away from the
            // dead MEC (the dedicated TFT stops matching).
            GwuFailureIndication { gwu_addr } => {
                self.gwu_failure_notices += 1;
                let mut flushed = 0u64;
                let topo = &self.topo;
                let owned_by_dead = |server: Ipv4Addr| {
                    topo.local_for_server(server)
                        .is_some_and(|g| g.addr == gwu_addr)
                };
                for s in self.sessions.values_mut() {
                    let before = s.dedicated.len();
                    s.dedicated
                        .retain(|(_, (_, r))| !owned_by_dead(r.server_addr));
                    flushed += (before - s.dedicated.len()) as u64;
                    // A pending activation on the dead switch can never
                    // complete; drop it so the late CreateBearerResponse
                    // (if any) is a recognised no-op.
                    s.pending_dedicated
                        .retain(|(_, (r, _))| !owned_by_dead(r.server_addr));
                }
                if flushed > 0 {
                    self.gwu_flush_released += flushed;
                    self.dedicated_released += flushed;
                    self.dedicated_active = self.dedicated_active.saturating_sub(flushed);
                }
            }
            // X2 handover completed: re-anchor every S1 leg on the target
            // eNB. The default bearer's SGW-U downlink rule is rewritten;
            // dedicated bearers follow to the target's local GW-U port or,
            // when the target has no MEC path, are torn down (the session
            // falls back to the default bearer).
            BearerRelocationRequest {
                imsi,
                enb_addr,
                enb_teids,
            } => {
                let Some(s) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                s.enb_addr = Some(enb_addr);
                if let Some(&(_, t)) = enb_teids.iter().find(|(ebi, _)| *ebi == Ebi::DEFAULT) {
                    s.enb_teid = Some(t);
                }
                let ue_addr = s.ue_addr;
                let teid_sgw_dl = s.teid_sgw_dl;
                let default_teid = s.enb_teid;
                // `ByEbi` iterates in EBI order, so the FlowMod sequence
                // is deterministic by construction.
                let dedicated: Vec<(u8, Teid, PolicyRule)> = s
                    .dedicated
                    .iter()
                    .map(|(ebi, (t, r))| (*ebi, *t, r.clone()))
                    .collect();
                let sgw_u = self.topo.sgw_u;
                let sgw_to_enb = self.topo.sgw_port_for(enb_addr);
                // Rewrite the SGW-U downlink leg toward the target eNB
                // (the SGW's paging buffer absorbs the del→add window).
                if let Some(teid) = default_teid {
                    self.flowmod(
                        ctx,
                        gwc_port::SGW_U,
                        sgw_u,
                        false,
                        FlowMatchSpec {
                            teid: Some(teid_sgw_dl),
                            dst: None,
                            src: None,
                        },
                        vec![],
                    );
                    self.flowmod(
                        ctx,
                        gwc_port::SGW_U,
                        sgw_u,
                        true,
                        FlowMatchSpec {
                            teid: Some(teid_sgw_dl),
                            dst: None,
                            src: None,
                        },
                        vec![
                            FlowActionSpec::GtpDecap,
                            FlowActionSpec::GtpEncap {
                                peer: enb_addr,
                                teid,
                            },
                            FlowActionSpec::Output { port: sgw_to_enb },
                        ],
                    );
                }
                let mut released = Vec::new();
                for (ebi, teid_local_ul, rule) in dedicated {
                    let target_teid = enb_teids.iter().find(|(e, _)| e.0 == ebi).map(|&(_, t)| t);
                    // The bearer anchors on the GW-U owning its MEC server;
                    // whether the target eNB keeps the local path is a
                    // per-site question in a multi-region topology.
                    let gw = self
                        .topo
                        .local_for_server(rule.server_addr)
                        .expect("dedicated rule has an owning local GW-U")
                        .clone();
                    let target_mec = gw.serves_enb(enb_addr);
                    if let (true, Some(new_teid)) = (target_mec, target_teid) {
                        // Relocate: point the local GW-U downlink rule at
                        // the target eNB's port and TEID.
                        self.flowmod(
                            ctx,
                            gw.ctrl_port,
                            gw.addr,
                            false,
                            FlowMatchSpec {
                                teid: None,
                                dst: Some(ue_addr),
                                src: None,
                            },
                            vec![],
                        );
                        self.flowmod(
                            ctx,
                            gw.ctrl_port,
                            gw.addr,
                            true,
                            FlowMatchSpec {
                                teid: None,
                                dst: Some(ue_addr),
                                src: None,
                            },
                            vec![
                                // Re-stamp the dedicated class after
                                // re-anchoring on the target eNB.
                                FlowActionSpec::SetTos {
                                    tos: rule.qci.tos(),
                                },
                                FlowActionSpec::GtpEncap {
                                    peer: enb_addr,
                                    teid: new_teid,
                                },
                                FlowActionSpec::Output {
                                    port: gw.port_for(enb_addr),
                                },
                            ],
                        );
                        self.dedicated_reanchored += 1;
                    } else {
                        // Fall back: tear the local rules down and release
                        // the bearer; traffic rides the default bearer.
                        self.flowmod(
                            ctx,
                            gw.ctrl_port,
                            gw.addr,
                            false,
                            FlowMatchSpec {
                                teid: Some(teid_local_ul),
                                dst: None,
                                src: None,
                            },
                            vec![],
                        );
                        self.flowmod(
                            ctx,
                            gw.ctrl_port,
                            gw.addr,
                            false,
                            FlowMatchSpec {
                                teid: None,
                                dst: Some(ue_addr),
                                src: None,
                            },
                            vec![],
                        );
                        self.sessions
                            .get_mut(&imsi)
                            .expect("session exists")
                            .dedicated
                            .remove(ebi);
                        released.push(Ebi(ebi));
                        self.dedicated_released += 1;
                        self.dedicated_active = self.dedicated_active.saturating_sub(1);
                    }
                }
                self.send(
                    ctx,
                    gwc_port::MME,
                    pkt_peer(ctx),
                    BearerRelocationResponse {
                        imsi,
                        erabs: vec![],
                        released,
                    },
                );
            }
            _ => {}
        }
    }
}

/// The GW-C learns peers from topology wiring; packet source addressing is
/// only used for logging, so a placeholder destination is acceptable on
/// point-to-point control links. These helpers document that intent.
fn pkt_peer(_ctx: &Ctx<'_>) -> Ipv4Addr {
    Ipv4Addr::UNSPECIFIED
}

fn pkt_peer_or(_ctx: &Ctx<'_>, fallback: Ipv4Addr) -> Ipv4Addr {
    fallback
}

impl Node for GwControl {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        if let Some(msg) = ControlMsg::from_packet(&pkt) {
            self.handle(ctx, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ByEbi;

    /// Inserted out of order, a table iterates in EBI order; an insert
    /// under a taken EBI replaces the value, as a map's would; emptied,
    /// it holds no allocation.
    #[test]
    fn by_ebi_is_an_ordered_map_that_frees_when_empty() {
        let mut t = ByEbi::default();
        for (ebi, v) in [(7, 'a'), (5, 'b'), (9, 'c'), (7, 'd')] {
            t.insert(ebi, v);
        }
        assert_eq!(
            t.iter().copied().collect::<Vec<_>>(),
            [(5, 'b'), (7, 'd'), (9, 'c')]
        );
        assert_eq!(t.remove(7), Some('d'));
        assert_eq!(t.remove(7), None);
        t.retain(|&(_, v)| v != 'c');
        assert_eq!(t.values().collect::<Vec<_>>(), [&'b']);
        assert_eq!(t.remove(5), Some('b'));
        assert_eq!((t.len(), t.0.capacity()), (0, 0));
    }
}
