//! EPC control-plane entities: MME, HSS, PCRF and the combined split-GW
//! controller (SGW-C + PGW-C + PCEF) that programs the GW-U data planes
//! over OpenFlow.
//!
//! The GW-C "decouples the 3GPP control plane and the OpenFlow control
//! plane" (paper §5.4): it speaks GTPv2-C with the MME on one side and
//! pushes flow rules to the user-plane switches on the other.
//!
//! Every entity here (and the eNB) puts a control message on the wire
//! through one call, `MsgLog::send`, which records the message and sends
//! it. The GW-C programs its switches in a small rule vocabulary:
//! - `add` and `del` send one FlowMod for one match, built with
//!   [`FlowMatchSpec::teid`] (tunnelled traffic) or [`FlowMatchSpec::dst`]
//!   (plain traffic to a UE);
//! - `sgw_downlink` and `local_downlink` are the two rule shapes written
//!   at set-up and rewritten at handover: the SGW-U's default-bearer
//!   downlink leg and a local GW-U's dedicated-bearer downlink leg;
//! - `answer` is its Gx reply to the PCRF, and `to_mme` its GTP-C send.
//!
//! The MME routes its sends through `to_enb` (the UE's serving eNB) and
//! `to_gwc`.
//!
//! Destinations are pinned, not derived. The control links are
//! point-to-point and no node reads a control packet's destination, so
//! the GW-C's have never been uniform. Its replies to the MME and the Gx
//! answers it gives at once (a refusal, or the ack of a repeated request)
//! carry `0.0.0.0`; its own requests to the MME and the Gx answers that
//! close a bearer set-up or release carry its own address. They stay as
//! written: the entity transcripts in `tests/entities.rs` pin them, and
//! making them uniform is a change of its own, not part of a refactor.

use crate::ids::{Allocator, Ebi, Imsi, Teid};
use crate::log::MsgLog;
use crate::qci::Qci;
use crate::tft::{PacketFilter, Tft};
use crate::wire::FlowActionSpec::{self, GtpDecap, GtpEncap, Output, SetTos};
use crate::wire::{ControlMsg, ErabSetup, FlowMatchSpec, PolicyRule};
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

    /// Send `msg` to the eNB serving `imsi`.
    fn to_enb(&self, ctx: &mut Ctx<'_>, imsi: Imsi, msg: ControlMsg) {
        let (port, enb) = self.enb_route(imsi);
        self.log.send(ctx, port, self.addr, enb, msg);
    }

    /// Send `msg` to the GW-C.
    fn to_gwc(&self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        self.log
            .send(ctx, mme_port::GWC, self.addr, self.gwc_addr, msg);
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
                self.log
                    .send(ctx, mme_port::HSS, self.addr, self.hss_addr, m);
            }
            S6aAuthInfoAnswer { imsi, ok } => {
                if !ok {
                    self.ctx_mut(imsi).state = MmeUeState::Unknown;
                    return;
                }
                self.ctx_mut(imsi).state = MmeUeState::SessionWait;
                self.to_gwc(ctx, CreateSessionRequest { imsi });
            }
            CreateSessionResponse {
                imsi,
                ue_addr,
                erab,
            } => {
                let c = self.ctx_mut(imsi);
                c.ue_addr = Some(ue_addr);
                c.default_erab = Some(erab.clone());
                c.state = MmeUeState::CtxSetupWait;
                let erabs = vec![erab];
                self.to_enb(ctx, imsi, InitialContextSetupRequest { imsi, erabs });
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
                    self.to_gwc(ctx, DeleteBearerCommand { imsi });
                }
                self.ctx_mut(imsi).state = MmeUeState::ServiceWait;
                // Empty E-RAB list = restore stored bearers at the eNB.
                let erabs = vec![];
                self.to_enb(ctx, imsi, InitialContextSetupRequest { imsi, erabs });
            }
            InitialContextSetupResponse { imsi, enb_teids } => {
                let default_teid = enb_teids
                    .iter()
                    .find(|(ebi, _)| *ebi == Ebi::DEFAULT)
                    .map(|&(_, t)| t);
                let c = self.ctx_mut(imsi);
                c.enb_teid = default_teid.or(c.enb_teid);
                c.state = MmeUeState::ModifyWait;
                let Some(enb_teid) = c.enb_teid else {
                    // The eNB had no stored bearer to restore (the UE
                    // re-entered through a cell that never held its
                    // context): rebuild the default E-RAB from the session
                    // record instead of wedging in ServiceWait.
                    if let Some(erab) = c.default_erab.clone() {
                        c.state = MmeUeState::ServiceWait;
                        let erabs = vec![erab];
                        self.to_enb(ctx, imsi, InitialContextSetupRequest { imsi, erabs });
                    }
                    return;
                };
                let (_, enb_addr) = self.enb_route(imsi);
                let m = ModifyBearerRequest {
                    imsi,
                    enb_teid,
                    enb_addr,
                };
                self.to_gwc(ctx, m);
            }
            ModifyBearerResponse { imsi } => {
                let c = self.ctx_mut(imsi);
                let ue_addr = if c.state == MmeUeState::ServiceWait
                    || c.state == MmeUeState::ModifyWait && c.ue_addr.is_none()
                {
                    None
                } else {
                    c.ue_addr
                };
                c.state = MmeUeState::Attached;
                self.to_enb(ctx, imsi, DownlinkNasAccept { imsi, ue_addr });
            }
            // Dedicated bearer: GW-C initiated.
            CreateBearerRequest { imsi, erab } => {
                self.to_enb(ctx, imsi, ErabSetupRequest { imsi, erab });
            }
            ErabSetupResponse {
                imsi,
                ebi,
                enb_teid,
            } => {
                let (_, enb_addr) = self.enb_route(imsi);
                let m = CreateBearerResponse {
                    imsi,
                    ebi,
                    enb_teid,
                    enb_addr,
                };
                self.to_gwc(ctx, m);
            }
            DeleteBearerRequest { imsi, ebi } => {
                self.to_enb(ctx, imsi, ErabReleaseCommand { imsi, ebi });
            }
            ErabReleaseResponse { imsi, ebi } => {
                self.to_gwc(ctx, DeleteBearerResponse { imsi, ebi });
            }
            // Idle release.
            UeContextReleaseRequest { imsi } => {
                self.ctx_mut(imsi).state = MmeUeState::ReleaseWait;
                self.to_gwc(ctx, ReleaseAccessBearersRequest { imsi });
            }
            ReleaseAccessBearersResponse { imsi } => {
                self.to_enb(ctx, imsi, UeContextReleaseCommand { imsi });
            }
            UeContextReleaseComplete { imsi } => {
                self.ctx_mut(imsi).state = MmeUeState::Idle;
            }
            // Downlink data pending for an idle UE: page it.
            DownlinkDataNotification { imsi } if self.ctx_mut(imsi).state == MmeUeState::Idle => {
                self.to_enb(ctx, imsi, Paging { imsi });
            }
            // X2 handover: the target eNB owns the UE's S1 legs now.
            PathSwitchRequest {
                imsi,
                enb_addr,
                erabs,
                txid,
            } => {
                let c = self.ctx_mut(imsi);
                // Duplicate / retransmitted request: never re-run the
                // bearer relocation — either replay the cached Ack (its
                // first copy was lost) or let the in-flight one answer.
                if c.last_ps == Some((enb_addr, txid)) {
                    if let Some(erabs) = c.ps_ack.clone() {
                        self.to_enb(ctx, imsi, PathSwitchRequestAck { imsi, erabs });
                    }
                    return;
                }
                let default_teid = erabs
                    .iter()
                    .find(|(ebi, _)| *ebi == Ebi::DEFAULT)
                    .map(|&(_, t)| t);
                c.enb_addr = enb_addr;
                c.enb_teid = default_teid.or(c.enb_teid);
                c.last_ps = Some((enb_addr, txid));
                c.ps_ack = None;
                let m = BearerRelocationRequest {
                    imsi,
                    enb_addr,
                    enb_teids: erabs,
                };
                self.to_gwc(ctx, m);
            }
            BearerRelocationResponse {
                imsi,
                erabs,
                released,
            } => {
                self.ctx_mut(imsi).ps_ack = Some(erabs.clone());
                self.to_enb(ctx, imsi, PathSwitchRequestAck { imsi, erabs });
                // Bearers the target cell cannot serve are released via the
                // standard E-RAB release procedure.
                for ebi in released {
                    self.to_enb(ctx, imsi, ErabReleaseCommand { imsi, ebi });
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
        self.log.send(ctx, port, self.addr, pkt.src, msg);
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
}

impl Node for Pcrf {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        match ControlMsg::from_packet(&pkt) {
            Some(ControlMsg::RxAuthRequest { rule }) => {
                self.pending.insert(rule.service_id, pkt.src);
                self.rules_pushed += 1;
                let m = ControlMsg::GxReauthRequest { rule };
                self.log
                    .send(ctx, pcrf_port::GWC, self.addr, self.gwc_addr, m);
            }
            Some(ControlMsg::GxReauthAnswer { service_id, ok }) => {
                if let Some(af) = self.pending.remove(&service_id) {
                    let m = ControlMsg::RxAuthAnswer { service_id, ok };
                    self.log.send(ctx, pcrf_port::AF, self.addr, af, m);
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
    /// OpenFlow to the first local (MEC) GW-U; a city-scale topology
    /// wires one local GW-U per region at `LOCAL_GWU + region_index`.
    pub const LOCAL_GWU: PortId = 4;
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
    /// (`gwc_port::LOCAL_GWU + site_index`).
    pub ctrl_port: PortId,
    /// GW-U output port toward the eNB (default when no override).
    pub port_enb: usize,
    /// GW-U output port toward its MEC server(s).
    pub port_mec: usize,
    /// The eNBs with a direct path to this GW-U (MEC-equipped cells) and
    /// the output port toward each; empty = every eNB, through
    /// `port_enb`. Dedicated bearers can only re-anchor onto these.
    pub enb_ports: Vec<(Ipv4Addr, usize)>,
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
        self.enb_ports.is_empty() || self.enb_ports.iter().any(|&(a, _)| a == enb)
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

    /// The local GW-U site a dedicated bearer for `rule` anchors on.
    fn anchor(&self, rule: &PolicyRule) -> &LocalGw {
        self.local_for_server(rule.server_addr)
            .expect("dedicated rule has an owning local GW-U")
    }
}

#[derive(Debug)]
struct Session {
    ue_addr: Ipv4Addr,
    teid_sgw_ul: Teid,
    teid_sgw_dl: Teid,
    teid_pgw_ul: Teid,
    enb_teid: Option<Teid>,
    enb_addr: Option<Ipv4Addr>,
    /// Dedicated bearers, live and pending, by EBI.
    bearers: ByEbi<Bearer>,
}

/// One dedicated bearer of a session.
#[derive(Debug)]
struct Bearer {
    /// Uplink TEID on the local GW-U.
    teid: Teid,
    /// The policy rule it serves.
    rule: PolicyRule,
    /// Set up at the eNB (`false` while its CreateBearerResponse is
    /// pending).
    live: bool,
}

/// One session's bearers keyed by EBI, in a `Vec` sorted by EBI and sized
/// to what it holds: a session holds one or two, and an emptied table
/// gives its allocation back.
#[derive(Debug)]
struct ByEbi<V>(Vec<(u8, V)>);

impl<V> Default for ByEbi<V> {
    fn default() -> Self {
        ByEbi(Vec::new())
    }
}

impl<V> ByEbi<V> {
    /// The lowest EBI from `first` on that holds no value.
    fn vacant_from(&self, first: u8) -> u8 {
        let held = |e: &u8| self.0.binary_search_by_key(e, |&(k, _)| k).is_ok();
        (first..).find(|e| !held(e)).expect("a free EBI")
    }

    /// The entries in EBI order.
    fn iter(&self) -> std::slice::Iter<'_, (u8, V)> {
        self.0.iter()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    fn get_mut(&mut self, ebi: u8) -> Option<&mut V> {
        let i = self.0.binary_search_by_key(&ebi, |&(e, _)| e).ok()?;
        Some(&mut self.0[i].1)
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

    /// Remove the value under `ebi` if `pick` accepts it.
    fn remove_if(&mut self, ebi: u8, pick: impl FnOnce(&V) -> bool) -> Option<V> {
        let i = self.0.binary_search_by_key(&ebi, |&(e, _)| e).ok()?;
        if !pick(&self.0[i].1) {
            return None;
        }
        let (_, v) = self.0.remove(i);
        self.release_if_empty();
        Some(v)
    }

    fn retain(&mut self, keep: impl FnMut(&(u8, V)) -> bool) {
        self.0.retain(keep);
        self.release_if_empty();
    }

    fn release_if_empty(&mut self) {
        if self.0.is_empty() {
            self.0 = Vec::new();
        }
    }
}

/// The destination the GW-C writes on its replies to the MME and on the
/// Gx answers it gives at once (see the module doc).
const UNSPECIFIED: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

/// Priority of every rule the GW-C installs.
const PRIORITY: u16 = 100;

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

    /// The number of dedicated bearers, across all sessions, whose
    /// set-up state is `live`.
    fn dedicated(&self, live: bool) -> u64 {
        let sessions = self.sessions.values();
        let bearers = sessions.flat_map(|s| s.bearers.values());
        bearers.filter(|b| b.live == live).count() as u64
    }

    /// Dedicated bearers currently installed across all sessions, counted
    /// from the session table itself. Conservation invariant:
    /// `dedicated_active == dedicated_live()` whenever no activation is
    /// mid-flight (the chaos/failover soaks assert this).
    pub fn dedicated_live(&self) -> u64 {
        self.dedicated(true)
    }

    /// Dedicated-bearer activations currently mid-flight (pending
    /// CreateBearerResponse).
    pub fn dedicated_pending(&self) -> u64 {
        self.dedicated(false)
    }

    fn to_mme(&self, ctx: &mut Ctx<'_>, dst: Ipv4Addr, msg: ControlMsg) {
        self.log.send(ctx, gwc_port::MME, self.addr, dst, msg);
    }

    /// Answer the PCRF's Gx request for `service_id`.
    fn answer(&self, ctx: &mut Ctx<'_>, dst: Ipv4Addr, service_id: u32, ok: bool) {
        let msg = ControlMsg::GxReauthAnswer { service_id, ok };
        self.log.send(ctx, gwc_port::PCRF, self.addr, dst, msg);
    }

    /// Install `actions` for `mtch` on the switch at `sw`, wired to `port`.
    fn add(
        &self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        sw: Ipv4Addr,
        mtch: FlowMatchSpec,
        actions: Vec<FlowActionSpec>,
    ) {
        let msg = ControlMsg::FlowMod {
            add: true,
            priority: PRIORITY,
            mtch,
            actions,
        };
        self.log.send(ctx, port, self.addr, sw, msg);
    }

    /// Remove the rule for `mtch` from the switch at `sw`.
    fn del(&self, ctx: &mut Ctx<'_>, port: PortId, sw: Ipv4Addr, mtch: FlowMatchSpec) {
        let msg = ControlMsg::FlowMod {
            add: false,
            priority: PRIORITY,
            mtch,
            actions: Vec::new(),
        };
        self.log.send(ctx, port, self.addr, sw, msg);
    }

    /// The SGW-U downlink leg: arriving tunnelled with `teid` →
    /// re-tunnel to `(enb, enb_teid)`.
    fn sgw_downlink(&self, ctx: &mut Ctx<'_>, teid: Teid, enb: Ipv4Addr, enb_teid: Teid) {
        let (sgw_u, port) = (self.topo.sgw_u, self.topo.sgw_port_for(enb));
        let actions = vec![
            GtpDecap,
            GtpEncap {
                peer: enb,
                teid: enb_teid,
            },
            Output { port },
        ];
        let dl = FlowMatchSpec::teid(teid);
        self.add(ctx, gwc_port::SGW_U, sgw_u, dl, actions);
    }

    /// The local GW-U downlink leg: MEC traffic to `ue` → stamped with
    /// the bearer's class and tunnelled to `(enb, enb_teid)`.
    fn local_downlink(
        &self,
        ctx: &mut Ctx<'_>,
        gw: &LocalGw,
        ue: Ipv4Addr,
        qci: Qci,
        enb: Ipv4Addr,
        enb_teid: Teid,
    ) {
        let actions = vec![
            SetTos { tos: qci.tos() },
            GtpEncap {
                peer: enb,
                teid: enb_teid,
            },
            Output {
                port: gw.port_for(enb),
            },
        ];
        self.add(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::dst(ue), actions);
    }

    fn alloc_ue_ip(&mut self) -> Ipv4Addr {
        let base = u32::from(self.topo.ue_ip_base);
        let ip = Ipv4Addr::from(base + self.next_ue_host);
        self.next_ue_host += 1;
        ip
    }

    /// Program the SGW-U legs (UL toward PGW, DL toward eNB). Used both at
    /// attach (Modify Bearer) and at service-request re-establishment.
    fn install_sgw_rules(&self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(s) = self.sessions.get(&imsi) else {
            return;
        };
        let (Some(enb_teid), Some(enb_addr)) = (s.enb_teid, s.enb_addr) else {
            return;
        };
        let t = &self.topo;
        // UL: arriving tunnelled with teid_sgw_ul → re-tunnel to the PGW-U.
        let actions = vec![
            GtpDecap,
            GtpEncap {
                peer: t.pgw_u,
                teid: s.teid_pgw_ul,
            },
            Output {
                port: t.sgw_port_pgw,
            },
        ];
        let ul = FlowMatchSpec::teid(s.teid_sgw_ul);
        self.add(ctx, gwc_port::SGW_U, t.sgw_u, ul, actions);
        self.sgw_downlink(ctx, s.teid_sgw_dl, enb_addr, enb_teid);
    }

    fn remove_sgw_rules(&self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(s) = self.sessions.get(&imsi) else {
            return;
        };
        for teid in [s.teid_sgw_ul, s.teid_sgw_dl] {
            self.del(
                ctx,
                gwc_port::SGW_U,
                self.topo.sgw_u,
                FlowMatchSpec::teid(teid),
            );
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        use ControlMsg::*;
        match msg {
            CreateSessionRequest { imsi } => {
                let ue_addr = self.alloc_ue_ip();
                let s = Session {
                    ue_addr,
                    teid_sgw_ul: self.alloc.teid(),
                    teid_sgw_dl: self.alloc.teid(),
                    teid_pgw_ul: self.alloc.teid(),
                    enb_teid: None,
                    enb_addr: None,
                    bearers: ByEbi::default(),
                };
                let t = &self.topo;
                // PGW-U UL: decap to the Internet.
                let actions = vec![
                    GtpDecap,
                    Output {
                        port: t.pgw_port_inet,
                    },
                ];
                let ul = FlowMatchSpec::teid(s.teid_pgw_ul);
                self.add(ctx, gwc_port::PGW_U, t.pgw_u, ul, actions);
                // PGW-U DL: plain packets to the UE → tunnel to the SGW-U.
                let actions = vec![
                    // Downlink TFT: best-effort class; the encap
                    // copies the inner ToS onto the tunnel header.
                    SetTos {
                        tos: Qci::DEFAULT_BEARER.tos(),
                    },
                    GtpEncap {
                        peer: t.sgw_u,
                        teid: s.teid_sgw_dl,
                    },
                    Output {
                        port: t.pgw_port_sgw,
                    },
                ];
                let dl = FlowMatchSpec::dst(ue_addr);
                self.add(ctx, gwc_port::PGW_U, t.pgw_u, dl, actions);
                let erab = ErabSetup {
                    ebi: Ebi::DEFAULT,
                    qci: Qci::DEFAULT_BEARER,
                    gw_teid: s.teid_sgw_ul,
                    gw_addr: t.sgw_u,
                    tft: Tft::new(),
                };
                self.sessions.insert(imsi, s);
                let m = CreateSessionResponse {
                    imsi,
                    ue_addr,
                    erab,
                };
                self.to_mme(ctx, UNSPECIFIED, m);
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
                self.to_mme(ctx, UNSPECIFIED, ModifyBearerResponse { imsi });
            }
            ReleaseAccessBearersRequest { imsi } => {
                self.remove_sgw_rules(ctx, imsi);
                self.to_mme(ctx, UNSPECIFIED, ReleaseAccessBearersResponse { imsi });
            }
            // SGW-U saw downlink data for a released session → page.
            DownlinkDataByTeid { teid } => {
                let owner = self.sessions.iter().find(|(_, s)| s.teid_sgw_dl == teid);
                if let Some((&imsi, _)) = owner {
                    self.to_mme(ctx, self.addr, DownlinkDataNotification { imsi });
                }
            }
            // PCEF side: a policy rule arrives from the PCRF.
            GxReauthRequest { rule } => {
                let sid = rule.service_id;
                let Some((&imsi, s)) = self
                    .sessions
                    .iter()
                    .find(|(_, s)| s.ue_addr == rule.ue_addr)
                else {
                    return self.answer(ctx, UNSPECIFIED, sid, false);
                };
                if !rule.install {
                    // Removal: release the live bearer serving this service.
                    let serves = |b: &Bearer| b.live && b.rule.service_id == sid;
                    let Some(&(ebi, _)) = s.bearers.iter().find(|(_, b)| serves(b)) else {
                        return self.answer(ctx, UNSPECIFIED, sid, false);
                    };
                    let ebi = Ebi(ebi);
                    return self.to_mme(ctx, self.addr, DeleteBearerRequest { imsi, ebi });
                }
                // Idempotent re-request (e.g. the device manager
                // re-confirming connectivity after a handover that kept
                // the bearer): answer success without stacking a second
                // bearer for the same service.
                if s.bearers.values().any(|b| b.rule.service_id == sid) {
                    return self.answer(ctx, UNSPECIFIED, sid, true);
                }
                let Some(gw) = self.topo.local_for_server(rule.server_addr) else {
                    return self.answer(ctx, UNSPECIFIED, sid, false);
                };
                // A local anchor only works if that GW-U has a direct
                // path to the UE's serving eNB. A failover target in a
                // *different* region does not — NACK so the client rides
                // the default bearer through the core instead of
                // blackholing uplink on a half-built local leg.
                if s.enb_addr.is_some_and(|enb| !gw.serves_enb(enb)) {
                    self.dedicated_rejected_no_path += 1;
                    return self.answer(ctx, UNSPECIFIED, sid, false);
                }
                // Network-initiated dedicated bearer with the *local*
                // GW-U as the F-TEID target (paper step 3), under the
                // lowest EBI the session does not hold.
                let ebi = Ebi(s.bearers.vacant_from(6));
                let teid = self.alloc.teid();
                let mut filter = PacketFilter::to_host(rule.server_addr);
                if rule.server_port != 0 {
                    filter.remote_port = Some((rule.server_port, rule.server_port));
                }
                let erab = ErabSetup {
                    ebi,
                    qci: rule.qci,
                    gw_teid: teid,
                    gw_addr: gw.addr,
                    tft: Tft::single(filter),
                };
                let s = self.sessions.get_mut(&imsi).expect("session exists");
                let live = false;
                s.bearers.insert(ebi.0, Bearer { teid, rule, live });
                self.to_mme(ctx, self.addr, CreateBearerRequest { imsi, erab });
            }
            CreateBearerResponse {
                imsi,
                ebi,
                enb_teid,
                enb_addr,
            } => {
                let Some(s) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                let Some(b) = s.bearers.get_mut(ebi.0).filter(|b| !b.live) else {
                    return;
                };
                b.live = true;
                let (ue, teid, rule) = (s.ue_addr, b.teid, b.rule.clone());
                self.dedicated_active += 1;
                let gw = self.topo.anchor(&rule);
                // Local GW-U UL: tunnel from the eNB → decap to MEC.
                let actions = vec![GtpDecap, Output { port: gw.port_mec }];
                let ul = FlowMatchSpec::teid(teid);
                self.add(ctx, gw.ctrl_port, gw.addr, ul, actions);
                // Local GW-U DL: MEC server → tunnel to the eNB, in the
                // dedicated bearer's QCI class.
                self.local_downlink(ctx, gw, ue, rule.qci, enb_addr, enb_teid);
                self.answer(ctx, self.addr, rule.service_id, true);
            }
            DeleteBearerResponse { imsi, ebi } => {
                let Some(s) = self.sessions.get_mut(&imsi) else {
                    return;
                };
                let Some(b) = s.bearers.remove_if(ebi.0, |b| b.live) else {
                    return;
                };
                let (ue, gw) = (s.ue_addr, self.topo.anchor(&b.rule));
                self.del(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::teid(b.teid));
                self.del(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::dst(ue));
                self.dedicated_released += 1;
                self.dedicated_active = self.dedicated_active.saturating_sub(1);
                self.answer(ctx, self.addr, b.rule.service_id, true);
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
                let (ue, bearers) = (s.ue_addr, std::mem::take(&mut s.bearers));
                // Per-TEID removals in EBI order, each to its owning GW-U,
                // then one catch-all dst=UE removal per GW-U touched (in
                // first-appearance order — identical message sequence to
                // the single-site topology when there is one GW-U).
                let mut touched: Vec<&LocalGw> = Vec::new();
                let mut released = 0;
                for b in bearers.values().filter(|b| b.live) {
                    let gw = self.topo.anchor(&b.rule);
                    self.del(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::teid(b.teid));
                    if !touched.iter().any(|g| g.addr == gw.addr) {
                        touched.push(gw);
                    }
                    released += 1;
                }
                for gw in touched {
                    self.del(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::dst(ue));
                }
                self.remove_sgw_rules(ctx, imsi);
                self.dedicated_released += released;
                self.dedicated_active = self.dedicated_active.saturating_sub(released);
            }
            // Dead local GW-U: flush every dedicated bearer anchored on
            // the failed switch — controller state and PCEF accounting
            // only. The switch's flow table died with it (and a restart
            // comes back empty), so no removal FlowMods chase the dead
            // GW-U, and the default bearer via the core SGW-U is left
            // untouched. UE traffic re-classifies onto the default
            // bearer as soon as the client re-anchors away from the
            // dead MEC (the dedicated TFT stops matching). A pending
            // activation on the dead switch can never complete; it goes
            // too, so the late CreateBearerResponse (if any) is a
            // recognised no-op.
            GwuFailureIndication { gwu_addr } => {
                self.gwu_failure_notices += 1;
                let mut flushed = 0u64;
                let topo = &self.topo;
                for s in self.sessions.values_mut() {
                    s.bearers.retain(|(_, b)| {
                        let dead = topo
                            .local_for_server(b.rule.server_addr)
                            .is_some_and(|g| g.addr == gwu_addr);
                        flushed += u64::from(dead && b.live);
                        !dead
                    });
                }
                self.gwu_flush_released += flushed;
                self.dedicated_released += flushed;
                self.dedicated_active = self.dedicated_active.saturating_sub(flushed);
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
                let s = &self.sessions[&imsi];
                // Rewrite the SGW-U downlink leg toward the target eNB
                // (the SGW's paging buffer absorbs the del→add window).
                if let Some(teid) = s.enb_teid {
                    let dl = FlowMatchSpec::teid(s.teid_sgw_dl);
                    self.del(ctx, gwc_port::SGW_U, self.topo.sgw_u, dl);
                    self.sgw_downlink(ctx, s.teid_sgw_dl, enb_addr, teid);
                }
                // `ByEbi` iterates in EBI order, so the FlowMod sequence
                // is deterministic by construction.
                let mut released = Vec::new();
                for (ebi, b) in s.bearers.iter().filter(|(_, b)| b.live) {
                    let target_teid = enb_teids.iter().find(|(e, _)| e.0 == *ebi);
                    // The bearer anchors on the GW-U owning its MEC
                    // server; whether the target eNB keeps the local path
                    // is a per-site question in a multi-region topology.
                    let gw = self.topo.anchor(&b.rule);
                    let ue = FlowMatchSpec::dst(s.ue_addr);
                    match target_teid.filter(|_| gw.serves_enb(enb_addr)) {
                        // Relocate: point the local GW-U downlink rule at
                        // the target eNB's port and TEID.
                        Some(&(_, teid)) => {
                            self.del(ctx, gw.ctrl_port, gw.addr, ue);
                            self.local_downlink(ctx, gw, s.ue_addr, b.rule.qci, enb_addr, teid);
                            self.dedicated_reanchored += 1;
                        }
                        // Fall back: tear the local rules down and release
                        // the bearer; traffic rides the default bearer.
                        None => {
                            self.del(ctx, gw.ctrl_port, gw.addr, FlowMatchSpec::teid(b.teid));
                            self.del(ctx, gw.ctrl_port, gw.addr, ue);
                            released.push(Ebi(*ebi));
                        }
                    }
                }
                let n = released.len() as u64;
                self.dedicated_released += n;
                self.dedicated_active = self.dedicated_active.saturating_sub(n);
                let s = self.sessions.get_mut(&imsi).expect("session exists");
                s.bearers.retain(|(ebi, _)| !released.contains(&Ebi(*ebi)));
                let m = BearerRelocationResponse {
                    imsi,
                    erabs: vec![],
                    released,
                };
                self.to_mme(ctx, UNSPECIFIED, m);
            }
            _ => {}
        }
    }
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
    /// under a taken EBI replaces the value, as a map's would; the first
    /// vacant EBI skips the held ones; emptied, it holds no allocation.
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
        assert_eq!(
            (t.vacant_from(5), t.vacant_from(7), t.vacant_from(9)),
            (6, 8, 10)
        );
        assert_eq!(t.remove_if(7, |&v| v == 'a'), None);
        assert_eq!(t.remove_if(7, |_| true), Some('d'));
        assert_eq!(t.remove_if(7, |_| true), None);
        *t.get_mut(9).unwrap() = 'e';
        t.retain(|&(_, v)| v != 'e');
        assert_eq!(t.values().collect::<Vec<_>>(), [&'b']);
        assert_eq!(t.remove_if(5, |_| true), Some('b'));
        assert_eq!((t.0.len(), t.0.capacity()), (0, 0));
    }
}
