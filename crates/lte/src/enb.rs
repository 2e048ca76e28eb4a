//! The eNodeB: radio ↔ S1-U forwarding with GTP encapsulation, S1AP
//! signalling toward the MME, and a priority-scheduled downlink.
//!
//! ACACIA requires **no eNB modifications**: the eNB just follows the
//! standard Bearer Setup Request, which (in ACACIA) carries the *local*
//! SGW-U address for dedicated MEC bearers — so MEC traffic leaves on a
//! different S1 port without the eNB knowing anything about MEC (paper
//! §5.4 step 3).

use crate::ids::{Ebi, Imsi, Teid};
use crate::log::MsgLog;
use crate::qci::Qci;
use crate::radio::{self, port, RadioPayload, RadioScheduler};
use crate::wire::{ControlMsg, ErabSetup};
use crate::{gtpu, tft::Tft};
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId, TimerHandle};
use acacia_simnet::time::Duration;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-bearer forwarding state at the eNB.
#[derive(Debug, Clone)]
pub struct EnbBearer {
    /// Owner.
    pub imsi: Imsi,
    /// Bearer id.
    pub ebi: Ebi,
    /// QoS class (drives downlink scheduling priority).
    pub qci: Qci,
    /// Uplink tunnel: GW-U address + TEID.
    pub gw_addr: Ipv4Addr,
    /// Uplink TEID at the GW-U.
    pub gw_teid: Teid,
    /// Downlink TEID terminating here.
    pub enb_teid: Teid,
    /// TFT to push to the UE.
    pub tft: Tft,
    /// Is the S1 leg currently active (false while RRC-idle)?
    pub active: bool,
}

/// A UE known to this eNB.
#[derive(Debug, Clone)]
struct UeEntry {
    imsi: Imsi,
    radio_addr: Ipv4Addr,
    radio_port: PortId,
    ue_addr: Option<Ipv4Addr>,
    /// Last user-plane activity (for the inactivity timer).
    last_activity: acacia_simnet::time::Instant,
    /// Is an automatic idle-check timer armed?
    idle_check_armed: bool,
}

/// Rows of the UE table by key, kept sorted by key. The simulator
/// registers subscribers in IMSI and radio-address order, so an insert is
/// a push: no hashing, and 8–16 B per UE.
#[derive(Debug)]
struct RowIndex<K>(Vec<(K, u32)>);

impl<K> Default for RowIndex<K> {
    fn default() -> Self {
        RowIndex(Vec::new())
    }
}

impl<K: Ord + Copy> RowIndex<K> {
    /// Index `row` under `key`, unless `key` already has a row.
    fn insert(&mut self, key: K, row: usize) {
        let row = u32::try_from(row).expect("fewer than 2^32 UEs per eNB");
        match self.0.last() {
            Some(&(last, _)) if last >= key => {
                if let Err(at) = self.0.binary_search_by_key(&key, |&(k, _)| k) {
                    self.0.insert(at, (key, row));
                }
            }
            _ => self.0.push((key, row)),
        }
    }

    fn get(&self, key: K) -> Option<usize> {
        let at = self.0.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(self.0[at].1 as usize)
    }
}

/// An X2 neighbour of this eNB.
#[derive(Debug, Clone, Copy)]
struct X2Peer {
    /// Radio-side address of the neighbour (what measurement reports name).
    radio_addr: Ipv4Addr,
    /// S1/X2 control address of the neighbour.
    enb_addr: Ipv4Addr,
    /// Local port the X2 link is attached to.
    port: PortId,
}

/// A request retransmitted under a guard timer until it is answered or
/// [`HO_MAX_ATTEMPTS`] transmissions go unanswered.
#[derive(Debug)]
struct Retry {
    /// Transmissions so far.
    attempts: u32,
    /// The guard armed for the latest transmission.
    timer: TimerHandle,
    /// The request as sent, kept verbatim for retransmission.
    request: Box<ControlMsg>,
}

impl Retry {
    /// The first transmission of `request`, guarded for `after`.
    fn arm(ctx: &mut Ctx<'_>, guard: u64, after: Duration, request: &ControlMsg) -> Retry {
        Retry {
            attempts: 1,
            timer: ctx.schedule_in_cancellable(after, guard),
            request: Box::new(request.clone()),
        }
    }

    /// The guard fired: re-arm it and return the request to send again,
    /// or `None` once every transmission went unanswered.
    fn again(&mut self, ctx: &mut Ctx<'_>, guard: u64, after: Duration) -> Option<ControlMsg> {
        if self.attempts >= HO_MAX_ATTEMPTS {
            return None;
        }
        self.attempts += 1;
        self.timer = ctx.schedule_in_cancellable(after, guard);
        Some((*self.request).clone())
    }
}

/// Source-side handover progress for one UE.
#[derive(Debug)]
enum HoPhase {
    /// Handover Request sent; waiting for the target's Ack.
    Preparing {
        /// X2 port toward the target.
        port: PortId,
        /// Radio address of the target cell (for the RRC command).
        target_radio: Ipv4Addr,
        /// Control address of the target eNB (retransmission destination).
        peer_addr: Ipv4Addr,
        /// Procedure transaction id carried by the Handover Request.
        txid: u32,
        /// The Handover Request under its preparation guard.
        retry: Retry,
    },
    /// UE commanded to the target; downlink data is forwarded over X2
    /// until the target signals UE Context Release.
    Forwarding {
        /// X2 port toward the target.
        port: PortId,
        /// Target eNB control address (GTP-U outer destination).
        peer: Ipv4Addr,
        /// Per-bearer forwarding TEIDs allocated by the target.
        teids: Vec<(Ebi, Teid)>,
        /// Overall guard: fires if the target never signals UE Context
        /// Release.
        timer: TimerHandle,
    },
}

impl HoPhase {
    /// The guard armed for this phase.
    fn timer(&self) -> TimerHandle {
        match self {
            HoPhase::Preparing { retry, .. } => retry.timer,
            HoPhase::Forwarding { timer, .. } => *timer,
        }
    }
}

/// Target-side state of one incoming handover, kept until the Path Switch
/// completes (or falls back).
#[derive(Debug)]
struct HoInCtx {
    /// X2 port toward the source eNB.
    x2_port: PortId,
    /// Source eNB control address.
    src_addr: Ipv4Addr,
    /// Transaction id of the admitting Handover Request: duplicates are
    /// re-acked with the same E-RABs instead of re-admitted.
    ho_txid: u32,
    /// E-RABs admitted for this handover (echoed on duplicate requests).
    admitted: Vec<(Ebi, Teid)>,
    /// The Path Switch Request under its guard, once the UE has arrived.
    ps: Option<Retry>,
}

/// Timer tokens understood by the eNB.
pub mod token {
    /// Downlink radio scheduler release.
    pub const DL_RELEASE: u64 = 1;
    /// Declare UE `token - IDLE_BASE` idle and start the release procedure
    /// (the paper's 11.576 s inactivity event, triggered by the harness).
    pub const IDLE_BASE: u64 = 1000;
    /// Automatic inactivity check for UE `token - IDLE_CHECK_BASE`.
    pub const IDLE_CHECK_BASE: u64 = 2000;
    /// Handover guards: `HO_GUARD_BASE + 2 × IMSI` supervises the UE's
    /// source-side procedure (preparation, then forwarding) and `+ 1` its
    /// target-side Path Switch. Re-arming a guard or ending its procedure
    /// cancels the timer, so a guard that fires is live.
    pub const HO_GUARD_BASE: u64 = 1 << 32;
}

/// The guard token of `imsi`'s source-side handover.
fn source_guard(imsi: Imsi) -> u64 {
    token::HO_GUARD_BASE + 2 * imsi.0
}

/// The guard token of `imsi`'s target-side Path Switch.
fn target_guard(imsi: Imsi) -> u64 {
    source_guard(imsi) + 1
}

/// Guard before retransmitting an unanswered X2 Handover Request (the
/// TX2RELOCprep analogue; see DESIGN.md's substitution ledger).
const X2_PREP_GUARD: Duration = Duration::from_millis(60);
/// Guard on the forwarding phase: if the target never signals UE Context
/// Release, the source gives up and releases locally (TX2RELOCoverall
/// analogue).
const HO_OVERALL_GUARD: Duration = Duration::from_millis(1500);
/// Guard before retransmitting an unanswered Path Switch Request.
const PATH_SWITCH_GUARD: Duration = Duration::from_millis(120);
/// Transmissions of X2 Handover Request / Path Switch Request before the
/// procedure is abandoned (cancel / core-detour fallback).
const HO_MAX_ATTEMPTS: u32 = 3;

/// The eNB node.
pub struct Enb {
    /// Control/S1 address of this eNB.
    pub addr: Ipv4Addr,
    /// MME address.
    pub mme_addr: Ipv4Addr,
    /// Known S1-U gateway addresses and their output ports (core SGW-U
    /// and local MEC GW-U).
    s1_ports: Vec<(Ipv4Addr, PortId)>,
    /// Registered UEs, append-only: the UE in row `i` has radio port
    /// `ENB_RADIO_BASE + i`.
    ues: Vec<UeEntry>,
    /// Row of each IMSI in `ues` (its first registration).
    ue_rows: RowIndex<Imsi>,
    /// Row of each radio address in `ues` (its first registration).
    radio_rows: RowIndex<Ipv4Addr>,
    bearers: Vec<EnbBearer>,
    next_teid: u32,
    dl: RadioScheduler,
    /// Automatic inactivity release: after this much user-plane silence the
    /// eNB starts the UE-context release (the paper's 11.576 s timer).
    /// `None` disables the mechanism (procedures driven by the harness).
    pub auto_idle: Option<acacia_simnet::time::Duration>,
    log: MsgLog,
    /// X2 neighbours (peer cells).
    x2_peers: Vec<X2Peer>,
    /// Outgoing handovers in progress, keyed by UE.
    ho: BTreeMap<Imsi, HoPhase>,
    /// Incoming handovers awaiting Path Switch completion.
    ho_in: BTreeMap<Imsi, HoInCtx>,
    /// Next procedure transaction id.
    next_txid: u32,
    /// Uplink user packets forwarded onto S1.
    pub ul_forwarded: u64,
    /// Downlink user frames scheduled to UEs.
    pub dl_forwarded: u64,
    /// Packets dropped for missing bearer state.
    pub no_bearer: u64,
    /// Handovers completed with this eNB as source.
    pub ho_out_done: u64,
    /// Handovers completed with this eNB as target.
    pub ho_in_done: u64,
    /// Downlink packets forwarded over X2 during handover execution.
    pub x2_forwarded: u64,
    /// X2 Handover Requests retransmitted after a guard expiry (source).
    pub ho_retx: u64,
    /// Handovers cancelled after exhausting Handover Request attempts
    /// (source side; the UE stays on this cell).
    pub ho_cancelled: u64,
    /// Incoming handovers torn down by an X2 Handover Cancel (target).
    pub ho_in_cancelled: u64,
    /// Forwarding phases expired by the overall guard (lost UE Context
    /// Release): the source released the UE context locally.
    pub ho_out_expired: u64,
    /// Path Switch Requests retransmitted after a guard expiry (target).
    pub ps_retx: u64,
    /// Path Switch procedures abandoned after exhausting attempts: the UE
    /// was released to re-enter via a core-routed service request.
    pub ps_fallback: u64,
    /// RRC re-establishment requests served (target side).
    pub reest_in: u64,
}

// One per cell; its guard timers are constants, not a per-eNB copy.
const _: () = assert!(std::mem::size_of::<Enb>() <= 408);

impl Enb {
    /// New eNB.
    pub(crate) fn new(addr: Ipv4Addr, mme_addr: Ipv4Addr, log: MsgLog) -> Enb {
        Enb {
            addr,
            mme_addr,
            s1_ports: Vec::new(),
            ues: Vec::new(),
            ue_rows: RowIndex::default(),
            radio_rows: RowIndex::default(),
            bearers: Vec::new(),
            next_teid: 0x3000,
            dl: RadioScheduler::new(radio::params::DL_RATE),
            auto_idle: None,
            log,
            x2_peers: Vec::new(),
            ho: BTreeMap::new(),
            ho_in: BTreeMap::new(),
            next_txid: 1,
            ul_forwarded: 0,
            dl_forwarded: 0,
            no_bearer: 0,
            ho_out_done: 0,
            ho_in_done: 0,
            x2_forwarded: 0,
            ho_retx: 0,
            ho_cancelled: 0,
            ho_in_cancelled: 0,
            ho_out_expired: 0,
            ps_retx: 0,
            ps_fallback: 0,
            reest_in: 0,
        }
    }

    /// Register an X2 neighbour cell reachable via `port`. Measurement
    /// reports identify targets by their radio address.
    pub(crate) fn add_x2_neighbor(
        &mut self,
        radio_addr: Ipv4Addr,
        enb_addr: Ipv4Addr,
        port: PortId,
    ) {
        self.x2_peers.push(X2Peer {
            radio_addr,
            enb_addr,
            port,
        });
    }

    /// Register a UE served by this eNB; returns its radio port.
    pub(crate) fn add_ue(&mut self, imsi: Imsi, radio_addr: Ipv4Addr) -> PortId {
        let row = self.ues.len();
        let radio_port = port::ENB_RADIO_BASE + row;
        self.ue_rows.insert(imsi, row);
        self.radio_rows.insert(radio_addr, row);
        self.ues.push(UeEntry {
            imsi,
            radio_addr,
            radio_port,
            ue_addr: None,
            last_activity: acacia_simnet::time::Instant::ZERO,
            idle_check_armed: false,
        });
        radio_port
    }

    /// Register an S1-U gateway reachable via `out_port`.
    pub(crate) fn add_s1_gateway(&mut self, gw_addr: Ipv4Addr, out_port: PortId) {
        self.s1_ports.retain(|&(addr, _)| addr != gw_addr);
        self.s1_ports.push((gw_addr, out_port));
    }

    /// Handover procedures still open at this eNB (source + target side).
    /// A drained simulation must end with zero everywhere — anything else
    /// is a wedged UE.
    pub fn outstanding_handovers(&self) -> usize {
        self.ho.len() + self.ho_in.len()
    }

    fn alloc_txid(&mut self) -> u32 {
        let t = self.next_txid;
        self.next_txid += 1;
        t
    }

    fn ue_by_radio_port(&self, p: PortId) -> Option<&UeEntry> {
        self.ues.get(p.checked_sub(port::ENB_RADIO_BASE)?)
    }

    fn ue_row(&self, imsi: Imsi) -> Option<usize> {
        self.ue_rows.get(imsi)
    }

    fn ue_by_imsi(&self, imsi: Imsi) -> Option<&UeEntry> {
        self.ue_row(imsi).map(|row| &self.ues[row])
    }

    fn ue_by_radio_addr(&self, addr: Ipv4Addr) -> Option<&UeEntry> {
        self.radio_rows.get(addr).map(|row| &self.ues[row])
    }

    fn alloc_teid(&mut self) -> Teid {
        let t = Teid(self.next_teid);
        self.next_teid += 1;
        t
    }

    fn send_s1ap(&self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        self.log
            .send(ctx, port::ENB_S1AP, self.addr, self.mme_addr, msg);
    }

    fn send_x2(&self, ctx: &mut Ctx<'_>, x2_port: PortId, peer: Ipv4Addr, msg: ControlMsg) {
        self.log.send(ctx, x2_port, self.addr, peer, msg);
    }

    fn send_rrc(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi, msg: ControlMsg) {
        let Some(ue) = self.ue_by_imsi(imsi) else {
            return;
        };
        let (radio_port, radio_addr) = (ue.radio_port, ue.radio_addr);
        self.log.record(ctx.now(), &msg);
        let frame = radio::rrc_frame(&msg, self.addr, radio_addr);
        // Control frames bypass the data scheduler (SRBs have absolute
        // priority); model as direct send.
        ctx.send(radio_port, frame);
    }

    fn handle_radio(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        let Some(ue) = self.ue_by_radio_port(in_port) else {
            return;
        };
        let imsi = ue.imsi;
        match radio::parse_frame(&pkt) {
            Some(RadioPayload::Rrc(msg)) => {
                self.log.record(ctx.now(), &msg); // UE-originated RRC
                match msg {
                    ControlMsg::RrcAttachRequest { .. } => {
                        self.send_s1ap(ctx, ControlMsg::InitialUeAttach { imsi });
                    }
                    ControlMsg::RrcServiceRequest { .. } => {
                        self.send_s1ap(ctx, ControlMsg::InitialUeServiceRequest { imsi });
                    }
                    ControlMsg::RrcMeasurementReport { target_radio, .. } => {
                        self.start_handover(ctx, imsi, target_radio);
                    }
                    ControlMsg::RrcHandoverConfirm { .. } if self.ho_in.contains_key(&imsi) => {
                        // Target side: the UE has arrived on our radio;
                        // switch its S1 path toward us.
                        self.ue_arrived(ctx, imsi);
                    }
                    ControlMsg::RrcReestablishmentRequest { .. } => {
                        self.handle_reestablishment(ctx, imsi);
                    }
                    _ => {}
                }
            }
            Some(RadioPayload::Data { ebi, inner }) => {
                self.touch_activity(ctx, imsi);
                let Some(bearer) = self
                    .bearers
                    .iter()
                    .find(|b| b.imsi == imsi && b.ebi == ebi && b.active)
                else {
                    self.no_bearer += 1;
                    return;
                };
                let Some(&(_, out_port)) =
                    self.s1_ports.iter().find(|&&(a, _)| a == bearer.gw_addr)
                else {
                    self.no_bearer += 1;
                    return;
                };
                let outer = gtpu::encapsulate(&inner, bearer.gw_teid, self.addr, bearer.gw_addr);
                self.ul_forwarded += 1;
                ctx.send(out_port, outer);
            }
            None => {}
        }
    }

    /// Source-side handover admission: a measurement report arrived for a
    /// known X2 neighbour. Sends the X2 Handover Request carrying every
    /// active bearer context (standard X2AP — the eNB needs no knowledge
    /// of which gateway is "local").
    fn start_handover(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi, target_radio: Ipv4Addr) {
        if self.ho.contains_key(&imsi) {
            return; // one handover at a time per UE
        }
        let Some(peer) = self
            .x2_peers
            .iter()
            .find(|p| p.radio_addr == target_radio)
            .copied()
        else {
            return; // unknown neighbour: ignore the report
        };
        let ue_addr = self.ue_by_imsi(imsi).and_then(|u| u.ue_addr);
        let bearers: Vec<ErabSetup> = self
            .bearers
            .iter()
            .filter(|b| b.imsi == imsi && b.active)
            .map(|b| ErabSetup {
                ebi: b.ebi,
                qci: b.qci,
                gw_addr: b.gw_addr,
                gw_teid: b.gw_teid,
                tft: b.tft.clone(),
            })
            .collect();
        if bearers.is_empty() {
            return; // nothing to hand over
        }
        let txid = self.alloc_txid();
        let request = ControlMsg::X2HandoverRequest {
            imsi,
            ue_addr,
            bearers,
            txid,
        };
        let retry = Retry::arm(ctx, source_guard(imsi), X2_PREP_GUARD, &request);
        self.ho.insert(
            imsi,
            HoPhase::Preparing {
                port: peer.port,
                target_radio,
                peer_addr: peer.enb_addr,
                txid,
                retry,
            },
        );
        self.send_x2(ctx, peer.port, peer.enb_addr, request);
    }

    /// Target side: the UE is on our radio (Handover Confirm or RRC
    /// re-establishment). Start the Path Switch procedure — or keep the
    /// one already running if this is a duplicate arrival.
    fn ue_arrived(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        if self.ho_in.get(&imsi).is_none_or(|h| h.ps.is_some()) {
            return; // not admitted, or a duplicate arrival: already running
        }
        let erabs: Vec<(Ebi, Teid)> = self
            .bearers
            .iter()
            .filter(|b| b.imsi == imsi && b.active)
            .map(|b| (b.ebi, b.enb_teid))
            .collect();
        let txid = self.alloc_txid();
        let request = ControlMsg::PathSwitchRequest {
            imsi,
            enb_addr: self.addr,
            erabs,
            txid,
        };
        let retry = Retry::arm(ctx, target_guard(imsi), PATH_SWITCH_GUARD, &request);
        self.ho_in.get_mut(&imsi).expect("admitted above").ps = Some(retry);
        self.send_s1ap(ctx, request);
    }

    /// An RRC re-establishment request arrived on our radio: the UE lost
    /// its serving cell mid-procedure (e.g. the Handover Command never
    /// made it) and picked us. Resume whatever context we hold.
    fn handle_reestablishment(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        self.reest_in += 1;
        if self.ho_in.contains_key(&imsi) {
            // Admitted over X2 but never confirmed: treat the
            // re-establishment as the arrival and run the Path Switch.
            self.send_rrc(ctx, imsi, ControlMsg::RrcReestablishmentConfirm { imsi });
            self.ue_arrived(ctx, imsi);
        } else if self.bearers.iter().any(|b| b.imsi == imsi && b.active) {
            // Context already live here (duplicate request): just confirm.
            self.send_rrc(ctx, imsi, ControlMsg::RrcReestablishmentConfirm { imsi });
        } else {
            // Nothing to resume: release the UE; its buffered traffic
            // re-enters through the standard service request.
            self.send_rrc(ctx, imsi, ControlMsg::RrcRelease { imsi });
        }
    }

    /// Path Switch gave up (every retransmission lost): fall back to the
    /// core path. The old cell is told to release, dedicated bearers are
    /// dropped (the core still anchors them at the old cell), and the UE
    /// is pushed to idle so a service request re-anchors its default
    /// bearer here through the MME.
    fn path_switch_fallback(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi, hin: HoInCtx) {
        self.ps_fallback += 1;
        self.send_x2(
            ctx,
            hin.x2_port,
            hin.src_addr,
            ControlMsg::X2UeContextRelease { imsi },
        );
        let dedicated: Vec<Ebi> = self
            .bearers
            .iter()
            .filter(|b| b.imsi == imsi && b.ebi != Ebi::DEFAULT)
            .map(|b| b.ebi)
            .collect();
        for ebi in dedicated {
            self.bearers.retain(|b| !(b.imsi == imsi && b.ebi == ebi));
            self.send_rrc(ctx, imsi, ControlMsg::RrcBearerRelease { ebi });
        }
        for b in self.bearers.iter_mut().filter(|b| b.imsi == imsi) {
            b.active = false;
        }
        self.send_rrc(ctx, imsi, ControlMsg::RrcRelease { imsi });
    }

    fn handle_x2(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        if gtpu::is_gtpu(&pkt) {
            // Forwarded downlink data from the source cell; our bearer
            // TEIDs were installed at Handover Request time.
            self.handle_s1u(ctx, pkt);
            return;
        }
        let Some(msg) = ControlMsg::from_packet(&pkt) else {
            return;
        };
        match msg {
            // Target side: admit the UE and install its bearers. No RRC
            // toward the UE — it keeps its bearer/TFT configuration across
            // the handover (only the serving cell changes).
            ControlMsg::X2HandoverRequest {
                imsi,
                ue_addr,
                bearers,
                txid,
            } => {
                if let Some(hin) = self.ho_in.get(&imsi) {
                    if hin.ho_txid == txid {
                        // Duplicate (or retransmitted) request for an
                        // admission we already answered: re-ack the same
                        // E-RABs instead of allocating fresh TEIDs.
                        let erabs = hin.admitted.clone();
                        self.send_x2(
                            ctx,
                            in_port,
                            pkt.src,
                            ControlMsg::X2HandoverRequestAck { imsi, erabs, txid },
                        );
                        return;
                    }
                    // A different transaction supersedes the stale
                    // admission (the source cancelled and retried), and
                    // any Path Switch it started; fall through to a
                    // fresh one.
                    if let Some(ps) = &hin.ps {
                        ctx.cancel_timer(ps.timer);
                    }
                }
                if let (Some(addr), Some(row)) = (ue_addr, self.ue_row(imsi)) {
                    self.ues[row].ue_addr = Some(addr);
                }
                let mut erabs = Vec::new();
                for erab in &bearers {
                    let enb_teid = self.setup_erab(erab, imsi);
                    erabs.push((erab.ebi, enb_teid));
                }
                self.ho_in.insert(
                    imsi,
                    HoInCtx {
                        x2_port: in_port,
                        src_addr: pkt.src,
                        ho_txid: txid,
                        admitted: erabs.clone(),
                        ps: None,
                    },
                );
                self.send_x2(
                    ctx,
                    in_port,
                    pkt.src,
                    ControlMsg::X2HandoverRequestAck { imsi, erabs, txid },
                );
            }
            // Source side: target is ready. Freeze the UE's downlink onto
            // the X2 forwarding tunnel and command the UE over.
            ControlMsg::X2HandoverRequestAck { imsi, erabs, txid } => {
                let Some(HoPhase::Preparing {
                    port,
                    target_radio,
                    txid: want,
                    retry,
                    ..
                }) = self.ho.get(&imsi)
                else {
                    return;
                };
                if txid != *want {
                    return; // stale ack of a superseded attempt
                }
                let (port, target_radio) = (*port, *target_radio);
                // Preparation succeeded: retire its guard.
                ctx.cancel_timer(retry.timer);
                self.send_x2(
                    ctx,
                    port,
                    pkt.src,
                    ControlMsg::X2SnStatusTransfer {
                        imsi,
                        dl_count: self.dl_forwarded as u32,
                        ul_count: self.ul_forwarded as u32,
                    },
                );
                let timer = ctx.schedule_in_cancellable(HO_OVERALL_GUARD, source_guard(imsi));
                self.ho.insert(
                    imsi,
                    HoPhase::Forwarding {
                        port,
                        peer: pkt.src,
                        teids: erabs,
                        timer,
                    },
                );
                self.send_rrc(
                    ctx,
                    imsi,
                    ControlMsg::RrcHandoverCommand { imsi, target_radio },
                );
            }
            // Target side: the source gave up on an admission we granted.
            // Honoured only while the UE has not arrived — a cancel racing
            // a successful arrival loses.
            ControlMsg::X2HandoverCancel { imsi, txid } => {
                let live = |h: &HoInCtx| h.ho_txid == txid && h.ps.is_none();
                if !self.ho_in.get(&imsi).is_some_and(live) {
                    return;
                }
                let admitted = self.ho_in.remove(&imsi).expect("checked above").admitted;
                self.bearers.retain(|b| {
                    !(b.imsi == imsi && admitted.iter().any(|&(_, t)| t == b.enb_teid))
                });
                self.ho_in_cancelled += 1;
            }
            // Target side: PDCP sequence state from the source. The data
            // path here is packet-based, so the counts are informational.
            ControlMsg::X2SnStatusTransfer { .. } => {}
            // Source side: the path switch completed; drop the UE context
            // and stop forwarding.
            ControlMsg::X2UeContextRelease { imsi } => {
                if let Some(phase) = self.ho.remove(&imsi) {
                    ctx.cancel_timer(phase.timer());
                }
                self.bearers.retain(|b| b.imsi != imsi);
                self.ho_out_done += 1;
            }
            _ => {}
        }
    }

    fn handle_s1u(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Some((teid, inner)) = gtpu::decapsulate(&pkt) else {
            return;
        };
        let Some(bearer) = self.bearer_by_teid(teid) else {
            self.no_bearer += 1;
            return;
        };
        let (imsi, ebi, prio) = (
            bearer.imsi,
            bearer.ebi,
            radio::sched_priority(bearer.qci.tos()),
        );
        self.touch_activity(ctx, imsi);
        // During handover execution the UE is tuning to the target cell:
        // forward its downlink over X2 instead of the (dead) radio leg.
        if let Some(HoPhase::Forwarding {
            port, peer, teids, ..
        }) = self.ho.get(&imsi)
        {
            if let Some(&(_, fwd_teid)) = teids.iter().find(|&&(e, _)| e == ebi) {
                let (port, peer) = (*port, *peer);
                let outer = gtpu::encapsulate(&inner, fwd_teid, self.addr, peer);
                self.x2_forwarded += 1;
                ctx.send(port, outer);
                return;
            }
        }
        let Some(ue) = self.ue_by_imsi(imsi) else {
            return;
        };
        let frame = radio::data_frame(ebi, &inner, self.addr, ue.radio_addr);
        self.dl_forwarded += 1;
        self.dl.offer(ctx, prio, frame, token::DL_RELEASE);
    }

    /// Record user-plane activity and (re)arm the inactivity timer.
    fn touch_activity(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(timeout) = self.auto_idle else {
            return;
        };
        let Some(idx) = self.ue_row(imsi) else {
            return;
        };
        self.ues[idx].last_activity = ctx.now();
        if !self.ues[idx].idle_check_armed {
            self.ues[idx].idle_check_armed = true;
            ctx.schedule_in(timeout, token::IDLE_CHECK_BASE + idx as u64);
        }
    }

    /// The live bearer whose S1-U tunnel ends here at `teid`. `bearers`
    /// is sorted by TEID: each is pushed with a fresh, larger TEID and
    /// only `retain` removes any.
    fn bearer_by_teid(&self, teid: Teid) -> Option<&EnbBearer> {
        let i = self
            .bearers
            .binary_search_by_key(&teid, |b| b.enb_teid)
            .ok()?;
        Some(&self.bearers[i])
    }

    fn setup_erab(&mut self, erab: &ErabSetup, imsi: Imsi) -> Teid {
        let enb_teid = self.alloc_teid();
        // Replace any stale state for the same (imsi, ebi).
        self.bearers
            .retain(|b| !(b.imsi == imsi && b.ebi == erab.ebi));
        debug_assert!(self.bearers.last().is_none_or(|b| b.enb_teid < enb_teid));
        self.bearers.push(EnbBearer {
            imsi,
            ebi: erab.ebi,
            qci: erab.qci,
            gw_addr: erab.gw_addr,
            gw_teid: erab.gw_teid,
            enb_teid,
            tft: erab.tft.clone(),
            active: true,
        });
        enb_teid
    }

    /// A handover guard fired: its procedure is live, so act on it. An
    /// unanswered request is sent again until its attempts run out; then
    /// the source cancels the preparation, and the target falls back to
    /// the core path. A forwarding phase that never closed (lost UE
    /// Context Release) releases the old context locally.
    fn on_ho_guard(&mut self, ctx: &mut Ctx<'_>, guard: u64) {
        let imsi = Imsi((guard - token::HO_GUARD_BASE) / 2);
        if guard == target_guard(imsi) {
            let ps = self.ho_in.get_mut(&imsi).and_then(|h| h.ps.as_mut());
            let ps = ps.unwrap_or_else(|| panic!("{imsi}: Path Switch guard with no Path Switch"));
            if let Some(request) = ps.again(ctx, guard, PATH_SWITCH_GUARD) {
                self.ps_retx += 1;
                self.send_s1ap(ctx, request);
            } else {
                let hin = self.ho_in.remove(&imsi).expect("held above");
                self.path_switch_fallback(ctx, imsi, hin);
            }
            return;
        }
        let phase = self.ho.get_mut(&imsi);
        let phase = phase.unwrap_or_else(|| panic!("{imsi}: handover guard with no handover"));
        match phase {
            HoPhase::Preparing {
                port,
                peer_addr,
                txid,
                retry,
                ..
            } => {
                let (port, peer_addr, txid) = (*port, *peer_addr, *txid);
                if let Some(request) = retry.again(ctx, guard, X2_PREP_GUARD) {
                    self.ho_retx += 1;
                    self.send_x2(ctx, port, peer_addr, request);
                } else {
                    // TX2RELOCprep analogue expired: cancel. The UE never
                    // left this cell; measurement may retrigger the
                    // handover later.
                    self.ho.remove(&imsi);
                    self.ho_cancelled += 1;
                    let cancel = ControlMsg::X2HandoverCancel { imsi, txid };
                    self.send_x2(ctx, port, peer_addr, cancel);
                }
            }
            HoPhase::Forwarding { .. } => {
                self.ho.remove(&imsi);
                self.bearers.retain(|b| b.imsi != imsi);
                self.ho_out_expired += 1;
            }
        }
    }

    fn handle_s1ap(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Some(msg) = ControlMsg::from_packet(&pkt) else {
            return;
        };
        match msg {
            ControlMsg::InitialContextSetupRequest { imsi, erabs } => {
                let mut enb_teids = Vec::new();
                if erabs.is_empty() {
                    // Service-request restoration: reactivate stored
                    // bearers and report their (fresh) TEIDs.
                    let stored: Vec<(Ebi, Teid)> = self
                        .bearers
                        .iter_mut()
                        .filter(|b| b.imsi == imsi)
                        .map(|b| {
                            b.active = true;
                            (b.ebi, b.enb_teid)
                        })
                        .collect();
                    enb_teids = stored;
                } else {
                    for erab in &erabs {
                        let teid = self.setup_erab(erab, imsi);
                        enb_teids.push((erab.ebi, teid));
                    }
                }
                self.send_s1ap(
                    ctx,
                    ControlMsg::InitialContextSetupResponse { imsi, enb_teids },
                );
            }
            ControlMsg::DownlinkNasAccept { imsi, ue_addr } => {
                if let (Some(addr), Some(row)) = (ue_addr, self.ue_row(imsi)) {
                    self.ues[row].ue_addr = Some(addr);
                }
                // Push (or refresh) RRC configuration for every active
                // bearer of this UE.
                let ue_addr = self.ue_by_imsi(imsi).and_then(|u| u.ue_addr);
                let configs: Vec<(Ebi, Qci, Tft)> = self
                    .bearers
                    .iter()
                    .filter(|b| b.imsi == imsi && b.active)
                    .map(|b| (b.ebi, b.qci, b.tft.clone()))
                    .collect();
                for (ebi, qci, tft) in configs {
                    self.send_rrc(
                        ctx,
                        imsi,
                        ControlMsg::RrcReconfiguration {
                            ebi,
                            qci,
                            tft,
                            ue_addr,
                        },
                    );
                }
            }
            ControlMsg::ErabSetupRequest { imsi, erab } => {
                let enb_teid = self.setup_erab(&erab, imsi);
                self.send_rrc(
                    ctx,
                    imsi,
                    ControlMsg::RrcReconfiguration {
                        ebi: erab.ebi,
                        qci: erab.qci,
                        tft: erab.tft.clone(),
                        ue_addr: None,
                    },
                );
                self.send_s1ap(
                    ctx,
                    ControlMsg::ErabSetupResponse {
                        imsi,
                        ebi: erab.ebi,
                        enb_teid,
                    },
                );
            }
            ControlMsg::ErabReleaseCommand { imsi, ebi } => {
                self.bearers.retain(|b| !(b.imsi == imsi && b.ebi == ebi));
                self.send_rrc(ctx, imsi, ControlMsg::RrcBearerRelease { ebi });
                self.send_s1ap(ctx, ControlMsg::ErabReleaseResponse { imsi, ebi });
            }
            ControlMsg::Paging { imsi } => {
                self.send_rrc(ctx, imsi, ControlMsg::RrcPaging { imsi });
            }
            ControlMsg::UeContextReleaseCommand { imsi } => {
                for b in self.bearers.iter_mut().filter(|b| b.imsi == imsi) {
                    b.active = false;
                }
                self.send_rrc(ctx, imsi, ControlMsg::RrcRelease { imsi });
                self.send_s1ap(ctx, ControlMsg::UeContextReleaseComplete { imsi });
            }
            // Target side: the core has re-anchored the S1 legs on us.
            // Adopt any updated uplink F-TEIDs and tell the source to
            // release the old UE context.
            ControlMsg::PathSwitchRequestAck { imsi, erabs } => {
                for erab in &erabs {
                    if let Some(b) = self
                        .bearers
                        .iter_mut()
                        .find(|b| b.imsi == imsi && b.ebi == erab.ebi)
                    {
                        b.gw_addr = erab.gw_addr;
                        b.gw_teid = erab.gw_teid;
                    }
                }
                // Idempotent: a duplicate Ack after the context is gone
                // (or after a fallback already released it) is ignored.
                if let Some(hin) = self.ho_in.remove(&imsi) {
                    if let Some(ps) = &hin.ps {
                        ctx.cancel_timer(ps.timer);
                    }
                    self.ho_in_done += 1;
                    self.send_x2(
                        ctx,
                        hin.x2_port,
                        hin.src_addr,
                        ControlMsg::X2UeContextRelease { imsi },
                    );
                }
            }
            _ => {}
        }
    }
}

impl Node for Enb {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        if in_port >= port::ENB_RADIO_BASE {
            self.handle_radio(ctx, in_port, pkt);
        } else if in_port == port::ENB_S1AP {
            self.handle_s1ap(ctx, pkt);
        } else if in_port >= port::ENB_X2_BASE {
            self.handle_x2(ctx, in_port, pkt);
        } else {
            self.handle_s1u(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tok: u64) {
        if tok >= token::HO_GUARD_BASE {
            self.on_ho_guard(ctx, tok);
            return;
        }
        if tok == token::DL_RELEASE {
            if let Some(frame) = self.dl.pop() {
                if let Some(ue) = self.ue_by_radio_addr(frame.dst) {
                    let p = ue.radio_port;
                    ctx.send(p, frame);
                }
            }
            return;
        }
        if tok >= token::IDLE_CHECK_BASE {
            let idx = (tok - token::IDLE_CHECK_BASE) as usize;
            let Some(timeout) = self.auto_idle else {
                return;
            };
            let Some(ue) = self.ues.get_mut(idx) else {
                return;
            };
            let idle_for = ctx.now().saturating_since(ue.last_activity);
            if idle_for >= timeout {
                ue.idle_check_armed = false;
                let imsi = ue.imsi;
                // Only release if the UE still has an active bearer.
                if self.bearers.iter().any(|b| b.imsi == imsi && b.active) {
                    self.send_s1ap(ctx, ControlMsg::UeContextReleaseRequest { imsi });
                }
            } else {
                // Activity happened since; re-check when the remaining
                // window elapses.
                let remaining = timeout - idle_for;
                ctx.schedule_in(remaining, tok);
            }
            return;
        }
        if tok >= token::IDLE_BASE {
            let idx = (tok - token::IDLE_BASE) as usize;
            if let Some(ue) = self.ues.get(idx) {
                let imsi = ue.imsi;
                self.send_s1ap(ctx, ControlMsg::UeContextReleaseRequest { imsi });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{addr, CellConfig, LteConfig, LteNetwork};
    use acacia_geo::point::Point;
    use acacia_simnet::sim::{NodeId, Simulator};
    use acacia_simnet::time::Instant;

    /// Keys registered out of order, or twice, index like a scan that
    /// returns the first matching row.
    #[test]
    fn row_index_returns_the_first_row_of_each_key() {
        let keys = [30u64, 10, 20, 10, 40, 30, 5];
        let mut index = RowIndex::default();
        for (row, &k) in keys.iter().enumerate() {
            index.insert(k, row);
        }
        for k in [5, 10, 20, 30, 40, 7] {
            assert_eq!(index.get(k), keys.iter().position(|&x| x == k), "{k}");
        }
    }

    /// Three cells, each UE registered on only some of them and in its
    /// own order, so each eNB's rows and radio ports differ from its
    /// neighbours': the indexed lookups return what a scan of the table
    /// returns, before and after every UE attaches.
    #[test]
    fn indexed_lookups_agree_with_table_scans() {
        let cell = |x| CellConfig {
            pos: Point::new(x, 0.0),
            mec: true,
            region: 0,
        };
        let sees = [
            vec![0],
            vec![1, 0],
            vec![2, 1],
            vec![0, 2],
            vec![1, 2, 0],
            vec![2],
        ];
        let mut net = LteNetwork::new(LteConfig {
            ue_count: 12,
            cells: vec![cell(0.0), cell(40.0), cell(80.0)],
            ue_cells: (0..12).map(|i| sees[i % sees.len()].clone()).collect(),
            ..LteConfig::default()
        });
        let check = |net: &LteNetwork| {
            for &id in &net.enbs {
                let enb = net.sim.node_ref::<Enb>(id);
                assert!(!enb.ues.is_empty());
                for u in &enb.ues {
                    let scan = |f: &dyn Fn(&UeEntry) -> bool| enb.ues.iter().find(|e| f(e));
                    let by_port = enb.ue_by_radio_port(u.radio_port);
                    let by_imsi = enb.ue_by_imsi(u.imsi);
                    let by_addr = enb.ue_by_radio_addr(u.radio_addr);
                    let ptr = |e: Option<&UeEntry>| e.map(|e| e as *const UeEntry);
                    assert_eq!(ptr(by_port), ptr(scan(&|e| e.radio_port == u.radio_port)));
                    assert_eq!(ptr(by_imsi), ptr(scan(&|e| e.imsi == u.imsi)));
                    assert_eq!(ptr(by_addr), ptr(scan(&|e| e.radio_addr == u.radio_addr)));
                }
                let past = port::ENB_RADIO_BASE + enb.ues.len();
                assert!(enb.ue_by_radio_port(past).is_none());
                assert!(enb.ue_by_radio_port(port::ENB_S1AP).is_none());
                assert!(enb.ue_by_imsi(Imsi(1)).is_none());
                assert!(enb.ue_by_radio_addr(Ipv4Addr::UNSPECIFIED).is_none());
            }
        };
        check(&net);
        for i in 0..12 {
            let ue_addr = net.attach(i);
            // The camp cell learnt the address through its IMSI row.
            let camp = net.sim.node_ref::<Enb>(net.enbs[sees[i % sees.len()][0]]);
            assert_eq!(camp.ue_by_imsi(net.imsi(i)).unwrap().ue_addr, Some(ue_addr));
        }
        check(&net);
    }

    /// `bearers` stays sorted by TEID through attaches, a dedicated
    /// bearer, X2 handovers there and back, an idle release and a service
    /// request: the binary search finds every live bearer by its TEID, and
    /// no TEID a bearer gave up.
    #[test]
    fn bearers_are_found_by_teid_after_handover_and_release() {
        use crate::mobility::Waypoint;
        use crate::wire::PolicyRule;
        use acacia_simnet::time::Duration;
        use acacia_simnet::traffic::Reflector;

        let cell = |x, region| CellConfig {
            pos: Point::new(x, 0.0),
            mec: true,
            region,
        };
        let mut net = LteNetwork::new(LteConfig {
            ue_count: 3,
            cells: vec![cell(0.0, 0), cell(40.0, 1)],
            ..LteConfig::default()
        });
        let (_, mec) = net.add_mec_server(Box::new(Reflector::new()));
        let mut seen: Vec<(usize, Teid)> = Vec::new();
        let record = |net: &LteNetwork, seen: &mut Vec<(usize, Teid)>| {
            for (c, &id) in net.enbs.iter().enumerate() {
                let enb = net.sim.node_ref::<Enb>(id);
                seen.extend(enb.bearers.iter().map(|b| (c, b.enb_teid)));
            }
        };
        let ue_addr = net.attach(0);
        net.attach(1);
        net.attach(2);
        net.activate_dedicated_bearer(
            0,
            PolicyRule {
                service_id: 9,
                ue_addr,
                server_addr: mec,
                server_port: 0,
                qci: crate::qci::Qci(7),
                install: true,
            },
        );
        record(&net, &mut seen);
        net.start_mobility(
            0,
            vec![
                Waypoint::passing(Point::new(2.0, 0.0)),
                Waypoint::passing(Point::new(38.0, 0.0)),
                Waypoint::passing(Point::new(2.0, 0.0)),
            ],
            4.0,
        );
        net.run_for(Duration::from_secs(10));
        assert_eq!(net.serving_cell(0), 1, "UE 0 handed over");
        record(&net, &mut seen);
        net.run_for(Duration::from_secs(14));
        assert_eq!(net.serving_cell(0), 0, "UE 0 handed back");
        record(&net, &mut seen);
        net.trigger_idle_release(1);
        net.service_request(1);
        record(&net, &mut seen);
        seen.sort_unstable();
        seen.dedup();

        let mut stale = 0;
        for (c, &id) in net.enbs.iter().enumerate() {
            let enb = net.sim.node_ref::<Enb>(id);
            assert!(enb
                .bearers
                .windows(2)
                .all(|w| w[0].enb_teid < w[1].enb_teid));
            for b in &enb.bearers {
                let found = enb.bearer_by_teid(b.enb_teid).expect("live bearer");
                assert!(std::ptr::eq(found, b));
            }
            for &(_, teid) in seen.iter().filter(|&&(sc, _)| sc == c) {
                if enb.bearers.iter().all(|b| b.enb_teid != teid) {
                    assert!(enb.bearer_by_teid(teid).is_none(), "{teid}");
                    stale += 1;
                }
            }
        }
        assert_eq!(stale, 4, "each handover retired two TEIDs at its source");
    }

    /// A test-only node on the far end of every port of the eNB under
    /// test. It decodes what it receives (a radio frame, a GTP-U packet or
    /// a control message) and keeps `(send instant, port, dst, text)`.
    /// Every link has the same delay, so arrival order is send order.
    #[derive(Default)]
    struct Tap {
        seen: Vec<(Instant, PortId, Ipv4Addr, String)>,
    }

    const TAP_DELAY: Duration = Duration::from_micros(100);

    impl Node for Tap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, at: PortId, pkt: Packet) {
            let text = if at >= port::ENB_RADIO_BASE {
                match radio::parse_frame(&pkt).expect("a radio frame") {
                    RadioPayload::Rrc(msg) => format!("{msg:?}"),
                    RadioPayload::Data { ebi, inner } => format!("Data {ebi:?} #{}", inner.id),
                }
            } else if let Some((teid, inner)) = gtpu::decapsulate(&pkt) {
                format!("GtpU {teid:?} #{}", inner.id)
            } else {
                let msg = ControlMsg::from_packet(&pkt).expect("a control message");
                format!("{msg:?}")
            };
            self.seen.push((ctx.now() - TAP_DELAY, at, pkt.dst, text));
        }
    }

    /// Drives one eNB with timed stimuli and writes its transcript: each
    /// stimulus as `> ms port what`, every packet the eNB sent (answers
    /// and guard expiries alike) as `  µs port dst what` at its send
    /// instant, and at the end its counters and the message log's
    /// per-kind counts.
    struct Transcript {
        sim: Simulator,
        enb: NodeId,
        tap: NodeId,
        log: MsgLog,
        text: String,
        shown: usize,
    }

    /// X2 peer `j`'s port at the eNB under test.
    fn x2_port(j: usize) -> PortId {
        port::ENB_X2_BASE + j
    }

    fn ue_radio(row: usize) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(addr::UE_RADIO_BASE) + row as u32)
    }

    fn erab(ebi: u8, gw_addr: Ipv4Addr, gw_teid: u32) -> ErabSetup {
        let tft = match ebi {
            5 => Tft::new(),
            _ => Tft::single(crate::tft::PacketFilter::to_host(addr::MEC_BASE)),
        };
        ErabSetup {
            ebi: Ebi(ebi),
            qci: if ebi == 5 {
                Qci::DEFAULT_BEARER
            } else {
                Qci(7)
            },
            gw_teid: Teid(gw_teid),
            gw_addr,
            tft,
        }
    }

    fn user_packet(id: u64) -> Packet {
        Packet::udp((addr::UE_POOL, 1000), (addr::MEC_BASE, 2000), 100).with_id(id)
    }

    impl Transcript {
        fn new(ues: usize) -> Transcript {
            let mut sim = Simulator::new(1);
            let log = MsgLog::new();
            let mut enb = Enb::new(addr::ENB, addr::MME, log.clone());
            enb.add_s1_gateway(addr::SGW_U, port::ENB_S1_CORE);
            enb.add_s1_gateway(addr::LOCAL_GWU, port::ENB_S1_MEC);
            let mut ports = vec![port::ENB_S1_CORE, port::ENB_S1_MEC, port::ENB_S1AP];
            for j in 1..=2 {
                enb.add_x2_neighbor(addr::enb_radio(j), addr::enb(j), x2_port(j));
                ports.push(x2_port(j));
            }
            for row in 0..ues {
                ports.push(enb.add_ue(Imsi(310_410_000_000_001 + row as u64), ue_radio(row)));
            }
            let enb = sim.add_node(Box::new(enb));
            let tap = sim.add_node(Box::new(Tap::default()));
            let link = acacia_simnet::link::LinkConfig::delay_only(TAP_DELAY);
            for p in ports {
                sim.connect((enb, p), (tap, p), link.clone());
            }
            Transcript {
                sim,
                enb,
                tap,
                log,
                text: String::new(),
                shown: 0,
            }
        }

        fn enb(&self) -> &Enb {
            self.sim.node_ref::<Enb>(self.enb)
        }

        /// The downlink TEID of `row`'s bearer `ebi`, once the last
        /// stimulus has been handled.
        fn teid(&mut self, row: usize, ebi: u8) -> Teid {
            self.run_to(self.sim.now() + Duration::from_micros(1));
            let imsi = self.enb().ues[row].imsi;
            self.enb()
                .bearers
                .iter()
                .find(|b| b.imsi == imsi && b.ebi == Ebi(ebi))
                .expect("a bearer")
                .enb_teid
        }

        /// Run to `until`, writing what the eNB sent on the way.
        fn run_to(&mut self, until: Instant) {
            use std::fmt::Write;
            self.sim.run_until(until);
            let seen = &self.sim.node_ref::<Tap>(self.tap).seen;
            for (sent, p, dst, what) in &seen[self.shown..] {
                let us = sent.nanos() / 1_000;
                writeln!(self.text, "  {us} {p} {dst} {what}").unwrap();
            }
            self.shown = seen.len();
        }

        fn inject(&mut self, at_ms: u64, p: PortId, what: String, pkt: Packet) {
            use std::fmt::Write;
            let at = Instant::from_millis(at_ms);
            self.run_to(at);
            writeln!(self.text, "> {at_ms} {p} {what}").unwrap();
            self.sim.inject_packet(self.enb, p, at, pkt);
        }

        fn s1ap(&mut self, at_ms: u64, msg: ControlMsg) {
            let pkt = msg.into_packet(addr::MME, addr::ENB);
            self.inject(at_ms, port::ENB_S1AP, format!("{msg:?}"), pkt);
        }

        fn x2(&mut self, at_ms: u64, j: usize, msg: ControlMsg) {
            let pkt = msg.into_packet(addr::enb(j), addr::ENB);
            self.inject(at_ms, x2_port(j), format!("{msg:?}"), pkt);
        }

        fn rrc(&mut self, at_ms: u64, row: usize, msg: ControlMsg) {
            let pkt = radio::rrc_frame(&msg, ue_radio(row), addr::ENB_RADIO);
            self.inject(at_ms, port::ENB_RADIO_BASE + row, format!("{msg:?}"), pkt);
        }

        /// An uplink user packet from `row` on bearer `ebi`.
        fn ul(&mut self, at_ms: u64, row: usize, ebi: u8, id: u64) {
            let pkt = radio::data_frame(Ebi(ebi), &user_packet(id), ue_radio(row), addr::ENB_RADIO);
            let what = format!("Data {:?} #{id}", Ebi(ebi));
            self.inject(at_ms, port::ENB_RADIO_BASE + row, what, pkt);
        }

        /// A downlink user packet tunnelled to `teid`, arriving on `p`.
        fn dl(&mut self, at_ms: u64, p: PortId, teid: Teid, id: u64) {
            let pkt = gtpu::encapsulate(&user_packet(id), teid, addr::SGW_U, addr::ENB);
            self.inject(at_ms, p, format!("GtpU {teid:?} #{id}"), pkt);
        }

        fn finish(mut self) -> String {
            use std::fmt::Write;
            self.run_to(Instant::MAX);
            let e = self.enb();
            let counters = [
                ("ul_forwarded", e.ul_forwarded),
                ("dl_forwarded", e.dl_forwarded),
                ("no_bearer", e.no_bearer),
                ("ho_out_done", e.ho_out_done),
                ("ho_in_done", e.ho_in_done),
                ("x2_forwarded", e.x2_forwarded),
                ("ho_retx", e.ho_retx),
                ("ho_cancelled", e.ho_cancelled),
                ("ho_in_cancelled", e.ho_in_cancelled),
                ("ho_out_expired", e.ho_out_expired),
                ("ps_retx", e.ps_retx),
                ("ps_fallback", e.ps_fallback),
                ("reest_in", e.reest_in),
                ("outstanding", e.outstanding_handovers() as u64),
            ];
            let mut line = String::from("#");
            for (name, n) in counters {
                write!(line, " {name} {n}").unwrap();
            }
            writeln!(self.text, "{line}").unwrap();
            for r in self.log.by_name() {
                writeln!(self.text, "# {} {}", r.name, r.count).unwrap();
            }
            self.text
        }
    }

    /// Every message the eNB sends, with its port, destination and send
    /// instant, through every S1AP, X2 and RRC handler and every handover
    /// guard: retransmission, exhaustion (preparation cancel, forwarding
    /// expiry, path-switch fallback) and the guards retired by an answer,
    /// a release or a superseding admission.
    #[test]
    fn enb_transcript_is_pinned() {
        use ControlMsg::*;
        let mut t = Transcript::new(7);
        let imsi = |row: u64| Imsi(310_410_000_000_001 + row);
        let (a, b, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        let core = port::ENB_S1_CORE;
        let mec = port::ENB_S1_MEC;

        // Attach, E-RAB set-up and release, paging, context release and
        // the service request that restores the stored bearers.
        t.rrc(1, a, RrcAttachRequest { imsi: imsi(0) });
        let erabs = vec![erab(5, addr::SGW_U, 0x1001)];
        t.s1ap(
            2,
            InitialContextSetupRequest {
                imsi: imsi(0),
                erabs,
            },
        );
        let ue_addr = Some(Ipv4Addr::new(10, 10, 0, 1));
        t.s1ap(
            3,
            DownlinkNasAccept {
                imsi: imsi(0),
                ue_addr,
            },
        );
        let erab6 = erab(6, addr::LOCAL_GWU, 0x1002);
        t.s1ap(
            4,
            ErabSetupRequest {
                imsi: imsi(0),
                erab: erab6,
            },
        );
        t.ul(5, a, 5, 1);
        t.ul(6, a, 6, 2);
        t.ul(7, a, 9, 3); // no such bearer
        let unrouted = erab(7, Ipv4Addr::new(10, 2, 9, 9), 0x1003);
        t.s1ap(
            8,
            ErabSetupRequest {
                imsi: imsi(0),
                erab: unrouted,
            },
        );
        t.ul(9, a, 7, 4); // no S1 port toward its gateway
        let teid_a5 = t.teid(a, 5);
        t.dl(10, core, teid_a5, 5);
        t.dl(11, core, Teid(0x7777), 6); // no such tunnel
        t.s1ap(
            12,
            ErabReleaseCommand {
                imsi: imsi(0),
                ebi: Ebi(7),
            },
        );
        t.s1ap(13, Paging { imsi: imsi(0) });
        t.s1ap(14, UeContextReleaseCommand { imsi: imsi(0) });
        t.rrc(15, a, RrcServiceRequest { imsi: imsi(0) });
        t.s1ap(
            16,
            InitialContextSetupRequest {
                imsi: imsi(0),
                erabs: vec![],
            },
        );
        t.sim
            .schedule_timer(t.enb, Instant::from_millis(17), token::IDLE_BASE);

        // Source side, UE a: one Handover Request retransmission, a stale
        // and the live Ack, forwarding of both bearers, and the release
        // that retires the overall guard.
        let report = |row: u64, cell: usize| RrcMeasurementReport {
            imsi: imsi(row),
            serving_rsrp_cdbm: -9_000,
            target_radio: addr::enb_radio(cell),
            target_rsrp_cdbm: -8_000,
        };
        t.rrc(20, a, report(0, 1));
        t.rrc(21, a, report(0, 2)); // one handover at a time
        let ack = |row: u64, txid: u32, erabs: Vec<(Ebi, Teid)>| X2HandoverRequestAck {
            imsi: imsi(row),
            erabs,
            txid,
        };
        let fwd = vec![(Ebi(5), Teid(0x4005)), (Ebi(6), Teid(0x4006))];
        t.x2(90, 1, ack(0, 99, fwd.clone()));
        t.x2(91, 1, ack(0, 1, fwd));
        let teid_a6 = t.teid(a, 6);
        t.dl(92, core, teid_a5, 7);
        t.dl(93, mec, teid_a6, 8);
        t.x2(100, 1, X2UeContextRelease { imsi: imsi(0) });
        t.dl(101, core, teid_a5, 9);

        // Source side, UE b: three unanswered requests and the cancel;
        // then a second handover whose forwarding phase expires.
        let erabs = vec![erab(5, addr::SGW_U, 0x1011)];
        t.s1ap(
            200,
            InitialContextSetupRequest {
                imsi: imsi(1),
                erabs,
            },
        );
        t.rrc(201, b, report(1, 2));
        t.rrc(400, b, report(1, 2));
        t.x2(410, 2, ack(1, 3, vec![(Ebi(5), Teid(0x5005))]));
        let teid_b5 = t.teid(b, 5);

        // Source side, UE d: an unknown neighbour, then a release that
        // arrives while the request is still unanswered, then a report
        // with nothing left to hand over.
        let erabs = vec![erab(5, addr::SGW_U, 0x1041)];
        t.s1ap(
            500,
            InitialContextSetupRequest {
                imsi: imsi(3),
                erabs,
            },
        );
        t.rrc(501, d, report(3, 9));
        t.rrc(502, d, report(3, 1));
        t.x2(510, 1, X2UeContextRelease { imsi: imsi(3) });
        t.rrc(511, d, report(3, 1));

        // Target side, UE c: admission, a duplicate re-acked, a foreign
        // and the live cancel, a confirm with nothing admitted; then a
        // fresh admission, forwarded data, the arrival, a duplicate
        // confirm, a cancel that loses to it, one Path Switch
        // retransmission and the Ack (twice).
        let bearers = vec![
            erab(5, addr::SGW_U, 0x1021),
            erab(6, addr::LOCAL_GWU, 0x1022),
        ];
        let request = |row: u64, txid: u32| X2HandoverRequest {
            imsi: imsi(row),
            ue_addr: Some(Ipv4Addr::new(10, 10, 0, 3 + row as u8)),
            bearers: bearers.clone(),
            txid,
        };
        t.x2(600, 2, request(2, 7));
        t.x2(601, 2, request(2, 7));
        t.x2(
            602,
            2,
            X2SnStatusTransfer {
                imsi: imsi(2),
                dl_count: 1,
                ul_count: 2,
            },
        );
        t.x2(
            603,
            2,
            X2HandoverCancel {
                imsi: imsi(2),
                txid: 8,
            },
        );
        t.x2(
            604,
            2,
            X2HandoverCancel {
                imsi: imsi(2),
                txid: 7,
            },
        );
        t.rrc(605, c, RrcHandoverConfirm { imsi: imsi(2) });
        t.x2(610, 2, request(2, 9));
        let teid_c5 = t.teid(c, 5);
        let fwd = gtpu::encapsulate(&user_packet(10), teid_c5, addr::enb(2), addr::ENB);
        t.inject(611, x2_port(2), format!("GtpU {teid_c5:?} #10"), fwd);
        t.rrc(612, c, RrcHandoverConfirm { imsi: imsi(2) });
        t.rrc(613, c, RrcHandoverConfirm { imsi: imsi(2) });
        t.x2(
            614,
            2,
            X2HandoverCancel {
                imsi: imsi(2),
                txid: 9,
            },
        );
        let switched = vec![erab(5, addr::SGW_U, 0x1031)];
        t.s1ap(
            800,
            PathSwitchRequestAck {
                imsi: imsi(2),
                erabs: switched.clone(),
            },
        );
        t.ul(801, c, 5, 11);
        t.s1ap(
            802,
            PathSwitchRequestAck {
                imsi: imsi(2),
                erabs: switched,
            },
        );

        // Target side, UE e: every Path Switch Request lost, then the
        // fallback; a re-establishment with nothing to resume.
        t.x2(900, 1, request(4, 11));
        t.rrc(901, e, RrcHandoverConfirm { imsi: imsi(4) });
        t.rrc(1300, e, RrcReestablishmentRequest { imsi: imsi(4) });

        // Target side, UE f: re-establishment as the arrival, then a
        // duplicate re-establishment with the context live.
        t.x2(1400, 2, request(5, 12));
        t.rrc(1401, f, RrcReestablishmentRequest { imsi: imsi(5) });
        t.s1ap(
            1410,
            PathSwitchRequestAck {
                imsi: imsi(5),
                erabs: vec![],
            },
        );
        t.rrc(1411, f, RrcReestablishmentRequest { imsi: imsi(5) });

        // Target side, UE g: a request with a new txid supersedes an
        // admission whose Path Switch is running; its guard never acts.
        t.x2(1600, 1, request(6, 13));
        t.rrc(1601, g, RrcHandoverConfirm { imsi: imsi(6) });
        t.x2(1602, 1, request(6, 14));
        t.rrc(1800, g, RrcHandoverConfirm { imsi: imsi(6) });
        t.s1ap(
            1810,
            PathSwitchRequestAck {
                imsi: imsi(6),
                erabs: vec![],
            },
        );

        // UE b's forwarding guard expired at 1910: its context is gone.
        t.dl(1920, core, teid_b5, 12);

        let text = t.finish();
        println!("{text}");
        let expected = ENB_TRANSCRIPT;
        for (i, (got, want)) in text.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "transcript line {} differs", i + 1);
        }
        assert_eq!(
            text.lines().count(),
            expected.lines().count(),
            "transcript length"
        );
    }

    const ENB_TRANSCRIPT: &str = r#"> 1 40 RrcAttachRequest { imsi: Imsi(310410000000001) }
  1000 3 10.3.0.1 InitialUeAttach { imsi: Imsi(310410000000001) }
> 2 3 InitialContextSetupRequest { imsi: Imsi(310410000000001), erabs: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4097), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }] }
  2000 3 10.3.0.1 InitialContextSetupResponse { imsi: Imsi(310410000000001), enb_teids: [(Ebi(5), Teid(12288))] }
> 3 3 DownlinkNasAccept { imsi: Imsi(310410000000001), ue_addr: Some(10.10.0.1) }
  3000 40 192.168.0.100 RrcReconfiguration { ebi: Ebi(5), qci: Qci(9), tft: Tft { filters: [] }, ue_addr: Some(10.10.0.1) }
> 4 3 ErabSetupRequest { imsi: Imsi(310410000000001), erab: ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4098), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } } }
  4000 40 192.168.0.100 RrcReconfiguration { ebi: Ebi(6), qci: Qci(7), tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] }, ue_addr: None }
  4000 3 10.3.0.1 ErabSetupResponse { imsi: Imsi(310410000000001), ebi: Ebi(6), enb_teid: Teid(12289) }
> 5 40 Data Ebi(5) #1
  5000 1 10.2.0.1 GtpU Teid(4097) #1
> 6 40 Data Ebi(6) #2
  6000 2 10.2.1.1 GtpU Teid(4098) #2
> 7 40 Data Ebi(9) #3
> 8 3 ErabSetupRequest { imsi: Imsi(310410000000001), erab: ErabSetup { ebi: Ebi(7), qci: Qci(7), gw_teid: Teid(4099), gw_addr: 10.2.9.9, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } } }
  8000 40 192.168.0.100 RrcReconfiguration { ebi: Ebi(7), qci: Qci(7), tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] }, ue_addr: None }
  8000 3 10.3.0.1 ErabSetupResponse { imsi: Imsi(310410000000001), ebi: Ebi(7), enb_teid: Teid(12290) }
> 9 40 Data Ebi(7) #4
> 10 1 GtpU Teid(12288) #5
  10030 40 192.168.0.100 Data Ebi(5) #5
> 11 1 GtpU Teid(30583) #6
> 12 3 ErabReleaseCommand { imsi: Imsi(310410000000001), ebi: Ebi(7) }
  12000 40 192.168.0.100 RrcBearerRelease { ebi: Ebi(7) }
  12000 3 10.3.0.1 ErabReleaseResponse { imsi: Imsi(310410000000001), ebi: Ebi(7) }
> 13 3 Paging { imsi: Imsi(310410000000001) }
  13000 40 192.168.0.100 RrcPaging { imsi: Imsi(310410000000001) }
> 14 3 UeContextReleaseCommand { imsi: Imsi(310410000000001) }
  14000 40 192.168.0.100 RrcRelease { imsi: Imsi(310410000000001) }
  14000 3 10.3.0.1 UeContextReleaseComplete { imsi: Imsi(310410000000001) }
> 15 40 RrcServiceRequest { imsi: Imsi(310410000000001) }
  15000 3 10.3.0.1 InitialUeServiceRequest { imsi: Imsi(310410000000001) }
> 16 3 InitialContextSetupRequest { imsi: Imsi(310410000000001), erabs: [] }
  16000 3 10.3.0.1 InitialContextSetupResponse { imsi: Imsi(310410000000001), enb_teids: [(Ebi(5), Teid(12288)), (Ebi(6), Teid(12289))] }
  17000 3 10.3.0.1 UeContextReleaseRequest { imsi: Imsi(310410000000001) }
> 20 40 RrcMeasurementReport { imsi: Imsi(310410000000001), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.2, target_rsrp_cdbm: -8000 }
  20000 5 10.1.0.2 X2HandoverRequest { imsi: Imsi(310410000000001), ue_addr: Some(10.10.0.1), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4097), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4098), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 1 }
> 21 40 RrcMeasurementReport { imsi: Imsi(310410000000001), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.3, target_rsrp_cdbm: -8000 }
  80000 5 10.1.0.2 X2HandoverRequest { imsi: Imsi(310410000000001), ue_addr: Some(10.10.0.1), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4097), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4098), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 1 }
> 90 5 X2HandoverRequestAck { imsi: Imsi(310410000000001), erabs: [(Ebi(5), Teid(16389)), (Ebi(6), Teid(16390))], txid: 99 }
> 91 5 X2HandoverRequestAck { imsi: Imsi(310410000000001), erabs: [(Ebi(5), Teid(16389)), (Ebi(6), Teid(16390))], txid: 1 }
  91000 5 10.1.0.2 X2SnStatusTransfer { imsi: Imsi(310410000000001), dl_count: 1, ul_count: 2 }
  91000 40 192.168.0.100 RrcHandoverCommand { imsi: Imsi(310410000000001), target_radio: 192.168.0.2 }
> 92 1 GtpU Teid(12288) #7
  92000 5 10.1.0.2 GtpU Teid(16389) #7
> 93 2 GtpU Teid(12289) #8
  93000 5 10.1.0.2 GtpU Teid(16390) #8
> 100 5 X2UeContextRelease { imsi: Imsi(310410000000001) }
> 101 1 GtpU Teid(12288) #9
> 200 3 InitialContextSetupRequest { imsi: Imsi(310410000000002), erabs: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4113), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }] }
  200000 3 10.3.0.1 InitialContextSetupResponse { imsi: Imsi(310410000000002), enb_teids: [(Ebi(5), Teid(12291))] }
> 201 41 RrcMeasurementReport { imsi: Imsi(310410000000002), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.3, target_rsrp_cdbm: -8000 }
  201000 6 10.1.0.3 X2HandoverRequest { imsi: Imsi(310410000000002), ue_addr: None, bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4113), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }], txid: 2 }
  261000 6 10.1.0.3 X2HandoverRequest { imsi: Imsi(310410000000002), ue_addr: None, bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4113), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }], txid: 2 }
  321000 6 10.1.0.3 X2HandoverRequest { imsi: Imsi(310410000000002), ue_addr: None, bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4113), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }], txid: 2 }
  381000 6 10.1.0.3 X2HandoverCancel { imsi: Imsi(310410000000002), txid: 2 }
> 400 41 RrcMeasurementReport { imsi: Imsi(310410000000002), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.3, target_rsrp_cdbm: -8000 }
  400000 6 10.1.0.3 X2HandoverRequest { imsi: Imsi(310410000000002), ue_addr: None, bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4113), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }], txid: 3 }
> 410 6 X2HandoverRequestAck { imsi: Imsi(310410000000002), erabs: [(Ebi(5), Teid(20485))], txid: 3 }
  410000 6 10.1.0.3 X2SnStatusTransfer { imsi: Imsi(310410000000002), dl_count: 1, ul_count: 2 }
  410000 41 192.168.0.101 RrcHandoverCommand { imsi: Imsi(310410000000002), target_radio: 192.168.0.3 }
> 500 3 InitialContextSetupRequest { imsi: Imsi(310410000000004), erabs: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4161), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }] }
  500000 3 10.3.0.1 InitialContextSetupResponse { imsi: Imsi(310410000000004), enb_teids: [(Ebi(5), Teid(12292))] }
> 501 43 RrcMeasurementReport { imsi: Imsi(310410000000004), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.10, target_rsrp_cdbm: -8000 }
> 502 43 RrcMeasurementReport { imsi: Imsi(310410000000004), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.2, target_rsrp_cdbm: -8000 }
  502000 5 10.1.0.2 X2HandoverRequest { imsi: Imsi(310410000000004), ue_addr: None, bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4161), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }], txid: 4 }
> 510 5 X2UeContextRelease { imsi: Imsi(310410000000004) }
> 511 43 RrcMeasurementReport { imsi: Imsi(310410000000004), serving_rsrp_cdbm: -9000, target_radio: 192.168.0.2, target_rsrp_cdbm: -8000 }
> 600 6 X2HandoverRequest { imsi: Imsi(310410000000003), ue_addr: Some(10.10.0.5), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 7 }
  600000 6 10.1.0.3 X2HandoverRequestAck { imsi: Imsi(310410000000003), erabs: [(Ebi(5), Teid(12293)), (Ebi(6), Teid(12294))], txid: 7 }
> 601 6 X2HandoverRequest { imsi: Imsi(310410000000003), ue_addr: Some(10.10.0.5), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 7 }
  601000 6 10.1.0.3 X2HandoverRequestAck { imsi: Imsi(310410000000003), erabs: [(Ebi(5), Teid(12293)), (Ebi(6), Teid(12294))], txid: 7 }
> 602 6 X2SnStatusTransfer { imsi: Imsi(310410000000003), dl_count: 1, ul_count: 2 }
> 603 6 X2HandoverCancel { imsi: Imsi(310410000000003), txid: 8 }
> 604 6 X2HandoverCancel { imsi: Imsi(310410000000003), txid: 7 }
> 605 42 RrcHandoverConfirm { imsi: Imsi(310410000000003) }
> 610 6 X2HandoverRequest { imsi: Imsi(310410000000003), ue_addr: Some(10.10.0.5), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 9 }
  610000 6 10.1.0.3 X2HandoverRequestAck { imsi: Imsi(310410000000003), erabs: [(Ebi(5), Teid(12295)), (Ebi(6), Teid(12296))], txid: 9 }
> 611 6 GtpU Teid(12295) #10
  611030 42 192.168.0.102 Data Ebi(5) #10
> 612 42 RrcHandoverConfirm { imsi: Imsi(310410000000003) }
  612000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000003), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12295)), (Ebi(6), Teid(12296))], txid: 5 }
> 613 42 RrcHandoverConfirm { imsi: Imsi(310410000000003) }
> 614 6 X2HandoverCancel { imsi: Imsi(310410000000003), txid: 9 }
  732000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000003), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12295)), (Ebi(6), Teid(12296))], txid: 5 }
> 800 3 PathSwitchRequestAck { imsi: Imsi(310410000000003), erabs: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4145), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }] }
  800000 6 10.1.0.3 X2UeContextRelease { imsi: Imsi(310410000000003) }
> 801 42 Data Ebi(5) #11
  801000 1 10.2.0.1 GtpU Teid(4145) #11
> 802 3 PathSwitchRequestAck { imsi: Imsi(310410000000003), erabs: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4145), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }] }
> 900 5 X2HandoverRequest { imsi: Imsi(310410000000005), ue_addr: Some(10.10.0.7), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 11 }
  900000 5 10.1.0.2 X2HandoverRequestAck { imsi: Imsi(310410000000005), erabs: [(Ebi(5), Teid(12297)), (Ebi(6), Teid(12298))], txid: 11 }
> 901 44 RrcHandoverConfirm { imsi: Imsi(310410000000005) }
  901000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000005), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12297)), (Ebi(6), Teid(12298))], txid: 6 }
  1021000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000005), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12297)), (Ebi(6), Teid(12298))], txid: 6 }
  1141000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000005), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12297)), (Ebi(6), Teid(12298))], txid: 6 }
  1261000 5 10.1.0.2 X2UeContextRelease { imsi: Imsi(310410000000005) }
  1261000 44 192.168.0.104 RrcBearerRelease { ebi: Ebi(6) }
  1261000 44 192.168.0.104 RrcRelease { imsi: Imsi(310410000000005) }
> 1300 44 RrcReestablishmentRequest { imsi: Imsi(310410000000005) }
  1300000 44 192.168.0.104 RrcRelease { imsi: Imsi(310410000000005) }
> 1400 6 X2HandoverRequest { imsi: Imsi(310410000000006), ue_addr: Some(10.10.0.8), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 12 }
  1400000 6 10.1.0.3 X2HandoverRequestAck { imsi: Imsi(310410000000006), erabs: [(Ebi(5), Teid(12299)), (Ebi(6), Teid(12300))], txid: 12 }
> 1401 45 RrcReestablishmentRequest { imsi: Imsi(310410000000006) }
  1401000 45 192.168.0.105 RrcReestablishmentConfirm { imsi: Imsi(310410000000006) }
  1401000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000006), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12299)), (Ebi(6), Teid(12300))], txid: 7 }
> 1410 3 PathSwitchRequestAck { imsi: Imsi(310410000000006), erabs: [] }
  1410000 6 10.1.0.3 X2UeContextRelease { imsi: Imsi(310410000000006) }
> 1411 45 RrcReestablishmentRequest { imsi: Imsi(310410000000006) }
  1411000 45 192.168.0.105 RrcReestablishmentConfirm { imsi: Imsi(310410000000006) }
> 1600 5 X2HandoverRequest { imsi: Imsi(310410000000007), ue_addr: Some(10.10.0.9), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 13 }
  1600000 5 10.1.0.2 X2HandoverRequestAck { imsi: Imsi(310410000000007), erabs: [(Ebi(5), Teid(12301)), (Ebi(6), Teid(12302))], txid: 13 }
> 1601 46 RrcHandoverConfirm { imsi: Imsi(310410000000007) }
  1601000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000007), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12301)), (Ebi(6), Teid(12302))], txid: 8 }
> 1602 5 X2HandoverRequest { imsi: Imsi(310410000000007), ue_addr: Some(10.10.0.9), bearers: [ErabSetup { ebi: Ebi(5), qci: Qci(9), gw_teid: Teid(4129), gw_addr: 10.2.0.1, tft: Tft { filters: [] } }, ErabSetup { ebi: Ebi(6), qci: Qci(7), gw_teid: Teid(4130), gw_addr: 10.2.1.1, tft: Tft { filters: [PacketFilter { precedence: 0, direction: Bidirectional, remote_addr: Some((10.4.0.1, 32)), remote_port: None, protocol: None }] } }], txid: 14 }
  1602000 5 10.1.0.2 X2HandoverRequestAck { imsi: Imsi(310410000000007), erabs: [(Ebi(5), Teid(12303)), (Ebi(6), Teid(12304))], txid: 14 }
> 1800 46 RrcHandoverConfirm { imsi: Imsi(310410000000007) }
  1800000 3 10.3.0.1 PathSwitchRequest { imsi: Imsi(310410000000007), enb_addr: 10.1.0.1, erabs: [(Ebi(5), Teid(12303)), (Ebi(6), Teid(12304))], txid: 9 }
> 1810 3 PathSwitchRequestAck { imsi: Imsi(310410000000007), erabs: [] }
  1810000 5 10.1.0.2 X2UeContextRelease { imsi: Imsi(310410000000007) }
> 1920 1 GtpU Teid(12291) #12
# ul_forwarded 3 dl_forwarded 2 no_bearer 5 ho_out_done 2 ho_in_done 3 x2_forwarded 2 ho_retx 3 ho_cancelled 1 ho_in_cancelled 1 ho_out_expired 1 ps_retx 3 ps_fallback 1 reest_in 3 outstanding 0
# RRC(AttachRequest) 1
# InitialUE(Attach) 1
# InitialContextSetupResponse 4
# RRCConnectionReconfiguration 3
# E-RABSetupResponse 2
# RRC(BearerRelease) 2
# E-RABReleaseResponse 1
# RRC(Paging) 1
# RRCConnectionRelease 3
# UEContextReleaseComplete 1
# RRC(ServiceRequest) 1
# InitialUE(ServiceRequest) 1
# UEContextReleaseRequest 1
# RRC(MeasurementReport) 7
# X2HandoverRequest 7
# X2SnStatusTransfer 2
# RRC(HandoverCommand) 2
# X2HandoverCancel 1
# X2HandoverRequestAcknowledge 7
# RRC(HandoverConfirm) 6
# PathSwitchRequest 8
# X2UEContextRelease 4
# RRC(ReestablishmentRequest) 3
# RRC(ReestablishmentConfirm) 2
"#;
}
