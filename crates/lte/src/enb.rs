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
use std::collections::{BTreeMap, HashMap};
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

/// Source-side handover progress for one UE.
#[derive(Debug, Clone)]
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
        /// Handover Request transmissions so far.
        attempts: u32,
        /// Guard-timer sequence currently armed for this attempt.
        guard: u64,
        /// The request as sent, kept verbatim for retransmission.
        request: Box<ControlMsg>,
    },
    /// UE commanded to the target; downlink data is forwarded over X2
    /// until the target signals UE Context Release.
    Forwarding {
        /// X2 port toward the target.
        port: PortId,
        /// Target eNB control address (GTP-U outer destination).
        peer: Ipv4Addr,
        /// Per-bearer forwarding TEIDs allocated by the target.
        teids: BTreeMap<Ebi, Teid>,
        /// Overall guard-timer sequence: fires if the target never signals
        /// UE Context Release.
        guard: u64,
    },
}

/// Target-side state of one incoming handover, kept until the Path Switch
/// completes (or falls back).
#[derive(Debug, Clone)]
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
    /// Path Switch procedure state, present once the UE has arrived.
    ps: Option<PsState>,
}

/// An in-flight Path Switch Request with its retransmission budget.
#[derive(Debug, Clone)]
struct PsState {
    /// Path Switch Request transmissions so far.
    attempts: u32,
    /// Guard-timer sequence currently armed for this attempt.
    guard: u64,
    /// The request as sent, kept verbatim for retransmission.
    request: Box<ControlMsg>,
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
    /// Handover guard timers: `HO_GUARD_BASE + seq` identifies one arming
    /// of a preparation / forwarding / path-switch guard. A fire whose
    /// sequence no longer matches any live procedure is a no-op, so
    /// completed procedures never need to cancel their timers.
    pub const HO_GUARD_BASE: u64 = 1 << 32;
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
    /// Known S1-U gateway addresses → output port (core SGW-U vs local
    /// MEC GW-U).
    pub s1_ports: HashMap<Ipv4Addr, PortId>,
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
    /// Next guard-timer sequence number.
    next_guard: u64,
    /// Engine timer handle for each live guard seq: procedures that end
    /// before their guard fires cancel it in the scheduler instead of
    /// relying on the fire being a stale no-op.
    guard_timers: BTreeMap<u64, TimerHandle>,
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
const _: () = assert!(std::mem::size_of::<Enb>() <= 464);

impl Enb {
    /// New eNB.
    pub(crate) fn new(addr: Ipv4Addr, mme_addr: Ipv4Addr, log: MsgLog) -> Enb {
        Enb {
            addr,
            mme_addr,
            s1_ports: HashMap::new(),
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
            next_guard: 0,
            guard_timers: BTreeMap::new(),
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
        self.s1_ports.insert(gw_addr, out_port);
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

    /// Arm a handover guard timer; returns the sequence number the fire
    /// must match to be considered live.
    fn arm_guard(&mut self, ctx: &mut Ctx<'_>, after: Duration) -> u64 {
        let seq = self.next_guard;
        self.next_guard += 1;
        let handle = ctx.schedule_in_cancellable(after, token::HO_GUARD_BASE + seq);
        self.guard_timers.insert(seq, handle);
        seq
    }

    /// Cancel a still-armed guard timer (the procedure it supervised
    /// resolved first). A seq whose timer already fired is a no-op.
    fn cancel_guard(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        if let Some(handle) = self.guard_timers.remove(&seq) {
            ctx.cancel_timer(handle);
        }
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
                let Some(&out_port) = self.s1_ports.get(&bearer.gw_addr) else {
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
        let guard = self.arm_guard(ctx, X2_PREP_GUARD);
        self.ho.insert(
            imsi,
            HoPhase::Preparing {
                port: peer.port,
                target_radio,
                peer_addr: peer.enb_addr,
                txid,
                attempts: 1,
                guard,
                request: Box::new(request.clone()),
            },
        );
        self.send_x2(ctx, peer.port, peer.enb_addr, request);
    }

    /// Target side: the UE is on our radio (Handover Confirm or RRC
    /// re-establishment). Start the Path Switch procedure — or keep the
    /// one already running if this is a duplicate arrival.
    fn ue_arrived(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(hin) = self.ho_in.get(&imsi) else {
            return;
        };
        if hin.ps.is_some() {
            return; // duplicate confirm: the procedure is already running
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
        let guard = self.arm_guard(ctx, PATH_SWITCH_GUARD);
        if let Some(hin) = self.ho_in.get_mut(&imsi) {
            hin.ps = Some(PsState {
                attempts: 1,
                guard,
                request: Box::new(request.clone()),
            });
        }
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
    fn path_switch_fallback(&mut self, ctx: &mut Ctx<'_>, imsi: Imsi) {
        let Some(hin) = self.ho_in.remove(&imsi) else {
            return;
        };
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
                    // admission (the source cancelled and retried); fall
                    // through to a fresh one.
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
                    guard: prep_guard,
                    ..
                }) = self.ho.get(&imsi).cloned()
                else {
                    return;
                };
                if txid != want {
                    return; // stale ack of a superseded attempt
                }
                // Preparation succeeded: retire its guard in the scheduler.
                self.cancel_guard(ctx, prep_guard);
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
                let guard = self.arm_guard(ctx, HO_OVERALL_GUARD);
                self.ho.insert(
                    imsi,
                    HoPhase::Forwarding {
                        port,
                        peer: pkt.src,
                        teids: erabs.into_iter().collect(),
                        guard,
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
                let Some(hin) = self.ho_in.get(&imsi) else {
                    return;
                };
                if hin.ho_txid != txid || hin.ps.is_some() {
                    return;
                }
                let admitted = hin.admitted.clone();
                self.ho_in.remove(&imsi);
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
                match self.ho.remove(&imsi) {
                    Some(HoPhase::Preparing { guard, .. })
                    | Some(HoPhase::Forwarding { guard, .. }) => self.cancel_guard(ctx, guard),
                    None => {}
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
            if let Some(&fwd_teid) = teids.get(&ebi) {
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

    /// A handover guard fired. Resolve the sequence number against every
    /// live procedure; anything that does not match completed (or was
    /// superseded) in the meantime and the fire is a no-op.
    fn on_ho_guard(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        // This seq's timer just fired; its handle is spent.
        self.guard_timers.remove(&seq);
        // Source side: unanswered Handover Request.
        let prep = self.ho.iter().find_map(|(&imsi, p)| match p {
            HoPhase::Preparing { guard, .. } if *guard == seq => Some(imsi),
            _ => None,
        });
        if let Some(imsi) = prep {
            let Some(HoPhase::Preparing {
                port,
                peer_addr,
                txid,
                attempts,
                request,
                ..
            }) = self.ho.get(&imsi).cloned()
            else {
                return;
            };
            if attempts < HO_MAX_ATTEMPTS {
                let new_guard = self.arm_guard(ctx, X2_PREP_GUARD);
                if let Some(HoPhase::Preparing {
                    attempts, guard, ..
                }) = self.ho.get_mut(&imsi)
                {
                    *attempts += 1;
                    *guard = new_guard;
                }
                self.ho_retx += 1;
                self.send_x2(ctx, port, peer_addr, (*request).clone());
            } else {
                // TX2RELOCprep analogue expired: cancel. The UE never left
                // this cell; measurement may retrigger the handover later.
                self.ho.remove(&imsi);
                self.ho_cancelled += 1;
                self.send_x2(
                    ctx,
                    port,
                    peer_addr,
                    ControlMsg::X2HandoverCancel { imsi, txid },
                );
            }
            return;
        }
        // Source side: the forwarding phase never closed (lost UE Context
        // Release). Release the old context locally.
        let fwd = self.ho.iter().find_map(|(&imsi, p)| match p {
            HoPhase::Forwarding { guard, .. } if *guard == seq => Some(imsi),
            _ => None,
        });
        if let Some(imsi) = fwd {
            self.ho.remove(&imsi);
            self.bearers.retain(|b| b.imsi != imsi);
            self.ho_out_expired += 1;
            return;
        }
        // Target side: unanswered Path Switch Request.
        let psq = self.ho_in.iter().find_map(|(&imsi, h)| match &h.ps {
            Some(ps) if ps.guard == seq => Some(imsi),
            _ => None,
        });
        if let Some(imsi) = psq {
            let (attempts, request) = {
                let ps = self.ho_in[&imsi].ps.as_ref().expect("matched above");
                (ps.attempts, ps.request.clone())
            };
            if attempts < HO_MAX_ATTEMPTS {
                let new_guard = self.arm_guard(ctx, PATH_SWITCH_GUARD);
                if let Some(ps) = self.ho_in.get_mut(&imsi).and_then(|h| h.ps.as_mut()) {
                    ps.attempts += 1;
                    ps.guard = new_guard;
                }
                self.ps_retx += 1;
                self.send_s1ap(ctx, (*request).clone());
            } else {
                self.path_switch_fallback(ctx, imsi);
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
                        self.cancel_guard(ctx, ps.guard);
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
            self.on_ho_guard(ctx, tok - token::HO_GUARD_BASE);
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
    use crate::network::{CellConfig, LteConfig, LteNetwork};
    use acacia_geo::point::Point;

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
}
