//! The UE: radio attachment, modem-resident UL-TFT classification, and an
//! app-side port mux so ordinary simnet agents (ping, sources, AR apps)
//! can run "on the phone".
//!
//! Apps connect to the UE over zero-delay loopback links (processes talking
//! to the modem). Uplink packets are classified against the installed
//! bearer TFTs **in the modem** — ACACIA's source-side traffic steering
//! (paper §5.4) — and ride the matching bearer's radio frames; everything
//! else uses the default bearer.

use crate::ids::{Ebi, Imsi};
use crate::mobility::{A3Config, A3Tracker, CellSite, Trajectory};
use crate::qci::Qci;
use crate::radio::{self, port, RadioPayload, RadioScheduler};
use crate::tft::{Direction, Tft};
use crate::timers::Timers;
use crate::wire::ControlMsg;
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId, TimerHandle};
use acacia_simnet::time::{Duration, Instant};
use std::net::Ipv4Addr;

/// How downlink packets find their way to the right app port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSelector {
    /// Match on IP protocol (None = any).
    pub protocol: Option<u8>,
    /// Match on destination (UE-side) port (None = any).
    pub dst_port: Option<u16>,
}

impl AppSelector {
    /// Deliver everything of one protocol.
    pub fn protocol(p: u8) -> AppSelector {
        AppSelector {
            protocol: Some(p),
            dst_port: None,
        }
    }

    /// Deliver one local port.
    pub fn port(p: u16) -> AppSelector {
        AppSelector {
            protocol: None,
            dst_port: Some(p),
        }
    }

    fn matches(&self, pkt: &Packet) -> bool {
        if let Some(p) = self.protocol {
            if pkt.protocol != p {
                return false;
            }
        }
        if let Some(dp) = self.dst_port {
            if pkt.dst_port != dp {
                return false;
            }
        }
        true
    }
}

/// An installed bearer on the UE.
#[derive(Debug, Clone)]
pub struct UeBearer {
    /// Bearer id.
    pub ebi: Ebi,
    /// QoS class.
    pub qci: Qci,
    /// Uplink TFT (empty for the default bearer).
    pub tft: Tft,
}

/// Attachment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeState {
    /// Powered on, not attached.
    Detached,
    /// Attach in progress.
    Attaching,
    /// Attached with an active RRC connection.
    Connected,
    /// Attached but RRC-idle (bearers released at the eNB).
    Idle,
}

/// Timer tokens understood by the UE node.
pub mod token {
    /// Start the attach procedure.
    pub const ATTACH: u64 = 1;
    /// Issue a service request (idle → connected).
    pub const SERVICE_REQUEST: u64 = 2;
    /// Internal: uplink radio scheduler release.
    pub const UL_RELEASE: u64 = 3;
    /// Periodic radio measurement sample (mobility).
    pub const MEASURE: u64 = 4;
    /// Handover supervision (T304 analogue): `T304_BASE + epoch` checks
    /// for downlink progress after a measurement report; a stale epoch is
    /// a no-op.
    pub const T304_BASE: u64 = 1 << 32;
    /// Service-request retry: `SR_RETRY_BASE + epoch` re-sends an
    /// unanswered RRC Service Request while data is still buffered.
    pub const SR_RETRY_BASE: u64 = 1 << 33;
}

/// Armed when a measurement report is sent; resolved by downlink progress
/// (handover worked or was cancelled in time) or by the T304 fire
/// (re-establish on the target).
#[derive(Debug, Clone, Copy)]
struct HoPending {
    /// Epoch the guard token must carry to be live.
    epoch: u64,
    /// Cell index the report proposed.
    target: usize,
    /// `dl_delivered` when the report was sent (progress baseline).
    dl_at_report: u64,
    /// When the report was sent (interruption accounting on recovery).
    reported_at: Instant,
}

/// One cell the UE can hear: the eNB's radio address and the UE-side
/// simnet port its air link is attached to.
#[derive(Debug, Clone, Copy)]
pub struct UeCell {
    /// eNB radio address (frame destination).
    pub enb_radio: Ipv4Addr,
    /// UE-side port of the per-cell air link.
    pub port: PortId,
}

/// Mobility state: where the UE walks and what it measures.
pub struct UeMobility {
    /// Waypoint walk driving the position.
    pub trajectory: Trajectory,
    /// Per-cell RSRP ground truth, parallel to the UE's cell list.
    pub sites: Vec<CellSite>,
    /// A3 event parameters.
    pub a3_cfg: A3Config,
    /// Stop sampling after this instant (keeps `run_until_idle` usable).
    pub measure_until: Instant,
    a3: A3Tracker,
}

impl UeMobility {
    /// New mobility state; measurement sampling stops at `measure_until`.
    pub fn new(
        trajectory: Trajectory,
        sites: Vec<CellSite>,
        a3_cfg: A3Config,
        measure_until: Instant,
    ) -> UeMobility {
        UeMobility {
            trajectory,
            sites,
            a3_cfg,
            measure_until,
            a3: A3Tracker::default(),
        }
    }
}

/// The UE node.
pub struct Ue {
    /// Subscriber identity.
    pub imsi: Imsi,
    /// Radio-link-local address used for frames before an IP is assigned.
    pub radio_addr: Ipv4Addr,
    /// Cells this UE has air links to (index 0 = initial serving cell).
    pub cells: Vec<UeCell>,
    /// Index into `cells` of the current serving cell.
    pub serving: usize,
    /// Assigned IP (after attach).
    pub ip: Option<Ipv4Addr>,
    /// Current state.
    pub state: UeState,
    /// Installed bearers.
    pub bearers: Vec<UeBearer>,
    /// Walk + measurement state (None for a stationary UE).
    pub mobility: Option<UeMobility>,
    /// Guard/retry intervals ([`crate::timers::Timers`]); the defaults
    /// reproduce the historical hard-coded constants.
    pub timers: Timers,
    apps: Vec<(AppSelector, PortId)>,
    ul: RadioScheduler,
    /// Uplink packets buffered while idle, flushed after the service
    /// request completes (LTE "radio promotion").
    idle_buffer: Vec<Packet>,
    /// Service requests triggered automatically by data-while-idle.
    pub promotions: u64,
    /// Uplink packets classified onto a dedicated bearer.
    pub ul_dedicated: u64,
    /// Uplink packets sent on the default bearer.
    pub ul_default: u64,
    /// Downlink user packets delivered to apps.
    pub dl_delivered: u64,
    /// Downlink packets with no matching app (dropped).
    pub dl_unclaimed: u64,
    /// Downlink frames that arrived from a cell we already left (lost on
    /// the air during handover).
    pub dl_stale: u64,
    /// Completed handovers (serving-cell switches).
    pub handovers: u64,
    /// Per-handover service interruption: (handover-command time, gap
    /// until the first downlink packet on the new cell).
    pub interruption_log: Vec<(Instant, Duration)>,
    /// Set at retune, cleared by the first post-handover downlink packet.
    pending_interrupt: Option<Instant>,
    /// RRC re-establishments performed after a dead serving leg.
    pub reestablishments: u64,
    /// Service requests re-sent by the retry timer.
    pub sr_retries: u64,
    /// Handover supervision state (one per measurement report).
    ho_pending: Option<HoPending>,
    /// Epochs distinguish the live T304 / retry timer from stale ones.
    next_epoch: u64,
    sr_epoch: u64,
    /// Engine handle of the live T304 guard: superseding reports cancel
    /// the old timer in the scheduler instead of letting it fire stale.
    t304_timer: Option<TimerHandle>,
    /// Engine handle of the live service-request retry timer.
    sr_timer: Option<TimerHandle>,
}

impl Ue {
    /// New detached UE, camped on a single cell reachable via
    /// [`port::UE_RADIO`] (multi-cell topologies add more with
    /// [`Ue::add_cell`]).
    pub fn new(imsi: Imsi, radio_addr: Ipv4Addr, enb_addr: Ipv4Addr, ul_rate_bps: u64) -> Ue {
        Ue {
            imsi,
            radio_addr,
            cells: vec![UeCell {
                enb_radio: enb_addr,
                port: port::UE_RADIO,
            }],
            serving: 0,
            ip: None,
            state: UeState::Detached,
            bearers: Vec::new(),
            mobility: None,
            timers: Timers::default(),
            apps: Vec::new(),
            ul: RadioScheduler::new(ul_rate_bps),
            idle_buffer: Vec::new(),
            promotions: 0,
            ul_dedicated: 0,
            ul_default: 0,
            dl_delivered: 0,
            dl_unclaimed: 0,
            dl_stale: 0,
            handovers: 0,
            interruption_log: Vec::new(),
            pending_interrupt: None,
            reestablishments: 0,
            sr_retries: 0,
            ho_pending: None,
            next_epoch: 0,
            sr_epoch: 0,
            t304_timer: None,
            sr_timer: None,
        }
    }

    /// Register an additional cell; its air link must be connected on UE
    /// port `UE_CELL_BASE + index`. Returns the cell index.
    pub fn add_cell(&mut self, enb_radio: Ipv4Addr) -> usize {
        let idx = self.cells.len();
        self.cells.push(UeCell {
            enb_radio,
            port: port::UE_CELL_BASE + idx,
        });
        idx
    }

    /// Radio address of the current serving cell's eNB.
    pub fn serving_enb_addr(&self) -> Ipv4Addr {
        self.cells[self.serving].enb_radio
    }

    /// UE-side port of the current serving cell's air link.
    fn serving_port(&self) -> PortId {
        self.cells[self.serving].port
    }

    /// Register an app connected on UE port `ue_port` to receive downlink
    /// packets matching `selector`.
    pub fn register_app(&mut self, selector: AppSelector, ue_port: PortId) {
        assert!(ue_port >= port::UE_APP_BASE, "app ports start at 1");
        self.apps.push((selector, ue_port));
    }

    /// The bearer a packet would ride (dedicated TFT match first,
    /// default otherwise).
    pub fn classify_uplink(&self, pkt: &Packet) -> Option<&UeBearer> {
        let dedicated = self
            .bearers
            .iter()
            .filter(|b| b.ebi != Ebi::DEFAULT)
            .find(|b| b.tft.matches(pkt, Direction::Uplink));
        dedicated.or_else(|| self.bearers.iter().find(|b| b.ebi == Ebi::DEFAULT))
    }

    /// Does the UE currently hold a dedicated bearer?
    pub fn has_dedicated_bearer(&self) -> bool {
        self.bearers.iter().any(|b| b.ebi != Ebi::DEFAULT)
    }

    fn send_rrc(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        let frame = radio::rrc_frame(&msg, self.radio_addr, self.serving_enb_addr());
        self.ul.offer(ctx, 0, frame, token::UL_RELEASE);
    }

    /// Apply an RRC message's state changes (pure; testable without a
    /// simulator context).
    fn apply_rrc(&mut self, msg: ControlMsg) {
        match msg {
            ControlMsg::RrcReconfiguration {
                ebi,
                qci,
                tft,
                ue_addr,
            } => {
                if let Some(addr) = ue_addr {
                    self.ip = Some(addr);
                }
                self.bearers.retain(|b| b.ebi != ebi);
                self.bearers.push(UeBearer { ebi, qci, tft });
                self.state = UeState::Connected;
            }
            ControlMsg::RrcRelease { .. } => {
                self.state = UeState::Idle;
            }
            ControlMsg::RrcBearerRelease { ebi } => {
                self.remove_bearer(ebi);
            }
            _ => {}
        }
    }

    fn handle_rrc(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        match msg {
            ControlMsg::RrcPaging { imsi } => {
                // Paged while idle: answer with a service request.
                if imsi == self.imsi && self.state == UeState::Idle {
                    self.promotions += 1;
                    self.send_rrc(ctx, ControlMsg::RrcServiceRequest { imsi: self.imsi });
                }
            }
            ControlMsg::RrcHandoverCommand { imsi, target_radio } if imsi == self.imsi => {
                self.retune(ctx, target_radio);
            }
            msg => {
                self.apply_rrc(msg);
                if self.state == UeState::Connected {
                    self.flush_idle_buffer(ctx);
                }
            }
        }
    }

    /// Execute a handover command: switch the serving cell to
    /// `target_radio` and confirm on the new cell. Bearer state (TFTs,
    /// IP) survives — that is the point of X2 handover.
    fn retune(&mut self, ctx: &mut Ctx<'_>, target_radio: Ipv4Addr) {
        let Some(idx) = self.cells.iter().position(|c| c.enb_radio == target_radio) else {
            return; // unknown target cell: stay put
        };
        if idx == self.serving {
            return;
        }
        self.serving = idx;
        self.handovers += 1;
        self.pending_interrupt = Some(ctx.now());
        if let Some(m) = self.mobility.as_mut() {
            m.a3.reset();
        }
        self.send_rrc(ctx, ControlMsg::RrcHandoverConfirm { imsi: self.imsi });
    }

    /// One measurement sample: position from the trajectory, RSRP per
    /// cell, A3 evaluation, and a measurement report if the event fires.
    fn measure(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.mobility.as_mut() else {
            return;
        };
        let now = ctx.now();
        if now > m.measure_until {
            return; // walk over: stop re-arming
        }
        let interval = m.a3_cfg.interval;
        ctx.schedule_in(interval, token::MEASURE);
        // Only a connected UE runs connected-mode measurements.
        if self.state == UeState::Connected {
            let pos = m.trajectory.position(now);
            if let Some(target) = m.a3.observe(&m.a3_cfg, now, self.serving, &m.sites, pos) {
                let report = ControlMsg::RrcMeasurementReport {
                    imsi: self.imsi,
                    serving_rsrp_cdbm: m.sites[self.serving].rsrp_cdbm(pos),
                    target_radio: self.cells[target].enb_radio,
                    target_rsrp_cdbm: m.sites[target].rsrp_cdbm(pos),
                };
                // Reset so the event re-arms only after the network acts
                // (or the condition re-establishes from scratch).
                m.a3.reset();
                self.send_rrc(ctx, report);
                // Supervise the handover this report should trigger: if no
                // downlink arrives within T304 the serving leg is dead.
                self.next_epoch += 1;
                let epoch = self.next_epoch;
                self.ho_pending = Some(HoPending {
                    epoch,
                    target,
                    dl_at_report: self.dl_delivered,
                    reported_at: now,
                });
                if let Some(h) = self.t304_timer.take() {
                    ctx.cancel_timer(h);
                }
                self.t304_timer =
                    Some(ctx.schedule_in_cancellable(self.timers.t304, token::T304_BASE + epoch));
            }
        }
    }

    /// T304 fired: no word from the network since the measurement report.
    /// If downlink progressed the procedure resolved itself (handover
    /// completed, or was cancelled while the source kept serving); if not,
    /// the serving leg is dead — jump to the reported target and
    /// re-establish the RRC connection there.
    fn on_t304(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        match self.ho_pending {
            Some(hp) if hp.epoch == epoch => {}
            _ => return, // stale guard of an already-superseded report
        }
        self.t304_timer = None; // this fire consumed the live guard
        let hp = self.ho_pending.take().expect("checked above");
        if self.dl_delivered > hp.dl_at_report {
            return;
        }
        self.serving = hp.target;
        self.reestablishments += 1;
        self.pending_interrupt = Some(hp.reported_at);
        if let Some(m) = self.mobility.as_mut() {
            m.a3.reset();
        }
        self.send_rrc(
            ctx,
            ControlMsg::RrcReestablishmentRequest { imsi: self.imsi },
        );
    }

    /// Arm (or re-arm) the service-request retry timer, cancelling any
    /// previously armed one in the scheduler.
    fn arm_sr_retry(&mut self, ctx: &mut Ctx<'_>) {
        self.sr_epoch += 1;
        if let Some(h) = self.sr_timer.take() {
            ctx.cancel_timer(h);
        }
        self.sr_timer = Some(
            ctx.schedule_in_cancellable(self.timers.sr_retry, token::SR_RETRY_BASE + self.sr_epoch),
        );
    }

    /// Service-request retry fired: if still idle with data waiting, the
    /// request (or its answer) was lost somewhere — send it again.
    fn on_sr_retry(&mut self, ctx: &mut Ctx<'_>, epoch: u64) {
        if epoch != self.sr_epoch {
            return;
        }
        self.sr_timer = None; // this fire consumed the live timer
        if self.state == UeState::Idle && !self.idle_buffer.is_empty() {
            self.sr_retries += 1;
            self.send_rrc(ctx, ControlMsg::RrcServiceRequest { imsi: self.imsi });
            self.arm_sr_retry(ctx);
        }
    }

    /// Send packets buffered during the idle period now that the RRC
    /// connection is back.
    fn flush_idle_buffer(&mut self, ctx: &mut Ctx<'_>) {
        // The service request was answered: the pending retry is moot.
        if let Some(h) = self.sr_timer.take() {
            ctx.cancel_timer(h);
        }
        if self.idle_buffer.is_empty() {
            return;
        }
        let buffered = std::mem::take(&mut self.idle_buffer);
        for pkt in buffered {
            self.send_uplink(ctx, pkt);
        }
    }

    /// Classify an uplink packet in the modem and put it on the air.
    fn send_uplink(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Some(bearer) = self.classify_uplink(&pkt) else {
            return;
        };
        let (ebi, prio) = (bearer.ebi, radio::sched_priority(bearer.qci.tos()));
        if ebi == Ebi::DEFAULT {
            self.ul_default += 1;
        } else {
            self.ul_dedicated += 1;
        }
        let mut inner = pkt;
        if let Some(ip) = self.ip {
            inner.src = ip;
        }
        inner.tos = match self.bearers.iter().find(|b| b.ebi == ebi) {
            Some(b) => b.qci.tos(),
            None => inner.tos,
        };
        let frame = radio::data_frame(ebi, &inner, self.radio_addr, self.serving_enb_addr());
        self.ul.offer(ctx, prio, frame, token::UL_RELEASE);
    }

    /// Remove a dedicated bearer (driven by an E-RAB release relayed over
    /// RRC as a reconfiguration with a match-nothing TFT in real LTE; the
    /// harness calls this directly via the eNB).
    pub fn remove_bearer(&mut self, ebi: Ebi) {
        self.bearers.retain(|b| b.ebi != ebi);
    }
}

impl Node for Ue {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, pkt: Packet) {
        if let Some(cell) = self.cells.iter().position(|c| c.port == in_port) {
            match radio::parse_frame(&pkt) {
                // RRC is accepted from any cell: the handover command
                // arrives from the source, everything after from the
                // target.
                Some(RadioPayload::Rrc(msg)) => self.handle_rrc(ctx, msg),
                Some(RadioPayload::Data { inner, .. }) => {
                    if cell != self.serving {
                        // In-flight on the air when we retuned: lost.
                        self.dl_stale += 1;
                        return;
                    }
                    if let Some(started) = self.pending_interrupt.take() {
                        self.interruption_log
                            .push((started, ctx.now().saturating_since(started)));
                    }
                    // Deliver to every matching app (e.g. several ICMP
                    // agents); apps discard traffic that isn't theirs.
                    let targets: Vec<PortId> = self
                        .apps
                        .iter()
                        .filter(|(sel, _)| sel.matches(&inner))
                        .map(|&(_, p)| p)
                        .collect();
                    if targets.is_empty() {
                        self.dl_unclaimed += 1;
                    } else {
                        self.dl_delivered += 1;
                        for app_port in targets {
                            ctx.send(app_port, inner.clone());
                        }
                    }
                }
                None => {}
            }
            return;
        }
        // Uplink from an app: classify in the modem and ride a bearer.
        if self.state == UeState::Idle {
            // Data while idle triggers an LTE radio promotion: buffer the
            // packet, issue a service request, flush once reconnected.
            if self.idle_buffer.is_empty() {
                self.promotions += 1;
                self.send_rrc(ctx, ControlMsg::RrcServiceRequest { imsi: self.imsi });
                self.arm_sr_retry(ctx);
            }
            if self.idle_buffer.len() < 32 {
                self.idle_buffer.push(pkt);
            }
            return;
        }
        if self.state != UeState::Connected {
            return;
        }
        self.send_uplink(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tok: u64) {
        if tok >= token::SR_RETRY_BASE {
            self.on_sr_retry(ctx, tok - token::SR_RETRY_BASE);
            return;
        }
        if tok >= token::T304_BASE {
            self.on_t304(ctx, tok - token::T304_BASE);
            return;
        }
        match tok {
            token::ATTACH if self.state == UeState::Detached => {
                self.state = UeState::Attaching;
                self.send_rrc(ctx, ControlMsg::RrcAttachRequest { imsi: self.imsi });
            }
            token::SERVICE_REQUEST if self.state == UeState::Idle => {
                self.send_rrc(ctx, ControlMsg::RrcServiceRequest { imsi: self.imsi });
            }
            token::UL_RELEASE => {
                if let Some(frame) = self.ul.pop() {
                    // Frames are addressed to the eNB they were offered
                    // for; route each to that cell's air link (frames
                    // queued across a handover still reach the old cell,
                    // as they would in a real modem flush).
                    let out = self
                        .cells
                        .iter()
                        .find(|c| c.enb_radio == frame.dst)
                        .map(|c| c.port)
                        .unwrap_or_else(|| self.serving_port());
                    ctx.send(out, frame);
                }
            }
            token::MEASURE => self.measure(ctx),
            _ => {}
        }
    }
}

/// Extra latency knob: zero-delay loopback config for app↔UE links.
pub fn loopback() -> acacia_simnet::link::LinkConfig {
    acacia_simnet::link::LinkConfig::delay_only(Duration::from_micros(50))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tft::PacketFilter;
    use acacia_simnet::packet::proto;

    fn ue() -> Ue {
        let mut ue = Ue::new(
            Imsi(1),
            Ipv4Addr::new(192, 168, 0, 2),
            Ipv4Addr::new(192, 168, 0, 1),
            radio::params::UL_RATE_EXCELLENT,
        );
        ue.ip = Some(Ipv4Addr::new(10, 10, 0, 1));
        ue.state = UeState::Connected;
        ue.bearers.push(UeBearer {
            ebi: Ebi::DEFAULT,
            qci: Qci::DEFAULT_BEARER,
            tft: Tft::new(),
        });
        ue
    }

    fn mec_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 4, 0, 1)
    }

    #[test]
    fn classification_prefers_dedicated_tft() {
        let mut u = ue();
        u.bearers.push(UeBearer {
            ebi: Ebi(6),
            qci: Qci(7),
            tft: Tft::single(PacketFilter::to_host(mec_ip())),
        });
        let to_mec = Packet::udp((Ipv4Addr::UNSPECIFIED, 1), (mec_ip(), 9000), 10);
        let to_web = Packet::udp(
            (Ipv4Addr::UNSPECIFIED, 1),
            (Ipv4Addr::new(8, 8, 8, 8), 80),
            10,
        );
        assert_eq!(u.classify_uplink(&to_mec).unwrap().ebi, Ebi(6));
        assert_eq!(u.classify_uplink(&to_web).unwrap().ebi, Ebi::DEFAULT);
    }

    #[test]
    fn without_dedicated_bearer_everything_rides_default() {
        let u = ue();
        let to_mec = Packet::udp((Ipv4Addr::UNSPECIFIED, 1), (mec_ip(), 9000), 10);
        assert_eq!(u.classify_uplink(&to_mec).unwrap().ebi, Ebi::DEFAULT);
        assert!(!u.has_dedicated_bearer());
    }

    #[test]
    fn rrc_reconfiguration_installs_bearer_and_ip() {
        let mut u = Ue::new(
            Imsi(1),
            Ipv4Addr::new(192, 168, 0, 2),
            Ipv4Addr::new(192, 168, 0, 1),
            1_000_000,
        );
        u.apply_rrc(ControlMsg::RrcReconfiguration {
            ebi: Ebi::DEFAULT,
            qci: Qci::DEFAULT_BEARER,
            tft: Tft::new(),
            ue_addr: Some(Ipv4Addr::new(10, 10, 0, 7)),
        });
        assert_eq!(u.ip, Some(Ipv4Addr::new(10, 10, 0, 7)));
        assert_eq!(u.state, UeState::Connected);
        assert_eq!(u.bearers.len(), 1);
        // Re-configuring the same EBI replaces, not duplicates.
        u.apply_rrc(ControlMsg::RrcReconfiguration {
            ebi: Ebi::DEFAULT,
            qci: Qci(8),
            tft: Tft::new(),
            ue_addr: None,
        });
        assert_eq!(u.bearers.len(), 1);
        assert_eq!(u.bearers[0].qci, Qci(8));
    }

    #[test]
    fn rrc_release_moves_to_idle() {
        let mut u = ue();
        u.apply_rrc(ControlMsg::RrcRelease { imsi: Imsi(1) });
        assert_eq!(u.state, UeState::Idle);
    }

    #[test]
    fn app_selector_matching() {
        let icmp = AppSelector::protocol(proto::ICMP);
        let p9000 = AppSelector::port(9000);
        let ping = Packet::icmp(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 56);
        let udp = Packet::udp((Ipv4Addr::UNSPECIFIED, 1), (Ipv4Addr::UNSPECIFIED, 9000), 1);
        assert!(icmp.matches(&ping));
        assert!(!icmp.matches(&udp));
        assert!(p9000.matches(&udp));
        assert!(!p9000.matches(&ping));
    }

    #[test]
    fn remove_bearer_drops_dedicated() {
        let mut u = ue();
        u.bearers.push(UeBearer {
            ebi: Ebi(6),
            qci: Qci(7),
            tft: Tft::single(PacketFilter::to_host(mec_ip())),
        });
        assert!(u.has_dedicated_bearer());
        u.remove_bearer(Ebi(6));
        assert!(!u.has_dedicated_bearer());
        assert_eq!(u.bearers.len(), 1);
    }
}
