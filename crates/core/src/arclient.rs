//! The AR front-end node: camera capture → JPEG encode (on the phone) →
//! windowed chunk upload → result, with per-frame latency breakdown.
//!
//! Runs as an app on the UE. When configured with an MRS target it first
//! performs the ACACIA device-manager handshake (request MEC connectivity,
//! wait for the ack) before streaming — the paper's on-demand dedicated
//! bearer. It also pushes periodic LTE-direct rxPower reports to the CI
//! server for localization.

use crate::msg::{AppMsg, FrameMeta, APP_PORT, AR_PORT, MRS_PORT};
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId, TimerHandle};
use acacia_simnet::time::{Duration, Instant};
use acacia_vision::compress::Codec;
use acacia_vision::compute::Device;
use acacia_vision::image::{camera_preview_fps, ImageSpec, Resolution};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Frame codec (§7.4: JPEG at quality 90).
const CODEC: Codec = Codec::Jpeg(90);
/// The phone the client runs on (its encode cost).
const DEVICE: Device = Device::OnePlusOne;
/// Chunk (MTU payload) size in bytes.
const CHUNK_BYTES: u32 = 1_400;
/// Upload window in chunks: 16 KiB of ack-clocked chunks.
const WINDOW_CHUNKS: u32 = 16 * 1024 / CHUNK_BYTES;
/// Period at which a client with `lease_recheck` re-validates its MEC
/// lease with the MRS.
const LEASE_RECHECK_PERIOD: Duration = Duration::from_millis(250);

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ArFrontendConfig {
    /// UE IP (source of all packets).
    pub ue_ip: Ipv4Addr,
    /// CI (AR) server address.
    pub server: Ipv4Addr,
    /// MRS to perform the connectivity handshake with (None = start
    /// streaming immediately, e.g. the CLOUD baseline).
    pub mrs: Option<(Ipv4Addr, String)>,
    /// Camera resolution (§7.4 uses 720×480).
    pub resolution: Resolution,
    /// Frames to capture before stopping.
    pub frame_count: u64,
    /// Scene ids (database object ids) the user photographs, cycled.
    pub scene_ids: Vec<u64>,
    /// LTE-direct readings to report every `report_period`: entry `i` is
    /// sent at the `i`-th report tick and the last entry repeats, so a
    /// fixed user's readings are a one-entry schedule. Empty = no reports.
    pub rx_report_schedule: Vec<Vec<(String, f64)>>,
    /// Report period (the LTE-direct discovery period).
    pub report_period: Duration,
    /// Minimum spacing between captures (None = camera-limited). Models a
    /// user who points at a new object every so often rather than
    /// streaming back-to-back.
    pub min_frame_interval: Option<Duration>,
    /// Device-manager lease recheck: when set, a streaming client
    /// re-validates its MEC resolution with the MRS every 250 ms. If
    /// the MRS has evicted the serving server (lease lapsed), the answer
    /// carries a different address and the client fails the session over
    /// to it (see [`ArFrontend::failovers`]).
    pub lease_recheck: bool,
}

impl ArFrontendConfig {
    /// Sensible defaults for the end-to-end experiment.
    pub fn new(ue_ip: Ipv4Addr, server: Ipv4Addr) -> ArFrontendConfig {
        ArFrontendConfig {
            ue_ip,
            server,
            mrs: None,
            resolution: Resolution::E2E,
            frame_count: 10,
            scene_ids: vec![1],
            rx_report_schedule: Vec::new(),
            report_period: Duration::from_secs(5),
            min_frame_interval: None,
            lease_recheck: false,
        }
    }
}

/// Per-frame client-side measurements.
#[derive(Debug, Clone)]
pub struct FrameStats {
    /// Frame sequence number.
    pub seq: u64,
    /// Capture instant.
    pub captured_at: Instant,
    /// Phone-side encode time, seconds (virtual).
    pub encode_s: f64,
    /// Result arrival instant.
    pub result_at: Instant,
    /// Server-reported decode + SURF time, seconds.
    pub server_compute_s: f64,
    /// Server-reported match time, seconds.
    pub server_match_s: f64,
    /// Candidates the server examined.
    pub candidates: usize,
    /// Matched tag, if any.
    pub matched: Option<Arc<str>>,
}

impl FrameStats {
    /// End-to-end latency (capture → result).
    pub fn total_s(&self) -> f64 {
        (self.result_at - self.captured_at).secs_f64()
    }

    /// Compute component: client encode + server decode/SURF.
    pub fn compute_s(&self) -> f64 {
        self.encode_s + self.server_compute_s
    }

    /// Match component.
    pub fn match_s(&self) -> f64 {
        self.server_match_s
    }

    /// Network component: what's left after compute and match.
    pub fn network_s(&self) -> f64 {
        (self.total_s() - self.compute_s() - self.match_s()).max(0.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Boot,
    AwaitingMrs,
    Streaming,
    Done,
}

mod token {
    /// Start (MRS handshake or first capture).
    pub const KICKOFF: u64 = 1;
    /// Capture the next frame.
    pub const CAPTURE: u64 = 2;
    /// Encoding finished; begin upload.
    pub const ENCODED: u64 = 3;
    /// Send the periodic rxPower reports.
    pub const REPORT: u64 = 4;
    /// Loss-recovery check for the in-flight frame (or the MRS request).
    /// Re-arming (e.g. a new frame upload) cancels the pending check, so
    /// one that fires is the most recently armed and checks never stack
    /// up to race each other's stall watermark.
    pub const RETRANSMIT: u64 = 5;
    /// Re-issue the MRS connectivity request mid-stream (after a
    /// serving-cell change); idempotent at the MRS/PCEF.
    pub const REANCHOR: u64 = 6;
    /// Periodic device-manager lease recheck (self-rescheduling while
    /// streaming; see `ArFrontendConfig::lease_recheck`).
    pub const RECHECK: u64 = 7;
}

/// The AR front-end node.
pub struct ArFrontend {
    cfg: ArFrontendConfig,
    phase: Phase,
    seq: u64,
    captured_at: Instant,
    encode_s: f64,
    /// Upload state of the in-flight frame.
    total_chunks: u32,
    next_chunk: u32,
    /// Per-chunk ack flags for the in-flight frame (selective repeat).
    acked: Vec<bool>,
    /// Chunks acked by the server for the in-flight frame.
    acked_chunks: u32,
    /// Is an upload currently in flight (between ENCODED and the result)?
    uploading: bool,
    /// Progress watermark used by the retransmission timer: (seq,
    /// acked_chunks) at the last check.
    retx_watermark: (u64, u32),
    /// The live retransmission timer, cancelled when re-armed.
    retx_timer: Option<TimerHandle>,
    /// Consecutive stalled checks while awaiting the server's result (the
    /// server may legitimately be computing for a while).
    result_stall_checks: u32,
    /// Retransmissions performed (for diagnostics/tests).
    pub retransmissions: u64,
    /// Mid-stream MRS re-anchor requests issued (serving-cell changes).
    pub reanchor_requests: u64,
    /// MRS acks received while already streaming (re-anchor confirms).
    pub reanchor_acks: u64,
    /// The CI server the session is currently anchored to. Starts at
    /// `cfg.server` and moves when an MRS answer resolves elsewhere (the
    /// serving MEC's lease lapsed, or it was restored).
    current_server: Ipv4Addr,
    /// Session failovers performed (adoptions of a different server).
    pub failovers: u64,
    /// One entry per failover: (when, service interruption) — the gap
    /// since the last forward progress (chunk ack / result / upload
    /// start) at the moment the new server was adopted.
    pub failover_log: Vec<(Instant, Duration)>,
    /// Lease rechecks issued (periodic idempotent MRS re-requests).
    pub lease_rechecks: u64,
    /// Instant of the last forward progress on the session.
    last_progress_at: Instant,
    spec: ImageSpec,
    /// Bearer-setup handshake duration (when MRS is configured).
    pub bearer_setup: Option<Duration>,
    mrs_requested_at: Option<Instant>,
    /// Completed frame statistics.
    pub frames: Vec<FrameStats>,
    /// Report ticks emitted so far (indexes the report schedule).
    report_ticks: usize,
}

// One per session, kept for the whole run: codec, device, window and chunk
// size are constants, and the phone's compute profile is looked up per
// frame rather than kept.
const _: () = assert!(std::mem::size_of::<ArFrontend>() <= 392);

impl ArFrontend {
    /// The timer token that must be armed to start the client:
    /// `sim.schedule_timer(node, start, ArFrontend::KICKOFF)`.
    pub const KICKOFF: u64 = token::KICKOFF;

    /// Timer token asking a *streaming* client to repeat its MRS
    /// connectivity handshake (the device-manager path after a
    /// serving-cell change). The request is idempotent at the PCEF: if
    /// the dedicated bearer survived the handover it just acks; if it was
    /// torn down, it is re-created on the new cell.
    pub const REANCHOR: u64 = token::REANCHOR;

    /// The CI server the session is currently anchored to (moves on
    /// failover; starts at `cfg.server`).
    pub(crate) fn current_server(&self) -> Ipv4Addr {
        self.current_server
    }

    /// New client.
    pub fn new(cfg: ArFrontendConfig) -> ArFrontend {
        let current_server = cfg.server;
        ArFrontend {
            cfg,
            phase: Phase::Boot,
            seq: 0,
            captured_at: Instant::ZERO,
            encode_s: 0.0,
            total_chunks: 0,
            next_chunk: 0,
            acked: Vec::new(),
            acked_chunks: 0,
            uploading: false,
            retx_watermark: (u64::MAX, 0),
            retx_timer: None,
            result_stall_checks: 0,
            retransmissions: 0,
            reanchor_requests: 0,
            reanchor_acks: 0,
            current_server,
            failovers: 0,
            failover_log: Vec::new(),
            lease_rechecks: 0,
            last_progress_at: Instant::ZERO,
            spec: ImageSpec::new(0, Resolution::E2E),
            bearer_setup: None,
            mrs_requested_at: None,
            frames: Vec::new(),
            report_ticks: 0,
        }
    }

    /// Has the client finished its configured frame budget?
    pub(crate) fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn camera_interval(&self) -> Duration {
        let cam = Duration::from_secs_f64(1.0 / camera_preview_fps(self.cfg.resolution));
        match self.cfg.min_frame_interval {
            Some(min) => cam.max(min),
            None => cam,
        }
    }

    fn send_app(&self, ctx: &mut Ctx<'_>, dst: (Ipv4Addr, u16), msg: &AppMsg, extra: u32) {
        let pkt = msg.into_packet((self.cfg.ue_ip, APP_PORT), dst, extra, ctx.now());
        ctx.send(0, pkt);
    }

    fn capture(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq >= self.cfg.frame_count {
            self.phase = Phase::Done;
            return;
        }
        let scene = self.cfg.scene_ids[(self.seq as usize) % self.cfg.scene_ids.len()];
        self.spec = ImageSpec::new(scene, self.cfg.resolution);
        self.captured_at = ctx.now();
        self.encode_s = CODEC.encode_time_s(self.spec, &DEVICE.profile());
        ctx.schedule_in(Duration::from_secs_f64(self.encode_s), token::ENCODED);
    }

    fn frame_bytes(&self) -> u32 {
        CODEC.bytes(self.spec) as u32
    }

    fn send_chunk(&mut self, ctx: &mut Ctx<'_>, chunk: u32) {
        let total_bytes = self.frame_bytes();
        let full = CHUNK_BYTES;
        let offset = chunk * full;
        let this = full.min(total_bytes.saturating_sub(offset)).max(1);
        let meta = (chunk == 0).then(|| FrameMeta {
            spec: self.spec,
            codec: CODEC,
            view_seed: self.seq.wrapping_mul(0x9e37_79b9) ^ self.spec.scene_id,
            captured_at_nanos: self.captured_at.nanos(),
        });
        let msg = AppMsg::FrameChunk {
            seq: self.seq,
            chunk,
            total_chunks: self.total_chunks,
            meta,
        };
        self.send_app(ctx, (self.current_server, AR_PORT), &msg, this);
    }

    fn begin_upload(&mut self, ctx: &mut Ctx<'_>) {
        let total_bytes = self.frame_bytes();
        self.total_chunks = total_bytes.div_ceil(CHUNK_BYTES).max(1);
        let window_chunks = WINDOW_CHUNKS;
        let initial = window_chunks.min(self.total_chunks);
        for c in 0..initial {
            self.send_chunk(ctx, c);
        }
        self.next_chunk = initial;
        self.acked = vec![false; self.total_chunks as usize];
        self.acked_chunks = 0;
        self.uploading = true;
        self.result_stall_checks = 0;
        self.last_progress_at = ctx.now();
        // Arm loss recovery with the watermark at the current (zero-ack)
        // state, so a first window lost outright is detected at the very
        // first timer fire.
        self.retx_watermark = (self.seq, self.acked_chunks);
        self.arm_retx(ctx);
    }

    /// Retransmission timeout: generous multiple of a worst-case RTT.
    fn retx_timeout(&self) -> Duration {
        Duration::from_millis(500)
    }

    /// (Re)arm the loss-recovery timer, cancelling any pending one.
    fn arm_retx(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(h) = self.retx_timer.take() {
            ctx.cancel_timer(h);
        }
        self.retx_timer = Some(ctx.schedule_in_cancellable(self.retx_timeout(), token::RETRANSMIT));
    }

    /// Ask the MRS (if configured) to resolve the service: the kickoff
    /// handshake, its retransmission, a re-anchor and a lease recheck
    /// all send this same idempotent request. Returns whether one was
    /// sent.
    fn request_mrs(&self, ctx: &mut Ctx<'_>) -> bool {
        let Some((mrs_addr, service)) = &self.cfg.mrs else {
            return false;
        };
        let msg = AppMsg::MrsRequest {
            service: service.clone(),
            ue_addr: self.cfg.ue_ip,
            create: true,
        };
        self.send_app(ctx, (*mrs_addr, MRS_PORT), &msg, 0);
        true
    }

    /// Restart the in-flight frame's upload from chunk 0 (lost
    /// FrameResult, or a freshly adopted server with empty state).
    fn replay_frame(&mut self, ctx: &mut Ctx<'_>) {
        self.acked.iter_mut().for_each(|a| *a = false);
        self.acked_chunks = 0;
        let window_chunks = WINDOW_CHUNKS;
        let resend = window_chunks.min(self.total_chunks);
        for c in 0..resend {
            self.send_chunk(ctx, c);
        }
        self.next_chunk = resend;
    }

    /// Move the session to a different CI server (the MRS resolved
    /// elsewhere). The new server has no session state, so the in-flight
    /// frame — if any — is replayed from scratch, exactly like the lost
    /// FrameResult path. The interruption recorded is the gap since the
    /// session last made forward progress.
    fn adopt_server(&mut self, ctx: &mut Ctx<'_>, server: Ipv4Addr) {
        self.failovers += 1;
        let gap = ctx.now() - self.last_progress_at;
        self.failover_log.push((ctx.now(), gap));
        self.current_server = server;
        if self.uploading {
            self.replay_frame(ctx);
            self.result_stall_checks = 0;
            self.retx_watermark = (self.seq, self.acked_chunks);
            self.arm_retx(ctx);
        }
    }

    fn check_retransmit(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::Streaming || !self.uploading {
            return;
        }
        let current = (self.seq, self.acked_chunks);
        let stalled = current == self.retx_watermark;
        let upload_complete = self.acked_chunks >= self.total_chunks;
        // While the upload itself is stalled (unacked chunks), resend
        // promptly. Once everything is acked the server may legitimately
        // be computing for a while — only resend after several quiet
        // periods (a lost FrameResult).
        let should_resend = if upload_complete {
            if stalled {
                self.result_stall_checks += 1;
            } else {
                self.result_stall_checks = 0;
            }
            self.result_stall_checks >= 4
        } else {
            stalled
        };
        if should_resend {
            self.retransmissions += 1;
            self.result_stall_checks = 0;
            if upload_complete {
                // Lost FrameResult: the server already consumed its copy
                // of the frame, so replay the upload from scratch to make
                // it reassemble and reprocess (acks re-clock the window).
                self.replay_frame(ctx);
            } else {
                // Selective repeat: resend exactly the outstanding (sent
                // but unacked) chunks — the server acks duplicates, so an
                // ack lost on the way back heals the same way.
                for c in 0..self.next_chunk {
                    if !self.acked[c as usize] {
                        self.send_chunk(ctx, c);
                    }
                }
            }
        }
        self.retx_watermark = (self.seq, self.acked_chunks);
        self.arm_retx(ctx);
    }

    fn on_result(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: u64,
        matched: Option<Arc<str>>,
        compute_s: f64,
        match_s: f64,
        cands: usize,
    ) {
        if seq != self.seq || self.phase != Phase::Streaming {
            return;
        }
        self.uploading = false;
        self.last_progress_at = ctx.now();
        self.frames.push(FrameStats {
            seq,
            captured_at: self.captured_at,
            encode_s: self.encode_s,
            result_at: ctx.now(),
            server_compute_s: compute_s,
            server_match_s: match_s,
            candidates: cands,
            matched,
        });
        self.seq += 1;
        if self.seq >= self.cfg.frame_count {
            self.phase = Phase::Done;
            return;
        }
        // Closed loop, but never faster than the camera.
        let next = (self.captured_at + self.camera_interval()).max(ctx.now());
        ctx.schedule_at(next, token::CAPTURE);
    }

    fn send_reports(&mut self, ctx: &mut Ctx<'_>) {
        let schedule = &self.cfg.rx_report_schedule;
        let readings = &schedule[self.report_ticks.min(schedule.len() - 1)];
        for (landmark, rx) in readings {
            let msg = AppMsg::RxReport {
                landmark: landmark.clone(),
                rx_power_dbm: *rx,
            };
            self.send_app(ctx, (self.current_server, AR_PORT), &msg, 0);
        }
        self.report_ticks += 1;
    }

    /// Are periodic reports configured at all?
    fn has_reports(&self) -> bool {
        !self.cfg.rx_report_schedule.is_empty()
    }
}

impl Node for ArFrontend {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        match AppMsg::from_packet(&pkt) {
            Some(AppMsg::MrsAck { ok, server, .. }) if self.phase == Phase::Streaming => {
                if ok {
                    // Re-anchor confirmation after a cell change;
                    // streaming never stopped (selective repeat bridged
                    // the gap).
                    self.reanchor_acks += 1;
                }
                // The MRS resolved a *different* server: the serving
                // MEC's lease lapsed (or was restored). Fail the session
                // over regardless of `ok` — ok:false with an address
                // means no dedicated bearer could be set up, so the new
                // leg simply rides the default bearer.
                if let Some(s) = server {
                    if s != self.current_server {
                        self.adopt_server(ctx, s);
                    }
                }
            }
            Some(AppMsg::MrsAck { ok, server, .. }) if self.phase == Phase::AwaitingMrs => {
                if let Some(t0) = self.mrs_requested_at {
                    self.bearer_setup = Some(ctx.now() - t0);
                }
                if ok {
                    self.phase = Phase::Streaming;
                    // Anchor to whatever the MRS resolved (it may not be
                    // the configured default, e.g. a dead local MEC at
                    // boot time).
                    if let Some(s) = server {
                        self.current_server = s;
                    }
                    self.last_progress_at = ctx.now();
                    if self.cfg.lease_recheck {
                        ctx.schedule_in(LEASE_RECHECK_PERIOD, token::RECHECK);
                    }
                    if self.has_reports() {
                        self.send_reports(ctx);
                        ctx.schedule_in(self.cfg.report_period, token::REPORT);
                    }
                    self.capture(ctx);
                } else {
                    self.phase = Phase::Done;
                }
            }
            Some(AppMsg::ChunkAck { seq, chunk })
                if seq == self.seq && self.phase == Phase::Streaming =>
            {
                // First ack for a chunk clocks the window forward;
                // duplicate acks (from retransmitted chunks) are ignored.
                if let Some(slot) = self.acked.get_mut(chunk as usize) {
                    if !*slot {
                        *slot = true;
                        self.acked_chunks += 1;
                        self.last_progress_at = ctx.now();
                        if self.next_chunk < self.total_chunks {
                            let c = self.next_chunk;
                            self.next_chunk += 1;
                            self.send_chunk(ctx, c);
                        }
                    }
                }
            }
            Some(AppMsg::FrameResult {
                seq,
                matched,
                compute_s,
                match_s,
                candidates,
            }) => self.on_result(ctx, seq, matched, compute_s, match_s, candidates),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tok: u64) {
        match tok {
            token::RETRANSMIT => {
                self.retx_timer = None; // this fire consumed the live timer
                if self.phase != Phase::AwaitingMrs {
                    self.check_retransmit(ctx);
                } else if self.request_mrs(ctx) {
                    // MRS request or ack lost: ask again (the MRS side is
                    // idempotent per service).
                    self.retransmissions += 1;
                    self.arm_retx(ctx);
                }
            }
            token::KICKOFF => {
                if self.request_mrs(ctx) {
                    self.phase = Phase::AwaitingMrs;
                    self.mrs_requested_at = Some(ctx.now());
                    self.arm_retx(ctx);
                } else {
                    self.phase = Phase::Streaming;
                    if self.has_reports() {
                        self.send_reports(ctx);
                        ctx.schedule_in(self.cfg.report_period, token::REPORT);
                    }
                    self.capture(ctx);
                }
            }
            token::CAPTURE if self.phase == Phase::Streaming => {
                self.capture(ctx);
            }
            token::ENCODED if self.phase == Phase::Streaming => {
                self.begin_upload(ctx);
            }
            token::REPORT if self.phase == Phase::Streaming => {
                self.send_reports(ctx);
                ctx.schedule_in(self.cfg.report_period, token::REPORT);
            }
            token::REANCHOR if self.phase == Phase::Streaming => {
                let sent = self.request_mrs(ctx);
                self.reanchor_requests += u64::from(sent);
            }
            token::RECHECK if self.phase == Phase::Streaming => {
                // Periodic lease recheck: idempotent re-request. If the
                // serving MEC is still live the MRS answers with the same
                // address (no-op); if its lease lapsed, the answer names
                // the failover target and `adopt_server` runs.
                if self.request_mrs(ctx) {
                    self.lease_rechecks += 1;
                }
                if self.cfg.lease_recheck {
                    ctx.schedule_in(LEASE_RECHECK_PERIOD, token::RECHECK);
                }
            }
            _ => {}
        }
    }
}
