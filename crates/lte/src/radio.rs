//! The LTE radio (Uu) interface: bearer-tagged data frames, RRC control
//! frames, and a priority-aware transmission scheduler.
//!
//! Data frames carry the EPS bearer id so the receiving side knows which
//! bearer (and thus which QoS class and S1 tunnel) a packet belongs to —
//! this is where the UE modem's UL-TFT classification becomes visible on
//! the air. RRC frames carry control messages (attach, reconfiguration
//! with TFTs, release).

use crate::ids::Ebi;
use crate::json;
use crate::wire::ControlMsg;
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, PortId};
use acacia_simnet::time::{serialization_time, Duration, Instant};
use bytes::{BufMut, BytesMut};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// IP protocol number used for radio frames in the simulator.
pub const RADIO_PROTO: u8 = 201;

/// Frame-type discriminators.
const FRAME_DATA: u8 = 1;
const FRAME_RRC: u8 = 2;

/// Decoded radio frame content.
#[derive(Debug, Clone, PartialEq)]
pub enum RadioPayload {
    /// User data on a bearer.
    Data {
        /// Bearer the frame used.
        ebi: Ebi,
        /// The user packet.
        inner: Packet,
    },
    /// RRC signalling.
    Rrc(ControlMsg),
}

/// Build a bearer-tagged data frame carrying `inner`.
pub fn data_frame(ebi: Ebi, inner: &Packet, from: Ipv4Addr, to: Ipv4Addr) -> Packet {
    let ser = crate::gtpu::serialize_inner(inner);
    let mut b = BytesMut::with_capacity(2 + ser.len());
    b.put_u8(FRAME_DATA);
    b.put_u8(ebi.0);
    b.put_slice(&ser);
    Packet {
        src: from,
        dst: to,
        src_port: 0,
        dst_port: 0,
        protocol: RADIO_PROTO,
        tos: inner.tos,
        payload: b.freeze(),
        // Preserve the inner packet's virtual length plus hidden header
        // bytes (same accounting as GTP-U encapsulation).
        app_len: inner
            .wire_size()
            .saturating_sub(28 + inner.payload.len() as u32),
        id: inner.id,
        created: inner.created,
    }
}

/// Build an RRC control frame.
pub fn rrc_frame(msg: &ControlMsg, from: Ipv4Addr, to: Ipv4Addr) -> Packet {
    msg.pad_to_spec(Packet {
        src: from,
        dst: to,
        src_port: 0,
        dst_port: 0,
        protocol: RADIO_PROTO,
        tos: 255, // control frames get top scheduling priority
        payload: json::encode(&[FRAME_RRC], msg).into(),
        app_len: 0,
        id: 0,
        created: Instant::ZERO,
    })
}

/// Parse a radio frame.
pub fn parse_frame(pkt: &Packet) -> Option<RadioPayload> {
    if pkt.protocol != RADIO_PROTO || pkt.payload.is_empty() {
        return None;
    }
    match pkt.payload[0] {
        FRAME_DATA => {
            if pkt.payload.len() < 2 {
                return None;
            }
            let ebi = Ebi(pkt.payload[1]);
            let inner = crate::gtpu::deserialize_inner(&pkt.payload.slice(2..), pkt.created)?;
            Some(RadioPayload::Data { ebi, inner })
        }
        FRAME_RRC => ControlMsg::decode(&pkt.payload[1..]).map(RadioPayload::Rrc),
        _ => None,
    }
}

/// A serial radio transmitter with strict-priority scheduling.
///
/// The owning node enqueues frames with a priority (lower = served first),
/// arms a release timer for each enqueue, and calls [`RadioScheduler::pop`]
/// on each timer expiry to obtain the next frame to put on the air.
pub struct RadioScheduler {
    rate_bps: u64,
    busy_until: Instant,
    seq: u64,
    queue: BTreeMap<(u8, u64), Packet>,
    /// Bytes queued (for a drop-tail bound).
    queued_bytes: u64,
    /// Queue bound in bytes.
    pub queue_limit: u64,
    /// Frames dropped at the queue.
    pub drops: u64,
}

impl RadioScheduler {
    /// Scheduler transmitting at `rate_bps`.
    pub fn new(rate_bps: u64) -> RadioScheduler {
        RadioScheduler {
            rate_bps,
            busy_until: Instant::ZERO,
            seq: 0,
            queue: BTreeMap::new(),
            queued_bytes: 0,
            queue_limit: 512 * 1024,
            drops: 0,
        }
    }

    /// Configured rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Change the transmission rate (affects future frames).
    pub fn set_rate(&mut self, rate_bps: u64) {
        self.rate_bps = rate_bps;
    }

    /// Offer a frame with scheduling `priority`; arms `token` on `ctx` at
    /// the instant the frame finishes serialization. Returns `false` when
    /// the frame was dropped at the queue.
    pub fn offer(&mut self, ctx: &mut Ctx<'_>, priority: u8, frame: Packet, token: u64) -> bool {
        let wire = frame.wire_size() as u64;
        if self.queued_bytes + wire > self.queue_limit {
            self.drops += 1;
            return false;
        }
        // Each enqueued frame extends the transmitter busy horizon by its
        // own serialization time; priorities reorder *which* frame pops at
        // each completion, giving strict-priority service.
        let start = self.busy_until.max(ctx.now());
        let done = start + serialization_time(wire, self.rate_bps);
        self.busy_until = done;
        self.queued_bytes += wire;
        self.queue.insert((priority, self.seq), frame);
        self.seq += 1;
        ctx.schedule_at(done, token);
        true
    }

    /// Take the highest-priority queued frame (called on timer expiry).
    pub fn pop(&mut self) -> Option<Packet> {
        let key = *self.queue.keys().next()?;
        let frame = self.queue.remove(&key)?;
        self.queued_bytes -= frame.wire_size() as u64;
        Some(frame)
    }

    /// Frames currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Map a bearer QCI priority (1..9) and control traffic onto scheduler
/// priorities.
pub fn sched_priority(tos: u8) -> u8 {
    if tos == 255 {
        0 // RRC control first
    } else {
        // Higher DSCP = more important = lower scheduler priority value.
        64u8.saturating_sub(tos >> 2).max(1)
    }
}

/// Default radio-leg parameters (calibrated so UE↔MEC RTT lands at the
/// paper's 13–15 ms, Fig. 10(a)).
pub mod params {
    use super::Duration;

    /// Uplink air rate with excellent signal (Fig. 3(d): ~12 Mbps).
    pub const UL_RATE_EXCELLENT: u64 = 12_000_000;
    /// Uplink air rate with fair signal (2/4 bars).
    pub const UL_RATE_FAIR: u64 = 6_000_000;
    /// Downlink air rate.
    pub const DL_RATE: u64 = 40_000_000;
    /// One-way air propagation + HARQ/scheduling latency.
    pub const AIR_LATENCY: Duration = Duration::from_micros(5_500);
    /// Per-frame jitter bound.
    pub const AIR_JITTER: Duration = Duration::from_micros(1_200);
}

/// Port conventions shared by UE and eNB.
pub mod port {
    use super::PortId;

    /// The UE's radio port toward its first (index-0) cell.
    pub const UE_RADIO: PortId = 0;
    /// First app-facing port on the UE.
    pub const UE_APP_BASE: PortId = 1;
    /// UE radio port toward cell index `i >= 1` is `UE_CELL_BASE + i`
    /// (app ports live below this).
    pub const UE_CELL_BASE: PortId = 200;
    /// eNB: S1-U toward the core SGW-U.
    pub const ENB_S1_CORE: PortId = 1;
    /// eNB: S1-U toward the local (MEC) GW-U.
    pub const ENB_S1_MEC: PortId = 2;
    /// eNB: S1AP toward the MME.
    pub const ENB_S1AP: PortId = 3;
    /// eNB: X2 toward peer cell index `j` is `ENB_X2_BASE + j` (ports
    /// 4..ENB_RADIO_BASE, capping the topology at 36 cells — enough for a
    /// city-scale sharded build).
    pub const ENB_X2_BASE: PortId = 4;
    /// eNB: first radio port (one per attached UE).
    pub const ENB_RADIO_BASE: PortId = 40;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Imsi;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn data_frame_roundtrip() {
        let inner = Packet::udp((ip(1), 1000), (ip(2), 2000), 900).with_id(5);
        let frame = data_frame(Ebi(6), &inner, ip(1), ip(9));
        match parse_frame(&frame).unwrap() {
            RadioPayload::Data { ebi, inner: back } => {
                assert_eq!(ebi, Ebi(6));
                assert_eq!(back.dst_port, 2000);
                assert_eq!(back.wire_size(), inner.wire_size());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn data_frame_wire_size_covers_inner() {
        let inner = Packet::udp((ip(1), 1000), (ip(2), 2000), 900);
        let frame = data_frame(Ebi(5), &inner, ip(1), ip(9));
        // Frame adds its own IP-ish header + 2 bytes of framing + the
        // serialized inner header block.
        assert!(frame.wire_size() >= inner.wire_size());
        assert!(frame.wire_size() <= inner.wire_size() + 40);
    }

    #[test]
    fn rrc_frame_roundtrip() {
        let msg = ControlMsg::RrcAttachRequest { imsi: Imsi(99) };
        let frame = rrc_frame(&msg, ip(1), ip(9));
        match parse_frame(&frame).unwrap() {
            RadioPayload::Rrc(back) => assert_eq!(back, msg),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(frame.wire_size(), msg.wire_size_spec());
    }

    #[test]
    fn garbage_is_rejected() {
        let pkt = Packet::udp((ip(1), 1), (ip(2), 2), 10);
        assert!(parse_frame(&pkt).is_none());
    }

    #[test]
    fn sched_priority_orders_control_first() {
        use crate::qci::Qci;
        let ctrl = sched_priority(255);
        let qci5 = sched_priority(Qci(5).tos());
        let qci9 = sched_priority(Qci(9).tos());
        assert!(ctrl < qci5);
        assert!(qci5 < qci9);
    }
}
