//! The LTE radio (Uu) interface: bearer-tagged data frames, RRC control
//! frames, and a priority-aware transmission scheduler.
//!
//! Data frames carry the EPS bearer id so the receiving side knows which
//! bearer (and thus which QoS class and S1 tunnel) a packet belongs to —
//! this is where the UE modem's UL-TFT classification becomes visible on
//! the air. Both kinds travel typed: an RRC frame carries its control
//! message (attach, reconfiguration with TFTs, release), one frame-type
//! byte plus the message's JSON length on the wire; a data frame carries
//! its bearer id and inner packet, two bytes of framing plus the inner
//! packet's header block and payload.

use crate::gtpu::INNER_HEADER;
use crate::ids::Ebi;
use crate::wire::ControlMsg;
use acacia_simnet::packet::{Message, Packet, Payload};
use acacia_simnet::sim::{Ctx, PortId};
use acacia_simnet::time::{serialization_time, Duration, Instant};
use std::net::Ipv4Addr;

/// IP protocol number used for radio frames in the simulator.
pub const RADIO_PROTO: u8 = 201;

/// A data frame is its frame-type byte (1) and the bearer id, then the
/// inner packet's header block and payload.
const DATA_HEADER: u32 = 2;
/// An RRC frame is its frame-type byte (2) then the message's JSON.
const RRC_HEADER: u32 = 1;

/// A bearer-tagged data frame's payload: the bearer id and the user
/// packet.
#[derive(Debug, PartialEq)]
struct DataFrame {
    ebi: Ebi,
    inner: Packet,
}

/// Untagged: no fault rule selects a data frame by tag.
impl Message for DataFrame {
    fn encoded_len(&self) -> u32 {
        INNER_HEADER + self.inner.payload.len() as u32
    }
}

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
///
/// # Panics
///
/// On a control message, as [`crate::gtpu::encapsulate`] does.
pub fn data_frame(ebi: Ebi, inner: &Packet, from: Ipv4Addr, to: Ipv4Addr) -> Packet {
    Packet {
        src: from,
        dst: to,
        src_port: 0,
        dst_port: 0,
        protocol: RADIO_PROTO,
        tos: inner.tos,
        // Preserve the inner packet's virtual length plus hidden header
        // bytes (same accounting as GTP-U encapsulation).
        app_len: inner
            .wire_size()
            .saturating_sub(INNER_HEADER + inner.payload.len() as u32),
        id: inner.id,
        created: inner.created,
        payload: Payload::typed(
            DATA_HEADER,
            DataFrame {
                ebi,
                inner: crate::gtpu::carried(inner),
            },
        ),
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
        payload: Payload::typed(RRC_HEADER, msg.clone()),
        app_len: 0,
        id: 0,
        created: Instant::ZERO,
    })
}

/// Parse a radio frame: an RRC frame's control message, or a data frame's
/// bearer and inner packet, created when the frame was.
pub fn parse_frame(pkt: &Packet) -> Option<RadioPayload> {
    if pkt.protocol != RADIO_PROTO {
        return None;
    }
    if let Some(f) = pkt.payload.msg::<DataFrame>() {
        let inner = Packet {
            created: pkt.created,
            ..f.inner.clone()
        };
        return Some(RadioPayload::Data { ebi: f.ebi, inner });
    }
    pkt.payload
        .msg::<ControlMsg>()
        .cloned()
        .map(RadioPayload::Rrc)
}

/// A serial radio transmitter with strict-priority scheduling.
///
/// The owning node enqueues frames with a priority (lower = served first),
/// arms a release timer for each enqueue, and calls [`RadioScheduler::pop`]
/// on each timer expiry to obtain the next frame to put on the air.
///
/// The queue is a `Vec` in reverse service order (priority descending,
/// newest first within a priority), so the next frame is the last one and
/// an insertion's position alone keeps each class first-in first-out. It
/// is freed whenever it drains: a UE is idle on the air most of the time,
/// and an idle scheduler holds no heap.
pub struct RadioScheduler {
    rate_bps: u64,
    busy_until: Instant,
    queue: Vec<(u8, Packet)>,
    /// Bytes queued (for a drop-tail bound).
    queued_bytes: u64,
    /// Queue bound in bytes.
    pub queue_limit: u64,
    /// Frames dropped at the queue.
    pub drops: u64,
}

// One per UE and per eNB, kept for the whole run.
const _: () = assert!(std::mem::size_of::<RadioScheduler>() <= 64);

impl RadioScheduler {
    /// Scheduler transmitting at `rate_bps`.
    pub fn new(rate_bps: u64) -> RadioScheduler {
        RadioScheduler {
            rate_bps,
            busy_until: Instant::ZERO,
            queue: Vec::new(),
            queued_bytes: 0,
            queue_limit: 512 * 1024,
            drops: 0,
        }
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
        // Behind every lower priority, ahead of the older frames of its own.
        let at = self.queue.partition_point(|&(p, _)| p > priority);
        if self.queue.capacity() == 0 {
            // Most queues hold one frame at a time: a drained queue's
            // first frame gets room for itself, not the default four.
            self.queue.reserve_exact(1);
        }
        self.queue.insert(at, (priority, frame));
        ctx.schedule_at(done, token);
        true
    }

    /// Take the highest-priority queued frame (called on timer expiry).
    pub fn pop(&mut self) -> Option<Packet> {
        let (_, frame) = self.queue.pop()?;
        if self.queue.is_empty() {
            self.queue = Vec::new();
        }
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
                assert_eq!(back, inner);
                assert_eq!(back.wire_size(), inner.wire_size());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deframed_inner_is_created_with_the_frame() {
        let inner =
            Packet::udp((ip(1), 1000), (ip(2), 2000), 900).with_created(Instant::from_millis(1));
        let mut frame = data_frame(Ebi(6), &inner, ip(1), ip(9));
        frame.created = Instant::from_millis(4);
        match parse_frame(&frame) {
            Some(RadioPayload::Data { inner: back, .. }) => {
                assert_eq!(back.created, Instant::from_millis(4))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn data_frame_payload_is_framing_plus_the_inner_header_block() {
        let inner = Packet::udp((ip(1), 1000), (ip(2), 2000), 900);
        let frame = data_frame(Ebi(5), &inner, ip(1), ip(9));
        assert_eq!(frame.payload.len(), 30);
        assert_eq!(frame.payload.tag(), None);
        // A tunnel inside a frame counts its own 36 bytes too.
        let outer = crate::gtpu::encapsulate(&inner, crate::ids::Teid(1), ip(1), ip(2));
        let frame = data_frame(Ebi(5), &outer, ip(1), ip(9));
        assert_eq!(frame.payload.len(), 30 + 36);
        assert_eq!(frame.wire_size(), outer.wire_size() + 22);
    }

    #[test]
    #[should_panic(expected = "never a typed control message")]
    fn framing_a_control_message_as_data_panics() {
        let msg = ControlMsg::RrcAttachRequest { imsi: Imsi(99) };
        data_frame(Ebi(5), &msg.into_packet(ip(1), ip(2)), ip(1), ip(9));
    }

    #[test]
    fn data_frame_wire_size_covers_inner() {
        let inner = Packet::udp((ip(1), 1000), (ip(2), 2000), 900);
        let frame = data_frame(Ebi(5), &inner, ip(1), ip(9));
        // Frame adds its own IP-ish header + 2 bytes of framing + the
        // inner header block, less the inner UDP header it stands for.
        assert_eq!(frame.wire_size(), inner.wire_size() + 20 + 30 - 28);
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
        let mut pkt = Packet::udp((ip(1), 1), (ip(2), 2), 10);
        assert!(parse_frame(&pkt).is_none());
        // A radio frame that is neither data nor RRC.
        pkt.protocol = RADIO_PROTO;
        assert!(parse_frame(&pkt).is_none());
        let tunnel = crate::gtpu::encapsulate(&pkt, crate::ids::Teid(1), ip(1), ip(2));
        pkt.payload = tunnel.payload;
        assert!(parse_frame(&pkt).is_none());
    }

    #[test]
    fn a_drained_scheduler_holds_no_buffer() {
        use acacia_simnet::sim::{Node, Simulator};
        /// Offers a burst on token 0 and pops one frame per release,
        /// noting the queue's capacity after each step.
        struct Tx {
            sched: RadioScheduler,
            capacity: Vec<usize>,
        }
        impl Node for Tx {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == 0 {
                    for prio in [9, 0, 9] {
                        let frame = Packet::udp((ip(1), 1), (ip(2), 2), 500);
                        assert!(self.sched.offer(ctx, prio, frame, 1));
                    }
                } else {
                    self.sched.pop().expect("one frame per release");
                }
                self.capacity.push(self.sched.queue.capacity());
            }
        }
        let mut sim = Simulator::new(1);
        let tx = sim.add_node(Box::new(Tx {
            sched: RadioScheduler::new(1_000_000),
            capacity: Vec::new(),
        }));
        // Two busy periods, the second long after the first drained.
        sim.schedule_timer(tx, Instant::ZERO, 0);
        sim.schedule_timer(tx, Instant::from_millis(100), 0);
        sim.run_until_idle();
        let tx = sim.node_ref::<Tx>(tx);
        let cap = &tx.capacity;
        assert_eq!(cap.len(), 8, "{cap:?}");
        assert!(cap[..3].iter().chain(&cap[4..7]).all(|&c| c > 0), "{cap:?}");
        assert_eq!((cap[3], cap[7]), (0, 0), "{cap:?}");
        assert_eq!(tx.sched.queued(), 0);
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
