//! The radio scheduler's strict-priority behaviour, observed through a
//! minimal host node.

use acacia_lte::ids::{Ebi, Imsi};
use acacia_lte::qci::Qci;
use acacia_lte::radio::{
    data_frame, parse_frame, rrc_frame, sched_priority, RadioPayload, RadioScheduler,
};
use acacia_lte::wire::ControlMsg;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::Packet;
use acacia_simnet::sim::{Ctx, Node, PortId, Simulator};
use acacia_simnet::time::{Duration, Instant};
use acacia_simnet::traffic::Sink;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

fn ip(a: u8) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 0, a)
}

/// A node that offers each frame of its batch to a RadioScheduler at the
/// frame's instant and transmits whatever the scheduler releases.
struct TxHost {
    sched: RadioScheduler,
    batch: VecDeque<(Instant, u8, Packet)>,
}

const RELEASE: u64 = 1;
const START: u64 = 2;

impl Node for TxHost {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            START => {
                while self.batch.front().is_some_and(|f| f.0 <= ctx.now()) {
                    let (_, prio, frame) = self.batch.pop_front().unwrap();
                    self.sched.offer(ctx, prio, frame, RELEASE);
                }
            }
            RELEASE => {
                if let Some(frame) = self.sched.pop() {
                    ctx.send(0, frame);
                }
            }
            _ => {}
        }
    }
}

/// Records what it receives: a data frame's inner id, `None` for RRC.
struct Recorder {
    served: Vec<Option<u64>>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) {
        match parse_frame(&pkt) {
            Some(RadioPayload::Data { inner, .. }) => self.served.push(Some(inner.id)),
            Some(RadioPayload::Rrc(_)) => self.served.push(None),
            None => panic!("not a radio frame"),
        }
    }
}

/// A 1 150 B data frame (9.2 ms on a 1 Mbps transmitter) with inner `id`.
fn data(id: u64) -> Packet {
    let inner = Packet::udp((ip(2), 1000), (ip(1), 2000), 1_100).with_id(id);
    data_frame(Ebi(5), &inner, ip(2), ip(1))
}

/// Service order of `batch` through a 1 Mbps scheduler.
fn served(batch: Vec<(Instant, u8, Packet)>) -> Vec<Option<u64>> {
    let mut sim = Simulator::new(3);
    let starts: Vec<Instant> = batch.iter().map(|&(at, _, _)| at).collect();
    let tx = sim.add_node(Box::new(TxHost {
        sched: RadioScheduler::new(1_000_000),
        batch: batch.into(),
    }));
    let rec = sim.add_node(Box::new(Recorder { served: Vec::new() }));
    sim.connect((tx, 0), (rec, 0), LinkConfig::delay_only(Duration::ZERO));
    for at in starts {
        sim.schedule_timer(tx, at, START);
    }
    sim.run_until_idle();
    sim.node_ref::<Recorder>(rec).served.clone()
}

#[test]
fn high_priority_frames_jump_the_queue() {
    let batch = [(0, 9), (1, 9), (2, 1), (3, 9), (4, 1)]
        .map(|(id, prio)| (Instant::ZERO, prio, data(id)))
        .into();
    // Priority-1 frames (ids 2, 4) are served first, in FIFO order within
    // the class; then the priority-9 frames in FIFO order.
    let ids = served(batch);
    assert_eq!(ids, [2, 4, 0, 1, 3].map(Some), "service order {ids:?}");
}

#[test]
fn an_rrc_frame_overtakes_queued_data() {
    let best_effort = sched_priority(Qci(9).tos());
    let mut batch: Vec<_> = (0..4)
        .map(|id| (Instant::ZERO, best_effort, data(id)))
        .collect();
    // Frame 0 is released at 9.2 ms; the RRC frame arrives behind the
    // other three and is released next.
    let msg = ControlMsg::RrcAttachRequest { imsi: Imsi(7) };
    let rrc = rrc_frame(&msg, ip(2), ip(1));
    batch.push((Instant::from_millis(10), sched_priority(rrc.tos), rrc));
    let order = served(batch);
    assert_eq!(
        order,
        [Some(0), None, Some(1), Some(2), Some(3)],
        "service order {order:?}"
    );
}

#[test]
fn queue_bound_drops_excess_frames() {
    struct Host {
        sched: RadioScheduler,
    }
    impl Node for Host {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == START {
                for i in 0..100u64 {
                    let inner = Packet::udp((ip(2), 1), (ip(1), 2), 60_000).with_id(i);
                    let frame = data_frame(Ebi(5), &inner, ip(2), ip(1));
                    self.sched.offer(ctx, 5, frame, RELEASE);
                }
            } else if let Some(f) = self.sched.pop() {
                ctx.send(0, f);
            }
        }
    }
    let mut sim = Simulator::new(1);
    let mut sched = RadioScheduler::new(1_000_000);
    sched.queue_limit = 256 * 1024; // fits ~4 of the 60 KB frames
    let tx = sim.add_node(Box::new(Host { sched }));
    let rx = sim.add_node(Box::new(Sink::new()));
    sim.connect((tx, 0), (rx, 0), LinkConfig::delay_only(Duration::ZERO));
    sim.schedule_timer(tx, Instant::ZERO, START);
    sim.run_until_idle();
    let delivered = sim.node_ref::<Sink>(rx).packets();
    assert!((3..=5).contains(&delivered), "delivered {delivered}");
}
