//! Property-based tests for the LTE wire formats, tunnelling and TFTs.

use acacia_lte::gtpu;
use acacia_lte::ids::{Ebi, Imsi, Teid};
use acacia_lte::json;
use acacia_lte::qci::Qci;
use acacia_lte::radio::{self, RadioPayload, RadioScheduler};
use acacia_lte::tft::{Direction, PacketFilter, Tft};
use acacia_lte::wire::{ControlMsg, ErabSetup, FlowActionSpec, FlowMatchSpec, PolicyRule};
use acacia_simnet::packet::{l4_header_len, Message, Packet, Payload, IPV4_HEADER};
use acacia_simnet::sim::{Ctx, Node, PortId, Simulator};
use acacia_simnet::time::{serialization_time, Duration, Instant};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn arb_ip() -> BoxedStrategy<Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from).boxed()
}

/// A user message that is only its length.
#[derive(Debug, PartialEq)]
struct Opaque(u32);

impl Message for Opaque {
    fn encoded_len(&self) -> u32 {
        self.0
    }
}

fn arb_packet() -> BoxedStrategy<Packet> {
    (
        arb_ip(),
        arb_ip(),
        any::<u16>(),
        any::<u16>(),
        prop::sample::select(vec![1u8, 6, 17, 132]),
        any::<u8>(),
        0u32..100_000,
        prop::option::of(0u32..128),
        any::<u64>(),
    )
        .prop_map(
            |(src, dst, sp, dp, proto, tos, app_len, payload, id)| Packet {
                src,
                dst,
                src_port: sp,
                dst_port: dp,
                protocol: proto,
                tos,
                payload: payload.map_or_else(Payload::default, |n| Payload::typed(0, Opaque(n))),
                app_len,
                id,
                created: Instant::from_nanos(42),
            },
        )
        .boxed()
}

fn arb_tft() -> BoxedStrategy<Tft> {
    prop::collection::vec(
        (
            any::<u8>(),
            prop::sample::select(vec![
                Direction::Uplink,
                Direction::Downlink,
                Direction::Bidirectional,
            ]),
            prop::option::of((arb_ip(), 0u8..=32)),
            prop::option::of((any::<u16>(), any::<u16>())),
            prop::option::of(prop::sample::select(vec![1u8, 6, 17])),
        )
            .prop_map(|(precedence, direction, remote_addr, ports, protocol)| {
                PacketFilter {
                    precedence,
                    direction,
                    remote_addr,
                    remote_port: ports.map(|(a, b)| (a.min(b), a.max(b))),
                    protocol,
                }
            }),
        0..4,
    )
    .prop_map(|filters| Tft { filters })
    .boxed()
}

fn arb_erab() -> BoxedStrategy<ErabSetup> {
    (any::<u8>(), 1u8..10, any::<u32>(), arb_ip(), arb_tft())
        .prop_map(|(ebi, qci, teid, addr, tft)| ErabSetup {
            ebi: Ebi(ebi),
            qci: Qci(qci),
            gw_teid: Teid(teid),
            gw_addr: addr,
            tft,
        })
        .boxed()
}

fn arb_rule() -> BoxedStrategy<PolicyRule> {
    (
        any::<u32>(),
        arb_ip(),
        arb_ip(),
        any::<u16>(),
        1u8..10,
        any::<bool>(),
    )
        .prop_map(|(sid, ue, srv, port, qci, install)| PolicyRule {
            service_id: sid,
            ue_addr: ue,
            server_addr: srv,
            server_port: port,
            qci: Qci(qci),
            install,
        })
        .boxed()
}

fn arb_msg() -> BoxedStrategy<ControlMsg> {
    let imsi = any::<u64>().prop_map(Imsi).boxed();
    let erab = arb_erab();
    prop_oneof![
        imsi.clone()
            .prop_map(|i| ControlMsg::InitialUeAttach { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::UeContextReleaseRequest { imsi: i }),
        (imsi.clone(), erab.clone())
            .prop_map(|(i, e)| ControlMsg::ErabSetupRequest { imsi: i, erab: e }),
        (imsi.clone(), prop::collection::vec(erab, 0..2))
            .prop_map(|(i, es)| ControlMsg::InitialContextSetupRequest { imsi: i, erabs: es }),
        (imsi.clone(), any::<u32>(), arb_ip()).prop_map(|(i, t, a)| {
            ControlMsg::ModifyBearerRequest {
                imsi: i,
                enb_teid: Teid(t),
                enb_addr: a,
            }
        }),
        arb_rule().prop_map(|rule| ControlMsg::RxAuthRequest { rule }),
        (
            any::<bool>(),
            any::<u16>(),
            prop::option::of(any::<u32>()),
            prop::option::of(arb_ip())
        )
            .prop_map(|(add, prio, teid, dst)| ControlMsg::FlowMod {
                add,
                priority: prio,
                mtch: FlowMatchSpec {
                    teid: teid.map(Teid),
                    dst,
                    src: None,
                },
                actions: vec![FlowActionSpec::GtpDecap, FlowActionSpec::Output { port: 2 }],
            }),
    ]
    .boxed()
}

/// Every `ControlMsg` variant, across all five protocol families — the
/// full-coverage generator for the encode→decode→encode identities.
fn arb_msg_any() -> BoxedStrategy<ControlMsg> {
    let imsi = any::<u64>().prop_map(Imsi).boxed();
    let erab = arb_erab();
    let rule = arb_rule();
    let s1ap = prop_oneof![
        imsi.clone()
            .prop_map(|i| ControlMsg::InitialUeServiceRequest { imsi: i }),
        (
            imsi.clone(),
            prop::collection::vec((any::<u8>(), any::<u32>()), 0..3)
        )
            .prop_map(|(i, ts)| ControlMsg::InitialContextSetupResponse {
                imsi: i,
                enb_teids: ts.into_iter().map(|(e, t)| (Ebi(e), Teid(t))).collect(),
            }),
        (imsi.clone(), prop::option::of(arb_ip())).prop_map(|(i, a)| {
            ControlMsg::DownlinkNasAccept {
                imsi: i,
                ue_addr: a,
            }
        }),
        (imsi.clone(), any::<u8>(), any::<u32>()).prop_map(|(i, e, t)| {
            ControlMsg::ErabSetupResponse {
                imsi: i,
                ebi: Ebi(e),
                enb_teid: Teid(t),
            }
        }),
        (imsi.clone(), any::<u8>()).prop_map(|(i, e)| ControlMsg::ErabReleaseCommand {
            imsi: i,
            ebi: Ebi(e)
        }),
        (imsi.clone(), any::<u8>()).prop_map(|(i, e)| ControlMsg::ErabReleaseResponse {
            imsi: i,
            ebi: Ebi(e)
        }),
        imsi.clone()
            .prop_map(|i| ControlMsg::UeContextReleaseCommand { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::UeContextReleaseComplete { imsi: i }),
        imsi.clone().prop_map(|i| ControlMsg::Paging { imsi: i }),
    ];
    let gtpv2 = prop_oneof![
        imsi.clone()
            .prop_map(|i| ControlMsg::CreateSessionRequest { imsi: i }),
        (imsi.clone(), arb_ip(), erab.clone()).prop_map(|(i, a, e)| {
            ControlMsg::CreateSessionResponse {
                imsi: i,
                ue_addr: a,
                erab: e,
            }
        }),
        (imsi.clone(), erab.clone())
            .prop_map(|(i, e)| ControlMsg::CreateBearerRequest { imsi: i, erab: e }),
        (imsi.clone(), any::<u8>(), any::<u32>(), arb_ip()).prop_map(|(i, e, t, a)| {
            ControlMsg::CreateBearerResponse {
                imsi: i,
                ebi: Ebi(e),
                enb_teid: Teid(t),
                enb_addr: a,
            }
        }),
        (imsi.clone(), any::<u8>()).prop_map(|(i, e)| ControlMsg::DeleteBearerRequest {
            imsi: i,
            ebi: Ebi(e)
        }),
        (imsi.clone(), any::<u8>()).prop_map(|(i, e)| ControlMsg::DeleteBearerResponse {
            imsi: i,
            ebi: Ebi(e)
        }),
        imsi.clone()
            .prop_map(|i| ControlMsg::ReleaseAccessBearersRequest { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::ReleaseAccessBearersResponse { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::ModifyBearerResponse { imsi: i }),
        any::<u32>().prop_map(|t| ControlMsg::DownlinkDataByTeid { teid: Teid(t) }),
        imsi.clone()
            .prop_map(|i| ControlMsg::DownlinkDataNotification { imsi: i }),
    ];
    let diameter = prop_oneof![
        (any::<u32>(), any::<bool>())
            .prop_map(|(s, ok)| ControlMsg::RxAuthAnswer { service_id: s, ok }),
        rule.prop_map(|r| ControlMsg::GxReauthRequest { rule: r }),
        (any::<u32>(), any::<bool>())
            .prop_map(|(s, ok)| ControlMsg::GxReauthAnswer { service_id: s, ok }),
        imsi.clone()
            .prop_map(|i| ControlMsg::S6aAuthInfoRequest { imsi: i }),
        (imsi.clone(), any::<bool>())
            .prop_map(|(i, ok)| ControlMsg::S6aAuthInfoAnswer { imsi: i, ok }),
    ];
    let rrc = prop_oneof![
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcAttachRequest { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcServiceRequest { imsi: i }),
        (any::<u8>(), 1u8..10, arb_tft(), prop::option::of(arb_ip())).prop_map(|(e, q, tft, a)| {
            ControlMsg::RrcReconfiguration {
                ebi: Ebi(e),
                qci: Qci(q),
                tft,
                ue_addr: a,
            }
        }),
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcRelease { imsi: i }),
        any::<u8>().prop_map(|e| ControlMsg::RrcBearerRelease { ebi: Ebi(e) }),
        imsi.clone().prop_map(|i| ControlMsg::RrcPaging { imsi: i }),
    ];
    // The mobility/handover additions: X2AP, path switch, bearer
    // relocation and the RRC measurement/handover trio.
    let erab_teids = prop::collection::vec((any::<u8>(), any::<u32>()), 0..3)
        .prop_map(|ts| {
            ts.into_iter()
                .map(|(e, t)| (Ebi(e), Teid(t)))
                .collect::<Vec<_>>()
        })
        .boxed();
    let handover = prop_oneof![
        (imsi.clone(), arb_ip(), erab_teids.clone(), 0u32..1000).prop_map(|(i, a, ts, tx)| {
            ControlMsg::PathSwitchRequest {
                imsi: i,
                enb_addr: a,
                erabs: ts,
                txid: tx,
            }
        }),
        (imsi.clone(), prop::collection::vec(erab.clone(), 0..2))
            .prop_map(|(i, es)| { ControlMsg::PathSwitchRequestAck { imsi: i, erabs: es } }),
        (
            imsi.clone(),
            prop::option::of(arb_ip()),
            prop::collection::vec(erab.clone(), 0..2),
            0u32..1000
        )
            .prop_map(|(i, a, es, tx)| ControlMsg::X2HandoverRequest {
                imsi: i,
                ue_addr: a,
                bearers: es,
                txid: tx,
            }),
        (imsi.clone(), erab_teids.clone(), 0u32..1000).prop_map(|(i, ts, tx)| {
            ControlMsg::X2HandoverRequestAck {
                imsi: i,
                erabs: ts,
                txid: tx,
            }
        }),
        (imsi.clone(), 0u32..1000)
            .prop_map(|(i, tx)| ControlMsg::X2HandoverCancel { imsi: i, txid: tx }),
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcReestablishmentRequest { imsi: i }),
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcReestablishmentConfirm { imsi: i }),
        (imsi.clone(), any::<u32>(), any::<u32>()).prop_map(|(i, dl, ul)| {
            ControlMsg::X2SnStatusTransfer {
                imsi: i,
                dl_count: dl,
                ul_count: ul,
            }
        }),
        imsi.clone()
            .prop_map(|i| ControlMsg::X2UeContextRelease { imsi: i }),
        (imsi.clone(), arb_ip(), erab_teids).prop_map(|(i, a, ts)| {
            ControlMsg::BearerRelocationRequest {
                imsi: i,
                enb_addr: a,
                enb_teids: ts,
            }
        }),
        (
            imsi.clone(),
            prop::collection::vec(erab, 0..2),
            prop::collection::vec(any::<u8>().prop_map(Ebi), 0..3)
        )
            .prop_map(|(i, es, rel)| ControlMsg::BearerRelocationResponse {
                imsi: i,
                erabs: es,
                released: rel,
            }),
        (imsi.clone(), any::<i32>(), arb_ip(), any::<i32>()).prop_map(|(i, s, a, t)| {
            ControlMsg::RrcMeasurementReport {
                imsi: i,
                serving_rsrp_cdbm: s,
                target_radio: a,
                target_rsrp_cdbm: t,
            }
        }),
        (imsi.clone(), arb_ip()).prop_map(|(i, a)| ControlMsg::RrcHandoverCommand {
            imsi: i,
            target_radio: a,
        }),
        imsi.clone()
            .prop_map(|i| ControlMsg::RrcHandoverConfirm { imsi: i }),
    ];
    prop_oneof![arb_msg(), s1ap, gtpv2, diameter, rrc, handover].boxed()
}

/// `text` decodes as a control message only if that message encodes back
/// to exactly `text`, and then a typed packet of it is exactly as long as
/// `text`, and a typed RRC frame one frame-type byte longer.
fn rejected_or_reproduced(text: &[u8]) {
    let at = Ipv4Addr::LOCALHOST;
    if let Some(msg) = ControlMsg::decode(text) {
        assert_eq!(json::encode(b"", &msg), text);
        assert_eq!(msg.into_packet(at, at).payload.len(), text.len());
        assert_eq!(radio::rrc_frame(&msg, at, at).payload.len(), 1 + text.len());
    }
}

/// The wire size `typed` had when control messages travelled as JSON
/// text: its headers, `prefix` and the text, padded up to the spec.
fn json_wire_size(prefix: &[u8], msg: &ControlMsg, typed: &Packet) -> u32 {
    let text = json::encode(prefix, msg).len() as u32;
    let headers = IPV4_HEADER + l4_header_len(typed.protocol);
    msg.wire_size_spec().max(headers + text)
}

/// One step of a radio-queue script.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Offer a frame of this scheduling priority and wire size.
    Offer(u8, u32),
    /// Take the next frame.
    Pop,
    /// Let this many microseconds pass.
    Wait(u64),
}

/// Offers (half the steps) at the priorities of RRC and of QCI 1–9
/// bearers, pops (a third) and waits.
fn arb_queue_op() -> BoxedStrategy<QueueOp> {
    let priorities = std::iter::once(255)
        .chain((1..=9).map(|q| Qci(q).tos()))
        .map(radio::sched_priority)
        .collect();
    (
        0u8..6,
        prop::sample::select(priorities),
        28u32..3_000,
        0u64..20_000,
    )
        .prop_map(|(kind, prio, size, wait)| match kind {
            0..=2 => QueueOp::Offer(prio, size),
            3 | 4 => QueueOp::Pop,
            _ => QueueOp::Wait(wait),
        })
        .boxed()
}

/// What one step of a script saw, with the queue length after it.
#[derive(Debug, PartialEq)]
enum Step {
    /// An offer, and whether it was queued.
    Offered(bool, usize),
    /// A pop, and the id of the frame it took.
    Popped(Option<u64>, usize),
}

/// The frame offered at step `i` of a script: `size` bytes on the wire.
fn queue_frame(i: usize, size: u32) -> Packet {
    let at = Ipv4Addr::LOCALHOST;
    Packet::udp((at, 1), (at, 2), size - 28).with_id(i as u64)
}

/// Runs a script against a [`RadioScheduler`] in the engine, noting each
/// step and the instant of every release timer.
struct QueueScript {
    sched: RadioScheduler,
    ops: Vec<QueueOp>,
    next: usize,
    steps: Vec<Step>,
    released: Vec<Instant>,
}

const STEP: u64 = 0;
const RELEASE: u64 = 1;

impl Node for QueueScript {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == RELEASE {
            self.released.push(ctx.now());
            return;
        }
        while let Some(op) = self.ops.get(self.next).cloned() {
            let i = self.next;
            self.next += 1;
            let step = match op {
                QueueOp::Offer(prio, size) => {
                    let ok = self.sched.offer(ctx, prio, queue_frame(i, size), RELEASE);
                    Step::Offered(ok, self.sched.queued())
                }
                QueueOp::Pop => {
                    let id = self.sched.pop().map(|f| f.id);
                    Step::Popped(id, self.sched.queued())
                }
                QueueOp::Wait(us) => {
                    ctx.schedule_in(Duration::from_micros(us), STEP);
                    return;
                }
            };
            self.steps.push(step);
        }
    }
}

/// The radio queue as it was before it became a service-ordered `Vec`: a
/// map keyed by priority and arrival number, with the same busy horizon
/// and drop-tail bound.
struct QueueOracle {
    rate_bps: u64,
    busy_until: Instant,
    seq: u64,
    queue: BTreeMap<(u8, u64), Packet>,
    queued_bytes: u64,
    queue_limit: u64,
    drops: u64,
}

impl QueueOracle {
    /// The frame's release instant, or `None` when it is dropped.
    fn offer(&mut self, now: Instant, priority: u8, frame: Packet) -> Option<Instant> {
        let wire = frame.wire_size() as u64;
        if self.queued_bytes + wire > self.queue_limit {
            self.drops += 1;
            return None;
        }
        let done = self.busy_until.max(now) + serialization_time(wire, self.rate_bps);
        self.busy_until = done;
        self.queued_bytes += wire;
        self.queue.insert((priority, self.seq), frame);
        self.seq += 1;
        Some(done)
    }

    fn pop(&mut self) -> Option<Packet> {
        let (_, frame) = self.queue.pop_first()?;
        self.queued_bytes -= frame.wire_size() as u64;
        Some(frame)
    }
}

proptest! {
    /// The radio scheduler serves, drops and releases exactly as the
    /// `BTreeMap` queue it replaced, for any interleaving of offers and
    /// pops at RRC and bearer priorities against a small bound.
    #[test]
    fn radio_queue_matches_the_map_it_replaced(
        ops in prop::collection::vec(arb_queue_op(), 1..80),
        rate_bps in prop::sample::select(vec![1_000_000u64, 6_000_000, 40_000_000]),
        queue_limit in 2_000u64..12_000,
    ) {
        let mut sim = Simulator::new(1);
        let mut sched = RadioScheduler::new(rate_bps);
        sched.queue_limit = queue_limit;
        let node = sim.add_node(Box::new(QueueScript {
            sched,
            ops: ops.clone(),
            next: 0,
            steps: Vec::new(),
            released: Vec::new(),
        }));
        sim.schedule_timer(node, Instant::ZERO, STEP);
        sim.run_until_idle();

        let mut oracle = QueueOracle {
            rate_bps,
            busy_until: Instant::ZERO,
            seq: 0,
            queue: BTreeMap::new(),
            queued_bytes: 0,
            queue_limit,
            drops: 0,
        };
        let (mut now, mut steps, mut released) = (Instant::ZERO, Vec::new(), Vec::new());
        for (i, op) in ops.into_iter().enumerate() {
            let step = match op {
                QueueOp::Offer(prio, size) => {
                    let done = oracle.offer(now, prio, queue_frame(i, size));
                    released.extend(done);
                    Step::Offered(done.is_some(), oracle.queue.len())
                }
                QueueOp::Pop => {
                    let id = oracle.pop().map(|f| f.id);
                    Step::Popped(id, oracle.queue.len())
                }
                QueueOp::Wait(us) => {
                    now += Duration::from_micros(us);
                    continue;
                }
            };
            steps.push(step);
        }

        let run = sim.node_ref::<QueueScript>(node);
        prop_assert_eq!(&run.steps, &steps);
        prop_assert_eq!(run.sched.drops, oracle.drops);
        prop_assert_eq!(&run.released, &released);
    }

    /// Control messages survive encode → JSON → decode, and a typed
    /// packet hands its message back.
    #[test]
    fn control_roundtrip(msg in arb_msg(), src in arb_ip(), dst in arb_ip()) {
        let back = ControlMsg::decode(&json::encode(b"", &msg)).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(ControlMsg::from_packet(&msg.into_packet(src, dst)), Some(msg));
    }

    /// GTP-U encapsulation round-trips any packet and always adds exactly
    /// the tunnel overhead.
    #[test]
    fn gtpu_roundtrip(inner in arb_packet(), teid in any::<u32>(), a in arb_ip(), b in arb_ip()) {
        let outer = gtpu::encapsulate(&inner, Teid(teid), a, b);
        prop_assert_eq!(outer.wire_size(), inner.wire_size() + 36);
        prop_assert_eq!(outer.payload.len(), 36 + inner.payload.len());
        prop_assert_eq!(gtpu::tunnel(&outer).map(|t| t.teid), Some(Teid(teid)));
        let (t, back) = gtpu::decapsulate(&outer).unwrap();
        prop_assert_eq!(t, Teid(teid));
        prop_assert_eq!(back.wire_size(), inner.wire_size());
        prop_assert_eq!(back.src, inner.src);
        prop_assert_eq!(back.dst, inner.dst);
        prop_assert_eq!(back.src_port, inner.src_port);
        prop_assert_eq!(back.dst_port, inner.dst_port);
        prop_assert_eq!(back.protocol, inner.protocol);
        prop_assert_eq!(back.tos, inner.tos);
        prop_assert_eq!(back.payload, inner.payload);
        prop_assert_eq!(back.id, inner.id);
        prop_assert_eq!(back.created, outer.created);
    }

    /// A radio data frame hands back its bearer and inner packet, and is
    /// two bytes of framing plus the inner header block and payload long.
    #[test]
    fn data_frame_roundtrip(inner in arb_packet(), ebi in any::<u8>(), a in arb_ip(), b in arb_ip()) {
        let frame = radio::data_frame(Ebi(ebi), &inner, a, b);
        prop_assert_eq!(frame.payload.len(), 30 + inner.payload.len());
        match radio::parse_frame(&frame) {
            Some(RadioPayload::Data { ebi: got, inner: back }) => {
                prop_assert_eq!(got, Ebi(ebi));
                prop_assert_eq!(back, inner);
            }
            other => prop_assert!(false, "not a data frame: {:?}", other),
        }
    }

    /// Double encapsulation (S1-in-S5) unwraps in order.
    #[test]
    fn gtpu_nesting(inner in arb_packet(), t1 in any::<u32>(), t2 in any::<u32>()) {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let once = gtpu::encapsulate(&inner, Teid(t1), a, a);
        let twice = gtpu::encapsulate(&once, Teid(t2), a, a);
        let (got2, mid) = gtpu::decapsulate(&twice).unwrap();
        let (got1, back) = gtpu::decapsulate(&mid).unwrap();
        prop_assert_eq!(got2, Teid(t2));
        prop_assert_eq!(got1, Teid(t1));
        prop_assert_eq!(back.wire_size(), inner.wire_size());
    }

    /// TFT matching is consistent with its filters: a packet matches the
    /// TFT iff it matches at least one filter, whatever their order, so
    /// stored order agrees with precedence order. A filter built to match
    /// the packet is inserted at a random position, with a random
    /// precedence, in half the cases.
    #[test]
    fn tft_matches_any(
        tft in arb_tft(),
        pkt in arb_packet(),
        host in prop::option::of((any::<usize>(), any::<u8>())),
    ) {
        let mut tft = tft;
        if let Some((at, precedence)) = host {
            let mut f = PacketFilter::to_host(pkt.dst);
            f.precedence = precedence;
            tft.filters.insert(at % (tft.filters.len() + 1), f);
        }
        let mut sorted: Vec<&PacketFilter> = tft.filters.iter().collect();
        sorted.sort_by_key(|f| f.precedence);
        for dir in [Direction::Uplink, Direction::Downlink] {
            let in_precedence = sorted.iter().any(|f| f.matches(&pkt, dir));
            prop_assert_eq!(tft.matches(&pkt, dir), in_precedence);
        }
    }

    /// A host filter built from the packet's own destination always
    /// matches uplink.
    #[test]
    fn tft_host_filter_matches_self(pkt in arb_packet()) {
        let f = PacketFilter::to_host(pkt.dst);
        prop_assert!(f.matches(&pkt, Direction::Uplink));
    }

    /// TFT wire length equals the sum of its parts.
    #[test]
    fn tft_wire_len(tft in arb_tft()) {
        let total: u32 = 1 + tft.filters.iter().map(|f| f.wire_len()).sum::<u32>();
        prop_assert_eq!(tft.wire_len(), total);
    }

    /// QCI table invariants hold for every byte value.
    #[test]
    fn qci_invariants(q in any::<u8>()) {
        let qci = Qci(q);
        prop_assert!((1..=9).contains(&qci.priority()));
        prop_assert!(qci.delay_budget_ms() >= 50);
        prop_assert!(qci.loss_rate() > 0.0 && qci.loss_rate() <= 1e-2);
    }

    /// Encoded wire size never falls below the calibrated spec (padding
    /// rounds up; unusually dense messages may legitimately exceed it).
    #[test]
    fn wire_size_at_least_spec(msg in arb_msg()) {
        let pkt = msg.into_packet(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        prop_assert!(pkt.wire_size() >= msg.wire_size_spec());
    }
    /// Encode → decode → re-encode is a byte-level fixed point for every
    /// message variant, and a typed packet of the decoded message equals
    /// the first one in payload, framing and padded wire size. Covers
    /// GTPv2-C, S1AP/SCTP, Diameter, OpenFlow and RRC.
    #[test]
    fn encode_decode_encode_identity(msg in arb_msg_any(), src in arb_ip(), dst in arb_ip()) {
        let text = json::encode(b"", &msg);
        let decoded = ControlMsg::decode(&text).unwrap();
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(json::encode(b"", &decoded), text);
        let first = msg.into_packet(src, dst);
        prop_assert_eq!(ControlMsg::from_packet(&first).as_ref(), Some(&msg));
        let second = decoded.into_packet(src, dst);
        prop_assert_eq!(&second.payload, &first.payload);
        prop_assert_eq!(second.wire_size(), first.wire_size());
        prop_assert_eq!(second.protocol, first.protocol);
        prop_assert_eq!(second.src_port, first.src_port);
        prop_assert_eq!(second.dst_port, first.dst_port);
    }

    /// The length counter agrees with the writer, and a typed packet or
    /// RRC frame is exactly as long on the wire as the JSON one it
    /// replaces: the same payload length, the same padded size.
    #[test]
    fn typed_packets_are_as_long_as_their_json(msg in arb_msg_any(), src in arb_ip(), dst in arb_ip()) {
        let text = json::encode(b"", &msg);
        prop_assert_eq!(json::encoded_len(&msg), text.len());
        prop_assert_eq!(msg.encoded_len() as usize, text.len());
        let typed = msg.into_packet(src, dst);
        prop_assert_eq!(typed.payload.len(), text.len());
        prop_assert_eq!(typed.wire_size(), json_wire_size(b"", &msg, &typed));
        let frame = radio::rrc_frame(&msg, src, dst);
        prop_assert_eq!(frame.payload.len(), 1 + text.len());
        prop_assert_eq!(frame.wire_size(), json_wire_size(&[2], &msg, &frame));
        prop_assert_eq!(frame.payload.tag(), msg.tag());
        match radio::parse_frame(&frame) {
            Some(RadioPayload::Rrc(back)) => prop_assert_eq!(back, msg),
            other => prop_assert!(false, "not an RRC frame: {:?}", other),
        }
    }

    /// Framing follows the protocol family: GTPv2-C rides UDP/2123,
    /// S1AP rides SCTP/36412, Diameter TCP/3868, OpenFlow TCP/6633.
    #[test]
    fn framing_matches_protocol_family(msg in arb_msg_any(), src in arb_ip(), dst in arb_ip()) {
        use acacia_lte::wire::Protocol;
        let pkt = msg.into_packet(src, dst);
        let (want_proto, want_port) = match msg.protocol() {
            Protocol::S1apSctp => (132u8, 36412u16),
            Protocol::X2Sctp => (132, 36422),
            Protocol::Gtpv2 => (17, 2123),
            Protocol::OpenFlow => (6, 6633),
            Protocol::Diameter => (6, 3868),
            Protocol::Rrc => (17, 36413),
        };
        prop_assert_eq!(pkt.protocol, want_proto);
        prop_assert_eq!(pkt.src_port, want_port);
        prop_assert_eq!(pkt.dst_port, want_port);
        // Padding never shrinks below the calibrated per-message size.
        prop_assert!(pkt.wire_size() >= msg.wire_size_spec());
    }

    /// Malformed input is rejected, not mis-decoded: any strict prefix of
    /// an encoded control message fails to decode (the top level is a
    /// JSON object, so truncation always breaks it), as does trailing
    /// garbage, whitespace included.
    #[test]
    fn malformed_control_rejected(
        msg in arb_msg_any(),
        cut in 0usize..1000,
        junk in prop::sample::select(vec![b'x', b'{', b'}', b'0', b' ', 0u8, 0xFFu8]),
    ) {
        let text = json::encode(b"", &msg);
        let len = text.len();
        prop_assume!(len > 0);
        let cut = cut % len; // strict prefix: 0..len-1 bytes
        prop_assert!(ControlMsg::decode(&text[..cut]).is_none());
        let mut extended = text;
        extended.push(junk);
        prop_assert!(ControlMsg::decode(&extended).is_none());
    }

    /// The strict reader never panics: arbitrary bytes, and single-byte
    /// mutations of valid encodings, are rejected or re-encode to exactly
    /// themselves.
    #[test]
    fn reader_rejects_or_reproduces_any_input(
        msg in arb_msg_any(),
        at in any::<usize>(),
        byte in prop_oneof![any::<u8>(), prop::sample::select(b"0123456789-.,:\"{}[]nultrefa".to_vec())],
        noise in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = json::encode(b"", &msg);
        let at = at % bytes.len();
        bytes[at] = byte;
        rejected_or_reproduced(&bytes);
        rejected_or_reproduced(&noise);
    }

    /// TFT encoding round-trips through the JSON encoding exactly (as
    /// carried inside RRC reconfiguration / E-RAB setup messages).
    #[test]
    fn tft_roundtrip(tft in arb_tft()) {
        let msg = ControlMsg::RrcReconfiguration {
            ebi: Ebi(5),
            qci: Qci(7),
            tft: tft.clone(),
            ue_addr: None,
        };
        match ControlMsg::decode(&json::encode(b"", &msg)).unwrap() {
            ControlMsg::RrcReconfiguration { tft: back, .. } => prop_assert_eq!(back, tft),
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// Non-GTP-U traffic is never mistaken for a tunnel packet, and a
    /// truncated GTP-U header is rejected.
    #[test]
    fn gtpu_rejects_non_tunnel(pkt in arb_packet()) {
        prop_assume!(!(pkt.protocol == 17 && pkt.dst_port == 2152));
        prop_assert!(gtpu::decapsulate(&pkt).is_none());
        prop_assert!(gtpu::tunnel(&pkt).is_none());
        prop_assert!(!gtpu::is_gtpu(&pkt));
    }

    /// A UDP/2152 packet that does not carry a tunnel is not one: it does
    /// not decapsulate, and the flow switch reads its outer header.
    #[test]
    fn gtpu_rejects_port_2152_without_a_tunnel(pkt in arb_packet()) {
        let mut pkt = pkt;
        pkt.protocol = 17;
        pkt.dst_port = 2152;
        prop_assert!(gtpu::is_gtpu(&pkt));
        prop_assert!(gtpu::decapsulate(&pkt).is_none());
        prop_assert!(gtpu::tunnel(&pkt).is_none());
    }
}
