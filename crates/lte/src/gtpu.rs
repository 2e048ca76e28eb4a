//! GTP-U user-plane tunnelling: user packets ride UDP/2152 tunnel packets,
//! keyed by TEID. A tunnel carries its inner packet typed, as a
//! [`Tunnel`]: only the lengths of the GTP-U header and of the inner
//! packet's header block reach the wire. It carries user packets and
//! application messages, never a typed control message.

use crate::ids::Teid;
use crate::wire::{ports, ControlMsg};
use acacia_simnet::packet::{proto, Message, Packet, Payload};
use std::net::Ipv4Addr;

/// GTP-U header length (mandatory part), bytes.
pub const GTPU_HEADER: u32 = 8;

/// Length of the header block a tunnel or radio data frame counts for its
/// inner packet: addresses, ports, protocol, TOS, virtual length, id and
/// payload length (4 + 4 + 2 + 2 + 1 + 1 + 4 + 8 + 2 bytes).
pub(crate) const INNER_HEADER: u32 = 28;

/// A G-PDU: the tunnel id and the packet it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunnel {
    /// Tunnel endpoint id.
    pub teid: Teid,
    /// The tunnelled packet.
    pub inner: Packet,
}

/// Untagged: no fault rule selects a tunnel by tag.
impl Message for Tunnel {
    fn encoded_len(&self) -> u32 {
        INNER_HEADER + self.inner.payload.len() as u32
    }
}

/// The inner packet a tunnel or radio data frame carries.
///
/// # Panics
///
/// On a control message. Nothing in the simulator tunnels one: control
/// travels on its own links (S1AP, X2, GTP-C, OpenFlow, Diameter) and in
/// RRC frames. Every tunnel and radio data frame of every scenario test
/// and golden run passes through here, so a change that starts tunnelling
/// one fails them.
pub(crate) fn carried(pkt: &Packet) -> Packet {
    assert!(
        pkt.payload.msg::<ControlMsg>().is_none(),
        "a tunnel carries user packets, never a typed control message"
    );
    pkt.clone()
}

/// Encapsulate `inner` in a GTP-U tunnel packet from `src_gw` to `dst_gw`
/// with tunnel id `teid`.
///
/// The outer wire size is `IP + UDP + GTP header + inner wire size`,
/// faithfully modelling tunnel overhead.
pub fn encapsulate(inner: &Packet, teid: Teid, src_gw: Ipv4Addr, dst_gw: Ipv4Addr) -> Packet {
    Packet {
        src: src_gw,
        dst: dst_gw,
        src_port: ports::GTPU,
        dst_port: ports::GTPU,
        protocol: proto::UDP,
        tos: inner.tos,
        // Account for the inner packet's virtual payload plus the bytes of
        // its IP/L4 headers that the counted header block does not cover
        // one-for-one.
        app_len: inner.app_len
            + inner
                .wire_size()
                .saturating_sub(INNER_HEADER + inner.payload.len() as u32 + inner.app_len),
        id: inner.id,
        created: inner.created,
        payload: Payload::typed(
            GTPU_HEADER,
            Tunnel {
                teid,
                inner: carried(inner),
            },
        ),
    }
}

/// Decapsulate a GTP-U packet; returns the TEID and the inner packet,
/// created when the outer packet was.
pub fn decapsulate(outer: &Packet) -> Option<(Teid, Packet)> {
    let t = tunnel(outer)?;
    Some((
        t.teid,
        Packet {
            created: outer.created,
            ..t.inner.clone()
        },
    ))
}

/// Is this packet a GTP-U tunnel packet?
pub fn is_gtpu(pkt: &Packet) -> bool {
    pkt.protocol == proto::UDP && pkt.dst_port == ports::GTPU
}

/// The tunnel a GTP-U packet carries, read in place (cheap flow-table
/// matching and cache keying): `None` off port 2152, or when the payload
/// is not a [`Tunnel`], exactly where [`decapsulate`] fails.
pub fn tunnel(pkt: &Packet) -> Option<&Tunnel> {
    if !is_gtpu(pkt) {
        return None;
    }
    pkt.payload.msg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_simnet::time::Instant;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn inner() -> Packet {
        Packet::udp((ip(1), 40_000), (ip(2), 9_000), 1400)
            .with_tos(46)
            .with_id(77)
            .with_created(Instant::from_millis(3))
    }

    /// A user message that is only its length.
    #[derive(Debug, PartialEq)]
    struct Opaque(u32);

    impl Message for Opaque {
        fn encoded_len(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn encap_decap_roundtrip_preserves_inner() {
        let p = inner();
        let outer = encapsulate(&p, Teid(0xabcd), ip(10), ip(11));
        let (teid, back) = decapsulate(&outer).unwrap();
        assert_eq!(teid, Teid(0xabcd));
        assert_eq!(back, p);
        assert_eq!(back.wire_size(), p.wire_size());
    }

    #[test]
    fn outer_wire_size_adds_tunnel_overhead() {
        let p = inner();
        let outer = encapsulate(&p, Teid(1), ip(10), ip(11));
        // Outer = inner + IP(20) + UDP(8) + GTP(8) = inner + 36, and the
        // outer payload is the GTP-U header plus the inner header block.
        assert_eq!(outer.wire_size(), p.wire_size() + 36);
        assert_eq!(outer.payload.len(), 36);
    }

    #[test]
    fn decapsulated_inner_is_created_with_the_outer_packet() {
        let mut outer = encapsulate(&inner(), Teid(1), ip(10), ip(11));
        outer.created = Instant::from_millis(9);
        let (_, back) = decapsulate(&outer).unwrap();
        assert_eq!(back.created, Instant::from_millis(9));
    }

    #[test]
    fn nested_encapsulation_also_roundtrips() {
        // S5 bearer inside S1 bearer style double tunnel.
        let p = inner();
        let once = encapsulate(&p, Teid(1), ip(10), ip(11));
        let twice = encapsulate(&once, Teid(2), ip(20), ip(21));
        assert_eq!(twice.wire_size(), p.wire_size() + 72);
        assert_eq!(twice.payload.len(), 72);
        let (t2, mid) = decapsulate(&twice).unwrap();
        assert_eq!(t2, Teid(2));
        let (t1, back) = decapsulate(&mid).unwrap();
        assert_eq!(t1, Teid(1));
        assert_eq!(back.wire_size(), p.wire_size());
        assert_eq!(back.dst_port, 9_000);
    }

    #[test]
    fn inner_with_real_payload_survives() {
        let mut p = inner();
        p.payload = Payload::typed(0, Opaque(19));
        p.app_len = 0;
        let outer = encapsulate(&p, Teid(9), ip(10), ip(11));
        assert_eq!(outer.payload.len(), 36 + 19);
        let (_, back) = decapsulate(&outer).unwrap();
        assert_eq!(back.payload.msg::<Opaque>(), Some(&Opaque(19)));
        assert_eq!(back.wire_size(), p.wire_size());
    }

    #[test]
    fn decapsulated_payload_shares_the_tunnel_buffer() {
        let mut p = inner();
        p.payload = Payload::typed(0, Opaque(24));
        let outer = encapsulate(&p, Teid(3), ip(10), ip(11));
        let (_, back) = decapsulate(&outer).unwrap();
        // The inner message is the one the tunnel holds, not a copy.
        let at = |p: &Packet| p.payload.msg::<Opaque>().unwrap() as *const Opaque;
        assert_eq!(at(&back), at(&tunnel(&outer).unwrap().inner));
        assert_eq!(at(&back), at(&p));
    }

    #[test]
    fn tunnel_agrees_with_decapsulate() {
        let p = inner();
        let outer = encapsulate(&p, Teid(7), ip(10), ip(11));
        let t = tunnel(&outer).unwrap();
        assert_eq!((t.teid, t.inner.src, t.inner.dst), (Teid(7), p.src, p.dst));
        assert_eq!(outer.payload.tag(), None);
        // Non-tunnel packets read as None, exactly where decapsulate fails.
        assert_eq!(tunnel(&p), None);
    }

    #[test]
    fn non_gtp_packets_do_not_decapsulate() {
        let p = inner();
        assert!(decapsulate(&p).is_none());
        assert!(!is_gtpu(&p));
        let outer = encapsulate(&p, Teid(1), ip(10), ip(11));
        assert!(is_gtpu(&outer));
        // Off port 2152, even a tunnel payload is not a tunnel.
        let mut moved = outer.clone();
        moved.dst_port = 2153;
        assert!(decapsulate(&moved).is_none());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // On port 2152, but what it carries is not a tunnel.
        let mut outer = encapsulate(&inner(), Teid(1), ip(10), ip(11));
        outer.payload = Payload::typed(GTPU_HEADER, Opaque(28));
        assert!(decapsulate(&outer).is_none());
        assert_eq!(tunnel(&outer), None);
        outer.payload = Payload::default();
        assert!(decapsulate(&outer).is_none());
    }

    #[test]
    #[should_panic(expected = "never a typed control message")]
    fn tunnelling_a_control_message_panics() {
        let msg = crate::wire::ControlMsg::Paging {
            imsi: crate::ids::Imsi(1),
        };
        encapsulate(&msg.into_packet(ip(1), ip(2)), Teid(1), ip(10), ip(11));
    }
}
