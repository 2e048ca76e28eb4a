//! GTP-U user-plane tunnelling: byte-accurate encapsulation of user packets
//! inside UDP/2152 tunnel packets, keyed by TEID. Tunnels carry bytes only:
//! user packets and application messages, never a typed control message.

use crate::ids::Teid;
use crate::wire::ports;
use acacia_simnet::packet::{proto, Packet, Payload};
use acacia_simnet::time::Instant;
use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

/// GTP-U header length (mandatory part), bytes.
pub const GTPU_HEADER: u32 = 8;

/// Serialize a packet's headers + payload for carriage inside a tunnel.
/// The inner packet's *virtual* app length is preserved as a number, so the
/// outer packet can account for it without allocating.
///
/// # Panics
///
/// On a typed payload. Nothing in the simulator tunnels a control message:
/// control travels on its own links (S1AP, X2, GTP-C, OpenFlow, Diameter)
/// and in RRC frames. Every tunnel and radio data frame of every scenario
/// test and golden run passes through here, so a change that starts
/// tunnelling one fails them.
pub fn serialize_inner(pkt: &Packet) -> Bytes {
    let payload = pkt
        .payload
        .as_bytes()
        .expect("a tunnel carries bytes, never a typed control message");
    let mut b = BytesMut::with_capacity(26 + payload.len());
    b.put_u32(u32::from(pkt.src));
    b.put_u32(u32::from(pkt.dst));
    b.put_u16(pkt.src_port);
    b.put_u16(pkt.dst_port);
    b.put_u8(pkt.protocol);
    b.put_u8(pkt.tos);
    b.put_u32(pkt.app_len);
    b.put_u64(pkt.id);
    b.put_u16(payload.len() as u16);
    b.put_slice(payload);
    b.freeze()
}

/// Reverse of [`serialize_inner`]. Returns `None` on malformed input.
///
/// Takes the serialized frame as a [`Bytes`] so the inner payload can be
/// re-sliced out of the tunnel buffer without copying — decapsulation and
/// radio deframing are per-packet hot paths.
pub fn deserialize_inner(data: &Bytes, created: Instant) -> Option<Packet> {
    if data.len() < 26 {
        return None;
    }
    let src = Ipv4Addr::from(u32::from_be_bytes(data[0..4].try_into().ok()?));
    let dst = Ipv4Addr::from(u32::from_be_bytes(data[4..8].try_into().ok()?));
    let src_port = u16::from_be_bytes(data[8..10].try_into().ok()?);
    let dst_port = u16::from_be_bytes(data[10..12].try_into().ok()?);
    let protocol = data[12];
    let tos = data[13];
    let app_len = u32::from_be_bytes(data[14..18].try_into().ok()?);
    let id = u64::from_be_bytes(data[18..26].try_into().ok()?);
    if data.len() < 28 {
        return None;
    }
    let plen = u16::from_be_bytes(data[26..28].try_into().ok()?) as usize;
    if data.len() < 28 + plen {
        return None;
    }
    Some(Packet {
        src,
        dst,
        src_port,
        dst_port,
        protocol,
        tos,
        payload: data.slice(28..28 + plen).into(),
        app_len,
        id,
        created,
    })
}

/// Encapsulate `inner` in a GTP-U tunnel packet from `src_gw` to `dst_gw`
/// with tunnel id `teid`.
///
/// The outer wire size is `IP + UDP + GTP header + inner wire size`,
/// faithfully modelling tunnel overhead.
pub fn encapsulate(inner: &Packet, teid: Teid, src_gw: Ipv4Addr, dst_gw: Ipv4Addr) -> Packet {
    let mut b = BytesMut::with_capacity(8 + 28 + inner.payload.len());
    // GTP-U mandatory header: version/flags, type (255 = G-PDU), length,
    // TEID.
    b.put_u8(0x30);
    b.put_u8(255);
    b.put_u16(0); // length filled conceptually; sizes tracked via wire model
    b.put_u32(teid.0);
    b.put_slice(&serialize_inner(inner));
    Packet {
        src: src_gw,
        dst: dst_gw,
        src_port: ports::GTPU,
        dst_port: ports::GTPU,
        protocol: proto::UDP,
        tos: inner.tos,
        payload: b.freeze().into(),
        // Account for the inner packet's virtual payload plus the bytes of
        // its IP/L4 headers that our compact serialization doesn't store
        // one-for-one.
        app_len: inner.app_len
            + inner
                .wire_size()
                .saturating_sub(28 + inner.payload.len() as u32 + inner.app_len),
        id: inner.id,
        created: inner.created,
    }
}

/// Decapsulate a GTP-U packet; returns the TEID and the inner packet.
pub fn decapsulate(outer: &Packet) -> Option<(Teid, Packet)> {
    if outer.protocol != proto::UDP || outer.dst_port != ports::GTPU {
        return None;
    }
    let p = tunnel_bytes(outer)?;
    let teid = Teid(u32::from_be_bytes(p[4..8].try_into().ok()?));
    let inner = deserialize_inner(&p.slice(8..), outer.created)?;
    Some((teid, inner))
}

/// Read the inner packet's `(src, dst)` addresses from a GTP-U packet
/// without materializing the inner packet (cheap flow-table matching).
///
/// Validates the same framing invariants as [`decapsulate`] so the two
/// agree on which packets are well-formed tunnels.
pub fn peek_inner_addrs(pkt: &Packet) -> Option<(Ipv4Addr, Ipv4Addr)> {
    if !is_gtpu(pkt) {
        return None;
    }
    let d = &tunnel_bytes(pkt)?[8..];
    if d.len() < 28 {
        return None;
    }
    let plen = u16::from_be_bytes(d[26..28].try_into().ok()?) as usize;
    if d.len() < 28 + plen {
        return None;
    }
    let src = Ipv4Addr::from(u32::from_be_bytes(d[0..4].try_into().ok()?));
    let dst = Ipv4Addr::from(u32::from_be_bytes(d[4..8].try_into().ok()?));
    Some((src, dst))
}

/// The payload of a G-PDU: bytes, at least a GTP-U header long, of
/// message type 255.
fn tunnel_bytes(pkt: &Packet) -> Option<&Bytes> {
    match &pkt.payload {
        Payload::Bytes(p) if p.len() >= 8 && p[1] == 255 => Some(p),
        _ => None,
    }
}

/// Is this packet a GTP-U tunnel packet?
pub fn is_gtpu(pkt: &Packet) -> bool {
    pkt.protocol == proto::UDP && pkt.dst_port == ports::GTPU
}

/// Read the TEID from a GTP-U header without deserializing the inner
/// packet (cheap flow-cache keying).
pub fn peek_teid(pkt: &Packet) -> Option<Teid> {
    if !is_gtpu(pkt) {
        return None;
    }
    let p = tunnel_bytes(pkt)?;
    Some(Teid(u32::from_be_bytes(p[4..8].try_into().ok()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn bytes(p: &Packet) -> &Bytes {
        p.payload.as_bytes().expect("a byte payload")
    }

    fn inner() -> Packet {
        Packet::udp((ip(1), 40_000), (ip(2), 9_000), 1400)
            .with_tos(46)
            .with_id(77)
            .with_created(Instant::from_millis(3))
    }

    #[test]
    fn encap_decap_roundtrip_preserves_inner() {
        let p = inner();
        let outer = encapsulate(&p, Teid(0xabcd), ip(10), ip(11));
        let (teid, back) = decapsulate(&outer).unwrap();
        assert_eq!(teid, Teid(0xabcd));
        assert_eq!(back.src, p.src);
        assert_eq!(back.dst, p.dst);
        assert_eq!(back.src_port, p.src_port);
        assert_eq!(back.dst_port, p.dst_port);
        assert_eq!(back.protocol, p.protocol);
        assert_eq!(back.tos, p.tos);
        assert_eq!(back.app_len, p.app_len);
        assert_eq!(back.id, p.id);
        assert_eq!(back.wire_size(), p.wire_size());
    }

    #[test]
    fn outer_wire_size_adds_tunnel_overhead() {
        let p = inner();
        let outer = encapsulate(&p, Teid(1), ip(10), ip(11));
        // Outer = inner + IP(20) + UDP(8) + GTP(8) = inner + 36.
        assert_eq!(outer.wire_size(), p.wire_size() + 36);
    }

    #[test]
    fn nested_encapsulation_also_roundtrips() {
        // S5 bearer inside S1 bearer style double tunnel.
        let p = inner();
        let once = encapsulate(&p, Teid(1), ip(10), ip(11));
        let twice = encapsulate(&once, Teid(2), ip(20), ip(21));
        assert_eq!(twice.wire_size(), p.wire_size() + 72);
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
        p.payload = Bytes::from_static(b"hello control bytes").into();
        p.app_len = 0;
        let outer = encapsulate(&p, Teid(9), ip(10), ip(11));
        let (_, back) = decapsulate(&outer).unwrap();
        assert_eq!(&bytes(&back)[..], b"hello control bytes");
        assert_eq!(back.wire_size(), p.wire_size());
    }

    #[test]
    fn peek_inner_addrs_agrees_with_decapsulate() {
        let p = inner();
        let outer = encapsulate(&p, Teid(7), ip(10), ip(11));
        assert_eq!(peek_inner_addrs(&outer), Some((p.src, p.dst)));
        // Non-tunnel and truncated packets peek as None, exactly where
        // decapsulate fails.
        assert_eq!(peek_inner_addrs(&p), None);
        let mut cut = outer.clone();
        cut.payload = bytes(&outer).slice(0..20).into();
        assert!(decapsulate(&cut).is_none());
        assert_eq!(peek_inner_addrs(&cut), None);
    }

    #[test]
    fn decapsulated_payload_shares_the_tunnel_buffer() {
        let mut p = inner();
        p.payload = Bytes::from_static(b"shared zero-copy payload").into();
        let outer = encapsulate(&p, Teid(3), ip(10), ip(11));
        let (_, back) = decapsulate(&outer).unwrap();
        // The inner payload is a sub-slice of the outer buffer, not a copy.
        let (outer, back) = (bytes(&outer), bytes(&back));
        let outer_range = outer.as_ptr() as usize..outer.as_ptr() as usize + outer.len();
        assert!(outer_range.contains(&(back.as_ptr() as usize)));
        assert_eq!(&back[..], b"shared zero-copy payload");
    }

    #[test]
    fn non_gtp_packets_do_not_decapsulate() {
        let p = inner();
        assert!(decapsulate(&p).is_none());
        assert!(!is_gtpu(&p));
        let outer = encapsulate(&p, Teid(1), ip(10), ip(11));
        assert!(is_gtpu(&outer));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let mut outer = encapsulate(&inner(), Teid(1), ip(10), ip(11));
        outer.payload = bytes(&outer).slice(0..10).into();
        assert!(decapsulate(&outer).is_none());
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
