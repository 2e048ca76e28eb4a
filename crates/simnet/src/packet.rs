//! Packets and protocol constants.
//!
//! A [`Packet`] carries an IPv4-like 5-tuple, a [`Payload`] and a *virtual
//! payload length*. The virtual length lets workload generators model
//! megabytes of traffic without allocating the actual buffers: the wire
//! size of a packet is `IP header + L4 header + payload.len() + app_len`.
//!
//! A payload is empty or a typed [`Message`] that travels as itself:
//! control messages, GTP-U tunnels, radio frames and application messages
//! alike. A message is never encoded: the receiver downcasts it, and the
//! payload counts the length its encoding would have, so wire sizes are
//! the same as if it were bytes. An empty payload holds no allocation.
//!
//! Encapsulation (e.g. GTP-U in the `acacia-lte` crate) carries the inner
//! packet as a value and counts its header block and payload, and accounts
//! for the inner virtual length, so tunnelled wire sizes stay byte-accurate.

use crate::time::Instant;
use std::any::Any;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// IP protocol numbers used across the workspace.
pub mod proto {
    /// ICMP (used by the ping agent).
    pub const ICMP: u8 = 1;
    /// TCP (used by the greedy "iperf-like" flow).
    pub const TCP: u8 = 6;
    /// UDP (bearers, GTP tunnels, CBR generators).
    pub const UDP: u8 = 17;
    /// SCTP (S1AP control traffic).
    pub const SCTP: u8 = 132;
}

/// IPv4 header size (no options), bytes.
pub const IPV4_HEADER: u32 = 20;
/// UDP header size, bytes.
pub const UDP_HEADER: u32 = 8;
/// TCP header size (no options), bytes.
pub const TCP_HEADER: u32 = 20;
/// ICMP echo header size, bytes.
pub const ICMP_HEADER: u32 = 8;
/// SCTP common header plus one data chunk header, bytes.
pub const SCTP_HEADER: u32 = 12 + 16;

/// L4 header size for a protocol number.
pub fn l4_header_len(protocol: u8) -> u32 {
    match protocol {
        proto::UDP => UDP_HEADER,
        proto::TCP => TCP_HEADER,
        proto::ICMP => ICMP_HEADER,
        proto::SCTP => SCTP_HEADER,
        _ => 0,
    }
}

/// The classic 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl FiveTuple {
    /// The reverse direction of this flow.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

/// A message that travels typed: the sender hands over the value and the
/// receiver downcasts it, and only its encoding's length reaches the wire.
pub trait Message: Any + fmt::Debug + Send + Sync + DynEq {
    /// Length of this message's encoding, bytes.
    fn encoded_len(&self) -> u32;
    /// The short tag that names this message's kind, if fault rules may
    /// select it (`PacketClass::with_payload_tag`); none by default.
    fn tag(&self) -> Option<&'static str> {
        None
    }
}

/// Equality across type-erased messages; implemented for every
/// `PartialEq` type.
pub trait DynEq {
    /// Is `other` a value of this type, equal to this one?
    fn dyn_eq(&self, other: &dyn Any) -> bool;
}

impl<T: PartialEq + Any> DynEq for T {
    fn dyn_eq(&self, other: &dyn Any) -> bool {
        other.downcast_ref::<T>() == Some(self)
    }
}

/// What a packet carries beyond its headers: nothing, or a typed message
/// and its length on the wire (see [`Payload::typed`]).
#[derive(Debug, Clone, Default)]
pub struct Payload(Option<(Arc<dyn Message>, u32)>);

impl Payload {
    /// A typed payload behind `header` bytes of framing (0 for a bare
    /// message); its length, the header plus the message's encoding, is
    /// counted once, here.
    pub fn typed(header: u32, msg: impl Message) -> Payload {
        let len = header + msg.encoded_len();
        Payload(Some((Arc::new(msg), len)))
    }

    /// Length in bytes: the header plus the message's encoding, or 0.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |(_, len)| *len as usize)
    }

    /// Is the payload zero bytes long?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed message, if it is a `T`.
    pub fn msg<T: Message>(&self) -> Option<&T> {
        let (m, _) = self.0.as_ref()?;
        (&**m as &dyn Any).downcast_ref()
    }

    /// The typed message's tag; `None` when empty or untagged.
    pub fn tag(&self) -> Option<&'static str> {
        self.0.as_ref().and_then(|(m, _)| m.tag())
    }
}

/// Empty equals empty, and a typed message equals a message of the same
/// type and length that compares equal.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some((a, la)), Some((b, lb))) => la == lb && a.dyn_eq(&**b as &dyn Any),
            _ => false,
        }
    }
}

impl Eq for Payload {}

/// A simulated network packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source L4 port (0 for ICMP).
    pub src_port: u16,
    /// Destination L4 port (0 for ICMP).
    pub dst_port: u16,
    /// IP protocol number (see [`proto`]).
    pub protocol: u8,
    /// DSCP/TOS byte; the LTE layer maps QCI priorities onto this.
    pub tos: u8,
    /// Payload actually carried: a typed message (control, tunnel, radio
    /// frame or application message). Empty for pure-volume traffic.
    pub payload: Payload,
    /// Virtual application payload length that is accounted for on the wire
    /// but not physically stored.
    pub app_len: u32,
    /// Unique packet id assigned by the creator (monotonic per source).
    pub id: u64,
    /// Creation timestamp, for latency accounting.
    pub created: Instant,
}

impl Packet {
    /// A UDP packet with a virtual payload of `app_len` bytes.
    pub fn udp(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), app_len: u32) -> Packet {
        Packet {
            src: src.0,
            dst: dst.0,
            src_port: src.1,
            dst_port: dst.1,
            protocol: proto::UDP,
            tos: 0,
            payload: Payload::default(),
            app_len,
            id: 0,
            created: Instant::ZERO,
        }
    }

    /// A TCP segment with a virtual payload (used by the greedy flow).
    pub fn tcp(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), app_len: u32) -> Packet {
        Packet {
            protocol: proto::TCP,
            ..Packet::udp(src, dst, app_len)
        }
    }

    /// An ICMP echo request/reply of `app_len` payload bytes.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, app_len: u32) -> Packet {
        Packet {
            protocol: proto::ICMP,
            ..Packet::udp((src, 0), (dst, 0), app_len)
        }
    }

    /// Total on-the-wire size in bytes (IP + L4 headers + typed + virtual
    /// payload).
    pub fn wire_size(&self) -> u32 {
        IPV4_HEADER + l4_header_len(self.protocol) + self.payload.len() as u32 + self.app_len
    }

    /// The packet's 5-tuple.
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple {
            src: self.src,
            dst: self.dst,
            src_port: self.src_port,
            dst_port: self.dst_port,
            protocol: self.protocol,
        }
    }

    /// Builder-style: set the TOS byte.
    pub fn with_tos(mut self, tos: u8) -> Packet {
        self.tos = tos;
        self
    }

    /// Builder-style: set the packet id.
    pub fn with_id(mut self, id: u64) -> Packet {
        self.id = id;
        self
    }

    /// Builder-style: set the creation timestamp.
    pub fn with_created(mut self, at: Instant) -> Packet {
        self.created = at;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn wire_size_accounts_for_headers_and_virtual_payload() {
        let p = Packet::udp((ip(1), 1000), (ip(2), 2000), 1472);
        assert_eq!(p.wire_size(), 20 + 8 + 1472);
        let t = Packet::tcp((ip(1), 1000), (ip(2), 2000), 1448);
        assert_eq!(t.wire_size(), 20 + 20 + 1448);
        let i = Packet::icmp(ip(1), ip(2), 56);
        assert_eq!(i.wire_size(), 20 + 8 + 56);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Note(&'static str);

    impl Message for Note {
        fn encoded_len(&self) -> u32 {
            self.0.len() as u32 + 2
        }

        fn tag(&self) -> Option<&'static str> {
            Some("N")
        }
    }

    #[test]
    fn wire_size_counts_stored_and_virtual_payload_together() {
        let mut p = Packet::udp((ip(1), 1), (ip(2), 2), 100);
        p.payload = Payload::typed(0, Note("01234567"));
        assert_eq!(p.wire_size(), 20 + 8 + 10 + 100);
    }

    #[test]
    fn typed_payload_counts_its_encoding_and_downcasts() {
        let mut p = Packet::udp((ip(1), 1), (ip(2), 2), 100);
        p.payload = Payload::typed(0, Note("12345678"));
        assert_eq!(p.payload.len(), 10);
        assert_eq!(p.wire_size(), 20 + 8 + 10 + 100);
        assert_eq!(p.payload.tag(), Some("N"));
        assert_eq!(p.payload.msg::<Note>(), Some(&Note("12345678")));
        // Equal when the same type compares equal, never equal to empty.
        assert_eq!(p.payload, Payload::typed(0, Note("12345678")));
        assert_ne!(p.payload, Payload::typed(0, Note("1234567x")));
        // A frame header counts towards the length, and tells payloads apart.
        let framed = Payload::typed(1, Note("12345678"));
        assert_eq!(
            (framed.len(), framed.msg::<Note>()),
            (11, Some(&Note("12345678")))
        );
        assert_ne!(p.payload, framed);
        assert_ne!(p.payload, Payload::default());
        let empty = Payload::default();
        assert_eq!((empty.len(), empty.is_empty()), (0, true));
        assert_eq!(empty.msg::<Note>(), None);
        assert_eq!(empty.tag(), None);
        assert_eq!(empty, Packet::icmp(ip(1), ip(2), 56).payload);
    }

    #[test]
    fn five_tuple_reverse_is_involutive() {
        let p = Packet::udp((ip(1), 1000), (ip(2), 2000), 0);
        let ft = p.five_tuple();
        assert_eq!(ft.reversed().reversed(), ft);
        assert_eq!(ft.reversed().src, ip(2));
        assert_eq!(ft.reversed().dst_port, 1000);
    }

    #[test]
    fn builders_set_fields() {
        let p = Packet::udp((ip(1), 1), (ip(2), 2), 0)
            .with_tos(46)
            .with_id(7)
            .with_created(Instant::from_millis(3));
        assert_eq!(p.tos, 46);
        assert_eq!(p.id, 7);
        assert_eq!(p.created, Instant::from_millis(3));
    }

    #[test]
    fn unknown_protocol_has_no_l4_header() {
        assert_eq!(l4_header_len(99), 0);
        assert_eq!(l4_header_len(proto::SCTP), 28);
    }
}
