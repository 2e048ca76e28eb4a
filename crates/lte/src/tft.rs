//! Traffic Flow Templates (3GPP TS 24.008 §10.5.6.12).
//!
//! A TFT is the packet filter attached to a bearer: essentially a list of
//! five-tuple filters with directions and precedences. ACACIA's key trick is
//! that the **uplink TFT lives in the UE's LTE modem**, so CI traffic is
//! classified at the source and steered onto the dedicated MEC bearer with
//! no network-side inspection (paper §5.4).

use acacia_simnet::packet::Packet;
use std::net::Ipv4Addr;

/// Which direction(s) a filter applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// UE → network.
    Uplink,
    /// Network → UE.
    Downlink,
    /// Both.
    Bidirectional,
}

/// One packet filter within a TFT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketFilter {
    /// Evaluation precedence (lower evaluated first).
    pub precedence: u8,
    /// Direction the filter applies to.
    pub direction: Direction,
    /// Remote (network-side) address to match, with prefix length.
    pub remote_addr: Option<(Ipv4Addr, u8)>,
    /// Remote port range (inclusive).
    pub remote_port: Option<(u16, u16)>,
    /// IP protocol number.
    pub protocol: Option<u8>,
}

impl PacketFilter {
    /// Match all traffic to a single remote host (any port/protocol).
    pub fn to_host(remote: Ipv4Addr) -> PacketFilter {
        PacketFilter {
            precedence: 0,
            direction: Direction::Bidirectional,
            remote_addr: Some((remote, 32)),
            remote_port: None,
            protocol: None,
        }
    }

    /// Match a single remote host + port + protocol.
    pub fn to_service(remote: Ipv4Addr, port: u16, protocol: u8) -> PacketFilter {
        PacketFilter {
            precedence: 0,
            direction: Direction::Bidirectional,
            remote_addr: Some((remote, 32)),
            remote_port: Some((port, port)),
            protocol: Some(protocol),
        }
    }

    /// Does `pkt`, travelling in `dir`, match this filter? The *remote* end
    /// is the destination for uplink packets and the source for downlink.
    pub fn matches(&self, pkt: &Packet, dir: Direction) -> bool {
        match (self.direction, dir) {
            (Direction::Bidirectional, _) => {}
            (Direction::Uplink, Direction::Uplink) => {}
            (Direction::Downlink, Direction::Downlink) => {}
            _ => return false,
        }
        let (remote_ip, remote_port) = match dir {
            Direction::Uplink => (pkt.dst, pkt.dst_port),
            Direction::Downlink => (pkt.src, pkt.src_port),
            Direction::Bidirectional => (pkt.dst, pkt.dst_port),
        };
        if let Some((net, plen)) = self.remote_addr {
            let mask = if plen == 0 {
                0
            } else {
                u32::MAX << (32 - plen as u32)
            };
            if (u32::from(remote_ip) & mask) != (u32::from(net) & mask) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.remote_port {
            if remote_port < lo || remote_port > hi {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if pkt.protocol != proto {
                return false;
            }
        }
        true
    }

    /// Encoded size in bytes (TS 24.008-style component list).
    pub fn wire_len(&self) -> u32 {
        let mut len = 3; // filter id + direction + precedence
        if self.remote_addr.is_some() {
            len += 9; // type + addr + mask
        }
        if self.remote_port.is_some() {
            len += 5; // type + range
        }
        if self.protocol.is_some() {
            len += 2; // type + number
        }
        len
    }
}

/// A Traffic Flow Template: ordered packet filters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tft {
    /// Filters, evaluated in precedence order.
    pub filters: Vec<PacketFilter>,
}

impl Tft {
    /// Empty (match-nothing) TFT.
    pub fn new() -> Tft {
        Tft::default()
    }

    /// A TFT with a single filter.
    pub fn single(filter: PacketFilter) -> Tft {
        Tft {
            filters: vec![filter],
        }
    }

    /// Does any filter match? Precedence orders which filter claims a
    /// packet, not whether one does, so the filters are tried as stored.
    pub fn matches(&self, pkt: &Packet, dir: Direction) -> bool {
        self.filters.iter().any(|f| f.matches(pkt, dir))
    }

    /// Encoded size in bytes.
    pub fn wire_len(&self) -> u32 {
        1 + self.filters.iter().map(|f| f.wire_len()).sum::<u32>()
    }
}

crate::json_codec!(
    enum Direction {
        Uplink = "U",
        Downlink = "D",
        Bidirectional = "B",
    }
);
crate::json_codec! {
    struct PacketFilter {
        precedence as "p", direction as "d"; remote_addr as "a", remote_port as "r", protocol as "x"
    }
}
crate::json_codec!(struct Tft { filters as "f" });

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_simnet::packet::proto;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 4, 0, a)
    }

    fn pkt(dst: Ipv4Addr, dst_port: u16, protocol: u8) -> Packet {
        let mut p = Packet::udp((Ipv4Addr::new(10, 10, 0, 1), 40_000), (dst, dst_port), 100);
        p.protocol = protocol;
        p
    }

    #[test]
    fn host_filter_matches_uplink_by_destination() {
        let f = PacketFilter::to_host(ip(1));
        assert!(f.matches(&pkt(ip(1), 80, proto::UDP), Direction::Uplink));
        assert!(!f.matches(&pkt(ip(2), 80, proto::UDP), Direction::Uplink));
    }

    #[test]
    fn downlink_matches_by_source() {
        let f = PacketFilter::to_host(ip(1));
        let mut p = pkt(ip(9), 80, proto::UDP);
        p.src = ip(1);
        assert!(f.matches(&p, Direction::Downlink));
        p.src = ip(3);
        assert!(!f.matches(&p, Direction::Downlink));
    }

    #[test]
    fn service_filter_checks_port_and_protocol() {
        let f = PacketFilter::to_service(ip(1), 9000, proto::UDP);
        assert!(f.matches(&pkt(ip(1), 9000, proto::UDP), Direction::Uplink));
        assert!(!f.matches(&pkt(ip(1), 9001, proto::UDP), Direction::Uplink));
        assert!(!f.matches(&pkt(ip(1), 9000, proto::TCP), Direction::Uplink));
    }

    #[test]
    fn direction_restricted_filter() {
        let f = PacketFilter {
            direction: Direction::Uplink,
            ..PacketFilter::to_host(ip(1))
        };
        assert!(f.matches(&pkt(ip(1), 80, proto::UDP), Direction::Uplink));
        let mut down = pkt(ip(9), 80, proto::UDP);
        down.src = ip(1);
        assert!(!f.matches(&down, Direction::Downlink));
    }

    #[test]
    fn prefix_match() {
        let f = PacketFilter {
            remote_addr: Some((Ipv4Addr::new(10, 4, 0, 0), 24)),
            ..PacketFilter::to_host(ip(0))
        };
        assert!(f.matches(&pkt(ip(77), 80, proto::UDP), Direction::Uplink));
        assert!(!f.matches(
            &pkt(Ipv4Addr::new(10, 5, 0, 1), 80, proto::UDP),
            Direction::Uplink
        ));
    }

    #[test]
    fn empty_tft_matches_nothing() {
        let t = Tft::new();
        assert!(!t.matches(&pkt(ip(1), 80, proto::UDP), Direction::Uplink));
    }

    #[test]
    fn tft_any_filter_matches() {
        let t = Tft {
            filters: vec![PacketFilter::to_host(ip(1)), PacketFilter::to_host(ip(2))],
        };
        assert!(t.matches(&pkt(ip(2), 80, proto::UDP), Direction::Uplink));
        assert!(!t.matches(&pkt(ip(3), 80, proto::UDP), Direction::Uplink));
    }

    #[test]
    fn wire_len_grows_with_components() {
        let host = PacketFilter::to_host(ip(1));
        let service = PacketFilter::to_service(ip(1), 80, proto::UDP);
        assert!(service.wire_len() > host.wire_len());
        let t = Tft {
            filters: vec![host.clone(), service],
        };
        assert_eq!(t.wire_len(), 1 + host.wire_len() + 19);
    }
}
