//! IPv4 prefix routing and a generic router node.

use crate::packet::Packet;
use crate::sim::{Ctx, Node, PortId};
use std::net::Ipv4Addr;

/// An IPv4 network prefix, e.g. `10.1.0.0/16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Build a prefix; the host bits of `addr` are masked off.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Ipv4Net {
        assert!(prefix_len <= 32, "prefix length out of range");
        let mask = Self::mask_of(prefix_len);
        Ipv4Net {
            addr: Ipv4Addr::from(u32::from(addr) & mask),
            prefix_len,
        }
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub const fn default_route() -> Ipv4Net {
        Ipv4Net {
            addr: Ipv4Addr::UNSPECIFIED,
            prefix_len: 0,
        }
    }

    /// A single-host prefix (`/32`).
    pub fn host(addr: Ipv4Addr) -> Ipv4Net {
        Ipv4Net::new(addr, 32)
    }

    fn mask_of(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }

    /// Does `addr` fall within this prefix?
    pub(crate) fn contains(&self, addr: Ipv4Addr) -> bool {
        let mask = Self::mask_of(self.prefix_len);
        (u32::from(addr) & mask) == u32::from(self.addr)
    }

    /// Prefix length in bits.
    pub(crate) fn prefix_len(&self) -> u8 {
        self.prefix_len
    }
}

/// A routing table mapping destination prefixes to output ports, with
/// longest-prefix-match semantics.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<(Ipv4Net, PortId)>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Add a route. Later insertions of the same prefix override earlier ones.
    pub fn add(&mut self, net: Ipv4Net, port: PortId) -> &mut Self {
        self.routes.retain(|(n, _)| *n != net);
        self.routes.push((net, port));
        // Keep sorted by descending prefix length for longest-prefix match.
        self.routes
            .sort_by_key(|&(net, _)| std::cmp::Reverse(net.prefix_len()));
        self
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<PortId> {
        self.routes
            .iter()
            .find(|(net, _)| net.contains(dst))
            .map(|&(_, port)| port)
    }
}

/// A store-and-forward router: each arriving packet leaves at once on the
/// port its destination's longest matching prefix names.
pub struct Router {
    table: RouteTable,
    /// Forwarded packet count.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
}

impl Router {
    /// A router over `table`.
    pub fn new(table: RouteTable) -> Router {
        Router {
            table,
            forwarded: 0,
            no_route: 0,
        }
    }

    /// Replace the routing table.
    pub fn set_table(&mut self, table: RouteTable) {
        self.table = table;
    }
}

impl Node for Router {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        match self.table.lookup(pkt.dst) {
            Some(port) => {
                self.forwarded += 1;
                ctx.send(port, pkt);
            }
            None => self.no_route += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulator;
    use crate::time::{Duration, Instant};
    use crate::traffic::Sink;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn prefix_contains_masks_host_bits() {
        let net = Ipv4Net::new(ip(10, 1, 2, 3), 16);
        assert_eq!(net.addr, ip(10, 1, 0, 0));
        assert!(net.contains(ip(10, 1, 200, 9)));
        assert!(!net.contains(ip(10, 2, 0, 1)));
        assert!(Ipv4Net::default_route().contains(ip(8, 8, 8, 8)));
        assert!(Ipv4Net::host(ip(1, 2, 3, 4)).contains(ip(1, 2, 3, 4)));
        assert!(!Ipv4Net::host(ip(1, 2, 3, 4)).contains(ip(1, 2, 3, 5)));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::new();
        t.add(Ipv4Net::default_route(), 0);
        t.add(Ipv4Net::new(ip(10, 0, 0, 0), 8), 1);
        t.add(Ipv4Net::new(ip(10, 9, 0, 0), 16), 2);
        assert_eq!(t.lookup(ip(8, 8, 8, 8)), Some(0));
        assert_eq!(t.lookup(ip(10, 1, 1, 1)), Some(1));
        assert_eq!(t.lookup(ip(10, 9, 1, 1)), Some(2));
    }

    #[test]
    fn re_adding_prefix_overrides() {
        let mut t = RouteTable::new();
        t.add(Ipv4Net::default_route(), 0);
        t.add(Ipv4Net::default_route(), 3);
        assert_eq!(t.routes.len(), 1);
        assert_eq!(t.lookup(ip(1, 1, 1, 1)), Some(3));
    }

    #[test]
    fn router_forwards_by_destination() {
        let mut sim = Simulator::new(5);
        let mut table = RouteTable::new();
        table.add(Ipv4Net::new(ip(10, 1, 0, 0), 16), 1);
        table.add(Ipv4Net::new(ip(10, 2, 0, 0), 16), 2);
        let router = sim.add_node(Box::new(Router::new(table)));
        let sink1 = sim.add_node(Box::new(Sink::new()));
        let sink2 = sim.add_node(Box::new(Sink::new()));
        sim.connect(
            (router, 1),
            (sink1, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );
        sim.connect(
            (router, 2),
            (sink2, 0),
            LinkConfig::delay_only(Duration::from_millis(1)),
        );

        let p1 = Packet::udp((ip(10, 9, 0, 1), 1), (ip(10, 1, 0, 5), 2), 100);
        let p2 = Packet::udp((ip(10, 9, 0, 1), 1), (ip(10, 2, 0, 5), 2), 100);
        let p3 = Packet::udp((ip(10, 9, 0, 1), 1), (ip(9, 9, 9, 9), 2), 100);
        sim.inject_packet(router, 0, Instant::ZERO, p1);
        sim.inject_packet(router, 0, Instant::ZERO, p2);
        sim.inject_packet(router, 0, Instant::ZERO, p3);
        sim.run_until_idle();

        assert_eq!(sim.node_ref::<Sink>(sink1).packets(), 1);
        assert_eq!(sim.node_ref::<Sink>(sink2).packets(), 1);
        let r = sim.node_ref::<Router>(router);
        assert_eq!(r.forwarded, 2);
        assert_eq!(r.no_route, 1);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn bad_prefix_len_panics() {
        let _ = Ipv4Net::new(ip(1, 1, 1, 1), 33);
    }
}
