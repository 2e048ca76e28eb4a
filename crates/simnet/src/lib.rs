//! # acacia-simnet — deterministic discrete-event network simulator
//!
//! The substrate beneath the ACACIA reproduction: an event-driven,
//! packet-level network simulator in the spirit of smoltcp's explicit-time
//! design. Everything is deterministic given a seed; simulated time is
//! integer nanoseconds and never touches the wall clock.
//!
//! Building blocks:
//!
//! * [`time`] — [`Instant`]/[`Duration`] fixed-point sim time.
//! * [`packet`] — IPv4-flavoured [`Packet`]s with byte-accurate wire sizes
//!   and *virtual payload lengths* for volume traffic.
//! * [`sim`] — the [`Simulator`] event loop, the [`Node`] trait and the
//!   [`Ctx`] handle nodes use to send packets and arm timers.
//! * [`wheel`] — the timing-wheel priority queue behind the event loop
//!   (O(1) amortized for the near-future timers that dominate).
//! * [`link`] — serialization + propagation + drop-tail queue + jitter/loss
//!   fault injection.
//! * [`fault`] — deterministic per-link fault plans (drop / duplicate /
//!   reorder / delay, targetable by message class, window or occurrence).
//! * [`router`] — longest-prefix-match IPv4 routing, with an optional
//!   serial per-packet processing cost (software data planes).
//! * [`traffic`] — CBR/Poisson sources, counting sinks, echo reflectors.
//! * [`transport`] — ping prober and greedy AIMD flow (iperf-like).
//! * [`stats`] — series summaries, percentiles, CDFs.
//! * [`cloud`] — EC2 wide-area path presets from the paper's measurements.
//!
//! ## Example
//!
//! ```
//! use acacia_simnet::prelude::*;
//! use std::net::Ipv4Addr;
//!
//! let mut sim = Simulator::new(42);
//! let client = Ipv4Addr::new(10, 0, 0, 1);
//! let server = Ipv4Addr::new(10, 0, 0, 2);
//! let ping = sim.add_node(Box::new(PingAgent::new(
//!     client, server, Duration::from_millis(100), 10,
//! )));
//! let echo = sim.add_node(Box::new(Reflector::new()));
//! sim.connect((ping, 0), (echo, 0), LinkConfig::delay_only(Duration::from_millis(5)));
//! sim.schedule_timer(ping, Instant::ZERO, PingAgent::KICKOFF);
//! sim.run_until_idle();
//! assert_eq!(sim.node_ref::<PingAgent>(ping).rtts().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloud;
pub mod fault;
pub mod link;
pub mod packet;
pub mod router;
pub(crate) mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod traffic;
pub mod transport;
pub mod wheel;

pub use fault::{FaultKind, FaultPlan, FaultRule, PacketClass};
pub use link::{ClassStats, LinkConfig, LinkStats};
pub use packet::{FiveTuple, Packet};
pub use router::{Ipv4Net, RouteTable, Router};
pub use sim::{
    default_shards, set_default_shards, shard_imbalance, Ctx, EvKey, Node, NodeId, PortId,
    Simulator, TimerHandle,
};
pub use stats::Series;
pub use time::{Duration, Instant};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cloud::Ec2Region;
    pub use crate::fault::{FaultKind, FaultPlan, FaultRule, PacketClass};
    pub use crate::link::LinkConfig;
    pub use crate::packet::{proto, FiveTuple, Packet};
    pub use crate::router::{Ipv4Net, RouteTable, Router};
    pub use crate::sim::{Ctx, Node, NodeId, PortId, Simulator};
    pub use crate::stats::Series;
    pub use crate::time::{Duration, Instant};
    pub use crate::traffic::{Reflector, Sink, UdpSource};
    pub use crate::transport::{GreedyFlow, GreedyReceiver, PingAgent};
}
