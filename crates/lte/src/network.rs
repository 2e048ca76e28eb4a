//! Assembles the full LTE/EPC topology of the paper's Fig. 5 and drives
//! the standard procedures: attach, network-initiated dedicated bearer
//! activation, idle release and service-request re-establishment.
//!
//! ```text
//!  apps ── UE ──radio── eNB ──S1-U── SGW-U ──S5── PGW-U ── internet ── cloud
//!                        │  └─S1-U── local GW-U ── MEC servers
//!                        └──S1AP── MME ──GTP-C── GW-C ──OF── {GW-Us}
//!                                   │              │
//!                                  HSS           PCRF ──Rx── (MRS, in acacia core)
//! ```

use crate::enb::{token as enb_token, Enb};
use crate::entities::{
    gwc_port, mme_port, pcrf_port, GwControl, GwTopology, Hss, LocalGw, Mme, MmeUeState, Pcrf,
};
use crate::ids::Imsi;
use crate::log::MsgLog;
use crate::mobility::{CellSite, Trajectory, Waypoint};
use crate::qci::Qci;
use crate::radio::{params, port};
use crate::switch::{FlowSwitch, SwitchCosts};
use crate::ue::{token as ue_token, AppSelector, Ue, UeMobility, UeState};
use crate::wire::{ControlMsg, FlowActionSpec, FlowMatchSpec, PolicyRule};
use acacia_geo::{PathLossModel, Point};
use acacia_simnet::link::LinkConfig;
use acacia_simnet::sim::{Node, NodeId, PortId, Simulator};
use acacia_simnet::time::{Duration, Instant};
use std::fmt;
use std::net::Ipv4Addr;

/// Well-known addresses in the reproduction's core network.
pub mod addr {
    use std::net::Ipv4Addr;

    /// eNB S1/control address.
    pub const ENB: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    /// eNB radio-side address.
    pub const ENB_RADIO: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    /// First UE radio-side address (host part increments per UE).
    pub const UE_RADIO_BASE: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 100);
    /// Core SGW-U.
    pub const SGW_U: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);
    /// Core PGW-U.
    pub const PGW_U: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 2);
    /// Local (MEC) combined S/PGW-U.
    pub const LOCAL_GWU: Ipv4Addr = Ipv4Addr::new(10, 2, 1, 1);
    /// MME.
    pub const MME: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 1);
    /// GW-C (SGW-C + PGW-C + PCEF).
    pub const GWC: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 2);
    /// PCRF.
    pub const PCRF: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 3);
    /// HSS.
    pub const HSS: Ipv4Addr = Ipv4Addr::new(10, 3, 0, 4);
    /// UE IP pool base (PGW assigns base+1, base+2, ...).
    pub const UE_POOL: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 0);
    /// First MEC server address.
    pub const MEC_BASE: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 1);
    /// First cloud server address.
    pub const CLOUD_BASE: Ipv4Addr = Ipv4Addr::new(52, 0, 0, 1);
    /// Background traffic source.
    pub const BG_SOURCE: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);

    /// S1/control address of the eNB serving cell `i` (cell 0 is [`ENB`]).
    pub(crate) fn enb(i: usize) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(ENB) + i as u32)
    }

    /// Radio-side address of the eNB serving cell `i`.
    pub(crate) fn enb_radio(i: usize) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(ENB_RADIO) + i as u32)
    }

    /// Address of local GW-U site `s` (site 0 is [`LOCAL_GWU`]).
    pub(crate) fn local_gwu(s: usize) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(LOCAL_GWU) + s as u32)
    }

    /// Address of MEC server `k` behind local GW-U site `s` (site 0's
    /// first server is [`MEC_BASE`], preserving the single-site scheme).
    pub fn mec(s: usize, k: usize) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(MEC_BASE) + ((s as u32) << 8) + k as u32)
    }
}

/// One-way eNB ↔ SGW-U backhaul delay; the X2 mesh between eNBs uses it
/// too.
const BACKHAUL_DELAY: Duration = Duration::from_micros(1_000);
/// One-way SGW-U ↔ PGW-U delay (the paper's "hierarchical routing in the
/// core network" inflation).
const CORE_DELAY: Duration = Duration::from_micros(5_000);
/// One-way PGW-U ↔ Internet-exchange delay.
const INET_DELAY: Duration = Duration::from_micros(500);
/// One-way eNB ↔ local GW-U delay (MEC placement: the paper measures the
/// eNB↔MEC RTT at ~1.6 ms).
const MEC_DELAY: Duration = Duration::from_micros(400);

/// One cell of the radio topology.
#[derive(Debug, Clone, Copy)]
pub struct CellConfig {
    /// Transmitter position, metres (drives the RSRP seen by moving UEs).
    pub pos: Point,
    /// Does this cell's eNB have an S1 leg to the local (MEC) GW-U? The
    /// paper's small cell does; the macrocell does not.
    pub mec: bool,
    /// Spatial region (shard affinity): the cell's eNB, its UEs and their
    /// apps all execute on shard `region % shards`. Scenarios that never
    /// run sharded can leave every cell in region 0.
    pub region: u32,
}

/// Tunable parameters of the topology.
#[derive(Debug, Clone)]
pub struct LteConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Capacity of the SGW↔PGW and PGW↔internet links, bits/s.
    pub core_rate_bps: u64,
    /// Queue bound on the core links, bytes (bufferbloat knob for
    /// Fig. 3(g)/10(b)).
    pub core_queue_bytes: u64,
    /// Subscribers to provision (one UE node each).
    pub ue_count: usize,
    /// Automatic inactivity release at the eNB (the paper's 11.576 s
    /// timer; see [`crate::overhead::IDLE_TIMEOUT`]). `None` = procedures
    /// are driven explicitly by the harness.
    pub auto_idle: Option<Duration>,
    /// Radio cells (one eNB each). The first cell is where UEs initially
    /// camp. At most `ENB_RADIO_BASE - ENB_X2_BASE` (= 36) cells.
    pub cells: Vec<CellConfig>,
    /// Per-UE visible-cell lists (`ue_cells[i]` = global cell indices UE
    /// `i` is registered on; the first entry is where it camps). Empty =
    /// every UE sees every cell, the pre-city behaviour. A city topology
    /// scopes each UE to its own region's cells so shards stay decoupled.
    pub ue_cells: Vec<Vec<usize>>,
    /// Build one local (MEC) GW-U + MEC router per region that has at
    /// least one MEC cell, instead of a single shared site. Required for
    /// near-linear shard scaling: a single local GW-U serializes every
    /// region's MEC traffic onto one shard.
    pub local_gw_per_region: bool,
    /// Route MEC-server traffic from the Internet exchange through the
    /// local GW-U ("core detour"): lets a UE that lost its dedicated
    /// bearer still reach MEC servers over the default bearer, at core-
    /// network latency cost.
    pub core_detour: bool,
}

impl Default for LteConfig {
    fn default() -> LteConfig {
        LteConfig {
            seed: 1,
            core_rate_bps: 1_000_000_000,
            core_queue_bytes: 4 * 1024 * 1024,
            ue_count: 1,
            auto_idle: None,
            cells: vec![CellConfig {
                pos: Point::new(0.0, 0.0),
                mec: true,
                region: 0,
            }],
            ue_cells: Vec::new(),
            local_gw_per_region: false,
            core_detour: false,
        }
    }
}

/// The assembled network with handles to every element.
pub struct LteNetwork {
    /// The underlying simulator.
    pub sim: Simulator,
    /// Shared control-plane message log.
    pub log: MsgLog,
    /// Configuration used to build it.
    pub cfg: LteConfig,
    /// UE node ids (one per subscriber).
    pub ues: Vec<NodeId>,
    /// eNB node ids, one per cell (`enbs[0] == enb`).
    pub enbs: Vec<NodeId>,
    /// The first cell's eNB node id.
    pub enb: NodeId,
    /// MME node id.
    pub mme: NodeId,
    /// HSS node id.
    pub hss: NodeId,
    /// PCRF node id.
    pub pcrf: NodeId,
    /// GW-C node id.
    pub gwc: NodeId,
    /// Core SGW-U node id.
    pub sgw_u: NodeId,
    /// Core PGW-U node id.
    pub pgw_u: NodeId,
    /// First local (MEC) GW-U node id (`local_sites[0]`).
    pub local_gwu: NodeId,
    /// Router fanning out to the first site's MEC servers.
    pub mec_router: NodeId,
    /// Router fanning out to cloud servers (the Internet).
    pub inet_router: NodeId,
    /// MME-side port of each cell's S1AP link (`mme_ports[i]` ↔ cell `i`).
    mme_ports: Vec<PortId>,
    next_ue_app_port: Vec<PortId>,
    /// Local GW-U sites (one in single-site mode; one per MEC region when
    /// `local_gw_per_region` is set).
    local_sites: Vec<LocalSite>,
    /// Visible-cell list per UE (global cell indices, camp cell first).
    ue_vis: Vec<Vec<usize>>,
    /// eNB-side radio port per UE per visible cell, parallel to `ue_vis`.
    ue_radio_ports: Vec<Vec<PortId>>,
    /// Region hosting the shared core (MME/GW-C/SGW/PGW/Internet).
    core_region: u32,
    cloud_servers: usize,
    bg_installed: bool,
    detour_installed: bool,
    /// Has [`LteNetwork::enable_failover_core_path`] wired the per-site
    /// core routes? Off by default — the flag gates every route delta so
    /// existing scenarios stay byte-identical.
    mec_core_routes: bool,
}

/// One local (MEC) GW-U site: the switch, its server-side router, and the
/// servers attached so far.
struct LocalSite {
    region: u32,
    gwu: NodeId,
    router: NodeId,
    servers: Vec<Ipv4Addr>,
    /// Attached UE addresses camped in this site's region (snapshotted by
    /// [`LteNetwork::enable_failover_core_path`]); these keep the local
    /// GW-U fast path when the site router grows a core-facing default.
    ue_hosts: Vec<Ipv4Addr>,
}

/// Port on the Internet router reserved for the core-detour link toward
/// the local GW-U (cloud servers occupy ports 1..).
const INET_DETOUR_PORT: PortId = 64;
/// Port on the local GW-U reserved for the core-detour link (1 and 4+ are
/// eNB-facing, 2 faces the MEC router, 0 is OpenFlow control).
const LOCAL_DETOUR_PORT: PortId = 3;
/// Port on each *site router* reserved for the failover core-path link
/// (0 faces the local GW-U, 1.. fan out to the site's servers).
const SITE_DETOUR_PORT: PortId = 63;
/// First Internet-router port for the per-site failover links (site `s`
/// lands on `INET_SITE_BASE + s`). Only used in per-region mode, where
/// the single-site [`INET_DETOUR_PORT`] detour is asserted off, so the
/// shared base is safe.
const INET_SITE_BASE: PortId = 64;

/// User-plane port of a gateway's `k`-th cell, on the SGW-U and on a
/// local GW-U alike: the first cell on port 1, further cells from port 4
/// (0 is OpenFlow control, 2 the next hop inward, 3 a side link).
fn cell_port(k: usize) -> PortId {
    if k == 0 {
        1
    } else {
        3 + k
    }
}

impl LteNetwork {
    /// Build the topology.
    pub fn new(cfg: LteConfig) -> LteNetwork {
        let mut sim = Simulator::new(cfg.seed);
        let log = MsgLog::new();

        let cells = cfg.cells.clone();
        assert!(!cells.is_empty(), "topology needs >= 1 cell");
        assert!(
            cells.len() <= port::ENB_RADIO_BASE - port::ENB_X2_BASE,
            "X2 port window caps the topology at {} cells",
            port::ENB_RADIO_BASE - port::ENB_X2_BASE
        );
        assert!(
            !(cfg.core_detour && cfg.local_gw_per_region),
            "core_detour supports only the single-site local GW-U"
        );
        if !cfg.ue_cells.is_empty() {
            assert_eq!(
                cfg.ue_cells.len(),
                cfg.ue_count,
                "ue_cells must list visible cells for every UE"
            );
            for (i, vis) in cfg.ue_cells.iter().enumerate() {
                assert!(!vis.is_empty(), "UE {i} must see >= 1 cell");
                assert!(
                    vis.iter().all(|&c| c < cells.len()),
                    "UE {i} visible-cell index out of range"
                );
            }
        }
        let core_region = cells[0].region;

        // Local GW-U sites: in per-region mode, one per region with at
        // least one MEC cell (ordered by first appearance over the cell
        // list); otherwise a single site serving every MEC cell.
        let mut site_regions: Vec<u32> = Vec::new();
        if cfg.local_gw_per_region {
            for c in cells.iter().filter(|c| c.mec) {
                if !site_regions.contains(&c.region) {
                    site_regions.push(c.region);
                }
            }
            assert!(
                !site_regions.is_empty(),
                "local_gw_per_region needs >= 1 MEC cell"
            );
        } else {
            site_regions.push(
                cells
                    .iter()
                    .find(|c| c.mec)
                    .map_or(core_region, |c| c.region),
            );
        }
        let per_region = cfg.local_gw_per_region;
        let site_of_region = |r: u32| -> usize {
            if per_region {
                site_regions
                    .iter()
                    .position(|&x| x == r)
                    .expect("MEC cell region has a local site")
            } else {
                0
            }
        };

        // Per-site eNB port maps on the local GW-Us (2 = MEC router, 3 =
        // core detour).
        let nsites = site_regions.len();
        let mut site_enb_ports: Vec<Vec<(Ipv4Addr, usize)>> = vec![Vec::new(); nsites];
        let mut mec_links: Vec<(usize, usize, PortId)> = Vec::new(); // (cell, site, port)
        for (i, c) in cells.iter().enumerate() {
            if c.mec {
                let s = site_of_region(c.region);
                let lp = cell_port(site_enb_ports[s].len());
                mec_links.push((i, s, lp));
                site_enb_ports[s].push((addr::enb(i), lp));
            }
        }

        let mut enb_nodes: Vec<Enb> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut e = Enb::new(addr::enb(i), addr::MME, log.clone());
                e.auto_idle = cfg.auto_idle;
                e.add_s1_gateway(addr::SGW_U, port::ENB_S1_CORE);
                if c.mec {
                    e.add_s1_gateway(addr::local_gwu(site_of_region(c.region)), port::ENB_S1_MEC);
                }
                e
            })
            .collect();
        // Every eNB knows every other as an X2 neighbour.
        for (i, e) in enb_nodes.iter_mut().enumerate() {
            for j in 0..cells.len() {
                if i != j {
                    e.add_x2_neighbor(addr::enb_radio(j), addr::enb(j), port::ENB_X2_BASE + j);
                }
            }
        }

        // Subscribers: each UE is registered on every cell it can see, in
        // its visibility order, and remembers the eNB-side radio port each
        // registration returned (ports differ per eNB once visibility is
        // scoped — eNBs hand out sequential ports to *their* subscribers).
        let all_cells: Vec<usize> = (0..cells.len()).collect();
        let mut imsis = Vec::new();
        let mut ue_nodes = Vec::new();
        let mut ue_vis: Vec<Vec<usize>> = Vec::new();
        let mut ue_radio_ports: Vec<Vec<PortId>> = Vec::new();
        for i in 0..cfg.ue_count {
            let imsi = Imsi(310_410_000_000_001 + i as u64);
            let radio_addr = Ipv4Addr::from(u32::from(addr::UE_RADIO_BASE) + i as u32);
            let vis: Vec<usize> = if cfg.ue_cells.is_empty() {
                all_cells.clone()
            } else {
                cfg.ue_cells[i].clone()
            };
            let ports: Vec<PortId> = vis
                .iter()
                .map(|&c| enb_nodes[c].add_ue(imsi, radio_addr))
                .collect();
            imsis.push(imsi);
            ue_nodes.push((imsi, radio_addr));
            ue_vis.push(vis);
            ue_radio_ports.push(ports);
        }

        let enbs: Vec<NodeId> = enb_nodes
            .into_iter()
            .enumerate()
            .map(|(i, e)| sim.add_node_in_region(Box::new(e), cells[i].region))
            .collect();
        let enb = enbs[0];
        // X2 mesh (direct eNB↔eNB, backhaul-class links).
        let x2 = LinkConfig::rate_limited(cfg.core_rate_bps, BACKHAUL_DELAY)
            .with_queue(cfg.core_queue_bytes);
        for i in 0..cells.len() {
            for j in (i + 1)..cells.len() {
                sim.connect(
                    (enbs[i], port::ENB_X2_BASE + j),
                    (enbs[j], port::ENB_X2_BASE + i),
                    x2.clone(),
                );
            }
        }

        let mut ues = Vec::new();
        let air = LinkConfig::delay_only(params::AIR_LATENCY).with_jitter(params::AIR_JITTER);
        for (i, &(imsi, radio_addr)) in ue_nodes.iter().enumerate() {
            let vis = &ue_vis[i];
            let mut ue_node = Ue::new(imsi, radio_addr, addr::enb_radio(vis[0]));
            for &c in &vis[1..] {
                ue_node.add_cell(addr::enb_radio(c));
            }
            // A UE (and, later, its apps) lives in the region of the cell
            // it camps on.
            let ue = sim.add_node_in_region(Box::new(ue_node), cells[vis[0]].region);
            // The air interfaces: pure latency + jitter; serialization is
            // handled by the UE/eNB radio schedulers.
            for (k, &c) in vis.iter().enumerate() {
                let ue_port = if k == 0 {
                    port::UE_RADIO
                } else {
                    port::UE_CELL_BASE + k
                };
                sim.connect((ue, ue_port), (enbs[c], ue_radio_ports[i][k]), air.clone());
            }
            ues.push(ue);
        }

        let mut mme_node = Mme::new(addr::MME, addr::enb(0), addr::GWC, addr::HSS, log.clone());
        let mut mme_ports = vec![mme_port::ENB];
        for i in 1..cells.len() {
            mme_ports.push(mme_node.register_enb(addr::enb(i)));
        }
        let mme = sim.add_node_in_region(Box::new(mme_node), core_region);
        let hss = sim.add_node_in_region(
            Box::new(Hss::new(addr::HSS, imsis.clone(), log.clone())),
            core_region,
        );
        let pcrf = sim.add_node_in_region(
            Box::new(Pcrf::new(addr::PCRF, addr::GWC, log.clone())),
            core_region,
        );

        // Per-cell user-plane port map on the SGW-U (2 = PGW, 3 =
        // background source).
        let sgw_enb_ports = (0..cells.len())
            .map(|i| (addr::enb(i), cell_port(i)))
            .collect();

        let topo = GwTopology {
            sgw_u: addr::SGW_U,
            pgw_u: addr::PGW_U,
            sgw_port_enb: 1,
            sgw_port_pgw: 2,
            pgw_port_sgw: 1,
            pgw_port_inet: 2,
            locals: (0..nsites)
                .map(|s| LocalGw {
                    addr: addr::local_gwu(s),
                    ctrl_port: gwc_port::LOCAL_GWU + s,
                    port_enb: site_enb_ports[s].first().map_or(1, |&(_, p)| p),
                    port_mec: 2,
                    enb_ports: site_enb_ports[s].clone(),
                    servers: Vec::new(),
                })
                .collect(),
            ue_ip_base: addr::UE_POOL,
            sgw_enb_ports,
        };
        let gwc = sim.add_node_in_region(
            Box::new(GwControl::new(addr::GWC, topo, log.clone())),
            core_region,
        );

        let mut sgw_u_node = FlowSwitch::new(addr::SGW_U, SwitchCosts::acacia_ovs());
        // The SGW buffers downlink data for idle UEs and raises Downlink
        // Data Notifications (its paging role).
        sgw_u_node.paging_enabled = true;
        let sgw_u = sim.add_node_in_region(Box::new(sgw_u_node), core_region);
        let pgw_u = sim.add_node_in_region(
            Box::new(FlowSwitch::new(addr::PGW_U, SwitchCosts::acacia_ovs())),
            core_region,
        );

        // One local GW-U + MEC router per site, each living in its site's
        // region so MEC traffic stays on its region's shard.
        let mut local_sites = Vec::new();
        for (s, &region) in site_regions.iter().enumerate() {
            let gwu = sim.add_node_in_region(
                Box::new(FlowSwitch::new(
                    addr::local_gwu(s),
                    SwitchCosts::acacia_ovs(),
                )),
                region,
            );
            let router = sim.add_node_in_region(
                Box::new(acacia_simnet::router::Router::new(
                    acacia_simnet::router::RouteTable::new(),
                )),
                region,
            );
            local_sites.push(LocalSite {
                region,
                gwu,
                router,
                servers: Vec::new(),
                ue_hosts: Vec::new(),
            });
        }
        let local_gwu = local_sites[0].gwu;
        let mec_router = local_sites[0].router;

        let inet_router = sim.add_node_in_region(
            Box::new(acacia_simnet::router::Router::new(
                acacia_simnet::router::RouteTable::new(),
            )),
            core_region,
        );

        let ctrl = LinkConfig::delay_only(Duration::from_micros(500));
        // S1AP + core control mesh.
        for (i, &enb_i) in enbs.iter().enumerate() {
            sim.connect((enb_i, port::ENB_S1AP), (mme, mme_ports[i]), ctrl.clone());
        }
        sim.connect((mme, mme_port::GWC), (gwc, gwc_port::MME), ctrl.clone());
        sim.connect((mme, mme_port::HSS), (hss, 0), ctrl.clone());
        sim.connect((gwc, gwc_port::PCRF), (pcrf, pcrf_port::GWC), ctrl.clone());
        sim.connect(
            (gwc, gwc_port::SGW_U),
            (sgw_u, FlowSwitch::CONTROL_PORT),
            ctrl.clone(),
        );
        sim.connect(
            (gwc, gwc_port::PGW_U),
            (pgw_u, FlowSwitch::CONTROL_PORT),
            ctrl.clone(),
        );
        for (s, site) in local_sites.iter().enumerate() {
            sim.connect(
                (gwc, gwc_port::LOCAL_GWU + s),
                (site.gwu, FlowSwitch::CONTROL_PORT),
                ctrl.clone(),
            );
        }

        // User plane.
        let backhaul = LinkConfig::rate_limited(cfg.core_rate_bps, BACKHAUL_DELAY)
            .with_queue(cfg.core_queue_bytes);
        let core = LinkConfig::rate_limited(cfg.core_rate_bps, CORE_DELAY)
            .with_queue(cfg.core_queue_bytes);
        let inet = LinkConfig::rate_limited(cfg.core_rate_bps, INET_DELAY)
            .with_queue(cfg.core_queue_bytes);
        let mec = LinkConfig::rate_limited(1_000_000_000, MEC_DELAY).with_queue(4 * 1024 * 1024);
        for (i, &enb_i) in enbs.iter().enumerate() {
            sim.connect(
                (enb_i, port::ENB_S1_CORE),
                (sgw_u, cell_port(i)),
                backhaul.clone(),
            );
        }
        sim.connect((sgw_u, 2), (pgw_u, 1), core);
        sim.connect((pgw_u, 2), (inet_router, 0), inet.clone());
        for &(cell, s, lp) in &mec_links {
            sim.connect(
                (enbs[cell], port::ENB_S1_MEC),
                (local_sites[s].gwu, lp),
                mec.clone(),
            );
        }
        for site in &local_sites {
            sim.connect((site.gwu, 2), (site.router, 0), mec.clone());
        }
        if cfg.core_detour {
            // Internet exchange ↔ local GW-U shortcut so MEC servers stay
            // reachable over the default bearer.
            sim.connect(
                (local_gwu, LOCAL_DETOUR_PORT),
                (inet_router, INET_DETOUR_PORT),
                inet,
            );
        }

        let ue_count = ue_nodes.len();
        LteNetwork {
            sim,
            log,
            cfg,
            ues,
            enbs,
            enb,
            mme,
            hss,
            pcrf,
            gwc,
            sgw_u,
            pgw_u,
            local_gwu,
            mec_router,
            inet_router,
            mme_ports,
            next_ue_app_port: vec![port::UE_APP_BASE; ue_count],
            local_sites,
            ue_vis,
            ue_radio_ports,
            core_region,
            cloud_servers: 0,
            bg_installed: false,
            detour_installed: false,
            mec_core_routes: false,
        }
    }

    /// IMSI of UE `i`.
    pub(crate) fn imsi(&self, i: usize) -> Imsi {
        Imsi(310_410_000_000_001 + i as u64)
    }

    /// Connect an application node (its port 0) to UE `ue_idx`, receiving
    /// downlink traffic selected by `selector`.
    pub fn connect_ue_app(
        &mut self,
        ue_idx: usize,
        app: Box<dyn Node>,
        selector: AppSelector,
    ) -> NodeId {
        let ue = self.ues[ue_idx];
        // The app shares its UE's region (and therefore its shard).
        let app_id = self.sim.add_node_in_region(app, self.sim.region_of(ue));
        let ue_port = self.next_ue_app_port[ue_idx];
        self.next_ue_app_port[ue_idx] += 1;
        self.sim
            .connect((app_id, 0), (ue, ue_port), crate::ue::loopback());
        self.sim.node_mut::<Ue>(ue).register_app(selector, ue_port);
        app_id
    }

    /// Add a MEC server behind the first local GW-U site; returns
    /// `(node, address)`.
    pub fn add_mec_server(&mut self, server: Box<dyn Node>) -> (NodeId, Ipv4Addr) {
        self.add_mec_server_at_site(0, server)
    }

    /// Add a MEC server behind `region`'s local GW-U (requires
    /// [`LteConfig::local_gw_per_region`] and a MEC cell in that region);
    /// returns `(node, address)`.
    pub fn add_mec_server_in_region(
        &mut self,
        region: u32,
        server: Box<dyn Node>,
    ) -> (NodeId, Ipv4Addr) {
        let s = self
            .local_sites
            .iter()
            .position(|site| site.region == region)
            .unwrap_or_else(|| panic!("region {region} has no local GW-U site"));
        self.add_mec_server_at_site(s, server)
    }

    fn add_mec_server_at_site(&mut self, s: usize, server: Box<dyn Node>) -> (NodeId, Ipv4Addr) {
        let region = self.local_sites[s].region;
        let id = self.sim.add_node_in_region(server, region);
        let server_addr = addr::mec(s, self.local_sites[s].servers.len());
        self.local_sites[s].servers.push(server_addr);
        let router_port = self.local_sites[s].servers.len(); // ports 1..
        let site_router = self.local_sites[s].router;
        self.sim.connect(
            (site_router, router_port),
            (id, 0),
            LinkConfig::delay_only(Duration::from_micros(100)),
        );
        // Route server-bound traffic out, and UE-bound responses back into
        // the local GW-U (default route on port 0).
        self.rebuild_site_routes(s);
        // Tell the GW-C this address lives on site `s`'s MEC.
        // (GwTopology is owned by the GW-C node.)
        self.with_gwc_topology(|topo| topo.locals[s].servers.push(server_addr));
        if self.cfg.core_detour {
            // Static plumbing for the detour path (installed directly —
            // this is topology, not per-session OpenFlow state): Internet-
            // side traffic for this server turns toward the MEC router,
            // and anything the local GW-U cannot match (e.g. server
            // responses for a UE with no dedicated bearer) exits toward
            // the Internet exchange.
            let lg = self.local_gwu;
            let sw = self.sim.node_mut::<FlowSwitch>(lg);
            let to_server = FlowMatchSpec::dst(server_addr);
            sw.install(2, to_server, vec![FlowActionSpec::Output { port: 2 }]);
            if !self.detour_installed {
                self.detour_installed = true;
                let sw = self.sim.node_mut::<FlowSwitch>(lg);
                let detour = vec![FlowActionSpec::Output {
                    port: LOCAL_DETOUR_PORT,
                }];
                sw.install(1, FlowMatchSpec::default(), detour);
            }
            self.rebuild_inet_routes();
        }
        (id, server_addr)
    }

    /// Add a cloud server behind the Internet router over `wan` link
    /// characteristics; returns `(node, address)`.
    pub fn add_cloud_server(
        &mut self,
        server: Box<dyn Node>,
        wan: LinkConfig,
    ) -> (NodeId, Ipv4Addr) {
        let id = self.sim.add_node_in_region(server, self.core_region);
        let server_addr = Ipv4Addr::from(u32::from(addr::CLOUD_BASE) + self.cloud_servers as u32);
        self.cloud_servers += 1;
        let router_port = self.cloud_servers;
        self.sim
            .connect((self.inet_router, router_port), (id, 0), wan);
        self.rebuild_inet_routes();
        (id, server_addr)
    }

    /// (Re)program site `s`'s server-side router: host routes fanning out
    /// to the site's servers, plus either a default back into the local
    /// GW-U (classic shape) or — with the failover core path on — host
    /// routes keeping *own-region* UEs on the GW-U fast path while
    /// everything else (foreign UEs, the cloud MRS) exits toward the
    /// Internet exchange.
    fn rebuild_site_routes(&mut self, s: usize) {
        let site_router = self.local_sites[s].router;
        let mut t = acacia_simnet::router::RouteTable::new();
        for (i, &a) in self.local_sites[s].servers.iter().enumerate() {
            t.add(acacia_simnet::router::Ipv4Net::host(a), i + 1);
        }
        if self.mec_core_routes {
            for &a in &self.local_sites[s].ue_hosts {
                t.add(acacia_simnet::router::Ipv4Net::host(a), 0);
            }
            t.add(
                acacia_simnet::router::Ipv4Net::default_route(),
                SITE_DETOUR_PORT,
            );
        } else {
            t.add(acacia_simnet::router::Ipv4Net::default_route(), 0);
        }
        self.sim
            .node_mut::<acacia_simnet::router::Router>(site_router)
            .set_table(t);
    }

    /// Make every MEC server reachable over the **default bearer through
    /// the core** (UE → SGW/PGW-U → Internet exchange → site router), and
    /// every MEC server able to reach the cloud (MRS heartbeats) and
    /// foreign-region UEs the same way. This is the data path a failed-
    /// over session rides when its new CI server sits in a different
    /// region — no local GW-U shortcut exists there — and the return path
    /// for that server's downlink.
    ///
    /// Per-region mode only (the single-site `core_detour` covers the
    /// other shape and is mutually exclusive). Call **after** every UE
    /// has attached and every MEC/cloud server has been added: the site
    /// routes snapshot the attached UE addresses so each site keeps its
    /// local fast path for its own region's UEs.
    pub fn enable_failover_core_path(&mut self) {
        assert!(
            !self.cfg.core_detour,
            "the failover core path replaces the single-site core detour"
        );
        if self.mec_core_routes {
            return;
        }
        self.mec_core_routes = true;
        let inet = LinkConfig::rate_limited(self.cfg.core_rate_bps, INET_DELAY)
            .with_queue(self.cfg.core_queue_bytes);
        // Snapshot attached UE addresses per region (region = camp cell's
        // region, which is also the UE node's shard region).
        let mut ue_hosts: Vec<(u32, Ipv4Addr)> = Vec::new();
        for i in 0..self.ues.len() {
            let imsi = self.imsi(i);
            let addr = self.sim.node_ref::<GwControl>(self.gwc).ue_addr(imsi);
            if let Some(a) = addr {
                ue_hosts.push((self.sim.region_of(self.ues[i]), a));
            }
        }
        for s in 0..self.local_sites.len() {
            let router = self.local_sites[s].router;
            self.sim.connect(
                (router, SITE_DETOUR_PORT),
                (self.inet_router, INET_SITE_BASE + s),
                inet.clone(),
            );
            let region = self.local_sites[s].region;
            self.local_sites[s].ue_hosts = ue_hosts
                .iter()
                .filter(|&&(r, _)| r == region)
                .map(|&(_, a)| a)
                .collect();
            self.rebuild_site_routes(s);
        }
        self.rebuild_inet_routes();
    }

    /// Node id and data-plane address of `region`'s local GW-U — the
    /// crash-injection target for correlated region outages.
    pub fn local_gwu_in_region(&self, region: u32) -> (NodeId, Ipv4Addr) {
        let s = self
            .local_sites
            .iter()
            .position(|site| site.region == region)
            .unwrap_or_else(|| panic!("region {region} has no local GW-U site"));
        (self.local_sites[s].gwu, addr::local_gwu(s))
    }

    /// (Re)program the Internet exchange: default route into the core,
    /// host routes for cloud servers, and — when the core detour is on —
    /// host routes steering MEC-server traffic down the detour link.
    fn rebuild_inet_routes(&mut self) {
        let inet_router = self.inet_router;
        let mut t = acacia_simnet::router::RouteTable::new();
        t.add(acacia_simnet::router::Ipv4Net::default_route(), 0);
        for i in 0..self.cloud_servers {
            let a = Ipv4Addr::from(u32::from(addr::CLOUD_BASE) + i as u32);
            t.add(acacia_simnet::router::Ipv4Net::host(a), i + 1);
        }
        if self.cfg.core_detour {
            for site in &self.local_sites {
                for &a in &site.servers {
                    t.add(acacia_simnet::router::Ipv4Net::host(a), INET_DETOUR_PORT);
                }
            }
        } else if self.mec_core_routes {
            for (s, site) in self.local_sites.iter().enumerate() {
                for &a in &site.servers {
                    t.add(acacia_simnet::router::Ipv4Net::host(a), INET_SITE_BASE + s);
                }
            }
        }
        self.sim
            .node_mut::<acacia_simnet::router::Router>(inet_router)
            .set_table(t);
    }

    fn with_gwc_topology(&mut self, f: impl FnOnce(&mut GwTopology)) {
        let gwc = self.gwc;
        let node = self.sim.node_mut::<GwControl>(gwc);
        f(node.topology_mut());
    }

    /// Advance the engine in 10 ms steps until `done` holds. Panics, naming
    /// `what`, if it still does not after 5 s of simulated time (a protocol
    /// bug, not an environmental condition). `what` is formatted only then.
    fn poll_until(&mut self, what: fmt::Arguments<'_>, done: impl Fn(&LteNetwork) -> bool) {
        let deadline = self.sim.now() + Duration::from_secs(5);
        while self.sim.now() < deadline {
            self.sim
                .run_until(self.sim.now() + Duration::from_millis(10));
            if done(self) {
                return;
            }
        }
        panic!("{what} did not complete within 5s of simulated time");
    }

    /// Attach UE `ue_idx`: runs the full attach procedure and returns the
    /// assigned UE IP. Panics if attachment does not complete within 5 s of
    /// simulated time.
    pub fn attach(&mut self, ue_idx: usize) -> Ipv4Addr {
        let ue = self.ues[ue_idx];
        self.sim
            .schedule_timer(ue, self.sim.now(), ue_token::ATTACH);
        let imsi = self.imsi(ue_idx);
        self.poll_until(format_args!("attach of UE {ue_idx}"), |net| {
            let ue = net.sim.node_ref::<Ue>(ue);
            net.sim.node_ref::<Mme>(net.mme).ue_state(imsi) == MmeUeState::Attached
                && ue.state == UeState::Connected
                && ue.ip.is_some()
        });
        self.sim.node_ref::<Ue>(ue).ip.expect("checked")
    }

    /// Request a dedicated bearer by injecting an Rx request at the PCRF
    /// (in the full ACACIA stack the MRS sends this; `acacia` core wires a
    /// real MRS node to the PCRF's AF port). Waits for activation.
    pub fn activate_dedicated_bearer(&mut self, ue_idx: usize, rule: PolicyRule) {
        let before = self.sim.node_ref::<GwControl>(self.gwc).dedicated_active;
        let now = self.sim.now();
        let msg = ControlMsg::RxAuthRequest { rule };
        // Record the AF-side (MRS) send; the PCRF and friends record their
        // own downstream messages.
        self.log.record(now, &msg);
        let pkt = msg.into_packet(Ipv4Addr::UNSPECIFIED, addr::PCRF);
        self.sim.inject_packet(self.pcrf, pcrf_port::AF, now, pkt);
        let ue = self.ues[ue_idx];
        self.poll_until(format_args!("dedicated bearer activation"), |net| {
            net.sim.node_ref::<GwControl>(net.gwc).dedicated_active > before
                && net.sim.node_ref::<Ue>(ue).has_dedicated_bearer()
        });
    }

    /// Trigger the idle-timeout release for UE `ue_idx` (the paper's
    /// 11.576 s inactivity event) and wait for the release to finish.
    pub fn trigger_idle_release(&mut self, ue_idx: usize) {
        let now = self.sim.now();
        // The eNB keys its idle timers by *its* subscriber index, which is
        // the UE's radio-port offset on that eNB.
        let local = (self.radio_downlink(0, ue_idx).1 - port::ENB_RADIO_BASE) as u64;
        self.sim
            .schedule_timer(self.enb, now, enb_token::IDLE_BASE + local);
        let imsi = self.imsi(ue_idx);
        self.poll_until(format_args!("idle release"), |net| {
            net.sim.node_ref::<Mme>(net.mme).ue_state(imsi) == MmeUeState::Idle
        });
    }

    /// Issue a service request for an idle UE and wait for reconnection.
    pub fn service_request(&mut self, ue_idx: usize) {
        let ue = self.ues[ue_idx];
        self.sim
            .schedule_timer(ue, self.sim.now(), ue_token::SERVICE_REQUEST);
        let imsi = self.imsi(ue_idx);
        self.poll_until(format_args!("service request"), |net| {
            net.sim.node_ref::<Mme>(net.mme).ue_state(imsi) == MmeUeState::Attached
                && net.sim.node_ref::<Ue>(ue).state == UeState::Connected
        });
    }

    /// Start a background traffic source pushing `rate_bps` of UDP through
    /// the core SGW-U → PGW-U → Internet path (the competing load of
    /// Figs. 3(g)/10(b)). Returns the sink node on the Internet side.
    pub fn start_background_traffic(
        &mut self,
        rate_bps: u64,
        start: Instant,
        stop: Instant,
    ) -> NodeId {
        use acacia_simnet::traffic::{Sink, UdpSource};
        let (sink, sink_addr) = self.add_cloud_server(
            Box::new(Sink::new()),
            LinkConfig::delay_only(Duration::from_micros(200)),
        );
        let src = self.sim.add_node_in_region(
            Box::new(
                UdpSource::cbr((addr::BG_SOURCE, 7000), (sink_addr, 7001), rate_bps, 1_400)
                    .with_tos(Qci::DEFAULT_BEARER.tos())
                    .window(start, stop),
            ),
            self.core_region,
        );
        // Background traffic enters the SGW-U on a dedicated port and is
        // switched toward the PGW-U / Internet with plain output rules.
        const SGW_BG_PORT: usize = 3;
        self.sim.connect(
            (src, 0),
            (self.sgw_u, SGW_BG_PORT),
            LinkConfig::delay_only(Duration::from_micros(200)),
        );
        if !self.bg_installed {
            self.bg_installed = true;
            let sgw = self.sgw_u;
            let pgw = self.pgw_u;
            for sw in [sgw, pgw] {
                let from_bg = FlowMatchSpec::src(addr::BG_SOURCE);
                let up = vec![FlowActionSpec::Output { port: 2 }];
                self.sim.node_mut::<FlowSwitch>(sw).install(1, from_bg, up);
            }
        }
        self.sim.schedule_timer(src, start, UdpSource::KICKOFF);
        sink
    }

    /// Run the simulation for `d`.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.sim.now() + d;
        self.sim.run_until(t);
    }

    /// Put UE `ue_idx` on a waypoint walk starting now. The UE samples
    /// RSRP toward every cell on the configured A3 interval and reports
    /// A3 events to its serving eNB, which runs the X2 handover.
    pub fn start_mobility(&mut self, ue_idx: usize, waypoints: Vec<Waypoint>, speed_mps: f64) {
        // Measurement sites parallel the UE's visible-cell list (local
        // cell indices), not the global cell list.
        let sites: Vec<CellSite> = self.ue_vis[ue_idx]
            .iter()
            .map(|&c| CellSite {
                pos: self.cfg.cells[c].pos,
                model: PathLossModel::indoor_default(),
            })
            .collect();
        let now = self.sim.now();
        let trajectory = Trajectory::new(waypoints, speed_mps, now);
        // Keep measuring a little past the walk so trailing handovers
        // (e.g. at the final waypoint) still trigger, then go quiet.
        let measure_until = now + trajectory.total_duration() + Duration::from_secs(5);
        let ue = self.ues[ue_idx];
        self.sim.node_mut::<Ue>(ue).mobility =
            Some(UeMobility::new(trajectory, sites, measure_until));
        self.sim.schedule_timer(ue, now, ue_token::MEASURE);
    }

    /// Global index of the cell currently serving UE `ue_idx`.
    pub fn serving_cell(&self, ue_idx: usize) -> usize {
        self.ue_vis[ue_idx][self.sim.node_ref::<Ue>(self.ues[ue_idx]).serving]
    }

    /// Transmit endpoint of the S1AP link direction: eNB `cell` → MME.
    /// Pass to [`Simulator::attach_fault_plan`] to fault that direction.
    pub fn s1ap_uplink(&self, cell: usize) -> (NodeId, PortId) {
        (self.enbs[cell], port::ENB_S1AP)
    }

    /// Transmit endpoint of the S1AP link direction: MME → eNB `cell`.
    pub(crate) fn s1ap_downlink(&self, cell: usize) -> (NodeId, PortId) {
        (self.mme, self.mme_ports[cell])
    }

    /// Transmit endpoint of the X2 direction `from_cell` → `to_cell`.
    pub fn x2_link(&self, from_cell: usize, to_cell: usize) -> (NodeId, PortId) {
        assert_ne!(from_cell, to_cell, "an eNB has no X2 link to itself");
        (self.enbs[from_cell], port::ENB_X2_BASE + to_cell)
    }

    /// Transmit endpoint of the radio downlink: eNB `cell` → UE `ue_idx`
    /// (carries both RRC frames and user data toward the UE). Panics if
    /// the UE cannot see `cell`.
    pub fn radio_downlink(&self, cell: usize, ue_idx: usize) -> (NodeId, PortId) {
        let k = self.ue_vis[ue_idx]
            .iter()
            .position(|&c| c == cell)
            .unwrap_or_else(|| panic!("UE {ue_idx} does not see cell {cell}"));
        (self.enbs[cell], self.ue_radio_ports[ue_idx][k])
    }

    /// Transmit endpoint of the shared-core uplink: SGW-U → PGW-U, the
    /// leg where background traffic and default-bearer uplink contend
    /// (the bottleneck of the paper's Fig. 3(g)). Pass to
    /// [`Simulator::link_stats`] to read its per-class queue counters.
    pub fn core_uplink(&self) -> (NodeId, PortId) {
        const SGW_PORT_PGW: PortId = 2;
        (self.sgw_u, SGW_PORT_PGW)
    }

    /// Every control-plane fault-injection point — the transmit endpoint
    /// of each direction of every S1AP and X2 link, in a stable cell-major
    /// order: each cell's S1AP uplink then downlink, then X2 `i → j` for
    /// `i` then `j`. The index of an entry is a reproducible identity for
    /// deriving per-link fault seeds.
    pub fn control_fault_points(&self) -> Vec<(NodeId, PortId)> {
        let n = self.enbs.len();
        let mut points = Vec::with_capacity(n * (n + 1));
        for i in 0..n {
            points.push(self.s1ap_uplink(i));
            points.push(self.s1ap_downlink(i));
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    points.push(self.x2_link(i, j));
                }
            }
        }
        points
    }

    /// Set the per-frame loss probability on every radio link (both
    /// directions, every UE, every cell). Use after attach/bearer setup to
    /// model residual air-interface loss on the data path (control
    /// signalling rides acknowledged-mode RLC in real LTE).
    pub fn set_radio_loss(&mut self, loss: f64) {
        for (i, &ue) in self.ues.clone().iter().enumerate() {
            for (k, &c) in self.ue_vis[i].clone().iter().enumerate() {
                let ue_port = if k == 0 {
                    port::UE_RADIO
                } else {
                    port::UE_CELL_BASE + k
                };
                let enb = self.enbs[c];
                let radio_port = self.ue_radio_ports[i][k];
                self.sim
                    .reconfigure_link((ue, ue_port), |cfg| cfg.loss = loss);
                self.sim
                    .reconfigure_link((enb, radio_port), |cfg| cfg.loss = loss);
            }
        }
    }
}
