//! Network-side experiments: Fig. 3(c,d,g), Fig. 8, Fig. 10(a,b) and the
//! §4 control-overhead table.

use crate::runner;
use crate::table::{fmt_bps, fmt_secs, Table};
use acacia_lte::network::{LteConfig, LteNetwork};
use acacia_lte::qci::Qci;
use acacia_lte::switch::{FlowSwitch, SwitchCosts};
use acacia_lte::ue::AppSelector;
use acacia_lte::wire::{FlowActionSpec, FlowMatchSpec, PolicyRule, Protocol};
use acacia_simnet::cloud::Ec2Region;
use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::proto;
use acacia_simnet::prelude::*;
use acacia_simnet::traffic::{Reflector, Sink, UdpSource};
use acacia_simnet::transport::{GreedyFlow, GreedyReceiver, PingAgent};
use std::net::Ipv4Addr;

/// RTT samples (ms) from a UE to an EC2 region through the full LTE stack.
pub(crate) fn fig3c_data(region: Ec2Region, probes: u64, seed: u64) -> Series {
    let mut net = LteNetwork::new(LteConfig {
        seed,
        ..LteConfig::default()
    });
    let (_, cloud_addr) = net.add_cloud_server(Box::new(Reflector::new()), region.link_config());
    let ue_ip = net.attach(0);
    let agent = net.connect_ue_app(
        0,
        Box::new(PingAgent::new(
            ue_ip,
            cloud_addr,
            Duration::from_millis(100),
            probes,
        )),
        AppSelector::protocol(proto::ICMP),
    );
    let now = net.sim.now();
    net.sim.schedule_timer(agent, now, PingAgent::KICKOFF);
    net.run_for(Duration::from_millis(100 * probes + 2_000));
    Series::from_durations_ms(net.sim.node_ref::<PingAgent>(agent).rtts())
}

/// Fig. 3(c): LTE → EC2 RTT distribution per region.
pub(crate) fn fig3c() -> Table {
    let mut t = Table::new(
        "Fig 3(c) — LTE RTT to EC2 (ms)",
        &["region", "p10", "p25", "median", "p75", "p90", "p95"],
    );
    let cells = Ec2Region::ALL
        .iter()
        .map(|&r| (r.name().to_string(), r))
        .collect();
    let series = runner::pmap("fig3c", cells, |region| fig3c_data(region, 300, 7));
    for (region, s) in Ec2Region::ALL.into_iter().zip(series) {
        t.row(vec![
            region.name().to_string(),
            format!("{:.1}", s.percentile(10.0)),
            format!("{:.1}", s.percentile(25.0)),
            format!("{:.1}", s.median()),
            format!("{:.1}", s.percentile(75.0)),
            format!("{:.1}", s.percentile(90.0)),
            format!("{:.1}", s.percentile(95.0)),
        ]);
    }
    t.note("paper: California median ~70 ms; Oregon/Virginia higher; tail to 180 ms");
    t
}

/// Measured uplink goodput (bps) through a bottleneck shaped like the
/// region's radio uplink.
pub(crate) fn fig3d_data(region: Ec2Region, excellent: bool, seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let tx = sim.add_node(Box::new(GreedyFlow::new(
        (src, 5001),
        (dst, 5001),
        Instant::ZERO,
        Instant::from_secs(10),
    )));
    let rx = sim.add_node(Box::new(GreedyReceiver::new(dst)));
    let fwd = LinkConfig::rate_limited(
        region.uplink_bps(excellent),
        region.one_way_delay() + Duration::from_micros(6_000),
    )
    .with_queue(256 * 1024);
    let back = LinkConfig::delay_only(region.one_way_delay() + Duration::from_micros(6_000));
    sim.connect_asymmetric((tx, 0), (rx, 0), fwd, back);
    sim.schedule_timer(tx, Instant::ZERO, GreedyFlow::KICKOFF);
    sim.run_until(Instant::from_secs(11));
    sim.node_ref::<GreedyReceiver>(rx).mean_bps(10)
}

/// Fig. 3(d): uplink bandwidth by region and signal quality.
pub(crate) fn fig3d() -> Table {
    let mut t = Table::new(
        "Fig 3(d) — LTE uplink bandwidth to EC2",
        &["region", "excellent (4/4)", "fair (2/4)"],
    );
    let cells = Ec2Region::ALL
        .iter()
        .flat_map(|&r| {
            [true, false].map(|excellent| {
                let grade = if excellent { "excellent" } else { "fair" };
                (format!("{} {grade}", r.name()), (r, excellent))
            })
        })
        .collect();
    let goodputs = runner::pmap("fig3d", cells, |(region, excellent)| {
        fig3d_data(region, excellent, 3)
    });
    for (region, pair) in Ec2Region::ALL.iter().zip(goodputs.chunks(2)) {
        t.row(vec![
            region.name().to_string(),
            fmt_bps(pair[0]),
            fmt_bps(pair[1]),
        ]);
    }
    t
}

/// One Fig. 3(g) point: mean AR-packet latency (seconds) with `bg_bps` of
/// Poisson background through a shared 100 Mbps gateway whose unloaded
/// round-trip is `base_rtt_ms`.
pub(crate) fn fig3g_point(base_rtt_ms: u64, bg_bps: u64, seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let ar_src = Ipv4Addr::new(10, 0, 0, 1);
    let bg_src = Ipv4Addr::new(10, 0, 0, 2);
    let server = Ipv4Addr::new(10, 0, 0, 9);

    // Shared gateway chain: sources feed the GW over fast access links;
    // the GW's *egress* is the shared 100 Mbps hop with a generous
    // (bufferbloated) queue, plus propagation making up the base RTT.
    let one_way = Duration::from_micros(base_rtt_ms * 1000 / 2);
    let gw_in = LinkConfig::rate_limited(1_000_000_000, Duration::ZERO).with_queue(4 * 1024 * 1024);
    let gw_out = LinkConfig::rate_limited(100_000_000, one_way).with_queue(25 * 1024 * 1024);

    let mut table = RouteTable::new();
    table.add(Ipv4Net::default_route(), 1);
    let gw = sim.add_node(Box::new(Router::new(table)));
    let sink = sim.add_node(Box::new(Sink::new()));
    sim.connect_simplex((gw, 1), (sink, 0), gw_out);

    // AR uplink: ~10 Mbps of frame traffic (8 fps × ~150 KB HD frames).
    let ar = sim.add_node(Box::new(
        UdpSource::cbr((ar_src, 9000), (server, 9000), 10_000_000, 1_400)
            .window(Instant::ZERO, Instant::from_secs(20)),
    ));
    sim.connect_simplex((ar, 0), (gw, 0), gw_in.clone());
    sim.schedule_timer(ar, Instant::ZERO, UdpSource::KICKOFF);

    if bg_bps > 0 {
        let bg = sim.add_node(Box::new(
            UdpSource::cbr((bg_src, 7000), (server, 7000), bg_bps, 1_400)
                .poisson()
                .window(Instant::ZERO, Instant::from_secs(20)),
        ));
        sim.connect_simplex((bg, 0), (gw, 0), gw_in);
        sim.schedule_timer(bg, Instant::ZERO, UdpSource::KICKOFF);
    }
    sim.run_until(Instant::from_secs(21));

    let s = sim.node_ref::<Sink>(sink);
    // Forward delay already includes the propagation; add the (uncongested)
    // base return path — the paper measures request/response latency and
    // responses are tiny.
    let fwd = s.mean_delay_ms() / 1e3;
    fwd + one_way.secs_f64()
}

/// Fig. 3(g): latency vs background traffic for three base RTTs.
pub(crate) fn fig3g() -> Table {
    let mut t = Table::new(
        "Fig 3(g) — network latency vs background traffic (one S-PGW, 100 Mbps)",
        &["bg (Mbps)", "RTT 8ms", "RTT 18ms", "RTT 70ms"],
    );
    let bgs: Vec<u64> = (0..=100u64).step_by(10).collect();
    let bases = [8u64, 18, 70];
    let cells = bgs
        .iter()
        .flat_map(|&bg| bases.map(|base| (format!("bg={bg} rtt={base}ms"), (base, bg))))
        .collect();
    let latencies = runner::pmap("fig3g", cells, |(base, bg)| {
        fig3g_point(base, bg * 1_000_000, 5)
    });
    for (bg, row) in bgs.iter().zip(latencies.chunks(bases.len())) {
        let mut cells = vec![format!("{bg}")];
        cells.extend(row.iter().map(|&lat| fmt_secs(lat)));
        t.row(cells);
    }
    t.note("AR offered load ~10 Mbps rides alongside the background; saturation → bufferbloat");
    t
}

/// Fig. 8 data: per-second goodput (bps) through a GW-U with the given
/// processing model, over `secs` seconds.
pub(crate) fn fig8_data(costs: SwitchCosts, secs: u64, seed: u64) -> Vec<f64> {
    let mut sim = Simulator::new(seed);
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let tx = sim.add_node(Box::new(GreedyFlow::new(
        (src, 5001),
        (dst, 5001),
        Instant::ZERO,
        Instant::from_secs(secs),
    )));
    let mut sw = FlowSwitch::new(Ipv4Addr::new(10, 0, 0, 100), costs);
    sw.install(
        1,
        FlowMatchSpec {
            teid: None,
            dst: Some(dst),
            src: None,
        },
        vec![FlowActionSpec::Output { port: 2 }],
    );
    let sw = sim.add_node(Box::new(sw));
    let rx = sim.add_node(Box::new(GreedyReceiver::new(dst)));
    let line = LinkConfig::rate_limited(1_000_000_000, Duration::from_micros(200))
        .with_queue(2 * 1024 * 1024);
    sim.connect_simplex((tx, 0), (sw, 1), line.clone());
    sim.connect_simplex((sw, 2), (rx, 0), line);
    // Acks return directly.
    sim.connect_simplex(
        (rx, 0),
        (tx, 0),
        LinkConfig::delay_only(Duration::from_micros(200)),
    );
    sim.schedule_timer(tx, Instant::ZERO, GreedyFlow::KICKOFF);
    sim.run_until(Instant::from_secs(secs + 1));
    sim.node_ref::<GreedyReceiver>(rx).throughput_series_bps()
}

/// Fig. 8: data-plane throughput, OpenEPC vs ACACIA vs IDEAL.
pub(crate) fn fig8() -> Table {
    let mut t = Table::new(
        "Fig 8 — GW-U data-plane throughput over 60 s (Iperf-like TCP)",
        &["variant", "mean", "p5 second", "p95 second"],
    );
    let variants = [
        ("OpenEPC (user space)", SwitchCosts::openepc_userspace()),
        ("ACACIA (OVS fast path)", SwitchCosts::acacia_ovs()),
        ("IDEAL (no GW cost)", SwitchCosts::ideal()),
    ];
    let cells = variants
        .iter()
        .map(|&(name, costs)| (name.to_string(), costs))
        .collect();
    let throughputs = runner::pmap("fig8", cells, |costs| fig8_data(costs, 60, 2));
    for ((name, _), series) in variants.iter().zip(throughputs) {
        let stats = Series::from_iter(series.iter().copied().skip(3)); // skip slow-start
        t.row(vec![
            name.to_string(),
            fmt_bps(stats.mean()),
            fmt_bps(stats.percentile(5.0)),
            fmt_bps(stats.percentile(95.0)),
        ]);
    }
    t.note("1 Gbps line rate; OpenEPC pays ~40us/packet in user space for every packet");
    t
}

/// §4: control overhead of one idle-release + re-establish cycle, measured
/// by running the real procedures.
pub(crate) fn sec4_ctrl() -> Table {
    let mut net = LteNetwork::new(LteConfig::default());
    net.attach(0);
    net.log.clear();
    net.trigger_idle_release(0);
    net.service_request(0);

    let mut t = Table::new(
        "§4 — control overhead of one release + re-establish cycle",
        &["protocol", "messages", "bytes"],
    );
    for p in [Protocol::S1apSctp, Protocol::Gtpv2, Protocol::OpenFlow] {
        t.row(vec![
            p.name().to_string(),
            net.log.count(p).to_string(),
            net.log.bytes(p).to_string(),
        ]);
    }
    t.row(vec![
        "total (core)".to_string(),
        net.log.core_count().to_string(),
        net.log.core_bytes().to_string(),
    ]);
    let cycle = net.log.core_bytes();
    t.note(&format!(
        "per-day projections: typical 929 cycles = {:.2} MB; worst case 7200 cycles = {:.1} MB",
        cycle as f64 * 929.0 / 1e6,
        cycle as f64 * 7200.0 / 1e6
    ));
    t.note("paper: 15 messages / 2914 bytes (SCTP 7/1138, GTPv2 4/352, OpenFlow 4/1424); 2.58 MB & ~20 MB per day");
    t
}

/// Fig. 10(a) data: RTT series (ms) over a dedicated MEC bearer at `qci`.
pub(crate) fn fig10a_data(qci: Qci, probes: u64, seed: u64) -> Series {
    let mut net = LteNetwork::new(LteConfig {
        seed,
        ..LteConfig::default()
    });
    let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
    let ue_ip = net.attach(0);
    net.activate_dedicated_bearer(
        0,
        PolicyRule {
            service_id: 1,
            ue_addr: ue_ip,
            server_addr: mec_addr,
            server_port: 0,
            qci,
            install: true,
        },
    );
    // A competing stream on the default bearer loads the radio schedulers
    // (~10 of the 12 Mbps uplink) so the QCI scheduling priority of the
    // dedicated bearer becomes visible.
    let (_, cloud_addr) = net.add_cloud_server(
        Box::new(Reflector::new()),
        LinkConfig::delay_only(Duration::from_millis(1)),
    );
    let noise = net.connect_ue_app(
        0,
        Box::new(UdpSource::cbr((ue_ip, 7100), (cloud_addr, 7100), 10_000_000, 1_200).poisson()),
        AppSelector::port(7100),
    );
    net.sim
        .schedule_timer(noise, net.sim.now(), UdpSource::KICKOFF);

    let agent = net.connect_ue_app(
        0,
        Box::new(PingAgent::new(
            ue_ip,
            mec_addr,
            Duration::from_millis(50),
            probes,
        )),
        AppSelector::protocol(proto::ICMP),
    );
    let now = net.sim.now();
    net.sim.schedule_timer(agent, now, PingAgent::KICKOFF);
    net.run_for(Duration::from_millis(50 * probes + 2_000));
    Series::from_durations_ms(net.sim.node_ref::<PingAgent>(agent).rtts())
}

/// Fig. 10(a): RTT per QCI class over the dedicated MEC bearer.
pub(crate) fn fig10a() -> Table {
    let mut t = Table::new(
        "Fig 10(a) — UE↔MEC RTT by QCI of the dedicated bearer (ms)",
        &["QCI", "p5", "median", "p95"],
    );
    let cells = Qci::NON_GBR
        .iter()
        .map(|&qci| (qci.to_string(), qci))
        .collect();
    let series = runner::pmap("fig10a", cells, |qci| fig10a_data(qci, 200, 11));
    for (qci, s) in Qci::NON_GBR.into_iter().zip(series) {
        t.row(vec![
            qci.to_string(),
            format!("{:.1}", s.percentile(5.0)),
            format!("{:.1}", s.median()),
            format!("{:.1}", s.percentile(95.0)),
        ]);
    }
    t.note("paper: 95% of RTTs within ~15 ms; eNB↔MEC accounts for only 1.6 ms");
    t
}

/// The three architectures of Fig. 10(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig10bArch {
    /// Conventional EPC: far server through the shared core.
    Conventional,
    /// MEC-located server, but traffic still through the shared core GWs.
    EpcWithMec,
    /// ACACIA: dedicated bearer to the local gateway, isolated from the
    /// background.
    Acacia,
}

/// One Fig. 10(b) point: mean AR request latency (s) under `bg_bps` of
/// background through the (100 Mbps) core.
pub(crate) fn fig10b_point(arch: Fig10bArch, bg_bps: u64, seed: u64) -> f64 {
    let mut net = LteNetwork::new(LteConfig {
        seed,
        core_rate_bps: 100_000_000,
        core_queue_bytes: 25 * 1024 * 1024,
        ..LteConfig::default()
    });
    let (server_addr, is_mec) = match arch {
        Fig10bArch::Conventional => {
            let (_, a) = net.add_cloud_server(
                Box::new(Reflector::new()),
                LinkConfig::delay_only(Duration::from_millis(28)),
            );
            (a, false)
        }
        Fig10bArch::EpcWithMec => {
            let (_, a) = net.add_cloud_server(
                Box::new(Reflector::new()),
                LinkConfig::delay_only(Duration::from_micros(500)),
            );
            (a, false)
        }
        Fig10bArch::Acacia => {
            let (_, a) = net.add_mec_server(Box::new(Reflector::new()));
            (a, true)
        }
    };
    let ue_ip = net.attach(0);
    if is_mec {
        net.activate_dedicated_bearer(
            0,
            PolicyRule {
                service_id: 1,
                ue_addr: ue_ip,
                server_addr,
                server_port: 0,
                qci: Qci(7),
                install: true,
            },
        );
    }
    if bg_bps > 0 {
        let t0 = net.sim.now();
        net.start_background_traffic(bg_bps, t0, Instant::MAX);
    }
    // AR offered load toward the server (~10 Mbps), plus RTT probes.
    let ar = net.connect_ue_app(
        0,
        Box::new(UdpSource::cbr(
            (ue_ip, 9000),
            (server_addr, 9000),
            10_000_000,
            1_200,
        )),
        AppSelector::port(9000),
    );
    let now = net.sim.now();
    net.sim.schedule_timer(ar, now, UdpSource::KICKOFF);
    let agent = net.connect_ue_app(
        0,
        Box::new(PingAgent::new(
            ue_ip,
            server_addr,
            Duration::from_millis(250),
            40,
        )),
        AppSelector::protocol(proto::ICMP),
    );
    let t1 = net.sim.now() + Duration::from_secs(3);
    net.sim.schedule_timer(agent, t1, PingAgent::KICKOFF);
    net.run_for(Duration::from_secs(16));
    let rtts = net.sim.node_ref::<PingAgent>(agent).rtts();
    if rtts.is_empty() {
        // Total loss under overload: report the queue-bound worst case.
        return 2.5;
    }
    Series::from_durations_ms(rtts).mean() / 1e3
}

/// Fig. 10(b): latency vs background traffic across architectures.
pub(crate) fn fig10b() -> Table {
    let mut t = Table::new(
        "Fig 10(b) — AR latency vs background traffic (s)",
        &["bg (Mbps)", "Conventional EPC", "EPC with MEC", "ACACIA"],
    );
    let bgs: Vec<u64> = (0..=100u64).step_by(10).collect();
    let arches = [
        Fig10bArch::Conventional,
        Fig10bArch::EpcWithMec,
        Fig10bArch::Acacia,
    ];
    let cells = bgs
        .iter()
        .flat_map(|&bg| arches.map(|arch| (format!("bg={bg} {arch:?}"), (arch, bg))))
        .collect();
    let latencies = runner::pmap("fig10b", cells, |(arch, bg)| {
        fig10b_point(arch, bg * 1_000_000, 13)
    });
    for (bg, row) in bgs.iter().zip(latencies.chunks(arches.len())) {
        let mut cells = vec![format!("{bg}")];
        cells.extend(row.iter().map(|&lat| fmt_secs(lat)));
        t.row(cells);
    }
    t.note("paper: location dominates until ~90 Mbps; beyond saturation only ACACIA stays low");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3c_california_fastest() {
        let ca = fig3c_data(Ec2Region::California, 50, 1).median();
        let va = fig3c_data(Ec2Region::Virginia, 50, 1).median();
        assert!(ca < va, "CA {ca} vs VA {va}");
        assert!((55.0..90.0).contains(&ca), "CA median {ca}");
    }

    #[test]
    fn fig3d_signal_quality_matters() {
        let good = fig3d_data(Ec2Region::California, true, 1);
        let fair = fig3d_data(Ec2Region::California, false, 1);
        assert!(good > 1.5 * fair, "good {good} fair {fair}");
        assert!(good > 8e6 && good < 12.5e6, "good {good}");
    }

    #[test]
    fn fig8_ordering() {
        let openepc =
            Series::from_iter(fig8_data(SwitchCosts::openepc_userspace(), 12, 1)).percentile(75.0);
        let acacia =
            Series::from_iter(fig8_data(SwitchCosts::acacia_ovs(), 12, 1)).percentile(75.0);
        let ideal = Series::from_iter(fig8_data(SwitchCosts::ideal(), 12, 1)).percentile(75.0);
        assert!(
            openepc < acacia * 0.6,
            "openepc {openepc} vs acacia {acacia}"
        );
        assert!(acacia > 0.8 * ideal, "acacia {acacia} vs ideal {ideal}");
    }

    #[test]
    fn fig3g_background_explodes_latency() {
        let idle = fig3g_point(18, 0, 1);
        let sat = fig3g_point(18, 100_000_000, 1);
        assert!(idle < 0.05, "idle {idle}");
        assert!(sat > 0.4, "saturated {sat}");
    }
}
