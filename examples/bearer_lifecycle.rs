//! Watch the LTE/EPC control plane at work: attach, dedicated-bearer
//! activation toward a MEC gateway, idle release and service-request
//! re-establishment — with per-protocol message/byte accounting (the
//! paper's §4 overhead analysis).
//!
//! ```text
//! cargo run --release --example bearer_lifecycle
//! ```

use acacia_lte::network::{LteConfig, LteNetwork};
use acacia_lte::prelude::*;
use acacia_simnet::time::Duration;
use acacia_simnet::traffic::Reflector;

fn print_log(title: &str, log: &MsgLog) {
    println!("--- {title} ---");
    for m in log.by_name() {
        println!(
            "  t={:>10} {:>9}  {:<28} {:>2} x {:>3} B",
            format!("{:.3}ms", m.first.nanos() as f64 / 1e6),
            m.protocol.name(),
            m.name,
            m.count,
            m.bytes / m.count
        );
    }
    print!("{}", log.summary());
    println!();
}

fn main() {
    let mut net = LteNetwork::new(LteConfig::default());
    let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));

    // 1. Attach.
    let ue_ip = net.attach(0);
    println!("UE attached; PGW assigned {ue_ip}\n");
    print_log("attach procedure", &net.log);

    // 2. Dedicated bearer to the MEC server (network-initiated via the
    //    PCRF, terminating on the *local* GW-U).
    net.log.clear();
    net.activate_dedicated_bearer(
        0,
        PolicyRule {
            service_id: 7,
            ue_addr: ue_ip,
            server_addr: mec_addr,
            server_port: 0,
            qci: Qci(7),
            install: true,
        },
    );
    print_log(
        "dedicated bearer activation (paper Fig. 5, steps 1-4)",
        &net.log,
    );

    // 3. The UE goes idle (the 11.576 s inactivity timeout) and comes back.
    net.log.clear();
    net.run_for(Duration::from_secs(1));
    net.trigger_idle_release(0);
    net.service_request(0);
    print_log(
        "idle release + service request (the paper's §4 cycle)",
        &net.log,
    );

    let cycle = net.log.core_bytes();
    println!(
        "per-device control traffic projections: {:.2} MB/day at 929 cycles, {:.1} MB/day at 7200",
        cycle as f64 * 929.0 / 1e6,
        cycle as f64 * 7200.0 / 1e6
    );
    println!("(paper: 2.58 MB and ~20 MB respectively — ACACIA avoids paying this for a second");
    println!(" always-on bearer by creating dedicated bearers on demand, only when LTE-direct");
    println!(" reports a matching service nearby)");
}
