//! Two UEs sharing one MEC AR server *in the simulator*: the Fig. 12
//! contention mechanism (serial service at the server) observed end to
//! end, not just in the compute model.

use acacia::arclient::{ArFrontend, ArFrontendConfig};
use acacia::arserver::{ArServer, ArServerConfig};
use acacia::locmgr::{LocalizationManager, LocalizationMetadata};
use acacia::msg::APP_PORT;
use acacia::search::SearchStrategy;
use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::PathLossModel;
use acacia_lte::network::{LteConfig, LteNetwork};
use acacia_lte::qci::Qci;
use acacia_lte::ue::AppSelector;
use acacia_lte::wire::PolicyRule;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::Duration;
use acacia_vision::db::ObjectDb;
use acacia_vision::image::Resolution;

/// Build a MEC network with `n` streaming clients sharing one server;
/// return each client's mean end-to-end frame latency.
fn run_clients(n: usize) -> Vec<f64> {
    let floor = FloorPlan::retail_store();
    let db = ObjectDb::generate_retail(&floor, 1, 5);
    let model = PathLossModel::indoor_default();

    let mut net = LteNetwork::new(LteConfig {
        ue_count: n,
        ..LteConfig::default()
    });
    let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
    let server_addr = acacia_lte::network::addr::MEC_BASE;
    let (server, assigned) = net.add_mec_server(Box::new(ArServer::new(
        ArServerConfig {
            strategy: SearchStrategy::Naive,
            exec_cap: 16,
            ..ArServerConfig::new(server_addr)
        },
        db.clone(),
        floor.clone(),
        locmgr,
    )));
    assert_eq!(assigned, server_addr);
    let _ = server;

    let mut clients: Vec<NodeId> = Vec::new();
    for i in 0..n {
        let ue_ip = net.attach(i);
        net.activate_dedicated_bearer(
            i,
            PolicyRule {
                service_id: 1 + i as u32,
                ue_addr: ue_ip,
                server_addr,
                server_port: 0,
                qci: Qci(7),
                install: true,
            },
        );
        let cfg = ArFrontendConfig {
            resolution: Resolution::E2E,
            frame_count: 3,
            scene_ids: vec![db.objects()[i % db.len()].id],
            ..ArFrontendConfig::new(ue_ip, server_addr)
        };
        let client = net.connect_ue_app(
            i,
            Box::new(ArFrontend::new(cfg)),
            AppSelector::port(APP_PORT),
        );
        clients.push(client);
    }
    let t0 = net.sim.now();
    for &c in &clients {
        net.sim.schedule_timer(c, t0, ArFrontend::KICKOFF);
    }
    net.run_for(Duration::from_secs(60));

    clients
        .iter()
        .map(|&c| {
            let f = net.sim.node_ref::<ArFrontend>(c);
            assert_eq!(f.frames.len(), 3, "client must finish its frames");
            f.frames.iter().map(|s| s.total_s()).sum::<f64>() / f.frames.len() as f64
        })
        .collect()
}

#[test]
fn concurrent_clients_contend_at_the_server() {
    let solo = run_clients(1)[0];
    let duo = run_clients(2);
    let duo_mean = (duo[0] + duo[1]) / 2.0;
    // Fig. 12: two clients roughly double the (match-dominated) latency.
    assert!(
        duo_mean > 1.3 * solo,
        "two clients should contend: solo {solo:.3}s vs duo {duo_mean:.3}s"
    );
    assert!(
        duo_mean < 3.0 * solo,
        "contention should stay near 2x: solo {solo:.3}s vs duo {duo_mean:.3}s"
    );
}

#[test]
fn both_ues_hold_independent_dedicated_bearers() {
    let floor = FloorPlan::retail_store();
    let db = ObjectDb::generate_retail(&floor, 1, 5);
    let model = PathLossModel::indoor_default();
    let mut net = LteNetwork::new(LteConfig {
        ue_count: 2,
        ..LteConfig::default()
    });
    let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
    let server_addr = acacia_lte::network::addr::MEC_BASE;
    let _ = net.add_mec_server(Box::new(ArServer::new(
        ArServerConfig {
            strategy: SearchStrategy::Naive,
            exec_cap: 16,
            ..ArServerConfig::new(server_addr)
        },
        db,
        floor,
        locmgr,
    )));
    for i in 0..2 {
        let ue_ip = net.attach(i);
        net.activate_dedicated_bearer(
            i,
            PolicyRule {
                service_id: 1 + i as u32,
                ue_addr: ue_ip,
                server_addr,
                server_port: 0,
                qci: Qci(7),
                install: true,
            },
        );
    }
    use acacia_lte::ue::Ue;
    for i in 0..2 {
        assert!(net.sim.node_ref::<Ue>(net.ues[i]).has_dedicated_bearer());
    }
    // The local GW-U carries UL+DL rule pairs for both UEs.
    use acacia_lte::switch::FlowSwitch;
    assert_eq!(
        net.sim.node_ref::<FlowSwitch>(net.local_gwu).rule_count(),
        4
    );
}
