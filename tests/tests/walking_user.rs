//! A moving shopper: as the user walks between store sections, the
//! periodic rxPower reports shift, the server's location estimate tracks
//! them, and the pruned search space follows the user.

use acacia::arclient::{ArFrontend, ArFrontendConfig};
use acacia::arserver::{ArServer, ArServerConfig};
use acacia::locmgr::{LocalizationManager, LocalizationMetadata};
use acacia::msg::APP_PORT;
use acacia::search::SearchStrategy;
use acacia_d2d::channel::RadioChannel;
use acacia_d2d::discovery::ProximityWorld;
use acacia_d2d::modem::Modem;
use acacia_d2d::service::SubscriptionFilter;
use acacia_geo::floor::FloorPlan;
use acacia_geo::pathloss::PathLossModel;
use acacia_geo::point::Point;
use acacia_lte::network::{LteConfig, LteNetwork};
use acacia_lte::qci::Qci;
use acacia_lte::ue::AppSelector;
use acacia_lte::wire::PolicyRule;
use acacia_simnet::time::Duration;
use acacia_vision::db::ObjectDb;
use acacia_vision::image::Resolution;

/// Sample the discovery world at a position, returning averaged readings.
fn readings_at(world: &ProximityWorld, pos: Point, base_tick: u64) -> Vec<(String, f64)> {
    let mut modem = Modem::new();
    modem.subscribe(SubscriptionFilter::service_wide("acme"));
    let mut acc: std::collections::HashMap<String, Vec<f64>> = Default::default();
    for t in 0..3 {
        for ev in world.scan(&mut modem, pos, base_tick + t) {
            acc.entry(ev.publisher).or_default().push(ev.rx_power_dbm);
        }
    }
    acc.into_iter()
        .map(|(k, v)| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (k, m)
        })
        .collect()
}

#[test]
fn moving_user_repoints_the_search_space() {
    let floor = FloorPlan::retail_store();
    let db = ObjectDb::generate_retail(&floor, 2, 21);
    let model = PathLossModel::indoor_default();
    let world = ProximityWorld::from_floor(&floor, "acme", RadioChannel::new(model, 21));

    // Walk: start in the west ("food") aisle, end in the east ("sports").
    let west = floor.checkpoints[0].pos; // C1 (1.75, 2.5)
    let east = floor.checkpoints[7].pos; // C8 (26.25, 2.5)

    let mut net = LteNetwork::new(LteConfig::default());
    let locmgr = LocalizationManager::new(LocalizationMetadata::for_floor(&floor, &model));
    let server_addr = acacia_lte::network::addr::MEC_BASE;
    let (server, _) = net.add_mec_server(Box::new(ArServer::new(
        ArServerConfig {
            strategy: SearchStrategy::ACACIA_DEFAULT,
            exec_cap: 16,
            ..ArServerConfig::new(server_addr)
        },
        db.clone(),
        floor.clone(),
        locmgr,
    )));
    let ue_ip = net.attach(0);
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

    // The user walks the south aisle west→east (checkpoints C1..C8),
    // photographing the object anchored at each checkpoint as they pass.
    // Their rxPower reports track the walk (reports every second; the
    // shopper lingers ~1.5 s per object).
    let aisle: Vec<Point> = (0..8).map(|i| floor.checkpoints[i].pos).collect();
    let scene_ids: Vec<u64> = aisle
        .iter()
        .map(|&cp| {
            db.objects()
                .iter()
                .find(|o| o.pos.distance(cp) < 1e-6)
                .expect("an object is anchored at each checkpoint")
                .id
        })
        .collect();
    let west_obj = scene_ids[0];
    let east_obj = *scene_ids.last().unwrap();
    // The walk completes by tick 8 (frames trail the reports slightly, and
    // the server's EWMA needs a couple of readings to converge at the
    // destination).
    let schedule: Vec<Vec<(String, f64)>> = (0..13)
        .map(|i| {
            let frac = (i as f64 / 8.0).clamp(0.0, 1.0);
            let pos = west.lerp(east, frac);
            readings_at(&world, pos, i as u64)
        })
        .collect();
    let cfg = ArFrontendConfig {
        resolution: Resolution::E2E,
        frame_count: 8,
        scene_ids: scene_ids.clone(),
        rx_report_schedule: schedule,
        report_period: Duration::from_secs(1),
        min_frame_interval: Some(Duration::from_millis(1_500)),
        ..ArFrontendConfig::new(ue_ip, server_addr)
    };
    let client = net.connect_ue_app(
        0,
        Box::new(ArFrontend::new(cfg)),
        AppSelector::port(APP_PORT),
    );
    let t0 = net.sim.now();
    net.sim.schedule_timer(client, t0, ArFrontend::KICKOFF);
    net.run_for(Duration::from_secs(40));

    let srv = net.sim.node_ref::<ArServer>(server);
    let frames = &net.sim.node_ref::<ArFrontend>(client).frames;
    assert_eq!(srv.served, 8, "all frames processed");
    assert_eq!(frames.len(), 8, "all results delivered");
    // Early frames match the west object, late frames the east one — and
    // both matched *through the pruned space*, so the pruning followed.
    let tag = |id| db.get(id).map(|o| &*o.tag);
    assert_eq!(frames[0].matched.as_deref(), tag(west_obj));
    assert_eq!(frames.last().unwrap().matched.as_deref(), tag(east_obj));
    for f in frames {
        assert!(
            f.candidates < db.len(),
            "frame {} was not pruned ({} candidates)",
            f.seq,
            f.candidates
        );
    }
    // Matching held up across movement. Frame `seq` photographed
    // `scene_ids[seq]`.
    let correct = frames
        .iter()
        .filter(|f| f.matched.as_deref() == tag(scene_ids[f.seq as usize]))
        .count();
    assert!(correct >= 6, "{correct}/8 correct while walking");
    assert_eq!(srv.accuracy(), correct as f64 / 8.0);
}
