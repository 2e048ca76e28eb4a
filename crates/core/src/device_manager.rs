//! The ACACIA device manager (paper §5.3, §6.2).
//!
//! An Android-service-like daemon on the UE with two roles:
//!
//! 1. **Discovery proxy** — CI applications register `ServiceInfo`
//!    interests; the manager installs matching filters in the LTE modem
//!    and forwards delivered discovery messages (with rxPower/SNR) back to
//!    the owning application.
//! 2. **Connectivity manager** — on the *first* interest match for an
//!    application it asks the MRS to create MEC connectivity (a dedicated
//!    bearer). This is what keeps dedicated bearers **on-demand** instead
//!    of always-on (the §4 control-overhead argument).

use acacia_d2d::modem::Modem;
use acacia_d2d::service::{DiscoveryEvent, SubscriptionFilter};

/// What a CI application registers with the manager (the paper's
/// `ServiceInfo` Parcelable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    /// Carrier-managed service name (e.g. the retail chain).
    pub service: String,
    /// The user's selected interests within the service (e.g. "laptops"),
    /// empty = all expressions.
    pub interests: Vec<String>,
}

/// Handle of a registered CI application.
pub type AppId = usize;

/// A request for MEC connectivity the manager wants sent to the MRS by
/// the hosting node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivityAction {
    /// Service to connect.
    pub service: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ConnState {
    None,
    Requested,
    Active,
}

struct AppEntry {
    info: ServiceInfo,
    conn: ConnState,
    /// Has this app ever asked for MEC connectivity? Cell changes only
    /// (re-)establish connectivity for apps that opted in.
    wants_conn: bool,
}

/// The device manager.
#[derive(Default)]
pub struct DeviceManager {
    apps: Vec<AppEntry>,
}

impl DeviceManager {
    /// New manager.
    pub fn new() -> DeviceManager {
        DeviceManager::default()
    }

    /// A CI application registers its interests; matching filters go into
    /// the modem.
    pub fn register_app(&mut self, modem: &mut Modem, info: ServiceInfo) -> AppId {
        if info.interests.is_empty() {
            modem.subscribe(SubscriptionFilter::service_wide(&info.service));
        } else {
            for interest in &info.interests {
                modem.subscribe(SubscriptionFilter::exact(&info.service, interest));
            }
        }
        self.apps.push(AppEntry {
            info,
            conn: ConnState::None,
            wants_conn: false,
        });
        self.apps.len() - 1
    }

    /// Route a modem-delivered discovery event to the owning application.
    /// Returns the app it belongs to (if any) plus a connectivity action
    /// when this is the app's **first** match.
    pub fn on_discovery(
        &mut self,
        event: &DiscoveryEvent,
    ) -> (Option<AppId>, Option<ConnectivityAction>) {
        for (id, entry) in self.apps.iter_mut().enumerate() {
            let service_match = entry.info.service == event.announcement.service;
            let interest_match = entry.info.interests.is_empty()
                || entry
                    .info
                    .interests
                    .contains(&event.announcement.expression);
            if service_match && interest_match {
                let action = if entry.conn == ConnState::None {
                    entry.conn = ConnState::Requested;
                    entry.wants_conn = true;
                    Some(ConnectivityAction {
                        service: entry.info.service.clone(),
                    })
                } else {
                    None
                };
                return (Some(id), action);
            }
        }
        (None, None)
    }

    /// Trigger connectivity *without* proximity discovery (paper §8,
    /// "ACACIA without proximity service discovery"): launching the CI
    /// application itself requests MEC connectivity.
    pub(crate) fn on_app_launch(&mut self, app: AppId) -> Option<ConnectivityAction> {
        let entry = self.apps.get_mut(app)?;
        if entry.conn == ConnState::None {
            entry.conn = ConnState::Requested;
            entry.wants_conn = true;
            Some(ConnectivityAction {
                service: entry.info.service.clone(),
            })
        } else {
            None
        }
    }

    /// The serving cell changed (mobility, paper §8 "users may move").
    /// For every app that wants MEC connectivity:
    ///
    /// * the new cell is MEC-equipped → re-request connectivity. The PCEF
    ///   treats this as idempotent: if the network already re-anchored the
    ///   dedicated bearer during the handover, the request just acks; if
    ///   the bearer was lost, it re-creates it on the new cell's local
    ///   gateway.
    /// * the new cell has no MEC → the network released the dedicated
    ///   bearer; drop to default connectivity so the next MEC cell
    ///   triggers a fresh create.
    pub(crate) fn on_cell_change(&mut self, cell_is_mec: bool) -> Vec<ConnectivityAction> {
        let mut actions = Vec::new();
        for entry in &mut self.apps {
            if !entry.wants_conn {
                continue;
            }
            if cell_is_mec {
                entry.conn = ConnState::Requested;
                actions.push(ConnectivityAction {
                    service: entry.info.service.clone(),
                });
            } else {
                entry.conn = ConnState::None;
            }
        }
        actions
    }

    /// The MRS answered a connectivity request for `service`.
    pub(crate) fn on_mrs_ack(&mut self, service: &str, ok: bool) {
        for entry in &mut self.apps {
            if entry.info.service == service && entry.conn == ConnState::Requested {
                entry.conn = if ok {
                    ConnState::Active
                } else {
                    ConnState::None
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_d2d::channel::RadioReading;
    use acacia_d2d::service::Announcement;

    fn event(service: &str, expr: &str) -> DiscoveryEvent {
        DiscoveryEvent {
            announcement: Announcement::new(service, expr),
            publisher: "L1".into(),
            rx_power_dbm: -70.0,
            snr_db: 20.0,
            tick: 0,
        }
    }

    /// Whether `app` holds acknowledged MEC connectivity.
    fn active(dm: &DeviceManager, app: AppId) -> bool {
        dm.apps[app].conn == ConnState::Active
    }

    fn reading() -> RadioReading {
        RadioReading {
            rx_power_dbm: -70.0,
            snr_db: 20.0,
        }
    }

    #[test]
    fn registration_installs_modem_filters() {
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec!["laptops".into(), "cameras".into()],
            },
        );
        assert_eq!(modem.active_subscriptions(), 2);
        // The modem delivers only matching expressions.
        let ann_yes = Announcement::new("acme", "laptops");
        let ann_no = Announcement::new("acme", "socks");
        assert!(modem.receive(&ann_yes, "L1", reading(), 0).is_some());
        assert!(modem.receive(&ann_no, "L1", reading(), 0).is_none());
    }

    #[test]
    fn first_match_triggers_exactly_one_create() {
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        let app = dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec!["laptops".into()],
            },
        );
        let (owner, action) = dm.on_discovery(&event("acme", "laptops"));
        assert_eq!(owner, Some(app));
        assert_eq!(
            action,
            Some(ConnectivityAction {
                service: "acme".into()
            })
        );
        // Second match: no new request.
        let (_, action2) = dm.on_discovery(&event("acme", "laptops"));
        assert_eq!(action2, None);
        // Ack activates.
        dm.on_mrs_ack("acme", true);
        assert!(active(&dm, app));
    }

    #[test]
    fn failed_ack_allows_retry() {
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        let app = dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec![],
            },
        );
        let (_, a1) = dm.on_discovery(&event("acme", "anything"));
        assert!(a1.is_some());
        dm.on_mrs_ack("acme", false);
        assert!(!active(&dm, app));
        let (_, a2) = dm.on_discovery(&event("acme", "anything"));
        assert!(a2.is_some(), "retry after a NACK");
    }

    #[test]
    fn app_launch_trigger_works_without_discovery() {
        // Paper §8: "launching a specific application might serve as the
        // trigger to activate ACACIA functionality".
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        let app = dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec![],
            },
        );
        let action = dm.on_app_launch(app);
        assert_eq!(
            action,
            Some(ConnectivityAction {
                service: "acme".into()
            })
        );
        // Launching again (or a subsequent discovery match) doesn't ask
        // twice.
        assert_eq!(dm.on_app_launch(app), None);
        let (_, a2) = dm.on_discovery(&event("acme", "x"));
        assert_eq!(a2, None);
        dm.on_mrs_ack("acme", true);
        assert!(active(&dm, app));
    }

    #[test]
    fn cell_changes_drive_connectivity_for_opted_in_apps_only() {
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        let app = dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec![],
            },
        );
        // Before any interest match: cell changes do nothing.
        assert!(dm.on_cell_change(true).is_empty());
        dm.on_discovery(&event("acme", "x"));
        dm.on_mrs_ack("acme", true);
        assert!(active(&dm, app));
        // Walk to a non-MEC cell: connectivity drops to default.
        assert!(dm.on_cell_change(false).is_empty());
        assert!(!active(&dm, app));
        // Walk back into MEC coverage: a fresh create fires.
        let actions = dm.on_cell_change(true);
        assert_eq!(
            actions,
            vec![ConnectivityAction {
                service: "acme".into()
            }]
        );
        dm.on_mrs_ack("acme", true);
        assert!(active(&dm, app));
    }

    #[test]
    fn events_for_other_services_are_not_delivered() {
        let mut dm = DeviceManager::new();
        let mut modem = Modem::new();
        dm.register_app(
            &mut modem,
            ServiceInfo {
                service: "acme".into(),
                interests: vec![],
            },
        );
        let (owner, action) = dm.on_discovery(&event("other-store", "laptops"));
        assert_eq!(owner, None);
        assert_eq!(action, None);
    }
}
