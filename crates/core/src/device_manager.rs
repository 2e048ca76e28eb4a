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

struct AppEntry {
    info: ServiceInfo,
    /// Has this app asked for MEC connectivity yet?
    requested: bool,
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
            requested: false,
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
                let action = (!entry.requested).then(|| ConnectivityAction {
                    service: entry.info.service.clone(),
                });
                entry.requested = true;
                return (Some(id), action);
            }
        }
        (None, None)
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
