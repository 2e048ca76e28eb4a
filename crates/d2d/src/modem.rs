//! The LTE modem's discovery filter: subscriptions live *in the modem* and
//! non-matching messages never reach the application processor (paper §3:
//! "Handling service discovery entirely in the modem allows for scalability
//! (hundreds of devices), security and fast discovery").

use crate::channel::RadioReading;
use crate::service::{Announcement, DiscoveryEvent, SubscriptionFilter};

/// Modem-resident discovery state for one UE.
#[derive(Debug, Default)]
pub struct Modem {
    subscriptions: Vec<SubscriptionFilter>,
    /// Discovery messages decoded by the radio.
    pub messages_seen: u64,
    /// Messages filtered out in the modem (no matching subscription).
    pub messages_filtered: u64,
    /// Messages delivered to applications.
    pub messages_delivered: u64,
}

impl Modem {
    /// A modem with no subscriptions.
    pub fn new() -> Modem {
        Modem::default()
    }

    /// Install a subscription filter.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) {
        self.subscriptions.push(filter);
    }

    /// Number of installed subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        self.subscriptions.len()
    }

    /// Present a decoded over-the-air announcement to the modem. Returns the
    /// event delivered to the application layer if any subscription matches.
    pub fn receive(
        &mut self,
        announcement: &Announcement,
        publisher: &str,
        reading: RadioReading,
        tick: u64,
    ) -> Option<DiscoveryEvent> {
        self.messages_seen += 1;
        let matched = self
            .subscriptions
            .iter()
            .any(|f| f.matches(announcement.code));
        if !matched {
            self.messages_filtered += 1;
            return None;
        }
        self.messages_delivered += 1;
        Some(DiscoveryEvent {
            announcement: announcement.clone(),
            publisher: publisher.to_string(),
            rx_power_dbm: reading.rx_power_dbm,
            snr_db: reading.snr_db,
            tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RadioReading;
    use crate::service::Announcement;

    fn reading() -> RadioReading {
        RadioReading {
            rx_power_dbm: -70.0,
            snr_db: 20.0,
        }
    }

    #[test]
    fn matching_message_is_delivered_with_radio_info() {
        let mut m = Modem::new();
        m.subscribe(SubscriptionFilter::exact("store", "laptops"));
        let a = Announcement::new("store", "laptops");
        let ev = m.receive(&a, "L1", reading(), 5).unwrap();
        assert_eq!(ev.publisher, "L1");
        assert_eq!(ev.rx_power_dbm, -70.0);
        assert_eq!(ev.tick, 5);
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.messages_filtered, 0);
    }

    #[test]
    fn non_matching_message_is_filtered_in_modem() {
        let mut m = Modem::new();
        m.subscribe(SubscriptionFilter::exact("store", "laptops"));
        let a = Announcement::new("store", "cameras");
        assert!(m.receive(&a, "L2", reading(), 0).is_none());
        assert_eq!(m.messages_filtered, 1);
        assert_eq!(m.messages_delivered, 0);
    }

    #[test]
    fn multiple_subscriptions_any_match_delivers_once() {
        let mut m = Modem::new();
        m.subscribe(SubscriptionFilter::service_wide("store"));
        m.subscribe(SubscriptionFilter::exact("store", "laptops"));
        let a = Announcement::new("store", "laptops");
        assert!(m.receive(&a, "L1", reading(), 0).is_some());
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.messages_seen, 1);
    }
}
