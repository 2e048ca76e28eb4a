//! The proximity world: fixed publishers broadcasting periodically over the
//! radio channel, and a scan operation that pushes what a subscriber's
//! modem would decode at a given position and discovery tick.

use crate::channel::RadioChannel;
use crate::modem::Modem;
use crate::service::{Announcement, DiscoveryEvent};
use acacia_geo::floor::FloorPlan;
use acacia_geo::point::Point;

/// Default LTE-direct discovery period in seconds (the eNB allocates
/// discovery resource blocks "at periodic intervals (e.g., 5 or 10 sec)").
pub const DEFAULT_PERIOD_S: f64 = 5.0;

/// A fixed LTE-direct publisher (e.g. a sales person's phone taped to a
/// shelf).
#[derive(Debug, Clone)]
pub struct Publisher {
    /// Landmark/publisher name (matches the floor-plan landmark).
    pub name: String,
    /// Position on the floor.
    pub pos: Point,
    /// What it announces.
    pub announcement: Announcement,
}

/// All publishers in an environment plus the radio channel between them and
/// any subscriber.
#[derive(Debug, Clone)]
pub struct ProximityWorld {
    channel: RadioChannel,
    publishers: Vec<Publisher>,
    /// Discovery period in seconds.
    pub period_s: f64,
    /// Publishers that fit into one discovery occasion's resource-block
    /// allocation (None = unbounded). When exceeded, publishers broadcast
    /// round-robin across occasions.
    pub capacity_per_occasion: Option<usize>,
}

impl ProximityWorld {
    /// Empty world over `channel`.
    pub fn new(channel: RadioChannel) -> ProximityWorld {
        ProximityWorld {
            channel,
            publishers: Vec::new(),
            period_s: DEFAULT_PERIOD_S,
            capacity_per_occasion: None,
        }
    }

    /// Place every landmark of `floor` as a publisher of
    /// `(service, landmark-name)`.
    pub fn from_floor(floor: &FloorPlan, service: &str, channel: RadioChannel) -> ProximityWorld {
        let mut world = ProximityWorld::new(channel);
        for lm in &floor.landmarks {
            world.add_publisher(&lm.name, lm.pos, Announcement::new(service, &lm.name));
        }
        world
    }

    /// Add a publisher.
    pub fn add_publisher(&mut self, name: &str, pos: Point, announcement: Announcement) {
        self.publishers.push(Publisher {
            name: name.to_string(),
            pos,
            announcement,
        });
    }

    /// The discovery tick in effect at wall time `t_s` seconds.
    pub fn tick_at(&self, t_s: f64) -> u64 {
        (t_s / self.period_s).floor().max(0.0) as u64
    }

    /// One discovery occasion: every publisher that got a resource-block
    /// grant this occasion broadcasts once; `modem` filters; returns
    /// delivered events (with rxPower/SNR side info).
    pub fn scan(&self, modem: &mut Modem, rx_pos: Point, tick: u64) -> Vec<DiscoveryEvent> {
        let mut events = Vec::new();
        for (i, p) in self.publishers.iter().enumerate() {
            if !self.scheduled(i, tick) {
                continue; // no grant this occasion
            }
            let Some(reading) = self.channel.sample(i as u64 + 1, p.pos, rx_pos, tick) else {
                continue; // below sensitivity: not decoded at all
            };
            if let Some(ev) = modem.receive(&p.announcement, &p.name, reading, tick) {
                events.push(ev);
            }
        }
        events
    }

    /// Does publisher `i` hold a grant at `tick`? With bounded capacity the
    /// eNB round-robins grants across occasions.
    fn scheduled(&self, i: usize, tick: u64) -> bool {
        match self.capacity_per_occasion {
            None => true,
            Some(0) => false,
            Some(cap) => {
                let n = self.publishers.len();
                if n <= cap {
                    return true;
                }
                let start = (tick as usize * cap) % n;
                let offset = (i + n - start) % n;
                offset < cap
            }
        }
    }

    /// Scan repeatedly while standing at `rx_pos` for `n_ticks` discovery
    /// periods, collecting all delivered events.
    pub fn scan_dwell(
        &self,
        modem: &mut Modem,
        rx_pos: Point,
        start_tick: u64,
        n_ticks: u64,
    ) -> Vec<DiscoveryEvent> {
        (start_tick..start_tick + n_ticks)
            .flat_map(|t| self.scan(modem, rx_pos, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RadioChannel;
    use crate::service::SubscriptionFilter;
    use acacia_geo::pathloss::PathLossModel;

    fn world() -> ProximityWorld {
        let floor = FloorPlan::retail_store();
        let channel = RadioChannel::new(PathLossModel::indoor_default(), 7);
        ProximityWorld::from_floor(&floor, "acme", channel)
    }

    #[test]
    fn floor_landmarks_become_publishers() {
        let w = world();
        assert_eq!(w.publishers.len(), 7);
        assert_eq!(w.publishers[0].name, "L1");
        assert_eq!(w.publishers[0].announcement.expression, "L1");
    }

    #[test]
    fn subscriber_hears_nearby_landmarks() {
        let w = world();
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide("acme"));
        // Standing in the middle of a 28x15 m store every landmark should be
        // in radio range (max distance < 30 m).
        let events = w.scan(&mut modem, Point::new(14.0, 7.5), 0);
        assert!(events.len() >= 3, "heard only {} landmarks", events.len());
        // Closest landmark must have the strongest rxPower on average over
        // several ticks.
        let mut by_pub: std::collections::HashMap<String, Vec<f64>> = Default::default();
        for t in 0..20 {
            for ev in w.scan(&mut modem, Point::new(14.0, 2.5), t) {
                by_pub
                    .entry(ev.publisher)
                    .or_default()
                    .push(ev.rx_power_dbm);
            }
        }
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        // L4 sits at (14, 2.5) — exactly the scan position.
        let l4 = mean(&by_pub["L4"]);
        for (name, vals) in &by_pub {
            if name != "L4" {
                assert!(
                    l4 > mean(vals),
                    "L4 ({l4:.1} dBm) vs {name} ({:.1})",
                    mean(vals)
                );
            }
        }
    }

    #[test]
    fn unsubscribed_modem_receives_nothing() {
        let w = world();
        let mut modem = Modem::new();
        let events = w.scan(&mut modem, Point::new(14.0, 7.5), 0);
        assert!(events.is_empty());
        assert!(modem.messages_filtered > 0, "messages must reach the modem");
    }

    #[test]
    fn tick_at_respects_period() {
        let w = world();
        assert_eq!(w.tick_at(0.0), 0);
        assert_eq!(w.tick_at(4.9), 0);
        assert_eq!(w.tick_at(5.1), 1);
        assert_eq!(w.tick_at(27.0), 5);
    }

    #[test]
    fn bounded_capacity_round_robins_grants() {
        let mut w = world();
        w.capacity_per_occasion = Some(3);
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide("acme"));
        // Per occasion at most 3 of the 7 publishers broadcast...
        for tick in 0..7 {
            let n = w.scan(&mut modem, Point::new(14.0, 7.5), tick).len();
            assert!(n <= 3, "tick {tick}: {n} broadcasts");
        }
        // ...but across a few occasions every publisher is heard.
        let mut heard: std::collections::HashSet<String> = Default::default();
        for tick in 0..7 {
            for ev in w.scan(&mut modem, Point::new(14.0, 7.5), tick) {
                heard.insert(ev.publisher);
            }
        }
        assert_eq!(heard.len(), 7, "round-robin must cover all publishers");
        // Zero capacity silences discovery entirely.
        w.capacity_per_occasion = Some(0);
        assert!(w.scan(&mut modem, Point::new(14.0, 7.5), 0).is_empty());
    }

    #[test]
    fn dwell_accumulates_multiple_ticks() {
        let w = world();
        let mut modem = Modem::new();
        modem.subscribe(SubscriptionFilter::service_wide("acme"));
        let one = w.scan(&mut modem, Point::new(14.0, 7.5), 0).len();
        let mut modem2 = Modem::new();
        modem2.subscribe(SubscriptionFilter::service_wide("acme"));
        let many = w.scan_dwell(&mut modem2, Point::new(14.0, 7.5), 0, 5).len();
        assert!(many >= 4 * one, "dwell {many} vs single {one}");
    }
}
