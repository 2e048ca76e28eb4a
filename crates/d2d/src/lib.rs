//! # acacia-d2d — LTE-direct proximity service discovery
//!
//! A deterministic model of LTE-direct (3GPP Release 12 D2D): periodic
//! publish/subscribe service discovery with in-modem code/mask filtering,
//! over a log-distance radio channel that reports per-message rxPower and
//! (dynamic-range-clipped) SNR — exactly the side information ACACIA's
//! localization consumes (paper §3, §5.5).
//!
//! * [`channel`] — path loss + shadowing + fading; rxPower/SNR readings.
//! * [`service`] — 128-bit expression codes, masks, announcements.
//! * [`modem`] — modem-resident subscription filtering.
//! * [`discovery`] — publishers on a floor plan; scan/dwell operations.
//!
//! ```
//! use acacia_d2d::prelude::*;
//! use acacia_geo::prelude::*;
//!
//! let floor = FloorPlan::retail_store();
//! let channel = RadioChannel::new(PathLossModel::indoor_default(), 42);
//! let world = ProximityWorld::from_floor(&floor, "acme", channel);
//!
//! let mut modem = Modem::new();
//! modem.subscribe(SubscriptionFilter::exact("acme", "L4"));
//! // Standing next to landmark L4 we hear its broadcasts (and its alone).
//! let events = world.scan(&mut modem, Point::new(14.0, 2.5), 0);
//! assert!(events.iter().all(|e| e.publisher == "L4"));
//! assert!(!events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod discovery;
pub mod modem;
pub mod service;
pub mod technology;

pub use channel::{RadioChannel, RadioReading};
pub use discovery::{ProximityWorld, Publisher};
pub use modem::Modem;
pub use service::{Announcement, DiscoveryEvent, ServiceCode, SubscriptionFilter};
pub use technology::ProximityTech;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::channel::{RadioChannel, RadioReading};
    pub use crate::discovery::{ProximityWorld, Publisher};
    pub use crate::modem::Modem;
    pub use crate::service::{Announcement, DiscoveryEvent, ServiceCode, SubscriptionFilter};
    pub use crate::technology::ProximityTech;
}
