//! LTE-direct service expressions: codes, masks and announcements.
//!
//! LTE-direct publishes small *service discovery messages* on uplink
//! resource blocks. Subscribers store **binary codes and masks expressing
//! the user's interest** in the modem; matching happens entirely in the
//! modem and only matching messages are delivered to applications (paper
//! §3, "LTE-direct"). Carriers manage the service-name namespace so
//! different publishers (e.g. different retail stores) are distinguishable.

/// A 128-bit LTE-direct *ProSe*-style expression code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceCode(pub u128);

impl ServiceCode {
    /// Derive the code for `(service, expression)`.
    ///
    /// Layout: the upper 64 bits identify the **service** (carrier-assigned,
    /// e.g. a retail chain); the lower 64 bits identify the **expression**
    /// within the service (e.g. the "laptops" section).
    pub fn derive(service: &str, expression: &str) -> ServiceCode {
        let hi = fnv1a(service.as_bytes());
        let lo = fnv1a(expression.as_bytes());
        ServiceCode(((hi as u128) << 64) | lo as u128)
    }
}

/// 64-bit FNV-1a — stable across platforms and runs.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A subscription filter stored in the modem: `code` with a `mask` of
/// significant bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionFilter {
    /// Code bits to match.
    pub code: ServiceCode,
    /// Significant-bit mask: a set bit must match.
    pub mask: u128,
}

impl SubscriptionFilter {
    /// Match exactly one `(service, expression)` pair.
    pub fn exact(service: &str, expression: &str) -> SubscriptionFilter {
        SubscriptionFilter {
            code: ServiceCode::derive(service, expression),
            mask: u128::MAX,
        }
    }

    /// Match *any* expression within a service (mask covers only the
    /// service half).
    pub fn service_wide(service: &str) -> SubscriptionFilter {
        SubscriptionFilter {
            code: ServiceCode::derive(service, ""),
            mask: (u64::MAX as u128) << 64,
        }
    }

    /// Does `code` pass this filter?
    pub fn matches(&self, code: ServiceCode) -> bool {
        (code.0 & self.mask) == (self.code.0 & self.mask)
    }
}

/// A periodic service announcement broadcast by a publisher.
#[derive(Debug, Clone, PartialEq)]
pub struct Announcement {
    /// Carrier-managed service name (e.g. the retail chain).
    pub service: String,
    /// Application expression (e.g. section or product: "laptops").
    pub expression: String,
    /// Derived over-the-air code.
    pub code: ServiceCode,
}

impl Announcement {
    /// Build an announcement, deriving its over-the-air code.
    pub fn new(service: &str, expression: &str) -> Announcement {
        Announcement {
            service: service.to_string(),
            expression: expression.to_string(),
            code: ServiceCode::derive(service, expression),
        }
    }
}

/// A discovery message as delivered *by the modem* to the application after
/// an interest match, together with its radio measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryEvent {
    /// The matched announcement.
    pub announcement: Announcement,
    /// Name of the landmark/publisher that sent it.
    pub publisher: String,
    /// Received power, dBm.
    pub rx_power_dbm: f64,
    /// Clipped SNR, dB.
    pub snr_db: f64,
    /// Discovery period tick at which it was received.
    pub tick: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_stable_and_distinct() {
        let a = ServiceCode::derive("acme-retail", "laptops");
        let b = ServiceCode::derive("acme-retail", "laptops");
        let c = ServiceCode::derive("acme-retail", "cameras");
        let d = ServiceCode::derive("mega-mart", "laptops");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // The service is the upper half of the code, the expression the
        // lower.
        assert_eq!(a.0 >> 64, c.0 >> 64);
        assert_ne!(a.0 >> 64, d.0 >> 64);
        assert_eq!(a.0 as u64, d.0 as u64);
    }

    #[test]
    fn exact_filter_matches_only_its_pair() {
        let f = SubscriptionFilter::exact("acme-retail", "laptops");
        assert!(f.matches(ServiceCode::derive("acme-retail", "laptops")));
        assert!(!f.matches(ServiceCode::derive("acme-retail", "cameras")));
        assert!(!f.matches(ServiceCode::derive("mega-mart", "laptops")));
    }

    #[test]
    fn service_wide_filter_matches_all_expressions() {
        let f = SubscriptionFilter::service_wide("acme-retail");
        assert!(f.matches(ServiceCode::derive("acme-retail", "laptops")));
        assert!(f.matches(ServiceCode::derive("acme-retail", "cameras")));
        assert!(!f.matches(ServiceCode::derive("mega-mart", "laptops")));
    }

    #[test]
    fn announcement_derives_consistent_code() {
        let a = Announcement::new("acme-retail", "laptops");
        assert_eq!(a.code, ServiceCode::derive("acme-retail", "laptops"));
    }
}
