//! Identifiers used across the EPC: TEIDs, bearer ids, UE identities.

/// GTP Tunnel Endpoint Identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Teid(pub u32);

impl std::fmt::Display for Teid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "teid:{:#x}", self.0)
    }
}

/// EPS Bearer Identity (4-bit in the spec; 5..15 valid for bearers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ebi(pub u8);

impl Ebi {
    /// First EBI handed out to the default bearer.
    pub const DEFAULT: Ebi = Ebi(5);
}

impl std::fmt::Display for Ebi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ebi:{}", self.0)
    }
}

/// Subscriber identity (abbreviated IMSI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Imsi(pub u64);

impl std::fmt::Display for Imsi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "imsi:{}", self.0)
    }
}

/// Monotonic allocator for TEIDs, EBIs etc.
#[derive(Debug, Default)]
pub struct Allocator {
    next_teid: u32,
}

impl Allocator {
    /// Fresh allocator.
    pub(crate) fn new() -> Allocator {
        Allocator { next_teid: 0x1000 }
    }

    /// Allocate a TEID.
    pub(crate) fn teid(&mut self) -> Teid {
        let t = Teid(self.next_teid);
        self.next_teid += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_is_monotone_and_unique() {
        let mut a = Allocator::new();
        let t1 = a.teid();
        let t2 = a.teid();
        assert_ne!(t1, t2);
        assert!(t2.0 > t1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Teid(0x10).to_string(), "teid:0x10");
        assert_eq!(Ebi(5).to_string(), "ebi:5");
        assert_eq!(Imsi(123).to_string(), "imsi:123");
    }
}
