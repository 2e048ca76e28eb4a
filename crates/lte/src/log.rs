//! Shared control-plane message accounting.
//!
//! Every control message sent by any entity is recorded here, giving the
//! per-protocol message and byte counts the paper reports in §4 (control
//! overhead of bearer release/re-establishment). The log keeps running
//! totals per message kind (one row per row of the `wire` catalogue), so
//! its size is fixed, not a function of the length of the run.

use crate::wire::{ControlMsg, Protocol, KINDS, KIND_COUNT};
use acacia_simnet::sim::{Ctx, PortId};
use acacia_simnet::time::Instant;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Running totals for one message name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTotals {
    /// Message name.
    pub name: &'static str,
    /// Protocol family.
    pub protocol: Protocol,
    /// How many were sent.
    pub count: u64,
    /// Their on-the-wire bytes, summed.
    pub bytes: u64,
    /// When the first one was sent.
    pub first: Instant,
    /// When the latest one was sent.
    pub last: Instant,
}

/// One kind's counters. Its bytes are `count` times its wire size.
#[derive(Default)]
struct Row {
    count: AtomicU64,
    /// Earliest send in nanoseconds, `u64::MAX` before the first.
    first: AtomicU64,
    /// Latest send in nanoseconds.
    last: AtomicU64,
    /// Rank of this kind's first record among every kind's first record.
    order: AtomicU64,
}

/// A cheaply cloneable, shared message log: one row of relaxed atomic
/// counters per message kind, so recording takes no lock. Entities on
/// different shards may record concurrently; every total is a sum, a min
/// or a max, so the interleaving of records does not affect it.
#[derive(Clone)]
pub struct MsgLog {
    rows: Arc<[Row; KIND_COUNT]>,
    /// How many kinds have been recorded.
    kinds_seen: Arc<AtomicU64>,
}

impl Default for MsgLog {
    fn default() -> MsgLog {
        MsgLog::new()
    }
}

impl MsgLog {
    /// New empty log.
    pub fn new() -> MsgLog {
        let log = MsgLog {
            rows: Arc::new(std::array::from_fn(|_| Row::default())),
            kinds_seen: Arc::default(),
        };
        log.clear();
        log
    }

    /// Every kind's totals, after the rank of its first record.
    fn totals(&self) -> impl Iterator<Item = (u64, MsgTotals)> + '_ {
        let rows = self.rows.iter().zip(KINDS);
        rows.map(|(r, (protocol, name, spec))| {
            let count = r.count.load(Relaxed);
            let totals = MsgTotals {
                name,
                protocol,
                count,
                bytes: count * u64::from(spec),
                first: Instant::from_nanos(r.first.load(Relaxed)),
                last: Instant::from_nanos(r.last.load(Relaxed)),
            };
            (r.order.load(Relaxed), totals)
        })
    }

    /// Sum `f` over the rows `keep` selects.
    fn total(&self, keep: impl Fn(Protocol) -> bool, f: impl Fn(&MsgTotals) -> u64) -> u64 {
        self.totals()
            .filter(|(_, r)| keep(r.protocol))
            .map(|(_, r)| f(&r))
            .sum()
    }

    /// Record a message about to be sent.
    pub fn record(&self, at: Instant, msg: &ControlMsg) {
        let r = &self.rows[msg.kind()];
        // Shards record out of order within a window.
        r.first.fetch_min(at.nanos(), Relaxed);
        r.last.fetch_max(at.nanos(), Relaxed);
        if r.count.fetch_add(1, Relaxed) == 0 {
            r.order
                .store(self.kinds_seen.fetch_add(1, Relaxed), Relaxed);
        }
    }

    /// Record `msg` and send it out of `port` from `src` to `dst`: the one
    /// way an entity puts a control message on the wire.
    pub(crate) fn send(
        &self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        msg: ControlMsg,
    ) {
        self.record(ctx.now(), &msg);
        ctx.send(port, msg.into_packet(src, dst));
    }

    /// Number of messages of a protocol family.
    pub fn count(&self, protocol: Protocol) -> u64 {
        self.total(|p| p == protocol, |r| r.count)
    }

    /// Bytes of a protocol family.
    pub fn bytes(&self, protocol: Protocol) -> u64 {
        self.total(|p| p == protocol, |r| r.bytes)
    }

    /// Total messages across core-network protocols (excludes radio RRC,
    /// matching the paper's §4 accounting).
    pub fn core_count(&self) -> u64 {
        self.total(|p| p != Protocol::Rrc, |r| r.count)
    }

    /// Total bytes across core-network protocols.
    pub fn core_bytes(&self) -> u64 {
        self.total(|p| p != Protocol::Rrc, |r| r.bytes)
    }

    /// The totals of every message name recorded since the last
    /// [`MsgLog::clear`], in first-sent order. Names first sent at the
    /// same instant keep the order they were first recorded in, which on
    /// one shard is the order they were sent in.
    pub fn by_name(&self) -> Vec<MsgTotals> {
        let mut rows: Vec<_> = self.totals().filter(|(_, r)| r.count > 0).collect();
        rows.sort_by_key(|&(order, r)| (r.first, order));
        rows.into_iter().map(|(_, r)| r).collect()
    }

    /// Forget everything (e.g. after the attach phase, before measuring a
    /// release/re-establish cycle).
    pub fn clear(&self) {
        for r in self.rows.iter() {
            r.count.store(0, Relaxed);
            r.first.store(u64::MAX, Relaxed);
            r.last.store(0, Relaxed);
        }
        self.kinds_seen.store(0, Relaxed);
    }

    /// Total message count (all protocols) since the last
    /// [`MsgLog::clear`].
    pub fn len(&self) -> usize {
        self.total(|_| true, |r| r.count) as usize
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-line-per-protocol summary (messages / bytes), core protocols
    /// first, radio RRC last.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in [
            Protocol::S1apSctp,
            Protocol::X2Sctp,
            Protocol::Gtpv2,
            Protocol::OpenFlow,
            Protocol::Diameter,
            Protocol::Rrc,
        ] {
            let n = self.count(p);
            if n > 0 {
                out.push_str(&format!(
                    "{:>9}: {:>3} msgs {:>6} B\n",
                    p.name(),
                    n,
                    self.bytes(p)
                ));
            }
        }
        out.push_str(&format!(
            "{:>9}: {:>3} msgs {:>6} B\n",
            "core",
            self.core_count(),
            self.core_bytes()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Imsi;
    use crate::wire::KINDS;

    #[test]
    fn log_aggregates_by_protocol() {
        let log = MsgLog::new();
        log.record(
            Instant::ZERO,
            &ControlMsg::UeContextReleaseRequest { imsi: Imsi(1) },
        );
        log.record(
            Instant::ZERO,
            &ControlMsg::ReleaseAccessBearersRequest { imsi: Imsi(1) },
        );
        log.record(
            Instant::ZERO,
            &ControlMsg::RrcAttachRequest { imsi: Imsi(1) },
        );
        assert_eq!(log.count(Protocol::S1apSctp), 1);
        assert_eq!(log.count(Protocol::Gtpv2), 1);
        assert_eq!(log.count(Protocol::Rrc), 1);
        assert_eq!(log.core_count(), 2);
        assert_eq!(log.bytes(Protocol::S1apSctp), 140);
        assert!(log.core_bytes() > 0);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn summary_lists_used_protocols_only() {
        let log = MsgLog::new();
        log.record(
            Instant::ZERO,
            &ControlMsg::UeContextReleaseRequest { imsi: Imsi(1) },
        );
        let s = log.summary();
        assert!(s.contains("SCTP"));
        assert!(!s.contains("OpenFlow"));
        assert!(s.contains("core"));
    }

    #[test]
    fn clones_share_state_and_clear_works() {
        let a = MsgLog::new();
        let b = a.clone();
        b.record(
            Instant::ZERO,
            &ControlMsg::ModifyBearerResponse { imsi: Imsi(2) },
        );
        assert_eq!(a.len(), 1);
        a.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn by_name_is_one_row_per_message_in_first_sent_order() {
        let log = MsgLog::new();
        let release = ControlMsg::UeContextReleaseRequest { imsi: Imsi(1) };
        let attach = ControlMsg::RrcAttachRequest { imsi: Imsi(1) };
        log.record(Instant::from_millis(5), &release);
        log.record(Instant::from_millis(2), &attach);
        log.record(Instant::from_millis(9), &release);
        let rows = log.by_name();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, KINDS[attach.kind()].1);
        assert_eq!(
            rows[1],
            MsgTotals {
                name: KINDS[release.kind()].1,
                protocol: Protocol::S1apSctp,
                count: 2,
                bytes: 280,
                first: Instant::from_millis(5),
                last: Instant::from_millis(9),
            }
        );
    }

    /// The totals after 100 k records on two threads are those of the
    /// same records counted by hand, and the log is still a few rows.
    #[test]
    fn totals_hold_after_100k_records_from_two_threads() {
        const PER_THREAD: u64 = 50_000;
        let mix = [
            ControlMsg::UeContextReleaseRequest { imsi: Imsi(1) },
            ControlMsg::ReleaseAccessBearersRequest { imsi: Imsi(1) },
            ControlMsg::X2UeContextRelease { imsi: Imsi(1) },
            ControlMsg::RrcAttachRequest { imsi: Imsi(1) },
        ];
        let log = MsgLog::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let log = log.clone();
                let mix = &mix;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        log.record(Instant::from_nanos(i), &mix[i as usize % mix.len()]);
                    }
                });
            }
        });
        let each = 2 * PER_THREAD / mix.len() as u64;
        assert_eq!(log.len() as u64, 2 * PER_THREAD);
        for m in &mix {
            assert_eq!(log.count(m.protocol()), each);
            assert_eq!(log.bytes(m.protocol()), each * m.wire_size_spec() as u64);
        }
        let core: u64 = mix[..3].iter().map(|m| m.wire_size_spec() as u64).sum();
        assert_eq!(log.core_count(), 3 * each);
        assert_eq!(log.core_bytes(), each * core);
        let rows = log.by_name();
        assert_eq!(rows.len(), mix.len());
        assert!(rows.iter().all(|r| r.count == each));
        assert_eq!(rows[0].first, Instant::ZERO);
        assert_eq!(rows[3].last, Instant::from_nanos(PER_THREAD - 1));
        let summary = log.summary();
        assert_eq!(summary.lines().count(), 5, "{summary}");
        assert!(summary.contains(&format!("{each} msgs")));
        log.clear();
        assert_eq!(
            (log.len(), log.core_bytes(), log.by_name().len()),
            (0, 0, 0)
        );
        assert_eq!(log.summary().lines().count(), 1);
    }
}
