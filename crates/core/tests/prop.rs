//! Property-based tests for the ACACIA application layer.

use acacia::msg::{AppMsg, FrameMeta};
use acacia::search::{candidates, SearchContext, SearchStrategy};
use acacia_geo::floor::FloorPlan;
use acacia_geo::point::Point;
use acacia_lte::json;
use acacia_simnet::packet::Packet;
use acacia_simnet::time::Instant;
use acacia_vision::compress::Codec;
use acacia_vision::db::ObjectDb;
use acacia_vision::image::{ImageSpec, Resolution};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

fn arb_msg() -> impl Strategy<Value = AppMsg> {
    let codecs = vec![
        Codec::Jpeg(90),
        Codec::Jpeg(100),
        Codec::Png,
        Codec::RawGray,
    ];
    let meta = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        prop::sample::select(codecs),
    )
        .prop_map(|(scene, seed, t, codec)| FrameMeta {
            spec: ImageSpec::new(scene, Resolution::E2E),
            codec,
            view_seed: seed,
            captured_at_nanos: t,
        });
    prop_oneof![
        (any::<u64>(), 0u32..100, 1u32..100, prop::option::of(meta)).prop_map(
            |(seq, chunk, total, meta)| AppMsg::FrameChunk {
                seq,
                chunk,
                total_chunks: total.max(chunk + 1),
                meta,
            }
        ),
        (any::<u64>(), any::<u32>()).prop_map(|(seq, chunk)| AppMsg::ChunkAck { seq, chunk }),
        (
            any::<u64>(),
            // Quotes, backslashes, control bytes and non-ASCII exercise
            // every escape form.
            prop::option::of("[a-z#0-9\"\\\n\t\u{1}\u{7f}é-]{1,24}"),
            0.0f64..10.0,
            0.0f64..10.0,
            0usize..200
        )
            .prop_map(|(seq, matched, c, m, n)| AppMsg::FrameResult {
                seq,
                matched,
                compute_s: c,
                match_s: m,
                candidates: n,
            }),
        ("[A-Z][0-9]{1,2}", -120.0f64..-30.0).prop_map(|(landmark, rx)| AppMsg::RxReport {
            landmark,
            rx_power_dbm: rx,
        }),
        ("[a-z-]{1,16}", any::<u32>(), any::<bool>()).prop_map(|(service, ip, create)| {
            AppMsg::MrsRequest {
                service,
                ue_addr: Ipv4Addr::from(ip),
                create,
            }
        }),
        ("[a-z-]{1,16}", any::<u32>()).prop_map(|(service, ip)| AppMsg::Heartbeat {
            service,
            server: Ipv4Addr::from(ip),
        }),
        (
            "[a-z-]{1,16}",
            any::<bool>(),
            prop::option::of(any::<u32>())
        )
            .prop_map(|(service, ok, ip)| AppMsg::MrsAck {
                service,
                ok,
                server: ip.map(Ipv4Addr::from),
            }),
    ]
}

fn encode(msg: &AppMsg) -> Packet {
    let at = (Ipv4Addr::LOCALHOST, 9000);
    msg.into_packet(at, at, 0, Instant::ZERO)
}

/// `text` decodes only if its message encodes back to exactly `text`,
/// and then a packet of it is exactly as long as `text`.
fn rejected_or_reproduced(text: Vec<u8>) {
    if let Some(msg) = json::decode::<AppMsg>(&text) {
        assert_eq!(json::encode(b"", &msg), text);
        assert_eq!(encode(&msg).payload.len(), text.len());
    }
}

/// Shared fixtures (DB generation is expensive; build once).
fn fixtures() -> &'static (FloorPlan, ObjectDb) {
    static FIX: OnceLock<(FloorPlan, ObjectDb)> = OnceLock::new();
    FIX.get_or_init(|| {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::generate_retail(&floor, 2, 77);
        (floor, db)
    })
}

proptest! {
    /// App messages survive the packet round-trip.
    #[test]
    fn app_msg_roundtrip(msg in arb_msg(), extra in 0u32..5_000) {
        let pkt = msg.into_packet(
            (Ipv4Addr::new(10, 10, 0, 1), 9000),
            (Ipv4Addr::new(10, 4, 0, 1), 9000),
            extra,
            Instant::from_millis(5),
        );
        prop_assert_eq!(pkt.payload.len(), json::encode(b"", &msg).len());
        prop_assert_eq!(AppMsg::from_packet(&pkt), Some(msg));
    }

    /// The strict reader never panics: arbitrary bytes, and single-byte
    /// mutations of valid encodings, are rejected or re-encode to exactly
    /// themselves.
    #[test]
    fn reader_rejects_or_reproduces_any_input(
        msg in arb_msg(),
        at in any::<usize>(),
        byte in prop_oneof![any::<u8>(), prop::sample::select(b"0123456789-.,:\"\\{}[]enul".to_vec())],
        noise in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = json::encode(b"", &msg);
        let at = at % bytes.len();
        bytes[at] = byte;
        rejected_or_reproduced(bytes);
        rejected_or_reproduced(noise);
    }

    /// Search strategies: ACACIA candidates are always a subset of the DB
    /// grouped by the subsections near the location, and never empty when
    /// a location is known.
    #[test]
    fn acacia_candidates_subset(x in 0.2f64..27.8, y in 0.2f64..14.8, radius_x10 in 5u32..80) {
        let (floor, db) = fixtures();
        let strategy = SearchStrategy::Acacia { radius_m_x10: radius_x10 };
        let ctx = SearchContext {
            rx_readings: vec![],
            location: Some(Point::new(x, y)),
        };
        let picked = candidates(strategy, db, floor, &ctx);
        prop_assert!(!picked.is_empty());
        prop_assert!(picked.len() <= db.len());
        let allowed = floor.subsections_near(Point::new(x, y), strategy.radius_m());
        for o in &picked {
            prop_assert!(allowed.contains(&o.subsection));
        }
        // Monotone in the radius.
        let bigger = candidates(
            SearchStrategy::Acacia { radius_m_x10: radius_x10 + 20 },
            db, floor, &ctx,
        );
        prop_assert!(bigger.len() >= picked.len());
    }

    /// rxPower strategy picks only objects from the strongest landmarks'
    /// sections, regardless of reading order.
    #[test]
    fn rxpower_candidates_order_independent(perm in prop::sample::subsequence(vec![0usize,1,2,3,4,5,6], 2..=7)) {
        let (floor, db) = fixtures();
        let readings: Vec<(String, f64)> = perm
            .iter()
            .map(|&i| (format!("L{}", i + 1), -60.0 - i as f64 * 5.0))
            .collect();
        let mut reversed = readings.clone();
        reversed.reverse();
        let a = candidates(SearchStrategy::RxPower, db, floor, &SearchContext {
            rx_readings: readings,
            location: None,
        });
        let b = candidates(SearchStrategy::RxPower, db, floor, &SearchContext {
            rx_readings: reversed,
            location: None,
        });
        let ids =
            |v: &Vec<&acacia_vision::db::DbObject>| v.iter().map(|o| o.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&a), ids(&b));
    }
}
