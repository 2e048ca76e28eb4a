//! Application-level messages exchanged between the CI app on the UE, the
//! MRS and the CI (AR) server.
//!
//! A message travels typed, and its wire form is hand-written JSON
//! ([`acacia_lte::json`]) that is counted, never written, in a run. The
//! text is pinned by the tests below: an application packet is exactly as
//! large as its text (plus any virtual `extra_len`), so every byte shows
//! up in the simulated timings and the recorded goldens.

use acacia_lte::json::{self, Json, Reader, Writer};
use acacia_simnet::packet::{proto, Message, Packet, Payload};
use acacia_simnet::time::Instant;
use acacia_vision::compress::Codec;
use acacia_vision::image::{ImageSpec, Resolution};
use std::net::Ipv4Addr;

/// UDP port of the AR server (frames, chunks, results, rxPower reports).
pub const AR_PORT: u16 = 9000;
/// UDP port of the MRS.
pub const MRS_PORT: u16 = 8000;
/// UDP port CI apps bind on the UE.
pub const APP_PORT: u16 = 9000;

/// Frame metadata carried on the first chunk of each frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMeta {
    /// Capture description (lets the synthetic server reconstruct the
    /// frame's features deterministically).
    pub spec: ImageSpec,
    /// Codec the frame was encoded with.
    pub codec: Codec,
    /// Seed individualizing this frame's view noise.
    pub view_seed: u64,
    /// Capture timestamp at the client (nanoseconds of sim time).
    pub captured_at_nanos: u64,
}

/// Application messages.
#[derive(Debug, Clone, PartialEq)]
pub enum AppMsg {
    /// One window chunk of an uploaded camera frame.
    FrameChunk {
        /// Frame sequence number.
        seq: u64,
        /// Chunk index within the frame.
        chunk: u32,
        /// Total chunks in this frame.
        total_chunks: u32,
        /// Frame metadata (present on chunk 0 only).
        meta: Option<FrameMeta>,
    },
    /// Server acknowledgement of a chunk (clocks the upload window).
    ChunkAck {
        /// Frame sequence number.
        seq: u64,
        /// Chunk being acknowledged.
        chunk: u32,
    },
    /// AR result for a completed frame.
    FrameResult {
        /// Frame sequence number.
        seq: u64,
        /// Matched object tag, if any.
        matched: Option<String>,
        /// Server-side SURF + decode time, seconds (virtual).
        compute_s: f64,
        /// Server-side matching time, seconds (virtual).
        match_s: f64,
        /// Candidate objects examined.
        candidates: usize,
    },
    /// LTE-direct rxPower report for the localization manager.
    RxReport {
        /// Landmark name.
        landmark: String,
        /// Received power, dBm.
        rx_power_dbm: f64,
    },
    /// Device manager → MRS: request MEC connectivity for a service.
    MrsRequest {
        /// Service name discovered over LTE-direct.
        service: String,
        /// Requesting UE's IP.
        ue_addr: Ipv4Addr,
        /// Create (true) or delete (false) connectivity.
        create: bool,
    },
    /// CI server → MRS: periodic liveness beat for the lease table. A
    /// server that stops beating is evicted from service resolution
    /// after the MRS misses N of its last M lease audits.
    Heartbeat {
        /// Service the server is registered under (diagnostic; liveness
        /// is tracked per server address).
        service: String,
        /// The beating server's address.
        server: Ipv4Addr,
    },
    /// MRS → device manager: connectivity outcome.
    MrsAck {
        /// Service the answer refers to.
        service: String,
        /// Was a bearer (de)activated?
        ok: bool,
        /// Address of the selected CI server.
        server: Option<Ipv4Addr>,
    },
}

impl AppMsg {
    /// Encode into a UDP packet. `extra_len` models payload bytes that are
    /// not literally stored (e.g. compressed image data in a frame chunk).
    pub fn into_packet(
        &self,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        extra_len: u32,
        at: Instant,
    ) -> Packet {
        Packet {
            payload: Payload::typed(0, self.clone()),
            ..Packet::udp(src, dst, extra_len).with_created(at)
        }
    }

    /// The message a UDP packet carries, if it carries one.
    pub fn from_packet(pkt: &Packet) -> Option<AppMsg> {
        if pkt.protocol != proto::UDP {
            return None;
        }
        pkt.payload.msg::<AppMsg>().cloned()
    }
}

/// Untagged: no fault rule selects an application message by tag.
impl Message for AppMsg {
    fn encoded_len(&self) -> u32 {
        json::encoded_len(self) as u32
    }
}

impl Json for FrameMeta {
    fn write(&self, w: &mut Writer) {
        let res = self.spec.resolution;
        w.begin()
            .key("spec")
            .begin()
            .field("scene_id", &self.spec.scene_id);
        w.key("resolution")
            .begin()
            .field("w", &res.w)
            .field("h", &res.h);
        w.end().end().key("codec");
        match self.codec {
            Codec::Jpeg(quality) => w.begin().field("Jpeg", &quality).end(),
            Codec::Png => w.str("Png"),
            Codec::RawGray => w.str("RawGray"),
        };
        w.field("view_seed", &self.view_seed)
            .field("captured_at_nanos", &self.captured_at_nanos)
            .end();
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.object(|r| {
            r.key_is("spec")?;
            let spec = r.object(|r| {
                let scene_id = r.field("scene_id")?;
                r.key_is("resolution")?;
                let res = r.object(|r| Some(Resolution::new(r.field("w")?, r.field("h")?)))?;
                Some(ImageSpec::new(scene_id, res))
            })?;
            r.key_is("codec")?;
            let codec = match r.peek()? {
                b'"' => match r.tag()? {
                    b"Png" => Codec::Png,
                    b"RawGray" => Codec::RawGray,
                    _ => return None,
                },
                _ => Codec::Jpeg(r.object(|r| r.field("Jpeg"))?),
            };
            Some(FrameMeta {
                spec,
                codec,
                view_seed: r.field("view_seed")?,
                captured_at_nanos: r.field("captured_at_nanos")?,
            })
        })
    }
}

acacia_lte::json_codec! {
    enum AppMsg {
        FrameChunk = "FrameChunk" { seq, chunk, total_chunks; meta },
        ChunkAck = "ChunkAck" { seq, chunk },
        FrameResult = "FrameResult" { seq, matched, compute_s, match_s, candidates },
        RxReport = "RxReport" { landmark, rx_power_dbm },
        MrsRequest = "MrsRequest" { service, ue_addr, create },
        Heartbeat = "Heartbeat" { service, server },
        MrsAck = "MrsAck" { service, ok, server },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acacia_vision::image::Resolution;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    /// One payload per variant and field shape, byte for byte, as recorded
    /// from the serde derive this codec replaced. The first eight are
    /// `roundtrip_all_variants`' messages.
    const PAYLOADS: [&str; 13] = [
        r#"{"FrameChunk":{"seq":3,"chunk":0,"total_chunks":4,"meta":{"spec":{"scene_id":9,"resolution":{"w":720,"h":480}},"codec":{"Jpeg":90},"view_seed":42,"captured_at_nanos":1000}}}"#,
        r#"{"FrameChunk":{"seq":3,"chunk":1,"total_chunks":4}}"#,
        r#"{"ChunkAck":{"seq":3,"chunk":1}}"#,
        r#"{"FrameResult":{"seq":3,"matched":"food#2","compute_s":0.05,"match_s":0.08,"candidates":20}}"#,
        r#"{"RxReport":{"landmark":"L4","rx_power_dbm":-71.5}}"#,
        r#"{"MrsRequest":{"service":"acme","ue_addr":"10.0.0.1","create":true}}"#,
        r#"{"Heartbeat":{"service":"acme","server":"10.0.0.3"}}"#,
        r#"{"MrsAck":{"service":"acme","ok":true,"server":"10.0.0.2"}}"#,
        r#"{"FrameChunk":{"seq":4,"chunk":0,"total_chunks":1,"meta":{"spec":{"scene_id":9,"resolution":{"w":720,"h":480}},"codec":"Png","view_seed":42,"captured_at_nanos":1000}}}"#,
        r#"{"FrameChunk":{"seq":5,"chunk":0,"total_chunks":1,"meta":{"spec":{"scene_id":9,"resolution":{"w":720,"h":480}},"codec":"RawGray","view_seed":42,"captured_at_nanos":1000}}}"#,
        r#"{"FrameResult":{"seq":4,"matched":null,"compute_s":1e-7,"match_s":1.0,"candidates":0}}"#,
        "{\"RxReport\":{\"landmark\":\"q\\\"b\\\\s/\\n\\t\\r\\b\\f\\u0001\\u001f\u{7f}é☃\",\"rx_power_dbm\":-71.5}}",
        r#"{"MrsAck":{"service":"acme","ok":false,"server":null}}"#,
    ];

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            AppMsg::FrameChunk {
                seq: 3,
                chunk: 0,
                total_chunks: 4,
                meta: Some(FrameMeta {
                    spec: ImageSpec::new(9, Resolution::E2E),
                    codec: Codec::Jpeg(90),
                    view_seed: 42,
                    captured_at_nanos: 1_000,
                }),
            },
            AppMsg::FrameChunk {
                seq: 3,
                chunk: 1,
                total_chunks: 4,
                meta: None,
            },
            AppMsg::ChunkAck { seq: 3, chunk: 1 },
            AppMsg::FrameResult {
                seq: 3,
                matched: Some("food#2".into()),
                compute_s: 0.05,
                match_s: 0.08,
                candidates: 20,
            },
            AppMsg::RxReport {
                landmark: "L4".into(),
                rx_power_dbm: -71.5,
            },
            AppMsg::MrsRequest {
                service: "acme".into(),
                ue_addr: ip(1),
                create: true,
            },
            AppMsg::Heartbeat {
                service: "acme".into(),
                server: ip(3),
            },
            AppMsg::MrsAck {
                service: "acme".into(),
                ok: true,
                server: Some(ip(2)),
            },
        ];
        for (m, text) in msgs.into_iter().zip(PAYLOADS) {
            assert_eq!(std::str::from_utf8(&json::encode(b"", &m)), Ok(text));
            let pkt = m.into_packet((ip(1), APP_PORT), (ip(2), AR_PORT), 0, Instant::ZERO);
            assert_eq!(pkt.payload.len(), text.len());
            assert_eq!(AppMsg::from_packet(&pkt), Some(m));
        }
    }

    #[test]
    fn payloads_are_pinned() {
        for text in PAYLOADS {
            let m: AppMsg = json::decode(text.as_bytes()).expect(text);
            assert_eq!(std::str::from_utf8(&json::encode(b"", &m)), Ok(text));
            assert_eq!(json::encoded_len(&m), text.len());
            let pkt = m.into_packet((ip(1), APP_PORT), (ip(2), AR_PORT), 0, Instant::ZERO);
            assert_eq!(pkt.payload.len(), text.len());
            assert_eq!(pkt.wire_size(), 28 + text.len() as u32);
        }
        // The values behind the less common spellings.
        let m = |i: usize| json::decode::<AppMsg>(PAYLOADS[i].as_bytes()).unwrap();
        assert!(matches!(m(10), AppMsg::FrameResult { compute_s, .. } if compute_s == 1e-7));
        let escaped = "q\"b\\s/\n\t\r\u{8}\u{c}\u{1}\u{1f}\u{7f}é☃";
        assert!(matches!(m(11), AppMsg::RxReport { landmark, .. } if landmark == escaped));
    }

    /// Fault rules select control messages by tag: none of them matches
    /// a user-plane packet, bare, framed for the radio or tunnelled.
    #[test]
    fn no_catalogue_tag_matches_a_user_plane_packet() {
        use acacia_lte::{gtpu, ids::Ebi, ids::Teid, radio, wire::TAGS};
        use acacia_simnet::fault::PacketClass;
        let mut pkts = Vec::new();
        for text in PAYLOADS {
            let m: AppMsg = json::decode(text.as_bytes()).expect(text);
            let app = m.into_packet((ip(1), APP_PORT), (ip(2), AR_PORT), 0, Instant::ZERO);
            pkts.push(radio::data_frame(Ebi(6), &app, ip(1), ip(9)));
            pkts.push(gtpu::encapsulate(&app, Teid(7), ip(10), ip(11)));
            pkts.push(app);
        }
        for tag in TAGS {
            let class = PacketClass::any().with_payload_tag(tag);
            assert!(pkts.iter().all(|p| !class.matches(p)), "{tag}");
        }
    }

    #[test]
    fn extra_len_inflates_wire_size() {
        let m = AppMsg::FrameChunk {
            seq: 0,
            chunk: 0,
            total_chunks: 1,
            meta: Some(FrameMeta {
                spec: ImageSpec::new(1, Resolution::E2E),
                codec: Codec::Jpeg(90),
                view_seed: 0,
                captured_at_nanos: 0,
            }),
        };
        let small = m.into_packet((ip(1), 1), (ip(2), 2), 0, Instant::ZERO);
        let big = m.into_packet((ip(1), 1), (ip(2), 2), 1_300, Instant::ZERO);
        assert_eq!(big.wire_size(), small.wire_size() + 1_300);
    }
}
