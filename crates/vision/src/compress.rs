//! Frame compression models (paper §4 Fig. 3(f), §7.3).
//!
//! The AR front-end grayscales frames and JPEG-compresses them before
//! upload. Compression ratios are relative to the raw grayscale frame
//! (1 byte/pixel) with a deterministic per-scene content factor, matching
//! the spread the paper reports (§7.3 measures 5×, 5.8× and 4.7× for
//! JPEG 90 at three resolutions — same codec, different content).

use crate::compute::DeviceProfile;
use crate::image::ImageSpec;

/// A frame codec choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// JPEG at the given quality (higher = less compression).
    Jpeg(u8),
    /// Lossless PNG.
    Png,
    /// Uncompressed grayscale.
    RawGray,
}

impl Codec {
    /// The codec sweep of Fig. 3(f).
    pub const FIG3F: [Codec; 6] = [
        Codec::Jpeg(50),
        Codec::Jpeg(80),
        Codec::Jpeg(90),
        Codec::Jpeg(100),
        Codec::Png,
        Codec::RawGray,
    ];

    /// Display label matching the paper's legend.
    pub fn label(&self) -> String {
        match self {
            Codec::Jpeg(q) => format!("JPEG {q}"),
            Codec::Png => "PNG".to_string(),
            Codec::RawGray => "Raw (Gray)".to_string(),
        }
    }

    /// Mean compression ratio vs raw grayscale for this codec (content
    /// factor not applied).
    pub(crate) fn base_ratio(&self) -> f64 {
        match self {
            // Piecewise-linear in quality between measured anchors.
            Codec::Jpeg(q) => {
                let q = (*q).clamp(1, 100) as f64;
                let anchors = [
                    (1.0, 40.0),
                    (50.0, 13.0),
                    (80.0, 8.0),
                    (90.0, 5.5),
                    (100.0, 2.3),
                ];
                interpolate(&anchors, q)
            }
            Codec::Png => 1.6,
            Codec::RawGray => 1.0,
        }
    }

    /// Compressed size of `spec` in bytes, including the per-scene content
    /// factor (±15% around the codec's base ratio).
    pub fn bytes(&self, spec: ImageSpec) -> u64 {
        let ratio = match self {
            Codec::RawGray => 1.0,
            _ => self.base_ratio() * (2.0 - spec.content_factor().clamp(0.85, 1.15)),
        };
        (spec.raw_gray_bytes() as f64 / ratio).round().max(1.0) as u64
    }

    /// Encode-time on `profile` in seconds (PNG costs ~2.5× JPEG; raw is
    /// free).
    pub fn encode_time_s(&self, spec: ImageSpec, profile: &DeviceProfile) -> f64 {
        match self {
            Codec::RawGray => 0.0,
            Codec::Jpeg(_) => profile.encode_time_s(spec.resolution.pixels()),
            Codec::Png => 2.5 * profile.encode_time_s(spec.resolution.pixels()),
        }
    }

    /// Sustainable upload frame rate over a link of `uplink_bps`, capped by
    /// nothing but the network (Fig. 3(f)).
    pub fn upload_fps(&self, spec: ImageSpec, uplink_bps: u64) -> f64 {
        let bits_per_frame = self.bytes(spec) as f64 * 8.0;
        uplink_bps as f64 / bits_per_frame
    }
}

fn interpolate(anchors: &[(f64, f64)], x: f64) -> f64 {
    if x <= anchors[0].0 {
        return anchors[0].1;
    }
    for w in anchors.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x <= x1 {
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    anchors.last().expect("nonempty anchors").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Device;
    use crate::image::Resolution;

    #[test]
    fn ratio_ordering_matches_codecs() {
        // More aggressive JPEG compresses harder; raw not at all.
        assert!(Codec::Jpeg(50).base_ratio() > Codec::Jpeg(80).base_ratio());
        assert!(Codec::Jpeg(80).base_ratio() > Codec::Jpeg(90).base_ratio());
        assert!(Codec::Jpeg(90).base_ratio() > Codec::Jpeg(100).base_ratio());
        assert!(Codec::Jpeg(100).base_ratio() > Codec::Png.base_ratio());
        assert_eq!(Codec::RawGray.base_ratio(), 1.0);
    }

    #[test]
    fn jpeg90_ratio_spread_covers_paper_measurements() {
        // §7.3 reports 5×, 5.8× and 4.7× at JPEG 90 on three contents: the
        // content-factor spread must cover roughly 4.7..6.3.
        let mut ratios = Vec::new();
        for scene in 0..200 {
            for res in [
                Resolution::new(1280, 720),
                Resolution::new(960, 720),
                Resolution::new(720, 480),
            ] {
                let spec = ImageSpec::new(scene, res);
                let ratio = spec.raw_gray_bytes() as f64 / Codec::Jpeg(90).bytes(spec) as f64;
                ratios.push(ratio);
            }
        }
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 5.0, "min ratio {min}");
        assert!(max > 5.8, "max ratio {max}");
        assert!(min > 4.0 && max < 7.0, "range [{min}, {max}] too wide");
    }

    #[test]
    fn raw_gray_hd_cannot_sustain_one_fps_at_12mbps() {
        // The paper's headline: "In uncompressed mode (Grayscale image) the
        // smartphone cannot even send one frame per second".
        let spec = ImageSpec::new(1, Resolution::new(1920, 1080));
        assert!(Codec::RawGray.upload_fps(spec, 12_000_000) < 1.0);
    }

    #[test]
    fn jpeg90_gets_near_camera_fps_at_12mbps() {
        // "With JPEG 90 the device can send 8 frames per second" for an HD
        // scene (1280×720 upload resolution).
        let spec = ImageSpec::new(1, Resolution::new(1280, 720));
        let fps = Codec::Jpeg(90).upload_fps(spec, 12_000_000);
        assert!((6.0..11.0).contains(&fps), "fps {fps}");
    }

    #[test]
    fn encode_times_scale_with_pixels_and_codec() {
        let p = Device::OnePlusOne.profile();
        let small = ImageSpec::new(1, Resolution::new(720, 480));
        let large = ImageSpec::new(1, Resolution::new(1280, 720));
        assert!(
            Codec::Jpeg(90).encode_time_s(large, &p) > Codec::Jpeg(90).encode_time_s(small, &p)
        );
        assert!(Codec::Png.encode_time_s(small, &p) > Codec::Jpeg(90).encode_time_s(small, &p));
        assert_eq!(Codec::RawGray.encode_time_s(large, &p), 0.0);
    }

    #[test]
    fn interpolation_hits_anchors_and_clamps() {
        assert_eq!(Codec::Jpeg(50).base_ratio(), 13.0);
        assert_eq!(Codec::Jpeg(80).base_ratio(), 8.0);
        assert_eq!(Codec::Jpeg(90).base_ratio(), 5.5);
        assert_eq!(Codec::Jpeg(100).base_ratio(), 2.3);
        assert_eq!(Codec::Jpeg(0).base_ratio(), 40.0);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Codec::Jpeg(90).label(), "JPEG 90");
        assert_eq!(Codec::Png.label(), "PNG");
        assert_eq!(Codec::RawGray.label(), "Raw (Gray)");
    }
}
