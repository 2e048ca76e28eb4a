//! Synthetic images: resolutions, expected feature counts and the camera
//! model.
//!
//! The paper's Fig. 3(a) annotates each resolution with the *average number
//! of SURF features* OpenCV finds in their retail scenes:
//!
//! | resolution | avg features |
//! |-----------|--------------|
//! | 320×240   | 392.5        |
//! | 480×360   | 703.9        |
//! | 720×540   | 1224.5       |
//! | 960×720   | 1704.9       |
//! | 1440×1080 | 2641.2       |
//!
//! Feature counts at arbitrary resolutions come from log-log interpolation
//! through these five anchor points (power-law extrapolation outside), plus
//! a deterministic per-scene ±10% content factor.

/// An image resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width, pixels.
    pub w: u32,
    /// Height, pixels.
    pub h: u32,
}

impl Resolution {
    /// Construct a resolution.
    pub const fn new(w: u32, h: u32) -> Resolution {
        Resolution { w, h }
    }

    /// Total pixel count.
    pub const fn pixels(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// The five resolutions of the paper's Fig. 3(a,b,h) sweeps.
    pub const SWEEP: [Resolution; 5] = [
        Resolution::new(320, 240),
        Resolution::new(480, 360),
        Resolution::new(720, 540),
        Resolution::new(960, 720),
        Resolution::new(1440, 1080),
    ];

    /// The camera-preview resolutions of Fig. 3(e).
    pub const CAMERA: [Resolution; 7] = [
        Resolution::new(320, 240),
        Resolution::new(640, 480),
        Resolution::new(720, 480),
        Resolution::new(1280, 720),
        Resolution::new(1280, 960),
        Resolution::new(1440, 1080),
        Resolution::new(1920, 1080),
    ];

    /// The resolution the end-to-end evaluation uses (§7.4).
    pub const E2E: Resolution = Resolution::new(720, 480);
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.w, self.h)
    }
}

/// The paper's (pixel count, average feature count) anchors, ascending.
const FEAT_ANCHORS: [(f64, f64); 5] = [
    (76_800.0, 392.5),
    (172_800.0, 703.9),
    (388_800.0, 1_224.5),
    (691_200.0, 1_704.9),
    (1_555_200.0, 2_641.2),
];

/// Expected SURF feature count for a resolution (scene-average): log-log
/// interpolation through the paper's anchors, extrapolated with the
/// boundary segments' power-law slopes.
pub fn expected_features(res: Resolution) -> f64 {
    let lx = (res.pixels() as f64).max(1.0).ln();
    let seg = |i: usize, j: usize| -> f64 {
        let (x0, y0) = FEAT_ANCHORS[i];
        let (x1, y1) = FEAT_ANCHORS[j];
        let slope = (y1.ln() - y0.ln()) / (x1.ln() - x0.ln());
        (y0.ln() + slope * (lx - x0.ln())).exp()
    };
    if lx <= FEAT_ANCHORS[0].0.ln() {
        return seg(0, 1);
    }
    for i in 0..FEAT_ANCHORS.len() - 1 {
        if lx <= FEAT_ANCHORS[i + 1].0.ln() {
            return seg(i, i + 1);
        }
    }
    seg(FEAT_ANCHORS.len() - 2, FEAT_ANCHORS.len() - 1)
}

/// A synthetic scene: a scene identity plus the resolution it is captured
/// at. Identical `scene_id`s depict the same physical object/scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageSpec {
    /// Scene/object identity.
    pub scene_id: u64,
    /// Capture resolution.
    pub resolution: Resolution,
}

impl ImageSpec {
    /// Construct an image spec.
    pub fn new(scene_id: u64, resolution: Resolution) -> ImageSpec {
        ImageSpec {
            scene_id,
            resolution,
        }
    }

    /// Deterministic content factor in `[0.9, 1.1]`: some scenes are more
    /// textured than others.
    pub(crate) fn content_factor(&self) -> f64 {
        let h = splitmix(self.scene_id ^ 0xa5a5_5a5a);
        0.9 + 0.2 * (h as f64 / u64::MAX as f64)
    }

    /// Number of features this particular scene yields at this resolution.
    pub fn feature_count(&self) -> usize {
        (expected_features(self.resolution) * self.content_factor()).round() as usize
    }

    /// Raw grayscale size in bytes (1 byte per pixel).
    pub fn raw_gray_bytes(&self) -> u64 {
        self.resolution.pixels()
    }
}

/// The One+ One camera preview model of Fig. 3(e): maximum frames per
/// second the camera delivers at each preview resolution.
pub fn camera_preview_fps(res: Resolution) -> f64 {
    // Measured staircase from the paper's bar chart: full 30 fps up to
    // 720x480, then ISP-throughput limited.
    let megapixels = res.pixels() as f64 / 1e6;
    if megapixels <= 0.35 {
        30.0
    } else {
        // ~10 fps at 2.07 MP (1920x1080), ~15 at 0.92 MP (1280x720).
        (30.0 / (megapixels / 0.35).powf(0.62)).min(30.0)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feature counts quoted under the paper's Fig. 3(a) x-axis.
    const PAPER_FEATURES: [(Resolution, f64); 5] = [
        (Resolution::new(320, 240), 392.5),
        (Resolution::new(480, 360), 703.9),
        (Resolution::new(720, 540), 1224.5),
        (Resolution::new(960, 720), 1704.9),
        (Resolution::new(1440, 1080), 2641.2),
    ];

    #[test]
    fn anchors_reproduce_paper_feature_counts_exactly() {
        for (res, expected) in PAPER_FEATURES {
            let got = expected_features(res);
            let err = (got - expected).abs() / expected;
            assert!(err < 1e-9, "{res}: expected {expected}, got {got:.1}");
        }
    }

    #[test]
    fn interpolation_is_monotone_between_anchors() {
        let mut last = 0.0;
        for px in (50_000..2_000_000).step_by(25_000) {
            // Fabricate a resolution with the given pixel count.
            let res = Resolution::new(px, 1);
            let f = expected_features(res);
            assert!(f > last, "at {px}px: {f} <= {last}");
            last = f;
        }
    }

    #[test]
    fn feature_count_scales_with_resolution() {
        let low = ImageSpec::new(1, Resolution::new(320, 240)).feature_count();
        let high = ImageSpec::new(1, Resolution::new(1440, 1080)).feature_count();
        assert!(high > 5 * low);
    }

    #[test]
    fn content_factor_is_bounded_and_deterministic() {
        for id in 0..100 {
            let s = ImageSpec::new(id, Resolution::new(320, 240));
            let f = s.content_factor();
            assert!((0.9..=1.1).contains(&f));
            assert_eq!(f, s.content_factor());
        }
        // Different scenes differ.
        let a = ImageSpec::new(1, Resolution::new(320, 240)).content_factor();
        let b = ImageSpec::new(2, Resolution::new(320, 240)).content_factor();
        assert_ne!(a, b);
    }

    #[test]
    fn camera_fps_matches_fig3e_envelope() {
        // 30 fps at low resolutions...
        assert_eq!(camera_preview_fps(Resolution::new(320, 240)), 30.0);
        assert_eq!(camera_preview_fps(Resolution::new(640, 480)), 30.0);
        // ...and ~10 fps at full HD (paper: "At HD resolution (1920*1080),
        // the device generates 10 FPS").
        let hd = camera_preview_fps(Resolution::new(1920, 1080));
        assert!((9.0..=11.0).contains(&hd), "HD fps {hd}");
        // Monotone non-increasing across the camera sweep.
        let mut last = f64::INFINITY;
        for res in Resolution::CAMERA {
            let fps = camera_preview_fps(res);
            assert!(fps <= last + 1e-9, "{res} fps {fps} > previous {last}");
            last = fps;
        }
    }

    #[test]
    fn raw_gray_bytes_is_one_per_pixel() {
        let s = ImageSpec::new(0, Resolution::new(1920, 1080));
        assert_eq!(s.raw_gray_bytes(), 2_073_600);
    }
}
