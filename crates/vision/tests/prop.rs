//! Property-based tests for the vision substrate.

use acacia_vision::compress::Codec;
use acacia_vision::compute::Device;
use acacia_vision::db::STORED_FEATURES;
use acacia_vision::feature::{
    object_features, render_object_view, render_view, Similarity, ViewParams,
};
use acacia_vision::image::{camera_preview_fps, expected_features, ImageSpec, Resolution};
use acacia_vision::matcher::{match_pair, MatchOps, MatcherConfig};
use proptest::prelude::*;

proptest! {
    /// Feature generation is prefix-stable: the first n1 features of a
    /// larger set equal the smaller set. Capped matching relies on it, and
    /// so does the object database, which stores the first
    /// `STORED_FEATURES` of an object's 600–800 capture features.
    #[test]
    fn object_features_prefix_stable(
        id in any::<u64>(),
        sizes in prop_oneof![
            (2usize..80, 1usize..80).prop_map(|(n1, extra)| (n1, n1 + extra)),
            (600usize..800).prop_map(|n| (STORED_FEATURES, n)),
        ],
    ) {
        let (n1, n) = sizes;
        let small = object_features(id, n1);
        let large = object_features(id, n);
        prop_assert_eq!(&small.features[..], &large.features[..n1]);
    }

    /// A view rendered only to `keep` features holds exactly the first
    /// `keep` of the full view and counts all of it, whatever survives
    /// dropout and however much clutter follows: the draws it skips
    /// rendering are still made.
    #[test]
    fn prefix_view_is_the_full_views_prefix(
        id in any::<u64>(),
        n in prop_oneof![0usize..=150, 150usize..=1_500],
        view_seed in any::<u64>(),
        dropout in prop::sample::select(vec![0.0f32, ViewParams::default().dropout, 1.0]),
        clutter in prop_oneof![0usize..=0, 1usize..40],
        // None, some, at least the whole view (≤ 1 539), and uncapped.
        keep in prop_oneof![
            0usize..=0,
            1usize..120,
            1_540usize..2_000,
            prop::sample::select(vec![
                MatcherConfig { exec_cap: 0, ..MatcherConfig::default() }.executed_prefix(),
            ]),
        ],
    ) {
        let params = ViewParams { dropout, clutter, ..ViewParams::default() };
        let pose = Similarity::from_seed(view_seed);
        let full = render_view(&object_features(id, n), pose, params, view_seed);
        let prefix = render_object_view(id, n, pose, params, view_seed, keep);
        prop_assert_eq!(prefix.len(), full.len());
        let held = keep.min(full.len());
        prop_assert_eq!(&prefix.features[..], &full.features[..held]);
    }

    /// Descriptors are unit-norm.
    #[test]
    fn descriptors_unit_norm(id in any::<u64>(), n in 1usize..50) {
        for f in &object_features(id, n).features {
            prop_assert!((f.descriptor.norm() - 1.0).abs() < 1e-4);
        }
    }

    /// Similarity transforms compose sensibly: applying then measuring
    /// distances scales them by the scale factor.
    #[test]
    fn similarity_scales_distances(seed in any::<u64>(), x1 in -100f32..100.0, y1 in -100f32..100.0, x2 in -100f32..100.0, y2 in -100f32..100.0) {
        let t = Similarity::from_seed(seed);
        let (ax, ay) = t.apply(x1, y1);
        let (bx, by) = t.apply(x2, y2);
        let before = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
        let after = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        prop_assert!((after - t.scale * before).abs() < 1e-2 * before.max(1.0));
    }

    /// The matcher never reports more inliers than tentative matches, and
    /// op accounting always reflects full set sizes.
    #[test]
    fn matcher_invariants(id in any::<u64>(), n in 10usize..120, seed in any::<u64>()) {
        let base = object_features(id, n);
        let view = render_view(&base, Similarity::from_seed(seed), ViewParams::default(), seed);
        let cfg = MatcherConfig { exec_cap: 24, ..MatcherConfig::default() };
        let out = match_pair(&view, &base, &cfg);
        prop_assert!(out.inliers <= out.tentative.max(out.inliers));
        let nq = view.len() as u64;
        let nt = base.len() as u64;
        prop_assert!(out.ops.distance_computations == nq * nt
            || out.ops.distance_computations == 2 * nq * nt);
        if out.passed {
            prop_assert!(out.transform.is_some());
        } else {
            prop_assert!(out.transform.is_none());
        }
    }

    /// Feature-count model: monotone in pixel count, and the content
    /// factor stays within ±10%.
    #[test]
    fn feature_model_bounds(scene in any::<u64>(), w in 160u32..2000, h in 120u32..1200) {
        let res = Resolution::new(w, h);
        let spec = ImageSpec::new(scene, res);
        let expected = expected_features(res);
        let got = spec.feature_count() as f64;
        prop_assert!(got >= expected * 0.88 && got <= expected * 1.12);
    }

    /// Camera FPS is within (0, 30] and non-increasing in resolution.
    #[test]
    fn camera_fps_bounds(w in 160u32..4000, h in 120u32..2200) {
        let fps = camera_preview_fps(Resolution::new(w, h));
        prop_assert!(fps > 0.0 && fps <= 30.0);
        let bigger = camera_preview_fps(Resolution::new(w + 200, h + 200));
        prop_assert!(bigger <= fps + 1e-9);
    }

    /// Compression: compressed size never exceeds raw grayscale; upload
    /// FPS scales linearly with capacity.
    #[test]
    fn compression_bounds(scene in any::<u64>(), q in 1u8..=100, cap in 1_000_000u64..100_000_000) {
        let spec = ImageSpec::new(scene, Resolution::new(1280, 720));
        let bytes = Codec::Jpeg(q).bytes(spec);
        prop_assert!(bytes <= spec.raw_gray_bytes());
        prop_assert!(bytes > 0);
        let f1 = Codec::Jpeg(q).upload_fps(spec, cap);
        let f2 = Codec::Jpeg(q).upload_fps(spec, cap * 2);
        prop_assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }

    /// Virtual time is linear in operation counts for every device.
    #[test]
    fn match_time_linear(d in 0u64..1_000_000_000, r in 0u64..10_000) {
        for dev in [Device::OnePlusOne, Device::I7Octa, Device::Xeon32] {
            let p = dev.profile();
            let one = p.match_time_s(&MatchOps { distance_computations: d, ransac_iterations: r, ..Default::default() });
            let two = p.match_time_s(&MatchOps { distance_computations: 2 * d, ransac_iterations: 2 * r, ..Default::default() });
            prop_assert!((two - 2.0 * one).abs() < 1e-9 * two.max(1.0));
        }
    }
}
