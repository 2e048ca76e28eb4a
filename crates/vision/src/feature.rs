//! SURF-like keypoints and descriptors, generated synthetically but matched
//! for real.
//!
//! A physical object is a set of *base features*: keypoint positions on the
//! object plane plus 64-dimensional unit descriptors, both derived
//! deterministically from `(object_id, feature_index)`. A *view* (camera
//! frame) of the object applies a similarity transform to the keypoints and
//! perturbs the descriptors with view noise — so the downstream matcher
//! (ratio test, symmetry test, RANSAC) runs on data with the same geometry
//! the real pipeline sees.
//!
//! A descriptor is an inline `[f32; 64]`, so a [`Feature`] is 268 bytes
//! with no allocation of its own. A [`FeatureSet`] may hold only a prefix
//! of its features and count the rest: the matcher executes at most
//! [`MatcherConfig::exec_cap`](crate::matcher::MatcherConfig::exec_cap)
//! features of a side, and [`render_object_view`] draws a view only that
//! far while still counting all of it.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Borrow;

/// Descriptor dimensionality (SURF-64).
pub const DESC_DIM: usize = 64;

/// An interest-point location in image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// X, pixels.
    pub x: f32,
    /// Y, pixels.
    pub y: f32,
    /// Detected scale.
    pub scale: f32,
}

/// A 64-dimensional unit-norm descriptor, held inline.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor(pub [f32; DESC_DIM]);

impl Descriptor {
    /// Squared L2 distance to another descriptor.
    pub(crate) fn dist2(&self, other: &Descriptor) -> f32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for v in &mut self.0 {
                *v /= n;
            }
        }
    }
}

/// A keypoint + descriptor pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Where it is.
    pub keypoint: Keypoint,
    /// What it looks like.
    pub descriptor: Descriptor,
}

/// A set of features extracted from one image. It holds the whole set or
/// a prefix of it; [`FeatureSet::len`] counts the whole set either way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureSet {
    /// The held features: the set's first `features.len()`.
    pub features: Vec<Feature>,
    /// Features of the set past `features`: counted, not held.
    unheld: usize,
}

impl FeatureSet {
    /// Number of features in the set, held or not.
    pub fn len(&self) -> usize {
        self.features.len() + self.unheld
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A similarity transform (rotation, uniform scale, translation) applied to
/// keypoints when an object is viewed by a camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Similarity {
    /// Rotation, radians.
    pub angle: f32,
    /// Uniform scale factor.
    pub scale: f32,
    /// Translation x, pixels.
    pub tx: f32,
    /// Translation y, pixels.
    pub ty: f32,
}

impl Similarity {
    /// The identity transform.
    pub fn identity() -> Similarity {
        Similarity {
            angle: 0.0,
            scale: 1.0,
            tx: 0.0,
            ty: 0.0,
        }
    }

    /// A plausible hand-held camera pose derived from a seed: small
    /// rotation (±0.3 rad), mild zoom (0.8–1.25×), modest translation.
    pub fn from_seed(seed: u64) -> Similarity {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc2b2_ae3d);
        Similarity {
            angle: rng.gen_range(-0.3..0.3),
            scale: rng.gen_range(0.8..1.25),
            tx: rng.gen_range(-40.0..40.0),
            ty: rng.gen_range(-40.0..40.0),
        }
    }

    /// Apply to a point.
    pub fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        let (s, c) = self.angle.sin_cos();
        (
            self.scale * (c * x - s * y) + self.tx,
            self.scale * (s * x + c * y) + self.ty,
        )
    }
}

/// Generate the canonical base features of object `object_id`.
///
/// Positions are spread over a 512×512 object plane; descriptors are random
/// unit vectors — distinct objects are far apart in descriptor space with
/// overwhelming probability, matching the behaviour of real SURF on
/// distinct textured objects. Generation is prefix-stable: the first `k`
/// of `n` features do not depend on `n`.
pub fn object_features(object_id: u64, n: usize) -> FeatureSet {
    FeatureSet {
        features: BaseFeatures::new(object_id).take(n).collect(),
        unheld: 0,
    }
}

/// Object `object_id`'s base features in generation order, drawn one at a
/// time from the object's stream.
struct BaseFeatures(ChaCha8Rng);

impl BaseFeatures {
    fn new(object_id: u64) -> BaseFeatures {
        BaseFeatures(ChaCha8Rng::seed_from_u64(
            object_id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }
}

impl Iterator for BaseFeatures {
    type Item = Feature;

    fn next(&mut self) -> Option<Feature> {
        let rng = &mut self.0;
        let keypoint = Keypoint {
            x: rng.gen_range(0.0..512.0),
            y: rng.gen_range(0.0..512.0),
            scale: rng.gen_range(1.0..8.0),
        };
        let mut d = Descriptor([0.0; DESC_DIM]);
        for v in &mut d.0 {
            *v = rng.gen_range(-1.0..1.0);
        }
        d.normalize();
        Some(Feature {
            keypoint,
            descriptor: d,
        })
    }

    /// Endless, so `take(n)` reports exactly `n` and `object_features`
    /// allocates exactly `n` features.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Parameters of a synthetic camera view of an object.
#[derive(Debug, Clone, Copy)]
pub struct ViewParams {
    /// Per-component Gaussian descriptor noise (σ). Real SURF descriptors
    /// of the same point across views differ by a few percent; 0.05 keeps
    /// ratio-test separability similar to practice.
    pub descriptor_noise: f32,
    /// Keypoint position jitter σ, pixels.
    pub position_noise: f32,
    /// Fraction of base features that are *not* re-detected in this view.
    pub dropout: f32,
    /// Number of spurious background features added (clutter).
    pub clutter: usize,
}

impl Default for ViewParams {
    fn default() -> ViewParams {
        ViewParams {
            descriptor_noise: 0.05,
            position_noise: 1.5,
            dropout: 0.2,
            clutter: 0,
        }
    }
}

/// Render a view of `base` under `transform` with the given noise model.
/// `view_seed` individualizes frames. A `base` that holds only a prefix
/// of its features yields a view held as far as that prefix reaches; the
/// view's [`FeatureSet::len`] is exact either way.
pub fn render_view(
    base: &FeatureSet,
    transform: Similarity,
    params: ViewParams,
    view_seed: u64,
) -> FeatureSet {
    render(
        base.features.iter(),
        base.len(),
        transform,
        params,
        view_seed,
        usize::MAX,
    )
}

/// The view [`render_view`] makes of `object_features(object_id,
/// feature_count)`, holding only its first `keep` features; its
/// [`FeatureSet::len`] counts the whole view. Base features are generated
/// only up to the last kept one, so a view matched under an execution cap
/// costs its count's random draws, not a full render.
pub fn render_object_view(
    object_id: u64,
    feature_count: usize,
    transform: Similarity,
    params: ViewParams,
    view_seed: u64,
    keep: usize,
) -> FeatureSet {
    render(
        BaseFeatures::new(object_id),
        feature_count,
        transform,
        params,
        view_seed,
        keep,
    )
}

/// The one view renderer. `base` yields the held base features of a
/// `base_len`-feature set in order; the view holds its first `keep`
/// features (fewer if `base` runs out first) and counts the rest.
fn render<F: Borrow<Feature>>(
    mut base: impl Iterator<Item = F>,
    base_len: usize,
    transform: Similarity,
    params: ViewParams,
    view_seed: u64,
    mut keep: usize,
) -> FeatureSet {
    let mut rng = ChaCha8Rng::seed_from_u64(view_seed ^ 0x5bd1_e995);
    let mut features = Vec::with_capacity(keep.min(base_len + params.clutter));
    let mut unheld = 0;
    for _ in 0..base_len {
        // The base is read only while a survivor would be held, so a lazy
        // base is generated no further than the last held feature.
        let f = if features.len() < keep {
            base.next()
        } else {
            None
        };
        if rng.gen::<f32>() < params.dropout {
            continue;
        }
        let Some(f) = f else {
            // Past the held prefix: make the draws a rendered feature
            // makes, so every later draw and the count stay exact.
            keep = features.len();
            for _ in 0..2 + DESC_DIM {
                gauss_draws(&mut rng);
            }
            unheld += 1;
            continue;
        };
        let f = f.borrow();
        let (x, y) = transform.apply(f.keypoint.x, f.keypoint.y);
        let keypoint = Keypoint {
            x: x + gauss(&mut rng) * params.position_noise,
            y: y + gauss(&mut rng) * params.position_noise,
            scale: f.keypoint.scale * transform.scale,
        };
        let mut d = f.descriptor.clone();
        for v in &mut d.0 {
            *v += gauss(&mut rng) * params.descriptor_noise;
        }
        d.normalize();
        features.push(Feature {
            keypoint,
            descriptor: d,
        });
    }
    // Clutter comes last, so clutter that is not held needs no draws.
    let held_clutter = params.clutter.min(keep - features.len());
    for _ in 0..held_clutter {
        let mut d = Descriptor([0.0; DESC_DIM]);
        for v in &mut d.0 {
            *v = rng.gen_range(-1.0..1.0);
        }
        d.normalize();
        features.push(Feature {
            keypoint: Keypoint {
                x: rng.gen_range(0.0..512.0),
                y: rng.gen_range(0.0..512.0),
                scale: rng.gen_range(1.0..8.0),
            },
            descriptor: d,
        });
    }
    unheld += params.clutter - held_clutter;
    FeatureSet { features, unheld }
}

/// The two uniform draws behind one [`gauss`] value.
fn gauss_draws(rng: &mut ChaCha8Rng) -> (f32, f32) {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Box-Muller standard normal.
fn gauss(rng: &mut ChaCha8Rng) -> f32 {
    let (u1, u2) = gauss_draws(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_feature_is_268_bytes_with_its_descriptor_inline() {
        assert_eq!(std::mem::size_of::<Feature>(), 268);
    }

    #[test]
    fn object_features_are_deterministic_and_unit_norm() {
        let a = object_features(7, 50);
        let b = object_features(7, 50);
        assert_eq!(a, b);
        for f in &a.features {
            assert!((f.descriptor.norm() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn different_objects_have_distant_descriptors() {
        let a = object_features(1, 30);
        let b = object_features(2, 30);
        // Random unit vectors in 64-d: expected squared distance = 2.
        let mut min = f32::INFINITY;
        for fa in &a.features {
            for fb in &b.features {
                min = min.min(fa.descriptor.dist2(&fb.descriptor));
            }
        }
        assert!(min > 0.5, "closest cross-object distance² {min}");
    }

    #[test]
    fn same_object_views_have_close_descriptors() {
        let base = object_features(3, 40);
        let view = render_view(&base, Similarity::identity(), ViewParams::default(), 99);
        // Every surviving view feature must have a very close base feature.
        for vf in &view.features {
            let best = base
                .features
                .iter()
                .map(|bf| bf.descriptor.dist2(&vf.descriptor))
                .fold(f32::INFINITY, f32::min);
            // σ=0.05 per component over 64 dims gives E[dist²] ≈ 0.16 before
            // renormalization; 0.4 bounds the tail while staying far below
            // the ~2.0 expected between unrelated descriptors.
            assert!(best < 0.4, "best distance² {best}");
        }
    }

    #[test]
    fn dropout_reduces_feature_count() {
        let base = object_features(3, 200);
        let p = ViewParams {
            dropout: 0.5,
            ..ViewParams::default()
        };
        let view = render_view(&base, Similarity::identity(), p, 1);
        assert!(view.len() < 150 && view.len() > 50, "len {}", view.len());
    }

    #[test]
    fn clutter_adds_features() {
        let base = object_features(3, 50);
        let p = ViewParams {
            dropout: 0.0,
            clutter: 25,
            ..ViewParams::default()
        };
        let view = render_view(&base, Similarity::identity(), p, 1);
        assert_eq!(view.len(), 75);
    }

    #[test]
    fn a_view_of_a_held_prefix_is_held_as_far_as_the_prefix_reaches() {
        let p = ViewParams {
            clutter: 10,
            ..ViewParams::default()
        };
        let pose = Similarity::from_seed(4);
        let whole = render_object_view(9, 300, pose, p, 4, usize::MAX);
        let prefix = render_object_view(9, 300, pose, p, 4, 40);
        assert_eq!(
            (whole.len(), prefix.len(), prefix.features.len()),
            (whole.features.len(), whole.len(), 40)
        );
        let of_whole = render_view(&whole, Similarity::identity(), p, 5);
        let of_prefix = render_view(&prefix, Similarity::identity(), p, 5);
        assert_eq!(of_prefix.len(), of_whole.len());
        let held = of_prefix.features.len();
        assert!(held > 0 && held < 40, "held {held}");
        assert_eq!(of_prefix.features[..], of_whole.features[..held]);
    }

    #[test]
    fn similarity_transform_applies_geometry() {
        let t = Similarity {
            angle: std::f32::consts::FRAC_PI_2,
            scale: 2.0,
            tx: 10.0,
            ty: -5.0,
        };
        let (x, y) = t.apply(1.0, 0.0);
        assert!((x - 10.0).abs() < 1e-5, "x {x}");
        assert!((y - (-3.0)).abs() < 1e-5, "y {y}");
    }
}
