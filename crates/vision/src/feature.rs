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

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// A 64-dimensional unit-norm descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor(pub Vec<f32>);

impl Descriptor {
    /// Squared L2 distance to another descriptor.
    pub(crate) fn dist2(&self, other: &Descriptor) -> f32 {
        debug_assert_eq!(self.0.len(), other.0.len());
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

/// A set of features extracted from one image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureSet {
    /// The features.
    pub features: Vec<Feature>,
}

impl FeatureSet {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
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
/// distinct textured objects.
pub fn object_features(object_id: u64, n: usize) -> FeatureSet {
    let mut rng = ChaCha8Rng::seed_from_u64(object_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let features = (0..n)
        .map(|_| {
            let keypoint = Keypoint {
                x: rng.gen_range(0.0..512.0),
                y: rng.gen_range(0.0..512.0),
                scale: rng.gen_range(1.0..8.0),
            };
            let mut d = Descriptor((0..DESC_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect());
            d.normalize();
            Feature {
                keypoint,
                descriptor: d,
            }
        })
        .collect();
    FeatureSet { features }
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
/// `view_seed` individualizes frames.
pub fn render_view(
    base: &FeatureSet,
    transform: Similarity,
    params: ViewParams,
    view_seed: u64,
) -> FeatureSet {
    let mut rng = ChaCha8Rng::seed_from_u64(view_seed ^ 0x5bd1_e995);
    let mut features = Vec::with_capacity(base.len());
    for f in &base.features {
        if rng.gen::<f32>() < params.dropout {
            continue;
        }
        let (x, y) = transform.apply(f.keypoint.x, f.keypoint.y);
        let keypoint = Keypoint {
            x: x + gauss(&mut rng) * params.position_noise,
            y: y + gauss(&mut rng) * params.position_noise,
            scale: f.keypoint.scale * transform.scale,
        };
        let mut d = Descriptor(
            f.descriptor
                .0
                .iter()
                .map(|&v| v + gauss(&mut rng) * params.descriptor_noise)
                .collect(),
        );
        d.normalize();
        features.push(Feature {
            keypoint,
            descriptor: d,
        });
    }
    for _ in 0..params.clutter {
        let mut d = Descriptor((0..DESC_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
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
    FeatureSet { features }
}

/// Box-Muller standard normal.
fn gauss(rng: &mut ChaCha8Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

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
