//! The four-stage matching cascade of the paper's AR back-end (§6.3):
//!
//! 1. brute-force k-nearest (k=2) matching and **ratio test**,
//! 2. **symmetry test** (best match must agree in both directions),
//! 3. **RANSAC** geometric verification returning inliers,
//! 4. inlier-count acceptance threshold.
//!
//! Matching executes on real descriptors so the accuracy behaviour is
//! genuine, but only on the first [`MatcherConfig::exec_cap`] of each side,
//! borrowed as slices, so a side need hold no more; operation counts are
//! metered at the full feature-set sizes so device-time models stay
//! faithful to the paper's workloads (see `DESIGN.md`, substitution
//! ledger).

use crate::db::STORED_FEATURES;
use crate::feature::{Feature, FeatureSet, Similarity};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Operation counters for one or more matching operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchOps {
    /// Descriptor distance computations (64-d L2), both directions.
    pub distance_computations: u64,
    /// Ratio tests performed.
    pub ratio_tests: u64,
    /// Symmetry checks performed.
    pub symmetry_checks: u64,
    /// RANSAC iterations executed.
    pub ransac_iterations: u64,
}

impl MatchOps {
    /// Accumulate another counter set.
    pub(crate) fn merge(&mut self, other: MatchOps) {
        self.distance_computations += other.distance_computations;
        self.ratio_tests += other.ratio_tests;
        self.symmetry_checks += other.symmetry_checks;
        self.ransac_iterations += other.ransac_iterations;
    }
}

/// Lowe ratio threshold (applied to *squared* distances as `RATIO²`).
const RATIO: f32 = 0.75;
/// RANSAC iterations per pair.
const RANSAC_ITERS: u32 = 100;

/// Cascade configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// RANSAC inlier reprojection threshold, pixels.
    pub inlier_px: f32,
    /// Minimum RANSAC inliers to declare a match.
    pub min_inliers: usize,
    /// Cap on descriptors *executed* per side (0 = unlimited): matching
    /// runs on the first `exec_cap` features of each set, which keeps
    /// debug-mode runs fast; op accounting always uses full counts.
    ///
    /// Prefix (rather than strided) selection matters: synthetic feature
    /// sets of the same object at different resolutions share a common
    /// *prefix* of base features, so prefixes of the query and the stored
    /// object still overlap and true matches survive the cap.
    pub exec_cap: usize,
    /// Seed for RANSAC sampling.
    pub seed: u64,
}

impl Default for MatcherConfig {
    fn default() -> MatcherConfig {
        MatcherConfig {
            inlier_px: 6.0,
            min_inliers: 8,
            // The database stores exactly the prefix the default executes,
            // which is the largest any experiment or server executes.
            exec_cap: STORED_FEATURES,
            seed: 0x51_7e,
        }
    }
}

impl MatcherConfig {
    /// The most features of one side the cascade executes: `exec_cap`, or
    /// every feature when the cap is 0. A view rendered with
    /// [`render_object_view`](crate::feature::render_object_view) need
    /// hold no more.
    pub fn executed_prefix(&self) -> usize {
        if self.exec_cap == 0 {
            usize::MAX
        } else {
            self.exec_cap
        }
    }
}

/// Which cascade stage decided the outcome (paper §6.3: "In each step, it
/// compares the output with the threshold and then decides whether to
/// proceed to the next step or return a 'no-match' response").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeStage {
    /// Passed all four stages.
    Accepted,
    /// Rejected before matching: too few features on one side.
    TooFewFeatures,
    /// No correspondence survived the Lowe ratio test.
    RatioTest,
    /// Fewer than two correspondences survived the symmetry test.
    SymmetryTest,
    /// RANSAC found too few geometric inliers.
    Ransac,
}

/// Outcome of matching a query image against one candidate object.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// Did the cascade declare a match?
    pub passed: bool,
    /// The stage that decided it.
    pub stage: CascadeStage,
    /// RANSAC inlier count (0 if rejected earlier).
    pub inliers: usize,
    /// Correspondences surviving ratio + symmetry.
    pub tentative: usize,
    /// Estimated object-to-frame transform, when matched.
    pub transform: Option<Similarity>,
    /// Metered operations (at full feature-set scale).
    pub ops: MatchOps,
}

impl PairOutcome {
    fn rejected(stage: CascadeStage, ops: MatchOps) -> PairOutcome {
        PairOutcome {
            passed: false,
            stage,
            inliers: 0,
            tentative: 0,
            transform: None,
            ops,
        }
    }
}

/// Run the full cascade for `query` against `train`. Each set must hold
/// at least the prefix `cfg` executes of it; operations are metered at
/// their full counts ([`FeatureSet::len`]).
pub fn match_pair(query: &FeatureSet, train: &FeatureSet, cfg: &MatcherConfig) -> PairOutcome {
    match_prefix(query, &train.features, train.len(), cfg)
}

/// Number of features of a `len`-feature set that `cfg` executes.
pub(crate) fn exec_len(len: usize, cfg: &MatcherConfig) -> usize {
    len.min(cfg.executed_prefix())
}

/// Run the full cascade for `query` against a `train_len`-feature set of
/// which `train` holds at least the executed prefix
/// (`exec_len(train_len, cfg)` features); `query` must hold its own.
/// Operations are metered at `query.len()` and `train_len`.
pub(crate) fn match_prefix(
    query: &FeatureSet,
    train: &[Feature],
    train_len: usize,
    cfg: &MatcherConfig,
) -> PairOutcome {
    let full_q = query.len() as u64;
    let full_t = train_len as u64;
    let mut ops = MatchOps {
        // Forward brute-force 2-NN touches every (q, t) pair once.
        distance_computations: full_q * full_t,
        ratio_tests: full_q,
        ..MatchOps::default()
    };

    if query.len() < 2 || train_len < 2 {
        return PairOutcome::rejected(CascadeStage::TooFewFeatures, ops);
    }

    let q = &query.features[..exec_len(query.len(), cfg)];
    let t = &train[..exec_len(train_len, cfg)];

    // Stage 1: forward 2-NN + ratio test.
    let mut forward: Vec<(usize, usize)> = Vec::new(); // (q_idx, t_idx)
    for (qi, qf) in q.iter().enumerate() {
        let (mut best, mut best_i, mut second) = (f32::INFINITY, usize::MAX, f32::INFINITY);
        for (ti, tf) in t.iter().enumerate() {
            let d = qf.descriptor.dist2(&tf.descriptor);
            if d < best {
                second = best;
                best = d;
                best_i = ti;
            } else if d < second {
                second = d;
            }
        }
        if best < RATIO * RATIO * second {
            forward.push((qi, best_i));
        }
    }
    if forward.is_empty() {
        return PairOutcome::rejected(CascadeStage::RatioTest, ops);
    }

    // Stage 2: symmetry test — reverse 1-NN must agree.
    ops.distance_computations += full_t * full_q;
    ops.symmetry_checks += forward.len() as u64;
    let mut tentative: Vec<(usize, usize)> = Vec::new();
    for &(qi, ti) in &forward {
        let tf = &t[ti];
        let (mut best, mut best_q) = (f32::INFINITY, usize::MAX);
        for (qj, qf) in q.iter().enumerate() {
            let d = tf.descriptor.dist2(&qf.descriptor);
            if d < best {
                best = d;
                best_q = qj;
            }
        }
        if best_q == qi {
            tentative.push((qi, ti));
        }
    }
    if tentative.len() < 2 {
        return PairOutcome {
            tentative: tentative.len(),
            ..PairOutcome::rejected(CascadeStage::SymmetryTest, ops)
        };
    }

    // Stage 3: RANSAC over a similarity model (2-point minimal sample).
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut best_inliers: Vec<usize> = Vec::new();
    let mut best_model = None;
    for _ in 0..RANSAC_ITERS {
        ops.ransac_iterations += 1;
        let i = rng.gen_range(0..tentative.len());
        let mut j = rng.gen_range(0..tentative.len());
        if i == j {
            j = (j + 1) % tentative.len();
        }
        let model = match similarity_from_pairs(
            point_of(t, tentative[i].1),
            point_of(q, tentative[i].0),
            point_of(t, tentative[j].1),
            point_of(q, tentative[j].0),
        ) {
            Some(m) => m,
            None => continue,
        };
        let inliers: Vec<usize> = tentative
            .iter()
            .enumerate()
            .filter(|(_, &(qi, ti))| {
                let (px, py) = point_of(t, ti);
                let (mx, my) = model.apply(px, py);
                let (qx, qy) = point_of(q, qi);
                let dx = mx - qx;
                let dy = my - qy;
                (dx * dx + dy * dy).sqrt() <= cfg.inlier_px
            })
            .map(|(k, _)| k)
            .collect();
        if inliers.len() > best_inliers.len() {
            best_inliers = inliers;
            best_model = Some(model);
        }
    }

    // Stage 4: acceptance. The executed-side inlier requirement scales with
    // the execution cap so that accuracy thresholds stay comparable.
    let min_inliers = effective_min_inliers(cfg, query.len());
    let passed = best_inliers.len() >= min_inliers;
    PairOutcome {
        passed,
        stage: if passed {
            CascadeStage::Accepted
        } else {
            CascadeStage::Ransac
        },
        inliers: best_inliers.len(),
        tentative: tentative.len(),
        transform: if passed { best_model } else { None },
        ops,
    }
}

/// Minimum inliers, shrunk proportionally when execution is capped.
fn effective_min_inliers(cfg: &MatcherConfig, full_query: usize) -> usize {
    let executed = exec_len(full_query, cfg);
    if executed == full_query {
        return cfg.min_inliers;
    }
    let frac = executed as f64 / full_query as f64;
    ((cfg.min_inliers as f64 * frac).ceil() as usize).max(4)
}

fn point_of(set: &[Feature], idx: usize) -> (f32, f32) {
    let k = &set[idx].keypoint;
    (k.x, k.y)
}

/// Similarity transform mapping `p1→q1`, `p2→q2` (complex-number form).
/// Returns `None` for degenerate (coincident) source points.
fn similarity_from_pairs(
    p1: (f32, f32),
    q1: (f32, f32),
    p2: (f32, f32),
    q2: (f32, f32),
) -> Option<Similarity> {
    let dpx = p2.0 - p1.0;
    let dpy = p2.1 - p1.1;
    let denom = dpx * dpx + dpy * dpy;
    if denom < 1e-9 {
        return None;
    }
    let dqx = q2.0 - q1.0;
    let dqy = q2.1 - q1.1;
    // a = dq / dp in complex arithmetic.
    let ar = (dqx * dpx + dqy * dpy) / denom;
    let ai = (dqy * dpx - dqx * dpy) / denom;
    let scale = (ar * ar + ai * ai).sqrt();
    if scale < 1e-6 {
        return None;
    }
    let angle = ai.atan2(ar);
    // b = q1 - a * p1.
    let tx = q1.0 - (ar * p1.0 - ai * p1.1);
    let ty = q1.1 - (ai * p1.0 + ar * p1.1);
    Some(Similarity {
        angle,
        scale,
        tx,
        ty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{object_features, render_view, ViewParams};

    fn cfg() -> MatcherConfig {
        MatcherConfig::default()
    }

    #[test]
    fn same_object_view_matches() {
        let base = object_features(10, 120);
        let t = Similarity {
            angle: 0.3,
            scale: 1.2,
            tx: 40.0,
            ty: -12.0,
        };
        let view = render_view(&base, t, ViewParams::default(), 77);
        let out = match_pair(&view, &base, &cfg());
        assert!(out.passed, "outcome {out:?}");
        assert!(out.inliers >= 8);
        let m = out.transform.unwrap();
        assert!((m.scale - 1.2).abs() < 0.1, "scale {}", m.scale);
        assert!((m.angle - 0.3).abs() < 0.1, "angle {}", m.angle);
    }

    #[test]
    fn different_objects_do_not_match() {
        let a = object_features(11, 120);
        let b = object_features(12, 120);
        let view = render_view(&a, Similarity::identity(), ViewParams::default(), 5);
        let out = match_pair(&view, &b, &cfg());
        assert!(!out.passed, "false positive: {out:?}");
        // Unrelated descriptors die in the early (cheap) stages.
        assert!(
            matches!(
                out.stage,
                CascadeStage::RatioTest | CascadeStage::SymmetryTest
            ),
            "rejected at {:?}",
            out.stage
        );
    }

    #[test]
    fn cascade_stage_is_reported() {
        // Accepted path.
        let base = object_features(30, 120);
        let view = render_view(&base, Similarity::identity(), ViewParams::default(), 1);
        let out = match_pair(&view, &base, &cfg());
        assert_eq!(out.stage, CascadeStage::Accepted);
        // Too-few-features path.
        let tiny = object_features(31, 1);
        assert_eq!(
            match_pair(&tiny, &base, &cfg()).stage,
            CascadeStage::TooFewFeatures
        );
        // RANSAC path: correspondences exist in descriptor space but the
        // geometry is scrambled — build a view whose keypoints are shuffled
        // against a high inlier requirement.
        let mut scrambled = render_view(&base, Similarity::identity(), ViewParams::default(), 2);
        let n = scrambled.features.len();
        for i in 0..n {
            let j = (i * 37 + 11) % n;
            let tmp = scrambled.features[i].keypoint;
            scrambled.features[i].keypoint = scrambled.features[j].keypoint;
            scrambled.features[j].keypoint = tmp;
        }
        let strict = MatcherConfig {
            min_inliers: 30,
            inlier_px: 1.0,
            ..cfg()
        };
        let out = match_pair(&scrambled, &base, &strict);
        assert!(!out.passed);
        assert_eq!(out.stage, CascadeStage::Ransac, "{out:?}");
    }

    #[test]
    fn cluttered_view_still_matches_true_object() {
        let base = object_features(13, 120);
        let p = ViewParams {
            clutter: 60,
            ..ViewParams::default()
        };
        let view = render_view(&base, Similarity::identity(), p, 9);
        let out = match_pair(&view, &base, &cfg());
        assert!(out.passed, "outcome {out:?}");
    }

    #[test]
    fn op_accounting_uses_full_sizes() {
        let base = object_features(14, 500);
        let view = render_view(&base, Similarity::identity(), ViewParams::default(), 1);
        let nq = view.len() as u64;
        let nt = base.len() as u64;
        let out = match_pair(&view, &base, &cfg());
        // Forward + reverse brute force at full scale.
        assert_eq!(out.ops.distance_computations, 2 * nq * nt);
        assert_eq!(out.ops.ratio_tests, nq);
        assert!(out.ops.ransac_iterations > 0);
    }

    #[test]
    fn tiny_sets_are_rejected_cheaply() {
        let a = object_features(15, 1);
        let b = object_features(16, 300);
        let out = match_pair(&a, &b, &cfg());
        assert!(!out.passed);
        assert_eq!(out.ops.distance_computations, 300);
        assert_eq!(out.ops.ransac_iterations, 0);
    }

    #[test]
    fn similarity_from_pairs_recovers_known_transform() {
        let t = Similarity {
            angle: 0.5,
            scale: 2.0,
            tx: 5.0,
            ty: 7.0,
        };
        let p1 = (10.0, 20.0);
        let p2 = (100.0, 50.0);
        let q1 = t.apply(p1.0, p1.1);
        let q2 = t.apply(p2.0, p2.1);
        let m = similarity_from_pairs(p1, q1, p2, q2).unwrap();
        assert!((m.angle - 0.5).abs() < 1e-4);
        assert!((m.scale - 2.0).abs() < 1e-4);
        assert!((m.tx - 5.0).abs() < 1e-2);
        assert!((m.ty - 7.0).abs() < 1e-2);
    }

    #[test]
    fn similarity_from_degenerate_pairs_is_none() {
        assert!(similarity_from_pairs((1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (3.0, 3.0)).is_none());
    }

    #[test]
    fn exec_cap_bounds_work_but_not_ops() {
        let base = object_features(17, 400);
        let view = render_view(&base, Similarity::identity(), ViewParams::default(), 2);
        let capped = MatcherConfig {
            exec_cap: 32,
            ..cfg()
        };
        let out = match_pair(&view, &base, &capped);
        assert!(out.passed, "outcome {out:?}");
        assert_eq!(
            out.ops.distance_computations,
            2 * view.len() as u64 * base.len() as u64
        );
        // Tentative correspondences can't exceed the executed cap.
        assert!(out.tentative <= 32);
    }

    #[test]
    fn matcher_is_deterministic() {
        let base = object_features(18, 150);
        let view = render_view(&base, Similarity::identity(), ViewParams::default(), 3);
        let a = match_pair(&view, &base, &cfg());
        let b = match_pair(&view, &base, &cfg());
        assert_eq!(a, b);
    }
}
