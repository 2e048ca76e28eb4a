//! The geo-tagged AR object database (paper §5.5, §6.3).
//!
//! "Our database is populated with 105 objects emulating a retail store and
//! is partitioned based on sections like food, toys and so on. Each object
//! is stored in the database as a set of: object name, an annotated tag,
//! SURF keypoints and descriptors from the image of object." The store
//! floor is "geographically partitioned into different areas/segments" and
//! images are tagged by subsection; localization prunes the search space to
//! the subsections near the user.

use crate::feature::{object_features, FeatureSet};
use crate::image::{ImageSpec, Resolution};
use crate::matcher::{exec_len, match_pair, match_prefix, MatchOps, MatcherConfig, PairOutcome};
use acacia_geo::floor::FloorPlan;
use acacia_geo::point::Point;
use std::sync::Arc;

/// The resolution objects are photographed at for the database.
pub const CAPTURE_RESOLUTION: Resolution = Resolution::new(480, 360);

/// Descriptors stored per object: the prefix that matching at the default
/// [`MatcherConfig::exec_cap`] executes. An object photographed at
/// [`CAPTURE_RESOLUTION`] detects 600–800 features; the rest only count
/// towards metered operations, so the database keeps their number, not
/// their descriptors.
pub const STORED_FEATURES: usize = 96;

/// One catalogued object.
#[derive(Debug, Clone)]
pub struct DbObject {
    /// Stable object identity (drives synthetic feature generation).
    pub id: u64,
    /// Human-readable name ("object-42").
    pub name: String,
    /// Annotated tag returned to the AR client on a match.
    pub tag: String,
    /// Geo-tag: subsection index in the floor plan.
    pub subsection: usize,
    /// Section index in the floor plan.
    pub section: usize,
    /// Physical position of the object on the floor.
    pub pos: Point,
    /// SURF features detected in the object's capture image.
    pub feature_count: usize,
    /// Stored SURF keypoints + descriptors: the first
    /// `min(feature_count, STORED_FEATURES)` of the object's features
    /// (generation is prefix-stable, so these equal
    /// `object_features(id, feature_count)`'s prefix).
    pub features: FeatureSet,
}

/// The object database.
#[derive(Debug, Clone)]
pub struct ObjectDb {
    objects: Vec<DbObject>,
}

/// Result of matching a frame against a set of candidate objects.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Best-matching object id and its pair outcome, if any object passed
    /// the cascade.
    pub best: Option<(u64, PairOutcome)>,
    /// Total metered operations across all candidates.
    pub ops: MatchOps,
    /// Number of candidate objects examined.
    pub candidates_examined: usize,
}

impl ObjectDb {
    /// An empty database.
    pub fn new() -> ObjectDb {
        ObjectDb {
            objects: Vec::new(),
        }
    }

    /// Generate the paper's retail database: `per_subsection` objects in
    /// each floor-plan subsection (5 × 21 = 105 by default). Objects placed
    /// in subsections containing checkpoints sit *at* the checkpoint so the
    /// evaluation can photograph them there.
    pub fn generate_retail(floor: &FloorPlan, per_subsection: usize, seed: u64) -> ObjectDb {
        let mut objects = Vec::new();
        for (ssi, ss) in floor.subsections.iter().enumerate() {
            // Checkpoints inside this subsection anchor the first objects.
            let anchors: Vec<Point> = floor
                .checkpoints
                .iter()
                .filter(|c| ss.rect.contains(c.pos))
                .map(|c| c.pos)
                .collect();
            for k in 0..per_subsection {
                let id = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((ssi * per_subsection + k) as u64 + 1);
                let pos = if k < anchors.len() {
                    anchors[k]
                } else {
                    // Deterministic grid placement inside the subsection.
                    let fx = (k + 1) as f64 / (per_subsection + 1) as f64;
                    let fy =
                        ((k * 7 + 3) % per_subsection + 1) as f64 / (per_subsection + 1) as f64;
                    Point::new(
                        ss.rect.min.x + fx * ss.rect.width(),
                        ss.rect.min.y + fy * ss.rect.height(),
                    )
                };
                let feature_count = ImageSpec::new(id, CAPTURE_RESOLUTION).feature_count();
                objects.push(DbObject {
                    id,
                    name: format!("object-{}", objects.len()),
                    tag: format!("{}#{}", ss.name, k),
                    subsection: ssi,
                    section: ss.section,
                    pos,
                    feature_count,
                    features: object_features(id, feature_count.min(STORED_FEATURES)),
                });
            }
        }
        ObjectDb { objects }
    }

    /// Memoized [`ObjectDb::generate_retail`] over the standard
    /// [`FloorPlan::retail_store`] layout.
    ///
    /// Database generation is a pure function of `(per_subsection, seed)`
    /// for a fixed floor, and experiment sweeps rebuild the identical
    /// database for every grid cell; this caches the generated database
    /// process-wide and hands out the one shared copy (nothing mutates a
    /// database after generation), instead of thousands of seeded RNG
    /// draws and normalizations — or a heap descriptor clone — per object.
    pub fn retail_cached(per_subsection: usize, seed: u64) -> Arc<ObjectDb> {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type DbCache = Mutex<HashMap<(usize, u64), Arc<ObjectDb>>>;
        static CACHE: OnceLock<DbCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let hit = cache
            .lock()
            .expect("retail db cache poisoned")
            .get(&(per_subsection, seed))
            .cloned();
        match hit {
            Some(db) => db,
            None => {
                // Generate outside the lock; a racing duplicate insert is
                // harmless (both values are identical).
                let db = Arc::new(ObjectDb::generate_retail(
                    &FloorPlan::retail_store(),
                    per_subsection,
                    seed,
                ));
                cache
                    .lock()
                    .expect("retail db cache poisoned")
                    .insert((per_subsection, seed), db.clone());
                db
            }
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// All objects.
    pub fn objects(&self) -> &[DbObject] {
        &self.objects
    }

    /// Look up by id.
    pub fn get(&self, id: u64) -> Option<&DbObject> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// Objects whose geo-tag is one of `subsections`.
    pub fn in_subsections(&self, subsections: &[usize]) -> Vec<&DbObject> {
        self.objects
            .iter()
            .filter(|o| subsections.contains(&o.subsection))
            .collect()
    }

    /// Objects in any of `sections`.
    pub fn in_sections(&self, sections: &[usize]) -> Vec<&DbObject> {
        self.objects
            .iter()
            .filter(|o| sections.contains(&o.section))
            .collect()
    }

    /// Match a query frame against an explicit candidate list, merging
    /// operation counts. All candidates are examined (the paper's matcher
    /// scans the pruned database; match time is linear in candidate count —
    /// Fig. 3(h)) and the candidate with the most RANSAC inliers wins.
    pub fn match_against<'a>(
        &self,
        frame: &FeatureSet,
        candidates: impl IntoIterator<Item = &'a DbObject>,
        cfg: &MatcherConfig,
    ) -> QueryOutcome {
        let mut ops = MatchOps::default();
        let mut best: Option<(u64, PairOutcome)> = None;
        let mut examined = 0;
        for obj in candidates {
            examined += 1;
            let outcome = if exec_len(obj.feature_count, cfg) <= obj.features.len() {
                match_prefix(frame, &obj.features.features, obj.feature_count, cfg)
            } else {
                // The config executes past the stored prefix: regenerate
                // the object's full feature set for this call.
                match_pair(frame, &object_features(obj.id, obj.feature_count), cfg)
            };
            ops.merge(outcome.ops);
            if outcome.passed {
                let better = match &best {
                    None => true,
                    Some((_, b)) => outcome.inliers > b.inliers,
                };
                if better {
                    best = Some((obj.id, outcome));
                }
            }
        }
        QueryOutcome {
            best,
            ops,
            candidates_examined: examined,
        }
    }

    /// Match against the whole database (the paper's "Naive" scheme).
    pub fn match_all(&self, frame: &FeatureSet, cfg: &MatcherConfig) -> QueryOutcome {
        self.match_against(frame, self.objects.iter(), cfg)
    }
}

impl Default for ObjectDb {
    fn default() -> Self {
        ObjectDb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{render_view, Similarity, ViewParams};

    fn small_db() -> (FloorPlan, ObjectDb) {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::generate_retail(&floor, 1, 42); // 21 objects
        (floor, db)
    }

    #[test]
    fn retail_db_has_paper_shape() {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::generate_retail(&floor, 5, 42);
        assert_eq!(db.len(), 105);
        // Every subsection holds exactly 5 objects.
        for ssi in 0..21 {
            assert_eq!(db.in_subsections(&[ssi]).len(), 5);
        }
        // Object positions lie within their subsection rects.
        for o in db.objects() {
            assert!(floor.subsections[o.subsection].rect.contains(o.pos));
            assert_eq!(floor.subsections[o.subsection].section, o.section);
        }
    }

    #[test]
    fn retail_cached_matches_direct_generation() {
        let direct = ObjectDb::generate_retail(&FloorPlan::retail_store(), 2, 31);
        let cached = ObjectDb::retail_cached(2, 31);
        let again = ObjectDb::retail_cached(2, 31);
        assert_eq!(cached.len(), direct.len());
        for ((a, b), c) in cached
            .objects()
            .iter()
            .zip(direct.objects())
            .zip(again.objects())
        {
            assert_eq!(a.id, b.id);
            assert_eq!(a.feature_count, b.feature_count);
            assert_eq!(a.features, b.features);
            assert_eq!(a.features, c.features);
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn db_generation_is_deterministic() {
        let floor = FloorPlan::retail_store();
        let a = ObjectDb::generate_retail(&floor, 2, 7);
        let b = ObjectDb::generate_retail(&floor, 2, 7);
        assert_eq!(a.objects().len(), b.objects().len());
        for (x, y) in a.objects().iter().zip(b.objects()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.feature_count, y.feature_count);
            assert_eq!(x.features, y.features);
        }
    }

    #[test]
    fn query_of_known_object_finds_it() {
        let (_, db) = small_db();
        let target = &db.objects()[8];
        let frame = render_view(
            &object_features(target.id, target.feature_count),
            Similarity::identity(),
            ViewParams::default(),
            3,
        );
        let cfg = MatcherConfig::default();
        let out = db.match_all(&frame, &cfg);
        let (id, _) = out.best.expect("object should match");
        assert_eq!(id, target.id);
        assert_eq!(out.candidates_examined, 21);
    }

    #[test]
    fn pruned_query_touches_fewer_candidates_with_fewer_ops() {
        let (_, db) = small_db();
        let target = &db.objects()[0];
        let frame = render_view(
            &object_features(target.id, target.feature_count),
            Similarity::identity(),
            ViewParams::default(),
            4,
        );
        let cfg = MatcherConfig::default();
        let full = db.match_all(&frame, &cfg);
        let pruned = db.match_against(&frame, db.in_subsections(&[target.subsection]), &cfg);
        assert_eq!(pruned.candidates_examined, 1);
        assert!(pruned.ops.distance_computations < full.ops.distance_computations / 10);
        assert_eq!(pruned.best.as_ref().unwrap().0, target.id);
    }

    #[test]
    fn frame_of_absent_object_returns_no_match() {
        let (_, db) = small_db();
        let foreign = object_features(999_999, 300);
        let frame = render_view(&foreign, Similarity::identity(), ViewParams::default(), 5);
        let cfg = MatcherConfig::default();
        let out = db.match_all(&frame, &cfg);
        assert!(out.best.is_none(), "matched {:?}", out.best);
    }

    #[test]
    fn stored_prefix_matches_like_the_full_feature_set() {
        let (_, db) = small_db();
        let full_sets: Vec<FeatureSet> = db
            .objects()
            .iter()
            .map(|o| object_features(o.id, o.feature_count))
            .collect();
        for (o, full) in db.objects().iter().zip(&full_sets) {
            let spec = ImageSpec::new(o.id, CAPTURE_RESOLUTION);
            assert_eq!(o.feature_count, spec.feature_count());
            assert_eq!(o.features.len(), o.feature_count.min(STORED_FEATURES));
            assert_eq!(o.features.features[..], full.features[..o.features.len()]);
        }
        // Views of three objects with more features than the smaller caps,
        // so both capped and whole-query execution are exercised.
        let views: Vec<FeatureSet> = [0, 8, 17]
            .iter()
            .map(|&i| {
                let base = object_features(db.objects()[i].id, 48);
                let pose = Similarity::from_seed(i as u64);
                render_view(&base, pose, ViewParams::default(), 7)
            })
            .collect();
        // Caps within the stored prefix, then the ones that regenerate the
        // full set: unlimited and past `STORED_FEATURES`.
        let mut matched = 0;
        for exec_cap in [16, 24, 32, 48, 96, 0, 200] {
            let cfg = MatcherConfig {
                exec_cap,
                ..MatcherConfig::default()
            };
            for view in &views {
                for (o, full) in db.objects().iter().zip(&full_sets) {
                    let want = match_pair(view, full, &cfg);
                    let got = db.match_against(view, [o], &cfg);
                    assert_eq!(got.ops, want.ops, "cap {exec_cap}, object {}", o.id);
                    assert_eq!(got.candidates_examined, 1);
                    matched += usize::from(want.passed);
                    assert_eq!(got.best, want.passed.then_some((o.id, want)));
                }
            }
        }
        // Each view finds its own object at every cap.
        assert!(matched >= 3 * 7, "only {matched} matches");
    }

    #[test]
    fn section_filter_selects_supersets_of_subsection_filter() {
        let (floor, db) = small_db();
        let ss = 0;
        let section = floor.subsections[ss].section;
        let by_ss = db.in_subsections(&[ss]).len();
        let by_sec = db.in_sections(&[section]).len();
        assert!(by_sec >= by_ss);
    }
}
