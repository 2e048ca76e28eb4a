//! # acacia-vision — AR computer-vision substrate
//!
//! A synthetic-but-real reproduction of the paper's OpenCV pipeline:
//!
//! * [`image`] — resolutions, the paper's feature-count power law, the
//!   One+ One camera model (Fig. 3(e)).
//! * [`feature`] — SURF-like keypoints and inline 64-d descriptors;
//!   objects are deterministic descriptor sets, camera frames are noisy
//!   transformed views of them, rendered only as far as the matcher
//!   executes them and counted in full.
//! * [`matcher`] — the four-stage cascade (brute-force 2-NN + ratio test,
//!   symmetry test, RANSAC, inlier threshold) with operation metering.
//! * [`db`] — the 105-object geo-tagged retail database (§6.3) with
//!   subsection/section pruning; each object keeps its feature count and
//!   the descriptor prefix the matcher executes.
//! * [`compute`] — device profiles turning metered operations into virtual
//!   time, calibrated to Fig. 3(a,b,h) and §7.3.
//! * [`compress`] — JPEG/PNG/raw codecs (Fig. 3(f), §7.3).
//!
//! The split between *real execution* (matching runs on actual descriptors,
//! so accuracy is genuine) and *virtual timing* (operation counts × a
//! calibrated per-device cost) is the key substitution that lets a
//! CPU-bound laptop reproduce measurements taken on a GPU server — see
//! `DESIGN.md` for the ledger.
//!
//! ```
//! use acacia_vision::prelude::*;
//! use acacia_geo::prelude::*;
//!
//! let floor = FloorPlan::retail_store();
//! let db = ObjectDb::generate_retail(&floor, 1, 42);
//! let target = &db.objects()[5];
//! let base = object_features(target.id, target.feature_count);
//! let frame = render_view(&base, Similarity::identity(), ViewParams::default(), 1);
//! let out = db.match_all(&frame, &MatcherConfig::default());
//! assert_eq!(out.best.unwrap().0, target.id);
//! // Virtual time of that query on the paper's 8-core i7:
//! let secs = Device::I7Octa.profile().match_time_s(&out.ops);
//! assert!(secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod compute;
pub mod db;
pub mod feature;
pub mod image;
pub mod matcher;

pub use compress::Codec;
pub use compute::{contended_time_s, Device, DeviceProfile};
pub use db::{DbObject, ObjectDb, QueryOutcome, CAPTURE_RESOLUTION, STORED_FEATURES};
pub use feature::{
    object_features, render_object_view, render_view, Descriptor, Feature, FeatureSet, Keypoint,
    Similarity, ViewParams, DESC_DIM,
};
pub use image::{camera_preview_fps, expected_features, ImageSpec, Resolution};
pub use matcher::{match_pair, CascadeStage, MatchOps, MatcherConfig, PairOutcome};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::compress::Codec;
    pub use crate::compute::{contended_time_s, Device, DeviceProfile};
    pub use crate::db::{DbObject, ObjectDb, QueryOutcome};
    pub use crate::feature::{
        object_features, render_object_view, render_view, FeatureSet, Similarity, ViewParams,
    };
    pub use crate::image::{camera_preview_fps, expected_features, ImageSpec, Resolution};
    pub use crate::matcher::{match_pair, CascadeStage, MatchOps, MatcherConfig, PairOutcome};
}
