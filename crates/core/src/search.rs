//! Search-space strategies for the AR back-end (paper §7.3):
//!
//! * **Naive** — match against every object on the floor.
//! * **RxPower** — restrict to the sections owning the two
//!   strongest-rxPower landmarks.
//! * **Acacia** — tri-laterated location prunes to the subsections within
//!   the localization uncertainty radius (2–6 of 21 in the paper).

use acacia_geo::floor::FloorPlan;
use acacia_geo::point::Point;
use acacia_vision::db::{DbObject, ObjectDb};

/// Which pruning scheme the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Entire database.
    Naive,
    /// Sections of the two strongest landmarks.
    RxPower,
    /// Subsections near the tri-laterated location.
    Acacia {
        /// Pruning radius in metres (the expected localization error;
        /// paper: ~3 m).
        radius_m_x10: u32,
    },
}

impl SearchStrategy {
    /// The paper's ACACIA configuration (2.5 m radius, roughly the mean
    /// localization error).
    pub const ACACIA_DEFAULT: SearchStrategy = SearchStrategy::Acacia { radius_m_x10: 25 };

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Naive => "Naive",
            SearchStrategy::RxPower => "rxPower",
            SearchStrategy::Acacia { .. } => "ACACIA",
        }
    }

    /// Pruning radius for the Acacia variant.
    pub fn radius_m(&self) -> f64 {
        match self {
            SearchStrategy::Acacia { radius_m_x10 } => *radius_m_x10 as f64 / 10.0,
            _ => 0.0,
        }
    }
}

/// The context a strategy needs to select candidates.
#[derive(Debug, Clone, Default)]
pub struct SearchContext {
    /// Latest per-landmark rxPower readings (name, dBm).
    pub rx_readings: Vec<(String, f64)>,
    /// Latest tri-laterated location, if available.
    pub location: Option<Point>,
}

/// Select candidate objects for a query under `strategy`.
///
/// Falls back to the full database when the required context is missing
/// (no readings / no location yet) — a cold-start client must still get
/// answers.
pub fn candidates<'a>(
    strategy: SearchStrategy,
    db: &'a ObjectDb,
    floor: &FloorPlan,
    ctx: &SearchContext,
) -> Vec<&'a DbObject> {
    match strategy {
        SearchStrategy::Naive => db.objects().iter().collect(),
        SearchStrategy::RxPower => {
            let mut readings = ctx.rx_readings.clone();
            if readings.is_empty() {
                return db.objects().iter().collect();
            }
            readings.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("rxPower is finite"));
            let sections: Vec<usize> = readings
                .iter()
                .take(2)
                .filter_map(|(name, _)| {
                    let lm = floor.landmark(name)?;
                    floor.section_at(lm.pos)
                })
                .collect();
            if sections.is_empty() {
                return db.objects().iter().collect();
            }
            db.in_sections(&sections)
        }
        SearchStrategy::Acacia { .. } => {
            let Some(loc) = ctx.location else {
                return db.objects().iter().collect();
            };
            let subsections = floor.subsections_near(loc, strategy.radius_m());
            if subsections.is_empty() {
                return db.objects().iter().collect();
            }
            db.in_subsections(&subsections)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FloorPlan, ObjectDb) {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::generate_retail(&floor, 5, 1);
        (floor, db)
    }

    #[test]
    fn naive_returns_everything() {
        let (floor, db) = setup();
        let ctx = SearchContext::default();
        assert_eq!(
            candidates(SearchStrategy::Naive, &db, &floor, &ctx).len(),
            105
        );
    }

    #[test]
    fn rxpower_prunes_to_two_sections() {
        let (floor, db) = setup();
        let ctx = SearchContext {
            // L4 at (14, 2.5) is in section "electronics"; L3 at (10, 7.5)
            // also electronics — then sections dedupe naturally via
            // in_sections.
            rx_readings: vec![
                ("L4".into(), -60.0),
                ("L3".into(), -65.0),
                ("L1".into(), -90.0),
            ],
            location: None,
        };
        let picked = candidates(SearchStrategy::RxPower, &db, &floor, &ctx);
        assert!(picked.len() < 105);
        assert!(!picked.is_empty());
        // All candidates come from the sections of L4/L3.
        let s4 = floor.section_at(floor.landmark("L4").unwrap().pos).unwrap();
        let s3 = floor.section_at(floor.landmark("L3").unwrap().pos).unwrap();
        for o in &picked {
            assert!(o.section == s4 || o.section == s3);
        }
    }

    #[test]
    fn acacia_prunes_to_neighbourhood_subsections() {
        let (floor, db) = setup();
        let ctx = SearchContext {
            rx_readings: vec![],
            location: Some(Point::new(14.0, 7.5)),
        };
        let picked = candidates(SearchStrategy::ACACIA_DEFAULT, &db, &floor, &ctx);
        // Paper: 2-6 subsections of 21 → 10-30 objects of 105.
        assert!(
            (10..=30).contains(&picked.len()),
            "picked {} objects",
            picked.len()
        );
    }

    #[test]
    fn acacia_is_strictly_smaller_than_rxpower_than_naive() {
        let (floor, db) = setup();
        let ctx = SearchContext {
            rx_readings: vec![("L3".into(), -60.0), ("L5".into(), -68.0)],
            location: Some(Point::new(12.0, 7.0)),
        };
        let naive = candidates(SearchStrategy::Naive, &db, &floor, &ctx).len();
        let rx = candidates(SearchStrategy::RxPower, &db, &floor, &ctx).len();
        let acacia = candidates(SearchStrategy::ACACIA_DEFAULT, &db, &floor, &ctx).len();
        assert!(acacia < rx, "acacia {acacia} vs rx {rx}");
        assert!(rx < naive, "rx {rx} vs naive {naive}");
        // Paper speed-up ratios: ~5x naive/acacia, ~1.9x rx/acacia.
        let ratio = naive as f64 / acacia as f64;
        assert!(ratio > 3.0, "naive/acacia = {ratio}");
    }

    #[test]
    fn missing_context_falls_back_to_full_db() {
        let (floor, db) = setup();
        let ctx = SearchContext::default();
        assert_eq!(
            candidates(SearchStrategy::RxPower, &db, &floor, &ctx).len(),
            105
        );
        assert_eq!(
            candidates(SearchStrategy::ACACIA_DEFAULT, &db, &floor, &ctx).len(),
            105
        );
    }

    #[test]
    fn unknown_landmark_names_are_ignored() {
        let (floor, db) = setup();
        let ctx = SearchContext {
            rx_readings: vec![("bogus".into(), -50.0), ("L1".into(), -60.0)],
            location: None,
        };
        let picked = candidates(SearchStrategy::RxPower, &db, &floor, &ctx);
        let s1 = floor.section_at(floor.landmark("L1").unwrap().pos).unwrap();
        assert!(picked.iter().all(|o| o.section == s1));
    }
}
