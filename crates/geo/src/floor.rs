//! Floor plans: sections, subsections, landmarks and checkpoints.
//!
//! The paper's retail-store AR evaluation divides a store floor into **5
//! sections** and **21 subsections** with **7 LTE-direct landmarks** and
//! **24 checkpoints** (Fig. 9(a)); the earlier feasibility experiment walks
//! past **3 landmarks** with 4 checkpoints (Fig. 6(a)). Both layouts ship
//! here as presets; arbitrary plans can be constructed too.

use crate::point::{Point, Rect};

/// A fixed LTE-direct publisher position ("sales person smartphone").
#[derive(Debug, Clone)]
pub struct Landmark {
    /// Service/landmark name broadcast over LTE-direct (e.g. "laptops").
    pub name: String,
    /// Position on the floor.
    pub pos: Point,
}

/// A measurement position used in the evaluation ("C1".."C24").
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Checkpoint label.
    pub name: String,
    /// Position on the floor.
    pub pos: Point,
}

/// A named subsection of a section — the granularity at which the AR object
/// database is geo-tagged.
#[derive(Debug, Clone)]
pub struct Subsection {
    /// Display name, e.g. "food-2".
    pub name: String,
    /// Area covered.
    pub rect: Rect,
    /// Index into [`FloorPlan::sections`].
    pub section: usize,
}

/// A complete store floor plan.
#[derive(Debug, Clone)]
pub struct FloorPlan {
    /// Outer bounds of the floor.
    pub bounds: Rect,
    /// Coarse sections ("food", "toys", ...). Paper Fig. 9(a) uses 5.
    pub sections: Vec<(String, Rect)>,
    /// Fine subsections. Paper Fig. 9(a) uses 21.
    pub subsections: Vec<Subsection>,
    /// LTE-direct landmarks. Paper Fig. 9(a) uses 7.
    pub landmarks: Vec<Landmark>,
    /// Evaluation checkpoints. Paper Fig. 9(a) uses 24.
    pub checkpoints: Vec<Checkpoint>,
}

impl FloorPlan {
    /// Index of the subsection containing `p` (if any).
    pub fn subsection_at(&self, p: Point) -> Option<usize> {
        self.subsections.iter().position(|s| s.rect.contains(p))
    }

    /// Index of the section containing `p` (if any).
    pub fn section_at(&self, p: Point) -> Option<usize> {
        self.sections.iter().position(|(_, r)| r.contains(p))
    }

    /// Indices of all subsections whose area intersects the disc of radius
    /// `radius` around `center` — ACACIA's search-space for a location
    /// estimate with the given uncertainty.
    pub fn subsections_near(&self, center: Point, radius: f64) -> Vec<usize> {
        self.subsections
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rect.distance_to(center) <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    /// Look up a landmark by name.
    pub fn landmark(&self, name: &str) -> Option<&Landmark> {
        self.landmarks.iter().find(|l| l.name == name)
    }

    /// The Fig. 9(a) retail-store layout: a 28 m × 15 m floor split into a
    /// 7×3 grid of 4 m × 5 m subsections, grouped into 5 sections, with 7
    /// landmarks and 24 checkpoints.
    pub fn retail_store() -> FloorPlan {
        let bounds = Rect::new(0.0, 0.0, 28.0, 15.0);
        let section_names = ["food", "toys", "electronics", "clothing", "sports"];
        // Column groups per section: 21 = 6 + 3 + 6 + 3 + 3 subsections.
        let section_cols: [&[usize]; 5] = [&[0, 1], &[2], &[3, 4], &[5], &[6]];
        let mut sections = Vec::new();
        let mut subsections = Vec::new();
        for (si, cols) in section_cols.iter().enumerate() {
            let x0 = *cols.first().expect("empty section") as f64 * 4.0;
            let x1 = (*cols.last().expect("empty section") + 1) as f64 * 4.0;
            sections.push((section_names[si].to_string(), Rect::new(x0, 0.0, x1, 15.0)));
            for &col in cols.iter() {
                for row in 0..3 {
                    let r = Rect::new(
                        col as f64 * 4.0,
                        row as f64 * 5.0,
                        (col + 1) as f64 * 4.0,
                        (row + 1) as f64 * 5.0,
                    );
                    subsections.push(Subsection {
                        name: format!("{}-{}", section_names[si], subsections.len()),
                        rect: r,
                        section: si,
                    });
                }
            }
        }
        // 7 landmarks in a zig-zag covering the floor.
        let landmark_pos = [
            (2.0, 2.5),
            (6.0, 12.5),
            (10.0, 7.5),
            (14.0, 2.5),
            (18.0, 12.5),
            (22.0, 7.5),
            (26.0, 2.5),
        ];
        let landmarks = landmark_pos
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Landmark {
                name: format!("L{}", i + 1),
                pos: Point::new(x, y),
            })
            .collect();
        // 24 checkpoints on an 8×3 grid of aisle positions.
        let mut checkpoints = Vec::new();
        for row in 0..3 {
            for col in 0..8 {
                let idx = row * 8 + col + 1;
                checkpoints.push(Checkpoint {
                    name: format!("C{idx}"),
                    pos: Point::new(1.75 + col as f64 * 3.5, 2.5 + row as f64 * 5.0),
                });
            }
        }
        FloorPlan {
            bounds,
            sections,
            subsections,
            landmarks,
            checkpoints,
        }
    }

    /// Render the floor as ASCII art (one character per metre): `L` marks
    /// landmarks, `c` checkpoints, `|` section boundaries. Used by the
    /// examples to visualize the Fig. 9(a)/6(a) layouts.
    pub fn ascii_art(&self) -> String {
        let w = self.bounds.width().ceil() as usize;
        let h = self.bounds.height().ceil() as usize;
        let mut grid = vec![vec![' '; w]; h];
        // Section boundaries (vertical edges interior to the floor).
        for (_, rect) in &self.sections {
            let x = rect.max.x;
            if x < self.bounds.max.x - 1e-9 {
                let col = (x as usize).min(w - 1);
                for row in grid.iter_mut() {
                    row[col] = '|';
                }
            }
        }
        let mut put = |p: Point, ch: char| {
            let col = (p.x.floor() as usize).min(w - 1);
            let row = (p.y.floor() as usize).min(h - 1);
            grid[h - 1 - row][col] = ch; // y grows north; rows print top-down
        };
        for c in &self.checkpoints {
            put(c.pos, 'c');
        }
        for l in &self.landmarks {
            put(l.pos, 'L');
        }
        let mut out = String::new();
        out.push('+');
        out.push_str(&"-".repeat(w));
        out.push_str("+\n");
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push_str("|\n");
        }
        out.push('+');
        out.push_str(&"-".repeat(w));
        out.push_str("+\n");
        out
    }

    /// The Fig. 6(a) feasibility layout: an open 50 m × 20 m area with three
    /// landmarks and a four-checkpoint walking path.
    pub fn walkway() -> FloorPlan {
        let bounds = Rect::new(0.0, 0.0, 50.0, 20.0);
        let landmarks = vec![
            Landmark {
                name: "L1".into(),
                pos: Point::new(5.0, 5.0),
            },
            Landmark {
                name: "L2".into(),
                pos: Point::new(25.0, 15.0),
            },
            Landmark {
                name: "L3".into(),
                pos: Point::new(45.0, 5.0),
            },
        ];
        let checkpoints = vec![
            Checkpoint {
                name: "C1".into(),
                pos: Point::new(5.0, 8.0),
            },
            Checkpoint {
                name: "C2".into(),
                pos: Point::new(18.0, 12.0),
            },
            Checkpoint {
                name: "C3".into(),
                pos: Point::new(32.0, 12.0),
            },
            Checkpoint {
                name: "C4".into(),
                pos: Point::new(45.0, 8.0),
            },
        ];
        FloorPlan {
            bounds,
            sections: vec![("walkway".into(), bounds)],
            subsections: vec![Subsection {
                name: "walkway".into(),
                rect: bounds,
                section: 0,
            }],
            landmarks,
            checkpoints,
        }
    }
}

/// A piecewise-linear walking path traversed at constant speed, used to
/// generate the Fig. 6(b,c) rxPower/SNR-vs-time traces.
#[derive(Debug, Clone)]
pub struct WalkPath {
    waypoints: Vec<Point>,
    /// Total traversal time in seconds.
    duration_s: f64,
    /// Cumulative arc length at each waypoint.
    cum_len: Vec<f64>,
}

impl WalkPath {
    /// Path through `waypoints`, walked over `duration_s` seconds.
    pub(crate) fn new(waypoints: Vec<Point>, duration_s: f64) -> WalkPath {
        assert!(waypoints.len() >= 2, "path needs at least two waypoints");
        assert!(duration_s > 0.0, "duration must be positive");
        let mut cum_len = vec![0.0];
        for w in waypoints.windows(2) {
            let d = w[0].distance(w[1]);
            cum_len.push(cum_len.last().expect("nonempty") + d);
        }
        WalkPath {
            waypoints,
            duration_s,
            cum_len,
        }
    }

    /// Total path length in metres.
    pub fn length(&self) -> f64 {
        *self.cum_len.last().expect("nonempty")
    }

    /// Total traversal time in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Position after walking for `t_s` seconds (clamped to the endpoints).
    pub fn position_at(&self, t_s: f64) -> Point {
        let frac = (t_s / self.duration_s).clamp(0.0, 1.0);
        let target = frac * self.length();
        for i in 1..self.cum_len.len() {
            if target <= self.cum_len[i] {
                let seg = self.cum_len[i] - self.cum_len[i - 1];
                let local = if seg == 0.0 {
                    0.0
                } else {
                    (target - self.cum_len[i - 1]) / seg
                };
                return self.waypoints[i - 1].lerp(self.waypoints[i], local);
            }
        }
        *self.waypoints.last().expect("nonempty")
    }

    /// The Fig. 6(a) walk: from landmark 1 past landmark 2 to landmark 3,
    /// traversed in 550 seconds.
    pub fn fig6_walk() -> WalkPath {
        WalkPath::new(
            vec![
                Point::new(5.0, 8.0),
                Point::new(18.0, 12.0),
                Point::new(25.0, 12.0),
                Point::new(32.0, 12.0),
                Point::new(45.0, 8.0),
            ],
            550.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retail_store_matches_paper_counts() {
        let f = FloorPlan::retail_store();
        assert_eq!(f.sections.len(), 5);
        assert_eq!(f.subsections.len(), 21);
        assert_eq!(f.landmarks.len(), 7);
        assert_eq!(f.checkpoints.len(), 24);
    }

    #[test]
    fn subsections_tile_the_floor() {
        let f = FloorPlan::retail_store();
        // Every interior point belongs to exactly one subsection and one
        // section.
        for i in 0..28 {
            for j in 0..15 {
                let p = Point::new(i as f64 + 0.5, j as f64 + 0.5);
                let subs: Vec<_> = f
                    .subsections
                    .iter()
                    .filter(|s| s.rect.contains(p))
                    .collect();
                assert_eq!(subs.len(), 1, "point {p:?}");
                assert!(f.section_at(p).is_some());
            }
        }
    }

    #[test]
    fn subsection_section_links_are_consistent() {
        let f = FloorPlan::retail_store();
        for s in &f.subsections {
            let section_rect = f.sections[s.section].1;
            assert!(section_rect.contains(s.rect.min));
        }
        let in_section = |si| f.subsections.iter().filter(|s| s.section == si).count();
        for si in 0..f.sections.len() {
            assert!(in_section(si) > 0);
        }
        let total: usize = (0..5).map(in_section).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn all_checkpoints_and_landmarks_inside_bounds() {
        for f in [FloorPlan::retail_store(), FloorPlan::walkway()] {
            for c in &f.checkpoints {
                assert!(f.bounds.contains(c.pos), "{}", c.name);
            }
            for l in &f.landmarks {
                assert!(f.bounds.contains(l.pos), "{}", l.name);
            }
        }
    }

    #[test]
    fn subsections_near_grows_with_radius() {
        let f = FloorPlan::retail_store();
        let p = Point::new(14.0, 7.5);
        let tight = f.subsections_near(p, 1.0);
        let wide = f.subsections_near(p, 6.0);
        let all = f.subsections_near(p, 100.0);
        assert!(!tight.is_empty());
        assert!(tight.len() < wide.len());
        assert_eq!(all.len(), 21);
        // The paper reports ACACIA pruning to 2–6 subsections with ~3 m
        // localization error.
        let typical = f.subsections_near(p, 3.0);
        assert!(
            (2..=6).contains(&typical.len()),
            "pruned to {} subsections",
            typical.len()
        );
    }

    #[test]
    fn landmark_lookup_by_name() {
        let f = FloorPlan::retail_store();
        assert!(f.landmark("L1").is_some());
        assert!(f.landmark("L8").is_none());
    }

    #[test]
    fn walk_path_interpolates_monotonically() {
        let w = WalkPath::fig6_walk();
        assert!(w.length() > 40.0);
        let start = w.position_at(0.0);
        let end = w.position_at(550.0);
        assert_eq!(start, Point::new(5.0, 8.0));
        assert_eq!(end, Point::new(45.0, 8.0));
        // x progresses monotonically along this particular path.
        let mut last_x = start.x;
        for t in (0..=550).step_by(10) {
            let p = w.position_at(t as f64);
            assert!(p.x >= last_x - 1e-9);
            last_x = p.x;
        }
        // Clamping beyond the end.
        assert_eq!(w.position_at(1000.0), end);
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn walk_path_needs_two_points() {
        let _ = WalkPath::new(vec![Point::new(0.0, 0.0)], 10.0);
    }

    #[test]
    fn ascii_art_shows_all_markers() {
        let f = FloorPlan::retail_store();
        let art = f.ascii_art();
        let landmarks = art.chars().filter(|&c| c == 'L').count();
        let checkpoints = art.chars().filter(|&c| c == 'c').count();
        assert_eq!(landmarks, 7, "{art}");
        // A couple of checkpoints share a cell with a landmark and are
        // overdrawn by the 'L'.
        assert!(checkpoints >= 20, "{checkpoints} checkpoints visible");
        assert!(art.contains('|'), "section boundaries rendered");
        // 28 columns + 2 border chars + newline per row; 15 rows + 2 borders.
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 17);
        assert!(lines.iter().all(|l| l.chars().count() == 30));
    }
}
