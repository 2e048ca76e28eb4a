//! 2-D points and rectangles in metres.

/// A point on the floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate, metres.
    pub x: f64,
    /// North-south coordinate, metres.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation: `self` at t=0, `other` at t=1.
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Component-wise addition.
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Point {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, inclusive of its lower bound and exclusive of
/// its upper bound (so adjacent rectangles tile without overlap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Build from corner coordinates; normalizes orientation.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect {
            min: Point::new(x0.min(x1), y0.min(y1)),
            max: Point::new(x0.max(x1), y0.max(y1)),
        }
    }

    /// Half-open containment test.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// Width in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Shortest distance from `p` to the rectangle (0 when inside).
    pub fn distance_to(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
        assert_eq!(Point::new(1.0, 1.0).distance(Point::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -2.0));
    }

    #[test]
    fn rect_normalizes_and_contains_half_open() {
        let r = Rect::new(10.0, 10.0, 0.0, 0.0);
        assert_eq!(r.min, Point::new(0.0, 0.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(9.999, 9.999)));
        assert!(!r.contains(Point::new(10.0, 5.0)));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 10.0);
    }

    #[test]
    fn rect_distance_to_point() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.distance_to(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(r.distance_to(Point::new(5.0, 1.0)), 3.0);
        assert_eq!(r.distance_to(Point::new(5.0, 6.0)), 5.0);
    }
}
