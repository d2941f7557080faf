//! Axis-aligned rectangles and routing obstacles.

use std::fmt;

use crate::coord::Coord;

/// A closed axis-aligned rectangle `[x_lo, x_hi] × [y_lo, y_hi]` in physical
/// coordinates.
///
/// Rectangles are used for macros, routing blockages and pre-routed wires —
/// collectively "obstacles" in the ML-OARSMT formulation. A rectangle is
/// allowed to be degenerate (a segment or a point), which models pre-routed
/// wires of zero width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x_lo: i64,
    y_lo: i64,
    x_hi: i64,
    y_hi: i64,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    ///
    /// ```
    /// use oarsmt_geom::rect::Rect;
    /// let r = Rect::new(5, 9, 1, 2);
    /// assert_eq!(r.x_range(), (1, 5));
    /// assert_eq!(r.y_range(), (2, 9));
    /// ```
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect {
            x_lo: x0.min(x1),
            y_lo: y0.min(y1),
            x_hi: x0.max(x1),
            y_hi: y0.max(y1),
        }
    }

    /// The inclusive `x` extent `(x_lo, x_hi)`.
    pub fn x_range(&self) -> (i64, i64) {
        (self.x_lo, self.x_hi)
    }

    /// The inclusive `y` extent `(y_lo, y_hi)`.
    pub fn y_range(&self) -> (i64, i64) {
        (self.y_lo, self.y_hi)
    }

    /// Width along `x` (zero for degenerate rectangles).
    pub fn width(&self) -> i64 {
        self.x_hi - self.x_lo
    }

    /// Height along `y` (zero for degenerate rectangles).
    pub fn height(&self) -> i64 {
        self.y_hi - self.y_lo
    }

    /// Area of the rectangle, treating degenerate extents as zero.
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Whether the closed rectangle contains the coordinate.
    ///
    /// ```
    /// use oarsmt_geom::{rect::Rect, coord::Coord};
    /// let r = Rect::new(0, 0, 4, 2);
    /// assert!(r.contains(Coord::new(4, 2))); // boundary counts
    /// assert!(!r.contains(Coord::new(5, 0)));
    /// ```
    pub fn contains(&self, c: Coord) -> bool {
        self.x_lo <= c.x && c.x <= self.x_hi && self.y_lo <= c.y && c.y <= self.y_hi
    }

    /// Whether two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x_lo <= other.x_hi
            && other.x_lo <= self.x_hi
            && self.y_lo <= other.y_hi
            && other.y_lo <= self.y_hi
    }

    /// The four corner coordinates, counter-clockwise from the lower-left.
    pub fn corners(&self) -> [Coord; 4] {
        [
            Coord::new(self.x_lo, self.y_lo),
            Coord::new(self.x_hi, self.y_lo),
            Coord::new(self.x_hi, self.y_hi),
            Coord::new(self.x_lo, self.y_hi),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.x_lo, self.x_hi, self.y_lo, self.y_hi
        )
    }
}

/// A routing obstacle: a rectangle on a specific routing layer.
///
/// Obstacles block both wire segments crossing them on their layer and vias
/// landing on them. A multi-layer macro is modelled as one `Obstacle` per
/// occupied layer, and obstacles are allowed to overlap, forming rectilinear
/// shapes (Section 3.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Obstacle {
    /// The blocked region in physical coordinates.
    pub rect: Rect,
    /// The routing layer the obstacle occupies.
    pub layer: usize,
}

impl Obstacle {
    /// Creates an obstacle covering `rect` on `layer`.
    pub fn new(rect: Rect, layer: usize) -> Self {
        Obstacle { rect, layer }
    }
}

impl fmt::Display for Obstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on layer {}", self.rect, self.layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corner_order() {
        let r = Rect::new(10, 10, 0, 0);
        assert_eq!(r.x_range(), (0, 10));
        assert_eq!(r.y_range(), (0, 10));
        assert_eq!(r.area(), 100);
    }

    #[test]
    fn degenerate_rect_models_wires() {
        let wire = Rect::new(2, 5, 9, 5);
        assert_eq!(wire.height(), 0);
        assert_eq!(wire.area(), 0);
        assert!(wire.contains(Coord::new(4, 5)));
        assert!(!wire.contains(Coord::new(4, 6)));
    }

    #[test]
    fn intersection_includes_touching_edges() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(2, 2, 4, 4);
        let c = Rect::new(3, 0, 5, 1);
        assert!(a.intersects(&b)); // shared corner
        assert!(!a.intersects(&c));
        assert!(!b.intersects(&c)); // x ranges overlap but y ranges do not
    }

    #[test]
    fn corners_are_distinct_for_proper_rects() {
        let r = Rect::new(0, 0, 3, 4);
        let cs = r.corners();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(cs[i], cs[j]);
            }
        }
        for c in cs {
            assert!(r.contains(c));
        }
    }
}
