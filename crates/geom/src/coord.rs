//! Physical coordinates and Hanan-grid points.

use std::fmt;

/// A physical 2D coordinate on a routing layer (database units).
///
/// Physical coordinates describe the original layout before Hanan reduction;
/// after reduction, positions are addressed by [`GridPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Horizontal position.
    pub x: i64,
    /// Vertical position.
    pub y: i64,
}

impl Coord {
    /// Creates a coordinate from its `x` and `y` components.
    ///
    /// ```
    /// use oarsmt_geom::coord::Coord;
    /// let c = Coord::new(3, -7);
    /// assert_eq!((c.x, c.y), (3, -7));
    /// ```
    pub fn new(x: i64, y: i64) -> Self {
        Coord { x, y }
    }

    /// Rectilinear (Manhattan) distance to another coordinate.
    ///
    /// ```
    /// use oarsmt_geom::coord::Coord;
    /// assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
    /// ```
    pub fn manhattan(self, other: Coord) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Coord {
    fn from((x, y): (i64, i64)) -> Self {
        Coord::new(x, y)
    }
}

/// A vertex of a 3D Hanan grid graph, addressed by grid indices.
///
/// The triple `(h, v, m)` names the vertex at the `h`-th horizontal grid
/// column, `v`-th vertical grid row, and `m`-th routing layer (all
/// zero-based). The derived [`Ord`] is lexicographic on `(h, v, m)`, which is
/// exactly the **selection priority** of the paper's combinatorial MCTS
/// (Section 3.4): a point with smaller lexicographic order has *higher*
/// selection priority.
///
/// ```
/// use oarsmt_geom::coord::GridPoint;
/// let a = GridPoint::new(1, 9, 9);
/// let b = GridPoint::new(2, 0, 0);
/// assert!(a < b); // a has higher selection priority
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GridPoint {
    /// Horizontal grid index (column), in `0..H`.
    pub h: usize,
    /// Vertical grid index (row), in `0..V`.
    pub v: usize,
    /// Routing layer index, in `0..M`.
    pub m: usize,
}

impl GridPoint {
    /// Creates a grid point from its `(h, v, m)` indices.
    pub fn new(h: usize, v: usize, m: usize) -> Self {
        GridPoint { h, v, m }
    }

    /// Manhattan distance in grid steps, counting the layer axis.
    ///
    /// This is a *grid-step* distance (number of hops), not a routing cost;
    /// edge costs live on the owning
    /// [`HananGraph`](crate::hanan::HananGraph).
    pub fn grid_distance(self, other: GridPoint) -> usize {
        self.h.abs_diff(other.h) + self.v.abs_diff(other.v) + self.m.abs_diff(other.m)
    }
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.h, self.v, self.m)
    }
}

impl From<(usize, usize, usize)> for GridPoint {
    fn from((h, v, m): (usize, usize, usize)) -> Self {
        GridPoint::new(h, v, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Coord::new(-3, 10);
        let b = Coord::new(7, -2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(b), 22);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn grid_point_order_is_lexicographic_hvm() {
        // Priority per the paper: smaller (h, v, m) lexicographic order is
        // higher priority.
        let mut pts = vec![
            GridPoint::new(1, 0, 1),
            GridPoint::new(0, 2, 0),
            GridPoint::new(0, 0, 3),
            GridPoint::new(1, 0, 0),
        ];
        pts.sort();
        assert_eq!(
            pts,
            vec![
                GridPoint::new(0, 0, 3),
                GridPoint::new(0, 2, 0),
                GridPoint::new(1, 0, 0),
                GridPoint::new(1, 0, 1),
            ]
        );
    }

    #[test]
    fn grid_distance_counts_all_axes() {
        let a = GridPoint::new(0, 0, 0);
        let b = GridPoint::new(2, 3, 1);
        assert_eq!(a.grid_distance(b), 6);
        assert_eq!(b.grid_distance(a), 6);
    }

    #[test]
    fn conversions_from_tuples() {
        assert_eq!(Coord::from((1, 2)), Coord::new(1, 2));
        assert_eq!(GridPoint::from((1, 2, 3)), GridPoint::new(1, 2, 3));
    }
}
