//! Error types for geometry construction and validation.

use std::error::Error;
use std::fmt;

use crate::coord::GridPoint;

/// Errors produced while building layouts or Hanan grid graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GeomError {
    /// A grid point lies outside the `(H, V, M)` dimensions of the graph.
    OutOfBounds {
        /// The offending point.
        point: GridPoint,
        /// Grid dimensions `(h, v, m)` at the time of the access.
        dims: (usize, usize, usize),
    },
    /// A pin was placed on a vertex already occupied by an obstacle.
    PinOnObstacle(GridPoint),
    /// A pin was placed on a vertex that already holds a pin.
    DuplicatePin(GridPoint),
    /// A dimension of the requested grid is zero.
    EmptyDimension {
        /// Requested dimensions `(h, v, m)`.
        dims: (usize, usize, usize),
    },
    /// An edge or via cost is not finite or not positive.
    InvalidCost(f64),
    /// The grid has more vertices than [`MAX_VERTICES`](crate::hanan::MAX_VERTICES)
    /// (or `h · v · m` overflows); nothing was allocated.
    TooManyVertices {
        /// Requested dimensions `(h, v, m)`.
        dims: (usize, usize, usize),
    },
    /// A path cost could overflow `f64`: the largest edge cost (carried)
    /// times the vertex count is not finite.
    PathCostOverflow(f64),
    /// A layout has fewer than two pins, so no routing tree exists.
    TooFewPins(usize),
    /// A generator configuration asks for more pins than its grid has
    /// vertices, so some of its layouts can never be drawn.
    TooManyPins {
        /// The largest pin count the configuration may draw.
        pins: usize,
        /// The grid's vertex count.
        vertices: usize,
    },
    /// The layout geometry produced no Hanan cuts (no pins or obstacles).
    NoCuts,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::OutOfBounds { point, dims } => write!(
                f,
                "grid point {point} is outside dimensions {}x{}x{}",
                dims.0, dims.1, dims.2
            ),
            GeomError::PinOnObstacle(p) => {
                write!(f, "pin at {p} collides with an obstacle vertex")
            }
            GeomError::DuplicatePin(p) => write!(f, "duplicate pin at {p}"),
            GeomError::EmptyDimension { dims } => write!(
                f,
                "grid dimensions {}x{}x{} contain an empty axis",
                dims.0, dims.1, dims.2
            ),
            GeomError::InvalidCost(c) => {
                write!(f, "routing cost {c} is not finite and positive")
            }
            GeomError::TooManyVertices { dims } => write!(
                f,
                "grid dimensions {}x{}x{} exceed {} vertices",
                dims.0,
                dims.1,
                dims.2,
                crate::hanan::MAX_VERTICES
            ),
            GeomError::PathCostOverflow(c) => {
                write!(f, "routing cost {c} lets a path cost overflow")
            }
            GeomError::TooFewPins(n) => {
                write!(f, "layout has {n} pins but routing needs at least 2")
            }
            GeomError::TooManyPins { pins, vertices } => {
                write!(f, "{pins} pins do not fit on a grid of {vertices} vertices")
            }
            GeomError::NoCuts => write!(f, "layout produced no hanan cuts"),
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errors: Vec<GeomError> = vec![
            GeomError::OutOfBounds {
                point: GridPoint::new(9, 9, 9),
                dims: (4, 4, 2),
            },
            GeomError::PinOnObstacle(GridPoint::new(0, 0, 0)),
            GeomError::DuplicatePin(GridPoint::new(1, 1, 0)),
            GeomError::EmptyDimension { dims: (0, 4, 2) },
            GeomError::InvalidCost(f64::NAN),
            GeomError::TooManyVertices {
                dims: (1 << 20, 1 << 20, 1),
            },
            GeomError::PathCostOverflow(1e308),
            GeomError::TooFewPins(1),
            GeomError::TooManyPins {
                pins: 5,
                vertices: 4,
            },
            GeomError::NoCuts,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing period: {s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeomError>();
    }
}
