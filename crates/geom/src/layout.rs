//! Physical multi-layer layouts: pins plus obstacles in database units.
//!
//! A [`Layout`] is the "original coordinates" view of a routing problem. It
//! is reduced to a [`HananGraph`](crate::hanan::HananGraph) — the input
//! representation of the paper — via
//! [`HananGraph::from_layout`](crate::hanan::HananGraph::from_layout).

use std::fmt;

use crate::coord::Coord;
use crate::error::GeomError;
use crate::rect::Obstacle;

/// A pin to be connected: a physical coordinate on a routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pin {
    /// Physical position of the pin.
    pub at: Coord,
    /// Routing layer of the pin.
    pub layer: usize,
}

impl Pin {
    /// Creates a pin at `at` on `layer`.
    pub fn new(at: Coord, layer: usize) -> Self {
        Pin { at, layer }
    }
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on layer {}", self.at, self.layer)
    }
}

/// A physical ML-OARSMT routing problem: pins, obstacles, a via cost, and a
/// number of routing layers.
///
/// The builder-style `with_*` methods make construction readable:
///
/// ```
/// use oarsmt_geom::{Layout, Pin, Coord, Obstacle, Rect};
///
/// let layout = Layout::new(2)
///     .with_pin(Pin::new(Coord::new(0, 0), 0))
///     .with_pin(Pin::new(Coord::new(10, 10), 1))
///     .with_obstacle(Obstacle::new(Rect::new(4, 4, 6, 6), 0))
///     .with_via_cost(3.0);
/// assert_eq!(layout.pins().len(), 2);
/// layout.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    layers: usize,
    pins: Vec<Pin>,
    obstacles: Vec<Obstacle>,
    via_cost: f64,
}

impl Layout {
    /// Creates an empty layout with `layers` routing layers and the default
    /// via cost of `3.0` (the value used for the public benchmarks of
    /// Table 4).
    pub fn new(layers: usize) -> Self {
        Layout {
            layers,
            pins: Vec::new(),
            obstacles: Vec::new(),
            via_cost: 3.0,
        }
    }

    /// Adds a pin (builder style).
    #[must_use]
    pub fn with_pin(mut self, pin: Pin) -> Self {
        self.pins.push(pin);
        self
    }

    /// Adds an obstacle (builder style).
    #[must_use]
    pub fn with_obstacle(mut self, ob: Obstacle) -> Self {
        self.obstacles.push(ob);
        self
    }

    /// Sets the via cost (builder style).
    #[must_use]
    pub fn with_via_cost(mut self, cost: f64) -> Self {
        self.via_cost = cost;
        self
    }

    /// The pins of the layout.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The obstacles of the layout.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// The number of routing layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The uniform via cost `C_via` between adjacent layers.
    pub fn via_cost(&self) -> f64 {
        self.via_cost
    }

    /// Checks that the layout is routable.
    ///
    /// # Errors
    ///
    /// * [`GeomError::TooFewPins`] if there are fewer than two pins.
    /// * [`GeomError::EmptyDimension`] if there are zero layers.
    /// * [`GeomError::InvalidCost`] if the via cost is not finite/positive.
    /// * [`GeomError::OutOfBounds`] if a pin or obstacle names a layer `>=
    ///   layers`.
    /// * [`GeomError::PinOnObstacle`] if a pin lies inside an obstacle on the
    ///   same layer.
    pub fn validate(&self) -> Result<(), GeomError> {
        if self.layers == 0 {
            return Err(GeomError::EmptyDimension { dims: (0, 0, 0) });
        }
        if self.pins.len() < 2 {
            return Err(GeomError::TooFewPins(self.pins.len()));
        }
        if !self.via_cost.is_finite() || self.via_cost <= 0.0 {
            return Err(GeomError::InvalidCost(self.via_cost));
        }
        for pin in &self.pins {
            if pin.layer >= self.layers {
                return Err(GeomError::OutOfBounds {
                    point: crate::coord::GridPoint::new(0, 0, pin.layer),
                    dims: (usize::MAX, usize::MAX, self.layers),
                });
            }
        }
        for ob in &self.obstacles {
            if ob.layer >= self.layers {
                return Err(GeomError::OutOfBounds {
                    point: crate::coord::GridPoint::new(0, 0, ob.layer),
                    dims: (usize::MAX, usize::MAX, self.layers),
                });
            }
        }
        for pin in &self.pins {
            for ob in &self.obstacles {
                if ob.layer == pin.layer && ob.rect.contains(pin.at) {
                    return Err(GeomError::PinOnObstacle(crate::coord::GridPoint::new(
                        0, 0, pin.layer,
                    )));
                }
            }
        }
        Ok(())
    }

    /// Bounding box `(min, max)` of all pins and obstacle corners, or `None`
    /// for an empty layout.
    pub fn bounding_box(&self) -> Option<(Coord, Coord)> {
        let mut it = self
            .pins
            .iter()
            .map(|p| p.at)
            .chain(self.obstacles.iter().flat_map(|o| o.rect.corners()));
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for c in it {
            lo.x = lo.x.min(c.x);
            lo.y = lo.y.min(c.y);
            hi.x = hi.x.max(c.x);
            hi.y = hi.y.max(c.y);
        }
        Some((lo, hi))
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout: {} pins, {} obstacles, {} layers, via cost {}",
            self.pins.len(),
            self.obstacles.len(),
            self.layers,
            self.via_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn two_pin_layout() -> Layout {
        Layout::new(2)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(8, 8), 1))
    }

    #[test]
    fn validate_accepts_simple_layout() {
        two_pin_layout().validate().unwrap();
    }

    #[test]
    fn validate_rejects_single_pin() {
        let l = Layout::new(1).with_pin(Pin::new(Coord::new(0, 0), 0));
        assert_eq!(l.validate(), Err(GeomError::TooFewPins(1)));
    }

    #[test]
    fn validate_rejects_zero_layers() {
        let l = Layout::new(0)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(1, 1), 0));
        assert!(matches!(
            l.validate(),
            Err(GeomError::EmptyDimension { .. })
        ));
    }

    #[test]
    fn validate_rejects_pin_inside_obstacle() {
        let l = two_pin_layout().with_obstacle(Obstacle::new(Rect::new(-1, -1, 1, 1), 0));
        assert!(matches!(l.validate(), Err(GeomError::PinOnObstacle(_))));
    }

    #[test]
    fn validate_allows_pin_over_obstacle_on_other_layer() {
        let l = two_pin_layout().with_obstacle(Obstacle::new(Rect::new(-1, -1, 1, 1), 1));
        l.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_via_cost() {
        let l = two_pin_layout().with_via_cost(0.0);
        assert_eq!(l.validate(), Err(GeomError::InvalidCost(0.0)));
    }

    #[test]
    fn validate_rejects_out_of_range_layers() {
        let l = two_pin_layout().with_pin(Pin::new(Coord::new(4, 4), 7));
        assert!(matches!(l.validate(), Err(GeomError::OutOfBounds { .. })));
    }

    #[test]
    fn bounding_box_covers_pins_and_obstacles() {
        let l = two_pin_layout().with_obstacle(Obstacle::new(Rect::new(-5, 2, 3, 20), 0));
        let (lo, hi) = l.bounding_box().unwrap();
        assert_eq!(lo, Coord::new(-5, 0));
        assert_eq!(hi, Coord::new(8, 20));
    }

    #[test]
    fn bounding_box_empty_layout_is_none() {
        assert!(Layout::new(1).bounding_box().is_none());
    }
}
