//! Redundant Steiner-point detection.
//!
//! A Steiner point with tree degree less than 3 is redundant (Section 2.1 of
//! the paper): it cannot create a routing segment shared by three or more
//! branches, so keeping it as a terminal can only lengthen the tree.

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::StampMap;

use crate::tree::RouteTree;

/// Counts tree degrees into the caller's stamped `degrees` map and retains
/// only the irredundant candidates (tree degree ≥ 3) in `kept`, preserving
/// their order. Returns how many candidates were removed — the OARMST
/// router's prune loop stops when this reaches zero.
///
/// Candidates absent from the tree entirely (degree 0) are redundant too.
///
/// # Example
///
/// ```
/// use oarsmt_geom::{HananGraph, GridPoint};
/// use oarsmt_graph::StampMap;
/// use oarsmt_router::{prune::retain_irredundant_in, OarmstRouter, RouteContext};
///
/// let mut g = HananGraph::uniform(6, 1, 1, 1.0, 1.0, 3.0);
/// g.add_pin(GridPoint::new(0, 0, 0))?;
/// g.add_pin(GridPoint::new(5, 0, 0))?;
/// let cand = [GridPoint::new(3, 0, 0)];
/// // Prune and polish off: the bare Prim build.
/// let tree = OarmstRouter::new()
///     .with_max_prune_rounds(0)
///     .with_polish_rounds(0)
///     .route_in(&mut RouteContext::new(), &g, &cand)?;
/// // The on-path candidate has degree 2: redundant.
/// let mut kept = cand.to_vec();
/// assert_eq!(retain_irredundant_in(&mut StampMap::new(), &g, &tree, &mut kept), 1);
/// assert!(kept.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn retain_irredundant_in(
    degrees: &mut StampMap,
    graph: &HananGraph,
    tree: &RouteTree,
    kept: &mut Vec<GridPoint>,
) -> usize {
    degrees.begin(graph.len());
    for &(a, b) in tree.edges() {
        degrees.add(a as usize, 1);
        degrees.add(b as usize, 1);
    }
    let before = kept.len();
    kept.retain(|&c| degrees.get(graph.index(c)) >= 3);
    before - kept.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;
    use crate::RouteContext;

    #[test]
    fn center_of_a_cross_is_kept_and_a_stray_dropped() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let center = GridPoint::new(2, 2, 0);
        let stray = GridPoint::new(4, 4, 0);
        let tree = OarmstRouter::new()
            .with_max_prune_rounds(0)
            .with_polish_rounds(0)
            .route_in(&mut RouteContext::new(), &g, &[stray, center])
            .unwrap();
        let mut kept = vec![stray, center];
        let removed = retain_irredundant_in(&mut StampMap::new(), &g, &tree, &mut kept);
        assert_eq!(removed, 1);
        assert_eq!(kept, vec![center]);
    }

    #[test]
    fn absent_candidate_is_redundant() {
        let mut g = HananGraph::uniform(4, 2, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 0, 0)).unwrap();
        let tree = OarmstRouter::new()
            .with_max_prune_rounds(0)
            .with_polish_rounds(0)
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        // A vertex not in the tree at all is degree 0 -> redundant.
        let mut kept = vec![GridPoint::new(1, 1, 0)];
        assert_eq!(
            retain_irredundant_in(&mut StampMap::new(), &g, &tree, &mut kept),
            1
        );
        assert!(kept.is_empty());
    }
}
