//! Redundant Steiner-point detection.
//!
//! A Steiner point with tree degree less than 3 is redundant (Section 2.1 of
//! the paper): it cannot create a routing segment shared by three or more
//! branches, so keeping it as a terminal can only lengthen the tree.

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::StampMap;

use crate::tree::RouteTree;

/// Returns the Steiner candidates whose degree in `tree` is less than 3 —
/// the redundant ones that the OARMST router removes before reconstructing.
///
/// Candidates absent from the tree entirely (degree 0) are also redundant.
///
/// # Example
///
/// ```
/// use oarsmt_geom::{HananGraph, GridPoint};
/// use oarsmt_router::{prune::redundant_candidates, OarmstRouter, RouteContext};
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
/// assert_eq!(redundant_candidates(&g, &tree, &cand), vec![cand[0]]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn redundant_candidates(
    graph: &HananGraph,
    tree: &RouteTree,
    candidates: &[GridPoint],
) -> Vec<GridPoint> {
    let degrees = tree.degrees();
    candidates
        .iter()
        .copied()
        .filter(|&c| {
            let idx = graph.index(c) as u32;
            degrees.get(&idx).copied().unwrap_or(0) < 3
        })
        .collect()
}

/// In-place counterpart of [`redundant_candidates`] for the routing hot
/// loop: counts tree degrees into the caller's stamped `degrees` map and
/// retains only the irredundant candidates (tree degree ≥ 3) in `kept`,
/// preserving their order. Returns how many candidates were removed — the
/// prune loop stops when this reaches zero, exactly when
/// [`redundant_candidates`] would have returned an empty list.
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

/// Splits candidates into `(irredundant, redundant)` by tree degree.
pub fn partition_candidates(
    graph: &HananGraph,
    tree: &RouteTree,
    candidates: &[GridPoint],
) -> (Vec<GridPoint>, Vec<GridPoint>) {
    let degrees = tree.degrees();
    let mut keep = Vec::new();
    let mut drop = Vec::new();
    for &c in candidates {
        let idx = graph.index(c) as u32;
        if degrees.get(&idx).copied().unwrap_or(0) >= 3 {
            keep.push(c);
        } else {
            drop.push(c);
        }
    }
    (keep, drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;
    use crate::RouteContext;

    #[test]
    fn center_of_a_cross_is_irredundant() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let center = GridPoint::new(2, 2, 0);
        let tree = OarmstRouter::new()
            .with_max_prune_rounds(0)
            .with_polish_rounds(0)
            .route_in(&mut RouteContext::new(), &g, &[center])
            .unwrap();
        let (keep, drop) = partition_candidates(&g, &tree, &[center]);
        assert_eq!(keep, vec![center]);
        assert!(drop.is_empty());
    }

    #[test]
    fn retain_irredundant_in_matches_redundant_candidates() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let center = GridPoint::new(2, 2, 0);
        let stray = GridPoint::new(4, 4, 0);
        let cands = [center, stray];
        let tree = OarmstRouter::new()
            .with_max_prune_rounds(0)
            .with_polish_rounds(0)
            .route_in(&mut RouteContext::new(), &g, &cands)
            .unwrap();
        let redundant = redundant_candidates(&g, &tree, &cands);
        let mut kept = cands.to_vec();
        let mut degrees = StampMap::new();
        let removed = retain_irredundant_in(&mut degrees, &g, &tree, &mut kept);
        assert_eq!(removed, redundant.len());
        for c in &cands {
            assert_eq!(kept.contains(c), !redundant.contains(c), "candidate {c}");
        }
    }

    #[test]
    fn absent_candidate_is_redundant() {
        let mut g = HananGraph::uniform(4, 1, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 0, 0)).unwrap();
        let tree = OarmstRouter::new()
            .with_max_prune_rounds(0)
            .with_polish_rounds(0)
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let ghost = GridPoint::new(1, 0, 0);
        // ghost lies on the path with degree 2 -> redundant; a vertex not in
        // the tree at all is degree 0 -> redundant too.
        assert_eq!(redundant_candidates(&g, &tree, &[ghost]), vec![ghost]);
    }
}
