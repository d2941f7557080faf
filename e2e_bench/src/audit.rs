//! An output audit that shares no code with the routers: it re-derives
//! every property of a returned tree from the graph's accessors alone.

use std::fmt;

use oarsmt_geom::{HananGraph, VertexKind};

/// Why a tree failed the audit.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// An endpoint index is outside the graph.
    OutOfRange(u32),
    /// The edge does not join grid neighbors.
    NotAdjacent(u32, u32),
    /// The tree passes through an obstacle vertex.
    ObstacleVertex(u32),
    /// The edge closes a cycle.
    Cycle(u32, u32),
    /// The edges form more than one component.
    Disconnected,
    /// A pin is not a vertex of the tree.
    MissingPin(u32),
    /// The reported cost differs from the sum of the edge costs.
    CostMismatch { reported: f64, recomputed: f64 },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Checks `edges` (vertex-index pairs) with reported cost `cost` as a tree
/// on `graph`: every edge joins grid neighbors, no vertex is an obstacle,
/// the edges are acyclic and connected, every pin is spanned, and the
/// recomputed cost equals the reported one bit for bit.
///
/// Bit equality holds because every benchmark cost is an integer well
/// below 2^53, so the sum is exact in any order.
pub fn audit(graph: &HananGraph, edges: &[(u32, u32)], cost: f64) -> Result<(), AuditError> {
    let n = graph.len();
    let mut uf = UnionFind::new(n);
    let mut on_tree = vec![false; n];
    let mut vertices = 0usize;
    let mut recomputed = 0.0f64;
    for &(a, b) in edges {
        for x in [a, b] {
            if x as usize >= n {
                return Err(AuditError::OutOfRange(x));
            }
            if graph.kind_at(x as usize) == VertexKind::Obstacle {
                return Err(AuditError::ObstacleVertex(x));
            }
            if !on_tree[x as usize] {
                on_tree[x as usize] = true;
                vertices += 1;
            }
        }
        let w = graph
            .edge_cost(graph.point(a as usize), graph.point(b as usize))
            .ok_or(AuditError::NotAdjacent(a, b))?;
        if !uf.union(a as usize, b as usize) {
            return Err(AuditError::Cycle(a, b));
        }
        recomputed += w;
    }
    // Acyclic with |V| = |E| + 1 means exactly one component.
    if !edges.is_empty() && vertices != edges.len() + 1 {
        return Err(AuditError::Disconnected);
    }
    for &p in graph.pins() {
        let idx = graph.index(p);
        if !on_tree[idx] && graph.pins().len() > 1 {
            return Err(AuditError::MissingPin(idx as u32));
        }
    }
    if recomputed.to_bits() != cost.to_bits() {
        return Err(AuditError::CostMismatch {
            reported: cost,
            recomputed,
        });
    }
    Ok(())
}

/// Whether every pin is reachable from the first through non-obstacle
/// vertices (breadth-first over the six grid directions).
pub fn routable(graph: &HananGraph) -> bool {
    let Some(&first) = graph.pins().first() else {
        return true;
    };
    let (h, v, m) = graph.dims();
    let mut seen = vec![false; graph.len()];
    let mut queue = vec![graph.index(first)];
    seen[queue[0]] = true;
    while let Some(idx) = queue.pop() {
        let p = graph.point(idx);
        let steps = [
            (p.h + 1 < h).then(|| (p.h + 1, p.v, p.m)),
            (p.h > 0).then(|| (p.h - 1, p.v, p.m)),
            (p.v + 1 < v).then(|| (p.h, p.v + 1, p.m)),
            (p.v > 0).then(|| (p.h, p.v - 1, p.m)),
            (p.m + 1 < m).then(|| (p.h, p.v, p.m + 1)),
            (p.m > 0).then(|| (p.h, p.v, p.m - 1)),
        ];
        for (nh, nv, nm) in steps.into_iter().flatten() {
            let q = graph.index(oarsmt_geom::GridPoint::new(nh, nv, nm));
            if !seen[q] && graph.kind_at(q) != VertexKind::Obstacle {
                seen[q] = true;
                queue.push(q);
            }
        }
    }
    graph.pins().iter().all(|&p| seen[graph.index(p)])
}

/// Union-find with path halving.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    /// Joins the sets of `a` and `b`; `false` when they were already one.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra] = rb;
        ra != rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    /// A 3×3×1 grid with unit gaps, pins at two corners, an obstacle in
    /// the middle.
    fn grid() -> HananGraph {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 0, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g
    }

    fn idx(g: &HananGraph, h: usize, v: usize) -> u32 {
        g.index(GridPoint::new(h, v, 0)) as u32
    }

    #[test]
    fn accepts_a_valid_tree() {
        let g = grid();
        let e = [
            (idx(&g, 0, 0), idx(&g, 1, 0)),
            (idx(&g, 1, 0), idx(&g, 2, 0)),
        ];
        assert_eq!(audit(&g, &e, 2.0), Ok(()));
    }

    #[test]
    fn rejects_a_cycle() {
        let mut g = HananGraph::uniform(2, 2, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(1, 1, 0)).unwrap();
        let (a, b, c, d) = (idx(&g, 0, 0), idx(&g, 1, 0), idx(&g, 1, 1), idx(&g, 0, 1));
        let square = [(a, b), (b, c), (c, d), (d, a)];
        assert_eq!(audit(&g, &square, 4.0), Err(AuditError::Cycle(d, a)));
    }

    #[test]
    fn rejects_an_obstacle_vertex() {
        let g = grid();
        let e = [
            (idx(&g, 0, 0), idx(&g, 1, 0)),
            (idx(&g, 1, 0), idx(&g, 1, 1)),
            (idx(&g, 1, 0), idx(&g, 2, 0)),
        ];
        assert_eq!(
            audit(&g, &e, 3.0),
            Err(AuditError::ObstacleVertex(idx(&g, 1, 1)))
        );
    }

    #[test]
    fn rejects_a_missing_pin() {
        let g = grid();
        let e = [(idx(&g, 0, 0), idx(&g, 1, 0))];
        assert_eq!(
            audit(&g, &e, 1.0),
            Err(AuditError::MissingPin(idx(&g, 2, 0)))
        );
    }

    #[test]
    fn rejects_a_wrong_cost() {
        let g = grid();
        let e = [
            (idx(&g, 0, 0), idx(&g, 1, 0)),
            (idx(&g, 1, 0), idx(&g, 2, 0)),
        ];
        assert!(matches!(
            audit(&g, &e, 2.0 + f64::EPSILON * 4.0),
            Err(AuditError::CostMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_adjacent_and_disconnected_edges() {
        let g = grid();
        let jump = [(idx(&g, 0, 0), idx(&g, 2, 0))];
        assert!(matches!(
            audit(&g, &jump, 2.0),
            Err(AuditError::NotAdjacent(_, _))
        ));
        let split = [
            (idx(&g, 0, 0), idx(&g, 0, 1)),
            (idx(&g, 2, 0), idx(&g, 2, 1)),
        ];
        assert_eq!(audit(&g, &split, 2.0), Err(AuditError::Disconnected));
    }

    #[test]
    fn bfs_sees_walled_off_pins() {
        let mut g = HananGraph::uniform(3, 1, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 0, 0)).unwrap();
        assert!(routable(&g));
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        assert!(!routable(&g));
    }
}
