//! Compressed sparse-row adjacency for Hanan grid graphs.
//!
//! [`HananGraph::neighbors`] recomputes grid-point arithmetic and obstacle
//! lookups for every neighbor of every settled vertex — the innermost loop
//! of the maze router. [`GridAdjacency`] flattens that iteration once per
//! layout into index-based CSR arrays so repeated Dijkstra queries (an
//! OARMST construction runs one per Prim iteration, per prune round, per
//! polish reroute) pay only an array walk per relaxation.
//!
//! Neighbor order within each vertex is exactly the order
//! [`HananGraph::neighbors`] yields (+h, −h, +v, −v, +m, −m, skipping
//! blocked or out-of-bounds vertices), and edge costs are the same `f64`
//! values, so a Dijkstra driven by the CSR pushes the same heap entries in
//! the same order as the point-based iteration: results are bit-identical.

use oarsmt_geom::{HananGraph, VertexKind};

/// Flattened neighbor lists of a [`HananGraph`], plus the graph fingerprint
/// they were built from so a cached instance can revalidate itself cheaply.
///
/// The fingerprint covers everything the adjacency depends on — dimensions,
/// per-gap costs, via cost, and the full vertex-kind vector (obstacles
/// change connectivity) — so [`GridAdjacency::ensure`] is safe to call with
/// *any* graph, not just the one the cache was last built for.
///
/// # Example
///
/// ```
/// use oarsmt_geom::{GridPoint, HananGraph};
/// use oarsmt_graph::GridAdjacency;
///
/// let g = HananGraph::uniform(3, 3, 1, 1.0, 2.0, 3.0);
/// let mut adj = GridAdjacency::new();
/// adj.ensure(&g); // builds once
/// adj.ensure(&g); // no-op: fingerprint matches
/// let center = g.index(GridPoint::new(1, 1, 0));
/// let from_graph: Vec<(usize, f64)> = g
///     .neighbors(GridPoint::new(1, 1, 0))
///     .map(|(p, c)| (g.index(p), c))
///     .collect();
/// let from_csr: Vec<(usize, f64)> = adj
///     .neighbors(center)
///     .map(|(i, c)| (i as usize, c))
///     .collect();
/// assert_eq!(from_graph, from_csr);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GridAdjacency {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Neighbor vertex indices, concatenated per vertex.
    nbr: Vec<u32>,
    /// Edge cost to the neighbor at the same position in `nbr`.
    cost: Vec<f64>,
    // Fingerprint of the graph the arrays were built from.
    dims: (usize, usize, usize),
    via_cost: f64,
    x_costs: Vec<f64>,
    y_costs: Vec<f64>,
    kinds: Vec<VertexKind>,
}

impl GridAdjacency {
    /// Creates an empty adjacency; [`GridAdjacency::ensure`] builds it on
    /// first use.
    pub fn new() -> Self {
        GridAdjacency::default()
    }

    /// Whether the cached arrays were built from a graph indistinguishable
    /// from `graph` (same dimensions, costs, and vertex kinds).
    pub fn matches(&self, graph: &HananGraph) -> bool {
        self.dims == graph.dims()
            && self.via_cost.to_bits() == graph.via_cost().to_bits()
            && self.x_costs == graph.x_costs()
            && self.y_costs == graph.y_costs()
            && self.kinds == graph.kinds()
    }

    /// Rebuilds the arrays from `graph` unless the fingerprint already
    /// matches. The comparison is `O(n)` and the rebuild `O(n)`; both are
    /// negligible next to a single maze query, so hot paths call this
    /// unconditionally.
    pub fn ensure(&mut self, graph: &HananGraph) {
        if self.matches(graph) {
            return;
        }
        // One pass in index order, `(h, v, m)` lexicographic: the `±h`,
        // `±v` and `±m` neighbors sit `v·m`, `m` and 1 indices away.
        let (h, v, m) = graph.dims();
        let kinds = graph.kinds();
        let (xc, yc, via) = (graph.x_costs(), graph.y_costs(), graph.via_cost());
        let (sh, sv) = (v * m, m);
        let GridAdjacency {
            offsets, nbr, cost, ..
        } = self;
        offsets.clear();
        offsets.reserve(kinds.len() + 1);
        nbr.clear();
        cost.clear();
        offsets.push(0);
        // Appends neighbor `j` at edge cost `c` unless an obstacle blocks it.
        let push = |nbr: &mut Vec<u32>, cost: &mut Vec<f64>, j: usize, c: f64| {
            if kinds[j] != VertexKind::Obstacle {
                nbr.push(j as u32);
                cost.push(c);
            }
        };
        let mut idx = 0;
        for ih in 0..h {
            for iv in 0..v {
                for im in 0..m {
                    if ih + 1 < h {
                        push(nbr, cost, idx + sh, xc[ih]);
                    }
                    if ih > 0 {
                        push(nbr, cost, idx - sh, xc[ih - 1]);
                    }
                    if iv + 1 < v {
                        push(nbr, cost, idx + sv, yc[iv]);
                    }
                    if iv > 0 {
                        push(nbr, cost, idx - sv, yc[iv - 1]);
                    }
                    if im + 1 < m {
                        push(nbr, cost, idx + 1, via);
                    }
                    if im > 0 {
                        push(nbr, cost, idx - 1, via);
                    }
                    offsets.push(nbr.len() as u32);
                    idx += 1;
                }
            }
        }
        self.dims = (h, v, m);
        self.via_cost = via;
        self.x_costs.clear();
        self.x_costs.extend_from_slice(xc);
        self.y_costs.clear();
        self.y_costs.extend_from_slice(yc);
        self.kinds.clear();
        self.kinds.extend_from_slice(kinds);
    }

    /// Whether the adjacency has been built at all.
    pub fn is_built(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// Number of vertices the adjacency was built for (0 if unbuilt).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the adjacency is unbuilt or built for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unblocked neighbors of vertex `idx` with their edge costs, in
    /// [`HananGraph::neighbors`] order.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is unbuilt or `idx` is out of range.
    #[inline]
    pub fn neighbors(&self, idx: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        self.nbr[lo..hi]
            .iter()
            .copied()
            .zip(self.cost[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    fn obstructed_grid() -> HananGraph {
        let mut g =
            HananGraph::with_costs(4, 3, 2, vec![1.0, 2.5, 1.0], vec![2.0, 1.0], 3.0).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 0, 1)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g
    }

    #[test]
    fn csr_matches_neighbors_iterator_everywhere() {
        let g = obstructed_grid();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        assert_eq!(adj.len(), g.len());
        for idx in 0..g.len() {
            let expect: Vec<(u32, u64)> = g
                .neighbors(g.point(idx))
                .map(|(q, w)| (g.index(q) as u32, w.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = adj.neighbors(idx).map(|(i, w)| (i, w.to_bits())).collect();
            assert_eq!(expect, got, "vertex {idx}");
        }
    }

    #[test]
    fn ensure_rebuilds_when_obstacles_change() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let center = g.index(GridPoint::new(1, 1, 0));
        assert_eq!(adj.neighbors(center).count(), 4);
        g.add_obstacle_vertex(GridPoint::new(2, 1, 0)).unwrap();
        assert!(!adj.matches(&g));
        adj.ensure(&g);
        assert_eq!(adj.neighbors(center).count(), 3);
    }

    #[test]
    fn ensure_is_a_noop_on_matching_graph() {
        let g = obstructed_grid();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let before = (adj.offsets.clone(), adj.nbr.clone());
        adj.ensure(&g);
        assert_eq!(before, (adj.offsets.clone(), adj.nbr.clone()));
        assert!(adj.matches(&g));
    }

    #[test]
    fn unbuilt_adjacency_reports_empty() {
        let adj = GridAdjacency::new();
        assert!(!adj.is_built());
        assert!(adj.is_empty());
        assert_eq!(adj.len(), 0);
    }
}
