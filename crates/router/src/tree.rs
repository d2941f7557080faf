//! Routing trees over Hanan grid graphs.

use std::fmt;

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::UnionFind;

/// A rectilinear routing tree embedded in a Hanan grid graph: a list of
/// distinct grid edges (each between adjacent vertices) plus the total
/// routing cost.
///
/// The tree is built by routers in this crate; its invariants (acyclicity,
/// connectivity, spanning the terminals) can be checked with
/// [`RouteTree::is_tree`] and [`RouteTree::spans_in`].
#[derive(Debug, Clone, Default)]
pub struct RouteTree {
    /// Grid edges as `(min_index, max_index)` pairs of linear vertex
    /// indices, in insertion order; each pair appears once (DESIGN.md §7).
    edges: Vec<(u32, u32)>,
    cost: f64,
}

impl RouteTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RouteTree::default()
    }

    /// Total routing cost (each grid edge counted once).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Removes all edges, keeping the allocation (used by the
    /// [`crate::context::RouteContext`] tree pool).
    pub fn clear(&mut self) {
        self.edges.clear();
        self.cost = 0.0;
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocation where
    /// possible (a `clone_from` under a clearer name).
    pub fn copy_from(&mut self, other: &RouteTree) {
        self.edges.clear();
        self.edges.extend_from_slice(&other.edges);
        self.cost = other.cost;
    }

    /// Number of grid edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the tree contains no edges.
    pub fn is_edgeless(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges as linear-index pairs.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Appends the grid edge between adjacent vertices `a` and `b`,
    /// accumulating its cost. The edge must not be in the tree yet
    /// (checked in debug builds); callers whose paths may overlap skip
    /// the edges they have already placed.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not grid neighbors.
    pub fn add_edge(&mut self, graph: &HananGraph, a: GridPoint, b: GridPoint) {
        // lint: panic-ok(documented caller contract — see # Panics above; a non-adjacent edge is a corrupt tree and must not be silently priced)
        let w = graph
            .edge_cost(a, b)
            .expect("route tree edges must connect grid neighbors");
        let ai = graph.index(a) as u32;
        let bi = graph.index(b) as u32;
        let key = (ai.min(bi), ai.max(bi));
        debug_assert!(!self.edges.contains(&key), "duplicate tree edge {key:?}");
        self.edges.push(key);
        self.cost += w;
    }

    /// Removes a grid edge (given as a vertex-index pair in either order),
    /// keeping the order of the others and subtracting its cost. Returns
    /// `true` if the edge was present.
    pub fn remove_edge(&mut self, graph: &HananGraph, a: u32, b: u32) -> bool {
        let key = (a.min(b), a.max(b));
        let Some(at) = self.edges.iter().position(|&e| e == key) else {
            return false;
        };
        self.edges.remove(at);
        let pa = graph.point(key.0 as usize);
        let pb = graph.point(key.1 as usize);
        // lint: panic-ok(structural: the key came out of the edge list, so add_edge already proved adjacency when it was appended)
        self.cost -= graph
            .edge_cost(pa, pb)
            .expect("stored edges connect grid neighbors");
        true
    }

    /// Both endpoints of every edge, ascending: each vertex appears once
    /// per incident edge, so a vertex's run length is its tree degree.
    pub(crate) fn sorted_endpoints(&self) -> Vec<u32> {
        let mut ends: Vec<u32> = self.edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        ends.sort_unstable();
        ends
    }

    /// Whether the edge set forms a single tree: connected and acyclic
    /// (`|E| = |V| - 1` with all unions succeeding).
    pub fn is_tree(&self) -> bool {
        if self.edges.is_empty() {
            return true; // empty or single-vertex tree
        }
        let mut verts = self.sorted_endpoints();
        verts.dedup();
        let slot = |v: u32| verts.partition_point(|&x| x < v);
        let mut uf = UnionFind::new(verts.len());
        // Acyclic with |V| - 1 edges leaves one component.
        verts.len() == self.edges.len() + 1
            && self.edges.iter().all(|&(a, b)| uf.union(slot(a), slot(b)))
    }

    /// Whether every terminal is a vertex of the tree, resolving indices
    /// through `graph`.
    pub fn spans_in(&self, graph: &HananGraph, terminals: &[GridPoint]) -> bool {
        if terminals.len() <= 1 && self.edges.is_empty() {
            return true;
        }
        let ends = self.sorted_endpoints();
        terminals
            .iter()
            .all(|&t| ends.binary_search(&(graph.index(t) as u32)).is_ok())
    }

    /// Grid vertices acting as Steiner vertices of the tree: degree ≥ 3 and
    /// not one of `exclude` (typically the pins), ascending.
    pub fn steiner_vertices(&self, graph: &HananGraph, exclude: &[GridPoint]) -> Vec<GridPoint> {
        // Vertex-index order is `GridPoint` order, so the runs come out
        // sorted.
        self.sorted_endpoints()
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= 3)
            .map(|run| graph.point(run[0] as usize))
            .filter(|p| !exclude.contains(p))
            .collect()
    }

    /// Number of via edges (layer changes) in the tree.
    pub fn via_count(&self, graph: &HananGraph) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| {
                let pa = graph.point(a as usize);
                let pb = graph.point(b as usize);
                pa.m != pb.m
            })
            .count()
    }
}

/// Reusable sorted-half-edge adjacency of a [`RouteTree`], for the
/// retrace/polish hot path.
///
/// Rebuilding collects every edge as two `(vertex, neighbor)` half-edges
/// and sorts them in place, so a warm rebuild allocates nothing; neighbor
/// queries binary-search the sorted list and return neighbors in ascending
/// index order. The retrace consumers only inspect degree-1 and degree-2
/// neighborhoods ("the single neighbor", "the neighbor that is not
/// `prev`"), where that order cannot change which neighbor is picked.
#[derive(Debug, Clone, Default)]
pub struct TreeAdjacency {
    pairs: Vec<(u32, u32)>,
}

impl TreeAdjacency {
    /// Creates an empty adjacency; storage grows on first rebuild.
    pub fn new() -> Self {
        TreeAdjacency::default()
    }

    /// Rebuilds the half-edge list from `tree`, reusing storage.
    pub fn rebuild(&mut self, tree: &RouteTree) {
        self.pairs.clear();
        for &(a, b) in tree.edges() {
            self.pairs.push((a, b));
            self.pairs.push((b, a));
        }
        // Unstable sort: half-edges of a simple graph are unique, so the
        // tuple order is strict (no equal elements) and the result is
        // deterministic; unlike the stable sort it allocates no merge
        // buffer.
        self.pairs.sort_unstable();
    }

    /// The `(vertex, neighbor)` half-edges out of `v`, ascending by
    /// neighbor index.
    pub fn neighbors(&self, v: u32) -> &[(u32, u32)] {
        let lo = self.pairs.partition_point(|&(x, _)| x < v);
        let hi = self.pairs.partition_point(|&(x, _)| x <= v);
        &self.pairs[lo..hi]
    }
}

impl fmt::Display for RouteTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route tree: {} edges, cost {}",
            self.edges.len(),
            self.cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> HananGraph {
        HananGraph::uniform(4, 4, 2, 1.0, 1.0, 3.0)
    }

    #[test]
    fn add_edge_appends_and_accumulates_cost() {
        let g = grid();
        let mut t = RouteTree::new();
        let a = GridPoint::new(0, 0, 0);
        let b = GridPoint::new(1, 0, 0);
        t.add_edge(&g, b, a);
        t.add_edge(&g, b, GridPoint::new(1, 0, 1));
        assert_eq!(t.edges(), [(0, 8), (8, 9)]);
        assert_eq!(t.cost(), 4.0); // via costs 3
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate tree edge")]
    fn add_edge_rejects_duplicates_in_debug_builds() {
        let g = grid();
        let mut t = RouteTree::new();
        let a = GridPoint::new(0, 0, 0);
        let b = GridPoint::new(1, 0, 0);
        t.add_edge(&g, a, b);
        t.add_edge(&g, b, a);
    }

    #[test]
    #[should_panic(expected = "grid neighbors")]
    fn add_edge_rejects_non_neighbors() {
        let g = grid();
        let mut t = RouteTree::new();
        t.add_edge(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 0, 0));
    }

    #[test]
    fn remove_edge_keeps_order_and_subtracts_cost() {
        let g = grid();
        let p = |h, v, m| GridPoint::new(h, v, m);
        let mut t = RouteTree::new();
        t.add_edge(&g, p(0, 0, 0), p(1, 0, 0));
        t.add_edge(&g, p(1, 0, 0), p(1, 0, 1));
        t.add_edge(&g, p(1, 0, 1), p(1, 1, 1));
        assert!(t.remove_edge(&g, 9, 8));
        assert_eq!(t.edges(), [(0, 8), (9, 11)]);
        assert_eq!(t.cost(), 2.0);
        assert!(!t.remove_edge(&g, 8, 9), "absent edge");
        assert_eq!(t.cost(), 2.0);
    }

    #[test]
    fn is_tree_detects_cycles_and_disconnection() {
        let g = grid();
        let mut t = RouteTree::new();
        let p = |h, v| GridPoint::new(h, v, 0);
        assert!(t.is_tree());
        t.add_edge(&g, p(0, 0), p(1, 0));
        t.add_edge(&g, p(1, 0), p(1, 1));
        assert!(t.is_tree());
        // Disconnect: add a far-away edge.
        t.add_edge(&g, p(3, 3), p(2, 3));
        assert!(!t.is_tree());
        // Close a cycle instead.
        let mut t2 = RouteTree::new();
        t2.add_edge(&g, p(0, 0), p(1, 0));
        t2.add_edge(&g, p(1, 0), p(1, 1));
        t2.add_edge(&g, p(1, 1), p(0, 1));
        t2.add_edge(&g, p(0, 1), p(0, 0));
        assert!(!t2.is_tree());
        // A cycle plus a separate edge: |V| = |E| + 1, still no tree.
        t2.add_edge(&g, p(3, 3), p(2, 3));
        t2.add_edge(&g, p(2, 3), p(2, 2));
        assert!(!t2.is_tree());
    }

    #[test]
    fn steiner_vertices_are_degree_three_joints() {
        let g = grid();
        let mut t = RouteTree::new();
        let c = GridPoint::new(1, 1, 0);
        t.add_edge(&g, c, GridPoint::new(0, 1, 0));
        t.add_edge(&g, c, GridPoint::new(2, 1, 0));
        assert!(t.steiner_vertices(&g, &[]).is_empty());
        t.add_edge(&g, c, GridPoint::new(1, 0, 0));
        assert_eq!(t.steiner_vertices(&g, &[]), vec![c]);
        assert!(t.steiner_vertices(&g, &[c]).is_empty());
    }

    #[test]
    fn spans_in_checks_all_terminals() {
        let g = grid();
        let mut t = RouteTree::new();
        let a = GridPoint::new(0, 0, 0);
        let b = GridPoint::new(1, 0, 0);
        t.add_edge(&g, a, b);
        assert!(t.spans_in(&g, &[a, b]));
        assert!(!t.spans_in(&g, &[a, b, GridPoint::new(3, 3, 0)]));
    }

    #[test]
    fn via_count_counts_layer_changes() {
        let g = grid();
        let mut t = RouteTree::new();
        t.add_edge(&g, GridPoint::new(0, 0, 0), GridPoint::new(0, 0, 1));
        t.add_edge(&g, GridPoint::new(0, 0, 1), GridPoint::new(1, 0, 1));
        assert_eq!(t.via_count(&g), 1);
    }

    #[test]
    fn tree_adjacency_lists_sorted_neighbors() {
        let g = grid();
        let p = |h, v| GridPoint::new(h, v, 0);
        let mut t = RouteTree::new();
        t.add_edge(&g, p(1, 1), p(0, 1));
        t.add_edge(&g, p(1, 1), p(2, 1));
        t.add_edge(&g, p(1, 1), p(1, 0));
        t.add_edge(&g, p(2, 1), p(3, 1));
        let mut adj = TreeAdjacency::new();
        adj.rebuild(&t);
        for v in 0..g.len() as u32 {
            let mut expect: Vec<u32> = t
                .edges()
                .iter()
                .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)))
                .collect();
            expect.sort_unstable();
            let got: Vec<u32> = adj.neighbors(v).iter().map(|&(_, n)| n).collect();
            assert_eq!(got, expect, "vertex {v}");
        }
        assert!(adj.neighbors(999).is_empty());
        // Rebuild on a smaller tree reuses storage and forgets old edges.
        let mut t2 = RouteTree::new();
        t2.add_edge(&g, p(0, 0), p(1, 0));
        adj.rebuild(&t2);
        assert!(adj.neighbors(g.index(p(1, 1)) as u32).is_empty());
        assert_eq!(adj.neighbors(g.index(p(0, 0)) as u32).len(), 1);
    }

    #[test]
    fn copy_from_reuses_storage_and_matches() {
        let g = grid();
        let p = |h, v| GridPoint::new(h, v, 0);
        let mut a = RouteTree::new();
        a.add_edge(&g, p(0, 0), p(1, 0));
        a.add_edge(&g, p(1, 0), p(1, 1));
        let mut b = RouteTree::new();
        b.add_edge(&g, p(3, 3), p(2, 3));
        b.copy_from(&a);
        assert_eq!(a.cost().to_bits(), b.cost().to_bits());
        assert_eq!(a.edges(), b.edges());
    }
}
