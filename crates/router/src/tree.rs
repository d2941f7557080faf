//! Routing trees over Hanan grid graphs.

use std::collections::{HashMap, HashSet};
use std::fmt;

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::UnionFind;

/// A rectilinear routing tree embedded in a Hanan grid graph: a set of grid
/// edges (each between adjacent vertices) plus the total routing cost.
///
/// The tree is built by routers in this crate; its invariants (acyclicity,
/// connectivity, spanning the terminals) can be checked with
/// [`RouteTree::is_tree`] and [`RouteTree::spans_in`].
#[derive(Debug, Clone, Default)]
pub struct RouteTree {
    /// Grid edges as `(min_index, max_index)` pairs of linear vertex
    /// indices; each pair appears once.
    edges: Vec<(u32, u32)>,
    edge_set: HashSet<(u32, u32)>,
    cost: f64,
}

impl RouteTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RouteTree::default()
    }

    /// Total routing cost (each shared grid edge counted once).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Removes all edges, keeping the allocations (used by the
    /// [`crate::context::RouteContext`] tree pool).
    pub fn clear(&mut self) {
        self.edges.clear();
        self.edge_set.clear();
        self.cost = 0.0;
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocations where
    /// possible (a `clone_from` under a clearer name).
    pub fn copy_from(&mut self, other: &RouteTree) {
        self.edges.clear();
        self.edges.extend_from_slice(&other.edges);
        // Rebuild the set from the edge list rather than `clone_from` it:
        // clearing keeps the table's capacity, so a warm tree performs no
        // hash-table allocation here.
        self.edge_set.clear();
        for &e in &other.edges {
            self.edge_set.insert(e);
        }
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

    /// Adds a grid edge between adjacent vertices `a` and `b` if not already
    /// present, accumulating its cost. Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not grid neighbors.
    pub fn add_edge(&mut self, graph: &HananGraph, a: GridPoint, b: GridPoint) -> bool {
        // lint: panic-ok(documented caller contract — see # Panics above; a non-adjacent edge is a corrupt tree and must not be silently priced)
        let w = graph
            .edge_cost(a, b)
            .expect("route tree edges must connect grid neighbors");
        let ai = graph.index(a) as u32;
        let bi = graph.index(b) as u32;
        let key = (ai.min(bi), ai.max(bi));
        if self.edge_set.insert(key) {
            self.edges.push(key);
            self.cost += w;
            true
        } else {
            false
        }
    }

    /// Removes a grid edge (given as a vertex-index pair in either order),
    /// subtracting its cost. Returns `true` if the edge was present.
    pub fn remove_edge(&mut self, graph: &HananGraph, a: u32, b: u32) -> bool {
        let key = (a.min(b), a.max(b));
        if self.edge_set.remove(&key) {
            self.edges.retain(|&e| e != key);
            let pa = graph.point(key.0 as usize);
            let pb = graph.point(key.1 as usize);
            // lint: panic-ok(structural: the key came out of edge_set, so add_edge already proved adjacency when it was inserted)
            self.cost -= graph
                .edge_cost(pa, pb)
                .expect("stored edges connect grid neighbors");
            true
        } else {
            false
        }
    }

    /// Adjacency lists of the tree (vertex index → neighbor indices).
    pub fn adjacency(&self) -> HashMap<u32, Vec<u32>> {
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::with_capacity(self.edges.len() + 1);
        for &(a, b) in &self.edges {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        adj
    }

    /// Whether the tree uses the given vertex.
    pub fn contains_vertex(&self, graph: &HananGraph, p: GridPoint) -> bool {
        let i = graph.index(p) as u32;
        self.edges.iter().any(|&(a, b)| a == i || b == i)
    }

    /// The set of vertices used by the tree (linear indices).
    pub fn vertices(&self) -> HashSet<u32> {
        let mut s = HashSet::with_capacity(self.edges.len() + 1);
        for &(a, b) in &self.edges {
            s.insert(a);
            s.insert(b);
        }
        s
    }

    /// Degree of every used vertex (linear index → degree).
    pub fn degrees(&self) -> HashMap<u32, u32> {
        let mut d: HashMap<u32, u32> = HashMap::with_capacity(self.edges.len() + 1);
        for &(a, b) in &self.edges {
            *d.entry(a).or_insert(0) += 1;
            *d.entry(b).or_insert(0) += 1;
        }
        d
    }

    /// Degree of one vertex in the tree.
    pub fn degree_of(&self, graph: &HananGraph, p: GridPoint) -> u32 {
        let i = graph.index(p) as u32;
        self.edges
            .iter()
            .map(|&(a, b)| (a == i) as u32 + (b == i) as u32)
            .sum()
    }

    /// Whether the edge set forms a single tree: connected and acyclic
    /// (`|E| = |V| - 1` with all unions succeeding).
    pub fn is_tree(&self) -> bool {
        if self.edges.is_empty() {
            return true; // empty or single-vertex tree
        }
        let verts: Vec<u32> = {
            // lint: ordered-ok(drained into a Vec and sorted before use)
            let mut v: Vec<u32> = self.vertices().into_iter().collect();
            v.sort_unstable();
            v
        };
        let index_of: HashMap<u32, usize> =
            verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut uf = UnionFind::new(verts.len());
        for &(a, b) in &self.edges {
            if !uf.union(index_of[&a], index_of[&b]) {
                return false; // cycle
            }
        }
        uf.components() == 1
    }

    /// Whether every terminal is a vertex of the tree, resolving indices
    /// through `graph`.
    pub fn spans_in(&self, graph: &HananGraph, terminals: &[GridPoint]) -> bool {
        if terminals.len() <= 1 && self.edges.is_empty() {
            return true;
        }
        let verts = self.vertices();
        terminals
            .iter()
            .all(|&t| verts.contains(&(graph.index(t) as u32)))
    }

    /// Grid vertices acting as Steiner vertices of the tree: degree ≥ 3 and
    /// not one of `exclude` (typically the pins).
    pub fn steiner_vertices(&self, graph: &HananGraph, exclude: &[GridPoint]) -> Vec<GridPoint> {
        let excl: HashSet<u32> = exclude.iter().map(|&p| graph.index(p) as u32).collect();
        // lint: ordered-ok(collected into a Vec and sorted before return)
        let mut out: Vec<GridPoint> = self
            .degrees()
            .into_iter()
            .filter(|&(v, d)| d >= 3 && !excl.contains(&v))
            .map(|(v, _)| graph.point(v as usize))
            .collect();
        out.sort_unstable();
        out
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

/// Reusable sorted-half-edge adjacency of a [`RouteTree`] — the
/// deterministic, allocation-free replacement for [`RouteTree::adjacency`]
/// in the retrace/polish hot path.
///
/// Rebuilding collects every edge as two `(vertex, neighbor)` half-edges
/// and sorts them; neighbor queries binary-search the sorted list. Neighbor
/// *order* therefore differs from the hash-map adjacency's insertion order,
/// but the retrace consumers only ever inspect degree-1 and degree-2
/// neighborhoods ("the single neighbor", "the neighbor that is not
/// `prev`"), which are order-insensitive, so routing results are
/// bit-identical.
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

    /// Degree of `v` in the underlying tree (0 when absent).
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }
}

impl PartialEq for RouteTree {
    fn eq(&self, other: &Self) -> bool {
        self.edge_set == other.edge_set
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
    fn add_edge_dedups_and_accumulates_cost() {
        let g = grid();
        let mut t = RouteTree::new();
        let a = GridPoint::new(0, 0, 0);
        let b = GridPoint::new(1, 0, 0);
        assert!(t.add_edge(&g, a, b));
        assert!(!t.add_edge(&g, b, a), "reversed duplicate is rejected");
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.cost(), 1.0);
        assert!(t.add_edge(&g, b, GridPoint::new(1, 0, 1)));
        assert_eq!(t.cost(), 4.0); // via costs 3
    }

    #[test]
    #[should_panic(expected = "grid neighbors")]
    fn add_edge_rejects_non_neighbors() {
        let g = grid();
        let mut t = RouteTree::new();
        t.add_edge(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 0, 0));
    }

    #[test]
    fn is_tree_detects_cycles_and_disconnection() {
        let g = grid();
        let mut t = RouteTree::new();
        let p = |h, v| GridPoint::new(h, v, 0);
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
    }

    #[test]
    fn degrees_and_steiner_vertices() {
        let g = grid();
        let mut t = RouteTree::new();
        let c = GridPoint::new(1, 1, 0);
        t.add_edge(&g, c, GridPoint::new(0, 1, 0));
        t.add_edge(&g, c, GridPoint::new(2, 1, 0));
        t.add_edge(&g, c, GridPoint::new(1, 0, 0));
        assert_eq!(t.degree_of(&g, c), 3);
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
    fn tree_adjacency_matches_hash_adjacency() {
        let g = grid();
        let p = |h, v| GridPoint::new(h, v, 0);
        let mut t = RouteTree::new();
        t.add_edge(&g, p(1, 1), p(0, 1));
        t.add_edge(&g, p(1, 1), p(2, 1));
        t.add_edge(&g, p(1, 1), p(1, 0));
        t.add_edge(&g, p(2, 1), p(3, 1));
        let mut adj = TreeAdjacency::new();
        adj.rebuild(&t);
        let hash_adj = t.adjacency();
        for (&v, nbrs) in &hash_adj {
            let mut expect: Vec<u32> = nbrs.clone();
            expect.sort_unstable();
            let got: Vec<u32> = adj.neighbors(v).iter().map(|&(_, n)| n).collect();
            assert_eq!(got, expect, "vertex {v}");
            assert_eq!(adj.degree(v), nbrs.len());
        }
        assert!(adj.neighbors(999).is_empty());
        assert_eq!(adj.degree(999), 0);
        // Rebuild on a smaller tree reuses storage and forgets old edges.
        let mut t2 = RouteTree::new();
        t2.add_edge(&g, p(0, 0), p(1, 0));
        adj.rebuild(&t2);
        assert_eq!(adj.degree(g.index(p(1, 1)) as u32), 0);
        assert_eq!(adj.degree(g.index(p(0, 0)) as u32), 1);
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
        assert_eq!(a, b);
        assert_eq!(a.cost().to_bits(), b.cost().to_bits());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn equality_ignores_edge_insertion_order() {
        let g = grid();
        let p = |h, v| GridPoint::new(h, v, 0);
        let mut t1 = RouteTree::new();
        t1.add_edge(&g, p(0, 0), p(1, 0));
        t1.add_edge(&g, p(1, 0), p(1, 1));
        let mut t2 = RouteTree::new();
        t2.add_edge(&g, p(1, 0), p(1, 1));
        t2.add_edge(&g, p(0, 0), p(1, 0));
        assert_eq!(t1, t2);
    }
}
