//! Multi-source Dijkstra over Hanan grid graphs.
//!
//! Dijkstra over the grid is the "maze router" of the paper's OARMST
//! construction (Section 3.1): it finds the cheapest obstacle-avoiding
//! rectilinear path, counting via costs for layer changes.
//!
//! Every maze query goes through one method,
//! [`DijkstraWorkspace::shortest_path_into`], which walks a prebuilt
//! [`GridAdjacency`] with one relaxation loop. The workspace owns the
//! per-vertex arrays and is reused across queries (the arrays are
//! invalidated by an epoch counter rather than cleared), so a warm query
//! performs no allocation.
//!
//! An OARMST build asks for the nearest unconnected terminal once per
//! Prim step. Instead of one fresh query per step it keeps one search
//! alive for the whole build: [`DijkstraWorkspace::prim_begin`], then
//! [`DijkstraWorkspace::prim_step`] and
//! [`DijkstraWorkspace::prim_path_into`] per step, which resume the same
//! relaxation loop and return exactly what a fresh query from the whole
//! tree would (DESIGN.md §12.5). Under `Auto` a step is A*: the frontier
//! keys by the label plus an L1 distance transform to the open terminals,
//! recomputed each time the open set halves, and a step pops while the
//! least key lies at or below the best open terminal's label; everything
//! above it waits for later steps.
//!
//! The loop is generic over its frontier, chosen per query by a
//! [`QueuePolicy`]: the binary heap (the retained oracle, plain Dijkstra)
//! or `Auto`, which on an integer cost model takes A* for a query with a
//! target hint (on the heap) and for every Prim step (on Dial's key-indexed
//! bucket queue up to its ceiling, on the heap past it), and plain Dial for
//! a query without a hint. The loop asks its goal when to stop: a fixed
//! bound and a target test for a one-shot query, the falling best open
//! label for a Prim step. Every query reads its path out with one canonical
//! walk (the least `(distance, index)` predecessor), so `Auto` returns the
//! oracle's path bit for bit; A* only settles fewer vertices. The
//! search-order and tie-break contract is specified in DESIGN.md §12.
//!
//! ```
//! use oarsmt_geom::{GridPoint, HananGraph};
//! use oarsmt_graph::{DijkstraWorkspace, GridAdjacency, QueuePolicy};
//!
//! let g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
//! let mut adj = GridAdjacency::new();
//! adj.ensure(&g);
//! let mut ws = DijkstraWorkspace::new();
//! let mut path = Vec::new();
//! let t = g.index(GridPoint::new(3, 3, 0));
//! let src = [GridPoint::new(0, 0, 0)];
//! let cost =
//!     ws.shortest_path_into(&g, &adj, &src, |i| i == t, None, QueuePolicy::Auto, &[], &mut path)?;
//! assert_eq!(cost, 6.0);
//! assert_eq!((path[0], path[6]), (src[0], GridPoint::new(3, 3, 0)));
//! # Ok::<(), oarsmt_graph::GraphError>(())
//! ```

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::iter;

use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::bucket::BucketQueue;
use crate::csr::GridAdjacency;
use crate::error::GraphError;

/// Heap entry ordered by smallest cost first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    cost: f64,
    idx: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest first.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An optional rectangular search bound in grid indices (inclusive), used by
/// the bounded-exploration baseline router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBounds {
    /// Minimum horizontal index.
    pub h_lo: usize,
    /// Maximum horizontal index (inclusive).
    pub h_hi: usize,
    /// Minimum vertical index.
    pub v_lo: usize,
    /// Maximum vertical index (inclusive).
    pub v_hi: usize,
}

impl SearchBounds {
    /// The bounding box of a set of points, expanded by `margin` grid steps
    /// on each side and clipped to the graph.
    pub fn around<I: IntoIterator<Item = GridPoint>>(
        graph: &HananGraph,
        points: I,
        margin: usize,
    ) -> SearchBounds {
        let mut h_lo = usize::MAX;
        let mut h_hi = 0usize;
        let mut v_lo = usize::MAX;
        let mut v_hi = 0usize;
        for p in points {
            h_lo = h_lo.min(p.h);
            h_hi = h_hi.max(p.h);
            v_lo = v_lo.min(p.v);
            v_hi = v_hi.max(p.v);
        }
        if h_lo == usize::MAX {
            // Empty input: the whole grid.
            return SearchBounds {
                h_lo: 0,
                h_hi: graph.h() - 1,
                v_lo: 0,
                v_hi: graph.v() - 1,
            };
        }
        SearchBounds {
            h_lo: h_lo.saturating_sub(margin),
            h_hi: (h_hi + margin).min(graph.h() - 1),
            v_lo: v_lo.saturating_sub(margin),
            v_hi: (v_hi + margin).min(graph.v() - 1),
        }
    }

    /// Whether a point lies inside the bound (all layers are inside).
    #[inline]
    pub fn contains(&self, p: GridPoint) -> bool {
        self.h_lo <= p.h && p.h <= self.h_hi && self.v_lo <= p.v && p.v <= self.v_hi
    }
}

/// Largest integer edge cost for which the Dial bucket queue is used.
///
/// The paper's cost model caps gap costs at 1000 and via costs at 5; the
/// ceiling leaves generous slack. The key-indexed queue itself would hold
/// any integer keys (DESIGN.md §12.2); the ceiling keeps DBU-scaled cost
/// models on the heap.
pub const DIAL_MAX_EDGE_COST: u64 = 4096;

/// Largest path-cost bound for which A* runs: below 2⁵³ every integer
/// `g + h` the search compares is an exact `f64` (DESIGN.md §12.4).
const ASTAR_MAX_PATH_COST: f64 = (1u64 << 53) as f64;

/// Which frontier drives a maze query (DESIGN.md §12).
///
/// `Auto` is the default everywhere. On an integer cost model
/// ([`HananGraph::integer_cost_ceiling`]) it takes A* on the binary heap
/// for a query with a target hint, when every path cost is an exact
/// `f64` integer ([`HananGraph::path_cost_bound`] below 2⁵³), and Dial's
/// bucket queue for a query without one, when the ceiling is at most
/// [`DIAL_MAX_EDGE_COST`]. A Prim step takes A* wherever a hinted query
/// would, on Dial's queue up to the ceiling. Otherwise it takes the heap.
/// Paths, costs and trees are bit-identical to `Heap` either way: Dial
/// pops in exactly the heap's `(cost, vertex index)` order, and A* settles
/// every vertex on every shortest path before the canonical read-out walks
/// it (DESIGN.md §12.3–§12.5). The heap stays available as the oracle the
/// equivalence property tests and benches compare against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// A* or Dial on integer cost models, else the binary heap.
    /// Bit-identical to `Heap` either way. The default.
    #[default]
    Auto,
    /// The binary-heap Dijkstra — the retained oracle.
    Heap,
}

/// A [`QueuePolicy`] after eligibility resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ResolvedQueue {
    #[default]
    Heap,
    Dial,
    AStar,
}

impl QueuePolicy {
    /// Resolves the policy against the graph's cost model and the
    /// presence of a target hint. Pure function of the query inputs, so
    /// the choice is deterministic.
    fn resolve(self, graph: &HananGraph, have_targets: bool) -> ResolvedQueue {
        if self == QueuePolicy::Heap {
            return ResolvedQueue::Heap;
        }
        match graph.integer_cost_ceiling() {
            Some(_) if have_targets && graph.path_cost_bound() < ASTAR_MAX_PATH_COST => {
                ResolvedQueue::AStar
            }
            Some(c) if c <= DIAL_MAX_EDGE_COST => ResolvedQueue::Dial,
            _ => ResolvedQueue::Heap,
        }
    }
}

/// The A* rectilinear-distance lower bound (DESIGN.md §12.4).
///
/// For a target set `T`, the bound at vertex `p` is the cost-weighted
/// rectilinear distance from `p` to the bounding box of `T` in *prefix
/// space*: crossing column gap `i` costs exactly `x_costs[i]`, so the
/// horizontal cost of any path that nets a move from column `a` to column
/// `b` is at least `|px[b] − px[a]|` where `px` is the prefix sum of the
/// gap costs (same for rows, and `via_cost ×` layer distance for layers).
/// The bound is admissible and consistent, zero on every target, and `O(1)`
/// per evaluation after an `O(H + V + |T|)` per-query preparation.
#[derive(Debug, Clone, Default)]
pub struct RectilinearBound {
    /// Prefix sums of the horizontal gap costs (`px[i]` = cost of walking
    /// from column 0 to column `i`), length `H`.
    px: Vec<u64>,
    /// Prefix sums of the vertical gap costs, length `V`.
    py: Vec<u64>,
    x_lo: u64,
    x_hi: u64,
    y_lo: u64,
    y_hi: u64,
    m_lo: u64,
    m_hi: u64,
    via: u64,
}

impl RectilinearBound {
    /// Rebuilds the prefix sums and the target bounding box for a query.
    /// Requires an integer cost model whose path costs stay below 2⁵³
    /// (the caller resolves that, see [`QueuePolicy`]) and a non-empty
    /// target set.
    fn prepare(&mut self, graph: &HananGraph, targets: &[GridPoint]) {
        debug_assert!(!targets.is_empty());
        self.px.clear();
        self.px.push(0);
        let mut acc = 0u64;
        for &c in graph.x_costs() {
            acc += c as u64;
            self.px.push(acc);
        }
        self.py.clear();
        self.py.push(0);
        acc = 0;
        for &c in graph.y_costs() {
            acc += c as u64;
            self.py.push(acc);
        }
        self.via = graph.via_cost() as u64;
        self.x_lo = u64::MAX;
        self.x_hi = 0;
        self.y_lo = u64::MAX;
        self.y_hi = 0;
        self.m_lo = u64::MAX;
        self.m_hi = 0;
        for t in targets {
            self.x_lo = self.x_lo.min(self.px[t.h]);
            self.x_hi = self.x_hi.max(self.px[t.h]);
            self.y_lo = self.y_lo.min(self.py[t.v]);
            self.y_hi = self.y_hi.max(self.py[t.v]);
            self.m_lo = self.m_lo.min(t.m as u64);
            self.m_hi = self.m_hi.max(t.m as u64);
        }
    }

    /// The lower bound at `p`: prefix-space rectilinear distance to the
    /// target bounding box.
    #[inline]
    fn eval(&self, p: GridPoint) -> u64 {
        #[inline]
        fn axis(v: u64, lo: u64, hi: u64) -> u64 {
            if v < lo {
                lo - v
            } else {
                v.saturating_sub(hi)
            }
        }
        axis(self.px[p.h], self.x_lo, self.x_hi)
            + axis(self.py[p.v], self.y_lo, self.y_hi)
            + self.via * axis(p.m as u64, self.m_lo, self.m_hi)
    }
}

/// The priority queue behind one query. `push` takes the tentative
/// distance `g`; a frontier that orders by something else (A*'s
/// `g + h`) derives its key itself. `pop` yields vertices in
/// `(key, index)` order, stale duplicates included — the relaxation loop
/// skips those — and stops at the first key past `bound`, leaving it
/// queued: a key not below it for a plain frontier, a key above it for A*,
/// which must pop its ties at the bound.
trait Frontier {
    fn push(&mut self, g: f64, idx: u32);
    fn pop(&mut self, bound: f64) -> Option<u32>;
}

impl<Q: Frontier + ?Sized> Frontier for &mut Q {
    #[inline]
    fn push(&mut self, g: f64, idx: u32) {
        (**self).push(g, idx);
    }

    #[inline]
    fn pop(&mut self, bound: f64) -> Option<u32> {
        (**self).pop(bound)
    }
}

/// The binary heap keyed by `g`: the oracle.
impl Frontier for BinaryHeap<Entry> {
    #[inline]
    fn push(&mut self, g: f64, idx: u32) {
        BinaryHeap::push(self, Entry { cost: g, idx });
    }

    #[inline]
    fn pop(&mut self, below: f64) -> Option<u32> {
        let top = self.peek_mut()?;
        if top.cost >= below {
            return None;
        }
        Some(PeekMut::pop(top).idx)
    }
}

/// Dial's bucket queue keyed by the integer `g` (or A*'s integer `f`),
/// counting the keys its cursor advances. Its bounds are integers or
/// infinity.
struct Dial<'a> {
    queue: &'a mut BucketQueue,
    scans: u64,
}

impl Frontier for Dial<'_> {
    #[inline]
    fn push(&mut self, g: f64, idx: u32) {
        self.queue.push(g as u64, idx);
    }

    #[inline]
    fn pop(&mut self, below: f64) -> Option<u32> {
        // An infinite bound saturates to `u64::MAX`.
        self.queue
            .pop_min(below as u64, &mut self.scans)
            .map(|(_, idx)| idx)
    }
}

/// A frontier keyed by `f = g + h` for a consistent lower bound `h` on the
/// distance to the goal: a one-shot query's [`RectilinearBound`]
/// (DESIGN.md §12.4) on the heap, or a Prim step's [`OpenBound`] (§12.5)
/// on the heap or Dial's queue. Every key at or below a label is an exact
/// integer `f64` (path costs stay below 2⁵³), so popping the ties at
/// `bound` is the inner frontier popping below `bound + 1`.
struct AStar<Q, H> {
    inner: Q,
    h: H,
}

impl<Q: Frontier, H: Fn(usize) -> u64> Frontier for AStar<Q, H> {
    #[inline]
    fn push(&mut self, g: f64, idx: u32) {
        self.inner.push(g + (self.h)(idx as usize) as f64, idx);
    }

    #[inline]
    fn pop(&mut self, bound: f64) -> Option<u32> {
        self.inner.pop(bound + 1.0)
    }
}

/// A Prim step's A* lower bound (DESIGN.md §12.5): per `(h, v)` column,
/// the prefix-space L1 distance to the nearest terminal of the open set
/// it was last transformed for. Vias are dropped, so every layer of a
/// column shares one value. A grid step pays at least the prefix-space
/// step it moves, so the bound is admissible and consistent for that set
/// and for every subset of it.
#[derive(Debug, Clone, Default)]
struct OpenBound {
    /// The bound per column `h · V + v`.
    plane: Vec<u64>,
    /// The vertical gap costs as integers.
    gaps: Vec<u64>,
    /// `⌈2⁶⁴ / M⌉` for the graph's `M` layers: vertex `i` lies in column
    /// `i · magic >> 64`, exactly `i / M` since `i · M < 2⁶⁴`.
    magic: u128,
}

impl OpenBound {
    /// Recomputes the bound for the terminals `open` (vertex indices; zero
    /// everywhere for an empty set) by a separable distance transform over
    /// the `H × V` plane: a sweep each way along every column carries each
    /// terminal's 0 down and up it, then a sweep each way along `h`
    /// carries the columns across, one contiguous block of `V` against
    /// the next.
    fn transform(&mut self, graph: &HananGraph, open: &[u32]) {
        // Far above any distance and far enough below `u64::MAX` that
        // adding one gap cannot wrap.
        const FAR: u64 = u64::MAX / 2;
        let (cols, rows, layers) = graph.dims();
        self.magic = (1u128 << 64).div_ceil(layers as u128);
        if self.plane.len() < cols * rows {
            // lint: alloc-ok(grow-once: the plane grows to the largest grid a workspace has built on, inside its first Prim step there; later transforms overwrite it in place)
            self.plane.resize(cols * rows, 0);
        }
        let plane = &mut self.plane[..cols * rows];
        if open.is_empty() {
            plane.fill(0);
            return;
        }
        self.gaps.clear();
        // lint: alloc-ok(grow-once: one entry per row gap, capacity kept across transforms)
        self.gaps.extend(graph.y_costs().iter().map(|&c| c as u64));
        plane.fill(FAR);
        for &t in open {
            plane[t as usize / layers] = 0;
        }
        for col in plane.chunks_exact_mut(rows) {
            let mut run = FAR;
            for (c, &g) in col.iter_mut().zip(iter::once(&0).chain(&self.gaps)) {
                run = (run + g).min(*c);
                *c = run;
            }
            run = FAR;
            for (c, &g) in col
                .iter_mut()
                .rev()
                .zip(iter::once(&0).chain(self.gaps.iter().rev()))
            {
                run = (run + g).min(*c);
                *c = run;
            }
        }
        let x_gaps = graph.x_costs();
        for h in 1..cols {
            let (done, rest) = plane.split_at_mut(h * rows);
            let gap = x_gaps[h - 1] as u64;
            for (c, &p) in rest[..rows].iter_mut().zip(&done[(h - 1) * rows..]) {
                *c = (*c).min(p + gap);
            }
        }
        for h in (0..cols - 1).rev() {
            let (head, tail) = plane.split_at_mut((h + 1) * rows);
            let gap = x_gaps[h] as u64;
            for (c, &q) in head[h * rows..].iter_mut().zip(&tail[..rows]) {
                *c = (*c).min(q + gap);
            }
        }
    }

    /// The bound at vertex `idx`, read from its plane column.
    #[inline]
    fn at(&self, idx: usize) -> u64 {
        self.plane[((idx as u128 * self.magic) >> 64) as usize]
    }
}

/// When the relaxation loop stops: it pops while the least key lies below
/// `best.0` (at or below it under A*) and returns the first settled vertex
/// `is_target` accepts. A relaxation that lowers a vertex `is_open`
/// accepts to a label `d` with `(d, index)` below `best` makes it the new
/// best, which is how a Prim step tracks its nearest open terminal
/// (DESIGN.md §12.5). A one-shot query opens nothing, so its bound stays
/// fixed.
struct Goal<T, O> {
    is_target: T,
    is_open: O,
    best: (f64, u32),
}

impl<T: Fn(usize) -> bool, O: Fn(usize) -> bool> Goal<T, O> {
    #[inline]
    fn lower(&mut self, idx: usize, d: f64) {
        if (d, idx as u32) < self.best && (self.is_open)(idx) {
            self.best = (d, idx as u32);
        }
    }
}

/// Per-vertex search state: `dist` is valid where `stamp == epoch`, and
/// a vertex is settled — expanded at its current label — while
/// `done == epoch`. No predecessor is stored: paths are read out by
/// [`Labels::path_into`].
#[derive(Debug, Clone, Default)]
struct Labels {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    done: Vec<u32>,
    epoch: u32,
}

impl Labels {
    fn prepare(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.stamp.resize(n, 0);
            self.done.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrapped: reset all stamps once.
            self.stamp.fill(0);
            self.done.fill(0);
            self.epoch = 1;
        }
    }

    /// Lowers `idx`'s label to `d` if that improves it; returns whether
    /// it did (the caller then pushes `idx`). A lowered label unsettles
    /// the vertex: only the resumable Prim frontier ever lowers a settled
    /// label, and the vertex must then be expanded again.
    #[inline]
    fn improve(&mut self, idx: usize, d: f64) -> bool {
        if self.stamp[idx] != self.epoch || d < self.dist[idx] {
            self.stamp[idx] = self.epoch;
            self.dist[idx] = d;
            self.done[idx] = 0;
            return true;
        }
        false
    }

    /// Seeds every unblocked point of `points` at distance 0 (a no-op
    /// for one already there); returns whether any was unblocked.
    fn seed<Q: Frontier>(
        &mut self,
        graph: &HananGraph,
        points: &[GridPoint],
        frontier: &mut Q,
        counters: &mut CounterSet,
    ) -> bool {
        let mut any = false;
        for &s in points {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.improve(idx, 0.0) {
                counters.bump(Counter::DijkstraPushes);
                frontier.push(0.0, idx as u32);
            }
            any = true;
        }
        any
    }

    /// Seeds every unblocked source at distance 0, then runs the
    /// relaxation loop. Returns the first settled vertex `is_target`
    /// accepts.
    #[allow(clippy::too_many_arguments)]
    fn search<Q: Frontier, F: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        frontier: &mut Q,
        counters: &mut CounterSet,
    ) -> Result<usize, GraphError> {
        if !self.seed(graph, sources, frontier, counters) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        let mut goal = Goal {
            is_target,
            is_open: |_| false,
            best: (f64::INFINITY, u32::MAX),
        };
        self.settle_within(graph, adj, frontier, bounds, &mut goal, counters)
            .ok_or(GraphError::Unreachable {
                from: sources[0],
                to: None,
            })
    }

    /// One step of the resumable Prim frontier (DESIGN.md §12.5): seeds
    /// `joined` at distance 0, takes the best open terminal — the least
    /// `(label, index)` over `open` — and settles while the least queued
    /// key lies below its label (at or below it under A*), lowering it as
    /// relaxations lower open labels. Returns that terminal, `None` when no
    /// open terminal has a label.
    #[allow(clippy::too_many_arguments)]
    fn prim_step<Q: Frontier, F: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        joined: &[GridPoint],
        bounds: Option<SearchBounds>,
        open: &[u32],
        is_open: F,
        frontier: &mut Q,
        counters: &mut CounterSet,
    ) -> Option<usize> {
        self.seed(graph, joined, frontier, counters);
        let mut goal = Goal {
            is_target: |_| false,
            is_open,
            best: (f64::INFINITY, u32::MAX),
        };
        for &t in open {
            let t = t as usize;
            if self.stamp[t] == self.epoch {
                goal.lower(t, self.dist[t]);
            }
        }
        self.settle_within(graph, adj, frontier, bounds, &mut goal, counters);
        let (d, t) = goal.best;
        (d < f64::INFINITY).then_some(t as usize)
    }

    /// [`Labels::settle`] inside an optional search window. The unbounded
    /// instance gets a constant-true window, so its relaxation carries no
    /// bounds test at all.
    #[inline]
    fn settle_within<Q: Frontier, T: Fn(usize) -> bool, O: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        frontier: &mut Q,
        bounds: Option<SearchBounds>,
        goal: &mut Goal<T, O>,
        counters: &mut CounterSet,
    ) -> Option<usize> {
        match bounds {
            None => self.settle(adj, frontier, |_| true, goal, counters),
            Some(b) => self.settle(
                adj,
                frontier,
                |q| b.contains(graph.point(q)),
                goal,
                counters,
            ),
        }
    }

    /// The relaxation loop: pops while the frontier admits its least key
    /// under the goal's bound and returns the first settled vertex the
    /// goal accepts, relaxing the CSR neighbors `admits` lets through. One
    /// stale rule for every frontier: a popped vertex that is already
    /// `done` is a duplicate (for the heap this is exactly its
    /// `cost > dist` skip, DESIGN.md §12.3).
    #[inline]
    fn settle<Q: Frontier, W: Fn(usize) -> bool, T: Fn(usize) -> bool, O: Fn(usize) -> bool>(
        &mut self,
        adj: &GridAdjacency,
        frontier: &mut Q,
        admits: W,
        goal: &mut Goal<T, O>,
        counters: &mut CounterSet,
    ) -> Option<usize> {
        while let Some(idx) = frontier.pop(goal.best.0) {
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue;
            }
            self.done[idx] = self.epoch;
            counters.bump(Counter::DijkstraPops);
            if (goal.is_target)(idx) {
                return Some(idx);
            }
            let g = self.dist[idx];
            for (q, w) in adj.neighbors(idx) {
                let q = q as usize;
                if !admits(q) {
                    continue;
                }
                let nd = g + w;
                counters.bump(Counter::DijkstraRelaxations);
                if self.improve(q, nd) {
                    counters.bump(Counter::DijkstraPushes);
                    frontier.push(nd, q as u32);
                    goal.lower(q, nd);
                }
            }
        }
        None
    }

    /// Writes the path from the sources to `target` into `out` (cleared
    /// first, source end first) and returns its cost: the one read-out of
    /// every query (DESIGN.md §12.3–§12.5).
    ///
    /// The walk goes back from `target` to the first vertex at distance 0
    /// (a source), taking at each vertex `v` the settled neighbour `u` with
    /// `dist[u] + w == dist[v]` and the least `(dist[u], u)`. The heap
    /// settles in `(dist, index)` order and keeps the first relaxation that
    /// reaches a label, so that neighbour is exactly the predecessor the
    /// heap oracle's search reaches `v` by. It needs every predecessor on a
    /// shortest path to `target` settled at its exact label, which every
    /// frontier guarantees when its search ends.
    fn path_into(
        &self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        target: usize,
        out: &mut Vec<GridPoint>,
    ) -> f64 {
        out.clear();
        let mut v = target;
        out.push(graph.point(v));
        while self.dist[v] != 0.0 {
            let dv = self.dist[v];
            let mut pick: Option<(f64, usize)> = None;
            for (u, w) in adj.neighbors(v) {
                let u = u as usize;
                if self.done[u] != self.epoch {
                    continue;
                }
                let du = self.dist[u];
                if du + w == dv && pick.is_none_or(|(pd, pu)| du < pd || (du == pd && u < pu)) {
                    pick = Some((du, u));
                }
            }
            let Some((_, u)) = pick else {
                debug_assert!(false, "no predecessor reaches the label of {v}");
                break;
            };
            v = u;
            out.push(graph.point(v));
        }
        out.reverse();
        self.dist[target]
    }
}

/// State of the resumable Prim frontier between
/// [`DijkstraWorkspace::prim_step`] calls.
#[derive(Debug, Clone, Copy, Default)]
struct PrimState {
    /// The queue [`DijkstraWorkspace::prim_begin`] resolved: Dial's or
    /// the heap.
    queue: ResolvedQueue,
    /// Whether the frontier keys by A*'s `f` with the [`OpenBound`].
    astar: bool,
    /// How many open terminals the bound was last transformed for; 0
    /// before the first transform of the build.
    covered: usize,
    /// The label epoch the frontier was started in (debug check that no
    /// other query ran in between).
    epoch: u32,
}

/// Reusable Dijkstra work arrays (distance and visit stamps) and the
/// three frontiers.
///
/// Reuse a single `DijkstraWorkspace` across the many maze-routing queries
/// of an OARMST construction to avoid repeated allocation. The workspace
/// automatically grows when given a larger graph, and old query state is
/// invalidated by bumping a generation counter (`epoch`) instead of an
/// `O(n)` clear.
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    labels: Labels,
    heap: BinaryHeap<Entry>,
    /// The Dial bucket queue (`Auto` on bounded-integer cost models
    /// without a target hint), one-shot queries and the resumable Prim
    /// frontier alike.
    bucket: BucketQueue,
    prim: PrimState,
    /// The one-shot A* lower bound, rebuilt per A* query.
    bound: RectilinearBound,
    /// The Prim steps' A* lower bound, transformed as the open set halves.
    open_bound: OpenBound,
    /// Tier A telemetry: settled pops, relaxation attempts, queue pushes
    /// and Dial cursor key advances ([`Counter::DijkstraPops`] and
    /// friends). Monotone across queries; owners read deltas (see
    /// `oarsmt-telemetry`).
    pub counters: CounterSet,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        DijkstraWorkspace::default()
    }

    /// The maze query: the cheapest path from any of `sources` (each at
    /// cost zero) to the first settled vertex `is_target` accepts, written
    /// into `out` (cleared first, source first); returns the path cost.
    ///
    /// * `adj` must be built for `graph` (call
    ///   [`GridAdjacency::ensure`] first).
    /// * `bounds`, when given, restricts expansion to a rectangular grid
    ///   window (targets outside it are unreachable).
    /// * `policy` picks the frontier. `Auto` and `Heap` return
    ///   bit-identical paths and costs (DESIGN.md §12.3–§12.4); the op
    ///   counters match too unless `Auto` takes A*, which pops no more.
    /// * `targets` is the target hint: it must include every vertex
    ///   `is_target` accepts (the A* lower bound must be zero on all
    ///   targets, or the first settled target is not guaranteed
    ///   cheapest). A non-empty hint lets `Auto` take A*; pass `&[]` for
    ///   none.
    ///
    /// # Errors
    ///
    /// On error `out` is left cleared.
    ///
    /// * [`GraphError::EmptyTerminalSet`] if `sources` is empty.
    /// * [`GraphError::BlockedSource`] if every source is blocked.
    /// * [`GraphError::Unreachable`] if no target can be reached.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn shortest_path_into<F: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        targets: &[GridPoint],
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError> {
        out.clear();
        let target = self.search(graph, adj, sources, is_target, bounds, policy, targets)?;
        Ok(self.labels.path_into(graph, adj, target, out))
    }

    /// Distances from `source` to every pin of `graph`, appended to `out`
    /// as one row in [`HananGraph::pins`] order (`f64::INFINITY` where
    /// unreachable). The query stops once it has settled every pin, so
    /// it settles no farther than the farthest reachable one. `adj` must
    /// be built for `graph`.
    ///
    /// # Errors
    ///
    /// [`GraphError::BlockedSource`] if the source vertex is blocked.
    pub fn pin_distances_from(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        source: GridPoint,
        out: &mut Vec<f64>,
    ) -> Result<(), GraphError> {
        let left = Cell::new(graph.pins().len());
        let last_pin = |i| {
            graph.kind_at(i) == VertexKind::Pin && {
                left.set(left.get() - 1);
                left.get() == 0
            }
        };
        match self.search(
            graph,
            adj,
            &[source],
            last_pin,
            None,
            QueuePolicy::Auto,
            &[],
        ) {
            Ok(_) | Err(GraphError::Unreachable { .. }) => {}
            Err(e) => return Err(e),
        }
        let l = &self.labels;
        out.extend(graph.pins().iter().map(|&p| {
            let i = graph.index(p);
            if l.done[i] == l.epoch {
                l.dist[i]
            } else {
                f64::INFINITY
            }
        }));
        Ok(())
    }

    /// Starts a resumable Prim frontier on `graph` (DESIGN.md §12.5):
    /// forgets every label and queued entry. [`Self::prim_step`] then
    /// grows it one Prim step at a time; any other query on this workspace
    /// ends it. Where a hinted query would take A*, `Auto` keys the
    /// frontier by `g` plus an L1 distance transform to the open
    /// terminals, on Dial's queue up to its ceiling and on the heap past
    /// it; `Heap` stays plain Dijkstra. The trees are bit-identical either
    /// way.
    pub fn prim_begin(&mut self, graph: &HananGraph, policy: QueuePolicy) {
        self.labels.prepare(graph.len());
        let queue = policy.resolve(graph, false);
        match queue {
            ResolvedQueue::Dial => self.bucket.reset(),
            _ => self.heap.clear(),
        }
        self.prim = PrimState {
            queue,
            astar: policy.resolve(graph, true) == ResolvedQueue::AStar,
            covered: 0,
            epoch: self.labels.epoch,
        };
    }

    /// One step of the resumable Prim frontier: seeds the `joined`
    /// vertices (the path that just joined the tree, or the root on the
    /// first step; vertices already on the tree are skipped) at distance
    /// 0, resumes the persisted search and returns the nearest open
    /// terminal — least `(distance from the tree, index)` over `open`, the
    /// one a fresh multi-source search from the whole tree would settle
    /// first. `None` when no open terminal can be reached.
    ///
    /// * `open` lists the indices of the open terminals and `is_open` tests
    ///   membership of the same set.
    /// * `bounds` restricts expansion like it does for
    ///   [`Self::shortest_path_into`]; pass the same window on every step.
    ///
    /// * `open` must be a subset of the previous step's: the A* bound is
    ///   transformed for an earlier open set and refreshed only once the
    ///   set has halved since.
    ///
    /// Labels persist across steps and only strict improvements are
    /// pushed, so a step settles only what the new path brings closer,
    /// and only up to its own target's key; entries above it wait for
    /// later steps. Follow with [`Self::prim_path_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn prim_step<F: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        joined: &[GridPoint],
        bounds: Option<SearchBounds>,
        open: &[u32],
        is_open: F,
    ) -> Option<usize> {
        debug_assert_eq!(
            self.prim.epoch, self.labels.epoch,
            "prim_step without prim_begin"
        );
        let DijkstraWorkspace {
            labels,
            heap,
            bucket,
            prim,
            open_bound,
            counters,
            ..
        } = self;
        if prim.astar && (prim.covered == 0 || (!open.is_empty() && 2 * open.len() <= prim.covered))
        {
            open_bound.transform(graph, open);
            prim.covered = open.len();
        }
        let h = |i| open_bound.at(i);
        match (prim.queue, prim.astar) {
            (ResolvedQueue::Dial, astar) => {
                debug_assert!(astar, "a Dial-eligible graph is A*-eligible");
                // The joined path enters below the waiting keys.
                bucket.rewind();
                let mut dial = AStar {
                    inner: Dial {
                        queue: bucket,
                        scans: 0,
                    },
                    h,
                };
                let target = labels.prim_step(
                    graph, adj, joined, bounds, open, is_open, &mut dial, counters,
                );
                counters.add(Counter::DijkstraBucketScans, dial.inner.scans);
                target
            }
            (_, true) => {
                let mut astar = AStar { inner: heap, h };
                labels.prim_step(
                    graph, adj, joined, bounds, open, is_open, &mut astar, counters,
                )
            }
            _ => labels.prim_step(graph, adj, joined, bounds, open, is_open, heap, counters),
        }
    }

    /// Writes the path from the tree to the `target` that
    /// [`Self::prim_step`] returned into `out` (cleared first, tree end
    /// first) and returns its cost. This is the read-out every query
    /// uses: every vertex on a shortest path to the target is settled at
    /// its exact distance, so the path is the one a fresh search from the
    /// whole tree returns (DESIGN.md §12.5).
    pub fn prim_path_into(
        &self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        target: usize,
        out: &mut Vec<GridPoint>,
    ) -> f64 {
        self.labels.path_into(graph, adj, target, out)
    }

    /// Resolves the policy to a frontier and runs [`Labels::search`] on
    /// it. A* then settles on until the least key passes the settled
    /// target's label `f*`, which leaves every vertex of every shortest
    /// path settled at its exact label, and returns the least
    /// `(label, index)` target — the one the heap settles first.
    #[allow(clippy::too_many_arguments)]
    fn search<F: Fn(usize) -> bool>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        targets: &[GridPoint],
    ) -> Result<usize, GraphError> {
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        self.labels.prepare(graph.len());
        let DijkstraWorkspace {
            labels,
            heap,
            bucket,
            bound,
            counters,
            ..
        } = self;
        match policy.resolve(graph, !targets.is_empty()) {
            ResolvedQueue::Heap => {
                heap.clear();
                labels.search(graph, adj, sources, is_target, bounds, heap, counters)
            }
            ResolvedQueue::Dial => {
                bucket.reset();
                let mut dial = Dial {
                    queue: bucket,
                    scans: 0,
                };
                let settled =
                    labels.search(graph, adj, sources, is_target, bounds, &mut dial, counters);
                counters.add(Counter::DijkstraBucketScans, dial.scans);
                settled
            }
            ResolvedQueue::AStar => {
                heap.clear();
                bound.prepare(graph, targets);
                let mut astar = AStar {
                    inner: heap,
                    h: |i| bound.eval(graph.point(i)),
                };
                let first = labels.search(
                    graph, adj, sources, &is_target, bounds, &mut astar, counters,
                )?;
                let mut exhaust = Goal {
                    is_target: |_| false,
                    is_open: |_| false,
                    best: (labels.dist[first], u32::MAX),
                };
                labels.settle_within(graph, adj, &mut astar, bounds, &mut exhaust, counters);
                let l = &*labels;
                Ok(targets
                    .iter()
                    .map(|&p| graph.index(p))
                    .filter(|&t| l.done[t] == l.epoch && is_target(t))
                    .min_by(|&a, &b| l.dist[a].total_cmp(&l.dist[b]).then(a.cmp(&b)))
                    .unwrap_or(first))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_grid(h: usize, v: usize, m: usize) -> HananGraph {
        HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0)
    }

    /// One maze query through a freshly built adjacency: `(cost, path)`.
    fn query(
        ws: &mut DijkstraWorkspace,
        g: &HananGraph,
        sources: &[GridPoint],
        target: usize,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        hint: &[GridPoint],
    ) -> Result<(f64, Vec<GridPoint>), GraphError> {
        let mut adj = GridAdjacency::new();
        adj.ensure(g);
        let mut out = Vec::new();
        let cost = ws.shortest_path_into(
            g,
            &adj,
            sources,
            |i| i == target,
            bounds,
            policy,
            hint,
            &mut out,
        )?;
        Ok((cost, out))
    }

    /// Point-to-point heap query on a fresh workspace.
    fn path(
        g: &HananGraph,
        from: GridPoint,
        to: GridPoint,
    ) -> Result<(f64, Vec<GridPoint>), GraphError> {
        let t = g.index(to);
        query(
            &mut DijkstraWorkspace::new(),
            g,
            &[from],
            t,
            None,
            QueuePolicy::Heap,
            &[],
        )
    }

    fn pin_distances(g: &HananGraph, source: GridPoint) -> Result<Vec<f64>, GraphError> {
        let mut adj = GridAdjacency::new();
        adj.ensure(g);
        let mut out = Vec::new();
        DijkstraWorkspace::new().pin_distances_from(g, &adj, source, &mut out)?;
        Ok(out)
    }

    const OPS: [Counter; 3] = [
        Counter::DijkstraPops,
        Counter::DijkstraRelaxations,
        Counter::DijkstraPushes,
    ];

    #[test]
    fn straight_line_cost_is_manhattan() {
        let g = open_grid(5, 5, 1);
        let (cost, pts) = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 3, 0)).unwrap();
        assert_eq!(cost, 7.0);
        assert_eq!(pts[0], GridPoint::new(0, 0, 0));
        assert_eq!(pts[pts.len() - 1], GridPoint::new(4, 3, 0));
        // Consecutive points are neighbors.
        for w in pts.windows(2) {
            assert_eq!(w[0].grid_distance(w[1]), 1);
        }
    }

    #[test]
    fn path_cost_equals_sum_of_edge_costs() {
        let g = HananGraph::with_costs(4, 3, 2, vec![2.0, 5.0, 1.0], vec![4.0, 4.0], 3.0).unwrap();
        let (cost, pts) = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(3, 2, 1)).unwrap();
        let sum: f64 = pts
            .windows(2)
            .map(|w| g.edge_cost(w[0], w[1]).expect("path edges are grid edges"))
            .sum();
        assert!((cost - sum).abs() < 1e-9);
    }

    #[test]
    fn routes_around_obstacle_wall() {
        // A vertical wall with a single gap forces a detour.
        let mut g = open_grid(5, 5, 1);
        for v in 0..4 {
            g.add_obstacle_vertex(GridPoint::new(2, v, 0)).unwrap();
        }
        let (cost, pts) = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 0, 0)).unwrap();
        // Up 4, right 4, down 4 = 12.
        assert_eq!(cost, 12.0);
        assert!(pts.iter().all(|&q| !g.is_blocked(q)));
    }

    #[test]
    fn uses_other_layer_when_cheaper() {
        // Fully blocked layer 0 except endpoints: path must via up and back.
        let mut g = open_grid(3, 1, 2);
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        let (cost, _) = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 0, 0)).unwrap();
        // via(3) + 2 horizontal + via(3) = 8.
        assert_eq!(cost, 8.0);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        // Wall off the right column completely.
        for v in 0..3 {
            g.add_obstacle_vertex(GridPoint::new(1, v, 0)).unwrap();
        }
        let err = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert!(matches!(err, GraphError::Unreachable { .. }));
    }

    #[test]
    fn blocked_source_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        g.add_obstacle_vertex(GridPoint::new(0, 0, 0)).unwrap();
        let err = path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert_eq!(err, GraphError::BlockedSource(GridPoint::new(0, 0, 0)));
        assert_eq!(
            pin_distances(&g, GridPoint::new(0, 0, 0)).unwrap_err(),
            GraphError::BlockedSource(GridPoint::new(0, 0, 0))
        );
    }

    #[test]
    fn empty_sources_is_an_error() {
        let g = open_grid(3, 3, 1);
        let mut ws = DijkstraWorkspace::new();
        let err = query(&mut ws, &g, &[], 0, None, QueuePolicy::Auto, &[]).unwrap_err();
        assert_eq!(err, GraphError::EmptyTerminalSet);
    }

    #[test]
    fn multi_source_picks_nearest_source() {
        let g = open_grid(10, 1, 1);
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 0, 0)];
        let target = g.index(GridPoint::new(6, 0, 0));
        let mut ws = DijkstraWorkspace::new();
        let (cost, pts) =
            query(&mut ws, &g, &sources, target, None, QueuePolicy::Auto, &[]).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(pts[0], GridPoint::new(8, 0, 0));
    }

    #[test]
    fn source_in_target_set_gives_trivial_path() {
        let g = open_grid(3, 3, 1);
        let s = GridPoint::new(1, 1, 0);
        let mut ws = DijkstraWorkspace::new();
        let (cost, pts) =
            query(&mut ws, &g, &[s], g.index(s), None, QueuePolicy::Auto, &[]).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(pts, vec![s]);
    }

    #[test]
    fn distances_match_individual_paths() {
        let mut g = open_grid(6, 6, 2);
        g.add_obstacle_vertex(GridPoint::new(2, 2, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(3, 2, 0)).unwrap();
        // (5, 5, 1) is walled off by its three neighbours.
        for p in [(4, 5, 1), (5, 4, 1), (5, 5, 0)] {
            g.add_obstacle_vertex(GridPoint::new(p.0, p.1, p.2))
                .unwrap();
        }
        for p in [(0, 0, 0), (3, 3, 1), (5, 0, 0), (1, 5, 1), (5, 5, 1)] {
            g.add_pin(GridPoint::new(p.0, p.1, p.2)).unwrap();
        }
        let src = GridPoint::new(2, 3, 0);
        let dist = pin_distances(&g, src).unwrap();
        assert_eq!(dist.len(), g.pins().len());
        assert!(dist[4].is_infinite(), "the walled-off pin");
        for (&p, &d) in g.pins()[..4].iter().zip(&dist) {
            let (cost, _) = path(&g, src, p).unwrap();
            assert_eq!(d, cost, "distance mismatch at {p}");
        }
    }

    /// The pin query stops at its farthest pin: it settles the near pins
    /// without draining the grid.
    #[test]
    fn pin_distances_stop_at_the_last_pin() {
        let mut g = open_grid(20, 20, 1);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 1, 0)).unwrap();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let mut ws = DijkstraWorkspace::new();
        let mut out = vec![7.0];
        ws.pin_distances_from(&g, &adj, GridPoint::new(0, 0, 0), &mut out)
            .unwrap();
        assert_eq!(out, vec![7.0, 0.0, 3.0], "appends one row");
        assert!(ws.counters.get(Counter::DijkstraPops) < 20);
    }

    #[test]
    fn bounded_search_cannot_leave_window() {
        let g = open_grid(10, 10, 1);
        let bounds = SearchBounds {
            h_lo: 0,
            h_hi: 4,
            v_lo: 0,
            v_hi: 4,
        };
        let tp = GridPoint::new(9, 9, 0);
        for policy in [QueuePolicy::Auto, QueuePolicy::Heap] {
            let err = query(
                &mut DijkstraWorkspace::new(),
                &g,
                &[GridPoint::new(0, 0, 0)],
                g.index(tp),
                Some(bounds),
                policy,
                &[tp],
            )
            .unwrap_err();
            assert!(matches!(err, GraphError::Unreachable { .. }), "{policy:?}");
        }
    }

    #[test]
    fn bounds_around_clips_to_graph() {
        let g = open_grid(6, 6, 1);
        let b = SearchBounds::around(&g, [GridPoint::new(1, 1, 0), GridPoint::new(4, 2, 0)], 3);
        assert_eq!((b.h_lo, b.h_hi, b.v_lo, b.v_hi), (0, 5, 0, 5));
        assert!(b.contains(GridPoint::new(0, 0, 0)));
    }

    #[test]
    fn counters_track_pops_relaxations_and_pushes() {
        let g = open_grid(6, 6, 1);
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(5, 5, 0));
        let src = [GridPoint::new(0, 0, 0)];
        query(&mut ws, &g, &src, t, None, QueuePolicy::Heap, &[]).unwrap();
        let after = ws.counters;
        assert!(after.get(Counter::DijkstraPops) > 0);
        assert!(after.get(Counter::DijkstraRelaxations) >= after.get(Counter::DijkstraPops));
        assert!(after.get(Counter::DijkstraPushes) > 0);
        // A second identical query adds an identical delta.
        query(&mut ws, &g, &src, t, None, QueuePolicy::Heap, &[]).unwrap();
        let d = ws.counters.delta_since(&after);
        assert_eq!(
            d.get(Counter::DijkstraPops),
            after.get(Counter::DijkstraPops)
        );
    }

    /// An irregular integer-cost graph with obstacles, shared by the
    /// policy tests.
    fn costed_grid() -> HananGraph {
        let mut g = HananGraph::with_costs(
            9,
            7,
            2,
            vec![2.0, 7.0, 1.0, 4.0, 3.0, 1.0, 9.0, 2.0],
            vec![5.0, 1.0, 1.0, 6.0, 2.0, 3.0],
            4.0,
        )
        .unwrap();
        for &(h, v, m) in &[(2, 0, 0), (2, 1, 0), (2, 2, 0), (5, 4, 1), (6, 4, 1)] {
            g.add_obstacle_vertex(GridPoint::new(h, v, m)).unwrap();
        }
        g
    }

    #[test]
    fn dial_is_bit_identical_to_heap_including_counters() {
        let g = costed_grid();
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        let mut heap_ws = DijkstraWorkspace::new();
        let mut dial_ws = DijkstraWorkspace::new();
        for target in [(4, 3, 0), (2, 6, 1), (7, 0, 0), (0, 6, 0)] {
            let t = g.index(GridPoint::new(target.0, target.1, target.2));
            let before_heap = heap_ws.counters;
            let before_dial = dial_ws.counters;
            let a = query(&mut heap_ws, &g, &sources, t, None, QueuePolicy::Heap, &[]).unwrap();
            let b = query(&mut dial_ws, &g, &sources, t, None, QueuePolicy::Auto, &[]).unwrap();
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1, b.1);
            // The op counters are acceptance targets: pops, relaxations,
            // and pushes must match the oracle exactly.
            let dh = heap_ws.counters.delta_since(&before_heap);
            let dd = dial_ws.counters.delta_since(&before_dial);
            for c in OPS {
                assert_eq!(dh.get(c), dd.get(c), "{c:?} diverged for {target:?}");
            }
            assert_eq!(dh.get(Counter::DijkstraBucketScans), 0);
            // Dial's scan counter is the number of keys its cursor walked:
            // from key-0 seeds to the settled target, exactly its cost.
            assert_eq!(dd.get(Counter::DijkstraBucketScans) as f64, b.0);
        }
    }

    #[test]
    fn auto_resolves_to_dial_on_integer_costs() {
        let g = costed_grid();
        assert!(g.integer_cost_ceiling().is_some());
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(7, 0, 0));
        let src = [GridPoint::new(0, 0, 0)];
        query(&mut ws, &g, &src, t, None, QueuePolicy::Auto, &[]).unwrap();
        // The Dial frontier is the only one that can advance the cursor.
        assert!(ws.counters.get(Counter::DijkstraBucketScans) > 0);
    }

    #[test]
    fn dial_falls_back_to_heap_on_fractional_costs() {
        let g =
            HananGraph::with_costs(4, 4, 1, vec![1.5, 2.0, 1.0], vec![1.0, 2.5, 1.0], 3.0).unwrap();
        assert_eq!(g.integer_cost_ceiling(), None);
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(3, 3, 0));
        let src = [GridPoint::new(0, 0, 0)];
        let (cost, _) = query(&mut ws, &g, &src, t, None, QueuePolicy::Auto, &[]).unwrap();
        assert_eq!(cost, 1.5 + 2.0 + 1.0 + 1.0 + 2.5 + 1.0);
        assert_eq!(
            ws.counters.get(Counter::DijkstraBucketScans),
            0,
            "fallback used heap"
        );
    }

    /// `Auto` flips from Dial to the heap exactly when the integer cost
    /// ceiling passes [`DIAL_MAX_EDGE_COST`]; on both sides of the switch
    /// it stays bit-identical to `Heap`, op counters included.
    #[test]
    fn auto_switch_boundary_matches_heap() {
        for (ceiling, takes_dial) in [(DIAL_MAX_EDGE_COST, true), (DIAL_MAX_EDGE_COST + 1, false)] {
            let top = ceiling as f64;
            let mut g = HananGraph::with_costs(
                6,
                5,
                2,
                vec![3.0, top, 1.0, 7.0, 2.0],
                vec![5.0, 1.0, top - 1.0, 2.0],
                4.0,
            )
            .unwrap();
            g.add_obstacle_vertex(GridPoint::new(3, 2, 0)).unwrap();
            assert_eq!(g.integer_cost_ceiling(), Some(ceiling));
            let sources = [GridPoint::new(0, 0, 0), GridPoint::new(5, 4, 1)];
            let mut heap_ws = DijkstraWorkspace::new();
            let mut auto_ws = DijkstraWorkspace::new();
            for target in [(4, 3, 0), (1, 4, 1), (5, 0, 0)] {
                let t = g.index(GridPoint::new(target.0, target.1, target.2));
                let before_heap = heap_ws.counters;
                let before_auto = auto_ws.counters;
                let a = query(&mut heap_ws, &g, &sources, t, None, QueuePolicy::Heap, &[]).unwrap();
                let b = query(&mut auto_ws, &g, &sources, t, None, QueuePolicy::Auto, &[]).unwrap();
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "ceiling {ceiling}");
                assert_eq!(a.1, b.1, "ceiling {ceiling}");
                let dh = heap_ws.counters.delta_since(&before_heap);
                let da = auto_ws.counters.delta_since(&before_auto);
                for c in OPS {
                    assert_eq!(dh.get(c), da.get(c), "{c:?} at ceiling {ceiling}");
                }
                let scans = da.get(Counter::DijkstraBucketScans);
                assert_eq!(scans > 0, takes_dial, "ceiling {ceiling}: {scans} scans");
            }
        }
    }

    /// A window covering the whole grid admits every neighbor, so the
    /// bounded instance of the loop must reproduce the unbounded one bit
    /// for bit — path, cost, and op counters — under every policy, with
    /// and without a target hint.
    #[test]
    fn whole_grid_window_matches_unbounded_search() {
        let g = costed_grid();
        let all = SearchBounds::around(&g, [], 0);
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        for target in [(4, 3, 0), (2, 6, 1)] {
            let tp = GridPoint::new(target.0, target.1, target.2);
            let t = g.index(tp);
            for (policy, hint) in [
                (QueuePolicy::Auto, &[tp][..]),
                (QueuePolicy::Auto, &[]),
                (QueuePolicy::Heap, &[]),
            ] {
                let mut ws_u = DijkstraWorkspace::new();
                let mut ws_b = DijkstraWorkspace::new();
                let a = query(&mut ws_u, &g, &sources, t, None, policy, hint).unwrap();
                let b = query(&mut ws_b, &g, &sources, t, Some(all), policy, hint).unwrap();
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{policy:?}");
                assert_eq!(a.1, b.1, "{policy:?}");
                assert_eq!(ws_u.counters, ws_b.counters, "{policy:?}");
            }
        }
    }

    /// Runs `query` under `Heap` and under `Auto` with `hint`; asserts the
    /// oracle's path and cost bits and returns `(heap, auto)` pops and the
    /// bucket scans `Auto` made.
    fn heap_vs_hinted_auto(
        g: &HananGraph,
        sources: &[GridPoint],
        targets: &[GridPoint],
    ) -> (u64, u64, u64) {
        let tset: Vec<usize> = targets.iter().map(|&p| g.index(p)).collect();
        let mut adj = GridAdjacency::new();
        adj.ensure(g);
        let run = |policy: QueuePolicy, hint: &[GridPoint]| {
            let mut ws = DijkstraWorkspace::new();
            let mut out = Vec::new();
            let cost = ws.shortest_path_into(
                g,
                &adj,
                sources,
                |i| tset.contains(&i),
                None,
                policy,
                hint,
                &mut out,
            );
            (cost.map(f64::to_bits), out, ws.counters)
        };
        let heap = run(QueuePolicy::Heap, &[]);
        let auto = run(QueuePolicy::Auto, targets);
        assert_eq!(heap.0, auto.0, "cost bits for {targets:?}");
        assert_eq!(heap.1, auto.1, "path for {targets:?}");
        (
            heap.2.get(Counter::DijkstraPops),
            auto.2.get(Counter::DijkstraPops),
            auto.2.get(Counter::DijkstraBucketScans),
        )
    }

    /// A target hint makes `Auto` take A* on the heap (no bucket scans):
    /// the oracle's path and cost bits, fewer pops. One target or several,
    /// one source or several.
    #[test]
    fn hinted_auto_takes_astar_at_oracle_bits() {
        let g = costed_grid();
        let one = [GridPoint::new(0, 0, 0)];
        let two = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        let mut saved = 0;
        for sources in [&one[..], &two] {
            for target in [(8, 6, 1), (4, 3, 0), (7, 0, 0), (2, 6, 1)] {
                let tp = GridPoint::new(target.0, target.1, target.2);
                let (heap, astar, scans) = heap_vs_hinted_auto(&g, sources, &[tp]);
                assert!(
                    astar <= heap,
                    "A* popped {astar} > oracle {heap} for {target:?}"
                );
                assert_eq!(scans, 0, "A* runs on the heap");
                saved += heap - astar;
            }
        }
        assert!(saved > 0, "the lower bound pruned nothing");
        let targets = [GridPoint::new(4, 3, 0), GridPoint::new(7, 0, 0)];
        heap_vs_hinted_auto(&g, &two, &targets);
    }

    /// Two targets at the same distance: A* can settle the one with the
    /// larger index first, since the other's only way in is from outside
    /// the target box at `f = f*` through a vertex of larger index still.
    /// After the settle-on, the query must return the least
    /// `(distance, index)` target, the one the heap settles first.
    #[test]
    fn hinted_auto_returns_the_heaps_first_target() {
        let mut g = open_grid(5, 3, 1);
        g.add_obstacle_vertex(GridPoint::new(2, 1, 0)).unwrap();
        let sources = [GridPoint::new(4, 0, 0), GridPoint::new(0, 2, 0)];
        let targets = [GridPoint::new(2, 0, 0), GridPoint::new(2, 2, 0)];
        heap_vs_hinted_auto(&g, &sources, &targets);
    }

    /// A* needs integer costs but not Dial's ceiling: DBU-scaled costs
    /// (every cost ×8, past [`DIAL_MAX_EDGE_COST`]) still take it.
    #[test]
    fn astar_runs_past_the_dial_ceiling() {
        let base = costed_grid();
        let big = DIAL_MAX_EDGE_COST as f64;
        let scale = |c: &[f64]| c.iter().map(|&x| x * big).collect::<Vec<_>>();
        let mut g = HananGraph::with_costs(
            9,
            7,
            2,
            scale(base.x_costs()),
            scale(base.y_costs()),
            base.via_cost() * big,
        )
        .unwrap();
        for idx in 0..base.len() {
            if base.kind_at(idx) == oarsmt_geom::VertexKind::Obstacle {
                g.add_obstacle_vertex(base.point(idx)).unwrap();
            }
        }
        assert!(g.integer_cost_ceiling().unwrap() > DIAL_MAX_EDGE_COST);
        let src = [GridPoint::new(0, 0, 0)];
        let (heap, astar, _) = heap_vs_hinted_auto(&g, &src, &[GridPoint::new(8, 6, 1)]);
        assert!(astar < heap, "A* popped {astar}, oracle {heap}");
    }

    /// A* eligibility at the 2⁵³ path-cost boundary: just below, a hinted
    /// `Auto` query takes A*; one unit of edge cost above, the heap. Only
    /// the resolution runs, so the 4M-vertex grid is never searched.
    #[test]
    fn astar_eligibility_boundary_at_two_to_the_53() {
        let (h, v) = (2048, 2048);
        for (top, expect) in [
            ((1u64 << 31) + 512, ResolvedQueue::AStar),
            ((1u64 << 31) + 513, ResolvedQueue::Heap),
        ] {
            let mut xs = vec![1.0; h - 1];
            xs[0] = top as f64;
            let g = HananGraph::with_costs(h, v, 1, xs, vec![1.0; v - 1], 1.0).unwrap();
            let bound = (g.len() as u128 - 1) * u128::from(top);
            assert_eq!(bound < 1 << 53, expect == ResolvedQueue::AStar, "{bound}");
            assert_eq!(QueuePolicy::Auto.resolve(&g, true), expect, "top {top}");
            assert_eq!(QueuePolicy::Heap.resolve(&g, true), ResolvedQueue::Heap);
            // Without a hint the ceiling is far past Dial's: the heap.
            assert_eq!(QueuePolicy::Auto.resolve(&g, false), ResolvedQueue::Heap);
        }
    }

    /// The Prim steps' bound is exactly the brute-force prefix-space L1
    /// distance to the nearest open terminal, layers dropped, and never
    /// exceeds the obstacle-aware distance to it — on random 1–4-layer
    /// grids with non-uniform gaps, and again after the open set shrinks.
    #[test]
    fn open_bound_is_the_l1_transform_and_admissible() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut bound = OpenBound::default();
        let mut ws = DijkstraWorkspace::new();
        for round in 0..24 {
            let (h, v, m) = (2 + next(7), 2 + next(7), 1 + round % 4);
            let xs: Vec<f64> = (1..h).map(|_| (1 + next(40)) as f64).collect();
            let ys: Vec<f64> = (1..v).map(|_| (1 + next(40)) as f64).collect();
            let mut g = HananGraph::with_costs(h, v, m, xs, ys, 3.0).unwrap();
            for _ in 0..next(h * v * m / 3 + 1) {
                let p = GridPoint::new(next(h), next(v), next(m));
                let _ = g.add_obstacle_vertex(p);
            }
            let mut open: Vec<u32> = (0..1 + next(5))
                .map(|_| next(g.len()))
                .filter(|&i| !g.is_blocked(g.point(i)))
                .map(|i| i as u32)
                .collect();
            open.dedup();
            let mut adj = GridAdjacency::new();
            adj.ensure(&g);
            let prefix = |costs: &[f64], i: usize| costs[..i].iter().sum::<f64>() as u64;
            while !open.is_empty() {
                bound.transform(&g, &open);
                let targets: Vec<GridPoint> = open.iter().map(|&t| g.point(t as usize)).collect();
                for idx in 0..g.len() {
                    let p = g.point(idx);
                    let brute = targets
                        .iter()
                        .map(|t| {
                            prefix(g.x_costs(), p.h).abs_diff(prefix(g.x_costs(), t.h))
                                + prefix(g.y_costs(), p.v).abs_diff(prefix(g.y_costs(), t.v))
                        })
                        .min()
                        .unwrap();
                    assert_eq!(bound.at(idx), brute, "round {round} at {p}");
                    if g.is_blocked(p) {
                        continue;
                    }
                    let mut path = Vec::new();
                    let d = ws.shortest_path_into(
                        &g,
                        &adj,
                        &[p],
                        |i| open.contains(&(i as u32)),
                        None,
                        QueuePolicy::Heap,
                        &[],
                        &mut path,
                    );
                    if let Ok(d) = d {
                        assert!(bound.at(idx) as f64 <= d, "round {round} at {p}");
                    }
                }
                open.pop();
            }
        }
    }

    #[test]
    fn search_space_reuse_is_consistent() {
        let g = open_grid(8, 8, 2);
        let mut ws = DijkstraWorkspace::new();
        let t1 = g.index(GridPoint::new(7, 7, 1));
        let t2 = g.index(GridPoint::new(3, 0, 0));
        let src = [GridPoint::new(0, 0, 0)];
        let a = query(&mut ws, &g, &src, t1, None, QueuePolicy::Auto, &[]).unwrap();
        let b = query(&mut ws, &g, &src, t2, None, QueuePolicy::Heap, &[]).unwrap();
        // 7 + 7 + via(3) and 3.
        assert_eq!(a.0, 17.0);
        assert_eq!(b.0, 3.0);
        // And again the first query, identically.
        let a2 = query(&mut ws, &g, &src, t1, None, QueuePolicy::Auto, &[]).unwrap();
        assert_eq!(a2, a);
    }
}
