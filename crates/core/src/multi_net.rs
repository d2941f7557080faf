//! Sequential multi-net routing: the application the paper's introduction
//! motivates — in a real flow, each routed net becomes a *pre-routed wire*
//! (an obstacle) for the nets that follow.
//!
//! [`MultiNetRouter`] routes a list of nets in order on a shared Hanan
//! graph, committing each finished tree's vertices as obstacles before the
//! next net routes. Nets are usually ordered shortest-first (fewest pins /
//! smallest bounding box), which the router can do for you.

use std::fmt;

use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_router::RouteTree;

use crate::error::CoreError;
use crate::rl_router::RlRouter;
use crate::selector::Selector;

/// A net to route: a name and its pin locations on the shared grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name (for reporting).
    pub name: String,
    /// Pin locations.
    pub pins: Vec<GridPoint>,
}

impl Net {
    /// Creates a net.
    pub fn new<S: Into<String>>(name: S, pins: Vec<GridPoint>) -> Self {
        Net {
            name: name.into(),
            pins,
        }
    }

    /// Half-perimeter wirelength of the pin bounding box in grid steps —
    /// the classic net-ordering key.
    pub fn hpwl(&self) -> usize {
        if self.pins.is_empty() {
            return 0;
        }
        let (mut h0, mut h1, mut v0, mut v1) = (usize::MAX, 0, usize::MAX, 0);
        for p in &self.pins {
            h0 = h0.min(p.h);
            h1 = h1.max(p.h);
            v0 = v0.min(p.v);
            v1 = v1.max(p.v);
        }
        (h1 - h0) + (v1 - v0)
    }
}

/// Result of routing one net in a multi-net sequence.
#[derive(Debug, Clone)]
pub struct NetResult {
    /// The net name.
    pub name: String,
    /// The routed tree, or `None` if the net became unroutable (blocked by
    /// previously committed nets or obstacles).
    pub tree: Option<RouteTree>,
}

/// Summary of a multi-net routing run.
#[derive(Debug, Clone)]
pub struct MultiNetOutcome {
    /// Per-net results, in routing order.
    pub nets: Vec<NetResult>,
    /// Total routing cost over the successfully routed nets.
    pub total_cost: f64,
    /// Number of nets that could not be routed.
    pub failed: usize,
}

impl fmt::Display for MultiNetOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets routed, {} failed, total cost {}",
            self.nets.len() - self.failed,
            self.failed,
            self.total_cost
        )
    }
}

impl MultiNetOutcome {
    fn with_capacity(nets: usize) -> Self {
        MultiNetOutcome {
            nets: Vec::with_capacity(nets),
            total_cost: 0.0,
            failed: 0,
        }
    }

    /// Records one net's result. A routed tree is committed: every tree
    /// vertex becomes an obstacle on `base` for the remaining nets
    /// (pre-routed wire).
    fn commit(&mut self, base: &mut HananGraph, net: &Net, tree: Option<RouteTree>) {
        match &tree {
            Some(t) => {
                self.total_cost += t.cost();
                // lint: ordered-ok(marking a vertex set as obstacles is order-insensitive)
                for v in t.vertices() {
                    let _ = base.add_obstacle_vertex(base.point(v as usize));
                }
            }
            None => self.failed += 1,
        }
        self.nets.push(NetResult {
            name: net.name.clone(),
            tree,
        });
    }
}

/// Routes several nets sequentially, committing each tree as obstacles.
#[derive(Debug)]
pub struct MultiNetRouter<S> {
    router: RlRouter<S>,
    order_by_hpwl: bool,
}

impl<S: Selector> MultiNetRouter<S> {
    /// Creates a multi-net router around a Steiner-point selector.
    pub fn new(selector: S) -> Self {
        MultiNetRouter {
            router: RlRouter::new(selector),
            order_by_hpwl: true,
        }
    }

    /// Keeps the caller's net order instead of sorting by HPWL
    /// (builder style).
    #[must_use]
    pub fn without_ordering(mut self) -> Self {
        self.order_by_hpwl = false;
        self
    }

    /// Routes all nets on a template graph (whose own pins are ignored —
    /// each net brings its pins). Committed trees block later nets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Route`] only for *structural* failures (a net
    /// with pins on obstacles); nets that merely become unroutable due to
    /// congestion are reported in the outcome with `tree: None`.
    pub fn route_nets(
        &mut self,
        template: &HananGraph,
        nets: &[Net],
    ) -> Result<MultiNetOutcome, CoreError> {
        let mut order: Vec<usize> = (0..nets.len()).collect();
        if self.order_by_hpwl {
            order.sort_by_key(|&i| (nets[i].hpwl(), nets[i].pins.len()));
        }
        // Start from an un-pinned copy of the template.
        let mut base = strip_pins(template);
        let mut out = MultiNetOutcome::with_capacity(nets.len());
        for &i in &order {
            let tree = route_one(&mut self.router, &base, &nets[i])?;
            out.commit(&mut base, &nets[i], tree);
        }
        Ok(out)
    }
}

impl<S: Selector + Clone + Send + Sync> MultiNetRouter<S> {
    /// Routes all nets like [`MultiNetRouter::route_nets`], but scores
    /// independent nets concurrently on `threads` workers.
    ///
    /// Nets are taken in (HPWL-)order and grouped into *waves* of nets
    /// whose pin bounding boxes are pairwise disjoint; each wave routes in
    /// parallel against a snapshot of the committed graph, then commits in
    /// wave order. A tree that turns out to cross a wire committed earlier
    /// in its own wave (trees may stray outside their net's bounding box)
    /// is re-routed sequentially against the up-to-date graph, so the final
    /// layout is always conflict-free.
    ///
    /// Wave composition, per-wave routing and commit order depend only on
    /// the input — **results are bit-identical for every `threads` value**.
    /// They may differ from [`MultiNetRouter::route_nets`], which commits
    /// after every net instead of after every wave.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Route`] only for *structural* failures, exactly
    /// like [`MultiNetRouter::route_nets`].
    pub fn route_nets_parallel(
        &mut self,
        template: &HananGraph,
        nets: &[Net],
        threads: usize,
    ) -> Result<MultiNetOutcome, CoreError> {
        let mut pending: Vec<usize> = (0..nets.len()).collect();
        if self.order_by_hpwl {
            pending.sort_by_key(|&i| (nets[i].hpwl(), nets[i].pins.len()));
        }
        let mut base = strip_pins(template);
        let mut out = MultiNetOutcome::with_capacity(nets.len());

        while !pending.is_empty() {
            // Greedy wave: the longest prefix-respecting set of nets whose
            // pin bounding boxes are pairwise disjoint.
            let mut wave: Vec<usize> = Vec::new();
            let mut boxes: Vec<(usize, usize, usize, usize)> = Vec::new();
            let mut rest: Vec<usize> = Vec::new();
            for &i in &pending {
                let b = pin_bbox(&nets[i]);
                if boxes.iter().all(|&o| !bboxes_intersect(b, o)) {
                    wave.push(i);
                    boxes.push(b);
                } else {
                    rest.push(i);
                }
            }
            pending = rest;

            // Route the wave against a snapshot of the committed graph.
            // The routers are deterministic, so the per-net trees do not
            // depend on the worker partition (the seed goes unused).
            let proto = self.router.clone();
            let routed = crate::parallel::run_seeded_with(
                wave.len(),
                0,
                threads,
                || proto.clone(),
                |router, w, _seed| -> Result<Option<RouteTree>, CoreError> {
                    route_one(router, &base, &nets[wave[w]])
                },
            );

            // Commit in wave order; trees invalidated by an earlier commit
            // of this wave are re-routed against the up-to-date graph.
            for (w, outcome) in routed.into_iter().enumerate() {
                let net = &nets[wave[w]];
                let mut tree = outcome?;
                if let Some(t) = &tree {
                    // lint: ordered-ok(existence check over a vertex set is order-insensitive)
                    let crosses_committed_wire = t
                        .vertices()
                        .iter()
                        .any(|&v| base.kind_at(v as usize) == VertexKind::Obstacle);
                    if crosses_committed_wire {
                        tree = route_one(&mut self.router, &base, net)?;
                    }
                }
                out.commit(&mut base, net, tree);
            }
        }
        Ok(out)
    }
}

/// Routes one net on a pin-less committed graph. `Ok(None)` means the net
/// is unroutable under congestion (pins blocked or disconnected);
/// structural failures propagate.
fn route_one<S: Selector>(
    router: &mut RlRouter<S>,
    base: &HananGraph,
    net: &Net,
) -> Result<Option<RouteTree>, CoreError> {
    let mut graph = base.clone();
    for &p in &net.pins {
        if graph.add_pin(p).is_err() {
            return Ok(None);
        }
    }
    match router.route(&graph) {
        Ok(out) => Ok(Some(out.tree)),
        Err(CoreError::Route(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Inclusive `(h0, h1, v0, v1)` bounding box of a net's pins.
fn pin_bbox(net: &Net) -> (usize, usize, usize, usize) {
    let (mut h0, mut h1, mut v0, mut v1) = (usize::MAX, 0, usize::MAX, 0);
    for p in &net.pins {
        h0 = h0.min(p.h);
        h1 = h1.max(p.h);
        v0 = v0.min(p.v);
        v1 = v1.max(p.v);
    }
    (h0, h1, v0, v1)
}

fn bboxes_intersect(a: (usize, usize, usize, usize), b: (usize, usize, usize, usize)) -> bool {
    a.0 <= b.1 && b.0 <= a.1 && a.2 <= b.3 && b.2 <= a.3
}

/// Clones a graph with all pins removed (kinds reset to empty).
fn strip_pins(graph: &HananGraph) -> HananGraph {
    let (h, v, m) = graph.dims();
    let mut g = HananGraph::with_costs(
        h,
        v,
        m,
        graph.x_costs().to_vec(),
        graph.y_costs().to_vec(),
        graph.via_cost(),
    )
    .expect("dims of an existing graph are valid");
    for idx in 0..graph.len() {
        if graph.kind_at(idx) == VertexKind::Obstacle {
            g.add_obstacle_vertex(graph.point(idx))
                .expect("obstacle placement on an empty clone");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::MedianHeuristicSelector;

    fn open_grid() -> HananGraph {
        HananGraph::uniform(10, 10, 2, 1.0, 1.0, 3.0)
    }

    fn p(h: usize, v: usize, m: usize) -> GridPoint {
        GridPoint::new(h, v, m)
    }

    #[test]
    fn routes_disjoint_nets_without_conflicts() {
        let template = open_grid();
        let nets = vec![
            Net::new("a", vec![p(0, 0, 0), p(3, 0, 0)]),
            Net::new("b", vec![p(0, 5, 0), p(3, 5, 0), p(1, 8, 0)]),
        ];
        let mut router = MultiNetRouter::new(MedianHeuristicSelector::new());
        let out = router.route_nets(&template, &nets).unwrap();
        assert_eq!(out.failed, 0);
        assert!(out.total_cost > 0.0);
        // Trees are vertex-disjoint (the second net avoided the first).
        let trees: Vec<&RouteTree> = out.nets.iter().filter_map(|n| n.tree.as_ref()).collect();
        let va = trees[0].vertices();
        let vb = trees[1].vertices();
        assert!(va.is_disjoint(&vb));
    }

    #[test]
    fn later_nets_detour_around_committed_wires() {
        let template = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        // Net a routes straight across the middle; net b must cross it and
        // is forced to detour (single layer!).
        let nets = vec![
            Net::new("a", vec![p(0, 2, 0), p(4, 2, 0)]),
            Net::new("b", vec![p(2, 0, 0), p(2, 4, 0)]),
        ];
        let mut router = MultiNetRouter::new(MedianHeuristicSelector::new()).without_ordering();
        let out = router.route_nets(&template, &nets).unwrap();
        // b either fails (fully blocked) or costs more than the manhattan 4.
        match &out.nets[1].tree {
            Some(t) => assert!(t.cost() > 4.0),
            None => assert_eq!(out.failed, 1),
        }
    }

    #[test]
    fn second_layer_relieves_crossings() {
        let template = HananGraph::uniform(5, 5, 2, 1.0, 1.0, 3.0);
        let nets = vec![
            Net::new("a", vec![p(0, 2, 0), p(4, 2, 0)]),
            Net::new("b", vec![p(2, 0, 0), p(2, 4, 0)]),
        ];
        let mut router = MultiNetRouter::new(MedianHeuristicSelector::new()).without_ordering();
        let out = router.route_nets(&template, &nets).unwrap();
        assert_eq!(out.failed, 0, "layer 1 offers a crossing");
        let b = out.nets[1].tree.as_ref().unwrap();
        assert!(b.via_count(&template) >= 2 || b.cost() > 4.0);
    }

    #[test]
    fn hpwl_ordering_routes_small_nets_first() {
        let template = open_grid();
        let big = Net::new("big", vec![p(0, 0, 0), p(9, 9, 0)]);
        let small = Net::new("small", vec![p(4, 4, 0), p(5, 4, 0)]);
        let mut router = MultiNetRouter::new(MedianHeuristicSelector::new());
        let out = router
            .route_nets(&template, &[big.clone(), small.clone()])
            .unwrap();
        assert_eq!(out.nets[0].name, "small");
        assert_eq!(out.nets[1].name, "big");
        assert_eq!(big.hpwl(), 18);
        assert_eq!(small.hpwl(), 1);
    }

    #[test]
    fn parallel_routing_is_thread_count_invariant_and_conflict_free() {
        let template = open_grid();
        let nets = vec![
            Net::new("a", vec![p(0, 0, 0), p(3, 1, 0)]),
            Net::new("b", vec![p(0, 5, 0), p(3, 6, 0), p(1, 8, 0)]),
            Net::new("c", vec![p(6, 0, 0), p(9, 2, 0)]),
            Net::new("d", vec![p(6, 6, 0), p(9, 9, 1)]),
            Net::new("e", vec![p(4, 3, 1), p(5, 5, 1)]),
        ];
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let mut router = MultiNetRouter::new(MedianHeuristicSelector::new());
            outcomes.push(
                router
                    .route_nets_parallel(&template, &nets, threads)
                    .unwrap(),
            );
        }
        let (one, four) = (&outcomes[0], &outcomes[1]);
        assert_eq!(one.total_cost.to_bits(), four.total_cost.to_bits());
        assert_eq!(one.failed, four.failed);
        assert_eq!(one.nets.len(), four.nets.len());
        for (a, b) in one.nets.iter().zip(&four.nets) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.tree.as_ref().map(RouteTree::vertices),
                b.tree.as_ref().map(RouteTree::vertices)
            );
        }
        // Committed trees are pairwise vertex-disjoint (no overlooked
        // conflicts between wave members).
        let trees: Vec<&RouteTree> = four.nets.iter().filter_map(|n| n.tree.as_ref()).collect();
        for (i, a) in trees.iter().enumerate() {
            for b in &trees[i + 1..] {
                assert!(a.vertices().is_disjoint(&b.vertices()));
            }
        }
    }

    #[test]
    fn pins_on_committed_wires_fail_gracefully() {
        let template = HananGraph::uniform(4, 1, 1, 1.0, 1.0, 3.0);
        let nets = vec![
            Net::new("a", vec![p(0, 0, 0), p(3, 0, 0)]),
            // b's pin sits on a's wire.
            Net::new("b", vec![p(1, 0, 0), p(2, 0, 0)]),
        ];
        let mut router = MultiNetRouter::new(MedianHeuristicSelector::new()).without_ordering();
        let out = router.route_nets(&template, &nets).unwrap();
        assert_eq!(out.failed, 1);
        assert!(out.nets[1].tree.is_none());
    }
}
