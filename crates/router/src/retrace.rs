//! Path-assessed retracing: rip up one terminal's branch and reroute it
//! against the remaining tree (\[14\]'s tree-improvement move, used both by
//! the shared OARMST construction's polish pass and by the \[14\] baseline's
//! iterated reassessment).

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::QueuePolicy;

use crate::context::RouteContext;
use crate::error::RouteError;
use crate::tree::{RouteTree, TreeAdjacency};

/// Rips up `terminal`'s branch — the degree-≤2 chain from the terminal to
/// the first branch vertex or other terminal — and reroutes the terminal
/// against the remaining tree. The Dijkstra workspace, stamped sets, and
/// candidate tree all come from the caller's [`RouteContext`] instead of
/// per-call allocation.
///
/// Returns `None` when the terminal is an interior vertex (tree degree ≠ 1)
/// or the stripped tree would be empty; the returned tree is never more
/// expensive than the input by more than floating-point noise (the reroute
/// finds a shortest path where the original branch is one candidate).
///
/// # Errors
///
/// Propagates graph-search failures (cannot normally occur: the original
/// branch is always a valid route back).
pub fn reroute_terminal_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    tree: &RouteTree,
    terminals: &[GridPoint],
    terminal_idx: usize,
) -> Result<Option<RouteTree>, RouteError> {
    ctx.adj.ensure(graph);
    let mut adj = std::mem::take(&mut ctx.tree_adj);
    adj.rebuild(tree);
    let result = reroute_with_adj(
        ctx,
        graph,
        tree,
        &adj,
        terminals,
        terminal_idx,
        QueuePolicy::Auto,
    );
    ctx.tree_adj = adj;
    result
}

/// [`reroute_terminal_in`] against a caller-supplied adjacency of `tree`
/// (the polish loop builds it once per accepted tree instead of once per
/// terminal), under the caller's [`QueuePolicy`]. The caller has already
/// run `ctx.adj.ensure(graph)`, once per polish round rather than once
/// per terminal.
#[allow(clippy::too_many_arguments)]
fn reroute_with_adj(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    tree: &RouteTree,
    adj: &TreeAdjacency,
    terminals: &[GridPoint],
    terminal_idx: usize,
    policy: QueuePolicy,
) -> Result<Option<RouteTree>, RouteError> {
    let terminal = terminals[terminal_idx];
    let term_v = graph.index(terminal) as u32;
    let neighbors = adj.neighbors(term_v);
    if neighbors.len() != 1 {
        return Ok(None);
    }
    ctx.seen.begin(graph.len());
    for &p in terminals {
        ctx.seen.insert(graph.index(p));
    }

    // Strip the degree-2 chain hanging off the terminal.
    let mut stripped = ctx.take_tree();
    stripped.copy_from(tree);
    let mut prev = term_v;
    let mut cur = neighbors[0].1;
    stripped.remove_edge(graph, prev, cur);
    while !ctx.seen.contains(cur as usize) {
        // Degree-2 chain step: exactly one neighbor differs from `prev`,
        // so the sorted neighbor order cannot change which one is picked.
        let n = adj.neighbors(cur);
        if n.len() != 2 {
            break;
        }
        let Some(&(_, next)) = n.iter().find(|&&(_, x)| x != prev) else {
            break;
        };
        stripped.remove_edge(graph, cur, next);
        prev = cur;
        cur = next;
    }

    // The remaining tree's vertices are the multi-source frontier. Source
    // *order* does not affect the result (the maze heap settles ties by
    // cost then index), so edge-iteration order replaces the old hash-set
    // collection bit-identically.
    ctx.mark.begin(graph.len());
    ctx.tree_vertices.clear();
    for &(a, b) in stripped.edges() {
        if ctx.mark.insert(a as usize) {
            ctx.tree_vertices.push(graph.point(a as usize));
        }
        if ctx.mark.insert(b as usize) {
            ctx.tree_vertices.push(graph.point(b as usize));
        }
    }
    if ctx.tree_vertices.is_empty() {
        ctx.recycle_tree(stripped);
        return Ok(None);
    }
    let target = graph.index(terminal);
    // Single-target reroute: the terminal itself is the exact A* hint.
    if let Err(e) = ctx.space.shortest_path_into(
        graph,
        &ctx.adj,
        &ctx.tree_vertices,
        |i| i == target,
        None,
        policy,
        std::slice::from_ref(&terminal),
        &mut ctx.path_buf,
    ) {
        ctx.recycle_tree(stripped);
        return Err(RouteError::from(e));
    }
    for w in ctx.path_buf.windows(2) {
        stripped.add_edge(graph, w[0], w[1]);
    }
    Ok(Some(stripped))
}

/// One polish round through a caller-owned [`RouteContext`]: reassess
/// every terminal's branch once, keeping improvements. Returns the
/// (possibly unchanged) best tree and whether any reroute improved it;
/// rejected reroute candidates go back to the context's tree pool.
///
/// # Errors
///
/// See [`reroute_terminal_in`].
pub fn polish_round_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    tree: RouteTree,
    terminals: &[GridPoint],
) -> Result<(RouteTree, bool), RouteError> {
    polish_round_policy_in(ctx, graph, tree, terminals, QueuePolicy::Auto)
}

/// [`polish_round_in`] under an explicit [`QueuePolicy`] (the
/// [`OarmstRouter`](crate::OarmstRouter) threads its configured policy
/// through so an oracle-policy route stays heap-driven end to end).
///
/// # Errors
///
/// See [`reroute_terminal_in`].
pub fn polish_round_policy_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    tree: RouteTree,
    terminals: &[GridPoint],
    policy: QueuePolicy,
) -> Result<(RouteTree, bool), RouteError> {
    let mut best = tree;
    let mut improved = false;
    ctx.adj.ensure(graph);
    let mut adj = std::mem::take(&mut ctx.tree_adj);
    adj.rebuild(&best);
    for idx in 0..terminals.len() {
        match reroute_with_adj(ctx, graph, &best, &adj, terminals, idx, policy) {
            Ok(Some(candidate)) => {
                if candidate.cost() + 1e-9 < best.cost() {
                    ctx.recycle_tree(std::mem::replace(&mut best, candidate));
                    adj.rebuild(&best);
                    improved = true;
                } else {
                    ctx.recycle_tree(candidate);
                }
            }
            Ok(None) => {}
            Err(e) => {
                ctx.tree_adj = adj;
                return Err(e);
            }
        }
    }
    ctx.tree_adj = adj;
    Ok((best, improved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;

    #[test]
    fn reroute_preserves_spanning_and_never_worsens() {
        let mut g = HananGraph::uniform(8, 8, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 0), (7, 0), (0, 7), (7, 7), (3, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        let pins = g.pins().to_vec();
        let mut ctx = RouteContext::new();
        for idx in 0..pins.len() {
            if let Some(t) = reroute_terminal_in(&mut ctx, &g, &tree, &pins, idx).unwrap() {
                assert!(t.spans_in(&g, &pins), "terminal {idx}");
                assert!(t.cost() <= tree.cost() + 1e-9);
            }
        }
    }

    #[test]
    fn polish_round_is_idempotent_at_fixpoint() {
        let mut g = HananGraph::uniform(6, 6, 2, 1.0, 1.0, 3.0);
        for &(h, v, m) in &[(0, 0, 0), (5, 5, 1), (0, 5, 0), (5, 0, 1)] {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        let pins = g.pins().to_vec();
        let (t1, _) = polish_round_in(&mut RouteContext::new(), &g, tree, &pins).unwrap();
        let (t2, improved2) =
            polish_round_in(&mut RouteContext::new(), &g, t1.clone(), &pins).unwrap();
        if !improved2 {
            assert_eq!(t1.cost(), t2.cost());
        }
        assert!(t2.cost() <= t1.cost() + 1e-9);
    }

    #[test]
    fn interior_terminals_are_skipped() {
        // A straight 3-pin line: the middle pin has degree 2.
        let mut g = HananGraph::uniform(5, 1, 1, 1.0, 1.0, 3.0);
        for h in [0, 2, 4] {
            g.add_pin(GridPoint::new(h, 0, 0)).unwrap();
        }
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        let pins = g.pins().to_vec();
        // Middle pin (index 1) is interior.
        assert!(
            reroute_terminal_in(&mut RouteContext::new(), &g, &tree, &pins, 1)
                .unwrap()
                .is_none()
        );
    }
}
