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
/// against the remaining tree under `policy`. `adj` is the caller's
/// adjacency of `tree` (the polish loop builds it once per accepted tree
/// instead of once per terminal), and the caller has already run
/// `ctx.adj.ensure(graph)`, once per round. The Dijkstra workspace,
/// stamped sets and candidate tree all come from `ctx`.
///
/// Returns `None` when the terminal is an interior vertex (tree degree ≠ 1)
/// or the stripped tree would be empty; the returned tree is never more
/// expensive than the input by more than floating-point noise (the reroute
/// finds a shortest path where the original branch is one candidate).
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
    // cost then index), so they are collected in edge-list order.
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
/// Propagates graph-search failures (cannot normally occur: each
/// terminal's original branch is always a valid route back).
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
/// See [`polish_round_in`].
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
    fn round_keeps_terminals_spanned_and_never_raises_cost() {
        let mut g = HananGraph::uniform(8, 8, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 0), (7, 0), (0, 7), (7, 7), (3, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let tree = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let pins = g.pins().to_vec();
        let (polished, _) =
            polish_round_in(&mut RouteContext::new(), &g, tree.clone(), &pins).unwrap();
        assert!(polished.spans_in(&g, &pins));
        assert!(polished.is_tree());
        assert!(polished.cost() <= tree.cost() + 1e-9);
    }

    #[test]
    fn polish_round_is_idempotent_at_fixpoint() {
        let mut g = HananGraph::uniform(6, 6, 2, 1.0, 1.0, 3.0);
        for &(h, v, m) in &[(0, 0, 0), (5, 5, 1), (0, 5, 0), (5, 0, 1)] {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
        let tree = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
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
    fn straight_line_round_keeps_its_edges() {
        // A straight 3-pin line: the middle pin is interior (degree 2) and
        // each end pin's branch is already its shortest way back.
        let mut g = HananGraph::uniform(5, 1, 1, 1.0, 1.0, 3.0);
        for h in [0, 2, 4] {
            g.add_pin(GridPoint::new(h, 0, 0)).unwrap();
        }
        let tree = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let pins = g.pins().to_vec();
        let (polished, improved) =
            polish_round_in(&mut RouteContext::new(), &g, tree.clone(), &pins).unwrap();
        assert!(!improved);
        assert_eq!(polished.edges(), tree.edges());
        assert_eq!(polished.cost().to_bits(), tree.cost().to_bits());
    }
}
