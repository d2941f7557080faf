//! The actor: converting the selector's independent per-vertex
//! probabilities into a sequential action policy (Eq. 1 of the paper).
//!
//! The Steiner-point selector outputs a *final selected probability*
//! `fsp(v)` per vertex whose sum exceeds one (multiple vertices are selected
//! at once), so it cannot directly act as an MCTS policy. The actor
//! re-weights it along the selection-priority order: for a valid vertex `u`
//! with the last selected point `w`,
//!
//! `p'(u) = fsp(u) × Π_{w < v < u, v valid} (1 − fsp(v))`
//!
//! — the probability that `u` is selected *and* every valid vertex between
//! `w` and `u` is skipped — then normalizes over all valid vertices.

use oarsmt_geom::{HananGraph, VertexKind};

/// One action of the policy: a vertex (by linear index) and its normalized
/// selection probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionProb {
    /// Linear vertex index of the action.
    pub vertex: u32,
    /// Normalized policy probability.
    pub prob: f64,
}

/// Computes the action policy for a state.
///
/// * `fsp` — the selector's probabilities for the state (selected Steiner
///   points already encoded as pins).
/// * `last_selected` — linear index of the last selected Steiner point, or
///   `None` at the root. Only vertices with a strictly larger index (lower
///   selection priority) are valid actions.
///
/// `out` is cleared first; it is left empty when no valid action exists,
/// and its probabilities sum to 1 otherwise. The search reuses one buffer
/// per expansion instead of allocating a policy vector on every
/// simulation.
///
/// # Panics
///
/// Panics if `fsp.len() != graph.len()`.
pub fn action_policy_into(
    graph: &HananGraph,
    fsp: &[f32],
    last_selected: Option<u32>,
    out: &mut Vec<ActionProb>,
) {
    assert_eq!(fsp.len(), graph.len());
    out.clear();
    let start = last_selected.map_or(0, |w| w as usize + 1);
    // Running product of (1 - fsp(v)) over valid vertices with higher
    // priority than the current candidate (and lower than w).
    let mut skip_product = 1.0f64;
    for (idx, &f) in fsp.iter().enumerate().skip(start) {
        if graph.kind_at(idx) != VertexKind::Empty {
            continue;
        }
        let p = f64::from(f.clamp(0.0, 1.0));
        let w = p * skip_product;
        if w > 0.0 {
            out.push(ActionProb {
                vertex: idx as u32,
                prob: w,
            });
        }
        skip_product *= 1.0 - p;
    }
    let total: f64 = out.iter().map(|a| a.prob).sum();
    if total <= 0.0 {
        // Degenerate selector (all zeros): fall back to uniform over valid
        // vertices so the search can still progress.
        out.clear();
        out.extend(
            (start..graph.len())
                .filter(|&i| graph.kind_at(i) == VertexKind::Empty)
                .map(|i| ActionProb {
                    vertex: i as u32,
                    prob: 0.0,
                }),
        );
        let n = out.len() as f64;
        for a in out.iter_mut() {
            a.prob = 1.0 / n;
        }
        return;
    }
    for a in out.iter_mut() {
        a.prob /= total;
    }
}

/// Computes the conventional (AlphaGo-like, Section 4.2) prior for a
/// state: `fsp` normalized over **every** valid vertex not in `selected`,
/// in index order, with no priority cutoff and no Eq. 1 re-weighting.
/// Zero-probability vertices stay actions; when the probabilities sum to
/// 0 every action gets the uniform prior.
///
/// `out` is cleared first and left empty when no valid action exists —
/// the same reused-buffer contract as [`action_policy_into`].
///
/// # Panics
///
/// Panics if `fsp.len() != graph.len()`.
pub fn conventional_policy_into(
    graph: &HananGraph,
    fsp: &[f32],
    selected: &[u32],
    out: &mut Vec<ActionProb>,
) {
    assert_eq!(fsp.len(), graph.len());
    out.clear();
    out.extend(
        fsp.iter()
            .enumerate()
            .filter(|&(i, _)| {
                graph.kind_at(i) == VertexKind::Empty && !selected.contains(&(i as u32))
            })
            .map(|(i, &f)| ActionProb {
                vertex: i as u32,
                prob: f64::from(f.clamp(0.0, 1.0)),
            }),
    );
    let total: f64 = out.iter().map(|a| a.prob).sum();
    let n = out.len() as f64;
    for a in out.iter_mut() {
        a.prob = if total > 0.0 { a.prob / total } else { 1.0 / n };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    fn line_graph(len: usize) -> HananGraph {
        HananGraph::uniform(len, 1, 1, 1.0, 1.0, 3.0)
    }

    /// The policy into a fresh buffer.
    fn action_policy(g: &HananGraph, fsp: &[f32], last: Option<u32>) -> Vec<ActionProb> {
        let mut out = Vec::new();
        action_policy_into(g, fsp, last, &mut out);
        out
    }

    #[test]
    fn policy_sums_to_one() {
        let g = line_graph(6);
        let fsp = vec![0.3, 0.9, 0.1, 0.5, 0.0, 0.7];
        let policy = action_policy(&g, &fsp, None);
        let sum: f64 = policy.iter().map(|a| a.prob).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn telescoping_weights_match_eq1_by_hand() {
        let g = line_graph(3);
        let fsp = vec![0.5, 0.5, 0.5];
        let policy = action_policy(&g, &fsp, None);
        // p'(0) = 0.5; p'(1) = 0.5*0.5; p'(2) = 0.5*0.25.
        // Normalized: 4/7, 2/7, 1/7.
        assert_eq!(policy.len(), 3);
        assert!((policy[0].prob - 4.0 / 7.0).abs() < 1e-12);
        assert!((policy[1].prob - 2.0 / 7.0).abs() < 1e-12);
        assert!((policy[2].prob - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn respects_priority_cutoff() {
        let g = line_graph(5);
        let fsp = vec![0.9; 5];
        let policy = action_policy(&g, &fsp, Some(2));
        let vertices: Vec<u32> = policy.iter().map(|a| a.vertex).collect();
        assert_eq!(vertices, vec![3, 4]);
    }

    #[test]
    fn pins_and_obstacles_are_invalid_and_skipped_in_the_product() {
        let mut g = line_graph(4);
        g.add_pin(GridPoint::new(1, 0, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 0, 0)).unwrap();
        let fsp = vec![0.5, 1.0, 1.0, 0.5];
        let policy = action_policy(&g, &fsp, None);
        // Valid: 0 and 3. Invalid vertices must NOT contribute (1 - fsp)
        // factors, so p'(3) = 0.5 * (1 - 0.5) = 0.25.
        assert_eq!(policy.len(), 2);
        assert_eq!(policy[0].vertex, 0);
        assert_eq!(policy[1].vertex, 3);
        assert!((policy[0].prob - 0.5 / 0.75).abs() < 1e-12);
        assert!((policy[1].prob - 0.25 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn all_zero_selector_falls_back_to_uniform() {
        let g = line_graph(4);
        let fsp = vec![0.0; 4];
        let policy = action_policy(&g, &fsp, Some(0));
        assert_eq!(policy.len(), 3);
        for a in &policy {
            assert!((a.prob - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn no_valid_action_gives_empty_policy() {
        let g = line_graph(3);
        let fsp = vec![0.5; 3];
        assert!(action_policy(&g, &fsp, Some(2)).is_empty());
    }

    #[test]
    fn conventional_prior_spans_every_unselected_valid_vertex() {
        let mut g = line_graph(5);
        g.add_pin(GridPoint::new(1, 0, 0)).unwrap();
        let fsp = vec![0.5, 1.0, 0.0, 0.25, 0.25];
        let mut out = Vec::new();
        conventional_policy_into(&g, &fsp, &[3], &mut out);
        // No priority cutoff: vertex 0 is an action even after 3 was
        // selected; the pin (1) and the selected vertex (3) are not, and
        // the zero-probability vertex 2 stays an action.
        let vertices: Vec<u32> = out.iter().map(|a| a.vertex).collect();
        assert_eq!(vertices, vec![0, 2, 4]);
        assert_eq!(out[0].prob, 0.5 / 0.75);
        assert_eq!(out[1].prob, 0.0);
        assert_eq!(out[2].prob, 0.25 / 0.75);

        conventional_policy_into(&g, &[0.0; 5], &[], &mut out);
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|a| a.prob == 0.25),
            "all-zero falls back to uniform"
        );

        conventional_policy_into(&g, &fsp, &[0, 2, 3, 4], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn certain_vertex_absorbs_following_probability() {
        let g = line_graph(3);
        let fsp = vec![0.2, 1.0, 0.9];
        let policy = action_policy(&g, &fsp, None);
        // fsp(1) = 1 makes the skip product 0 beyond it: vertex 2 gets 0.
        assert_eq!(policy.len(), 2);
        assert_eq!(policy[0].vertex, 0);
        assert_eq!(policy[1].vertex, 1);
        let sum: f64 = policy.iter().map(|a| a.prob).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
