//! Top-k Steiner-point selection from a probability array.
//!
//! "If there are `n` pins to be connected in the input layout, the vertices
//! with the top `n − 2` highest probabilities will be selected as the
//! Steiner points" (Section 3.1). Only *valid* vertices — empty, not a pin
//! or obstacle, not already selected — participate; ties break toward the
//! higher selection priority (smaller lexicographic `(h, v, m)`).

use oarsmt_geom::{GridPoint, HananGraph, VertexKind};

/// Selects the `k` valid vertices with the highest probabilities through
/// caller-owned scratch buffers: `scored` and `excl_idx` are cleared and
/// reused, and the selection is **appended** to `out`, the appended suffix
/// sorted by selection priority. Appending lets a caller keep
/// already-fixed Steiner points in `out` and extend them with the
/// completion in place.
///
/// `exclude` marks additional invalid vertices (e.g. Steiner points already
/// fixed by an MCTS state). Fewer than `k` points are appended when fewer
/// valid vertices exist.
///
/// # Panics
///
/// Panics if `fsp.len() != graph.len()`.
pub fn select_top_k_into(
    graph: &HananGraph,
    fsp: &[f32],
    k: usize,
    exclude: &[GridPoint],
    scored: &mut Vec<(f32, u32)>,
    excl_idx: &mut Vec<u32>,
    out: &mut Vec<GridPoint>,
) {
    assert_eq!(fsp.len(), graph.len(), "fsp must cover every vertex");
    if k == 0 {
        return;
    }
    excl_idx.clear();
    excl_idx.extend(exclude.iter().map(|&p| graph.index(p) as u32));
    excl_idx.sort_unstable();
    scored.clear();
    for (idx, &p) in fsp.iter().enumerate() {
        if graph.kind_at(idx) != VertexKind::Empty {
            continue;
        }
        if excl_idx.binary_search(&(idx as u32)).is_ok() {
            continue;
        }
        scored.push((p, idx as u32));
    }
    // Highest probability first; ties by smaller index (= higher priority).
    // Unstable sort: the index tiebreak makes the comparator a strict
    // total order (no two entries compare equal), so the result is
    // identical to the stable sort's without its merge-buffer allocation.
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let start = out.len();
    out.extend(
        scored
            .iter()
            .take(k)
            .map(|&(_, idx)| graph.point(idx as usize)),
    );
    out[start..].sort_unstable();
}

/// The number of Steiner points the paper selects for an `n`-pin layout:
/// `max(n − 2, 0)` (Section 2.1: a layout with `n` pins needs at most
/// `n − 2` irredundant Steiner points).
pub fn steiner_budget(pin_count: usize) -> usize {
    pin_count.saturating_sub(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The selection into fresh buffers.
    fn top_k(graph: &HananGraph, fsp: &[f32], k: usize, exclude: &[GridPoint]) -> Vec<GridPoint> {
        let mut out = Vec::new();
        select_top_k_into(
            graph,
            fsp,
            k,
            exclude,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn graph() -> HananGraph {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 2, 0)).unwrap();
        g
    }

    #[test]
    fn picks_highest_probability_valid_vertices() {
        let g = graph();
        let mut fsp = vec![0.1f32; g.len()];
        fsp[g.index(GridPoint::new(1, 1, 0))] = 0.9;
        fsp[g.index(GridPoint::new(2, 0, 0))] = 0.8;
        // Tempt with invalid vertices:
        fsp[g.index(GridPoint::new(0, 0, 0))] = 1.0; // pin
        fsp[g.index(GridPoint::new(2, 2, 0))] = 1.0; // obstacle
        let sel = top_k(&g, &fsp, 2, &[]);
        assert_eq!(sel, vec![GridPoint::new(1, 1, 0), GridPoint::new(2, 0, 0)]);
    }

    #[test]
    fn exclusions_are_respected() {
        let g = graph();
        let mut fsp = vec![0.5f32; g.len()];
        let hot = GridPoint::new(1, 1, 0);
        fsp[g.index(hot)] = 0.99;
        let sel = top_k(&g, &fsp, 1, &[hot]);
        assert!(!sel.contains(&hot));
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn ties_break_by_priority() {
        let g = graph();
        let fsp = vec![0.5f32; g.len()];
        let sel = top_k(&g, &fsp, 2, &[]);
        // First two valid vertices in priority order: (0,1,0) then (0,2,0).
        assert_eq!(sel, vec![GridPoint::new(0, 1, 0), GridPoint::new(0, 2, 0)]);
    }

    #[test]
    fn k_larger_than_valid_count_returns_all_valid() {
        let g = graph();
        let fsp = vec![0.5f32; g.len()];
        let sel = top_k(&g, &fsp, 100, &[]);
        // 9 vertices - 1 pin - 1 obstacle = 7 valid.
        assert_eq!(sel.len(), 7);
    }

    #[test]
    fn zero_k_returns_empty() {
        let g = graph();
        let fsp = vec![0.5f32; g.len()];
        assert!(top_k(&g, &fsp, 0, &[]).is_empty());
    }

    #[test]
    fn steiner_budget_is_n_minus_2() {
        assert_eq!(steiner_budget(0), 0);
        assert_eq!(steiner_budget(2), 0);
        assert_eq!(steiner_budget(3), 1);
        assert_eq!(steiner_budget(10), 8);
    }

    #[test]
    fn reused_buffers_append_after_a_kept_prefix() {
        let g = graph();
        let mut fsp = vec![0.1f32; g.len()];
        fsp[g.index(GridPoint::new(1, 1, 0))] = 0.9;
        fsp[g.index(GridPoint::new(2, 0, 0))] = 0.8;
        let fixed = GridPoint::new(0, 1, 0);
        let expected = top_k(&g, &fsp, 2, &[fixed]);

        let mut scored = vec![(0.0, 99)];
        let mut excl = vec![42];
        let mut out = vec![fixed];
        select_top_k_into(&g, &fsp, 2, &[fixed], &mut scored, &mut excl, &mut out);
        assert_eq!(out[0], fixed, "prefix is preserved");
        assert_eq!(&out[1..], &expected[..], "appended suffix matches");
    }

    #[test]
    fn result_is_sorted_by_priority() {
        let g = graph();
        let mut fsp = vec![0.0f32; g.len()];
        fsp[g.index(GridPoint::new(2, 1, 0))] = 0.9;
        fsp[g.index(GridPoint::new(0, 1, 0))] = 0.5;
        let sel = top_k(&g, &fsp, 2, &[]);
        assert_eq!(sel, vec![GridPoint::new(0, 1, 0), GridPoint::new(2, 1, 0)]);
    }
}
