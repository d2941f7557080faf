//! Prim's algorithm over dense terminal-distance matrices.
//!
//! Routers use this to build minimum spanning trees over a small set of
//! terminals (pins plus Steiner candidates) whose pairwise obstacle-avoiding
//! distances were computed by maze routing.

use crate::error::GraphError;

/// An edge of a terminal-level minimum spanning tree, naming terminals by
/// their indices in the caller's terminal list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MstEdge {
    /// First terminal index.
    pub a: usize,
    /// Second terminal index.
    pub b: usize,
    /// Edge weight (obstacle-avoiding routing distance).
    pub weight: f64,
}

/// Builds a minimum spanning tree over `n` terminals from a dense `n × n`
/// distance matrix (row-major, `dist[i * n + j]`), using Prim's algorithm.
///
/// Entries may be `f64::INFINITY` for unreachable pairs.
///
/// # Errors
///
/// * [`GraphError::EmptyTerminalSet`] if `n == 0`.
/// * [`GraphError::Unreachable`] if the terminals are not all mutually
///   reachable (the matrix is disconnected).
///
/// # Panics
///
/// Panics if `dist.len() != n * n`.
///
/// # Example
///
/// ```
/// use oarsmt_graph::mst::prim_mst;
///
/// // Three terminals on a line at positions 0, 1, 5.
/// let d = vec![
///     0.0, 1.0, 5.0,
///     1.0, 0.0, 4.0,
///     5.0, 4.0, 0.0,
/// ];
/// let mst = prim_mst(&d, 3)?;
/// let total: f64 = mst.iter().map(|e| e.weight).sum();
/// assert_eq!(total, 5.0);
/// # Ok::<(), oarsmt_graph::GraphError>(())
/// ```
pub fn prim_mst(dist: &[f64], n: usize) -> Result<Vec<MstEdge>, GraphError> {
    assert_eq!(dist.len(), n * n, "distance matrix must be n x n");
    if n == 0 {
        return Err(GraphError::EmptyTerminalSet);
    }
    if n == 1 {
        return Ok(Vec::new());
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    in_tree[0] = true;
    best[1..n].copy_from_slice(&dist[1..n]); // row 0 of the matrix
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut pick = None;
        let mut pick_cost = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best[j] < pick_cost {
                pick = Some(j);
                pick_cost = best[j];
            }
        }
        let Some(j) = pick else {
            return Err(GraphError::Unreachable {
                from: oarsmt_geom::GridPoint::new(0, 0, 0),
                to: None,
            });
        };
        in_tree[j] = true;
        edges.push(MstEdge {
            a: best_from[j],
            b: j,
            weight: pick_cost,
        });
        for k in 0..n {
            let w = dist[j * n + k];
            if !in_tree[k] && w < best[k] {
                best[k] = w;
                best_from[k] = j;
            }
        }
    }
    Ok(edges)
}

/// Total weight of an MST edge list.
pub fn mst_cost(edges: &[MstEdge]) -> f64 {
    edges.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::union_find::UnionFind;

    fn matrix(points: &[(f64, f64)]) -> Vec<f64> {
        let n = points.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] =
                    (points[i].0 - points[j].0).abs() + (points[i].1 - points[j].1).abs();
            }
        }
        d
    }

    #[test]
    fn mst_of_square_picks_three_sides() {
        let d = matrix(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let mst = prim_mst(&d, 4).unwrap();
        assert_eq!(mst.len(), 3);
        assert_eq!(mst_cost(&mst), 3.0);
    }

    #[test]
    fn mst_is_a_spanning_tree() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| ((i * 7 % 10) as f64, (i * 3 % 10) as f64))
            .collect();
        let d = matrix(&pts);
        let mst = prim_mst(&d, 10).unwrap();
        assert_eq!(mst.len(), 9);
        let mut uf = UnionFind::new(10);
        for e in &mst {
            assert!(uf.union(e.a, e.b), "mst edge must not close a cycle");
        }
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn single_terminal_has_empty_mst() {
        assert_eq!(prim_mst(&[0.0], 1).unwrap(), Vec::new());
    }

    #[test]
    fn zero_terminals_is_an_error() {
        assert!(matches!(
            prim_mst(&[], 0),
            Err(GraphError::EmptyTerminalSet)
        ));
    }

    #[test]
    fn disconnected_matrix_is_an_error() {
        let inf = f64::INFINITY;
        let d = vec![0.0, inf, inf, 0.0];
        assert!(matches!(
            prim_mst(&d, 2),
            Err(GraphError::Unreachable { .. })
        ));
    }

    #[test]
    fn mst_weight_is_optimal_for_line() {
        // Points on a line: MST must chain consecutive points.
        let pts: Vec<(f64, f64)> = vec![(0.0, 0.0), (10.0, 0.0), (3.0, 0.0), (7.0, 0.0)];
        let d = matrix(&pts);
        let mst = prim_mst(&d, 4).unwrap();
        assert_eq!(mst_cost(&mst), 10.0);
    }
}
