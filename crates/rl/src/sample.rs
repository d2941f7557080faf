//! Training samples: a layout, an optional partial state, and a dense
//! per-vertex probability label.

use std::fmt;

use oarsmt::features::{encode_features_into, from_graph_order, valid_mask};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::{NnWorkspace, Tensor};

/// One supervised training sample for the Steiner-point selector.
///
/// For the combinatorial scheme, `state` is empty and `label` is the
/// `L_fsp` array of one whole search tree; for the AlphaGo-like baseline,
/// `state` holds the Steiner points selected before the move and `label`
/// the per-move visit distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// The layout.
    pub graph: HananGraph,
    /// Already-selected Steiner points (encoded as pins).
    pub state: Vec<GridPoint>,
    /// Per-vertex target in `[0, 1]`, indexed like
    /// [`HananGraph::index`].
    pub label: Vec<f32>,
}

impl TrainingSample {
    /// Creates a sample, validating the label length.
    ///
    /// # Panics
    ///
    /// Panics if `label.len() != graph.len()` or a label value is outside
    /// `[0, 1]`.
    pub fn new(graph: HananGraph, state: Vec<GridPoint>, label: Vec<f32>) -> Self {
        assert_eq!(label.len(), graph.len(), "label must cover every vertex");
        assert!(
            label.iter().all(|l| (0.0..=1.0).contains(l)),
            "labels are probabilities"
        );
        TrainingSample {
            graph,
            state,
            label,
        }
    }

    /// The layout dimensions, used for same-size batching.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.graph.dims()
    }

    /// Encodes the sample as `(features, targets, mask)` tensors for BCE
    /// training: features `[7, M, H, V]`, targets and mask `[1, M, H, V]`
    /// (the tensor layout of [`oarsmt::features`]).
    pub fn to_tensors(&self) -> (Tensor, Tensor, Tensor) {
        // The features are stacked into a training batch and dropped, never
        // pooled, so they come from a throwaway workspace.
        let features = encode_features_into(&self.graph, &self.state, &mut NnWorkspace::new());
        let targets = from_graph_order(&self.label, &self.graph);
        let mask = valid_mask(&self.graph, &self.state);
        (features, targets, mask)
    }
}

impl fmt::Display for TrainingSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, v, m) = self.dims();
        write!(
            f,
            "sample {h}x{v}x{m}, {} state points, label mass {:.3}",
            self.state.len(),
            self.label.iter().sum::<f32>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> HananGraph {
        let mut g = HananGraph::uniform(3, 3, 2, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 2, 1)).unwrap();
        g
    }

    #[test]
    fn tensors_have_matching_shapes() {
        let g = graph();
        let label = vec![0.25; g.len()];
        let s = TrainingSample::new(g, vec![], label);
        let (x, t, m) = s.to_tensors();
        assert_eq!(x.shape(), &[7, 2, 3, 3]);
        assert_eq!(t.shape(), &[1, 2, 3, 3]);
        assert_eq!(m.shape(), &[1, 2, 3, 3]);
    }

    #[test]
    fn state_points_are_masked_out() {
        let g = graph();
        let state = vec![GridPoint::new(1, 1, 0)];
        let label = vec![0.0; g.len()];
        let s = TrainingSample::new(g.clone(), state.clone(), label);
        let (x, _, m) = s.to_tensors();
        let off = oarsmt::features::tensor_offset(&g, state[0]);
        assert_eq!(m.data()[off], 0.0);
        // And encoded as a pin in channel 0.
        assert_eq!(x.data()[off], 1.0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn out_of_range_labels_panic() {
        let g = graph();
        let mut label = vec![0.0; g.len()];
        label[0] = 1.5;
        TrainingSample::new(g, vec![], label);
    }

    #[test]
    #[should_panic(expected = "every vertex")]
    fn short_label_panics() {
        let g = graph();
        TrainingSample::new(g, vec![], vec![0.0; 3]);
    }
}
