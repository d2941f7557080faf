//! The `n_sel` / `n_opp` counters and the label of Eq. (3).
//!
//! Every selection step of the MCTS updates, for the node where a decision
//! was made: `n_sel(v) += 1` for the chosen vertex `v`, and
//! `n_opp(u) += 1` for **every** vertex `u` that was a valid action at that
//! node (Fig. 7). After the whole search tree is built, the training label
//! is `L_fsp(v) = n_sel(v) / n_opp(v)` — the empirical probability that the
//! UCT-guided search takes `v` when it has the opportunity.

use oarsmt_geom::HananGraph;

/// Per-vertex selection/opportunity counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCounters {
    n_sel: Vec<u32>,
    n_opp: Vec<u32>,
}

impl LabelCounters {
    /// Creates zeroed counters for a graph.
    pub fn new(graph: &HananGraph) -> Self {
        LabelCounters {
            n_sel: vec![0; graph.len()],
            n_opp: vec![0; graph.len()],
        }
    }

    /// Records one selection step: `chosen` was taken among the
    /// `opportunities`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `chosen` is not among the opportunities.
    pub fn record_step<I: IntoIterator<Item = u32>>(&mut self, chosen: u32, opportunities: I) {
        let mut saw_chosen = false;
        for u in opportunities {
            self.n_opp[u as usize] += 1;
            saw_chosen |= u == chosen;
        }
        debug_assert!(saw_chosen, "chosen action must be a valid opportunity");
        self.n_sel[chosen as usize] += 1;
    }

    /// Selection counts per vertex.
    pub fn n_sel(&self) -> &[u32] {
        &self.n_sel
    }

    /// Opportunity counts per vertex.
    pub fn n_opp(&self) -> &[u32] {
        &self.n_opp
    }

    /// The label array of Eq. (3): `n_sel(v) / n_opp(v)`, with 0 where a
    /// vertex never had an opportunity.
    pub fn label(&self) -> Vec<f32> {
        self.n_sel
            .iter()
            .zip(&self.n_opp)
            .map(|(&s, &o)| if o == 0 { 0.0 } else { s as f32 / o as f32 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> HananGraph {
        HananGraph::uniform(4, 1, 1, 1.0, 1.0, 3.0)
    }

    #[test]
    fn label_is_sel_over_opp() {
        let g = graph();
        let mut c = LabelCounters::new(&g);
        // Two steps: choose 1 among {0,1,2}, then choose 2 among {2,3}.
        c.record_step(1, [0, 1, 2]);
        c.record_step(2, [2, 3]);
        assert_eq!(c.n_sel(), &[0, 1, 1, 0]);
        assert_eq!(c.n_opp(), &[1, 1, 2, 1]);
        let label = c.label();
        assert_eq!(label, vec![0.0, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn never_offered_vertices_get_zero() {
        let g = graph();
        let c = LabelCounters::new(&g);
        assert!(c.label().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn labels_stay_in_unit_interval() {
        let g = graph();
        let mut c = LabelCounters::new(&g);
        for _ in 0..10 {
            c.record_step(0, [0, 1]);
        }
        for &l in &c.label() {
            assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "valid opportunity")]
    fn chosen_outside_opportunities_is_a_bug() {
        let g = graph();
        let mut c = LabelCounters::new(&g);
        c.record_step(3, [0, 1]);
    }
}
