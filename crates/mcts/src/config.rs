//! MCTS configuration.

use std::fmt;

use oarsmt_geom::HananGraph;

/// Configuration shared by the combinatorial and conventional searches.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsConfig {
    /// Exploration iterations per executed action for the reference layout
    /// size. The paper uses `α = 2000` for `16×16×4` layouts "scaling it
    /// for a larger layout proportionally to the size increase"; this
    /// reproduction defaults to a laptop-scale 64.
    pub base_iterations: usize,
    /// Vertex count of the reference layout the iteration budget is
    /// calibrated for (`16·16·4` in the paper).
    pub base_size: usize,
    /// Consecutive equal-cost actions after which a state is terminal
    /// (criterion 3 of Section 3.4; the paper uses 3).
    pub max_flat_run: u32,
    /// Multiplier on the UCT exploration term `U(s, a)`.
    pub exploration: f64,
    /// Whether the critic completes states before pricing them. The paper
    /// disables this during the first curriculum stages ("we do not use the
    /// critic's predicted values ... instead, we directly calculate the
    /// routing cost resulting from the already selected Steiner points").
    pub use_critic: bool,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            base_iterations: 64,
            base_size: 16 * 16 * 4,
            max_flat_run: 3,
            exploration: 1.0,
            use_critic: true,
        }
    }
}

impl MctsConfig {
    /// A very small budget for unit tests.
    pub fn tiny() -> Self {
        MctsConfig {
            base_iterations: 12,
            ..MctsConfig::default()
        }
    }

    /// The iteration budget for a graph, scaled proportionally to its
    /// vertex count as in the paper (never below 4).
    pub fn iterations_for(&self, graph: &HananGraph) -> usize {
        let scaled = self.base_iterations * graph.len() / self.base_size.max(1);
        scaled.max(self.base_iterations.min(4)).max(4)
    }
}

impl fmt::Display for MctsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mcts: {} iters @ {} vertices, flat-run {}, critic {}",
            self.base_iterations, self.base_size, self.max_flat_run, self.use_critic
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_scale_with_graph_size() {
        let cfg = MctsConfig {
            base_iterations: 100,
            base_size: 100,
            ..MctsConfig::default()
        };
        let small = HananGraph::uniform(5, 5, 2, 1.0, 1.0, 3.0); // 50
        let base = HananGraph::uniform(10, 10, 1, 1.0, 1.0, 3.0); // 100
        let big = HananGraph::uniform(10, 10, 4, 1.0, 1.0, 3.0); // 400
        assert_eq!(cfg.iterations_for(&small), 50);
        assert_eq!(cfg.iterations_for(&base), 100);
        assert_eq!(cfg.iterations_for(&big), 400);
    }

    #[test]
    fn iterations_never_hit_zero() {
        let cfg = MctsConfig {
            base_iterations: 8,
            base_size: 1_000_000,
            ..MctsConfig::default()
        };
        let g = HananGraph::uniform(2, 2, 1, 1.0, 1.0, 3.0);
        assert!(cfg.iterations_for(&g) >= 4);
    }
}
