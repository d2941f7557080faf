//! Evaluation metrics of the paper's Section 4.
//!
//! * [`CostComparison`] — the Table 2 statistics: average routing costs,
//!   difference ratio, **average improvement ratio** (per-layout ratios
//!   averaged, avoiding large-layout bias), win/loss rates.
//! * [`st_to_mst_ratio`] — the Figs. 11–12 metric: cost of the Steiner tree
//!   over the cost of the spanning tree without any Steiner point.
//! * [`ObstacleRatioCurve`] — the Fig. 10 curve: average improvement ratio
//!   binned by obstacle ratio.

use std::fmt;

use oarsmt_geom::HananGraph;
use oarsmt_router::{OarmstRouter, RouteContext, RouteError, RouteTree};

/// Accumulator comparing a baseline cost `a` against our cost `b` across
/// layouts (Table 2 semantics: improvement is `(a − b) / a`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostComparison {
    count: usize,
    sum_a: f64,
    sum_b: f64,
    sum_ratio: f64,
    wins: usize,
    losses: usize,
}

impl CostComparison {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        CostComparison::default()
    }

    /// Records one layout's costs: `baseline` (the compared router) and
    /// `ours`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is not positive (a routed tree always has
    /// positive cost).
    pub fn record(&mut self, baseline: f64, ours: f64) {
        assert!(baseline > 0.0, "baseline cost must be positive");
        self.count += 1;
        self.sum_a += baseline;
        self.sum_b += ours;
        self.sum_ratio += (baseline - ours) / baseline;
        if ours < baseline {
            self.wins += 1;
        } else if ours > baseline {
            self.losses += 1;
        }
    }

    /// Number of recorded layouts.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Average baseline routing cost (Table 2 column "(a)").
    pub fn avg_baseline(&self) -> f64 {
        self.sum_a / self.count.max(1) as f64
    }

    /// Average of our routing cost (Table 2 column "(b)").
    pub fn avg_ours(&self) -> f64 {
        self.sum_b / self.count.max(1) as f64
    }

    /// Difference ratio of the average costs, `(a − b) / a`.
    pub fn diff_ratio(&self) -> f64 {
        if self.sum_a == 0.0 {
            0.0
        } else {
            (self.sum_a - self.sum_b) / self.sum_a
        }
    }

    /// Average of the per-layout improvement ratios (Table 2 "avg. imp.
    /// ratio") — insensitive to large-layout domination.
    pub fn avg_improvement_ratio(&self) -> f64 {
        self.sum_ratio / self.count.max(1) as f64
    }

    /// Fraction of layouts where ours is strictly cheaper.
    pub fn win_rate(&self) -> f64 {
        self.wins as f64 / self.count.max(1) as f64
    }

    /// Fraction of layouts where ours is strictly more expensive.
    pub fn loss_rate(&self) -> f64 {
        self.losses as f64 / self.count.max(1) as f64
    }
}

impl fmt::Display for CostComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layouts: avg {:.1} vs {:.1} ({:+.3}% diff, {:+.3}% avg imp), win {:.1}% loss {:.1}%",
            self.count,
            self.avg_baseline(),
            self.avg_ours(),
            100.0 * self.diff_ratio(),
            100.0 * self.avg_improvement_ratio(),
            100.0 * self.win_rate(),
            100.0 * self.loss_rate()
        )
    }
}

/// The ST-to-MST ratio of Figs. 11–12: the cost of `tree` over the cost of
/// the obstacle-avoiding spanning tree built **without** Steiner points.
/// Lower is better; 1.0 means the Steiner points bought nothing. The
/// pins-only tree is built in `ctx` and returned to its pool.
///
/// # Errors
///
/// Propagates OARMST routing errors for the pins-only tree.
pub fn st_to_mst_ratio(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    tree: &RouteTree,
) -> Result<f64, RouteError> {
    let mst = OarmstRouter::new().route_in(ctx, graph, &[])?;
    let ratio = tree.cost() / mst.cost();
    ctx.recycle_tree(mst);
    Ok(ratio)
}

/// The Fig. 10 curve: improvement ratios binned by layout obstacle ratio.
#[derive(Debug, Clone)]
pub struct ObstacleRatioCurve {
    edges: Vec<f64>,
    sums: Vec<f64>,
    counts: Vec<usize>,
}

impl ObstacleRatioCurve {
    /// Creates a curve with `bins` equal-width bins over `[0, max_ratio]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `max_ratio <= 0`.
    pub fn new(bins: usize, max_ratio: f64) -> Self {
        assert!(bins > 0 && max_ratio > 0.0);
        let edges = (0..=bins)
            .map(|i| max_ratio * i as f64 / bins as f64)
            .collect();
        ObstacleRatioCurve {
            edges,
            sums: vec![0.0; bins],
            counts: vec![0; bins],
        }
    }

    /// Records one layout: its obstacle ratio and the improvement ratio
    /// achieved on it. Ratios beyond the last edge land in the last bin.
    pub fn record(&mut self, obstacle_ratio: f64, improvement_ratio: f64) {
        let bins = self.sums.len();
        let max = self.edges[bins];
        let mut bin = ((obstacle_ratio / max) * bins as f64).floor() as usize;
        if bin >= bins {
            bin = bins - 1;
        }
        self.sums[bin] += improvement_ratio;
        self.counts[bin] += 1;
    }

    /// The curve as `(bin_center, avg_improvement, count)` rows; empty bins
    /// are skipped.
    pub fn rows(&self) -> Vec<(f64, f64, usize)> {
        (0..self.sums.len())
            .filter(|&i| self.counts[i] > 0)
            .map(|i| {
                let center = (self.edges[i] + self.edges[i + 1]) / 2.0;
                (center, self.sums[i] / self.counts[i] as f64, self.counts[i])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    #[test]
    fn comparison_statistics_match_hand_computation() {
        let mut c = CostComparison::new();
        c.record(100.0, 90.0); // +10%
        c.record(200.0, 210.0); // -5%
        c.record(50.0, 50.0); // tie
        assert_eq!(c.count(), 3);
        assert!((c.avg_baseline() - 350.0 / 3.0).abs() < 1e-9);
        assert!((c.avg_ours() - 350.0 / 3.0).abs() < 1e-9);
        assert!((c.diff_ratio() - 0.0).abs() < 1e-9);
        assert!((c.avg_improvement_ratio() - (0.10 - 0.05 + 0.0) / 3.0).abs() < 1e-9);
        assert!((c.win_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert!((c.loss_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn avg_improvement_resists_large_layout_bias() {
        // One huge layout with tiny improvement, many small ones with big
        // improvements: diff_ratio is dominated by the big layout, the
        // average improvement ratio is not (the paper's motivation).
        let mut c = CostComparison::new();
        c.record(1_000_000.0, 999_000.0); // 0.1%
        for _ in 0..9 {
            c.record(100.0, 90.0); // 10%
        }
        assert!(c.diff_ratio() < 0.002);
        assert!(c.avg_improvement_ratio() > 0.08);
    }

    #[test]
    fn st_to_mst_is_one_without_steiner_gain() {
        let mut g = HananGraph::uniform(4, 1, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 0, 0)).unwrap();
        let mut ctx = RouteContext::new();
        let tree = OarmstRouter::new().route_in(&mut ctx, &g, &[]).unwrap();
        let r = st_to_mst_ratio(&mut ctx, &g, &tree).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn st_to_mst_below_one_with_good_steiner_point() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        for &(h, v) in &[(0, 2), (4, 2), (2, 0), (2, 4)] {
            g.add_pin(GridPoint::new(h, v, 0)).unwrap();
        }
        let mut ctx = RouteContext::new();
        let steiner = OarmstRouter::new()
            .route_in(&mut ctx, &g, &[GridPoint::new(2, 2, 0)])
            .unwrap();
        let r = st_to_mst_ratio(&mut ctx, &g, &steiner).unwrap();
        assert!(r <= 1.0);
    }

    #[test]
    fn obstacle_curve_bins_and_averages() {
        let mut curve = ObstacleRatioCurve::new(4, 0.4);
        curve.record(0.05, 0.01);
        curve.record(0.05, 0.03);
        curve.record(0.35, 0.10);
        curve.record(0.99, 0.20); // clamps to last bin
        let rows = curve.rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].0 - 0.05).abs() < 1e-9);
        assert!((rows[0].1 - 0.02).abs() < 1e-9);
        assert_eq!(rows[0].2, 2);
        assert_eq!(rows[1].2, 2);
        assert!((rows[1].1 - 0.15).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_baseline_panics() {
        CostComparison::new().record(0.0, 1.0);
    }
}
