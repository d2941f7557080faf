//! Routing passes over a pinned layout set: our `RlRouter::route` beside
//! the \[14\] baseline, single client, closed loop, on one thread.
//!
//! Each pass routes every layout once. The router's context stays warm,
//! but every call sees a new layout, so the rebind cost a user pays is
//! still counted. The passes repeat identical work (checked: same trees,
//! same counters), so they differ only by interference from the host; a
//! layout's latency is the fastest of its passes, which filters that out.
//! Percentiles are then taken across layouts. Layouts are regenerated in
//! every pass rather than held, so the peak resident set measures the
//! router, not the inputs.
//!
//! \[14\] routes each layout (or, where it is slow, every `baseline_every`-th
//! layout of each rung) once, in the first pass, alternating with ours
//! which goes first. Its trees give the cost ratio; its single-shot time
//! is a per-layer metric.

use std::time::Instant;

use oarsmt::selector::NeuralSelector;
use oarsmt::{CoreError, RlRouter};
use oarsmt_geom::HananGraph;
use oarsmt_router::{Lin18Router, RouteError};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::audit::{audit, routable};
use crate::gen::{Fnv, LayoutSet};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::{Composer, Kind, LayerStats, Tracer, KINDS};
use crate::Metric;

/// Per-layout results, fixed by the first pass and checked by every later
/// one.
#[derive(Debug, Default)]
struct Row {
    ours_ns: Vec<u64>,
    ours_cost: f64,
    ours_edges: Vec<(u32, u32)>,
    /// Counter delta of our route, pool hit/miss split folded.
    counters: CounterSet,
    lin18_ns: Option<u64>,
    lin18_cost: f64,
    // Traced run only.
    traced_ns: Vec<u64>,
    self_ns: Vec<[u64; KINDS]>,
    traced_cost: f64,
    traced_edges: Vec<(u32, u32)>,
    layers: LayerStats,
}

/// The traced half of a run.
#[derive(Debug)]
struct Traced {
    composer: Composer,
    tracer: Tracer,
    /// Spans of the first pass, written out at exit.
    kept: usize,
}

#[derive(Debug)]
pub struct Serve {
    set: LayoutSet,
    baseline_every: usize,
    router: RlRouter<NeuralSelector>,
    lin18: Lin18Router,
    traced: Option<Traced>,
    rows: Vec<Row>,
    /// Our router's counters over the first pass, pool hits and misses
    /// apart.
    first_pass: CounterSet,
    pub passes: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Serve {
    /// Serves `set` with `router`, \[14\] beside it on every
    /// `baseline_every`-th layout of each rung; with `trace`, every layout
    /// is also routed by the traced composition over a copy of the
    /// router's selector.
    pub fn new(
        set: LayoutSet,
        baseline_every: usize,
        router: RlRouter<NeuralSelector>,
        trace: bool,
    ) -> Self {
        let traced = trace.then(|| Traced {
            composer: Composer::new(router.selector().clone()),
            tracer: Tracer::new(),
            kept: 0,
        });
        let rows = (0..set.layouts).map(|_| Row::default()).collect();
        Serve {
            set,
            baseline_every,
            router,
            lin18: Lin18Router::new(),
            traced,
            rows,
            first_pass: CounterSet::new(),
            passes: 0,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Routes every layout once.
    pub fn pass(&mut self) {
        let pass = self.passes;
        let before = self.router.counters();
        for i in 0..self.set.layouts {
            let g = self.set.layout(i);
            if (i + pass).is_multiple_of(2) {
                self.ours(&g, i, pass);
                self.baseline(&g, i, pass);
                self.composed(&g, i, pass);
            } else {
                self.composed(&g, i, pass);
                self.baseline(&g, i, pass);
                self.ours(&g, i, pass);
            }
        }
        if let Some(t) = &mut self.traced {
            if pass == 0 {
                t.kept = t.tracer.spans.len();
            }
            t.tracer.spans.truncate(t.kept);
        }
        if pass == 0 {
            self.first_pass = self.router.counters().delta_since(&before);
            for i in 0..self.rows.len() {
                let r = &self.rows[i];
                if self.traced.is_some()
                    && (r.traced_cost.to_bits() != r.ours_cost.to_bits()
                        || r.traced_edges != r.ours_edges)
                {
                    self.fail(i, "traced composition differs from RlRouter::route");
                }
            }
        }
        self.passes += 1;
    }

    fn fail(&mut self, i: usize, what: &str) {
        self.failures.push(format!("layout {i}: {what}"));
    }

    fn ours(&mut self, g: &HananGraph, i: usize, pass: usize) {
        self.attempted += 1;
        let before = self.router.counters();
        let t = Instant::now();
        let result = self.router.route(g);
        let ns = t.elapsed().as_nanos() as u64;
        let mut counters = self.router.counters().delta_since(&before);
        counters.fold_pool_splits();
        let out = match result {
            Ok(out) => out,
            Err(CoreError::Route(RouteError::Disconnected { .. })) if !routable(g) => return,
            Err(e) => return self.fail(i, &format!("ours: {e}")),
        };
        let (cost, edges) = (out.tree.cost(), out.tree.edges());
        let row = &mut self.rows[i];
        if pass == 0 {
            if let Err(e) = audit(g, edges, cost) {
                return self.fail(i, &format!("ours audit: {e}"));
            }
            row.ours_cost = cost;
            row.ours_edges = edges.to_vec();
            row.counters = counters;
        } else if cost.to_bits() != row.ours_cost.to_bits()
            || edges != row.ours_edges
            || counters != row.counters
        {
            return self.fail(i, &format!("ours: pass {pass} differs from pass 0"));
        }
        row.ours_ns.push(ns);
    }

    fn baseline(&mut self, g: &HananGraph, i: usize, pass: usize) {
        if pass > 0 || !(i / self.set.rungs.len()).is_multiple_of(self.baseline_every) {
            return;
        }
        self.attempted += 1;
        let span = self
            .traced
            .as_mut()
            .map(|t| t.tracer.begin(Kind::Lin18, None, i as u32));
        let t = Instant::now();
        let result = self.lin18.route(g);
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(t), Some(s)) = (self.traced.as_mut(), span) {
            t.tracer.end(s);
        }
        let tree = match result {
            Ok(tree) => tree,
            Err(RouteError::Disconnected { .. }) if !routable(g) => return,
            Err(e) => return self.fail(i, &format!("[14]: {e}")),
        };
        if let Err(e) = audit(g, tree.edges(), tree.cost()) {
            return self.fail(i, &format!("[14] audit: {e}"));
        }
        let row = &mut self.rows[i];
        row.lin18_cost = tree.cost();
        row.lin18_ns = Some(ns);
    }

    fn composed(&mut self, g: &HananGraph, i: usize, pass: usize) {
        let Some(t) = &mut self.traced else {
            return;
        };
        self.attempted += 1;
        let from = t.tracer.spans.len();
        let (tree, layers) = match t.composer.route(g, &mut t.tracer, i as u32) {
            Ok(out) => out,
            Err(e) => return self.fail(i, &format!("traced: {e}")),
        };
        let root = &t.tracer.spans[from];
        let root_ns = root.end_ns - root.start_ns;
        let self_ns = t.tracer.self_ns(from);
        let row = &mut self.rows[i];
        if pass == 0 {
            row.traced_cost = tree.cost();
            row.traced_edges = tree.edges().to_vec();
            row.layers = layers;
        } else if tree.cost().to_bits() != row.traced_cost.to_bits()
            || tree.edges() != row.traced_edges
        {
            return self.fail(i, &format!("traced: pass {pass} differs from pass 0"));
        }
        row.traced_ns.push(root_ns);
        row.self_ns.push(self_ns);
    }

    /// FNV over every layout's trees and costs.
    pub fn result_hash(&self, h: &mut Fnv) {
        for r in &self.rows {
            h.f64(r.ours_cost);
            for &(a, b) in &r.ours_edges {
                h.u64(u64::from(a) << 32 | u64::from(b));
            }
            h.f64(r.lin18_cost);
        }
    }

    /// Each measured layout's fastest pass (ms) of a timing column.
    fn best_ms(&self, col: impl Fn(&Row) -> Option<u64>) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(col)
            .map(|ns| ns as f64 / 1e6)
            .collect()
    }

    /// The end-to-end metrics of the served layouts.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ours = self.best_ms(|r| r.ours_ns.iter().copied().min());
        let ratios: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.lin18_cost > 0.0 && !r.ours_ns.is_empty())
            .map(|r| r.ours_cost / r.lin18_cost)
            .collect();
        vec![
            Metric::new("latency_ms_p50", median(&ours)),
            Metric::new("latency_ms_p90", percentile(&ours, 90.0)),
            Metric::new(
                "throughput_per_s",
                ratio(ours.len() as f64, ours.iter().sum::<f64>() / 1e3),
            ),
            Metric::new("cost_ratio", mean(&ratios)),
        ]
    }

    /// Per-layer metrics of the served layouts: counts from our router's
    /// counters, times from the traced composition.
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut total = CounterSet::new();
        for r in &self.rows {
            total.merge_from(&r.counters);
        }
        let count = |c: Counter| total.get(c) as f64;
        let routes = self.rows.iter().filter(|r| !r.ours_ns.is_empty()).count() as f64;
        // Each layout's fastest pass of its self time in `kinds`, in ns.
        let best = |kinds: &[Kind]| -> Vec<f64> {
            self.rows
                .iter()
                .filter_map(|r| {
                    r.self_ns
                        .iter()
                        .map(|s| kinds.iter().map(|&k| s[k as usize]).sum::<u64>())
                        .min()
                })
                .map(|ns| ns as f64)
                .collect()
        };
        let p50 = |kinds: &[Kind], unit_ns: f64| median(&best(kinds)) / unit_ns;
        let total_ns = |kinds: &[Kind]| best(kinds).iter().sum::<f64>();
        let router = [Kind::Build, Kind::Safeguard, Kind::Rebuild, Kind::Polish];
        let builds = [Kind::Build, Kind::Safeguard, Kind::Rebuild];
        let layers =
            |f: fn(&LayerStats) -> u64| self.rows.iter().map(|r| f(&r.layers) as f64).sum::<f64>();
        let macs = total.total_macs() as f64;
        let traced = self.best_ms(|r| r.traced_ns.iter().copied().min());
        let untraced = self.best_ms(|r| r.ours_ns.iter().copied().min());
        // Coverage over every traced pass: time inside layer spans over
        // the root spans' time.
        let (mut covered, mut rooted) = (0u64, 0u64);
        for r in &self.rows {
            for (s, &root) in r.self_ns.iter().zip(&r.traced_ns) {
                covered += root - s[Kind::Route as usize];
                rooted += root;
            }
        }
        let hit_ratio = |hit: Counter, miss: Counter| {
            let hits = self.first_pass.get(hit) as f64;
            ratio(hits, hits + self.first_pass.get(miss) as f64)
        };
        vec![
            Metric::new("core.encode_us_p50", p50(&[Kind::Encode], 1e3)),
            Metric::new("nn.unet_fwd_us_p50", p50(&[Kind::Unet], 1e3)),
            Metric::new("nn.unet_gflops", ratio(2.0 * macs, total_ns(&[Kind::Unet]))),
            Metric::new("nn.macs_per_route", ratio(macs, routes)),
            Metric::new("core.topk_us_p50", p50(&[Kind::Topk], 1e3)),
            Metric::new("router.build_ms_p50", p50(&builds, 1e6)),
            Metric::new("router.polish_ms_p50", p50(&[Kind::Polish], 1e6)),
            Metric::new(
                "router.candidates_kept_ratio",
                ratio(layers(|l| l.proposed - l.pruned), layers(|l| l.proposed)),
            ),
            Metric::new(
                "router.polish_accept_ratio",
                ratio(layers(|l| l.polish_improved), layers(|l| l.polish_rounds)),
            ),
            Metric::new(
                "router.refine_accept_ratio",
                ratio(layers(|l| l.rebuilds_kept), layers(|l| l.rebuilds)),
            ),
            Metric::new(
                "router.safeguard_win_frac",
                ratio(layers(|l| u64::from(l.safeguard_won)), routes),
            ),
            Metric::new(
                "graph.pops_per_route",
                ratio(count(Counter::DijkstraPops), routes),
            ),
            Metric::new(
                "graph.relaxations_per_route",
                ratio(count(Counter::DijkstraRelaxations), routes),
            ),
            Metric::new(
                "graph.pushes_per_route",
                ratio(count(Counter::DijkstraPushes), routes),
            ),
            Metric::new(
                "graph.bucket_scans_per_pop",
                ratio(
                    count(Counter::DijkstraBucketScans),
                    count(Counter::DijkstraPops),
                ),
            ),
            Metric::new(
                "graph.ns_per_pop",
                ratio(total_ns(&router), count(Counter::DijkstraPops)),
            ),
            Metric::new(
                "router.tree_pool_hit_ratio",
                hit_ratio(Counter::TreePoolHits, Counter::TreePoolMisses),
            ),
            Metric::new(
                "nn.pool_hit_ratio",
                hit_ratio(Counter::NnPoolHits, Counter::NnPoolMisses),
            ),
            Metric::new(
                "nn.batch_occupancy",
                ratio(count(Counter::GemmBatchCols), count(Counter::BatchFlushes)),
            ),
            Metric::new("lin18.route_ms_p50", median(&self.best_ms(|r| r.lin18_ns))),
            Metric::new("trace.coverage", ratio(covered as f64, rooted as f64)),
            Metric::new(
                "trace.overhead_pct",
                (ratio(median(&traced), median(&untraced)) - 1.0) * 100.0,
            ),
        ]
    }

    /// Human-readable lines: latency against layout size per rung, and the
    /// spread of the per-pass median latency (a noise indicator).
    pub fn summary(&self) -> Vec<String> {
        let r = self.set.rungs.len();
        let mut lines: Vec<String> = self
            .set
            .rungs
            .iter()
            .enumerate()
            .map(|(k, rung)| {
                let rows = || self.rows.iter().skip(k).step_by(r);
                let ms = |ns: Option<u64>| ns.map(|x| x as f64 / 1e6);
                let ours: Vec<f64> = rows()
                    .filter_map(|w| ms(w.ours_ns.iter().copied().min()))
                    .collect();
                let lin18: Vec<f64> = rows().filter_map(|w| ms(w.lin18_ns)).collect();
                format!(
                    "rung {} {}x{}x{} layouts {} ours_ms_p50 {:.4} lin18_ms_p50 {:.4}",
                    rung.name,
                    rung.h,
                    rung.v,
                    rung.m,
                    ours.len(),
                    median(&ours),
                    median(&lin18)
                )
            })
            .collect();
        if self.passes >= 2 {
            let per_pass: Vec<f64> = (0..self.passes)
                .map(|p| {
                    let v: Vec<f64> = self
                        .rows
                        .iter()
                        .filter_map(|row| row.ours_ns.get(p).map(|&ns| ns as f64))
                        .collect();
                    median(&v)
                })
                .collect();
            lines.push(format!("pass_spread {:.4}", iqr_share(&per_pass)));
        }
        lines
    }

    /// The spans of the first traced pass as Chrome JSON.
    pub fn trace_json(&self) -> Option<String> {
        self.traced.as_ref().map(|t| t.tracer.chrome_json())
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}
