//! Steiner-point selectors: the neural agent and cheap heuristic stand-ins.

use std::fmt;
use std::path::Path;

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::serialize::{load_from_file, save_to_file};
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::NnWorkspace;

use crate::error::CoreError;
use crate::features::{encode_features_batch_into, FEATURE_CHANNELS};

/// A Steiner-point selector: anything that can produce the paper's *final
/// selected probability* `fsp(v)` for every vertex of a Hanan graph.
///
/// `extra_pins` carry the already-selected Steiner points of an MCTS state,
/// which the selector must treat as pins (Section 3.4). Methods take
/// `&mut self` so stateful selectors fit; neural inference itself is
/// read-only (`&NeuralSelector` is a selector too).
pub trait Selector {
    /// Per-vertex final selected probabilities, indexed like
    /// [`HananGraph::index`], each in `[0, 1]`.
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32>;

    /// [`Selector::fsp`] into a caller-owned buffer, which is cleared first.
    ///
    /// Hot paths (the MCTS critic, the RL router) call this with a scratch
    /// buffer from their `oarsmt_router::RouteContext` so repeated inference
    /// reuses one allocation. The default delegates to [`Selector::fsp`];
    /// implementations with allocation-free output paths should override it.
    fn fsp_into(&mut self, graph: &HananGraph, extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        *out = self.fsp(graph, extra_pins);
    }

    /// [`Selector::fsp_into`] with a neural-network scratch arena. Neural
    /// selectors run the whole inference (feature encoding, every layer's
    /// activations) out of `ws`, so repeated calls allocate nothing; other
    /// selectors ignore `ws`. Callers on the MCTS/routing hot path pass
    /// `oarsmt_router::RouteContext::nn`.
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        let _ = ws;
        self.fsp_into(graph, extra_pins, out);
    }

    /// Batched [`Selector::fsp_into_ws`] over several MCTS states of **one**
    /// graph. State `b`'s extra pins are the `lens[b]` points at their
    /// running offset into `pts` (a flattened state list — see
    /// `oarsmt_router::EvalQueue`); `out` is cleared, then receives the
    /// `lens.len() · graph.len()` per-state probabilities concatenated in
    /// state order, each block bit-identical to the single-state call.
    ///
    /// The default loops over states through `fsp_into_ws`. Neural
    /// selectors override it to stack same-shape states into one
    /// channel-major batch and run the network once (GEMM `N = B·spatial`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `pts.len()` differs from the sum of
    /// `lens`.
    fn fsp_batch_into_ws(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        if let [l] = lens {
            // Single-state queue: identical (bits, allocations) to calling
            // `fsp_into_ws` directly, so the MCTS B=1 flush costs nothing.
            debug_assert_eq!(pts.len(), *l as usize);
            self.fsp_into_ws(graph, pts, out, ws);
            return;
        }
        let mut tmp = Vec::new(); // default path only; overrides are pooled
        out.clear();
        let mut off = 0usize;
        for &l in lens {
            let pins = &pts[off..off + l as usize];
            off += l as usize;
            self.fsp_into_ws(graph, pins, &mut tmp, ws);
            out.extend_from_slice(&tmp);
        }
    }

    /// [`Selector::fsp_batch_into_ws`] with a throwaway workspace — test
    /// and offline convenience.
    fn fsp_batch_into(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
    ) {
        self.fsp_batch_into_ws(graph, pts, lens, out, &mut NnWorkspace::new());
    }
}

/// Mutable references are selectors too, so routers can borrow a selector
/// without taking ownership.
impl<S: Selector + ?Sized> Selector for &mut S {
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32> {
        (**self).fsp(graph, extra_pins)
    }

    fn fsp_into(&mut self, graph: &HananGraph, extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        (**self).fsp_into(graph, extra_pins, out);
    }

    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (**self).fsp_into_ws(graph, extra_pins, out, ws);
    }

    // The batch methods must forward explicitly too, or a `&mut S` would
    // fall back to the sequential default and lose the batched kernels.
    fn fsp_batch_into_ws(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (**self).fsp_batch_into_ws(graph, pts, lens, out, ws);
    }

    fn fsp_batch_into(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
    ) {
        (**self).fsp_batch_into(graph, pts, lens, out);
    }
}

/// The neural selector: the 3D Residual U-Net of Section 3.3.
///
/// Cloning a `NeuralSelector` copies the full weight set; the parallel
/// evaluation paths (see [`crate::parallel`]) clone one prototype selector
/// per worker thread so inference needs no locking.
#[derive(Debug, Clone)]
pub struct NeuralSelector {
    net: UNet3d,
}

impl NeuralSelector {
    /// Wraps an existing network.
    pub fn from_net(net: UNet3d) -> Self {
        NeuralSelector { net }
    }

    /// A randomly initialized selector with the default architecture
    /// (7 input channels, laptop-scale width).
    pub fn random(seed: u64) -> Self {
        NeuralSelector::with_config(UNetConfig {
            seed,
            ..UNetConfig::default()
        })
    }

    /// A randomly initialized selector with an explicit architecture.
    ///
    /// # Panics
    ///
    /// Panics if `config.in_channels != 7` (the feature encoding is fixed).
    pub fn with_config(config: UNetConfig) -> Self {
        assert_eq!(
            config.in_channels, FEATURE_CHANNELS,
            "the selector consumes the 7-channel encoding of Fig. 3"
        );
        let mut net = UNet3d::new(config);
        // Steiner-point labels are sparse; start near the label mean so the
        // MCTS actor's telescoping policy (Eq. 1) stays well-conditioned
        // from the first training stage.
        net.init_output_bias(-3.0);
        NeuralSelector { net }
    }

    /// Access to the underlying network (used by trainers).
    pub fn net_mut(&mut self) -> &mut UNet3d {
        &mut self.net
    }

    /// Saves the selector weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] on I/O failure.
    pub fn save<P: AsRef<Path>>(&mut self, path: P) -> Result<(), CoreError> {
        save_to_file(&mut self.net, path).map_err(CoreError::from)
    }

    /// Loads selector weights saved by [`NeuralSelector::save`] into a
    /// selector of the same architecture.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] on I/O failure or architecture
    /// mismatch.
    pub fn load<P: AsRef<Path>>(&mut self, path: P) -> Result<(), CoreError> {
        load_from_file(&mut self.net, path).map_err(CoreError::from)
    }
}

/// The owned selector runs the shared-reference path: inference takes
/// `&self` all the way down, so owning the weights changes nothing.
impl Selector for NeuralSelector {
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32> {
        (&*self).fsp(graph, extra_pins)
    }

    fn fsp_into(&mut self, graph: &HananGraph, extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        (&*self).fsp_into(graph, extra_pins, out);
    }

    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (&*self).fsp_into_ws(graph, extra_pins, out, ws);
    }

    fn fsp_batch_into_ws(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (&*self).fsp_batch_into_ws(graph, pts, lens, out, ws);
    }
}

/// Ceiling on `B_chunk · spatial` — the voxel count one batched selector
/// flush feeds the network at once. Above it, `fsp_batch_into_ws` splits
/// the flush into chunks: at the large rungs a full 16-state batch's
/// activations (tens of floats live per voxel across the U-Net levels)
/// overflow the last-level cache and the batched GEMM starts streaming
/// from memory, so capping the per-pass working set beats maximal GEMM
/// width (measured at S48, B = 16 — see EXPERIMENTS.md). Chunking is
/// invisible in the output: states are arithmetically independent, so
/// every block stays bit-identical to the single-state path at any chunk
/// size. The telemetry occupancy metric (`gemm_batch_cols` per
/// `batch_flushes`) makes the chunk width observable per run.
const FLUSH_CHUNK_VOXELS: usize = 32 * 1024;

/// Shared-reference inference: a `&NeuralSelector` is itself a selector,
/// running [`UNet3d::predict_in`] through `&self`. This is what lets
/// parallel workers and the training harness evaluate one weight set
/// without cloning it per thread.
impl Selector for &NeuralSelector {
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32> {
        let mut out = Vec::with_capacity(graph.len());
        self.fsp_into(graph, extra_pins, &mut out);
        out
    }

    fn fsp_into(&mut self, graph: &HananGraph, extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        self.fsp_into_ws(graph, extra_pins, out, &mut NnWorkspace::new());
    }

    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        // A single state is a batch of one.
        self.fsp_batch_into_ws(graph, extra_pins, &[extra_pins.len() as u32], out, ws);
    }

    fn fsp_batch_into_ws(
        &mut self,
        graph: &HananGraph,
        pts: &[GridPoint],
        lens: &[u32],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        // Channel-major [7, B, M, H, V] encodes, one network pass per chunk
        // (GEMM N = B·spatial), per-state reorder of the contiguous
        // [1, B, M, H, V] probability blocks into graph-index order (see
        // the layout note in `features`). Large flushes are chunked so each
        // pass's working set stays cache-resident (see
        // `FLUSH_CHUNK_VOXELS`); every state's arithmetic is independent of
        // its batch-mates, so the chunk boundary never changes a bit of
        // output — only which GEMM panel a state's columns land in.
        let spatial = graph.len();
        let max_chunk = (FLUSH_CHUNK_VOXELS / spatial).max(1);
        out.clear();
        let mut p0 = 0;
        let mut b0 = 0;
        while b0 < lens.len() {
            let b1 = (b0 + max_chunk).min(lens.len());
            let npts: usize = lens[b0..b1].iter().map(|&l| l as usize).sum();
            let x = encode_features_batch_into(graph, &pts[p0..p0 + npts], &lens[b0..b1], ws);
            let probs = self.net.predict_in(&x, ws);
            for b in 0..b1 - b0 {
                crate::features::to_graph_order_append(
                    &probs.data()[b * spatial..(b + 1) * spatial],
                    graph,
                    out,
                );
            }
            ws.free(probs);
            ws.free(x);
            p0 += npts;
            b0 = b1;
        }
    }
}

impl fmt::Display for NeuralSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.net.config();
        write!(
            f,
            "neural selector (base {}, levels {})",
            c.base_channels, c.levels
        )
    }
}

/// A trivial selector assigning the same probability everywhere. Useful as
/// a control in experiments and tests (it reduces the RL router to the
/// plain pins-only OARMST after the safeguard).
#[derive(Debug, Clone, Copy)]
pub struct UniformSelector {
    p: f32,
}

impl UniformSelector {
    /// Creates a uniform selector with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..=1.0).contains(&p));
        UniformSelector { p }
    }
}

impl Selector for UniformSelector {
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32> {
        let mut out = Vec::with_capacity(graph.len());
        self.fsp_into(graph, extra_pins, &mut out);
        out
    }

    fn fsp_into(&mut self, graph: &HananGraph, _extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        out.clear();
        out.resize(graph.len(), self.p);
    }
}

/// A geometric heuristic selector: vertices close to the pins' median
/// coordinate (the classic 3-pin Steiner point) get high probability. Used
/// as an untrained-but-sensible baseline and to keep benches independent of
/// training time.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianHeuristicSelector;

impl MedianHeuristicSelector {
    /// Creates the heuristic selector.
    pub fn new() -> Self {
        MedianHeuristicSelector
    }
}

impl Selector for MedianHeuristicSelector {
    fn fsp(&mut self, graph: &HananGraph, extra_pins: &[GridPoint]) -> Vec<f32> {
        let mut out = Vec::with_capacity(graph.len());
        self.fsp_into(graph, extra_pins, &mut out);
        out
    }

    fn fsp_into(&mut self, graph: &HananGraph, extra_pins: &[GridPoint], out: &mut Vec<f32>) {
        out.clear();
        let mut pins: Vec<GridPoint> = graph.pins().to_vec();
        pins.extend_from_slice(extra_pins);
        if pins.is_empty() {
            out.resize(graph.len(), 0.0);
            return;
        }
        let median = |mut xs: Vec<usize>| -> f32 {
            xs.sort_unstable();
            xs[xs.len() / 2] as f32
        };
        let mh = median(pins.iter().map(|p| p.h).collect());
        let mv = median(pins.iter().map(|p| p.v).collect());
        let mm = median(pins.iter().map(|p| p.m).collect());
        let scale = (graph.h() + graph.v() + graph.m()) as f32;
        out.extend((0..graph.len()).map(|idx| {
            let p = graph.point(idx);
            let d = (p.h as f32 - mh).abs() + (p.v as f32 - mv).abs() + (p.m as f32 - mm).abs();
            (-4.0 * d / scale).exp()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> HananGraph {
        let mut g = HananGraph::uniform(5, 5, 2, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 2, 0)).unwrap();
        g.add_pin(GridPoint::new(4, 2, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 0, 0)).unwrap();
        g
    }

    #[test]
    fn neural_selector_outputs_probabilities_for_any_size() {
        let mut s = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 2,
            seed: 0,
        });
        for (h, v, m) in [(5, 5, 2), (3, 7, 1), (9, 4, 3)] {
            let g = HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0);
            let fsp = s.fsp(&g, &[]);
            assert_eq!(fsp.len(), g.len());
            assert!(fsp.iter().all(|&p| p > 0.0 && p < 1.0));
        }
    }

    #[test]
    fn extra_pins_change_neural_output() {
        let mut s = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 1,
        });
        let g = graph();
        let base = s.fsp(&g, &[]);
        let with_extra = s.fsp(&g, &[GridPoint::new(3, 3, 1)]);
        assert_ne!(base, with_extra);
    }

    #[test]
    fn median_heuristic_peaks_at_the_median() {
        let mut s = MedianHeuristicSelector::new();
        let g = graph();
        let fsp = s.fsp(&g, &[]);
        // Median of pins (0,2,0),(4,2,0),(2,0,0) is (2,2,0).
        let at_median = fsp[g.index(GridPoint::new(2, 2, 0))];
        for &p in &fsp {
            assert!(p <= at_median + 1e-6);
        }
    }

    #[test]
    fn uniform_selector_is_flat() {
        let mut s = UniformSelector::new(0.3);
        let g = graph();
        let fsp = s.fsp(&g, &[]);
        assert!(fsp.iter().all(|&p| p == 0.3));
    }

    #[test]
    fn fsp_into_matches_fsp_for_every_selector() {
        let g = graph();
        let extra = [GridPoint::new(3, 3, 1)];
        let mut buf = vec![1.0f32; 3]; // stale contents must be cleared
        let mut neural = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 3,
        });
        neural.fsp_into(&g, &extra, &mut buf);
        assert_eq!(buf, neural.fsp(&g, &extra));
        let mut median = MedianHeuristicSelector::new();
        median.fsp_into(&g, &extra, &mut buf);
        assert_eq!(buf, median.fsp(&g, &extra));
        let mut uniform = UniformSelector::new(0.7);
        uniform.fsp_into(&g, &extra, &mut buf);
        assert_eq!(buf, uniform.fsp(&g, &extra));
    }

    /// The batched neural path must be bit-identical, per state, to the
    /// single-state path — and so must the default (looping) batch path of
    /// the heuristic selectors.
    #[test]
    fn fsp_batch_matches_single_state_bitwise() {
        let g = graph();
        // Three states: no extras, one extra, two extras.
        let states: [&[GridPoint]; 3] = [
            &[],
            &[GridPoint::new(3, 3, 1)],
            &[GridPoint::new(1, 4, 0), GridPoint::new(4, 4, 1)],
        ];
        let mut pts = Vec::new();
        let mut lens = Vec::new();
        for s in &states {
            pts.extend_from_slice(s);
            lens.push(s.len() as u32);
        }
        let mut neural = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 2,
            seed: 5,
        });
        let mut ws = NnWorkspace::new();
        let mut batched = Vec::new();
        neural.fsp_batch_into_ws(&g, &pts, &lens, &mut batched, &mut ws);
        assert_eq!(batched.len(), 3 * g.len());
        let mut single = Vec::new();
        for (b, s) in states.iter().enumerate() {
            neural.fsp_into_ws(&g, s, &mut single, &mut ws);
            for (i, (x, y)) in batched[b * g.len()..(b + 1) * g.len()]
                .iter()
                .zip(&single)
                .enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "state {b} vertex {i}");
            }
        }
        // Heuristic selectors ride the default loop.
        let mut median = MedianHeuristicSelector::new();
        let mut mb = Vec::new();
        median.fsp_batch_into(&g, &pts, &lens, &mut mb);
        for (b, s) in states.iter().enumerate() {
            assert_eq!(&mb[b * g.len()..(b + 1) * g.len()], &median.fsp(&g, s)[..]);
        }
    }

    /// Shared (`&NeuralSelector`) inference must reproduce the owned
    /// selector bit for bit.
    #[test]
    fn shared_selector_matches_owned_bitwise() {
        let g = graph();
        let extra = [GridPoint::new(3, 3, 1)];
        let mut owned = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 2,
            seed: 9,
        });
        let reference = owned.fsp(&g, &extra);
        let mut by_ref = &owned;
        let via_ref = by_ref.fsp(&g, &extra);
        for i in 0..reference.len() {
            assert_eq!(reference[i].to_bits(), via_ref[i].to_bits(), "vertex {i}");
        }
    }

    /// Regression: the shared path once kept U-Net skips in a fixed
    /// 8-slot array and panicked on deeper nets that the owned path
    /// served. Both now run one pass with no level cap.
    #[test]
    fn nine_level_selector_serves_shared_and_owned_alike() {
        let g = HananGraph::uniform(3, 2, 2, 1.0, 1.0, 3.0);
        let extra = [GridPoint::new(1, 1, 0)];
        let mut owned = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 1,
            levels: 9,
            seed: 13,
        });
        let reference = owned.fsp(&g, &extra);
        let via_ref = (&owned).fsp(&g, &extra);
        assert_eq!(reference.len(), g.len());
        for i in 0..reference.len() {
            assert_eq!(reference[i].to_bits(), via_ref[i].to_bits(), "vertex {i}");
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("oarsmt_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("selector.bin");
        let cfg = UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 7,
        };
        let mut a = NeuralSelector::with_config(cfg);
        a.save(&path).unwrap();
        let mut b = NeuralSelector::with_config(UNetConfig { seed: 8, ..cfg });
        b.load(&path).unwrap();
        let g = graph();
        assert_eq!(a.fsp(&g, &[]), b.fsp(&g, &[]));
        std::fs::remove_file(&path).ok();
    }

    /// One recorder per context: arming a `RouteContext` records the
    /// selector's U-Net layers and the router's phases in one ring, in
    /// call order, as a balanced export whose summary equals the
    /// histograms.
    #[test]
    fn an_armed_context_records_selection_and_routing_in_one_ring() {
        use oarsmt_router::{OarmstRouter, RouteContext};
        use oarsmt_telemetry::tracing::{summarize, to_chrome_json, verify_chrome};
        use oarsmt_telemetry::{Span, TraceKind};

        let mut s = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 2,
            seed: 0,
        });
        let g = graph();
        let mut ctx = RouteContext::new();
        ctx.nn.spans.arm(4096);
        s.fsp_into_ws(&g, &[], &mut ctx.fsp, &mut ctx.nn);
        let tree = OarmstRouter::new().route_in(&mut ctx, &g, &[]).unwrap();
        ctx.recycle_tree(tree);

        let rec = &ctx.nn.spans;
        assert_eq!(rec.dropped(), 0);
        let events = rec.events_in_order();
        let first = |span: Span| {
            events
                .iter()
                .position(|e| e.span == span && e.kind == TraceKind::Begin)
                .unwrap_or_else(|| panic!("{span:?} never reached the ring"))
        };
        assert!(first(Span::NnConvFwd) < first(Span::RouteDijkstra));
        for agg in summarize(&events) {
            let h = rec.hists().get(agg.span);
            assert_eq!((agg.count, agg.total_ns), (h.count, h.total_ns));
        }
        let check = verify_chrome(&to_chrome_json(&events, rec.dropped())).unwrap();
        assert_eq!(check.events, events.len());
    }
}
