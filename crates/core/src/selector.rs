//! Steiner-point selectors: the neural agent and cheap heuristic stand-ins.

use std::fmt;
use std::path::Path;

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::serialize::{load_from_file, save_to_file};
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::NnWorkspace;

use crate::error::CoreError;
use crate::features::{encode_features_into, to_graph_order_into, FEATURE_CHANNELS};

/// A Steiner-point selector: anything that can produce the paper's *final
/// selected probability* `fsp(v)` for every vertex of a Hanan graph.
///
/// `extra_pins` carry the already-selected Steiner points of an MCTS state,
/// which the selector must treat as pins (Section 3.4). The method takes
/// `&mut self` so stateful selectors fit; neural inference itself is
/// read-only (`&NeuralSelector` is a selector too).
///
/// Every inference runs against a caller-owned output buffer and a
/// neural-network scratch arena. Hot paths (the MCTS critic, the RL router)
/// pass the `fsp` buffer and the `nn` workspace of their
/// `oarsmt_router::RouteContext`, so repeated inference allocates nothing;
/// a one-off caller passes `&mut Vec::new()` and `&mut NnWorkspace::new()`.
pub trait Selector {
    /// Per-vertex final selected probabilities, indexed like
    /// [`HananGraph::index`], each in `[0, 1]`, written to `out` (cleared
    /// first). Neural selectors run the whole inference (feature encoding,
    /// every layer's activations) out of `ws`; other selectors ignore it.
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    );
}

/// Mutable references are selectors too, so routers can borrow a selector
/// without taking ownership.
impl<S: Selector + ?Sized> Selector for &mut S {
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (**self).fsp_into_ws(graph, extra_pins, out, ws);
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
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        (&*self).fsp_into_ws(graph, extra_pins, out, ws);
    }
}

/// Shared-reference inference: a `&NeuralSelector` is itself a selector,
/// running one rank-4 [`UNet3d::predict_in`] pass through `&self` per call
/// (encode the state, predict, reorder into graph order). This is what lets
/// parallel workers and the training harness evaluate one weight set
/// without cloning it per thread.
impl Selector for &NeuralSelector {
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        ws: &mut NnWorkspace,
    ) {
        let x = encode_features_into(graph, extra_pins, ws);
        let probs = self.net.predict_in(&x, ws);
        to_graph_order_into(probs.data(), graph, out);
        ws.free(probs);
        ws.free(x);
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
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        _extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        _ws: &mut NnWorkspace,
    ) {
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

/// The order statistic `xs[len / 2]` of the sorted coordinates `xs` on one
/// axis of length `extent`, without sorting: the least `c` with more than
/// `len / 2` coordinates at or below it.
fn axis_median(xs: impl Iterator<Item = usize> + Clone, extent: usize) -> f32 {
    let half = xs.clone().count() / 2;
    (0..extent)
        .take_while(|&c| xs.clone().filter(|&x| x <= c).count() <= half)
        .count() as f32
}

impl Selector for MedianHeuristicSelector {
    fn fsp_into_ws(
        &mut self,
        graph: &HananGraph,
        extra_pins: &[GridPoint],
        out: &mut Vec<f32>,
        _ws: &mut NnWorkspace,
    ) {
        out.clear();
        if graph.pins().is_empty() && extra_pins.is_empty() {
            out.resize(graph.len(), 0.0);
            return;
        }
        let pins = || graph.pins().iter().chain(extra_pins);
        let mh = axis_median(pins().map(|p| p.h), graph.h());
        let mv = axis_median(pins().map(|p| p.v), graph.v());
        let mm = axis_median(pins().map(|p| p.m), graph.m());
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

    /// One inference into a fresh buffer through a throwaway workspace.
    fn fsp<S: Selector>(mut s: S, g: &HananGraph, extra: &[GridPoint]) -> Vec<f32> {
        let mut out = Vec::new();
        s.fsp_into_ws(g, extra, &mut out, &mut NnWorkspace::new());
        out
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
            let fsp = fsp(&mut s, &g, &[]);
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
        let base = fsp(&mut s, &g, &[]);
        let with_extra = fsp(&mut s, &g, &[GridPoint::new(3, 3, 1)]);
        assert_ne!(base, with_extra);
    }

    #[test]
    fn median_heuristic_peaks_at_the_median() {
        let g = graph();
        let fsp = fsp(MedianHeuristicSelector::new(), &g, &[]);
        // Median of pins (0,2,0),(4,2,0),(2,0,0) is (2,2,0).
        let at_median = fsp[g.index(GridPoint::new(2, 2, 0))];
        for &p in &fsp {
            assert!(p <= at_median + 1e-6);
        }
    }

    /// With an even pin count the median is the upper middle, `xs[len / 2]`
    /// of each axis' sorted coordinates, extra pins included.
    #[test]
    fn median_heuristic_takes_the_upper_middle_with_extra_pins() {
        let g = graph();
        // h: 0 2 3 4 -> 3; v: 0 2 2 3 -> 2; m: 0 0 0 1 -> 0.
        let fsp = fsp(
            MedianHeuristicSelector::new(),
            &g,
            &[GridPoint::new(3, 3, 1)],
        );
        assert_eq!(fsp[g.index(GridPoint::new(3, 2, 0))], 1.0);
        assert_eq!(fsp.iter().filter(|&&p| p == 1.0).count(), 1);
    }

    #[test]
    fn uniform_selector_is_flat() {
        let g = graph();
        let fsp = fsp(UniformSelector::new(0.3), &g, &[]);
        assert!(fsp.iter().all(|&p| p == 0.3));
    }

    #[test]
    fn fsp_into_ws_overwrites_a_stale_buffer_for_every_selector() {
        let g = graph();
        let extra = [GridPoint::new(3, 3, 1)];
        let mut ws = NnWorkspace::new();
        let mut neural = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 1,
            seed: 3,
        });
        let mut buf = vec![1.0f32; 3]; // stale contents must be cleared
        neural.fsp_into_ws(&g, &extra, &mut buf, &mut ws);
        assert_eq!(buf, fsp(&mut neural, &g, &extra));
        let mut median = MedianHeuristicSelector::new();
        let mut buf = vec![1.0f32; 3];
        median.fsp_into_ws(&g, &extra, &mut buf, &mut ws);
        assert_eq!(buf, fsp(median, &g, &extra));
        let mut uniform = UniformSelector::new(0.7);
        let mut buf = vec![1.0f32; 3];
        uniform.fsp_into_ws(&g, &extra, &mut buf, &mut ws);
        assert_eq!(buf, fsp(uniform, &g, &extra));
    }

    /// Pins the exact output bits of one `&NeuralSelector` inference: an
    /// FNV-1a hash over every `f32::to_bits` of the fsp, for a 2-layer
    /// graph with no extra pins and with two. Any change to the inference
    /// sequence (encode, U-Net pass, reorder) must leave these unchanged.
    #[test]
    fn neural_fsp_bits_match_goldens() {
        fn fnv(xs: &[f32]) -> u64 {
            xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
                x.to_bits()
                    .to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            })
        }
        let neural = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 2,
            levels: 2,
            seed: 21,
        });
        let g = graph();
        let cases: [(&[GridPoint], u64); 2] = [
            (&[], 0x4edb_4ed5_d799_7939),
            (
                &[GridPoint::new(3, 3, 1), GridPoint::new(1, 4, 0)],
                0x0a3c_a3d4_1d20_51f0,
            ),
        ];
        for (extra, golden) in cases {
            let out = fsp(&neural, &g, extra);
            assert_eq!(out.len(), g.len());
            assert_eq!(fnv(&out), golden, "{} extra pins", extra.len());
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
        let reference = fsp(&mut owned, &g, &extra);
        let via_ref = fsp(&owned, &g, &extra);
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
        let reference = fsp(&mut owned, &g, &extra);
        let via_ref = fsp(&owned, &g, &extra);
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
        assert_eq!(fsp(&mut a, &g, &[]), fsp(&mut b, &g, &[]));
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
