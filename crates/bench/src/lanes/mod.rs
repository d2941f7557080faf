//! The `oarsmt_bench` lanes, and the size ladder and helpers the U-Net
//! lanes share.

pub mod batch;
pub mod critic;
pub mod dijkstra;
pub mod unet;

use oarsmt::selector::{MedianHeuristicSelector, Selector};
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_nn::unet::UNetConfig;
use oarsmt_nn::NnWorkspace;

use crate::runner::Lane;

/// Every lane, in usage order.
pub const LANES: [Lane; 4] = [critic::LANE, unet::LANE, batch::LANE, dijkstra::LANE];

/// One rung of the U-Net lanes' size ladder.
#[derive(Debug, Clone, Copy)]
pub struct SizeRung {
    /// Rung label (`S<H>`).
    pub name: &'static str,
    /// Grid lines along H.
    pub h: usize,
    /// Grid lines along V.
    pub v: usize,
    /// Routing layers.
    pub m: usize,
    /// Pins per layout.
    pub pins: usize,
}

impl SizeRung {
    /// The generator configuration of the rung's layouts.
    pub fn config(&self) -> GeneratorConfig {
        GeneratorConfig::paper_costs(self.h, self.v, self.m, (self.pins, self.pins))
    }

    /// The rung's deterministic layout.
    pub fn graph(&self) -> HananGraph {
        CaseGenerator::new(self.config(), 0x5EED ^ self.h as u64).generate()
    }
}

const fn rung(name: &'static str, h: usize, m: usize, pins: usize) -> SizeRung {
    SizeRung {
        name,
        h,
        v: h,
        m,
        pins,
    }
}

/// The size ladder of the `unet` and `batch` lanes.
pub const SIZE_LADDER: [SizeRung; 6] = [
    rung("S8", 8, 2, 4),
    rung("S12", 12, 2, 4),
    rung("S16", 16, 2, 5),
    rung("S24", 24, 2, 5),
    rung("S32", 32, 3, 6),
    rung("S48", 48, 3, 6),
];

/// The default selector architecture (7 feature channels, laptop width).
pub fn selector_config() -> UNetConfig {
    UNetConfig {
        in_channels: 7,
        base_channels: 8,
        levels: 2,
        seed: 0xDAC2024,
    }
}

/// A sparse synthetic label in graph order: 1 at the median heuristic's
/// top-k Steiner points, 0 elsewhere.
pub fn heuristic_label(graph: &HananGraph) -> Vec<f32> {
    let mut fsp = Vec::new();
    MedianHeuristicSelector::new().fsp_into_ws(graph, &[], &mut fsp, &mut NnWorkspace::new());
    let mut top = Vec::new();
    select_top_k_into(
        graph,
        &fsp,
        steiner_budget(graph.pins().len()),
        &[],
        &mut Vec::new(),
        &mut Vec::new(),
        &mut top,
    );
    let mut label = vec![0.0f32; graph.len()];
    for p in top {
        label[graph.index(p)] = 1.0;
    }
    label
}

/// Sum of `data` in `f64`, element order (a checksum's input).
pub fn f64_sum(data: &[f32]) -> f64 {
    data.iter().map(|&v| f64::from(v)).sum()
}

/// The kernel lane every `NnWorkspace` on this host runs, as the U-Net
/// lanes' artifacts name it (`kernel`). Every lane gives the same bits.
pub fn kernel_lane() -> &'static str {
    oarsmt_nn::host_lane().name()
}

/// Asserts that the wide tiles ran through `counters` exactly when the
/// host's lane ([`kernel_lane`]) is wide, so a silent scalar fallback
/// cannot pass as wide-lane numbers.
///
/// # Panics
///
/// Panics when the dispatch counter disagrees with the lane.
pub fn assert_lane_dispatched(rung: &str, counters: &oarsmt_telemetry::CounterSet) {
    let lane = oarsmt_nn::host_lane();
    assert_eq!(
        counters.get(oarsmt_telemetry::Counter::GemmKernelSimd) > 0,
        lane != oarsmt_nn::Lane::Scalar,
        "{rung}: the wide tiles must dispatch exactly on a wide lane ({})",
        lane.name()
    );
}
