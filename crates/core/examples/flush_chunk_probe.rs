//! Chunk-size A/B for the batched selector flush. Not a recorded
//! benchmark — the honest numbers live in `oarsmt-bench`
//! (`oarsmt_bench batch`); this exists to pick `FLUSH_CHUNK_VOXELS`
//! empirically: it emulates chunked flushes of a B = 16 `EvalQueue`
//! batch by slicing the `(pts, lens)` convention externally and timing
//! each chunk width at the large rungs.
//!
//! `cargo run --release -p oarsmt --example flush_chunk_probe`

use std::time::Instant;

use oarsmt::selector::{NeuralSelector, Selector};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_nn::unet::UNetConfig;
use oarsmt_nn::NnWorkspace;

const BATCH: usize = 16;

fn states(graph: &HananGraph) -> Vec<Vec<GridPoint>> {
    let n = graph.len();
    let stride: Vec<GridPoint> = (0..8).map(|j| graph.point((j * 7919) % n)).collect();
    (0..BATCH).map(|i| stride[..(i % 6)].to_vec()).collect()
}

fn flatten(states: &[Vec<GridPoint>]) -> (Vec<GridPoint>, Vec<u32>) {
    let mut pts = Vec::new();
    let mut lens = Vec::new();
    for s in states {
        pts.extend_from_slice(s);
        lens.push(s.len() as u32);
    }
    (pts, lens)
}

fn main() {
    for (name, h, v, m, iters) in [
        ("S24", 24usize, 24usize, 2usize, 40usize),
        ("S32", 32, 32, 3, 12),
        ("S48", 48, 48, 3, 6),
    ] {
        let cfg = GeneratorConfig::paper_costs(h, v, m, (6, 6));
        let graph = CaseGenerator::new(cfg, 0x5EED ^ h as u64).generate();
        let st = states(&graph);
        let (pts, lens) = flatten(&st);
        let mut sel = NeuralSelector::with_config(UNetConfig {
            in_channels: 7,
            base_channels: 8,
            levels: 2,
            seed: 0xDAC2024,
        });
        let mut ws = NnWorkspace::new();
        let mut out = Vec::new();
        print!("{name} spatial={:5}:", graph.len());
        for chunk in [16usize, 8, 4, 2, 1] {
            // Warm the pool for this chunk shape.
            for c0 in (0..BATCH).step_by(chunk) {
                let c1 = (c0 + chunk).min(BATCH);
                let p0: usize = lens[..c0].iter().map(|&l| l as usize).sum();
                let p1: usize = lens[..c1].iter().map(|&l| l as usize).sum();
                sel.fsp_batch_into_ws(&graph, &pts[p0..p1], &lens[c0..c1], &mut out, &mut ws);
            }
            let t0 = Instant::now();
            for _ in 0..iters {
                for c0 in (0..BATCH).step_by(chunk) {
                    let c1 = (c0 + chunk).min(BATCH);
                    let p0: usize = lens[..c0].iter().map(|&l| l as usize).sum();
                    let p1: usize = lens[..c1].iter().map(|&l| l as usize).sum();
                    sel.fsp_batch_into_ws(&graph, &pts[p0..p1], &lens[c0..c1], &mut out, &mut ws);
                    std::hint::black_box(out[0]);
                }
            }
            let per_state = t0.elapsed().as_secs_f64() / (iters * BATCH) as f64;
            print!("  c{chunk}={:7.3}ms", per_state * 1e3);
        }
        println!();
    }
}
