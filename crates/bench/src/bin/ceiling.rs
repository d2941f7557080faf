//! Diagnostic (not a paper experiment): the achievable ST-to-MST ceiling on
//! the Figs. 11-12 evaluation distribution — exact Steiner optimum vs the
//! pins-only spanning construction.

#![forbid(unsafe_code)]

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_router::exact::steiner_exact_cost;
use oarsmt_router::{OarmstRouter, RouteContext};

fn main() {
    for (h, v, m, pins) in [
        (8, 8, 2, (3usize, 5usize)),
        (8, 8, 2, (6, 8)),
        (12, 12, 2, (4, 6)),
    ] {
        let mut gen = CaseGenerator::new(GeneratorConfig::paper_costs(h, v, m, pins), 0xCE11);
        let plain = OarmstRouter::new().with_polish_rounds(0);
        let polished = OarmstRouter::new();
        let mut sum_exact_over_mst = 0.0;
        let mut sum_polished_over_mst = 0.0;
        let mut n = 0;
        for g in gen.generate_many(25) {
            let Ok(exact) = steiner_exact_cost(&g) else {
                continue;
            };
            let Ok(mst) = plain.route_in(&mut RouteContext::new(), &g, &[]) else {
                continue;
            };
            let Ok(pol) = polished.route_in(&mut RouteContext::new(), &g, &[]) else {
                continue;
            };
            sum_exact_over_mst += exact / mst.cost();
            sum_polished_over_mst += pol.cost() / mst.cost();
            n += 1;
        }
        println!(
            "{h}x{v}x{m} pins {pins:?}: exact/mst {:.4}, polished/mst {:.4} ({n} layouts)",
            sum_exact_over_mst / n as f64,
            sum_polished_over_mst / n as f64
        );
    }
}
