//! Tree-shape contracts of the routers (DESIGN.md §7).
//!
//! * Golden pins freeze the \[12\] (`SpanningRouter`) and \[16\]
//!   (`Liu14Router`) baselines: edge-list hash, edge count and cost bits
//!   on fixed 16×16×3 layouts, where the spanning router's per-MST-edge
//!   paths overlap and must place each shared grid edge once, at its
//!   first occurrence.
//! * The same pins freeze \[14\] (`Lin18Router`) on the same layouts:
//!   bounded build, ungated polish rounds and implied-Steiner retracing.

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_router::{Lin18Router, Liu14Router, RouteError, RouteTree, SpanningRouter};

/// FNV-1a over a tree's edge list (order-sensitive): a compact,
/// toolchain-stable geometry fingerprint.
fn edge_hash(tree: &RouteTree) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in tree.edges() {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin(tree: Result<RouteTree, RouteError>) -> String {
    match tree {
        Ok(t) => format!(
            "{} {:x} {:x}",
            t.edge_count(),
            t.cost().to_bits(),
            edge_hash(&t)
        ),
        Err(e) => format!("err {e:?}"),
    }
}

/// The eight paper-cost 16×16×3 layouts every golden pin routes.
fn golden_layouts() -> Vec<HananGraph> {
    CaseGenerator::new(GeneratorConfig::paper_costs(16, 16, 3, (4, 10)), 0x5EA7).generate_many(8)
}

#[test]
fn spanning_and_liu14_golden_pins() {
    let mut liu = Liu14Router::new();
    let lines: Vec<String> = golden_layouts()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            format!(
                "{i} span {} liu {}",
                pin(SpanningRouter::new().route(g)),
                pin(liu.route(g))
            )
        })
        .collect();
    let golden = [
        "0 span 49 40d0fc8000000000 4ea5312c5e534056 liu 49 40d0fc8000000000 4ea5312c5e534056",
        "1 span 58 40d9390000000000 17ee65a8829539e3 liu 58 40d9390000000000 17ee65a8829539e3",
        "2 span 21 40bacd0000000000 8f7668c0f0ce7534 liu 21 40bacd0000000000 8f7668c0f0ce7534",
        "3 span 37 40ca878000000000 6c8325e41d4c8229 liu 37 40ca228000000000 823458b63c966a9c",
        "4 span 32 40cfb78000000000 9f07c1e98aed2b4f liu 32 40cfb78000000000 9f07c1e98aed2b4f",
        "5 span 24 40c5a60000000000 f9c852fa1221c95d liu 24 40c5a60000000000 f9c852fa1221c95d",
        "6 span 33 40c3ff8000000000 3eeb25e88691f18c liu 32 40c3578000000000 28af4f203f86661e",
        "7 span 41 40cd188000000000 65f4cb9c7cd643f7 liu 41 40cd188000000000 65f4cb9c7cd643f7",
    ];
    assert_eq!(lines, golden, "baseline tree shapes changed");
}

#[test]
fn lin18_golden_pins() {
    let mut lin = Lin18Router::new();
    let lines: Vec<String> = golden_layouts()
        .iter()
        .enumerate()
        .map(|(i, g)| format!("{i} lin {}", pin(lin.route(g))))
        .collect();
    let golden = [
        "0 lin 49 40d0fc8000000000 4ea5312c5e534056",
        "1 lin 51 40d5b68000000000 fa5861ee14b78438",
        "2 lin 21 40bacd0000000000 8f7668c0f0ce7534",
        "3 lin 37 40ca228000000000 823458b63c966a9c",
        "4 lin 29 40cd248000000000 36dd6185b3dd8019",
        "5 lin 22 40c37e8000000000 c5e4844b7ce9c9fb",
        "6 lin 32 40c3578000000000 28af4f203f86661e",
        "7 lin 41 40cc8f0000000000 d525e3c207a97fa0",
    ];
    assert_eq!(lines, golden, "[14] tree shapes changed");
}
