//! Physical geometry export: converting a routed [`RouteTree`] back into
//! maximal rectilinear wire segments and via stacks in original
//! coordinates — what a downstream flow (DEF writer, DRC, parasitic
//! extraction) consumes.

use std::collections::BTreeMap;
use std::fmt;

use oarsmt_geom::{Coord, GridPoint, HananGraph};

use crate::tree::RouteTree;

/// A maximal straight wire segment on one routing layer, in physical
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireSegment {
    /// Start coordinate (lexicographically smaller end).
    pub from: Coord,
    /// End coordinate.
    pub to: Coord,
    /// Routing layer.
    pub layer: usize,
}

impl WireSegment {
    /// Physical (rectilinear) length of the segment.
    pub fn length(&self) -> i64 {
        self.from.manhattan(self.to)
    }
}

impl fmt::Display for WireSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} on layer {}", self.from, self.to, self.layer)
    }
}

/// A via between two adjacent routing layers at one physical location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Via {
    /// Physical location.
    pub at: Coord,
    /// Lower layer of the pair (`layer` to `layer + 1`).
    pub layer: usize,
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "via {} layers {}-{}",
            self.at,
            self.layer,
            self.layer + 1
        )
    }
}

/// The physical geometry of a routed tree: merged wire segments plus vias.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteGeometry {
    /// Maximal straight wire segments (collinear grid edges merged).
    pub wires: Vec<WireSegment>,
    /// Vias, one per layer change.
    pub vias: Vec<Via>,
}

impl RouteGeometry {
    /// Total physical wirelength (vias not counted).
    pub fn wirelength(&self) -> i64 {
        self.wires.iter().map(WireSegment::length).sum()
    }

    /// Extracts the geometry of a routed tree, merging collinear runs of
    /// grid edges into maximal segments.
    pub fn extract(graph: &HananGraph, tree: &RouteTree) -> RouteGeometry {
        // Collect the grid edges per direction.
        #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
        enum Dir {
            H,
            V,
        }
        // Key: (layer, row-or-col fixed index) -> sorted variable indices
        // of covered gaps. A BTreeMap so the emission order below is the
        // key order, independent of edge insertion order and hasher state.
        let mut runs: BTreeMap<(Dir, usize, usize), Vec<usize>> = BTreeMap::new();
        let mut vias: Vec<Via> = Vec::new();
        for &(a, b) in tree.edges() {
            let pa = graph.point(a as usize);
            let pb = graph.point(b as usize);
            if pa.m != pb.m {
                vias.push(Via {
                    at: graph.physical(pa),
                    layer: pa.m.min(pb.m),
                });
            } else if pa.v == pb.v {
                // Horizontal edge between columns min(h)..min(h)+1.
                runs.entry((Dir::H, pa.m, pa.v))
                    .or_default()
                    .push(pa.h.min(pb.h));
            } else {
                runs.entry((Dir::V, pa.m, pa.h))
                    .or_default()
                    .push(pa.v.min(pb.v));
            }
        }
        let mut wires = Vec::new();
        for ((dir, layer, fixed), mut gaps) in runs {
            gaps.sort_unstable();
            gaps.dedup();
            let mut i = 0;
            while i < gaps.len() {
                let start = gaps[i];
                let mut end = start;
                while i + 1 < gaps.len() && gaps[i + 1] == end + 1 {
                    end = gaps[i + 1];
                    i += 1;
                }
                i += 1;
                let (from, to) = match dir {
                    Dir::H => (
                        Coord::new(graph.xs()[start], graph.ys()[fixed]),
                        Coord::new(graph.xs()[end + 1], graph.ys()[fixed]),
                    ),
                    Dir::V => (
                        Coord::new(graph.xs()[fixed], graph.ys()[start]),
                        Coord::new(graph.xs()[fixed], graph.ys()[end + 1]),
                    ),
                };
                wires.push(WireSegment { from, to, layer });
            }
        }
        wires.sort_by_key(|w| (w.layer, w.from, w.to));
        vias.sort_by_key(|v| (v.layer, v.at));
        RouteGeometry { wires, vias }
    }
}

impl fmt::Display for RouteGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} wire segments (length {}), {} vias",
            self.wires.len(),
            self.wirelength(),
            self.vias.len()
        )
    }
}

/// Renders one layer of a routed tree as ASCII art (debugging aid):
/// `#` obstacles, `o` pins, `+` tree vertices, `-`/`|` tree edges,
/// `.` empty.
pub fn render_layer(graph: &HananGraph, tree: &RouteTree, layer: usize) -> String {
    use oarsmt_geom::VertexKind;
    let (h_dim, v_dim, _) = graph.dims();
    let verts = tree.sorted_endpoints();
    // Character grid: vertices at even positions, edges between.
    let w = 2 * h_dim - 1;
    let rows = 2 * v_dim - 1;
    let mut canvas = vec![vec![' '; w]; rows];
    for v in 0..v_dim {
        for h in 0..h_dim {
            let p = GridPoint::new(h, v, layer);
            let idx = graph.index(p) as u32;
            canvas[2 * v][2 * h] = match graph.kind(p) {
                VertexKind::Obstacle => '#',
                VertexKind::Pin => 'o',
                VertexKind::Empty if verts.binary_search(&idx).is_ok() => '+',
                VertexKind::Empty => '.',
            };
        }
    }
    for &(a, b) in tree.edges() {
        let pa = graph.point(a as usize);
        let pb = graph.point(b as usize);
        if pa.m != layer || pb.m != layer {
            // Mark via endpoints on this layer.
            if pa.m == layer && pa.m != pb.m {
                canvas[2 * pa.v][2 * pa.h] = '*';
            }
            if pb.m == layer && pa.m != pb.m {
                canvas[2 * pb.v][2 * pb.h] = '*';
            }
            continue;
        }
        if pa.v == pb.v {
            canvas[2 * pa.v][pa.h + pb.h] = '-';
        } else {
            canvas[pa.v + pb.v][2 * pa.h] = '|';
        }
    }
    // v grows upward: print top row first.
    let mut out = String::new();
    for row in canvas.iter().rev() {
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;
    use crate::RouteContext;

    fn l_route() -> (HananGraph, RouteTree) {
        let mut g = HananGraph::uniform(4, 4, 2, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 3, 1)).unwrap();
        let t = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        (g, t)
    }

    #[test]
    fn collinear_edges_merge_into_one_segment() {
        let mut g = HananGraph::uniform(5, 1, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(4, 0, 0)).unwrap();
        let t = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let geo = RouteGeometry::extract(&g, &t);
        assert_eq!(geo.wires.len(), 1);
        assert_eq!(geo.wires[0].length(), 4);
        assert!(geo.vias.is_empty());
    }

    #[test]
    fn vias_are_extracted_with_locations() {
        let (g, t) = l_route();
        let geo = RouteGeometry::extract(&g, &t);
        assert_eq!(geo.vias.len(), t.via_count(&g));
        assert!(!geo.vias.is_empty());
        for v in &geo.vias {
            assert_eq!(v.layer, 0);
        }
    }

    #[test]
    fn wirelength_matches_unit_cost_tree() {
        // With unit costs, the physical wirelength equals the tree cost
        // minus via costs.
        let (g, t) = l_route();
        let geo = RouteGeometry::extract(&g, &t);
        let via_cost_total = geo.vias.len() as f64 * g.via_cost();
        assert!((geo.wirelength() as f64 - (t.cost() - via_cost_total)).abs() < 1e-9);
    }

    #[test]
    fn segments_use_physical_coordinates() {
        use oarsmt_geom::{Layout, Obstacle, Pin, Rect};
        let layout = Layout::new(1)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(100, 0), 0))
            .with_obstacle(Obstacle::new(Rect::new(40, 10, 60, 20), 0));
        let g = HananGraph::from_layout(&layout).unwrap();
        let t = OarmstRouter::new()
            .route_in(&mut RouteContext::new(), &g, &[])
            .unwrap();
        let geo = RouteGeometry::extract(&g, &t);
        assert_eq!(geo.wirelength(), 100);
        let xs: Vec<i64> = geo.wires.iter().flat_map(|w| [w.from.x, w.to.x]).collect();
        assert!(xs.contains(&0) && xs.contains(&100));
    }

    #[test]
    fn extraction_order_is_deterministic_across_rebuilds() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let router = OarmstRouter::new();
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (3, 6)), 23);
        for g in gen.generate_many(6) {
            let Ok(tree) = router.route_in(&mut RouteContext::new(), &g, &[]) else {
                continue;
            };
            let reference = RouteGeometry::extract(&g, &tree);
            // Same tree re-extracted: identical segment *lists* (order
            // included), run after run.
            for _ in 0..3 {
                assert_eq!(RouteGeometry::extract(&g, &tree), reference);
            }
            // Same edge set inserted in reverse order: still the same list.
            let mut reversed = RouteTree::new();
            for &(a, b) in tree.edges().iter().rev() {
                reversed.add_edge(&g, g.point(a as usize), g.point(b as usize));
            }
            assert_eq!(RouteGeometry::extract(&g, &reversed), reference);
            // And a fresh routing run of the same layout.
            let again = router.route_in(&mut RouteContext::new(), &g, &[]).unwrap();
            assert_eq!(RouteGeometry::extract(&g, &again), reference);
        }
    }

    #[test]
    fn ascii_rendering_shows_pins_and_edges() {
        let (g, t) = l_route();
        let art = render_layer(&g, &t, 0);
        assert!(art.contains('o'), "pins rendered");
        assert!(art.contains('-') || art.contains('|'), "edges rendered");
        assert_eq!(art.lines().count(), 2 * g.v() - 1);
    }
}
