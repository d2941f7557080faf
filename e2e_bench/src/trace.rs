//! The traced run: `RlRouter::route` rebuilt from its public layer calls,
//! with a benchmark-owned span around each call.
//!
//! Spans are kept in memory (kind, start, end, parent, request id = layout
//! index) and written out as Chrome `trace_event` JSON at exit. A layer's
//! self time is its span's duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

use oarsmt::features::{encode_features_into, to_graph_order_into};
use oarsmt::selector::NeuralSelector;
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::{retrace, OarmstRouter, RouteContext, RouteError, RouteTree};
use oarsmt_telemetry::Counter;

/// The layers a traced route is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Root span of one composed `RlRouter::route`.
    Route,
    /// Feature encoding.
    Encode,
    /// U-Net forward pass.
    Unet,
    /// Reordering the probabilities and picking the top `n − 2`.
    Topk,
    /// OARMST build over the selected candidates.
    Build,
    /// The pins-only safeguard build.
    Safeguard,
    /// The refine loop (its self time is the branch-vertex bookkeeping).
    Refine,
    /// One path-assessed polish round.
    Polish,
    /// One rebuild over the promoted branch vertices.
    Rebuild,
    /// Root span of one \[14\] route.
    Lin18,
}

pub const KINDS: usize = 10;

const NAMES: [&str; KINDS] = [
    "route",
    "core.encode",
    "nn.unet",
    "core.topk",
    "router.build",
    "router.safeguard",
    "router.refine",
    "router.polish",
    "router.rebuild",
    "lin18.route",
];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, kind: Kind, parent: Option<usize>, request: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Self time per [`Kind`] of the spans from index `from` on, summed
    /// over spans of the same kind.
    pub fn self_ns(&self, from: usize) -> [u64; KINDS] {
        let spans = &self.spans[from..];
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0u64; KINDS];
        for (s, c) in spans.iter().zip(child) {
            out[s.kind as usize] += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Chrome `trace_event` JSON of every recorded span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}{}",
                NAMES[s.kind as usize],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// What one composed route did, for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStats {
    /// Candidates the selector proposed.
    pub proposed: u64,
    /// Of those, pruned by the first build.
    pub pruned: u64,
    pub safeguard_won: bool,
    pub polish_rounds: u64,
    pub polish_improved: u64,
    pub rebuilds: u64,
    pub rebuilds_kept: u64,
}

/// `RlRouter::route` with safeguard and refinement, rebuilt call by call
/// from the product's public entry points. Its trees must equal the
/// router's bit for bit; the traced run checks that on every layout.
#[derive(Debug)]
pub struct Composer {
    selector: NeuralSelector,
    oarmst: OarmstRouter,
    ctx: RouteContext,
}

impl Composer {
    pub fn new(selector: NeuralSelector) -> Self {
        Composer {
            selector,
            // As in `RlRouter::new`: the refine loop polishes explicitly,
            // so the inner builds skip theirs.
            oarmst: OarmstRouter::new().with_polish_rounds(0),
            ctx: RouteContext::new(),
        }
    }

    /// Routes `graph` as request `request`, recording spans into `tr`.
    /// On error the partial spans are dropped.
    pub fn route(
        &mut self,
        graph: &HananGraph,
        tr: &mut Tracer,
        request: u32,
    ) -> Result<(RouteTree, LayerStats), RouteError> {
        let mark = tr.spans.len();
        let out = self.route_spans(graph, tr, request);
        if out.is_err() {
            tr.spans.truncate(mark);
        }
        out
    }

    fn route_spans(
        &mut self,
        graph: &HananGraph,
        tr: &mut Tracer,
        request: u32,
    ) -> Result<(RouteTree, LayerStats), RouteError> {
        let ctx = &mut self.ctx;
        let root = tr.begin(Kind::Route, None, request);
        let span = |tr: &mut Tracer, kind| tr.begin(kind, Some(root), request);

        let s = span(tr, Kind::Encode);
        let x = encode_features_into(graph, &[], &mut ctx.nn);
        tr.end(s);

        let s = span(tr, Kind::Unet);
        let probs = self.selector.net_mut().predict_in(&x, &mut ctx.nn);
        tr.end(s);

        let s = span(tr, Kind::Topk);
        to_graph_order_into(probs.data(), graph, &mut ctx.fsp);
        ctx.nn.free(probs);
        ctx.nn.free(x);
        let mut steiner_points = Vec::new();
        select_top_k_into(
            graph,
            &ctx.fsp,
            steiner_budget(graph.pins().len()),
            &[],
            &mut ctx.scored,
            &mut ctx.excluded,
            &mut steiner_points,
        );
        tr.end(s);

        let s = span(tr, Kind::Build);
        let before = ctx.counters_total();
        let mut tree = self.oarmst.route_in(ctx, graph, &steiner_points)?;
        let pruned = ctx
            .counters_total()
            .delta_since(&before)
            .get(Counter::SteinerPruned);
        tr.end(s);

        let s = span(tr, Kind::Safeguard);
        let plain = self.oarmst.route_in(ctx, graph, &[])?;
        let safeguard_won = plain.cost() < tree.cost();
        if safeguard_won {
            ctx.recycle_tree(std::mem::replace(&mut tree, plain));
        } else {
            ctx.recycle_tree(plain);
        }
        tr.end(s);

        let mut out = LayerStats {
            proposed: steiner_points.len() as u64,
            pruned,
            safeguard_won,
            polish_rounds: 0,
            polish_improved: 0,
            rebuilds: 0,
            rebuilds_kept: 0,
        };
        let refine = span(tr, Kind::Refine);
        for round in 0..4 {
            let mut terminals: Vec<GridPoint> = graph.pins().to_vec();
            terminals.extend(tree.steiner_vertices(graph, graph.pins()));
            for _ in 0..8 {
                let s = tr.begin(Kind::Polish, Some(refine), request);
                let (polished, improved) = retrace::polish_round_in(ctx, graph, tree, &terminals)?;
                tr.end(s);
                tree = polished;
                out.polish_rounds += 1;
                out.polish_improved += u64::from(improved);
                if !improved {
                    break;
                }
            }
            let mut promoted = tree.steiner_vertices(graph, graph.pins());
            promoted.extend_from_slice(&steiner_points);
            let s = tr.begin(Kind::Rebuild, Some(refine), request);
            let rebuilt = self
                .oarmst
                .clone()
                .with_start(round)
                .route_in(ctx, graph, &promoted)?;
            tr.end(s);
            out.rebuilds += 1;
            if rebuilt.cost() + 1e-9 < tree.cost() {
                out.rebuilds_kept += 1;
                ctx.recycle_tree(std::mem::replace(&mut tree, rebuilt));
            } else {
                ctx.recycle_tree(rebuilt);
                break;
            }
        }
        tr.end(refine);
        tr.end(root);
        Ok((tree, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.spans = vec![
            Span {
                kind: Kind::Route,
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
            },
            Span {
                kind: Kind::Refine,
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                request: 0,
            },
            Span {
                kind: Kind::Polish,
                start_ns: 20,
                end_ns: 50,
                parent: Some(1),
                request: 0,
            },
        ];
        let s = tr.self_ns(0);
        assert_eq!(s[Kind::Route as usize], 50);
        assert_eq!(s[Kind::Refine as usize], 20);
        assert_eq!(s[Kind::Polish as usize], 30);
        assert!(tr.chrome_json().contains("\"name\":\"router.polish\""));
    }
}
