//! `oarsmt_bench dijkstra`: the router-core queue-policy micro-bench —
//! binary heap (oracle) vs Dial bucket queue vs A* on the Table 1 ladder
//! rungs. The Dial lane runs `QueuePolicy::Auto`, which takes the bucket
//! queue on every ladder layout (their integer cost ceilings are far below
//! `DIAL_MAX_EDGE_COST`); its labels and JSON keys keep the `dial` name.
//!
//! Every rung routes the same deterministic layout sequence through one
//! [`OarmstRouter`] per [`QueuePolicy`], timing the full OARMST
//! construction (Prim + prune + polish) whose wall-clock is dominated by
//! the maze queries. All three lanes run inside the *same* process on the
//! same layouts, so heap-vs-dial is an honest like-for-like comparison
//! (unlike cross-artifact speedups, which also pick up unrelated drift).
//!
//! Checked invariants (DESIGN.md §12):
//!
//! * heap and Dial per-rung cost checksums must match **bit-identically**
//!   (fatal on mismatch), and their pops/relaxations/pushes op counters
//!   must be exactly equal;
//! * A* checksums are recorded separately — its equal-cost tie geometry
//!   may legally diverge (§12.4) — but its settled-pop count must not
//!   exceed the oracle's on any rung (the lower bound can only prune).
//!   Its Prim builds run the oracle's resumable frontier (§12.5); only
//!   the single-target polish reroutes use A*.
//!
//! Emits a `BENCH_dijkstra.json` artifact with per-rung wall-clock,
//! speedups, op-count deltas, and an embedded telemetry snapshot.
//!
//! Usage: `oarsmt_bench dijkstra [--quick] [--out PATH] [--trace FILE]`
//!
//! `--trace FILE` flight-records the Dial lane (each rung as a
//! `bench_rung` span over the router's prepare/dijkstra/retrace phases)
//! and exports Chrome `trace_event` JSON.

use std::time::Instant;

use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_router::{OarmstRouter, QueuePolicy, RouteContext};
use oarsmt_telemetry::{Counter, CounterSet, Span, SpanRecorder};

use crate::artifact::{int, num, text};
use crate::runner::{Lane, Output, Run};
use crate::Table;

const SEED: u64 = 0xD1A17;

/// The `dijkstra` lane.
pub const LANE: Lane = Lane {
    name: "dijkstra",
    producer: "dijkstra_bench",
    seed: SEED,
    flags: &["--quick", "--out", "--trace"],
    run: run_lane,
};

struct LaneResult {
    routes: usize,
    secs: f64,
    checksum: f64,
    /// Counter delta of this lane's routing work.
    counters: CounterSet,
}

/// Routes the rung's deterministic layout sequence under one policy.
/// Layouts any policy cannot connect are skipped by seed (reachability is
/// policy-independent, so every lane skips the same ones).
fn run_policy(
    spec: &TestSubsetSpec,
    policy: QueuePolicy,
    layouts_per_rung: usize,
    repeats: usize,
    mut trace: Option<&mut SpanRecorder>,
) -> LaneResult {
    let router = OarmstRouter::new().with_queue_policy(policy);
    let mut ctx = RouteContext::new();
    if let Some(rec) = trace.as_deref_mut() {
        std::mem::swap(&mut ctx.nn.spans, rec);
    }
    let rung = ctx.nn.spans.begin(Span::BenchRung, ctx.nn.spans.now());
    let mut gen = spec.generator(SEED);
    let before = ctx.counters_total();
    let mut routes = 0usize;
    let mut layouts = 0usize;
    let mut checksum = 0.0f64;
    let mut secs = 0.0f64;
    while layouts < layouts_per_rung {
        let graph = gen.generate();
        let t0 = Instant::now();
        let mut ok = true;
        for _ in 0..repeats {
            match router.route_cost_in(&mut ctx, &graph, &[]) {
                Ok(cost) => {
                    checksum += cost;
                    routes += 1;
                }
                Err(_) => {
                    ok = false; // disconnected layout: draw another
                    break;
                }
            }
        }
        if ok {
            secs += t0.elapsed().as_secs_f64();
            layouts += 1;
        }
    }
    ctx.nn.spans.end(rung, ctx.nn.spans.now());
    if let Some(rec) = trace {
        std::mem::swap(&mut ctx.nn.spans, rec);
    }
    LaneResult {
        routes,
        secs,
        checksum,
        counters: ctx.counters_total().delta_since(&before),
    }
}

fn run_lane(run: &mut Run) -> Output {
    let rungs = run.ladder(TestSubsetSpec::ladder());
    let layouts_per_rung = if run.quick { 2 } else { 4 };
    let repeats = run.repeats();

    let mut table = Table::new([
        "subset",
        "routes",
        "heap r/s",
        "dial r/s",
        "astar r/s",
        "dial speedup",
        "astar pop save",
    ]);
    let mut out = Output::default();
    let mut tot = (0usize, 0.0f64, 0.0f64, 0.0f64); // routes, heap, dial, astar secs
    for spec in &rungs {
        let heap = run_policy(spec, QueuePolicy::Heap, layouts_per_rung, repeats, None);
        let dial = run_policy(
            spec,
            QueuePolicy::Auto,
            layouts_per_rung,
            repeats,
            run.trace(),
        );
        let astar = run_policy(spec, QueuePolicy::AStar, layouts_per_rung, repeats, None);

        // §12.3: Dial is the heap, bit for bit — results and op counts.
        assert_eq!(
            heap.checksum.to_bits(),
            dial.checksum.to_bits(),
            "{}: Dial diverged from the heap oracle",
            spec.name
        );
        assert_eq!(heap.routes, dial.routes);
        assert!(
            dial.counters.get(Counter::DijkstraBucketScans) > 0,
            "{}: Auto did not take the Dial queue",
            spec.name
        );
        for c in [
            Counter::DijkstraPops,
            Counter::DijkstraRelaxations,
            Counter::DijkstraPushes,
        ] {
            assert_eq!(
                heap.counters.get(c),
                dial.counters.get(c),
                "{}: {c:?} op count diverged between heap and Dial",
                spec.name
            );
        }
        // §12.4: A* may retie, but the lower bound can only prune pops.
        assert_eq!(heap.routes, astar.routes);
        assert!(
            astar.counters.get(Counter::DijkstraPops) <= heap.counters.get(Counter::DijkstraPops),
            "{}: A* popped more than the oracle",
            spec.name
        );

        let pop_save = 1.0
            - astar.counters.get(Counter::DijkstraPops) as f64
                / heap.counters.get(Counter::DijkstraPops).max(1) as f64;
        table.row([
            spec.name.to_string(),
            heap.routes.to_string(),
            format!("{:.1}", heap.routes as f64 / heap.secs),
            format!("{:.1}", dial.routes as f64 / dial.secs),
            format!("{:.1}", astar.routes as f64 / astar.secs),
            format!("{:.2}x", heap.secs / dial.secs),
            format!("{:.1}%", 100.0 * pop_save),
        ]);
        out.rungs.push(vec![
            text("name", spec.name),
            int("routes", heap.routes),
            num("heap_secs", heap.secs, 6),
            num("dial_secs", dial.secs, 6),
            num("astar_secs", astar.secs, 6),
            num("dial_speedup", heap.secs / dial.secs, 3),
            int("dijkstra_pops", dial.counters.get(Counter::DijkstraPops)),
            int(
                "dijkstra_relaxations",
                dial.counters.get(Counter::DijkstraRelaxations),
            ),
            int(
                "dijkstra_pushes",
                dial.counters.get(Counter::DijkstraPushes),
            ),
            int(
                "dijkstra_bucket_scans",
                dial.counters.get(Counter::DijkstraBucketScans),
            ),
            int("astar_pops", astar.counters.get(Counter::DijkstraPops)),
            num("checksum", heap.checksum, 6),
            num("astar_checksum", astar.checksum, 6),
        ]);
        tot.0 += heap.routes;
        tot.1 += heap.secs;
        tot.2 += dial.secs;
        tot.3 += astar.secs;
        out.counters.merge_from(&dial.counters);
        run.progress(&format!("{} done", spec.name));
    }

    out.title = format!("dijkstra queue-policy bench ({} mode)", run.mode());
    out.tables.push(table);
    out.notes.push(format!(
        "total: {} routes; heap {:.3}s, dial {:.3}s ({:.2}x), astar {:.3}s ({:.2}x)",
        tot.0,
        tot.1,
        tot.2,
        tot.1 / tot.2,
        tot.3,
        tot.1 / tot.3,
    ));
    out.totals = vec![
        int("total_routes", tot.0),
        num("heap_secs", tot.1, 6),
        num("dial_secs", tot.2, 6),
        num("dial_speedup", tot.1 / tot.2, 3),
        num("astar_secs", tot.3, 6),
    ];
    out
}
