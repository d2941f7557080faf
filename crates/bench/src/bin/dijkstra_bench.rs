//! `dijkstra_bench`: the router-core queue-policy micro-bench — binary
//! heap (oracle) vs Dial bucket queue vs A* on the Table 1 ladder rungs.
//! The Dial lane runs `QueuePolicy::Auto`, which takes the bucket queue on
//! every ladder layout (their integer cost ceilings are far below
//! `DIAL_MAX_EDGE_COST`); its labels and JSON keys keep the `dial` name.
//!
//! Every rung routes the same deterministic layout sequence through one
//! [`OarmstRouter`] per [`QueuePolicy`], timing the full OARMST
//! construction (Prim + prune + polish) whose wall-clock is dominated by
//! the maze queries. All three lanes run inside the *same* binary on the
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
//! Usage: `dijkstra_bench [--quick] [--out PATH] [--trace FILE]`
//!
//! `--trace FILE` flight-records the Dial lane (each rung as a
//! `bench_rung` span over the router's prepare/dijkstra/retrace phases)
//! and exports Chrome `trace_event` JSON.

#![forbid(unsafe_code)]

use std::time::Instant;

use oarsmt_bench::Table;
use oarsmt_geom::gen::TestSubsetSpec;
use oarsmt_router::{OarmstRouter, QueuePolicy, RouteContext};
use oarsmt_telemetry::{
    Counter, CounterSet, Manifest, Span, SpanSet, TelemetrySnapshot, TraceRecorder, TIMING_ENABLED,
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
fn run_lane(
    spec: &TestSubsetSpec,
    policy: QueuePolicy,
    layouts_per_rung: usize,
    repeats: usize,
    mut trace: Option<&mut TraceRecorder>,
) -> LaneResult {
    let router = OarmstRouter::new().with_queue_policy(policy);
    let mut ctx = RouteContext::new();
    if let Some(rec) = trace.as_deref_mut() {
        std::mem::swap(&mut ctx.trace, rec);
    }
    ctx.trace.begin(Span::BenchRung);
    let mut gen = spec.generator(0xD1A17);
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
    ctx.trace.end(Span::BenchRung);
    if let Some(rec) = trace {
        std::mem::swap(&mut ctx.trace, rec);
    }
    LaneResult {
        routes,
        secs,
        checksum,
        counters: ctx.counters_total().delta_since(&before),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "crates/bench/artifacts/BENCH_dijkstra.json".to_string());
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned());
    let mut rec = TraceRecorder::new();
    if trace_path.is_some() {
        rec.enable(1 << 16);
    }

    let ladder = TestSubsetSpec::ladder();
    let rungs: Vec<TestSubsetSpec> = if quick {
        ladder.into_iter().take(3).collect()
    } else {
        ladder
    };
    let layouts_per_rung = if quick { 2 } else { 4 };
    let repeats = if quick { 1 } else { 3 };

    let mut table = Table::new([
        "subset",
        "routes",
        "heap r/s",
        "dial r/s",
        "astar r/s",
        "dial speedup",
        "astar pop save",
    ]);
    let mut rows = Vec::new();
    let mut counters_tot = CounterSet::new();
    let mut tot = (0usize, 0.0f64, 0.0f64, 0.0f64); // routes, heap, dial, astar secs
    for spec in &rungs {
        let heap = run_lane(spec, QueuePolicy::Heap, layouts_per_rung, repeats, None);
        let dial = run_lane(
            spec,
            QueuePolicy::Auto,
            layouts_per_rung,
            repeats,
            if trace_path.is_some() {
                Some(&mut rec)
            } else {
                None
            },
        );
        let astar = run_lane(spec, QueuePolicy::AStar, layouts_per_rung, repeats, None);

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
        tot.0 += heap.routes;
        tot.1 += heap.secs;
        tot.2 += dial.secs;
        tot.3 += astar.secs;
        counters_tot.merge_from(&dial.counters);
        rows.push((spec.name, heap, dial, astar));
        eprintln!("[dijkstra_bench] {} done", spec.name);
    }

    if let Some(path) = &trace_path {
        let events = rec.events_in_order();
        std::fs::write(
            path,
            oarsmt_telemetry::tracing::to_chrome_json(&events, rec.dropped()),
        )
        .expect("write trace");
        eprintln!(
            "[dijkstra_bench] trace ({} events, {} dropped) -> {path}",
            events.len(),
            rec.dropped()
        );
    }

    println!(
        "dijkstra queue-policy bench ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    table.print();
    println!(
        "\ntotal: {} routes; heap {:.3}s, dial {:.3}s ({:.2}x), astar {:.3}s ({:.2}x)",
        tot.0,
        tot.1,
        tot.2,
        tot.1 / tot.2,
        tot.3,
        tot.1 / tot.3,
    );

    let mut json = String::from("{\n  \"rungs\": [\n");
    for (i, (name, heap, dial, astar)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"routes\": {}, \"heap_secs\": {:.6}, \"dial_secs\": {:.6}, \"astar_secs\": {:.6}, \"dial_speedup\": {:.3}, \"dijkstra_pops\": {}, \"dijkstra_relaxations\": {}, \"dijkstra_pushes\": {}, \"dijkstra_bucket_scans\": {}, \"astar_pops\": {}, \"checksum\": {:.6}, \"astar_checksum\": {:.6}}}{}\n",
            name,
            heap.routes,
            heap.secs,
            dial.secs,
            astar.secs,
            heap.secs / dial.secs,
            dial.counters.get(Counter::DijkstraPops),
            dial.counters.get(Counter::DijkstraRelaxations),
            dial.counters.get(Counter::DijkstraPushes),
            dial.counters.get(Counter::DijkstraBucketScans),
            astar.counters.get(Counter::DijkstraPops),
            heap.checksum,
            astar.checksum,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let snapshot = TelemetrySnapshot {
        manifest: Manifest {
            run: "dijkstra_bench".to_string(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            threads: 1,
            seed: 0xD1A17,
            timing: TIMING_ENABLED,
        },
        counters: counters_tot,
        spans: SpanSet::new(),
    };
    json.push_str(&format!(
        "  ],\n  \"total_routes\": {},\n  \"heap_secs\": {:.6},\n  \"dial_secs\": {:.6},\n  \"dial_speedup\": {:.3},\n  \"astar_secs\": {:.6},\n  \"telemetry\": [\n",
        tot.0,
        tot.1,
        tot.2,
        tot.1 / tot.2,
        tot.3,
    ));
    let telemetry_lines: Vec<String> = snapshot
        .to_jsonl()
        .lines()
        .map(|l| format!("    {l}"))
        .collect();
    json.push_str(&telemetry_lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, json).expect("write artifact");
    println!("artifact: {out_path}");
}
