//! Two-tier telemetry for the OARSMT router/MCTS/NN stack.
//!
//! The repo's headline numbers are throughput and cost; this crate exists so
//! a slow rung can be *explained* (Dijkstra pops? GEMM panel fallbacks? MCTS
//! re-expansions?) without compromising the determinism and zero-allocation
//! invariants that `oarsmt-lint` enforces. Two strictly separated tiers:
//!
//! * **Tier A — deterministic counters** ([`counters`]): a statically
//!   registered [`Counter`] enum backed by a plain `u64` array
//!   ([`CounterSet`]) embedded in the hot-path workspaces (`RouteContext`,
//!   `SearchBuffers`, `NnWorkspace`, `DijkstraWorkspace`). Increments are
//!   branch-free array adds — always on, alloc-free, no clock reads — and
//!   `u64` addition is commutative, so per-job counter deltas folded in
//!   index order by `oarsmt::parallel` are **bit-identical for any thread
//!   count**.
//! * **Tier B — span timing** ([`timing`]): scoped wall-clock spans with
//!   fixed log2-nanosecond-bucket histograms ([`SpanSet`]). The clock reads
//!   are compiled in only under the `telemetry-timing` feature and live in
//!   this crate alone, behind `timing-ok` lint markers at the tier
//!   boundary; result-affecting crates record spans through the no-op API
//!   and never observe time.
//!
//! [`snapshot`] bundles a run [`Manifest`], a counter set and a span set
//! into a [`TelemetrySnapshot`] with a line-oriented JSONL wire form that
//! bench artifacts embed; [`report`] renders and diffs snapshots for the
//! `oarsmt report` CLI subcommand.
//!
//! Three observability subsystems build on those tiers:
//!
//! * [`tracing`] — a bounded, pre-allocated ring-buffer flight recorder of
//!   begin/end span events ([`TraceRecorder`]) with parent attribution and
//!   Chrome `trace_event` JSON export (`oarsmt trace`). Recording is
//!   alloc-free; timestamps are real only under `telemetry-timing`.
//! * [`runlog`] — append-only JSONL run-metrics streams
//!   (`runs/<run-id>/metrics.jsonl`): one [`StageStats`] record per
//!   training stage / bench rung, plus counter deltas, rendered and diffed
//!   by `oarsmt report`.
//! * [`check`] — the CI regression gate (`oarsmt report --check`):
//!   deterministic counters must stay bit-identical, wall-clock metrics
//!   within per-metric bands from a `report.toml` [`Policy`].

#![forbid(unsafe_code)]

pub mod check;
pub mod counters;
pub mod report;
pub mod runlog;
pub mod snapshot;
pub mod timing;
pub mod tracing;

pub use check::{CheckReport, MetricPolicy, Policy, Violation};
pub use counters::{Counter, CounterSet, COUNTER_NAMES, NUM_COUNTERS};
pub use runlog::{RunLog, RunLogger, RungRecord, StageRecord, StageStats};
pub use snapshot::{json_escape, Manifest, TelemetrySnapshot};
pub use timing::{Span, SpanHist, SpanSet, SpanStart, NUM_SPANS, SPAN_BUCKETS, SPAN_NAMES};
pub use tracing::{SpanAgg, TraceEvent, TraceKind, TraceRecorder};

/// Whether Tier B actually reads clocks in this build (the
/// `telemetry-timing` feature). When `false`, [`SpanStart::now`] and
/// [`SpanStart::elapsed_ns`] are free no-ops and every recorded duration is
/// zero; counters (Tier A) are unaffected.
pub const TIMING_ENABLED: bool = cfg!(feature = "telemetry-timing");
