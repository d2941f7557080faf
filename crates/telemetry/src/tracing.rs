//! Tier B: the one span recorder — log2 histograms plus a bounded ring of
//! begin/end events, fed by one [`SpanRecorder::begin`] /
//! [`SpanRecorder::end`] pair.
//!
//! Every `end` records one duration into the span's
//! [`SpanHist`](crate::SpanHist). When the recorder is *armed*, `begin`
//! and `end` also write one [`TraceEvent`] each into a preallocated ring,
//! stamped with the very timestamps that duration was computed from. So
//! the two views cannot disagree: while nothing was overwritten,
//! [`summarize`] over the ring reproduces the histograms' counts and
//! totals exactly. What the ring adds is order: [`summarize`] splits each
//! span's total into self vs child time.
//!
//! Timestamps are nanoseconds since the recorder was created. Live callers
//! pass [`SpanRecorder::now`], the Tier B clock read (zero without the
//! `telemetry-timing` feature; the event sequence and counts still
//! record). Externally measured durations — a harness job timed on another
//! thread, a trainer stage — go through the same pair with explicit
//! timestamps. [`SpanRecorder::arm`] is the one allocating call; the
//! record path is alloc-free and panic-free (registered in `lint.toml`,
//! measured by the alloc-count sanitizer). When the ring fills, the oldest
//! events are overwritten and counted in [`SpanRecorder::dropped`]: a
//! flight recorder keeps the most recent window, never stalls the hot
//! loop.
//!
//! [`to_chrome_json`] exports an event list as Chrome `trace_event` JSON
//! (load in `chrome://tracing` or Perfetto). The export re-balances the
//! stream — orphan `E` events whose `B` was overwritten are skipped, spans
//! still open at the end are closed at the last timestamp — so the output
//! is always well-formed; [`verify_chrome`] checks exactly that property
//! and backs the `oarsmt trace --verify` CI smoke.

use crate::timing::{Span, SpanSet, SpanStart, SPAN_NAMES};

/// Whether a [`TraceEvent`] opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// Span opens (`ph: "B"`).
    #[default]
    Begin,
    /// Span closes (`ph: "E"`).
    End,
}

/// One recorded begin/end event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// The span this event opens or closes.
    pub span: Span,
    /// Begin or end.
    pub kind: TraceKind,
    /// Nanoseconds since the recorder was created (zero without the
    /// `telemetry-timing` feature, or as injected by the caller).
    pub ts_ns: u64,
}

/// An open span: what [`SpanRecorder::begin`] hands out and
/// [`SpanRecorder::end`] consumes (once: a mark is not `Copy`).
#[derive(Debug)]
#[must_use = "a span is recorded only when its mark is passed to `end`"]
pub struct SpanMark {
    span: Span,
    ts_ns: u64,
}

/// The span recorder: per-span histograms, always fed, and a bounded event
/// ring, fed while armed. `Default` is an unarmed recorder whose ring
/// writes are branch-and-skip — cheap enough to embed in every
/// `NnWorkspace` (and through it every `RouteContext`).
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    hists: SpanSet,
    ring: Vec<TraceEvent>,
    /// Next write slot.
    next: usize,
    /// Whether the ring has wrapped at least once.
    wrapped: bool,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Latest timestamp written to the ring.
    latest_ns: u64,
    armed: bool,
    /// Timestamp origin, marked at creation.
    origin: SpanStart,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// An unarmed recorder with empty histograms.
    #[must_use]
    pub fn new() -> Self {
        SpanRecorder {
            hists: SpanSet::new(),
            ring: Vec::new(),
            next: 0,
            wrapped: false,
            dropped: 0,
            latest_ns: 0,
            armed: false,
            origin: SpanStart::now(),
        }
    }

    /// Starts a fresh recording window: allocates a ring of `capacity`
    /// events and clears the histograms, so both views restart empty
    /// together. This is the *one* allocating call of the recorder; a zero
    /// capacity leaves it unarmed. Spans still open across this call are
    /// not in the ring (their ends are orphans the exporter skips).
    pub fn arm(&mut self, capacity: usize) {
        self.ring.clear();
        self.ring.resize(capacity, TraceEvent::default());
        self.next = 0;
        self.wrapped = false;
        self.dropped = 0;
        self.latest_ns = 0;
        self.hists = SpanSet::new();
        self.armed = capacity > 0;
    }

    /// Nanoseconds since the recorder was created: the timestamp live
    /// callers pass to [`SpanRecorder::begin`] / [`SpanRecorder::end`].
    /// This is the Tier B clock read; zero without `telemetry-timing`.
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    /// Opens `span` at `ts_ns`, writing a begin event when armed.
    #[inline]
    pub fn begin(&mut self, span: Span, ts_ns: u64) -> SpanMark {
        if self.armed {
            self.push(TraceEvent {
                span,
                kind: TraceKind::Begin,
                ts_ns,
            });
        }
        SpanMark { span, ts_ns }
    }

    /// Closes `mark` at `ts_ns`: records `ts_ns` minus the begin timestamp
    /// into the span's histogram and, when armed, writes the end event.
    #[inline]
    pub fn end(&mut self, mark: SpanMark, ts_ns: u64) {
        if let Some(h) = self.hists.hists.get_mut(mark.span as usize) {
            h.record_ns(ts_ns.saturating_sub(mark.ts_ns));
        }
        if self.armed {
            self.push(TraceEvent {
                span: mark.span,
                kind: TraceKind::End,
                ts_ns,
            });
        }
    }

    /// Writes one event at the cursor. Alloc-free: the ring was sized by
    /// [`SpanRecorder::arm`] and is never grown here.
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        if self.wrapped {
            self.dropped += 1;
        }
        self.latest_ns = self.latest_ns.max(event.ts_ns);
        let next = self.next;
        if let Some(slot) = self.ring.get_mut(next) {
            *slot = event;
        }
        self.next = next + 1;
        if self.next >= self.ring.len() {
            self.next = 0;
            self.wrapped = true;
        }
    }

    /// The per-span histograms.
    #[must_use]
    pub fn hists(&self) -> &SpanSet {
        &self.hists
    }

    /// Number of events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        if self.wrapped {
            self.ring.len()
        } else {
            self.next
        }
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten after the ring filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The latest timestamp written to the ring since it was armed (zero
    /// when unarmed). Injected spans can run ahead of the live clock (a
    /// pool's per-job times laid end to end sum past the wall time); a
    /// caller that opens a span at `now().max(latest_ns())` keeps the
    /// ring's timeline from going backwards.
    #[must_use]
    pub fn latest_ns(&self) -> u64 {
        self.latest_ns
    }

    /// The held events, oldest first (unwraps the ring).
    #[must_use]
    pub fn events_in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        if self.wrapped {
            out.extend_from_slice(&self.ring[self.next..]);
            out.extend_from_slice(&self.ring[..self.next]);
        } else {
            out.extend_from_slice(&self.ring[..self.next]);
        }
        out
    }
}

/// Per-span aggregate over one event stream: call count, inclusive total,
/// and self time (total minus the time spent in nested child spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    /// The span.
    pub span: Span,
    /// Completed begin/end pairs.
    pub count: u64,
    /// Inclusive nanoseconds (children included).
    pub total_ns: u64,
    /// Exclusive nanoseconds (children subtracted).
    pub self_ns: u64,
}

/// Aggregates an ordered event stream into per-span totals with parent
/// attribution, in [`Span`] registry order. Orphan ends (begin lost to the
/// ring) and unclosed begins are skipped — only completed pairs count.
#[must_use]
pub fn summarize(events: &[TraceEvent]) -> Vec<SpanAgg> {
    use crate::timing::{ALL_SPANS, NUM_SPANS};
    let mut count = [0u64; NUM_SPANS];
    let mut total = [0u64; NUM_SPANS];
    let mut own = [0u64; NUM_SPANS];
    // Open-span stack: (span, begin ts, child time accumulated so far).
    let mut stack: Vec<(Span, u64, u64)> = Vec::new();
    for ev in events {
        match ev.kind {
            TraceKind::Begin => stack.push((ev.span, ev.ts_ns, 0)),
            TraceKind::End => {
                let Some(&(span, t0, child_ns)) = stack.last() else {
                    continue; // orphan end: begin overwritten
                };
                if span != ev.span {
                    continue; // mismatched nesting across a ring truncation
                }
                stack.pop();
                let dur = ev.ts_ns.saturating_sub(t0);
                let i = span as usize;
                count[i] += 1;
                total[i] = total[i].saturating_add(dur);
                own[i] = own[i].saturating_add(dur.saturating_sub(child_ns));
                if let Some(parent) = stack.last_mut() {
                    parent.2 = parent.2.saturating_add(dur);
                }
            }
        }
    }
    ALL_SPANS
        .iter()
        .filter(|&&s| count[s as usize] > 0)
        .map(|&s| SpanAgg {
            span: s,
            count: count[s as usize],
            total_ns: total[s as usize],
            self_ns: own[s as usize],
        })
        .collect()
}

/// Renders a [`summarize`] result as an aligned self-vs-total table.
#[must_use]
pub fn render_summary(aggs: &[SpanAgg]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>10} {:>14} {:>14}\n",
        "span", "count", "total ms", "self ms"
    ));
    for a in aggs {
        out.push_str(&format!(
            "{:<16} {:>10} {:>14.3} {:>14.3}\n",
            SPAN_NAMES[a.span as usize],
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
        ));
    }
    out
}

/// Serializes an ordered event stream as Chrome `trace_event` JSON, one
/// event object per line. The output is always balanced: ends without a
/// live begin are dropped, and spans still open after the last event are
/// closed at its timestamp. `dropped` is surfaced under `otherData`.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut stack: Vec<Span> = Vec::new();
    let mut last_ts = 0u64;
    let emit = |span: Span, ph: char, ts_ns: u64| {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"oarsmt\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":0,\"tid\":0}}",
            SPAN_NAMES[span as usize],
            ph,
            ts_ns as f64 / 1e3
        )
    };
    for ev in events {
        last_ts = last_ts.max(ev.ts_ns);
        match ev.kind {
            TraceKind::Begin => {
                stack.push(ev.span);
                lines.push(emit(ev.span, 'B', ev.ts_ns));
            }
            TraceKind::End => {
                if stack.last() == Some(&ev.span) {
                    stack.pop();
                    lines.push(emit(ev.span, 'E', ev.ts_ns));
                }
                // else: orphan end (begin overwritten) — skip.
            }
        }
    }
    while let Some(span) = stack.pop() {
        lines.push(emit(span, 'E', last_ts));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}\n"
    ));
    out
}

/// Verification result of [`verify_chrome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total `B`/`E` events seen.
    pub events: usize,
    /// Maximum nesting depth reached.
    pub max_depth: usize,
}

/// Checks that `src` is a [`to_chrome_json`]-shaped export with strictly
/// balanced begin/end events: every `E` closes the innermost open `B` of
/// the same name and nothing stays open. This is the `oarsmt trace
/// --verify` backend and the CI trace-export smoke.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn verify_chrome(src: &str) -> Result<TraceCheck, String> {
    if !src.trim_start().starts_with("{\"traceEvents\":[") {
        return Err("not a trace export: missing `traceEvents` header".to_string());
    }
    if !src.trim_end().ends_with('}') {
        return Err("truncated trace export: missing closing brace".to_string());
    }
    let mut stack: Vec<String> = Vec::new();
    let mut events = 0usize;
    let mut max_depth = 0usize;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        let Some(ph) = crate::snapshot::json_str(line, "ph") else {
            continue;
        };
        let lineno = i + 1;
        let name = crate::snapshot::json_str(line, "name")
            .ok_or_else(|| format!("line {lineno}: event without a `name`"))?;
        if !line.contains("\"ts\":") {
            return Err(format!("line {lineno}: event without a `ts`"));
        }
        events += 1;
        match ph.as_str() {
            "B" => {
                stack.push(name);
                max_depth = max_depth.max(stack.len());
            }
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "line {lineno}: `E` for `{name}` while `{open}` is innermost"
                    ));
                }
                None => return Err(format!("line {lineno}: `E` for `{name}` with no open span")),
            },
            other => return Err(format!("line {lineno}: unknown phase `{other}`")),
        }
    }
    if let Some(open) = stack.last() {
        return Err(format!("span `{open}` never closed"));
    }
    Ok(TraceCheck { events, max_depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::ALL_SPANS;

    /// Records `span` over `[t0, t1]` with injected timestamps.
    fn at(r: &mut SpanRecorder, span: Span, t0: u64, t1: u64) {
        let m = r.begin(span, t0);
        r.end(m, t1);
    }

    /// The agreement contract: while nothing was dropped, the ring's
    /// summary equals the histograms span by span.
    fn assert_views_agree(r: &SpanRecorder) {
        assert_eq!(r.dropped(), 0);
        let aggs = summarize(&r.events_in_order());
        for s in ALL_SPANS {
            let h = r.hists().get(s);
            let (count, total) = aggs
                .iter()
                .find(|a| a.span == s)
                .map_or((0, 0), |a| (a.count, a.total_ns));
            assert_eq!((count, total), (h.count, h.total_ns), "{s:?}");
        }
    }

    #[test]
    fn unarmed_recorder_feeds_only_the_histograms() {
        let mut r = SpanRecorder::new();
        at(&mut r, Span::RoutePrepare, 10, 30);
        assert!(r.is_empty());
        assert_eq!(r.hists().get(Span::RoutePrepare).count, 1);
        assert_eq!(r.hists().get(Span::RoutePrepare).total_ns, 20);
        // Zero capacity keeps it unarmed; arming clears both views.
        r.arm(0);
        at(&mut r, Span::RoutePrepare, 10, 30);
        assert!(r.is_empty());
        assert_eq!(r.hists().get(Span::RoutePrepare).count, 1);
    }

    #[test]
    fn ring_keeps_the_newest_window() {
        let mut r = SpanRecorder::new();
        r.arm(4);
        for k in 0..6u64 {
            at(&mut r, Span::RouteDijkstra, k * 10, k * 10 + 5);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 8);
        let evs = r.events_in_order();
        assert_eq!(evs.len(), 4);
        // Oldest-first and strictly the last two pairs.
        assert_eq!(evs[0].ts_ns, 40);
        assert_eq!(evs[3].ts_ns, 55);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The histogram saw every pair, wrapped or not.
        assert_eq!(r.hists().get(Span::RouteDijkstra).count, 6);
    }

    #[test]
    fn summarize_attributes_self_vs_child_time() {
        let mut r = SpanRecorder::new();
        r.arm(16);
        let outer = r.begin(Span::CriticRoute, 0);
        at(&mut r, Span::RouteDijkstra, 20, 50);
        at(&mut r, Span::RouteRetrace, 60, 90);
        r.end(outer, 100);
        let aggs = summarize(&r.events_in_order());
        let get = |s: Span| *aggs.iter().find(|a| a.span == s).unwrap();
        assert_eq!(get(Span::CriticRoute).total_ns, 100);
        assert_eq!(get(Span::CriticRoute).self_ns, 40); // 100 - 30 - 30
        assert_eq!(get(Span::RouteDijkstra).total_ns, 30);
        assert_eq!(get(Span::RouteDijkstra).self_ns, 30);
        assert_eq!(get(Span::RouteRetrace).count, 1);
    }

    #[test]
    fn ring_summary_equals_the_histograms() {
        // Nested live spans: the timestamps are the clock's (all zero
        // without `telemetry-timing`), and the two views still agree.
        let mut r = SpanRecorder::new();
        r.arm(256);
        for _ in 0..3 {
            let rung = r.begin(Span::BenchRung, r.now());
            for _ in 0..4 {
                let d = r.begin(Span::RouteDijkstra, r.now());
                let c = r.begin(Span::NnConvFwd, r.now());
                r.end(c, r.now());
                r.end(d, r.now());
            }
            r.end(rung, r.now());
        }
        assert_views_agree(&r);
        assert_eq!(r.hists().get(Span::RouteDijkstra).count, 12);
        // Live timestamps come from one monotonic clock: they never
        // decrease, and the rung > dijkstra > conv nest exports 3 deep.
        let live = r.events_in_order();
        assert_eq!(live.len(), 2 * (3 + 12 + 12));
        assert!(live.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let check = verify_chrome(&to_chrome_json(&live, r.dropped())).unwrap();
        assert_eq!(check.max_depth, 3);
        assert_eq!(r.latest_ns(), live.last().unwrap().ts_ns);

        // Injected spans, interleaved with live ones on the same ring.
        let t = r.now();
        let stage = r.begin(Span::TrainStage, t);
        at(&mut r, Span::TrainGen, t, t + 700);
        let fit = r.begin(Span::TrainFit, t + 700);
        let c = r.begin(Span::NnConvBwd, r.now());
        r.end(c, r.now());
        r.end(fit, t + 1_000);
        r.end(stage, t + 1_000);
        assert_views_agree(&r);
        assert_eq!(r.hists().get(Span::TrainGen).total_ns, 700);
        assert_eq!(r.hists().get(Span::TrainStage).total_ns, 1_000);
        let js = to_chrome_json(&r.events_in_order(), r.dropped());
        assert_eq!(verify_chrome(&js).unwrap().events, r.len());
    }

    #[test]
    fn chrome_export_is_balanced_even_when_truncated() {
        let mut r = SpanRecorder::new();
        r.arm(4);
        // 3 nested pairs = 6 events through a 4-slot ring: the outer
        // begins are overwritten, leaving orphan ends.
        let a = r.begin(Span::CriticRoute, 0);
        let b = r.begin(Span::RouteDijkstra, 10);
        at(&mut r, Span::RouteRetrace, 20, 30);
        r.end(b, 40);
        r.end(a, 50);
        assert_eq!(r.dropped(), 2);
        let js = to_chrome_json(&r.events_in_order(), r.dropped());
        let check = verify_chrome(&js).expect("truncated export must still balance");
        assert_eq!(check.events, 2); // only the innermost pair survives whole
        assert!(js.contains("\"dropped_events\":2"));
        // The histograms still hold all three spans.
        assert_eq!(r.hists().get(Span::CriticRoute).total_ns, 50);
    }

    #[test]
    fn chrome_export_closes_open_spans() {
        let mut r = SpanRecorder::new();
        r.arm(8);
        let _rung = r.begin(Span::BenchRung, 0);
        let _select = r.begin(Span::CriticSelect, 10);
        // never ended
        let js = to_chrome_json(&r.events_in_order(), 0);
        let check = verify_chrome(&js).unwrap();
        assert_eq!(check.events, 4);
        assert_eq!(check.max_depth, 2);
    }

    #[test]
    fn verify_rejects_imbalance() {
        let bad = "{\"traceEvents\":[\n\
                   {\"name\":\"critic_route\",\"cat\":\"oarsmt\",\"ph\":\"B\",\"ts\":0.000,\"pid\":0,\"tid\":0}\n\
                   ],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":0}}\n";
        assert!(verify_chrome(bad).unwrap_err().contains("never closed"));
        let crossed = "{\"traceEvents\":[\n\
                       {\"name\":\"a\",\"ph\":\"B\",\"ts\":0},\n\
                       {\"name\":\"b\",\"ph\":\"B\",\"ts\":1},\n\
                       {\"name\":\"a\",\"ph\":\"E\",\"ts\":2},\n\
                       {\"name\":\"b\",\"ph\":\"E\",\"ts\":3}\n\
                       ],\"otherData\":{}}";
        assert!(verify_chrome(crossed).unwrap_err().contains("innermost"));
        assert!(verify_chrome("nonsense").is_err());
    }
}
