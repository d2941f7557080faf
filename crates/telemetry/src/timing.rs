//! Tier B: the span registry, the feature-gated clock, and the log2
//! histograms spans accumulate into.
//!
//! Spans are statically registered in the [`Span`] enum, like Tier A
//! counters, and accumulate into fixed-size [`SpanHist`] log2-nanosecond
//! histograms — no allocation, no dynamic registration. Recording goes
//! through the one recorder, [`SpanRecorder`](crate::tracing::SpanRecorder).
//! The *only* clock reads live in this module, behind
//! `cfg(feature = "telemetry-timing")` and `timing-ok` lint markers: that
//! pair of gates is the tier boundary. Without the feature, the
//! recorder's clock origin is a unit value whose elapsed reading is zero,
//! so result-affecting crates can keep their span calls compiled in
//! without ever observing time.

/// Number of log2 buckets per span histogram. Bucket `i` counts durations
/// with `floor(log2(ns)) == i` (bucket 0 also takes 0 ns), so the top
/// bucket starts at `2^39` ns ≈ 9 minutes.
pub const SPAN_BUCKETS: usize = 40;

/// Every Tier B span. The discriminant is the index into [`SpanSet`] /
/// [`SPAN_NAMES`]. The default is only the blank slot value of the
/// recorder's ring, never observable through its API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(usize)]
pub enum Span {
    /// Harness: the \[14\] baseline router, per layout.
    #[default]
    PhaseBaseline,
    /// Harness: Steiner-point selection (encode + U-Net + top-k).
    PhaseSelect,
    /// Harness: post-selection routing (OARMST + safeguard + refinement).
    PhaseRoute,
    /// Critic bench: selector share of one leaf evaluation.
    CriticSelect,
    /// Critic bench: router share of one leaf evaluation.
    CriticRoute,
    /// Convolution forward (incl. `1×1×1` heads and projections).
    NnConvFwd,
    /// Convolution backward.
    NnConvBwd,
    /// Activation (ReLU/sigmoid) forward.
    NnActFwd,
    /// Activation backward.
    NnActBwd,
    /// Max-pool forward.
    NnPoolFwd,
    /// Max-pool backward.
    NnPoolBwd,
    /// Upsample forward.
    NnUpFwd,
    /// Upsample backward.
    NnUpBwd,
    /// Router: per-query preparation (bind + candidate dedup).
    RoutePrepare,
    /// Router: one multi-source maze (Dijkstra) query of the Prim loop.
    RouteDijkstra,
    /// Router: one path-assessed polish round (retrace).
    RouteRetrace,
    /// Trainer: one full training stage (generation + fit).
    TrainStage,
    /// Trainer: sample-generation share of a stage.
    TrainGen,
    /// Trainer: optimizer-fit share of a stage.
    TrainFit,
    /// Bench harness: one benchmark rung end to end.
    BenchRung,
}

/// Number of [`Span`] variants.
pub const NUM_SPANS: usize = 20;

/// Snake-case wire names, indexed by [`Span`] discriminant.
pub const SPAN_NAMES: [&str; NUM_SPANS] = [
    "phase_baseline",
    "phase_select",
    "phase_route",
    "critic_select",
    "critic_route",
    "nn_conv_fwd",
    "nn_conv_bwd",
    "nn_act_fwd",
    "nn_act_bwd",
    "nn_pool_fwd",
    "nn_pool_bwd",
    "nn_up_fwd",
    "nn_up_bwd",
    "route_prepare",
    "route_dijkstra",
    "route_retrace",
    "train_stage",
    "train_gen",
    "train_fit",
    "bench_rung",
];

/// All spans in discriminant order.
pub const ALL_SPANS: [Span; NUM_SPANS] = [
    Span::PhaseBaseline,
    Span::PhaseSelect,
    Span::PhaseRoute,
    Span::CriticSelect,
    Span::CriticRoute,
    Span::NnConvFwd,
    Span::NnConvBwd,
    Span::NnActFwd,
    Span::NnActBwd,
    Span::NnPoolFwd,
    Span::NnPoolBwd,
    Span::NnUpFwd,
    Span::NnUpBwd,
    Span::RoutePrepare,
    Span::RouteDijkstra,
    Span::RouteRetrace,
    Span::TrainStage,
    Span::TrainGen,
    Span::TrainFit,
    Span::BenchRung,
];

impl Span {
    /// Parses a wire name back to the span.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Span> {
        SPAN_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| ALL_SPANS[i])
    }
}

/// The recorder's clock origin. With `telemetry-timing` this holds the
/// start instant; without it, it is a zero-sized token and every elapsed
/// reading is zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanStart {
    #[cfg(feature = "telemetry-timing")]
    at: std::time::Instant,
}

impl SpanStart {
    /// Marks "now". This is the Tier B clock read; compiled out without
    /// the feature.
    #[inline]
    #[must_use]
    pub(crate) fn now() -> SpanStart {
        SpanStart {
            #[cfg(feature = "telemetry-timing")]
            // lint: timing-ok(Tier B boundary: feature-gated span clock; results never depend on it)
            at: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`SpanStart::now`]; zero when timing is disabled.
    #[inline]
    #[must_use]
    pub(crate) fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "telemetry-timing")]
        {
            // lint: timing-ok(Tier B boundary: feature-gated span clock; results never depend on it)
            u64::try_from(self.at.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "telemetry-timing"))]
        {
            0
        }
    }
}

/// One span's accumulated statistics: call count, total nanoseconds, and a
/// log2 duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHist {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub total_ns: u64,
    /// `buckets[i]` counts durations with `floor(log2(ns)) == i`.
    pub buckets: [u64; SPAN_BUCKETS],
}

impl Default for SpanHist {
    fn default() -> Self {
        SpanHist {
            count: 0,
            total_ns: 0,
            buckets: [0; SPAN_BUCKETS],
        }
    }
}

impl SpanHist {
    /// Records one duration (only the recorder records: see
    /// [`SpanRecorder::end`](crate::tracing::SpanRecorder::end)).
    #[inline]
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        let bucket = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(SPAN_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Mean duration in nanoseconds (zero when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A full set of Tier B span histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSet {
    pub(crate) hists: [SpanHist; NUM_SPANS],
}

impl SpanSet {
    /// All-empty span set.
    #[must_use]
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Reads one span's histogram.
    #[must_use]
    pub fn get(&self, s: Span) -> &SpanHist {
        &self.hists[s as usize]
    }

    /// Replaces one span's histogram wholesale (snapshot parsing).
    pub fn set_hist(&mut self, s: Span, h: SpanHist) {
        self.hists[s as usize] = h;
    }

    /// Total seconds recorded under `s`.
    #[must_use]
    pub fn total_secs(&self, s: Span) -> f64 {
        self.hists[s as usize].total_ns as f64 / 1e9
    }

    /// Adds every histogram of `other` into `self`, index by index.
    pub fn merge_from(&mut self, other: &SpanSet) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.count += b.count;
            a.total_ns = a.total_ns.saturating_add(b.total_ns);
            for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                *x += *y;
            }
        }
    }

    /// What was recorded since `before` was read off the same set, slot
    /// by slot (the span analogue of `CounterSet::delta_since`).
    #[must_use]
    pub fn delta_since(&self, before: &SpanSet) -> SpanSet {
        let mut out = *self;
        for (a, b) in out.hists.iter_mut().zip(before.hists.iter()) {
            a.count = a.count.saturating_sub(b.count);
            a.total_ns = a.total_ns.saturating_sub(b.total_ns);
            for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                *x = x.saturating_sub(*y);
            }
        }
        out
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count == 0)
    }

    /// `(wire name, histogram)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SpanHist)> + '_ {
        SPAN_NAMES.iter().copied().zip(self.hists.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for (i, s) in ALL_SPANS.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(Span::from_name(SPAN_NAMES[i]), Some(*s));
        }
        assert_eq!(Span::from_name("bogus"), None);
        let mut names = SPAN_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SPANS);
    }

    #[test]
    fn log2_buckets_land_where_expected() {
        let mut h = SpanHist::default();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        h.record_ns(u64::MAX); // clamps to top bucket
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[SPAN_BUCKETS - 1], 1);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = SpanSet::new();
        let mut b = SpanSet::new();
        a.hists[Span::PhaseRoute as usize].record_ns(100);
        b.hists[Span::PhaseRoute as usize].record_ns(300);
        b.hists[Span::CriticSelect as usize].record_ns(50);
        let before = a;
        a.merge_from(&b);
        assert_eq!(a.get(Span::PhaseRoute).count, 2);
        assert_eq!(a.get(Span::PhaseRoute).total_ns, 400);
        assert_eq!(a.get(Span::PhaseRoute).mean_ns(), 200);
        assert_eq!(a.get(Span::CriticSelect).count, 1);
        assert!(!a.is_empty());
        assert_eq!(a.delta_since(&before), b);
        assert!(a.delta_since(&a).is_empty());
    }

    #[test]
    fn span_start_respects_the_feature_gate() {
        let t = SpanStart::now();
        let ns = t.elapsed_ns();
        if crate::TIMING_ENABLED {
            // A second reading can only grow.
            assert!(t.elapsed_ns() >= ns);
        } else {
            assert_eq!(ns, 0);
        }
    }
}
