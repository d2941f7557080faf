//! The zero-allocation scratch arena of the NN hot path.
//!
//! Selector inference runs once per MCTS search and selector training runs
//! `UNet3d::forward`/`backward` once per batch; before this workspace
//! existed, every layer allocated fresh [`Tensor`]s (outputs, caches,
//! clones) on each of those calls. An [`NnWorkspace`] owns all of that
//! reusable state:
//!
//! * a **tensor pool** — layers acquire output/cache storage with
//!   [`NnWorkspace::alloc`] and return it with [`NnWorkspace::free`], so
//!   after warm-up a forward/backward pass performs no heap allocation;
//! * the **tap-offset table** and the padded/transposed gradient buffers
//!   of the implicit-im2col GEMM convolution kernels (see
//!   [`conv3d`](crate::conv3d));
//! * the U-Net's skip-connection stack;
//! * the Tier A telemetry [`CounterSet`] of the NN subsystem (pool
//!   hits/misses, GEMM dispatch mix, per-U-Net-layer MACs) plus an
//!   optional per-layer-kind Tier B [`SpanSet`] used by the
//!   `oarsmt_bench unet` lane to attribute time to
//!   conv/activation/pool/upsample (real durations only under the
//!   `telemetry-timing` feature of `oarsmt-telemetry`).
//!
//! Ownership follows the `RouteContext` model of DESIGN.md: whoever owns an
//! inference or training loop owns one workspace (`RouteContext` embeds one
//! for the selector path, `Trainer` owns one per fit loop, and each
//! `parallel` worker carries its own inside its context). Workspaces are
//! never shared across threads. All workspace state is scratch: reusing a
//! workspace never changes results, only allocation behavior.

use oarsmt_telemetry::{Counter, CounterSet, Span, SpanSet, SpanStart};

use crate::kernels;
use crate::tensor::Tensor;

/// Layer-kind/direction buckets for the optional profile (mapped onto the
/// statically registered `oarsmt-telemetry` [`Span`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfKind {
    /// Convolution forward (incl. `1×1×1` heads and projections).
    ConvFwd,
    /// Convolution backward.
    ConvBwd,
    /// Activation (ReLU/sigmoid) forward.
    ActFwd,
    /// Activation backward.
    ActBwd,
    /// Max-pool forward.
    PoolFwd,
    /// Max-pool backward.
    PoolBwd,
    /// Upsample forward.
    UpFwd,
    /// Upsample backward.
    UpBwd,
}

impl ProfKind {
    /// The telemetry span this bucket records into.
    #[must_use]
    pub fn span(self) -> Span {
        match self {
            ProfKind::ConvFwd => Span::NnConvFwd,
            ProfKind::ConvBwd => Span::NnConvBwd,
            ProfKind::ActFwd => Span::NnActFwd,
            ProfKind::ActBwd => Span::NnActBwd,
            ProfKind::PoolFwd => Span::NnPoolFwd,
            ProfKind::PoolBwd => Span::NnPoolBwd,
            ProfKind::UpFwd => Span::NnUpFwd,
            ProfKind::UpBwd => Span::NnUpBwd,
        }
    }
}

/// The reusable scratch arena threaded through every
/// [`Layer`](crate::layer::Layer) forward and backward.
#[derive(Debug, Clone)]
pub struct NnWorkspace {
    /// Recycled tensor storage, LIFO. Whole tensors are pooled (shape and
    /// data vectors both), so a warm [`NnWorkspace::alloc`] performs zero
    /// heap allocation — including the shape metadata.
    pool: Vec<Tensor>,
    /// Per-tap padded-volume offsets (the K axis of the convolution's
    /// implicit patch matrix).
    pub(crate) tap_off: Vec<usize>,
    /// im2col patch panel of the small-grid convolution forward path.
    pub(crate) im2col: Vec<f32>,
    /// Zero-padded `grad_out` of the convolution input-gradient gather.
    pub(crate) g_pad: Vec<f32>,
    /// `grad_out` transposed to `[spatial][out_c]` for the vectorized
    /// weight/bias-gradient kernels.
    pub(crate) g_t: Vec<f32>,
    /// The U-Net's skip stack: encoder activations during forward, skip
    /// gradients during backward. Always empty between passes.
    pub(crate) skips: Vec<Tensor>,
    /// `false` skips backward caches (inference mode). Cleared for the
    /// duration of [`UNet3d::predict_in`](crate::unet::UNet3d::predict_in);
    /// defaults to `true` so forward passes hand back caches for backward.
    pub(crate) training: bool,
    profiling: bool,
    spans: SpanSet,
    /// Tier A telemetry of the NN subsystem: pool hits/misses, GEMM
    /// dispatch per path, per-U-Net-layer MACs. Always on; monotone.
    pub counters: CounterSet,
    /// The counter index MACs are attributed to (`Counter::MacsOther`
    /// outside a tagged U-Net layer; the U-Net forward and backward retag
    /// it per block via [`NnWorkspace::set_mac_slot`]).
    pub(crate) mac_slot: usize,
    /// The kernel lane, resolved once at [`NnWorkspace::new`] from the
    /// cached [`kernels::simd_available`] probe: `true` iff conv GEMM
    /// calls run the AVX2 tiles (the kernels branch on this plain bool,
    /// not on a CPUID probe). Both lanes produce the same bits.
    simd_active: bool,
}

impl Default for NnWorkspace {
    fn default() -> Self {
        NnWorkspace::new()
    }
}

impl NnWorkspace {
    /// Creates an empty workspace; all buffers grow on first use.
    pub fn new() -> Self {
        NnWorkspace {
            pool: Vec::new(),
            tap_off: Vec::new(),
            im2col: Vec::new(),
            g_pad: Vec::new(),
            g_t: Vec::new(),
            skips: Vec::new(),
            training: true,
            profiling: false,
            spans: SpanSet::new(),
            counters: CounterSet::new(),
            mac_slot: Counter::MacsOther as usize,
            simd_active: kernels::simd_available(),
        }
    }

    /// Pins conv GEMM calls through this workspace to the scalar tiles.
    /// The lanes are bit-identical, so this changes speed only; it exists
    /// so tests can run the scalar lane on a host with AVX2. Oracle hook
    /// only, like `Conv3d::set_naive`.
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn force_scalar(&mut self) {
        self.simd_active = false;
    }

    /// Whether conv GEMM calls through this workspace run the AVX2 lane:
    /// the `simd` build feature and the host CPU, resolved at
    /// [`NnWorkspace::new`].
    #[inline]
    #[must_use]
    pub fn simd_active(&self) -> bool {
        self.simd_active
    }

    /// Acquires a zeroed tensor of the given shape from the pool.
    pub fn alloc(&mut self, shape: &[usize]) -> Tensor {
        let mut t = match self.pool.pop() {
            Some(t) => {
                self.counters.bump(Counter::NnPoolHits);
                t
            }
            None => {
                self.counters.bump(Counter::NnPoolMisses);
                Tensor::pool_seed()
            }
        };
        t.refit(shape);
        t
    }

    /// Acquires a tensor holding a copy of `src` from the pool.
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.alloc(src.shape());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Returns a tensor's storage (shape and data vectors) to the pool for
    /// reuse.
    pub fn free(&mut self, t: Tensor) {
        self.pool.push(t);
    }

    /// Whether backward caches are being recorded (`true` outside
    /// [`UNet3d::predict_in`](crate::unet::UNet3d::predict_in)).
    pub fn training(&self) -> bool {
        self.training
    }

    /// Takes the im2col panel buffer, sized to at least `len` (callers
    /// return it via [`NnWorkspace::put_im2col`]; taking keeps the borrow
    /// checker out of kernels that also index the workspace).
    pub(crate) fn take_im2col(&mut self, len: usize) -> Vec<f32> {
        let mut b = std::mem::take(&mut self.im2col);
        if b.len() < len {
            b.resize(len, 0.0);
        }
        b
    }

    /// Returns the im2col panel buffer.
    pub(crate) fn put_im2col(&mut self, b: Vec<f32>) {
        self.im2col = b;
    }

    /// Enables per-layer-kind profiling (cleared stats). Durations are
    /// non-zero only when `oarsmt-telemetry` is built with its
    /// `telemetry-timing` feature; counts are recorded either way.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
        self.spans = SpanSet::new();
    }

    /// Disables profiling, returning the accumulated per-layer spans.
    pub fn take_spans(&mut self) -> SpanSet {
        self.profiling = false;
        std::mem::take(&mut self.spans)
    }

    /// Starts a profiled span; pair with [`NnWorkspace::prof_end`]. The
    /// clock read (if any) happens inside `oarsmt-telemetry` behind its
    /// feature gate — this crate never observes time.
    #[inline]
    pub(crate) fn prof_start(&self) -> SpanStart {
        if self.profiling {
            SpanStart::now()
        } else {
            SpanStart::disabled()
        }
    }

    /// Ends a profiled span started by [`NnWorkspace::prof_start`].
    #[inline]
    pub(crate) fn prof_end(&mut self, start: SpanStart, kind: ProfKind) {
        if self.profiling {
            self.spans.stop(start, kind.span());
        }
    }

    /// Retags the MAC-attribution counter slot, returning the previous tag
    /// (callers restore it on the way out of a layer).
    #[inline]
    pub fn set_mac_slot(&mut self, c: Counter) -> usize {
        std::mem::replace(&mut self.mac_slot, c as usize)
    }

    /// Restores a MAC-attribution slot returned by
    /// [`NnWorkspace::set_mac_slot`].
    #[inline]
    pub fn restore_mac_slot(&mut self, slot: usize) {
        self.mac_slot = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_zeroed_tensors_and_reuses_storage() {
        let mut ws = NnWorkspace::new();
        let mut t = ws.alloc(&[2, 3]);
        assert_eq!(t.sum(), 0.0);
        t.fill(7.0);
        let ptr = t.data().as_ptr();
        ws.free(t);
        // Same storage comes back, re-zeroed.
        let t2 = ws.alloc(&[3, 2]);
        assert_eq!(t2.data().as_ptr(), ptr);
        assert_eq!(t2.sum(), 0.0);
    }

    #[test]
    fn alloc_copy_matches_source() {
        let mut ws = NnWorkspace::new();
        let src = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let c = ws.alloc_copy(&src);
        assert_eq!(c, src);
    }

    #[test]
    fn profiling_accumulates_spans() {
        let mut ws = NnWorkspace::new();
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        assert!(
            ws.take_spans().is_empty(),
            "disabled profiling records nothing"
        );
        ws.enable_profiling();
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        let spans = ws.take_spans();
        assert_eq!(spans.get(Span::NnConvFwd).count, 1);
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        assert!(ws.take_spans().is_empty(), "take_spans disables profiling");
    }

    #[test]
    fn pool_hits_and_misses_are_counted() {
        let mut ws = NnWorkspace::new();
        let t = ws.alloc(&[4]); // miss: empty pool
        ws.free(t);
        let t = ws.alloc(&[2, 2]); // hit: recycled storage
        ws.free(t);
        assert_eq!(ws.counters.get(Counter::NnPoolMisses), 1);
        assert_eq!(ws.counters.get(Counter::NnPoolHits), 1);
    }

    #[test]
    fn mac_slot_retag_restores() {
        let mut ws = NnWorkspace::new();
        assert_eq!(ws.mac_slot, Counter::MacsOther as usize);
        let prev = ws.set_mac_slot(Counter::MacsEnc1);
        assert_eq!(ws.mac_slot, Counter::MacsEnc1 as usize);
        ws.restore_mac_slot(prev);
        assert_eq!(ws.mac_slot, Counter::MacsOther as usize);
    }
}
