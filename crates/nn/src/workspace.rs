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
//!   of the convolution kernels (see
//!   [`conv3d`](crate::conv3d));
//! * the U-Net's skip-connection stack;
//! * the Tier A telemetry [`CounterSet`] of the NN subsystem (pool
//!   hits/misses, conv kernel-lane dispatch, per-U-Net-layer MACs) and the
//!   context's Tier B [`SpanRecorder`]: every layer brackets itself in a
//!   `Span::Nn*` span (conv/activation/pool/upsample, forward/backward),
//!   always feeding the per-kind histograms and, when the recorder is
//!   armed, its event ring. `RouteContext` records its routing phases
//!   into this same recorder, so one ring holds a whole route. Durations
//!   are real only under the `telemetry-timing` feature of
//!   `oarsmt-telemetry`.
//!
//! Ownership follows the `RouteContext` model of DESIGN.md: whoever owns an
//! inference or training loop owns one workspace (`RouteContext` embeds one
//! for the selector path, `Trainer` owns one per fit loop, and each
//! `parallel` worker carries its own inside its context). Workspaces are
//! never shared across threads. All workspace state is scratch: reusing a
//! workspace never changes results, only allocation behavior.

use oarsmt_telemetry::{Counter, CounterSet, SpanRecorder};

use crate::kernels::{self, Lane};
use crate::tensor::Tensor;

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
    /// The context's span recorder: layer spans here, and the routing
    /// phases of an enclosing `RouteContext`.
    pub spans: SpanRecorder,
    /// Tier A telemetry of the NN subsystem: pool hits/misses, conv
    /// kernel-lane dispatch, per-U-Net-layer MACs. Always on; monotone.
    pub counters: CounterSet,
    /// The counter index MACs are attributed to (`Counter::MacsOther`
    /// outside a tagged U-Net layer; the U-Net forward and backward retag
    /// it per block via [`NnWorkspace::set_mac_slot`]).
    pub(crate) mac_slot: usize,
    /// The kernel lane, resolved once at [`NnWorkspace::new`] from the
    /// cached [`kernels::host_lane`] probe (the kernels branch on this
    /// plain value, not on a CPUID probe). Every lane produces the same
    /// bits.
    lane: Lane,
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
            g_pad: Vec::new(),
            g_t: Vec::new(),
            skips: Vec::new(),
            training: true,
            spans: SpanRecorder::new(),
            counters: CounterSet::new(),
            mac_slot: Counter::MacsOther as usize,
            lane: kernels::host_lane(),
        }
    }

    /// Runs the conv kernels through this workspace on `lane`, capped at
    /// the host's widest lane ([`kernels::host_lane`]), and returns the
    /// lane now in effect. The lanes are bit-identical, so this changes
    /// speed only; it lets the lane tests run the scalar lane on a wide
    /// host. Oracle hook only, like `Conv3d::set_naive`.
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_lane(&mut self, lane: Lane) -> Lane {
        self.lane = lane.min(kernels::host_lane());
        self.lane
    }

    /// The kernel lane conv calls through this workspace run: the widest
    /// the `simd` build feature and the host CPU allow, resolved at
    /// [`NnWorkspace::new`] (the `naive-ref` test hook `set_lane` may
    /// narrow it).
    #[inline]
    #[must_use]
    pub fn lane(&self) -> Lane {
        self.lane
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
