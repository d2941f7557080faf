//! Tier A: deterministic, always-on `u64` counters.
//!
//! Counters are registered statically in the [`Counter`] enum and stored in
//! a fixed array ([`CounterSet`]) embedded by value in the hot-path
//! workspaces. The increment helpers are `#[inline]` branch-free array adds
//! and are registered in `lint.toml` as zero-allocation hot-path functions;
//! adding a counter means adding an enum variant, a name in
//! [`COUNTER_NAMES`], and the increment at the site being measured —
//! nothing is configured at runtime.
//!
//! Determinism contract: a counter may only count *events of the
//! computation itself* (pops, relaxations, dispatches, MACs), never
//! anything environmental (time, addresses, thread ids). Under that
//! contract the per-job deltas are pure functions of the job inputs, and
//! because `u64` addition is commutative, folding them in index order —
//! which `oarsmt::parallel` guarantees — yields totals that are
//! bit-identical for any thread count.

/// Every Tier A counter. The discriminant is the index into
/// [`CounterSet`] / [`COUNTER_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Dijkstra heap pops that survived the stale-entry check.
    DijkstraPops,
    /// Edge relaxations attempted (distance comparisons).
    DijkstraRelaxations,
    /// Entries pushed onto the Dijkstra heap.
    DijkstraPushes,
    /// Keys the Dial bucket queues' cursors advanced over (zero under the
    /// binary-heap policy); for the resumable Prim frontier, both rings
    /// and the cursor advance between them. Fixed by the pop order alone:
    /// the occupancy bitmap skips empty keys 64 at a time, so this counts
    /// keys walked, not work done.
    DijkstraBucketScans,
    /// Steiner points discarded by the irredundancy prune.
    SteinerPruned,
    /// `RouteTree` acquisitions served from the context pool.
    TreePoolHits,
    /// `RouteTree` acquisitions that had to heap-allocate.
    TreePoolMisses,
    /// MCTS nodes expanded (children materialized).
    MctsExpansions,
    /// MCTS simulations run (leaf evaluations / rollouts).
    MctsRollouts,
    /// Total backpropagation steps (sum of backed-up path depths).
    MctsBackpropSteps,
    /// NN tensor acquisitions served from the workspace pool.
    NnPoolHits,
    /// NN tensor acquisitions that had to heap-allocate.
    NnPoolMisses,
    /// Conv3d forwards dispatched to the implicit-im2col direct path
    /// (`d3 >= 8` z-lanes).
    GemmDirect,
    /// Conv3d forwards dispatched to the materialized row-panel path
    /// (`d3 < 8`, padded).
    GemmPanel,
    /// Conv3d forwards dispatched to the flat `1×1×1` fallback
    /// (`d3 < 8`, unpadded).
    GemmFlat,
    /// Sample columns pushed through the selector network, summed over
    /// every forward pass (a batch-`B` pass adds `B`). Divided by
    /// [`Counter::BatchFlushes`] this is the mean batch occupancy.
    GemmBatchCols,
    /// Selector-network forward passes (a batch of any width counts once).
    BatchFlushes,
    /// Conv3d kernel entries (forward or backward) that ran the wide AVX2
    /// register tiles on this host. The wide tiles are bit-identical to
    /// the scalar ones, so this counts speed, not results; it is zero
    /// when the host lacks AVX2 or `oarsmt-nn` is built without its
    /// `simd` feature.
    GemmKernelSimd,
    /// Multiply-accumulates in encoder level 0 (deeper levels clamp to 3).
    MacsEnc0,
    /// Multiply-accumulates in encoder level 1.
    MacsEnc1,
    /// Multiply-accumulates in encoder level 2.
    MacsEnc2,
    /// Multiply-accumulates in encoder level 3+.
    MacsEnc3,
    /// Multiply-accumulates in the bottleneck block.
    MacsBottleneck,
    /// Multiply-accumulates in decoder level 0 (deeper levels clamp to 3).
    MacsDec0,
    /// Multiply-accumulates in decoder level 1.
    MacsDec1,
    /// Multiply-accumulates in decoder level 2.
    MacsDec2,
    /// Multiply-accumulates in decoder level 3+.
    MacsDec3,
    /// Multiply-accumulates in the `1×1×1` output head.
    MacsHead,
    /// Multiply-accumulates outside any tagged U-Net layer.
    MacsOther,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 29;

/// Snake-case wire names, indexed by [`Counter`] discriminant. These are
/// the JSONL `"name"` values, so renaming one is a wire-format change.
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "dijkstra_pops",
    "dijkstra_relaxations",
    "dijkstra_pushes",
    "dijkstra_bucket_scans",
    "steiner_pruned",
    "tree_pool_hits",
    "tree_pool_misses",
    "mcts_expansions",
    "mcts_rollouts",
    "mcts_backprop_steps",
    "nn_pool_hits",
    "nn_pool_misses",
    "gemm_direct",
    "gemm_panel",
    "gemm_flat",
    "gemm_batch_cols",
    "batch_flushes",
    "gemm_kernel_simd",
    "macs_enc0",
    "macs_enc1",
    "macs_enc2",
    "macs_enc3",
    "macs_bottleneck",
    "macs_dec0",
    "macs_dec1",
    "macs_dec2",
    "macs_dec3",
    "macs_head",
    "macs_other",
];

impl Counter {
    /// The MAC counter for encoder level `i` (levels past 3 clamp to
    /// [`Counter::MacsEnc3`], keeping the registry static for any depth).
    #[must_use]
    pub fn enc_macs(level: usize) -> Counter {
        match level {
            0 => Counter::MacsEnc0,
            1 => Counter::MacsEnc1,
            2 => Counter::MacsEnc2,
            _ => Counter::MacsEnc3,
        }
    }

    /// The MAC counter for decoder level `i` (clamped like
    /// [`Counter::enc_macs`]).
    #[must_use]
    pub fn dec_macs(level: usize) -> Counter {
        match level {
            0 => Counter::MacsDec0,
            1 => Counter::MacsDec1,
            2 => Counter::MacsDec2,
            _ => Counter::MacsDec3,
        }
    }

    /// Parses a wire name back to the counter.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Counter> {
        COUNTER_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| ALL_COUNTERS[i])
    }
}

/// All counters in discriminant order (for iteration without transmutes).
pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] = [
    Counter::DijkstraPops,
    Counter::DijkstraRelaxations,
    Counter::DijkstraPushes,
    Counter::DijkstraBucketScans,
    Counter::SteinerPruned,
    Counter::TreePoolHits,
    Counter::TreePoolMisses,
    Counter::MctsExpansions,
    Counter::MctsRollouts,
    Counter::MctsBackpropSteps,
    Counter::NnPoolHits,
    Counter::NnPoolMisses,
    Counter::GemmDirect,
    Counter::GemmPanel,
    Counter::GemmFlat,
    Counter::GemmBatchCols,
    Counter::BatchFlushes,
    Counter::GemmKernelSimd,
    Counter::MacsEnc0,
    Counter::MacsEnc1,
    Counter::MacsEnc2,
    Counter::MacsEnc3,
    Counter::MacsBottleneck,
    Counter::MacsDec0,
    Counter::MacsDec1,
    Counter::MacsDec2,
    Counter::MacsDec3,
    Counter::MacsHead,
    Counter::MacsOther,
];

/// A full set of Tier A counters: a plain `u64` array, `Copy`, no
/// allocation anywhere in its API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    vals: [u64; NUM_COUNTERS],
}

impl CounterSet {
    /// All-zero counters.
    #[must_use]
    pub const fn new() -> Self {
        CounterSet {
            vals: [0; NUM_COUNTERS],
        }
    }

    /// Increments `c` by one. Branch-free, alloc-free; safe to call from
    /// the registered zero-allocation hot paths.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.vals[c as usize] += 1;
    }

    /// Adds `n` to `c`. Branch-free, alloc-free.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Adds `n` to the counter at raw index `slot` (used by the NN layer
    /// tagging, where the active MAC slot is data, not code).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= NUM_COUNTERS`.
    #[inline]
    pub fn add_at(&mut self, slot: usize, n: u64) {
        self.vals[slot] += n;
    }

    /// Reads counter `c`.
    #[inline]
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Overwrites counter `c` with `v` (snapshot parsing: a re-read counter
    /// record replaces the earlier value rather than accumulating).
    #[inline]
    pub fn set(&mut self, c: Counter, v: u64) {
        self.vals[c as usize] = v;
    }

    /// Adds every counter of `other` into `self`, index by index. Folding
    /// per-job deltas with this in index order is the thread-count-
    /// invariant reduction.
    pub fn merge_from(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a += *b;
        }
    }

    /// The element-wise delta `self - since` (counters are monotone, so
    /// `since` must be an earlier reading of the same set).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter went backwards.
    #[must_use]
    pub fn delta_since(&self, since: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for i in 0..NUM_COUNTERS {
            debug_assert!(self.vals[i] >= since.vals[i], "counter went backwards");
            out.vals[i] = self.vals[i].wrapping_sub(since.vals[i]);
        }
        out
    }

    /// Folds each workspace-pool hit/miss pair into its hit slot (zeroing
    /// the miss slot), leaving the pair's *sum* — the number of pool
    /// acquisitions, which is a pure function of the work done.
    ///
    /// The hit/miss **split** is the one part of the registry that is not
    /// thread-count invariant: each worker warms its own context, so more
    /// workers means more cold misses for the same jobs. Normalize with
    /// this before comparing counter sets produced under different thread
    /// counts (or pool-warmth states); everything else must already match
    /// bit-for-bit.
    pub fn fold_pool_splits(&mut self) {
        for (hit, miss) in [
            (Counter::TreePoolHits, Counter::TreePoolMisses),
            (Counter::NnPoolHits, Counter::NnPoolMisses),
        ] {
            self.vals[hit as usize] += self.vals[miss as usize];
            self.vals[miss as usize] = 0;
        }
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.vals = [0; NUM_COUNTERS];
    }

    /// `(wire name, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES.iter().copied().zip(self.vals.iter().copied())
    }

    /// Total MACs across every U-Net layer slot.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        let first = Counter::MacsEnc0 as usize;
        self.vals[first..].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL_COUNTERS order matches discriminants");
            assert_eq!(Counter::from_name(COUNTER_NAMES[i]), Some(*c));
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
        let mut names = COUNTER_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS, "wire names must be unique");
    }

    #[test]
    fn bump_add_get_roundtrip() {
        let mut c = CounterSet::new();
        assert!(c.is_zero());
        c.bump(Counter::DijkstraPops);
        c.add(Counter::DijkstraPops, 4);
        c.add_at(Counter::GemmPanel as usize, 7);
        assert_eq!(c.get(Counter::DijkstraPops), 5);
        assert_eq!(c.get(Counter::GemmPanel), 7);
        assert!(!c.is_zero());
        c.clear();
        assert!(c.is_zero());
    }

    #[test]
    fn merge_is_element_wise_and_order_insensitive() {
        let mut a = CounterSet::new();
        let mut b = CounterSet::new();
        a.add(Counter::MctsRollouts, 3);
        b.add(Counter::MctsRollouts, 9);
        b.add(Counter::NnPoolHits, 1);
        let mut ab = a;
        ab.merge_from(&b);
        let mut ba = b;
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Counter::MctsRollouts), 12);
        assert_eq!(ab.get(Counter::NnPoolHits), 1);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut before = CounterSet::new();
        before.add(Counter::GemmDirect, 2);
        let mut after = before;
        after.add(Counter::GemmDirect, 5);
        after.bump(Counter::GemmFlat);
        let d = after.delta_since(&before);
        assert_eq!(d.get(Counter::GemmDirect), 5);
        assert_eq!(d.get(Counter::GemmFlat), 1);
        assert_eq!(d.get(Counter::GemmPanel), 0);
    }

    #[test]
    fn fold_pool_splits_keeps_the_sum() {
        let mut warm = CounterSet::new();
        warm.add(Counter::TreePoolHits, 10);
        warm.add(Counter::NnPoolHits, 7);
        warm.add(Counter::NnPoolMisses, 1);
        let mut cold = CounterSet::new();
        cold.add(Counter::TreePoolHits, 4);
        cold.add(Counter::TreePoolMisses, 6);
        cold.add(Counter::NnPoolMisses, 8);
        warm.fold_pool_splits();
        cold.fold_pool_splits();
        assert_eq!(warm.get(Counter::TreePoolHits), 10);
        assert_eq!(cold.get(Counter::TreePoolHits), 10);
        assert_eq!(warm.get(Counter::NnPoolHits), 8);
        assert_eq!(cold.get(Counter::NnPoolHits), 8);
        assert_eq!(cold.get(Counter::TreePoolMisses), 0);
    }

    #[test]
    fn mac_slots_clamp_and_total() {
        assert_eq!(Counter::enc_macs(1), Counter::MacsEnc1);
        assert_eq!(Counter::enc_macs(9), Counter::MacsEnc3);
        assert_eq!(Counter::dec_macs(0), Counter::MacsDec0);
        assert_eq!(Counter::dec_macs(5), Counter::MacsDec3);
        let mut c = CounterSet::new();
        c.add(Counter::MacsEnc0, 10);
        c.add(Counter::MacsHead, 5);
        c.add(Counter::DijkstraPops, 99); // not a MAC slot
        assert_eq!(c.total_macs(), 15);
    }
}
