//! Integer-keyed bucket priority queue (Dial's algorithm substrate).
//!
//! The paper's cost model bounds every Hanan-grid edge cost to a small
//! positive integer (PAPER.md §2.2: per-gap costs in `1..=1000`, via costs
//! in `3..=5`), which makes Dial's bucket queue a drop-in replacement for
//! the binary heap inside the maze router: pushes and pops become `O(1)`
//! array operations plus a word-at-a-time occupancy scan, instead of
//! `O(log n)` sift operations over a heap that holds millions of entries on
//! the large Table 1 rungs.
//!
//! The queue is indexed by absolute key: one occupancy bit and one 4-byte
//! slot per key, from key 0 up to the largest key pushed, grown on demand.
//! A slot names a bucket in a pool; a key that drains returns its bucket
//! to the pool, so bucket storage tracks the keys alive at once, not the
//! key range. The occupancy bits let the cursor jump to the next live key
//! 64 keys per word test; the gaps between distinct keys are wide (gap
//! costs run to 1000), so a key-by-key walk would spend most of a query on
//! empty keys.
//!
//! The cursor moves forward as entries pop, and a push must lie at or
//! above it. [`BucketQueue::rewind`] moves it back to key 0: a resumable
//! Prim step (DESIGN.md §12.5) keys its frontier by A*'s `f = g + h` and
//! seeds its newly joined path at keys `h`, below entries that wait from
//! earlier steps; the key range reaches the largest `f` pushed.
//!
//! Pop order is part of the repo's determinism contract (DESIGN.md §12):
//! entries pop in ascending `(key, vertex index)` order, exactly the binary
//! heap's. A key's bucket is sorted when the cursor opens it. Dijkstra with
//! edge costs `≥ 1` never pushes to the open key, but A* does whenever an
//! edge's cost equals the drop in `h` along it; such a push makes the next
//! pop sort the key's live entries again.
//!
//! A pop takes an exclusive key bound and leaves the queue untouched when
//! its least key is not below it, which is how a Prim step stops at its
//! target's label.
//!
//! ```
//! use oarsmt_graph::bucket::BucketQueue;
//!
//! let mut q = BucketQueue::new();
//! q.push(2, 7);
//! q.push(0, 9);
//! q.push(2, 4);
//! let mut scans = 0u64;
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((0, 9)));
//! assert_eq!(q.pop_min(2, &mut scans), None, "key 2 is not below the bound");
//! // Key 2 drains in ascending vertex index.
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((2, 4)));
//! assert_eq!(scans, 2, "the cursor walked from key 0 to key 2");
//! // Back to key 0: the next pop walks up from there again.
//! q.rewind();
//! q.push(1, 3);
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((1, 3)));
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((2, 7)));
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
//! assert_eq!(scans, 4);
//! ```

/// Keys per occupancy word.
const WORD: usize = u64::BITS as usize;

/// Sentinel for "no key opened".
const NO_KEY: u64 = u64::MAX;

/// One pooled bucket: `items[pos..]` are the live entries of the key whose
/// slot names it. A bucket in the free list is empty.
#[derive(Debug, Clone, Default)]
struct Bucket {
    items: Vec<u32>,
    /// Drain position (entries before it are already popped).
    pos: u32,
}

/// A reusable key-indexed bucket queue over `u64` keys and `u32` payloads.
///
/// Created empty. [`BucketQueue::reset`] empties it for a fresh query and
/// returns the live keys' buckets to the pool. All storage is retained
/// across queries, so a warm queue performs no allocation (the dynamic
/// twin of the `oarsmt-lint` `[[zero_alloc]]` registration).
#[derive(Debug, Clone)]
pub struct BucketQueue {
    /// One bit per key, set iff the key holds live entries.
    occupied: Vec<u64>,
    /// Per key, the pool bucket holding its entries (meaningful only while
    /// the key's bit is set).
    slot: Vec<u32>,
    /// Bucket storage: each bucket is named by one live key's slot or
    /// listed in `free`.
    pool: Vec<Bucket>,
    /// Pool buckets no live key names; its capacity covers the whole pool.
    free: Vec<u32>,
    /// Every live entry lies at or above the cursor.
    cursor: u64,
    /// A key whose live entries are sorted, if any: the last key a pop
    /// sorted, until a push lands on it.
    opened: u64,
    /// Live (un-popped) entries.
    len: usize,
}

impl Default for BucketQueue {
    fn default() -> Self {
        BucketQueue {
            occupied: Vec::new(),
            slot: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
            cursor: 0,
            opened: NO_KEY,
            len: 0,
        }
    }
}

impl BucketQueue {
    /// Creates an empty queue; storage grows on first use.
    #[must_use]
    pub fn new() -> Self {
        BucketQueue::default()
    }

    /// Empties the queue for a fresh query and moves the cursor to key 0.
    /// The live keys' buckets return to the pool; storage is retained.
    pub fn reset(&mut self) {
        let mut w = self.cursor as usize / WORD;
        while self.len > 0 {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                let k = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = &mut self.pool[self.slot[k] as usize];
                self.len -= bucket.items.len() - bucket.pos as usize;
                bucket.items.clear();
                bucket.pos = 0;
            }
            w += 1;
        }
        // Every query hands buckets out in the same order, so a repeated
        // query gives each key the bucket it had before and a warm queue
        // never regrows one.
        self.free.clear();
        self.free.extend((0..self.pool.len() as u32).rev());
        self.rewind();
    }

    /// Moves the cursor back to key 0, so that a push at any key is legal
    /// again. Live entries stay queued; the next pop counts the keys its
    /// cursor walks up from 0.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes `idx` with the given key, which must not lie below the
    /// cursor (the last popped key, or 0 after a reset or rewind; checked
    /// in debug builds).
    pub fn push(&mut self, key: u64, idx: u32) {
        debug_assert!(
            key >= self.cursor,
            "bucket push below the cursor: key {key} < {}",
            self.cursor
        );
        if key == self.opened {
            // An arrival at the open key: its live entries sort again.
            self.opened = NO_KEY;
        }
        let k = key as usize;
        if k >= self.slot.len() {
            self.grow(k);
        }
        let bit = 1u64 << (k % WORD);
        let fresh = self.occupied[k / WORD] & bit == 0;
        if fresh {
            self.occupied[k / WORD] |= bit;
            self.slot[k] = match self.free.pop() {
                Some(b) => b,
                None => self.new_bucket(),
            };
        }
        self.pool[self.slot[k] as usize].items.push(idx);
        self.len += 1;
    }

    /// Pops the least `(key, index)` entry if its key lies below `below`,
    /// moving the cursor to it. `scans` grows by the number of keys the
    /// cursor advanced (the `dijkstra_bucket_scans` telemetry counter),
    /// although the occupancy words skip empty keys 64 at a time. Returns
    /// `None`, and leaves the cursor where it was, when the queue is empty
    /// or its least key is not below `below`.
    pub fn pop_min(&mut self, below: u64, scans: &mut u64) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        let key = self.least_key();
        if key >= below {
            return None;
        }
        *scans += key - self.cursor;
        self.cursor = key;
        let k = key as usize;
        let b = self.slot[k];
        let bucket = &mut self.pool[b as usize];
        let live = bucket.pos as usize;
        if self.opened != key {
            bucket.items[live..].sort_unstable();
            self.opened = key;
        }
        let idx = bucket.items[live];
        bucket.pos += 1;
        self.len -= 1;
        if live + 1 == bucket.items.len() {
            bucket.items.clear();
            bucket.pos = 0;
            self.occupied[k / WORD] &= !(1u64 << (k % WORD));
            self.free.push(b);
        }
        Some((key, idx))
    }

    /// The least live key. The queue must be non-empty, and every live
    /// key lies at or above the cursor, so some bit at or after the
    /// cursor's is set.
    #[inline]
    fn least_key(&self) -> u64 {
        let from = self.cursor as usize;
        let mut w = from / WORD;
        let mut bits = self.occupied[w] & (u64::MAX << (from % WORD));
        while bits == 0 {
            w += 1;
            bits = self.occupied[w];
        }
        (w * WORD + bits.trailing_zeros() as usize) as u64
    }

    /// Extends the key range to cover key `k`.
    #[cold]
    fn grow(&mut self, k: usize) {
        let keys = (k / WORD + 1) * WORD;
        // lint: alloc-ok(grow-once: the key range only lengthens the first time a larger key is pushed, one bit and one slot per key; warm queries push inside it)
        self.slot.resize(keys, 0);
        self.occupied.resize(keys / WORD, 0);
    }

    /// Adds a bucket to the pool (the free list is empty) and returns it.
    #[cold]
    fn new_bucket(&mut self) -> u32 {
        // lint: alloc-ok(grow-once: the pool only grows when more keys are live at once than ever before; a drained key returns its bucket, and the free list's capacity covers the pool so releasing never allocates)
        self.pool.push(Bucket::default());
        self.free.reserve(self.pool.len());
        (self.pool.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    #[test]
    fn pops_in_key_then_index_order() {
        let mut q = BucketQueue::new();
        for &(k, i) in &[(3u64, 9u32), (1, 4), (3, 2), (1, 11), (5, 0)] {
            q.push(k, i);
        }
        let mut scans = 0;
        let mut out = Vec::new();
        while let Some(e) = q.pop_min(u64::MAX, &mut scans) {
            out.push(e);
        }
        assert_eq!(out, vec![(1, 4), (1, 11), (3, 2), (3, 9), (5, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn open_key_arrivals_keep_index_order() {
        let mut q = BucketQueue::new();
        q.push(4, 8);
        q.push(4, 3);
        let mut scans = 0;
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 3)));
        // Key 4 is open: same-key arrivals merge into its index order.
        q.push(4, 9);
        q.push(4, 1);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 1)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 8)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 9)));
        // The key drained; later arrivals at it still pop in index order.
        q.push(4, 6);
        q.push(4, 0);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 0)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 6)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
        assert_eq!(scans, 4);
    }

    #[test]
    fn drained_keys_return_their_buckets_to_the_pool() {
        // Far more distinct keys than are ever live at once: one bucket
        // serves them all.
        let mut q = BucketQueue::new();
        q.push(0, 0);
        let mut scans = 0;
        let mut expected_key = 0u64;
        while let Some((k, i)) = q.pop_min(u64::MAX, &mut scans) {
            assert_eq!(k, expected_key);
            assert_eq!(i, (k % 100) as u32);
            if k < 500 {
                q.push(k + 2, ((k + 2) % 100) as u32);
                expected_key = k + 2;
            }
        }
        assert_eq!(expected_key, 500);
        assert_eq!(scans, 500);
        assert_eq!((q.pool.len(), q.free.len()), (1, 1));
    }

    #[test]
    fn reset_invalidates_and_keeps_storage() {
        let mut q = BucketQueue::new();
        q.push(1, 10);
        q.push(2, 20);
        q.push(900, 30);
        let mut scans = 0;
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((1, 10)));
        // Abandon mid-drain; the next query must not see leftovers.
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.free.len(), q.pool.len(), "every bucket is back");
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
        q.push(7, 1);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((7, 1)));
        q.push(30, 5);
        q.reset();
        q.push(0, 6);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((0, 6)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
        assert!(q.slot.len() > 900, "the key range stays grown");
    }

    #[test]
    fn scan_counter_counts_cursor_advances() {
        let mut q = BucketQueue::new();
        q.push(3, 1);
        q.push(8, 2);
        let mut scans = 0;
        q.pop_min(u64::MAX, &mut scans);
        assert_eq!(scans, 3, "from key 0 to key 3");
        q.pop_min(u64::MAX, &mut scans);
        assert_eq!(scans, 8, "five empty keys between 3 and 8");
    }

    #[test]
    fn pop_min_stops_at_the_bound_without_moving() {
        let mut q = BucketQueue::new();
        q.push(10, 3);
        q.push(70, 1);
        let mut scans = 0;
        assert_eq!(q.pop_min(10, &mut scans), None);
        assert_eq!((scans, q.len()), (0, 2), "a refused pop walks nothing");
        assert_eq!(q.pop_min(11, &mut scans), Some((10, 3)));
        assert_eq!(q.pop_min(70, &mut scans), None);
        assert_eq!(scans, 10, "the cursor stays at key 10");
        // A push below the refused key is still legal: the cursor did
        // not move past it.
        q.push(40, 2);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((40, 2)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((70, 1)));
        assert_eq!(scans, 70);
    }

    #[test]
    fn rewind_reopens_low_keys_under_waiting_high_ones() {
        let mut q = BucketQueue::new();
        q.push(5000, 4);
        q.push(3, 9);
        let mut scans = 0;
        assert_eq!(q.pop_min(5000, &mut scans), Some((3, 9)));
        assert_eq!(q.pop_min(5000, &mut scans), None);
        // A new path enters at key 0 while key 5000 waits.
        q.rewind();
        q.push(0, 2);
        q.push(0, 1);
        assert_eq!(q.pop_min(5000, &mut scans), Some((0, 1)));
        q.push(5000, 0);
        assert_eq!(q.pop_min(5000, &mut scans), Some((0, 2)));
        assert_eq!(q.pop_min(5000, &mut scans), None);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((5000, 0)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((5000, 4)));
        assert_eq!(scans, 3 + 5000);
    }

    /// A Dijkstra-shaped workload (every push strictly above the popped
    /// key, within `span`) against a binary heap: pop order must be exactly
    /// `(key, index)` and the scan counter exactly the keys walked from
    /// key 0, for spans on both sides of one occupancy word.
    #[test]
    fn randomized_against_heap_reference() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = BucketQueue::new();
        for span in [1u64, 16, 63, 64, 65, 1000, 4096] {
            q.reset();
            let mut reference = BinaryHeap::new();
            for _ in 0..3 {
                let e = (next() % span, (next() % 1000) as u32);
                q.push(e.0, e.1);
                reference.push(Reverse(e));
            }
            let mut scans = 0;
            let mut budget = 2000;
            while let Some((k, i)) = q.pop_min(u64::MAX, &mut scans) {
                assert_eq!(Some(Reverse((k, i))), reference.pop(), "span {span}");
                assert_eq!(scans, k, "span {span}");
                if budget > 0 {
                    budget -= 1;
                    for _ in 0..next() % 3 {
                        let e = (k + 1 + next() % span, (next() % 1000) as u32);
                        q.push(e.0, e.1);
                        reference.push(Reverse(e));
                    }
                }
            }
            assert!(reference.is_empty(), "span {span}");
        }
    }
}
