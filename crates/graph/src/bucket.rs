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
//! Keys must be monotone: once an entry with key `k` has been popped, every
//! later push must use a key `≥ k` (true for Dijkstra with non-negative
//! edge costs). Entries alive at any instant span at most `span`
//! consecutive keys (for Dijkstra, `span` = the largest edge cost), so the
//! queue keeps a ring of `2^⌈log₂(span + 1)⌉` (at least 64) buckets
//! addressed by `key & (ring − 1)`. One occupancy bit per bucket lets the
//! cursor jump to the next non-empty bucket 64 keys per word test; the
//! gaps between distinct keys are wide (gap costs run to 1000), so a
//! bucket-by-bucket walk would spend most of a query on empty buckets.
//!
//! Pop order is part of the repo's determinism contract (DESIGN.md §12):
//! within one key, the entries present when the cursor reaches that key
//! drain in ascending vertex index (the bucket is sorted once, when
//! opened), and entries that arrive while their key is open drain
//! afterwards in arrival order. Dijkstra with edge costs `≥ 1` never
//! appends to the open bucket, so its pop order is exactly the binary
//! heap's `(cost, vertex index)` order — bit-identical results. The
//! open-bucket append behaviour is still defined (and tested) so the queue
//! stays correct for cost models with zero-cost edges.
//!
//! A pop takes a key limit and leaves the queue untouched when its minimum
//! lies above it, which is how the resumable Prim frontier
//! (DESIGN.md §12.5) stops at its horizon. [`BucketQueue::advance_to`]
//! and [`BucketQueue::fold_from`] let that frontier run each step's wave
//! in a second ring and hand its leftovers to the persisted one.
//!
//! ```
//! use oarsmt_graph::bucket::BucketQueue;
//!
//! let mut q = BucketQueue::new();
//! q.reset(3); // largest key step between a pop and a push is 3
//! q.push(2, 7);
//! q.push(0, 9);
//! q.push(2, 4);
//! let mut scans = 0u64;
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((0, 9)));
//! assert_eq!(q.pop_min(1, &mut scans), None, "key 2 lies above the limit");
//! // Key 2 drains in ascending vertex index.
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((2, 4)));
//! q.push(2, 6); // arrived while key 2 was open: drains after the batch
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((2, 7)));
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((2, 6)));
//! assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
//! assert_eq!(scans, 2, "the cursor walked from key 0 to key 2");
//! ```

/// Buckets per occupancy word.
const WORD: usize = u64::BITS as usize;

/// One ring slot: only `items[pos..]` is live, and only while the slot's
/// occupancy bit is set (a clear bit means empty; the slot is cleared when
/// next pushed to).
#[derive(Debug, Clone, Default)]
struct Bucket {
    items: Vec<u32>,
    /// Drain position (entries before it are already popped).
    pos: u32,
}

/// A reusable circular bucket queue over `u64` keys and `u32` payloads.
///
/// Created empty; [`BucketQueue::reset`] sizes it for a query and
/// invalidates previous contents by clearing the occupancy bits of the
/// ring in use (`ring / 64` words; bucket storage is kept). All storage is
/// retained across queries, so a warm queue performs no allocation (the
/// dynamic twin of the `oarsmt-lint` `[[zero_alloc]]` registration).
#[derive(Debug, Clone, Default)]
pub struct BucketQueue {
    buckets: Vec<Bucket>,
    /// One bit per bucket of the ring, set iff the bucket holds live
    /// entries.
    occupied: Vec<u64>,
    /// Ring size − 1 for the current query (the ring is a power of two).
    mask: u64,
    /// Absolute key the cursor is currently draining.
    cursor: u64,
    /// The key most recently sorted-on-open (cursor keys are monotone, so
    /// one scalar suffices).
    opened: u64,
    /// Live (un-popped) entries.
    len: usize,
    /// Whether a pop has happened: before the first pop any key may be
    /// seeded (the cursor tracks the minimum); after it the monotone
    /// contract binds.
    draining: bool,
    /// Largest key seeded before draining began (debug-only span check).
    seed_max: u64,
}

/// Sentinel for "no key opened yet".
const NO_KEY: u64 = u64::MAX;

impl BucketQueue {
    /// Creates an empty queue; [`BucketQueue::reset`] sizes it on first use.
    #[must_use]
    pub fn new() -> Self {
        BucketQueue::default()
    }

    /// Prepares the queue for a fresh query whose alive entries never span
    /// more than `span` consecutive keys (for Dijkstra: the largest edge
    /// cost). Previous
    /// contents are invalidated by clearing `ring / 64` occupancy words;
    /// bucket storage is retained.
    pub fn reset(&mut self, span: usize) {
        let ring = (span + 1).next_power_of_two().max(WORD);
        if self.buckets.len() < ring {
            // lint: alloc-ok(grow-once: the ring only lengthens the first time a larger span appears; the new slots are capacity-0 vecs and warm resets only clear occupancy words)
            self.buckets.resize_with(ring, Bucket::default);
            self.occupied.resize(ring / WORD, 0);
        }
        self.occupied[..ring / WORD].fill(0);
        self.mask = ring as u64 - 1;
        self.cursor = NO_KEY;
        self.opened = NO_KEY;
        self.len = 0;
        self.draining = false;
        self.seed_max = 0;
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

    /// Pushes `idx` with the given key.
    ///
    /// Keys must be monotone with respect to pops: once
    /// [`BucketQueue::pop_min`] has returned an entry, `key` must be `≥`
    /// its key (checked in debug builds) and within `span` of it so the
    /// circular addressing cannot collide. Before the first pop any keys
    /// may be seeded, as long as they span at most `span` between
    /// themselves.
    pub fn push(&mut self, key: u64, idx: u32) {
        if self.draining {
            debug_assert!(
                key >= self.cursor,
                "non-monotone bucket push: key {key} < cursor {}",
                self.cursor
            );
            debug_assert!(
                key - self.cursor <= self.mask,
                "bucket span exceeded: key {key}, cursor {}, ring {}",
                self.cursor,
                self.mask + 1
            );
        } else {
            // Seeding phase: the cursor starts at the smallest pushed key.
            self.cursor = self.cursor.min(key);
            #[cfg(debug_assertions)]
            {
                self.seed_max = self.seed_max.max(key);
                debug_assert!(
                    self.seed_max - self.cursor <= self.mask,
                    "seed span exceeded: keys {}..={}, ring {}",
                    self.cursor,
                    self.seed_max,
                    self.mask + 1
                );
            }
        }
        let b = (key & self.mask) as usize;
        let bit = 1u64 << (b % WORD);
        let word = &mut self.occupied[b / WORD];
        let bucket = &mut self.buckets[b];
        if *word & bit == 0 {
            *word |= bit;
            bucket.items.clear();
            bucket.pos = 0;
        }
        bucket.items.push(idx);
        self.len += 1;
    }

    /// Pops the minimum-key entry if its key is at most `limit`, moving
    /// the cursor to it. `scans` grows by the number of keys the cursor
    /// advanced (the `dijkstra_bucket_scans` telemetry counter), although
    /// the occupancy words skip empty keys 64 at a time. Returns `None`,
    /// and leaves the cursor where it was, when the queue is empty or its
    /// minimum key exceeds `limit`.
    pub fn pop_min(&mut self, limit: u64, scans: &mut u64) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        // Live keys lie in `[cursor, cursor + ring)`, one ring slot each,
        // so the first occupied slot at or after the cursor's holds the
        // minimum key.
        let b = self.next_occupied((self.cursor & self.mask) as usize);
        let step = (b as u64).wrapping_sub(self.cursor) & self.mask;
        if self.cursor + step > limit {
            return None;
        }
        self.draining = true;
        self.cursor += step;
        *scans += step;
        let bucket = &mut self.buckets[b];
        let live = bucket.pos as usize;
        if self.opened != self.cursor {
            // First visit at this key: the entries present drain in
            // ascending vertex index.
            bucket.items[live..].sort_unstable();
            self.opened = self.cursor;
        }
        let idx = bucket.items[live];
        bucket.pos += 1;
        if live + 1 == bucket.items.len() {
            self.occupied[b / WORD] &= !(1u64 << (b % WORD));
        }
        self.len -= 1;
        Some((self.cursor, idx))
    }

    /// Moves the cursor forward to `key`, adding the keys walked to
    /// `scans`, and ends the seeding phase: from here on every push must
    /// lie in `[key, key + span]`. No live entry may sit below `key`
    /// (checked in debug builds). On a freshly reset queue this only sets
    /// the cursor.
    pub fn advance_to(&mut self, key: u64, scans: &mut u64) {
        debug_assert!(
            self.len == 0 || self.min_key() >= key,
            "advance past a live entry: key {key}, minimum {}",
            self.min_key()
        );
        if self.draining {
            debug_assert!(key >= self.cursor, "cursor moved back");
            *scans += key - self.cursor;
        }
        self.cursor = key;
        self.draining = true;
    }

    /// Moves every live entry of `other` into this queue, keys kept, and
    /// leaves `other` empty. The moved keys must obey this queue's push
    /// contract (monotone and within `span` of its cursor). Entries that
    /// share a key drain in ascending vertex index once that key opens,
    /// whichever queue they came from.
    pub fn fold_from(&mut self, other: &mut BucketQueue) {
        let words = (other.mask as usize + 1) / WORD;
        for w in 0..words {
            let mut bits = other.occupied[w];
            other.occupied[w] = 0;
            while bits != 0 {
                let b = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let key = other.key_at(b);
                let bucket = &other.buckets[b];
                for k in bucket.pos as usize..bucket.items.len() {
                    self.push(key, bucket.items[k]);
                }
            }
        }
        other.len = 0;
    }

    /// The absolute key ring slot `b` holds (live keys lie in
    /// `[cursor, cursor + ring)`).
    #[inline]
    fn key_at(&self, b: usize) -> u64 {
        self.cursor + ((b as u64).wrapping_sub(self.cursor) & self.mask)
    }

    /// The minimum live key (the queue must be non-empty).
    fn min_key(&self) -> u64 {
        self.key_at(self.next_occupied((self.cursor & self.mask) as usize))
    }

    /// The first occupied ring slot at or after `from`, wrapping. Callers
    /// guarantee the queue is non-empty, so some bit is set.
    #[inline]
    fn next_occupied(&self, from: usize) -> usize {
        let last = self.mask as usize / WORD;
        let mut w = from / WORD;
        let mut bits = self.occupied[w] & (u64::MAX << (from % WORD));
        while bits == 0 {
            w = if w == last { 0 } else { w + 1 };
            bits = self.occupied[w];
        }
        w * WORD + bits.trailing_zeros() as usize
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
        q.reset(5);
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
    fn open_bucket_appends_drain_in_arrival_order() {
        let mut q = BucketQueue::new();
        q.reset(2);
        q.push(4, 8);
        q.push(4, 3);
        let mut scans = 0;
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 3)));
        // Key 4 is open: a same-key arrival goes behind the sorted batch.
        q.push(4, 1);
        q.push(4, 2);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 8)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 1)));
        // The open bucket drains empty; a later same-key arrival still
        // pops unsorted, at the same key.
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 2)));
        q.push(4, 9);
        q.push(4, 0);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 9)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((4, 0)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
        assert_eq!(scans, 0);
    }

    #[test]
    fn circular_reuse_across_many_keys() {
        // Far more distinct keys than buckets: the ring wraps and the
        // queue must keep draining correctly.
        let mut q = BucketQueue::new();
        q.reset(3);
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
    }

    #[test]
    fn reset_invalidates_without_clearing_storage() {
        let mut q = BucketQueue::new();
        q.reset(4);
        q.push(1, 10);
        q.push(2, 20);
        let mut scans = 0;
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((1, 10)));
        // Abandon mid-drain; the next query must not see leftovers.
        q.reset(4);
        assert!(q.is_empty());
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
        q.push(7, 1);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((7, 1)));
        // A wider ring after a narrower one, and back: leftovers in either
        // never resurface.
        q.push(30, 5);
        q.reset(1000);
        q.push(64, 3);
        q.push(900, 4);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((64, 3)));
        q.reset(4);
        q.push(0, 6);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((0, 6)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), None);
    }

    #[test]
    fn scan_counter_counts_cursor_advances() {
        let mut q = BucketQueue::new();
        q.reset(10);
        q.push(0, 1);
        q.push(8, 2);
        let mut scans = 0;
        q.pop_min(u64::MAX, &mut scans);
        assert_eq!(scans, 0);
        q.pop_min(u64::MAX, &mut scans);
        assert_eq!(scans, 8, "eight empty keys between 0 and 8");
    }

    #[test]
    fn pop_min_stops_above_the_limit_without_moving() {
        let mut q = BucketQueue::new();
        q.reset(100);
        q.push(10, 3);
        q.push(70, 1);
        let mut scans = 0;
        assert_eq!(q.pop_min(9, &mut scans), None);
        assert_eq!((scans, q.len()), (0, 2), "a refused pop walks nothing");
        assert_eq!(q.pop_min(10, &mut scans), Some((10, 3)));
        assert_eq!(q.pop_min(69, &mut scans), None);
        assert_eq!(scans, 0, "the cursor stays at key 10");
        // A push below the refused key is still legal: the cursor did
        // not move past it.
        q.push(40, 2);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((40, 2)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((70, 1)));
        assert_eq!(scans, 60);
    }

    #[test]
    fn advance_moves_the_cursor_and_counts_its_walk() {
        let mut q = BucketQueue::new();
        q.reset(16);
        let mut scans = 0;
        // On a fresh queue, advance only places the cursor.
        q.advance_to(100, &mut scans);
        assert_eq!(scans, 0);
        q.push(110, 4);
        q.push(101, 9);
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((101, 9)));
        assert_eq!(scans, 1);
        q.advance_to(105, &mut scans);
        assert_eq!(scans, 5, "walked 101 -> 105");
        q.push(120, 2); // within span of the advanced cursor
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((110, 4)));
        assert_eq!(q.pop_min(u64::MAX, &mut scans), Some((120, 2)));
        assert_eq!(scans, 20);
    }

    #[test]
    fn fold_merges_keys_and_sorts_each_key_once() {
        let mut main = BucketQueue::new();
        let mut wave = BucketQueue::new();
        main.reset(8);
        wave.reset(8);
        let mut scans = 0;
        main.advance_to(20, &mut scans);
        main.push(22, 7);
        main.push(25, 1);
        for &(k, i) in &[(0u64, 5u32), (3, 8), (21, 6), (22, 3), (22, 9)] {
            wave.push(k, i);
        }
        assert_eq!(wave.pop_min(19, &mut scans), Some((0, 5)));
        assert_eq!(wave.pop_min(19, &mut scans), Some((3, 8)));
        assert_eq!(wave.pop_min(19, &mut scans), None);
        main.fold_from(&mut wave);
        assert!(wave.is_empty());
        assert_eq!(wave.pop_min(u64::MAX, &mut scans), None);
        let mut out = Vec::new();
        while let Some(e) = main.pop_min(u64::MAX, &mut scans) {
            out.push(e);
        }
        assert_eq!(out, vec![(21, 6), (22, 3), (22, 7), (22, 9), (25, 1)]);
    }

    /// Drains `q` up to `limit`, checking each pop against `reference`;
    /// every pop spawns up to two pushes within `span` above it. Returns
    /// the last popped key.
    fn drain(
        q: &mut BucketQueue,
        limit: u64,
        scans: &mut u64,
        reference: &mut BinaryHeap<Reverse<(u64, u32)>>,
        span: u64,
        next: &mut impl FnMut() -> u64,
    ) -> Option<u64> {
        let mut last = None;
        while let Some((k, i)) = q.pop_min(limit, scans) {
            assert_eq!(reference.pop(), Some(Reverse((k, i))), "span {span}");
            last = Some(k);
            for _ in 0..next() % 3 {
                let e = (k + 1 + next() % span, (next() % 500) as u32);
                q.push(e.0, e.1);
                reference.push(Reverse(e));
            }
        }
        let min = reference.peek().map(|r| r.0 .0);
        assert!(min.is_none_or(|m| m > limit), "span {span}");
        last
    }

    /// The resumable Prim frontier's protocol against one binary heap
    /// holding every entry: per step, a wave ring seeded at key 0 drains
    /// up to the horizon, the persisted ring advances past it and folds
    /// the wave's leftovers in, then drains up to a raised horizon. Pops
    /// from the two rings must come out in exactly the heap's
    /// `(key, index)` order, and the persisted ring's scans must be its
    /// cursor's walk.
    #[test]
    fn wave_fold_protocol_matches_heap_reference() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut main, mut wave) = (BucketQueue::new(), BucketQueue::new());
        for span in [1u64, 5, 63, 64, 65, 1000] {
            main.reset(span as usize);
            let mut reference: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut horizon = 0u64;
            let (mut main_scans, mut main_cursor) = (0u64, None::<u64>);
            for _ in 0..40 {
                wave.reset(span as usize);
                for _ in 0..1 + next() % 3 {
                    let e = (0, (next() % 500) as u32);
                    wave.push(e.0, e.1);
                    reference.push(Reverse(e));
                }
                let mut wave_scans = 0;
                drain(
                    &mut wave,
                    horizon,
                    &mut wave_scans,
                    &mut reference,
                    span,
                    &mut next,
                );
                main.advance_to(horizon + 1, &mut main_scans);
                main_cursor = Some(main_cursor.map_or(horizon + 1, |c: u64| c.max(horizon + 1)));
                main.fold_from(&mut wave);
                horizon += next() % (span + 1);
                if let Some(k) = drain(
                    &mut main,
                    horizon,
                    &mut main_scans,
                    &mut reference,
                    span,
                    &mut next,
                ) {
                    main_cursor = Some(k);
                }
                assert_eq!(Some(main_scans + 1), main_cursor, "span {span}");
            }
        }
    }

    /// A Dijkstra-shaped workload (every push strictly above the popped
    /// key, within `span`) against a binary heap: pop order must be exactly
    /// `(key, index)` and the scan counter exactly the keys walked from the
    /// first pop, for spans on both sides of one occupancy word.
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
            q.reset(span as usize);
            let mut reference = BinaryHeap::new();
            for _ in 0..3 {
                let e = (next() % span, (next() % 1000) as u32);
                q.push(e.0, e.1);
                reference.push(Reverse(e));
            }
            let first = reference.peek().map(|r| r.0 .0).unwrap();
            let mut scans = 0;
            let mut budget = 2000;
            while let Some((k, i)) = q.pop_min(u64::MAX, &mut scans) {
                assert_eq!(Some(Reverse((k, i))), reference.pop(), "span {span}");
                assert_eq!(scans, k - first, "span {span}");
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
