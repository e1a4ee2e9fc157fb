//! Building blocks shared by the allocator models: per-class pools with
//! bump regions and free lists, and bounded per-thread caches.

use crate::chunks::ChunkSource;
use crate::size_class::NUM_CLASSES;
use nqp_sim::{VAddr, Worker};

/// One bump region + free list per size class — the core of an "arena",
/// "heap", or "central cache" depending on the allocator.
#[derive(Debug)]
pub struct ClassPool {
    free: Vec<Vec<VAddr>>,
    bump: Vec<(VAddr, VAddr)>,
    /// Metadata region in simulated memory: one cache line per class
    /// (bin head) plus a shared top-chunk line. Touched on every pool
    /// operation, so a pool shared across threads on different nodes has
    /// its metadata lines ping-pong between caches — the coherence cost
    /// that makes contended arenas slow in real allocators. Mapped
    /// lazily on first use.
    meta: VAddr,
    /// The pool's current chunk, shared by all classes: class regions are
    /// carved from here, so per-class slack is one *region*, not one
    /// whole chunk.
    chunk: (VAddr, VAddr),
    /// Per-block header bytes carved alongside each block (boundary tags).
    header: u64,
    /// Bytes carved per class-region refill.
    region_bytes: u64,
}

impl ClassPool {
    /// A pool whose refill regions are `region_bytes` and whose blocks
    /// carry `header` bytes of in-band metadata each.
    pub fn new(region_bytes: u64, header: u64) -> Self {
        ClassPool {
            free: vec![Vec::new(); NUM_CLASSES],
            bump: vec![(0, 0); NUM_CLASSES],
            meta: 0,
            chunk: (0, 0),
            header,
            region_bytes,
        }
    }

    /// Touch the pool's metadata lines for `class` (bin head + top chunk).
    fn touch_meta(&mut self, w: &mut Worker<'_>, class: usize) {
        if self.meta == 0 {
            self.meta = w.map_pages(4096);
        }
        w.touch(self.meta + class as u64 * 64, 8, nqp_sim::Access::Write);
        w.touch(self.meta + 2048, 8, nqp_sim::Access::Write);
    }

    /// Carve `want` bytes from the pool chunk, grabbing a fresh chunk
    /// from `src` when the current one is exhausted (the remainder of the
    /// old chunk is abandoned as slack). Commits the carved bytes.
    fn carve(&mut self, w: &mut Worker<'_>, src: &mut ChunkSource, want: u64) -> VAddr {
        let (cur, end) = self.chunk;
        if cur + want <= end {
            self.chunk = (cur + want, end);
            src.commit(want);
            return cur;
        }
        let (addr, len) = src.grab(w, want);
        self.chunk = (addr + want, addr + len);
        src.commit(want);
        addr
    }

    /// Pop a free block or carve one from the bump region, refilling from
    /// `src` when exhausted. Returns the *payload* address.
    pub fn alloc_block(
        &mut self,
        w: &mut Worker<'_>,
        src: &mut ChunkSource,
        class: usize,
        class_size: u64,
    ) -> VAddr {
        self.touch_meta(w, class);
        if let Some(addr) = self.free[class].pop() {
            return addr;
        }
        let stride = class_size + self.header;
        let (cur, end) = self.bump[class];
        if cur + stride <= end {
            self.bump[class] = (cur + stride, end);
            return cur + self.header;
        }
        let want = self.region_bytes.max(stride);
        let addr = self.carve(w, src, want);
        self.bump[class] = (addr + stride, addr + want);
        addr + self.header
    }

    /// Whether the next `alloc_block` for `class` would have to carve a
    /// fresh region (freelist empty, bump exhausted, pool chunk unable to
    /// satisfy the region) — i.e. whether it would hit the backing chunk
    /// source. Lets allocators take their refill locks only when refilling
    /// actually happens.
    pub fn needs_refill(&self, class: usize, class_size: u64) -> bool {
        if !self.free[class].is_empty() {
            return false;
        }
        let stride = class_size + self.header;
        let (cur, end) = self.bump[class];
        if cur + stride <= end {
            return false;
        }
        let (ccur, cend) = self.chunk;
        ccur + self.region_bytes.max(stride) > cend
    }

    /// Return a payload address to the class free list.
    pub fn free_block(&mut self, w: &mut Worker<'_>, class: usize, addr: VAddr) {
        self.touch_meta(w, class);
        self.free[class].push(addr);
    }

    /// Move up to `n` free blocks of `class` out of this pool (for
    /// batch transfers to a central structure). One metadata touch per
    /// batch.
    pub fn drain(&mut self, w: &mut Worker<'_>, class: usize, n: usize) -> Vec<VAddr> {
        self.touch_meta(w, class);
        let list = &mut self.free[class];
        let keep = list.len().saturating_sub(n);
        list.split_off(keep)
    }

    /// Add a batch of free blocks (a transfer in from elsewhere). One
    /// metadata touch per batch.
    pub fn accept(&mut self, w: &mut Worker<'_>, class: usize, blocks: Vec<VAddr>) {
        self.touch_meta(w, class);
        self.free[class].extend(blocks);
    }

    /// Free blocks currently cached for `class`.
    pub fn free_count(&self, class: usize) -> usize {
        self.free[class].len()
    }

    /// Configured per-block header bytes.
    pub fn header(&self) -> u64 {
        self.header
    }
}

/// A bounded per-thread cache of free blocks, one list per class.
#[derive(Debug, Clone)]
pub struct ThreadCache {
    lists: Vec<Vec<VAddr>>,
    max_per_class: usize,
}

impl ThreadCache {
    /// Cache holding at most `max_per_class` blocks per class.
    pub fn new(max_per_class: usize) -> Self {
        ThreadCache { lists: vec![Vec::new(); NUM_CLASSES], max_per_class }
    }

    /// Take a cached block, if any.
    #[inline]
    pub fn get(&mut self, class: usize) -> Option<VAddr> {
        self.lists[class].pop()
    }

    /// Cache a freed block. When the class list is full, returns a batch
    /// of half the list that the caller must flush to its backing pool.
    #[inline]
    pub fn put(&mut self, class: usize, addr: VAddr) -> Option<Vec<VAddr>> {
        let list = &mut self.lists[class];
        list.push(addr);
        if list.len() > self.max_per_class {
            let half = list.len() / 2;
            Some(list.split_off(half))
        } else {
            None
        }
    }

    /// Insert a refill batch obtained from a backing pool.
    pub fn refill(&mut self, class: usize, blocks: Vec<VAddr>) {
        self.lists[class].extend(blocks);
    }

    /// Blocks cached across all classes.
    pub fn total_cached(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Blocks cached for one class.
    pub fn class_len(&self, class: usize) -> usize {
        self.lists[class].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::{NumaSim, SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    fn in_sim(f: impl FnMut(&mut Worker<'_>, &mut ())) {
        let cfg = SimConfig::os_default(machines::machine_b())
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false);
        NumaSim::new(cfg).try_serial(&mut (), f).unwrap();
    }

    #[test]
    fn pool_blocks_do_not_overlap() {
        in_sim(|w, _| {
            let mut src = ChunkSource::new(1 << 16);
            let mut pool = ClassPool::new(4096, 16);
            let mut addrs: Vec<VAddr> = (0..100)
                .map(|_| pool.alloc_block(w, &mut src, 4, 96))
                .collect();
            addrs.sort_unstable();
            for pair in addrs.windows(2) {
                assert!(pair[1] - pair[0] >= 96 + 16, "blocks overlap: {pair:?}");
            }
        });
    }

    #[test]
    fn freed_blocks_are_recycled_lifo() {
        in_sim(|w, _| {
            let mut src = ChunkSource::new(1 << 16);
            let mut pool = ClassPool::new(4096, 0);
            let a = pool.alloc_block(w, &mut src, 0, 16);
            let b = pool.alloc_block(w, &mut src, 0, 16);
            pool.free_block(w, 0, a);
            pool.free_block(w, 0, b);
            assert_eq!(pool.alloc_block(w, &mut src, 0, 16), b);
            assert_eq!(pool.alloc_block(w, &mut src, 0, 16), a);
        });
    }

    #[test]
    fn drain_and_accept_move_batches() {
        in_sim(|w, _| {
            let mut src = ChunkSource::new(1 << 16);
            let mut pool = ClassPool::new(4096, 0);
            let addrs: Vec<VAddr> = (0..10)
                .map(|_| pool.alloc_block(w, &mut src, 2, 48))
                .collect();
            for &a in &addrs {
                pool.free_block(w, 2, a);
            }
            let batch = pool.drain(w, 2, 4);
            assert_eq!(batch.len(), 4);
            assert_eq!(pool.free_count(2), 6);
            let mut other = ClassPool::new(4096, 0);
            other.accept(w, 2, batch);
            assert_eq!(other.free_count(2), 4);
        });
    }

    #[test]
    fn header_offsets_payloads() {
        in_sim(|w, _| {
            let mut src = ChunkSource::new(1 << 16);
            let mut pool = ClassPool::new(4096, 16);
            let a = pool.alloc_block(w, &mut src, 0, 16);
            // The first block of a fresh region starts one header past it.
            assert_eq!(a % 4096, 16);
        });
    }

    #[test]
    fn thread_cache_overflow_returns_flush_batch() {
        let mut tc = ThreadCache::new(4);
        assert_eq!(tc.put(0, 1), None);
        assert_eq!(tc.put(0, 2), None);
        assert_eq!(tc.put(0, 3), None);
        assert_eq!(tc.put(0, 4), None);
        let flushed = tc.put(0, 5).expect("fifth insert overflows");
        assert_eq!(flushed.len(), 3);
        assert_eq!(tc.total_cached(), 2);
    }

    #[test]
    fn thread_cache_get_refill_round_trip() {
        let mut tc = ThreadCache::new(8);
        assert_eq!(tc.get(3), None);
        tc.refill(3, vec![10, 20, 30]);
        assert_eq!(tc.get(3), Some(30));
        assert_eq!(tc.total_cached(), 2);
    }
}
