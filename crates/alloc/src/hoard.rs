//! Model of Hoard (§III-A4).
//!
//! Structure: a global heap (the "hoard") behind one lock, plus
//! per-thread heaps selected by hashing the thread id into a fixed heap
//! array (2 × cores heaps). Threads allocate from superblocks owned by
//! their heap; when a heap accumulates too much free memory, whole
//! superblock-loads move to the global heap for reuse elsewhere —
//! Hoard's bounded-blowup invariant. Because a heap is effectively
//! private at sane thread counts, Hoard scales almost flat in Figure 2a;
//! the per-heap superblock slack is why its overhead ticks up at higher
//! thread counts in Figure 2b.

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::ClassPool;
use crate::size_class::{class_of, MAX_SMALL};
use crate::{maybe_thp_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every operation.
const OP_CYCLES: u64 = 14;
/// Critical-section length of a per-heap operation (uncontended at sane
/// thread counts thanks to the heap hash).
const HEAP_HOLD_CYCLES: u64 = 15;
/// Critical-section length of a global-heap transfer.
const GLOBAL_HOLD_CYCLES: u64 = 80;
/// Superblock size: each heap refills in units of this.
const SUPERBLOCK: u64 = 16 << 10;
/// Free blocks a heap may hold per class before evicting to the hoard.
const EMPTINESS_LIMIT: usize = 256;
/// Per-block header (space only; Hoard keeps per-superblock metadata on
/// the superblock itself, so no extra line is touched per operation).
const HEADER: u64 = 0; // metadata lives at the superblock head, not per object

struct Heap {
    pool: ClassPool,
    lock: LockId,
}

/// See module docs.
pub struct Hoard {
    src: ChunkSource,
    requested: RequestedBytes,
    heaps: Vec<Heap>,
    global: ClassPool,
    global_lock: LockId,
}

impl Hoard {
    /// Build the model with `2 x cores` per-thread heaps.
    pub fn new(sim: &mut NumaSim) -> Self {
        let nheaps = (2 * sim.config().machine.total_cores()).max(1);
        let heaps = (0..nheaps)
            .map(|_| Heap { pool: ClassPool::new(SUPERBLOCK, HEADER), lock: sim.new_lock() })
            .collect();
        Hoard {
            src: ChunkSource::new(SUPERBLOCK),
            requested: RequestedBytes::default(),
            heaps,
            global: ClassPool::new(SUPERBLOCK, HEADER),
            global_lock: sim.new_lock(),
        }
    }

    fn heap_idx(&self, tid: usize) -> usize {
        // Hoard hashes thread ids onto heaps; a multiplicative hash keeps
        // consecutive tids on distinct heaps.
        (tid.wrapping_mul(0x9e37_79b1)) % self.heaps.len()
    }
}

impl Allocator for Hoard {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Hoard
    }

    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        w.compute(OP_CYCLES);
        self.requested.on_alloc(size);
        if size > MAX_SMALL {
            return self.src.grab_sized(w, size);
        }
        let (class, class_size) = class_of(size);
        let h = self.heap_idx(w.tid());
        let heap = &mut self.heaps[h];
        if heap.pool.needs_refill(class, class_size) {
            // Heap mutex taken only when superblocks move (refill or
            // adoption); common allocations stay on the owner's
            // superblock without synchronisation.
            w.lock(heap.lock, HEAP_HOLD_CYCLES);
            w.compute(HEAP_HOLD_CYCLES);
            // Out of superblock space: adopt freed blocks from the global
            // hoard before mapping fresh memory.
            let batch = {
                w.lock(self.global_lock, GLOBAL_HOLD_CYCLES);
                w.compute(GLOBAL_HOLD_CYCLES);
                self.global.drain(w, class, 32)
            };
            if !batch.is_empty() {
                self.heaps[h].pool.accept(w, class, batch);
            }
        }
        let heap = &mut self.heaps[h];
        let addr = heap.pool.alloc_block(w, &mut self.src, class, class_size);
        maybe_thp_tax(w, self.thp_friendly(), addr);
        addr
    }

    fn free(&mut self, w: &mut Worker<'_>, addr: VAddr, size: u64) {
        w.compute(OP_CYCLES);
        self.requested.on_free(size);
        if size > MAX_SMALL {
            self.src.release_sized(addr, size);
            return;
        }
        let (class, _) = class_of(size);
        // Owner frees push onto the superblock's lock-free stack (the
        // heap mutex is only contended by adoption/eviction transfers).
        let h = self.heap_idx(w.tid());
        let heap = &mut self.heaps[h];
        heap.pool.free_block(w, class, addr);
        // Emptiness invariant: evict surplus free memory to the hoard.
        if heap.pool.free_count(class) > EMPTINESS_LIMIT {
            let batch = heap.pool.drain(w, class, EMPTINESS_LIMIT / 2);
            w.lock(self.global_lock, GLOBAL_HOLD_CYCLES);
            self.global.accept(w, class, batch);
        }
    }

    fn peak_resident(&self) -> u64 {
        self.src.peak_committed()
    }

    fn peak_requested(&self) -> u64 {
        self.requested.peak()
    }

    fn live_requested(&self) -> u64 {
        self.requested.live()
    }

    fn thp_friendly(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::{SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    fn sim() -> NumaSim {
        NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        )
    }

    #[test]
    fn consecutive_threads_use_distinct_heaps() {
        let mut sim = sim();
        let h = Hoard::new(&mut sim);
        let heaps: Vec<usize> = (0..8).map(|t| h.heap_idx(t)).collect();
        let mut unique = heaps.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8, "hash collisions at 8 threads: {heaps:?}");
    }

    #[test]
    fn surplus_free_memory_moves_to_global_hoard() {
        let mut sim = sim();
        let mut h = Hoard::new(&mut sim);
        sim.try_serial(&mut h, |w, h| {
            let blocks: Vec<VAddr> = (0..400).map(|_| h.alloc(w, 64)).collect();
            for b in blocks {
                h.free(w, b, 64);
            }
        }).unwrap();
        let (class, _) = class_of(64);
        assert!(
            h.global.free_count(class) > 0,
            "emptiness threshold never triggered"
        );
    }

    #[test]
    fn global_blocks_are_adopted_by_other_heaps() {
        let mut sim = sim();
        let mut h = Hoard::new(&mut sim);
        // Thread 0 frees a pile; thread 1 should adopt from the hoard
        // rather than growing the resident set.
        sim.try_parallel(2, &mut h, |w, h| {
            if w.tid() == 0 {
                let blocks: Vec<VAddr> = (0..400).map(|_| h.alloc(w, 64)).collect();
                for b in blocks {
                    h.free(w, b, 64);
                }
            } else {
                let resident_before = h.src.peak_resident();
                let _p = h.alloc(w, 64);
                // Allocation served from adopted blocks: no new superblock.
                assert_eq!(h.src.peak_resident(), resident_before);
            }
        }).unwrap();
    }

    #[test]
    fn scales_without_global_contention_for_private_churn() {
        let mut sim = sim();
        let mut h = Hoard::new(&mut sim);
        let stats = sim.try_parallel(8, &mut h, |w, h| {
            let mut live = Vec::new();
            for _ in 0..200 {
                live.push(h.alloc(w, 128));
                if live.len() > 32 {
                    let p = live.swap_remove(0);
                    h.free(w, p, 128);
                }
            }
            for p in live {
                h.free(w, p, 128);
            }
        }).unwrap();
        // Distinct heaps: lock waits should be negligible relative to the
        // ~3200 operations x ~26 cycles of base work.
        assert!(
            stats.counters.lock_wait_cycles < 20_000,
            "waits={}",
            stats.counters.lock_wait_cycles
        );
    }
}
