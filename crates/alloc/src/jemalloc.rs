//! Model of jemalloc (§III-A2).
//!
//! Structure: arenas maintained per CPU (modelled as 4 arenas per NUMA
//! node), threads assigned round-robin; a large per-thread cache covers
//! every small class, so most operations avoid arena synchronisation
//! entirely; metadata lives out of band (a radix tree keyed by chunk),
//! so blocks carry no headers and allocations pack tightly — jemalloc's
//! low-fragmentation, low-overhead profile in Figure 2b.
//!
//! jemalloc purges dirty pages with `madvise` at 4 KB granularity, which
//! fights khugepaged when THP is on (`thp_friendly = false`, Figure 5c).

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::{ClassPool, ThreadCache};
use crate::size_class::{class_of, MAX_SMALL};
use crate::{maybe_thp_tax, thp_op_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every operation.
const OP_CYCLES: u64 = 24;
/// Critical-section length of an arena operation.
const ARENA_HOLD_CYCLES: u64 = 50;
/// tcache slots per class.
const TCACHE_SLOTS: usize = 16;
/// Arena refill batch taken under one lock acquisition.
const REFILL_BATCH: usize = 4;

struct Arena {
    pool: ClassPool,
    lock: LockId,
}

/// See module docs.
pub struct JeMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    arenas: Vec<Arena>,
    tcaches: Vec<ThreadCache>,
}

impl JeMalloc {
    /// Build the model with `4 x nodes` arenas.
    pub fn new(sim: &mut NumaSim) -> Self {
        let narenas = 4 * sim.config().machine.topology.num_nodes();
        let arenas = (0..narenas)
            .map(|_| Arena { pool: ClassPool::new(4 << 10, 0), lock: sim.new_lock() })
            .collect();
        JeMalloc {
            src: ChunkSource::new(2 << 20),
            requested: RequestedBytes::default(),
            arenas,
            tcaches: Vec::new(),
        }
    }

    fn tcache_of(&mut self, tid: usize) -> &mut ThreadCache {
        while self.tcaches.len() <= tid {
            self.tcaches.push(ThreadCache::new(TCACHE_SLOTS));
        }
        &mut self.tcaches[tid]
    }

    fn arena_idx(&self, tid: usize) -> usize {
        tid % self.arenas.len()
    }

    /// Touch the out-of-band radix-tree metadata for the chunk holding
    /// `addr` (one cache line per lookup).
    fn touch_radix(&self, w: &mut Worker<'_>, addr: VAddr) {
        let chunk_base = addr & !((2u64 << 20) - 1);
        if chunk_base >= 4096 {
            w.touch(chunk_base, 8, nqp_sim::Access::Read);
        }
    }
}

impl Allocator for JeMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Jemalloc
    }

    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        w.compute(OP_CYCLES);
        thp_op_tax(w, self.thp_friendly());
        self.requested.on_alloc(size);
        if size > MAX_SMALL {
            let a = self.src.grab_sized(w, size);
            maybe_thp_tax(w, self.thp_friendly(), a);
            return a;
        }
        let (class, class_size) = class_of(size);
        let tid = w.tid();
        if let Some(addr) = self.tcache_of(tid).get(class) {
            return addr;
        }
        // Refill a batch from the arena under one lock acquisition.
        let a = self.arena_idx(tid);
        let friendly = self.thp_friendly();
        let arena = &mut self.arenas[a];
        w.lock(arena.lock, ARENA_HOLD_CYCLES);
        w.compute(ARENA_HOLD_CYCLES); // the critical-section work itself
        let first = arena.pool.alloc_block(w, &mut self.src, class, class_size);
        maybe_thp_tax(w, friendly, first);
        self.touch_radix(w, first);
        let batch: Vec<VAddr> = (1..REFILL_BATCH)
            .map(|_| self.arenas[a].pool.alloc_block(w, &mut self.src, class, class_size))
            .collect();
        self.tcache_of(tid).refill(class, batch);
        first
    }

    fn free(&mut self, w: &mut Worker<'_>, addr: VAddr, size: u64) {
        w.compute(OP_CYCLES);
        thp_op_tax(w, self.thp_friendly());
        self.requested.on_free(size);
        if size > MAX_SMALL {
            maybe_thp_tax(w, self.thp_friendly(), addr);
            self.src.release_sized(addr, size);
            return;
        }
        let (class, _) = class_of(size);
        self.touch_radix(w, addr);
        let tid = w.tid();
        if let Some(overflow) = self.tcache_of(tid).put(class, addr) {
            let a = self.arena_idx(tid);
            let friendly = self.thp_friendly();
            let arena = &mut self.arenas[a];
            w.lock(arena.lock, ARENA_HOLD_CYCLES);
        w.compute(ARENA_HOLD_CYCLES); // the critical-section work itself
            maybe_thp_tax(w, friendly, addr);
            arena.pool.accept(w, class, overflow);
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
        false
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
    fn arena_count_is_four_per_node() {
        let mut sim = sim();
        let je = JeMalloc::new(&mut sim);
        assert_eq!(je.arenas.len(), 16);
    }

    #[test]
    fn refill_batches_amortise_arena_locks() {
        let mut sim = sim();
        let mut je = JeMalloc::new(&mut sim);
        let mut lock_waits = 0;
        let stats = sim.try_parallel(8, &mut je, |w, je| {
            let mut live = Vec::new();
            for _ in 0..200 {
                live.push(je.alloc(w, 64));
            }
            for p in live {
                je.free(w, p, 64);
            }
        }).unwrap();
        lock_waits += stats.counters.lock_wait_cycles;
        // 1600 allocations but only ~100 arena trips (batch 16): waits are
        // bounded well below one lock hold per allocation.
        assert!(lock_waits < 1600 * ARENA_HOLD_CYCLES, "waits={lock_waits}");
    }

    #[test]
    fn packs_tightly_low_overhead() {
        let mut sim = sim();
        let mut je = JeMalloc::new(&mut sim);
        sim.try_parallel(4, &mut je, |w, je| {
            let mut live = Vec::new();
            for i in 0..2000u64 {
                let size = 16 << (i % 4);
                live.push((je.alloc(w, size), size));
            }
            // Keep everything live so requested ~ resident.
            std::mem::forget(live);
        }).unwrap();
        assert!(je.overhead() < 3.0, "overhead {}", je.overhead());
    }
}
