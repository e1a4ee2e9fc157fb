//! Model of SuperMalloc (§III-A6).
//!
//! Structure: homogeneous chunks of same-sized objects, a 512 MB virtual
//! lookup table mapping chunk → metadata, and global synchronisation —
//! hardware transactional memory where available, otherwise a pthread
//! mutex with data prefetched before the critical section to keep it
//! short. Machine A's Opterons and Machine B's Nehalem-era Xeons have no
//! HTM, so the model takes the mutex path: a short hold, but *one* lock
//! shared by all threads, which is why supermalloc falls off the
//! scalability cliff in Figure 2a and the paper drops it from later
//! experiments. A small per-thread cache keeps the single-thread cost
//! merely mediocre rather than terrible.

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::{ClassPool, ThreadCache};
use crate::size_class::{class_of, MAX_SMALL};
use crate::{Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, SimResult, VAddr, Worker};

/// Base cost of every operation (chunk-table arithmetic included).
const OP_CYCLES: u64 = 40;
/// Critical-section length: short, thanks to the prefetch trick.
const GLOBAL_HOLD_CYCLES: u64 = 45;
/// Per-thread cache slots per class — deliberately small.
const CACHE_SLOTS: usize = 8;

/// See module docs.
pub struct SuperMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    pools: ClassPool,
    global_lock: LockId,
    caches: Vec<ThreadCache>,
    /// Base address of the chunk lookup table (touched on slow paths).
    table: VAddr,
}

impl SuperMalloc {
    /// Build the model; the lookup table is mapped eagerly (sparsely
    /// committed in the real allocator) in a serial region, which can
    /// fault like any other.
    pub fn new(sim: &mut NumaSim) -> SimResult<Self> {
        let global_lock = sim.new_lock();
        let mut table = 0;
        sim.try_serial(&mut table, |w, table| {
            *table = w.map_pages(1 << 20);
        })?;
        Ok(SuperMalloc {
            src: ChunkSource::new(2 << 20),
            requested: RequestedBytes::default(),
            pools: ClassPool::new(8 << 10, 0),
            global_lock,
            caches: Vec::new(),
            table,
        })
    }

    fn cache_of(&mut self, tid: usize) -> &mut ThreadCache {
        while self.caches.len() <= tid {
            self.caches.push(ThreadCache::new(CACHE_SLOTS));
        }
        &mut self.caches[tid]
    }

    /// Touch the chunk lookup table entry for `addr`.
    fn touch_table(&self, w: &mut Worker<'_>, addr: VAddr) {
        let slot = (addr >> 21) % ((1 << 20) / 8);
        w.touch(self.table + slot * 8, 8, nqp_sim::Access::Read);
    }
}

impl Allocator for SuperMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Supermalloc
    }

    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        w.compute(OP_CYCLES);
        self.requested.on_alloc(size);
        if size > MAX_SMALL {
            return self.src.grab_sized(w, size);
        }
        let (class, class_size) = class_of(size);
        let tid = w.tid();
        if let Some(addr) = self.cache_of(tid).get(class) {
            return addr;
        }
        // Global mutex path: prefetch happened outside (modelled in
        // OP_CYCLES), hold is short.
        w.lock(self.global_lock, GLOBAL_HOLD_CYCLES);
        w.compute(GLOBAL_HOLD_CYCLES); // the critical-section work itself
        let addr = self.pools.alloc_block(w, &mut self.src, class, class_size);
        self.touch_table(w, addr);
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
        self.touch_table(w, addr);
        let tid = w.tid();
        if let Some(overflow) = self.cache_of(tid).put(class, addr) {
            w.lock(self.global_lock, GLOBAL_HOLD_CYCLES);
        w.compute(GLOBAL_HOLD_CYCLES); // the critical-section work itself
            self.pools.accept(w, class, overflow);
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
            SimConfig::os_default(machines::machine_a())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        )
    }

    fn churn(threads: usize) -> u64 {
        let mut sim = sim();
        let mut sm = SuperMalloc::new(&mut sim).unwrap();
        let stats = sim.try_parallel(threads, &mut sm, |w, sm| {
            let mut live = Vec::new();
            for i in 0..300u64 {
                let size = 32 << (i % 4);
                live.push((sm.alloc(w, size), size));
                if live.len() > 80 {
                    let (p, s) = live.swap_remove(0);
                    sm.free(w, p, s);
                }
            }
            for (p, s) in live {
                sm.free(w, p, s);
            }
        }).unwrap();
        stats.counters.lock_wait_cycles
    }

    #[test]
    fn single_global_lock_contends_badly() {
        let w1 = churn(1);
        let w16 = churn(16);
        assert_eq!(w1, 0);
        assert!(w16 > 10_000, "global mutex barely contended: {w16}");
    }

    #[test]
    fn lookup_table_stays_within_its_mapping() {
        let mut sim = sim();
        let mut sm = SuperMalloc::new(&mut sim).unwrap();
        // Any address must map to a slot inside the 1MB table.
        sim.try_serial(&mut sm, |w, sm| {
            for shift in 0..40u64 {
                sm.touch_table(w, 1u64 << shift);
            }
        }).unwrap();
        // Reaching here without the sim panicking on an unmapped touch
        // is the assertion.
    }

    #[test]
    fn low_memory_overhead() {
        let mut sim = sim();
        let mut sm = SuperMalloc::new(&mut sim).unwrap();
        sim.try_parallel(8, &mut sm, |w, sm| {
            let live: Vec<(VAddr, u64)> = (0..500u64)
                .map(|i| (sm.alloc(w, 64 + (i % 512)), 64 + (i % 512)))
                .collect();
            std::mem::forget(live);
        }).unwrap();
        assert!(sm.overhead() < 3.0, "overhead {}", sm.overhead());
    }
}
