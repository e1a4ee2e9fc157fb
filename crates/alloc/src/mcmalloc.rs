//! Model of MCMalloc (§III-A7).
//!
//! Structure: global pools split by allocation-frequency monitoring into
//! dedicated homogeneous pools (frequent sizes) and size-segregated
//! pools (infrequent), with fine-grained per-class locking and — its
//! signature move — *batched* OS requests: many chunks are mapped per
//! system call, and refill batches are sized from the observed global
//! allocation rate. Because the rate grows with the thread count and
//! every thread privately caches a rate-sized batch, the resident set
//! grows superlinearly with threads: the Figure 2b overhead explosion
//! (≈1.1× at one thread to ≈6.6× at sixteen) that gets mcmalloc dropped
//! from the paper's later experiments.

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::{ClassPool, ThreadCache};
use crate::size_class::{class_of, CLASSES, MAX_SMALL, NUM_CLASSES};
use crate::{maybe_thp_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every operation.
const OP_CYCLES: u64 = 30;
/// Extra per-op cost while a class is still being monitored.
const MONITOR_CYCLES: u64 = 20;
/// Ops before a class graduates from the monitor to a dedicated pool.
const MONITOR_OPS: u64 = 64;
/// Critical-section length of a pool operation.
const POOL_HOLD_CYCLES: u64 = 40;
/// Per-thread refill batch: this many bytes *per seen thread* — the
/// rate-scaled batching that blows up the resident set.
const BATCH_BYTES_PER_THREAD: u64 = 16 << 10;
/// Per-block header.
const HEADER: u64 = 16;

/// See module docs.
pub struct McMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    pools: ClassPool,
    class_locks: Vec<LockId>,
    caches: Vec<ThreadCache>,
    /// Per-class op counts for the frequency monitor.
    monitor_ops: Vec<u64>,
    threads_seen: u64,
}

impl McMalloc {
    /// Build the model.
    pub fn new(sim: &mut NumaSim) -> Self {
        McMalloc {
            src: ChunkSource::new(4 << 20), // batched OS requests
            requested: RequestedBytes::default(),
            pools: ClassPool::new(16 << 10, HEADER),
            class_locks: (0..NUM_CLASSES).map(|_| sim.new_lock()).collect(),
            caches: Vec::new(),
            monitor_ops: vec![0; NUM_CLASSES],
            threads_seen: 0,
        }
    }

    fn cache_of(&mut self, tid: usize) -> &mut ThreadCache {
        while self.caches.len() <= tid {
            self.caches.push(ThreadCache::new(usize::MAX / 2));
            self.threads_seen += 1;
        }
        &mut self.caches[tid]
    }
}

impl Allocator for McMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Mcmalloc
    }

    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        w.compute(OP_CYCLES);
        self.requested.on_alloc(size);
        if size > MAX_SMALL {
            return self.src.grab_sized(w, size);
        }
        let (class, class_size) = class_of(size);
        self.monitor_ops[class] += 1;
        if self.monitor_ops[class] <= MONITOR_OPS {
            w.compute(MONITOR_CYCLES);
        }
        let tid = w.tid();
        if let Some(addr) = self.cache_of(tid).get(class) {
            return addr;
        }
        // Refill a rate-scaled batch from the dedicated pool.
        let batch_blocks = ((BATCH_BYTES_PER_THREAD * self.threads_seen.max(1))
            / CLASSES[class])
            .clamp(8, 16384) as usize;
        w.lock(self.class_locks[class], POOL_HOLD_CYCLES);
        w.compute(POOL_HOLD_CYCLES); // the critical-section work itself
        let first = self.pools.alloc_block(w, &mut self.src, class, class_size);
        maybe_thp_tax(w, self.thp_friendly(), first);
        let batch: Vec<VAddr> = (1..batch_blocks)
            .map(|_| self.pools.alloc_block(w, &mut self.src, class, class_size))
            .collect();
        self.cache_of(tid).refill(class, batch);
        first
    }

    fn free(&mut self, w: &mut Worker<'_>, addr: VAddr, size: u64) {
        w.compute(OP_CYCLES);
        self.requested.on_free(size);
        if size > MAX_SMALL {
            self.src.release_sized(addr, size);
            return;
        }
        let (class, _) = class_of(size);
        let _ = w.read_u64(addr - HEADER);
        // Freed blocks stay in the thread's private batch cache: mcmalloc
        // avoids kernel traffic at the cost of consolidation.
        let tid = w.tid();
        let _ = self.cache_of(tid).put(class, addr);
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

    fn overhead_at(threads: usize) -> f64 {
        let mut sim = sim();
        let mut mc = McMalloc::new(&mut sim);
        sim.try_parallel(threads, &mut mc, |w, mc| {
            // Steady live set per thread across a few classes.
            let mut live = Vec::new();
            for i in 0..300u64 {
                let size = [64u64, 256, 1024][(i % 3) as usize];
                live.push((mc.alloc(w, size), size));
                if live.len() > 200 {
                    let (p, s) = live.swap_remove(0);
                    mc.free(w, p, s);
                }
            }
            std::mem::forget(live);
        }).unwrap();
        mc.overhead()
    }

    #[test]
    fn overhead_grows_with_thread_count() {
        let o1 = overhead_at(1);
        let o8 = overhead_at(8);
        // Rate-scaled batches ramp up as threads are first seen, so this
        // short run understates the asymptotic growth; the microbenchmark
        // test covers the full Figure 2b explosion.
        assert!(o8 > 1.5 * o1, "o1={o1:.2} o8={o8:.2}");
    }

    #[test]
    fn monitor_tax_applies_only_to_early_ops() {
        let mut sim = sim();
        let mc = McMalloc::new(&mut sim);
        let mut shared = (mc, 0u64, 0u64);
        sim.try_serial(&mut shared, |w, (mc, early, late)| {
            let before = w.clock();
            let p = mc.alloc(w, 64);
            *early = w.clock() - before;
            mc.free(w, p, 64);
            // Burn through the monitor window.
            for _ in 0..MONITOR_OPS {
                let p = mc.alloc(w, 64);
                mc.free(w, p, 64);
            }
            let before = w.clock();
            let p = mc.alloc(w, 64);
            *late = w.clock() - before;
            mc.free(w, p, 64);
        }).unwrap();
        assert!(shared.1 > shared.2, "early={} late={}", shared.1, shared.2);
    }

    #[test]
    fn few_os_calls_thanks_to_batching() {
        let mut sim = sim();
        let mut mc = McMalloc::new(&mut sim);
        sim.try_serial(&mut mc, |w, mc| {
            for _ in 0..2000 {
                let p = mc.alloc(w, 64);
                mc.free(w, p, 64);
            }
        }).unwrap();
        assert!(mc.src.os_calls() <= 2, "os_calls={}", mc.src.os_calls());
    }
}
