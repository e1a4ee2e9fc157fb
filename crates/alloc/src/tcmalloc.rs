//! Model of tcmalloc (§III-A3).
//!
//! Structure: lock-free per-thread caches in front of a central heap
//! organised into spans, one freelist + lock per size class. The fast
//! path is the cheapest of all seven models (tcmalloc wins the
//! single-threaded microbenchmark), but the thread cache is small, so
//! allocation-heavy multi-threaded workloads fall through to the central
//! per-class locks — which every thread shares — and scalability
//! collapses, exactly the Figure 2a shape. Spans dedicated to one class
//! waste memory when many classes are in flight (the modest overhead of
//! Figure 2b), and page-level span decommit fights THP (Figure 5c).

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::{ClassPool, ThreadCache};
use crate::size_class::{class_of, CLASSES, MAX_SMALL, NUM_CLASSES};
use crate::{maybe_thp_tax, thp_op_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every operation — the fastest fast path of the seven.
const OP_CYCLES: u64 = 8;
/// Critical-section length of a central span-list operation (span
/// carving and page-map updates are heavier than a freelist pop).
const CENTRAL_HOLD_CYCLES: u64 = 350;
/// Critical-section length of the page-heap lock that every central
/// trip crosses — the one lock all classes share, and the reason
/// tcmalloc's scalability collapses once several threads churn.
const PAGEHEAP_HOLD_CYCLES: u64 = 300;
/// Objects moved per central trip.
const TRANSFER_BATCH: usize = 16;
/// Allocations between thread-cache scavenges: tcmalloc periodically
/// garbage-collects its caches back to the central lists, which is what
/// drags every thread onto the shared class locks once more than one
/// thread allocates in earnest (the Figure 2a collapse).
const SCAVENGE_EVERY: u64 = 8;

/// See module docs.
pub struct TcMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    central: ClassPool,
    class_locks: Vec<LockId>,
    pageheap_lock: LockId,
    tcaches: Vec<ThreadCache>,
    /// Per-thread allocation counters driving the scavenger.
    op_counts: Vec<u64>,
}

impl TcMalloc {
    /// Build the model with one central lock per size class.
    pub fn new(sim: &mut NumaSim) -> Self {
        TcMalloc {
            src: ChunkSource::new(128 << 10), // spans
            requested: RequestedBytes::default(),
            central: ClassPool::new(8 << 10, 0),
            class_locks: (0..NUM_CLASSES).map(|_| sim.new_lock()).collect(),
            pageheap_lock: sim.new_lock(),
            tcaches: Vec::new(),
            op_counts: Vec::new(),
        }
    }

    fn tcache_of(&mut self, tid: usize) -> &mut ThreadCache {
        while self.tcaches.len() <= tid {
            // Generous enough to win the single-threaded race, but
            // tcmalloc bounds the whole cache (2 MB default) and
            // garbage-collects it, so allocation-heavy multithreaded
            // phases still fall through to the central lists.
            self.tcaches.push(ThreadCache::new(TRANSFER_BATCH + TRANSFER_BATCH / 2));
        }
        &mut self.tcaches[tid]
    }
}

impl Allocator for TcMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Tcmalloc
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
        while self.op_counts.len() <= tid {
            self.op_counts.push(0);
        }
        self.op_counts[tid] += 1;
        if self.op_counts[tid] % SCAVENGE_EVERY == 0 {
            // Periodic cache GC: return surplus cached blocks of this
            // class to the central list under its lock (never draining
            // below one transfer batch, like the real scavenger's
            // low-water mark).
            let n = self.tcache_of(tid).class_len(class);
            if n >= TRANSFER_BATCH {
                w.lock(self.class_locks[class], CENTRAL_HOLD_CYCLES);
                w.lock(self.pageheap_lock, PAGEHEAP_HOLD_CYCLES);
                w.compute(40); // the list splice itself is cheap
                let give: Vec<_> = (0..TRANSFER_BATCH)
                    .filter_map(|_| self.tcaches[tid].get(class))
                    .collect();
                self.central.accept(w, class, give);
            }
        }
        if let Some(addr) = self.tcache_of(tid).get(class) {
            return addr;
        }
        // Central trip: per-class lock, refill a transfer batch.
        // Batch size shrinks for big classes (fewer objects per span).
        let batch_n = (TRANSFER_BATCH as u64)
            .min((64 << 10) / CLASSES[class])
            .max(1) as usize;
        w.lock(self.class_locks[class], CENTRAL_HOLD_CYCLES);
        w.lock(self.pageheap_lock, PAGEHEAP_HOLD_CYCLES);
        w.compute(CENTRAL_HOLD_CYCLES); // the critical-section work itself
        let first = self.central.alloc_block(w, &mut self.src, class, class_size);
        maybe_thp_tax(w, self.thp_friendly(), first);
        let batch: Vec<VAddr> = (1..batch_n)
            .map(|_| self.central.alloc_block(w, &mut self.src, class, class_size))
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
        let tid = w.tid();
        if let Some(overflow) = self.tcache_of(tid).put(class, addr) {
            w.lock(self.class_locks[class], CENTRAL_HOLD_CYCLES);
            w.lock(self.pageheap_lock, PAGEHEAP_HOLD_CYCLES);
            w.compute(CENTRAL_HOLD_CYCLES); // the critical-section work itself
            maybe_thp_tax(w, self.thp_friendly(), addr);
            self.central.accept(w, class, overflow);
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
            SimConfig::os_default(machines::machine_a())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        )
    }

    fn churn(threads: usize) -> (u64, u64) {
        let mut sim = sim();
        let mut tc = TcMalloc::new(&mut sim);
        let stats = sim.try_parallel(threads, &mut tc, |w, tc| {
            let mut live = Vec::new();
            for i in 0..400u64 {
                let size = 32 << (i % 3);
                live.push((tc.alloc(w, size), size));
                if live.len() > 64 {
                    let (p, s) = live.swap_remove(0);
                    tc.free(w, p, s);
                }
            }
            for (p, s) in live {
                tc.free(w, p, s);
            }
        }).unwrap();
        (stats.elapsed_cycles, stats.counters.lock_wait_cycles)
    }

    #[test]
    fn central_lock_contention_grows_with_threads() {
        let (_, w1) = churn(1);
        let (_, w8) = churn(8);
        assert_eq!(w1, 0, "single thread must never wait");
        assert!(w8 > 0, "eight churning threads must contend");
    }

    #[test]
    fn fast_path_is_cheap() {
        let mut sim = sim();
        let mut tc = TcMalloc::new(&mut sim);
        let mut cycles = 0;
        sim.try_serial(&mut (&mut tc, &mut cycles), |w, (tc, cycles)| {
            // Prime the thread cache.
            let p = tc.alloc(w, 64);
            tc.free(w, p, 64);
            let before = w.clock();
            let q = tc.alloc(w, 64);
            **cycles = w.clock() - before;
            tc.free(w, q, 64);
        }).unwrap();
        assert!(cycles <= OP_CYCLES + 5, "fast path cost {cycles}");
    }

    #[test]
    fn big_classes_refill_small_batches() {
        // A 32KB class gets batch 2, not 32: verify by counting how many
        // blocks the tcache holds after one refill.
        let mut sim = sim();
        let mut tc = TcMalloc::new(&mut sim);
        let mut cached = 0usize;
        sim.try_serial(&mut (&mut tc, &mut cached), |w, (tc, cached)| {
            let p = tc.alloc(w, 32768);
            **cached = tc.tcaches[w.tid()].total_cached();
            tc.free(w, p, 32768);
        }).unwrap();
        assert!(cached <= 2, "cached {cached} blocks of the 32KB class");
    }
}
