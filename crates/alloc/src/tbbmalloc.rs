//! Model of Intel TBB's scalable allocator (§III-A5).
//!
//! Structure: fully private per-thread pools; the owner allocates and
//! frees without any locking, and only refilling from the shared backend
//! (chunk source) takes a lock. tbbmalloc explicitly trades memory for
//! speed: freed blocks stay in the owning thread's pool instead of being
//! consolidated, so the resident set grows with the number of threads —
//! the Figure 2b jump at 8–16 threads — while the common path stays the
//! most scalable of the seven (the paper's overall winner on W1/W3).

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::ClassPool;
use crate::size_class::{class_of, MAX_SMALL};
use crate::{maybe_thp_tax, thp_op_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every operation.
const OP_CYCLES: u64 = 22;
/// Critical-section length of a backend (chunk) refill.
const BACKEND_HOLD_CYCLES: u64 = 60;
/// Per-thread pool refill region.
const REGION: u64 = 16 << 10;
/// Per-block header.
const HEADER: u64 = 0; // per-slab metadata, no per-object header

/// See module docs.
pub struct TbbMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    pools: Vec<ClassPool>,
    backend_lock: LockId,
}

impl TbbMalloc {
    /// Build the model.
    pub fn new(sim: &mut NumaSim) -> Self {
        TbbMalloc {
            src: ChunkSource::new(1 << 20),
            requested: RequestedBytes::default(),
            pools: Vec::new(),
            backend_lock: sim.new_lock(),
        }
    }

    fn pool_of(&mut self, tid: usize) -> &mut ClassPool {
        while self.pools.len() <= tid {
            self.pools.push(ClassPool::new(REGION, HEADER));
        }
        &mut self.pools[tid]
    }
}

impl Allocator for TbbMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Tbbmalloc
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
        let needs_backend = self.pool_of(tid).needs_refill(class, class_size);
        if needs_backend {
            // The backend lock is taken only when a fresh region must be
            // mapped — the rare path that keeps tbbmalloc scalable.
            w.lock(self.backend_lock, BACKEND_HOLD_CYCLES);
        }
        let pool = &mut self.pools[tid];
        let addr = pool.alloc_block(w, &mut self.src, class, class_size);
        if needs_backend {
            maybe_thp_tax(w, self.thp_friendly(), addr);
        }
        addr
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
        // Freed blocks return to the *caller's* pool (the model folds
        // tbbmalloc's cross-thread mailbox into the caller's pool: the
        // owner would drain its mailbox on its next allocation anyway).
        let tid = w.tid();
        self.pool_of(tid).free_block(w, class, addr);
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

    fn churn(threads: usize) -> u64 {
        let mut sim = sim();
        let mut tbb = TbbMalloc::new(&mut sim);
        let stats = sim.try_parallel(threads, &mut tbb, |w, tbb| {
            let mut live = Vec::new();
            for _ in 0..400 {
                live.push(tbb.alloc(w, 64));
                if live.len() > 64 {
                    let p = live.swap_remove(0);
                    tbb.free(w, p, 64);
                }
            }
            for p in live {
                tbb.free(w, p, 64);
            }
        }).unwrap();
        stats.counters.lock_wait_cycles
    }

    #[test]
    fn steady_state_churn_takes_no_locks() {
        // After warm-up the pool recycles its own blocks; only the first
        // few refills touch the backend.
        let waits = churn(16);
        assert!(waits < 5_000, "waits={waits}");
    }

    #[test]
    fn per_thread_pools_inflate_resident_with_threads() {
        let peak = |threads: usize| {
            let mut sim = sim();
            let mut tbb = TbbMalloc::new(&mut sim);
            sim.try_parallel(threads, &mut tbb, |w, tbb| {
                // Each thread touches several classes, pinning regions.
                for &size in &[16u64, 64, 256, 1024, 4096] {
                    let p = tbb.alloc(w, size);
                    tbb.free(w, p, size);
                }
            }).unwrap();
            tbb.peak_resident()
        };
        assert!(peak(16) > peak(1), "resident must grow with thread count");
    }

    #[test]
    fn blocks_recycle_within_owner_pool() {
        let mut sim = sim();
        let tbb = TbbMalloc::new(&mut sim);
        let mut shared = (tbb, 0u64, 0u64);
        sim.try_serial(&mut shared, |w, (tbb, a, b)| {
            *a = tbb.alloc(w, 128);
            tbb.free(w, *a, 128);
            *b = tbb.alloc(w, 128);
        }).unwrap();
        assert_eq!(shared.1, shared.2);
    }
}
