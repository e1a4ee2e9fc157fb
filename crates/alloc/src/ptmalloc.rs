//! Model of glibc's `ptmalloc2`, the Linux default allocator.
//!
//! Structure (per §III-A1 of the paper): multiple arenas, each protected
//! by a mutex; arenas are created "whenever contention is detected", and
//! in steady state a fast allocating process settles on far fewer arenas
//! than threads — glibc reuses any arena whose mutex happens to be free
//! at the moment of the attempt — so arena mutexes stay contended under
//! allocation-heavy multithreading (the flat-but-slow ptmalloc line of
//! Figure 2a). The model fixes the settled arena count at `cores / 2`.
//! A small per-thread cache (glibc's `tcache`, 7 slots per bin, bins
//! ≤ 1 KB) absorbs *free/alloc pairs* but never helps an allocation-only
//! phase, and blocks carry 16-byte boundary-tag headers whose touches
//! hit the memory system.

use crate::chunks::{ChunkSource, RequestedBytes};
use crate::pool::{ClassPool, ThreadCache};
use crate::size_class::{class_of, CLASSES, MAX_SMALL};
use crate::{maybe_thp_tax, Allocator, AllocatorKind};
use nqp_sim::{LockId, NumaSim, VAddr, Worker};

/// Base cost of every malloc/free call (bin search, chunk checks).
const OP_CYCLES: u64 = 34;
/// Critical-section length of an arena operation (bin management and
/// boundary-tag coalescing checks make this the heaviest arena path of
/// the per-arena designs).
const ARENA_HOLD_CYCLES: u64 = 100;
/// CPU part of the arena work (the rest is its metadata-line touches).
const ARENA_WORK_CYCLES: u64 = 60;
/// Largest class served by the per-thread tcache (glibc: 1032 bytes).
const TCACHE_MAX: u64 = 1024;
/// tcache slots per class (glibc default: 7).
const TCACHE_SLOTS: usize = 7;
/// Boundary-tag header per block.
const HEADER: u64 = 16;

struct Arena {
    pool: ClassPool,
    lock: LockId,
}

/// See module docs.
pub struct PtMalloc {
    src: ChunkSource,
    requested: RequestedBytes,
    arenas: Vec<Arena>,
    tcaches: Vec<ThreadCache>,
}

impl PtMalloc {
    /// Build the model with its settled arena count (`cores / 2`, at
    /// least 2).
    pub fn new(sim: &mut NumaSim) -> Self {
        let narenas = (sim.config().machine.total_cores() / 2).max(2);
        let arenas = (0..narenas)
            .map(|_| Arena { pool: ClassPool::new(8 << 10, HEADER), lock: sim.new_lock() })
            .collect();
        PtMalloc {
            src: ChunkSource::new(1 << 20),
            requested: RequestedBytes::default(),
            arenas,
            tcaches: Vec::new(),
        }
    }

    fn arena_of(&self, tid: usize) -> usize {
        tid % self.arenas.len()
    }

    fn tcache_of(&mut self, tid: usize) -> &mut ThreadCache {
        while self.tcaches.len() <= tid {
            self.tcaches.push(ThreadCache::new(TCACHE_SLOTS));
        }
        &mut self.tcaches[tid]
    }

    /// Number of arenas the model settled on (for tests/inspection).
    pub fn arena_count(&self) -> usize {
        self.arenas.len()
    }
}

impl Allocator for PtMalloc {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Ptmalloc
    }

    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        w.compute(OP_CYCLES);
        self.requested.on_alloc(size);
        if size > MAX_SMALL {
            return self.src.grab_sized(w, size);
        }
        let (class, class_size) = class_of(size);
        let tid = w.tid();
        if CLASSES[class] <= TCACHE_MAX {
            if let Some(addr) = self.tcache_of(tid).get(class) {
                return addr;
            }
        }
        let a = self.arena_of(tid);
        let arena = &mut self.arenas[a];
        w.lock(arena.lock, ARENA_HOLD_CYCLES);
        w.compute(ARENA_WORK_CYCLES); // the bin-management work itself
        let addr = arena.pool.alloc_block(w, &mut self.src, class, class_size);
        // Boundary tags: write the header in front of the payload.
        w.write_u64(addr - HEADER, (class_size << 1) | 1);
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
        let (class, _class_size) = class_of(size);
        // free() reads the boundary tag to find the chunk's bin.
        let _ = w.read_u64(addr - HEADER);
        let tid = w.tid();
        if CLASSES[class] <= TCACHE_MAX {
            match self.tcache_of(tid).put(class, addr) {
                None => return,
                Some(overflow) => {
                    let a = self.arena_of(tid);
                    let arena = &mut self.arenas[a];
                    w.lock(arena.lock, ARENA_HOLD_CYCLES);
                    w.compute(ARENA_WORK_CYCLES);
                    arena.pool.accept(w, class, overflow);
                    return;
                }
            }
        }
        let a = self.arena_of(tid);
        let arena = &mut self.arenas[a];
        w.lock(arena.lock, ARENA_HOLD_CYCLES);
        w.compute(ARENA_WORK_CYCLES);
        arena.pool.free_block(w, class, addr);
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

    #[test]
    fn arenas_settle_at_half_the_cores() {
        let mut sim = sim();
        let pt = PtMalloc::new(&mut sim);
        // Machine A: 16 cores -> 8 arenas.
        assert_eq!(pt.arena_count(), 8);
    }

    #[test]
    fn threads_share_arenas_and_contend() {
        let waits = |threads: usize| {
            let mut sim = sim();
            let mut pt = PtMalloc::new(&mut sim);
            let stats = sim.try_parallel(threads, &mut pt, |w, pt| {
                // Allocation-only burst: tcache never helps.
                for _ in 0..300 {
                    let _ = pt.alloc(w, 16);
                }
            }).unwrap();
            stats.counters.lock_wait_cycles
        };
        assert_eq!(waits(1), 0);
        assert!(waits(16) > 100_000, "waits(16)={}", waits(16));
    }

    #[test]
    fn tcache_serves_free_alloc_pairs_without_arena() {
        let mut sim = sim();
        let mut pt = PtMalloc::new(&mut sim);
        let mut stats = Vec::new();
        sim.try_serial(&mut (&mut pt, &mut stats), |w, (pt, stats)| {
            let p = pt.alloc(w, 64);
            pt.free(w, p, 64);
            let before = w.clock();
            let q = pt.alloc(w, 64);
            stats.push((p == q, w.clock() - before));
            pt.free(w, q, 64);
        }).unwrap();
        let (reused, cycles) = stats[0];
        assert!(reused, "tcache must hand back the same block");
        assert!(cycles < 200, "tcache path too expensive: {cycles}");
    }

    #[test]
    fn headers_precede_payloads() {
        let mut sim = sim();
        let mut pt = PtMalloc::new(&mut sim);
        let mut addr = 0;
        sim.try_serial(&mut (&mut pt, &mut addr), |w, (pt, addr)| {
            **addr = pt.alloc(w, 100);
        }).unwrap();
        assert!(addr >= HEADER);
    }

    #[test]
    fn overhead_stays_modest() {
        let mut sim = sim();
        let mut pt = PtMalloc::new(&mut sim);
        sim.try_parallel(4, &mut pt, |w, pt| {
            let mut live = Vec::new();
            for i in 0..500u64 {
                let size = 16 << (i % 6);
                live.push((pt.alloc(w, size), size));
            }
            // Hold the live set so peak-requested reflects all threads.
            std::mem::forget(live);
        }).unwrap();
        assert!(pt.overhead() < 4.0, "overhead {}", pt.overhead());
    }
}
