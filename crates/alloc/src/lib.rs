//! Behavioural models of seven dynamic memory allocators (§III-A of the
//! paper), running over the NUMA simulator.
//!
//! Each model reproduces the *structural* design of the real allocator —
//! arena layout, per-thread caching, synchronisation discipline, chunk
//! granularity, metadata placement — because those structures are what
//! produce the scalability and memory-overhead differences the paper
//! measures (Figure 2) and the THP interactions of Figure 5c. Cycle
//! costs are model parameters; shapes, not absolute seconds, are the
//! reproduction target.
//!
//! | Model | Key structure | Synchronisation |
//! |---|---|---|
//! | [`PtMalloc`] | per-thread arenas (grown on demand) + small tcache | one mutex per arena |
//! | [`JeMalloc`] | per-CPU arenas, round-robin threads, big tcache | per-arena lock, out-of-band metadata |
//! | [`TcMalloc`] | thread caches + central per-class span lists | per-class central locks |
//! | [`Hoard`] | hashed per-thread heaps of superblocks + global hoard | per-heap + global locks |
//! | [`TbbMalloc`] | per-thread pools, memory rarely returned | backend lock on chunk refill only |
//! | [`SuperMalloc`] | global pools + chunk lookup table | one global lock (HTM fallback) |
//! | [`McMalloc`] | batched OS requests, rate-scaled refill batches | per-class locks |
//!
//! ```
//! use nqp_alloc::{build, AllocatorKind};
//! use nqp_sim::{NumaSim, SimConfig};
//! use nqp_topology::machines;
//!
//! # fn main() -> nqp_sim::SimResult<()> {
//! let mut sim = NumaSim::new(SimConfig::tuned(machines::machine_b()));
//! let mut alloc = build(AllocatorKind::Jemalloc, &mut sim)?;
//! sim.try_parallel(4, &mut alloc, |w, alloc| {
//!     let p = alloc.alloc(w, 100);
//!     w.write_u64(p, 42);
//!     alloc.free(w, p, 100);
//! })?;
//! assert!(alloc.peak_resident() >= alloc.peak_requested());
//! # Ok(())
//! # }
//! ```

mod chunks;
mod hoard;
mod jemalloc;
mod mcmalloc;
pub mod microbench;
mod pool;
mod ptmalloc;
mod size_class;
mod supermalloc;
mod tbbmalloc;
mod tcmalloc;

pub use chunks::{ChunkSource, RequestedBytes};
pub use hoard::Hoard;
pub use jemalloc::JeMalloc;
pub use mcmalloc::McMalloc;
pub use pool::{ClassPool, ThreadCache};
pub use ptmalloc::PtMalloc;
pub use size_class::{class_of, CLASSES, MAX_SMALL, NUM_CLASSES};
pub use supermalloc::SuperMalloc;
pub use tbbmalloc::TbbMalloc;
pub use tcmalloc::TcMalloc;

use nqp_sim::{NumaSim, SimResult, VAddr, Worker};

/// The allocators evaluated in the paper, in §III-A order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// glibc's default allocator (`ptmalloc2`).
    Ptmalloc,
    /// Jason Evans' allocator (FreeBSD / Facebook).
    Jemalloc,
    /// Google's thread-caching malloc (gperftools).
    Tcmalloc,
    /// Berger et al.'s Hoard.
    Hoard,
    /// Intel TBB's scalable allocator.
    Tbbmalloc,
    /// Kuszmaul's SuperMalloc.
    Supermalloc,
    /// Umayabara & Yamana's MCMalloc.
    Mcmalloc,
}

impl AllocatorKind {
    /// All seven allocators, in paper order.
    pub const ALL: [AllocatorKind; 7] = [
        AllocatorKind::Ptmalloc,
        AllocatorKind::Jemalloc,
        AllocatorKind::Tcmalloc,
        AllocatorKind::Hoard,
        AllocatorKind::Tbbmalloc,
        AllocatorKind::Supermalloc,
        AllocatorKind::Mcmalloc,
    ];

    /// The five allocators kept after the microbenchmark culls
    /// supermalloc (scalability) and mcmalloc (memory overhead) — the set
    /// used in Figures 5c, 6, 7, and 9.
    pub const MAIN: [AllocatorKind; 5] = [
        AllocatorKind::Ptmalloc,
        AllocatorKind::Jemalloc,
        AllocatorKind::Tcmalloc,
        AllocatorKind::Hoard,
        AllocatorKind::Tbbmalloc,
    ];

    /// The allocator's conventional lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::Ptmalloc => "ptmalloc",
            AllocatorKind::Jemalloc => "jemalloc",
            AllocatorKind::Tcmalloc => "tcmalloc",
            AllocatorKind::Hoard => "Hoard",
            AllocatorKind::Tbbmalloc => "tbbmalloc",
            AllocatorKind::Supermalloc => "supermalloc",
            AllocatorKind::Mcmalloc => "mcmalloc",
        }
    }

    /// Parse a label as printed by [`AllocatorKind::label`]
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<AllocatorKind> {
        AllocatorKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }
}

/// A dynamic memory allocator model.
///
/// `free` takes the allocation size (the model equivalent of sized
/// deallocation); real allocators recover it from block metadata, whose
/// access cost the models charge explicitly.
pub trait Allocator {
    /// Which allocator this is.
    fn kind(&self) -> AllocatorKind;

    /// Allocate `size` bytes, charging the model's costs to `w`.
    fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr;

    /// Free an allocation of `size` bytes at `addr`.
    fn free(&mut self, w: &mut Worker<'_>, addr: VAddr, size: u64);

    /// Allocate `size` bytes, surfacing a simulation fault (injected
    /// allocation failure, node capacity exhaustion, budget timeout) as
    /// an error instead of leaving only the poisoned worker behind.
    ///
    /// The returned address is meaningless when `Err` — the worker is
    /// poisoned and every further operation on it is a no-op, so
    /// callers should stop the fallible region promptly.
    fn try_alloc(&mut self, w: &mut Worker<'_>, size: u64) -> SimResult<VAddr> {
        let addr = self.alloc(w, size);
        match w.fault() {
            Some(e) => Err(e.clone()),
            None => Ok(addr),
        }
    }

    /// High-water resident set obtained from the OS.
    fn peak_resident(&self) -> u64;

    /// High-water of application-requested live bytes.
    fn peak_requested(&self) -> u64;

    /// Currently live application-requested bytes.
    fn live_requested(&self) -> u64;

    /// Whether the allocator cooperates with Transparent Hugepages.
    /// Allocators that manage memory at 4 KB granularity (`madvise`
    /// purging, page-level decommit) fight khugepaged and pay a tax when
    /// THP is enabled — the §IV-C2 finding.
    fn thp_friendly(&self) -> bool;

    /// Memory consumption overhead: peak resident ÷ peak requested
    /// (Figure 2b's metric).
    fn overhead(&self) -> f64 {
        let req = self.peak_requested();
        if req == 0 {
            1.0
        } else {
            self.peak_resident() as f64 / req as f64
        }
    }
}

/// Construct an allocator model, registering its locks with `sim`.
/// Fails if a model that maps memory up front (SuperMalloc's lookup
/// table) faults doing so.
pub fn build(kind: AllocatorKind, sim: &mut NumaSim) -> SimResult<Box<dyn Allocator>> {
    Ok(match kind {
        AllocatorKind::Ptmalloc => Box::new(PtMalloc::new(sim)),
        AllocatorKind::Jemalloc => Box::new(JeMalloc::new(sim)),
        AllocatorKind::Tcmalloc => Box::new(TcMalloc::new(sim)),
        AllocatorKind::Hoard => Box::new(Hoard::new(sim)),
        AllocatorKind::Tbbmalloc => Box::new(TbbMalloc::new(sim)),
        AllocatorKind::Supermalloc => Box::new(SuperMalloc::new(sim)?),
        AllocatorKind::Mcmalloc => Box::new(McMalloc::new(sim)),
    })
}

/// CPU cycles of the khugepaged split/collapse churn charged on
/// slow-path operations when THP is enabled and the allocator manages
/// pages at 4 KB granularity (§IV-C2).
pub(crate) const THP_TAX_CYCLES: u64 = 150;

/// Cache lines of compaction copy traffic per taxed operation
/// (khugepaged re-collapsing the pages the allocator keeps splitting).
/// Charged as uncached kernel traffic: latency *and* controller demand.
pub(crate) const THP_TAX_COPY_LINES: u64 = 2;

/// Light per-operation THP tax for page-granular allocators: size
/// checks and split bookkeeping on every call while khugepaged keeps
/// re-collapsing their ranges.
pub(crate) const THP_OP_TAX_CYCLES: u64 = 18;

/// Charge the per-operation THP tax if it applies.
#[inline]
pub(crate) fn thp_op_tax(w: &mut Worker<'_>, friendly: bool) {
    if !friendly && w.config().thp {
        w.compute(THP_OP_TAX_CYCLES);
    }
}

/// Charge the THP tax if it applies. `addr` anchors the compaction
/// traffic to the region the allocator just worked in.
#[inline]
pub(crate) fn maybe_thp_tax(w: &mut Worker<'_>, friendly: bool, addr: VAddr) {
    if !friendly && w.config().thp {
        w.compute(THP_TAX_CYCLES);
        let page = addr & !4095;
        if page >= 4096 {
            w.dma_lines(page, THP_TAX_COPY_LINES);
        }
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
    fn labels_round_trip_through_parse() {
        for kind in AllocatorKind::ALL {
            assert_eq!(AllocatorKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(AllocatorKind::parse("TCMALLOC"), Some(AllocatorKind::Tcmalloc));
        assert_eq!(AllocatorKind::parse("nothing"), None);
    }

    #[test]
    fn every_allocator_round_trips_allocations() {
        for kind in AllocatorKind::ALL {
            let mut sim = sim();
            let mut alloc = build(kind, &mut sim).unwrap();
            sim.try_parallel(4, &mut alloc, |w, alloc| {
                let mut live = Vec::new();
                for i in 0..200u64 {
                    let size = 16 + (i * 13) % 3000;
                    let p = alloc.alloc(w, size);
                    w.write_u64(p, i);
                    live.push((p, size, i));
                    if i % 3 == 0 {
                        let (p, size, v) = live.swap_remove(0);
                        assert_eq!(w.read_u64(p), v, "{kind:?} corrupted a block");
                        alloc.free(w, p, size);
                    }
                }
                for (p, size, v) in live.drain(..) {
                    assert_eq!(w.read_u64(p), v, "{kind:?} corrupted a block");
                    alloc.free(w, p, size);
                }
            }).unwrap();
            assert_eq!(alloc.live_requested(), 0, "{kind:?} leaked");
            assert!(alloc.overhead() >= 1.0, "{kind:?} overhead < 1");
        }
    }

    #[test]
    fn live_allocations_never_alias() {
        for kind in AllocatorKind::ALL {
            let mut sim = sim();
            let mut alloc = build(kind, &mut sim).unwrap();
            sim.try_parallel(2, &mut alloc, |w, alloc| {
                let mut ranges: Vec<(u64, u64)> = Vec::new();
                for i in 0..300u64 {
                    let size = [16u64, 100, 1000, 40_000][(i % 4) as usize];
                    let p = alloc.alloc(w, size);
                    for &(q, qs) in &ranges {
                        assert!(
                            p + size <= q || q + qs <= p,
                            "{kind:?}: [{p:#x},{size}) overlaps [{q:#x},{qs})"
                        );
                    }
                    ranges.push((p, size));
                }
            }).unwrap();
        }
    }

    #[test]
    fn large_allocations_are_supported() {
        for kind in AllocatorKind::ALL {
            let mut sim = sim();
            let mut alloc = build(kind, &mut sim).unwrap();
            sim.try_serial(&mut alloc, |w, alloc| {
                let p = alloc.alloc(w, 5 << 20);
                w.write_u64(p, 1);
                w.write_u64(p + (5 << 20) - 8, 2);
                alloc.free(w, p, 5 << 20);
            }).unwrap();
            assert_eq!(alloc.live_requested(), 0);
            assert!(alloc.peak_requested() >= 5 << 20);
        }
    }

    #[test]
    fn freed_memory_is_reused_eventually() {
        for kind in AllocatorKind::ALL {
            let mut sim = sim();
            let alloc = build(kind, &mut sim).unwrap();
            let mut shared = (alloc, std::collections::HashSet::new(), false);
            sim.try_serial(&mut shared, |w, (alloc, seen, hit)| {
                for _ in 0..50 {
                    let p = alloc.alloc(w, 64);
                    if !seen.insert(p) {
                        *hit = true;
                    }
                    alloc.free(w, p, 64);
                }
            }).unwrap();
            assert!(shared.2, "{kind:?} never reused a freed block");
        }
    }

    #[test]
    fn try_alloc_surfaces_injected_faults_and_recovers_on_retry() {
        use nqp_sim::{FaultPlan, SimError};
        for attempt in [0u32, 1] {
            let mut sim = NumaSim::new(
                SimConfig::os_default(machines::machine_b())
                    .with_autonuma(false)
                    .with_thp(false)
                    .with_faults(FaultPlan::new(11).with_alloc_fail(0, 0, 1))
                    .with_fault_attempt(attempt),
            );
            let mut alloc = build(AllocatorKind::Jemalloc, &mut sim).unwrap();
            let mut outcome = None;
            let result = sim.try_serial(&mut (&mut alloc, &mut outcome), |w, (alloc, outcome)| {
                // Big enough that every attempt takes the mmap slow path.
                **outcome = Some(alloc.try_alloc(w, 8 << 20));
            });
            if attempt == 0 {
                // First attempt: the plan fails allocations in region 0.
                assert!(matches!(
                    outcome,
                    Some(Err(SimError::InjectedAllocFault { region: 0, .. }))
                ));
                assert!(result.is_err(), "poisoned region must surface the fault");
            } else {
                // Retry attempt is past `fail_attempts`: it succeeds.
                let addr = outcome.expect("ran").expect("retry should succeed");
                assert!(addr > 0);
                result.expect("no fault on retry");
            }
        }
    }

    #[test]
    fn thp_friendliness_matches_figure_5c() {
        let mut sim = sim();
        let friendly: Vec<bool> = AllocatorKind::ALL
            .into_iter()
            .map(|k| build(k, &mut sim).unwrap().thp_friendly())
            .collect();
        // ptmalloc and Hoard tolerate THP; tcmalloc/jemalloc/tbbmalloc
        // do not (§IV-C2).
        assert!(friendly[0], "ptmalloc");
        assert!(!friendly[1], "jemalloc");
        assert!(!friendly[2], "tcmalloc");
        assert!(friendly[3], "Hoard");
        assert!(!friendly[4], "tbbmalloc");
    }
}
