//! A dynamic heap over one of the allocator models.

use nqp_alloc::{build, Allocator, AllocatorKind};
use nqp_sim::{NumaSim, SimResult, VAddr, Worker};

/// The heap every simulated data structure allocates from.
///
/// Thin wrapper over a boxed [`Allocator`] model: switching the kind is
/// the "override the memory allocator" knob of the paper, applied to a
/// whole workload without touching the workload's code.
pub struct SimHeap {
    alloc: Box<dyn Allocator>,
}

impl SimHeap {
    /// Build a heap backed by `kind`, registering locks on `sim`; fails
    /// when the allocator model faults mapping its up-front state.
    pub fn new(kind: AllocatorKind, sim: &mut NumaSim) -> SimResult<Self> {
        Ok(SimHeap { alloc: build(kind, sim)? })
    }

    /// Which allocator model backs this heap.
    pub fn kind(&self) -> AllocatorKind {
        self.alloc.kind()
    }

    /// Allocate `size` bytes.
    #[inline]
    pub fn alloc(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        self.alloc.alloc(w, size)
    }

    /// Free a `size`-byte allocation at `addr`.
    #[inline]
    pub fn free(&mut self, w: &mut Worker<'_>, addr: VAddr, size: u64) {
        self.alloc.free(w, addr, size)
    }

    /// Peak resident set of the underlying allocator.
    pub fn peak_resident(&self) -> u64 {
        self.alloc.peak_resident()
    }

    /// Live application-requested bytes.
    pub fn live_requested(&self) -> u64 {
        self.alloc.live_requested()
    }
}

impl std::fmt::Debug for SimHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHeap").field("kind", &self.kind()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::{SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    #[test]
    fn heap_allocates_and_frees_through_the_model() {
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        );
        let heap = SimHeap::new(AllocatorKind::Jemalloc, &mut sim).unwrap();
        assert_eq!(heap.kind(), AllocatorKind::Jemalloc);
        let mut heap = heap;
        sim.try_parallel(2, &mut heap, |w, heap| {
            let p = heap.alloc(w, 256);
            w.write_u64(p, 77);
            assert_eq!(w.read_u64(p), 77);
            heap.free(w, p, 256);
        }).unwrap();
        assert_eq!(heap.live_requested(), 0);
        assert!(heap.peak_resident() > 0);
    }
}
