//! Per-value linked chains of `u64` values in simulated memory.
//!
//! Holistic aggregation (W1) must retain *every* value of each group to
//! compute the median, so each hash-table entry anchors one of these
//! chains, and **every input record costs one heap allocation** — the
//! "extensively uses memory allocation during its runtime" property that
//! makes W1 the paper's allocator-sensitive aggregation (Figure 6a–6c).
//!
//! Node layout: `[next: u64][value: u64]` — 16 bytes.

use crate::heap::SimHeap;
use nqp_sim::{VAddr, Worker};

/// Bytes per chain node.
const NODE_BYTES: u64 = 16;

/// Handle to a chain of values (the head pointer lives wherever the
/// caller stores it — typically a hash-table entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    head: VAddr,
}

impl Chain {
    /// An empty chain (null head).
    pub const EMPTY: Chain = Chain { head: 0 };

    /// Rebuild a handle from a stored head pointer.
    pub fn from_head(head: VAddr) -> Self {
        Chain { head }
    }

    /// The head pointer to store.
    pub fn head(&self) -> VAddr {
        self.head
    }

    /// Prepend a value — one allocation per value, by design.
    pub fn push(&mut self, w: &mut Worker<'_>, heap: &mut SimHeap, value: u64) {
        let node = heap.alloc(w, NODE_BYTES);
        w.write_u64(node, self.head);
        w.write_u64(node + 8, value);
        self.head = node;
    }

    /// Read every value into a `Vec` (insertion order reversed; the
    /// aggregates computed over them are order-independent).
    pub fn collect(&self, w: &mut Worker<'_>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.head;
        while cur != 0 {
            out.push(w.read_u64(cur + 8));
            cur = w.read_u64(cur);
        }
        out
    }

    /// Number of values without materialising them.
    pub fn len(&self, w: &mut Worker<'_>) -> u64 {
        let mut n = 0;
        let mut cur = self.head;
        while cur != 0 {
            n += 1;
            cur = w.read_u64(cur);
        }
        n
    }

    /// Whether the chain holds no values.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Free every node back to the heap, leaving the chain empty.
    pub fn free(&mut self, w: &mut Worker<'_>, heap: &mut SimHeap) {
        let mut cur = self.head;
        while cur != 0 {
            let next = w.read_u64(cur);
            heap.free(w, cur, NODE_BYTES);
            cur = next;
        }
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_alloc::AllocatorKind;
    use nqp_sim::{NumaSim, SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    fn with_heap(f: impl FnMut(&mut Worker<'_>, &mut SimHeap)) {
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        );
        let mut heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).unwrap();
        sim.try_serial(&mut heap, f).unwrap();
    }

    #[test]
    fn push_and_collect_round_trip() {
        with_heap(|w, heap| {
            let mut chain = Chain::EMPTY;
            for v in 0..50u64 {
                chain.push(w, heap, v);
            }
            let mut values = chain.collect(w);
            values.sort_unstable();
            assert_eq!(values, (0..50).collect::<Vec<_>>());
            assert_eq!(chain.len(w), 50);
        });
    }

    #[test]
    fn empty_chain_behaves() {
        with_heap(|w, _| {
            let chain = Chain::EMPTY;
            assert!(chain.is_empty());
            assert_eq!(chain.collect(w), Vec::<u64>::new());
            assert_eq!(chain.len(w), 0);
        });
    }

    #[test]
    fn one_allocation_per_value() {
        with_heap(|w, heap| {
            let before = heap.live_requested();
            let mut chain = Chain::EMPTY;
            for v in 0..100u64 {
                chain.push(w, heap, v);
            }
            assert_eq!(heap.live_requested() - before, 100 * NODE_BYTES);
        });
    }

    #[test]
    fn free_returns_memory() {
        with_heap(|w, heap| {
            let mut chain = Chain::EMPTY;
            for v in 0..100u64 {
                chain.push(w, heap, v);
            }
            let live_before = heap.live_requested();
            chain.free(w, heap);
            assert!(chain.is_empty());
            assert!(heap.live_requested() < live_before);
        });
    }

    #[test]
    fn head_round_trips_through_storage() {
        with_heap(|w, heap| {
            let mut chain = Chain::EMPTY;
            chain.push(w, heap, 42);
            let stored = chain.head();
            let revived = Chain::from_head(stored);
            assert_eq!(revived.collect(w), vec![42]);
        });
    }
}
