//! The four in-memory indexes of workload W4 (§IV-B), built over the
//! simulated heap so that node layout, allocation-size variety, and
//! traversal locality all flow through the NUMA cost model:
//!
//! * [`BPlusTree`] — a cache-conscious B+tree with 256-byte nodes (the
//!   STX-style baseline).
//! * [`SkipList`] — a canonical skip list with probabilistic towers.
//! * [`Art`] — an Adaptive Radix Tree with Node4/16/48/256 and lazy leaf
//!   expansion; its varied node sizes exercise many allocator size
//!   classes, the property §IV-D3 credits for its allocator sensitivity.
//! * [`Masstree`] — a trie of B+trees: a 32-bit-slice layer-0 tree whose
//!   values anchor layer-1 trees over the low 32 bits.
//!
//! All four implement [`Index`] over `u64 → u64` and are exercised by
//! the same model-based test suite.

mod art;
mod btree;
mod masstree;
mod skiplist;

pub use art::Art;
pub use btree::BPlusTree;
pub use masstree::Masstree;
pub use skiplist::SkipList;

use nqp_sim::Worker;
use nqp_storage::SimHeap;

/// Which index structure to use (the W4 sweep of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Adaptive Radix Tree.
    Art,
    /// Masstree-style trie of B+trees.
    Masstree,
    /// Cache-conscious B+tree.
    BPlusTree,
    /// Skip list.
    SkipList,
}

impl IndexKind {
    /// The four indexes in Figure 7 order.
    pub const ALL: [IndexKind; 4] =
        [IndexKind::Art, IndexKind::Masstree, IndexKind::BPlusTree, IndexKind::SkipList];

    /// Label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::Art => "ART",
            IndexKind::Masstree => "Masstree",
            IndexKind::BPlusTree => "B+tree",
            IndexKind::SkipList => "Skip List",
        }
    }
}

/// A `u64 → u64` ordered index in simulated memory.
///
/// `Send + Sync` is required so probe phases can share a built index
/// read-only across sharded host threads; implementors are plain
/// simulated-heap handles (addresses and counters), so the bounds are
/// structural, not a concurrency claim about `insert`.
pub trait Index: Send + Sync {
    /// Which structure this is.
    fn kind(&self) -> IndexKind;

    /// Insert or update a key.
    fn insert(&mut self, w: &mut Worker<'_>, heap: &mut SimHeap, key: u64, value: u64);

    /// Point lookup.
    fn get(&self, w: &mut Worker<'_>, key: u64) -> Option<u64>;

    /// Number of distinct keys.
    fn len(&self) -> u64;

    /// Whether the index holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Construct an empty index of the given kind.
pub fn build_index(kind: IndexKind) -> Box<dyn Index> {
    match kind {
        IndexKind::Art => Box::new(Art::new()),
        IndexKind::Masstree => Box::new(Masstree::new()),
        IndexKind::BPlusTree => Box::new(BPlusTree::new()),
        IndexKind::SkipList => Box::new(SkipList::new()),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use nqp_alloc::AllocatorKind;
    use nqp_sim::{NumaSim, SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    /// Run `f` with a quiet simulator and a tbbmalloc-backed heap.
    pub fn with_heap(f: impl FnMut(&mut Worker<'_>, &mut SimHeap)) {
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        );
        let mut heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).unwrap();
        sim.try_serial(&mut heap, f).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::with_heap;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn model_based_random_ops_match_btreemap() {
        for kind in IndexKind::ALL {
            with_heap(|w, heap| {
                let mut index = build_index(kind);
                let mut model = BTreeMap::new();
                let mut rng = StdRng::seed_from_u64(77);
                for _ in 0..2_000 {
                    let key = rng.random_range(0..500u64);
                    if rng.random::<bool>() {
                        let value = rng.random::<u64>();
                        index.insert(w, heap, key, value);
                        model.insert(key, value);
                    } else {
                        assert_eq!(
                            index.get(w, key),
                            model.get(&key).copied(),
                            "{kind:?} diverged on key {key}"
                        );
                    }
                }
                assert_eq!(index.len(), model.len() as u64, "{kind:?} length");
                for (&k, &v) in &model {
                    assert_eq!(index.get(w, k), Some(v), "{kind:?} lost key {k}");
                }
            });
        }
    }

    #[test]
    fn extreme_keys_round_trip() {
        for kind in IndexKind::ALL {
            with_heap(|w, heap| {
                let mut index = build_index(kind);
                for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xdead_beef] {
                    index.insert(w, heap, key, !key);
                }
                for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xdead_beef] {
                    assert_eq!(index.get(w, key), Some(!key), "{kind:?} key {key:#x}");
                }
                assert_eq!(index.get(w, 2), None);
            });
        }
    }

    #[test]
    fn updates_overwrite() {
        for kind in IndexKind::ALL {
            with_heap(|w, heap| {
                let mut index = build_index(kind);
                index.insert(w, heap, 7, 1);
                index.insert(w, heap, 7, 2);
                assert_eq!(index.get(w, 7), Some(2), "{kind:?}");
                assert_eq!(index.len(), 1, "{kind:?}");
            });
        }
    }

    #[test]
    fn empty_index_finds_nothing() {
        for kind in IndexKind::ALL {
            with_heap(|w, _| {
                let index = build_index(kind);
                assert!(index.is_empty());
                assert_eq!(index.get(w, 1), None, "{kind:?}");
            });
        }
    }

    #[test]
    fn dense_sequential_bulk_load() {
        for kind in IndexKind::ALL {
            with_heap(|w, heap| {
                let mut index = build_index(kind);
                for key in 0..3_000u64 {
                    index.insert(w, heap, key, key * 2);
                }
                assert_eq!(index.len(), 3_000);
                for key in (0..3_000u64).step_by(97) {
                    assert_eq!(index.get(w, key), Some(key * 2), "{kind:?} key {key}");
                }
            });
        }
    }

    #[test]
    fn labels_are_figure7_names() {
        assert_eq!(IndexKind::Art.label(), "ART");
        assert_eq!(IndexKind::Masstree.label(), "Masstree");
        assert_eq!(IndexKind::BPlusTree.label(), "B+tree");
        assert_eq!(IndexKind::SkipList.label(), "Skip List");
    }
}
