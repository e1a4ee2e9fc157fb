//! A shared, striped-locking chained hash table in simulated memory —
//! the "shared global hash table" design of the paper's aggregation
//! workloads [14], modelled after efficient concurrent tables: reads are
//! lock-free, writers lock one of many stripes.
//!
//! The bucket directory is mapped and zeroed by whoever calls
//! [`HashTable::init`]; under First Touch that concentrates the
//! directory's pages on the initialising thread's node, which is exactly
//! the placement pathology (and Interleave's cure) that Figure 5
//! measures.

use nqp_sim::{LockId, NumaSim, VAddr, Worker};
use nqp_storage::SimHeap;

/// Entry layout: `[key: u64][payload: u64][next: u64]`.
const ENTRY_BYTES: u64 = 24;
/// Cycles to hash a key.
const HASH_CYCLES: u64 = 6;
/// Critical-section length of a stripe-locked insert.
const STRIPE_HOLD_CYCLES: u64 = 30;

/// See module docs.
#[derive(Debug)]
pub struct HashTable {
    dir: VAddr,
    nbuckets: u64,
    locks: Vec<LockId>,
}

#[inline]
fn hash(key: u64) -> u64 {
    // Fibonacci hashing: cheap and well-spread for our generators.
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl HashTable {
    /// Register a table with `nbuckets` (rounded up to a power of two)
    /// and one lock stripe per 64 buckets (at most 1024 stripes). The
    /// directory itself is mapped later by [`HashTable::init`].
    pub fn new(sim: &mut NumaSim, nbuckets: u64) -> Self {
        let nbuckets = nbuckets.max(16).next_power_of_two();
        let stripes = (nbuckets / 64).clamp(16, 1024);
        let locks = (0..stripes).map(|_| sim.new_lock()).collect();
        HashTable { dir: 0, nbuckets, locks }
    }

    /// Map and zero the bucket directory. The caller's thread first-
    /// touches every directory page — under First Touch the whole
    /// directory lands on the coordinator's node, the placement pathology
    /// of §IV-C.
    pub fn init(&mut self, w: &mut Worker<'_>) {
        self.dir = w.map_pages(self.nbuckets * 8);
        for b in 0..self.nbuckets {
            w.write_u64(self.dir + b * 8, 0);
        }
    }

    /// Map and zero the bucket directory with its pages spread across
    /// the nodes — the application-level interleaving of the shared hash
    /// table that prior NUMA-aware joins use (\[9\], \[31\], \[32\] in the
    /// paper). Recovers most of the Interleave policy's benefit without
    /// touching `numactl`.
    pub fn init_interleaved(&mut self, w: &mut Worker<'_>) {
        self.dir = w.map_pages_shared(self.nbuckets * 8);
        for b in 0..self.nbuckets {
            w.write_u64(self.dir + b * 8, 0);
        }
    }

    /// Number of buckets.
    pub fn nbuckets(&self) -> u64 {
        self.nbuckets
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> u64 {
        hash(key) >> (64 - self.nbuckets.trailing_zeros())
    }

    #[inline]
    fn stripe_of(&self, bucket: u64) -> LockId {
        self.locks[(bucket % self.locks.len() as u64) as usize]
    }

    /// Find the entry address for `key`, lock-free (probe path). Each
    /// chain entry is read whole (one 24-byte access, not one per field).
    pub fn find(&self, w: &mut Worker<'_>, key: u64) -> Option<VAddr> {
        w.compute(HASH_CYCLES);
        debug_assert_ne!(self.dir, 0, "init() must run before use");
        let bucket = self.bucket_of(key);
        let mut entry = w.read_u64(self.dir + bucket * 8);
        while entry != 0 {
            let (k, _payload, next) = w.read_u64_triple(entry);
            if k == key {
                return Some(entry);
            }
            entry = next;
        }
        None
    }

    /// Read the payload of `key`, if present. The payload arrives with
    /// the entry-at-once chain read — no second access per match.
    pub fn get(&self, w: &mut Worker<'_>, key: u64) -> Option<u64> {
        w.compute(HASH_CYCLES);
        debug_assert_ne!(self.dir, 0, "init() must run before use");
        let bucket = self.bucket_of(key);
        let mut entry = w.read_u64(self.dir + bucket * 8);
        while entry != 0 {
            let (k, payload, next) = w.read_u64_triple(entry);
            if k == key {
                return Some(payload);
            }
            entry = next;
        }
        None
    }

    /// Insert-or-update under the stripe lock: if `key` exists, its
    /// payload is passed to `update`; otherwise a fresh entry is chained
    /// in with `initial`. Returns the entry address.
    pub fn upsert(
        &self,
        w: &mut Worker<'_>,
        heap: &mut SimHeap,
        key: u64,
        initial: u64,
        update: impl FnOnce(&mut Worker<'_>, VAddr),
    ) -> VAddr {
        w.compute(HASH_CYCLES);
        debug_assert_ne!(self.dir, 0, "init() must run before use");
        let bucket = self.bucket_of(key);
        w.lock(self.stripe_of(bucket), STRIPE_HOLD_CYCLES);
        let head_addr = self.dir + bucket * 8;
        let head = w.read_u64(head_addr);
        let mut entry = head;
        while entry != 0 {
            let (k, _payload, next) = w.read_u64_triple(entry);
            if k == key {
                update(w, entry);
                return entry;
            }
            entry = next;
        }
        let fresh = heap.alloc(w, ENTRY_BYTES);
        w.write_u64_run(fresh, &[key, initial, head]);
        w.write_u64(head_addr, fresh);
        fresh
    }

    /// Walk every entry in buckets `range`, invoking `f(key, entry)` —
    /// the scan used by parallel finalize phases (buckets partition
    /// cleanly across threads).
    pub fn for_each_in_buckets(
        &self,
        w: &mut Worker<'_>,
        range: std::ops::Range<u64>,
        mut f: impl FnMut(&mut Worker<'_>, u64, VAddr),
    ) {
        for b in range {
            let mut entry = w.read_u64(self.dir + b * 8);
            while entry != 0 {
                let (key, _payload, next) = w.read_u64_triple(entry);
                f(w, key, entry);
                entry = next;
            }
        }
    }

    /// The bucket sub-range thread `tid` of `nthreads` should finalize.
    pub fn bucket_partition(&self, tid: usize, nthreads: usize) -> std::ops::Range<u64> {
        let per = self.nbuckets.div_ceil(nthreads as u64);
        let start = (tid as u64 * per).min(self.nbuckets);
        let end = ((tid as u64 + 1) * per).min(self.nbuckets);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_alloc::AllocatorKind;
    use nqp_sim::{SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    fn setup() -> (NumaSim, SimHeap) {
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_threads(ThreadPlacement::Sparse)
                .with_autonuma(false)
                .with_thp(false),
        );
        let heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).unwrap();
        (sim, heap)
    }

    #[test]
    fn upsert_then_get() {
        let (mut sim, heap) = setup();
        let table = HashTable::new(&mut sim, 64);
        let mut state = (table, heap);
        sim.try_serial(&mut state, |w, (table, heap)| {
            table.init(w);
            for k in 0..200u64 {
                table.upsert(w, heap, k, k * 10, |_, _| panic!("fresh key"));
            }
            for k in 0..200u64 {
                assert_eq!(table.get(w, k), Some(k * 10));
            }
            assert_eq!(table.get(w, 999), None);
        }).unwrap();
    }

    #[test]
    fn upsert_updates_existing() {
        let (mut sim, heap) = setup();
        let table = HashTable::new(&mut sim, 64);
        let mut state = (table, heap);
        sim.try_serial(&mut state, |w, (table, heap)| {
            table.init(w);
            table.upsert(w, heap, 5, 1, |_, _| unreachable!());
            table.upsert(w, heap, 5, 0, |w, e| {
                let v = w.read_u64(e + 8);
                w.write_u64(e + 8, v + 1);
            });
            assert_eq!(table.get(w, 5), Some(2));
        }).unwrap();
    }

    #[test]
    fn chains_handle_bucket_collisions() {
        let (mut sim, heap) = setup();
        // 16 buckets, 500 keys: heavy chaining.
        let table = HashTable::new(&mut sim, 16);
        let mut state = (table, heap);
        sim.try_serial(&mut state, |w, (table, heap)| {
            table.init(w);
            for k in 0..500u64 {
                table.upsert(w, heap, k, !k, |_, _| unreachable!());
            }
            for k in 0..500u64 {
                assert_eq!(table.get(w, k), Some(!k), "key {k}");
            }
        }).unwrap();
    }

    #[test]
    fn bucket_scan_visits_every_entry_once() {
        let (mut sim, heap) = setup();
        let table = HashTable::new(&mut sim, 64);
        let mut state = (table, heap, Vec::new());
        sim.try_serial(&mut state, |w, (table, heap, seen)| {
            table.init(w);
            for k in 0..300u64 {
                table.upsert(w, heap, k, 0, |_, _| unreachable!());
            }
            table.for_each_in_buckets(w, 0..table.nbuckets(), |_, key, _| seen.push(key));
        }).unwrap();
        let mut seen = state.2;
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_partitions_tile_the_directory() {
        let (mut sim, _) = setup();
        let table = HashTable::new(&mut sim, 1000); // rounds to 1024
        let mut total = 0;
        let mut last_end = 0;
        for tid in 0..7 {
            let r = table.bucket_partition(tid, 7);
            assert_eq!(r.start, last_end);
            last_end = r.end;
            total += r.end - r.start;
        }
        assert_eq!(total, table.nbuckets());
        assert_eq!(last_end, table.nbuckets());
    }

    #[test]
    fn concurrent_inserts_from_all_threads_land() {
        let (mut sim, heap) = setup();
        let table = HashTable::new(&mut sim, 256);
        let mut state = (table, heap);
        sim.try_serial(&mut state, |w, (table, _)| table.init(w)).unwrap();
        sim.try_parallel(8, &mut state, |w, (table, heap)| {
            let tid = w.tid() as u64;
            for i in 0..50u64 {
                table.upsert(w, heap, tid * 1000 + i, tid, |_, _| unreachable!());
            }
        }).unwrap();
        sim.try_serial(&mut state, |w, (table, _)| {
            for tid in 0..8u64 {
                for i in 0..50u64 {
                    assert_eq!(table.get(w, tid * 1000 + i), Some(tid));
                }
            }
        }).unwrap();
    }
}
