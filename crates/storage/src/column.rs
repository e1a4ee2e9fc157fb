//! Dense `u64` columns in simulated memory — the columnar (SoA) input
//! layout of the vectorized batch-at-a-time operator path.
//!
//! Where [`crate::TupleArray`] interleaves `(key, value)` pairs row-wise,
//! a [`ColumnTable`] maps each attribute as its own [`ColumnArray`] with
//! its own pages. Column projection falls out of the layout: an operator
//! that never reads a column never touches (or even faults in) its pages,
//! which is the half of the vectorized win that the cost model can see.
//!
//! All bulk transfers move through the PR-5 ranged accessors
//! (`read_u64_run` / `write_u64_run`) in fixed [`COLUMN_RUN_WORDS`]-word
//! chunks. The chunk size is deliberately *not* the host-side batch size:
//! runners round their batch up to a multiple of the run length, so the
//! simulated touch stream — and therefore every cycle count — is
//! invariant to `--batch-size`.

use nqp_sim::{VAddr, Worker};

/// Words per bulk ranged access (256 bytes — the PR-5 run granularity
/// the tuple path also uses: 32 tuples × 16 B there, 32 words × 8 B
/// here). Fixed so the simulated access stream does not depend on the
/// host batch size.
pub const COLUMN_RUN_WORDS: usize = 32;

/// A fixed-length array of `u64` values in simulated memory.
///
/// Pages are mapped by whoever constructs the column, so under First
/// Touch the *loader's* node owns the data — same placement mechanics as
/// [`crate::TupleArray`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnArray {
    base: VAddr,
    len: u64,
}

impl ColumnArray {
    /// Map (but do not touch) space for `len` words.
    pub fn new(w: &mut Worker<'_>, len: usize) -> Self {
        let bytes = (len as u64 * 8).max(1);
        ColumnArray { base: w.map_pages(bytes), len: len as u64 }
    }

    /// Map space for `len` words with the pages spread across the nodes
    /// (the application-level interleaving the shared-slot-array
    /// aggregation offers, mirroring `HashTable::init_interleaved`).
    pub fn new_interleaved(w: &mut Worker<'_>, len: usize) -> Self {
        let bytes = (len as u64 * 8).max(1);
        ColumnArray { base: w.map_pages_shared(bytes), len: len as u64 }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the backing mapping.
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Address of word `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> VAddr {
        debug_assert!((i as u64) < self.len);
        self.base + i as u64 * 8
    }

    /// Read word `i` (one 8-byte access — the gather path of the
    /// perfect-hash slot arrays).
    #[inline]
    pub fn read(&self, w: &mut Worker<'_>, i: usize) -> u64 {
        w.read_u64(self.addr_of(i))
    }

    /// Write word `i` (first touch places its page).
    #[inline]
    pub fn write(&self, w: &mut Worker<'_>, i: usize, v: u64) {
        w.write_u64(self.addr_of(i), v);
    }

    /// Read words `[i, i + out.len())` as bulk ranged accesses of at
    /// most [`COLUMN_RUN_WORDS`] words each.
    pub fn read_run(&self, w: &mut Worker<'_>, i: usize, out: &mut [u64]) {
        debug_assert!(i as u64 + out.len() as u64 <= self.len);
        let mut done = 0;
        while done < out.len() {
            let n = (out.len() - done).min(COLUMN_RUN_WORDS);
            w.read_u64_run(self.addr_of(i + done), &mut out[done..done + n]);
            done += n;
        }
    }

    /// Write words `[i, i + vals.len())` as bulk ranged accesses of at
    /// most [`COLUMN_RUN_WORDS`] words each — the partition-parallel
    /// column loader's fill path.
    pub fn write_run(&self, w: &mut Worker<'_>, i: usize, vals: &[u64]) {
        debug_assert!(i as u64 + vals.len() as u64 <= self.len);
        let mut done = 0;
        while done < vals.len() {
            let n = (vals.len() - done).min(COLUMN_RUN_WORDS);
            w.write_u64_run(self.addr_of(i + done), &vals[done..done + n]);
            done += n;
        }
    }

    /// The contiguous index range thread `tid` of `nthreads` should
    /// process — the same morsel assignment every parallel scan in the
    /// workspace uses.
    pub fn partition(&self, tid: usize, nthreads: usize) -> std::ops::Range<usize> {
        let n = self.len as usize;
        let per = n.div_ceil(nthreads);
        let start = (tid * per).min(n);
        let end = ((tid + 1) * per).min(n);
        start..end
    }
}

/// A two-column `(key, val)` relation stored column-wise: each column has
/// its own pages, so operators that project a column away never touch it.
#[derive(Debug, Clone, Copy)]
pub struct ColumnTable {
    /// The key column.
    pub keys: ColumnArray,
    /// The value/payload column.
    pub vals: ColumnArray,
}

impl ColumnTable {
    /// Map (but do not touch) both columns for `len` rows.
    pub fn new(w: &mut Worker<'_>, len: usize) -> Self {
        ColumnTable { keys: ColumnArray::new(w, len), vals: ColumnArray::new(w, len) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The contiguous row range thread `tid` of `nthreads` should scan.
    pub fn partition(&self, tid: usize, nthreads: usize) -> std::ops::Range<usize> {
        self.keys.partition(tid, nthreads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::{NumaSim, SimConfig, ThreadPlacement};
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
    fn words_round_trip_through_runs() {
        let mut sim = sim();
        sim.try_serial(&mut (), |w, _| {
            let col = ColumnArray::new(w, 100);
            let vals: Vec<u64> = (0..100).map(|i| i * 3 + 7).collect();
            col.write_run(w, 0, &vals);
            let mut back = vec![0u64; 100];
            col.read_run(w, 0, &mut back);
            assert_eq!(back, vals);
            assert_eq!(col.read(w, 41), 41 * 3 + 7);
        }).unwrap();
    }

    #[test]
    fn run_cycle_cost_is_offset_invariant() {
        // Two equal-length transfers must charge the same cycles no
        // matter where the caller's host-side batch boundaries fell —
        // the property `--batch-size` invariance rests on.
        let cost = |split: usize| {
            let mut sim = sim();
            sim.try_serial(&mut (), |w, _| {
                let col = ColumnArray::new(w, 256);
                col.write_run(w, 0, &vec![9u64; 256]);
            }).unwrap();
            let before = sim.now_cycles();
            sim.try_serial(&mut (), |w, _| {
                let col = ColumnArray::new(w, 256);
                col.write_run(w, 0, &vec![9u64; 256]);
                let mut buf = vec![0u64; 256];
                col.read_run(w, 0, &mut buf[..split]);
                col.read_run(w, split, &mut buf[split..]);
            }).unwrap();
            sim.now_cycles() - before
        };
        // Splits at run-aligned boundaries charge identically.
        assert_eq!(cost(32), cost(64));
        assert_eq!(cost(96), cost(128));
    }

    #[test]
    fn table_columns_have_disjoint_pages() {
        let mut sim = sim();
        sim.try_serial(&mut (), |w, _| {
            let t = ColumnTable::new(w, 1024);
            assert_ne!(t.keys.base(), t.vals.base());
            let keys: Vec<u64> = (0..1024).collect();
            t.keys.write_run(w, 0, &keys);
            // The vals column was never touched; only keys reads work.
            let mut back = vec![0u64; 8];
            t.keys.read_run(w, 500, &mut back);
            assert_eq!(back, (500..508).collect::<Vec<u64>>());
        }).unwrap();
    }

    #[test]
    fn partitions_cover_without_overlap() {
        let mut sim = sim();
        sim.try_serial(&mut (), |w, _| {
            let col = ColumnArray::new(w, 103);
            let mut seen = vec![false; 103];
            for tid in 0..8 {
                for i in col.partition(tid, 8) {
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "some index unassigned");
        }).unwrap();
    }
}
