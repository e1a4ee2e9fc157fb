//! Dense arrays of 16-byte tuples in simulated memory — the in-memory
//! input relations of the W1–W4 workloads.

use nqp_sim::{VAddr, Worker};

/// Bytes per tuple: `(u64 key, u64 value)`.
pub const TUPLE_BYTES: u64 = 16;

/// A fixed-length array of `(key, value)` tuples in simulated memory.
///
/// The backing pages are mapped by whoever constructs the array, so under
/// First Touch the *loader's* node owns the data — the mechanism behind
/// the paper's placement effects (a coordinator-loaded table concentrates
/// on one node; partition-parallel loading spreads it).
#[derive(Debug, Clone, Copy)]
pub struct TupleArray {
    base: VAddr,
    len: u64,
}

impl TupleArray {
    /// Map (but do not touch) space for `len` tuples.
    pub fn new(w: &mut Worker<'_>, len: usize) -> Self {
        let bytes = (len as u64 * TUPLE_BYTES).max(1);
        TupleArray { base: w.map_pages(bytes), len: len as u64 }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the backing mapping.
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Address of tuple `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> VAddr {
        debug_assert!((i as u64) < self.len);
        self.base + i as u64 * TUPLE_BYTES
    }

    /// Write tuple `i` (first touch places its page).
    #[inline]
    pub fn write(&self, w: &mut Worker<'_>, i: usize, key: u64, val: u64) {
        let addr = self.addr_of(i);
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&key.to_le_bytes());
        buf[8..].copy_from_slice(&val.to_le_bytes());
        w.write_bytes(addr, &buf);
    }

    /// Read tuple `i` — both fields in one ranged access.
    #[inline]
    pub fn read(&self, w: &mut Worker<'_>, i: usize) -> (u64, u64) {
        w.read_u64_pair(self.addr_of(i))
    }

    /// Read tuples `[i, i + out.len())` as bulk ranged accesses (up to
    /// 32 tuples per touch) instead of one access charge per tuple —
    /// the tuple-at-once path the hot scan loops (aggregate build, join
    /// probe) use to amortise per-call overhead.
    pub fn read_run(&self, w: &mut Worker<'_>, i: usize, out: &mut [(u64, u64)]) {
        debug_assert!(i as u64 + out.len() as u64 <= self.len);
        const CHUNK: usize = 32;
        let mut flat = [0u64; CHUNK * 2];
        let mut done = 0;
        while done < out.len() {
            let n = (out.len() - done).min(CHUNK);
            w.read_u64_run(self.addr_of(i + done), &mut flat[..n * 2]);
            for t in 0..n {
                out[done + t] = (flat[t * 2], flat[t * 2 + 1]);
            }
            done += n;
        }
    }

    /// The contiguous index range this thread should process when `tid`
    /// of `nthreads` partitions the array (the morsel assignment used by
    /// every parallel scan in the workspace).
    pub fn partition(&self, tid: usize, nthreads: usize) -> std::ops::Range<usize> {
        let n = self.len as usize;
        let per = n.div_ceil(nthreads);
        let start = (tid * per).min(n);
        let end = ((tid + 1) * per).min(n);
        start..end
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
    fn tuples_round_trip() {
        let mut sim = sim();
        sim.try_serial(&mut (), |w, _| {
            let arr = TupleArray::new(w, 100);
            for i in 0..100 {
                arr.write(w, i, i as u64 * 3, i as u64 + 7);
            }
            for i in 0..100 {
                assert_eq!(arr.read(w, i), (i as u64 * 3, i as u64 + 7));
            }
        }).unwrap();
    }

    #[test]
    fn partitions_cover_without_overlap() {
        let mut sim = sim();
        sim.try_serial(&mut (), |w, _| {
            let arr = TupleArray::new(w, 103);
            let mut seen = vec![false; 103];
            for tid in 0..8 {
                for i in arr.partition(tid, 8) {
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "some index unassigned");
        }).unwrap();
    }

    #[test]
    fn parallel_writes_first_touch_their_partitions() {
        let mut sim = sim();
        let mut arr = None;
        sim.try_serial(&mut arr, |w, arr| {
            *arr = Some(TupleArray::new(w, 4096));
        }).unwrap();
        let arr = arr.expect("created");
        sim.try_parallel(4, &mut (), |w, _| {
            for i in arr.partition(w.tid(), 4) {
                arr.write(w, i, i as u64, 0);
            }
        }).unwrap();
        // Each quarter of the array should live on the toucher's node.
        let first = sim.node_of(arr.addr_of(0)).expect("touched");
        let last = sim.node_of(arr.addr_of(4095)).expect("touched");
        assert_ne!(first, last, "first-touch should spread partitions");
    }
}
