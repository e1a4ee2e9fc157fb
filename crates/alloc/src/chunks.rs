//! The chunk source: how allocators obtain memory from the (simulated)
//! operating system, with resident-set accounting.

use nqp_sim::{VAddr, Worker};

/// Acquires address space from the OS in fixed-size chunks, reuses
/// released chunks, and tracks the resident set — the numerator of the
/// Figure 2b overhead metric.
#[derive(Debug)]
pub struct ChunkSource {
    chunk_bytes: u64,
    free: Vec<(VAddr, u64)>,
    resident: u64,
    peak_resident: u64,
    committed: u64,
    peak_committed: u64,
    os_calls: u64,
}

impl ChunkSource {
    /// A source that maps memory `chunk_bytes` at a time (requests larger
    /// than a chunk are rounded up to a chunk multiple).
    pub fn new(chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0);
        ChunkSource {
            chunk_bytes,
            free: Vec::new(),
            resident: 0,
            peak_resident: 0,
            committed: 0,
            peak_committed: 0,
            os_calls: 0,
        }
    }

    /// Obtain at least `bytes` of chunk-aligned memory, preferring a
    /// previously released chunk of sufficient size.
    pub fn grab(&mut self, w: &mut Worker<'_>, bytes: u64) -> (VAddr, u64) {
        let want = bytes.div_ceil(self.chunk_bytes) * self.chunk_bytes;
        if let Some(pos) = self.free.iter().position(|&(_, len)| len >= want) {
            let (addr, len) = self.free.swap_remove(pos);
            self.resident += len;
            self.peak_resident = self.peak_resident.max(self.resident);
            return (addr, len);
        }
        let addr = w.map_pages(want);
        self.os_calls += 1;
        self.resident += want;
        self.peak_resident = self.peak_resident.max(self.resident);
        (addr, want)
    }

    /// Return a chunk for reuse. The model keeps released chunks cached
    /// (like allocators that retain rather than `munmap`), so the resident
    /// set only shrinks logically, not back to the OS.
    pub fn release(&mut self, addr: VAddr, bytes: u64) {
        self.resident = self.resident.saturating_sub(bytes);
        self.free.push((addr, bytes));
    }

    /// Like [`ChunkSource::grab`] but returning only the address; pair
    /// with [`ChunkSource::release_sized`], which re-derives the rounded
    /// length from the request size (the large-object path of every
    /// allocator model).
    pub fn grab_sized(&mut self, w: &mut Worker<'_>, size: u64) -> VAddr {
        let len = size.div_ceil(self.chunk_bytes) * self.chunk_bytes;
        self.commit(len);
        self.grab(w, size).0
    }

    /// Release a chunk obtained via [`ChunkSource::grab_sized`].
    pub fn release_sized(&mut self, addr: VAddr, size: u64) {
        let len = size.div_ceil(self.chunk_bytes) * self.chunk_bytes;
        self.uncommit(len);
        self.release(addr, len);
    }

    /// Record `bytes` as committed (faulted-in). Mapped-but-untouched
    /// address space does not count toward RSS on a demand-paged OS; the
    /// overhead metric of Figure 2b is about *committed* memory, so pools
    /// call this as they carve regions out of their chunks.
    pub fn commit(&mut self, bytes: u64) {
        self.committed += bytes;
        self.peak_committed = self.peak_committed.max(self.committed);
    }

    /// Return `bytes` of committed memory (large-object frees).
    pub fn uncommit(&mut self, bytes: u64) {
        self.committed = self.committed.saturating_sub(bytes);
    }

    /// Bytes currently counted against the resident set.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// High-water resident set — the "maximum resident set size" of the
    /// paper's overhead measurement.
    pub fn peak_resident(&self) -> u64 {
        self.peak_resident
    }

    /// Currently committed (faulted-in) bytes.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// High-water committed bytes: the RSS proxy allocators report as
    /// their resident set.
    pub fn peak_committed(&self) -> u64 {
        self.peak_committed
    }

    /// Number of times the OS was asked for fresh memory (mcmalloc's
    /// batching exists to shrink this).
    pub fn os_calls(&self) -> u64 {
        self.os_calls
    }

    /// The configured chunk granularity.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }
}

/// Tracks the denominator of the overhead metric: bytes the *application*
/// asked for and has not yet freed.
#[derive(Debug, Default)]
pub struct RequestedBytes {
    live: u64,
    peak: u64,
}

impl RequestedBytes {
    /// Record an allocation of `size` user bytes.
    pub fn on_alloc(&mut self, size: u64) {
        self.live += size;
        self.peak = self.peak.max(self.live);
    }

    /// Record a free of `size` user bytes.
    pub fn on_free(&mut self, size: u64) {
        self.live = self.live.saturating_sub(size);
    }

    /// Currently live user bytes.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// High-water of live user bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::{NumaSim, SimConfig, ThreadPlacement};
    use nqp_topology::machines;

    fn with_worker<R>(f: impl FnMut(&mut Worker<'_>, &mut ()) -> R) -> R
    where
        R: Default,
    {
        let cfg = SimConfig::os_default(machines::machine_b())
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false);
        let mut sim = NumaSim::new(cfg);
        let mut out = R::default();
        let mut f = f;
        sim.try_serial(&mut (), |w, s| {
            out = f(w, s);
        }).unwrap();
        out
    }

    #[test]
    fn grab_rounds_to_chunk_multiples() {
        let sizes: Vec<u64> = with_worker(|w, _| {
            let mut src = ChunkSource::new(1 << 20);
            let (_, a) = src.grab(w, 100);
            let (_, b) = src.grab(w, (1 << 20) + 1);
            vec![a, b]
        });
        assert_eq!(sizes, vec![1 << 20, 2 << 20]);
    }

    #[test]
    fn released_chunks_are_reused() {
        let (reused, os_calls): (bool, u64) = with_worker(|w, _| {
            let mut src = ChunkSource::new(4096);
            let (a, len) = src.grab(w, 4096);
            src.release(a, len);
            let (b, _) = src.grab(w, 4096);
            (a == b, src.os_calls())
        });
        assert!(reused);
        assert_eq!(os_calls, 1);
    }

    #[test]
    fn resident_tracks_grab_and_release() {
        let (resident, peak): (u64, u64) = with_worker(|w, _| {
            let mut src = ChunkSource::new(4096);
            let (a, la) = src.grab(w, 4096);
            let (_b, _lb) = src.grab(w, 8192);
            src.release(a, la);
            (src.resident(), src.peak_resident())
        });
        assert_eq!(resident, 8192);
        assert_eq!(peak, 4096 + 8192);
    }

    #[test]
    fn requested_bytes_track_live_and_peak() {
        let mut r = RequestedBytes::default();
        r.on_alloc(100);
        r.on_alloc(50);
        r.on_free(100);
        assert_eq!(r.live(), 50);
        assert_eq!(r.peak(), 150);
    }
}
