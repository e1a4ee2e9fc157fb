//! A direct-mapped last-level-cache model, one instance per NUMA node.
//!
//! Tags are line addresses. A direct-mapped array of the configured
//! capacity reproduces the effects the paper measures — working-set
//! capacity misses, and the cold-cache penalty after a thread migrates to
//! another node (whose LLC does not hold its lines) — at O(1) per touch.

/// Per-node last-level cache.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct Llc {
    tags: Vec<u64>,
    mask: u64,
}

impl Clone for Llc {
    fn clone(&self) -> Self {
        Llc { tags: self.tags.clone(), mask: self.mask }
    }

    /// Copies into the existing tag array when it is large enough, so a
    /// kept copy is refreshed without new pages.
    fn clone_from(&mut self, source: &Self) {
        self.tags.clone_from(&source.tags);
        self.mask = source.mask;
    }
}

/// The tag of an empty slot. Line 0 lies in page 0, which is never
/// mapped (address 0 is null), so no access ever looks up line 0: an
/// empty slot can hold 0, and a fresh tag array is allocated zeroed —
/// faulted in by the host only where lines land — instead of filled.
const EMPTY: u64 = 0;

impl Llc {
    /// Build an LLC holding `lines` cache lines (rounded up to a power of
    /// two).
    pub fn new(lines: u64) -> Self {
        let size = lines.max(1).next_power_of_two() as usize;
        Llc { tags: vec![EMPTY; size], mask: size as u64 - 1 }
    }

    /// Touch a line address; inserts on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line_addr: u64) -> bool {
        access_in(self.mask, &mut self.tags[..], line_addr)
    }

    /// Prefetch the host cache line holding `line_addr`'s tag slot.
    /// A pure latency hint: never reads or writes the tag, so it cannot
    /// affect hit/miss outcomes.
    #[inline]
    pub fn prefetch(&self, line_addr: u64) {
        crate::mix::prefetch(&self.tags[slot_of(self.mask, line_addr)]);
    }

    /// The slot mask and the tag array: the raw parts a sharded
    /// region's undo-logged view runs [`access_in`] over.
    pub(crate) fn parts_mut(&mut self) -> (u64, &mut [u64]) {
        (self.mask, &mut self.tags)
    }

    /// Invalidate everything (used by cold-run experiments).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Number of line slots.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

/// The tag slot `line_addr` maps to in an LLC with slot mask `mask`.
#[inline]
pub(crate) fn slot_of(mask: u64, line_addr: u64) -> usize {
    (crate::mix::xor_mul_shift(line_addr, 31, 0x7fb5_d329_728e_a185, 27) & mask) as usize
}

/// A direct-mapped tag array: an [`Llc`]'s own tags, or a sharded
/// worker's undo-logged view of them.
pub(crate) trait Tags {
    fn tag(&self, slot: usize) -> u64;
    fn set_tag(&mut self, slot: usize, line_addr: u64);
}

impl Tags for [u64] {
    #[inline]
    fn tag(&self, slot: usize) -> u64 {
        self[slot]
    }

    #[inline]
    fn set_tag(&mut self, slot: usize, line_addr: u64) {
        self[slot] = line_addr;
    }
}

/// The LLC's hit/insert rule over any tag store with slot mask `mask`:
/// `true` on a hit, insert `line_addr` on a miss.
#[inline]
pub(crate) fn access_in<T: Tags + ?Sized>(mask: u64, tags: &mut T, line_addr: u64) -> bool {
    let slot = slot_of(mask, line_addr);
    if tags.tag(slot) == line_addr {
        true
    } else {
        tags.set_tag(slot, line_addr);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Llc::new(1024);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = Llc::new(64);
        c.access(7);
        c.flush();
        assert!(!c.access(7));
    }

    #[test]
    fn small_working_set_mostly_hits() {
        let mut c = Llc::new(4096);
        for line in 0..256u64 {
            c.access(line);
        }
        let hits = (0..256u64).filter(|&l| c.access(l)).count();
        assert!(hits >= 240, "only {hits}/256 hits");
    }

    #[test]
    fn oversized_working_set_mostly_misses() {
        let mut c = Llc::new(64);
        let mut misses = 0;
        for _ in 0..2 {
            for line in 0..8192u64 {
                if !c.access(line) {
                    misses += 1;
                }
            }
        }
        assert!(misses > 15_000, "only {misses} misses");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Llc::new(1000).capacity_lines(), 1024);
    }
}
