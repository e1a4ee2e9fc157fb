//! A direct-mapped TLB model.
//!
//! The real TLBs of Table II are small set-associative structures; a
//! direct-mapped tag array of the same total capacity reproduces the two
//! behaviours the paper's THP analysis depends on — capacity misses when
//! the touched page set exceeds TLB reach, and the reach increase from
//! 2 MB pages — at O(1) cost per access.

/// Direct-mapped TLB for one page size.
///
/// Validity is tracked separately from the tag: an earlier version used
/// `u64::MAX` as an in-band empty-slot sentinel, which made page number
/// `u64::MAX` report a phantom hit on a cold slot and disappear from
/// `occupied()`. Every 64-bit page number is now a legal tag.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Tag per slot; meaningful only where `valid` is set.
    tags: Vec<u64>,
    /// Per-slot validity bit.
    valid: Vec<bool>,
    /// Slot mask (`tags.len() - 1`); tags length is a power of two.
    mask: u64,
}

impl Tlb {
    /// Create a TLB with at least `entries` slots (rounded up to a power
    /// of two so indexing is a mask). A zero-entry TLB is valid and
    /// misses on every lookup.
    pub fn new(entries: u64) -> Self {
        if entries == 0 {
            return Tlb { tags: Vec::new(), valid: Vec::new(), mask: 0 };
        }
        let size = entries.next_power_of_two() as usize;
        Tlb { tags: vec![0; size], valid: vec![false; size], mask: size as u64 - 1 }
    }

    /// Look up a page number; inserts on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, page_number: u64) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let slot = (mix(page_number) & self.mask) as usize;
        if self.valid[slot] && self.tags[slot] == page_number {
            true
        } else {
            self.tags[slot] = page_number;
            self.valid[slot] = true;
            false
        }
    }

    /// Whether `page_number` is resident. Only reads: unlike
    /// [`Tlb::access`] a miss inserts nothing, so asking never changes
    /// a later outcome.
    #[inline]
    pub fn contains(&self, page_number: u64) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let slot = (mix(page_number) & self.mask) as usize;
        self.valid[slot] && self.tags[slot] == page_number
    }

    /// Drop all translations (context switch / migration / shootdown).
    pub fn flush(&mut self) {
        self.valid.fill(false);
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Number of currently valid translations.
    pub fn occupied(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

/// Cheap invertible mixer so that sequential page numbers spread across
/// slots (real TLBs index on low bits; mixing avoids pathological aliasing
/// with our synthetic address layout while preserving determinism).
#[inline]
fn mix(x: u64) -> u64 {
    crate::mix::xor_mul_shift(x, 33, 0xff51_afd7_ed55_8ccd, 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut tlb = Tlb::new(16);
        assert!(!tlb.access(42));
        assert!(tlb.access(42));
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut tlb = Tlb::new(0);
        assert!(!tlb.access(1));
        assert!(!tlb.access(1));
        assert_eq!(tlb.capacity(), 0);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut tlb = Tlb::new(8);
        tlb.access(1);
        tlb.access(2);
        assert!(tlb.occupied() > 0);
        tlb.flush();
        assert_eq!(tlb.occupied(), 0);
        assert!(!tlb.access(1));
    }

    #[test]
    fn sentinel_page_number_is_a_real_translation() {
        // u64::MAX doubled as the empty-slot tag before validity bits:
        // a cold lookup of that page reported a phantom hit and the
        // inserted entry never showed up in occupied().
        let mut tlb = Tlb::new(8);
        assert!(!tlb.access(u64::MAX), "cold slot must miss, even for the old sentinel");
        assert!(tlb.access(u64::MAX), "second access is a genuine hit");
        assert_eq!(tlb.occupied(), 1, "the entry is counted as resident");
        tlb.flush();
        assert_eq!(tlb.occupied(), 0);
        assert!(!tlb.access(u64::MAX), "flush forgets the sentinel page too");
    }

    #[test]
    fn contains_only_reads() {
        // Interleave `contains` into an access stream with collisions
        // (64 slots, 512 pages) and compare against a twin that never
        // asks: occupancy and every later outcome must match.
        let mut asked = Tlb::new(64);
        let mut plain = Tlb::new(64);
        assert!(!Tlb::new(0).contains(1));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % 512;
            let before = asked.occupied();
            let resident = asked.contains(page);
            assert_eq!(asked.occupied(), before, "contains changed occupancy");
            let hit = asked.access(page);
            assert_eq!(hit, resident, "contains disagreed with the next access");
            assert_eq!(hit, plain.access(page), "asking changed an outcome");
            assert_eq!(asked.occupied(), plain.occupied());
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Tlb::new(40).capacity(), 64);
        assert_eq!(Tlb::new(64).capacity(), 64);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut tlb = Tlb::new(1024);
        let pages: Vec<u64> = (0..64).collect();
        for &p in &pages {
            tlb.access(p);
        }
        // With 64 pages in 1024 slots, collisions are improbable but not
        // impossible; demand a high hit rate rather than perfection.
        let hits = pages.iter().filter(|&&p| tlb.access(p)).count();
        assert!(hits >= 60, "only {hits}/64 hits");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut tlb = Tlb::new(16);
        // Stream over 4096 pages, twice: second pass should still miss
        // nearly always because the set is 256x the capacity.
        let mut misses = 0;
        for _pass in 0..2 {
            for p in 0..4096u64 {
                if !tlb.access(p) {
                    misses += 1;
                }
            }
        }
        assert!(misses > 7000, "only {misses} misses");
    }
}
