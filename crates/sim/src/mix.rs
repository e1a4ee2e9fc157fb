//! The shared xor-multiply-shift bit mixer behind every hash in the
//! simulator: LLC set selection, TLB set selection, the writer table,
//! and the fault plan's deterministic PRNG all finalize addresses (or
//! seeds) through one round of this construction, each with its own
//! shift/multiplier constants so the structures stay decorrelated.
//!
//! Keeping the round in one place means the page-granular fast path and
//! the per-line reference path cannot drift apart by editing one copy
//! of the hash and not another — any change here changes both.

/// One xor-shift / multiply / xor-shift finalization round.
///
/// The callers' constants are load-bearing: they determine which sets
/// and slots every address in every seeded experiment maps to, so
/// changing any of them changes simulation results.
#[inline]
#[must_use]
pub(crate) const fn xor_mul_shift(mut x: u64, pre: u32, mult: u64, post: u32) -> u64 {
    x ^= x >> pre;
    x = x.wrapping_mul(mult);
    x ^ (x >> post)
}

/// A cheap deterministic hasher for host-side maps keyed by integers
/// or short byte strings (the per-worker page heat map, the query
/// plans' maps): one multiply per 8-byte word and one finalization
/// round, where std's `RandomState` runs SipHash with a per-process
/// seed. Only host time depends on it — every map it keys is either
/// sorted before use, only looked up, or iterated where the order
/// cannot reach a charge — so it cannot move a model result.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        xor_mul_shift(self.0, 32, 0xd6e8_feb8_6659_fd93, 32)
    }
}

/// `HashMap`/`HashSet` builder for [`MixHasher`].
pub type MixBuildHasher = std::hash::BuildHasherDefault<MixHasher>;

/// Hint the host CPU to pull `r`'s cache line closer.
///
/// Purely a host-side latency hint — it reads nothing and writes
/// nothing, so issuing (or not issuing) it can never change model
/// cycles or counters. The fast path uses it to overlap the otherwise
/// serialized host-cache misses on the page table, LLC tag array, and
/// writer table.
#[inline]
pub(crate) fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` performs no memory access and is defined
    // for any address; `r` is a live reference.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            (r as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_matches_hand_computation() {
        let x = 0xdead_beef_u64;
        let mut y = x;
        y ^= y >> 33;
        y = y.wrapping_mul(0xff51_afd7_ed55_8ccd);
        y ^= y >> 33;
        assert_eq!(xor_mul_shift(x, 33, 0xff51_afd7_ed55_8ccd, 33), y);
    }

    #[test]
    fn mix_hasher_is_deterministic_and_spreads_keys() {
        use std::hash::BuildHasher;
        let h = |x: u64| MixBuildHasher::default().hash_one(x);
        assert_eq!(h(42), h(42));
        assert_eq!(
            MixBuildHasher::default().hash_one("l_shipdate"),
            MixBuildHasher::default().hash_one("l_shipdate")
        );
        assert_ne!(
            MixBuildHasher::default().hash_one("l_shipdate"),
            MixBuildHasher::default().hash_one("l_commitdate")
        );
        // Consecutive pages land in distinct buckets and control bytes.
        let low: std::collections::HashSet<u64> = (0..1024).map(|p| h(p) & 1023).collect();
        let top: std::collections::HashSet<u64> = (0..1024).map(|p| h(p) >> 57).collect();
        assert!(low.len() > 600 && top.len() > 100, "{} {}", low.len(), top.len());
    }

    #[test]
    fn distinct_constants_decorrelate() {
        let x = 0x1234_5678_9abc_def0_u64;
        let a = xor_mul_shift(x, 31, 0x7fb5_d329_728e_a185, 27);
        let b = xor_mul_shift(x, 33, 0xff51_afd7_ed55_8ccd, 33);
        let c = xor_mul_shift(x, 30, 0xbf58_476d_1ce4_e5b9, 27);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
