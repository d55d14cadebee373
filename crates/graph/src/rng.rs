//! A small, dependency-free deterministic PRNG.
//!
//! The generators (and the randomized test suites across the workspace)
//! only need reproducible, statistically reasonable streams — not
//! cryptographic strength — so a 64-bit SplitMix generator
//! (Steele, Lea & Flood, OOPSLA 2014) is plenty: one multiply-xorshift
//! chain per draw, equidistributed over `u64`, and the same sequence on
//! every platform for a given seed.
//!
//! SplitMix64 is counter-based: its state after `k` draws is
//! `seed + k·γ`, and each draw only mixes that state. So draw `k` can be
//! reached in O(1) ([`SplitMix64::at_draw`]), which lets a generator cut
//! one stream into chunks that are produced independently and still
//! concatenate to exactly the sequential output.

/// The Weyl-sequence increment γ (the golden ratio in 64-bit fixed point).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The generator for `seed` positioned after `k` draws: its next draw
    /// is draw `k` (0-based) of the stream `seed_from_u64(seed)` yields.
    pub fn at_draw(seed: u64, k: u64) -> Self {
        Self {
            state: seed.wrapping_add(k.wrapping_mul(GAMMA)),
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`. Uses the widening-multiply trick
    /// (Lemire 2019) — the modulo bias is below 2⁻⁶⁴·bound, irrelevant
    /// for simulation workloads. Panics if `bound` is zero.
    #[inline]
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.gen_range_u64((hi - lo) as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive; used by Fisher–Yates).
    #[inline]
    pub fn gen_range_inclusive_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.gen_range_u64((hi - lo) as u64 + 1) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(123);
        let mut b = SplitMix64::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn at_draw_jumps_to_the_same_point_of_the_stream() {
        let mut seq = SplitMix64::seed_from_u64(42);
        for k in 0..1000u64 {
            let mut jumped = SplitMix64::at_draw(42, k);
            assert_eq!(jumped.next_u64(), seq.next_u64(), "draw {k}");
        }
        let mut far = SplitMix64::seed_from_u64(u64::MAX);
        for _ in 0..77 {
            far.next_u64();
        }
        assert_eq!(SplitMix64::at_draw(u64::MAX, 77).next_u64(), far.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = SplitMix64::seed_from_u64(99);
        for _ in 0..10_000 {
            let v = r.gen_range_u32(1, 64);
            assert!((1..64).contains(&v));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
            let i = r.gen_range_inclusive_usize(0, 7);
            assert!(i <= 7);
        }
    }

    #[test]
    fn range_draws_cover_small_domains() {
        let mut r = SplitMix64::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range_u64(8) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 8 values should appear in 1000 draws"
        );
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SplitMix64::seed_from_u64(77);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
