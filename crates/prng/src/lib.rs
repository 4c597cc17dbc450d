//! Self-contained deterministic pseudo-randomness for the `xhybrid`
//! workspace.
//!
//! Everything stochastic in the workspace — synthetic workload generation,
//! random circuit synthesis, ATPG random fill, the `Seeded` pivot-selection
//! policy — must be *reproducible per seed* so experiments and tests are
//! stable across machines and releases. This crate provides that with zero
//! external dependencies:
//!
//! * [`XhcRng`] — a xoshiro256\*\* generator seeded through SplitMix64,
//!   with convenience samplers (`gen_bool`, `gen_range` over integer and
//!   float ranges);
//! * [`SliceRandom`] — `choose` / `shuffle` extension methods on slices;
//! * [`sample_indices`] — `k` distinct indices from `0..n` without
//!   replacement.
//!
//! The stream is a fixed part of the workspace contract: changing the
//! algorithm changes every seeded artifact, so treat the output sequence
//! as stable API.
//!
//! # Examples
//!
//! ```
//! use xhc_prng::{SliceRandom, XhcRng};
//!
//! let mut rng = XhcRng::seed_from_u64(42);
//! let d6 = rng.gen_range(1..=6usize);
//! assert!((1..=6).contains(&d6));
//!
//! let mut deck: Vec<u32> = (0..10).collect();
//! deck.shuffle(&mut rng);
//! assert_eq!(deck.len(), 10);
//!
//! // Determinism: the same seed always yields the same stream.
//! let a: Vec<u64> = (0..4).map(|_| XhcRng::seed_from_u64(7).next_u64()).collect();
//! assert!(a.windows(2).all(|w| w[0] == w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::ops::{Range, RangeInclusive};

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing permutation.
///
/// This is the mixing step of the reference xoshiro seeding procedure
/// (used by [`XhcRng::seed_from_u64`]) and doubles as the workspace's
/// content-hash mixer (`xhc-wire`). Like the RNG stream, the output of
/// this function is stable workspace API: content-addressed artifacts
/// depend on it bit-for-bit.
#[inline]
pub fn splitmix64_mix(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded deterministic pseudo-random number generator
/// (xoshiro256\*\* state, SplitMix64 seeding).
///
/// Not cryptographically secure — it exists to make experiments
/// reproducible, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XhcRng {
    s: [u64; 4],
}

impl XhcRng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the reference seeding procedure for
        // xoshiro: guarantees a non-zero state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64_mix(sm)
        };
        XhcRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly-distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 53 uniformly-distributed bits: the draw [`next_f64`]
    /// scales into `[0, 1)` with [`unit_f64`].
    ///
    /// [`next_f64`]: XhcRng::next_f64
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision:
    /// `unit_f64(self.next_u53())`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u53())
    }

    /// A Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.next_f64() < p
    }

    /// A uniform index in `0..n` (Lemire's nearly-divisionless method).
    ///
    /// A widening multiply maps each 64-bit draw to `0..n`; draws whose
    /// low product word falls below `2^64 mod n` are rejected for exact
    /// uniformity. That rejection threshold costs a 64-bit division, so
    /// it is computed only on the slow path, when the low word is below
    /// `n` (the threshold is always smaller than `n`). Which draws are
    /// accepted, and so the output stream, does not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        let range = n as u64;
        let mut m = (self.next_u64() as u128) * (range as u128);
        if (m as u64) < range {
            let threshold = range.wrapping_neg() % range;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (range as u128);
            }
        }
        (m >> 64) as usize
    }

    /// A uniform draw from a range: `a..b` / `a..=b` over `usize`, or a
    /// half-open `f64` range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// The `f64` in `[0, 1)` that a 53-bit draw `k` stands for: exactly
/// `k / 2^53` (every `k <= 2^53` converts without rounding). [`XhcRng::next_f64`] is `unit_f64(next_u53())`, so
/// `unit_f64(k) * t` is, bit for bit, the value `gen_range(0.0..t)`
/// returns for the same draw. The map `k ↦ unit_f64(k) * t` is
/// monotone, which lets a caller bucket draws by `k` itself.
#[inline]
pub fn unit_f64(k: u64) -> f64 {
    k as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range type [`XhcRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut XhcRng) -> Self::Output;
}

impl SampleRange for Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut XhcRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_index(self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut XhcRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.gen_index(hi - lo + 1)
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut XhcRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// `choose` / `shuffle` extension methods on slices, mirroring the usual
/// slice-sampling idiom.
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// A uniformly-chosen element, or `None` if the slice is empty.
    fn choose(&self, rng: &mut XhcRng) -> Option<&Self::Item>;
    /// An in-place Fisher–Yates shuffle.
    fn shuffle(&mut self, rng: &mut XhcRng);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose(&self, rng: &mut XhcRng) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_index(self.len())])
        }
    }

    fn shuffle(&mut self, rng: &mut XhcRng) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_index(i + 1));
        }
    }
}

/// Samples `k` distinct indices from `0..n`, uniformly without
/// replacement. The returned order is itself random.
///
/// Uses rejection sampling when `k` is small relative to `n` (no `O(n)`
/// allocation) and a partial Fisher–Yates shuffle otherwise.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices(rng: &mut XhcRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
    if k == 0 {
        return Vec::new();
    }
    if k * 3 < n {
        let mut chosen = HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = rng.gen_index(n);
            if chosen.insert(i) {
                out.push(i);
            }
        }
        out
    } else {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.gen_index(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = XhcRng::seed_from_u64(123);
        let mut b = XhcRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = XhcRng::seed_from_u64(1);
        let mut b = XhcRng::seed_from_u64(2);
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        assert!(!same);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = XhcRng::seed_from_u64(0);
        // SplitMix64 seeding never produces the all-zero state.
        assert!((0..4).any(|_| rng.next_u64() != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = XhcRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = XhcRng::seed_from_u64(4);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = XhcRng::seed_from_u64(5);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "{heads}");
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = XhcRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!((3..7).contains(&rng.gen_range(3..7usize)));
            assert!((2..=3).contains(&rng.gen_range(2..=3usize)));
            let f = rng.gen_range(0.0..2.5f64);
            assert!((0.0..2.5).contains(&f));
        }
        // Degenerate inclusive range.
        assert_eq!(rng.gen_range(5..=5usize), 5);
    }

    #[test]
    fn gen_index_covers_all_values() {
        let mut rng = XhcRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// `gen_index` as it was before the nearly-divisionless fast path:
    /// the rejection threshold computed on every call.
    fn gen_index_always_dividing(rng: &mut XhcRng, n: usize) -> usize {
        assert!(n > 0, "empty range");
        let range = n as u64;
        // Widening multiply with rejection: exact uniformity.
        let threshold = range.wrapping_neg() % range;
        loop {
            let x = rng.next_u64();
            let m = (x as u128) * (range as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    #[test]
    fn gen_index_stream_matches_always_dividing_form() {
        // 2^63 + 1 rejects about half of all draws, so the slow path and
        // its retry loop run constantly there.
        let ns = [1usize, 3, 3000, (1 << 32) + 1, (1 << 63) + 1, usize::MAX];
        for seed in 0..200 {
            let mut fast = XhcRng::seed_from_u64(seed);
            let mut slow = fast.clone();
            for _ in 0..50 {
                for &n in &ns {
                    assert_eq!(
                        fast.gen_index(n),
                        gen_index_always_dividing(&mut slow, n),
                        "seed {seed}, n {n}"
                    );
                    assert_eq!(fast, slow, "state diverged: seed {seed}, n {n}");
                }
            }
        }
    }

    #[test]
    fn unit_f64_of_next_u53_is_gen_range_from_zero() {
        // Same seed on both sides: one stream scaled by hand, one through
        // `gen_range(0.0..t)`, compared bit for bit.
        for t in [
            1.0,
            3.0,
            0.1,
            7_800.0 * 20.085_536_923_187_668,
            1e300,
            f64::MIN_POSITIVE,
        ] {
            let mut by_hand = XhcRng::seed_from_u64(0x53);
            let mut ranged = by_hand.clone();
            for _ in 0..100_000 {
                let want = ranged.gen_range(0.0..t);
                let got = unit_f64(by_hand.next_u53()) * t;
                assert_eq!(got.to_bits(), want.to_bits(), "t {t}");
            }
            assert_eq!(by_hand, ranged, "t {t}");
        }
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64((1 << 53) - 1), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        XhcRng::seed_from_u64(0).gen_range(3..3usize);
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = XhcRng::seed_from_u64(8);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [10, 20, 30];
        assert!(items.contains(items.choose(&mut rng).unwrap()));

        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "50 elements should not shuffle to identity");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = XhcRng::seed_from_u64(11);
        for (n, k) in [(100, 3), (100, 90), (10, 10), (1, 1), (50, 0)] {
            let s = sample_indices(&mut rng, n, k);
            assert_eq!(s.len(), k);
            assert!(s.iter().all(|&i| i < n));
            let distinct: HashSet<usize> = s.iter().copied().collect();
            assert_eq!(distinct.len(), k, "duplicates in sample({n},{k})");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        sample_indices(&mut XhcRng::seed_from_u64(0), 3, 4);
    }

    #[test]
    fn splitmix_mix_is_deterministic_and_avalanches() {
        assert_eq!(splitmix64_mix(0), 0);
        assert_eq!(splitmix64_mix(0xDEAD_BEEF), splitmix64_mix(0xDEAD_BEEF));
        // One flipped input bit changes roughly half the output bits.
        let d = (splitmix64_mix(0xDEAD_BEEF) ^ splitmix64_mix(0xDEAD_BEEE)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
        // The seeding path still produces the pinned stream (checked in
        // stream_is_pinned below), so the refactor is observably identical.
    }

    #[test]
    fn stream_is_pinned() {
        // The output sequence is workspace API: seeded artifacts (synthetic
        // workloads, generated circuits) depend on it bit-for-bit.
        let mut rng = XhcRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
            ]
        );
    }
}
