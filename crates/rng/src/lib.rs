//! The workspace's one random-number generator.
//!
//! Every random choice in CounterMiner — simulated counter noise, MLPX
//! glitches, GBRT subsampling, train/test shuffles, chaos fault
//! schedules, posterior resampling — is a pure function of a `u64`
//! seed, so a result (or a failing case) replays exactly from its seed.
//! [`Rng`] is SplitMix64: one Weyl-sequence step and a
//! multiply-xorshift finalizer per draw, no dependencies, and a
//! [`split`](Rng::split) that derives an independent child stream.
//!
//! The API is the handful of draws the pipeline needs, as inherent
//! methods: raw 64-bit words, a `[0, 1)` float, uniform floats over a
//! half-open or closed range, an unbiased index below a bound, and a
//! Fisher–Yates shuffle.
//!
//! # Examples
//!
//! ```
//! use cm_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//!
//! let x = a.gen_range(-1.0..1.0);
//! assert!((-1.0..1.0).contains(&x));
//! let i = a.below(10);
//! assert!(i < 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Weyl-sequence increment (the golden-ratio constant of SplitMix64).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a multiply-xorshift bijection.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of stream `stream` of `seed` with the SplitMix64
/// finalizer. Whatever draws from stream `s` — GBRT stage `s`'s
/// subsample, posterior resampling draw `s`, the k-medoids start — is a
/// pure function of `(seed, s)`, never of execution order, so results
/// are bit-identical at any thread count. Adjacent streams are
/// statistically independent.
///
/// # Examples
///
/// ```
/// use cm_rng::{mix_seed, Rng};
///
/// assert_ne!(mix_seed(7, 0), mix_seed(7, 1));
/// let mut a = Rng::seed_from_u64(mix_seed(42, 3));
/// let mut b = Rng::seed_from_u64(mix_seed(42, 3));
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    finalize(seed ^ stream.wrapping_mul(GAMMA))
}

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits scaled into the unit
    /// interval.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or unordered (`!(lo < hi)`).
    pub fn gen_range(&mut self, range: Range<f64>) -> f64 {
        let Range { start: lo, end: hi } = range;
        assert!(lo < hi, "cannot sample empty range {lo}..{hi}");
        let v = lo + (hi - lo) * self.next_f64();
        // Rounding can land on `hi`; keep the range half-open.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Uniform draw in the closed range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or unordered (`!(lo <= hi)`).
    pub fn gen_range_inclusive(&mut self, range: RangeInclusive<f64>) -> f64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "cannot sample empty range {lo}..={hi}");
        (lo + (hi - lo) * self.next_f64()).min(hi)
    }

    /// Uniform index in `0..n`, without modulo bias: draws falling in
    /// the incomplete top block of `2^64 mod n` values are rejected and
    /// redrawn.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample empty range 0..0");
        let span = n as u64;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return (x % span) as usize;
            }
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates, last position first).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives an independent generator, advancing this one by one draw.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_rng::Rng;
    ///
    /// let mut parent = Rng::seed_from_u64(1);
    /// let mut child = parent.split();
    /// // The child stream is distinct from the parent's continuation.
    /// assert_ne!(child.next_u64(), parent.clone().next_u64());
    /// ```
    pub fn split(&mut self) -> Rng {
        // Re-mix the draw so parent and child Weyl sequences never align.
        Rng::seed_from_u64(self.next_u64().wrapping_mul(GAMMA) ^ 0xA5A5_A5A5_A5A5_A5A5)
    }
}
