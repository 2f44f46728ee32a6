//! Uncertainty-aware estimation for reconstructed counter values (the
//! BayesPerf direction): Gaussian posteriors, deterministic resampling
//! streams, and the top-K ranking-stability score.
//!
//! The point cleaner replaces an outlier or a missing sample with a
//! single number and forgets how confident that reconstruction was. The
//! `bayes` cleaning mode instead treats every reconstructed value as a
//! Gaussian [`Posterior`]: the mean is the point estimate (bit-identical
//! to the point cleaner's output) and the variance measures the
//! dispersion of the evidence the estimate was built from — the KNN
//! neighborhood for a missing-value fill, the surrounding segment for an
//! outlier replacement. This module holds the posterior type and the two
//! kernels that turn those variances into statements about a ranking:
//!
//! * [`rank_stability`] — the probability that a top-K importance order
//!   survives resampling every importance from its posterior, and
//! * [`empirical_coverage`] — the calibration check: how often nominal
//!   X % intervals actually cover the ground truth.
//!
//! All resampling is driven by a [`Rng`] seeded with
//! [`cm_rng::mix_seed`]`(seed, d)`: draw `d` is a pure function of `(seed, d)`,
//! never of execution order, so every score computed here is
//! bit-identical at any thread count.

use crate::{Distribution, Normal, StatsError};
use cm_rng::{mix_seed, Rng};

/// A Gaussian posterior over one reconstructed value.
///
/// # Examples
///
/// ```
/// use cm_stats::estimator::Posterior;
///
/// let p = Posterior::new(10.0, 4.0); // mean 10, variance 4 (std 2)
/// let (lo, hi) = p.interval(0.9545); // ±2σ covers ~95.45 %
/// assert!((lo - 6.0).abs() < 0.01);
/// assert!((hi - 14.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// The point estimate.
    pub mean: f64,
    /// Variance of the estimate (0 means "certain").
    pub variance: f64,
}

impl Posterior {
    /// Builds a posterior; a negative variance is clamped to zero (it
    /// can only arise from floating-point cancellation upstream).
    pub fn new(mean: f64, variance: f64) -> Self {
        Posterior {
            mean,
            variance: variance.max(0.0),
        }
    }

    /// Standard deviation of the posterior.
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }

    /// The central interval covering `confidence` of the posterior mass.
    ///
    /// # Panics
    ///
    /// Panics unless `confidence` lies strictly inside `(0, 1)`.
    pub fn interval(&self, confidence: f64) -> (f64, f64) {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must lie in (0, 1), got {confidence}"
        );
        if self.variance == 0.0 {
            return (self.mean, self.mean);
        }
        let z = standard_quantile(0.5 + confidence / 2.0);
        let half = z * self.std();
        (self.mean - half, self.mean + half)
    }
}

/// Standard normal quantile via [`Normal`].
fn standard_quantile(p: f64) -> f64 {
    Normal::new(0.0, 1.0)
        .expect("unit normal parameters are valid")
        .quantile(p)
}

/// Next standard-normal draw from `rng`, via the inverse CDF (so one
/// uniform consumes exactly one `next_u64`, keeping streams aligned).
///
/// # Examples
///
/// ```
/// use cm_rng::{mix_seed, Rng};
/// use cm_stats::estimator::next_gaussian;
///
/// // Resampling stream `d` of `seed` is a pure function of `(seed, d)`.
/// let mut a = Rng::seed_from_u64(mix_seed(42, 0));
/// let mut b = Rng::seed_from_u64(mix_seed(42, 0));
/// assert_eq!(next_gaussian(&mut a), next_gaussian(&mut b));
/// ```
pub fn next_gaussian(rng: &mut Rng) -> f64 {
    let u = rng.next_f64().clamp(f64::EPSILON, 1.0 - f64::EPSILON);
    standard_quantile(u)
}

/// Indices of the top `k` values, descending, ties broken by lower
/// index first (a total order, so the baseline is unambiguous).
fn top_order(values: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    order.truncate(k);
    order
}

/// The ranking-stability score: the probability that the top-`top_k`
/// order of `means` (descending) survives resampling every value from
/// `N(means[i], stds[i]²)`.
///
/// Each of the `draws` resamples perturbs all values with an
/// independent stream seeded with [`mix_seed`]`(seed, draw)` and checks
/// whether the perturbed top-K *order* (the same events in the same
/// positions) matches the unperturbed one; the score is the fraction of
/// draws that match. `1.0` means the order is rock-solid under the
/// posteriors; values near `0.0` mean the order is mostly noise.
///
/// Degenerate inputs short-circuit to exactly `1.0` without running the
/// Monte Carlo: an empty ranking, `top_k` of zero, a single value, or
/// all-zero `stds` (no posterior noise means the order cannot flip, so
/// the draws could only waste time agreeing).
///
/// # Errors
///
/// Returns [`StatsError::MismatchedLengths`] when `means` and `stds`
/// disagree, and [`StatsError::InvalidParameter`] for zero `draws`, a
/// non-finite mean or std, or a negative std.
///
/// # Examples
///
/// ```
/// use cm_stats::estimator::rank_stability;
///
/// // Well-separated means with tiny noise: the order always holds.
/// let solid = rank_stability(&[50.0, 30.0, 10.0], &[0.1, 0.1, 0.1], 2, 64, 7)?;
/// assert_eq!(solid, 1.0);
/// // Nearly-tied means with large noise: the order rarely holds.
/// let shaky = rank_stability(&[30.1, 30.0, 29.9], &[20.0, 20.0, 20.0], 2, 64, 7)?;
/// assert!(shaky < 0.9);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn rank_stability(
    means: &[f64],
    stds: &[f64],
    top_k: usize,
    draws: usize,
    seed: u64,
) -> Result<f64, StatsError> {
    if means.len() != stds.len() {
        return Err(StatsError::MismatchedLengths {
            left: means.len(),
            right: stds.len(),
        });
    }
    if draws == 0 {
        return Err(StatsError::InvalidParameter("draws must be at least 1"));
    }
    if means.iter().chain(stds).any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "means and stds must be finite",
        ));
    }
    if stds.iter().any(|&s| s < 0.0) {
        return Err(StatsError::InvalidParameter("stds must be nonnegative"));
    }
    // Degenerate rankings are perfectly stable by construction; answer
    // exactly 1.0 instead of resampling noise that cannot flip anything.
    if means.is_empty() || top_k == 0 || means.len() == 1 || stds.iter().all(|&s| s == 0.0) {
        return Ok(1.0);
    }
    let k = top_k.min(means.len());
    let baseline = top_order(means, k);
    let mut perturbed = vec![0.0f64; means.len()];
    let mut matches = 0usize;
    for draw in 0..draws {
        let mut stream = Rng::seed_from_u64(mix_seed(seed, draw as u64));
        for (i, p) in perturbed.iter_mut().enumerate() {
            *p = means[i] + stds[i] * next_gaussian(&mut stream);
        }
        if top_order(&perturbed, k) == baseline {
            matches += 1;
        }
    }
    Ok(matches as f64 / draws as f64)
}

/// The calibration check behind "are the intervals honest?": the
/// fraction of `truths` that fall inside their posterior's central
/// `confidence` interval. An honest estimator's empirical coverage
/// tracks the nominal level; the ground-truth calibration sweep in
/// `crates/sim` asserts exactly that against exact simulated counts.
///
/// # Errors
///
/// Returns [`StatsError::MismatchedLengths`] when the slices disagree
/// and [`StatsError::EmptyInput`] when there is nothing to check.
///
/// # Examples
///
/// ```
/// use cm_stats::estimator::{empirical_coverage, Posterior};
///
/// let posteriors = [Posterior::new(10.0, 1.0), Posterior::new(0.0, 1.0)];
/// // One truth inside its 95 % interval, one far outside.
/// let coverage = empirical_coverage(&[10.5, 9.0], &posteriors, 0.95)?;
/// assert_eq!(coverage, 0.5);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn empirical_coverage(
    truths: &[f64],
    posteriors: &[Posterior],
    confidence: f64,
) -> Result<f64, StatsError> {
    if truths.len() != posteriors.len() {
        return Err(StatsError::MismatchedLengths {
            left: truths.len(),
            right: posteriors.len(),
        });
    }
    if truths.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let covered = truths
        .iter()
        .zip(posteriors)
        .filter(|(&t, p)| {
            let (lo, hi) = p.interval(confidence);
            lo <= t && t <= hi
        })
        .count();
    Ok(covered as f64 / truths.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_interval_widens_with_confidence() {
        let p = Posterior::new(5.0, 9.0);
        let (lo90, hi90) = p.interval(0.90);
        let (lo99, hi99) = p.interval(0.99);
        assert!(lo99 < lo90 && hi99 > hi90);
        assert!((lo90 + hi90) / 2.0 - 5.0 < 1e-9);
    }

    #[test]
    fn zero_variance_interval_is_a_point() {
        let p = Posterior::new(3.0, 0.0);
        assert_eq!(p.interval(0.99), (3.0, 3.0));
    }

    #[test]
    fn negative_variance_is_clamped() {
        assert_eq!(Posterior::new(1.0, -1e-18).variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn interval_rejects_confidence_of_one() {
        Posterior::new(0.0, 1.0).interval(1.0);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut s = Rng::seed_from_u64(mix_seed(seed, stream));
            (0..4).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }

    /// Resampling streams captured before they were folded into
    /// [`Rng`]: `(seed, stream, [next_u64; 2], next_f64 bits, gaussian bits)`.
    const RESAMPLE: [(u64, u64, [u64; 2], u64, u64); 15] = [
        (
            0x0,
            0,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4],
            0x3f9b117462002500,
            0x3ffe4d7bc88accab,
        ),
        (
            0x0,
            1,
            [0xa706dd2f4d197e6f, 0xb382a305f4414f5e],
            0x3fd8c6a4553eeafc,
            0x3fd9c5c166d9fbcf,
        ),
        (
            0x0,
            7,
            [0x6a9216023fd7dc5d, 0x732e5af435f16013],
            0x3fe7006302b5d62a,
            0x3ff00ee073fdcc68,
        ),
        (
            0x1,
            0,
            [0xbfef8030ddc2d772, 0x5f552ce482f2aa47],
            0x3fdc0cd7f0f6bcf6,
            0x3ffafa7a4a8d69f6,
        ),
        (
            0x1,
            1,
            [0x5dc20aa7b2a27137, 0xbda5668a01d7049c],
            0x3fe056864ed57700,
            0x3ff741a9dd3cd972,
        ),
        (
            0x1,
            7,
            [0xb0e8ce0b13273a1c, 0xbfdac833746d26ca],
            0x3feb7bc6b347017e,
            0xbff4e998081ef72b,
        ),
        (
            0x2a,
            0,
            [0x989b3f130a063869, 0x290db4bf2570ded7],
            0x3fc54c85f31d00d8,
            0xbffaa0fdc48444a7,
        ),
        (
            0x2a,
            1,
            [0x57e1faba65107204, 0xf4abd143feb24055],
            0x3fdf2059ce304a40,
            0xbff7eea3bcac77e0,
        ),
        (
            0x2a,
            7,
            [0x9e453c9ec0d6f4df, 0x6db229ce449e6de0],
            0x3f9938c38b852a80,
            0xbfe4ddaab83d8772,
        ),
        (
            0xdeadbeef,
            0,
            [0x279a0eb29629b2f9, 0xef1ba5ffcee68f7c],
            0x3fcbd183fef819a8,
            0xbfb47ca1fd61805d,
        ),
        (
            0xdeadbeef,
            1,
            [0x5690e2d28573c6c5, 0x1607a92a19e9ba25],
            0x3fe04f69f99bf073,
            0xbfc5662071f61e48,
        ),
        (
            0xdeadbeef,
            7,
            [0x5e2ece46cb09ef69, 0xbbfc64eff7d8a842],
            0x3febf2f66f195b89,
            0x4006870baeee724e,
        ),
        (
            0xffffffffffffffff,
            0,
            [0xa577782bc52a9f5a, 0xb485244380e590be],
            0x3fd45da61761b3fc,
            0xbffe6f625d3f8e44,
        ),
        (
            0xffffffffffffffff,
            1,
            [0xa636eeb448342d16, 0x509353471568fcc9],
            0x3fe302cff1e2de71,
            0xbfe9bfb105002e10,
        ),
        (
            0xffffffffffffffff,
            7,
            [0x90e3c1ad0e52eed5, 0x58a71b01cee68562],
            0x3f83ffe2ebe02c00,
            0xbff25cfdcc16046a,
        ),
    ];

    #[test]
    fn resampling_streams_match_their_golden_draws() {
        for &(seed, stream, raw, unit, gauss) in &RESAMPLE {
            let mut s = Rng::seed_from_u64(mix_seed(seed, stream));
            let got = [s.next_u64(), s.next_u64()];
            assert_eq!(got, raw, "seed {seed:#x} stream {stream}");
            assert_eq!(
                s.next_f64().to_bits(),
                unit,
                "seed {seed:#x} stream {stream}"
            );
            assert_eq!(
                next_gaussian(&mut s).to_bits(),
                gauss,
                "seed {seed:#x} stream {stream}"
            );
        }
    }

    #[test]
    fn gaussian_draws_have_sane_moments() {
        let mut s = Rng::seed_from_u64(mix_seed(11, 0));
        let n = 4000;
        let draws: Vec<f64> = (0..n).map(|_| next_gaussian(&mut s)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn stability_is_deterministic() {
        let means = [40.0, 35.0, 15.0, 10.0];
        let stds = [5.0, 5.0, 5.0, 5.0];
        let a = rank_stability(&means, &stds, 3, 128, 9).unwrap();
        let b = rank_stability(&means, &stds, 3, 128, 9).unwrap();
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn zero_noise_is_perfectly_stable() {
        let means = [4.0, 3.0, 2.0, 1.0];
        let stds = [0.0; 4];
        assert_eq!(rank_stability(&means, &stds, 4, 32, 0).unwrap(), 1.0);
    }

    /// Regression: a negative std was silently accepted and fed into the
    /// resampler, where it sign-flips every perturbation — a nonsense
    /// posterior quietly producing a plausible-looking score. It must be
    /// a typed error.
    #[test]
    fn negative_std_is_a_typed_error() {
        assert_eq!(
            rank_stability(&[2.0, 1.0], &[0.5, -0.5], 2, 16, 0),
            Err(StatsError::InvalidParameter("stds must be nonnegative"))
        );
    }

    /// Degenerate inputs must short-circuit to *exactly* 1.0 — a single
    /// event cannot change order and all-zero stds cannot perturb —
    /// regardless of the draw count or seed.
    #[test]
    fn degenerate_inputs_are_exactly_stable() {
        for draws in [1, 7, 64] {
            for seed in [0, 9, u64::MAX] {
                assert_eq!(
                    rank_stability(&[3.5], &[100.0], 1, draws, seed).unwrap(),
                    1.0
                );
                assert_eq!(
                    rank_stability(&[5.0, 4.0, 3.0], &[0.0; 3], 2, draws, seed).unwrap(),
                    1.0
                );
            }
        }
    }

    #[test]
    fn ties_under_huge_noise_are_unstable() {
        let means = [10.0, 10.0, 10.0, 10.0];
        let stds = [50.0; 4];
        let s = rank_stability(&means, &stds, 3, 256, 3).unwrap();
        // 4 equally-likely candidates for 3 slots: ~1/24 of draws match.
        assert!(s < 0.25, "stability {s}");
    }

    #[test]
    fn stability_validates_inputs() {
        assert!(rank_stability(&[1.0], &[1.0, 2.0], 1, 8, 0).is_err());
        assert!(rank_stability(&[1.0], &[1.0], 1, 0, 0).is_err());
        assert!(rank_stability(&[f64::NAN], &[1.0], 1, 8, 0).is_err());
        assert_eq!(rank_stability(&[], &[], 3, 8, 0).unwrap(), 1.0);
        assert_eq!(rank_stability(&[1.0], &[1.0], 0, 8, 0).unwrap(), 1.0);
    }

    #[test]
    fn top_k_larger_than_input_is_clamped() {
        let s = rank_stability(&[9.0, 1.0], &[0.01, 0.01], 10, 16, 5).unwrap();
        assert_eq!(s, 1.0);
    }

    #[test]
    fn coverage_of_honest_gaussians_tracks_nominal() {
        // Truths drawn from the very posteriors we report: coverage must
        // sit near the nominal level.
        let mut stream = Rng::seed_from_u64(mix_seed(21, 0));
        let posteriors: Vec<Posterior> = (0..2000).map(|i| Posterior::new(i as f64, 4.0)).collect();
        let truths: Vec<f64> = posteriors
            .iter()
            .map(|p| p.mean + p.std() * next_gaussian(&mut stream))
            .collect();
        let c90 = empirical_coverage(&truths, &posteriors, 0.90).unwrap();
        assert!((c90 - 0.90).abs() < 0.03, "coverage {c90}");
    }

    #[test]
    fn coverage_validates_inputs() {
        let p = [Posterior::new(0.0, 1.0)];
        assert!(empirical_coverage(&[1.0, 2.0], &p, 0.9).is_err());
        assert!(empirical_coverage(&[], &[], 0.9).is_err());
    }
}
