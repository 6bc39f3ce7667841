//! Seeded random sampling.
//!
//! [`Rng64`] wraps a seeded [`rand::rngs::StdRng`] and layers on the
//! distributions the simulators and initializers need. Normal, gamma, and
//! beta sampling are implemented here (Box–Muller and Marsaglia–Tsang) so the
//! workspace does not pull in `rand_distr`.
//!
//! Every experiment in the reproduction threads an explicit `u64` seed down to
//! an `Rng64`, which makes all reported numbers replayable.

use crate::error::TensorError;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An exact stream position of an [`Rng64`], captured by [`Rng64::state`] and
/// restored by [`Rng64::from_state`].
///
/// The snapshot covers everything the generator's future output depends on:
/// the four xoshiro256++ state words *and* the cached second Box–Muller
/// output (a resume that dropped the spare would shift every subsequent
/// normal draw by one). Serializable so training checkpoints can persist the
/// sampler's stream position and continue it bit-exactly after a crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rng64State {
    /// The xoshiro256++ state words (always exactly 4 entries; a `Vec` keeps
    /// the serialized form independent of fixed-size-array serde support).
    pub words: Vec<u64>,
    /// Cached second output of the Box–Muller transform, if one is pending.
    pub gauss_spare: Option<f64>,
}

/// A seeded random-number source with simulator-grade distributions.
#[derive(Debug, Clone)]
pub struct Rng64 {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 {
            inner: StdRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Snapshots the exact stream position; see [`Rng64State`].
    pub fn state(&self) -> Rng64State {
        Rng64State {
            words: self.inner.state().to_vec(),
            gauss_spare: self.gauss_spare,
        }
    }

    /// Rebuilds a generator at a snapshotted stream position. The restored
    /// generator produces exactly the outputs the original would have.
    ///
    /// Returns [`TensorError::InvalidParameter`] when the snapshot does not
    /// hold exactly 4 state words (e.g. a corrupted or hand-edited snapshot).
    pub fn from_state(state: &Rng64State) -> Result<Self> {
        let words: [u64; 4] =
            state
                .words
                .as_slice()
                .try_into()
                .map_err(|_| TensorError::InvalidParameter {
                    name: "state",
                    reason: format!("expected 4 state words, got {}", state.words.len()),
                })?;
        Ok(Rng64 {
            inner: StdRng::from_state(words),
            gauss_spare: state.gauss_spare,
        })
    }

    /// Uniform sample from `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample from `[lo, hi)`.
    ///
    /// Returns [`TensorError::InvalidParameter`] when `lo >= hi` or either
    /// bound is non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> Result<f64> {
        if lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "uniform_range",
                reason: format!("requires finite lo < hi, got [{lo}, {hi})"),
            });
        }
        Ok(lo + (hi - lo) * self.uniform())
    }

    /// Uniform integer from `[0, n)`.
    ///
    /// Returns [`TensorError::InvalidParameter`] when `n == 0`.
    pub fn below(&mut self, n: usize) -> Result<usize> {
        if n == 0 {
            return Err(TensorError::InvalidParameter {
                name: "below",
                reason: "n must be positive".into(),
            });
        }
        Ok(self.inner.gen_range(0..n))
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample via the Box–Muller transform (polar form).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// Returns [`TensorError::InvalidParameter`] for a negative `std_dev`.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> Result<f64> {
        if std_dev < 0.0 {
            return Err(TensorError::InvalidParameter {
                name: "std_dev",
                reason: format!("must be non-negative, got {std_dev}"),
            });
        }
        Ok(mean + std_dev * self.standard_normal())
    }

    /// Gamma sample with shape `k > 0` and scale `theta > 0`
    /// (Marsaglia–Tsang squeeze method; shape < 1 handled by boosting).
    pub fn gamma(&mut self, shape: f64, scale: f64) -> Result<f64> {
        if shape <= 0.0 || !shape.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "shape",
                reason: format!("must be positive and finite, got {shape}"),
            });
        }
        if scale <= 0.0 || !scale.is_finite() {
            return Err(TensorError::InvalidParameter {
                name: "scale",
                reason: format!("must be positive and finite, got {scale}"),
            });
        }
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k + 1) * U^{1/k}.
            let boost = self.gamma(shape + 1.0, 1.0)?;
            let u: f64 = self.uniform().max(f64::MIN_POSITIVE);
            return Ok(scale * boost * u.powf(1.0 / shape));
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return Ok(scale * d * v);
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return Ok(scale * d * v);
            }
        }
    }

    /// Beta sample with parameters `alpha > 0`, `beta > 0`, via two gammas.
    pub fn beta(&mut self, alpha: f64, beta: f64) -> Result<f64> {
        let x = self.gamma(alpha, 1.0)?;
        let y = self.gamma(beta, 1.0)?;
        let s = x + y;
        if s <= 0.0 {
            // Both gammas underflowed to zero; fall back to the mean.
            return Ok(alpha / (alpha + beta));
        }
        Ok(x / s)
    }

    /// Categorical sample: returns an index with probability proportional to
    /// `weights[i]`.
    ///
    /// Returns [`TensorError::InvalidParameter`] for empty weights, negative
    /// weights, or an all-zero weight vector.
    pub fn categorical(&mut self, weights: &[f64]) -> Result<usize> {
        if weights.is_empty() {
            return Err(TensorError::Empty { op: "categorical" });
        }
        let mut total = 0.0;
        for &w in weights {
            if w < 0.0 || !w.is_finite() {
                return Err(TensorError::InvalidParameter {
                    name: "weights",
                    reason: format!("weights must be finite and non-negative, got {w}"),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(TensorError::InvalidParameter {
                name: "weights",
                reason: "at least one weight must be positive".into(),
            });
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return Ok(i);
            }
        }
        // Floating-point slack: return the last positively-weighted index.
        // `total > 0` (checked above) implies one exists, but surface a typed
        // error rather than panicking if that invariant ever breaks.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .ok_or(TensorError::InvalidParameter {
                name: "weights",
                reason: "at least one weight must be positive".into(),
            })
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        xs.shuffle(&mut self.inner);
    }

    /// Samples `count` distinct indices from `[0, n)` (a random subset, order
    /// randomized).
    ///
    /// Returns [`TensorError::InvalidParameter`] when `count > n`.
    pub fn sample_indices(&mut self, n: usize, count: usize) -> Result<Vec<usize>> {
        if count > n {
            return Err(TensorError::InvalidParameter {
                name: "count",
                reason: format!("cannot draw {count} distinct indices from {n}"),
            });
        }
        // Partial Fisher–Yates over an index array: O(n) setup, exact.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + self.inner.gen_range(0..(n - i));
            idx.swap(i, j);
        }
        idx.truncate(count);
        Ok(idx)
    }

    /// Draws one element uniformly from a slice.
    ///
    /// Returns [`TensorError::Empty`] for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Result<&'a T> {
        if xs.is_empty() {
            return Err(TensorError::Empty { op: "choose" });
        }
        let i = self.inner.gen_range(0..xs.len());
        Ok(&xs[i])
    }

    /// Fills a buffer with standard normal samples.
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        for x in out.iter_mut() {
            *x = self.standard_normal();
        }
    }

    /// Fills a buffer with uniform samples from `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f64], lo: f64, hi: f64) -> Result<()> {
        if lo >= hi {
            return Err(TensorError::InvalidParameter {
                name: "fill_uniform",
                reason: format!("requires lo < hi, got [{lo}, {hi})"),
            });
        }
        for x in out.iter_mut() {
            *x = lo + (hi - lo) * self.uniform();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn state_round_trip_continues_every_distribution() {
        let mut rng = Rng64::seed_from_u64(97);
        // Burn a mixed prefix so the snapshot sits mid-stream.
        for _ in 0..10 {
            rng.uniform();
            rng.standard_normal();
        }
        let snapshot = rng.state();
        let mut resumed = Rng64::from_state(&snapshot).unwrap();
        for _ in 0..50 {
            assert_eq!(rng.uniform(), resumed.uniform());
            assert_eq!(rng.standard_normal(), resumed.standard_normal());
            assert_eq!(rng.below(17).unwrap(), resumed.below(17).unwrap());
        }
    }

    #[test]
    fn state_preserves_pending_box_muller_spare() {
        let mut rng = Rng64::seed_from_u64(101);
        // One draw leaves the Box–Muller spare cached.
        rng.standard_normal();
        let snapshot = rng.state();
        assert!(snapshot.gauss_spare.is_some());
        let mut resumed = Rng64::from_state(&snapshot).unwrap();
        // The very next normal must be the cached spare, not a fresh pair.
        assert_eq!(rng.standard_normal(), resumed.standard_normal());
        assert_eq!(rng.uniform(), resumed.uniform());
    }

    #[test]
    fn state_rejects_wrong_word_count() {
        let bad = Rng64State {
            words: vec![1, 2, 3],
            gauss_spare: None,
        };
        assert!(Rng64::from_state(&bad).is_err());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_range_bounds_and_validation() {
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 5.0).unwrap();
            assert!((-2.0..5.0).contains(&x));
        }
        assert!(rng.uniform_range(1.0, 1.0).is_err());
        assert!(rng.uniform_range(2.0, 1.0).is_err());
        assert!(rng.uniform_range(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn below_validates() {
        let mut rng = Rng64::seed_from_u64(3);
        assert!(rng.below(0).is_err());
        for _ in 0..100 {
            assert!(rng.below(4).unwrap() < 4);
        }
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut rng = Rng64::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng64::seed_from_u64(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn normal_validates_std() {
        let mut rng = Rng64::seed_from_u64(13);
        assert!(rng.normal(0.0, -1.0).is_err());
        assert_eq!(rng.normal(5.0, 0.0).unwrap(), 5.0);
    }

    #[test]
    fn gamma_moments() {
        let mut rng = Rng64::seed_from_u64(17);
        let (shape, scale) = (3.0, 2.0);
        let n = 30_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gamma(shape, scale).unwrap()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - shape * scale).abs() < 0.15, "mean = {mean}");
        assert!((var - shape * scale * scale).abs() < 0.6, "var = {var}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gamma_small_shape_positive() {
        let mut rng = Rng64::seed_from_u64(19);
        for _ in 0..2000 {
            let x = rng.gamma(0.3, 1.0).unwrap();
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn gamma_validates_parameters() {
        let mut rng = Rng64::seed_from_u64(19);
        assert!(rng.gamma(0.0, 1.0).is_err());
        assert!(rng.gamma(1.0, 0.0).is_err());
        assert!(rng.gamma(-1.0, 1.0).is_err());
        assert!(rng.gamma(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn beta_mean_and_support() {
        let mut rng = Rng64::seed_from_u64(23);
        let (a, b) = (2.0, 5.0);
        let n = 30_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.beta(a, b).unwrap()).collect();
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - a / (a + b)).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Rng64::seed_from_u64(29);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.categorical(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio = {ratio}");
    }

    #[test]
    fn categorical_validates() {
        let mut rng = Rng64::seed_from_u64(29);
        assert!(rng.categorical(&[]).is_err());
        assert!(rng.categorical(&[0.0, 0.0]).is_err());
        assert!(rng.categorical(&[-1.0, 2.0]).is_err());
        assert!(rng.categorical(&[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng64::seed_from_u64(31);
        let idx = rng.sample_indices(10, 6).unwrap();
        assert_eq!(idx.len(), 6);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(idx.iter().all(|&i| i < 10));
        assert!(rng.sample_indices(3, 4).is_err());
        assert!(rng.sample_indices(0, 0).unwrap().is_empty());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::seed_from_u64(37);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_from_slice() {
        let mut rng = Rng64::seed_from_u64(41);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(rng.choose(&empty).is_err());
    }

    #[test]
    fn fill_helpers() {
        let mut rng = Rng64::seed_from_u64(43);
        let mut buf = vec![0.0; 64];
        rng.fill_standard_normal(&mut buf);
        assert!(buf.iter().any(|&x| x != 0.0));
        rng.fill_uniform(&mut buf, 2.0, 3.0).unwrap();
        assert!(buf.iter().all(|&x| (2.0..3.0).contains(&x)));
        assert!(rng.fill_uniform(&mut buf, 3.0, 2.0).is_err());
    }
}
