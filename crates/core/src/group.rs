//! The grouping layer (paper §III-A).
//!
//! For each training group, pick a positive anchor `x⁺_i`, a distinct
//! positive `x⁺_j`, and `k` distinct negatives. The combinatorial space has
//! `O(|D⁺|² · |D⁻|^k)` groups, which is how a few hundred crowd-labeled
//! examples become an effectively unlimited stream of training instances.

use crate::error::RllError;
use crate::Result;
use rll_tensor::Rng64;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One training group: indices into the training set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// The anchor positive `x⁺_i`.
    pub anchor: usize,
    /// The paired positive `x⁺_j` the model must retrieve.
    pub positive: usize,
    /// The `k` negative examples.
    pub negatives: Vec<usize>,
}

impl Group {
    /// Total member count (`k + 2`).
    pub fn len(&self) -> usize {
        self.negatives.len() + 2
    }

    /// Groups always contain at least the anchor and the positive.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Members in embedding order: anchor, positive, then negatives.
    pub fn members(&self) -> Vec<usize> {
        let mut m = Vec::with_capacity(self.len());
        m.push(self.anchor);
        m.push(self.positive);
        m.extend_from_slice(&self.negatives);
        m
    }
}

/// How negatives are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Uniform over the negative set (the paper's scheme).
    Uniform,
    /// Extension (ablation): bias negative sampling toward *high-confidence*
    /// negatives, so probably-mislabeled examples appear in fewer groups.
    /// Weight for negative `m` is `confidence[m]^gamma`.
    ConfidenceBiased {
        /// Sharpness of the bias (0 = uniform).
        gamma: f64,
    },
}

/// Telemetry for one sampled batch (see [`GroupSampler::sample_batch_with_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Groups produced.
    pub groups: usize,
    /// Size of the positive candidate pool.
    pub positive_pool: usize,
    /// Size of the negative candidate pool.
    pub negative_pool: usize,
    /// Weighted-sampling rejections (candidate drawn but already in the
    /// group). Always 0 for [`SamplingStrategy::Uniform`].
    pub rejections: u64,
    /// Picks that abandoned weighted sampling for the uniform fallback
    /// because the remaining confidence mass was degenerate (all-zero
    /// weights, e.g. after `conf^gamma` underflow). Always 0 for
    /// [`SamplingStrategy::Uniform`].
    pub fallbacks: u64,
    /// Fraction of groups in the batch that duplicate an earlier group
    /// (same anchor, positive, and negative *set*).
    pub duplicate_rate: f64,
}

/// Generates training groups from crowd-inferred labels.
///
/// ```
/// use rll_core::{GroupSampler, SamplingStrategy};
/// use rll_tensor::Rng64;
///
/// let labels = vec![1u8, 1, 1, 0, 0, 0, 0];
/// let sampler = GroupSampler::new(&labels, 3, SamplingStrategy::Uniform, None)?;
/// let mut rng = Rng64::seed_from_u64(7);
/// let group = sampler.sample(&mut rng)?;
/// assert_eq!(group.len(), 5); // anchor + positive + 3 negatives
/// assert_ne!(group.anchor, group.positive);
/// # Ok::<(), rll_core::RllError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GroupSampler {
    positives: Vec<usize>,
    negatives: Vec<usize>,
    k: usize,
    strategy: SamplingStrategy,
    negative_weights: Vec<f64>,
}

impl GroupSampler {
    /// Builds a sampler over binary `labels` with `k` negatives per group.
    ///
    /// `confidences` (aligned with `labels`) are only consulted by
    /// [`SamplingStrategy::ConfidenceBiased`]; pass `None` for uniform.
    pub fn new(
        labels: &[u8],
        k: usize,
        strategy: SamplingStrategy,
        confidences: Option<&[f64]>,
    ) -> Result<Self> {
        if k == 0 {
            return Err(RllError::InvalidConfig {
                reason: "k must be at least 1".into(),
            });
        }
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for (i, &l) in labels.iter().enumerate() {
            match l {
                1 => positives.push(i),
                0 => negatives.push(i),
                other => {
                    return Err(RllError::InvalidConfig {
                        reason: format!("label {other} is not binary"),
                    })
                }
            }
        }
        if positives.len() < 2 {
            return Err(RllError::DegenerateData {
                reason: format!(
                    "grouping needs at least 2 positives, got {}",
                    positives.len()
                ),
            });
        }
        if negatives.len() < k {
            return Err(RllError::DegenerateData {
                reason: format!(
                    "grouping needs at least k={k} negatives, got {}",
                    negatives.len()
                ),
            });
        }
        let negative_weights = match strategy {
            SamplingStrategy::Uniform => vec![1.0; negatives.len()],
            SamplingStrategy::ConfidenceBiased { gamma } => {
                if gamma < 0.0 || !gamma.is_finite() {
                    return Err(RllError::InvalidConfig {
                        reason: format!("gamma must be non-negative and finite, got {gamma}"),
                    });
                }
                let conf = confidences.ok_or_else(|| RllError::InvalidConfig {
                    reason: "ConfidenceBiased sampling requires confidences".into(),
                })?;
                if conf.len() != labels.len() {
                    return Err(RllError::InvalidConfig {
                        reason: format!("{} confidences for {} labels", conf.len(), labels.len()),
                    });
                }
                negatives
                    .iter()
                    .map(|&i| conf[i].max(1e-6).powf(gamma))
                    .collect()
            }
        };
        Ok(GroupSampler {
            positives,
            negatives,
            k,
            strategy,
            negative_weights,
        })
    }

    /// Number of negatives per group.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The strategy in use.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    /// Size of the theoretical group space `|D⁺|·(|D⁺|-1)·C(|D⁻|, k)`
    /// (saturating; the point is that it dwarfs the raw label count).
    pub fn group_space_size(&self) -> u128 {
        let p = self.positives.len() as u128;
        let n = self.negatives.len() as u128;
        let mut combos: u128 = 1;
        for i in 0..self.k as u128 {
            combos = combos.saturating_mul(n.saturating_sub(i));
            combos /= i + 1;
        }
        p.saturating_mul(p - 1).saturating_mul(combos)
    }

    /// Samples one group.
    pub fn sample(&self, rng: &mut Rng64) -> Result<Group> {
        let mut rejections = 0;
        let mut fallbacks = 0;
        self.sample_counting(rng, &mut rejections, &mut fallbacks)
    }

    /// [`Self::sample`] that also accumulates weighted-sampling rejections
    /// into `rejections` and degenerate-mass uniform fallbacks into
    /// `fallbacks`.
    fn sample_counting(
        &self,
        rng: &mut Rng64,
        rejections: &mut u64,
        fallbacks: &mut u64,
    ) -> Result<Group> {
        let picks = rng.sample_indices(self.positives.len(), 2)?;
        let anchor = self.positives[picks[0]];
        let positive = self.positives[picks[1]];
        let negatives = match self.strategy {
            SamplingStrategy::Uniform => rng
                .sample_indices(self.negatives.len(), self.k)?
                .into_iter()
                .map(|i| self.negatives[i])
                .collect(),
            SamplingStrategy::ConfidenceBiased { .. } => {
                // Weighted sampling without replacement by rejection: draw
                // from the full categorical and retry on repeats. Conditioned
                // on landing outside the already-chosen set this is exactly
                // the renormalized distribution, so it matches zeroing-and-
                // renormalizing while exposing a real rejection count (how
                // contended the weight mass is). A zeroing fallback guards
                // against pathological weight concentration, and a bounded
                // attempt budget plus uniform fallback guards against
                // *degenerate* mass — e.g. every weight underflowing to 0.0
                // under `conf^gamma` — which previously surfaced as a hard
                // error mid-training.
                const MAX_DRAWS_PER_PICK: u32 = 128;
                let mut weights: Option<Vec<f64>> = None;
                let mut taken = vec![false; self.negatives.len()];
                let mut chosen = Vec::with_capacity(self.k);
                for _ in 0..self.k {
                    let mut picked = None;
                    let mut draws = 0u32;
                    while draws < MAX_DRAWS_PER_PICK {
                        draws += 1;
                        let w = weights.as_deref().unwrap_or(&self.negative_weights);
                        match rng.categorical(w) {
                            Ok(cand) if !taken[cand] => {
                                picked = Some(cand);
                                break;
                            }
                            Ok(_) => {
                                *rejections += 1;
                                // After many consecutive repeats the remaining
                                // mass is tiny; switch to explicit zeroing.
                                if (*rejections).is_multiple_of(64) && weights.is_none() {
                                    let mut w = self.negative_weights.clone();
                                    for (i, &t) in taken.iter().enumerate() {
                                        if t {
                                            w[i] = 0.0;
                                        }
                                    }
                                    weights = Some(w);
                                }
                            }
                            // Zero total mass: no categorical draw can ever
                            // succeed, so retrying is pointless.
                            Err(_) => break,
                        }
                    }
                    let idx = match picked {
                        Some(idx) => idx,
                        None => {
                            // Degenerate confidence mass: fall back to a
                            // uniform pick over the not-yet-taken negatives
                            // (never empty: the constructor guarantees
                            // `k <= negatives.len()`).
                            *fallbacks += 1;
                            let untaken: Vec<usize> = taken
                                .iter()
                                .enumerate()
                                .filter(|(_, &t)| !t)
                                .map(|(i, _)| i)
                                .collect();
                            untaken[rng.below(untaken.len())?]
                        }
                    };
                    taken[idx] = true;
                    if let Some(w) = &mut weights {
                        w[idx] = 0.0;
                    }
                    chosen.push(self.negatives[idx]);
                }
                chosen
            }
        };
        Ok(Group {
            anchor,
            positive,
            negatives,
        })
    }

    /// Samples a batch of groups.
    pub fn sample_batch(&self, count: usize, rng: &mut Rng64) -> Result<Vec<Group>> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Samples a batch and reports sampler telemetry: candidate-pool sizes,
    /// weighted-sampling rejections, and the duplicate-group rate (how often
    /// the batch revisits an identical group — a proxy for how exhausted the
    /// group space is at this dataset size).
    pub fn sample_batch_with_stats(
        &self,
        count: usize,
        rng: &mut Rng64,
    ) -> Result<(Vec<Group>, BatchStats)> {
        let mut rejections = 0;
        let mut fallbacks = 0;
        let mut groups = Vec::with_capacity(count);
        let mut seen: HashSet<(usize, usize, Vec<usize>)> = HashSet::with_capacity(count);
        let mut duplicates = 0usize;
        for _ in 0..count {
            let group = self.sample_counting(rng, &mut rejections, &mut fallbacks)?;
            let mut negs = group.negatives.clone();
            negs.sort_unstable();
            if !seen.insert((group.anchor, group.positive, negs)) {
                duplicates += 1;
            }
            groups.push(group);
        }
        let stats = BatchStats {
            groups: groups.len(),
            positive_pool: self.positives.len(),
            negative_pool: self.negatives.len(),
            rejections,
            fallbacks,
            duplicate_rate: if groups.is_empty() {
                0.0
            } else {
                duplicates as f64 / groups.len() as f64
            },
        };
        Ok((groups, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<u8> {
        // 5 positives (0-4), 5 negatives (5-9).
        let mut l = vec![1u8; 5];
        l.extend(vec![0u8; 5]);
        l
    }

    #[test]
    fn groups_are_well_formed() {
        let labels = labels();
        let sampler = GroupSampler::new(&labels, 3, SamplingStrategy::Uniform, None).unwrap();
        let mut rng = Rng64::seed_from_u64(1);
        for _ in 0..200 {
            let g = sampler.sample(&mut rng).unwrap();
            assert_ne!(g.anchor, g.positive);
            assert_eq!(labels[g.anchor], 1);
            assert_eq!(labels[g.positive], 1);
            assert_eq!(g.negatives.len(), 3);
            let mut negs = g.negatives.clone();
            negs.sort_unstable();
            negs.dedup();
            assert_eq!(negs.len(), 3, "negatives must be distinct");
            assert!(g.negatives.iter().all(|&n| labels[n] == 0));
            assert_eq!(g.len(), 5);
            assert_eq!(g.members()[0], g.anchor);
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(GroupSampler::new(&labels(), 0, SamplingStrategy::Uniform, None).is_err());
        assert!(GroupSampler::new(&[1, 1, 0], 2, SamplingStrategy::Uniform, None).is_err()); // k > negs
        assert!(GroupSampler::new(&[1, 0, 0, 0], 2, SamplingStrategy::Uniform, None).is_err()); // 1 pos
        assert!(GroupSampler::new(&[1, 1, 2, 0], 1, SamplingStrategy::Uniform, None).is_err());
        // bad label
    }

    #[test]
    fn confidence_biased_requires_confidences() {
        let labels = labels();
        assert!(GroupSampler::new(
            &labels,
            2,
            SamplingStrategy::ConfidenceBiased { gamma: 1.0 },
            None
        )
        .is_err());
        assert!(GroupSampler::new(
            &labels,
            2,
            SamplingStrategy::ConfidenceBiased { gamma: -1.0 },
            Some(&[1.0; 10])
        )
        .is_err());
        assert!(GroupSampler::new(
            &labels,
            2,
            SamplingStrategy::ConfidenceBiased { gamma: 1.0 },
            Some(&[1.0])
        )
        .is_err());
    }

    #[test]
    fn confidence_biased_prefers_confident_negatives() {
        let labels = labels();
        // Negative at index 5 has tiny confidence, index 9 has high.
        let mut conf = vec![1.0; 10];
        conf[5] = 0.01;
        conf[9] = 1.0;
        let sampler = GroupSampler::new(
            &labels,
            1,
            SamplingStrategy::ConfidenceBiased { gamma: 2.0 },
            Some(&conf),
        )
        .unwrap();
        let mut rng = Rng64::seed_from_u64(2);
        let mut count5 = 0;
        let mut count9 = 0;
        for _ in 0..2000 {
            let g = sampler.sample(&mut rng).unwrap();
            if g.negatives[0] == 5 {
                count5 += 1;
            }
            if g.negatives[0] == 9 {
                count9 += 1;
            }
        }
        assert!(count9 > count5 * 10, "9: {count9}, 5: {count5}");
    }

    #[test]
    fn degenerate_confidence_mass_falls_back_to_uniform() {
        // Regression: `conf.max(1e-6).powf(gamma)` underflows to exactly 0.0
        // for tiny confidences and a large gamma, so every negative weight is
        // zero and `categorical` can never succeed. This used to surface as
        // a hard error from `sample`; now it must fall back to uniform picks
        // and report the fallback in the batch stats.
        let labels = labels();
        let conf = vec![1e-9; 10];
        let sampler = GroupSampler::new(
            &labels,
            3,
            SamplingStrategy::ConfidenceBiased { gamma: 100.0 },
            Some(&conf),
        )
        .unwrap();
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..50 {
            let g = sampler.sample(&mut rng).unwrap();
            let mut negs = g.negatives.clone();
            negs.sort_unstable();
            negs.dedup();
            assert_eq!(negs.len(), 3, "negatives stay distinct under fallback");
            assert!(g.negatives.iter().all(|&n| labels[n] == 0));
        }
        let (groups, stats) = sampler.sample_batch_with_stats(20, &mut rng).unwrap();
        assert_eq!(groups.len(), 20);
        assert_eq!(
            stats.fallbacks, 60,
            "every pick of every group used the fallback"
        );
    }

    #[test]
    fn single_candidate_weight_mass_terminates() {
        // Regression: one dominant weight with all other mass at zero. The
        // first pick takes the dominant negative; subsequent picks can never
        // draw an untaken index (the zeroed-weights retry also has zero
        // total mass) — the old sampler errored out here. Now: bounded
        // attempts, then uniform fallback.
        let labels = labels();
        let mut conf = vec![1e-9; 10];
        conf[5] = 1.0; // sole surviving weight after gamma sharpening
        let sampler = GroupSampler::new(
            &labels,
            2,
            SamplingStrategy::ConfidenceBiased { gamma: 100.0 },
            Some(&conf),
        )
        .unwrap();
        let mut rng = Rng64::seed_from_u64(4);
        let mut rejections = 0;
        let mut fallbacks = 0;
        for _ in 0..20 {
            let g = sampler
                .sample_counting(&mut rng, &mut rejections, &mut fallbacks)
                .unwrap();
            assert!(
                g.negatives.contains(&5),
                "the dominant negative is always drawn first"
            );
            assert_eq!(g.negatives.len(), 2);
        }
        assert!(fallbacks >= 20, "second pick always needs the fallback");
        // Well-conditioned weights never fall back (stream compatibility).
        let healthy = GroupSampler::new(
            &labels,
            3,
            SamplingStrategy::ConfidenceBiased { gamma: 2.0 },
            Some(&[0.8; 10]),
        )
        .unwrap();
        let (_, stats) = healthy.sample_batch_with_stats(200, &mut rng).unwrap();
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn group_space_is_huge() {
        // The paper's point: 880 examples with ratio 1.8 → ~566 pos, 314 neg.
        let mut l = vec![1u8; 566];
        l.extend(vec![0u8; 314]);
        let sampler = GroupSampler::new(&l, 3, SamplingStrategy::Uniform, None).unwrap();
        let space = sampler.group_space_size();
        // |D+|^2 * C(|D-|, 3) ≈ 566*565 * 5.1e6 ≈ 1.6e12 ≫ 880.
        assert!(space > 1_000_000_000_000u128, "space {space}");
    }

    #[test]
    fn batch_and_determinism() {
        let labels = labels();
        let sampler = GroupSampler::new(&labels, 2, SamplingStrategy::Uniform, None).unwrap();
        let a = sampler
            .sample_batch(20, &mut Rng64::seed_from_u64(5))
            .unwrap();
        let b = sampler
            .sample_batch(20, &mut Rng64::seed_from_u64(5))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn batch_stats_uniform_has_no_rejections() {
        let labels = labels();
        let sampler = GroupSampler::new(&labels, 2, SamplingStrategy::Uniform, None).unwrap();
        let (groups, stats) = sampler
            .sample_batch_with_stats(50, &mut Rng64::seed_from_u64(11))
            .unwrap();
        assert_eq!(groups.len(), 50);
        assert_eq!(stats.groups, 50);
        assert_eq!(stats.positive_pool, 5);
        assert_eq!(stats.negative_pool, 5);
        assert_eq!(stats.rejections, 0);
        assert!((0.0..=1.0).contains(&stats.duplicate_rate));
    }

    #[test]
    fn batch_stats_detects_duplicates_in_tiny_space() {
        // 2 positives, 1 negative, k=1: only 2 distinct groups exist, so a
        // 50-group batch must be almost entirely duplicates.
        let sampler = GroupSampler::new(&[1, 1, 0], 1, SamplingStrategy::Uniform, None).unwrap();
        let (_, stats) = sampler
            .sample_batch_with_stats(50, &mut Rng64::seed_from_u64(12))
            .unwrap();
        assert!(
            stats.duplicate_rate >= 48.0 / 50.0,
            "{}",
            stats.duplicate_rate
        );
    }

    #[test]
    fn batch_stats_counts_confidence_biased_rejections() {
        let labels = labels();
        // One negative hoards nearly all the weight; with k=3 the second and
        // third draws keep landing on already-taken indices.
        let mut conf = vec![0.01; 10];
        conf[9] = 1.0;
        let sampler = GroupSampler::new(
            &labels,
            3,
            SamplingStrategy::ConfidenceBiased { gamma: 2.0 },
            Some(&conf),
        )
        .unwrap();
        let (groups, stats) = sampler
            .sample_batch_with_stats(100, &mut Rng64::seed_from_u64(13))
            .unwrap();
        assert_eq!(groups.len(), 100);
        assert!(stats.rejections > 0, "expected rejections, got 0");
        for g in &groups {
            let mut negs = g.negatives.clone();
            negs.sort_unstable();
            negs.dedup();
            assert_eq!(negs.len(), 3, "negatives must stay distinct");
        }
    }

    #[test]
    fn k_equals_negative_count_ok() {
        let labels = labels();
        let sampler = GroupSampler::new(&labels, 5, SamplingStrategy::Uniform, None).unwrap();
        let g = sampler.sample(&mut Rng64::seed_from_u64(6)).unwrap();
        let mut negs = g.negatives.clone();
        negs.sort_unstable();
        assert_eq!(negs, vec![5, 6, 7, 8, 9]);
    }
}
