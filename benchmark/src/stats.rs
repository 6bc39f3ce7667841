//! Order statistics with the benchmark's percentile rule.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p99 needs 1000 samples and a median 20. A refused
//! percentile is an error, never a silently noisier number.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile the sample is too small to support.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    pub q: f64,
    pub samples: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} refused: {} samples leave fewer than {MIN_TAIL} beyond it",
            self.q * 100.0,
            self.samples
        )
    }
}

/// Nearest-rank percentile `q` (in `[0, 1)`) of `values`, refused when fewer
/// than [`MIN_TAIL`] samples would lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, Refused> {
    let n = values.len();
    // Whole samples beyond the percentile; the epsilon keeps float error in
    // 1−q from flipping the rule at its boundary (1000·0.01 must be 10).
    let tail = (n as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if n == 0 || tail < MIN_TAIL {
        return Err(Refused { q, samples: n });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (set-up times, per-batch
/// timings, rounds). Not subject to the tail rule: it summarises repeats,
/// not a latency distribution. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&values, 0.99),
            Err(Refused {
                q: 0.99,
                samples: 999
            })
        );
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Ok(989.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&values, 0.5).is_err());
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
    }
}
