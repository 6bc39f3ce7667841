//! Label-budget learning curve (extension).
//!
//! The paper's motivation is that crowdsourced labels are *limited* — 880 and
//! 472 examples — and that the grouping layer manufactures training signal
//! from that scarcity. This experiment makes the claim measurable: sweep the
//! number of labeled examples `n` and compare a raw-feature baseline
//! (SoftProb) against RLL-Bayesian. The gap should widen as labels get
//! scarcer, because `O(|D⁺|²·|D⁻|^k)` groups amplify small `n` far more than
//! it amplifies large `n`.

use crate::experiments::ExperimentScale;
use crate::harness::{CrossValidator, MethodScore};
use crate::method::MethodSpec;
use crate::Result;
use rll_core::RllVariant;
use rll_data::presets;
use serde::{Deserialize, Serialize};

/// One point of the learning curve, averaged over dataset seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Labeled-example budget.
    pub n: usize,
    /// Mean baseline (SoftProb) accuracy across dataset seeds.
    pub baseline_accuracy: f64,
    /// Mean RLL-Bayesian accuracy across dataset seeds.
    pub rll_accuracy: f64,
    /// Per-seed scores for both methods (aligned), for variance analysis.
    pub baseline_runs: Vec<MethodScore>,
    /// Per-seed RLL scores.
    pub rll_runs: Vec<MethodScore>,
}

/// Result of a learning-curve run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearningCurveResult {
    /// Points in ascending `n`.
    pub points: Vec<CurvePoint>,
    /// Seed the run used.
    pub seed: u64,
}

impl LearningCurveResult {
    /// Renders a text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Learning curve (oral simulation): SoftProb vs RLL-Bayesian"
        );
        let _ = writeln!(
            out,
            "{:<8}{:<14}{:<14}{:<10}",
            "n", "SoftProb-Acc", "RLL-Acc", "gap"
        );
        let _ = writeln!(out, "{}", "-".repeat(46));
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8}{:<14.3}{:<14.3}{:+.3}",
                p.n,
                p.baseline_accuracy,
                p.rll_accuracy,
                p.rll_accuracy - p.baseline_accuracy
            );
        }
        out
    }
}

/// Runs the sweep over label budgets on `oral`-flavoured simulations, with
/// telemetry through `recorder`.
///
/// Each budget point averages over `repeats` independently generated
/// datasets (seeds `seed`, `seed + 1000`, …) — a single simulation of a few
/// hundred examples is too noisy to read a trend from.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    ns: &[usize],
    repeats: usize,
    recorder: &rll_obs::Recorder,
) -> Result<LearningCurveResult> {
    if repeats == 0 {
        return Err(crate::EvalError::InvalidConfig {
            reason: "repeats must be positive".into(),
        });
    }
    let mut points = Vec::with_capacity(ns.len());
    for &n in ns {
        recorder.note(format!("learning curve: n={n} ({repeats} repeats)"));
        let mut baseline_runs = Vec::with_capacity(repeats);
        let mut rll_runs = Vec::with_capacity(repeats);
        for r in 0..repeats {
            let run_seed = seed + 1000 * r as u64;
            let cv = CrossValidator {
                folds: scale.folds(),
                budget: scale.budget(),
                seed: run_seed,
                parallel: true,
            };
            let ds = presets::oral_scaled(n, run_seed)?;
            baseline_runs.push(cv.evaluate(MethodSpec::SoftProb, &ds, recorder)?);
            rll_runs.push(cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &ds, recorder)?);
        }
        let mean = |runs: &[MethodScore]| {
            runs.iter().map(|s| s.accuracy.mean).sum::<f64>() / runs.len() as f64
        };
        points.push(CurvePoint {
            n,
            baseline_accuracy: mean(&baseline_runs),
            rll_accuracy: mean(&rll_runs),
            baseline_runs,
            rll_runs,
        });
    }
    Ok(LearningCurveResult { points, seed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_obs::Recorder;

    #[test]
    fn curve_runs_and_renders() {
        let result = run(
            ExperimentScale::Quick,
            9,
            &[60, 120],
            1,
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].n, 60);
        let table = result.render();
        assert!(table.contains("Learning curve"));
        assert!(table.contains("60"));
        for p in &result.points {
            assert!(p.baseline_accuracy > 0.4);
            assert!(p.rll_accuracy > 0.4);
            assert_eq!(p.baseline_runs.len(), 1);
        }
    }

    #[test]
    fn repeated_runs_average() {
        let result = run(ExperimentScale::Quick, 5, &[60], 2, &Recorder::disabled()).unwrap();
        let p = &result.points[0];
        assert_eq!(p.baseline_runs.len(), 2);
        let manual = (p.baseline_runs[0].accuracy.mean + p.baseline_runs[1].accuracy.mean) / 2.0;
        assert!((p.baseline_accuracy - manual).abs() < 1e-12);
        assert!(run(ExperimentScale::Quick, 5, &[60], 0, &Recorder::disabled()).is_err());
    }
}
