//! Table I: the main comparison — 15 methods × {oral, class} × {accuracy, F1}.

use crate::experiments::ExperimentScale;
use crate::harness::{CrossValidator, MethodScore};
use crate::method::MethodSpec;
use crate::report::format_comparison_table;
use crate::Result;
use rll_data::presets;
use serde::{Deserialize, Serialize};

/// Result of a Table I run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Scores on the simulated `oral` dataset, in Table I row order.
    pub oral: Vec<MethodScore>,
    /// Scores on the simulated `class` dataset, same order.
    pub class: Vec<MethodScore>,
    /// Scale the run used.
    pub scale: ExperimentScale,
    /// Seed the run used.
    pub seed: u64,
}

impl Table1Result {
    /// Renders the paper-style text table.
    pub fn render(&self) -> String {
        format_comparison_table(
            "Table I: prediction results on the (simulated) oral and class datasets",
            &["oral", "class"],
            &[self.oral.clone(), self.class.clone()],
        )
    }

    /// The row with the highest mean accuracy on a dataset (`true` = oral).
    pub fn best_method(&self, oral: bool) -> &MethodScore {
        let scores = if oral { &self.oral } else { &self.class };
        scores
            .iter()
            .max_by(|a, b| a.accuracy.mean.total_cmp(&b.accuracy.mean))
            // lint: allow(no-panic-lib) — structural invariant: Table1Result is
            // only built by run(), which pushes one row per method spec.
            .expect("table has rows")
    }

    /// Mean accuracy of a group across both datasets — used to check the
    /// paper's group ordering claim (4 > 3 > 1/2 on average).
    pub fn group_mean_accuracy(&self, group: u8) -> f64 {
        let scores: Vec<f64> = self
            .oral
            .iter()
            .chain(&self.class)
            .filter(|s| s.group == group)
            .map(|s| s.accuracy.mean)
            .collect();
        scores.iter().sum::<f64>() / scores.len().max(1) as f64
    }
}

/// Runs the experiment. `methods` defaults to all 15 rows; pass a subset to
/// iterate faster. Per-fold, per-method, and (for RLL rows) per-epoch events
/// flow through `recorder`.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    methods: Option<&[MethodSpec]>,
    recorder: &rll_obs::Recorder,
) -> Result<Table1Result> {
    let all = MethodSpec::table1_rows();
    let methods = methods.unwrap_or(&all);
    let oral_ds = presets::oral_scaled(scale.oral_n(), seed)?;
    let class_ds = presets::class_scaled(scale.class_n(), seed + 1)?;
    let cv = CrossValidator {
        folds: scale.folds(),
        budget: scale.budget(),
        seed,
        parallel: true,
    };
    recorder.note(format!(
        "table1: {} methods on oral (n={}) and class (n={})",
        methods.len(),
        oral_ds.len(),
        class_ds.len()
    ));
    Ok(Table1Result {
        oral: cv.evaluate_all(methods, &oral_ds, recorder)?,
        class: cv.evaluate_all(methods, &class_ds, recorder)?,
        scale,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_core::RllVariant;

    #[test]
    fn quick_subset_run_produces_table() {
        // Three representative methods, one per interesting group.
        let methods = [
            MethodSpec::SoftProb,
            MethodSpec::Em,
            MethodSpec::Rll(RllVariant::Bayesian),
        ];
        let result = run(
            ExperimentScale::Quick,
            42,
            Some(&methods),
            &rll_obs::Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(result.oral.len(), 3);
        assert_eq!(result.class.len(), 3);
        let table = result.render();
        assert!(table.contains("SoftProb"));
        assert!(table.contains("RLL+Bayesian"));
        // Everything should beat coin flipping on the simulated data.
        for s in result.oral.iter().chain(&result.class) {
            assert!(
                s.accuracy.mean > 0.5,
                "{} acc {}",
                s.method,
                s.accuracy.mean
            );
        }
        let _ = result.best_method(true);
        let _ = result.group_mean_accuracy(1);
    }
}
