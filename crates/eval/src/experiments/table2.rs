//! Table II: RLL-Bayesian accuracy/F1 as the group's negative count `k`
//! sweeps over {2, 3, 4, 5}.

use crate::experiments::ExperimentScale;
use crate::harness::{CrossValidator, MethodScore};
use crate::method::{MethodSpec, TrainBudget};
use crate::report::format_sweep_table;
use crate::Result;
use rll_core::RllVariant;
use rll_data::presets;
use serde::{Deserialize, Serialize};

/// Result of a Table II run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// The swept `k` values.
    pub ks: Vec<usize>,
    /// Per-`k` scores on `oral` (aligned with `ks`).
    pub oral: Vec<MethodScore>,
    /// Per-`k` scores on `class`.
    pub class: Vec<MethodScore>,
    /// Scale and seed.
    pub scale: ExperimentScale,
    /// Seed the run used.
    pub seed: u64,
}

impl Table2Result {
    /// Renders the paper-style sweep table.
    pub fn render(&self) -> String {
        format_sweep_table(
            "Table II: RLL-Bayesian results with different k",
            "k",
            &self.ks.iter().map(usize::to_string).collect::<Vec<_>>(),
            &["oral", "class"],
            &[self.oral.clone(), self.class.clone()],
        )
    }

    /// The `k` with the highest mean accuracy on a dataset (`true` = oral).
    pub fn best_k(&self, oral: bool) -> usize {
        let scores = if oral { &self.oral } else { &self.class };
        let (i, _) = scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.accuracy.mean.total_cmp(&b.accuracy.mean))
            // lint: allow(no-panic-lib) — structural invariant: Table2Result is
            // only built by run(), which pushes one entry per k.
            .expect("sweep has entries");
        self.ks[i]
    }
}

/// Runs the sweep over `ks` (the paper's values are the first column of
/// [`paper::TABLE2`](crate::experiments::paper::TABLE2)), with telemetry
/// through `recorder`.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    ks: &[usize],
    recorder: &rll_obs::Recorder,
) -> Result<Table2Result> {
    let oral_ds = presets::oral_scaled(scale.oral_n(), seed)?;
    let class_ds = presets::class_scaled(scale.class_n(), seed + 1)?;
    let mut oral = Vec::with_capacity(ks.len());
    let mut class = Vec::with_capacity(ks.len());
    for &k in ks {
        recorder.note(format!("table2: sweeping k={k}"));
        let budget = TrainBudget {
            k,
            ..scale.budget()
        };
        let cv = CrossValidator {
            folds: scale.folds(),
            budget,
            seed,
            parallel: true,
        };
        oral.push(cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &oral_ds, recorder)?);
        class.push(cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &class_ds, recorder)?);
    }
    Ok(Table2Result {
        ks: ks.to_vec(),
        oral,
        class,
        scale,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs() {
        let result = run(
            ExperimentScale::Quick,
            7,
            &[2, 3],
            &rll_obs::Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(result.ks, vec![2, 3]);
        assert_eq!(result.oral.len(), 2);
        let table = result.render();
        assert!(table.contains("Table II"));
        let best = result.best_k(true);
        assert!(best == 2 || best == 3);
    }
}
