//! Table III: RLL-Bayesian accuracy/F1 as the number of crowd workers per
//! item `d` sweeps over {1, 3, 5}.
//!
//! The full 5-worker annotation tables are generated once; each sweep point
//! restricts every item to its first `d` workers, mirroring "hire fewer
//! annotators" without resampling the underlying items.

use crate::experiments::ExperimentScale;
use crate::harness::{CrossValidator, MethodScore};
use crate::method::MethodSpec;
use crate::report::format_sweep_table;
use crate::Result;
use rll_core::RllVariant;
use rll_data::presets;
use serde::{Deserialize, Serialize};

/// Result of a Table III run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// The swept worker counts.
    pub ds: Vec<usize>,
    /// Per-`d` scores on `oral` (aligned with `ds`).
    pub oral: Vec<MethodScore>,
    /// Per-`d` scores on `class`.
    pub class: Vec<MethodScore>,
    /// Scale and seed.
    pub scale: ExperimentScale,
    /// Seed the run used.
    pub seed: u64,
}

impl Table3Result {
    /// Renders the paper-style sweep table.
    pub fn render(&self) -> String {
        format_sweep_table(
            "Table III: RLL-Bayesian results with different d",
            "d",
            &self.ds.iter().map(usize::to_string).collect::<Vec<_>>(),
            &["oral", "class"],
            &[self.oral.clone(), self.class.clone()],
        )
    }

    /// Whether accuracy is non-decreasing in `d` on a dataset, the paper's
    /// headline observation for this table.
    pub fn monotone_accuracy(&self, oral: bool) -> bool {
        let scores = if oral { &self.oral } else { &self.class };
        scores
            .windows(2)
            .all(|w| w[1].accuracy.mean >= w[0].accuracy.mean - 1e-9)
    }
}

/// Runs the sweep over worker counts `ds` (each must be ≤ 5, the pool size
/// of the presets; the paper's values are the first column of
/// [`paper::TABLE3`](crate::experiments::paper::TABLE3)), with telemetry
/// through `recorder`.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    ds: &[usize],
    recorder: &rll_obs::Recorder,
) -> Result<Table3Result> {
    let oral_full = presets::oral_scaled(scale.oral_n(), seed)?;
    let class_full = presets::class_scaled(scale.class_n(), seed + 1)?;
    let cv = CrossValidator {
        folds: scale.folds(),
        budget: scale.budget(),
        seed,
        parallel: true,
    };
    let mut oral = Vec::with_capacity(ds.len());
    let mut class = Vec::with_capacity(ds.len());
    for &d in ds {
        recorder.note(format!("table3: restricting to d={d} workers"));
        let oral_d = oral_full.with_workers(d)?;
        let class_d = class_full.with_workers(d)?;
        oral.push(cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &oral_d, recorder)?);
        class.push(cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &class_d, recorder)?);
    }
    Ok(Table3Result {
        ds: ds.to_vec(),
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
            9,
            &[1, 5],
            &rll_obs::Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(result.ds, vec![1, 5]);
        let table = result.render();
        assert!(table.contains("Table III"));
        // monotone_accuracy computes without panicking on two points.
        let _ = result.monotone_accuracy(true);
    }
}
