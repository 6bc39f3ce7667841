//! One runner per paper artifact. Each takes the [`rll_obs::Recorder`] it
//! reports to; pass [`rll_obs::Recorder::disabled()`] for a silent run.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`table1::run`] | Table I — prediction results, 15 methods × 2 datasets |
//! | [`table2::run`] | Table II — RLL-Bayesian vs. `k` (the paper sweeps `{2,3,4,5}`) |
//! | [`table3::run`] | Table III — RLL-Bayesian vs. `d` (the paper sweeps `{1,3,5}`) |
//! | [`ablations`] | DESIGN.md §7 — η sweep, confidence ablation, embedding-dim sweep, sampling-strategy ablation |
//! | [`learning_curve::run`] | extension — SoftProb vs. RLL-Bayesian as the label budget `n` shrinks |
//!
//! The `repro` binary (package `rll-bench`) runs each of them from the
//! command line. Figure 1 is the architecture diagram;
//! `examples/quickstart.rs` walks its stages executably.

pub mod ablations;
pub mod learning_curve;
pub mod paper;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::method::TrainBudget;
use serde::{Deserialize, Serialize};

/// How much compute an experiment run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Small datasets + short budgets: smoke tests and CI.
    Quick,
    /// Paper-size datasets (oral n=880, class n=472) + full budgets.
    Full,
}

impl ExperimentScale {
    /// Dataset size for the `oral` simulation.
    pub fn oral_n(&self) -> usize {
        match self {
            ExperimentScale::Quick => 160,
            ExperimentScale::Full => 880,
        }
    }

    /// Dataset size for the `class` simulation.
    pub fn class_n(&self) -> usize {
        match self {
            ExperimentScale::Quick => 120,
            ExperimentScale::Full => 472,
        }
    }

    /// The train budget this scale implies.
    pub fn budget(&self) -> TrainBudget {
        match self {
            ExperimentScale::Quick => TrainBudget::quick(),
            ExperimentScale::Full => TrainBudget::full(),
        }
    }

    /// Cross-validation folds.
    pub fn folds(&self) -> usize {
        match self {
            ExperimentScale::Quick => 3,
            ExperimentScale::Full => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(ExperimentScale::Full.oral_n() > ExperimentScale::Quick.oral_n());
        assert_eq!(ExperimentScale::Full.oral_n(), 880);
        assert_eq!(ExperimentScale::Full.class_n(), 472);
        assert_eq!(ExperimentScale::Full.folds(), 5);
        assert!(ExperimentScale::Quick.budget().epochs < ExperimentScale::Full.budget().epochs);
    }
}
