//! Annotation-budget planning: how many crowd workers per item do you need?
//!
//! The paper's Table III shows RLL-Bayesian improving monotonically with the
//! worker count `d`. This example reruns that sweep on a mid-size simulated
//! `oral` dataset under the paper's 5-fold protocol and frames it as a budget
//! decision: each extra worker costs one more full listen of every clip.
//!
//! ```text
//! cargo run --release --example worker_budget
//! ```

use rll::core::RllVariant;
use rll::data::presets;
use rll::eval::harness::CrossValidator;
use rll::eval::method::{MethodSpec, TrainBudget};
use rll::eval::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = presets::oral_scaled(440, 17)?;
    println!(
        "worker budget study on {} clips (each worker listens to every clip once);\n5-fold cross validation per budget\n",
        full.len()
    );
    println!(
        "{:<4}{:<22}{:<18}{:<8}",
        "d", "annotation cost", "accuracy", "F1"
    );
    println!("{}", "-".repeat(52));

    let cv = CrossValidator::paper_protocol(TrainBudget::full(), 42);
    let mut previous: Option<f64> = None;
    let mut monotone = true;
    for d in [1usize, 3, 5] {
        let ds = full.with_workers(d)?;
        let score = cv.evaluate(
            MethodSpec::Rll(RllVariant::Bayesian),
            &ds,
            &Recorder::disabled(),
        )?;
        println!(
            "{:<4}{:<22}{:.3} ± {:.3}     {:.3}",
            d,
            format!("{} listens", d * full.len()),
            score.accuracy.mean,
            score.accuracy.std,
            score.f1.mean
        );
        if let Some(prev) = previous {
            monotone &= score.accuracy.mean >= prev - 1e-9;
        }
        previous = Some(score.accuracy.mean);
    }

    println!(
        "\nPaper Table III shape: accuracy rises with d — more votes per item let\nthe Bayesian estimator pin down label confidence. Measured trend on this\nrun: {}. At n=440 one fold-std is ~0.03, so occasional inversions at small\nn are expected; the full-size run (`repro table3 --full`) is monotone.",
        if monotone { "monotone ✔" } else { "not monotone at this size/seed" }
    );
    Ok(())
}
