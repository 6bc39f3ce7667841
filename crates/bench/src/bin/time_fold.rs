//! Calibration utility: quick per-method timings (`--timings`) and a compact
//! Table-I-lite (representative methods only) at full dataset size. Used
//! while tuning the dataset simulators; not part of the documented
//! reproduction flow.

use std::time::Instant;

use rll_core::RllVariant;
use rll_eval::experiments::{table1, ExperimentScale};
use rll_eval::method::{EmbedKind, MethodSpec, TrainBudget, TwoStageAgg};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--timings") {
        timings();
        return;
    }
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let methods = [
        MethodSpec::SoftProb,
        MethodSpec::Em,
        MethodSpec::Glad,
        MethodSpec::Embed(EmbedKind::Triplet),
        MethodSpec::TwoStage(EmbedKind::Triplet, TwoStageAgg::Em),
        MethodSpec::Rll(RllVariant::Plain),
        MethodSpec::Rll(RllVariant::Mle),
        MethodSpec::Rll(RllVariant::Bayesian),
    ];
    let t = Instant::now();
    let result = table1::run(ExperimentScale::Full, seed, Some(&methods)).expect("table1 subset");
    println!("{}", result.render());
    println!("elapsed: {:?}", t.elapsed());
}

fn timings() {
    let ds = rll_data::presets::oral(42).unwrap();
    let folds = rll_data::StratifiedKFold::new(&ds.expert_labels, 5, 42).unwrap();
    let split = folds.split(0).unwrap();
    let train = ds.select(&split.train).unwrap();
    let test = ds.select(&split.test).unwrap();
    for (name, spec) in [
        ("rll", MethodSpec::Rll(RllVariant::Bayesian)),
        ("triplet", MethodSpec::Embed(EmbedKind::Triplet)),
        ("relation", MethodSpec::Embed(EmbedKind::Relation)),
        ("glad", MethodSpec::Glad),
    ] {
        let t = Instant::now();
        let _ = rll_eval::method::fit_predict(
            spec,
            TrainBudget::full(),
            &train.features,
            &train.annotations,
            &test.features,
            7,
        )
        .unwrap();
        println!("{name}: {:?}", t.elapsed());
    }
}
