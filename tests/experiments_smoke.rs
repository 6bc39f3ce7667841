//! Smoke tests for the experiment runners (quick scale, method subsets).

use rll::core::RllVariant;
use rll::eval::experiments::{table1, table2, table3, ExperimentScale};
use rll::eval::method::MethodSpec;
use rll::eval::Recorder;

#[test]
fn table1_subset_runs_and_renders() {
    let methods = [MethodSpec::SoftProb, MethodSpec::Rll(RllVariant::Bayesian)];
    let result = table1::run(
        ExperimentScale::Quick,
        5,
        Some(&methods),
        &Recorder::disabled(),
    )
    .unwrap();
    assert_eq!(result.oral.len(), 2);
    assert_eq!(result.class.len(), 2);
    let rendered = result.render();
    assert!(rendered.contains("RLL+Bayesian"));
    assert!(rendered.contains("oral-Acc"));
    // JSON-dumpable.
    let json = rll::eval::report::to_json(&result).unwrap();
    assert!(json.contains("accuracy"));
}

#[test]
fn table2_sweep_runs() {
    let result = table2::run(ExperimentScale::Quick, 6, &[2, 3], &Recorder::disabled()).unwrap();
    assert_eq!(result.ks, vec![2, 3]);
    assert!(result.oral.iter().all(|s| s.accuracy.mean > 0.4));
    assert!(result.render().contains("Table II"));
}

#[test]
fn table3_sweep_runs() {
    let result = table3::run(ExperimentScale::Quick, 7, &[1, 5], &Recorder::disabled()).unwrap();
    assert_eq!(result.ds, vec![1, 5]);
    assert!(result.render().contains("Table III"));
    // With 5x the votes, accuracy should not collapse relative to d=1.
    let d1 = result.oral[0].accuracy.mean;
    let d5 = result.oral[1].accuracy.mean;
    assert!(d5 > d1 - 0.15, "d=5 ({d5}) dropped far below d=1 ({d1})");
}
