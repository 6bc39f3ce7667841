//! End-to-end checkpoint test: train a small pipeline, save → load, and
//! demand *bit-identical* embeddings from the reloaded model. Also pins the
//! typed-error contract for corrupted and truncated checkpoint files.

use rll_core::snapshot::SnapshotError;
use rll_core::{RllConfig, RllPipeline};
use rll_serve::{Checkpoint, ServeError, ServingModel};
use rll_tensor::Matrix;

fn trained_pipeline(seed: u64) -> (RllPipeline, Matrix) {
    let ds = rll_data::presets::oral_scaled(90, seed).expect("preset");
    let config = RllConfig {
        epochs: 8,
        groups_per_epoch: 64,
        ..RllConfig::default()
    };
    let mut pipeline = RllPipeline::new(config);
    pipeline
        .fit(&ds.features, &ds.annotations, seed)
        .expect("fit");
    (pipeline, ds.features)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rll_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

#[test]
fn save_load_round_trip_is_bit_identical() {
    let (pipeline, features) = trained_pipeline(13);
    let checkpoint = Checkpoint::from_pipeline(&pipeline, "e2e-run").expect("checkpoint");
    let path = temp_path("round_trip.rllckpt");
    checkpoint.save(&path).expect("save");

    let loaded = Checkpoint::load(&path).expect("load");
    assert_eq!(loaded.meta.train_run_id, "e2e-run");
    assert_eq!(loaded.meta.input_dim, features.cols());

    // Held-out queries the training never saw: a few raw feature rows plus
    // synthetic off-manifold points.
    let mut queries: Vec<Vec<f64>> = (0..5)
        .map(|i| features.row(i * 7).expect("row").to_vec())
        .collect();
    queries.push(vec![0.25; features.cols()]);
    queries.push(vec![-1.5; features.cols()]);
    let query = Matrix::from_rows(&queries).expect("matrix");

    let direct = pipeline.embed(&query).expect("direct embed");
    let served = ServingModel::from_checkpoint(loaded)
        .embed_matrix(&query)
        .expect("served embed");

    // Exact float equality, not approx: the JSON encoder round-trips f64
    // losslessly, so serving must reproduce training bit-for-bit.
    assert_eq!(direct.shape(), served.shape());
    assert_eq!(direct.as_slice(), served.as_slice());
}

#[test]
fn corrupted_payload_yields_checksum_mismatch() {
    let (pipeline, _) = trained_pipeline(14);
    let checkpoint = Checkpoint::from_pipeline(&pipeline, "e2e-corrupt").expect("checkpoint");
    let path = temp_path("corrupt.rllckpt");
    checkpoint.save(&path).expect("save");

    let mut bytes = std::fs::read(&path).expect("read");
    // Flip a byte deep inside the payload (past the header line).
    let target = bytes.len() - 40;
    bytes[target] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite");

    match Checkpoint::load(&path) {
        Err(ServeError::Snapshot(SnapshotError::Checksum { expected, actual })) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_file_yields_typed_error() {
    let (pipeline, _) = trained_pipeline(15);
    let checkpoint = Checkpoint::from_pipeline(&pipeline, "e2e-truncate").expect("checkpoint");
    let path = temp_path("truncated.rllckpt");
    checkpoint.save(&path).expect("save");

    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

    match Checkpoint::load(&path) {
        Err(ServeError::Snapshot(
            SnapshotError::Checksum { .. } | SnapshotError::Malformed { .. },
        )) => {}
        other => panic!("expected checksum/malformed error, got {other:?}"),
    }
}

#[test]
fn missing_file_yields_io_error_with_context() {
    match Checkpoint::load(temp_path("never_written.rllckpt")) {
        Err(ServeError::Io { context, .. }) => assert!(context.contains("never_written")),
        other => panic!("expected Io error, got {other:?}"),
    }
}
