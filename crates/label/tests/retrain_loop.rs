//! End-to-end tests of the incremental retrain loop: vote-triggered rounds,
//! manifest lifecycle, and crash recovery of an interrupted round.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rll_core::{RllConfig, RllPipeline, RllVariant};
use rll_crowd::{AnnotationMatrix, ConfidenceEstimator};
use rll_label::{
    read_manifest, write_manifest, LabelStore, LabelStoreConfig, PublishSink, RetrainBase,
    RetrainConfig, RetrainManifest, RetrainStatus, RetrainTrigger, Retrainer, Vote,
    DEFAULT_DEDUP_CAPACITY, MANIFEST_SCHEMA,
};
use rll_obs::Recorder;
use rll_tensor::{Matrix, Rng64};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rll_retrain_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny separable dataset: 40 examples, 2 features, 3 offline workers.
fn tiny_base(seed: u64) -> (RetrainBase, Vec<u8>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut truth = Vec::new();
    for _ in 0..40 {
        let l = u8::from(rng.bernoulli(0.5));
        let c = if l == 1 { 1.0 } else { -1.0 };
        rows.push(vec![
            rng.normal(c, 0.4).unwrap(),
            rng.normal(-c, 0.4).unwrap(),
        ]);
        truth.push(l);
    }
    let features = Matrix::from_rows(&rows).unwrap();
    let mut annotations = AnnotationMatrix::new(40, 3, 2).unwrap();
    for (i, &t) in truth.iter().enumerate() {
        for w in 0..3 {
            // Mostly honest offline votes with a deterministic error sprinkle.
            let label = if (i + w) % 7 == 0 { 1 - t } else { t };
            annotations.set(i, w, label).unwrap();
        }
    }
    (
        RetrainBase {
            features,
            annotations,
            expert_labels: Some(truth.clone()),
        },
        truth,
    )
}

fn tiny_train_config() -> RllConfig {
    RllConfig {
        variant: RllVariant::Bayesian,
        epochs: 4,
        groups_per_epoch: 16,
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllConfig::default()
    }
}

fn store_config(dir: &Path) -> LabelStoreConfig {
    LabelStoreConfig {
        dir: dir.join("wal"),
        shards: 2,
        segment_records: 16,
        estimator: ConfidenceEstimator::Mle,
        num_examples: 40,
        max_workers: 4,
        dedup_capacity: DEFAULT_DEDUP_CAPACITY,
        manifest_path: Some(dir.join("retrain.manifest.json")),
    }
}

fn retrain_config(dir: &Path, min_new_votes: u64) -> RetrainConfig {
    RetrainConfig {
        train: tiny_train_config(),
        base_seed: 11,
        trigger: RetrainTrigger::Votes { min_new_votes },
        weighting: false,
        auto_compact: false,
        poll_interval: Duration::from_millis(20),
        state_path: dir.join("retrain.rllstate"),
        manifest_path: dir.join("retrain.manifest.json"),
    }
}

/// Publish sink that counts rounds and remembers the last one.
struct CountingSink {
    rounds: Arc<AtomicU64>,
}

impl PublishSink for CountingSink {
    fn publish(&mut self, pipeline: &RllPipeline, round: u64) -> Result<(), String> {
        // The pipeline must be fitted — prove it by asking for the model.
        if pipeline.model().is_none() {
            return Err("unfitted pipeline published".to_string());
        }
        self.rounds.store(round, Ordering::SeqCst);
        Ok(())
    }
}

fn wait_for_rounds(retrainer: &Retrainer, want: u64, timeout: Duration) -> bool {
    let shared = retrainer.shared();
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if shared.status().rounds_completed >= want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn votes_trigger_a_round_and_complete_the_manifest() {
    let dir = fresh_dir("trigger");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (base, truth) = tiny_base(3);
    // 10 live votes from one honest live annotator.
    for i in 0..10u64 {
        store.ingest(Vote::new(i, 0, truth[i as usize])).unwrap();
    }
    let config = retrain_config(&dir, 10);
    let mut retrainer = Retrainer::start(
        Arc::clone(&store),
        base,
        config.clone(),
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::new(AtomicU64::new(0)),
        }),
    )
    .unwrap();
    assert!(
        wait_for_rounds(&retrainer, 1, Duration::from_secs(60)),
        "retrain round never completed"
    );
    let status = retrainer.shared().status();
    assert_eq!(status.rounds_completed, 1);
    assert_eq!(status.last_folded_seq, 10);
    assert_eq!(status.votes_last_round, 10);
    assert!(status.last_accuracy >= 0.0 && status.last_accuracy <= 1.0);
    assert!(status.last_error.is_none());
    let manifest = read_manifest(&config.manifest_path).unwrap().unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.round, 1);
    assert_eq!(manifest.folded_seq, 10);
    // The checkpoint cadence left a resumable state file behind.
    assert!(config.state_path.exists());
    retrainer.stop();
    // No second round without new votes.
    assert_eq!(retrainer.shared().status().rounds_completed, 1);
}

#[test]
fn interrupted_round_is_recovered_on_start() {
    let dir = fresh_dir("recover");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (base, truth) = tiny_base(5);
    for i in 0..12u64 {
        store
            .ingest(Vote::new(i, (i % 2) as u32, truth[i as usize]))
            .unwrap();
    }
    // Simulate a crash mid-round: the manifest was written (incomplete) but
    // the process died before training finished. min_new_votes is set higher
    // than the backlog so only the recovery path can produce a round.
    let config = retrain_config(&dir, 1000);
    write_manifest(
        &config.manifest_path,
        &RetrainManifest {
            schema: MANIFEST_SCHEMA.to_string(),
            round: 1,
            folded_seq: 12,
            seed: 99,
            complete: false,
            excluded_workers: None,
            trigger: None,
        },
    )
    .unwrap();

    let rounds = Arc::new(AtomicU64::new(0));
    let mut retrainer = Retrainer::start(
        Arc::clone(&store),
        base,
        config.clone(),
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::clone(&rounds),
        }),
    )
    .unwrap();
    assert!(
        wait_for_rounds(&retrainer, 1, Duration::from_secs(60)),
        "recovery round never completed"
    );
    retrainer.stop();
    let status = retrainer.shared().status();
    assert_eq!(status.rounds_completed, 1);
    assert_eq!(status.last_folded_seq, 12);
    assert_eq!(rounds.load(Ordering::SeqCst), 1, "publish ran exactly once");
    let manifest = read_manifest(&config.manifest_path).unwrap().unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.seed, 99, "recovery keeps the manifest's seed");
}

#[test]
fn completed_manifest_is_not_rerun() {
    let dir = fresh_dir("norerun");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (base, _) = tiny_base(7);
    let config = retrain_config(&dir, 1000);
    write_manifest(
        &config.manifest_path,
        &RetrainManifest {
            schema: MANIFEST_SCHEMA.to_string(),
            round: 3,
            folded_seq: 44,
            seed: 5,
            complete: true,
            excluded_workers: None,
            trigger: None,
        },
    )
    .unwrap();
    let rounds = Arc::new(AtomicU64::new(0));
    let mut retrainer = Retrainer::start(
        store,
        base,
        config,
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::clone(&rounds),
        }),
    )
    .unwrap();
    // Give the loop a few polls to (wrongly) start something.
    std::thread::sleep(Duration::from_millis(200));
    retrainer.stop();
    let status = retrainer.shared().status();
    assert_eq!(
        status.rounds_completed, 3,
        "status seeded from the manifest"
    );
    assert_eq!(status.last_folded_seq, 44);
    assert_eq!(
        rounds.load(Ordering::SeqCst),
        0,
        "no publish without new votes"
    );
}

/// A deliberately weak base: the same separable features as [`tiny_base`]
/// but only ONE offline annotator, so the live annotators dominate the fold
/// and spam actually moves the trained model.
fn weak_base(seed: u64) -> (RetrainBase, Vec<u8>) {
    let (base, truth) = tiny_base(seed);
    let mut annotations = AnnotationMatrix::new(40, 1, 2).unwrap();
    for (i, &t) in truth.iter().enumerate() {
        let label = if i % 7 == 0 { 1 - t } else { t };
        annotations.set(i, 0, label).unwrap();
    }
    (
        RetrainBase {
            features: base.features,
            annotations,
            expert_labels: base.expert_labels,
        },
        truth,
    )
}

/// Ingests the spammer-heavy live stream: worker 0 votes the truth on every
/// example, workers 1–3 are constant-1 spammers (informativeness exactly 0:
/// their fitted confusion rows are identical no matter what truth the
/// Dawid–Skene fit anchors on, so collusion cannot make them look useful).
/// The last five truth-0 examples are left unspammed so the unweighted fold
/// keeps enough negatives for the grouping stage — it must produce a *bad*
/// model, not a failed round.
fn ingest_spammy_stream(store: &LabelStore, truth: &[u8]) -> u64 {
    let spared: Vec<usize> = truth
        .iter()
        .enumerate()
        .filter(|(_, &t)| t == 0)
        .map(|(i, _)| i)
        .rev()
        .take(5)
        .collect();
    let mut ingested = 0;
    for (i, &t) in truth.iter().enumerate() {
        store.ingest(Vote::new(i as u64, 0, t)).unwrap();
        ingested += 1;
        if spared.contains(&i) {
            continue;
        }
        for spammer in 1..4u32 {
            store.ingest(Vote::new(i as u64, spammer, 1)).unwrap();
            ingested += 1;
        }
    }
    ingested
}

fn run_one_round(dir: &Path, weighting: bool, truth: &[u8]) -> RetrainStatus {
    let store = Arc::new(LabelStore::open(store_config(dir), Recorder::disabled()).unwrap());
    let votes = ingest_spammy_stream(&store, truth);
    let (base, _) = weak_base(3);
    let mut config = retrain_config(dir, votes);
    config.weighting = weighting;
    let mut retrainer = Retrainer::start(
        Arc::clone(&store),
        base,
        config,
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::new(AtomicU64::new(0)),
        }),
    )
    .unwrap();
    assert!(
        wait_for_rounds(&retrainer, 1, Duration::from_secs(60)),
        "round never completed: {:?}",
        retrainer.shared().status()
    );
    retrainer.stop();
    retrainer.shared().status()
}

/// Acceptance: on a spammer-heavy stream, quality weighting strictly
/// improves post-retrain eval accuracy over the unweighted fold.
#[test]
fn weighting_beats_unweighted_fold_on_spammy_stream() {
    let (_, truth) = weak_base(3);
    let weighted = run_one_round(&fresh_dir("weight_on"), true, &truth);
    let unweighted = run_one_round(&fresh_dir("weight_off"), false, &truth);
    // The constant-1 spammers are always excluded; the honest live worker
    // may or may not survive the fit (a spam-majority consensus can drown
    // it), but the spam never reaches the fold.
    for spammer in [1u32, 2, 3] {
        assert!(
            weighted.excluded_workers.contains(&spammer),
            "spammer {spammer} not excluded: {:?}",
            weighted.excluded_workers
        );
    }
    assert!(unweighted.excluded_workers.is_empty());
    assert!(
        weighted.last_accuracy > unweighted.last_accuracy,
        "weighted {} !> unweighted {}",
        weighted.last_accuracy,
        unweighted.last_accuracy
    );
}

/// The excluded workers are pinned in the manifest so a crash-recovered
/// round reproduces the same fold.
#[test]
fn weighting_pins_exclusions_in_manifest() {
    let dir = fresh_dir("weight_manifest");
    let (_, truth) = weak_base(3);
    let status = run_one_round(&dir, true, &truth);
    let manifest = read_manifest(&dir.join("retrain.manifest.json"))
        .unwrap()
        .unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.excluded(), &status.excluded_workers[..]);
    assert_eq!(manifest.trigger.as_deref(), Some("votes"));
}

/// Drift trigger: the vote floor alone must NOT fire a round when the
/// confidence field is stable and uncontested under huge thresholds.
#[test]
fn drift_trigger_holds_fire_below_thresholds() {
    let dir = fresh_dir("drift_quiet");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (base, truth) = tiny_base(3);
    // Unanimous single votes: every voted example sits at δ∈{0,1}, so
    // disagreement is exactly 0 and only the (huge) drift bar remains.
    for i in 0..10u64 {
        store.ingest(Vote::new(i, 0, truth[i as usize])).unwrap();
    }
    let mut config = retrain_config(&dir, 5);
    config.trigger = RetrainTrigger::Drift {
        min_new_votes: 5,
        drift_threshold: 1e6,
        disagreement_threshold: 0.99,
    };
    let mut retrainer = Retrainer::start(
        Arc::clone(&store),
        base,
        config,
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::new(AtomicU64::new(0)),
        }),
    )
    .unwrap();
    // Well past the vote floor and many poll intervals: still no round.
    std::thread::sleep(Duration::from_millis(300));
    retrainer.stop();
    let status = retrainer.shared().status();
    assert_eq!(
        status.rounds_completed, 0,
        "vote floor alone fired a drift-triggered round"
    );
}

/// …and the same backlog DOES fire once the drift bar is reachable, stamping
/// the manifest with the trigger that released it.
#[test]
fn drift_trigger_fires_past_threshold() {
    let dir = fresh_dir("drift_fire");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (base, truth) = tiny_base(3);
    for i in 0..10u64 {
        store.ingest(Vote::new(i, 0, truth[i as usize])).unwrap();
    }
    let mut config = retrain_config(&dir, 5);
    config.trigger = RetrainTrigger::Drift {
        min_new_votes: 5,
        drift_threshold: 0.01,
        disagreement_threshold: 0.99,
    };
    let manifest_path = config.manifest_path.clone();
    let mut retrainer = Retrainer::start(
        Arc::clone(&store),
        base,
        config,
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::new(AtomicU64::new(0)),
        }),
    )
    .unwrap();
    assert!(
        wait_for_rounds(&retrainer, 1, Duration::from_secs(60)),
        "drift round never fired"
    );
    retrainer.stop();
    let status = retrainer.shared().status();
    assert_eq!(status.rounds_completed, 1);
    assert_eq!(status.last_trigger.as_deref(), Some("drift"));
    let manifest = read_manifest(&manifest_path).unwrap().unwrap();
    assert_eq!(manifest.trigger.as_deref(), Some("drift"));
}

#[test]
fn start_rejects_mismatched_base() {
    let dir = fresh_dir("badbase");
    let store = Arc::new(LabelStore::open(store_config(&dir), Recorder::disabled()).unwrap());
    let (mut base, _) = tiny_base(9);
    base.expert_labels = Some(vec![0; 7]);
    let err = Retrainer::start(
        store,
        base,
        retrain_config(&dir, 10),
        Recorder::disabled(),
        Box::new(CountingSink {
            rounds: Arc::new(AtomicU64::new(0)),
        }),
    );
    assert!(err.is_err());
}
