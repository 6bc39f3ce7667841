//! The incremental retrain → publish loop.
//!
//! A background thread watches the WAL high-water mark; once enough new
//! votes accumulate it folds them into the base dataset, retrains the
//! pipeline (checkpointing `.rllstate` snapshots on a cadence), evaluates
//! against expert labels when available, and hands the fitted pipeline to a
//! [`PublishSink`] — in the serving binary, that writes an atomic `.rllckpt`,
//! reads it back, and hot-swaps the engine's model in process.
//!
//! ## Crash contract
//!
//! Before training, the round writes a *manifest* (atomic) recording the
//! round number, the folded high-water sequence, and the round seed. On
//! restart an incomplete manifest is recovered: the WAL is re-read up to the
//! manifest's sequence (read-only — appends may already be flowing), the
//! fold is rebuilt deterministically, and training resumes from the latest
//! `.rllstate` via `resume_fit` (bitwise-identical to the uninterrupted
//! round) — or reruns from scratch with the manifest's seed when no usable
//! snapshot exists. Either way the published model is a pure function of
//! (base dataset, votes ≤ folded_seq, seed).
//!
//! ## Triggers and worker weighting
//!
//! Rounds fire on a [`RetrainTrigger`]: either the legacy fixed vote count,
//! or (the default in the serving binary) a **drift** trigger that watches
//! how far the live confidence field has moved since the last fold — total
//! absolute confidence drift, plus a disagreement score (how close voted
//! examples sit to δ = ½). Votes that merely re-confirm settled examples no
//! longer force a round; votes that flip or contest labels do.
//!
//! When [`RetrainConfig::weighting`] is on, each round first fits a
//! Dawid–Skene model over the live votes alone and derives per-worker
//! quality ([`rll_crowd::worker_qualities`]); live annotators with at least
//! 3 votes whose fitted confusion rows carry no signal (informativeness
//! below 0.2) are excluded from the fold. The exclusion list is pinned in
//! the round manifest so crash recovery rebuilds the exact same fold.
//!
//! ## Locks
//!
//! The retrainer owns one lock: `retrain` (rank **80**), guarding its
//! status. The loop never holds it across calls into the store (`votes`,
//! rank 70; `compact`, rank 90) or the training stack.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rll_core::{pipeline::score_predictions, CheckpointPolicy, RllConfig, RllPipeline, TrainState};
use rll_crowd::{AnnotationMatrix, ConfidenceEstimator};
use rll_obs::{EventKind, Recorder, RetrainRoundStats, Stopwatch};
use rll_par::OrderedMutex;
use rll_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::confidence::ConfidenceTracker;
use crate::error::{LabelError, Result};
use crate::store::LabelStore;

/// Schema tag of the round manifest file.
pub const MANIFEST_SCHEMA: &str = "retrain_manifest/v1";

/// Durable record of a retrain round, written (atomically) *before*
/// training starts and marked complete after publish.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainManifest {
    /// Always [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// 1-based round counter.
    pub round: u64,
    /// WAL high-water sequence folded into the round's dataset.
    pub folded_seq: u64,
    /// Seed the round trains with (derived deterministically from the base
    /// seed and round number).
    pub seed: u64,
    /// `false` from fold until successful publish.
    pub complete: bool,
    /// Live workers excluded from the fold by quality weighting, pinned
    /// here so crash recovery rebuilds the identical fold. `None` (absent)
    /// in manifests written before weighting existed.
    pub excluded_workers: Option<Vec<u32>>,
    /// What fired the round (`"votes"`, `"drift"`, `"disagreement"`).
    pub trigger: Option<String>,
}

impl RetrainManifest {
    /// The pinned exclusion list (empty for pre-weighting manifests).
    pub fn excluded(&self) -> &[u32] {
        self.excluded_workers.as_deref().unwrap_or(&[])
    }
}

/// When a retrain round fires.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainTrigger {
    /// Fixed sequence-distance trigger: fire once `min_new_votes` new votes
    /// accumulate, regardless of what they say.
    Votes {
        /// New votes (by sequence distance) required to trigger a round.
        min_new_votes: u64,
    },
    /// Confidence-drift trigger: fire only when the live confidence field
    /// moved or is contested, with `min_new_votes` as a floor so a single
    /// flip cannot thrash the trainer.
    Drift {
        /// Minimum new votes before the drift scores are even consulted.
        min_new_votes: u64,
        /// Fire when the summed |δ_now − δ_last_fold| across examples
        /// (unseen examples count from the estimator's prior mean) reaches
        /// this.
        drift_threshold: f64,
        /// Fire when the mean disagreement `2·min(δ, 1−δ)` over voted
        /// examples reaches this.
        disagreement_threshold: f64,
    },
}

impl RetrainTrigger {
    /// The vote floor common to both variants.
    pub fn min_new_votes(&self) -> u64 {
        match self {
            RetrainTrigger::Votes { min_new_votes }
            | RetrainTrigger::Drift { min_new_votes, .. } => *min_new_votes,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.min_new_votes() == 0 {
            return Err(LabelError::InvalidConfig {
                reason: "retrain min_new_votes must be >= 1".into(),
            });
        }
        if let RetrainTrigger::Drift {
            drift_threshold,
            disagreement_threshold,
            ..
        } = self
        {
            if !(drift_threshold.is_finite() && *drift_threshold > 0.0) {
                return Err(LabelError::InvalidConfig {
                    reason: format!(
                        "drift threshold must be finite and > 0, got {drift_threshold}"
                    ),
                });
            }
            if !(disagreement_threshold.is_finite() && *disagreement_threshold > 0.0) {
                return Err(LabelError::InvalidConfig {
                    reason: format!(
                        "disagreement threshold must be finite and > 0, got \
                         {disagreement_threshold}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Live workers with Dawid–Skene informativeness below this are excluded
/// from a weighted fold.
const SPAM_THRESHOLD: f64 = 0.2;
/// Workers with fewer live votes than this are never excluded — too little
/// evidence to call anyone a spammer.
const SPAM_MIN_VOTES: u64 = 3;
/// A round snapshots its `.rllstate` after every epoch, so a crash loses at
/// most one epoch of training.
const SNAPSHOT_EVERY_EPOCHS: usize = 1;

/// Static retrain policy.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Training hyperparameters for every round.
    pub train: RllConfig,
    /// Base seed; round `r` trains with a seed derived from `(base_seed, r)`.
    pub base_seed: u64,
    /// What fires a round.
    pub trigger: RetrainTrigger,
    /// Exclude live workers that look like spammers from the fold; `false`
    /// folds every vote.
    pub weighting: bool,
    /// Compact the WAL below the manifest's `folded_seq` after every
    /// completed round.
    pub auto_compact: bool,
    /// How often the loop re-checks the high-water mark.
    pub poll_interval: Duration,
    /// Where rounds checkpoint their `.rllstate` snapshots.
    pub state_path: PathBuf,
    /// Where the round manifest lives.
    pub manifest_path: PathBuf,
}

/// The frozen training substrate votes are folded into.
#[derive(Debug, Clone)]
pub struct RetrainBase {
    /// Raw (unnormalized) features, one row per example.
    pub features: Matrix,
    /// Offline crowd annotations; live votes append worker columns.
    pub annotations: AnnotationMatrix,
    /// Expert labels for the round eval metric, when available.
    pub expert_labels: Option<Vec<u8>>,
}

/// Where a round's fitted pipeline goes. The serving binary's sink writes an
/// atomic checkpoint and reloads the engine from it in process.
pub trait PublishSink: Send {
    /// Publishes one round's pipeline. An `Err` fails the round (the
    /// manifest stays incomplete, so restart retries it).
    fn publish(&mut self, pipeline: &RllPipeline, round: u64) -> std::result::Result<(), String>;
}

/// Observable state of the retrainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainStatus {
    /// Completed (published) rounds.
    pub rounds_completed: u64,
    /// High-water sequence of the last completed round.
    pub last_folded_seq: u64,
    /// Vote cells folded in the last completed round.
    pub votes_last_round: u64,
    /// Eval accuracy of the last completed round (`-1` before the first, or
    /// when no expert labels are configured).
    pub last_accuracy: f64,
    /// Whether a round is currently training.
    pub in_progress: bool,
    /// Last round failure, if any (cleared by the next success).
    pub last_error: Option<String>,
    /// What fired the last completed round.
    pub last_trigger: Option<String>,
    /// Workers the last completed round excluded by quality weighting.
    pub excluded_workers: Vec<u32>,
}

impl Default for RetrainStatus {
    fn default() -> Self {
        RetrainStatus {
            rounds_completed: 0,
            last_folded_seq: 0,
            votes_last_round: 0,
            last_accuracy: -1.0,
            in_progress: false,
            last_error: None,
            last_trigger: None,
            excluded_workers: Vec::new(),
        }
    }
}

/// Shared status handle, readable from the serving layer (`/metrics`, the
/// labels routes) while the loop trains.
#[derive(Debug)]
pub struct RetrainShared {
    retrain: OrderedMutex<RetrainStatus>,
}

impl RetrainShared {
    fn new() -> Self {
        RetrainShared {
            retrain: OrderedMutex::new("retrain", 80, RetrainStatus::default()),
        }
    }

    /// A copy of the current status.
    pub fn status(&self) -> RetrainStatus {
        self.retrain.lock().clone()
    }

    fn update(&self, f: impl FnOnce(&mut RetrainStatus)) {
        f(&mut self.retrain.lock());
    }
}

/// Handle to the background retrain loop; join with [`Retrainer::stop`].
pub struct Retrainer {
    shutdown: Arc<AtomicBool>,
    shared: Arc<RetrainShared>,
    handle: Option<JoinHandle<()>>,
}

impl Retrainer {
    /// Recovers any interrupted round, then starts the watch loop.
    pub fn start(
        store: Arc<LabelStore>,
        base: RetrainBase,
        config: RetrainConfig,
        recorder: Recorder,
        publish: Box<dyn PublishSink>,
    ) -> Result<Retrainer> {
        config.trigger.validate()?;
        if base.features.rows() != base.annotations.num_items() {
            return Err(LabelError::InvalidConfig {
                reason: format!(
                    "{} feature rows for {} annotated items",
                    base.features.rows(),
                    base.annotations.num_items()
                ),
            });
        }
        if let Some(expert) = &base.expert_labels {
            if expert.len() != base.features.rows() {
                return Err(LabelError::InvalidConfig {
                    reason: format!(
                        "{} expert labels for {} rows",
                        expert.len(),
                        base.features.rows()
                    ),
                });
            }
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(RetrainShared::new());
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("rll-retrain".into())
            .spawn(move || {
                run_loop(
                    store,
                    base,
                    config,
                    recorder,
                    publish,
                    loop_shared,
                    loop_shutdown,
                );
            })
            .map_err(|e| LabelError::Train {
                reason: format!("retrainer thread spawn failed: {e}"),
            })?;
        Ok(Retrainer {
            shutdown,
            shared,
            handle: Some(handle),
        })
    }

    /// The shareable status handle.
    pub fn shared(&self) -> Arc<RetrainShared> {
        Arc::clone(&self.shared)
    }

    /// Signals the loop and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Retrainer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deterministic per-round seed.
fn round_seed(base_seed: u64, round: u64) -> u64 {
    base_seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn run_loop(
    store: Arc<LabelStore>,
    base: RetrainBase,
    config: RetrainConfig,
    recorder: Recorder,
    mut publish: Box<dyn PublishSink>,
    shared: Arc<RetrainShared>,
    shutdown: Arc<AtomicBool>,
) {
    // Per-example confidence at the last completed fold — the drift
    // trigger's reference point. `None` until a round completes (or is
    // recovered); examples absent from the map count from the estimator's
    // prior mean.
    let mut baseline: Option<BTreeMap<u64, f64>> = None;
    if let Err(e) = recover(
        &store,
        &base,
        &config,
        &recorder,
        &mut publish,
        &shared,
        &mut baseline,
    ) {
        shared.update(|s| s.last_error = Some(e.to_string()));
        recorder.note(format!("retrain recovery failed: {e}"));
    }
    while !shutdown.load(Ordering::SeqCst) {
        match run_if_due(
            &store,
            &base,
            &config,
            &recorder,
            &mut publish,
            &shared,
            &mut baseline,
        ) {
            Ok(ran) => {
                if !ran {
                    sleep_interruptibly(&shutdown, config.poll_interval);
                }
            }
            Err(e) => {
                shared.update(|s| {
                    s.in_progress = false;
                    s.last_error = Some(e.to_string());
                });
                recorder.note(format!("retrain round failed: {e}"));
                sleep_interruptibly(&shutdown, config.poll_interval);
            }
        }
    }
}

fn sleep_interruptibly(shutdown: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut slept = Duration::ZERO;
    while slept < total && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(total - slept));
        slept += slice;
    }
}

/// The drift reference for examples never seen at the last fold: the
/// estimator's prior mean (what `positiveness` would return with no votes).
fn prior_mean(estimator: ConfidenceEstimator) -> f64 {
    match estimator {
        ConfidenceEstimator::Bayesian(prior) => prior.alpha / (prior.alpha + prior.beta),
        _ => 0.5,
    }
}

/// `example → δ` for every voted example.
fn confidence_map(tracker: &ConfidenceTracker) -> Result<BTreeMap<u64, f64>> {
    Ok(tracker
        .snapshot()?
        .examples
        .into_iter()
        .map(|e| (e.example, e.confidence))
        .collect())
}

/// Drift scores of the current confidence field against a baseline:
/// `(total |δ_now − δ_then|, mean disagreement 2·min(δ, 1−δ))`.
fn drift_scores(
    current: &BTreeMap<u64, f64>,
    baseline: Option<&BTreeMap<u64, f64>>,
    prior: f64,
) -> (f64, f64) {
    let mut drift = 0.0;
    let mut disagreement = 0.0;
    for (example, &now) in current {
        let then = baseline
            .and_then(|b| b.get(example).copied())
            .unwrap_or(prior);
        drift += (now - then).abs();
        disagreement += 2.0 * now.min(1.0 - now);
    }
    let mean_disagreement = if current.is_empty() {
        0.0
    } else {
        disagreement / current.len() as f64
    };
    (drift, mean_disagreement)
}

/// Live workers the fold should exclude under the weighting policy: fit
/// Dawid–Skene over the live votes alone, derive per-worker quality, and
/// drop annotators whose responses carry no signal. Degenerate live tables
/// (nothing to fit) fall back to an empty exclusion list — weighting never
/// fails a round.
fn excluded_workers(
    tracker: &ConfidenceTracker,
    num_examples: u64,
    max_workers: u32,
    recorder: &Recorder,
) -> Result<Vec<u32>> {
    let live = tracker.live_matrix(num_examples, max_workers)?;
    if live.total_annotations() == 0 {
        return Ok(Vec::new());
    }
    let qualities = match rll_crowd::live_worker_qualities(&live) {
        Ok(q) => q,
        Err(e) => {
            recorder.note(format!(
                "worker-quality fit failed ({e}); folding unweighted this round"
            ));
            return Ok(Vec::new());
        }
    };
    let mut excluded = Vec::new();
    for spammer in rll_crowd::detect_spammers(&qualities, SPAM_THRESHOLD) {
        let enough_votes = qualities
            .iter()
            .find(|q| q.worker == spammer)
            .is_some_and(|q| q.annotation_count as u64 >= SPAM_MIN_VOTES);
        if enough_votes {
            excluded.push(spammer as u32);
        }
    }
    Ok(excluded)
}

/// Finishes an interrupted round left behind by a crash, if any, and seeds
/// the drift baseline from the last fold.
#[allow(clippy::too_many_arguments)]
fn recover(
    store: &LabelStore,
    base: &RetrainBase,
    config: &RetrainConfig,
    recorder: &Recorder,
    publish: &mut Box<dyn PublishSink>,
    shared: &RetrainShared,
    baseline: &mut Option<BTreeMap<u64, f64>>,
) -> Result<()> {
    let Some(manifest) = read_manifest(&config.manifest_path)? else {
        return Ok(());
    };
    if manifest.complete {
        shared.update(|s| {
            s.rounds_completed = manifest.round;
            s.last_folded_seq = manifest.folded_seq;
            s.excluded_workers = manifest.excluded().to_vec();
            s.last_trigger = manifest.trigger.clone();
        });
        if matches!(config.trigger, RetrainTrigger::Drift { .. }) {
            let tracker = store.replay_up_to(manifest.folded_seq)?;
            *baseline = Some(confidence_map(&tracker)?);
        }
        return Ok(());
    }
    // Interrupted mid-round: rebuild the exact fold from the WAL (read-only,
    // filtered to the manifest's sequence, minus the manifest's pinned
    // exclusion list) and finish the round.
    let tracker = store.replay_up_to(manifest.folded_seq)?;
    let folded = tracker.fold_into_filtered(
        &base.annotations,
        store.config().max_workers,
        manifest.excluded(),
    )?;
    let votes = tracker.vote_cells();
    // A usable snapshot lets the round resume bitwise-identically; without
    // one the round reruns in full with the manifest's seed — same output
    // either way.
    let state = TrainState::load(&config.state_path).ok();
    shared.update(|s| {
        s.rounds_completed = manifest.round.saturating_sub(1);
        s.in_progress = true;
    });
    let outcome = run_round(base, config, recorder, publish, &manifest, folded, state);
    finish_round(config, recorder, shared, &manifest, votes, outcome)?;
    *baseline = Some(confidence_map(&tracker)?);
    compact_after_round(store, config, recorder);
    Ok(())
}

/// Runs one round if the trigger fires. Returns whether it ran.
#[allow(clippy::too_many_arguments)]
fn run_if_due(
    store: &LabelStore,
    base: &RetrainBase,
    config: &RetrainConfig,
    recorder: &Recorder,
    publish: &mut Box<dyn PublishSink>,
    shared: &RetrainShared,
    baseline: &mut Option<BTreeMap<u64, f64>>,
) -> Result<bool> {
    let status = shared.status();
    let high_water = store.high_water();
    if high_water.saturating_sub(status.last_folded_seq) < config.trigger.min_new_votes() {
        return Ok(false);
    }
    // One point-in-time tracker copy: trigger evaluation, worker-quality
    // fitting, the fold, and the recorded folded_seq all see the same state.
    let tracker = store.tracker_clone();
    let trigger_name = match &config.trigger {
        RetrainTrigger::Votes { .. } => "votes",
        RetrainTrigger::Drift {
            drift_threshold,
            disagreement_threshold,
            ..
        } => {
            let current = confidence_map(&tracker)?;
            let (drift, disagreement) = drift_scores(
                &current,
                baseline.as_ref(),
                prior_mean(store.config().estimator),
            );
            let metrics = recorder.metrics();
            metrics.gauge("label.retrain.drift").set(drift);
            metrics
                .gauge("label.retrain.disagreement")
                .set(disagreement);
            if drift >= *drift_threshold {
                "drift"
            } else if disagreement >= *disagreement_threshold {
                "disagreement"
            } else {
                return Ok(false);
            }
        }
    };
    let excluded = if config.weighting {
        excluded_workers(
            &tracker,
            store.config().num_examples,
            store.config().max_workers,
            recorder,
        )?
    } else {
        Vec::new()
    };
    let folded =
        tracker.fold_into_filtered(&base.annotations, store.config().max_workers, &excluded)?;
    let folded_seq = tracker.applied_seq();
    let votes = tracker.vote_cells();
    let manifest = RetrainManifest {
        schema: MANIFEST_SCHEMA.to_string(),
        round: status.rounds_completed + 1,
        folded_seq,
        seed: round_seed(config.base_seed, status.rounds_completed + 1),
        complete: false,
        excluded_workers: Some(excluded),
        trigger: Some(trigger_name.to_string()),
    };
    write_manifest(&config.manifest_path, &manifest)?;
    shared.update(|s| s.in_progress = true);
    let outcome = run_round(base, config, recorder, publish, &manifest, folded, None);
    finish_round(config, recorder, shared, &manifest, votes, outcome)?;
    *baseline = Some(confidence_map(&tracker)?);
    compact_after_round(store, config, recorder);
    store.publish_gauges()?;
    Ok(true)
}

/// Post-round WAL compaction (when enabled). Fail-soft: the round already
/// published, so a compaction error is reported but does not fail the loop.
fn compact_after_round(store: &LabelStore, config: &RetrainConfig, recorder: &Recorder) {
    if !config.auto_compact {
        return;
    }
    if let Err(e) = store.compact_below_manifest() {
        recorder.metrics().counter("label.compact.failures").inc();
        recorder.note(format!("post-round compaction failed: {e}"));
    }
}

/// Trains, evaluates, and publishes one round. Returns
/// `(accuracy, resumed, wall_secs)`.
#[allow(clippy::too_many_arguments)]
fn run_round(
    base: &RetrainBase,
    config: &RetrainConfig,
    recorder: &Recorder,
    publish: &mut Box<dyn PublishSink>,
    manifest: &RetrainManifest,
    folded: AnnotationMatrix,
    state: Option<TrainState>,
) -> Result<(f64, bool, f64)> {
    let clock = Stopwatch::start();
    let policy =
        CheckpointPolicy::every(&config.state_path, SNAPSHOT_EVERY_EPOCHS).map_err(|e| {
            LabelError::Train {
                reason: e.to_string(),
            }
        })?;
    let mut pipeline = RllPipeline::new(config.train.clone())
        .with_recorder(recorder.clone())
        .with_checkpoint_policy(policy);
    let resumed = state.is_some();
    let fit_result = match state {
        Some(state) => pipeline.resume_fit(&base.features, &folded, state),
        None => pipeline.fit(&base.features, &folded, manifest.seed),
    };
    fit_result.map_err(|e| LabelError::Train {
        reason: format!("round {}: {e}", manifest.round),
    })?;

    let accuracy = match &base.expert_labels {
        Some(expert) => {
            let predictions = pipeline
                .predict(&base.features)
                .map_err(|e| LabelError::Train {
                    reason: format!("round {} eval: {e}", manifest.round),
                })?;
            score_predictions(&predictions, expert)
                .map_err(|e| LabelError::Train {
                    reason: format!("round {} eval: {e}", manifest.round),
                })?
                .accuracy
        }
        None => -1.0,
    };

    publish
        .publish(&pipeline, manifest.round)
        .map_err(|reason| LabelError::Publish { reason })?;
    Ok((accuracy, resumed, clock.elapsed_secs()))
}

/// Marks the manifest complete, updates status, emits the round event.
fn finish_round(
    config: &RetrainConfig,
    recorder: &Recorder,
    shared: &RetrainShared,
    manifest: &RetrainManifest,
    votes: u64,
    outcome: Result<(f64, bool, f64)>,
) -> Result<()> {
    let (accuracy, resumed, wall_secs) = match outcome {
        Ok(v) => v,
        Err(e) => {
            shared.update(|s| s.in_progress = false);
            return Err(e);
        }
    };
    let completed = RetrainManifest {
        complete: true,
        ..manifest.clone()
    };
    write_manifest(&config.manifest_path, &completed)?;
    shared.update(|s| {
        s.rounds_completed = manifest.round;
        s.last_folded_seq = manifest.folded_seq;
        s.votes_last_round = votes;
        s.last_accuracy = accuracy;
        s.in_progress = false;
        s.last_error = None;
        s.last_trigger = manifest.trigger.clone();
        s.excluded_workers = manifest.excluded().to_vec();
    });
    recorder.emit(EventKind::RetrainRound(RetrainRoundStats {
        round: manifest.round,
        folded_seq: manifest.folded_seq,
        votes_folded: votes,
        resumed,
        epochs: config.train.epochs,
        accuracy,
        wall_secs,
    }));
    let metrics = recorder.metrics();
    metrics.counter("label.retrain.rounds").inc();
    metrics
        .gauge("label.retrain.folded_seq")
        .set(manifest.folded_seq as f64);
    metrics
        .gauge("label.retrain.excluded_workers")
        .set(manifest.excluded().len() as f64);
    if accuracy.is_finite() && accuracy >= 0.0 {
        metrics.gauge("label.retrain.accuracy").set(accuracy);
    }
    Ok(())
}

/// Reads the manifest, or `None` when it does not exist yet.
pub fn read_manifest(path: &std::path::Path) -> Result<Option<RetrainManifest>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(LabelError::io(path, "read", e)),
    };
    let manifest: RetrainManifest =
        serde_json::from_str(&text).map_err(|e| LabelError::Corrupt {
            reason: format!("unparseable retrain manifest {}: {e}", path.display()),
        })?;
    if manifest.schema != MANIFEST_SCHEMA {
        return Err(LabelError::Corrupt {
            reason: format!(
                "retrain manifest {} has schema {:?}, expected {MANIFEST_SCHEMA:?}",
                path.display(),
                manifest.schema
            ),
        });
    }
    Ok(Some(manifest))
}

/// Atomically writes the manifest.
pub fn write_manifest(path: &std::path::Path, manifest: &RetrainManifest) -> Result<()> {
    let json = serde_json::to_string(manifest).map_err(|e| LabelError::Corrupt {
        reason: format!("manifest serialization failed: {e}"),
    })?;
    rll_core::snapshot::atomic_write(path, json.as_bytes())
        .map_err(|e| LabelError::io(path, "write", e))
}
