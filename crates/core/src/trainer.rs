//! The RLL training loop.

use crate::error::RllError;
use crate::group::{Group, GroupSampler, SamplingStrategy};
use crate::loss::group_softmax_loss;
use crate::model::{RllModel, RllModelConfig};
use crate::state::{config_hash, CheckpointPolicy, FaultPlan, TrainState};
use crate::Result;
use rll_crowd::aggregate::{Aggregator, MajorityVote};
use rll_crowd::{AnnotationMatrix, BetaPrior, ConfidenceEstimator};
use rll_nn::{Adam, GradClip, Optimizer};
use rll_obs::{
    CheckpointStats, EpochProfileStats, EpochStats, EventKind, ProfileNode, Recorder, ResumeStats,
    SamplerStats, Stopwatch,
};
use rll_tensor::{debug_assert_finite, Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Which of the paper's RLL variants to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RllVariant {
    /// `RLL`: no confidence weighting (every `δ = 1`).
    Plain,
    /// `RLL+MLE`: confidence from the vote fraction (eq. 1).
    Mle,
    /// `RLL+Bayesian`: confidence from the Beta-posterior mean (eq. 2), with
    /// the prior set from the label class prior as the paper prescribes.
    Bayesian,
    /// `RLL+Worker`: this reproduction's implementation of the paper's stated
    /// future work — confidence from a Dawid–Skene fit, so each worker's vote
    /// is weighted by that worker's estimated confusion matrix.
    WorkerAware,
}

impl RllVariant {
    /// Method name as it appears in Table I (`RLL+Worker` is this
    /// reproduction's extension and does not appear in the paper).
    pub fn name(&self) -> &'static str {
        match self {
            RllVariant::Plain => "RLL",
            RllVariant::Mle => "RLL+MLE",
            RllVariant::Bayesian => "RLL+Bayesian",
            RllVariant::WorkerAware => "RLL+Worker",
        }
    }
}

/// Hyperparameters for RLL training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RllConfig {
    /// Which confidence estimator to use.
    pub variant: RllVariant,
    /// Softmax smoothing `η` (set empirically on held-out data in the paper).
    pub eta: f64,
    /// Negatives per group (the paper's best value is 3; Table II sweeps it).
    pub k: usize,
    /// Encoder hidden layers.
    pub hidden_dims: Vec<usize>,
    /// Embedding dimension.
    pub embedding_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Groups sampled per epoch.
    pub groups_per_epoch: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Total pseudo-count `α + β` of the Bayesian prior.
    pub prior_strength: f64,
    /// Negative sampling strategy (the paper's scheme is uniform; the biased
    /// variant is this reproduction's ablation extension).
    pub sampling: SamplingStrategy,
    /// Optional global-norm gradient clipping.
    pub grad_clip: Option<f64>,
    /// Optional learning-rate schedule; `None` keeps `learning_rate` fixed.
    /// When set, the schedule's rate at each epoch overrides `learning_rate`.
    pub lr_schedule: Option<rll_nn::LrSchedule>,
}

impl Default for RllConfig {
    fn default() -> Self {
        RllConfig {
            variant: RllVariant::Bayesian,
            eta: 10.0,
            k: 3,
            hidden_dims: vec![64, 32],
            embedding_dim: 16,
            epochs: 30,
            groups_per_epoch: 256,
            learning_rate: 1e-3,
            prior_strength: 2.0,
            sampling: SamplingStrategy::Uniform,
            grad_clip: Some(5.0),
            lr_schedule: None,
        }
    }
}

impl RllConfig {
    /// Validates all parameters.
    pub fn validate(&self) -> Result<()> {
        if self.eta <= 0.0 || !self.eta.is_finite() {
            return Err(RllError::InvalidConfig {
                reason: format!("eta must be positive, got {}", self.eta),
            });
        }
        if self.k == 0 {
            return Err(RllError::InvalidConfig {
                reason: "k must be at least 1".into(),
            });
        }
        if self.embedding_dim == 0 || self.epochs == 0 || self.groups_per_epoch == 0 {
            return Err(RllError::InvalidConfig {
                reason: "embedding_dim, epochs, and groups_per_epoch must be positive".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(RllError::InvalidConfig {
                reason: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        if self.prior_strength <= 0.0 || !self.prior_strength.is_finite() {
            return Err(RllError::InvalidConfig {
                reason: format!(
                    "prior_strength must be positive, got {}",
                    self.prior_strength
                ),
            });
        }
        if let Some(c) = self.grad_clip {
            if c <= 0.0 || !c.is_finite() {
                return Err(RllError::InvalidConfig {
                    reason: format!("grad_clip must be positive, got {c}"),
                });
            }
        }
        if let Some(schedule) = &self.lr_schedule {
            schedule.validate()?;
        }
        Ok(())
    }
}

/// Per-epoch diagnostics from a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingTrace {
    /// Mean group loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Labels inferred from the crowd (majority vote) that training used.
    pub inferred_labels: Vec<u8>,
    /// Per-item label confidences `δ` that eq. (3) used.
    pub confidences: Vec<f64>,
    /// Global gradient norm per epoch, before clipping.
    pub grad_norms_pre_clip: Vec<f64>,
    /// Global gradient norm per epoch, after clipping (equal to the pre-clip
    /// norm when clipping is off or the threshold was not hit).
    pub grad_norms_post_clip: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_wall_secs: Vec<f64>,
    /// Per-epoch profiler frame trees ([`RllTrainer::with_profiling`]);
    /// empty when profiling is off. Timings are observability data only —
    /// they never influence the math, so a profiled run's model is bitwise
    /// identical to an unprofiled one's.
    pub epoch_profiles: Vec<EpochProfileStats>,
}

/// Groups per gradient shard. Shard boundaries are a pure function of the
/// batch size — **never** of the thread count — so the shard-order gradient
/// reduction in [`RllTrainer::fit`] produces bitwise-identical weights at
/// any `RLL_THREADS` setting.
const SHARD_GROUPS: usize = 16;

/// Trains [`RllModel`]s from features + crowd annotations.
#[derive(Debug, Clone)]
pub struct RllTrainer {
    config: RllConfig,
    recorder: Recorder,
    threads: usize,
    checkpoint: Option<CheckpointPolicy>,
    fault: Option<FaultPlan>,
    profile: bool,
}

impl RllTrainer {
    /// Creates a trainer after validating the config. Telemetry is disabled
    /// until a recorder is attached with [`Self::with_recorder`]; the
    /// worker-thread count defaults to [`rll_par::configured_threads`]
    /// (the `RLL_THREADS` knob).
    pub fn new(config: RllConfig) -> Result<Self> {
        config.validate()?;
        Ok(RllTrainer {
            config,
            recorder: Recorder::disabled(),
            threads: rll_par::configured_threads(),
            checkpoint: None,
            fault: None,
            profile: false,
        })
    }

    /// Enables the per-epoch phase profiler: every epoch [`Self::fit`] emits
    /// an `EpochProfile` event (sample / shard fan-out {forward, backward} /
    /// shard-reduce / adam step / snapshot write) and appends the frame tree
    /// to [`TrainingTrace::epoch_profiles`]. Profiling only reads clocks —
    /// the trained model is bitwise identical with it on or off (gated in
    /// `scripts/check.sh`).
    pub fn with_profiling(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Enables crash-safe checkpointing: [`Self::fit`] atomically writes a
    /// [`TrainState`] snapshot to the policy's path after every
    /// `every_epochs` completed epochs. A later [`Self::resume`] from that
    /// snapshot finishes the run with bitwise-identical results.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Injects a crash for the fault-injection harness: [`Self::fit`]
    /// returns [`RllError::Interrupted`] right after the plan's epoch
    /// completes (and after any due checkpoint write). Test-only plumbing —
    /// production runs never set this.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches a telemetry recorder; [`Self::fit`] will emit per-epoch
    /// `EpochEnd`, `SamplerBatch`, and `ConfidenceSummary` events through it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Overrides the worker-thread count (0 is treated as 1). Training
    /// results are bitwise identical for every value — see
    /// [`Self::fit`] — so this knob trades wall-clock time only.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-thread count [`Self::fit`] will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached recorder (a disabled one by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The hyperparameters.
    pub fn config(&self) -> &RllConfig {
        &self.config
    }

    /// Builds the vote-counting confidence estimator for the configured
    /// variant, given the positive prior of the crowd-inferred labels.
    /// [`RllVariant::WorkerAware`] does not reduce to a per-item vote count —
    /// it needs the full Dawid–Skene fit — so it is rejected here and handled
    /// directly in [`RllTrainer::fit`].
    pub fn confidence_estimator(&self, positive_prior: f64) -> Result<ConfidenceEstimator> {
        Ok(match self.config.variant {
            RllVariant::Plain => ConfidenceEstimator::None,
            RllVariant::Mle => ConfidenceEstimator::Mle,
            RllVariant::Bayesian => {
                let prior = BetaPrior::from_class_prior(
                    positive_prior.clamp(0.05, 0.95),
                    self.config.prior_strength,
                )?;
                ConfidenceEstimator::Bayesian(prior)
            }
            RllVariant::WorkerAware => {
                return Err(RllError::InvalidConfig {
                    reason:
                        "WorkerAware confidence requires the annotation table; use RllTrainer::fit"
                            .into(),
                })
            }
        })
    }

    /// Computes the per-item label confidences `δ` for any variant and emits
    /// one `ConfidenceSummary` event for them (variant `"worker_aware"` for
    /// [`RllVariant::WorkerAware`], else the estimator's name).
    pub fn compute_confidences(
        &self,
        annotations: &AnnotationMatrix,
        labels: &[u8],
        positive_prior: f64,
    ) -> Result<Vec<f64>> {
        let (variant, conf) = match self.config.variant {
            RllVariant::WorkerAware => {
                let fit = rll_crowd::aggregate::DawidSkene::default().fit(annotations)?;
                let conf = rll_crowd::worker_aware_label_confidences(&fit, labels)?;
                ("worker_aware", conf)
            }
            _ => {
                let estimator = self.confidence_estimator(positive_prior)?;
                let conf = estimator.label_confidences(annotations, labels)?;
                (estimator.name(), conf)
            }
        };
        rll_crowd::emit_confidence_summary(&self.recorder, variant, &conf);
        Ok(conf)
    }

    /// Full training run: infer labels, estimate confidences, sample groups,
    /// optimize the encoder.
    pub fn fit(
        &self,
        features: &Matrix,
        annotations: &AnnotationMatrix,
        seed: u64,
    ) -> Result<(RllModel, TrainingTrace)> {
        self.fit_from(features, annotations, seed, None)
    }

    /// Continues an interrupted run from a [`TrainState`] snapshot, finishing
    /// with **bitwise-identical** weights, trace, and embeddings to the run
    /// that was never interrupted (`features`/`annotations` must be the same
    /// data the snapshot's run trained on; the seed comes from the snapshot).
    ///
    /// Rejects snapshots from a different config or incompatible data with
    /// [`RllError::ResumeMismatch`].
    pub fn resume(
        &self,
        features: &Matrix,
        annotations: &AnnotationMatrix,
        state: TrainState,
    ) -> Result<(RllModel, TrainingTrace)> {
        let seed = state.meta.seed;
        self.fit_from(features, annotations, seed, Some(state))
    }

    /// Rejects snapshots that do not belong to this trainer + data.
    fn check_resumable(&self, state: &TrainState, features: &Matrix) -> Result<()> {
        let expected = config_hash(&self.config)?;
        if state.meta.config_hash != expected {
            return Err(RllError::ResumeMismatch {
                reason: format!(
                    "snapshot was written under config hash {:#018x}, this trainer is {expected:#018x}",
                    state.meta.config_hash
                ),
            });
        }
        // RllModel::new always builds the encoder with dropout 0 and the
        // epoch forward draws no dropout masks, so a snapshot carrying any
        // other rate (or a NaN) was not written by this trainer and would
        // train differently from its config.
        let dropout = state.model.mlp().dropout();
        if dropout.to_bits() != 0.0f64.to_bits() {
            return Err(RllError::ResumeMismatch {
                reason: format!("snapshot encoder has dropout {dropout}, the trainer uses 0"),
            });
        }
        let snapshot_dim = state.model.config().input_dim;
        if snapshot_dim != features.cols() {
            return Err(RllError::ResumeMismatch {
                reason: format!(
                    "snapshot encoder expects input_dim {snapshot_dim}, features have {} columns",
                    features.cols()
                ),
            });
        }
        Ok(())
    }

    /// Shared fresh-start / resume training loop.
    fn fit_from(
        &self,
        features: &Matrix,
        annotations: &AnnotationMatrix,
        seed: u64,
        resume: Option<TrainState>,
    ) -> Result<(RllModel, TrainingTrace)> {
        if features.rows() != annotations.num_items() {
            return Err(RllError::InvalidConfig {
                reason: format!(
                    "{} feature rows for {} annotated items",
                    features.rows(),
                    annotations.num_items()
                ),
            });
        }
        if features.rows() == 0 {
            return Err(RllError::DegenerateData {
                reason: "no training examples".into(),
            });
        }

        // Step 1: crowd labels → hard training labels (majority vote, as the
        // paper's group-4 setup prescribes).
        let labels = MajorityVote::positive_ties().hard_labels(annotations)?;
        let positive_prior =
            labels.iter().filter(|&&l| l == 1).count() as f64 / labels.len() as f64;

        // Step 2: per-item label confidence δ (eq. 1 / eq. 2 / all-ones /
        // worker-aware Dawid–Skene posterior).
        let confidences = self.compute_confidences(annotations, &labels, positive_prior)?;

        // Step 3: grouping layer.
        let sampler = GroupSampler::new(
            &labels,
            self.config.k,
            self.config.sampling,
            Some(&confidences),
        )?;

        // Step 4: optimize the shared encoder.
        let mut rng = Rng64::seed_from_u64(seed);
        let mut model = RllModel::new(
            RllModelConfig {
                input_dim: features.cols(),
                hidden_dims: self.config.hidden_dims.clone(),
                embedding_dim: self.config.embedding_dim,
                ..RllModelConfig::for_input(features.cols())
            },
            &mut rng,
        )?;
        let mut opt = Adam::new(self.config.learning_rate)?;
        let clip = self.config.grad_clip.map(GradClip::new).transpose()?;

        let _fit_span = self.recorder.span("train.fit");
        self.recorder
            .metrics()
            .gauge("train.threads")
            .set(self.threads as f64);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut grad_norms_pre_clip = Vec::with_capacity(self.config.epochs);
        let mut grad_norms_post_clip = Vec::with_capacity(self.config.epochs);
        let mut epoch_wall_secs = Vec::with_capacity(self.config.epochs);
        let mut epoch_profiles: Vec<EpochProfileStats> = Vec::new();
        let mut start_epoch = 0;
        if let Some(state) = resume {
            self.check_resumable(&state, features)?;
            // Swap in the snapshot: weights, optimizer moments, and the
            // sampling RNG continue exactly where the interrupted run left
            // off. Labels/confidences/sampler above were recomputed rather
            // than stored — they are pure functions of the data and config,
            // so they match the original run's by construction.
            model = state.model;
            opt.restore(state.optimizer)?;
            rng = Rng64::from_state(&state.rng)?;
            start_epoch = state.meta.epochs_done;
            epoch_losses = state.trace.epoch_losses;
            grad_norms_pre_clip = state.trace.grad_norms_pre_clip;
            grad_norms_post_clip = state.trace.grad_norms_post_clip;
            epoch_wall_secs = state.trace.epoch_wall_secs;
            epoch_profiles = state.trace.epoch_profiles;
            self.recorder.emit(EventKind::ResumeFrom(ResumeStats {
                epochs_done: start_epoch,
                total_epochs: self.config.epochs,
                seed,
            }));
        }
        for epoch in start_epoch..self.config.epochs {
            let epoch_start = Stopwatch::start();
            let learning_rate = match &self.config.lr_schedule {
                Some(schedule) => {
                    let lr = schedule.at_epoch(epoch);
                    opt.set_learning_rate(lr);
                    lr
                }
                None => self.config.learning_rate,
            };

            let sample_start = Stopwatch::start();
            let (groups, batch_stats) =
                sampler.sample_batch_with_stats(self.config.groups_per_epoch, &mut rng)?;
            let sample_secs = sample_start.elapsed_secs();
            self.recorder.emit(EventKind::SamplerBatch(SamplerStats {
                groups: batch_stats.groups,
                positive_pool: batch_stats.positive_pool,
                negative_pool: batch_stats.negative_pool,
                rejections: batch_stats.rejections,
                fallbacks: batch_stats.fallbacks,
                duplicate_rate: batch_stats.duplicate_rate,
            }));
            let metrics = self.recorder.metrics();
            metrics
                .counter("train.groups_sampled")
                .add(groups.len() as u64);
            metrics
                .counter("train.sampler_rejections")
                .add(batch_stats.rejections);
            metrics
                .counter("train.sampler_fallbacks")
                .add(batch_stats.fallbacks);

            // One forward per epoch, then a backward per shard, sharded
            // across worker threads. Determinism contract (holds for every
            // thread count, including 1): shard boundaries are fixed by
            // SHARD_GROUPS alone; each shard accumulates gradients into a
            // thread-local clone in serial group order; partials are reduced
            // into the model in shard-index order below. Only scheduling
            // varies with `self.threads` — never which floats are added in
            // which order.
            model.mlp_mut().zero_grad();
            let shards = rll_par::fixed_shards(groups.len(), SHARD_GROUPS);
            let fanout_start = Stopwatch::start();
            // Every group sees the same weights this epoch and every output
            // row is its own chain, so each distinct member row is embedded
            // once and shards gather their rows from this cache by slot
            // (DESIGN.md §11).
            let epoch_forward_start = Stopwatch::start();
            let (items, slots) = distinct_members(&groups, features.rows());
            let epoch_cache = model.mlp().forward_cached_with(
                &features.select_rows(&items)?,
                None,
                self.threads,
            )?;
            let epoch_forward_secs = epoch_forward_start.elapsed_secs();
            let (shard_outputs, shard_secs) = {
                let mlp = model.mlp();
                let groups = &groups;
                let confidences = &confidences;
                rll_par::try_map_ordered_timed(&shards, self.threads, |_, range| {
                    let shard = &groups[range.clone()];
                    let mut local = mlp.clone();
                    local.zero_grad();
                    // The shard's member rows, gathered from the epoch cache,
                    // and one segmented backward over them, each group a
                    // segment of `ends`. Rows and per-group gradient sums
                    // keep their per-group bits (DESIGN.md §11). Shards are
                    // the parallel unit, so their products run on this
                    // thread.
                    let forward_start = Stopwatch::start();
                    let first: usize = groups[..range.start].iter().map(Group::len).sum();
                    let mut ends = Vec::with_capacity(shard.len());
                    let mut rows = 0;
                    for group in shard {
                        rows += group.len();
                        ends.push(rows);
                    }
                    let members = &slots[first..first + rows];
                    let cache = epoch_cache.gather(members)?;
                    let dim = cache.output().cols();
                    let mut grads = Matrix::zeros(rows, dim);
                    let mut cand_conf = Vec::with_capacity(self.config.k + 1);
                    let mut loss_sum = 0.0;
                    let mut start = 0;
                    for &end in &ends {
                        let span = start * dim..end * dim;
                        let embeddings = Matrix::from_vec(
                            end - start,
                            dim,
                            cache.output().as_slice()[span.clone()].to_vec(),
                        )?;
                        // Candidate confidences: δ_j for the positive, then
                        // the negatives' δ, in member order.
                        cand_conf.clear();
                        cand_conf.extend(
                            members[start + 1..end]
                                .iter()
                                .map(|&slot| confidences[items[slot]]),
                        );
                        let (loss, group_grads) =
                            group_softmax_loss(&embeddings, &cand_conf, self.config.eta)?;
                        loss_sum += loss;
                        grads.as_mut_slice()[span].copy_from_slice(group_grads.as_slice());
                        start = end;
                    }
                    let forward_secs = forward_start.elapsed_secs();
                    let backward_start = Stopwatch::start();
                    local.backward_segments(&cache, &grads, &ends, 1)?;
                    let backward_secs = backward_start.elapsed_secs();
                    Ok::<_, RllError>((loss_sum, forward_secs, backward_secs, local))
                })?
            };
            let fanout_secs = fanout_start.elapsed_secs();
            // Per-shard wall times (worker-side, so at >1 thread they overlap
            // and can sum past the fan-out wall — CPU time, not elapsed).
            let shard_histogram = metrics.duration_histogram("train.shard.secs");
            for &secs in &shard_secs {
                shard_histogram.observe(secs);
            }
            let reduce_start = Stopwatch::start();
            let mut total_loss = 0.0;
            let mut forward_secs = epoch_forward_secs;
            let mut backward_secs = 0.0;
            for (loss_sum, fwd, bwd, shard_mlp) in &shard_outputs {
                total_loss += loss_sum;
                forward_secs += fwd;
                backward_secs += bwd;
                model.mlp_mut().add_grads_from(shard_mlp)?;
            }
            let reduce_secs = reduce_start.elapsed_secs();

            let step_start = Stopwatch::start();
            model.mlp_mut().scale_grads(1.0 / groups.len() as f64);
            let mut params = model.mlp_mut().param_grad_pairs();
            let grad_norm_pre_clip = global_grad_norm(params.iter().map(|(_, g)| g));
            debug_assert_finite!([grad_norm_pre_clip], "epoch gradient norm (pre-clip)");
            let grad_norm_post_clip = match &clip {
                Some(clip) => {
                    let mut grads: Vec<Matrix> = params.iter().map(|(_, g)| g.clone()).collect();
                    clip.clip(&mut grads);
                    let post = global_grad_norm(grads.iter());
                    for ((_, g), clipped) in params.iter_mut().zip(grads) {
                        *g = clipped;
                    }
                    post
                }
                None => grad_norm_pre_clip,
            };
            opt.step(params)?;
            let step_secs = step_start.elapsed_secs();

            let mean_loss = total_loss / groups.len() as f64;
            let wall_secs = epoch_start.elapsed_secs();
            self.recorder.emit(EventKind::EpochEnd(EpochStats {
                epoch,
                mean_loss,
                grad_norm_pre_clip,
                grad_norm_post_clip,
                learning_rate,
                groups_sampled: groups.len(),
                wall_secs,
                sample_secs,
                forward_secs,
                backward_secs,
                step_secs,
            }));
            metrics.duration_histogram("train.epoch").observe(wall_secs);
            metrics.gauge("train.mean_loss").set(mean_loss);

            epoch_losses.push(mean_loss);
            grad_norms_pre_clip.push(grad_norm_pre_clip);
            grad_norms_post_clip.push(grad_norm_post_clip);
            epoch_wall_secs.push(wall_secs);

            let epochs_done = epoch + 1;
            let mut snapshot_write_secs = None;
            if let Some(policy) = &self.checkpoint {
                if policy.due_after(epochs_done) {
                    let write_start = Stopwatch::start();
                    let state = TrainState::new(
                        &self.config,
                        seed,
                        epochs_done,
                        self.recorder.run_id(),
                        model.clone(),
                        opt.state(),
                        rng.state(),
                        TrainingTrace {
                            epoch_losses: epoch_losses.clone(),
                            inferred_labels: labels.clone(),
                            confidences: confidences.clone(),
                            grad_norms_pre_clip: grad_norms_pre_clip.clone(),
                            grad_norms_post_clip: grad_norms_post_clip.clone(),
                            epoch_wall_secs: epoch_wall_secs.clone(),
                            epoch_profiles: epoch_profiles.clone(),
                        },
                    )?;
                    let bytes = state.save(policy.path())?;
                    let write_secs = write_start.elapsed_secs();
                    self.recorder
                        .emit(EventKind::CheckpointWritten(CheckpointStats {
                            epochs_done,
                            path: policy.path().display().to_string(),
                            bytes,
                            write_secs,
                        }));
                    metrics.counter("train.checkpoints_written").add(1);
                    snapshot_write_secs = Some(write_secs);
                }
            }
            if self.profile {
                // The root's total is re-read here so it covers the snapshot
                // write; forward/backward are worker-side sums, so under
                // parallelism they can exceed the fan-out wall (CPU time
                // inside a wall-time frame — self time floors at zero).
                let mut root = ProfileNode::new("epoch");
                root.add(epoch_start.elapsed_secs());
                root.child("sample").add(sample_secs);
                let fanout = root.child("shard_fanout");
                fanout.add(fanout_secs);
                fanout.child("forward").add(forward_secs);
                fanout.child("backward").add(backward_secs);
                root.child("shard_reduce").add(reduce_secs);
                root.child("adam_step").add(step_secs);
                if let Some(secs) = snapshot_write_secs {
                    root.child("snapshot_write").add(secs);
                }
                let profile = EpochProfileStats { epoch, root };
                self.recorder.emit(EventKind::EpochProfile(profile.clone()));
                epoch_profiles.push(profile);
            }
            // The injected crash fires *after* any due snapshot write — a
            // real crash between epochs lands the same way.
            if let Some(plan) = &self.fault {
                if plan.kill_after_epoch == epoch {
                    return Err(RllError::Interrupted { epochs_done });
                }
            }
        }

        Ok((
            model,
            TrainingTrace {
                epoch_losses,
                inferred_labels: labels,
                confidences,
                grad_norms_pre_clip,
                grad_norms_post_clip,
                epoch_wall_secs,
                epoch_profiles,
            },
        ))
    }
}

/// The distinct items among `groups`' members in first-appearance order,
/// and each member's slot in that list: groups in order, each group's
/// members in [`Group::members`] order. Item ids are below `num_items`.
fn distinct_members(groups: &[Group], num_items: usize) -> (Vec<usize>, Vec<usize>) {
    let mut slot_of = vec![usize::MAX; num_items];
    let mut items = Vec::new();
    let mut slots = Vec::with_capacity(groups.iter().map(Group::len).sum());
    for group in groups {
        for item in group.members() {
            let slot = &mut slot_of[item];
            if *slot == usize::MAX {
                *slot = items.len();
                items.push(item);
            }
            slots.push(*slot);
        }
    }
    (items, slots)
}

/// Global L2 norm over a set of gradient matrices.
fn global_grad_norm<'a>(grads: impl Iterator<Item = &'a Matrix>) -> f64 {
    grads
        .map(|g| g.frobenius_norm().powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_crowd::simulate::{WorkerModel, WorkerPool};

    fn crowd_dataset(n: usize, seed: u64) -> (Matrix, AnnotationMatrix, Vec<u8>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let l = u8::from(rng.bernoulli(0.6));
            let c = if l == 1 { 1.0 } else { -1.0 };
            rows.push(vec![
                rng.normal(c, 0.6).unwrap(),
                rng.normal(-c, 0.6).unwrap(),
                rng.normal(0.0, 1.0).unwrap(),
            ]);
            truth.push(l);
        }
        let features = Matrix::from_rows(&rows).unwrap();
        let pool = WorkerPool::new(vec![
            WorkerModel::OneCoin { accuracy: 0.85 },
            WorkerModel::OneCoin { accuracy: 0.8 },
            WorkerModel::OneCoin { accuracy: 0.75 },
            WorkerModel::OneCoin { accuracy: 0.8 },
            WorkerModel::OneCoin { accuracy: 0.9 },
        ]);
        let ann = pool.annotate(&truth, &mut rng).unwrap();
        (features, ann, truth)
    }

    fn fast_config(variant: RllVariant) -> RllConfig {
        RllConfig {
            variant,
            epochs: 15,
            groups_per_epoch: 64,
            ..Default::default()
        }
    }

    #[test]
    fn distinct_members_keeps_first_appearance_order_and_slots() {
        let group = |anchor, positive, negatives: &[usize]| Group {
            anchor,
            positive,
            negatives: negatives.to_vec(),
        };
        // Item 4 repeats within the first group; 7, 2 and 4 repeat across
        // groups; item 0 and items above 7 never appear.
        let groups = [
            group(7, 2, &[4, 9, 4]),
            group(2, 5, &[7, 1, 3]),
            group(4, 6, &[3, 7, 8]),
        ];
        let (items, slots) = distinct_members(&groups, 10);
        assert_eq!(items, [7, 2, 4, 9, 5, 1, 3, 6, 8]);
        assert_eq!(slots, [0, 1, 2, 3, 2, 1, 4, 0, 5, 6, 2, 7, 6, 0, 8]);
        let members: Vec<usize> = groups.iter().flat_map(Group::members).collect();
        let gathered: Vec<usize> = slots.iter().map(|&s| items[s]).collect();
        assert_eq!(gathered, members);
        assert_eq!(distinct_members(&[], 10), (vec![], vec![]));
    }

    #[test]
    fn loss_decreases_during_training() {
        let (x, ann, _) = crowd_dataset(80, 1);
        let trainer = RllTrainer::new(fast_config(RllVariant::Bayesian)).unwrap();
        let (_, trace) = trainer.fit(&x, &ann, 3).unwrap();
        let first = trace.epoch_losses.first().unwrap();
        let last = trace.epoch_losses.last().unwrap();
        assert!(last < first, "loss {first} -> {last} should decrease");
    }

    #[test]
    fn embeddings_separate_classes() {
        let (x, ann, truth) = crowd_dataset(100, 2);
        let trainer = RllTrainer::new(RllConfig {
            epochs: 40,
            ..fast_config(RllVariant::Bayesian)
        })
        .unwrap();
        let (model, _) = trainer.fit(&x, &ann, 4).unwrap();
        let emb = model.embed(&x).unwrap();
        // Mean cosine similarity within class should beat across class.
        let mut same = 0.0;
        let mut same_n = 0;
        let mut diff = 0.0;
        let mut diff_n = 0;
        for i in 0..emb.rows() {
            for j in (i + 1)..emb.rows() {
                let c =
                    rll_tensor::ops::cosine_similarity(emb.row(i).unwrap(), emb.row(j).unwrap())
                        .unwrap();
                if truth[i] == truth[j] {
                    same += c;
                    same_n += 1;
                } else {
                    diff += c;
                    diff_n += 1;
                }
            }
        }
        let (same, diff) = (same / same_n as f64, diff / diff_n as f64);
        assert!(same > diff + 0.2, "same-cos {same} vs diff-cos {diff}");
    }

    #[test]
    fn all_variants_train() {
        let (x, ann, _) = crowd_dataset(60, 5);
        for variant in [RllVariant::Plain, RllVariant::Mle, RllVariant::Bayesian] {
            let trainer = RllTrainer::new(fast_config(variant)).unwrap();
            let (model, trace) = trainer.fit(&x, &ann, 6).unwrap();
            assert_eq!(model.embedding_dim(), 16);
            assert_eq!(trace.inferred_labels.len(), 60);
            assert_eq!(trace.confidences.len(), 60);
            assert!(!variant.name().is_empty());
        }
    }

    #[test]
    fn variant_confidences_differ_as_specified() {
        let (x, ann, _) = crowd_dataset(50, 7);
        let plain = RllTrainer::new(fast_config(RllVariant::Plain)).unwrap();
        let (_, trace_plain) = plain.fit(&x, &ann, 8).unwrap();
        assert!(trace_plain.confidences.iter().all(|&c| c == 1.0));

        let mle = RllTrainer::new(fast_config(RllVariant::Mle)).unwrap();
        let (_, trace_mle) = mle.fit(&x, &ann, 8).unwrap();
        assert!(trace_mle.confidences.iter().any(|&c| c < 1.0));

        let bay = RllTrainer::new(fast_config(RllVariant::Bayesian)).unwrap();
        let (_, trace_bay) = bay.fit(&x, &ann, 8).unwrap();
        // Bayesian shrinkage: no confidence exactly 1.
        assert!(trace_bay.confidences.iter().all(|&c| c < 1.0 && c > 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, ann, _) = crowd_dataset(40, 9);
        let trainer = RllTrainer::new(fast_config(RllVariant::Bayesian)).unwrap();
        let (m1, _) = trainer.fit(&x, &ann, 11).unwrap();
        let (m2, _) = trainer.fit(&x, &ann, 11).unwrap();
        assert!(m1.embed(&x).unwrap().approx_eq(&m2.embed(&x).unwrap(), 0.0));
        let (m3, _) = trainer.fit(&x, &ann, 12).unwrap();
        assert!(!m1
            .embed(&x)
            .unwrap()
            .approx_eq(&m3.embed(&x).unwrap(), 1e-9));
    }

    #[test]
    fn thread_count_never_changes_training_results() {
        // The tentpole invariant: bitwise-identical weights and losses for
        // any worker-thread count. assert_eq! on raw f64 matrices — no
        // tolerances anywhere.
        let (x, ann, _) = crowd_dataset(60, 21);
        let cfg = fast_config(RllVariant::Bayesian);
        let reference = RllTrainer::new(cfg.clone()).unwrap().with_threads(1);
        let (ref_model, ref_trace) = reference.fit(&x, &ann, 22).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let trainer = RllTrainer::new(cfg.clone()).unwrap().with_threads(threads);
            assert_eq!(trainer.threads(), threads);
            let (model, trace) = trainer.fit(&x, &ann, 22).unwrap();
            for (got, want) in model.mlp().layers().iter().zip(ref_model.mlp().layers()) {
                assert_eq!(got.weights(), want.weights(), "threads={threads}");
                assert_eq!(got.bias(), want.bias(), "threads={threads}");
            }
            assert_eq!(trace.epoch_losses, ref_trace.epoch_losses);
            assert_eq!(trace.grad_norms_pre_clip, ref_trace.grad_norms_pre_clip);
            assert_eq!(trace.grad_norms_post_clip, ref_trace.grad_norms_post_clip);
            assert_eq!(model.embed(&x).unwrap(), ref_model.embed(&x).unwrap());
        }
        // 0 is clamped to 1, not an error.
        let clamped = RllTrainer::new(cfg).unwrap().with_threads(0);
        assert_eq!(clamped.threads(), 1);
    }

    #[test]
    fn profiling_never_changes_training_results() {
        // The tracing-determinism contract at trainer level: a profiled run
        // must produce bitwise-identical weights, losses, and grad norms to
        // an unprofiled one — the profiler may read clocks, nothing else.
        let (x, ann, _) = crowd_dataset(50, 41);
        let cfg = fast_config(RllVariant::Bayesian);
        let plain = RllTrainer::new(cfg.clone()).unwrap();
        let (plain_model, plain_trace) = plain.fit(&x, &ann, 42).unwrap();
        assert!(plain_trace.epoch_profiles.is_empty());

        let profiled = RllTrainer::new(cfg).unwrap().with_profiling(true);
        let (model, trace) = profiled.fit(&x, &ann, 42).unwrap();
        for (got, want) in model.mlp().layers().iter().zip(plain_model.mlp().layers()) {
            assert_eq!(got.weights(), want.weights());
            assert_eq!(got.bias(), want.bias());
        }
        assert_eq!(trace.epoch_losses, plain_trace.epoch_losses);
        assert_eq!(trace.grad_norms_pre_clip, plain_trace.grad_norms_pre_clip);
        assert_eq!(trace.grad_norms_post_clip, plain_trace.grad_norms_post_clip);

        // One frame tree per epoch, with the documented phase taxonomy.
        assert_eq!(trace.epoch_profiles.len(), trace.epoch_losses.len());
        for (i, profile) in trace.epoch_profiles.iter().enumerate() {
            assert_eq!(profile.epoch, i);
            assert_eq!(profile.root.name, "epoch");
            assert!(profile.root.total_secs > 0.0);
            let names: Vec<&str> = profile
                .root
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(
                names,
                vec!["sample", "shard_fanout", "shard_reduce", "adam_step"]
            );
            let fanout = &profile.root.children[1];
            assert!(fanout.children.iter().any(|c| c.name == "forward"));
            assert!(fanout.children.iter().any(|c| c.name == "backward"));
        }
        // The EpochProfile events flowed through the recorder too.
        assert_eq!(
            profiled
                .recorder()
                .metrics()
                .counter("events.epoch_profile")
                .get(),
            trace.epoch_losses.len() as u64
        );
        // Per-shard timings landed in the shard histogram.
        assert!(
            profiled
                .recorder()
                .metrics()
                .duration_histogram("train.shard.secs")
                .count()
                > 0
        );
    }

    #[test]
    fn profiled_checkpoint_includes_snapshot_write_frame() {
        let (x, ann, _) = crowd_dataset(40, 43);
        let dir = std::env::temp_dir().join("rll_core_profile_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profiled.rllstate");
        let trainer = RllTrainer::new(fast_config(RllVariant::Bayesian))
            .unwrap()
            .with_profiling(true)
            .with_checkpoint_policy(CheckpointPolicy::every(&path, 5).unwrap());
        let (_, trace) = trainer.fit(&x, &ann, 44).unwrap();
        // Epochs 4 and 9 (1-based 5 and 10) wrote snapshots; their profiles
        // carry the snapshot_write frame, the others don't.
        let with_write: Vec<usize> = trace
            .epoch_profiles
            .iter()
            .filter(|p| p.root.children.iter().any(|c| c.name == "snapshot_write"))
            .map(|p| p.epoch)
            .collect();
        assert_eq!(with_write, vec![4, 9, 14]);
        // The persisted snapshot round-trips the profiles it has seen.
        let state = TrainState::load(&path).unwrap();
        assert_eq!(state.meta.epochs_done, 15);
        assert!(!state.trace.epoch_profiles.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_from_snapshot_is_bitwise_identical() {
        // The crash-safety contract in miniature: kill training at assorted
        // epochs, resume from the snapshot on disk, and require the final
        // weights and per-epoch losses to be *exactly* the uninterrupted
        // run's — assert_eq! on raw f64, no tolerances.
        let (x, ann, _) = crowd_dataset(50, 31);
        let cfg = fast_config(RllVariant::Bayesian);
        let golden = RllTrainer::new(cfg.clone()).unwrap();
        let (gold_model, gold_trace) = golden.fit(&x, &ann, 32).unwrap();

        let dir = std::env::temp_dir().join("rll_core_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        for kill_after in [1usize, 4, 7, 13] {
            let path = dir.join(format!("resume_{kill_after}.rllstate"));
            let interrupted = RllTrainer::new(cfg.clone())
                .unwrap()
                .with_checkpoint_policy(CheckpointPolicy::every(&path, 2).unwrap())
                .with_fault_plan(FaultPlan {
                    kill_after_epoch: kill_after,
                });
            match interrupted.fit(&x, &ann, 32) {
                Err(RllError::Interrupted { epochs_done }) => {
                    assert_eq!(epochs_done, kill_after + 1)
                }
                other => panic!("expected Interrupted, got {other:?}"),
            }
            let state = TrainState::load(&path).unwrap();
            assert!(state.meta.epochs_done <= kill_after + 1);
            assert_eq!(state.meta.seed, 32);
            // Resume on a *different* thread count: snapshot + thread-count
            // determinism compose.
            let resumed = RllTrainer::new(cfg.clone()).unwrap().with_threads(4);
            let (model, trace) = resumed.resume(&x, &ann, state).unwrap();
            for (got, want) in model.mlp().layers().iter().zip(gold_model.mlp().layers()) {
                assert_eq!(got.weights(), want.weights(), "kill_after={kill_after}");
                assert_eq!(got.bias(), want.bias(), "kill_after={kill_after}");
            }
            assert_eq!(trace.epoch_losses, gold_trace.epoch_losses);
            assert_eq!(trace.grad_norms_pre_clip, gold_trace.grad_norms_pre_clip);
            assert_eq!(trace.grad_norms_post_clip, gold_trace.grad_norms_post_clip);
            assert_eq!(model.embed(&x).unwrap(), gold_model.embed(&x).unwrap());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resume_rejects_foreign_snapshots() {
        let (x, ann, _) = crowd_dataset(40, 33);
        let cfg = fast_config(RllVariant::Bayesian);
        let dir = std::env::temp_dir().join("rll_core_resume_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.rllstate");
        let trainer = RllTrainer::new(cfg.clone())
            .unwrap()
            .with_checkpoint_policy(CheckpointPolicy::every(&path, 3).unwrap())
            .with_fault_plan(FaultPlan {
                kill_after_epoch: 5,
            });
        assert!(matches!(
            trainer.fit(&x, &ann, 34),
            Err(RllError::Interrupted { epochs_done: 6 })
        ));
        // Different hyperparameters → different config hash → rejected.
        let other_cfg = RllConfig {
            eta: 5.0,
            ..cfg.clone()
        };
        let other = RllTrainer::new(other_cfg).unwrap();
        let state = TrainState::load(&path).unwrap();
        assert!(matches!(
            other.resume(&x, &ann, state),
            Err(RllError::ResumeMismatch { .. })
        ));
        // Same config, wrong feature width → rejected.
        let same = RllTrainer::new(cfg).unwrap();
        let state = TrainState::load(&path).unwrap();
        let narrow = Matrix::from_fn(x.rows(), 2, |r, c| (r % 3) as f64 - 0.5 * c as f64);
        assert!(matches!(
            same.resume(&narrow, &ann, state),
            Err(RllError::ResumeMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_forged_optimizer_moments() {
        // A checksum-valid snapshot whose Adam moments have the right count
        // and agree with each other, but not with the network's shapes, must
        // be a typed error on resume, not an index-out-of-bounds panic.
        let (x, ann, _) = crowd_dataset(40, 35);
        let cfg = fast_config(RllVariant::Bayesian);
        let dir = std::env::temp_dir().join("rll_core_resume_forged_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.rllstate");
        let trainer = RllTrainer::new(cfg.clone())
            .unwrap()
            .with_checkpoint_policy(CheckpointPolicy::every(&path, 2).unwrap())
            .with_fault_plan(FaultPlan {
                kill_after_epoch: 3,
            });
        assert!(matches!(
            trainer.fit(&x, &ann, 36),
            Err(RllError::Interrupted { .. })
        ));
        let mut state = TrainState::load(&path).unwrap();
        let tensors = state.optimizer.m.len();
        assert!(tensors > 0);
        state.optimizer.m = vec![Matrix::zeros(1, 1); tensors];
        state.optimizer.v = vec![Matrix::zeros(1, 1); tensors];
        state.save(&path).unwrap();
        let forged = TrainState::load(&path).unwrap();
        let resumed = RllTrainer::new(cfg).unwrap().resume(&x, &ann, forged);
        assert!(matches!(resumed, Err(RllError::Nn(_))), "{resumed:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_forged_dropout() {
        // A checksum-valid snapshot whose encoder carries a dropout rate the
        // trainer never uses must be refused, not trained with that rate.
        let (x, ann, _) = crowd_dataset(40, 39);
        let cfg = fast_config(RllVariant::Bayesian);
        let dir = std::env::temp_dir().join("rll_core_resume_dropout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.rllstate");
        let trainer = RllTrainer::new(cfg.clone())
            .unwrap()
            .with_checkpoint_policy(CheckpointPolicy::every(&path, 2).unwrap())
            .with_fault_plan(FaultPlan {
                kill_after_epoch: 3,
            });
        assert!(matches!(
            trainer.fit(&x, &ann, 40),
            Err(RllError::Interrupted { .. })
        ));
        let model = serde_json::to_string(&TrainState::load(&path).unwrap().model).unwrap();
        // The only dropout field is the encoder's, written as `0`.
        let field = "\"dropout\":0}";
        assert_eq!(model.matches(field).count(), 1);
        for forged_rate in ["0.5", "-0.25"] {
            let mut state = TrainState::load(&path).unwrap();
            let forged = model.replace(field, &format!("\"dropout\":{forged_rate}}}"));
            state.model = serde_json::from_str(&forged).unwrap();
            state.save(&path).unwrap();
            let forged = TrainState::load(&path).unwrap();
            let resumed = RllTrainer::new(cfg.clone())
                .unwrap()
                .resume(&x, &ann, forged);
            assert!(
                matches!(resumed, Err(RllError::ResumeMismatch { .. })),
                "dropout {forged_rate}: {resumed:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_plan_without_checkpointing_still_interrupts() {
        let (x, ann, _) = crowd_dataset(40, 37);
        let trainer = RllTrainer::new(fast_config(RllVariant::Bayesian))
            .unwrap()
            .with_fault_plan(FaultPlan {
                kill_after_epoch: 0,
            });
        assert!(matches!(
            trainer.fit(&x, &ann, 38),
            Err(RllError::Interrupted { epochs_done: 1 })
        ));
    }

    #[test]
    fn worker_aware_variant_trains_and_uses_ds_posteriors() {
        let (x, ann, _) = crowd_dataset(70, 15);
        let trainer = RllTrainer::new(fast_config(RllVariant::WorkerAware)).unwrap();
        let (model, trace) = trainer.fit(&x, &ann, 16).unwrap();
        assert_eq!(model.embedding_dim(), 16);
        // DS posteriors of the argmax label are never below 0.5 and rarely
        // exactly 1 under smoothing.
        assert!(trace.confidences.iter().all(|&c| (0.0..=1.0).contains(&c)));
        assert!(trace.confidences.iter().any(|&c| c < 1.0));
        // The vote-counting estimator path rejects this variant explicitly.
        assert!(trainer.confidence_estimator(0.5).is_err());
    }

    #[test]
    fn lr_schedule_is_applied() {
        use rll_nn::LrSchedule;
        let (x, ann, _) = crowd_dataset(50, 17);
        // A cosine schedule down to ~0 should still train without error and
        // validate its own parameters.
        let cfg = RllConfig {
            lr_schedule: Some(LrSchedule::Cosine {
                lr: 1e-3,
                min_lr: 1e-5,
                total_epochs: 15,
            }),
            ..fast_config(RllVariant::Bayesian)
        };
        let trainer = RllTrainer::new(cfg).unwrap();
        assert!(trainer.fit(&x, &ann, 18).is_ok());
        // Invalid schedules are rejected at construction.
        let bad = RllConfig {
            lr_schedule: Some(LrSchedule::Constant { lr: 0.0 }),
            ..fast_config(RllVariant::Bayesian)
        };
        assert!(RllTrainer::new(bad).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(RllTrainer::new(RllConfig {
            eta: 0.0,
            ..Default::default()
        })
        .is_err());
        // Non-finite values must be rejected, not silently train garbage.
        assert!(RllTrainer::new(RllConfig {
            eta: f64::NAN,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            eta: f64::INFINITY,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            learning_rate: f64::NAN,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            learning_rate: f64::INFINITY,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            prior_strength: f64::NAN,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            grad_clip: Some(f64::NAN),
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            k: 0,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            epochs: 0,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            learning_rate: -1.0,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            prior_strength: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(RllTrainer::new(RllConfig {
            grad_clip: Some(0.0),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn degenerate_data_rejected() {
        let trainer = RllTrainer::new(fast_config(RllVariant::Plain)).unwrap();
        // All-positive crowd votes → no negatives → grouping impossible.
        let x = Matrix::ones(4, 2);
        let ann = AnnotationMatrix::from_dense_binary(&vec![vec![1; 3]; 4]).unwrap();
        assert!(trainer.fit(&x, &ann, 1).is_err());
        // Row mismatch.
        let (x2, ann2, _) = crowd_dataset(10, 13);
        assert!(trainer
            .fit(&x2.select_rows(&[0, 1]).unwrap(), &ann2, 1)
            .is_err());
        drop(x);
    }
}
