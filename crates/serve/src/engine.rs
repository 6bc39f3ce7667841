//! Micro-batched inference engine.
//!
//! A fixed pool of [`WORKERS`] `std::thread` workers drains a **bounded**
//! request queue. A request's cache misses form **one** job (one wake-up, one
//! reply). Each wake-up takes whole jobs while their rows fit in
//! [`MAX_BATCH`] (at least one, so a larger request runs alone) and runs one
//! [`RllModel::embed`] forward pass, which amortizes per-call overhead. Every
//! output row depends only on its own input row, so batched and unbatched
//! inference produce **bit-identical** embeddings (the tests pin this with
//! exact float equality).
//!
//! Backpressure: a request is admitted while fewer than [`QUEUE_CAPACITY`]
//! rows are queued; otherwise [`InferenceEngine::embed`] fails fast with
//! [`ServeError::QueueFull`], which the HTTP layer maps to `503`. The three
//! pool sizes are constants: no caller runs other values.
//!
//! Caching: results are memoized in a hand-rolled [`LruCache`] keyed on the
//! FNV-1a hash of the *raw* feature vector, so repeated queries skip the
//! queue and the forward pass entirely.
//!
//! Hot reload: the serving model, with the training-run id its checkpoint
//! carries, lives behind an `RwLock<Arc<ServingModel>>`.
//! [`InferenceEngine::reload`] swaps in a new model without restarting the
//! worker pool, and clears the embedding cache (cached rows were computed by
//! the old weights). Each batch captures one `Arc` for its whole forward
//! pass, so a swap mid-flight never mixes weights within a batch, and the
//! cache only takes a batch's rows while that `Arc` is still its owner.
//!
//! Locking: every lock is a rank-annotated wrapper from
//! [`rll_par::lockorder`] — workers(10) < model(20) < queue(30) < cache(40)
//! — so any nested acquisition must climb the ladder. The ranks mirror the
//! static lock graph `rll-lint` emits (`results/lock_graph.json`), and debug
//! builds assert them at runtime on every acquisition.

use crate::checkpoint::Checkpoint;
use crate::error::ServeError;
use crate::lru::LruCache;
use crate::Result;
use rll_core::RllModel;
use rll_data::Normalizer;
use rll_obs::{Histogram, Phase, Recorder, Stopwatch, TraceCtx};
use rll_par::{OrderedCondvar, OrderedMutex, OrderedRwLock};
use rll_tensor::hash::fnv1a_f64s;
use rll_tensor::Matrix;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Worker threads draining the queue.
const WORKERS: usize = 2;
/// Maximum rows coalesced into one forward pass; a larger request runs alone.
const MAX_BATCH: usize = 16;
/// Bounded queue capacity in rows; a request that arrives while this many
/// rows are queued is rejected ([`ServeError::QueueFull`]).
const QUEUE_CAPACITY: usize = 256;

/// The one engine setting callers vary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// LRU embedding-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 1024,
        }
    }
}

/// The frozen model a server process answers queries with: the trained
/// encoder, its training-time feature normalizer, and the id of the training
/// run that produced them.
#[derive(Debug, Clone)]
pub struct ServingModel {
    model: RllModel,
    normalizer: Normalizer,
    train_run_id: String,
}

impl ServingModel {
    /// Unwraps a validated checkpoint, keeping its training-run id.
    pub fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        ServingModel {
            model: checkpoint.model,
            normalizer: checkpoint.normalizer,
            train_run_id: checkpoint.meta.train_run_id,
        }
    }

    /// Training-run id baked into the checkpoint this model came from.
    pub fn train_run_id(&self) -> &str {
        &self.train_run_id
    }

    /// Feature dimension requests must carry.
    pub fn input_dim(&self) -> usize {
        self.model.config().input_dim
    }

    /// Embedding dimension responses carry.
    pub fn embedding_dim(&self) -> usize {
        self.model.embedding_dim()
    }

    /// Normalize-then-embed for a whole batch (rows are independent).
    pub fn embed_matrix(&self, raw: &Matrix) -> Result<Matrix> {
        let normalized =
            self.normalizer
                .transform(raw)
                .map_err(|e| ServeError::InvalidRequest {
                    reason: format!("feature normalization failed: {e}"),
                })?;
        Ok(self.model.embed(&normalized)?)
    }
}

/// One request's cache misses.
struct Job {
    /// The missed rows, row-major, and their cache keys.
    features: Vec<f64>,
    keys: Vec<u64>,
    reply: mpsc::Sender<Result<Vec<Vec<f64>>>>,
    /// Request trace this job belongs to; disabled contexts make every
    /// `record` a no-op, so the field costs two words + a null `Arc`.
    trace: TraceCtx,
    /// Trace-clock offset at enqueue (`trace.now()`), for the queue-wait
    /// phase's start timestamp.
    queued_at: f64,
    /// Wall clock started at enqueue; read at dequeue for the
    /// `serve.queue.wait_ms` histogram even when tracing is off.
    queued: Stopwatch,
}

/// Upper bucket edges for `serve.queue.wait_ms`: the latency bounds scaled
/// to milliseconds (0.1 ms .. 10 s).
fn queue_wait_ms_bounds() -> Vec<f64> {
    Histogram::default_latency_bounds()
        .into_iter()
        .map(|b| b * 1e3)
        .collect()
}

/// Pending jobs and the rows they hold: admission and batching count rows.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    rows: usize,
}

/// The embedding cache and the model whose embeddings it holds.
struct Cache {
    entries: LruCache<Vec<f64>>,
    /// The model every entry was computed by. [`InferenceEngine::reload`]
    /// moves it to the new model as it clears `entries`.
    owner: Arc<ServingModel>,
}

struct Shared {
    queue: OrderedMutex<Queue>,
    not_empty: OrderedCondvar,
    shutdown: AtomicBool,
    model: OrderedRwLock<Arc<ServingModel>>,
    cache: OrderedMutex<Cache>,
    recorder: Recorder,
}

impl Shared {
    /// Snapshot of the current model. Callers hold the `Arc`, not the lock,
    /// so a concurrent reload never blocks on an in-flight forward pass.
    ///
    /// The ordered wrappers already recover from poisoning: a panicking
    /// worker must not wedge the whole server, and every guarded structure
    /// here is valid after any partial mutation (the queue is a VecDeque,
    /// the cache re-checks its own links).
    fn model(&self) -> Arc<ServingModel> {
        Arc::clone(&self.model.read())
    }
}

/// Shared-model inference front-end; cheap to clone across HTTP connection
/// handlers.
#[derive(Clone)]
pub struct InferenceEngine {
    shared: Arc<Shared>,
    workers: Arc<OrderedMutex<Vec<JoinHandle<()>>>>,
}

impl InferenceEngine {
    /// Spawns the worker pool and returns the engine handle.
    pub fn start(model: ServingModel, config: EngineConfig, recorder: Recorder) -> Result<Self> {
        let model = Arc::new(model);
        let cache = Cache {
            entries: LruCache::new(config.cache_capacity),
            owner: Arc::clone(&model),
        };
        let shared = Arc::new(Shared {
            queue: OrderedMutex::new("queue", 30, Queue::default()),
            not_empty: OrderedCondvar::new(),
            shutdown: AtomicBool::new(false),
            model: OrderedRwLock::new("model", 20, model),
            cache: OrderedMutex::new("cache", 40, cache),
            recorder,
        });
        let mut workers = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| ServeError::io("spawn worker thread", e))?;
            workers.push(handle);
        }
        Ok(InferenceEngine {
            shared,
            workers: Arc::new(OrderedMutex::new("workers", 10, workers)),
        })
    }

    /// The model currently being served. Returns an owned `Arc` snapshot: a
    /// concurrent [`reload`](Self::reload) does not invalidate it.
    pub fn model(&self) -> Arc<ServingModel> {
        self.shared.model()
    }

    /// Hot-swaps the serving model, and with it the training-run id it
    /// reports, without restarting the worker pool.
    ///
    /// The embedding cache is cleared (its entries were computed by the old
    /// weights), and in-flight batches finish on whichever model snapshot
    /// they captured — a batch never mixes weights, and one that captured
    /// the old model does not fill the new model's cache. The new model may
    /// have different dimensions; subsequent requests are validated against it.
    pub fn reload(&self, model: ServingModel) {
        let model = Arc::new(model);
        *self.shared.model.write() = Arc::clone(&model);
        {
            let mut cache = self.shared.cache.lock();
            cache.entries.clear();
            cache.owner = model;
        }
        self.shared
            .recorder
            .metrics()
            .counter("serve.model.reloads")
            .inc();
    }

    /// Embeds one raw feature vector, waiting for the batch it lands in.
    ///
    /// Returns immediately on a cache hit. Fails fast with
    /// [`ServeError::QueueFull`] under backpressure and
    /// [`ServeError::DimMismatch`]/[`ServeError::InvalidRequest`] on bad
    /// input.
    pub fn embed(&self, mut features: Vec<f64>) -> Result<Vec<f64>> {
        self.embed_rows(
            std::slice::from_mut(&mut features),
            &TraceCtx::disabled(0, 0),
        )?;
        Ok(features)
    }

    /// Embeds several vectors, preserving order, with a request trace: a
    /// cache-hit phase per hit, and one queue-wait, batch-assembly and
    /// forward phase for the misses. The misses ride the shared
    /// micro-batching queue as one job, so concurrent calls coalesce.
    pub fn embed_many_traced(
        &self,
        mut rows: Vec<Vec<f64>>,
        trace: &TraceCtx,
    ) -> Result<Vec<Vec<f64>>> {
        self.embed_rows(&mut rows, trace)?;
        Ok(rows)
    }

    /// Cosine relevance between the embeddings of two raw feature vectors —
    /// the serving form of the paper's eq. 3 relevance score (without the
    /// training-only confidence weight) — with a request trace.
    pub fn score_traced(&self, a: Vec<f64>, b: Vec<f64>, trace: &TraceCtx) -> Result<f64> {
        let embedded = self.embed_many_traced(vec![a, b], trace)?;
        rll_tensor::ops::cosine_similarity(&embedded[0], &embedded[1]).map_err(|e| {
            ServeError::InvalidRequest {
                reason: format!("cosine similarity failed: {e}"),
            }
        })
    }

    /// Lifetime cache hit/miss counts.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.shared.cache.lock();
        (cache.entries.hits(), cache.entries.misses())
    }

    /// Stops the workers and waits for them to exit. In-flight requests
    /// complete; queued-but-undrained requests get [`ServeError::EngineShutdown`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.not_empty.notify_all();
        // workers(10) is held across the join and the queue(30) drain below —
        // the one deliberately nested acquisition in the engine, and it
        // climbs the rank ladder.
        let mut workers = self.workers.lock();
        for handle in workers.drain(..) {
            // A worker that panicked already poisoned nothing we rely on;
            // ignore its join error and keep shutting down.
            let _ = handle.join();
        }
        // Anything still queued will never be drained: fail it explicitly.
        let mut queue = self.shared.queue.lock();
        queue.rows = 0;
        for job in queue.jobs.drain(..) {
            let _ = job.reply.send(Err(ServeError::EngineShutdown));
        }
    }

    /// Replaces every raw row with its embedding, in place: all rows are checked
    /// first, hits come from the cache, and all misses go to the workers as one job.
    fn embed_rows(&self, rows: &mut [Vec<f64>], trace: &TraceCtx) -> Result<()> {
        if rows.is_empty() {
            return Err(ServeError::InvalidRequest {
                reason: "empty feature batch".into(),
            });
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::EngineShutdown);
        }
        let expected = self.shared.model().input_dim();
        for row in rows.iter() {
            if row.len() != expected {
                return Err(ServeError::DimMismatch {
                    what: "request feature vector",
                    expected,
                    actual: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(ServeError::InvalidRequest {
                    reason: "features must be finite".into(),
                });
            }
        }
        let metrics = self.shared.recorder.metrics();
        let (mut misses, mut keys, mut features) = (Vec::new(), Vec::new(), Vec::new());
        for (i, row) in rows.iter_mut().enumerate() {
            let key = fnv1a_f64s(row);
            let lookup_start = trace.now();
            let lookup = Stopwatch::start();
            if let Some(hit) = self.shared.cache.lock().entries.get(key) {
                let secs = lookup.elapsed_secs();
                metrics.counter("serve.cache.hits").inc();
                metrics
                    .latency_histogram("serve.phase.cache_hit")
                    .observe(secs);
                trace.record(Phase::CacheHit, lookup_start, secs);
                *row = hit;
            } else {
                metrics.counter("serve.cache.misses").inc();
                misses.push(i);
                keys.push(key);
                features.extend_from_slice(row);
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        let rx = enqueue(&self.shared, features, keys, trace)?;
        let embedded = rx.recv().map_err(|_| ServeError::EngineShutdown)??;
        for (i, row) in misses.into_iter().zip(embedded) {
            rows[i] = row;
        }
        Ok(())
    }
}

/// Queues one request's misses as one job and wakes a worker; the
/// returned receiver yields their embeddings. Refused with
/// [`ServeError::EngineShutdown`] once shutdown has begun, and with
/// [`ServeError::QueueFull`] at capacity.
fn enqueue(
    shared: &Shared,
    features: Vec<f64>,
    keys: Vec<u64>,
    trace: &TraceCtx,
) -> Result<mpsc::Receiver<Result<Vec<Vec<f64>>>>> {
    let metrics = shared.recorder.metrics();
    let rows = keys.len();
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = shared.queue.lock();
        // Checked again under the queue lock: `shutdown` sets the flag
        // before it drains the queue under this lock, so a job pushed
        // after that drain would wait for workers that have exited.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::EngineShutdown);
        }
        if queue.rows >= QUEUE_CAPACITY {
            metrics.counter("serve.queue.rejected").inc();
            return Err(ServeError::QueueFull {
                capacity: QUEUE_CAPACITY,
            });
        }
        queue.rows += rows;
        metrics.gauge("serve.queue.depth").set(queue.rows as f64);
        queue.jobs.push_back(Job {
            features,
            keys,
            reply: tx,
            trace: trace.clone(),
            queued_at: trace.now(),
            queued: Stopwatch::start(),
        });
    }
    metrics.counter("serve.queue.submitted").add(rows as u64);
    shared.not_empty.notify_one();
    Ok(rx)
}

/// Caches rows that `model` computed, unless a reload has made another
/// model the cache's owner since: those rows would be served as hits
/// for weights that no longer serve.
fn fill_cache<'a>(
    shared: &Shared,
    model: &Arc<ServingModel>,
    rows: impl IntoIterator<Item = (u64, &'a Vec<f64>)>,
) {
    let mut cache = shared.cache.lock();
    if !Arc::ptr_eq(&cache.owner, model) {
        return;
    }
    for (key, row) in rows {
        cache.entries.insert(key, row.clone());
    }
}

fn worker_loop(shared: &Shared) {
    let metrics = shared.recorder.metrics();
    let batch_sizes = metrics.histogram(
        "serve.batch.size",
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    );
    let phase_timers = PhaseTimers {
        wait_ms: metrics.histogram("serve.queue.wait_ms", &queue_wait_ms_bounds()),
        assembly: metrics.latency_histogram("serve.phase.batch_assembly"),
        forward: metrics.latency_histogram("serve.phase.forward"),
    };
    loop {
        let (jobs, rows) = {
            let mut queue = shared.queue.lock();
            while queue.jobs.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                queue = shared.not_empty.wait(queue);
            }
            if queue.jobs.is_empty() {
                // Shutdown with nothing left to drain.
                return;
            }
            // Whole jobs while their rows fit in `MAX_BATCH`, and always the
            // first one, so a request larger than a batch runs alone.
            let (mut take, mut rows) = (0, 0);
            for job in &queue.jobs {
                if take > 0 && rows + job.keys.len() > MAX_BATCH {
                    break;
                }
                take += 1;
                rows += job.keys.len();
            }
            queue.rows -= rows;
            metrics.gauge("serve.queue.depth").set(queue.rows as f64);
            (queue.jobs.drain(..take).collect::<Vec<Job>>(), rows)
        };
        batch_sizes.observe(rows as f64);
        metrics.counter("serve.engine.batches").inc();
        run_batch(shared, jobs, rows, &phase_timers);
    }
}

/// Per-worker histogram handles for the engine-side request phases, created
/// once so the batch loop never touches the registry map.
struct PhaseTimers {
    wait_ms: Histogram,
    assembly: Histogram,
    forward: Histogram,
}

/// One coalesced forward pass over `rows` rows; fans results (or the
/// failure) back out to every job in the batch and feeds the cache.
fn run_batch(shared: &Shared, jobs: Vec<Job>, rows: usize, timers: &PhaseTimers) {
    let _span = shared.recorder.span("serve.batch");
    // Queue wait ends now for every job in the batch: one histogram sample
    // per job (milliseconds) plus a trace phase where tracing is on.
    for job in &jobs {
        let waited = job.queued.elapsed_secs();
        timers.wait_ms.observe(waited * 1e3);
        job.trace.record(Phase::QueueWait, job.queued_at, waited);
    }
    // One snapshot for the whole batch: a concurrent reload must not swap
    // weights between assembling the matrix and running the forward pass.
    let model = shared.model();
    let dim = model.input_dim();
    let assembly = Stopwatch::start();
    let mut data = Vec::with_capacity(rows * dim);
    for job in &jobs {
        data.extend_from_slice(&job.features);
    }
    let batch = match Matrix::from_vec(rows, dim, data) {
        Ok(m) => m,
        Err(e) => {
            for job in jobs {
                let _ = job.reply.send(Err(ServeError::InvalidRequest {
                    reason: format!("batch assembly failed: {e}"),
                }));
            }
            return;
        }
    };
    let assembly_secs = assembly.elapsed_secs();
    timers.assembly.observe(assembly_secs);
    // The assembly interval is shared by the batch; each trace places it on
    // its own clock (it ended `assembly_secs` ago on every one of them).
    for job in &jobs {
        let start = (job.trace.now() - assembly_secs).max(0.0);
        job.trace.record(Phase::BatchAssembly, start, assembly_secs);
    }
    let forward = Stopwatch::start();
    let result = model.embed_matrix(&batch);
    let forward_secs = forward.elapsed_secs();
    timers.forward.observe(forward_secs);
    for job in &jobs {
        let start = (job.trace.now() - forward_secs).max(0.0);
        job.trace.record(Phase::Forward, start, forward_secs);
    }
    match result {
        Ok(embeddings) => {
            let embedded: Vec<Vec<f64>> = (0..rows)
                .map(|i| embeddings.row(i).map(<[f64]>::to_vec).unwrap_or_default())
                .collect();
            let keys = jobs.iter().flat_map(|job| job.keys.iter().copied());
            fill_cache(shared, &model, keys.zip(&embedded));
            let mut embedded = embedded.into_iter();
            for job in jobs {
                let reply = embedded.by_ref().take(job.keys.len()).collect();
                let _ = job.reply.send(Ok(reply));
            }
        }
        Err(e) => {
            let reason = e.to_string();
            for job in jobs {
                let _ = job.reply.send(Err(ServeError::InvalidRequest {
                    reason: format!("inference failed: {reason}"),
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_core::RllModelConfig;
    use rll_tensor::Rng64;

    fn tiny_model(seed: u64) -> ServingModel {
        let mut rng = Rng64::seed_from_u64(seed);
        let config = RllModelConfig {
            hidden_dims: vec![6],
            embedding_dim: 4,
            ..RllModelConfig::for_input(3)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let features = Matrix::from_fn(12, 3, |r, c| (r as f64) * 0.3 - (c as f64) * 0.7);
        let normalizer = Normalizer::fit(&features).unwrap();
        ServingModel {
            model,
            normalizer,
            train_run_id: "tiny".into(),
        }
    }

    /// A disabled trace, for requests whose phases the test does not read.
    fn untraced() -> TraceCtx {
        TraceCtx::disabled(0, 0)
    }

    fn engine(seed: u64, config: EngineConfig) -> InferenceEngine {
        InferenceEngine::start(tiny_model(seed), config, Recorder::disabled()).unwrap()
    }

    #[test]
    fn embed_matches_direct_forward_exactly() {
        let model = tiny_model(1);
        let eng =
            InferenceEngine::start(model.clone(), EngineConfig::default(), Recorder::disabled())
                .unwrap();
        let x = vec![0.5, -1.0, 2.0];
        let via_engine = eng.embed(x.clone()).unwrap();
        let direct = model
            .embed_matrix(&Matrix::from_rows(&[x]).unwrap())
            .unwrap();
        assert_eq!(via_engine, direct.row(0).unwrap().to_vec());
        eng.shutdown();
    }

    #[test]
    fn cache_hits_on_repeat_and_skips_queue() {
        let eng = engine(2, EngineConfig::default());
        let x = vec![1.0, 2.0, 3.0];
        let first = eng.embed(x.clone()).unwrap();
        let second = eng.embed(x.clone()).unwrap();
        assert_eq!(first, second);
        let (hits, misses) = eng.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        eng.shutdown();
    }

    #[test]
    fn rejects_bad_dims_and_non_finite() {
        let eng = engine(3, EngineConfig::default());
        assert!(matches!(
            eng.embed(vec![1.0, 2.0]),
            Err(ServeError::DimMismatch {
                expected: 3,
                actual: 2,
                ..
            })
        ));
        assert!(matches!(
            eng.embed(vec![1.0, f64::NAN, 0.0]),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            eng.embed_many_traced(vec![], &untraced()),
            Err(ServeError::InvalidRequest { .. })
        ));
        eng.shutdown();
    }

    #[test]
    fn embed_many_is_order_preserving() {
        let eng = engine(4, EngineConfig::default());
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, -(i as f64), 0.5 * i as f64])
            .collect();
        let batched = eng.embed_many_traced(rows.clone(), &untraced()).unwrap();
        for (row, got) in rows.into_iter().zip(&batched) {
            let single = eng.embed(row).unwrap();
            assert_eq!(&single, got);
        }
        eng.shutdown();
    }

    #[test]
    fn score_is_cosine_of_embeddings() {
        let eng = engine(5, EngineConfig::default());
        let a = vec![1.0, 0.0, -1.0];
        let b = vec![0.0, 2.0, 1.0];
        let s = eng.score_traced(a.clone(), b.clone(), &untraced()).unwrap();
        let ea = eng.embed(a.clone()).unwrap();
        let eb = eng.embed(b.clone()).unwrap();
        let expected = rll_tensor::ops::cosine_similarity(&ea, &eb).unwrap();
        assert!((s - expected).abs() < 1e-15);
        // Self-similarity of a cached embedding is exactly 1 (same bits).
        let self_score = eng.score_traced(a.clone(), a, &untraced()).unwrap();
        assert!((self_score - 1.0).abs() < 1e-12);
        eng.shutdown();
    }

    #[test]
    fn traced_embed_records_engine_phases_and_queue_wait_metric() {
        let recorder = Recorder::disabled();
        let eng = InferenceEngine::start(tiny_model(20), EngineConfig::default(), recorder.clone())
            .unwrap();
        let trace = TraceCtx::recording(0, 0);
        let x = vec![0.5, 1.0, -2.0];
        eng.embed_many_traced(vec![x.clone()], &trace).unwrap();
        // Repeat is a cache hit, recorded as its own phase.
        eng.embed_many_traced(vec![x], &trace).unwrap();
        let record = trace.finish("POST", "/embed", 200).unwrap();
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase.as_str()).collect();
        for expected in ["queue_wait", "batch_assembly", "forward", "cache_hit"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(record
            .phases
            .windows(2)
            .all(|w| w[0].start_secs <= w[1].start_secs));
        let snap = recorder.metrics().snapshot();
        for histogram in [
            "serve.queue.wait_ms",
            "serve.phase.batch_assembly",
            "serve.phase.forward",
            "serve.phase.cache_hit",
        ] {
            assert!(
                snap.histograms.get(histogram).is_some_and(|h| h.count >= 1),
                "no samples in {histogram}"
            );
        }
        eng.shutdown();
    }

    #[test]
    fn shutdown_then_submit_errors() {
        let eng = engine(6, EngineConfig::default());
        eng.shutdown();
        assert!(matches!(
            eng.embed(vec![0.0, 0.0, 0.0]),
            Err(ServeError::EngineShutdown)
        ));
        // A request that passed its own shutdown check before `shutdown`
        // ran reaches the queue only now, after the drain: it is refused,
        // not left queued for workers that have exited.
        assert!(matches!(
            enqueue(&eng.shared, vec![0.0; 3], vec![7], &untraced()),
            Err(ServeError::EngineShutdown)
        ));
        assert!(eng.shared.queue.lock().jobs.is_empty());
    }

    #[test]
    fn reload_swaps_model_and_clears_cache() {
        let eng = engine(9, EngineConfig::default());
        let x = vec![0.25, -0.5, 1.5];
        let before = eng.embed(x.clone()).unwrap();
        let cached = eng.embed(x.clone()).unwrap();
        assert_eq!(before, cached);
        assert_eq!(eng.cache_stats(), (1, 1));

        let new_model = tiny_model(10);
        let expected = new_model
            .embed_matrix(&Matrix::from_rows(std::slice::from_ref(&x)).unwrap())
            .unwrap()
            .row(0)
            .unwrap()
            .to_vec();
        eng.reload(new_model);
        let after = eng.embed(x.clone()).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, expected);
        // Hit/miss counters are lifetime stats; the post-reload lookup was a
        // miss because the cache was cleared.
        assert_eq!(eng.cache_stats(), (1, 2));
        eng.shutdown();
    }

    #[test]
    fn a_batch_computed_by_the_old_model_does_not_fill_the_new_cache() {
        let eng = engine(24, EngineConfig::default());
        let x = vec![0.75, -0.25, 1.0];
        let stale = vec![9.0; 4];
        // A batch snapshots the model, a reload lands, then the batch
        // finishes and offers its rows to the cache.
        let old = eng.model();
        eng.reload(tiny_model(25));
        fill_cache(&eng.shared, &old, [(fnv1a_f64s(&x), &stale)]);
        let served = eng.embed(x.clone()).unwrap();
        assert_ne!(served, stale);
        assert_eq!(eng.cache_stats(), (0, 1));
        // The current model's rows are cached as before.
        let y = vec![-1.5, 0.5, 2.0];
        fill_cache(&eng.shared, &eng.model(), [(fnv1a_f64s(&y), &stale)]);
        assert_eq!(eng.embed(y).unwrap(), stale);
        assert_eq!(eng.cache_stats(), (1, 1));
        eng.shutdown();
    }

    #[test]
    fn reload_revalidates_dims_against_the_new_model() {
        let eng = engine(11, EngineConfig::default());
        let mut rng = Rng64::seed_from_u64(12);
        let config = RllModelConfig {
            hidden_dims: vec![5],
            embedding_dim: 2,
            ..RllModelConfig::for_input(2)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let features = Matrix::from_fn(9, 2, |r, c| (r as f64) * 0.4 - c as f64);
        let normalizer = Normalizer::fit(&features).unwrap();
        eng.reload(ServingModel {
            model,
            normalizer,
            train_run_id: "two-dims".into(),
        });
        assert!(matches!(
            eng.embed(vec![1.0, 2.0, 3.0]),
            Err(ServeError::DimMismatch {
                expected: 2,
                actual: 3,
                ..
            })
        ));
        assert_eq!(eng.embed(vec![1.0, 2.0]).unwrap().len(), 2);
        assert_eq!(eng.model().embedding_dim(), 2);
        eng.shutdown();
    }

    /// A seeded model larger than `tiny_model`, so the forward runs real
    /// multi-column tiles, and `n` seeded raw rows for it.
    fn seeded_model_and_rows(n: usize) -> (ServingModel, Vec<Vec<f64>>) {
        let mut rng = Rng64::seed_from_u64(31);
        let config = RllModelConfig {
            hidden_dims: vec![24, 20],
            embedding_dim: 16,
            ..RllModelConfig::for_input(12)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let fit = Matrix::from_fn(40, 12, |_, _| rng.standard_normal() * 3.0);
        let normalizer = Normalizer::fit(&fit).unwrap();
        let rows = (0..n)
            .map(|_| (0..12).map(|_| rng.standard_normal() * 2.0).collect())
            .collect();
        (
            ServingModel {
                model,
                normalizer,
                train_run_id: "seeded".into(),
            },
            rows,
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The byte contract coalescing rests on: a row's embedding has the same
    /// bits alone and at every position of every batch of 1-16 rows (and of
    /// a 40-row request, which runs as one forward).
    #[test]
    fn each_row_embeds_bit_identically_alone_and_in_any_batch() {
        let (model, rows) = seeded_model_and_rows(40);
        let alone: Vec<Vec<u64>> = rows
            .iter()
            .map(|row| {
                let out = model
                    .embed_matrix(&Matrix::from_rows(std::slice::from_ref(row)).unwrap())
                    .unwrap();
                bits(out.row(0).unwrap())
            })
            .collect();
        for size in (1..=16).chain([40]) {
            // Slide the window so every row sits at every position it can.
            for first in 0..=rows.len() - size {
                let batch = Matrix::from_rows(&rows[first..first + size]).unwrap();
                let out = model.embed_matrix(&batch).unwrap();
                for pos in 0..size {
                    assert_eq!(
                        bits(out.row(pos).unwrap()),
                        alone[first + pos],
                        "row {} at {pos}/{size}",
                        first + pos
                    );
                }
            }
        }
    }

    #[test]
    fn embed_many_mixing_hits_misses_and_duplicates_matches_single_rows() {
        let (model, rows) = seeded_model_and_rows(6);
        let eng =
            InferenceEngine::start(model.clone(), EngineConfig::default(), Recorder::disabled())
                .unwrap();
        // Rows 0 and 3 are cached first; row 1 appears twice in one request.
        eng.embed(rows[0].clone()).unwrap();
        eng.embed(rows[3].clone()).unwrap();
        let request: Vec<Vec<f64>> = [1, 0, 2, 1, 3, 4, 5]
            .iter()
            .map(|&i| rows[i].clone())
            .collect();
        let got = eng.embed_many_traced(request.clone(), &untraced()).unwrap();
        assert_eq!(eng.cache_stats(), (2, 7)); // two warm-up misses, five here
        let fresh =
            InferenceEngine::start(model, EngineConfig::default(), Recorder::disabled()).unwrap();
        for (row, embedding) in request.into_iter().zip(&got) {
            let single = fresh.embed(row).unwrap();
            assert_eq!(bits(&single), bits(embedding));
        }
        eng.shutdown();
        fresh.shutdown();
    }

    #[test]
    fn request_larger_than_batch_and_queue_runs_alone() {
        let n = QUEUE_CAPACITY.max(MAX_BATCH) + 1;
        let (model, rows) = seeded_model_and_rows(n);
        let eng = InferenceEngine::start(
            model,
            EngineConfig { cache_capacity: 0 },
            Recorder::disabled(),
        )
        .unwrap();
        let got = eng.embed_many_traced(rows.clone(), &untraced()).unwrap();
        assert_eq!(got.len(), n);
        for (row, embedding) in rows.into_iter().zip(&got) {
            assert_eq!(&eng.embed(row).unwrap(), embedding);
        }
        eng.shutdown();
    }

    #[test]
    fn batch_size_histogram_counts_rows() {
        let recorder = Recorder::disabled();
        let (model, rows) = seeded_model_and_rows(5);
        let eng = InferenceEngine::start(model, EngineConfig::default(), recorder.clone()).unwrap();
        eng.embed_many_traced(rows, &untraced()).unwrap();
        let snap = recorder.metrics().snapshot();
        let sizes = &snap.histograms["serve.batch.size"];
        assert_eq!((sizes.count, sizes.sum), (1, 5.0));
        assert_eq!(snap.counters["serve.queue.submitted"], 5);
        eng.shutdown();
    }

    #[test]
    fn admission_counts_queued_rows() {
        let (model, rows) = seeded_model_and_rows(3);
        let eng =
            InferenceEngine::start(model, EngineConfig::default(), Recorder::disabled()).unwrap();
        // Rows queued without a job: workers stay asleep, admission sees them.
        eng.shared.queue.lock().rows = QUEUE_CAPACITY;
        assert!(matches!(
            eng.embed_many_traced(rows.clone(), &untraced()),
            Err(ServeError::QueueFull {
                capacity: QUEUE_CAPACITY
            })
        ));
        // One row of room admits a request of any size.
        eng.shared.queue.lock().rows = QUEUE_CAPACITY - 1;
        assert_eq!(eng.embed_many_traced(rows, &untraced()).unwrap().len(), 3);
        assert_eq!(eng.shared.queue.lock().rows, QUEUE_CAPACITY - 1);
        eng.shutdown();
    }

    #[test]
    fn concurrent_load_coalesces_into_batches() {
        let eng = engine(8, EngineConfig { cache_capacity: 0 });
        let recorder = Recorder::disabled();
        let _ = recorder; // engine has its own disabled recorder
        let mut handles = Vec::new();
        for t in 0..4 {
            let e = eng.clone();
            handles.push(std::thread::spawn(move || {
                (0..16)
                    .map(|i| {
                        let v = vec![t as f64, i as f64, (t * i) as f64];
                        e.embed(v).unwrap().len()
                    })
                    .sum::<usize>()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 4 * 16 * 4); // every request returned a 4-dim embedding
        eng.shutdown();
    }
}
