//! `serve-cold` and `serve-hot`: open-loop load against the real `serve`
//! binary.
//!
//! - cold: 80% `/embed` with 4 fresh rows, 20% `/score` with a fresh pair,
//!   so every row misses the LRU and goes through queue, batching and the
//!   batched forward pass;
//! - hot: 1-row `/embed`, 95% drawn from a 32-vector pool (inside the
//!   1024-entry LRU) and 5% fresh, so HTTP parsing, JSON and the cache-hit
//!   path dominate and a kernel change should not show.

use crate::child::Server;
use crate::http::{self, request_bytes};
use crate::openloop::{self, ladder_rates, run_ladder, LadderResult, Request, StepStats};
use crate::report::Run;
use crate::stats::median;
use crate::Ctx;
use rll_core::{RllConfig, RllPipeline};
use rll_obs::{MetricsSnapshot, Stopwatch};
use rll_serve::{
    Checkpoint, EmbedRequest, EmbedResponse, ReloadResponse, ScoreRequest, ScoreResponse,
    ServingModel,
};
use rll_tensor::{Matrix, Rng64};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::Cold => "serve-cold",
            Mix::Hot => "serve-hot",
        }
    }

    /// Capacity under the p99 limit measured by the ledger's ladder when the
    /// benchmark was defined (server and load on one CPU of a 2-core host).
    /// Frozen: the nominal rate is half of it and the ladder spans 0.7× to
    /// 1.6× of it.
    pub fn reference_rps(self) -> f64 {
        match self {
            Mix::Cold => 3000.0,
            Mix::Hot => 9000.0,
        }
    }

    /// Distinct requests before a long step repeats its body table. A cold
    /// cycle holds 16k fresh rows and a hot one ~1600, both far more than the
    /// 1024-entry LRU, so a repeated "fresh" row has long been evicted.
    fn cycle(self) -> usize {
        match self {
            Mix::Cold => 4096,
            Mix::Hot => 32_768,
        }
    }
}

/// Nominal rate as a share of the reference capacity.
const NOMINAL_SHARE: f64 = 0.5;
/// Ladder: geometric from 0.7× to 1.6× of the reference, ratio 1.1.
const LADDER: (f64, f64, f64) = (0.7, 1.6, 1.1);
/// Fewest requests in any timed step (a p99 needs 1000).
const MIN_STEP_REQUESTS: usize = 1200;
const WARMUP_SECS: f64 = 1.0;
/// Server start-ups timed per run; the median is reported.
const SPAWNS: usize = 9;
/// `POST /reload` calls timed per run; the median is reported.
const RELOADS: usize = 51;
const POOL: usize = 32;
const PROBES: usize = 64;
/// Embedding width of the checkpoints this benchmark trains.
const EMBEDDING_DIM: usize = 16;

/// Connections (and sender threads): the host's cores, at most 2.
pub fn connections() -> usize {
    rll_par::available_threads().clamp(1, 2)
}

/// What a request should get back.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Embed(usize),
    Score,
}

pub struct ServeParams {
    pub mix: Mix,
    /// Seconds of the measured step at the nominal rate.
    pub nominal_secs: f64,
    /// Seconds of each capacity-ladder step; `None` skips the ladder.
    pub ladder_step_secs: Option<f64>,
    /// Time `POST /reload` after the load.
    pub reloads: bool,
    /// Run the server with `--trace-out`.
    pub traced: bool,
}

impl ServeParams {
    pub fn workload(mix: Mix, seconds: f64) -> ServeParams {
        ServeParams {
            mix,
            nominal_secs: seconds,
            ladder_step_secs: None,
            reloads: false,
            traced: false,
        }
    }
}

/// What the traced ledger reads from a serve run besides its metrics.
#[derive(Default)]
pub struct ServeExtras {
    pub nominal: Option<StepStats>,
    pub ladder: Option<LadderResult>,
    pub metrics: Option<MetricsSnapshot>,
    pub trace_path: Option<PathBuf>,
    /// Median `POST /reload` round trip.
    pub reload_secs: Option<f64>,
}

/// Trains the checkpoint the server loads (a short fit on the oral preset
/// `ds`) and writes it to `path`.
pub fn train_checkpoint(ds: &rll_data::Dataset, seed: u64, path: &Path) -> Result<(), String> {
    let mut pipeline = RllPipeline::new(RllConfig {
        epochs: 10,
        groups_per_epoch: 128,
        ..RllConfig::default()
    });
    pipeline
        .fit(&ds.features, &ds.annotations, seed)
        .map_err(|e| format!("checkpoint fit: {e}"))?;
    Checkpoint::from_pipeline(&pipeline, "rll-benchmark")
        .and_then(|c| c.save(path))
        .map_err(|e| format!("checkpoint: {e}"))
}

fn normal_row(rng: &mut Rng64, dim: usize) -> Vec<f64> {
    let mut row = vec![0.0; dim];
    rng.fill_standard_normal(&mut row);
    row
}

/// One step's schedule and its pre-serialized bodies (built before the
/// step's clock starts). `salt` keeps the fresh rows of different steps
/// apart.
struct Step {
    requests: Vec<Request>,
    bodies: Vec<Vec<u8>>,
    expects: Vec<Expect>,
}

fn build_step(
    mix: Mix,
    seed: u64,
    salt: u64,
    rate: f64,
    secs: f64,
    pool: &[Vec<f64>],
) -> Result<Step, String> {
    let dim = pool[0].len();
    let count = ((rate * secs).ceil() as usize).max(MIN_STEP_REQUESTS);
    let distinct = count.min(mix.cycle());
    let mut rng = Rng64::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut bodies = Vec::with_capacity(distinct);
    let mut expects = Vec::with_capacity(distinct);
    for _ in 0..distinct {
        let (path, body, expect) = match mix {
            Mix::Cold if rng.uniform() < 0.2 => {
                let body = ScoreRequest {
                    a: normal_row(&mut rng, dim),
                    b: normal_row(&mut rng, dim),
                };
                ("/score", serde_json::to_string(&body), Expect::Score)
            }
            Mix::Cold => {
                let features = (0..4).map(|_| normal_row(&mut rng, dim)).collect();
                let body = EmbedRequest { features };
                ("/embed", serde_json::to_string(&body), Expect::Embed(4))
            }
            Mix::Hot => {
                let row = if rng.uniform() < 0.95 {
                    pool[rng.below(pool.len()).unwrap_or(0)].clone()
                } else {
                    normal_row(&mut rng, dim)
                };
                let body = EmbedRequest {
                    features: vec![row],
                };
                ("/embed", serde_json::to_string(&body), Expect::Embed(1))
            }
        };
        let body = body.map_err(|e| format!("serialize request: {e}"))?;
        bodies.push(request_bytes("POST", path, &body));
        expects.push(expect);
    }
    let requests = openloop::schedule(rate, count, connections())
        .enumerate()
        .map(|(i, (conn, due))| Request {
            conn,
            due,
            body: i % distinct,
        })
        .collect();
    Ok(Step {
        requests,
        bodies,
        expects,
    })
}

fn valid(expect: Expect, body: &[u8]) -> bool {
    match expect {
        Expect::Embed(rows) => http::parse::<EmbedResponse>(body).is_ok_and(|r| {
            r.dim == EMBEDDING_DIM
                && r.embeddings.len() == rows
                && r.embeddings
                    .iter()
                    .all(|e| e.len() == EMBEDDING_DIM && e.iter().all(|v| v.is_finite()))
        }),
        Expect::Score => http::parse::<ScoreResponse>(body)
            .is_ok_and(|r| r.score.is_finite() && r.score.abs() <= 1.0 + 1e-9),
    }
}

/// Runs steps against one server, numbering them so no two share fresh
/// rows.
struct Stepper<'a> {
    server: &'a Server,
    mix: Mix,
    seed: u64,
    pool: Vec<Vec<f64>>,
    steps: u64,
}

impl Stepper<'_> {
    /// One open-loop step: build, run, validate every response, summarise.
    fn step(&mut self, rate: f64, secs: f64, run: &mut Run) -> Result<StepStats, String> {
        self.steps += 1;
        let step = build_step(self.mix, self.seed, self.steps, rate, secs, &self.pool)?;
        let outcomes = openloop::run(
            self.server.addr,
            connections(),
            &step.requests,
            &step.bodies,
        );
        let ok: Vec<bool> = step
            .requests
            .iter()
            .zip(&outcomes)
            .map(|(request, outcome)| {
                outcome
                    .as_ref()
                    .is_some_and(|o| o.status == 200 && valid(step.expects[request.body], &o.body))
            })
            .collect();
        let failed = ok.iter().filter(|&&good| !good).count() as u64;
        run.count(step.requests.len() as u64, failed, "requests");
        openloop::summarize(rate, &step.requests, &outcomes, &ok).map_err(|e| e.to_string())
    }
}

/// Sends 64 probe rows through `/embed` and requires them to equal
/// `ServingModel::embed_matrix` on the same checkpoint, bit for bit.
fn probe(server: &Server, checkpoint: &Path, seed: u64, run: &mut Run) -> Result<(), String> {
    let model = ServingModel::from_checkpoint(
        Checkpoint::load(checkpoint).map_err(|e| format!("load checkpoint: {e}"))?,
    );
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5eed_9b0b);
    let rows: Vec<Vec<f64>> = (0..PROBES)
        .map(|_| normal_row(&mut rng, model.input_dim()))
        .collect();
    let expected = model
        .embed_matrix(&Matrix::from_rows(&rows).map_err(|e| e.to_string())?)
        .map_err(|e| format!("embed_matrix: {e}"))?;
    let mut client = server.client()?;
    for (chunk_index, chunk) in rows.chunks(4).enumerate() {
        let body = serde_json::to_string(&EmbedRequest {
            features: chunk.to_vec(),
        })
        .map_err(|e| e.to_string())?;
        let got = client
            .ok("POST", "/embed", &body)
            .and_then(|b| http::parse::<EmbedResponse>(&b));
        let same = got.as_ref().is_ok_and(|r| {
            r.embeddings.len() == chunk.len()
                && r.embeddings.iter().enumerate().all(|(i, e)| {
                    let want = expected.row(chunk_index * 4 + i).unwrap_or(&[]);
                    e.len() == want.len()
                        && e.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
                })
        });
        run.check(same, || {
            format!(
                "probe rows {}..: /embed differs from embed_matrix",
                chunk_index * 4
            )
        });
    }
    Ok(())
}

pub fn metrics_snapshot(server: &Server) -> Result<MetricsSnapshot, String> {
    server
        .client()?
        .ok("GET", "/metrics", "")
        .and_then(|b| http::parse(&b))
}

pub fn run(ctx: &Ctx, params: &ServeParams) -> (Run, ServeExtras) {
    let mut run = Run::default();
    let mut extras = ServeExtras::default();
    if let Err(e) = drive(ctx, params, &mut run, &mut extras) {
        run.count(1, 1, "workload stages");
        run.problems.push(e);
    }
    (run, extras)
}

fn drive(
    ctx: &Ctx,
    params: &ServeParams,
    run: &mut Run,
    extras: &mut ServeExtras,
) -> Result<(), String> {
    let mix = params.mix;
    let dir = ctx.work_dir(mix.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ds = rll_data::presets::oral(ctx.seed).map_err(|e| format!("dataset: {e}"))?;
    let checkpoint = dir.join("model.rllckpt");
    train_checkpoint(&ds, ctx.seed, &checkpoint)?;
    let mut args = vec!["--checkpoint".to_string(), checkpoint.display().to_string()];
    if params.traced {
        let path = dir.join("trace.jsonl");
        args.push("--trace-out".into());
        args.push(path.display().to_string());
        extras.trace_path = Some(path);
    }

    let mut setup_secs = Vec::with_capacity(SPAWNS);
    let mut server: Option<Server> = None;
    for _ in 0..SPAWNS {
        // Dropping the previous server kills it before the next starts.
        drop(server.take());
        let (started, secs) = Server::start(&ctx.serve_bin, &dir.join("server"), &args)?;
        setup_secs.push(secs);
        server = Some(started);
    }
    let server = server.ok_or("no server started")?;
    run.set("setup_s", median(&setup_secs).unwrap_or(f64::NAN));

    probe(&server, &checkpoint, ctx.seed, run)?;

    let mut pool_rng = Rng64::seed_from_u64(ctx.seed);
    let dim = ds.features.cols();
    let mut stepper = Stepper {
        server: &server,
        mix,
        seed: ctx.seed,
        pool: (0..POOL).map(|_| normal_row(&mut pool_rng, dim)).collect(),
        steps: 0,
    };
    let nominal_rate = NOMINAL_SHARE * mix.reference_rps();
    stepper.step(nominal_rate, WARMUP_SECS, run)?;
    let cpu_before = server.cpu_secs()?;
    let nominal = stepper.step(nominal_rate, params.nominal_secs, run)?;
    let cpu = server.cpu_secs()? - cpu_before;
    run.set("p50_ms", nominal.p50_s * 1e3);
    run.notes.push(format!(
        "nominal {nominal_rate:.0} req/s: p99 {:.3} ms, lateness p99 {:.3} ms, server CPU {:.1} us per request",
        nominal.p99_s * 1e3,
        nominal.lateness_p99_s * 1e3,
        cpu * 1e6 / nominal.requests as f64,
    ));
    extras.nominal = Some(nominal);

    if let Some(step_secs) = params.ladder_step_secs {
        let rates = ladder_rates(mix.reference_rps(), LADDER.0, LADDER.1, LADDER.2);
        let ladder = run_ladder(&rates, |rate| stepper.step(rate, step_secs, run))?;
        for s in &ladder.steps {
            run.notes.push(format!(
                "ladder {:.0} req/s: achieved {:.0}, p99 {:.3} ms, lateness p99 {:.3} ms, {} failed, load factor {:.3}",
                s.offered_rps,
                s.achieved_rps,
                s.p99_s * 1e3,
                s.lateness_p99_s * 1e3,
                s.failed,
                s.load_factor()
            ));
        }
        if ladder.at_top {
            run.notes.push(
                "capacity_at_ladder_top: true (the top step passed; capacity is at least its rate)"
                    .into(),
            );
        }
        extras.ladder = Some(ladder);
    }

    extras.metrics = Some(metrics_snapshot(&server)?);

    if params.reloads {
        let mut client = server.client()?;
        let mut secs = Vec::with_capacity(RELOADS);
        for _ in 0..RELOADS {
            let clock = Stopwatch::start();
            let reloaded = client
                .ok("POST", "/reload", "")
                .and_then(|b| http::parse::<ReloadResponse>(&b));
            secs.push(clock.elapsed_secs());
            run.check(
                reloaded.as_ref().is_ok_and(|r| r.status == "reloaded"),
                || format!("reload failed: {reloaded:?}"),
            );
        }
        extras.reload_secs = median(&secs);
    }
    run.set_or_note("peak_rss_mb", server.peak_rss_mb());
    server.kill();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_steps_cycle_bodies_without_repeating_fresh_rows_soon() {
        let mut rng = Rng64::seed_from_u64(1);
        let pool: Vec<Vec<f64>> = (0..POOL).map(|_| normal_row(&mut rng, 14)).collect();
        let step = build_step(Mix::Hot, 1, 1, 4500.0, 10.0, &pool).unwrap();
        assert_eq!(step.requests.len(), 45_000);
        assert_eq!(step.bodies.len(), Mix::Hot.cycle());
        assert_eq!(step.requests[Mix::Hot.cycle()].body, 0);
        let fresh = step
            .bodies
            .iter()
            .filter(|b| {
                !pool.iter().any(|p| {
                    let body = serde_json::to_string(&EmbedRequest {
                        features: vec![p.clone()],
                    })
                    .unwrap();
                    b.ends_with(body.as_bytes())
                })
            })
            .count();
        assert!(fresh > 1024, "only {fresh} fresh rows per cycle");
    }
}
