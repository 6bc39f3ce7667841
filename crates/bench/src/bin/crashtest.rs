//! `crashtest` — fault-injection proof that resumed training is lossless.
//!
//! ```text
//! crashtest [--n N] [--epochs N] [--every N] [--kill-at E1,E2,…]
//!           [--resume-threads N] [--out-dir PATH]
//! ```
//!
//! The harness trains on `--n` examples of the simulated oral preset, seed
//! 42. It trains one **golden** uninterrupted run to a checkpoint, then for
//! every kill epoch: trains a fresh pipeline with a [`FaultPlan`] that
//! aborts after that epoch (mimicking a crash between epochs), resumes from
//! the latest `.rllstate` snapshot, and demands the resumed run's final
//! `.rllckpt` be **byte-identical** to the golden one. Any drift — a missed
//! RNG word, a stale Adam moment, a dropped trace entry — flips checkpoint
//! bytes and fails the gate.
//!
//! `--resume-threads` resumes under a different worker-thread count than the
//! interrupted run (which honours `RLL_THREADS`), proving snapshots are
//! portable across parallelism settings. The run id is pinned via
//! `RLL_RUN_ID` semantics: both runs use the same fixed id so checkpoint
//! headers cannot differ by accident of timing.

use rll_core::{CheckpointPolicy, FaultPlan, RllConfig, RllError, RllPipeline, TrainState};
use rll_serve::Checkpoint;
use std::path::PathBuf;
use std::process::ExitCode;

/// Dataset and training seed of every run in the harness.
const SEED: u64 = 42;

struct Args {
    n: usize,
    epochs: usize,
    every: usize,
    kill_at: Vec<usize>,
    resume_threads: Option<usize>,
    out_dir: PathBuf,
}

const USAGE: &str = "usage:
  crashtest [--n N] [--epochs N] [--every N] [--kill-at E1,E2,...]
            [--resume-threads N] [--out-dir PATH]";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crashtest: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => {
            println!("crashtest: all {} kill points PASS", args.kill_at.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crashtest: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        n: 120,
        epochs: 12,
        every: 3,
        kill_at: vec![2, 5, 10],
        resume_threads: None,
        out_dir: std::env::temp_dir().join(format!("rll_crashtest_{}", std::process::id())),
    };
    let parse_num = |flag: &str, v: String| -> Result<usize, String> {
        v.parse().map_err(|_| format!("invalid {flag}: {v}"))
    };
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--n" => args.n = parse_num("--n", take_value(raw, &mut i, "--n")?)?,
            "--epochs" => {
                args.epochs = parse_num("--epochs", take_value(raw, &mut i, "--epochs")?)?
            }
            "--every" => args.every = parse_num("--every", take_value(raw, &mut i, "--every")?)?,
            "--kill-at" => {
                let v = take_value(raw, &mut i, "--kill-at")?;
                args.kill_at = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("invalid --kill-at: {v}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--resume-threads" => {
                args.resume_threads = Some(parse_num(
                    "--resume-threads",
                    take_value(raw, &mut i, "--resume-threads")?,
                )?)
            }
            "--out-dir" => args.out_dir = take_value(raw, &mut i, "--out-dir")?.into(),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if args.kill_at.is_empty() {
        return Err("--kill-at needs at least one epoch".into());
    }
    if args.kill_at.iter().any(|&k| k + 1 >= args.epochs) {
        return Err("every --kill-at epoch must leave at least one epoch to resume".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let ds = rll_data::presets::oral_scaled(args.n, SEED)?;
    std::fs::create_dir_all(&args.out_dir)?;
    let config = RllConfig {
        epochs: args.epochs,
        groups_per_epoch: 64,
        ..RllConfig::default()
    };
    // One fixed run id for every run in this harness: checkpoint headers
    // embed it, and the byte-compare must only be able to fail on the math.
    let run_id = "crashtest";

    // Golden: uninterrupted training, straight to a checkpoint.
    let golden_path = args.out_dir.join("golden.rllckpt");
    let mut golden = RllPipeline::new(config.clone());
    golden.fit(&ds.features, &ds.annotations, SEED)?;
    Checkpoint::from_pipeline(&golden, run_id)?.save(&golden_path)?;
    let golden_bytes = std::fs::read(&golden_path)?;
    println!(
        "golden: {} epochs -> {} ({} bytes)",
        args.epochs,
        golden_path.display(),
        golden_bytes.len()
    );

    for &kill_epoch in &args.kill_at {
        verify_kill_point(args, &config, &ds, run_id, kill_epoch, &golden_bytes)?;
    }
    Ok(())
}

fn verify_kill_point(
    args: &Args,
    config: &RllConfig,
    ds: &rll_data::Dataset,
    run_id: &str,
    kill_epoch: usize,
    golden_bytes: &[u8],
) -> Result<(), Box<dyn std::error::Error>> {
    let state_path = args.out_dir.join(format!("kill{kill_epoch}.rllstate"));
    let ckpt_path = args.out_dir.join(format!("resumed{kill_epoch}.rllckpt"));

    // Interrupted run: checkpoint every N epochs, crash after `kill_epoch`.
    let mut victim = RllPipeline::new(config.clone())
        .with_checkpoint_policy(CheckpointPolicy::every(&state_path, args.every)?)
        .with_fault_plan(FaultPlan {
            kill_after_epoch: kill_epoch,
        });
    match victim.fit(&ds.features, &ds.annotations, SEED) {
        Err(RllError::Interrupted { epochs_done }) => {
            if epochs_done != kill_epoch + 1 {
                return Err(format!(
                    "kill@{kill_epoch}: interrupted after {epochs_done} epochs, expected {}",
                    kill_epoch + 1
                )
                .into());
            }
        }
        Err(other) => return Err(format!("kill@{kill_epoch}: unexpected error: {other}").into()),
        Ok(_) => return Err(format!("kill@{kill_epoch}: fault plan never fired").into()),
    }

    // Resume from whatever snapshot survived the crash and train to the end.
    let state = TrainState::load(&state_path)?;
    let resumed_from = state.meta.epochs_done;
    let mut resumed = RllPipeline::new(config.clone());
    if let Some(threads) = args.resume_threads {
        resumed = resumed.with_threads(threads);
    }
    resumed.resume_fit(&ds.features, &ds.annotations, state)?;
    Checkpoint::from_pipeline(&resumed, run_id)?.save(&ckpt_path)?;

    let resumed_bytes = std::fs::read(&ckpt_path)?;
    if resumed_bytes != golden_bytes {
        return Err(format!(
            "kill@{kill_epoch}: resumed checkpoint differs from golden \
             ({} vs {} bytes) — resume is NOT lossless",
            resumed_bytes.len(),
            golden_bytes.len()
        )
        .into());
    }
    println!(
        "kill@{kill_epoch}: resumed from epoch {resumed_from}, checkpoint bitwise identical — PASS"
    );
    Ok(())
}
