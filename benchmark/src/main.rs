//! `rll-benchmark` — the repository benchmark.
//!
//! ```text
//! rll-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
//! rll-benchmark --smoke | --list | --validate FILE
//! ```
//!
//! Without `--workload` all four workloads run in turn. Each prints its
//! end-to-end metrics by name and unit; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` (or `--traced`) the program instead runs the traced ledger —
//! per-layer timings plus short traced reruns of every workload — and the
//! metrics are the per-layer ones. The exit code is non-zero when any output
//! check failed. Run it from the repository root: `--list` and `--validate`
//! read `BENCHMARK.json` there.

mod child;
mod http;
mod labeling;
mod layers;
mod openloop;
mod probe;
mod report;
mod serving;
mod spec;
mod stats;
mod train;

use report::Run;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// What every workload needs from the invocation.
pub struct Ctx {
    pub seed: u64,
    pub serve_bin: PathBuf,
    /// Scratch space for this invocation, removed at exit.
    pub work: PathBuf,
    /// Kept across invocations (the seeded label log).
    pub cache: PathBuf,
}

impl Ctx {
    pub fn work_dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    list: bool,
    validate: Option<String>,
}

const USAGE: &str = "usage: rll-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--traced] [--out FILE]
       rll-benchmark --smoke | --list | --validate FILE
workloads: train-oral, serve-cold, serve-hot, label-live";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: spec::WORKLOADS.to_vec(),
        seed: 42,
        seconds: spec::DEFAULT_SECONDS,
        traced: false,
        out: None,
        list: false,
        validate: None,
    };
    let mut chosen = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let found = spec::WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                chosen = Some(*found);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "invalid --seed")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "invalid --seconds")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--traced" => out.traced = true,
            "--out" => out.out = Some(value()?),
            "--smoke" => out.seconds = 1.0,
            "--list" => out.list = true,
            "--validate" => out.validate = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = chosen {
        out.workloads = vec![w];
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "rll-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "rll-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

const BENCHMARK_FILE: &str = "BENCHMARK.json";

/// Runs the invocation; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let io = |e: std::io::Error| format!("stdout: {e}");
    if args.list {
        for line in spec::list(&spec::load_benchmark_file(BENCHMARK_FILE)?) {
            writeln!(out, "{line}").map_err(io)?;
        }
        return Ok(true);
    }
    if let Some(path) = &args.validate {
        let file = spec::load_benchmark_file(BENCHMARK_FILE)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let result: spec::ResultFile =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let problems = spec::validate(&file, &result);
        for p in &problems {
            writeln!(out, "invalid: {p}").map_err(io)?;
        }
        writeln!(out, "{path}: {} problem(s)", problems.len()).map_err(io)?;
        return Ok(problems.is_empty());
    }

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe_dir = exe.parent().ok_or("executable has no directory")?;
    let ctx = Ctx {
        seed: args.seed,
        serve_bin: child::serve_binary()?,
        work: exe_dir.join(format!("rll-benchmark-work-{}", std::process::id())),
        cache: exe_dir.join("rll-benchmark-cache"),
    };
    let host = report::host_header();
    let mut runs: Vec<(String, Run)> = Vec::new();
    if args.traced {
        let ledger = layers::ledger(&ctx);
        print_run(&mut out, "ledger", &ledger).map_err(io)?;
        runs.push(("ledger".into(), ledger));
    } else {
        for &workload in &args.workloads {
            let result = match workload {
                "train-oral" => train::run(ctx.seed, &train::TrainParams::oral(args.seconds)),
                "serve-cold" => {
                    let params = serving::ServeParams::workload(serving::Mix::Cold, args.seconds);
                    serving::run(&ctx, &params).0
                }
                "serve-hot" => {
                    let params = serving::ServeParams::workload(serving::Mix::Hot, args.seconds);
                    serving::run(&ctx, &params).0
                }
                _ => labeling::run(&ctx, args.seconds).run,
            };
            print_run(&mut out, workload, &result).map_err(io)?;
            runs.push((workload.to_string(), result));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work);

    if let Some(path) = &args.out {
        write_result(path, args, host, &runs)?;
    }
    let named: Vec<(String, &Run)> = runs.iter().map(|(n, r)| (n.clone(), r)).collect();
    let line = serde_json::to_string(&report::summary_line(&named)).map_err(|e| e.to_string())?;
    writeln!(out, "{line}").map_err(io)?;
    Ok(runs.iter().all(|(_, r)| r.correct()))
}

fn print_run(out: &mut impl Write, name: &str, run: &Run) -> std::io::Result<()> {
    writeln!(
        out,
        "== {name}: {} ({} attempted, {} failed)",
        if run.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        run.attempted,
        run.failed
    )?;
    for (metric, value) in &run.metrics {
        let unit = spec::find(metric).map_or("", |m| m.unit);
        writeln!(out, "{name:<11} {metric:<36} {value:>14.6} {unit}")?;
    }
    for note in &run.notes {
        writeln!(out, "{name:<11} note: {note}")?;
    }
    for problem in &run.problems {
        writeln!(out, "{name:<11} PROBLEM: {problem}")?;
    }
    Ok(())
}

fn write_result(
    path: &str,
    args: &Args,
    host: serde::Value,
    runs: &[(String, Run)],
) -> Result<(), String> {
    use serde::Value;
    let (ledger, workloads): (Vec<_>, Vec<_>) = runs.iter().partition(|(n, _)| n == "ledger");
    let doc = Value::Object(vec![
        ("host".into(), host),
        ("schema".into(), Value::Str("rll-benchmark/v1".into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("traced".into(), Value::Bool(args.traced)),
        (
            "workloads".into(),
            Value::Object(
                workloads
                    .iter()
                    .map(|(n, r)| (n.clone(), r.to_value()))
                    .collect(),
            ),
        ),
        (
            "ledger".into(),
            ledger.first().map_or(Value::Null, |(_, r)| r.to_value()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}
