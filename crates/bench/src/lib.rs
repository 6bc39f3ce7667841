#![warn(missing_docs)]

//! # `rll-bench` — benchmark harness and table-reproduction binaries
//!
//! Binaries (run with `--release`):
//!
//! | Binary | Paper artifact | Typical invocation |
//! |---|---|---|
//! | `repro_table1` | Table I | `cargo run -p rll-bench --release --bin repro_table1 -- --full` |
//! | `repro_table2` | Table II (`k` sweep) | `cargo run -p rll-bench --release --bin repro_table2 -- --full` |
//! | `repro_table3` | Table III (`d` sweep) | `cargo run -p rll-bench --release --bin repro_table3 -- --full` |
//! | `repro_ablations` | DESIGN.md §7 ablations | `cargo run -p rll-bench --release --bin repro_ablations` |
//!
//! Every binary accepts `--quick` (default) or `--full` (paper-size datasets
//! and budgets), `--seed <u64>`, and `--json <path>` to dump machine-readable
//! results.
//!
//! Timing lives in the standalone `benchmark/` package: end-to-end workloads
//! plus a per-layer ledger (matmul, sampler, group loss, …) at the trainer's
//! real shapes.

use rll_eval::experiments::ExperimentScale;

/// Parsed command-line options shared by the repro binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Base seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: ExperimentScale::Quick,
            seed: 42,
            json: None,
        }
    }
}

impl Cli {
    /// Standard telemetry wiring for a repro binary: human-readable stdout
    /// plus an append-only `results/runs/<run_id>.jsonl`, with the `RunStart`
    /// event already emitted. Callers must `recorder.finish()` at the end.
    pub fn recorder(&self, experiment: &str) -> rll_obs::Recorder {
        let recorder = rll_obs::Recorder::for_experiment(experiment, self.seed);
        let scale = match self.scale {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Full => "full",
        };
        recorder.run_start(experiment, scale, self.seed);
        recorder
    }

    /// Parses the binaries' shared flags. Unknown flags produce an error
    /// message (returned as `Err` so `main` can print usage and exit).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.scale = ExperimentScale::Quick,
                "--full" => cli.scale = ExperimentScale::Full,
                "--seed" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--seed requires a value".to_string())?;
                    cli.seed = value
                        .parse()
                        .map_err(|_| format!("invalid seed: {value}"))?;
                }
                "--json" => {
                    cli.json = Some(
                        args.next()
                            .ok_or_else(|| "--json requires a path".to_string())?,
                    );
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        Ok(cli)
    }

    /// Usage string for the binaries.
    pub fn usage(bin: &str) -> String {
        format!("usage: {bin} [--quick|--full] [--seed <u64>] [--json <path>]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale, ExperimentScale::Quick);
        assert_eq!(cli.seed, 42);
        assert!(cli.json.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&["--full", "--seed", "7", "--json", "/tmp/out.json"]).unwrap();
        assert_eq!(cli.scale, ExperimentScale::Full);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.json.as_deref(), Some("/tmp/out.json"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }

    #[test]
    fn usage_mentions_flags() {
        let u = Cli::usage("repro_table1");
        assert!(u.contains("--full"));
        assert!(u.contains("--seed"));
    }
}
