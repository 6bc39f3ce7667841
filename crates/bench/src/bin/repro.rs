//! Reproduces the paper's tables and this reproduction's extensions, one
//! experiment per run:
//!
//! ```text
//! cargo run -p rll-bench --release --bin repro -- table1 --full
//! repro <table1|table2|table3|ablations|learning-curve> [--quick|--full] [--seed N] [--json PATH]
//! ```
//!
//! | Experiment | Artifact |
//! |---|---|
//! | `table1` | Table I: 15 methods × {oral, class} |
//! | `table2` | Table II: RLL-Bayesian vs. the number of negatives `k` |
//! | `table3` | Table III: RLL-Bayesian vs. the number of crowd workers `d` |
//! | `ablations` | DESIGN.md §7: η, confidence estimator, embedding dim, sampling |
//! | `learning-curve` | SoftProb vs. RLL-Bayesian as the label budget shrinks |
//!
//! `--quick` (default) runs small datasets and budgets, `--full` the paper
//! sizes. `--json` writes the result file; `ablations` has none. Each run
//! prints telemetry on stdout and appends `results/runs/<run_id>.jsonl`.
//! A usage error exits 2, a failed experiment exits 1.

use rll_eval::experiments::{
    ablations, learning_curve, paper, table1, table2, table3, ExperimentScale,
};
use rll_obs::{EventKind, Recorder, TableText};
use std::error::Error;
use std::fmt::{Display, Write as _};
use std::path::Path;

const USAGE: &str = "usage: repro <table1|table2|table3|ablations|learning-curve> \
                     [--quick|--full] [--seed <u64>] [--json <path>]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Experiment {
    Table1,
    Table2,
    Table3,
    Ablations,
    LearningCurve,
}

impl Experiment {
    /// The experiment name in `RunStart` events and run ids.
    fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Ablations => "ablations",
            Experiment::LearningCurve => "learning_curve",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    experiment: Experiment,
    scale: ExperimentScale,
    seed: u64,
    json: Option<String>,
}

impl Cli {
    /// Parses `<experiment> [flags]`. Every error is a usage error.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let experiment = match args.next().as_deref() {
            Some("table1") => Experiment::Table1,
            Some("table2") => Experiment::Table2,
            Some("table3") => Experiment::Table3,
            Some("ablations") => Experiment::Ablations,
            Some("learning-curve") => Experiment::LearningCurve,
            Some(other) => return Err(format!("unknown experiment: {other}")),
            None => return Err("missing experiment".to_string()),
        };
        let mut cli = Cli {
            experiment,
            scale: ExperimentScale::Quick,
            seed: 42,
            json: None,
        };
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
        if experiment == Experiment::Ablations && cli.json.is_some() {
            return Err("ablations writes no result file; drop --json".to_string());
        }
        Ok(cli)
    }
}

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = cli.experiment.name();
    let recorder = Recorder::for_experiment(name, cli.seed);
    let scale = match cli.scale {
        ExperimentScale::Quick => "quick",
        ExperimentScale::Full => "full",
    };
    recorder.run_start(name, scale, cli.seed);
    if let Err(e) = run(&cli, &recorder) {
        eprintln!("{name} failed: {e}");
        std::process::exit(1);
    }
    recorder.finish();
}

/// Runs one experiment: notes, `Table` events, then the `--json` file.
fn run(cli: &Cli, recorder: &Recorder) -> Result<(), Box<dyn Error>> {
    let (scale, seed) = (cli.scale, cli.seed);
    match cli.experiment {
        Experiment::Table1 => {
            recorder.note(format!(
                "Table I at {scale:?} scale (seed {seed}): 15 methods x 2 datasets x {} folds",
                scale.folds()
            ));
            let result = table1::run(scale, seed, None, recorder)?;
            emit_table(recorder, "Table I (measured)", result.render());
            emit_table(
                recorder,
                "Table I (paper-reported, for reference)",
                reference("Method", 22, &paper::TABLE1),
            );
            for (label, oral) in [("oral ", true), ("class", false)] {
                let best = result.best_method(oral);
                recorder.note(format!(
                    "best method on {label}: {} ({:.3})",
                    best.method, best.accuracy.mean
                ));
            }
            for g in 1..=4u8 {
                recorder.note(format!(
                    "group {g} mean accuracy: {:.3}",
                    result.group_mean_accuracy(g)
                ));
            }
            write_json(cli, recorder, |p| rll_eval::report::write_json(p, &result))
        }
        Experiment::Table2 => {
            recorder.note(format!(
                "Table II (k sweep) at {scale:?} scale (seed {seed})"
            ));
            let ks = paper::TABLE2.map(|(k, ..)| k);
            let result = table2::run(scale, seed, &ks, recorder)?;
            emit_table(recorder, "Table II (measured)", result.render());
            emit_table(
                recorder,
                "Table II (paper-reported, for reference)",
                reference("k", 8, &paper::TABLE2),
            );
            for (label, oral) in [("oral ", true), ("class", false)] {
                recorder.note(format!(
                    "best k on {label}: {} (paper: {})",
                    result.best_k(oral),
                    paper::BEST_K
                ));
            }
            write_json(cli, recorder, |p| rll_eval::report::write_json(p, &result))
        }
        Experiment::Table3 => {
            recorder.note(format!(
                "Table III (d sweep) at {scale:?} scale (seed {seed})"
            ));
            let ds = paper::TABLE3.map(|(d, ..)| d);
            let result = table3::run(scale, seed, &ds, recorder)?;
            emit_table(recorder, "Table III (measured)", result.render());
            emit_table(
                recorder,
                "Table III (paper-reported, for reference)",
                reference("d", 8, &paper::TABLE3),
            );
            for (label, oral) in [("oral ", true), ("class", false)] {
                recorder.note(format!(
                    "accuracy monotone in d on {label}: {}",
                    result.monotone_accuracy(oral)
                ));
            }
            write_json(cli, recorder, |p| rll_eval::report::write_json(p, &result))
        }
        Experiment::Ablations => {
            recorder.note(format!("ablations at {scale:?} scale (seed {seed})"));
            let points =
                ablations::eta_sweep(scale, seed, &[2.0, 5.0, 10.0, 20.0, 40.0], recorder)?;
            emit_table(recorder, "eta sweep (oral)", render_points(&points));
            let points = ablations::confidence_ablation(scale, seed, recorder)?;
            emit_table(
                recorder,
                "confidence estimator (class)",
                render_points(&points),
            );
            let points = ablations::dim_sweep(scale, seed, &[4, 8, 16, 32], recorder)?;
            emit_table(
                recorder,
                "embedding dimension (oral)",
                render_points(&points),
            );
            let s = ablations::sampling_ablation(scale, seed, 1.0, recorder)?;
            emit_table(
                recorder,
                "negative sampling strategy (class)",
                format!(
                    "uniform             acc {:.3}\nconfidence-biased   acc {:.3} (gamma {})\n",
                    s.uniform_accuracy, s.biased_accuracy, s.gamma
                ),
            );
            Ok(())
        }
        Experiment::LearningCurve => {
            let (ns, repeats): (&[usize], usize) = match scale {
                ExperimentScale::Quick => (&[60, 120, 240], 1),
                ExperimentScale::Full => (&[110, 220, 440, 880], 3),
            };
            recorder.note(format!(
                "learning curve at {scale:?} scale (seed {seed}), n in {ns:?}, \
                 {repeats} dataset seed(s) per point"
            ));
            let result = learning_curve::run(scale, seed, ns, repeats, recorder)?;
            emit_table(recorder, "Learning curve (measured)", result.render());
            write_json(cli, recorder, |p| rll_eval::report::write_json(p, &result))
        }
    }
}

fn emit_table(recorder: &Recorder, title: &str, text: String) {
    recorder.emit(EventKind::Table(TableText {
        title: title.into(),
        text,
    }));
}

/// The paper's reported rows as text: the first column (`head`, `width`
/// wide) holds each row's method or swept value, then accuracy and F1 per
/// dataset.
fn reference<K: Display>(head: &str, width: usize, rows: &[(K, f64, f64, f64, f64)]) -> String {
    let mut out = format!(
        "{head:<width$}{:<11}{:<11}{:<11}{:<11}\n",
        "oral-Acc", "oral-F1", "class-Acc", "class-F1"
    );
    for (key, oa, of, ca, cf) in rows {
        let _ = writeln!(out, "{key:<width$}{oa:<11.3}{of:<11.3}{ca:<11.3}{cf:<11.3}");
    }
    out
}

fn render_points(points: &[ablations::AblationPoint]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(
            out,
            "{:<14} acc {:.3} ± {:.3}   f1 {:.3}",
            p.label, p.score.accuracy.mean, p.score.accuracy.std, p.score.f1.mean
        );
    }
    out
}

/// Writes the `--json` result file through `write`, if one was asked for.
fn write_json(
    cli: &Cli,
    recorder: &Recorder,
    write: impl FnOnce(&Path) -> rll_eval::Result<()>,
) -> Result<(), Box<dyn Error>> {
    if let Some(path) = &cli.json {
        write(Path::new(path)).map_err(|e| format!("failed to write {path}: {e}"))?;
        recorder.note(format!("wrote {path}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        Cli::parse(line.split_whitespace().map(str::to_string))
    }

    /// Every `repro` command line in README.md, EXPERIMENTS.md, DESIGN.md,
    /// the verify notes and scripts/check.sh, with what it must parse to.
    #[test]
    fn documented_command_lines_parse() {
        use Experiment::*;
        use ExperimentScale::{Full, Quick};
        let cases: [(&str, Experiment, ExperimentScale, u64, Option<&str>); 16] = [
            ("table1", Table1, Quick, 42, None),
            ("table2", Table2, Quick, 42, None),
            ("table3", Table3, Quick, 42, None),
            ("table2 --seed 7 --full --quick", Table2, Quick, 7, None),
            ("table1 --full", Table1, Full, 42, None),
            ("table2 --full", Table2, Full, 42, None),
            ("table3 --full", Table3, Full, 42, None),
            ("ablations --full", Ablations, Full, 42, None),
            ("learning-curve --full", LearningCurve, Full, 42, None),
            ("table1 --quick", Table1, Quick, 42, None),
            (
                "table1 --full --seed 42 --json results/table1.json",
                Table1,
                Full,
                42,
                Some("results/table1.json"),
            ),
            (
                "table2 --full --seed 42 --json results/table2.json",
                Table2,
                Full,
                42,
                Some("results/table2.json"),
            ),
            (
                "table3 --full --seed 42 --json results/table3.json",
                Table3,
                Full,
                42,
                Some("results/table3.json"),
            ),
            ("ablations --full --seed 42", Ablations, Full, 42, None),
            (
                "learning-curve --full --seed 42",
                LearningCurve,
                Full,
                42,
                None,
            ),
            (
                "table1 --quick --seed 42 --json /tmp/smoke/table1.json",
                Table1,
                Quick,
                42,
                Some("/tmp/smoke/table1.json"),
            ),
        ];
        for (line, experiment, scale, seed, json) in cases {
            let cli = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let want = Cli {
                experiment,
                scale,
                seed,
                json: json.map(str::to_string),
            };
            assert_eq!(cli, want, "{line}");
        }
    }

    #[test]
    fn run_start_names_are_stable() {
        let names: Vec<_> = ["table1", "table2", "table3", "ablations", "learning-curve"]
            .iter()
            .map(|e| parse(e).unwrap().experiment.name())
            .collect();
        assert_eq!(
            names,
            ["table1", "table2", "table3", "ablations", "learning_curve"]
        );
    }

    #[test]
    fn usage_errors_are_rejected() {
        for line in [
            "",
            "bogus",
            "--full",
            "learning_curve",
            "table1 --wat",
            "table1 --seed",
            "table1 --seed abc",
            "table1 --json",
            "ablations --json out.json",
            "table1 table2",
        ] {
            assert!(parse(line).is_err(), "{line:?} should be a usage error");
        }
    }

    #[test]
    fn reference_matches_the_paper_columns() {
        let ks = paper::TABLE2.map(|(k, ..)| k);
        assert_eq!(ks, [2, 3, 4, 5]);
        assert_eq!(paper::TABLE3.map(|(d, ..)| d), [1, 3, 5]);
        let text = reference("k", 8, &paper::TABLE2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "k       oral-Acc   oral-F1    class-Acc  class-F1   "
        );
        assert_eq!(
            lines[2],
            "3       0.888      0.915      0.879      0.920      "
        );
    }
}
