//! `rll-lint` CLI.
//!
//! ```text
//! rll-lint [--root DIR] [--json] [--out FILE] [--list-rules]
//!          [--lock-graph FILE] [--baseline FILE] [--write-baseline FILE]
//! ```
//!
//! Exit status: 0 when the workspace is clean, 1 when violations were found
//! (or the suppression ratchet regressed), 2 on usage or I/O errors.
//! `--out FILE` writes the JSON report to a file (for `results/lint.json`
//! trend tracking) while keeping the human report on stdout; `--json` swaps
//! stdout to the JSON report instead. `--lock-graph FILE` writes the
//! workspace lock graph (`lock_graph/v2`) for diffing against the committed
//! `results/lock_graph.json`. `--baseline FILE` enforces the suppression
//! ratchet against a committed `lint_baseline/v1` file;
//! `--write-baseline FILE` regenerates that file deliberately.

use rll_lint::{
    baseline_json, check_baseline, human_report, json_report, lint_workspace, load_config,
    lockgraph, RULES, STRUCTURAL_RULES,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    out: Option<PathBuf>,
    list_rules: bool,
    lock_graph: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        out: None,
        list_rules: false,
        lock_graph: None,
        baseline: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = value("--root", &mut it)?,
            "--out" => args.out = Some(value("--out", &mut it)?),
            "--lock-graph" => args.lock_graph = Some(value("--lock-graph", &mut it)?),
            "--baseline" => args.baseline = Some(value("--baseline", &mut it)?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline", &mut it)?),
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: rll-lint [--root DIR] [--json] [--out FILE] [--list-rules] \
                            [--lock-graph FILE] [--baseline FILE] [--write-baseline FILE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Writes `content` to `path`, creating parent directories as needed.
fn write_file(path: &PathBuf, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut stdout = std::io::stdout().lock();
    if args.list_rules {
        for rule in RULES.iter().chain(STRUCTURAL_RULES) {
            writeln!(stdout, "{:<18} {}", rule.id, rule.summary)
                .map_err(|e| format!("stdout: {e}"))?;
        }
        return Ok(true);
    }
    let config = load_config(&args.root)?;
    let report = lint_workspace(&args.root, &config)
        .map_err(|e| format!("scanning {}: {e}", args.root.display()))?;
    if let Some(out_path) = &args.out {
        write_file(out_path, &json_report(&report))?;
    }
    if let Some(graph_path) = &args.lock_graph {
        write_file(graph_path, &lockgraph::to_json(&report.lock_graph))?;
    }
    if let Some(baseline_path) = &args.write_baseline {
        write_file(baseline_path, &baseline_json(&report))?;
    }
    let mut ratchet_ok = true;
    if let Some(baseline_path) = &args.baseline {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        if let Err(message) = check_baseline(&report, &text) {
            writeln!(stdout, "rll-lint: {message}").map_err(|e| format!("stdout: {e}"))?;
            ratchet_ok = false;
        }
    }
    let rendered = if args.json {
        json_report(&report)
    } else {
        human_report(&report)
    };
    write!(stdout, "{rendered}").map_err(|e| format!("stdout: {e}"))?;
    Ok(report.is_clean() && ratchet_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            let mut stderr = std::io::stderr().lock();
            let _ = writeln!(stderr, "rll-lint: {message}");
            ExitCode::from(2)
        }
    }
}
