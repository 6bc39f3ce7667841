//! Results: one [`Run`] per workload (or ledger), the host header, and the
//! JSON the benchmark prints and writes.

use crate::spec;
use serde::Value;
use std::collections::BTreeMap;

/// Outcome of one workload or of the traced ledger.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
    /// One line per failed check or failed operation class.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable remarks (refused percentiles, ladder steps, ...).
    pub notes: Vec<String>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a metric; panics on a name missing from [`spec`], which is a
    /// bug in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(spec::find(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a metric that may be unavailable (a refused percentile); the
    /// reason becomes a note.
    pub fn set_or_note<E: std::fmt::Display>(&mut self, name: &str, value: Result<f64, E>) {
        match value {
            Ok(v) => self.set(name, v),
            Err(e) => self.notes.push(format!("{name}: {e}")),
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// The metric map as `{name: {value, unit}}`.
    pub fn metrics_value(&self, prefix: &str) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|(name, &value)| {
                    let unit = spec::find(name).map_or("", |m| m.unit);
                    (
                        format!("{prefix}{name}"),
                        Value::Object(vec![
                            ("value".into(), Value::F64(value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The full record for the `--out` file.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), self.metrics_value("")),
            (
                "problems".into(),
                Value::Array(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "notes".into(),
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` over
/// one or more runs; metric names get `prefix(run)` prepended.
pub fn summary_line(runs: &[(String, &Run)]) -> Value {
    let multi = runs.len() > 1;
    let mut metrics = Vec::new();
    for (name, run) in runs {
        let prefix = if multi {
            format!("{name}.")
        } else {
            String::new()
        };
        if let Value::Object(fields) = run.metrics_value(&prefix) {
            metrics.extend(fields);
        }
    }
    Value::Object(vec![
        (
            "correct".into(),
            Value::Bool(runs.iter().all(|(_, r)| r.correct())),
        ),
        (
            "attempted".into(),
            Value::U64(runs.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1)),
        ),
        (
            "failed".into(),
            Value::U64(runs.iter().map(|(_, r)| r.failed).sum()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// Which build, host and knobs produced a result.
pub fn host_header() -> Value {
    let env_or = |key: &str, default: &str| std::env::var(key).unwrap_or_else(|_| default.into());
    #[cfg(target_arch = "x86_64")]
    let avx = std::arch::is_x86_feature_detected!("avx");
    #[cfg(not(target_arch = "x86_64"))]
    let avx = false;
    let cpus = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::Object(vec![
        (
            "nproc".into(),
            Value::U64(rll_par::available_threads() as u64),
        ),
        ("cpus_allowed".into(), Value::Str(cpus)),
        ("avx".into(), Value::Bool(avx)),
        (
            "rll_kernel".into(),
            Value::Str(env_or("RLL_KERNEL", "unset")),
        ),
        (
            "trainer_threads".into(),
            Value::U64(rll_par::configured_threads() as u64),
        ),
        ("git_rev".into(), Value::Str(git_rev())),
        (
            "build_profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "kernel_release".into(),
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| "unknown".into()),
            ),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a repository (the benchmark also runs from plain source trees).
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// CPU seconds (user + system, all threads) a process has used, from
/// `/proc/<pid>/stat` in clock ticks of 1/100 s (Linux's `USER_HZ`).
pub fn cpu_secs(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("malformed /proc/{pid}/stat")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_result_keys() {
        let mut run = Run::default();
        run.set("setup_s", 0.5);
        run.count(10, 0, "requests");
        let line = serde_json::to_string(&summary_line(&[("train-oral".into(), &run)])).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        run.check(false, || "probe mismatch".into());
        assert!(!run.correct());
    }

    #[test]
    fn own_peak_rss_and_cpu_are_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let before = cpu_secs("self").unwrap();
        let clock = rll_obs::Stopwatch::start();
        let mut x = 0u64;
        while clock.elapsed_secs() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_secs("self").unwrap() >= before + 0.02);
    }
}
