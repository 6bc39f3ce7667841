//! What the benchmark measures: workloads and metric names, units and
//! directions. `BENCHMARK.json` at the repository root must agree with these
//! tables (a unit test holds them together); it adds the regression bounds.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["train-oral", "serve-cold", "serve-hot", "label-live"];

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics. Every workload reports every one of them; what each
/// measures on each workload is tabulated in the README (train-oral's times
/// are scaled to the reference host speed, see [`crate::probe`]). Tail
/// latencies, capacity, reload lags and CPU per request live in the ledger
/// or the notes: on the reference host they moved by a fifth to a half
/// between runs, too much to bound a regression.
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s"),
    lower("p50_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced ledger.
pub const PER_LAYER: &[MetricSpec] = &[
    // rll-tensor
    lower("tensor.matmul_nn_ns", "ns"),
    lower("tensor.matmul_tn_ns", "ns"),
    lower("tensor.matmul_nt_ns", "ns"),
    lower("tensor.select_rows_ns", "ns"),
    lower("tensor.matmul_bias_b16_ns", "ns"),
    // rll-nn
    lower("nn.tanh_ns", "ns"),
    lower("nn.mlp_forward_cached_ns", "ns"),
    lower("nn.mlp_backward_ns", "ns"),
    lower("nn.mlp_clone_ns", "ns"),
    lower("nn.add_grads_ns", "ns"),
    lower("nn.adam_step_us", "us"),
    // rll-core
    lower("core.group_loss_ns", "ns"),
    lower("core.sample_batch_us", "us"),
    lower("core.confidences_ms", "ms"),
    lower("core.profile.sample_ms", "ms"),
    lower("core.profile.fanout_ms", "ms"),
    lower("core.profile.forward_ms", "ms"),
    lower("core.profile.backward_ms", "ms"),
    lower("core.profile.reduce_ms", "ms"),
    lower("core.profile.adam_ms", "ms"),
    lower("core.epoch_ms", "ms"),
    lower("core.ledger_epoch_ms", "ms"),
    lower("core.ledger_residual_pct", "%"),
    // rll-par
    higher("par.threads", "count"),
    higher("par.fanout_speedup", "ratio"),
    // rll-serve
    lower("serve.http_parse_ns", "ns"),
    lower("serve.json_decode_ns", "ns"),
    lower("serve.json_encode_ns", "ns"),
    lower("serve.http_write_ns", "ns"),
    lower("serve.lru_get_hit_ns", "ns"),
    lower("serve.lru_insert_ns", "ns"),
    lower("serve.embed_matrix_b1_us", "us"),
    lower("serve.embed_matrix_b4_us", "us"),
    lower("serve.embed_matrix_b16_us", "us"),
    lower("serve.engine_roundtrip_us", "us"),
    lower("serve.checkpoint_load_ms", "ms"),
    lower("serve.checkpoint_save_ms", "ms"),
    higher("serve.hot_capacity_rps", "req/s"),
    higher("serve.cold_capacity_rps", "req/s"),
    lower("serve.hot_p99_ms", "ms"),
    lower("serve.cold_p99_ms", "ms"),
    lower("serve.reload_ms", "ms"),
    higher("serve.cache_hit_rate", "ratio"),
    higher("serve.batch_mean_rows", "rows"),
    lower("serve.queue_wait_share", "ratio"),
    lower("serve.handler_embed_mean_us", "us"),
    lower("serve.client_p50_us", "us"),
    lower("serve.trace.parse_us", "us"),
    lower("serve.trace.queue_wait_us", "us"),
    lower("serve.trace.batch_assembly_us", "us"),
    lower("serve.trace.forward_us", "us"),
    lower("serve.trace.cache_hit_us", "us"),
    lower("serve.trace.serialize_us", "us"),
    lower("serve.ledger_request_us", "us"),
    lower("serve.ledger_handler_residual_pct", "%"),
    lower("serve.ledger_client_residual_pct", "%"),
    // rll-label
    lower("label.wal_append_us", "us"),
    lower("label.segment_open_us", "us"),
    lower("label.fsync_us", "us"),
    lower("label.store_ingest_us", "us"),
    lower("label.tracker_apply_ns", "ns"),
    lower("label.vote_decode_ns", "ns"),
    lower("label.receipt_encode_ns", "ns"),
    lower("label.seal_ms", "ms"),
    lower("label.replay_us_per_kvote", "us"),
    lower("label.compact_ms", "ms"),
    lower("label.recompact_ms", "ms"),
    lower("label.snapshot_read_ms", "ms"),
    lower("label.fold_ms", "ms"),
    lower("label.retrain_fit_ms", "ms"),
    higher("label.rounds", "count"),
    higher("label.compactions", "count"),
    higher("label.votes_deduped", "count"),
    lower("label.wal_bytes_end", "bytes"),
    lower("label.read_p50_ms", "ms"),
    lower("label.read_p99_ms", "ms"),
    lower("label.ack_p50_ms", "ms"),
    lower("label.ack_p99_ms", "ms"),
    lower("label.vote_to_reload_s", "s"),
    lower("label.ledger_ack_us", "us"),
    lower("label.ledger_residual_pct", "%"),
    // rll-obs and the load generator
    lower("obs.trace_overhead_pct", "%"),
    lower("loadgen.lateness_p99_ms", "ms"),
    // rll-data (set-up only)
    lower("data.preset_oral_ms", "ms"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A metric name is 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, as far as this program reads it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkFile {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<BoundedEntry>,
    pub per_layer: Vec<LayerEntry>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoundedEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

pub fn load_benchmark_file(path: &str) -> Result<BenchmarkFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--list`: every metric with unit, direction, bound and workloads. A
/// metric whose unit or direction disagrees with this program's tables is
/// marked.
pub fn list(file: &BenchmarkFile) -> Vec<String> {
    let workloads = file
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let line = |name: &str, unit: &str, better: &str, bound: &str, scope: &str| {
        let agrees = find(name).is_some_and(|m| m.unit == unit && m.better.as_str() == better);
        format!(
            "{name:<36} {unit:<6} {better:<7} {bound:<6} {scope}{}",
            if agrees {
                ""
            } else {
                "  [not measured as listed]"
            }
        )
    };
    let mut lines = vec![format!(
        "{:<36} {:<6} {:<7} {:<6} workloads",
        "metric", "unit", "better", "bound"
    )];
    for m in &file.end_to_end {
        lines.push(line(
            &m.name,
            &m.unit,
            &m.better,
            &m.bound.to_string(),
            &workloads,
        ));
    }
    for m in &file.per_layer {
        lines.push(line(&m.name, &m.unit, &m.better, "-", "traced ledger"));
    }
    lines
}

/// One metric value in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

/// The part of a `--out` result file that `--validate` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub workloads: BTreeMap<String, ResultMetrics>,
    pub ledger: Option<ResultMetrics>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultMetrics {
    pub metrics: BTreeMap<String, Value>,
}

fn check_metrics(
    scope: &str,
    got: &BTreeMap<String, Value>,
    expected: impl Iterator<Item = (String, String)>,
    problems: &mut Vec<String>,
) {
    for name in got.keys().filter(|n| !valid_name(n)) {
        problems.push(format!("{scope}: invalid metric name {name:?}"));
    }
    for (name, unit) in expected {
        match got.get(&name) {
            None => problems.push(format!("{scope}: missing {name}")),
            Some(v) if v.unit != unit => problems.push(format!(
                "{scope}: {name} has unit {:?}, expected {unit:?}",
                v.unit
            )),
            Some(v) if !v.value.is_finite() => {
                problems.push(format!("{scope}: {name} is not finite"))
            }
            Some(_) => {}
        }
    }
}

/// `--validate`: every per-layer metric when the result holds a ledger,
/// otherwise every end-to-end metric for every workload, each with its unit.
pub fn validate(file: &BenchmarkFile, result: &ResultFile) -> Vec<String> {
    let mut problems = Vec::new();
    // A traced run writes the ledger in place of the workloads.
    if let Some(ledger) = &result.ledger {
        check_metrics(
            "ledger",
            &ledger.metrics,
            file.per_layer
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone())),
            &mut problems,
        );
        return problems;
    }
    for workload in &file.workloads {
        match result.workloads.get(&workload.name) {
            None => problems.push(format!("missing workload {}", workload.name)),
            Some(got) => check_metrics(
                &workload.name,
                &got.metrics,
                file.end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.clone())),
                &mut problems,
            ),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_file() -> BenchmarkFile {
        load_benchmark_file(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json")
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("serve p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let file = benchmark_file();
        let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(file.run_seconds as f64, DEFAULT_SECONDS);
        let pairs = |specs: &[MetricSpec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        let e2e: Vec<_> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
            .collect();
        assert_eq!(e2e, pairs(END_TO_END));
        let layers: Vec<_> = file
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
            .collect();
        assert_eq!(layers, pairs(PER_LAYER));
        for m in &file.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = file
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(file.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn validate_reports_missing_and_mislabelled_metrics() {
        let file = benchmark_file();
        let mut metrics = BTreeMap::new();
        for m in END_TO_END {
            metrics.insert(
                m.name.to_string(),
                Value {
                    value: 1.0,
                    unit: m.unit.to_string(),
                },
            );
        }
        let mut workloads = BTreeMap::new();
        for w in WORKLOADS {
            workloads.insert(
                w.to_string(),
                ResultMetrics {
                    metrics: metrics.clone(),
                },
            );
        }
        let mut result = ResultFile {
            workloads,
            ledger: None,
        };
        assert!(validate(&file, &result).is_empty());
        result
            .workloads
            .get_mut("serve-hot")
            .unwrap()
            .metrics
            .get_mut("p50_ms")
            .unwrap()
            .unit = "s".into();
        result.workloads.remove("label-live");
        let problems = validate(&file, &result);
        assert_eq!(problems.len(), 2, "{problems:?}");

        // A traced result is judged on its ledger alone.
        let mut ledger: BTreeMap<String, Value> = PER_LAYER
            .iter()
            .map(|m| {
                let value = Value {
                    value: 1.0,
                    unit: m.unit.to_string(),
                };
                (m.name.to_string(), value)
            })
            .collect();
        let traced = |metrics: &BTreeMap<String, Value>| ResultFile {
            workloads: BTreeMap::new(),
            ledger: Some(ResultMetrics {
                metrics: metrics.clone(),
            }),
        };
        assert!(validate(&file, &traced(&ledger)).is_empty());
        ledger.remove("core.epoch_ms");
        assert_eq!(validate(&file, &traced(&ledger)).len(), 1);
    }
}
