//! The linter applied to its own workspace, and the `--json` output parsed
//! back through the vendored `serde_json` to prove the hand-written emitter
//! produces real JSON.

use rll_lint::{json_report, lint_source, lint_workspace, load_config, Config};
use serde_json::JsonValue;
use std::path::Path;

/// `crates/lint` → the workspace root.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let config = load_config(root).expect("lint.toml parses");
    let report = lint_workspace(root, &config).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; found:\n{}",
        rll_lint::human_report(&report)
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — scoping bug?",
        report.files_scanned
    );
    // Every suppression in the tree must carry a non-empty justification
    // (the meta-rule enforces this at lint time; re-assert it on the output).
    for s in &report.suppressed {
        assert!(
            !s.justification.trim().is_empty(),
            "unjustified suppression at {}:{}",
            s.file,
            s.line
        );
    }
}

#[test]
fn json_report_round_trips_through_serde_json() {
    // Build a report with both violations and suppressions, plus characters
    // that need escaping (quotes, backslashes) in snippets.
    let source = "pub fn f(x: Option<u8>) -> u8 {\n\
                  \x20   println!(\"a \\\"quoted\\\" value\");\n\
                  \x20   // lint: allow(no-panic-lib) — justified \"with quotes\"\n\
                  \x20   x.unwrap()\n\
                  }\n";
    let report = lint_source("crates/demo/src/lib.rs", source, &Config::default_scoping());
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);

    let json = json_report(&report);
    let value: JsonValue = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("emitted JSON must parse: {e:?}\n{json}"));

    assert_eq!(
        value.field("version").and_then(JsonValue::as_f64),
        Some(f64::from(rll_lint::report::JSON_VERSION))
    );
    assert_eq!(
        value.field("files_scanned").and_then(JsonValue::as_f64),
        Some(1.0)
    );

    let rules = value.field("rules").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        rules.len(),
        rll_lint::RULES.len() + rll_lint::STRUCTURAL_RULES.len()
    );
    assert!(rules.iter().any(|r| r.as_str() == Some("no-float-eq")));
    assert!(rules.iter().any(|r| r.as_str() == Some("lock-order-cycle")));

    let violations = value
        .field("violations")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(
        v.field("file").and_then(JsonValue::as_str),
        Some("crates/demo/src/lib.rs")
    );
    assert_eq!(
        v.field("rule").and_then(JsonValue::as_str),
        Some("no-raw-stdout")
    );
    assert_eq!(v.field("line").and_then(JsonValue::as_f64), Some(2.0));

    let suppressed = value
        .field("suppressed")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(
        suppressed[0]
            .field("justification")
            .and_then(JsonValue::as_str),
        Some("justified \"with quotes\""),
        "escaped quotes survive the round trip"
    );
}

#[test]
fn empty_report_is_valid_json_too() {
    let report = lint_source(
        "crates/demo/src/lib.rs",
        "pub fn ok() {}\n",
        &Config::default_scoping(),
    );
    assert!(report.is_clean());
    let json = json_report(&report);
    let value: JsonValue = serde_json::from_str(&json).expect("clean report parses");
    assert_eq!(
        value
            .field("violations")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(0)
    );
}

#[test]
fn workspace_lock_graph_is_acyclic_and_matches_committed_artifact() {
    let root = workspace_root();
    let config = load_config(root).expect("lint.toml parses");
    let report = lint_workspace(root, &config).expect("workspace scan succeeds");
    let graph = &report.lock_graph;
    assert!(
        graph.cycles.is_empty(),
        "the real workspace must have zero lock-order cycles: {:?}",
        graph.cycles
    );
    assert!(
        graph.locks.len() >= 5,
        "the serve rank ladder (workers/model/queue/cache) and the label \
         locks should all be declared; found {:?}",
        graph.locks
    );
    // Ranks are strictly increasing in the sorted declaration list — the
    // ladder has no duplicate ranks.
    for pair in graph.locks.windows(2) {
        assert!(
            pair[0].rank < pair[1].rank,
            "duplicate or unsorted ranks: {:?}",
            graph.locks
        );
    }
    // The committed artifact must match what the analysis produces now, so
    // any ordering change shows up as a reviewable diff (check.sh enforces
    // the same thing; this keeps `cargo test` self-sufficient).
    let committed = std::fs::read_to_string(root.join("results/lock_graph.json"))
        .expect("results/lock_graph.json is committed");
    assert_eq!(
        rll_lint::lockgraph::to_json(graph),
        committed,
        "results/lock_graph.json is stale — regenerate with \
         `rll-lint --lock-graph results/lock_graph.json`"
    );
}
