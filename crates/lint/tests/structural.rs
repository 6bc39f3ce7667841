//! Fixture tests for the v2 structural rules — `lock-order-cycle`,
//! `no-lock-held-io`, `no-iter-order-sink` — and the `unused-suppression`
//! meta-rule, all driven through the public [`rll_lint::lint_files`] entry
//! point so pragma handling and scoping run exactly as in production.

use rll_lint::{lint_files, lint_source, Config, LintReport};

fn lint_two(a: &str, b: &str) -> LintReport {
    lint_files(
        &[
            ("crates/demo/src/alpha.rs".to_string(), a.to_string()),
            ("crates/demo/src/beta.rs".to_string(), b.to_string()),
        ],
        &Config::default_scoping(),
    )
}

fn lint_one(source: &str) -> LintReport {
    lint_source("crates/demo/src/lib.rs", source, &Config::default_scoping())
}

fn rules_hit(report: &LintReport) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule.as_str()).collect()
}

// ── lock-order-cycle ────────────────────────────────────────────────────────

/// The deliberately cyclic fixture from the acceptance checklist: two
/// functions in *different files* acquiring the same pair of locks in
/// opposite orders. The cycle must be detected with a concrete witness path
/// naming both edges.
#[test]
fn cyclic_acquisition_across_files_is_flagged_with_witness() {
    let alpha = r#"
pub struct Shared {
    pub a: OrderedMutex<u32>,
    pub b: OrderedMutex<u32>,
}

pub fn make() -> Shared {
    Shared {
        a: OrderedMutex::new("a", 10, 0),
        b: OrderedMutex::new("b", 20, 0),
    }
}

pub fn forward(s: &Shared) {
    let ga = s.a.lock();
    let gb = s.b.lock();
}
"#;
    let beta = r#"
use crate::alpha::Shared;

pub fn backward(s: &Shared) {
    let gb = s.b.lock();
    let ga = s.a.lock();
}
"#;
    let report = lint_two(alpha, beta);
    assert_eq!(report.lock_graph.cycles.len(), 1, "{:?}", report.lock_graph);
    assert_eq!(report.lock_graph.cycles[0], vec!["a", "b", "a"]);
    let cycle: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "lock-order-cycle" && v.snippet.starts_with("cycle:"))
        .collect();
    assert_eq!(cycle.len(), 1, "{:?}", report.violations);
    // The witness path names both edges with their files.
    assert!(cycle[0].hint.contains("alpha.rs"), "{}", cycle[0].hint);
    assert!(cycle[0].hint.contains("beta.rs"), "{}", cycle[0].hint);
}

#[test]
fn rank_ordered_nesting_is_clean() {
    let report = lint_one(
        r#"
pub fn make() {
    let lo = OrderedMutex::new("lo", 10, 0);
    let hi = OrderedMutex::new("hi", 20, 0);
}
pub fn nest(s: &Shared) {
    let g1 = s.lo.lock();
    let g2 = s.hi.lock();
}
"#,
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.lock_graph.edges.len(), 1);
    assert!(report.lock_graph.cycles.is_empty());
}

#[test]
fn rank_inverted_edge_is_flagged_even_without_a_cycle() {
    let report = lint_one(
        r#"
pub fn make() {
    let lo = OrderedMutex::new("lo", 10, 0);
    let hi = OrderedMutex::new("hi", 20, 0);
}
pub fn inverted(s: &Shared) {
    let g1 = s.hi.lock();
    let g2 = s.lo.lock();
}
"#,
    );
    assert_eq!(rules_hit(&report), ["lock-order-cycle"]);
    assert!(report.lock_graph.cycles.is_empty());
}

#[test]
fn structural_violation_can_be_suppressed_with_justified_pragma() {
    let report = lint_one(
        r#"
pub fn make() {
    let lo = OrderedMutex::new("lo", 10, 0);
    let hi = OrderedMutex::new("hi", 20, 0);
}
pub fn inverted(s: &Shared) {
    let g1 = s.hi.lock();
    // lint: allow(lock-order-cycle) — transition period, re-ranked next PR
    let g2 = s.lo.lock();
}
"#,
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "lock-order-cycle");
}

/// rustfmt wraps a long constructor call so the name and rank sit on the
/// lines after `OrderedMutex::new(`. The lock must still join the graph and
/// its rank checks.
#[test]
fn wrapped_lock_constructor_keeps_its_rank() {
    let report = lint_one(
        r#"
pub fn make(capacity: usize) -> Shared {
    Shared {
        model: OrderedRwLock::new("model", 20, 0),
        cache: OrderedMutex::new(
            "cache",
            40,
            Cache {
                entries: Vec::with_capacity(capacity),
            },
        ),
    }
}
pub fn inverted(s: &Shared) {
    let g1 = s.cache.lock();
    let g2 = s.model.read();
}
"#,
    );
    let locks: Vec<(&str, u32)> = report
        .lock_graph
        .locks
        .iter()
        .map(|d| (d.name.as_str(), d.rank))
        .collect();
    assert_eq!(locks, [("model", 20), ("cache", 40)]);
    assert_eq!(rules_hit(&report), ["lock-order-cycle"]);
    assert!(report.violations[0].snippet.contains("cache(rank 40)"));
}

/// A constructor whose name or rank is not a literal cannot be placed in
/// the graph, so it is a violation rather than a silently missing lock.
#[test]
fn lock_constructor_without_literals_is_flagged() {
    let report = lint_one(
        r#"
pub fn make(name: &'static str, rank: u32) -> OrderedMutex<u32> {
    OrderedMutex::new(name, rank, 0)
}
"#,
    );
    assert!(report.lock_graph.locks.is_empty());
    assert_eq!(rules_hit(&report), ["lock-order-cycle"]);
    assert_eq!(report.violations[0].line, 3);
}

// ── no-lock-held-io ─────────────────────────────────────────────────────────

#[test]
fn file_io_under_a_guard_is_flagged_and_hoisted_io_is_clean() {
    let bad = lint_one(
        r#"
pub fn make() {
    let model = OrderedRwLock::new("model", 20, 0);
}
pub fn reload_bad(s: &Shared, path: &str) {
    let mut slot = s.model.write();
    let bytes = fs::read(path);
}
"#,
    );
    assert_eq!(rules_hit(&bad), ["no-lock-held-io"]);

    let good = lint_one(
        r#"
pub fn make() {
    let model = OrderedRwLock::new("model", 20, 0);
}
pub fn reload_good(s: &Shared, path: &str) {
    let bytes = fs::read(path);
    let mut slot = s.model.write();
}
"#,
    );
    assert!(good.is_clean(), "{:?}", good.violations);
}

#[test]
fn io_reached_through_a_free_call_under_a_guard_is_flagged() {
    let report = lint_one(
        r#"
pub fn make() {
    let cache = OrderedMutex::new("cache", 40, 0);
}
fn persist(path: &str) {
    atomic_write(path, b"bytes");
}
pub fn flush(s: &Shared, path: &str) {
    let g = s.cache.lock();
    persist(path);
}
"#,
    );
    assert_eq!(rules_hit(&report), ["no-lock-held-io"]);
    let v = &report.violations[0];
    assert!(v.hint.contains("persist"), "{}", v.hint);
}

#[test]
fn io_after_an_explicit_drop_is_clean() {
    let report = lint_one(
        r#"
pub fn make() {
    let cache = OrderedMutex::new("cache", 40, 0);
}
pub fn flush(s: &Shared, path: &str) {
    let g = s.cache.lock();
    drop(g);
    let bytes = fs::read(path);
}
"#,
    );
    assert!(report.is_clean(), "{:?}", report.violations);
}

// ── no-iter-order-sink ──────────────────────────────────────────────────────

#[test]
fn hash_iteration_reaching_a_checkpoint_sink_is_flagged() {
    let report = lint_one(
        r#"
pub fn dump(path: &str) {
    let mut index = HashMap::new();
    let entries = index.iter().collect::<Vec<_>>();
    atomic_write(path, entries);
}
"#,
    );
    assert_eq!(rules_hit(&report), ["no-iter-order-sink"]);
}

#[test]
fn btree_iteration_and_sorted_flows_are_clean() {
    let report = lint_one(
        r#"
pub fn dump(path: &str) {
    let mut index = HashMap::new();
    let entries: BTreeMap<_, _> = index.iter().collect();
    atomic_write(path, entries);
}
"#,
    );
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn iter_order_sink_suppression_works() {
    let report = lint_one(
        r#"
pub fn dump(path: &str) {
    let mut index = HashMap::new();
    // lint: allow(no-iter-order-sink) — single-entry map by construction
    let entries = serde_json::to_string(&index.iter().collect::<Vec<_>>());
}
"#,
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

// ── unused-suppression ──────────────────────────────────────────────────────

#[test]
fn dead_pragma_is_flagged_as_unused_suppression() {
    let report = lint_one(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(no-panic-lib) — stale: the unwrap was removed\n\
         \x20   x.unwrap_or(0)\n\
         }\n",
    );
    assert_eq!(rules_hit(&report), ["unused-suppression"]);
    assert_eq!(report.violations[0].line, 2);
}

#[test]
fn used_pragma_is_not_unused() {
    let report = lint_one(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(no-panic-lib) — demo invariant\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn unused_suppression_cannot_itself_be_allowed() {
    // `unused-suppression` is not a known rule on purpose: the fix for a dead
    // pragma is deleting it.
    let report = lint_one(
        "pub fn f() {\n\
         \x20   // lint: allow(unused-suppression) — trying to hide a dead pragma\n\
         \x20   let x = 1;\n\
         }\n",
    );
    assert_eq!(rules_hit(&report), ["unknown-lint-rule"]);
}

// ── lock graph output ───────────────────────────────────────────────────────

#[test]
fn lock_graph_json_lists_locks_in_rank_order() {
    let report = lint_one(
        r#"
pub fn make() {
    let hi = OrderedMutex::new("zz_hi", 20, 0);
    let lo = OrderedMutex::new("aa_lo", 30, 0);
    let first = OrderedRwLock::new("first", 10, 0);
}
"#,
    );
    let names: Vec<&str> = report
        .lock_graph
        .locks
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    assert_eq!(names, ["first", "zz_hi", "aa_lo"]);
    let json = rll_lint::lockgraph::to_json(&report.lock_graph);
    assert!(json.contains("\"schema\": \"lock_graph/v2\""));
}
