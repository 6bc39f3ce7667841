#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rll-lint (workspace invariants, suppression ratchet, lock graph) =="
mkdir -p results
LINT_TMP=$(mktemp -d)
cargo run -q -p rll-lint --release -- --out results/lint.json \
    --baseline results/lint_baseline.json \
    --lock-graph "$LINT_TMP/lock_graph.json"
# The committed lock graph is part of the review surface: any change to lock
# declarations, ranks, or nesting edges must show up as a diff. (A cycle is
# already a lint violation, so the run above fails outright on one.)
diff -u results/lock_graph.json "$LINT_TMP/lock_graph.json" || {
    echo "lock graph drifted from results/lock_graph.json — regenerate with"
    echo "  cargo run -q -p rll-lint --release -- --lock-graph results/lock_graph.json"
    rm -rf "$LINT_TMP"
    exit 1
}
rm -rf "$LINT_TMP"

echo "== cargo build (all targets, incl. examples and bins) =="
cargo build --workspace --all-targets

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo test --release (tensor, nn, core, label, serve, serde_json, crowd) =="
# The benchmark, `serve` and the checkpoint gates below all run release code,
# while the golden-hash tests above run in debug. Run the numeric crates'
# tests in release too, so an optimisation-only difference cannot hide, and
# the label and serve crates' tests, which cover the WAL record decoder and
# the serving stack the gates below drive. The JSON shim parses every
# request, header and snapshot those gates touch, and the tracker's
# confidences come from rll-crowd's estimator, so their tests run in release
# as well. RLL_LOCK_WITNESS=1 arms the lock witness in release builds, as for
# every release binary below.
RLL_LOCK_WITNESS=1 cargo test --release -q -p rll-tensor -p rll-nn -p rll-core \
    -p rll-label -p rll-serve -p serde_json -p rll-crowd

echo "== benchmark package (build + test against the workspace crates) =="
# benchmark/ is a standalone package with path deps on crates/*, so nothing
# above compiles it: deleting an API it imports would otherwise surface only
# when the benchmark runs. --locked also proves benchmark/Cargo.lock is
# untouched by dependency edits inside its graph.
CARGO_TARGET_DIR=.bench_build cargo test --release --locked --offline \
    --manifest-path benchmark/Cargo.toml

echo "== traced ledger (every per-layer metric present and finite) =="
# The traced run exits 0 even when a layer is missing: an absent trace phase
# becomes a note and an absent profile frame reads 0, so a ratio built on it
# prints as null. --validate fails unless the result line carries every
# per-layer metric BENCHMARK.json names, finite and in its unit.
LEDGER_TMP=$(mktemp -d)
CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh --trace 1 --out "$LEDGER_TMP/ledger.json"
.bench_build/release/rll-benchmark --validate "$LEDGER_TMP/ledger.json"
rm -rf "$LEDGER_TMP"

echo "== serve smoke test =="
# One real round trip through the serving stack: train a tiny checkpoint,
# serve it on an ephemeral port, fire a seeded load burst, shut down. Gates
# on loadgen's exit status (non-zero when no request succeeds).
#
# RLL_LOCK_WITNESS=1 arms the runtime lock-order witness in these release
# binaries (it defaults to debug builds only): every lock acquisition on the
# serve/train paths below asserts the declared rank ladder, so an ordering
# inversion aborts the smoke/determinism/crash gates instead of deadlocking
# in production.
export RLL_LOCK_WITNESS=1
cargo build -q --release -p rll-serve
SMOKE_DIR=$(mktemp -d)
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
./target/release/serve train-demo --out "$SMOKE_DIR/smoke.rllckpt" \
    --n 80 --epochs 5 --seed 42 >/dev/null
./target/release/serve --checkpoint "$SMOKE_DIR/smoke.rllckpt" \
    --addr 127.0.0.1:0 --port-file "$SMOKE_DIR/port" >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 50); do
    [ -s "$SMOKE_DIR/port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/port" ] || { echo "serve never wrote its port file"; exit 1; }
./target/release/loadgen --addr "$(head -n1 "$SMOKE_DIR/port")" \
    --requests 50 --concurrency 2 --seed 42 >/dev/null
# Hostile-body probe: 200 000 `[` fit under the 1 MiB body cap. The JSON
# nesting cap must answer 400; without it the parser overflows the
# connection thread's stack and the whole process aborts.
head -c 200000 /dev/zero | tr '\0' '[' > "$SMOKE_DIR/deep.json"
DEEP_STATUS=$(curl -s -m 10 -o /dev/null -w '%{http_code}' -H 'Expect:' \
    --data-binary @"$SMOKE_DIR/deep.json" "http://$(head -n1 "$SMOKE_DIR/port")/embed")
[ "$DEEP_STATUS" = 400 ] || {
    echo "serve smoke FAILED: nested body got HTTP $DEEP_STATUS, want 400"
    exit 1
}
curl -sf -m 10 "http://$(head -n1 "$SMOKE_DIR/port")/healthz" >/dev/null || {
    echo "serve smoke FAILED: /healthz did not answer 200 after the nested body"
    exit 1
}
# Request-smuggling probe: a `Transfer-Encoding` request must be refused
# with 400 (and its connection closed), never framed by a Content-Length
# or read as bodiless with its chunks left over as the next request.
TE_STATUS=$(curl -s -m 10 -o /dev/null -w '%{http_code}' -H 'Expect:' \
    -H 'Transfer-Encoding: chunked' --data-binary '{"features":[[0,0,0]]}' \
    "http://$(head -n1 "$SMOKE_DIR/port")/embed")
[ "$TE_STATUS" = 400 ] || {
    echo "serve smoke FAILED: Transfer-Encoding request got HTTP $TE_STATUS, want 400"
    exit 1
}
curl -sf -m 10 "http://$(head -n1 "$SMOKE_DIR/port")/healthz" >/dev/null || {
    echo "serve smoke FAILED: /healthz did not answer 200 after the Transfer-Encoding probe"
    exit 1
}
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "serve smoke test ok (incl. hostile nested body → 400, Transfer-Encoding → 400)"

echo "== tracing gate (trace/v1 JSONL valid; profiling never changes bytes) =="
# Re-run the smoke serve with request tracing on, then validate the emitted
# trace/v1 JSONL with `profile --validate` (schema, deterministic ids,
# monotone phase ordering). Gates the tentpole contract: every request is
# explainable end-to-end from its trace.
cargo build -q --release -p rll-bench --bin profile
./target/release/serve --checkpoint "$SMOKE_DIR/smoke.rllckpt" \
    --addr 127.0.0.1:0 --port-file "$SMOKE_DIR/trace_port" \
    --trace-out "$SMOKE_DIR/trace.jsonl" >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 50); do
    [ -s "$SMOKE_DIR/trace_port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/trace_port" ] || { echo "traced serve never wrote its port file"; exit 1; }
./target/release/loadgen --addr "$(head -n1 "$SMOKE_DIR/trace_port")" \
    --requests 50 --concurrency 2 --seed 42 >/dev/null
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
./target/release/profile --validate "$SMOKE_DIR/trace.jsonl"
# Profiling must be observe-only: a profiled training run's checkpoint must
# be byte-identical to an unprofiled one (profiling reads clocks, never the
# RNG stream or the float math).
RLL_RUN_ID=trace-gate ./target/release/serve train-demo \
    --out "$SMOKE_DIR/prof_off.rllckpt" --n 80 --epochs 5 --seed 42 >/dev/null
RLL_RUN_ID=trace-gate ./target/release/serve train-demo --profile \
    --out "$SMOKE_DIR/prof_on.rllckpt" --n 80 --epochs 5 --seed 42 >/dev/null
cmp "$SMOKE_DIR/prof_off.rllckpt" "$SMOKE_DIR/prof_on.rllckpt" || {
    echo "tracing gate FAILED: --profile changed checkpoint bytes"
    exit 1
}
echo "tracing gate ok (traces valid; profiled checkpoint is byte-identical)"

echo "== determinism gate (RLL_THREADS must not change results) =="
# Two short training runs that differ only in worker-thread count must emit
# byte-identical checkpoints. RLL_RUN_ID pins the run id (normally it embeds
# a timestamp + pid) so the only possible difference is the math itself.
RLL_RUN_ID=det-gate RLL_THREADS=1 ./target/release/serve train-demo \
    --out "$SMOKE_DIR/det_t1.rllckpt" --n 80 --epochs 5 --seed 42 >/dev/null
RLL_RUN_ID=det-gate RLL_THREADS=4 ./target/release/serve train-demo \
    --out "$SMOKE_DIR/det_t4.rllckpt" --n 80 --epochs 5 --seed 42 >/dev/null
cmp "$SMOKE_DIR/det_t1.rllckpt" "$SMOKE_DIR/det_t4.rllckpt" || {
    echo "determinism gate FAILED: thread count changed checkpoint bytes"
    exit 1
}
echo "determinism gate ok (1-thread and 4-thread checkpoints are identical)"
# The gates above only compare runs of one build with each other, so a change
# that moves the training math the same way everywhere passes them. This one
# pins the bytes to a recorded value.
expected_sha=$(cat results/train_demo_seed42.sha256)
actual_sha=$(sha256sum "$SMOKE_DIR/det_t1.rllckpt" | cut -d' ' -f1)
[ "$actual_sha" = "$expected_sha" ] || {
    echo "byte pin FAILED: train-demo seed-42 checkpoint sha256 is $actual_sha,"
    echo "results/train_demo_seed42.sha256 records $expected_sha"
    exit 1
}
echo "byte pin ok (train-demo seed-42 checkpoint matches results/train_demo_seed42.sha256)"

echo "== crash-safety gate (kill, resume, byte-compare) =="
# Fault-injected training must be losslessly resumable: crashtest kills a run
# after chosen epochs, resumes from the latest .rllstate snapshot, and fails
# unless the resumed .rllckpt is byte-identical to an uninterrupted run's.
# Run at both thread counts; each resume deliberately uses the *other*
# thread count to prove snapshots are portable across parallelism settings.
cargo build -q --release -p rll-bench --bin crashtest
RLL_RUN_ID=crash-gate RLL_THREADS=1 ./target/release/crashtest \
    --n 100 --epochs 10 --every 3 --kill-at 2,5,8 --resume-threads 4 \
    --out-dir "$SMOKE_DIR/crash_t1"
RLL_RUN_ID=crash-gate RLL_THREADS=4 ./target/release/crashtest \
    --n 100 --epochs 10 --every 3 --kill-at 2,5,8 --resume-threads 1 \
    --out-dir "$SMOKE_DIR/crash_t4"
# The two golden checkpoints came from independent processes at different
# thread counts — they must agree too.
cmp "$SMOKE_DIR/crash_t1/golden.rllckpt" "$SMOKE_DIR/crash_t4/golden.rllckpt" || {
    echo "crash-safety gate FAILED: goldens differ across thread counts"
    exit 1
}
echo "crash-safety gate ok (resume is bitwise lossless at RLL_THREADS=1 and 4)"

echo "== label soak gate (live ingest + drift retrain + compaction + WAL crash replay) =="
# A live-labeling server takes an interleaved vote + embed/score load with
# connection churn and duplicate vote retries, must complete at least one
# drift-triggered retrain → hot reload AND one log compaction with ZERO
# dropped requests and every duplicate answered by its original receipt
# (loadgen --strict --expect-reloads 1 --expect-compactions 1), and must
# survive kill -9 anywhere: mid-ingest, and mid-compaction at both fault
# boundaries.
cp "$SMOKE_DIR/smoke.rllckpt" "$SMOKE_DIR/label.rllckpt"
LABEL_DIR="$SMOKE_DIR/labels"
start_label_serve() { # $1 = port file, $2 = vote floor, $3 = trigger, $4 = compact
    ./target/release/serve --checkpoint "$SMOKE_DIR/label.rllckpt" \
        --addr 127.0.0.1:0 --port-file "$1" \
        --labels-dir "$LABEL_DIR" --labels-shards 2 --labels-segment 16 \
        --live-preset oral --live-n 80 --live-seed 42 --live-workers 8 \
        --retrain-votes "$2" --retrain-epochs 3 \
        --retrain-trigger "$3" --compact "$4" >/dev/null &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        [ -s "$1" ] && break
        sleep 0.1
    done
    [ -s "$1" ] || { echo "label serve never wrote its port file"; exit 1; }
}
wal_bytes() { find "$LABEL_DIR" -name '*.rllwal' -printf '%s\n' 2>/dev/null | awk '{s+=$1} END {print s+0}'; }
# Waits until the retrain manifest is complete and unchanged for a second:
# no round is running, and none is due (the loop polls every 200 ms). A
# round still running when the gate kills the server or POSTs /compact
# leaves the manifest incomplete, and compaction then rightly does nothing,
# so the fault it arms never fires.
manifest_settled() {
    local prev="" cur
    for _ in $(seq 1 60); do
        cur=$(tr -d ' \n' < "$LABEL_DIR/retrain.manifest.json" 2>/dev/null || true)
        [ "$cur" = "$prev" ] && [[ "$cur" == *'"complete":true'* ]] && return 0
        prev=$cur
        sleep 1
    done
    echo "compaction gate FAILED: retrain manifest never settled: $cur"
    exit 1
}
start_label_serve "$SMOKE_DIR/label_port" 40 drift on
LABEL_ADDR=$(head -n1 "$SMOKE_DIR/label_port")
./target/release/loadgen --addr "$LABEL_ADDR" \
    --requests 300 --concurrency 3 --seed 42 \
    --labels --label-frac 0.4 --label-preset oral --label-n 80 --label-seed 42 \
    --label-workers 8 --label-dup-frac 0.1 \
    --expect-reloads 1 --expect-compactions 1 --reload-wait 120 --strict >/dev/null
# The soak's auto-compaction must have actually reclaimed log bytes.
RECLAIMED=$(curl -sf "http://$LABEL_ADDR/metrics?format=text" \
    | sed -n 's/^label\.compact\.bytes_reclaimed \([0-9]*\)$/\1/p' || true)
[ -n "$RECLAIMED" ] && [ "$RECLAIMED" -gt 0 ] || {
    echo "label soak gate FAILED: compaction ran but reclaimed ${RECLAIMED:-0} bytes"
    exit 1
}
[ -f "$LABEL_DIR/confidence.rllsnap" ] || {
    echo "label soak gate FAILED: no confidence snapshot after compaction"
    exit 1
}
# Quiesced acked state, then kill -9 with the active WAL segments unsealed
# (no graceful shutdown exists to seal them) and a fresh vote burst racing
# the kill — the on-disk shape is a mid-ingest crash, torn tail and all.
curl -sf "http://$LABEL_ADDR/labels" > "$SMOKE_DIR/labels_before.json"
./target/release/loadgen --addr "$LABEL_ADDR" \
    --requests 400 --concurrency 2 --seed 7 \
    --labels --label-frac 1.0 --label-preset oral --label-n 80 --label-seed 42 \
    --label-workers 8 >/dev/null 2>&1 &
BURST_PID=$!
sleep 0.2
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$BURST_PID" 2>/dev/null || true
# Two independent restarts must replay the crashed WAL (snapshot + tail) to
# identical state (replay determinism), and that state must contain every
# pre-kill acked vote (durability): the quiesced snapshot's high-water mark
# can only grow.
start_label_serve "$SMOKE_DIR/label_port2" 0 drift off
curl -sf "http://$(head -n1 "$SMOKE_DIR/label_port2")/labels" > "$SMOKE_DIR/labels_replay1.json"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
start_label_serve "$SMOKE_DIR/label_port3" 0 drift off
curl -sf "http://$(head -n1 "$SMOKE_DIR/label_port3")/labels" > "$SMOKE_DIR/labels_replay2.json"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
cmp "$SMOKE_DIR/labels_replay1.json" "$SMOKE_DIR/labels_replay2.json" || {
    echo "label soak gate FAILED: two replays of the same WAL disagree"
    exit 1
}
BEFORE_HW=$(sed -n 's/.*"high_water_seq": *\([0-9]*\).*/\1/p' "$SMOKE_DIR/labels_before.json")
AFTER_HW=$(sed -n 's/.*"high_water_seq": *\([0-9]*\).*/\1/p' "$SMOKE_DIR/labels_replay1.json")
[ -n "$BEFORE_HW" ] && [ -n "$AFTER_HW" ] && [ "$AFTER_HW" -ge "$BEFORE_HW" ] || {
    echo "label soak gate FAILED: replayed high water $AFTER_HW < acked $BEFORE_HW"
    exit 1
}

echo "== compaction crash gate (kill -9 at both fault boundaries) =="
# Ingest a fresh vote batch (no kill racing it — the burst above may have
# landed anywhere from zero to all of its votes) and advance the manifest
# with one more (vote-triggered) retrain round, compaction off — leaving
# plenty of sealed, compactable segments below the new folded_seq for the
# fault injection below.
start_label_serve "$SMOKE_DIR/label_port4" 50 votes off
LABEL_ADDR4=$(head -n1 "$SMOKE_DIR/label_port4")
./target/release/loadgen --addr "$LABEL_ADDR4" \
    --requests 150 --concurrency 2 --seed 9 \
    --labels --label-frac 0.8 --label-preset oral --label-n 80 --label-seed 42 \
    --label-workers 8 >/dev/null
for _ in $(seq 1 120); do
    ROUNDS=$(curl -sf "http://$LABEL_ADDR4/metrics?format=text" \
        | sed -n 's/^label\.retrain\.rounds \([0-9]*\)$/\1/p' || true)
    [ "${ROUNDS:-0}" -ge 1 ] && break
    sleep 1
done
[ "${ROUNDS:-0}" -ge 1 ] || { echo "compaction gate FAILED: backlog round never fired"; exit 1; }
manifest_settled
curl -sf "http://$LABEL_ADDR4/labels" > "$SMOKE_DIR/labels_pre_compact.json"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
B0=$(wal_bytes)
# Fault 1: abort right after the snapshot write, before any deletion. The
# server process dies mid-/compact; every segment must still be on disk and
# a clean restart must serve the identical confidence surface.
RLL_COMPACT_FAULT=before-delete start_label_serve "$SMOKE_DIR/label_port5" 0 drift off
manifest_settled
curl -s -m 30 -X POST -H 'Content-Length: 0' \
    "http://$(head -n1 "$SMOKE_DIR/label_port5")/compact" >/dev/null 2>&1 || true
for _ in $(seq 1 50); do kill -0 "$SERVE_PID" 2>/dev/null || break; sleep 0.2; done
kill -0 "$SERVE_PID" 2>/dev/null && {
    echo "compaction gate FAILED: before-delete fault never fired"
    exit 1
}
wait "$SERVE_PID" 2>/dev/null || true
[ "$(wal_bytes)" -eq "$B0" ] || {
    echo "compaction gate FAILED: before-delete abort lost segment bytes"
    exit 1
}
start_label_serve "$SMOKE_DIR/label_port6" 0 drift off
curl -sf "http://$(head -n1 "$SMOKE_DIR/label_port6")/labels" > "$SMOKE_DIR/labels_fault1.json"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
cmp "$SMOKE_DIR/labels_pre_compact.json" "$SMOKE_DIR/labels_fault1.json" || {
    echo "compaction gate FAILED: before-delete abort changed /labels"
    exit 1
}
# Fault 2: abort after the first segment deletion — the snapshot now covers
# records whose segments are partially gone. Replay must treat the leading
# gap as compacted prefix and still reproduce the exact surface.
RLL_COMPACT_FAULT=mid-delete start_label_serve "$SMOKE_DIR/label_port7" 0 drift off
manifest_settled
curl -s -m 30 -X POST -H 'Content-Length: 0' \
    "http://$(head -n1 "$SMOKE_DIR/label_port7")/compact" >/dev/null 2>&1 || true
for _ in $(seq 1 50); do kill -0 "$SERVE_PID" 2>/dev/null || break; sleep 0.2; done
kill -0 "$SERVE_PID" 2>/dev/null && {
    echo "compaction gate FAILED: mid-delete fault never fired"
    exit 1
}
wait "$SERVE_PID" 2>/dev/null || true
[ "$(wal_bytes)" -lt "$B0" ] || {
    echo "compaction gate FAILED: mid-delete abort deleted nothing"
    exit 1
}
start_label_serve "$SMOKE_DIR/label_port8" 0 drift off
LABEL_ADDR8=$(head -n1 "$SMOKE_DIR/label_port8")
curl -sf "http://$LABEL_ADDR8/labels" > "$SMOKE_DIR/labels_fault2.json"
cmp "$SMOKE_DIR/labels_pre_compact.json" "$SMOKE_DIR/labels_fault2.json" || {
    echo "compaction gate FAILED: mid-delete abort changed /labels"
    exit 1
}
# Clean completion on the survivor: the interrupted run resumes, deletes the
# remaining covered segments, shrinks the log — and /labels still does not
# move, before or after one more kill -9.
manifest_settled
curl -sf -X POST -H 'Content-Length: 0' \
    "http://$LABEL_ADDR8/compact" > "$SMOKE_DIR/compact_stats.json"
DELETED=$(sed -n 's/.*"segments_deleted": *\([0-9]*\).*/\1/p' "$SMOKE_DIR/compact_stats.json")
[ -n "$DELETED" ] && [ "$DELETED" -ge 1 ] || {
    echo "compaction gate FAILED: resumed compaction deleted no segments"
    exit 1
}
[ "$(wal_bytes)" -lt "$B0" ] || {
    echo "compaction gate FAILED: completed compaction did not shrink the WAL"
    exit 1
}
curl -sf "http://$LABEL_ADDR8/labels" > "$SMOKE_DIR/labels_compacted.json"
cmp "$SMOKE_DIR/labels_pre_compact.json" "$SMOKE_DIR/labels_compacted.json" || {
    echo "compaction gate FAILED: compaction changed /labels"
    exit 1
}
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
start_label_serve "$SMOKE_DIR/label_port9" 0 drift off
curl -sf "http://$(head -n1 "$SMOKE_DIR/label_port9")/labels" > "$SMOKE_DIR/labels_final.json"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
cmp "$SMOKE_DIR/labels_pre_compact.json" "$SMOKE_DIR/labels_final.json" || {
    echo "compaction gate FAILED: post-compaction replay changed /labels"
    exit 1
}
echo "label soak gate ok (zero-drop soak with hot reload, idempotent retries, and ≥1 compaction)"
echo "compaction crash gate ok (aborts at both boundaries are lossless; log shrank, /labels did not move)"

echo "All checks passed."
