//! `profile` — validator for serve `--trace-out` JSONL.
//!
//! ```text
//! profile --validate PATH            check every trace/v1 record (schema,
//!                                    id format, phase ordering); non-zero
//!                                    exit on any violation — the CI gate
//! ```
//!
//! A line that does not parse as an event fails the run. Per-phase timings
//! are reported by `bash benchmark/run.sh`.

use rll_obs::{trace_id, Event, EventKind, TraceRecord, TRACE_SCHEMA};
use std::process::ExitCode;

const USAGE: &str = "usage: profile --validate PATH";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, path] if flag == "--validate" => validate_report(path),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a JSONL file into events, returning `(events, unparseable_lines)`.
/// Blank lines are ignored; malformed lines are counted, not fatal — a run
/// file may contain schema versions this binary predates.
fn load_events(path: &str) -> Result<(Vec<Event>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Event>(line) {
            Ok(event) => events.push(event),
            Err(_) => skipped += 1,
        }
    }
    Ok((events, skipped))
}

fn traces_of(events: &[Event]) -> Vec<&TraceRecord> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Trace(record) => Some(record),
            _ => None,
        })
        .collect()
}

/// Checks one trace record against the `trace/v1` contract. Returns every
/// violation, not just the first, so a broken producer is diagnosable from
/// one run.
fn validate_trace(record: &TraceRecord) -> Vec<String> {
    let mut problems = Vec::new();
    if record.schema != TRACE_SCHEMA {
        problems.push(format!(
            "schema is {:?}, expected {TRACE_SCHEMA:?}",
            record.schema
        ));
    }
    let hex_ok = record.trace_id.len() == 16
        && record
            .trace_id
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase());
    if !hex_ok {
        problems.push(format!(
            "trace_id {:?} is not 16 lowercase hex digits",
            record.trace_id
        ));
    } else {
        let expected = format!("{:016x}", trace_id(record.conn_seq, record.req_seq));
        if record.trace_id != expected {
            problems.push(format!(
                "trace_id {} does not match FNV-1a(conn {}, req {}) = {}",
                record.trace_id, record.conn_seq, record.req_seq, expected
            ));
        }
    }
    if record.total_secs < 0.0 {
        problems.push(format!("negative total_secs {}", record.total_secs));
    }
    if record.phases.is_empty() {
        problems.push("no phases recorded".to_string());
    }
    for pair in record.phases.windows(2) {
        if pair[0].start_secs > pair[1].start_secs {
            problems.push(format!(
                "phases out of order: {} at {} after {} at {}",
                pair[1].phase, pair[1].start_secs, pair[0].phase, pair[0].start_secs
            ));
        }
    }
    for p in &record.phases {
        if p.start_secs < 0.0 || p.secs < 0.0 {
            problems.push(format!(
                "phase {} has negative timing (start {}, dur {})",
                p.phase, p.start_secs, p.secs
            ));
        }
    }
    problems
}

fn validate_report(path: &str) -> Result<(), String> {
    let (events, skipped) = load_events(path)?;
    if skipped > 0 {
        return Err(format!("{skipped} unparseable line(s) in {path}"));
    }
    let traces = traces_of(&events);
    if traces.is_empty() {
        return Err(format!("no trace/v1 records in {path}"));
    }
    let mut bad = 0usize;
    for record in &traces {
        let problems = validate_trace(record);
        if !problems.is_empty() {
            bad += 1;
            eprintln!("trace {}:", record.trace_id);
            for p in problems {
                eprintln!("  - {p}");
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} of {} trace(s) invalid", traces.len()));
    }
    println!("profile: {} trace(s) valid in {path}", traces.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_obs::PhaseSample;

    fn good_record() -> TraceRecord {
        TraceRecord {
            schema: TRACE_SCHEMA.to_string(),
            trace_id: format!("{:016x}", trace_id(3, 1)),
            conn_seq: 3,
            req_seq: 1,
            method: "POST".to_string(),
            path: "/embed".to_string(),
            status: 200,
            total_secs: 0.010,
            phases: vec![
                PhaseSample {
                    phase: "parse".to_string(),
                    start_secs: 0.0,
                    secs: 0.001,
                },
                PhaseSample {
                    phase: "forward".to_string(),
                    start_secs: 0.002,
                    secs: 0.005,
                },
            ],
        }
    }

    #[test]
    fn valid_record_has_no_problems() {
        assert!(validate_trace(&good_record()).is_empty());
    }

    #[test]
    fn validator_flags_each_contract_breach() {
        let mut r = good_record();
        r.schema = "trace/v0".to_string();
        r.trace_id = "XYZ".to_string();
        r.phases.swap(0, 1); // out of start order
        r.phases[0].secs = -1.0;
        let problems = validate_trace(&r);
        let text = problems.join("\n");
        assert!(text.contains("schema"), "{text}");
        assert!(text.contains("16 lowercase hex"), "{text}");
        assert!(text.contains("out of order"), "{text}");
        assert!(text.contains("negative timing"), "{text}");
    }

    #[test]
    fn validator_checks_id_against_seqs() {
        let mut r = good_record();
        r.req_seq = 2; // id no longer matches (conn, req)
        let problems = validate_trace(&r);
        assert!(
            problems.iter().any(|p| p.contains("FNV-1a")),
            "{problems:?}"
        );
    }

    #[test]
    fn load_events_counts_bad_lines() {
        let dir = std::env::temp_dir().join("rll-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let event = Event {
            seq: 0,
            elapsed_secs: 0.0,
            kind: EventKind::Trace(good_record()),
        };
        let good = serde_json::to_string(&event).unwrap();
        std::fs::write(&path, format!("{good}\nnot json\n\n{good}\n")).unwrap();
        let (events, skipped) = load_events(path.to_str().unwrap()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(skipped, 1);
        assert_eq!(traces_of(&events).len(), 2);
    }
}
