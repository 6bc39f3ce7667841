//! Integration tests against a real TCP server: every route round-trips over
//! an actual socket, the parser answers malformed traffic with 4xx (never a
//! dropped connection mid-parse, never a panic), and batched inference is
//! bit-identical to unbatched.

use rll_core::{RllModel, RllModelConfig};
use rll_data::Normalizer;
use rll_obs::Recorder;
use rll_serve::http;
use rll_serve::{
    Checkpoint, EmbedRequest, EmbedResponse, EmbedServer, EngineConfig, HealthResponse,
    InferenceEngine, ReloadResponse, ScoreRequest, ScoreResponse, ServerConfig, ServingModel,
};
use rll_tensor::{Matrix, Rng64};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

const INPUT_DIM: usize = 3;

/// A deterministic (seeded, untrained) model is enough to exercise the
/// serving layer; training fidelity is covered by `checkpoint_e2e.rs`.
fn test_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = Rng64::seed_from_u64(seed);
    let config = RllModelConfig {
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllModelConfig::for_input(INPUT_DIM)
    };
    let model = RllModel::new(config, &mut rng).expect("model");
    let features = Matrix::from_fn(16, INPUT_DIM, |r, c| (r as f64) * 0.4 - (c as f64) * 1.1);
    let normalizer = Normalizer::fit(&features).expect("normalizer");
    Checkpoint::new(model, normalizer, "http-test-run").expect("checkpoint")
}

struct Harness {
    server: EmbedServer,
    engine: InferenceEngine,
}

impl Harness {
    fn start(seed: u64, server_config: ServerConfig) -> Harness {
        let engine = InferenceEngine::start(
            ServingModel::from_checkpoint(test_checkpoint(seed)),
            EngineConfig::default(),
            Recorder::disabled(),
        )
        .expect("engine");
        let server = EmbedServer::start(
            engine.clone(),
            server_config,
            Recorder::disabled(),
            "http-test-run",
        )
        .expect("server");
        Harness { server, engine }
    }

    fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(self.server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    }

    /// One request on a fresh connection; returns status + body.
    fn roundtrip(&self, raw: &str) -> http::Response {
        let (mut reader, mut writer) = self.connect();
        writer.write_all(raw.as_bytes()).expect("write");
        http::read_response(&mut reader).expect("response")
    }

    fn post_json(&self, path: &str, body: &str) -> http::Response {
        self.roundtrip(&format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    fn stop(self) {
        self.server.shutdown();
        self.engine.shutdown();
    }
}

fn json<T: serde::Deserialize>(response: &http::Response) -> T {
    let text = std::str::from_utf8(&response.body).expect("utf8 body");
    serde_json::from_str(text).unwrap_or_else(|e| panic!("bad body {text:?}: {e}"))
}

#[test]
fn embed_roundtrip_matches_engine_and_batching_is_exact() {
    let h = Harness::start(1, ServerConfig::default());
    let rows = vec![
        vec![0.5, -1.0, 2.0],
        vec![0.0, 0.0, 0.0],
        vec![-3.25, 0.125, 7.5],
    ];
    let body = serde_json::to_string(&EmbedRequest {
        features: rows.clone(),
    })
    .expect("encode");

    // One batched request...
    let batched: EmbedResponse = json(&h.post_json("/embed", &body));
    assert_eq!(batched.embeddings.len(), rows.len());
    assert_eq!(batched.dim, 4);

    // ...must equal three single-row requests AND the in-process engine,
    // with exact float equality (JSON floats round-trip losslessly).
    for (i, row) in rows.iter().enumerate() {
        let single_body = serde_json::to_string(&EmbedRequest {
            features: vec![row.clone()],
        })
        .expect("encode");
        let single: EmbedResponse = json(&h.post_json("/embed", &single_body));
        assert_eq!(single.embeddings[0], batched.embeddings[i]);

        let direct = h.engine.embed(row.clone()).expect("engine embed");
        assert_eq!(direct, batched.embeddings[i]);
    }
    h.stop();
}

#[test]
fn score_matches_in_process_cosine() {
    let h = Harness::start(2, ServerConfig::default());
    let a = vec![1.0, 2.0, 3.0];
    let b = vec![-0.5, 0.25, 4.0];
    let body = serde_json::to_string(&ScoreRequest {
        a: a.clone(),
        b: b.clone(),
    })
    .expect("encode");
    let scored: ScoreResponse = json(&h.post_json("/score", &body));

    let ea = h.engine.embed(a).expect("embed a");
    let eb = h.engine.embed(b).expect("embed b");
    let expected = rll_tensor::ops::cosine_similarity(&ea, &eb).expect("cosine");
    assert_eq!(scored.score, expected);
    h.stop();
}

#[test]
fn healthz_reports_checkpoint_identity() {
    let h = Harness::start(3, ServerConfig::default());
    let response = h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(response.status, 200);
    let health: HealthResponse = json(&response);
    assert_eq!(health.status, "ok");
    assert_eq!(health.train_run_id, "http-test-run");
    assert_eq!(health.input_dim, INPUT_DIM);
    assert_eq!(health.embedding_dim, 4);
    assert!(health.uptime_secs >= 0.0);
    h.stop();
}

#[test]
fn metrics_counts_requests_in_json_and_text() {
    let h = Harness::start(4, ServerConfig::default());
    let _ = h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let snapshot = h.roundtrip("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(snapshot.status, 200);
    let snapshot: rll_obs::MetricsSnapshot = json(&snapshot);
    assert!(
        snapshot
            .counters
            .get("serve.http.requests")
            .copied()
            .unwrap_or(0)
            >= 1
    );

    let text = h.roundtrip("GET /metrics?format=text HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(text.status, 200);
    let text = String::from_utf8(text.body).expect("utf8");
    assert!(text.contains("serve.http.requests"), "got: {text}");
    h.stop();
}

#[test]
fn malformed_request_line_gets_400() {
    let h = Harness::start(5, ServerConfig::default());
    let response = h.roundtrip("NONSENSE\r\n\r\n");
    assert_eq!(response.status, 400);
    h.stop();
}

#[test]
fn post_without_content_length_gets_411() {
    let h = Harness::start(6, ServerConfig::default());
    let response = h.roundtrip("POST /embed HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(response.status, 411);
    h.stop();
}

#[test]
fn oversized_content_length_gets_413_without_reading_body() {
    let h = Harness::start(
        7,
        ServerConfig {
            max_body_bytes: 1024,
            ..ServerConfig::default()
        },
    );
    // Declare a 1 MiB body but never send it: the server must reject on the
    // header alone instead of waiting for bytes that never come.
    let response =
        h.roundtrip("POST /embed HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n");
    assert_eq!(response.status, 413);
    h.stop();
}

#[test]
fn over_limit_length_closes_the_connection() {
    let h = Harness::start(
        14,
        ServerConfig {
            max_body_bytes: 1024,
            ..ServerConfig::default()
        },
    );
    // A Content-Length that overflows the integer type entirely must be
    // refused as over-limit (413), and the connection must close: after
    // rejecting the declaration the server cannot know where this message
    // ends, so resyncing on the same socket would misparse body bytes as a
    // request line.
    let (mut reader, mut writer) = h.connect();
    writer
        .write_all(
            b"POST /embed HTTP/1.1\r\nHost: t\r\n\
              Content-Length: 99999999999999999999999999\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("write");
    let response = http::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 413);
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("read to end");
    assert_eq!(n, 0, "connection must close after 413, got {rest:?}");
    h.stop();
}

#[test]
fn conflicting_content_lengths_get_400() {
    let h = Harness::start(15, ServerConfig::default());
    let response = h.roundtrip(
        "POST /embed HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nhihi",
    );
    assert_eq!(response.status, 400);
    h.stop();
}

#[test]
fn wrong_dimension_gets_400_with_error_body() {
    let h = Harness::start(8, ServerConfig::default());
    let response = h.post_json("/embed", r#"{"features":[[1.0,2.0]]}"#);
    assert_eq!(response.status, 400);
    let err: rll_serve::ErrorResponse = json(&response);
    assert!(err.error.contains("expected 3"), "got: {}", err.error);
    h.stop();
}

#[test]
fn unknown_path_404_and_wrong_method_405() {
    let h = Harness::start(9, ServerConfig::default());
    assert_eq!(
        h.roundtrip("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").status,
        404
    );
    assert_eq!(
        h.roundtrip("GET /embed HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );
    assert_eq!(
        h.roundtrip("POST /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .status,
        405
    );
    h.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let h = Harness::start(10, ServerConfig::default());
    let (mut reader, mut writer) = h.connect();
    let body = r#"{"a":[1.0,0.0,0.0],"b":[1.0,0.0,0.0]}"#;
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nPOST /score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(pipelined.as_bytes()).expect("write");

    let first = http::read_response(&mut reader).expect("first response");
    assert_eq!(first.status, 200);
    let health: HealthResponse = json(&first);
    assert_eq!(health.status, "ok");

    let second = http::read_response(&mut reader).expect("second response");
    assert_eq!(second.status, 200);
    let scored: ScoreResponse = json(&second);
    assert_eq!(scored.score, 1.0);
    h.stop();
}

#[test]
fn http_10_connection_is_closed_after_response() {
    let h = Harness::start(11, ServerConfig::default());
    let (mut reader, mut writer) = h.connect();
    writer
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        .expect("write");
    let response = http::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    // The server honours HTTP/1.0's close-by-default: the next read is EOF.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("read to end");
    assert_eq!(n, 0, "expected EOF, got {rest:?}");
    h.stop();
}

#[test]
fn parse_error_closes_connection_after_4xx() {
    let h = Harness::start(12, ServerConfig::default());
    let (mut reader, mut writer) = h.connect();
    writer.write_all(b"BAD LINE\r\n\r\n").expect("write");
    let response = http::read_response(&mut reader).expect("response");
    assert_eq!(response.status, 400);
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("read"), 0);
    h.stop();
}

#[test]
fn server_survives_malformed_traffic_then_serves_normally() {
    let h = Harness::start(13, ServerConfig::default());
    for raw in [
        "\r\n\r\n",
        "GET\r\n\r\n",
        "GET /healthz HTTP/9.9\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nno-colon-header\r\n\r\n",
        "POST /embed HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n",
    ] {
        let response = h.roundtrip(raw);
        assert_eq!(response.status, 400, "for request {raw:?}");
    }
    // Garbage handled; a clean request still works — nothing panicked.
    let health = h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(health.status, 200);
    h.stop();
}

#[test]
fn deeply_nested_body_gets_400_and_the_server_lives() {
    let h = Harness::start(17, ServerConfig::default());
    // 200 000 `[` fit under the default 1 MiB body cap; parsed without a
    // nesting cap they overflow the connection thread's stack, which aborts
    // the whole process.
    let body = "[".repeat(200_000);
    assert!(body.len() <= ServerConfig::default().max_body_bytes);
    let response = h.post_json("/embed", &body);
    assert_eq!(response.status, 400);
    let err: rll_serve::ErrorResponse = json(&response);
    assert!(err.error.contains("nesting"), "got: {}", err.error);
    let health = h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(health.status, 200);
    h.stop();
}

#[test]
fn reload_unconfigured_gets_400_and_wrong_method_405() {
    let h = Harness::start(16, ServerConfig::default());
    let response = h.post_json("/reload", "");
    assert_eq!(response.status, 400);
    let err: rll_serve::ErrorResponse = json(&response);
    assert!(err.error.contains("not configured"), "got: {}", err.error);
    assert_eq!(
        h.roundtrip("GET /reload HTTP/1.1\r\nHost: t\r\n\r\n")
            .status,
        405
    );
    h.stop();
}

#[test]
fn every_request_emits_exactly_one_complete_trace() {
    let sink = std::sync::Arc::new(rll_obs::MemorySink::new());
    let recorder = Recorder::new("trace-e2e", vec![Box::new(sink.clone())]);
    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(test_checkpoint(21)),
        EngineConfig::default(),
        recorder.clone(),
    )
    .expect("engine");
    let server = EmbedServer::start(
        engine.clone(),
        ServerConfig {
            trace: true,
            ..ServerConfig::default()
        },
        recorder,
        "trace-e2e",
    )
    .expect("server");

    // One keep-alive connection, three requests: /embed (cache miss), the
    // same /embed (cache hit), /healthz (never touches the engine).
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let body = r#"{"features":[[0.5,-1.0,2.0]]}"#;
    let embed_raw = format!(
        "POST /embed HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let health_raw = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string();
    let mut responses = Vec::new();
    for raw in [&embed_raw, &embed_raw, &health_raw] {
        writer.write_all(raw.as_bytes()).expect("write");
        responses.push(http::read_response(&mut reader).expect("response"));
    }

    // Trace events are emitted just after the response bytes hit the wire,
    // so give the connection thread a moment to finish each record.
    let collect = || -> Vec<rll_obs::TraceRecord> {
        sink.events()
            .into_iter()
            .filter_map(|e| match e.kind {
                rll_obs::EventKind::Trace(t) => Some(t),
                _ => None,
            })
            .collect()
    };
    let mut records = collect();
    for _ in 0..400 {
        if records.len() >= responses.len() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        records = collect();
    }
    assert_eq!(records.len(), 3, "exactly one trace per request");

    for (i, (response, record)) in responses.iter().zip(&records).enumerate() {
        assert_eq!(response.status, 200);
        // Header, record, and the deterministic id formula all agree.
        let expected = format!("{:016x}", rll_obs::trace_id(0, i as u64));
        assert_eq!(
            response.header("x-rll-trace"),
            Some(expected.as_str()),
            "request {i}"
        );
        assert_eq!(record.trace_id, expected);
        assert_eq!(record.schema, rll_obs::TRACE_SCHEMA);
        assert_eq!((record.conn_seq, record.req_seq), (0, i as u64));
        assert_eq!(record.status, 200);
        assert!(record.total_secs >= 0.0);
        // Complete: parse and serialize bracket every request, and the
        // phase timeline is monotone in start time.
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase.as_str()).collect();
        assert!(names.contains(&"parse"), "request {i}: {names:?}");
        assert!(names.contains(&"serialize"), "request {i}: {names:?}");
        assert!(
            record
                .phases
                .windows(2)
                .all(|w| w[0].start_secs <= w[1].start_secs),
            "request {i} phases out of order: {:?}",
            record.phases
        );
        assert!(record.phases.iter().all(|p| p.secs >= 0.0));
    }

    // Phase composition matches each request's actual path through the
    // engine: miss → queue/forward, repeat → cache hit, healthz → neither.
    let names =
        |r: &rll_obs::TraceRecord| r.phases.iter().map(|p| p.phase.clone()).collect::<Vec<_>>();
    let miss = names(&records[0]);
    assert!(miss.iter().any(|n| n == "queue_wait"), "{miss:?}");
    assert!(miss.iter().any(|n| n == "forward"), "{miss:?}");
    let hit = names(&records[1]);
    assert!(hit.iter().any(|n| n == "cache_hit"), "{hit:?}");
    assert!(!hit.iter().any(|n| n == "forward"), "{hit:?}");
    let health = names(&records[2]);
    assert!(
        !health.iter().any(|n| n == "forward" || n == "cache_hit"),
        "{health:?}"
    );

    server.shutdown();
    engine.shutdown();
}

#[test]
fn untraced_server_still_sends_deterministic_trace_header() {
    let h = Harness::start(22, ServerConfig::default());
    let response = h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(response.status, 200);
    // Tracing is off, but the id is pure arithmetic on (conn, request)
    // counters, so the header still names this request deterministically.
    let expected = format!("{:016x}", rll_obs::trace_id(0, 0));
    assert_eq!(response.header("x-rll-trace"), Some(expected.as_str()));
    h.stop();
}

#[test]
fn reload_hot_swaps_checkpoint_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("rll_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("serving.rllckpt");

    // Serve checkpoint A, with /reload pointed at its file.
    let ckpt_a = test_checkpoint(17);
    ckpt_a.save(&path).expect("save A");
    let h = Harness::start(
        17,
        ServerConfig {
            checkpoint_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let x = vec![0.5, -1.0, 2.0];
    let body = serde_json::to_string(&EmbedRequest {
        features: vec![x.clone()],
    })
    .unwrap();
    let before: EmbedResponse = json(&h.post_json("/embed", &body));

    // A newer training run overwrites the checkpoint file; /reload picks
    // it up without a server restart.
    let mut rng = Rng64::seed_from_u64(18);
    let config = RllModelConfig {
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllModelConfig::for_input(INPUT_DIM)
    };
    let model_b = RllModel::new(config, &mut rng).expect("model B");
    let features = Matrix::from_fn(16, INPUT_DIM, |r, c| (r as f64) * 0.9 + (c as f64) * 0.2);
    let normalizer_b = Normalizer::fit(&features).expect("normalizer B");
    let ckpt_b = Checkpoint::new(model_b, normalizer_b, "newer-run").expect("checkpoint B");
    ckpt_b.save(&path).expect("save B");

    let reloaded: ReloadResponse = json(&h.post_json("/reload", ""));
    assert_eq!(reloaded.status, "reloaded");
    assert_eq!(reloaded.train_run_id, "newer-run");
    assert_eq!(reloaded.input_dim, INPUT_DIM);
    let health: HealthResponse = json(&h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert_eq!(health.train_run_id, "newer-run");

    // Same query now answers with checkpoint B's weights, bit-exactly.
    let after: EmbedResponse = json(&h.post_json("/embed", &body));
    assert_ne!(before.embeddings, after.embeddings);
    let direct = ServingModel::from_checkpoint(ckpt_b)
        .embed_matrix(&Matrix::from_rows(&[x]).unwrap())
        .unwrap();
    assert_eq!(after.embeddings[0], direct.row(0).unwrap().to_vec());

    // A corrupt file on disk is rejected; the old model keeps serving.
    std::fs::write(&path, b"not a checkpoint").expect("corrupt");
    let failed = h.post_json("/reload", "");
    assert_eq!(failed.status, 500);
    let health: HealthResponse = json(&h.roundtrip("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert_eq!(health.train_run_id, "newer-run");
    let still: EmbedResponse = json(&h.post_json("/embed", &body));
    assert_eq!(still.embeddings, after.embeddings);

    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Harness variant with a live label store behind the `/label` routes.
fn start_with_labels(seed: u64, dir: &std::path::Path) -> Harness {
    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(test_checkpoint(seed)),
        EngineConfig::default(),
        Recorder::disabled(),
    )
    .expect("engine");
    let store = rll_label::LabelStore::open(
        rll_label::LabelStoreConfig {
            dir: dir.to_path_buf(),
            shards: 2,
            segment_records: 8,
            estimator: rll_crowd::ConfidenceEstimator::Mle,
            num_examples: 16,
            max_workers: 4,
            dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
            manifest_path: None,
        },
        Recorder::disabled(),
    )
    .expect("label store");
    let server = EmbedServer::start_with_labels(
        engine.clone(),
        ServerConfig::default(),
        Recorder::disabled(),
        "http-test-run",
        Some(std::sync::Arc::new(store)),
    )
    .expect("server");
    Harness { server, engine }
}

#[test]
fn label_routes_roundtrip_and_validate() {
    let dir = std::env::temp_dir().join(format!("rll_serve_labels_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let h = start_with_labels(5, &dir);

    // Two votes on example 3: one positive, one negative → MLE δ = 0.5.
    let first: rll_label::IngestReceipt =
        json(&h.post_json("/label", r#"{"example":3,"worker":0,"label":1}"#));
    assert_eq!(first.seq, 1);
    assert_eq!(first.votes, 1);
    assert_eq!(first.confidence, 1.0);
    let second: rll_label::IngestReceipt =
        json(&h.post_json("/label", r#"{"example":3,"worker":1,"label":0}"#));
    assert_eq!(second.seq, 2);
    assert_eq!(second.votes, 2);
    assert_eq!(second.confidence, 0.5);

    // Single-example lookup agrees with the receipt.
    let one = h.roundtrip("GET /labels/3 HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(one.status, 200);
    let conf: rll_label::ExampleConfidence = json(&one);
    assert_eq!(conf.votes, 2);
    assert_eq!(conf.confidence, 0.5);

    // Snapshot lists exactly the voted example.
    let all = h.roundtrip("GET /labels HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(all.status, 200);
    let snapshot: rll_label::LabelsSnapshot = json(&all);
    assert_eq!(snapshot.high_water_seq, 2);
    assert_eq!(snapshot.examples.len(), 1);

    // Validation: bad example, bad worker, bad label, bad id, unvoted id.
    assert_eq!(
        h.post_json("/label", r#"{"example":99,"worker":0,"label":1}"#)
            .status,
        400
    );
    assert_eq!(
        h.post_json("/label", r#"{"example":0,"worker":9,"label":1}"#)
            .status,
        400
    );
    assert_eq!(
        h.post_json("/label", r#"{"example":0,"worker":0,"label":7}"#)
            .status,
        400
    );
    assert_eq!(h.post_json("/label", "not json").status, 400);
    assert_eq!(
        h.roundtrip("GET /labels/abc HTTP/1.1\r\nHost: t\r\n\r\n")
            .status,
        400
    );
    assert_eq!(
        h.roundtrip("GET /labels/7 HTTP/1.1\r\nHost: t\r\n\r\n")
            .status,
        404
    );
    // Rejected votes never advanced the WAL.
    let snapshot2: rll_label::LabelsSnapshot =
        json(&h.roundtrip("GET /labels HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert_eq!(snapshot2.high_water_seq, 2);

    // Method discipline.
    assert_eq!(
        h.roundtrip("GET /label HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );
    assert_eq!(h.post_json("/labels", "").status, 405);

    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn label_routes_answer_400_when_not_enabled() {
    let h = Harness::start(6, ServerConfig::default());
    assert_eq!(
        h.post_json("/label", r#"{"example":0,"worker":0,"label":1}"#)
            .status,
        400
    );
    assert_eq!(
        h.roundtrip("GET /labels HTTP/1.1\r\nHost: t\r\n\r\n")
            .status,
        400
    );
    assert_eq!(
        h.roundtrip("GET /labels/0 HTTP/1.1\r\nHost: t\r\n\r\n")
            .status,
        400
    );
    h.stop();
}
