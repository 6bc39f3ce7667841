//! `serve` — load a checkpoint and answer embedding queries over HTTP.
//!
//! Two modes:
//!
//! ```text
//! serve train-demo [--out PATH] [--n N] [--epochs N] [--seed N] [--profile]
//! serve --checkpoint PATH [--addr HOST:PORT] [--port-file PATH] [--trace-out PATH]
//!       [--labels-dir DIR] [--labels-shards N] [--labels-segment N]
//!       [--live-preset oral|class] [--live-n N] [--live-seed N] [--live-workers N]
//!       [--retrain-votes N] [--retrain-epochs N] [--retrain-trigger votes|drift]
//!       [--compact on|off]
//! ```
//!
//! `train-demo` trains a small RLL pipeline on the simulated oral preset and
//! writes a checkpoint — the train→checkpoint handoff in miniature, stamping
//! the rll-obs run id of the training run into the checkpoint header;
//! `--profile` turns on the per-epoch self-time profiler (EpochProfile events
//! in the run JSONL, checkpoint bytes unaffected). The serving mode loads any
//! checkpoint and listens until killed, with the engine's default cache size;
//! `POST /reload` re-reads the `--checkpoint` file to hot-swap a newer model
//! without a restart. `--addr` with port 0 binds an ephemeral port;
//! `--port-file` writes the resolved `host:port` so scripts (e.g. the CI
//! smoke test) can find it. `--trace-out` enables
//! request tracing: every request appends one `trace/v1` JSON line to the
//! given file (checked by `profile --validate`).
//!
//! `--labels-dir` turns on **live labeling**: crowd votes posted to
//! `POST /label` are appended to a sharded WAL in that directory (replayed on
//! restart) and exposed as online Bayesian Beta(1, 1) confidences (eq. 2)
//! under `GET /labels`. The live dataset is the
//! `--live-preset`/`--live-n`/`--live-seed` simulation — the same generator
//! `train-demo` trains from, so the served checkpoint and the vote stream
//! agree on example ids. With `--retrain-votes N` a background retrainer
//! additionally watches the vote stream, folds new votes into the dataset,
//! retrains, writes the checkpoint atomically, reads it back, and hot-swaps
//! the engine's model in process — the full ingest → retrain → reload loop
//! in one process. `N` is the new-vote floor; by default the round only
//! fires when the confidence field actually moved (`--retrain-trigger
//! drift`: summed drift 4.0 or mean disagreement 0.35), and
//! `--retrain-trigger votes` restores the fixed every-N behaviour. The fold always weights annotators
//! by live Dawid–Skene quality and drops probable spammers (informativeness
//! below 0.2 after at least 3 votes); after each completed round the WAL
//! history below the published `folded_seq` is compacted into a checksummed
//! confidence snapshot (`--compact off` disables the automatic pass;
//! `POST /compact` always works).

use rll_core::{RllConfig, RllPipeline};
use rll_serve::{
    Checkpoint, EmbedServer, EngineConfig, InferenceEngine, ServerConfig, ServingModel,
};
use std::process::ExitCode;
use std::slice::Iter;
use std::str::FromStr;

#[derive(Debug, PartialEq)]
struct TrainDemoArgs {
    out: String,
    n: usize,
    epochs: usize,
    seed: u64,
    profile: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Preset {
    Oral,
    Class,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    Votes,
    Drift,
}

#[derive(Debug, PartialEq)]
struct ServeArgs {
    checkpoint: String,
    addr: String,
    port_file: Option<String>,
    trace_out: Option<String>,
    labels_dir: Option<String>,
    labels_shards: u32,
    labels_segment: u64,
    live_preset: Preset,
    live_n: usize,
    live_seed: u64,
    live_workers: u32,
    retrain_votes: u64,
    retrain_epochs: usize,
    retrain_trigger: Trigger,
    compact: bool,
}

const USAGE: &str = "usage:
  serve train-demo [--out PATH] [--n N] [--epochs N] [--seed N] [--profile]
  serve --checkpoint PATH [--addr HOST:PORT] [--port-file PATH] [--trace-out PATH]
        [--labels-dir DIR] [--labels-shards N] [--labels-segment N]
        [--live-preset oral|class] [--live-n N] [--live-seed N] [--live-workers N]
        [--retrain-votes N] [--retrain-epochs N] [--retrain-trigger votes|drift]
        [--compact on|off]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("train-demo") {
        parse_train_demo(&args[1..]).map(|a| train_demo(&a))
    } else {
        parse_serve(&args).map(|a| run_server(&a))
    };
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
        Err(usage_error) => {
            eprintln!("serve: {usage_error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &mut Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn number<T: FromStr>(args: &mut Iter<'_, String>, flag: &str) -> Result<T, String> {
    value(args, flag)?
        .parse()
        .map_err(|_| format!("invalid {flag}"))
}

/// The value of `flag`, which must name one of `choices`.
fn choice<T: Copy>(
    args: &mut Iter<'_, String>,
    flag: &str,
    choices: &[(&str, T)],
) -> Result<T, String> {
    let given = value(args, flag)?;
    match choices.iter().find(|(name, _)| *name == given) {
        Some(&(_, typed)) => Ok(typed),
        None => {
            let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
            Err(format!("{flag} must be {}, got {given:?}", names.join("|")))
        }
    }
}

fn parse_train_demo(args: &[String]) -> Result<TrainDemoArgs, String> {
    let mut out = TrainDemoArgs {
        out: "results/demo.rllckpt".to_string(),
        n: 240,
        epochs: 20,
        seed: 42,
        profile: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            "--out" => out.out = value(args, flag)?.to_string(),
            "--profile" => out.profile = true,
            "--n" => out.n = number(args, flag)?,
            "--epochs" => out.epochs = number(args, flag)?,
            "--seed" => out.seed = number(args, flag)?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(out)
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        checkpoint: String::new(),
        addr: "127.0.0.1:7878".to_string(),
        port_file: None,
        trace_out: None,
        labels_dir: None,
        labels_shards: 4,
        labels_segment: 256,
        live_preset: Preset::Oral,
        live_n: 240,
        live_seed: 42,
        live_workers: 8,
        retrain_votes: 0,
        retrain_epochs: 10,
        retrain_trigger: Trigger::Drift,
        compact: true,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            "--checkpoint" => out.checkpoint = value(args, flag)?.to_string(),
            "--addr" => out.addr = value(args, flag)?.to_string(),
            "--port-file" => out.port_file = Some(value(args, flag)?.to_string()),
            "--trace-out" => out.trace_out = Some(value(args, flag)?.to_string()),
            "--labels-dir" => out.labels_dir = Some(value(args, flag)?.to_string()),
            "--labels-shards" => out.labels_shards = number(args, flag)?,
            "--labels-segment" => out.labels_segment = number(args, flag)?,
            "--live-preset" => {
                out.live_preset = choice(
                    args,
                    flag,
                    &[("oral", Preset::Oral), ("class", Preset::Class)],
                )?
            }
            "--live-n" => out.live_n = number(args, flag)?,
            "--live-seed" => out.live_seed = number(args, flag)?,
            "--live-workers" => out.live_workers = number(args, flag)?,
            "--retrain-votes" => out.retrain_votes = number(args, flag)?,
            "--retrain-epochs" => out.retrain_epochs = number(args, flag)?,
            "--retrain-trigger" => {
                out.retrain_trigger = choice(
                    args,
                    flag,
                    &[("votes", Trigger::Votes), ("drift", Trigger::Drift)],
                )?
            }
            "--compact" => out.compact = choice(args, flag, &[("on", true), ("off", false)])?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if out.checkpoint.is_empty() {
        return Err("--checkpoint is required".to_string());
    }
    Ok(out)
}

fn train_demo(args: &TrainDemoArgs) -> Result<(), Box<dyn std::error::Error>> {
    let ds = rll_data::presets::oral_scaled(args.n, args.seed)?;
    let recorder = rll_obs::Recorder::for_experiment("serve-train-demo", args.seed);
    recorder.run_start("serve-train-demo", "oral", args.seed);
    let config = RllConfig {
        epochs: args.epochs,
        groups_per_epoch: 128,
        ..RllConfig::default()
    };
    let mut pipeline = RllPipeline::new(config)
        .with_recorder(recorder.clone())
        .with_profiling(args.profile);
    pipeline.fit(&ds.features, &ds.annotations, args.seed)?;
    let checkpoint = Checkpoint::from_pipeline(&pipeline, recorder.run_id())?;
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    checkpoint.save(&args.out)?;
    recorder.note(format!(
        "checkpoint {} (input_dim {}, embedding_dim {}, run {})",
        args.out,
        checkpoint.meta.input_dim,
        checkpoint.meta.embedding_dim,
        checkpoint.meta.train_run_id,
    ));
    recorder.finish();
    println!("wrote {}", args.out);
    Ok(())
}

/// Publishes a retrain round: writes the checkpoint atomically, reads it
/// back, and swaps it into the engine.
struct ReloadSink {
    checkpoint: std::path::PathBuf,
    engine: InferenceEngine,
}

impl rll_label::PublishSink for ReloadSink {
    fn publish(&mut self, pipeline: &RllPipeline, round: u64) -> Result<(), String> {
        let run_id = format!("retrain-round-{round}");
        let checkpoint = Checkpoint::from_pipeline(pipeline, &run_id).map_err(|e| e.to_string())?;
        checkpoint
            .save(&self.checkpoint)
            .map_err(|e| format!("checkpoint write: {e}"))?;
        // Serve the bytes on disk, as `POST /reload` does, so the live model
        // is always one a restart would load.
        let saved =
            Checkpoint::load(&self.checkpoint).map_err(|e| format!("checkpoint read: {e}"))?;
        self.engine.reload(ServingModel::from_checkpoint(saved));
        Ok(())
    }
}

fn run_server(args: &ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let checkpoint = Checkpoint::load(&args.checkpoint)?;
    let meta = checkpoint.meta.clone();
    println!(
        "loaded {} (v{}, input_dim {}, embedding_dim {}, trained by run {})",
        args.checkpoint, meta.version, meta.input_dim, meta.embedding_dim, meta.train_run_id
    );
    // Metrics-only recorder by default: the server's signal surface is
    // GET /metrics, not a stdout event stream. `--trace-out` adds a JSONL
    // sink that receives one `trace/v1` line per request.
    let mut sinks: Vec<Box<dyn rll_obs::Sink>> = Vec::new();
    if let Some(path) = &args.trace_out {
        sinks.push(Box::new(rll_obs::JsonlSink::open(path)?));
        println!("tracing requests to {path}");
    }
    let recorder = rll_obs::Recorder::new("serve", sinks);
    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(checkpoint),
        EngineConfig::default(),
        recorder.clone(),
    )?;

    // Live labeling: the label store replays its WAL before the listener
    // opens, so the first request already sees the recovered state.
    let live = match &args.labels_dir {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            let ds = match args.live_preset {
                Preset::Oral => rll_data::presets::oral_scaled(args.live_n, args.live_seed)?,
                Preset::Class => rll_data::presets::class_scaled(args.live_n, args.live_seed)?,
            };
            let store = rll_label::LabelStore::open(
                rll_label::LabelStoreConfig {
                    dir: dir.clone(),
                    shards: args.labels_shards,
                    segment_records: args.labels_segment,
                    estimator: rll_crowd::ConfidenceEstimator::Bayesian(
                        rll_crowd::BetaPrior::uniform(),
                    ),
                    num_examples: ds.features.rows() as u64,
                    max_workers: args.live_workers,
                    dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
                    manifest_path: Some(dir.join("retrain.manifest.json")),
                },
                recorder.clone(),
            )?;
            println!(
                "live labeling in {} ({} examples, high water {})",
                dir.display(),
                ds.features.rows(),
                store.high_water()
            );
            Some((dir, std::sync::Arc::new(store), ds))
        }
        None => None,
    };

    let server = EmbedServer::start(
        engine.clone(),
        ServerConfig {
            addr: args.addr.clone(),
            checkpoint_path: Some(args.checkpoint.clone().into()),
            trace: args.trace_out.is_some(),
        },
        recorder.clone(),
        live.as_ref()
            .map(|(_, store, _)| std::sync::Arc::clone(store)),
    )?;
    let addr = server.local_addr();
    println!("rll-serve listening on {addr}");
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{addr}\n"))?;
    }

    // The retrain → hot-reload loop, once the listener is up.
    let _retrainer = match live {
        Some((dir, store, ds)) if args.retrain_votes > 0 => {
            let base = rll_label::RetrainBase {
                features: ds.features,
                annotations: ds.annotations,
                expert_labels: Some(ds.expert_labels),
            };
            let min_new_votes = args.retrain_votes;
            let trigger = match args.retrain_trigger {
                Trigger::Votes => rll_label::RetrainTrigger::Votes { min_new_votes },
                Trigger::Drift => rll_label::RetrainTrigger::Drift {
                    min_new_votes,
                    drift_threshold: 4.0,
                    disagreement_threshold: 0.35,
                },
            };
            let config = rll_label::RetrainConfig {
                train: RllConfig {
                    epochs: args.retrain_epochs,
                    groups_per_epoch: 128,
                    ..RllConfig::default()
                },
                base_seed: args.live_seed,
                trigger,
                weighting: true,
                auto_compact: args.compact,
                poll_interval: std::time::Duration::from_millis(200),
                state_path: dir.join("retrain.rllstate"),
                manifest_path: dir.join("retrain.manifest.json"),
            };
            let retrainer = rll_label::Retrainer::start(
                store,
                base,
                config,
                recorder.clone(),
                Box::new(ReloadSink {
                    checkpoint: args.checkpoint.clone().into(),
                    engine,
                }),
            )?;
            println!(
                "retrain loop armed: trigger {:?} (floor {min_new_votes} votes), {} epochs, compact {}",
                args.retrain_trigger, args.retrain_epochs, args.compact
            );
            Some(retrainer)
        }
        _ => None,
    };

    // Serve until killed; the acceptor and workers own all the activity.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn serve(line: &str) -> ServeArgs {
        parse_serve(&argv(line)).unwrap_or_else(|e| panic!("{line:?} must parse: {e}"))
    }

    #[test]
    fn check_sh_label_server_lines_parse_to_typed_values() {
        for (floor, trigger, compact) in [
            (40, Trigger::Drift, true),
            (0, Trigger::Drift, false),
            (50, Trigger::Votes, false),
        ] {
            let name = if trigger == Trigger::Votes {
                "votes"
            } else {
                "drift"
            };
            let on = if compact { "on" } else { "off" };
            let args = serve(&format!(
                "--checkpoint s/label.rllckpt --addr 127.0.0.1:0 --port-file s/port \
                 --labels-dir s/labels --labels-shards 2 --labels-segment 16 \
                 --live-preset oral --live-n 80 --live-seed 42 --live-workers 8 \
                 --retrain-votes {floor} --retrain-epochs 3 \
                 --retrain-trigger {name} --compact {on}"
            ));
            assert_eq!(
                args,
                ServeArgs {
                    checkpoint: "s/label.rllckpt".into(),
                    addr: "127.0.0.1:0".into(),
                    port_file: Some("s/port".into()),
                    trace_out: None,
                    labels_dir: Some("s/labels".into()),
                    labels_shards: 2,
                    labels_segment: 16,
                    live_preset: Preset::Oral,
                    live_n: 80,
                    live_seed: 42,
                    live_workers: 8,
                    retrain_votes: floor,
                    retrain_epochs: 3,
                    retrain_trigger: trigger,
                    compact,
                }
            );
        }
    }

    #[test]
    fn smoke_tracing_and_readme_serve_lines_parse() {
        let smoke = serve("--checkpoint s/smoke.rllckpt --addr 127.0.0.1:0 --port-file s/port");
        assert_eq!(smoke.addr, "127.0.0.1:0");
        assert_eq!(smoke.port_file.as_deref(), Some("s/port"));
        assert_eq!(smoke.trace_out, None);
        assert_eq!(smoke.labels_dir, None);

        let traced = serve(
            "--checkpoint s/smoke.rllckpt --addr 127.0.0.1:0 --port-file s/trace_port \
             --trace-out s/trace.jsonl",
        );
        assert_eq!(traced.trace_out.as_deref(), Some("s/trace.jsonl"));

        let readme = serve("--checkpoint results/demo.rllckpt --addr 127.0.0.1:7878");
        assert_eq!(readme.checkpoint, "results/demo.rllckpt");
        assert_eq!(readme.addr, "127.0.0.1:7878");
        let readme_traced = serve(
            "--checkpoint results/demo.rllckpt --addr 127.0.0.1:7878 \
             --trace-out results/trace.jsonl",
        );
        assert_eq!(
            readme_traced.trace_out.as_deref(),
            Some("results/trace.jsonl")
        );

        let live = serve(
            "--checkpoint results/demo.rllckpt --addr 127.0.0.1:7878 --labels-dir labels \
             --live-preset oral --live-n 80 --live-seed 42 --live-workers 8 \
             --retrain-votes 50 --retrain-epochs 5 --retrain-trigger drift --compact on",
        );
        assert_eq!(live.labels_dir.as_deref(), Some("labels"));
        assert_eq!((live.retrain_votes, live.retrain_epochs), (50, 5));
        assert_eq!((live.retrain_trigger, live.compact), (Trigger::Drift, true));
    }

    #[test]
    fn benchmark_server_lines_parse() {
        // benchmark/src/labeling.rs::server_args, then the `--addr` its
        // child launcher appends.
        let label = serve(
            "--checkpoint w/model.rllckpt --labels-dir w/labels --labels-shards 2 \
             --labels-segment 256 --live-preset oral --live-n 880 --live-seed 42 \
             --retrain-trigger votes --retrain-votes 400 --retrain-epochs 10 --compact on \
             --addr 127.0.0.1:0",
        );
        assert_eq!((label.labels_shards, label.labels_segment), (2, 256));
        assert_eq!(
            (label.live_preset, label.live_n, label.live_seed),
            (Preset::Oral, 880, 42)
        );
        assert_eq!(
            (label.retrain_trigger, label.retrain_votes),
            (Trigger::Votes, 400)
        );
        assert_eq!((label.retrain_epochs, label.compact), (10, true));

        // benchmark/src/serving.rs, traced and untraced.
        let served =
            serve("--checkpoint w/model.rllckpt --trace-out w/trace.jsonl --addr 127.0.0.1:0");
        assert_eq!(served.trace_out.as_deref(), Some("w/trace.jsonl"));
        assert_eq!(
            serve("--checkpoint w/model.rllckpt --addr 127.0.0.1:0").trace_out,
            None
        );
    }

    #[test]
    fn train_demo_lines_parse() {
        let parse = |line: &str| parse_train_demo(&argv(line)).expect("train-demo parses");
        assert_eq!(
            parse("--out s/smoke.rllckpt --n 80 --epochs 5 --seed 42 --profile"),
            TrainDemoArgs {
                out: "s/smoke.rllckpt".into(),
                n: 80,
                epochs: 5,
                seed: 42,
                profile: true,
            }
        );
        let readme = parse("--out results/demo.rllckpt");
        assert_eq!(
            (readme.n, readme.epochs, readme.seed, readme.profile),
            (240, 20, 42, false)
        );
    }

    #[test]
    fn removed_flags_are_unknown() {
        for flag in [
            "--workers",
            "--batch",
            "--queue",
            "--cache",
            "--labels-estimator",
            "--retrain-drift",
            "--retrain-disagreement",
            "--retrain-weighting",
            "--retrain-spam-threshold",
            "--retrain-spam-min-votes",
        ] {
            let err = parse_serve(&argv(&format!("--checkpoint c {flag} 1"))).unwrap_err();
            assert_eq!(err, format!("unknown flag: {flag}"));
        }
        let err = parse_train_demo(&argv("--preset oral")).unwrap_err();
        assert_eq!(err, "unknown flag: --preset");
    }

    #[test]
    fn reload_sink_serves_the_published_checkpoint_in_process() {
        use rll_label::PublishSink;
        let ds = rll_data::presets::oral_scaled(40, 3).expect("preset");
        let mut pipeline = RllPipeline::new(RllConfig {
            epochs: 1,
            groups_per_epoch: 8,
            ..RllConfig::default()
        });
        pipeline.fit(&ds.features, &ds.annotations, 3).expect("fit");
        let recorder = rll_obs::Recorder::disabled();
        let engine = InferenceEngine::start(
            ServingModel::from_checkpoint(
                Checkpoint::from_pipeline(&pipeline, "initial").expect("checkpoint"),
            ),
            EngineConfig::default(),
            recorder.clone(),
        )
        .expect("engine");
        let dir = std::env::temp_dir().join(format!("rll_serve_publish_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.rllckpt");
        let mut sink = ReloadSink {
            checkpoint: path.clone(),
            engine: engine.clone(),
        };
        sink.publish(&pipeline, 1).expect("publish");
        assert_eq!(engine.model().train_run_id(), "retrain-round-1");
        let reloads = recorder.metrics().snapshot().counters["serve.model.reloads"];
        assert_eq!(reloads, 1);
        let on_disk = Checkpoint::load(&path).expect("published checkpoint loads");
        assert_eq!(on_disk.meta.train_run_id, "retrain-round-1");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_values_fail_at_parse_time() {
        for (line, want) in [
            (
                "--retrain-trigger x",
                r#"--retrain-trigger must be votes|drift, got "x""#,
            ),
            (
                "--compact maybe",
                r#"--compact must be on|off, got "maybe""#,
            ),
            (
                "--live-preset foo",
                r#"--live-preset must be oral|class, got "foo""#,
            ),
            ("--live-n many", "invalid --live-n"),
            ("--retrain-votes", "--retrain-votes requires a value"),
        ] {
            let err = parse_serve(&argv(&format!("--checkpoint c {line}"))).unwrap_err();
            assert_eq!(err, want);
        }
        assert_eq!(parse_serve(&[]).unwrap_err(), "--checkpoint is required");
        assert_eq!(
            parse_train_demo(&argv("--epochs -1")).unwrap_err(),
            "invalid --epochs"
        );
    }
}
