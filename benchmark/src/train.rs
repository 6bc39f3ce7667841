//! `train-oral`: repeated `RllTrainer::fit` on the oral preset, in process,
//! with the trainer's default thread count. Tensor, nn and core do nearly
//! all the work; there is no HTTP and no disk.

use crate::probe;
use crate::report::{self, Run};
use crate::stats::{median, percentile};
use rll_core::{RllConfig, RllTrainer};
use rll_data::Dataset;
use rll_obs::Stopwatch;
use rll_tensor::hash::fnv1a_f64s;

/// FNV-1a of the embeddings and of the loss/gradient-norm trace of a default
/// fit on `presets::oral(42)`: the values every kernel and thread count has
/// produced since the determinism contract was set.
pub const SEED42_HASHES: (u64, u64) = (0x8c96_7dac_f21b_1a77, 0x9178_307c_6315_3473);

/// Set-ups timed per run; the median is reported. Each takes under a
/// millisecond, so many are cheap.
const SETUPS: usize = 25;
/// Fewest measured fits, however short the run.
const MIN_FITS: usize = 3;

#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Oral-preset size (880 is the paper's dataset).
    pub items: usize,
    pub config: RllConfig,
    /// Seconds of measured fits.
    pub seconds: f64,
}

impl TrainParams {
    pub fn oral(seconds: f64) -> TrainParams {
        TrainParams {
            items: 880,
            config: RllConfig::default(),
            seconds,
        }
    }

    fn is_oral_default(&self) -> bool {
        self.items == 880 && self.config == RllConfig::default()
    }
}

/// One timed fit and the hashes of what it produced.
pub struct Fit {
    pub secs: f64,
    pub epoch_secs: Vec<f64>,
    pub hashes: (u64, u64),
}

pub fn fit_once(trainer: &RllTrainer, ds: &Dataset, seed: u64) -> Result<Fit, String> {
    let clock = Stopwatch::start();
    let (model, trace) = trainer
        .fit(&ds.features, &ds.annotations, seed)
        .map_err(|e| format!("fit: {e}"))?;
    let secs = clock.elapsed_secs();
    let embed = model
        .embed(&ds.features)
        .map_err(|e| format!("embed: {e}"))?;
    let mut trace_values = trace.epoch_losses.clone();
    trace_values.extend_from_slice(&trace.grad_norms_pre_clip);
    Ok(Fit {
        secs,
        epoch_secs: trace.epoch_wall_secs,
        hashes: (fnv1a_f64s(embed.as_slice()), fnv1a_f64s(&trace_values)),
    })
}

/// Times in this workload are reported at the reference host speed: each
/// set-up and each fit is timed between two host probes and scaled by them
/// (see [`probe`]). The measured times are kept for the notes.
pub fn run(seed: u64, params: &TrainParams) -> Run {
    let mut run = Run::default();
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut measured_setup_secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    let mut before = probe::probe_secs();
    for _ in 0..SETUPS {
        let clock = Stopwatch::start();
        let ds = rll_data::presets::oral_scaled(params.items, seed);
        let trainer = RllTrainer::new(params.config.clone());
        let secs = clock.elapsed_secs();
        let after = probe::probe_secs();
        setup_secs.push(probe::scale(secs, before, after));
        measured_setup_secs.push(secs);
        before = after;
        built = Some((ds, trainer));
    }
    let (ds, trainer) = match built {
        Some((Ok(ds), Ok(trainer))) => (ds, trainer),
        Some((Err(e), _)) => return failed(run, format!("dataset: {e}")),
        Some((_, Err(e))) => return failed(run, format!("trainer: {e}")),
        None => return failed(run, "no set-up ran".into()),
    };

    // The warm-up fit fixes the hashes every measured fit must reproduce.
    let reference = match fit_once(&trainer, &ds, seed) {
        Ok(fit) => fit.hashes,
        Err(e) => return failed(run, e),
    };
    if seed == 42 && params.is_oral_default() {
        run.check(reference == SEED42_HASHES, || {
            format!(
                "seed 42 fit hashes {:#018x}/{:#018x}, expected {:#018x}/{:#018x}",
                reference.0, reference.1, SEED42_HASHES.0, SEED42_HASHES.1
            )
        });
    }

    let groups = (params.config.epochs * params.config.groups_per_epoch) as f64;
    let mut fit_secs = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut measured_epoch_ms = Vec::new();
    let mut probes = Vec::new();
    let mut before = probe::probe_secs();
    let clock = Stopwatch::start();
    while clock.elapsed_secs() < params.seconds || fit_secs.len() < MIN_FITS {
        match fit_once(&trainer, &ds, seed) {
            Ok(fit) => {
                let after = probe::probe_secs();
                run.check(fit.hashes == reference, || {
                    format!(
                        "fit {} hashes {:#018x}/{:#018x} differ from the first fit's",
                        fit_secs.len(),
                        fit.hashes.0,
                        fit.hashes.1
                    )
                });
                fit_secs.push(fit.secs);
                for &secs in &fit.epoch_secs {
                    epoch_ms.push(probe::scale(secs, before, after) * 1e3);
                    measured_epoch_ms.push(secs * 1e3);
                }
                probes.push(after);
                before = after;
            }
            Err(e) => {
                run.count(1, 1, "fits");
                run.problems.push(e);
                break;
            }
        }
    }

    run.set("setup_s", median(&setup_secs).unwrap_or(f64::NAN));
    run.set_or_note("p50_ms", percentile(&epoch_ms, 0.5));
    run.set_or_note("peak_rss_mb", report::peak_rss_mb("self"));
    if let Some(fit) = median(&fit_secs) {
        let p99 = percentile(&epoch_ms, 0.99).unwrap_or(f64::NAN);
        run.notes.push(format!(
            "{} fits on {} thread(s): measured median {:.1} ms ({:.0} groups/s), epoch p50 {:.3} ms, set-up {:.6} s; scaled epoch p99 {p99:.3} ms; hashes {:#018x}/{:#018x}",
            fit_secs.len(),
            trainer.threads(),
            fit * 1e3,
            groups / fit,
            percentile(&measured_epoch_ms, 0.5).unwrap_or(f64::NAN),
            median(&measured_setup_secs).unwrap_or(f64::NAN),
            reference.0,
            reference.1
        ));
        run.notes.push(format!(
            "host probe median {:.3} ms (reference {:.3} ms)",
            median(&probes).unwrap_or(f64::NAN) * 1e3,
            probe::REFERENCE_SECS * 1e3
        ));
    }
    run
}

fn failed(mut run: Run, problem: String) -> Run {
    run.count(1, 1, "set-ups");
    run.problems.push(problem);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_train_oral_runs_and_agrees_with_itself() {
        let params = TrainParams {
            items: 80,
            config: RllConfig {
                epochs: 2,
                groups_per_epoch: 32,
                ..RllConfig::default()
            },
            seconds: 0.5,
        };
        let run = run(7, &params);
        assert!(run.correct(), "{:?}", run.problems);
        assert!(run.attempted >= MIN_FITS as u64);
        for metric in crate::spec::END_TO_END {
            assert!(run.metrics[metric.name] > 0.0, "{}", metric.name);
        }
    }
}
