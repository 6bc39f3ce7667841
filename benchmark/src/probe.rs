//! A fixed arithmetic probe of how fast the host is running.
//!
//! On the reference host (a two-vCPU KVM guest whose cores other tenants
//! share) floating-point code ran at one speed for a while and at about half
//! of it for the next while, in stretches of tens of milliseconds to
//! minutes, whatever the benchmark itself did. A train-oral run that fell in
//! a slow stretch read twice what the same run read in a fast one, so ten
//! runs of one commit spread by 25-50%. The probe does the arithmetic of a
//! training step (forward and backward of a 14-64-32-16 tanh MLP over one
//! 5-row group, as plain loops) in code that calls nothing from the
//! repository, so a change to the repository never changes it; timed beside
//! each fit, it tells how fast the host ran then, and [`scale`] turns a
//! measured time into the time it takes at the reference speed.

use rll_obs::Stopwatch;
use std::hint::black_box;

/// Seconds one [`probe_secs`] call takes on the reference host in a fast
/// stretch (the lowest of its readings there).
pub const REFERENCE_SECS: f64 = 0.0045;

const WIDTHS: [usize; 4] = [14, 64, 32, 16];
const ROWS: usize = 5;
/// Forward and backward passes per probe.
const PASSES: usize = 64;

/// Times one probe: [`PASSES`] forward and backward passes of the MLP.
pub fn probe_secs() -> f64 {
    let weights: Vec<Vec<f64>> = (0..3)
        .map(|l| {
            (0..WIDTHS[l] * WIDTHS[l + 1])
                .map(|i| ((i * 7) % 13) as f64 * 0.01 - 0.06)
                .collect()
        })
        .collect();
    let input: Vec<f64> = (0..ROWS * WIDTHS[0])
        .map(|i| ((i * 3) % 11) as f64 * 0.1 - 0.5)
        .collect();
    let clock = Stopwatch::start();
    for _ in 0..PASSES {
        black_box(pass(black_box(&weights), black_box(&input)));
    }
    clock.elapsed_secs()
}

/// One forward and backward pass; returns the input gradient.
fn pass(weights: &[Vec<f64>], input: &[f64]) -> Vec<f64> {
    let mut acts = vec![input.to_vec()];
    for (l, w) in weights.iter().enumerate() {
        let (n_in, n_out) = (WIDTHS[l], WIDTHS[l + 1]);
        let a = &acts[l];
        let mut out = vec![0.0; ROWS * n_out];
        for r in 0..ROWS {
            for o in 0..n_out {
                let mut sum = 0.0;
                for i in 0..n_in {
                    sum += a[r * n_in + i] * w[i * n_out + o];
                }
                out[r * n_out + o] = sum.tanh();
            }
        }
        acts.push(out);
    }
    let mut grad = acts[3].clone();
    for (l, w) in weights.iter().enumerate().rev() {
        let (n_in, n_out) = (WIDTHS[l], WIDTHS[l + 1]);
        let mut grad_in = vec![0.0; ROWS * n_in];
        let mut grad_w = vec![0.0; n_in * n_out];
        for r in 0..ROWS {
            for o in 0..n_out {
                let y = acts[l + 1][r * n_out + o];
                let d = grad[r * n_out + o] * (1.0 - y * y);
                for i in 0..n_in {
                    grad_w[i * n_out + o] += acts[l][r * n_in + i] * d;
                    grad_in[r * n_in + i] += w[i * n_out + o] * d;
                }
            }
        }
        black_box(&grad_w);
        grad = grad_in;
    }
    grad
}

/// `secs` as it would read at the reference speed, given the probes timed
/// just before and just after it.
pub fn scale(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_SECS / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_out_the_host_speed() {
        // A host at half speed: both the work and the probes take twice as long.
        let slow = scale(0.02, 2.0 * REFERENCE_SECS, 2.0 * REFERENCE_SECS);
        assert!((slow - 0.01).abs() < 1e-15);
        assert_eq!(scale(0.01, REFERENCE_SECS, REFERENCE_SECS), 0.01);
    }

    #[test]
    fn the_probe_does_real_work() {
        assert!(probe_secs() > 0.0);
        let weights: Vec<Vec<f64>> = (0..3)
            .map(|l| vec![0.01; WIDTHS[l] * WIDTHS[l + 1]])
            .collect();
        let grad = pass(&weights, &vec![0.5; ROWS * WIDTHS[0]]);
        assert_eq!(grad.len(), ROWS * WIDTHS[0]);
        assert!(grad.iter().all(|g| g.is_finite() && *g != 0.0));
    }
}
