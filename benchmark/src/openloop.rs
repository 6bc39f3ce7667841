//! Open-loop load: request `i` is due at a fixed time whether or not earlier
//! requests have been answered, so a stall in the server delays every request
//! due during it, and latency is timed from the due time.
//!
//! Each connection has one sender thread, which writes pre-serialized
//! requests at their due times (pipelining when the server is behind), and
//! one receiver thread, which reads the responses in order. Load therefore
//! comes from at most `conns` sender threads and `conns` connections.

use crate::http::read_response;
use crate::stats::{percentile, Refused};
use rll_obs::Stopwatch;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// The latency limit every step is held to (p99 and generator lateness).
pub const LIMIT_SECS: f64 = 0.002;
/// A step fails when it completes less than this share of the offered rate.
pub const MIN_ACHIEVED_SHARE: f64 = 0.97;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Connection index (`< conns`).
    pub conn: usize,
    /// Seconds after the step's start at which the request is due.
    pub due: f64,
    /// Index of its pre-serialized bytes in the step's body table (long
    /// steps cycle through a table instead of holding every request).
    pub body: usize,
}

/// What happened to one request; `None` in [`run`]'s output is a transport
/// failure (no response).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When the sender wrote it, seconds after the step's start.
    pub sent: f64,
    /// When its response was read, seconds after the step's start.
    pub done: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

impl Outcome {
    /// Latency from the due time.
    pub fn latency(&self, due: f64) -> f64 {
        self.done - due
    }
}

/// Evenly spaced due times for `count` requests at `rate` per second,
/// round-robin over `conns` connections: `(conn, due)`.
pub fn schedule(rate: f64, count: usize, conns: usize) -> impl Iterator<Item = (usize, f64)> {
    (0..count).map(move |i| (i % conns, i as f64 / rate))
}

/// Runs `requests` (whose bytes are `bodies[request.body]`) against `addr`
/// over `conns` connections and returns one entry per request, in input
/// order. Connections are opened before the step's clock starts.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    requests: &[Request],
    bodies: &[Vec<u8>],
) -> Vec<Option<Outcome>> {
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for (i, request) in requests.iter().enumerate() {
        per_conn[request.conn % conns].push(i);
    }
    for indices in &mut per_conn {
        indices.sort_by(|&a, &b| requests[a].due.total_cmp(&requests[b].due));
    }
    let streams: Vec<Option<TcpStream>> = (0..conns).map(|_| connect(addr).ok()).collect();
    let clock = Stopwatch::start();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (indices, stream) in per_conn.iter().zip(streams) {
            let Some(stream) = stream else { continue };
            let (Ok(reader), Ok(closer)) = (stream.try_clone(), stream.try_clone()) else {
                continue;
            };
            let sender = scope.spawn(move || send_loop(stream, indices, requests, bodies, clock));
            let receiver = scope.spawn(move || receive_loop(reader, closer, indices.len(), clock));
            handles.push((indices, sender, receiver));
        }
        for (indices, sender, receiver) in handles {
            let sent = sender.join().unwrap_or_default();
            let received = receiver.join().unwrap_or_default();
            for ((&i, sent), got) in indices.iter().zip(sent).zip(received) {
                outcomes[i] = got.map(|(done, status, body)| Outcome {
                    sent,
                    done,
                    status,
                    body,
                });
            }
        }
    });
    outcomes
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    Ok(stream)
}

/// Writes this connection's requests at their due times; returns the send
/// times (shorter than `indices` if a write failed).
fn send_loop(
    mut stream: TcpStream,
    indices: &[usize],
    requests: &[Request],
    bodies: &[Vec<u8>],
    clock: Stopwatch,
) -> Vec<f64> {
    let mut sent = Vec::with_capacity(indices.len());
    for &i in indices {
        let request = &requests[i];
        let wait = request.due - clock.elapsed_secs();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        sent.push(clock.elapsed_secs());
        if stream.write_all(&bodies[request.body]).is_err() {
            // Unblock the receiver: no response is coming for the rest.
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
    }
    sent
}

type Received = Option<(f64, u16, Vec<u8>)>;

/// Reads `expected` responses in order; a read failure ends the connection
/// and leaves the rest unanswered.
fn receive_loop(
    stream: TcpStream,
    closer: TcpStream,
    expected: usize,
    clock: Stopwatch,
) -> Vec<Received> {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut line = Vec::new();
    let mut out: Vec<Received> = Vec::with_capacity(expected);
    while out.len() < expected {
        match read_response(&mut reader, &mut line) {
            Ok((status, body)) => out.push(Some((clock.elapsed_secs(), status, body))),
            Err(_) => {
                let _ = closer.shutdown(Shutdown::Both);
                break;
            }
        }
    }
    out.resize(expected, None);
    out
}

/// How one step went, judged against [`LIMIT_SECS`] and
/// [`MIN_ACHIEVED_SHARE`].
#[derive(Debug, Clone)]
pub struct StepStats {
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub requests: usize,
    /// Requests without a valid response (they count as missing the limit).
    pub failed: usize,
    pub p50_s: f64,
    pub p99_s: f64,
    pub lateness_p99_s: f64,
}

impl StepStats {
    /// Each pass criterion as a share of its limit: p99 latency, generator
    /// lateness, and backlog (offered over achieved rate).
    pub fn criteria(&self) -> [f64; 3] {
        let backlog = if self.achieved_rps > 0.0 {
            MIN_ACHIEVED_SHARE * self.offered_rps / self.achieved_rps
        } else {
            f64::INFINITY
        };
        [
            self.p99_s / LIMIT_SECS,
            self.lateness_p99_s / LIMIT_SECS,
            backlog,
        ]
    }

    /// The worst criterion; the step passes when this is at most 1.
    pub fn load_factor(&self) -> f64 {
        self.criteria().into_iter().fold(0.0, f64::max)
    }

    pub fn passes(&self) -> bool {
        self.load_factor() <= 1.0
    }
}

/// Summarises one step. `ok[i]` says whether request `i` got a valid
/// response; failed requests enter the latency distribution as infinitely
/// late.
pub fn summarize(
    offered_rps: f64,
    requests: &[Request],
    outcomes: &[Option<Outcome>],
    ok: &[bool],
) -> Result<StepStats, Refused> {
    let mut latencies = Vec::with_capacity(requests.len());
    let mut lateness = Vec::with_capacity(requests.len());
    let mut failed = 0;
    let mut completed = 0usize;
    let mut last_done: f64 = 0.0;
    for ((request, outcome), &good) in requests.iter().zip(outcomes).zip(ok) {
        match outcome {
            Some(o) if good => {
                latencies.push(o.latency(request.due));
                lateness.push(o.sent - request.due);
                completed += 1;
                last_done = last_done.max(o.done);
            }
            _ => {
                failed += 1;
                latencies.push(f64::INFINITY);
            }
        }
    }
    Ok(StepStats {
        offered_rps,
        achieved_rps: if last_done > 0.0 {
            completed as f64 / last_done
        } else {
            0.0
        },
        requests: requests.len(),
        failed,
        p50_s: percentile(&latencies, 0.5)?,
        p99_s: percentile(&latencies, 0.99)?,
        // Lateness is known for answered requests only; too few of them
        // fails the step, which the failures do anyway.
        lateness_p99_s: percentile(&lateness, 0.99).unwrap_or(f64::INFINITY),
    })
}

/// Geometric rates `reference·lo·ratio^k` up to `reference·hi`.
pub fn ladder_rates(reference: f64, lo: f64, hi: f64, ratio: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut share = lo;
    while share <= hi * (1.0 + 1e-9) {
        rates.push(reference * share);
        share *= ratio;
    }
    rates
}

/// A ladder's steps and the capacity read from them.
#[derive(Debug, Clone)]
pub struct LadderResult {
    pub steps: Vec<StepStats>,
    /// Highest rate meeting the limit: where the criterion that failed
    /// crosses its limit, interpolating log criterion against log rate
    /// between the last passing and the first failing step.
    pub capacity_rps: f64,
    /// The top step passed, so capacity is at least `capacity_rps`.
    pub at_top: bool,
}

/// Runs `step` at each rate in turn and stops at the first failing step.
pub fn run_ladder<E>(
    rates: &[f64],
    mut step: impl FnMut(f64) -> Result<StepStats, E>,
) -> Result<LadderResult, E> {
    let mut steps: Vec<StepStats> = Vec::new();
    for &rate in rates {
        let stats = step(rate)?;
        let passed = stats.passes();
        steps.push(stats);
        if !passed {
            break;
        }
    }
    let at_top = steps.len() == rates.len() && steps.last().is_some_and(StepStats::passes);
    Ok(LadderResult {
        capacity_rps: capacity(&steps),
        at_top,
        steps,
    })
}

/// Interpolates the rate at which the failing criterion crosses its limit.
/// Interpolating the load factor instead would flatten against the backlog
/// criterion, which sits just under 1 at every rate the server keeps up
/// with, and pin the capacity to the last passing step.
fn capacity(steps: &[StepStats]) -> f64 {
    match steps {
        [] => 0.0,
        [only] if !only.passes() => only.offered_rps / only.load_factor(),
        [.., pass, fail] if pass.passes() && !fail.passes() => {
            let failing = fail.criteria();
            let worst = (0..failing.len())
                .max_by(|&a, &b| failing[a].total_cmp(&failing[b]))
                .unwrap_or(0);
            let (f0, f1) = (pass.criteria()[worst].ln(), failing[worst].ln());
            let t = if f1.is_finite() && f1 > f0 {
                (-f0 / (f1 - f0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            pass.offered_rps * (fail.offered_rps / pass.offered_rps).powf(t)
        }
        [.., last] => last.offered_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};
    use std::net::TcpListener;

    /// An in-process HTTP server answering every request with `200 ok`,
    /// after `delay(request_index)` of extra service time.
    fn fake_server(delay: impl Fn(usize) -> Duration + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut index = 0;
            loop {
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let line = line.trim_end();
                    if line.is_empty() {
                        break;
                    }
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        length = v.parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                std::thread::sleep(delay(index));
                index += 1;
                if writer
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .is_err()
                {
                    return;
                }
            }
        });
        addr
    }

    fn requests(rate: f64, count: usize) -> Vec<Request> {
        schedule(rate, count, 1)
            .map(|(conn, due)| Request { conn, due, body: 0 })
            .collect()
    }

    fn bodies() -> Vec<Vec<u8>> {
        vec![crate::http::request_bytes("POST", "/x", "{}")]
    }

    #[test]
    fn a_stall_delays_every_request_due_during_it() {
        // 1000 req/s; request 100 (due at 100 ms) stalls the server 60 ms.
        let addr = fake_server(|i| Duration::from_millis(if i == 100 { 60 } else { 0 }));
        let reqs = requests(1000.0, 1200);
        let outcomes = run(addr, 1, &reqs, &bodies());
        assert!(outcomes.iter().all(Option::is_some));
        let latency = |i: usize| outcomes[i].as_ref().unwrap().latency(reqs[i].due);
        assert!(latency(100) >= 0.060);
        // Request 120 was due 20 ms into the stall: timed from its due time
        // it waited out the remaining ~40 ms, although the server handled
        // it quickly once it got to it.
        assert!(latency(120) >= 0.035, "latency {}", latency(120));
        // The backlog drains well before the end of the step.
        assert!(latency(1199) < 0.060);
        let ok = vec![true; reqs.len()];
        let stats = summarize(1000.0, &reqs, &outcomes, &ok).unwrap();
        assert!(stats.p99_s >= 0.035);
        assert!(!stats.passes());
    }

    #[test]
    fn a_server_that_falls_behind_shows_a_backlog() {
        // The server needs 1 ms per request: 2000 req/s builds a backlog.
        let addr = fake_server(|_| Duration::from_millis(1));
        let reqs = requests(2000.0, 1200);
        let outcomes = run(addr, 1, &reqs, &bodies());
        let ok: Vec<bool> = outcomes.iter().map(Option::is_some).collect();
        let stats = summarize(2000.0, &reqs, &outcomes, &ok).unwrap();
        assert!(stats.achieved_rps < MIN_ACHIEVED_SHARE * 2000.0);
        assert!(!stats.passes());
    }

    #[test]
    fn failed_requests_count_as_missing_the_limit() {
        let reqs = requests(1000.0, 1000);
        let outcomes: Vec<Option<Outcome>> = reqs
            .iter()
            .map(|r| {
                Some(Outcome {
                    sent: r.due,
                    done: r.due + 0.0001,
                    status: 200,
                    body: Vec::new(),
                })
            })
            .collect();
        let mut ok = vec![true; reqs.len()];
        for flag in ok.iter_mut().take(11) {
            *flag = false;
        }
        let stats = summarize(1000.0, &reqs, &outcomes, &ok).unwrap();
        assert_eq!(stats.failed, 11);
        assert!(stats.p99_s.is_infinite());
        assert!(!stats.passes());
    }

    fn fake_step(rate: f64, knee: f64) -> StepStats {
        StepStats {
            offered_rps: rate,
            achieved_rps: rate,
            requests: 1000,
            failed: 0,
            p50_s: 0.0001,
            p99_s: LIMIT_SECS * (rate / knee).powi(4),
            lateness_p99_s: 0.0001,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let rates = ladder_rates(1000.0, 0.7, 1.6, 1.1);
        assert_eq!(rates.len(), 9);
        let mut ran = Vec::new();
        let result = run_ladder::<()>(&rates, |rate| {
            ran.push(rate);
            Ok(fake_step(rate, 1000.0))
        })
        .unwrap();
        // 0.7, 0.77, 0.847, 0.9317 pass; 1.0249 fails and ends the ladder.
        assert_eq!(ran.len(), 5);
        assert!(!result.at_top);
        // p99 ∝ rate⁴ crosses the limit exactly at the knee.
        assert!((result.capacity_rps - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn ladder_flags_a_capacity_above_its_top() {
        let rates = ladder_rates(1000.0, 0.7, 1.6, 1.1);
        let result = run_ladder::<()>(&rates, |rate| Ok(fake_step(rate, 5000.0))).unwrap();
        assert!(result.at_top);
        assert_eq!(result.steps.len(), rates.len());
        assert_eq!(result.capacity_rps, rates[rates.len() - 1]);
    }

    #[test]
    fn ladder_detects_backlog_through_the_achieved_rate() {
        let rates = ladder_rates(1000.0, 0.7, 1.6, 1.1);
        let result = run_ladder::<()>(&rates, |rate| {
            let mut stats = fake_step(rate, 1e9);
            // A server that tops out at 900 req/s falls behind quietly.
            stats.achieved_rps = rate.min(900.0);
            Ok(stats)
        })
        .unwrap();
        let last = result.steps.last().unwrap();
        assert!(!last.passes());
        assert!(last.offered_rps > 900.0 / MIN_ACHIEVED_SHARE);
        assert!(result.capacity_rps > 847.0 && result.capacity_rps < last.offered_rps);
    }

    #[test]
    fn schedule_is_round_robin_at_fixed_spacing() {
        assert_eq!(
            schedule(100.0, 4, 2).collect::<Vec<_>>(),
            vec![(0, 0.0), (1, 0.01), (0, 0.02), (1, 0.03)]
        );
    }
}
