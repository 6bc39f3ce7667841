//! The `serve` binary as a child process: spawn, wait for health, measure,
//! stop. The binary is found next to the benchmark's own executable.

use crate::http::Client;
use crate::report;
use rll_obs::Stopwatch;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a server may take to answer its first `/healthz`.
const START_TIMEOUT_SECS: f64 = 60.0;

/// `serve`, built beside this executable.
pub fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p rll-serve --bin serve` into the same target directory",
            bin.display()
        ))
    }
}

/// The line `serve` prints once its listener is bound.
const LISTENING: &str = "rll-serve listening on ";

/// A running `serve` child; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    /// Copies the child's standard output into `serve.log` until it closes.
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `serve` with `args` (plus an ephemeral address) in `dir`, and
    /// returns it with the seconds from spawn to the first `200` from
    /// `/healthz`.
    ///
    /// The address comes from the line `serve` prints once it listens, read
    /// from a pipe as it is written: polling for a port file instead put the
    /// start-up time on the polling interval's grid.
    pub fn start(bin: &Path, dir: &Path, args: &[String]) -> Result<(Server, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log_path = dir.join("serve.log");
        let mut log =
            std::fs::File::create(&log_path).map_err(|e| format!("create serve.log: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("serve.log: {e}"))?;
        let clock = Stopwatch::start();
        let mut child = Command::new(bin)
            .args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("serve has no stdout pipe")?;
        let (addr_tx, addr_rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix(LISTENING) {
                    let _ = addr_tx.send(addr.trim().parse::<SocketAddr>());
                }
                let _ = writeln!(log, "{line}");
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let start_failed = |server: &mut Server, why: &str| {
            server.reap();
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            format!("serve {why} during start-up:\n{log}")
        };
        server.addr = match addr_rx.recv_timeout(Duration::from_secs_f64(START_TIMEOUT_SECS)) {
            Ok(Ok(addr)) => addr,
            Ok(Err(e)) => {
                return Err(start_failed(
                    &mut server,
                    &format!("printed a bad address ({e})"),
                ))
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err(start_failed(&mut server, "did not listen in time"))
            }
            Err(RecvTimeoutError::Disconnected) => return Err(start_failed(&mut server, "exited")),
        };
        loop {
            let healthy = Client::connect(server.addr)
                .and_then(|mut c| c.call("GET", "/healthz", ""))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                return Ok((server, clock.elapsed_secs()));
            }
            if matches!(server.child.try_wait(), Ok(Some(_))) {
                return Err(start_failed(&mut server, "exited"));
            }
            if clock.elapsed_secs() > START_TIMEOUT_SECS {
                return Err(start_failed(&mut server, "did not answer /healthz in time"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak resident set of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        report::peak_rss_mb(&self.child.id().to_string())
    }

    /// CPU seconds the server process has used, all threads.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        report::cpu_secs(&self.child.id().to_string())
    }

    /// CPU seconds used by the server's live threads named `name`.
    pub fn thread_cpu_secs(&self, name: &str) -> Result<f64, String> {
        let pid = self.child.id();
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
            .map_err(|e| format!("cannot list threads of {pid}: {e}"))?;
        let mut total = 0.0;
        for task in tasks.flatten() {
            let tid = task.file_name().to_string_lossy().into_owned();
            let comm =
                std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/comm")).unwrap_or_default();
            if comm.trim() == name {
                total += report::cpu_secs(&format!("{pid}/task/{tid}"))?;
            }
        }
        Ok(total)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Kills the process (`SIGKILL`, as a crash would) and waits for it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe closed with the process, so the drain thread ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Copies a flat directory (the WAL and checkpoint files are flat).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
