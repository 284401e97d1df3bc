//! Building and driving the `benchkit` binary: timed subprocesses with
//! their peak resident set, and daemons started, timed to readiness and
//! drained with SIGTERM.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn sync();
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
}

const WNOHANG: i32 = 1;

/// Wait for `pid` (`options` 0) or poll it (`WNOHANG`), returning its wait
/// status and peak resident set in KiB once it has exited. `struct rusage`
/// on 64-bit Linux is two `timeval`s and fourteen longs: eighteen 8-byte
/// words, `ru_maxrss` at word 4.
fn wait_child(pid: u32, options: i32) -> Result<Option<(i32, u64)>, String> {
    let mut status = 0i32;
    let mut usage = [0i64; 18];
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // sizes wait4(2) writes on this platform (an int and a 144-byte
        // struct rusage); the pid is a child this process spawned and has
        // not reaped yet.
        let rc = unsafe { wait4(pid as i32, &mut status, options, &mut usage) };
        if rc == pid as i32 {
            return Ok(Some((status, usage[4].max(0) as u64)));
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// Reap `pid`, blocking until it exits.
fn reap(pid: u32) -> Result<(i32, u64), String> {
    Ok(wait_child(pid, 0)?.expect("a blocking wait4 returns only on exit"))
}

/// Reap `pid`, killing it when it has not exited within `grace`.
fn reap_within(pid: u32, grace: Duration) -> Result<(i32, u64), String> {
    let start = Instant::now();
    while start.elapsed() < grace {
        if let Some(done) = wait_child(pid, WNOHANG)? {
            return Ok(done);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    signal(pid, SIGKILL);
    reap(pid)
}

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers; the pid is an unreaped child
    // of this process, so it cannot name an unrelated process.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Exit code of a wait status, or 128 + signal for a killed process.
fn exit_code(status: i32) -> i32 {
    if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    }
}

/// Build the release `benchkit` binary from the checkout at `root` and
/// return its path. Honors `CARGO_TARGET_DIR`.
pub fn ensure_benchkit(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "benchkit",
        ])
        .args(["--bin", "benchkit"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building benchkit failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("benchkit");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// Flush every dirty page to disk before measuring. Fresh build output
/// still being written back makes each fsync of the store, checkpoint
/// journal and WAL wait behind it, which would charge a build's writeback
/// to the first runs after it.
pub fn sync_disks() {
    // SAFETY: sync(2) takes no arguments, cannot fail and touches no
    // memory of this process.
    unsafe { sync() }
}

/// A finished `benchkit` invocation.
#[derive(Debug, Clone)]
pub struct Finished {
    pub wall_s: f64,
    pub code: i32,
    pub maxrss_kb: u64,
    pub stdout: String,
    pub stderr: String,
}

/// Run `bin args…` with `env` added to its environment, to completion,
/// with its output captured in files under `scratch`; timed spawn to exit.
pub fn run(
    bin: &Path,
    args: &[String],
    env: &[(&str, &str)],
    scratch: &Path,
) -> Result<Finished, String> {
    let out_path = scratch.join("stdout.txt");
    let err_path = scratch.join("stderr.txt");
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let (status, maxrss_kb) = reap(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    Ok(Finished {
        wall_s,
        code: exit_code(status),
        maxrss_kb,
        stdout: read(&out_path)?,
        stderr: read(&err_path)?,
    })
}

/// A running `benchkit serve`.
pub struct Daemon {
    pid: u32,
    pub addr: String,
    /// Spawn to the `serving … on` readiness line.
    pub setup_s: f64,
    /// Records the daemon replayed from its WAL at start.
    pub recovered: u64,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

/// What a drained daemon reported.
#[derive(Debug, Clone)]
pub struct DaemonExit {
    pub code: i32,
    pub maxrss_kb: u64,
    /// Records durable in the WAL, from the `serve: drained` line.
    pub durable: Option<u64>,
}

const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a SIGTERM'd daemon may take to drain before it is killed
/// (and its exit code shows the kill).
const DRAIN_GRACE: Duration = Duration::from_secs(30);

impl Daemon {
    /// Start `benchkit serve dir` on a free loopback port and wait for it
    /// to announce readiness.
    pub fn start(bin: &Path, dir: &Path, log: &Path) -> Result<Daemon, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            pid: child.id(),
            addr: String::new(),
            setup_s: 0.0,
            recovered: 0,
            lines: rx,
            reader: Some(reader),
        };
        loop {
            match daemon.lines.recv_timeout(READY_TIMEOUT) {
                Ok(line) => {
                    if let Some(n) = line
                        .strip_prefix("serve: recovered ")
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|n| n.parse().ok())
                    {
                        daemon.recovered = n;
                    }
                    if line.starts_with("serving ") {
                        daemon.setup_s = start.elapsed().as_secs_f64();
                        let addr = line.split(" on ").nth(1).and_then(|r| r.split(' ').next());
                        daemon.addr = addr.unwrap_or_default().to_string();
                        return Ok(daemon);
                    }
                }
                Err(e) => {
                    let why = match e {
                        RecvTimeoutError::Timeout => "timed out",
                        RecvTimeoutError::Disconnected => "exited",
                    };
                    daemon.kill();
                    return Err(format!(
                        "serve {} {why} before readiness: {}",
                        dir.display(),
                        std::fs::read_to_string(log).unwrap_or_default().trim()
                    ));
                }
            }
        }
    }

    fn kill(&mut self) {
        signal(self.pid, SIGKILL);
        let _ = reap(self.pid);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }

    /// Drain with SIGTERM, reap, and collect the summary line. A daemon
    /// dropped without `stop` is killed instead.
    pub fn stop(mut self) -> Result<DaemonExit, String> {
        signal(self.pid, SIGTERM);
        let (status, maxrss_kb) = reap_within(self.pid, DRAIN_GRACE)?;
        if let Some(r) = self.reader.take() {
            r.join()
                .map_err(|_| "daemon stdout reader panicked".to_string())?;
        }
        let durable = self
            .lines
            .try_iter()
            .filter_map(|l| {
                l.strip_prefix("serve: drained")?
                    .split(", ")
                    .find_map(|part| part.strip_suffix(" records durable")?.parse().ok())
            })
            .last();
        Ok(DaemonExit {
            code: exit_code(status),
            maxrss_kb,
            durable,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.kill();
        }
    }
}
