//! The child guard: run one process under a wall timeout and an
//! address-space limit, and read its CPU time and peak RSS from `wait4`.
//!
//! An overloaded spec must be a counted failure, not an OOM-killed machine
//! (a scale campaign near saturation grew its event queue past 15 GiB).
//! Linux x86-64/aarch64 only: `struct rusage` is laid out by hand.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Address-space limit of every child (KiB, as `ulimit -v` takes it).
const AS_LIMIT_KIB: u64 = 4 * 1024 * 1024;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage`: two timevals, `ru_maxrss`, then 13 longs this tool
/// does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What one guarded child did.
#[derive(Debug)]
pub struct ChildRun {
    /// Host wall seconds from spawn to reap.
    pub wall_s: f64,
    /// User + system CPU seconds of the child (all its threads).
    pub cpu_s: f64,
    /// `ru_maxrss` in MiB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal ended it (timeout kill, rlimit abort).
    pub exit_code: Option<i32>,
    pub timed_out: bool,
    pub stdout: Vec<u8>,
}

impl ChildRun {
    /// `Err` with a one-line reason unless the child exited 0 in time.
    pub fn exited_cleanly(&self) -> Result<(), String> {
        if self.timed_out {
            return Err(format!("timed out after {:.0} s", self.wall_s));
        }
        match self.exit_code {
            Some(0) => Ok(()),
            Some(c) => Err(format!("exit code {c}")),
            None => Err("killed by a signal (address-space limit?)".into()),
        }
    }
}

/// Run `argv` to completion under `timeout` and the address-space limit,
/// with stderr sent to `stderr_path`.
pub fn run_guarded(
    argv: &[String],
    timeout: Duration,
    stderr_path: &Path,
) -> std::io::Result<ChildRun> {
    // `sh` sets the limit and execs the program in place, so the pid that
    // is waited for is the program's own.
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(format!("ulimit -v {AS_LIMIT_KIB}; exec \"$@\""))
        .arg("sh")
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(stderr_path)?);
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id() as i32;

    let reaped = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = {
        let reaped = Arc::clone(&reaped);
        std::thread::spawn(move || {
            let expired = done_rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
            if expired && !reaped.load(Ordering::SeqCst) {
                // SAFETY: plain syscall; `pid` is our un-reaped child (the
                // flag is set only after `wait4` returned).
                unsafe { kill(pid, SIGKILL) };
            }
            expired
        })
    };

    let mut stdout = Vec::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_end(&mut stdout)?;
    }
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: both pointers are to live, correctly sized locals; `wait4`
    // writes at most `sizeof(struct rusage)` = 144 bytes, the size of
    // `Rusage`. This reaps the child, so `child.wait()` is never called.
    let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    reaped.store(true, Ordering::SeqCst);
    let wall_s = start.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    if got != pid {
        return Err(std::io::Error::last_os_error());
    }
    let exited = status & 0x7f == 0;
    Ok(ChildRun {
        wall_s,
        cpu_s: ru.utime.seconds() + ru.stime.seconds(),
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
        exit_code: exited.then_some((status >> 8) & 0xff),
        timed_out,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout_ms: u64) -> ChildRun {
        let dir = std::env::temp_dir().join(format!("bench-e2e-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let argv = ["sh".to_string(), "-c".to_string(), script.to_string()];
        let err = dir.join(format!("{}.stderr", script.len()));
        run_guarded(&argv, Duration::from_millis(timeout_ms), &err).unwrap()
    }

    #[test]
    fn captures_stdout_exit_code_and_rusage() {
        let ok = sh("echo hello", 5000);
        assert_eq!(ok.stdout, b"hello\n");
        assert!(ok.exited_cleanly().is_ok());
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.1, "{ok:?}");
        let bad = sh("exit 3", 5000);
        assert_eq!(bad.exit_code, Some(3));
        assert!(bad.exited_cleanly().is_err());
    }

    #[test]
    fn cpu_time_is_the_childs_own() {
        let busy = sh("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done", 20000);
        assert!(busy.cpu_s > 0.01, "{busy:?}");
        assert!(busy.cpu_s <= busy.wall_s * 1.5 + 0.05, "{busy:?}");
    }

    #[test]
    fn peak_rss_is_the_childs_own_not_the_spawners() {
        // A fork-then-exec helper can report the parent's pre-exec RSS for
        // every child; two children of different size must read apart.
        let small = sh("exec true", 5000);
        let big = sh("x=$(head -c 30000000 /dev/zero | tr '\\0' a); :", 20000);
        assert!(big.exited_cleanly().is_ok(), "{big:?}");
        assert!(
            big.peak_rss_mb > small.peak_rss_mb + 20.0,
            "small {} MiB, big {} MiB",
            small.peak_rss_mb,
            big.peak_rss_mb
        );
    }

    #[test]
    fn timeout_kills_and_is_reported() {
        let hung = sh("exec sleep 30", 200);
        assert!(hung.timed_out, "{hung:?}");
        assert!(hung.wall_s < 5.0);
        assert!(hung.exited_cleanly().unwrap_err().contains("timed out"));
    }
}
