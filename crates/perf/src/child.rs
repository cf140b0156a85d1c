//! Driving the shipped `dartmon` binary as a subprocess: every wait has a
//! timeout, and a child never outlives the benchmark — not on an error
//! return and not on a panic.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often a waiting loop looks at the child. Short against the
/// shortest repetition (~100 ms), so the exit is seen within 0.2 % of it.
const POLL: Duration = Duration::from_micros(200);

/// No single `dartmon analyze` may take longer than this.
pub const ANALYZE_TIMEOUT: Duration = Duration::from_secs(60);

/// Kills and reaps the child when dropped.
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    pub fn spawn(cmd: &mut Command) -> Result<ChildGuard, String> {
        cmd.spawn()
            .map(|child| ChildGuard { child })
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `Some(success)` once the child has exited.
    pub fn exited(&mut self) -> Result<Option<bool>, String> {
        self.child
            .try_wait()
            .map(|status| status.map(|s| s.success()))
            .map_err(|e| format!("wait for child: {e}"))
    }

    /// Wait for the exit, calling `on_poll(pid)` between looks; `Err`
    /// after `timeout` (the drop then kills the child).
    pub fn wait(
        &mut self,
        timeout: Duration,
        mut on_poll: impl FnMut(u32),
    ) -> Result<bool, String> {
        let start = Instant::now();
        loop {
            if let Some(success) = self.exited()? {
                return Ok(success);
            }
            if start.elapsed() > timeout {
                return Err(format!(
                    "child {} still running after {timeout:?}",
                    self.pid()
                ));
            }
            on_poll(self.pid());
            std::thread::sleep(POLL);
        }
    }
}

impl ChildGuard {
    /// Kill and reap the child now. Both calls fail harmlessly when it was
    /// already reaped.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The `dartmon` binary under test.
#[derive(Clone, Debug)]
pub struct Dartmon {
    path: PathBuf,
}

impl Dartmon {
    /// `--dartmon PATH`, or the sibling of the running executable (both
    /// come out of the same `cargo build`). A missing binary is an error,
    /// never a silent fallback to some other build on the `PATH`.
    pub fn locate(explicit: Option<&str>) -> Result<Dartmon, String> {
        let path = match explicit {
            Some(p) => PathBuf::from(p),
            None => std::env::current_exe()
                .map_err(|e| format!("current_exe: {e}"))?
                .with_file_name("dartmon"),
        };
        if !path.is_file() {
            return Err(format!(
                "dartmon binary not found at {} — build it with \
                 `cargo build --release -p dart-tools -p dart-perf` or pass --dartmon PATH",
                path.display()
            ));
        }
        Ok(Dartmon { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Run `dartmon analyze <file> <flags>` to completion and return the
    /// wall time from spawn to exit. The report is discarded (the gate
    /// reads `--csv` and `--metrics-prom` files instead); stderr lands in
    /// `log` so a failure can say why. A non-zero exit is an error.
    pub fn analyze(
        &self,
        file: &Path,
        flags: &[String],
        log: &Path,
        on_poll: impl FnMut(u32),
    ) -> Result<Duration, String> {
        let stderr =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut cmd = Command::new(&self.path);
        cmd.arg("analyze")
            .arg(file)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        let start = Instant::now();
        let mut child = ChildGuard::spawn(&mut cmd)?;
        let success = child.wait(ANALYZE_TIMEOUT, on_poll)?;
        let wall = start.elapsed();
        if !success {
            return Err(format!(
                "dartmon analyze {} {} exited non-zero: {}",
                file.display(),
                flags.join(" "),
                std::fs::read_to_string(log).unwrap_or_default().trim()
            ));
        }
        Ok(wall)
    }
}
