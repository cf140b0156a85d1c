//! Where the benchmark's files live: everything under `<target>/perf/`,
//! next to the binary that runs, so a checkout stays clean and nothing is
//! written outside it.

use std::path::{Path, PathBuf};

/// `<target>/perf`, with `<target>` found from the running executable
/// (`<target>/release/dart-perf`, or `<target>/debug/deps/...` in tests).
pub fn perf_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf)
        .join("perf")
}

/// A private directory for one run's inputs (traces, fifo, snapshot),
/// removed on drop — also when the run panics.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = perf_root().join(format!("{label}-{}", std::process::id()));
        // A crashed earlier process may have left the same pid's directory.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_lives_under_the_target_dir_and_cleans_up() {
        let root = perf_root();
        assert!(root.ends_with("perf"));
        let kept = {
            let s = Scratch::new("scratch-test").unwrap();
            std::fs::write(s.path().join("x"), b"x").unwrap();
            assert!(s.path().starts_with(&root));
            s.path().to_path_buf()
        };
        assert!(!kept.exists());
    }
}
