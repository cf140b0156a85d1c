//! The little the benchmark needs from the operating system: a fifo with
//! a known buffer size, and a child's memory and CPU books from `/proc`.
//! Linux only, like the daemon's own fifo ingest path.

#![allow(unsafe_code)]

use std::ffi::CString;
use std::fs::File;
use std::os::fd::AsRawFd;
use std::os::raw::{c_char, c_int};
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};

extern "C" {
    fn mkfifo(path: *const c_char, mode: u32) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

/// Linux `F_SETPIPE_SZ` (`<linux/fcntl.h>`: `F_LINUX_SPECIFIC_BASE + 7`).
const F_SETPIPE_SZ: c_int = 1031;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports CPU time.
/// `USER_HZ` is 100 on every Linux architecture this repository builds on.
const USER_HZ: f64 = 100.0;

pub fn make_fifo(path: &Path) -> std::io::Result<()> {
    let c_path = CString::new(path.as_os_str().as_bytes())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // SAFETY: `c_path` is a valid NUL-terminated string that outlives the
    // call, and mkfifo(3) reads nothing else.
    let rc = unsafe { mkfifo(c_path.as_ptr(), 0o600) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Ask for a pipe buffer of `bytes`; returns the size the kernel granted
/// (it rounds up to a page multiple and refuses above
/// `/proc/sys/fs/pipe-max-size`).
pub fn set_pipe_size(pipe: &File, bytes: usize) -> std::io::Result<usize> {
    let arg = c_int::try_from(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // SAFETY: the descriptor is open for the lifetime of `pipe`, and
    // F_SETPIPE_SZ takes one int argument and touches no memory of ours.
    let rc = unsafe { fcntl(pipe.as_raw_fd(), F_SETPIPE_SZ, arg) };
    usize::try_from(rc).map_err(|_| std::io::Error::last_os_error())
}

fn proc_file(pid: u32, name: &str) -> PathBuf {
    PathBuf::from(format!("/proc/{pid}/{name}"))
}

/// Peak resident set (`VmHWM`) of a live process in MB, `None` once it is
/// gone (a zombie has no memory map left to report).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(proc_file(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds a live process has consumed.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_file(pid, "stat")).ok()?;
    // The command name may hold spaces; fields are positional after the
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_memory_and_cpu_books() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.5);
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), None);
    }

    #[test]
    fn fifo_is_created_and_resized() {
        let dir = crate::scratch::Scratch::new("sys-test").unwrap();
        let path = dir.path().join("t.fifo");
        make_fifo(&path).unwrap();
        assert!(
            make_fifo(&path).is_err(),
            "second mkfifo must report EEXIST"
        );
        let keeper = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let granted = set_pipe_size(&keeper, 1 << 20).unwrap();
        assert!(granted >= 1 << 20);
    }
}
