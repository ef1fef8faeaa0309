//! What the numbers were measured on: host and run metadata for every
//! result file, process memory from `/proc`, and the scratch directory the
//! durable workloads write to.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `/proc/self/status` field `key` (e.g. `VmRSS`, `VmHWM`) in bytes; `0`
/// where `/proc` is absent.
pub fn proc_status_bytes(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Nanoseconds this core needs right now for a fixed, cache-free chain of
/// dependent integer operations (≈ 1 ms at this host's usual speed).
///
/// The host is a shared virtual machine whose cores run at one of several
/// speeds, a quarter apart, for seconds to minutes at a time. Compute-bound
/// single-thread work scales with that speed exactly as this chain does, so
/// `paper_sim` divides it out; the serving workloads, bound by memory and
/// system calls, do not scale with it and report wall time untouched.
pub fn speed_probe_ns() -> f64 {
    let began = std::time::Instant::now();
    let mut x = 1u64;
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        acc ^= x >> 33;
    }
    std::hint::black_box(acc);
    began.elapsed().as_nanos() as f64
}

/// The probe time all normalised timings are scaled to: a constant, so
/// normalised seconds mean the same in every run on one host.
pub const PROBE_REFERENCE_NS: f64 = 1_000_000.0;

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory of its own under `bench_out/` of the working
/// directory (the benchmark reads and writes only inside its checkout),
/// named by pid and a per-process counter, removed on drop — on success,
/// on a failed check, and on a panic that unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            PathBuf::from("bench_out").join(format!("e2e-scratch-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `device (fstype)` of the mount holding `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), format!("{dev} ({fstype})")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    // `output()` waits for the child, so nothing is left running
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD` of the repository the working directory is the root of. Anywhere
/// else (the driver's checkout is not a repository) git is not run at all:
/// it would search the parent directories, outside the checkout.
fn git_commit() -> String {
    if Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// Host metadata written into every result file. The commit is `unknown`
/// in a checkout that is not a git repository.
pub fn metadata() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    Json::obj([
        ("nproc", nproc.into()),
        ("kernel", Json::str(kernel)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("git_commit", Json::str(git_commit())),
        ("scratch_filesystem", Json::str(filesystem_of(Path::new(".")))),
        ("network", Json::str("loopback, same process")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(proc_status_bytes("VmRSS") > 0);
        assert!(proc_status_bytes("VmHWM") >= proc_status_bytes("VmRSS") / 2);
        assert_eq!(proc_status_bytes("NoSuchField"), 0);
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }

    #[test]
    fn scratch_is_removed_on_drop_and_sized() {
        let scratch = Scratch::create().unwrap();
        let dir = scratch.path().to_path_buf();
        std::fs::create_dir_all(dir.join("shard-000")).unwrap();
        std::fs::write(dir.join("shard-000/seg"), [0u8; 100]).unwrap();
        std::fs::write(dir.join("manifest"), [0u8; 11]).unwrap();
        assert_eq!(dir_bytes(&dir), 111);
        drop(scratch);
        assert!(!dir.exists());
    }
}
