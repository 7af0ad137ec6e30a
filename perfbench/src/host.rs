//! Where a record was measured: the host fingerprint and commit every
//! record carries, and the process's peak resident set.

use std::fs;
use std::path::Path;
use std::process::Command;

/// The facts that make two records comparable.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").trim().to_string()
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = first_line(&fs::read_to_string(git.join("HEAD")).ok()?);
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(first_line(&id));
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

impl Fingerprint {
    /// Reads the fingerprint of this host and of the checkout at the
    /// working directory.
    pub fn read() -> Fingerprint {
        let unknown = || "unknown".to_string();
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| first_line(&s))
            .unwrap_or_else(|_| unknown());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
            .unwrap_or_else(unknown);
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            kernel,
            rustc,
            commit: git_commit(Path::new(".")).unwrap_or_else(unknown),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
