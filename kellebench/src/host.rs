//! The host stamp printed with every result, and the process's peak memory.

use std::path::Path;
use std::process::Command;

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Worker threads available to the process.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or a digest of the sources outside a git
    /// checkout.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// One-minute load average before the run.
    pub load_avg: f64,
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
}

impl HostStamp {
    /// Stamps the current host; call before the run starts.
    pub fn take(workload: &'static str, seed: u64) -> Self {
        HostStamp {
            nproc: crate::workloads::host_parallelism(),
            commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| format!("src-{:016x}", source_digest(Path::new("crates")))),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            load_avg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
            workload,
            seed,
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"load_avg_1m\":{},\"workload\":\"{}\",\"seed\":{}}}",
            self.nproc,
            escape(&self.commit),
            escape(&self.rustc),
            self.load_avg,
            self.workload,
            self.seed
        )
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string()).filter(|s| !s.is_empty())
}

/// FNV-1a digest of every file under `root`, in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &byte in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
