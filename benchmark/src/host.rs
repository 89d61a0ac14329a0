//! Where the numbers were measured: recorded in every output header so a
//! ledger row is never compared across machines by accident.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub git_head: String,
}

impl Host {
    pub fn probe() -> Self {
        let unknown = || "unknown".to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            // The driver's checkout is not a git repository.
            git_head: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

/// `VmHWM`: the process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn probing_never_fails() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(!h.cpu.is_empty() && !h.rustc.is_empty() && !h.git_head.is_empty());
        assert_eq!(command_line("no-such-program-on-this-host", &[]), None);
    }
}
