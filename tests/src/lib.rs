//! Shared helpers for the workspace integration tests.
#![allow(missing_docs)]

/// Peak resident set of this process so far, MB (`VmHWM`). The footprint
/// tests run alone in their binaries, so the mark is the test's own.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("the kernel reports VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}
