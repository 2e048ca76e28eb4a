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

/// A `BENCH_*.json` text cut to its deterministic keys: every line but the
/// `"host"` one (it describes the machine), each cut before `wall_s`, the
/// first wall-clock key (`events_per_sec` and `speedup`, which divide by
/// it, follow it).
fn deterministic_keys(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|l| !l.trim_start().starts_with("\"host\""))
        .map(|l| l.split(", \"wall_s\"").next().unwrap_or(l))
        .collect()
}

/// Hold the JSON a table attaches (`Table::attached`) against the
/// checked-in file of the same name at the repo root, key for key, minus
/// the wall-clock ones.
pub fn assert_matches_checked_in(attached: Option<(&str, &str)>, name: &str) {
    let (attached_name, fresh) = attached.unwrap_or_else(|| panic!("no JSON attached for {name}"));
    assert_eq!(attached_name, name);
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    let checked_in =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} is checked in: {e}"));
    assert_eq!(
        deterministic_keys(fresh),
        deterministic_keys(&checked_in),
        "a deterministic {name} key drifted"
    );
}
