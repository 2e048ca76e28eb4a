//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures <id>...          # one or more of the experiment ids
//! figures all              # everything, in paper order
//! figures all --jobs 4     # fan grid cells out across 4 worker threads
//! figures list             # show available ids
//! ```
//!
//! `--jobs N` (or `--jobs=N`) sets the worker count for the parallel
//! experiment runner; the default is the machine's available
//! parallelism and `--jobs 1` is the serial path. Output on stdout is
//! byte-identical for every worker count — the per-cell timing report
//! goes to stderr.
//!
//! `--seed N` (or `--seed=N`) sets the master seed for seed-aware
//! experiments (the chaos, loaded and failover sweeps); the default is
//! 42.
//!
//! `--shards N` (or `--shards=N`) sets the engine's shard count: every
//! simulation partitions its topology into N region shards running on N
//! threads with conservative-lookahead synchronization. Stdout is
//! byte-identical for every shard count — `--shards 1` is the serial
//! engine, and any `--shards N` run must match it exactly. The `city`,
//! `metro` and `failover` experiments sweep shard counts themselves and
//! restore this flag's value afterwards.
//!
//! Experiments that attach a `BENCH_*.json` (scale, city, metro,
//! failover) have it written here, at the workspace root, after their
//! table prints; running an experiment anywhere else writes no file.

use acacia_bench::{run, runner, set_seed, ALL_IDS, EXTRA_IDS, SLOW_IDS};

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        // `--flag N` or `--flag=N`.
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) => (flag, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        if !["--jobs", "--seed", "--shards"].contains(&flag) {
            args.push(a);
            continue;
        }
        let value = inline.or_else(|| raw.next()).unwrap_or_default();
        let count = |what: &str| match value.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => die(&format!("{what} expects a positive integer")),
        };
        match flag {
            "--jobs" => runner::set_jobs(Some(count("--jobs"))),
            "--shards" => acacia_simnet::set_default_shards(Some(count("--shards"))),
            _ => match value.parse::<u64>() {
                Ok(n) => set_seed(n),
                Err(_) => die("--seed expects an unsigned integer"),
            },
        }
    }
    if args.is_empty() || args[0] == "list" {
        println!("available experiments:");
        for id in ALL_IDS.iter().chain(SLOW_IDS.iter()) {
            println!("  {id}");
        }
        for id in EXTRA_IDS.iter() {
            println!("  {id}  (benchmark; not part of 'all')");
        }
        println!("  all  (runs everything, in paper order)");
        return;
    }
    let all = args.iter().any(|a| a == "all");
    let ids: Vec<&str> = if all {
        ALL_IDS.iter().chain(SLOW_IDS.iter()).copied().collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in ids {
        match run(id) {
            Some(table) => {
                table.print();
                if let Some((name, contents)) = table.attached() {
                    write_artifact(name, contents);
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                eprintln!("valid experiment ids:");
                for known in ALL_IDS
                    .iter()
                    .chain(SLOW_IDS.iter())
                    .chain(EXTRA_IDS.iter())
                {
                    eprintln!("  {known}");
                }
                eprintln!("  all  (runs everything, in paper order)");
                std::process::exit(2);
            }
        }
    }
    // Stderr, so stdout stays byte-identical across --jobs values.
    let timings = runner::drain_timings();
    if !timings.is_empty() {
        eprintln!("{}", runner::timing_report(&timings).render());
    }
}

/// Write an experiment's attached file to the workspace root, whatever
/// the working directory, reporting the outcome on stderr (never stdout
/// — the path is machine-dependent and stdout is golden-checked).
fn write_artifact(name: &str, contents: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => eprintln!("wrote {name}"),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
