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
//! experiments (the chaos sweep); the default is 42.
//!
//! `--shards N` (or `--shards=N`) sets the engine's shard count: every
//! simulation partitions its topology into N region shards running on N
//! threads with conservative-lookahead synchronization. Stdout is
//! byte-identical for every shard count — `--shards 1` is the serial
//! engine, and any `--shards N` run must match it exactly. The `city`,
//! `metro` and `failover` experiments sweep shard counts themselves and
//! restore this flag's value afterwards.

use acacia_bench::{run, runner, set_seed, ALL_IDS, EXTRA_IDS, SLOW_IDS};

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--jobs" {
            let n = raw.next().and_then(|v| v.parse::<usize>().ok());
            match n {
                Some(n) if n >= 1 => runner::set_jobs(Some(n)),
                _ => die("--jobs expects a positive integer"),
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => runner::set_jobs(Some(n)),
                _ => die("--jobs expects a positive integer"),
            }
        } else if a == "--seed" {
            match raw.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => set_seed(n),
                None => die("--seed expects an unsigned integer"),
            }
        } else if let Some(v) = a.strip_prefix("--seed=") {
            match v.parse::<u64>() {
                Ok(n) => set_seed(n),
                Err(_) => die("--seed expects an unsigned integer"),
            }
        } else if a == "--shards" {
            match raw.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => acacia_simnet::set_default_shards(Some(n)),
                _ => die("--shards expects a positive integer"),
            }
        } else if let Some(v) = a.strip_prefix("--shards=") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => acacia_simnet::set_default_shards(Some(n)),
                _ => die("--shards expects a positive integer"),
            }
        } else {
            args.push(a);
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
            Some(table) => table.print(),
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

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
