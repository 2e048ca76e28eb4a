//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! acacia-benchmark [--workload NAME]... [--seed 42] [--reps 3 | --seconds S] [--trace [0|1]] [--out FILE]
//! acacia-benchmark compare A.json B.json
//! ```

mod adapter;
mod alloc;
mod compare;
mod harness;
mod hostref;
mod json;
mod rep;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  acacia-benchmark [--workload NAME]... [--seed N] [--reps N | --seconds S] [--trace [0|1]] [--out FILE]
  acacia-benchmark compare A.json B.json";

/// What the command line asked for.
enum Mode {
    Session(harness::Options),
    /// One repetition, or only its set-up, started by a session (not for
    /// users). `spawned_at_ns` is `rep::epoch_ns` as the session read it
    /// just before starting this process.
    Child {
        workload: &'static spec::Workload,
        seed: u64,
        traced: bool,
        setup_only: bool,
        spawned_at_ns: u128,
    },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Mode::Compare(a.clone(), b.clone())),
            _ => Err("compare takes two result files".to_string()),
        };
    }
    let mut opts = harness::Options {
        workloads: Vec::new(),
        seed: 42,
        reps: None,
        seconds: None,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/result.json")),
    };
    let mut child = None;
    let (mut traced_child, mut setup_only) = (false, false);
    let mut spawned_at_ns = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        match flag.as_str() {
            "--workload" => opts
                .workloads
                .push(spec::workload(&value("a workload name")?)?),
            "--child" => child = Some(spec::workload(&value("a workload name")?)?),
            "--traced" => traced_child = true,
            "--setup-only" => setup_only = true,
            "--spawned-at-ns" => {
                spawned_at_ns = Some(
                    value("nanoseconds since the epoch")?
                        .parse()
                        .map_err(|_| "--spawned-at-ns expects an unsigned integer".to_string())?,
                );
            }
            "--seed" => {
                opts.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?;
            }
            "--reps" => {
                let n: u32 = value("a positive integer")?
                    .parse()
                    .map_err(|_| "--reps expects a positive integer".to_string())?;
                if !(1..=100).contains(&n) {
                    return Err("--reps expects 1 to 100".to_string());
                }
                opts.reps = Some(n);
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds expects more than 0 and at most 3600".to_string());
                }
                opts.seconds = Some(s);
            }
            // `--trace` alone switches the traced pass on; `--trace 0|1`
            // is the acceptance driver's spelling.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = PathBuf::from(value("a file path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(workload) = child {
        return Ok(Mode::Child {
            workload,
            seed: opts.seed,
            traced: traced_child,
            setup_only,
            spawned_at_ns: spawned_at_ns.ok_or("--child needs --spawned-at-ns")?,
        });
    }
    if opts.workloads.is_empty() {
        opts.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(Mode::Session(opts))
}

fn session(opts: &harness::Options) -> Result<bool, String> {
    let session = harness::run(opts)?;
    session.print();
    session.write(&opts.out)?;
    println!("# wrote {}", opts.out.display());
    // The acceptance driver asks for one workload at a time and reads the
    // last line.
    if session.runs.len() == 1 {
        println!("{}", session.contract_line().render());
    }
    Ok(session.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Child {
            workload,
            seed,
            traced,
            setup_only,
            spawned_at_ns,
        }) => {
            if setup_only {
                rep::setup_only_main(workload, seed, spawned_at_ns);
            } else {
                rep::child_main(workload, seed, traced, spawned_at_ns);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Compare(a, b)) => compare::run(&a, &b),
        Ok(Mode::Session(opts)) => session(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see VIOLATION / worse rows above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_acceptance_drivers_spelling_is_understood() {
        let Ok(Mode::Session(o)) =
            parse(&args("--workload metro-s2 --seed 7 --seconds 20 --trace 0"))
        else {
            panic!("a session");
        };
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(o.workloads[0].name, "metro-s2");
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(20.0), false));
        let Ok(Mode::Session(o)) = parse(&args("--workload signalling --trace 1")) else {
            panic!("a session");
        };
        assert!(o.trace);
    }

    #[test]
    fn the_issues_spelling_is_understood() {
        let Ok(Mode::Session(o)) = parse(&args("--seed 42 --reps 3 --trace")) else {
            panic!("a session");
        };
        assert_eq!(o.workloads.len(), spec::WORKLOADS.len(), "all by default");
        assert_eq!((o.reps, o.trace), (Some(3), true));
        let Ok(Mode::Session(o)) = parse(&args("--trace --workload paper-net")) else {
            panic!("a session");
        };
        assert!(o.trace && o.workloads[0].name == "paper-net");
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--reps 0",
            "--seconds 0",
            "--seconds x",
            "--frobnicate",
            "--seed",
            "compare only-one.json",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        assert!(matches!(
            parse(&args("compare a.json b.json")),
            Ok(Mode::Compare(..))
        ));
        assert!(matches!(
            parse(&args(
                "--child metro-s1 --seed 3 --traced --spawned-at-ns 17"
            )),
            Ok(Mode::Child {
                seed: 3,
                traced: true,
                setup_only: false,
                spawned_at_ns: 17,
                ..
            })
        ));
        assert!(parse(&args("--child metro-s1 --setup-only")).is_err());
    }
}
