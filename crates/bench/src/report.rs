//! The one writer of every `BENCH_*.json`: an `experiment` line, a
//! `host` line, then one line per cell. Within a cell the deterministic
//! keys come first and the wall-clock ones ([`WALL_CLOCK_KEYS`]) last, so
//! a cell line cut at its first wall-clock key is the part that no host
//! or run may change.

use crate::runner;
use crate::table::Table;

/// Keys whose values depend on the host and the run; they end a cell.
const WALL_CLOCK_KEYS: [&str; 3] = ["wall_s", "events_per_sec", "speedup"];

/// One JSON value of a cell.
#[derive(Debug)]
pub(crate) enum Value {
    /// An integer count.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string; quotes and backslashes are escaped.
    Str(String),
    /// A list, printed `[a, b, …]`.
    List(Vec<Value>),
}

impl Value {
    /// A list of integer counts.
    pub(crate) fn ints(ns: impl IntoIterator<Item = u64>) -> Value {
        Value::List(ns.into_iter().map(Value::Int).collect())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// One cell: its keys and values, in output order.
pub(crate) type Fields = Vec<(&'static str, Value)>;

/// Whether no deterministic key follows a wall-clock one.
fn wall_clock_last<'a>(mut keys: impl Iterator<Item = &'a str>) -> bool {
    keys.by_ref().find(|k| WALL_CLOCK_KEYS.contains(k));
    keys.all(|k| WALL_CLOCK_KEYS.contains(&k))
}

/// `{"k": v, …}` on one line.
fn object(fields: &Fields) -> String {
    assert!(
        wall_clock_last(fields.iter().map(|&(k, _)| k)),
        "wall-clock keys must end a cell: {fields:?}"
    );
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// The host line: hardware threads (engine lanes run threaded only
/// when they do not outnumber the cores, so this says which rows ran
/// threads), the runner's worker
/// count, the compiler and the commit; `"unknown"` where a command fails.
fn host() -> Fields {
    let output = |program: &str, args: &[&str]| -> Value {
        let out = std::process::Command::new(program).args(args).output();
        let text = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        Value::Str(text.unwrap_or_else(|| "unknown".to_string()))
    };
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("cores", cores.into()),
        ("jobs", runner::jobs().into()),
        ("rustc", output("rustc", &["--version"])),
        (
            "commit",
            output("git", &["-C", workspace, "rev-parse", "--short", "HEAD"]),
        ),
    ]
}

/// Render `BENCH_<experiment>.json` from its cells.
pub(crate) fn render(experiment: &str, cells: &[Fields]) -> String {
    let cells: Vec<String> = cells.iter().map(|c| format!("    {}", object(c))).collect();
    format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"host\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        object(&host()),
        cells.join(",\n")
    )
}

/// Attach `BENCH_<experiment>.json` to the experiment's table; the
/// `figures` binary writes it.
pub(crate) fn attach(table: &mut Table, experiment: &str, cells: &[Fields]) {
    let json = render(experiment, cells);
    table.artifact(&format!("BENCH_{experiment}.json"), json);
}

/// The structural check every `BENCH_*.json` must pass: the experiment
/// and host lines, balanced braces and brackets, one line per cell, and
/// the wall-clock keys last on every cell line.
#[cfg(test)]
pub(crate) fn assert_well_formed(json: &str, experiment: &str, cells: usize) {
    let head = format!("{{\n  \"experiment\": \"{experiment}\",\n  \"host\": {{\"cores\": ");
    assert!(
        json.starts_with(&head) && json.ends_with("\n  ]\n}\n"),
        "{json}"
    );
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), cells + 6, "one line per cell:\n{json}");
    for key in ["\"jobs\": ", "\"rustc\": \"", "\"commit\": \""] {
        assert!(lines[2].contains(key), "host line lacks {key}: {json}");
    }
    assert_eq!(lines[3], "  \"cells\": [");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    for line in &lines[4..4 + cells] {
        // Every `": ` ends a key; the text after the last one is a value.
        let pieces: Vec<&str> = line.split("\": ").collect();
        let keys = pieces[..pieces.len() - 1]
            .iter()
            .filter_map(|p| p.rsplit('"').next());
        assert!(
            wall_clock_last(keys),
            "wall-clock keys must end the cell: {line}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render_one_per_line_after_the_host_with_wall_clock_last() {
        let cell = |shards: u64| -> Fields {
            vec![
                ("mode", "crash-\"stop\"".into()),
                ("shards", shards.into()),
                ("placement", Value::List(vec![Value::ints([0, 7])])),
                ("imbalance", Value::Fixed(1.0 / 3.0, 4)),
                ("wall_s", Value::Fixed(0.5, 3)),
                ("events_per_sec", Value::Fixed(14.0, 0)),
            ]
        };
        let json = render("demo", &[cell(1), cell(2)]);
        assert_well_formed(&json, "demo", 2);
        assert!(json.contains(concat!(
            "    {\"mode\": \"crash-\\\"stop\\\"\", \"shards\": 2, \"placement\": [[0, 7]], ",
            "\"imbalance\": 0.3333, \"wall_s\": 0.500, \"events_per_sec\": 14}\n"
        )));
        assert!(!wall_clock_last(["wall_s", "shards"].into_iter()));
    }
}
