//! The CI perf-regression gate (see [`gsfl_bench::compare`]).
//!
//! ```text
//! perf_compare <committed.json> <current.json> [--max-slowdown 2.5]
//! ```
//!
//! Prints both reports' thread count and SIMD tier (flagging a mismatch,
//! informationally) and a markdown summary table to stdout, and exits
//! non-zero when any tracked speedup ratio regressed past the threshold
//! or a committed ratio has no usable counterpart in the current run.
//! Comparing the committed baseline against itself always passes — the
//! invariant the gate's own CI wiring relies on.

use gsfl_bench::compare::compare;
use gsfl_bench::suite::SuiteReport;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &str) -> Result<SuiteReport, String> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| format!("could not read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("could not parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().collect();
    let mut positional: Vec<String> = Vec::new();
    let mut max_slowdown = 2.5f64;
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--max-slowdown" {
            max_slowdown = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or("--max-slowdown needs a numeric value")?;
            i += 2;
        } else if args[i].starts_with("--") {
            return Err(format!("unknown flag {:?}", args[i]));
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "usage: {} <committed.json> <current.json> [--max-slowdown 2.5]",
            args.first().map(String::as_str).unwrap_or("perf_compare")
        ));
    }
    let committed = load(&positional[0])?;
    let current = load(&positional[1])?;
    let verdict = compare(&committed, &current, max_slowdown);
    println!(
        "perf gate: {} (committed) vs {} (current)\n",
        positional[0], positional[1]
    );
    println!("{}", verdict.markdown());
    Ok(verdict.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf gate failed: a tracked speedup ratio regressed or went unmatched");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
