//! Offline performance suite (no criterion, works in the air-gapped
//! build image).
//!
//! Times the tensor kernels (against their preserved pre-optimization
//! twins), codecs, FedAvg aggregation, the latency calculators, a split
//! training step and full multi-client rounds (the latter two normalized
//! by a calibration kernel timed in the same process), then writes
//! `BENCH_results.json` at the repository root so the perf trajectory is
//! tracked from PR to PR.
//!
//! ```text
//! cargo run --release -p gsfl-bench --bin perf_suite            # full
//! cargo run --release -p gsfl-bench --bin perf_suite -- --quick # CI
//! cargo run --release -p gsfl-bench --bin perf_suite -- --out x.json
//! ```

use gsfl_bench::compare::fmt_ratio;
use gsfl_bench::print_table;
use gsfl_bench::suite::{run_all, SuiteReport};
use std::path::PathBuf;

fn default_output() -> PathBuf {
    // crates/bench/ → repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_results.json")
}

fn output_path() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(default_output)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn print_report(report: &SuiteReport) {
    println!(
        "perf_suite ({} mode, {} hardware thread{}, simd: {})\n",
        if report.quick { "quick" } else { "full" },
        report.hardware_threads,
        if report.hardware_threads == 1 {
            ""
        } else {
            "s"
        },
        if report.simd_isa.is_empty() {
            "unknown"
        } else {
            &report.simd_isa
        },
    );
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                e.iters.to_string(),
                fmt_ms(e.mean_ns),
                fmt_ms(e.min_ns),
            ]
        })
        .collect();
    print_table(&["bench", "iters", "mean ms", "min ms"], &rows);

    if !report.comparisons.is_empty() {
        println!();
        let rows: Vec<Vec<String>> = report
            .comparisons
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    format!("{:.3}", c.baseline_ms),
                    format!("{:.3}", c.fast_ms),
                    format!("{}x", fmt_ratio(c.speedup)),
                ]
            })
            .collect();
        print_table(&["comparison", "baseline ms", "fast ms", "speedup"], &rows);
    }

    if let Some(kb) = report.peak_rss_kb {
        println!("\npeak RSS: {kb} kB (includes the 10⁶-configured-client round)");
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let report = run_all(quick);
    print_report(&report);

    let path = output_path();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
