//! The perf-regression gate: diff a CI-produced suite report against the
//! committed baseline.
//!
//! Raw nanosecond timings are not comparable across machines — the
//! committed `BENCH_results.json` comes from whatever box last
//! regenerated it, while CI runs on a shared runner. What *is*
//! machine-portable is each [`crate::suite::Comparison`]'s **speedup ratio**,
//! both sides measured in the same process on the same host: a fast
//! kernel against its preserved pre-optimization twin, or (for the
//! normalized training-step and end-to-end round rows, see
//! [`crate::suite::Suite::normalized`]) a workload against a fixed
//! calibration kernel. The gate therefore tracks, per workload,
//!
//! ```text
//! slowdown = committed_speedup / ci_speedup
//! ```
//!
//! and fails when some workload's slowdown exceeds the configured
//! threshold (2.5× in CI — loose enough for noisy runners, tight enough
//! to catch a fast path quietly falling back to a slow one), or when a
//! committed row has no usable counterpart in the current run. Rows only
//! the current run has are informational.
//!
//! A ratio still depends on the host's thread count and SIMD tier, so
//! the verdict prints both reports' `hardware_threads` and `simd_isa` and
//! flags a mismatch; the flag never changes pass/fail.

use crate::suite::SuiteReport;

/// One tracked ratio: a workload's speedup in both reports.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Workload id, e.g. `e2e_round_federated_8c`.
    pub name: String,
    /// Speedup recorded in the committed baseline.
    pub committed_speedup: f64,
    /// Speedup measured by the current (CI) run.
    pub current_speedup: f64,
    /// `committed_speedup / current_speedup` (> 1 means the current run
    /// regressed).
    pub slowdown: f64,
    /// Whether the slowdown stays under the threshold.
    pub ok: bool,
}

/// The host a report was measured on, as far as the ratios care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// The report's `hardware_threads`.
    pub threads: usize,
    /// The report's `simd_isa` (`"unknown"` when the report has none).
    pub simd_isa: String,
}

impl Host {
    fn of(report: &SuiteReport) -> Self {
        Host {
            threads: report.hardware_threads,
            simd_isa: if report.simd_isa.is_empty() {
                "unknown".to_string()
            } else {
                report.simd_isa.clone()
            },
        }
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} thread(s), simd {}", self.threads, self.simd_isa)
    }
}

/// The gate's verdict over every tracked ratio.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-workload rows, in committed-baseline order.
    pub rows: Vec<RatioRow>,
    /// Committed workloads with no match in the current run, or with a
    /// non-positive speedup in either report. Each fails the gate.
    pub unmatched: Vec<String>,
    /// Workloads only the current run has (informational; never fails
    /// the gate).
    pub new: Vec<String>,
    /// The host of the committed baseline.
    pub committed_host: Host,
    /// The host of the current run.
    pub current_host: Host,
    /// The failure threshold the rows were judged against.
    pub max_slowdown: f64,
}

impl CompareReport {
    /// Whether every committed ratio was matched and stays under the
    /// threshold.
    pub fn passed(&self) -> bool {
        self.unmatched.is_empty() && self.rows.iter().all(|r| r.ok)
    }

    /// The rows that breached the threshold.
    pub fn regressions(&self) -> Vec<&RatioRow> {
        self.rows.iter().filter(|r| !r.ok).collect()
    }

    /// Whether the two reports come from hosts with a different thread
    /// count or SIMD tier (informational).
    pub fn host_mismatch(&self) -> bool {
        self.committed_host != self.current_host
    }

    /// Renders the verdict as a markdown table for the CI job log.
    pub fn markdown(&self) -> String {
        let mut out = format!(
            "hosts: committed {} — current {}{}\n\n",
            self.committed_host,
            self.current_host,
            if self.host_mismatch() {
                " — **HOST MISMATCH** (informational: ratios may differ by host)"
            } else {
                ""
            },
        );
        out.push_str(
            "| benchmark | committed speedup | current speedup | slowdown | status |\n\
             |---|---:|---:|---:|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {}× | {}× | {}× | {} |\n",
                r.name,
                fmt_ratio(r.committed_speedup),
                fmt_ratio(r.current_speedup),
                fmt_ratio(r.slowdown),
                if r.ok { "ok" } else { "**REGRESSED**" },
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("| {name} | — | — | — | **UNMATCHED** |\n"));
        }
        for name in &self.new {
            out.push_str(&format!("| {name} | — | — | — | new (informational) |\n"));
        }
        out.push_str(&format!(
            "\ngate: max allowed slowdown {:.2}× — **{}**\n",
            self.max_slowdown,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }
}

/// A speedup or slowdown for display: two decimals, four below 0.1 (the
/// normalized rows' ratios are that small).
pub fn fmt_ratio(x: f64) -> String {
    let digits = if x.abs() < 0.1 { 4 } else { 2 };
    format!("{x:.digits$}")
}

/// Diffs `current` against `committed`, failing any tracked ratio whose
/// slowdown exceeds `max_slowdown` and any committed ratio the current
/// run does not reproduce.
pub fn compare(committed: &SuiteReport, current: &SuiteReport, max_slowdown: f64) -> CompareReport {
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for base in &committed.comparisons {
        match current.comparisons.iter().find(|c| c.name == base.name) {
            Some(cur) if cur.speedup > 0.0 && base.speedup > 0.0 => {
                let slowdown = base.speedup / cur.speedup;
                rows.push(RatioRow {
                    name: base.name.clone(),
                    committed_speedup: base.speedup,
                    current_speedup: cur.speedup,
                    slowdown,
                    ok: slowdown <= max_slowdown,
                });
            }
            _ => unmatched.push(base.name.clone()),
        }
    }
    let new = current
        .comparisons
        .iter()
        .filter(|cur| !committed.comparisons.iter().any(|b| b.name == cur.name))
        .map(|cur| cur.name.clone())
        .collect();
    CompareReport {
        rows,
        unmatched,
        new,
        committed_host: Host::of(committed),
        current_host: Host::of(current),
        max_slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Comparison;

    fn report(pairs: &[(&str, f64)]) -> SuiteReport {
        SuiteReport {
            quick: false,
            hardware_threads: 1,
            generated_unix_s: 0,
            peak_rss_kb: None,
            simd_isa: String::new(),
            entries: Vec::new(),
            comparisons: pairs
                .iter()
                .map(|(name, speedup)| Comparison {
                    name: name.to_string(),
                    baseline_ms: 1.0 * speedup,
                    fast_ms: 1.0,
                    speedup: *speedup,
                })
                .collect(),
        }
    }

    #[test]
    fn self_comparison_passes_with_unit_slowdowns() {
        let r = report(&[("a", 2.0), ("b", 3.5)]);
        let verdict = compare(&r, &r, 2.5);
        assert!(verdict.passed());
        assert_eq!(verdict.rows.len(), 2);
        for row in &verdict.rows {
            assert!((row.slowdown - 1.0).abs() < 1e-12);
        }
        assert!(verdict.unmatched.is_empty() && verdict.new.is_empty());
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let committed = report(&[("a", 3.0), ("b", 3.0)]);
        // a: 3.0 → 1.0 speedup is a 3.0× slowdown; b only 1.5×.
        let current = report(&[("a", 1.0), ("b", 2.0)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(!verdict.passed());
        let regressed: Vec<&str> = verdict
            .regressions()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(regressed, vec!["a"]);
        assert!(verdict.markdown().contains("**REGRESSED**"));
        assert!(verdict.markdown().contains("FAIL"));
    }

    #[test]
    fn noise_under_threshold_passes() {
        let committed = report(&[("a", 2.5)]);
        let current = report(&[("a", 1.1)]); // 2.27× slowdown < 2.5×
        assert!(compare(&committed, &current, 2.5).passed());
    }

    #[test]
    fn unmatched_committed_rows_fail_and_new_rows_are_informational() {
        let committed = report(&[("a", 2.0), ("gone", 4.0)]);
        let current = report(&[("a", 2.0), ("new", 1.5)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(!verdict.passed(), "a committed row the run lost must fail");
        assert!(verdict.regressions().is_empty());
        assert_eq!(verdict.rows.len(), 1);
        assert_eq!(verdict.unmatched, vec!["gone".to_string()]);
        assert_eq!(verdict.new, vec!["new".to_string()]);
        assert!(verdict.markdown().contains("**UNMATCHED**"));
        assert!(verdict.markdown().contains("new (informational)"));
        assert!(verdict.markdown().contains("FAIL"));

        // A row only the current run has never fails on its own.
        let verdict = compare(&report(&[("a", 2.0)]), &current, 2.5);
        assert!(verdict.passed());
        assert_eq!(verdict.new, vec!["new".to_string()]);
    }

    #[test]
    fn non_positive_speedups_fail_as_unmatched() {
        for (committed, current) in [(2.0, 0.0), (0.0, 2.0), (2.0, -1.0)] {
            let verdict = compare(
                &report(&[("a", committed)]),
                &report(&[("a", current)]),
                2.5,
            );
            assert!(!verdict.passed(), "{committed} vs {current}");
            assert_eq!(verdict.unmatched, vec!["a".to_string()]);
        }
    }

    #[test]
    fn host_mismatch_is_flagged_but_never_decides() {
        let committed = report(&[("a", 2.0)]);
        let same = compare(&committed, &committed, 2.5);
        assert!(!same.host_mismatch());
        assert!(same
            .markdown()
            .starts_with("hosts: committed 1 thread(s), simd unknown"));
        assert!(!same.markdown().contains("MISMATCH"));

        let mut other = committed.clone();
        other.hardware_threads = 2;
        other.simd_isa = "avx2".to_string();
        let verdict = compare(&committed, &other, 2.5);
        assert!(verdict.host_mismatch());
        assert!(verdict.passed(), "the flag is informational");
        assert!(verdict
            .markdown()
            .contains("current 2 thread(s), simd avx2"));
        assert!(verdict.markdown().contains("**HOST MISMATCH**"));
    }

    #[test]
    fn faster_than_baseline_is_fine() {
        let committed = report(&[("a", 2.0)]);
        let current = report(&[("a", 5.0)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(verdict.passed());
        assert!(verdict.rows[0].slowdown < 1.0);
    }

    #[test]
    fn small_normalized_ratios_keep_their_digits() {
        assert_eq!(fmt_ratio(2.871), "2.87");
        assert_eq!(fmt_ratio(0.01634), "0.0163");
        let verdict = compare(
            &report(&[("e2e", 0.0163)]),
            &report(&[("e2e", 0.0152)]),
            2.5,
        );
        assert!(verdict
            .markdown()
            .contains("| e2e | 0.0163× | 0.0152× | 1.07× | ok |"));
    }
}
