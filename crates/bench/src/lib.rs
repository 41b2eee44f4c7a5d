//! # fafnir-bench — shared harness for the table/figure benchmarks
//!
//! Each `benches/*.rs` target regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). This library holds the shared
//! pieces: aligned table printing, the calibrated paper-traffic generator,
//! engine constructors, and the `BENCH_*.json` writer with its regression
//! guard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fafnir_baselines::{NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{FafnirConfig, FafnirEngine};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// Prints a title banner for one experiment.
pub fn banner(experiment: &str, claim: &str) {
    println!("\n=== {experiment} ===");
    println!("paper: {claim}");
    println!();
}

/// Prints an aligned text table. Set `FAFNIR_CSV=1` to emit CSV instead
/// (for plotting pipelines).
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    if std::env::var_os("FAFNIR_CSV").is_some_and(|v| v == "1") {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        println!("{}", headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        for row in rows {
            assert_eq!(row.len(), headers.len(), "row width mismatch");
            println!("{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        }
        return;
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (cell, width) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:>width$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| (*h).to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The calibrated "production-like" traffic used across figures: Zipf(1.15)
/// over a 2 000-index hot working set, 16 indices per query — lands the
/// batch-dedup savings in the paper's 34 %/43 %/58 % band
/// (measured ≈35/46/56 % at batch 8/16/32).
#[must_use]
pub fn paper_traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

/// Uniform traffic over a large universe (the no-sharing contrast).
#[must_use]
pub fn uniform_traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Uniform, 10_000_000, 16, seed)
}

/// The paper's 32-rank memory system.
#[must_use]
pub fn paper_memory() -> MemoryConfig {
    MemoryConfig::ddr4_2400_4ch()
}

/// All four lookup engines over one memory system.
///
/// # Panics
///
/// Panics if the FAFNIR configuration is rejected (cannot happen for the
/// defaults).
#[must_use]
pub fn engines(mem: MemoryConfig) -> (FafnirEngine, RecNmpEngine, TensorDimmEngine, NoNdpEngine) {
    (
        FafnirEngine::paper_default(mem).expect("valid default config"),
        RecNmpEngine::paper_default(mem),
        TensorDimmEngine::paper_default(mem),
        NoNdpEngine::paper_default(mem),
    )
}

/// FAFNIR with dedup disabled (the non-striped bars of Fig. 13).
///
/// # Panics
///
/// Panics if the configuration is rejected (cannot happen for the defaults).
#[must_use]
pub fn fafnir_without_dedup(mem: MemoryConfig) -> FafnirEngine {
    let config = FafnirConfig { dedup: false, ..FafnirConfig::paper_default() };
    FafnirEngine::new(config, mem).expect("valid config")
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn times(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats nanoseconds with a thousands-friendly unit.
#[must_use]
pub fn ns(value: f64) -> String {
    if value >= 1e6 {
        format!("{:.2} ms", value / 1e6)
    } else if value >= 1e3 {
        format!("{:.2} us", value / 1e3)
    } else {
        format!("{value:.0} ns")
    }
}

/// Pulls the number following `"key": ` out of a previous JSON report
/// (the `BENCH_*.json` regression guards read their recorded baselines
/// with it).
#[must_use]
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Writes `json` to `BENCH_<name>.json` at the workspace root and prints
/// its path. When a guarded metric fell below `tolerance` × its recorded
/// value, the bench refuses (exit code 1) unless it was run with
/// `--force`.
///
/// # Panics
///
/// Panics if the record cannot be written.
pub fn record(name: &str, json: &str, guarded: &[(&str, f64)], tolerance: f64) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let previous = std::fs::read_to_string(&path).ok();
    let force = std::env::args().any(|arg| arg == "--force");
    if let Some(reason) = refusal(previous.as_deref(), guarded, tolerance, force) {
        eprintln!("refusing to overwrite {path}: {reason}; rerun with --force to accept");
        std::process::exit(1);
    }
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("recorded {path}");
}

/// Why a new record must not replace `previous`: the first guarded key
/// whose new value fell below `tolerance` × its recorded value. `None`
/// when nothing is recorded, nothing regressed, or `force` is set.
fn refusal(
    previous: Option<&str>,
    guarded: &[(&str, f64)],
    tolerance: f64,
    force: bool,
) -> Option<String> {
    let previous = previous.filter(|_| !force)?;
    guarded.iter().find_map(|&(key, new)| {
        let old = extract_number(previous, key)?;
        (new < old * tolerance)
            .then(|| format!("{key} {new} regressed below {tolerance} x the recorded {old}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_reads_present_missing_and_last_keys() {
        let json = "{\"qps\": 1250.5, \"speedup\": 3}";
        assert_eq!(extract_number(json, "qps"), Some(1250.5));
        assert_eq!(extract_number(json, "recall"), None);
        assert_eq!(extract_number(json, "speedup"), Some(3.0));
    }

    #[test]
    fn the_guard_refuses_only_a_recorded_regression_without_force() {
        let previous = "{\"qps\": 1000, \"recall\": 0.8}";
        let regressed = [("qps", 700.0), ("recall", 0.8)];
        assert_eq!(refusal(None, &regressed, 0.8, false), None);
        let reason = refusal(Some(previous), &regressed, 0.8, false).unwrap();
        assert!(reason.starts_with("qps 700 regressed"), "{reason}");
        assert_eq!(refusal(Some(previous), &regressed, 0.8, true), None);
        assert_eq!(refusal(Some(previous), &[("qps", 800.0), ("recall", 0.7)], 0.8, false), None);
        assert_eq!(refusal(Some(previous), &[("latency", 1.0)], 0.8, false), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(2.5), "2.50x");
        assert_eq!(ns(120.0), "120 ns");
        assert_eq!(ns(4_500.0), "4.50 us");
        assert_eq!(ns(2_000_000.0), "2.00 ms");
    }

    #[test]
    fn engine_constructors_work() {
        let (fafnir, recnmp, tensordimm, no_ndp) = engines(paper_memory());
        use fafnir_baselines::LookupEngine;
        assert_eq!(fafnir.name(), "fafnir");
        assert_eq!(recnmp.name(), "recnmp");
        assert_eq!(tensordimm.name(), "tensordimm");
        assert_eq!(no_ndp.name(), "no-ndp");
    }

    #[test]
    fn csv_escaping_quotes_commas() {
        // print_table's CSV branch is driven by env; test the escape logic
        // indirectly through a tiny harness.
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn paper_traffic_is_skewed() {
        let mut generator = paper_traffic(1);
        let batch = generator.batch(32);
        assert!(batch.unique_fraction() < 0.9);
    }
}
