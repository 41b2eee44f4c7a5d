//! Rendering: the `name value unit` lines, the one-line JSON result the
//! benchmark ends with, and the versioned per-workload ledger record.

use std::fmt::Write as _;

use crate::workload::{Measured, Settings};

/// Version of the ledger record layout.
pub const SCHEMA: &str = "fafnir-ledger/1";

/// A number as JSON: every digit Rust's shortest round-trip form has.
///
/// # Panics
///
/// Panics on a non-finite value, which no metric may take.
#[must_use]
pub fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value}")
}

/// A string as a JSON string literal.
#[must_use]
pub fn string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `name value unit` line per metric.
#[must_use]
pub fn metric_lines(measured: &Measured) -> String {
    measured
        .metrics
        .iter()
        .map(|m| format!("{} {} {}\n", m.name, number(m.value), m.unit))
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric's
/// value and unit.
#[must_use]
pub fn result_line(measured: &Measured) -> String {
    let metrics: Vec<String> = measured
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.violations.count == 0,
        measured.attempted.max(1),
        measured.violations.count,
        metrics.join(", ")
    )
}

/// The ledger record of one run: settings, host facts, rep counts, failure
/// accounting, and each metric with its sample's quartiles where it has one.
#[must_use]
pub fn ledger_record(
    workload: &str,
    settings: &Settings,
    host_cores: usize,
    measured: &Measured,
) -> String {
    let metrics: Vec<String> = measured
        .metrics
        .iter()
        .map(|m| {
            let sample = m.sample.map_or(String::new(), |s| {
                format!(", \"q1\": {}, \"q3\": {}, \"n\": {}", number(s.q1), number(s.q3), s.n)
            });
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}{sample}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    let violations: Vec<String> = measured.violations.first.iter().map(|v| string(v)).collect();
    format!(
        "{{\n  \"schema\": {},\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"host_cores\": {host_cores},\n  \"warmup_reps\": {},\n  \
         \"reps\": {},\n  \"modeled_reps\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"fail_frac\": {},\n  \"violations\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        string(SCHEMA),
        string(workload),
        settings.seed,
        number(settings.seconds),
        settings.trace,
        measured.warmup_reps,
        measured.reps,
        measured.modeled_reps,
        measured.attempted,
        measured.violations.count,
        number(measured.fail_frac()),
        violations.join(", "),
        metrics.join(",\n"),
    )
}
