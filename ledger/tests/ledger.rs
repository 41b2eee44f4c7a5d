//! The benchmark's own checks: wrapper transparency, seed determinism, the
//! quartile helper, failure accounting, and a smoke run of every workload
//! against the metric list in `BENCHMARK.json`.

use std::cell::RefCell;
use std::collections::BTreeSet;

use fafnir_core::QueryId;
use fafnir_ledger::stats::Summary;
use fafnir_ledger::trace::{Timed, Tracer};
use fafnir_ledger::verify::{output_mismatches, Violations};
use fafnir_ledger::workload::{
    find, per_layer, run, serve_config, Measured, Scale, Settings, Traffic, END_TO_END, LAYERS,
    RATE_QPS, WORKLOADS,
};
use fafnir_mem::MemoryModelKind;
use fafnir_serve::{paper_setup, simulate, ServeReport};

fn smoke(seed: u64, trace: bool) -> Settings {
    Settings { seed, seconds: 0.0, trace, scale: Scale::SMOKE }
}

#[test]
fn timed_wrapper_leaves_serve_reports_byte_identical() {
    for model in [MemoryModelKind::Cycle, MemoryModelKind::Fast] {
        let (engine, source) = paper_setup(model).expect("paper defaults are valid");
        let config = serve_config(256, RATE_QPS, 3);
        let plain = simulate(&engine, &source, &mut Traffic::ZIPF.generator(3), &config)
            .expect("valid run");
        let tracer = RefCell::new(Tracer::new());
        let timed = Timed::new(&engine, &tracer);
        let wrapped =
            simulate(&timed, &source, &mut Traffic::ZIPF.generator(3), &config).expect("valid run");
        assert_eq!(
            ServeReport::new(&config, &plain).to_json(),
            ServeReport::new(&config, &wrapped).to_json(),
            "{model:?}"
        );
        assert!(!tracer.borrow().is_empty(), "{model:?}: the wrapper recorded no span");
    }
}

#[test]
fn modeled_metrics_follow_the_seed() {
    let workload = find("serve_fast").expect("workload exists");
    let first = run(workload, &smoke(1, false));
    let again = run(workload, &smoke(1, false));
    let other = run(workload, &smoke(2, false));
    let modeled = ["p50_latency_ns", "p99_latency_ns", "mem_reads_per_item", "capacity_per_s"];
    for name in modeled {
        assert_eq!(first.value(name), again.value(name), "{name}");
    }
    assert_eq!(first.reports, again.reports);
    assert_ne!(first.reports, other.reports);
    assert!(
        modeled.iter().any(|name| first.value(name) != other.value(name)),
        "a different seed left every modeled metric unchanged"
    );
}

#[test]
fn quartiles_match_python_statistics() {
    let one = Summary::of(&[7.0]);
    assert_eq!((one.n, one.q1, one.median, one.q3), (1, 7.0, 7.0, 7.0));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    let four = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!((four.q1, four.median, four.q3), (1.25, 2.5, 3.75));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let two = Summary::of(&[2.0, 1.0]);
    assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
    // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
    let six = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    assert_eq!((six.q1, six.median, six.q3), (1.75, 3.5, 5.25));
}

#[test]
fn an_output_mismatch_counts_as_a_failure() {
    let want = vec![(QueryId(0), vec![1.0, 2.0]), (QueryId(1), vec![-3.0, 0.5])];
    assert_eq!(output_mismatches(&want, &want), 0);
    let mut got = want.clone();
    got[1].1[0] += 1e-3;
    assert_eq!(output_mismatches(&got, &want), 1);
    assert_eq!(output_mismatches(&want[..1], &want), 1, "a missing query is a mismatch");

    let mut violations = Violations::default();
    violations.add(output_mismatches(&got, &want), || "batch 0: outputs differ".into());
    let measured = Measured {
        attempted: 4,
        violations,
        warmup_reps: 1,
        reps: 1,
        modeled_reps: 1,
        metrics: Vec::new(),
        reports: Vec::new(),
        trace_json: None,
    };
    assert_eq!(measured.fail_frac(), 0.25);
}

/// The `name` fields (with unit, direction and bound where present) of one
/// metric list in `BENCHMARK.json`, read by key so the test needs no JSON
/// library.
fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|key| text[start + 1..].find(key).map(|i| start + 1 + i))
        .min()
        .unwrap_or(text.len());
    let body = &text[start..end];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = entry[at..].trim_start();
        Some(match rest.strip_prefix('"') {
            Some(quoted) => quoted[..quoted.find('"')?].to_string(),
            None => rest[..rest.find(['}', ','])?].trim().to_string(),
        })
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("every entry has a name"),
                field(entry, "unit").unwrap_or_default(),
                field(entry, "better").unwrap_or_else(|| field(entry, "why").unwrap_or_default()),
                field(entry, "bound").map(|b| b.parse().expect("bound is a number")),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_ledger_measures() {
    let workloads: Vec<(String, String)> =
        declared("workloads").into_iter().map(|(name, _, why, _)| (name, why)).collect();
    let expected: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    assert_eq!(workloads, expected);
    let end_to_end: Vec<_> = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            (name.to_string(), unit.to_string(), better.name().to_string(), Some(bound))
        })
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let layers: Vec<_> = per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, unit.to_string(), better.name().to_string(), None))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

fn names(measured: &Measured) -> BTreeSet<String> {
    measured.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    let layers: BTreeSet<String> = per_layer().into_iter().map(|m| m.0).collect();
    for workload in &WORKLOADS {
        let untraced = run(workload, &smoke(5, false));
        assert_eq!(untraced.violations, Violations::default(), "{}", workload.name);
        assert_eq!(names(&untraced), end_to_end, "{}", workload.name);
        for metric in &untraced.metrics {
            assert!(metric.value > 0.0, "{}: {} is {}", workload.name, metric.name, metric.value);
        }

        let traced = run(workload, &smoke(5, true));
        assert_eq!(traced.violations, Violations::default(), "{}", workload.name);
        assert_eq!(names(&traced), layers, "{}", workload.name);
        assert_eq!(traced.reports, untraced.reports, "{}: tracing changed a report", workload.name);
        let shares: f64 = LAYERS
            .iter()
            .map(|layer| traced.value(&format!("{layer}.share")).expect("share reported"))
            .sum();
        assert!((shares - 1.0).abs() <= 0.05, "{}: layer shares sum to {shares}", workload.name);
        let trace = traced.trace_json.expect("a traced run keeps its spans");
        assert!(trace.starts_with("{\"traceEvents\": ["), "{}", workload.name);
    }
}
