//! `ledger` — runs one benchmark workload (or each in its own process) and
//! prints every metric as `name value unit`, then one JSON result line.
//!
//! ```text
//! cargo run --release -q --manifest-path ledger/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The ledger record (and, when traced, the Chrome trace) of a workload is
//! written to `<target dir>/ledger/<workload>.json` and
//! `<workload>.trace.json`, where the target directory is
//! `$CARGO_TARGET_DIR`, or `target` under the working directory.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use fafnir_ledger::record::{ledger_record, metric_lines, result_line, string};
use fafnir_ledger::workload::{find, run, Scale, Settings, WORKLOADS};

const USAGE: &str =
    "usage: ledger --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3_600.0).contains(&seconds) {
                    return Err(format!("--seconds must be within 0..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && find(&workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload} (one of {}, all)", names.join(", ")));
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// Where records go: `ledger` under the Cargo target directory, which is
/// `$CARGO_TARGET_DIR` when set and `target` under the working directory
/// otherwise.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("ledger")
}

fn write_outputs(name: &str, record: &str, trace: Option<&str>) -> std::io::Result<PathBuf> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{name}.json")), record)?;
    if let Some(trace) = trace {
        std::fs::write(dir.join(format!("{name}.trace.json")), trace)?;
    }
    Ok(dir)
}

fn run_one(args: &Args) -> ExitCode {
    let workload = find(&args.workload).expect("parse checked the name");
    let settings =
        Settings { seed: args.seed, seconds: args.seconds, trace: args.trace, scale: Scale::FULL };
    let measured = run(workload, &settings);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    print!("{}", metric_lines(&measured));
    let record = ledger_record(workload.name, &settings, host_cores, &measured);
    match write_outputs(workload.name, &record, measured.trace_json.as_deref()) {
        Ok(dir) => eprintln!("ledger: recorded {} in {}", workload.name, dir.display()),
        Err(error) => eprintln!("ledger: could not write the record: {error}"),
    }
    for violation in &measured.violations.first {
        eprintln!("ledger: violation: {violation}");
    }
    println!("{}", result_line(&measured));
    if measured.violations.count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, so each has its own peak RSS,
/// then prints a summary line holding each workload's result line.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot locate the ledger binary");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(output) => output,
            Err(error) => {
                eprintln!("error: running {}: {error}", workload.name);
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        let line = stdout.lines().last().unwrap_or("null").to_string();
        results.push(format!("{}: {line}", string(workload.name)));
    }
    println!("{{\"correct\": {all_ok}, \"workloads\": {{{}}}}}", results.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(args) if args.workload == "all" => run_all(&args),
        Ok(args) => run_one(&args),
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
