//! `wspbench` — the repository benchmark.
//!
//! ```text
//! wspbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wspbench diff <before.txt> <after.txt>
//! ```
//!
//! A run prints a `wspbench-report` line (workload, seed, simulated
//! fingerprint, tail percentiles and sample counts, every metric) and,
//! last, the result object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! It exits 1 when any op failed or any audit missed. `diff` compares
//! the captured output of two sets of traced runs layer by layer.

use std::process::ExitCode;

use wspbench::diff::{self, REPORT_PREFIX};
use wspbench::json::compact;
use wspbench::{run_workload, Knobs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn diff_main(before: &str, after: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| diff::parse_reports(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(before), load(after)) {
        (Ok(a), Ok(b)) => {
            print!("{}", diff::render(&a, &b));
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("wspbench diff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => diff_main(a, b),
            _ => {
                eprintln!("usage: wspbench diff <before.txt> <after.txt>");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wspbench: {e}");
            eprintln!("usage: wspbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::FAILURE;
        }
    };
    let report = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Knobs::default(),
    );
    eprintln!(
        "wspbench: {} seed {}: {} passes (+{} traced), {} ops attempted, {} failed, fingerprint {:016x}",
        args.workload.name(),
        args.seed,
        report.passes,
        report.traced_passes,
        report.attempted,
        report.failed,
        report.fingerprint,
    );
    for f in &report.failures {
        eprintln!("wspbench: failure: {f}");
    }
    println!("{REPORT_PREFIX}{}", compact(&report.detail_json()));
    println!("{}", compact(&report.result_json(args.trace)));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
