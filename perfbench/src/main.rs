//! End-to-end and per-layer benchmark of HiPerBOt on the shipped app
//! simulators (see `README.md` next to `Cargo.toml`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run builds the workload's dataset (set-up), runs
//! tuning sessions over seeds derived from `--seed` for `--seconds`,
//! checks the outputs, and prints the end-to-end metrics. With `--trace 1`
//! it runs the same timed loop, then replays the workload's quality
//! sessions with spans and the tuner's profile recorder attached, prints
//! the per-layer metrics instead, and writes the raw spans to
//! `.bench_build/spans/<workload>-<seed>.jsonl`. The last line of standard
//! output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check prints `"correct": false` and exits nonzero.
//!
//! `--workload all` runs every workload in a process of its own (so peak
//! memory never carries over), twice at the same seed when untraced, and
//! checks that the quality metrics repeat exactly. `--repeat N` runs the
//! chosen workload (or all of them, interleaved run by run) N times at
//! seeds `seed..seed+N` and prints each metric's median and interquartile
//! spread.

mod calibration;
mod measure;
mod stats;
mod suite;
mod trace;
mod workloads;

use measure::{Metric, Report};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
                     [--repeat <runs>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
    })
}

fn main() -> ExitCode {
    // Pin the rayon pool to one thread before any work: the vendored rayon
    // reads this on every call and otherwise starts a scoped thread per
    // logical core for each parallel sweep.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<workloads::Workload> = match args.workload.as_str() {
        "all" => workloads::WORKLOADS.to_vec(),
        name => workloads::find(name).into_iter().collect(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {:?} (expected one of {} or all)",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let suite = suite::Suite {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    if let Some(runs) = args.repeat {
        return suite.repeat(&selected, runs);
    }
    if args.workload == "all" {
        return suite.all();
    }
    let workload = selected[0];
    let host = hiperbot_bench::host_meta();
    println!(
        "host {}",
        serde_json::to_string(&host).expect("host metadata serializes")
    );
    let report = measure::run(workload, &args_to_run(&args));
    print_report(workload.name, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn args_to_run(args: &Args) -> measure::RunArgs {
    measure::RunArgs {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
    }
}

fn print_report(workload: &str, report: &Report) {
    for line in &report.notes {
        println!("{line}");
    }
    for v in &report.violations {
        println!("VIOLATION {workload}: {v}");
    }
    for m in &report.metrics {
        match m.samples {
            Some(n) => println!(
                "metric {workload} {} = {} {} (n={n})",
                m.name, m.value, m.unit
            ),
            None => println!("metric {workload} {} = {} {}", m.name, m.value, m.unit),
        }
    }
    println!("{}", result_line(report));
}

/// The contract's last line: correctness, attempted and failed counts, and
/// every metric with its unit.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m: &Metric| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serial-energy --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serial-energy", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 5")).is_err());
    }

    #[test]
    fn every_reported_name_is_legal() {
        for w in workloads::WORKLOADS {
            assert!(stats::is_valid_name(w.name), "{}", w.name);
        }
        for (name, unit) in measure::END_TO_END.iter().chain(measure::PER_LAYER) {
            assert!(stats::is_valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Ok(Value::Object(spec)) = serde_json::from_str::<Value>(&text) else {
            panic!("BENCHMARK.json is not a JSON object");
        };
        let list = |key: &str| -> Vec<(String, String)> {
            let Some((_, Value::Array(items))) = spec.iter().find(|(k, _)| k == key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|item| {
                    let field = |f: &str| {
                        item.as_object()
                            .and_then(|o| o.iter().find(|(k, _)| k == f))
                            .and_then(|(_, v)| v.as_str())
                            .unwrap_or("")
                            .to_string()
                    };
                    (
                        field("name"),
                        field(if key == "workloads" { "why" } else { "unit" }),
                    )
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(measure::END_TO_END));
        assert_eq!(list("per_layer"), owned(measure::PER_LAYER));
        let workloads: Vec<(&str, &str)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(list("workloads"), owned(&workloads));
    }
}
