//! Multi-run drivers: every workload once (twice untraced, to check that
//! quality repeats at a fixed seed), or one or all workloads over several
//! seeds with each metric's median and interquartile spread. Every run is
//! a child process of its own, so peak memory never carries over from one
//! workload to the next.

use crate::measure::DETERMINISTIC;
use crate::stats::{median, quartile_spread, quartiles};
use crate::workloads::{Workload, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Settings shared by every child run.
pub struct Suite {
    /// Base seed.
    pub seed: u64,
    /// `--seconds` of each run.
    pub seconds: u64,
    /// `--trace` of each run.
    pub trace: bool,
}

/// Reported metrics as `(name, value, unit)`.
type Metrics = Vec<(String, f64, String)>;

/// A child run's verdict and metrics.
struct ChildRun {
    ok: bool,
    metrics: Metrics,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Reads the contract's last line back: `correct` and the metrics.
fn parse_result(line: &str) -> Option<(bool, Metrics)> {
    let Value::Object(fields) = serde_json::from_str::<Value>(line).ok()? else {
        return None;
    };
    let field = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
    let Some(Value::Bool(correct)) = field("correct") else {
        return None;
    };
    let Some(Value::Object(entries)) = field("metrics") else {
        return None;
    };
    let mut metrics = Vec::new();
    for (name, entry) in entries {
        let get = |k: &str| {
            entry
                .as_object()?
                .iter()
                .find(|(f, _)| f == k)
                .map(|(_, v)| v)
        };
        let value = match get("value")? {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            Value::UInt(v) => *v as f64,
            _ => return None,
        };
        let unit = get("unit")?.as_str()?.to_string();
        metrics.push((name.clone(), value, unit));
    }
    Some((*correct, metrics))
}

impl Suite {
    fn child(&self, workload: &str, seed: u64, echo: bool) -> ChildRun {
        let exe = std::env::current_exe().expect("own executable path");
        let output = Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a workload run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if echo {
            print!("{stdout}");
        } else {
            println!("{workload} seed {seed}: {last}");
        }
        let (correct, metrics) = parse_result(last).unwrap_or((false, Vec::new()));
        ChildRun {
            ok: output.status.success() && correct,
            metrics,
        }
    }

    /// Every workload once, plus (untraced) a second run at the same seed
    /// whose quality metrics must be bit-identical to the first.
    pub fn all(&self) -> ExitCode {
        let mut ok = true;
        let mut table = Vec::new();
        for w in WORKLOADS {
            let first = self.child(w.name, self.seed, true);
            ok &= first.ok;
            if !self.trace {
                let second = self.child(w.name, self.seed, false);
                ok &= second.ok;
                for name in DETERMINISTIC {
                    let (a, b) = (first.metric(name), second.metric(name));
                    if a.is_none() || a.map(f64::to_bits) != b.map(f64::to_bits) {
                        println!(
                            "VIOLATION {}: {name} differs between two runs at seed {}",
                            w.name, self.seed
                        );
                        ok = false;
                    }
                }
            }
            table.push((w.name, first.metrics));
        }
        println!(
            "\nsummary (seed {}, {} s per run):",
            self.seed, self.seconds
        );
        for (name, metrics) in &table {
            for (metric, value, unit) in metrics {
                println!("  {name:<20} {metric:<28} {value:>16.6} {unit}");
            }
        }
        verdict(ok)
    }

    /// `runs` runs of each selected workload at seeds `seed..seed + runs`,
    /// interleaved run by run, then each metric's median, quartiles and
    /// spread (interquartile distance over the median).
    pub fn repeat(&self, selected: &[Workload], runs: usize) -> ExitCode {
        let mut ok = true;
        let mut values: BTreeMap<(&str, String), (Vec<f64>, String)> = BTreeMap::new();
        for i in 0..runs as u64 {
            for w in selected {
                let run = self.child(w.name, self.seed + i, false);
                ok &= run.ok;
                for (metric, value, unit) in run.metrics {
                    let entry = values.entry((w.name, metric)).or_default();
                    entry.0.push(value);
                    entry.1 = unit;
                }
            }
        }
        println!(
            "\n{:<20} {:<28} {:>14} {:>14} {:>14} {:>8}  n",
            "workload", "metric", "q1", "median", "q3", "spread"
        );
        for ((workload, metric), (xs, unit)) in &values {
            let [q1, _, q3] = quartiles(xs).unwrap_or([f64::NAN; 3]);
            let spread = quartile_spread(xs).unwrap_or(f64::NAN);
            let med = median(xs).unwrap_or(f64::NAN);
            println!(
                "{workload:<20} {metric:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4}  {} {unit}",
                xs.len()
            );
        }
        verdict(ok)
    }
}

fn verdict(ok: bool) -> ExitCode {
    if ok {
        println!("all runs correct");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: see violations above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_the_result_line() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"core.picks":{"value":12,"unit":"count"}}}"#;
        let (correct, metrics) = parse_result(line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("setup_s".to_string(), 0.5, "s".to_string()),
                ("core.picks".to_string(), 12.0, "count".to_string()),
            ]
        );
        assert!(parse_result("not json").is_none());
        assert!(parse_result(r#"{"metrics":{}}"#).is_none());
    }
}
