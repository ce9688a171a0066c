//! The speculative suggest-ahead pipeline is gone (DESIGN §15): its two
//! trace events left the trace format and its flag left the CLI. Inputs
//! written for it fail loudly; the lenient trace replay skips the lines.
//! The `--surrogate` flag is gone too: the from-scratch refit it selected
//! gave the same output, slower, and remains only as the parity suites'
//! reference (`SurrogateMode::Full`).

use hiperbot::cli::parse_args;
use hiperbot::core::checkpoint::CheckpointError;
use hiperbot::core::{EvalOutcome, Tuner, TunerOptions};
use hiperbot::obs::{summarize_trace, summarize_trace_with, MemoryRecorder};
use hiperbot::space::{Configuration, Domain, ParamDef, ParameterSpace};
use std::sync::Arc;

fn space() -> ParameterSpace {
    let vals: Vec<i64> = (0..10).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
        .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
        .build()
        .unwrap()
}

fn options() -> TunerOptions {
    TunerOptions::default().with_seed(3).with_init_samples(8)
}

/// A batch-4 Ranking trace with a `SpeculationCommitted` line, as a
/// pipelined run wrote it, inserted mid-stream. Returns the clean trace,
/// the tampered one and the tampered line's number.
fn traces() -> (String, String, usize) {
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new(space(), options()).with_recorder(rec.clone());
    tuner
        .run_batch_fallible(24, 4, |cfgs, _base| {
            cfgs.iter()
                .map(|c: &Configuration| {
                    let (x, y) = (c.value(0).index() as f64, c.value(1).index() as f64);
                    EvalOutcome::Ok((x - 7.0).powi(2) + (y - 3.0).powi(2) + 1.0)
                })
                .collect()
        })
        .unwrap();
    let mut lines: Vec<String> = rec
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    let clean = lines.join("\n");
    let at = lines.len() / 2;
    lines.insert(
        at,
        r#"{"SpeculationCommitted":{"iteration":12,"batch":4}}"#.into(),
    );
    (clean, lines.join("\n"), at + 1)
}

#[test]
fn speculation_events_fail_strict_reads_and_are_skipped_leniently() {
    let (clean, tampered, lineno) = traces();
    assert!(Tuner::resume_from_trace(space(), options(), &clean).is_ok());

    let err = Tuner::resume_from_trace(space(), options(), &tampered)
        .err()
        .expect("a trace with a removed event must not resume");
    match &err {
        CheckpointError::Parse(why) => {
            assert!(why.contains(&format!("trace line {lineno}:")), "{why}")
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    let err = summarize_trace(&tampered).unwrap_err();
    assert!(err.starts_with(&format!("line {lineno}:")), "{err}");

    let lenient = summarize_trace_with(&tampered, true).unwrap();
    let strict = summarize_trace_with(&clean, false).unwrap();
    assert_eq!(lenient.skipped_lines, 1);
    assert_eq!(lenient.events, strict.events);
    assert_eq!(lenient.diagnostics, strict.diagnostics);
}

/// Parses `--app kripke <flag> <value>` and expects `flag` rejected as an
/// unknown argument.
fn assert_unknown_flag(flag: &str, value: &str) {
    let args: Vec<String> = ["--app", "kripke", flag, value]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = parse_args(&args).unwrap_err();
    assert!(
        err.starts_with(&format!("unknown argument '{flag}'")),
        "{err}"
    );
}

#[test]
fn pipeline_flag_is_an_unknown_argument() {
    assert_unknown_flag("--pipeline", "on");
}

#[test]
fn surrogate_flag_is_an_unknown_argument() {
    assert_unknown_flag("--surrogate", "full");
}
