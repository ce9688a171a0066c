//! Hostile traces never panic. Arbitrary bytes, byte edits of a valid
//! JSONL trace, dropped and duplicated lines, and trial configurations
//! mutated out of the space (wrong arity, a `Real` in a discrete slot, an
//! index past its domain) go through `Tuner::resume_from_trace` and two
//! `step_fallible` calls, for traces of a Ranking tuner (which replays the
//! trace into its code-addressed pool) and of a Proposal tuner, taken after
//! the bootstrap and in the middle of it. Each case must come back as a
//! typed error or step cleanly.

use hiperbot_core::checkpoint::CheckpointError;
use hiperbot_core::{EvalOutcome, SelectionStrategy, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::{Configuration, Domain, ParamDef, ParamValue, ParameterSpace};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn proposal_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 4, 8])))
        .build()
        .unwrap()
}

/// A constrained discrete space, so the pool's codes skip infeasible
/// members of the product.
fn ranking_space() -> ParameterSpace {
    let vals: Vec<i64> = (0..6).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&vals)))
        .param(ParamDef::new("b", Domain::discrete_ints(&vals)))
        .constraint("a + b != 5", |c, _| {
            c.value(0).index() + c.value(1).index() != 5
        })
        .build()
        .unwrap()
}

/// A deterministic objective with a crashing region, so traces carry
/// failed trials too.
fn eval(cfg: &Configuration) -> EvalOutcome {
    let (u, k) = (cfg.value(0).as_f64(), cfg.value(1).as_f64());
    if ((u * 7.0 + k) as u64).is_multiple_of(5) {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        EvalOutcome::Ok((u - 0.3).powi(2) + (k - 2.0).powi(2) + 1.0)
    }
}

/// One tuner kind whose traces are attacked.
struct Campaign {
    space: fn() -> ParameterSpace,
    options: TunerOptions,
}

fn campaigns() -> [Campaign; 2] {
    let base = TunerOptions::default().with_seed(5).with_init_samples(6);
    [
        Campaign {
            space: ranking_space,
            options: base.clone(),
        },
        Campaign {
            space: proposal_space,
            options: base.with_strategy(SelectionStrategy::Proposal { candidates: 8 }),
        },
    ]
}

fn is_trial(event: &Event) -> bool {
    matches!(
        event,
        Event::ObjectiveEvaluated { .. } | Event::TrialFailed { .. }
    )
}

/// The events of a ten-trial run of `c`.
fn run_events(c: &Campaign) -> Vec<Event> {
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new((c.space)(), c.options.clone()).with_recorder(rec.clone());
    tuner.run_fallible(10, eval);
    rec.events()
}

/// Valid traces of `c` as event lists: one cut after three trials, inside
/// the bootstrap, and the whole ten-trial run.
fn valid_traces(c: &Campaign) -> Vec<Vec<Event>> {
    let events = run_events(c);
    let mut trials = 0;
    let cut = events
        .iter()
        .position(|e| {
            trials += usize::from(is_trial(e));
            trials == 4
        })
        .expect("the run evaluated four trials");
    vec![events[..cut].to_vec(), events]
}

fn jsonl(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Feeds `trace` through resume and two steps. Returns the resume error,
/// or `None` when it resumed and stepped; panics (failing the test) only
/// if the tuner itself panicked.
fn attack(c: &Campaign, trace: &str) -> Option<CheckpointError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut tuner = Tuner::resume_from_trace((c.space)(), c.options.clone(), trace)?;
        tuner.step_fallible(eval);
        tuner.step_fallible(eval);
        Ok(())
    }));
    match outcome {
        Ok(resumed) => resumed.err(),
        Err(_) => panic!(
            "{:?} tuner panicked on the trace\n{trace}",
            c.options.strategy
        ),
    }
}

/// `cfg` pushed out of `space` in every way the trace format allows: one
/// value short, one too many, and per slot a value of the wrong kind and
/// indices past the domain.
fn outside(space: &ParameterSpace, cfg: &Configuration) -> Vec<Configuration> {
    let values = cfg.values();
    let mut out = vec![
        Configuration::new(values[..values.len() - 1].to_vec()),
        Configuration::new([values, &[ParamValue::Index(0)]].concat()),
        Configuration::new(Vec::new()),
    ];
    for (slot, def) in space.params().iter().enumerate() {
        let wrong_kind = match def.domain().cardinality() {
            Some(card) => vec![
                ParamValue::Real(0.0),
                ParamValue::Index(card),
                ParamValue::Index(usize::MAX),
            ],
            None => vec![ParamValue::Index(0), ParamValue::Real(2.0)],
        };
        for bad in wrong_kind {
            let mut mutated = cfg.clone();
            mutated.set_value(slot, bad);
            out.push(mutated);
        }
    }
    out
}

fn with_config(event: &Event, cfg: Configuration) -> Event {
    match event.clone() {
        Event::ObjectiveEvaluated {
            iteration,
            objective,
            bootstrap,
            elapsed_ns,
            ..
        } => Event::ObjectiveEvaluated {
            iteration,
            objective,
            bootstrap,
            elapsed_ns,
            config: Some(cfg),
        },
        Event::TrialFailed {
            iteration,
            reason,
            elapsed_ns,
            ..
        } => Event::TrialFailed {
            iteration,
            reason,
            elapsed_ns,
            config: Some(cfg),
        },
        other => other,
    }
}

fn config_of(event: &Event) -> Option<&Configuration> {
    match event {
        Event::ObjectiveEvaluated { config, .. } | Event::TrialFailed { config, .. } => {
            config.as_ref()
        }
        _ => None,
    }
}

#[test]
fn valid_traces_resume_only_under_ranking() {
    for c in &campaigns() {
        for trace in valid_traces(c) {
            let err = attack(c, &jsonl(&trace));
            match c.options.strategy {
                SelectionStrategy::Ranking => assert!(err.is_none(), "{err:?}"),
                SelectionStrategy::Proposal { .. } => {
                    assert!(matches!(err, Some(CheckpointError::TraceNotExact(_))))
                }
            }
        }
    }
}

#[test]
fn configurations_outside_the_space_are_typed_errors() {
    for c in &campaigns() {
        let space = (c.space)();
        for trace in valid_traces(c) {
            for at in (0..trace.len()).filter(|&i| is_trial(&trace[i])) {
                let cfg = config_of(&trace[at]).expect("traces embed configurations");
                for hostile in outside(&space, cfg) {
                    let mut tampered = trace.clone();
                    tampered[at] = with_config(&trace[at], hostile.clone());
                    let err = attack(c, &jsonl(&tampered));
                    match c.options.strategy {
                        SelectionStrategy::Ranking => assert!(
                            matches!(&err, Some(CheckpointError::InvalidHistory(msg))
                                if msg.contains("outside this space")),
                            "{hostile:?}: {err:?}"
                        ),
                        SelectionStrategy::Proposal { .. } => {
                            assert!(err.is_some(), "{hostile:?} resumed a Proposal trace")
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dropped_and_duplicated_lines_are_typed_errors_or_clean_steps() {
    for c in &campaigns() {
        for trace in valid_traces(c) {
            let (mut stepped, mut rejected) = (0usize, 0usize);
            for at in 0..trace.len() {
                let mut dropped = trace.clone();
                dropped.remove(at);
                let mut doubled = trace.clone();
                doubled.insert(at, trace[at].clone());
                for tampered in [dropped, doubled] {
                    match attack(c, &jsonl(&tampered)) {
                        None => stepped += 1,
                        Some(_) => rejected += 1,
                    }
                }
            }
            assert!(rejected > 0, "{stepped} stepped, {rejected} rejected");
            if c.options.strategy == SelectionStrategy::Ranking {
                assert!(stepped > 0, "{stepped} stepped, {rejected} rejected");
            }
        }
    }
}

/// A duplicated trial line is the one duplicate a trace can hold; it must
/// be named as such.
#[test]
fn a_duplicated_trial_is_rejected_as_a_duplicate() {
    let c = &campaigns()[0];
    let trace = valid_traces(c).pop().unwrap();
    let at = trace.iter().position(is_trial).unwrap();
    let mut doubled = trace.clone();
    doubled.insert(at, trace[at].clone());
    let err = attack(c, &jsonl(&doubled));
    assert!(
        matches!(&err, Some(CheckpointError::InvalidHistory(msg)) if msg.contains("duplicate")),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded lossily as the loader would see them.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
        which in 0usize..2,
    ) {
        attack(&campaigns()[which], &String::from_utf8_lossy(&bytes));
    }

    /// Byte edits of a valid trace — an overwrite, a deletion or an
    /// insertion at a random offset — which mostly still parse.
    #[test]
    fn byte_edits_of_a_valid_trace_never_panic(
        which in 0usize..2,
        mid_bootstrap in 0usize..2,
        edits in proptest::collection::vec((0u8..3, 0usize..100_000, 0u8..=255), 1..4),
    ) {
        let c = &campaigns()[which];
        let mut bytes = jsonl(&valid_traces(c)[1 - mid_bootstrap]).into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        attack(c, &String::from_utf8_lossy(&bytes));
    }

    /// Byte edits confined to the digits of one trial's configuration,
    /// which keep the line parseable and move the configuration around
    /// and out of the space.
    #[test]
    fn digit_edits_of_a_trial_configuration_never_panic(
        which in 0usize..2,
        trial in 0usize..10,
        digits in proptest::collection::vec(0u8..10, 1..4),
    ) {
        let c = &campaigns()[which];
        let trace = valid_traces(c).pop().unwrap();
        let at = trace.iter().enumerate().filter(|(_, e)| is_trial(e)).nth(trial).unwrap().0;
        let mut lines: Vec<String> =
            trace.iter().map(|e| serde_json::to_string(e).unwrap()).collect();
        let line = &lines[at];
        let from = line.find("\"config\"").expect("trial lines embed their configuration");
        let spots: Vec<usize> = line[from..]
            .char_indices()
            .filter(|(_, ch)| ch.is_ascii_digit())
            .map(|(i, _)| from + i)
            .collect();
        let mut bytes = line.clone().into_bytes();
        for (i, d) in digits.iter().enumerate() {
            bytes[spots[i % spots.len()]] = b'0' + d;
        }
        lines[at] = String::from_utf8(bytes).unwrap();
        attack(c, &lines.join("\n"));
    }
}
