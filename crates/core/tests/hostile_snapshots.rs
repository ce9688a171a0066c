//! Hostile snapshots never panic. Arbitrary bytes, byte edits of a valid
//! snapshot and every single-field mutation of its JSON tree go through
//! `TunerCheckpoint::from_json`, `Tuner::resume_from_checkpoint` and one
//! `step_fallible`, for a Proposal tuner (which rebuilds its incremental
//! engine from the restored history) and a Ranking tuner, from snapshots
//! taken after the bootstrap and in the middle of it. Each case must come
//! back as a typed error or step cleanly.

use hiperbot_core::checkpoint::{CheckpointError, TunerCheckpoint};
use hiperbot_core::{CheckpointPolicy, EvalOutcome, SelectionStrategy, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn proposal_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 4, 8])))
        .build()
        .unwrap()
}

fn ranking_space() -> ParameterSpace {
    let vals: Vec<i64> = (0..6).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&vals)))
        .param(ParamDef::new("b", Domain::discrete_ints(&vals)))
        .build()
        .unwrap()
}

/// A deterministic objective with a crashing region, so snapshots carry
/// quarantined failures too.
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

/// One tuner kind whose snapshots are attacked.
struct Campaign {
    space: fn() -> ParameterSpace,
    options: TunerOptions,
}

fn campaigns() -> [Campaign; 2] {
    let base = TunerOptions::default().with_seed(5).with_init_samples(6);
    [
        Campaign {
            space: proposal_space,
            options: base
                .clone()
                .with_strategy(SelectionStrategy::Proposal { candidates: 8 }),
        },
        Campaign {
            space: ranking_space,
            options: base,
        },
    ]
}

/// Valid snapshots of `c`: one taken mid-bootstrap (a run killed after
/// three trials) and one after ten trials.
fn valid_snapshots(c: &Campaign) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("hiperbot-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Tests run on parallel threads: every call writes its own file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = dir.join(format!(
        "snap-{}.json",
        CALLS.fetch_add(1, Ordering::SeqCst)
    ));
    let calls = AtomicUsize::new(0);
    let mut killed = Tuner::new((c.space)(), c.options.clone())
        .with_checkpointing(CheckpointPolicy::new(&path, 1));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        killed.run_fallible(10, |cfg| {
            if calls.fetch_add(1, Ordering::SeqCst) >= 3 {
                panic!("simulated crash");
            }
            eval(cfg)
        })
    }));
    assert!(crashed.is_err());
    let mid = TunerCheckpoint::load(&path).unwrap();
    assert!(!mid.bootstrapped, "the kill lands inside the bootstrap");
    std::fs::remove_file(&path).ok();

    let mut done = Tuner::new((c.space)(), c.options.clone());
    done.run_fallible(10, eval);
    vec![mid.to_json(), done.checkpoint().to_json()]
}

/// Feeds `json` through parse, resume and one step. Returns whether it
/// stepped; panics (failing the test) only if the tuner itself panicked.
fn survives(c: &Campaign, json: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let snapshot = TunerCheckpoint::from_json(json).ok()?;
        let mut tuner =
            Tuner::resume_from_checkpoint((c.space)(), c.options.clone(), &snapshot).ok()?;
        tuner.step_fallible(eval);
        Some(())
    }));
    match outcome {
        Ok(stepped) => stepped.is_some(),
        Err(_) => panic!(
            "{:?} tuner panicked on the snapshot {json}",
            c.options.strategy
        ),
    }
}

/// A path to one node of a JSON tree.
#[derive(Debug, Clone)]
enum Seg {
    Key(usize),
    Index(usize),
}

fn paths(v: &Value, prefix: &mut Vec<Seg>, out: &mut Vec<Vec<Seg>>) {
    out.push(prefix.clone());
    match v {
        Value::Object(entries) => {
            for (i, (_, child)) in entries.iter().enumerate() {
                prefix.push(Seg::Key(i));
                paths(child, prefix, out);
                prefix.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                prefix.push(Seg::Index(i));
                paths(child, prefix, out);
                prefix.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[Seg]) -> &'a mut Value {
    path.iter().fold(v, |node, seg| match (node, seg) {
        (Value::Object(entries), Seg::Key(i)) => &mut entries[*i].1,
        (Value::Array(items), Seg::Index(i)) => &mut items[*i],
        _ => unreachable!("paths follow the tree"),
    })
}

/// Replacement values for one field: every JSON kind, plus the boundary
/// numbers a snapshot's integers and floats can hit.
fn replacements(original: &Value) -> Vec<Value> {
    let mut out = vec![
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::UInt(0),
        Value::UInt(1),
        Value::UInt(4),
        Value::UInt(u32::MAX as u64),
        Value::UInt(u64::MAX),
        Value::Float(0.5),
        Value::Float(-0.0),
        Value::Float(1e308),
        Value::Float(-1e308),
        Value::Str(String::new()),
        Value::Str("Index".into()),
        Value::Array(Vec::new()),
        Value::Object(Vec::new()),
    ];
    match original {
        Value::UInt(u) => out.extend([u.wrapping_add(1), u.wrapping_sub(1)].map(Value::UInt)),
        Value::Float(f) => out.extend([f + 1.0, -f, f * 1e300].map(Value::Float)),
        Value::Bool(b) => out.push(Value::Bool(!b)),
        Value::Array(items) if !items.is_empty() => {
            out.push(Value::Array(items[..items.len() - 1].to_vec()));
            let mut doubled = items.clone();
            doubled.push(items[0].clone());
            out.push(Value::Array(doubled));
        }
        _ => {}
    }
    out
}

#[test]
fn every_single_field_mutation_is_a_typed_error_or_a_clean_step() {
    for c in &campaigns() {
        for json in valid_snapshots(c) {
            assert!(survives(c, &json), "the valid snapshot must resume");
            let tree: Value = serde_json::from_str(&json).unwrap();
            let mut all = Vec::new();
            paths(&tree, &mut Vec::new(), &mut all);
            let (mut stepped, mut rejected) = (0usize, 0usize);
            for path in all.iter().filter(|p| !p.is_empty()) {
                let original = node_mut(&mut tree.clone(), path).clone();
                for replacement in replacements(&original) {
                    let mut mutated = tree.clone();
                    *node_mut(&mut mutated, path) = replacement;
                    if survives(c, &serde_json::to_string(&mutated).unwrap()) {
                        stepped += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
            assert!(
                stepped > 0 && rejected > 0,
                "{stepped} stepped, {rejected} rejected"
            );
        }
    }
}

/// Regression: a cursor at the top of the generator's range resumed, and
/// the next read of the stream position overflowed. It is now rejected.
#[test]
fn a_cursor_past_the_generators_range_is_a_typed_error() {
    for c in &campaigns() {
        for json in valid_snapshots(c) {
            let mut snapshot = TunerCheckpoint::from_json(&json).unwrap();
            snapshot.rng_word_pos = u64::MAX;
            let err = Tuner::resume_from_checkpoint((c.space)(), c.options.clone(), &snapshot)
                .err()
                .expect("an unreachable cursor must be rejected");
            assert!(
                matches!(err, CheckpointError::RngPosition { found: u64::MAX }),
                "{err}"
            );
        }
    }
}

/// Regression: a mid-bootstrap snapshot whose evaluated prefix no longer
/// matches the redrawn sample list (here its first trial is replaced by a
/// configuration the redraw yields later) re-evaluated a configuration it
/// already held, and the history panicked on the duplicate. The redraw now
/// skips what the history holds.
#[test]
fn a_mismatched_mid_bootstrap_redraw_never_evaluates_a_configuration_twice() {
    for c in &campaigns() {
        // The fourth bootstrap trial of the uninterrupted run: the first
        // sample a resume from three trials redraws and evaluates.
        let rec = Arc::new(MemoryRecorder::new());
        let mut reference = Tuner::new((c.space)(), c.options.clone()).with_recorder(rec.clone());
        reference.run_fallible(10, eval);
        let fourth =
            rec.events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::ObjectiveEvaluated { config, .. }
                    | Event::TrialFailed { config, .. } => config,
                    _ => None,
                })
                .nth(3)
                .expect("the run evaluated four trials");

        let mut snapshot = TunerCheckpoint::from_json(&valid_snapshots(c)[0]).unwrap();
        match snapshot.history.configs.first_mut() {
            Some(first) => *first = fourth,
            None => snapshot.history.failures[0].config = fourth,
        }
        let mut tuner =
            Tuner::resume_from_checkpoint((c.space)(), c.options.clone(), &snapshot).unwrap();
        assert!(tuner.step_fallible(eval));
        assert!(tuner.history().trials() < c.options.init_samples);
        assert!(
            tuner.step_fallible(eval),
            "the run goes on after the bootstrap"
        );
        // The batch driver's chunked bootstrap skips it too.
        let mut tuner =
            Tuner::resume_from_checkpoint((c.space)(), c.options.clone(), &snapshot).unwrap();
        assert!(tuner.step_batch_fallible(1, |cfgs, _| cfgs.iter().map(eval).collect()));
        assert!(tuner.history().trials() < c.options.init_samples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded lossily as the loader would see them.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
        which in 0usize..2,
    ) {
        let c = &campaigns()[which];
        survives(c, &String::from_utf8_lossy(&bytes));
    }

    /// Byte edits of a valid snapshot — an overwrite, a deletion or an
    /// insertion at a random offset — which mostly still parse.
    #[test]
    fn byte_edits_of_a_valid_snapshot_never_panic(
        which in 0usize..2,
        mid_bootstrap in 0usize..2,
        edits in proptest::collection::vec((0u8..3, 0usize..100_000, 0u8..=255), 1..4),
    ) {
        let c = &campaigns()[which];
        let mut bytes = valid_snapshots(c)[mid_bootstrap].clone().into_bytes();
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
        survives(c, &String::from_utf8_lossy(&bytes));
    }
}
