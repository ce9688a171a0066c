//! The speculative suggest-ahead pipeline's determinism contract,
//! regression- and property-pinned:
//!
//! - `run_batch_pipelined(budget, k, ..)` is **bit-identical** to
//!   `run_batch_fallible(budget, k, ..)` — same history, same failures,
//!   same best, same checkpoint bytes, and the same trace event sequence
//!   once the pipeline's `Speculation*` bookkeeping events (which carry no
//!   decision state) and wall-clock timings are set aside — in both
//!   Ranking and Proposal modes.
//! - A pipelined run killed at any trial and resumed from its last
//!   snapshot finishes bit-identical to the uninterrupted serial run —
//!   serial (batch 1), batch, and fault-injected modes.
//! - Speculation never leaks into snapshot bytes: every snapshot a
//!   pipelined run writes is merge-aligned and replays to the reference.

use hiperbot_core::checkpoint::{CheckpointError, TunerCheckpoint};
use hiperbot_core::{CheckpointPolicy, EvalOutcome, SelectionStrategy, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A 3-D discrete space (8·8·6 = 384 configurations).
fn space() -> ParameterSpace {
    let eight: Vec<i64> = (0..8).collect();
    let six: Vec<i64> = (0..6).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&eight)))
        .param(ParamDef::new("y", Domain::discrete_ints(&eight)))
        .param(ParamDef::new("z", Domain::discrete_ints(&six)))
        .build()
        .unwrap()
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.value(0).index() as f64;
    let y = cfg.value(1).index() as f64;
    let z = cfg.value(2).index() as f64;
    (x - 5.0).powi(2) + (y - 2.0).powi(2) + 0.5 * (z - 4.0).powi(2) + 1.0
}

fn ok(cfg: &Configuration) -> EvalOutcome {
    EvalOutcome::Ok(objective(cfg))
}

/// Deterministic fault injection keyed on the configuration alone, so the
/// outcome is independent of scheduling and of where a run was killed.
fn faulty(cfg: &Configuration) -> EvalOutcome {
    if (cfg.value(0).index() * 3 + cfg.value(1).index()).is_multiple_of(5) {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        EvalOutcome::Ok(objective(cfg))
    }
}

/// A mixed continuous + discrete space for Proposal-mode tests (the
/// pipeline must preserve the RNG cursor through speculation).
fn proposal_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[0, 1, 2, 3])))
        .build()
        .unwrap()
}

fn proposal_ok(cfg: &Configuration) -> EvalOutcome {
    let x = cfg.value(0).as_f64();
    let k = cfg.value(1).index() as f64;
    EvalOutcome::Ok((x - 0.3).powi(2) + 0.1 * (k - 2.0).powi(2) + 1.0)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hiperbot-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The pipeline's commit/discard bookkeeping events carry no decision
/// state and are positionally tied to where the pipeline (re)started, so
/// the bit-identity contract excludes them.
fn is_speculation(event: &Event) -> bool {
    matches!(
        event,
        Event::SpeculationCommitted { .. } | Event::SpeculationDiscarded { .. }
    )
}

/// Serializes an event with wall-clock fields zeroed: timings are the one
/// thing a concurrent (or resumed) run legitimately cannot reproduce.
fn normalized(event: &Event) -> String {
    let mut s = serde_json::to_string(event).unwrap();
    for key in ["\"elapsed_ns\":", "\"backoff_ns\":"] {
        let mut from = 0;
        while let Some(p) = s[from..].find(key) {
            let start = from + p + key.len();
            let end = s[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    s
}

fn normalized_trace(recorder: &MemoryRecorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .filter(|e| !is_speculation(e))
        .map(normalized)
        .collect()
}

fn fingerprint(t: &Tuner) -> (String, usize) {
    (
        serde_json::to_string(t.history()).unwrap(),
        t.history().trials(),
    )
}

/// Runs the serial and pipelined batch drivers side by side with tracing
/// and per-merge checkpointing, asserting the full bit-identity contract:
/// history, best, trace (modulo `Speculation*` + timings), and final
/// snapshot bytes.
fn assert_drivers_match(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    batch: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    tag: &str,
) {
    let serial_path = temp_path(&format!("{tag}-serial.json"));
    let serial_rec = Arc::new(MemoryRecorder::new());
    let mut serial = Tuner::new(space.clone(), opts.clone())
        .with_recorder(serial_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&serial_path, 1));
    let serial_best =
        serial.run_batch_fallible(budget, batch, |cfgs, _| cfgs.iter().map(eval).collect());

    let piped_path = temp_path(&format!("{tag}-piped.json"));
    let piped_rec = Arc::new(MemoryRecorder::new());
    let mut piped = Tuner::new(space, opts)
        .with_recorder(piped_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&piped_path, 1));
    let piped_best =
        piped.run_batch_pipelined(budget, batch, |cfgs, _| cfgs.iter().map(eval).collect());

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&piped),
        "{tag}: histories diverged"
    );
    match (serial_best, piped_best) {
        (Some(s), Some(p)) => {
            assert_eq!(s.config, p.config, "{tag}");
            assert_eq!(s.objective, p.objective, "{tag}");
            assert_eq!(s.evaluations, p.evaluations, "{tag}");
        }
        (None, None) => {}
        (s, p) => panic!("{tag}: best mismatch: {s:?} vs {p:?}"),
    }
    assert_eq!(
        normalized_trace(&serial_rec),
        normalized_trace(&piped_rec),
        "{tag}: traces diverged"
    );
    assert_eq!(
        std::fs::read(&serial_path).unwrap(),
        std::fs::read(&piped_path).unwrap(),
        "{tag}: final snapshot bytes diverged"
    );
    // And both tuners remain interchangeable going forward.
    assert_eq!(
        serial.suggest_batch(batch),
        piped.suggest_batch(batch),
        "{tag}"
    );
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&piped_path).ok();
}

#[test]
fn pipelined_matches_serial_ranking_across_seeds_and_batches() {
    for seed in [3u64, 11, 42] {
        for batch in [1usize, 3, 4, 8] {
            let opts = TunerOptions::default().with_seed(seed).with_init_samples(8);
            assert_drivers_match(
                space(),
                opts,
                40,
                batch,
                ok,
                &format!("rank-s{seed}-b{batch}"),
            );
        }
    }
}

#[test]
fn pipelined_matches_serial_ranking_with_failures() {
    for batch in [1usize, 4] {
        let opts = TunerOptions::default().with_seed(17).with_init_samples(8);
        assert_drivers_match(
            space(),
            opts,
            40,
            batch,
            faulty,
            &format!("faulty-b{batch}"),
        );
    }
}

#[test]
fn pipelined_matches_serial_proposal() {
    for batch in [1usize, 3, 4] {
        let opts = TunerOptions::default()
            .with_seed(13)
            .with_init_samples(8)
            .with_strategy(SelectionStrategy::Proposal { candidates: 16 });
        assert_drivers_match(
            proposal_space(),
            opts,
            32,
            batch,
            proposal_ok,
            &format!("prop-b{batch}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized cross-section over (seed, batch) for the fault-injected
    /// Ranking pipeline — the exhaustive loops above pin a few seeds;
    /// this samples the product space.
    #[test]
    fn random_seed_and_batch_pipeline_bit_identical(seed in 0u64..50, batch in 1usize..6) {
        let opts = TunerOptions::default().with_seed(seed).with_init_samples(6);
        assert_drivers_match(
            space(),
            opts,
            30,
            batch,
            faulty,
            &format!("prop-rand-{seed}-{batch}"),
        );
    }
}

/// Kills a pipelined run after exactly `k` evaluations (the `k+1`-th
/// panics on the worker thread, as a crash would), resumes from the
/// snapshot the cadence left behind, and asserts the finished run is
/// bit-identical to the uninterrupted serial reference.
fn assert_pipelined_kill_resume(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    batch: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    tag: &str,
) {
    // The uninterrupted *serial* reference: the strongest possible anchor,
    // covering pipeline parity and resume determinism in one assertion.
    let ref_path = temp_path(&format!("{tag}-ref.json"));
    let ref_rec = Arc::new(MemoryRecorder::new());
    let mut reference = Tuner::new(space.clone(), opts.clone())
        .with_recorder(ref_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&ref_path, 1));
    let ref_best = reference
        .run_batch_fallible(budget, batch, |cfgs, _| cfgs.iter().map(eval).collect())
        .unwrap();
    let ref_history = serde_json::to_string(reference.history()).unwrap();
    let ref_events = ref_rec.events();
    let ref_bytes = std::fs::read(&ref_path).unwrap();

    for k in 1..budget {
        let path = temp_path(&format!("{tag}-k{k}.json"));
        let calls = AtomicUsize::new(0);
        let mut killed = Tuner::new(space.clone(), opts.clone())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            killed.run_batch_pipelined(budget, batch, |cfgs, _| {
                cfgs.iter()
                    .map(|c| {
                        if calls.fetch_add(1, Ordering::SeqCst) >= k {
                            panic!("simulated crash at trial {k}");
                        }
                        eval(c)
                    })
                    .collect()
            })
        }));
        assert!(crashed.is_err(), "{tag}: run should have crashed at {k}");
        let snap = match TunerCheckpoint::load(&path) {
            Ok(snap) => snap,
            Err(CheckpointError::Io(_)) => {
                // Crashed inside the very first batch: nothing had merged,
                // so nothing was snapshotted — a fresh start IS the resume.
                assert!(k < batch.max(opts.init_samples), "{tag}: kill at {k}");
                continue;
            }
            Err(e) => panic!("{tag}: kill at {k}: snapshot load failed: {e}"),
        };
        // Speculation must never leak into snapshot bytes: snapshots hold
        // exactly the merged trials — no constant-liar fantasies, no
        // pre-computed picks — so the trial count is merge-aligned and
        // every config in the snapshot is a real, evaluated one.
        let at = snap.history.configs.len() + snap.history.failures.len();
        assert!(at <= k, "{tag}: snapshot holds only fully merged batches");
        assert!(
            at % batch == 0 || at == budget.min(opts.init_samples),
            "{tag}: kill at {k}: snapshot is not merge-aligned ({at})"
        );

        let rec = Arc::new(MemoryRecorder::new());
        let mut resumed = Tuner::resume_from_checkpoint(space.clone(), opts.clone(), &snap)
            .unwrap()
            .with_recorder(rec.clone())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let best = resumed
            .run_batch_pipelined(budget, batch, |cfgs, _| cfgs.iter().map(eval).collect())
            .unwrap();
        assert_eq!(
            serde_json::to_string(resumed.history()).unwrap(),
            ref_history,
            "{tag}: kill at {k}: resumed history diverged"
        );
        assert_eq!(best.objective, ref_best.objective, "{tag}: kill at {k}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            ref_bytes,
            "{tag}: kill at {k}: final snapshot bytes diverged"
        );
        // Trace: after its RunHeader + RunResumed preamble, the resumed
        // pipelined run replays the serial reference's stream exactly
        // (minus its own Speculation* bookkeeping).
        let events = rec.events();
        assert!(
            matches!(events[0], Event::RunHeader(_)),
            "{tag}: kill at {k}"
        );
        assert!(
            matches!(&events[1], Event::RunResumed { trials, source, .. }
                if *trials == at as u64 && source == "snapshot"),
            "{tag}: kill at {k}: missing or wrong RunResumed"
        );
        let resumed_suffix: Vec<String> = events[2..]
            .iter()
            .filter(|e| !is_speculation(e))
            .map(normalized)
            .collect();
        let ref_at = ref_events
            .iter()
            .position(
                |e| matches!(e, Event::CheckpointWritten { trials, .. } if *trials == at as u64),
            )
            .unwrap_or_else(|| panic!("{tag}: reference has no checkpoint at trial {at}"));
        let ref_suffix: Vec<String> = ref_events[ref_at + 1..].iter().map(normalized).collect();
        assert_eq!(
            resumed_suffix, ref_suffix,
            "{tag}: kill at {k}: trace suffix diverged"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}

#[test]
fn pipelined_serial_mode_kill_at_every_trial_resumes_bit_identically() {
    // Batch 1: the pipeline degenerates to suggest-ahead of single trials.
    let opts = TunerOptions::default().with_seed(3).with_init_samples(6);
    assert_pipelined_kill_resume(space(), opts, 20, 1, ok, "kill-serial");
}

#[test]
fn pipelined_batch_kill_at_every_trial_resumes_bit_identically() {
    let opts = TunerOptions::default().with_seed(5).with_init_samples(8);
    assert_pipelined_kill_resume(space(), opts, 24, 4, ok, "kill-batch");
}

#[test]
fn pipelined_faulty_kill_at_every_trial_resumes_bit_identically() {
    let opts = TunerOptions::default().with_seed(11).with_init_samples(8);
    assert_pipelined_kill_resume(space(), opts, 24, 4, faulty, "kill-faulty");
}

#[test]
fn pipelined_proposal_kill_at_every_trial_resumes_bit_identically() {
    let opts = TunerOptions::default()
        .with_seed(7)
        .with_init_samples(6)
        .with_strategy(SelectionStrategy::Proposal { candidates: 16 });
    assert_pipelined_kill_resume(proposal_space(), opts, 18, 3, proposal_ok, "kill-prop");
}

#[test]
fn final_snapshot_of_pipelined_run_holds_exactly_the_real_history() {
    // Direct leak check on the snapshot contents: after a pipelined run,
    // the persisted history equals the in-memory one byte for byte (no
    // fantasy observations, no speculative picks).
    let path = temp_path("leak-check.json");
    let opts = TunerOptions::default().with_seed(29).with_init_samples(8);
    let mut t = Tuner::new(space(), opts).with_checkpointing(CheckpointPolicy::new(&path, 1));
    t.run_batch_pipelined(32, 4, |cfgs, _| cfgs.iter().map(ok).collect());
    let snap = TunerCheckpoint::load(&path).unwrap();
    assert_eq!(
        serde_json::to_string(&snap.history).unwrap(),
        serde_json::to_string(t.history()).unwrap(),
        "snapshot history diverged from the real one"
    );
    assert_eq!(snap.history.configs.len(), t.history().len());
    std::fs::remove_file(&path).ok();
}
