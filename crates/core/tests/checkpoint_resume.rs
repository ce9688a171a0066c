//! Kill-at-k / resume determinism: a run interrupted at any trial and
//! resumed from its last checkpoint must produce a final history, trace,
//! report inputs, and on-disk snapshot bit-identical to the uninterrupted
//! run — across serial, batch, and fault-injected modes, and for the
//! trace-based fallback where it promises exactness.

use hiperbot_core::checkpoint::{CheckpointError, TunerCheckpoint};
use hiperbot_core::{CheckpointPolicy, EvalOutcome, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A 2-D discrete space with a unique optimum at (7, 3).
fn space() -> ParameterSpace {
    let vals: Vec<i64> = (0..10).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
        .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
        .build()
        .unwrap()
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.value(0).index() as f64;
    let y = cfg.value(1).index() as f64;
    (x - 7.0).powi(2) + (y - 3.0).powi(2) + 1.0
}

/// Deterministic fault injection keyed on the configuration alone, so the
/// outcome is independent of scheduling and of where a run was killed.
fn faulty(cfg: &Configuration) -> EvalOutcome {
    if (cfg.value(0).index() * 3 + cfg.value(1).index()).is_multiple_of(4) {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        EvalOutcome::Ok(objective(cfg))
    }
}

fn ok(cfg: &Configuration) -> EvalOutcome {
    EvalOutcome::Ok(objective(cfg))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hiperbot-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Serializes an event with wall-clock fields zeroed: timings are the one
/// thing an interrupted-and-resumed run legitimately cannot reproduce.
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

/// The reference trace suffix that a run resumed at trial `k` should
/// reproduce: everything after the reference's `CheckpointWritten` at `k`.
fn suffix_after_checkpoint(events: &[Event], k: u64) -> Vec<String> {
    let at = events
        .iter()
        .position(|e| matches!(e, Event::CheckpointWritten { trials, .. } if *trials == k))
        .unwrap_or_else(|| panic!("reference has no checkpoint at trial {k}"));
    events[at + 1..].iter().map(normalized).collect()
}

struct Reference {
    history_json: String,
    best_objective: f64,
    best_config: Configuration,
    events: Vec<Event>,
    checkpoint_bytes: Vec<u8>,
}

/// Runs the uninterrupted serial reference with a per-trial checkpoint
/// cadence, capturing everything the resumed runs must match.
fn serial_reference(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    tag: &str,
) -> Reference {
    let path = temp_path(&format!("{tag}-ref.json"));
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new(space, opts)
        .with_recorder(rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&path, 1));
    let best = tuner.run_fallible(budget, eval).unwrap();
    Reference {
        history_json: serde_json::to_string(tuner.history()).unwrap(),
        best_objective: best.objective,
        best_config: best.config,
        events: rec.events(),
        checkpoint_bytes: std::fs::read(&path).unwrap(),
    }
}

/// Kills a serial run after exactly `k` trials (the `k+1`-th objective
/// call panics mid-evaluation, as a crash would) and returns the snapshot
/// the cadence left behind.
fn kill_serial_at(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    k: usize,
    tag: &str,
) -> TunerCheckpoint {
    let path = temp_path(&format!("{tag}-k{k}.json"));
    let calls = AtomicUsize::new(0);
    let mut killed = Tuner::new(space, opts).with_checkpointing(CheckpointPolicy::new(&path, 1));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        killed.run_fallible(budget, |cfg| {
            if calls.fetch_add(1, Ordering::SeqCst) >= k {
                panic!("simulated crash at trial {k}");
            }
            eval(cfg)
        })
    }));
    assert!(crashed.is_err(), "run should have crashed at trial {k}");
    let snap = TunerCheckpoint::load(&path).unwrap();
    assert_eq!(
        snap.history.configs.len() + snap.history.failures.len(),
        k,
        "snapshot should hold exactly the trials completed before the crash"
    );
    snap
}

/// Resumes from `snap`, finishes the run, and asserts bit-identity with
/// the reference: history bytes, best result, final snapshot bytes, and
/// the timing-normalized trace suffix after the kill point.
#[allow(clippy::too_many_arguments)]
fn assert_resumed_matches(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    snap: &TunerCheckpoint,
    reference: &Reference,
    k: usize,
    tag: &str,
) {
    let path = temp_path(&format!("{tag}-k{k}-resumed.json"));
    let rec = Arc::new(MemoryRecorder::new());
    let mut resumed = Tuner::resume_from_checkpoint(space, opts, snap)
        .unwrap()
        .with_recorder(rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&path, 1));
    let best = resumed.run_fallible(budget, eval).unwrap();
    assert_eq!(
        serde_json::to_string(resumed.history()).unwrap(),
        reference.history_json,
        "kill at {k}: resumed history diverged"
    );
    assert_eq!(best.objective, reference.best_objective);
    assert_eq!(best.config, reference.best_config);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        reference.checkpoint_bytes,
        "kill at {k}: final snapshots diverged"
    );
    // Trace: after its RunHeader + RunResumed preamble, the resumed run
    // replays the reference's event stream from the kill point exactly.
    let events = rec.events();
    assert!(matches!(events[0], Event::RunHeader(_)));
    assert!(
        matches!(&events[1], Event::RunResumed { trials, source, .. }
            if *trials == k as u64 && source == "snapshot"),
        "kill at {k}: missing or wrong RunResumed"
    );
    let resumed_suffix: Vec<String> = events[2..].iter().map(normalized).collect();
    assert_eq!(
        resumed_suffix,
        suffix_after_checkpoint(&reference.events, k as u64),
        "kill at {k}: trace suffix diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn serial_kill_at_every_trial_resumes_bit_identically() {
    let budget = 24;
    let opts = || TunerOptions::default().with_seed(3).with_init_samples(6);
    let reference = serial_reference(space(), opts(), budget, ok, "serial");
    for k in 1..budget {
        let snap = kill_serial_at(space(), opts(), budget, ok, k, "serial");
        assert_resumed_matches(space(), opts(), budget, ok, &snap, &reference, k, "serial");
    }
}

#[test]
fn fault_injected_kill_at_every_trial_resumes_bit_identically() {
    let budget = 24;
    let opts = || TunerOptions::default().with_seed(11).with_init_samples(6);
    let reference = serial_reference(space(), opts(), budget, faulty, "faulty");
    for k in 1..budget {
        let snap = kill_serial_at(space(), opts(), budget, faulty, k, "faulty");
        assert_resumed_matches(
            space(),
            opts(),
            budget,
            faulty,
            &snap,
            &reference,
            k,
            "faulty",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized cross-section over (seed, kill point) for the serial
    /// fault-injected mode — the exhaustive loops above pin one seed;
    /// this samples the product space.
    #[test]
    fn random_seed_and_kill_point_resume_bit_identically(seed in 0u64..50, k in 1usize..20) {
        let budget = 20;
        let opts = || TunerOptions::default().with_seed(seed).with_init_samples(5);
        let tag = format!("prop-{seed}");
        let reference = serial_reference(space(), opts(), budget, faulty, &tag);
        let snap = kill_serial_at(space(), opts(), budget, faulty, k, &tag);
        assert_resumed_matches(space(), opts(), budget, faulty, &snap, &reference, k, &tag);
    }
}

#[test]
fn batch_kill_at_every_trial_resumes_bit_identically() {
    // Batch mode: budget 24, batch 4, bootstrap 8. Checkpoints land on
    // merge boundaries, so a kill anywhere inside a batch resumes from
    // the last merged one; the constant-liar layout must still line up.
    let budget = 24;
    let batch = 4;
    let opts = || TunerOptions::default().with_seed(5).with_init_samples(8);
    let eval_batch = |cfgs: &[Configuration], _base: u64| -> Vec<EvalOutcome> {
        cfgs.iter().map(faulty).collect()
    };

    let ref_path = temp_path("batch-ref.json");
    let ref_rec = Arc::new(MemoryRecorder::new());
    let mut reference = Tuner::new(space(), opts())
        .with_recorder(ref_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&ref_path, 1));
    let ref_best = reference
        .run_batch_fallible(budget, batch, eval_batch)
        .unwrap();
    let ref_history = serde_json::to_string(reference.history()).unwrap();
    let ref_events = ref_rec.events();
    let ref_bytes = std::fs::read(&ref_path).unwrap();

    for k in 1..budget {
        let path = temp_path(&format!("batch-k{k}.json"));
        let calls = AtomicUsize::new(0);
        let mut killed =
            Tuner::new(space(), opts()).with_checkpointing(CheckpointPolicy::new(&path, 1));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            killed.run_batch_fallible(budget, batch, |cfgs, _base| {
                cfgs.iter()
                    .map(|c| {
                        if calls.fetch_add(1, Ordering::SeqCst) >= k {
                            panic!("simulated crash at trial {k}");
                        }
                        faulty(c)
                    })
                    .collect()
            })
        }));
        assert!(crashed.is_err());
        let snap = match TunerCheckpoint::load(&path) {
            Ok(snap) => snap,
            Err(CheckpointError::Io(_)) => {
                // Crashed inside the very first batch: nothing had merged,
                // so nothing was snapshotted — a fresh start IS the resume.
                assert!(k < batch, "only pre-first-merge kills lack a snapshot");
                continue;
            }
            Err(e) => panic!("kill at {k}: snapshot load failed: {e}"),
        };
        let at = snap.history.configs.len() + snap.history.failures.len();
        assert!(at <= k, "snapshot holds only fully merged batches");
        assert_eq!(at % batch, 0, "snapshot is merge-aligned");

        let rec = Arc::new(MemoryRecorder::new());
        let mut resumed = Tuner::resume_from_checkpoint(space(), opts(), &snap)
            .unwrap()
            .with_recorder(rec.clone())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let best = resumed
            .run_batch_fallible(budget, batch, eval_batch)
            .unwrap();
        assert_eq!(
            serde_json::to_string(resumed.history()).unwrap(),
            ref_history,
            "kill at {k}: batch history diverged"
        );
        assert_eq!(best.objective, ref_best.objective);
        assert_eq!(std::fs::read(&path).unwrap(), ref_bytes);
        let events = rec.events();
        assert!(matches!(&events[1], Event::RunResumed { trials, .. } if *trials == at as u64));
        let resumed_suffix: Vec<String> = events[2..].iter().map(normalized).collect();
        assert_eq!(
            resumed_suffix,
            suffix_after_checkpoint(&ref_events, at as u64),
            "kill at {k}: batch trace suffix diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A mixed continuous + discrete space for Proposal-mode tests. Proposal
/// selection consumes RNG *inside* `suggest` (candidate draws), which is
/// exactly the state the checkpoint's word-pos cursor must capture.
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

#[test]
fn proposal_serial_kill_at_every_trial_resumes_bit_identically() {
    let budget = 18;
    let opts = || {
        TunerOptions::default()
            .with_seed(7)
            .with_init_samples(5)
            .with_strategy(hiperbot_core::SelectionStrategy::Proposal { candidates: 16 })
    };
    let reference = serial_reference(proposal_space(), opts(), budget, proposal_ok, "proposal");
    for k in 1..budget {
        let snap = kill_serial_at(proposal_space(), opts(), budget, proposal_ok, k, "proposal");
        assert_resumed_matches(
            proposal_space(),
            opts(),
            budget,
            proposal_ok,
            &snap,
            &reference,
            k,
            "proposal",
        );
    }
}

#[test]
fn proposal_batch_kill_at_every_trial_resumes_bit_identically() {
    // The batched Proposal engine (constant-liar fantasies + in-suggest
    // candidate draws) through the same merge-aligned snapshot protocol.
    let budget = 18;
    let batch = 3;
    let opts = || {
        TunerOptions::default()
            .with_seed(13)
            .with_init_samples(6)
            .with_strategy(hiperbot_core::SelectionStrategy::Proposal { candidates: 16 })
    };
    let eval_batch = |cfgs: &[Configuration], _base: u64| -> Vec<EvalOutcome> {
        cfgs.iter().map(proposal_ok).collect()
    };

    let ref_path = temp_path("prop-batch-ref.json");
    let ref_rec = Arc::new(MemoryRecorder::new());
    let mut reference = Tuner::new(proposal_space(), opts())
        .with_recorder(ref_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&ref_path, 1));
    let ref_best = reference
        .run_batch_fallible(budget, batch, eval_batch)
        .unwrap();
    let ref_history = serde_json::to_string(reference.history()).unwrap();
    let ref_events = ref_rec.events();
    let ref_bytes = std::fs::read(&ref_path).unwrap();

    for k in 1..budget {
        let path = temp_path(&format!("prop-batch-k{k}.json"));
        let calls = AtomicUsize::new(0);
        let mut killed = Tuner::new(proposal_space(), opts())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            killed.run_batch_fallible(budget, batch, |cfgs, _base| {
                cfgs.iter()
                    .map(|c| {
                        if calls.fetch_add(1, Ordering::SeqCst) >= k {
                            panic!("simulated crash at trial {k}");
                        }
                        proposal_ok(c)
                    })
                    .collect()
            })
        }));
        assert!(crashed.is_err());
        let snap = match TunerCheckpoint::load(&path) {
            Ok(snap) => snap,
            Err(CheckpointError::Io(_)) => {
                assert!(k < batch, "only pre-first-merge kills lack a snapshot");
                continue;
            }
            Err(e) => panic!("kill at {k}: snapshot load failed: {e}"),
        };
        let at = snap.history.configs.len() + snap.history.failures.len();
        assert!(at <= k, "snapshot holds only fully merged batches");
        assert_eq!(at % batch, 0, "snapshot is merge-aligned");

        let rec = Arc::new(MemoryRecorder::new());
        let mut resumed = Tuner::resume_from_checkpoint(proposal_space(), opts(), &snap)
            .unwrap()
            .with_recorder(rec.clone())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let best = resumed
            .run_batch_fallible(budget, batch, eval_batch)
            .unwrap();
        assert_eq!(
            serde_json::to_string(resumed.history()).unwrap(),
            ref_history,
            "kill at {k}: Proposal batch history diverged"
        );
        assert_eq!(best.objective, ref_best.objective);
        assert_eq!(std::fs::read(&path).unwrap(), ref_bytes);
        let events = rec.events();
        assert!(matches!(&events[1], Event::RunResumed { trials, .. } if *trials == at as u64));
        let resumed_suffix: Vec<String> = events[2..].iter().map(normalized).collect();
        assert_eq!(
            resumed_suffix,
            suffix_after_checkpoint(&ref_events, at as u64),
            "kill at {k}: Proposal batch trace suffix diverged"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_rejects_identity_mismatches_with_clear_errors() {
    let opts = TunerOptions::default().with_seed(1).with_init_samples(5);
    let mut tuner = Tuner::new(space(), opts.clone());
    tuner.run_fallible(10, ok).unwrap();
    let snap = tuner.checkpoint();

    // Different seed.
    let err = Tuner::resume_from_checkpoint(space(), opts.clone().with_seed(2), &snap)
        .err()
        .unwrap();
    assert!(matches!(
        err,
        CheckpointError::SeedMismatch {
            expected: 2,
            found: 1
        }
    ));
    assert!(err.to_string().contains("seed"));

    // Different options fingerprint.
    let err = Tuner::resume_from_checkpoint(space(), opts.clone().with_alpha(0.5), &snap)
        .err()
        .unwrap();
    assert!(matches!(err, CheckpointError::OptionsMismatch { .. }));
    assert!(
        err.to_string().contains("alpha=0.5"),
        "names both sides: {err}"
    );

    // Structurally different space.
    let other = ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&[0, 1, 2])))
        .param(ParamDef::new("y", Domain::discrete_ints(&[0, 1, 2])))
        .build()
        .unwrap();
    let err = Tuner::resume_from_checkpoint(other, opts.clone(), &snap)
        .err()
        .unwrap();
    assert!(matches!(err, CheckpointError::SpaceMismatch { .. }));

    // Foreign format version.
    let mut wrong = snap.clone();
    wrong.version = 99;
    let err = Tuner::resume_from_checkpoint(space(), opts.clone(), &wrong)
        .err()
        .unwrap();
    assert!(matches!(err, CheckpointError::Version { found: 99 }));

    // Corrupted history tables.
    let mut torn = snap.clone();
    torn.history.objectives.pop();
    let err = Tuner::resume_from_checkpoint(space(), opts, &torn)
        .err()
        .unwrap();
    assert!(matches!(err, CheckpointError::InvalidHistory(_)));
}

#[test]
fn torn_snapshot_file_fails_to_load_loudly() {
    let path = temp_path("torn.json");
    let mut tuner = Tuner::new(
        space(),
        TunerOptions::default().with_seed(4).with_init_samples(5),
    );
    tuner.run_fallible(8, ok).unwrap();
    let json = tuner.checkpoint().to_json();
    std::fs::write(&path, &json[..json.len() / 2]).unwrap();
    assert!(matches!(
        TunerCheckpoint::load(&path),
        Err(CheckpointError::Parse(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointing_never_perturbs_the_run() {
    // Snapshot writes must not touch the RNG or the history: a run with
    // checkpointing produces byte-identical results to one without.
    let opts = || TunerOptions::default().with_seed(6).with_init_samples(5);
    let mut plain = Tuner::new(space(), opts());
    plain.run_fallible(20, faulty).unwrap();
    let path = temp_path("perturb.json");
    let mut snapped =
        Tuner::new(space(), opts()).with_checkpointing(CheckpointPolicy::new(&path, 3));
    snapped.run_fallible(20, faulty).unwrap();
    assert_eq!(
        serde_json::to_string(plain.history()).unwrap(),
        serde_json::to_string(snapped.history()).unwrap()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_fallback_resumes_ranking_runs_exactly() {
    let budget = 20;
    let opts = || TunerOptions::default().with_seed(9).with_init_samples(5);
    let rec = Arc::new(MemoryRecorder::new());
    let mut reference = Tuner::new(space(), opts()).with_recorder(rec.clone());
    reference.run_fallible(budget, faulty).unwrap();
    let ref_history = serde_json::to_string(reference.history()).unwrap();
    let lines: Vec<String> = rec
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();

    // Kill points both mid-bootstrap (k < 5) and model-driven (k >= 5):
    // truncate the trace after the k-th trial event and append a torn
    // fragment, as a crash mid-write would leave it.
    for k in [2usize, 5, 9, 14, 19] {
        let mut taken = 0usize;
        let mut prefix = Vec::new();
        for line in &lines {
            if taken == k {
                break;
            }
            if line.contains("ObjectiveEvaluated") || line.contains("TrialFailed") {
                taken += 1;
            }
            prefix.push(line.clone());
        }
        let trace = format!("{}\n{{\"Objecti", prefix.join("\n"));
        let mut resumed = Tuner::resume_from_trace(space(), opts(), &trace).unwrap();
        assert_eq!(resumed.history().trials(), k);
        resumed.run_fallible(budget, faulty).unwrap();
        assert_eq!(
            serde_json::to_string(resumed.history()).unwrap(),
            ref_history,
            "trace resume at {k} diverged"
        );
    }
}

#[test]
fn trace_fallback_rejects_what_it_cannot_replay_exactly() {
    // Proposal mode consumes RNG per suggestion; refuse rather than drift.
    let cont = ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .build()
        .unwrap();
    let opts = TunerOptions::default()
        .with_strategy(hiperbot_core::SelectionStrategy::Proposal { candidates: 8 });
    let err = Tuner::resume_from_trace(cont, opts, "").err().unwrap();
    assert!(matches!(err, CheckpointError::TraceNotExact(_)));
    // The message must still *name the reason*: Proposal draws consume
    // RNG that a trace does not record, so only snapshots can resume it.
    let msg = err.to_string();
    assert!(
        msg.contains("Proposal") && msg.contains("RNG"),
        "refusal must explain itself: {msg}"
    );
    assert!(
        msg.contains("snapshot"),
        "refusal should point at the fix: {msg}"
    );

    // Identity mismatches are rejected exactly like snapshot resumes.
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new(
        space(),
        TunerOptions::default().with_seed(2).with_init_samples(5),
    )
    .with_recorder(rec.clone());
    tuner.run_fallible(8, ok).unwrap();
    let trace: Vec<String> = rec
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    let trace = trace.join("\n");
    let err = Tuner::resume_from_trace(
        space(),
        TunerOptions::default().with_seed(3).with_init_samples(5),
        &trace,
    )
    .err()
    .unwrap();
    assert!(matches!(err, CheckpointError::SeedMismatch { .. }));
}

#[test]
fn checkpoint_cadence_and_final_snapshot_are_traced() {
    let path = temp_path("cadence.json");
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new(
        space(),
        TunerOptions::default().with_seed(8).with_init_samples(5),
    )
    .with_recorder(rec.clone())
    .with_checkpointing(CheckpointPolicy::new(&path, 7));
    tuner.run_fallible(17, ok).unwrap();
    let written: Vec<u64> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::CheckpointWritten { trials, .. } => Some(*trials),
            _ => None,
        })
        .collect();
    // Cadence fires at >= 7 trials since the last write; the graceful end
    // of the run persists the remainder.
    assert_eq!(written, vec![7, 14, 17]);
    let snap = TunerCheckpoint::load(&path).unwrap();
    assert_eq!(snap.history.configs.len(), 17);
    std::fs::remove_file(&path).ok();
}

/// A 4 × 4 space over thread-like levels; `constrained` adds a predicate
/// that resolves values through their domains, as real app spaces do.
fn four_value_space(constrained: bool) -> ParameterSpace {
    let levels = [1, 2, 4, 8];
    let b = ParameterSpace::builder()
        .param(ParamDef::new("ranks", Domain::discrete_ints(&levels)))
        .param(ParamDef::new("omp", Domain::discrete_ints(&levels)));
    let b = if constrained {
        b.constraint("ranks*omp <= 16", |c, d| {
            c.numeric_value(0, &d[0]) * c.numeric_value(1, &d[1]) <= 16.0
        })
    } else {
        b
    };
    b.build().unwrap()
}

fn four_value_objective(cfg: &Configuration) -> EvalOutcome {
    let (r, o) = (cfg.value(0).index() as f64, cfg.value(1).index() as f64);
    EvalOutcome::Ok((r - 2.0).powi(2) + (o - 1.0).powi(2) + 1.0)
}

/// Snapshot and trace configurations that are not members of the space
/// (an index past the domain, the wrong arity, the wrong value kind) must
/// come back as `InvalidHistory`, never as a panic — neither inside the
/// resume (constraints resolve values through their domains) nor at the
/// first fit afterwards (histograms index by value).
#[test]
fn hostile_snapshot_configurations_are_typed_errors() {
    let opts = TunerOptions::default().with_seed(3).with_init_samples(4);
    let hostile = [
        Configuration::from_indices(&[99, 0]),
        Configuration::from_indices(&[0, 4]),
        Configuration::from_indices(&[0]),
        Configuration::from_indices(&[0, 0, 0]),
        Configuration::new(vec![
            hiperbot_space::ParamValue::Real(0.5),
            hiperbot_space::ParamValue::Index(0),
        ]),
    ];
    for constrained in [false, true] {
        let mut tuner = Tuner::new(four_value_space(constrained), opts.clone());
        tuner.run_fallible(6, four_value_objective).unwrap();
        let snap = tuner.checkpoint();
        for cfg in &hostile {
            for in_failures in [false, true] {
                let mut bad = snap.clone();
                if in_failures {
                    bad.history.failures = vec![hiperbot_core::FailureRecord {
                        config: cfg.clone(),
                        reason: "injected".into(),
                    }];
                } else {
                    bad.history.configs[0] = cfg.clone();
                }
                let resumed = catch_unwind(AssertUnwindSafe(|| {
                    Tuner::resume_from_checkpoint(four_value_space(constrained), opts.clone(), &bad)
                        .map(|mut t| t.step_fallible(four_value_objective))
                }))
                .unwrap_or_else(|_| panic!("resume of {cfg:?} panicked"));
                let err = resumed
                    .err()
                    .unwrap_or_else(|| panic!("{cfg:?} accepted (constrained: {constrained})"));
                assert!(matches!(err, CheckpointError::InvalidHistory(_)));
                assert!(err.to_string().contains("outside this space"), "{err}");
            }
        }
    }
}

/// The trace fallback validates the configurations embedded in trial
/// events the same way.
#[test]
fn hostile_trace_configurations_are_typed_errors() {
    let opts = TunerOptions::default().with_seed(5).with_init_samples(4);
    for constrained in [false, true] {
        let rec = Arc::new(MemoryRecorder::new());
        let mut tuner =
            Tuner::new(four_value_space(constrained), opts.clone()).with_recorder(rec.clone());
        tuner.run_fallible(6, four_value_objective).unwrap();
        let events = rec.events();
        let at = events
            .iter()
            .position(|e| matches!(e, Event::ObjectiveEvaluated { .. }))
            .expect("the run evaluated something");
        let Event::ObjectiveEvaluated { iteration, .. } = events[at] else {
            unreachable!()
        };
        for hostile in [
            Configuration::from_indices(&[99, 0]),
            Configuration::from_indices(&[0, 0, 0]),
        ] {
            for failed in [false, true] {
                let mut tampered = events.clone();
                tampered[at] = if failed {
                    Event::TrialFailed {
                        iteration,
                        reason: "injected".into(),
                        elapsed_ns: 0,
                        config: Some(hostile.clone()),
                    }
                } else {
                    Event::ObjectiveEvaluated {
                        iteration,
                        objective: 1.0,
                        bootstrap: true,
                        elapsed_ns: 0,
                        config: Some(hostile.clone()),
                    }
                };
                let lines: Vec<String> = tampered
                    .iter()
                    .map(|e| serde_json::to_string(e).unwrap())
                    .collect();
                let trace = lines.join("\n");
                let resumed = catch_unwind(AssertUnwindSafe(|| {
                    Tuner::resume_from_trace(four_value_space(constrained), opts.clone(), &trace)
                        .map(|_| ())
                }))
                .unwrap_or_else(|_| panic!("trace resume of {hostile:?} panicked"));
                let err = resumed.expect_err("hostile trace accepted");
                assert!(matches!(err, CheckpointError::InvalidHistory(_)));
                assert!(err.to_string().contains("outside this space"), "{err}");
            }
        }
    }
}

/// Proposal-space fault injection keyed on the configuration alone.
fn proposal_faulty(cfg: &Configuration) -> EvalOutcome {
    if cfg.value(1).index() == 1 {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        proposal_ok(cfg)
    }
}

/// Kills a batch run after exactly `k` evaluations and returns the
/// snapshot its per-trial cadence left at the last merge.
fn kill_batch_at(
    space: ParameterSpace,
    opts: TunerOptions,
    budget: usize,
    batch: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    k: usize,
    tag: &str,
) -> TunerCheckpoint {
    let path = temp_path(&format!("{tag}-b{batch}-k{k}.json"));
    let calls = AtomicUsize::new(0);
    let mut killed = Tuner::new(space, opts).with_checkpointing(CheckpointPolicy::new(&path, 1));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        killed.run_batch_fallible(budget, batch, |cfgs, _base| {
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
    assert!(crashed.is_err(), "run should have crashed at trial {k}");
    TunerCheckpoint::load(&path).unwrap()
}

/// A run killed mid-bootstrap resumes at any batch size: in batches after
/// a serial run, and serially or at another batch size after a batch run.
/// The bootstrap samples do not depend on how they are chunked, so the
/// resumed history and final snapshot equal those of an uninterrupted run
/// at the new batch size.
#[test]
fn mid_bootstrap_resume_accepts_a_different_batch_size() {
    let budget = 16;
    let init = 8;
    let ranking = TunerOptions::default()
        .with_seed(17)
        .with_init_samples(init);
    let proposal = ranking
        .clone()
        .with_strategy(hiperbot_core::SelectionStrategy::Proposal { candidates: 16 });
    let ranking_eval: fn(&Configuration) -> EvalOutcome = faulty;
    let cases = [
        ("xbatch-ranking", space(), ranking, ranking_eval),
        (
            "xbatch-proposal",
            proposal_space(),
            proposal,
            proposal_faulty,
        ),
    ];
    let resume_batches = [1usize, 2, 3, 5];
    for (tag, space, opts, eval) in cases {
        let run_to_end = |tuner: Tuner, path: &PathBuf, batch: usize| {
            let mut tuner = tuner.with_checkpointing(CheckpointPolicy::new(path, 1));
            tuner
                .run_batch_fallible(budget, batch, |cfgs, _base| cfgs.iter().map(eval).collect())
                .unwrap();
            let history = serde_json::to_string(tuner.history()).unwrap();
            (history, std::fs::read(path).unwrap())
        };
        let references: Vec<(String, Vec<u8>)> = resume_batches
            .iter()
            .map(|&batch| {
                let path = temp_path(&format!("{tag}-ref-b{batch}.json"));
                run_to_end(Tuner::new(space.clone(), opts.clone()), &path, batch)
            })
            .collect();

        // Serial kills at every bootstrap trial, plus a batch-4 kill whose
        // snapshot holds the first merged chunk.
        let mut snapshots: Vec<(String, TunerCheckpoint)> = (1..init)
            .map(|k| {
                let snap = kill_serial_at(space.clone(), opts.clone(), budget, eval, k, tag);
                (format!("serial kill at {k}"), snap)
            })
            .collect();
        let snap = kill_batch_at(space.clone(), opts.clone(), budget, 4, eval, 6, tag);
        assert_eq!(snap.history.configs.len() + snap.history.failures.len(), 4);
        snapshots.push(("batch-4 kill at 6".into(), snap));

        for (from, snap) in &snapshots {
            assert!(
                !snap.bootstrapped,
                "{tag} {from}: snapshot is mid-bootstrap"
            );
            for (&batch, reference) in resume_batches.iter().zip(&references) {
                let path = temp_path(&format!("{tag}-resumed-b{batch}.json"));
                let resumed =
                    Tuner::resume_from_checkpoint(space.clone(), opts.clone(), snap).unwrap();
                let (history, bytes) = run_to_end(resumed, &path, batch);
                assert_eq!(
                    history, reference.0,
                    "{tag} {from}: history diverged when resumed at batch {batch}"
                );
                assert_eq!(
                    bytes, reference.1,
                    "{tag} {from}: final snapshot diverged when resumed at batch {batch}"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
