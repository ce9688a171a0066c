//! Fault-tolerance integration: the failure-aware tuning loop end to end —
//! fault-injected application simulators, retry/backoff, quarantined
//! failures, and exact reproducibility of faulted runs.

use std::sync::Arc;

use hiperbot::apps::{kripke, Scale};
use hiperbot::core::{EvalOutcome, ObservationHistory, Tuner, TunerOptions};
use hiperbot::eval::{outcome_from_sim, BatchExecutor, RetryPolicy};
use hiperbot::obs::{Event, MemoryRecorder};
use hiperbot::perfsim::faults::FaultModel;
use hiperbot::space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;

/// Runs the Kripke exec dataset under a fault model with retries; returns
/// the tuner (for its history) and the best result, if any.
fn faulted_kripke_run(
    seed: u64,
    fail_prob: f64,
    max_retries: u32,
    budget: usize,
    recorder: Option<Arc<MemoryRecorder>>,
) -> (Tuner, Option<hiperbot::core::BestResult>, u64) {
    let dataset = kripke::exec_dataset(Scale::Target);
    let model = FaultModel::new(seed, fail_prob);
    let mut tuner = Tuner::new(
        dataset.space().clone(),
        TunerOptions::default().with_seed(seed),
    );
    if let Some(rec) = &recorder {
        tuner.set_recorder(rec.clone() as Arc<dyn hiperbot::obs::Recorder>);
    }
    let policy = RetryPolicy::default()
        .with_max_retries(max_retries)
        .with_seed(seed);
    let mut exec = BatchExecutor::new(
        |cfg: &Configuration, _trial: u64, attempt: u32| {
            outcome_from_sim(dataset.evaluate_outcome(cfg, &model, attempt))
        },
        1,
    )
    .with_policy(policy);
    if let Some(rec) = &recorder {
        exec = exec.with_recorder(rec.clone() as Arc<dyn hiperbot::obs::Recorder>);
    }
    let best = tuner.run_batch_fallible(budget, 1, |cfgs, base| exec.evaluate_batch(cfgs, base));
    let retries = exec.retries();
    (tuner, best, retries)
}

fn assert_histories_identical(a: &ObservationHistory, b: &ObservationHistory) {
    assert_eq!(a.configs(), b.configs());
    assert_eq!(a.objectives(), b.objectives());
    assert_eq!(a.failures(), b.failures());
}

/// The PR's acceptance criterion: 20% injected failures on Kripke must not
/// panic, and the tuned best must stay within 2x of the fault-free best at
/// the same seed.
#[test]
fn kripke_tunes_through_20_percent_failures() {
    let seed = 42;
    let budget = 80;

    let (clean_tuner, clean_best, _) = faulted_kripke_run(seed, 0.0, 0, budget, None);
    let clean = clean_best.expect("fault-free run succeeds").objective;
    assert_eq!(clean_tuner.history().n_failures(), 0);

    let (tuner, best, _) = faulted_kripke_run(seed, 0.2, 2, budget, None);
    let best = best.expect("faulted run still finds a best");
    assert!(best.objective.is_finite());
    assert!(
        best.objective <= 2.0 * clean,
        "faulted best {} vs fault-free best {clean}",
        best.objective
    );

    // Failures consumed budget and were quarantined, never scored.
    let h = tuner.history();
    assert!(h.n_failures() > 0, "20% fail_prob must produce failures");
    assert_eq!(h.trials(), budget);
    assert_eq!(h.len() + h.n_failures(), h.trials());
    assert!(h.objectives().iter().all(|y| y.is_finite()));
    for f in h.failures() {
        assert!(
            !h.configs().contains(&f.config),
            "failed config also recorded as a success"
        );
    }
}

/// Faulted runs are exactly reproducible: the same seed replays the same
/// history — successes, failures, and retry count included.
#[test]
fn faulted_runs_replay_bit_identically() {
    let (t1, b1, r1) = faulted_kripke_run(7, 0.25, 2, 60, None);
    let (t2, b2, r2) = faulted_kripke_run(7, 0.25, 2, 60, None);
    assert_histories_identical(t1.history(), t2.history());
    assert_eq!(r1, r2, "retry counts must replay");
    let (b1, b2) = (b1.unwrap(), b2.unwrap());
    assert_eq!(b1.config, b2.config);
    assert_eq!(b1.objective, b2.objective);
    assert!(
        r1 > 0,
        "25% crashes with retries should trigger at least one"
    );
}

/// Attaching the observability recorder must not perturb the tuning
/// trajectory, and the failure events must reconcile with the history.
#[test]
fn traced_faulted_run_matches_untraced_and_counts_failures() {
    let rec = Arc::new(MemoryRecorder::new());
    let (plain, _, _) = faulted_kripke_run(11, 0.3, 1, 50, None);
    let (traced, _, retries) = faulted_kripke_run(11, 0.3, 1, 50, Some(rec.clone()));
    assert_histories_identical(plain.history(), traced.history());

    let events = rec.events();
    let failed = events
        .iter()
        .filter(|e| matches!(e, Event::TrialFailed { .. }))
        .count();
    let retried = events
        .iter()
        .filter(|e| matches!(e, Event::TrialRetried { .. }))
        .count();
    assert_eq!(failed, traced.history().n_failures());
    assert_eq!(retried as u64, retries);
}

/// A random fully discrete space of 1–3 parameters with 2–5 values each.
fn arb_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=3).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

fn config_hash(cfg: &Configuration, salt: u64) -> u64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.index() as u64 + 1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    h
}

/// A hostile objective: deterministically crashes, times out, or reports
/// NaN/infinity for a large fraction of the space, finite values otherwise.
/// The non-finite arms go through `EvalOutcome::Ok` deliberately — the
/// tuner's normalization must catch them.
fn hostile_objective(cfg: &Configuration, salt: u64) -> EvalOutcome {
    let h = config_hash(cfg, salt);
    match h % 8 {
        0 => EvalOutcome::Failed {
            reason: "injected crash".into(),
        },
        1 => EvalOutcome::Timeout,
        2 => EvalOutcome::Ok(f64::NAN),
        3 => EvalOutcome::Ok(f64::INFINITY),
        _ => EvalOutcome::Ok(1.0 + (h % 10_000) as f64 / 100.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Half the space failing (crash/timeout/NaN/Inf) must never panic the
    /// loop or corrupt the history invariants.
    #[test]
    fn hostile_objectives_never_panic_or_corrupt_history(
        space in arb_space(),
        seed in 0u64..1000,
        salt in 0u64..1000,
        budget in 1usize..30,
    ) {
        let mut tuner = Tuner::new(space, TunerOptions::default().with_seed(seed).with_init_samples(5));
        let best = tuner.run_fallible(budget, |cfg| hostile_objective(cfg, salt));
        let h = tuner.history();
        prop_assert!(h.trials() <= budget);
        prop_assert_eq!(h.len() + h.n_failures(), h.trials());
        // Non-finite measurements never enter the objective table.
        prop_assert!(h.objectives().iter().all(|y| y.is_finite()));
        for f in h.failures() {
            prop_assert!(!h.configs().contains(&f.config));
        }
        match best {
            // The incumbent is the finite minimum of the observations — a
            // failed configuration can never become incumbent.
            Some(b) => {
                prop_assert!(b.objective.is_finite());
                let min = h.objectives().iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert_eq!(b.objective, min);
                prop_assert!(!h.failures().iter().any(|f| f.config == b.config));
            }
            None => prop_assert!(h.is_empty()),
        }
    }

    /// The faulted loop is deterministic for any seed and failure mix.
    #[test]
    fn hostile_runs_are_deterministic(
        space in arb_space(),
        seed in 0u64..1000,
        salt in 0u64..1000,
    ) {
        let opts = TunerOptions::default().with_seed(seed).with_init_samples(4);
        let mut t1 = Tuner::new(space.clone(), opts.clone());
        let mut t2 = Tuner::new(space, opts);
        let b1 = t1.run_fallible(15, |cfg| hostile_objective(cfg, salt));
        let b2 = t2.run_fallible(15, |cfg| hostile_objective(cfg, salt));
        assert_histories_identical(t1.history(), t2.history());
        prop_assert_eq!(b1.map(|b| b.objective), b2.map(|b| b.objective));
    }

    /// Retry backoff is pure and bounded: deterministic per (trial, attempt),
    /// within the jittered envelope, monotone cap respected.
    #[test]
    fn backoff_schedule_is_deterministic_and_bounded(
        seed in 0u64..10_000,
        trial in 0u64..1000,
        attempt in 0u32..12,
    ) {
        let policy = RetryPolicy::default().with_seed(seed);
        let a = policy.backoff_seconds(trial, attempt);
        let b = policy.backoff_seconds(trial, attempt);
        prop_assert_eq!(a, b);
        // Default policy: base 1.0, multiplier 2.0, cap 30.0, jitter 0.5.
        let raw = (1.0f64 * 2.0f64.powi(attempt as i32)).min(30.0);
        prop_assert!(a >= 0.5 * raw && a <= 1.5 * raw, "backoff {a} vs raw {raw}");
    }
}
