//! End-to-end determinism of the parallel batch-evaluation engine:
//! tuner + executor produce the same run no matter how many workers run
//! or in which order they happen to complete.

use hiperbot_core::{EvalOutcome, SelectionStrategy, Tuner, TunerOptions};
use hiperbot_eval::{outcome_from_sim, BatchExecutor, RetryPolicy};
use hiperbot_perfsim::faults::FaultModel;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;

fn space() -> ParameterSpace {
    let five: Vec<i64> = (0..5).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&five)))
        .param(ParamDef::new("y", Domain::discrete_ints(&five)))
        .param(ParamDef::new("z", Domain::discrete_ints(&five)))
        .build()
        .unwrap()
}

fn tuner(seed: u64) -> Tuner {
    Tuner::new(
        space(),
        TunerOptions::default().with_seed(seed).with_init_samples(6),
    )
}

/// A faulty simulated objective, deterministic per (configuration, attempt).
fn faulty_eval(cfg: &Configuration, attempt: u32) -> EvalOutcome {
    let model = FaultModel::new(13, 0.3);
    let words: Vec<u64> = cfg.values().iter().map(|v| v.index() as u64).collect();
    let out = outcome_from_sim(model.attempt_outcome(&words, attempt, 4.0));
    match out {
        EvalOutcome::Ok(_) => {
            let x = cfg.value(0).index() as f64;
            let y = cfg.value(1).index() as f64;
            let z = cfg.value(2).index() as f64;
            EvalOutcome::Ok((x - 3.0).powi(2) + (y - 1.0).powi(2) + z + 1.0)
        }
        other => other,
    }
}

/// The observable result of a run: successes, failures, incumbent, and
/// what the tuner would suggest next.
type Fingerprint = (
    Vec<String>,
    Vec<f64>,
    Vec<String>,
    Option<String>,
    Vec<String>,
);

/// The [`Fingerprint`] of `t`'s run so far.
fn fingerprint(t: &mut Tuner) -> Fingerprint {
    let configs = t
        .history()
        .configs()
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    let objectives = t.history().objectives().to_vec();
    let failures = t
        .history()
        .failures()
        .iter()
        .map(|f| format!("{:?}:{}", f.config, f.reason))
        .collect();
    let incumbent = t.history().best().map(|(_, c, y)| format!("{c:?}@{y}"));
    let next = t
        .suggest_batch(4)
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    (configs, objectives, failures, incumbent, next)
}

/// splitmix64, for deterministic in-test shuffles.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a batch tuning campaign whose evaluator *completes* trials in a
/// shuffled order (per `perm_seed`) before returning them input-ordered,
/// exactly as a worker pool would under arbitrary scheduling.
fn run_with_completion_order(perm_seed: u64) -> Fingerprint {
    let mut state = perm_seed;
    let mut t = tuner(17);
    t.run_batch_fallible(32, 4, |cfgs, base| {
        let n = cfgs.len();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut slots: Vec<Option<EvalOutcome>> = vec![None; n];
        for &i in &order {
            let _trial = base + i as u64; // what a real executor keys RNG on
            slots[i] = Some(faulty_eval(&cfgs[i], 0));
        }
        slots.into_iter().map(|s| s.expect("filled")).collect()
    });
    fingerprint(&mut t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: batch merge is invariant to worker completion order —
    /// any permutation of per-batch completions yields the identical
    /// ObservationHistory (successes, failures, incumbent) and identical
    /// subsequent suggestions.
    #[test]
    fn merge_is_invariant_to_completion_order(perm_seed in 0u64..1_000_000_000) {
        let baseline = run_with_completion_order(0);
        prop_assert_eq!(run_with_completion_order(perm_seed), baseline);
    }
}

/// The real executor at 1/2/4/8 workers reproduces one identical run,
/// with retries and injected faults active.
#[test]
fn executor_runs_identically_at_any_worker_count() {
    let run = |workers: usize| {
        let exec = BatchExecutor::new(
            |cfg: &Configuration, _trial: u64, attempt: u32| faulty_eval(cfg, attempt),
            workers,
        )
        .with_policy(RetryPolicy::default().with_max_retries(2).with_seed(7));
        let mut t = tuner(29);
        let best = t.run_batch_fallible(40, 4, |cfgs, base| exec.evaluate_batch(cfgs, base));
        (
            fingerprint(&mut t),
            best.map(|b| (format!("{:?}", b.config), b.objective)),
        )
    };
    let serial = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), serial, "workers = {workers}");
    }
}

/// The lifted continuous-space guard, end to end: a Proposal-mode tuner
/// over a mixed continuous/discrete space batches through the real
/// executor, and 1/2/4/8 workers reproduce one identical run — the same
/// worker-count determinism contract Ranking spaces already pin.
#[test]
fn proposal_mode_executor_runs_identically_at_any_worker_count() {
    let space = || {
        ParameterSpace::builder()
            .param(ParamDef::new("alpha", Domain::continuous(0.0, 1.0)))
            .param(ParamDef::new("beta", Domain::continuous(-1.0, 1.0)))
            .param(ParamDef::new("k", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap()
    };
    let eval = |cfg: &Configuration, _trial: u64, attempt: u32| {
        let model = FaultModel::new(19, 0.2);
        let words: Vec<u64> = vec![
            cfg.value(0).as_f64().to_bits(),
            cfg.value(1).as_f64().to_bits(),
            cfg.value(2).index() as u64,
        ];
        match outcome_from_sim(model.attempt_outcome(&words, attempt, 4.0)) {
            EvalOutcome::Ok(_) => {
                let a = cfg.value(0).as_f64();
                let b = cfg.value(1).as_f64();
                let k = cfg.value(2).index() as f64;
                EvalOutcome::Ok((a - 0.4).powi(2) + b.powi(2) + 0.1 * k + 1.0)
            }
            other => other,
        }
    };
    let run = |workers: usize| {
        let exec = BatchExecutor::new(eval, workers)
            .with_policy(RetryPolicy::default().with_max_retries(2).with_seed(3));
        let mut t = Tuner::new(
            space(),
            TunerOptions::default()
                .with_seed(41)
                .with_init_samples(6)
                .with_strategy(SelectionStrategy::Proposal { candidates: 16 }),
        );
        let best = t.run_batch_fallible(32, 4, |cfgs, base| exec.evaluate_batch(cfgs, base));
        (
            fingerprint(&mut t),
            best.map(|b| (format!("{:?}", b.config), b.objective)),
        )
    };
    let serial = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), serial, "workers = {workers}");
    }
}

/// PR 3 fault invariants hold under concurrency: no panics, failures
/// quarantined (never in the observation list), and the trial budget is
/// exactly successes + failures.
#[test]
fn fault_invariants_hold_under_concurrency() {
    let exec = BatchExecutor::new(
        |cfg: &Configuration, _trial: u64, attempt: u32| faulty_eval(cfg, attempt),
        4,
    )
    .with_policy(RetryPolicy::no_retries());
    let mut t = tuner(31);
    t.run_batch_fallible(48, 4, |cfgs, base| exec.evaluate_batch(cfgs, base));
    assert_eq!(t.history().trials(), 48);
    assert_eq!(t.history().len() + t.history().failures().len(), 48);
    for f in t.history().failures() {
        assert!(
            !t.history().configs().contains(&f.config),
            "failed config leaked into the observation list"
        );
    }
    for y in t.history().objectives() {
        assert!(y.is_finite(), "non-finite objective recorded as success");
    }
}
