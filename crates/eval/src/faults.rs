//! Retry/backoff handling for fallible objective evaluations.
//!
//! A real tuning campaign on a shared machine sees transient failures —
//! node crashes, OOM kills, launcher hiccups — that have nothing to do
//! with the configuration being measured. Giving up immediately wastes a
//! trial of the evaluation budget on noise; retrying forever wastes
//! wall-clock on configurations that genuinely cannot run. [`RetryPolicy`]
//! is the standard compromise: a bounded number of retries with
//! exponential backoff and jitter.
//!
//! Two properties matter for this repository's reproducibility contract:
//!
//! - **Only transient failures are retried.** [`EvalOutcome::Timeout`] is
//!   deterministic per configuration (the same run exceeds the same
//!   budget again), so it is reported immediately; see
//!   [`EvalOutcome::is_retryable`].
//! - **The jitter is seeded, not sampled.** Each wait derives from
//!   `(policy seed, trial, attempt)` via the same hash machinery as the
//!   simulators' noise and fault draws, so an entire run — failures,
//!   retries, and backoff durations included — replays bit-identically
//!   from its seeds, and retrying never perturbs the tuner's RNG stream.

use hiperbot_core::EvalOutcome;
use hiperbot_obs::{Event, Recorder};
use hiperbot_perfsim::faults::SimOutcome;
use hiperbot_space::Configuration;
use hiperbot_stats::rng::{mix_words, u64_to_unit_open};
use std::sync::Arc;

/// Domain-separation tag for backoff jitter draws.
const JITTER_TAG: u64 = 0xBACC_0FF5_0000_0001;

/// Converts a simulator outcome into the tuner-facing [`EvalOutcome`]:
/// crashes become retryable failures, timeouts stay timeouts, and a
/// completed measurement is classified by finiteness.
pub fn outcome_from_sim(sim: SimOutcome) -> EvalOutcome {
    match sim {
        SimOutcome::Completed(v) => EvalOutcome::from_value(v),
        SimOutcome::Crashed => EvalOutcome::Failed {
            reason: "simulated crash".to_string(),
        },
        SimOutcome::TimedOut => EvalOutcome::Timeout,
    }
}

/// How (and how often) to retry a failed evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub max_retries: u32,
    /// Wait before the first retry, in seconds.
    pub base_backoff: f64,
    /// Exponential growth factor between consecutive waits.
    pub multiplier: f64,
    /// Cap on any single wait, in seconds.
    pub max_backoff: f64,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_backoff: 1.0,
            multiplier: 2.0,
            max_backoff: 30.0,
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every failure is final).
    pub fn no_retries() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Sets the retry count.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The wait in seconds before retry number `attempt + 1` of trial
    /// `trial`: `min(base · multiplier^attempt, max_backoff)` scaled by a
    /// deterministic jitter factor in `[1 - jitter, 1 + jitter]` derived
    /// from `(seed, trial, attempt)`, with the jittered result clamped
    /// back to `max_backoff` so the documented cap holds on every wait.
    /// Pure — calling it never advances any RNG state.
    pub fn backoff_seconds(&self, trial: u64, attempt: u32) -> f64 {
        assert!(
            self.base_backoff >= 0.0 && self.multiplier >= 1.0 && self.max_backoff >= 0.0,
            "backoff parameters must be non-negative with multiplier >= 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be a fraction in [0, 1]"
        );
        let raw = (self.base_backoff * self.multiplier.powi(attempt as i32)).min(self.max_backoff);
        let u = u64_to_unit_open(mix_words(&[self.seed, JITTER_TAG, trial, attempt as u64]));
        (raw * (1.0 + self.jitter * (2.0 * u - 1.0))).min(self.max_backoff)
    }
}

/// How a retry loop spends its backoff wait. Injected rather than calling
/// [`std::thread::sleep`] directly so simulated campaigns and the test
/// suite never pay real wall-clock for backoff delays — only a real
/// campaign opts into [`ThreadSleeper`].
///
/// `sleep` takes `&self` (interior mutability for stateful impls) so one
/// sleeper can be shared by every worker of a [`BatchExecutor`].
///
/// [`BatchExecutor`]: crate::executor::BatchExecutor
pub trait Sleeper: Send + Sync {
    /// Waits (or pretends to wait) for `seconds`.
    fn sleep(&self, seconds: f64);
}

/// Really sleeps on the calling thread — the production sleeper for
/// campaigns with live backoff.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, seconds: f64) {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    }
}

/// Ignores the wait entirely — the default, and what tests and simulated
/// campaigns use (the backoff is still *computed* and traced, just not
/// performed).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSleeper;

impl Sleeper for NoopSleeper {
    fn sleep(&self, _seconds: f64) {}
}

/// Records every requested wait without sleeping, for asserting backoff
/// schedules in tests. Share via `Arc` to read the waits back after the
/// retry loop consumed the sleeper.
#[derive(Debug, Default)]
pub struct RecordingSleeper {
    waits: std::sync::Mutex<Vec<f64>>,
}

impl RecordingSleeper {
    /// An empty recording sleeper.
    pub fn new() -> Self {
        Self::default()
    }

    /// The waits requested so far, in request order.
    pub fn waits(&self) -> Vec<f64> {
        self.waits.lock().expect("sleeper lock poisoned").clone()
    }
}

impl Sleeper for RecordingSleeper {
    fn sleep(&self, seconds: f64) {
        self.waits
            .lock()
            .expect("sleeper lock poisoned")
            .push(seconds);
    }
}

impl<S: Sleeper + ?Sized> Sleeper for Arc<S> {
    fn sleep(&self, seconds: f64) {
        (**self).sleep(seconds);
    }
}

/// The per-trial retry loop of
/// [`BatchExecutor`](crate::executor::BatchExecutor): attempts `inner`,
/// retrying retryable failures per `policy` with the backoff keyed on
/// `(policy seed, trial, attempt)`, and returns the final outcome (the
/// last failure if every attempt failed) plus how many retries it
/// performed. Keying on the tuner's trial index (not any call counter)
/// is what makes a run independent of scheduling and of where it was
/// resumed.
pub(crate) fn evaluate_with_retries(
    inner: &mut impl FnMut(&Configuration, u32) -> EvalOutcome,
    cfg: &Configuration,
    trial: u64,
    policy: &RetryPolicy,
    recorder: &dyn Recorder,
    sleeper: &dyn Sleeper,
) -> (EvalOutcome, u64) {
    let mut retries = 0u64;
    let mut attempt: u32 = 0;
    loop {
        let out = inner(cfg, attempt).normalized();
        if !out.is_retryable() || attempt >= policy.max_retries {
            return (out, retries);
        }
        let wait = policy.backoff_seconds(trial, attempt);
        retries += 1;
        recorder.record(&Event::TrialRetried {
            iteration: trial,
            attempt: (attempt + 1) as u64,
            backoff_ns: (wait * 1e9) as u64,
            reason: out.failure_reason().unwrap_or_default(),
        });
        sleeper.sleep(wait);
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::BatchExecutor;
    use hiperbot_obs::MemoryRecorder;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cfg(i: usize) -> Configuration {
        Configuration::from_indices(&[i])
    }

    #[test]
    fn sim_outcomes_convert_to_eval_outcomes() {
        assert_eq!(
            outcome_from_sim(SimOutcome::Completed(2.5)),
            EvalOutcome::Ok(2.5)
        );
        assert!(!outcome_from_sim(SimOutcome::Completed(f64::NAN)).is_ok());
        assert!(outcome_from_sim(SimOutcome::Crashed).is_retryable());
        assert_eq!(outcome_from_sim(SimOutcome::TimedOut), EvalOutcome::Timeout);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert!((p.backoff_seconds(0, 0) - 1.0).abs() < 1e-12);
        assert!((p.backoff_seconds(0, 1) - 2.0).abs() < 1e-12);
        assert!((p.backoff_seconds(0, 2) - 4.0).abs() < 1e-12);
        assert!((p.backoff_seconds(0, 10) - 30.0).abs() < 1e-12, "capped");
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_trial_dependent() {
        let p = RetryPolicy::default().with_seed(9);
        for trial in 0..50u64 {
            for attempt in 0..4u32 {
                let w = p.backoff_seconds(trial, attempt);
                let raw = (p.base_backoff * p.multiplier.powi(attempt as i32)).min(p.max_backoff);
                assert!(w >= raw * 0.5 && w <= raw * 1.5, "wait {w} vs raw {raw}");
                assert_eq!(w, p.backoff_seconds(trial, attempt), "deterministic");
            }
        }
        assert_ne!(p.backoff_seconds(0, 0), p.backoff_seconds(1, 0));
        assert_ne!(
            p.backoff_seconds(0, 0),
            p.with_seed(10).backoff_seconds(0, 0)
        );
    }

    #[test]
    fn jittered_backoff_never_exceeds_the_cap() {
        // Regression: jitter used to be applied *after* the max_backoff
        // min, so a wait at the cap could overshoot it by up to the jitter
        // fraction (with the defaults, up to 45 s against a documented
        // 30 s cap).
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: 1.0,
            multiplier: 2.0,
            max_backoff: 30.0,
            jitter: 0.5,
            seed: 9,
        };
        let mut saw_upward_jitter_at_cap = false;
        for trial in 0..200u64 {
            for attempt in 0..12u32 {
                let w = p.backoff_seconds(trial, attempt);
                assert!(w <= p.max_backoff, "wait {w} exceeds cap {}", p.max_backoff);
                let raw = (p.base_backoff * p.multiplier.powi(attempt as i32)).min(p.max_backoff);
                if raw >= p.max_backoff {
                    let u =
                        u64_to_unit_open(mix_words(&[p.seed, JITTER_TAG, trial, attempt as u64]));
                    if u > 0.5 {
                        // This draw would have overshot before the fix.
                        saw_upward_jitter_at_cap = true;
                        assert_eq!(w, p.max_backoff, "upward jitter at the cap clamps");
                    }
                }
            }
        }
        assert!(
            saw_upward_jitter_at_cap,
            "test must exercise at least one previously-overshooting draw"
        );
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let recorder = Arc::new(MemoryRecorder::new());
        let exec = BatchExecutor::new(
            |_c: &Configuration, _trial, attempt: u32| {
                if attempt < 2 {
                    EvalOutcome::Failed {
                        reason: "flaky".into(),
                    }
                } else {
                    EvalOutcome::Ok(1.5)
                }
            },
            1,
        )
        .with_policy(RetryPolicy::default().with_max_retries(2))
        .with_recorder(recorder.clone());
        assert_eq!(exec.evaluate_batch(&[cfg(0)], 0), [EvalOutcome::Ok(1.5)]);
        assert_eq!(exec.retries(), 2);
        let retried = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, Event::TrialRetried { .. }))
            .count();
        assert_eq!(retried, 2);
    }

    #[test]
    fn exhausted_retries_return_the_last_failure() {
        let calls = AtomicU32::new(0);
        let exec = BatchExecutor::new(
            |_c: &Configuration, _trial, _attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                EvalOutcome::Failed {
                    reason: "always".into(),
                }
            },
            1,
        )
        .with_policy(RetryPolicy::default().with_max_retries(3));
        let out = exec.evaluate_batch(&[cfg(1)], 0);
        assert!(!out[0].is_ok());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "1 initial attempt + 3 retries"
        );
    }

    #[test]
    fn timeouts_are_never_retried() {
        let calls = AtomicU32::new(0);
        let exec = BatchExecutor::new(
            |_c: &Configuration, _trial, _attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                EvalOutcome::Timeout
            },
            1,
        )
        .with_policy(RetryPolicy::default().with_max_retries(5));
        assert_eq!(exec.evaluate_batch(&[cfg(2)], 0), [EvalOutcome::Timeout]);
        assert_eq!(exec.retries(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn no_retries_policy_fails_fast() {
        let exec = BatchExecutor::new(
            |_c: &Configuration, _trial, _attempt| EvalOutcome::Failed {
                reason: "crash".into(),
            },
            1,
        )
        .with_policy(RetryPolicy::no_retries());
        assert!(!exec.evaluate_batch(&[cfg(0)], 0)[0].is_ok());
        assert_eq!(exec.retries(), 0);
    }

    #[test]
    fn sleeper_receives_each_backoff() {
        let sleeper = Arc::new(RecordingSleeper::new());
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let exec = BatchExecutor::new(
            |_c: &Configuration, _trial, _attempt| EvalOutcome::Failed {
                reason: "crash".into(),
            },
            1,
        )
        .with_policy(policy)
        .with_sleeper(Arc::clone(&sleeper));
        let _ = exec.evaluate_batch(&[cfg(0)], 0);
        assert_eq!(sleeper.waits(), &[1.0, 2.0]);
    }

    #[test]
    fn retried_runs_replay_identically_per_seed() {
        use hiperbot_perfsim::faults::FaultModel;
        let model = FaultModel::new(13, 0.4);
        let run = |policy_seed: u64| {
            let recorder = Arc::new(MemoryRecorder::new());
            let exec = BatchExecutor::new(
                |c: &Configuration, _trial, attempt: u32| {
                    let words = [c.value(0).index() as u64];
                    outcome_from_sim(model.attempt_outcome(&words, attempt, 1.0))
                },
                1,
            )
            .with_policy(RetryPolicy::default().with_seed(policy_seed))
            .with_recorder(recorder.clone());
            let cfgs: Vec<Configuration> = (0..40).map(cfg).collect();
            let outcomes = exec.evaluate_batch(&cfgs, 0);
            let events: Vec<String> = recorder
                .events()
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            (outcomes, events)
        };
        assert_eq!(run(1), run(1), "same seeds replay bit-identically");
        assert_ne!(run(1).1, run(2).1, "jitter seed changes the backoffs");
    }
}
