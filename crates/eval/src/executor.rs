//! Bounded worker-pool executor for batch objective evaluation.
//!
//! The tuner's constant-liar batch API
//! ([`Tuner::step_batch_fallible`](hiperbot_core::Tuner::step_batch_fallible))
//! hands the executor `k` configurations per iteration; the executor
//! evaluates them concurrently on up to `workers` scoped threads and
//! returns the outcomes **indexed like the input slice**, so the merge is
//! deterministic no matter which worker finished first.
//!
//! Reproducibility contract: every source of randomness in an evaluation
//! — fault draws, retry backoff jitter — is keyed on the *trial index*
//! (`base_trial + position in the batch`) and the attempt number, never on
//! worker identity, completion order, or wall-clock. Two runs with the
//! same seeds therefore produce identical outcome sequences at any worker
//! count. A batch that needs one thread (`workers = 1`, or a one-item
//! batch) runs on the caller's thread, so a serial campaign — a
//! one-worker executor fed batches of one — spawns nothing and is the
//! same code path as a parallel one.
//!
//! The one thing that *does* vary with scheduling is trace interleaving:
//! `TrialRetried` events from concurrent workers arrive in completion
//! order (like the rayon-parallel experiment runner's repetition events).
//! Consumers must key on the `iteration` field, not event order.

use crate::faults::NoopSleeper;
use crate::faults::{evaluate_with_retries, RetryPolicy, Sleeper};
use hiperbot_core::EvalOutcome;
use hiperbot_obs::{MetricsRegistry, NoopRecorder, Recorder};
use hiperbot_space::Configuration;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Renders a caught panic payload as a human-readable reason string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// Evaluates batches of configurations concurrently over a bounded pool
/// of scoped worker threads, composing with [`RetryPolicy`] (per-trial
/// retry loops with deterministic, trial-indexed backoff jitter).
///
/// The objective is shared by all workers (`Fn` + [`Sync`]) and receives
/// `(configuration, trial, attempt)` — the trial index is what fault
/// models and jitter draws key on, so outcomes are independent of which
/// worker picks up which configuration.
pub struct BatchExecutor<F> {
    objective: F,
    workers: usize,
    policy: RetryPolicy,
    recorder: Arc<dyn Recorder>,
    sleeper: Box<dyn Sleeper>,
    registry: Option<Arc<MetricsRegistry>>,
    retries: AtomicU64,
}

impl<F: Fn(&Configuration, u64, u32) -> EvalOutcome + Sync> BatchExecutor<F> {
    /// An executor over `workers` threads that never retries. `workers`
    /// is a cap: a batch of `k < workers` configurations spawns only `k`
    /// threads, and a batch that needs one thread (`workers = 1`, or
    /// `k = 1`) evaluates strictly in input order on the calling thread.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(objective: F, workers: usize) -> Self {
        assert!(workers > 0, "an executor needs at least one worker");
        Self {
            objective,
            workers,
            policy: RetryPolicy::no_retries(),
            recorder: Arc::new(NoopRecorder),
            sleeper: Box::new(NoopSleeper),
            registry: None,
            retries: AtomicU64::new(0),
        }
    }

    /// Sets the retry policy applied independently to every trial.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a trace recorder for `TrialRetried` events (the recorder
    /// is shared by all workers; see the module docs on interleaving).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Replaces the default [`NoopSleeper`] used for backoff waits.
    pub fn with_sleeper(mut self, sleeper: impl Sleeper + 'static) -> Self {
        self.sleeper = Box::new(sleeper);
        self
    }

    /// Attaches a metrics registry: each worker `w` records its per-trial
    /// evaluation latency (retries included) into an
    /// `executor.worker.{w}` histogram, and the executor counts trials
    /// under `executor.trials`.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The configured worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total retries performed across all batches so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Evaluates `cfgs[i]` as trial `base_trial + i` for every `i`,
    /// concurrently on up to `workers` threads (on the caller's when only
    /// one is needed), and returns the outcomes in input order. Work is
    /// claimed from a shared counter, so threads stay busy even when
    /// per-trial latency varies (retry backoff, slow configurations).
    ///
    /// The signature matches what
    /// [`Tuner::run_batch_fallible`](hiperbot_core::Tuner::run_batch_fallible)
    /// expects: pass `|cfgs, base| executor.evaluate_batch(cfgs, base)`.
    pub fn evaluate_batch(&self, cfgs: &[Configuration], base_trial: u64) -> Vec<EvalOutcome> {
        let n = cfgs.len();
        // Trial `base_trial + i` on worker `w`: the retry loop, with a
        // panicking objective quarantined as a failure (unwinding here
        // would poison the result slots and abort the scope).
        let evaluate = |w: usize, i: usize| {
            let trial = base_trial + i as u64;
            let started = self.registry.as_ref().map(|_| Instant::now());
            let (out, retries) =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut inner =
                        |c: &Configuration, attempt: u32| (self.objective)(c, trial, attempt);
                    evaluate_with_retries(
                        &mut inner,
                        &cfgs[i],
                        trial,
                        &self.policy,
                        self.recorder.as_ref(),
                        self.sleeper.as_ref(),
                    )
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        (
                            EvalOutcome::Failed {
                                reason: format!("objective panicked at trial {trial}: {msg}"),
                            },
                            0,
                        )
                    }
                };
            self.retries.fetch_add(retries, Ordering::Relaxed);
            if let (Some(registry), Some(started)) = (&self.registry, started) {
                registry.observe_ns(
                    &format!("executor.worker.{w}"),
                    started.elapsed().as_nanos() as u64,
                );
                registry.incr("executor.trials");
            }
            out
        };
        match self.workers.min(n) {
            0 => Vec::new(),
            // A batch that needs one thread runs on the caller, in input
            // order: a serial run spawns nothing per trial.
            1 => (0..n).map(|i| evaluate(0, i)).collect(),
            workers => {
                let slots: Vec<Mutex<Option<EvalOutcome>>> =
                    (0..n).map(|_| Mutex::new(None)).collect();
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let (evaluate, slots, next) = (&evaluate, &slots, &next);
                        scope.spawn(move || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            *slots[i].lock().expect("result slot poisoned") = Some(evaluate(w, i));
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|slot| {
                        slot.into_inner()
                            .expect("result slot poisoned")
                            .expect("every index claimed exactly once")
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_obs::MemoryRecorder;

    fn cfg(i: usize) -> Configuration {
        Configuration::from_indices(&[i])
    }

    fn cfgs(n: usize) -> Vec<Configuration> {
        (0..n).map(cfg).collect()
    }

    #[test]
    fn outcomes_come_back_in_input_order() {
        // Later indices finish first (sleep inversely proportional), yet
        // the returned vector is input-ordered.
        let exec = BatchExecutor::new(
            |c: &Configuration, _t, _a| {
                let i = c.value(0).index();
                std::thread::sleep(std::time::Duration::from_micros(200 * (8 - i as u64)));
                EvalOutcome::Ok(i as f64)
            },
            4,
        );
        let out = exec.evaluate_batch(&cfgs(8), 0);
        let expect: Vec<EvalOutcome> = (0..8).map(|i| EvalOutcome::Ok(i as f64)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn identical_outcomes_at_any_worker_count() {
        let run = |workers: usize| {
            let exec = BatchExecutor::new(
                |c: &Configuration, trial, _a| {
                    EvalOutcome::Ok((c.value(0).index() as u64 * 31 + trial) as f64)
                },
                workers,
            );
            exec.evaluate_batch(&cfgs(16), 7)
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), serial, "workers = {workers}");
        }
    }

    #[test]
    fn trials_are_keyed_on_base_plus_index() {
        let exec = BatchExecutor::new(
            |_c: &Configuration, trial, _a| EvalOutcome::Ok(trial as f64),
            3,
        );
        let out = exec.evaluate_batch(&cfgs(4), 10);
        let expect: Vec<EvalOutcome> = (10..14).map(|t| EvalOutcome::Ok(t as f64)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn retries_compose_with_concurrency() {
        // Every trial fails once, then succeeds on attempt 1.
        let recorder = Arc::new(MemoryRecorder::new());
        let exec = BatchExecutor::new(
            |c: &Configuration, _t, attempt: u32| {
                if attempt == 0 {
                    EvalOutcome::Failed {
                        reason: "flaky".into(),
                    }
                } else {
                    EvalOutcome::Ok(c.value(0).index() as f64)
                }
            },
            4,
        )
        .with_policy(RetryPolicy::default().with_max_retries(2))
        .with_recorder(recorder.clone());
        let out = exec.evaluate_batch(&cfgs(8), 0);
        assert!(out.iter().all(|o| o.is_ok()));
        assert_eq!(exec.retries(), 8);
        // One TrialRetried per trial, with trial-indexed iterations
        // (order across workers is unspecified).
        let mut iterations: Vec<u64> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                hiperbot_obs::Event::TrialRetried { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .collect();
        iterations.sort_unstable();
        assert_eq!(iterations, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn registry_collects_per_worker_histograms() {
        let registry = Arc::new(MetricsRegistry::new());
        let exec = BatchExecutor::new(|_c: &Configuration, _t, _a| EvalOutcome::Ok(1.0), 2)
            .with_registry(registry.clone());
        exec.evaluate_batch(&cfgs(6), 0);
        assert_eq!(registry.counter("executor.trials"), 6);
        let total: u64 = (0..2)
            .filter_map(|w| registry.histogram(&format!("executor.worker.{w}")))
            .map(|h| h.count())
            .sum();
        assert_eq!(
            total, 6,
            "every trial lands in exactly one worker histogram"
        );
    }

    #[test]
    fn panicking_objective_becomes_a_failed_outcome() {
        // Regression: a panic in the objective used to unwind through the
        // worker, killing the batch with "result slot poisoned" instead
        // of surfacing which trial failed.
        let exec = BatchExecutor::new(
            |c: &Configuration, _t, _a| {
                if c.value(0).index() == 2 {
                    panic!("boom");
                }
                EvalOutcome::Ok(c.value(0).index() as f64)
            },
            4,
        );
        let out = exec.evaluate_batch(&cfgs(6), 10);
        assert_eq!(out.len(), 6);
        for (i, o) in out.iter().enumerate() {
            if i == 2 {
                let reason = o.failure_reason().expect("panicked trial is Failed");
                assert!(
                    reason.contains("trial 12") && reason.contains("boom"),
                    "reason should carry the trial index and payload: {reason}"
                );
            } else {
                assert_eq!(*o, EvalOutcome::Ok(i as f64), "other trials unaffected");
            }
        }
    }

    #[test]
    fn panic_payloads_render_for_str_string_and_other() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("heap boom")), "heap boom");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }

    #[test]
    fn worker_cap_never_exceeds_batch() {
        // A 1-item batch through an 8-worker executor works (it runs on
        // the caller) and returns that item's outcome.
        let exec = BatchExecutor::new(|_c: &Configuration, _t, _a| EvalOutcome::Ok(42.0), 8);
        assert_eq!(
            exec.evaluate_batch(&cfgs(1), 0),
            vec![EvalOutcome::Ok(42.0)]
        );
        assert!(exec.evaluate_batch(&[], 0).is_empty());
    }

    #[test]
    fn a_batch_that_needs_one_thread_runs_on_the_caller() {
        // `workers = 1`, and a one-item batch at `workers = 4`: no thread
        // is spawned, and the retries, outcomes and the worker-0
        // histogram are what a spawned worker would produce.
        let caller = std::thread::current().id();
        for (workers, n) in [(1, 3), (4, 1)] {
            let seen = Mutex::new(Vec::new());
            let registry = Arc::new(MetricsRegistry::new());
            let exec = BatchExecutor::new(
                |c: &Configuration, _t, attempt: u32| {
                    seen.lock().unwrap().push(std::thread::current().id());
                    if attempt == 0 {
                        EvalOutcome::Failed {
                            reason: "flaky".into(),
                        }
                    } else {
                        EvalOutcome::Ok(c.value(0).index() as f64)
                    }
                },
                workers,
            )
            .with_policy(RetryPolicy::default().with_max_retries(1))
            .with_registry(registry.clone());
            let out = exec.evaluate_batch(&cfgs(n), 5);
            let expect: Vec<EvalOutcome> = (0..n).map(|i| EvalOutcome::Ok(i as f64)).collect();
            assert_eq!(out, expect, "workers = {workers}");
            assert_eq!(exec.retries(), n as u64);
            assert_eq!(
                registry.histogram("executor.worker.0").map(|h| h.count()),
                Some(n as u64)
            );
            assert_eq!(registry.counter("executor.trials"), n as u64);
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 2 * n, "two attempts per trial");
            assert!(
                seen.iter().all(|id| *id == caller),
                "workers = {workers}: evaluated off the calling thread"
            );
        }
    }
}
