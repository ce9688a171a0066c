//! The common interface the evaluation harness drives all methods through.

use hiperbot_core::{EvalOutcome, SelectionStrategy, Tuner, TunerOptions};
use hiperbot_obs::{NoopRecorder, Recorder};
use hiperbot_space::{Configuration, ParameterSpace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A method's evaluation trace: configurations in the order they were
/// evaluated, with their objective values. Prefixes of this trace are the
/// method's state at smaller sample budgets, which is how the paper reports
/// metrics "for a range of samples" (§V).
#[derive(Debug, Clone)]
pub struct SelectionRun {
    /// Evaluated configurations, in order.
    pub configs: Vec<Configuration>,
    /// Objective values, parallel to `configs`.
    pub objectives: Vec<f64>,
    /// Trials that permanently failed (consumed budget, produced no
    /// observation). Methods without native failure handling fold the
    /// `f64::INFINITY` sentinel into `objectives` instead and leave this 0
    /// unless driven through [`ConfigSelector::select_fallible`].
    pub failures: usize,
}

impl SelectionRun {
    /// Best objective within the first `n` evaluations.
    pub fn best_within(&self, n: usize) -> f64 {
        self.objectives[..n.min(self.objectives.len())]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of evaluations in the trace.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

/// A sequential configuration-selection method.
pub trait ConfigSelector: Sync {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Runs the method for `budget` evaluations over the feasible `pool`
    /// (the enumerated space), calling `objective` for each evaluation.
    fn select(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun;

    /// Runs the method against a *fallible* objective. The default
    /// implementation is the classic baseline treatment: a failed trial is
    /// scored `f64::INFINITY` (worst possible) and stays in the trace, so
    /// methods with no notion of failure still steer away from crashing
    /// regions. Failure-aware methods (HiPerBOt) override this to
    /// quarantine failures from their density estimates instead.
    fn select_fallible(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> EvalOutcome + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        let failures = AtomicUsize::new(0);
        let sentinel = |cfg: &Configuration| match objective(cfg).normalized().value() {
            Some(y) => y,
            None => {
                failures.fetch_add(1, Ordering::Relaxed);
                f64::INFINITY
            }
        };
        let mut run = self.select(space, pool, &sentinel, budget, seed);
        run.failures = failures.load(Ordering::Relaxed);
        run
    }
}

/// HiPerBOt wrapped as a [`ConfigSelector`].
#[derive(Clone)]
pub struct HiPerBOtSelector {
    /// Bootstrap sample count (paper: 20).
    pub init_samples: usize,
    /// Quantile threshold (paper: 0.20).
    pub alpha: f64,
    /// Trace sink handed to each inner [`Tuner`] (default: disabled).
    pub recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for HiPerBOtSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HiPerBOtSelector")
            .field("init_samples", &self.init_samples)
            .field("alpha", &self.alpha)
            .finish()
    }
}

impl Default for HiPerBOtSelector {
    fn default() -> Self {
        Self {
            init_samples: 20,
            alpha: 0.20,
            recorder: Arc::new(NoopRecorder),
        }
    }
}

impl HiPerBOtSelector {
    /// Attaches a trace recorder forwarded to each inner tuner run.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl ConfigSelector for HiPerBOtSelector {
    fn name(&self) -> &str {
        "HiPerBOt"
    }

    fn select(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        self.select_fallible(
            space,
            pool,
            &|c| EvalOutcome::from_value(objective(c)),
            budget,
            seed,
        )
    }

    /// Failure-aware variant: failed trials are quarantined in the tuner's
    /// history (folded into the *bad* density, never the trace), not
    /// scored with a sentinel value.
    fn select_fallible(
        &self,
        space: &ParameterSpace,
        _pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> EvalOutcome + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        let options = TunerOptions::default()
            .with_seed(seed)
            .with_init_samples(self.init_samples)
            .with_alpha(self.alpha)
            .with_strategy(SelectionStrategy::Ranking);
        let mut tuner =
            Tuner::new(space.clone(), options).with_recorder(Arc::clone(&self.recorder));
        let _ = tuner.run_fallible(budget, |c| objective(c));
        SelectionRun {
            configs: tuner.history().configs().to_vec(),
            objectives: tuner.history().objectives().to_vec(),
            failures: tuner.history().n_failures(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef};

    fn space() -> ParameterSpace {
        let vals: Vec<i64> = (0..8).collect();
        ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap()
    }

    fn objective(c: &Configuration) -> f64 {
        let x = c.value(0).index() as f64;
        let y = c.value(1).index() as f64;
        (x - 5.0).powi(2) + (y - 2.0).powi(2) + 1.0
    }

    #[test]
    fn hiperbot_selector_produces_a_full_trace() {
        let s = space();
        let pool = s.enumerate();
        let run = HiPerBOtSelector::default().select(&s, &pool, &objective, 30, 1);
        assert_eq!(run.len(), 30);
        assert_eq!(run.configs.len(), run.objectives.len());
        // trace values match the objective
        for (c, &o) in run.configs.iter().zip(&run.objectives) {
            assert_eq!(o, objective(c));
        }
    }

    #[test]
    fn best_within_is_monotone() {
        let s = space();
        let pool = s.enumerate();
        let run = HiPerBOtSelector::default().select(&s, &pool, &objective, 40, 2);
        let mut prev = f64::INFINITY;
        for n in 1..=run.len() {
            let b = run.best_within(n);
            assert!(b <= prev);
            prev = b;
        }
    }

    #[test]
    fn default_select_fallible_scores_failures_as_infinity() {
        use crate::random::RandomSelector;
        let s = space();
        let pool = s.enumerate();
        // Configurations with x == 0 crash; the rest succeed.
        let fallible = |c: &Configuration| {
            if c.value(0).index() == 0 {
                EvalOutcome::Failed {
                    reason: "injected".into(),
                }
            } else {
                EvalOutcome::Ok(objective(c))
            }
        };
        let run = RandomSelector.select_fallible(&s, &pool, &fallible, 64, 7);
        assert_eq!(
            run.len(),
            64,
            "sentinel scoring keeps failures in the trace"
        );
        assert_eq!(run.failures, 8, "one crash per y value of x == 0");
        let sentinels = run
            .objectives
            .iter()
            .filter(|o| **o == f64::INFINITY)
            .count();
        assert_eq!(sentinels, run.failures);
        assert!(run.best_within(64).is_finite());
    }

    #[test]
    fn hiperbot_select_fallible_quarantines_failures() {
        let s = space();
        let pool = s.enumerate();
        let fallible = |c: &Configuration| {
            if c.value(0).index() == 0 {
                EvalOutcome::Failed {
                    reason: "injected".into(),
                }
            } else {
                EvalOutcome::Ok(objective(c))
            }
        };
        let run = HiPerBOtSelector::default().select_fallible(&s, &pool, &fallible, 40, 7);
        assert!(run.failures > 0, "the bootstrap must have hit x == 0");
        assert_eq!(
            run.len() + run.failures,
            40,
            "observations + failures consume the whole budget"
        );
        assert!(
            run.objectives.iter().all(|o| o.is_finite()),
            "no sentinel values in a failure-aware trace"
        );
    }

    #[test]
    fn trace_has_no_duplicates() {
        let s = space();
        let pool = s.enumerate();
        let run = HiPerBOtSelector::default().select(&s, &pool, &objective, 50, 3);
        let set: std::collections::HashSet<_> = run.configs.iter().cloned().collect();
        assert_eq!(set.len(), run.len());
    }
}
