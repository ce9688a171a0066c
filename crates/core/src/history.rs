//! The observation history `H_t` (paper §III-A).

use hiperbot_space::Configuration;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

/// A permanently failed evaluation: the configuration was tried (possibly
/// several times) and never produced a finite objective. Failed
/// configurations never enter the objective table — they are quarantined
/// here so the surrogate can fold them into the *bad* density and the
/// selector never re-suggests them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// The configuration that failed.
    pub config: Configuration,
    /// Why the final attempt failed (`"timeout"` or a crash reason).
    pub reason: String,
}

/// The set of `(configuration, objective)` pairs observed so far, in
/// evaluation order, plus the quarantined permanently-failed
/// configurations. Order matters: the evaluation harness reads prefixes
/// of the history to score a tuner at intermediate sample budgets.
///
/// Objectives are always finite — a non-finite measurement must be
/// reported as a failure ([`push_failure`](Self::push_failure)), never
/// pushed as an observation.
///
/// Serializes as the plain `(configs, objectives, failures)` tables (the
/// dedup index is rebuilt on load), so long tuning campaigns can be
/// checkpointed and resumed — see [`Tuner::resume`](crate::tuner::Tuner::resume).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(try_from = "SavedHistory", into = "SavedHistory")]
pub struct ObservationHistory {
    configs: Vec<Configuration>,
    objectives: Vec<f64>,
    failures: Vec<FailureRecord>,
    seen: FxHashSet<Configuration>,
}

/// The serialized form of a history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedHistory {
    /// Evaluated configurations, in order.
    pub configs: Vec<Configuration>,
    /// Objective values, parallel to `configs`.
    pub objectives: Vec<f64>,
    /// Permanently failed configurations (absent in pre-failure-aware
    /// checkpoints, which load as failure-free).
    #[serde(default)]
    pub failures: Vec<FailureRecord>,
}

impl From<ObservationHistory> for SavedHistory {
    fn from(h: ObservationHistory) -> Self {
        Self {
            configs: h.configs,
            objectives: h.objectives,
            failures: h.failures,
        }
    }
}

impl TryFrom<SavedHistory> for ObservationHistory {
    type Error = String;

    fn try_from(s: SavedHistory) -> Result<Self, String> {
        if s.configs.len() != s.objectives.len() {
            return Err("saved history has mismatched table lengths".into());
        }
        let mut h = ObservationHistory::new();
        for (c, y) in s.configs.into_iter().zip(s.objectives) {
            if !y.is_finite() {
                return Err("saved history contains a non-finite objective".into());
            }
            if h.contains(&c) {
                return Err("saved history contains duplicate configurations".into());
            }
            h.push(c, y);
        }
        for f in s.failures {
            if h.contains(&f.config) {
                return Err("saved history contains duplicate configurations".into());
            }
            h.push_failure(f.config, f.reason);
        }
        Ok(h)
    }
}

impl ObservationHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observation.
    ///
    /// # Panics
    /// Panics if the objective is not finite, or if the configuration was
    /// already observed (the Ranking strategy guarantees distinctness; a
    /// duplicate indicates a caller bug).
    pub fn push(&mut self, config: Configuration, objective: f64) {
        assert!(objective.is_finite(), "objective must be finite");
        assert!(
            self.seen.insert(config.clone()),
            "duplicate configuration pushed to history"
        );
        self.configs.push(config);
        self.objectives.push(objective);
    }

    /// Records a permanently failed evaluation. The configuration is
    /// deduplicated exactly like a successful one: it will never be
    /// suggested again.
    ///
    /// # Panics
    /// Panics if the configuration was already observed or already failed.
    pub fn push_failure(&mut self, config: Configuration, reason: impl Into<String>) {
        assert!(
            self.seen.insert(config.clone()),
            "duplicate configuration pushed to history"
        );
        self.failures.push(FailureRecord {
            config,
            reason: reason.into(),
        });
    }

    /// Number of observations `t`.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Number of permanently failed evaluations.
    pub fn n_failures(&self) -> usize {
        self.failures.len()
    }

    /// The quarantined failures, in failure order.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Total trials that consumed evaluation budget: successful
    /// observations plus permanent failures.
    pub fn trials(&self) -> usize {
        self.configs.len() + self.failures.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Whether `config` has been observed.
    pub fn contains(&self, config: &Configuration) -> bool {
        self.seen.contains(config)
    }

    /// The observed configurations, in evaluation order.
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// The observed objectives, parallel to [`configs`](Self::configs).
    pub fn objectives(&self) -> &[f64] {
        &self.objectives
    }

    /// The best observation so far: `(index, configuration, objective)`.
    pub fn best(&self) -> Option<(usize, &Configuration, f64)> {
        self.objectives
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite objectives"))
            .map(|(i, &v)| (i, &self.configs[i], v))
    }

    /// Best objective within the first `n` observations (prefix view used
    /// by the evaluation harness's sample-size checkpoints).
    pub fn best_within(&self, n: usize) -> Option<f64> {
        let n = n.min(self.len());
        self.objectives[..n]
            .iter()
            .cloned()
            .min_by(|a, b| a.partial_cmp(b).expect("finite objectives"))
    }
}

/// How far into an [`ObservationHistory`] a seen set has read: the
/// observation and failure prefixes it has folded in, so each entry is
/// visited once however often the set syncs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HistoryCursor {
    ok: usize,
    failed: usize,
}

impl HistoryCursor {
    /// Calls `f` on each observation, then each quarantined failure,
    /// appended to `history` since the last call.
    pub(crate) fn advance(
        &mut self,
        history: &ObservationHistory,
        mut f: impl FnMut(&Configuration),
    ) {
        for cfg in &history.configs[self.ok..] {
            f(cfg);
        }
        self.ok = history.len();
        for record in &history.failures[self.failed..] {
            f(&record.config);
        }
        self.failed = history.n_failures();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(i: usize) -> Configuration {
        Configuration::from_indices(&[i])
    }

    #[test]
    fn push_and_query() {
        let mut h = ObservationHistory::new();
        assert!(h.is_empty());
        h.push(cfg(0), 3.0);
        h.push(cfg(1), 1.0);
        h.push(cfg(2), 2.0);
        assert_eq!(h.len(), 3);
        assert!(h.contains(&cfg(1)));
        assert!(!h.contains(&cfg(9)));
    }

    #[test]
    fn best_finds_minimum() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 3.0);
        h.push(cfg(1), 1.0);
        h.push(cfg(2), 2.0);
        let (i, c, v) = h.best().unwrap();
        assert_eq!((i, v), (1, 1.0));
        assert_eq!(c, &cfg(1));
    }

    #[test]
    fn best_within_prefix() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 3.0);
        h.push(cfg(1), 1.0);
        assert_eq!(h.best_within(1), Some(3.0));
        assert_eq!(h.best_within(2), Some(1.0));
        assert_eq!(h.best_within(100), Some(1.0));
        assert_eq!(ObservationHistory::new().best_within(5), None);
    }

    #[test]
    fn serde_round_trip_preserves_order_and_dedup() {
        let mut h = ObservationHistory::new();
        h.push(cfg(2), 3.0);
        h.push(cfg(0), 1.0);
        h.push(cfg(1), 2.0);
        let json = serde_json::to_string(&h).unwrap();
        let back: ObservationHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.configs(), h.configs());
        assert_eq!(back.objectives(), h.objectives());
        assert!(back.contains(&cfg(0)));
        assert!(!back.contains(&cfg(9)));
    }

    #[test]
    fn corrupt_saved_history_is_rejected() {
        let dup = r#"{"configs":[{"values":[{"Index":0}]},{"values":[{"Index":0}]}],"objectives":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<ObservationHistory>(dup).is_err());
        let mismatched = r#"{"configs":[{"values":[{"Index":0}]}],"objectives":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<ObservationHistory>(mismatched).is_err());
    }

    #[test]
    fn failures_are_quarantined_and_deduplicated() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 1.0);
        h.push_failure(cfg(1), "crash");
        assert_eq!(h.len(), 1, "failures never count as observations");
        assert_eq!(h.n_failures(), 1);
        assert_eq!(h.trials(), 2);
        assert!(h.contains(&cfg(1)), "failed configs are still 'seen'");
        assert_eq!(h.failures()[0].reason, "crash");
        assert_eq!(h.best().map(|(i, _, v)| (i, v)), Some((0, 1.0)));
    }

    #[test]
    fn serde_round_trip_preserves_failures() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 1.0);
        h.push_failure(cfg(1), "timeout");
        let json = serde_json::to_string(&h).unwrap();
        let back: ObservationHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back.failures(), h.failures());
        assert!(back.contains(&cfg(1)));
        // Pre-failure-aware checkpoints (no `failures` key) still load.
        let legacy = r#"{"configs":[{"values":[{"Index":0}]}],"objectives":[1.0]}"#;
        let old: ObservationHistory = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.n_failures(), 0);
        assert_eq!(old.len(), 1);
    }

    #[test]
    fn saved_failure_duplicating_an_observation_is_rejected() {
        let bad = r#"{"configs":[{"values":[{"Index":0}]}],"objectives":[1.0],"failures":[{"config":{"values":[{"Index":0}]},"reason":"crash"}]}"#;
        assert!(serde_json::from_str::<ObservationHistory>(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn failing_an_observed_config_panics() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 1.0);
        h.push_failure(cfg(0), "crash");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_push_panics() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), 1.0);
        h.push(cfg(0), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_objective_panics() {
        let mut h = ObservationHistory::new();
        h.push(cfg(0), f64::NAN);
    }
}
