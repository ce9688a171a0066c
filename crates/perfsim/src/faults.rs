//! Deterministic fault injection for the application simulators.
//!
//! Real HPC tuning runs fail: configurations OOM, crash, or run past the
//! scheduler's wall-clock limit, and the paper's measured datasets contain
//! such infeasible rows. The substitute datasets need the same hazard —
//! a tuner that only ever sees clean objectives is not being tested for
//! the robustness production use requires — but, like [`crate::noise`],
//! the hazard must be *deterministic*: the same `(seed, configuration,
//! attempt)` triple always produces the same outcome, so a tuning run is
//! exactly reproducible, retries included.
//!
//! The model has two failure channels, composable with the multiplicative
//! noise in [`crate::noise`]:
//!
//! - **Crashes** — each attempt crashes with a per-*region* probability:
//!   the base `fail_prob` is scaled by a hash-derived hazard factor in
//!   `(0, 2)` keyed on the configuration alone, so some regions of the
//!   space crash at up to twice the base rate while others are nearly
//!   safe. Because the attempt index enters the hash, a retry of a
//!   crashed configuration can succeed — crashes are transient.
//! - **Timeouts** — a (noisy) simulated runtime above the configured
//!   threshold is reported as a timeout instead of a measurement. Unlike
//!   crashes, timeouts are a property of the configuration: retrying is
//!   futile, and a failure-aware tuner should learn to steer away.

use hiperbot_stats::rng::{u64_to_unit_open, WordMixer};

/// Domain-separation tag for the per-configuration hazard factor.
const REGION_TAG: u64 = 0xFA17_7E61_0000_0001;
/// Domain-separation tag for per-attempt crash draws.
const ATTEMPT_TAG: u64 = 0xFA17_7E61_0000_0002;

/// The outcome of one simulated objective evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimOutcome {
    /// The run completed and measured this objective value.
    Completed(f64),
    /// The run crashed before producing a measurement (transient: a retry
    /// draws a fresh crash outcome).
    Crashed,
    /// The run exceeded the timeout threshold (deterministic per
    /// configuration: retries time out again).
    TimedOut,
}

impl SimOutcome {
    /// The measured value, if the run completed.
    pub fn value(&self) -> Option<f64> {
        match self {
            SimOutcome::Completed(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the attempt produced a measurement.
    pub fn is_completed(&self) -> bool {
        matches!(self, SimOutcome::Completed(_))
    }
}

/// A seeded, deterministic failure model for simulated evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    seed: u64,
    fail_prob: f64,
    timeout: Option<f64>,
}

impl FaultModel {
    /// A model that injects crashes with base probability `fail_prob`
    /// (0 disables the crash channel). All outcomes derive from `seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ fail_prob ≤ 1`.
    pub fn new(seed: u64, fail_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fail_prob),
            "fail_prob must be a probability"
        );
        Self {
            seed,
            fail_prob,
            timeout: None,
        }
    }

    /// A model that never injects any failure.
    pub fn none() -> Self {
        Self::new(0, 0.0)
    }

    /// Adds a timeout channel: values above `threshold` become
    /// [`SimOutcome::TimedOut`].
    ///
    /// # Panics
    /// Panics unless `threshold` is finite and positive.
    pub fn with_timeout(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "timeout threshold must be finite and positive"
        );
        self.timeout = Some(threshold);
        self
    }

    /// Whether any failure channel is active.
    pub fn is_enabled(&self) -> bool {
        self.fail_prob > 0.0 || self.timeout.is_some()
    }

    /// The base crash probability.
    pub fn fail_prob(&self) -> f64 {
        self.fail_prob
    }

    /// The timeout threshold, if configured.
    pub fn timeout(&self) -> Option<f64> {
        self.timeout
    }

    /// The effective per-attempt crash probability of the configuration
    /// identified by `config_words`: the base rate scaled by the region's
    /// hazard factor in `(0, 2)`, clamped to `[0, 1]`. Mean over regions is
    /// the base rate.
    pub fn crash_probability(&self, config_words: &[u64]) -> f64 {
        if self.fail_prob == 0.0 {
            return 0.0;
        }
        let hazard = 2.0 * u64_to_unit_open(self.draw(REGION_TAG, config_words).finish());
        (self.fail_prob * hazard).clamp(0.0, 1.0)
    }

    /// The mixer over `[seed, tag, config_words...]`, the prefix every
    /// draw of this model hashes.
    fn draw(&self, tag: u64, config_words: &[u64]) -> WordMixer {
        let mut mixer = WordMixer::new();
        mixer.push(self.seed);
        mixer.push(tag);
        mixer.extend(config_words);
        mixer
    }

    /// The outcome of evaluation attempt `attempt` (0-based) on the
    /// configuration identified by `config_words`, given the (noisy)
    /// simulated objective `value` the run would have measured.
    ///
    /// The timeout channel is checked first: a run that would exceed the
    /// threshold never reports a value, whether or not it would also have
    /// crashed.
    pub fn attempt_outcome(&self, config_words: &[u64], attempt: u32, value: f64) -> SimOutcome {
        if let Some(threshold) = self.timeout {
            // NaN "runtimes" also land here: never reported as measurements.
            if value.is_nan() || value > threshold {
                return SimOutcome::TimedOut;
            }
        }
        let p = self.crash_probability(config_words);
        if p > 0.0 {
            let mut draw = self.draw(ATTEMPT_TAG, config_words);
            draw.push(attempt as u64);
            if u64_to_unit_open(draw.finish()) < p {
                return SimOutcome::Crashed;
            }
        }
        SimOutcome::Completed(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_always_completes() {
        let m = FaultModel::none();
        assert!(!m.is_enabled());
        for i in 0..100u64 {
            assert_eq!(m.attempt_outcome(&[i], 0, 1.5), SimOutcome::Completed(1.5));
        }
    }

    #[test]
    fn outcomes_are_deterministic() {
        let m = FaultModel::new(7, 0.3).with_timeout(100.0);
        for i in 0..50u64 {
            for attempt in 0..3 {
                assert_eq!(
                    m.attempt_outcome(&[i], attempt, 5.0),
                    m.attempt_outcome(&[i], attempt, 5.0)
                );
            }
        }
    }

    #[test]
    fn empirical_crash_rate_matches_base_probability() {
        let m = FaultModel::new(3, 0.2);
        let n = 20_000u64;
        let crashed = (0..n)
            .filter(|&i| m.attempt_outcome(&[i], 0, 1.0) == SimOutcome::Crashed)
            .count();
        let rate = crashed as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "crash rate {rate}");
    }

    #[test]
    fn crash_probability_varies_by_region_with_the_right_mean() {
        let m = FaultModel::new(11, 0.25);
        let ps: Vec<f64> = (0..5_000u64).map(|i| m.crash_probability(&[i])).collect();
        let mean = ps.iter().sum::<f64>() / ps.len() as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean hazard {mean}");
        let lo = ps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ps.iter().cloned().fold(0.0f64, f64::max);
        assert!(lo < 0.05, "some regions nearly safe: {lo}");
        assert!(hi > 0.4, "some regions crash-prone: {hi}");
    }

    #[test]
    fn retries_can_recover_from_crashes() {
        let m = FaultModel::new(5, 0.5);
        // Find a config whose first attempt crashes; a later attempt of the
        // same config must eventually complete (transient failures).
        let mut recovered = 0;
        for i in 0..200u64 {
            if m.attempt_outcome(&[i], 0, 1.0) == SimOutcome::Crashed {
                let ok = (1..16).any(|a| m.attempt_outcome(&[i], a, 1.0).is_completed());
                if ok {
                    recovered += 1;
                }
            }
        }
        assert!(recovered > 50, "only {recovered} crashed configs recovered");
    }

    #[test]
    fn timeouts_are_deterministic_and_retry_proof() {
        let m = FaultModel::new(1, 0.0).with_timeout(10.0);
        for attempt in 0..5 {
            assert_eq!(m.attempt_outcome(&[4], attempt, 10.5), SimOutcome::TimedOut);
            assert_eq!(
                m.attempt_outcome(&[4], attempt, 9.5),
                SimOutcome::Completed(9.5)
            );
        }
        // NaN runtimes (shouldn't happen, but) are treated as timeouts,
        // never reported as measurements.
        assert_eq!(m.attempt_outcome(&[4], 0, f64::NAN), SimOutcome::TimedOut);
    }

    #[test]
    fn different_seeds_draw_different_outcomes() {
        let a = FaultModel::new(1, 0.5);
        let b = FaultModel::new(2, 0.5);
        let diff = (0..500u64)
            .filter(|&i| a.attempt_outcome(&[i], 0, 1.0) != b.attempt_outcome(&[i], 0, 1.0))
            .count();
        assert!(diff > 100, "only {diff}/500 outcomes differ across seeds");
    }

    #[test]
    fn draws_hash_the_concatenated_words() {
        use hiperbot_stats::rng::mix_words;
        let m = FaultModel::new(13, 0.4);
        for cfg in [vec![], vec![5], vec![2, 9, 31]] {
            let region = [&[13, REGION_TAG][..], &cfg].concat();
            let p = (0.4 * 2.0 * u64_to_unit_open(mix_words(&region))).clamp(0.0, 1.0);
            assert_eq!(m.crash_probability(&cfg), p);
            for attempt in 0..4u32 {
                let words = [&[13, ATTEMPT_TAG][..], &cfg, &[attempt as u64]].concat();
                let crashed = u64_to_unit_open(mix_words(&words)) < p;
                assert_eq!(
                    m.attempt_outcome(&cfg, attempt, 1.0) == SimOutcome::Crashed,
                    crashed
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_fail_prob_panics() {
        let _ = FaultModel::new(0, 1.5);
    }
}
