//! Online tuner diagnostics: convergence/health analytics derived from
//! the event stream, plus a threshold watchdog.
//!
//! [`DiagnosticsRecorder`] is just another [`Recorder`] sink on the
//! `MultiRecorder` tee: it folds the typed [`Event`] stream into a
//! [`DiagnosticsSummary`] — incumbent/regret trajectory with plateau
//! tracking, EI-saturation and pool-exhaustion signals from
//! `SelectionScored`, surrogate health from `SurrogateFit`, and
//! failure/retry/stall counters. Because every statistic derives *only*
//! from event fields (never from wall clocks or RNG), replaying a written
//! JSONL trace through the same folding logic reproduces the online
//! summary bit-for-bit — the parity invariant `tests/diagnostics.rs` pins.
//!
//! The embedded watchdog compares the running state against a
//! [`WatchdogConfig`] after every consumed event and latches at most one
//! [`HealthAlert`] per code. Alerts are *outputs*: the CLI re-emits them
//! into the trace as [`Event::HealthAlert`] after `RunFinished`, and this
//! recorder ignores incoming `HealthAlert` events, so feeding a trace that
//! already carries alerts back through a `DiagnosticsRecorder` neither
//! recurses nor double-counts.

use crate::event::{Event, HealthAlert};
use crate::recorder::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// How many head/tail fit-time samples feed the fit-time trend ratio.
const TREND_WINDOW: usize = 8;

/// Thresholds the watchdog holds the run against. Every check is latched:
/// a code fires at most once per run, at the first event that crosses it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Fire `regret_plateau` when this many consecutive budget-consuming
    /// trials pass without an incumbent improvement.
    pub plateau_evaluations: u64,
    /// Fire `failure_rate` when permanent failures exceed this fraction
    /// of all budget-consuming trials.
    pub max_failure_rate: f64,
    /// Trials (successes + failures) required before `failure_rate` is
    /// judged at all — a 1/2 failure start is noise, not a verdict.
    pub min_trials: u64,
    /// Fire `proposal_stalls` when duplicate-proposal stalls reach this
    /// many over the run.
    pub stall_burst: u64,
    /// A selection whose winning EI (log density ratio) is at or below
    /// this floor counts toward the `ei_collapse` streak.
    pub ei_floor: f64,
    /// Fire `ei_collapse` after this many consecutive at-floor selections.
    pub ei_burst: u64,
    /// Fire `pool_exhausted` when successful evaluations reach this
    /// fraction of the enumerable candidate pool.
    pub pool_exhaustion: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            plateau_evaluations: 50,
            max_failure_rate: 0.25,
            min_trials: 10,
            stall_burst: 25,
            ei_floor: 0.0,
            ei_burst: 8,
            pool_exhaustion: 0.9,
        }
    }
}

/// Convergence analytics: how the incumbent moved and how long it has
/// been stuck.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceStats {
    /// Successful objective evaluations (bootstrap + model).
    pub evaluations: u64,
    /// The bootstrap-phase subset of `evaluations`.
    pub bootstrap_evaluations: u64,
    /// Permanently failed trials.
    pub failures: u64,
    /// Retry attempts across all trials.
    pub retries: u64,
    /// Model-driven iterations.
    pub iterations: u64,
    /// Incumbent improvements.
    pub improvements: u64,
    /// Best objective seen (`None` before the first improvement).
    pub best: Option<f64>,
    /// `(iteration, objective)` at each improvement, in stream order.
    pub trajectory: Vec<(u64, f64)>,
    /// Improvement gap `previous_best - objective` of the latest
    /// improvement that displaced a finite incumbent.
    pub last_gap: Option<f64>,
    /// Budget-consuming trials since the last improvement.
    pub plateau: u64,
    /// Longest plateau observed anywhere in the run.
    pub max_plateau: u64,
}

/// Acquisition health: is expected improvement still discriminating, and
/// is the candidate pool running out?
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelectionStats {
    /// `SelectionScored` events consumed.
    pub selections: u64,
    /// Winning EI of the latest selection (finite values only).
    pub last_ei: Option<f64>,
    /// Largest finite winning EI seen.
    pub max_ei: Option<f64>,
    /// Consecutive selections at or below the configured EI floor.
    pub low_ei_streak: u64,
    /// Longest such streak over the run.
    pub max_low_ei_streak: u64,
    /// Candidates considered by the latest selection.
    pub last_candidates: Option<u64>,
    /// Enumerable pool size from the run header (0 when continuous).
    pub pool_size: u64,
    /// Fraction of the pool consumed by successful evaluations
    /// (`None` when the pool is not enumerable).
    pub pool_consumed: Option<f64>,
}

/// Surrogate-model health: threshold drift, class balance, and whether
/// refits are getting slower.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurrogateStats {
    /// `SurrogateFit` events consumed.
    pub fits: u64,
    /// Good/bad threshold `y(τ)` of the first fit.
    pub first_threshold: Option<f64>,
    /// Good/bad threshold of the latest fit.
    pub last_threshold: Option<f64>,
    /// `|last - first|` threshold movement over the run.
    pub threshold_drift: Option<f64>,
    /// Smallest good-class fraction `n_good / (n_good + n_bad)` seen.
    pub min_good_fraction: Option<f64>,
    /// `mean(last 8 fit times) / mean(first 8 fit times)` — values well
    /// above 1 mean refits are slowing as history grows.
    pub fit_time_trend: Option<f64>,
}

/// Everything the diagnostics layer knows about a run. Derives only from
/// event fields, so an offline replay of the trace reproduces it exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticsSummary {
    /// Convergence analytics.
    pub convergence: ConvergenceStats,
    /// Acquisition/pool analytics.
    pub selection: SelectionStats,
    /// Surrogate-model analytics.
    pub surrogate: SurrogateStats,
    /// Duplicate-proposal stalls reported at run end.
    pub stalls: u64,
    /// Constant-liar batches dispatched.
    pub batches: u64,
    /// Watchdog findings, in firing order (at most one per code).
    pub alerts: Vec<HealthAlert>,
}

impl DiagnosticsSummary {
    /// Whether the watchdog stayed silent.
    pub fn healthy(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Renders the human-readable diagnostics block.
    pub fn render(&self) -> String {
        let c = &self.convergence;
        let mut out = String::new();
        out.push_str(&format!(
            "convergence: {} evaluations ({} bootstrap), {} improvements",
            c.evaluations, c.bootstrap_evaluations, c.improvements
        ));
        if let Some(best) = c.best {
            out.push_str(&format!(", best {best:.6}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  plateau: {} trials since last improvement (max {})",
            c.plateau, c.max_plateau
        ));
        if let Some(gap) = c.last_gap {
            out.push_str(&format!("; last gap {gap:.6}"));
        }
        out.push('\n');
        let s = &self.selection;
        if s.selections > 0 {
            out.push_str(&format!("selection: {} scored", s.selections));
            if let Some(ei) = s.last_ei {
                out.push_str(&format!(", last EI {ei:.4}"));
            }
            if let Some(ei) = s.max_ei {
                out.push_str(&format!(" (max {ei:.4})"));
            }
            out.push_str(&format!(
                ", low-EI streak {} (max {})\n",
                s.low_ei_streak, s.max_low_ei_streak
            ));
        }
        if s.pool_size > 0 {
            out.push_str(&format!("  pool: {} candidates", s.pool_size));
            if let Some(f) = s.pool_consumed {
                out.push_str(&format!(", {:.1}% consumed", 100.0 * f));
            }
            out.push('\n');
        }
        let g = &self.surrogate;
        if g.fits > 0 {
            out.push_str(&format!("surrogate: {} fits", g.fits));
            if let (Some(first), Some(last)) = (g.first_threshold, g.last_threshold) {
                out.push_str(&format!(", threshold {first:.4} -> {last:.4}"));
                if let Some(d) = g.threshold_drift {
                    out.push_str(&format!(" (drift {d:.4})"));
                }
            }
            if let Some(f) = g.min_good_fraction {
                out.push_str(&format!(", min good fraction {f:.2}"));
            }
            if let Some(t) = g.fit_time_trend {
                out.push_str(&format!(", fit-time trend {t:.2}x"));
            }
            out.push('\n');
        }
        if c.failures > 0 || c.retries > 0 || self.stalls > 0 || self.batches > 0 {
            out.push_str(&format!(
                "faults: {} failures, {} retries; stalls {}; batches {}\n",
                c.failures, c.retries, self.stalls, self.batches
            ));
        }
        if self.alerts.is_empty() {
            out.push_str("health: OK\n");
        } else {
            out.push_str(&format!("health: {} alert(s)\n", self.alerts.len()));
            for a in &self.alerts {
                out.push_str(&format!("  [{}] {}\n", a.code, a.message));
            }
        }
        out
    }
}

/// Mutable folding state behind the recorder's mutex.
#[derive(Debug, Default)]
struct DiagState {
    summary: DiagnosticsSummary,
    /// Fit times of the first [`TREND_WINDOW`] fits.
    head_fit_ns: Vec<u64>,
    /// Fit times of the most recent [`TREND_WINDOW`] fits (ring).
    tail_fit_ns: std::collections::VecDeque<u64>,
    /// Latest trial index seen on any event (stamped onto alerts).
    last_iteration: u64,
}

impl DiagState {
    fn consume(&mut self, event: &Event, config: &WatchdogConfig) {
        let s = &mut self.summary;
        match event {
            // Alerts are outputs of this layer; consuming them would
            // double-count on replay of a trace that already carries them.
            Event::HealthAlert(_) => return,
            Event::RunHeader(h) => s.selection.pool_size = h.pool_size,
            Event::IterationStart { iteration, .. } => {
                s.convergence.iterations += 1;
                self.last_iteration = *iteration;
            }
            Event::SurrogateFit {
                iteration,
                n_good,
                n_bad,
                threshold,
                elapsed_ns,
            } => {
                self.last_iteration = *iteration;
                s.surrogate.fits += 1;
                if threshold.is_finite() {
                    if s.surrogate.first_threshold.is_none() {
                        s.surrogate.first_threshold = Some(*threshold);
                    }
                    s.surrogate.last_threshold = Some(*threshold);
                }
                let total = n_good + n_bad;
                if total > 0 {
                    let frac = *n_good as f64 / total as f64;
                    s.surrogate.min_good_fraction = Some(match s.surrogate.min_good_fraction {
                        Some(prev) => prev.min(frac),
                        None => frac,
                    });
                }
                if self.head_fit_ns.len() < TREND_WINDOW {
                    self.head_fit_ns.push(*elapsed_ns);
                }
                if self.tail_fit_ns.len() == TREND_WINDOW {
                    self.tail_fit_ns.pop_front();
                }
                self.tail_fit_ns.push_back(*elapsed_ns);
            }
            Event::SelectionScored {
                iteration,
                candidates,
                best_ei,
                ..
            } => {
                self.last_iteration = *iteration;
                s.selection.selections += 1;
                s.selection.last_candidates = Some(*candidates);
                if best_ei.is_finite() {
                    s.selection.last_ei = Some(*best_ei);
                    s.selection.max_ei = Some(match s.selection.max_ei {
                        Some(prev) => prev.max(*best_ei),
                        None => *best_ei,
                    });
                }
                // Non-finite EI (a degenerate surrogate) counts as low.
                let above_floor = matches!(
                    best_ei.partial_cmp(&config.ei_floor),
                    Some(std::cmp::Ordering::Greater)
                );
                if !above_floor {
                    s.selection.low_ei_streak += 1;
                    s.selection.max_low_ei_streak =
                        s.selection.max_low_ei_streak.max(s.selection.low_ei_streak);
                } else {
                    s.selection.low_ei_streak = 0;
                }
            }
            Event::ObjectiveEvaluated {
                iteration,
                bootstrap,
                ..
            } => {
                self.last_iteration = *iteration;
                s.convergence.evaluations += 1;
                if *bootstrap {
                    s.convergence.bootstrap_evaluations += 1;
                }
                s.convergence.plateau += 1;
                s.convergence.max_plateau = s.convergence.max_plateau.max(s.convergence.plateau);
                if s.selection.pool_size > 0 {
                    s.selection.pool_consumed =
                        Some(s.convergence.evaluations as f64 / s.selection.pool_size as f64);
                }
            }
            Event::TrialFailed { iteration, .. } => {
                self.last_iteration = *iteration;
                s.convergence.failures += 1;
                s.convergence.plateau += 1;
                s.convergence.max_plateau = s.convergence.max_plateau.max(s.convergence.plateau);
            }
            Event::TrialRetried { .. } => s.convergence.retries += 1,
            Event::IncumbentImproved {
                iteration,
                objective,
                previous_best,
            } => {
                self.last_iteration = *iteration;
                s.convergence.improvements += 1;
                s.convergence.best = Some(*objective);
                s.convergence.trajectory.push((*iteration, *objective));
                s.convergence.plateau = 0;
                if let Some(prev) = previous_best {
                    let gap = prev - objective;
                    if gap.is_finite() {
                        s.convergence.last_gap = Some(gap);
                    }
                }
            }
            // Per-repetition totals from the eval runner's stream (which
            // has no per-sample events). Sum and min fold commutatively,
            // so rayon interleaving cannot perturb the summary.
            Event::TrialFinished {
                evaluations, best, ..
            } => {
                s.convergence.evaluations += *evaluations;
                if best.is_finite() {
                    s.convergence.best = Some(match s.convergence.best {
                        Some(prev) => prev.min(*best),
                        None => *best,
                    });
                }
            }
            Event::ProposalStalled { stalls, .. } => s.stalls += *stalls,
            Event::BatchDispatched { iteration, .. } => {
                self.last_iteration = *iteration;
                s.batches += 1;
            }
            _ => {}
        }
        self.watch(config);
    }

    /// Runs every watchdog check against the current state, latching at
    /// most one alert per code.
    fn watch(&mut self, config: &WatchdogConfig) {
        let c = &self.summary.convergence;
        let trials = c.evaluations + c.failures;
        let mut pending: Vec<(&str, String, f64, f64)> = Vec::new();
        if c.plateau >= config.plateau_evaluations && config.plateau_evaluations > 0 {
            pending.push((
                "regret_plateau",
                format!(
                    "no incumbent improvement in {} trials (limit {})",
                    c.plateau, config.plateau_evaluations
                ),
                c.plateau as f64,
                config.plateau_evaluations as f64,
            ));
        }
        if trials >= config.min_trials && trials > 0 {
            let rate = c.failures as f64 / trials as f64;
            if rate > config.max_failure_rate {
                pending.push((
                    "failure_rate",
                    format!(
                        "failure rate {:.1}% exceeds {:.1}% ({}/{} trials)",
                        100.0 * rate,
                        100.0 * config.max_failure_rate,
                        c.failures,
                        trials
                    ),
                    rate,
                    config.max_failure_rate,
                ));
            }
        }
        if self.summary.stalls >= config.stall_burst && config.stall_burst > 0 {
            pending.push((
                "proposal_stalls",
                format!(
                    "{} duplicate-proposal stalls (limit {})",
                    self.summary.stalls, config.stall_burst
                ),
                self.summary.stalls as f64,
                config.stall_burst as f64,
            ));
        }
        let sel = &self.summary.selection;
        if sel.low_ei_streak >= config.ei_burst && config.ei_burst > 0 {
            pending.push((
                "ei_collapse",
                format!(
                    "{} consecutive selections with EI <= {:.4}",
                    sel.low_ei_streak, config.ei_floor
                ),
                sel.low_ei_streak as f64,
                config.ei_floor,
            ));
        }
        if let Some(consumed) = sel.pool_consumed {
            if consumed >= config.pool_exhaustion {
                pending.push((
                    "pool_exhausted",
                    format!(
                        "{:.1}% of the {}-candidate pool consumed (limit {:.1}%)",
                        100.0 * consumed,
                        sel.pool_size,
                        100.0 * config.pool_exhaustion
                    ),
                    consumed,
                    config.pool_exhaustion,
                ));
            }
        }
        for (code, message, value, threshold) in pending {
            if self.summary.alerts.iter().any(|a| a.code == code) {
                continue;
            }
            self.summary.alerts.push(HealthAlert {
                iteration: self.last_iteration,
                code: code.to_string(),
                message,
                value,
                threshold,
            });
        }
    }

    fn finish(&mut self) -> DiagnosticsSummary {
        let mean = |xs: &mut dyn Iterator<Item = u64>| -> Option<f64> {
            let (mut n, mut sum) = (0u64, 0u128);
            for x in xs {
                n += 1;
                sum += x as u128;
            }
            (n > 0).then(|| sum as f64 / n as f64)
        };
        let head = mean(&mut self.head_fit_ns.iter().copied());
        let tail = mean(&mut self.tail_fit_ns.iter().copied());
        self.summary.surrogate.fit_time_trend = match (head, tail) {
            (Some(h), Some(t)) if h > 0.0 => Some(t / h),
            _ => None,
        };
        self.summary.surrogate.threshold_drift = match (
            self.summary.surrogate.first_threshold,
            self.summary.surrogate.last_threshold,
        ) {
            (Some(first), Some(last)) => Some((last - first).abs()),
            _ => None,
        };
        self.summary.clone()
    }
}

/// A [`Recorder`] folding the event stream into a [`DiagnosticsSummary`]
/// with an embedded threshold watchdog. Attach it to the tee next to the
/// JSONL sink; call [`DiagnosticsRecorder::summary`] after the run.
pub struct DiagnosticsRecorder {
    config: WatchdogConfig,
    state: Mutex<DiagState>,
}

impl Default for DiagnosticsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl DiagnosticsRecorder {
    /// Creates a recorder with the default watchdog thresholds.
    pub fn new() -> Self {
        Self::with_config(WatchdogConfig::default())
    }

    /// Creates a recorder with explicit watchdog thresholds.
    pub fn with_config(config: WatchdogConfig) -> Self {
        Self {
            config,
            state: Mutex::new(DiagState::default()),
        }
    }

    /// The watchdog thresholds in effect.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// A snapshot of the full diagnostics (derived fields computed).
    pub fn summary(&self) -> DiagnosticsSummary {
        self.state.lock().finish()
    }

    /// Alerts latched so far, in firing order.
    pub fn alerts(&self) -> Vec<HealthAlert> {
        self.state.lock().summary.alerts.clone()
    }
}

impl Recorder for DiagnosticsRecorder {
    fn record(&self, event: &Event) {
        self.state.lock().consume(event, &self.config);
    }
}

/// Folds an already-collected event slice into a summary — the offline
/// (replay) entry point. Definitionally identical to attaching a
/// [`DiagnosticsRecorder`] live, which is exactly the parity the
/// integration tests pin.
pub fn diagnose_events<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    config: WatchdogConfig,
) -> DiagnosticsSummary {
    let rec = DiagnosticsRecorder::with_config(config);
    for e in events {
        rec.record(e);
    }
    rec.summary()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(iteration: u64, objective: f64, bootstrap: bool) -> Event {
        Event::ObjectiveEvaluated {
            iteration,
            objective,
            bootstrap,
            elapsed_ns: 100,
            config: None,
        }
    }

    fn improve(iteration: u64, objective: f64, previous_best: Option<f64>) -> Event {
        Event::IncumbentImproved {
            iteration,
            objective,
            previous_best,
        }
    }

    #[test]
    fn folds_convergence_and_surrogate_state() {
        let rec = DiagnosticsRecorder::new();
        rec.record(&eval(0, 5.0, true));
        rec.record(&improve(0, 5.0, None));
        rec.record(&Event::IterationStart {
            iteration: 1,
            history_len: 1,
        });
        rec.record(&Event::SurrogateFit {
            iteration: 1,
            n_good: 1,
            n_bad: 4,
            threshold: 4.0,
            elapsed_ns: 1_000,
        });
        rec.record(&Event::SelectionScored {
            iteration: 1,
            candidates: 20,
            best_ei: 0.8,
            elapsed_ns: 500,
        });
        rec.record(&eval(1, 3.0, false));
        rec.record(&improve(1, 3.0, Some(5.0)));
        let s = rec.summary();
        assert_eq!(s.convergence.evaluations, 2);
        assert_eq!(s.convergence.bootstrap_evaluations, 1);
        assert_eq!(s.convergence.improvements, 2);
        assert_eq!(s.convergence.best, Some(3.0));
        assert_eq!(s.convergence.trajectory, vec![(0, 5.0), (1, 3.0)]);
        assert_eq!(s.convergence.last_gap, Some(2.0));
        assert_eq!(s.convergence.plateau, 0);
        assert_eq!(s.convergence.max_plateau, 1);
        assert_eq!(s.surrogate.fits, 1);
        assert_eq!(s.surrogate.first_threshold, Some(4.0));
        assert_eq!(s.surrogate.threshold_drift, Some(0.0));
        assert_eq!(s.surrogate.min_good_fraction, Some(0.2));
        assert_eq!(s.selection.last_ei, Some(0.8));
        assert_eq!(s.selection.low_ei_streak, 0);
        assert!(s.healthy());
        let rendered = s.render();
        assert!(rendered.contains("best 3.000000"), "{rendered}");
        assert!(rendered.contains("health: OK"), "{rendered}");
    }

    #[test]
    fn trial_finished_totals_fold_commutatively() {
        let finished = |rep: u64, evaluations: u64, best: f64| Event::TrialFinished {
            rep,
            seed: rep,
            method: "X".into(),
            evaluations,
            best,
            elapsed_ns: 10,
        };
        let forward = diagnose_events(
            &[finished(0, 20, 5.0), finished(1, 20, 3.5)],
            WatchdogConfig::default(),
        );
        let reversed = diagnose_events(
            &[finished(1, 20, 3.5), finished(0, 20, 5.0)],
            WatchdogConfig::default(),
        );
        assert_eq!(forward, reversed);
        assert_eq!(forward.convergence.evaluations, 40);
        assert_eq!(forward.convergence.best, Some(3.5));
        assert_eq!(forward.convergence.plateau, 0);
    }

    #[test]
    fn failure_rate_alert_is_latched_once() {
        let config = WatchdogConfig {
            min_trials: 4,
            max_failure_rate: 0.25,
            ..WatchdogConfig::default()
        };
        let rec = DiagnosticsRecorder::with_config(config);
        rec.record(&eval(0, 1.0, true));
        rec.record(&improve(0, 1.0, None));
        for i in 1..6 {
            rec.record(&Event::TrialFailed {
                iteration: i,
                reason: "crash".into(),
                elapsed_ns: 10,
                config: None,
            });
        }
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].code, "failure_rate");
        // 3 failures out of 4 trials when it first crossed.
        assert_eq!(alerts[0].value, 0.75);
        assert!(!rec.summary().healthy());
    }

    #[test]
    fn plateau_alert_fires_and_improvement_resets_the_counter() {
        let config = WatchdogConfig {
            plateau_evaluations: 3,
            ..WatchdogConfig::default()
        };
        let rec = DiagnosticsRecorder::with_config(config);
        rec.record(&eval(0, 1.0, true));
        rec.record(&improve(0, 1.0, None));
        rec.record(&eval(1, 2.0, false));
        rec.record(&eval(2, 2.0, false));
        assert!(rec.alerts().is_empty());
        rec.record(&eval(3, 2.0, false));
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].code, "regret_plateau");
        assert_eq!(alerts[0].iteration, 3);
        rec.record(&improve(4, 0.5, Some(1.0)));
        assert_eq!(rec.summary().convergence.plateau, 0);
    }

    #[test]
    fn ei_collapse_and_pool_exhaustion_alerts() {
        let config = WatchdogConfig {
            ei_burst: 2,
            pool_exhaustion: 0.5,
            ..WatchdogConfig::default()
        };
        let rec = DiagnosticsRecorder::with_config(config);
        rec.record(&Event::RunHeader(crate::event::RunHeader {
            version: "0".into(),
            seed: 0,
            space_fingerprint: "f".into(),
            n_params: 1,
            pool_size: 4,
            options: String::new(),
        }));
        for i in 0..2 {
            rec.record(&Event::SelectionScored {
                iteration: i,
                candidates: 4,
                best_ei: -0.1,
                elapsed_ns: 10,
            });
        }
        rec.record(&eval(0, 1.0, false));
        rec.record(&eval(1, 1.0, false));
        let codes: Vec<String> = rec.alerts().iter().map(|a| a.code.clone()).collect();
        assert!(codes.contains(&"ei_collapse".to_string()), "{codes:?}");
        assert!(codes.contains(&"pool_exhausted".to_string()), "{codes:?}");
        let s = rec.summary();
        assert_eq!(s.selection.pool_consumed, Some(0.5));
        assert_eq!(s.selection.max_low_ei_streak, 2);
    }

    #[test]
    fn health_alert_inputs_are_ignored() {
        let rec = DiagnosticsRecorder::new();
        rec.record(&Event::HealthAlert(HealthAlert {
            iteration: 1,
            code: "failure_rate".into(),
            message: "from a previous pass".into(),
            value: 1.0,
            threshold: 0.25,
        }));
        let s = rec.summary();
        assert_eq!(s, DiagnosticsSummary::default());
        assert!(s.healthy());
    }

    #[test]
    fn replaying_the_same_events_reproduces_the_summary() {
        let events = vec![
            eval(0, 5.0, true),
            improve(0, 5.0, None),
            Event::SurrogateFit {
                iteration: 1,
                n_good: 1,
                n_bad: 1,
                threshold: 5.0,
                elapsed_ns: 2_000,
            },
            Event::SelectionScored {
                iteration: 1,
                candidates: 10,
                best_ei: 0.4,
                elapsed_ns: 300,
            },
            eval(1, 4.0, false),
            improve(1, 4.0, Some(5.0)),
            Event::ProposalStalled {
                iteration: 2,
                stalls: 3,
            },
            Event::RunFinished {
                evaluations: 2,
                best_objective: 4.0,
            },
        ];
        let live = DiagnosticsRecorder::new();
        for e in &events {
            live.record(e);
        }
        let replayed = diagnose_events(&events, WatchdogConfig::default());
        assert_eq!(live.summary(), replayed);
        assert_eq!(replayed.stalls, 3);
    }

    #[test]
    fn fit_time_trend_compares_head_and_tail_windows() {
        let rec = DiagnosticsRecorder::new();
        for i in 0..TREND_WINDOW as u64 {
            rec.record(&Event::SurrogateFit {
                iteration: i,
                n_good: 1,
                n_bad: 1,
                threshold: 1.0,
                elapsed_ns: 1_000,
            });
        }
        for i in 0..TREND_WINDOW as u64 {
            rec.record(&Event::SurrogateFit {
                iteration: TREND_WINDOW as u64 + i,
                n_good: 1,
                n_bad: 1,
                threshold: 2.0,
                elapsed_ns: 3_000,
            });
        }
        let s = rec.summary();
        assert_eq!(s.surrogate.fit_time_trend, Some(3.0));
        assert_eq!(s.surrogate.threshold_drift, Some(1.0));
    }

    #[test]
    fn summary_serializes_round_trip() {
        let rec = DiagnosticsRecorder::new();
        rec.record(&eval(0, 1.5, true));
        rec.record(&improve(0, 1.5, None));
        let s = rec.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: DiagnosticsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
