//! The typed trace-event schema shared by every instrumented component.
//!
//! Events serialize with serde's externally-tagged representation, so one
//! JSONL line looks like `{"SurrogateFit":{"iteration":23,...}}`. The
//! variant name is the single object key, which makes `jq` filtering
//! trivial (`jq 'select(.SurrogateFit)'`) and keeps the schema
//! forward-extensible: later subsystems (sharded tuning, fault injection)
//! add variants without disturbing existing consumers, and unknown
//! variants fail loudly at parse time instead of being silently dropped.

use hiperbot_space::{Configuration, Domain, ParameterSpace};
use serde::{Deserialize, Serialize};

/// Self-describing metadata stamped at the start of a traced run and
/// surfaced verbatim in `eval::report` figure reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHeader {
    /// Crate version that produced the trace.
    pub version: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Stable fingerprint of the parameter space (names, domains,
    /// constraint count) — see [`space_fingerprint`].
    pub space_fingerprint: String,
    /// Number of parameters in the space.
    pub n_params: u64,
    /// Size of the enumerable pool (0 when the space is continuous).
    pub pool_size: u64,
    /// Human-readable option summary (alpha, init samples, strategy, …).
    pub options: String,
}

impl RunHeader {
    /// Builds a header for `space` with the ambient crate version.
    pub fn new(space: &ParameterSpace, seed: u64, options: impl Into<String>) -> Self {
        Self {
            version: env!("CARGO_PKG_VERSION").to_string(),
            seed,
            space_fingerprint: space_fingerprint(space),
            n_params: space.n_params() as u64,
            pool_size: space.product_cardinality().unwrap_or(0) as u64,
            options: options.into(),
        }
    }
}

/// One watchdog finding: a diagnostics threshold was crossed during a
/// run. Produced by the `diag` module's watchdog and re-emitted into the
/// event stream as [`Event::HealthAlert`], so traces are self-describing
/// about run health and `--strict-health` has a machine-readable basis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthAlert {
    /// Trial index when the threshold was crossed.
    pub iteration: u64,
    /// Stable alert code (`regret_plateau`, `failure_rate`,
    /// `proposal_stalls`, `ei_collapse`, `pool_exhausted`).
    pub code: String,
    /// Human-readable explanation with the observed value.
    pub message: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
}

/// One structured trace event. Field units: `elapsed_ns` is wall-clock
/// nanoseconds, `iteration` is the evaluation index the event belongs to
/// (i.e. the history length when it fired).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Run metadata, emitted once before any other event of a run.
    RunHeader(RunHeader),
    /// A model-driven tuner iteration is starting.
    IterationStart {
        /// Evaluation index about to be spent.
        iteration: u64,
        /// Observations accumulated so far.
        history_len: u64,
    },
    /// The TPE surrogate was refit on the current history.
    SurrogateFit {
        /// Evaluation index this fit serves.
        iteration: u64,
        /// Observations classified good (≤ α-quantile).
        n_good: u64,
        /// Observations classified bad.
        n_bad: u64,
        /// The good/bad objective threshold `y(τ)`.
        threshold: f64,
        /// Fit wall time.
        elapsed_ns: u64,
    },
    /// Candidate selection ran (Ranking argmax or Proposal sampling).
    SelectionScored {
        /// Evaluation index this selection serves.
        iteration: u64,
        /// Candidates considered (pool size for Ranking; total draw
        /// count for Proposal, redraw rounds included).
        candidates: u64,
        /// Winning candidate's EI score (log density ratio). For
        /// Proposal this is the selection engine's own score, reused
        /// rather than recomputed.
        best_ei: f64,
        /// Selection wall time.
        elapsed_ns: u64,
    },
    /// The true objective was evaluated on one configuration.
    ObjectiveEvaluated {
        /// Evaluation index (history length before the push).
        iteration: u64,
        /// Measured objective value.
        objective: f64,
        /// Whether this evaluation belongs to the bootstrap phase.
        bootstrap: bool,
        /// Objective wall time.
        elapsed_ns: u64,
        /// The configuration that was evaluated. `None` on traces written
        /// before this field existed; when present, the trace alone
        /// reconstructs the observation history (`resume_from_trace`).
        #[serde(default)]
        config: Option<Configuration>,
    },
    /// An objective evaluation failed permanently (every retry exhausted,
    /// or none allowed). The configuration is quarantined as bad evidence
    /// and never enters the observation history.
    TrialFailed {
        /// Trial index (history length + failures when the trial started).
        iteration: u64,
        /// Why the final attempt failed (`"timeout"` or a crash reason).
        reason: String,
        /// Wall time across all attempts of the trial.
        elapsed_ns: u64,
        /// The configuration that failed. `None` on traces written before
        /// this field existed; when present, trace-based resume can
        /// re-quarantine the failure.
        #[serde(default)]
        config: Option<Configuration>,
    },
    /// An objective evaluation attempt failed and is about to be retried.
    TrialRetried {
        /// Trial index the retry belongs to.
        iteration: u64,
        /// The attempt that just failed (0-based), i.e. attempt+1 is next.
        attempt: u64,
        /// Backoff delay scheduled before the next attempt.
        backoff_ns: u64,
        /// Why the attempt failed.
        reason: String,
    },
    /// A batch of suggested configurations was handed to the evaluation
    /// executor (constant-liar batch stepping only; serial runs never emit
    /// this).
    BatchDispatched {
        /// Trial index of the first configuration in the batch.
        iteration: u64,
        /// Number of configurations dispatched.
        batch: u64,
    },
    /// A dispatched batch finished evaluating and its real outcomes were
    /// merged back into the history in suggestion order (fantasy
    /// observations evicted).
    BatchMerged {
        /// Trial index of the first configuration in the batch.
        iteration: u64,
        /// Number of configurations in the batch.
        batch: u64,
        /// Successful evaluations merged.
        ok: u64,
        /// Permanently failed evaluations quarantined.
        failed: u64,
        /// Wall time of the whole batch evaluation.
        elapsed_ns: u64,
    },
    /// Proposal-mode duplicate suggestions stalled iterations without
    /// consuming budget. Emitted once at the end of a run that saw any
    /// stalls, with the total count.
    ProposalStalled {
        /// Trial index when the run ended.
        iteration: u64,
        /// Total stalled iterations over the run.
        stalls: u64,
    },
    /// The best-so-far objective improved.
    IncumbentImproved {
        /// Evaluation index of the improving observation.
        iteration: u64,
        /// The new incumbent objective.
        objective: f64,
        /// The incumbent being displaced (`None` on the first finite
        /// observation of a run, and on traces written before this field
        /// existed). `previous_best - objective` is the improvement gap
        /// the diagnostics layer folds into its convergence analytics.
        #[serde(default)]
        previous_best: Option<f64>,
    },
    /// A tuning run completed.
    RunFinished {
        /// Total evaluations spent.
        evaluations: u64,
        /// Best objective found.
        best_objective: f64,
    },
    /// One GEIST CAMLP label-propagation round completed.
    PropagationRound {
        /// Round index (0-based, post-bootstrap).
        round: u64,
        /// Nodes carrying real labels when the round ran.
        labeled: u64,
        /// Graph size (pool nodes).
        pool: u64,
        /// Propagation wall time.
        elapsed_ns: u64,
    },
    /// One repetition of the repeated-trial eval protocol is starting.
    TrialStart {
        /// Repetition index.
        rep: u64,
        /// Derived per-repetition seed.
        seed: u64,
        /// Method display name.
        method: String,
    },
    /// One repetition of the repeated-trial eval protocol finished.
    TrialFinished {
        /// Repetition index.
        rep: u64,
        /// Derived per-repetition seed.
        seed: u64,
        /// Method display name.
        method: String,
        /// Evaluations spent.
        evaluations: u64,
        /// Best objective in the trace.
        best: f64,
        /// Whole-trial wall time.
        elapsed_ns: u64,
    },
    /// Metrics recorded at one sample-size checkpoint of a trial.
    CheckpointRecorded {
        /// Repetition index.
        rep: u64,
        /// The sample budget of this checkpoint.
        samples: u64,
        /// Best objective within the checkpoint prefix.
        best: f64,
        /// Recall within the checkpoint prefix.
        recall: f64,
    },
    /// The diagnostics watchdog crossed a health threshold (see
    /// [`HealthAlert`]). Consumers deriving analytics from the stream
    /// ignore this variant — it is an *output* of the diagnostics layer,
    /// appended so traces self-describe their health verdict.
    HealthAlert(HealthAlert),
    /// A tuner checkpoint snapshot was persisted. Deliberately carries no
    /// filesystem path or byte size: its payload must be identical across
    /// runs that follow the same trajectory, so checkpointed traces stay
    /// diffable against each other.
    CheckpointWritten {
        /// Total trials (observations + quarantined failures) captured.
        trials: u64,
        /// Successful observations captured.
        observations: u64,
        /// Quarantined failures captured.
        failures: u64,
    },
    /// A run was restored from persisted state instead of starting fresh.
    /// Emitted once, right after the [`RunHeader`] of the resumed run.
    RunResumed {
        /// Total trials (observations + failures) restored.
        trials: u64,
        /// Successful observations restored.
        observations: u64,
        /// Quarantined failures restored.
        failures: u64,
        /// Where the state came from: `"snapshot"` or `"trace"`.
        source: String,
    },
}

/// Event verbosity classes for log filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is logged.
    Off,
    /// Run lifecycle and incumbent improvements.
    Info,
    /// Every event.
    Debug,
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown log level '{other}' (off|info|debug)")),
        }
    }
}

impl Event {
    /// The verbosity class this event belongs to.
    pub fn level(&self) -> Level {
        match self {
            Event::RunHeader(_)
            | Event::IncumbentImproved { .. }
            | Event::TrialFailed { .. }
            | Event::ProposalStalled { .. }
            | Event::RunFinished { .. }
            | Event::TrialFinished { .. }
            | Event::RunResumed { .. }
            | Event::HealthAlert(_) => Level::Info,
            _ => Level::Debug,
        }
    }

    /// The metrics phase this event's latency belongs to, if it carries one.
    pub fn phase(&self) -> Option<(&'static str, u64)> {
        match self {
            Event::SurrogateFit { elapsed_ns, .. } => Some(("tuner.fit", *elapsed_ns)),
            Event::SelectionScored { elapsed_ns, .. } => Some(("tuner.select", *elapsed_ns)),
            Event::ObjectiveEvaluated { elapsed_ns, .. } => Some(("tuner.evaluate", *elapsed_ns)),
            Event::BatchMerged { elapsed_ns, .. } => Some(("tuner.batch", *elapsed_ns)),
            Event::PropagationRound { elapsed_ns, .. } => Some(("geist.propagate", *elapsed_ns)),
            Event::TrialFinished { elapsed_ns, .. } => Some(("eval.trial", *elapsed_ns)),
            _ => None,
        }
    }

    /// A compact single-line rendering for stderr logging.
    pub fn render_line(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        match self {
            Event::RunHeader(h) => format!(
                "run v{} seed={} space={} ({} params, pool {}) {}",
                h.version, h.seed, h.space_fingerprint, h.n_params, h.pool_size, h.options
            ),
            Event::IterationStart { iteration, .. } => format!("iter {iteration} start"),
            Event::SurrogateFit {
                iteration,
                n_good,
                n_bad,
                threshold,
                elapsed_ns,
            } => format!(
                "iter {iteration} fit good={n_good} bad={n_bad} threshold={threshold:.4} ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::SelectionScored {
                iteration,
                candidates,
                best_ei,
                elapsed_ns,
            } => format!(
                "iter {iteration} select candidates={candidates} best_ei={best_ei:.4} ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::ObjectiveEvaluated {
                iteration,
                objective,
                bootstrap,
                elapsed_ns,
                ..
            } => format!(
                "iter {iteration} evaluate{} -> {objective:.6} ({:.3} ms)",
                if *bootstrap { " [bootstrap]" } else { "" },
                ms(*elapsed_ns)
            ),
            Event::TrialFailed {
                iteration,
                reason,
                elapsed_ns,
                ..
            } => format!(
                "iter {iteration} evaluate FAILED: {reason} ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::TrialRetried {
                iteration,
                attempt,
                backoff_ns,
                reason,
            } => format!(
                "iter {iteration} attempt {attempt} failed ({reason}), retrying after {:.3} ms",
                ms(*backoff_ns)
            ),
            Event::BatchDispatched { iteration, batch } => {
                format!("iter {iteration} dispatch batch of {batch}")
            }
            Event::BatchMerged {
                iteration,
                batch,
                ok,
                failed,
                elapsed_ns,
            } => format!(
                "iter {iteration} merged batch of {batch}: {ok} ok, {failed} failed ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::ProposalStalled { iteration, stalls } => {
                format!("iter {iteration} proposal stalled {stalls} times on duplicates")
            }
            Event::IncumbentImproved {
                iteration,
                objective,
                previous_best,
            } => match previous_best {
                Some(prev) => format!(
                    "iter {iteration} incumbent -> {objective:.6} (gap {:.6})",
                    prev - objective
                ),
                None => format!("iter {iteration} incumbent -> {objective:.6}"),
            },
            Event::RunFinished {
                evaluations,
                best_objective,
            } => format!("run finished: best {best_objective:.6} in {evaluations} evaluations"),
            Event::PropagationRound {
                round,
                labeled,
                pool,
                elapsed_ns,
            } => format!(
                "geist round {round} labeled={labeled}/{pool} ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::TrialStart { rep, seed, method } => {
                format!("trial {rep} ({method}, seed {seed}) start")
            }
            Event::TrialFinished {
                rep,
                method,
                evaluations,
                best,
                elapsed_ns,
                ..
            } => format!(
                "trial {rep} ({method}): best {best:.6} in {evaluations} evals ({:.3} ms)",
                ms(*elapsed_ns)
            ),
            Event::CheckpointRecorded {
                rep,
                samples,
                best,
                recall,
            } => format!("trial {rep} checkpoint n={samples} best={best:.6} recall={recall:.4}"),
            Event::HealthAlert(a) => format!(
                "iter {} HEALTH [{}] {} (value {:.4}, threshold {:.4})",
                a.iteration, a.code, a.message, a.value, a.threshold
            ),
            Event::CheckpointWritten {
                trials,
                observations,
                failures,
            } => format!(
                "checkpoint written at trial {trials} ({observations} observations, {failures} failures)"
            ),
            Event::RunResumed {
                trials,
                observations,
                failures,
                source,
            } => format!(
                "run resumed from {source} at trial {trials} ({observations} observations, {failures} failures)"
            ),
        }
    }
}

/// A stable content fingerprint of a parameter space: hashes parameter
/// names, domain contents, and the constraint count, rendered as 16 hex
/// digits. Two traces with equal fingerprints were produced over
/// structurally identical spaces, which is what makes a trace
/// self-describing enough to compare across runs.
pub fn space_fingerprint(space: &ParameterSpace) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    space.n_params().hash(&mut h);
    for def in space.params() {
        def.name().hash(&mut h);
        match def.domain() {
            Domain::Discrete(values) => {
                1u8.hash(&mut h);
                values.len().hash(&mut h);
                for v in values {
                    v.to_string().hash(&mut h);
                }
            }
            Domain::Continuous { lo, hi } => {
                2u8.hash(&mut h);
                lo.to_bits().hash(&mut h);
                hi.to_bits().hash(&mut h);
            }
        }
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{ParamDef, ParameterSpace};

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&[1, 2, 4])))
            .param(ParamDef::new("a", Domain::continuous(0.0, 1.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::RunHeader(RunHeader::new(&space(), 7, "alpha=0.2")),
            Event::IterationStart {
                iteration: 3,
                history_len: 3,
            },
            Event::SurrogateFit {
                iteration: 3,
                n_good: 1,
                n_bad: 2,
                threshold: 1.5,
                elapsed_ns: 12345,
            },
            Event::SelectionScored {
                iteration: 3,
                candidates: 100,
                best_ei: -0.25,
                elapsed_ns: 999,
            },
            Event::ObjectiveEvaluated {
                iteration: 3,
                objective: 2.5,
                bootstrap: false,
                elapsed_ns: 88,
                config: Some(Configuration::from_indices(&[1, 0])),
            },
            Event::ObjectiveEvaluated {
                iteration: 3,
                objective: 2.5,
                bootstrap: false,
                elapsed_ns: 88,
                config: None,
            },
            Event::TrialFailed {
                iteration: 4,
                reason: "crash".into(),
                elapsed_ns: 1234,
                config: Some(Configuration::from_indices(&[2, 1])),
            },
            Event::TrialFailed {
                iteration: 4,
                reason: "crash".into(),
                elapsed_ns: 1234,
                config: None,
            },
            Event::TrialRetried {
                iteration: 4,
                attempt: 0,
                backoff_ns: 500_000,
                reason: "timeout".into(),
            },
            Event::BatchDispatched {
                iteration: 8,
                batch: 4,
            },
            Event::BatchMerged {
                iteration: 8,
                batch: 4,
                ok: 3,
                failed: 1,
                elapsed_ns: 9001,
            },
            Event::ProposalStalled {
                iteration: 40,
                stalls: 17,
            },
            Event::IncumbentImproved {
                iteration: 3,
                objective: 2.5,
                previous_best: Some(3.0),
            },
            Event::IncumbentImproved {
                iteration: 0,
                objective: 9.0,
                previous_best: None,
            },
            Event::RunFinished {
                evaluations: 40,
                best_objective: 1.0,
            },
            Event::PropagationRound {
                round: 2,
                labeled: 30,
                pool: 100,
                elapsed_ns: 777,
            },
            Event::TrialStart {
                rep: 1,
                seed: 99,
                method: "GEIST".into(),
            },
            Event::TrialFinished {
                rep: 1,
                seed: 99,
                method: "GEIST".into(),
                evaluations: 50,
                best: 1.25,
                elapsed_ns: 4242,
            },
            Event::CheckpointRecorded {
                rep: 1,
                samples: 32,
                best: 1.25,
                recall: 0.5,
            },
            Event::HealthAlert(HealthAlert {
                iteration: 33,
                code: "failure_rate".into(),
                message: "failure rate 30.0% exceeds 25.0%".into(),
                value: 0.3,
                threshold: 0.25,
            }),
            Event::CheckpointWritten {
                trials: 25,
                observations: 22,
                failures: 3,
            },
            Event::RunResumed {
                trials: 25,
                observations: 22,
                failures: 3,
                source: "snapshot".into(),
            },
        ];
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e, "round trip failed for {json}");
        }
    }

    #[test]
    fn incumbent_events_without_gap_context_still_parse() {
        // Traces written before `previous_best` existed omit the field;
        // they must keep deserializing (the field defaults to None).
        let old = r#"{"IncumbentImproved":{"iteration":5,"objective":2.5}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        assert_eq!(
            e,
            Event::IncumbentImproved {
                iteration: 5,
                objective: 2.5,
                previous_best: None,
            }
        );
    }

    #[test]
    fn trial_events_without_configs_still_parse() {
        // Traces written before `config` existed omit the field; they must
        // keep deserializing (the field defaults to None).
        let old_eval = r#"{"ObjectiveEvaluated":{"iteration":5,"objective":2.5,"bootstrap":false,"elapsed_ns":9}}"#;
        let e: Event = serde_json::from_str(old_eval).unwrap();
        assert!(matches!(e, Event::ObjectiveEvaluated { config: None, .. }));
        let old_fail = r#"{"TrialFailed":{"iteration":5,"reason":"crash","elapsed_ns":9}}"#;
        let e: Event = serde_json::from_str(old_fail).unwrap();
        assert!(matches!(e, Event::TrialFailed { config: None, .. }));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = space_fingerprint(&space());
        let b = space_fingerprint(&space());
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let other = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&[1, 2, 8])))
            .param(ParamDef::new("a", Domain::continuous(0.0, 1.0)))
            .build()
            .unwrap();
        assert_ne!(a, space_fingerprint(&other));
    }

    #[test]
    fn header_captures_the_space_shape() {
        let h = RunHeader::new(&space(), 11, "opts");
        assert_eq!(h.seed, 11);
        assert_eq!(h.n_params, 2);
        assert_eq!(h.pool_size, 0, "continuous space has no enumerable pool");
        let discrete = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&[1, 2, 4])))
            .build()
            .unwrap();
        assert_eq!(RunHeader::new(&discrete, 0, "").pool_size, 3);
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Off < Level::Info && Level::Info < Level::Debug);
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn phase_latencies_are_exposed() {
        let e = Event::SurrogateFit {
            iteration: 0,
            n_good: 1,
            n_bad: 1,
            threshold: 0.0,
            elapsed_ns: 42,
        };
        assert_eq!(e.phase(), Some(("tuner.fit", 42)));
        assert_eq!(
            Event::IterationStart {
                iteration: 0,
                history_len: 0
            }
            .phase(),
            None
        );
    }
}
