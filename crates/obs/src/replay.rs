//! Offline trace replay: turn a JSONL trace back into convergence and
//! latency summaries without re-running the tuner.
//!
//! The replay path reuses [`MetricsRecorder`](crate::metrics::MetricsRecorder)'s
//! event-to-phase mapping via [`Event::phase`], so the latency table printed
//! here is definitionally consistent with a live `--metrics-summary`.

use crate::diag::{DiagnosticsRecorder, DiagnosticsSummary, WatchdogConfig};
use crate::event::{Event, RunHeader};
use crate::metrics::{format_ns, MetricsRecorder, MetricsRegistry};
use crate::profile::SpanProfile;
use std::sync::Arc;

/// Everything recoverable from one JSONL trace.
#[derive(Debug)]
pub struct TraceSummary {
    /// The run header, when the trace carries one.
    pub header: Option<RunHeader>,
    /// Total parsed events.
    pub events: u64,
    /// Malformed lines skipped (always 0 outside lenient mode).
    pub skipped_lines: u64,
    /// Model-driven iterations observed.
    pub iterations: u64,
    /// Objective evaluations observed (bootstrap + model).
    pub evaluations: u64,
    /// Permanently failed trials observed (`TrialFailed` events).
    pub failures: u64,
    /// Retry attempts observed (`TrialRetried` events).
    pub retries: u64,
    /// `(iteration, objective)` pairs at each incumbent improvement, in
    /// trace order — the convergence trajectory.
    pub incumbent_trajectory: Vec<(u64, f64)>,
    /// Best objective reported by `RunFinished`, falling back to the last
    /// incumbent improvement.
    pub final_best: Option<f64>,
    /// Latency metrics folded from the event stream.
    pub registry: Arc<MetricsRegistry>,
    /// Convergence/health diagnostics recomputed from the stream —
    /// identical to what an online [`DiagnosticsRecorder`] produced.
    pub diagnostics: DiagnosticsSummary,
    /// Span-tree profile recomputed from the stream.
    pub profile: SpanProfile,
}

/// Parses a JSONL trace (one [`Event`] object per line) into a
/// [`TraceSummary`]. Blank lines are skipped; a malformed line is a hard
/// error naming its line number, because a trace that half-parses is
/// worse than no trace.
pub fn summarize_trace(text: &str) -> Result<TraceSummary, String> {
    summarize_trace_with(text, false)
}

/// [`summarize_trace`] with an explicit corruption policy: `lenient`
/// skips (and counts) malformed lines instead of erroring, the escape
/// hatch for salvaging a truncated or partially-corrupted trace.
pub fn summarize_trace_with(text: &str, lenient: bool) -> Result<TraceSummary, String> {
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = MetricsRecorder::new(registry.clone());
    let diag = DiagnosticsRecorder::with_config(WatchdogConfig::default());
    let mut profile = SpanProfile::new();

    let mut summary = TraceSummary {
        header: None,
        events: 0,
        skipped_lines: 0,
        iterations: 0,
        evaluations: 0,
        failures: 0,
        retries: 0,
        incumbent_trajectory: Vec::new(),
        final_best: None,
        registry,
        diagnostics: DiagnosticsSummary::default(),
        profile: SpanProfile::new(),
    };

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Event = match serde_json::from_str(line) {
            Ok(event) => event,
            Err(_) if lenient => {
                summary.skipped_lines += 1;
                continue;
            }
            Err(e) => {
                return Err(format!("line {}: invalid trace event: {e}", lineno + 1));
            }
        };
        summary.events += 1;
        crate::recorder::Recorder::record(&metrics, &event);
        crate::recorder::Recorder::record(&diag, &event);
        profile.consume(&event);
        match &event {
            Event::RunHeader(h) => summary.header = Some(h.clone()),
            Event::IterationStart { .. } => summary.iterations += 1,
            Event::ObjectiveEvaluated { .. } => summary.evaluations += 1,
            Event::TrialFailed { .. } => summary.failures += 1,
            Event::TrialRetried { .. } => summary.retries += 1,
            Event::IncumbentImproved {
                iteration,
                objective,
                ..
            } => {
                summary.incumbent_trajectory.push((*iteration, *objective));
                summary.final_best = Some(*objective);
            }
            Event::RunFinished { best_objective, .. } => {
                summary.final_best = Some(*best_objective);
            }
            _ => {}
        }
    }
    summary.diagnostics = diag.summary();
    summary.profile = profile;
    Ok(summary)
}

impl TraceSummary {
    /// Renders the replay report: header, convergence trajectory, and the
    /// per-phase latency table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.header {
            Some(h) => out.push_str(&format!(
                "trace: v{} seed={} space={} ({} params, pool {})\n  options: {}\n",
                h.version, h.seed, h.space_fingerprint, h.n_params, h.pool_size, h.options
            )),
            None => out.push_str("trace: (no run header)\n"),
        }
        out.push_str(&format!(
            "events: {}  iterations: {}  evaluations: {}\n",
            self.events, self.iterations, self.evaluations
        ));
        if self.skipped_lines > 0 {
            out.push_str(&format!(
                "skipped {} malformed line(s) (lenient mode)\n",
                self.skipped_lines
            ));
        }
        if self.failures > 0 || self.retries > 0 {
            out.push_str(&format!(
                "failed trials: {}  retries: {}\n",
                self.failures, self.retries
            ));
        }
        if let Some(best) = self.final_best {
            out.push_str(&format!("best objective: {best:.6}\n"));
        }
        if !self.incumbent_trajectory.is_empty() {
            out.push_str("\nconvergence (iteration -> incumbent):\n");
            for (it, obj) in &self.incumbent_trajectory {
                out.push_str(&format!("  {it:>6}  {obj:.6}\n"));
            }
        }
        let table = self.registry.render_summary();
        if !table.is_empty() {
            out.push_str("\nlatency by phase:\n");
            out.push_str(&table);
        }
        out
    }

    /// Compact per-phase p50 latencies, for programmatic consumers.
    pub fn phase_p50s(&self) -> Vec<(String, String)> {
        self.registry
            .histograms()
            .iter()
            .filter_map(|(name, h)| h.quantile(0.5).map(|p50| (name.clone(), format_ns(p50))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_text() -> String {
        let events = [
            Event::IterationStart {
                iteration: 2,
                history_len: 2,
            },
            Event::SurrogateFit {
                iteration: 2,
                n_good: 1,
                n_bad: 1,
                threshold: 3.0,
                elapsed_ns: 1_000,
            },
            Event::SelectionScored {
                iteration: 2,
                candidates: 9,
                best_ei: 0.5,
                elapsed_ns: 2_000,
            },
            Event::ObjectiveEvaluated {
                iteration: 2,
                objective: 2.0,
                bootstrap: false,
                elapsed_ns: 500,
                config: None,
            },
            Event::IncumbentImproved {
                iteration: 2,
                objective: 2.0,
                previous_best: Some(3.5),
            },
            Event::RunFinished {
                evaluations: 3,
                best_objective: 2.0,
            },
        ];
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn summarizes_a_well_formed_trace() {
        let s = summarize_trace(&trace_text()).unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.evaluations, 1);
        assert_eq!(s.incumbent_trajectory, vec![(2, 2.0)]);
        assert_eq!(s.final_best, Some(2.0));
        assert_eq!(s.registry.histogram("tuner.fit").unwrap().count(), 1);
        assert_eq!(s.registry.histogram("tuner.select").unwrap().count(), 1);
        let rendered = s.render();
        assert!(rendered.contains("best objective: 2.000000"), "{rendered}");
        assert!(rendered.contains("tuner.fit"), "{rendered}");
    }

    #[test]
    fn failures_and_retries_are_counted() {
        let extra = [
            Event::TrialRetried {
                iteration: 3,
                attempt: 0,
                backoff_ns: 1_000,
                reason: "crash".into(),
            },
            Event::TrialFailed {
                iteration: 3,
                reason: "crash".into(),
                elapsed_ns: 2_000,
                config: None,
            },
        ]
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect::<Vec<_>>()
        .join("\n");
        let s = summarize_trace(&format!("{}\n{extra}", trace_text())).unwrap();
        assert_eq!(s.failures, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.registry.counter("tuner.evaluations.failed"), 1);
        let rendered = s.render();
        assert!(
            rendered.contains("failed trials: 1  retries: 1"),
            "{rendered}"
        );
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_is_an_error() {
        let ok = format!("\n{}\n\n", trace_text());
        assert_eq!(summarize_trace(&ok).unwrap().events, 6);
        let bad = format!("{}\nnot json\n", trace_text());
        let err = summarize_trace(&bad).unwrap_err();
        assert!(err.contains("line 7"), "{err}");
    }

    #[test]
    fn lenient_mode_skips_and_counts_malformed_lines() {
        let bad = format!("corrupt\n{}\n{{\"half\":\n", trace_text());
        let s = summarize_trace_with(&bad, true).unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.skipped_lines, 2);
        assert!(s.render().contains("skipped 2 malformed line(s)"));
        // Strict mode still refuses the same text.
        assert!(summarize_trace(&bad).is_err());
    }

    #[test]
    fn replay_recomputes_diagnostics_and_profile() {
        let s = summarize_trace(&trace_text()).unwrap();
        assert_eq!(s.diagnostics.convergence.evaluations, 1);
        assert_eq!(s.diagnostics.convergence.improvements, 1);
        assert_eq!(s.diagnostics.convergence.last_gap, Some(1.5));
        assert_eq!(s.diagnostics.surrogate.fits, 1);
        assert!(s.profile.nodes().contains_key("run;tuner.fit"));
        assert!(s.profile.folded().contains("run;tuner.evaluate"));
    }

    #[test]
    fn empty_trace_is_valid_but_empty() {
        let s = summarize_trace("").unwrap();
        assert_eq!(s.events, 0);
        assert!(s.header.is_none());
        assert!(s.render().contains("(no run header)"));
    }
}
