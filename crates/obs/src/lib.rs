//! # hiperbot-obs — tuner-loop observability
//!
//! Structured tracing, latency metrics, and trace replay for the HiPerBOt
//! workspace. The design contract is **zero overhead when disabled**:
//! instrumented code holds an `Arc<dyn Recorder>` (default
//! [`NoopRecorder`]) and checks [`Recorder::enabled`] before taking a
//! timestamp or building an [`Event`], so an untraced run does no extra
//! work beyond one predictable branch per potential event. Because
//! instrumentation never touches RNG state, a traced run is bit-identical
//! to an untraced run with the same seed — asserted by the workspace's
//! `observability` integration test.
//!
//! The pieces:
//!
//! - [`Event`] / [`RunHeader`] — the typed, serde-serializable event
//!   schema shared by the tuner, baselines, and eval harness.
//! - [`Recorder`] — the sink trait, with [`JsonlSink`] (one JSON object
//!   per line), [`MemoryRecorder`], [`StderrLogger`], and
//!   [`MultiRecorder`] implementations.
//! - [`MetricsRegistry`] / [`LogHistogram`] — counters and streaming
//!   log-bucket latency histograms (p50/p95/p99); [`MetricsRecorder`]
//!   folds the event stream into a registry.
//! - [`replay::summarize_trace`] — offline JSONL-trace replay into
//!   convergence, latency, diagnostics, and profile summaries.
//! - [`DiagnosticsRecorder`] / [`WatchdogConfig`] — online
//!   convergence/health analytics with a latched threshold watchdog
//!   emitting [`HealthAlert`]s.
//! - [`MetricsRegistry::render_prometheus`] /
//!   [`export::validate_prometheus`] — deterministic Prometheus text
//!   exposition and a validating parser.
//! - [`SpanProfile`] / [`ProfileRecorder`] — span-tree profiling with
//!   flamegraph-compatible folded-stack output.
//!
//! Diagnostics and profiles derive *only* from event fields, never from
//! ambient clocks or RNG, so replaying a written trace through the same
//! folding logic reproduces the online results exactly — the parity
//! invariant the workspace `diagnostics` integration test pins.

pub mod diag;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod replay;

pub use diag::{
    diagnose_events, ConvergenceStats, DiagnosticsRecorder, DiagnosticsSummary, SelectionStats,
    SurrogateStats, WatchdogConfig,
};
pub use event::{space_fingerprint, Event, HealthAlert, Level, RunHeader};
pub use export::{validate_prometheus, PromStats};
pub use metrics::{counters, format_ns, LogHistogram, MetricsRecorder, MetricsRegistry};
pub use profile::{profile_events, ProfileRecorder, SpanProfile};
pub use recorder::{
    JsonlSink, MemoryRecorder, MultiRecorder, NoopRecorder, Recorder, SpanTimer, StderrLogger,
};
pub use replay::{summarize_trace, summarize_trace_with, TraceSummary};
