//! One benchmark run of one workload: set-up, the timed loop, the
//! correctness checks, and either the end-to-end metrics (untraced) or the
//! per-layer metrics of a traced replay.

use crate::calibration::{HostSpeed, REFERENCE_US};
use crate::stats::{median, percentile, quartile_spread};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{
    reference_run, same_history, App, Bench, Loop, Probe, Quality, Tracing, Workload,
};
use hiperbot_core::Tuner;
use hiperbot_obs::ProfileRecorder;
use hiperbot_stats::SeedSequence;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, measured with tracing off: `(name, unit)`. The
/// timings among them (`setup_s`, `pick_ms_p90`) are scaled to the
/// reference host speed (see [`crate::calibration`]); the raw values are
/// printed next to them. Throughput (`trials_per_s`) is printed with them
/// but not gated (it is not in `BENCHMARK.json`; see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pick_ms_p90", "ms"),
    ("best_ratio", "ratio"),
    ("recall", "ratio"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports from its traced pass:
/// `(name, unit)`. Layers only one workload exercises (the executor's
/// batches, GEIST and Random repetitions) are printed in that workload's
/// layer report instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apps.dataset_ms", "ms"),
    ("apps.evaluate_us", "us"),
    ("apps.evaluate_calls", "count"),
    ("space.enumerate_ms", "ms"),
    ("core.bootstrap_ms", "ms"),
    ("core.pick_ms_p50", "ms"),
    ("core.pick_ms_p99", "ms"),
    ("core.picks", "count"),
    ("core.select_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.delta_inserts", "count"),
    ("core.delta_removes", "count"),
    ("core.columns_rescored", "count"),
    ("core.stall_frac", "ratio"),
    ("eval.retries", "count"),
    ("eval.failures", "count"),
    ("baselines.hiperbot.rep_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
];

/// End-to-end metrics that depend on the seed only and must repeat
/// exactly across runs at a fixed seed.
pub const DETERMINISTIC: [&str; 3] = ["best_ratio", "recall", "completed_frac"];

/// How many times a run builds the dataset; `setup_s` is the median. The
/// first build is the set-up itself; the others are spread over the rest
/// of the run (see [`timed_loop`]).
const SETUP_BUILDS: usize = 21;

/// How many times the traced pass times `ParameterSpace::enumerate`.
const ENUMERATE_PROBES: usize = 3;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed; session seeds derive from it.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: Duration,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Directory, relative to the working directory, that a traced run writes
/// its raw spans to (`<workload>-<seed>.jsonl`). It sits in the
/// benchmark's build directory, which git ignores.
const SPANS_DIR: &str = ".bench_build/spans";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes, where that is meaningful.
    pub samples: Option<usize>,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// No correctness check failed.
    pub correct: bool,
    /// Tuning sessions run.
    pub attempted: u64,
    /// Sessions that violated a check.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Violated checks.
    pub violations: Vec<String>,
    /// Human-readable report lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    fn push(
        &mut self,
        table: &[(&'static str, &'static str)],
        name: &str,
        value: f64,
        samples: Option<usize>,
    ) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// When something ran, in seconds since the run started.
#[derive(Debug, Clone, Copy)]
struct Interval {
    from: f64,
    to: f64,
}

impl Interval {
    fn seconds(&self) -> f64 {
        self.to - self.from
    }

    /// The factor scaling a time measured during this interval to the
    /// reference host speed.
    fn scale(&self, speed: &HostSpeed) -> f64 {
        speed.scale(self.from, self.to)
    }
}

/// One session of the timed loop.
struct SessionTime {
    trials: usize,
    when: Interval,
    /// Its entries in [`Probe::picks_ns`].
    picks: Range<usize>,
}

/// What the timed loop produced.
struct Timed {
    /// `(seed, quality)` of the quality sessions, in order.
    quality: Vec<(u64, Quality)>,
    probe: Probe,
    /// Every session, in order.
    session_log: Vec<SessionTime>,
    trials: usize,
    sessions: usize,
    failed_sessions: usize,
    /// Whether session 0 already failed its own checks.
    first_failed: bool,
    /// Peak resident memory (MB) when the last quality session finished:
    /// set-up plus a fixed amount of work, whatever the host speed.
    quality_rss_mb: Option<f64>,
    /// Session 0: its tuner and the stalls this loop counted.
    first: Option<(Tuner, usize)>,
}

/// Builds `app`'s dataset once, inside an `apps.dataset` span when traced,
/// and returns it with the interval the build took.
fn build(app: App, tracer: Option<&Tracer>, origin: Instant) -> (hiperbot_apps::Dataset, Interval) {
    let span = tracer.map(|t| t.open("apps.dataset", None));
    let from = origin.elapsed().as_secs_f64();
    let dataset = app.dataset();
    let to = origin.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.close(id);
    }
    (dataset, Interval { from, to })
}

/// Runs the workload's sessions until `seconds` have passed and at least
/// its quality sessions are done. Sessions are not traced. Between
/// sessions the dataset is dropped and built again, spread evenly over the
/// run, until `builds` holds [`SETUP_BUILDS`] builds: the host's speed
/// drifts within a run, and set-up builds taken at one instant would read
/// only the speed of that instant. The calibration kernel runs before the
/// first session, after every session that ends at least
/// [`PROBE_EVERY`](crate::calibration::PROBE_EVERY) after the last probe,
/// and at the end.
fn timed_loop(
    bench: &mut Bench,
    seed: u64,
    seconds: Duration,
    builds: &mut Vec<Interval>,
    speed: &mut HostSpeed,
    tracer: Option<&Tracer>,
    violations: &mut Vec<String>,
) -> Timed {
    let k = bench.workload.quality_sessions;
    let origin = speed.origin();
    let app = bench.workload.app;
    let rebuild = |bench: &mut Bench, builds: &mut Vec<Interval>| {
        bench.rebuild(|| {
            let (dataset, when) = build(app, tracer, origin);
            builds.push(when);
            dataset
        });
    };
    let mut seeds = SeedSequence::new(seed);
    let mut out = Timed {
        quality: Vec::with_capacity(k),
        probe: Probe::default(),
        session_log: Vec::new(),
        trials: 0,
        sessions: 0,
        failed_sessions: 0,
        first_failed: false,
        quality_rss_mb: None,
        first: None,
    };
    speed.probe();
    let started = Instant::now();
    let mut next_build = seconds / SETUP_BUILDS as u32;
    while out.sessions < k || started.elapsed() < seconds {
        let session_seed = seeds.next_seed();
        let stalls_before = out.probe.stalls;
        let picks_before = out.probe.picks_ns.len();
        let from = speed.now();
        let session = bench.session(session_seed, None, Tracing::default(), &mut out.probe);
        out.session_log.push(SessionTime {
            trials: session.quality.trials,
            when: Interval {
                from,
                to: speed.now(),
            },
            picks: picks_before..out.probe.picks_ns.len(),
        });
        speed.probe_if_due();

        let bad = bench.check_session(out.sessions, &session);
        out.failed_sessions += usize::from(!bad.is_empty());
        out.first_failed |= out.sessions == 0 && !bad.is_empty();
        violations.extend(bad);
        out.trials += session.quality.trials;
        if out.sessions == 0 {
            if let Some(tuner) = session.tuner {
                out.first = Some((tuner, out.probe.stalls - stalls_before));
            }
        }
        if out.sessions < k {
            out.quality.push((session_seed, session.quality));
        }
        out.sessions += 1;
        if out.sessions == k {
            out.quality_rss_mb = peak_rss_mb();
        }
        if builds.len() < SETUP_BUILDS && started.elapsed() >= next_build {
            rebuild(bench, builds);
            let now = started.elapsed();
            let left = (SETUP_BUILDS - builds.len()) as u32;
            next_build = now + seconds.saturating_sub(now) / (left + 1);
        }
    }
    while builds.len() < SETUP_BUILDS {
        rebuild(bench, builds);
    }
    speed.probe();
    out
}

/// Session 0 of a tuner workload must replay the shipped driver bit for
/// bit, and the batch workload must not depend on its worker count.
fn parity_checks(bench: &Bench, timed: &Timed) -> Vec<String> {
    let mut violations = Vec::new();
    let (Some((seed, _)), Some((tuner, stalls))) = (timed.quality.first(), &timed.first) else {
        return violations;
    };
    let history = tuner.history();
    if let Some((reference, reference_stalls)) = reference_run(bench, *seed) {
        if !same_history(history, &reference) {
            violations.push("session 0 history differs from the shipped run driver".into());
        }
        if *stalls != reference_stalls {
            violations.push(format!(
                "session 0 counted {stalls} stalls, the shipped driver {reference_stalls}"
            ));
        }
    }
    if let Loop::Batch { workers, .. } = bench.workload.kind {
        let mut unused = Probe::default();
        let one = bench.session(*seed, Some(1), Tracing::default(), &mut unused);
        match one.tuner {
            Some(t) if same_history(t.history(), history) => {}
            _ => violations.push(format!(
                "session 0 history at 1 worker differs from {workers} workers"
            )),
        }
    }
    violations
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// Runs `workload` once.
pub fn run(workload: Workload, args: &RunArgs) -> Report {
    let mut report = Report::default();
    let tracer = args.trace.then(Tracer::new);
    let origin = Instant::now();

    // Set-up: the first build; the timed loop adds the others.
    let (dataset, first_build) = build(workload.app, tracer.as_ref(), origin);
    let mut builds = vec![first_build];
    let mut speed = HostSpeed::new(origin);
    let mut bench = Bench::new(workload, dataset);
    report.notes.push(format!(
        "workload {}: {} ({} configs, budget {}, {} quality sessions)",
        workload.name,
        workload.why,
        bench.dataset().len(),
        workload.budget,
        workload.quality_sessions
    ));

    let mut violations = Vec::new();
    let timed = timed_loop(
        &mut bench,
        args.seed,
        args.seconds,
        &mut builds,
        &mut speed,
        tracer.as_ref(),
        &mut violations,
    );
    let parity = parity_checks(&bench, &timed);
    report.attempted = timed.sessions as u64;
    report.failed =
        (timed.failed_sessions + usize::from(!parity.is_empty() && !timed.first_failed)) as u64;
    violations.extend(parity);
    let session_seconds: f64 = timed.session_log.iter().map(|s| s.when.seconds()).sum();
    let kernel = speed.times_us();
    report.notes.push(format!(
        "calibration: kernel median {:.3} us over {} probes (spread {:.4}; reference {REFERENCE_US} us)",
        median(&kernel).expect("the host speed was probed"),
        kernel.len(),
        quartile_spread(&kernel).unwrap_or(0.0),
    ));
    report.notes.push(format!(
        "timed loop: {} sessions, {} trials in {:.3} s of sessions ({:.1} trials/s overall)",
        timed.sessions,
        timed.trials,
        session_seconds,
        timed.trials as f64 / session_seconds
    ));

    match &tracer {
        None => end_to_end(
            &mut report,
            workload.name,
            &builds,
            &timed,
            &speed,
            &mut violations,
        ),
        Some(tracer) => {
            let traced = traced_pass(&bench, &timed, tracer, &mut violations);
            report.attempted += traced.sessions as u64;
            report.failed += traced.failed as u64;
            per_layer(&mut report, &bench, tracer, &traced);
            let path = format!("{SPANS_DIR}/{}-{}.jsonl", workload.name, args.seed);
            match write_spans(&path, &tracer.spans()) {
                Ok(()) => report.notes.push(format!("spans written to {path}")),
                Err(e) => violations.push(format!("writing spans to {path}: {e}")),
            }
        }
    }
    report.correct = violations.is_empty();
    report.violations = violations;
    report
}

fn end_to_end(
    report: &mut Report,
    workload: &str,
    builds: &[Interval],
    timed: &Timed,
    speed: &HostSpeed,
    violations: &mut Vec<String>,
) {
    let t = END_TO_END;
    let raw_builds: Vec<f64> = builds.iter().map(Interval::seconds).collect();
    let scaled_builds: Vec<f64> = builds
        .iter()
        .map(|b| b.seconds() * b.scale(speed))
        .collect();
    report.notes.push(format!(
        "raw {workload} setup_s = {} s (n={})",
        median(&raw_builds).expect("set-up ran"),
        builds.len()
    ));
    let setup = median(&scaled_builds).expect("set-up ran");
    report.push(t, "setup_s", setup, Some(builds.len()));

    // Throughput of each session; the slowest tenth is reported, which the
    // host's fast periods (see the host-noise notes in `workloads`) move
    // less than they move a mean.
    let rates = |scaled: bool| -> Vec<f64> {
        let log = &timed.session_log;
        log.iter()
            .map(|s| {
                let scale = if scaled { s.when.scale(speed) } else { 1.0 };
                s.trials as f64 / (s.when.seconds() * scale)
            })
            .collect()
    };
    if timed.session_log.is_empty() {
        violations.push("the timed loop ran no session".into());
    }
    for (label, scaled) in [("raw ", false), ("", true)] {
        if let Some(p) = percentile(&rates(scaled), 10.0) {
            report.notes.push(format!(
                "{label}metric {workload} trials_per_s = {} 1/s (n={}; 10th percentile over sessions; not gated)",
                p.value, p.samples
            ));
        }
    }

    let mut raw_picks = Vec::with_capacity(timed.probe.picks_ns.len());
    let mut scaled_picks = Vec::with_capacity(timed.probe.picks_ns.len());
    for s in &timed.session_log {
        let scale = s.when.scale(speed);
        for &ns in &timed.probe.picks_ns[s.picks.clone()] {
            raw_picks.push(ns as f64 / 1e6);
            scaled_picks.push(ns as f64 / 1e6 * scale);
        }
    }
    match percentile(&raw_picks, 90.0) {
        Some(p) => report.notes.push(format!(
            "raw {workload} pick_ms_p90 = {} ms (n={})",
            p.value, p.samples
        )),
        None => violations.push("no post-bootstrap picks were timed".into()),
    }
    if let Some(p) = percentile(&scaled_picks, 90.0) {
        report.push(t, "pick_ms_p90", p.value, Some(p.samples));
    }
    let q: Vec<&Quality> = timed.quality.iter().map(|(_, q)| q).collect();
    report.push(
        t,
        "best_ratio",
        mean(q.iter().map(|q| q.best_ratio)),
        Some(q.len()),
    );
    report.push(t, "recall", mean(q.iter().map(|q| q.recall)), Some(q.len()));
    let trials: usize = q.iter().map(|q| q.trials).sum();
    let completed: usize = q.iter().map(|q| q.completed).sum();
    report.push(
        t,
        "completed_frac",
        completed as f64 / trials.max(1) as f64,
        Some(trials),
    );
    match timed.quality_rss_mb {
        Some(mb) => report.push(t, "peak_rss_mb", mb, None),
        None => violations.push("peak RSS unavailable (/proc/self/status has no VmHWM)".into()),
    }
}

/// What the traced replay produced.
struct Traced {
    sessions: usize,
    /// Replayed sessions that differed from their untraced run.
    failed: usize,
    wall: Duration,
    /// Wall time of the same sessions replayed untraced just before.
    untraced_wall: Duration,
    probe: Probe,
    profile: Arc<ProfileRecorder>,
    quality: Vec<Quality>,
}

/// Replays the quality sessions untraced and then with spans and the
/// tuner's profile recorder attached. The untraced replay runs on the same
/// warm state (GEIST's graph cache, the allocator), so the two walls give
/// the tracing overhead. Recording never touches the tuner's RNG, so every
/// traced session must match its untraced run exactly.
fn traced_pass(
    bench: &Bench,
    timed: &Timed,
    tracer: &Tracer,
    violations: &mut Vec<String>,
) -> Traced {
    for _ in 0..ENUMERATE_PROBES {
        let configs = tracer.span("space.enumerate", None, || {
            bench.dataset().space().enumerate()
        });
        std::hint::black_box(configs);
    }
    let started = Instant::now();
    for (seed, _) in &timed.quality {
        bench.session(*seed, None, Tracing::default(), &mut Probe::default());
    }
    let untraced_wall = started.elapsed();

    let profile = Arc::new(ProfileRecorder::new());
    let tracing = Tracing {
        tracer: Some(tracer),
        profile: Some(&profile),
    };
    let mut probe = Probe::default();
    let mut quality = Vec::with_capacity(timed.quality.len());
    let mut failed = 0;
    let started = Instant::now();
    for (i, (seed, untraced)) in timed.quality.iter().enumerate() {
        let session = bench.session(*seed, None, tracing, &mut probe);
        if session.quality != *untraced {
            violations.push(format!("traced session {i} differs from its untraced run"));
            failed += 1;
        }
        quality.push(session.quality);
    }
    Traced {
        sessions: quality.len(),
        failed,
        wall: started.elapsed(),
        untraced_wall,
        probe,
        profile,
        quality,
    }
}

/// Per-span-name totals: calls, total and self time (ns), durations.
#[derive(Default)]
struct SpanStats {
    calls: usize,
    total_ns: u64,
    self_ns: u64,
    durations_ns: Vec<u64>,
}

fn span_stats(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let s = by_name.entry(span.name).or_default();
        s.calls += 1;
        s.total_ns += span.duration_ns();
        s.self_ns += self_ns;
        s.durations_ns.push(span.duration_ns());
    }
    by_name
}

fn per_layer(report: &mut Report, bench: &Bench, tracer: &Tracer, traced: &Traced) {
    let t = PER_LAYER;
    let spans = span_stats(&tracer.spans());
    report.notes.push(format!(
        "traced replay: {} sessions in {:.3} s (untraced {:.3} s)",
        traced.sessions,
        traced.wall.as_secs_f64(),
        traced.untraced_wall.as_secs_f64()
    ));
    for (name, s) in &spans {
        report.notes.push(format!(
            "span {name:<26} calls {:>8}  total {:>12.3} ms  self {:>12.3} ms",
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .get(name)
            .map(|s| s.durations_ns.iter().map(|&n| n as f64 / scale).collect())
            .unwrap_or_default()
    };
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);

    let builds = durations("apps.dataset", 1e6);
    report.push(t, "apps.dataset_ms", med(&builds), Some(builds.len()));
    // A mean, not a median: a call takes under a microsecond, and the
    // median of whole nanoseconds can read the same in two runs.
    let evals = durations("apps.evaluate", 1e3);
    let eval_mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
    report.push(t, "apps.evaluate_us", eval_mean, Some(evals.len()));
    report.push(t, "apps.evaluate_calls", evals.len() as f64, None);
    let enumerates = durations("space.enumerate", 1e6);
    report.push(
        t,
        "space.enumerate_ms",
        med(&enumerates),
        Some(enumerates.len()),
    );

    let probe = &traced.probe;
    let boot = ms(&probe.bootstrap_ns);
    report.push(t, "core.bootstrap_ms", med(&boot), Some(boot.len()));
    let picks = ms(&probe.picks_ns);
    for (name, p) in [("core.pick_ms_p50", 50.0), ("core.pick_ms_p99", 99.0)] {
        let v = percentile(&picks, p).map_or(0.0, |p| p.value);
        report.push(t, name, v, Some(picks.len()));
    }
    report.push(t, "core.picks", picks.len() as f64, None);
    let profile = traced.profile.profile();
    let phase_ms = |leaf: &str| -> f64 {
        let ns: u64 = profile
            .nodes()
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(leaf))
            .map(|(_, node)| node.total_ns)
            .sum();
        ns as f64 / 1e6
    };
    report.push(t, "core.select_ms", phase_ms("tuner.select"), None);
    report.push(t, "core.fit_ms", phase_ms("tuner.fit"), None);
    report.push(t, "core.delta_inserts", probe.churn.inserts as f64, None);
    report.push(t, "core.delta_removes", probe.churn.removes as f64, None);
    report.push(
        t,
        "core.columns_rescored",
        probe.churn.columns_rescored as f64,
        None,
    );
    let stall_frac = probe.stalls as f64 / probe.steps.max(1) as f64;
    report.push(t, "core.stall_frac", stall_frac, Some(probe.steps));
    report.push(t, "eval.retries", probe.retries as f64, None);
    let failures: usize = traced.quality.iter().map(|q| q.failed).sum();
    report.push(t, "eval.failures", failures as f64, None);
    let runs = ms(&probe.hiperbot_runs_ns);
    report.push(t, "baselines.hiperbot.rep_ms", med(&runs), Some(runs.len()));
    let overhead = traced.wall.as_secs_f64() / traced.untraced_wall.as_secs_f64() - 1.0;
    report.push(t, "obs.trace_overhead", overhead, None);

    // Layers only some workloads exercise.
    let name = bench.workload.name;
    let mut extra = |metric: &str, value: f64, unit: &str, n: usize| {
        report
            .notes
            .push(format!("layer {name} {metric} = {value} {unit} (n={n})"));
    };
    let batches = durations("eval.batch", 1e6);
    if !batches.is_empty() {
        for (metric, p) in [("eval.batch_ms_p50", 50.0), ("eval.batch_ms_p90", 90.0)] {
            let v = percentile(&batches, p).map_or(0.0, |p| p.value);
            extra(metric, v, "ms", batches.len());
        }
        extra("eval.batches", batches.len() as f64, "count", batches.len());
    }
    for (span, metric) in [
        ("baselines.geist.rep", "baselines.geist.rep_ms"),
        ("baselines.random.rep", "baselines.random.rep_ms"),
    ] {
        let reps = durations(span, 1e6);
        if !reps.is_empty() {
            extra(metric, med(&reps), "ms", reps.len());
        }
    }
    let geist: Vec<(f64, f64)> = traced.quality.iter().filter_map(|q| q.geist).collect();
    if !geist.is_empty() {
        let n = geist.len();
        extra(
            "baselines.geist.best_ratio",
            mean(geist.iter().map(|g| g.0)),
            "ratio",
            n,
        );
        extra(
            "baselines.geist.recall",
            mean(geist.iter().map(|g| g.1)),
            "ratio",
            n,
        );
    }
}

/// Writes spans as JSON lines: name, start, end (ns since the run's
/// tracer started) and parent index.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(SPANS_DIR)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
