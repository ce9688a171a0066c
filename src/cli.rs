//! Command-line autotuner plumbing.
//!
//! Backs the `hiperbot` binary in two modes:
//!
//! - **Command mode** — a JSON space specification plus a command template
//!   turn any external program into a tuning objective:
//!
//!   ```sh
//!   hiperbot --space space.json --budget 60 --seed 1 \
//!            --command "./app --threads {threads} --block {block}"
//!   ```
//!
//!   The command is run through `sh -c`; its last stdout line must be the
//!   objective value (smaller = better), or pass `--measure time` to use
//!   wall-clock seconds instead. A command that exits non-zero (or prints
//!   garbage) is a *failed trial*: it is retried per `--max-retries`, and a
//!   permanent failure is quarantined in the tuner's history instead of
//!   being scored with a sentinel value.
//!
//! - **App mode** — `--app kripke` tunes one of the built-in simulated
//!   datasets, with optional deterministic fault injection
//!   (`--fail-prob`, `--timeout-factor`) for exercising the
//!   failure-handling path end to end:
//!
//!   ```sh
//!   hiperbot --app kripke --budget 60 --seed 1 --fail-prob 0.2 --max-retries 2
//!   ```

use crate::core::{
    CheckpointPolicy, EvalOutcome, SelectionStrategy, Tuner, TunerCheckpoint, TunerOptions,
};
use crate::eval::{outcome_from_sim, BatchExecutor, RetryPolicy, RetryingObjective, ThreadSleeper};
use crate::obs::{
    DiagnosticsRecorder, Event, HealthAlert, JsonlSink, Level, MetricsRecorder, MetricsRegistry,
    MultiRecorder, ProfileRecorder, Recorder, StderrLogger,
};
use crate::perfsim::faults::FaultModel;
use crate::space::{Configuration, Domain, ParamDef, ParameterSpace};
use serde::Deserialize;
use std::sync::Arc;

/// One parameter in the JSON space specification.
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ParamSpec {
    /// Discrete integer levels: `{"type":"ints","name":"threads","values":[1,2,4]}`.
    Ints {
        /// Parameter name.
        name: String,
        /// Levels.
        values: Vec<i64>,
    },
    /// Discrete float levels.
    Floats {
        /// Parameter name.
        name: String,
        /// Levels.
        values: Vec<f64>,
    },
    /// Categorical values: `{"type":"categorical","name":"solver","values":["amg","pcg"]}`.
    Categorical {
        /// Parameter name.
        name: String,
        /// Category labels.
        values: Vec<String>,
    },
    /// A continuous range: `{"type":"continuous","name":"alpha","lo":0.0,"hi":1.0}`.
    Continuous {
        /// Parameter name.
        name: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

/// The JSON space specification: `{"params":[...]}`.
#[derive(Debug, Clone, Deserialize)]
pub struct SpaceSpec {
    /// The parameters, in order.
    pub params: Vec<ParamSpec>,
}

impl SpaceSpec {
    /// Parses a JSON document.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid space spec: {e}"))
    }

    /// Builds the parameter space.
    pub fn build(&self) -> Result<ParameterSpace, String> {
        let mut b = ParameterSpace::builder();
        for p in &self.params {
            let def = match p {
                ParamSpec::Ints { name, values } => {
                    ParamDef::new(name.clone(), Domain::discrete_ints(values))
                }
                ParamSpec::Floats { name, values } => {
                    ParamDef::new(name.clone(), Domain::discrete_floats(values))
                }
                ParamSpec::Categorical { name, values } => {
                    let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
                    ParamDef::new(name.clone(), Domain::categorical(&refs))
                }
                ParamSpec::Continuous { name, lo, hi } => {
                    ParamDef::new(name.clone(), Domain::continuous(*lo, *hi))
                }
            };
            b = b.param(def);
        }
        b.build().map_err(|e| e.to_string())
    }

    /// Whether any parameter is continuous (selects the Proposal strategy).
    pub fn has_continuous(&self) -> bool {
        self.params
            .iter()
            .any(|p| matches!(p, ParamSpec::Continuous { .. }))
    }
}

/// Substitutes `{name}` placeholders in a command template with the
/// configuration's values.
pub fn render_command(template: &str, cfg: &Configuration, space: &ParameterSpace) -> String {
    let mut out = template.to_string();
    for (i, def) in space.params().iter().enumerate() {
        let value = match cfg.value(i) {
            crate::space::ParamValue::Index(idx) => def.values()[idx].to_string(),
            crate::space::ParamValue::Real(x) => format!("{x}"),
        };
        out = out.replace(&format!("{{{}}}", def.name()), &value);
    }
    out
}

/// How the objective is extracted from a command run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Parse the last stdout line as an `f64`.
    Stdout,
    /// Wall-clock seconds of the command.
    Time,
}

/// Parsed CLI options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Path to the JSON space spec (command mode).
    pub space_path: String,
    /// Command template with `{param}` placeholders (command mode).
    pub command: String,
    /// Built-in simulated dataset to tune instead of a command
    /// (`kripke`, `kripke-energy`, `hypre`, `lulesh`, `openatom`).
    pub app: Option<String>,
    /// Evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Objective extraction mode.
    pub measure: Measure,
    /// Bootstrap sample count.
    pub init_samples: usize,
    /// Retries per failed trial (transient failures only).
    pub max_retries: u32,
    /// App mode: base crash probability injected per attempt.
    pub fail_prob: f64,
    /// App mode: timeout threshold as a multiple of the dataset's median
    /// objective (`None` = no timeout channel).
    pub timeout_factor: Option<f64>,
    /// Where to write the JSONL trace (`None` = tracing off).
    pub trace_out: Option<String>,
    /// Stderr event verbosity.
    pub log_level: Level,
    /// Whether to print the per-phase latency table after the run.
    pub metrics_summary: bool,
    /// Where to write Prometheus text exposition after the run
    /// (`None` = off).
    pub metrics_out: Option<String>,
    /// Whether to run the diagnostics layer and print its report.
    pub diag: bool,
    /// Exit non-zero when the diagnostics watchdog fired (implies the
    /// diagnostics layer).
    pub strict_health: bool,
    /// Where to write the folded-stack span profile (`None` = off).
    pub profile_out: Option<String>,
    /// Worker threads for concurrent objective evaluation (1 = serial).
    /// Applies to both strategies: Ranking (finite) and Proposal
    /// (continuous) spaces.
    pub workers: usize,
    /// Configurations suggested per surrogate refit, via constant-liar
    /// batch selection (1 = the paper's serial algorithm). Ranking
    /// batches pick from the refit score table; Proposal batches pick
    /// through the vectorized proposal engine, same liar protocol.
    pub batch: usize,
    /// Where to write crash-recovery snapshots (`None` = checkpointing
    /// off). Written atomically every `checkpoint_every` trials and at
    /// the end of the run.
    pub checkpoint_out: Option<String>,
    /// Trials between checkpoint snapshots.
    pub checkpoint_every: usize,
    /// Snapshot (or JSONL trace) to resume an interrupted run from.
    pub resume_from: Option<String>,
}

impl Default for CliOptions {
    /// The CLI's flag defaults (what `parse_args` yields when only the
    /// required arguments are given).
    fn default() -> Self {
        Self {
            space_path: String::new(),
            command: String::new(),
            app: None,
            budget: 50,
            seed: 0,
            measure: Measure::Stdout,
            init_samples: 20,
            max_retries: 0,
            fail_prob: 0.0,
            timeout_factor: None,
            trace_out: None,
            log_level: Level::Off,
            metrics_summary: false,
            metrics_out: None,
            diag: false,
            strict_health: false,
            profile_out: None,
            workers: 1,
            batch: 1,
            checkpoint_out: None,
            checkpoint_every: 10,
            resume_from: None,
        }
    }
}

/// Parses `argv[1..]`. Returns `Err(usage)` on any problem.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let usage = "usage: hiperbot --space <spec.json> --command <template> \
                 [--budget N=50] [--seed N=0] [--init N=20] [--measure stdout|time] \
                 [--max-retries N=0] [--workers N=1] [--batch K=1] \
                 [--trace-out <trace.jsonl>] [--log-level off|info|debug] [--metrics-summary] \
                 [--metrics-out <file.prom>] [--diag] [--strict-health] \
                 [--profile-out <file.folded>] \
                 [--checkpoint-out <snap.json>] [--checkpoint-every N=10] \
                 [--resume-from <snap.json|trace.jsonl>]\n\
                 \x20      hiperbot --app kripke|kripke-energy|hypre|lulesh|openatom \
                 [--fail-prob P=0] [--timeout-factor F] [common flags]";
    let mut space_path = None;
    let mut command = None;
    let mut app = None;
    let mut budget = 50usize;
    let mut seed = 0u64;
    let mut init_samples = 20usize;
    let mut measure = Measure::Stdout;
    let mut max_retries = 0u32;
    let mut fail_prob = 0.0f64;
    let mut timeout_factor = None;
    let mut trace_out = None;
    let mut log_level = Level::Off;
    let mut metrics_summary = false;
    let mut metrics_out = None;
    let mut diag = false;
    let mut strict_health = false;
    let mut profile_out = None;
    let mut workers = 1usize;
    let mut batch = 1usize;
    let mut checkpoint_out = None;
    let mut checkpoint_every = 10usize;
    let mut resume_from = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{usage}"))
        };
        match arg.as_str() {
            "--space" => space_path = Some(take("--space")?),
            "--command" => command = Some(take("--command")?),
            "--budget" => {
                budget = take("--budget")?
                    .parse()
                    .map_err(|_| format!("--budget must be a positive integer\n{usage}"))?
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|_| format!("--seed must be an integer\n{usage}"))?
            }
            "--init" => {
                init_samples = take("--init")?
                    .parse()
                    .map_err(|_| format!("--init must be a positive integer\n{usage}"))?
            }
            "--measure" => {
                measure = match take("--measure")?.as_str() {
                    "stdout" => Measure::Stdout,
                    "time" => Measure::Time,
                    other => return Err(format!("unknown measure '{other}'\n{usage}")),
                }
            }
            "--app" => app = Some(take("--app")?),
            "--max-retries" => {
                max_retries = take("--max-retries")?
                    .parse()
                    .map_err(|_| format!("--max-retries must be a non-negative integer\n{usage}"))?
            }
            "--fail-prob" => {
                fail_prob = take("--fail-prob")?
                    .parse()
                    .map_err(|_| format!("--fail-prob must be a number\n{usage}"))?
            }
            "--timeout-factor" => {
                let f: f64 = take("--timeout-factor")?
                    .parse()
                    .map_err(|_| format!("--timeout-factor must be a number\n{usage}"))?;
                timeout_factor = Some(f);
            }
            "--workers" => {
                workers = take("--workers")?
                    .parse()
                    .map_err(|_| format!("--workers must be a positive integer\n{usage}"))?
            }
            "--batch" => {
                batch = take("--batch")?
                    .parse()
                    .map_err(|_| format!("--batch must be a positive integer\n{usage}"))?
            }
            "--trace-out" => trace_out = Some(take("--trace-out")?),
            "--log-level" => {
                log_level = take("--log-level")?
                    .parse()
                    .map_err(|e| format!("{e}\n{usage}"))?
            }
            "--metrics-summary" => metrics_summary = true,
            "--metrics-out" => metrics_out = Some(take("--metrics-out")?),
            "--diag" => diag = true,
            "--strict-health" => strict_health = true,
            "--profile-out" => profile_out = Some(take("--profile-out")?),
            "--checkpoint-out" => checkpoint_out = Some(take("--checkpoint-out")?),
            "--checkpoint-every" => {
                checkpoint_every = take("--checkpoint-every")?.parse().map_err(|_| {
                    format!("--checkpoint-every must be a positive integer\n{usage}")
                })?
            }
            "--resume-from" => resume_from = Some(take("--resume-from")?),
            "--help" | "-h" => return Err(usage.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{usage}")),
        }
    }
    let (space_path, command) = if app.is_some() {
        if space_path.is_some() || command.is_some() {
            return Err(format!("--app excludes --space/--command\n{usage}"));
        }
        (String::new(), String::new())
    } else {
        (
            space_path.ok_or_else(|| format!("--space is required\n{usage}"))?,
            command.ok_or_else(|| format!("--command is required\n{usage}"))?,
        )
    };
    if budget == 0 || init_samples == 0 {
        return Err(format!("budget and init must be positive\n{usage}"));
    }
    if !(0.0..=1.0).contains(&fail_prob) {
        return Err(format!("--fail-prob must be in [0, 1]\n{usage}"));
    }
    if timeout_factor.is_some_and(|f| !(f.is_finite() && f > 0.0)) {
        return Err(format!("--timeout-factor must be positive\n{usage}"));
    }
    if app.is_none() && (fail_prob > 0.0 || timeout_factor.is_some()) {
        return Err(format!(
            "--fail-prob/--timeout-factor only apply to --app mode\n{usage}"
        ));
    }
    if workers == 0 || batch == 0 {
        return Err(format!("--workers and --batch must be positive\n{usage}"));
    }
    if checkpoint_every == 0 {
        return Err(format!("--checkpoint-every must be positive\n{usage}"));
    }
    Ok(CliOptions {
        space_path,
        command,
        app,
        budget,
        seed,
        measure,
        init_samples,
        max_retries,
        fail_prob,
        timeout_factor,
        trace_out,
        log_level,
        metrics_summary,
        metrics_out,
        diag,
        strict_health,
        profile_out,
        workers,
        batch,
        checkpoint_out,
        checkpoint_every,
        resume_from,
    })
}

/// Runs one objective evaluation by executing the rendered command.
pub fn evaluate_command(rendered: &str, measure: Measure) -> Result<f64, String> {
    let start = std::time::Instant::now();
    let output = std::process::Command::new("sh")
        .arg("-c")
        .arg(rendered)
        .output()
        .map_err(|e| format!("failed to spawn '{rendered}': {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "command failed ({}): {rendered}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    match measure {
        Measure::Time => Ok(start.elapsed().as_secs_f64()),
        Measure::Stdout => {
            let stdout = String::from_utf8_lossy(&output.stdout);
            stdout
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .and_then(|l| l.trim().parse::<f64>().ok())
                .ok_or_else(|| {
                    format!("last stdout line of '{rendered}' is not a number:\n{stdout}")
                })
        }
    }
}

/// Renders a configuration as `name=value` pairs (app-mode report format).
pub fn render_config(cfg: &Configuration, space: &ParameterSpace) -> String {
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let value = match cfg.value(i) {
                crate::space::ParamValue::Index(idx) => def.values()[idx].to_string(),
                crate::space::ParamValue::Real(x) => format!("{x}"),
            };
            format!("{}={value}", def.name())
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The observability tee: JSONL trace file, stderr logger, metrics
/// registry, diagnostics watchdog, and span profiler, each only if
/// requested. With none requested the recorder is `None` and the tuner
/// skips instrumentation entirely.
struct Observability {
    recorder: Option<Arc<dyn Recorder>>,
    sink: Option<Arc<JsonlSink>>,
    registry: Arc<MetricsRegistry>,
    diag: Option<Arc<DiagnosticsRecorder>>,
    profile: Option<Arc<ProfileRecorder>>,
}

impl Observability {
    fn from_options(options: &CliOptions) -> Result<Self, String> {
        let mut tee = MultiRecorder::new();
        let sink = match &options.trace_out {
            Some(path) => {
                let sink = Arc::new(
                    JsonlSink::create(path)
                        .map_err(|e| format!("cannot create trace {path}: {e}"))?,
                );
                tee = tee.with(sink.clone());
                Some(sink)
            }
            None => None,
        };
        if options.log_level > Level::Off {
            tee = tee.with(Arc::new(StderrLogger::new(options.log_level)));
        }
        let registry = Arc::new(MetricsRegistry::new());
        // The event-derived metrics sink backs both the summary table and
        // the Prometheus exposition. (The tuner's direct-to-registry churn
        // counters stay gated on --metrics-summary below, so a
        // --metrics-out exposition derives from events alone and is
        // exactly reproducible from the trace.)
        if options.metrics_summary || options.metrics_out.is_some() {
            tee = tee.with(Arc::new(MetricsRecorder::new(registry.clone())));
        }
        let mut diag = None;
        if options.diag || options.strict_health {
            let d = Arc::new(DiagnosticsRecorder::new());
            tee = tee.with(d.clone());
            diag = Some(d);
        }
        let mut profile = None;
        if options.profile_out.is_some() {
            let p = Arc::new(ProfileRecorder::new());
            tee = tee.with(p.clone());
            profile = Some(p);
        }
        let recorder: Option<Arc<dyn Recorder>> = if tee.is_empty() {
            None
        } else {
            Some(Arc::new(tee))
        };
        Ok(Self {
            recorder,
            sink,
            registry,
            diag,
            profile,
        })
    }

    /// Post-run epilogue: re-emits watchdog alerts into the full tee (so
    /// the trace self-describes its health verdict), flushes the trace,
    /// prints the requested reports, and writes the Prometheus/profile
    /// output files. Returns the alerts for `--strict-health` handling.
    fn finish(&self, options: &CliOptions) -> Result<Vec<HealthAlert>, String> {
        let alerts = self.diag.as_ref().map(|d| d.alerts()).unwrap_or_default();
        if let (Some(recorder), false) = (&self.recorder, alerts.is_empty()) {
            for alert in &alerts {
                recorder.record(&Event::HealthAlert(alert.clone()));
            }
        }
        if let Some(sink) = &self.sink {
            Recorder::flush(sink.as_ref());
        }
        if options.metrics_summary {
            println!(
                "\n== metrics summary ==\n{}",
                self.registry.render_summary()
            );
        }
        if let Some(diag) = &self.diag {
            if options.diag {
                println!("\n== diagnostics ==\n{}", diag.summary().render());
            }
        }
        if let Some(path) = &options.metrics_out {
            std::fs::write(path, self.registry.render_prometheus())
                .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        }
        if let (Some(path), Some(profile)) = (&options.profile_out, &self.profile) {
            std::fs::write(path, profile.profile().folded())
                .map_err(|e| format!("cannot write profile {path}: {e}"))?;
        }
        Ok(alerts)
    }
}

/// The whole CLI flow; returns (best rendered command or configuration,
/// best objective). Fails when every trial in the budget failed.
pub fn run(options: &CliOptions) -> Result<(String, f64), String> {
    run_with_health(options).map(|(best, _)| best)
}

/// [`run`], also surfacing the diagnostics watchdog's findings so the
/// binary can turn them into a `--strict-health` exit code.
pub fn run_with_health(options: &CliOptions) -> Result<((String, f64), Vec<HealthAlert>), String> {
    match &options.app {
        Some(app) => run_app_mode(options, app),
        None => run_command_mode(options),
    }
}

/// Builds the tuner for a run: fresh, or resumed from `--resume-from`
/// (a checkpoint snapshot, falling back to replaying a JSONL trace), with
/// `--checkpoint-out` snapshotting attached either way. Resume provenance
/// goes to stderr so stdout reports stay diffable against an
/// uninterrupted run.
fn build_tuner(
    space: ParameterSpace,
    tuner_options: TunerOptions,
    options: &CliOptions,
) -> Result<Tuner, String> {
    let mut tuner = match &options.resume_from {
        Some(path) => {
            let contents = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --resume-from {path}: {e}"))?;
            let tuner = match TunerCheckpoint::from_json(&contents) {
                Ok(snapshot) => Tuner::resume_from_checkpoint(space, tuner_options, &snapshot)
                    .map_err(|e| format!("cannot resume from snapshot {path}: {e}"))?,
                // Not a snapshot: treat it as a JSONL trace and replay it.
                Err(_) => Tuner::resume_from_trace(space, tuner_options, &contents).map_err(
                    |e| format!("cannot resume from {path}: not a checkpoint snapshot, and trace replay failed: {e}"),
                )?,
            };
            let history = tuner.history();
            eprintln!(
                "hiperbot: resuming from {path}: {} trials done ({} observations, {} failures)",
                history.trials(),
                history.len(),
                history.n_failures()
            );
            tuner
        }
        None => Tuner::new(space, tuner_options),
    };
    if let Some(out) = &options.checkpoint_out {
        tuner.set_checkpointing(CheckpointPolicy::new(out, options.checkpoint_every));
    }
    Ok(tuner)
}

/// Command mode: tune an external program via its command template.
fn run_command_mode(options: &CliOptions) -> Result<((String, f64), Vec<HealthAlert>), String> {
    let json = std::fs::read_to_string(&options.space_path)
        .map_err(|e| format!("cannot read {}: {e}", options.space_path))?;
    let spec = SpaceSpec::from_json(&json)?;
    let space = spec.build()?;

    // Continuous spaces batch through the vectorized Proposal engine;
    // discrete spaces through Ranking — both with constant-liar fantasies.
    let parallel = options.workers > 1 || options.batch > 1;
    let strategy = if spec.has_continuous() {
        SelectionStrategy::Proposal { candidates: 32 }
    } else {
        SelectionStrategy::Ranking
    };
    let tuner_options = TunerOptions::default()
        .with_seed(options.seed)
        .with_init_samples(options.init_samples)
        .with_strategy(strategy);
    let mut tuner = build_tuner(space.clone(), tuner_options, options)?;

    let obs = Observability::from_options(options)?;
    if let Some(recorder) = &obs.recorder {
        tuner.set_recorder(Arc::clone(recorder));
    }
    if options.metrics_summary {
        tuner.set_metrics(obs.registry.clone());
    }

    let policy = RetryPolicy::default()
        .with_max_retries(options.max_retries)
        .with_seed(options.seed);
    let evaluate = |cfg: &Configuration| {
        let rendered = render_command(&options.command, cfg, &space);
        match evaluate_command(&rendered, options.measure) {
            Ok(y) => {
                eprintln!("  {rendered} -> {y}");
                EvalOutcome::Ok(y)
            }
            Err(e) => {
                eprintln!("  {rendered} -> FAILED");
                eprintln!("warning: {e}");
                EvalOutcome::Failed { reason: e }
            }
        }
    };
    let best = if parallel {
        // Parallel path: constant-liar batch suggestion + worker pool.
        // `workers == batch == 1` never lands here, so the serial path
        // below stays bit-identical to the pre-batch CLI.
        let mut exec = BatchExecutor::new(
            |cfg: &Configuration, _trial: u64, _attempt: u32| evaluate(cfg),
            options.workers,
        )
        .with_policy(policy)
        .with_sleeper(ThreadSleeper);
        if let Some(recorder) = &obs.recorder {
            exec = exec.with_recorder(Arc::clone(recorder));
        }
        if options.metrics_summary {
            exec = exec.with_registry(obs.registry.clone());
        }
        tuner.run_batch_fallible(options.budget, options.batch, |cfgs, base| {
            exec.evaluate_batch(cfgs, base)
        })
    } else {
        let mut retrying =
            RetryingObjective::new(|cfg: &Configuration, _attempt: u32| evaluate(cfg), policy)
                .with_sleeper(ThreadSleeper);
        if let Some(recorder) = &obs.recorder {
            retrying = retrying.with_recorder(Arc::clone(recorder));
        }
        tuner.run_fallible(options.budget, |cfg| retrying.evaluate(cfg))
    };
    let best =
        best.ok_or_else(|| "every evaluation in the budget failed; nothing to report".to_string())?;
    report_failures(&tuner);
    let alerts = obs.finish(options)?;
    Ok((
        (
            render_command(&options.command, &best.config, &space),
            best.objective,
        ),
        alerts,
    ))
}

/// App mode: tune a built-in simulated dataset with optional deterministic
/// fault injection.
fn run_app_mode(
    options: &CliOptions,
    app: &str,
) -> Result<((String, f64), Vec<HealthAlert>), String> {
    use crate::apps::Scale;
    let dataset = match app {
        "kripke" | "kripke-exec" => crate::apps::kripke::exec_dataset(Scale::Target),
        "kripke-energy" => crate::apps::kripke::energy_dataset(Scale::Target),
        "hypre" => crate::apps::hypre::dataset(Scale::Target),
        "lulesh" => crate::apps::lulesh::dataset(Scale::Target),
        "openatom" => crate::apps::openatom::dataset(Scale::Target),
        other => {
            return Err(format!(
                "unknown app '{other}' (expected kripke, kripke-energy, hypre, lulesh, openatom)"
            ))
        }
    };
    let space = dataset.space().clone();

    let mut model = FaultModel::new(options.seed, options.fail_prob);
    if let Some(factor) = options.timeout_factor {
        model = model.with_timeout(factor * dataset.percentile_value(0.5));
    }

    let tuner_options = TunerOptions::default()
        .with_seed(options.seed)
        .with_init_samples(options.init_samples)
        .with_strategy(SelectionStrategy::Ranking);
    let mut tuner = build_tuner(space.clone(), tuner_options, options)?;

    let obs = Observability::from_options(options)?;
    if let Some(recorder) = &obs.recorder {
        tuner.set_recorder(Arc::clone(recorder));
    }
    if options.metrics_summary {
        tuner.set_metrics(obs.registry.clone());
    }

    let policy = RetryPolicy::default()
        .with_max_retries(options.max_retries)
        .with_seed(options.seed);
    // Simulated evaluations: backoffs are recorded, not slept (the
    // default NoopSleeper, in both the serial and parallel paths).
    let best = if options.workers > 1 || options.batch > 1 {
        let mut exec = BatchExecutor::new(
            |cfg: &Configuration, _trial: u64, attempt: u32| {
                outcome_from_sim(dataset.evaluate_outcome(cfg, &model, attempt))
            },
            options.workers,
        )
        .with_policy(policy);
        if let Some(recorder) = &obs.recorder {
            exec = exec.with_recorder(Arc::clone(recorder));
        }
        if options.metrics_summary {
            exec = exec.with_registry(obs.registry.clone());
        }
        tuner.run_batch_fallible(options.budget, options.batch, |cfgs, base| {
            exec.evaluate_batch(cfgs, base)
        })
    } else {
        let mut retrying = RetryingObjective::new(
            |cfg: &Configuration, attempt: u32| {
                outcome_from_sim(dataset.evaluate_outcome(cfg, &model, attempt))
            },
            policy,
        );
        if let Some(recorder) = &obs.recorder {
            retrying = retrying.with_recorder(Arc::clone(recorder));
        }
        tuner.run_fallible(options.budget, |cfg| retrying.evaluate(cfg))
    };
    let best =
        best.ok_or_else(|| "every evaluation in the budget failed; nothing to report".to_string())?;
    report_failures(&tuner);
    let alerts = obs.finish(options)?;
    Ok((
        (render_config(&best.config, &space), best.objective),
        alerts,
    ))
}

/// Prints a one-line summary of permanent failures and Proposal-mode
/// stalls after a run, so quarantined trials and budget-free duplicate
/// iterations are visible without a trace file.
fn report_failures(tuner: &Tuner) {
    let history = tuner.history();
    let n = history.n_failures();
    if n > 0 {
        eprintln!(
            "warning: {n} of {} trials permanently failed",
            history.trials()
        );
    }
    if tuner.stalls() > 0 {
        eprintln!(
            "warning: {} proposal iterations stalled on duplicate suggestions",
            tuner.stalls()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "params": [
            {"type": "ints", "name": "threads", "values": [1, 2, 4]},
            {"type": "categorical", "name": "solver", "values": ["amg", "pcg"]},
            {"type": "continuous", "name": "alpha", "lo": 0.0, "hi": 1.0}
        ]
    }"#;

    #[test]
    fn spec_parses_and_builds() {
        let spec = SpaceSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.params.len(), 3);
        assert!(spec.has_continuous());
        let space = spec.build().unwrap();
        assert_eq!(space.n_params(), 3);
        assert_eq!(space.param_index("solver"), Some(1));
    }

    #[test]
    fn bad_spec_is_an_error() {
        assert!(SpaceSpec::from_json("{}").is_err());
        assert!(SpaceSpec::from_json("not json").is_err());
        // empty space fails at build
        let spec = SpaceSpec::from_json(r#"{"params": []}"#).unwrap();
        assert!(spec.build().is_err());
    }

    #[test]
    fn command_rendering_substitutes_all_placeholders() {
        let spec = SpaceSpec::from_json(SPEC).unwrap();
        let space = spec.build().unwrap();
        let cfg = Configuration::new(vec![
            crate::space::ParamValue::Index(2),
            crate::space::ParamValue::Index(1),
            crate::space::ParamValue::Real(0.25),
        ]);
        let cmd = render_command("./run -t {threads} -s {solver} -a {alpha}", &cfg, &space);
        assert_eq!(cmd, "./run -t 4 -s pcg -a 0.25");
    }

    #[test]
    fn arg_parsing_happy_path() {
        let args: Vec<String> = [
            "--space",
            "s.json",
            "--command",
            "echo 1",
            "--budget",
            "9",
            "--seed",
            "3",
            "--measure",
            "time",
            "--init",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.space_path, "s.json");
        assert_eq!(o.budget, 9);
        assert_eq!(o.seed, 3);
        assert_eq!(o.init_samples, 4);
        assert_eq!(o.measure, Measure::Time);
        // observability flags default off
        assert_eq!(o.trace_out, None);
        assert_eq!(o.log_level, Level::Off);
        assert!(!o.metrics_summary);
    }

    #[test]
    fn observability_flags_parse() {
        let args: Vec<String> = [
            "--space",
            "s.json",
            "--command",
            "echo 1",
            "--trace-out",
            "/tmp/t.jsonl",
            "--log-level",
            "debug",
            "--metrics-summary",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.log_level, Level::Debug);
        assert!(o.metrics_summary);

        let bad: Vec<String> = ["--space", "s", "--command", "c", "--log-level", "loud"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn arg_parsing_rejects_bad_input() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&to_args(&["--space"])).is_err()); // missing value
        assert!(parse_args(&to_args(&["--bogus", "x"])).is_err());
        assert!(parse_args(&to_args(&[
            "--space",
            "s",
            "--command",
            "c",
            "--budget",
            "no"
        ]))
        .is_err());
        assert!(parse_args(&to_args(&["--command", "c"])).is_err()); // no space
        assert!(parse_args(&to_args(&["--space", "s"])).is_err()); // no command
    }

    #[test]
    fn evaluate_command_parses_stdout() {
        let y = evaluate_command("echo 42.5", Measure::Stdout).unwrap();
        assert_eq!(y, 42.5);
        // multi-line: last non-empty line wins
        let y = evaluate_command("printf 'log line\\n3.25\\n'", Measure::Stdout).unwrap();
        assert_eq!(y, 3.25);
    }

    #[test]
    fn evaluate_command_time_measures_wall_clock() {
        let y = evaluate_command("sleep 0.05", Measure::Time).unwrap();
        assert!((0.05..1.0).contains(&y), "measured {y}");
    }

    #[test]
    fn evaluate_command_reports_failures() {
        assert!(evaluate_command("exit 3", Measure::Stdout).is_err());
        assert!(evaluate_command("echo not-a-number", Measure::Stdout).is_err());
    }

    #[test]
    fn end_to_end_cli_run_on_a_shell_objective() {
        // Objective: |threads - 2| computed in shell; optimum threads=2.
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [{"type": "ints", "name": "threads", "values": [1, 2, 4, 8]}]}"#,
        )
        .unwrap();
        let options = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "echo $(( {threads} > 2 ? {threads} - 2 : 2 - {threads} ))".into(),
            budget: 4,
            seed: 1,
            init_samples: 4,
            ..CliOptions::default()
        };
        let (cmd, best) = run(&options).unwrap();
        assert_eq!(best, 0.0);
        assert!(cmd.contains("2"), "best command: {cmd}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_cli_run_writes_a_parseable_jsonl_trace() {
        use crate::obs::Event;
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [
                {"type": "ints", "name": "a", "values": [0, 1, 2, 3, 4, 5]},
                {"type": "ints", "name": "b", "values": [0, 1, 2, 3, 4, 5]}
            ]}"#,
        )
        .unwrap();
        let trace_path = dir.join("trace.jsonl");
        let options = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "echo $(( {a} + {b} ))".into(),
            budget: 12,
            seed: 2,
            init_samples: 6,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            metrics_summary: true,
            ..CliOptions::default()
        };
        let (_, best) = run(&options).unwrap();
        assert_eq!(best, 0.0);

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("trace line parses"))
            .collect();
        assert!(matches!(events.first(), Some(Event::RunHeader(_))));
        assert!(matches!(events.last(), Some(Event::RunFinished { .. })));
        let evals = events
            .iter()
            .filter(|e| matches!(e, Event::ObjectiveEvaluated { .. }))
            .count();
        assert_eq!(evals, 12);
        // 6 model-driven iterations, each with a fit and a selection
        for pat in [
            |e: &Event| matches!(e, Event::IterationStart { .. }),
            |e: &Event| matches!(e, Event::SurrogateFit { .. }),
            |e: &Event| matches!(e, Event::SelectionScored { .. }),
        ] {
            assert_eq!(events.iter().filter(|e| pat(e)).count(), 6);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn to_args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fault_flags_parse() {
        let o = parse_args(&to_args(&[
            "--app",
            "kripke",
            "--fail-prob",
            "0.2",
            "--max-retries",
            "2",
            "--timeout-factor",
            "3.0",
        ]))
        .unwrap();
        assert_eq!(o.app.as_deref(), Some("kripke"));
        assert_eq!(o.fail_prob, 0.2);
        assert_eq!(o.max_retries, 2);
        assert_eq!(o.timeout_factor, Some(3.0));
        // fault defaults: everything off
        let o = parse_args(&to_args(&["--space", "s", "--command", "c"])).unwrap();
        assert_eq!(o.app, None);
        assert_eq!(o.max_retries, 0);
        assert_eq!(o.fail_prob, 0.0);
        assert_eq!(o.timeout_factor, None);
        // --max-retries is a common flag, valid in command mode too
        let o = parse_args(&to_args(&[
            "--space",
            "s",
            "--command",
            "c",
            "--max-retries",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.max_retries, 3);
    }

    #[test]
    fn parallel_flags_parse_and_validate() {
        let o = parse_args(&to_args(&[
            "--app",
            "kripke",
            "--workers",
            "4",
            "--batch",
            "8",
        ]))
        .unwrap();
        assert_eq!(o.workers, 4);
        assert_eq!(o.batch, 8);
        // defaults: serial
        let o = parse_args(&to_args(&["--app", "kripke"])).unwrap();
        assert_eq!((o.workers, o.batch), (1, 1));
        assert!(parse_args(&to_args(&["--app", "kripke", "--workers", "0"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--batch", "0"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--workers", "two"])).is_err());
    }

    #[test]
    fn diagnostics_flags_parse() {
        let o = parse_args(&to_args(&[
            "--app",
            "kripke",
            "--metrics-out",
            "/tmp/m.prom",
            "--diag",
            "--strict-health",
            "--profile-out",
            "/tmp/p.folded",
        ]))
        .unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("/tmp/m.prom"));
        assert!(o.diag);
        assert!(o.strict_health);
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.folded"));
        // defaults: everything off
        let o = parse_args(&to_args(&["--app", "kripke"])).unwrap();
        assert!(!o.diag && !o.strict_health);
        assert!(o.metrics_out.is_none() && o.profile_out.is_none());
    }

    #[test]
    fn strict_health_surfaces_watchdog_alerts() {
        // A high injected failure rate with no retries must trip the
        // failure_rate watchdog; the same run without faults stays silent.
        let options = CliOptions {
            app: Some("kripke".into()),
            budget: 30,
            seed: 7,
            init_samples: 10,
            fail_prob: 0.6,
            strict_health: true,
            ..CliOptions::default()
        };
        let (_, alerts) = run_with_health(&options).unwrap();
        assert!(
            alerts.iter().any(|a| a.code == "failure_rate"),
            "{alerts:?}"
        );
        let healthy = CliOptions {
            fail_prob: 0.0,
            ..options
        };
        let (_, alerts) = run_with_health(&healthy).unwrap();
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn diag_run_writes_prometheus_and_profile_files() {
        use crate::obs::validate_prometheus;
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-diag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prom_path = dir.join("metrics.prom");
        let folded_path = dir.join("profile.folded");
        let options = CliOptions {
            app: Some("kripke".into()),
            budget: 20,
            seed: 4,
            init_samples: 8,
            metrics_out: Some(prom_path.to_string_lossy().into_owned()),
            profile_out: Some(folded_path.to_string_lossy().into_owned()),
            diag: true,
            ..CliOptions::default()
        };
        run(&options).unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        let stats = validate_prometheus(&prom).unwrap();
        assert!(stats.families > 0 && stats.samples > 0, "{prom}");
        assert!(prom.contains("hiperbot_tuner_iterations_total"), "{prom}");
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(folded.contains("run;tuner.fit "), "{folded}");
        assert!(folded.contains("run;tuner.evaluate "), "{folded}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn app_mode_parallel_run_matches_serial_batch_run() {
        // The determinism contract the CI parallel-smoke job relies on:
        // at a fixed --batch, every worker count yields the same result.
        let base = CliOptions {
            app: Some("kripke".into()),
            budget: 24,
            seed: 5,
            init_samples: 8,
            max_retries: 1,
            fail_prob: 0.15,
            batch: 4,
            ..CliOptions::default()
        };
        let serial = run(&base).unwrap();
        for workers in [2, 4] {
            let options = CliOptions {
                workers,
                ..base.clone()
            };
            assert_eq!(run(&options).unwrap(), serial, "workers = {workers}");
        }
    }

    #[test]
    fn command_mode_accepts_parallel_flags_on_continuous_spaces() {
        // Continuous spaces batch through the vectorized Proposal engine:
        // --workers/--batch are accepted, batch=1 through the parallel
        // path matches the pure serial path exactly, and at a fixed batch
        // every worker count yields the same result.
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-cont-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [{"type": "continuous", "name": "alpha", "lo": 0.0, "hi": 1.0}]}"#,
        )
        .unwrap();
        let base = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "echo {alpha}".into(),
            budget: 8,
            seed: 1,
            init_samples: 4,
            ..CliOptions::default()
        };
        let serial = run(&base).unwrap();
        let batched_serial = run(&CliOptions {
            workers: 2,
            batch: 1,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(batched_serial, serial, "batch=1 must match the serial path");
        let batch4 = run(&CliOptions {
            workers: 1,
            batch: 4,
            ..base.clone()
        })
        .unwrap();
        for workers in [2, 4] {
            let options = CliOptions {
                workers,
                batch: 4,
                ..base.clone()
            };
            assert_eq!(run(&options).unwrap(), batch4, "workers = {workers}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_mode_parallel_end_to_end() {
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [{"type": "ints", "name": "threads", "values": [1, 2, 4, 8]}]}"#,
        )
        .unwrap();
        let options = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "echo $(( {threads} > 2 ? {threads} - 2 : 2 - {threads} ))".into(),
            budget: 4,
            seed: 1,
            init_samples: 4,
            workers: 4,
            batch: 4,
            ..CliOptions::default()
        };
        let (cmd, best) = run(&options).unwrap();
        assert_eq!(best, 0.0);
        assert!(cmd.contains("2"), "best command: {cmd}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_flags_reject_bad_combinations() {
        // fault injection flags require app mode
        assert!(parse_args(&to_args(&[
            "--space",
            "s",
            "--command",
            "c",
            "--fail-prob",
            "0.2"
        ]))
        .is_err());
        assert!(parse_args(&to_args(&[
            "--space",
            "s",
            "--command",
            "c",
            "--timeout-factor",
            "2.0"
        ]))
        .is_err());
        // app mode excludes the command-mode flags
        assert!(parse_args(&to_args(&["--app", "kripke", "--space", "s"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--command", "c"])).is_err());
        // out-of-range values
        assert!(parse_args(&to_args(&["--app", "kripke", "--fail-prob", "1.5"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--fail-prob", "-0.1"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--timeout-factor", "0"])).is_err());
        assert!(parse_args(&to_args(&["--app", "kripke", "--timeout-factor", "inf"])).is_err());
    }

    #[test]
    fn app_mode_end_to_end_with_fault_injection() {
        let options = CliOptions {
            app: Some("kripke".into()),
            budget: 30,
            seed: 7,
            init_samples: 10,
            max_retries: 2,
            fail_prob: 0.2,
            timeout_factor: Some(4.0),
            ..CliOptions::default()
        };
        let (cfg, best) = run(&options).unwrap();
        assert!(best.is_finite() && best > 0.0, "best objective: {best}");
        assert!(cfg.contains('='), "rendered config: {cfg}");
        // Deterministic under faults: the same options reproduce the run,
        // retries included.
        let (cfg2, best2) = run(&options).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(best, best2);
    }

    #[test]
    fn app_mode_rejects_unknown_dataset() {
        let options = CliOptions {
            app: Some("nbody".into()),
            budget: 10,
            init_samples: 5,
            ..CliOptions::default()
        };
        let err = run(&options).unwrap_err();
        assert!(err.contains("unknown app"), "{err}");
    }

    #[test]
    fn command_mode_quarantines_failing_commands() {
        // The optimum (threads=2) always crashes; the tuner must survive the
        // failures and settle on the best *feasible* configuration instead of
        // panicking or reporting a sentinel.
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [{"type": "ints", "name": "threads", "values": [1, 2, 4, 8]}]}"#,
        )
        .unwrap();
        let options = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "if [ {threads} -eq 2 ]; then exit 1; fi; \
                      echo $(( {threads} > 2 ? {threads} - 2 : 2 - {threads} ))"
                .into(),
            budget: 8,
            seed: 3,
            init_samples: 4,
            ..CliOptions::default()
        };
        let (cmd, best) = run(&options).unwrap();
        // Best feasible: threads=1 or threads=4, both scoring 1 (never the
        // crashed optimum's 0, never a sentinel).
        assert_eq!(best, 1.0, "best command: {cmd}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_mode_reports_total_failure() {
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-allfail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("space.json");
        std::fs::write(
            &spec_path,
            r#"{"params": [{"type": "ints", "name": "threads", "values": [1, 2]}]}"#,
        )
        .unwrap();
        let options = CliOptions {
            space_path: spec_path.to_string_lossy().into_owned(),
            command: "exit 1".into(),
            budget: 3,
            init_samples: 2,
            ..CliOptions::default()
        };
        let err = run(&options).unwrap_err();
        assert!(err.contains("every evaluation"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let args: Vec<String> = [
            "--app",
            "kripke",
            "--checkpoint-out",
            "snap.json",
            "--checkpoint-every",
            "5",
            "--resume-from",
            "old.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.checkpoint_out.as_deref(), Some("snap.json"));
        assert_eq!(o.checkpoint_every, 5);
        assert_eq!(o.resume_from.as_deref(), Some("old.json"));

        let bad: Vec<String> = ["--app", "kripke", "--checkpoint-every", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).unwrap_err().contains("--checkpoint-every"));
    }

    #[test]
    fn app_mode_resumes_from_a_checkpoint_to_the_uninterrupted_result() {
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.json").to_string_lossy().into_owned();
        let base = CliOptions {
            app: Some("kripke".into()),
            budget: 24,
            seed: 13,
            init_samples: 8,
            fail_prob: 0.15,
            ..CliOptions::default()
        };
        let uninterrupted = run(&base).unwrap();

        // "Crash" at trial 15 by running a truncated budget, then resume
        // from its final snapshot and finish the campaign.
        let partial = CliOptions {
            budget: 15,
            checkpoint_out: Some(snap.clone()),
            checkpoint_every: 5,
            ..base.clone()
        };
        run(&partial).unwrap();
        let resumed = run(&CliOptions {
            resume_from: Some(snap),
            ..base.clone()
        })
        .unwrap();
        assert_eq!(resumed, uninterrupted);

        // Identity mismatch is refused loudly, not silently retuned.
        let err = run(&CliOptions {
            resume_from: Some(dir.join("snap.json").to_string_lossy().into_owned()),
            seed: 14,
            ..base.clone()
        })
        .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn app_mode_resumes_from_a_trace_when_no_snapshot_exists() {
        let dir = std::env::temp_dir().join(format!("hiperbot-cli-tres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl").to_string_lossy().into_owned();
        let base = CliOptions {
            app: Some("kripke".into()),
            budget: 24,
            seed: 21,
            init_samples: 8,
            ..CliOptions::default()
        };
        let uninterrupted = run(&base).unwrap();

        let partial = CliOptions {
            budget: 15,
            trace_out: Some(trace.clone()),
            ..base.clone()
        };
        run(&partial).unwrap();
        let resumed = run(&CliOptions {
            resume_from: Some(trace),
            ..base.clone()
        })
        .unwrap();
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
