//! The four closed-loop workloads and the session drivers that run them.
//!
//! Every workload drives the shipped app simulators through public APIs
//! only: [`Tuner`], [`BatchExecutor`], [`run_trials`] and the `apps`
//! datasets. One *session* is one complete tuning run (or, in the study,
//! one call of [`run_trials`] per method); a benchmark run repeats
//! sessions over seeds derived from the workload seed. All loops are
//! closed: one tuner at a time, and the next trial starts only after the
//! previous one has been merged.
//!
//! # Predictions
//!
//! Which end-to-end numbers each planned optimisation should move, by
//! workload (the per-layer metric that should show it is in brackets).
//! `pick_ms_p90` is the tuner's own time. `trials_per_s` is the only
//! end-to-end timing that covers GEIST's propagation and the executor; it
//! is printed but not gated (see the host-noise notes), so a claim on it
//! must clear its run-to-run spread:
//!
//! | change | serial-energy | batch-hypre-faults | proposal-lulesh | study-openatom |
//! |---|---|---|---|---|
//! | sublinear Ranking argmax (`core.select_ms`) | `pick_ms_p90`, `trials_per_s` improve most | improve, diluted by the executor | no change | small gain, GEIST dominates |
//! | one engine, incremental Proposal (`core.fit_ms`) | no change | no change | `pick_ms_p90`, `trials_per_s` improve | no change |
//! | pipeline removal (off by default) | no change | no change | no change | no change |
//! | incremental GEIST propagation (`baselines.geist.rep_ms`) | no change | no change | no change | `trials_per_s` improves |
//! | persistent executor workers (`eval.batch_ms_p90`) | no change | `trials_per_s` improves | no change | no change |
//!
//! # Host noise
//!
//! Measured on a 2-vCPU host with no hardware counters and about zero
//! steal time; user CPU time tracks wall-clock.
//!
//! - The host alternates between about 100 µs and about 195 µs per
//!   17,160-config Ranking sweep. Over ten runs of identical
//!   `serial-energy` code, throughput ranged from 4.9k to 8.5k trials/s
//!   and the per-pick p50 from 103 to 209 µs, while the p90's
//!   interquartile spread stayed at 3–7 % of its median. That is why the
//!   gated latency is `pick_ms_p90`; the p50 and p99 are per-layer only.
//! - Sets run back to back can disagree (median throughput 5557 vs 7118
//!   trials/s); sets interleaved run by run agreed (5733 vs 5625). Compare
//!   commits on interleaved runs.
//! - GEIST's propagation with two rayon threads took 3.7–7.2 s where one
//!   thread took 2.8–3.0 s: the vendored rayon starts scoped threads on
//!   every call. The benchmark pins the pool to one thread.
//! - With the pool pinned, `serial-energy` sessions still take about
//!   200 ms most of the time, about 110–130 ms during fast periods of
//!   seconds to minutes, and about 610 ms during slow bursts of a few
//!   seconds. All workloads speed up together, so the cause is the host,
//!   not one code path. The gated latency is therefore the slow-side pick
//!   p90, and `setup_s` takes its dataset builds spread over the run rather
//!   than at one instant.
//! - Over minutes the host also drifts, by up to 1.4x. In a 200-second
//!   `proposal-lulesh` run the median pick was 25 µs for the first 100 s
//!   and 35 µs for the rest. No statistic within one run averages out a
//!   drift that slow: cut into 20-second stretches, that run's pick p90,
//!   mean, median and low percentiles over 1-second windows spread 0.26 to
//!   0.38 of their medians. Unscaled, the pick p90 of ten 20-second runs
//!   of that workload spread up to 0.32. The gated timings are therefore
//!   scaled by a calibration kernel timed between sessions
//!   (`crate::calibration`).
//! - The fast periods can cover whole runs: in one set of ten runs, four
//!   `study-openatom` runs read a raw pick p90 of 0.067–0.074 ms against
//!   0.13–0.15 ms in the others. Sweep-heavy picks gain most in them
//!   (`serial-energy` and `study-openatom` take about half their normal
//!   time, `proposal-lulesh` and `batch-hypre-faults` 0.69–0.86) while
//!   the calibration kernel runs in 0.75–0.8 of its own. Scaled, that
//!   set's pick p90 spread 0.41 on `study-openatom` and 0.18 on
//!   `serial-energy`; a set dominated by fast periods can still push the
//!   study past its bound.
//! - Code that leans on the kernel or on memory moves more than the tuner:
//!   in slow periods `batch-hypre-faults` fell from about 11k to 3k
//!   trials/s (the executor starts threads for every batch) while its pick
//!   p90 rose by a tenth to a quarter. Over two sets of ten 20-second runs
//!   run back to back (seeds 7700–7709 and 7800–7809), the spread of the
//!   scaled 10th percentile of per-session throughput reached 0.47 on
//!   `batch-hypre-faults`, against at most 0.07 for the scaled pick p90.
//!   Throughput is therefore printed but not gated.

use crate::trace::{SpanId, Tracer};
use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};
use hiperbot_baselines::{
    ConfigSelector, GeistSelector, HiPerBOtSelector, RandomSelector, SelectionRun,
};
use hiperbot_core::{
    ChurnStats, EvalOutcome, ObservationHistory, SelectionStrategy, Tuner, TunerOptions,
};
use hiperbot_eval::executor::BatchExecutor;
use hiperbot_eval::experiments::config_selection::checkpoints;
use hiperbot_eval::faults::{outcome_from_sim, RetryPolicy};
use hiperbot_eval::metrics::{GoodSet, Recall};
use hiperbot_eval::runner::{run_trials, TrialConfig};
use hiperbot_obs::{ProfileRecorder, Recorder};
use hiperbot_perfsim::faults::FaultModel;
use hiperbot_space::{Configuration, ParameterSpace};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a workload drives the tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// The benchmark's own `step_fallible` loop, identical to
    /// [`Tuner::run_fallible`].
    Serial(SelectionStrategy),
    /// The benchmark's own `step_batch_fallible` loop, identical to
    /// [`Tuner::run_batch_fallible`], evaluating through a
    /// [`BatchExecutor`] with injected faults and retries.
    Batch {
        /// Configurations per batch.
        batch: usize,
        /// Executor worker threads.
        workers: usize,
        /// Crash probability of the fault model.
        fail_prob: f64,
        /// Retries per trial.
        max_retries: u32,
    },
    /// The paper's repetition protocol: [`run_trials`] with Random, GEIST
    /// and HiPerBOt, `reps` repetitions per method and session.
    Study {
        /// Repetitions per method in one session.
        reps: usize,
    },
}

/// Which shipped simulator a workload tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Kripke energy under power caps (17,160 configs).
    KripkeEnergy,
    /// HYPRE new_ij (5,184 configs).
    Hypre,
    /// LULESH compiler flags (4,800 configs).
    Lulesh,
    /// OpenAtom decomposition (9,216 configs).
    OpenAtom,
}

impl App {
    /// Builds the app's dataset: the workload's one-time set-up.
    pub fn dataset(self) -> Dataset {
        match self {
            App::KripkeEnergy => kripke::energy_dataset(Scale::Target),
            App::Hypre => hypre::dataset(Scale::Target),
            App::Lulesh => lulesh::dataset(Scale::Target),
            App::OpenAtom => openatom::dataset(Scale::Target),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// The simulator it tunes.
    pub app: App,
    /// How it drives the tuner.
    pub kind: Loop,
    /// Trials per tuning run (per repetition in the study).
    pub budget: usize,
    /// The recall good set.
    pub good: GoodSet,
    /// Sessions whose quality metrics are reported, and which the traced
    /// pass replays. Every run completes at least this many, so quality
    /// figures depend on the seed alone, never on host speed.
    pub quality_sessions: usize,
}

/// `serial-energy` — serial loop, Ranking with default options, Kripke
/// energy, budget 1000, good set within 10 % of the best (fig. 3).
///
/// Why: the pool sweep (`core::selection::rank_encoded`) is ~99 % of
/// fit + select time here (a traced run on a 2-vCPU host measured
/// `tuner.select` 458 ms against `tuner.fit` 6 ms over 3,920 picks), so the
/// sublinear-argmax item must show its gain here. No executor, faults or
/// fantasies.
pub const SERIAL_ENERGY: Workload = Workload {
    name: "serial-energy",
    why: "serial Ranking on the 17,160-config Kripke energy pool, budget 1000: the pool sweep is ~99% of tuner time",
    app: App::KripkeEnergy,
    kind: Loop::Serial(SelectionStrategy::Ranking),
    budget: 1000,
    good: GoodSet::Tolerance(0.10),
    quality_sessions: 16,
};

/// `batch-hypre-faults` — batch loop on HYPRE: `step_batch_fallible` with
/// batch 8 through a 2-worker [`BatchExecutor`] (2 equals the host's
/// `nproc`), crashes from `FaultModel::new(seed, 0.2)` via
/// `Dataset::evaluate_outcome`, at most 2 retries with no sleeping. This is
/// the CLI's `--app hypre --workers 2 --batch 8 --fail-prob 0.2
/// --max-retries 2`. Budget 441, good set = 2nd percentile (fig. 4).
///
/// Why: the same tuner used differently. Constant-liar fantasies churn the
/// incremental engine (observe/pop) alongside 8 sweeps per batch; the
/// executor starts threads for every batch (12–22 % of wall-clock in
/// traced runs on a 2-vCPU host); retries and quarantine run
/// (`completed_frac` ≈ 0.98). Pipeline removal and the one-engine item must
/// show no change here. The run's quality figures average 192 sessions:
/// over ten seeds the spread of `recall` reached 0.055 with 96 sessions
/// and stayed at 0.020–0.022 with 192.
pub const BATCH_HYPRE_FAULTS: Workload = Workload {
    name: "batch-hypre-faults",
    why: "batch-8 constant-liar Ranking on HYPRE through a 2-worker executor with 20% injected crashes and 2 retries",
    app: App::Hypre,
    kind: Loop::Batch {
        batch: 8,
        workers: 2,
        fail_prob: 0.2,
        max_retries: 2,
    },
    budget: 441,
    good: GoodSet::Percentile(0.02),
    quality_sessions: 192,
};

/// `proposal-lulesh` — serial loop on LULESH with
/// `SelectionStrategy::Proposal { candidates: 32 }` (the `ablation_methods`
/// arm). Budget 446, good set = 2nd percentile (fig. 5).
///
/// Why: there is no pool sweep, so sublinear argmax predicts no change
/// here. Full refits are ~46 % of fit + select (fit 21.7 ms, select
/// 25.8 ms over 1,708 steps in a traced run on a 2-vCPU host) — the cost
/// the one-engine item moves onto the incremental engine. Duplicate-draw
/// stalls show up as wasted steps (`core.stall_frac`).
pub const PROPOSAL_LULESH: Workload = Workload {
    name: "proposal-lulesh",
    why: "serial Proposal sampling (32 candidates) on LULESH: full surrogate refits and draws, no pool sweep",
    app: App::Lulesh,
    kind: Loop::Serial(SelectionStrategy::Proposal { candidates: 32 }),
    budget: 446,
    good: GoodSet::Percentile(0.02),
    quality_sessions: 24,
};

/// `study-openatom` — the paper's repetition protocol: [`run_trials`] with
/// Random, GEIST and HiPerBOt on OpenAtom at the fig. 6 checkpoints (max
/// 439), good set = 2nd percentile.
///
/// Why: this is the path that regenerates the figures. GEIST's CAMLP
/// propagation is 80–88 % of its wall-clock and runs in no other workload,
/// and each repetition builds a fresh tuner pool — a set-up cost the long
/// serial sessions spread out. HiPerBOt's recall here varies most from
/// seed to seed of any workload, so the run's quality figures average 48
/// sessions (96 HiPerBOt repetitions): over ten seeds the spread of
/// `recall` was 0.077 with 16 sessions, 0.034 to 0.061 with 32 and 0.023
/// to 0.030 with 48.
pub const STUDY_OPENATOM: Workload = Workload {
    name: "study-openatom",
    why: "the figure path: run_trials with Random, GEIST and HiPerBOt on OpenAtom at fig. 6 budgets; GEIST propagation runs only here",
    app: App::OpenAtom,
    kind: Loop::Study { reps: 2 },
    budget: checkpoints::FIG6[checkpoints::FIG6.len() - 1],
    good: GoodSet::Percentile(0.02),
    quality_sessions: 48,
};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    SERIAL_ENERGY,
    BATCH_HYPRE_FAULTS,
    PROPOSAL_LULESH,
    STUDY_OPENATOM,
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Optional instrumentation for the traced pass. Untraced sessions carry
/// `None` in both fields and take no spans.
#[derive(Clone, Copy, Default)]
pub struct Tracing<'a> {
    /// Span sink for the benchmark's own spans.
    pub tracer: Option<&'a Tracer>,
    /// The tuner event sink folding `SurrogateFit`/`SelectionScored`.
    pub profile: Option<&'a Arc<ProfileRecorder>>,
}

impl Tracing<'_> {
    fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        self.tracer.map(|t| t.open(name, parent))
    }

    fn close(&self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.tracer, id) {
            t.close(id);
        }
    }
}

/// Timings and counters, accumulated over the sessions of a pass.
#[derive(Debug, Default)]
pub struct Probe {
    /// Tuner time per trial after the bootstrap, in nanoseconds.
    pub picks_ns: Vec<u64>,
    /// Tuner time of each session's bootstrap, in nanoseconds.
    pub bootstrap_ns: Vec<u64>,
    /// Post-bootstrap steps, stalled ones included.
    pub steps: usize,
    /// Steps that evaluated nothing (Proposal duplicate draws).
    pub stalls: usize,
    /// Engine churn counters of the sessions' tuners (insert, remove and
    /// rescore counts; the study's selector does not expose its tuners).
    pub churn: ChurnStats,
    /// Executor retries.
    pub retries: u64,
    /// Wall time of each HiPerBOt run (a session, or a study repetition).
    pub hiperbot_runs_ns: Vec<u64>,
}

/// Quality and accounting of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Trials attempted, all methods included.
    pub trials: usize,
    /// Trials that produced an observation.
    pub completed: usize,
    /// Trials quarantined as permanent failures.
    pub failed: usize,
    /// HiPerBOt's best objective over the exhaustive best.
    pub best_ratio: f64,
    /// HiPerBOt's recall at the budget.
    pub recall: f64,
    /// GEIST's best ratio and recall (study only).
    pub geist: Option<(f64, f64)>,
}

/// One finished session: its quality, and the tuner when the session was
/// a single tuning run (for the parity checks).
pub struct Session {
    /// Quality and accounting.
    pub quality: Quality,
    /// The session's tuner (tuner workloads only).
    pub tuner: Option<Tuner>,
}

/// A workload with its dataset and the selectors it reuses across
/// sessions.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Its dataset; `None` only while [`rebuild`](Self::rebuild) runs.
    dataset: Option<Dataset>,
    recall: Recall,
    exhaustive_best: f64,
    /// GEIST caches its configuration graph per pool, like one figure run
    /// reusing one selector across repetitions.
    geist: GeistSelector,
}

impl Bench {
    /// Binds `workload` to `dataset`.
    pub fn new(workload: Workload, dataset: Dataset) -> Self {
        Self {
            workload,
            recall: Recall::new(&dataset, workload.good),
            exhaustive_best: dataset.best().1,
            dataset: Some(dataset),
            geist: GeistSelector::default(),
        }
    }

    /// The workload's dataset.
    pub fn dataset(&self) -> &Dataset {
        self.dataset.as_ref().expect("the dataset is built")
    }

    /// Drops the dataset and replaces it with the one `build` makes, so
    /// peak memory never holds two. Builds are deterministic: the new
    /// dataset equals the old one.
    pub fn rebuild(&mut self, build: impl FnOnce() -> Dataset) {
        self.dataset = None;
        self.dataset = Some(build());
    }

    /// Runs one session with `seed`. `workers` overrides the batch
    /// workload's executor width (for the worker-count check).
    pub fn session(
        &self,
        seed: u64,
        workers: Option<usize>,
        tracing: Tracing<'_>,
        probe: &mut Probe,
    ) -> Session {
        match self.workload.kind {
            Loop::Serial(strategy) => self.serial_session(strategy, seed, tracing, probe),
            Loop::Batch {
                batch,
                workers: w,
                fail_prob,
                max_retries,
            } => {
                let faults = Faults::new(seed, fail_prob, max_retries);
                self.batch_session(batch, workers.unwrap_or(w), faults, seed, tracing, probe)
            }
            Loop::Study { reps } => self.study_session(reps, seed, tracing, probe),
        }
    }

    /// The tuner every tuner workload builds for a session.
    fn tuner(&self, strategy: SelectionStrategy, seed: u64, tracing: Tracing<'_>) -> Tuner {
        let options = TunerOptions::default()
            .with_seed(seed)
            .with_strategy(strategy);
        let mut tuner = Tuner::new(self.dataset().space().clone(), options);
        if let Some(profile) = tracing.profile {
            tuner.set_recorder(Arc::clone(profile) as Arc<dyn Recorder>);
        }
        tuner
    }

    fn tuner_quality(&self, tuner: &Tuner) -> Quality {
        let history = tuner.history();
        let best = history.best().map_or(f64::INFINITY, |(_, _, y)| y);
        Quality {
            trials: history.trials(),
            completed: history.len(),
            failed: history.n_failures(),
            best_ratio: best / self.exhaustive_best,
            recall: self
                .recall
                .of_prefix(history.objectives(), self.workload.budget),
            geist: None,
        }
    }

    fn finish_tuner_session(&self, tuner: Tuner, started: Instant, probe: &mut Probe) -> Session {
        probe.hiperbot_runs_ns.push(nanos(started.elapsed()));
        if let Some(churn) = tuner.churn_stats() {
            probe.churn.inserts += churn.inserts;
            probe.churn.removes += churn.removes;
            probe.churn.columns_rescored += churn.columns_rescored;
        }
        Session {
            quality: self.tuner_quality(&tuner),
            tuner: Some(tuner),
        }
    }

    /// The serial loop: the body of [`Tuner::run_fallible`] with each step
    /// timed. The objective time inside a step is subtracted, so a pick is
    /// the tuner's own time.
    fn serial_session(
        &self,
        strategy: SelectionStrategy,
        seed: u64,
        tracing: Tracing<'_>,
        probe: &mut Probe,
    ) -> Session {
        let started = Instant::now();
        let session = tracing.open("session", None);
        let budget = self.workload.budget;
        let mut tuner = self.tuner(strategy, seed, tracing);
        let ds = self.dataset();
        let in_objective = Cell::new(Duration::ZERO);
        let step_span = Cell::new(None);
        let mut objective = |cfg: &Configuration| {
            let span = tracing.open("apps.evaluate", step_span.get());
            let t = Instant::now();
            let out = EvalOutcome::from_value(ds.evaluate(cfg));
            in_objective.set(in_objective.get() + t.elapsed());
            tracing.close(span);
            out
        };
        // One timed step; returns its time outside the objective.
        let mut step = |tuner: &mut Tuner, name: &'static str| {
            in_objective.set(Duration::ZERO);
            step_span.set(tracing.open(name, session));
            let t = Instant::now();
            let progressed = tuner.step_fallible(&mut objective);
            let elapsed = t.elapsed();
            tracing.close(step_span.get());
            (
                progressed,
                nanos(elapsed.saturating_sub(in_objective.get())),
            )
        };
        // The first step is the bootstrap (budget > init_samples, so the
        // bootstrap is not clamped, exactly as in `run_fallible`).
        let (_, boot) = step(&mut tuner, "core.bootstrap");
        probe.bootstrap_ns.push(boot);

        let mut stall_guard = 0usize;
        while tuner.history().trials() < budget {
            let before = tuner.history().trials();
            let (progressed, pick) = step(&mut tuner, "core.step");
            probe.picks_ns.push(pick);
            probe.steps += 1;
            if !progressed {
                break;
            }
            if tuner.history().trials() == before {
                probe.stalls += 1;
                stall_guard += 1;
                if stall_guard > 100 * budget {
                    break;
                }
            } else {
                stall_guard = 0;
            }
        }
        tracing.close(session);
        self.finish_tuner_session(tuner, started, probe)
    }

    /// The batch loop: the body of [`Tuner::run_batch_fallible`] with each
    /// step timed. A pick is the step's time outside `evaluate_batch`,
    /// divided by the configurations the step evaluated.
    fn batch_session(
        &self,
        batch: usize,
        workers: usize,
        faults: Faults,
        seed: u64,
        tracing: Tracing<'_>,
        probe: &mut Probe,
    ) -> Session {
        let started = Instant::now();
        let session = tracing.open("session", None);
        let budget = self.workload.budget;
        let mut tuner = self.tuner(SelectionStrategy::Ranking, seed, tracing);
        let ds = self.dataset();
        // Parent of the worker-side evaluate spans: the open `eval.batch`.
        let batch_span = AtomicUsize::new(usize::MAX);
        let executor = faults.executor(ds, workers, tracing, &batch_span);
        let in_eval = Cell::new(Duration::ZERO);
        let evaluated = Cell::new(0usize);
        let step_span = Cell::new(None);
        let mut evaluate = |cfgs: &[Configuration], base: u64| {
            let span = tracing.open("eval.batch", step_span.get());
            batch_span.store(span.unwrap_or(usize::MAX), Ordering::SeqCst);
            let t = Instant::now();
            let out = executor.evaluate_batch(cfgs, base);
            in_eval.set(in_eval.get() + t.elapsed());
            tracing.close(span);
            evaluated.set(evaluated.get() + cfgs.len());
            out
        };
        // One timed step; returns its time outside `evaluate_batch` and
        // how many configurations it evaluated.
        let mut step = |tuner: &mut Tuner, k: usize, name: &'static str| {
            in_eval.set(Duration::ZERO);
            evaluated.set(0);
            step_span.set(tracing.open(name, session));
            let t = Instant::now();
            let progressed = tuner.step_batch_fallible(k, &mut evaluate);
            let elapsed = t.elapsed();
            tracing.close(step_span.get());
            let own = nanos(elapsed.saturating_sub(in_eval.get()));
            (progressed, own, evaluated.get())
        };
        // The first step is the chunked bootstrap, as in
        // `run_batch_fallible` (budget > init_samples: no clamping).
        let (_, boot, _) = step(&mut tuner, batch, "core.bootstrap");
        probe.bootstrap_ns.push(boot);

        let mut stall_guard = 0usize;
        while tuner.history().trials() < budget {
            let before = tuner.history().trials();
            let k = batch.min(budget - before);
            let (progressed, own, n) = step(&mut tuner, k, "core.step");
            probe.steps += 1;
            if n > 0 {
                probe.picks_ns.push(own / n as u64);
            } else {
                probe.stalls += 1;
            }
            if !progressed {
                break;
            }
            if tuner.history().trials() == before {
                stall_guard += 1;
                if stall_guard > 100 * budget {
                    break;
                }
            } else {
                stall_guard = 0;
            }
        }
        tracing.close(session);
        probe.retries += executor.retries();
        self.finish_tuner_session(tuner, started, probe)
    }

    /// The study: one [`run_trials`] call per method, each selector wrapped
    /// so its repetitions and objective calls are timed from outside.
    fn study_session(
        &self,
        reps: usize,
        seed: u64,
        tracing: Tracing<'_>,
        probe: &mut Probe,
    ) -> Session {
        let session = tracing.open("session", None);
        let trial = TrialConfig::new(checkpoints::FIG6.to_vec())
            .with_repetitions(reps)
            .with_good(self.workload.good)
            .with_seed(seed);
        let hiperbot = match tracing.profile {
            Some(p) => {
                HiPerBOtSelector::default().with_recorder(Arc::clone(p) as Arc<dyn Recorder>)
            }
            None => HiPerBOtSelector::default(),
        };
        let random = Timed::new(&RandomSelector, "baselines.random.rep", tracing, session);
        let geist = Timed::new(&self.geist, "baselines.geist.rep", tracing, session);
        let tpe = Timed::new(&hiperbot, "baselines.hiperbot.rep", tracing, session);
        run_trials(self.dataset(), &random, &trial);
        let geist_stats = run_trials(self.dataset(), &geist, &trial);
        let tpe_stats = run_trials(self.dataset(), &tpe, &trial);
        tracing.close(session);
        let (random, geist, tpe) = (random.into_reps(), geist.into_reps(), tpe.into_reps());

        // With the pool pinned to one thread, repetitions and their
        // objective calls run in order, so consecutive calls bracket the
        // tuner's work for one pick.
        let init = hiperbot.init_samples;
        for rep in &tpe {
            probe.hiperbot_runs_ns.push(rep.wall_ns);
            let boot = &rep.calls[..init.min(rep.calls.len())];
            if let Some(&(_, end)) = boot.last() {
                let eval: u64 = boot.iter().map(|&(a, b)| b - a).sum();
                probe.bootstrap_ns.push(end - eval);
            }
            for pair in rep.calls[init.saturating_sub(1)..].windows(2) {
                probe.picks_ns.push(pair[1].0 - pair[0].1);
                probe.steps += 1;
            }
        }
        let last = |stats: &[hiperbot_eval::runner::CheckpointStats]| {
            let row = stats.last().expect("the study has checkpoints");
            (row.best.mean() / self.exhaustive_best, row.recall.mean())
        };
        let (best_ratio, recall) = last(&tpe_stats);
        let mut quality = Quality {
            trials: 0,
            completed: 0,
            failed: 0,
            best_ratio,
            recall,
            geist: Some(last(&geist_stats)),
        };
        for rep in random.iter().chain(&geist).chain(&tpe) {
            quality.trials += rep.calls.len();
            quality.completed += rep.observations;
            quality.failed += rep.failures;
        }
        Session {
            quality,
            tuner: None,
        }
    }

    /// Checks one session's accounting: trials equal the budget (per
    /// repetition and method in the study), completed + failed equal
    /// trials, and the best found is no better than the exhaustive best.
    pub fn check_session(&self, index: usize, s: &Session) -> Vec<String> {
        let mut bad = Vec::new();
        let q = &s.quality;
        let runs = match self.workload.kind {
            Loop::Study { reps } => 3 * reps,
            _ => 1,
        };
        if q.trials != runs * self.workload.budget {
            bad.push(format!(
                "session {index}: {} trials, expected {} x budget {}",
                q.trials, runs, self.workload.budget
            ));
        }
        if q.completed + q.failed != q.trials {
            bad.push(format!(
                "session {index}: completed {} + failed {} != trials {}",
                q.completed, q.failed, q.trials
            ));
        }
        let ratios = std::iter::once(q.best_ratio).chain(q.geist.map(|g| g.0));
        for ratio in ratios {
            if ratio.is_nan() || ratio < 1.0 {
                bad.push(format!("session {index}: best_ratio {ratio} < 1"));
            }
        }
        bad
    }
}

/// The batch workload's fault injection and retry policy.
struct Faults {
    model: FaultModel,
    policy: RetryPolicy,
}

impl Faults {
    /// The CLI's fault injection for `--seed seed --fail-prob fail_prob
    /// --max-retries max_retries`.
    fn new(seed: u64, fail_prob: f64, max_retries: u32) -> Self {
        Self {
            model: FaultModel::new(seed, fail_prob),
            policy: RetryPolicy::default()
                .with_max_retries(max_retries)
                .with_seed(seed),
        }
    }

    /// The executor the CLI builds for `--app`, `--workers`,
    /// `--fail-prob` and `--max-retries`: simulated crashes, retried
    /// without sleeping.
    fn executor<'a>(
        self,
        ds: &'a Dataset,
        workers: usize,
        tracing: Tracing<'a>,
        batch_span: &'a AtomicUsize,
    ) -> BatchExecutor<impl Fn(&Configuration, u64, u32) -> EvalOutcome + Sync + 'a> {
        let model = self.model;
        BatchExecutor::new(
            move |cfg: &Configuration, _trial: u64, attempt: u32| {
                let parent = match batch_span.load(Ordering::SeqCst) {
                    usize::MAX => None,
                    id => Some(id),
                };
                let span = tracing.open("apps.evaluate", parent);
                let out = outcome_from_sim(ds.evaluate_outcome(cfg, &model, attempt));
                tracing.close(span);
                out
            },
            workers,
        )
        .with_policy(self.policy)
    }
}

/// One timed repetition of a wrapped selector.
#[derive(Debug)]
struct Rep {
    /// Wall time of the whole `select` call.
    wall_ns: u64,
    /// `(start, end)` of every objective call, in nanoseconds since the
    /// repetition started.
    calls: Vec<(u64, u64)>,
    observations: usize,
    failures: usize,
}

/// A benchmark-side [`ConfigSelector`] wrapper timing each repetition and
/// each objective call of the wrapped method. It passes objective values
/// and seeds through untouched.
struct Timed<'a, S> {
    inner: &'a S,
    span: &'static str,
    tracing: Tracing<'a>,
    parent: Option<SpanId>,
    reps: Mutex<Vec<Rep>>,
}

impl<'a, S: ConfigSelector> Timed<'a, S> {
    fn new(inner: &'a S, span: &'static str, tracing: Tracing<'a>, parent: Option<SpanId>) -> Self {
        Self {
            inner,
            span,
            tracing,
            parent,
            reps: Mutex::new(Vec::new()),
        }
    }

    fn into_reps(self) -> Vec<Rep> {
        self.reps.into_inner().expect("rep log poisoned")
    }
}

impl<S: ConfigSelector> ConfigSelector for Timed<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        let span = self.tracing.open(self.span, self.parent);
        let started = Instant::now();
        let calls = Mutex::new(Vec::with_capacity(budget));
        let timed = |cfg: &Configuration| {
            let eval_span = self.tracing.open("apps.evaluate", span);
            let a = nanos(started.elapsed());
            let y = objective(cfg);
            let b = nanos(started.elapsed());
            self.tracing.close(eval_span);
            calls.lock().expect("call log poisoned").push((a, b));
            y
        };
        let run = self.inner.select(space, pool, &timed, budget, seed);
        let wall_ns = nanos(started.elapsed());
        self.tracing.close(span);
        let calls = calls.into_inner().expect("call log poisoned");
        self.reps.lock().expect("rep log poisoned").push(Rep {
            wall_ns,
            calls,
            observations: run.len(),
            failures: run.failures,
        });
        run
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Whether two histories are bit-identical: same configurations in the
/// same order, objectives equal bit for bit, same quarantined failures.
pub fn same_history(a: &ObservationHistory, b: &ObservationHistory) -> bool {
    a.configs() == b.configs()
        && a.failures() == b.failures()
        && a.objectives().len() == b.objectives().len()
        && a.objectives()
            .iter()
            .zip(b.objectives())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The reference run of a tuner workload's session through the shipped
/// driver (`run_fallible` / `run_batch_fallible`): its history and the
/// stall count the driver reports, for the parity check.
pub fn reference_run(bench: &Bench, seed: u64) -> Option<(ObservationHistory, usize)> {
    let ds = bench.dataset();
    let budget = bench.workload.budget;
    let tuner = match bench.workload.kind {
        Loop::Serial(strategy) => {
            let mut tuner = bench.tuner(strategy, seed, Tracing::default());
            tuner.run_fallible(budget, |c| EvalOutcome::from_value(ds.evaluate(c)));
            tuner
        }
        Loop::Batch {
            batch,
            workers,
            fail_prob,
            max_retries,
        } => {
            let faults = Faults::new(seed, fail_prob, max_retries);
            let unused = AtomicUsize::new(usize::MAX);
            let executor = faults.executor(ds, workers, Tracing::default(), &unused);
            let mut tuner = bench.tuner(SelectionStrategy::Ranking, seed, Tracing::default());
            tuner.run_batch_fallible(budget, batch, |cfgs, base| {
                executor.evaluate_batch(cfgs, base)
            });
            tuner
        }
        Loop::Study { .. } => return None,
    };
    Some((tuner.history().clone(), tuner.stalls()))
}
