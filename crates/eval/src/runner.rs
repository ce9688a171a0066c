//! The repeated-trial experiment runner (paper §V: "running the model
//! algorithm 50 times and reporting the mean and standard deviation").

use crate::metrics::{GoodSet, Recall};
use hiperbot_apps::Dataset;
use hiperbot_baselines::ConfigSelector;
use hiperbot_obs::{
    DiagnosticsRecorder, DiagnosticsSummary, Event, NoopRecorder, Recorder, SpanTimer,
};
use hiperbot_stats::{SeedSequence, Summary};
use rayon::prelude::*;

/// One experiment's shape.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Sample-size checkpoints at which metrics are recorded (the x-axis
    /// of the paper's figures).
    pub checkpoints: Vec<usize>,
    /// Independent repetitions (paper: 50).
    pub repetitions: usize,
    /// Master seed; each repetition derives an independent stream.
    pub seed: u64,
    /// Definition of the "good" set for Recall.
    pub good: GoodSet,
}

impl TrialConfig {
    /// The paper's default: 50 repetitions, 20 %-percentile good set.
    pub fn new(checkpoints: Vec<usize>) -> Self {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        Self {
            checkpoints,
            repetitions: 50,
            seed: 0xE0A7_2020,
            good: GoodSet::Percentile(0.02),
        }
    }

    /// Overrides the repetition count (e.g. from `HIPERBOT_REPS`).
    pub fn with_repetitions(mut self, reps: usize) -> Self {
        assert!(reps > 0);
        self.repetitions = reps;
        self
    }

    /// Overrides the good-set criterion.
    pub fn with_good(mut self, good: GoodSet) -> Self {
        self.good = good;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Aggregated metrics at one checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointStats {
    /// The sample budget this row describes.
    pub samples: usize,
    /// Best-configuration metric across repetitions.
    pub best: Summary,
    /// Recall metric across repetitions.
    pub recall: Summary,
}

/// Runs `method` on `dataset` under the protocol in `config`.
///
/// Repetitions run in parallel under rayon, on `RAYON_NUM_THREADS` threads
/// (default: the host's logical cores). Each gets an independent seed
/// derived from the master seed and the results are joined in repetition
/// order, so they are identical regardless of thread count or scheduling.
pub fn run_trials(
    dataset: &Dataset,
    method: &dyn ConfigSelector,
    config: &TrialConfig,
) -> Vec<CheckpointStats> {
    run_trials_traced(dataset, method, config, &NoopRecorder)
}

/// [`run_trials`] with per-repetition tracing: emits `TrialStart` /
/// `TrialFinished` around each repetition and one `CheckpointRecorded`
/// per checkpoint row. The recorder is shared across rayon workers, so
/// events from concurrent repetitions interleave — each event carries its
/// `rep` index for disentangling. With a disabled recorder this is exactly
/// `run_trials`.
fn run_trials_traced(
    dataset: &Dataset,
    method: &dyn ConfigSelector,
    config: &TrialConfig,
    recorder: &dyn Recorder,
) -> Vec<CheckpointStats> {
    let budget = *config
        .checkpoints
        .iter()
        .max()
        .expect("non-empty checkpoints");
    let recall = Recall::new(dataset, config.good);
    let traced = recorder.enabled();
    // The selectors take the pool as a slice; it lives for this call only.
    let pool = dataset.to_configs();

    // Pre-derive per-repetition seeds (order-independent determinism).
    let mut seq = SeedSequence::new(config.seed);
    let seeds: Vec<u64> = (0..config.repetitions).map(|_| seq.next_seed()).collect();

    let per_rep: Vec<Vec<(f64, f64)>> = seeds
        .par_iter()
        .enumerate()
        .map(|(rep, &seed)| {
            if traced {
                recorder.record(&Event::TrialStart {
                    rep: rep as u64,
                    seed,
                    method: method.name().to_string(),
                });
            }
            let timer = SpanTimer::start(traced);
            let run = method.select(
                dataset.space(),
                &pool,
                &|c| dataset.evaluate(c),
                budget,
                seed,
            );
            let rows: Vec<(f64, f64)> = config
                .checkpoints
                .iter()
                .map(|&n| (run.best_within(n), recall.of_prefix(&run.objectives, n)))
                .collect();
            if let Some(elapsed_ns) = timer.elapsed_ns() {
                for (&n, &(best, rec)) in config.checkpoints.iter().zip(&rows) {
                    recorder.record(&Event::CheckpointRecorded {
                        rep: rep as u64,
                        samples: n as u64,
                        best,
                        recall: rec,
                    });
                }
                recorder.record(&Event::TrialFinished {
                    rep: rep as u64,
                    seed,
                    method: method.name().to_string(),
                    evaluations: run.len() as u64,
                    best: run.best_within(run.len()),
                    elapsed_ns,
                });
            }
            rows
        })
        .collect();

    config
        .checkpoints
        .iter()
        .enumerate()
        .map(|(ci, &n)| {
            let mut best = Summary::new();
            let mut rec = Summary::new();
            for rep in &per_rep {
                best.push(rep[ci].0);
                rec.push(rep[ci].1);
            }
            CheckpointStats {
                samples: n,
                best,
                recall: rec,
            }
        })
        .collect()
}

/// [`run_trials`] with its per-repetition events (`TrialStart`,
/// `CheckpointRecorded`, `TrialFinished`) sent to the caller's recorder and
/// to a [`DiagnosticsRecorder`] teed alongside it, returning the health
/// summary next to the stats — the figure-report pipeline attaches this to
/// its output so a rendered report carries the run's own health verdict.
/// The per-trial event stream has no tuner-iteration events, so the
/// interesting fields are the trial counters (evaluations, failures) and
/// the watchdog's alerts; all of them fold commutatively, which keeps the
/// summary deterministic even though rayon workers interleave their
/// events.
pub fn run_trials_diagnosed(
    dataset: &Dataset,
    method: &dyn ConfigSelector,
    config: &TrialConfig,
    recorder: &dyn Recorder,
) -> (Vec<CheckpointStats>, DiagnosticsSummary) {
    /// A borrowed two-way tee: the caller's sink plus the diagnostics
    /// recorder, without forcing the `&dyn` signature into `Arc`s.
    struct Tee<'a> {
        caller: &'a dyn Recorder,
        diag: &'a DiagnosticsRecorder,
    }
    impl Recorder for Tee<'_> {
        fn enabled(&self) -> bool {
            true
        }
        fn record(&self, event: &Event) {
            if self.caller.enabled() {
                self.caller.record(event);
            }
            self.diag.record(event);
        }
        fn flush(&self) {
            self.caller.flush();
        }
    }
    let diag = DiagnosticsRecorder::new();
    let tee = Tee {
        caller: recorder,
        diag: &diag,
    };
    let stats = run_trials_traced(dataset, method, config, &tee);
    (stats, diag.summary())
}

/// Reads the repetition count from `HIPERBOT_REPS` (default: the paper's
/// 50). The reproduction binaries use this so CI and slow machines can
/// dial effort down without touching the protocol.
pub fn repetitions_from_env() -> usize {
    std::env::var("HIPERBOT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_baselines::{HiPerBOtSelector, RandomSelector, SelectionRun};
    use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};

    fn dataset() -> Dataset {
        let vals: Vec<i64> = (0..12).collect();
        let space = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap();
        Dataset::generate("toy", "time", space, 3, 0.0, |c, _| {
            let x = c.value(0).index() as f64;
            let y = c.value(1).index() as f64;
            (x - 8.0).powi(2) + (y - 4.0).powi(2) + 1.0
        })
    }

    #[test]
    fn stats_have_the_requested_shape() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![10, 20, 40])
            .with_repetitions(6)
            .with_good(GoodSet::Percentile(0.05));
        let stats = run_trials(&d, &RandomSelector, &cfg);
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert_eq!(s.best.count(), 6);
            assert_eq!(s.recall.count(), 6);
        }
    }

    #[test]
    fn best_metric_improves_with_budget() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![10, 40, 100])
            .with_repetitions(8)
            .with_good(GoodSet::Percentile(0.05));
        let stats = run_trials(&d, &RandomSelector, &cfg);
        assert!(stats[0].best.mean() >= stats[1].best.mean());
        assert!(stats[1].best.mean() >= stats[2].best.mean());
    }

    #[test]
    fn recall_grows_with_budget() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![20, 60, 120])
            .with_repetitions(8)
            .with_good(GoodSet::Percentile(0.1));
        let stats = run_trials(&d, &HiPerBOtSelector::default(), &cfg);
        assert!(stats[2].recall.mean() > stats[0].recall.mean());
    }

    #[test]
    fn hiperbot_beats_random_on_the_toy_dataset() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![40])
            .with_repetitions(10)
            .with_good(GoodSet::Percentile(0.05));
        let hb = run_trials(&d, &HiPerBOtSelector::default(), &cfg);
        let rnd = run_trials(&d, &RandomSelector, &cfg);
        assert!(
            hb[0].best.mean() <= rnd[0].best.mean(),
            "HiPerBOt {} vs Random {}",
            hb[0].best.mean(),
            rnd[0].best.mean()
        );
        assert!(hb[0].recall.mean() >= rnd[0].recall.mean());
    }

    #[test]
    fn traced_runs_match_untraced_and_emit_per_trial_events() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![10, 20]).with_repetitions(3);
        let plain = run_trials(&d, &RandomSelector, &cfg);
        let recorder = hiperbot_obs::MemoryRecorder::new();
        let traced = run_trials_traced(&d, &RandomSelector, &cfg, &recorder);
        assert_eq!(plain[0].best.mean(), traced[0].best.mean());
        assert_eq!(plain[1].recall.mean(), traced[1].recall.mean());
        let events = recorder.events();
        let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, Event::TrialStart { .. })), 3);
        assert_eq!(count(|e| matches!(e, Event::TrialFinished { .. })), 3);
        // 3 reps × 2 checkpoints
        assert_eq!(count(|e| matches!(e, Event::CheckpointRecorded { .. })), 6);
    }

    #[test]
    fn diagnosed_runs_match_plain_and_summarize_trials() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![10, 20]).with_repetitions(3);
        let plain = run_trials(&d, &RandomSelector, &cfg);
        let recorder = hiperbot_obs::MemoryRecorder::new();
        let (stats, diag) = run_trials_diagnosed(&d, &RandomSelector, &cfg, &recorder);
        assert_eq!(plain[0].best.mean(), stats[0].best.mean());
        assert_eq!(plain[1].recall.mean(), stats[1].recall.mean());
        // The caller's recorder still saw the full per-trial stream.
        assert_eq!(
            recorder
                .events()
                .iter()
                .filter(|e| matches!(e, Event::TrialFinished { .. }))
                .count(),
            3
        );
        // Repetitions aren't tuner iterations: the summary carries trial
        // counters only, and a clean toy run raises no alerts.
        assert_eq!(diag.convergence.failures, 0);
        assert!(diag.healthy(), "{:?}", diag.alerts);
        // Deterministic across identical runs (commutative folds only).
        let (_, again) = run_trials_diagnosed(&d, &RandomSelector, &cfg, &NoopRecorder);
        assert_eq!(diag, again);
    }

    /// Random search that notes the thread each repetition runs on.
    #[derive(Default)]
    struct ThreadSpy {
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl ConfigSelector for ThreadSpy {
        fn name(&self) -> &str {
            "spy"
        }

        fn select(
            &self,
            space: &ParameterSpace,
            pool: &[Configuration],
            objective: &(dyn Fn(&Configuration) -> f64 + Sync),
            budget: usize,
            seed: u64,
        ) -> SelectionRun {
            self.threads
                .lock()
                .expect("no repetition panicked")
                .push(std::thread::current().id());
            RandomSelector.select(space, pool, objective, budget, seed)
        }
    }

    #[test]
    fn repetitions_fan_out_across_threads_with_identical_stats() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![10, 25]).with_repetitions(4);
        let run_at = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let spy = ThreadSpy::default();
            let stats = run_trials(&d, &spy, &cfg);
            let ids = spy.threads.into_inner().expect("no repetition panicked");
            assert_eq!(ids.len(), 4);
            let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
            (stats, distinct.len())
        };
        let (serial, serial_threads) = run_at("1");
        let (parallel, parallel_threads) = run_at("2");
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(serial_threads, 1);
        assert_eq!(parallel_threads, 2, "4 repetitions must run on 2 threads");
        let bits = |stats: &[CheckpointStats]| -> Vec<[u64; 4]> {
            stats
                .iter()
                .map(|s| {
                    [
                        s.best.mean().to_bits(),
                        s.best.sample_std_dev().to_bits(),
                        s.recall.mean().to_bits(),
                        s.recall.sample_std_dev().to_bits(),
                    ]
                })
                .collect()
        };
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn results_are_deterministic() {
        let d = dataset();
        let cfg = TrialConfig::new(vec![25]).with_repetitions(4);
        let a = run_trials(&d, &RandomSelector, &cfg);
        let b = run_trials(&d, &RandomSelector, &cfg);
        assert_eq!(a[0].best.mean(), b[0].best.mean());
        assert_eq!(a[0].recall.mean(), b[0].recall.mean());
    }

    #[test]
    fn different_seeds_differ() {
        let d = dataset();
        let a = run_trials(
            &d,
            &RandomSelector,
            &TrialConfig::new(vec![15]).with_repetitions(4).with_seed(1),
        );
        let b = run_trials(
            &d,
            &RandomSelector,
            &TrialConfig::new(vec![15]).with_repetitions(4).with_seed(2),
        );
        assert_ne!(a[0].best.mean(), b[0].best.mean());
    }
}
