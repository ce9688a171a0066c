//! The HiPerBOt iterative tuner (paper §III-C).
//!
//! Putting the pieces together:
//!
//! 1. Evaluate `init_samples` (default 20) configurations drawn uniformly
//!    at random.
//! 2. Fit the TPE surrogate at quantile `alpha` (default 0.20).
//! 3. Select the next candidate (Ranking or Proposal).
//! 4. Evaluate the true objective; append; goto 2 until the evaluation
//!    budget is exhausted (or, for Ranking, the space is).

use crate::checkpoint::{CheckpointError, TraceTrial, TunerCheckpoint, CHECKPOINT_VERSION};
use crate::fantasy::{self, FantasySurrogate};
use crate::history::{HistoryCursor, ObservationHistory};
use crate::incremental::ChurnStats;
use crate::outcome::EvalOutcome;
use crate::selection::{
    rank_indexed, ProposalScratch, ProposalSeen, RunIndex, SearchScratch, SelectionStrategy,
};
use crate::surrogate::{SurrogateMode, SurrogateOptions, TpeSurrogate};
use crate::transfer::TransferPrior;
use hiperbot_obs::{
    counters, space_fingerprint, Event, MetricsRegistry, NoopRecorder, Recorder, RunHeader,
    SpanTimer,
};
use hiperbot_space::pool::{PoolCodes, PoolEncoding, PoolMask};
use hiperbot_space::sampling::{sample_distinct, sample_uniform};
use hiperbot_space::{Configuration, ParameterSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

/// Where and how often a tuner persists [`TunerCheckpoint`] snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination file, overwritten atomically on every write.
    pub path: PathBuf,
    /// Write after at least this many trials since the last snapshot (a
    /// final snapshot is also written when a run ends gracefully).
    pub every: usize,
}

impl CheckpointPolicy {
    /// Snapshots to `path` every `every` trials.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// Tuner hyperparameters (paper §V-E studies the sensitivity of the first
/// two).
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Number of bootstrap evaluations (paper: 20), drawn uniformly at
    /// random without replacement.
    pub init_samples: usize,
    /// Good/bad quantile threshold α (paper: 0.20).
    pub alpha: f64,
    /// Candidate selection regime.
    pub strategy: SelectionStrategy,
    /// Laplace pseudo-count for discrete densities.
    pub pseudo_count: f64,
    /// KDE bandwidth as a fraction of each continuous parameter's range.
    pub bandwidth_fraction: f64,
    /// RNG seed (bootstrap sampling + proposal draws).
    pub seed: u64,
    /// Optional transfer-learning prior with its mixture weight `w`.
    pub prior: Option<(TransferPrior, f64)>,
    /// The surrogate the suggestion loop reads, under both strategies:
    /// the O(churn) incremental engine (default) or the from-scratch
    /// refit the parity suites compare it against. Bit-identical by
    /// contract.
    pub surrogate_mode: SurrogateMode,
}

impl Default for TunerOptions {
    fn default() -> Self {
        Self {
            init_samples: 20,
            alpha: 0.20,
            strategy: SelectionStrategy::Ranking,
            pseudo_count: 1.0,
            bandwidth_fraction: 0.10,
            seed: 0,
            prior: None,
            surrogate_mode: SurrogateMode::default(),
        }
    }
}

impl TunerOptions {
    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the bootstrap sample count.
    pub fn with_init_samples(mut self, n: usize) -> Self {
        self.init_samples = n;
        self
    }

    /// Sets the quantile threshold.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the selection strategy.
    pub fn with_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Installs a transfer-learning prior with weight `w` (eqs. 9–10).
    pub fn with_prior(mut self, prior: TransferPrior, w: f64) -> Self {
        self.prior = Some((prior, w));
        self
    }

    /// Sets the surrogate maintenance mode.
    pub fn with_surrogate_mode(mut self, mode: SurrogateMode) -> Self {
        self.surrogate_mode = mode;
        self
    }

    /// Human-readable one-line summary, stamped into trace run headers.
    /// It still names the bootstrap design (`init_design=UniformRandom`,
    /// the only one) so run headers and snapshot identities keep their
    /// bytes.
    pub fn summary(&self) -> String {
        format!(
            "strategy={:?} alpha={} init_samples={} init_design=UniformRandom pseudo_count={} bandwidth_fraction={} surrogate={:?}{}",
            self.strategy,
            self.alpha,
            self.init_samples,
            self.pseudo_count,
            self.bandwidth_fraction,
            self.surrogate_mode,
            if self.prior.is_some() { " prior=yes" } else { "" },
        )
    }
}

/// The outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct BestResult {
    /// The best configuration found.
    pub config: Configuration,
    /// Its objective value (always finite — failed trials never become the
    /// incumbent).
    pub objective: f64,
    /// How many trials were actually spent, permanently-failed evaluations
    /// included (they consume real machine time and budget too).
    pub evaluations: usize,
}

/// Rejects a restored configuration that is not a feasible member of
/// `space`. Membership (arity, value kinds, index and bound ranges) is
/// checked first: constraints index into domains and the fits index
/// histograms by value, so a hostile snapshot or trace must fail here as a
/// typed error rather than panic later.
fn check_member(
    space: &ParameterSpace,
    cfg: &Configuration,
    source: &str,
) -> Result<(), CheckpointError> {
    let why = if !space.contains(cfg) {
        "a configuration outside"
    } else if !space.is_feasible(cfg) {
        "a configuration infeasible in"
    } else {
        return Ok(());
    };
    Err(CheckpointError::InvalidHistory(format!(
        "{source} contains {why} this space"
    )))
}

/// The lazily built Ranking-strategy state: the feasible pool, addressed
/// by code, plus the batch-scoring engine's per-pool artifacts, all
/// constructed once per tuning run from one walk of the space. No
/// `Configuration` is stored: picks are materialized from their encoding
/// row, and configurations find their position by code (DESIGN §17).
struct RankingPool {
    /// Contiguous config-major index buffer the argmax reads; row `i` is
    /// pool position `i`.
    encoding: PoolEncoding,
    /// Prefix runs of `encoding` and their suffix shapes, searched by the
    /// exact branch-and-bound argmax.
    runs: RunIndex,
    /// The search's per-pick buffers, reused so a pick allocates nothing.
    scratch: SearchScratch,
    /// Mixed-radix code of each pool position: the position lookup.
    codes: PoolCodes,
    /// Seen bitset over pool positions, maintained incrementally: each
    /// history entry is looked up into it exactly once, instead of the old
    /// per-candidate `history.contains` hash inside the ranking loop.
    /// Permanently-failed configurations are folded in too, so the argmax
    /// never re-suggests a config that will only fail again. While a batch
    /// is built, its picks are set here as well (see [`hold`](Self::hold)).
    seen: PoolMask,
    /// Positions a batch in progress holds in `seen`.
    held: Vec<usize>,
    /// History prefix already folded into `seen`.
    synced: HistoryCursor,
}

impl RankingPool {
    fn build(space: &ParameterSpace) -> Self {
        let (encoding, codes) = PoolEncoding::enumerate(space);
        let runs = RunIndex::build(&encoding);
        let seen = PoolMask::new(codes.len());
        Self {
            encoding,
            runs,
            scratch: SearchScratch::default(),
            codes,
            seen,
            held: Vec::new(),
            synced: HistoryCursor::default(),
        }
    }

    /// Number of pool positions.
    fn len(&self) -> usize {
        self.codes.len()
    }

    /// The first position in pool order that is neither seen nor held by
    /// `taken`, as a configuration: the recovery scan's last resort.
    fn first_unseen(
        &self,
        space: &ParameterSpace,
        taken: &[Configuration],
    ) -> Option<Configuration> {
        let taken: Vec<usize> = taken
            .iter()
            .filter_map(|cfg| self.codes.position(space, cfg))
            .collect();
        (0..self.len())
            .find(|i| !self.seen.get(*i) && !taken.contains(i))
            .map(|i| self.encoding.config(i))
    }

    /// The best position not set in the seen mask under the
    /// per-parameter score `tables`, or `None` when every position is
    /// seen: the run-index search, which debug builds cross-check against
    /// the pool sweep.
    fn best_unseen<C: AsRef<[f64]> + Sync>(&mut self, tables: &[C]) -> Option<usize> {
        let (encoding, seen) = (&self.encoding, &self.seen);
        let pick = rank_indexed(tables, encoding, &self.runs, seen, &mut self.scratch);
        #[cfg(debug_assertions)]
        assert_eq!(
            pick,
            crate::selection::rank_encoded(tables, encoding, seen),
            "run-index search diverged from the pool sweep"
        );
        pick
    }

    /// Marks a batch's pick seen for the rest of the batch.
    fn hold(&mut self, pos: usize) {
        self.seen.set(pos);
        self.held.push(pos);
    }

    /// Clears the positions the batch just built holds: none is in the
    /// history yet, and each is set again by the sync after its merge.
    fn release(&mut self) {
        for pos in self.held.drain(..) {
            self.seen.unset(pos);
        }
    }

    /// Folds unsynced history entries — observations and permanent
    /// failures — into the seen bitset.
    fn sync(&mut self, space: &ParameterSpace, history: &ObservationHistory) {
        let (codes, seen) = (&self.codes, &mut self.seen);
        self.synced.advance(history, |cfg| {
            if let Some(i) = codes.position(space, cfg) {
                seen.set(i);
            }
        });
    }
}

/// The HiPerBOt tuner.
pub struct Tuner {
    space: ParameterSpace,
    options: TunerOptions,
    history: ObservationHistory,
    /// Pool + batch-scoring state (Ranking strategy only; built lazily).
    pool: Option<RankingPool>,
    rng: ChaCha8Rng,
    bootstrapped: bool,
    /// Proposal-mode picks of the current run dropped as duplicates of
    /// history (reset per run).
    stalls: usize,
    /// Trace sink. Defaults to [`NoopRecorder`]; instrumentation checks
    /// `recorder.enabled()` before taking timestamps or building events,
    /// and never touches `rng`, so traced and untraced runs are
    /// bit-identical for the same seed.
    recorder: Arc<dyn Recorder>,
    /// The surrogate `options.surrogate_mode` selects, either strategy;
    /// built lazily on the first model-driven suggestion, so a resumed
    /// tuner rebuilds it from the restored history. Fantasy observations
    /// pushed during a suggestion are always popped before it returns, so
    /// between calls the model mirrors `history` exactly (or lags it by
    /// the entries since the last sync).
    model: Option<Box<dyn FantasySurrogate>>,
    proposal_scratch: ProposalScratch,
    /// The seen test of Proposal picks: the codes of the history's
    /// configurations on a fully discrete space, plus a batch's in-flight
    /// picks while it is built. Unused under Ranking.
    proposal_seen: ProposalSeen,
    /// Optional metrics sink for delta-update churn counters and span
    /// timings. Never touches `rng`: attached and detached runs are
    /// bit-identical for the same seed.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Engine counters already published to `metrics` (delta basis).
    last_churn: ChurnStats,
    /// Periodic snapshot destination; `None` disables checkpointing.
    checkpointing: Option<CheckpointPolicy>,
    /// Trial count at the last persisted snapshot (cadence basis, and the
    /// guard against writing the same snapshot twice).
    last_checkpoint_trials: usize,
    /// RNG word position captured immediately *before* the bootstrap draw.
    /// A snapshot taken mid-bootstrap stores this instead of the live
    /// position, so a resume can redraw the identical sample list and skip
    /// the already-evaluated prefix.
    boot_word_pos: Option<u64>,
    /// Set by the resume constructors: the next run keeps the restored
    /// stall count instead of resetting it, exactly once.
    preserve_stalls_once: bool,
    /// Set by the resume constructors ("snapshot" or "trace"); consumed by
    /// the first traced run header to emit one `RunResumed` event.
    resumed_from: Option<String>,
}

impl Tuner {
    /// Creates a tuner over `space`.
    pub fn new(space: ParameterSpace, options: TunerOptions) -> Self {
        assert!(
            options.init_samples > 0,
            "need at least one bootstrap sample"
        );
        assert!(
            (0.0..=1.0).contains(&options.alpha),
            "alpha must be a quantile"
        );
        if options.strategy == SelectionStrategy::Ranking {
            assert!(
                space.is_fully_discrete(),
                "Ranking requires a fully discrete space; use Proposal"
            );
        }
        let rng = ChaCha8Rng::seed_from_u64(options.seed);
        let proposal_seen = ProposalSeen::new(&space);
        Self {
            space,
            options,
            history: ObservationHistory::new(),
            pool: None,
            rng,
            bootstrapped: false,
            stalls: 0,
            recorder: Arc::new(NoopRecorder),
            model: None,
            proposal_scratch: ProposalScratch::default(),
            proposal_seen,
            metrics: None,
            last_churn: ChurnStats::default(),
            checkpointing: None,
            last_checkpoint_trials: 0,
            boot_word_pos: None,
            preserve_stalls_once: false,
            resumed_from: None,
        }
    }

    /// Attaches a trace recorder (builder style).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Swaps the trace recorder in place.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Attaches a metrics registry (builder style): the incremental engine
    /// publishes its churn counters and delta-update span timings there.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Swaps the metrics registry in place.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Enables periodic crash-safe snapshots (builder style): after at
    /// least `policy.every` trials since the last write — and again when a
    /// run ends gracefully — the tuner persists a [`TunerCheckpoint`] to
    /// `policy.path` atomically (temp file + rename). Snapshot writes never
    /// touch the RNG, so checkpointed and checkpoint-free runs are
    /// bit-identical for the same seed.
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpointing = Some(policy);
        self
    }

    /// Enables or reconfigures periodic snapshots in place.
    pub fn set_checkpointing(&mut self, policy: CheckpointPolicy) {
        self.checkpointing = Some(policy);
    }

    /// Cumulative delta-work counters of the incremental engine, `None`
    /// until the first model-driven suggestion builds it (always zero
    /// under `SurrogateMode::Full`).
    pub fn churn_stats(&self) -> Option<ChurnStats> {
        self.model.as_ref().map(|m| m.stats())
    }

    /// The run header a trace of this tuner would carry.
    pub fn run_header(&self) -> RunHeader {
        RunHeader::new(&self.space, self.options.seed, self.options.summary())
    }

    /// Takes a crash-safe snapshot of the campaign: the observation history
    /// (successes and quarantined failures — together the trial cursor and
    /// incumbent), the exact RNG stream position, and the seed / options /
    /// space identity the snapshot is only valid under.
    ///
    /// Mid-bootstrap snapshots store the RNG position from *before* the
    /// bootstrap draw: the bootstrap samples are drawn all at once, so a
    /// resume redraws the identical list and skips the evaluated prefix.
    pub fn checkpoint(&self) -> TunerCheckpoint {
        // Snapshots happen only at safe points: the model must mirror (or
        // lag) the real history — a constant-liar fantasy leaking into
        // checkpoint bytes would poison every resumed continuation.
        debug_assert!(
            self.model
                .as_ref()
                .is_none_or(|m| m.len() <= self.history.len()),
            "checkpoint taken mid-batch-suggestion: model holds fantasy observations"
        );
        let rng_word_pos = if self.bootstrapped {
            self.rng.word_pos()
        } else {
            self.boot_word_pos.unwrap_or_else(|| self.rng.word_pos())
        };
        TunerCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: self.options.seed,
            options: self.options.summary(),
            space_fingerprint: space_fingerprint(&self.space),
            bootstrapped: self.bootstrapped,
            stalls: self.stalls as u64,
            rng_word_pos,
            history: self.history.clone().into(),
        }
    }

    /// Restores a tuner from a [`TunerCheckpoint`]. The snapshot's seed,
    /// option summary, and space fingerprint must match `options`/`space`
    /// exactly — a campaign continued under different settings would
    /// silently diverge, so any mismatch is a [`CheckpointError`] naming
    /// both sides. The restored tuner continues bit-identically to the
    /// uninterrupted run: same RNG stream position, same history, same
    /// stall accounting.
    ///
    /// A run killed *mid-bootstrap* resumes correctly too, serially or at
    /// any batch size (the remaining bootstrap samples are redrawn and the
    /// evaluated prefix skipped), provided the resumed run uses the same
    /// budget, which determines the bootstrap clamp.
    pub fn resume_from_checkpoint(
        space: ParameterSpace,
        options: TunerOptions,
        snapshot: &TunerCheckpoint,
    ) -> Result<Self, CheckpointError> {
        snapshot.validate(options.seed, &options.summary(), &space_fingerprint(&space))?;
        let history = ObservationHistory::try_from(snapshot.history.clone())
            .map_err(CheckpointError::InvalidHistory)?;
        for cfg in history
            .configs()
            .iter()
            .chain(history.failures().iter().map(|f| &f.config))
        {
            check_member(&space, cfg, "snapshot")?;
        }
        let mut tuner = Self::new(space, options);
        tuner.rng.set_word_pos(snapshot.rng_word_pos);
        tuner.history = history;
        tuner.bootstrapped = snapshot.bootstrapped;
        tuner.stalls = snapshot.stalls as usize;
        tuner.preserve_stalls_once = true;
        tuner.last_checkpoint_trials = tuner.history.trials();
        tuner.resumed_from = Some("snapshot".into());
        Ok(tuner)
    }

    /// Fallback resume when no snapshot survived: reconstructs the
    /// campaign from an observability trace (JSONL event stream) whose
    /// trial events embed their configurations. The trace's `RunHeader`
    /// identity (seed, options, space fingerprint) is validated exactly
    /// like a snapshot's.
    ///
    /// The RNG position is rebuilt by replaying the bootstrap draw, which
    /// is exact for the Ranking strategy (its model-driven phase never
    /// consumes randomness). Traces from Proposal-mode runs, or runs that
    /// fell back to uniform recovery restarts (a trial evaluated while
    /// every earlier one had failed), consume RNG draws that events alone
    /// cannot reconstruct — those return
    /// [`CheckpointError::TraceNotExact`] instead of silently diverging.
    pub fn resume_from_trace(
        space: ParameterSpace,
        options: TunerOptions,
        trace: &str,
    ) -> Result<Self, CheckpointError> {
        if matches!(options.strategy, SelectionStrategy::Proposal { .. }) {
            return Err(CheckpointError::TraceNotExact(
                "Proposal-mode candidate draws consume RNG that a trace does not record; \
                 resume from a snapshot instead"
                    .into(),
            ));
        }
        let state = crate::checkpoint::parse_trace(trace)?;
        if state.seed != options.seed {
            return Err(CheckpointError::SeedMismatch {
                expected: options.seed,
                found: state.seed,
            });
        }
        let expected_options = options.summary();
        if state.options != expected_options {
            return Err(CheckpointError::OptionsMismatch {
                expected: expected_options,
                found: state.options,
            });
        }
        let expected_space = space_fingerprint(&space);
        if state.space_fingerprint != expected_space {
            return Err(CheckpointError::SpaceMismatch {
                expected: expected_space,
                found: state.space_fingerprint,
            });
        }
        let mut tuner = Self::new(space, options);
        // The full bootstrap size this space and these options produce
        // (traces do not record the original budget, so a budget-clamped
        // bootstrap smaller than this reads as mid-bootstrap below).
        let full_boot = tuner.bootstrap_count(tuner.options.init_samples);
        let mut successes = 0usize;
        for (i, trial) in state.trials.iter().enumerate() {
            if i >= full_boot && successes == 0 {
                return Err(CheckpointError::TraceNotExact(
                    "this run drew uniform recovery restarts (every bootstrap trial \
                     failed), which a trace cannot replay; resume from a snapshot instead"
                        .into(),
                ));
            }
            match trial {
                TraceTrial::Ok(cfg, y) => {
                    check_member(&tuner.space, cfg, "trace")?;
                    if !y.is_finite() {
                        return Err(CheckpointError::InvalidHistory(
                            "trace contains a non-finite objective".into(),
                        ));
                    }
                    if tuner.history.contains(cfg) {
                        return Err(CheckpointError::InvalidHistory(
                            "trace contains a duplicate configuration".into(),
                        ));
                    }
                    tuner.history.push(cfg.clone(), *y);
                    successes += 1;
                }
                TraceTrial::Failed(cfg, reason) => {
                    check_member(&tuner.space, cfg, "trace")?;
                    if tuner.history.contains(cfg) {
                        return Err(CheckpointError::InvalidHistory(
                            "trace contains a duplicate configuration".into(),
                        ));
                    }
                    tuner.history.push_failure(cfg.clone(), reason.clone());
                }
            }
        }
        if tuner.history.trials() >= full_boot {
            // Bootstrap completed: advance the RNG past the draw it made.
            sample_distinct(&tuner.space, full_boot, &mut tuner.rng);
            tuner.bootstrapped = true;
        }
        // else: mid-bootstrap — the RNG stays at the pre-draw position and
        // the next run redraws the sample list, skipping the evaluated
        // prefix.
        tuner.last_checkpoint_trials = tuner.history.trials();
        tuner.resumed_from = Some("trace".into());
        Ok(tuner)
    }

    /// The space being tuned.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The observation history so far (evaluation order).
    pub fn history(&self) -> &ObservationHistory {
        &self.history
    }

    /// How many Proposal-mode picks since the most recent run started were
    /// dropped because they duplicated history (a serial stall spends no
    /// budget). Always zero for the Ranking strategy (the pool mask makes
    /// duplicates impossible).
    pub fn stalls(&self) -> usize {
        self.stalls
    }

    /// The options this tuner was built with. Runs never mutate them:
    /// budget clamping of the bootstrap happens on a per-run local, so the
    /// run header and any later run on the same tuner see the configured
    /// values.
    pub fn options(&self) -> &TunerOptions {
        &self.options
    }

    /// Builds (once) and returns the Ranking pool state, with the seen
    /// bitset synced to the current history.
    fn pool(&mut self) -> &mut RankingPool {
        if self.pool.is_none() {
            self.pool = Some(RankingPool::build(&self.space));
        }
        let pool = self.pool.as_mut().expect("just built");
        pool.sync(&self.space, &self.history);
        pool
    }

    /// The per-fit density options derived from the tuner options.
    fn surrogate_options(&self) -> SurrogateOptions {
        SurrogateOptions {
            alpha: self.options.alpha,
            pseudo_count: self.options.pseudo_count,
            bandwidth_fraction: self.options.bandwidth_fraction,
        }
    }

    /// Publishes the model's counters accumulated since the last call to
    /// the attached metrics registry (no-op without one), plus the
    /// suggestion's delta-update span when timed.
    fn publish_churn(&mut self, span_ns: Option<u64>) {
        let Some(model) = &self.model else { return };
        let stats = model.stats();
        if let Some(metrics) = &self.metrics {
            let prev = self.last_churn;
            metrics.add(
                counters::SURROGATE_DELTA_INSERTS,
                stats.inserts - prev.inserts,
            );
            metrics.add(
                counters::SURROGATE_DELTA_REMOVES,
                stats.removes - prev.removes,
            );
            metrics.add(
                counters::SURROGATE_DELTA_FAILURES,
                stats.failures - prev.failures,
            );
            metrics.add(
                counters::SURROGATE_DELTA_CHURNED,
                stats.churned - prev.churned,
            );
            metrics.add(
                counters::SURROGATE_DELTA_COLUMNS,
                stats.columns_rescored - prev.columns_rescored,
            );
            if let Some(ns) = span_ns {
                metrics.observe_ns(counters::SURROGATE_DELTA_UPDATE, ns);
            }
        }
        self.last_churn = stats;
    }

    /// The number of bootstrap samples to draw: `init_samples`, clamped on a
    /// fully discrete space so the bootstrap never asks for more distinct
    /// samples than exist. Ranking builds its pool here, where it needs it
    /// for every pick anyway; Proposal never ranks a pool, so it walks the
    /// feasible configurations only until it reaches `init_samples` — the
    /// same `n`, hence the same RNG draws, without enumerating the space.
    fn bootstrap_count(&mut self, init_samples: usize) -> usize {
        if !self.space.is_fully_discrete() {
            return init_samples;
        }
        match self.options.strategy {
            SelectionStrategy::Ranking => init_samples.min(self.pool().len()),
            SelectionStrategy::Proposal { .. } => {
                let mut walk = self.space.walk();
                let mut n = 0;
                while n < init_samples && walk.next_member().is_some() {
                    n += 1;
                }
                n
            }
        }
    }

    /// Runs the bootstrap phase if it has not happened yet: evaluates
    /// `init_samples` distinct configurations in chunks of `k` through the
    /// batch evaluator. The count is a parameter (not read from
    /// `self.options`) so budget-driven clamping never mutates the
    /// configured options; the chunking changes no sample.
    fn bootstrap_batch(
        &mut self,
        evaluate_batch: &mut impl FnMut(&[Configuration], u64) -> Vec<EvalOutcome>,
        init_samples: usize,
        k: usize,
    ) {
        if self.bootstrapped {
            return;
        }
        let n = self.bootstrap_count(init_samples);
        // A mid-bootstrap resume restarts here with the RNG at the
        // pre-draw position and the evaluated prefix already in the
        // history: redraw the identical sample list and skip that prefix.
        // The prefix need not be a whole number of chunks: a run at
        // another batch size may have written it, and neither the samples
        // nor the first model-driven batch depend on how the bootstrap was
        // chunked.
        let done = self.history.trials();
        self.boot_word_pos = Some(self.rng.word_pos());
        let samples = sample_distinct(&self.space, n, &mut self.rng);
        // The redraw of a genuine snapshot never repeats its evaluated
        // prefix; that of a corrupt one can, and must not evaluate a
        // configuration twice.
        let pending: Vec<Configuration> = samples
            .into_iter()
            .skip(done)
            .filter(|cfg| !self.history.contains(cfg))
            .collect();
        let mut pending = pending.into_iter();
        loop {
            let chunk: Vec<Configuration> = pending.by_ref().take(k).collect();
            if chunk.is_empty() {
                break;
            }
            self.evaluate_and_merge(chunk, evaluate_batch, true);
        }
        self.bootstrapped = true;
    }

    /// Appends one already-evaluated outcome: the observation on success,
    /// the quarantined failure record otherwise. `elapsed_ns` is `Some` iff
    /// the caller traced the evaluation (events are only emitted then).
    ///
    /// Failed trials never emit `IncumbentImproved` (and the guard also
    /// re-checks finiteness, so no construction path can smuggle a NaN
    /// incumbent into a trace).
    fn push_outcome(
        &mut self,
        cfg: Configuration,
        outcome: EvalOutcome,
        bootstrap: bool,
        elapsed_ns: Option<u64>,
    ) -> bool {
        match outcome.normalized() {
            EvalOutcome::Ok(y) => {
                if let Some(elapsed_ns) = elapsed_ns {
                    let prev_best = self.history.best().map(|(_, _, y)| y);
                    let iteration = self.history.trials() as u64;
                    self.recorder.record(&Event::ObjectiveEvaluated {
                        iteration,
                        objective: y,
                        bootstrap,
                        elapsed_ns,
                        config: Some(cfg.clone()),
                    });
                    if y.is_finite() && !prev_best.is_some_and(|best| y >= best) {
                        self.recorder.record(&Event::IncumbentImproved {
                            iteration,
                            objective: y,
                            previous_best: prev_best.filter(|b| b.is_finite()),
                        });
                    }
                }
                self.history.push(cfg, y);
                true
            }
            outcome => {
                let reason = outcome.failure_reason().expect("non-Ok outcome");
                if let Some(elapsed_ns) = elapsed_ns {
                    self.recorder.record(&Event::TrialFailed {
                        iteration: self.history.trials() as u64,
                        reason: reason.clone(),
                        elapsed_ns,
                        config: Some(cfg.clone()),
                    });
                }
                self.history.push_failure(cfg, reason);
                false
            }
        }
    }

    /// Up to `k` configurations to evaluate when the surrogate cannot be
    /// fit because every trial so far failed: uniform random restarts,
    /// deduplicated against the history and each other, falling back to a
    /// pool scan on small discrete spaces where rejection sampling keeps
    /// colliding. Empty when the whole space has been tried.
    fn recovery_batch(&mut self, k: usize) -> Vec<Configuration> {
        let mut out: Vec<Configuration> = Vec::new();
        for _ in 0..k {
            let mut found = None;
            for _ in 0..64 {
                let cfg = sample_uniform(&self.space, &mut self.rng);
                if !self.history.contains(&cfg) && !out.contains(&cfg) {
                    found = Some(cfg);
                    break;
                }
            }
            if found.is_none() && self.space.is_fully_discrete() {
                self.pool();
                let pool = self.pool.as_ref().expect("just built");
                found = pool.first_unseen(&self.space, &out);
            }
            match found {
                Some(cfg) => out.push(cfg),
                None => break,
            }
        }
        out
    }

    /// Fits and returns the surrogate for the current history — the object
    /// the parameter-importance analysis (§VI) reads its densities from.
    ///
    /// # Panics
    /// Panics before any observations exist.
    pub fn surrogate(&self) -> TpeSurrogate {
        assert!(
            !self.history.is_empty(),
            "no observations yet: run or step the tuner first"
        );
        // Cold path (fresh allocations): this accessor is called once per
        // analysis, not per iteration, and `&self` keeps it usable while
        // the caller holds other shared borrows of the tuner.
        let opts = self.surrogate_options();
        let failed: Vec<Configuration> = self
            .history
            .failures()
            .iter()
            .map(|f| f.config.clone())
            .collect();
        TpeSurrogate::fit_with_failures(
            &self.space,
            self.history.configs(),
            self.history.objectives(),
            &failed,
            &opts,
            self.options.prior.as_ref().map(|(p, w)| (p, *w)),
        )
    }

    /// Selects the next configuration to evaluate, without evaluating it:
    /// the batch of one of [`suggest_batch`](Self::suggest_batch). Returns
    /// `None` when a Ranking pool is exhausted, and under Proposal when
    /// the pick duplicated history after the redraw rounds (counted as a
    /// stall).
    ///
    /// # Panics
    /// Panics before bootstrap, or when every trial so far failed (no
    /// observation to fit the surrogate on — the run loops recover from
    /// that state via uniform restarts instead of suggesting).
    pub fn suggest(&mut self) -> Option<Configuration> {
        self.suggest_batch(1).pop()
    }

    /// Performs one iteration: bootstrap if needed, otherwise select one
    /// candidate and evaluate it. Returns `false` when no further progress
    /// is possible (Ranking pool exhausted).
    ///
    /// With the Proposal strategy a duplicate suggestion (possible by
    /// design: sampling may re-draw a seen configuration) is *not*
    /// re-evaluated; the iteration is counted as a stall.
    pub fn step(&mut self, mut objective: impl FnMut(&Configuration) -> f64) -> bool {
        self.step_fallible(|cfg| EvalOutcome::from_value(objective(cfg)))
    }

    /// Fallible variant of [`step`](Self::step): the objective reports an
    /// [`EvalOutcome`] per evaluation. A failed trial still counts as
    /// progress (it consumed budget and taught the surrogate something);
    /// only pool/space exhaustion returns `false`. It is
    /// [`step_batch_fallible`](Self::step_batch_fallible) with `k = 1`.
    ///
    /// When every trial so far has failed there is nothing to fit the
    /// surrogate on, so the iteration falls back to a uniform random
    /// restart instead of model-driven selection.
    pub fn step_fallible(
        &mut self,
        mut objective: impl FnMut(&Configuration) -> EvalOutcome,
    ) -> bool {
        self.step_batch_fallible(1, |cfgs, _| cfgs.iter().map(&mut objective).collect())
    }

    /// Suggests `k` configurations to evaluate concurrently, by
    /// **constant-liar** batch selection (Ginsbourger et al.): the first
    /// pick is the plain argmax of the surrogate synced to the history;
    /// after each pick a *fantasy observation* at the liar value — the
    /// good/bad threshold `y(τ)` of the pre-batch fit — is pushed into the
    /// surrogate, and the next pick passes over the earlier ones. The
    /// fantasies live only inside this call (they are popped before it
    /// returns); real outcomes are merged later by
    /// [`step_batch_fallible`](Self::step_batch_fallible).
    ///
    /// Under **Ranking** each pick is the exact argmax over the pool (the
    /// cached [`PoolEncoding`] and run index) with the seen positions
    /// masked out of the pool's [`PoolMask`]; the batch returns fewer than
    /// `k` configurations when the pool runs out. Under **Proposal** each
    /// pick runs the vectorized Proposal selector; a pick that still
    /// duplicates history or an earlier pick after the redraw rounds is
    /// dropped from the batch and counted as a stall. A pick that a later
    /// pick follows is held in the pool mask or the seen codes until the
    /// batch returns, so `k == 1` does exactly the work of one serial pick
    /// — it is [`suggest`](Self::suggest).
    ///
    /// The surrogate is the one `options.surrogate_mode` selects; both
    /// give bit-identical picks, RNG draws and events. In debug builds the
    /// incremental engine is re-verified against a full fit after the
    /// sync, after every fantasy push and after the pops.
    ///
    /// # Panics
    /// Panics before bootstrap, or when every trial so far failed (no
    /// observation to fit the surrogate on).
    pub fn suggest_batch(&mut self, k: usize) -> Vec<Configuration> {
        assert!(
            self.bootstrapped,
            "call run/step first: the surrogate needs bootstrap data"
        );
        assert!(
            !self.history.is_empty(),
            "no successful observations to fit the surrogate on"
        );
        let traced = self.recorder.enabled();
        let base_iteration = self.history.trials() as u64;
        let span = SpanTimer::start(self.metrics.is_some());
        match self.options.strategy {
            SelectionStrategy::Ranking => {
                self.pool(); // build + sync once; the loop borrows it
            }
            SelectionStrategy::Proposal { .. } => {
                self.proposal_seen.sync(&self.space, &self.history);
            }
        }
        if self.model.is_none() {
            self.model = Some(fantasy::build(
                self.options.surrogate_mode,
                &self.space,
                self.surrogate_options(),
                self.options.prior.as_ref(),
            ));
        }
        let model = self.model.as_deref_mut().expect("just built");
        #[cfg(debug_assertions)]
        let prior = self.options.prior.as_ref().map(|(p, w)| (p, *w));
        let (mut liar, mut fantasies, mut held, mut stalled) = (0.0, 0, 0, 0);
        let mut picks: Vec<Configuration> = Vec::with_capacity(k);
        for i in 0..k {
            let fit_timer = SpanTimer::start(traced);
            if i == 0 {
                model.sync(&self.space, &self.history);
                // The constant liar: the pre-batch good-threshold objective.
                liar = model.threshold();
            } else if let Some(prev) = picks.get(fantasies) {
                // Fantasize the previous pick, unless it was a dropped
                // duplicate.
                model.push_fantasy(&self.space, prev, liar);
                fantasies += 1;
            }
            #[cfg(debug_assertions)]
            model.assert_parity(&self.space, &self.history, &picks[..fantasies], liar, prior);
            if let Some(elapsed_ns) = fit_timer.elapsed_ns() {
                self.recorder.record(&Event::SurrogateFit {
                    iteration: base_iteration + i as u64,
                    n_good: model.n_good() as u64,
                    n_bad: model.n_bad() as u64,
                    threshold: model.threshold(),
                    elapsed_ns,
                });
            }
            let select_timer = SpanTimer::start(traced);
            let followed = i + 1 < k;
            let (picked, candidates, best_ei) = match self.options.strategy {
                SelectionStrategy::Ranking => {
                    let pool = self.pool.as_mut().expect("built above");
                    let tables = model
                        .tables()
                        .expect("Ranking requires a fully discrete space");
                    let Some(pos) = pool.best_unseen(tables) else {
                        break; // pool exhausted mid-batch
                    };
                    if followed {
                        pool.hold(pos);
                    }
                    let cfg = pool.encoding.config(pos);
                    // Scored only for the trace: the argmax returns no score.
                    let best_ei = if traced { model.score(&cfg) } else { 0.0 };
                    (Some(cfg), pool.len() as u64, best_ei)
                }
                SelectionStrategy::Proposal { candidates } => {
                    let pick = model.propose(
                        &self.space,
                        self.proposal_seen.as_seen(&self.history),
                        candidates,
                        &mut self.rng,
                        &mut self.proposal_scratch,
                    );
                    // A pick that duplicates history or an earlier pick is
                    // dropped (None): a stall, and the batch goes on.
                    let kept = (!pick.duplicate).then(|| {
                        if followed {
                            self.proposal_seen.hold(&self.space, &pick.config);
                            held += 1;
                        }
                        pick.config
                    });
                    (kept, pick.scored, pick.score)
                }
            };
            if let Some(elapsed_ns) = select_timer.elapsed_ns() {
                self.recorder.record(&Event::SelectionScored {
                    iteration: base_iteration + i as u64,
                    candidates,
                    best_ei,
                    elapsed_ns,
                });
            }
            match picked {
                Some(cfg) => picks.push(cfg),
                None => stalled += 1,
            }
        }
        // Evict the fantasies: the model must mirror the real history
        // before outcomes are merged back.
        model.pop_fantasies(fantasies);
        #[cfg(debug_assertions)]
        model.assert_parity(&self.space, &self.history, &[], liar, prior);
        // Every held pick precedes the unheld last one.
        self.proposal_seen.release(&self.space, &picks[..held]);
        if let Some(pool) = &mut self.pool {
            pool.release();
        }
        self.publish_churn(span.elapsed_ns());
        self.stalls += stalled;
        picks
    }

    /// Performs one **batch** iteration: bootstrap (in chunks of `k`) if
    /// needed, otherwise select up to `k` candidates by constant-liar
    /// batch suggestion ([`suggest_batch`](Self::suggest_batch)), hand
    /// them to `evaluate_batch` in one call, and merge the outcomes back
    /// **in suggestion order** — successes appended as observations,
    /// failures quarantined — regardless of the order in which a parallel
    /// executor completed them (`evaluate_batch` returns outcomes indexed
    /// like its input slice). Returns `false` when no further progress is
    /// possible.
    ///
    /// `evaluate_batch` receives the configurations plus the trial index
    /// of the first one; item `i` is trial `base + i`. Executors key any
    /// randomness (fault draws, retry jitter) on that trial index so
    /// results are independent of worker scheduling.
    ///
    /// [`step_fallible`](Self::step_fallible) is this with `k == 1`.
    ///
    /// An empty recovery (every trial failed and the whole space has been
    /// tried) or an empty Ranking batch (the pool is exhausted) returns
    /// `false`. An empty Proposal batch means every pick duplicated
    /// history — a stall, already counted by
    /// [`suggest_batch`](Self::suggest_batch), after which fresh draws can
    /// still make progress — so it returns `true`.
    ///
    /// # Panics
    /// Panics if `evaluate_batch` returns a different number of outcomes
    /// than configurations.
    pub fn step_batch_fallible(
        &mut self,
        k: usize,
        mut evaluate_batch: impl FnMut(&[Configuration], u64) -> Vec<EvalOutcome>,
    ) -> bool {
        assert!(k > 0, "batch size must be positive");
        if !self.bootstrapped {
            let init = self.options.init_samples;
            self.bootstrap_batch(&mut evaluate_batch, init, k);
            return true;
        }
        if self.recorder.enabled() {
            self.recorder.record(&Event::IterationStart {
                iteration: self.history.trials() as u64,
                history_len: self.history.len() as u64,
            });
        }
        // All trials failed so far: no surrogate, recover by restarts.
        let recovering = self.history.is_empty();
        let suggestions = if recovering {
            self.recovery_batch(k)
        } else {
            self.suggest_batch(k)
        };
        if suggestions.is_empty() {
            return !recovering
                && matches!(self.options.strategy, SelectionStrategy::Proposal { .. });
        }
        self.evaluate_and_merge(suggestions, &mut evaluate_batch, false);
        true
    }

    /// Evaluates `suggestions` through one `evaluate_batch` call, merges
    /// the outcomes back into the history in suggestion order and takes
    /// the merge-boundary checkpoint. `BatchDispatched` / `BatchMerged`
    /// events frame batches of more than one configuration (single-config
    /// batches keep the serial trace shape).
    fn evaluate_and_merge(
        &mut self,
        suggestions: Vec<Configuration>,
        evaluate_batch: &mut impl FnMut(&[Configuration], u64) -> Vec<EvalOutcome>,
        bootstrap: bool,
    ) {
        let traced = self.recorder.enabled();
        let base = self.history.trials() as u64;
        let k = suggestions.len();
        if traced && k > 1 {
            self.recorder.record(&Event::BatchDispatched {
                iteration: base,
                batch: k as u64,
            });
        }
        let timer = SpanTimer::start(traced);
        let outcomes = evaluate_batch(&suggestions, base);
        let elapsed = timer.elapsed_ns();
        assert_eq!(
            outcomes.len(),
            k,
            "batch evaluator must return one outcome per configuration"
        );
        // Whole-batch wall time amortized per trial: with concurrent
        // workers a per-trial wall time is not well-defined at this layer
        // (the executor records true per-worker latencies separately).
        let per_item = elapsed.map(|e| e / k as u64);
        let (mut ok, mut failed) = (0u64, 0u64);
        for (cfg, outcome) in suggestions.into_iter().zip(outcomes) {
            if self.push_outcome(cfg, outcome, bootstrap, per_item) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        if let (Some(elapsed_ns), true) = (elapsed, k > 1) {
            self.recorder.record(&Event::BatchMerged {
                iteration: base,
                batch: k as u64,
                ok,
                failed,
                elapsed_ns,
            });
        }
        // Merge boundaries are the safe points: a snapshot here keeps the
        // trial cursor chunk-aligned, so a resumed run's batch layout
        // matches the uninterrupted one.
        self.maybe_checkpoint();
    }

    /// Persists a snapshot if checkpointing is enabled and at least
    /// `every` trials have elapsed since the last write. Called only at
    /// safe points (after a whole-batch merge). Snapshot writes never
    /// touch the RNG or the history, so enabling checkpointing cannot
    /// change what the tuner evaluates.
    fn maybe_checkpoint(&mut self) {
        let Some(policy) = &self.checkpointing else {
            return;
        };
        if self.history.trials() - self.last_checkpoint_trials >= policy.every {
            self.write_checkpoint();
        }
    }

    /// Writes a snapshot now (checkpointing must be enabled), emitting one
    /// `CheckpointWritten` event on success. A failed write is reported on
    /// stderr and the campaign continues — losing one snapshot is strictly
    /// better than losing the run.
    fn write_checkpoint(&mut self) {
        let Some(policy) = self.checkpointing.clone() else {
            return;
        };
        match self.checkpoint().save(&policy.path) {
            Ok(()) => {
                self.last_checkpoint_trials = self.history.trials();
                if self.recorder.enabled() {
                    self.recorder.record(&Event::CheckpointWritten {
                        trials: self.history.trials() as u64,
                        observations: self.history.len() as u64,
                        failures: self.history.n_failures() as u64,
                    });
                }
            }
            Err(e) => eprintln!("hiperbot: checkpoint write failed ({e}); continuing"),
        }
    }

    /// The graceful-shutdown snapshot: persists the end-of-run state when
    /// checkpointing is enabled and the cadence has not just written it.
    fn final_checkpoint(&mut self) {
        if self.checkpointing.is_some() && self.history.trials() > self.last_checkpoint_trials {
            self.write_checkpoint();
        }
    }

    /// Runs until a [`StoppingSet`](crate::stopping::StoppingSet) fires or
    /// the space is exhausted. The bootstrap always completes first.
    ///
    /// # Panics
    /// Panics if `rules` is empty and the space is continuous (the loop
    /// would never terminate).
    pub fn run_until(
        &mut self,
        rules: &crate::stopping::StoppingSet,
        mut objective: impl FnMut(&Configuration) -> f64,
    ) -> BestResult {
        self.run_until_fallible(rules, |cfg| EvalOutcome::from_value(objective(cfg)))
            .expect("every evaluation failed; use run_until_fallible to handle this")
    }

    /// Fallible variant of [`run_until`](Self::run_until). Returns `None`
    /// when the run ends with zero successful observations (every trial
    /// failed).
    ///
    /// # Panics
    /// Panics if `rules` is empty and the space is continuous (the loop
    /// would never terminate).
    pub fn run_until_fallible(
        &mut self,
        rules: &crate::stopping::StoppingSet,
        mut objective: impl FnMut(&Configuration) -> EvalOutcome,
    ) -> Option<BestResult> {
        assert!(
            !rules.is_empty() || self.space.is_fully_discrete(),
            "an empty stopping set on a continuous space never terminates"
        );
        let init = match rules.evaluation_cap() {
            Some(cap) => self.options.init_samples.min(cap.max(1)),
            None => self.options.init_samples,
        };
        self.run_loop(
            init,
            1,
            |history| usize::from(!rules.should_stop(history)),
            10_000, // proposal duplicates only; treat as converged
            |cfgs, _| cfgs.iter().map(&mut objective).collect(),
        )
    }

    /// Emits the self-describing [`RunHeader`] event (no-op when untraced),
    /// followed — on the first run after a resume — by one `RunResumed`
    /// event stamping where the campaign picked up and from what source,
    /// so trace consumers know the file holds a suffix, not a full run.
    fn emit_run_header(&mut self) {
        if self.recorder.enabled() {
            self.recorder.record(&Event::RunHeader(self.run_header()));
            if let Some(source) = self.resumed_from.take() {
                self.recorder.record(&Event::RunResumed {
                    trials: self.history.trials() as u64,
                    observations: self.history.len() as u64,
                    failures: self.history.n_failures() as u64,
                    source,
                });
            }
        }
    }

    /// Resets the per-run stall counter — except exactly once after a
    /// resume, where the restored count carries the interrupted run's
    /// stalls so the final `ProposalStalled` accounting matches an
    /// uninterrupted run.
    fn reset_stalls(&mut self) {
        if !std::mem::take(&mut self.preserve_stalls_once) {
            self.stalls = 0;
        }
    }

    /// Reads off the best observation, emitting `RunFinished` when traced.
    /// `None` when every trial failed (nothing to report as best).
    ///
    /// Emits one `ProposalStalled` event (total stall count for the run)
    /// first, so duplicate-suggestion stalls — previously tolerated
    /// silently — are visible in traces even when the run found no best.
    fn finish_run(&self) -> Option<BestResult> {
        if self.recorder.enabled() && self.stalls > 0 {
            self.recorder.record(&Event::ProposalStalled {
                iteration: self.history.trials() as u64,
                stalls: self.stalls as u64,
            });
        }
        let (_, cfg, obj) = self.history.best()?;
        if self.recorder.enabled() {
            self.recorder.record(&Event::RunFinished {
                evaluations: self.history.trials() as u64,
                best_objective: obj,
            });
        }
        Some(BestResult {
            config: cfg.clone(),
            objective: obj,
            evaluations: self.history.trials(),
        })
    }

    /// Runs until `budget` total evaluations have been spent (bootstrap
    /// included) or the space is exhausted, and returns the best found.
    /// An objective returning NaN/±∞ is recorded as a failed trial, not an
    /// observation; use [`run_fallible`](Self::run_fallible) to report
    /// failures explicitly.
    ///
    /// A `budget < init_samples` is not an error — the bootstrap is clamped
    /// to `budget` (on a per-run local, never the stored options),
    /// mirroring the paper's fixed-total-sample experiments.
    ///
    /// # Panics
    /// Panics when the run ends with zero successful observations.
    pub fn run(
        &mut self,
        budget: usize,
        mut objective: impl FnMut(&Configuration) -> f64,
    ) -> BestResult {
        self.run_fallible(budget, |cfg| EvalOutcome::from_value(objective(cfg)))
            .expect("every evaluation failed; use run_fallible to handle this")
    }

    /// Fallible variant of [`run`](Self::run): the objective reports an
    /// [`EvalOutcome`] per evaluation, and `budget` counts **trials** —
    /// successes plus permanent failures — since a crashed run consumes
    /// machine time exactly like a successful one. Returns `None` when the
    /// run ends with zero successful observations. It is
    /// [`run_batch_fallible`](Self::run_batch_fallible) with `batch = 1`.
    pub fn run_fallible(
        &mut self,
        budget: usize,
        mut objective: impl FnMut(&Configuration) -> EvalOutcome,
    ) -> Option<BestResult> {
        self.run_batch_fallible(budget, 1, |cfgs, _| {
            cfgs.iter().map(&mut objective).collect()
        })
    }

    /// Batch variant of [`run_fallible`](Self::run_fallible): spends
    /// `budget` trials in batches of (at most) `batch`, evaluating each
    /// batch with one `evaluate_batch` call — typically a multi-worker
    /// executor. The final batch is clamped so the budget is honored
    /// exactly. Returns `None` when the run ends with zero successful
    /// observations.
    pub fn run_batch_fallible(
        &mut self,
        budget: usize,
        batch: usize,
        evaluate_batch: impl FnMut(&[Configuration], u64) -> Vec<EvalOutcome>,
    ) -> Option<BestResult> {
        assert!(budget > 0, "budget must be positive");
        assert!(batch > 0, "batch size must be positive");
        // A budget smaller than init_samples spends it all on bootstrap.
        // Clamp on a local: the stored options stay as configured.
        let init = self.options.init_samples.min(budget);
        self.run_loop(
            init,
            batch,
            |history| budget.saturating_sub(history.trials()),
            100 * budget,
            evaluate_batch,
        )
    }

    /// The run loop every `run*` entry point shares: emits the run header,
    /// bootstraps `init` samples (once per tuner) in chunks of `batch`,
    /// then steps in batches of at most `batch` while `room` allows more
    /// trials, until no progress is possible or more than `max_stalls`
    /// consecutive steps spent no trial (Proposal duplicates only, so a
    /// degenerate space cannot spin forever).
    fn run_loop(
        &mut self,
        init: usize,
        batch: usize,
        room: impl Fn(&ObservationHistory) -> usize,
        max_stalls: usize,
        mut evaluate_batch: impl FnMut(&[Configuration], u64) -> Vec<EvalOutcome>,
    ) -> Option<BestResult> {
        self.emit_run_header();
        self.reset_stalls();
        self.bootstrap_batch(&mut evaluate_batch, init, batch);
        let mut stall_guard = 0usize;
        loop {
            let room = room(&self.history);
            if room == 0 {
                break;
            }
            let before = self.history.trials();
            if !self.step_batch_fallible(batch.min(room), &mut evaluate_batch) {
                break;
            }
            if self.history.trials() > before {
                stall_guard = 0;
            } else {
                stall_guard += 1;
                if stall_guard > max_stalls {
                    break;
                }
            }
        }
        self.final_checkpoint();
        self.finish_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef};

    /// A 2-D discrete space with a unique optimum at (7, 3).
    fn space() -> ParameterSpace {
        let vals: Vec<i64> = (0..10).collect();
        ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap()
    }

    fn objective(cfg: &Configuration) -> f64 {
        let x = cfg.value(0).index() as f64;
        let y = cfg.value(1).index() as f64;
        (x - 7.0).powi(2) + (y - 3.0).powi(2) + 1.0
    }

    #[test]
    fn finds_the_optimum_with_a_fraction_of_the_space() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(1));
        let best = tuner.run(45, objective);
        // 45 of 100 configs; TPE should land on or next to (7,3).
        assert!(best.objective <= 2.0, "best = {:?}", best);
        assert_eq!(best.evaluations, 45);
    }

    #[test]
    fn beats_random_sampling_on_average() {
        let mut tpe_wins = 0;
        for seed in 0..10u64 {
            let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(seed));
            let tpe = tuner.run(40, objective).objective;

            // Random baseline: first 40 uniform samples.
            use hiperbot_space::sampling::sample_distinct;
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
            let s = space();
            let rand_best = sample_distinct(&s, 40, &mut rng)
                .iter()
                .map(objective)
                .fold(f64::INFINITY, f64::min);
            if tpe <= rand_best {
                tpe_wins += 1;
            }
        }
        assert!(tpe_wins >= 7, "TPE won only {tpe_wins}/10 against random");
    }

    #[test]
    fn exhausts_small_spaces_gracefully() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let mut tuner = Tuner::new(s, TunerOptions::default().with_seed(3));
        let best = tuner.run(50, |c| c.value(0).index() as f64 + 1.0);
        assert_eq!(best.evaluations, 3); // the whole space
        assert_eq!(best.objective, 1.0);
    }

    #[test]
    fn budget_below_init_samples_is_all_bootstrap() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(4));
        let best = tuner.run(5, objective);
        assert_eq!(best.evaluations, 5);
    }

    #[test]
    fn history_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = Tuner::new(space(), TunerOptions::default().with_seed(seed));
            t.run(30, objective);
            t.history().objectives().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn later_samples_are_better_than_bootstrap() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(5));
        tuner.run(60, objective);
        let h = tuner.history();
        let boot_avg: f64 = h.objectives()[..20].iter().sum::<f64>() / 20.0;
        let model_avg: f64 = h.objectives()[20..].iter().sum::<f64>() / (h.len() - 20) as f64;
        assert!(
            model_avg < boot_avg,
            "model-driven picks ({model_avg:.2}) should beat random bootstrap ({boot_avg:.2})"
        );
    }

    #[test]
    fn proposal_strategy_works_on_continuous_spaces() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(0.0, 5.0)))
            .build()
            .unwrap();
        let opts = TunerOptions::default()
            .with_seed(6)
            .with_strategy(SelectionStrategy::Proposal { candidates: 24 });
        let mut tuner = Tuner::new(s, opts);
        let best = tuner.run(80, |c| {
            let x = c.value(0).as_f64();
            (x - 3.2).powi(2) + 0.5
        });
        assert!(
            (best.config.value(0).as_f64() - 3.2).abs() < 0.4,
            "best x = {}",
            best.config.value(0).as_f64()
        );
    }

    #[test]
    #[should_panic(expected = "Ranking requires a fully discrete space")]
    fn ranking_on_continuous_space_panics() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
            .build()
            .unwrap();
        let _ = Tuner::new(s, TunerOptions::default());
    }

    #[test]
    fn respects_feasibility_constraints() {
        let vals: Vec<i64> = (0..10).collect();
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .constraint("x+y <= 10", |c, _| {
                c.value(0).index() + c.value(1).index() <= 10
            })
            .build()
            .unwrap();
        let mut tuner = Tuner::new(s.clone(), TunerOptions::default().with_seed(9));
        tuner.run(40, objective);
        for cfg in tuner.history().configs() {
            assert!(s.is_feasible(cfg));
        }
    }

    #[test]
    fn suggest_batch_returns_distinct_top_scorers() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(11));
        tuner.run(25, objective);
        let batch = tuner.suggest_batch(5);
        assert_eq!(batch.len(), 5);
        let set: std::collections::HashSet<_> = batch.iter().cloned().collect();
        assert_eq!(set.len(), 5);
        for c in &batch {
            assert!(!tuner.history().contains(c), "suggested a seen config");
        }
    }

    #[test]
    fn a_batch_step_refreshes_the_columns_once_per_pick() {
        // Each batch of 8 reads the columns 8 times: after the sync that
        // merges the previous batch, and after each of 7 fantasy pushes.
        // The 8 merged observations and the 7 pops add no refresh.
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(3));
        let eval = |batch: &[Configuration], _: u64| {
            batch
                .iter()
                .map(|c| EvalOutcome::Ok(objective(c)))
                .collect()
        };
        assert!(tuner.step_batch_fallible(8, eval)); // bootstrap
        for _ in 0..3 {
            let before = tuner.churn_stats().map_or(0, |c| c.columns_rescored);
            assert!(tuner.step_batch_fallible(8, eval));
            let after = tuner.churn_stats().expect("engine built").columns_rescored;
            // Two discrete parameters.
            assert_eq!(after - before, 8 * 2);
        }
    }

    #[test]
    fn suggest_batch_clamps_to_remaining_pool() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap();
        let mut tuner = Tuner::new(s, TunerOptions::default().with_seed(12));
        tuner.run(3, |c| c.value(0).index() as f64);
        let batch = tuner.suggest_batch(10);
        assert_eq!(batch.len(), 1); // only one unseen config left
    }

    /// The pool's seen mask after a batch, against one synced afresh from
    /// the history: the batch's held picks must all be released.
    fn assert_pool_mask_is_the_history(tuner: &Tuner) {
        let pool = tuner.pool.as_ref().expect("Ranking built its pool");
        let mut fresh = RankingPool::build(&tuner.space);
        fresh.sync(&tuner.space, &tuner.history);
        assert_eq!(pool.seen, fresh.seen);
        assert!(pool.held.is_empty());
    }

    #[test]
    fn a_ranking_batch_leaves_the_pool_mask_as_the_history_sets_it() {
        for mode in [SurrogateMode::Incremental, SurrogateMode::Full] {
            let opts = TunerOptions::default()
                .with_seed(3)
                .with_surrogate_mode(mode);
            let mut tuner = Tuner::new(space(), opts);
            tuner.run_fallible(30, |c| {
                if c.value(0).index() == 9 {
                    EvalOutcome::Timeout
                } else {
                    EvalOutcome::Ok(objective(c))
                }
            });
            for k in [1, 4, 8] {
                let picks = tuner.suggest_batch(k);
                assert_eq!(picks.len(), k, "{mode:?}");
                assert_pool_mask_is_the_history(&tuner);
            }
            // The same picks come back: nothing of the batches stayed held.
            assert_eq!(tuner.suggest_batch(4), tuner.suggest_batch(4), "{mode:?}");
        }
    }

    #[test]
    fn a_batch_that_exhausts_the_pool_releases_its_picks() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap();
        for mode in [SurrogateMode::Incremental, SurrogateMode::Full] {
            let opts = TunerOptions::default()
                .with_seed(5)
                .with_init_samples(2)
                .with_surrogate_mode(mode);
            let mut tuner = Tuner::new(s.clone(), opts);
            tuner.run(4, |c| (c.value(0).index() + 3 * c.value(1).index()) as f64);
            let picks = tuner.suggest_batch(5);
            assert_eq!(picks.len(), 2, "{mode:?}: two of six left");
            assert_pool_mask_is_the_history(&tuner);
        }
    }

    #[test]
    fn a_proposal_batch_leaves_the_code_set_as_the_history_sets_it() {
        let opts = TunerOptions::default()
            .with_seed(8)
            .with_strategy(SelectionStrategy::Proposal { candidates: 16 });
        let mut tuner = Tuner::new(space(), opts);
        tuner.run(40, objective);
        let picks = tuner.suggest_batch(6);
        assert!(!picks.is_empty());
        let mut fresh = ProposalSeen::new(&tuner.space);
        fresh.sync(&tuner.space, &tuner.history);
        assert_eq!(tuner.proposal_seen, fresh);
    }

    #[test]
    fn run_until_stops_on_stagnation() {
        use crate::stopping::{StoppingRule, StoppingSet};
        let rules = StoppingSet::new()
            .with(StoppingRule::MaxEvaluations(100))
            .with(StoppingRule::NoImprovement {
                window: 8,
                min_delta: 0.0,
            });
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(13));
        let best = tuner.run_until(&rules, objective);
        assert!(best.evaluations < 100, "stagnation should stop early");
        assert!(best.objective <= 3.0, "still found a good config");
    }

    #[test]
    fn run_until_stops_on_target_value() {
        use crate::stopping::{StoppingRule, StoppingSet};
        let rules = StoppingSet::new().with(StoppingRule::TargetValue(1.0));
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(14));
        let best = tuner.run_until(&rules, objective);
        assert!(best.objective <= 1.0);
        assert!(best.evaluations <= 100);
    }

    // Regression (S3): `run`/`run_until` used to write the budget-clamped
    // bootstrap size back into `self.options.init_samples`, corrupting the
    // run header and any later run on the same tuner.
    #[test]
    fn small_budget_run_leaves_options_unchanged() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(4));
        let header_before = tuner.run_header();
        tuner.run(5, objective);
        assert_eq!(
            tuner.options().init_samples,
            20,
            "run(5) must not overwrite the configured init_samples"
        );
        assert_eq!(tuner.run_header(), header_before);
    }

    #[test]
    fn small_cap_run_until_leaves_options_unchanged() {
        use crate::stopping::{StoppingRule, StoppingSet};
        let rules = StoppingSet::new().with(StoppingRule::MaxEvaluations(5));
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(4));
        tuner.run_until(&rules, objective);
        assert_eq!(tuner.options().init_samples, 20);
        assert!(tuner.run_header().options.contains("init_samples=20"));
    }

    // Regression (S4): non-finite EI scores (e.g. pseudo_count = 0 making
    // an unseen value -inf in both densities, so the score is NaN) used to
    // panic `suggest_batch` on `partial_cmp(..).expect("finite EI")`.
    #[test]
    fn suggest_batch_survives_nan_scores() {
        let mut opts = TunerOptions::default().with_seed(15).with_init_samples(3);
        opts.pseudo_count = 0.0;
        let mut tuner = Tuner::new(space(), opts);
        tuner.run(3, objective);
        let batch = tuner.suggest_batch(5);
        assert!(!batch.is_empty());
        for c in &batch {
            assert!(!tuner.history().contains(c));
        }
    }

    #[test]
    fn failed_trials_are_recorded_and_never_best() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(16));
        // Fail every config with even x; others succeed.
        let best = tuner
            .run_fallible(40, |c| {
                if c.value(0).index() % 2 == 0 {
                    EvalOutcome::Failed {
                        reason: "injected".into(),
                    }
                } else {
                    EvalOutcome::Ok(objective(c))
                }
            })
            .expect("odd-x configs succeed");
        assert_eq!(best.evaluations, 40, "budget counts trials, not successes");
        assert_eq!(tuner.history().trials(), 40);
        assert!(tuner.history().n_failures() > 0, "some trials must fail");
        assert!(best.objective.is_finite());
        assert_eq!(best.config.value(0).index() % 2, 1);
        // Failed configs are never re-suggested and never in the objective
        // table.
        for f in tuner.history().failures() {
            assert_eq!(f.config.value(0).index() % 2, 0);
        }
        for c in tuner.history().configs() {
            assert_eq!(c.value(0).index() % 2, 1);
        }
    }

    #[test]
    fn infallible_run_converts_nan_to_failures() {
        // Pre-PR this panicked inside history.push / split_by_quantile.
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(17));
        let best = tuner.run(30, |c| {
            if c.value(0).index() == 5 {
                f64::NAN
            } else {
                objective(c)
            }
        });
        assert!(best.objective.is_finite());
        assert!(tuner.history().objectives().iter().all(|y| y.is_finite()));
        for f in tuner.history().failures() {
            assert_eq!(f.config.value(0).index(), 5);
        }
    }

    #[test]
    fn all_failed_run_returns_none_and_spends_budget() {
        let mut tuner = Tuner::new(space(), TunerOptions::default().with_seed(18));
        let out = tuner.run_fallible(25, |_| EvalOutcome::Timeout);
        assert!(out.is_none());
        assert_eq!(tuner.history().trials(), 25);
        assert_eq!(tuner.history().len(), 0);
        // Recovery restarts keep drawing distinct configs, not re-failing
        // the same one.
        let distinct: std::collections::HashSet<_> = tuner
            .history()
            .failures()
            .iter()
            .map(|f| f.config.clone())
            .collect();
        assert_eq!(distinct.len(), 25);
    }

    /// An event's JSON with every `*_ns` timing zeroed.
    fn untimed(event: &Event) -> String {
        let json = serde_json::to_string(event).expect("events serialize");
        let mut parts = json.split("_ns\":");
        let mut out = parts.next().unwrap_or_default().to_string();
        for part in parts {
            out.push_str("_ns\":0");
            out.push_str(part.trim_start_matches(|c: char| c.is_ascii_digit()));
        }
        out
    }

    #[test]
    fn all_failed_exhausts_small_discrete_spaces() {
        // Serially and in batches, under both strategies, the run ends once
        // recovery has tried the whole space.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let fail = |_: &Configuration| EvalOutcome::Failed {
            reason: "always".into(),
        };
        for strategy in [
            SelectionStrategy::Ranking,
            SelectionStrategy::Proposal { candidates: 8 },
        ] {
            let run = |batch: usize| {
                let rec = Arc::new(hiperbot_obs::MemoryRecorder::new());
                let opts = TunerOptions::default()
                    .with_seed(19)
                    .with_strategy(strategy);
                let mut tuner = Tuner::new(s.clone(), opts).with_recorder(rec.clone());
                let out = match batch {
                    0 => tuner.run_fallible(50, fail),
                    k => tuner.run_batch_fallible(50, k, |c, _| c.iter().map(fail).collect()),
                };
                assert!(out.is_none());
                assert_eq!(tuner.history().trials(), 3, "stops after trying the space");
                rec.events().iter().map(untimed).collect::<Vec<_>>()
            };
            let serial = run(0);
            assert_eq!(serial, run(1), "{strategy:?}");
            let starts = |events: &[String]| {
                events
                    .iter()
                    .filter(|e| e.contains("IterationStart"))
                    .count()
            };
            assert_eq!(starts(&serial), starts(&run(4)), "{strategy:?}");
        }
    }

    #[test]
    fn proposal_suggest_returns_none_on_a_duplicate_and_counts_one_stall() {
        // Five of six configurations seen: most draws land on seen ones.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap();
        let opts = TunerOptions::default()
            .with_seed(5)
            .with_init_samples(2)
            .with_strategy(SelectionStrategy::Proposal { candidates: 1 });
        let mut tuner = Tuner::new(s, opts);
        tuner.run(5, |c| (c.value(0).index() + 3 * c.value(1).index()) as f64);
        assert_eq!(tuner.history().trials(), 5);
        let mut nones = 0;
        for _ in 0..20 {
            let stalls = tuner.stalls();
            match tuner.suggest() {
                None => {
                    nones += 1;
                    assert_eq!(tuner.stalls(), stalls + 1);
                }
                Some(cfg) => {
                    assert!(!tuner.history().contains(&cfg), "suggested a seen config");
                    assert_eq!(tuner.stalls(), stalls);
                }
            }
        }
        assert!(nones > 0, "no suggestion duplicated history");
    }

    #[test]
    fn fallible_history_is_deterministic_per_seed() {
        let run = |seed| {
            let mut t = Tuner::new(space(), TunerOptions::default().with_seed(seed));
            t.run_fallible(30, |c| {
                if (c.value(0).index() + c.value(1).index()) % 3 == 0 {
                    EvalOutcome::Failed {
                        reason: "mod3".into(),
                    }
                } else {
                    EvalOutcome::Ok(objective(c))
                }
            });
            (
                t.history().objectives().to_vec(),
                t.history().failures().to_vec(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn transfer_prior_accelerates_the_search() {
        // Source study: full sweep of the same landscape.
        let s = space();
        let all = s.enumerate();
        let objs: Vec<f64> = all.iter().map(objective).collect();
        let prior = TransferPrior::from_source(&s, &all, &objs, 0.2, 1.0);

        let mut wins = 0;
        for seed in 0..10u64 {
            let with = Tuner::new(
                s.clone(),
                TunerOptions::default()
                    .with_seed(seed)
                    .with_init_samples(5)
                    .with_prior(prior.clone(), 1.0),
            )
            .run(12, objective)
            .objective;
            let without = Tuner::new(
                s.clone(),
                TunerOptions::default().with_seed(seed).with_init_samples(5),
            )
            .run(12, objective)
            .objective;
            if with <= without {
                wins += 1;
            }
        }
        assert!(wins >= 7, "prior helped only {wins}/10 runs");
    }
}
