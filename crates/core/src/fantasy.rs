//! The surrogate behind the tuner's one constant-liar suggestion loop.
//!
//! `Tuner::suggest_batch` reads a [`FantasySurrogate`]: a fit kept level
//! with the observation history by [`sync`](FantasySurrogate::sync),
//! extended by one constant-liar fantasy observation per pick while a
//! batch is built, and cut back to the history by
//! [`pop_fantasies`](FantasySurrogate::pop_fantasies) before the batch
//! returns. A serial step is a batch of one, which pushes no fantasy.
//!
//! Two implementations exist. [`IncrementalSurrogate`] absorbs each update
//! in O(churn) and is what runs (`SurrogateMode::Incremental`).
//! [`RefitSurrogate`] refits from scratch over the history plus the live
//! fantasies after every sync and push (`SurrogateMode::Full`): it is the
//! reference the parity suites run the engine against, and both give
//! bit-identical picks, draws and traces.

use crate::history::ObservationHistory;
use crate::incremental::{ChurnStats, IncrementalSurrogate};
use crate::selection::{
    select_by_proposal_vectorized, ProposalPick, ProposalScratch, Seen, PROPOSAL_REDRAW_ROUNDS,
};
use crate::surrogate::{
    FitScratch, ParamView, ProposalModel, SurrogateMode, SurrogateOptions, TpeSurrogate, ViewTables,
};
use crate::transfer::TransferPrior;
use hiperbot_space::{Configuration, ParameterSpace};
use rand_chacha::ChaCha8Rng;

/// A surrogate fit that constant-liar batches extend with fantasy
/// observations and cut back, LIFO. Every reader (`threshold`, `tables`,
/// `score`, `propose`, …) sees the history as of the last sync plus the
/// fantasies pushed since.
pub(crate) trait FantasySurrogate: ProposalModel + Send + Sync {
    /// Absorbs the observations and failures appended to `history` since
    /// the last sync. No fantasy is live when this is called.
    fn sync(&mut self, space: &ParameterSpace, history: &ObservationHistory);

    /// Adds the fantasy observation `(cfg, y)`.
    fn push_fantasy(&mut self, space: &ParameterSpace, cfg: &Configuration, y: f64);

    /// Removes the `n` most recent fantasies. Nothing reads the model
    /// again before the next sync.
    fn pop_fantasies(&mut self, n: usize);

    /// Observations held, live fantasies included.
    fn len(&self) -> usize;

    /// The good/bad threshold `y(τ)`.
    fn threshold(&self) -> f64;

    /// Observations classified good.
    fn n_good(&self) -> usize;

    /// Observations classified bad.
    fn n_bad(&self) -> usize;

    /// The per-parameter score columns the Ranking search reads, or `None`
    /// when a parameter is continuous.
    fn tables(&self) -> Option<&[Vec<f64>]>;

    /// The candidate's EI score (`log_ei`).
    fn score(&self, cfg: &Configuration) -> f64;

    /// Cumulative delta-work counters (zero for a refit).
    fn stats(&self) -> ChurnStats;

    /// One Proposal pick. The tuner calls this through the trait once per
    /// pick, and the selector runs on the concrete model.
    fn propose(
        &self,
        space: &ParameterSpace,
        seen: Seen<'_>,
        candidates: usize,
        rng: &mut ChaCha8Rng,
        scratch: &mut ProposalScratch,
    ) -> ProposalPick {
        select_by_proposal_vectorized(
            self,
            space,
            seen,
            candidates,
            PROPOSAL_REDRAW_ROUNDS,
            rng,
            scratch,
        )
    }

    /// Debug-build check that the model equals a from-scratch fit over
    /// `history` plus `fantasies` at the `liar` value. The reference fit
    /// itself has nothing to be checked against.
    #[cfg(debug_assertions)]
    fn assert_parity(
        &self,
        _space: &ParameterSpace,
        _history: &ObservationHistory,
        _fantasies: &[Configuration],
        _liar: f64,
        _prior: Option<(&TransferPrior, f64)>,
    ) {
    }
}

/// The model `mode` selects, empty, for `space`.
pub(crate) fn build(
    mode: SurrogateMode,
    space: &ParameterSpace,
    options: SurrogateOptions,
    prior: Option<&(TransferPrior, f64)>,
) -> Box<dyn FantasySurrogate> {
    match mode {
        SurrogateMode::Incremental => Box::new(IncrementalSurrogate::new(
            space,
            &options,
            prior.map(|(p, w)| (p, *w)),
        )),
        SurrogateMode::Full => Box::new(RefitSurrogate {
            options,
            prior: prior.cloned(),
            ..RefitSurrogate::default()
        }),
    }
}

impl FantasySurrogate for IncrementalSurrogate {
    /// Absorbs only the new entries, then refreshes the score columns
    /// once for the read that follows.
    fn sync(&mut self, _space: &ParameterSpace, history: &ObservationHistory) {
        let from = IncrementalSurrogate::len(self);
        for (cfg, &y) in history.configs()[from..]
            .iter()
            .zip(&history.objectives()[from..])
        {
            self.observe_deferred(cfg, y);
        }
        for f in &history.failures()[self.n_failed()..] {
            self.observe_failure_deferred(&f.config);
        }
        self.refresh();
    }

    fn push_fantasy(&mut self, _space: &ParameterSpace, cfg: &Configuration, y: f64) {
        self.observe(cfg, y);
    }

    /// Leaves the columns stale: the next sync refreshes them.
    fn pop_fantasies(&mut self, n: usize) {
        for _ in 0..n {
            self.pop_deferred();
        }
    }

    fn len(&self) -> usize {
        IncrementalSurrogate::len(self)
    }

    fn threshold(&self) -> f64 {
        IncrementalSurrogate::threshold(self)
    }

    fn n_good(&self) -> usize {
        IncrementalSurrogate::n_good(self)
    }

    fn n_bad(&self) -> usize {
        IncrementalSurrogate::n_bad(self)
    }

    fn tables(&self) -> Option<&[Vec<f64>]> {
        IncrementalSurrogate::tables(self)
    }

    fn score(&self, cfg: &Configuration) -> f64 {
        IncrementalSurrogate::score(self, cfg)
    }

    fn stats(&self) -> ChurnStats {
        IncrementalSurrogate::stats(self)
    }

    #[cfg(debug_assertions)]
    fn assert_parity(
        &self,
        space: &ParameterSpace,
        history: &ObservationHistory,
        fantasies: &[Configuration],
        liar: f64,
        prior: Option<(&TransferPrior, f64)>,
    ) {
        let mut configs = history.configs().to_vec();
        configs.extend_from_slice(fantasies);
        let mut objectives = history.objectives().to_vec();
        objectives.resize(configs.len(), liar);
        let failed: Vec<Configuration> = history
            .failures()
            .iter()
            .map(|f| f.config.clone())
            .collect();
        IncrementalSurrogate::assert_parity(self, space, &configs, &objectives, &failed, prior);
    }
}

/// The from-scratch reference: after every sync and every fantasy push it
/// refits a [`TpeSurrogate`] over the history plus the live fantasies.
#[derive(Default)]
pub(crate) struct RefitSurrogate {
    options: SurrogateOptions,
    prior: Option<(TransferPrior, f64)>,
    /// Observed configurations, then the live fantasies.
    configs: Vec<Configuration>,
    /// Objectives of `configs`, fantasies at the liar value.
    objectives: Vec<f64>,
    /// Quarantined failures, each cloned once.
    failed: Vec<Configuration>,
    /// The KDE staging buffers, reused by every refit.
    scratch: FitScratch,
    /// The latest refit; `None` before the first sync.
    fit: Option<TpeSurrogate>,
    /// The latest refit's score columns, or `None` when a parameter is
    /// continuous.
    columns: Option<Vec<Vec<f64>>>,
}

impl RefitSurrogate {
    fn refit(&mut self, space: &ParameterSpace) {
        let fit = TpeSurrogate::fit_with_failures_scratch(
            space,
            &self.configs,
            &self.objectives,
            &self.failed,
            &self.options,
            self.prior.as_ref().map(|(p, w)| (p, *w)),
            &mut self.scratch,
        );
        self.columns = fit
            .score_table()
            .discrete_tables()
            .map(|tables| tables.into_iter().map(<[f64]>::to_vec).collect());
        self.fit = Some(fit);
    }

    fn fit(&self) -> &TpeSurrogate {
        self.fit.as_ref().expect("read after a sync")
    }
}

impl ProposalModel for RefitSurrogate {
    fn param_views<'a>(&'a self, tables: &'a mut ViewTables) -> Vec<ParamView<'a>> {
        self.fit().param_views(tables)
    }
}

impl FantasySurrogate for RefitSurrogate {
    fn sync(&mut self, space: &ParameterSpace, history: &ObservationHistory) {
        let from = self.configs.len();
        self.configs.extend_from_slice(&history.configs()[from..]);
        self.objectives
            .extend_from_slice(&history.objectives()[from..]);
        let from_failed = self.failed.len();
        self.failed.extend(
            history.failures()[from_failed..]
                .iter()
                .map(|f| f.config.clone()),
        );
        self.refit(space);
    }

    fn push_fantasy(&mut self, space: &ParameterSpace, cfg: &Configuration, y: f64) {
        self.configs.push(cfg.clone());
        self.objectives.push(y);
        self.refit(space);
    }

    fn pop_fantasies(&mut self, n: usize) {
        let keep = self.configs.len() - n;
        self.configs.truncate(keep);
        self.objectives.truncate(keep);
    }

    fn len(&self) -> usize {
        self.configs.len()
    }

    fn threshold(&self) -> f64 {
        self.fit().threshold()
    }

    fn n_good(&self) -> usize {
        self.fit().n_good()
    }

    fn n_bad(&self) -> usize {
        self.fit().n_bad()
    }

    fn tables(&self) -> Option<&[Vec<f64>]> {
        self.columns.as_deref()
    }

    fn score(&self, cfg: &Configuration) -> f64 {
        self.fit().log_ei(cfg)
    }

    fn stats(&self) -> ChurnStats {
        ChurnStats::default()
    }
}
