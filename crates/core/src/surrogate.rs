//! The TPE surrogate model (paper §II, §III-B).
//!
//! The surrogate replaces the expensive objective with two factorized
//! densities: `p_g(x) = Π p_g(x_i)` over configurations better than the
//! α-quantile threshold `y(τ)`, and `p_b(x) = Π p_b(x_i)` over the rest
//! (eqs. 3, 7–8). Expected improvement then reduces to the ratio
//! `p_g(x)/p_b(x)` (eq. 5), so candidates are scored by the log-ratio
//! `Σ_i ln p_g(x_i) − ln p_b(x_i)`.

use crate::transfer::TransferPrior;
use hiperbot_space::{Configuration, Domain, ParamValue, ParameterSpace};
use hiperbot_stats::histogram::{sample_masses, SmoothedHistogram};
use hiperbot_stats::kde::{Bandwidth, GaussianKde, KdeScratch};
use hiperbot_stats::quantile::split_by_quantile;

/// Candidate-count chunk of the serial scoring loop in [`score_views`]:
/// the continuous columns' density buffers hold one chunk. Fixed, so chunk
/// boundaries are the same on every machine.
pub const SCORE_CHUNK: usize = 256;

/// Hyperparameters of the surrogate fit.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateOptions {
    /// Quantile threshold α splitting good from bad (paper uses 0.20).
    pub alpha: f64,
    /// Laplace pseudo-count for discrete histograms.
    pub pseudo_count: f64,
    /// KDE bandwidth as a fraction of a continuous parameter's range
    /// (the paper uses Gaussian kernels with a fixed bandwidth).
    pub bandwidth_fraction: f64,
}

impl Default for SurrogateOptions {
    fn default() -> Self {
        Self {
            alpha: 0.20,
            pseudo_count: 1.0,
            bandwidth_fraction: 0.10,
        }
    }
}

/// Which surrogate the tuner's one suggestion loop reads, under both
/// selection strategies.
///
/// `Incremental` (the default, and what every shipped caller runs)
/// maintains a persistent
/// [`IncrementalSurrogate`](crate::incremental::IncrementalSurrogate) that
/// absorbs each new observation in O(log n + churn) instead of re-fitting
/// from scratch every iteration: Ranking reads its score columns, Proposal
/// samples and scores from its maintained pmfs, columns and KDEs. `Full`
/// selects the from-scratch reference, which refits over the history plus
/// the live constant-liar fantasies after every sync and fantasy push. The
/// two produce **bit-identical** suggestions, histories, and traces — the
/// incremental engine's contract, enforced by debug-assert parity checks
/// and by the property suites in `tests/incremental_parity.rs` and
/// `tests/proposal_engine_parity.rs`, which run one against the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateMode {
    /// Persistent O(churn) delta-maintained surrogate (default).
    #[default]
    Incremental,
    /// From-scratch refit per read: the parity suites' reference.
    Full,
}

/// Reusable scratch buffers for the continuous-parameter KDE assembly in
/// [`TpeSurrogate::fit_with_failures_scratch`]. Holding one of these across
/// fits (as the tuner does) removes the four per-parameter `Vec` allocations
/// — points and weights for each class — that the fit path otherwise pays on
/// every iteration.
#[derive(Debug, Default)]
pub struct FitScratch {
    gpts: Vec<f64>,
    gwts: Vec<f64>,
    bpts: Vec<f64>,
    bwts: Vec<f64>,
}

/// Per-parameter good/bad density pair.
#[derive(Debug, Clone)]
pub enum ParamDensity {
    /// Histogram densities for a discrete parameter (§III-B.1).
    Discrete {
        /// Density over values of good configurations.
        good: SmoothedHistogram,
        /// Density over values of bad configurations.
        bad: SmoothedHistogram,
    },
    /// KDE densities for a continuous parameter (§III-B.2). `bad` is `None`
    /// when no bad observation exists yet (uniform fallback).
    Continuous {
        /// Density over values of good configurations.
        good: GaussianKde,
        /// Density over values of bad configurations.
        bad: Option<GaussianKde>,
        /// Domain lower bound.
        lo: f64,
        /// Domain upper bound.
        hi: f64,
    },
}

impl ParamDensity {
    /// `ln p_g(v)` for this parameter.
    pub fn log_good(&self, v: ParamValue) -> f64 {
        match (self, v) {
            (ParamDensity::Discrete { good, .. }, ParamValue::Index(i)) => good.pmf(i).ln(),
            (ParamDensity::Continuous { good, .. }, ParamValue::Real(x)) => good.log_pdf(x),
            _ => panic!("configuration value kind does not match parameter domain"),
        }
    }

    /// `ln p_b(v)` for this parameter.
    pub fn log_bad(&self, v: ParamValue) -> f64 {
        match (self, v) {
            (ParamDensity::Discrete { bad, .. }, ParamValue::Index(i)) => bad.pmf(i).ln(),
            (ParamDensity::Continuous { bad, lo, hi, .. }, ParamValue::Real(x)) => match bad {
                Some(kde) => kde.log_pdf(x),
                None => (1.0 / (hi - lo)).ln(), // uniform fallback
            },
            _ => panic!("configuration value kind does not match parameter domain"),
        }
    }
}

/// The fitted surrogate: one [`ParamDensity`] per parameter plus the
/// threshold metadata.
#[derive(Debug, Clone)]
pub struct TpeSurrogate {
    densities: Vec<ParamDensity>,
    threshold: f64,
    n_good: usize,
    n_bad: usize,
    n_failed: usize,
}

impl TpeSurrogate {
    /// Fits the surrogate to an observation set, optionally mixing in a
    /// transfer-learning prior with weight `w` (paper eqs. 9–10: the prior's
    /// density counts are scaled by `w` and added to the target's).
    ///
    /// # Panics
    /// Panics if `configs` is empty or lengths mismatch.
    pub fn fit(
        space: &ParameterSpace,
        configs: &[Configuration],
        objectives: &[f64],
        options: &SurrogateOptions,
        prior: Option<(&TransferPrior, f64)>,
    ) -> Self {
        Self::fit_with_failures(space, configs, objectives, &[], options, prior)
    }

    /// Like [`fit`](Self::fit), but additionally folds permanently-failed
    /// configurations into the **bad** density as pseudo-evidence, unit
    /// weight each. Failed configurations carry no objective value, so they
    /// are quarantined from the good/bad quantile split (the threshold is
    /// computed over successful observations only) — but their parameter
    /// values still inflate `p_b`, which lowers the EI ratio `p_g/p_b`
    /// around crashing regions and makes the selector actively steer away
    /// from them.
    ///
    /// # Panics
    /// Panics if `configs` is empty or lengths mismatch.
    pub fn fit_with_failures(
        space: &ParameterSpace,
        configs: &[Configuration],
        objectives: &[f64],
        failed: &[Configuration],
        options: &SurrogateOptions,
        prior: Option<(&TransferPrior, f64)>,
    ) -> Self {
        Self::fit_with_failures_scratch(
            space,
            configs,
            objectives,
            failed,
            options,
            prior,
            &mut FitScratch::default(),
        )
    }

    /// Like [`fit_with_failures`](Self::fit_with_failures), but assembles the
    /// continuous-parameter KDE inputs in caller-provided scratch buffers
    /// instead of allocating fresh `Vec`s per parameter per fit. The tuner
    /// holds one [`FitScratch`] across its whole run, so steady-state fits
    /// allocate nothing for point/weight staging.
    ///
    /// Bit-identical to the allocating path: the buffers are cleared and
    /// refilled with exactly the same values in exactly the same order.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_with_failures_scratch(
        space: &ParameterSpace,
        configs: &[Configuration],
        objectives: &[f64],
        failed: &[Configuration],
        options: &SurrogateOptions,
        prior: Option<(&TransferPrior, f64)>,
        scratch: &mut FitScratch,
    ) -> Self {
        assert!(!configs.is_empty(), "cannot fit a surrogate to no data");
        assert_eq!(configs.len(), objectives.len(), "length mismatch");
        let (good_idx, bad_idx, threshold) = split_by_quantile(objectives, options.alpha);

        let densities = space
            .params()
            .iter()
            .enumerate()
            .map(|(p, def)| match def.domain() {
                Domain::Discrete(values) => {
                    let n = values.len();
                    let mut good = SmoothedHistogram::new(n, options.pseudo_count);
                    let mut bad = SmoothedHistogram::new(n, options.pseudo_count);
                    for &i in &good_idx {
                        good.observe(configs[i].value(p).index());
                    }
                    for &i in &bad_idx {
                        bad.observe(configs[i].value(p).index());
                    }
                    for f in failed {
                        bad.observe(f.value(p).index());
                    }
                    if let Some((prior, w)) = prior {
                        let (pg, pb) = prior.discrete(p);
                        good = good.with_prior(pg, w);
                        bad = bad.with_prior(pb, w);
                    }
                    ParamDensity::Discrete { good, bad }
                }
                Domain::Continuous { lo, hi } => {
                    let bw = Bandwidth::Fixed(options.bandwidth_fraction * (hi - lo));
                    scratch.gpts.clear();
                    scratch.gwts.clear();
                    scratch.bpts.clear();
                    scratch.bwts.clear();
                    for &i in &good_idx {
                        scratch.gpts.push(configs[i].value(p).as_f64());
                    }
                    scratch.gwts.resize(scratch.gpts.len(), 1.0);
                    for &i in &bad_idx {
                        scratch.bpts.push(configs[i].value(p).as_f64());
                    }
                    scratch.bwts.resize(scratch.bpts.len(), 1.0);
                    for f in failed {
                        scratch.bpts.push(f.value(p).as_f64());
                        scratch.bwts.push(1.0);
                    }
                    if let Some((prior, w)) = prior {
                        let (pg, pb) = prior.continuous(p);
                        scratch.gpts.extend_from_slice(pg);
                        scratch.gwts.extend(std::iter::repeat_n(w, pg.len()));
                        scratch.bpts.extend_from_slice(pb);
                        scratch.bwts.extend(std::iter::repeat_n(w, pb.len()));
                    }
                    let good = GaussianKde::fit_weighted(&scratch.gpts, &scratch.gwts, bw);
                    let bad = if scratch.bpts.is_empty() {
                        None
                    } else {
                        Some(GaussianKde::fit_weighted(&scratch.bpts, &scratch.bwts, bw))
                    };
                    ParamDensity::Continuous {
                        good,
                        bad,
                        lo: *lo,
                        hi: *hi,
                    }
                }
            })
            .collect();

        Self {
            densities,
            threshold,
            n_good: good_idx.len(),
            n_bad: bad_idx.len(),
            n_failed: failed.len(),
        }
    }

    /// Assembles a surrogate from already-fitted densities — the
    /// materialization path of the incremental engine
    /// ([`IncrementalSurrogate::to_surrogate`](crate::incremental::IncrementalSurrogate::to_surrogate)),
    /// which maintains the densities and split metadata itself and packages
    /// them into a `TpeSurrogate` only for its parity check and for callers
    /// that want an owned fit. The tuner's selections read the engine
    /// directly.
    pub(crate) fn from_parts(
        densities: Vec<ParamDensity>,
        threshold: f64,
        n_good: usize,
        n_bad: usize,
        n_failed: usize,
    ) -> Self {
        Self {
            densities,
            threshold,
            n_good,
            n_bad,
            n_failed,
        }
    }

    /// The expected-improvement score of a candidate, up to the monotone
    /// transform of eq. 5: `Σ_i ln p_g(x_i) − ln p_b(x_i)`. Larger is
    /// better.
    pub fn log_ei(&self, cfg: &Configuration) -> f64 {
        assert_eq!(cfg.len(), self.densities.len(), "arity mismatch");
        self.densities
            .iter()
            .zip(cfg.values())
            .map(|(d, &v)| d.log_good(v) - d.log_bad(v))
            .sum()
    }

    /// Samples a configuration from the good density `p_g` (the Proposal
    /// strategy of §III-D). Infeasible draws are rejected.
    ///
    /// # Panics
    /// Panics if no feasible configuration is drawn in 10 000 attempts.
    pub fn sample_good<R: rand::Rng + ?Sized>(
        &self,
        space: &ParameterSpace,
        rng: &mut R,
    ) -> Configuration {
        for _ in 0..10_000 {
            let values: Vec<ParamValue> = self
                .densities
                .iter()
                .map(|d| match d {
                    ParamDensity::Discrete { good, .. } => ParamValue::Index(good.sample(rng)),
                    ParamDensity::Continuous { good, lo, hi, .. } => {
                        // clamp KDE tails back into the domain
                        ParamValue::Real(good.sample(rng).clamp(*lo, *hi))
                    }
                })
                .collect();
            let cfg = Configuration::new(values);
            if space.is_feasible(&cfg) {
                return cfg;
            }
        }
        panic!("could not propose a feasible configuration from p_g");
    }

    /// Samples `n` configurations from `p_g` into a structure-of-arrays
    /// [`CandidateMatrix`], without allocating a `Configuration` per draw.
    ///
    /// RNG protocol: draws are consumed exactly as `n` successive
    /// [`sample_good`](Self::sample_good) calls would consume them —
    /// candidate by candidate, dimension by dimension in density order,
    /// with a full redraw of every dimension on an infeasible
    /// configuration. Scoring consumes no randomness, so
    /// "sample everything, then score everything" leaves the RNG cursor
    /// exactly where the scalar sample/score interleaving would.
    ///
    /// `probe` is a reusable scratch [`Configuration`] (created on first
    /// use) that carries each row through the feasibility check on a
    /// space with constraints (see [`sample_views`]).
    ///
    /// # Panics
    /// Panics if any draw fails to find a feasible configuration in
    /// 10 000 attempts, exactly like [`sample_good`](Self::sample_good).
    pub fn sample_good_batch<R: rand::Rng + ?Sized>(
        &self,
        space: &ParameterSpace,
        n: usize,
        rng: &mut R,
        matrix: &mut CandidateMatrix,
        probe: &mut Option<Configuration>,
    ) {
        let mut tables = ViewTables::default();
        sample_views(&self.param_views(&mut tables), space, n, rng, matrix, probe);
    }

    /// Scores every candidate in `matrix`, writing `log_ei` per candidate
    /// into `scores` (cleared and resized to `matrix.len()`): the shared
    /// kernel [`score_views`] over this fit's [`ParamView`]s.
    ///
    /// Bit-identity contract: `scores[c]` carries the same bits
    /// [`log_ei`](Self::log_ei) would return for candidate `c`.
    pub fn log_ei_batch(&self, matrix: &CandidateMatrix, scores: &mut Vec<f64>) {
        let mut tables = ViewTables::default();
        score_views(&self.param_views(&mut tables), matrix, scores);
    }

    /// The good/bad threshold `y(τ)` used for this fit.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of observations classified good.
    pub fn n_good(&self) -> usize {
        self.n_good
    }

    /// Number of observations classified bad.
    pub fn n_bad(&self) -> usize {
        self.n_bad
    }

    /// Number of failed configurations folded into the bad density.
    pub fn n_failed(&self) -> usize {
        self.n_failed
    }

    /// The per-parameter densities (used by the importance analysis).
    pub fn densities(&self) -> &[ParamDensity] {
        &self.densities
    }

    /// Precomputes the per-value [`ScoreTable`] for this fit.
    ///
    /// Done once per fit (i.e. once per tuner iteration); the Ranking loop
    /// then scores each of the pool's thousands of candidates by slice
    /// lookups instead of re-walking density objects and re-taking
    /// logarithms per candidate.
    pub fn score_table(&self) -> ScoreTable {
        let entries = self
            .densities
            .iter()
            .map(|d| match d {
                ParamDensity::Discrete { good, bad } => TableEntry::Discrete(
                    (0..good.n_categories())
                        .map(|i| good.pmf(i).ln() - bad.pmf(i).ln())
                        .collect(),
                ),
                cont @ ParamDensity::Continuous { .. } => TableEntry::Continuous(cont.clone()),
            })
            .collect();
        ScoreTable { entries }
    }
}

/// One structure-of-arrays column of a [`CandidateMatrix`].
#[derive(Debug, Clone)]
pub enum CandidateColumn {
    /// Values of one continuous parameter across all candidates.
    Real(Vec<f64>),
    /// Values of one discrete parameter across all candidates.
    Index(Vec<usize>),
}

/// A structure-of-arrays batch of candidate configurations: one column per
/// parameter, candidate-indexed. The Proposal engine samples into this
/// layout so scoring walks each dimension's values contiguously (one
/// [`GaussianKde::log_pdf_batch`] call per continuous column) instead of
/// allocating and re-dispatching a `Configuration` per candidate.
///
/// The matrix is a reusable scratch buffer: [`reset`](Self::reset) clears
/// rows but keeps column allocations when the space shape is unchanged.
#[derive(Debug, Clone, Default)]
pub struct CandidateMatrix {
    cols: Vec<CandidateColumn>,
    n: usize,
}

impl CandidateMatrix {
    /// Clears the matrix and shapes its columns after `views`, reserving
    /// room for `n_hint` candidates. Existing column allocations are kept
    /// when the shape already matches.
    fn reset(&mut self, views: &[ParamView<'_>], n_hint: usize) {
        let matches = self.cols.len() == views.len()
            && self.cols.iter().zip(views).all(|(c, v)| {
                matches!(
                    (c, v),
                    (CandidateColumn::Real(_), ParamView::Continuous { .. })
                        | (CandidateColumn::Index(_), ParamView::Discrete { .. })
                )
            });
        if !matches {
            self.cols = views
                .iter()
                .map(|v| match v {
                    ParamView::Continuous { .. } => CandidateColumn::Real(Vec::new()),
                    ParamView::Discrete { .. } => CandidateColumn::Index(Vec::new()),
                })
                .collect();
        }
        for col in &mut self.cols {
            match col {
                CandidateColumn::Real(xs) => {
                    xs.clear();
                    xs.reserve(n_hint);
                }
                CandidateColumn::Index(is) => {
                    is.clear();
                    is.reserve(n_hint);
                }
            }
        }
        self.n = 0;
    }

    /// Appends one candidate row drawn from the good densities of `views`
    /// (whose shape [`reset`](Self::reset) gave the columns): one draw per
    /// dimension in parameter order, written straight into its column.
    fn draw_row<R: rand::Rng + ?Sized>(&mut self, views: &[ParamView<'_>], rng: &mut R) {
        for (col, v) in self.cols.iter_mut().zip(views) {
            match (col, *v) {
                (CandidateColumn::Index(is), ParamView::Discrete { good_pmf, .. }) => {
                    is.push(sample_masses(good_pmf.iter().copied(), rng));
                }
                // clamp KDE tails back into the domain
                (CandidateColumn::Real(xs), ParamView::Continuous { good, lo, hi, .. }) => {
                    xs.push(good.sample(rng).clamp(lo, hi));
                }
                _ => unreachable!("reset shapes the columns after the views"),
            }
        }
        self.n += 1;
    }

    /// Removes the last candidate row.
    fn pop_row(&mut self) {
        for col in &mut self.cols {
            match col {
                CandidateColumn::Real(xs) => {
                    xs.pop();
                }
                CandidateColumn::Index(is) => {
                    is.pop();
                }
            }
        }
        self.n -= 1;
    }

    /// Writes candidate `c`'s values into `cfg` (which must have matching
    /// arity), reconstructing the row without allocating.
    pub fn write_row(&self, c: usize, cfg: &mut Configuration) {
        assert!(c < self.n, "candidate index out of range");
        for (p, col) in self.cols.iter().enumerate() {
            let v = match col {
                CandidateColumn::Real(xs) => ParamValue::Real(xs[c]),
                CandidateColumn::Index(is) => ParamValue::Index(is[c]),
            };
            cfg.set_value(p, v);
        }
    }

    /// Writes each candidate's mixed-radix code under `radices` (the
    /// domain sizes, first parameter most significant) into `codes`,
    /// computed column by column: the code
    /// [`ParameterSpace::index_of`] gives the candidate's configuration.
    ///
    /// # Panics
    /// Panics if a column is continuous or the arities differ.
    pub(crate) fn codes_into(&self, radices: &[usize], codes: &mut Vec<usize>) {
        assert_eq!(radices.len(), self.cols.len(), "arity mismatch");
        codes.clear();
        codes.resize(self.n, 0);
        for (col, &radix) in self.cols.iter().zip(radices) {
            let CandidateColumn::Index(is) = col else {
                panic!("a continuous column has no code");
            };
            for (code, &i) in codes.iter_mut().zip(is) {
                *code = *code * radix + i;
            }
        }
    }

    /// The per-parameter columns.
    pub fn columns(&self) -> &[CandidateColumn] {
        &self.cols
    }

    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// One parameter's Proposal inputs, borrowed from a fitted model: the good
/// density a draw samples and the terms a score reads. The from-scratch
/// [`TpeSurrogate`] computes its discrete tables into a [`ViewTables`] once
/// per selection; the incremental engine lends the ones it maintains.
#[derive(Debug, Clone, Copy)]
pub enum ParamView<'a> {
    /// A discrete parameter.
    Discrete {
        /// `p_g(v)` per domain index: the masses a draw walks.
        good_pmf: &'a [f64],
        /// `ln p_g(v) − ln p_b(v)` per domain index: the score term.
        column: &'a [f64],
    },
    /// A continuous parameter.
    Continuous {
        /// The good KDE a draw samples from.
        good: &'a GaussianKde,
        /// The bad KDE; `None` scores against the uniform fallback.
        bad: Option<&'a GaussianKde>,
        /// Domain lower bound.
        lo: f64,
        /// Domain upper bound.
        hi: f64,
    },
}

/// Backing storage for the discrete tables a from-scratch fit computes per
/// selection: `p_g(v)` and `ln p_g(v) − ln p_b(v)` per parameter, in the
/// expressions of [`SmoothedHistogram::pmf`] and [`ScoreTable`]. Kept
/// across selections so the per-parameter vectors are reused.
#[derive(Debug, Default)]
pub struct ViewTables {
    pmf: Vec<Vec<f64>>,
    column: Vec<Vec<f64>>,
}

/// A fitted TPE model the Proposal selector draws and scores from.
pub trait ProposalModel {
    /// The per-parameter views, in parameter order. `tables` backs any
    /// table the model computes on demand rather than maintains.
    fn param_views<'a>(&'a self, tables: &'a mut ViewTables) -> Vec<ParamView<'a>>;
}

impl ProposalModel for TpeSurrogate {
    fn param_views<'a>(&'a self, tables: &'a mut ViewTables) -> Vec<ParamView<'a>> {
        let n = self.densities.len();
        tables.pmf.resize_with(n, Vec::new);
        tables.column.resize_with(n, Vec::new);
        for (p, d) in self.densities.iter().enumerate() {
            if let ParamDensity::Discrete { good, bad } = d {
                let range = 0..good.n_categories();
                tables.pmf[p].clear();
                tables.pmf[p].extend(range.clone().map(|i| good.pmf(i)));
                tables.column[p].clear();
                tables.column[p].extend(range.map(|i| good.pmf(i).ln() - bad.pmf(i).ln()));
            }
        }
        let tables: &'a ViewTables = tables;
        self.densities
            .iter()
            .enumerate()
            .map(|(p, d)| match d {
                ParamDensity::Discrete { .. } => ParamView::Discrete {
                    good_pmf: &tables.pmf[p],
                    column: &tables.column[p],
                },
                ParamDensity::Continuous { good, bad, lo, hi } => ParamView::Continuous {
                    good,
                    bad: bad.as_ref(),
                    lo: *lo,
                    hi: *hi,
                },
            })
            .collect()
    }
}

/// Samples `n` feasible configurations from the good densities of `views`
/// into `matrix`: per candidate, one draw per dimension in parameter order
/// (a discrete dimension walks its `good_pmf` with
/// [`sample_masses`](hiperbot_stats::histogram::sample_masses), a
/// continuous one samples its KDE and clamps the tail into the domain),
/// redrawing every dimension while the row is infeasible. Over the views of
/// a fit this consumes the RNG exactly as `n` successive
/// [`TpeSurrogate::sample_good`] calls on that fit.
///
/// Each draw is written straight into its matrix column. On a space with
/// constraints the row is then copied into `probe` — a reusable scratch
/// [`Configuration`], created on first use — for
/// [`ParameterSpace::is_feasible`], and an infeasible row is popped before
/// the redraw. A space without constraints accepts every row as drawn and
/// leaves `probe`'s values untouched.
///
/// # Panics
/// Panics if `probe` has the wrong arity, or if any draw fails to find a
/// feasible configuration in 10 000 attempts.
pub fn sample_views<R: rand::Rng + ?Sized>(
    views: &[ParamView<'_>],
    space: &ParameterSpace,
    n: usize,
    rng: &mut R,
    matrix: &mut CandidateMatrix,
    probe: &mut Option<Configuration>,
) {
    matrix.reset(views, n);
    let probe = probe.get_or_insert_with(|| {
        Configuration::new(
            views
                .iter()
                .map(|v| match *v {
                    ParamView::Discrete { .. } => ParamValue::Index(0),
                    ParamView::Continuous { lo, .. } => ParamValue::Real(lo),
                })
                .collect(),
        )
    });
    assert_eq!(probe.len(), views.len(), "arity mismatch");
    if !space.is_constrained() {
        for _ in 0..n {
            matrix.draw_row(views, rng);
        }
        return;
    }
    for _ in 0..n {
        let mut feasible = false;
        for _ in 0..10_000 {
            matrix.draw_row(views, rng);
            matrix.write_row(matrix.len() - 1, probe);
            if space.is_feasible(probe) {
                feasible = true;
                break;
            }
            matrix.pop_row();
        }
        if !feasible {
            panic!("could not propose a feasible configuration from p_g");
        }
    }
}

/// Scores every candidate in `matrix` under `views`, writing
/// `Σ_i ln p_g(x_i) − ln p_b(x_i)` per candidate into `scores` (cleared and
/// resized to `matrix.len()`).
///
/// Bit-identity contract: over the views of a fit, `scores[c]` carries the
/// bits [`TpeSurrogate::log_ei`] returns for candidate `c`. Each
/// candidate's sum runs dimension by dimension in parameter order from
/// `0.0` — the fold `Iterator::sum` performs in the scalar path — with
/// continuous dimensions delegated to the bit-identical
/// [`GaussianKde::log_pdf_batch`] kernel and discrete dimensions read from
/// their `column`.
///
/// Candidates are scored by a serial loop over fixed chunks of
/// [`SCORE_CHUNK`], in chunk order; no candidate's sum depends on another,
/// so the chunking only bounds the density buffers. This form allocates
/// those buffers per call, and only when a column is continuous; the
/// Proposal selector keeps them in its
/// [`ProposalScratch`](crate::selection::ProposalScratch) instead.
///
/// # Panics
/// Panics if the matrix's arity or column kinds do not match `views`.
pub fn score_views(views: &[ParamView<'_>], matrix: &CandidateMatrix, scores: &mut Vec<f64>) {
    score_views_in(
        views,
        matrix,
        scores,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut KdeScratch::default(),
    );
}

/// [`score_views`] with caller-held buffers: the good and bad densities of
/// one chunk of a continuous column, and the kernel buffers that
/// [`GaussianKde::log_pdf_batch_in`] fills for each of them.
pub(crate) fn score_views_in(
    views: &[ParamView<'_>],
    matrix: &CandidateMatrix,
    scores: &mut Vec<f64>,
    lg: &mut Vec<f64>,
    lb: &mut Vec<f64>,
    kde: &mut KdeScratch,
) {
    assert_eq!(matrix.columns().len(), views.len(), "arity mismatch");
    scores.clear();
    scores.resize(matrix.len(), 0.0);
    for (ci, chunk) in scores.chunks_mut(SCORE_CHUNK).enumerate() {
        let start = ci * SCORE_CHUNK;
        let len = chunk.len();
        for (v, col) in views.iter().zip(matrix.columns()) {
            match (*v, col) {
                (ParamView::Continuous { good, bad, lo, hi }, CandidateColumn::Real(xs)) => {
                    let xs = &xs[start..start + len];
                    lg.resize(len, 0.0);
                    lb.resize(len, 0.0);
                    good.log_pdf_batch_in(xs, lg, kde);
                    match bad {
                        Some(bad) => bad.log_pdf_batch_in(xs, lb, kde),
                        None => lb.fill((1.0 / (hi - lo)).ln()), // uniform fallback
                    }
                    for (s, (&g, &b)) in chunk.iter_mut().zip(lg.iter().zip(lb.iter())) {
                        *s += g - b;
                    }
                }
                (ParamView::Discrete { column, .. }, CandidateColumn::Index(is)) => {
                    for (s, &i) in chunk.iter_mut().zip(&is[start..start + len]) {
                        *s += column[i];
                    }
                }
                _ => panic!("configuration value kind does not match parameter domain"),
            }
        }
    }
}

/// A dense per-value score table precomputed from one surrogate fit — the
/// first half of the batch-scoring engine (see DESIGN.md).
///
/// For every **discrete** parameter the table stores `ln p_g(v) − ln p_b(v)`
/// for each domain index `v`, so a candidate's EI score is a plain sum of
/// slice lookups. **Continuous** parameters keep a clone of their exact
/// densities and are evaluated on demand (a fixed evaluation grid would
/// approximate the KDE and break the exactness contract below); continuous
/// parameters only ever reach [`score`](Self::score), never the flattened
/// Ranking loop, because Ranking requires fully discrete spaces.
///
/// Contract: [`score`](Self::score) is **bit-identical** to
/// [`TpeSurrogate::log_ei`] on the fit it was built from — same per-value
/// expressions, same summation order.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    entries: Vec<TableEntry>,
}

#[derive(Debug, Clone)]
enum TableEntry {
    /// `ln p_g(v) − ln p_b(v)` per domain index.
    Discrete(Vec<f64>),
    /// Exact-evaluation fallback for a continuous parameter.
    Continuous(ParamDensity),
}

impl ScoreTable {
    /// Arity of the fitted space.
    pub fn n_params(&self) -> usize {
        self.entries.len()
    }

    /// Whether every parameter has a dense per-value table (no continuous
    /// fallback entries), i.e. the flattened Ranking loop applies.
    pub fn is_fully_discrete(&self) -> bool {
        self.entries
            .iter()
            .all(|e| matches!(e, TableEntry::Discrete(_)))
    }

    /// The per-parameter score slices, or `None` if any parameter is
    /// continuous. The returned layout (`tables[p][v]`) is what the
    /// Ranking argmax in `selection` reads.
    pub fn discrete_tables(&self) -> Option<Vec<&[f64]>> {
        self.entries
            .iter()
            .map(|e| match e {
                TableEntry::Discrete(t) => Some(t.as_slice()),
                TableEntry::Continuous(_) => None,
            })
            .collect()
    }

    /// The candidate's EI score; bit-identical to [`TpeSurrogate::log_ei`]
    /// on the surrogate this table was built from.
    ///
    /// # Panics
    /// Panics on arity mismatch or when a value's kind does not match its
    /// parameter's domain.
    pub fn score(&self, cfg: &Configuration) -> f64 {
        assert_eq!(cfg.len(), self.entries.len(), "arity mismatch");
        self.entries
            .iter()
            .zip(cfg.values())
            .map(|(e, &v)| match (e, v) {
                (TableEntry::Discrete(t), ParamValue::Index(i)) => t[i],
                (TableEntry::Continuous(d), v @ ParamValue::Real(_)) => {
                    d.log_good(v) - d.log_bad(v)
                }
                _ => panic!("configuration value kind does not match parameter domain"),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn discrete_space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap()
    }

    /// History where a=0 is always good and a=3 always bad.
    fn polarized_history() -> (Vec<Configuration>, Vec<f64>) {
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        for rep in 0..5 {
            configs.push(Configuration::from_indices(&[0, rep % 2]));
            objs.push(1.0 + 0.001 * rep as f64);
        }
        for rep in 0..15 {
            configs.push(Configuration::from_indices(&[3, rep % 2]));
            objs.push(10.0 + 0.001 * rep as f64);
        }
        // distinct configs needed? surrogate doesn't dedupe; duplicates fine
        // but Configuration from same indices repeated... fit() doesn't
        // require distinctness. However from_indices duplicates are equal —
        // that's fine here.
        (configs, objs)
    }

    #[test]
    fn good_values_score_higher() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let good_cfg = Configuration::from_indices(&[0, 0]);
        let bad_cfg = Configuration::from_indices(&[3, 0]);
        assert!(sur.log_ei(&good_cfg) > sur.log_ei(&bad_cfg));
    }

    #[test]
    fn unseen_value_scores_between_extremes() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let unseen = Configuration::from_indices(&[1, 0]);
        let good = Configuration::from_indices(&[0, 0]);
        let bad = Configuration::from_indices(&[3, 0]);
        let (lg, lu, lb) = (sur.log_ei(&good), sur.log_ei(&unseen), sur.log_ei(&bad));
        assert!(lg > lu && lu > lb, "{lg} > {lu} > {lb}");
    }

    #[test]
    fn counts_respect_alpha() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        assert_eq!(sur.n_good() + sur.n_bad(), configs.len());
        // alpha = 0.2 of 20 observations → 4-ish good (quantile boundary)
        assert!(sur.n_good() >= 3 && sur.n_good() <= 5, "{}", sur.n_good());
        assert!(sur.threshold() > 1.0 && sur.threshold() < 10.0);
    }

    #[test]
    fn single_observation_fits() {
        let s = discrete_space();
        let configs = vec![Configuration::from_indices(&[2, 1])];
        let sur = TpeSurrogate::fit(&s, &configs, &[5.0], &SurrogateOptions::default(), None);
        assert_eq!(sur.n_good(), 1);
        assert_eq!(sur.n_bad(), 0);
        assert!(sur.log_ei(&configs[0]).is_finite());
    }

    #[test]
    fn continuous_parameters_use_kde() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(0.0, 10.0)))
            .build()
            .unwrap();
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        // good cluster near 2, bad cluster near 8
        for i in 0..4 {
            configs.push(Configuration::new(vec![ParamValue::Real(
                2.0 + 0.05 * i as f64,
            )]));
            objs.push(1.0 + 0.01 * i as f64);
        }
        for i in 0..16 {
            configs.push(Configuration::new(vec![ParamValue::Real(
                8.0 + 0.05 * i as f64,
            )]));
            objs.push(10.0 + 0.01 * i as f64);
        }
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let near_good = Configuration::new(vec![ParamValue::Real(2.1)]);
        let near_bad = Configuration::new(vec![ParamValue::Real(7.9)]);
        assert!(sur.log_ei(&near_good) > sur.log_ei(&near_bad));
    }

    #[test]
    fn proposal_sampling_prefers_good_region() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let draws: Vec<Configuration> = (0..500).map(|_| sur.sample_good(&s, &mut rng)).collect();
        let a0 = draws.iter().filter(|c| c.value(0).index() == 0).count();
        let a3 = draws.iter().filter(|c| c.value(0).index() == 3).count();
        assert!(a0 > 2 * a3, "a=0 drawn {a0}, a=3 drawn {a3}");
    }

    #[test]
    fn proposal_respects_feasibility() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .constraint("a != 0", |c, _| c.value(0).index() != 0)
            .build()
            .unwrap();
        // History concentrated on a=1 good / a=2,3 bad.
        let configs: Vec<Configuration> = [1usize, 1, 2, 2, 3, 3, 3, 3, 3, 3]
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                // wiggle via the objective only; configs may repeat
                let _ = i;
                Configuration::from_indices(&[a])
            })
            .collect();
        let objs: Vec<f64> = (0..10)
            .map(|i| if i < 2 { 1.0 } else { 9.0 + i as f64 * 0.01 })
            .collect();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..200 {
            let c = sur.sample_good(&s, &mut rng);
            assert_ne!(c.value(0).index(), 0, "infeasible proposal escaped");
        }
    }

    #[test]
    fn failed_configs_depress_ei_in_their_region() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        // Without failures, a=1 and a=2 are symmetric unseen values.
        let base = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let c1 = Configuration::from_indices(&[1, 0]);
        let c2 = Configuration::from_indices(&[2, 0]);
        assert!((base.log_ei(&c1) - base.log_ei(&c2)).abs() < 1e-12);
        // Crashes at a=1 must push its EI below a=2's.
        let failed = vec![
            Configuration::from_indices(&[1, 0]),
            Configuration::from_indices(&[1, 1]),
        ];
        let sur = TpeSurrogate::fit_with_failures(
            &s,
            &configs,
            &objs,
            &failed,
            &SurrogateOptions::default(),
            None,
        );
        assert_eq!(sur.n_failed(), 2);
        assert!(
            sur.log_ei(&c1) < sur.log_ei(&c2),
            "failures must lower EI: {} vs {}",
            sur.log_ei(&c1),
            sur.log_ei(&c2)
        );
        // Quarantine: the quantile split (threshold, counts) ignores them.
        assert_eq!(sur.threshold(), base.threshold());
        assert_eq!(sur.n_good(), base.n_good());
        assert_eq!(sur.n_bad(), base.n_bad());
    }

    #[test]
    fn failed_configs_depress_continuous_ei_too() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(0.0, 10.0)))
            .build()
            .unwrap();
        let configs: Vec<Configuration> = (0..10)
            .map(|i| Configuration::new(vec![ParamValue::Real(2.0 + 0.1 * i as f64)]))
            .collect();
        let objs: Vec<f64> = (0..10).map(|i| 1.0 + i as f64).collect();
        let failed: Vec<Configuration> = (0..5)
            .map(|i| Configuration::new(vec![ParamValue::Real(8.0 + 0.1 * i as f64)]))
            .collect();
        let base = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let sur = TpeSurrogate::fit_with_failures(
            &s,
            &configs,
            &objs,
            &failed,
            &SurrogateOptions::default(),
            None,
        );
        let crash_zone = Configuration::new(vec![ParamValue::Real(8.2)]);
        assert!(sur.log_ei(&crash_zone) < base.log_ei(&crash_zone));
    }

    #[test]
    fn score_table_matches_log_ei_with_failures() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let failed = vec![Configuration::from_indices(&[2, 1])];
        let sur = TpeSurrogate::fit_with_failures(
            &s,
            &configs,
            &objs,
            &failed,
            &SurrogateOptions::default(),
            None,
        );
        let table = sur.score_table();
        for a in 0..4 {
            for b in 0..2 {
                let cfg = Configuration::from_indices(&[a, b]);
                assert_eq!(table.score(&cfg).to_bits(), sur.log_ei(&cfg).to_bits());
            }
        }
    }

    // Satellite regression: a FitScratch reused across fits (including a
    // mixed space and a transfer prior) must leave no residue — every fit is
    // bit-identical to a fresh-allocation fit.
    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_allocation() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("x", Domain::continuous(0.0, 4.0)))
            .build()
            .unwrap();
        let mk = |i: usize| {
            Configuration::new(vec![
                ParamValue::Index(i % 3),
                ParamValue::Real(0.5 + 0.3 * i as f64 % 4.0),
            ])
        };
        let mut scratch = FitScratch::default();
        for n in [1usize, 3, 7, 12] {
            let configs: Vec<Configuration> = (0..n).map(mk).collect();
            let objs: Vec<f64> = (0..n).map(|i| (i as f64 * 13.7) % 5.0).collect();
            let failed: Vec<Configuration> = (0..n / 3).map(|i| mk(i + 50)).collect();
            let opts = SurrogateOptions::default();
            let fresh = TpeSurrogate::fit_with_failures(&s, &configs, &objs, &failed, &opts, None);
            let reused = TpeSurrogate::fit_with_failures_scratch(
                &s,
                &configs,
                &objs,
                &failed,
                &opts,
                None,
                &mut scratch,
            );
            assert_eq!(fresh.threshold().to_bits(), reused.threshold().to_bits());
            for cfg in configs.iter().chain(failed.iter()) {
                assert_eq!(fresh.log_ei(cfg).to_bits(), reused.log_ei(cfg).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        let s = discrete_space();
        let _ = TpeSurrogate::fit(&s, &[], &[], &SurrogateOptions::default(), None);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_scoring_panics() {
        let s = discrete_space();
        let (configs, objs) = polarized_history();
        let sur = TpeSurrogate::fit(&s, &configs, &objs, &SurrogateOptions::default(), None);
        let _ = sur.log_ei(&Configuration::from_indices(&[0]));
    }
}
