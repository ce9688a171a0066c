//! The incremental surrogate engine: O(churn) refits.
//!
//! [`TpeSurrogate::fit_with_failures`] rebuilds everything from scratch every
//! iteration — re-sorting the whole objective history for the α-quantile
//! split, re-observing every configuration into fresh per-parameter
//! densities, and recomputing the whole-pool score table. This module keeps
//! all of that state *persistent* instead: each new observation costs an
//! O(log n) insertion into an order-statistics multiset, density deltas for
//! only the configurations whose good/bad class actually changed (the
//! *churn*, typically 0–2 per step), and a cheap per-domain-value column
//! refresh. Constant-liar fantasy observations push and pop through the same
//! path, so `suggest_batch` no longer pays k full refits per batch.
//!
//! One engine serves both selection strategies. Ranking reads the score
//! columns; Proposal borrows the per-parameter [`ParamView`]s
//! ([`IncrementalSurrogate::views`]) — draws walk the maintained good pmf
//! or sample the good KDE, scores read the columns and the KDEs.
//!
//! ## The bit-identity contract
//!
//! The engine's densities, threshold, score columns, and candidate scores
//! are **bit-identical** to a from-scratch [`TpeSurrogate`] fit on the same
//! data at every step — not approximately equal. Tuner traces, histories,
//! and the lowest-pool-index tie-break are therefore unchanged by the
//! engine. This holds because each maintained quantity is either updated
//! with exactly-invertible arithmetic (integer-valued f64 counts), rebuilt
//! with expressions written identically to the from-scratch path, or kept in
//! the *canonical order* the from-scratch path would produce (KDE kernel
//! vectors, whose log-sum-exp evaluation depends on storage order). The
//! contract is enforced by [`IncrementalSurrogate::assert_parity`] — called
//! on every tuner step in debug builds — and the property suite in
//! `tests/incremental_parity.rs`.
//!
//! ## What is and is not O(churn)
//!
//! The split maintenance and density updates are genuinely O(log n + churn).
//! The discrete good pmfs and score *columns* are refreshed in full —
//! O(Σ|domain_i|) divisions and `ln` calls — once per read, because
//! Laplace smoothing couples every bin of a column through the shared
//! denominator `total + n·pseudo`: one changed observation changes the
//! class totals and therefore every bin's smoothed pmf, so a single-bin
//! delta is impossible (see DESIGN §11). Domain sizes are tiny (tens of
//! values) relative to histories (thousands), so this term is noise next
//! to the eliminated O(n log n) sort and O(n·P) re-observe.
//!
//! ## Deferred refresh
//!
//! [`observe`](IncrementalSurrogate::observe),
//! [`pop_observation`](IncrementalSurrogate::pop_observation) and
//! [`observe_failure`](IncrementalSurrogate::observe_failure) refresh the
//! columns before returning, so every state they leave is readable. The
//! tuner, which applies several updates before its next read, uses the
//! crate's `_deferred` variants, which only mark the columns stale, and
//! refreshes once before reading: after syncing a merged batch, and not
//! after the fantasy pops that end a constant-liar batch, whose next read
//! follows the next sync. The readers
//! ([`tables`](IncrementalSurrogate::tables),
//! [`score`](IncrementalSurrogate::score) and
//! [`views`](IncrementalSurrogate::views)) assert in debug builds that the
//! columns are fresh.

use crate::surrogate::{
    ParamDensity, ParamView, ProposalModel, SurrogateOptions, TpeSurrogate, ViewTables,
};
use crate::transfer::TransferPrior;
use hiperbot_space::{Configuration, Domain, ParameterSpace};
use hiperbot_stats::histogram::SmoothedHistogram;
use hiperbot_stats::kde::{Bandwidth, GaussianKde};
use hiperbot_stats::order_stats::OrderStatMultiset;

/// Cumulative work counters for the engine — exported to the metrics
/// registry by the tuner so `--metrics-summary` can report how much delta
/// work the incremental path actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Observations absorbed (including constant-liar fantasies).
    pub inserts: u64,
    /// Observations undone (constant-liar fantasy pops).
    pub removes: u64,
    /// Failed configurations folded into the bad densities.
    pub failures: u64,
    /// Existing observations whose good/bad class flipped on an update.
    pub churned: u64,
    /// Discrete score columns recomputed: one per discrete parameter per
    /// refresh that ran.
    pub columns_rescored: u64,
}

/// State of one discrete parameter: raw (target-domain) class histograms,
/// an optional transfer prior, the per-observation value index and the
/// maintained good pmf `p_g(v)`. Its score column lives in the engine's
/// [`columns`](IncrementalSurrogate::tables).
#[derive(Debug, Clone)]
struct DiscreteState {
    good: SmoothedHistogram,
    bad: SmoothedHistogram,
    prior: Option<(SmoothedHistogram, SmoothedHistogram, f64)>,
    vals: Vec<usize>,
    good_pmf: Vec<f64>,
}

impl DiscreteState {
    /// Recomputes the good pmf and the score column
    /// `ln p_g(v) − ln p_b(v)` from the current class histograms.
    ///
    /// The expressions mirror `SmoothedHistogram::pmf` (and `with_prior`
    /// composition) term for term, so `good_pmf` is bit-identical to a
    /// from-scratch fit's `p_g` — a Proposal draw walking it takes the
    /// same bin from the same RNG word — and the column to `ScoreTable`'s
    /// entries.
    fn refresh_column(&mut self, pseudo: f64, column: &mut Vec<f64>) {
        let n = self.good.n_categories();
        let nf = n as f64;
        self.good_pmf.clear();
        column.clear();
        match &self.prior {
            Some((pg, pb, w)) => {
                let gden = (self.good.total_weight() + w * pg.total_weight()) + nf * pseudo;
                let bden = (self.bad.total_weight() + w * pb.total_weight()) + nf * pseudo;
                for v in 0..n {
                    let gnum = (self.good.count(v) + w * pg.count(v)) + pseudo;
                    let bnum = (self.bad.count(v) + w * pb.count(v)) + pseudo;
                    let g = gnum / gden;
                    self.good_pmf.push(g);
                    column.push(g.ln() - (bnum / bden).ln());
                }
            }
            None => {
                let gden = self.good.total_weight() + nf * pseudo;
                let bden = self.bad.total_weight() + nf * pseudo;
                for v in 0..n {
                    let g = (self.good.count(v) + pseudo) / gden;
                    self.good_pmf.push(g);
                    column.push(g.ln() - ((self.bad.count(v) + pseudo) / bden).ln());
                }
            }
        }
    }
}

/// State of one continuous parameter: the class membership lists (ascending
/// observation index — the canonical order a from-scratch fit would iterate
/// them in), the failure tail, and the maintained KDEs.
#[derive(Debug, Clone)]
struct ContState {
    lo: f64,
    hi: f64,
    bw: Bandwidth,
    prior_good: Vec<f64>,
    prior_bad: Vec<f64>,
    prior_w: f64,
    vals: Vec<f64>,
    failed_vals: Vec<f64>,
    good_list: Vec<u32>,
    bad_list: Vec<u32>,
    good_kde: Option<GaussianKde>,
    bad_kde: Option<GaussianKde>,
}

impl ContState {
    /// Reassembles one side's KDE from scratch in canonical order:
    /// observations (index-ascending), then failures (bad side only, in
    /// failure order), then prior points. Used on empty↔non-empty
    /// transitions; steady-state updates go through point deltas.
    fn rebuild_side(&mut self, good_side: bool) {
        let mut pts: Vec<f64> = Vec::new();
        let mut wts: Vec<f64> = Vec::new();
        let list = if good_side {
            &self.good_list
        } else {
            &self.bad_list
        };
        for &i in list {
            pts.push(self.vals[i as usize]);
            wts.push(1.0);
        }
        if !good_side {
            for &v in &self.failed_vals {
                pts.push(v);
                wts.push(1.0);
            }
        }
        let prior = if good_side {
            &self.prior_good
        } else {
            &self.prior_bad
        };
        pts.extend_from_slice(prior);
        wts.extend(std::iter::repeat_n(self.prior_w, prior.len()));
        let kde = if pts.is_empty() {
            None
        } else {
            Some(GaussianKde::fit_weighted(&pts, &wts, self.bw))
        };
        if good_side {
            self.good_kde = kde;
        } else {
            self.bad_kde = kde;
        }
    }

    /// Adds observation `i` to one side's membership list and KDE.
    fn add_obs(&mut self, i: u32, to_good: bool) {
        let v = self.vals[i as usize];
        let list = if to_good {
            &mut self.good_list
        } else {
            &mut self.bad_list
        };
        let pos = match list.binary_search(&i) {
            Err(p) => p,
            Ok(_) => panic!("observation {i} already in class list"),
        };
        list.insert(pos, i);
        // Observation kernels occupy the vector prefix (before failures and
        // prior points), so the list position is also the storage position.
        let kde = if to_good {
            &mut self.good_kde
        } else {
            &mut self.bad_kde
        };
        match kde {
            Some(k) => k.insert_point(pos, v, 1.0),
            None => self.rebuild_side(to_good),
        }
    }

    /// Removes observation `i` from one side's membership list and KDE.
    fn remove_obs(&mut self, i: u32, from_good: bool) {
        let list = if from_good {
            &mut self.good_list
        } else {
            &mut self.bad_list
        };
        let pos = list.binary_search(&i).expect("observation in class list");
        list.remove(pos);
        let kde = if from_good {
            &mut self.good_kde
        } else {
            &mut self.bad_kde
        };
        let k = kde.as_mut().expect("KDE exists while class is populated");
        k.remove_point(pos);
        if k.is_empty() {
            *kde = None;
        }
    }

    /// Appends a failed configuration's value to the bad KDE's failure
    /// segment (after the bad observations, before the prior points).
    fn add_failure(&mut self, v: f64) {
        let pos = self.bad_list.len() + self.failed_vals.len();
        self.failed_vals.push(v);
        match &mut self.bad_kde {
            Some(k) => k.insert_point(pos, v, 1.0),
            None => self.rebuild_side(false),
        }
    }
}

#[derive(Debug, Clone)]
enum ParamState {
    Discrete(DiscreteState),
    Continuous(ContState),
}

/// A persistent TPE surrogate that absorbs observations, failures, and
/// constant-liar fantasies incrementally — O(log n) split maintenance plus
/// density deltas for the churned configurations only — while remaining
/// bit-identical to a from-scratch [`TpeSurrogate`] fit at every step.
///
/// The good/bad split is maintained with an [`OrderStatMultiset`]: the
/// α-quantile threshold is two rank selections, and the configurations whose
/// class flips under a threshold move are enumerated by an ordered range
/// scan over `[min(t_old, t_new), max(t_old, t_new)]` instead of a full
/// re-partition. The degenerate-split promotion (all values ≥ threshold ⇒
/// promote the single best) is carried as an overlay on top of the
/// `value < threshold` rule, exactly as `split_by_quantile` resolves it.
#[derive(Debug, Clone)]
pub struct IncrementalSurrogate {
    options: SurrogateOptions,
    params: Vec<ParamState>,
    /// The score column of each discrete parameter, indexed by parameter
    /// (empty for a continuous one): kept together so the Ranking search
    /// borrows them as one slice.
    columns: Vec<Vec<f64>>,
    split: OrderStatMultiset,
    values: Vec<f64>,
    class_good: Vec<bool>,
    threshold: f64,
    promoted: Option<u32>,
    n_good: usize,
    n_failed: usize,
    stats: ChurnStats,
    churn_scratch: Vec<u32>,
    /// Set by a deferred update: the class densities moved, the good pmfs
    /// and score columns have not followed yet.
    stale: bool,
}

impl IncrementalSurrogate {
    /// Creates an empty engine for `space`, optionally seeded with a
    /// transfer-learning prior (mixed exactly as
    /// [`TpeSurrogate::fit_with_failures`] mixes it).
    pub fn new(
        space: &ParameterSpace,
        options: &SurrogateOptions,
        prior: Option<(&TransferPrior, f64)>,
    ) -> Self {
        let mut params: Vec<ParamState> = space
            .params()
            .iter()
            .enumerate()
            .map(|(p, def)| match def.domain() {
                Domain::Discrete(values) => {
                    let n = values.len();
                    ParamState::Discrete(DiscreteState {
                        good: SmoothedHistogram::new(n, options.pseudo_count),
                        bad: SmoothedHistogram::new(n, options.pseudo_count),
                        prior: prior.map(|(pr, w)| {
                            let (pg, pb) = pr.discrete(p);
                            (pg.clone(), pb.clone(), w)
                        }),
                        vals: Vec::new(),
                        good_pmf: Vec::with_capacity(n),
                    })
                }
                Domain::Continuous { lo, hi } => {
                    let (prior_good, prior_bad, prior_w) = match prior {
                        Some((pr, w)) => {
                            let (pg, pb) = pr.continuous(p);
                            (pg.to_vec(), pb.to_vec(), w)
                        }
                        None => (Vec::new(), Vec::new(), 0.0),
                    };
                    let mut st = ContState {
                        lo: *lo,
                        hi: *hi,
                        bw: Bandwidth::Fixed(options.bandwidth_fraction * (hi - lo)),
                        prior_good,
                        prior_bad,
                        prior_w,
                        vals: Vec::new(),
                        failed_vals: Vec::new(),
                        good_list: Vec::new(),
                        bad_list: Vec::new(),
                        good_kde: None,
                        bad_kde: None,
                    };
                    // A non-empty prior side exists in every from-scratch
                    // fit regardless of observations; materialize it now so
                    // the first delta lands on the right canonical vector.
                    if !st.prior_good.is_empty() {
                        st.rebuild_side(true);
                    }
                    if !st.prior_bad.is_empty() {
                        st.rebuild_side(false);
                    }
                    ParamState::Continuous(st)
                }
            })
            .collect();
        let mut columns = vec![Vec::new(); params.len()];
        for (st, column) in params.iter_mut().zip(&mut columns) {
            if let ParamState::Discrete(d) = st {
                d.refresh_column(options.pseudo_count, column);
            }
        }
        Self {
            options: *options,
            params,
            columns,
            split: OrderStatMultiset::new(),
            values: Vec::new(),
            class_good: Vec::new(),
            threshold: f64::NAN,
            promoted: None,
            n_good: 0,
            n_failed: 0,
            stats: ChurnStats::default(),
            churn_scratch: Vec::new(),
            stale: false,
        }
    }

    /// Number of (non-failed) observations absorbed, including any fantasy
    /// observations not yet popped.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of failed configurations folded into the bad densities.
    pub fn n_failed(&self) -> usize {
        self.n_failed
    }

    /// Observations currently classified good.
    pub fn n_good(&self) -> usize {
        self.n_good
    }

    /// Observations currently classified bad.
    pub fn n_bad(&self) -> usize {
        self.values.len() - self.n_good
    }

    /// The good/bad threshold `y(τ)` of the current state (NaN when empty).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Cumulative delta-work counters.
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Derives the current threshold and promotion overlay from the split
    /// multiset, mirroring `split_by_quantile`: type-7 quantile threshold,
    /// and when no value is strictly below it, promote the single best
    /// (first among `total_cmp`-minimal values, i.e. lowest index).
    fn recompute_split(&self) -> (f64, Option<u32>) {
        let t = self.split.quantile(self.options.alpha).unwrap_or(f64::NAN);
        let (min_v, min_i) = self.split.min().expect("split is non-empty");
        let promoted = if min_v < t { None } else { Some(min_i) };
        (t, promoted)
    }

    /// Re-classifies the observations whose good/bad class changes under the
    /// threshold move `t_old → t_new` or the promotion change, and applies
    /// the corresponding density deltas. Candidates are exactly the entries
    /// whose value lies in the closed interval between the thresholds, plus
    /// the old/new promoted indices; everything else keeps its class.
    fn flip_churned(
        &mut self,
        t_old: f64,
        t_new: f64,
        promoted_old: Option<u32>,
        promoted_new: Option<u32>,
    ) {
        let mut cand = std::mem::take(&mut self.churn_scratch);
        cand.clear();
        let (lo, hi) = if t_old <= t_new {
            (t_old, t_new)
        } else {
            (t_new, t_old)
        };
        // NaN thresholds (possible only when alpha is outside [0,1]) make
        // both bounds NaN: the scan visits nothing and class membership is
        // decided purely by the promotion overlay, as in the full fit.
        if lo <= hi {
            self.split.for_each_in(lo, hi, &mut |_, i| cand.push(i));
        }
        for x in [promoted_old, promoted_new].into_iter().flatten() {
            cand.push(x);
        }
        cand.sort_unstable();
        cand.dedup();
        for &i in &cand {
            // Entries at or past class_good.len() are the in-flight index of
            // the current insert (classified by the caller afterwards) or a
            // just-removed index: neither has a maintained class here.
            if i as usize >= self.class_good.len() {
                continue;
            }
            let new_class = self.values[i as usize] < t_new || promoted_new == Some(i);
            if self.class_good[i as usize] != new_class {
                self.class_good[i as usize] = new_class;
                if new_class {
                    self.n_good += 1;
                } else {
                    self.n_good -= 1;
                }
                self.move_obs(i, new_class);
                self.stats.churned += 1;
            }
        }
        cand.clear();
        self.churn_scratch = cand;
    }

    /// Moves observation `i` from one class's densities to the other's.
    fn move_obs(&mut self, i: u32, to_good: bool) {
        for st in &mut self.params {
            match st {
                ParamState::Discrete(d) => {
                    let v = d.vals[i as usize];
                    if to_good {
                        d.bad.unobserve(v);
                        d.good.observe(v);
                    } else {
                        d.good.unobserve(v);
                        d.bad.observe(v);
                    }
                }
                ParamState::Continuous(c) => {
                    c.remove_obs(i, !to_good);
                    c.add_obs(i, to_good);
                }
            }
        }
    }

    /// Adds observation `i` to the densities of its class.
    fn add_to_densities(&mut self, i: u32, good: bool) {
        for st in &mut self.params {
            match st {
                ParamState::Discrete(d) => {
                    let v = d.vals[i as usize];
                    if good {
                        d.good.observe(v);
                    } else {
                        d.bad.observe(v);
                    }
                }
                ParamState::Continuous(c) => c.add_obs(i, good),
            }
        }
    }

    /// Removes observation `i` from the densities of its class.
    fn remove_from_densities(&mut self, i: u32, was_good: bool) {
        for st in &mut self.params {
            match st {
                ParamState::Discrete(d) => {
                    let v = d.vals[i as usize];
                    if was_good {
                        d.good.unobserve(v);
                    } else {
                        d.bad.unobserve(v);
                    }
                }
                ParamState::Continuous(c) => c.remove_obs(i, was_good),
            }
        }
    }

    /// Recomputes every discrete good pmf and score column if an update
    /// left them stale; a no-op otherwise. Laplace smoothing couples a
    /// column's bins through the shared class totals, so any observation
    /// change dirties every column; each is O(|domain|), tiny next to the
    /// eliminated full refit (see module docs).
    pub(crate) fn refresh(&mut self) {
        if !self.stale {
            return;
        }
        let pseudo = self.options.pseudo_count;
        for (st, column) in self.params.iter_mut().zip(&mut self.columns) {
            if let ParamState::Discrete(d) = st {
                d.refresh_column(pseudo, column);
                self.stats.columns_rescored += 1;
            }
        }
        self.stale = false;
    }

    /// Debug-build guard of every column reader.
    fn assert_fresh(&self) {
        debug_assert!(
            !self.stale,
            "score columns read while stale: call refresh() after a deferred update"
        );
    }

    /// Absorbs one observation: O(log n) split insertion, density deltas for
    /// the churned configurations, column refresh. Constant-liar fantasies
    /// go through this same path and are undone with
    /// [`pop_observation`](Self::pop_observation).
    ///
    /// # Panics
    /// Panics if `y` is not finite (the observation history enforces the
    /// same invariant) or the configuration arity mismatches the space.
    pub fn observe(&mut self, cfg: &Configuration, y: f64) {
        self.observe_deferred(cfg, y);
        self.refresh();
    }

    /// [`observe`](Self::observe) without the column refresh: the columns
    /// stay stale until [`refresh`](Self::refresh).
    ///
    /// # Panics
    /// As [`observe`](Self::observe).
    pub(crate) fn observe_deferred(&mut self, cfg: &Configuration, y: f64) {
        assert!(y.is_finite(), "objective must be finite");
        assert_eq!(cfg.len(), self.params.len(), "arity mismatch");
        assert!(self.values.len() < u32::MAX as usize, "history too large");
        let idx = self.values.len() as u32;
        let had_obs = !self.values.is_empty();
        let t_old = self.threshold;
        let promoted_old = self.promoted;

        self.values.push(y);
        for (p, st) in self.params.iter_mut().enumerate() {
            match st {
                ParamState::Discrete(d) => d.vals.push(cfg.value(p).index()),
                ParamState::Continuous(c) => c.vals.push(cfg.value(p).as_f64()),
            }
        }
        self.split.insert(y, idx);
        let (t_new, promoted_new) = self.recompute_split();
        if had_obs {
            self.flip_churned(t_old, t_new, promoted_old, promoted_new);
        }
        let good = y < t_new || promoted_new == Some(idx);
        self.class_good.push(good);
        if good {
            self.n_good += 1;
        }
        self.add_to_densities(idx, good);
        self.threshold = t_new;
        self.promoted = promoted_new;
        self.stale = true;
        self.stats.inserts += 1;
    }

    /// Undoes the most recent [`observe`](Self::observe) (LIFO only — this
    /// is the constant-liar fantasy undo, not general deletion). The engine
    /// returns bit-exactly to its prior state: integer-count deltas are
    /// exactly invertible, KDE vectors shrink back to their previous
    /// contents, and the threshold is re-derived from the shrunken multiset.
    ///
    /// # Panics
    /// Panics if no observations are held.
    pub fn pop_observation(&mut self) {
        self.pop_deferred();
        self.refresh();
    }

    /// [`pop_observation`](Self::pop_observation) without the column
    /// refresh: the columns stay stale until [`refresh`](Self::refresh).
    ///
    /// # Panics
    /// Panics if no observations are held.
    pub(crate) fn pop_deferred(&mut self) {
        assert!(!self.values.is_empty(), "no observation to pop");
        let idx = (self.values.len() - 1) as u32;
        let y = self.values[idx as usize];
        let was_good = self.class_good[idx as usize];
        let t_old = self.threshold;
        let promoted_old = self.promoted;

        self.split.remove(y, idx);
        self.remove_from_densities(idx, was_good);
        if was_good {
            self.n_good -= 1;
        }
        self.values.pop();
        self.class_good.pop();
        for st in &mut self.params {
            match st {
                ParamState::Discrete(d) => {
                    d.vals.pop();
                }
                ParamState::Continuous(c) => {
                    c.vals.pop();
                }
            }
        }
        if self.values.is_empty() {
            self.threshold = f64::NAN;
            self.promoted = None;
        } else {
            let (t_new, promoted_new) = self.recompute_split();
            self.flip_churned(t_old, t_new, promoted_old, promoted_new);
            self.threshold = t_new;
            self.promoted = promoted_new;
        }
        self.stale = true;
        self.stats.removes += 1;
    }

    /// Folds a permanently-failed configuration into the bad densities
    /// (quarantined from the quantile split, exactly as
    /// [`TpeSurrogate::fit_with_failures`] treats failures).
    pub fn observe_failure(&mut self, cfg: &Configuration) {
        self.observe_failure_deferred(cfg);
        self.refresh();
    }

    /// [`observe_failure`](Self::observe_failure) without the column
    /// refresh: the columns stay stale until [`refresh`](Self::refresh).
    pub(crate) fn observe_failure_deferred(&mut self, cfg: &Configuration) {
        assert_eq!(cfg.len(), self.params.len(), "arity mismatch");
        for (p, st) in self.params.iter_mut().enumerate() {
            match st {
                ParamState::Discrete(d) => d.bad.observe(cfg.value(p).index()),
                ParamState::Continuous(c) => c.add_failure(cfg.value(p).as_f64()),
            }
        }
        self.n_failed += 1;
        self.stale = true;
        self.stats.failures += 1;
    }

    /// The per-parameter score columns (`tables[p][v] = ln p_g(v) − ln
    /// p_b(v)`) in the layout the Ranking argmax reads, or `None`
    /// if any parameter is continuous. Bit-identical to
    /// `ScoreTable::discrete_tables()` of a from-scratch fit. Borrowed as
    /// the engine holds them: a search builds no per-call list.
    pub fn tables(&self) -> Option<&[Vec<f64>]> {
        self.assert_fresh();
        self.params
            .iter()
            .all(|st| matches!(st, ParamState::Discrete(_)))
            .then_some(self.columns.as_slice())
    }

    /// The candidate's EI score, bit-identical to [`TpeSurrogate::log_ei`]
    /// on a from-scratch fit of the same data.
    pub fn score(&self, cfg: &Configuration) -> f64 {
        self.assert_fresh();
        assert_eq!(cfg.len(), self.params.len(), "arity mismatch");
        self.params
            .iter()
            .enumerate()
            .map(|(p, st)| match st {
                ParamState::Discrete(_) => self.columns[p][cfg.value(p).index()],
                ParamState::Continuous(c) => {
                    let x = cfg.value(p).as_f64();
                    let g = c
                        .good_kde
                        .as_ref()
                        .expect("good KDE exists once observations are held")
                        .log_pdf(x);
                    let b = match &c.bad_kde {
                        Some(k) => k.log_pdf(x),
                        None => (1.0 / (c.hi - c.lo)).ln(),
                    };
                    g - b
                }
            })
            .sum()
    }

    /// The per-parameter Proposal views over the maintained state: each
    /// discrete parameter lends its `good_pmf` and score column, each
    /// continuous one its KDEs. Bit-identical inputs to a from-scratch
    /// fit's views, so draws and scores match it bit for bit.
    ///
    /// # Panics
    /// Panics if a continuous parameter has no good KDE (no observations
    /// and no prior points).
    pub fn views(&self) -> Vec<ParamView<'_>> {
        self.assert_fresh();
        self.params
            .iter()
            .zip(&self.columns)
            .map(|(st, column)| match st {
                ParamState::Discrete(d) => ParamView::Discrete {
                    good_pmf: &d.good_pmf,
                    column,
                },
                ParamState::Continuous(c) => ParamView::Continuous {
                    good: c
                        .good_kde
                        .as_ref()
                        .expect("good KDE exists once observations are held"),
                    bad: c.bad_kde.as_ref(),
                    lo: c.lo,
                    hi: c.hi,
                },
            })
            .collect()
    }

    /// Materializes the current state as a [`TpeSurrogate`], bit-identical
    /// to a from-scratch fit of the same data. The tuner never needs one —
    /// both strategies select from the engine itself — so this serves the
    /// parity check and callers that want an owned fit.
    ///
    /// # Panics
    /// Panics if no observations are held (a fit over no data is undefined).
    pub fn to_surrogate(&self) -> TpeSurrogate {
        assert!(!self.values.is_empty(), "no observations to materialize");
        let densities = self
            .params
            .iter()
            .map(|st| match st {
                ParamState::Discrete(d) => {
                    let (good, bad) = match &d.prior {
                        Some((pg, pb, w)) => (d.good.with_prior(pg, *w), d.bad.with_prior(pb, *w)),
                        None => (d.good.clone(), d.bad.clone()),
                    };
                    ParamDensity::Discrete { good, bad }
                }
                ParamState::Continuous(c) => ParamDensity::Continuous {
                    good: c
                        .good_kde
                        .clone()
                        .expect("good KDE exists once observations are held"),
                    bad: c.bad_kde.clone(),
                    lo: c.lo,
                    hi: c.hi,
                },
            })
            .collect();
        TpeSurrogate::from_parts(
            densities,
            self.threshold,
            self.n_good,
            self.n_bad(),
            self.n_failed,
        )
    }

    /// Asserts bit-identity between this engine and a from-scratch
    /// [`TpeSurrogate::fit_with_failures`] over the given data — the
    /// parity mode of the bit-identity contract. The tuner calls this on
    /// every step in debug builds; the property suite calls it directly.
    /// Stale columns are checked as the next refresh will leave them, on a
    /// refreshed copy.
    ///
    /// # Panics
    /// Panics (with a diagnostic) on any bit divergence.
    pub fn assert_parity(
        &self,
        space: &ParameterSpace,
        configs: &[Configuration],
        objectives: &[f64],
        failed: &[Configuration],
        prior: Option<(&TransferPrior, f64)>,
    ) {
        if self.stale {
            let mut fresh = self.clone();
            fresh.refresh();
            return fresh.assert_parity(space, configs, objectives, failed, prior);
        }
        assert_eq!(self.len(), configs.len(), "observation count mismatch");
        assert_eq!(self.n_failed, failed.len(), "failure count mismatch");
        if configs.is_empty() {
            return;
        }
        let full = TpeSurrogate::fit_with_failures(
            space,
            configs,
            objectives,
            failed,
            &self.options,
            prior,
        );
        assert_eq!(
            self.threshold.to_bits(),
            full.threshold().to_bits(),
            "threshold diverged: incremental {} vs full {}",
            self.threshold,
            full.threshold()
        );
        assert_eq!(self.n_good, full.n_good(), "n_good diverged");
        assert_eq!(self.n_bad(), full.n_bad(), "n_bad diverged");
        let materialized = self.to_surrogate();
        for (p, (a, b)) in materialized
            .densities()
            .iter()
            .zip(full.densities())
            .enumerate()
        {
            match (a, b) {
                (
                    ParamDensity::Discrete { good: ag, bad: ab },
                    ParamDensity::Discrete { good: fg, bad: fb },
                ) => {
                    assert_histogram_eq(ag, fg, p, "good");
                    assert_histogram_eq(ab, fb, p, "bad");
                }
                (
                    ParamDensity::Continuous {
                        good: ag, bad: ab, ..
                    },
                    ParamDensity::Continuous {
                        good: fg, bad: fb, ..
                    },
                ) => {
                    assert_kde_eq(ag, fg, p, "good");
                    match (ab, fb) {
                        (Some(ak), Some(fk)) => assert_kde_eq(ak, fk, p, "bad"),
                        (None, None) => {}
                        (a, b) => panic!(
                            "param {p}: bad KDE presence diverged \
                             (incremental {} vs full {})",
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
                _ => unreachable!("density kinds always match the space"),
            }
        }
        // Columns must match the entries a ScoreTable would precompute, and
        // the good pmf the masses a Proposal draw walks.
        for (p, (st, d)) in self.params.iter().zip(full.densities()).enumerate() {
            if let (ParamState::Discrete(ds), ParamDensity::Discrete { good, bad }) = (st, d) {
                for v in 0..good.n_categories() {
                    assert_eq!(
                        ds.good_pmf[v].to_bits(),
                        good.pmf(v).to_bits(),
                        "param {p} good_pmf[{v}] diverged: incremental {} vs full {}",
                        ds.good_pmf[v],
                        good.pmf(v)
                    );
                    let expected = good.pmf(v).ln() - bad.pmf(v).ln();
                    assert_eq!(
                        self.columns[p][v].to_bits(),
                        expected.to_bits(),
                        "param {p} column[{v}] diverged: incremental {} vs full {}",
                        self.columns[p][v],
                        expected
                    );
                }
            }
        }
    }
}

impl ProposalModel for IncrementalSurrogate {
    /// The engine maintains every table a view needs, so `_tables` stays
    /// untouched.
    fn param_views<'a>(&'a self, _tables: &'a mut ViewTables) -> Vec<ParamView<'a>> {
        self.views()
    }
}

fn assert_histogram_eq(a: &SmoothedHistogram, b: &SmoothedHistogram, p: usize, side: &str) {
    assert_eq!(a.n_categories(), b.n_categories());
    assert_eq!(
        a.total_weight().to_bits(),
        b.total_weight().to_bits(),
        "param {p} {side} histogram total diverged"
    );
    for v in 0..a.n_categories() {
        assert_eq!(
            a.count(v).to_bits(),
            b.count(v).to_bits(),
            "param {p} {side} histogram count[{v}] diverged: {} vs {}",
            a.count(v),
            b.count(v)
        );
    }
}

fn assert_kde_eq(a: &GaussianKde, b: &GaussianKde, p: usize, side: &str) {
    assert_eq!(
        a.points().len(),
        b.points().len(),
        "param {p} {side} KDE kernel count diverged"
    );
    for (k, (x, y)) in a.points().iter().zip(b.points()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "param {p} {side} KDE point[{k}] diverged: {x} vs {y}"
        );
    }
    for (k, (x, y)) in a.weights().iter().zip(b.weights()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "param {p} {side} KDE weight[{k}] diverged: {x} vs {y}"
        );
    }
    assert_eq!(
        a.total_weight().to_bits(),
        b.total_weight().to_bits(),
        "param {p} {side} KDE total weight diverged"
    );
    assert_eq!(
        a.bandwidth().to_bits(),
        b.bandwidth().to_bits(),
        "param {p} {side} KDE bandwidth diverged"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{ParamDef, ParamValue};

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap()
    }

    fn mixed_space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("x", Domain::continuous(0.0, 5.0)))
            .build()
            .unwrap()
    }

    fn cfg2(a: usize, b: usize) -> Configuration {
        Configuration::from_indices(&[a, b])
    }

    fn cfg_mixed(a: usize, x: f64) -> Configuration {
        Configuration::new(vec![ParamValue::Index(a), ParamValue::Real(x)])
    }

    #[test]
    fn stream_of_observations_stays_in_parity() {
        let s = space();
        let opts = SurrogateOptions::default();
        let mut eng = IncrementalSurrogate::new(&s, &opts, None);
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        for i in 0..25usize {
            let c = cfg2(i % 4, (i * 7) % 3);
            let y = ((i as f64 * 13.37).sin() * 10.0).round() / 2.0;
            eng.observe(&c, y);
            configs.push(c);
            objs.push(y);
            eng.assert_parity(&s, &configs, &objs, &[], None);
        }
        assert!(eng.stats().inserts == 25);
    }

    #[test]
    fn failures_fold_into_bad_and_stay_in_parity() {
        let s = space();
        let opts = SurrogateOptions::default();
        let mut eng = IncrementalSurrogate::new(&s, &opts, None);
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        let mut failed = Vec::new();
        for i in 0..20usize {
            if i % 4 == 3 {
                let c = cfg2((i + 1) % 4, i % 3);
                eng.observe_failure(&c);
                failed.push(c);
            } else {
                let c = cfg2(i % 4, i % 3);
                let y = 1.0 + (i as f64 * 31.0) % 7.0;
                eng.observe(&c, y);
                configs.push(c);
                objs.push(y);
            }
            eng.assert_parity(&s, &configs, &objs, &failed, None);
        }
    }

    #[test]
    fn fantasy_push_pop_restores_state_bitwise() {
        let s = space();
        let opts = SurrogateOptions::default();
        let mut eng = IncrementalSurrogate::new(&s, &opts, None);
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        for i in 0..12usize {
            let c = cfg2(i % 4, i % 3);
            let y = (i as f64 * 3.1) % 9.0;
            eng.observe(&c, y);
            configs.push(c);
            objs.push(y);
        }
        let before: Vec<u64> = eng
            .tables()
            .unwrap()
            .iter()
            .flat_map(|t| t.iter().map(|v| v.to_bits()))
            .collect();
        let t_before = eng.threshold().to_bits();
        // Push three fantasies at the liar value, then pop them LIFO.
        let liar = eng.threshold();
        for a in 0..3 {
            eng.observe(&cfg2(a, a % 3), liar);
        }
        for _ in 0..3 {
            eng.pop_observation();
        }
        let after: Vec<u64> = eng
            .tables()
            .unwrap()
            .iter()
            .flat_map(|t| t.iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(before, after, "fantasy pops must restore exact bits");
        assert_eq!(eng.threshold().to_bits(), t_before);
        eng.assert_parity(&s, &configs, &objs, &[], None);
        assert_eq!(eng.stats().removes, 3);
    }

    /// Every discrete parameter's good pmf and column, as bits.
    fn column_bits(eng: &IncrementalSurrogate) -> Vec<u64> {
        let mut bits = Vec::new();
        for (st, column) in eng.params.iter().zip(&eng.columns) {
            if let ParamState::Discrete(d) = st {
                bits.extend(d.good_pmf.iter().chain(column).map(|x| x.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn deferred_pops_and_one_refresh_restore_the_pre_batch_columns() {
        let s = space();
        let mut eng = IncrementalSurrogate::new(&s, &SurrogateOptions::default(), None);
        for i in 0..12usize {
            eng.observe_deferred(&cfg2(i % 4, (i * 5) % 3), (i as f64 * 2.3) % 7.0);
        }
        eng.refresh();
        let before = column_bits(&eng);
        let liar = eng.threshold();
        for k in 1..=5usize {
            // As the tuner does: each fantasy push refreshes for its read,
            // the pops defer, and one refresh precedes the next read.
            for a in 0..k {
                eng.observe(&cfg2(a % 4, (a + 1) % 3), liar);
            }
            for _ in 0..k {
                eng.pop_deferred();
            }
            assert!(eng.stale);
            eng.refresh();
            assert_eq!(column_bits(&eng), before, "after {k} pushes and pops");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn readers_refuse_stale_columns() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let s = space();
        let mut eng = IncrementalSurrogate::new(&s, &SurrogateOptions::default(), None);
        eng.observe(&cfg2(0, 0), 1.0);
        eng.observe_failure_deferred(&cfg2(1, 1));
        let probe = cfg2(2, 2);
        let readers: [&dyn Fn(&IncrementalSurrogate); 3] = [
            &|e| {
                e.tables();
            },
            &|e| {
                e.score(&probe);
            },
            &|e| {
                e.views();
            },
        ];
        for read in readers {
            let stale = catch_unwind(AssertUnwindSafe(|| read(&eng)));
            assert!(stale.is_err(), "a reader saw stale columns");
        }
        eng.refresh();
        for read in readers {
            read(&eng);
        }
    }

    #[test]
    fn columns_rescored_counts_only_the_refreshes_that_ran() {
        // Two discrete parameters and a continuous one, which has no column.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("x", Domain::continuous(0.0, 5.0)))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let cfg = |i: usize| {
            Configuration::new(vec![
                ParamValue::Index(i % 4),
                ParamValue::Real(i as f64 * 0.6),
                ParamValue::Index(i % 3),
            ])
        };
        let mut eng = IncrementalSurrogate::new(&s, &SurrogateOptions::default(), None);
        // A sync of 8 observations: one refresh.
        for i in 0..8 {
            eng.observe_deferred(&cfg(i), i as f64);
        }
        assert_eq!(eng.stats().columns_rescored, 0);
        eng.refresh();
        assert_eq!(eng.stats().columns_rescored, 2);
        // Nothing changed since: no refresh runs.
        eng.refresh();
        assert_eq!(eng.stats().columns_rescored, 2);
        // The eager updates refresh once each.
        eng.observe(&cfg(8), 3.5);
        eng.observe_failure(&cfg(9));
        eng.pop_observation();
        assert_eq!(eng.stats().columns_rescored, 8);
        let stats = eng.stats();
        assert_eq!((stats.inserts, stats.removes, stats.failures), (9, 1, 1));
    }

    #[test]
    fn mixed_space_scores_match_full_fit_bitwise() {
        let s = mixed_space();
        let opts = SurrogateOptions::default();
        let mut eng = IncrementalSurrogate::new(&s, &opts, None);
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        let mut failed = Vec::new();
        for i in 0..18usize {
            if i % 5 == 4 {
                let c = cfg_mixed(i % 3, 0.25 + (i as f64 * 0.7) % 4.5);
                eng.observe_failure(&c);
                failed.push(c);
            } else {
                let c = cfg_mixed((i * 2) % 3, (i as f64 * 1.3) % 5.0);
                let y = 2.0 + (i as f64 * 17.0) % 11.0;
                eng.observe(&c, y);
                configs.push(c);
                objs.push(y);
            }
            eng.assert_parity(&s, &configs, &objs, &failed, None);
            if !configs.is_empty() {
                let full =
                    TpeSurrogate::fit_with_failures(&s, &configs, &objs, &failed, &opts, None);
                for probe in &configs {
                    assert_eq!(
                        eng.score(probe).to_bits(),
                        full.log_ei(probe).to_bits(),
                        "score diverged from log_ei"
                    );
                }
            }
        }
    }

    #[test]
    fn transfer_prior_is_mixed_identically() {
        let s = space();
        let opts = SurrogateOptions::default();
        // Build a small prior from a source sweep.
        let src_configs: Vec<Configuration> = (0..10).map(|i| cfg2(i % 4, i % 3)).collect();
        let src_objs: Vec<f64> = (0..10).map(|i| (i as f64 * 7.0) % 5.0).collect();
        let prior =
            TransferPrior::from_source(&s, &src_configs, &src_objs, opts.alpha, opts.pseudo_count);
        let w = 0.3;
        let mut eng = IncrementalSurrogate::new(&s, &opts, Some((&prior, w)));
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        for i in 0..15usize {
            let c = cfg2((i * 3) % 4, (i * 2) % 3);
            let y = (i as f64 * 5.0) % 13.0;
            eng.observe(&c, y);
            configs.push(c);
            objs.push(y);
            eng.assert_parity(&s, &configs, &objs, &[], Some((&prior, w)));
        }
    }

    #[test]
    fn tables_are_none_for_mixed_spaces() {
        let s = mixed_space();
        let mut eng = IncrementalSurrogate::new(&s, &SurrogateOptions::default(), None);
        eng.observe(&cfg_mixed(0, 1.0), 1.0);
        assert!(eng.tables().is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_objective_panics() {
        let s = space();
        let mut eng = IncrementalSurrogate::new(&s, &SurrogateOptions::default(), None);
        eng.observe(&cfg2(0, 0), f64::NAN);
    }

    #[test]
    fn zero_pseudo_count_parity_including_non_finite_columns() {
        // pseudo_count = 0 produces -inf / NaN column entries; parity must
        // hold on their exact bit patterns too.
        let s = space();
        let opts = SurrogateOptions {
            pseudo_count: 0.0,
            ..SurrogateOptions::default()
        };
        let mut eng = IncrementalSurrogate::new(&s, &opts, None);
        let mut configs = Vec::new();
        let mut objs = Vec::new();
        for i in 0..10usize {
            let c = cfg2(i % 2, i % 3); // leaves values 2,3 of `a` unseen
            let y = 1.0 + i as f64;
            eng.observe(&c, y);
            configs.push(c);
            objs.push(y);
            eng.assert_parity(&s, &configs, &objs, &[], None);
        }
    }
}
