//! Candidate selection strategies (paper §III-D).
//!
//! Given a fitted surrogate, the next configuration to evaluate is the one
//! maximizing expected improvement. Two regimes:
//!
//! - **Ranking** — for discrete, finite, enumerable spaces (the common HPC
//!   case): score *every* unseen configuration and take the argmax. This
//!   also "eliminates the scenario where duplicate samples are selected"
//!   (paper §VIII).
//! - **Proposal** — for continuous or huge spaces: draw candidates from the
//!   good density `p_g` and keep the best-scoring one. Sampling from `p_g`
//!   focuses on promising regions while the randomness keeps exploring.
//!
//! Ranking runs once per iteration per repetition over pools of up to
//! 62 208 configurations (the HYPRE transfer space; Kripke energy's model
//! pool holds 17 160), so it runs on the batch-scoring engine: a
//! [`ScoreTable`] of precomputed per-value scores, a [`PoolEncoding`]
//! flattening the pool into a contiguous index buffer, and a [`PoolMask`]
//! marking seen pool positions. The TPE score is a sum of per-parameter
//! table entries (paper eqs. 7–8), so the hot path is [`rank_indexed`]: an
//! exact branch-and-bound search over the pool's prefix runs
//! ([`RunIndex`]) that scores each shared prefix once and skips runs whose
//! upper bound cannot beat the incumbent. The chunked sweep
//! [`rank_encoded`] defines the result — the search returns its pick bit
//! for bit — and stays as the fallback for non-finite tables and as the
//! test oracle.

use crate::history::{HistoryCursor, ObservationHistory};
use crate::surrogate::{
    sample_views, score_views_in, CandidateMatrix, ProposalModel, ScoreTable, TpeSurrogate,
    ViewTables,
};
use hiperbot_space::pool::{IndexBuffer, PoolEncoding, PoolIndex, PoolMask};
use hiperbot_space::{Configuration, ParameterSpace};
use hiperbot_stats::kde::KdeScratch;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which selection regime the tuner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionStrategy {
    /// Exhaustively rank all unseen configurations of a finite space.
    #[default]
    Ranking,
    /// Sample this many candidates from `p_g` and keep the best scorer.
    Proposal {
        /// Number of candidates drawn per iteration.
        candidates: usize,
    },
}

/// Chunk width of the ranking sweep [`rank_encoded`], which reduces each
/// chunk's winner in chunk order. With NaN scores the pick depends on
/// where chunks begin, so this width is part of the sweep's result
/// (DESIGN §16).
pub const RANK_CHUNK: usize = 4096;

/// Argmax of one chunk of the encoded pool. Scans positions in ascending
/// order keeping the first strict maximum, so within a chunk the lowest
/// pool index wins ties.
fn best_in_chunk<T: PoolIndex, C: AsRef<[f64]>>(
    buf: &[T],
    n_params: usize,
    tables: &[C],
    seen: &PoolMask,
    start: usize,
    end: usize,
) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for c in start..end {
        if seen.get(c) {
            continue;
        }
        let row = &buf[c * n_params..(c + 1) * n_params];
        let mut score = 0.0;
        for (p, v) in row.iter().enumerate() {
            score += tables[p].as_ref()[v.as_usize()];
        }
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, c)),
        }
    }
    best
}

/// The batch-scoring argmax: returns the pool position of the best unseen
/// configuration, or `None` when every position is seen.
///
/// **Tie-breaking contract:** among equal-scoring candidates the **lowest
/// pool index** wins. Every candidate's score is a fixed left-to-right sum
/// over its parameters, the pool is scanned in [`RANK_CHUNK`]-wide chunks,
/// and chunk winners are reduced in chunk order with a strict `>` (an
/// earlier chunk's equal score survives).
///
/// `tables[p]` is parameter `p`'s score column: `&[f64]` slices, or the
/// `Vec<f64>` columns the incremental engine lends without a per-search
/// copy.
///
/// # Panics
/// Panics if `tables`' arity differs from the encoding's, or if the mask
/// length differs from the pool length.
pub fn rank_encoded<C: AsRef<[f64]>>(
    tables: &[C],
    encoding: &PoolEncoding,
    seen: &PoolMask,
) -> Option<usize> {
    let n = encoding.n_configs();
    assert_eq!(seen.len(), n, "mask/pool length mismatch");
    if n == 0 {
        return None;
    }
    assert_eq!(tables.len(), encoding.n_params(), "arity mismatch");
    let n_params = encoding.n_params();
    let mut best: Option<(f64, usize)> = None;
    for start in (0..n).step_by(RANK_CHUNK) {
        let end = (start + RANK_CHUNK).min(n);
        let winner = match encoding.buffer() {
            IndexBuffer::U16(b) => best_in_chunk(b, n_params, tables, seen, start, end),
            IndexBuffer::U32(b) => best_in_chunk(b, n_params, tables, seen, start, end),
        };
        if let Some((score, c)) = winner {
            match best {
                Some((s, _)) if s >= score => {}
                _ => best = Some((score, c)),
            }
        }
    }
    best.map(|(_, c)| c)
}

/// The prefix-run index of an encoded pool: for every prefix length
/// `k = 1..n_params`, the maximal runs of consecutive pool positions that
/// share their first `k` parameter values. Runs nest, so the children of a
/// run are a contiguous range of runs one level deeper; the deepest runs'
/// children are pool positions, whose last value is read from the
/// [`PoolEncoding`] (the index holds no copy of it).
///
/// Each run also carries its *suffix shape*: the set of value tuples of
/// the remaining parameters that occur below it. Shapes are hash-consed,
/// so runs with equal suffix sets share one shape; a constraint on the
/// trailing parameters gives a handful of shapes per level. A shape is
/// *free* when it is the full product of the values the pool holds for
/// those parameters; free shapes are recognized in pools whose rows
/// ascend lexicographically.
///
/// Correctness never depends on the pool's order: an unsorted pool only
/// yields shorter runs, more shapes and no free ones.
/// [`ParameterSpace::enumerate`] is lexicographic, so shipped pools have
/// long runs at every level.
#[derive(Debug, Clone)]
pub struct RunIndex {
    n_configs: usize,
    n_params: usize,
    /// `levels[d]` holds the runs sharing their first `d + 1` values, for
    /// `d < n_params - 1`.
    levels: Vec<RunLevel>,
    shapes: Shapes,
}

/// The runs of one prefix length, in pool order.
#[derive(Debug, Clone, Default)]
struct RunLevel {
    /// Domain index this level's parameter takes in each run.
    values: Vec<u32>,
    /// First pool position of each run, then an `n_configs` sentinel.
    starts: Vec<u32>,
    /// First child run (one level deeper) of each run, then a sentinel.
    /// Empty at the deepest level, whose children are pool positions.
    children: Vec<u32>,
    /// Suffix shape of each run, an id into the index's [`Shapes`]; empty
    /// when every run of the level is free, which spares the search a
    /// lookup per run.
    shapes: Vec<u32>,
}

/// The hash-consed suffix shapes of a [`RunIndex`], numbered bottom-up: a
/// shape's items refer only to shapes with smaller ids. A shape over
/// parameters `p..n_params` is a sorted list of distinct items, each a
/// value of `p` and the shape of the rest of the suffix under it
/// ([`NO_REST`] when `p` is the last parameter), packed by [`item`].
#[derive(Debug, Clone, Default)]
struct Shapes {
    /// First parameter of each shape's suffix.
    param: Vec<u32>,
    /// Whether each shape is the full product of the pool's values of its
    /// suffix's parameters.
    free: Vec<bool>,
    /// First item of each shape, then a sentinel.
    starts: Vec<u32>,
    /// The items of every shape, in id order.
    items: Vec<u64>,
}

/// The rest of an item at the last parameter: nothing follows it.
const NO_REST: u32 = u32::MAX;

impl RunIndex {
    /// Builds the index: one pass over `encoding` lays out the runs (the
    /// first parameter at which a position differs from its predecessor
    /// opens a new run at that level and at every deeper one), then one
    /// pass per level, deepest first, hash-conses each run's suffix shape
    /// from its children's values and shapes.
    pub fn build(encoding: &PoolEncoding) -> Self {
        let (n_configs, n_params) = (encoding.n_configs(), encoding.n_params());
        let (levels, shapes) = match encoding.buffer() {
            IndexBuffer::U16(b) => build_levels(b, n_configs, n_params),
            IndexBuffer::U32(b) => build_levels(b, n_configs, n_params),
        };
        Self {
            n_configs,
            n_params,
            levels,
            shapes,
        }
    }

    /// For each prefix length `k = 1..n_params`, the number of distinct
    /// suffix shapes among its runs and how many of them are free.
    pub fn shape_counts(&self) -> Vec<(usize, usize)> {
        self.levels
            .iter()
            .map(|level| {
                if level.shapes.is_empty() {
                    let runs = usize::from(!level.values.is_empty());
                    return (runs, runs);
                }
                let mut ids: Vec<u32> = level.shapes.clone();
                ids.sort_unstable();
                ids.dedup();
                let free = ids
                    .iter()
                    .filter(|&&s| self.shapes.free[s as usize])
                    .count();
                (ids.len(), free)
            })
            .collect()
    }
}

fn build_levels<T: PoolIndex>(
    buf: &[T],
    n_configs: usize,
    n_params: usize,
) -> (Vec<RunLevel>, Shapes) {
    let depth = n_params.saturating_sub(1);
    let mut levels = vec![RunLevel::default(); depth];
    // Whether every row is greater than its predecessor, lexicographically.
    let mut increasing = true;
    for c in 0..n_configs {
        let row = &buf[c * n_params..(c + 1) * n_params];
        let first = match c.checked_sub(1) {
            None => 0,
            Some(prev) => {
                let prev = &buf[prev * n_params..c * n_params];
                let first = row
                    .iter()
                    .zip(prev)
                    .position(|(a, b)| a.as_usize() != b.as_usize())
                    .unwrap_or(n_params);
                let at = |row: &[T]| row.get(first).map(|v| v.as_usize());
                increasing &= at(row) > at(prev);
                first
            }
        };
        for d in first..depth {
            if d + 1 < depth {
                let child = levels[d + 1].values.len() as u32;
                levels[d].children.push(child);
            }
            levels[d].values.push(row[d].as_usize() as u32);
            levels[d].starts.push(c as u32);
        }
    }
    for d in 0..depth {
        levels[d].starts.push(n_configs as u32);
        if d + 1 < depth {
            let child = levels[d + 1].values.len() as u32;
            levels[d].children.push(child);
        }
    }
    let shapes = build_shapes(buf, n_params, &mut levels, increasing);
    (levels, shapes)
}

/// Assigns every run its suffix shape, deepest level first. A run's items
/// are its children's `(value, shape)` pairs (at the deepest level, its
/// positions' last values), sorted and deduplicated, and equal item lists
/// share one shape.
///
/// In an `increasing` pool the positions are distinct, so a run holding as
/// many positions as the product of the pool's value counts of the
/// remaining parameters holds all of that product: it gets the level's
/// free shape without looking at its children. Other runs are interned,
/// trying first the shape last given to a run of the same value, which in
/// a lexicographic pool is mostly theirs. An unsorted pool gets no free
/// shapes, which only loosens its bounds.
fn build_shapes<T: PoolIndex>(
    buf: &[T],
    n_params: usize,
    levels: &mut [RunLevel],
    increasing: bool,
) -> Shapes {
    let mut shapes = Shapes::default();
    shapes.starts.push(0);
    let Some(last) = levels.len().checked_sub(1) else {
        return shapes;
    };
    // The values the pool gives the parameter after the current level,
    // and those of the current level's own parameter, gathered on the way.
    let (mut below, mut here) = (Values::default(), Values::default());
    let n_configs = buf.len() / n_params;
    below.extend((0..n_configs).map(|c| buf[c * n_params + n_params - 1].as_usize()));
    let mut interner = Interner::default();
    let (mut full, mut free_below) = (1usize, None);
    for d in (0..=last).rev() {
        full = full.saturating_mul(below.count());
        let (upper, lower) = levels.split_at_mut(d + 1);
        let level = &mut upper[d];
        let param = (d + 1) as u32;
        here.clear();
        here.extend(level.values.iter().map(|&v| v as usize));
        let n_runs = level.values.len();
        let mut free = None;
        let mut free_shape = |shapes: &mut Shapes| {
            *free.get_or_insert_with(|| {
                let rest = if d == last {
                    NO_REST
                } else {
                    free_below.expect("a full run's children are full")
                };
                let items: Vec<u64> = below.iter().map(|v| item(v, rest)).collect();
                shapes.push(param, &items, true)
            })
        };
        if increasing && n_runs.checked_mul(full) == Some(n_configs) {
            // Every run is full: the level keeps no per-run ids.
            free_below = Some(free_shape(&mut shapes));
            std::mem::swap(&mut below, &mut here);
            continue;
        }
        interner.start_level(shapes.param.len());
        level.shapes.reserve_exact(n_runs);
        // The rest of each child run: its shape, or the free shape of a
        // level that keeps no ids.
        let child = lower.first();
        let rest_of = |k: usize| match child.and_then(|c| c.shapes.get(k)) {
            Some(&rest) => rest,
            None => free_below.expect("a level without ids is free"),
        };
        for r in 0..n_runs {
            let value = level.values[r] as usize;
            let (start, end) = (level.starts[r] as usize, level.starts[r + 1] as usize);
            if increasing && end - start == full {
                level.shapes.push(free_shape(&mut shapes));
                continue;
            }
            let hint = interner.hint(value);
            let id = if d == last {
                let at = |c: usize| item(buf[c * n_params + param as usize].as_usize(), NO_REST);
                let lasts = (start..end).map(at);
                match hint.filter(|&id| same_items(shapes.items(id), lasts.clone())) {
                    Some(id) => id,
                    None => interner.intern(&mut shapes, param, value, lasts),
                }
            } else {
                let (first, end) = (level.children[r] as usize, level.children[r + 1] as usize);
                let values = &child.expect("an upper level has children").values;
                let run = (first..end).map(|k| item(values[k] as usize, rest_of(k)));
                match hint.filter(|&id| same_items(shapes.items(id), run.clone())) {
                    Some(id) => id,
                    None => interner.intern(&mut shapes, param, value, run),
                }
            };
            level.shapes.push(id);
        }
        free_below = free;
        std::mem::swap(&mut below, &mut here);
    }
    shapes
}

/// A set of domain indices: a bitmask below 64, presence flags above.
#[derive(Default)]
struct Values {
    low: u64,
    high: Vec<bool>,
}

impl Values {
    fn extend(&mut self, values: impl Iterator<Item = usize>) {
        // A local mask keeps the loop free of a dependency through memory.
        let mut low = self.low;
        for v in values {
            if v < 64 {
                low |= 1 << v;
            } else {
                if v - 64 >= self.high.len() {
                    self.high.resize(v - 63, false);
                }
                self.high[v - 64] = true;
            }
        }
        self.low = low;
    }

    fn clear(&mut self) {
        self.low = 0;
        self.high.clear();
    }

    fn count(&self) -> usize {
        self.low.count_ones() as usize + self.high.iter().filter(|&&p| p).count()
    }

    /// The values, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let low = (0..64).filter(|&v| self.low >> v & 1 == 1);
        let high = self.high.iter().enumerate().filter(|&(_, &p)| p);
        low.chain(high.map(|(v, _)| v + 64))
    }
}

/// The hash-consing state of [`build_shapes`] for one level: the shape
/// last given to a run of each value, the id of its first shape, its
/// shapes past the first [`SCAN_SHAPES`] by item list, and a buffer to sort
/// a run's items in.
#[derive(Default)]
struct Interner {
    ids: FxHashMap<Vec<u64>, u32>,
    by_value: Vec<Option<u32>>,
    first_of_level: usize,
    items: Vec<u64>,
}

/// A level's first shapes, found by comparison; a constraint gives a level
/// a few shapes, and only an unsorted pool more.
const SCAN_SHAPES: usize = 8;

impl Interner {
    /// Starts a level whose first shape will get id `first`.
    fn start_level(&mut self, first: usize) {
        self.ids.clear();
        self.by_value.clear();
        self.first_of_level = first;
    }

    /// The shape last given to a run of `value` at this level.
    fn hint(&self, value: usize) -> Option<u32> {
        self.by_value.get(value).copied().flatten()
    }

    /// The level's constrained shape with the items `run` yields (in any
    /// order, with repeats), made if new; it becomes the hint for `value`.
    fn intern(
        &mut self,
        shapes: &mut Shapes,
        param: u32,
        value: usize,
        run: impl Iterator<Item = u64>,
    ) -> u32 {
        let id = self.lookup(shapes, param, run);
        if value >= self.by_value.len() {
            self.by_value.resize(value + 1, None);
        }
        self.by_value[value] = Some(id);
        id
    }

    fn lookup(&mut self, shapes: &mut Shapes, param: u32, run: impl Iterator<Item = u64>) -> u32 {
        self.items.clear();
        self.items.extend(run);
        self.items.sort_unstable();
        self.items.dedup();
        let scanned =
            self.first_of_level..shapes.param.len().min(self.first_of_level + SCAN_SHAPES);
        let mut scanned = scanned.map(|id| id as u32);
        if let Some(id) = scanned.find(|&id| shapes.items(id) == self.items) {
            return id;
        }
        if let Some(&id) = self.ids.get(self.items.as_slice()) {
            return id;
        }
        let id = shapes.push(param, &self.items, false);
        if id as usize >= self.first_of_level + SCAN_SHAPES {
            self.ids.insert(self.items.clone(), id);
        }
        id
    }
}

/// Whether `run` yields exactly `items`, in order.
fn same_items(items: &[u64], mut run: impl Iterator<Item = u64>) -> bool {
    items.iter().all(|&it| run.next() == Some(it)) && run.next().is_none()
}

/// One shape item, packed so that sorting orders items by value, then
/// rest.
fn item(value: usize, rest: u32) -> u64 {
    ((value as u64) << 32) | rest as u64
}

/// The value and rest of a packed [`item`].
fn unpack(item: u64) -> (usize, u32) {
    ((item >> 32) as usize, item as u32)
}

impl Shapes {
    /// The items of shape `id`.
    fn items(&self, id: u32) -> &[u64] {
        let id = id as usize;
        &self.items[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Appends a shape over parameters `param..` with the sorted, distinct
    /// `items` and returns its id.
    fn push(&mut self, param: u32, items: &[u64], free: bool) -> u32 {
        let id = self.param.len() as u32;
        self.items.extend_from_slice(items);
        self.param.push(param);
        self.free.push(free);
        self.starts.push(self.items.len() as u32);
        id
    }

    /// The best suffix sum of every shape under `tables`, in id order,
    /// into `out`: the maximum over its items of the value's entry plus the
    /// rest's best suffix sum. By induction and the monotonicity of
    /// rounded addition, a shape's best is at least the sum of every
    /// suffix it holds, added right to left.
    fn best_suffix_sums<C: AsRef<[f64]>>(&self, tables: &[C], out: &mut Vec<f64>) {
        out.clear();
        if !self.free.contains(&false) {
            return; // no run bound reads them
        }
        for s in 0..self.param.len() {
            let table = tables[self.param[s] as usize].as_ref();
            let mut best = f64::NEG_INFINITY;
            for &it in self.items(s as u32) {
                let (value, rest) = unpack(it);
                let sum = match rest {
                    NO_REST => table[value],
                    rest => table[value] + out[rest as usize],
                };
                if sum > best {
                    best = sum;
                }
            }
            out.push(best);
        }
    }
}

/// Writes the per-parameter column maxima into `maxima` and returns the
/// sum of the columns' largest magnitudes, or returns `None` when the
/// branch-and-bound search must leave the table to [`rank_encoded`]: an
/// entry is NaN or ±inf, or a sum of entries could overflow. Otherwise
/// every score and bound is finite — `|score|` is at most the returned
/// magnitude bound, up to rounding.
fn finite_column_maxima<C: AsRef<[f64]>>(tables: &[C], maxima: &mut Vec<f64>) -> Option<f64> {
    let mut abs_bound = 0.0f64;
    maxima.clear();
    for table in tables {
        let (mut max, mut max_abs) = (f64::NEG_INFINITY, 0.0f64);
        for &x in table.as_ref() {
            if !x.is_finite() {
                return None;
            }
            max = max.max(x);
            max_abs = max_abs.max(x.abs());
        }
        abs_bound += max_abs;
        maxima.push(max);
    }
    abs_bound.is_finite().then_some(abs_bound)
}

/// The per-search buffers of [`rank_indexed`]: the column maxima and each
/// suffix shape's best sum under the current tables. Reusing one across
/// searches keeps a search free of allocations once the buffers have
/// grown to the index's arity and shape count.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    col_max: Vec<f64>,
    shape_max: Vec<f64>,
}

/// The exact branch-and-bound argmax over a [`RunIndex`]: returns the same
/// pool position as [`rank_encoded`], bit for bit, or `None` when every
/// position is seen. `scratch` holds the per-search buffers.
///
/// - **Same additions.** A score is the left-to-right `f64` sum from `0.0`
///   of the configuration's table entries, as in the sweep; a run's prefix
///   sum is computed once and extended by each child.
/// - **Bound of a free run** (its suffix shape is the full product of the
///   remaining parameters' pool values): its prefix sum folded left to
///   right with the column maxima of the remaining parameters.
///   Round-to-nearest addition is monotone, so no score under the run
///   exceeds it.
/// - **Bound of a constrained run**: its prefix sum plus its shape's best
///   suffix sum (computed once per search, summed right to left), plus a
///   slack of `2·n·ε·A`, where `n` is the arity, `ε` the machine epsilon
///   and `A` the sum of the columns' largest magnitudes. The score and
///   the bound add the same entries in different orders; each order errs
///   by at most `n·u·A` (`u = ε/2`), so twice their sum covers both and
///   the rounding of the bound itself.
/// - **Order and ties.** Runs and positions are visited in pool order; the
///   incumbent changes only on a strictly greater score and a run is
///   skipped when `bound <= incumbent`, so the lowest pool index among tied
///   maxima wins, with `+0.0 == -0.0` as in the sweep.
/// - **Non-finite tables** (NaN or ±inf entries, e.g. with
///   `pseudo_count = 0`, or entries large enough for a sum to overflow)
///   go to [`rank_encoded`], whose chunk-order reduction defines the
///   result when scores are NaN.
///
/// # Panics
/// Panics if `runs` was built from a different pool shape, if `tables`'
/// arity differs from the encoding's, or if the mask length differs from
/// the pool length.
pub fn rank_indexed<C: AsRef<[f64]>>(
    tables: &[C],
    encoding: &PoolEncoding,
    runs: &RunIndex,
    seen: &PoolMask,
    scratch: &mut SearchScratch,
) -> Option<usize> {
    let n = encoding.n_configs();
    assert_eq!(seen.len(), n, "mask/pool length mismatch");
    assert!(
        runs.n_configs == n && runs.n_params == encoding.n_params(),
        "run index built for a different pool"
    );
    if n == 0 {
        return None;
    }
    assert_eq!(tables.len(), encoding.n_params(), "arity mismatch");
    let Some(abs_bound) = finite_column_maxima(tables, &mut scratch.col_max) else {
        return rank_encoded(tables, encoding, seen);
    };
    if tables.is_empty() {
        // Every score is 0.0: the first unseen position wins.
        return (0..n).find(|&c| !seen.get(c));
    }
    runs.shapes.best_suffix_sums(tables, &mut scratch.shape_max);
    let slack = 2.0 * tables.len() as f64 * f64::EPSILON * abs_bound;
    match encoding.buffer() {
        IndexBuffer::U16(b) => BranchAndBound::search(b, tables, scratch, slack, runs, seen),
        IndexBuffer::U32(b) => BranchAndBound::search(b, tables, scratch, slack, runs, seen),
    }
}

/// The state of one [`rank_indexed`] search: the inputs plus the
/// incumbent. The incumbent score starts at `-inf`, which every finite
/// score beats and no finite bound is `<=` to.
struct BranchAndBound<'a, T, C> {
    buf: &'a [T],
    tables: &'a [C],
    col_max: &'a [f64],
    shape_max: &'a [f64],
    shape_free: &'a [bool],
    slack: f64,
    levels: &'a [RunLevel],
    seen: &'a PoolMask,
    best: f64,
    pick: Option<usize>,
}

impl<'a, T: PoolIndex, C: AsRef<[f64]>> BranchAndBound<'a, T, C> {
    fn search(
        buf: &'a [T],
        tables: &'a [C],
        scratch: &'a SearchScratch,
        slack: f64,
        runs: &'a RunIndex,
        seen: &'a PoolMask,
    ) -> Option<usize> {
        let mut s = Self {
            buf,
            tables,
            col_max: &scratch.col_max,
            shape_max: &scratch.shape_max,
            shape_free: &runs.shapes.free,
            slack,
            levels: &runs.levels,
            seen,
            best: f64::NEG_INFINITY,
            pick: None,
        };
        match s.levels.first() {
            None => s.positions(0.0, 0..runs.n_configs),
            Some(top) => s.runs(0, 0..top.values.len(), 0.0),
        }
        s.pick
    }

    /// Visits runs `runs` of level `d`, whose parent's prefix sum is
    /// `prefix`. A level whose runs are all free is visited by a loop that
    /// reads no shape.
    fn runs(&mut self, d: usize, runs: Range<usize>, prefix: f64) {
        let level = &self.levels[d];
        let col_max = &self.col_max[d + 1..];
        let fold = move |sum: f64| col_max.iter().fold(sum, |b, &m| b + m);
        if level.shapes.is_empty() {
            self.visit(d, runs, prefix, |_, sum| fold(sum));
        } else {
            let (free, shape_max, slack) = (self.shape_free, self.shape_max, self.slack);
            self.visit(d, runs, prefix, |r, sum| {
                let s = level.shapes[r] as usize;
                if free[s] {
                    fold(sum)
                } else {
                    sum + shape_max[s] + slack
                }
            });
        }
    }

    /// Visits runs `runs` of level `d` under `bound(run, prefix sum)`:
    /// skips a run whose bound cannot beat the incumbent and descends into
    /// the others.
    fn visit(
        &mut self,
        d: usize,
        runs: Range<usize>,
        prefix: f64,
        bound: impl Fn(usize, f64) -> f64,
    ) {
        let levels = self.levels;
        let (level, table) = (&levels[d], self.tables[d].as_ref());
        for r in runs {
            let sum = prefix + table[level.values[r] as usize];
            if bound(r, sum) <= self.best {
                continue;
            }
            if d + 1 == levels.len() {
                let (start, end) = (level.starts[r], level.starts[r + 1]);
                self.positions(sum, start as usize..end as usize);
            } else {
                let (first, last) = (level.children[r], level.children[r + 1]);
                self.runs(d + 1, first as usize..last as usize, sum);
            }
        }
    }

    /// Scores pool positions `range`, which share every value but the last
    /// and whose shared prefix sum is `prefix`.
    fn positions(&mut self, prefix: f64, range: Range<usize>) {
        let n_params = self.tables.len();
        let table = self.tables[n_params - 1].as_ref();
        for c in range {
            let score = prefix + table[self.buf[c * n_params + n_params - 1].as_usize()];
            if score > self.best && !self.seen.get(c) {
                self.best = score;
                self.pick = Some(c);
            }
        }
    }
}

/// Selects the next configuration by exhaustive ranking over `pool`,
/// skipping configurations already in `history`. Returns `None` when the
/// pool is exhausted.
///
/// **Tie-breaking contract:** among equal-scoring unseen candidates the one
/// at the lowest pool index is selected (see [`rank_encoded`], whose pick
/// [`rank_indexed`] returns bit for bit); this held
/// implicitly in the original serial loop and is now guaranteed under
/// parallel execution too.
///
/// This standalone entry point re-derives the seen set from `history` by
/// hashing each pool member once; [`Tuner`](crate::tuner::Tuner) keeps a
/// [`PoolMask`] incrementally instead and skips that pass.
pub fn select_by_ranking(
    surrogate: &TpeSurrogate,
    pool: &[Configuration],
    history: &ObservationHistory,
) -> Option<Configuration> {
    let table = surrogate.score_table();
    if let (Some(tables), Some(encoding)) = (table.discrete_tables(), PoolEncoding::encode(pool)) {
        let mut seen = PoolMask::new(pool.len());
        for (i, cfg) in pool.iter().enumerate() {
            if history.contains(cfg) {
                seen.set(i);
            }
        }
        let runs = RunIndex::build(&encoding);
        let mut scratch = SearchScratch::default();
        return rank_indexed(&tables, &encoding, &runs, &seen, &mut scratch)
            .map(|i| pool[i].clone());
    }
    // Exact fallback for pools the engine cannot flatten (continuous
    // values); same scores, same lowest-index tie-breaking.
    select_by_ranking_serial(&table, pool, history)
}

/// The serial reference path: per-candidate table scoring with
/// per-candidate history hashing. Kept as the fallback for unencodable
/// pools and as the oracle the parallel path is property-tested against.
pub fn select_by_ranking_serial(
    table: &ScoreTable,
    pool: &[Configuration],
    history: &ObservationHistory,
) -> Option<Configuration> {
    let mut best: Option<(f64, &Configuration)> = None;
    for cfg in pool {
        if history.contains(cfg) {
            continue;
        }
        let score = table.score(cfg);
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, cfg)),
        }
    }
    best.map(|(_, c)| c.clone())
}

/// Selects the next configuration by proposal sampling: draw `candidates`
/// feasible configurations from `p_g`, score each, return the best unseen
/// one (falls back to the best seen-before draw only if every draw
/// duplicates history — callers treat that as exploration noise).
pub fn select_by_proposal<R: rand::Rng + ?Sized>(
    surrogate: &TpeSurrogate,
    space: &ParameterSpace,
    history: &ObservationHistory,
    candidates: usize,
    rng: &mut R,
) -> Configuration {
    assert!(candidates > 0, "need at least one candidate");
    let mut best_unseen: Option<(f64, Configuration)> = None;
    let mut best_any: Option<(f64, Configuration)> = None;
    for _ in 0..candidates {
        let cfg = surrogate.sample_good(space, rng);
        let score = surrogate.log_ei(&cfg);
        if best_any.as_ref().is_none_or(|(s, _)| score > *s) {
            best_any = Some((score, cfg.clone()));
        }
        if !history.contains(&cfg) && best_unseen.as_ref().is_none_or(|(s, _)| score > *s) {
            best_unseen = Some((score, cfg));
        }
    }
    best_unseen
        .or(best_any)
        .map(|(_, c)| c)
        .expect("candidates > 0 guarantees a draw")
}

/// Extra redraw rounds the vectorized Proposal selector spends hunting for
/// an unseen candidate before conceding a duplicate stall. Each round
/// samples and scores a fresh candidate matrix *inside* the selection (no
/// surrogate refit), so a round costs a fraction of the full
/// fit-suggest-skip iteration a tuner-level stall burns. Zero rounds
/// reproduces the scalar [`select_by_proposal`] behavior exactly.
pub const PROPOSAL_REDRAW_ROUNDS: usize = 3;

/// Reusable buffers for the vectorized Proposal selector, recycled every
/// pick, so that a pick allocates only its list of
/// [`ParamView`](crate::surrogate::ParamView)s and the winning
/// [`Configuration`] (plus a copy of the best duplicate after each round
/// whose draws were all seen), however many parameters are continuous:
/// the tables a from-scratch fit builds its views into, the SoA candidate
/// matrix the draws are written into, the score vector, the density and
/// KDE kernel buffers of the serial scoring loop (used by continuous
/// columns), the candidates' mixed-radix codes for a
/// [`Seen::Codes`] test, and the probe [`Configuration`] that carries rows
/// through feasibility checks and a [`Seen::Configs`] test. One instance
/// lives on the tuner.
#[derive(Debug, Default)]
pub struct ProposalScratch {
    tables: ViewTables,
    matrix: CandidateMatrix,
    scores: Vec<f64>,
    lg: Vec<f64>,
    lb: Vec<f64>,
    kde: KdeScratch,
    codes: Vec<usize>,
    probe: Option<Configuration>,
}

/// The mixed-radix codes ([`ParameterSpace::index_of`]) of the
/// configurations a Proposal pick must pass over, on a fully discrete
/// space whose product fits in `usize`: the payload of [`Seen::Codes`],
/// kept by [`ProposalSeen`]. A candidate's code is computed from its
/// matrix columns, so testing it costs one hash of one word instead of a
/// [`Configuration`] copy and hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenCodes {
    /// Domain size per parameter, first parameter most significant.
    radices: Vec<usize>,
    codes: FxHashSet<usize>,
    /// History prefix already folded into `codes`.
    synced: HistoryCursor,
}

/// The seen state a tuner keeps for its Proposal picks: on a fully
/// discrete space whose product fits in `usize`, the codes of the
/// history's configurations and of a batch's in-flight picks; on any
/// other space, the in-flight picks alone, the history being tested by
/// configuration. [`as_seen`](Self::as_seen) hands either to
/// [`select_by_proposal_vectorized`], and both give the same picks.
///
/// [`sync`](Self::sync) folds a history's observations and quarantined
/// failures in, each once, as the Ranking pool's seen mask does; a
/// constant-liar batch [`hold`](Self::hold)s its picks and
/// [`release`](Self::release)s them before it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposalSeen {
    /// Fully discrete space: the tested codes.
    Codes(SeenCodes),
    /// Space with a continuous parameter: a batch's in-flight picks.
    Configs(FxHashSet<Configuration>),
}

impl ProposalSeen {
    /// An empty seen state for `space`.
    pub fn new(space: &ParameterSpace) -> Self {
        if space.product_cardinality().is_none() {
            return Self::Configs(FxHashSet::default());
        }
        let radices = space
            .params()
            .iter()
            .map(|p| p.domain().cardinality().expect("fully discrete"))
            .collect();
        Self::Codes(SeenCodes {
            radices,
            codes: FxHashSet::default(),
            synced: HistoryCursor::default(),
        })
    }

    /// Folds the observations and failures appended to `history` since
    /// the last sync (nothing to fold when the history is tested by
    /// configuration).
    pub fn sync(&mut self, space: &ParameterSpace, history: &ObservationHistory) {
        if let Self::Codes(set) = self {
            let codes = &mut set.codes;
            set.synced.advance(history, |cfg| {
                // A configuration that is not a member of `space` has no
                // code, and no draw can equal it.
                if let Some(code) = space.index_of(cfg) {
                    codes.insert(code);
                }
            });
        }
    }

    /// Marks a batch's pick seen for the rest of the batch.
    pub fn hold(&mut self, space: &ParameterSpace, pick: &Configuration) {
        match self {
            Self::Codes(set) => {
                if let Some(code) = space.index_of(pick) {
                    set.codes.insert(code);
                }
            }
            Self::Configs(in_flight) => {
                in_flight.insert(pick.clone());
            }
        }
    }

    /// Drops a finished batch's `picks`: none is in the history yet, and
    /// each is folded in by the sync that follows its merge.
    pub fn release(&mut self, space: &ParameterSpace, picks: &[Configuration]) {
        match self {
            Self::Codes(set) => {
                for code in picks.iter().filter_map(|pick| space.index_of(pick)) {
                    set.codes.remove(&code);
                }
            }
            Self::Configs(in_flight) => in_flight.clear(),
        }
    }

    /// The seen test of a pick over `history` and the held picks.
    pub fn as_seen<'a>(&'a self, history: &'a ObservationHistory) -> Seen<'a> {
        match self {
            Self::Codes(set) => Seen::Codes(set),
            Self::Configs(in_flight) => Seen::Configs(history, Some(in_flight)),
        }
    }
}

/// The seen argument of [`select_by_proposal_vectorized`]: which drawn
/// candidates the pick passes over. Both variants give the same picks
/// over the same seen configurations.
#[derive(Debug, Clone, Copy)]
pub enum Seen<'a> {
    /// A candidate is seen when the history holds it (evaluated or
    /// quarantined) or it is in the extra set — the in-flight picks of a
    /// constant-liar batch, so one batch never proposes a configuration
    /// twice. Each candidate row is copied into the probe configuration
    /// and hashed. Works on every space.
    Configs(&'a ObservationHistory, Option<&'a FxHashSet<Configuration>>),
    /// A candidate is seen when its mixed-radix code is in the set
    /// (built by [`ProposalSeen`]). Fully discrete spaces only.
    Codes(&'a SeenCodes),
}

/// The outcome of one vectorized Proposal selection.
#[derive(Debug, Clone)]
pub struct ProposalPick {
    /// The selected configuration.
    pub config: Configuration,
    /// The winning candidate's `log_ei` — the exact selection score, so
    /// callers never re-score the pick (`SelectionScored.best_ei` reuses
    /// this value).
    pub score: f64,
    /// `true` when every draw in every round was seen (see [`Seen`]): the
    /// pick is the best already-seen draw and callers should count a
    /// stall instead of evaluating it again.
    pub duplicate: bool,
    /// Total candidates sampled and scored across all rounds.
    pub scored: u64,
}

/// A candidate's score and its index in the round's draws.
type Scored = (f64, usize);

/// The first strict maximum of `scores` among the unseen candidates and
/// among the seen ones: the draw-order scan the selector keeps its picks
/// by.
fn round_best(
    scores: &[f64],
    mut seen: impl FnMut(usize) -> bool,
) -> (Option<Scored>, Option<Scored>) {
    let (mut unseen_best, mut seen_best) = (None, None);
    for (c, &score) in scores.iter().enumerate() {
        let best: &mut Option<Scored> = if seen(c) {
            &mut seen_best
        } else {
            &mut unseen_best
        };
        if best.is_none_or(|(s, _)| score > s) {
            *best = Some((score, c));
        }
    }
    (unseen_best, seen_best)
}

/// The vectorized Proposal selector: samples `candidates` draws from `p_g`
/// into a structure-of-arrays matrix, scores them with the batched
/// bit-identical `log_ei` kernel, and picks the best unseen draw with the
/// lowest-draw-index tie-break (first strict maximum in draw order — the
/// same winner the scalar [`select_by_proposal`] loop keeps).
///
/// `model` is either a from-scratch [`TpeSurrogate`], whose views are built
/// once per call into `scratch`, or the tuner's incremental engine, which
/// lends the tables it maintains. Both run the same
/// [`sample_views`]/[`score_views`](crate::surrogate::score_views)
/// kernels, so equal fits give equal picks and equal RNG consumption.
///
/// `seen` decides which draws are duplicates: [`Seen::Configs`] tests
/// each row as a configuration against a history and an optional extra
/// set, [`Seen::Codes`] tests each row's mixed-radix code against a
/// [`SeenCodes`] set (fully discrete spaces). Over the same seen
/// configurations both give the same pick; the tuner's [`ProposalSeen`]
/// uses codes wherever the space has them.
///
/// When a round contains no unseen candidate, up to `redraw_rounds`
/// additional sample+score rounds run before the selector concedes and
/// returns the best seen draw with `duplicate: true`. With
/// `redraw_rounds = 0` the function consumes exactly the RNG draws of the
/// scalar path and returns its exact pick.
///
/// # Panics
/// Panics if `candidates` is zero, or if `seen` is [`Seen::Codes`] and a
/// parameter is continuous.
pub fn select_by_proposal_vectorized<M: ProposalModel + ?Sized, R: rand::Rng + ?Sized>(
    model: &M,
    space: &ParameterSpace,
    seen: Seen<'_>,
    candidates: usize,
    redraw_rounds: usize,
    rng: &mut R,
    scratch: &mut ProposalScratch,
) -> ProposalPick {
    assert!(candidates > 0, "need at least one candidate");
    let ProposalScratch {
        tables,
        matrix,
        scores,
        lg,
        lb,
        kde,
        codes,
        probe,
    } = scratch;
    let views = model.param_views(tables);
    let mut best_dup: Option<(f64, Configuration)> = None;
    let mut scored = 0u64;
    for _ in 0..=redraw_rounds {
        sample_views(&views, space, candidates, rng, matrix, probe);
        score_views_in(&views, matrix, scores, lg, lb, kde);
        scored += candidates as u64;
        let probe = probe.as_mut().expect("sampled a row");
        let (unseen, dup) = match seen {
            Seen::Codes(set) => {
                matrix.codes_into(&set.radices, codes);
                round_best(scores, |c| set.codes.contains(&codes[c]))
            }
            Seen::Configs(history, extra) => round_best(scores, |c| {
                matrix.write_row(c, probe);
                history.contains(probe) || extra.is_some_and(|e| e.contains(probe))
            }),
        };
        if let Some((score, c)) = unseen {
            matrix.write_row(c, probe);
            return ProposalPick {
                config: probe.clone(),
                score,
                duplicate: false,
                scored,
            };
        }
        if let Some((score, c)) = dup.filter(|&(d, _)| best_dup.as_ref().is_none_or(|b| d > b.0)) {
            matrix.write_row(c, probe);
            best_dup = Some((score, probe.clone()));
        }
    }
    let (score, config) = best_dup.expect("candidates > 0 guarantees a draw");
    ProposalPick {
        config,
        score,
        duplicate: true,
        scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateOptions;
    use hiperbot_space::{Domain, ParamDef, ParamValue};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap()
    }

    fn surrogate_preferring_a0(space: &ParameterSpace) -> (TpeSurrogate, ObservationHistory) {
        let mut history = ObservationHistory::new();
        history.push(Configuration::from_indices(&[0]), 1.0);
        history.push(Configuration::from_indices(&[2]), 10.0);
        history.push(Configuration::from_indices(&[3]), 11.0);
        let sur = TpeSurrogate::fit(
            space,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        (sur, history)
    }

    #[test]
    fn ranking_picks_best_unseen() {
        let s = space();
        let (sur, history) = surrogate_preferring_a0(&s);
        let pool = s.enumerate();
        // a=0 scores best but is seen; a=1 is the best unseen (unseen values
        // score between good and bad under smoothing).
        let pick = select_by_ranking(&sur, &pool, &history).unwrap();
        assert_eq!(pick, Configuration::from_indices(&[1]));
    }

    #[test]
    fn ranking_exhausts_to_none() {
        let s = space();
        let mut history = ObservationHistory::new();
        for i in 0..4 {
            history.push(Configuration::from_indices(&[i]), i as f64);
        }
        let sur = TpeSurrogate::fit(
            &s,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        assert!(select_by_ranking(&sur, &s.enumerate(), &history).is_none());
    }

    #[test]
    fn ranking_never_duplicates() {
        let s = space();
        let (sur, mut history) = surrogate_preferring_a0(&s);
        let pool = s.enumerate();
        let mut seen = std::collections::HashSet::new();
        for c in history.configs() {
            seen.insert(c.clone());
        }
        while let Some(pick) = select_by_ranking(&sur, &pool, &history) {
            assert!(seen.insert(pick.clone()), "duplicate selection {pick:?}");
            history.push(pick, 5.0);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn ranking_ties_break_to_the_lowest_pool_index() {
        // Both observations sit at b=0, so parameter "b"'s good and bad
        // histograms are identical and every value of b contributes an
        // *exactly* zero score term: candidates differing only in b are
        // deliberate bit-level ties. The contract demands the lowest pool
        // index among them.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap();
        let mut history = ObservationHistory::new();
        history.push(Configuration::from_indices(&[0, 0]), 1.0); // good
        history.push(Configuration::from_indices(&[1, 0]), 10.0); // bad
        let sur = TpeSurrogate::fit(
            &s,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        let pool = s.enumerate();
        // Sanity: the tie really exists — (0,1), (0,2), (0,3) score
        // bit-identically.
        let t = sur.score_table();
        let tied = t.score(&Configuration::from_indices(&[0, 1]));
        for b in [2, 3] {
            assert_eq!(
                t.score(&Configuration::from_indices(&[0, b])).to_bits(),
                tied.to_bits(),
                "test premise: deliberate score tie"
            );
        }
        // (0,0) is seen; a=0 is the observed-good value, so the best unseen
        // candidates are (0,1), (0,2), (0,3) — all tied. The lowest pool
        // index among them is (0,1).
        let pick = select_by_ranking(&sur, &pool, &history).unwrap();
        assert_eq!(pick, Configuration::from_indices(&[0, 1]));
    }

    #[test]
    fn rank_encoded_matches_the_serial_oracle() {
        let s = space();
        let (sur, history) = surrogate_preferring_a0(&s);
        let pool = s.enumerate();
        let table = sur.score_table();
        let serial = select_by_ranking_serial(&table, &pool, &history);
        let parallel = select_by_ranking(&sur, &pool, &history);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn rank_encoded_handles_empty_and_exhausted_pools() {
        let enc = PoolEncoding::encode(&[]).unwrap();
        assert_eq!(rank_encoded::<&[f64]>(&[], &enc, &PoolMask::new(0)), None);

        let pool = vec![Configuration::from_indices(&[0])];
        let enc = PoolEncoding::encode(&pool).unwrap();
        let mut seen = PoolMask::new(1);
        seen.set(0);
        let table: &[f64] = &[0.0];
        assert_eq!(rank_encoded(&[table], &enc, &seen), None);
    }

    fn indexed(tables: &[&[f64]], pool: &[Configuration], seen: &PoolMask) -> Option<usize> {
        let enc = PoolEncoding::encode(pool).unwrap();
        let mut scratch = SearchScratch::default();
        rank_indexed(tables, &enc, &RunIndex::build(&enc), seen, &mut scratch)
    }

    #[test]
    fn run_index_records_nested_prefix_runs() {
        let pool: Vec<Configuration> = [[0, 0, 1], [0, 0, 2], [0, 1, 0], [1, 1, 0], [0, 1, 1]]
            .iter()
            .map(|c| Configuration::from_indices(c))
            .collect();
        let runs = RunIndex::build(&PoolEncoding::encode(&pool).unwrap());
        assert_eq!(runs.levels.len(), 2);
        // First value: runs [0, 3), [3, 4) and [4, 5) — the trailing 0 is
        // not merged with the leading ones.
        assert_eq!(runs.levels[0].values, vec![0, 1, 0]);
        assert_eq!(runs.levels[0].starts, vec![0, 3, 4, 5]);
        assert_eq!(runs.levels[0].children, vec![0, 2, 3, 4]);
        // First two values: (0,0) (0,1) | (1,1) | (0,1).
        assert_eq!(runs.levels[1].values, vec![0, 1, 1, 1]);
        assert_eq!(runs.levels[1].starts, vec![0, 2, 3, 4, 5]);
        assert!(runs.levels[1].children.is_empty());
    }

    #[test]
    fn run_index_hash_conses_suffix_shapes() {
        // (a, b, c) with b + c <= 2 wherever a = 0: under a = 1 the suffix
        // is the full product, so run (1) and its (b) runs are free.
        let mut rows = Vec::new();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..3 {
                    if a == 1 || b + c <= 2 {
                        rows.push(Configuration::from_indices(&[a, b, c]));
                    }
                }
            }
        }
        let runs = RunIndex::build(&PoolEncoding::encode(&rows).unwrap());
        // Prefix (a): a constrained shape and a free one. Prefix (a, b): c
        // in {0,1,2} (free), {0,1} or {0}.
        assert_eq!(runs.shape_counts(), vec![(2, 1), (3, 1)]);
        assert_eq!(runs.levels[1].shapes, vec![0, 1, 2, 0, 0, 0]);
        assert_eq!(runs.levels[0].shapes, vec![3, 4]);
    }

    #[test]
    fn full_product_pools_have_only_free_shapes() {
        let space = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let (encoding, _) = PoolEncoding::enumerate(&space);
        let runs = RunIndex::build(&encoding);
        assert_eq!(runs.shape_counts(), vec![(1, 1); 3]);
    }

    #[test]
    fn shipped_constrained_pools_have_a_few_shapes_per_level() {
        // `4 <= ranks*omp <= 36` on HYPRE's last two parameters: six OMP
        // sets, one per Ranks value, and one constrained shape above.
        let (encoding, _) = PoolEncoding::enumerate(&hiperbot_apps::hypre::space());
        let counts = RunIndex::build(&encoding).shape_counts();
        assert_eq!(counts, vec![(1, 0), (1, 0), (1, 0), (1, 0), (6, 0)]);
        // Kripke energy: `4 <= gset*dset <= 128` gives four Dset sets
        // under Gset, `9 <= ranks*omp <= 36` six OMP sets under Ranks, and
        // the trailing power cap is free.
        let (encoding, _) = PoolEncoding::enumerate(&hiperbot_apps::kripke::energy_space());
        let counts = RunIndex::build(&encoding).shape_counts();
        assert_eq!(counts, vec![(1, 0), (4, 0), (1, 0), (6, 0), (1, 1)]);
    }

    #[test]
    fn the_slack_covers_summation_order() {
        // (1, 1, 1) scores (3 + 2^53) + (2 - 2^53) = 6 left to right (the
        // first sum rounds up to 2^53 + 4), while its prefix plus its
        // suffix summed on its own is 3 + 2 = 5. Without the slack its run
        // would be skipped behind (0, 0, 0)'s 5.5.
        let big = 2f64.powi(53);
        let pool: Vec<Configuration> = [[0, 0, 0], [1, 1, 1]]
            .iter()
            .map(|c| Configuration::from_indices(c))
            .collect();
        let tables: [&[f64]; 3] = [&[5.5, 3.0], &[0.0, big], &[0.0, 2.0 - big]];
        let seen = PoolMask::new(2);
        let enc = PoolEncoding::encode(&pool).unwrap();
        assert_eq!(rank_encoded(&tables, &enc, &seen), Some(1));
        assert_eq!(indexed(&tables, &pool, &seen), Some(1));
    }

    #[test]
    fn rank_indexed_keeps_the_lowest_index_among_signed_zero_ties() {
        // (0,1) scores 0.0 + 0.0 = +0.0 and (1,0) scores -0.0 + -0.0 =
        // -0.0: equal under `>`, so the lower position wins in either
        // order (a `total_cmp` search would always take +0.0).
        let t0: &[f64] = &[0.0, -0.0];
        let t1: &[f64] = &[-0.0, 0.0];
        for order in [[[0, 1], [1, 0]], [[1, 0], [0, 1]]] {
            let pool: Vec<Configuration> = order
                .iter()
                .map(|c| Configuration::from_indices(c))
                .collect();
            let seen = PoolMask::new(2);
            let enc = PoolEncoding::encode(&pool).unwrap();
            assert_eq!(indexed(&[t0, t1], &pool, &seen), Some(0));
            assert_eq!(rank_encoded(&[t0, t1], &enc, &seen), Some(0));
        }
    }

    #[test]
    fn rank_indexed_skips_seen_positions_and_exhausts_to_none() {
        let pool: Vec<Configuration> = (0..4).map(|i| Configuration::from_indices(&[i])).collect();
        let table: &[f64] = &[0.5, 3.0, 2.0, 3.0];
        let mut seen = PoolMask::new(4);
        assert_eq!(indexed(&[table], &pool, &seen), Some(1));
        seen.set(1);
        assert_eq!(indexed(&[table], &pool, &seen), Some(3));
        for i in [0, 2, 3] {
            seen.set(i);
        }
        assert_eq!(indexed(&[table], &pool, &seen), None);
        assert_eq!(indexed(&[], &[], &PoolMask::new(0)), None);
    }

    #[test]
    fn non_finite_tables_take_the_sweeps_chunk_order_result() {
        // One parameter, two chunks. A NaN score makes the next position
        // win a scan, and the sweep scans each chunk and then reduces the
        // chunk winners in order; the search must return its pick.
        let n = RANK_CHUNK + 3;
        let pool: Vec<Configuration> = (0..n).map(|i| Configuration::from_indices(&[i])).collect();
        let enc = PoolEncoding::encode(&pool).unwrap();
        let seen = PoolMask::new(n);
        let table_with = |entries: &[(usize, f64)]| {
            let mut t = vec![0.0; n];
            for &(i, x) in entries {
                t[i] = x;
            }
            t
        };
        // NaN inside chunk 1: its winner becomes 0.5 at 4098, which loses
        // to chunk 0's 3.0, while one scan over the pool would end on 4098.
        let mid = table_with(&[
            (1, 3.0),
            (RANK_CHUNK, 1.0),
            (RANK_CHUNK + 1, f64::NAN),
            (RANK_CHUNK + 2, 0.5),
        ]);
        // NaN ending chunk 0: its winner is NaN, which chunk 1's 1.0
        // replaces, while a search that never takes NaN would return 1.
        let end = table_with(&[(1, 3.0), (RANK_CHUNK - 1, f64::NAN), (RANK_CHUNK, 1.0)]);
        let inf = table_with(&[(5, f64::INFINITY), (7, f64::NEG_INFINITY)]);
        for (table, expected) in [(mid, 1), (end, RANK_CHUNK), (inf, 5)] {
            assert_eq!(rank_encoded(&[&table], &enc, &seen), Some(expected));
            assert_eq!(indexed(&[&table], &pool, &seen), Some(expected));
        }
    }

    #[test]
    fn overflowing_sums_take_the_sweep() {
        // Finite entries whose sums overflow to -inf: the sweep still
        // returns the first unseen position, which a search starting from a
        // -inf incumbent would never take.
        let pool: Vec<Configuration> = [[0, 0], [0, 1], [1, 0]]
            .iter()
            .map(|c| Configuration::from_indices(c))
            .collect();
        let t: &[f64] = &[-f64::MAX, -f64::MAX];
        let mut seen = PoolMask::new(3);
        seen.set(0);
        assert_eq!(indexed(&[t, t], &pool, &seen), Some(1));
    }

    #[test]
    fn proposal_returns_feasible_and_mostly_unseen() {
        let s = space();
        let (sur, history) = surrogate_preferring_a0(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let pick = select_by_proposal(&sur, &s, &history, 16, &mut rng);
            assert!(s.is_feasible(&pick));
        }
    }

    #[test]
    fn proposal_prefers_high_scoring_draws() {
        let s = space();
        let (sur, _) = surrogate_preferring_a0(&s);
        let empty = ObservationHistory::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // With many candidates per draw, the argmax should almost always be
        // the known-good value a=0.
        let hits = (0..100)
            .filter(|_| {
                select_by_proposal(&sur, &s, &empty, 32, &mut rng)
                    == Configuration::from_indices(&[0])
            })
            .count();
        assert!(hits > 90, "picked a=0 only {hits}/100 times");
    }

    /// A 3×4×2 space constrained to `a + b <= 3` (18 members), a fit over
    /// `n_obs` of them (one more quarantined), and the code set synced
    /// from that history.
    fn constrained_fit(n_obs: usize) -> (ParameterSpace, TpeSurrogate, ObservationHistory) {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[0, 1])))
            .constraint("a + b <= 3", |c, _| {
                c.value(0).index() + c.value(1).index() <= 3
            })
            .build()
            .unwrap();
        let members = s.enumerate();
        let mut history = ObservationHistory::new();
        for (i, cfg) in members.iter().take(n_obs).enumerate() {
            history.push(cfg.clone(), ((i * 7) % 5) as f64);
        }
        history.push_failure(members[n_obs].clone(), "crash");
        let failed = [members[n_obs].clone()];
        let opts = SurrogateOptions::default();
        let sur = TpeSurrogate::fit_with_failures(
            &s,
            history.configs(),
            history.objectives(),
            &failed,
            &opts,
            None,
        );
        (s, sur, history)
    }

    #[test]
    fn proposal_seen_follows_the_history_and_held_picks() {
        let (s, _, history) = constrained_fit(10);
        let mut seen = ProposalSeen::new(&s);
        seen.sync(&s, &history);
        let members = s.enumerate();
        let ProposalSeen::Codes(set) = &seen else {
            panic!("a fully discrete space has codes");
        };
        for (i, cfg) in members.iter().enumerate() {
            let code = s.index_of(cfg).unwrap();
            assert_eq!(set.codes.contains(&code), i <= 10, "member {i}");
        }
        let before = seen.clone();
        seen.hold(&s, &members[14]);
        assert!(matches!(&seen, ProposalSeen::Codes(set)
            if set.codes.contains(&s.index_of(&members[14]).unwrap())));
        seen.release(&s, &members[14..15]);
        assert_eq!(seen, before);
        seen.sync(&s, &history); // nothing new
        assert_eq!(seen, before);

        let mixed = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
            .build()
            .unwrap();
        let mut seen = ProposalSeen::new(&mixed);
        let pick = Configuration::new(vec![ParamValue::Real(0.5)]);
        seen.hold(&mixed, &pick);
        assert!(
            matches!(seen.as_seen(&history), Seen::Configs(_, Some(held))
            if held.contains(&pick))
        );
        seen.release(&mixed, std::slice::from_ref(&pick));
        assert_eq!(seen, ProposalSeen::new(&mixed));
    }

    #[test]
    fn code_and_configuration_seen_tests_pick_alike() {
        // Nearly exhausted, so many draws are seen and some selections
        // concede a duplicate.
        for n_obs in [6, 12, 16] {
            let (s, sur, history) = constrained_fit(n_obs);
            let members = s.enumerate();
            let mut seen = ProposalSeen::new(&s);
            seen.sync(&s, &history);
            let extra: FxHashSet<Configuration> =
                members[n_obs + 1..n_obs + 2].iter().cloned().collect();
            for cfg in &extra {
                seen.hold(&s, cfg);
            }
            assert!(matches!(seen.as_seen(&history), Seen::Codes(_)));
            let (mut a, mut b) = (ProposalScratch::default(), ProposalScratch::default());
            let mut duplicates = 0;
            for seed in 0..60u64 {
                let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
                let mut rng_b = rng_a.clone();
                let by_config = select_by_proposal_vectorized(
                    &sur,
                    &s,
                    Seen::Configs(&history, Some(&extra)),
                    3,
                    PROPOSAL_REDRAW_ROUNDS,
                    &mut rng_a,
                    &mut a,
                );
                let by_code = select_by_proposal_vectorized(
                    &sur,
                    &s,
                    seen.as_seen(&history),
                    3,
                    PROPOSAL_REDRAW_ROUNDS,
                    &mut rng_b,
                    &mut b,
                );
                assert_eq!(by_config.config, by_code.config, "{n_obs} obs, seed {seed}");
                assert_eq!(by_config.score.to_bits(), by_code.score.to_bits());
                assert_eq!(by_config.duplicate, by_code.duplicate);
                assert_eq!(by_config.scored, by_code.scored);
                assert_eq!(rng_a.word_pos(), rng_b.word_pos());
                duplicates += by_code.duplicate as usize;
            }
            if n_obs == 16 {
                assert!(duplicates > 0, "no selection conceded a duplicate");
            }
        }
    }
}
