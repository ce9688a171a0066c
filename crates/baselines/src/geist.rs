//! GEIST: graph-based semi-supervised adaptive sampling
//! (Thiagarajan et al., ICS'18 — the paper's main comparator, §V).
//!
//! GEIST views the parameter space as an undirected graph whose nodes are
//! configurations and whose edges connect configurations differing in a
//! single parameter value (Hamming distance 1). Evaluated nodes get binary
//! labels — *optimal* if their objective beats a threshold, *non-optimal*
//! otherwise — and the CAMLP label-propagation algorithm (Yamaguchi et al.,
//! SDM'16) diffuses those labels over the graph. Each round, the unlabeled
//! nodes with the highest propagated optimal-score are evaluated next.
//!
//! CAMLP update (two classes, tracked as the scalar `P(optimal)`):
//!
//! ```text
//! f_v ← (b_v + β · Σ_{u ∈ N(v)} f_u) / (1 + β · deg(v))
//! ```
//!
//! where `b_v` is the node's prior — its label for evaluated nodes, 0.5
//! for unevaluated ones — and `β` modulates neighbor influence.
//!
//! The graph is built once per pool and cached in the selector: a CSR
//! adjacency of two arrays, node offsets and neighbor positions, with each
//! node's neighbors in [`ParameterSpace::neighbors`] order. A round's
//! sweeps are serial Jacobi passes that update four consecutive nodes in
//! lockstep, each still summing its own neighbors left to right, so the
//! scores carry the bits of a per-node sweep. The round then takes the
//! `batch_size` best unevaluated nodes in one stable top-k pass over a
//! shuffled candidate order. Everything else a run needs is allocated once
//! per [`select`](ConfigSelector::select) call and dropped with it: only
//! the graph outlives a run.

use crate::selector::{ConfigSelector, SelectionRun};
use hiperbot_obs::{Event, NoopRecorder, Recorder, SpanTimer};
use hiperbot_space::{Configuration, ParameterSpace};
use hiperbot_stats::quantile::quantile;
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::sync::Arc;

/// GEIST hyperparameters.
pub struct GeistSelector {
    /// Bootstrap sample count (kept equal to HiPerBOt's for fairness).
    pub init_samples: usize,
    /// Nodes evaluated per propagation round.
    pub batch_size: usize,
    /// Quantile of observed objectives labeled *optimal*.
    pub alpha: f64,
    /// CAMLP neighbor-influence weight β.
    pub beta: f64,
    /// Propagation sweeps per round.
    pub propagation_iters: usize,
    /// Cached configuration graph, keyed by a fingerprint of the space's
    /// shape and the whole pool so that the repeated-trial runner builds
    /// the (expensive) graph once per dataset rather than once per
    /// repetition.
    graph_cache: Mutex<Option<GraphCacheEntry>>,
    /// Trace sink for per-round propagation events (default: disabled).
    pub recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for GeistSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeistSelector")
            .field("init_samples", &self.init_samples)
            .field("batch_size", &self.batch_size)
            .field("alpha", &self.alpha)
            .field("beta", &self.beta)
            .field("propagation_iters", &self.propagation_iters)
            .finish()
    }
}

/// One cached per-pool graph.
#[derive(Debug, Clone)]
struct GraphCacheEntry {
    fingerprint: u64,
    graph: Arc<ConfigGraph>,
}

impl Default for GeistSelector {
    fn default() -> Self {
        Self {
            init_samples: 20,
            batch_size: 10,
            alpha: 0.20,
            beta: 0.1,
            propagation_iters: 30,
            graph_cache: Mutex::new(None),
            recorder: Arc::new(NoopRecorder),
        }
    }
}

impl GeistSelector {
    /// Sets the CAMLP neighbor-influence weight β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        self.beta = beta;
        self
    }

    /// Sets the per-round selection batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        self.batch_size = batch;
        self
    }

    /// Attaches a trace recorder for propagation-round events.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Clone for GeistSelector {
    fn clone(&self) -> Self {
        Self {
            init_samples: self.init_samples,
            batch_size: self.batch_size,
            alpha: self.alpha,
            beta: self.beta,
            propagation_iters: self.propagation_iters,
            graph_cache: Mutex::new(self.graph_cache.lock().clone()),
            recorder: Arc::clone(&self.recorder),
        }
    }
}

/// Content fingerprint of a space and a pool: a hash over the space's
/// shape (its parameters' cardinalities), the pool's length and every
/// member in order, by code ([`ParameterSpace::index_of`]) and, for a
/// member without one, by value. The shape goes in because a code alone
/// does not name a configuration: 10 × 10 and 1 × 100 both code their
/// members 0..100. Taken once per `select` call, it costs about a quarter
/// of a millisecond on the shipped pools, against the hundreds of
/// milliseconds of a run's propagation rounds.
fn pool_fingerprint(space: &ParameterSpace, pool: &[Configuration]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    space.params().len().hash(&mut h);
    for p in space.params() {
        p.domain().cardinality().hash(&mut h);
    }
    pool.len().hash(&mut h);
    for c in pool {
        let code = space.index_of(c);
        code.hash(&mut h);
        if code.is_none() {
            c.hash(&mut h);
        }
    }
    h.finish()
}

/// The configuration graph as a CSR adjacency over pool positions: node
/// `v`'s neighbors are `targets[offsets[v]..offsets[v + 1]]`, in
/// [`ParameterSpace::neighbors`] order. Two arrays, 4 bytes per node and
/// 4 bytes per edge.
#[derive(Debug, PartialEq)]
struct ConfigGraph {
    /// `n + 1` ascending offsets into `targets`, from 0.
    offsets: Vec<u32>,
    /// Every node's neighbor positions, node after node.
    targets: Vec<u32>,
}

impl ConfigGraph {
    /// Builds the graph keyed by code, falling back to configuration
    /// hashing for pools the code cannot address.
    fn build(space: &ParameterSpace, pool: &[Configuration]) -> Self {
        Self::build_coded(space, pool).unwrap_or_else(|| Self::build_hashed(space, pool))
    }

    /// Position lookup keyed by each configuration's mixed-radix code
    /// ([`ParameterSpace::index_of`]): hashing one `usize` per node and per
    /// neighbor instead of a whole tagged `Configuration`. Returns `None`
    /// when a pool member has no code — a continuous value, or a product
    /// that overflows `usize` — and the graph must hash configurations.
    fn build_coded(space: &ParameterSpace, pool: &[Configuration]) -> Option<Self> {
        let position: FxHashMap<usize, u32> = pool
            .iter()
            .enumerate()
            .map(|(i, c)| Some((space.index_of(c)?, i as u32)))
            .collect::<Option<_>>()?;
        Some(Self::from_positions(space, pool, |n| {
            position.get(&space.index_of(n)?).copied()
        }))
    }

    fn build_hashed(space: &ParameterSpace, pool: &[Configuration]) -> Self {
        let position: FxHashMap<&Configuration, u32> = pool
            .iter()
            .enumerate()
            .map(|(i, c)| (c, i as u32))
            .collect();
        Self::from_positions(space, pool, |n| position.get(n).copied())
    }

    /// The one builder: each member's feasible Hamming-1 neighbors that
    /// `position` finds in the pool.
    fn from_positions(
        space: &ParameterSpace,
        pool: &[Configuration],
        position: impl Fn(&Configuration) -> Option<u32>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(pool.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for c in pool {
            targets.extend(space.neighbors(c).iter().filter_map(&position));
            offsets.push(u32::try_from(targets.len()).expect("fewer than 2^32 graph edges"));
        }
        targets.shrink_to_fit();
        Self { offsets, targets }
    }

    /// Node count.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }
}

/// CAMLP propagation over one graph, with its buffers: the Jacobi double
/// buffer and the denominators `1 + β·deg(v)`, computed once. A `select`
/// call makes one and drops it on return, so a run's rounds reuse the
/// buffers and the selector keeps none of them.
struct Propagator<'g> {
    graph: &'g ConfigGraph,
    beta: f64,
    denom: Vec<f64>,
    f: Vec<f64>,
    next: Vec<f64>,
}

impl<'g> Propagator<'g> {
    fn new(graph: &'g ConfigGraph, beta: f64) -> Self {
        let n = graph.len();
        Self {
            graph,
            beta,
            denom: (0..n)
                .map(|v| 1.0 + beta * graph.degree(v) as f64)
                .collect(),
            f: vec![0.0; n],
            next: vec![0.0; n],
        }
    }

    /// One CAMLP propagation: `iters` Jacobi sweeps from `prior` (`b_v`
    /// per node), after which labeled nodes keep their ground truth for
    /// ranking purposes. Returns the scores.
    ///
    /// The sweeps are serial. Each reads `f` and writes `next`, so no node
    /// sees another's update within a sweep and the visit order cannot
    /// change a score.
    fn propagate(&mut self, prior: &[f64], labeled: &[bool], iters: usize) -> &[f64] {
        self.f.copy_from_slice(prior);
        for _ in 0..iters {
            self.sweep(prior);
            std::mem::swap(&mut self.f, &mut self.next);
        }
        for (v, _) in labeled.iter().enumerate().filter(|(_, &l)| l) {
            self.f[v] = prior[v];
        }
        &self.f
    }

    /// One Jacobi sweep, `next[v] = (b_v + β·Σ_{u ∈ N(v)} f_u) / (1 + β·deg(v))`.
    ///
    /// A node's neighbor sum is one dependent add chain, so four
    /// consecutive nodes run their chains side by side over the degree
    /// they share, and each then adds the rest of its own neighbors; the
    /// last `n mod 4` nodes run alone. Every chain adds its node's
    /// neighbors left to right from `-0.0`, where `Iterator::sum` over
    /// `f64` starts, so a node's score has the bits of a sweep that
    /// updates each node on its own.
    fn sweep(&mut self, prior: &[f64]) {
        let Self {
            graph,
            beta,
            denom,
            f,
            next,
        } = self;
        let (beta, n) = (*beta, next.len());
        let mut v = 0;
        while v + 4 <= n {
            let t: [&[u32]; 4] = std::array::from_fn(|j| graph.neighbors(v + j));
            let common = t.iter().map(|t| t.len()).min().unwrap_or(0);
            let (t0, t1, t2, t3) = (
                &t[0][..common],
                &t[1][..common],
                &t[2][..common],
                &t[3][..common],
            );
            let mut acc = [-0.0f64; 4];
            for k in 0..common {
                acc[0] += f[t0[k] as usize];
                acc[1] += f[t1[k] as usize];
                acc[2] += f[t2[k] as usize];
                acc[3] += f[t3[k] as usize];
            }
            for (j, (sum, t)) in acc.iter_mut().zip(t).enumerate() {
                for &u in &t[common..] {
                    *sum += f[u as usize];
                }
                next[v + j] = (prior[v + j] + beta * *sum) / denom[v + j];
            }
            v += 4;
        }
        while v < n {
            let sum: f64 = graph.neighbors(v).iter().map(|&u| f[u as usize]).sum();
            next[v] = (prior[v] + beta * sum) / denom[v];
            v += 1;
        }
    }
}

/// Writes into `picks` the `take` candidates a stable sort by descending
/// score would put first, in that order, in one pass: equal scores keep
/// their order in `candidates`. A NaN score among two or more candidates
/// panics with "finite scores".
fn top_k(candidates: &[u32], scores: &[f64], take: usize, picks: &mut Vec<u32>) {
    picks.clear();
    for &v in candidates {
        let s = scores[v as usize];
        let below =
            |u: &u32| scores[*u as usize].partial_cmp(&s).expect("finite scores") == Ordering::Less;
        if picks.len() == take {
            match picks.last() {
                Some(last) if below(last) => {
                    picks.pop();
                }
                _ => continue,
            }
        }
        let at = picks.iter().position(below).unwrap_or(picks.len());
        picks.insert(at, v);
    }
}

impl GeistSelector {
    /// The graph of `pool`: the cached one when the pool's fingerprint
    /// matches, or a new one that replaces it.
    fn graph(&self, space: &ParameterSpace, pool: &[Configuration]) -> Arc<ConfigGraph> {
        let fingerprint = pool_fingerprint(space, pool);
        let mut cache = self.graph_cache.lock();
        match cache.as_ref() {
            Some(e) if e.fingerprint == fingerprint => Arc::clone(&e.graph),
            _ => {
                let graph = Arc::new(ConfigGraph::build(space, pool));
                *cache = Some(GraphCacheEntry {
                    fingerprint,
                    graph: Arc::clone(&graph),
                });
                graph
            }
        }
    }
}

impl ConfigSelector for GeistSelector {
    fn name(&self) -> &str {
        "GEIST"
    }

    fn select(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        assert!(self.batch_size > 0 && self.init_samples > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let budget = budget.min(pool.len());
        let graph = self.graph(space, pool);
        let n = pool.len();

        // Evaluated nodes in pick order, their objectives, and which nodes
        // hold a label.
        let mut order: Vec<u32> = Vec::with_capacity(budget);
        let mut objectives: Vec<f64> = Vec::with_capacity(budget);
        let mut labeled = vec![false; n];

        // Bootstrap with random nodes.
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        for &v in all.iter().take(self.init_samples.min(budget)) {
            objectives.push(objective(&pool[v as usize]));
            order.push(v);
            labeled[v as usize] = true;
        }

        // The rounds' buffers. Labeled nodes only accumulate, so an
        // unlabeled node's prior stays 0.5 and each round rewrites the
        // labels alone.
        let mut prior = vec![0.5; n];
        let mut propagator = Propagator::new(&graph, self.beta);
        let mut candidates = all;
        let mut picks: Vec<u32> = Vec::with_capacity(self.batch_size.min(budget));

        let mut round: u64 = 0;
        while order.len() < budget {
            // Label threshold from observations so far.
            let threshold = quantile(&objectives, self.alpha).expect("non-empty");

            // Priors: labels for evaluated nodes, 0.5 elsewhere.
            for (&v, &y) in order.iter().zip(&objectives) {
                prior[v as usize] = if y <= threshold { 1.0 } else { 0.0 };
            }

            let timer = SpanTimer::start(self.recorder.enabled());
            let scores = propagator.propagate(&prior, &labeled, self.propagation_iters);
            if let Some(elapsed_ns) = timer.elapsed_ns() {
                self.recorder.record(&Event::PropagationRound {
                    round,
                    labeled: order.len() as u64,
                    pool: n as u64,
                    elapsed_ns,
                });
            }
            round += 1;

            // Top unlabeled nodes by score; random tie-breaking via a
            // pre-shuffled candidate order.
            candidates.clear();
            candidates.extend((0..n as u32).filter(|&v| !labeled[v as usize]));
            candidates.shuffle(&mut rng);
            let take = self.batch_size.min(budget - order.len());
            top_k(&candidates, scores, take, &mut picks);

            for &v in &picks {
                objectives.push(objective(&pool[v as usize]));
                order.push(v);
                labeled[v as usize] = true;
            }
            if candidates.is_empty() {
                break;
            }
        }

        SelectionRun {
            configs: order.iter().map(|&v| pool[v as usize].clone()).collect(),
            objectives,
            failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef};
    use rand::Rng;

    fn space() -> ParameterSpace {
        let vals: Vec<i64> = (0..10).collect();
        ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap()
    }

    fn objective(c: &Configuration) -> f64 {
        let x = c.value(0).index() as f64;
        let y = c.value(1).index() as f64;
        (x - 7.0).powi(2) + (y - 3.0).powi(2) + 1.0
    }

    #[test]
    fn coded_and_hashed_graphs_agree() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new(
                "x",
                Domain::discrete_ints(&[0, 1, 2, 3, 4, 5]),
            ))
            .param(ParamDef::new("y", Domain::discrete_ints(&[0, 1, 2, 3, 4])))
            .constraint("x + y != 4", |c, _| {
                c.value(0).index() + c.value(1).index() != 4
            })
            .build()
            .unwrap();
        // Pool order is the caller's: the code only keys positions.
        let mut pool = s.enumerate();
        pool.reverse();
        let coded = ConfigGraph::build_coded(&s, &pool).expect("a discrete pool has codes");
        assert_eq!(coded, ConfigGraph::build_hashed(&s, &pool));
        // A member without a code leaves the graph to configuration hashing.
        let stray = [Configuration::from_indices(&[0])];
        assert!(ConfigGraph::build_coded(&s, &stray).is_none());
    }

    #[test]
    fn graph_edges_are_hamming_one() {
        let s = space();
        let pool = s.enumerate();
        let g = ConfigGraph::build(&s, &pool);
        for (v, ns) in (0..g.len()).map(|v| (v, g.neighbors(v))) {
            // 2 params × 9 alternatives each = 18 neighbors
            assert_eq!(ns.len(), 18);
            for &u in ns {
                let a = &pool[v];
                let b = &pool[u as usize];
                let diff = (0..2).filter(|&i| a.value(i) != b.value(i)).count();
                assert_eq!(diff, 1);
            }
        }
    }

    #[test]
    fn propagation_spreads_optimism_to_neighbors() {
        let s = space();
        let pool = s.enumerate();
        let g = ConfigGraph::build(&s, &pool);
        let geist = GeistSelector::default();
        let n = pool.len();
        let mut prior = vec![0.5; n];
        let mut labeled = vec![false; n];
        // Label node (7,3) optimal and (0,0) non-optimal.
        let best = pool
            .iter()
            .position(|c| c.value(0).index() == 7 && c.value(1).index() == 3)
            .unwrap();
        let worst = pool
            .iter()
            .position(|c| c.value(0).index() == 0 && c.value(1).index() == 0)
            .unwrap();
        prior[best] = 1.0;
        labeled[best] = true;
        prior[worst] = 0.0;
        labeled[worst] = true;
        let mut propagator = Propagator::new(&g, geist.beta);
        let scores = propagator.propagate(&prior, &labeled, geist.propagation_iters);
        // A neighbor of the optimal node should outscore a neighbor of the
        // non-optimal node.
        let near_best = pool
            .iter()
            .position(|c| c.value(0).index() == 7 && c.value(1).index() == 4)
            .unwrap();
        let near_worst = pool
            .iter()
            .position(|c| c.value(0).index() == 0 && c.value(1).index() == 1)
            .unwrap();
        assert!(scores[near_best] > scores[near_worst]);
    }

    /// Cross-validation of the iterative CAMLP sweep against the exact
    /// linear-system solution. The fixed point of
    /// `f = (b + β·A·f) / (1 + β·deg)` satisfies `(I + β·D − β·A)·f = b`,
    /// i.e. `(I + β·L)·f = b` with `L` the graph Laplacian — solvable
    /// exactly by Cholesky (the matrix is SPD for β > 0).
    #[test]
    fn iterative_propagation_matches_the_exact_linear_solve() {
        use hiperbot_stats::linalg::Matrix;
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("y", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let pool = s.enumerate();
        let n = pool.len();
        let g = ConfigGraph::build(&s, &pool);
        let geist = GeistSelector {
            propagation_iters: 400, // run the sweep close to its fixed point
            ..GeistSelector::default()
        };

        let mut prior = vec![0.5; n];
        let mut labeled = vec![false; n];
        prior[0] = 1.0;
        labeled[0] = true;
        prior[n - 1] = 0.0;
        labeled[n - 1] = true;
        let mut propagator = Propagator::new(&g, geist.beta);
        let iterative = propagator.propagate(&prior, &labeled, geist.propagation_iters);

        // Exact: (I + beta*L) f = b.
        let beta = geist.beta;
        let mut a = Matrix::zeros(n, n);
        for v in 0..n {
            a[(v, v)] = 1.0 + beta * g.degree(v) as f64;
            for &u in g.neighbors(v) {
                a[(v, u as usize)] = -beta;
            }
        }
        let l = a.cholesky().expect("I + beta*L is SPD");
        let exact = l.cholesky_solve(&prior);

        for v in 0..n {
            if labeled[v] {
                continue; // iterative output pins labeled nodes to b_v
            }
            assert!(
                (iterative[v] - exact[v]).abs() < 1e-6,
                "node {v}: iterative {} vs exact {}",
                iterative[v],
                exact[v]
            );
        }
    }

    #[test]
    fn trace_is_distinct_and_budget_sized() {
        let s = space();
        let pool = s.enumerate();
        let run = GeistSelector::default().select(&s, &pool, &objective, 55, 1);
        assert_eq!(run.len(), 55);
        let set: std::collections::HashSet<_> = run.configs.iter().cloned().collect();
        assert_eq!(set.len(), 55);
    }

    #[test]
    fn beats_random_on_average() {
        use crate::random::RandomSelector;
        let s = space();
        let pool = s.enumerate();
        let mut geist_wins = 0;
        for seed in 0..10 {
            let g = GeistSelector::default()
                .select(&s, &pool, &objective, 50, seed)
                .best_within(50);
            let r = RandomSelector
                .select(&s, &pool, &objective, 50, seed ^ 0x55)
                .best_within(50);
            if g <= r {
                geist_wins += 1;
            }
        }
        assert!(geist_wins >= 7, "GEIST won only {geist_wins}/10");
    }

    #[test]
    fn deterministic_per_seed() {
        let s = space();
        let pool = s.enumerate();
        let a = GeistSelector::default().select(&s, &pool, &objective, 40, 9);
        let b = GeistSelector::default().select(&s, &pool, &objective, 40, 9);
        assert_eq!(a.configs, b.configs);
    }

    #[test]
    fn exhausts_pool_gracefully() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3, 4])))
            .build()
            .unwrap();
        let pool = s.enumerate();
        let run =
            GeistSelector::default().select(&s, &pool, &|c| c.value(0).index() as f64, 100, 3);
        assert_eq!(run.len(), 5);
    }

    /// The per-node sweep that the lockstep one replaced, kept as its
    /// oracle: each node's neighbor sum folded on its own and its
    /// denominator computed in place.
    fn propagate_per_node(
        g: &ConfigGraph,
        beta: f64,
        iters: usize,
        prior: &[f64],
        labeled: &[bool],
    ) -> Vec<f64> {
        let n = g.len();
        let mut f: Vec<f64> = prior.to_vec();
        let mut next = vec![0.0; n];
        for _ in 0..iters {
            for (v, slot) in next.iter_mut().enumerate() {
                let acc: f64 = g.neighbors(v).iter().map(|&u| f[u as usize]).sum();
                *slot = (prior[v] + beta * acc) / (1.0 + beta * g.degree(v) as f64);
            }
            std::mem::swap(&mut f, &mut next);
        }
        for v in 0..n {
            if labeled[v] {
                f[v] = prior[v];
            }
        }
        f
    }

    #[test]
    fn lockstep_sweeps_match_the_per_node_oracle_bit_for_bit() {
        let constrained = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3, 4])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[0, 1, 2])))
            .constraint("a + b + c <= 6", |c, _| {
                c.value(0).index() + c.value(1).index() + c.value(2).index() <= 6
            })
            .constraint("a != b", |c, _| c.value(0).index() != c.value(1).index())
            .build()
            .unwrap();
        let cube = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("y", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("z", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let grid = space();
        // No two diagonal members share a value: every node is isolated.
        let diagonal: Vec<Configuration> = (0..10)
            .map(|i| Configuration::from_indices(&[i, i]))
            .collect();

        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut cases: Vec<(&ParameterSpace, Vec<Configuration>)> = vec![(&grid, diagonal)];
        for s in [&constrained, &cube, &grid] {
            // Code order, reversed and shuffled, so that four-node groups
            // form and break at different places.
            let pool = s.enumerate();
            let reversed = pool.iter().rev().cloned().collect();
            let mut shuffled = pool.clone();
            shuffled.shuffle(&mut rng);
            cases.extend([(s, pool), (s, reversed), (s, shuffled)]);
        }

        // Four-node groups of one degree, groups of mixed degrees (whose
        // nodes finish their own neighbors alone) and single tail nodes.
        let (mut equal, mut mixed, mut tail) = (0, 0, 0);
        for (s, pool) in &cases {
            let g = ConfigGraph::build(s, pool);
            let degrees: Vec<usize> = (0..g.len()).map(|v| g.degree(v)).collect();
            for four in degrees.chunks_exact(4) {
                if four.iter().all(|&d| d == four[0]) {
                    equal += 1;
                } else {
                    mixed += 1;
                }
            }
            tail += degrees.len() % 4;
            for beta in [0.1, 0.7] {
                let labeled: Vec<bool> = (0..g.len()).map(|_| rng.gen_bool(0.3)).collect();
                let prior: Vec<f64> = (0..g.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
                let oracle = propagate_per_node(&g, beta, 30, &prior, &labeled);
                let mut propagator = Propagator::new(&g, beta);
                let scores = propagator.propagate(&prior, &labeled, 30);
                for (v, (got, want)) in scores.iter().zip(&oracle).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "node {v}: {got} vs {want}");
                }
            }
        }
        assert!(
            equal > 0 && mixed > 0 && tail > 0,
            "{equal} equal-degree groups, {mixed} mixed groups, {tail} tail nodes"
        );
    }

    #[test]
    fn top_k_takes_what_a_stable_sort_puts_first() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut picks = Vec::new();
        for _ in 0..300 {
            let n = rng.gen_range(1..60);
            // Few distinct scores, so most comparisons are ties.
            let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0..5) as f64 / 4.0).collect();
            let mut candidates: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.7)).collect();
            candidates.shuffle(&mut rng);
            let take = rng.gen_range(1..12);
            let mut sorted = candidates.clone();
            sorted.sort_by(|&a, &b| scores[b as usize].partial_cmp(&scores[a as usize]).unwrap());
            sorted.truncate(take);
            top_k(&candidates, &scores, take, &mut picks);
            assert_eq!(picks, sorted);
        }
    }

    #[test]
    #[should_panic(expected = "finite scores")]
    fn top_k_rejects_a_nan_score() {
        top_k(&[0, 1, 2], &[0.5, f64::NAN, 0.2], 2, &mut Vec::new());
    }

    /// A selector run on a second pool must pick as a fresh one would,
    /// however much the second pool looks like the first.
    #[test]
    fn a_reused_selector_builds_each_pool_its_own_graph() {
        // Two pools of one space that agree on their length, ends and
        // middle and differ elsewhere.
        let grid = space();
        let all = grid.enumerate();
        let a = all[..60].to_vec();
        let mut b = a.clone();
        b[1..10].clone_from_slice(&all[80..89]);
        assert_eq!(
            (a.len(), &a[0], &a[30], &a[59]),
            (b.len(), &b[0], &b[30], &b[59])
        );
        // 10 × 10 and 1 × 100 both code their members 0..100, but their
        // Hamming graphs have degree 18 and 99.
        let vals: Vec<i64> = (0..100).collect();
        let line = ParameterSpace::builder()
            .param(ParamDef::new("i", Domain::discrete_ints(&[0])))
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .build()
            .unwrap();
        let row = line.enumerate();
        let codes = |s: &ParameterSpace, pool: &[Configuration]| -> Vec<Option<usize>> {
            pool.iter().map(|c| s.index_of(c)).collect()
        };
        assert_eq!(codes(&grid, &all), codes(&line, &row));

        for ((s1, p1), (s2, p2)) in [((&grid, &a), (&grid, &b)), ((&grid, &all), (&line, &row))] {
            let geist = GeistSelector::default();
            geist.select(s1, p1, &objective, 40, 4);
            let second = geist.select(s2, p2, &objective, 40, 4);
            let fresh = GeistSelector::default().select(s2, p2, &objective, 40, 4);
            assert_eq!(second.configs, fresh.configs);
            assert_eq!(second.objectives, fresh.objectives);
        }
    }
}
