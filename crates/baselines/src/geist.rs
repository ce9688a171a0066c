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

use crate::selector::{ConfigSelector, SelectionRun};
use hiperbot_obs::{Event, NoopRecorder, Recorder, SpanTimer};
use hiperbot_space::{Configuration, ParameterSpace};
use hiperbot_stats::quantile::quantile;
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use rustc_hash::FxHashMap;
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
    /// Cached configuration graph, keyed by a pool fingerprint so that the
    /// repeated-trial runner builds the (expensive) graph once per dataset
    /// rather than once per repetition.
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

/// Content fingerprint of a pool (cheap, collision-resistant enough for a
/// single-process cache).
fn pool_fingerprint(pool: &[Configuration]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    pool.len().hash(&mut h);
    if let Some(first) = pool.first() {
        first.hash(&mut h);
    }
    if let Some(last) = pool.last() {
        last.hash(&mut h);
    }
    pool.get(pool.len() / 2).hash(&mut h);
    h.finish()
}

/// The configuration graph: CSR-ish adjacency over pool indices.
#[derive(Debug)]
struct ConfigGraph {
    neighbors: Vec<Vec<u32>>,
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
        let neighbors = pool
            .iter()
            .map(|c| {
                space
                    .neighbors(c)
                    .iter()
                    .filter_map(|n| position.get(&space.index_of(n)?).copied())
                    .collect()
            })
            .collect();
        Some(Self { neighbors })
    }

    fn build_hashed(space: &ParameterSpace, pool: &[Configuration]) -> Self {
        let position: FxHashMap<&Configuration, u32> = pool
            .iter()
            .enumerate()
            .map(|(i, c)| (c, i as u32))
            .collect();
        let neighbors = pool
            .iter()
            .map(|c| {
                space
                    .neighbors(c)
                    .iter()
                    .filter_map(|n| position.get(n).copied())
                    .collect()
            })
            .collect();
        Self { neighbors }
    }

    fn degree(&self, v: usize) -> usize {
        self.neighbors[v].len()
    }
}

/// Fixed chunk width of the parallel propagation sweep. Each node's
/// neighbor sum is a serial left-to-right fold regardless of chunking, so
/// the Jacobi update is bit-identical for any thread count; the fixed
/// width just keeps work distribution deterministic too.
const PROPAGATE_CHUNK: usize = 1024;

impl GeistSelector {
    /// One CAMLP propagation pass; returns the stationary-ish scores.
    ///
    /// The sweep is Jacobi-style (reads `f`, writes `next`, swaps), which
    /// makes every node update independent — the inner loop fans out over
    /// node chunks with rayon, and the double buffer guarantees the result
    /// does not depend on node visit order.
    fn propagate(
        &self,
        graph: &ConfigGraph,
        prior: &[f64],    // b_v per node
        labeled: &[bool], // which nodes hold real labels
    ) -> Vec<f64> {
        let n = graph.neighbors.len();
        let mut f: Vec<f64> = prior.to_vec();
        let mut next = vec![0.0; n];
        for _ in 0..self.propagation_iters {
            let f_cur = &f;
            next.par_chunks_mut(PROPAGATE_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * PROPAGATE_CHUNK;
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        let v = base + off;
                        let acc: f64 = graph.neighbors[v].iter().map(|&u| f_cur[u as usize]).sum();
                        *slot = (prior[v] + self.beta * acc)
                            / (1.0 + self.beta * graph.degree(v) as f64);
                    }
                });
            std::mem::swap(&mut f, &mut next);
        }
        // Labeled nodes keep their ground truth for ranking purposes.
        for v in 0..n {
            if labeled[v] {
                f[v] = prior[v];
            }
        }
        f
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
        let fingerprint = pool_fingerprint(pool);
        let entry: GraphCacheEntry = {
            let mut cache = self.graph_cache.lock();
            match cache.as_ref() {
                Some(e) if e.fingerprint == fingerprint => e.clone(),
                _ => {
                    let e = GraphCacheEntry {
                        fingerprint,
                        graph: Arc::new(ConfigGraph::build(space, pool)),
                    };
                    *cache = Some(e.clone());
                    e
                }
            }
        };
        let graph: &ConfigGraph = &entry.graph;
        let n = pool.len();

        let mut observed: Vec<Option<f64>> = vec![None; n];
        let mut order: Vec<u32> = Vec::with_capacity(budget);

        // Bootstrap with random nodes.
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        for &v in all.iter().take(self.init_samples.min(budget)) {
            let y = objective(&pool[v as usize]);
            observed[v as usize] = Some(y);
            order.push(v);
        }

        let mut round: u64 = 0;
        while order.len() < budget {
            // Label threshold from observations so far.
            let values: Vec<f64> = order
                .iter()
                .map(|&v| observed[v as usize].unwrap())
                .collect();
            let threshold = quantile(&values, self.alpha).expect("non-empty");

            // Priors: labels for evaluated nodes, 0.5 elsewhere.
            let mut prior = vec![0.5; n];
            let mut labeled = vec![false; n];
            for &v in &order {
                let y = observed[v as usize].unwrap();
                prior[v as usize] = if y <= threshold { 1.0 } else { 0.0 };
                labeled[v as usize] = true;
            }

            let timer = SpanTimer::start(self.recorder.enabled());
            let scores = self.propagate(graph, &prior, &labeled);
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
            let mut candidates: Vec<u32> = (0..n as u32)
                .filter(|&v| observed[v as usize].is_none())
                .collect();
            candidates.shuffle(&mut rng);
            candidates.sort_by(|&a, &b| {
                scores[b as usize]
                    .partial_cmp(&scores[a as usize])
                    .expect("finite scores")
            });

            let take = self.batch_size.min(budget - order.len());
            for &v in candidates.iter().take(take) {
                let y = objective(&pool[v as usize]);
                observed[v as usize] = Some(y);
                order.push(v);
            }
            if candidates.is_empty() {
                break;
            }
        }

        SelectionRun {
            configs: order.iter().map(|&v| pool[v as usize].clone()).collect(),
            objectives: order
                .iter()
                .map(|&v| observed[v as usize].unwrap())
                .collect(),
            failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef};

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
        assert_eq!(
            coded.neighbors,
            ConfigGraph::build_hashed(&s, &pool).neighbors
        );
        // A member without a code leaves the graph to configuration hashing.
        let stray = [Configuration::from_indices(&[0])];
        assert!(ConfigGraph::build_coded(&s, &stray).is_none());
    }

    #[test]
    fn graph_edges_are_hamming_one() {
        let s = space();
        let pool = s.enumerate();
        let g = ConfigGraph::build(&s, &pool);
        for (v, ns) in g.neighbors.iter().enumerate() {
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
        let scores = geist.propagate(&g, &prior, &labeled);
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
        let iterative = geist.propagate(&g, &prior, &labeled);

        // Exact: (I + beta*L) f = b.
        let beta = geist.beta;
        let mut a = Matrix::zeros(n, n);
        for v in 0..n {
            a[(v, v)] = 1.0 + beta * g.degree(v) as f64;
            for &u in &g.neighbors[v] {
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
}
