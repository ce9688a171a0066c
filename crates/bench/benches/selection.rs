//! Criterion benchmark of the Ranking hot path: the per-iteration cost of
//! scoring every unseen pool candidate and taking the argmax.
//!
//! Three implementations are compared on the same surrogate/pool/history:
//!
//! - `serial_log_ei` — the original path: per-candidate `log_ei` (KDE and
//!   histogram lookups through enum dispatch) plus a `history.contains`
//!   hash probe per candidate.
//! - `batch_table` — the batch-scoring engine: a precomputed
//!   [`ScoreTable`], the flattened [`PoolEncoding`], a positional seen
//!   bitset, and the rayon-chunked `rank_encoded` sweep.
//! - `index_search` — the same table searched by `rank_indexed`, the
//!   branch-and-bound argmax over the pool's prefix-run index.
//!
//! Table construction is *included* in the batch measurements, while the
//! encoding and run index are excluded — matching the real `Tuner`, which
//! rebuilds the table after every fit but indexes the pool once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hiperbot_apps::{hypre, kripke, Dataset, Scale};
use hiperbot_core::selection::{rank_encoded, rank_indexed, RunIndex};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_core::ObservationHistory;
use hiperbot_space::pool::{PoolEncoding, PoolMask};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::Configuration;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const HISTORY_LEN: usize = 100;

struct Fixture {
    name: &'static str,
    dataset: Dataset,
    /// The dataset's rows, built once for the per-configuration scan.
    pool: Vec<Configuration>,
    surrogate: TpeSurrogate,
    history: ObservationHistory,
    encoding: PoolEncoding,
    runs: RunIndex,
    seen: PoolMask,
}

fn fixture(name: &'static str, dataset: Dataset) -> Fixture {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let configs = sample_distinct(dataset.space(), HISTORY_LEN, &mut rng);
    let objectives: Vec<f64> = configs.iter().map(|c| dataset.evaluate(c)).collect();
    let surrogate = TpeSurrogate::fit(
        dataset.space(),
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    let pool = dataset.to_configs();
    let encoding = PoolEncoding::encode(&pool).expect("discrete pool");
    let runs = RunIndex::build(&encoding);
    let mut seen = PoolMask::new(dataset.len());
    for (i, c) in pool.iter().enumerate() {
        if history.contains(c) {
            seen.set(i);
        }
    }
    Fixture {
        name,
        dataset,
        pool,
        surrogate,
        history,
        encoding,
        runs,
        seen,
    }
}

fn bench_ranking(c: &mut Criterion) {
    let fixtures = [
        fixture("kripke-exec", kripke::exec_dataset(Scale::Target)),
        fixture("hypre", hypre::dataset(Scale::Target)),
        fixture("kripke-energy", kripke::energy_dataset(Scale::Target)),
    ];

    let mut group = c.benchmark_group("ranking");
    for f in &fixtures {
        let id = format!("{}_{}", f.name, f.dataset.len());
        group.bench_with_input(BenchmarkId::new("serial_log_ei", &id), f, |b, f| {
            b.iter(|| {
                let mut best = f64::NEG_INFINITY;
                let mut best_i = None;
                for (i, cfg) in f.pool.iter().enumerate() {
                    if f.history.contains(cfg) {
                        continue;
                    }
                    let s = f.surrogate.log_ei(black_box(cfg));
                    if best_i.is_none() || s > best {
                        best = s;
                        best_i = Some(i);
                    }
                }
                best_i
            })
        });
        group.bench_with_input(BenchmarkId::new("batch_table", &id), f, |b, f| {
            b.iter(|| {
                let table = f.surrogate.score_table();
                let tables = table.discrete_tables().expect("discrete space");
                rank_encoded(black_box(&tables), &f.encoding, &f.seen)
            })
        });
        group.bench_with_input(BenchmarkId::new("index_search", &id), f, |b, f| {
            b.iter(|| {
                let table = f.surrogate.score_table();
                let tables = table.discrete_tables().expect("discrete space");
                rank_indexed(black_box(&tables), &f.encoding, &f.runs, &f.seen)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = selection;
    config = Criterion::default().sample_size(10);
    targets = bench_ranking
}
criterion_main!(selection);
