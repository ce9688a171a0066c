//! Measures the Ranking argmax — the pool sweep (`rank_encoded`) vs the
//! branch-and-bound search over the prefix-run index (`rank_indexed`) —
//! against pool size, on every shipped pool, and writes
//! `BENCH_selection.json` at the workspace root.
//!
//! Per pool it runs one seeded serial Ranking tuner on the dataset, then
//! replays the run: before each model-driven pick it refits the surrogate
//! on the history prefix (the tables the tuner saw), marks the prefix
//! seen, and times both paths on those tables. Both must return the
//! tuner's own next pick. It reports p50 and p90 ns per pick for each path,
//! the index build time, the index's suffix shapes per level and the pool
//! size. Run with
//! `cargo run --release -p hiperbot-bench --bin bench_selection`.

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};
use hiperbot_bench::{host_meta, write_bench_json, HostMeta};
use hiperbot_core::selection::{rank_encoded, rank_indexed, RunIndex, SearchScratch};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_core::{Tuner, TunerOptions};
use hiperbot_space::pool::{PoolEncoding, PoolMask};
use std::time::Instant;

const SEED: u64 = 1;
const BUDGET: usize = 300;
/// Timed calls per pick and path; a pick's time is their mean.
const REPS: usize = 5;
/// Timed batches of `REPS` index builds; the build time is the fastest
/// batch's mean, which a busy host disturbs least.
const BUILD_BATCHES: usize = 40;

#[derive(Debug, serde::Serialize)]
struct PoolResult {
    dataset: String,
    pool_size: usize,
    picks: usize,
    index_build_ns: u64,
    /// Distinct suffix shapes of the runs sharing their first k values,
    /// for k = 1, 2, …
    shapes_per_level: Vec<usize>,
    /// How many of those shapes are free (full products).
    free_shapes_per_level: Vec<usize>,
    sweep_ns_p50: u64,
    sweep_ns_p90: u64,
    index_ns_p50: u64,
    index_ns_p90: u64,
    speedup_p50: f64,
}

#[derive(Debug, serde::Serialize)]
struct Report {
    bench: String,
    host: HostMeta,
    seed: u64,
    budget: usize,
    reps_per_pick: usize,
    pools: Vec<PoolResult>,
}

/// Mean ns of `REPS` calls of `f`.
fn time_ns(mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..REPS {
        f();
    }
    t.elapsed().as_nanos() as u64 / REPS as u64
}

/// The `q`-quantile of `samples` (nearest rank).
fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn measure(name: &str, dataset: &Dataset) -> PoolResult {
    let options = TunerOptions::default().with_seed(SEED);
    let mut tuner = Tuner::new(dataset.space().clone(), options.clone());
    tuner.run(BUDGET, |c| dataset.evaluate(c));
    let history = tuner.history();

    let pool = dataset.to_configs();
    let encoding = PoolEncoding::encode(&pool).expect("discrete pool");
    let index_build_ns = (0..BUILD_BATCHES)
        .map(|_| time_ns(|| drop(std::hint::black_box(RunIndex::build(&encoding)))))
        .min()
        .expect("BUILD_BATCHES > 0");
    let runs = RunIndex::build(&encoding);
    let (shapes_per_level, free_shapes_per_level) = runs.shape_counts().into_iter().unzip();
    let mut scratch = SearchScratch::default();
    let surrogate_options = SurrogateOptions {
        alpha: options.alpha,
        pseudo_count: options.pseudo_count,
        bandwidth_fraction: options.bandwidth_fraction,
    };

    let mut seen = PoolMask::new(pool.len());
    let (mut sweep, mut index) = (Vec::new(), Vec::new());
    for (h, cfg) in history.configs().iter().enumerate() {
        if h >= options.init_samples {
            let surrogate = TpeSurrogate::fit(
                dataset.space(),
                &history.configs()[..h],
                &history.objectives()[..h],
                &surrogate_options,
                None,
            );
            let table = surrogate.score_table();
            let tables = table.discrete_tables().expect("discrete space");
            let swept = rank_encoded(&tables, &encoding, &seen);
            let searched = rank_indexed(&tables, &encoding, &runs, &seen, &mut scratch);
            assert_eq!(swept, searched, "{name}: paths disagree at pick {h}");
            assert_eq!(
                swept.map(|i| &pool[i]),
                Some(cfg),
                "{name}: replay diverged from the tuner at pick {h}"
            );
            sweep.push(time_ns(|| {
                std::hint::black_box(rank_encoded(&tables, &encoding, &seen));
            }));
            index.push(time_ns(|| {
                std::hint::black_box(rank_indexed(&tables, &encoding, &runs, &seen, &mut scratch));
            }));
        }
        seen.set(dataset.position(cfg).expect("history holds pool members"));
    }

    let (sweep_ns_p50, index_ns_p50) = (quantile(&mut sweep, 0.5), quantile(&mut index, 0.5));
    let r = PoolResult {
        dataset: name.to_string(),
        pool_size: pool.len(),
        picks: sweep.len(),
        index_build_ns,
        shapes_per_level,
        free_shapes_per_level,
        sweep_ns_p50,
        sweep_ns_p90: quantile(&mut sweep, 0.9),
        index_ns_p50,
        index_ns_p90: quantile(&mut index, 0.9),
        speedup_p50: sweep_ns_p50 as f64 / index_ns_p50 as f64,
    };
    println!(
        "{:>15} | pool {:>6} | sweep p50 {:>8} p90 {:>8} ns | index p50 {:>7} p90 {:>7} ns | {:>6.1}x | build {:>8} ns | shapes {:?} free {:?}",
        r.dataset, r.pool_size, r.sweep_ns_p50, r.sweep_ns_p90, r.index_ns_p50, r.index_ns_p90,
        r.speedup_p50, r.index_build_ns, r.shapes_per_level, r.free_shapes_per_level
    );
    r
}

/// Builds one shipped dataset.
type DatasetBuilder = fn() -> Dataset;

fn main() {
    let pools: [(&str, DatasetBuilder); 6] = [
        ("kripke-exec", || kripke::exec_dataset(Scale::Target)),
        ("lulesh", || lulesh::dataset(Scale::Target)),
        ("hypre", || hypre::dataset(Scale::Target)),
        ("openatom", || openatom::dataset(Scale::Target)),
        ("kripke-energy", || kripke::energy_dataset(Scale::Target)),
        ("hypre-transfer", || hypre::transfer_dataset(Scale::Target)),
    ];
    let pools = pools
        .iter()
        .map(|(name, build)| {
            eprintln!("[bench_selection] {name}: generating the dataset…");
            measure(name, &build())
        })
        .collect();
    let report = Report {
        bench: "Ranking argmax per pick: pool sweep vs run-index branch-and-bound".into(),
        host: host_meta(),
        seed: SEED,
        budget: BUDGET,
        reps_per_pick: REPS,
        pools,
    };
    write_bench_json("BENCH_selection.json", &report);
}
