//! Property-based invariants of the batch-scoring engine: the precomputed
//! [`ScoreTable`] must agree with the per-candidate `log_ei` path, the
//! chunked ranking sweep must pick what the serial oracle picks, and the
//! run-index search must return the sweep's pick on any pool, mask and
//! table.

use hiperbot_core::selection::{
    rank_encoded, rank_indexed, select_by_ranking_serial, RunIndex, SearchScratch,
};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_core::ObservationHistory;
use hiperbot_space::pool::{PoolEncoding, PoolMask};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random fully discrete space of 1–4 parameters with 2–5 values each.
fn arb_discrete_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=4).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

/// A deterministic pseudo-random objective keyed on the configuration
/// (hashes value bits, so it works on discrete and continuous params).
fn hash_objective(cfg: &Configuration, salt: u64) -> f64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    1.0 + (h % 10_000) as f64 / 100.0
}

/// Fits a surrogate on a random distinct history of `n` observations.
fn fit_on_history(
    space: &ParameterSpace,
    n: usize,
    seed: u64,
    salt: u64,
) -> (TpeSurrogate, ObservationHistory) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let configs = sample_distinct(space, n, &mut rng);
    let mut history = ObservationHistory::new();
    for c in configs {
        let y = hash_objective(&c, salt);
        history.push(c, y);
    }
    let surrogate = TpeSurrogate::fit(
        space,
        history.configs(),
        history.objectives(),
        &SurrogateOptions::default(),
        None,
    );
    (surrogate, history)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The precomputed table scores every pool member exactly like the
    /// per-candidate `log_ei` path (same per-parameter expressions summed
    /// in the same order ⇒ within 1e-12 is actually bit-identical, but the
    /// contract the engine documents is the tolerance).
    #[test]
    fn score_table_matches_log_ei(
        space in arb_discrete_space(),
        seed in 0u64..500,
        salt in 0u64..500,
        n_obs in 4usize..20,
    ) {
        let pool_size = space.product_cardinality().unwrap();
        let (surrogate, _) = fit_on_history(&space, n_obs.min(pool_size), seed, salt);
        let table = surrogate.score_table();
        for cfg in space.enumerate() {
            let exact = surrogate.log_ei(&cfg);
            let tabled = table.score(&cfg);
            prop_assert!(
                (exact - tabled).abs() <= 1e-12,
                "log_ei {exact} vs table {tabled}"
            );
        }
    }

    /// Mixed spaces keep the exact continuous densities in the table:
    /// scores still match `log_ei` even though only the discrete
    /// parameters get dense lookup rows.
    #[test]
    fn score_table_matches_log_ei_on_mixed_spaces(
        seed in 0u64..200,
        salt in 0u64..200,
    ) {
        let space = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("x", Domain::continuous(-1.0, 1.0)))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let configs = sample_distinct(&space, 12, &mut rng);
        let objectives: Vec<f64> = configs.iter().map(|c| hash_objective(c, salt)).collect();
        let surrogate = TpeSurrogate::fit(
            &space,
            &configs,
            &objectives,
            &SurrogateOptions::default(),
            None,
        );
        let table = surrogate.score_table();
        prop_assert!(!table.is_fully_discrete());
        for cfg in &configs {
            let exact = surrogate.log_ei(cfg);
            prop_assert!((exact - table.score(cfg)).abs() <= 1e-12);
        }
    }

    /// The chunked argmax returns the same pool index as the
    /// per-candidate serial oracle.
    #[test]
    fn chunked_ranking_matches_the_serial_oracle(
        space in arb_discrete_space(),
        seed in 0u64..500,
        salt in 0u64..500,
        n_obs in 4usize..20,
    ) {
        let pool = space.enumerate();
        let (surrogate, history) = fit_on_history(&space, n_obs.min(pool.len()), seed, salt);
        let table = surrogate.score_table();
        let tables = table.discrete_tables().expect("fully discrete");
        let encoding = PoolEncoding::encode(&pool).expect("encodable");
        let mut seen = PoolMask::new(pool.len());
        for (i, c) in pool.iter().enumerate() {
            if history.contains(c) {
                seen.set(i);
            }
        }
        let oracle = select_by_ranking_serial(&table, &pool, &history);
        let pick = rank_encoded(&tables, &encoding, &seen).map(|i| pool[i].clone());
        prop_assert_eq!(
            pick.as_ref(),
            oracle.as_ref(),
            "the chunked sweep diverged from the serial oracle"
        );
    }
}

/// Table entries for the search property: a small set, so scores tie
/// exactly and often, holding both signed zeros.
const TIE_VALUES: [f64; 6] = [-1.5, -0.5, -0.0, 0.0, 0.5, 1.5];

/// Large table entries a few ulps apart (the ulp of 1e15 is 0.125) and
/// small ones that are multiples of half an ulp: a score adds a small
/// prefix to a large entry, so it rounds, and cancels against the next
/// entry, so the rounding shows; summed in another order it would not.
const LARGE_VALUES: [f64; 8] = [
    1e15,
    1e15 + 0.125,
    -1e15,
    -1e15 + 0.125,
    -1e15 + 0.25,
    0.0625,
    0.1875,
    0.3125,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The branch-and-bound search over the prefix-run index returns the
    /// sweep's pool position on full products, random subsets, pools whose
    /// constraint couples the two trailing parameters (as on HYPRE and
    /// Kripke) or two non-adjacent ones, shuffled pools, one-parameter
    /// spaces, tie-heavy tables with `±0.0`, tables of large entries a few
    /// ulps apart (which the bound's rounding slack must cover), random
    /// seen masks (all-seen gives `None`) and tables holding NaN or ±inf
    /// (the fallback path).
    #[test]
    fn run_index_search_matches_the_sweep(
        cards in proptest::collection::vec(1usize..=5, 1..=4),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = ParameterSpace::builder();
        for (i, &c) in cards.iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        let mut pool = b.build().expect("valid").enumerate();
        let n = cards.len();
        match rng.gen_range(0..6) {
            // A random subset of the product.
            0 | 1 => {
                let keep = rng.gen_range(0.2..1.0);
                pool.retain(|_| rng.gen_bool(keep));
            }
            // `lo <= (x + 1) * (y + 1) <= hi` on the last two parameters.
            2 if n >= 2 => {
                let lo = rng.gen_range(1..=9);
                let hi = lo + rng.gen_range(0..=16);
                pool.retain(|c| {
                    let cores = (c.value(n - 2).index() + 1) * (c.value(n - 1).index() + 1);
                    (lo..=hi).contains(&cores)
                });
            }
            // `x + z <= k` on the first and third parameters.
            3 if n >= 3 => {
                let k = rng.gen_range(0..=6);
                pool.retain(|c| c.value(0).index() + c.value(2).index() <= k);
            }
            _ => {}
        }
        if rng.gen_bool(0.3) {
            pool.shuffle(&mut rng);
        }
        let values: &[f64] = if rng.gen_bool(0.25) { &LARGE_VALUES } else { &TIE_VALUES };
        let mut tables: Vec<Vec<f64>> = cards
            .iter()
            .map(|&c| (0..c).map(|_| values[rng.gen_range(0..values.len())]).collect())
            .collect();
        if rng.gen_bool(0.2) {
            let p = rng.gen_range(0..tables.len());
            let v = rng.gen_range(0..tables[p].len());
            tables[p][v] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
        }
        let tables: Vec<&[f64]> = tables.iter().map(Vec::as_slice).collect();
        let density = [0.0, 0.3, 0.8, 1.0][rng.gen_range(0..4)];
        let mut seen = PoolMask::new(pool.len());
        for i in 0..pool.len() {
            if rng.gen_bool(density) {
                seen.set(i);
            }
        }
        let encoding = PoolEncoding::encode(&pool).expect("encodable");
        let runs = RunIndex::build(&encoding);
        let pick = rank_indexed(&tables, &encoding, &runs, &seen, &mut SearchScratch::default());
        prop_assert_eq!(pick, rank_encoded(&tables, &encoding, &seen));
        if seen.count() == pool.len() {
            prop_assert_eq!(pick, None);
        }
    }
}
