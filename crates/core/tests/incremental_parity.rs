//! The incremental surrogate engine's bit-identity contract, pinned from
//! two directions:
//!
//! - **Engine level** — random interleavings of successes, quarantined
//!   failures, and constant-liar fantasy push/pop must leave the engine's
//!   threshold, densities, and score columns bit-identical to a
//!   from-scratch [`TpeSurrogate`] fit over the same data after *every*
//!   operation ([`IncrementalSurrogate::assert_parity`]).
//! - **Tuner level** — a full fault-injected batch run in
//!   `SurrogateMode::Incremental` must produce the same history, best,
//!   and trace event sequence (timings excluded) as `SurrogateMode::Full`.

use hiperbot_core::surrogate::{SurrogateMode, SurrogateOptions};
use hiperbot_core::{EvalOutcome, IncrementalSurrogate, TransferPrior, Tuner, TunerOptions};
use hiperbot_obs::MemoryRecorder;
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A random fully discrete space of 1–3 parameters with 2–5 values each.
fn arb_discrete_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=3).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

/// A deterministic objective keyed on the configuration, quantized hard so
/// duplicate values (threshold ties, degenerate splits) are common.
fn tied_objective(cfg: &Configuration, salt: u64) -> f64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    1.0 + (h % 8) as f64 / 2.0
}

/// One randomized engine op: observe / fail / fantasy-push / pop.
type Op = (u8, u64, u64);

/// Drives `ops` through an engine and a mirror (configs, objectives,
/// failures), asserting full-fit parity after every single operation.
fn drive_ops(
    space: &ParameterSpace,
    options: &SurrogateOptions,
    prior: Option<(&TransferPrior, f64)>,
    ops: &[Op],
    salt: u64,
) {
    let pool = space.enumerate();
    let mut engine = IncrementalSurrogate::new(space, options, prior);
    let mut configs: Vec<Configuration> = Vec::new();
    let mut objectives: Vec<f64> = Vec::new();
    let mut failed: Vec<Configuration> = Vec::new();
    for &(kind, pick, tweak) in ops {
        let cfg = pool[(pick as usize) % pool.len()].clone();
        match kind {
            // A successful observation.
            0 => {
                let y = tied_objective(&cfg, salt.wrapping_add(tweak));
                engine.observe(&cfg, y);
                configs.push(cfg);
                objectives.push(y);
            }
            // A quarantined failure.
            1 => {
                engine.observe_failure(&cfg);
                failed.push(cfg);
            }
            // A constant-liar fantasy at the current threshold.
            2 => {
                if !engine.is_empty() {
                    let liar = engine.threshold();
                    engine.observe(&cfg, liar);
                    configs.push(cfg);
                    objectives.push(liar);
                }
            }
            // Undo the most recent observation (fantasy eviction).
            _ => {
                if !engine.is_empty() {
                    engine.pop_observation();
                    configs.pop();
                    objectives.pop();
                }
            }
        }
        engine.assert_parity(space, &configs, &objectives, &failed, prior);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of successes, failures, and fantasy push/pop
    /// keep the engine bit-identical to a from-scratch fit at every step.
    #[test]
    fn random_op_sequences_stay_bit_identical(
        space in arb_discrete_space(),
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..30),
        salt in 0u64..500,
    ) {
        drive_ops(&space, &SurrogateOptions::default(), None, &ops, salt);
    }

    /// The same contract holds on mixed discrete + continuous spaces
    /// (histogram deltas and KDE point insertion/removal together).
    #[test]
    fn mixed_space_op_sequences_stay_bit_identical(
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..25),
        salt in 0u64..500,
    ) {
        let space = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("x", Domain::continuous(-1.0, 1.0)))
            .build()
            .unwrap();
        // The discrete-only pool indexing in drive_ops needs an enumerable
        // space; enumerate a discrete proxy and graft a continuous value.
        let proxy = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let pool = proxy.enumerate();
        let opts = SurrogateOptions::default();
        let mut engine = IncrementalSurrogate::new(&space, &opts, None);
        let mut configs: Vec<Configuration> = Vec::new();
        let mut objectives: Vec<f64> = Vec::new();
        let mut failed: Vec<Configuration> = Vec::new();
        for &(kind, pick, tweak) in &ops {
            let d = pool[(pick as usize) % pool.len()].value(0).index();
            let x = -1.0 + 2.0 * ((tweak % 101) as f64 / 100.0);
            let cfg = Configuration::new(vec![
                hiperbot_space::ParamValue::Index(d),
                hiperbot_space::ParamValue::Real(x),
            ]);
            match kind {
                0 => {
                    let y = tied_objective(&cfg, salt.wrapping_add(tweak));
                    engine.observe(&cfg, y);
                    configs.push(cfg);
                    objectives.push(y);
                }
                1 => {
                    engine.observe_failure(&cfg);
                    failed.push(cfg);
                }
                2 => {
                    if !engine.is_empty() {
                        let liar = engine.threshold();
                        engine.observe(&cfg, liar);
                        configs.push(cfg);
                        objectives.push(liar);
                    }
                }
                _ => {
                    if !engine.is_empty() {
                        engine.pop_observation();
                        configs.pop();
                        objectives.pop();
                    }
                }
            }
            engine.assert_parity(&space, &configs, &objectives, &failed, None);
        }
    }

    /// Parity with a transfer-learning prior mixed in: the engine must
    /// reproduce the mixed densities bit-for-bit too.
    #[test]
    fn op_sequences_with_a_transfer_prior_stay_bit_identical(
        space in arb_discrete_space(),
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..20),
        salt in 0u64..500,
        src_seed in 0u64..500,
    ) {
        let opts = SurrogateOptions::default();
        let mut rng = ChaCha8Rng::seed_from_u64(src_seed);
        let pool_len = space.product_cardinality().unwrap();
        let src_configs = sample_distinct(&space, 6.min(pool_len), &mut rng);
        let src_objs: Vec<f64> = src_configs
            .iter()
            .map(|c| tied_objective(c, src_seed))
            .collect();
        let prior =
            TransferPrior::from_source(&space, &src_configs, &src_objs, opts.alpha, opts.pseudo_count);
        drive_ops(&space, &opts, Some((&prior, 0.5)), &ops, salt);
    }
}

/// A 3-D discrete space (6·6·4 = 144 configurations).
fn space() -> ParameterSpace {
    let six: Vec<i64> = (0..6).collect();
    let four: Vec<i64> = (0..4).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&six)))
        .param(ParamDef::new("y", Domain::discrete_ints(&six)))
        .param(ParamDef::new("z", Domain::discrete_ints(&four)))
        .build()
        .unwrap()
}

/// A deterministic fallible objective: configurations on the x == 2 plane
/// crash, everything else measures cleanly (with frequent ties).
fn fallible(cfg: &Configuration) -> EvalOutcome {
    if cfg.value(0).index() == 2 {
        EvalOutcome::Failed {
            reason: "simulated crash".to_string(),
        }
    } else {
        EvalOutcome::Ok(tied_objective(cfg, 17))
    }
}

fn tuner(seed: u64, mode: SurrogateMode) -> Tuner {
    Tuner::new(
        space(),
        TunerOptions::default()
            .with_seed(seed)
            .with_init_samples(8)
            .with_surrogate_mode(mode),
    )
}

/// Zeroes the digits after every `"<key>":` occurrence, so serialized
/// events compare structurally (wall-clock timings are never bit-stable).
fn scrub_field(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(&needle) {
        let after = at + needle.len();
        out.push_str(&rest[..after]);
        out.push('0');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Serialized events with wall-clock fields zeroed and the run header's
/// `surrogate=` token neutralized (it names the mode, the one intentional
/// difference between the two runs).
fn normalized_events(recorder: &MemoryRecorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .map(|e| {
            let line = serde_json::to_string(e).unwrap();
            scrub_field(&scrub_field(&line, "elapsed_ns"), "backoff_ns")
                .replace("surrogate=Full", "surrogate=Incremental")
        })
        .collect()
}

/// The full observable state of a finished run, for equality assertions.
fn fingerprint(t: &Tuner) -> (Vec<String>, Vec<f64>, Vec<String>, usize) {
    let configs = t
        .history()
        .configs()
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    let failures = t
        .history()
        .failures()
        .iter()
        .map(|f| format!("{:?}:{}", f.config, f.reason))
        .collect();
    (
        configs,
        t.history().objectives().to_vec(),
        failures,
        t.history().trials(),
    )
}

#[test]
fn incremental_and_full_runs_are_bit_identical_with_faults_and_batching() {
    for (seed, batch) in [(3u64, 1usize), (11, 4), (42, 6)] {
        let full_rec = Arc::new(MemoryRecorder::new());
        let mut full = tuner(seed, SurrogateMode::Full).with_recorder(full_rec.clone());
        let full_best =
            full.run_batch_fallible(36, batch, |cfgs, _| cfgs.iter().map(fallible).collect());

        let inc_rec = Arc::new(MemoryRecorder::new());
        let mut inc = tuner(seed, SurrogateMode::Incremental).with_recorder(inc_rec.clone());
        let inc_best =
            inc.run_batch_fallible(36, batch, |cfgs, _| cfgs.iter().map(fallible).collect());

        assert_eq!(
            fingerprint(&full),
            fingerprint(&inc),
            "seed {seed} batch {batch}"
        );
        let (f, i) = (full_best.unwrap(), inc_best.unwrap());
        assert_eq!(
            (f.config, f.objective, f.evaluations),
            (i.config, i.objective, i.evaluations)
        );
        assert_eq!(
            normalized_events(&full_rec),
            normalized_events(&inc_rec),
            "seed {seed} batch {batch}: traces must match event-for-event"
        );
        // The *next* suggestion agrees too: surrogate states stay
        // interchangeable after the run, fantasies all evicted.
        assert_eq!(full.suggest(), inc.suggest(), "seed {seed} batch {batch}");
    }
}

#[test]
fn incremental_serial_stepping_matches_full_mode() {
    for seed in [5u64, 19] {
        let mut full = tuner(seed, SurrogateMode::Full);
        let mut inc = tuner(seed, SurrogateMode::Incremental);
        for _ in 0..30 {
            let a = full.step_fallible(fallible);
            let b = inc.step_fallible(fallible);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(fingerprint(&full), fingerprint(&inc), "seed {seed}");
        }
    }
}

#[test]
fn churn_counters_track_engine_work() {
    let mut t = tuner(7, SurrogateMode::Incremental);
    t.run_batch_fallible(32, 4, |cfgs, _| cfgs.iter().map(fallible).collect());
    // The engine lags the history by the final batch's merged outcomes;
    // one more suggestion syncs it before the counters are read.
    t.suggest();
    let stats = t.churn_stats().expect("incremental engine was built");
    // Every real observation and every fantasy was a delta insert; every
    // fantasy was popped back off; failures were folded in.
    assert!(stats.inserts >= t.history().len() as u64);
    assert_eq!(
        stats.inserts - stats.removes,
        t.history().len() as u64,
        "pops must exactly cancel fantasy pushes"
    );
    assert_eq!(stats.failures, t.history().failures().len() as u64);
}
