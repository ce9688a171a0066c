//! Proposal selection on the incremental engine, pinned against the
//! from-scratch fit from three directions:
//!
//! - **Engine level** — over discrete, continuous, mixed and constrained
//!   spaces, with failures, a transfer prior and constant-liar fantasy
//!   push/pop sequences, draws from the engine's views fill the same
//!   candidate matrix and leave the RNG at the same word as
//!   `TpeSurrogate::sample_good_batch` (and as scalar `sample_good` calls)
//!   on a from-scratch fit, and the engine's scores carry `log_ei_batch`'s
//!   bits. The vectorized selector returns the same pick from either model.
//! - **Tuner level** — Proposal runs under `SurrogateMode::Incremental` and
//!   `SurrogateMode::Full` produce identical histories, normalized traces
//!   and checkpoint JSON: serial, batch 4 with injected failures, and with
//!   a transfer prior.
//! - **Resume** — a Proposal run killed after any trial and resumed from
//!   its snapshot rebuilds the engine from the restored history and
//!   finishes bit-identically to the uninterrupted run.

use hiperbot_core::checkpoint::TunerCheckpoint;
use hiperbot_core::selection::{
    select_by_proposal_vectorized, ProposalScratch, Seen, SelectionStrategy, PROPOSAL_REDRAW_ROUNDS,
};
use hiperbot_core::surrogate::{
    sample_views, score_views, CandidateColumn, CandidateMatrix, SurrogateMode, SurrogateOptions,
    TpeSurrogate,
};
use hiperbot_core::{
    CheckpointPolicy, EvalOutcome, IncrementalSurrogate, ObservationHistory, TransferPrior, Tuner,
    TunerOptions,
};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::sampling::{sample_distinct, sample_uniform};
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The space shapes the engine-level proptest draws from.
fn space_of(kind: u8) -> ParameterSpace {
    let b = ParameterSpace::builder();
    match kind % 5 {
        0 => b
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[0, 1, 2, 3, 4]))),
        1 => b
            .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
            .param(ParamDef::new("y", Domain::continuous(-2.0, 2.0))),
        2 => b
            .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
            .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 4, 8])))
            .param(ParamDef::new("y", Domain::continuous(-1.0, 1.0))),
        3 => b
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
            .constraint("a + b <= 4", |c, _| {
                c.value(0).index() + c.value(1).index() <= 4
            }),
        _ => b
            .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 4, 8])))
            .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
            .constraint("k * x <= 3", |c, d| {
                c.numeric_value(0, &d[0]) * c.value(1).as_f64() <= 3.0
            }),
    }
    .build()
    .expect("valid space")
}

/// A salted hash of the configuration's values.
fn config_hash(cfg: &Configuration, salt: u64) -> u64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    h
}

/// A deterministic objective keyed on the configuration, quantized so
/// threshold ties and degenerate splits are common.
fn tied_objective(cfg: &Configuration, salt: u64) -> f64 {
    1.0 + (config_hash(cfg, salt) % 8) as f64 / 2.0
}

/// A matrix's cells as comparable bits, tagged by column kind.
fn matrix_bits(m: &CandidateMatrix) -> Vec<Vec<(u8, u64)>> {
    m.columns()
        .iter()
        .map(|col| match col {
            CandidateColumn::Index(is) => is.iter().map(|&i| (0, i as u64)).collect(),
            CandidateColumn::Real(xs) => xs.iter().map(|x| (1, x.to_bits())).collect(),
        })
        .collect()
}

/// Asserts that the engine draws, scores and selects exactly like a
/// from-scratch fit over the mirrored data.
#[allow(clippy::too_many_arguments)]
fn check_engine_against_fit(
    engine: &IncrementalSurrogate,
    space: &ParameterSpace,
    configs: &[Configuration],
    objectives: &[f64],
    failed: &[Configuration],
    prior: Option<(&TransferPrior, f64)>,
    seed: u64,
    n: usize,
) {
    let full = TpeSurrogate::fit_with_failures(
        space,
        configs,
        objectives,
        failed,
        &SurrogateOptions::default(),
        prior,
    );
    // The maintained state itself — good pmfs and columns included.
    engine.assert_parity(space, configs, objectives, failed, prior);
    let views = engine.views();

    // Draws: same matrix, same RNG word, and the scalar draws too.
    let mut fit_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut eng_rng = fit_rng.clone();
    let mut scalar_rng = fit_rng.clone();
    let (mut fit_m, mut eng_m) = (CandidateMatrix::default(), CandidateMatrix::default());
    let (mut fit_probe, mut eng_probe) = (None, None);
    full.sample_good_batch(space, n, &mut fit_rng, &mut fit_m, &mut fit_probe);
    sample_views(&views, space, n, &mut eng_rng, &mut eng_m, &mut eng_probe);
    prop_assert_eq!(matrix_bits(&fit_m), matrix_bits(&eng_m));
    prop_assert_eq!(fit_rng.word_pos(), eng_rng.word_pos());
    let probe = eng_probe.as_mut().expect("sampled a row");
    for c in 0..n {
        let scalar = full.sample_good(space, &mut scalar_rng);
        eng_m.write_row(c, probe);
        prop_assert_eq!(&*probe, &scalar, "draw {} diverged from sample_good", c);
    }
    prop_assert_eq!(scalar_rng.word_pos(), eng_rng.word_pos());

    // Scores: the engine's carry log_ei_batch's bits, which are log_ei's.
    let (mut fit_scores, mut eng_scores) = (Vec::new(), Vec::new());
    full.log_ei_batch(&fit_m, &mut fit_scores);
    score_views(&views, &eng_m, &mut eng_scores);
    for (c, (f, e)) in fit_scores.iter().zip(&eng_scores).enumerate() {
        prop_assert_eq!(f.to_bits(), e.to_bits(), "score {} diverged", c);
        eng_m.write_row(c, probe);
        prop_assert_eq!(e.to_bits(), full.log_ei(probe).to_bits());
    }

    // Selection with redraw rounds and an extra seen set: same pick, same
    // score, same cursor.
    let mut history = ObservationHistory::new();
    for (cfg, &y) in configs.iter().zip(objectives) {
        if !history.contains(cfg) {
            history.push(cfg.clone(), y);
        }
    }
    let extra: FxHashSet<Configuration> = configs.iter().take(2).cloned().collect();
    let mut fit_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut eng_rng = fit_rng.clone();
    let mut scratch = ProposalScratch::default();
    let from_fit = select_by_proposal_vectorized(
        &full,
        space,
        Seen::Configs(&history, Some(&extra)),
        n,
        PROPOSAL_REDRAW_ROUNDS,
        &mut fit_rng,
        &mut scratch,
    );
    let from_engine = select_by_proposal_vectorized(
        engine,
        space,
        Seen::Configs(&history, Some(&extra)),
        n,
        PROPOSAL_REDRAW_ROUNDS,
        &mut eng_rng,
        &mut scratch,
    );
    prop_assert_eq!(&from_fit.config, &from_engine.config);
    prop_assert_eq!(from_fit.score.to_bits(), from_engine.score.to_bits());
    prop_assert_eq!(from_fit.duplicate, from_engine.duplicate);
    prop_assert_eq!(from_fit.scored, from_engine.scored);
    prop_assert_eq!(fit_rng.word_pos(), eng_rng.word_pos());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random interleavings of observations, quarantined failures and
    /// constant-liar fantasy push/pop, with and without a transfer prior:
    /// after every operation the engine draws, scores and selects exactly
    /// like a from-scratch fit of the same data.
    #[test]
    fn engine_draws_and_scores_match_a_full_fit(
        kind in 0u8..5,
        ops in proptest::collection::vec((0u8..4, 0u64..10_000), 1..24),
        with_prior in 0u8..2,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let space = space_of(kind);
        let opts = SurrogateOptions::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prior = (with_prior == 1).then(|| {
            let source: Vec<Configuration> =
                (0..12).map(|_| sample_uniform(&space, &mut rng)).collect();
            let ys: Vec<f64> = source.iter().map(|c| tied_objective(c, seed ^ 7)).collect();
            TransferPrior::from_source(&space, &source, &ys, opts.alpha, opts.pseudo_count)
        });
        let prior = prior.as_ref().map(|p| (p, 0.4));
        let mut engine = IncrementalSurrogate::new(&space, &opts, prior);
        let (mut configs, mut objectives, mut failed) = (Vec::new(), Vec::new(), Vec::new());
        // How many of the trailing observations are live fantasies.
        let mut fantasies = 0usize;
        for &(op, tweak) in &ops {
            let cfg = sample_uniform(&space, &mut rng);
            match op {
                0 if fantasies == 0 => {
                    let y = tied_objective(&cfg, tweak);
                    engine.observe(&cfg, y);
                    configs.push(cfg);
                    objectives.push(y);
                }
                1 if fantasies == 0 => {
                    engine.observe_failure(&cfg);
                    failed.push(cfg);
                }
                2 if !engine.is_empty() => {
                    let liar = engine.threshold();
                    engine.observe(&cfg, liar);
                    configs.push(cfg);
                    objectives.push(liar);
                    fantasies += 1;
                }
                3 if fantasies > 0 => {
                    engine.pop_observation();
                    configs.pop();
                    objectives.pop();
                    fantasies -= 1;
                }
                _ => continue,
            }
            if !engine.is_empty() {
                check_engine_against_fit(
                    &engine, &space, &configs, &objectives, &failed, prior, seed ^ tweak, n,
                );
            }
        }
    }
}

/// A mixed continuous + discrete space for tuner-level runs.
fn mixed_space() -> ParameterSpace {
    space_of(2)
}

/// A 60-configuration discrete space: Proposal draws duplicate history
/// often enough to exercise the redraw rounds, dropped batch picks and
/// stalls.
fn discrete_space() -> ParameterSpace {
    space_of(0)
}

/// 20 % injected failures keyed on the configuration alone, so outcomes
/// do not depend on scheduling or on where a run was killed.
fn faulty(cfg: &Configuration) -> EvalOutcome {
    if config_hash(cfg, 99).is_multiple_of(5) {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        EvalOutcome::Ok(tied_objective(cfg, 3) + cfg.value(0).as_f64())
    }
}

fn ok(cfg: &Configuration) -> EvalOutcome {
    EvalOutcome::Ok(tied_objective(cfg, 3) + cfg.value(0).as_f64())
}

/// Zeroes the digits after every `"<key>":` occurrence.
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

/// Neutralizes the one intended difference between the two modes: the
/// `surrogate=` token of the option summary.
fn same_mode(s: &str) -> String {
    s.replace("surrogate=Full", "surrogate=Incremental")
}

fn normalized_events(recorder: &MemoryRecorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .map(|e| {
            let line = serde_json::to_string(e).unwrap();
            same_mode(&scrub_field(
                &scrub_field(&line, "elapsed_ns"),
                "backoff_ns",
            ))
        })
        .collect()
}

/// Everything a finished run leaves behind, normalized across modes.
#[derive(Debug, PartialEq)]
struct RunState {
    history: String,
    events: Vec<String>,
    checkpoint: String,
    stalls: usize,
    best: Option<(Configuration, u64)>,
    next: Option<Configuration>,
}

/// Runs one Proposal campaign (`batch == 0` is the serial driver) and
/// captures its state, plus the suggestion after the run.
fn proposal_run(
    space: ParameterSpace,
    options: TunerOptions,
    budget: usize,
    batch: usize,
    eval: fn(&Configuration) -> EvalOutcome,
) -> RunState {
    let rec = Arc::new(MemoryRecorder::new());
    let mut tuner = Tuner::new(space, options).with_recorder(rec.clone());
    let best = if batch == 0 {
        tuner.run_fallible(budget, eval)
    } else {
        tuner.run_batch_fallible(budget, batch, |cfgs, _| cfgs.iter().map(eval).collect())
    };
    let history = serde_json::to_string(tuner.history()).unwrap();
    let events = normalized_events(&rec);
    let checkpoint = same_mode(&tuner.checkpoint().to_json());
    let stalls = tuner.stalls();
    let next = (!tuner.history().is_empty())
        .then(|| tuner.suggest())
        .flatten();
    RunState {
        history,
        events,
        checkpoint,
        stalls,
        best: best.map(|b| (b.config, b.objective.to_bits())),
        next,
    }
}

fn proposal_options(seed: u64, candidates: usize) -> TunerOptions {
    TunerOptions::default()
        .with_seed(seed)
        .with_init_samples(6)
        .with_strategy(SelectionStrategy::Proposal { candidates })
}

fn assert_modes_agree(
    space: fn() -> ParameterSpace,
    options: TunerOptions,
    budget: usize,
    batch: usize,
    eval: fn(&Configuration) -> EvalOutcome,
    label: &str,
) -> RunState {
    let incremental = proposal_run(
        space(),
        options
            .clone()
            .with_surrogate_mode(SurrogateMode::Incremental),
        budget,
        batch,
        eval,
    );
    let full = proposal_run(
        space(),
        options.with_surrogate_mode(SurrogateMode::Full),
        budget,
        batch,
        eval,
    );
    assert_eq!(incremental.history, full.history, "{label}: histories");
    assert_eq!(incremental.events, full.events, "{label}: traces");
    assert_eq!(
        incremental.checkpoint, full.checkpoint,
        "{label}: snapshots"
    );
    assert_eq!(incremental.stalls, full.stalls, "{label}: stalls");
    assert_eq!(incremental.best, full.best, "{label}: best");
    assert_eq!(incremental.next, full.next, "{label}: next suggestion");
    incremental
}

#[test]
fn serial_proposal_runs_agree_across_surrogate_modes() {
    let mut stalls = 0;
    for seed in [1u64, 8, 21] {
        assert_modes_agree(
            mixed_space,
            proposal_options(seed, 16),
            30,
            0,
            ok,
            &format!("mixed seed {seed}"),
        );
        stalls += assert_modes_agree(
            discrete_space,
            proposal_options(seed, 8),
            48,
            0,
            faulty,
            &format!("discrete seed {seed}"),
        )
        .stalls;
    }
    assert!(stalls > 0, "the discrete runs should stall on duplicates");
}

#[test]
fn batch_proposal_runs_with_failures_agree_across_surrogate_modes() {
    let mut stalls = 0;
    for seed in [2u64, 13] {
        assert_modes_agree(
            mixed_space,
            proposal_options(seed, 12),
            36,
            4,
            faulty,
            &format!("mixed batch 4 seed {seed}"),
        );
        stalls += assert_modes_agree(
            discrete_space,
            proposal_options(seed, 8),
            48,
            4,
            faulty,
            &format!("discrete batch 4 seed {seed}"),
        )
        .stalls;
    }
    assert!(
        stalls > 0,
        "the discrete batches should drop duplicate picks"
    );
}

#[test]
fn proposal_runs_with_a_transfer_prior_agree_across_surrogate_modes() {
    for space in [mixed_space as fn() -> ParameterSpace, discrete_space] {
        let source_space = space();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let source = sample_distinct(&source_space, 16, &mut rng);
        let ys: Vec<f64> = source.iter().map(|c| tied_objective(c, 5)).collect();
        let opts = SurrogateOptions::default();
        let prior =
            TransferPrior::from_source(&source_space, &source, &ys, opts.alpha, opts.pseudo_count);
        for batch in [0usize, 4] {
            assert_modes_agree(
                space,
                proposal_options(4, 12).with_prior(prior.clone(), 0.5),
                28,
                batch,
                faulty,
                &format!("prior batch {batch}"),
            );
        }
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hiperbot-proposal-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Kills a serial Proposal run after every trial count `k`, resumes it
/// from the snapshot (the resumed tuner builds its engine from the
/// restored history), and checks history, best, final snapshot bytes and
/// trace suffix against the uninterrupted run.
#[test]
fn proposal_kill_at_every_trial_resumes_on_the_engine() {
    let budget = 24;
    let opts = || proposal_options(11, 8).with_surrogate_mode(SurrogateMode::Incremental);

    let ref_path = temp_path("ref.json");
    let ref_rec = Arc::new(MemoryRecorder::new());
    let mut reference = Tuner::new(discrete_space(), opts())
        .with_recorder(ref_rec.clone())
        .with_checkpointing(CheckpointPolicy::new(&ref_path, 1));
    let ref_best = reference.run_fallible(budget, faulty).unwrap();
    let ref_history = serde_json::to_string(reference.history()).unwrap();
    let ref_bytes = std::fs::read(&ref_path).unwrap();
    let ref_events = ref_rec.events();

    for k in 1..budget {
        let path = temp_path(&format!("k{k}.json"));
        let calls = AtomicUsize::new(0);
        let mut killed = Tuner::new(discrete_space(), opts())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            killed.run_fallible(budget, |cfg| {
                if calls.fetch_add(1, Ordering::SeqCst) >= k {
                    panic!("simulated crash at trial {k}");
                }
                faulty(cfg)
            })
        }));
        assert!(crashed.is_err(), "run should have crashed at trial {k}");
        let snap = TunerCheckpoint::load(&path).unwrap();

        let rec = Arc::new(MemoryRecorder::new());
        let mut resumed = Tuner::resume_from_checkpoint(discrete_space(), opts(), &snap)
            .unwrap()
            .with_recorder(rec.clone())
            .with_checkpointing(CheckpointPolicy::new(&path, 1));
        assert!(
            resumed.churn_stats().is_none(),
            "the engine is rebuilt lazily"
        );
        let best = resumed.run_fallible(budget, faulty).unwrap();
        assert_eq!(
            serde_json::to_string(resumed.history()).unwrap(),
            ref_history,
            "kill at {k}: history"
        );
        assert_eq!(best.config, ref_best.config, "kill at {k}");
        assert_eq!(best.objective, ref_best.objective, "kill at {k}");
        assert_eq!(std::fs::read(&path).unwrap(), ref_bytes, "kill at {k}");
        let at = ref_events
            .iter()
            .position(
                |e| matches!(e, Event::CheckpointWritten { trials, .. } if *trials == k as u64),
            )
            .unwrap_or_else(|| panic!("reference has no checkpoint at trial {k}"));
        let normalize = |e: &Event| {
            let line = serde_json::to_string(e).unwrap();
            scrub_field(&scrub_field(&line, "elapsed_ns"), "backoff_ns")
        };
        let expected: Vec<String> = ref_events[at + 1..].iter().map(normalize).collect();
        let events = rec.events();
        assert!(matches!(&events[1], Event::RunResumed { trials, .. } if *trials == k as u64));
        let got: Vec<String> = events[2..].iter().map(normalize).collect();
        assert_eq!(got, expected, "kill at {k}: trace suffix");
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}
