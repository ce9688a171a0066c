//! The vectorized Proposal engine's parity contracts, regression-pinned:
//!
//! - `select_by_proposal_vectorized` with zero redraw rounds is
//!   **bit-identical** to the scalar `select_by_proposal` — same pick,
//!   same RNG cursor afterwards.
//! - `log_ei_batch` scores carry the exact bits `log_ei` returns per
//!   candidate, across random spaces, histories, and seeds.
//! - `sample_good_batch` consumes the RNG exactly like n scalar
//!   `sample_good` calls and reproduces their draws.
//! - `run_batch_fallible(budget, 1, ..)` under Proposal is bit-identical
//!   to the serial `run_fallible` — histories AND traces — mirroring the
//!   Ranking contract in `batch_parity.rs`.
//! - `SelectionScored.best_ei` is the winning selection score (the tuner
//!   no longer re-scores the pick after selection).
//! - The in-selection redraw rounds never stall where the old
//!   single-round path would have succeeded.

use hiperbot_core::selection::{
    select_by_proposal, select_by_proposal_vectorized, ProposalScratch, Seen, SelectionStrategy,
    PROPOSAL_REDRAW_ROUNDS,
};
use hiperbot_core::surrogate::{CandidateMatrix, SurrogateOptions, TpeSurrogate};
use hiperbot_core::{EvalOutcome, ObservationHistory, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A mixed continuous + discrete space: both candidate-column kinds.
fn mixed_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("y", Domain::continuous(-2.0, 2.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[0, 1, 2, 3])))
        .build()
        .unwrap()
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.value(0).as_f64();
    let y = cfg.value(1).as_f64();
    let k = cfg.value(2).index() as f64;
    (x - 0.3).powi(2) + 0.25 * (y - 1.0).powi(2) + 0.1 * (k - 2.0).powi(2) + 1.0
}

fn ok(cfg: &Configuration) -> EvalOutcome {
    EvalOutcome::Ok(objective(cfg))
}

/// Fits a surrogate over `n` distinct observations of the mixed space.
fn fitted(n: usize, seed: u64) -> (TpeSurrogate, ObservationHistory, ParameterSpace) {
    let space = mixed_space();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let configs = sample_distinct(&space, n, &mut rng);
    let objectives: Vec<f64> = configs.iter().map(objective).collect();
    let surrogate = TpeSurrogate::fit(
        &space,
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    (surrogate, history, space)
}

#[test]
fn vectorized_with_zero_rounds_is_bit_identical_to_scalar() {
    for seed in 0..20u64 {
        let (surrogate, history, space) = fitted(12, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let mut vec_rng = scalar_rng.clone();
        let scalar = select_by_proposal(&surrogate, &space, &history, 32, &mut scalar_rng);
        let mut scratch = ProposalScratch::default();
        let pick = select_by_proposal_vectorized(
            &surrogate,
            &space,
            Seen::Configs(&history, None),
            32,
            0,
            &mut vec_rng,
            &mut scratch,
        );
        assert_eq!(pick.config, scalar, "seed {seed}: picks diverged");
        assert_eq!(pick.scored, 32, "seed {seed}");
        // Scoring consumes no randomness: both paths must leave the RNG
        // cursor in the same place.
        assert_eq!(
            scalar_rng.next_u64(),
            vec_rng.next_u64(),
            "seed {seed}: RNG cursors diverged"
        );
        // And the returned score is the pick's exact log_ei.
        assert_eq!(
            pick.score.to_bits(),
            surrogate.log_ei(&pick.config).to_bits(),
            "seed {seed}: selection score is not the pick's log_ei"
        );
    }
}

#[test]
fn sample_good_batch_reproduces_scalar_draws_and_rng_cursor() {
    for seed in 0..10u64 {
        let (surrogate, _history, space) = fitted(10, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31) + 5);
        let mut batch_rng = scalar_rng.clone();
        let n = 17;
        let scalar: Vec<Configuration> = (0..n)
            .map(|_| surrogate.sample_good(&space, &mut scalar_rng))
            .collect();
        let mut matrix = CandidateMatrix::default();
        let mut probe = None;
        surrogate.sample_good_batch(&space, n, &mut batch_rng, &mut matrix, &mut probe);
        assert_eq!(matrix.len(), n);
        let probe = probe.as_mut().unwrap();
        for (c, expect) in scalar.iter().enumerate() {
            matrix.write_row(c, probe);
            assert_eq!(&*probe, expect, "seed {seed}: draw {c} diverged");
        }
        assert_eq!(
            scalar_rng.next_u64(),
            batch_rng.next_u64(),
            "seed {seed}: RNG cursors diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `log_ei_batch` == per-candidate `log_ei`, bit for bit, over random
    /// history sizes (small fits exercise the `bad: None` uniform
    /// fallback), candidate counts straddling the scoring chunk size, and
    /// seeds.
    #[test]
    fn log_ei_batch_is_bit_identical_to_scalar(
        n_obs in 2usize..40,
        n_candidates in 1usize..600,
        seed in 0u64..1000,
    ) {
        let (surrogate, _history, space) = fitted(n_obs, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51c3);
        let mut matrix = CandidateMatrix::default();
        let mut probe = None;
        surrogate.sample_good_batch(&space, n_candidates, &mut rng, &mut matrix, &mut probe);
        let mut scores = Vec::new();
        surrogate.log_ei_batch(&matrix, &mut scores);
        prop_assert_eq!(scores.len(), n_candidates);
        let probe = probe.as_mut().unwrap();
        for (c, &s) in scores.iter().enumerate() {
            matrix.write_row(c, probe);
            prop_assert_eq!(s.to_bits(), surrogate.log_ei(&*probe).to_bits());
        }
    }

    /// Randomized scalar==vectorized selection parity across candidate
    /// counts and history sizes.
    #[test]
    fn zero_round_selection_parity_holds_everywhere(
        n_obs in 3usize..30,
        candidates in 1usize..64,
        seed in 0u64..1000,
    ) {
        let (surrogate, history, space) = fitted(n_obs, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x77);
        let mut vec_rng = scalar_rng.clone();
        let scalar = select_by_proposal(&surrogate, &space, &history, candidates, &mut scalar_rng);
        let mut scratch = ProposalScratch::default();
        let pick = select_by_proposal_vectorized(
            &surrogate, &space, Seen::Configs(&history, None), candidates, 0, &mut vec_rng, &mut scratch,
        );
        prop_assert_eq!(pick.config, scalar);
        prop_assert_eq!(scalar_rng.next_u64(), vec_rng.next_u64());
    }
}

/// Satellite regression: the `SelectionScored` event reuses the winning
/// selection score instead of re-walking the densities after selection.
#[test]
fn selection_scored_event_carries_the_exact_selection_score() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut t = Tuner::new(
        mixed_space(),
        TunerOptions::default()
            .with_seed(4)
            .with_init_samples(6)
            .with_strategy(SelectionStrategy::Proposal { candidates: 24 }),
    )
    .with_recorder(rec.clone());
    t.run_fallible(12, ok).unwrap();
    let cfg = t.suggest().expect("Proposal always suggests");
    let best_ei = rec
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            Event::SelectionScored { best_ei, .. } => Some(*best_ei),
            _ => None,
        })
        .expect("suggest emits SelectionScored");
    // The event score must be exactly the pick's log_ei under the fit the
    // suggestion used (the public `surrogate()` accessor refits over the
    // same history, which is deterministic).
    let surrogate = t.surrogate();
    assert_eq!(
        best_ei.to_bits(),
        surrogate.log_ei(&cfg).to_bits(),
        "event best_ei must be the selection score"
    );
}

/// Satellite regression: the redraw rounds only ever *rescue* stalls. If
/// the vectorized selector concedes a duplicate, the old single-round
/// path (round 0 consumes identical draws) stalled too — per selection,
/// new stalls ⊆ old stalls.
#[test]
fn redraw_rounds_never_stall_where_the_old_path_succeeded() {
    // A 4-configuration space with most of it already evaluated makes
    // duplicate draws the common case.
    let space = ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
        .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
        .build()
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let configs = sample_distinct(&space, 3, &mut rng);
    let objectives: Vec<f64> = configs.iter().enumerate().map(|(i, _)| i as f64).collect();
    let surrogate = TpeSurrogate::fit(
        &space,
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    let mut scratch = ProposalScratch::default();
    let (mut old_stalls, mut new_stalls) = (0usize, 0usize);
    for seed in 0..200u64 {
        let mut old_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut new_rng = old_rng.clone();
        let old_pick = select_by_proposal(&surrogate, &space, &history, 4, &mut old_rng);
        let old_stalled = history.contains(&old_pick);
        let pick = select_by_proposal_vectorized(
            &surrogate,
            &space,
            Seen::Configs(&history, None),
            4,
            PROPOSAL_REDRAW_ROUNDS,
            &mut new_rng,
            &mut scratch,
        );
        assert!(
            !pick.duplicate || old_stalled,
            "seed {seed}: redraw rounds stalled where one round succeeded"
        );
        old_stalls += old_stalled as usize;
        new_stalls += pick.duplicate as usize;
    }
    assert!(
        new_stalls <= old_stalls,
        "stall counts regressed: {new_stalls} new vs {old_stalls} old"
    );
    // The whole point of the redraw rounds: some stalls are rescued.
    assert!(
        new_stalls < old_stalls,
        "expected the redraw rounds to rescue at least one stall \
         ({old_stalls} old, {new_stalls} new)"
    );
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

fn normalized_events(recorder: &MemoryRecorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .map(|e| {
            let line = serde_json::to_string(e).unwrap();
            scrub_field(&scrub_field(&line, "elapsed_ns"), "backoff_ns")
        })
        .collect()
}

fn fingerprint(t: &Tuner) -> (Vec<String>, Vec<f64>, usize) {
    (
        t.history()
            .configs()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect(),
        t.history().objectives().to_vec(),
        t.history().trials(),
    )
}

fn proposal_tuner(seed: u64) -> Tuner {
    Tuner::new(
        mixed_space(),
        TunerOptions::default()
            .with_seed(seed)
            .with_init_samples(6)
            .with_strategy(SelectionStrategy::Proposal { candidates: 16 }),
    )
}

#[test]
fn proposal_batch_of_one_is_bit_identical_to_the_serial_tuner() {
    for seed in [3u64, 11, 42] {
        let serial_rec = Arc::new(MemoryRecorder::new());
        let mut serial = proposal_tuner(seed).with_recorder(serial_rec.clone());
        let serial_best = serial.run_fallible(30, ok).unwrap();

        let batch_rec = Arc::new(MemoryRecorder::new());
        let mut batch = proposal_tuner(seed).with_recorder(batch_rec.clone());
        let batch_best = batch
            .run_batch_fallible(30, 1, |cfgs, _base| cfgs.iter().map(ok).collect())
            .unwrap();

        assert_eq!(fingerprint(&serial), fingerprint(&batch), "seed {seed}");
        assert_eq!(serial_best.config, batch_best.config, "seed {seed}");
        assert_eq!(serial_best.objective, batch_best.objective, "seed {seed}");
        assert_eq!(
            normalized_events(&serial_rec),
            normalized_events(&batch_rec),
            "seed {seed}: traces must match event-for-event"
        );
        // The surrogate states are interchangeable, not just the
        // summaries: the next suggestion agrees too.
        assert_eq!(serial.suggest(), batch.suggest(), "seed {seed}");
    }
}

#[test]
fn proposal_suggest_batch_of_one_equals_suggest() {
    // Proposal suggestion consumes RNG, so compare two tuners advanced to
    // the identical state rather than calling both on one tuner.
    let mut a = proposal_tuner(7);
    let mut b = proposal_tuner(7);
    a.run_fallible(12, ok).unwrap();
    b.run_fallible(12, ok).unwrap();
    let single = a.suggest().expect("Proposal always suggests");
    let batch = b.suggest_batch(1);
    assert_eq!(batch, vec![single]);
}

#[test]
fn proposal_constant_liar_batch_is_distinct_and_leak_free() {
    let mut t = proposal_tuner(5);
    t.run_fallible(14, ok).unwrap();
    let before = fingerprint(&t);
    let picks = t.suggest_batch(6);
    assert_eq!(
        fingerprint(&t),
        before,
        "suggestion must not mutate history"
    );
    assert_eq!(picks.len(), 6, "continuous spaces never stall a batch");
    for (i, a) in picks.iter().enumerate() {
        assert!(!t.history().contains(a), "pick {i} already evaluated");
        for b in &picks[..i] {
            assert_ne!(a, b, "duplicate pick in one batch");
        }
    }
}

#[test]
fn proposal_batch_runs_spend_the_full_budget_at_any_width() {
    for batch in [1usize, 3, 4, 8] {
        let mut t = proposal_tuner(23);
        let best = t
            .run_batch_fallible(30, batch, |cfgs, _base| cfgs.iter().map(ok).collect())
            .unwrap();
        assert_eq!(t.history().trials(), 30, "batch {batch}");
        assert!(best.objective.is_finite(), "batch {batch}");
    }
}

/// Exhausted-space Proposal runs stall out gracefully in both serial and
/// batch mode, with identical stall accounting (`ProposalStalled`).
#[test]
fn proposal_stall_accounting_matches_between_serial_and_batch() {
    let tiny = || {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap()
    };
    let opts = || {
        TunerOptions::default()
            .with_seed(2)
            .with_init_samples(2)
            .with_strategy(SelectionStrategy::Proposal { candidates: 4 })
    };
    let eval = |cfg: &Configuration| {
        EvalOutcome::Ok(cfg.value(0).index() as f64 + 2.0 * cfg.value(1).index() as f64)
    };
    let serial_rec = Arc::new(MemoryRecorder::new());
    let mut serial = Tuner::new(tiny(), opts()).with_recorder(serial_rec.clone());
    serial.run_fallible(6, eval).unwrap();
    let batch_rec = Arc::new(MemoryRecorder::new());
    let mut batch = Tuner::new(tiny(), opts()).with_recorder(batch_rec.clone());
    batch
        .run_batch_fallible(6, 1, |cfgs, _base| cfgs.iter().map(eval).collect())
        .unwrap();
    // The 4-config space caps at 4 trials; everything after is stalls.
    assert_eq!(serial.history().trials(), 4);
    assert_eq!(batch.history().trials(), 4);
    let stalls = |rec: &MemoryRecorder| {
        rec.events().iter().find_map(|e| match e {
            Event::ProposalStalled { stalls, .. } => Some(*stalls),
            _ => None,
        })
    };
    let (s, b) = (stalls(&serial_rec), stalls(&batch_rec));
    assert_eq!(s, b, "serial and batch=1 stall totals must agree");
    assert!(s.unwrap_or(0) > 0, "an exhausted space must report stalls");
    assert_eq!(
        normalized_events(&serial_rec),
        normalized_events(&batch_rec),
        "stalled traces must match event-for-event"
    );
}
