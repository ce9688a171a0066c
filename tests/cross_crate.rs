//! Cross-crate consistency checks: the pieces different crates exchange
//! (configurations, encodings, traces, datasets) agree with each other.

use hiperbot::apps::{hypre, Scale};
use hiperbot::baselines::{ConfigSelector, GeistSelector, GpEiSelector, RandomSelector};
use hiperbot::space::{Encoder, EncodingKind};

#[test]
fn every_baseline_produces_a_valid_trace_on_hypre() {
    let dataset = hypre::dataset(Scale::Target);
    let geist = GeistSelector::default();
    let gp = GpEiSelector {
        candidate_cap: 500,
        ..GpEiSelector::default()
    };
    let methods: Vec<(&str, &dyn ConfigSelector)> = vec![
        ("Random", &RandomSelector),
        ("GEIST", &geist),
        ("GP-EI", &gp),
    ];
    let pool = dataset.to_configs();
    for (name, m) in methods {
        let run = m.select(dataset.space(), &pool, &|c| dataset.evaluate(c), 40, 5);
        assert_eq!(run.len(), 40, "{name} trace length");
        let set: std::collections::HashSet<_> = run.configs.iter().cloned().collect();
        assert_eq!(set.len(), 40, "{name} duplicates");
        for (c, &y) in run.configs.iter().zip(&run.objectives) {
            assert_eq!(dataset.evaluate(c), y, "{name} objective mismatch");
        }
    }
}

#[test]
fn encodings_cover_the_whole_hypre_space() {
    let dataset = hypre::dataset(Scale::Target);
    let onehot = Encoder::new(dataset.space(), EncodingKind::OneHot);
    let norm = Encoder::new(dataset.space(), EncodingKind::Normalized);
    assert_eq!(norm.width(), dataset.space().n_params());
    for i in (0..dataset.len()).step_by(97) {
        let cfg = &dataset.config(i);
        let v = onehot.encode(cfg);
        assert_eq!(v.len(), onehot.width());
        // one-hot blocks sum to exactly n_params for a fully discrete space
        let sum: f64 = v.iter().sum();
        assert!((sum - dataset.space().n_params() as f64).abs() < 1e-9);
        for x in norm.encode(cfg) {
            assert!((0.0..=1.0).contains(&x));
        }
    }
}

#[test]
fn dataset_lookup_agrees_with_model_recomputation() {
    // Dataset::evaluate is a lookup; the noise-free model times the noise
    // factor must reproduce it exactly.
    use hiperbot::perfsim::noise::lognormal_factor;
    let dataset = hypre::dataset(Scale::Target);
    let seed = hypre::SEED ^ Scale::Target.nodes() as u64;
    for i in (0..dataset.len()).step_by(411) {
        let clean = hypre::model(&dataset.config(i), dataset.space(), Scale::Target);
        let noisy = clean * lognormal_factor(&[seed, i as u64], 0.012);
        assert!(
            (noisy - dataset.objective(i)).abs() < 1e-12,
            "row {i}: {noisy} vs {}",
            dataset.objective(i)
        );
    }
}

#[test]
fn selection_runs_and_eval_metrics_compose() {
    use hiperbot::eval::metrics::{GoodSet, Recall};
    let dataset = hypre::dataset(Scale::Target);
    let recall = Recall::new(&dataset, GoodSet::Percentile(0.05));
    let run = RandomSelector.select(
        dataset.space(),
        &dataset.to_configs(),
        &|c| dataset.evaluate(c),
        200,
        1,
    );
    // Manual recount must match the metric.
    let hits = run
        .objectives
        .iter()
        .filter(|&&y| y <= recall.threshold())
        .count();
    let expected = hits as f64 / recall.total_good() as f64;
    assert!((recall.of_prefix(&run.objectives, 200) - expected).abs() < 1e-12);
}

#[test]
fn stats_seed_sequences_isolate_parallel_repetitions() {
    // The runner's determinism rests on SeedSequence: derive the same seeds
    // it would, in a different order, and check equality.
    use hiperbot::stats::SeedSequence;
    let mut a = SeedSequence::new(99);
    let forward: Vec<u64> = (0..10).map(|_| a.next_seed()).collect();
    let mut b = SeedSequence::new(99);
    let again: Vec<u64> = (0..10).map(|_| b.next_seed()).collect();
    assert_eq!(forward, again);
    let unique: std::collections::HashSet<_> = forward.iter().collect();
    assert_eq!(unique.len(), 10);
}
