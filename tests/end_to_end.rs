//! End-to-end integration: the full pipeline from application simulator to
//! tuned configuration, spanning every crate in the workspace.

use hiperbot::apps::{lulesh, Scale};
use hiperbot::core::{Tuner, TunerOptions};

#[test]
fn lulesh_pipeline_finds_a_near_optimal_flag_set() {
    let dataset = lulesh::dataset(Scale::Target);
    let (_, exhaustive) = dataset.best();

    let mut tuner = Tuner::new(
        dataset.space().clone(),
        TunerOptions::default().with_seed(1),
    );
    let best = tuner.run(150, |cfg| dataset.evaluate(cfg));

    // 150 of 4800 evaluations should land within 10% of the exhaustive best
    // (the paper's Fig. 5 shows convergence to ~3% by 446 samples).
    assert!(
        best.objective <= 1.10 * exhaustive,
        "best {} vs exhaustive {exhaustive}",
        best.objective
    );
}

#[test]
fn tuned_config_beats_the_compiler_default() {
    let dataset = lulesh::dataset(Scale::Target);
    let o3 = dataset.evaluate(&lulesh::default_o3_config(dataset.space()));

    let mut tuner = Tuner::new(
        dataset.space().clone(),
        TunerOptions::default().with_seed(2),
    );
    let best = tuner.run(100, |cfg| dataset.evaluate(cfg));

    // The paper's motivating LULESH observation: -O3 (6.02 s) is ~2.2x off
    // the best (2.72 s); even 100 samples should crush it.
    assert!(
        best.objective < 0.65 * o3,
        "tuned {} vs -O3 default {o3}",
        best.objective
    );
}

#[test]
fn history_prefix_metrics_are_consistent_with_the_run() {
    let dataset = lulesh::dataset(Scale::Target);
    let mut tuner = Tuner::new(
        dataset.space().clone(),
        TunerOptions::default().with_seed(3),
    );
    let best = tuner.run(80, |cfg| dataset.evaluate(cfg));

    let h = tuner.history();
    assert_eq!(h.len(), 80);
    assert_eq!(h.best_within(80), Some(best.objective));
    // every evaluated configuration is feasible and in the dataset
    for cfg in h.configs() {
        assert!(dataset.space().is_feasible(cfg));
        assert!(dataset.position(cfg).is_some());
    }
    // no duplicates (Ranking guarantee)
    let set: std::collections::HashSet<_> = h.configs().iter().cloned().collect();
    assert_eq!(set.len(), 80);
}

#[test]
fn importance_pipeline_identifies_lulesh_flag_structure() {
    use hiperbot::core::importance::parameter_importance;
    let dataset = lulesh::dataset(Scale::Target);
    let ranking = parameter_importance(
        dataset.space(),
        &dataset.to_configs(),
        dataset.objectives(),
        0.20,
    );
    let js_of = |name: &str| {
        ranking
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.js)
            .expect("parameter present")
    };
    // The flags the model makes decisive must outrank the near-noise ones
    // (the structure of paper Table I's LULESH row).
    assert!(js_of("builtin") > js_of("strategy"));
    assert!(js_of("malloc") > js_of("functions"));
    assert!(js_of("unroll") > js_of("noipo"));
}
