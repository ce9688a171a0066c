//! Property-style checks of the application models: structural invariants
//! every substitute dataset must satisfy for the paper's experiments to be
//! meaningful.

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};
use hiperbot_stats::pearson;

fn spread(dataset: &Dataset) -> f64 {
    let (_, best) = dataset.best();
    let worst = dataset
        .objectives()
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    worst / best
}

fn good_tail_fraction(dataset: &Dataset, within: f64) -> f64 {
    let (_, best) = dataset.best();
    dataset.count_within(best * within) as f64 / dataset.len() as f64
}

#[test]
fn every_dataset_has_a_wide_spread_and_thin_good_tail() {
    // The paper's premise: "only a few samples in the high-performing
    // bins". Thin tail = tuning is non-trivial; wide spread = tuning pays.
    for d in [
        kripke::exec_dataset(Scale::Target),
        hypre::dataset(Scale::Target),
        lulesh::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
    ] {
        assert!(spread(&d) > 1.15, "{}: spread {:.2}", d.name(), spread(&d));
        let tail = good_tail_fraction(&d, 1.05);
        assert!(
            tail < 0.05,
            "{}: {:.1}% of configs within 5% of best",
            d.name(),
            tail * 100.0
        );
    }
}

#[test]
fn datasets_are_exactly_reproducible() {
    let a = kripke::exec_dataset(Scale::Target);
    let b = kripke::exec_dataset(Scale::Target);
    assert_eq!(a.objectives(), b.objectives());
    assert_eq!(a.to_configs(), b.to_configs());
}

#[test]
fn source_and_target_scales_correlate_for_every_transfer_pair() {
    // Transfer learning's premise (§VII): the small study is predictive.
    for (src, tgt) in [
        (
            kripke::energy_dataset(Scale::Source),
            kripke::energy_dataset(Scale::Target),
        ),
        (
            hypre::transfer_dataset(Scale::Source),
            hypre::transfer_dataset(Scale::Target),
        ),
    ] {
        assert_eq!(src.len(), tgt.len(), "same feasible space at both scales");
        let x: Vec<f64> = src.objectives().iter().step_by(17).cloned().collect();
        let y: Vec<f64> = tgt.objectives().iter().step_by(17).cloned().collect();
        let r = pearson(&x, &y);
        assert!(r > 0.7, "{}→{}: correlation {r:.3}", src.name(), tgt.name());
        // …but not identical: there must be something left to learn.
        assert!(
            r < 0.999_99,
            "{}→{}: suspiciously perfect",
            src.name(),
            tgt.name()
        );
    }
}

#[test]
fn source_scale_runs_are_cheaper() {
    for (src, tgt) in [
        (
            kripke::exec_dataset(Scale::Source),
            kripke::exec_dataset(Scale::Target),
        ),
        (
            lulesh::dataset(Scale::Source),
            lulesh::dataset(Scale::Target),
        ),
    ] {
        let mean = |d: &Dataset| d.objectives().iter().sum::<f64>() / d.len() as f64;
        assert!(
            mean(&src) < mean(&tgt),
            "{}: source should be cheaper",
            src.name()
        );
    }
}

#[test]
fn paper_cardinalities_are_within_fifteen_percent() {
    // DESIGN.md §7: exact counts where clean, within ~15% otherwise.
    let cases: [(usize, usize, &str); 6] = [
        (
            kripke::exec_dataset(Scale::Target).len(),
            1609,
            "kripke-exec",
        ),
        (
            kripke::energy_dataset(Scale::Target).len(),
            17_815,
            "kripke-energy",
        ),
        (hypre::dataset(Scale::Target).len(), 4589, "hypre"),
        (lulesh::dataset(Scale::Target).len(), 4800, "lulesh"),
        (openatom::dataset(Scale::Target).len(), 8928, "openatom"),
        (
            hypre::transfer_dataset(Scale::Target).len(),
            57_313,
            "hypre-transfer",
        ),
    ];
    for (ours, paper, name) in cases {
        let rel = (ours as f64 - paper as f64).abs() / paper as f64;
        assert!(
            rel < 0.15,
            "{name}: {ours} vs paper {paper} ({:.0}% off)",
            rel * 100.0
        );
    }
}

#[test]
fn lulesh_is_exactly_4800() {
    assert_eq!(lulesh::dataset(Scale::Target).len(), 4800);
}

#[test]
fn all_anchor_values_hold_on_the_noisy_datasets() {
    // Noise is ±1–2%, so dataset-level anchors sit near the model-level
    // ones asserted in the unit tests.
    let kripke_exec = kripke::exec_dataset(Scale::Target);
    let (_, best) = kripke_exec.best();
    assert!((best - 8.43).abs() < 0.35, "kripke best {best}");

    let lulesh_d = lulesh::dataset(Scale::Target);
    let o3 = lulesh_d.evaluate(&lulesh::default_o3_config(lulesh_d.space()));
    assert!((o3 - 6.02).abs() < 0.25, "lulesh -O3 {o3}");

    let energy = kripke::energy_dataset(Scale::Target);
    let expert = energy.evaluate(&kripke::energy_expert_config(energy.space()));
    assert!((expert - 4742.0).abs() < 250.0, "energy expert {expert}");

    let oa = openatom::dataset(Scale::Target);
    let expert = oa.evaluate(&openatom::expert_config(oa.space()));
    assert!((expert - 1.6).abs() < 0.15, "openatom expert {expert}");
}

#[test]
fn objective_units_are_sane() {
    // Times in seconds (0.1 .. 1000), energies in joules (100 .. 100k).
    for d in [
        kripke::exec_dataset(Scale::Target),
        hypre::dataset(Scale::Target),
        lulesh::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
    ] {
        for &y in d.objectives().iter().step_by(101) {
            assert!((0.1..1000.0).contains(&y), "{}: {y}", d.name());
        }
    }
    for &y in kripke::energy_dataset(Scale::Target)
        .objectives()
        .iter()
        .step_by(101)
    {
        assert!((100.0..100_000.0).contains(&y), "energy {y}");
    }
}
