//! Integration tests pinning the paper's qualitative claims on the real
//! (simulated) application datasets — the "shape" EXPERIMENTS.md reports.

use hiperbot::apps::{kripke, openatom, Scale};
use hiperbot::baselines::{ConfigSelector, GeistSelector, HiPerBOtSelector, RandomSelector};
use hiperbot::eval::metrics::GoodSet;
use hiperbot::eval::runner::{run_trials, TrialConfig};

/// §V headline: HiPerBOt beats GEIST beats Random on Kripke exec, for both
/// metrics, at the paper's largest checkpoint.
#[test]
fn kripke_method_ordering_matches_the_paper() {
    let dataset = kripke::exec_dataset(Scale::Target);
    let cfg = TrialConfig::new(vec![192])
        .with_repetitions(6)
        .with_good(GoodSet::Percentile(0.02));

    let hb = &run_trials(&dataset, &HiPerBOtSelector::default(), &cfg)[0];
    let ge = &run_trials(&dataset, &GeistSelector::default(), &cfg)[0];
    let rn = &run_trials(&dataset, &RandomSelector, &cfg)[0];

    assert!(
        hb.best.mean() <= ge.best.mean() + 1e-9,
        "best: HiPerBOt {} vs GEIST {}",
        hb.best.mean(),
        ge.best.mean()
    );
    assert!(ge.best.mean() <= rn.best.mean() + 1e-9);
    assert!(hb.recall.mean() >= ge.recall.mean() - 1e-9);
    assert!(ge.recall.mean() >= rn.recall.mean());
    // Fig. 2b's magnitude claim: HiPerBOt finds at least 2x the good
    // configurations Random does.
    assert!(hb.recall.mean() >= 2.0 * rn.recall.mean());
}

/// §V-A: HiPerBOt locates the exact exhaustive best within ~12% of the
/// Kripke exec space (the paper: 96 of 1609 samples).
#[test]
fn kripke_finds_the_exhaustive_best_with_a_small_budget() {
    let dataset = kripke::exec_dataset(Scale::Target);
    let (_, exhaustive) = dataset.best();
    let hb = HiPerBOtSelector::default();
    let mut found = 0;
    let pool = dataset.to_configs();
    for seed in 0..5 {
        let run = hb.select(dataset.space(), &pool, &|c| dataset.evaluate(c), 192, seed);
        if (run.best_within(192) - exhaustive).abs() < 1e-12 {
            found += 1;
        }
    }
    assert!(found >= 3, "found the exact best in only {found}/5 runs");
}

/// §V-A (energy): the tuner beats the expert's power-level heuristic by a
/// wide margin using ~2% of the space.
#[test]
fn kripke_energy_beats_the_expert_heuristic() {
    let dataset = kripke::energy_dataset(Scale::Target);
    let expert = dataset.evaluate(&kripke::energy_expert_config(dataset.space()));
    let run = HiPerBOtSelector::default().select(
        dataset.space(),
        &dataset.to_configs(),
        &|c| dataset.evaluate(c),
        (dataset.len() as f64 * 0.022) as usize,
        7,
    );
    let best = run.best_within(run.len());
    assert!(
        best < 0.75 * expert,
        "tuned {best:.0} J vs expert {expert:.0} J"
    );
}

/// §V-D: OpenAtom — best found with ~3% of the space, beating the expert's
/// symmetric decomposition.
#[test]
fn openatom_beats_the_symmetric_expert() {
    let dataset = openatom::dataset(Scale::Target);
    let expert = dataset.evaluate(&openatom::expert_config(dataset.space()));
    let run = HiPerBOtSelector::default().select(
        dataset.space(),
        &dataset.to_configs(),
        &|c| dataset.evaluate(c),
        (dataset.len() as f64 * 0.03) as usize,
        11,
    );
    let best = run.best_within(run.len());
    let (_, exhaustive) = dataset.best();
    assert!(best < expert, "tuned {best} vs expert {expert}");
    assert!(
        best <= 1.05 * exhaustive,
        "tuned {best} vs exhaustive {exhaustive}"
    );
}

/// §VII: the transfer prior accelerates target-domain tuning under a tight
/// budget (the Fig. 8 setting, shrunk).
#[test]
fn transfer_prior_helps_on_kripke_energy() {
    use hiperbot::core::{TransferPrior, Tuner, TunerOptions};
    let source = kripke::energy_dataset(Scale::Source);
    let target = kripke::energy_dataset(Scale::Target);
    let prior = TransferPrior::from_source(
        source.space(),
        &source.to_configs(),
        source.objectives(),
        0.20,
        1.0,
    );

    let budget = 60;
    let mut wins = 0;
    for seed in 0..5u64 {
        let with = Tuner::new(
            target.space().clone(),
            TunerOptions::default()
                .with_seed(seed)
                .with_prior(prior.clone(), TransferPrior::default_weight()),
        )
        .run(budget, |c| target.evaluate(c))
        .objective;
        let without = Tuner::new(
            target.space().clone(),
            TunerOptions::default().with_seed(seed),
        )
        .run(budget, |c| target.evaluate(c))
        .objective;
        if with <= without {
            wins += 1;
        }
    }
    assert!(wins >= 3, "prior helped in only {wins}/5 runs");
}
