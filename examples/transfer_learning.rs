//! Transfer learning: tune at large scale using a small-scale study
//! (paper §VII, Fig. 8a).
//!
//! The entire 16-node Kripke power-cap sweep becomes a density prior for
//! tuning the 64-node target with a tight evaluation budget.
//!
//! ```sh
//! cargo run --release --example transfer_learning
//! ```

use hiperbot::apps::{kripke, Scale};
use hiperbot::core::{TransferPrior, Tuner, TunerOptions};

fn main() {
    println!("generating source (16-node) and target (64-node) sweeps…");
    let source = kripke::energy_dataset(Scale::Source);
    let target = kripke::energy_dataset(Scale::Target);

    // Paper budget rule: 1% of the target space + 100 evaluations.
    let budget = target.len() / 100 + 100;
    let (_, exhaustive) = target.best();
    println!(
        "source: {} configs (free), target: {} configs, budget: {budget}",
        source.len(),
        target.len()
    );

    // Prior from the full source study (eqs. 9–10).
    let prior = TransferPrior::from_source(
        source.space(),
        &source.to_configs(),
        source.objectives(),
        0.20,
        1.0,
    );

    // With the prior.
    let mut with = Tuner::new(
        target.space().clone(),
        TunerOptions::default()
            .with_seed(5)
            .with_prior(prior, TransferPrior::default_weight()),
    );
    let best_with = with.run(budget, |c| target.evaluate(c));

    // Without (plain HiPerBOt on the target).
    let mut without = Tuner::new(target.space().clone(), TunerOptions::default().with_seed(5));
    let best_without = without.run(budget, |c| target.evaluate(c));

    println!("\nexhaustive best on target:  {exhaustive:.0} J");
    println!(
        "HiPerBOt + source prior:    {:.0} J  ({:+.1}% vs exhaustive)",
        best_with.objective,
        100.0 * (best_with.objective / exhaustive - 1.0)
    );
    println!(
        "HiPerBOt without prior:     {:.0} J  ({:+.1}% vs exhaustive)",
        best_without.objective,
        100.0 * (best_without.objective / exhaustive - 1.0)
    );

    // How many top-10%-tolerance configs did each find?
    let threshold = exhaustive * 1.10;
    let hits = |t: &Tuner| {
        t.history()
            .objectives()
            .iter()
            .filter(|&&y| y <= threshold)
            .count()
    };
    println!(
        "\ngood (≤ best+10%) configs found: with prior {}, without {}",
        hits(&with),
        hits(&without)
    );
}
