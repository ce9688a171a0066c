//! Parameter-importance analysis (paper §VI, Table I).
//!
//! Ranks each application's parameters by the Jensen–Shannon divergence
//! between their good- and bad-configuration densities — once from a cheap
//! 10 % tuning run, once from the full dataset — and shows the cheap run
//! already identifies what matters.
//!
//! ```sh
//! cargo run --release --example importance_analysis
//! ```

use hiperbot::apps::{lulesh, openatom, Scale};
use hiperbot::core::importance::{importance_from_surrogate, parameter_importance};
use hiperbot::core::{Tuner, TunerOptions};

fn main() {
    for dataset in [
        lulesh::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
    ] {
        println!("=== {} ({} configs) ===", dataset.name(), dataset.len());

        // Cheap column: 10% of the space, selected by the tuner itself.
        let budget = dataset.len() / 10;
        let mut tuner = Tuner::new(
            dataset.space().clone(),
            TunerOptions::default().with_seed(3),
        );
        tuner.run(budget, |c| dataset.evaluate(c));
        let partial = importance_from_surrogate(dataset.space(), &tuner.surrogate());

        // Ground truth: every sample.
        let full = parameter_importance(
            dataset.space(),
            &dataset.to_configs(),
            dataset.objectives(),
            0.20,
        );

        println!("10% samples:");
        for p in &partial {
            println!("  {:<12} JS = {:.3}", p.name, p.js);
        }
        println!("all samples:");
        for p in &full {
            println!("  {:<12} JS = {:.3}", p.name, p.js);
        }
        println!(
            "top parameter agreement: {} (partial) vs {} (full)\n",
            partial[0].name, full[0].name
        );
    }
}
