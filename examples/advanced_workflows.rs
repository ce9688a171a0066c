//! Advanced tuner workflows: stopping rules, batch suggestions, and
//! checkpoint/resume — the pieces a production tuning campaign needs
//! around the core loop.
//!
//! ```sh
//! cargo run --release --example advanced_workflows
//! ```

use hiperbot::apps::{lulesh, Scale};
use hiperbot::core::{StoppingRule, StoppingSet, Tuner, TunerCheckpoint, TunerOptions};

fn main() {
    let dataset = lulesh::dataset(Scale::Target);
    let space = dataset.space().clone();

    // --- 1. Stopping rules instead of a fixed budget. -------------------
    // Stop when 25 consecutive evaluations fail to improve by ≥ 0.5%, or
    // at 400 evaluations, whichever comes first.
    let rules = StoppingSet::new()
        .with(StoppingRule::MaxEvaluations(400))
        .with(StoppingRule::NoImprovement {
            window: 25,
            min_delta: 0.005,
        });
    let options = TunerOptions::default().with_seed(1);
    let mut tuner = Tuner::new(space.clone(), options.clone());
    let best = tuner.run_until(&rules, |cfg| dataset.evaluate(cfg));
    println!(
        "stagnation-stopped after {} evaluations: best {:.3} s",
        best.evaluations, best.objective
    );

    // --- 2. Batch suggestions for parallel evaluation. ------------------
    // Suppose four build/run slots are free: take the surrogate's top-4
    // unseen configurations and evaluate them together.
    let batch = tuner.suggest_batch(4);
    println!("\nnext batch of 4 to evaluate in parallel:");
    for cfg in &batch {
        println!("  {}", cfg.display_with(space.params()));
    }

    // --- 3. Checkpoint and resume. ---------------------------------------
    // The snapshot holds the history, the RNG position and the identity
    // (seed, options, space) it may only be resumed under.
    let checkpoint = tuner.checkpoint().to_json();
    println!(
        "\ncheckpoint: {} evaluations, {} bytes of JSON",
        tuner.history().len(),
        checkpoint.len()
    );

    let restored = TunerCheckpoint::from_json(&checkpoint).expect("deserialize");
    let mut resumed =
        Tuner::resume_from_checkpoint(space.clone(), options, &restored).expect("same identity");
    let more = resumed.run(best.evaluations + 20, |cfg| dataset.evaluate(cfg));
    println!(
        "resumed and ran 20 more evaluations: best now {:.3} s ({} total)",
        more.objective, more.evaluations
    );
}
