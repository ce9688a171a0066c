//! Ablation: alternative acquisition machinery on LULESH.
//!
//! Compares HiPerBOt's Ranking strategy against (a) the Proposal strategy
//! run on the same discrete space and (b) the classical GP-EI surrogate —
//! the design choices DESIGN.md calls out. Output: best-config and recall
//! at a 150-sample budget, mean ± std.

use hiperbot_apps::{lulesh, Scale};
use hiperbot_baselines::{ConfigSelector, GpEiSelector, HiPerBOtSelector, SelectionRun};
use hiperbot_core::{SelectionStrategy, Tuner, TunerOptions};
use hiperbot_eval::metrics::{GoodSet, Recall};
use hiperbot_stats::{SeedSequence, Summary};

const BUDGET: usize = 150;

fn main() {
    let reps: usize = std::env::var("HIPERBOT_ABLATION_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let dataset = lulesh::dataset(Scale::Target);
    let recall = Recall::new(&dataset, GoodSet::Percentile(0.02));
    let (_, exhaustive) = dataset.best();
    let pool = dataset.to_configs();

    let mut rows: Vec<(String, Summary, Summary)> = Vec::new();

    // (a) Ranking (the paper's choice for discrete spaces).
    rows.push(score("HiPerBOt/Ranking", reps, &recall, |seed| {
        HiPerBOtSelector::default().select(
            dataset.space(),
            &pool,
            &|c| dataset.evaluate(c),
            BUDGET,
            seed,
        )
    }));

    // (b) Proposal sampling on the same space.
    rows.push(score("HiPerBOt/Proposal", reps, &recall, |seed| {
        let mut tuner = Tuner::new(
            dataset.space().clone(),
            TunerOptions::default()
                .with_seed(seed)
                .with_strategy(SelectionStrategy::Proposal { candidates: 32 }),
        );
        tuner.run(BUDGET, |c| dataset.evaluate(c));
        SelectionRun {
            configs: tuner.history().configs().to_vec(),
            objectives: tuner.history().objectives().to_vec(),
            failures: tuner.history().n_failures(),
        }
    }));

    // (c) GP-EI.
    let gp = GpEiSelector {
        candidate_cap: 1000,
        ..GpEiSelector::default()
    };
    rows.push(score("GP-EI", reps, &recall, |seed| {
        gp.select(
            dataset.space(),
            &pool,
            &|c| dataset.evaluate(c),
            BUDGET,
            seed,
        )
    }));

    let mut out = String::new();
    out.push_str("## ablation-methods — acquisition machinery on LULESH\n");
    out.push_str(&format!(
        "budget {BUDGET}, dataset {} configs, exhaustive best {exhaustive:.4}, good configs {}\n\n",
        dataset.len(),
        recall.total_good()
    ));
    out.push_str(&format!(
        "{:<20} | {:>18} | {:>18}\n",
        "method", "best (mean±std)", "recall (mean±std)"
    ));
    for (name, best, rec) in &rows {
        out.push_str(&format!(
            "{name:<20} | {:>9.4} ±{:>6.4} | {:>9.4} ±{:>6.4}\n",
            best.mean(),
            best.sample_std_dev(),
            rec.mean(),
            rec.sample_std_dev()
        ));
    }
    let dir = hiperbot_bench::repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation-methods.txt"), &out).expect("write");
    println!("{out}");
}

fn score(
    name: &str,
    reps: usize,
    recall: &Recall,
    mut run: impl FnMut(u64) -> SelectionRun,
) -> (String, Summary, Summary) {
    let mut seq = SeedSequence::new(0xAB7A);
    let mut best = Summary::new();
    let mut rec = Summary::new();
    for _ in 0..reps {
        let r = run(seq.next_seed());
        best.push(r.best_within(BUDGET));
        rec.push(recall.of_prefix(&r.objectives, BUDGET));
    }
    (name.to_string(), best, rec)
}
