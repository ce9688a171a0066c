//! Ablation: alternative acquisition machinery on LULESH.
//!
//! Compares HiPerBOt's Ranking strategy against (a) the Proposal strategy
//! run on the same discrete space and (b) the classical GP-EI surrogate —
//! the design choices DESIGN.md calls out. Output: best-config and recall
//! at a 150-sample budget, mean ± std.

use hiperbot_apps::{lulesh, Scale};
use hiperbot_baselines::{ConfigSelector, GpEiSelector, HiPerBOtSelector};
use hiperbot_core::SelectionStrategy;
use hiperbot_eval::metrics::{GoodSet, Recall};
use hiperbot_eval::runner::{run_trials, TrialConfig};

const BUDGET: usize = 150;

fn main() {
    let reps: usize = std::env::var("HIPERBOT_ABLATION_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(10);
    let dataset = lulesh::dataset(Scale::Target);
    let recall = Recall::new(&dataset, GoodSet::Percentile(0.02));
    let (_, exhaustive) = dataset.best();
    let trial = TrialConfig::new(vec![BUDGET])
        .with_repetitions(reps)
        .with_seed(0xAB7A)
        .with_good(GoodSet::Percentile(0.02));

    let methods: [(&str, &dyn ConfigSelector); 3] = [
        // The paper's choice for discrete spaces.
        ("HiPerBOt/Ranking", &HiPerBOtSelector::default()),
        // Proposal sampling on the same space.
        (
            "HiPerBOt/Proposal",
            &HiPerBOtSelector {
                strategy: SelectionStrategy::Proposal { candidates: 32 },
                ..HiPerBOtSelector::default()
            },
        ),
        (
            "GP-EI",
            &GpEiSelector {
                candidate_cap: 1000,
                ..GpEiSelector::default()
            },
        ),
    ];

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
    for (name, method) in methods {
        let stats = &run_trials(&dataset, method, &trial)[0];
        out.push_str(&format!(
            "{name:<20} | {:>9.4} ±{:>6.4} | {:>9.4} ±{:>6.4}\n",
            stats.best.mean(),
            stats.best.sample_std_dev(),
            stats.recall.mean(),
            stats.recall.sample_std_dev()
        ));
    }
    let dir = hiperbot_bench::repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation-methods.txt"), &out).expect("write");
    println!("{out}");
}
