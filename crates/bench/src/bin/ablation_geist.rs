//! Ablation: GEIST hyperparameter sensitivity.
//!
//! Our GEIST implementation (CAMLP over the Hamming-1 configuration graph)
//! has two knobs the original paper under-specifies: the propagation weight
//! β and the per-round selection batch size. This sweep shows the baseline
//! was compared *fairly* — the settings used in figs. 2–6 (β = 0.1,
//! batch = 10) sit at or near GEIST's own optimum on our datasets.

use hiperbot_apps::{kripke, Scale};
use hiperbot_baselines::{ConfigSelector, GeistSelector};
use hiperbot_eval::metrics::{GoodSet, Recall};
use hiperbot_stats::{SeedSequence, Summary};

const BUDGET: usize = 192;

fn main() {
    let reps: usize = std::env::var("HIPERBOT_ABLATION_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let dataset = kripke::exec_dataset(Scale::Target);
    let recall = Recall::new(&dataset, GoodSet::Percentile(0.02));
    let pool = dataset.to_configs();

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
            let mut seq = SeedSequence::new(0x6E15 ^ (beta * 1000.0) as u64 ^ (batch as u64) << 20);
            let mut best = Summary::new();
            let mut rec = Summary::new();
            for _ in 0..reps {
                let run = geist.select(
                    dataset.space(),
                    &pool,
                    &|c| dataset.evaluate(c),
                    BUDGET,
                    seq.next_seed(),
                );
                best.push(run.best_within(BUDGET));
                rec.push(recall.of_prefix(&run.objectives, BUDGET));
            }
            out.push_str(&format!(
                "{beta:>6.2} | {batch:>6} | {:>9.4} ±{:>6.4} | {:>9.4} ±{:>6.4}\n",
                best.mean(),
                best.sample_std_dev(),
                rec.mean(),
                rec.sample_std_dev()
            ));
        }
    }
    let dir = hiperbot_bench::repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation-geist.txt"), &out).expect("write");
    println!("{out}");
}
