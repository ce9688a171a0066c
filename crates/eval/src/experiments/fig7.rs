//! Fig. 7 — hyperparameter sensitivity (§V-E).
//!
//! Two sweeps over HiPerBOt's own hyperparameters, on all five datasets,
//! with the total sample budget fixed at 150:
//!
//! - (a) initial sample count ∈ {10, 20, 40, 60, 80, 100};
//! - (b) quantile threshold ∈ {0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}.
//!
//! The reported metric is `selected / exhaustive`: the best objective the
//! tuner found divided by the dataset's exhaustive best (1.0 = optimal).

use hiperbot_apps::Dataset;
use hiperbot_baselines::{ConfigSelector, HiPerBOtSelector};
use hiperbot_stats::{SeedSequence, Summary};
use rayon::prelude::*;
use serde::Serialize;

/// Fixed total budget of the sensitivity study (paper: 150).
pub const TOTAL_SAMPLES: usize = 150;

/// The paper's initial-sample grid.
pub const INIT_SAMPLES: [usize; 6] = [10, 20, 40, 60, 80, 100];

/// The paper's threshold grid.
pub const THRESHOLDS: [f64; 8] = [0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50];

/// One dataset's sensitivity curve for one hyperparameter.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivitySeries {
    /// Dataset name.
    pub dataset: String,
    /// Hyperparameter values swept.
    pub values: Vec<f64>,
    /// Mean `selected / exhaustive` ratio at each value.
    pub ratio_mean: Vec<f64>,
    /// Std of the ratio.
    pub ratio_std: Vec<f64>,
}

/// The full Fig. 7 report: panel (a) and panel (b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Report {
    /// Panel (a): sensitivity to the initial sample count.
    pub init_samples: Vec<SensitivitySeries>,
    /// Panel (b): sensitivity to the quantile threshold.
    pub threshold: Vec<SensitivitySeries>,
}

fn ratio_for(
    dataset: &Dataset,
    init_samples: usize,
    alpha: f64,
    repetitions: usize,
    seed: u64,
) -> Summary {
    let (_, exhaustive) = dataset.best();
    let selector = HiPerBOtSelector {
        init_samples,
        alpha,
        ..HiPerBOtSelector::default()
    };
    let mut seq = SeedSequence::new(seed);
    let seeds: Vec<u64> = (0..repetitions).map(|_| seq.next_seed()).collect();
    let pool = dataset.to_configs();
    let ratios: Vec<f64> = seeds
        .par_iter()
        .map(|&s| {
            let run = selector.select(
                dataset.space(),
                &pool,
                &|c| dataset.evaluate(c),
                TOTAL_SAMPLES,
                s,
            );
            run.best_within(TOTAL_SAMPLES) / exhaustive
        })
        .collect();
    Summary::of(&ratios)
}

/// Runs both panels over the given datasets.
pub fn run(datasets: &[&Dataset], repetitions: usize) -> Fig7Report {
    let init_samples = datasets
        .iter()
        .map(|d| {
            let mut mean = Vec::new();
            let mut std = Vec::new();
            for (i, &init) in INIT_SAMPLES.iter().enumerate() {
                let s = ratio_for(d, init, 0.20, repetitions, 0x71A + i as u64);
                mean.push(s.mean());
                std.push(s.sample_std_dev());
            }
            SensitivitySeries {
                dataset: d.name().to_string(),
                values: INIT_SAMPLES.iter().map(|&v| v as f64).collect(),
                ratio_mean: mean,
                ratio_std: std,
            }
        })
        .collect();

    let threshold = datasets
        .iter()
        .map(|d| {
            let mut mean = Vec::new();
            let mut std = Vec::new();
            for (i, &alpha) in THRESHOLDS.iter().enumerate() {
                let s = ratio_for(d, 20, alpha, repetitions, 0x71B + i as u64);
                mean.push(s.mean());
                std.push(s.sample_std_dev());
            }
            SensitivitySeries {
                dataset: d.name().to_string(),
                values: THRESHOLDS.to_vec(),
                ratio_mean: mean,
                ratio_std: std,
            }
        })
        .collect();

    Fig7Report {
        init_samples,
        threshold,
    }
}

impl Fig7Report {
    /// Text rendering: one block per panel, rows = hyperparameter values,
    /// columns = datasets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("## fig7-sensitivity — HiPerBOt hyperparameter sensitivity (paper Fig. 7)\n");
        out.push_str(
            "metric: best-selected / exhaustive-best (1.0 = optimal), total budget 150\n\n",
        );
        for (label, series) in [
            ("(a) initial sample size", &self.init_samples),
            ("(b) quantile threshold", &self.threshold),
        ] {
            out.push_str(&format!("### {label}\n{:>10}", "value"));
            for s in series.iter() {
                out.push_str(&format!(" | {:>20}", s.dataset));
            }
            out.push('\n');
            if let Some(first) = series.first() {
                for (vi, v) in first.values.iter().enumerate() {
                    out.push_str(&format!("{v:>10.2}"));
                    for s in series.iter() {
                        out.push_str(&format!(
                            " | {:>11.4} ±{:>6.4}",
                            s.ratio_mean[vi], s.ratio_std[vi]
                        ));
                    }
                    out.push('\n');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef, ParameterSpace};

    fn toy_dataset() -> Dataset {
        let vals: Vec<i64> = (0..14).collect();
        let space = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("y", Domain::discrete_ints(&vals)))
            .build()
            .unwrap();
        Dataset::generate("toy", "time", space, 5, 0.01, |c, _| {
            let x = c.value(0).index() as f64;
            let y = c.value(1).index() as f64;
            2.0 + 0.4 * (x - 9.0).powi(2) + 0.3 * (y - 3.0).powi(2)
        })
    }

    #[test]
    fn ratios_are_at_least_one() {
        let d = toy_dataset();
        let r = run(&[&d], 3);
        for series in r.init_samples.iter().chain(&r.threshold) {
            for &m in &series.ratio_mean {
                assert!(m >= 1.0 - 1e-9, "ratio {m} below 1");
            }
        }
    }

    #[test]
    fn shapes_match_the_grids() {
        let d = toy_dataset();
        let r = run(&[&d], 2);
        assert_eq!(r.init_samples[0].values.len(), INIT_SAMPLES.len());
        assert_eq!(r.threshold[0].values.len(), THRESHOLDS.len());
    }

    #[test]
    fn extreme_thresholds_are_no_better_than_moderate() {
        // The paper's finding: a sweet spot exists around 0.2; very large
        // thresholds dilute the good density.
        let d = toy_dataset();
        let r = run(&[&d], 6);
        let t = &r.threshold[0];
        let at = |alpha: f64| {
            let i = t
                .values
                .iter()
                .position(|&v| (v - alpha).abs() < 1e-9)
                .unwrap();
            t.ratio_mean[i]
        };
        assert!(
            at(0.2) <= at(0.5) + 0.02,
            "0.2: {}, 0.5: {}",
            at(0.2),
            at(0.5)
        );
    }

    #[test]
    fn text_rendering_mentions_every_dataset() {
        let d = toy_dataset();
        let r = run(&[&d], 2);
        let text = r.render_text();
        assert!(text.contains("toy"));
        assert!(text.contains("initial sample size"));
        assert!(text.contains("quantile threshold"));
    }
}
