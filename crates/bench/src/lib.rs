//! Reproduction harness: one binary per paper figure/table, plus shared
//! plumbing.
//!
//! Every `repro` function regenerates one artifact of the paper's
//! evaluation section, prints the same rows/series the paper reports, and
//! writes `results/<id>.{txt,json}` at the workspace root. `repro_all`
//! chains them. Repetition counts honor `HIPERBOT_REPS`
//! (figures 2–6; default 50 as in the paper), `HIPERBOT_SENS_REPS`
//! (fig. 7; default 20) and `HIPERBOT_TRANSFER_REPS` (fig. 8; default 10).

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};
use hiperbot_eval::experiments::config_selection::{self, checkpoints, FigureSpec};
use hiperbot_eval::experiments::{fig1, fig7, fig8, table1};
use hiperbot_eval::metrics::GoodSet;
use hiperbot_eval::report::write_report;
use hiperbot_eval::runner::repetitions_from_env;
use std::path::{Path, PathBuf};

/// Workspace root (where `results/` is written).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the root")
        .to_path_buf()
}

/// Host identity stamped into every `BENCH_*.json`, so speedup and
/// latency numbers are interpretable across machines and CI runners.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HostMeta {
    /// Logical CPU count visible to this process.
    pub logical_cores: usize,
    /// `rustc --version` of the toolchain that built the bench.
    pub rustc: String,
    /// Threads a repetition fan-out of the figure runner would use in
    /// this process: `RAYON_NUM_THREADS` when set, `logical_cores`
    /// otherwise. Nothing else in the workspace runs rayon code.
    pub rayon_threads: usize,
}

/// Collects the host metadata for a bench report.
pub fn host_meta() -> HostMeta {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    HostMeta {
        logical_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rustc,
        rayon_threads: rayon::current_num_threads(),
    }
}

/// The shared `BENCH_*.json` writer: serializes `report` (whose struct
/// carries a [`HostMeta`] field) pretty-printed to `<repo root>/<name>`
/// and echoes the path.
pub fn write_bench_json<T: serde::Serialize>(name: &str, report: &T) {
    let path = repo_root().join(name);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(report).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {}", path.display());
}

fn env_reps(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(default)
}

fn write_text(id: &str, text: &str, json: &str) {
    let dir = repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join(format!("{id}.txt")), text).expect("write txt");
    std::fs::write(dir.join(format!("{id}.json")), json).expect("write json");
}

/// Fig. 1: the toy example.
pub fn repro_fig1() {
    let report = fig1::run(2020);
    let text = report.render_text();
    write_text(
        "fig1-toy",
        &text,
        &serde_json::to_string_pretty(&report).expect("serialize"),
    );
    println!("{text}");
}

fn repro_config_selection(dataset: &Dataset, spec: FigureSpec) {
    eprintln!(
        "[{}] running {} reps on {} ({} configs)…",
        spec.id,
        spec.repetitions,
        dataset.name(),
        dataset.len()
    );
    let report = config_selection::run(dataset, &spec);
    let text = write_report(&repo_root(), &report).expect("write report");
    println!("{text}");
}

/// Fig. 2: Kripke execution time.
pub fn repro_fig2() {
    let dataset = kripke::exec_dataset(Scale::Target);
    repro_config_selection(
        &dataset,
        FigureSpec {
            id: "fig2-kripke-exec".into(),
            title: "Kripke execution time (paper Fig. 2; best 8.43 s, expert 15.2 s)".into(),
            checkpoints: checkpoints::FIG2.to_vec(),
            good: GoodSet::Percentile(0.02),
            repetitions: repetitions_from_env(),
        },
    );
}

/// Fig. 3: Kripke energy under power caps.
pub fn repro_fig3() {
    let dataset = kripke::energy_dataset(Scale::Target);
    repro_config_selection(
        &dataset,
        FigureSpec {
            id: "fig3-kripke-energy".into(),
            title: "Kripke energy (paper Fig. 3; expert 4742 J)".into(),
            checkpoints: checkpoints::FIG3.to_vec(),
            // The paper's energy study uses a tolerance-style good set with
            // ~1000 qualifying configurations (recall plateaus at ~0.3 with
            // 439 samples).
            good: GoodSet::Tolerance(0.10),
            repetitions: repetitions_from_env(),
        },
    );
}

/// Fig. 4: HYPRE.
pub fn repro_fig4() {
    let dataset = hypre::dataset(Scale::Target);
    repro_config_selection(
        &dataset,
        FigureSpec {
            id: "fig4-hypre".into(),
            title: "HYPRE new_ij (paper Fig. 4)".into(),
            checkpoints: checkpoints::FIG4.to_vec(),
            good: GoodSet::Percentile(0.02),
            repetitions: repetitions_from_env(),
        },
    );
}

/// Fig. 5: LULESH.
pub fn repro_fig5() {
    let dataset = lulesh::dataset(Scale::Target);
    repro_config_selection(
        &dataset,
        FigureSpec {
            id: "fig5-lulesh".into(),
            title: "LULESH compiler flags (paper Fig. 5; -O3 6.02 s, best 2.72 s)".into(),
            checkpoints: checkpoints::FIG5.to_vec(),
            good: GoodSet::Percentile(0.02),
            repetitions: repetitions_from_env(),
        },
    );
}

/// Fig. 6: OpenAtom.
pub fn repro_fig6() {
    let dataset = openatom::dataset(Scale::Target);
    repro_config_selection(
        &dataset,
        FigureSpec {
            id: "fig6-openatom".into(),
            title: "OpenAtom decomposition (paper Fig. 6; expert 1.6 s, best 1.24 s)".into(),
            checkpoints: checkpoints::FIG6.to_vec(),
            good: GoodSet::Percentile(0.02),
            repetitions: repetitions_from_env(),
        },
    );
}

/// Fig. 7: hyperparameter sensitivity over all five datasets.
pub fn repro_fig7() {
    let reps = env_reps("HIPERBOT_SENS_REPS", 20);
    eprintln!("[fig7] generating the five datasets…");
    let ds = [
        kripke::exec_dataset(Scale::Target),
        lulesh::dataset(Scale::Target),
        hypre::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
        kripke::energy_dataset(Scale::Target),
    ];
    let refs: Vec<&Dataset> = ds.iter().collect();
    eprintln!("[fig7] sweeping hyperparameters ({reps} reps per point)…");
    let report = fig7::run(&refs, reps);
    let text = report.render_text();
    write_text(
        "fig7-sensitivity",
        &text,
        &serde_json::to_string_pretty(&report).expect("serialize"),
    );
    println!("{text}");
}

/// Table I: JS-divergence parameter importance.
pub fn repro_table1() {
    eprintln!("[table1] generating the five datasets…");
    let ds = [
        hypre::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
        kripke::exec_dataset(Scale::Target),
        kripke::energy_dataset(Scale::Target),
        lulesh::dataset(Scale::Target),
    ];
    let refs: Vec<&Dataset> = ds.iter().collect();
    let report = table1::run(&refs, 0.10, 0x7AB1E1);
    let text = report.render_text();
    write_text(
        "table1-importance",
        &text,
        &serde_json::to_string_pretty(&report).expect("serialize"),
    );
    println!("{text}");
}

/// Fig. 8: transfer learning (both panels).
pub fn repro_fig8() {
    let reps = env_reps("HIPERBOT_TRANSFER_REPS", 10);

    eprintln!("[fig8a] Kripke: generating source/target sweeps…");
    let src = kripke::energy_dataset(Scale::Source);
    let tgt = kripke::energy_dataset(Scale::Target);
    let a = fig8::run("fig8a-kripke", &src, &tgt, reps, 0xF18A);
    let text_a = a.render_text();
    write_text(
        "fig8a-kripke",
        &text_a,
        &serde_json::to_string_pretty(&a).expect("serialize"),
    );
    println!("{text_a}");

    eprintln!("[fig8b] HYPRE: generating source/target sweeps (62k configs each)…");
    let src = hypre::transfer_dataset(Scale::Source);
    let tgt = hypre::transfer_dataset(Scale::Target);
    let b = fig8::run("fig8b-hypre", &src, &tgt, reps, 0xF18B);
    let text_b = b.render_text();
    write_text(
        "fig8b-hypre",
        &text_b,
        &serde_json::to_string_pretty(&b).expect("serialize"),
    );
    println!("{text_b}");
}

/// One row of the transfer-weight ablation report.
#[derive(Debug, Clone, serde::Serialize)]
struct AblationRow {
    w: f64,
    recall_mean: f64,
    recall_std: f64,
    best_mean: f64,
    best_std: f64,
}

/// The transfer-weight ablation's machine-readable artifact.
#[derive(Debug, Clone, serde::Serialize)]
struct AblationReport {
    id: String,
    dataset: String,
    budget: usize,
    tolerance: f64,
    total_good: usize,
    repetitions: usize,
    rows: Vec<AblationRow>,
}

/// HiPerBOt with an optional transfer prior, wrapped as a
/// [`ConfigSelector`](hiperbot_baselines::ConfigSelector) so the
/// transfer-weight ablation runs through the same repeated-trial runner
/// as every figure (parallel repetitions, derived seeds, checkpointed
/// metrics) instead of a hand-rolled loop.
struct TransferWeightSelector {
    prior: hiperbot_core::TransferPrior,
    /// Prior weight `w`; `0.0` disables the prior entirely.
    weight: f64,
}

impl hiperbot_baselines::ConfigSelector for TransferWeightSelector {
    fn name(&self) -> &str {
        "HiPerBOt+transfer"
    }

    fn select(
        &self,
        space: &hiperbot_space::ParameterSpace,
        _pool: &[hiperbot_space::Configuration],
        objective: &(dyn Fn(&hiperbot_space::Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> hiperbot_baselines::SelectionRun {
        use hiperbot_core::{Tuner, TunerOptions};
        let mut opts = TunerOptions::default().with_seed(seed);
        if self.weight > 0.0 {
            opts = opts.with_prior(self.prior.clone(), self.weight);
        }
        let mut tuner = Tuner::new(space.clone(), opts);
        tuner.run(budget, |c| objective(c));
        hiperbot_baselines::SelectionRun {
            configs: tuner.history().configs().to_vec(),
            objectives: tuner.history().objectives().to_vec(),
            failures: tuner.history().n_failures(),
        }
    }
}

/// Ablation: transfer-prior weight sweep (design-choice study from
/// DESIGN.md — how strongly should the source study shape the target
/// densities?). Kripke energy, source scale → target scale.
pub fn repro_ablation_transfer_weight() {
    use hiperbot_core::TransferPrior;
    use hiperbot_eval::metrics::{GoodSet, Recall};
    use hiperbot_eval::runner::{run_trials, TrialConfig};

    let reps = env_reps("HIPERBOT_TRANSFER_REPS", 10);
    let src = kripke::energy_dataset(Scale::Source);
    let tgt = kripke::energy_dataset(Scale::Target);
    let prior =
        TransferPrior::from_source(src.space(), &src.to_configs(), src.objectives(), 0.20, 1.0);
    let budget = fig8::budget_for(&tgt);
    let good = GoodSet::Tolerance(0.10);
    let total_good = Recall::new(&tgt, good).total_good();

    let mut out = String::new();
    out.push_str("## ablation-transfer-weight — prior weight w sweep (Kripke energy)\n");
    out.push_str(&format!(
        "budget {budget}, tolerance 10%, good configs {total_good}, {reps} reps\n\n\
         {:>8} | {:>10} | {:>10} | {:>10} | {:>10}\n",
        "w", "recall", "recall sd", "best", "best sd"
    ));
    let mut rows = Vec::new();
    for &w in &[0.0, 0.05, 0.1, 0.3, 1.0, 3.0] {
        let selector = TransferWeightSelector {
            prior: prior.clone(),
            weight: w,
        };
        let trial = TrialConfig::new(vec![budget])
            .with_repetitions(reps)
            .with_good(good)
            .with_seed(0xAB1A ^ (w * 1000.0) as u64);
        let stats = run_trials(&tgt, &selector, &trial);
        let s = &stats[0];
        out.push_str(&format!(
            "{w:>8.2} | {:>10.4} | {:>10.4} | {:>10.2} | {:>10.2}\n",
            s.recall.mean(),
            s.recall.sample_std_dev(),
            s.best.mean(),
            s.best.sample_std_dev()
        ));
        rows.push(AblationRow {
            w,
            recall_mean: s.recall.mean(),
            recall_std: s.recall.sample_std_dev(),
            best_mean: s.best.mean(),
            best_std: s.best.sample_std_dev(),
        });
    }
    let report = AblationReport {
        id: "ablation-transfer-weight".into(),
        dataset: tgt.name().to_string(),
        budget,
        tolerance: 0.10,
        total_good,
        repetitions: reps,
        rows,
    };
    write_text(
        "ablation-transfer-weight",
        &out,
        &serde_json::to_string_pretty(&report).expect("serialize"),
    );
    println!("{out}");
}

/// Everything, in paper order.
pub fn repro_all() {
    repro_fig1();
    repro_fig2();
    repro_fig3();
    repro_fig4();
    repro_fig5();
    repro_fig6();
    repro_fig7();
    repro_table1();
    repro_fig8();
    repro_ablation_transfer_weight();
    eprintln!(
        "all reports written to {}",
        repo_root().join("results").display()
    );
}
