//! Ablation: distribution-difference measures for parameter importance.
//!
//! §VI of the paper picks JS divergence "for its symmetry" but notes other
//! measures exist. This binary ranks every dataset's parameters under JS,
//! Hellinger, and total-variation and reports whether the induced orderings
//! agree (Spearman of the score vectors) — i.e. whether the paper's choice
//! matters.

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Scale};
use hiperbot_core::importance::{importance_with_measure, DivergenceMeasure};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_stats::spearman;

fn main() {
    let datasets = [
        kripke::exec_dataset(Scale::Target),
        hypre::dataset(Scale::Target),
        lulesh::dataset(Scale::Target),
        openatom::dataset(Scale::Target),
    ];
    let measures = [
        DivergenceMeasure::JensenShannon,
        DivergenceMeasure::Hellinger,
        DivergenceMeasure::TotalVariation,
    ];

    let mut out = String::new();
    out.push_str("## ablation-importance — JS vs Hellinger vs total variation (paper §VI)\n\n");
    for d in &datasets {
        let surrogate = TpeSurrogate::fit(
            d.space(),
            &d.to_configs(),
            d.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        out.push_str(&format!("### {}\n", d.name()));
        let mut score_vectors: Vec<Vec<f64>> = Vec::new();
        for m in measures {
            let ranking = importance_with_measure(d.space(), &surrogate, m);
            out.push_str(&format!(
                "{:<16} {}\n",
                format!("{m:?}:"),
                ranking
                    .iter()
                    .map(|p| format!("{}({:.2})", p.name, p.js))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            // Align scores by parameter order in the space for correlation.
            let by_space_order: Vec<f64> = d
                .space()
                .params()
                .iter()
                .map(|def| {
                    ranking
                        .iter()
                        .find(|p| p.name == def.name())
                        .expect("present")
                        .js
                })
                .collect();
            score_vectors.push(by_space_order);
        }
        out.push_str(&format!(
            "Spearman(JS, Hellinger) = {:.3}, Spearman(JS, TV) = {:.3}\n\n",
            spearman(&score_vectors[0], &score_vectors[1]),
            spearman(&score_vectors[0], &score_vectors[2]),
        ));
    }
    let dir = hiperbot_bench::repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation-importance.txt"), &out).expect("write");
    println!("{out}");
}
