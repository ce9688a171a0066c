//! Small-scale smoke runs of every experiment module against the real
//! application datasets — the full repro binaries shrunk to test size, so
//! a regression anywhere in the pipeline (apps → baselines → runner →
//! report → plot) fails here first.

use hiperbot_apps::{lulesh, openatom, Scale};
use hiperbot_eval::experiments::config_selection::{run as run_figure, FigureSpec};
use hiperbot_eval::experiments::{fig7, fig8, table1};
use hiperbot_eval::metrics::GoodSet;
use hiperbot_eval::plot::figure_charts;

#[test]
fn config_selection_pipeline_end_to_end_on_lulesh() {
    let dataset = lulesh::dataset(Scale::Target);
    let spec = FigureSpec {
        id: "smoke-lulesh".into(),
        title: "smoke".into(),
        checkpoints: vec![30, 60],
        good: GoodSet::Percentile(0.02),
        repetitions: 3,
    };
    let report = run_figure(&dataset, &spec);
    assert_eq!(report.series.len(), 3);
    assert_eq!(report.dataset_size, 4800);

    // Text, JSON, and SVG renderings all succeed and carry the series.
    let text = report.render_text();
    assert!(text.contains("HiPerBOt") && text.contains("GEIST"));
    let json = report.to_json();
    assert!(json.contains("\"smoke-lulesh\""));
    let charts = figure_charts(&report);
    assert_eq!(charts.len(), 2);
    for (_, svg) in &charts {
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }

    // The qualitative ordering holds even at smoke scale.
    let best_at_end: Vec<f64> = report
        .series
        .iter()
        .map(|s| s.points.last().unwrap().best_mean)
        .collect();
    assert!(
        best_at_end[2] <= best_at_end[0] + 1e-9,
        "HiPerBOt vs Random"
    );
}

#[test]
fn sensitivity_pipeline_on_openatom() {
    let dataset = openatom::dataset(Scale::Target);
    let report = fig7::run(&[&dataset], 2);
    assert_eq!(report.init_samples.len(), 1);
    assert_eq!(report.threshold.len(), 1);
    for series in report.init_samples.iter().chain(&report.threshold) {
        for &m in &series.ratio_mean {
            assert!((1.0 - 1e-9..2.0).contains(&m), "ratio {m}");
        }
    }
    assert!(report.render_text().contains("openatom"));
}

#[test]
fn importance_pipeline_on_lulesh() {
    let dataset = lulesh::dataset(Scale::Target);
    let report = table1::run(&[&dataset], 0.05, 3);
    let row = &report.rows[0];
    assert_eq!(row.partial.len(), 8);
    assert_eq!(row.full.len(), 8);
    // ground truth: builtin among the top two of the full column
    assert!(
        row.full.iter().take(2).any(|(n, _)| n == "builtin"),
        "{:?}",
        row.full
    );
}

#[test]
fn transfer_pipeline_on_lulesh_scales() {
    // lulesh has no dedicated transfer study in the paper; its two scales
    // still exercise the fig8 machinery end to end.
    let src = lulesh::dataset(Scale::Source);
    let tgt = lulesh::dataset(Scale::Target);
    let report = fig8::run("smoke-transfer", &src, &tgt, 1, 5);
    assert_eq!(report.budget, tgt.len() / 100 + 100);
    assert_eq!(report.series.len(), 2);
    for s in &report.series {
        // both methods find a healthy share of the good configs
        assert!(s.recall_mean[0] > 0.3, "{}: {:?}", s.method, s.recall_mean);
    }
    assert!(report.render_text().contains("PerfNet"));
}
