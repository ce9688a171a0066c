//! HYPRE `new_ij`: algebraic-multigrid solver tuning (paper §V-B).
//!
//! The benchmark solves a 3-D Laplacian with BoomerAMG, optionally wrapped
//! in a Krylov accelerator. The tunables trade **convergence rate** against
//! **per-iteration cost**:
//!
//! - **Solver** — plain AMG vs. AMG-preconditioned Krylov methods. Krylov
//!   wrappers cut the iteration count but add matvecs and latency-bound
//!   global dot products.
//! - **Smoother** — relaxation scheme: Jacobi parallelizes perfectly but
//!   converges slowest; hybrid Gauss–Seidel converges fast but its forward
//!   dependence throttles OpenMP scaling.
//! - **MU** — cycle shape (V/W/F): deeper cycles converge in fewer
//!   iterations at a higher cost per iteration.
//! - **PMX** — interpolation truncation: more interpolation points improve
//!   the coarse-grid correction but densify the operators.
//! - **Ranks / OMP** — as in Kripke; the paper's importance analysis
//!   (Table I) finds these two dominate, with smoother/MU/PMX nearly
//!   irrelevant — the model's coefficients reflect that.
//!
//! Calibration anchors: best ≈ 3.45 s, best-found curves spanning
//! 3.5–4.75 s over 41–441 samples (paper Fig. 4), 4589 measured configs
//! (this model: 5184). The transfer-learning study (§VII-B) uses the
//! extended space with coarsening/interpolation (paper: 57 313 source /
//! 50 395 target configs; this model: 62 208).

use crate::dataset::Dataset;
use crate::Scale;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};

/// Deterministic dataset seed.
pub const SEED: u64 = 0x4859_5052_4500_0001; // "HYPRE" 1

/// Run-to-run noise sigma.
const NOISE_SIGMA: f64 = 0.012;

/// Convergence tolerance the iteration count is derived from.
const TOLERANCE_LN: f64 = -18.4; // ln(1e-8)

/// Time calibration: one fine-grid work unit in seconds at 36 cores.
const TIME_SCALE: f64 = 0.04074;

/// Parameter order in the base space.
pub mod param {
    /// Krylov wrapper / plain AMG.
    pub const SOLVER: usize = 0;
    /// Relaxation scheme.
    pub const SMOOTHER: usize = 1;
    /// Cycle shape (1 = V, 2 = W, 3 = F-ish).
    pub const MU: usize = 2;
    /// Interpolation truncation (max elements per row).
    pub const PMX: usize = 3;
    /// MPI ranks per node.
    pub const RANKS: usize = 4;
    /// OpenMP threads per rank.
    pub const OMP: usize = 5;
    /// Coarsening scheme (transfer space only).
    pub const COARSEN: usize = 6;
    /// Interpolation operator (transfer space only).
    pub const INTERP: usize = 7;
}

/// The solvers, each with its Krylov acceleration (the exponent applied to
/// the cycle convergence factor) and the relative cost of one outer
/// iteration (matvecs + dot products).
const SOLVERS: [(&str, f64, f64); 6] = [
    ("AMG", 1.00, 1.00),
    ("PCG", 1.55, 1.12),
    ("GMRES", 1.60, 1.18),
    ("FlexGMRES", 1.58, 1.22),
    ("BiCGSTAB", 1.72, 1.35),
    ("CGNR", 1.05, 1.30), // normal equations square the condition number
];
/// The smoothers, each with its per-V-cycle convergence factor before
/// solver/cycle acceleration (smaller is faster; the spread is deliberately
/// small: the paper's importance analysis finds the smoother nearly
/// irrelevant on this benchmark) and its OpenMP scaling-defect coefficient
/// (forward dependences serialize: the cost grows by this much per
/// doubling of the threads).
const SMOOTHERS: [(&str, f64, f64); 4] = [
    ("Jacobi", 0.470, 0.000),
    ("HybridGS", 0.415, 0.018),
    ("L1GS", 0.440, 0.006),
    ("Chebyshev", 0.430, 0.004),
];
/// The values of `Ranks` and of `OMP`.
const CORE_COUNTS: [i64; 6] = [1, 2, 4, 9, 18, 36];
/// The coarsening schemes, each with its operator-complexity factor.
const COARSENINGS: [(&str, f64); 4] = [
    ("Falgout", 1.00),
    ("HMIS", 0.94),
    ("PMIS", 0.96),
    ("CLJP", 1.10),
];
/// The interpolation operators, each with its factor.
const INTERPS: [(&str, f64); 3] = [("classical", 1.00), ("ext+i", 0.97), ("direct", 1.05)];

fn base_params() -> Vec<ParamDef> {
    vec![
        ParamDef::new("Solver", Domain::categorical(&SOLVERS.map(|s| s.0))),
        ParamDef::new("Smoother", Domain::categorical(&SMOOTHERS.map(|s| s.0))),
        ParamDef::new("MU", Domain::discrete_ints(&[1, 2, 3])),
        ParamDef::new("PMX", Domain::discrete_ints(&[4, 6, 8, 12])),
        ParamDef::new("Ranks", Domain::discrete_ints(&CORE_COUNTS)),
        ParamDef::new("OMP", Domain::discrete_ints(&CORE_COUNTS)),
    ]
}

/// The cores constraint, declared on the parameters through `OMP`: in the
/// transfer space a walk tests it once per such prefix and skips the
/// Coarsen × Interp members below a failing one.
fn core_constraint(b: hiperbot_space::SpaceBuilder) -> hiperbot_space::SpaceBuilder {
    b.constraint_within("4 <= ranks*omp <= 36", param::OMP + 1, |c, d| {
        let cores = c.numeric_value(param::RANKS, &d[param::RANKS])
            * c.numeric_value(param::OMP, &d[param::OMP]);
        (4.0..=36.0).contains(&cores)
    })
}

/// The configuration-selection space (paper: 4589 configs; model: 5184).
pub fn space() -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for p in base_params() {
        b = b.param(p);
    }
    core_constraint(b).build().expect("valid hypre space")
}

/// The extended space for transfer learning (§VII-B): adds coarsening and
/// interpolation (paper: 57 313 / 50 395 configs; model: 62 208).
pub fn transfer_space() -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for p in base_params() {
        b = b.param(p);
    }
    b = b
        .param(ParamDef::new(
            "Coarsen",
            Domain::categorical(&COARSENINGS.map(|c| c.0)),
        ))
        .param(ParamDef::new(
            "Interp",
            Domain::categorical(&INTERPS.map(|i| i.0)),
        ));
    core_constraint(b)
        .build()
        .expect("valid hypre transfer space")
}

/// What a (Solver, Smoother, MU, PMX) prefix decides.
#[derive(Debug, Clone, Copy)]
struct SolverTerms {
    /// Outer iterations to reach the tolerance.
    iters: f64,
    /// Fine-grid work units per cycle.
    cycle_cost: f64,
    /// Relative cost of one outer iteration.
    iter_cost: f64,
    /// Whether a Krylov method wraps the cycle (it adds dot-product latency).
    krylov: bool,
    /// The smoother's OpenMP scaling-defect coefficient.
    omp_coeff: f64,
}

/// The convergence and per-cycle terms. Reads Solver, Smoother, MU and PMX
/// only.
fn solver_terms(cfg: &Configuration, space: &ParameterSpace) -> SolverTerms {
    let defs = space.params();
    let solver = cfg.value(param::SOLVER).index();
    let smoother = cfg.value(param::SMOOTHER).index();
    let mu = cfg.numeric_value(param::MU, &defs[param::MU]);
    let pmx = cfg.numeric_value(param::PMX, &defs[param::PMX]);

    let (_, mut rho, omp_coeff) = SMOOTHERS[smoother];
    let (_, accel, iter_cost) = SOLVERS[solver];

    // --- Convergence: how many outer iterations to reach tolerance. ---
    // Deeper cycles multiply the smoothing effect; their per-iteration
    // cost (the `grids` factor below) rises almost exactly in step, making
    // the cycle shape a near-wash — the paper's Table I finds MU
    // irrelevant on this benchmark.
    let mu_accel = 1.0 + 0.35 * (mu - 1.0).min(1.0) + 0.15 * (mu - 2.0).max(0.0);
    rho = rho.powf(mu_accel);
    // Richer interpolation improves the coarse correction, mildly.
    rho = rho.powf(1.0 + 0.015 * (pmx - 4.0));
    let rho_eff = rho.powf(accel).min(0.999);

    // V-cycle visits ~2x the fine grid; W ~2.7x; F ~3x — matched to the
    // convergence boost above so MU barely separates good from bad.
    let grids = match mu as usize {
        1 => 2.0,
        2 => 2.7,
        _ => 3.0,
    };
    SolverTerms {
        iters: (TOLERANCE_LN / rho_eff.ln()).ceil().max(1.0),
        // Denser interpolation densifies coarse operators.
        cycle_cost: grids * (1.0 + 0.025 * (pmx - 4.0)),
        iter_cost,
        krylov: solver != 0,
        omp_coeff,
    }
}

/// What a (Ranks, OMP) pair decides at one scale.
#[derive(Debug, Clone, Copy)]
struct NodeTerms {
    /// Compute time per fine-grid work unit.
    compute: f64,
    /// AMG setup cost.
    setup: f64,
    /// Communication per iteration, for plain AMG and for a Krylov solver.
    comm: [f64; 2],
    /// `log2(omp)`, floored at 0: the smoother's scaling defect grows with it.
    omp_log2: f64,
}

/// The compute, setup and communication terms of `ranks` × `omp`.
fn node_terms(ranks: f64, omp: f64, scale: Scale) -> NodeTerms {
    let cores = ranks * omp;
    let compute = 0.40 / cores + 0.60 / cores.min(14.0); // bw saturation as in kripke
    let ranks_total = ranks * scale.nodes() as f64;
    // Halo exchanges per cycle level, plus the AMG-specific killer at
    // scale: coarse grids hold fewer points than ranks, so every cycle
    // bottoms out in latency-bound all-to-alls whose cost grows with the
    // rank count. This is why the paper's importance analysis puts Ranks
    // first on this benchmark. Krylov solvers add dot-product latency.
    let comm = 0.030 * ranks_total.log2() / cores.sqrt() + 0.0009 * ranks_total.sqrt();
    NodeTerms {
        compute,
        setup: 0.9 * compute + 0.004 * ranks_total.log2(),
        comm: [comm, comm + 0.002 * ranks_total.log2()],
        omp_log2: omp.log2().max(0.0),
    }
}

/// The (Coarsen, Interp) factor of the transfer model: coarsening sets the
/// operator complexity, and the interpolation pairs with it.
fn coarsening_factor(coarsen: usize, interp: usize) -> f64 {
    // HMIS/PMIS need ext+i-style interpolation to stay robust.
    let mismatch = if (coarsen == 1 || coarsen == 2) && interp != 1 {
        1.06
    } else {
        1.0
    };
    COARSENINGS[coarsen].1 * INTERPS[interp].1 * mismatch
}

/// The time calibration at `scale`: seconds per unit of the model's sum.
fn time_scale(scale: Scale) -> f64 {
    TIME_SCALE * scale.problem_factor().powf(0.4) * 36.0
}

/// The solve time of a configuration whose stages gave `solver` and
/// `node`, with its (Coarsen, Interp) factor `extra` (1 in the base space).
fn solve_time(time_scale: f64, solver: &SolverTerms, node: &NodeTerms, extra: f64) -> f64 {
    let smoother_scaling = 1.0 + solver.omp_coeff * node.omp_log2;
    let comm = node.comm[usize::from(solver.krylov)];
    let per_iter = (solver.cycle_cost * node.compute * smoother_scaling + comm) * solver.iter_cost;
    time_scale * extra * (node.setup + solver.iters * per_iter)
}

/// Noise-free solve time (seconds) of a base-space configuration.
pub fn model(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> f64 {
    config_time(cfg, space, scale, 1.0)
}

/// Noise-free solve time of a transfer-space configuration.
pub fn transfer_model(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> f64 {
    let i = |p: usize| cfg.value(p).index();
    let extra = coarsening_factor(i(param::COARSEN), i(param::INTERP));
    config_time(cfg, space, scale, extra)
}

/// The solve time of one configuration, its stages computed for it alone.
fn config_time(cfg: &Configuration, space: &ParameterSpace, scale: Scale, extra: f64) -> f64 {
    let v = |p: usize| cfg.numeric_value(p, &space.params()[p]);
    let node = node_terms(v(param::RANKS), v(param::OMP), scale);
    solve_time(time_scale(scale), &solver_terms(cfg, space), &node, extra)
}

/// Builds a sweep of `space` (the base or the transfer space) whose rows
/// carry [`model`]'s or [`transfer_model`]'s bits, computed in stages:
/// every (Ranks, OMP) pair's terms and (Coarsen, Interp) factor are
/// tabulated once per build, and as the walk yields the rows in code
/// order, last parameter fastest, each (Solver, Smoother, MU, PMX)
/// prefix's terms are computed once for all its members.
fn staged_dataset(name: &str, space: ParameterSpace, seed: u64, scale: Scale) -> Dataset {
    let extended = space.n_params() > param::COARSEN;
    let time_scale = time_scale(scale);
    let cores = |i: usize| CORE_COUNTS[i] as f64;
    let nodes: [[NodeTerms; CORE_COUNTS.len()]; CORE_COUNTS.len()] =
        std::array::from_fn(|r| std::array::from_fn(|o| node_terms(cores(r), cores(o), scale)));
    let factors: [[f64; INTERPS.len()]; COARSENINGS.len()] =
        std::array::from_fn(|c| std::array::from_fn(|x| coarsening_factor(c, x)));
    let mut solver: Option<([usize; param::RANKS], SolverTerms)> = None;
    let label = "Execution time (s)";
    Dataset::generate(name, label, space, seed, NOISE_SIGMA, move |cfg, s| {
        let i = |p: usize| cfg.value(p).index();
        let prefix = std::array::from_fn(i);
        let st = match solver {
            Some((at, t)) if at == prefix => t,
            _ => solver.insert((prefix, solver_terms(cfg, s))).1,
        };
        let node = &nodes[i(param::RANKS)][i(param::OMP)];
        let extra = if extended {
            factors[i(param::COARSEN)][i(param::INTERP)]
        } else {
            1.0
        };
        solve_time(time_scale, &st, node, extra)
    })
}

/// Generates the configuration-selection dataset (paper Fig. 4).
pub fn dataset(scale: Scale) -> Dataset {
    let name = match scale {
        Scale::Target => "hypre",
        Scale::Source => "hypre-src",
    };
    staged_dataset(name, space(), SEED ^ scale.nodes() as u64, scale)
}

/// Generates the extended dataset for transfer learning (paper Fig. 8b).
pub fn transfer_dataset(scale: Scale) -> Dataset {
    let name = match scale {
        Scale::Target => "hypre-transfer",
        Scale::Source => "hypre-transfer-src",
    };
    let seed = SEED ^ 0xF00D ^ scale.nodes() as u64;
    staged_dataset(name, transfer_space(), seed, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kripke::config_from_values;
    use hiperbot_perfsim::noise::lognormal_factor;

    #[test]
    fn base_space_cardinality() {
        assert_eq!(space().enumerate().len(), 5184);
    }

    #[test]
    fn transfer_space_cardinality() {
        assert_eq!(transfer_space().enumerate().len(), 62_208);
    }

    #[test]
    fn best_matches_paper_anchor() {
        let s = space();
        let best = s
            .enumerate()
            .iter()
            .map(|c| model(c, &s, Scale::Target))
            .fold(f64::INFINITY, f64::min);
        assert!(
            (best - 3.45).abs() < 0.10,
            "exhaustive best = {best}, paper Fig. 4 bottoms out near 3.45 s"
        );
    }

    #[test]
    fn model_is_positive_everywhere() {
        let s = space();
        for cfg in s.enumerate() {
            let t = model(&cfg, &s, Scale::Target);
            assert!(t.is_finite() && t > 0.0);
        }
    }

    #[test]
    fn krylov_acceleration_beats_plain_amg_at_same_cost_point() {
        let s = space();
        let amg = config_from_values(&s, &["AMG", "HybridGS", "1", "8", "4", "9"]);
        let pcg = config_from_values(&s, &["PCG", "HybridGS", "1", "8", "4", "9"]);
        assert!(model(&pcg, &s, Scale::Target) < model(&amg, &s, Scale::Target));
    }

    #[test]
    fn cgnr_is_a_poor_choice() {
        let s = space();
        let cgnr = config_from_values(&s, &["CGNR", "HybridGS", "1", "8", "4", "9"]);
        let pcg = config_from_values(&s, &["PCG", "HybridGS", "1", "8", "4", "9"]);
        assert!(model(&cgnr, &s, Scale::Target) > model(&pcg, &s, Scale::Target));
    }

    #[test]
    fn gs_smoother_scales_worse_with_threads_than_jacobi() {
        let s = space();
        let t = |sm: &str, omp: &str| {
            let c = config_from_values(&s, &["PCG", sm, "1", "8", "1", omp]);
            model(&c, &s, Scale::Target)
        };
        let gs_ratio = t("HybridGS", "36") / t("HybridGS", "4");
        let jac_ratio = t("Jacobi", "36") / t("Jacobi", "4");
        assert!(gs_ratio > jac_ratio, "{gs_ratio} vs {jac_ratio}");
    }

    #[test]
    fn smoother_effect_is_small_as_in_table1() {
        // Paper Table I: Smoother JS ≈ 0.01 — the smoother barely separates
        // good from bad. Verify spread across smoothers ≪ spread across
        // rank/thread choices.
        let s = space();
        let with = |sm: &str| {
            let c = config_from_values(&s, &["PCG", sm, "1", "8", "4", "9"]);
            model(&c, &s, Scale::Target)
        };
        let sm_spread = SMOOTHERS
            .iter()
            .map(|m| with(m.0))
            .fold(f64::NEG_INFINITY, f64::max)
            / SMOOTHERS
                .iter()
                .map(|m| with(m.0))
                .fold(f64::INFINITY, f64::min);
        let rk = |r: &str, o: &str| {
            let c = config_from_values(&s, &["PCG", "HybridGS", "1", "8", r, o]);
            model(&c, &s, Scale::Target)
        };
        let rank_spread = rk("1", "4") / rk("4", "9");
        assert!(sm_spread < 1.25, "smoother spread {sm_spread}");
        assert!(rank_spread > sm_spread, "{rank_spread} vs {sm_spread}");
    }

    #[test]
    fn staged_builds_are_the_per_config_models_bit_for_bit() {
        type Model = fn(&Configuration, &ParameterSpace, Scale) -> f64;
        for scale in [Scale::Source, Scale::Target] {
            let sweeps: [(Dataset, u64, Model); 2] = [
                (dataset(scale), SEED ^ scale.nodes() as u64, model),
                (
                    transfer_dataset(scale),
                    SEED ^ 0xF00D ^ scale.nodes() as u64,
                    transfer_model,
                ),
            ];
            for (d, seed, per_config) in sweeps {
                for row in 0..d.len() {
                    let cfg = d.config(row);
                    let noise = lognormal_factor(&[seed, row as u64], NOISE_SIGMA);
                    let want = per_config(&cfg, d.space(), scale) * noise;
                    let got = d.objective(row);
                    assert_eq!(got.to_bits(), want.to_bits(), "{}: {cfg:?}", d.name());
                }
            }
        }
    }

    #[test]
    fn transfer_scales_are_correlated() {
        let s = transfer_space();
        let cfgs = s.enumerate();
        let pairs: Vec<(f64, f64)> = cfgs
            .iter()
            .step_by(211)
            .map(|c| {
                (
                    transfer_model(c, &s, Scale::Source),
                    transfer_model(c, &s, Scale::Target),
                )
            })
            .collect();
        let n = pairs.len() as f64;
        let ms = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let mt = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let cov: f64 = pairs.iter().map(|p| (p.0 - ms) * (p.1 - mt)).sum::<f64>() / n;
        let vs: f64 = pairs.iter().map(|p| (p.0 - ms).powi(2)).sum::<f64>() / n;
        let vt: f64 = pairs.iter().map(|p| (p.1 - mt).powi(2)).sum::<f64>() / n;
        assert!(cov / (vs.sqrt() * vt.sqrt()) > 0.8);
    }
}
