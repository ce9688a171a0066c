//! Kripke: a deterministic SN particle-transport proxy (paper §V-A).
//!
//! Kripke's tunables and the phenomena they control:
//!
//! - **Nesting** — the direction/group/zone data-layout order. Decides the
//!   unit-stride run length of the sweep kernel and with it achieved memory
//!   bandwidth ([`hiperbot_perfsim::memory`]). Interacts with the set
//!   counts: `gset = 32` leaves one group per set, so group-innermost
//!   layouts collapse to stride-1 runs of length 1.
//! - **Gset / Dset** — how the 32 energy groups and 96 directions are
//!   partitioned into sets. `gset × dset` is the KBA sweep pipeline depth:
//!   too shallow starves the pipeline (ranks idle during fill), too deep
//!   pays per-set kernel/message overhead. Interior optimum, shifting with
//!   the rank count.
//! - **Ranks / OMP** — MPI ranks per node × OpenMP threads per rank.
//!   Compute scales with `ranks × omp`; the memory-bound share saturates at
//!   the node's bandwidth; threads pay barrier costs, ranks pay
//!   communication costs and deepen the sweep fill.
//! - **PKG_LIMIT** (energy variant) — a RAPL-style package power cap
//!   ([`hiperbot_perfsim::power`]): the energy objective has an interior
//!   optimum in the cap, which is what the paper's expert heuristic ("2nd
//!   or 3rd highest power level") misses.
//!
//! Calibration anchors from the paper: best exec time **8.43 s**, expert
//! manual tuning **15.2 s** (1609 measured configs); expert energy
//! **4742 J**, best ≈ 2500 J (17 815 configs).

use crate::dataset::Dataset;
use crate::Scale;
use hiperbot_perfsim::machine::MachineSpec;
use hiperbot_perfsim::memory::{layout_efficiency, LayoutDims, Nesting};
use hiperbot_perfsim::power::{freq_scale_at_cap, time_energy_at_scale};
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};

/// Total energy groups in the problem.
const GROUPS_TOTAL: usize = 32;
/// Total angular directions.
const DIRECTIONS_TOTAL: usize = 96;
/// Zones per node for the target problem.
const ZONES_PER_NODE: usize = 110_592; // 48^3

/// Compute-bound work units per node (calibrated).
const COMPUTE_WORK: f64 = 26.0;
/// Memory-bound work units per node at perfect layout efficiency.
const MEMORY_WORK: f64 = 34.0;
/// Cores at which the node's memory bandwidth saturates.
const BW_SATURATION_CORES: f64 = 14.0;
/// Fraction of the work inside pipelined sweeps.
const SWEEP_FRACTION: f64 = 0.55;
/// Per-set kernel/message overhead coefficient.
const SET_OVERHEAD: f64 = 0.02;
/// OpenMP barrier cost per log2(threads), in work units.
const OMP_SYNC_COST: f64 = 0.35;
/// MPI collective/halo cost per log2(total ranks), in work units.
const MPI_COMM_COST: f64 = 0.55;
/// Global time calibration: work units → seconds (pins best ≈ 8.43 s).
const TIME_SCALE: f64 = 1.7654;
/// Run-to-run noise (lognormal sigma) for generated datasets.
const NOISE_SIGMA: f64 = 0.015;
/// Energy calibration: pins the expert's 200 W choice at the paper's
/// 4742 J anchor.
const ENERGY_SCALE: f64 = 1.4976;

/// Deterministic dataset seed for the exec-time sweep.
pub const EXEC_SEED: u64 = 0x4B52_4950_4B45_0001; // "KRIPKE" 1
/// Deterministic dataset seed for the energy sweep.
pub const ENERGY_SEED: u64 = 0x4B52_4950_4B45_0002;

/// Parameter order in the exec space.
pub mod param {
    /// Data-layout nesting order (6 values).
    pub const NESTING: usize = 0;
    /// Number of group sets.
    pub const GSET: usize = 1;
    /// Number of direction sets.
    pub const DSET: usize = 2;
    /// MPI ranks per node.
    pub const RANKS: usize = 3;
    /// OpenMP threads per rank.
    pub const OMP: usize = 4;
    /// Package power cap in watts (energy space only).
    pub const PKG_LIMIT: usize = 5;
}

fn nesting_values() -> Vec<&'static str> {
    Nesting::ALL.iter().map(|n| n.name()).collect()
}

fn base_params() -> Vec<ParamDef> {
    vec![
        ParamDef::new("Nesting", Domain::categorical(&nesting_values())),
        ParamDef::new("Gset", Domain::discrete_ints(&[1, 2, 4, 8, 16, 32])),
        ParamDef::new("Dset", Domain::discrete_ints(&[1, 2, 4, 8])),
        ParamDef::new("Ranks", Domain::discrete_ints(&[1, 2, 4, 9, 18, 36])),
        ParamDef::new("OMP", Domain::discrete_ints(&[1, 2, 4, 9, 18, 36])),
    ]
}

/// The two feasibility constraints, each declared on the prefix that
/// decides it (through `Dset`, through `OMP`), so a walk tests it once per
/// prefix and skips the members below a failing one.
fn add_constraints(b: hiperbot_space::SpaceBuilder) -> hiperbot_space::SpaceBuilder {
    b.constraint_within(
        "9 <= ranks*omp <= 36 (node not undersubscribed)",
        param::OMP + 1,
        |c, d| {
            let cores = c.numeric_value(param::RANKS, &d[param::RANKS])
                * c.numeric_value(param::OMP, &d[param::OMP]);
            (9.0..=36.0).contains(&cores)
        },
    )
    .constraint_within(
        "4 <= gset*dset <= 128 (pipeline depth measurable)",
        param::DSET + 1,
        |c, d| {
            let stages = c.numeric_value(param::GSET, &d[param::GSET])
                * c.numeric_value(param::DSET, &d[param::DSET]);
            (4.0..=128.0).contains(&stages)
        },
    )
}

/// The execution-time parameter space (paper: 1609 measured configs; this
/// model's feasible count is 1560 — see EXPERIMENTS.md).
pub fn exec_space() -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for p in base_params() {
        b = b.param(p);
    }
    add_constraints(b).build().expect("valid kripke space")
}

/// The energy parameter space: exec space × 11 power-cap levels
/// (paper: 17 815 configs; this model: 17 160).
pub fn energy_space() -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for p in base_params() {
        b = b.param(p);
    }
    let caps: Vec<i64> = (0..11).map(|i| 65 + 15 * i).collect(); // 65..215 W
    b = b.param(ParamDef::new("PKG_LIMIT", Domain::discrete_ints(&caps)));
    add_constraints(b)
        .build()
        .expect("valid kripke energy space")
}

fn nesting_of(cfg: &Configuration) -> Nesting {
    Nesting::ALL[cfg.value(param::NESTING).index()]
}

/// Noise-free execution time (seconds) of one configuration at `scale`.
pub fn exec_model(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> f64 {
    exec_time_and_layout(cfg, space, scale).0
}

/// [`exec_model`] and the layout efficiency it evaluated on the way.
fn exec_time_and_layout(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> (f64, f64) {
    let defs = space.params();
    let gset = cfg.numeric_value(param::GSET, &defs[param::GSET]);
    let dset = cfg.numeric_value(param::DSET, &defs[param::DSET]);
    let ranks = cfg.numeric_value(param::RANKS, &defs[param::RANKS]);
    let omp = cfg.numeric_value(param::OMP, &defs[param::OMP]);

    let zones_per_node = (ZONES_PER_NODE as f64 * scale.problem_factor()).max(1.0);
    let zones_rank = (zones_per_node / ranks).max(1.0) as usize;
    let dims = LayoutDims {
        directions: (DIRECTIONS_TOTAL as f64 / dset) as usize,
        groups: (GROUPS_TOTAL as f64 / gset) as usize,
        zones: zones_rank,
    };
    let layout_eff = layout_efficiency(nesting_of(cfg), dims, 8);

    let cores = ranks * omp;
    // Compute-bound work scales with cores; memory-bound work saturates at
    // the node's bandwidth and is inflated by poor layouts. The square root
    // tempers the raw stream-efficiency ratio: part of the traffic (scalar
    // flux, sigma tables) is layout-independent.
    let t_compute = COMPUTE_WORK / cores;
    let t_memory = MEMORY_WORK / (layout_eff.sqrt() * cores.min(BW_SATURATION_CORES));
    let t_work = t_compute + t_memory;

    // KBA sweep pipeline: stages vs. fill cost (grows with the rank grid).
    let stages = gset * dset;
    let ranks_total = ranks * scale.nodes() as f64;
    let fill = 2.0 * ranks_total.sqrt();
    let sweep_eff = stages / (stages + fill);
    // Group sets are cheap loop splits; direction sets multiply the sweep's
    // per-octant message count, so they cost an order of magnitude more.
    // (The asymmetry is what gives Gset and Dset distinct importance
    // marginals, as in the paper's Table I.)
    let set_overhead = 1.0 + SET_OVERHEAD * (0.25 * gset + 3.0 * dset);
    let t_pipelined = t_work * (SWEEP_FRACTION / sweep_eff + (1.0 - SWEEP_FRACTION)) * set_overhead;

    // Synchronization and communication overheads.
    let t_sync = OMP_SYNC_COST * omp.log2().max(0.0) / cores;
    let t_comm = MPI_COMM_COST * ranks_total.log2() / cores.sqrt() / 6.0;

    let time = TIME_SCALE * scale.problem_factor().powf(0.35) * (t_pipelined + t_sync + t_comm);
    (time, layout_eff)
}

/// The cap-independent terms of the energy model: what the first five
/// parameters decide, at one layout evaluation. [`energy_at_scale`] applies
/// a cap's frequency scale to them.
#[derive(Debug, Clone, Copy)]
struct EnergyTerms {
    /// Execution time at nominal frequency, seconds ([`exec_model`]).
    t_nominal: f64,
    /// Share of the runtime that scales with the clock.
    compute_fraction: f64,
    /// Package utilization (0–1).
    util: f64,
}

/// The cap-independent terms of an energy-space configuration's energy.
/// Reads only the parameters before `PKG_LIMIT`.
fn energy_terms(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> EnergyTerms {
    let defs = space.params();
    let ranks = cfg.numeric_value(param::RANKS, &defs[param::RANKS]);
    let omp = cfg.numeric_value(param::OMP, &defs[param::OMP]);
    let cores = ranks * omp;
    let (t_nominal, layout_eff) = exec_time_and_layout(cfg, space, scale);
    // The compute-bound share of runtime decides frequency sensitivity:
    // sweeps over well-laid-out data are flop-dominated, poor layouts stall
    // on memory and barely notice the clock.
    EnergyTerms {
        t_nominal,
        compute_fraction: (0.55 + 0.30 * layout_eff).clamp(0.15, 0.92),
        util: 0.45 + 0.5 * (cores / 36.0),
    }
}

/// The DVFS step of the energy model: `(time s, energy J)` of a
/// configuration with `terms` run at `freq_scale`, the frequency scale of
/// its power cap ([`freq_scale_at_cap`] on [`MachineSpec::quartz_like`]).
fn energy_at_scale(terms: EnergyTerms, freq_scale: f64) -> (f64, f64) {
    let machine = MachineSpec::quartz_like();
    let (t, e) = time_energy_at_scale(
        terms.t_nominal,
        terms.compute_fraction,
        freq_scale,
        terms.util,
        &machine,
    );
    (t, ENERGY_SCALE * e)
}

/// Noise-free `(time s, energy J)` of an energy-space configuration: the
/// terms its first five parameters decide (nominal time, compute
/// fraction, utilization), then the DVFS step at its power cap's
/// frequency scale.
pub fn energy_model(cfg: &Configuration, space: &ParameterSpace, scale: Scale) -> (f64, f64) {
    let cap = cfg.numeric_value(param::PKG_LIMIT, &space.params()[param::PKG_LIMIT]);
    let freq_scale = freq_scale_at_cap(cap, &MachineSpec::quartz_like());
    energy_at_scale(energy_terms(cfg, space, scale), freq_scale)
}

/// The paper's expert manual choice for execution time: test each loop
/// ordering with a few group/energy sets (anchor: 15.2 s).
pub fn exec_expert_config(space: &ParameterSpace) -> Configuration {
    // DGZ layout, gset=8, dset=1, pure-MPI 36 ranks × 1 thread: the
    // "obvious" high-parallelism choice that ignores the pipeline/bandwidth
    // interplay.
    config_from_values(space, &["DGZ", "2", "8", "2", "18", ""])
}

/// The paper's expert choice for energy: run at the 2nd-highest power level
/// (anchor: 4742 J).
pub fn energy_expert_config(space: &ParameterSpace) -> Configuration {
    config_from_values(space, &["DGZ", "2", "8", "2", "18", "200"])
}

/// Builds a configuration from per-parameter display values (empty strings
/// skipped for spaces lacking the trailing params).
pub(crate) fn config_from_values(space: &ParameterSpace, vals: &[&str]) -> Configuration {
    let defs = space.params();
    let mut idxs = Vec::with_capacity(defs.len());
    for (i, def) in defs.iter().enumerate() {
        let want = vals[i];
        let pos = def
            .values()
            .iter()
            .position(|v| v.to_string() == want)
            .unwrap_or_else(|| panic!("value '{want}' not in domain of {}", def.name()));
        idxs.push(pos);
    }
    Configuration::from_indices(&idxs)
}

/// Generates the execution-time dataset (substitute for the paper's
/// 1609-config measured sweep).
pub fn exec_dataset(scale: Scale) -> Dataset {
    let space = exec_space();
    let seed = EXEC_SEED ^ scale.nodes() as u64;
    Dataset::generate(
        match scale {
            Scale::Target => "kripke-exec",
            Scale::Source => "kripke-exec-src",
        },
        "Execution time (s)",
        space,
        seed,
        NOISE_SIGMA,
        move |cfg, s| exec_model(cfg, s, scale),
    )
}

/// Generates the energy dataset (substitute for the paper's 17 815-config
/// power-cap sweep). Also the transfer-learning domain of §VII-A.
///
/// Every row carries [`energy_model`]'s bits, computed in stages: the walk
/// yields the rows in code order, power cap fastest, so the
/// cap-independent terms of a five-parameter prefix are computed once for
/// all its caps, and each cap's frequency scale once per build.
pub fn energy_dataset(scale: Scale) -> Dataset {
    let space = energy_space();
    let seed = ENERGY_SEED ^ scale.nodes() as u64;
    let machine = MachineSpec::quartz_like();
    let caps = space.params()[param::PKG_LIMIT]
        .domain()
        .cardinality()
        .expect("discrete");
    let mut freq_scales: Vec<Option<f64>> = vec![None; caps];
    let mut terms: Option<([usize; param::PKG_LIMIT], EnergyTerms)> = None;
    Dataset::generate(
        match scale {
            Scale::Target => "kripke-energy",
            Scale::Source => "kripke-energy-src",
        },
        "Energy (J)",
        space,
        seed,
        NOISE_SIGMA,
        move |cfg, s| {
            let prefix = std::array::from_fn(|i| cfg.value(i).index());
            let t = match terms {
                Some((at, t)) if at == prefix => t,
                _ => terms.insert((prefix, energy_terms(cfg, s, scale))).1,
            };
            let cap = cfg.value(param::PKG_LIMIT).index();
            let fs = *freq_scales[cap].get_or_insert_with(|| {
                let watts = cfg.numeric_value(param::PKG_LIMIT, &s.params()[param::PKG_LIMIT]);
                freq_scale_at_cap(watts, &machine)
            });
            energy_at_scale(t, fs).1
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_perfsim::noise::lognormal_factor;

    #[test]
    fn exec_space_cardinality_is_documented_value() {
        assert_eq!(exec_space().enumerate().len(), 1560);
    }

    #[test]
    fn energy_space_cardinality_is_documented_value() {
        assert_eq!(energy_space().enumerate().len(), 17_160);
    }

    #[test]
    fn model_is_positive_and_finite_everywhere() {
        let s = exec_space();
        for cfg in s.enumerate() {
            let t = exec_model(&cfg, &s, Scale::Target);
            assert!(t.is_finite() && t > 0.0, "{cfg:?} -> {t}");
        }
    }

    #[test]
    fn layout_matters() {
        let s = exec_space();
        // Same config except nesting: zone-inner (DGZ) vs direction-inner
        // (GZD) with few direction sets.
        let good = config_from_values(&s, &["DGZ", "4", "2", "4", "9", ""]);
        let bad = config_from_values(&s, &["ZGD", "4", "2", "4", "9", ""]);
        assert!(exec_model(&bad, &s, Scale::Target) > exec_model(&good, &s, Scale::Target));
    }

    #[test]
    fn direction_sets_have_an_interior_optimum() {
        // For a fixed group-set count, direction sets trade pipeline depth
        // (shallow = ranks idle in the KBA fill) against per-octant message
        // overhead (deep = latency-bound): the optimum is interior.
        let s = exec_space();
        let times: Vec<(f64, f64)> = ["1", "2", "4", "8"]
            .iter()
            .map(|d| {
                let c = config_from_values(&s, &["DGZ", "8", d, "1", "36", ""]);
                let ds = c.numeric_value(param::DSET, &s.params()[param::DSET]);
                (ds, exec_model(&c, &s, Scale::Target))
            })
            .collect();
        let best = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            best.0 > 1.0 && best.0 < 8.0,
            "interior optimum expected, got dset={} in {times:?}",
            best.0
        );
    }

    #[test]
    fn group_sets_are_much_cheaper_than_direction_sets() {
        // The asymmetry behind the distinct Gset/Dset importances: adding
        // group sets costs little; adding direction sets costs a lot.
        let s = exec_space();
        let t = |g: &str, d: &str| {
            let c = config_from_values(&s, &["DGZ", g, d, "1", "36", ""]);
            exec_model(&c, &s, Scale::Target)
        };
        // Same stage count (32), split differently:
        let gset_heavy = t("16", "2");
        let dset_heavy = t("4", "8");
        assert!(
            gset_heavy < dset_heavy,
            "gset-heavy {gset_heavy} should beat dset-heavy {dset_heavy}"
        );
    }

    #[test]
    fn energy_has_interior_cap_optimum_for_some_config() {
        let s = energy_space();
        let caps = [
            "65", "80", "95", "110", "125", "140", "155", "170", "185", "200", "215",
        ];
        let energies: Vec<f64> = caps
            .iter()
            .map(|c| {
                // A low-utilization, well-laid-out (compute-bound) config:
                // static power punishes crawling, cubic dynamic power
                // punishes racing.
                let cfg = config_from_values(&s, &["DGZ", "4", "2", "1", "9", c]);
                energy_model(&cfg, &s, Scale::Target).1
            })
            .collect();
        let min_idx = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < caps.len() - 1,
            "interior cap optimum expected, energies: {energies:?}"
        );
    }

    #[test]
    fn staged_terms_and_the_cap_step_are_the_energy_model_bit_for_bit() {
        let s = energy_space();
        let machine = MachineSpec::quartz_like();
        let caps = &s.params()[param::PKG_LIMIT];
        let freq_scales: Vec<f64> = (0..caps.domain().cardinality().unwrap())
            .map(|i| freq_scale_at_cap(caps.values()[i].as_f64().unwrap(), &machine))
            .collect();
        for scale in [Scale::Source, Scale::Target] {
            let d = energy_dataset(scale);
            let seed = ENERGY_SEED ^ scale.nodes() as u64;
            let mut walk = s.walk();
            let mut row = 0;
            while let Some((_, cfg)) = walk.next_member() {
                // The terms read the five-parameter prefix only.
                let prefix: Vec<usize> = (0..param::PKG_LIMIT)
                    .map(|i| cfg.value(i).index())
                    .collect();
                let terms = energy_terms(&Configuration::from_indices(&prefix), &s, scale);
                let fs = freq_scales[cfg.value(param::PKG_LIMIT).index()];
                let (t, e) = energy_at_scale(terms, fs);
                let (want_t, want_e) = energy_model(cfg, &s, scale);
                assert_eq!(t.to_bits(), want_t.to_bits(), "{cfg:?}");
                assert_eq!(e.to_bits(), want_e.to_bits(), "{cfg:?}");
                // The dataset's per-prefix and per-cap reuse change no bit.
                let noisy = want_e * lognormal_factor(&[seed, row as u64], NOISE_SIGMA);
                assert_eq!(d.objective(row).to_bits(), noisy.to_bits(), "{cfg:?}");
                row += 1;
            }
            assert_eq!(row, d.len());
        }
    }

    #[test]
    fn source_scale_is_cheaper_but_correlated() {
        let s = exec_space();
        let cfgs = s.enumerate();
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for cfg in cfgs.iter().step_by(37) {
            pairs.push((
                exec_model(cfg, &s, Scale::Source),
                exec_model(cfg, &s, Scale::Target),
            ));
        }
        // Source runs are faster (smaller problem)…
        let avg_src: f64 = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.len() as f64;
        let avg_tgt: f64 = pairs.iter().map(|p| p.1).sum::<f64>() / pairs.len() as f64;
        assert!(avg_src < avg_tgt);
        // …and rank-correlated with target runs (transfer learning works).
        let n = pairs.len() as f64;
        let (ms, mt) = (avg_src, avg_tgt);
        let cov: f64 = pairs.iter().map(|p| (p.0 - ms) * (p.1 - mt)).sum::<f64>() / n;
        let vs: f64 = pairs.iter().map(|p| (p.0 - ms).powi(2)).sum::<f64>() / n;
        let vt: f64 = pairs.iter().map(|p| (p.1 - mt).powi(2)).sum::<f64>() / n;
        let corr = cov / (vs.sqrt() * vt.sqrt());
        assert!(corr > 0.8, "source/target correlation = {corr}");
    }

    #[test]
    fn expert_config_is_feasible() {
        let s = exec_space();
        assert!(s.is_feasible(&exec_expert_config(&s)));
        let es = energy_space();
        assert!(es.is_feasible(&energy_expert_config(&es)));
    }

    #[test]
    fn exec_best_matches_paper_anchor() {
        let s = exec_space();
        let best = s
            .enumerate()
            .iter()
            .map(|c| exec_model(c, &s, Scale::Target))
            .fold(f64::INFINITY, f64::min);
        assert!((best - 8.43).abs() < 0.05, "best = {best}, paper says 8.43");
    }

    #[test]
    fn exec_expert_matches_paper_anchor() {
        let s = exec_space();
        let t = exec_model(&exec_expert_config(&s), &s, Scale::Target);
        assert!(
            (14.3..=15.5).contains(&t),
            "expert = {t}, paper says 15.2 (we calibrate within ~5%)"
        );
    }

    #[test]
    fn energy_expert_matches_paper_anchor() {
        let s = energy_space();
        let e = energy_model(&energy_expert_config(&s), &s, Scale::Target).1;
        assert!(
            (e - 4742.0).abs() < 50.0,
            "expert energy = {e}, paper says 4742"
        );
    }

    #[test]
    fn energy_best_is_far_below_expert() {
        // The paper's point: autotuning beats the expert's power heuristic
        // by a wide margin.
        let s = energy_space();
        let expert = energy_model(&energy_expert_config(&s), &s, Scale::Target).1;
        let best = s
            .enumerate()
            .iter()
            .map(|c| energy_model(c, &s, Scale::Target).1)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.6 * expert, "best {best} vs expert {expert}");
    }
}
