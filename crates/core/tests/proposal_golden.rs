//! Golden digests of whole Proposal{32} tuning runs: every history entry's
//! configuration value bits and objective bits, each quarantined failure,
//! and the stall count, hashed in evaluation order. The runs cover an
//! unconstrained discrete space (LULESH), two constrained ones (HYPRE,
//! Kripke exec), and a constrained mixed continuous/categorical space, each
//! serial (`run_fallible`) and at batch 4 (`run_batch_fallible`), with
//! deterministic injected failures. A change to how Proposal draws,
//! scores, tests seen-ness or breaks ties — or to the RNG keystream — must
//! leave every digest unchanged.

use hiperbot_apps::{hypre, kripke, lulesh, Dataset, Scale};
use hiperbot_core::selection::SelectionStrategy;
use hiperbot_core::{EvalOutcome, Tuner, TunerOptions};
use hiperbot_space::{Configuration, Domain, ParamDef, ParamValue, ParameterSpace};

/// FNV-1a over 64-bit words, little-endian. Stable across Rust releases,
/// unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn config(&mut self, cfg: &Configuration) {
        self.eat(cfg.len() as u64);
        for v in cfg.values() {
            match *v {
                ParamValue::Index(i) => {
                    self.eat(0);
                    self.eat(i as u64);
                }
                ParamValue::Real(x) => {
                    self.eat(1);
                    self.eat(x.to_bits());
                }
            }
        }
    }
}

/// The digest of a finished run.
fn digest(t: &Tuner) -> u64 {
    let h = t.history();
    let mut f = Fnv::new();
    f.eat(h.len() as u64);
    for (cfg, y) in h.configs().iter().zip(h.objectives()) {
        f.config(cfg);
        f.eat(y.to_bits());
    }
    f.eat(h.n_failures() as u64);
    for r in h.failures() {
        f.config(&r.config);
    }
    f.eat(t.stalls() as u64);
    f.0
}

/// Runs Proposal{32} serially and at batch 4 for each seed and returns
/// the digests in `(seed, serial, batch)` order.
fn run_digests(
    space: &ParameterSpace,
    budget: usize,
    seeds: &[u64],
    objective: impl Fn(&Configuration) -> EvalOutcome,
) -> Vec<(u64, u64, u64)> {
    let opts = |seed| {
        TunerOptions::default()
            .with_seed(seed)
            .with_strategy(SelectionStrategy::Proposal { candidates: 32 })
    };
    seeds
        .iter()
        .map(|&seed| {
            let mut serial = Tuner::new(space.clone(), opts(seed));
            serial.run_fallible(budget, &objective);
            let mut batch = Tuner::new(space.clone(), opts(seed));
            batch.run_batch_fallible(budget, 4, |cfgs, _| cfgs.iter().map(&objective).collect());
            (seed, digest(&serial), digest(&batch))
        })
        .collect()
}

/// Looks `cfg` up in `data`, failing every 17th table row (by position)
/// so the runs quarantine failures too.
fn dataset_outcome(data: &Dataset, cfg: &Configuration) -> EvalOutcome {
    let i = data.position(cfg).expect("Proposal draws feasible rows");
    if i % 17 == 5 {
        EvalOutcome::Failed {
            reason: "injected".into(),
        }
    } else {
        EvalOutcome::Ok(data.objective(i))
    }
}

fn check(name: &str, got: Vec<(u64, u64, u64)>, golden: &[(u64, u64, u64)]) {
    for (g, w) in got.iter().zip(golden) {
        assert_eq!(
            g, w,
            "{name}: digests (seed, serial, batch) = ({}, 0x{:016x}, 0x{:016x}), recorded \
             ({}, 0x{:016x}, 0x{:016x})",
            g.0, g.1, g.2, w.0, w.1, w.2
        );
    }
    assert_eq!(got.len(), golden.len(), "{name}: run count");
}

#[test]
fn lulesh_unconstrained() {
    let data = lulesh::dataset(Scale::Target);
    let got = run_digests(data.space(), 70, &[1, 2, 3], |c| dataset_outcome(&data, c));
    let golden = [
        (1, 0x527b_d08a_88f6_8566, 0x512c_68a6_a062_68f1),
        (2, 0xa7cf_05aa_ce72_8805, 0x9660_510f_5696_3dc4),
        (3, 0x119b_9902_e044_eb76, 0x8339_bce0_4bb0_e7e7),
    ];
    check("lulesh", got, &golden);
}

#[test]
fn hypre_constrained() {
    let data = hypre::dataset(Scale::Target);
    let got = run_digests(data.space(), 70, &[1, 2, 3], |c| dataset_outcome(&data, c));
    let golden = [
        (1, 0x3aed_9e3c_243c_13bc, 0x3eee_0b8f_6b33_bd4d),
        (2, 0x42d7_85b9_7a6d_fc4f, 0x046e_722c_2384_8698),
        (3, 0x35df_11b3_d21c_132b, 0x6ae4_ac0a_e181_5de0),
    ];
    check("hypre", got, &golden);
}

#[test]
fn kripke_exec_constrained() {
    let data = kripke::exec_dataset(Scale::Target);
    let got = run_digests(data.space(), 90, &[1, 2, 3], |c| dataset_outcome(&data, c));
    let golden = [
        (1, 0xfaf6_8d96_187b_4215, 0xaf3f_ae42_7cab_eca0),
        (2, 0xfb3d_822a_4aad_da47, 0xcb2f_31c6_b345_738b),
        (3, 0xdbfa_b2b8_6526_a8af, 0x2bfa_b3a1_bf60_ed8a),
    ];
    check("kripke-exec", got, &golden);
}

/// Two continuous parameters, a categorical and an integer one, with a
/// constraint that rejects part of the box.
fn mixed_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("mode", Domain::categorical(&["a", "b", "c"])))
        .param(ParamDef::new("y", Domain::continuous(-2.0, 2.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[0, 1, 2, 3, 4])))
        .constraint("mode c needs x <= 0.8", |c, _| {
            c.value(1).index() != 2 || c.value(0).as_f64() <= 0.8
        })
        .build()
        .expect("valid mixed space")
}

fn mixed_outcome(cfg: &Configuration) -> EvalOutcome {
    let (x, mode) = (cfg.value(0).as_f64(), cfg.value(1).index() as f64);
    let (y, k) = (cfg.value(2).as_f64(), cfg.value(3).index() as f64);
    if k == 4.0 && x > 0.9 {
        return EvalOutcome::Timeout;
    }
    EvalOutcome::Ok((x - 0.3).powi(2) + 0.25 * (y - 1.0).powi(2) + 0.1 * (k - 2.0).powi(2) + mode)
}

#[test]
fn mixed_continuous_categorical() {
    let got = run_digests(&mixed_space(), 50, &[1, 2, 3], mixed_outcome);
    let golden = [
        (1, 0xa5b5_e323_ff76_2e1a, 0x74b6_9ced_bdd0_d526),
        (2, 0xf0db_256e_bfeb_a9f5, 0xbe8a_49bc_d7cc_e776),
        (3, 0x285e_d289_40c6_7d47, 0xc4a3_6d65_4477_fe8d),
    ];
    check("mixed", got, &golden);
}

/// A 34-member constrained discrete space, run until nearly exhausted:
/// most draws duplicate history, so picks stall and batches drop picks.
fn tiny_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3, 4])))
        .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
        .param(ParamDef::new("c", Domain::categorical(&["off", "on"])))
        .constraint("a + b <= 5", |c, _| {
            c.value(0).index() + c.value(1).index() <= 5
        })
        .build()
        .expect("valid tiny space")
}

fn tiny_outcome(cfg: &Configuration) -> EvalOutcome {
    let (a, b, c) = (
        cfg.value(0).index(),
        cfg.value(1).index(),
        cfg.value(2).index(),
    );
    if (a, b) == (3, 2) {
        return EvalOutcome::Timeout;
    }
    EvalOutcome::Ok((a as f64 - 2.0).powi(2) + (b as f64 - 1.0).powi(2) + 0.5 * c as f64)
}

#[test]
fn tiny_discrete_stalls() {
    let got = run_digests(&tiny_space(), 34, &[1, 2, 3, 4], tiny_outcome);
    let golden = [
        (1, 0x90e0_7c89_5496_60f8, 0x99cf_ea54_831e_f3f4),
        (2, 0x1e33_589c_5263_542b, 0x1e33_589c_5263_542b),
        (3, 0xed7b_f7ad_4f12_410c, 0x0fd8_5871_c2f2_cfd8),
        (4, 0xb124_d539_1dd1_c310, 0x565a_5b48_cf7b_986c),
    ];
    check("tiny", got, &golden);
}
