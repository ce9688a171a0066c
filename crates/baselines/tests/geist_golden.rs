//! Golden digests of GEIST runs on the shipped datasets: each pick's pool
//! position and the bits of its objective, hashed in pick order. The
//! constants were recorded with the per-node propagation sweep over a
//! `Vec<Vec<u32>>` adjacency and a full stable sort of the candidates
//! each round, so a change to how the graph is stored, how a sweep runs
//! or how a round picks its batch must leave every pick and its order
//! bit-identical.
//!
//! One selector serves every seed of a dataset, so the later seeds also
//! run on the cached graph.

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};
use hiperbot_baselines::{ConfigSelector, GeistSelector};

/// Picks per run: the 20-sample bootstrap, three full rounds of 10 and a
/// last round of 5, so both a full and a budget-capped batch are taken.
const BUDGET: usize = 55;

/// FNV-1a over the pick count, then each pick's pool position and
/// objective bits, little-endian.
fn digest(
    d: &Dataset,
    seed: u64,
    geist: &GeistSelector,
    pool: &[hiperbot_space::Configuration],
) -> u64 {
    let run = geist.select(d.space(), pool, &|c| d.evaluate(c), BUDGET, seed);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(run.len() as u64);
    for (c, y) in run.configs.iter().zip(&run.objectives) {
        eat(d.position(c).expect("a pick comes from the pool") as u64);
        eat(y.to_bits());
    }
    h
}

/// Runs GEIST on `d` once per recorded `(seed, digest)` and compares.
fn check(d: Dataset, golden: &[(u64, u64)]) {
    let pool = d.to_configs();
    let geist = GeistSelector::default();
    let got: Vec<(u64, u64)> = golden
        .iter()
        .map(|&(seed, _)| (seed, digest(&d, seed, &geist, &pool)))
        .collect();
    assert_eq!(
        got,
        golden,
        "{}: digests {:x?}",
        d.name(),
        got.iter().map(|&(_, h)| h).collect::<Vec<_>>()
    );
}

#[test]
fn kripke_exec() {
    check(
        kripke::exec_dataset(Scale::Target),
        &[
            (1, 0x9d45_d33b_75be_b110),
            (2, 0x48e2_26b2_6a46_754d),
            (3, 0x8f3d_e856_f8bf_c43e),
        ],
    );
}

#[test]
fn kripke_energy() {
    check(
        kripke::energy_dataset(Scale::Target),
        &[(1, 0x5379_803d_c9b6_4c0b), (2, 0xfa6a_108d_bf03_c9d2)],
    );
}

#[test]
fn hypre() {
    check(
        hypre::dataset(Scale::Target),
        &[
            (1, 0x3339_717d_07b1_dd89),
            (2, 0x0911_be3d_a8d4_eba7),
            (3, 0x0836_a919_eebf_1262),
        ],
    );
}

#[test]
fn lulesh() {
    check(
        lulesh::dataset(Scale::Target),
        &[
            (1, 0x4965_e8a5_7da5_6fcd),
            (2, 0x0cfb_a8a7_a022_0066),
            (3, 0x75bb_4402_d76a_de83),
        ],
    );
}

#[test]
fn openatom() {
    check(
        openatom::dataset(Scale::Target),
        &[(1, 0x63f3_d943_f4a0_a8f2), (2, 0x5715_a0e3_5bdc_94e0)],
    );
}
