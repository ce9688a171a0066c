//! Golden digests of every shipped dataset: each row's code and the bits
//! of its objective, hashed in table order. The constants were recorded
//! when datasets still stored a `Configuration` per row and evaluated
//! their models in parallel, so a change to how a dataset is built or
//! stored must leave every row, its order and its noise bit-identical.

use hiperbot_apps::{hypre, kripke, lulesh, openatom, Dataset, Scale};

/// FNV-1a over the row count, then each row's code and objective bits,
/// little-endian.
fn digest(d: &Dataset) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(d.len() as u64);
    for (&code, y) in d.codes().as_slice().iter().zip(d.objectives()) {
        eat(code as u64);
        eat(y.to_bits());
    }
    h
}

/// Builds `build` at the source and the target scale and compares each
/// with its recorded `(name, digest)`.
fn check(build: fn(Scale) -> Dataset, rows: usize, golden: [(&str, u64); 2]) {
    for (scale, (name, want)) in [Scale::Source, Scale::Target].into_iter().zip(golden) {
        let d = build(scale);
        assert_eq!(d.name(), name);
        assert_eq!(d.len(), rows, "{name}: row count");
        let got = digest(&d);
        assert_eq!(
            got, want,
            "{name}: digest 0x{got:016x}, recorded 0x{want:016x}"
        );
    }
}

#[test]
fn kripke_exec() {
    let golden = [
        ("kripke-exec-src", 0x1b13_0d9d_9580_7add),
        ("kripke-exec", 0xdbb6_316b_1943_aa48),
    ];
    check(kripke::exec_dataset, 1560, golden);
}

#[test]
fn kripke_energy() {
    let golden = [
        ("kripke-energy-src", 0x29ff_13d1_19fa_a361),
        ("kripke-energy", 0x89c3_025d_5840_04d6),
    ];
    check(kripke::energy_dataset, 17_160, golden);
}

#[test]
fn hypre() {
    let golden = [
        ("hypre-src", 0x120c_dfe5_41ac_95c1),
        ("hypre", 0xae58_ae14_49c6_da76),
    ];
    check(hypre::dataset, 5184, golden);
}

#[test]
fn hypre_transfer() {
    let golden = [
        ("hypre-transfer-src", 0x8132_ec15_822a_2622),
        ("hypre-transfer", 0x7daf_2faf_9d69_bfdf),
    ];
    check(hypre::transfer_dataset, 62_208, golden);
}

#[test]
fn lulesh() {
    let golden = [
        ("lulesh-src", 0xcc56_2165_4195_a451),
        ("lulesh", 0xdb59_1c25_520b_2d0d),
    ];
    check(lulesh::dataset, 4800, golden);
}

#[test]
fn openatom() {
    let golden = [
        ("openatom-src", 0x8b13_84e3_63f6_b77e),
        ("openatom", 0x3a95_4c2b_5a56_21b5),
    ];
    check(openatom::dataset, 9216, golden);
}
