//! Property-based invariants tying the space substrate's pieces together:
//! enumeration, indexing, neighborhoods, sampling, and encodings must agree
//! on randomized spaces.

use hiperbot_space::sampling::{latin_hypercube, sample_distinct};
use hiperbot_space::{
    Configuration, Domain, Encoder, EncodingKind, ParamDef, ParamValue, ParameterSpace,
    PoolEncoding,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// A salted hash of a configuration's indices: the random feasibility
/// predicates below reject the members whose hash is a multiple of 3.
fn salted(cfg: &Configuration, salt: u64) -> u64 {
    cfg.values().iter().fold(salt, |h, v| {
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(v.index() as u64 + 1)
            .rotate_left(17)
    })
}

/// A random constrained space: 1–4 parameters of 1–5 values and up to two
/// salted-hash constraints, each rejecting about a third of the product.
fn arb_constrained_space() -> impl Strategy<Value = ParameterSpace> {
    (
        proptest::collection::vec(1usize..=5, 1..=4),
        proptest::collection::vec(0u64..1000, 0..=2),
    )
        .prop_map(|(cards, salts)| {
            let mut b = ParameterSpace::builder();
            for (i, c) in cards.into_iter().enumerate() {
                let vals: Vec<i64> = (0..c as i64).collect();
                b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
            }
            for salt in salts {
                b = b.constraint(format!("salt {salt}"), move |c, _| {
                    !salted(c, salt).is_multiple_of(3)
                });
            }
            b.build().expect("valid")
        })
}

/// The enumeration the walk replaced, kept as its oracle: every product
/// index through `config_at`, filtered by feasibility.
fn oracle(space: &ParameterSpace) -> Vec<(usize, Configuration)> {
    (0..space.product_cardinality().unwrap())
        .map(|i| (i, space.config_at(i)))
        .filter(|(_, cfg)| space.is_feasible(cfg))
        .collect()
}

fn arb_discrete_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=4).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn enumeration_indexing_roundtrip(space in arb_discrete_space()) {
        let all = space.enumerate();
        prop_assert_eq!(all.len(), space.product_cardinality().unwrap());
        for (i, cfg) in all.iter().enumerate() {
            prop_assert_eq!(space.index_of(cfg), Some(i));
            prop_assert_eq!(&space.config_at(i), cfg);
        }
    }

    #[test]
    fn walk_matches_the_config_at_oracle(space in arb_constrained_space()) {
        let expected = oracle(&space);
        let mut walk = space.walk();
        let mut walked = Vec::new();
        while let Some((code, cfg)) = walk.next_member() {
            walked.push((code, cfg.clone()));
        }
        prop_assert_eq!(&walked, &expected);
        prop_assert!(walk.next_member().is_none(), "a finished walk stays finished");

        let all = space.enumerate();
        prop_assert_eq!(all.len(), expected.len());
        for (cfg, (code, want)) in all.iter().zip(&expected) {
            prop_assert_eq!(cfg, want);
            prop_assert_eq!(space.index_of(cfg), Some(*code));
        }

        let (encoding, codes) = PoolEncoding::enumerate(&space);
        prop_assert_eq!(encoding.n_configs(), expected.len());
        prop_assert_eq!(
            codes.as_slice(),
            expected.iter().map(|(code, _)| *code).collect::<Vec<_>>().as_slice()
        );
        for (i, (_, want)) in expected.iter().enumerate() {
            prop_assert_eq!(&encoding.config(i), want);
            prop_assert_eq!(codes.position(&space, want), Some(i));
        }
    }

    #[test]
    fn walk_calls_the_predicates_in_the_oracles_order(
        cards in proptest::collection::vec(1usize..=4, 1..=3),
        salt in 0u64..1000,
    ) {
        let log: Arc<Mutex<Vec<(u8, Configuration)>>> = Arc::default();
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        for which in 0..2u8 {
            let log = Arc::clone(&log);
            b = b.constraint(format!("c{which}"), move |c, _| {
                log.lock().unwrap().push((which, c.clone()));
                !salted(c, salt + which as u64).is_multiple_of(3)
            });
        }
        let space = b.build().unwrap();
        let _ = oracle(&space);
        let expected = std::mem::take(&mut *log.lock().unwrap());
        let _ = space.enumerate();
        let walked = std::mem::take(&mut *log.lock().unwrap());
        prop_assert_eq!(walked, expected);
    }

    #[test]
    fn index_of_inverts_config_at_and_rejects_non_members(space in arb_constrained_space()) {
        let total = space.product_cardinality().unwrap();
        for i in 0..total {
            prop_assert_eq!(space.index_of(&space.config_at(i)), Some(i));
        }
        let first = space.config_at(0);
        let mut short = first.values().to_vec();
        short.pop();
        prop_assert_eq!(space.index_of(&Configuration::new(short)), None);
        let mut long = first.values().to_vec();
        long.push(ParamValue::Index(0));
        prop_assert_eq!(space.index_of(&Configuration::new(long)), None);
        for (p, def) in space.params().iter().enumerate() {
            let card = def.domain().cardinality().unwrap();
            for bad in [
                ParamValue::Real(0.0),
                ParamValue::Index(card),
                ParamValue::Index(usize::MAX),
            ] {
                let mut cfg = first.clone();
                cfg.set_value(p, bad);
                prop_assert_eq!(space.index_of(&cfg), None, "{:?}", cfg);
            }
        }
    }

    #[test]
    fn neighbor_counts_match_domain_sizes(space in arb_discrete_space()) {
        // Without constraints, |N(v)| = Σ (card_i - 1) for every node.
        let expected: usize = space
            .params()
            .iter()
            .map(|p| p.domain().cardinality().unwrap() - 1)
            .sum();
        for cfg in space.enumerate().iter().take(16) {
            prop_assert_eq!(space.neighbors(cfg).len(), expected);
        }
    }

    #[test]
    fn one_hot_rows_always_sum_to_n_params(space in arb_discrete_space(), seed in 0u64..100) {
        let encoder = Encoder::new(&space, EncodingKind::OneHot);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for cfg in sample_distinct(&space, 4.min(space.product_cardinality().unwrap()), &mut rng) {
            let v = encoder.encode(&cfg);
            let sum: f64 = v.iter().sum();
            prop_assert!((sum - space.n_params() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_encoding_distinguishes_distinct_configs(
        space in arb_discrete_space(),
    ) {
        let encoder = Encoder::new(&space, EncodingKind::Normalized);
        let all = space.enumerate();
        // Any two distinct configurations must encode differently.
        for (i, a) in all.iter().enumerate().step_by(7) {
            for b in all.iter().skip(i + 1).step_by(11) {
                let (ea, eb) = (encoder.encode(a), encoder.encode(b));
                prop_assert_ne!(ea, eb, "{:?} vs {:?}", a, b);
            }
        }
    }

    #[test]
    fn lhs_and_uniform_agree_on_feasibility_and_count(
        space in arb_discrete_space(),
        seed in 0u64..100,
    ) {
        let n = 4.min(space.product_cardinality().unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for samples in [
            sample_distinct(&space, n, &mut rng),
            latin_hypercube(&space, n, &mut rng),
        ] {
            prop_assert_eq!(samples.len(), n);
            for c in &samples {
                prop_assert!(space.is_feasible(c));
                prop_assert_eq!(c.len(), space.n_params());
            }
        }
    }

    #[test]
    fn constraints_shrink_but_never_corrupt_enumeration(
        cards in proptest::collection::vec(2usize..=4, 2..=3),
        threshold in 1usize..6,
    ) {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.iter().enumerate() {
            let vals: Vec<i64> = (0..*c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        let constrained = b
            .constraint("sum <= threshold", move |c: &Configuration, _d: &[ParamDef]| {
                (0..c.len()).map(|i| c.value(i).index()).sum::<usize>() <= threshold
            })
            .build()
            .unwrap();
        let feasible = constrained.enumerate();
        for c in &feasible {
            let sum: usize = (0..c.len()).map(|i| c.value(i).index()).sum();
            prop_assert!(sum <= threshold);
        }
        // the unconstrained count bounds the feasible count
        prop_assert!(feasible.len() <= constrained.product_cardinality().unwrap());
        // all-zeros is always feasible under this constraint
        prop_assert!(!feasible.is_empty());
    }
}

#[test]
fn spaces_the_code_cannot_address_have_no_codes() {
    let mixed = ParameterSpace::builder()
        .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2])))
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .build()
        .unwrap();
    for x in [ParamValue::Real(0.5), ParamValue::Index(0)] {
        let cfg = Configuration::new(vec![ParamValue::Index(0), x]);
        assert_eq!(mixed.index_of(&cfg), None);
    }
    // 2^65 members: the product overflows, so no member has a code.
    let mut b = ParameterSpace::builder();
    for i in 0..65 {
        b = b.param(ParamDef::new(
            format!("p{i}"),
            Domain::discrete_ints(&[0, 1]),
        ));
    }
    let huge = b.build().unwrap();
    assert_eq!(huge.product_cardinality(), None);
    assert_eq!(huge.index_of(&Configuration::from_indices(&[0; 65])), None);
}
