//! Property-based invariants tying the space substrate's pieces together:
//! enumeration, indexing, neighborhoods, sampling, and encodings must agree
//! on randomized spaces.

use hiperbot_space::sampling::{latin_hypercube, sample_distinct};
use hiperbot_space::{
    Configuration, Domain, Encoder, EncodingKind, ParamDef, ParamValue, ParameterSpace,
    PoolEncoding, SpaceError,
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

/// Calls a space's predicates logged: the constraint's position in
/// declaration order and the indices of the configuration it was handed.
type CallLog = Arc<Mutex<Vec<(usize, Vec<usize>)>>>;

/// A random space mixing constraints declared on a prefix with plain
/// ones: 1–5 parameters of 1–5 values and up to four salted-hash
/// constraints, each rejecting about a third of the values it reads.
/// `Some(k)` declares a constraint on the first `k` parameters (`k` may be
/// the parameter count: the plain form spelled out); `None` leaves it
/// plain.
#[derive(Debug, Clone)]
struct MixedSpec {
    cards: Vec<usize>,
    constraints: Vec<(Option<usize>, u64)>,
}

fn arb_mixed_spec() -> impl Strategy<Value = MixedSpec> {
    (
        proptest::collection::vec(1usize..=5, 1..=5),
        proptest::collection::vec((0usize..=5, 0u64..1000), 0..=4),
    )
        .prop_map(|(cards, cs)| {
            let n = cards.len();
            let constraints = cs
                .into_iter()
                .map(|(k, salt)| ((k > 0).then(|| 1 + (k - 1) % n), salt))
                .collect();
            MixedSpec { cards, constraints }
        })
}

impl MixedSpec {
    /// How many leading values constraint `c` reads.
    fn reads(&self, c: usize) -> usize {
        self.constraints[c].0.unwrap_or(self.cards.len())
    }

    /// Whether constraint `c` holds on a configuration starting with
    /// `values`; it reads only its first `reads(c)`.
    fn holds(&self, c: usize, values: &[usize]) -> bool {
        let read = Configuration::from_indices(&values[..self.reads(c)]);
        !salted(&read, self.constraints[c].1).is_multiple_of(3)
    }

    /// The space, each predicate logging its calls into `log`.
    fn build(&self, log: &CallLog) -> ParameterSpace {
        let mut b = ParameterSpace::builder();
        for (i, &c) in self.cards.iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        for (id, &(k, _)) in self.constraints.iter().enumerate() {
            let (log, spec) = (Arc::clone(log), self.clone());
            let predicate = move |c: &Configuration, _: &[ParamDef]| {
                let handed: Vec<usize> = c.values().iter().map(|v| v.index()).collect();
                let ok = spec.holds(id, &handed);
                log.lock().unwrap().push((id, handed));
                ok
            };
            b = match k {
                Some(k) => b.constraint_within(format!("c{id}"), k, predicate),
                None => b.constraint(format!("c{id}"), predicate),
            };
        }
        b.build().expect("valid")
    }

    /// The declared-prefix constraints a walk stages (prefix shorter than
    /// the space), in the order it tests them: shortest prefix first, ties
    /// in declaration order.
    fn stages(&self) -> Vec<usize> {
        let n = self.cards.len();
        let mut stages: Vec<usize> = (0..self.constraints.len())
            .filter(|&c| self.constraints[c].0.is_some_and(|k| k < n))
            .collect();
        stages.sort_by_key(|&c| self.reads(c));
        stages
    }

    /// Every `k`-prefix of the product, in code order.
    fn prefixes(&self, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for &card in &self.cards[..k] {
            out = out
                .into_iter()
                .flat_map(|p| {
                    (0..card).map(move |v| {
                        let mut p = p.clone();
                        p.push(v);
                        p
                    })
                })
                .collect();
        }
        out
    }

    /// The calls a walk must make, by constraint: each staged predicate
    /// once per prefix the walk reaches — every prefix, in code order, on
    /// which the stages tested before it hold — and the others on every
    /// member the stages admit, in code order, until one fails.
    fn expected_calls(&self) -> Vec<Vec<Vec<usize>>> {
        let mut calls = vec![Vec::new(); self.constraints.len()];
        let stages = self.stages();
        for (at, &c) in stages.iter().enumerate() {
            calls[c] = self
                .prefixes(self.reads(c))
                .into_iter()
                .filter(|p| stages[..at].iter().all(|&s| self.holds(s, p)))
                .collect();
        }
        let whole: Vec<usize> = (0..self.constraints.len())
            .filter(|c| !stages.contains(c))
            .collect();
        for member in self.prefixes(self.cards.len()) {
            if !stages.iter().all(|&s| self.holds(s, &member)) {
                continue;
            }
            for &c in &whole {
                calls[c].push(member.clone());
                if !self.holds(c, &member) {
                    break;
                }
            }
        }
        calls
    }
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
    fn staged_walks_match_the_config_at_oracle(spec in arb_mixed_spec()) {
        let space = spec.build(&CallLog::default());
        let expected = oracle(&space);
        let mut walk = space.walk();
        let mut walked = Vec::new();
        while let Some((code, cfg)) = walk.next_member() {
            walked.push((code, cfg.clone()));
        }
        prop_assert_eq!(&walked, &expected);
        prop_assert!(walk.next_member().is_none(), "a finished walk stays finished");

        let all = space.enumerate();
        prop_assert_eq!(
            &all,
            &expected.iter().map(|(_, cfg)| cfg.clone()).collect::<Vec<_>>()
        );

        let (encoding, codes) = PoolEncoding::enumerate(&space);
        prop_assert_eq!(encoding.n_configs(), expected.len());
        prop_assert_eq!(
            codes.as_slice(),
            expected.iter().map(|(code, _)| *code).collect::<Vec<_>>().as_slice()
        );
        for (i, (_, want)) in expected.iter().enumerate() {
            prop_assert_eq!(&encoding.config(i), want);
        }
    }

    #[test]
    fn staged_predicates_run_once_per_prefix_the_walk_reaches(spec in arb_mixed_spec()) {
        let log = CallLog::default();
        let space = spec.build(&log);
        let _ = space.enumerate();
        let mut calls = vec![Vec::new(); spec.constraints.len()];
        for (c, handed) in std::mem::take(&mut *log.lock().unwrap()) {
            calls[c].push(handed);
        }
        prop_assert_eq!(calls, spec.expected_calls(), "{:?}", spec);
    }

    #[test]
    fn prefixes_outside_the_space_are_errors(
        cards in proptest::collection::vec(1usize..=3, 1..=4),
        past in 1usize..=3,
    ) {
        let n = cards.len();
        for k in [0, n + past] {
            let mut b = ParameterSpace::builder();
            for (i, &c) in cards.iter().enumerate() {
                let vals: Vec<i64> = (0..c as i64).collect();
                b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
            }
            let err = b
                .constraint("plain", |_, _| true)
                .constraint_within("bad", k, |_, _| true)
                .build()
                .unwrap_err();
            prop_assert_eq!(
                err,
                SpaceError::InvalidPrefix { constraint: "bad".into(), prefix: k, n_params: n }
            );
        }
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

/// A three-parameter space whose one constraint is declared on the first
/// two parameters; `predicate` stands for what it really reads.
fn declared_on_two(
    predicate: impl Fn(&Configuration, &[ParamDef]) -> bool + Send + Sync + 'static,
) -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for i in 0..3 {
        b = b.param(ParamDef::new(
            format!("p{i}"),
            Domain::discrete_ints(&[1, 2]),
        ));
    }
    b.constraint_within("declared on p0, p1", 2, predicate)
        .build()
        .unwrap()
}

#[test]
#[should_panic(expected = "out of bounds")]
fn a_predicate_reading_a_value_past_its_prefix_panics_in_the_walk() {
    let space = declared_on_two(|c, _| c.value(2).index() == 0);
    // Whole configurations hide the mistake...
    assert!(space.is_feasible(&Configuration::from_indices(&[0, 0, 0])));
    // ...the walk does not.
    let _ = space.enumerate();
}

#[test]
#[should_panic(expected = "out of")]
fn a_predicate_reading_a_definition_past_its_prefix_panics_in_the_walk() {
    let space = declared_on_two(|c, d| c.numeric_value(1, &d[2]) > 0.0);
    let _ = PoolEncoding::enumerate(&space);
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
