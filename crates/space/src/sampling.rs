//! Random configuration sampling.
//!
//! HiPerBOt bootstraps with "a small set of training samples uniformly at
//! random from the configuration space" (paper §III-C step 1) — 20 samples
//! in the paper's experiments. The Random baseline (§V) is the same sampler
//! run for the whole budget.

use crate::config::{Configuration, ParamValue};
use crate::space::ParameterSpace;
use rand::Rng;
use rustc_hash::FxHashSet;

/// How many rejection-sampling attempts to make per requested sample before
/// concluding the feasible region is too small to sample.
const MAX_REJECTIONS_PER_SAMPLE: usize = 10_000;

/// Draws one configuration uniformly from the unconstrained product
/// (discrete params by index, continuous params uniformly in range).
fn sample_unconstrained<R: Rng + ?Sized>(space: &ParameterSpace, rng: &mut R) -> Configuration {
    let values = space
        .params()
        .iter()
        .map(|p| match p.domain() {
            crate::param::Domain::Discrete(v) => ParamValue::Index(rng.gen_range(0..v.len())),
            crate::param::Domain::Continuous { lo, hi } => {
                ParamValue::Real(rng.gen_range(*lo..*hi))
            }
        })
        .collect();
    Configuration::new(values)
}

/// Draws one **feasible** configuration uniformly at random, by rejection.
///
/// # Panics
/// Panics if no feasible configuration is found within the rejection budget
/// (the feasible region is empty or vanishingly small).
pub fn sample_uniform<R: Rng + ?Sized>(space: &ParameterSpace, rng: &mut R) -> Configuration {
    for _ in 0..MAX_REJECTIONS_PER_SAMPLE {
        let c = sample_unconstrained(space, rng);
        if space.is_feasible(&c) {
            return c;
        }
    }
    panic!("could not sample a feasible configuration: feasible region too small");
}

/// Draws `n` **distinct** feasible configurations uniformly at random.
///
/// Falls back to enumerating the feasible set when the space is fully
/// discrete and `n` is a large fraction of it, to stay efficient near
/// exhaustion; for continuous spaces distinctness is near-automatic.
///
/// # Panics
/// Panics if the space cannot supply `n` distinct feasible configurations.
pub fn sample_distinct<R: Rng + ?Sized>(
    space: &ParameterSpace,
    n: usize,
    rng: &mut R,
) -> Vec<Configuration> {
    if space.is_fully_discrete() {
        // When asking for a big fraction of a small discrete space, rejection
        // sampling for distinctness degenerates; shuffle the feasible set.
        let product = space.product_cardinality().expect("discrete");
        if product <= 4 * n || product <= 4096 {
            let mut all = space.enumerate();
            assert!(
                all.len() >= n,
                "requested {n} distinct configurations but only {} are feasible",
                all.len()
            );
            partial_shuffle(&mut all, n, rng);
            all.truncate(n);
            return all;
        }
    }
    let mut seen = FxHashSet::default();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts <= MAX_REJECTIONS_PER_SAMPLE * n.max(1),
            "could not draw {n} distinct feasible configurations"
        );
        let c = sample_uniform(space, rng);
        if seen.insert(c.clone()) {
            out.push(c);
        }
    }
    out
}

/// Fisher–Yates shuffle of just the first `n` positions (all we consume).
fn partial_shuffle<T, R: Rng + ?Sized>(items: &mut [T], n: usize, rng: &mut R) {
    let len = items.len();
    for i in 0..n.min(len.saturating_sub(1)) {
        let j = rng.gen_range(i..len);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Domain, ParamDef};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space_2x3() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_sample_is_feasible() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .constraint("even", |c, _| c.value(0).index() % 2 == 0)
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(s.is_feasible(&sample_uniform(&s, &mut rng)));
        }
    }

    #[test]
    fn uniform_sample_covers_the_space() {
        let s = space_2x3();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(sample_uniform(&s, &mut rng));
        }
        assert_eq!(seen.len(), 6, "all 6 configurations should appear");
    }

    #[test]
    fn distinct_samples_are_distinct() {
        let s = space_2x3();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let samples = sample_distinct(&s, 6, &mut rng);
        let set: std::collections::HashSet<_> = samples.iter().cloned().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn too_many_distinct_panics() {
        let s = space_2x3();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = sample_distinct(&s, 7, &mut rng);
    }

    #[test]
    fn continuous_sampling_stays_in_range() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(-2.0, 3.0)))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..100 {
            let c = sample_uniform(&s, &mut rng);
            let v = c.value(0).as_f64();
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn distinct_on_large_space_uses_rejection_path() {
        let vals: Vec<i64> = (0..40).collect();
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("b", Domain::discrete_ints(&vals)))
            .param(ParamDef::new("c", Domain::discrete_ints(&vals)))
            .build()
            .unwrap(); // 64000 configs > 4096 and > 4n
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let samples = sample_distinct(&s, 50, &mut rng);
        let set: std::collections::HashSet<_> = samples.iter().cloned().collect();
        assert_eq!(set.len(), 50);
    }

    proptest! {
        #[test]
        fn sampling_is_deterministic_per_seed(seed in 0u64..500) {
            let s = space_2x3();
            let mut r1 = ChaCha8Rng::seed_from_u64(seed);
            let mut r2 = ChaCha8Rng::seed_from_u64(seed);
            prop_assert_eq!(
                sample_distinct(&s, 4, &mut r1),
                sample_distinct(&s, 4, &mut r2)
            );
        }

        #[test]
        fn distinct_count_honored(n in 1usize..6, seed in 0u64..100) {
            let s = space_2x3();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let samples = sample_distinct(&s, n, &mut rng);
            prop_assert_eq!(samples.len(), n);
        }
    }
}
