//! Smoothed categorical histograms.
//!
//! For a **discrete** tunable parameter the paper estimates the good/bad
//! densities `p_g(x_i)` and `p_b(x_i)` "using histograms" over the observed
//! values (§III-B.1). A raw histogram assigns probability zero to any value
//! never observed in a class, which would make the expected-improvement
//! ratio `p_g/p_b` degenerate (0/0 or x/0). [`SmoothedHistogram`] therefore
//! applies additive (Laplace) smoothing with a configurable pseudo-count,
//! exactly as reference TPE implementations do for categorical dimensions.

use serde::{Deserialize, Serialize};

/// A categorical probability mass function over `{0, 1, …, n_categories-1}`
/// estimated from observed counts with additive smoothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoothedHistogram {
    counts: Vec<f64>,
    total: f64,
    pseudo_count: f64,
}

impl SmoothedHistogram {
    /// Creates an empty histogram over `n_categories` values with the given
    /// Laplace `pseudo_count`. A positive pseudo-count keeps the pmf
    /// strictly positive; `0` disables smoothing, so unseen categories get
    /// probability exactly zero and downstream density *ratios* may be
    /// non-finite — consumers that allow a zero pseudo-count must tolerate
    /// `-inf`/NaN in log space (see the NaN guards in the tuner's ranking).
    ///
    /// # Panics
    /// Panics if `n_categories == 0` or `pseudo_count` is negative or NaN.
    pub fn new(n_categories: usize, pseudo_count: f64) -> Self {
        assert!(n_categories > 0, "histogram needs at least one category");
        assert!(
            pseudo_count >= 0.0,
            "pseudo-count must be non-negative and not NaN"
        );
        Self {
            counts: vec![0.0; n_categories],
            total: 0.0,
            pseudo_count,
        }
    }

    /// Builds a histogram from observed category indices.
    pub fn from_observations(n_categories: usize, pseudo_count: f64, obs: &[usize]) -> Self {
        let mut h = Self::new(n_categories, pseudo_count);
        for &o in obs {
            h.observe(o);
        }
        h
    }

    /// Records one observation of category `index`, with unit weight.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn observe(&mut self, index: usize) {
        self.observe_weighted(index, 1.0);
    }

    /// Records a weighted observation. Weights are used by the transfer-
    /// learning mixture (paper eqs. 9–10), where source-domain observations
    /// contribute with weight `w`.
    pub fn observe_weighted(&mut self, index: usize, weight: f64) {
        assert!(index < self.counts.len(), "category index out of range");
        assert!(weight >= 0.0, "negative observation weight");
        self.counts[index] += weight;
        self.total += weight;
    }

    /// Removes one previously recorded unit-weight observation of category
    /// `index` — the inverse of [`SmoothedHistogram::observe`], used by the
    /// incremental surrogate engine when an observation migrates between the
    /// good and bad histograms or a constant-liar fantasy is undone.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the category holds less than
    /// unit weight.
    pub fn unobserve(&mut self, index: usize) {
        self.unobserve_weighted(index, 1.0);
    }

    /// Removes a weighted observation. With the integer weights the surrogate
    /// uses, `observe_weighted` followed by `unobserve_weighted` restores the
    /// previous counts **bit-exactly** (f64 add/sub of exact integers is
    /// exact); fractional weights may reintroduce rounding and are only
    /// approximately undone.
    ///
    /// # Panics
    /// Panics if `index` is out of range, `weight` is negative or NaN, or
    /// more weight would be removed than the category holds.
    pub fn unobserve_weighted(&mut self, index: usize, weight: f64) {
        assert!(index < self.counts.len(), "category index out of range");
        assert!(weight >= 0.0, "negative observation weight");
        assert!(
            self.counts[index] >= weight,
            "unobserving more weight than category {index} holds"
        );
        self.counts[index] -= weight;
        self.total -= weight;
    }

    /// Probability mass of category `index` under Laplace smoothing:
    /// `(count + pseudo) / (total + n * pseudo)`.
    pub fn pmf(&self, index: usize) -> f64 {
        assert!(index < self.counts.len(), "category index out of range");
        let n = self.counts.len() as f64;
        (self.counts[index] + self.pseudo_count) / (self.total + n * self.pseudo_count)
    }

    /// The full pmf as a vector (sums to 1).
    pub fn pmf_vec(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|i| self.pmf(i)).collect()
    }

    /// Number of categories.
    pub fn n_categories(&self) -> usize {
        self.counts.len()
    }

    /// Total observed weight (excluding pseudo-counts).
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Raw (unsmoothed) count of a category.
    pub fn count(&self, index: usize) -> f64 {
        self.counts[index]
    }

    /// Returns a new histogram equal to `w * prior + self`, the weighted
    /// mixture of paper eqs. (9)–(10): prior (source-domain) counts are
    /// scaled by `w` and added to the target-domain counts.
    ///
    /// # Panics
    /// Panics if the two histograms have different numbers of categories.
    pub fn with_prior(&self, prior: &SmoothedHistogram, w: f64) -> SmoothedHistogram {
        assert_eq!(
            self.counts.len(),
            prior.counts.len(),
            "prior histogram must cover the same categories"
        );
        assert!(w >= 0.0, "prior weight must be non-negative");
        let counts: Vec<f64> = self
            .counts
            .iter()
            .zip(&prior.counts)
            .map(|(&c, &p)| c + w * p)
            .collect();
        let total = self.total + w * prior.total;
        SmoothedHistogram {
            counts,
            total,
            pseudo_count: self.pseudo_count,
        }
    }

    /// Samples a category index proportionally to the smoothed pmf.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_masses((0..self.counts.len()).map(|i| self.pmf(i)), rng)
    }
}

/// Draws a category index from `masses` (a pmf, in category order): one
/// uniform draw in `[0, 1)`, then the first category whose cumulative mass
/// exceeds it. A caller holding precomputed masses draws exactly the index
/// [`SmoothedHistogram::sample`] would from the same values, consuming the
/// same RNG words.
///
/// # Panics
/// Panics if `masses` is empty.
pub fn sample_masses<R: rand::Rng + ?Sized>(
    masses: impl ExactSizeIterator<Item = f64>,
    rng: &mut R,
) -> usize {
    let last = masses.len().checked_sub(1).expect("no categories");
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for (i, p) in masses.enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    last // floating-point slack lands on the last bin
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_categories_panics() {
        let _ = SmoothedHistogram::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "pseudo-count must be non-negative")]
    fn negative_pseudo_count_panics() {
        let _ = SmoothedHistogram::new(3, -0.5);
    }

    #[test]
    fn zero_pseudo_count_disables_smoothing() {
        let h = SmoothedHistogram::from_observations(3, 0.0, &[0, 0, 1]);
        assert!((h.pmf(0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.pmf(2), 0.0, "unseen category gets zero mass");
    }

    #[test]
    fn empty_histogram_is_uniform() {
        let h = SmoothedHistogram::new(4, 1.0);
        for i in 0..4 {
            assert!((h.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_reflects_counts() {
        let h = SmoothedHistogram::from_observations(3, 1.0, &[0, 0, 0, 1]);
        // counts = [3,1,0], total 4, smoothed: (3+1)/7, (1+1)/7, (0+1)/7
        assert!((h.pmf(0) - 4.0 / 7.0).abs() < 1e-12);
        assert!((h.pmf(1) - 2.0 / 7.0).abs() < 1e-12);
        assert!((h.pmf(2) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn unobserved_category_has_positive_mass() {
        let h = SmoothedHistogram::from_observations(5, 0.5, &[2, 2, 2]);
        for i in 0..5 {
            assert!(h.pmf(i) > 0.0);
        }
    }

    #[test]
    fn weighted_observations() {
        let mut h = SmoothedHistogram::new(2, 1.0);
        h.observe_weighted(0, 3.0);
        h.observe_weighted(1, 1.0);
        assert!((h.pmf(0) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.total_weight(), 4.0);
    }

    #[test]
    fn prior_mixture_matches_manual_computation() {
        let target = SmoothedHistogram::from_observations(2, 1.0, &[0]);
        let source = SmoothedHistogram::from_observations(2, 1.0, &[1, 1]);
        let mixed = target.with_prior(&source, 0.5);
        // counts = [1 + 0.5*0, 0 + 0.5*2] = [1, 1], total 2
        assert!((mixed.pmf(0) - 0.5).abs() < 1e-12);
        assert!((mixed.pmf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prior_with_zero_weight_is_identity() {
        let target = SmoothedHistogram::from_observations(3, 1.0, &[0, 1, 1]);
        let source = SmoothedHistogram::from_observations(3, 1.0, &[2, 2, 2, 2]);
        let mixed = target.with_prior(&source, 0.0);
        for i in 0..3 {
            assert_eq!(mixed.pmf(i), target.pmf(i));
        }
    }

    #[test]
    #[should_panic(expected = "same categories")]
    fn prior_with_mismatched_categories_panics() {
        let a = SmoothedHistogram::new(2, 1.0);
        let b = SmoothedHistogram::new(3, 1.0);
        let _ = a.with_prior(&b, 1.0);
    }

    #[test]
    fn sampling_respects_distribution() {
        let h = SmoothedHistogram::from_observations(2, 0.01, &[0; 99]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let hits = (0..1000).filter(|_| h.sample(&mut rng) == 0).count();
        assert!(
            hits > 950,
            "expected ~99% of samples in category 0, got {hits}"
        );
    }

    #[test]
    fn unobserve_is_bit_exact_inverse_of_observe() {
        let mut h = SmoothedHistogram::from_observations(4, 1.0, &[0, 1, 1, 3]);
        let before: Vec<u64> = (0..4).map(|i| h.pmf(i).to_bits()).collect();
        let total_before = h.total_weight().to_bits();
        h.observe(2);
        h.observe(0);
        h.unobserve(0);
        h.unobserve(2);
        let after: Vec<u64> = (0..4).map(|i| h.pmf(i).to_bits()).collect();
        assert_eq!(before, after);
        assert_eq!(h.total_weight().to_bits(), total_before);
    }

    #[test]
    #[should_panic(expected = "more weight")]
    fn unobserving_an_empty_category_panics() {
        let mut h = SmoothedHistogram::new(2, 1.0);
        h.unobserve(0);
    }

    proptest! {
        #[test]
        fn observe_unobserve_sequences_restore_bits(
            n in 1usize..8,
            obs in proptest::collection::vec(0usize..8, 1..40),
        ) {
            let obs: Vec<usize> = obs.into_iter().map(|o| o % n).collect();
            let mut h = SmoothedHistogram::from_observations(n, 0.5, &obs);
            let snapshot: Vec<u64> = (0..n).map(|i| h.count(i).to_bits()).collect();
            let total = h.total_weight().to_bits();
            // Apply the same observations again, then undo them in reverse.
            for &o in &obs {
                h.observe(o);
            }
            for &o in obs.iter().rev() {
                h.unobserve(o);
            }
            let restored: Vec<u64> = (0..n).map(|i| h.count(i).to_bits()).collect();
            prop_assert_eq!(snapshot, restored);
            prop_assert_eq!(h.total_weight().to_bits(), total);
        }

        #[test]
        fn pmf_sums_to_one(
            n in 1usize..20,
            obs in proptest::collection::vec(0usize..20, 0..100),
            pseudo in 0.01f64..10.0,
        ) {
            let obs: Vec<usize> = obs.into_iter().map(|o| o % n).collect();
            let h = SmoothedHistogram::from_observations(n, pseudo, &obs);
            let sum: f64 = h.pmf_vec().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn more_observations_increase_mass(
            n in 2usize..10,
            k in 1usize..50,
        ) {
            let obs = vec![0usize; k];
            let h = SmoothedHistogram::from_observations(n, 1.0, &obs);
            prop_assert!(h.pmf(0) > h.pmf(1));
        }

        #[test]
        fn sample_is_in_range(
            n in 1usize..10,
            seed in 0u64..1000,
        ) {
            let h = SmoothedHistogram::new(n, 1.0);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let s = h.sample(&mut rng);
            prop_assert!(s < n);
        }
    }
}
