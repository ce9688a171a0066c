//! Gaussian kernel density estimation.
//!
//! For **continuous** tunable parameters the paper estimates the good/bad
//! densities with KDE using "gaussian kernels with a fixed bandwidth"
//! (§III-B.2). [`GaussianKde`] implements exactly that, plus Silverman's
//! rule-of-thumb bandwidth for callers that do not want to pick one, and
//! sampling from the estimated density — required by the *Proposal*
//! selection strategy (§III-D), which draws candidate configurations from
//! `p_g(x)`.

use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Bandwidth selection policy for [`GaussianKde`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bandwidth {
    /// A fixed bandwidth, as used in the paper's implementation.
    Fixed(f64),
    /// Silverman's rule of thumb: `0.9 · min(σ, IQR/1.34) · n^(-1/5)`,
    /// clamped below by a small floor so degenerate samples stay usable.
    Silverman,
}

/// The buffers of [`GaussianKde::log_pdf_batch_in`], lent by a caller that
/// evaluates densities batch after batch: the usable kernels with their
/// log-weights, and one point's kernel terms.
#[derive(Debug, Clone, Default)]
pub struct KdeScratch {
    kernels: Vec<(f64, f64)>,
    terms: Vec<f64>,
}

/// A one-dimensional Gaussian kernel density estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianKde {
    points: Vec<f64>,
    weights: Vec<f64>,
    total_weight: f64,
    bandwidth: f64,
}

impl GaussianKde {
    /// Fits a KDE to `points` with equal weights.
    ///
    /// # Panics
    /// Panics if `points` is empty, or `Bandwidth::Fixed` is non-positive.
    pub fn fit(points: &[f64], bandwidth: Bandwidth) -> Self {
        Self::fit_weighted(points, &vec![1.0; points.len()], bandwidth)
    }

    /// Fits a KDE with per-point weights. Weights let the transfer-learning
    /// mixture (paper eqs. 9–10) down-weight source-domain observations.
    ///
    /// # Panics
    /// Panics if `points` is empty, lengths differ, any weight is negative,
    /// or all weights are zero.
    pub fn fit_weighted(points: &[f64], weights: &[f64], bandwidth: Bandwidth) -> Self {
        assert!(!points.is_empty(), "KDE requires at least one point");
        assert_eq!(
            points.len(),
            weights.len(),
            "points/weights length mismatch"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "KDE weights must be non-negative"
        );
        let total_weight: f64 = weights.iter().sum();
        assert!(total_weight > 0.0, "KDE needs positive total weight");

        let bw = match bandwidth {
            Bandwidth::Fixed(h) => {
                assert!(h > 0.0, "fixed bandwidth must be positive");
                h
            }
            Bandwidth::Silverman => silverman_bandwidth(points),
        };
        Self {
            points: points.to_vec(),
            weights: weights.to_vec(),
            total_weight,
            bandwidth: bw,
        }
    }

    /// Evaluates the density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let mut acc = 0.0;
        for (&p, &w) in self.points.iter().zip(&self.weights) {
            let z = (x - p) / h;
            acc += w * (-0.5 * z * z).exp();
        }
        acc * INV_SQRT_2PI / (self.total_weight * h)
    }

    /// Evaluates the log-density at `x` (useful for products over many
    /// parameters without underflow).
    ///
    /// Computed by log-sum-exp over the kernel log-densities rather than
    /// `ln(pdf(x))`: `pdf(x)` underflows to 0 beyond `z ≈ 38` bandwidths,
    /// which would floor every far-tail candidate at the same value and
    /// collapse EI ranking among them. With LSE the result stays exact (and
    /// distance-ordered) out to `z ≈ 1e154`. Returns `-inf` only when the
    /// density is a true zero in exact arithmetic (e.g. `x = ±inf`).
    pub fn log_pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        // Terms of ln Σ w_i · exp(-z_i²/2): t_i = ln(w_i) - z_i²/2.
        // Pass 1: the max term anchors the exponent rescaling.
        let mut max_t = f64::NEG_INFINITY;
        for (&p, &w) in self.points.iter().zip(&self.weights) {
            if w == 0.0 {
                continue;
            }
            let z = (x - p) / h;
            let t = w.ln() - 0.5 * z * z;
            if t > max_t {
                max_t = t;
            }
        }
        if !max_t.is_finite() {
            // Every term is -inf (x infinite, or all usable weights zero):
            // the density is zero everywhere we can resolve.
            return f64::NEG_INFINITY;
        }
        // Pass 2: Σ exp(t_i - max_t) ∈ [1, n], so the ln is exact.
        let mut acc = 0.0;
        for (&p, &w) in self.points.iter().zip(&self.weights) {
            if w == 0.0 {
                continue;
            }
            let z = (x - p) / h;
            acc += ((w.ln() - 0.5 * z * z) - max_t).exp();
        }
        max_t + acc.ln() + INV_SQRT_2PI.ln() - (self.total_weight * h).ln()
    }

    /// Evaluates the log-density at every point of `xs`, writing into
    /// `out`. Bit-identical to calling [`GaussianKde::log_pdf`] per point.
    ///
    /// The batch form hoists the candidate-independent work out of the
    /// per-candidate loop — `ln(w_i)` per kernel, the normalizer
    /// `ln(W·h)`, and the zero-weight filter — and stores the pass-1 terms
    /// `t_i = ln(w_i) - z_i²/2` so pass 2 reuses them instead of
    /// recomputing. Every floating-point expression the scalar path
    /// evaluates per candidate is kept in the same form and the same
    /// left-to-right order (the stored `t_i` round-trips exactly; `ln` of
    /// the same input is deterministic), so each `out[c]` carries the same
    /// bits `log_pdf(xs[c])` would.
    ///
    /// # Panics
    /// Panics if `xs` and `out` differ in length.
    pub fn log_pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        self.log_pdf_batch_in(xs, out, &mut KdeScratch::default());
    }

    /// [`log_pdf_batch`](Self::log_pdf_batch) with caller-held buffers: it
    /// allocates nothing once `scratch` has held as many kernels.
    ///
    /// # Panics
    /// Panics if `xs` and `out` differ in length.
    pub fn log_pdf_batch_in(&self, xs: &[f64], out: &mut [f64], scratch: &mut KdeScratch) {
        assert_eq!(xs.len(), out.len(), "xs/out length mismatch");
        let h = self.bandwidth;
        let log_norm_num = INV_SQRT_2PI.ln();
        let log_norm_den = (self.total_weight * h).ln();
        let KdeScratch { kernels, terms } = scratch;
        kernels.clear();
        kernels.extend(
            self.points
                .iter()
                .zip(&self.weights)
                .filter(|&(_, &w)| w != 0.0)
                .map(|(&p, &w)| (p, w.ln())),
        );
        terms.clear();
        terms.resize(kernels.len(), 0.0);
        for (&x, o) in xs.iter().zip(out.iter_mut()) {
            let mut max_t = f64::NEG_INFINITY;
            for (&(p, ln_w), t) in kernels.iter().zip(terms.iter_mut()) {
                let z = (x - p) / h;
                let term = ln_w - 0.5 * z * z;
                *t = term;
                if term > max_t {
                    max_t = term;
                }
            }
            if !max_t.is_finite() {
                *o = f64::NEG_INFINITY;
                continue;
            }
            let mut acc = 0.0;
            for &t in terms.iter() {
                acc += (t - max_t).exp();
            }
            *o = max_t + acc.ln() + log_norm_num - log_norm_den;
        }
    }

    /// Draws one sample: pick a kernel center proportionally to its weight,
    /// then add Gaussian noise of the bandwidth scale.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut u: f64 = rng.gen_range(0.0..self.total_weight);
        let mut center = *self.points.last().expect("non-empty");
        for (&p, &w) in self.points.iter().zip(&self.weights) {
            if u < w {
                center = p;
                break;
            }
            u -= w;
        }
        let normal = Normal::new(center, self.bandwidth).expect("positive bandwidth");
        normal.sample(rng)
    }

    /// Inserts a kernel center at storage position `at`, shifting later
    /// points right — the delta counterpart of re-fitting with the point
    /// spliced into the input slice at the same position.
    ///
    /// The total weight is recomputed by a full left-to-right re-sum so it
    /// stays **bit-identical** to what [`GaussianKde::fit_weighted`] would
    /// compute on the resulting point/weight vectors; [`GaussianKde::log_pdf`]
    /// iterates in storage order, so an incrementally maintained KDE whose
    /// vectors match a from-scratch fit evaluates to identical bits.
    ///
    /// # Panics
    /// Panics if `at > len()` or `weight` is negative or NaN.
    pub fn insert_point(&mut self, at: usize, point: f64, weight: f64) {
        assert!(at <= self.points.len(), "insertion position out of range");
        assert!(weight >= 0.0, "KDE weights must be non-negative");
        self.points.insert(at, point);
        self.weights.insert(at, weight);
        self.total_weight = self.weights.iter().sum();
    }

    /// Removes the kernel center at storage position `at`, returning the
    /// `(point, weight)` pair. The total weight is re-summed as in
    /// [`GaussianKde::insert_point`].
    ///
    /// Removing the last center leaves an empty estimate whose densities are
    /// undefined (`fit_weighted` rejects that state); callers maintaining a
    /// KDE incrementally must drop or refill an emptied instance before
    /// evaluating it.
    ///
    /// # Panics
    /// Panics if `at >= len()`.
    pub fn remove_point(&mut self, at: usize) -> (f64, f64) {
        assert!(at < self.points.len(), "removal position out of range");
        let p = self.points.remove(at);
        let w = self.weights.remove(at);
        self.total_weight = self.weights.iter().sum();
        (p, w)
    }

    /// The kernel centers in storage order.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The per-center weights in storage order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total weight (the normalizing constant of the mixture).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The bandwidth in use (after rule-of-thumb resolution).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of kernel centers.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the KDE has no kernel centers (never true for a constructed
    /// instance; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Silverman's rule-of-thumb bandwidth with an IQR correction and a floor.
pub fn silverman_bandwidth(points: &[f64]) -> f64 {
    assert!(!points.is_empty());
    let n = points.len() as f64;
    let mean = points.iter().sum::<f64>() / n;
    let var = points.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt();

    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KDE input"));
    let iqr = crate::quantile::quantile_sorted(&sorted, 0.75)
        - crate::quantile::quantile_sorted(&sorted, 0.25);

    let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
    let h = 0.9 * spread * n.powf(-0.2);
    // Floor: degenerate samples (all identical) still need a usable kernel.
    let scale = sorted.last().unwrap().abs().max(1.0);
    h.max(1e-3 * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_panics() {
        let _ = GaussianKde::fit(&[], Bandwidth::Fixed(1.0));
    }

    #[test]
    #[should_panic(expected = "fixed bandwidth must be positive")]
    fn non_positive_bandwidth_panics() {
        let _ = GaussianKde::fit(&[1.0], Bandwidth::Fixed(0.0));
    }

    #[test]
    fn single_point_is_a_gaussian() {
        let kde = GaussianKde::fit(&[0.0], Bandwidth::Fixed(1.0));
        // peak density of N(0,1) is 1/sqrt(2*pi)
        assert!((kde.pdf(0.0) - INV_SQRT_2PI).abs() < 1e-12);
        assert!(kde.pdf(1.0) < kde.pdf(0.0));
        assert!((kde.pdf(1.0) - kde.pdf(-1.0)).abs() < 1e-12);
    }

    #[test]
    fn density_integrates_to_one() {
        let kde = GaussianKde::fit(&[0.0, 1.0, 5.0, 5.5], Bandwidth::Fixed(0.5));
        // trapezoid rule over a wide interval
        let (lo, hi, n) = (-10.0, 16.0, 20_000);
        let dx = (hi - lo) / n as f64;
        let mut integral = 0.0;
        for i in 0..=n {
            let x = lo + i as f64 * dx;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            integral += w * kde.pdf(x) * dx;
        }
        assert!((integral - 1.0).abs() < 1e-4, "integral = {integral}");
    }

    #[test]
    fn density_is_higher_near_data() {
        let kde = GaussianKde::fit(&[2.0, 2.1, 1.9, 2.05], Bandwidth::Fixed(0.2));
        assert!(kde.pdf(2.0) > kde.pdf(0.0));
        assert!(kde.pdf(2.0) > kde.pdf(4.0));
    }

    #[test]
    fn weights_shift_the_density() {
        let kde = GaussianKde::fit_weighted(&[0.0, 10.0], &[9.0, 1.0], Bandwidth::Fixed(1.0));
        assert!(kde.pdf(0.0) > 5.0 * kde.pdf(10.0));
    }

    #[test]
    fn silverman_handles_identical_points() {
        let kde = GaussianKde::fit(&[3.0, 3.0, 3.0], Bandwidth::Silverman);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.pdf(3.0).is_finite());
    }

    #[test]
    fn silverman_scales_down_with_n() {
        let few: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let many: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&many) < silverman_bandwidth(&few));
    }

    #[test]
    fn samples_concentrate_near_kernels() {
        let kde = GaussianKde::fit(&[5.0], Bandwidth::Fixed(0.1));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let samples: Vec<f64> = (0..1000).map(|_| kde.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_kernels() {
        let kde = GaussianKde::fit_weighted(&[0.0, 100.0], &[99.0, 1.0], Bandwidth::Fixed(0.1));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let near_zero = (0..1000)
            .map(|_| kde.sample(&mut rng))
            .filter(|&s| s < 50.0)
            .count();
        assert!(near_zero > 950, "{near_zero} / 1000 near the heavy kernel");
    }

    #[test]
    fn log_pdf_is_finite_far_from_data() {
        let kde = GaussianKde::fit(&[0.0], Bandwidth::Fixed(0.01));
        assert!(kde.log_pdf(1e6).is_finite());
    }

    // Regression: `log_pdf` used to compute `ln(pdf(x))`, which underflows
    // to `ln(MIN_POSITIVE)` for any point beyond ~38 bandwidths — all
    // far-tail candidates collapsed to the same log-density and EI could no
    // longer rank them. LSE keeps them in distance order.
    #[test]
    fn log_pdf_ranks_far_points_in_distance_order() {
        let kde = GaussianKde::fit(&[0.0], Bandwidth::Fixed(1.0));
        // Both of these underflow pdf() to exactly 0.0.
        assert_eq!(kde.pdf(50.0), 0.0);
        assert_eq!(kde.pdf(60.0), 0.0);
        let near = kde.log_pdf(50.0);
        let far = kde.log_pdf(60.0);
        assert!(near.is_finite() && far.is_finite());
        assert!(
            near > far,
            "closer point must have higher log-density: {near} vs {far}"
        );
        // And the values are the analytic ones, not a floor.
        let expect = |z: f64| -0.5 * z * z + INV_SQRT_2PI.ln();
        assert!((near - expect(50.0)).abs() < 1e-9);
        assert!((far - expect(60.0)).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_matches_ln_pdf_where_pdf_is_healthy() {
        let kde = GaussianKde::fit_weighted(
            &[0.0, 1.0, 5.0, 5.5],
            &[1.0, 2.0, 0.5, 1.5],
            Bandwidth::Fixed(0.5),
        );
        for x in [-2.0, 0.0, 0.7, 3.0, 5.2, 8.0] {
            let direct = kde.pdf(x).ln();
            let lse = kde.log_pdf(x);
            assert!((direct - lse).abs() < 1e-12, "x={x}: {direct} vs {lse}");
        }
    }

    #[test]
    fn log_pdf_skips_zero_weight_kernels() {
        // A zero-weight kernel at the query point must not contribute
        // (ln(0) would poison the max pass).
        let kde = GaussianKde::fit_weighted(&[0.0, 10.0], &[0.0, 1.0], Bandwidth::Fixed(1.0));
        let at_dead_kernel = kde.log_pdf(0.0);
        assert!(at_dead_kernel.is_finite());
        let expect = -0.5 * 100.0 + INV_SQRT_2PI.ln();
        assert!((at_dead_kernel - expect).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_at_infinity_is_neg_infinity() {
        let kde = GaussianKde::fit(&[0.0, 1.0], Bandwidth::Fixed(1.0));
        assert_eq!(kde.log_pdf(f64::INFINITY), f64::NEG_INFINITY);
        assert_eq!(kde.log_pdf(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn log_pdf_batch_matches_scalar_bitwise() {
        let kde = GaussianKde::fit_weighted(
            &[0.0, 1.0, 5.0, 5.5],
            &[1.0, 2.0, 0.5, 1.5],
            Bandwidth::Fixed(0.5),
        );
        let xs = [-2.0, 0.0, 0.7, 3.0, 5.2, 8.0, 1e6, -1e6];
        let mut out = vec![0.0; xs.len()];
        kde.log_pdf_batch(&xs, &mut out);
        for (&x, &b) in xs.iter().zip(&out) {
            assert_eq!(kde.log_pdf(x).to_bits(), b.to_bits(), "x={x}");
        }
    }

    #[test]
    fn log_pdf_batch_handles_degenerate_inputs_like_scalar() {
        // Zero-weight kernels, infinite queries, NaN queries: every edge
        // the scalar path defines, bit for bit.
        let kde =
            GaussianKde::fit_weighted(&[0.0, 10.0, -3.0], &[0.0, 1.0, 2.0], Bandwidth::Fixed(1.0));
        let xs = [0.0, 10.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300];
        let mut out = vec![0.0; xs.len()];
        kde.log_pdf_batch(&xs, &mut out);
        for (&x, &b) in xs.iter().zip(&out) {
            let s = kde.log_pdf(x);
            assert_eq!(s.to_bits(), b.to_bits(), "x={x}: scalar {s} vs batch {b}");
        }
    }

    #[test]
    fn log_pdf_batch_with_all_zero_usable_weights_is_neg_infinity() {
        // One positive weight keeps the fit constructible; zero it out via
        // insert/remove so every *usable* kernel has weight zero.
        let mut kde = GaussianKde::fit_weighted(&[0.0, 5.0], &[0.0, 1.0], Bandwidth::Fixed(1.0));
        kde.remove_point(1);
        kde.insert_point(1, 5.0, 0.0);
        // total_weight is now 0.0; the scalar path returns -inf for any x.
        let xs = [0.0, 5.0, 100.0];
        let mut out = vec![1.0; xs.len()];
        kde.log_pdf_batch(&xs, &mut out);
        for (&x, &b) in xs.iter().zip(&out) {
            assert_eq!(kde.log_pdf(x).to_bits(), b.to_bits(), "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn log_pdf_batch_rejects_mismatched_buffers() {
        let kde = GaussianKde::fit(&[0.0], Bandwidth::Fixed(1.0));
        let mut out = vec![0.0; 2];
        kde.log_pdf_batch(&[1.0], &mut out);
    }

    #[test]
    fn insert_point_matches_refit_bitwise() {
        let pts = [0.0, 1.0, 5.0];
        let wts = [1.0, 2.0, 1.0];
        let mut kde = GaussianKde::fit_weighted(&pts, &wts, Bandwidth::Fixed(0.5));
        kde.insert_point(1, 0.7, 1.0);
        let refit = GaussianKde::fit_weighted(
            &[0.0, 0.7, 1.0, 5.0],
            &[1.0, 1.0, 2.0, 1.0],
            Bandwidth::Fixed(0.5),
        );
        assert_eq!(kde.points(), refit.points());
        assert_eq!(kde.weights(), refit.weights());
        assert_eq!(kde.total_weight().to_bits(), refit.total_weight().to_bits());
        for x in [-1.0, 0.3, 0.7, 2.0, 10.0] {
            assert_eq!(kde.log_pdf(x).to_bits(), refit.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn remove_point_undoes_insert_bitwise() {
        let pts = [2.0, 3.0, 4.0];
        let wts = [1.0, 1.0, 0.5];
        let mut kde = GaussianKde::fit_weighted(&pts, &wts, Bandwidth::Fixed(0.3));
        let snapshot: Vec<u64> = [-1.0, 2.5, 3.9]
            .iter()
            .map(|&x| kde.log_pdf(x).to_bits())
            .collect();
        kde.insert_point(2, 3.5, 1.0);
        let (p, w) = kde.remove_point(2);
        assert_eq!((p, w), (3.5, 1.0));
        let restored: Vec<u64> = [-1.0, 2.5, 3.9]
            .iter()
            .map(|&x| kde.log_pdf(x).to_bits())
            .collect();
        assert_eq!(snapshot, restored);
    }

    #[test]
    fn remove_point_can_empty_the_estimate() {
        let mut kde = GaussianKde::fit(&[1.0], Bandwidth::Fixed(1.0));
        kde.remove_point(0);
        assert!(kde.is_empty());
        assert_eq!(kde.len(), 0);
    }

    proptest! {
        #[test]
        fn incremental_edits_match_refit(
            pts in proptest::collection::vec(-20.0f64..20.0, 1..20),
            insert_at_frac in 0.0f64..1.0,
            new_pt in -20.0f64..20.0,
            x in -30.0f64..30.0,
        ) {
            let mut kde = GaussianKde::fit(&pts, Bandwidth::Fixed(0.4));
            let at = (insert_at_frac * pts.len() as f64) as usize;
            kde.insert_point(at, new_pt, 1.0);
            let mut spliced = pts.clone();
            spliced.insert(at, new_pt);
            let refit = GaussianKde::fit(&spliced, Bandwidth::Fixed(0.4));
            prop_assert_eq!(kde.log_pdf(x).to_bits(), refit.log_pdf(x).to_bits());
        }

        #[test]
        fn pdf_is_nonnegative_and_finite(
            pts in proptest::collection::vec(-100.0f64..100.0, 1..50),
            x in -200.0f64..200.0,
            h in 0.01f64..10.0,
        ) {
            let kde = GaussianKde::fit(&pts, Bandwidth::Fixed(h));
            let d = kde.pdf(x);
            prop_assert!(d >= 0.0);
            prop_assert!(d.is_finite());
        }

        #[test]
        fn pdf_is_translation_equivariant(
            pts in proptest::collection::vec(-50.0f64..50.0, 1..20),
            x in -50.0f64..50.0,
            shift in -10.0f64..10.0,
        ) {
            let kde = GaussianKde::fit(&pts, Bandwidth::Fixed(1.0));
            let shifted: Vec<f64> = pts.iter().map(|p| p + shift).collect();
            let kde2 = GaussianKde::fit(&shifted, Bandwidth::Fixed(1.0));
            prop_assert!((kde.pdf(x) - kde2.pdf(x + shift)).abs() < 1e-9);
        }

        #[test]
        fn log_pdf_batch_is_bit_identical_to_scalar(
            pts in proptest::collection::vec(-100.0f64..100.0, 1..40),
            wts_seed in proptest::collection::vec(0u8..4, 1..40),
            xs in proptest::collection::vec(-1e6f64..1e6, 0..64),
            h in 0.001f64..50.0,
        ) {
            // Weights in {0, 0.5, 1, 2} exercise the zero-weight skip path
            // alongside ordinary mixtures; keep at least one positive.
            let n = pts.len().min(wts_seed.len());
            let pts = &pts[..n];
            let mut wts: Vec<f64> = wts_seed[..n].iter().map(|&s| s as f64 * 0.5).collect();
            if wts.iter().all(|&w| w == 0.0) {
                wts[0] = 1.0;
            }
            let kde = GaussianKde::fit_weighted(pts, &wts, Bandwidth::Fixed(h));
            let mut out = vec![0.0; xs.len()];
            kde.log_pdf_batch(&xs, &mut out);
            for (&x, &b) in xs.iter().zip(&out) {
                prop_assert_eq!(kde.log_pdf(x).to_bits(), b.to_bits());
            }
        }

        #[test]
        fn silverman_is_positive(
            pts in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ) {
            prop_assert!(silverman_bandwidth(&pts) > 0.0);
        }
    }
}
