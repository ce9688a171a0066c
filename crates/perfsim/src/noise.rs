//! Deterministic run-to-run noise.
//!
//! Measured HPC datasets carry run-to-run variability (OS jitter, network
//! contention, thermal state). The substitute datasets need the same — a
//! perfectly smooth objective would flatter model-based tuners — but it must
//! be *deterministic*: the exhaustive best of a dataset has to be a fixed,
//! reproducible value. Each configuration therefore gets a multiplicative
//! lognormal factor derived by hashing `(dataset seed, configuration id)`.

use hiperbot_stats::rng::{u64_to_unit_open, WordMixer};

/// Domain-separation tag appended when deriving the second Box–Muller
/// uniform, so it is independent of the first.
const SECOND_UNIFORM_TAG: u64 = 0x0B0C_5EED_D00D_F00D;

/// A standard normal variate derived deterministically from `words`
/// (Box–Muller over two hash-derived uniforms: `mix_words(words)` and
/// `mix_words(words + [tag])`, hashed in one pass without a buffer).
pub fn deterministic_normal(words: &[u64]) -> f64 {
    let mut mixer = WordMixer::new();
    mixer.extend(words);
    let h1 = mixer.finish();
    mixer.push(SECOND_UNIFORM_TAG);
    let h2 = mixer.finish();
    let u1 = u64_to_unit_open(h1);
    let u2 = u64_to_unit_open(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multiplicative lognormal noise factor with unit mean:
/// `exp(σ·z − σ²/2)` for a deterministic standard normal `z`.
///
/// `sigma` is the log-scale standard deviation; measured HPC runtimes
/// typically show 1–5 % (`sigma ≈ 0.01–0.05`).
pub fn lognormal_factor(words: &[u64], sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "noise sigma must be non-negative");
    if sigma == 0.0 {
        return 1.0;
    }
    let z = deterministic_normal(words);
    (sigma * z - 0.5 * sigma * sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        let a = lognormal_factor(&[1, 2, 3], 0.05);
        let b = lognormal_factor(&[1, 2, 3], 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn different_configs_get_different_noise() {
        let a = lognormal_factor(&[1, 2, 3], 0.05);
        let b = lognormal_factor(&[1, 2, 4], 0.05);
        assert_ne!(a, b);
    }

    #[test]
    fn uniforms_hash_the_words_and_the_tagged_words() {
        use hiperbot_stats::rng::mix_words;
        for words in [vec![], vec![3], vec![42, 17_159]] {
            let u1 = u64_to_unit_open(mix_words(&words));
            let tagged = [&words[..], &[SECOND_UNIFORM_TAG]].concat();
            let u2 = u64_to_unit_open(mix_words(&tagged));
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(deterministic_normal(&words).to_bits(), z.to_bits());
        }
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        assert_eq!(lognormal_factor(&[9, 9], 0.0), 1.0);
    }

    #[test]
    fn factors_are_positive_and_near_one() {
        for i in 0..1000u64 {
            let f = lognormal_factor(&[42, i], 0.03);
            assert!(f > 0.0);
            assert!(f > 0.8 && f < 1.25, "3% noise should stay near 1: {f}");
        }
    }

    #[test]
    fn empirical_mean_is_close_to_one() {
        let n = 50_000u64;
        let mean: f64 = (0..n).map(|i| lognormal_factor(&[7, i], 0.05)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn empirical_sigma_matches_parameter() {
        let n = 50_000u64;
        let logs: Vec<f64> = (0..n)
            .map(|i| lognormal_factor(&[3, i], 0.05).ln())
            .collect();
        let mean = logs.iter().sum::<f64>() / n as f64;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var.sqrt() - 0.05).abs() < 0.002, "sigma = {}", var.sqrt());
    }

    #[test]
    fn normal_is_roughly_standard() {
        let n = 50_000u64;
        let zs: Vec<f64> = (0..n).map(|i| deterministic_normal(&[11, i])).collect();
        let mean = zs.iter().sum::<f64>() / n as f64;
        let var = zs.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }
}
