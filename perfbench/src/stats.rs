//! Order statistics shared by the benchmark's reporting code, and the
//! metric-name rule its tests check.

/// A percentile reported together with the number of samples it was taken
/// over, so a reader can tell a p90 of 12 samples from one of 12 000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (same unit as the samples).
    pub value: f64,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// The `p`-th percentile (`0 <= p <= 100`) of `samples`, by linear
/// interpolation between the two nearest ranks (the "inclusive" method:
/// p0 is the minimum, p100 the maximum). `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    Some(Percentile {
        value,
        samples: sorted.len(),
    })
}

/// The median of `samples`; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|p| p.value)
}

/// The three cut points dividing `samples` into quartiles, computed like
/// Python's `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method, which needs at least two samples).
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = (n + 1) as i64;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1i64..).zip(cuts.iter_mut()) {
        // 1-based rank i·(n+1)/4, clamped to the data; the remainder then
        // interpolates (or, at a clamped end, extrapolates) exactly as
        // Python does.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (a, b) = (sorted[j as usize - 1], sorted[j as usize]);
        *cut = (a * (4.0 - delta) + b * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile spread as a share of the median: `(q3 - q1) / q2`, the
/// steadiness figure a metric's bound is compared against. `None` with
/// fewer than two samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit. Every name
/// the benchmark reports is a constant, so the tests check them all.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks_and_counts_samples() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(
            percentile(&xs, 50.0),
            Some(Percentile {
                value: 3.0,
                samples: 5
            })
        );
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 5.0);
        // rank 0.9 * 4 = 3.6 -> 4 + 0.6 * (5 - 4)
        assert!((percentile(&xs, 90.0).unwrap().value - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.5], 99.0).unwrap().value, 7.5);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_the_interquartile_distance_over_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn names_are_checked_against_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "core.pick_ms_p90",
            "serial-energy",
            "9lives",
            "a",
        ] {
            assert!(is_valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "pick ms",
            "a/b",
            "µs",
            long.as_str(),
        ] {
            assert!(!is_valid_name(bad), "{bad:?}");
        }
        assert!(is_valid_name(&"x".repeat(64)));
    }
}
