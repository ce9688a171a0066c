//! Host-speed calibration. A fixed kernel the benchmark owns is timed
//! between sessions, and the gated timings are scaled by the kernel's time
//! around them, so a run on a host that has slowed down reads like one on a
//! host that has not.
//!
//! The development host (2 vCPUs of a shared Xeon under KVM) drifts by up
//! to 1.4x over minutes (see the host-noise notes in `workloads`). Over
//! 5-second windows, each half of this kernel moved with the median pick on
//! every workload (r = 0.8 to 0.97). A dependent integer chain moved
//! against the picks (r = -0.7 to -0.95). Scaling by pointer chases within
//! L1, L2 or beyond, by allocation churn or by `exp`/`ln` loops left wider
//! spreads, and so did a replica of the Ranking pool sweep. Long runs were
//! cut into 20-second stretches. Across workloads, the scaled pick p90 of
//! those stretches spread 0.02 to 0.08 of its median, against 0.05 to 0.24
//! unscaled.
//!
//! The host's fast periods are followed only in part: when sweep-heavy
//! picks ran in half their normal time, the kernel ran in 0.75 to 0.8 of
//! its own.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time (µs) at the reference host speed: about its median
/// on the development host, so scaled timings keep their units and read
/// close to the raw ones there.
pub const REFERENCE_US: f64 = 600.0;

/// Least time between two probes. A probe takes about 0.6 ms, so probing
/// costs about 1 % of a run's wall time; sessions never include it.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Probes this many seconds before or after an interval count as taken
/// around it.
const WINDOW_S: f64 = 0.1;

/// Runs the kernel once and returns its wall time in microseconds. It has
/// two halves of about equal length: eight independent floating-point
/// multiply-add chains, and 2,000 `getpid` system calls
/// (`std::process::id`). Its working set is a few cache lines, so the
/// program's memory use does not change it, and it shares no code with the
/// program.
pub fn kernel_us() -> f64 {
    let started = Instant::now();
    let mut chains = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    for _ in 0..50_000 {
        for c in chains.iter_mut() {
            *c = black_box(*c) * 0.999_999 + 1e-9;
        }
    }
    black_box(chains);
    for _ in 0..2_000 {
        black_box(std::process::id());
    }
    started.elapsed().as_secs_f64() * 1e6
}

/// The kernel's times over one run, each stamped with when it ran.
#[derive(Debug)]
pub struct HostSpeed {
    origin: Instant,
    /// `(seconds since origin, kernel µs)`, in time order.
    probes: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// No probes yet; timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            probes: Vec::new(),
            last: None,
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the origin, for stamping intervals.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel now.
    pub fn probe(&mut self) {
        let at = self.now();
        self.probes.push((at, kernel_us()));
        self.last = Some(Instant::now());
    }

    /// Times the kernel unless it ran less than [`PROBE_EVERY`] ago.
    pub fn probe_if_due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.probe();
        }
    }

    /// Every kernel time of the run, in µs.
    pub fn times_us(&self) -> Vec<f64> {
        self.probes.iter().map(|&(_, us)| us).collect()
    }

    /// The kernel's time around the interval `[from, to]` (seconds since
    /// the origin): the median of the probes taken from [`WINDOW_S`] before
    /// it to [`WINDOW_S`] after it, or the nearest probe when none was.
    /// `None` before the first probe.
    fn around(&self, from: f64, to: f64) -> Option<f64> {
        let inside: Vec<f64> = self
            .probes
            .iter()
            .filter(|&&(at, _)| at >= from - WINDOW_S && at <= to + WINDOW_S)
            .map(|&(_, us)| us)
            .collect();
        if !inside.is_empty() {
            return crate::stats::median(&inside);
        }
        let distance = |at: f64| (from - at).max(at - to);
        self.probes
            .iter()
            .min_by(|a, b| distance(a.0).total_cmp(&distance(b.0)))
            .map(|&(_, us)| us)
    }

    /// The factor that scales a time measured during `[from, to]` to the
    /// reference host speed: [`REFERENCE_US`] over the kernel's time
    /// around the interval.
    pub fn scale(&self, from: f64, to: f64) -> f64 {
        REFERENCE_US / self.around(from, to).expect("the host speed was probed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(probes: &[(f64, f64)]) -> HostSpeed {
        HostSpeed {
            origin: Instant::now(),
            probes: probes.to_vec(),
            last: None,
        }
    }

    #[test]
    fn scale_uses_the_median_of_the_probes_around_an_interval() {
        let s = speed(&[
            (0.0, 500.0),
            (1.0, 600.0),
            (1.05, 900.0),
            (1.2, 700.0),
            (3.0, 1200.0),
        ]);
        // Probes at 1.0, 1.05 and 1.2 lie within 0.1 s of [1.05, 1.1].
        assert_eq!(s.around(1.05, 1.1), Some(700.0));
        assert!((s.scale(1.05, 1.1) - REFERENCE_US / 700.0).abs() < 1e-12);
        // None within the window: the nearest probe, by distance to the
        // interval's closer end.
        assert_eq!(s.around(2.0, 2.5), Some(1200.0));
        assert_eq!(s.around(1.5, 2.5), Some(700.0));
        assert_eq!(speed(&[]).around(0.0, 1.0), None);
    }

    #[test]
    fn a_probe_records_the_kernel_time() {
        let mut s = speed(&[]);
        s.probe();
        let times = s.times_us();
        assert_eq!(times.len(), 1);
        assert!(times[0] > 0.0);
        assert!(s.probes[0].0 <= s.now());
    }
}
