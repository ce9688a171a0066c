//! DVFS under package power caps.
//!
//! Kripke's energy dataset adds a hardware knob: `PKG_LIMIT`, a RAPL-style
//! package power cap. Capping power forces the CPU below nominal frequency;
//! runtime dilates (by less than the frequency ratio for memory-bound code)
//! and energy = average power × time develops a *sweet spot* — race-to-idle
//! at high caps versus slow-and-steady at low caps — which is exactly what
//! the paper's expert heuristic ("2nd or 3rd highest power level") gets
//! wrong and the tuner gets right.
//!
//! Model: dynamic power scales as `f³` (voltage tracks frequency), so the
//! sustainable frequency under cap `C` is
//! `f = f_nom · ((C - P_static) / (P_max - P_static))^(1/3)`, clamped to
//! the machine's DVFS range.

use crate::machine::MachineSpec;

/// Sustained frequency (GHz) under a package power cap of `cap_w` watts.
///
/// Caps at or below static power pin the clock to the minimum frequency;
/// caps above `max_power_w` run at nominal.
pub fn freq_at_cap(cap_w: f64, machine: &MachineSpec) -> f64 {
    assert!(cap_w > 0.0, "power cap must be positive");
    let span = machine.max_power_w - machine.static_power_w;
    let headroom = ((cap_w - machine.static_power_w) / span).clamp(0.0, 1.0);
    let f = machine.nominal_freq_ghz * headroom.cbrt();
    f.clamp(machine.min_freq_ghz, machine.nominal_freq_ghz)
}

/// Frequency scale factor (0–1] relative to nominal under a cap.
pub fn freq_scale_at_cap(cap_w: f64, machine: &MachineSpec) -> f64 {
    freq_at_cap(cap_w, machine) / machine.nominal_freq_ghz
}

/// Average package power (watts) drawn while running at frequency scale
/// `freq_scale` with CPU utilization `util` (0–1).
pub fn power_at(freq_scale: f64, util: f64, machine: &MachineSpec) -> f64 {
    assert!((0.0..=1.0).contains(&util));
    assert!(freq_scale > 0.0 && freq_scale <= 1.0 + 1e-9);
    let dynamic = (machine.max_power_w - machine.static_power_w) * util * freq_scale.powi(3);
    machine.static_power_w + dynamic
}

/// Energy in joules for a region that takes `time_nominal_s` at nominal
/// frequency, run under `cap_w`, where `compute_fraction` of its runtime
/// scales with frequency (the rest is memory/communication bound):
/// [`freq_scale_at_cap`] followed by [`time_energy_at_scale`].
///
/// Returns `(time_s, energy_j)`.
pub fn time_energy_under_cap(
    time_nominal_s: f64,
    compute_fraction: f64,
    cap_w: f64,
    util: f64,
    machine: &MachineSpec,
) -> (f64, f64) {
    let fs = freq_scale_at_cap(cap_w, machine);
    time_energy_at_scale(time_nominal_s, compute_fraction, fs, util, machine)
}

/// The DVFS step of [`time_energy_under_cap`] at a known frequency scale
/// `freq_scale` (0–1], for callers that compute each cap's scale once and
/// apply it to many regions.
///
/// Returns `(time_s, energy_j)`.
pub fn time_energy_at_scale(
    time_nominal_s: f64,
    compute_fraction: f64,
    freq_scale: f64,
    util: f64,
    machine: &MachineSpec,
) -> (f64, f64) {
    assert!(time_nominal_s >= 0.0);
    assert!((0.0..=1.0).contains(&compute_fraction));
    // Compute-bound part dilates by 1/freq_scale; the rest is
    // frequency-insensitive (with the mild sqrt uncore effect from the
    // roofline module folded in by callers that care).
    let time = time_nominal_s * (compute_fraction / freq_scale + (1.0 - compute_fraction));
    // Power is what the resulting DVFS point draws. For caps below the
    // minimum-frequency power this exceeds the cap — real packages cannot
    // honor such caps either (they throttle duty cycles at far worse
    // energy, which the measured dataset's worst rows reflect).
    let power = power_at(freq_scale, util, machine);
    (time, power * time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m() -> MachineSpec {
        MachineSpec::quartz_like()
    }

    #[test]
    fn uncapped_runs_at_nominal() {
        assert!((freq_at_cap(1000.0, &m()) - m().nominal_freq_ghz).abs() < 1e-12);
    }

    #[test]
    fn tight_cap_pins_to_min_freq() {
        assert!((freq_at_cap(10.0, &m()) - m().min_freq_ghz).abs() < 1e-12);
        assert!((freq_at_cap(60.0, &m()) - m().min_freq_ghz).abs() < 1e-12);
    }

    #[test]
    fn freq_is_monotone_in_cap() {
        let caps = [70.0, 100.0, 140.0, 180.0, 220.0, 240.0];
        for w in caps.windows(2) {
            assert!(freq_at_cap(w[0], &m()) <= freq_at_cap(w[1], &m()));
        }
    }

    #[test]
    fn power_at_full_tilt_is_max_power() {
        assert!((power_at(1.0, 1.0, &m()) - m().max_power_w).abs() < 1e-9);
    }

    #[test]
    fn idle_power_is_static() {
        assert!((power_at(0.5, 0.0, &m()) - m().static_power_w).abs() < 1e-9);
    }

    #[test]
    fn capping_slows_compute_bound_more_than_membound() {
        let (t_cpu, _) = time_energy_under_cap(10.0, 0.9, 120.0, 0.9, &m());
        let (t_mem, _) = time_energy_under_cap(10.0, 0.2, 120.0, 0.9, &m());
        assert!(t_cpu > t_mem);
    }

    #[test]
    fn energy_has_interior_minimum_for_membound_mix() {
        // This is the phenomenon the Kripke-energy experiment tunes for:
        // neither the lowest nor the highest cap minimizes energy.
        // A compute-leaning kernel at moderate utilization: racing to idle
        // wastes cubic dynamic power, crawling wastes static power.
        let caps: Vec<f64> = (0..12).map(|i| 75.0 + 15.0 * i as f64).collect();
        let energies: Vec<f64> = caps
            .iter()
            .map(|&c| time_energy_under_cap(10.0, 0.85, c, 0.5, &m()).1)
            .collect();
        let min_idx = energies
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < caps.len() - 1,
            "expected interior optimum, got index {min_idx} of {energies:?}"
        );
    }

    #[test]
    fn time_at_uncapped_equals_nominal() {
        let (t, _) = time_energy_under_cap(7.5, 0.5, 1000.0, 0.9, &m());
        assert!((t - 7.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn freq_stays_in_dvfs_range(cap in 1.0f64..500.0) {
            let f = freq_at_cap(cap, &m());
            prop_assert!(f >= m().min_freq_ghz && f <= m().nominal_freq_ghz);
        }

        #[test]
        fn time_never_beats_nominal(
            cap in 50.0f64..300.0,
            cf in 0.0f64..1.0,
        ) {
            let (t, _) = time_energy_under_cap(5.0, cf, cap, 0.9, &m());
            prop_assert!(t >= 5.0 - 1e-12);
        }

        #[test]
        fn energy_is_positive(
            cap in 50.0f64..300.0,
            cf in 0.0f64..1.0,
            util in 0.0f64..1.0,
        ) {
            let (_, e) = time_energy_under_cap(5.0, cf, cap, util, &m());
            prop_assert!(e > 0.0);
        }
    }
}
