//! Data-layout / memory-access efficiency model.
//!
//! Kripke's headline tunable is the *nesting order* of its
//! direction–group–zone data layout (DGZ, DZG, …): the loop order decides
//! the stride of the innermost accesses, and with it the fraction of cache
//! lines that do useful work. This module models achieved-bandwidth
//! efficiency as a function of the contiguous run length the innermost loop
//! enjoys, saturating once runs span full cache lines and several
//! prefetch streams.

/// Per-dimension extent of a multi-dimensional array, in elements, given in
/// storage order from outermost to innermost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutDims {
    /// Number of directions (D).
    pub directions: usize,
    /// Number of energy groups (G).
    pub groups: usize,
    /// Number of zones (Z).
    pub zones: usize,
}

/// A nesting order over (directions, groups, zones) — Kripke's six layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nesting {
    /// directions outer, groups middle, zones inner
    DGZ,
    /// directions outer, zones middle, groups inner
    DZG,
    /// groups outer, directions middle, zones inner
    GDZ,
    /// groups outer, zones middle, directions inner
    GZD,
    /// zones outer, directions middle, groups inner
    ZDG,
    /// zones outer, groups middle, directions inner
    ZGD,
}

impl Nesting {
    /// All six nesting orders, in the order Kripke names them.
    pub const ALL: [Nesting; 6] = [
        Nesting::DGZ,
        Nesting::DZG,
        Nesting::GDZ,
        Nesting::GZD,
        Nesting::ZDG,
        Nesting::ZGD,
    ];

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Nesting::DGZ => "DGZ",
            Nesting::DZG => "DZG",
            Nesting::GDZ => "GDZ",
            Nesting::GZD => "GZD",
            Nesting::ZDG => "ZDG",
            Nesting::ZGD => "ZGD",
        }
    }

    /// Extent of the innermost dimension for the given problem dims — the
    /// contiguous run length of the sweep kernel's unit-stride loop.
    pub fn innermost_run(&self, dims: LayoutDims) -> usize {
        match self {
            Nesting::DGZ | Nesting::GDZ => dims.zones,
            Nesting::DZG | Nesting::ZDG => dims.groups,
            Nesting::GZD | Nesting::ZGD => dims.directions,
        }
    }

    /// Extent of the middle dimension (secondary locality: how often the
    /// innermost stream restarts).
    pub fn middle_run(&self, dims: LayoutDims) -> usize {
        match self {
            Nesting::GDZ | Nesting::ZDG => dims.directions,
            Nesting::DGZ | Nesting::ZGD => dims.groups,
            Nesting::DZG | Nesting::GZD => dims.zones,
        }
    }
}

/// Achieved-bandwidth fraction (0–1] for a unit-stride run of `run_len`
/// elements of `elem_bytes` bytes, on a cache with `line_bytes` lines.
///
/// Short runs waste the remainder of each cache line and defeat the
/// prefetcher; the model is `run_bytes / (run_bytes + line_bytes)` lifted to
/// saturate near 1 for long runs, floored so pathological layouts are slow
/// but not absurd.
pub fn stream_efficiency(run_len: usize, elem_bytes: usize, line_bytes: usize) -> f64 {
    assert!(run_len > 0 && elem_bytes > 0 && line_bytes > 0);
    let run_bytes = (run_len * elem_bytes) as f64;
    let lb = line_bytes as f64;
    // One extra line per run is wasted on average (misalignment), and runs
    // shorter than a few lines stall the prefetch pipeline.
    let line_waste = run_bytes / (run_bytes + lb);
    let prefetch = 1.0 - (-run_bytes / (4.0 * lb)).exp();
    (line_waste * (0.4 + 0.6 * prefetch)).clamp(0.05, 1.0)
}

/// Combined layout efficiency for a nesting over given dims: innermost run
/// dominates, the middle dimension contributes secondary reuse.
pub fn layout_efficiency(nesting: Nesting, dims: LayoutDims, elem_bytes: usize) -> f64 {
    let inner = stream_efficiency(nesting.innermost_run(dims), elem_bytes, 64);
    // A long middle run amortizes per-restart overhead (TLB, page opens).
    let mid = nesting.middle_run(dims) as f64;
    let mid_bonus = 0.9 + 0.1 * (mid / (mid + 16.0));
    (inner * mid_bonus).clamp(0.05, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DIMS: LayoutDims = LayoutDims {
        directions: 8,
        groups: 32,
        zones: 4096,
    };

    #[test]
    fn all_six_layouts_are_distinct_names() {
        let names: std::collections::HashSet<_> = Nesting::ALL.iter().map(|n| n.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn innermost_run_matches_nesting() {
        assert_eq!(Nesting::DGZ.innermost_run(DIMS), 4096);
        assert_eq!(Nesting::ZGD.innermost_run(DIMS), 8);
        assert_eq!(Nesting::DZG.innermost_run(DIMS), 32);
    }

    #[test]
    fn zone_inner_layouts_beat_direction_inner() {
        // zones (4096-long runs) should stream far better than
        // directions (8-long runs)
        let good = layout_efficiency(Nesting::DGZ, DIMS, 8);
        let bad = layout_efficiency(Nesting::GZD, DIMS, 8);
        assert!(
            good > 1.5 * bad,
            "DGZ ({good:.3}) should clearly beat GZD ({bad:.3})"
        );
    }

    #[test]
    fn efficiency_is_within_bounds_for_all_layouts() {
        for n in Nesting::ALL {
            let e = layout_efficiency(n, DIMS, 8);
            assert!(e > 0.0 && e <= 1.0, "{}: {e}", n.name());
        }
    }

    #[test]
    fn longer_runs_stream_better() {
        let short = stream_efficiency(4, 8, 64);
        let medium = stream_efficiency(64, 8, 64);
        let long = stream_efficiency(4096, 8, 64);
        assert!(short < medium && medium < long);
    }

    #[test]
    fn long_runs_approach_full_bandwidth() {
        assert!(stream_efficiency(1_000_000, 8, 64) > 0.95);
    }

    #[test]
    fn middle_run_gives_secondary_ordering() {
        // DGZ and GDZ share the zones-inner run; GDZ's middle run is
        // directions (8) vs DGZ's groups (32), so DGZ should be >= GDZ.
        let dgz = layout_efficiency(Nesting::DGZ, DIMS, 8);
        let gdz = layout_efficiency(Nesting::GDZ, DIMS, 8);
        assert!(dgz >= gdz);
    }

    proptest! {
        #[test]
        fn stream_efficiency_is_monotone_in_run_len(a in 1usize..100_000, b in 1usize..100_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(stream_efficiency(lo, 8, 64) <= stream_efficiency(hi, 8, 64) + 1e-12);
        }

        #[test]
        fn efficiency_always_in_unit_interval(
            run in 1usize..1_000_000,
            elem in 1usize..64,
            line in 16usize..256,
        ) {
            let e = stream_efficiency(run, elem, line);
            prop_assert!((0.05..=1.0).contains(&e));
        }
    }
}
