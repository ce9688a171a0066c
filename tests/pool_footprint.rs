//! Heap footprint of a code-addressed pool. A counting global allocator
//! measures the live heap of the Kripke energy dataset (17,160
//! configurations), the allocations its build makes, and the extra heap a
//! Ranking tuner holds once its bootstrap step has built the pool. Each
//! bound sits between the layout it guards against and the current one,
//! so the test fails if a `Configuration`-keyed map, a stored
//! `Configuration` per dataset row, a per-row allocation in the dataset
//! build, or a `Vec<Configuration>` pool copy comes back.
//!
//! Measured on x86-64 Linux, debug and release builds alike:
//!
//! | | hashed (map + copies) | code-addressed rows | rowless dataset |
//! |---|---|---|---|
//! | dataset live heap | 5.06 MiB | 2.23 MiB | 0.26 MiB |
//! | dataset build allocations | | 34,000+ | 43 |
//! | tuner after bootstrap | +5.34 MiB | +0.37 MiB | +0.37 MiB |

use hiperbot::apps::{kripke, Scale};
use hiperbot::core::{EvalOutcome, Tuner, TunerOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations and reallocations made through [`Counting`].
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and allocation calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters are atomics that touch no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_mib() -> f64 {
    LIVE.load(Ordering::SeqCst) as f64 / (1u64 << 20) as f64
}

/// Live-heap bound on the dataset, in MiB: between 0.26 and 2.23.
const DATASET_MIB: f64 = 1.0;
/// Bound on the allocations one dataset build makes: a small constant,
/// far below one per row.
const DATASET_ALLOCS: usize = 100;
/// Bound on the heap a bootstrapped Ranking tuner adds, in MiB: between
/// +0.37 and +5.34.
const TUNER_MIB: f64 = 1.5;

// One test in this binary: a second, running in parallel, would count its
// allocations into this one's.
#[test]
fn code_addressed_pools_hold_no_per_configuration_copies() {
    let (before, allocs_before) = (live_mib(), ALLOCS.load(Ordering::SeqCst));
    let dataset = kripke::energy_dataset(Scale::Target);
    let dataset_mib = live_mib() - before;
    let dataset_allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
    assert_eq!(dataset.len(), 17_160);

    let before = live_mib();
    let mut tuner = Tuner::new(
        dataset.space().clone(),
        TunerOptions::default().with_seed(1),
    );
    assert!(tuner.step_fallible(|cfg| EvalOutcome::Ok(dataset.evaluate(cfg))));
    assert_eq!(
        tuner.history().trials(),
        20,
        "the first step is the bootstrap"
    );
    let tuner_mib = live_mib() - before;

    eprintln!(
        "dataset {dataset_mib:.2} MiB in {dataset_allocs} allocations, \
         bootstrapped tuner +{tuner_mib:.2} MiB"
    );
    assert!(
        dataset_mib < DATASET_MIB,
        "the dataset holds {dataset_mib:.2} MiB live (bound {DATASET_MIB} MiB)"
    );
    assert!(
        dataset_allocs < DATASET_ALLOCS,
        "the dataset build made {dataset_allocs} allocations (bound {DATASET_ALLOCS})"
    );
    assert!(
        tuner_mib < TUNER_MIB,
        "the bootstrapped tuner holds +{tuner_mib:.2} MiB (bound {TUNER_MIB} MiB)"
    );
}
