//! Heap footprint of a code-addressed pool. A counting global allocator
//! measures the live heap of the Kripke energy dataset (17,160
//! configurations), the allocations its build makes, and the extra heap a
//! Ranking tuner holds once its bootstrap step has built the pool. Each
//! bound sits between the layout it guards against and the current one,
//! so the test fails if a `Configuration`-keyed map, a stored
//! `Configuration` per dataset row, a per-row allocation in the dataset
//! build, or a `Vec<Configuration>` pool copy comes back. The same
//! allocator counts the allocations of steady-state Proposal picks, which
//! must not grow with the number of continuous parameters, and the heap
//! a GEIST selector keeps after an OpenAtom run: its cached graph, which
//! must stay two flat arrays (0.74 MiB in 3 blocks) rather than a heap
//! block per node (1.34 MiB in 9,218 blocks). A space build must not
//! allocate per domain value either.
//!
//! Measured on x86-64 Linux, debug and release builds alike:
//!
//! | | hashed (map + copies) | code-addressed rows | rowless dataset |
//! |---|---|---|---|
//! | dataset live heap | 5.06 MiB | 2.23 MiB | 0.26 MiB |
//! | dataset build allocations | | 34,000+ | 42 |
//! | tuner after bootstrap | +5.34 MiB | +0.37 MiB | +0.37 MiB |
//!
//! 33 of the 42 allocations build the space (`kripke::energy_space()`),
//! 4 of those in `SpaceBuilder::build`'s name and repeated-value checks:
//! a text buffer a counting pass sized, each value's text end and two
//! sets sized up front, whatever the domains hold. The walk, the energy
//! model and the two columns make the other 9. With a `String` per name
//! and per domain value and a growing set per parameter, those checks
//! made the build 98 allocations (46 before the value check); the rowless
//! build made 43, and staging the walk and the energy model added three
//! (the space's list of declared-prefix constraints, the walk's prefix
//! copy and the energy model's per-cap table).

use hiperbot::apps::{kripke, openatom, Scale};
use hiperbot::baselines::{ConfigSelector, GeistSelector};
use hiperbot::core::selection::{select_by_proposal_vectorized, Seen, PROPOSAL_REDRAW_ROUNDS};
use hiperbot::core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot::core::{EvalOutcome, ObservationHistory, ProposalScratch, Tuner, TunerOptions};
use hiperbot::space::sampling::sample_distinct;
use hiperbot::space::{Domain, ParamDef, ParameterSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Blocks currently allocated through [`Counting`].
static BLOCKS: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocations and reallocations this thread made through
    /// [`Counting`]: the test harness's own threads cannot add to a
    /// test's count.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread (none while the thread's
/// locals are being torn down).
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting live bytes and allocation calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters are two atomics and a
// const-initialized thread-local `Cell` without a destructor, none of
// which touches allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        count_alloc();
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
            BLOCKS.fetch_add(1, Ordering::SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        count_alloc();
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
            BLOCKS.fetch_add(1, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        BLOCKS.fetch_sub(1, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        count_alloc();
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

fn live_blocks() -> isize {
    BLOCKS.load(Ordering::SeqCst)
}

/// Live-heap bound on the dataset, in MiB: between 0.26 and 2.23.
const DATASET_MIB: f64 = 1.0;
/// Bound on the allocations one dataset build makes: a small constant,
/// far below one per row, and below the 98 of an allocation per domain
/// value.
const DATASET_ALLOCS: usize = 60;
/// Bound on the heap a bootstrapped Ranking tuner adds, in MiB: between
/// +0.37 and +5.34.
const TUNER_MIB: f64 = 1.5;

/// Bound on the heap a GEIST selector keeps after one OpenAtom run, in
/// MiB: between its CSR graph (0.74) and a heap block per node (1.34).
const GEIST_MIB: f64 = 1.0;
/// Bound on the blocks it keeps: a few arrays, far below one per node.
const GEIST_BLOCKS: isize = 100;

/// Held by each test for its whole run: tests running in parallel would
/// add to each other's live heap.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn code_addressed_pools_hold_no_per_configuration_copies() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (before, allocs_before) = (live_mib(), allocs());
    let dataset = kripke::energy_dataset(Scale::Target);
    let dataset_mib = live_mib() - before;
    let dataset_allocs = allocs() - allocs_before;
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

/// Allocations made by 16 steady-state Proposal picks (32 candidates) on a
/// space of one 3-value discrete parameter and `continuous` continuous
/// ones: one surrogate fitted on 40 observations and one scratch kept
/// across picks, counted after four warm-up picks.
fn proposal_pick_allocs(continuous: usize) -> usize {
    let mut b =
        ParameterSpace::builder().param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 3])));
    for i in 0..continuous {
        b = b.param(ParamDef::new(format!("x{i}"), Domain::continuous(0.0, 1.0)));
    }
    let space = b.build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let configs = sample_distinct(&space, 40, &mut rng);
    let objectives: Vec<f64> = configs
        .iter()
        .map(|c| c.values().iter().map(|v| v.as_f64()).sum::<f64>() + 1.0)
        .collect();
    let surrogate = TpeSurrogate::fit(
        &space,
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (cfg, &y) in configs.iter().zip(&objectives) {
        history.push(cfg.clone(), y);
    }
    let mut scratch = ProposalScratch::default();
    let mut pick = || {
        select_by_proposal_vectorized(
            &surrogate,
            &space,
            Seen::Configs(&history, None),
            32,
            PROPOSAL_REDRAW_ROUNDS,
            &mut rng,
            &mut scratch,
        )
    };
    for _ in 0..4 {
        pick();
    }
    let before = allocs();
    for _ in 0..16 {
        pick();
    }
    allocs() - before
}

#[test]
fn proposal_picks_allocate_alike_whatever_the_continuous_parameter_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (one, four) = (proposal_pick_allocs(1), proposal_pick_allocs(4));
    eprintln!("16 Proposal picks: {one} allocations with 1 continuous parameter, {four} with 4");
    assert!(
        four <= one,
        "Proposal picks allocate more with more continuous parameters: {one} with 1, {four} with 4"
    );
}

/// Allocations `SpaceBuilder::build` makes for one parameter of `values`
/// distinct integers.
fn space_build_allocs(values: i64) -> usize {
    let domain: Vec<i64> = (0..values).collect();
    let builder =
        ParameterSpace::builder().param(ParamDef::new("v", Domain::discrete_ints(&domain)));
    let before = allocs();
    let space = builder.build().expect("distinct values");
    let made = allocs() - before;
    drop(space);
    made
}

#[test]
fn a_space_build_allocates_alike_whatever_its_domain_sizes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (space_build_allocs(10), space_build_allocs(1_000));
    eprintln!("space build: {small} allocations for 10 values, {large} for 1,000");
    assert!(
        large <= small,
        "the space build allocates per value: {small} for 10 values, {large} for 1,000"
    );
}

#[test]
fn a_geist_selector_keeps_a_flat_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = openatom::dataset(Scale::Target);
    let pool = dataset.to_configs();
    let geist = GeistSelector::default();
    let (before, blocks_before) = (live_mib(), live_blocks());
    let run = geist.select(dataset.space(), &pool, &|c| dataset.evaluate(c), 30, 1);
    assert_eq!(run.len(), 30);
    drop(run);
    let (kept_mib, kept_blocks) = (live_mib() - before, live_blocks() - blocks_before);

    eprintln!("GEIST keeps {kept_mib:.2} MiB in {kept_blocks} blocks after one OpenAtom run");
    assert!(
        kept_mib < GEIST_MIB,
        "GEIST keeps {kept_mib:.2} MiB (bound {GEIST_MIB} MiB)"
    );
    assert!(
        kept_blocks < GEIST_BLOCKS,
        "GEIST keeps {kept_blocks} blocks (bound {GEIST_BLOCKS})"
    );
}
