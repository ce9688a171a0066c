//! Evaluation harness: the paper's experimental protocol as a library.
//!
//! The paper evaluates configuration-selection methods against fully
//! measured datasets (§IV-B): each method runs 50 times with different
//! seeds, and at a series of sample-size checkpoints two metrics are
//! reported as mean ± std —
//!
//! - **Best Performing Configuration** — the best objective among the
//!   first `n` selections ([`metrics::best_within`] via the trace).
//! - **Recall** — the fraction of the dataset's "good" configurations the
//!   method has selected (eq. 11 with a percentile threshold for the
//!   configuration-selection study; eq. 12 with a tolerance threshold for
//!   transfer learning).
//!
//! [`runner`] executes that protocol (rayon-parallel across repetitions),
//! [`report`] renders paper-style tables, [`plot`] draws the figures as
//! standalone SVG, and [`experiments`] packages one module per figure/table
//! of the paper so the `hiperbot-bench` binaries can regenerate each of
//! them.

pub mod executor;
pub mod experiments;
pub mod faults;
pub mod metrics;
pub mod plot;
pub mod report;
pub mod runner;

pub use executor::BatchExecutor;
pub use faults::{
    outcome_from_sim, NoopSleeper, RecordingSleeper, RetryPolicy, Sleeper, ThreadSleeper,
};
pub use metrics::{GoodSet, Recall};
pub use runner::{run_trials, CheckpointStats, TrialConfig};
