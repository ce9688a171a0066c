//! HiPerBOt: Tree-Parzen-Estimator Bayesian optimization for HPC
//! configuration selection — the paper's primary contribution.
//!
//! The framework (paper §III) iterates:
//!
//! 1. Bootstrap with a small uniform random sample of configurations and
//!    evaluate the expensive true objective on each ([`history`]).
//! 2. Split the observation history at the α-quantile (α = 0.20) into
//!    *good* and *bad*, and fit per-parameter densities `p_g(x_i)`,
//!    `p_b(x_i)` — histograms for discrete parameters, Gaussian KDE for
//!    continuous ones ([`surrogate`]).
//! 3. Select the candidate maximizing expected improvement, which reduces
//!    to the density ratio `p_g(x)/p_b(x)` (eq. 5): either by *Ranking*
//!    every unseen configuration of a finite space or by *Proposal*
//!    sampling from `p_g` ([`selection`]).
//! 4. Evaluate the true objective on the winner, append to the history,
//!    and repeat ([`tuner`]).
//!
//! Step 2 is served by a persistent [`incremental`] engine: instead of
//! re-fitting from scratch each iteration, it absorbs each new observation
//! in O(log n + churn) while staying bit-identical to the from-scratch fit,
//! which remains as the reference the parity suites compare it against
//! (`SurrogateMode::Full`).
//!
//! Two extensions close the loop with the paper's later sections:
//! [`transfer`] mixes source-domain densities in as a weighted prior
//! (eqs. 9–10, §VII) and [`importance`] ranks parameters by the
//! Jensen–Shannon divergence between their good and bad densities
//! (eqs. 13–14, §VI).

pub mod checkpoint;
mod fantasy;
pub mod history;
pub mod importance;
pub mod incremental;
pub mod outcome;
pub mod selection;
pub mod stopping;
pub mod surrogate;
pub mod transfer;
pub mod tuner;

pub use checkpoint::{CheckpointError, TunerCheckpoint, CHECKPOINT_VERSION};
pub use history::{FailureRecord, ObservationHistory, SavedHistory};
pub use importance::{parameter_importance, DivergenceMeasure, ParameterImportance};
pub use incremental::{ChurnStats, IncrementalSurrogate};
pub use outcome::EvalOutcome;
pub use selection::{ProposalPick, ProposalScratch, SelectionStrategy};
pub use stopping::{StoppingRule, StoppingSet};
pub use surrogate::{CandidateMatrix, SurrogateMode, TpeSurrogate};
pub use transfer::TransferPrior;
pub use tuner::{BestResult, CheckpointPolicy, InitDesign, Tuner, TunerOptions};
