//! Statistics substrate for the HiPerBOt auto-tuning framework.
//!
//! This crate provides the probabilistic and numerical building blocks that
//! the Tree-Parzen-Estimator surrogate model, the GEIST baseline, and the
//! evaluation harness are built on:
//!
//! - [`histogram`] — smoothed categorical histograms used as the discrete
//!   per-parameter densities `p_g(x_i)` / `p_b(x_i)` of the paper (§III-B.1).
//! - [`kde`] — Gaussian kernel density estimation for continuous parameters
//!   (§III-B.2).
//! - [`quantile`] — the α-quantile threshold `y(τ)` that splits observations
//!   into *good* and *bad* (§II).
//! - [`order_stats`] — an order-statistics multiset (deterministic treap)
//!   that maintains the same α-quantile incrementally in O(log n) per
//!   observation, backing the incremental surrogate engine.
//! - [`divergence`] — Kullback–Leibler and Jensen–Shannon divergences used
//!   for the parameter-importance analysis (§VI, eqs. 13–14), plus the
//!   Hellinger and total-variation alternatives the ablations compare.
//! - [`correlation`] — Pearson/Spearman/Kendall coefficients used to score
//!   ranking agreement (Table I) and source/target relatedness (§VII).
//! - [`summary`] — streaming mean/variance (Welford) summaries used when the
//!   evaluation harness aggregates 50 repeated trials (§V).
//! - [`linalg`] — a small dense matrix library with Cholesky factorization,
//!   backing the Gaussian-process comparator and the PerfNet substrate.
//! - [`rng`] — deterministic seed-splitting so every experiment in the paper
//!   reproduction is exactly repeatable.
//!
//! Everything is implemented from scratch on top of `rand`; there are no
//! external numerics dependencies.

pub mod correlation;
pub mod divergence;
pub mod histogram;
pub mod kde;
pub mod linalg;
pub mod order_stats;
pub mod quantile;
pub mod rng;
pub mod summary;

pub use correlation::{kendall_tau, pearson, spearman};
pub use divergence::{
    hellinger, js_divergence, js_divergence_continuous, kl_divergence, total_variation,
};
pub use histogram::SmoothedHistogram;
pub use kde::{GaussianKde, KdeScratch};
pub use linalg::Matrix;
pub use order_stats::OrderStatMultiset;
pub use quantile::quantile;
pub use rng::SeedSequence;
pub use summary::Summary;
