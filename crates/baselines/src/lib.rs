//! Baseline configuration-selection methods the paper compares against.
//!
//! - [`random`] — uniform random sampling (paper §V, "Random Selection").
//! - [`geist`] — GEIST (Thiagarajan et al., ICS'18): semi-supervised
//!   label propagation (CAMLP) over a configuration graph with adaptive
//!   sampling. The strongest prior-art comparator in §V.
//! - [`perfnet`] — PerfNet (Marathe et al., SC'17): deep transfer
//!   learning; the comparator of §VII.
//! - [`gp`] — Gaussian-process regression with expected improvement
//!   (Duplyakin et al.-style), included as the classical-BO reference the
//!   paper cites but does not re-run (GEIST had already been shown to beat
//!   it); useful for ablations.
//! - [`selector`] — the common [`ConfigSelector`] interface the evaluation
//!   harness drives every method through, plus the exhaustive-best helper.

pub mod geist;
pub mod gp;
pub mod perfnet;
pub mod random;
pub mod selector;

pub use geist::GeistSelector;
pub use gp::GpEiSelector;
pub use perfnet::{PerfNet, PerfNetOptions};
pub use random::RandomSelector;
pub use selector::{ConfigSelector, HiPerBOtSelector, SelectionRun};
