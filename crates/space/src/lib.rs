//! Parameter-space substrate for the HiPerBOt auto-tuning framework.
//!
//! An HPC application exposes `n` tunable parameters `x_1 … x_n` (compiler
//! flags, runtime settings, application options, hardware knobs); a
//! *configuration* is a full assignment `x = [x_1, …, x_n]` (paper §III).
//! This crate models:
//!
//! - [`param`] — parameter definitions: categorical/ordinal discrete domains
//!   and bounded continuous domains.
//! - [`config`] — configurations, the values they hold, hashing/equality for
//!   deduplication (the Ranking strategy never re-selects a seen config).
//! - [`space`] — the [`ParameterSpace`]: construction, feasibility
//!   constraints (which is how the measured datasets of the paper end up
//!   with non-product cardinalities like Kripke's 1609), exhaustive
//!   enumeration in mixed-radix order by one allocation-free odometer
//!   ([`FeasibleWalk`]), the mixed-radix *code* that addresses every member
//!   of a discrete space, and Hamming-distance-1 neighborhoods (the edge
//!   relation of GEIST's configuration graph).
//! - [`sampling`] — uniform random configuration sampling, with and without
//!   replacement, used for initial observation histories.
//! - [`encoding`] — one-hot and normalized numeric encodings consumed by
//!   the PerfNet neural network and the Gaussian-process comparator.
//! - [`pool`] — contiguous config-major pool encodings and positional
//!   bitmasks, the data layout behind the batch-scoring Ranking loop.

pub mod config;
pub mod encoding;
pub mod param;
pub mod pool;
pub mod sampling;
pub mod space;

pub use config::{Configuration, ParamValue};
pub use encoding::{Encoder, EncodingKind};
pub use param::{DiscreteValue, Domain, ParamDef};
pub use pool::{IndexBuffer, PoolCodes, PoolEncoding, PoolIndex, PoolMask};
pub use space::{FeasibleWalk, ParameterSpace, SpaceBuilder, SpaceError};
