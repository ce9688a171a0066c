//! Crash-safe checkpointing of a tuning campaign.
//!
//! A [`TunerCheckpoint`] is a versioned snapshot of everything a
//! [`Tuner`](crate::tuner::Tuner) needs to continue a run exactly where it
//! stopped: the observation history (successes plus quarantined failures,
//! which together determine the incumbent and the trial cursor), the RNG
//! stream position, and a fingerprint of the options and parameter space it
//! was taken under. Because the tuner's RNG is counter-based ChaCha, the
//! `(seed, rng_word_pos)` pair restores the exact keystream position, so a
//! resumed run makes bit-identical decisions to the uninterrupted one.
//!
//! Snapshots are written atomically: the JSON is serialized to a temporary
//! file in the destination directory, synced, and renamed over the target.
//! A crash mid-write leaves either the previous complete snapshot or the
//! stray temp file — never a torn checkpoint.
//!
//! When no snapshot exists, [`parse_trace`] reconstructs the observation
//! history from an observability trace (a JSONL event stream whose
//! `ObjectiveEvaluated`/`TrialFailed` events embed their configurations) —
//! see [`Tuner::resume_from_trace`](crate::tuner::Tuner::resume_from_trace)
//! for the exactness conditions of that fallback.

use crate::history::SavedHistory;
use hiperbot_obs::Event;
use hiperbot_space::Configuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Current snapshot format version. Bumped on incompatible layout changes;
/// loads of a different version fail loudly instead of misresuming.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The largest RNG word position a snapshot may carry. The generator
/// reports its position as a `u64`; a run this far into the keystream is
/// out of reach (2^63 words), so a larger cursor is corrupt — and resuming
/// at it would overflow the position the next snapshot records.
const MAX_RNG_WORD_POS: u64 = u64::MAX / 2;

/// A versioned, self-validating snapshot of a tuning campaign.
///
/// Produced by [`Tuner::checkpoint`](crate::tuner::Tuner::checkpoint) and
/// consumed by
/// [`Tuner::resume_from_checkpoint`](crate::tuner::Tuner::resume_from_checkpoint).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunerCheckpoint {
    /// Snapshot format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// RNG seed of the campaign. A resume under a different seed would
    /// silently diverge, so it is rejected instead.
    pub seed: u64,
    /// The option summary string
    /// ([`TunerOptions::summary`](crate::tuner::TunerOptions::summary)) the
    /// snapshot was taken under, compared verbatim on resume so a mismatch
    /// error can show both sides.
    pub options: String,
    /// Stable fingerprint of the parameter space
    /// ([`hiperbot_obs::space_fingerprint`]).
    pub space_fingerprint: String,
    /// Whether the bootstrap phase had completed. When `false` the snapshot
    /// was taken mid-bootstrap and `rng_word_pos` is the position *before*
    /// the bootstrap draw, so a resume can redraw the identical sample list
    /// and skip the already-evaluated prefix.
    pub bootstrapped: bool,
    /// Duplicate-suggestion stalls of the interrupted run (Proposal mode),
    /// preserved so the run's final `ProposalStalled` accounting matches an
    /// uninterrupted run.
    pub stalls: u64,
    /// ChaCha keystream position in 32-bit words. Together with `seed` this
    /// fully determines the RNG state.
    pub rng_word_pos: u64,
    /// The observation history: evaluated configurations, objectives, and
    /// quarantined permanent failures, in evaluation order.
    pub history: SavedHistory,
}

/// Why a checkpoint could not be saved, loaded, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// The snapshot's format version is not [`CHECKPOINT_VERSION`].
    Version {
        /// Version found in the snapshot.
        found: u32,
    },
    /// The snapshot was taken under a different RNG seed.
    SeedMismatch {
        /// Seed the resuming tuner was configured with.
        expected: u64,
        /// Seed stored in the snapshot.
        found: u64,
    },
    /// The snapshot was taken under different tuner options.
    OptionsMismatch {
        /// Option summary of the resuming tuner.
        expected: String,
        /// Option summary stored in the snapshot.
        found: String,
    },
    /// The snapshot was taken over a structurally different parameter
    /// space.
    SpaceMismatch {
        /// Fingerprint of the resuming tuner's space.
        expected: String,
        /// Fingerprint stored in the snapshot.
        found: String,
    },
    /// The snapshot's RNG word position lies past any position a run can
    /// reach.
    RngPosition {
        /// Word position stored in the snapshot.
        found: u64,
    },
    /// The saved history failed validation (mismatched tables, non-finite
    /// objective, duplicate configuration) or contains a configuration
    /// infeasible in the current space.
    InvalidHistory(String),
    /// The snapshot or trace could not be parsed.
    Parse(String),
    /// The trace cannot be resumed exactly (see the variant message for
    /// why — e.g. Proposal-mode RNG draws or recovery restarts are not
    /// reconstructable from events alone; resume from a snapshot instead).
    TraceNotExact(String),
    /// Filesystem error while reading or writing.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
            Self::SeedMismatch { expected, found } => write!(
                f,
                "checkpoint seed mismatch: tuner is seeded {expected} but the snapshot was taken under seed {found}"
            ),
            Self::OptionsMismatch { expected, found } => write!(
                f,
                "checkpoint options mismatch: tuner has [{expected}] but the snapshot was taken under [{found}]"
            ),
            Self::SpaceMismatch { expected, found } => write!(
                f,
                "checkpoint space mismatch: tuner space fingerprint is {expected} but the snapshot was taken over {found}"
            ),
            Self::RngPosition { found } => write!(
                f,
                "checkpoint RNG position {found} is past any reachable position (at most {MAX_RNG_WORD_POS})"
            ),
            Self::InvalidHistory(why) => write!(f, "invalid checkpoint history: {why}"),
            Self::Parse(why) => write!(f, "unparseable checkpoint: {why}"),
            Self::TraceNotExact(why) => write!(f, "trace cannot be resumed exactly: {why}"),
            Self::Io(why) => write!(f, "checkpoint I/O error: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl TunerCheckpoint {
    /// Serializes the snapshot to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses a snapshot from JSON (format-version checked on resume, not
    /// here, so callers can still inspect foreign snapshots).
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        serde_json::from_str(json).map_err(|e| CheckpointError::Parse(e.to_string()))
    }

    /// Writes the snapshot to `path` atomically: serialize to a temporary
    /// file in the same directory, sync it to disk, then rename over the
    /// destination. Readers never observe a torn snapshot, and a crash
    /// mid-write preserves the previous one.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = std::fs::File::create(&tmp).map_err(io)?;
            f.write_all(self.to_json().as_bytes()).map_err(io)?;
            f.write_all(b"\n").map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Loads a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&json)
    }

    /// Validates the snapshot against the identity of the tuner about to
    /// resume it: format version, seed, option summary, and space
    /// fingerprint must all match exactly, and the RNG word position must
    /// be one a run can reach.
    pub fn validate(
        &self,
        seed: u64,
        options_summary: &str,
        space_fingerprint: &str,
    ) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: self.version,
            });
        }
        if self.seed != seed {
            return Err(CheckpointError::SeedMismatch {
                expected: seed,
                found: self.seed,
            });
        }
        if self.options != options_summary {
            return Err(CheckpointError::OptionsMismatch {
                expected: options_summary.to_string(),
                found: self.options.clone(),
            });
        }
        if self.space_fingerprint != space_fingerprint {
            return Err(CheckpointError::SpaceMismatch {
                expected: space_fingerprint.to_string(),
                found: self.space_fingerprint.clone(),
            });
        }
        if self.rng_word_pos > MAX_RNG_WORD_POS {
            return Err(CheckpointError::RngPosition {
                found: self.rng_word_pos,
            });
        }
        Ok(())
    }
}

/// One budget-consuming trial reconstructed from a trace, in event order.
#[derive(Debug, Clone)]
pub enum TraceTrial {
    /// A successful evaluation: configuration and finite objective.
    Ok(Configuration, f64),
    /// A permanently failed evaluation: configuration and failure reason.
    Failed(Configuration, String),
}

/// The resumable state parsed out of an observability trace.
#[derive(Debug, Clone)]
pub struct TraceState {
    /// RNG seed from the trace's `RunHeader`.
    pub seed: u64,
    /// Space fingerprint from the `RunHeader`.
    pub space_fingerprint: String,
    /// Option summary from the `RunHeader`.
    pub options: String,
    /// The trials in evaluation order.
    pub trials: Vec<TraceTrial>,
}

/// Parses a JSONL trace into resumable state: the `RunHeader` identity plus
/// every budget-consuming trial (`ObjectiveEvaluated` / `TrialFailed`) in
/// order, read from the configurations embedded in those events.
///
/// A crash can tear the final line of a trace mid-write, so an unparseable
/// *last* line is tolerated (the events before it are still a consistent
/// prefix); an unparseable line anywhere else is an error. Traces without a
/// `RunHeader`, with trial events that do not embed their configuration
/// (pre-checkpointing traces), or that are themselves the suffix of a
/// resumed run (`RunResumed` present) are rejected.
pub fn parse_trace(trace: &str) -> Result<TraceState, CheckpointError> {
    let lines: Vec<&str> = trace
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut header: Option<(u64, String, String)> = None;
    let mut trials = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let event: Event = match serde_json::from_str(line) {
            Ok(e) => e,
            // A torn final line is what a mid-write crash looks like.
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => {
                return Err(CheckpointError::Parse(format!("trace line {}: {e}", i + 1)));
            }
        };
        match event {
            Event::RunHeader(h) => {
                if header.is_some() {
                    return Err(CheckpointError::Parse(
                        "trace contains more than one RunHeader; split the runs first".into(),
                    ));
                }
                header = Some((h.seed, h.space_fingerprint, h.options));
            }
            Event::RunResumed { .. } => {
                return Err(CheckpointError::TraceNotExact(
                    "this trace is itself the suffix of a resumed run and does not hold \
                     the full history; resume from the snapshot instead"
                        .into(),
                ));
            }
            Event::ObjectiveEvaluated {
                objective, config, ..
            } => match config {
                Some(cfg) => trials.push(TraceTrial::Ok(cfg, objective)),
                None => {
                    return Err(CheckpointError::TraceNotExact(
                        "trace trial events do not embed their configurations \
                         (produced by an older build); resume from a snapshot instead"
                            .into(),
                    ));
                }
            },
            Event::TrialFailed { reason, config, .. } => match config {
                Some(cfg) => trials.push(TraceTrial::Failed(cfg, reason)),
                None => {
                    return Err(CheckpointError::TraceNotExact(
                        "trace trial events do not embed their configurations \
                         (produced by an older build); resume from a snapshot instead"
                            .into(),
                    ));
                }
            },
            _ => {}
        }
    }
    let Some((seed, space_fingerprint, options)) = header else {
        return Err(CheckpointError::Parse(
            "trace has no RunHeader to validate the resume against".into(),
        ));
    };
    Ok(TraceState {
        seed,
        space_fingerprint,
        options,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> TunerCheckpoint {
        TunerCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: 7,
            options: "opts".into(),
            space_fingerprint: "abcd".into(),
            bootstrapped: true,
            stalls: 0,
            rng_word_pos: 42,
            history: SavedHistory {
                configs: vec![Configuration::from_indices(&[1, 2])],
                objectives: vec![3.5],
                failures: vec![],
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let s = snapshot();
        let back = TunerCheckpoint::from_json(&s.to_json()).unwrap();
        assert_eq!(back.version, s.version);
        assert_eq!(back.seed, s.seed);
        assert_eq!(back.rng_word_pos, s.rng_word_pos);
        assert_eq!(back.history.configs, s.history.configs);
    }

    #[test]
    fn validate_rejects_each_identity_mismatch() {
        let s = snapshot();
        assert!(s.validate(7, "opts", "abcd").is_ok());
        assert!(matches!(
            s.validate(8, "opts", "abcd"),
            Err(CheckpointError::SeedMismatch { .. })
        ));
        assert!(matches!(
            s.validate(7, "other", "abcd"),
            Err(CheckpointError::OptionsMismatch { .. })
        ));
        assert!(matches!(
            s.validate(7, "opts", "ffff"),
            Err(CheckpointError::SpaceMismatch { .. })
        ));
        let mut v = snapshot();
        v.version = 99;
        assert!(matches!(
            v.validate(7, "opts", "abcd"),
            Err(CheckpointError::Version { found: 99 })
        ));
    }

    #[test]
    fn save_load_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("hiperbot-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt.json");
        let s = snapshot();
        s.save(&path).unwrap();
        let back = TunerCheckpoint::load(&path).unwrap();
        assert_eq!(back.rng_word_pos, 42);
        // Overwrite with a later snapshot: the rename replaces in place.
        let mut s2 = snapshot();
        s2.rng_word_pos = 99;
        s2.save(&path).unwrap();
        assert_eq!(TunerCheckpoint::load(&path).unwrap().rng_word_pos, 99);
        // No stray temp file remains.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_trace_reads_trials_and_tolerates_a_torn_tail() {
        let cfg = Configuration::from_indices(&[0, 1]);
        let header = r#"{"RunHeader":{"version":"0.1.0","seed":5,"space_fingerprint":"aa","n_params":2,"pool_size":4,"options":"o"}}"#;
        let ok = serde_json::to_string(&Event::ObjectiveEvaluated {
            iteration: 0,
            objective: 1.5,
            bootstrap: true,
            elapsed_ns: 10,
            config: Some(cfg.clone()),
        })
        .unwrap();
        let fail = serde_json::to_string(&Event::TrialFailed {
            iteration: 1,
            reason: "crash".into(),
            elapsed_ns: 10,
            config: Some(cfg.clone()),
        })
        .unwrap();
        let trace = format!("{header}\n{ok}\n{fail}\n{{\"Objec");
        let state = parse_trace(&trace).unwrap();
        assert_eq!(state.seed, 5);
        assert_eq!(state.space_fingerprint, "aa");
        assert_eq!(state.options, "o");
        assert_eq!(state.trials.len(), 2);
        assert!(matches!(&state.trials[0], TraceTrial::Ok(c, y) if *y == 1.5 && c == &cfg));
        assert!(matches!(&state.trials[1], TraceTrial::Failed(c, r) if r == "crash" && c == &cfg));
    }

    #[test]
    fn parse_trace_rejects_bad_shapes() {
        // Torn line in the middle is corruption, not a crash artifact.
        let header = r#"{"RunHeader":{"version":"0.1.0","seed":5,"space_fingerprint":"aa","n_params":2,"pool_size":4,"options":"o"}}"#;
        let torn_middle = format!("{header}\n{{\"Objec\n{header}");
        assert!(matches!(
            parse_trace(&torn_middle),
            Err(CheckpointError::Parse(_))
        ));
        // No header at all.
        assert!(matches!(parse_trace(""), Err(CheckpointError::Parse(_))));
        // Config-less trial events cannot rebuild the history.
        let old = format!(
            "{header}\n{}",
            r#"{"ObjectiveEvaluated":{"iteration":0,"objective":1.0,"bootstrap":true,"elapsed_ns":1}}"#
        );
        assert!(matches!(
            parse_trace(&old),
            Err(CheckpointError::TraceNotExact(_))
        ));
        // A resumed-run suffix does not hold the full campaign.
        let resumed = format!(
            "{header}\n{}",
            r#"{"RunResumed":{"trials":5,"observations":5,"failures":0,"source":"snapshot"}}"#
        );
        assert!(matches!(
            parse_trace(&resumed),
            Err(CheckpointError::TraceNotExact(_))
        ));
    }
}
