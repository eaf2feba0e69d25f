//! The crate-wide error type.
//!
//! Everything fallible in `spectragan-core` — model-file parsing,
//! weight loading, training, checkpoint/resume — reports a [`CoreError`]
//! so callers (the CLI in particular) render one consistent family of
//! messages instead of a mix of `String`, `serde_json::Error` and
//! panics.

use std::fmt;
use std::path::PathBuf;

/// Errors from model construction, (de)serialization, training and
/// checkpointing.
#[derive(Debug)]
pub enum CoreError {
    /// No training patches could be extracted: the city list is empty
    /// or every grid is smaller than one patch.
    NoTrainingData(String),
    /// A training city's series is shorter than the configured training
    /// length.
    SeriesTooShort {
        /// City name.
        city: String,
        /// Steps the city actually has.
        have: usize,
        /// Steps the configuration requires.
        need: usize,
    },
    /// A generation request is malformed: zero-length output, zero
    /// batch size, or a context map that does not fit the model. These
    /// are caller errors (a serving front-end maps them to HTTP 4xx),
    /// never process-killing panics — the request path of a
    /// long-running server must survive arbitrary input.
    InvalidRequest(String),
    /// A model file or weights blob is malformed or does not match the
    /// architecture (format tag, parameter count, shapes, JSON syntax).
    Model(String),
    /// A checkpoint or run directory is unusable: missing, corrupt
    /// beyond recovery, or inconsistent with the requested
    /// configuration.
    Checkpoint(String),
    /// Training diverged (NaN/inf loss or gradient blowup) and every
    /// RNG re-roll at that step diverged too — the run cannot make
    /// progress. The last good checkpoint, if any, is still on disk.
    Diverged {
        /// The 0-based step that could not complete.
        step: usize,
        /// How many alternative RNG lanes were tried.
        retries: u32,
        /// Human-readable description of the last failure.
        reason: String,
    },
    /// The training options are unusable (e.g. zero gradient
    /// accumulation micro-rounds) — a caller error caught before any
    /// step runs.
    InvalidOptions(String),
    /// Filesystem error, with the path for context.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoTrainingData(why) => write!(f, "no training data: {why}"),
            CoreError::SeriesTooShort { city, have, need } => {
                write!(
                    f,
                    "city '{city}' has {have} steps, the configuration needs at least {need}"
                )
            }
            CoreError::InvalidRequest(why) => write!(f, "invalid generation request: {why}"),
            CoreError::Model(why) => write!(f, "model error: {why}"),
            CoreError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            CoreError::Diverged {
                step,
                retries,
                reason,
            } => {
                write!(
                    f,
                    "training diverged at step {step} ({reason}); {retries} RNG re-rolls all \
                     diverged too"
                )
            }
            CoreError::InvalidOptions(why) => write!(f, "invalid training options: {why}"),
            CoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CoreError {
    /// Wraps a filesystem error with its path.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        CoreError::Io {
            path: path.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = CoreError::SeriesTooShort {
            city: "X".into(),
            have: 3,
            need: 24,
        };
        assert!(e.to_string().contains("'X'"));
        assert!(e.to_string().contains("24"));
        let e = CoreError::Diverged {
            step: 17,
            retries: 3,
            reason: "d_loss = NaN".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("step 17") && msg.contains("NaN"), "{msg}");
        let e = CoreError::InvalidOptions("grad_accum must be at least 1".into());
        let msg = e.to_string();
        assert!(
            msg.contains("invalid training options") && msg.contains("grad_accum"),
            "{msg}"
        );
        let e = CoreError::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/x"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
