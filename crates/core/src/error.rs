//! Error type of the OPTIMA modeling framework.

use optima_circuit::transient::BatchError;
use optima_circuit::CircuitError;
use optima_math::MathError;
use std::fmt;

/// Error returned by model calibration, evaluation and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A model was evaluated outside the domain it was calibrated for.
    OutOfCalibrationRange {
        /// The offending quantity.
        quantity: String,
        /// The requested value.
        value: f64,
        /// Lower bound of the calibrated range.
        lo: f64,
        /// Upper bound of the calibrated range.
        hi: f64,
    },
    /// The calibration data set was too small or degenerate for a fit.
    CalibrationFailed {
        /// Which model could not be fitted.
        model: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A model was used before it was calibrated.
    NotCalibrated {
        /// Which model was missing.
        model: String,
    },
    /// The event simulator was given an inconsistent schedule.
    InvalidSchedule {
        /// Human-readable description.
        context: String,
    },
    /// One item of a parallel sweep failed (calibration grid point, held-out
    /// evaluation point, Monte-Carlo sample, …).  The sweep is error-strict:
    /// no partial result is returned and the lowest failing index is named.
    SweepFailed {
        /// Zero-based index of the failing item in the swept grid.
        index: usize,
        /// Human-readable description of the failing item.
        item: String,
        /// The underlying error.
        source: Box<ModelError>,
    },
    /// A calibration snapshot file could not be read or written.
    SnapshotIo {
        /// Path of the snapshot file.
        path: String,
        /// Operating-system error description.
        reason: String,
    },
    /// A calibration snapshot file is syntactically invalid (truncated,
    /// corrupted, or not a snapshot at all).
    SnapshotCorrupt {
        /// Path of the snapshot file.
        path: String,
        /// One-based line number of the first offending line (0 when the
        /// file ended prematurely).
        line: usize,
        /// Human-readable description of the corruption.
        reason: String,
    },
    /// A calibration snapshot was written by an incompatible schema version.
    SnapshotSchemaMismatch {
        /// Path of the snapshot file.
        path: String,
        /// Schema tag found in the file.
        found: String,
        /// Schema tag this build understands.
        expected: String,
    },
    /// A calibration snapshot was fitted for a different technology or
    /// calibration configuration than the one requested.
    SnapshotFingerprintMismatch {
        /// Path of the snapshot file.
        path: String,
        /// Which fingerprint mismatched (`"technology"` or `"calibration config"`).
        what: &'static str,
        /// Fingerprint recorded in the file.
        found: String,
        /// Fingerprint of the requested technology/configuration.
        expected: String,
    },
    /// Error bubbled up from the golden-reference circuit simulator.
    Circuit(CircuitError),
    /// Error bubbled up from the numeric routines.
    Numeric(MathError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::OutOfCalibrationRange {
                quantity,
                value,
                lo,
                hi,
            } => write!(
                f,
                "{quantity} = {value} outside calibrated range [{lo}, {hi}]"
            ),
            ModelError::CalibrationFailed { model, reason } => {
                write!(f, "calibration of {model} failed: {reason}")
            }
            ModelError::NotCalibrated { model } => {
                write!(f, "model {model} has not been calibrated")
            }
            ModelError::InvalidSchedule { context } => {
                write!(f, "invalid event schedule: {context}")
            }
            ModelError::SweepFailed {
                index,
                item,
                source,
            } => {
                write!(f, "sweep item {index} ({item}) failed: {source}")
            }
            ModelError::SnapshotIo { path, reason } => {
                write!(f, "calibration snapshot {path}: {reason}")
            }
            ModelError::SnapshotCorrupt { path, line, reason } => {
                write!(
                    f,
                    "calibration snapshot {path} is corrupt (line {line}): {reason}"
                )
            }
            ModelError::SnapshotSchemaMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "calibration snapshot {path} has schema '{found}', this build expects '{expected}'"
            ),
            ModelError::SnapshotFingerprintMismatch {
                path,
                what,
                found,
                expected,
            } => write!(
                f,
                "calibration snapshot {path} was fitted for a different {what} \
                 (fingerprint {found}, requested {expected})"
            ),
            ModelError::Circuit(err) => write!(f, "circuit simulation error: {err}"),
            ModelError::Numeric(err) => write!(f, "numeric error: {err}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Circuit(err) => Some(err),
            ModelError::Numeric(err) => Some(err),
            ModelError::SweepFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl ModelError {
    /// Wraps a [`crate::sweep::SweepError`] with a human-readable description
    /// of the failing sweep item.
    pub fn from_sweep(err: crate::sweep::SweepError<ModelError>, item: impl Into<String>) -> Self {
        ModelError::SweepFailed {
            index: err.index,
            item: item.into(),
            source: Box::new(err.source),
        }
    }
}

impl From<CircuitError> for ModelError {
    fn from(err: CircuitError) -> Self {
        ModelError::Circuit(err)
    }
}

/// A failed instance of a lane-batched Monte-Carlo integration becomes a
/// sweep failure naming that instance.
impl From<BatchError> for ModelError {
    fn from(err: BatchError) -> Self {
        ModelError::SweepFailed {
            index: err.index,
            item: "mismatch instance".to_string(),
            source: Box::new(ModelError::Circuit(err.source)),
        }
    }
}

impl From<MathError> for ModelError {
    fn from(err: MathError) -> Self {
        ModelError::Numeric(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let err = ModelError::OutOfCalibrationRange {
            quantity: "V_WL".to_string(),
            value: 1.4,
            lo: 0.3,
            hi: 1.0,
        };
        assert!(err.to_string().contains("V_WL"));
        assert!(err.to_string().contains("1.4"));
        let err = ModelError::NotCalibrated {
            model: "discharge".to_string(),
        };
        assert!(err.to_string().contains("discharge"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        use std::error::Error;
        let err: ModelError = MathError::SingularMatrix.into();
        assert!(err.source().is_some());
        let err: ModelError = CircuitError::InvalidOperatingPoint {
            context: "x".to_string(),
        }
        .into();
        assert!(matches!(err, ModelError::Circuit(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
