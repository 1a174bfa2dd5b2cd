use std::error::Error;
use std::fmt;

use castg_numeric::NumericError;

/// Errors produced by netlist construction and circuit analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// A device referenced a node id that does not exist in the circuit.
    UnknownNode {
        /// The offending node id (index).
        node: usize,
        /// Name of the device that referenced it.
        device: String,
    },
    /// A device name was not found in the circuit.
    UnknownDevice {
        /// The name that was looked up.
        name: String,
    },
    /// Two devices were added with the same name.
    DuplicateDevice {
        /// The clashing name.
        name: String,
    },
    /// A device was constructed with a physically invalid value.
    InvalidValue {
        /// Name of the device.
        device: String,
        /// Description of what was wrong.
        reason: String,
    },
    /// The nonlinear solver failed to converge.
    NoConvergence {
        /// Which analysis failed (for example `"dc operating point"` or
        /// `"transient @ t=1.25e-6"`).
        analysis: String,
        /// Number of Newton iterations spent before giving up.
        iterations: usize,
    },
    /// An underlying linear-algebra failure (singular MNA matrix, usually a
    /// floating node or a voltage-source loop).
    Numeric(NumericError),
    /// The MNA system is singular at a *named* unknown — the
    /// circuit-level form of [`NumericError::SingularMatrix`], produced
    /// by the analyses (which know the unknown layout) so a CLI user
    /// sees the offending node or branch, not a bare pivot index.
    Singular {
        /// The unknown whose pivot column vanished: `v(<node>)` for a
        /// node voltage, `i(<device>)` for a branch current.
        unknown: String,
    },
    /// The analysis was asked to produce no timepoints (zero or negative
    /// duration, or a non-positive timestep).
    InvalidAnalysis {
        /// Description of the invalid request.
        reason: String,
    },
    /// The analysis overran the wall-clock budget of a surrounding
    /// [`crate::with_solve_budget`] scope before converging.
    ///
    /// Unlike [`SpiceError::NoConvergence`] this verdict depends on the
    /// host's clock, so callers that need bit-identical behavior across
    /// machines or thread counts should budget by iterations instead.
    Timeout {
        /// Which analysis was cut off.
        analysis: String,
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::UnknownNode { node, device } => {
                write!(f, "device `{device}` references unknown node {node}")
            }
            SpiceError::UnknownDevice { name } => write!(f, "unknown device `{name}`"),
            SpiceError::DuplicateDevice { name } => write!(f, "duplicate device name `{name}`"),
            SpiceError::InvalidValue { device, reason } => {
                write!(f, "invalid value for device `{device}`: {reason}")
            }
            SpiceError::NoConvergence { analysis, iterations } => {
                write!(f, "{analysis} failed to converge after {iterations} iterations")
            }
            SpiceError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SpiceError::Singular { unknown } => write!(
                f,
                "circuit is structurally singular at unknown {unknown} \
                 (check for a floating node or a voltage-source loop)"
            ),
            SpiceError::InvalidAnalysis { reason } => write!(f, "invalid analysis: {reason}"),
            SpiceError::Timeout { analysis, budget_ms } => {
                write!(f, "{analysis} exceeded its {budget_ms} ms wall-clock budget")
            }
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for SpiceError {
    fn from(e: NumericError) -> Self {
        SpiceError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SpiceError::NoConvergence { analysis: "dc operating point".into(), iterations: 50 };
        assert!(e.to_string().contains("50 iterations"));
        let e = SpiceError::UnknownDevice { name: "M9".into() };
        assert!(e.to_string().contains("M9"));
    }

    #[test]
    fn numeric_errors_convert() {
        let n = NumericError::SingularMatrix { pivot: 2 };
        let s: SpiceError = n.clone().into();
        assert_eq!(s, SpiceError::Numeric(n));
        assert!(Error::source(&s).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpiceError>();
    }
}
