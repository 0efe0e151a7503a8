//! Error type for the core crate.

use std::fmt;

use lotec_txn::LockError;

/// Errors surfaced by engine runs and replay comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A workload specification failed validation.
    InvalidSpec(String),
    /// A [`SystemConfig`](crate::SystemConfig) failed validation.
    InvalidConfig(String),
    /// The lock manager rejected an operation the engine expected to be
    /// legal — either a workload bug (mutual recursion) or an engine bug.
    Lock(LockError),
    /// A family exceeded the configured restart budget.
    RestartBudgetExhausted {
        /// Index of the failing family in the workload.
        family_index: usize,
        /// Restarts attempted.
        restarts: u32,
    },
    /// The serializability oracle found a divergence.
    OracleViolation(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSpec(msg) => write!(f, "invalid workload spec: {msg}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            CoreError::Lock(e) => write!(f, "lock manager rejection: {e}"),
            CoreError::RestartBudgetExhausted {
                family_index,
                restarts,
            } => write!(
                f,
                "family #{family_index} exhausted its restart budget after {restarts} attempts"
            ),
            CoreError::OracleViolation(msg) => write!(f, "serializability violation: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lock(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LockError> for CoreError {
    fn from(e: LockError) -> Self {
        CoreError::Lock(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::InvalidSpec("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = CoreError::RestartBudgetExhausted {
            family_index: 3,
            restarts: 25,
        };
        assert!(e.to_string().contains("#3"));
        assert!(e.to_string().contains("25"));
    }

    #[test]
    fn lock_errors_convert() {
        let e: CoreError = LockError::UnknownObject(lotec_mem::ObjectId::new(1)).into();
        assert!(matches!(e, CoreError::Lock(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
