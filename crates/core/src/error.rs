use std::error::Error;
use std::fmt;

use ecl_aaa::AaaError;
use ecl_blocks::BlockError;
use ecl_control::ControlError;
use ecl_linalg::LinalgError;
use ecl_sim::SimError;

/// Errors produced by the methodology layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A simulation-model construction or execution failure.
    Sim(SimError),
    /// An AAA (algorithm/architecture/adequation) failure.
    Aaa(AaaError),
    /// A control-synthesis failure.
    Control(ControlError),
    /// A block-construction failure.
    Block(BlockError),
    /// A linear-algebra failure.
    Linalg(LinalgError),
    /// The methodology inputs were inconsistent (schedule longer than the
    /// period, missing condition source, ...).
    InvalidInput {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// A sweep scenario panicked; the panic was contained to its own
    /// index.
    ScenarioPanicked {
        /// Global index of the scenario.
        index: usize,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Aaa(e) => write!(f, "adequation error: {e}"),
            CoreError::Control(e) => write!(f, "control synthesis error: {e}"),
            CoreError::Block(e) => write!(f, "block error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::InvalidInput { reason } => write!(f, "invalid methodology input: {reason}"),
            CoreError::ScenarioPanicked { index, message } => {
                write!(f, "scenario {index} panicked: {message}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Aaa(e) => Some(e),
            CoreError::Control(e) => Some(e),
            CoreError::Block(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::InvalidInput { .. } | CoreError::ScenarioPanicked { .. } => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}
impl From<AaaError> for CoreError {
    fn from(e: AaaError) -> Self {
        CoreError::Aaa(e)
    }
}
impl From<ControlError> for CoreError {
    fn from(e: ControlError) -> Self {
        CoreError::Control(e)
    }
}
impl From<BlockError> for CoreError {
    fn from(e: BlockError) -> Self {
        CoreError::Block(e)
    }
}
impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = SimError::UnknownBlock { index: 0 }.into();
        assert!(e.to_string().contains("simulation"));
        assert!(Error::source(&e).is_some());
        let e: CoreError = AaaError::UnknownOp { index: 0 }.into();
        assert!(e.to_string().contains("adequation"));
        let e: CoreError = LinalgError::Singular { pivot: 0 }.into();
        assert!(e.to_string().contains("linear algebra"));
        let e = CoreError::InvalidInput { reason: "x".into() };
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
