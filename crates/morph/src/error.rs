//! Error type for the morphing layer.

use std::fmt;

use pbio::FormatId;

/// Errors from configuring or running message morphing.
#[derive(Debug, Clone, PartialEq)]
pub enum MorphError {
    /// An underlying PBIO wire/format error.
    Pbio(pbio::PbioError),
    /// An underlying Ecode compile or runtime error.
    Ecode(ecode::EcodeError),
    /// The wire message references a format with no out-of-band meta-data.
    UnknownWireFormat(FormatId),
    /// A registered transformation's source/target formats are inconsistent.
    BadTransformation(String),
    /// A malformed meta-protocol message (truncated opcode/length/payload,
    /// unknown tag) — adversarial or damaged bytes, never a panic.
    Protocol(String),
    /// A resolution retry budget was exhausted without success.
    RetryExhausted(String),
    /// Configuration error (bad thresholds, duplicate handler, ...).
    Config(String),
}

impl fmt::Display for MorphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphError::Pbio(e) => write!(f, "pbio: {e}"),
            MorphError::Ecode(e) => write!(f, "ecode: {e}"),
            MorphError::UnknownWireFormat(id) => {
                write!(f, "no out-of-band meta-data for wire format {id}")
            }
            MorphError::BadTransformation(msg) => write!(f, "bad transformation: {msg}"),
            MorphError::Protocol(msg) => write!(f, "meta protocol: {msg}"),
            MorphError::RetryExhausted(msg) => write!(f, "retry budget exhausted: {msg}"),
            MorphError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for MorphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MorphError::Pbio(e) => Some(e),
            MorphError::Ecode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pbio::PbioError> for MorphError {
    fn from(e: pbio::PbioError) -> MorphError {
        MorphError::Pbio(e)
    }
}

impl From<ecode::EcodeError> for MorphError {
    fn from(e: ecode::EcodeError) -> MorphError {
        MorphError::Ecode(e)
    }
}

/// Convenience alias for morph results.
pub type Result<T> = std::result::Result<T, MorphError>;
