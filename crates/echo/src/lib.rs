//! # echo — channel-based publish/subscribe middleware
//!
//! A reproduction of the ECho event-delivery system (paper §4.1, refs
//! [9, 11]): processes communicate through event channels; sources submit
//! events, subscribed sinks are notified. Channel membership is exchanged
//! with `ChannelOpenRequest` / `ChannelOpenResponse` control messages, whose
//! format *evolved* between ECho v1.0 and v2.0 (Fig. 4) — the interop
//! problem message morphing solves.
//!
//! Processes run over [`simnet`]'s deterministic virtual-time network; every
//! receiver (control-plane and event-plane) is a [`morph::MorphReceiver`],
//! so mixed-version deployments interoperate without negotiation, exactly as
//! in the paper: new creators keep sending v2.0 responses, and v1.0
//! subscribers morph them on receipt using the writer-supplied Fig. 5
//! transformation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod dedup;
mod driver;
pub mod frag;
mod ingress;
pub mod journal;
mod metrics;
mod node;
pub mod proto;
mod recovery;
mod retry;
mod shard;
mod shed;
mod system;
pub mod telemetry;

use std::fmt;

pub use driver::{Driver, VirtualTimeDriver, WallClockDriver, DEFAULT_MAILBOX_CAPACITY};
pub use frag::{split_message, Fragment, ReassemblyBuffer};
pub use journal::{Journal, JournalEntry, JournalStats, Recovered};
pub use node::{EchoVersion, Role};
pub use proto::{ChannelId, Frame, FrameError, MemberInfo, QosTier};
pub use shard::{fnv1a, shard_of_name};
pub use system::{EchoSystem, ProcessId};

/// Errors from the ECho middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum EchoError {
    /// Underlying PBIO error.
    Pbio(pbio::PbioError),
    /// Underlying morphing error.
    Morph(morph::MorphError),
    /// Underlying network error.
    Net(simnet::NetError),
    /// The channel is not in the directory.
    UnknownChannel(ChannelId),
    /// The process does not own the channel.
    NotChannelOwner(ChannelId),
    /// The process is not subscribed (as required for the operation).
    NotSubscribed(ChannelId),
    /// A network frame could not be parsed.
    MalformedFrame,
    /// Unknown frame kind byte.
    UnknownFrameKind(u8),
    /// An encoded event needs more fragments than the wire's 16-bit
    /// fragment fields can number ([`frag::MAX_FRAGMENTS`]).
    MessageTooLarge {
        /// Encoded payload size in bytes.
        len: usize,
        /// Configured frame budget in bytes.
        budget: usize,
    },
}

impl fmt::Display for EchoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EchoError::Pbio(e) => write!(f, "pbio: {e}"),
            EchoError::Morph(e) => write!(f, "morph: {e}"),
            EchoError::Net(e) => write!(f, "network: {e}"),
            EchoError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            EchoError::NotChannelOwner(c) => write!(f, "process does not own channel {c}"),
            EchoError::NotSubscribed(c) => write!(f, "process is not subscribed to channel {c}"),
            EchoError::MalformedFrame => write!(f, "malformed network frame"),
            EchoError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            EchoError::MessageTooLarge { len, budget } => {
                write!(f, "{len}-byte event cannot split into ≤65535 fragments of {budget} bytes")
            }
        }
    }
}

impl std::error::Error for EchoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EchoError::Pbio(e) => Some(e),
            EchoError::Morph(e) => Some(e),
            EchoError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pbio::PbioError> for EchoError {
    fn from(e: pbio::PbioError) -> EchoError {
        EchoError::Pbio(e)
    }
}

impl From<morph::MorphError> for EchoError {
    fn from(e: morph::MorphError) -> EchoError {
        EchoError::Morph(e)
    }
}

impl From<simnet::NetError> for EchoError {
    fn from(e: simnet::NetError) -> EchoError {
        EchoError::Net(e)
    }
}
