//! # morph — Message Morphing
//!
//! The primary contribution of *"Lightweight Morphing Support for Evolving
//! Middleware Data Exchanges in Distributed Applications"* (ICDCS 2005):
//! expanding a receiver's *compatibility space* by combining out-of-band
//! binary meta-data ([`pbio`]) with dynamically compiled transformation
//! code ([`ecode`]).
//!
//! The pieces, mapped to the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | `diff` (Algorithm 1), weight `W_f`, Mismatch Ratio | [`diff`], [`type_weight`], [`mismatch_ratio`] |
//! | `MaxMatch` with `DIFF_THRESHOLD` / `MISMATCH_THRESHOLD` | [`max_match`], [`MatchConfig`] |
//! | Retro-transformations attached to formats (Fig. 1, Fig. 5) | [`Transformation`], [`TransformationRegistry`] |
//! | Receiver-side processing with caching (Algorithm 2) | [`MorphReceiver`] |
//! | Default-fill / extra-removal for near matches (Algorithm 2 lines 28–30) | the receiver's compiled [`pbio::ConversionPlan`]s: `execute` on wire bytes, `convert` on a chain's output |
//!
//! ## End-to-end example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use std::sync::{Arc, Mutex};
//! use morph::{MorphReceiver, Transformation};
//! use pbio::{Encoder, FormatBuilder, Value};
//!
//! // A newer writer speaks v2; an older reader only understands v1.
//! let v2 = FormatBuilder::record("Msg").int("a").int("b").build_arc()?;
//! let v1 = FormatBuilder::record("Msg").int("sum").build_arc()?;
//!
//! let got = Arc::new(Mutex::new(Vec::new()));
//! let sink = Arc::clone(&got);
//! let mut rx = MorphReceiver::new();
//! rx.register_handler(&v1, move |v| sink.lock().unwrap().push(v));
//! // The writer associated this retro-transformation with v2.
//! rx.import_transformation(Transformation::new(
//!     v2.clone(), v1.clone(), "old.sum = new.a + new.b;",
//! ));
//!
//! let wire = Encoder::new(&v2).encode(&Value::Record(vec![2.into(), 3.into()]))?;
//! rx.process(&wire)?; // morphed on the fly
//! assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(5)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deadletter;
mod error;
mod matching;
pub mod metaserver;
mod receiver;
pub mod resolver;
pub mod weighted;
mod xform;

pub use deadletter::{DeadLetter, DeadLetterQueue, DeadReason};
pub use error::{MorphError, Result};
pub use matching::{
    diff, max_match, mismatch_ratio, type_weight, MatchConfig, MatchQuality, MaxMatch,
};
pub use metaserver::{
    process_with_resolution, process_with_resolution_retry, resolve_into_with_retry, MetaClient,
    MetaServer, RetryPolicy,
};
pub use receiver::{
    DecisionCache, DefaultHandler, Delivery, Explanation, Handler, MorphReceiver, MorphStats,
    ProcessTiming,
};
pub use resolver::{
    BreakerState, DrainReport, PendingSet, PoolDelivery, ResolverConfig, ResolverPool,
};
pub use xform::{
    CompiledChain, CompiledXform, ReachableFormat, Transformation, TransformationRegistry,
};
