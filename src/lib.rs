//! # message-morphing
//!
//! Umbrella crate for the reproduction of *"Lightweight Morphing Support
//! for Evolving Middleware Data Exchanges in Distributed Applications"*
//! (Agarwala, Eisenhauer, Schwan — ICDCS 2005).
//!
//! Re-exports every subsystem:
//!
//! - [`pbio`] — the Portable Binary I/O wire format (out-of-band meta-data,
//!   native-format encoding, specialized conversion plans).
//! - [`ecode`] — the Ecode transformation language (C subset) with a
//!   bytecode VM and reference interpreter.
//! - [`morph`] — **the paper's contribution**: MaxMatch format matching,
//!   retro-transformation chains, and the caching morphing receiver
//!   (Algorithm 2).
//! - [`xmlt`] — the XML + XSLT baseline of the evaluation.
//! - [`simnet`] — a deterministic virtual-time network simulator.
//! - [`echo`] — ECho-style publish/subscribe middleware demonstrating
//!   mixed-version interoperability (paper §4.1).
//! - [`obs`] — zero-dependency observability: counters, histograms, and
//!   scoped timers behind every morphing hot path (see `OBSERVABILITY.md`).
//!
//! [`paper`] holds the §5 evaluation workload shared by `tests/paper.rs`
//! and `examples/paper_figures.rs`.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use message_morphing::prelude::*;
//! use std::sync::{Arc, Mutex};
//!
//! // New format (v2) and old format (v1) of the "same" message.
//! let v2 = FormatBuilder::record("Load").int("cpu").int("mem").int("net").build_arc()?;
//! let v1 = FormatBuilder::record("Load").int("cpu").int("mem").build_arc()?;
//!
//! // An old client registers only v1 — but learns (out of band) how v2
//! // retro-transforms.
//! let got = Arc::new(Mutex::new(Vec::new()));
//! let sink = Arc::clone(&got);
//! let mut rx = MorphReceiver::new();
//! rx.register_handler(&v1, move |v| sink.lock().unwrap().push(v));
//! rx.import_transformation(Transformation::new(
//!     v2.clone(), v1.clone(), "old.cpu = new.cpu; old.mem = new.mem;",
//! ));
//!
//! // A new server sends a v2 message; the old client still understands it.
//! let wire = Encoder::new(&v2).encode(&Value::Record(vec![
//!     Value::Int(10), Value::Int(20), Value::Int(30),
//! ]))?;
//! rx.process(&wire)?;
//! assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(10), Value::Int(20)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use echo;
pub use ecode;
pub use morph;
pub use obs;
pub use pbio;
pub use simnet;
pub use xmlt;

pub mod paper;

/// Commonly used items from every subsystem.
pub mod prelude {
    pub use echo::{ChannelId, EchoSystem, EchoVersion, QosTier, Role};
    pub use ecode::{EcodeCompiler, EcodeProgram};
    pub use morph::{diff, max_match, mismatch_ratio, MatchConfig, MorphReceiver, Transformation};
    pub use obs::{Registry, Snapshot};
    pub use pbio::{
        format_id, ConversionPlan, Encoder, FormatBuilder, FormatRegistry, RecordFormat, Value,
    };
    pub use simnet::{LinkParams, Network};
    pub use xmlt::{value_to_xml, xml_to_value, Stylesheet};
}
