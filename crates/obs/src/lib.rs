//! # obs — zero-dependency observability
//!
//! The metrics/tracing substrate for the message-morphing workspace. The
//! paper's headline claims are *behavioural* — Algorithm 2's per-format
//! decision cache makes the first morphed message expensive and every later
//! one nearly free; PBIO's specialized conversion plans beat meta-data-driven
//! decoding by an order of magnitude — and this crate is how a running
//! system exposes those behaviours: every hot path increments named
//! [`Counter`]s and records nanosecond [`Histogram`] samples into a shared
//! [`Registry`], which exports deterministic text/JSON [`Snapshot`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Zero external dependencies** — `std` only, atomics throughout.
//! 2. **Hot-path cheap** — handles are `Arc`s fetched once; updates are
//!    lock-free atomic adds. No formatting, no allocation per update.
//! 3. **Virtual-time aware** — all timestamps flow through the [`Clock`]
//!    trait, so `simnet`'s deterministic virtual clock can drive the same
//!    instrumentation the wall clock does ([`VirtualClock`]), making
//!    snapshots reproducible in simulation.
//!
//! Metrics aggregate; the *tracing* half narrates. A [`FlightRecorder`] is
//! a bounded ring of parent-linked [`SpanEvent`]s keyed by [`TraceId`], so
//! a caller can follow one message causally across components and export
//! the story as an indented text tree or chrome://tracing JSON
//! ([`FlightRecorder::text_tree`], [`FlightRecorder::chrome_json`]).
//!
//! The metric and span name catalogues (names, units, and the paper claim
//! each makes observable) live in `OBSERVABILITY.md` at the repository
//! root.
//!
//! ## Example: counting cache behaviour and timing work
//!
//! ```
//! use std::sync::Arc;
//! use obs::{Registry, VirtualClock};
//!
//! // A component keeps its handles; lookups happen once.
//! let clock = Arc::new(VirtualClock::new());
//! let reg = Arc::new(Registry::with_clock(clock.clone()));
//! let hits = reg.counter("cache.hit");
//! let misses = reg.counter("cache.miss");
//!
//! // First request: miss, pay the compile under a span.
//! misses.inc();
//! {
//!     let _compile = reg.timer("compile_ns");
//!     clock.advance_ns(40_000); // expensive one-time work
//! }
//! // Hundred warm requests.
//! for _ in 0..100 {
//!     hits.inc();
//!     let _serve = reg.timer("serve_ns");
//!     clock.advance_ns(300);
//! }
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.miss"), Some(1));
//! assert_eq!(snap.counter("cache.hit"), Some(100));
//! let compile = snap.histogram("compile_ns").unwrap();
//! let serve = snap.histogram("serve_ns").unwrap();
//! assert!(compile.min > 100 * serve.max); // cold ≫ warm — Algorithm 2's story
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod family;
mod metric;
mod registry;
mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use family::{CounterFamily, GaugeFamily};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot, SnapshotDelta, Timer};
pub use trace::{ActiveSpan, FlightRecorder, SpanEvent, SpanId, SpanKind, TraceCtx, TraceId};
