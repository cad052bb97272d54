//! # pbio — Portable Binary Input/Output
//!
//! A from-scratch reimplementation of the PBIO record-oriented binary
//! communication substrate that the ICDCS 2005 *Message Morphing* paper
//! builds on (Eisenhauer et al., "Native Data Representations", IEEE TPDS
//! 2002).
//!
//! PBIO's defining properties, all reproduced here:
//!
//! * **Out-of-band meta-data.** Writers declare the names, types, and order
//!   of record fields ([`FormatBuilder`] / [`RecordFormat`]); descriptions
//!   travel once via a [`FormatRegistry`], while each wire message carries
//!   only a 16-byte header with a compact [`FormatId`] — under the 30-byte
//!   overhead the paper reports in Table 1.
//! * **Native-format encoding.** [`Encoder`] lays fields out in declaration
//!   order in the writer's byte order; no per-field tags, no text.
//! * **Specialized conversion on receipt.** The receiver compiles a
//!   [`ConversionPlan`] per (wire format, native format) pair — the crate's
//!   stand-in for PBIO's dynamic code generation — then converts every
//!   subsequent message with no meta-data interpretation. The
//!   fully-interpreted [`GenericDecoder`] is retained as the ablation
//!   baseline.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), pbio::PbioError> {
//! use pbio::{ConversionPlan, Encoder, FormatBuilder, Value};
//!
//! // Writer side: declare the format of Fig. 2 of the paper and encode.
//! let msg = FormatBuilder::record("Msg").int("load").int("mem").int("net").build_arc()?;
//! let wire = Encoder::new(&msg).encode(&Value::Record(vec![
//!     Value::Int(12), Value::Int(512), Value::Int(3),
//! ]))?;
//!
//! // Reader side: its own (here identical) format, one compiled plan.
//! let plan = ConversionPlan::identity(&msg)?;
//! let value = plan.execute(&wire)?;
//! assert_eq!(value.field(&msg, "mem"), Some(&Value::Int(512)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bytes;
mod decode;
mod encode;
mod error;
mod meta;
mod observe;
mod plan;
mod registry;
mod types;
mod value;
mod view;

pub use bytes::WireBytes;
pub use decode::{convert_record, decode_payload, sync_length_fields, GenericDecoder};
pub use encode::{
    parse_header, ByteOrder, Encoder, EncoderFormat, WireHeader, FLAG_BIG_ENDIAN, HEADER_LEN,
    WIRE_VERSION,
};
pub use error::{PbioError, Result};
pub use meta::{
    deserialize_format, format_id, put_chunk, serialize_format, take_chunk, take_u32, FormatId,
};
pub use observe::{PlanCache, PlanStore};
pub use plan::ConversionPlan;
pub use registry::FormatRegistry;
pub use types::{
    ArrayLen, BasicType, EnumVariant, Field, FieldType, FormatBuilder, RecordFormat, Width,
};
pub use value::Value;
pub use view::{Miss, PathStep, Route, Tape, WireView};
