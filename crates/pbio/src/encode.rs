//! Wire encoding of record values.
//!
//! A PBIO wire message is a fixed 16-byte header followed by the record
//! payload in declaration order. The header carries only the *identity* of
//! the format — the format description itself travels out of band (see
//! [`crate::meta`]) — which is how PBIO keeps per-message meta-data overhead
//! under 30 bytes (paper Table 1).
//!
//! ```text
//! +----+----+---------+-------+----------------------+----------------+
//! | 'P'| 'B'| version | flags | format id (u64 LE)   | len (u32 LE)   |
//! +----+----+---------+-------+----------------------+----------------+
//! |                       payload (len bytes)                         |
//! +--------------------------------------------------------------------+
//! ```
//!
//! Writers encode in their *native* byte order (bit 0 of `flags` marks
//! big-endian payloads); receivers byte-swap only when necessary, as in the
//! original "Native Data Representation" design.

use std::sync::Arc;

use crate::error::{PbioError, Result};
use crate::meta::{format_id, FormatId};
use crate::types::{ArrayLen, BasicType, FieldType, RecordFormat, Width};
use crate::value::Value;

/// Size in bytes of the fixed wire header.
pub const HEADER_LEN: usize = 16;
/// First magic byte.
const MAGIC0: u8 = b'P';
/// Second magic byte.
const MAGIC1: u8 = b'B';
/// Wire protocol version emitted by this crate.
pub const WIRE_VERSION: u8 = 1;
/// Header flag bit: payload integers/floats are big-endian.
pub const FLAG_BIG_ENDIAN: u8 = 0b0000_0001;

/// Byte order used for payload scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByteOrder {
    /// Little-endian payload (flag bit clear).
    #[default]
    Little,
    /// Big-endian payload (flag bit set).
    Big,
}

/// Encoder for a single record format.
///
/// The encoder pre-computes the format id once; encoding then performs a
/// single pass over the value with no meta-data lookups.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{Encoder, FormatBuilder, Value};
///
/// let fmt = FormatBuilder::record("Msg").int("load").int("mem").build()?;
/// let enc = Encoder::new(&fmt);
/// let wire = enc.encode(&Value::Record(vec![Value::Int(1), Value::Int(2)]))?;
/// assert_eq!(wire.len(), pbio::HEADER_LEN + 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    format: Arc<RecordFormat>,
    id: FormatId,
    order: ByteOrder,
}

/// A format an [`Encoder`] can be made for: a shared one (`&Arc`) is
/// shared, a plain reference copied once.
pub trait EncoderFormat {
    /// The format, shared.
    fn into_shared(self) -> Arc<RecordFormat>;
}

impl EncoderFormat for &Arc<RecordFormat> {
    fn into_shared(self) -> Arc<RecordFormat> {
        Arc::clone(self)
    }
}

impl EncoderFormat for &RecordFormat {
    fn into_shared(self) -> Arc<RecordFormat> {
        // Id first: it is then memoised in the caller's format, and the
        // copy carries it.
        format_id(self);
        Arc::new(self.clone())
    }
}

impl Encoder {
    /// Creates an encoder for `format` using little-endian payloads. A
    /// shared format (`&Arc<RecordFormat>`) is shared, not copied: making
    /// an encoder per message costs a reference count.
    pub fn new(format: impl EncoderFormat) -> Encoder {
        Encoder::with_order(format, ByteOrder::Little)
    }

    /// Creates an encoder with an explicit payload byte order.
    pub fn with_order(format: impl EncoderFormat, order: ByteOrder) -> Encoder {
        let format = format.into_shared();
        Encoder { id: format_id(&format), format, order }
    }

    /// The format this encoder writes.
    pub fn format(&self) -> &RecordFormat {
        &self.format
    }

    /// The wire identity stamped on every message.
    pub fn id(&self) -> FormatId {
        self.id
    }

    /// Encodes `value` into a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::TypeMismatch`] / [`PbioError::IntOutOfRange`] /
    /// [`PbioError::LengthMismatch`] if the value does not conform to the
    /// encoder's format, and [`PbioError::BadData`] if its payload is
    /// longer than the header's 32-bit length field can say.
    pub fn encode(&self, value: &Value) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(value, &mut out)?;
        Ok(out)
    }

    /// Encodes `value`, appending to `out` (buffer reuse for hot paths).
    ///
    /// # Errors
    ///
    /// See [`Encoder::encode`]. On error, `out` may contain a partial
    /// message and should be truncated by the caller.
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        let flags = match self.order {
            ByteOrder::Little => 0,
            ByteOrder::Big => FLAG_BIG_ENDIAN,
        };
        out.extend_from_slice(&[MAGIC0, MAGIC1, WIRE_VERSION, flags]);
        out.extend_from_slice(&self.id.0.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // patched below
        let payload_start = out.len();
        encode_record(value, &self.format, self.order, &Path::Root(self.format.name()), out)?;
        let len = payload_len(out.len() - payload_start)?;
        out[start + 12..start + 16].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

/// The header's length field for a payload of `n` bytes: 32 bits, so a
/// longer payload is refused rather than wrapped.
fn payload_len(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| {
        PbioError::BadData(format!("payload of {n} bytes overflows the 32-bit length field"))
    })
}

fn put_scalar(out: &mut Vec<u8>, bytes: &[u8; 8], width: usize, order: ByteOrder) {
    match order {
        ByteOrder::Little => out.extend_from_slice(&bytes[..width]),
        ByteOrder::Big => {
            let mut rev = [0u8; 8];
            for (i, &b) in bytes[..width].iter().enumerate() {
                rev[width - 1 - i] = b;
            }
            out.extend_from_slice(&rev[..width]);
        }
    }
}

fn encode_int(
    out: &mut Vec<u8>,
    v: i64,
    w: Width,
    order: ByteOrder,
    path: &Path<'_>,
) -> Result<()> {
    let bits = w.bytes() as u32 * 8;
    if bits < 64 {
        let min = -(1i64 << (bits - 1));
        let max = (1i64 << (bits - 1)) - 1;
        if v < min || v > max {
            return Err(PbioError::IntOutOfRange {
                path: path.render(),
                value: v,
                width: w.bytes() as u8,
            });
        }
    }
    put_scalar(out, &v.to_le_bytes(), w.bytes(), order);
    Ok(())
}

fn encode_uint(
    out: &mut Vec<u8>,
    v: u64,
    w: Width,
    order: ByteOrder,
    path: &Path<'_>,
) -> Result<()> {
    let bits = w.bytes() as u32 * 8;
    if bits < 64 && v >= (1u64 << bits) {
        return Err(PbioError::IntOutOfRange {
            path: path.render(),
            value: v as i64,
            width: w.bytes() as u8,
        });
    }
    put_scalar(out, &v.to_le_bytes(), w.bytes(), order);
    Ok(())
}

/// A lazily-rendered field path: a linked list of borrowed segments living
/// on the call stack. Rendering (allocation) happens only when an error is
/// actually reported, keeping the encode hot path allocation-free.
#[derive(Clone, Copy)]
pub(crate) enum Path<'a> {
    Root(&'a str),
    Field(&'a Path<'a>, &'a str),
    Index(&'a Path<'a>, usize),
}

impl Path<'_> {
    fn render(&self) -> String {
        match self {
            Path::Root(name) => (*name).to_string(),
            Path::Field(parent, name) => format!("{}.{name}", parent.render()),
            Path::Index(parent, i) => format!("{}[{i}]", parent.render()),
        }
    }
}

fn mismatch(path: &Path<'_>, expected: &FieldType, found: &Value) -> PbioError {
    PbioError::TypeMismatch {
        path: path.render(),
        expected: expected.describe(),
        found: found.kind_name().to_string(),
    }
}

fn encode_field(
    value: &Value,
    ty: &FieldType,
    order: ByteOrder,
    path: &Path<'_>,
    out: &mut Vec<u8>,
) -> Result<()> {
    match (ty, value) {
        (FieldType::Basic(BasicType::Int(w)), Value::Int(v)) => {
            encode_int(out, *v, *w, order, path)
        }
        (FieldType::Basic(BasicType::UInt(w)), Value::UInt(v)) => {
            encode_uint(out, *v, *w, order, path)
        }
        (FieldType::Basic(BasicType::Float(w)), Value::Float(v)) => {
            match w {
                Width::W4 => {
                    let bits = (*v as f32).to_bits();
                    let mut b = [0u8; 8];
                    b[..4].copy_from_slice(&bits.to_le_bytes());
                    put_scalar(out, &b, 4, order);
                }
                _ => put_scalar(out, &v.to_bits().to_le_bytes(), 8, order),
            }
            Ok(())
        }
        (FieldType::Basic(BasicType::Char), Value::Char(c)) => {
            out.push(*c);
            Ok(())
        }
        (FieldType::Basic(BasicType::Enum { name, variants }), Value::Enum(d)) => {
            if !variants.iter().any(|v| v.discriminant == *d) {
                return Err(PbioError::BadData(format!(
                    "`{}`: {d} is not a variant of enum {name}",
                    path.render()
                )));
            }
            put_scalar(out, &i64::from(*d).to_le_bytes(), 4, order);
            Ok(())
        }
        (FieldType::Basic(BasicType::String), Value::Str(s)) => {
            // Strings travel NUL-terminated, exactly as in the native C
            // representation — part of why PBIO wire size tracks the
            // unencoded size so closely (Table 1).
            if s.as_bytes().contains(&0) {
                return Err(PbioError::BadData(format!(
                    "`{}`: strings may not contain interior NUL bytes",
                    path.render()
                )));
            }
            // One reservation for the bytes and the NUL: reserving for the
            // bytes alone sizes the buffer exactly, and the NUL would then
            // double it.
            out.reserve(s.len() + 1);
            out.extend_from_slice(s.as_bytes());
            out.push(0);
            Ok(())
        }
        (FieldType::Record(r), v @ Value::Record(_)) => encode_record(v, r, order, path, out),
        (FieldType::Array { elem, len }, Value::Array(es)) => {
            if let ArrayLen::Fixed(n) = len {
                if es.len() != *n {
                    return Err(PbioError::LengthMismatch {
                        path: path.render(),
                        declared: *n as u64,
                        actual: es.len() as u64,
                    });
                }
            }
            for (i, e) in es.iter().enumerate() {
                encode_field(e, elem, order, &Path::Index(path, i), out)?;
            }
            Ok(())
        }
        (ty, v) => Err(mismatch(path, ty, v)),
    }
}

/// Validates `value` against `format` and appends its payload to `out`: the
/// one walk that decides whether a value conforms — [`Value::check`] runs it
/// into a scratch buffer.
pub(crate) fn encode_record(
    value: &Value,
    format: &RecordFormat,
    order: ByteOrder,
    path: &Path<'_>,
    out: &mut Vec<u8>,
) -> Result<()> {
    let fields = value.as_record().ok_or_else(|| PbioError::TypeMismatch {
        path: path.render(),
        expected: format!("record {}", format.name()),
        found: value.kind_name().to_string(),
    })?;
    if fields.len() != format.fields().len() {
        return Err(PbioError::TypeMismatch {
            path: path.render(),
            expected: format!("{} fields", format.fields().len()),
            found: format!("{} fields", fields.len()),
        });
    }
    // Validate length-field agreement before writing any variable array, so
    // a decoder driven purely by the length field reads exactly what was
    // written.
    for (fv, fd) in fields.iter().zip(format.fields()) {
        if let FieldType::Array { len: ArrayLen::LengthField(lf), .. } = fd.ty() {
            let declared = value
                .field(format, lf)
                .and_then(Value::as_count)
                .ok_or_else(|| PbioError::BadFormat(format!("bad length field `{lf}`")))?;
            let actual = fv.as_array().map_or(0, <[Value]>::len) as u64;
            if declared != actual {
                return Err(PbioError::LengthMismatch {
                    path: Path::Field(path, fd.name()).render(),
                    declared,
                    actual,
                });
            }
        }
    }
    for (fv, fd) in fields.iter().zip(format.fields()) {
        encode_field(fv, fd.ty(), order, &Path::Field(path, fd.name()), out)?;
    }
    Ok(())
}

/// Parsed wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Identity of the payload's format.
    pub format_id: FormatId,
    /// Payload byte order.
    pub order: ByteOrder,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Parses and validates the fixed wire header.
///
/// # Errors
///
/// Returns [`PbioError::BadHeader`] for wrong magic/version and
/// [`PbioError::UnexpectedEof`] if the buffer is shorter than the header or
/// the declared payload.
pub fn parse_header(buf: &[u8]) -> Result<WireHeader> {
    if buf.len() < HEADER_LEN {
        return Err(PbioError::UnexpectedEof);
    }
    if buf[0] != MAGIC0 || buf[1] != MAGIC1 {
        return Err(PbioError::BadHeader("bad magic".into()));
    }
    if buf[2] != WIRE_VERSION {
        return Err(PbioError::BadHeader(format!("unsupported wire version {}", buf[2])));
    }
    let order = if buf[3] & FLAG_BIG_ENDIAN != 0 { ByteOrder::Big } else { ByteOrder::Little };
    let format_id = FormatId(u64::from_le_bytes([
        buf[4], buf[5], buf[6], buf[7], buf[8], buf[9], buf[10], buf[11],
    ]));
    let payload_len = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    if buf.len() < HEADER_LEN + payload_len {
        return Err(PbioError::UnexpectedEof);
    }
    Ok(WireHeader { format_id, order, payload_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FormatBuilder;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn payload_length_is_checked_at_the_32_bit_limit() {
        assert_eq!(payload_len(u32::MAX as usize).unwrap(), u32::MAX);
        let over = payload_len(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(&over, PbioError::BadData(m) if m.contains("4294967296")), "{over}");
    }

    fn member() -> Arc<RecordFormat> {
        FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap()
    }

    fn response() -> RecordFormat {
        FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", member(), "count")
            .build()
            .unwrap()
    }

    /// A long string grows the buffer once, to what it needs: the NUL
    /// after it does not double a buffer sized exactly to its bytes.
    #[test]
    fn a_long_string_and_its_nul_are_reserved_together() {
        let fmt = FormatBuilder::record("Blob").string("data").build().unwrap();
        let data = "x".repeat(65_500);
        let wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::str(&data)])).unwrap();
        assert_eq!(wire.len(), HEADER_LEN + data.len() + 1);
        assert!(
            wire.capacity() < wire.len() * 3 / 2,
            "{} B encoded into a buffer of {} B",
            wire.len(),
            wire.capacity()
        );
    }

    #[test]
    fn header_layout() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        let enc = Encoder::new(&fmt);
        let wire = enc.encode(&Value::Record(vec![Value::Int(5)])).unwrap();
        assert_eq!(&wire[..2], b"PB");
        assert_eq!(wire[2], WIRE_VERSION);
        let h = parse_header(&wire).unwrap();
        assert_eq!(h.format_id, enc.id());
        assert_eq!(h.payload_len, 4);
        assert_eq!(h.order, ByteOrder::Little);
        assert_eq!(wire.len(), HEADER_LEN + 4);
    }

    #[test]
    fn overhead_is_under_30_bytes() {
        // The paper reports PBIO encoding adds < 30 bytes to the message.
        const { assert!(HEADER_LEN < 30) };
    }

    #[test]
    fn big_endian_flag_set() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        let enc = Encoder::with_order(&fmt, ByteOrder::Big);
        let wire = enc.encode(&Value::Record(vec![Value::Int(0x0102_0304)])).unwrap();
        let h = parse_header(&wire).unwrap();
        assert_eq!(h.order, ByteOrder::Big);
        assert_eq!(&wire[HEADER_LEN..], &[1, 2, 3, 4]);
    }

    #[test]
    fn little_endian_payload_bytes() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        let wire =
            Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(0x0102_0304)])).unwrap();
        assert_eq!(&wire[HEADER_LEN..], &[4, 3, 2, 1]);
    }

    #[test]
    fn var_array_encodes_elements_only() {
        let fmt = response();
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![Value::str("ab"), Value::Int(9)])]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        // count(4) + "ab\0"(3) + ID(4)
        assert_eq!(wire.len() - HEADER_LEN, 11);
    }

    #[test]
    fn length_mismatch_rejected() {
        let fmt = response();
        let v = Value::Record(vec![Value::Int(2), Value::Array(vec![])]);
        assert!(matches!(Encoder::new(&fmt).encode(&v), Err(PbioError::LengthMismatch { .. })));
    }

    #[test]
    fn int_out_of_range_rejected() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        assert!(matches!(
            Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(i64::MAX)])),
            Err(PbioError::IntOutOfRange { .. })
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        assert!(matches!(
            Encoder::new(&fmt).encode(&Value::Record(vec![Value::str("x")])),
            Err(PbioError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        let mut wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        let mut broken = wire.clone();
        broken[0] = b'X';
        assert!(matches!(parse_header(&broken), Err(PbioError::BadHeader(_))));
        wire[2] = 99;
        assert!(matches!(parse_header(&wire), Err(PbioError::BadHeader(_))));
    }

    #[test]
    fn header_rejects_truncated_payload() {
        let fmt = FormatBuilder::record("Msg").long("a").build().unwrap();
        let wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        assert!(matches!(parse_header(&wire[..wire.len() - 1]), Err(PbioError::UnexpectedEof)));
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let fmt = FormatBuilder::record("Msg").int("a").build().unwrap();
        let enc = Encoder::new(&fmt);
        let mut buf = Vec::new();
        enc.encode_into(&Value::Record(vec![Value::Int(1)]), &mut buf).unwrap();
        let one = buf.len();
        enc.encode_into(&Value::Record(vec![Value::Int(2)]), &mut buf).unwrap();
        assert_eq!(buf.len(), 2 * one);
        assert!(parse_header(&buf[one..]).is_ok());
    }
}
