//! Out-of-band format meta-data: canonical serialization of
//! [`RecordFormat`] descriptions and the [`FormatId`] derived from it.
//!
//! PBIO transmits format descriptions *out of band* (once, via a format
//! server or handshake) and stamps each wire message with only a compact
//! format identity. This module provides both halves: a deterministic binary
//! serialization of a format tree, and a 64-bit FNV-1a hash of that
//! serialization used as the format's identity on the wire.

use std::fmt;
use std::sync::Arc;

use crate::error::{PbioError, Result};
use crate::types::{ArrayLen, BasicType, EnumVariant, Field, FieldType, RecordFormat, Width};

/// Compact identity of a format: the FNV-1a-64 hash of its canonical
/// serialization. Two formats with the same field names, types, and order
/// have the same id (defaults do not participate in identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormatId(pub u64);

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The wire identity of a format. Computed from the canonical serialization
/// on the first call for a given format value and remembered in it.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{format_id, FormatBuilder};
///
/// let a = FormatBuilder::record("Msg").int("load").build()?;
/// let b = FormatBuilder::record("Msg").int("load").build()?;
/// let c = FormatBuilder::record("Msg").int("mem").build()?;
/// assert_eq!(format_id(&a), format_id(&b));
/// assert_ne!(format_id(&a), format_id(&c));
/// # Ok(())
/// # }
/// ```
pub fn format_id(format: &RecordFormat) -> FormatId {
    format.id_or_init(|| FormatId(fnv1a(&serialize_format(format))))
}

// -- canonical serialization ------------------------------------------------

const TAG_INT: u8 = 1;
const TAG_UINT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_ENUM: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_RECORD: u8 = 7;
const TAG_ARRAY_FIXED: u8 = 8;
const TAG_ARRAY_VAR: u8 = 9;

/// Appends `chunk` behind its length as a little-endian `u32` — how every
/// piece of out-of-band meta-data (a name, a format description, a
/// transformation, a server request's payload) is framed.
pub fn put_chunk(out: &mut Vec<u8>, chunk: &[u8]) {
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out.extend_from_slice(chunk);
}

/// Takes the little-endian `u32` at `*pos`; `None` when `bytes` ends first.
pub fn take_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let raw = bytes.get(*pos..)?.first_chunk::<4>()?;
    *pos += 4;
    Some(u32::from_le_bytes(*raw))
}

/// Takes the chunk [`put_chunk`] wrote at `*pos`; `None` when `bytes` ends
/// first.
pub fn take_chunk<'b>(bytes: &'b [u8], pos: &mut usize) -> Option<&'b [u8]> {
    let len = take_u32(bytes, pos)? as usize;
    let chunk = bytes.get(*pos..)?.get(..len)?;
    *pos += len;
    Some(chunk)
}

fn put_type(out: &mut Vec<u8>, ty: &FieldType) {
    match ty {
        FieldType::Basic(b) => match b {
            BasicType::Int(w) => out.extend_from_slice(&[TAG_INT, w.bytes() as u8]),
            BasicType::UInt(w) => out.extend_from_slice(&[TAG_UINT, w.bytes() as u8]),
            BasicType::Float(w) => out.extend_from_slice(&[TAG_FLOAT, w.bytes() as u8]),
            BasicType::Char => out.push(TAG_CHAR),
            BasicType::Enum { name, variants } => {
                out.push(TAG_ENUM);
                put_chunk(out, name.as_bytes());
                out.extend_from_slice(&(variants.len() as u32).to_le_bytes());
                for v in variants {
                    put_chunk(out, v.name.as_bytes());
                    out.extend_from_slice(&v.discriminant.to_le_bytes());
                }
            }
            BasicType::String => out.push(TAG_STRING),
        },
        FieldType::Record(r) => {
            out.push(TAG_RECORD);
            put_record(out, r);
        }
        FieldType::Array { elem, len } => {
            match len {
                ArrayLen::Fixed(n) => {
                    out.push(TAG_ARRAY_FIXED);
                    out.extend_from_slice(&(*n as u64).to_le_bytes());
                }
                ArrayLen::LengthField(f) => {
                    out.push(TAG_ARRAY_VAR);
                    put_chunk(out, f.as_bytes());
                }
            }
            put_type(out, elem);
        }
    }
}

fn put_record(out: &mut Vec<u8>, r: &RecordFormat) {
    put_chunk(out, r.name().as_bytes());
    out.extend_from_slice(&(r.fields().len() as u32).to_le_bytes());
    for f in r.fields() {
        put_chunk(out, f.name().as_bytes());
        put_type(out, f.ty());
    }
}

/// Serializes a format description to its canonical out-of-band byte form.
pub fn serialize_format(format: &RecordFormat) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_record(&mut out, format);
    out
}

// -- deserialization ----------------------------------------------------------

/// How deep types may nest in a deserialized description. The parser — like
/// every later walk over the format — recurses once per level, so the bound
/// is what keeps a description of nothing but array tags off the end of the
/// stack.
const MAX_NESTING: usize = 32;

/// How many values the default record of a deserialized description may
/// hold: one per type, counted once per element of the fixed arrays around
/// it. A fixed length is the one number in a description that costs memory
/// its bytes do not pay for; under the cap, nothing a description makes a
/// receiver build ([`crate::Value::default_record`]) outgrows it.
const MAX_DEFAULT_VALUES: u64 = 1 << 20;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Types open around the one being parsed.
    depth: usize,
    /// Default values the description stands for so far, and how many each
    /// further type adds (the product of the fixed lengths around it).
    values: u64,
    repeat: u64,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(PbioError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        take_u32(self.buf, &mut self.pos).ok_or(PbioError::UnexpectedEof)
    }

    fn string(&mut self) -> Result<String> {
        let bytes = take_chunk(self.buf, &mut self.pos).ok_or(PbioError::UnexpectedEof)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PbioError::BadData("non-UTF-8 string in format meta-data".into()))
    }
}

// Counts read off the wire size no reservation below: a vector grows as its
// entries actually parse, so it never outgrows the bytes that described it.

fn get_type(c: &mut Cursor<'_>) -> Result<FieldType> {
    c.depth += 1;
    c.values = c.values.saturating_add(c.repeat);
    if c.depth > MAX_NESTING || c.values > MAX_DEFAULT_VALUES {
        return Err(PbioError::BadFormat(format!(
            "format meta-data nests deeper than {MAX_NESTING} levels or describes more than \
             {MAX_DEFAULT_VALUES} default values"
        )));
    }
    let ty = match c.u8()? {
        TAG_INT => FieldType::Basic(BasicType::Int(Width::from_bytes(c.u8()? as usize)?)),
        TAG_UINT => FieldType::Basic(BasicType::UInt(Width::from_bytes(c.u8()? as usize)?)),
        TAG_FLOAT => FieldType::Basic(BasicType::Float(Width::from_bytes(c.u8()? as usize)?)),
        TAG_CHAR => FieldType::Basic(BasicType::Char),
        TAG_ENUM => {
            let name = c.string()?;
            let mut variants = Vec::new();
            for _ in 0..c.u32()? {
                variants.push(EnumVariant { name: c.string()?, discriminant: c.u32()? as i32 });
            }
            FieldType::Basic(BasicType::Enum { name, variants })
        }
        TAG_STRING => FieldType::Basic(BasicType::String),
        TAG_RECORD => FieldType::Record(Arc::new(get_record(c)?)),
        TAG_ARRAY_FIXED => {
            let n = u64::from_le_bytes(c.take(8)?.try_into().expect("slice is 8 bytes"));
            // An empty array still stands for one look at its element type.
            let around = c.repeat;
            c.repeat = around.saturating_mul(n.max(1));
            let elem = Box::new(get_type(c)?);
            c.repeat = around;
            // The element was counted `n` times over, so `n` is within the cap.
            FieldType::Array { elem, len: ArrayLen::Fixed(n as usize) }
        }
        TAG_ARRAY_VAR => {
            let len = ArrayLen::LengthField(c.string()?);
            FieldType::Array { elem: Box::new(get_type(c)?), len }
        }
        t => return Err(PbioError::BadData(format!("unknown type tag {t} in format meta-data"))),
    };
    c.depth -= 1;
    Ok(ty)
}

fn get_record(c: &mut Cursor<'_>) -> Result<RecordFormat> {
    let name = c.string()?;
    let mut fields = Vec::new();
    for _ in 0..c.u32()? {
        fields.push(Field::new(c.string()?, get_type(c)?));
    }
    RecordFormat::new(name, fields)
}

/// Reconstructs a format description from its canonical byte form.
///
/// Declared default values are not part of the canonical form and are lost
/// in a round trip; identity ([`format_id`]) is preserved.
///
/// # Errors
///
/// Returns [`PbioError::BadData`] / [`PbioError::UnexpectedEof`] for
/// malformed input and [`PbioError::BadFormat`] if the encoded description
/// violates format invariants.
pub fn deserialize_format(bytes: &[u8]) -> Result<RecordFormat> {
    let mut c = Cursor { buf: bytes, pos: 0, depth: 0, values: 0, repeat: 1 };
    let r = get_record(&mut c)?;
    if c.pos != bytes.len() {
        return Err(PbioError::BadData("trailing bytes after format meta-data".into()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FormatBuilder;

    fn nested_format() -> RecordFormat {
        let member = FormatBuilder::record("Member")
            .string("info")
            .int("ID")
            .int("is_source")
            .int("is_sink")
            .build_arc()
            .unwrap();
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member, "member_count")
            .build()
            .unwrap()
    }

    /// The id is remembered in the format, travels with clones, and is not
    /// part of the description: a format that has computed its id still
    /// equals one that has not.
    #[test]
    fn format_id_is_memoised_and_invisible_to_equality() {
        let (seen, fresh) = (nested_format(), nested_format());
        let id = format_id(&seen);
        assert_eq!(id, FormatId(fnv1a(&serialize_format(&seen))));
        assert_eq!(seen, fresh);
        assert_eq!(format_id(&seen.clone()), id);
        assert_eq!(format_id(&fresh), id);
        assert_eq!(crate::encode::Encoder::new(&fresh).id(), id);
    }

    #[test]
    fn roundtrip_preserves_structure_and_id() {
        let f = nested_format();
        let bytes = serialize_format(&f);
        let g = deserialize_format(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(format_id(&f), format_id(&g));
    }

    #[test]
    fn id_is_stable_and_sensitive() {
        let f = nested_format();
        assert_eq!(format_id(&f), format_id(&nested_format()));
        let renamed =
            FormatBuilder::record("ChannelOpenResponse").int("member_count").build().unwrap();
        assert_ne!(format_id(&f), format_id(&renamed));
    }

    #[test]
    fn id_ignores_defaults() {
        use crate::types::{BasicType, FieldType, Width};
        use crate::value::Value;
        let plain = FormatBuilder::record("R").int("mode").build().unwrap();
        let with_default = FormatBuilder::record("R")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(9))
            .build()
            .unwrap();
        assert_eq!(format_id(&plain), format_id(&with_default));
    }

    #[test]
    fn field_order_changes_id() {
        let ab = FormatBuilder::record("R").int("a").int("b").build().unwrap();
        let ba = FormatBuilder::record("R").int("b").int("a").build().unwrap();
        assert_ne!(format_id(&ab), format_id(&ba));
    }

    #[test]
    fn truncated_metadata_rejected() {
        let f = nested_format();
        let bytes = serialize_format(&f);
        assert!(deserialize_format(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let f = nested_format();
        let mut bytes = serialize_format(&f);
        bytes.push(0);
        assert!(deserialize_format(&bytes).is_err());
    }

    #[test]
    fn enum_roundtrip() {
        use crate::types::{BasicType, EnumVariant, FieldType};
        let f = FormatBuilder::record("R")
            .field(
                "color",
                FieldType::Basic(BasicType::Enum {
                    name: "Color".into(),
                    variants: vec![
                        EnumVariant { name: "Red".into(), discriminant: 0 },
                        EnumVariant { name: "Green".into(), discriminant: -7 },
                    ],
                }),
            )
            .build()
            .unwrap();
        let g = deserialize_format(&serialize_format(&f)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn display_formats_hex() {
        let id = FormatId(0xdead_beef);
        assert_eq!(id.to_string(), "00000000deadbeef");
        assert_eq!(format!("{id:x}"), "deadbeef");
    }
}
