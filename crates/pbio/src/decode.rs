//! Meta-data-driven wire decoding.
//!
//! Two decoders live here:
//!
//! * [`decode_payload`] — decodes a payload into a value shaped exactly like
//!   the *wire* format (the sender's view).
//! * [`GenericDecoder`] — converts wire bytes into the *receiver's* format by
//!   resolving field names against the receiver's meta-data **at decode
//!   time**, per field, per message. This is the unspecialized baseline the
//!   paper contrasts with dynamically generated conversion routines; the
//!   specialized equivalent is [`crate::plan::ConversionPlan`].

use std::sync::Arc;

use crate::encode::{parse_header, ByteOrder, HEADER_LEN};
use crate::error::{PbioError, Result};
use crate::plan::{min_wire_size, reservation};
use crate::types::{ArrayLen, BasicType, FieldType, RecordFormat};
use crate::value::Value;

/// A read cursor over a wire payload: the unread tail of the buffer, so
/// every read is one length comparison against what is left.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    rest: &'a [u8],
    order: ByteOrder,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], order: ByteOrder) -> Cursor<'a> {
        Cursor { rest: buf, order }
    }

    pub(crate) fn at_end(&self) -> bool {
        self.rest.is_empty()
    }

    /// Bytes left to read — used by the plan executor to bounds-check a
    /// whole fixed-stride array with a single comparison.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(PbioError::UnexpectedEof)?;
        self.rest = rest;
        Ok(head)
    }

    /// Takes exactly `N` bytes as an array: the plan executor's scalar
    /// reader, whose width was fixed when the plan was compiled.
    pub(crate) fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(PbioError::UnexpectedEof)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Steps over `n` bytes without looking at them.
    pub(crate) fn advance(&mut self, n: usize) -> Result<()> {
        self.skip(n).then_some(()).ok_or(PbioError::UnexpectedEof)
    }

    /// The bytes not yet read.
    pub(crate) fn unread(&self) -> &'a [u8] {
        self.rest
    }

    fn scalar(&mut self, width: usize) -> Result<[u8; 8]> {
        let raw = self.take(width)?;
        let mut b = [0u8; 8];
        match self.order {
            ByteOrder::Little => b[..width].copy_from_slice(raw),
            ByteOrder::Big => {
                for (i, &x) in raw.iter().rev().enumerate() {
                    b[i] = x;
                }
            }
        }
        Ok(b)
    }

    fn read_int(&mut self, width: usize) -> Result<i64> {
        let b = self.scalar(width)?;
        let v = u64::from_le_bytes(b);
        // Sign-extend from the declared width.
        let bits = width as u32 * 8;
        if bits == 64 {
            Ok(v as i64)
        } else {
            let shift = 64 - bits;
            Ok(((v << shift) as i64) >> shift)
        }
    }

    fn read_uint(&mut self, width: usize) -> Result<u64> {
        Ok(u64::from_le_bytes(self.scalar(width)?))
    }

    fn read_float(&mut self, width: usize) -> Result<f64> {
        let b = self.scalar(width)?;
        if width == 4 {
            Ok(f64::from(f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))))
        } else {
            Ok(f64::from_bits(u64::from_le_bytes(b)))
        }
    }

    fn read_char(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn read_enum(&mut self) -> Result<i32> {
        Ok(self.read_int(4)? as i32)
    }

    /// The bytes of the NUL-terminated string at the cursor, stepping past
    /// the terminator.
    pub(crate) fn take_c_str(&mut self) -> Result<&'a [u8]> {
        self.c_str().ok_or(PbioError::UnexpectedEof)
    }

    /// [`Cursor::take_c_str`], `None` at the end of the payload.
    #[inline]
    pub(crate) fn c_str(&mut self) -> Option<&'a [u8]> {
        let n = find_nul(self.rest)?;
        let bytes = &self.rest[..n];
        self.rest = &self.rest[n + 1..];
        Some(bytes)
    }

    /// Steps over `n` bytes; false, and no step, when fewer are left.
    #[inline]
    pub(crate) fn skip(&mut self, n: usize) -> bool {
        match self.rest.get(n..) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    pub(crate) fn read_string(&mut self) -> Result<String> {
        String::from_utf8(self.take_c_str()?.to_vec()).map_err(|_| non_utf8())
    }

    pub(crate) fn skip_string(&mut self) -> Result<()> {
        self.take_c_str().map(|_| ())
    }
}

/// The error for string bytes that are not UTF-8.
pub(crate) fn non_utf8() -> PbioError {
    PbioError::BadData("non-UTF-8 string payload".into())
}

/// Offset of the first NUL in `bytes`, scanned a word at a time: a 64 KiB
/// string payload is 8 K iterations instead of 64 K. `(w - 0x01…) & !w &
/// 0x80…` is nonzero exactly when some byte of `w` is zero — subtracting one
/// borrows into the high bit of a zero byte, and `!w` discards bytes whose
/// high bit was set to begin with. The byte loop then runs over the one
/// chunk that holds the NUL, or over the tail shorter than a word.
fn find_nul(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut chunks = bytes.chunks_exact(8);
    let mut scanned = 0;
    for chunk in chunks.by_ref() {
        let w = u64::from_ne_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
        if w.wrapping_sub(ONES) & !w & HIGHS != 0 {
            break;
        }
        scanned += 8;
    }
    bytes[scanned..].iter().position(|&b| b == 0).map(|i| scanned + i)
}

fn decode_basic(c: &mut Cursor<'_>, b: &BasicType) -> Result<Value> {
    Ok(match b {
        BasicType::Int(w) => Value::Int(c.read_int(w.bytes())?),
        BasicType::UInt(w) => Value::UInt(c.read_uint(w.bytes())?),
        BasicType::Float(w) => Value::Float(c.read_float(w.bytes())?),
        BasicType::Char => Value::Char(c.read_char()?),
        BasicType::Enum { .. } => Value::Enum(c.read_enum()?),
        BasicType::String => Value::Str(c.read_string()?),
    })
}

/// Decodes one record level shaped by `format`, tracking integer fields so
/// later variable-length arrays can find their counts.
fn decode_record(c: &mut Cursor<'_>, format: &RecordFormat) -> Result<Value> {
    let n = format.fields().len();
    let mut counts: Vec<Option<u64>> = vec![None; n];
    let mut out = Vec::with_capacity(n);
    for (i, fd) in format.fields().iter().enumerate() {
        let v = decode_field(c, fd.ty(), &counts, format)?;
        if let Some(cnt) = v.as_count() {
            counts[i] = Some(cnt);
        }
        out.push(v);
    }
    Ok(Value::Record(out))
}

fn decode_field(
    c: &mut Cursor<'_>,
    ty: &FieldType,
    counts: &[Option<u64>],
    level: &RecordFormat,
) -> Result<Value> {
    match ty {
        FieldType::Basic(b) => decode_basic(c, b),
        FieldType::Record(r) => decode_record(c, r),
        FieldType::Array { elem, len } => {
            let n = match len {
                ArrayLen::Fixed(n) => *n,
                ArrayLen::LengthField(name) => {
                    let idx = level
                        .field_index(name)
                        .ok_or_else(|| PbioError::BadFormat(format!("no length field `{name}`")))?;
                    counts[idx].ok_or_else(|| {
                        PbioError::BadData(format!("length field `{name}` not yet decoded"))
                    })? as usize
                }
            };
            let mut es = Vec::with_capacity(reservation(n, min_wire_size(elem), c));
            for _ in 0..n {
                es.push(decode_field(c, elem, counts, level)?);
            }
            Ok(Value::Array(es))
        }
    }
}

/// Decodes the payload of a wire message into a value shaped by
/// `wire_format`. `buf` is the full message including header.
///
/// # Errors
///
/// Returns header errors from [`parse_header`], [`PbioError::UnexpectedEof`]
/// on truncation, [`PbioError::BadData`] on malformed payload bytes, and
/// [`PbioError::BadData`] if decoding leaves trailing payload bytes.
pub fn decode_payload(wire_format: &RecordFormat, buf: &[u8]) -> Result<Value> {
    let h = parse_header(buf)?;
    let payload = &buf[HEADER_LEN..HEADER_LEN + h.payload_len];
    let mut c = Cursor::new(payload, h.order);
    let v = decode_record(&mut c, wire_format)?;
    if !c.at_end() {
        return Err(PbioError::BadData("trailing bytes after record payload".into()));
    }
    Ok(v)
}

/// The unspecialized, fully meta-data-driven converter: decodes a wire
/// message and reshapes it to the receiver's `native` format by looking up
/// every field name in the receiver's meta-data *for every message*.
///
/// Unknown wire fields are dropped; native fields absent from the wire take
/// their declared defaults; basic types convert when
/// [`BasicType::convertible_to`] allows.
///
/// This decoder is the oracle the specialized [`crate::plan::ConversionPlan`]
/// is tested against — its [`convert_record`] half also checks
/// [`crate::plan::ConversionPlan::convert`]. Production paths use the
/// plan.
#[derive(Debug, Clone)]
pub struct GenericDecoder {
    wire: Arc<RecordFormat>,
    native: Arc<RecordFormat>,
}

impl GenericDecoder {
    /// Creates a converter from `wire` (sender) to `native` (receiver)
    /// format.
    pub fn new(wire: Arc<RecordFormat>, native: Arc<RecordFormat>) -> GenericDecoder {
        GenericDecoder { wire, native }
    }

    /// Decodes and converts a full wire message.
    ///
    /// # Errors
    ///
    /// See [`decode_payload`]; conversion itself cannot fail (unmatched
    /// fields fall back to defaults).
    pub fn decode(&self, buf: &[u8]) -> Result<Value> {
        let wire_val = decode_payload(&self.wire, buf)?;
        Ok(convert_record(&wire_val, &self.wire, &self.native))
    }
}

/// Reshapes `value` (shaped by `from`) into the shape of `to`, matching
/// fields by name at *runtime* — the meta-data-driven conversion path.
pub fn convert_record(value: &Value, from: &RecordFormat, to: &RecordFormat) -> Value {
    let mut out = Vec::with_capacity(to.fields().len());
    for fd in to.fields() {
        // Runtime name lookup: this is the per-message cost the specialized
        // plan removes.
        let converted = from.field_index(fd.name()).and_then(|i| {
            let src_ty = from.fields()[i].ty();
            let src_val = value.as_record()?.get(i)?;
            convert_field(src_val, src_ty, fd.ty())
        });
        out.push(converted.unwrap_or_else(|| {
            fd.default().cloned().unwrap_or_else(|| Value::default_for(fd.ty()))
        }));
    }
    let mut rec = Value::Record(out);
    sync_length_fields(&mut rec, to);
    rec
}

/// The oracle's own copy of [`FieldType::can_fill`], kept apart on purpose:
/// [`GenericDecoder`] is the reference the conversion plan is tested
/// against, so it must not share the relation it checks (a unit test pins
/// the two together). A field only converts when its whole type tree is
/// compatible — otherwise the target takes its default (rather than, say, a
/// partially-converted array of the wrong length).
fn field_types_match(from: &FieldType, to: &FieldType) -> bool {
    match (from, to) {
        (FieldType::Basic(a), FieldType::Basic(b)) => a.convertible_to(b),
        (FieldType::Record(_), FieldType::Record(_)) => true,
        (FieldType::Array { elem: a, len: la }, FieldType::Array { elem: b, len: lb }) => {
            // Length discipline is part of the type: fixed↔variable
            // conversions would break the target's length invariant.
            let len_ok = match (la, lb) {
                (ArrayLen::Fixed(n), ArrayLen::Fixed(m)) => n == m,
                (ArrayLen::LengthField(_), ArrayLen::LengthField(_)) => true,
                _ => false,
            };
            len_ok && field_types_match(a, b)
        }
        _ => false,
    }
}

fn convert_field(v: &Value, from: &FieldType, to: &FieldType) -> Option<Value> {
    if !field_types_match(from, to) {
        return None;
    }
    match (from, to) {
        (FieldType::Basic(a), FieldType::Basic(b)) => convert_basic(v, a, b),
        (FieldType::Record(a), FieldType::Record(b)) => Some(convert_record(v, a, b)),
        (FieldType::Array { elem: ea, .. }, FieldType::Array { elem: eb, .. }) => {
            let es = v.as_array()?;
            Some(Value::Array(es.iter().filter_map(|e| convert_field(e, ea, eb)).collect()))
        }
        _ => None,
    }
}

/// The raw 64-bit pattern of an integer-like value, for C-style narrowing.
fn int_bits(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some(*i as u64),
        Value::UInt(u) => Some(*u),
        Value::Char(c) => Some(u64::from(*c)),
        Value::Enum(d) => Some(i64::from(*d) as u64),
        _ => None,
    }
}

fn convert_basic(v: &Value, from: &BasicType, to: &BasicType) -> Option<Value> {
    if !from.convertible_to(to) {
        return None;
    }
    Some(match to {
        BasicType::Int(w) => Value::Int(w.wrap_i64(int_bits(v)?)),
        BasicType::UInt(w) => Value::UInt(w.wrap_u64(int_bits(v)?)),
        BasicType::Float(_) => Value::Float(v.as_f64()?),
        BasicType::Char => match v {
            Value::Char(c) => Value::Char(*c),
            _ => return None,
        },
        BasicType::Enum { .. } => match v {
            Value::Enum(d) => Value::Enum(*d),
            _ => return None,
        },
        BasicType::String => Value::Str(v.as_str()?.to_string()),
    })
}

/// Repairs every variable-length array's length field to the actual element
/// count, recursively. Used after conversions that may drop or add fields.
pub fn sync_length_fields(value: &mut Value, format: &RecordFormat) {
    let Some(fields) = value.as_record_mut() else { return };
    let mut updates: Vec<(usize, u64)> = Vec::new();
    for (i, fd) in format.fields().iter().enumerate() {
        match fd.ty() {
            FieldType::Record(r) => {
                if let Some(v) = fields.get_mut(i) {
                    sync_length_fields(v, r);
                }
            }
            FieldType::Array { elem, len } => {
                // Elements with only basic fields have nothing to repair.
                let nested = |r: &RecordFormat| r.fields().iter().any(|f| !f.ty().is_basic());
                if let (FieldType::Record(r), Some(Value::Array(es))) =
                    (elem.as_ref(), fields.get_mut(i))
                {
                    if nested(r) {
                        es.iter_mut().for_each(|e| sync_length_fields(e, r));
                    }
                }
                if let ArrayLen::LengthField(name) = len {
                    if let (Some(arr_len), Some(idx)) = (
                        fields.get(i).and_then(Value::as_array).map(<[Value]>::len),
                        format.field_index(name),
                    ) {
                        updates.push((idx, arr_len as u64));
                    }
                }
            }
            FieldType::Basic(_) => {}
        }
    }
    for (idx, n) in updates {
        if let Some(slot) = fields.get_mut(idx) {
            *slot = match slot {
                Value::UInt(_) => Value::UInt(n),
                _ => Value::Int(n as i64),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::types::FormatBuilder;

    fn member() -> Arc<RecordFormat> {
        FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap()
    }

    fn response() -> Arc<RecordFormat> {
        FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", member(), "count")
            .build_arc()
            .unwrap()
    }

    fn sample() -> Value {
        Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("alpha"), Value::Int(1)]),
                Value::Record(vec![Value::str("beta"), Value::Int(2)]),
            ]),
        ])
    }

    /// `take_c_str` against the byte-at-a-time scan it replaced: every
    /// string length 0..=40, every NUL offset (and none at all), every
    /// start alignment, with high-bit bytes — the ones the word test has to
    /// tell from a borrow — on both sides of the NUL, and a second NUL
    /// behind the first.
    #[test]
    fn word_scan_finds_the_nul_the_byte_scan_finds() {
        let noise = [0x80u8, 0xFF, 0x01, 0x7F, 0x81, 0xFE, 0x02];
        for align in 0..8 {
            for len in 0..=40usize {
                for nul in (0..len).map(Some).chain([None]) {
                    let mut buf = vec![0xAAu8; align];
                    buf.extend((0..len).map(|i| noise[(i + align) % noise.len()]));
                    if let Some(at) = nul {
                        buf[align + at] = 0;
                        // High-bit neighbours, then a later NUL to ignore.
                        if at > 0 {
                            buf[align + at - 1] = 0x80;
                        }
                        if at + 1 < len {
                            buf[align + at + 1] = 0xFF;
                        }
                        if at + 3 < len {
                            buf[align + len - 1] = 0;
                        }
                    }
                    let text = &buf[align..];
                    let expected = text.iter().position(|&b| b == 0);
                    assert_eq!(expected, nul, "the fixture holds its NUL where it says");
                    let mut c = Cursor::new(text, ByteOrder::Little);
                    let case = format!("align {align}, len {len}, nul {nul:?}");
                    match expected {
                        Some(n) => {
                            assert_eq!(c.take_c_str().unwrap(), &text[..n], "{case}");
                            assert_eq!(c.remaining(), len - n - 1, "{case}: steps past the NUL");
                        }
                        None => assert_eq!(c.take_c_str(), Err(PbioError::UnexpectedEof), "{case}"),
                    }
                }
            }
        }
    }

    /// The oracle's relation is the shared one. Every ordered pair over a
    /// generated universe: each basic kind (two widths where it has one, two
    /// enum names), two records, and arrays — three length disciplines —
    /// over all of those, nested twice.
    #[test]
    fn the_oracle_relation_equals_can_fill_on_every_generated_pair() {
        use crate::types::{BasicType::*, EnumVariant, Width::*};
        let named = |name: &str| Enum {
            name: name.into(),
            variants: vec![EnumVariant { name: "on".into(), discriminant: 1 }],
        };
        let basics = [Int(W4), Int(W8), UInt(W2), Float(W4), Float(W8), Char, String];
        let mut universe: Vec<FieldType> = basics.into_iter().map(FieldType::Basic).collect();
        universe.extend([named("a"), named("b")].map(FieldType::Basic));
        universe.extend([member(), response()].map(FieldType::Record));
        let lens = [ArrayLen::Fixed(2), ArrayLen::Fixed(3), ArrayLen::LengthField("n".into())];
        let mut level = 0;
        for _ in 0..2 {
            let elems = universe[level..].to_vec();
            level = universe.len();
            for elem in &elems {
                for len in &lens {
                    let elem = Box::new(elem.clone());
                    universe.push(FieldType::Array { elem, len: len.clone() });
                }
            }
        }
        assert_eq!(universe.len(), 11 * (1 + 3 + 9));
        let mut related = 0;
        for wire in &universe {
            for native in &universe {
                let oracle = field_types_match(wire, native);
                assert_eq!(wire.can_fill(native), oracle, "{wire:?} -> {native:?}");
                related += usize::from(oracle);
            }
        }
        // Both answers occur, and often: the universe is not one-sided.
        assert!(related > universe.len() && related < universe.len() * universe.len() / 4);
    }

    #[test]
    fn roundtrip_little_endian() {
        let fmt = response();
        let wire = Encoder::new(&fmt).encode(&sample()).unwrap();
        let back = decode_payload(&fmt, &wire).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn roundtrip_big_endian() {
        let fmt = response();
        let wire = Encoder::with_order(&fmt, ByteOrder::Big).encode(&sample()).unwrap();
        let back = decode_payload(&fmt, &wire).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn negative_ints_sign_extend() {
        let fmt = FormatBuilder::record("R")
            .field("a", FieldType::Basic(BasicType::Int(crate::types::Width::W2)))
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(-5)])).unwrap();
        assert_eq!(decode_payload(&fmt, &wire).unwrap(), Value::Record(vec![Value::Int(-5)]));
    }

    #[test]
    fn floats_roundtrip_both_widths() {
        let fmt = FormatBuilder::record("R").float("f").double("d").build_arc().unwrap();
        let v = Value::Record(vec![Value::Float(1.5), Value::Float(-2.25e10)]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        assert_eq!(decode_payload(&fmt, &wire).unwrap(), v);
    }

    #[test]
    fn truncated_payload_detected() {
        let fmt = response();
        let mut wire = Encoder::new(&fmt).encode(&sample()).unwrap();
        // Lie about the payload length: shorter than the record needs.
        let short = (wire.len() - HEADER_LEN - 3) as u32;
        wire[12..16].copy_from_slice(&short.to_le_bytes());
        wire.truncate(HEADER_LEN + short as usize);
        assert!(decode_payload(&fmt, &wire).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let fmt = FormatBuilder::record("R").int("a").build_arc().unwrap();
        let mut wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        wire.extend_from_slice(&[0, 0]);
        let len = (wire.len() - HEADER_LEN) as u32;
        wire[12..16].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode_payload(&fmt, &wire), Err(PbioError::BadData(_))));
    }

    #[test]
    fn generic_decoder_reorders_and_defaults() {
        // Wire has (a, b); native wants (b, a, c-with-default).
        let wire_fmt = FormatBuilder::record("R").int("a").string("b").build_arc().unwrap();
        let native_fmt = FormatBuilder::record("R")
            .string("b")
            .int("a")
            .field_with_default(
                "c",
                FieldType::Basic(BasicType::Int(crate::types::Width::W4)),
                Value::Int(42),
            )
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&wire_fmt)
            .encode(&Value::Record(vec![Value::Int(7), Value::str("hi")]))
            .unwrap();
        let out = GenericDecoder::new(wire_fmt, native_fmt).decode(&wire).unwrap();
        assert_eq!(out, Value::Record(vec![Value::str("hi"), Value::Int(7), Value::Int(42)]));
    }

    #[test]
    fn generic_decoder_drops_unknown_fields() {
        let wire_fmt = FormatBuilder::record("R").int("a").string("extra").build_arc().unwrap();
        let native_fmt = FormatBuilder::record("R").int("a").build_arc().unwrap();
        let wire = Encoder::new(&wire_fmt)
            .encode(&Value::Record(vec![Value::Int(3), Value::str("junk")]))
            .unwrap();
        let out = GenericDecoder::new(wire_fmt, native_fmt).decode(&wire).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(3)]));
    }

    #[test]
    fn generic_decoder_widens_int_to_float() {
        let wire_fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let native_fmt = FormatBuilder::record("R").double("x").build_arc().unwrap();
        let wire = Encoder::new(&wire_fmt).encode(&Value::Record(vec![Value::Int(9)])).unwrap();
        let out = GenericDecoder::new(wire_fmt, native_fmt).decode(&wire).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Float(9.0)]));
    }

    #[test]
    fn generic_decoder_mismatched_kind_takes_default() {
        let wire_fmt = FormatBuilder::record("R").string("x").build_arc().unwrap();
        let native_fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let wire =
            Encoder::new(&wire_fmt).encode(&Value::Record(vec![Value::str("nope")])).unwrap();
        let out = GenericDecoder::new(wire_fmt, native_fmt).decode(&wire).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(0)]));
    }

    #[test]
    fn sync_length_fields_repairs_counts() {
        let fmt = response();
        let mut v = Value::Record(vec![
            Value::Int(99),
            Value::Array(vec![Value::Record(vec![Value::str("x"), Value::Int(1)])]),
        ]);
        sync_length_fields(&mut v, &fmt);
        assert_eq!(v.field(&fmt, "count"), Some(&Value::Int(1)));
    }

    #[test]
    fn nested_record_conversion_by_name() {
        let inner_v1 = FormatBuilder::record("Inner").int("x").int("y").build_arc().unwrap();
        let inner_v2 = FormatBuilder::record("Inner").int("y").build_arc().unwrap();
        let f1 = FormatBuilder::record("R").nested("inner", inner_v1).build_arc().unwrap();
        let f2 = FormatBuilder::record("R").nested("inner", inner_v2).build_arc().unwrap();
        let wire = Encoder::new(&f1)
            .encode(&Value::Record(vec![Value::Record(vec![Value::Int(1), Value::Int(2)])]))
            .unwrap();
        let out = GenericDecoder::new(f1, f2).decode(&wire).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Record(vec![Value::Int(2)])]));
    }
}
