//! Specialized conversion plans — this crate's analogue of PBIO's dynamic
//! code generation.
//!
//! The original PBIO emits native machine code, once, for each (wire format,
//! native format) pair, so that every subsequent message is converted by a
//! straight-line routine with no meta-data interpretation. Runtime native
//! codegen is out of scope here (see DESIGN.md "Substitutions"); instead we
//! *compile* the pair into a [`ConversionPlan`] — a resolved program of copy
//! and convert steps with all field-name resolution, type-compatibility
//! decisions, and default-value selection done at compile time. Executing a
//! plan touches no format meta-data and performs no name lookups, preserving
//! the architectural property the paper measures: a one-time compilation
//! cost, then cheap per-message conversion (Algorithm 2's caching).

use std::sync::Arc;

use crate::decode::Cursor;
use crate::encode::{parse_header, ByteOrder, HEADER_LEN};
use crate::error::{PbioError, Result};
use crate::types::{ArrayLen, BasicType, Field, FieldType, RecordFormat, Width};
use crate::value::Value;

/// The payload's byte order as a type. [`ConversionPlan::execute`] reads the
/// header's flag once and enters the executor monomorphised for it, so no
/// scalar read below re-tests the order.
pub(crate) trait Order {
    fn u16(b: [u8; 2]) -> u16;
    fn u32(b: [u8; 4]) -> u32;
    fn u64(b: [u8; 8]) -> u64;
}

pub(crate) struct Le;
pub(crate) struct Be;

impl Order for Le {
    fn u16(b: [u8; 2]) -> u16 {
        u16::from_le_bytes(b)
    }
    fn u32(b: [u8; 4]) -> u32 {
        u32::from_le_bytes(b)
    }
    fn u64(b: [u8; 8]) -> u64 {
        u64::from_le_bytes(b)
    }
}

impl Order for Be {
    fn u16(b: [u8; 2]) -> u16 {
        u16::from_be_bytes(b)
    }
    fn u32(b: [u8; 4]) -> u32 {
        u32::from_be_bytes(b)
    }
    fn u64(b: [u8; 8]) -> u64 {
        u64::from_be_bytes(b)
    }
}

/// A wire integer's reader: signedness and width, fixed at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntRead {
    I1,
    I2,
    I4,
    I8,
    U1,
    U2,
    U4,
    U8,
}

impl IntRead {
    fn new(signed: bool, w: Width) -> IntRead {
        match (signed, w) {
            (true, Width::W1) => IntRead::I1,
            (true, Width::W2) => IntRead::I2,
            (true, Width::W4) => IntRead::I4,
            (true, Width::W8) => IntRead::I8,
            (false, Width::W1) => IntRead::U1,
            (false, Width::W2) => IntRead::U2,
            (false, Width::W4) => IntRead::U4,
            (false, Width::W8) => IntRead::U8,
        }
    }

    fn signed(self) -> bool {
        matches!(self, IntRead::I1 | IntRead::I2 | IntRead::I4 | IntRead::I8)
    }

    pub(crate) fn width(self) -> usize {
        match self {
            IntRead::I1 | IntRead::U1 => 1,
            IntRead::I2 | IntRead::U2 => 2,
            IntRead::I4 | IntRead::U4 => 4,
            IntRead::I8 | IntRead::U8 => 8,
        }
    }

    /// Reads the integer as a 64-bit pattern, sign-extended when the wire
    /// type is signed and zero-extended when it is not: one checked read of
    /// a fixed number of bytes.
    pub(crate) fn bits<O: Order>(self, c: &mut Cursor<'_>) -> Result<u64> {
        let bits = self.bits_of::<O>(c.unread()).ok_or(PbioError::UnexpectedEof)?;
        c.skip(self.width());
        Ok(bits)
    }

    /// [`IntRead::bits`] of the first bytes of `b`; `None` when `b` is too
    /// short.
    #[inline(always)]
    pub(crate) fn bits_of<O: Order>(self, b: &[u8]) -> Option<u64> {
        Some(match self {
            IntRead::I1 => i64::from(*b.first()? as i8) as u64,
            IntRead::I2 => i64::from(O::u16(*b.first_chunk()?) as i16) as u64,
            IntRead::I4 => i64::from(O::u32(*b.first_chunk()?) as i32) as u64,
            IntRead::U1 => u64::from(*b.first()?),
            IntRead::U2 => u64::from(O::u16(*b.first_chunk()?)),
            IntRead::U4 => u64::from(O::u32(*b.first_chunk()?)),
            IntRead::I8 | IntRead::U8 => O::u64(*b.first_chunk()?),
        })
    }

    /// The raw wire value as an element count. A negative count is
    /// malformed data, as it is to [`crate::decode::GenericDecoder`].
    pub(crate) fn count(self, bits: u64) -> Result<u64> {
        if self.signed() && (bits as i64) < 0 {
            return Err(PbioError::BadData("negative array length field".into()));
        }
        Ok(bits)
    }
}

/// How the 64-bit pattern [`IntRead::bits`] produced becomes the native
/// value. Casts that keep every wire value (same type, or widening without
/// a sign change) are resolved to the plain `Int`/`UInt` forms at compile
/// time, so the common case does no narrowing arithmetic per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntConv {
    Int,
    UInt,
    /// C narrowing cast to a signed integer of this width.
    WrapInt(Width),
    /// C narrowing cast to an unsigned integer of this width.
    WrapUInt(Width),
    FloatFromInt,
    FloatFromUInt,
}

impl IntConv {
    /// `native` is the matched native basic type, `None` for a field that
    /// is parsed but has no destination.
    fn resolve(read: IntRead, native: Option<&BasicType>) -> IntConv {
        match native {
            Some(BasicType::Int(w)) => {
                let keeps = *w == Width::W8
                    || if read.signed() {
                        w.bytes() >= read.width()
                    } else {
                        w.bytes() > read.width()
                    };
                if keeps {
                    IntConv::Int
                } else {
                    IntConv::WrapInt(*w)
                }
            }
            Some(BasicType::UInt(w)) => {
                if *w == Width::W8 || (!read.signed() && w.bytes() >= read.width()) {
                    IntConv::UInt
                } else {
                    IntConv::WrapUInt(*w)
                }
            }
            Some(BasicType::Float(_)) if read.signed() => IntConv::FloatFromInt,
            Some(BasicType::Float(_)) => IntConv::FloatFromUInt,
            _ if read.signed() => IntConv::Int,
            _ => IntConv::UInt,
        }
    }

    #[inline(always)]
    pub(crate) fn apply(self, bits: u64) -> Value {
        match self {
            IntConv::Int => Value::Int(bits as i64),
            IntConv::UInt => Value::UInt(bits),
            IntConv::WrapInt(w) => Value::Int(w.wrap_i64(bits)),
            IntConv::WrapUInt(w) => Value::UInt(w.wrap_u64(bits)),
            IntConv::FloatFromInt => Value::Float(bits as i64 as f64),
            IntConv::FloatFromUInt => Value::Float(bits as f64),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum ElemPlan {
    Int {
        read: IntRead,
        conv: IntConv,
    },
    /// An integer that variable-length arrays of the same record level take
    /// their length from: read like `Int`, and its raw wire value is also
    /// remembered in the level's count slot `slot`.
    Count {
        read: IntRead,
        conv: IntConv,
        slot: usize,
    },
    F32,
    F64,
    Char,
    Enum,
    Str,
    /// Boxed: a step is as small as its scalars, records sit elsewhere.
    Record(Box<RecordPlan>),
    Array {
        elem: Box<ElemPlan>,
        len: LenPlan,
        /// Fixed wire stride of one element, when every element occupies the
        /// same number of payload bytes ([`fixed_size`]). Lets
        /// execution bounds-check the whole range once and reserve the exact
        /// element count instead of a defensive cap.
        stride: Option<usize>,
        /// The fewest payload bytes one element can occupy: what a claimed
        /// count is checked against before anything is reserved for it.
        min_size: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum LenPlan {
    Fixed(usize),
    /// Count comes from this count slot of the *enclosing* record level
    /// (already decoded — formats declare the length field first).
    Counted(usize),
}

#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// Destination field index in the native record, `None` to skip.
    pub(crate) dst: Option<usize>,
    pub(crate) elem: ElemPlan,
    /// Where the field sits in its record on an index tape.
    pub(crate) slot: Slot,
}

/// Where one field of a record sits in the record's block on an index tape
/// ([`crate::view`]), and in the record's bytes when it has a fixed size.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    /// First word of the field's slot, counted from the block's first word.
    pub(crate) word: u32,
    /// The field's byte offset in its record, when the record has a fixed
    /// size.
    pub(crate) byte: u32,
    /// The field's size when it is fixed (saturated at `u32::MAX`, which no
    /// payload holds): its slot is then the one word holding its payload
    /// offset, and everything below it is found by arithmetic.
    pub(crate) size: Option<u32>,
}

#[derive(Debug, Clone)]
pub(crate) struct RecordPlan {
    /// One step per wire field, in wire order.
    pub(crate) steps: Vec<Step>,
    /// Count slots of this level ([`ElemPlan::Count`]). Zero for a record
    /// without variable-length arrays, which then allocates no scratch.
    pub(crate) n_counts: usize,
    /// Number of fields in the native record.
    native_len: usize,
    /// `None` when the steps that have a destination land in native order
    /// and cover every native field: the output is then reserved once and
    /// pushed to. Otherwise the record to start from — declared defaults
    /// where no wire field lands, placeholders where one will.
    pub(crate) template: Option<Vec<Value>>,
    /// `(array_field, count_field)` native index pairs to re-synchronize
    /// after decoding, maintaining the length-field invariant.
    pub(crate) len_syncs: Vec<(usize, usize)>,
    /// Words of the record's block on an index tape.
    pub(crate) width: u32,
    /// The record's wire size, when every field has a fixed size.
    pub(crate) fixed: Option<usize>,
}

/// A compiled wire-to-native conversion routine for one format pair.
///
/// Compile once (e.g. on first receipt of an unseen format — Algorithm 2
/// line 22), cache, and execute per message. The same plan also converts a
/// value already decoded in the wire format ([`ConversionPlan::convert`]):
/// the one compiled form of "which field of one format fills which field of
/// another", with [`crate::convert_record`] as its oracle.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{ConversionPlan, Encoder, FormatBuilder, Value};
///
/// let wire = FormatBuilder::record("M").int("a").string("x").build_arc()?;
/// let native = FormatBuilder::record("M").string("x").build_arc()?;
/// let plan = ConversionPlan::compile(&wire, &native)?;
/// let msg = Encoder::new(&wire).encode(&Value::Record(vec![1.into(), "hi".into()]))?;
/// assert_eq!(plan.execute(&msg)?, Value::Record(vec![Value::str("hi")]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConversionPlan {
    wire: Arc<RecordFormat>,
    native: Arc<RecordFormat>,
    /// The top-level record, as the element a message is made of.
    pub(crate) root: ElemPlan,
}

impl ConversionPlan {
    /// Compiles the conversion from `wire` (sender format) to `native`
    /// (receiver format).
    ///
    /// Fields match by name when the wire type can fill the native one
    /// ([`FieldType::can_fill`]). Unmatched wire fields are skipped;
    /// unmatched native fields take their declared default (or the canonical
    /// zero value).
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::BadFormat`] if either format violates
    /// length-field invariants (cannot happen for formats built through
    /// [`RecordFormat::new`]).
    pub fn compile(wire: &Arc<RecordFormat>, native: &Arc<RecordFormat>) -> Result<ConversionPlan> {
        let root = ElemPlan::Record(Box::new(compile_record(wire, Some(native))?));
        Ok(ConversionPlan { wire: Arc::clone(wire), native: Arc::clone(native), root })
    }

    /// Compiles the identity plan for a single format (pure decode).
    ///
    /// # Errors
    ///
    /// See [`ConversionPlan::compile`].
    pub fn identity(format: &Arc<RecordFormat>) -> Result<ConversionPlan> {
        ConversionPlan::compile(format, format)
    }

    /// Compiles a *projected* identity plan: top-level fields whose entry in
    /// `used` is false are parsed for cursor advancement but never
    /// materialized — strings, records, and arrays in dead fields allocate
    /// nothing, and the output record carries their default values instead.
    ///
    /// This is the decode half of a fused morph plan: the fusion layer scans
    /// a compiled transformation chain for the source fields it actually
    /// reads and projects everything else away, so per-message decode cost is
    /// proportional to the fields consumed (the Selective Field Transmission
    /// observation applied at the receiver).
    ///
    /// Length-field synchronization is dropped for projected-away arrays so a
    /// *used* count field keeps its wire value rather than being rewritten to
    /// the (empty) default array's length.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadFormat`] when `used` does not have one entry per
    /// top-level field; otherwise as [`ConversionPlan::identity`].
    pub fn project(format: &Arc<RecordFormat>, used: &[bool]) -> Result<ConversionPlan> {
        if used.len() != format.fields().len() {
            return Err(PbioError::BadFormat(format!(
                "projection mask has {} entries for {} fields",
                used.len(),
                format.fields().len()
            )));
        }
        let mut root = compile_record(format, Some(format))?;
        for (step, &used) in root.steps.iter_mut().zip(used) {
            if !used {
                step.dst = None;
            }
        }
        root.len_syncs.retain(|&(arr, _)| used[arr]);
        if used.contains(&false) {
            root.template = Some(template_for(format.fields(), used));
        }
        let root = ElemPlan::Record(Box::new(root));
        Ok(ConversionPlan { wire: Arc::clone(format), native: Arc::clone(format), root })
    }

    /// The sender-side format.
    pub fn wire_format(&self) -> &Arc<RecordFormat> {
        &self.wire
    }

    /// The receiver-side format.
    pub fn native_format(&self) -> &Arc<RecordFormat> {
        &self.native
    }

    /// Executes the plan on a full wire message (header + payload),
    /// producing a value shaped by the native format.
    ///
    /// # Errors
    ///
    /// Header/truncation errors as in [`crate::decode::decode_payload`].
    /// Does **not** verify that the message's format id matches the plan's
    /// wire format — callers (the morphing receiver) route by id first.
    pub fn execute(&self, buf: &[u8]) -> Result<Value> {
        let h = parse_header(buf)?;
        let mut c = Cursor::new(&buf[HEADER_LEN..HEADER_LEN + h.payload_len], h.order);
        // The one place the byte order is tested: everything below is
        // monomorphised for it.
        let v = match h.order {
            ByteOrder::Little => build::<Le>(&self.root, &mut c, &mut []),
            ByteOrder::Big => build::<Be>(&self.root, &mut c, &mut []),
        }?;
        if !c.at_end() {
            return Err(PbioError::BadData("trailing bytes after record payload".into()));
        }
        Ok(v)
    }

    /// Executes the plan on a value already shaped by the wire format — a
    /// transformation chain's output, where the chain ends one near match
    /// short of the reader: the same steps, defaults, integer casts and
    /// length-field syncs [`ConversionPlan::execute`] applies to wire bytes.
    /// Floats keep their `f64` value (nothing rounds through `f32`), as in
    /// [`crate::convert_record`], the meta-data-driven oracle.
    ///
    /// `value` is not checked against the wire format: a field it lacks
    /// converts as `Value::Int(0)` would, and a value of another kind than
    /// its field's is copied as it is.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), pbio::PbioError> {
    /// use pbio::{ConversionPlan, FormatBuilder, Value};
    ///
    /// let from = FormatBuilder::record("M").int("a").int("extra").build_arc()?;
    /// let to = FormatBuilder::record("M").int("a").int("missing").build_arc()?;
    /// let plan = ConversionPlan::compile(&from, &to)?;
    /// let out = plan.convert(&Value::Record(vec![Value::Int(7), Value::Int(9)]));
    /// assert_eq!(out, Value::Record(vec![Value::Int(7), Value::Int(0)]));
    /// # Ok(())
    /// # }
    /// ```
    pub fn convert(&self, value: &Value) -> Value {
        convert(&self.root, value)
    }
}

/// The record to start a scattered decode from: the declared (or canonical)
/// default of every native field no wire field lands on, a placeholder for
/// the rest.
fn template_for(native: &[Field], taken: &[bool]) -> Vec<Value> {
    native
        .iter()
        .zip(taken)
        .map(|(fd, &taken)| match (taken, fd.default()) {
            (true, _) => Value::Int(0),
            (false, Some(v)) => v.clone(),
            (false, None) => Value::default_for(fd.ty()),
        })
        .collect()
}

/// One wire record level during compilation: where its variable-length
/// arrays find their counts.
struct Level<'a> {
    wire: &'a RecordFormat,
    /// Per wire field, its count slot when some array of this level names
    /// it as length field.
    slots: &'a [Option<usize>],
}

impl Level<'_> {
    fn slot_of(&self, length_field: &str) -> Result<usize> {
        self.wire
            .field_index(length_field)
            .and_then(|i| self.slots[i])
            .ok_or_else(|| PbioError::BadFormat(format!("no length field `{length_field}`")))
    }
}

/// Compiles one record level. With `native` absent every field is parsed
/// for cursor advancement and nothing is stored.
fn compile_record(wire: &RecordFormat, native: Option<&RecordFormat>) -> Result<RecordPlan> {
    // Wire integers that feed variable-length arrays of this level (the
    // arrays themselves, or arrays nested in their element type).
    let mut slots: Vec<Option<usize>> = vec![None; wire.fields().len()];
    let mut n_counts = 0;
    for wf in wire.fields() {
        let mut ty = wf.ty();
        while let FieldType::Array { elem, len } = ty {
            if let ArrayLen::LengthField(name) = len {
                let idx = wire
                    .field_index(name)
                    .ok_or_else(|| PbioError::BadFormat(format!("no length field `{name}`")))?;
                if slots[idx].is_none() {
                    slots[idx] = Some(n_counts);
                    n_counts += 1;
                }
            }
            ty = elem;
        }
    }
    let level = Level { wire, slots: &slots };

    let native_fields = native.map_or(&[][..], RecordFormat::fields);
    let mut taken: Vec<bool> = vec![false; native_fields.len()];
    let mut steps = Vec::with_capacity(wire.fields().len());
    for (wf, slot) in wire.fields().iter().zip(&slots) {
        let dst = native
            .and_then(|n| n.field_index(wf.name()))
            .filter(|&i| !taken[i] && wf.ty().can_fill(native_fields[i].ty()));
        if let Some(i) = dst {
            taken[i] = true;
        }
        let mut elem = compile_elem(wf.ty(), dst.map(|i| native_fields[i].ty()), &level)?;
        if let Some(slot) = *slot {
            let ElemPlan::Int { read, conv } = elem else {
                return Err(PbioError::BadFormat(format!(
                    "length field `{}` is not an integer",
                    wf.name()
                )));
            };
            elem = ElemPlan::Count { read, conv, slot };
        }
        steps.push(Step { dst, elem, slot: Slot::default() });
    }

    let in_order = taken.iter().all(|&t| t) && steps.iter().filter_map(|s| s.dst).is_sorted();
    let template = (!in_order).then(|| template_for(native_fields, &taken));

    let len_syncs = native_fields
        .iter()
        .enumerate()
        .filter_map(|(i, fd)| match fd.ty() {
            FieldType::Array { len: ArrayLen::LengthField(name), .. } => {
                native?.field_index(name).map(|c| (i, c))
            }
            _ => None,
        })
        .collect();

    let (width, fixed) = layout(&mut steps)?;
    Ok(RecordPlan {
        steps,
        n_counts,
        native_len: native_fields.len(),
        template,
        len_syncs,
        width,
        fixed,
    })
}

/// Each step's slot in a record's block on an index tape, and the block's
/// width in words: one word for a fixed-size field (its payload offset), two
/// for a string (its first byte and its index in the view's list of checked
/// strings), a variable record's fields
/// inline, three for an array of fixed-size elements (first byte, 64-bit
/// count) and five for an array of variable ones (… and where its table of
/// element positions starts, and how many entries it has).
/// Returns the width, and the record's wire size when it is fixed.
fn layout(steps: &mut [Step]) -> Result<(u32, Option<usize>)> {
    let (mut width, mut bytes) = (0u32, Some(0usize));
    for step in steps {
        let size = fixed_size(&step.elem);
        let byte = bytes.map_or(0, |b| u32::try_from(b).unwrap_or(u32::MAX));
        let saturated = size.map(|n| u32::try_from(n).unwrap_or(u32::MAX));
        step.slot = Slot { word: width, byte, size: saturated };
        bytes = bytes.zip(size).and_then(|(b, n)| b.checked_add(n));
        width = width
            .checked_add(slot_words(&step.elem))
            .ok_or_else(|| PbioError::BadFormat("record too wide to index".into()))?;
    }
    Ok((width, bytes))
}

/// Words of an element's slot on an index tape (see [`layout`]).
pub(crate) fn slot_words(elem: &ElemPlan) -> u32 {
    match elem {
        _ if fixed_size(elem).is_some() => 1,
        ElemPlan::Str => 2,
        ElemPlan::Record(rp) => rp.width,
        ElemPlan::Array { stride: Some(_), .. } => 3,
        _ => 5,
    }
}

/// The wire size of an element, when it is the same for every value.
pub(crate) fn fixed_size(elem: &ElemPlan) -> Option<usize> {
    match elem {
        ElemPlan::Int { read, .. } | ElemPlan::Count { read, .. } => Some(read.width()),
        ElemPlan::F32 | ElemPlan::Enum => Some(4),
        ElemPlan::F64 => Some(8),
        ElemPlan::Char => Some(1),
        ElemPlan::Str => None,
        ElemPlan::Record(rp) => rp.fixed,
        ElemPlan::Array { len: LenPlan::Fixed(n), stride: Some(s), .. } => n.checked_mul(*s),
        ElemPlan::Array { .. } => None,
    }
}

/// The fewest payload bytes a value of `ty` can occupy — a string its NUL,
/// a counted array nothing: what bounds the elements reserved for a count
/// the message claims.
pub(crate) fn min_wire_size(ty: &FieldType) -> usize {
    match ty {
        FieldType::Basic(b) => b.wire_stride().unwrap_or(1),
        FieldType::Record(r) => {
            r.fields().iter().fold(0, |n, f| n.saturating_add(min_wire_size(f.ty())))
        }
        FieldType::Array { elem, len: ArrayLen::Fixed(n) } => n.saturating_mul(min_wire_size(elem)),
        FieldType::Array { .. } => 0,
    }
}

/// How many elements to reserve for an array claiming `n` of at least
/// `min_size` bytes each ([`min_wire_size`]): no more than the bytes left
/// could hold, and none up front when an element may take no bytes at all.
pub(crate) fn reservation(n: usize, min_size: usize, c: &Cursor<'_>) -> usize {
    match min_size {
        0 => 0,
        m => n.min(c.remaining() / m),
    }
}

fn compile_elem(
    wire_ty: &FieldType,
    native_ty: Option<&FieldType>,
    level: &Level<'_>,
) -> Result<ElemPlan> {
    match (wire_ty, native_ty) {
        (FieldType::Basic(wb), nty) => {
            let native = match nty {
                None => None,
                Some(FieldType::Basic(nb)) => Some(nb),
                Some(_) => unreachable!("can_fill relates basics to basics"),
            };
            let int = |signed: bool, w: Width| {
                let read = IntRead::new(signed, w);
                ElemPlan::Int { read, conv: IntConv::resolve(read, native) }
            };
            Ok(match wb {
                BasicType::Int(w) => int(true, *w),
                BasicType::UInt(w) => int(false, *w),
                BasicType::Float(Width::W4) => ElemPlan::F32,
                BasicType::Float(_) => ElemPlan::F64,
                BasicType::Char => ElemPlan::Char,
                BasicType::Enum { .. } => ElemPlan::Enum,
                BasicType::String => ElemPlan::Str,
            })
        }
        (FieldType::Record(wr), None) => Ok(ElemPlan::Record(Box::new(compile_record(wr, None)?))),
        (FieldType::Record(wr), Some(FieldType::Record(nr))) => {
            Ok(ElemPlan::Record(Box::new(compile_record(wr, Some(nr))?)))
        }
        (FieldType::Array { elem: wire_elem, len }, nty) => {
            let native_elem = match nty {
                None => None,
                Some(FieldType::Array { elem: ne, .. }) => Some(ne.as_ref()),
                Some(_) => unreachable!("can_fill relates arrays to arrays"),
            };
            let elem = compile_elem(wire_elem, native_elem, level)?;
            Ok(ElemPlan::Array {
                min_size: min_wire_size(wire_elem),
                stride: fixed_size(&elem),
                elem: Box::new(elem),
                len: match len {
                    ArrayLen::Fixed(n) => LenPlan::Fixed(*n),
                    ArrayLen::LengthField(name) => LenPlan::Counted(level.slot_of(name)?),
                },
            })
        }
        (FieldType::Record(_), Some(_)) => unreachable!("can_fill relates records to records"),
    }
}

/// Decodes one record level into its native record.
pub(crate) fn record<O: Order>(plan: &RecordPlan, c: &mut Cursor<'_>) -> Result<Value> {
    let mut counts = vec![0u64; plan.n_counts];
    let mut out = match &plan.template {
        Some(template) => template.clone(),
        None => Vec::with_capacity(plan.native_len),
    };
    let pushing = plan.template.is_none();
    for step in &plan.steps {
        match step.dst {
            None => skip::<O>(&step.elem, c, &mut counts)?,
            Some(_) if pushing => out.push(build::<O>(&step.elem, c, &mut counts)?),
            Some(dst) => out[dst] = build::<O>(&step.elem, c, &mut counts)?,
        }
    }
    sync_counts(&plan.len_syncs, &mut out);
    Ok(Value::Record(out))
}

/// Sets each native length field to its array's element count.
fn sync_counts(len_syncs: &[(usize, usize)], out: &mut [Value]) {
    for &(arr, cnt) in len_syncs {
        let n = out[arr].as_array().map_or(0, <[Value]>::len) as u64;
        out[cnt] = match out[cnt] {
            Value::UInt(_) => Value::UInt(n),
            _ => Value::Int(n as i64),
        };
    }
}

/// [`ConversionPlan::convert`] of one element: `v` is shaped by the wire
/// type the element was compiled from.
fn convert(elem: &ElemPlan, v: &Value) -> Value {
    match elem {
        ElemPlan::Int { conv, .. } | ElemPlan::Count { conv, .. } => conv.apply(match v {
            Value::Int(i) => *i as u64,
            Value::UInt(u) => *u,
            _ => 0,
        }),
        ElemPlan::F32 | ElemPlan::F64 => Value::Float(v.as_f64().unwrap_or(0.0)),
        ElemPlan::Char | ElemPlan::Enum | ElemPlan::Str => v.clone(),
        ElemPlan::Record(rp) => {
            let fields = v.as_record().unwrap_or_default();
            let mut out = match &rp.template {
                Some(template) => template.clone(),
                None => Vec::with_capacity(rp.native_len),
            };
            for (i, step) in rp.steps.iter().enumerate() {
                let Some(dst) = step.dst else { continue };
                let field = convert(&step.elem, fields.get(i).unwrap_or(&Value::Int(0)));
                match rp.template {
                    Some(_) => out[dst] = field,
                    None => out.push(field),
                }
            }
            sync_counts(&rp.len_syncs, &mut out);
            Value::Record(out)
        }
        ElemPlan::Array { elem, .. } => Value::Array(
            v.as_array().unwrap_or_default().iter().map(|e| convert(elem, e)).collect(),
        ),
    }
}

/// The element count of an array about to be read. Fixed-stride ranges are
/// bounds-checked as a block: one comparison proves every element read is
/// in-bounds, which also justifies reserving the exact count (a hostile
/// length field fails here instead of over-allocating).
pub(crate) fn array_len(
    len: LenPlan,
    stride: Option<usize>,
    c: &Cursor<'_>,
    counts: &[u64],
) -> Result<usize> {
    let n = match len {
        LenPlan::Fixed(n) => n,
        LenPlan::Counted(slot) => {
            usize::try_from(counts[slot]).map_err(|_| PbioError::UnexpectedEof)?
        }
    };
    if let Some(s) = stride {
        match n.checked_mul(s) {
            Some(need) if need <= c.remaining() => {}
            _ => return Err(PbioError::UnexpectedEof),
        }
    }
    Ok(n)
}

/// Decodes one element into its native value. `counts` are the count slots
/// of the enclosing record level.
pub(crate) fn build<O: Order>(
    elem: &ElemPlan,
    c: &mut Cursor<'_>,
    counts: &mut [u64],
) -> Result<Value> {
    Ok(match elem {
        ElemPlan::Int { read, conv } => conv.apply(read.bits::<O>(c)?),
        ElemPlan::Count { read, conv, slot } => {
            let bits = read.bits::<O>(c)?;
            counts[*slot] = read.count(bits)?;
            conv.apply(bits)
        }
        ElemPlan::F32 => Value::Float(f64::from(f32::from_bits(O::u32(c.fixed()?)))),
        ElemPlan::F64 => Value::Float(f64::from_bits(O::u64(c.fixed()?))),
        ElemPlan::Char => Value::Char(c.fixed::<1>()?[0]),
        ElemPlan::Enum => Value::Enum(O::u32(c.fixed()?) as i32),
        ElemPlan::Str => Value::Str(c.read_string()?),
        ElemPlan::Record(rp) => record::<O>(rp, c)?,
        ElemPlan::Array { elem, len, stride, min_size } => {
            let n = array_len(*len, *stride, c, counts)?;
            let mut es = Vec::with_capacity(reservation(n, *min_size, c));
            for _ in 0..n {
                es.push(build::<O>(elem, c, counts)?);
            }
            Value::Array(es)
        }
    })
}

/// Parses one element for cursor advancement only: nothing is allocated.
/// Count sources are still read, so array lengths stay available.
pub(crate) fn skip<O: Order>(
    elem: &ElemPlan,
    c: &mut Cursor<'_>,
    counts: &mut [u64],
) -> Result<()> {
    match elem {
        ElemPlan::Int { read, .. } => c.advance(read.width()),
        ElemPlan::Count { read, slot, .. } => {
            counts[*slot] = read.count(read.bits::<O>(c)?)?;
            Ok(())
        }
        ElemPlan::F32 | ElemPlan::Enum => c.advance(4),
        ElemPlan::F64 => c.advance(8),
        ElemPlan::Char => c.advance(1),
        ElemPlan::Str => c.skip_string(),
        ElemPlan::Record(rp) => {
            let mut counts = vec![0u64; rp.n_counts];
            rp.steps.iter().try_for_each(|step| skip::<O>(&step.elem, c, &mut counts))
        }
        ElemPlan::Array { elem, len, stride, .. } => {
            let n = array_len(*len, *stride, c, counts)?;
            (0..n).try_for_each(|_| skip::<O>(elem, c, counts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::types::FormatBuilder;

    fn member(extra: bool) -> Arc<RecordFormat> {
        let b = FormatBuilder::record("Member").string("info").int("ID");
        let b = if extra { b.int("is_source").int("is_sink") } else { b };
        b.build_arc().unwrap()
    }

    fn resp(extra: bool) -> Arc<RecordFormat> {
        FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", member(extra), "count")
            .build_arc()
            .unwrap()
    }

    #[test]
    fn identity_plan_roundtrips() {
        let fmt = resp(true);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![
                Value::str("a"),
                Value::Int(1),
                Value::Int(1),
                Value::Int(0),
            ])]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        let plan = ConversionPlan::identity(&fmt).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), v);
    }

    #[test]
    fn plan_drops_extra_nested_fields() {
        let from = resp(true);
        let to = resp(false);
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1), Value::Int(1), Value::Int(0)]),
                Value::Record(vec![Value::str("b"), Value::Int(2), Value::Int(0), Value::Int(1)]),
            ]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(2),
                Value::Array(vec![
                    Value::Record(vec![Value::str("a"), Value::Int(1)]),
                    Value::Record(vec![Value::str("b"), Value::Int(2)]),
                ])
            ])
        );
    }

    #[test]
    fn plan_fills_missing_nested_fields_with_defaults() {
        let from = resp(false);
        let to = resp(true);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![Value::str("a"), Value::Int(7)])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(1),
                Value::Array(vec![Value::Record(vec![
                    Value::str("a"),
                    Value::Int(7),
                    Value::Int(0),
                    Value::Int(0),
                ])])
            ])
        );
    }

    #[test]
    fn plan_reorders_fields() {
        let from = FormatBuilder::record("R").int("a").int("b").build_arc().unwrap();
        let to = FormatBuilder::record("R").int("b").int("a").build_arc().unwrap();
        let wire =
            Encoder::new(&from).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn plan_skips_strings_without_decoding() {
        let from = FormatBuilder::record("R").string("junk").int("keep").build_arc().unwrap();
        let to = FormatBuilder::record("R").int("keep").build_arc().unwrap();
        let wire = Encoder::new(&from)
            .encode(&Value::Record(vec![Value::str("a long skipped string"), Value::Int(5)]))
            .unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(5)]));
    }

    #[test]
    fn plan_uses_declared_defaults() {
        use crate::types::{BasicType, Width};
        let from = FormatBuilder::record("R").int("a").build_arc().unwrap();
        let to = FormatBuilder::record("R")
            .int("a")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(3))
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&from).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn plan_casts_int_to_float() {
        let from = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let to = FormatBuilder::record("R").double("x").build_arc().unwrap();
        let wire = Encoder::new(&from).encode(&Value::Record(vec![Value::Int(4)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Float(4.0)]));
    }

    #[test]
    fn plan_skips_entire_var_array() {
        let from = resp(false);
        let to = FormatBuilder::record("Resp").int("count").build_arc().unwrap();
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(2)]));
    }

    #[test]
    fn plan_syncs_native_length_field_without_wire_source() {
        // Native has count+list; wire only has the list under a fixed name
        // match... not possible without a count, so emulate: wire count named
        // differently, list matched. Native count must equal list len after
        // decode (sync), not the default 0.
        let m = member(false);
        let from = FormatBuilder::record("Resp")
            .int("n")
            .var_array_of("list", m.clone(), "n")
            .build_arc()
            .unwrap();
        let to = FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", m, "count")
            .build_arc()
            .unwrap();
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![Value::str("a"), Value::Int(1)])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(out.field(&to, "count"), Some(&Value::Int(1)));
    }

    #[test]
    fn projected_plan_skips_dead_fields_but_keeps_arity() {
        let fmt = FormatBuilder::record("R")
            .string("junk")
            .int("keep")
            .int("count")
            .var_array_of("list", member(false), "count")
            .build_arc()
            .unwrap();
        let v = Value::Record(vec![
            Value::str("a very long string nobody reads"),
            Value::Int(7),
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        // Only `keep` and `count` are consumed downstream.
        let used = [false, true, true, false];
        let plan = ConversionPlan::project(&fmt, &used).unwrap();
        let out = plan.execute(&wire).unwrap();
        // Full arity, dead fields defaulted, and the *used* count field keeps
        // its wire value (its sync pair was dropped with the array).
        assert_eq!(
            out,
            Value::Record(
                vec![Value::str(""), Value::Int(7), Value::Int(2), Value::Array(vec![]),]
            )
        );
        // All-used projection degenerates to the identity plan.
        let ident = ConversionPlan::project(&fmt, &[true; 4]).unwrap();
        assert_eq!(ident.execute(&wire).unwrap(), v);
        // Mask arity is validated.
        assert!(ConversionPlan::project(&fmt, &[true; 3]).is_err());
    }

    #[test]
    fn fixed_stride_array_bounds_checks_as_a_block() {
        // `vals` is a fixed-stride (8-byte) array: a hostile count that
        // exceeds the remaining payload must fail up front (one comparison),
        // not after allocating element-by-element.
        let fmt = FormatBuilder::record("R")
            .int("n")
            .var_array_basic("vals", crate::types::BasicType::Int(crate::types::Width::W8), "n")
            .build_arc()
            .unwrap();
        let good = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ]);
        let wire = Encoder::new(&fmt).encode(&good).unwrap();
        let plan = ConversionPlan::identity(&fmt).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), good);

        // Corrupt the count (first payload int, little-endian) to a huge
        // value: the block bounds check rejects it as truncation.
        let mut bad = wire.clone();
        let payload = crate::encode::HEADER_LEN;
        bad[payload..payload + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        assert!(matches!(plan.execute(&bad), Err(PbioError::UnexpectedEof)));
    }

    /// Both payload byte orders through every fixed-width reader, at the
    /// extremes of each width, under the identity plan and under widening,
    /// narrowing and sign-changing casts: the plan equals the oracle.
    #[test]
    fn every_scalar_reader_agrees_with_the_oracle_in_both_orders() {
        use crate::encode::ByteOrder;
        use crate::types::{BasicType::*, Width::*};
        let record = |tys: &[BasicType]| {
            let mut b = FormatBuilder::record("S");
            for (i, ty) in tys.iter().enumerate() {
                b = b.field(format!("f{i}"), FieldType::Basic(ty.clone()));
            }
            b.char("c").float("f").double("d").build_arc().unwrap()
        };
        let wire_tys = [Int(W1), Int(W2), Int(W4), Int(W8), UInt(W1), UInt(W2), UInt(W4), UInt(W8)];
        let from = record(&wire_tys);
        let natives = [
            from.clone(),
            // Narrowest, widest, sign-flipped and float natives per field.
            record(&vec![Int(W1); 8]),
            record(&vec![UInt(W1); 8]),
            record(&vec![Int(W8); 8]),
            record(&vec![UInt(W8); 8]),
            record(&[UInt(W2), Int(W1), UInt(W4), Int(W4), Int(W1), Int(W2), Int(W4), Int(W8)]),
            record(&vec![Float(W8); 8]),
        ];
        let tail = [Value::Char(0xfe), Value::Float(-1.5), Value::Float(2.25e10)];
        let lows: [i64; 4] = [i8::MIN.into(), i16::MIN.into(), i32::MIN.into(), i64::MIN];
        let highs: [u64; 4] = [u8::MAX.into(), u16::MAX.into(), u32::MAX.into(), u64::MAX];
        let low = lows.iter().map(|&v| Value::Int(v)).chain(highs.map(|_| Value::UInt(0)));
        let high = lows.iter().map(|&v| Value::Int(-(v + 1))).chain(highs.map(Value::UInt));
        let minus_one = lows.iter().map(|_| Value::Int(-1)).chain(highs.map(|_| Value::UInt(1)));
        for fields in [low.collect::<Vec<_>>(), high.collect(), minus_one.collect()] {
            let v = Value::Record(fields.into_iter().chain(tail.clone()).collect());
            for order in [ByteOrder::Little, ByteOrder::Big] {
                let wire = Encoder::with_order(&from, order).encode(&v).unwrap();
                for to in &natives {
                    let plan = ConversionPlan::compile(&from, to).unwrap();
                    let oracle = crate::decode::GenericDecoder::new(from.clone(), to.clone());
                    assert_eq!(
                        plan.execute(&wire).unwrap(),
                        oracle.decode(&wire).unwrap(),
                        "{order:?} to {to}"
                    );
                }
            }
        }
    }

    /// A length field counts what is on the wire, whatever the receiver
    /// casts it to: 300 elements stay 300 when the native count is a byte.
    #[test]
    fn count_source_keeps_its_wire_value_under_a_narrowing_cast() {
        use crate::types::{BasicType, Width};
        let elem = BasicType::Int(Width::W2);
        let from = FormatBuilder::record("R")
            .int("n")
            .var_array_basic("vals", elem.clone(), "n")
            .build_arc()
            .unwrap();
        let to = FormatBuilder::record("R")
            .field("n", FieldType::Basic(BasicType::UInt(Width::W1)))
            .var_array_basic("vals", elem, "n")
            .build_arc()
            .unwrap();
        let vals: Vec<Value> = (0..300).map(Value::Int).collect();
        let wire = Encoder::new(&from)
            .encode(&Value::Record(vec![Value::Int(300), Value::Array(vals.clone())]))
            .unwrap();
        let out = ConversionPlan::compile(&from, &to).unwrap().execute(&wire).unwrap();
        assert_eq!(out, crate::decode::GenericDecoder::new(from, to).decode(&wire).unwrap());
        assert_eq!(out.as_record().unwrap()[1], Value::Array(vals));
    }

    /// A negative length field is malformed, not an empty array.
    #[test]
    fn negative_count_is_rejected_like_the_oracle_does() {
        let fmt = resp(false);
        let empty = Value::Record(vec![Value::Int(0), Value::Array(vec![])]);
        let mut wire = Encoder::new(&fmt).encode(&empty).unwrap();
        wire[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(-1i32).to_le_bytes());
        assert!(crate::decode::GenericDecoder::new(fmt.clone(), fmt.clone())
            .decode(&wire)
            .is_err());
        for used in [[true, true], [true, false], [false, false]] {
            let plan = ConversionPlan::project(&fmt, &used).unwrap();
            assert!(matches!(plan.execute(&wire), Err(PbioError::BadData(_))), "{used:?}");
        }
    }

    /// Arrays nested in an array's element type take their length from the
    /// same record level; the count need not be the record's first field.
    #[test]
    fn nested_array_levels_find_their_count() {
        use crate::types::{ArrayLen, BasicType, Width};
        let rows = FieldType::Array {
            elem: Box::new(FieldType::Array {
                elem: Box::new(FieldType::Basic(BasicType::Int(Width::W2))),
                len: ArrayLen::LengthField("cols".into()),
            }),
            len: ArrayLen::Fixed(2),
        };
        let fmt = FormatBuilder::record("Grid")
            .string("name")
            .int("cols")
            .field("rows", rows)
            .build_arc()
            .unwrap();
        let row = |a, b, c| Value::Array(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
        let v = Value::Record(vec![
            Value::str("g"),
            Value::Int(3),
            Value::Array(vec![row(1, 2, 3), row(4, 5, 6)]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        assert_eq!(ConversionPlan::identity(&fmt).unwrap().execute(&wire).unwrap(), v);
        // Projected away, the rows are still stepped over by their count.
        let plan = ConversionPlan::project(&fmt, &[true, true, false]).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(out.as_record().unwrap()[..2], [Value::str("g"), Value::Int(3)]);
    }

    /// What `compile` resolves per record level: leaf records carry no
    /// count scratch, records whose fields arrive in native order are
    /// pushed to, the rest start from a template.
    #[test]
    fn record_levels_are_classified_at_compile_time() {
        let root = |p: &ConversionPlan| match &p.root {
            ElemPlan::Record(rp) => rp.clone(),
            other => panic!("the root is {other:?}"),
        };
        let leaf = |p: &ConversionPlan| match &root(p).steps[1].elem {
            ElemPlan::Array { elem, .. } => match elem.as_ref() {
                ElemPlan::Record(rp) => (rp.n_counts, rp.template.is_some()),
                other => panic!("element is {other:?}"),
            },
            other => panic!("list is {other:?}"),
        };
        let identity = ConversionPlan::identity(&resp(true)).unwrap();
        let top = root(&identity);
        assert_eq!((top.n_counts, top.template.is_some()), (1, false));
        assert_eq!(leaf(&identity), (0, false));
        // Dropping trailing fields keeps native order; adding fields the
        // wire lacks, or reordering, needs the template.
        assert_eq!(leaf(&ConversionPlan::compile(&resp(true), &resp(false)).unwrap()), (0, false));
        assert_eq!(leaf(&ConversionPlan::compile(&resp(false), &resp(true)).unwrap()), (0, true));
        let ab = FormatBuilder::record("R").int("a").int("b").build_arc().unwrap();
        let ba = FormatBuilder::record("R").int("b").int("a").build_arc().unwrap();
        assert!(root(&ConversionPlan::compile(&ab, &ba).unwrap()).template.is_some());
        let projected = ConversionPlan::project(&resp(true), &[true, false]).unwrap();
        assert!(root(&projected).template.is_some());
        assert!(root(&projected).len_syncs.is_empty());
    }

    #[test]
    fn convert_identity_is_a_clone() {
        let f = FormatBuilder::record("M").int("a").string("s").build_arc().unwrap();
        let v = Value::Record(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(ConversionPlan::identity(&f).unwrap().convert(&v), v);
    }

    #[test]
    fn convert_drops_extras_fills_defaults_reorders() {
        use crate::types::{BasicType, Width};
        let from =
            FormatBuilder::record("M").int("a").string("extra").int("b").build_arc().unwrap();
        let to = FormatBuilder::record("M")
            .int("b")
            .int("a")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(42))
            .build_arc()
            .unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out =
            plan.convert(&Value::Record(vec![Value::Int(1), Value::str("junk"), Value::Int(2)]));
        assert_eq!(out, Value::Record(vec![Value::Int(2), Value::Int(1), Value::Int(42)]));
    }

    #[test]
    fn convert_casts_numeric_kinds() {
        let from = FormatBuilder::record("M").int("x").uint("u").build_arc().unwrap();
        let to = FormatBuilder::record("M").double("x").long("u").build_arc().unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.convert(&Value::Record(vec![Value::Int(3), Value::UInt(9)]));
        assert_eq!(out, Value::Record(vec![Value::Float(3.0), Value::Int(9)]));
    }

    #[test]
    fn convert_adapts_array_elements_and_syncs_lengths() {
        let from = resp(true);
        let to = resp(false);
        let element = |info: &str, id, flags: [i64; 2]| {
            let mut fields = vec![Value::str(info), Value::Int(id)];
            fields.extend(flags.map(Value::Int));
            Value::Record(fields)
        };
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![element("a", 1, [1, 0]), element("b", 2, [0, 1])]),
        ]);
        let out = ConversionPlan::compile(&from, &to).unwrap().convert(&v);
        out.check(&to).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(2),
                Value::Array(vec![
                    Value::Record(vec![Value::str("a"), Value::Int(1)]),
                    Value::Record(vec![Value::str("b"), Value::Int(2)]),
                ])
            ])
        );
        // A reader count with no wire source is the array's length, not 0.
        let renamed = FormatBuilder::record("Resp")
            .int("n")
            .var_array_of("list", member(false), "n")
            .build_arc()
            .unwrap();
        let out = ConversionPlan::compile(&from, &renamed).unwrap().convert(&v);
        assert_eq!(out.field(&renamed, "n"), Some(&Value::Int(2)));
    }

    #[test]
    fn convert_takes_the_default_for_an_incompatible_kind() {
        let from = FormatBuilder::record("M").string("x").build_arc().unwrap();
        let to = FormatBuilder::record("M").int("x").build_arc().unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(
            plan.convert(&Value::Record(vec![Value::str("nope")])),
            Value::Record(vec![Value::Int(0)])
        );
    }

    #[test]
    fn plan_agrees_with_generic_decoder() {
        let from = resp(true);
        let to = resp(false);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![
                Value::str("node-1"),
                Value::Int(42),
                Value::Int(1),
                Value::Int(1),
            ])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let gen = crate::decode::GenericDecoder::new(from, to);
        assert_eq!(plan.execute(&wire).unwrap(), gen.decode(&wire).unwrap());
    }
}
