//! Format (schema) descriptions: the out-of-band meta-data PBIO attaches to
//! every message stream.
//!
//! A [`RecordFormat`] describes the names, types, and order of the fields in
//! a record, mirroring the `IOField` declarations of the original PBIO
//! system. Formats are *values*: they can be hashed into a [`FormatId`],
//! serialized out-of-band (see [`crate::meta`]), and compared structurally by
//! the morphing layer.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::{PbioError, Result};
use crate::meta::FormatId;
use crate::value::Value;

/// Width in bytes of an integer or floating-point wire field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 1 byte (integers only).
    W1,
    /// 2 bytes (integers only).
    W2,
    /// 4 bytes.
    W4,
    /// 8 bytes.
    W8,
}

impl Width {
    /// Number of bytes this width occupies on the wire.
    pub fn bytes(self) -> usize {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// Wraps a raw 64-bit pattern to this width, reinterpreted as a signed
    /// integer (C narrowing-cast semantics: truncate, then sign-extend).
    pub fn wrap_i64(self, bits: u64) -> i64 {
        let n = self.bytes() as u32 * 8;
        if n == 64 {
            bits as i64
        } else {
            let shift = 64 - n;
            ((bits << shift) as i64) >> shift
        }
    }

    /// Wraps a raw 64-bit pattern to this width as an unsigned integer
    /// (truncation).
    pub fn wrap_u64(self, bits: u64) -> u64 {
        let n = self.bytes() as u32 * 8;
        if n == 64 {
            bits
        } else {
            bits & ((1u64 << n) - 1)
        }
    }

    /// Constructs a width from a byte count.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::BadFormat`] if `n` is not 1, 2, 4, or 8.
    pub fn from_bytes(n: usize) -> Result<Width> {
        match n {
            1 => Ok(Width::W1),
            2 => Ok(Width::W2),
            4 => Ok(Width::W4),
            8 => Ok(Width::W8),
            _ => Err(PbioError::BadFormat(format!("unsupported field width {n}"))),
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// One variant of an enumeration type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnumVariant {
    /// Symbolic name of the variant.
    pub name: String,
    /// Wire discriminant.
    pub discriminant: i32,
}

/// The *basic* PBIO field types: integer, unsigned integer, float, char,
/// enumeration and string (paper §3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BasicType {
    /// Signed two's-complement integer of the given width.
    Int(Width),
    /// Unsigned integer of the given width.
    UInt(Width),
    /// IEEE-754 float; width must be 4 or 8.
    Float(Width),
    /// A single byte character (C `char`).
    Char,
    /// A named enumeration with explicit discriminants.
    Enum {
        /// Name of the enumeration type.
        name: String,
        /// The allowed variants.
        variants: Vec<EnumVariant>,
    },
    /// A length-prefixed UTF-8 string.
    String,
}

impl BasicType {
    /// True if two basic types are *convertible* for the purposes of format
    /// matching: same kind, possibly different widths, or an integer that
    /// can widen into a float.
    pub fn convertible_to(&self, other: &BasicType) -> bool {
        use BasicType::*;
        match (self, other) {
            (Int(_), Int(_)) | (UInt(_), UInt(_)) | (Float(_), Float(_)) => true,
            (Int(_), UInt(_)) | (UInt(_), Int(_)) => true,
            (Int(_) | UInt(_), Float(_)) => true,
            (Char, Char) | (String, String) => true,
            (Enum { name: a, .. }, Enum { name: b, .. }) => a == b,
            _ => false,
        }
    }

    /// A short human-readable name for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            BasicType::Int(_) => "integer",
            BasicType::UInt(_) => "unsigned integer",
            BasicType::Float(_) => "float",
            BasicType::Char => "char",
            BasicType::Enum { .. } => "enum",
            BasicType::String => "string",
        }
    }

    /// The fixed number of wire bytes one value of this type occupies, or
    /// `None` for variably-sized encodings (strings are NUL-terminated).
    ///
    /// Fixed-stride metadata is what lets consumers treat a whole array
    /// range as one block: the conversion-plan layer bounds-checks an entire
    /// array with a single comparison, and the Ecode lowering pass emits a
    /// batch range-copy superinstruction instead of a per-element loop.
    pub fn wire_stride(&self) -> Option<usize> {
        match self {
            BasicType::Int(w) | BasicType::UInt(w) | BasicType::Float(w) => Some(w.bytes()),
            BasicType::Char => Some(1),
            // Enums travel as a 4-byte discriminant.
            BasicType::Enum { .. } => Some(4),
            BasicType::String => None,
        }
    }
}

impl fmt::Display for BasicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasicType::Int(w) => write!(f, "int{}", w.bytes() * 8),
            BasicType::UInt(w) => write!(f, "uint{}", w.bytes() * 8),
            BasicType::Float(w) => write!(f, "float{}", w.bytes() * 8),
            BasicType::Char => write!(f, "char"),
            BasicType::Enum { name, .. } => write!(f, "enum {name}"),
            BasicType::String => write!(f, "string"),
        }
    }
}

/// How the element count of an array field is determined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrayLen {
    /// A compile-time fixed number of elements.
    Fixed(usize),
    /// The count is carried by an earlier integer field of the *same*
    /// record, referenced by name — PBIO's "size field" convention (the
    /// `member_count` / `member_list` pairing of the paper's Fig. 4).
    LengthField(String),
}

/// The type of a single field: basic, nested record, or array.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldType {
    /// One of the six basic types.
    Basic(BasicType),
    /// A nested record (a *complex* field in the paper's terminology).
    Record(Arc<RecordFormat>),
    /// An array of elements with the given length discipline.
    Array {
        /// Element type.
        elem: Box<FieldType>,
        /// Length discipline.
        len: ArrayLen,
    },
}

impl FieldType {
    /// True if this type is a basic type.
    pub fn is_basic(&self) -> bool {
        matches!(self, FieldType::Basic(_))
    }

    /// A short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            FieldType::Basic(b) => b.to_string(),
            FieldType::Record(r) => format!("record {}", r.name()),
            FieldType::Array { elem, len } => match len {
                ArrayLen::Fixed(n) => format!("[{n}]{}", elem.describe()),
                ArrayLen::LengthField(f) => format!("[{f}]{}", elem.describe()),
            },
        }
    }

    /// The compatibility relation: can a wire field of this type fill a
    /// native field of type `native`? Basic types when the wire one is
    /// [`BasicType::convertible_to`] the native one; records always (their
    /// fields are then related one by one); arrays when they share a length
    /// discipline — the same fixed count, or a length field each — and their
    /// elements are related. Converting a variable array into a fixed one,
    /// or fixed arrays of different counts, cannot keep the target's length
    /// invariant, so such a field counts as absent.
    ///
    /// Everything that decides whether a field is taken from the wire or
    /// filled with its default asks this one function: the conversion plan
    /// (which also adapts a morph's output to a near-matching reader) and
    /// MaxMatch's `diff` — what MaxMatch admits is what the plan then fills.
    #[inline]
    pub fn can_fill(&self, native: &FieldType) -> bool {
        match (self, native) {
            (FieldType::Basic(a), FieldType::Basic(b)) => a.convertible_to(b),
            (FieldType::Record(_), FieldType::Record(_)) => true,
            (FieldType::Array { elem: a, len: la }, FieldType::Array { elem: b, len: lb }) => {
                let same_discipline = match (la, lb) {
                    (ArrayLen::Fixed(n), ArrayLen::Fixed(m)) => n == m,
                    (ArrayLen::LengthField(_), ArrayLen::LengthField(_)) => true,
                    _ => false,
                };
                same_discipline && a.can_fill(b)
            }
            _ => false,
        }
    }

    /// The fixed number of wire bytes one value of this type occupies, or
    /// `None` when the encoding is variably sized (strings anywhere in the
    /// type, or variable-length nested arrays). See
    /// [`BasicType::wire_stride`] for why consumers want this.
    pub fn wire_stride(&self) -> Option<usize> {
        match self {
            FieldType::Basic(b) => b.wire_stride(),
            FieldType::Record(r) => {
                let mut total = 0usize;
                for f in r.fields() {
                    total = total.checked_add(f.ty().wire_stride()?)?;
                }
                Some(total)
            }
            FieldType::Array { elem, len } => match len {
                ArrayLen::Fixed(n) => elem.wire_stride()?.checked_mul(*n),
                ArrayLen::LengthField(_) => None,
            },
        }
    }
}

/// A named field within a record format, optionally carrying a default value
/// used by the morphing layer when a near-match leaves the field unset.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    name: String,
    ty: FieldType,
    default: Option<Value>,
}

impl Field {
    /// Creates a field with no default value.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Field {
        Field { name: name.into(), ty, default: None }
    }

    /// Creates a field carrying a default value (XML-style default semantics
    /// borrowed by the paper, §2).
    pub fn with_default(name: impl Into<String>, ty: FieldType, default: Value) -> Field {
        Field { name: name.into(), ty, default: Some(default) }
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field type.
    pub fn ty(&self) -> &FieldType {
        &self.ty
    }

    /// The default value for this field, if one was declared.
    pub fn default(&self) -> Option<&Value> {
        self.default.as_ref()
    }
}

/// A record format: an ordered list of named fields. The top-level format of
/// an entire message is the paper's *base format*.
#[derive(Debug, Clone)]
pub struct RecordFormat {
    name: String,
    fields: Vec<Field>,
    /// The wire identity, filled by the first [`crate::format_id`] call: a
    /// format is immutable once built, so its id is computed at most once
    /// (and travels with clones).
    id: OnceLock<FormatId>,
}

/// Formats compare by description; whether the id has been computed yet is
/// not part of one.
impl PartialEq for RecordFormat {
    fn eq(&self, other: &RecordFormat) -> bool {
        self.name == other.name && self.fields == other.fields
    }
}

impl RecordFormat {
    /// Builds and validates a record format.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::BadFormat`] if the record has no fields, has
    /// duplicate field names, or a variable-length array references a length
    /// field that is missing, not an integer, or not declared *before* the
    /// array (wire decoding is sequential, so the count must already have
    /// been read).
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Result<RecordFormat> {
        let name = name.into();
        if fields.is_empty() {
            return Err(PbioError::BadFormat(format!("record `{name}` has no fields")));
        }
        // The fields declared so far, by name: one lookup per check keeps a
        // description of n fields (meta-data from the wire) O(n) to admit.
        let mut earlier: HashMap<&str, &Field> = HashMap::with_capacity(fields.len());
        for f in &fields {
            if earlier.contains_key(f.name()) {
                return Err(PbioError::BadFormat(format!(
                    "record `{name}` declares field `{}` twice",
                    f.name
                )));
            }
            Self::validate_field_type(&name, f.name(), &f.ty, &earlier)?;
            earlier.insert(f.name(), f);
        }
        Ok(RecordFormat { name, fields, id: OnceLock::new() })
    }

    /// The memoised wire identity; `compute` runs on the first call only.
    pub(crate) fn id_or_init(&self, compute: impl FnOnce() -> FormatId) -> FormatId {
        *self.id.get_or_init(compute)
    }

    fn validate_field_type(
        record: &str,
        field: &str,
        ty: &FieldType,
        earlier: &HashMap<&str, &Field>,
    ) -> Result<()> {
        match ty {
            FieldType::Basic(BasicType::Float(w)) if w.bytes() < 4 => Err(PbioError::BadFormat(
                format!("field `{field}` of record `{record}`: floats must be 4 or 8 bytes"),
            )),
            FieldType::Basic(_) | FieldType::Record(_) => Ok(()),
            FieldType::Array { elem, len } => {
                if let ArrayLen::LengthField(lf) = len {
                    match earlier.get(lf.as_str()) {
                        None => {
                            return Err(PbioError::BadFormat(format!(
                                "array `{field}` of record `{record}` references length field \
                                 `{lf}` which is not declared before it"
                            )))
                        }
                        Some(f) => match &f.ty {
                            FieldType::Basic(BasicType::Int(_) | BasicType::UInt(_)) => {}
                            other => {
                                return Err(PbioError::BadFormat(format!(
                                    "length field `{lf}` of array `{field}` in record \
                                     `{record}` must be an integer, found {}",
                                    other.describe()
                                )))
                            }
                        },
                    }
                }
                Self::validate_field_type(record, field, elem, earlier)
            }
        }
    }

    /// The record's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered fields of this record.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Looks up a field index by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Looks up a field by name. Inlined across crates: Algorithm 1 asks
    /// once per field per direction, and a call each time is a tenth of it.
    #[inline]
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

impl fmt::Display for RecordFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "record {} {{", self.name)?;
        for field in &self.fields {
            writeln!(f, "    {}: {};", field.name(), field.ty().describe())?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`RecordFormat`] offering a fluent declaration style close to
/// the paper's `IOField` tables (Fig. 2).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::FormatBuilder;
///
/// let msg = FormatBuilder::record("Msg")
///     .int("load")
///     .int("mem")
///     .int("net")
///     .build()?;
/// assert_eq!(msg.fields().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FormatBuilder {
    name: String,
    fields: Vec<Field>,
}

impl FormatBuilder {
    /// Starts a new record declaration.
    pub fn record(name: impl Into<String>) -> FormatBuilder {
        FormatBuilder { name: name.into(), fields: Vec::new() }
    }

    /// Adds a field of arbitrary type.
    pub fn field(mut self, name: impl Into<String>, ty: FieldType) -> FormatBuilder {
        self.fields.push(Field::new(name, ty));
        self
    }

    /// Adds a field with a default value.
    pub fn field_with_default(
        mut self,
        name: impl Into<String>,
        ty: FieldType,
        default: Value,
    ) -> FormatBuilder {
        self.fields.push(Field::with_default(name, ty, default));
        self
    }

    /// Adds a 4-byte signed integer field (the C `int` of the paper's
    /// examples).
    pub fn int(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::Int(Width::W4)))
    }

    /// Adds an 8-byte signed integer field.
    pub fn long(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::Int(Width::W8)))
    }

    /// Adds a 4-byte unsigned integer field.
    pub fn uint(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::UInt(Width::W4)))
    }

    /// Adds an 8-byte float field (C `double`).
    pub fn double(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::Float(Width::W8)))
    }

    /// Adds a 4-byte float field.
    pub fn float(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::Float(Width::W4)))
    }

    /// Adds a char field.
    pub fn char(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::Char))
    }

    /// Adds a string field.
    pub fn string(self, name: impl Into<String>) -> FormatBuilder {
        self.field(name, FieldType::Basic(BasicType::String))
    }

    /// Adds a nested record field.
    pub fn nested(self, name: impl Into<String>, record: Arc<RecordFormat>) -> FormatBuilder {
        self.field(name, FieldType::Record(record))
    }

    /// Adds a variable-length array of records whose count is carried by the
    /// named (earlier) integer field.
    pub fn var_array_of(
        self,
        name: impl Into<String>,
        elem: Arc<RecordFormat>,
        length_field: impl Into<String>,
    ) -> FormatBuilder {
        self.field(
            name,
            FieldType::Array {
                elem: Box::new(FieldType::Record(elem)),
                len: ArrayLen::LengthField(length_field.into()),
            },
        )
    }

    /// Adds a variable-length array of basic elements whose count is carried
    /// by the named (earlier) integer field.
    pub fn var_array_basic(
        self,
        name: impl Into<String>,
        elem: BasicType,
        length_field: impl Into<String>,
    ) -> FormatBuilder {
        self.field(
            name,
            FieldType::Array {
                elem: Box::new(FieldType::Basic(elem)),
                len: ArrayLen::LengthField(length_field.into()),
            },
        )
    }

    /// Adds a fixed-length array field.
    pub fn fixed_array(
        self,
        name: impl Into<String>,
        elem: FieldType,
        count: usize,
    ) -> FormatBuilder {
        self.field(name, FieldType::Array { elem: Box::new(elem), len: ArrayLen::Fixed(count) })
    }

    /// Validates and builds the record format.
    ///
    /// # Errors
    ///
    /// See [`RecordFormat::new`].
    pub fn build(self) -> Result<RecordFormat> {
        RecordFormat::new(self.name, self.fields)
    }

    /// Validates and builds, returning the format wrapped in an [`Arc`] for
    /// sharing with registries and nested declarations.
    ///
    /// # Errors
    ///
    /// See [`RecordFormat::new`].
    pub fn build_arc(self) -> Result<Arc<RecordFormat>> {
        self.build().map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contact() -> Arc<RecordFormat> {
        FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap()
    }

    #[test]
    fn builder_declares_paper_fig2_format() {
        let f = FormatBuilder::record("Msg").int("load").int("mem").int("net").build().unwrap();
        assert_eq!(f.name(), "Msg");
        assert_eq!(f.fields().len(), 3);
        assert_eq!(f.field_index("mem"), Some(1));
        assert!(f.field("bogus").is_none());
    }

    #[test]
    fn duplicate_field_rejected() {
        let err = FormatBuilder::record("R").int("a").int("a").build().unwrap_err();
        assert!(matches!(err, PbioError::BadFormat(_)));
    }

    #[test]
    fn empty_record_rejected() {
        let err = RecordFormat::new("R", vec![]).unwrap_err();
        assert!(matches!(err, PbioError::BadFormat(_)));
    }

    #[test]
    fn length_field_must_precede_array() {
        let err = FormatBuilder::record("R")
            .var_array_of("list", contact(), "count")
            .int("count")
            .build()
            .unwrap_err();
        assert!(matches!(err, PbioError::BadFormat(_)));
    }

    #[test]
    fn length_field_must_be_integer() {
        let err = FormatBuilder::record("R")
            .string("count")
            .var_array_of("list", contact(), "count")
            .build()
            .unwrap_err();
        assert!(matches!(err, PbioError::BadFormat(_)));
    }

    #[test]
    fn tiny_float_rejected() {
        let err = FormatBuilder::record("R")
            .field("f", FieldType::Basic(BasicType::Float(Width::W2)))
            .build()
            .unwrap_err();
        assert!(matches!(err, PbioError::BadFormat(_)));
    }

    #[test]
    fn convertible_basics() {
        use BasicType::*;
        assert!(Int(Width::W4).convertible_to(&Int(Width::W8)));
        assert!(Int(Width::W4).convertible_to(&Float(Width::W8)));
        assert!(UInt(Width::W2).convertible_to(&Int(Width::W4)));
        assert!(!String.convertible_to(&Int(Width::W4)));
        assert!(!Float(Width::W8).convertible_to(&Int(Width::W8)));
    }

    #[test]
    fn display_renders_fields() {
        let f = FormatBuilder::record("Msg").int("load").string("tag").build().unwrap();
        let s = f.to_string();
        assert!(s.contains("record Msg"));
        assert!(s.contains("load: int32;"));
        assert!(s.contains("tag: string;"));
    }

    #[test]
    fn wire_stride_of_fixed_and_variable_types() {
        use BasicType::*;
        assert_eq!(Int(Width::W4).wire_stride(), Some(4));
        assert_eq!(Float(Width::W8).wire_stride(), Some(8));
        assert_eq!(Char.wire_stride(), Some(1));
        assert_eq!(String.wire_stride(), None);

        // Record stride is the sum of field strides — or None if any field
        // is variably sized.
        let fixed = FormatBuilder::record("P").int("x").long("y").build_arc().unwrap();
        assert_eq!(FieldType::Record(fixed).wire_stride(), Some(12));
        let var = FormatBuilder::record("P").int("x").string("s").build_arc().unwrap();
        assert_eq!(FieldType::Record(var).wire_stride(), None);

        // Fixed arrays multiply; length-field arrays are variably sized.
        let arr = FieldType::Array {
            elem: Box::new(FieldType::Basic(Int(Width::W8))),
            len: ArrayLen::Fixed(3),
        };
        assert_eq!(arr.wire_stride(), Some(24));
        let var_arr = FieldType::Array {
            elem: Box::new(FieldType::Basic(Int(Width::W8))),
            len: ArrayLen::LengthField("n".into()),
        };
        assert_eq!(var_arr.wire_stride(), None);
    }
}
