//! Dynamically-typed record values.
//!
//! A [`Value`] is the in-memory representation of a PBIO record: the
//! "unencoded native data structure" of the paper's evaluation. Records are
//! positional — element `i` of a [`Value::Record`] corresponds to field `i`
//! of the governing [`RecordFormat`] — which keeps access O(1) and mirrors
//! the way generated native code would address struct offsets.

use std::fmt;

use crate::encode::{encode_record, ByteOrder, Path};
use crate::error::Result;
use crate::types::{ArrayLen, BasicType, FieldType, RecordFormat};

/// A dynamically-typed value conforming (or intended to conform) to some
/// [`RecordFormat`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (any declared width).
    Int(i64),
    /// Unsigned integer (any declared width).
    UInt(u64),
    /// Floating point (f32 widened to f64).
    Float(f64),
    /// One-byte character.
    Char(u8),
    /// Enumeration discriminant.
    Enum(i32),
    /// UTF-8 string.
    Str(String),
    /// Positional record value.
    Record(Vec<Value>),
    /// Array value (fixed or variable length).
    Array(Vec<Value>),
}

impl Value {
    /// Shorthand for `Value::Str(s.into())`.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the contained integer, widening from `Int`, `UInt`, `Char`,
    /// or `Enum`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::UInt(v) => i64::try_from(*v).ok(),
            Value::Char(c) => Some(i64::from(*c)),
            Value::Enum(d) => Some(i64::from(*d)),
            _ => None,
        }
    }

    /// Returns the value as an unsigned count (used for length fields).
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Value::Int(v) => u64::try_from(*v).ok(),
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the contained float, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the contained string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the record fields, if this is a record.
    pub fn as_record(&self) -> Option<&[Value]> {
        match self {
            Value::Record(fs) => Some(fs),
            _ => None,
        }
    }

    /// Returns the record fields mutably, if this is a record.
    pub fn as_record_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Record(fs) => Some(fs),
            _ => None,
        }
    }

    /// Returns the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(es) => Some(es),
            _ => None,
        }
    }

    /// Returns the array elements mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(es) => Some(es),
            _ => None,
        }
    }

    /// Convenience: looks a field up by name through a format.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), pbio::PbioError> {
    /// use pbio::{FormatBuilder, Value};
    ///
    /// let fmt = FormatBuilder::record("Msg").int("load").build()?;
    /// let v = Value::Record(vec![Value::Int(7)]);
    /// assert_eq!(v.field(&fmt, "load"), Some(&Value::Int(7)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn field<'v>(&'v self, format: &RecordFormat, name: &str) -> Option<&'v Value> {
        let idx = format.field_index(name)?;
        self.as_record()?.get(idx)
    }

    /// A short description of the value's shape for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::UInt(_) => "unsigned integer",
            Value::Float(_) => "float",
            Value::Char(_) => "char",
            Value::Enum(_) => "enum",
            Value::Str(_) => "string",
            Value::Record(_) => "record",
            Value::Array(_) => "array",
        }
    }

    /// Builds the canonical zero/default value for a field type: integers
    /// and floats are zero, strings empty, records are defaults of their
    /// fields, fixed arrays are filled, variable arrays are empty.
    pub fn default_for(ty: &FieldType) -> Value {
        match ty {
            FieldType::Basic(b) => match b {
                BasicType::Int(_) => Value::Int(0),
                BasicType::UInt(_) => Value::UInt(0),
                BasicType::Float(_) => Value::Float(0.0),
                BasicType::Char => Value::Char(0),
                BasicType::Enum { variants, .. } => {
                    Value::Enum(variants.first().map_or(0, |v| v.discriminant))
                }
                BasicType::String => Value::Str(String::new()),
            },
            FieldType::Record(r) => Value::default_record(r),
            FieldType::Array { elem, len } => match len {
                ArrayLen::Fixed(n) => {
                    Value::Array((0..*n).map(|_| Value::default_for(elem)).collect())
                }
                ArrayLen::LengthField(_) => Value::Array(Vec::new()),
            },
        }
    }

    /// Builds a record value where every field takes its declared default
    /// (or the canonical zero if no default was declared).
    pub fn default_record(format: &RecordFormat) -> Value {
        Value::Record(
            format
                .fields()
                .iter()
                .map(|f| f.default().cloned().unwrap_or_else(|| Value::default_for(f.ty())))
                .collect(),
        )
    }

    /// Checks that this value structurally conforms to `format`, including
    /// integer range checks against declared widths, variable-array
    /// count/length-field agreement and strings free of NUL bytes: exactly
    /// what [`crate::Encoder::encode`] accepts, since it is the encoder's own
    /// walk, writing into a scratch buffer.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::PbioError`] encoding would return.
    pub fn check(&self, format: &RecordFormat) -> Result<()> {
        let root = Path::Root(format.name());
        encode_record(self, format, ByteOrder::Little, &root, &mut Vec::new())
    }

    /// The size in bytes of the value laid out as a native, *unencoded* C
    /// data structure (8-byte ints/pointers where applicable). Strings
    /// count their bytes plus a NUL; arrays count elements.
    fn native_size(&self, ty: &FieldType) -> usize {
        match (ty, self) {
            (FieldType::Basic(b), v) => match (b, v) {
                (BasicType::Int(w) | BasicType::UInt(w) | BasicType::Float(w), _) => w.bytes(),
                (BasicType::Char, _) => 1,
                (BasicType::Enum { .. }, _) => 4,
                (BasicType::String, Value::Str(s)) => s.len() + 1,
                (BasicType::String, _) => 1,
            },
            (FieldType::Record(r), v) => v.native_record_size(r),
            (FieldType::Array { elem, .. }, Value::Array(es)) => {
                es.iter().map(|e| e.native_size(elem)).sum()
            }
            _ => 0,
        }
    }

    /// The size in bytes of a full record laid out as a native, *unencoded*
    /// C data structure — the paper's Table 1 "Unencoded" baseline.
    /// Strings count their bytes plus a NUL; arrays count elements.
    pub fn native_record_size(&self, format: &RecordFormat) -> usize {
        match self.as_record() {
            Some(fields) => {
                fields.iter().zip(format.fields()).map(|(v, f)| v.native_size(f.ty())).sum()
            }
            None => 0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Char(c) => write!(f, "'{}'", *c as char),
            Value::Enum(d) => write!(f, "enum#{d}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, v) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Array(es) => {
                write!(f, "[")?;
                for (i, v) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(i64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PbioError;
    use crate::types::{FormatBuilder, Width};
    use std::sync::Arc;

    fn member() -> Arc<RecordFormat> {
        FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap()
    }

    fn listfmt() -> RecordFormat {
        FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", member(), "count")
            .build()
            .unwrap()
    }

    fn member_val(info: &str, id: i64) -> Value {
        Value::Record(vec![Value::str(info), Value::Int(id)])
    }

    #[test]
    fn check_accepts_conforming_value() {
        let fmt = listfmt();
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![member_val("a", 1), member_val("b", 2)]),
        ]);
        v.check(&fmt).unwrap();
    }

    #[test]
    fn check_rejects_count_mismatch() {
        let fmt = listfmt();
        let v = Value::Record(vec![Value::Int(3), Value::Array(vec![member_val("a", 1)])]);
        assert!(matches!(v.check(&fmt), Err(PbioError::LengthMismatch { .. })));
    }

    #[test]
    fn check_rejects_wrong_kind() {
        let fmt = FormatBuilder::record("R").int("a").build().unwrap();
        let v = Value::Record(vec![Value::str("oops")]);
        assert!(matches!(v.check(&fmt), Err(PbioError::TypeMismatch { .. })));
    }

    #[test]
    fn check_rejects_out_of_range_int() {
        let fmt = FormatBuilder::record("R").int("a").build().unwrap();
        let v = Value::Record(vec![Value::Int(1 << 40)]);
        assert!(matches!(v.check(&fmt), Err(PbioError::IntOutOfRange { .. })));
    }

    /// What `check` accepts the encoder sends: a string with a NUL inside
    /// cannot travel NUL-terminated, so it does not conform.
    #[test]
    fn check_rejects_an_interior_nul_string() {
        let fmt = FormatBuilder::record("R").string("s").build().unwrap();
        let v = Value::Record(vec![Value::str("a\0b")]);
        assert!(matches!(v.check(&fmt), Err(PbioError::BadData(_))));
        Value::Record(vec![Value::str("ab")]).check(&fmt).unwrap();
    }

    #[test]
    fn check_rejects_field_count_mismatch() {
        let fmt = FormatBuilder::record("R").int("a").int("b").build().unwrap();
        let v = Value::Record(vec![Value::Int(1)]);
        assert!(v.check(&fmt).is_err());
    }

    #[test]
    fn default_record_uses_declared_defaults() {
        let fmt = FormatBuilder::record("R")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(7))
            .string("tag")
            .build()
            .unwrap();
        let v = Value::default_record(&fmt);
        assert_eq!(v, Value::Record(vec![Value::Int(7), Value::Str(String::new())]));
    }

    #[test]
    fn native_size_counts_strings_and_elements() {
        let fmt = listfmt();
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![member_val("abc", 1), member_val("d", 2)]),
        ]);
        // count:4 + ("abc"+NUL=4 + ID 4) + ("d"+NUL=2 + ID 4)
        assert_eq!(v.native_record_size(&fmt), 4 + 8 + 6);
    }

    #[test]
    fn field_lookup_by_name() {
        let fmt = listfmt();
        let v = Value::Record(vec![Value::Int(0), Value::Array(vec![])]);
        assert_eq!(v.field(&fmt, "count"), Some(&Value::Int(0)));
        assert!(v.field(&fmt, "nope").is_none());
    }

    #[test]
    fn as_conversions() {
        assert_eq!(Value::Int(-3).as_i64(), Some(-3));
        assert_eq!(Value::UInt(5).as_i64(), Some(5));
        assert_eq!(Value::Char(65).as_i64(), Some(65));
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Int(-1).as_count(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Int(0).as_str().is_none());
    }

    #[test]
    fn enum_membership_checked() {
        use crate::types::EnumVariant;
        let fmt = FormatBuilder::record("R")
            .field(
                "color",
                FieldType::Basic(BasicType::Enum {
                    name: "Color".into(),
                    variants: vec![
                        EnumVariant { name: "Red".into(), discriminant: 0 },
                        EnumVariant { name: "Blue".into(), discriminant: 2 },
                    ],
                }),
            )
            .build()
            .unwrap();
        Value::Record(vec![Value::Enum(2)]).check(&fmt).unwrap();
        assert!(Value::Record(vec![Value::Enum(1)]).check(&fmt).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Value::Record(vec![Value::Int(1), Value::Array(vec![Value::str("x")])]);
        assert!(!format!("{v}").is_empty());
        assert!(!format!("{v:?}").is_empty());
    }
}
