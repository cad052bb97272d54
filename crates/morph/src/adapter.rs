//! Specialized value-level format adaptation: Algorithm 2's "put in the
//! default values for the missing fields / remove fields in f1 that are not
//! in f2" (lines 28–30), compiled once per format pair.
//!
//! [`ValueAdapter`] is the decoded-value counterpart of
//! [`pbio::ConversionPlan`] (which works from wire bytes): all name
//! resolution and default selection happens at compile time, so per-message
//! adaptation is a straight index-driven copy.

use std::sync::Arc;

use pbio::{ArrayLen, BasicType, FieldType, RecordFormat, Value};

use crate::error::Result;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvKind {
    Int(pbio::Width),
    UInt(pbio::Width),
    Float,
}

#[derive(Debug, Clone)]
enum ElemAdapt {
    /// Types are identical — clone the element.
    Copy,
    /// Basic conversion.
    Convert(ConvKind),
    /// Record-to-record adaptation.
    Nested(RecAdapt),
    /// Array-of-X to array-of-Y adaptation.
    Array(Box<ElemAdapt>),
}

#[derive(Debug, Clone)]
enum FieldSource {
    /// Take target field from source field `i`.
    Take(usize, ElemAdapt),
    /// No source — use this (pre-resolved) default.
    Default(Value),
}

#[derive(Debug, Clone)]
struct RecAdapt {
    fields: Vec<FieldSource>,
    /// `(array_idx, count_idx)` pairs to re-synchronize after adaptation.
    len_syncs: Vec<(usize, usize)>,
}

/// A compiled adapter converting decoded values of one record format into
/// another by name-matched field copying, with defaults for the missing and
/// removal of the extra.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use morph::ValueAdapter;
/// use pbio::{FormatBuilder, Value};
///
/// let from = FormatBuilder::record("M").int("a").int("extra").build_arc()?;
/// let to = FormatBuilder::record("M").int("a").int("missing").build_arc()?;
/// let adapter = ValueAdapter::compile(&from, &to);
/// let out = adapter.apply(&Value::Record(vec![Value::Int(7), Value::Int(9)]))?;
/// assert_eq!(out, Value::Record(vec![Value::Int(7), Value::Int(0)]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ValueAdapter {
    from: Arc<RecordFormat>,
    to: Arc<RecordFormat>,
    root: RecAdapt,
}

/// How values of `from` become values of `to`, given that `from`
/// [can fill](FieldType::can_fill) `to`.
fn adapt(from: &FieldType, to: &FieldType) -> ElemAdapt {
    if from == to {
        return ElemAdapt::Copy;
    }
    match (from, to) {
        (FieldType::Basic(_), FieldType::Basic(b)) => match b {
            BasicType::Int(w) => ElemAdapt::Convert(ConvKind::Int(*w)),
            BasicType::UInt(w) => ElemAdapt::Convert(ConvKind::UInt(*w)),
            BasicType::Float(_) => ElemAdapt::Convert(ConvKind::Float),
            // Char/Enum/String only convert to themselves, and identical
            // types were handled by the Copy fast path above — reaching
            // here means widths/variants differ in a representable way.
            _ => ElemAdapt::Copy,
        },
        (FieldType::Record(a), FieldType::Record(b)) => ElemAdapt::Nested(compile_record(a, b)),
        (FieldType::Array { elem: a, .. }, FieldType::Array { elem: b, .. }) => {
            ElemAdapt::Array(Box::new(adapt(a, b)))
        }
        _ => unreachable!("can_fill relates a type to one of its own kind"),
    }
}

fn compile_record(from: &RecordFormat, to: &RecordFormat) -> RecAdapt {
    let mut fields = Vec::with_capacity(to.fields().len());
    for fd in to.fields() {
        let source = from
            .field_index(fd.name())
            .filter(|&i| from.fields()[i].ty().can_fill(fd.ty()))
            .map(|i| FieldSource::Take(i, adapt(from.fields()[i].ty(), fd.ty())))
            .unwrap_or_else(|| {
                FieldSource::Default(
                    fd.default().cloned().unwrap_or_else(|| Value::default_for(fd.ty())),
                )
            });
        fields.push(source);
    }
    let len_syncs = to
        .fields()
        .iter()
        .enumerate()
        .filter_map(|(i, fd)| match fd.ty() {
            FieldType::Array { len: ArrayLen::LengthField(name), .. } => {
                to.field_index(name).map(|c| (i, c))
            }
            _ => None,
        })
        .collect();
    RecAdapt { fields, len_syncs }
}

/// Raw 64-bit pattern of an integer-like value (C narrowing semantics).
fn int_bits(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::UInt(u) => *u,
        Value::Char(c) => u64::from(*c),
        Value::Enum(d) => i64::from(*d) as u64,
        _ => 0,
    }
}

fn apply_elem(adapt: &ElemAdapt, v: &Value) -> Value {
    match adapt {
        ElemAdapt::Copy => v.clone(),
        ElemAdapt::Convert(k) => match k {
            ConvKind::Int(w) => Value::Int(w.wrap_i64(int_bits(v))),
            ConvKind::UInt(w) => Value::UInt(w.wrap_u64(int_bits(v))),
            ConvKind::Float => Value::Float(v.as_f64().unwrap_or(0.0)),
        },
        ElemAdapt::Nested(r) => apply_record(r, v),
        ElemAdapt::Array(e) => match v.as_array() {
            Some(es) => Value::Array(es.iter().map(|x| apply_elem(e, x)).collect()),
            None => Value::Array(Vec::new()),
        },
    }
}

fn apply_record(adapt: &RecAdapt, v: &Value) -> Value {
    let src = v.as_record().unwrap_or(&[]);
    let mut out: Vec<Value> = adapt
        .fields
        .iter()
        .map(|f| match f {
            FieldSource::Take(i, e) => {
                src.get(*i).map(|sv| apply_elem(e, sv)).unwrap_or(Value::Int(0))
            }
            FieldSource::Default(d) => d.clone(),
        })
        .collect();
    for &(arr, cnt) in &adapt.len_syncs {
        let n = out[arr].as_array().map_or(0, <[Value]>::len) as u64;
        out[cnt] = match out[cnt] {
            Value::UInt(_) => Value::UInt(n),
            _ => Value::Int(n as i64),
        };
    }
    Value::Record(out)
}

impl ValueAdapter {
    /// Compiles the adapter for a format pair. Never fails: unmatched target
    /// fields fall back to defaults (matching Algorithm 2, which only runs
    /// this step on pairs MaxMatch already admitted).
    pub fn compile(from: &Arc<RecordFormat>, to: &Arc<RecordFormat>) -> ValueAdapter {
        ValueAdapter { from: Arc::clone(from), to: Arc::clone(to), root: compile_record(from, to) }
    }

    /// Source format.
    pub fn from_format(&self) -> &Arc<RecordFormat> {
        &self.from
    }

    /// Target format.
    pub fn to_format(&self) -> &Arc<RecordFormat> {
        &self.to
    }

    /// Adapts a decoded value of the source format into the target format.
    ///
    /// # Errors
    ///
    /// Currently infallible (returns `Result` for interface stability);
    /// malformed inputs degrade to defaults rather than erroring, mirroring
    /// the permissive delivery semantics of the paper.
    pub fn apply(&self, value: &Value) -> Result<Value> {
        Ok(apply_record(&self.root, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::FormatBuilder;

    #[test]
    fn identity_adaptation_is_clone() {
        let f = FormatBuilder::record("M").int("a").string("s").build_arc().unwrap();
        let a = ValueAdapter::compile(&f, &f);
        let v = Value::Record(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(a.apply(&v).unwrap(), v);
    }

    #[test]
    fn drops_extras_fills_defaults_reorders() {
        let from =
            FormatBuilder::record("M").int("a").string("extra").int("b").build_arc().unwrap();
        let to = FormatBuilder::record("M")
            .int("b")
            .int("a")
            .field_with_default(
                "mode",
                FieldType::Basic(BasicType::Int(pbio::Width::W4)),
                Value::Int(42),
            )
            .build_arc()
            .unwrap();
        let a = ValueAdapter::compile(&from, &to);
        let out = a
            .apply(&Value::Record(vec![Value::Int(1), Value::str("junk"), Value::Int(2)]))
            .unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(2), Value::Int(1), Value::Int(42)]));
    }

    #[test]
    fn converts_numeric_kinds() {
        let from = FormatBuilder::record("M").int("x").uint("u").build_arc().unwrap();
        let to = FormatBuilder::record("M").double("x").long("u").build_arc().unwrap();
        let a = ValueAdapter::compile(&from, &to);
        let out = a.apply(&Value::Record(vec![Value::Int(3), Value::UInt(9)])).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Float(3.0), Value::Int(9)]));
    }

    #[test]
    fn adapts_array_elements_and_syncs_lengths() {
        let m_big = FormatBuilder::record("E").int("ID").int("flag").build_arc().unwrap();
        let m_small = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let from = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", m_big, "n")
            .build_arc()
            .unwrap();
        let to = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", m_small, "n")
            .build_arc()
            .unwrap();
        let a = ValueAdapter::compile(&from, &to);
        let out = a
            .apply(&Value::Record(vec![
                Value::Int(2),
                Value::Array(vec![
                    Value::Record(vec![Value::Int(1), Value::Int(1)]),
                    Value::Record(vec![Value::Int(2), Value::Int(0)]),
                ]),
            ]))
            .unwrap();
        out.check(&to).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(2),
                Value::Array(vec![
                    Value::Record(vec![Value::Int(1)]),
                    Value::Record(vec![Value::Int(2)]),
                ])
            ])
        );
    }

    #[test]
    fn incompatible_kind_takes_default() {
        let from = FormatBuilder::record("M").string("x").build_arc().unwrap();
        let to = FormatBuilder::record("M").int("x").build_arc().unwrap();
        let a = ValueAdapter::compile(&from, &to);
        let out = a.apply(&Value::Record(vec![Value::str("nope")])).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(0)]));
    }

    #[test]
    fn agrees_with_generic_convert_record() {
        let from = FormatBuilder::record("M").int("a").string("s").double("d").build_arc().unwrap();
        let to = FormatBuilder::record("M").double("a").string("s").int("q").build_arc().unwrap();
        let v = Value::Record(vec![Value::Int(5), Value::str("hi"), Value::Float(2.5)]);
        let a = ValueAdapter::compile(&from, &to);
        assert_eq!(a.apply(&v).unwrap(), pbio::convert_record(&v, &from, &to));
    }
}
