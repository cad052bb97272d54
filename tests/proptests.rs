//! Property-based tests over the core data structures and invariants:
//! wire-format round trips, specialized-plan vs meta-data-driven decode
//! agreement, MaxMatch arithmetic, Ecode VM vs interpreter equivalence, and
//! XML round trips.
//!
//! Deliberately dependency-free: instead of `proptest`/`rand` (which would
//! require registry access to build), inputs are generated by the in-tree
//! [`XorShift64`] PRNG and each property is checked in a seeded loop. Every
//! run explores the same inputs, so failures reproduce from the printed
//! iteration seed alone.

use std::sync::{Arc, Mutex};

use message_morphing::prelude::*;
use morph::{Delivery, Explanation, MatchQuality, Transformation};
use pbio::{decode_payload, BasicType, FieldType, GenericDecoder, RecordFormat, Width};

mod common;
use common::hand_written_v2_wire_to_v1;

/// Iterations per property (each with a distinct derived seed).
const CASES: u64 = 64;

// -- deterministic PRNG ---------------------------------------------------------

/// xorshift64* — tiny, fast, and plenty for test-input generation.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        // Avoid the all-zero fixed point; splitmix the seed once for spread.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64 { state: (z ^ (z >> 31)) | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish in `0..n` (n > 0). Modulo bias is irrelevant for tests.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn usize_below(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform-ish in `lo..=hi` (span computed in u64, so full-width
    /// bounds like `-i64::MAX..=i64::MAX` don't overflow).
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        let span = hi.wrapping_sub(lo) as u64;
        let off = if span == u64::MAX { self.next_u64() } else { self.below(span + 1) };
        lo.wrapping_add(off as i64)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A pseudo-random subset (preserving order) of `0..n`, never empty.
    fn subset(&mut self, n: usize, max_len: usize) -> Vec<usize> {
        let want = 1 + self.usize_below(max_len.min(n));
        let mut picked: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first `want` entries become the sample.
        for i in 0..want {
            let j = i + self.usize_below(n - i);
            picked.swap(i, j);
        }
        picked.truncate(want);
        picked.sort_unstable();
        picked
    }
}

// -- random formats and conforming values ---------------------------------------

const NAME_POOL: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "count", "load", "mem", "net", "info", "id", "flag",
    "value", "rate", "name",
];

#[derive(Debug, Clone)]
enum FieldKind {
    Int(usize),
    UInt(usize),
    Double,
    Float,
    Char,
    Str,
    Nested(Vec<(usize, FieldKind)>),
    VarArray(Vec<(usize, FieldKind)>),
    FixedArray(Vec<(usize, FieldKind)>, usize),
}

fn widths() -> [Width; 4] {
    [Width::W1, Width::W2, Width::W4, Width::W8]
}

fn gen_scalar_kind(rng: &mut XorShift64) -> FieldKind {
    match rng.below(6) {
        0 => FieldKind::Int(rng.usize_below(4)),
        1 => FieldKind::UInt(rng.usize_below(4)),
        2 => FieldKind::Double,
        3 => FieldKind::Float,
        4 => FieldKind::Char,
        _ => FieldKind::Str,
    }
}

fn gen_kind(rng: &mut XorShift64, depth: u32) -> FieldKind {
    if depth == 0 {
        return gen_scalar_kind(rng);
    }
    match rng.below(8) {
        0 => FieldKind::Nested(gen_fields(rng, depth - 1)),
        1 => FieldKind::VarArray(gen_fields(rng, depth - 1)),
        2 => FieldKind::FixedArray(gen_fields(rng, depth - 1), rng.usize_below(4)),
        _ => gen_scalar_kind(rng),
    }
}

/// A field list with unique names sampled from the pool.
fn gen_fields(rng: &mut XorShift64, depth: u32) -> Vec<(usize, FieldKind)> {
    rng.subset(NAME_POOL.len(), 5).into_iter().map(|ni| (ni, gen_kind(rng, depth))).collect()
}

/// Materializes a kind list into a format. Variable arrays get a dedicated
/// count field inserted before them.
fn build_format(name: &str, fields: &[(usize, FieldKind)]) -> Arc<RecordFormat> {
    let mut b = FormatBuilder::record(name);
    for (ni, kind) in fields {
        let fname = NAME_POOL[*ni];
        b = match kind {
            FieldKind::Int(w) => b.field(fname, FieldType::Basic(BasicType::Int(widths()[*w]))),
            FieldKind::UInt(w) => b.field(fname, FieldType::Basic(BasicType::UInt(widths()[*w]))),
            FieldKind::Double => b.double(fname),
            FieldKind::Float => b.float(fname),
            FieldKind::Char => b.char(fname),
            FieldKind::Str => b.string(fname),
            FieldKind::Nested(inner) => b.nested(fname, build_format(&format!("N_{fname}"), inner)),
            FieldKind::VarArray(inner) => {
                let count = format!("{fname}_count");
                b.long(count.clone()).var_array_of(
                    fname,
                    build_format(&format!("E_{fname}"), inner),
                    count,
                )
            }
            FieldKind::FixedArray(inner, n) => b.fixed_array(
                fname,
                FieldType::Record(build_format(&format!("F_{fname}"), inner)),
                *n,
            ),
        };
    }
    b.build_arc().expect("generated formats are valid")
}

/// A random value conforming to `fmt`.
fn value_for(fmt: &RecordFormat, rng: &mut XorShift64) -> Value {
    let mut fields = Vec::with_capacity(fmt.fields().len());
    // Variable-array counts must agree with the arrays; generate arrays
    // first, then fix the counts.
    for fd in fmt.fields() {
        fields.push(value_for_type(fd.ty(), rng));
    }
    let mut v = Value::Record(fields);
    pbio::sync_length_fields(&mut v, fmt);
    v
}

fn value_for_type(ty: &FieldType, rng: &mut XorShift64) -> Value {
    match ty {
        FieldType::Basic(b) => match b {
            BasicType::Int(w) => {
                let bits = w.bytes() as u32 * 8 - 1;
                let bound = if bits >= 63 { i64::MAX } else { (1i64 << bits) - 1 };
                Value::Int(rng.range_i64(-bound, bound))
            }
            BasicType::UInt(w) => {
                let bits = w.bytes() as u32 * 8;
                let v = if bits >= 64 { rng.next_u64() } else { rng.below(1u64 << bits) };
                Value::UInt(v)
            }
            // Integer-valued floats are exactly representable at both
            // widths, so round trips stay bit-exact.
            BasicType::Float(Width::W4) => {
                Value::Float(f64::from((rng.next_u64() >> 40) as u32 as f32))
            }
            BasicType::Float(_) => Value::Float(rng.range_i64(-1 << 40, 1 << 40) as f64 * 0.5),
            BasicType::Char => Value::Char(rng.below(256) as u8),
            BasicType::Enum { variants, .. } => {
                Value::Enum(variants[rng.usize_below(variants.len())].discriminant)
            }
            BasicType::String => {
                let n = rng.usize_below(12);
                Value::Str((0..n).map(|_| (b'a' + rng.below(26) as u8) as char).collect())
            }
        },
        FieldType::Record(r) => value_for(r, rng),
        FieldType::Array { elem, len } => {
            let n = match len {
                pbio::ArrayLen::Fixed(n) => *n,
                pbio::ArrayLen::LengthField(_) => rng.usize_below(4),
            };
            Value::Array((0..n).map(|_| value_for_type(elem, rng)).collect())
        }
    }
}

/// Runs `body` for [`CASES`] derived seeds, labelling failures with the
/// iteration's seed so they reproduce standalone. `PROP_SEED=<n>` mixes a
/// fresh stream into every property (`ci.sh` draws one per run); unset, the
/// stream is the fixed one, so the plain test run is deterministic.
fn for_cases(property: &str, mut body: impl FnMut(&mut XorShift64)) {
    let mix = std::env::var("PROP_SEED")
        .map(|s| s.trim().parse::<u64>().expect("PROP_SEED is a decimal u64"))
        .unwrap_or(0);
    for case in 0..CASES {
        let seed = 0xC0FFEE ^ (case << 32) ^ case ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = XorShift64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!(
                "property `{property}` failed at case {case} (seed {seed:#x}); \
                 reproduce with PROP_SEED={mix} cargo test -q --test proptests"
            );
            std::panic::resume_unwind(e);
        }
    }
}

// -- wire-format properties -----------------------------------------------------

/// Encode → decode is the identity, in both byte orders.
#[test]
fn pbio_roundtrip() {
    for_cases("pbio_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 2));
        let v = value_for(&fmt, rng);
        v.check(&fmt).unwrap();
        for order in [pbio::ByteOrder::Little, pbio::ByteOrder::Big] {
            let wire = pbio::Encoder::with_order(&fmt, order).encode(&v).unwrap();
            let back = decode_payload(&fmt, &wire).unwrap();
            assert_eq!(back, v);
        }
    });
}

/// The specialized conversion plan computes exactly what the fully
/// meta-data-driven decoder computes, for arbitrary format pairs, in both
/// payload byte orders (so every fixed-width reader runs both ways) — and a
/// projected plan computes the identity decode with its dead top-level
/// fields defaulted.
#[test]
fn plan_matches_generic_decoder() {
    for_cases("plan_matches_generic_decoder", |rng| {
        let from = build_format("R", &gen_fields(rng, 2));
        let to = build_format("R", &gen_fields(rng, 2));
        let v = value_for(&from, rng);
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let generic = GenericDecoder::new(from.clone(), to.clone());
        let used: Vec<bool> = from.fields().iter().map(|_| rng.bool()).collect();
        let projected = ConversionPlan::project(&from, &used).unwrap();
        for order in [pbio::ByteOrder::Little, pbio::ByteOrder::Big] {
            let wire = pbio::Encoder::with_order(&from, order).encode(&v).unwrap();
            let a = plan.execute(&wire).unwrap();
            assert_eq!(a, generic.decode(&wire).unwrap(), "{order:?}");
            a.check(&to).unwrap();

            // Dead fields take their defaults; a live array still owns its
            // count field, dead or not.
            let mut expect = decode_payload(&from, &wire).unwrap();
            let slots = expect.as_record_mut().unwrap();
            for (i, fd) in from.fields().iter().enumerate() {
                if !used[i] {
                    slots[i] = Value::default_for(fd.ty());
                }
            }
            for (i, fd) in from.fields().iter().enumerate() {
                if let (true, FieldType::Array { len: pbio::ArrayLen::LengthField(count), .. }) =
                    (used[i], fd.ty())
                {
                    let n = slots[i].as_array().unwrap().len() as i64;
                    slots[from.field_index(count).unwrap()] = Value::Int(n);
                }
            }
            assert_eq!(projected.execute(&wire).unwrap(), expect, "{order:?}, used {used:?}");
        }
    });
}

/// An enumeration named `name` with the discriminants `ds`.
fn enum_type(name: &str, ds: &[i32]) -> FieldType {
    let variants =
        ds.iter().map(|&d| pbio::EnumVariant { name: format!("v{d}"), discriminant: d }).collect();
    FieldType::Basic(BasicType::Enum { name: name.into(), variants })
}

/// A random integer type, or — when `float` allows — a float.
fn numeric_type(rng: &mut XorShift64, float: bool) -> FieldType {
    let w = widths()[rng.usize_below(4)];
    FieldType::Basic(match rng.below(if float { 3 } else { 2 }) {
        0 => BasicType::Int(w),
        1 => BasicType::UInt(w),
        _ => BasicType::Float(if rng.bool() { Width::W4 } else { Width::W8 }),
    })
}

/// What a reader may declare for a wire field of type `ty`: the same type,
/// another width or signedness, an integer as a float, an enum with one
/// variant more or another name, a record or array reshaped the same way,
/// or a type the wire's cannot fill.
fn reader_type(ty: &FieldType, rng: &mut XorShift64) -> FieldType {
    match ty {
        _ if rng.below(10) == 0 => FieldType::Basic(BasicType::String),
        FieldType::Basic(BasicType::Int(_) | BasicType::UInt(_)) => numeric_type(rng, true),
        FieldType::Basic(BasicType::Float(_)) => numeric_type(rng, false),
        FieldType::Basic(BasicType::Enum { name, .. }) if rng.bool() => enum_type(name, &[0, 2, 5]),
        FieldType::Basic(BasicType::Enum { .. }) => enum_type("Other", &[7]),
        FieldType::Record(r) => FieldType::Record(reader_format(r, rng)),
        FieldType::Array { elem, len } => {
            FieldType::Array { elem: Box::new(reader_type(elem, rng)), len: len.clone() }
        }
        other => other.clone(),
    }
}

/// A reader's version of the record `from`: each field kept, retyped
/// ([`reader_type`]) or dropped — a length field renamed instead, so the
/// reader's count has no wire source, or given another integer type — plus,
/// sometimes, fields the wire lacks, with and without a declared default,
/// one of them first.
fn reader_format(from: &RecordFormat, rng: &mut XorShift64) -> Arc<RecordFormat> {
    let is_count = |name: &str| {
        from.fields().iter().any(|f| {
            matches!(f.ty(), FieldType::Array { len: pbio::ArrayLen::LengthField(n), .. } if n == name)
        })
    };
    let mut renamed = Vec::new();
    let mut fields = Vec::new();
    for f in from.fields() {
        match rng.below(5) {
            0 if is_count(f.name()) => {
                let name = format!("{}_n", f.name());
                renamed.push((f.name().to_string(), name.clone()));
                fields.push(pbio::Field::new(name, f.ty().clone()));
            }
            0 => {}
            1 if is_count(f.name()) => {
                fields.push(pbio::Field::new(f.name(), numeric_type(rng, false)))
            }
            1 => fields.push(pbio::Field::new(f.name(), reader_type(f.ty(), rng))),
            _ => fields.push(f.clone()),
        }
    }
    for f in &mut fields {
        let recounted = match f.ty() {
            FieldType::Array { elem, len: pbio::ArrayLen::LengthField(n) } => {
                renamed.iter().find(|(from, _)| from == n).map(|(_, to)| FieldType::Array {
                    elem: elem.clone(),
                    len: pbio::ArrayLen::LengthField(to.clone()),
                })
            }
            _ => None,
        };
        if let Some(ty) = recounted {
            *f = pbio::Field::new(f.name(), ty);
        }
    }
    if rng.bool() {
        fields.push(pbio::Field::new("extra", numeric_type(rng, true)));
    }
    if rng.bool() {
        let mode = FieldType::Basic(BasicType::Int(Width::W2));
        fields.insert(0, pbio::Field::with_default("mode", mode, Value::Int(-7)));
    }
    if fields.is_empty() {
        fields.push(pbio::Field::new("extra", numeric_type(rng, true)));
    }
    Arc::new(RecordFormat::new(from.name(), fields).expect("reader formats are valid"))
}

/// `ConversionPlan::convert` — the compiled default-fill a morph runs when
/// its chain ends at a near match of the reader — computes what the
/// meta-data-driven `convert_record` computes, over generated pairs: nested
/// records, counted arrays whose count the reader keeps, retypes or renames,
/// signed/unsigned narrowing and widening, integers into floats, enums of the
/// same and of another name, wire fields the reader lacks and reader fields
/// the wire lacks, with a declared default and without.
#[test]
fn plan_convert_matches_convert_record() {
    for_cases("plan_convert_matches_convert_record", |rng| {
        let mut wire = build_format("R", &gen_fields(rng, 2)).fields().to_vec();
        wire.push(pbio::Field::new("color", enum_type("Color", &[0, 2])));
        let from = Arc::new(RecordFormat::new("R", wire).unwrap());
        let to = reader_format(&from, rng);
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        for _ in 0..4 {
            let v = value_for(&from, rng);
            let out = plan.convert(&v);
            assert_eq!(out, pbio::convert_record(&v, &from, &to), "{from}\n{to}");
            out.check(&to).unwrap();
        }
    });
}

/// Format meta-data serialization round-trips and preserves identity.
#[test]
fn format_metadata_roundtrip() {
    for_cases("format_metadata_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 2));
        let bytes = pbio::serialize_format(&fmt);
        let back = pbio::deserialize_format(&bytes).unwrap();
        assert_eq!(format_id(&back), format_id(&fmt));
        assert_eq!(back, *fmt);
    });
}

/// Algorithm 1 invariants: diff(f, f) = 0; diff is bounded by the format
/// weight; the Mismatch Ratio lies in [0, 1].
#[test]
fn diff_invariants() {
    for_cases("diff_invariants", |rng| {
        let a = build_format("R", &gen_fields(rng, 1));
        let b = build_format("R", &gen_fields(rng, 1));
        assert_eq!(diff(&a, &a), 0);
        assert_eq!(diff(&b, &b), 0);
        let weight = |f: &Arc<RecordFormat>| morph::type_weight(&FieldType::Record(f.clone()));
        assert!(diff(&a, &b) <= weight(&a));
        assert!(diff(&b, &a) <= weight(&b));
        let mr = mismatch_ratio(&a, &b);
        assert!((0.0..=1.0).contains(&mr), "Mr = {mr}");
        let q = MatchQuality::of(&a, &b);
        assert_eq!(q.diff_fwd, diff(&a, &b));
        assert_eq!(q.diff_bwd, diff(&b, &a));
        // Every field weighs at least 1, so zero sums mean no field missing.
        let nothing_missing = no_field_missing(&a, &b) && no_field_missing(&b, &a);
        let zero_sums = q.diff_fwd == 0 && q.diff_bwd == 0;
        assert_eq!((q.is_perfect(), zero_sums), (nothing_missing, nothing_missing));
    });
}

/// Whether every basic field of `f1`, however deeply nested, is present in
/// `f2` — Algorithm 1's presence rule as a yes/no, with no counting.
fn no_field_missing(f1: &RecordFormat, f2: &RecordFormat) -> bool {
    fn element(mut ty: &FieldType) -> &FieldType {
        while let FieldType::Array { elem, .. } = ty {
            ty = elem;
        }
        ty
    }
    f1.fields().iter().all(|f| match f2.field(f.name()) {
        Some(g) if f.ty().can_fill(g.ty()) => match (element(f.ty()), element(g.ty())) {
            (FieldType::Record(r1), FieldType::Record(r2)) => no_field_missing(r1, r2),
            _ => true,
        },
        _ => false,
    })
}

/// A perfect pair (diff = 0 both ways) is always found by MaxMatch when the
/// identical format is among the candidates.
#[test]
fn max_match_finds_identity() {
    for_cases("max_match_finds_identity", |rng| {
        let f = build_format("R", &gen_fields(rng, 1));
        let m =
            max_match(std::slice::from_ref(&f), std::slice::from_ref(&f), &MatchConfig::exact())
                .expect("identity must match");
        assert!(m.quality.is_perfect());
    });
}

/// Morphing delivery: for a format with strictly fewer fields on the reader
/// side, the plan-delivered value equals the runtime-converted value.
#[test]
fn near_match_delivery_is_convert_record() {
    for_cases("near_match_delivery_is_convert_record", |rng| {
        let fields = gen_fields(rng, 1);
        let from = build_format("R", &fields);
        // Project a pseudo-random subset of top-level fields.
        let keep = rng.next_u64();
        let kept: Vec<_> = fields
            .iter()
            .enumerate()
            .filter(|(i, _)| (keep >> (i % 64)) & 1 == 1)
            .map(|(_, f)| f.clone())
            .collect();
        if kept.is_empty() {
            return; // analogous to prop_assume!
        }
        let to = build_format("R", &kept);
        let v = value_for(&from, rng);
        let wire = pbio::Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let got = plan.execute(&wire).unwrap();
        assert_eq!(got, pbio::convert_record(&v, &from, &to));
    });
}

/// XML serialization round-trips typed records.
#[test]
fn xml_roundtrip() {
    for_cases("xml_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 1));
        let v = value_for(&fmt, rng);
        let xml = value_to_xml(&v, &fmt);
        let back = xml_to_value(&xml, &fmt).unwrap();
        // Floats survive because Rust's f64 Display is shortest-roundtrip.
        assert_eq!(back, v);
    });
}

/// XML text escaping round-trips strings full of markup metacharacters,
/// multi-byte UTF-8, and control-adjacent whitespace (only `\r` is excluded:
/// XML newline normalization is out of scope).
#[test]
fn xml_escaping_roundtrip() {
    const POOL: &[char] = &[
        '<', '>', '&', '"', '\'', ' ', '\n', '\t', 'a', 'Z', '0', ';', ']', '[', 'é', 'π', '→',
        '中', '🦀', '\\',
    ];
    for_cases("xml_escaping_roundtrip", |rng| {
        let n = rng.usize_below(24);
        let s: String = (0..n).map(|_| POOL[rng.usize_below(POOL.len())]).collect();
        let fmt = FormatBuilder::record("S").string("x").build_arc().unwrap();
        let v = Value::Record(vec![Value::Str(s)]);
        let xml = value_to_xml(&v, &fmt);
        let back = xml_to_value(&xml, &fmt).unwrap();
        assert_eq!(back, v);
    });
}

// -- Ecode differential testing -------------------------------------------------

/// A random arithmetic/logic expression over three int locals, guaranteed
/// division-safe.
fn gen_int_expr(rng: &mut XorShift64, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(2) {
            0 => format!("({})", rng.range_i64(-100, 99)),
            _ => ["a", "b", "c"][rng.usize_below(3)].to_string(),
        };
    }
    match rng.below(6) {
        0 | 1 => gen_int_expr(rng, 0),
        2 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["+", "-", "*"][rng.usize_below(3)];
            format!("({l} {op} {r})")
        }
        3 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            format!("({l} / (({r}) % 7 + 8))")
        }
        4 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["<", "<=", ">", ">=", "==", "!="][rng.usize_below(6)];
            format!("({l} {op} {r})")
        }
        _ => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["&&", "||"][rng.usize_below(2)];
            format!("({l} {op} {r})")
        }
    }
}

/// `src` reading `new` and writing `r`, both of a one-int format, with
/// roots to run it from.
fn int_program(src: &str) -> (EcodeProgram, [Value; 2]) {
    let fmt = FormatBuilder::record("R").long("x").build_arc().unwrap();
    let prog = EcodeCompiler::new().bind_input("new", &fmt).bind_output("r", &fmt).compile(src);
    let roots = [Value::default_record(&fmt), Value::default_record(&fmt)];
    (prog.unwrap_or_else(|e| panic!("{e}: {src}")), roots)
}

/// The register VM agrees with the reference interpreter (the semantic
/// oracle) on arbitrary expressions, their values stored in the output
/// root (wrap-around arithmetic included).
#[test]
fn vm_matches_interpreter() {
    for_cases("vm_matches_interpreter", |rng| {
        let e = gen_int_expr(rng, 4);
        let (a, b, c) =
            (rng.range_i64(-1000, 999), rng.range_i64(-1000, 999), rng.range_i64(-1000, 999));
        let src = format!("int a = {a}; int b = {b}; int c = {c}; r.x = {e};");
        let (prog, roots) = int_program(&src);
        assert_eq!(both_engines(&prog, &roots, &src).1, Ok(()), "src: {src}");
    });
}

/// Loops with data-dependent control flow agree across both engines.
#[test]
fn vm_matches_interpreter_loops() {
    for_cases("vm_matches_interpreter_loops", |rng| {
        let n = rng.range_i64(0, 49);
        let step = rng.range_i64(1, 4);
        let brk = rng.range_i64(0, 59);
        let src = format!(
            "int s = 0; int i;
             for (i = 0; i < {n} && i != {brk}; i += {step}) {{
                 if (i % 3 != 0) s += i;
             }}
             r.x = s;"
        );
        let (prog, roots) = int_program(&src);
        assert_eq!(both_engines(&prog, &roots, &src).1, Ok(()), "src: {src}");
    });
}

/// A compiled transformation applied via the VM equals the interpreter on
/// random inputs (the whole Fig. 5 shape, variable-size input).
#[test]
fn transformation_vm_matches_interp() {
    let member = FormatBuilder::record("M")
        .string("info")
        .int("ID")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .unwrap();
    let from = FormatBuilder::record("R")
        .int("member_count")
        .var_array_of("member_list", member.clone(), "member_count")
        .build_arc()
        .unwrap();
    let member_v1 = FormatBuilder::record("M").string("info").int("ID").build_arc().unwrap();
    let to = FormatBuilder::record("R")
        .int("member_count")
        .var_array_of("member_list", member_v1.clone(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member_v1, "src_count")
        .build_arc()
        .unwrap();
    let src = r#"
        int i; int sc = 0;
        old.member_count = new.member_count;
        for (i = 0; i < new.member_count; i++) {
            old.member_list[i].info = new.member_list[i].info;
            old.member_list[i].ID = new.member_list[i].ID;
            if (new.member_list[i].is_source) {
                old.src_list[sc].info = new.member_list[i].info;
                old.src_list[sc].ID = new.member_list[i].ID;
                sc++;
            }
        }
        old.src_count = sc;
    "#;
    let t = Transformation::new(from.clone(), to, src);
    let cx = t.compile().unwrap();
    for_cases("transformation_vm_matches_interp", |rng| {
        let n = rng.usize_below(8);
        let members: Vec<Value> = (0..n)
            .map(|i| {
                Value::Record(vec![
                    Value::str(format!("m{i}")),
                    Value::Int(i as i64),
                    Value::Int(i64::from(rng.bool())),
                    Value::Int(i64::from(rng.bool())),
                ])
            })
            .collect();
        let input = Value::Record(vec![Value::Int(n as i64), Value::Array(members)]);
        input.check(&from).unwrap();
        let mut by_vm = [input.clone(), Value::default_record(cx.to_format())];
        vm(cx.program(), &mut by_vm, 1_000_000).unwrap();
        assert_eq!(by_vm[1], cx.apply_interp(&input).unwrap());
    });
}

/// `fused` on the register VM as a receiver runs it: `input` encoded under
/// root 0's format, indexed with the identity plan and read in place, and
/// `outputs` written.
fn run_vm(
    fused: &ecode::FusedProgram,
    input: &Value,
    outputs: &mut [Value],
    fuel: u64,
) -> ecode::Result<()> {
    let format = &fused.bindings()[0].format;
    let wire = Encoder::new(format).encode(input).expect("the input fits its format");
    let plan = pbio::ConversionPlan::identity(format).unwrap();
    let mut tape = pbio::Tape::default();
    let view = plan.index(&wire, &mut tape).unwrap();
    fused.run_view(&view, &fused.routes(&plan), outputs, fuel, &mut ecode::VmScratch::default())
}

/// `prog` fused alone, on the register VM: `roots[0]` is its input, the
/// rest are written.
fn vm(prog: &EcodeProgram, roots: &mut [Value], fuel: u64) -> ecode::Result<()> {
    let fused = ecode::FusedProgram::compose(&[prog]).unwrap();
    let (input, outputs) = roots.split_first_mut().unwrap();
    run_vm(&fused, input, outputs, fuel)
}

/// What an engine left behind: the roots (or the output roots), and
/// success or the error's text.
type Outcome = (Vec<Value>, Result<(), String>);

/// The tree-walker (the oracle) and the register VM on one program and one
/// set of roots: they must leave the same roots — also after an error — and
/// report success or the same error text. The tree-walker's written roots
/// are length-synced after a run that returns, as the fused program's
/// trailer syncs them. Returns what they agreed on.
fn both_engines(prog: &EcodeProgram, roots: &[Value], src: &str) -> Outcome {
    const FUEL: u64 = 1_000_000;
    let mut by_interp = roots.to_vec();
    let interp = prog.run_interp_with_fuel(&mut by_interp, FUEL).map(drop);
    if interp.is_ok() {
        for (root, binding) in by_interp.iter_mut().zip(prog.bindings()).skip(1) {
            pbio::sync_length_fields(root, &binding.format);
        }
    }
    let interp = interp.map_err(|e| e.to_string());
    let mut by_register = roots.to_vec();
    let register = vm(prog, &mut by_register, FUEL);
    assert_eq!(interp, register.map_err(|e| e.to_string()), "register: {src}");
    assert_eq!(by_interp, by_register, "register VM roots, src: {src}");
    (by_interp, interp)
}

/// A generated row-shaped program: runs of adjacent copies into the fields
/// of one destination element — the shape lowering folds into `CopyPath`
/// rows — with its source text and a pair of roots.
struct RowCase {
    prog: EcodeProgram,
    src: String,
    roots: [Value; 2],
}

/// Rows that append, overwrite and leave gaps, whole and partial, in and
/// out of field order, with int→double conversions, with a source subscript
/// that runs out of bounds at some entry.
fn gen_row_case(rng: &mut XorShift64) -> RowCase {
    let src_elem =
        FormatBuilder::record("S").int("a").double("b").string("s").int("c").build_arc().unwrap();
    let from = FormatBuilder::record("From")
        .int("n")
        .var_array_of("src", src_elem, "n")
        .build_arc()
        .unwrap();
    // Destination field kinds and the source fields each may copy from.
    let kinds: [(&str, &[&str]); 3] =
        [("int", &["a", "c"]), ("double", &["a", "b", "c"]), ("string", &["s"])];
    let n_fields = 2 + rng.usize_below(3);
    let picked: Vec<usize> = (0..n_fields).map(|_| rng.usize_below(kinds.len())).collect();
    let mut elem = FormatBuilder::record("D");
    for (f, &k) in picked.iter().enumerate() {
        elem = match kinds[k].0 {
            "int" => elem.int(format!("f{f}")),
            "double" => elem.double(format!("f{f}")),
            _ => elem.string(format!("f{f}")),
        };
    }
    let to = FormatBuilder::record("To")
        .int("m")
        .var_array_of("items", elem.build_arc().unwrap(), "m")
        .build_arc()
        .unwrap();

    // The row: some or all of the fields, in or out of order, each from a
    // compatible source field at `src[i]` — or, for at most one entry, at a
    // constant subscript that may lie past the end.
    let mut leaves = rng.subset(n_fields, n_fields);
    if leaves.len() < 2 {
        leaves = (0..n_fields).collect();
    }
    if rng.below(3) == 0 {
        leaves.reverse();
    }
    let n = rng.usize_below(5);
    let stray = rng.below(3) == 0;
    let stray_at = rng.usize_below(leaves.len());
    let dst_idx = ["i", "k"][rng.usize_below(2)];
    let row: String = leaves
        .iter()
        .enumerate()
        .map(|(j, &f)| {
            let from_fields = kinds[picked[f]].1;
            let g = from_fields[rng.usize_below(from_fields.len())];
            let at = if stray && j == stray_at { rng.below(6).to_string() } else { "i".into() };
            format!("old.items[{dst_idx}].f{f} = new.src[{at}].{g}; ")
        })
        .collect();
    let (k0, step, extra) = (rng.below(4), 1 + rng.below(2), rng.below(2));
    let src = format!(
        "int i; int k = {k0}; \
         for (i = 0; i < new.n + {extra}; i++) {{ {row} k = k + {step}; }} old.m = k;"
    );
    let prog = EcodeCompiler::new()
        .bind_input("new", &from)
        .bind_output("old", &to)
        .compile(&src)
        .unwrap_or_else(|e| panic!("{e}: {src}"));

    let elems = |fmt: &RecordFormat, n: usize, rng: &mut XorShift64| {
        let FieldType::Array { elem, .. } = fmt.fields()[1].ty() else {
            panic!("field 1 of {} is not the array", fmt.name());
        };
        let items = (0..n).map(|_| value_for_type(elem, rng)).collect();
        Value::Record(vec![Value::Int(n as i64), Value::Array(items)])
    };
    let input = elems(&from, n, rng);
    let output = elems(&to, rng.usize_below(3), rng);
    RowCase { prog, src, roots: [input, output] }
}

/// Generated row-shaped programs agree on both engines — the register VM
/// reading the message in place as a receiver does — in roots and error
/// strings.
#[test]
fn row_shaped_programs_agree_on_both_engines() {
    let (mut folded, mut failed) = (0, 0);
    for_cases("row_shaped_programs_agree_on_both_engines", |rng| {
        let RowCase { prog, src, roots } = gen_row_case(rng);
        folded += prog
            .rcode()
            .insns
            .iter()
            .filter(|i| matches!(i, ecode::RInsn::CopyPath(r) if r.entries.len() > 1))
            .count();
        failed += u64::from(both_engines(&prog, &roots, &src).1.is_err());
    });
    assert!(folded >= CASES as usize, "the generator stopped producing rows: {folded}");
    assert!((8..CASES - 8).contains(&failed), "failing and passing runs both matter: {failed}");
}

/// Fig. 5 itself: on random memberships both engines agree with each
/// other and with the hand-written converter, and on the benchmark's
/// 400-member message the morphing receiver — first message and replays
/// alike: projected decode kernel + fused register program with rows —
/// delivers exactly what the hand-written converter builds from the same
/// bytes.
#[test]
fn fig5_morph_equals_the_hand_written_converter() {
    use echo::proto::{self, MemberInfo};
    let (v2, v1) = (proto::channel_open_response_v2(), proto::channel_open_response_v1());
    let prog = EcodeCompiler::new()
        .bind_input("new", &v2)
        .bind_output("old", &v1)
        .compile(proto::RESPONSE_V2_TO_V1)
        .unwrap();
    let rows = |p: &EcodeProgram| {
        p.rcode()
            .insns
            .iter()
            .filter(|i| matches!(i, ecode::RInsn::CopyPath(r) if r.entries.len() == 2 && r.whole))
            .count()
    };
    assert_eq!(rows(&prog), 3, "Fig. 5 lowers to three whole-element rows");
    let members = |rng: &mut XorShift64, n: usize| -> Vec<MemberInfo> {
        (0..n)
            .map(|i| MemberInfo {
                contact: format!("host-{}:{}", rng.below(10_000), 4_000 + i),
                id: i as i64,
                is_source: rng.bool(),
                is_sink: rng.bool(),
            })
            .collect()
    };
    for_cases("fig5_morph_equals_the_hand_written_converter", |rng| {
        let n = rng.usize_below(12);
        let value =
            proto::response_v2_value(ChannelId(rng.below(1 << 20) as u32), &members(rng, n));
        let wire = Encoder::new(&v2).encode(&value).unwrap();
        let roots = [value, Value::default_record(&v1)];
        let (after, result) = both_engines(&prog, &roots, "Fig. 5");
        assert_eq!(result, Ok(()));
        assert_eq!(after[1], hand_written_v2_wire_to_v1(&wire));
    });

    let mut rng = XorShift64::new(400);
    let value = proto::response_v2_value(ChannelId(7), &members(&mut rng, 400));
    let wire = Encoder::new(&v2).encode(&value).unwrap();
    let expect = hand_written_v2_wire_to_v1(&wire);
    let delivered: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&delivered);
    let mut rx = MorphReceiver::new();
    rx.register_handler(&v1, move |v| sink.lock().unwrap().push(v));
    rx.import_transformation(proto::response_retro_transformation());
    for _ in 0..3 {
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
    }
    let snap = rx.registry().snapshot();
    assert_eq!(snap.counter("morph.vm.register.apply"), Some(3), "one cold pass, two warm");
    let delivered = delivered.lock().unwrap();
    assert_eq!(delivered.len(), 3);
    for (pass, v) in delivered.iter().enumerate() {
        assert!(*v == expect, "pass {pass} differs from the hand-written converter");
    }
}

/// `fmt` as a later revision might declare it: some arrays moved to another
/// length discipline — a fixed count changed, or a variable array made fixed
/// (its count field stays, now an ordinary integer) — and some integers
/// widened, through nested and element records alike. `moved` reports
/// whether any array moved.
fn evolved(fmt: &RecordFormat, rng: &mut XorShift64, moved: &mut bool) -> Arc<RecordFormat> {
    let fields =
        fmt.fields().iter().map(|f| pbio::Field::new(f.name(), evolved_type(f.ty(), rng, moved)));
    Arc::new(RecordFormat::new(fmt.name(), fields.collect()).expect("still a valid format"))
}

fn evolved_type(ty: &FieldType, rng: &mut XorShift64, moved: &mut bool) -> FieldType {
    match ty {
        FieldType::Basic(BasicType::Int(_)) if rng.below(4) == 0 => {
            FieldType::Basic(BasicType::Int(Width::W8))
        }
        FieldType::Basic(b) => FieldType::Basic(b.clone()),
        FieldType::Record(r) => FieldType::Record(evolved(r, rng, moved)),
        FieldType::Array { elem, len } => {
            let len = match len {
                _ if rng.below(3) != 0 => len.clone(),
                pbio::ArrayLen::Fixed(n) => pbio::ArrayLen::Fixed(n + 1),
                pbio::ArrayLen::LengthField(_) => pbio::ArrayLen::Fixed(1 + rng.usize_below(3)),
            };
            *moved |= len != *len_of(ty);
            FieldType::Array { elem: Box::new(evolved_type(elem, rng, moved)), len }
        }
    }
}

fn len_of(ty: &FieldType) -> &pbio::ArrayLen {
    match ty {
        FieldType::Array { len, .. } => len,
        other => panic!("{other:?} is not an array"),
    }
}

/// MaxMatch and the conversion plan share one relation: no pair MaxMatch
/// calls perfect delivers a default where the sender filled an array (or
/// anything else) — a pair whose arrays changed length discipline is simply
/// not perfect, and `MatchConfig::exact()` rejects it.
#[test]
fn a_perfect_match_never_defaults_what_the_sender_filled() {
    let (mut perfect, mut rejected) = (0, 0);
    for_cases("a_perfect_match_never_defaults_what_the_sender_filled", |rng| {
        let from = build_format("R", &gen_fields(rng, 2));
        let mut moved = false;
        let to = evolved(&from, rng, &mut moved);
        let sent = value_for(&from, rng);
        let wire = pbio::Encoder::new(&from).encode(&sent).unwrap();

        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::with_config(MatchConfig::exact());
        rx.register_handler(&to, move |v| sink.lock().unwrap().push(v));
        rx.import_format(from.clone());
        let delivery = rx.process(&wire).unwrap();

        let is_perfect = MatchQuality::of(&from, &to).is_perfect();
        assert_eq!(is_perfect, !moved, "{from}\n-> {to}");
        if is_perfect {
            // Same names, mutually convertible types, same array shapes:
            // everything the sender filled arrives.
            assert!(matches!(delivery, Delivery::Delivered(_)));
            assert_eq!(got.lock().unwrap()[0], sent);
            perfect += 1;
        } else {
            assert_eq!(delivery, Delivery::Rejected);
            rejected += 1;
        }
    });
    assert!(perfect >= 8 && rejected >= 8, "{perfect} perfect, {rejected} rejected");
}

// -- the morph plan vs its oracle ------------------------------------------------

/// Field kinds the chain generator uses — each has an obvious Ecode
/// assignment form, so random chains always compile. `Arr` is a
/// fixed-stride long array (with its count field), copied by a loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChainKind {
    Long,
    Double,
    Str,
    Arr,
}

fn gen_chain_kind(rng: &mut XorShift64) -> ChainKind {
    match rng.below(4) {
        0 => ChainKind::Long,
        1 => ChainKind::Double,
        2 => ChainKind::Str,
        _ => ChainKind::Arr,
    }
}

fn chain_format(name: &str, fields: &[(String, ChainKind)]) -> Arc<RecordFormat> {
    let mut b = FormatBuilder::record(name);
    for (fname, kind) in fields {
        b = match kind {
            ChainKind::Long => b.long(fname.clone()),
            ChainKind::Double => b.double(fname.clone()),
            ChainKind::Str => b.string(fname.clone()),
            ChainKind::Arr => {
                let count = format!("{fname}_n");
                b.int(count.clone()).var_array_basic(fname, BasicType::Int(Width::W8), count)
            }
        };
    }
    b.build_arc().expect("generated chain formats are valid")
}

/// The copy statement for one retained field. Arrays copy element-wise;
/// about half the time the loop is the plain copy (its body one
/// `CopyPath`), otherwise the element is perturbed on the way (a load, an
/// add and a store) — both shapes must agree across engines.
fn chain_copy_stmt(rng: &mut XorShift64, fname: &str, kind: ChainKind) -> String {
    match kind {
        ChainKind::Arr => {
            let rhs =
                if rng.bool() { format!("new.{fname}[i]") } else { format!("new.{fname}[i] + 1") };
            format!(
                "old.{fname}_n = new.{fname}_n; \
                 for (i = 0; i < new.{fname}_n; i++) old.{fname}[i] = {rhs};"
            )
        }
        _ => format!("old.{fname} = new.{fname};"),
    }
}

/// A generated retro-transformation chain: `formats[0]` (the writer's) to
/// `formats[hops]`, one transformation per hop, and the field list of the
/// chain's end.
struct ChainCase {
    formats: Vec<Arc<RecordFormat>>,
    xforms: Vec<Transformation>,
    fields: Vec<(String, ChainKind)>,
    hops: usize,
}

/// A writer generation of 3–6 random fields and 1–3 steps back, each
/// keeping a nonempty subset, sometimes deriving a field from two longs,
/// sometimes declaring one no statement assigns.
fn gen_chain(rng: &mut XorShift64) -> ChainCase {
    // Every generation shares the record name — the matcher pairs formats
    // by name, the field lists are what evolve.
    let mut fields: Vec<(String, ChainKind)> =
        (0..3 + rng.usize_below(4)).map(|i| (format!("f{i}"), gen_chain_kind(rng))).collect();
    let mut generations = vec![fields.clone()];
    let mut formats = vec![chain_format("R", &fields)];
    let mut xforms: Vec<Transformation> = Vec::new();
    let hops = 1 + rng.usize_below(3);
    let mut fresh = 0;
    for k in 1..=hops {
        // Each newer→older step keeps a nonempty subset of the fields…
        let keep = rng.subset(fields.len(), fields.len());
        let mut next: Vec<(String, ChainKind)> = keep.iter().map(|&i| fields[i].clone()).collect();
        let mut stmts: Vec<String> =
            next.iter().map(|(f, k)| chain_copy_stmt(rng, f, *k)).collect();
        if next.iter().any(|(_, k)| *k == ChainKind::Arr) {
            stmts.insert(0, "int i;".to_string());
        }
        // …sometimes derives a field from two retained longs…
        let longs: Vec<String> =
            next.iter().filter(|(_, k)| *k == ChainKind::Long).map(|(f, _)| f.clone()).collect();
        if longs.len() >= 2 && rng.bool() {
            fresh += 1;
            let name = format!("sum{fresh}");
            stmts.push(format!("old.{name} = new.{} + new.{};", longs[0], longs[1]));
            next.push((name, ChainKind::Long));
        }
        // …and sometimes declares a field no statement assigns: it must
        // come out default-filled, as the oracle fills it.
        if rng.bool() {
            fresh += 1;
            next.push((format!("d{fresh}"), gen_chain_kind(rng)));
        }
        // Field lists must be unique across generations: a repeat would
        // collapse two generations into one format id (and a step into a
        // self-loop). A fresh name restores uniqueness.
        if generations.contains(&next) {
            fresh += 1;
            next.push((format!("d{fresh}"), gen_chain_kind(rng)));
        }
        let to = chain_format("R", &next);
        xforms.push(Transformation::new(
            Arc::clone(&formats[k - 1]),
            Arc::clone(&to),
            stmts.join("\n"),
        ));
        formats.push(to);
        generations.push(next.clone());
        fields = next;
    }
    ChainCase { formats, xforms, fields, hops }
}

/// The one morph plan (projected decode + one composed register program,
/// then the conversion plan to the reader where the chain's end is only a
/// near match of it) is Value-identical to the oracle — the full decode, the
/// tree-walker folded over the chain, then `convert_record` — on the first
/// message of a format and on the replay, over randomized formats and
/// randomized 1–3-step retro-transformation chains — including target fields
/// that no statement assigns (plan and oracle must default-fill identically),
/// fixed-stride arrays copied by loops, plain and perturbed, and readers
/// that lack a field of the chain's end or declare one it never had.
#[test]
fn fused_single_pass_matches_tree_walker_oracle() {
    let mut adapter_exercised = false;
    for_cases("fused_single_pass_matches_tree_walker_oracle", |rng| {
        let ChainCase { formats, xforms, fields, hops } = gen_chain(rng);

        // The reader: the chain's end, or — a third of the time each — the
        // end without its last field, or with a field of the reader's own.
        // MaxMatch picks the generation to stop at; `explain` says which.
        let mut wanted = fields.clone();
        match rng.below(3) {
            0 if wanted.len() > 1 => drop(wanted.pop()),
            1 => wanted.push(("own".to_string(), gen_chain_kind(rng))),
            _ => {}
        }
        let reader = chain_format("R", &wanted);
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, move |v| sink.lock().unwrap().push(v));
        for t in &xforms {
            rx.import_transformation(t.clone());
        }

        let v = value_for(&formats[0], rng);
        let wire = pbio::Encoder::new(&formats[0]).encode(&v).unwrap();
        // A reader no generation of the chain is admissible for — one that
        // adds a counted array to a one-field end: two of its three fields
        // would take defaults — is rejected, and nothing else is.
        let admissible = |f: &Arc<RecordFormat>| {
            MatchQuality::of(f, &reader).admissible(&morph::MatchConfig::new())
        };
        if !formats.iter().any(admissible) {
            assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
            return;
        }
        // Two messages: the first decides and runs the plan, the second
        // replays it from the decision cache.
        for _ in 0..2 {
            assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        }
        let values = got.lock().unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values[0], values[1], "first message vs replay");
        let (steps, adapted) = match rx.explain(format_id(&formats[0])) {
            Some(Explanation::Morph { chain_len, adapted, .. }) => (chain_len, adapted),
            Some(Explanation::NearMatch { .. }) => (0, true),
            Some(Explanation::Exact { .. }) => (0, false),
            other => panic!("the reader's format was not delivered to it: {other:?}"),
        };
        if wanted == fields {
            assert_eq!((steps, adapted), (hops, false), "the reader is the chain's end");
        }
        let end =
            xforms[..steps].iter().fold(v, |v, t| t.compile().unwrap().apply_interp(&v).unwrap());
        let oracle =
            if adapted { pbio::convert_record(&end, &formats[steps], &reader) } else { end };
        assert_eq!(values[0], oracle, "the plan vs the tree-walker over the chain");
        for value in values.iter() {
            value.check(&reader).unwrap();
        }
        let snap = rx.registry().snapshot();
        // One VM pass per delivery, the first included.
        assert_eq!(snap.counter("morph.vm.register.apply"), Some(if steps > 0 { 2 } else { 0 }));
        // A morph compiles its projected decode and, when adapted, takes the
        // default-fill plan from the plan cache: one compile each.
        if steps > 0 {
            assert_eq!(snap.counter("pbio.plan.miss"), Some(1 + u64::from(adapted)));
        }
        adapter_exercised |= adapted && steps > 0;
    });
    assert!(adapter_exercised, "no generated case ran an adapter behind a chain");
}

/// The error a run stopped by its budget reports, on both engines.
const OUT_OF_FUEL: &str = "runtime error: instruction budget exhausted";

/// The tree-walker over the chain `steps` from `input`, step after step —
/// step *k* from `outputs[k]`, reading step *k − 1*'s output as it finished
/// and was length-synced. Returns the unbudgeted run's outputs and result,
/// and every state of the outputs a budget can stop it in: each step under
/// every budget that stops it (its own output as the budget left it, the
/// earlier ones final, the later ones as they started), and each step's
/// output as it finished, before and after the sync.
fn walked(steps: &[&EcodeProgram], input: &Value, outputs: &[Value]) -> (Outcome, Vec<Vec<Value>>) {
    let mut outs = outputs.to_vec();
    let mut states = vec![outs.clone()];
    let mut v = input.clone();
    for (k, p) in steps.iter().enumerate() {
        let run = |fuel| {
            let mut roots = [v.clone(), outputs[k].clone()];
            let result = p.run_interp_with_fuel(&mut roots, fuel).map(drop);
            let [_, out] = roots;
            (out, result.map_err(|e| e.to_string()))
        };
        let mut fuel = 0;
        let result = loop {
            let (out, result) = run(fuel);
            outs[k] = out;
            states.push(outs.clone());
            if result.as_ref().map_err(String::as_str) != Err(OUT_OF_FUEL) {
                break result;
            }
            fuel += 1;
        };
        if result.is_err() {
            states.dedup();
            return ((outs, result), states);
        }
        pbio::sync_length_fields(&mut outs[k], &p.bindings()[1].format);
        states.push(outs.clone());
        v = outs[k].clone();
    }
    states.dedup();
    ((outs, Ok(())), states)
}

/// The chain `steps` fused and run on the register VM from `outputs`, over
/// `input`'s wire message read in place through the plan its reads project
/// to — as a receiver reads it — against the tree-walker ([`walked`]). The
/// unbudgeted runs must leave the same outputs and report the same result or
/// error text; under every budget below 96 and then every ninth up to
/// `top`, the VM must either finish as unbudgeted or run out of fuel,
/// leaving outputs the tree-walker stops in under some budget of its own.
/// Returns what the unbudgeted runs agreed on and how many budgets stopped
/// the VM short.
fn in_place_agrees_with_the_tree_walker(
    steps: &[&EcodeProgram],
    input: &Value,
    outputs: &[Value],
    top: u64,
    what: &str,
) -> (Outcome, usize) {
    let from = &steps[0].bindings()[0].format;
    let fused = ecode::FusedProgram::compose(steps).unwrap();
    let used = ecode::root_used_fields(fused.rcode(), 0, from.fields().len());
    let plan = pbio::ConversionPlan::project(from, &used).unwrap();
    let routes = fused.routes(&plan);
    let wire = Encoder::new(from).encode(input).unwrap();
    let mut tape = pbio::Tape::default();
    let view = plan.index(&wire, &mut tape).unwrap();
    let scratch = &mut ecode::VmScratch::default();
    let mut run = |fuel| {
        let mut outs = outputs.to_vec();
        let result = fused.run_view(&view, &routes, &mut outs, fuel, scratch);
        (outs, result.map_err(|e| e.to_string()))
    };
    let (full, states) = walked(steps, input, outputs);
    assert_eq!(run(1_000_000), full, "{what}: the VM vs the tree-walker");
    let mut stopped = 0;
    for fuel in (0..96).chain((96..top).step_by(9)) {
        let (outs, result) = run(fuel);
        if (&outs, &result) == (&full.0, &full.1) {
            continue;
        }
        assert_eq!(
            result.as_ref().map_err(String::as_str),
            Err(OUT_OF_FUEL),
            "{what}, fuel {fuel}"
        );
        assert!(states.contains(&outs), "{what}, fuel {fuel}: no tree-walker state is {outs:?}");
        stopped += 1;
    }
    (full, stopped)
}

/// The register VM reading the message in place — the one way it runs —
/// agrees with the tree-walker: unbudgeted, in final roots and error
/// strings; and under a sweep of budgets, each run either finishes as the
/// unbudgeted one does or runs out, in a partial state the tree-walker also
/// stops in under some budget. On the generated row programs (copies that
/// run out of bounds part-way included), on generated 1–3-step fused chains
/// (array copy loops included), and on programs that read a whole record and
/// a whole array, of variable-size and of fixed-size elements.
#[test]
fn vm_reading_in_place_matches_the_tree_walker_under_every_budget() {
    let mut stopped = 0;
    for_cases("vm_reading_in_place: rows", |rng| {
        let RowCase { prog, src, roots } = gen_row_case(rng);
        stopped +=
            in_place_agrees_with_the_tree_walker(&[&prog], &roots[0], &roots[1..], 300, &src).1;
    });
    for_cases("vm_reading_in_place: chains", |rng| {
        let ChainCase { formats, xforms, .. } = gen_chain(rng);
        let v = value_for(&formats[0], rng);
        let compiled = morph::CompiledChain::compile(&xforms).unwrap();
        let steps: Vec<&EcodeProgram> = compiled.steps().iter().map(|s| s.program()).collect();
        let outputs: Vec<Value> = formats[1..].iter().map(|f| Value::default_record(f)).collect();
        let (full, n) = in_place_agrees_with_the_tree_walker(&steps, &v, &outputs, 600, "chain");
        stopped += n;
        let end = xforms.iter().fold(v, |v, t| t.compile().unwrap().apply_interp(&v).unwrap());
        assert_eq!((full.1, full.0.last()), (Ok(()), Some(&end)), "the tree-walker's chain");
    });

    // Whole reads: a record and an array of variable-size elements, a
    // record and an array of fixed-size ones.
    let m = FormatBuilder::record("M").string("info").int("id").build_arc().unwrap();
    let pt = FormatBuilder::record("P").int("x").double("y").build_arc().unwrap();
    let from = FormatBuilder::record("In")
        .int("n")
        .var_array_of("list", Arc::clone(&m), "n")
        .string("tag")
        .int("k")
        .var_array_of("pts", Arc::clone(&pt), "k")
        .build_arc()
        .unwrap();
    let to = FormatBuilder::record("Out")
        .nested("first", Arc::clone(&m))
        .int("n")
        .var_array_of("list", m, "n")
        .nested("corner", Arc::clone(&pt))
        .int("k")
        .var_array_of("pts", pt, "k")
        .build_arc()
        .unwrap();
    let src = "old.first = new.list[1]; old.n = new.n; old.list = new.list; \
               old.k = new.k; old.pts = new.pts; old.corner = new.pts[0];";
    let prog = EcodeCompiler::new().bind_input("new", &from).bind_output("old", &to).compile(src);
    let prog = prog.unwrap();
    let mut failed = 0;
    for_cases("vm_reading_in_place: whole reads", |rng| {
        let input = value_for(&from, rng);
        let outputs = [Value::default_record(&to)];
        let (full, n) = in_place_agrees_with_the_tree_walker(&[&prog], &input, &outputs, 40, src);
        stopped += n;
        failed += u64::from(full.1.is_err());
    });
    assert!(stopped > 1_000, "the sweeps never stopped a run: {stopped}");
    assert!((4..CASES - 4).contains(&failed), "whole reads past the end both ways: {failed}");
}

/// Transformation meta-data round-trips for arbitrary generated format
/// pairs (source text is fixed; formats vary).
#[test]
fn transformation_metadata_roundtrips() {
    for_cases("transformation_metadata_roundtrips", |rng| {
        use morph::Transformation;
        let from = build_format("A", &gen_fields(rng, 1));
        let to = build_format("B", &gen_fields(rng, 1));
        let t = Transformation::new(from, to, "/* no-op */");
        let back = Transformation::deserialize(&t.serialize()).unwrap();
        assert_eq!(back.from_id(), t.from_id());
        assert_eq!(back.to_id(), t.to_id());
        assert_eq!(back.source(), t.source());
    });
}

/// How many values `v` holds, itself included.
fn value_nodes(v: &Value) -> u64 {
    match v {
        Value::Record(vs) | Value::Array(vs) => 1 + vs.iter().map(value_nodes).sum::<u64>(),
        _ => 1,
    }
}

/// The meta-data mutation loop: format descriptions of the generated format
/// universe (plus one with an enum) and serialized transformations over
/// pairs of them, each damaged every way a count or a tag can be — every
/// truncation, byte flips, every offset overwritten with a hostile `u32` and
/// `u64`, floods of type tags and of nested array levels — through
/// [`pbio::deserialize_format`] and [`Transformation::deserialize`]. Each
/// call returns, promptly; what is accepted is canonical (it serializes back
/// to the bytes it came from, so to the same format id), and the default
/// record of an accepted description stays under the cap `pbio::meta`
/// documents. The seed is `META_FUZZ_SEED` (decimal) when set.
///
/// Every seed damages descriptions totalling the same number of bytes
/// (formats are drawn until they reach it), so the loop also asserts its
/// *coverage* under every seed — that it reached past the parsers' early
/// exits often enough: over 100 accepted and over 10,000 rejected
/// descriptions (22 seeds read 2,650–3,739 and 27,899–35,900).
#[test]
fn metadata_mutations_return_and_accepted_descriptions_stay_bounded() {
    const DEFAULT_SEED: u64 = 0x5EED_0020;
    const DESCRIBED_BYTES: usize = 2_048;
    let seed = std::env::var("META_FUZZ_SEED")
        .ok()
        .map(|s| s.trim().parse::<u64>().expect("META_FUZZ_SEED is a decimal u64"))
        .unwrap_or(DEFAULT_SEED);
    println!("META_FUZZ_SEED={seed}");
    let mut rng = XorShift64::new(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);

    let mut check_description = |bytes: &[u8], what: &str| {
        let started = std::time::Instant::now();
        let parsed = pbio::deserialize_format(bytes);
        assert!(started.elapsed().as_secs() < 2, "{what}: took {:?}", started.elapsed());
        let Ok(format) = parsed else {
            rejected += 1;
            return;
        };
        accepted += 1;
        assert_eq!(pbio::serialize_format(&format), bytes, "{what}: accepted, not canonical");
        let nodes = value_nodes(&Value::default_record(&format));
        assert!(nodes <= (1 << 20) + 1, "{what}: a default record of {nodes} values");
        assert!(started.elapsed().as_secs() < 2, "{what}: took {:?}", started.elapsed());
    };
    let mut check_transformation = |bytes: &[u8], what: &str| {
        let started = std::time::Instant::now();
        let parsed = Transformation::deserialize(bytes);
        assert!(started.elapsed().as_secs() < 2, "{what}: took {:?}", started.elapsed());
        if let Ok(t) = parsed {
            assert_eq!(t.serialize(), bytes, "{what}: accepted, not canonical");
        }
    };

    let colour = BasicType::Enum {
        name: "Colour".into(),
        variants: ["red", "green", "blue"]
            .iter()
            .zip([0, -7, 1 << 20])
            .map(|(name, discriminant)| pbio::EnumVariant { name: name.to_string(), discriminant })
            .collect(),
    };
    let mut formats =
        vec![FormatBuilder::record("E").field("c", FieldType::Basic(colour)).build_arc().unwrap()];
    // Formats are drawn until their descriptions total a fixed number of
    // bytes, so every seed damages about as many bytes as any other.
    let mut described = pbio::serialize_format(&formats[0]).len();
    while described < DESCRIBED_BYTES {
        let format = build_format("R", &gen_fields(&mut rng, 2));
        described += pbio::serialize_format(&format).len();
        formats.push(format);
    }
    for (round, format) in formats.iter().enumerate() {
        let to = &formats[rng.usize_below(formats.len())];
        let xform = Transformation::new(format.clone(), to.clone(), "/* no-op */").serialize();
        type Check<'c> = &'c mut dyn FnMut(&[u8], &str);
        let inputs: [(&str, Vec<u8>, Check<'_>); 2] = [
            ("description", pbio::serialize_format(format), &mut check_description),
            ("transformation", xform, &mut check_transformation),
        ];
        for (kind, intact, check) in inputs {
            let what = |m: &str| format!("{kind} {round}, {m}");
            check(&intact, &what("intact"));
            for cut in 0..intact.len() {
                check(&intact[..cut], &what(&format!("cut at {cut}")));
            }
            for at in 0..intact.len() {
                for mask in [0xff, 0x01, 0x80, 1 + rng.below(255) as u8] {
                    let mut bad = intact.clone();
                    bad[at] ^= mask;
                    check(&bad, &what(&format!("byte {at} ^ {mask:#04x}")));
                }
                // A count or a length may sit at any offset, four bytes wide
                // or eight.
                for hostile in [0u64, 0x7FFF_FFFF, 0xFFFF_FFFF, 1 << 40, u64::MAX] {
                    for width in [4, 8] {
                        if at + width > intact.len() {
                            continue;
                        }
                        let mut bad = intact.clone();
                        bad[at..at + width].copy_from_slice(&hostile.to_le_bytes()[..width]);
                        check(&bad, &what(&format!("{width} bytes at {at} = {hostile:#x}")));
                    }
                }
            }
            // Floods: a run of one type tag, and array levels nested in
            // array levels, spliced in at a drawn offset.
            for tag in 0..=10u8 {
                for n in [8, 1 << 10, 1 << 16] {
                    let at = rng.usize_below(intact.len() + 1);
                    let mut bad = intact.clone();
                    bad.splice(at..at, std::iter::repeat_n(tag, n));
                    check(&bad, &what(&format!("{n} x tag {tag} at {at}")));
                    let level: Vec<u8> =
                        std::iter::once(tag).chain(rng.below(4).to_le_bytes()).collect();
                    let mut bad = intact.clone();
                    bad.splice(at..at, level.repeat(n));
                    check(&bad, &what(&format!("{n} levels of tag {tag} at {at}")));
                }
            }
        }
    }
    println!("{accepted} descriptions accepted, {rejected} rejected");
    assert!(accepted > 100 && rejected > 10_000, "{accepted} accepted, {rejected} rejected");
}

/// Fragmentation round trip: splitting a payload at any budget, then
/// offering the fragments in any order — shuffled, with duplicates mixed
/// in — reassembles the exact original bytes. Sizes are drawn to straddle
/// the budget (smaller, equal, one over, many times over), including the
/// exactly-one-fragment and zero-length edges.
#[test]
fn fragment_split_reassemble_is_identity() {
    use echo::frag::{split_message, Offer, ReassemblyBuffer};

    for_cases("fragment_split_reassemble_is_identity", |rng| {
        let budget = 1 + rng.usize_below(64);
        let size = match rng.below(6) {
            0 => 0,                                                           // empty message
            1 => budget,                         // exactly one fragment
            2 => budget + 1,                     // minimally over
            3 => rng.usize_below(budget.max(1)), // under budget
            _ => budget * (2 + rng.usize_below(9)) + rng.usize_below(budget), // well over
        };
        let payload: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let payload = pbio::WireBytes::from(payload);
        let frags = split_message(&payload, budget).expect("within u16 fragment numbering");
        assert_eq!(frags.len(), if size == 0 { 1 } else { size.div_ceil(budget) });
        let total: usize = frags.iter().map(|f| f.bytes.len()).sum();
        assert_eq!(total, size, "fragments cover the payload exactly");

        // Arrival order: a shuffle of all fragments, with some duplicated.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.usize_below(i + 1));
        }
        let dupes = rng.usize_below(3);
        for _ in 0..dupes {
            order.push(rng.usize_below(frags.len()));
        }

        let mut buf = ReassemblyBuffer::new(4, u64::MAX);
        let mut completions = 0usize;
        let mut duplicate_parts = 0usize;
        for &i in &order {
            let f = frags[i].clone();
            let frame = f.bytes.clone(); // stand-in for the full frame
            match buf.offer(7, 42, f, frame, None, 0) {
                (Offer::Complete(bytes), evicted) => {
                    assert!(evicted.is_empty(), "one set never evicts");
                    assert_eq!(&*bytes, &*payload, "reassembly is byte-identical");
                    completions += 1;
                }
                (Offer::Buffered, evicted) => assert!(evicted.is_empty()),
                (Offer::DuplicatePart, _) => duplicate_parts += 1,
                (Offer::Mismatch, _) => panic!("self-consistent fragments never mismatch"),
            }
        }
        // Duplicates the buffer sees *before* a set completes are flagged;
        // ones arriving *after* re-open the set and may even re-complete
        // it (on the real path the node's (sender, seq, index) dedup
        // screens them out first) — however they land, every completion
        // above was byte-identical and nothing finished partial.
        assert!(completions >= 1, "all fragments offered, so the set completed");
        assert!(completions + duplicate_parts <= frags.len() + dupes);
        assert!(buf.len() <= 1, "at most a duplicate-reopened set remains");
    });
}

// -- journal replay properties --------------------------------------------------

/// Brute-force reconstruction of what a replay of `prefix` must produce,
/// computed with deliberately different algorithms than the journal's
/// incremental fold: unacked membership by full-log rescans (a `Sent`
/// survives iff no *later* `Acked` carries its key, and the latest `Sent`
/// bytes win), watermarks and the floor by filter-and-max.
fn brute_force_replay(prefix: &[echo::JournalEntry]) -> echo::Recovered {
    use echo::JournalEntry as E;
    let mut rec = echo::Recovered::default();
    for (i, e) in prefix.iter().enumerate() {
        if let E::Sent { to, channel, seq, frag_index, frame } = e {
            let key = (*to, *channel, *seq, *frag_index);
            let acked_later = prefix[i + 1..].iter().any(|later| {
                matches!(later, E::Acked { to: t, channel: c, seq: s, frag_index: f }
                    if (*t, *c, *s, *f) == key)
            });
            if acked_later {
                rec.unacked.remove(&key);
            } else {
                rec.unacked.insert(key, frame.clone());
            }
        }
        match e {
            E::Seen { sender, seq, frag_index } => rec.seen.push((*sender, *seq, *frag_index, 1)),
            E::SeenFragment { sender, seq, frag_index, frag_count } => {
                rec.seen.push((*sender, *seq, *frag_index, *frag_count));
            }
            _ => {}
        }
    }
    for e in prefix {
        if let E::Watermark { channel, sender, seq: _ } = e {
            let best = prefix
                .iter()
                .filter_map(|x| match x {
                    E::Watermark { channel: c, sender: s, seq: q }
                        if (c, s) == (channel, sender) =>
                    {
                        Some(*q)
                    }
                    _ => None,
                })
                .max()
                .unwrap();
            rec.watermarks.insert((*channel, *sender), best);
        }
    }
    rec.seq_floor = prefix
        .iter()
        .filter_map(|e| match e {
            E::SeqFloor { next_seq } => Some(*next_seq),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    rec
}

/// A random journal entry over a small key space, so `Sent`/`Acked`/
/// `Watermark` keys collide often (collisions are where replay can go
/// wrong: overwrites, ack-resurrection, watermark regressions).
fn gen_journal_entry(rng: &mut XorShift64) -> echo::JournalEntry {
    use echo::JournalEntry as E;
    let to = rng.below(3);
    let channel = echo::ChannelId(rng.below(2) as u32 + 1);
    let seq = rng.below(8);
    let frag_index = rng.below(2) as u16;
    match rng.below(6) {
        0 => E::Sent {
            to,
            channel,
            seq,
            frag_index,
            frame: pbio::WireBytes::from(vec![rng.next_u64() as u8, seq as u8]),
        },
        1 => E::Acked { to, channel, seq, frag_index },
        2 => E::Seen { sender: to, seq, frag_index },
        3 => E::Watermark { channel, sender: to, seq },
        4 => E::SeenFragment { sender: to, seq, frag_index, frag_count: 2 },
        _ => E::SeqFloor { next_seq: rng.below(64) },
    }
}

/// Replay equals brute force at every crash cut-point: under arbitrary
/// interleavings of appends, explicit syncs, and crashes (each tearing the
/// unsynced tail off both the journal and a mirrored model log), the
/// journal's replay always equals the brute-force reconstruction of its
/// synced prefix, and its self-accounting (`appended`/`synced`/`lost`)
/// matches the model's tallies exactly.
#[test]
fn journal_replay_matches_brute_force_across_crash_cuts() {
    for_cases("journal_replay_matches_brute_force_across_crash_cuts", |rng| {
        let batch = 1 + rng.usize_below(8);
        let mut journal = echo::Journal::new(batch);
        // The model mirrors only the *spec*: entries land in a log, forced
        // or batch-filling appends move the synced fence, a crash truncates
        // to it. Everything downstream (replay content) is derived from
        // scratch by `brute_force_replay`.
        let mut log: Vec<echo::JournalEntry> = Vec::new();
        let mut synced = 0usize;
        let mut lost_total = 0u64;
        let mut appended_total = 0u64;
        let mut at = 0u64;

        for _ in 0..40 {
            match rng.below(10) {
                // Crash: both sides tear off the unsynced tail.
                0 => {
                    let want_lost = log.len() - synced;
                    assert_eq!(journal.crash(), want_lost, "crash must report the torn-off tail");
                    log.truncate(synced);
                    lost_total += want_lost as u64;
                }
                // Explicit sync: the whole log becomes durable.
                1 => {
                    journal.sync();
                    synced = log.len();
                }
                _ => {
                    let entry = gen_journal_entry(rng);
                    at += rng.below(1_000);
                    journal.append(at, entry.clone());
                    appended_total += 1;
                    log.push(entry.clone());
                    let forced = !matches!(
                        entry,
                        echo::JournalEntry::Acked { .. } | echo::JournalEntry::Watermark { .. }
                    );
                    if forced || log.len() - synced >= batch {
                        synced = log.len();
                    }
                }
            }
            // The invariant holds at *every* step, not just at the end:
            // what a crash right now would leave behind replays to exactly
            // the brute-force reconstruction of the synced prefix.
            assert_eq!(journal.synced_len(), synced, "synced fence diverged from the model");
            assert_eq!(journal.len(), log.len());
            assert_eq!(journal.replay(), brute_force_replay(&log[..synced]));
        }

        let stats = journal.stats();
        assert_eq!(stats.appended, appended_total);
        assert_eq!(stats.lost, lost_total);
        // Every entry is appended once and thereafter either synced or
        // lost — never both, never neither — except the tail still in
        // flight at the end.
        let in_flight = (log.len() - synced) as u64;
        assert_eq!(stats.synced + lost_total + in_flight, appended_total);
    });
}
