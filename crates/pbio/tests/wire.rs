//! Wire-level integration tests: exotic format shapes end-to-end through
//! encode → header → decode → plan conversion.

use std::sync::Arc;

use pbio::{
    decode_payload, deserialize_format, format_id, serialize_format, BasicType, ByteOrder,
    ConversionPlan, Encoder, EnumVariant, FieldType, FormatBuilder, FormatRegistry, GenericDecoder,
    PathStep, PbioError, RecordFormat, Route, Tape, Value, Width, HEADER_LEN,
};

fn color_enum() -> BasicType {
    BasicType::Enum {
        name: "Color".into(),
        variants: vec![
            EnumVariant { name: "Red".into(), discriminant: 0 },
            EnumVariant { name: "Green".into(), discriminant: 1 },
            EnumVariant { name: "Blue".into(), discriminant: 7 },
        ],
    }
}

#[test]
fn fixed_arrays_roundtrip() {
    let fmt = FormatBuilder::record("Matrix")
        .fixed_array("row", FieldType::Basic(BasicType::Float(Width::W8)), 3)
        .fixed_array("tag", FieldType::Basic(BasicType::Char), 4)
        .build_arc()
        .unwrap();
    let v = Value::Record(vec![
        Value::Array(vec![Value::Float(1.0), Value::Float(2.5), Value::Float(-3.0)]),
        Value::Array(vec![
            Value::Char(b'a'),
            Value::Char(b'b'),
            Value::Char(b'c'),
            Value::Char(b'd'),
        ]),
    ]);
    let wire = Encoder::new(&fmt).encode(&v).unwrap();
    // 3 doubles + 4 chars, no count on the wire (compile-time fixed).
    assert_eq!(wire.len() - HEADER_LEN, 3 * 8 + 4);
    assert_eq!(decode_payload(&fmt, &wire).unwrap(), v);

    // Wrong element count rejected at encode time.
    let bad = Value::Record(vec![
        Value::Array(vec![Value::Float(1.0)]),
        Value::Array(vec![Value::Char(0); 4]),
    ]);
    assert!(matches!(Encoder::new(&fmt).encode(&bad), Err(PbioError::LengthMismatch { .. })));
}

#[test]
fn enums_roundtrip_and_reject_unknown_discriminants() {
    let fmt = FormatBuilder::record("Pixel")
        .field("color", FieldType::Basic(color_enum()))
        .build_arc()
        .unwrap();
    let v = Value::Record(vec![Value::Enum(7)]);
    let wire = Encoder::new(&fmt).encode(&v).unwrap();
    assert_eq!(decode_payload(&fmt, &wire).unwrap(), v);
    assert!(matches!(
        Encoder::new(&fmt).encode(&Value::Record(vec![Value::Enum(3)])),
        Err(PbioError::BadData(_))
    ));
}

#[test]
fn nested_variable_arrays_roundtrip() {
    // Members each carry their own variable-length tag list: nested count
    // fields at the inner record level.
    let member = FormatBuilder::record("Member")
        .string("name")
        .int("tag_count")
        .var_array_basic("tags", BasicType::String, "tag_count")
        .build_arc()
        .unwrap();
    let fmt = FormatBuilder::record("Group")
        .int("n")
        .var_array_of("members", member, "n")
        .build_arc()
        .unwrap();
    let v = Value::Record(vec![
        Value::Int(2),
        Value::Array(vec![
            Value::Record(vec![
                Value::str("alice"),
                Value::Int(3),
                Value::Array(vec![Value::str("a"), Value::str("bb"), Value::str("ccc")]),
            ]),
            Value::Record(vec![Value::str("bob"), Value::Int(0), Value::Array(vec![])]),
        ]),
    ]);
    v.check(&fmt).unwrap();
    for order in [ByteOrder::Little, ByteOrder::Big] {
        let wire = Encoder::with_order(&fmt, order).encode(&v).unwrap();
        assert_eq!(decode_payload(&fmt, &wire).unwrap(), v, "{order:?}");
        // And through a specialized plan.
        let plan = ConversionPlan::identity(&fmt).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), v, "{order:?}");
    }
}

#[test]
fn deeply_nested_records_roundtrip() {
    let mut inner: Arc<RecordFormat> = FormatBuilder::record("L0").int("x").build_arc().unwrap();
    let mut value = Value::Record(vec![Value::Int(42)]);
    for depth in 1..=6 {
        inner = FormatBuilder::record(format!("L{depth}"))
            .int("tag")
            .nested("inner", inner)
            .build_arc()
            .unwrap();
        value = Value::Record(vec![Value::Int(depth), value]);
    }
    let wire = Encoder::new(&inner).encode(&value).unwrap();
    assert_eq!(decode_payload(&inner, &wire).unwrap(), value);
    let plan = ConversionPlan::identity(&inner).unwrap();
    assert_eq!(plan.execute(&wire).unwrap(), value);
}

#[test]
fn plan_converts_enum_fields_between_formats() {
    let from = FormatBuilder::record("R")
        .field("color", FieldType::Basic(color_enum()))
        .int("extra")
        .build_arc()
        .unwrap();
    let to = FormatBuilder::record("R")
        .field("color", FieldType::Basic(color_enum()))
        .build_arc()
        .unwrap();
    let wire =
        Encoder::new(&from).encode(&Value::Record(vec![Value::Enum(1), Value::Int(9)])).unwrap();
    let plan = ConversionPlan::compile(&from, &to).unwrap();
    assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Enum(1)]));
    let gen = GenericDecoder::new(from, to);
    assert_eq!(gen.decode(&wire).unwrap(), Value::Record(vec![Value::Enum(1)]));
}

#[test]
fn enums_with_different_names_do_not_convert() {
    let other_enum = BasicType::Enum {
        name: "Shade".into(),
        variants: vec![EnumVariant { name: "Dark".into(), discriminant: 0 }],
    };
    let from = FormatBuilder::record("R")
        .field("color", FieldType::Basic(color_enum()))
        .build_arc()
        .unwrap();
    let to = FormatBuilder::record("R")
        .field("color", FieldType::Basic(other_enum))
        .build_arc()
        .unwrap();
    let wire = Encoder::new(&from).encode(&Value::Record(vec![Value::Enum(0)])).unwrap();
    let plan = ConversionPlan::compile(&from, &to).unwrap();
    // Unmatched (name differs): target takes the default first variant.
    assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Enum(0)]));
    assert_ne!(format_id(&from), format_id(&to));
}

/// 400 formats registered on one side reach the other one description at
/// a time, through the format server's wire form, and resolve by the same
/// ids there.
#[test]
fn a_registry_of_400_formats_round_trips_through_serialize_format() {
    let mut reg = FormatRegistry::new();
    let mut shipped = Vec::new();
    for t in 0..8 {
        for i in 0..50 {
            let fmt = FormatBuilder::record(format!("T{t}_{i}"))
                .int("a")
                .string("b")
                .build_arc()
                .unwrap();
            let id = reg.register(Arc::clone(&fmt));
            shipped.push((id, serialize_format(&fmt)));
        }
    }
    let mut other = FormatRegistry::new();
    for (id, meta) in &shipped {
        assert_eq!(other.register(Arc::new(deserialize_format(meta).unwrap())), *id);
    }
    for (id, meta) in &shipped {
        assert_eq!(serialize_format(&other.lookup(*id).unwrap()), *meta);
        assert_eq!(other.lookup(*id).unwrap().name(), reg.lookup(*id).unwrap().name());
    }
}

#[test]
fn empty_variable_arrays_and_strings() {
    let member = FormatBuilder::record("M").string("s").build_arc().unwrap();
    let fmt = FormatBuilder::record("R")
        .int("n")
        .var_array_of("xs", member, "n")
        .string("note")
        .build_arc()
        .unwrap();
    let v = Value::Record(vec![Value::Int(0), Value::Array(vec![]), Value::Str(String::new())]);
    let wire = Encoder::new(&fmt).encode(&v).unwrap();
    // count(4) + empty array(0) + empty string(1 NUL)
    assert_eq!(wire.len() - HEADER_LEN, 5);
    assert_eq!(decode_payload(&fmt, &wire).unwrap(), v);
}

#[test]
fn interior_nul_strings_rejected() {
    let fmt = FormatBuilder::record("R").string("s").build_arc().unwrap();
    let v = Value::Record(vec![Value::Str("a\0b".into())]);
    assert!(matches!(Encoder::new(&fmt).encode(&v), Err(PbioError::BadData(_))));
}

#[test]
fn unicode_strings_roundtrip() {
    let fmt = FormatBuilder::record("R").string("s").build_arc().unwrap();
    let v = Value::Record(vec![Value::str("héllo wörld ☃ — ユニコード")]);
    let wire = Encoder::new(&fmt).encode(&v).unwrap();
    assert_eq!(decode_payload(&fmt, &wire).unwrap(), v);
}

#[test]
fn all_integer_widths_roundtrip_extremes() {
    let fmt = FormatBuilder::record("R")
        .field("i1", FieldType::Basic(BasicType::Int(Width::W1)))
        .field("i2", FieldType::Basic(BasicType::Int(Width::W2)))
        .field("i4", FieldType::Basic(BasicType::Int(Width::W4)))
        .field("i8", FieldType::Basic(BasicType::Int(Width::W8)))
        .field("u1", FieldType::Basic(BasicType::UInt(Width::W1)))
        .field("u8", FieldType::Basic(BasicType::UInt(Width::W8)))
        .build_arc()
        .unwrap();
    let v = Value::Record(vec![
        Value::Int(-128),
        Value::Int(32767),
        Value::Int(i64::from(i32::MIN)),
        Value::Int(i64::MAX),
        Value::UInt(255),
        Value::UInt(u64::MAX),
    ]);
    for order in [ByteOrder::Little, ByteOrder::Big] {
        let wire = Encoder::with_order(&fmt, order).encode(&v).unwrap();
        assert_eq!(decode_payload(&fmt, &wire).unwrap(), v, "{order:?}");
    }
}

#[test]
fn format_id_distinguishes_width_and_kind() {
    let a = FormatBuilder::record("R")
        .field("x", FieldType::Basic(BasicType::Int(Width::W4)))
        .build()
        .unwrap();
    let b = FormatBuilder::record("R")
        .field("x", FieldType::Basic(BasicType::Int(Width::W8)))
        .build()
        .unwrap();
    let c = FormatBuilder::record("R")
        .field("x", FieldType::Basic(BasicType::UInt(Width::W4)))
        .build()
        .unwrap();
    assert_ne!(format_id(&a), format_id(&b));
    assert_ne!(format_id(&a), format_id(&c));
    assert_ne!(format_id(&b), format_id(&c));
}

// -- mutation loop over hostile payloads ------------------------------------------

/// xorshift64* — the same tiny generator `tests/proptests.rs` uses.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The paper's v2.0 `ChannelOpenResponse` (Fig. 4b), declared locally.
fn response_v2() -> Arc<RecordFormat> {
    let member = FormatBuilder::record("Member")
        .string("info")
        .int("ID")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .unwrap();
    FormatBuilder::record("ChannelOpenResponse")
        .int("channel")
        .int("member_count")
        .var_array_of("member_list", member, "member_count")
        .build_arc()
        .unwrap()
}

/// One plan under test beside its oracle: the generic identity decode with
/// the plan's dead top-level fields defaulted.
struct Checked {
    format: Arc<RecordFormat>,
    plan: ConversionPlan,
    used: Vec<bool>,
    oracle: GenericDecoder,
    /// The message whole, each top-level field and each member field,
    /// compiled against the plan.
    whole: Route,
    fields: Vec<Route>,
    members: Vec<Route>,
}

impl Checked {
    fn new(format: &Arc<RecordFormat>, used: &[bool]) -> Checked {
        let plan = ConversionPlan::project(format, used).unwrap();
        let member = |f| plan.route(&[PathStep::Field(2), PathStep::Index, PathStep::Field(f)]);
        Checked {
            format: Arc::clone(format),
            whole: plan.route(&[]),
            fields: (0..3).map(|i| plan.route(&[PathStep::Field(i)])).collect(),
            members: (0..4).map(member).collect(),
            plan,
            used: used.to_vec(),
            oracle: GenericDecoder::new(Arc::clone(format), Arc::clone(format)),
        }
    }

    /// Indexes `wire` for reading in place and holds the view to `execute`:
    /// it fails exactly when `execute` does, with the same error, and
    /// otherwise reads what `execute` decodes — whole, field by field (the
    /// count field equal to the member list's length where the list is
    /// kept), every member's every field and the member just past the end.
    fn check_view(&self, wire: &[u8], what: &str) {
        let mut tape = Tape::default();
        let (decoded, view) = (self.plan.execute(wire), self.plan.index(wire, &mut tape));
        let (decoded, view) = match (decoded, view) {
            (Ok(decoded), Ok(view)) => (decoded, view),
            (Err(want), Err(got)) => return assert_eq!(got, want, "{what} (used {:?})", self.used),
            (want, got) => panic!("{what} (used {:?}): index {got:?}, execute {want:?}", self.used),
        };
        assert_eq!(view.get(&self.whole, &[]).as_ref(), Ok(&decoded), "{what}: whole");
        let fields = decoded.as_record().unwrap();
        for (route, field) in self.fields.iter().zip(fields) {
            assert_eq!(view.get(route, &[]).as_ref(), Ok(field), "{what}: a top-level field");
        }
        let list = fields[2].as_array().unwrap();
        if self.used[2] {
            assert_eq!(fields[1], Value::Int(list.len() as i64), "{what}: length");
        }
        for (k, member) in list.iter().enumerate() {
            for (route, field) in self.members.iter().zip(member.as_record().unwrap()) {
                assert_eq!(view.get(route, &[k]).as_ref(), Ok(field), "{what}: member {k}");
            }
        }
        let past = view.get(&self.members[0], &[list.len()]);
        assert_eq!(past, Err(pbio::Miss::OutOfBounds { index: list.len(), len: list.len() }));
    }

    /// Runs both decoders on `wire` and holds the plan to the oracle: same
    /// verdict, same value, prompt. The one licensed difference: a plan
    /// never looks inside a string it steps over, so bytes that are not
    /// UTF-8 in a *dead* field fail the oracle only.
    fn check(&self, wire: &[u8], what: &str) {
        self.check_view(wire, what);
        let started = std::time::Instant::now();
        let got = self.plan.execute(wire);
        let took = started.elapsed();
        assert!(took.as_secs() < 2, "{what}: plan took {took:?} (used {:?})", self.used);
        match (got, self.oracle.decode(wire)) {
            (Ok(v), Ok(mut expect)) => {
                let slots = expect.as_record_mut().unwrap();
                for (i, fd) in self.format.fields().iter().enumerate() {
                    if !self.used[i] {
                        slots[i] = Value::default_for(fd.ty());
                    }
                }
                assert_eq!(v, expect, "{what} (used {:?})", self.used);
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(PbioError::BadData(msg))) if msg.contains("UTF-8") && !self.used[2] => {}
            (got, expect) => {
                panic!("{what} (used {:?}): plan {got:?}, oracle {expect:?}", self.used)
            }
        }
    }
}

/// Every truncation, every single-byte flip, hostile `member_count`s and a
/// fixed budget of random multi-byte damage to an 8-member v2.0 response, in
/// both byte orders, through [`ConversionPlan::execute`] — identity and
/// projected: no panic, no hang, and verdict and value agree with
/// [`GenericDecoder`]; and through [`ConversionPlan::index`]: it fails
/// exactly when `execute` does, with the same error, and the view reads
/// what `execute` decodes. The seed is `PBIO_FUZZ_SEED` (decimal) when set.
#[test]
fn decode_mutations_agree_with_generic_decoder() {
    let seed = std::env::var("PBIO_FUZZ_SEED")
        .ok()
        .map(|s| s.trim().parse::<u64>().expect("PBIO_FUZZ_SEED is a decimal u64"))
        .unwrap_or(0x5EED_0014);
    println!("PBIO_FUZZ_SEED={seed}");
    let mut rng = XorShift64::new(seed);
    let format = response_v2();
    let members: Vec<Value> = (0..8)
        .map(|i| {
            let info: String =
                (0..rng.below(14)).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
            Value::Record(vec![
                Value::str(info),
                Value::Int(i),
                Value::Int((rng.next() & 1) as i64),
                Value::Int((rng.next() & 1) as i64),
            ])
        })
        .collect();
    let value = Value::Record(vec![Value::Int(7), Value::Int(8), Value::Array(members)]);
    let plans = [
        Checked::new(&format, &[true, true, true]),
        Checked::new(&format, &[false, true, true]),
        Checked::new(&format, &[true, true, false]),
        Checked::new(&format, &[true, false, false]),
    ];
    // The member list kept without its count: `execute` syncs the count to
    // the list's length, which the oracle does not model, so this plan is
    // held to `execute` only.
    let synced = Checked::new(&format, &[true, false, true]);
    let check = |wire: &[u8], what: &str| {
        plans.iter().for_each(|p| p.check(wire, what));
        synced.check_view(wire, what);
    };
    let with_len = |mut wire: Vec<u8>| {
        let len = (wire.len() - HEADER_LEN) as u32;
        wire[12..16].copy_from_slice(&len.to_le_bytes());
        wire
    };

    for order in [ByteOrder::Little, ByteOrder::Big] {
        let wire = Encoder::with_order(&format, order).encode(&value).unwrap();
        check(&wire, "intact");

        // Truncations: the raw cut (the header notices), and the cut with
        // the header's length made to agree (the decoders must).
        for cut in 0..wire.len() {
            check(&wire[..cut], &format!("{order:?} cut at {cut}"));
            if cut >= HEADER_LEN {
                check(&with_len(wire[..cut].to_vec()), &format!("{order:?} short payload {cut}"));
            }
        }
        // Single-byte flips: all bits, one bit, and a drawn mask.
        for at in 0..wire.len() {
            for mask in [0xff, 0x01, 0x80, 1 + rng.below(255) as u8] {
                let mut bad = wire.clone();
                bad[at] ^= mask;
                check(&bad, &format!("{order:?} byte {at} ^ {mask:#04x}"));
            }
        }
        // Hostile counts, payload bytes 4..8.
        for count in [-1, i32::MIN, i32::MAX, 0, 7, 9, 1 << 16] {
            let mut bad = wire.clone();
            let bytes = match order {
                ByteOrder::Little => count.to_le_bytes(),
                ByteOrder::Big => count.to_be_bytes(),
            };
            bad[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&bytes);
            check(&bad, &format!("{order:?} member_count = {count}"));
        }
        // Random damage: a few bytes overwritten, sometimes with a tail
        // cut or grown, the header's length kept honest half the time.
        for round in 0..2_000 {
            let mut bad = wire.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bad.len());
                bad[at] = rng.next() as u8;
            }
            match rng.below(4) {
                0 => bad.truncate(HEADER_LEN + rng.below(bad.len() - HEADER_LEN)),
                1 => bad.extend((0..rng.below(9)).map(|_| rng.next() as u8)),
                _ => {}
            }
            if rng.next() & 1 == 0 && bad.len() >= HEADER_LEN {
                bad = with_len(bad);
            }
            check(&bad, &format!("{order:?} round {round}"));
        }
    }
}
