//! Adversarial-input robustness: whatever bytes arrive off the wire, the
//! decoding stack must return an error — never panic, never hang, never
//! read out of bounds. A deployed morphing receiver faces exactly this
//! (§3.1's failure scenario is *why* morphing exists; crashing on the
//! mismatch would be worse than rejecting it).
//!
//! Inputs come from the same dependency-free xorshift64* scheme as
//! `proptests.rs`: fixed seeds, so every run fuzzes the same corpus.

use message_morphing::prelude::*;
use morph::{MetaClient, MetaServer, MorphError, Transformation};
use pbio::RecordFormat;
use std::sync::Arc;

const CASES: u64 = 256;

struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
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

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// Random printable-ish unicode text, biased toward XML/Ecode
    /// metacharacters so parsers see structure, not just noise.
    fn text(&mut self, max_len: usize) -> String {
        const SPICE: &[char] =
            &['<', '>', '&', '"', '\'', '/', '{', '}', '(', ')', ';', '=', '%', '\n', 'é', '中'];
        let n = self.below(max_len as u64 + 1) as usize;
        (0..n)
            .map(|_| {
                if self.below(4) == 0 {
                    SPICE[self.below(SPICE.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + self.below(0x5F) as u32).unwrap()
                }
            })
            .collect()
    }
}

fn for_cases(property: &str, mut body: impl FnMut(&mut XorShift64)) {
    for case in 0..CASES {
        let seed = 0xBAD_F00D ^ (case << 32) ^ case;
        let mut rng = XorShift64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("property `{property}` failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn response_v2() -> Arc<RecordFormat> {
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
        .build_arc()
        .unwrap()
}

fn response_v1() -> Arc<RecordFormat> {
    let member = FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap();
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member.clone(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member, "src_count")
        .build_arc()
        .unwrap()
}

fn sample_wire() -> Vec<u8> {
    let fmt = response_v2();
    let v = Value::Record(vec![
        Value::Int(2),
        Value::Array(vec![
            Value::Record(vec![Value::str("a:1"), Value::Int(1), Value::Int(1), Value::Int(0)]),
            Value::Record(vec![Value::str("b:2"), Value::Int(2), Value::Int(0), Value::Int(1)]),
        ]),
    ]);
    Encoder::new(&fmt).encode(&v).unwrap()
}

/// Random garbage never panics the raw decoder or a conversion plan.
#[test]
fn random_bytes_never_panic() {
    for_cases("random_bytes_never_panic", |rng| {
        let n = rng.below(256) as usize;
        let bytes = rng.bytes(n);
        let fmt = response_v2();
        let _ = pbio::decode_payload(&fmt, &bytes);
        let plan = ConversionPlan::identity(&fmt).unwrap();
        let _ = plan.execute(&bytes);
        let _ = pbio::parse_header(&bytes);
        let _ = pbio::deserialize_format(&bytes);
        let _ = Transformation::deserialize(&bytes);
    });
}

/// Single-byte corruptions of a valid message never panic anything in
/// the receive path (they may decode to a different valid value, or
/// fail cleanly).
#[test]
fn corrupted_wire_never_panics() {
    for_cases("corrupted_wire_never_panics", |rng| {
        let mut wire = sample_wire();
        let idx = rng.below(wire.len() as u64) as usize;
        wire[idx] = rng.next_u64() as u8;
        let fmt = response_v2();
        let _ = pbio::decode_payload(&fmt, &wire);
        let _ = ConversionPlan::identity(&fmt).unwrap().execute(&wire);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&response_v1(), |_v| {});
        rx.import_transformation(Transformation::new(
            response_v2(),
            response_v1(),
            r#"
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
            "#,
        ));
        let _ = rx.process(&wire);
    });
}

/// Truncations at every length never panic.
#[test]
fn truncated_wire_never_panics() {
    let wire = sample_wire();
    let fmt = response_v2();
    for cut in 0..=wire.len() {
        let _ = pbio::decode_payload(&fmt, &wire[..cut]);
        let _ = ConversionPlan::identity(&fmt).unwrap().execute(&wire[..cut]);
    }
}

/// A lying length field (count much larger than the actual payload)
/// fails with an error instead of over-allocating or panicking.
#[test]
fn hostile_length_fields_rejected() {
    for_cases("hostile_length_fields_rejected", |rng| {
        let count = 3 + rng.below(i32::MAX as u64 - 3) as i64;
        let fmt = response_v2();
        let mut wire = sample_wire();
        // Patch the member_count field (first 4 payload bytes) to a lie.
        let c = (count as i32).to_le_bytes();
        wire[pbio::HEADER_LEN..pbio::HEADER_LEN + 4].copy_from_slice(&c);
        assert!(pbio::decode_payload(&fmt, &wire).is_err());
        assert!(ConversionPlan::identity(&fmt).unwrap().execute(&wire).is_err());
    });
}

/// Random bytes thrown at the format server return errors, never panic —
/// it faces the network directly, so every malformed request must come
/// back as a clean protocol (or decoding) error.
#[test]
fn metaserver_random_bytes_never_panic() {
    for_cases("metaserver_random_bytes_never_panic", |rng| {
        let mut server = MetaServer::new();
        server.register_format(response_v2());
        let n = rng.below(128) as usize;
        let bytes = rng.bytes(n);
        let _ = server.handle(&bytes);
        // An empty or unknown-opcode request is a protocol violation
        // specifically (not a panic, not a decode error).
        assert!(matches!(server.handle(&[]), Err(MorphError::Protocol(_))));
        let mut alien = bytes.clone();
        alien.insert(0, 0x7F); // no request starts with 0x7F
        assert!(matches!(server.handle(&alien), Err(MorphError::Protocol(_))));
        // The client's response parsers face the same wire.
        let _ = MetaClient::parse_format(&bytes);
        let _ = MetaClient::parse_transformations(&bytes);
    });
}

/// Truncations and corruptions of *valid* meta-protocol requests fail
/// cleanly: the server either answers or errors, and never panics.
#[test]
fn metaserver_mutated_requests_never_panic() {
    let valid: Vec<Vec<u8>> = vec![
        MetaClient::register_format(&response_v2()),
        MetaClient::register_transformation(&Transformation::new(
            response_v2(),
            response_v1(),
            "old.member_count = new.member_count;",
        )),
        MetaClient::want_format(pbio::format_id(&response_v2())),
        MetaClient::want_transformations(pbio::format_id(&response_v2())),
    ];
    for_cases("metaserver_mutated_requests_never_panic", |rng| {
        let mut server = MetaServer::new();
        let base = &valid[rng.below(valid.len() as u64) as usize];
        // Truncate to a random prefix, then flip one byte of what's left.
        let cut = rng.below(base.len() as u64 + 1) as usize;
        let mut req = base[..cut].to_vec();
        if !req.is_empty() {
            let idx = rng.below(req.len() as u64) as usize;
            req[idx] ^= (rng.below(255) + 1) as u8;
        }
        let _ = server.handle(&req);
    });
}

/// The description of `Load { int vals[3] }`, cut where a test patches it:
/// everything up to the array's type, the array level itself (tag + `u64`
/// length), and the element type.
fn fixed_array_description() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let int = pbio::FieldType::Basic(pbio::BasicType::Int(pbio::Width::W4));
    let format = FormatBuilder::record("Load").fixed_array("vals", int, 3).build().unwrap();
    let bytes = pbio::serialize_format(&format);
    let len_at = bytes.windows(8).position(|w| w == 3u64.to_le_bytes()).expect("the length");
    let (head, rest) = bytes.split_at(len_at - 1);
    let (level, elem) = rest.split_at(9);
    (head.to_vec(), level.to_vec(), elem.to_vec())
}

/// `Load { int vals[len]…[len] }`, `levels` arrays deep.
fn nested_fixed_arrays(levels: usize, len: u64) -> Vec<u8> {
    let (head, mut level, elem) = fixed_array_description();
    level[1..].copy_from_slice(&len.to_le_bytes());
    [head, level.repeat(levels), elem].concat()
}

/// Three format descriptions that used to end the process — a reservation
/// for a count no input could back (`rust_oom`), a megabyte of nested array
/// tags (stack overflow), and a fixed length of 2^40 (the first default
/// record of it never finishes) — are errors, promptly, at every door
/// meta-data comes in by; and the bounds sit where they are documented.
#[test]
fn hostile_format_descriptions_are_errors_at_every_entry_point() {
    use morph::metaserver::{REQ_REGISTER_FORMAT, RESP_FORMAT, RESP_XFORMS};
    let started = std::time::Instant::now();
    let good = nested_fixed_arrays(1, 3);
    let hostile = [
        // "A", then 2^32 - 1 fields.
        [&[1, 0, 0, 0, b'A'][..], &[0xFF; 4]].concat(),
        nested_fixed_arrays(200_000, 1),
        nested_fixed_arrays(1, 1 << 40),
        // One past each bound: 32 levels of types, 2^20 default values.
        nested_fixed_arrays(32, 1),
        nested_fixed_arrays(2, 1 << 10),
        nested_fixed_arrays(1, (1 << 20) + 1),
    ];
    let framed = |tag: Option<u8>, count: Option<u32>, chunks: &[&[u8]]| {
        let mut out: Vec<u8> = tag.into_iter().collect();
        out.extend(count.into_iter().flat_map(u32::to_le_bytes));
        chunks.iter().for_each(|c| pbio::put_chunk(&mut out, c));
        out
    };
    for bad in &hostile {
        let what = format!("{} bytes, {:02x?}…", bad.len(), &bad[..bad.len().min(24)]);
        let err = pbio::deserialize_format(bad).expect_err(&what);
        assert!(
            matches!(err, pbio::PbioError::UnexpectedEof | pbio::PbioError::BadFormat(_)),
            "{what}: {err}"
        );
        assert!(FormatRegistry::new().import(&framed(None, Some(1), &[bad])).is_err(), "{what}");
        assert!(MetaClient::parse_format(&framed(Some(RESP_FORMAT), None, &[bad])).is_err());
        assert!(MetaServer::new()
            .handle(&framed(Some(REQ_REGISTER_FORMAT), None, &[bad]))
            .is_err());
        for (from, to) in [(bad, &good), (&good, bad)] {
            let meta = framed(None, None, &[from, to, b"/* no code */"]);
            assert!(Transformation::deserialize(&meta).is_err(), "{what}");
            let resp = framed(Some(RESP_XFORMS), Some(1), &[&meta]);
            assert!(MetaClient::parse_transformations(&resp).is_err(), "{what}");
        }
    }
    // A count of transformations no response could back.
    assert!(
        MetaClient::parse_transformations(&framed(Some(RESP_XFORMS), Some(u32::MAX), &[])).is_err()
    );
    assert!(FormatRegistry::new().import(&u32::MAX.to_le_bytes()).is_err());

    // Inside the bounds: 31 levels of arrays, and just under 2^20 values.
    for ok in [nested_fixed_arrays(31, 1), nested_fixed_arrays(2, 1023)] {
        let format = pbio::deserialize_format(&ok).unwrap();
        assert_eq!(pbio::serialize_format(&format), ok);
        Value::default_record(&format).check(&format).unwrap();
    }
    assert!(started.elapsed().as_secs() < 20, "took {:?}", started.elapsed());

    // A receiver resolving through a server that answers with one of them
    // counts a failed resolution and stays usable.
    let mut rx = MorphReceiver::new();
    rx.register_handler(&response_v1(), |_| {});
    let resolved = morph::resolve_into_with_retry(
        &mut rx,
        pbio::format_id(&response_v2()),
        &morph::RetryPolicy::default(),
        |_| Ok(framed(Some(RESP_FORMAT), None, &[&hostile[2]])),
        |_| {},
    );
    assert!(matches!(resolved, Err(MorphError::Pbio(pbio::PbioError::BadFormat(_)))));
    assert_eq!(rx.registry().snapshot().counter("morph.resolve.failures"), Some(1));
    assert!(matches!(rx.process(&sample_wire()), Err(MorphError::UnknownWireFormat(_))));
}

/// A description of 100,000 fields — 1.2 MB, a meta-server reply's worth —
/// is admitted in time linear in its fields: the duplicate-name and
/// length-field checks look names up instead of scanning every earlier
/// field (which took 21 s in a release build at this size).
#[test]
fn a_description_of_100k_fields_is_admitted_in_linear_time() {
    let int = pbio::BasicType::Int(pbio::Width::W4);
    let wide = (0..100_000)
        .fold(FormatBuilder::record("Wide").int("count"), |b, i| b.int(format!("f{i}")));
    let format = wide.var_array_basic("tail", int, "count").build().unwrap();
    let bytes = pbio::serialize_format(&format);
    let started = std::time::Instant::now();
    let back = pbio::deserialize_format(&bytes).unwrap();
    let took = started.elapsed();
    assert_eq!(back, format);
    // A debug build admits it in well under a second; the pairwise scan
    // needed minutes there.
    assert!(took.as_secs() < 10, "{} bytes took {took:?}", bytes.len());
}

/// Random text never panics the XML parser or stylesheet parser.
#[test]
fn random_text_never_panics_xml() {
    for_cases("random_text_never_panics_xml", |rng| {
        let s = rng.text(64);
        let _ = xmlt::parse(&s);
        let _ = xmlt::Stylesheet::parse(&s);
        let _ = xmlt::parse_expr(&s);
        let _ = xmlt::parse_path(&s);
    });
}

/// Random text never panics the Ecode front end.
#[test]
fn random_text_never_panics_ecode() {
    for_cases("random_text_never_panics_ecode", |rng| {
        let s = rng.text(64);
        let fmt = response_v2();
        let _ = EcodeCompiler::new().bind_input("new", &fmt).compile(&s);
    });
}

/// Almost-valid Ecode (mutations of Fig. 5) never panics the compiler.
#[test]
fn mutated_fig5_never_panics() {
    for_cases("mutated_fig5_never_panics", |rng| {
        let src = r#"
            int i; int sc = 0;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                if (new.member_list[i].is_source) { sc++; }
            }
            old.src_count = sc;
        "#;
        let mut mutated = src.as_bytes().to_vec();
        let idx = rng.below(mutated.len() as u64) as usize;
        mutated[idx] = 32 + rng.below(95) as u8;
        if let Ok(text) = String::from_utf8(mutated) {
            let _ = EcodeCompiler::new()
                .bind_input("new", &response_v2())
                .bind_output("old", &response_v1())
                .compile(&text);
        }
    });
}
