//! Integration: multi-revision retro-transformation chains (the paper's
//! Fig. 1 — Schema Rev 2.0 → Rev 1.0 → Rev 0.0), exercised across readers
//! of every generation and through out-of-band meta-data exchange.

use std::sync::{Arc, Mutex};

use message_morphing::prelude::*;
use morph::{Delivery, Transformation, TransformationRegistry};
use pbio::RecordFormat;

/// Rev 0.0: the original telemetry record.
fn rev0() -> Arc<RecordFormat> {
    FormatBuilder::record("Telemetry").int("temp").int("pressure").build_arc().unwrap()
}

/// Rev 1.0: split temperature into sensor readings, added a timestamp.
fn rev1() -> Arc<RecordFormat> {
    FormatBuilder::record("Telemetry")
        .int("temp_core")
        .int("temp_ambient")
        .int("pressure")
        .long("timestamp")
        .build_arc()
        .unwrap()
}

/// Rev 2.0: readings as a variable list, calibrated pressure.
fn rev2() -> Arc<RecordFormat> {
    let reading =
        FormatBuilder::record("Reading").string("sensor").int("celsius").build_arc().unwrap();
    FormatBuilder::record("Telemetry")
        .int("reading_count")
        .var_array_of("readings", reading, "reading_count")
        .int("pressure_raw")
        .int("pressure_offset")
        .long("timestamp")
        .build_arc()
        .unwrap()
}

fn xform_2_to_1() -> Transformation {
    Transformation::new(
        rev2(),
        rev1(),
        r#"
            int i;
            old.temp_core = 0;
            old.temp_ambient = 0;
            for (i = 0; i < new.reading_count; i++) {
                if (new.readings[i].sensor == "core") {
                    old.temp_core = new.readings[i].celsius;
                }
                if (new.readings[i].sensor == "ambient") {
                    old.temp_ambient = new.readings[i].celsius;
                }
            }
            old.pressure = new.pressure_raw + new.pressure_offset;
            old.timestamp = new.timestamp;
        "#,
    )
}

fn xform_1_to_0() -> Transformation {
    Transformation::new(
        rev1(),
        rev0(),
        r#"
            old.temp = (new.temp_core + new.temp_ambient) / 2;
            old.pressure = new.pressure;
        "#,
    )
}

fn rev2_message() -> Vec<u8> {
    let v = Value::Record(vec![
        Value::Int(2),
        Value::Array(vec![
            Value::Record(vec![Value::str("core"), Value::Int(80)]),
            Value::Record(vec![Value::str("ambient"), Value::Int(20)]),
        ]),
        Value::Int(95),
        Value::Int(5),
        Value::Int(1_700_000_000),
    ]);
    Encoder::new(&rev2()).encode(&v).unwrap()
}

fn receiver_for(reader: &Arc<RecordFormat>) -> (Arc<Mutex<Vec<Value>>>, MorphReceiver) {
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut rx = MorphReceiver::new();
    rx.register_handler(reader, move |v| sink.lock().unwrap().push(v));
    rx.import_transformation(xform_2_to_1());
    rx.import_transformation(xform_1_to_0());
    (got, rx)
}

#[test]
fn rev2_reaches_rev1_reader_through_one_hop() {
    let (got, mut rx) = receiver_for(&rev1());
    assert!(matches!(rx.process(&rev2_message()).unwrap(), Delivery::Delivered(_)));
    let v = &got.lock().unwrap()[0];
    assert_eq!(v.field(&rev1(), "temp_core"), Some(&Value::Int(80)));
    assert_eq!(v.field(&rev1(), "temp_ambient"), Some(&Value::Int(20)));
    assert_eq!(v.field(&rev1(), "pressure"), Some(&Value::Int(100)));
    assert_eq!(rx.stats().compiles, 1);
}

#[test]
fn rev2_reaches_rev0_reader_through_two_hops() {
    let (got, mut rx) = receiver_for(&rev0());
    assert!(matches!(rx.process(&rev2_message()).unwrap(), Delivery::Delivered(_)));
    {
        // Scope the guard: the handler locks this mutex on every process().
        let got = got.lock().unwrap();
        let v = &got[0];
        // (80 + 20) / 2 = 50; 95 + 5 = 100.
        assert_eq!(v.field(&rev0(), "temp"), Some(&Value::Int(50)));
        assert_eq!(v.field(&rev0(), "pressure"), Some(&Value::Int(100)));
    }
    assert_eq!(rx.stats().compiles, 2, "both chain steps compiled once");
    // Steady state replays the cached chain.
    for _ in 0..10 {
        rx.process(&rev2_message()).unwrap();
    }
    assert_eq!(rx.stats().compiles, 2);
    assert_eq!(got.lock().unwrap().len(), 11);
}

#[test]
fn every_reader_generation_accepts_every_writer_generation() {
    // Writers of each revision; readers of each revision. Every pairing
    // where a chain (or identity) exists must deliver.
    let writers: Vec<(Arc<RecordFormat>, Value)> = vec![
        (rev0(), Value::Record(vec![Value::Int(42), Value::Int(100)])),
        (
            rev1(),
            Value::Record(vec![
                Value::Int(80),
                Value::Int(20),
                Value::Int(100),
                Value::Int(1_700_000_000),
            ]),
        ),
        (
            rev2(),
            Value::Record(vec![
                Value::Int(1),
                Value::Array(vec![Value::Record(vec![Value::str("core"), Value::Int(70)])]),
                Value::Int(90),
                Value::Int(10),
                Value::Int(1_700_000_000),
            ]),
        ),
    ];
    for (ri, reader) in [rev0(), rev1(), rev2()].iter().enumerate() {
        for (wi, (writer, value)) in writers.iter().enumerate() {
            let (got, mut rx) = receiver_for(reader);
            let wire = Encoder::new(writer).encode(value).unwrap();
            let d = rx.process(&wire).unwrap();
            if wi >= ri {
                // Same generation or newer writer: identity or retro-chain.
                assert!(
                    matches!(d, Delivery::Delivered(_)),
                    "writer rev{wi} must reach reader rev{ri}, got {d:?}"
                );
                assert_eq!(got.lock().unwrap().len(), 1, "rev{wi}->rev{ri}");
            } else {
                // Older writer to newer reader: only rev0→rev1 is
                // inadmissible under default thresholds (rev1 is mostly
                // unsourced); the others may near-match. Whatever happens
                // must not error — reaching here (no panic from process)
                // is the assertion.
                let _ = d;
            }
        }
    }
}

#[test]
fn chains_survive_serialization() {
    // Ship each transformation out of band, byte-for-byte, as the format
    // server does, and rebuild the closure on the other side.
    let mut imported = TransformationRegistry::new();
    for t in [xform_2_to_1(), xform_1_to_0()] {
        imported.register(Transformation::deserialize(&t.serialize()).unwrap());
    }

    let mut rx = MorphReceiver::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    rx.register_handler(&rev0(), move |v| sink.lock().unwrap().push(v));
    let reachable = imported.closure(&rev2());
    assert_eq!(reachable.len(), 3);
    for r in reachable {
        for t in r.chain {
            rx.import_transformation(t);
        }
    }
    assert!(matches!(rx.process(&rev2_message()).unwrap(), Delivery::Delivered(_)));
    assert_eq!(got.lock().unwrap()[0].field(&rev0(), "temp"), Some(&Value::Int(50)));
}

#[test]
fn thresholds_gate_chain_admission() {
    // With exact-only thresholds, the rev0 reader still accepts rev2
    // messages because the chain ends in a *perfect* rev0 match.
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut rx = MorphReceiver::with_config(MatchConfig::exact());
    rx.register_handler(&rev0(), move |v| sink.lock().unwrap().push(v));
    rx.import_transformation(xform_2_to_1());
    rx.import_transformation(xform_1_to_0());
    assert!(matches!(rx.process(&rev2_message()).unwrap(), Delivery::Delivered(_)));
}
