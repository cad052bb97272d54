//! The format server: out-of-band meta-data on demand.
//!
//! Components "separated in space and/or time" (§1) can't handshake.
//! Instead, writers register each new format — and the retro-transformation
//! that ships with it — at a format server, once. A receiver hitting an
//! unknown format id fetches the meta-data, compiles the transformation,
//! and morphs; the decision is cached so the server sees no steady-state
//! traffic at all.
//!
//! Run with: `cargo run --example format_server`

use std::sync::{Arc, Mutex};

use message_morphing::prelude::*;
use morph::{MetaClient, MetaServer, MorphError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The formats of two deployment generations.
    let v1 = FormatBuilder::record("StockTick").string("symbol").int("cents").build_arc()?;
    let v2 = FormatBuilder::record("StockTick")
        .string("symbol")
        .int("cents")
        .int("volume")
        .string("venue")
        .build_arc()?;

    // -- The format server (a long-lived service). -------------------------
    let server = Mutex::new(MetaServer::new());

    // -- Year 1: the v2 rollout. Its deployment pipeline registers the new
    //    format and the rollback recipe, then moves on.
    server.lock().unwrap().handle(&MetaClient::register_format(&v2))?;
    server.lock().unwrap().handle(&MetaClient::register_transformation(&Transformation::new(
        v2.clone(),
        v1.clone(),
        "old.symbol = new.symbol; old.cents = new.cents;",
    )))?;
    println!("writer registered v2 + retro-transformation at the format server");

    // -- Year 2: an old v1 consumer, installed long before v2 existed,
    //    receives a v2 tick. It has NO local knowledge of v2.
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut consumer = MorphReceiver::new();
    consumer.register_handler(&v1, move |v| sink.lock().unwrap().push(v));

    let tick = Encoder::new(&v2).encode(&Value::Record(vec![
        Value::str("GT"),
        Value::Int(12_345),
        Value::Int(900),
        Value::str("NYSE"),
    ]))?;

    match consumer.process(&tick) {
        Err(MorphError::UnknownWireFormat(id)) => {
            println!("consumer: unknown format {id} — resolving out of band");
        }
        other => panic!("expected an unknown format, got {other:?}"),
    }

    // In deployment `exchange` is a network round trip, retried under the
    // policy with `sleep` waiting out each backoff; here it is a direct call
    // into the server, which cannot fail.
    let policy = morph::RetryPolicy::default();
    let exchange = |request: Vec<u8>| server.lock().unwrap().handle(&request);
    let delivery = morph::process_with_resolution(&mut consumer, &tick, &policy, exchange, |_| {})?;
    println!("after resolution: {delivery:?}");
    println!("decision now cached: {}", consumer.explain(pbio::format_id(&v2)).expect("cached"));

    // Steady state: a thousand more ticks, zero server requests.
    let served_before = server.lock().unwrap().requests_served();
    for i in 0..1000i64 {
        let tick = Encoder::new(&v2).encode(&Value::Record(vec![
            Value::str("GT"),
            Value::Int(12_345 + i),
            Value::Int(900 + i),
            Value::str("NYSE"),
        ]))?;
        morph::process_with_resolution(&mut consumer, &tick, &policy, exchange, |_| {})?;
    }
    let served_after = server.lock().unwrap().requests_served();
    println!("1000 further ticks: {} additional server request(s)", served_after - served_before);
    assert_eq!(served_after, served_before);
    assert_eq!(got.lock().unwrap().len(), 1001);
    let last = got.lock().unwrap().pop().unwrap();
    assert_eq!(last.field(&v1, "cents"), Some(&Value::Int(13_344)));
    println!("old consumer processed every tick in its own v1 shape");
    Ok(())
}
