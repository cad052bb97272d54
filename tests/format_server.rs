//! Integration: the format server over the simulated network — components
//! "separated in space and/or time" (§1) resolving meta-data out of band.
//!
//! A writer registers its new format + retro-transformation with a format
//! server, then goes away. Much later, a reader that has never seen the
//! format receives a message, round-trips to the server for the meta-data,
//! and morphs — all over simnet links with real (virtual) latency.

use std::sync::{Arc, Mutex};

use message_morphing::prelude::*;
use morph::{
    metaserver, Delivery, MetaClient, MetaServer, MorphError, RetryPolicy, Transformation,
};
use pbio::RecordFormat;
use simnet::{LinkParams, Network};

fn new_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("raw").int("scale").string("unit").build_arc().unwrap()
}

fn old_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("value").build_arc().unwrap()
}

fn retro() -> Transformation {
    Transformation::new(new_fmt(), old_fmt(), "old.value = new.raw * new.scale;")
}

/// A blocking request/response exchange over the simulated network.
fn exchange_over(
    net: &mut Network,
    client: simnet::NodeId,
    server_node: simnet::NodeId,
    server: &mut MetaServer,
    request: Vec<u8>,
) -> morph::Result<Vec<u8>> {
    net.send(client, server_node, request).expect("linked");
    // Deliver the request, compute the answer at the server, send it back.
    let mut response = None;
    while let Some(d) = net.step() {
        let _ = net.recv(d.to);
        if d.to == server_node {
            let resp = server.handle(&d.payload)?;
            net.send(server_node, client, resp).expect("linked");
        } else if d.to == client {
            response = Some(d.payload);
            break;
        }
    }
    Ok(response.expect("request must produce a response").to_vec())
}

#[test]
fn meta_data_resolves_across_the_network() {
    let mut net = Network::new();
    let writer = net.add_node("writer");
    let server_node = net.add_node("format-server");
    let reader = net.add_node("reader");
    net.connect(writer, server_node, LinkParams::lan());
    net.connect(reader, server_node, LinkParams::wan());
    net.connect(writer, reader, LinkParams::wan());

    let mut server = MetaServer::new();

    // Phase 1: the writer announces its meta-data (then "leaves").
    for req in
        [MetaClient::register_format(&new_fmt()), MetaClient::register_transformation(&retro())]
    {
        let resp = exchange_over(&mut net, writer, server_node, &mut server, req).unwrap();
        assert_eq!(resp, vec![metaserver::RESP_ACK]);
    }

    // Phase 2 (later, in virtual time): the reader receives a message of
    // the never-seen format.
    let wire = Encoder::new(&new_fmt())
        .encode(&Value::Record(vec![Value::Int(6), Value::Int(7), Value::str("kPa")]))
        .unwrap();
    net.send(writer, reader, wire.clone()).unwrap();
    let msg = loop {
        let d = net.step().expect("message in flight");
        let _ = net.recv(d.to);
        if d.to == reader {
            break d.payload;
        }
    };

    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut rx = MorphReceiver::new();
    rx.register_handler(&old_fmt(), move |v| sink.lock().unwrap().push(v));

    // Without the server: unknown format.
    assert!(matches!(rx.process(&msg), Err(MorphError::UnknownWireFormat(_))));

    // With on-demand resolution over the WAN link to the server.
    let t_before = net.now_ns();
    let policy = RetryPolicy::default();
    let d = morph::process_with_resolution(
        &mut rx,
        &msg,
        &policy,
        |req| exchange_over(&mut net, reader, server_node, &mut server, req),
        |_| {},
    )
    .unwrap();
    assert!(matches!(d, Delivery::Delivered(_)));
    assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(42)]));
    let resolution_time = net.now_ns() - t_before;
    assert!(resolution_time > 0, "meta-data fetches consumed network time");

    // Steady state: the cached decision serves without network traffic.
    let t_before = net.now_ns();
    for _ in 0..10 {
        morph::process_with_resolution(
            &mut rx,
            &msg,
            &policy,
            |req| exchange_over(&mut net, reader, server_node, &mut server, req),
            |_| {},
        )
        .unwrap();
    }
    assert_eq!(net.now_ns(), t_before, "no further out-of-band traffic");
    assert_eq!(got.lock().unwrap().len(), 11);
}

#[test]
fn resolution_cost_is_paid_once_per_format_not_per_message() {
    let mut server = MetaServer::new();
    server.register_format(new_fmt());
    server.register_transformation(retro());
    let server = Mutex::new(server);

    let mut rx = MorphReceiver::new();
    rx.register_handler(&old_fmt(), |_v| {});
    let wire = Encoder::new(&new_fmt())
        .encode(&Value::Record(vec![Value::Int(2), Value::Int(3), Value::str("C")]))
        .unwrap();

    for _ in 0..100 {
        morph::process_with_resolution(
            &mut rx,
            &wire,
            &RetryPolicy::default(),
            |req| server.lock().unwrap().handle(&req),
            |_| {},
        )
        .unwrap();
    }
    // 1 format fetch + 2 closure queries (one per discovered node).
    assert!(
        server.lock().unwrap().requests_served() <= 3,
        "served {} requests",
        server.lock().unwrap().requests_served()
    );
    assert_eq!(rx.stats().messages, 101); // one failed attempt + 100 deliveries
    assert_eq!(rx.stats().compiles, 1);
}
