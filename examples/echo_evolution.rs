//! The paper's §4.1 scenario: ECho version evolution.
//!
//! A channel creator running ECho v2.0 serves subscribers running both
//! v2.0 and the older v1.0. The creator always sends the compact v2.0
//! `ChannelOpenResponse` (Fig. 4b); v1.0 subscribers morph it back to the
//! three-list v1.0 layout (Fig. 4a) using the writer-supplied Fig. 5
//! transformation — no version negotiation, no server-side special cases.
//!
//! Run with: `cargo run --example echo_evolution`

use message_morphing::prelude::*;
use pbio::RecordFormat;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = EchoSystem::new();

    // A mixed-version deployment, as accretes over years of operation.
    let creator = sys.add_process("channel-creator (v2.0)", EchoVersion::V2);
    let viz = sys.add_process("visualization (v1.0)", EchoVersion::V1);
    let sim = sys.add_process("simulation (v2.0)", EchoVersion::V2);
    let logger = sys.add_process("logger (v1.0)", EchoVersion::V1);
    sys.connect_all(LinkParams::lan());

    // Scientific data events flowing on the channel.
    let data: Arc<RecordFormat> = FormatBuilder::record("FieldData")
        .int("step")
        .int("cell_count")
        .var_array_basic("cells", pbio::BasicType::Float(pbio::Width::W8), "cell_count")
        .build_arc()?;

    let ch = sys.create_channel(creator);
    sys.subscribe(sim, ch, Role::source(), None)?;
    sys.subscribe(viz, ch, Role::sink(), Some(&data))?;
    sys.subscribe(logger, ch, Role::sink(), Some(&data))?;
    sys.run();

    println!("channel membership as seen by each process:");
    for &(p, name) in &[(creator, "creator"), (sim, "sim"), (viz, "viz"), (logger, "logger")] {
        let members = sys.members(p, ch).unwrap_or_default();
        let desc: Vec<String> = members
            .iter()
            .map(|m| {
                format!(
                    "{}{}{}",
                    m.contact,
                    if m.is_source { " [src]" } else { "" },
                    if m.is_sink { " [sink]" } else { "" }
                )
            })
            .collect();
        println!("  {name:10} ({:?}): {}", sys.version(p), desc.join(", "));
    }

    // Every process — v1 or v2 — holds the same 3-member view.
    for p in [creator, sim, viz, logger] {
        assert_eq!(sys.members(p, ch).unwrap().len(), 3);
    }

    // The v1.0 subscribers did the morphing; the creator did nothing extra.
    // No event has flowed yet: this is the control plane's activity.
    println!("\ncontrol-plane morphing activity:");
    for &(p, name) in &[(creator, "creator"), (sim, "sim"), (viz, "viz"), (logger, "logger")] {
        let s = sys.morph_stats(p);
        println!(
            "  {name:10} messages={} morphs={} compiles={} cache_hits={}",
            s.messages, s.morphs, s.compiles, s.cache_hits
        );
    }
    assert!(sys.morph_stats(viz).morphs >= 1);
    assert!(sys.morph_stats(logger).morphs >= 1);
    assert_eq!(sys.morph_stats(creator).morphs, 0);

    // Data flows to every sink regardless of its middleware version.
    let event = Value::Record(vec![
        Value::Int(1),
        Value::Int(4),
        Value::Array(vec![
            Value::Float(0.1),
            Value::Float(0.2),
            Value::Float(0.3),
            Value::Float(0.4),
        ]),
    ]);
    let fanout = sys.publish(sim, ch, &data, &event)?;
    sys.run();
    println!("\npublished one event to {fanout} sink(s)");
    assert_eq!(sys.take_events(viz).len(), 1);
    assert_eq!(sys.take_events(logger).len(), 1);

    println!(
        "total wire traffic: {} bytes in {:.3} ms of virtual time",
        sys.total_bytes(),
        sys.now_ns() as f64 / 1e6
    );
    Ok(())
}
