//! Dumps the observability registries after a mixed-version ECho run.
//!
//! A v2.0 publisher ships evolved events to a v1.0 subscriber. The first
//! event pays the full cold path of Algorithm 2 — MaxMatch, dynamic code
//! generation, conversion-plan compilation — and every later event replays
//! the cached decision. The dump shows that split directly:
//!
//! - `morph.decision.miss` / `morph.decision.hit` — the decision cache
//!   (Algorithm 2 lines 6–9: one miss per wire format, then hits only).
//! - `morph.decide_ns` — cold-path latency (one sample per miss, large).
//! - `morph.process_ns` — warm replay latency, one sample per sampled
//!   replay: the timers time one message in 64 (`echo::proto::sampled`),
//!   while the counters count every message.
//!
//! The sink is one process, so one registry holds both of its receivers:
//! the control plane's, which morphed the creator's v2.0 membership
//! response once, and the event plane's. Metric names are catalogued in
//! `OBSERVABILITY.md`. Run with:
//! `cargo run --example stats_dump` (add `--json` for machine-readable
//! output, or `--prom` for a Prometheus text-format exposition).

use message_morphing::prelude::*;

const WARM_EVENTS: usize = 100;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = std::env::args().any(|a| a == "--json");
    let prom = std::env::args().any(|a| a == "--prom");

    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator-v2", EchoVersion::V2);
    let publisher = sys.add_process("publisher-v2", EchoVersion::V2);
    let sink = sys.add_process("sink-v1", EchoVersion::V1);
    sys.connect_all(LinkParams::lan());

    // The event format evolved: v2 publishers send raw value + scale, the
    // v1 sink still expects one pre-scaled reading. The writer of the v2
    // format shipped the retro-transformation as out-of-band meta-data.
    let v1_events = FormatBuilder::record("Reading").int("value").build_arc()?;
    let v2_events = FormatBuilder::record("Reading").int("raw").int("scale").build_arc()?;
    sys.distribute_metadata(
        &[v1_events.clone(), v2_events.clone()],
        &[Transformation::new(
            v2_events.clone(),
            v1_events.clone(),
            "old.value = new.raw * new.scale;",
        )],
    );

    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None)?;
    sys.subscribe(sink, ch, Role::sink(), Some(&v1_events))?;
    sys.run();
    // Before any event, the sink's registry counts its control plane's
    // work alone: the membership responses it morphed.
    let control_hits = sys.control_registry(sink).counter("morph.decision.hit").get();
    let control_timed = sys.control_registry(sink).histogram("morph.process_ns").count();

    // One cold event, then a warm stream.
    for n in 0..=WARM_EVENTS as i64 {
        sys.publish(publisher, ch, &v2_events, &Value::Record(vec![Value::Int(n), Value::Int(3)]))?;
    }
    sys.run();
    assert_eq!(sys.take_events(sink).len(), WARM_EVENTS + 1);

    let system = sys.registry().snapshot();
    let sink_reg = sys.control_registry(sink).snapshot();

    if json {
        println!("{{\"system\":{},\"sink\":{}}}", system.to_json(), sink_reg.to_json());
        return Ok(());
    }

    if prom {
        // One exposition, ready for a Prometheus scrape or promtool.
        print!("{}", system.to_prometheus());
        print!("{}", sink_reg.to_prometheus());
        return Ok(());
    }

    println!("=== system registry (virtual time; echo.* + simnet.*) ===");
    print!("{}", system.to_text());

    println!("\n=== sink-v1 (morph.* + pbio.* + echo.stage.*) ===");
    print!("{}", sink_reg.to_text());

    // The headline numbers, spelled out.
    let miss = sink_reg.counter("morph.decision.miss").unwrap_or(0);
    let hit = sink_reg.counter("morph.decision.hit").unwrap_or(0);
    println!(
        "\ndecision cache: {miss} misses (cold, one per plane), {hit} hits (warm; \
         {control_hits} of them control)"
    );
    let cold = sink_reg.histogram("morph.decide_ns").expect("cold path ran");
    let warm = sink_reg.histogram("morph.process_ns").expect("warm path ran");
    println!(
        "cold decide:   {} sample(s), mean {} ns (MaxMatch + codegen + plan)",
        cold.count,
        cold.mean()
    );
    println!(
        "warm replay:   {} samples of {hit} replays, mean {} ns (cached transform + plan)",
        warm.count,
        warm.mean()
    );
    if warm.mean() > 0 {
        println!(
            "cold/warm ratio: {:.0}x — the cost Algorithm 2 amortizes away",
            cold.mean() as f64 / warm.mean() as f64
        );
    }

    // One cold decision per plane: the control plane's morphed membership
    // response and the event plane's first event.
    assert_eq!(miss, 2, "exactly one cold decision per plane");
    assert_eq!(hit - control_hits, WARM_EVENTS as u64, "every later event hits the cache");
    // The publisher, the second process, numbers its frames and trace ids
    // from 1 << 48: its subscribe took two, and each traced publish takes a
    // trace id and then its frame's seq, so event n travels under seq
    // (1 << 48) + 3 + 2n. Event 0 is the cold one.
    let sampled = (1..=WARM_EVENTS as u64)
        .filter(|n| message_morphing::echo::proto::sampled((1 << 48) + 3 + 2 * n))
        .count() as u64;
    assert!(sampled > 0);
    assert_eq!(warm.count - control_timed, sampled, "one sample per sampled warm event");
    Ok(())
}
