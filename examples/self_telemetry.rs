//! Self-telemetry over a morphing channel: the system monitors itself
//! with its own events, and the monitoring plane evolves like any other
//! data exchange.
//!
//! [`EchoSystem::enable_self_telemetry`] periodically publishes the
//! system registry's counter deltas as a versioned PBIO record on an
//! ordinary `SequencedUnreliable` channel. The emitter speaks the current
//! v2 record (v1's six fields plus the retry queue's depth); the
//! collector here is deliberately *v1-era* — it subscribed with the
//! six-field first-generation format and has never heard of the new
//! field. MaxMatch drops it on receipt with **zero hand-written
//! transformations**, exactly the paper's evolving-exchange story applied
//! to the monitoring plane itself.
//!
//! Run with: `cargo run --example self_telemetry`

use echo::telemetry::{telemetry_format_v1, telemetry_format_v2};
use message_morphing::prelude::*;

const WORK_EVENTS: u64 = 60;
const PERIOD_NS: u64 = 500_000; // one telemetry record per 0.5 ms of virtual time

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let worker = sys.add_process("worker", EchoVersion::V2);
    let collector = sys.add_process("collector-v1", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    // An ordinary workload channel, plus the telemetry channel the system
    // will publish its own registry deltas on.
    let work_fmt = FormatBuilder::record("Work").int("n").build_arc()?;
    let work = sys.create_channel(creator);
    let tele = sys.create_channel(creator);
    sys.subscribe(worker, work, Role::source(), None)?;
    sys.subscribe(creator, work, Role::sink(), Some(&work_fmt))?;
    // The v1-era collector: its expected format is the old six-field
    // record. No transformation is registered anywhere for it.
    sys.subscribe(collector, tele, Role::sink(), Some(&telemetry_format_v1()))?;
    sys.run();

    sys.enable_self_telemetry(creator, tele, PERIOD_NS);
    println!(
        "emitter speaks v2 ({} fields), collector expects v1 ({} fields)",
        telemetry_format_v2().fields().len(),
        telemetry_format_v1().fields().len()
    );

    // Drive workload traffic; telemetry fires whenever virtual time
    // crosses a reporting period inside `run()`.
    for n in 0..WORK_EVENTS {
        sys.publish(worker, work, &work_fmt, &Value::Record(vec![Value::Int(n as i64)]))?;
        sys.run();
    }

    let snap = sys.registry().snapshot();
    let published = snap.counter("echo.telemetry.published").unwrap_or(0);
    let bytes = snap.counter("echo.telemetry.bytes").unwrap_or(0);
    println!(
        "emitter published {published} records ({bytes} bytes) over {WORK_EVENTS} work events"
    );
    assert!(published >= 3, "virtual time crossed several reporting periods");

    // What the v1 collector decoded: every record morphed down to the v1
    // shape, sequence numbers intact.
    let v1 = telemetry_format_v1();
    let records = sys.take_events(collector);
    assert!(!records.is_empty(), "the collector received telemetry");
    println!("\ncollector-v1 decoded {} records:", records.len());
    println!(
        "  {:>4} {:>12} {:>10} {:>10} {:>6}",
        "seq", "elapsed_ns", "published", "delivered", "shed"
    );
    let mut last_seq = 0;
    for (_, v) in &records {
        let f = |name: &str| v.field(&v1, name).and_then(Value::as_i64).unwrap();
        println!(
            "  {:>4} {:>12} {:>10} {:>10} {:>6}",
            f("seq"),
            f("elapsed_ns"),
            f("published"),
            f("delivered"),
            f("shed")
        );
        assert!(f("seq") > last_seq, "sequence numbers advance");
        last_seq = f("seq");
        let Value::Record(fields) = v else { unreachable!() };
        assert_eq!(fields.len(), v1.fields().len(), "morphed down to the v1 shape");
    }

    // The proof of "zero hand-written transformations": the collector's
    // event-plane stats show near-match adaptation only — no
    // transformation chain ran, no snippet was ever compiled.
    let stats = sys.event_stats(collector, tele).expect("collector subscribed");
    println!(
        "\ncollector morph stats: {} near-matches, {} morphs, {} compiles",
        stats.near_matches, stats.morphs, stats.compiles
    );
    assert!(stats.near_matches >= 1, "MaxMatch + default-fill did the work");
    assert_eq!(stats.morphs, 0, "no transformation chain");
    assert_eq!(stats.compiles, 0, "no code generated");
    println!("v1 collector kept working against v2 telemetry with zero written transformations");
    Ok(())
}
