//! Monitoring-overhead benchmark: the same warm morphing workload with
//! the observability extras off vs fully on.
//!
//! The "on" configuration enables everything this repo's monitoring
//! surface can opt into: per-link bandwidth/RTT monitors, load-adaptive
//! shed watermarks, and periodic self-telemetry publishing registry
//! deltas over an event channel. The "off" configuration runs the
//! identical workload bare. Always-on instrumentation (per-stage latency
//! histograms, per-channel rate gauges) is present in both, as it is in
//! any real run.
//!
//! The expectation: monitored throughput stays within 5% of bare
//! throughput (`on >= 0.95x off`) — rolling windows and piggybacked RTT
//! samples are integer arithmetic on readings the hot path already takes.
//! The median back-to-back pair ratio is *reported, not gated*: it sits
//! 0.954-0.989 on an unchanged tree, too close to the bar for a single
//! run to decide, so a lower reading prints a `WARN` line and the example
//! still exits 0. The curve lands in `BENCH_7.json`.
//!
//! Knobs (env): `MONITOR_EVENTS` (events per round, default 6000),
//! `MONITOR_ROUNDS` (default 10).
//!
//! Run with: `cargo run --release --example monitor_bench`

use std::sync::Arc;
use std::time::Instant;

use echo::telemetry::telemetry_format_v2;
use echo::{EchoSystem, EchoVersion, ProcessId, Role};
use morph::Transformation;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::LinkParams;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The evolved writer record, shaped like the paper's Table 1 exchanges
/// (an atmospheric-science reading: station identity plus a burst of
/// instrument words) rather than a toy two-field event — monitor cost is
/// a per-frame constant, so the overhead ratio is only meaningful against
/// a representative frame.
fn src_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading")
        .string("site")
        .string("instrument")
        .long("at_ns")
        .long("raw")
        .long("scale")
        .long("seq")
        .double("temperature")
        .double("pressure")
        .double("humidity")
        .double("wind_speed")
        .double("wind_dir")
        .long("flags")
        .build_arc()
        .expect("valid format")
}

/// The previous-release reader format the sink still expects: no station
/// instrument label, one pre-scaled value in place of raw + scale.
fn dst_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading")
        .string("site")
        .long("at_ns")
        .long("value")
        .long("seq")
        .double("temperature")
        .double("pressure")
        .double("humidity")
        .double("wind_speed")
        .double("wind_dir")
        .long("flags")
        .build_arc()
        .expect("valid format")
}

fn reading(seq: i64) -> Value {
    Value::Record(vec![
        Value::str("boulder-mesa-array-07"),
        Value::str("sonde-ms2112"),
        Value::Int(seq * 100_000),
        Value::Int(seq),
        Value::Int(3),
        Value::Int(seq),
        Value::Float(283.15),
        Value::Float(1013.25),
        Value::Float(0.41),
        Value::Float(7.2),
        Value::Float(261.0),
        Value::Int(0),
    ])
}

struct Rig {
    sys: EchoSystem,
    publisher: ProcessId,
    sink: ProcessId,
    ch: echo::ChannelId,
}

/// Builds one publisher → one morphing sink, optionally with the whole
/// opt-in monitoring surface switched on.
fn build(monitored: bool) -> Rig {
    let src = src_format();
    let dst = dst_format();
    let mut sys = EchoSystem::new();
    sys.set_tracing(false); // data-plane mode, as the other benches run
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    sys.distribute_metadata(
        &[src.clone(), dst.clone()],
        &[Transformation::new(
            src.clone(),
            dst,
            "old.site = new.site; old.at_ns = new.at_ns; old.value = new.raw * new.scale; \
             old.seq = new.seq; old.temperature = new.temperature; old.pressure = new.pressure; \
             old.humidity = new.humidity; old.wind_speed = new.wind_speed; \
             old.wind_dir = new.wind_dir; old.flags = new.flags;",
        )],
    );
    let ch = sys.create_channel(publisher);
    sys.subscribe(sink, ch, Role::sink(), Some(&dst_format())).expect("subscribe");
    if monitored {
        let tele = sys.create_channel(publisher);
        sys.subscribe(sink, tele, Role::sink(), Some(&telemetry_format_v2())).expect("subscribe");
        sys.enable_link_monitors(8, 1_000_000);
        sys.enable_adaptive_shedding();
        // 10ms of virtual time per report: frequent enough to exercise the
        // pump every round, sparse enough that the reports themselves (each
        // one a registry snapshot + a published frame) stay a trace gas in
        // the stream being measured.
        sys.enable_self_telemetry(publisher, tele, 10_000_000);
    }
    sys.run();
    Rig { sys, publisher, sink, ch }
}

/// One timed round: publish + fully settle `events` events, returning
/// frames/sec for the round.
fn round(rig: &mut Rig, events: usize, seq: &mut i64) -> f64 {
    let src = src_format();
    let start = Instant::now();
    for _ in 0..events {
        *seq += 1;
        rig.sys.publish(rig.publisher, rig.ch, &src, &reading(*seq)).expect("publish");
        rig.sys.run();
    }
    let per_sec = events as f64 / start.elapsed().as_secs_f64();
    let got = rig.sys.take_events(rig.sink);
    assert!(got.len() >= events, "every event delivered ({} of {events})", got.len());
    per_sec
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let events = env_usize("MONITOR_EVENTS", 6_000);
    let rounds = env_usize("MONITOR_ROUNDS", 10);

    let mut bare = build(false);
    let mut monitored = build(true);

    // Rounds are interleaved bare/monitored so machine-level drift (other
    // tenants, frequency scaling) lands on both configurations alike;
    // best-of-rounds then discards the rounds noise did hit. Round 0 pays
    // each system's cold morphing path and is discarded.
    let (mut seq_bare, mut seq_mon) = (0i64, 0i64);
    let (mut off, mut on) = (0.0f64, 0.0f64);
    let mut pair_ratios = Vec::new();
    for r in 0..=rounds {
        // Alternate which configuration runs first within the pair: on a
        // machine ramping (or cooling) monotonically, whoever runs second
        // in every pair would otherwise absorb the trend systematically.
        let (b, m) = if r % 2 == 0 {
            let b = round(&mut bare, events, &mut seq_bare);
            let m = round(&mut monitored, events, &mut seq_mon);
            (b, m)
        } else {
            let m = round(&mut monitored, events, &mut seq_mon);
            let b = round(&mut bare, events, &mut seq_bare);
            (b, m)
        };
        if r > 0 {
            off = off.max(b);
            on = on.max(m);
            // The reported ratio compares within a back-to-back pair — a
            // frequency ramp or a noisy neighbour mid-run shifts both
            // sides of a pair together, not the comparison.
            pair_ratios.push(m / b);
        }
    }
    // Median pair ratio: robust against the odd round a scheduler burp
    // hit, biased by neither best- nor worst-case luck.
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let ratio = pair_ratios[pair_ratios.len() / 2];

    // The monitored system actually monitored: links report bandwidth,
    // telemetry was published, the watermarks exist.
    let bw = monitored
        .sys
        .link_bandwidth(monitored.publisher, monitored.sink)
        .expect("link monitor enabled");
    assert!(bw.bytes_per_sec > 0 || bw.frames_per_sec > 0, "the monitor saw traffic: {bw:?}");
    let snap = monitored.sys.registry().snapshot();
    let telemetry = snap.counter("echo.telemetry.published").unwrap_or(0);
    assert!(telemetry > 0, "self-telemetry fired during the run");
    assert!(monitored.sys.adaptive_capacities().is_some());

    let json = format!(
        "{{\n  \"workload\": \"1 publisher -> 1 morphing sink, warm path, {events} events x \
         {rounds} rounds, median interleaved pair\",\n  \"events_per_round\": {events},\n  \
         \"bare_frames_per_sec\": {off:.0},\n  \"monitored_frames_per_sec\": {on:.0},\n  \
         \"monitored_over_bare\": {ratio:.3},\n  \"telemetry_records\": {telemetry},\n  \
         \"monitors\": \"link bandwidth/RTT windows + adaptive watermarks + self-telemetry\",\n  \
         \"gate\": \"reported\"\n}}\n"
    );
    std::fs::write("BENCH_7.json", &json)?;
    println!("{json}");

    if ratio < 0.95 {
        eprintln!(
            "WARN: monitoring overhead above 5%: {on:.0}/s monitored vs {off:.0}/s bare \
             ({ratio:.3}x) — reported, not gated"
        );
    }
    Ok(())
}
