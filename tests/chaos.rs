//! Chaos suite: seeded end-to-end fault injection against the full stack.
//!
//! Every scenario runs under several fixed seeds and is fully deterministic
//! — the network, the fault draws, the retry jitter, and the virtual clock
//! all derive from the seed, so a failure reproduces exactly. The suite
//! asserts the resilience contract from DESIGN.md:
//!
//! * a corrupted frame is CRC-detected, counted, and quarantined — never
//!   decoded;
//! * duplicates are suppressed, so the application sees each event at most
//!   once;
//! * faults are fully accounted: every wire delivery is either handled,
//!   deduplicated, or dead-lettered, and the registries agree with the
//!   network's own fault totals;
//! * frames refused by a partitioned link wait it out in the retry queue
//!   and get through after the heal, within the retry budget;
//! * meta-data resolution (the paper's out-of-band fetch) survives loss,
//!   corruption, and a partition-heal cycle mid-resolution.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use echo::{proto, EchoConfig, EchoSystem, EchoVersion, ProcessId, Role};
use message_morphing::prelude::*;
use morph::{DeadReason, MetaServer, MorphError, RetryPolicy, Transformation};
use pbio::RecordFormat;
use simnet::{FaultPlan, LinkParams, Network};

/// Fixed seeds — each exercises a different fault sequence.
const SEEDS: [u64; 3] = [0x00C0_FFEE, 0xDEAD_BEEF, 42];

/// The seeds every scenario runs under: the fixed matrix above, or a
/// single seed forced through `CHAOS_SEED` — ci.sh loops the suite over a
/// seed matrix that way without recompiling.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => vec![v.parse().unwrap_or_else(|_| panic!("CHAOS_SEED {v:?} is not a u64"))],
        Err(_) => SEEDS.to_vec(),
    }
}

/// True for the seeds the scenarios were written against: the fixed
/// matrix above and ci.sh's 1/7/42 (the crash-restart storm's own
/// matrix). Under those a scenario also asserts
/// *coverage* — that its fault plan actually dropped, maimed, reordered.
/// ci.sh additionally draws one fresh seed per run, and a fresh seed may
/// draw none of a fault over a few dozen frames (about one in 150 for the
/// fragmentation run's drops), so under it only the invariants are
/// checked: conservation, exactly-once, byte-exactness, determinism.
fn curated(seed: u64) -> bool {
    SEEDS.contains(&seed) || STORM_SEEDS.contains(&seed)
}

/// With `CHAOS_DUMP_DIR=<path>` set, writes what one scenario run left
/// behind to `<path>/<scenario>-<seed>.txt`: the registry snapshot, every
/// dead letter's reason and detail, and the flight-recorder export. Two
/// checkouts dumping the same seeds into two directories turn "same
/// bytes" into `diff -r parent/ change/` (see the verify skill).
fn dump(scenario: &str, seed: u64, snapshot: &str, letters: &str, chrome: &str) {
    let Ok(dir) = std::env::var("CHAOS_DUMP_DIR") else { return };
    std::fs::create_dir_all(&dir).expect("CHAOS_DUMP_DIR is creatable");
    let body = format!(
        "== snapshot ==\n{snapshot}\n== dead letters ==\n{letters}== chrome ==\n{chrome}\n"
    );
    std::fs::write(format!("{dir}/{scenario}-{seed}.txt"), body).expect("dump file is writable");
}

/// [`dump`] for an `EchoSystem` scenario: snapshot, dead letters and
/// recorder export are read off the system after the run.
fn dump_system(scenario: &str, seed: u64, sys: &EchoSystem, procs: &[ProcessId]) {
    let mut letters = String::new();
    for (i, &p) in procs.iter().enumerate() {
        for l in sys.dead_letters(p) {
            letters += &format!("proc {i}: {}: {}\n", l.reason.label(), l.detail);
        }
    }
    let snapshot = sys.registry().snapshot().to_text();
    dump(scenario, seed, &snapshot, &letters, &sys.recorder().chrome_json());
}

/// The dead-letter books balance: the system's `echo.deadletter.total`
/// equals the sum over `procs` — every process of the run — of the letters
/// each one's own queue admitted (`EchoSystem::dead_letter_total`), evicted
/// ones included. One routine files the letter and counts it, so this
/// holds by construction; the assertion pins it.
fn assert_dead_letter_books(sys: &EchoSystem, procs: &[ProcessId]) {
    let filed: u64 = procs.iter().map(|&p| sys.dead_letter_total(p)).sum();
    let counted = sys.registry().snapshot().counter("echo.deadletter.total");
    assert_eq!(counted, Some(filed), "echo.deadletter.total");
}

/// The dedup horizon never decided anything: no frame arrived a whole
/// window (`echo.dedup.beyond_window`) behind the newest seq its receiver
/// had noted from its sender — every duplicate dropped was one the
/// receiver had noted, so no scenario reorders or replays past the window.
fn assert_horizon_unreached(sys: &EchoSystem) {
    let beyond = sys.registry().snapshot().counter("echo.dedup.beyond_window");
    assert_eq!(beyond, Some(0), "echo.dedup.beyond_window");
}

fn tick_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Tick").int("n").build_arc().unwrap()
}

fn tick(n: i64) -> Value {
    Value::Record(vec![Value::Int(n)])
}

// ---------------------------------------------------------------------------
// Scenario 1: v2 → v1 interop under loss, corruption, duplication, reorder.
// ---------------------------------------------------------------------------

/// What one run of the interop scenario produced, for cross-run comparison.
struct InteropRun {
    snapshot: String,
    /// Full chrome://tracing export of every causal trace the run recorded.
    chrome: String,
    v1_events: Vec<i64>,
    v2_events: Vec<i64>,
}

const INTEROP_EVENTS: u64 = 40;

fn run_interop_chaos(seed: u64) -> InteropRun {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let v1_sink = sys.add_process("v1-sink", EchoVersion::V1);
    let v2_sink = sys.add_process("v2-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    let fmt = tick_format();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(v1_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.subscribe(v2_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    // Membership settled over clean links; the v1 subscriber morphed the
    // creator's v2 responses on receipt (paper §4.1).
    assert_eq!(sys.members(publisher, ch).unwrap().len(), 3);
    assert!(sys.morph_stats(v1_sink).morphs >= 1);

    // Now make the event-plane links hostile. Only publisher→sink traffic
    // is subject: control traffic flows creator↔member.
    sys.set_fault_plan(
        publisher,
        v1_sink,
        FaultPlan::new(seed)
            .drop_per_mille(150)
            .corrupt_per_mille(100)
            .duplicate_per_mille(100)
            .reorder_per_mille(200, 400_000)
            .jitter_ns(50_000),
    );
    sys.set_fault_plan(
        publisher,
        v2_sink,
        FaultPlan::new(seed ^ 0x5EED)
            .drop_per_mille(300)
            .corrupt_per_mille(150)
            .duplicate_per_mille(150)
            .jitter_ns(20_000),
    );

    for n in 0..INTEROP_EVENTS {
        sys.publish(publisher, ch, &fmt, &tick(n as i64)).unwrap();
    }
    sys.run();

    let faults = sys.fault_totals();
    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    // The curated seeds are chosen so every fault class actually fired: 80
    // sends at ≥10% per-mille rates leave each class non-empty.
    if curated(seed) {
        assert!(faults.dropped > 0, "seed {seed:#x}: no drops");
        assert!(faults.corrupted > 0, "seed {seed:#x}: no corruption");
        assert!(faults.duplicated > 0, "seed {seed:#x}: no duplicates");
        assert!(faults.reordered > 0, "seed {seed:#x}: no reordering");
    }

    // Accounting identity: every event frame that reached a sink is either
    // handled, suppressed as a duplicate, or quarantined as corrupt.
    let sends = 2 * INTEROP_EVENTS;
    let arrived = sends - faults.dropped + faults.duplicated;
    let handled = counter("echo.events.delivered");
    let dedup = counter("echo.dedup.dropped");
    let corrupt = counter("echo.deadletter.corrupt");
    assert_eq!(
        handled + dedup + corrupt,
        arrived,
        "seed {seed:#x}: {handled} handled + {dedup} dedup + {corrupt} corrupt != {arrived} arrived"
    );
    // Corruption is the only quarantine cause here, and the network's own
    // count bounds it (a corrupted copy may also be dropped... it cannot:
    // drops skip fault processing — but a corrupted duplicate and a
    // corrupted original are two counted corruptions and two quarantines).
    assert_eq!(counter("echo.deadletter.total"), corrupt);
    assert_eq!(corrupt, faults.corrupted, "every corrupted frame was CRC-caught");
    // An event is lost only if every copy of it was corrupted, so losses
    // beyond the drops are bounded by the corruption count.
    assert!(handled >= sends - faults.dropped - faults.corrupted);

    // Application-level exactly-once: each sink sees a subset of the
    // published values, each at most once, and never a decoded corruption.
    let mut per_sink = Vec::new();
    for sink in [v1_sink, v2_sink] {
        let mut seen = HashSet::new();
        let events: Vec<i64> = sys
            .take_events(sink)
            .into_iter()
            .map(|(c, v)| {
                assert_eq!(c, ch);
                v.field(&fmt, "n").unwrap().as_i64().unwrap()
            })
            .collect();
        for &n in &events {
            assert!((0..INTEROP_EVENTS as i64).contains(&n), "alien value {n}");
            assert!(seen.insert(n), "value {n} delivered twice");
        }
        per_sink.push(events);
    }

    // Quarantined frames are inspectable at the sinks, with the reason.
    let quarantined: u64 = [v1_sink, v2_sink].iter().map(|&s| sys.dead_letter_total(s)).sum();
    assert_eq!(quarantined, corrupt);
    for sink in [v1_sink, v2_sink] {
        for letter in sys.dead_letters(sink) {
            assert_eq!(letter.reason, morph::DeadReason::Corrupt);
            // Every dead letter carries its causal trace: the id it
            // travelled under (a corrupting byte-flip may have mangled the
            // id bits, but a single flip cannot zero the whole field) and
            // a frozen event snapshot whose quarantine instant names the
            // pipeline stage that rejected the frame.
            assert!(letter.trace.is_some(), "dead letter without trace context");
            let quarantine = letter
                .events
                .iter()
                .find(|e| e.name == "echo.quarantine")
                .expect("dead letter events lack the quarantine instant");
            assert_eq!(quarantine.tag("stage"), Some("unframe"), "CRC failures die in unframe");
        }
    }

    let v2_events = per_sink.pop().unwrap();
    let v1_events = per_sink.pop().unwrap();
    assert_dead_letter_books(&sys, &[creator, publisher, v1_sink, v2_sink]);
    assert_horizon_unreached(&sys);
    dump_system("interop", seed, &sys, &[creator, publisher, v1_sink, v2_sink]);
    InteropRun {
        snapshot: snap.to_text(),
        chrome: sys.recorder().chrome_json(),
        v1_events,
        v2_events,
    }
}

/// Loss, corruption, duplication, and reordering on the event plane: the
/// morphing interop keeps working, the books balance, and the whole run is
/// byte-for-byte reproducible per seed.
#[test]
fn interop_survives_fault_injection_deterministically() {
    for seed in seeds() {
        let first = run_interop_chaos(seed);
        let second = run_interop_chaos(seed);
        assert_eq!(first.snapshot, second.snapshot, "seed {seed:#x}: non-deterministic snapshot");
        assert_eq!(first.v1_events, second.v1_events);
        assert_eq!(first.v2_events, second.v2_events);
        // The flight recorder runs on the virtual clock and mints trace ids
        // from per-process sequence counters, so the *entire trace export*
        // — every span, timestamp, and fault tag across tens of faulty
        // deliveries — replays byte-for-byte.
        assert_eq!(first.chrome, second.chrome, "seed {seed:#x}: non-deterministic trace export");
        if curated(seed) {
            assert!(first.chrome.contains("simnet.fault.dropped"), "drops are trace-visible");
            assert!(first.chrome.contains("\"fault\":\"corrupt\""), "corruptions are trace-tagged");
        }
    }
}

/// Algorithm 2's cost cliff, read straight off the traces: the first
/// message of a (format, receiver) pair records the full cold pipeline —
/// MaxMatch and the DCG compile exactly once — and every later message's
/// trace shows only the warm decision-cache lookup.
#[test]
fn traces_show_cold_compile_once_then_warm_lookups() {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("old-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    // The publisher ships the richer revision; the sink reads the old one
    // via the distributed retro-transformation — the morphing cold path.
    sys.distribute_metadata(&[new_fmt(), old_fmt()], &[retro()]);
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&old_fmt())).unwrap();
    sys.run();

    for n in 1..=5 {
        let event = Value::Record(vec![Value::Int(n), Value::Int(2), Value::str("kPa")]);
        sys.publish(publisher, ch, &new_fmt(), &event).unwrap();
        sys.run();
    }
    assert_eq!(sys.take_events(sink).len(), 5);

    let rec = Arc::clone(sys.recorder());
    // Publish traces, in publish order (root spans appear in event order).
    let mut publishes = Vec::new();
    for e in rec.events() {
        if e.name == "echo.publish" && !publishes.contains(&e.trace) {
            publishes.push(e.trace);
        }
    }
    assert_eq!(publishes.len(), 5);
    let count = |t, name: &str| rec.trace_events(t).iter().filter(|e| e.name == name).count();

    // Cold: the first event's trace shows the whole Algorithm 2 slow path.
    let cold = publishes[0];
    assert_eq!(count(cold, "morph.lookup"), 1);
    assert_eq!(count(cold, "morph.decide"), 1);
    assert_eq!(count(cold, "morph.maxmatch"), 1, "MaxMatch exactly once, on the cold message");
    assert_eq!(count(cold, "morph.compile"), 1, "DCG compile exactly once, on the cold message");
    assert_eq!(count(cold, "morph.transform"), 1);
    let lookup = rec
        .trace_events(cold)
        .into_iter()
        .find(|e| e.name == "morph.lookup")
        .expect("cold lookup span");
    assert_eq!(lookup.tag("result"), Some("miss"));

    // Warm: every later trace shows the lookup hit plus the single fused
    // apply pass — no decide/maxmatch/compile, no per-stage transform
    // spans. The cached fused plan replay *is* the message.
    for &t in &publishes[1..] {
        let mut morphs: Vec<_> =
            rec.trace_events(t).into_iter().filter(|e| e.name.starts_with("morph.")).collect();
        morphs.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(morphs.len(), 2, "warm trace has lookup + fused apply only: {morphs:?}");
        assert_eq!(morphs[0].name, "morph.apply.fused");
        assert_eq!(morphs[1].name, "morph.lookup");
        assert_eq!(morphs[1].tag("result"), Some("hit"));
        // The journey is still complete: publish → hop → handle.
        assert_eq!(count(t, "echo.publish"), 1);
        assert_eq!(count(t, "simnet.link.publisher->old-sink"), 1);
        assert_eq!(count(t, "echo.handle"), 1);
    }

    // The text tree renders the cold story, nested and readable.
    let tree = rec.text_tree(cold);
    assert!(tree.contains("echo.publish"), "tree:\n{tree}");
    assert!(tree.contains("morph.compile"), "tree:\n{tree}");
    assert!(tree.contains("result=miss"), "tree:\n{tree}");
}

// ---------------------------------------------------------------------------
// Scenario 2: partition-heal on the event plane — retry queue waits it out.
// ---------------------------------------------------------------------------

const PARTITION_EVENTS: u64 = 8;
const PARTITION_WINDOW_NS: u64 = 5_000_000;

fn run_partition_heal(seed: u64) -> String {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V1);
    sys.connect_all(LinkParams::lan());

    let fmt = tick_format();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    // Partition the publisher→sink link for a fixed window starting now.
    let t0 = sys.now_ns();
    sys.set_fault_plan(
        publisher,
        sink,
        FaultPlan::new(seed).partition(t0, t0 + PARTITION_WINDOW_NS),
    );

    for n in 0..PARTITION_EVENTS {
        sys.publish(publisher, ch, &fmt, &tick(n as i64)).unwrap();
    }
    // Every send was refused; all frames are waiting on their backoff.
    assert_eq!(sys.pending_retries(), PARTITION_EVENTS as usize);

    sys.run();

    // All events got through after the heal — none lost, none duplicated.
    let events: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(_, v)| v.field(&fmt, "n").unwrap().as_i64().unwrap())
        .collect();
    let mut sorted = events.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..PARTITION_EVENTS as i64).collect::<Vec<_>>());

    // The run waited out the partition in virtual time, within the budget.
    assert!(sys.now_ns() >= t0 + PARTITION_WINDOW_NS);
    assert_eq!(sys.pending_retries(), 0);
    assert_eq!(sys.dead_letter_total(sink), 0);
    assert!(sys.fault_totals().partition_blocked >= PARTITION_EVENTS);

    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("echo.retry.enqueued"), PARTITION_EVENTS);
    assert_eq!(counter("echo.retry.delivered"), PARTITION_EVENTS);
    assert_eq!(counter("echo.retry.giveup"), 0);
    assert!(counter("echo.retry.attempts") >= PARTITION_EVENTS);
    assert_dead_letter_books(&sys, &[creator, publisher, sink]);
    assert_horizon_unreached(&sys);
    dump_system("partition_heal", seed, &sys, &[creator, publisher, sink]);
    snap.to_text()
}

/// A scheduled partition blocks every publish; the retry queue waits out
/// the window (capped exponential backoff in virtual time) and delivers
/// everything exactly once after the heal.
#[test]
fn partition_heal_delivers_every_event_exactly_once() {
    for seed in seeds() {
        assert_eq!(run_partition_heal(seed), run_partition_heal(seed), "seed {seed:#x}");
    }
}

/// With no heal in sight the budget is finite: frames are given up and
/// quarantined at the sender instead of spinning forever.
#[test]
fn exhausted_retry_budget_quarantines_at_the_sender() {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let fmt = tick_format();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    sys.set_link_up(publisher, sink, false); // administratively down, forever
    sys.publish(publisher, ch, &fmt, &tick(1)).unwrap();
    sys.run();

    assert!(sys.take_events(sink).is_empty());
    assert_eq!(sys.pending_retries(), 0, "the queue drained by giving up");
    assert_eq!(sys.dead_letter_total(publisher), 1, "quarantined at the sender");
    let letters = sys.dead_letters(publisher);
    assert_eq!(letters[0].reason, morph::DeadReason::RetryExhausted);
    // The abandoned frame's trace tells the story from the sender's side:
    // the publish root, the retry give-up, and the stage that failed.
    assert!(letters[0].trace.is_some());
    let quarantine = letters[0]
        .events
        .iter()
        .find(|e| e.name == "echo.quarantine")
        .expect("send-retry dead letter lacks the quarantine instant");
    assert_eq!(quarantine.tag("stage"), Some("send-retry"));
    assert!(letters[0].events.iter().any(|e| e.name == "echo.publish"));
    let snap = sys.registry().snapshot();
    assert_eq!(snap.counter("echo.retry.giveup"), Some(1));
    assert_eq!(snap.counter("echo.deadletter.retry_exhausted"), Some(1));
    assert_dead_letter_books(&sys, &[creator, publisher, sink]);
    assert_horizon_unreached(&sys);
}

// ---------------------------------------------------------------------------
// Scenario 3: meta-data resolution through CRC frames under loss,
// corruption, and a partition that heals mid-resolution.
// ---------------------------------------------------------------------------

fn new_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("raw").int("scale").string("unit").build_arc().unwrap()
}

fn old_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("value").build_arc().unwrap()
}

fn retro() -> Transformation {
    Transformation::new(new_fmt(), old_fmt(), "old.value = new.raw * new.scale;")
}

/// One CRC-framed request/response round-trip over the faulty network.
/// Any drop, corruption, or partition surfaces as an `Err` for the retry
/// layer; a corrupted frame is rejected by its checksum, never parsed.
fn framed_exchange(
    net: &RefCell<Network>,
    server: &RefCell<MetaServer>,
    seq: &RefCell<u64>,
    client: simnet::NodeId,
    server_node: simnet::NodeId,
    request: Vec<u8>,
) -> morph::Result<Vec<u8>> {
    let mut net = net.borrow_mut();
    // Drain strays from failed earlier attempts (late duplicates, late
    // responses) so this round-trip starts clean.
    while let Some(d) = net.step() {
        let _ = net.recv(d.to);
    }
    let next_seq = || {
        let mut s = seq.borrow_mut();
        *s += 1;
        *s
    };
    let framed = proto::frame(
        proto::FRAME_CONTROL,
        proto::ChannelId(0),
        next_seq(),
        proto::NO_TRACE,
        &request,
    );
    net.send(client, server_node, framed)
        .map_err(|e| MorphError::Protocol(format!("send: {e}")))?;
    while let Some(d) = net.step() {
        let _ = net.recv(d.to);
        let frame = proto::unframe(&d.payload)
            .map_err(|e| MorphError::Protocol(format!("frame rejected: {e}")))?;
        if d.to == server_node {
            let resp = server.borrow_mut().handle(frame.payload)?;
            let framed = proto::frame(
                proto::FRAME_CONTROL,
                proto::ChannelId(0),
                next_seq(),
                proto::NO_TRACE,
                &resp,
            );
            net.send(server_node, client, framed)
                .map_err(|e| MorphError::Protocol(format!("send: {e}")))?;
        } else {
            return Ok(frame.payload.to_vec());
        }
    }
    Err(MorphError::Protocol("request or response lost in transit".into()))
}

/// Deterministic fingerprint of one resolution run, for cross-run equality.
fn run_resolution_chaos(seed: u64) -> Vec<(&'static str, u64)> {
    let mut net = Network::new();
    let writer = net.add_node("writer");
    let server_node = net.add_node("format-server");
    let reader = net.add_node("reader");
    net.connect(writer, server_node, LinkParams::lan());
    net.connect(reader, server_node, LinkParams::wan());
    net.connect(writer, reader, LinkParams::wan());

    let mut server = MetaServer::new();
    server.register_format(new_fmt());
    server.register_transformation(retro());

    // A message of a never-seen format reaches the reader over a clean link.
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

    // The reader↔server path is hostile: 20% loss, 10% corruption, and a
    // partition that starts *now* — the first resolution attempt fails and
    // must wait out the heal.
    let t0 = net.now_ns();
    net.set_fault_plan(
        reader,
        server_node,
        FaultPlan::new(seed)
            .drop_per_mille(200)
            .corrupt_per_mille(100)
            .partition(t0, t0 + 2_000_000),
    );

    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut rx = MorphReceiver::new();
    rx.register_handler(&old_fmt(), move |v| sink.lock().unwrap().push(v));

    // Once the partition heals an exchange still fails about half the time
    // (two hostile crossings), so the default budget of 8 runs out on
    // roughly one seed in forty. CI draws a fresh seed per run: size the
    // budget so exhaustion is out of reach (< 1e-6) for any seed. Runs
    // that resolve within the default budget are unaffected.
    let policy = RetryPolicy { budget: 24, ..RetryPolicy::with_seed(seed) };
    let net = RefCell::new(net);
    let server = RefCell::new(server);
    let seq = RefCell::new(0u64);
    let delivery = morph::process_with_resolution(
        &mut rx,
        &msg,
        &policy,
        |req| framed_exchange(&net, &server, &seq, reader, server_node, req),
        |ns| net.borrow_mut().advance_ns(ns),
    )
    .unwrap();
    assert!(matches!(delivery, morph::Delivery::Delivered(_)));
    assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(42)]));

    let snap = rx.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    // The partition covered the first attempt, so the budget was needed.
    assert!(counter("morph.resolve.retries") >= 1, "seed {seed:#x}: no retry recorded");
    assert_eq!(counter("morph.resolve.failures"), 0);
    assert!(counter("morph.resolve.resolved") >= 1);
    // Virtual time moved past the heal: the backoffs waited it out.
    assert!(net.borrow().now_ns() >= t0 + 2_000_000);

    let net = net.into_inner();
    let faults = net.fault_totals();
    vec![
        ("attempts", counter("morph.resolve.attempts")),
        ("retries", counter("morph.resolve.retries")),
        ("resolved", counter("morph.resolve.resolved")),
        ("dropped", faults.dropped),
        ("corrupted", faults.corrupted),
        ("partition_blocked", faults.partition_blocked),
        ("now_ns", net.now_ns()),
    ]
}

/// The paper's out-of-band meta-data fetch, on a link that loses, corrupts,
/// and partitions: resolution succeeds after the heal within the retry
/// budget, and the whole fault/retry history replays identically per seed.
#[test]
fn resolution_survives_partition_heal_and_lossy_links() {
    for seed in seeds() {
        let first = run_resolution_chaos(seed);
        let second = run_resolution_chaos(seed);
        // No system registry or recorder here: the fingerprint is the run.
        dump("resolution", seed, &format!("{first:?}"), "", "");
        assert_eq!(first, second, "seed {seed:#x}: non-deterministic resolution");
    }
}

// ---------------------------------------------------------------------------
// Scenario 5: fragmented events under loss, duplication, and reordering —
// bounded reassembly completes or dead-letters every message, exactly.
// ---------------------------------------------------------------------------

fn blob_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
}

/// A payload big enough to split into several fragments under the
/// scenario's 96-byte budget, with content derived from `n` so a
/// misassembled delivery cannot masquerade as a correct one.
fn blob(n: i64) -> Value {
    Value::Record(vec![Value::Int(n), Value::str(format!("{n:03}~").repeat(110))])
}

const FRAG_EVENTS: u64 = 10;
const FRAG_TIMEOUT_NS: u64 = 50_000_000;

/// What one fragmentation run produced, for cross-run byte-equality.
struct FragRun {
    snapshot: String,
    chrome: String,
    delivered: Vec<i64>,
    partials: u64,
}

fn run_fragmentation_chaos(seed: u64) -> FragRun {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    let fmt = blob_fmt();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    // Every event (~450 encoded bytes) splits into ≥5 fragments; the
    // reassembly buffer is bounded and partial sets expire on the virtual
    // clock.
    sys.set_frame_budget(Some(96));
    sys.set_reassembly_limits(16, FRAG_TIMEOUT_NS);
    sys.set_fault_plan(
        publisher,
        sink,
        FaultPlan::new(seed)
            .drop_per_mille(100)
            .duplicate_per_mille(150)
            .reorder_per_mille(250, 300_000)
            .jitter_ns(40_000),
    );

    for n in 0..FRAG_EVENTS {
        sys.publish(publisher, ch, &fmt, &blob(n as i64)).unwrap();
    }
    sys.run();
    // Let the stragglers' partial sets hit the reassembly timeout.
    sys.advance_ns(2 * FRAG_TIMEOUT_NS);
    sys.run();

    let faults = sys.fault_totals();
    if curated(seed) {
        assert!(faults.dropped > 0, "seed {seed:#x}: no drops");
        assert!(faults.duplicated > 0, "seed {seed:#x}: no duplicates");
        assert!(faults.reordered > 0, "seed {seed:#x}: no reordering");
    }

    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    // The exact accounting identity, fragment by fragment: what was put
    // on the wire, less what the link dropped, plus what it duplicated,
    // arrived — and every arrival was either accepted into a set or
    // suppressed as a duplicate. Nothing vanishes.
    let frag_sent = counter("echo.frag.sent");
    assert_eq!(
        frag_sent - faults.dropped + faults.duplicated,
        counter("echo.frag.received") + counter("echo.dedup.dropped"),
        "seed {seed:#x}: fragment books do not balance"
    );
    // Message by message: reassembled and delivered, dead-lettered as a
    // partial set, or shed by a full queue (none here). The Reliable
    // tier does not retransmit in-flight loss, so one more fate exists —
    // a message whose *every* fragment the link dropped never reaches the
    // receiver at all. The curated seeds have none; an arbitrary seed can
    // (about one in 10^4), and each such message costs a full set of drops.
    let delivered = counter("echo.events.delivered");
    let partials = counter("echo.deadletter.partial_fragments");
    let shed = counter("echo.queue.shed");
    let never_arrived = FRAG_EVENTS - (delivered + partials + shed);
    assert!(
        never_arrived * (frag_sent / FRAG_EVENTS) <= faults.dropped,
        "seed {seed:#x}: {delivered} delivered + {partials} partial + {shed} shed != {FRAG_EVENTS}, \
         and {} drops cannot account for the rest",
        faults.dropped
    );
    if curated(seed) {
        assert_eq!(never_arrived, 0, "seed {seed:#x}: a whole message was lost in flight");
        assert!(partials > 0, "seed {seed:#x}: the drop rate must maim at least one message");
        assert!(delivered > 0, "seed {seed:#x}: at least one message must survive");
    }
    assert_eq!(counter("echo.frag.timeout"), partials, "every partial died by timeout");
    assert_eq!(counter("echo.frag.evicted"), 0, "the buffer bound was never hit");
    assert_eq!(counter("echo.frag.reassembled"), delivered);
    assert!(counter("echo.frag.sent") >= 5 * FRAG_EVENTS);

    // The sweep leaves no orphan state behind.
    assert_eq!(sys.reassembly_depth(sink), 0);
    assert_eq!(snap.gauge("echo.frag.buffered"), Some(0));

    // Delivered payloads are byte-exact: a subset of the published
    // messages, each at most once, every reassembly faithful.
    let mut seen = HashSet::new();
    let delivered_ns: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(c, v)| {
            assert_eq!(c, ch);
            let n = v.field(&fmt, "n").unwrap().as_i64().unwrap();
            assert_eq!(v, blob(n), "seed {seed:#x}: reassembled content differs for {n}");
            assert!(seen.insert(n), "seed {seed:#x}: message {n} delivered twice");
            n
        })
        .collect();
    assert_eq!(delivered_ns.len() as u64, delivered);

    // Each partial is inspectable: the reason, the missing-fragment
    // detail, and the frozen trace of the maimed message.
    let letters: Vec<_> = sys
        .dead_letters(sink)
        .into_iter()
        .filter(|l| l.reason == morph::DeadReason::PartialFragments)
        .collect();
    assert_eq!(letters.len() as u64, partials);
    for letter in &letters {
        assert!(letter.detail.contains("reassembly timeout"), "detail: {}", letter.detail);
        assert!(letter.trace.is_some(), "partial dead letter without trace context");
        let quarantine = letter
            .events
            .iter()
            .find(|e| e.name == "echo.quarantine")
            .expect("partial dead letter lacks the quarantine instant");
        assert_eq!(quarantine.tag("stage"), Some("reassembly"));
    }

    assert_dead_letter_books(&sys, &[creator, publisher, sink]);
    assert_horizon_unreached(&sys);
    dump_system("fragmentation", seed, &sys, &[creator, publisher, sink]);
    FragRun {
        snapshot: snap.to_text(),
        chrome: sys.recorder().chrome_json(),
        delivered: delivered_ns,
        partials,
    }
}

/// Fragmented publishes under drop + duplicate + reorder faults: bounded
/// reassembly delivers every completable message byte-exactly, times the
/// rest out into the dead-letter queue as `partial_fragments`, the books
/// balance to the message (delivered + partial + shed = sent), and the
/// whole run — snapshot and trace export — replays byte-identically per
/// seed.
#[test]
fn fragmented_publish_survives_loss_and_reorder_deterministically() {
    for seed in seeds() {
        let first = run_fragmentation_chaos(seed);
        let second = run_fragmentation_chaos(seed);
        assert_eq!(first.snapshot, second.snapshot, "seed {seed:#x}: non-deterministic snapshot");
        assert_eq!(first.chrome, second.chrome, "seed {seed:#x}: non-deterministic trace export");
        assert_eq!(first.delivered, second.delivered);
        assert_eq!(first.partials, second.partials);
    }
}

// ---------------------------------------------------------------------------
// Scenario 6: load ramp past the drain rate on a partitioned link — the
// retry queue holds its fixed bound, sheds the oldest event frames past it
// with sender-side accounting, and the whole run replays byte-identically.
// ---------------------------------------------------------------------------

const OVERLOAD_ROUNDS: u64 = 4;
const OVERLOAD_RETRY_CAP: usize = 16;

/// What one overload run produced, for cross-run byte-equality.
struct OverloadRun {
    snapshot: String,
    chrome: String,
    delivered: Vec<i64>,
    shed: u64,
}

fn run_overload_chaos(seed: u64) -> OverloadRun {
    // The first backoff (10 ms + seeded jitter) outlasts the 2 ms ramp,
    // so no retry fires while the load is offered.
    let mut sys = EchoSystem::with_config(EchoConfig {
        retry_policy: RetryPolicy {
            budget: 8,
            base_backoff_ns: 10_000_000,
            max_backoff_ns: 50_000_000,
            jitter_seed: seed,
        },
        retry_queue_capacity: OVERLOAD_RETRY_CAP,
    });
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    let fmt = tick_format();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    // Partition the event path, then ramp the offered load: each round
    // publishes a bigger burst while the drain rate is pinned at zero.
    sys.set_link_up(publisher, sink, false);
    let mut published = 0i64;
    for round in 0..OVERLOAD_ROUNDS {
        for _ in 0..(4 * (round + 1)) {
            sys.publish(publisher, ch, &fmt, &tick(published)).unwrap();
            published += 1;
        }
        sys.advance_ns(500_000);
    }
    assert_eq!(published, 40);

    // Mid-overload: the queue filled to its bound and every admission
    // past it shed one queued frame.
    let mid = sys.registry().snapshot();
    let shed_mid = mid.counter("echo.queue.shed").unwrap_or(0);
    assert_eq!(
        (sys.pending_retries(), shed_mid),
        (OVERLOAD_RETRY_CAP, 40 - OVERLOAD_RETRY_CAP as u64),
        "seed {seed:#x}: queue + shed must be the bound + the overflow"
    );

    // Heal before the first retry fires: the queued survivors drain.
    sys.set_link_up(publisher, sink, true);
    sys.run();
    assert_eq!(sys.pending_retries(), 0, "seed {seed:#x}: retries left behind");
    let snap = sys.registry().snapshot();
    let shed = snap.counter("echo.queue.shed").unwrap_or(0);
    assert_eq!(shed, shed_mid, "seed {seed:#x}: the heal shed more");
    let chrome = sys.recorder().chrome_json();

    // Accounting: every published event either delivered after the heal
    // or was shed at the bound. Nothing vanishes, and shedding took the
    // oldest frames, so the newest ones arrive in publish order.
    let delivered: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(c, v)| {
            assert_eq!(c, ch);
            v.field(&fmt, "n").unwrap().as_i64().unwrap()
        })
        .collect();
    assert_eq!(
        delivered.len() as u64 + shed,
        40,
        "seed {seed:#x}: {} delivered + {shed} shed != 40",
        delivered.len()
    );
    let survivors: Vec<i64> = (40 - OVERLOAD_RETRY_CAP as i64..40).collect();
    assert_eq!(delivered, survivors, "seed {seed:#x}: the newest frames survive");
    let shed_letters =
        sys.dead_letters(publisher).into_iter().filter(|l| l.reason == DeadReason::Shed).count()
            as u64;
    assert_eq!(shed_letters, shed, "seed {seed:#x}: every shed frame quarantines at the sender");

    assert_dead_letter_books(&sys, &[creator, publisher, sink]);
    assert_horizon_unreached(&sys);
    dump_system("overload", seed, &sys, &[creator, publisher, sink]);
    OverloadRun { snapshot: snap.to_text(), chrome, delivered, shed }
}

/// A load ramp past the drain rate on a partitioned link: the retry queue
/// fills to its fixed bound, sheds the overflow oldest-first with
/// sender-side accounting, delivers the survivors after the heal — and two
/// runs of the same seed replay the whole story byte-for-byte.
#[test]
fn load_ramp_adapts_shedding_deterministically() {
    for seed in seeds() {
        let first = run_overload_chaos(seed);
        let second = run_overload_chaos(seed);
        assert_eq!(first.snapshot, second.snapshot, "seed {seed:#x}: non-deterministic snapshot");
        assert_eq!(first.chrome, second.chrome, "seed {seed:#x}: non-deterministic trace export");
        assert_eq!(first.delivered, second.delivered);
        assert_eq!(first.shed, second.shed);
    }
}

// ---------------------------------------------------------------------------
// Scenario 7: crash-restart storm — amnesia, durable journals, epoch-fenced
// resumption. Processes die and come back mid-conversation while the link
// drops, duplicates, and reorders; the Reliable tier must still deliver
// every published event exactly once.
// ---------------------------------------------------------------------------

/// The acceptance seeds for the crash-restart storm (fixed by the issue:
/// byte-identical across 1/7/42 on the virtual-time driver).
const STORM_SEEDS: [u64; 3] = [1, 7, 42];
const STORM_EVENTS: i64 = 40;
const MS: u64 = 1_000_000;

/// What one storm run produced, for cross-run byte-equality.
struct StormRun {
    snapshot: String,
    chrome: String,
    delivered: Vec<i64>,
}

fn run_crash_restart_storm(seed: u64) -> StormRun {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    // The durable journal is what carries exactly-once across the crashes:
    // Sent/Seen entries are WAL-forced, acks and watermarks ride a 4-entry
    // fsync batch (losing one only costs a redundant, dedup-absorbed
    // redelivery).
    sys.enable_journaling(4);

    let fmt = tick_format();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();

    // Baseline after the control plane settles: every frame that enters
    // the wire from here on is an event frame, a resume handshake, or a
    // fault-injected copy of one — which is what lets the books below
    // balance to zero.
    let base = sys.registry().snapshot();

    // The event plane is hostile for the whole storm.
    sys.set_fault_plan(
        publisher,
        sink,
        FaultPlan::new(seed)
            .drop_per_mille(150)
            .duplicate_per_mille(200)
            .reorder_per_mille(250, 700_000)
            .jitter_ns(60_000),
    );

    // Phase A — the subscriber dies first. Every publish parks (the peer
    // is inside a crash window: no backoff attempts are burned) and flows
    // after its scheduled restart.
    let t = sys.now_ns();
    sys.set_crash_windows(sink, &[(t, t + 2 * MS)]);
    for n in 0..10 {
        sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
    }
    assert_eq!(sys.pending_retries(), 10, "seed {seed:#x}: sends to a crashed peer park");
    sys.run();

    // Phase B — the storm proper: the publisher double-crashes (the second
    // window opens while redeliveries to the still-down subscriber are
    // parked, so the retry queue dies with the process) and the subscriber
    // crashes again inside the publisher's outage.
    for n in 10..20 {
        sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
    }
    let t = sys.now_ns();
    sys.set_crash_windows(publisher, &[(t, t + MS), (t + 3 * MS / 2, t + 5 * MS / 2)]);
    sys.set_crash_windows(sink, &[(t + MS / 2, t + 3 * MS)]);
    sys.run();

    // Phase C — the fencing race: the publisher dies with this burst
    // still in flight to the live subscriber and restarts before the
    // slowest reordered/duplicated copies land. Its resume handshake
    // (carrying the new epoch) overtakes them, so the stragglers from the
    // dead incarnation arrive behind the fence and are quarantined as
    // `stale_epoch` — redelivery under the new epoch covers any of them
    // that had not already been delivered.
    for n in 20..30 {
        sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
    }
    let t = sys.now_ns();
    sys.set_crash_windows(publisher, &[(t, t + 3 * MS / 10)]);
    sys.run();

    // Phase D — last burst, then the storm ends: the link heals and one
    // final publisher crash-restart redelivers every still-unacked frame
    // over clean links. Loss ends here; dedup absorbs the redundancy.
    for n in 30..40 {
        sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
    }
    sys.run();
    sys.clear_fault_plan(publisher, sink);
    let t = sys.now_ns();
    sys.set_crash_windows(publisher, &[(t, t + MS)]);
    sys.run();

    let snap = sys.registry().snapshot();
    let delta = |name: &str| snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0);

    if std::env::var("STORM_DEBUG").is_ok() {
        for name in [
            "simnet.messages",
            "simnet.fault.dropped",
            "simnet.fault.duplicated",
            "simnet.fault.reordered",
            "simnet.crash.dropped",
            "simnet.crash.blocked",
            "echo.events.delivered",
            "echo.dedup.dropped",
            "echo.epoch.fenced",
            "echo.epoch.resumed",
            "echo.epoch.handshakes",
            "echo.crash.lost.dedup",
            "echo.crash.lost.retry",
            "echo.crash.lost.decisions",
            "echo.retry.parked",
            "echo.retry.giveup",
            "echo.journal.appended",
            "echo.journal.lost",
            "echo.journal.replayed",
            "echo.journal.redelivered",
            "echo.queue.shed",
            "echo.deadletter.crash_lost",
            "echo.deadletter.stale_epoch",
        ] {
            eprintln!("seed {seed:#x}: {name} = {}", delta(name));
        }
    }

    // The storm actually stormed: every fault class fired, at least one
    // dead incarnation's straggler hit the fence, and both processes went
    // through their scheduled incarnations (four for the publisher, two
    // for the subscriber — each epoch is peer-visible).
    assert!(delta("simnet.fault.dropped") > 0, "seed {seed:#x}: no drops");
    assert!(delta("simnet.fault.duplicated") > 0, "seed {seed:#x}: no duplicates");
    assert!(delta("simnet.fault.reordered") > 0, "seed {seed:#x}: no reordering");
    assert!(delta("echo.epoch.fenced") > 0, "seed {seed:#x}: no stale-epoch frame was fenced");
    assert_eq!(sys.epoch_of(publisher), 4, "seed {seed:#x}");
    assert_eq!(sys.epoch_of(sink), 2, "seed {seed:#x}");
    assert_eq!(sys.epoch_of(creator), 0, "seed {seed:#x}");
    assert_eq!(delta("echo.crash.down"), 6);
    assert_eq!(delta("echo.crash.restarts"), 6);

    // The recovery machinery all saw action: parking instead of backoff
    // burn, journal replay and redelivery, retry-queue amnesia.
    assert!(delta("echo.retry.parked") >= 10, "seed {seed:#x}: no parked sends");
    assert_eq!(delta("echo.retry.giveup"), 0, "seed {seed:#x}: a parked frame gave up");
    assert!(delta("echo.journal.replayed") > 0, "seed {seed:#x}: no journal replay");
    assert!(delta("echo.journal.redelivered") > 0, "seed {seed:#x}: no redeliveries");
    assert!(delta("echo.crash.lost.retry") > 0, "seed {seed:#x}: retry queue survived a crash");
    assert!(delta("echo.crash.lost.dedup") > 0, "seed {seed:#x}: dedup window survived a crash");

    // Exactly-once across five crash-restarts: every published value
    // reaches the application exactly once — zero lost, zero doubled.
    let delivered_ns: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(c, v)| {
            assert_eq!(c, ch);
            v.field(&fmt, "n").unwrap().as_i64().unwrap()
        })
        .collect();
    let mut sorted = delivered_ns.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..STORM_EVENTS).collect::<Vec<_>>(),
        "seed {seed:#x}: Reliable exactly-once broken by the storm"
    );
    assert_eq!(delta("echo.events.delivered"), STORM_EVENTS as u64);

    // The full accounting identity. `sent` is every event-frame copy the
    // wire carried (fault duplicates included) minus the copies the wire
    // itself dropped and the resume handshakes; each surviving copy is
    // delivered, deduplicated, epoch-fenced, or lost to a crashed process
    // (discarded in flight at a down node) — shed stays zero, and nothing
    // else exists.
    let crash_lost = delta("simnet.crash.dropped");
    let sent =
        delta("simnet.messages") - delta("simnet.fault.dropped") - delta("echo.epoch.handshakes");
    let delivered = delta("echo.events.delivered");
    let deduped = delta("echo.dedup.dropped");
    let fenced = delta("echo.epoch.fenced");
    let shed = delta("echo.queue.shed");
    assert_eq!(
        delivered + deduped + fenced + crash_lost + shed,
        sent,
        "seed {seed:#x}: {delivered} delivered + {deduped} deduped + {fenced} fenced \
         + {crash_lost} crash_lost + {shed} shed != {sent} sent"
    );
    // Every fenced frame is inspectable in quarantine under `stale_epoch`.
    assert_eq!(delta("echo.deadletter.stale_epoch"), fenced);

    assert_dead_letter_books(&sys, &[creator, publisher, sink]);
    assert_horizon_unreached(&sys);
    dump_system("crash_restart_storm", seed, &sys, &[creator, publisher, sink]);
    StormRun {
        snapshot: snap.to_text(),
        chrome: sys.recorder().chrome_json(),
        delivered: delivered_ns,
    }
}

/// Six crash-restarts (publisher ×4, subscriber ×2) under drop +
/// duplicate + reorder faults: amnesia erases the volatile state (counted
/// and dead-lettered), the journal's synced prefix rebuilds the Reliable
/// contract, epoch fences keep dead incarnations' frames out, every event
/// is delivered exactly once, the books balance to the frame — and the
/// whole run replays byte-identically per seed.
#[test]
fn crash_restart_storm_recovers_exactly_once_deterministically() {
    for seed in STORM_SEEDS {
        let first = run_crash_restart_storm(seed);
        let second = run_crash_restart_storm(seed);
        assert_eq!(first.snapshot, second.snapshot, "seed {seed:#x}: non-deterministic snapshot");
        assert_eq!(first.chrome, second.chrome, "seed {seed:#x}: non-deterministic trace export");
        assert_eq!(first.delivered, second.delivered, "seed {seed:#x}: non-deterministic delivery");
        // The crash lifecycle is visible in the trace plane: parked sends
        // and crash-stage quarantines carry their own instants.
        assert!(first.chrome.contains("echo.retry.parked"), "parked sends are trace-visible");
    }
}
