//! End-to-end checks of the observability layer (`crates/obs`) against the
//! paper's claims:
//!
//! - Algorithm 2 lines 6–9: the **first** message in an unknown format pays
//!   the full cold path (decision-cache miss, MaxMatch, transformation
//!   compile, conversion-plan compile); every identical message after it is
//!   a pure decision-cache hit.
//! - Registries driven by simnet's virtual clock produce **deterministic**
//!   snapshots: identical runs render byte-identical text and JSON.
//! - The `morph.*` and `pbio.*` sections of `OBSERVABILITY.md`, its
//!   `echo.*` sections and its `simnet.*` sections list exactly the names
//!   those layers register.

use std::collections::BTreeSet;
use std::sync::Arc;

use echo::{EchoSystem, EchoVersion, QosTier, Role, WallClockDriver};
use morph::{
    DeadLetterQueue, DeadReason, MetaServer, MorphReceiver, ResolverConfig, ResolverPool,
    RetryPolicy, Transformation,
};
use obs::{Registry, VirtualClock};
use pbio::{Encoder, FormatBuilder, Value};

/// v2 format, v1 receiver: exactly one miss, then only hits.
#[test]
fn first_message_cold_rest_warm() {
    let v2 = FormatBuilder::record("Load").int("cpu").int("mem").int("net").build_arc().unwrap();
    let v1 = FormatBuilder::record("Load").int("cpu").int("mem").build_arc().unwrap();

    let mut rx = MorphReceiver::new();
    rx.register_handler(&v1, |_| {});
    rx.import_transformation(Transformation::new(
        v2.clone(),
        v1.clone(),
        "old.cpu = new.cpu; old.mem = new.mem;",
    ));
    let wire = Encoder::new(&v2)
        .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
        .unwrap();

    // Cold: the first v2 message misses the decision cache and records one
    // sample in every compile histogram.
    rx.process(&wire).unwrap();
    let cold = rx.registry().snapshot();
    assert_eq!(cold.counter("morph.decision.miss"), Some(1));
    assert_eq!(cold.counter("morph.decision.hit"), Some(0));
    assert_eq!(cold.counter("morph.decision.morph"), Some(1));
    assert_eq!(cold.counter("morph.compile.count"), Some(1));
    assert_eq!(cold.histogram("morph.decide_ns").unwrap().count, 1);
    assert_eq!(cold.histogram("morph.compile_ns").unwrap().count, 1);
    // …the plan compile being the projected decode the decision runs, booked
    // through the plan cache; and the cold pass is one VM pass like any other.
    assert_eq!(cold.histogram("pbio.plan.compile_ns").unwrap().count, 1);
    assert_eq!(cold.counter("pbio.plan.miss"), Some(1));
    assert_eq!(cold.counter("morph.vm.register.apply"), Some(1));
    assert!(cold.counter("morph.maxmatch.candidates").unwrap() >= 1);

    // Warm: the next 100 messages only hit the cache — no new misses,
    // no new compiles, one process_ns sample each.
    for _ in 0..100 {
        rx.process(&wire).unwrap();
    }
    let warm = rx.registry().snapshot();
    assert_eq!(warm.counter("morph.decision.miss"), Some(1), "no second miss");
    assert_eq!(warm.counter("morph.decision.hit"), Some(100));
    assert_eq!(warm.counter("morph.compile.count"), Some(1), "no recompiles");
    assert_eq!(warm.histogram("morph.decide_ns").unwrap().count, 1);
    assert_eq!(warm.histogram("morph.compile_ns").unwrap().count, 1);
    assert_eq!(warm.histogram("morph.process_ns").unwrap().count, 100);
    assert_eq!(warm.histogram("pbio.plan.compile_ns").unwrap().count, 1);
    // Each warm replay books its decode as part of its `morph.process_ns`
    // interval; the cold pass — the same plan, timed as part of the
    // decision — did not.
    assert_eq!(warm.histogram("pbio.decode_ns").unwrap().count, 100);
    assert_eq!(warm.counter("morph.vm.register.apply"), Some(101));
    assert_eq!(warm.counter("morph.messages"), Some(101));
}

/// A registry on a virtual clock is fully deterministic: counters count,
/// timers measure virtual time, and two identical runs render identical
/// snapshots.
#[test]
fn virtual_time_snapshots_are_deterministic() {
    let run = || {
        let clock = VirtualClock::new();
        let registry = Registry::with_clock(Arc::new(clock.clone()));
        let sent = registry.counter("app.sent");
        let phase = registry.histogram("app.phase_ns");
        for step in 1..=5u64 {
            let timer = obs::Timer::start(Arc::clone(&phase), registry.clock());
            clock.advance_ns(step * 1_000);
            drop(timer);
            sent.inc();
        }
        let snap = registry.snapshot();
        (snap.to_text(), snap.to_json())
    };
    let (text_a, json_a) = run();
    let (text_b, json_b) = run();
    assert_eq!(text_a, text_b);
    assert_eq!(json_a, json_b);
    assert!(text_a.contains("# snapshot at 15000 ns"), "virtual time stamps: {text_a}");
    assert!(text_a.contains("app.sent"));
}

/// The echo system registry runs on the network's virtual clock, so a whole
/// pub/sub interop run — version morphing included — snapshots identically
/// across repeats.
#[test]
fn echo_system_snapshots_are_deterministic() {
    let run = || {
        let mut sys = EchoSystem::new();
        let creator = sys.add_process("creator", EchoVersion::V2);
        let publisher = sys.add_process("pub", EchoVersion::V2);
        let sink = sys.add_process("sink", EchoVersion::V1);
        sys.connect_all(simnet::LinkParams::lan());
        let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
        let ch = sys.create_channel(creator);
        sys.subscribe(publisher, ch, Role::source(), None).unwrap();
        sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        for n in 0..10 {
            sys.publish(publisher, ch, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
        }
        sys.run();
        assert_eq!(sys.take_events(sink).len(), 10);
        sys.registry().snapshot().to_text()
    };
    let a = run();
    assert_eq!(a, run());
    assert!(a.contains("echo.events.delivered"));
    assert!(a.contains("simnet.bytes"));
}

/// Names registered under `registry`, as the snapshot lists them.
fn names_in(registry: &Registry, into: &mut BTreeSet<String>) {
    let snap = registry.snapshot();
    into.extend(snap.counters.into_iter().map(|(name, _)| name));
    into.extend(snap.gauges.into_iter().map(|(name, _)| name));
    into.extend(snap.histograms.into_iter().map(|(name, _)| name));
}

/// The metric names the given `###` sections of OBSERVABILITY.md tabulate.
/// A row's first cell holds one or more backticked names; one that starts
/// with a dot replaces the last segment of the row's first name
/// (`` `a.b.c` / `.d` `` is `a.b.c` and `a.b.d`). `<reason>` stands for
/// every dead-letter reason, and each placeholder of `expand` for each of
/// its values.
fn catalogued(sections: &[&str], expand: &[(&str, Vec<String>)]) -> BTreeSet<String> {
    let reasons = ("<reason>", DeadReason::ALL.map(|r| r.label().to_string()).to_vec());
    let mut names = BTreeSet::new();
    let mut inside = false;
    for line in include_str!("../OBSERVABILITY.md").lines() {
        if line.starts_with("### ") {
            inside = sections.iter().any(|s| line.starts_with(s));
        }
        if !inside || !line.starts_with("| `") {
            continue;
        }
        let cell = line.split('|').nth(1).expect("a first cell");
        let mut quoted = cell.split('`').skip(1).step_by(2);
        let first = quoted.next().expect("a name in the first cell");
        let stem = first.rsplit_once('.').expect("a dotted name").0;
        for entry in std::iter::once(first).chain(quoted) {
            let name =
                if entry.starts_with('.') { format!("{stem}{entry}") } else { entry.to_string() };
            let mut row = vec![name];
            for (placeholder, values) in std::iter::once(&reasons).chain(expand) {
                row = row
                    .into_iter()
                    .flat_map(|name| match name.contains(placeholder) {
                        true => values.iter().map(|v| name.replace(placeholder, v)).collect(),
                        false => vec![name],
                    })
                    .collect();
            }
            names.extend(row);
        }
    }
    names
}

/// Fails, naming the difference, unless every registered name has its row
/// and every row its registrant.
fn assert_catalogued(registered: &BTreeSet<String>, catalogued: &BTreeSet<String>) {
    let uncatalogued: Vec<_> = registered.difference(catalogued).collect();
    let unregistered: Vec<_> = catalogued.difference(registered).collect();
    assert!(
        uncatalogued.is_empty() && unregistered.is_empty(),
        "registered without an OBSERVABILITY.md row: {uncatalogued:?}\n\
         catalogued but registered by nothing: {unregistered:?}"
    );
}

/// The catalogue checks itself, `morph.*` and `pbio.*` sections: a system
/// with its switches on, a receiver resolving through a `ResolverPool`, and
/// a standalone dead-letter queue register every `morph.*` / `pbio.*` /
/// `ecode.*` name there is — each must have its row, and each row its
/// registrant.
#[test]
fn the_morph_and_pbio_catalogue_sections_list_what_is_registered() {
    let mut registered = BTreeSet::new();

    let mut sys = EchoSystem::new();
    sys.enable_shared_morph_caches();
    sys.enable_adaptive_shedding();
    sys.enable_journaling(1);
    sys.enable_link_monitors(8, 1_000_000);
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V1);
    sys.connect_all(simnet::LinkParams::lan());
    let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();
    for n in 0..3 {
        sys.publish(publisher, ch, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
    }
    sys.run();
    assert_eq!(sys.take_events(sink).len(), 3);
    for p in [creator, publisher, sink] {
        names_in(sys.control_registry(p), &mut registered);
        if let Some(events) = sys.event_registry(p, ch) {
            names_in(events, &mut registered);
        }
    }

    let v2 = FormatBuilder::record("Load").int("cpu").int("mem").build_arc().unwrap();
    let v1 = FormatBuilder::record("Load").int("cpu").build_arc().unwrap();
    let mut server = MetaServer::new();
    server.register_transformation(Transformation::new(
        v2.clone(),
        v1.clone(),
        "old.cpu = new.cpu;",
    ));
    let mut rx = MorphReceiver::new();
    rx.register_handler(&v1, |_| {});
    let clock: Arc<dyn obs::Clock> = Arc::new(VirtualClock::new());
    let mut pool = ResolverPool::new(2, ResolverConfig::default(), clock, rx.registry());
    let _dlq = DeadLetterQueue::with_registry(4, rx.registry(), "morph.deadletter");
    let wire =
        Encoder::new(&v2).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
    pool.process(
        &mut rx,
        &wire,
        &RetryPolicy::default(),
        |_, req| server.handle(&req),
        |_| {},
        None,
    )
    .unwrap();
    names_in(rx.registry(), &mut registered);

    registered.retain(|name| ["morph.", "pbio.", "ecode."].iter().any(|p| name.starts_with(p)));
    assert_catalogued(&registered, &catalogued(&["### `morph.*`", "### `pbio.*`"], &[]));
}

/// The catalogue checks itself, `echo.*` sections: a system with every
/// opt-in on — shared caches, adaptive shedding, journaling, link monitors,
/// self-telemetry — that runs traffic and one wall-clock round registers
/// every `echo.*` name there is, in the system registry and in each
/// process's control and event registries: each must have its row, and
/// each row its registrant.
#[test]
fn the_echo_catalogue_sections_list_what_is_registered() {
    const SHARDS: usize = 2;
    let mut sys = EchoSystem::new();
    sys.enable_shared_morph_caches();
    sys.enable_adaptive_shedding();
    sys.enable_journaling(1);
    sys.enable_link_monitors(8, 1_000_000);
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V1);
    let procs = [creator, publisher, sink];
    sys.connect_all(simnet::LinkParams::lan());
    let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let work = sys.create_channel(creator);
    let tele = sys.create_channel(creator);
    sys.subscribe(publisher, work, Role::source(), None).unwrap();
    sys.subscribe(sink, work, Role::sink(), Some(&fmt)).unwrap();
    sys.subscribe(sink, tele, Role::sink(), Some(&echo::telemetry::telemetry_format_v2())).unwrap();
    sys.run();
    sys.enable_self_telemetry(creator, tele, 300_000);
    for n in 0..10 {
        sys.publish(publisher, work, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
        sys.run();
    }
    sys.publish(publisher, work, &fmt, &Value::Record(vec![Value::Int(10)])).unwrap();
    sys.run_with(&mut WallClockDriver::new(SHARDS));
    assert_eq!(sys.take_events(sink).iter().filter(|(ch, _)| *ch == work).count(), 11);

    let mut registered = BTreeSet::new();
    names_in(sys.registry(), &mut registered);
    for p in procs {
        names_in(sys.control_registry(p), &mut registered);
        for ch in [work, tele] {
            if let Some(events) = sys.event_registry(p, ch) {
                names_in(events, &mut registered);
            }
        }
    }
    registered.retain(|name| name.starts_with("echo."));
    let catalogued = catalogued(
        &[
            "### `echo.*`",
            "### `echo.stage.*`",
            "### `echo.adaptive.*`",
            "### `echo.channel.*` / `echo.frag.*`",
            "### `echo.shard.*`",
        ],
        &[
            ("<id>", vec![work.0.to_string(), tele.0.to_string()]),
            ("<tier>", QosTier::ALL.map(|t| t.label().to_string()).to_vec()),
            ("<queue>", ["retry", "ingress", "mailbox"].map(String::from).to_vec()),
            ("<i>", (0..SHARDS).map(|i| i.to_string()).collect()),
        ],
    );
    assert_catalogued(&registered, &catalogued);
}

/// The catalogue checks itself, `simnet.*` sections: a two-node network
/// attached to a registry, with link monitors, a fault plan and a crash
/// window, that carries traffic both ways registers every `simnet.*` name
/// there is — each must have its row, and each row its registrant.
#[test]
fn the_simnet_catalogue_sections_list_what_is_registered() {
    let mut net = simnet::Network::new();
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, simnet::LinkParams::lan());
    let registry = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
    net.attach_registry(Arc::clone(&registry));
    net.enable_link_monitors(8, 1_000_000);
    let faults = simnet::FaultPlan::new(7).drop_per_mille(100).duplicate_per_mille(100);
    net.set_fault_plan(a, b, faults.partition(2_000_000, 3_000_000));
    net.set_crash_windows(b, &[(4_000_000, 5_000_000)]);
    for _ in 0..60 {
        // Refusals inside the partition or the crash window are counted.
        let _ = net.send(a, b, vec![0u8; 64]);
        let _ = net.send(b, a, vec![0u8; 64]);
        net.advance_ns(100_000);
        while net.step().is_some() {}
    }

    let mut registered = BTreeSet::new();
    names_in(&registry, &mut registered);
    registered.retain(|name| name.starts_with("simnet."));
    let links = ("<from>-><to>", vec!["a->b".to_string(), "b->a".to_string()]);
    assert_catalogued(
        &registered,
        &catalogued(&["### `simnet.*`", "### `simnet.link.*` monitors"], &[links]),
    );
}
