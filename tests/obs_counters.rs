//! End-to-end checks of the observability layer (`crates/obs`) against the
//! paper's claims:
//!
//! - Algorithm 2 lines 6–9: the **first** message in an unknown format pays
//!   the full cold path (decision-cache miss, MaxMatch, transformation
//!   compile, conversion-plan compile); every identical message after it is
//!   a pure decision-cache hit.
//! - Registries driven by simnet's virtual clock produce **deterministic**
//!   snapshots: identical runs render byte-identical text and JSON.
//! - An ECho process has one wall-clock registry, shared by its control
//!   plane, its event planes and its stage timings.
//! - The `morph.*` and `pbio.*` sections of `OBSERVABILITY.md`, its
//!   `echo.*` sections and its `simnet.*` sections list exactly the names
//!   those layers register.
//! - The switch tables of `ARCHITECTURE.md` list exactly `EchoConfig`'s
//!   fields and `EchoSystem`'s `set_*` / `enable_*` methods.
//! - Every span and instant name in `OBSERVABILITY.md`'s span vocabulary
//!   is one the product code can record, and every metric or span name
//!   the product code spells out is catalogued there.

use std::collections::BTreeSet;
use std::sync::Arc;

use echo::{EchoConfig, EchoSystem, EchoVersion, QosTier, Role, WallClockDriver};
use morph::{DeadReason, MetaServer, MorphReceiver, RetryPolicy, Transformation};
use obs::{Registry, Snapshot, VirtualClock};
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

/// A process reports into one wall-clock registry: its control plane, its
/// event planes on two channels and its stage timings all count there.
#[test]
fn a_process_reports_into_one_registry() {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V1);
    sys.connect_all(simnet::LinkParams::lan());
    let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let channels = [sys.create_channel(creator), sys.create_channel(creator)];
    for ch in channels {
        sys.subscribe(publisher, ch, Role::source(), None).unwrap();
        sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    }
    sys.run();

    let registry = Arc::clone(sys.control_registry(sink));
    for ch in channels {
        assert!(Arc::ptr_eq(&registry, sys.event_registry(sink, ch).unwrap()));
    }
    // So far the sink's messages are the membership responses its control
    // plane morphed, one per channel joined.
    let control = registry.counter("morph.messages").get();
    assert_eq!(control, 2);
    for (n, ch) in (0..120).zip(channels.into_iter().cycle()) {
        sys.publish(publisher, ch, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
    }
    sys.run();
    let events = sys.take_events(sink);
    assert_eq!(events.len(), 120);
    assert_eq!(events.iter().filter(|(ch, _)| *ch == channels[1]).count(), 60);
    // The publisher, the second process, numbers its frames and trace ids
    // from 1 << 48. Its two subscribes took four, and each traced publish
    // takes a trace id and then its frame's seq: publish n travels under
    // seq (1 << 48) + 5 + 2n, on channel n % 2. The sampled ones land on
    // both channels.
    let timed: Vec<i64> =
        (0..120).filter(|n| echo::proto::sampled((1 << 48) + 5 + 2 * *n as u64)).collect();
    assert!(timed.iter().any(|n| n % 2 == 0) && timed.iter().any(|n| n % 2 == 1));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("morph.messages"), Some(control + 120));
    assert_eq!(snap.histogram("echo.stage.deliver.ns").unwrap().count, timed.len() as u64);
}

/// The timers sample by message seq (`echo::proto::sampled`), the counters
/// count every message: after 200 untraced publishes, each sink's
/// `morph.messages` has grown by 200, while its stage and morph timers —
/// and the publisher's encode timer — hold one sample per sampled message,
/// the same messages everywhere.
#[test]
fn timers_sample_by_seq_and_counters_count_every_message() {
    let new = FormatBuilder::record("Tick").int("n").int("scale").build_arc().unwrap();
    let old = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let retro = Transformation::new(new.clone(), old.clone(), "old.n = new.n * new.scale;");
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let morphing = sys.add_process("morphing-sink", EchoVersion::V2);
    let exact = sys.add_process("exact-sink", EchoVersion::V2);
    sys.connect_all(simnet::LinkParams::lan());
    sys.distribute_metadata(&[new.clone(), old.clone()], &[retro]);
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(morphing, ch, Role::sink(), Some(&old)).unwrap();
    sys.subscribe(exact, ch, Role::sink(), Some(&new)).unwrap();
    sys.run();
    sys.set_tracing(false);

    let sinks = [morphing, exact];
    let before: Vec<Snapshot> = sinks.iter().map(|&p| sys.control_registry(p).snapshot()).collect();
    for n in 0..200 {
        sys.publish(publisher, ch, &new, &Value::Record(vec![Value::Int(n), Value::Int(3)]))
            .unwrap();
    }
    sys.run();

    // The publisher, the second process, numbers its frames and trace ids
    // from 1 << 48. Its subscribe took two, and an untraced publish takes
    // one: publish n travels under seq (1 << 48) + 2 + n.
    let timed = |publishes: std::ops::Range<u64>| {
        publishes.filter(|n| echo::proto::sampled((1 << 48) + 2 + n)).count() as u64
    };
    let (all, warm) = (timed(0..200), timed(1..200));
    assert!(warm > 0 && all < 200);
    let encode = sys.control_registry(publisher).snapshot();
    assert_eq!(encode.histogram("echo.stage.encode.ns").unwrap().count, all);
    for (&sink, before) in sinks.iter().zip(&before) {
        assert_eq!(sys.take_events(sink).len(), 200);
        let after = sys.control_registry(sink).snapshot();
        let delta = after.delta(before);
        let grew = |name: &str| delta.histogram_counts.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(delta.counter("morph.messages"), Some(200), "{sink:?}");
        assert_eq!(grew("echo.stage.unframe.ns"), all, "{sink:?}");
        assert_eq!(grew("echo.stage.deliver.ns"), all, "{sink:?}");
        // The first event of the stream is cold: no replay to time.
        assert_eq!(grew("morph.process_ns"), warm, "{sink:?}");
        let decode = after.histogram("pbio.decode_ns").unwrap().count;
        assert_eq!(decode, if sink == morphing { warm } else { 0 }, "{sink:?}");
    }
}

/// Names registered under `registry`, as the snapshot lists them.
fn names_in(registry: &Registry, into: &mut BTreeSet<String>) {
    let snap = registry.snapshot();
    into.extend(snap.counters.into_iter().map(|(name, _)| name));
    into.extend(snap.gauges.into_iter().map(|(name, _)| name));
    into.extend(snap.histograms.into_iter().map(|(name, _)| name));
}

/// The names in the first cell of an OBSERVABILITY.md table row: one or
/// more backticked names, where one that starts with a dot replaces the
/// last segment of the row's first name (`` `a.b.c` / `.d` `` is `a.b.c`
/// and `a.b.d`).
fn row_names(line: &str) -> Vec<String> {
    let cell = line.split('|').nth(1).expect("a first cell");
    let mut quoted = cell.split('`').skip(1).step_by(2);
    let first = quoted.next().expect("a name in the first cell");
    let stem = first.rsplit_once('.').map_or(first, |(stem, _)| stem);
    std::iter::once(first)
        .chain(quoted)
        .map(|entry| match entry.starts_with('.') {
            true => format!("{stem}{entry}"),
            false => entry.to_string(),
        })
        .collect()
}

/// The metric names the given `###` sections of OBSERVABILITY.md tabulate
/// ([`row_names`]). `<reason>` stands for every dead-letter reason, and
/// each placeholder of `expand` for each of its values.
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
        for name in row_names(line) {
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
/// with its switches on and a receiver resolving through
/// `process_with_resolution` register every `morph.*` / `pbio.*` /
/// `ecode.*` name there is — each must have its row, and each row its
/// registrant.
#[test]
fn the_morph_and_pbio_catalogue_sections_list_what_is_registered() {
    let mut registered = BTreeSet::new();

    let mut sys = EchoSystem::new();
    sys.enable_shared_morph_caches();
    sys.enable_journaling(1);
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
    let wire =
        Encoder::new(&v2).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
    morph::process_with_resolution(
        &mut rx,
        &wire,
        &RetryPolicy::default(),
        |req| server.handle(&req),
        |_| {},
    )
    .unwrap();
    names_in(rx.registry(), &mut registered);

    registered.retain(|name| ["morph.", "pbio.", "ecode."].iter().any(|p| name.starts_with(p)));
    assert_catalogued(&registered, &catalogued(&["### `morph.*`", "### `pbio.*`"], &[]));
}

/// The catalogue checks itself, `echo.*` sections: a system with every
/// opt-in on — shared caches, journaling, self-telemetry — that runs
/// traffic and one wall-clock round registers every `echo.*` name there
/// is, in the system registry and in each process's registry: each must
/// have its row, and each row its registrant.
#[test]
fn the_echo_catalogue_sections_list_what_is_registered() {
    const SHARDS: usize = 2;
    let mut sys = EchoSystem::new();
    sys.enable_shared_morph_caches();
    sys.enable_journaling(1);
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
    }
    registered.retain(|name| name.starts_with("echo."));
    let catalogued = catalogued(
        &[
            "### `echo.*`",
            "### `echo.stage.*`",
            "### `echo.channel.*` / `echo.frag.*`",
            "### `echo.shard.*`",
        ],
        &[
            ("<id>", vec![work.0.to_string(), tele.0.to_string()]),
            ("<tier>", QosTier::ALL.map(|t| t.label().to_string()).to_vec()),
            ("<i>", (0..SHARDS).map(|i| i.to_string()).collect()),
        ],
    );
    assert_catalogued(&registered, &catalogued);
}

/// The catalogue checks itself, `simnet.*` section: a two-node network
/// attached to a registry, with a fault plan and a crash window, that
/// carries traffic both ways registers every `simnet.*` name there is —
/// each must have its row, and each row its registrant.
#[test]
fn the_simnet_catalogue_sections_list_what_is_registered() {
    let mut net = simnet::Network::new();
    let a = net.add_node("a");
    let b = net.add_node("b");
    net.connect(a, b, simnet::LinkParams::lan());
    let registry = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
    net.attach_registry(Arc::clone(&registry));
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
    assert_catalogued(&registered, &catalogued(&["### `simnet.*`"], &[links]));
}

/// The backticked names in the first cell of each body row, one set per
/// table, in the `### Switches` section of ARCHITECTURE.md.
fn switch_tables() -> Vec<BTreeSet<String>> {
    let doc = include_str!("../ARCHITECTURE.md");
    let section = doc.split("\n### Switches").nth(1).expect("a Switches section");
    let section = section.split("\n#").next().unwrap();
    let mut tables: Vec<BTreeSet<String>> = Vec::new();
    let mut in_table = false;
    for line in section.lines() {
        if !line.starts_with('|') {
            in_table = false;
            continue;
        }
        if !in_table {
            // A table's first row is its header.
            tables.push(BTreeSet::new());
            in_table = true;
        } else if line.starts_with("| `") {
            let cell = line.split('|').nth(1).expect("a first cell");
            let names = cell.split('`').skip(1).step_by(2).map(str::to_string);
            tables.last_mut().unwrap().extend(names);
        }
    }
    tables
}

/// `EchoConfig`'s field names, read off its `Debug` form (top level only:
/// a field's own braces nest).
fn config_fields() -> BTreeSet<String> {
    let debug = format!("{:?}", EchoConfig::default());
    let body = debug.strip_prefix("EchoConfig { ").and_then(|b| b.strip_suffix(" }")).unwrap();
    let (mut depth, mut start, mut fields) = (0, 0, Vec::new());
    for (i, c) in body.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields.iter().map(|f| f.split(':').next().unwrap().trim().to_string()).collect()
}

/// ARCHITECTURE.md's switch tables are the code's: the first lists
/// `EchoConfig`'s fields, the other two (construction-time setters the
/// benchmark still calls, run-time levers) every `pub fn set_*` /
/// `enable_*` of `EchoSystem`, each once.
#[test]
fn the_switch_tables_list_the_config_and_every_setter() {
    let tables = switch_tables();
    assert_eq!(tables.len(), 3, "config, construction-time and run-time tables");
    assert_eq!(tables[0], config_fields(), "the EchoConfig table");

    let code = include_str!("../crates/echo/src/system.rs").split("#[cfg(test)]").next().unwrap();
    let setters: BTreeSet<String> = code
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .filter(|rest| rest.starts_with("set_") || rest.starts_with("enable_"))
        .map(|rest| rest.split(['(', '<']).next().unwrap().to_string())
        .collect();
    assert!(tables[1].is_disjoint(&tables[2]), "a setter listed twice");
    let tabulated: BTreeSet<String> = tables[1].union(&tables[2]).cloned().collect();
    assert_eq!(tabulated, setters, "the setter tables");
    assert_eq!(setters.len(), 10);
}

/// The non-test source of every crate under `crates/`: each
/// `crates/<name>/src/*.rs` cut at its first `#[cfg(test)]` (a test module
/// kept in a file of its own lives in a subdirectory).
fn product_source() -> String {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files: Vec<_> = std::fs::read_dir(crates)
        .unwrap()
        .filter_map(|krate| std::fs::read_dir(krate.unwrap().path().join("src")).ok())
        .flatten()
        .map(|file| file.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    let text = |path| std::fs::read_to_string(path).unwrap();
    files.iter().map(|path| text(path).split("#[cfg(test)]").next().unwrap().to_string()).collect()
}

/// OBSERVABILITY.md's span vocabulary names what the code records: each
/// backticked name in a row's first cell (`` `a` / `b` `` rows give one
/// name each) occurs as a string literal in the product source. Names with
/// a `<placeholder>` are built at run time and skipped.
#[test]
fn the_span_vocabulary_lists_names_the_code_records() {
    let doc = include_str!("../OBSERVABILITY.md");
    let section = doc.split("\n### Span vocabulary").nth(1).expect("a Span vocabulary section");
    let section = section.split("\n#").next().unwrap();
    let names: Vec<&str> = section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .flat_map(|line| line.split('|').nth(1).unwrap().split('`').skip(1).step_by(2))
        .filter(|name| !name.contains('<'))
        .collect();
    assert!(names.len() >= 20, "{} names read: {names:?}", names.len());
    let source = product_source();
    let unrecorded: Vec<_> =
        names.iter().filter(|name| !source.contains(&format!("\"{name}\""))).collect();
    assert!(unrecorded.is_empty(), "in the span vocabulary, recorded by nothing: {unrecorded:?}");
}

/// The string literals of Rust `source`, comments skipped: plain, byte
/// and raw strings, escapes left as written.
fn string_literals(source: &str) -> Vec<String> {
    let chars: Vec<char> = source.chars().collect();
    let (mut literals, mut i) = (Vec::new(), 0);
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    while i < chars.len() {
        match (chars[i], at(i + 1)) {
            ('/', '/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            ('/', '*') => {
                i += 2;
                while i < chars.len() && !(chars[i] == '*' && at(i + 1) == '/') {
                    i += 1;
                }
                i += 2;
            }
            // A char literal (`'"'`, `'\''`); any other quote is a lifetime's.
            ('\'', '\\') => {
                i += 2;
                while at(i) != '\'' {
                    i += 1;
                }
                i += 1;
            }
            ('\'', _) if at(i + 2) == '\'' => i += 3,
            ('r', '"' | '#')
                if i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') =>
            {
                let hashes = chars[i + 1..].iter().take_while(|&&c| c == '#').count();
                if at(i + 1 + hashes) != '"' {
                    i += 1;
                    continue;
                }
                let start = i + 2 + hashes;
                let mut end = start;
                while !(chars[end] == '"' && (1..=hashes).all(|k| at(end + k) == '#')) {
                    end += 1;
                }
                literals.push(chars[start..end].iter().collect());
                i = end + 1 + hashes;
            }
            ('"', _) => {
                let mut end = i + 1;
                while chars[end] != '"' {
                    end += if chars[end] == '\\' { 2 } else { 1 };
                }
                literals.push(chars[i + 1..end].iter().collect());
                i = end + 1;
            }
            _ => i += 1,
        }
    }
    literals
}

/// `name` with every `{…}` (a `format!` hole) and `<…>` (a catalogue
/// placeholder) read as `<>`.
fn placeholders_unified(name: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for c in name.chars() {
        match c {
            '{' | '<' if !inside => {
                inside = true;
                out.push_str("<>");
            }
            '}' | '>' if inside => inside = false,
            _ if inside => {}
            _ => out.push(c),
        }
    }
    out
}

/// The other direction of the catalogue checks: every metric or span name
/// the product source spells out — a dotted string literal under `echo.`,
/// `morph.`, `simnet.`, `pbio.` or `ecode.`, a `format!` template's holes
/// read as placeholders — is catalogued in OBSERVABILITY.md: a name in the
/// first cell of one of its tables, or a prefix of one followed by `.`
/// (`"echo.stage"`, the stem of `echo.stage.<stage>.ns`). A placeholder on
/// either side stands for any one segment.
#[test]
fn every_name_the_code_spells_is_catalogued() {
    let catalogued: Vec<Vec<String>> = include_str!("../OBSERVABILITY.md")
        .lines()
        .filter(|line| line.starts_with("| `"))
        .flat_map(row_names)
        .map(|name| placeholders_unified(&name).split('.').map(str::to_string).collect())
        .collect();
    assert!(catalogued.len() >= 100, "{} names read", catalogued.len());
    let covered = |name: &str| {
        let segments: Vec<&str> = name.split('.').collect();
        catalogued.iter().any(|doc| {
            segments.len() <= doc.len()
                && segments
                    .iter()
                    .zip(doc)
                    .all(|(code, doc)| code == doc || code.contains("<>") || doc.contains("<>"))
        })
    };
    let prefixes = ["echo.", "morph.", "simnet.", "pbio.", "ecode."];
    let names: BTreeSet<String> = string_literals(&product_source())
        .into_iter()
        .filter(|lit| prefixes.iter().any(|p| lit.starts_with(p)))
        .filter(|lit| !lit.contains(char::is_whitespace))
        .map(|lit| placeholders_unified(&lit))
        .collect();
    assert!(names.len() >= 100, "{} names spelled: {names:?}", names.len());
    let uncatalogued: Vec<_> = names.iter().filter(|name| !covered(name)).collect();
    assert!(
        uncatalogued.is_empty(),
        "spelled in the code, not in OBSERVABILITY.md: {uncatalogued:?}"
    );
}

/// Every line of ARCHITECTURE.md that starts `Held by:` names tests that
/// exist: its
/// backticked tokens are a file (`*.rs`, from the repository root)
/// followed by one or more function names, and each name must be a
/// `#[test] fn` in the file named before it.
#[test]
fn the_held_by_lines_name_existing_tests() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = include_str!("../ARCHITECTURE.md");
    let mut cited = 0;
    for line in doc.lines().filter_map(|line| line.trim_start().strip_prefix("Held by:")) {
        let mut file: Option<(&str, String)> = None;
        for token in line.split('`').skip(1).step_by(2) {
            if token.ends_with(".rs") {
                let text = std::fs::read_to_string(root.join(token))
                    .unwrap_or_else(|e| panic!("`Held by:` cites {token}: {e}"));
                file = Some((token, text));
                continue;
            }
            let (path, text) =
                file.as_ref().unwrap_or_else(|| panic!("{token}: no file before it"));
            let is_test = text.split("#[test]").skip(1).any(|after| {
                let after = after.trim_start();
                after.strip_prefix("fn ").is_some_and(|f| f.split('(').next() == Some(token))
            });
            assert!(is_test, "`Held by:` cites {path} {token}, which is not a #[test] fn there");
            cited += 1;
        }
    }
    assert!(cited >= 5, "{cited} tests cited");
}
