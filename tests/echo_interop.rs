//! Integration: ECho version interoperability (paper §4.1) across the full
//! version matrix, multiple channels, and repeated membership churn.

use message_morphing::prelude::*;
use pbio::RecordFormat;
use std::sync::Arc;

fn event_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Sample").int("seq").double("value").build_arc().unwrap()
}

fn sample(seq: i64) -> Value {
    Value::Record(vec![Value::Int(seq), Value::Float(seq as f64 * 1.5)])
}

/// Every (creator, subscriber) version combination interoperates.
#[test]
fn full_version_matrix() {
    for creator_v in [EchoVersion::V1, EchoVersion::V2] {
        for sub_v in [EchoVersion::V1, EchoVersion::V2] {
            let mut sys = EchoSystem::new();
            let c = sys.add_process("creator", creator_v);
            let src = sys.add_process("src", EchoVersion::V2);
            let snk = sys.add_process("snk", sub_v);
            sys.connect_all(LinkParams::lan());
            let ch = sys.create_channel(c);
            let fmt = event_format();
            sys.subscribe(src, ch, Role::source(), None).unwrap();
            sys.subscribe(snk, ch, Role::sink(), Some(&fmt)).unwrap();
            sys.run();

            let members = sys
                .members(snk, ch)
                .unwrap_or_else(|| panic!("{creator_v:?}->{sub_v:?}: no members"));
            assert_eq!(members.len(), 2, "{creator_v:?}->{sub_v:?}");

            sys.publish(src, ch, &fmt, &sample(1)).unwrap();
            sys.run();
            let events = sys.take_events(snk);
            assert_eq!(events.len(), 1, "{creator_v:?}->{sub_v:?}");
            assert_eq!(events[0].1, sample(1));
        }
    }
}

/// A v2 creator with many mixed-version subscribers: every subscriber sees
/// the same membership, morphing only at the old ones.
#[test]
fn broadcast_to_mixed_fleet() {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let mut subs = Vec::new();
    for i in 0..10 {
        let v = if i % 2 == 0 { EchoVersion::V1 } else { EchoVersion::V2 };
        subs.push((sys.add_process(format!("sub-{i}"), v), v));
    }
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    let fmt = event_format();
    for &(p, _) in &subs {
        sys.subscribe(p, ch, Role::sink(), Some(&fmt)).unwrap();
    }
    sys.run();

    for &(p, _) in &subs {
        assert_eq!(sys.members(p, ch).unwrap().len(), 10);
    }
    // Old subscribers morphed; new ones matched exactly.
    for &(p, v) in &subs {
        let s = sys.control_stats(p);
        match v {
            EchoVersion::V1 => assert!(s.morphs >= 1, "v1 sub must morph: {s:?}"),
            EchoVersion::V2 => assert_eq!(s.morphs, 0, "v2 sub must not morph: {s:?}"),
        }
    }
    // Each subscriber compiled the Fig. 5 transformation at most once,
    // despite receiving up to 10 membership refreshes.
    for &(p, v) in &subs {
        if v == EchoVersion::V1 {
            assert_eq!(sys.control_stats(p).compiles, 1);
        }
    }
}

/// Channels are independent: morphing decisions on one channel do not leak
/// into another.
#[test]
fn multiple_channels_are_isolated() {
    let mut sys = EchoSystem::new();
    let c1 = sys.add_process("creator-1", EchoVersion::V2);
    let c2 = sys.add_process("creator-2", EchoVersion::V1);
    let s = sys.add_process("subscriber", EchoVersion::V1);
    sys.connect_all(LinkParams::lan());
    let ch1 = sys.create_channel(c1);
    let ch2 = sys.create_channel(c2);
    let fmt = event_format();
    sys.subscribe(s, ch1, Role::sink(), Some(&fmt)).unwrap();
    sys.subscribe(s, ch2, Role::sink(), Some(&fmt)).unwrap();
    sys.run();
    assert_eq!(sys.members(s, ch1).unwrap().len(), 1);
    assert_eq!(sys.members(s, ch2).unwrap().len(), 1);

    sys.subscribe(c1, ch1, Role::source(), None).unwrap();
    sys.subscribe(c2, ch2, Role::source(), None).unwrap();
    sys.run();
    sys.publish(c1, ch1, &fmt, &sample(11)).unwrap();
    sys.publish(c2, ch2, &fmt, &sample(22)).unwrap();
    sys.run();
    let mut events = sys.take_events(s);
    events.sort_by_key(|(ch, _)| *ch);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0], (ch1, sample(11)));
    assert_eq!(events[1], (ch2, sample(22)));
}

/// Event-format evolution mid-stream: a publisher upgrades its event format
/// while old sinks keep listening.
#[test]
fn event_format_upgrade_mid_stream() {
    let mut sys = EchoSystem::new();
    let c = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let old_sink = sys.add_process("old-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    let old_evt = event_format();
    let new_evt = FormatBuilder::record("Sample")
        .int("seq")
        .double("value")
        .string("unit")
        .build_arc()
        .unwrap();
    sys.distribute_metadata(
        &[old_evt.clone(), new_evt.clone()],
        &[Transformation::new(
            new_evt.clone(),
            old_evt.clone(),
            "old.seq = new.seq; old.value = new.value;",
        )],
    );

    let ch = sys.create_channel(c);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(old_sink, ch, Role::sink(), Some(&old_evt)).unwrap();
    sys.run();

    // Phase 1: old event format.
    sys.publish(publisher, ch, &old_evt, &sample(1)).unwrap();
    sys.run();
    // Phase 2: the publisher upgrades.
    let new_sample = Value::Record(vec![Value::Int(2), Value::Float(3.0), Value::str("kelvin")]);
    sys.publish(publisher, ch, &new_evt, &new_sample).unwrap();
    sys.run();

    let events = sys.take_events(old_sink);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].1, sample(1));
    assert_eq!(events[1].1, Value::Record(vec![Value::Int(2), Value::Float(3.0)]));
    let stats = sys.event_stats(old_sink, ch).unwrap();
    assert_eq!(stats.exact_matches, 1);
    assert_eq!(stats.morphs, 1);
}

/// A retro-transformation that never finishes — a writer's bug, or a hostile
/// meta-server — costs each of its events the instruction budget and a
/// `transform_failed` dead letter carrying the event's trace; the sink's
/// worker comes back, the books balance, and the next event is delivered.
#[test]
fn a_looping_retro_transformation_is_quarantined_and_the_next_event_flows() {
    let mut sys = EchoSystem::new();
    let c = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let old_sink = sys.add_process("old-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let old_evt = event_format();
    let new_evt = FormatBuilder::record("Sample").int("seq").string("unit").build_arc().unwrap();
    sys.distribute_metadata(
        &[old_evt.clone(), new_evt.clone()],
        &[Transformation::new(new_evt.clone(), old_evt.clone(), "while (1) {}")],
    );
    let ch = sys.create_channel(c);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(old_sink, ch, Role::sink(), Some(&old_evt)).unwrap();
    sys.run();

    // Two events of the looping format (the decision's first message and a
    // replay of it), then one the sink reads as it is.
    for seq in [1, 2] {
        let event = Value::Record(vec![Value::Int(seq), Value::str("kelvin")]);
        sys.publish(publisher, ch, &new_evt, &event).unwrap();
        sys.run();
    }
    sys.publish(publisher, ch, &old_evt, &sample(3)).unwrap();
    sys.run();

    assert_eq!(sys.take_events(old_sink), vec![(ch, sample(3))]);
    let letters = sys.dead_letters(old_sink);
    assert_eq!(letters.len(), 2);
    for letter in &letters {
        assert_eq!(letter.reason, morph::DeadReason::TransformFailed);
        assert!(letter.detail.contains("instruction budget exhausted"), "{}", letter.detail);
        assert!(letter.trace.is_some(), "dead letter without trace context");
        let quarantine = letter.events.iter().find(|e| e.name == "echo.quarantine");
        assert!(quarantine.is_some(), "dead letter events lack the quarantine instant");
    }
    // Every published event is delivered or quarantined, nothing else.
    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("echo.events.published"), 3);
    assert_eq!(counter("echo.events.delivered"), 1);
    assert_eq!(counter("echo.deadletter.transform_failed"), 2);
    assert_eq!(counter("echo.deadletter.total"), 2);
    assert_eq!(sys.pending_retries(), 0);
}

/// The decode stage of a sink's latency attribution is fed by the fused warm
/// morph (and by nothing else): exact matches and the cold first morph leave
/// `echo.stage.decode.ns` at zero, every later morphed delivery adds to it,
/// and decode + morph never exceed the whole deliver pass.
#[test]
fn decode_stage_is_fed_by_warm_morphs() {
    let mut sys = EchoSystem::new();
    let c = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("pub", EchoVersion::V2);
    let old_sink = sys.add_process("old-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let old_evt = event_format();
    let new_evt = FormatBuilder::record("Sample")
        .int("seq")
        .double("value")
        .string("unit")
        .build_arc()
        .unwrap();
    sys.distribute_metadata(
        &[old_evt.clone(), new_evt.clone()],
        &[Transformation::new(
            new_evt.clone(),
            old_evt.clone(),
            "old.seq = new.seq; old.value = new.value;",
        )],
    );
    let ch = sys.create_channel(c);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(old_sink, ch, Role::sink(), Some(&old_evt)).unwrap();
    sys.run();

    let stage = |sys: &EchoSystem, name: &str| {
        let snap = sys.event_registry(old_sink, ch).unwrap().snapshot();
        let h = snap.histogram(&format!("echo.stage.{name}.ns")).unwrap();
        (h.count, h.sum)
    };
    let unit = "a unit name long enough that decoding it takes measurable time";
    let upgraded = |seq| Value::Record(vec![Value::Int(seq), Value::Float(1.0), Value::str(unit)]);

    // An exact match, then the cold first morph: neither times its decode.
    sys.publish(publisher, ch, &old_evt, &sample(0)).unwrap();
    sys.publish(publisher, ch, &new_evt, &upgraded(1)).unwrap();
    sys.run();
    assert_eq!(stage(&sys, "decode"), (2, 0));

    for seq in 2..202 {
        sys.publish(publisher, ch, &new_evt, &upgraded(seq)).unwrap();
    }
    sys.run();
    assert_eq!(sys.take_events(old_sink).len(), 202);
    let (decode, morph, deliver) =
        (stage(&sys, "decode"), stage(&sys, "morph"), stage(&sys, "deliver"));
    assert_eq!((decode.0, morph.0, deliver.0), (202, 202, 202));
    assert!(decode.1 > 0, "200 warm morphs booked no decode time");
    assert!(decode.1 + morph.1 <= deliver.1, "{decode:?} + {morph:?} > {deliver:?}");
    let rx = sys.event_registry(old_sink, ch).unwrap().snapshot();
    assert_eq!(rx.histogram("pbio.decode_ns").unwrap().count, 200);
}

/// The v2 response message is materially smaller on the wire — the size
/// reduction that motivated the format change (paper §4.1) — and overall
/// control traffic shrinks accordingly in an all-roles deployment.
#[test]
fn v2_cuts_wire_traffic() {
    let run = |v: EchoVersion| -> u64 {
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", v);
        let mut procs = Vec::new();
        for i in 0..8 {
            procs.push(sys.add_process(format!("p{i}"), v));
        }
        sys.connect_all(LinkParams::lan());
        let ch = sys.create_channel(c);
        for &p in &procs {
            sys.subscribe(p, ch, Role::both(), Some(&event_format())).unwrap();
        }
        sys.run();
        sys.total_bytes()
    };
    let v1_bytes = run(EchoVersion::V1);
    let v2_bytes = run(EchoVersion::V2);
    // Total traffic includes identical request messages in both runs, so
    // the aggregate ratio is below the per-response ratio; it must still
    // show a clear reduction.
    assert!(v2_bytes < v1_bytes, "v2 traffic {v2_bytes} should be below v1 traffic {v1_bytes}");

    // The response *message* itself shrinks by more than half ("reduced the
    // size of the response message by more than half", §4.1).
    use echo::proto;
    let members: Vec<echo::MemberInfo> = (0..8)
        .map(|i| echo::MemberInfo {
            contact: format!("subscriber-host-{i}.cc.gatech.edu:6100{i}"),
            id: i,
            is_source: true,
            is_sink: true,
        })
        .collect();
    let v1_msg = Encoder::new(&proto::channel_open_response_v1())
        .encode(&proto::response_v1_value(ChannelId(1), &members))
        .unwrap();
    let v2_msg = Encoder::new(&proto::channel_open_response_v2())
        .encode(&proto::response_v2_value(ChannelId(1), &members))
        .unwrap();
    assert!(
        v2_msg.len() * 2 < v1_msg.len(),
        "response sizes: v2 {} vs v1 {}",
        v2_msg.len(),
        v1_msg.len()
    );
}

/// A message no application received is not a delivery. One sink reads a
/// format that shares no field with the publisher's (Algorithm 2 finds no
/// admissible match), another subscribed without a reader at all: both
/// settle the event as rejected — counted, never delivered, never
/// dead-lettered.
#[test]
fn a_message_no_application_received_is_not_a_delivery() {
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let src = sys.add_process("src", EchoVersion::V2);
    let stranger = sys.add_process("stranger", EchoVersion::V2);
    let readerless = sys.add_process("readerless", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    let unrelated = FormatBuilder::record("Note").string("label").build_arc().unwrap();
    // The publisher's format is known everywhere: resolving it is not
    // what fails.
    sys.distribute_metadata(&[event_format()], &[]);
    sys.subscribe(src, ch, Role::source(), None).unwrap();
    sys.subscribe(stranger, ch, Role::sink(), Some(&unrelated)).unwrap();
    sys.subscribe(readerless, ch, Role::sink(), None).unwrap();
    sys.run();

    assert_eq!(sys.publish(src, ch, &event_format(), &sample(1)).unwrap(), 2);
    sys.run();
    assert!(sys.take_events(stranger).is_empty());
    assert!(sys.take_events(readerless).is_empty());
    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("echo.events.delivered"), 0);
    assert_eq!(counter(&format!("echo.ch.{}.delivered", ch.0)), 0);
    assert_eq!(counter("echo.channel.reliable.delivered"), 0);
    assert_eq!(counter("echo.events.rejected"), 2);
    assert_eq!(counter("echo.deadletter.total"), 0, "a policy outcome, not a dead letter");
}
