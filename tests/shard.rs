//! Sharded-runtime contract tests.
//!
//! Three properties the shard/driver split must hold, per DESIGN.md's
//! "Concurrency & determinism" section:
//!
//! 1. **Stable assignment** — node → shard placement is a pure function of
//!    the process name and the shard count: independent of insertion
//!    order, system instance, and run. Per-shard metrics are only
//!    comparable across runs because of this.
//! 2. **Driver equivalence** — the wall-clock driver delivers exactly the
//!    events the virtual-time driver delivers, per process and in
//!    per-process order; only the execution substrate differs.
//! 3. **Replay determinism** — the virtual-time driver stays byte-identical
//!    under chaos: for each seed in the 1/7/42 matrix, two runs of a
//!    fault-injected scenario produce identical metric snapshots and
//!    identical trace exports. (The wall-clock driver deliberately makes
//!    no such promise.)
//!
//! Driver equivalence is also checked on a scenario drawn from a seed
//! (`SHARD_SEED`, see [`seeded_scenario_delivers_identically_under_both_drivers`]):
//! ci.sh draws a fresh one per run, because the sharded path is the one the
//! chaos suite — virtual driver only — never takes.

use std::sync::Arc;

use echo::{
    shard_of_name, ChannelId, Driver, EchoSystem, EchoVersion, ProcessId, Role, VirtualTimeDriver,
    WallClockDriver,
};
use morph::Transformation;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::{FaultPlan, LinkParams};

/// Deterministic pseudo-random process names (an LCG — no external crates,
/// no wall-clock seeding, so the "property test" is reproducible).
fn names(count: usize, seed: u64) -> Vec<String> {
    let mut state = seed | 1;
    (0..count)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            format!("proc-{i}-{:x}", state >> 32)
        })
        .collect()
}

#[test]
fn shard_assignment_is_a_pure_function_of_name_and_count() {
    for seed in [1u64, 7, 42] {
        let population = names(512, seed);
        for shards in [1usize, 2, 4, 8] {
            let first: Vec<usize> = population.iter().map(|n| shard_of_name(n, shards)).collect();
            // Recomputing — in any order — reproduces the placement.
            let reversed: Vec<usize> =
                population.iter().rev().map(|n| shard_of_name(n, shards)).collect();
            assert!(first.iter().all(|&s| s < shards));
            assert_eq!(
                first,
                reversed.into_iter().rev().collect::<Vec<_>>(),
                "assignment must not depend on evaluation order"
            );
            // And a realistic population spreads over every shard.
            let mut hit = vec![false; shards];
            for &s in &first {
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "512 names must cover all {shards} shards");
        }
    }
}

#[test]
fn system_shard_of_agrees_with_the_standalone_hash() {
    // The shard count is the driver's.
    let shards = WallClockDriver::new(4).shards();
    let mut sys = EchoSystem::new();
    let procs: Vec<(ProcessId, String)> = names(32, 7)
        .into_iter()
        .map(|n| (sys.add_process(n.clone(), EchoVersion::V2), n))
        .collect();
    for (p, name) in &procs {
        assert_eq!(sys.shard_of(*p, shards), shard_of_name(name, 4));
    }
    // A second system with the same names in a different order places
    // every process identically.
    let mut other = EchoSystem::new();
    let mut reversed: Vec<(ProcessId, String)> = names(32, 7)
        .into_iter()
        .rev()
        .map(|n| (other.add_process(n.clone(), EchoVersion::V2), n))
        .collect();
    reversed.reverse();
    for ((a, name), (b, _)) in procs.iter().zip(&reversed) {
        assert_eq!(
            sys.shard_of(*a, shards),
            other.shard_of(*b, shards),
            "placement of {name} diverged"
        );
    }
}

fn old_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("value").build_arc().unwrap()
}

fn new_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap()
}

/// Creator-publisher plus `sinks` morphing subscribers with `events`
/// evolved events published but not yet run — ready for any driver.
fn loaded_fanout(sinks: usize, events: i64, shared: bool) -> (EchoSystem, Vec<ProcessId>) {
    let mut sys = EchoSystem::new();
    if shared {
        sys.enable_shared_morph_caches();
    }
    let c = sys.add_process("creator", EchoVersion::V2);
    let ch = sys.create_channel(c);
    let subs: Vec<ProcessId> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
            sys.connect(c, s, LinkParams::lan());
            s
        })
        .collect();
    sys.distribute_metadata(
        &[old_fmt(), new_fmt()],
        &[Transformation::new(new_fmt(), old_fmt(), "old.value = new.raw * new.scale;")],
    );
    for &s in &subs {
        sys.provision_sink(s, ch, &old_fmt()).unwrap();
    }
    for n in 0..events {
        sys.publish(c, ch, &new_fmt(), &Value::Record(vec![Value::Int(n), Value::Int(2)])).unwrap();
    }
    (sys, subs)
}

#[test]
fn wall_clock_and_virtual_drivers_deliver_identical_events() {
    let collect = |driver: &mut dyn Driver| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_fanout(25, 8, false);
        sys.run_with(driver);
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    let virt = collect(&mut VirtualTimeDriver);
    for shards in [1usize, 2, 4, 8] {
        let wall = collect(&mut WallClockDriver::new(shards));
        assert_eq!(
            wall, virt,
            "{shards}-shard wall-clock delivery diverged from the virtual-time driver"
        );
    }
    // Sanity: the comparison is not vacuous.
    assert_eq!(virt.len(), 25);
    assert!(virt.iter().all(|events| events.len() == 8));
    assert_eq!(virt[0][0].1, Value::Record(vec![Value::Int(0)]), "events morphed at sinks");
}

#[test]
fn shared_caches_do_not_change_what_is_delivered() {
    let collect = |shared: bool| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_fanout(10, 4, shared);
        sys.run_with(&mut WallClockDriver::new(4));
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    assert_eq!(collect(true), collect(false));
}

/// A fault-injected mixed-version scenario under the virtual-time driver;
/// returns everything observable: the metric snapshot text and the full
/// chrome trace export.
fn chaos_run(seed: u64) -> (String, String) {
    let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let v1_sink = sys.add_process("v1-sink", EchoVersion::V1);
    let v2_sink = sys.add_process("v2-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(v1_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.subscribe(v2_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run_with(&mut VirtualTimeDriver);
    sys.set_fault_plan(
        publisher,
        v1_sink,
        FaultPlan::new(seed)
            .drop_per_mille(150)
            .corrupt_per_mille(100)
            .duplicate_per_mille(120)
            .jitter_ns(40_000),
    );
    sys.set_fault_plan(
        publisher,
        v2_sink,
        FaultPlan::new(seed ^ 0x5EED).drop_per_mille(250).duplicate_per_mille(80),
    );
    for n in 0..25 {
        sys.publish(publisher, ch, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
    }
    sys.run_with(&mut VirtualTimeDriver);
    (sys.registry().snapshot().to_text(), sys.recorder().chrome_json())
}

#[test]
fn virtual_time_driver_replays_chaos_byte_identically_for_the_seed_matrix() {
    for seed in [1u64, 7, 42] {
        let (snap_a, chrome_a) = chaos_run(seed);
        let (snap_b, chrome_b) = chaos_run(seed);
        assert_eq!(snap_a, snap_b, "seed {seed}: metric snapshot diverged between runs");
        assert_eq!(chrome_a, chrome_b, "seed {seed}: trace export diverged between runs");
        assert!(snap_a.contains("echo.events.published"), "snapshot is non-trivial");
    }
    // Different seeds draw different fault sequences — the determinism is
    // per seed, not a constant output.
    assert_ne!(chaos_run(1).0, chaos_run(42).0);
}

// ---------------------------------------------------------------------------
// Fragmentation across the shard boundary.
// ---------------------------------------------------------------------------

fn blob_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
}

/// Fixed-size payload (~450 encoded bytes) so every event splits into the
/// same number of fragments under a 64-byte budget.
fn blob(n: i64) -> Value {
    Value::Record(vec![Value::Int(n), Value::str(format!("{n:03}~").repeat(110))])
}

/// Creator-publisher plus `sinks` subscribers with `events` oversized
/// events published but not yet run; a 64-byte frame budget forces every
/// event through the fragmentation path.
fn loaded_frag_fanout(sinks: usize, events: i64) -> (EchoSystem, Vec<ProcessId>) {
    let mut sys = EchoSystem::new();
    let fmt = blob_fmt();
    let c = sys.add_process("creator", EchoVersion::V2);
    let ch = sys.create_channel(c);
    let subs: Vec<ProcessId> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
            sys.connect(c, s, LinkParams::lan());
            sys.subscribe(s, ch, Role::sink(), Some(&fmt)).unwrap();
            s
        })
        .collect();
    sys.run_with(&mut VirtualTimeDriver);
    sys.set_frame_budget(Some(64));
    for n in 0..events {
        sys.publish(c, ch, &fmt, &blob(n)).unwrap();
    }
    (sys, subs)
}

/// Fragments of one message land in one sink's mailbox and stay in
/// arrival order, whatever the shard count — so the wall-clock driver
/// reassembles exactly what the virtual-time driver does, and no partial
/// set lingers after quiescence.
#[test]
fn wall_clock_driver_reassembles_fragments_identically_to_virtual_time() {
    let collect = |driver: &mut dyn Driver| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_frag_fanout(12, 6);
        sys.run_with(driver);
        for &s in &subs {
            assert_eq!(sys.reassembly_depth(s), 0, "partial set left behind");
        }
        let snap = sys.registry().snapshot();
        assert!(snap.counter("echo.frag.sent").unwrap_or(0) >= 12 * 6 * 5);
        assert_eq!(snap.counter("echo.frag.reassembled"), Some(12 * 6));
        assert_eq!(snap.counter("echo.deadletter.partial_fragments").unwrap_or(0), 0);
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    let virt = collect(&mut VirtualTimeDriver);
    for shards in [1usize, 2, 4] {
        let wall = collect(&mut WallClockDriver::new(shards));
        assert_eq!(
            wall, virt,
            "{shards}-shard wall-clock reassembly diverged from the virtual-time driver"
        );
    }
    assert_eq!(virt.len(), 12);
    assert!(virt.iter().all(|events| events.len() == 6));
    assert_eq!(virt[0][3].1, blob(3), "fragmented events arrive byte-exact");
}

/// When a bounded shard mailbox overflows on fragmented traffic, a shed
/// fragment takes its whole set with it: shed counts come in whole
/// messages, surviving messages reassemble, and no orphan fragment squats
/// in a reassembly buffer waiting to time out.
#[test]
fn mailbox_overflow_sheds_whole_fragment_sets_without_orphans() {
    let (mut sys, subs) = loaded_frag_fanout(1, 10);
    let sink = subs[0];
    let mut driver = WallClockDriver::new(2).with_mailbox_capacity(30);
    sys.run_with(&mut driver);

    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let frags_per_msg = counter("echo.frag.sent") / 10;
    assert!(frags_per_msg >= 5, "payload must actually fragment");

    let shed = counter("echo.shard.mailbox.shed");
    assert!(shed > 0, "the 30-frame mailbox must overflow");
    assert_eq!(shed % frags_per_msg, 0, "sheds must come in whole fragment sets");

    let delivered = counter("echo.events.delivered");
    assert_eq!(delivered + shed / frags_per_msg, 10, "every message delivered or fully shed");
    assert!(delivered > 0);

    // No orphans: nothing buffered, nothing left to time out.
    assert_eq!(sys.reassembly_depth(sink), 0, "orphan fragments squatting in the buffer");
    assert_eq!(counter("echo.deadletter.partial_fragments"), 0);
    let events = sys.take_events(sink);
    assert_eq!(events.len() as u64, delivered);
    for (_, v) in &events {
        let n = v.field(&blob_fmt(), "n").unwrap().as_i64().unwrap();
        assert_eq!(*v, blob(n), "surviving message must be intact");
    }
}

// ---------------------------------------------------------------------------
// Follow-ups inside a round.
// ---------------------------------------------------------------------------

fn tick_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Tick").int("n").build_arc().unwrap()
}

fn tick(n: i64) -> Value {
    Value::Record(vec![Value::Int(n)])
}

/// Everything a process can tell of a run, for every process, plus the
/// two totals every frame sent moves.
type Observed = (Vec<Vec<(ChannelId, Value)>>, Vec<[Option<Vec<echo::MemberInfo>>; 2]>, u64, u64);

/// Two channels with different creators take a wave of join requests at
/// the same instant, so one fork/join round hands each creator several
/// requests and every one of them fans follow-up frames out to the members
/// so far. Workers handle a round destination-major, but its outcomes
/// settle in shard order, arrival order within the shard: the follow-ups
/// go out in the order the virtual driver sends them per link, every
/// member's last refresh is the creator's last word, and the clock and the
/// byte count end where the virtual driver leaves them.
#[test]
fn follow_ups_inside_a_round_settle_as_the_virtual_driver_sends_them() {
    let scenario = |driver: &mut dyn Driver| -> (Observed, u64) {
        let mut sys = EchoSystem::new();
        let a = sys.add_process("creator-a", EchoVersion::V2);
        let b = sys.add_process("creator-b", EchoVersion::V1);
        // Same-length names: every join request is the same size, so a wave
        // sent at one instant also arrives at one instant.
        let members: Vec<ProcessId> = (0..8)
            .map(|i| {
                let version = if i % 3 == 0 { EchoVersion::V1 } else { EchoVersion::V2 };
                sys.add_process(format!("member-{i}"), version)
            })
            .collect();
        sys.connect_all(LinkParams::lan());
        let fmt = tick_fmt();
        let channels = [sys.create_channel(a), sys.create_channel(b)];
        let join = |sys: &mut EchoSystem, wave: &[ProcessId]| {
            for &m in wave {
                for ch in channels {
                    sys.subscribe(m, ch, Role::both(), Some(&fmt)).unwrap();
                }
            }
        };
        join(&mut sys, &members[..3]);
        sys.run_with(driver);
        // The second wave's requests share rounds with events in flight.
        sys.publish(a, channels[0], &fmt, &tick(1)).unwrap();
        join(&mut sys, &members[3..]);
        sys.publish(b, channels[1], &fmt, &tick(2)).unwrap();
        sys.run_with(driver);
        // Everybody publishes on what it now believes the membership is.
        for (n, &m) in members.iter().enumerate() {
            sys.publish(m, channels[n % 2], &fmt, &tick(10 + n as i64)).unwrap();
        }
        sys.run_with(driver);
        let everyone: Vec<ProcessId> = [a, b].into_iter().chain(members).collect();
        let events = everyone.iter().map(|&p| sys.take_events(p)).collect();
        let views = everyone.iter().map(|&p| channels.map(|ch| sys.members(p, ch))).collect();
        let rounds = sys.registry().snapshot().counter("echo.shard.rounds").unwrap_or(0);
        ((events, views, sys.now_ns(), sys.total_bytes()), rounds)
    };
    let (virt, _) = scenario(&mut VirtualTimeDriver);
    let (events, views, ..) = &virt;
    let full = |view: &Option<Vec<echo::MemberInfo>>| view.as_ref().is_some_and(|m| m.len() == 8);
    assert!(views[2..].iter().all(|v| v.iter().all(full)), "every member's last refresh is whole");
    assert_eq!(events[2].len(), 2 + 7, "member-0: both creators' ticks and the other members'");
    for shards in [1usize, 2, 4, 8] {
        let (wall, rounds) = scenario(&mut WallClockDriver::new(shards));
        assert_eq!(wall, virt, "{shards}-shard run diverged from the virtual-time driver");
        // Sixteen joins over two channels, each answered with a broadcast,
        // in a handful of rounds: each creator took a wave per round.
        assert!((3..=8).contains(&rounds), "{shards} shards: {rounds} rounds");
    }
}

// ---------------------------------------------------------------------------
// A scenario drawn from a seed.
// ---------------------------------------------------------------------------

/// Uniform in `lo..=hi`, from the xorshift64 generator simnet's fault plans
/// use — in-tree, so the scenario a seed draws is the same on every machine.
fn draw(rng: &mut simnet::XorShift64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

/// What a seed draws: a population, who publishes on which channel, whether
/// events fragment, when the drivers run, one late joiner and one sink
/// crashed for a window of virtual time. Returns every process's deliveries.
fn seeded_scenario(seed: u64, driver: &mut dyn Driver) -> Vec<Vec<(ChannelId, Value)>> {
    let rng = &mut simnet::XorShift64::new(seed);
    let fmt = blob_fmt();
    let mut sys = EchoSystem::new();
    let publishers: Vec<ProcessId> = (0..draw(rng, 1, 3))
        .map(|i| sys.add_process(format!("pub-{i}"), EchoVersion::V2))
        .collect();
    let sinks: Vec<ProcessId> = (0..draw(rng, 3, 24))
        .map(|i| sys.add_process(format!("sink-{i}-{:x}", draw(rng, 0, 0xFFFF)), EchoVersion::V2))
        .collect();
    sys.connect_all(LinkParams::lan());
    // Each channel is created by a different publisher where there is
    // one; every other publisher joins it as a source.
    let channels: Vec<ChannelId> = (0..draw(rng, 1, 2) as usize)
        .map(|c| {
            let creator = publishers[c % publishers.len()];
            let ch = sys.create_channel(creator);
            for &p in publishers.iter().filter(|&&p| p != creator) {
                sys.subscribe(p, ch, Role::source(), None).unwrap();
            }
            ch
        })
        .collect();
    let (late, settled) = sinks.split_last().expect("at least three sinks");
    for &s in settled {
        for &ch in &channels {
            if draw(rng, 0, 3) > 0 {
                sys.subscribe(s, ch, Role::sink(), Some(&fmt)).unwrap();
            }
        }
    }
    sys.run_with(driver);
    if draw(rng, 0, 1) == 1 {
        sys.set_frame_budget(Some(draw(rng, 24, 96) as usize));
    }

    let steps = draw(rng, 4, 10);
    let crashed = settled[draw(rng, 0, settled.len() as u64 - 1) as usize];
    let crash_at = draw(rng, 0, steps - 1);
    // Opens as the step's publishes set out or up to one LAN hop later,
    // so frames on the wire meet it; closes within a few hops.
    let (opens, lasts) = (draw(rng, 0, 100_000), draw(rng, 1, 2_000_000));
    let join_at = draw(rng, 0, steps - 1);
    let mut n = 0;
    for step in 0..steps {
        if step == crash_at {
            let at = sys.now_ns() + opens;
            sys.set_crash_windows(crashed, &[(at, at + lasts)]);
        }
        if step == join_at {
            // Joins with events in flight around its request.
            sys.subscribe(*late, channels[0], Role::sink(), Some(&fmt)).unwrap();
        }
        for &p in &publishers {
            for &ch in &channels {
                n += 1;
                let text = format!("{n:04}~").repeat(draw(rng, 1, 60) as usize);
                sys.publish(p, ch, &fmt, &Value::Record(vec![Value::Int(n), Value::str(text)]))
                    .unwrap();
            }
        }
        if draw(rng, 0, 2) > 0 {
            sys.run_with(driver);
        }
    }
    sys.run_with(driver);
    assert_eq!(sys.epoch_of(crashed), 1, "the crashed sink restarted");
    publishers.iter().chain(&sinks).map(|&p| sys.take_events(p)).collect()
}

/// Driver equivalence on a scenario nobody wrote by hand: `SHARD_SEED`
/// (ci.sh draws a fresh one per run; three fixed ones otherwise) decides
/// the population, the publishers, the channels, fragmentation, the run
/// cadence and a crash window — and the wall-clock driver, at several shard
/// counts, must deliver to every process exactly what the virtual-time
/// driver delivers, in the same order.
#[test]
fn seeded_scenario_delivers_identically_under_both_drivers() {
    let seeds = match std::env::var("SHARD_SEED") {
        Ok(v) => vec![v.parse().unwrap_or_else(|_| panic!("SHARD_SEED {v:?} is not a u64"))],
        Err(_) => vec![1, 7, 42],
    };
    for seed in seeds {
        let virt = seeded_scenario(seed, &mut VirtualTimeDriver);
        let delivered: usize = virt.iter().map(Vec::len).sum();
        assert!(delivered > 0, "seed {seed}: the scenario delivers nothing");
        for shards in [1usize, 2, 3, 8] {
            let wall = seeded_scenario(seed, &mut WallClockDriver::new(shards));
            assert_eq!(
                wall, virt,
                "SHARD_SEED={seed}: {shards}-shard delivery diverged from the virtual-time driver"
            );
        }
    }
}
