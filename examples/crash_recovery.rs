//! Crash-restart recovery: a deterministic smoke of the amnesia / journal
//! / epoch-fence machinery, then the journaling-overhead report.
//!
//! **Part 1 — smoke.** A publisher and a subscriber each crash and restart
//! mid-conversation on the virtual clock. The crash erases the victim's
//! volatile state (every loss counted under `echo.crash.lost.*`), the
//! durable journal's synced prefix rebuilds the Reliable contract on
//! restart, and the bumped epoch fences the dead incarnation out. The
//! example asserts exactly-once delivery and prints the recovery ledger.
//!
//! **Part 2 — overhead, reported.** The journal is on the Reliable hot
//! path (every send appends a WAL-forced `Sent`, every settle an `Acked`),
//! so it must be cheap: the same fan-out workload runs journaled vs bare
//! and the median back-to-back pair ratio is printed. It is *reported, not
//! gated*: single runs read 0.80-0.93 on an unchanged tree on a shared
//! 2-vCPU box, so a ratio under 0.85x prints a `WARN` line and the example
//! still exits 0 — only part 1 is a hard failure.
//! The curve lands in `BENCH_8.json`.
//!
//! Knobs (env): `RECOVERY_EVENTS` (events per bench round, default 3000),
//! `RECOVERY_ROUNDS` (default 10), `RECOVERY_SINKS` (fan-out, default 8).
//!
//! Run with: `cargo run --release --example crash_recovery`

use std::sync::Arc;
use std::time::Instant;

use echo::{EchoSystem, EchoVersion, ProcessId, Role};
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::LinkParams;

const MS: u64 = 1_000_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn tick_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Tick").int("n").build_arc().expect("valid format")
}

fn tick(n: i64) -> Value {
    Value::Record(vec![Value::Int(n)])
}

/// Part 1: both roles crash and restart mid-stream; every published event
/// still arrives exactly once. Returns the counters it printed, so main
/// can gate on them.
fn recovery_smoke() {
    let fmt = tick_format();
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    sys.enable_journaling(4);
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).expect("subscribe source");
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).expect("subscribe sink");
    sys.run();
    let base = sys.registry().snapshot();

    // The subscriber dies first: publishes park (no backoff burned into a
    // down peer) and flow after its scheduled restart.
    let t = sys.now_ns();
    sys.set_crash_windows(sink, &[(t, t + 2 * MS)]);
    for n in 0..10 {
        sys.publish(publisher, ch, &fmt, &tick(n)).expect("publish");
    }
    assert_eq!(sys.pending_retries(), 10, "sends to a crashed peer park");
    sys.run();

    // Then the publisher dies with a burst journaled: amnesia erases its
    // retry queue and dedup window, the restart replays the journal,
    // redelivers every unacked frame under epoch 1, and the sink's dedup
    // (itself journaled) absorbs any redundancy.
    for n in 10..20 {
        sys.publish(publisher, ch, &fmt, &tick(n)).expect("publish");
    }
    let t = sys.now_ns();
    sys.set_crash_windows(publisher, &[(t, t + MS)]);
    sys.run();

    let snap = sys.registry().snapshot();
    let delta = |name: &str| snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0);
    println!("-- crash-restart smoke --");
    for name in [
        "echo.crash.down",
        "echo.crash.restarts",
        "echo.crash.lost.retry",
        "echo.retry.parked",
        "echo.journal.appended",
        "echo.journal.replayed",
        "echo.journal.redelivered",
        "echo.epoch.handshakes",
        "echo.dedup.dropped",
        "echo.events.delivered",
    ] {
        println!("{name:28} {}", delta(name));
    }

    // The machinery all fired, and the contract held.
    assert_eq!(delta("echo.crash.down"), 2);
    assert_eq!(delta("echo.crash.restarts"), 2);
    assert!(delta("echo.retry.parked") >= 10, "parking must replace backoff");
    assert!(delta("echo.journal.replayed") > 0, "restart must replay the journal");
    assert_eq!(sys.epoch_of(publisher), 1, "the restart is peer-visible");
    assert_eq!(sys.epoch_of(sink), 1);
    let mut values: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(_, v)| v.field(&tick_format(), "n").unwrap().as_i64().unwrap())
        .collect();
    values.sort_unstable();
    assert_eq!(values, (0..20).collect::<Vec<_>>(), "exactly-once across both crashes");
    println!("exactly-once: 20/20 events delivered across 2 crash-restarts\n");
}

struct Rig {
    sys: EchoSystem,
    publisher: ProcessId,
    sinks: Vec<ProcessId>,
    ch: echo::ChannelId,
}

/// One publisher fanning out to `sinks` subscribers, journaled or bare.
fn build(sinks: usize, journaled: bool) -> Rig {
    let fmt = tick_format();
    let mut sys = EchoSystem::new();
    sys.set_tracing(false); // data-plane mode, as the other benches run
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let subs: Vec<ProcessId> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sink-{i}"), EchoVersion::V2);
            sys.connect(publisher, s, LinkParams::lan());
            s
        })
        .collect();
    if journaled {
        // A realistic fsync batch: Sent entries are WAL-forced anyway; the
        // batch only paces acks and watermarks.
        sys.enable_journaling(64);
    }
    let ch = sys.create_channel(publisher);
    for &s in &subs {
        sys.subscribe(s, ch, Role::sink(), Some(&fmt)).expect("subscribe");
    }
    sys.run();
    Rig { sys, publisher, sinks: subs, ch }
}

/// One timed round: publish + fully settle `events` events, returning
/// events/sec for the round.
fn round(rig: &mut Rig, events: usize, seq: &mut i64) -> f64 {
    let fmt = tick_format();
    let start = Instant::now();
    for _ in 0..events {
        *seq += 1;
        rig.sys.publish(rig.publisher, rig.ch, &fmt, &tick(*seq)).expect("publish");
        rig.sys.run();
    }
    let per_sec = events as f64 / start.elapsed().as_secs_f64();
    for &s in &rig.sinks {
        let got = rig.sys.take_events(s).len();
        assert!(got >= events, "every event delivered ({got} of {events})");
    }
    per_sec
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    recovery_smoke();

    let events = env_usize("RECOVERY_EVENTS", 3_000);
    let rounds = env_usize("RECOVERY_ROUNDS", 10);
    let sinks = env_usize("RECOVERY_SINKS", 8);

    let mut bare = build(sinks, false);
    let mut journaled = build(sinks, true);

    // Interleaved rounds with alternating pair order, exactly as the other
    // overhead benches run: machine drift lands on both configurations,
    // the reported ratio compares within a back-to-back pair, and the median
    // pair discards the rounds noise hit. Round 0 warms both and is
    // discarded.
    let (mut seq_bare, mut seq_j) = (0i64, 0i64);
    let (mut off, mut on) = (0.0f64, 0.0f64);
    let mut pair_ratios = Vec::new();
    for r in 0..=rounds {
        let (b, j) = if r % 2 == 0 {
            let b = round(&mut bare, events, &mut seq_bare);
            let j = round(&mut journaled, events, &mut seq_j);
            (b, j)
        } else {
            let j = round(&mut journaled, events, &mut seq_j);
            let b = round(&mut bare, events, &mut seq_bare);
            (b, j)
        };
        if r > 0 {
            off = off.max(b);
            on = on.max(j);
            pair_ratios.push(j / b);
        }
    }
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let ratio = pair_ratios[pair_ratios.len() / 2];

    // The journaled system actually journaled: every Reliable frame left a
    // WAL-forced Sent entry behind (plus its eventual ack). `held` is what
    // it still keeps: acked sends fold out of the synced prefix.
    let stats = journaled.sys.journal_stats(journaled.publisher).expect("journaling enabled");
    assert!(
        stats.appended >= (events * rounds * sinks) as u64,
        "journal must see every send: {stats:?}"
    );

    let json = format!(
        "{{\n  \"workload\": \"1 publisher -> {sinks} sinks, Reliable fan-out, {events} events x \
         {rounds} rounds, median interleaved pair\",\n  \"events_per_round\": {events},\n  \
         \"bare_events_per_sec\": {off:.0},\n  \"journaled_events_per_sec\": {on:.0},\n  \
         \"journaled_over_bare\": {ratio:.3},\n  \"journal_appended\": {},\n  \
         \"journal_held\": {},\n  \"gate\": \"reported\"\n}}\n",
        stats.appended, stats.held
    );
    std::fs::write("BENCH_8.json", &json)?;
    println!("{json}");

    if ratio < 0.85 {
        eprintln!(
            "WARN: journaling overhead above 15%: {on:.0}/s journaled vs {off:.0}/s bare \
             ({ratio:.3}x) — reported, not gated"
        );
    }
    Ok(())
}
