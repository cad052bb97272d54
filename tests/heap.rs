//! Live-heap budgets, measured by a counting global allocator.
//!
//! The allocator needs `unsafe`, so it lives in this test binary of its
//! own; the product crates keep `#![forbid(unsafe_code)]`. Every test here
//! reads one process-wide counter, so they take [`SERIAL`] and run one at
//! a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard};
use std::time::Duration;

use echo::frag::{Fragment, ReassemblyBuffer};
use echo::proto::{self, MemberInfo};
use echo::{ChannelId, EchoSystem, EchoVersion, QosTier, WallClockDriver};
use morph::{Delivery, MorphReceiver, Transformation};
use obs::Histogram;
use pbio::{ConversionPlan, Encoder, FormatBuilder, Tape, Value, WireBytes, HEADER_LEN};
use simnet::LinkParams;

mod common;
use common::hand_written_v2_wire_to_v1;

/// Bytes allocated and not yet freed, across every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since the last [`peak_from_here`].
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Blocks allocated or reallocated.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Blocks allocated or reallocated to at least `LARGE_FROM` bytes (none
/// while it is `usize::MAX`).
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Counting;

/// A block of `size` bytes was handed out, `by` bytes more than before.
fn grew(size: usize, by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE_FROM.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts the call and adds the size of each block to, or takes
// it from, `LIVE`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs the tests here one at a time: each reads the one process-wide
/// count. Taking it also waits out the test harness, which allocates and
/// frees on its own threads as one test ends and the next is spawned —
/// about a kilobyte, enough to move a small test's measurement.
struct Serial(Mutex<()>);

impl Serial {
    fn lock(&self) -> LockResult<MutexGuard<'_, ()>> {
        let guard = self.0.lock();
        std::thread::sleep(Duration::from_millis(50));
        guard
    }
}

static SERIAL: Serial = Serial(Mutex::new(()));

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Starts measuring the peak anew; returns the live heap it starts from.
fn peak_from_here() -> isize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// The `fanout_small` shape at `sinks` sinks: one publisher, provisioned
/// morphing sinks behind a 3-assignment retro-transformation, shared morph
/// caches, two worker shards; an operation publishes four `Reading`s and
/// drains every sink. Returns live heap after each operation.
fn fanout_live_heap(sinks: usize, ops: usize) -> Vec<isize> {
    let src = FormatBuilder::record("Reading")
        .string("site")
        .long("raw")
        .long("scale")
        .long("seq")
        .build_arc()
        .unwrap();
    let dst = FormatBuilder::record("Reading")
        .string("site")
        .long("value")
        .long("seq")
        .build_arc()
        .unwrap();
    let retro = Transformation::new(
        Arc::clone(&src),
        Arc::clone(&dst),
        "old.site = new.site; old.value = new.raw * new.scale; old.seq = new.seq;",
    );
    let mut sys = EchoSystem::new();
    sys.set_tracing(false);
    sys.enable_shared_morph_caches();
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let ch = sys.create_channel(publisher);
    let procs: Vec<_> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sink-{i}"), EchoVersion::V2);
            sys.connect(publisher, s, LinkParams::lan());
            s
        })
        .collect();
    sys.distribute_metadata(&[Arc::clone(&src), Arc::clone(&dst)], &[retro]);
    for &s in &procs {
        sys.provision_sink(s, ch, &dst).unwrap();
    }
    let mut driver = WallClockDriver::new(2).with_mailbox_capacity(4 * sinks);
    let mut after = Vec::with_capacity(ops);
    for op in 0..ops as i64 {
        for n in 0..4 {
            let reading = Value::Record(vec![
                Value::str("lab-7"),
                Value::Int(op),
                Value::Int(3),
                Value::Int(4 * op + n),
            ]);
            sys.publish(publisher, ch, &src, &reading).unwrap();
        }
        sys.run_with(&mut driver);
        for &s in &procs {
            assert_eq!(sys.take_events(s).len(), 4, "op {op}: every sink gets every reading");
        }
        after.push(live());
    }
    after
}

/// A sink's state stops growing once it is warm: the live heap after
/// operation 100 is the live heap after operation 10, give or take a
/// constant — per-sink state (the dedup window above all) may not grow
/// with the traffic a sink has seen.
#[test]
fn fanout_live_heap_is_flat_once_warm() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SINKS: usize = 200;
    let after = fanout_live_heap(SINKS, 100);
    let growth = after[99] - after[9];
    // Sixteen bytes per sink would already be a leak of one word or two
    // per sink per 90 operations.
    assert!(
        growth.unsigned_abs() <= 16 * SINKS,
        "live heap grew {growth} B from operation 10 to 100 (after each: {after:?})"
    );
}

/// What a sink costs: the live heap after 40 operations at 300 sinks less
/// that at 100, per sink, stays within 10,750 B. Measured on x86-64 at
/// 10,511–10,545 B (debug and release); it was 12,940–12,957 B while each
/// process kept a registry per plane (a provisioned sink two) and
/// re-recorded its decode and morph time as stages, 14,011 B while each
/// process mirrored its dead letters into twelve counters of its own, and
/// 18,483 B while every registry kept its own copy of every metric name
/// and every recorded histogram held all 65 buckets.
#[test]
fn a_fanout_sink_holds_at_most_10_750_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let at = |sinks: usize| {
        let before = live();
        fanout_live_heap(sinks, 40)[39] - before
    };
    let (many, few) = (at(300), at(100));
    let per_sink = (many - few) / 200;
    assert!(per_sink <= 10_750, "a sink holds {per_sink} B ({many} B at 300, {few} B at 100)");
}

/// A reliable sender holds a frame until it is acknowledged: on a
/// journaled Reliable exchange of fragmented messages (one publisher, one
/// sink, an 8 KiB blob per operation in 1,400-byte frames), the live heap
/// grows from operation 50 to operation 500 by at most 200 B per fragment
/// received — the sink's journaled `SeenFragment` notes — not by the
/// fragments' frames, which the publisher's journal would otherwise keep.
#[test]
fn a_journaled_reliable_exchange_keeps_no_acked_frame() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fmt = FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap();
    let mut sys = EchoSystem::new();
    sys.set_tracing(false);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect(publisher, sink, LinkParams::lan());
    let ch = sys.create_channel(publisher);
    sys.set_channel_qos(ch, QosTier::Reliable);
    sys.set_frame_budget(Some(1_400));
    sys.enable_journaling(8);
    sys.provision_sink(sink, ch, &fmt).unwrap();
    let data: String = (0..8 * 1024).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
    let received = |sys: &EchoSystem| sys.registry().counter("echo.frag.received").get();
    let (mut live_at_50, mut received_at_50) = (0, 0);
    for op in 1..=500 {
        let blob = Value::Record(vec![Value::Int(op), Value::str(&data)]);
        sys.publish(publisher, ch, &fmt, &blob).unwrap();
        sys.run();
        assert_eq!(sys.take_events(sink).len(), 1, "op {op}: the blob is delivered once");
        if op == 50 {
            live_at_50 = live();
            received_at_50 = received(&sys);
        }
    }
    let growth = live() - live_at_50;
    let fragments = received(&sys) - received_at_50;
    assert!(fragments >= 450 * 6, "{fragments} fragments received from operation 50 to 500");
    assert!(
        growth <= 200 * fragments as isize,
        "live heap grew {growth} B over {fragments} fragments ({} B each)",
        growth / fragments as isize
    );
}

/// Publishes a 16 KiB event to `sinks` provisioned sinks after one warm-up
/// publish (which creates what a publish keeps: the sink index, the
/// channel's counters, the links' queues). Returns the frame's length, the
/// blocks of at least that length the second publish allocated, and the
/// live heap it left behind.
fn publish_large(sinks: usize) -> (usize, usize, isize) {
    let fmt = FormatBuilder::record("Blob").string("data").build_arc().unwrap();
    let event = Value::Record(vec![Value::str("x".repeat(16 << 10))]);
    let mut sys = EchoSystem::new();
    sys.set_tracing(false);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let ch = sys.create_channel(publisher);
    for i in 0..sinks {
        let sink = sys.add_process(format!("sink-{i}"), EchoVersion::V2);
        sys.connect(publisher, sink, LinkParams::lan());
        sys.provision_sink(sink, ch, &fmt).unwrap();
    }
    assert_eq!(sys.publish(publisher, ch, &fmt, &event).unwrap(), sinks);
    sys.run();
    assert_eq!(sys.registry().counter("echo.events.delivered").get(), sinks as u64);
    let frame_len = proto::FRAME_HEADER_LEN + Encoder::new(&fmt).encode(&event).unwrap().len();
    LARGE_FROM.store(frame_len, Ordering::Relaxed);
    let (large, before) = (LARGE.load(Ordering::Relaxed), live());
    assert_eq!(sys.publish(publisher, ch, &fmt, &event).unwrap(), sinks);
    let (large, held) = (LARGE.load(Ordering::Relaxed) - large, live() - before);
    LARGE_FROM.store(usize::MAX, Ordering::Relaxed);
    (frame_len, large, held)
}

/// ARCHITECTURE.md invariant 4, single copy: a publish frames its payload
/// once and sends every sink a view of that frame. Published to eight
/// sinks, a 16 KiB event allocates the frame-sized blocks a publish to one
/// sink does — not a frame per sink — and the eight frames in flight hold
/// the payload once. For one sink there is one such block: the frame's
/// `Vec`, which `WireBytes::from` keeps as it is.
#[test]
fn a_publish_to_eight_sinks_frames_its_payload_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (frame_len, one, _) = publish_large(1);
    let (_, eight, held) = publish_large(8);
    assert_eq!(eight, one, "blocks of at least the frame's {frame_len} B: 8 sinks vs 1");
    assert_eq!(one, 1, "blocks of at least {frame_len} B for one sink");
    assert!(held < 2 * frame_len as isize, "{held} B held for 8 sinks of a {frame_len} B frame");
}

/// A fragmented publish keeps its payload where the encoder wrote it: a
/// 64 KiB event in 1,400-byte frames allocates one block of at least the
/// payload's length — the encoder's buffer, which the fragments view —
/// and its fragment frames carry the payload once plus one frame header
/// each.
#[test]
fn a_fragmented_publish_allocates_its_payload_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fmt = FormatBuilder::record("Blob").string("data").build_arc().unwrap();
    let event = Value::Record(vec![Value::str("x".repeat(64 << 10))]);
    let payload_len = Encoder::new(&fmt).encode(&event).unwrap().len();
    let mut sys = EchoSystem::new();
    sys.set_tracing(false);
    sys.set_frame_budget(Some(1_400));
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect(publisher, sink, LinkParams::lan());
    let ch = sys.create_channel(publisher);
    sys.provision_sink(sink, ch, &fmt).unwrap();
    let sent = |sys: &EchoSystem| {
        let r = sys.registry();
        (r.counter("simnet.bytes").get(), r.counter("simnet.messages").get())
    };
    for op in 0..2 {
        let (bytes, frames) = sent(&sys);
        LARGE_FROM.store(payload_len, Ordering::Relaxed);
        let large = LARGE.load(Ordering::Relaxed);
        assert_eq!(sys.publish(publisher, ch, &fmt, &event).unwrap(), 1);
        let large = LARGE.load(Ordering::Relaxed) - large;
        LARGE_FROM.store(usize::MAX, Ordering::Relaxed);
        let (after_bytes, after_frames) = sent(&sys);
        let (bytes, frames) = (after_bytes - bytes, after_frames - frames);
        assert_eq!(large, 1, "op {op}: blocks of at least the payload's {payload_len} B");
        assert!(frames > 40, "op {op}: {frames} fragment frames");
        let header = proto::FRAME_HEADER_LEN as u64;
        assert_eq!(bytes, payload_len as u64 + frames * header, "op {op}: {frames} frames");
        sys.run();
        assert_eq!(sys.take_events(sink).len(), 1, "op {op}: the event is delivered once");
    }
}

/// A histogram that never records costs at most 64 bytes behind its
/// `Arc`; its buckets arrive with the first sample.
#[test]
fn an_unrecorded_histogram_costs_at_most_64_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live();
    let h = Arc::new(Histogram::default());
    let empty = live() - before;
    assert!(empty <= 64, "an empty histogram holds {empty} B");
    h.record(1_000);
    let recorded = live() - before;
    assert!(recorded > empty, "the first sample allocates the buckets");
    h.record(2_000);
    assert_eq!(live() - before, recorded, "later samples allocate nothing");
    assert_eq!(h.snapshot().count, 2);
}

/// A histogram allocates its full bucket array once, at the first sample
/// in a fifth bucket outside the window its first sample placed — four
/// such buckets it counts in its block — and nothing after that.
#[test]
fn a_histogram_allocates_its_full_buckets_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let h = Histogram::default();
    h.record(1_000);
    let (before, allocated) = (live(), allocs());
    for v in [3_000, 1 << 30, 1 << 40, 1 << 50, u64::MAX, 1 << 30] {
        h.record(v);
    }
    assert_eq!((live(), allocs()), (before, allocated), "four far buckets allocate nothing");
    h.record(1 << 20);
    assert_eq!(allocs(), allocated + 1, "a fifth far bucket allocates once");
    let (before, allocated) = (live(), allocs());
    for v in [0, 1, 1 << 25, 1 << 60, u64::MAX, 2_000] {
        h.record(v);
    }
    assert_eq!((live(), allocs()), (before, allocated), "later samples allocate nothing");
    assert_eq!(h.snapshot().count, 14);
}

/// A fragment set's memory follows the fragments that arrived, not the
/// count the first one claims: 32 sets of one 4-byte fragment, each
/// claiming 65,535, hold at most the fragments plus `count / 8` bytes of
/// bitmap per set — not a slot per claimed fragment (64 MiB).
#[test]
fn a_fragment_set_holds_what_arrived_not_what_it_claims() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SETS: u64 = 32;
    let mut buf = ReassemblyBuffer::new(64, u64::MAX);
    let before = live();
    for seq in 0..SETS {
        let bytes = WireBytes::from(vec![seq as u8; 4]);
        let frag = Fragment { index: 7, count: u16::MAX, bytes: bytes.clone() };
        buf.offer(1, seq, frag, bytes, None, 0);
    }
    let held = (live() - before) as usize;
    assert_eq!(buf.len(), SETS as usize);
    let per_set = usize::from(u16::MAX) / 8 + 512;
    assert!(held <= SETS as usize * per_set, "{SETS} one-fragment sets hold {held} B");
}

/// A count the payload cannot hold reserves nothing for it: 12 payload
/// bytes claiming 65,535 members fail, through the compiled plan, the
/// generic decoder and the index pass alike, having never held more than a
/// few hundred bytes.
#[test]
fn a_claimed_count_is_not_reserved_for() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let v2 = proto::channel_open_response_v2();
    let mut wire = Encoder::new(&v2).encode(&proto::response_v2_value(ChannelId(1), &[])).unwrap();
    wire[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&65_535i32.to_le_bytes());
    wire.extend_from_slice(b"abc");
    let len = (wire.len() - HEADER_LEN) as u32;
    wire[12..16].copy_from_slice(&len.to_le_bytes());
    assert_eq!(wire.len() - HEADER_LEN, 11);
    let plan = ConversionPlan::identity(&v2).unwrap();
    let generic = pbio::GenericDecoder::new(v2.clone(), v2.clone());
    let mut tape = Tape::default();
    let decoders: [(&str, &mut dyn FnMut() -> bool); 3] = [
        ("plan", &mut || plan.execute(&wire).is_err()),
        ("generic", &mut || generic.decode(&wire).is_err()),
        ("index", &mut || plan.index(&wire, &mut tape).is_err()),
    ];
    for (name, decode) in decoders {
        let before = peak_from_here();
        assert!(decode(), "{name}: the message decodes");
        let peak = PEAK.load(Ordering::Relaxed) - before;
        assert!(peak <= 1024, "{name}: peaked {peak} B over its start");
    }
}

/// A v2.0 `ChannelOpenResponse` of `n` members, encoded.
fn v2_response(n: i64) -> Vec<u8> {
    let members: Vec<MemberInfo> = (0..n)
        .map(|i| MemberInfo {
            contact: format!("host-{}:{}", i * 37 % 1000, 4_000 + i),
            id: i,
            is_source: i % 3 != 0,
            is_sink: i % 2 == 0,
        })
        .collect();
    let v2 = proto::channel_open_response_v2();
    Encoder::new(&v2).encode(&proto::response_v2_value(ChannelId(7), &members)).unwrap()
}

/// A receiver that morphs v2.0 responses to the v1.0 handler it has.
fn v1_receiver() -> MorphReceiver {
    let mut rx = MorphReceiver::new();
    rx.register_handler(&proto::channel_open_response_v1(), drop);
    rx.import_transformation(proto::response_retro_transformation());
    rx
}

/// One large morphed message does not fix a receiver's memory: after a
/// 20,000-member response (about half a MiB of wire) and a few small ones,
/// the live heap is back within a few KiB of where the small ones left it.
#[test]
fn a_large_morph_leaves_no_memory_behind() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (v2_response(4), v2_response(20_000));
    let mut rx = v1_receiver();
    for _ in 0..3 {
        rx.process(&small).unwrap();
    }
    let before = live();
    rx.process(&large).unwrap();
    for _ in 0..3 {
        rx.process(&small).unwrap();
    }
    let kept = live() - before;
    assert!(
        kept.unsigned_abs() <= 16 * 1024,
        "{kept} B still held after a {} B message",
        large.len()
    );
}

/// A warm morph of the 400-member v2.0 response allocates what the
/// hand-written converter allocates — the v1.0 value it delivers — and a
/// constant more: no tree of the incoming message.
#[test]
fn a_warm_morph_allocates_what_the_hand_written_converter_does() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let wire = v2_response(400);
    let mut rx = v1_receiver();
    for _ in 0..3 {
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
    }

    let before = allocs();
    drop(hand_written_v2_wire_to_v1(&wire));
    let by_hand = allocs() - before;
    let before = allocs();
    rx.process(&wire).unwrap();
    let morph = allocs() - before;
    assert!(by_hand > 1_000, "the converter allocates per member: {by_hand}");
    assert!(morph <= by_hand + 32, "warm morph {morph} allocations, by hand {by_hand}");
}
