//! Live-heap budgets, measured by a counting global allocator.
//!
//! The allocator needs `unsafe`, so it lives in this test binary of its
//! own; the product crates keep `#![forbid(unsafe_code)]`. Every test here
//! reads one process-wide counter, so they take [`SERIAL`] and run one at
//! a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

use echo::{EchoSystem, EchoVersion, WallClockDriver};
use morph::Transformation;
use obs::Histogram;
use pbio::{FormatBuilder, Value};
use simnet::LinkParams;

/// Bytes allocated and not yet freed, across every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only adds the size of each block to, or takes it from, `LIVE`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
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
