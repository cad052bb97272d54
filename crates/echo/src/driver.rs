//! Execution drivers: *how* an [`EchoSystem`] is run to quiescence.
//!
//! The system's message path is driver-agnostic — publish, frame, deliver,
//! unframe, morph, dispatch are the same code under every driver. What a
//! driver chooses is the *execution substrate*:
//!
//! - [`VirtualTimeDriver`] is the deterministic single-threaded driver the
//!   repository has always had: one frame at a time in global
//!   `(deliver_at, seq)` order on the caller's thread, virtual clock, no
//!   concurrency. Given the same seed it replays byte-identically — the
//!   chaos suite and every snapshot-comparing test run under it.
//! - [`WallClockDriver`] runs rounds of deliveries in parallel on real
//!   `std::thread` workers, one per shard (see [`crate::shard_of_name`]),
//!   trading replay determinism for multi-core throughput.
//!
//! Both share one run loop (`EchoSystem::run_turns`) and differ only in
//! how a ready turn is executed, so they produce the same *observable
//! outcome* per process: the same events
//! delivered in the same per-process order, the same dedup/quarantine
//! decisions, the same aggregate counters (modulo `echo.shard.*`, which
//! only the wall-clock driver emits).

use std::time::Instant;

use simnet::Delivery;

use crate::metrics::ShardMetrics;
use crate::node::{FrameOutcome, NodeState};
use crate::shard::shard_of_name;
use crate::shed::shed_set;
use crate::system::{wire_ctx, EchoSystem};

/// A strategy for running an [`EchoSystem`] to quiescence.
///
/// ```
/// # fn main() -> Result<(), echo::EchoError> {
/// use echo::{Driver, EchoSystem, EchoVersion, Role, WallClockDriver};
/// use pbio::{FormatBuilder, Value};
///
/// let mut sys = EchoSystem::new();
/// let creator = sys.add_process("creator", EchoVersion::V2);
/// let sub = sys.add_process("sub", EchoVersion::V2);
/// sys.connect_all(simnet::LinkParams::lan());
/// let events = FormatBuilder::record("Tick").int("n").build_arc()?;
/// let ch = sys.create_channel(creator);
/// sys.subscribe(sub, ch, Role::sink(), Some(&events))?;
/// sys.run();
///
/// sys.publish(creator, ch, &events, &Value::Record(vec![Value::Int(1)]))?;
/// let mut driver = WallClockDriver::new(2);
/// sys.run_with(&mut driver);
/// assert_eq!(sys.take_events(sub).len(), 1);
/// # Ok(())
/// # }
/// ```
pub trait Driver {
    /// Runs the system until the network is quiet and no retries remain.
    /// Returns the number of frames dispatched.
    fn drive(&mut self, sys: &mut EchoSystem) -> usize;
}

/// The deterministic driver: single-threaded, virtual-time, byte-identical
/// replay per seed. Equivalent to calling [`EchoSystem::run`] directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualTimeDriver;

impl Driver for VirtualTimeDriver {
    fn drive(&mut self, sys: &mut EchoSystem) -> usize {
        sys.run()
    }
}

/// Default bound on each shard's per-round mailbox. Generous: a mailbox
/// holds one round's deliveries for one shard, and shedding should be the
/// exception, triggered by a genuinely overwhelmed deployment rather than
/// by ordinary fan-out.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 16_384;

/// The multi-core driver: partitions processes across `shards` worker
/// threads by a stable hash of the process name and runs each round of
/// deliveries in parallel — fork on the round's mailboxes, join before any
/// network state is touched again.
///
/// Invariants preserved from the single-threaded driver:
///
/// - **Per-destination FIFO**: mailboxes are filled in global
///   `(deliver_at, seq)` order and each destination lives on exactly one
///   shard, so every process sees its frames in simulated arrival order.
/// - **Shed policy**: mailboxes are bounded
///   ([`WallClockDriver::with_mailbox_capacity`]) under the system-wide
///   shed policy: overflow sheds the oldest *event* frame of the lowest
///   tier into the receiver's dead-letter queue (`DeadReason::Shed`,
///   counted in `echo.queue.shed` and `echo.shard.mailbox.shed`); control
///   frames are never shed and may exceed the bound.
/// - **Retries**: link-down frames wait out their backoff in virtual time
///   between rounds.
///
/// What is *not* preserved is cross-process interleaving: worker threads
/// race in wall-clock time, so span orderings and wall-clock timings
/// differ run to run. Deterministic replay needs [`VirtualTimeDriver`].
#[derive(Debug, Clone, Copy)]
pub struct WallClockDriver {
    shards: usize,
    mailbox_capacity: usize,
}

impl WallClockDriver {
    /// A driver with `shards` worker threads and the default mailbox bound.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> WallClockDriver {
        assert!(shards > 0, "at least one shard required");
        WallClockDriver { shards, mailbox_capacity: DEFAULT_MAILBOX_CAPACITY }
    }

    /// Replaces the per-shard, per-round mailbox bound.
    pub fn with_mailbox_capacity(mut self, capacity: usize) -> WallClockDriver {
        self.mailbox_capacity = capacity;
        self
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Driver for WallClockDriver {
    fn drive(&mut self, sys: &mut EchoSystem) -> usize {
        sys.run_sharded(self.shards, self.mailbox_capacity)
    }
}

impl EchoSystem {
    /// The run loop every driver shares. Each turn applies due crash
    /// transitions, sweeps reassembly, publishes due telemetry and pumps
    /// the retry queue; then, if frames are deliverable, `execute` delivers
    /// some — one frame, or one fork/join round — and reports how many it
    /// dispatched (`None`: there was nothing to deliver after all).
    /// Deliveries never cross a pending crash/restart boundary: `execute`
    /// stops short of the one it is handed, and an idle turn advances the
    /// clock straight to it (or to the next retry attempt, if sooner), so
    /// every transition fires at its exact instant under every driver.
    fn run_turns(
        &mut self,
        mut execute: impl FnMut(&mut EchoSystem, Option<u64>) -> Option<usize>,
    ) -> usize {
        let mut processed = 0;
        loop {
            self.process_crash_transitions(self.net.now_ns());
            self.sweep_reassembly();
            self.pump_telemetry();
            self.pump_pending();
            let boundary = self.net.next_crash_transition();
            let ready = match boundary {
                Some(t) => self.net.next_delivery_at().is_some_and(|d| d < t),
                None => !self.net.is_idle(),
            };
            if let Some(n) = if ready { execute(self, boundary) } else { None } {
                processed += n;
                continue;
            }
            // Nothing deliverable before the boundary (or an idle wire).
            // Jump virtual time to whatever comes first: the boundary or
            // the next retry attempt.
            let target = match (boundary, self.pump_pending()) {
                (Some(t), Some(r)) => Some(t.min(r)),
                (Some(t), None) => Some(t),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            };
            match target {
                Some(at) => self.net.advance_ns(at.saturating_sub(self.net.now_ns())),
                None if self.net.is_idle() => break,
                None => {}
            }
        }
        // A final sweep at quiescence: time advanced past the timeout with
        // nothing left in flight still expires waiting partials.
        self.sweep_reassembly();
        processed
    }

    /// Runs the network to quiescence, dispatching every delivery through
    /// the receiving process (which may send follow-ups) and pumping the
    /// retry queue: frames refused by a down link are re-sent with backoff,
    /// waiting out partitions in virtual time if need be. Returns the
    /// number of deliveries processed.
    ///
    /// A process never fails on a received frame — corrupted, malformed, or
    /// undeliverable frames are quarantined in its dead-letter queue and
    /// counted (`echo.deadletter.*`), duplicates are suppressed and counted
    /// (`echo.dedup.dropped`).
    ///
    /// Bounded-queue overflow sheds warm (event) traffic into dead-letter
    /// queues with [`morph::DeadReason::Shed`] and counts it in `echo.queue.shed`.
    pub fn run(&mut self) -> usize {
        self.run_turns(|sys, boundary| {
            // `None`: every frame ahead of the boundary was addressed to a
            // crashed process and vanished in the step.
            let d = sys.net.take_delivery(boundary)?;
            sys.dispatch_frame(d.to.index(), d.from.index(), &d.payload);
            Some(1)
        })
    }

    /// Runs the system under the given [`Driver`] — the pluggable
    /// counterpart to [`EchoSystem::run`]. `VirtualTimeDriver` reproduces
    /// `run()` exactly; `WallClockDriver` executes rounds of deliveries on
    /// real threads.
    pub fn run_with(&mut self, driver: &mut dyn Driver) -> usize {
        driver.drive(self)
    }

    /// The multi-core runtime behind [`WallClockDriver`] (see there for
    /// what it preserves): each ready turn drains everything in flight into
    /// per-shard mailboxes, forks one worker per shard to run
    /// `handle_frame` over its mailbox, then joins and settles every
    /// outcome — accounting and follow-up sends — on the driver thread,
    /// where the network, retry queue, and system counters remain
    /// single-threaded.
    pub(crate) fn run_sharded(&mut self, shards: usize, mailbox_capacity: usize) -> usize {
        assert!(shards > 0, "at least one shard required");
        if self.shard_metrics.as_ref().map(|m| m.shards) != Some(shards) {
            self.shard_metrics = Some(ShardMetrics::new(&self.metrics.registry, shards));
            self.shard_assign = self.nodes.iter().map(|n| shard_of_name(&n.name, shards)).collect();
        }
        let sm = self.shard_metrics.clone().expect("created above");
        self.mailbox.capacity = mailbox_capacity;
        // As in [`EchoSystem::run`], no fork/join round ever straddles a
        // crash/restart boundary.
        self.run_turns(|sys, boundary| {
            let round_started = Instant::now();
            // One round: everything currently in flight (up to the next
            // crash boundary), bucketed by the destination's shard in
            // global `(deliver_at, seq)` order, so each destination's
            // mailbox keeps simulated arrival order. Follow-ups sent while
            // the round settles go to the next round.
            let mut mailboxes: Vec<Vec<Delivery>> = (0..shards).map(|_| Vec::new()).collect();
            while let Some(d) = sys.net.take_delivery(boundary) {
                mailboxes[sys.shard_assign[d.to.index()]].push(d);
            }
            // Adaptive mailbox watermark: this round's fill is the arrival
            // burst; the previous round's settled frames were the drains.
            let round_fill: usize = mailboxes.iter().map(Vec::len).sum();
            sys.mailbox.arrived(round_fill, sys.net.now_ns(), &sys.recorder, None);
            let mailbox_capacity = sys.mailbox.capacity_now();
            // Bounded mailboxes: shed the lowest-tier event frames past
            // the bound (control frames are never shed and may exceed it).
            // A shed fragment takes its whole mailbox set with it — the
            // message cannot complete anyway, and orphan fragments would
            // only squat in the reassembly buffer until the timeout.
            for mailbox in &mut mailboxes {
                while mailbox.len() > mailbox_capacity {
                    let flows =
                        mailbox.iter().map(|d| ((d.to.index(), d.from.index()), &*d.payload));
                    let Some(set) = shed_set(flows) else { break };
                    for (n, pos) in set.into_iter().enumerate() {
                        let victim = mailbox.remove(pos);
                        let detail = [
                            "shard mailbox full: lowest-tier frame shed",
                            "shard mailbox full: fragment-set mate shed",
                        ][n.min(1)];
                        sm.shed.inc();
                        let ctx = wire_ctx(&victim.payload);
                        sys.shed_at(victim.to.index(), &victim.payload, detail, ctx);
                    }
                }
            }
            let round_frames: usize = mailboxes.iter().map(Vec::len).sum();
            if round_frames == 0 {
                return Some(0);
            }
            sm.rounds.inc();
            for (shard, mailbox) in mailboxes.iter().enumerate() {
                sm.depth.get(shard).set(mailbox.len() as i64);
            }
            // Fork: each worker exclusively owns the processes its mailbox
            // is addressed to (this round's destinations only, handed out
            // in process order); counters it touches are pre-fetched
            // atomics. Each destination's clock is stamped on the driver
            // thread first, so reassembly aging stays deterministic across
            // shard counts.
            let round_now = sys.net.now_ns();
            let mut dests: Vec<usize> = mailboxes.iter().flatten().map(|d| d.to.index()).collect();
            dests.sort_unstable();
            dests.dedup();
            let mut partitions: Vec<Vec<(usize, &mut NodeState)>> =
                (0..shards).map(|_| Vec::new()).collect();
            let mut rest = sys.nodes.as_mut_slice();
            let mut base = 0;
            for idx in dests {
                let (node, tail) =
                    rest[idx - base..].split_first_mut().expect("destination is a process");
                node.set_now(round_now);
                partitions[sys.shard_assign[idx]].push((idx, node));
                (rest, base) = (tail, idx + 1);
            }
            let forked = Instant::now();
            let outcomes: Vec<Vec<Option<FrameOutcome>>> = std::thread::scope(|scope| {
                let workers: Vec<_> = mailboxes
                    .iter()
                    .zip(partitions)
                    .map(|(mailbox, partition)| {
                        scope.spawn(move || run_mailbox(mailbox, partition))
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
            });
            let joined = Instant::now();
            // Join: settle outcomes in shard order, arrival order within
            // the shard, on the driver thread — disposition accounting and
            // follow-up sends are single-threaded again, and the frames
            // (views of buffers every shard shares) are released here.
            for (shard, (mailbox, outs)) in mailboxes.into_iter().zip(outcomes).enumerate() {
                sm.frames.get(shard).add(outs.len() as u64);
                sm.depth.get(shard).set(0);
                for (d, outcome) in mailbox.into_iter().zip(outs) {
                    let outcome = outcome.expect("the worker handled every frame");
                    sys.settle_outcome(d.to.index(), d.from.index(), outcome);
                }
            }
            sys.mailbox.drained(round_frames, sys.net.now_ns(), &sys.recorder);
            let ns = |d: std::time::Duration| d.as_nanos() as u64;
            sm.round_drain_ns.record(ns(forked - round_started));
            sm.round_fork_ns.record(ns(joined - forked));
            sm.round_settle_ns.record(ns(joined.elapsed()));
            Some(round_frames)
        })
    }
}

/// One shard worker's round: every frame of `mailbox` through its
/// destination's `handle_frame`. The frames are handled destination-major —
/// each destination's frames back to back, so its state is fetched into
/// cache once per round instead of once per frame, and in arrival order
/// (per-destination FIFO is all a process can observe of the order). The
/// outcomes come back in mailbox order, which is the order they settle in.
/// `partition` holds the mailbox's destinations in process order.
fn run_mailbox(
    mailbox: &[Delivery],
    mut partition: Vec<(usize, &mut NodeState)>,
) -> Vec<Option<FrameOutcome>> {
    let mut order: Vec<usize> = (0..mailbox.len()).collect();
    order.sort_by_key(|&at| mailbox[at].to.index()); // stable: arrival order within a destination
    let mut outcomes: Vec<Option<FrameOutcome>> = mailbox.iter().map(|_| None).collect();
    // The sorted frames and the partition ascend together; every
    // destination is in the partition.
    let mut owner = 0;
    for at in order {
        let d = &mailbox[at];
        while partition[owner].0 != d.to.index() {
            owner += 1;
        }
        outcomes[at] = Some(partition[owner].1.handle_frame(d.from.index() as u64, &d.payload));
    }
    outcomes
}
