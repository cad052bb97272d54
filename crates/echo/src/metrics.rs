//! Cached handles into the system-level registry, and the accounting of
//! settled frames. That registry runs on the network's *virtual* clock, so
//! it holds only deterministic values: event counters and simnet traffic
//! totals. Wall-clock latency histograms live in the per-receiver
//! registries instead (see [`crate::EchoSystem::control_registry`]).

use std::collections::HashMap;
use std::sync::Arc;

use morph::DeadReason;
use obs::{Counter, CounterFamily, Gauge, GaugeFamily, Histogram, RateGauge, Registry};

use crate::node::{Disposition, FrameOutcome};
use crate::proto::{self, ChannelId, QosTier};

/// Window geometry for per-channel throughput: eight 1 ms virtual-time
/// slots, so a rate covers the trailing 8 ms.
const CHANNEL_RATE_SLOTS: usize = 8;
const CHANNEL_RATE_SLOT_NS: u64 = 1_000_000;

/// Per-channel counter handles, created lazily on first traffic.
#[derive(Debug)]
pub(crate) struct ChannelCounters {
    pub published: Arc<Counter>,
    pub delivered: Arc<Counter>,
    pub filtered: Arc<Counter>,
    /// `echo.ch.<id>.delivered_rate` — deliveries/second over the trailing
    /// window, on the virtual clock (deterministic per run).
    pub delivered_rate: RateGauge,
}

/// `echo.deadletter.total` / `.<reason>`: the system's dead-letter books,
/// shared by every process and counted where the letter is filed
/// (`NodeState::dead_letter`). Atomics, so shard workers count directly.
#[derive(Debug)]
pub(crate) struct DeadLetterBooks {
    total: Arc<Counter>,
    by_reason: [Arc<Counter>; DeadReason::ALL.len()],
}

impl DeadLetterBooks {
    pub fn new(registry: &Registry) -> DeadLetterBooks {
        DeadLetterBooks {
            total: registry.counter("echo.deadletter.total"),
            by_reason: DeadReason::ALL
                .map(|r| registry.counter(&format!("echo.deadletter.{}", r.label()))),
        }
    }

    /// One more letter filed for `reason`.
    pub fn count(&self, reason: DeadReason) {
        self.total.inc();
        let idx = DeadReason::ALL.iter().position(|&r| r == reason).unwrap_or(0);
        self.by_reason[idx].inc();
    }
}

/// Cached handles into the system-level registry (see the module docs
/// for what may live there).
#[derive(Debug)]
pub(crate) struct SysMetrics {
    pub registry: Arc<Registry>,
    pub published: Arc<Counter>,
    pub delivered: Arc<Counter>,
    /// `echo.events.rejected` — fresh event messages no application
    /// received (no admissible match, or no event plane on the channel).
    pub rejected: Arc<Counter>,
    pub filtered: Arc<Counter>,
    pub derived_compiled: Arc<Counter>,
    pub dedup_dropped: Arc<Counter>,
    /// `echo.dedup.beyond_window` — the part of `echo.dedup.dropped` the
    /// horizon decided: frames `DEDUP_WINDOW` or more seqs behind the
    /// newest noted from their sender.
    pub dedup_beyond_window: Arc<Counter>,
    pub deadletters: Arc<DeadLetterBooks>,
    pub retry_enqueued: Arc<Counter>,
    pub retry_attempts: Arc<Counter>,
    pub retry_delivered: Arc<Counter>,
    pub retry_giveup: Arc<Counter>,
    /// `echo.retry.parked` — sends parked because the destination process
    /// is inside a crash window; they wake at its scheduled restart
    /// without burning backoff attempts.
    pub retry_parked: Arc<Counter>,
    /// `echo.crash.down` / `echo.crash.restarts` — crash windows opened
    /// and incarnations started by the crash-restart lifecycle.
    pub crash_down: Arc<Counter>,
    pub crash_restarts: Arc<Counter>,
    /// `echo.crash.lost.*` — volatile state erased by crash amnesia:
    /// frames noted by dedup (capped at the window), sequenced watermarks,
    /// reassembly partials (each also dead-letters as `crash_lost`), queued
    /// retry frames, and warm morph decisions.
    pub crash_lost_dedup: Arc<Counter>,
    pub crash_lost_watermarks: Arc<Counter>,
    pub crash_lost_partials: Arc<Counter>,
    pub crash_lost_retry: Arc<Counter>,
    pub crash_lost_decisions: Arc<Counter>,
    /// `echo.epoch.fenced` — frames refused for carrying a pre-crash
    /// epoch; `echo.epoch.resumed` — sender-incarnation bumps observed by
    /// receivers (explicit resume handshakes or any higher-epoch frame);
    /// `echo.epoch.handshakes` — explicit resume-handshake frames handled.
    pub epoch_fenced: Arc<Counter>,
    pub epoch_resumed: Arc<Counter>,
    pub epoch_handshakes: Arc<Counter>,
    /// Depth of the retry queue.
    pub queue_depth: Arc<Gauge>,
    /// Frames dropped by load shedding (bounded queue overflow).
    pub queue_shed: Arc<Counter>,
    /// `echo.channel.<tier>.sent` — messages submitted per sink, by tier.
    pub tier_sent: CounterFamily,
    /// `echo.channel.<tier>.delivered` — event messages handed to an
    /// application, by tier.
    pub tier_delivered: CounterFamily,
    /// `echo.channel.<tier>.dropped` — unreliable-tier frames absorbed at
    /// send time by a down link or crashed peer (no retry, no dead
    /// letter).
    pub tier_dropped: CounterFamily,
    /// `echo.channel.sequenced.stale` — sequenced frames dropped at a
    /// receiver because a newer message from the same sender already
    /// arrived (newest-wins).
    pub sequenced_stale: Arc<Counter>,
    /// `echo.frag.sent` — fragment frames put on the wire (only counted
    /// when a message actually split).
    pub frag_sent: Arc<Counter>,
    /// `echo.frag.received` — fragment frames accepted into (or
    /// completing) a reassembly set.
    pub frag_received: Arc<Counter>,
    /// `echo.frag.reassembled` — messages completed from fragments.
    pub frag_reassembled: Arc<Counter>,
    /// `echo.frag.timeout` — partial sets expired by the reassembly
    /// timeout (each also dead-letters as `partial_fragments`).
    pub frag_timeout: Arc<Counter>,
    /// `echo.frag.evicted` — partial sets evicted by a full reassembly
    /// buffer (each also dead-letters as `partial_fragments`).
    pub frag_evicted: Arc<Counter>,
    /// `echo.frag.superseded` — partial sets purged by a newer sequenced
    /// message (newest-wins policy, not a fault: no dead letter).
    pub frag_superseded: Arc<Counter>,
    /// `echo.frag.buffered` — in-progress fragment sets across all
    /// processes, refreshed by each reassembly sweep.
    pub frag_buffered: Arc<Gauge>,
    /// `echo.queue.depth_over_time` — every observed retry-queue depth,
    /// so a snapshot answers how deep the queue ran, not just how deep it
    /// is.
    pub depth_over_time: Arc<Histogram>,
    pub per_channel: HashMap<ChannelId, ChannelCounters>,
}

/// Metric labels of [`QosTier::ALL`], in wire-byte order — the index of a
/// tier's label equals `tier.to_wire()`.
const TIER_LABELS: [&str; 3] = ["reliable", "sequenced", "unordered"];

impl SysMetrics {
    pub fn new(registry: Arc<Registry>) -> SysMetrics {
        let tier = |what| CounterFamily::labeled(&registry, "echo.channel", what, &TIER_LABELS);
        SysMetrics {
            published: registry.counter("echo.events.published"),
            delivered: registry.counter("echo.events.delivered"),
            rejected: registry.counter("echo.events.rejected"),
            filtered: registry.counter("echo.events.filtered"),
            derived_compiled: registry.counter("echo.derived.compiled"),
            dedup_dropped: registry.counter("echo.dedup.dropped"),
            dedup_beyond_window: registry.counter("echo.dedup.beyond_window"),
            deadletters: Arc::new(DeadLetterBooks::new(&registry)),
            retry_enqueued: registry.counter("echo.retry.enqueued"),
            retry_attempts: registry.counter("echo.retry.attempts"),
            retry_delivered: registry.counter("echo.retry.delivered"),
            retry_giveup: registry.counter("echo.retry.giveup"),
            retry_parked: registry.counter("echo.retry.parked"),
            crash_down: registry.counter("echo.crash.down"),
            crash_restarts: registry.counter("echo.crash.restarts"),
            crash_lost_dedup: registry.counter("echo.crash.lost.dedup"),
            crash_lost_watermarks: registry.counter("echo.crash.lost.watermarks"),
            crash_lost_partials: registry.counter("echo.crash.lost.partials"),
            crash_lost_retry: registry.counter("echo.crash.lost.retry"),
            crash_lost_decisions: registry.counter("echo.crash.lost.decisions"),
            epoch_fenced: registry.counter("echo.epoch.fenced"),
            epoch_resumed: registry.counter("echo.epoch.resumed"),
            epoch_handshakes: registry.counter("echo.epoch.handshakes"),
            queue_depth: registry.gauge("echo.queue.depth"),
            queue_shed: registry.counter("echo.queue.shed"),
            // Tier and fragmentation handles are created eagerly so every
            // run's snapshot carries the full catalogue (byte-identical
            // snapshots must not depend on which tiers saw traffic).
            tier_sent: tier("sent"),
            tier_delivered: tier("delivered"),
            tier_dropped: tier("dropped"),
            sequenced_stale: registry.counter("echo.channel.sequenced.stale"),
            frag_sent: registry.counter("echo.frag.sent"),
            frag_received: registry.counter("echo.frag.received"),
            frag_reassembled: registry.counter("echo.frag.reassembled"),
            frag_timeout: registry.counter("echo.frag.timeout"),
            frag_evicted: registry.counter("echo.frag.evicted"),
            frag_superseded: registry.counter("echo.frag.superseded"),
            frag_buffered: registry.gauge("echo.frag.buffered"),
            depth_over_time: registry.histogram("echo.queue.depth_over_time"),
            per_channel: HashMap::new(),
            registry,
        }
    }

    pub fn channel(&mut self, ch: ChannelId) -> &mut ChannelCounters {
        self.per_channel.entry(ch).or_insert_with(|| ChannelCounters {
            published: self.registry.counter(&format!("echo.ch.{}.published", ch.0)),
            delivered: self.registry.counter(&format!("echo.ch.{}.delivered", ch.0)),
            filtered: self.registry.counter(&format!("echo.ch.{}.filtered", ch.0)),
            delivered_rate: RateGauge::new(
                self.registry.clock(),
                self.registry.gauge(&format!("echo.ch.{}.delivered_rate", ch.0)),
                CHANNEL_RATE_SLOTS,
                CHANNEL_RATE_SLOT_NS,
            ),
        })
    }

    /// One event message handed to an application.
    fn delivered(&mut self, channel: ChannelId, tier: QosTier) {
        self.delivered.inc();
        let cc = self.channel(channel);
        cc.delivered.inc();
        cc.delivered_rate.record(1);
        self.tier_delivered.get(usize::from(tier.to_wire())).inc();
    }

    /// Counts what a receiver made of one frame: its disposition, and the
    /// partial sets the node evicted (capacity) or purged (newest-wins)
    /// while handling it. Dead letters are already on the books: the node
    /// counted each as it filed it.
    pub fn account(&mut self, outcome: &FrameOutcome) {
        if outcome.resumed {
            // The frame announced a fresh sender incarnation (an explicit
            // resume handshake or any higher-epoch frame).
            self.epoch_resumed.inc();
        }
        if outcome.beyond_window {
            self.dedup_beyond_window.inc();
        }
        if let Disposition::Reassembled(..) | Disposition::Rejected(_, 2..) = outcome.disposition {
            // A set completed (its message delivered or rejected): the
            // completing fragment is a received fragment too.
            self.frag_received.inc();
            self.frag_reassembled.inc();
        }
        match outcome.disposition {
            Disposition::Handled(proto::FRAME_EVENT, channel, tier)
            | Disposition::Reassembled(channel, tier, _) => self.delivered(channel, tier),
            Disposition::Handled(proto::FRAME_RESUME, ..) => self.epoch_handshakes.inc(),
            Disposition::Handled(..) | Disposition::Quarantined(_) => {}
            Disposition::Rejected(..) => self.rejected.inc(),
            Disposition::FragmentBuffered(_) => self.frag_received.inc(),
            Disposition::Stale(_) => self.sequenced_stale.inc(),
            Disposition::Duplicate(_, _) => self.dedup_dropped.inc(),
            Disposition::Fenced(_) => self.epoch_fenced.inc(),
        }
        self.frag_evicted.add(u64::from(outcome.evicted_partials));
        self.frag_superseded.add(u64::from(outcome.stale_partials));
    }
}

/// Per-shard metric handles for the wall-clock runtime, pre-fetched so
/// worker threads only ever touch lock-free atomics. Cached per shard
/// count; re-fetched when the count changes.
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    pub shards: usize,
    /// `echo.shard.<i>.frames` — frames dispatched by each worker.
    pub frames: CounterFamily,
    /// `echo.shard.<i>.mailbox.depth` — each shard's mailbox fill for the
    /// round in flight (0 between rounds).
    pub depth: GaugeFamily,
    /// `echo.shard.mailbox.shed` — event frames shed by mailbox overflow
    /// (also counted in the system-wide `echo.queue.shed`).
    pub shed: Arc<Counter>,
    /// `echo.shard.rounds` — fork/join rounds executed.
    pub rounds: Arc<Counter>,
    /// `echo.shard.round.{drain,fork,settle}_ns` — one *wall-clock* sample
    /// per round: taking the round off the wire into mailboxes and
    /// partitions, the workers' fork-to-join, and settling the outcomes.
    /// The first and last are the serial share of a round.
    pub round_drain_ns: Arc<Histogram>,
    pub round_fork_ns: Arc<Histogram>,
    pub round_settle_ns: Arc<Histogram>,
}

impl ShardMetrics {
    pub fn new(registry: &Registry, shards: usize) -> ShardMetrics {
        ShardMetrics {
            shards,
            frames: CounterFamily::new(registry, "echo.shard", "frames", shards),
            depth: GaugeFamily::new(registry, "echo.shard", "mailbox.depth", shards),
            shed: registry.counter("echo.shard.mailbox.shed"),
            rounds: registry.counter("echo.shard.rounds"),
            round_drain_ns: registry.histogram("echo.shard.round.drain_ns"),
            round_fork_ns: registry.histogram("echo.shard.round.fork_ns"),
            round_settle_ns: registry.histogram("echo.shard.round.settle_ns"),
        }
    }
}
