//! The ECho system: processes connected by event channels over a simulated
//! network (paper Fig. 3). [`EchoSystem`] is the facade — membership, the
//! channel directory, the publish fan-out and per-tier send policy; the
//! later stages of a message's life are modules of their own (see
//! ARCHITECTURE.md's stage → module table).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use morph::{DeadLetter, DeadReason, DecisionCache, MorphStats, RetryPolicy, Transformation};
use obs::{FlightRecorder, Registry, TraceCtx, TraceId};
use pbio::{Encoder, RecordFormat, Value, WireBytes};
use simnet::{FaultPlan, FaultStats, LinkParams, NetError, Network, NodeId};

use crate::frag;
use crate::journal::{JournalEntry, JournalStats, Journals};
use crate::metrics::{ShardMetrics, SysMetrics};
use crate::node::{EchoVersion, NodeState, Role};
use crate::proto::{self, ChannelId, MemberInfo, QosTier};
use crate::retry::RetryQueue;
use crate::shard::shard_of_name;
use crate::telemetry;
use crate::EchoError;

/// Handle to an ECho process within an [`EchoSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub(crate) usize);

/// How many trace events the system flight recorder retains (oldest are
/// evicted first; `FlightRecorder::dropped` counts evictions).
const TRACE_CAPACITY: usize = 8192;

/// High bit set on every minted trace id so that a trace id is never the
/// [`proto::NO_TRACE`] sentinel, whatever the per-process sequence counter
/// says.
const TRACE_MARK: u64 = 1 << 63;

/// The trace context a wire frame travels under, read off its header.
pub(crate) fn wire_ctx(bytes: &[u8]) -> Option<TraceCtx> {
    proto::peek_trace(bytes).map(|t| TraceCtx::root(TraceId(t)))
}

/// What an [`EchoSystem`] is built with and keeps for its lifetime, read
/// once by [`EchoSystem::with_config`]. The default is what
/// [`EchoSystem::new`] builds.
#[derive(Debug, Clone)]
pub struct EchoConfig {
    /// Backoff and attempt budget for re-sends the wire refused.
    pub retry_policy: RetryPolicy,
    /// Bound on the link-down retry queue. Admissions past it shed the
    /// oldest queued event frame of the lowest tier (control frames are
    /// never shed) into the sender's dead-letter queue with
    /// [`DeadReason::Shed`].
    pub retry_queue_capacity: usize,
}

impl Default for EchoConfig {
    fn default() -> EchoConfig {
        EchoConfig { retry_policy: RetryPolicy::with_seed(0xEC40), retry_queue_capacity: 64 }
    }
}

/// A complete simulated ECho deployment: processes, the network connecting
/// them, and the channel directory.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), echo::EchoError> {
/// use echo::{EchoSystem, EchoVersion, Role};
/// use pbio::{FormatBuilder, Value};
///
/// let mut sys = EchoSystem::new();
/// let creator = sys.add_process("creator", EchoVersion::V2);
/// let sub = sys.add_process("sub", EchoVersion::V2);
/// sys.connect_all(simnet::LinkParams::lan());
///
/// let events = FormatBuilder::record("Tick").int("n").build_arc()?;
/// let ch = sys.create_channel(creator);
/// sys.subscribe(sub, ch, Role::sink(), Some(&events))?;
/// sys.run();
///
/// sys.publish(creator, ch, &events, &Value::Record(vec![Value::Int(1)]))?;
/// sys.run();
/// assert_eq!(sys.take_events(sub).len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct EchoSystem {
    pub(crate) net: Network,
    pub(crate) nodes: Vec<NodeState>,
    /// The network id of each process. Processes and network nodes are
    /// created together, so `net_ids[i].index() == i`: a delivery or crash
    /// transition names its process directly.
    pub(crate) net_ids: Vec<NodeId>,
    pub(crate) by_contact: HashMap<String, usize>,
    /// Channel directory: which process created each channel.
    directory: HashMap<ChannelId, usize>,
    next_channel: u32,
    pub(crate) metrics: SysMetrics,
    /// Frames refused by a down link or crashed peer, awaiting re-send.
    pub(crate) retry: RetryQueue,
    /// Processes that may hold partial fragment sets, in process order —
    /// the only ones a reassembly sweep visits. A process enters when one
    /// of its frames settles as `Disposition::FragmentBuffered` (the only
    /// way a set comes into being) and leaves when a sweep finds it
    /// holding none.
    pub(crate) reassembling: BTreeSet<usize>,
    /// Flight recorder on the virtual clock: one causal trace per publish
    /// or subscription, shared by every process and the network.
    pub(crate) recorder: Arc<FlightRecorder>,
    /// When false, publishes carry [`proto::NO_TRACE`] and mint no spans —
    /// the high-rate data-plane mode. Control-plane operations
    /// (subscribe/unsubscribe) always trace; they are rare and diagnostic.
    pub(crate) tracing: bool,
    /// The system-wide decision cache, present once
    /// [`EchoSystem::enable_shared_morph_caches`] opted in; attached to
    /// every existing and future process.
    shared_decisions: Option<DecisionCache>,
    /// Cached per-shard metric handles (lazily created, re-fetched when
    /// the shard count changes).
    pub(crate) shard_metrics: Option<ShardMetrics>,
    /// Each process's shard under `shard_metrics`' count: filled with the
    /// handles, extended by [`EchoSystem::add_process`], so a sharded run
    /// hashes a name once per process, not once per call.
    pub(crate) shard_assign: Vec<usize>,
    /// Per-channel delivery tier; channels not present run
    /// [`QosTier::Reliable`].
    qos: HashMap<ChannelId, QosTier>,
    /// When set, encoded event payloads larger than this many bytes split
    /// into fragments of at most this size ([`EchoSystem::set_frame_budget`]).
    frame_budget: Option<usize>,
    /// Reassembly bounds applied to every existing and future process once
    /// overridden ([`EchoSystem::set_reassembly_limits`]).
    reassembly_limits: Option<(usize, u64)>,
    /// Periodic self-telemetry publisher, present once
    /// [`EchoSystem::enable_self_telemetry`] opted in.
    pub(crate) telemetry: Option<telemetry::Publisher>,
    /// Per-process durable delivery journals, present once
    /// [`EchoSystem::enable_journaling`] opted in.
    pub(crate) journals: Journals,
}

impl Default for EchoSystem {
    fn default() -> EchoSystem {
        EchoSystem::new()
    }
}

impl std::fmt::Debug for EchoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EchoSystem")
            .field("processes", &self.nodes.len())
            .field("channels", &self.directory.len())
            .field("virtual_time_ns", &self.net.now_ns())
            .finish()
    }
}

impl EchoSystem {
    /// Creates an empty system with the default [`EchoConfig`].
    pub fn new() -> EchoSystem {
        EchoSystem::with_config(EchoConfig::default())
    }

    /// Creates an empty system built as `config` says. The v2.0 → v1.0
    /// `ChannelOpenResponse` retro-transformation (paper Fig. 5) is
    /// pre-distributed as out-of-band meta-data, as the v2.0 release would
    /// ship it.
    pub fn with_config(config: EchoConfig) -> EchoSystem {
        let mut net = Network::new();
        // The system registry stamps snapshots with *virtual* time and
        // mirrors the network's traffic totals, so two identical runs
        // produce byte-identical snapshots.
        let registry = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&registry));
        // The recorder shares the virtual clock, so span timestamps — and
        // therefore exported traces — are deterministic per seed.
        let recorder = Arc::new(FlightRecorder::new(TRACE_CAPACITY, Arc::new(net.virtual_clock())));
        net.attach_recorder(Arc::clone(&recorder));
        let retry = RetryQueue::new(config.retry_policy, config.retry_queue_capacity);
        EchoSystem {
            net,
            nodes: Vec::new(),
            net_ids: Vec::new(),
            by_contact: HashMap::new(),
            directory: HashMap::new(),
            next_channel: 1,
            journals: Journals::new(&registry),
            metrics: SysMetrics::new(registry),
            retry,
            reassembling: BTreeSet::new(),
            recorder,
            tracing: true,
            shared_decisions: None,
            shard_metrics: None,
            shard_assign: Vec::new(),
            qos: HashMap::new(),
            frame_budget: None,
            reassembly_limits: None,
            telemetry: None,
        }
    }

    /// Mints a fresh trace id for a message originating at `proc`. Ids come
    /// out of the process's (disjoint) frame-sequence range with the high
    /// bit set, so they are nonzero and unique system-wide without any
    /// global coordination — and deterministic across identical runs.
    pub(crate) fn alloc_trace(&mut self, proc: usize) -> TraceId {
        TraceId(self.nodes[proc].alloc_seq() | TRACE_MARK)
    }

    /// Adds a process running the given ECho version. Its contact string is
    /// its name.
    pub fn add_process(&mut self, name: impl Into<String>, version: EchoVersion) -> ProcessId {
        let name = name.into();
        let books = Arc::clone(&self.metrics.deadletters);
        let mut node = NodeState::new(name.clone(), version, books);
        // Ship the standard control-plane meta-data with every process.
        node.import_metadata(
            &[proto::channel_open_response_v1(), proto::channel_open_response_v2()],
            &[proto::response_retro_transformation(), proto::response_forward_transformation()],
        );
        // Disjoint 2^48-wide sequence ranges make frame seqs sender-unique.
        node.next_seq = (self.nodes.len() as u64) << 48;
        node.set_recorder(Arc::clone(&self.recorder));
        if let Some(decisions) = &self.shared_decisions {
            node.enable_shared_caches(decisions.clone());
        }
        if let Some((capacity, timeout_ns)) = self.reassembly_limits {
            node.configure_reassembly(capacity, timeout_ns);
        }
        let seq_floor = node.next_seq;
        let net_id = self.net.add_node(name.clone());
        if let Some(m) = &self.shard_metrics {
            self.shard_assign.push(shard_of_name(&name, m.shards));
        }
        debug_assert_eq!(net_id.index(), self.nodes.len(), "one network node per process");
        self.nodes.push(node);
        self.net_ids.push(net_id);
        self.journals.add_process(self.net.now_ns(), seq_floor);
        self.by_contact.insert(name, self.nodes.len() - 1);
        ProcessId(self.nodes.len() - 1)
    }

    /// Connects every pair of processes with identical link parameters.
    pub fn connect_all(&mut self, params: LinkParams) {
        for i in 0..self.net_ids.len() {
            for j in (i + 1)..self.net_ids.len() {
                self.net.connect(self.net_ids[i], self.net_ids[j], params);
            }
        }
    }

    /// Connects two specific processes.
    pub fn connect(&mut self, a: ProcessId, b: ProcessId, params: LinkParams) {
        self.net.connect(self.net_ids[a.0], self.net_ids[b.0], params);
    }

    /// Distributes out-of-band meta-data (event formats and their
    /// retro-transformations) to every process — the format-server role.
    pub fn distribute_metadata(
        &mut self,
        formats: &[Arc<RecordFormat>],
        xforms: &[Transformation],
    ) {
        for node in &mut self.nodes {
            node.import_metadata(formats, xforms);
        }
    }

    /// Creates a channel owned by `creator`, registering it in the channel
    /// directory.
    pub fn create_channel(&mut self, creator: ProcessId) -> ChannelId {
        let ch = ChannelId(self.next_channel);
        self.next_channel += 1;
        self.nodes[creator.0].create_channel(ch);
        self.directory.insert(ch, creator.0);
        ch
    }

    /// Subscribes `proc` to `channel` with `role`. Sinks should pass the
    /// event format they expect. The creator answers (and refreshes all
    /// members) with a `ChannelOpenResponse` in *its* format version;
    /// morphing reconciles version differences at each receiver.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] for unregistered channels and
    /// network errors for unconnected processes.
    pub fn subscribe(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        role: Role,
        expected_events: Option<&Arc<RecordFormat>>,
    ) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].set_role(channel, role);
        if let Some(fmt) = expected_events {
            self.nodes[proc.0].expect_events(channel, fmt);
        }
        if creator_idx == proc.0 {
            // Local subscription at the creator: no network round trip.
            let contact = self.nodes[proc.0].name.clone();
            self.nodes[proc.0].add_member(channel, contact, role)?;
            return Ok(());
        }
        self.send_membership_request(proc.0, creator_idx, channel, role, "echo.subscribe")
    }

    /// Frames `proc`'s membership request for `channel` — its contact and
    /// the role it asks for (none: leave) — and sends it to the creator
    /// under a fresh trace rooted at a `span_name` span.
    fn send_membership_request(
        &mut self,
        proc: usize,
        creator_idx: usize,
        channel: ChannelId,
        role: Role,
        span_name: &'static str,
    ) -> Result<(), EchoError> {
        let fmt = proto::channel_open_request();
        let req = Value::Record(vec![
            Value::Int(i64::from(channel.0)),
            Value::str(self.nodes[proc].name.clone()),
            Value::Int(i64::from(role.source)),
            Value::Int(i64::from(role.sink)),
        ]);
        let msg = Encoder::new(&fmt).encode(&req)?;
        let seq = self.nodes[proc].alloc_seq();
        let trace = self.alloc_trace(proc);
        let mut span = self.recorder.start(trace, None, span_name);
        span.tag("channel", &channel.0.to_string());
        span.tag("from", &self.nodes[proc].name);
        let ctx = Some(span.ctx());
        let (kind, tier, epoch) =
            (proto::FRAME_CONTROL, QosTier::Reliable, self.nodes[proc].epoch());
        let framed = proto::frame_qos(kind, channel, seq, trace.0, tier, 0, 1, epoch, &msg);
        let sent = self.send_with_retry(proc, creator_idx, framed, ctx);
        span.finish();
        sent
    }

    /// Unsubscribes `proc` from `channel`: the creator removes the member
    /// and refreshes the remaining membership. The process's local event
    /// expectation stays: its event-plane receiver (see
    /// [`EchoSystem::event_registry`]) survives for a later re-subscribe or
    /// a post-mortem read.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] / network errors.
    pub fn unsubscribe(&mut self, proc: ProcessId, channel: ChannelId) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].leave(channel);
        if creator_idx == proc.0 {
            let contact = self.nodes[proc.0].name.clone();
            self.nodes[proc.0].remove_member(channel, &contact);
            return Ok(());
        }
        let leave = Role { source: false, sink: false };
        self.send_membership_request(proc.0, creator_idx, channel, leave, "echo.unsubscribe")
    }

    /// Publishes an event on a channel: the source encodes in its own
    /// format and submits to every sink it knows of; each sink's morphing
    /// receiver reconciles the format.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::NotSubscribed`] when `proc` is not a source on
    /// the channel, plus encoding/network errors.
    pub fn publish(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        format: &Arc<RecordFormat>,
        event: &Value,
    ) -> Result<usize, EchoError> {
        if !self.nodes[proc.0].may_publish(channel) {
            return Err(EchoError::NotSubscribed(channel));
        }
        self.metrics.published.inc();
        self.metrics.channel(channel).published.inc();
        let sinks = self.sink_index(proc.0, channel);
        // One trace follows this event everywhere it goes: every sink's
        // frames carry the same id, so hops, morphing stages, and dead
        // letters at any receiver join one causal story. With tracing off
        // ([`EchoSystem::set_tracing`]) frames travel under NO_TRACE and no
        // spans are minted at all.
        let mut root = if self.tracing {
            let trace = self.alloc_trace(proc.0);
            let mut span = self.recorder.start(trace, None, "echo.publish");
            span.tag("channel", &channel.0.to_string());
            span.tag("from", &self.nodes[proc.0].name);
            Some(span)
        } else {
            None
        };
        let ctx = root.as_ref().map(|s| s.ctx());
        let wire_trace = ctx.map_or(proto::NO_TRACE, |c| c.trace.0);
        let tier = self.channel_qos(channel);
        let header = (channel, wire_trace, tier, self.nodes[proc.0].epoch());
        let mut sent = 0;
        let result = (|| -> Result<usize, EchoError> {
            if sinks.is_empty() {
                return Ok(0);
            }
            // The frame set is built (and the payload copied) once, under
            // one seq — dedup is per receiver; every sink is sent views of
            // it, Arc bumps, not bytes. A message within the frame budget
            // is one frame; larger ones split into fragment frames.
            let frames = self.encode_event_frames(proc.0, format, event, header)?;
            for &dst in sinks.iter() {
                for (n, frame) in frames.iter().enumerate() {
                    self.send_policied(proc.0, dst, frame.clone(), ctx, tier)?;
                    // The books follow the wire: a message counts as sent
                    // once its first frame was accepted (sent, queued for
                    // retry, or absorbed by its tier), a fragment once it
                    // was — never for a send refused with an error.
                    if n == 0 {
                        self.metrics.tier_sent.get(usize::from(tier.to_wire())).inc();
                    }
                    if frames.len() > 1 {
                        self.metrics.frag_sent.inc();
                    }
                }
                sent += 1;
            }
            Ok(sent)
        })();
        if let Some(mut span) = root.take() {
            span.tag("sinks", &sent.to_string());
            span.finish();
        }
        result
    }

    /// The process indices `proc` publishes to on `channel`: its sink
    /// contacts resolved through the contact table. Resolved once per
    /// change of either — the node drops its cached copy whenever the
    /// channel's member list changes, and a copy resolved against a
    /// shorter contact table (a process was added since; a contact may
    /// resolve now that did not before) is not handed out.
    fn sink_index(&mut self, proc: usize, channel: ChannelId) -> Arc<[usize]> {
        // `add_process` is the only writer of the contact table.
        let contacts = self.nodes.len();
        if let Some(sinks) = self.nodes[proc].sink_index(channel, contacts) {
            return sinks;
        }
        let sinks: Arc<[usize]> = self.nodes[proc]
            .sink_contacts(channel)
            .filter_map(|contact| self.by_contact.get(contact).copied())
            .collect();
        self.nodes[proc].cache_sink_index(channel, contacts, Arc::clone(&sinks));
        sinks
    }

    /// Encodes one event message at `proc` under its next seq and builds
    /// its wire frames under `(channel, trace, tier, epoch)`: a single
    /// frame when it fits the frame budget (or no budget is set), a
    /// fragment set sharing the message seq otherwise — zero-copy views of
    /// the encoded message; framing each is the only copy. Fails with
    /// [`EchoError::MessageTooLarge`] when the split would exceed the
    /// wire's 16-bit fragment numbering.
    fn encode_event_frames(
        &mut self,
        proc: usize,
        format: &Arc<RecordFormat>,
        event: &Value,
        (channel, trace, tier, epoch): (ChannelId, u64, QosTier, u32),
    ) -> Result<Vec<WireBytes>, EchoError> {
        let (seq, msg) = self.nodes[proc].encode_event(format, event)?;
        let frame = |index, count, payload: &[u8]| {
            let kind = proto::FRAME_EVENT;
            proto::frame_qos(kind, channel, seq, trace, tier, index, count, epoch, payload)
        };
        let Some(budget) = self.frame_budget.filter(|&b| msg.len() > b) else {
            return Ok(vec![frame(0, 1, &msg)]);
        };
        let len = msg.len();
        let payload = WireBytes::from(msg);
        let frags = frag::split_message(&payload, budget)
            .ok_or(EchoError::MessageTooLarge { len, budget })?;
        Ok(frags.iter().map(|f| frame(f.index, f.count, &f.bytes)).collect())
    }

    /// Sends one event frame under its tier's delivery policy. Reliable
    /// frames take the retry path ([`Self::send_with_retry`]); unreliable
    /// tiers are fire-and-forget — a down link or crashed peer absorbs the
    /// frame into `echo.channel.<tier>.dropped` (with an `echo.qos.dropped`
    /// trace instant) instead of queueing a retry or dead-lettering.
    /// Configuration errors (unknown peer, no route, MTU overflow) still
    /// propagate for every tier.
    fn send_policied(
        &mut self,
        from: usize,
        to: usize,
        bytes: WireBytes,
        ctx: Option<TraceCtx>,
        tier: QosTier,
    ) -> Result<(), EchoError> {
        if tier == QosTier::Reliable {
            // The journaled half of exactly-once: the frame's key and bytes
            // go to the modeled disk before the wire sees them (WAL
            // discipline), so a crashed sender redelivers it on restart.
            if self.journals.get(from).is_some() {
                if let (Some(channel), Some((seq, frag_index, _))) =
                    (proto::peek_channel(&bytes), proto::peek_frag(&bytes))
                {
                    let (to, frame) = (to as u64, bytes.clone());
                    let entry = JournalEntry::Sent { to, channel, seq, frag_index, frame };
                    self.journals.append(from, self.net.now_ns(), entry);
                }
            }
            return self.send_with_retry(from, to, bytes, ctx);
        }
        match self.net.send_traced(self.net_ids[from], self.net_ids[to], bytes, ctx) {
            Ok(_) => Ok(()),
            Err(NetError::LinkDown(_, _) | NetError::NodeDown(_)) => {
                self.metrics.tier_dropped.get(usize::from(tier.to_wire())).inc();
                if let Some(c) = ctx {
                    let tags = [("tier", tier.label()), ("to", &*self.nodes[to].name)];
                    self.recorder.instant(c.trace, c.parent, "echo.qos.dropped", &tags);
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Sheds a frame at `node`: counts the drop and quarantines the bytes
    /// in the node's dead-letter queue with [`DeadReason::Shed`] — every
    /// shed message stays accounted, none vanish silently.
    pub(crate) fn shed_at(
        &mut self,
        node: usize,
        bytes: &WireBytes,
        why: &str,
        ctx: Option<TraceCtx>,
    ) {
        self.metrics.queue_shed.inc();
        self.nodes[node].dead_letter(DeadReason::Shed, "shed", bytes, why, ctx);
    }

    /// Refreshes the `echo.queue.depth` gauge (the retry queue's length)
    /// and records the observation into the depth-over-time histogram, so
    /// snapshots expose the whole depth distribution.
    pub(crate) fn update_queue_depth(&self) {
        let depth = self.retry.len();
        self.metrics.queue_depth.set(depth as i64);
        self.metrics.depth_over_time.record(depth as u64);
    }

    /// Drains the events received by a process so far.
    pub fn take_events(&mut self, proc: ProcessId) -> Vec<(ChannelId, Value)> {
        self.nodes[proc.0].take_events()
    }

    /// The membership view a process holds for a channel (creators return
    /// the authoritative list).
    pub fn members(&self, proc: ProcessId, channel: ChannelId) -> Option<Vec<MemberInfo>> {
        self.nodes[proc.0].members(channel).map(<[_]>::to_vec)
    }

    /// Morphing statistics of a process: its control plane and its event
    /// planes on every channel, counted together.
    pub fn morph_stats(&self, proc: ProcessId) -> MorphStats {
        MorphStats::of(self.nodes[proc.0].registry())
    }

    /// The system-level observability registry: `echo.*` event counters
    /// plus the network's `simnet.*` traffic totals, stamped with virtual
    /// time. Snapshots of this registry are deterministic across runs.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// The system flight recorder: every publish/subscribe mints a causal
    /// trace here, annotated by the network (hop spans, fault tags) and by
    /// each receiver (`echo.handle`, morphing stages, quarantines). Use
    /// [`obs::FlightRecorder::text_tree`] or
    /// [`obs::FlightRecorder::chrome_json`] to export; both are
    /// deterministic because the recorder runs on the virtual clock.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Trace ids recorded so far, in first-appearance order — convenient
    /// for walking "every message this run" in examples and reports.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut seen = Vec::new();
        for e in self.recorder.events() {
            if !seen.contains(&e.trace) {
                seen.push(e.trace);
            }
        }
        seen
    }

    /// The process's one wall-clock registry, which its control-plane
    /// receiver and every event-plane receiver report into: `morph.*` and
    /// `pbio.*` metrics, including latency histograms (`morph.decide_ns`,
    /// `pbio.plan.compile_ns`, …), and the `echo.stage.*` timings.
    pub fn control_registry(&self, proc: ProcessId) -> &Arc<Registry> {
        self.nodes[proc.0].registry()
    }

    /// The same registry as [`EchoSystem::control_registry`], if the
    /// process expects events on `channel`.
    pub fn event_registry(&self, proc: ProcessId, channel: ChannelId) -> Option<&Arc<Registry>> {
        let node = &self.nodes[proc.0];
        node.has_event_plane(channel).then(|| node.registry())
    }

    /// Current virtual time (nanoseconds).
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    /// Total bytes carried on the network so far.
    pub fn total_bytes(&self) -> u64 {
        self.net.total_bytes()
    }

    /// The ECho version a process runs.
    pub fn version(&self, proc: ProcessId) -> EchoVersion {
        self.nodes[proc.0].version
    }

    /// Turns publish-path tracing on or off (on by default). With tracing
    /// off, published frames carry [`proto::NO_TRACE`] and mint no spans —
    /// the mode for high-rate data-plane traffic, where per-event trace
    /// allocation and recorder writes are pure overhead. Control-plane
    /// operations keep tracing regardless; they are rare and diagnostic.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// The shard (of `shards`, as a [`crate::WallClockDriver`] runs them)
    /// that owns a process — a pure hash of its name, stable across runs
    /// ([`crate::shard_of_name`]).
    pub fn shard_of(&self, proc: ProcessId, shards: usize) -> usize {
        shard_of_name(&self.nodes[proc.0].name, shards)
    }

    /// Opts the whole system into the shared morph decision cache: every
    /// receiver of every process (existing and future) consults one
    /// system-wide [`DecisionCache`], so MaxMatch, compilation and the plans
    /// a decision holds for a given writer format are paid once per
    /// *compatible receiver population* instead of once per receiver — the
    /// difference between O(subscribers) and O(1) cold-path cost on a
    /// 10k-sink fan-out. Each receiver's conversion-plan cache stays its
    /// own: a receiver that takes a shared decision compiles no plan.
    ///
    /// Off by default: sharing shifts which receiver pays the cold-path
    /// work, which perturbs per-process `morph.*`/`pbio.*` counters (and
    /// therefore byte-identical chaos snapshots). Decision sharing is
    /// fingerprint-keyed, so mixed-version receivers never exchange
    /// decisions they could not have computed themselves.
    pub fn enable_shared_morph_caches(&mut self) {
        let decisions = DecisionCache::new();
        for node in &mut self.nodes {
            node.enable_shared_caches(decisions.clone());
        }
        self.shared_decisions = Some(decisions);
    }

    /// Registers `proc` as a sink on `channel` *without* the subscription
    /// handshake: the role and expected event format are set locally and
    /// the creator's authoritative member list gains the contact directly —
    /// no request frame, no response broadcast. Models pre-provisioned
    /// membership (a deployment manifest); the handshake's response
    /// broadcast is O(members) per join, which makes mass subscription
    /// O(members²) — this is the bulk path for large fan-outs. The next
    /// membership refresh naturally includes provisioned members.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] for unregistered channels.
    pub fn provision_sink(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        format: &Arc<RecordFormat>,
    ) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].set_role(channel, Role::sink());
        self.nodes[proc.0].expect_events(channel, format);
        let contact = self.nodes[proc.0].name.clone();
        self.nodes[creator_idx].add_member(channel, contact, Role::sink())?;
        Ok(())
    }

    /// Starts periodic self-telemetry: every `period_ns` of virtual time
    /// (while the system runs), `proc` publishes one
    /// [`telemetry::telemetry_format_v2`] record on `channel` carrying the
    /// system registry's counter deltas since the previous record. The
    /// channel is switched to [`QosTier::SequencedUnreliable`] — stale
    /// telemetry is worthless and monitoring traffic must never queue
    /// retries inside the system it observes. `proc` must be the channel's
    /// creator or a source on it, and collectors subscribe as ordinary
    /// sinks; v1-era collectors morph v2 records on receipt with zero
    /// hand-written transformations (MaxMatch field matching).
    ///
    /// Records count into `echo.telemetry.published` / `.bytes`. The
    /// telemetry traffic itself is observed by the registry it samples, so
    /// each record's deltas include the previous record's own publish —
    /// self-observation, not double counting.
    pub fn enable_self_telemetry(&mut self, proc: ProcessId, channel: ChannelId, period_ns: u64) {
        self.set_channel_qos(channel, QosTier::SequencedUnreliable);
        // The system is the writer of its own telemetry: ship the current
        // record's meta-data out-of-band (the paper's format-server role)
        // so collectors of any era resolve it — older ones by MaxMatch,
        // with no transformations to distribute.
        self.distribute_metadata(&[telemetry::telemetry_format_v2()], &[]);
        let (registry, now) = (&self.metrics.registry, self.net.now_ns());
        self.telemetry = Some(telemetry::Publisher::new(registry, proc.0, channel, period_ns, now));
    }

    /// Publishes a telemetry record if the reporting period has elapsed.
    /// Called by the run loop.
    pub(crate) fn pump_telemetry(&mut self) {
        let Some(t) = self.telemetry.as_mut() else { return };
        let Some(value) = t.poll(self.net.now_ns(), self.metrics.queue_depth.get()) else {
            return;
        };
        let (proc, channel, fmt) = (ProcessId(t.proc), t.channel, Arc::clone(&t.format));
        // A publish failure (e.g. the emitter lost its subscription) must
        // not wedge the run loop; the period simply elapses again.
        let _ = self.publish(proc, channel, &fmt, &value);
    }

    /// Sets a channel's delivery tier. Channels default to
    /// [`QosTier::Reliable`]; the tier travels in every frame header, so
    /// receivers enforce it straight off the wire with no side-channel
    /// distribution. Control-plane frames (subscriptions, membership
    /// refreshes) always travel reliable, whatever the channel's event
    /// tier.
    pub fn set_channel_qos(&mut self, channel: ChannelId, tier: QosTier) {
        self.qos.insert(channel, tier);
    }

    /// The delivery tier a channel's events travel under.
    fn channel_qos(&self, channel: ChannelId) -> QosTier {
        self.qos.get(&channel).copied().unwrap_or(QosTier::Reliable)
    }

    /// Sets the frame budget: encoded event payloads larger than `budget`
    /// bytes split into fragments of at most that size, reassembled at
    /// each receiver. `None` (the default) never fragments. Control frames
    /// are never fragmented. To traverse an MTU-limited link
    /// ([`simnet::Network::set_link_mtu`]) the budget must be small enough
    /// that budget + frame header ≤ MTU.
    pub fn set_frame_budget(&mut self, budget: Option<usize>) {
        self.frame_budget = budget.map(|b| b.max(1));
    }

    /// Re-bounds every process's per-channel reassembly buffers: at most
    /// `capacity` in-progress fragment sets per channel (oldest incomplete
    /// evicted past it), each expiring `timeout_ns` after its first
    /// fragment arrives. Applies to existing and future processes.
    pub fn set_reassembly_limits(&mut self, capacity: usize, timeout_ns: u64) {
        self.reassembly_limits = Some((capacity, timeout_ns));
        for node in &mut self.nodes {
            node.configure_reassembly(capacity, timeout_ns);
        }
    }

    /// In-progress fragment sets currently buffered at a process, across
    /// all its channels.
    pub fn reassembly_depth(&self, proc: ProcessId) -> usize {
        self.nodes[proc.0].reassembly_depth()
    }

    /// Attaches a [`FaultPlan`] to the (bidirectional) link between two
    /// processes — see [`simnet::Network::set_fault_plan`].
    pub fn set_fault_plan(&mut self, a: ProcessId, b: ProcessId, plan: FaultPlan) {
        self.net.set_fault_plan(self.net_ids[a.0], self.net_ids[b.0], plan);
    }

    /// Removes any fault plan between two processes.
    pub fn clear_fault_plan(&mut self, a: ProcessId, b: ProcessId) {
        self.net.clear_fault_plan(self.net_ids[a.0], self.net_ids[b.0]);
    }

    /// Administratively raises/lowers the link between two processes
    /// (partition modeling). Sends while down go to the retry queue.
    pub fn set_link_up(&mut self, a: ProcessId, b: ProcessId, up: bool) {
        self.net.set_link_up(self.net_ids[a.0], self.net_ids[b.0], up);
    }

    /// Advances virtual time without network activity (e.g. to move past a
    /// scheduled partition window before calling [`EchoSystem::run`]).
    pub fn advance_ns(&mut self, delta_ns: u64) {
        self.net.advance_ns(delta_ns);
    }

    /// Aggregated fault-injection accounting across all links.
    pub fn fault_totals(&self) -> FaultStats {
        self.net.fault_totals()
    }

    /// The frames a process has quarantined (oldest first, bounded; the
    /// `echo.deadletter.*` counters track unbounded totals).
    pub fn dead_letters(&self, proc: ProcessId) -> Vec<DeadLetter> {
        self.nodes[proc.0].dead_letters().letters().cloned().collect()
    }

    /// Total frames ever quarantined by a process.
    pub fn dead_letter_total(&self, proc: ProcessId) -> u64 {
        self.nodes[proc.0].dead_letters().total()
    }

    /// Frames currently waiting in the system retry queue.
    pub fn pending_retries(&self) -> usize {
        self.retry.len()
    }

    /// Schedules crash windows on a process (half-open `[from_ns,
    /// until_ns)` intervals of virtual time). While a window is open the
    /// process is dead: sends to it are refused (Reliable frames park
    /// until the scheduled restart), in-flight deliveries into it vanish,
    /// and the run loops apply the full lifecycle at the window's edges —
    /// amnesia and journal tear-off going down; epoch bump, journal
    /// replay, resume handshakes, and redelivery coming back up.
    pub fn set_crash_windows(&mut self, proc: ProcessId, windows: &[(u64, u64)]) {
        self.net.set_crash_windows(self.net_ids[proc.0], windows);
    }

    /// Opts every process — existing and future — into a durable delivery
    /// journal with the given fsync-batch boundary (floor 1; see
    /// [`crate::Journal`]). Journaling is what upgrades the Reliable
    /// tier's exactly-once from "while the process lives" to "across
    /// crash-restarts": without it a restarted process neither redelivers
    /// its unacked frames nor remembers what it already delivered.
    pub fn enable_journaling(&mut self, batch: usize) {
        let next_seqs = self.nodes.iter().map(|n| n.next_seq);
        self.journals.enable(batch, self.net.now_ns(), next_seqs);
    }

    /// A process's journal self-accounting, when journaling is enabled.
    pub fn journal_stats(&self, proc: ProcessId) -> Option<JournalStats> {
        self.journals.get(proc.0).map(|j| j.stats())
    }

    /// A process's current incarnation number: 0 at birth, bumped by each
    /// crash-restart.
    pub fn epoch_of(&self, proc: ProcessId) -> u32 {
        self.nodes[proc.0].epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, VirtualTimeDriver, WallClockDriver};
    use pbio::FormatBuilder;

    fn tick_format() -> Arc<RecordFormat> {
        FormatBuilder::record("Tick").int("n").double("t").build_arc().unwrap()
    }

    fn tick(n: i64) -> Value {
        Value::Record(vec![Value::Int(n), Value::Float(n as f64 * 0.5)])
    }

    /// Builds creator + two subscribers, fully connected.
    fn three(
        creator_v: EchoVersion,
        sub_v: EchoVersion,
    ) -> (EchoSystem, ProcessId, ProcessId, ProcessId) {
        three_with(EchoConfig::default(), creator_v, sub_v)
    }

    fn three_with(
        config: EchoConfig,
        creator_v: EchoVersion,
        sub_v: EchoVersion,
    ) -> (EchoSystem, ProcessId, ProcessId, ProcessId) {
        let mut sys = EchoSystem::with_config(config);
        let c = sys.add_process("creator", creator_v);
        let s1 = sys.add_process("pub-1", EchoVersion::V2);
        let s2 = sys.add_process("sub-2", sub_v);
        sys.connect_all(LinkParams::lan());
        (sys, c, s1, s2)
    }

    #[test]
    fn same_version_subscribe_and_publish() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        // Publisher learned the membership (including the sink).
        let members = sys.members(s1, ch).unwrap();
        assert_eq!(members.len(), 2);
        let sent = sys.publish(s1, ch, &fmt, &tick(7)).unwrap();
        assert_eq!(sent, 1);
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, tick(7))]);
    }

    #[test]
    fn v2_creator_serves_v1_subscriber_via_morphing() {
        // The paper's §4.1 scenario.
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V1);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::both(), Some(&fmt)).unwrap();
        sys.run();
        // The v1 subscriber holds a correct membership view even though the
        // creator only ever sent v2 responses.
        let members = sys.members(s2, ch).unwrap();
        assert_eq!(members.len(), 2);
        assert!(members.iter().any(|m| m.contact == "sub-2" && m.is_sink && m.is_source));
        assert!(members.iter().any(|m| m.contact == "pub-1" && m.is_source && !m.is_sink));
        // Morphing happened at the v1 node (its stats show a compiled
        // transformation), not at the creator.
        let stats = sys.morph_stats(s2);
        assert!(stats.morphs >= 1, "stats: {stats:?}");
        assert!(stats.compiles >= 1);
        assert_eq!(sys.morph_stats(c).morphs, 0);
        // Events flow to the v1 sink.
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);
    }

    #[test]
    fn v1_creator_serves_v2_subscriber_forward_compat() {
        // Reverse direction: the v1 creator emits v1 responses; the v2
        // subscriber morphs them *forward* with the shipped v1→v2
        // transformation, which reconstructs the role booleans by joining
        // the v1 src/sink lists — semantic, not just syntactic, recovery.
        let (mut sys, c, _s1, s2) = three(EchoVersion::V1, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s2, ch, Role::sink(), Some(&tick_format())).unwrap();
        sys.run();
        let members = sys.members(s2, ch).unwrap();
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].contact, "sub-2");
        assert!(members[0].is_sink, "role flags recovered from the v1 sink list");
        assert!(!members[0].is_source);
        assert!(sys.morph_stats(s2).morphs >= 1);
    }

    #[test]
    fn creator_local_subscription() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(c, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(3)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(c).len(), 1);
    }

    #[test]
    fn unknown_channel_rejected() {
        let (mut sys, _c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let err = sys.subscribe(s1, ChannelId(99), Role::sink(), None).unwrap_err();
        assert!(matches!(err, EchoError::UnknownChannel(_)));
    }

    #[test]
    fn publish_requires_subscription() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let err = sys.publish(s1, ch, &tick_format(), &tick(0)).unwrap_err();
        assert!(matches!(err, EchoError::NotSubscribed(_)));
    }

    #[test]
    fn event_format_evolution_with_transformation() {
        // A newer publisher ships richer events; an old sink still works.
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let old_fmt = FormatBuilder::record("Reading").int("value").build_arc().unwrap();
        let new_fmt = FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap();
        sys.distribute_metadata(
            &[old_fmt.clone(), new_fmt.clone()],
            &[Transformation::new(
                new_fmt.clone(),
                old_fmt.clone(),
                "old.value = new.raw * new.scale;",
            )],
        );
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&old_fmt)).unwrap();
        sys.run();
        sys.publish(s1, ch, &new_fmt, &Value::Record(vec![Value::Int(6), Value::Int(7)])).unwrap();
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, Value::Record(vec![Value::Int(42)]))]);
        assert_eq!(sys.morph_stats(s2).morphs, 1);
    }

    #[test]
    fn membership_updates_broadcast_to_all() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        assert_eq!(sys.members(s1, ch).unwrap().len(), 1);
        sys.subscribe(s2, ch, Role::sink(), Some(&tick_format())).unwrap();
        sys.run();
        // s1's view refreshed by the broadcast.
        assert_eq!(sys.members(s1, ch).unwrap().len(), 2);
    }

    #[test]
    fn unsubscribe_removes_member_and_stops_delivery() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);

        sys.unsubscribe(s2, ch).unwrap();
        sys.run();
        // Creator's authoritative list no longer holds s2; the publisher's
        // refreshed view excludes it.
        assert!(sys.members(c, ch).unwrap().iter().all(|m| m.contact != "sub-2"));
        assert!(sys.members(s1, ch).unwrap().iter().all(|m| m.contact != "sub-2"));
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        sys.run();
        assert!(sys.take_events(s2).is_empty());
    }

    #[test]
    fn unsubscribe_by_creator_is_local() {
        let (mut sys, c, _s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(c, ch, Role::sink(), Some(&tick_format())).unwrap();
        assert_eq!(sys.members(c, ch).unwrap().len(), 1);
        sys.unsubscribe(c, ch).unwrap();
        assert!(sys.members(c, ch).unwrap().is_empty());
        assert!(sys.unsubscribe(c, ChannelId(99)).is_err());
    }

    #[test]
    fn system_registry_counts_events() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let plain = sys.add_process("plain-sink", EchoVersion::V2);
        sys.connect_all(LinkParams::lan());
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(plain, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        for n in 0..4 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run();
        let snap = sys.registry().snapshot();
        // 4 publish() calls, each reaching both sinks.
        assert_eq!(snap.counter("echo.events.published"), Some(4));
        assert_eq!(snap.counter("echo.events.delivered"), Some(8));
        assert_eq!(snap.counter(&format!("echo.ch.{}.published", ch.0)), Some(4));
        assert_eq!(snap.counter(&format!("echo.ch.{}.delivered", ch.0)), Some(8));
        // The attached network mirrors its traffic into the same registry,
        // and the snapshot is stamped with virtual time.
        assert!(snap.counter("simnet.messages").unwrap_or(0) > 0);
        assert_eq!(snap.at_ns, sys.now_ns());
        // Identical runs produce identical snapshots: the registry holds
        // only virtual-time-deterministic values.
        let rerun = || {
            let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
            let ch = sys.create_channel(c);
            let fmt = tick_format();
            sys.subscribe(s1, ch, Role::source(), None).unwrap();
            sys.run();
            sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
            sys.run();
            sys.registry().snapshot().to_text()
        };
        assert_eq!(rerun(), rerun());
    }

    #[test]
    fn per_receiver_registries_exposed() {
        let (mut sys, c, _s1, s2) = three(EchoVersion::V2, EchoVersion::V1);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        // The v1 subscriber morphed the creator's v2 response: its
        // registry saw the control plane's cold path.
        let snap = sys.control_registry(s2).snapshot();
        assert!(snap.counter("morph.decision.miss").unwrap_or(0) >= 1);
        assert!(snap.counter("morph.decision.morph").unwrap_or(0) >= 1);
        // The event-plane receiver exists for the subscribed channel only.
        assert!(sys.event_registry(s2, ch).is_some());
        assert!(sys.event_registry(s2, ChannelId(99)).is_none());
        assert!(sys.event_registry(c, ch).is_none());
    }

    #[test]
    fn full_retry_queue_sheds_oldest_events_but_never_control() {
        let config = EchoConfig { retry_queue_capacity: 2, ..EchoConfig::default() };
        let (mut sys, c, s1, s2) = three_with(config, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_link_up(s1, s2, false);
        for n in 0..4 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        // Capacity 2: ticks 0 and 1 were shed (drop-oldest) to make room.
        assert_eq!(sys.pending_retries(), 2);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.queue.shed"), Some(2));
        assert_eq!(snap.counter("echo.deadletter.shed"), Some(2));
        assert_eq!(snap.gauge("echo.queue.depth"), Some(2));
        // Every shed frame is accounted at its *sender* with reason Shed.
        let shed: Vec<DeadLetter> =
            sys.dead_letters(s1).into_iter().filter(|l| l.reason == DeadReason::Shed).collect();
        assert_eq!(shed.len(), 2);
        assert!(shed.iter().all(|l| l.detail.contains("retry queue full")));
        // A control frame admits even though the queue is at capacity —
        // and it does so by shedding another event, not by being dropped.
        sys.set_link_up(s2, c, false);
        sys.subscribe(s2, ch, Role::sink(), None).unwrap();
        assert_eq!(sys.pending_retries(), 2);
        assert_eq!(sys.registry().snapshot().counter("echo.queue.shed"), Some(3));
        // Heal: the survivors (1 event + the control frame) deliver.
        sys.set_link_up(s1, s2, true);
        sys.set_link_up(s2, c, true);
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, tick(3))], "only the newest event survived the queue");
        assert_eq!(sys.registry().snapshot().gauge("echo.queue.depth"), Some(0));
    }

    /// Creator + publisher + `n` morphing v1-style sinks on an evolved
    /// format, fully wired, ready to publish.
    fn fanout_fixture(
        n: usize,
    ) -> (EchoSystem, ProcessId, ChannelId, Arc<RecordFormat>, Arc<RecordFormat>) {
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", EchoVersion::V2);
        let old_fmt = FormatBuilder::record("Reading").int("value").build_arc().unwrap();
        let new_fmt = FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap();
        let ch = sys.create_channel(c);
        let subs: Vec<ProcessId> = (0..n)
            .map(|i| {
                let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
                sys.connect(c, s, LinkParams::lan());
                s
            })
            .collect();
        sys.distribute_metadata(
            &[old_fmt.clone(), new_fmt.clone()],
            &[Transformation::new(
                new_fmt.clone(),
                old_fmt.clone(),
                "old.value = new.raw * new.scale;",
            )],
        );
        for s in subs {
            sys.provision_sink(s, ch, &old_fmt).unwrap();
        }
        (sys, c, ch, new_fmt, old_fmt)
    }

    #[test]
    fn wall_clock_driver_delivers_the_same_events_as_the_virtual_one() {
        let deliver = |wall: bool| -> Vec<Vec<(ChannelId, Value)>> {
            let (mut sys, c, ch, new_fmt, _) = fanout_fixture(9);
            for n in 0..5 {
                sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(n), Value::Int(2)]))
                    .unwrap();
            }
            if wall {
                let mut driver = WallClockDriver::new(4);
                sys.run_with(&mut driver);
            } else {
                let mut driver = VirtualTimeDriver;
                sys.run_with(&mut driver);
            }
            (0..9).map(|i| sys.take_events(ProcessId(i + 1))).collect()
        };
        let wall = deliver(true);
        let virt = deliver(false);
        // Same events, same per-process order — only the execution
        // substrate differed.
        assert_eq!(wall, virt);
        assert!(wall.iter().all(|events| events.len() == 5));
        assert_eq!(
            wall[0][0].1,
            Value::Record(vec![Value::Int(0)]),
            "morphed at the sink under the wall-clock driver too"
        );
    }

    #[test]
    fn sharded_run_accounts_per_shard_frames_and_rounds() {
        let (mut sys, c, ch, new_fmt, _) = fanout_fixture(8);
        sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(3), Value::Int(1)])).unwrap();
        let processed = sys.run_with(&mut WallClockDriver::new(2));
        assert_eq!(processed, 8);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.events.delivered"), Some(8));
        // Every frame is attributed to exactly one shard, and the split
        // matches the stable name hash.
        let shard0 = snap.counter("echo.shard.0.frames").unwrap();
        let shard1 = snap.counter("echo.shard.1.frames").unwrap();
        assert_eq!(shard0 + shard1, 8);
        let expect0 = (0..8).filter(|i| shard_of_name(&format!("sub-{i}"), 2) == 0).count() as u64;
        assert_eq!(shard0, expect0);
        assert!(snap.counter("echo.shard.rounds").unwrap() >= 1);
        assert_eq!(snap.gauge("echo.shard.0.mailbox.depth"), Some(0), "idle between rounds");
    }

    #[test]
    fn shard_mailboxes_shed_oldest_events_but_never_control() {
        let (mut sys, c, ch, new_fmt, _) = fanout_fixture(6);
        for n in 0..2 {
            sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(n), Value::Int(1)]))
                .unwrap();
        }
        // One shard, 12 event frames in flight, room for 5.
        let mut driver = WallClockDriver::new(1).with_mailbox_capacity(5);
        let processed = sys.run_with(&mut driver);
        assert_eq!(processed, 5);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.shard.mailbox.shed"), Some(7));
        assert_eq!(snap.counter("echo.queue.shed"), Some(7));
        assert_eq!(snap.counter("echo.deadletter.shed"), Some(7));
        assert_eq!(snap.counter("echo.events.delivered"), Some(5));
        // Shed victims are quarantined at their receivers, oldest first:
        // the last sink in delivery order keeps its newest frame.
        let total_dead: u64 = (0..6).map(|i| sys.dead_letter_total(ProcessId(i + 1))).sum();
        assert_eq!(total_dead, 7);
    }

    #[test]
    fn shared_morph_caches_pay_the_cold_path_once_per_population() {
        let run = |shared: bool| -> (u64, u64) {
            let (mut sys, c, ch, new_fmt, _) = fanout_fixture(4);
            if shared {
                sys.enable_shared_morph_caches();
            }
            sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(2), Value::Int(3)]))
                .unwrap();
            sys.run();
            for i in 0..4 {
                let events = sys.take_events(ProcessId(i + 1));
                assert_eq!(events, vec![(ch, Value::Record(vec![Value::Int(6)]))]);
            }
            let compiles: u64 = (0..4).map(|i| sys.morph_stats(ProcessId(i + 1)).compiles).sum();
            let shared_hits: u64 = (0..4)
                .map(|i| {
                    let reg = sys.event_registry(ProcessId(i + 1), ch).unwrap();
                    reg.snapshot().counter("morph.decision.shared_hit").unwrap_or(0)
                })
                .sum();
            (compiles, shared_hits)
        };
        let (compiles, hits) = run(true);
        assert_eq!(compiles, 1, "one sink compiles; three reuse its decision");
        assert_eq!(hits, 3);
        let (compiles, hits) = run(false);
        assert_eq!(compiles, 4, "without sharing every sink pays the compile");
        assert_eq!(hits, 0);
    }

    #[test]
    fn provisioned_sinks_match_handshake_subscriptions() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        // s2 is provisioned, not subscribed: no frames travel.
        let before = sys.total_bytes();
        sys.provision_sink(s2, ch, &fmt).unwrap();
        assert_eq!(sys.total_bytes(), before, "provisioning is wire-silent");
        assert!(sys.members(c, ch).unwrap().iter().any(|m| m.contact == "sub-2" && m.is_sink));
        sys.run();
        // The publisher's view refreshes on its *own* next handshake; the
        // creator (authoritative) already routes to the provisioned sink.
        sys.publish(c, ch, &fmt, &tick(5)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, tick(5))]);
        assert!(sys.provision_sink(s2, ChannelId(99), &fmt).is_err());
    }

    #[test]
    fn tracing_off_publishes_untraced_frames_and_mints_no_spans() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        let traces_before = sys.trace_ids().len();
        sys.set_tracing(false);
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1, "delivery is unaffected");
        assert_eq!(sys.trace_ids().len(), traces_before, "no new trace minted");
        // Back on: the next publish traces again.
        sys.set_tracing(true);
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        sys.run();
        assert_eq!(sys.trace_ids().len(), traces_before + 1);
    }

    #[test]
    fn virtual_time_advances_and_traffic_counted() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        assert!(sys.now_ns() > 0);
        assert!(sys.total_bytes() > 0);
        assert_eq!(sys.version(c), EchoVersion::V2);
        assert!(!format!("{sys:?}").is_empty());
    }

    fn blob_format() -> Arc<RecordFormat> {
        FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
    }

    fn blob(n: i64, len: usize) -> Value {
        Value::Record(vec![Value::Int(n), Value::str("x".repeat(len))])
    }

    #[test]
    fn fragmented_publish_reassembles_at_each_sink() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = blob_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.subscribe(c, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_frame_budget(Some(64));
        let event = blob(1, 500);
        assert_eq!(sys.publish(s1, ch, &fmt, &event).unwrap(), 2);
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, event.clone())]);
        assert_eq!(sys.take_events(c), vec![(ch, event)]);
        let snap = sys.registry().snapshot();
        let frames = snap.counter("echo.frag.sent").unwrap();
        assert!(frames >= 16, "500+ bytes over a 64-byte budget, twice: {frames}");
        assert_eq!(snap.counter("echo.frag.received"), Some(frames));
        assert_eq!(snap.counter("echo.frag.reassembled"), Some(2));
        assert_eq!(snap.counter("echo.channel.reliable.delivered"), Some(2));
        assert_eq!(snap.counter("echo.events.delivered"), Some(2));
        assert_eq!(sys.reassembly_depth(s2), 0, "nothing left in progress");
        assert_eq!(snap.gauge("echo.frag.buffered"), Some(0));
        // Small events keep travelling unfragmented.
        let small = tick_format();
        let ch2 = sys.create_channel(c);
        sys.subscribe(s2, ch2, Role::sink(), Some(&small)).unwrap();
        sys.run();
        sys.publish(c, ch2, &small, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);
        assert_eq!(sys.registry().snapshot().counter("echo.frag.sent"), Some(frames));
    }

    #[test]
    fn unreliable_tiers_skip_the_retry_queue_and_count_drops() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_channel_qos(ch, QosTier::UnorderedUnreliable);
        sys.set_link_up(s1, s2, false);
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        // Fire-and-forget: the down link ate the frame — no retry queue
        // entry, no dead letter, just the tier's drop counter.
        assert_eq!(sys.pending_retries(), 0);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.channel.unordered.dropped"), Some(1));
        assert_eq!(snap.counter("echo.channel.unordered.sent"), Some(1));
        assert_eq!(snap.counter("echo.deadletter.total"), Some(0));
        // Sequenced behaves the same way on loss...
        sys.set_channel_qos(ch, QosTier::SequencedUnreliable);
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        assert_eq!(sys.pending_retries(), 0);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.channel.sequenced.dropped"), Some(1));
        // ...while a reliable publish on a healed link still delivers.
        sys.set_link_up(s1, s2, true);
        sys.set_channel_qos(ch, QosTier::Reliable);
        sys.publish(s1, ch, &fmt, &tick(3)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, tick(3))]);
    }

    #[test]
    fn partial_fragment_sets_time_out_into_the_dlq() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = blob_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_frame_budget(Some(64));
        sys.set_reassembly_limits(8, 200_000_000);
        // Half the frames vanish in flight: fragmented messages lose limbs.
        sys.set_fault_plan(s1, s2, FaultPlan::new(7).drop_per_mille(500));
        let published = 6u64;
        for n in 0..published {
            sys.publish(s1, ch, &fmt, &blob(n as i64, 400)).unwrap();
        }
        sys.run();
        // Time out the survivors' partial sets.
        sys.advance_ns(300_000_000);
        sys.run();
        let delivered = sys.take_events(s2).len() as u64;
        let snap = sys.registry().snapshot();
        let timeouts = snap.counter("echo.frag.timeout").unwrap();
        let partial_dlq = snap.counter("echo.deadletter.partial_fragments").unwrap();
        assert_eq!(timeouts, partial_dlq);
        assert!(timeouts > 0, "a 50% drop rate must maim at least one message");
        assert!(delivered < published, "some messages had to lose fragments");
        assert_eq!(
            delivered + partial_dlq,
            published,
            "every message either completed or dead-lettered as a partial"
        );
        assert_eq!(sys.reassembly_depth(s2), 0, "the sweep leaves nothing behind");
        assert_eq!(snap.gauge("echo.frag.buffered"), Some(0));
        let partials: Vec<DeadLetter> = sys
            .dead_letters(s2)
            .into_iter()
            .filter(|l| l.reason == DeadReason::PartialFragments)
            .collect();
        assert_eq!(partials.len() as u64, partial_dlq);
        assert!(partials.iter().all(|l| l.detail.contains("reassembly timeout")));
    }

    #[test]
    fn frame_budget_carries_large_events_through_a_link_mtu() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = blob_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.net.set_link_mtu(sys.net_ids[s1.0], sys.net_ids[s2.0], 128);
        // Unfragmented, the 500-byte event is refused by the wire outright.
        let err = sys.publish(s1, ch, &fmt, &blob(1, 500)).unwrap_err();
        assert!(matches!(err, EchoError::Net(NetError::Oversized { .. })), "got {err}");
        // Fragmented under budget + header ≤ MTU, it goes through.
        sys.set_frame_budget(Some(64));
        sys.publish(s1, ch, &fmt, &blob(1, 500)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, blob(1, 500))]);
    }

    #[test]
    fn self_telemetry_publishes_v2_that_v1_collectors_morph_with_no_code() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let tele = sys.create_channel(c);
        let work = sys.create_channel(c);
        let fmt = tick_format();
        // The collector is a *v1-era* sink: it registered the six-field
        // telemetry record and has never heard of queue_depth.
        sys.subscribe(s2, tele, Role::sink(), Some(&telemetry::telemetry_format_v1())).unwrap();
        sys.subscribe(s1, work, Role::source(), None).unwrap();
        sys.subscribe(c, work, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.enable_self_telemetry(c, tele, 300_000);
        assert_eq!(sys.channel_qos(tele), QosTier::SequencedUnreliable);

        // Drive workload traffic so virtual time crosses reporting periods.
        for n in 0..40 {
            sys.publish(s1, work, &fmt, &tick(n)).unwrap();
            sys.run();
        }
        let snap = sys.registry().snapshot();
        let published = snap.counter("echo.telemetry.published").unwrap_or(0);
        assert!(published >= 3, "telemetry fired {published} times");
        // Every record encodes to the same 72 B: a 16 B PBIO header and
        // seven 8 B longs.
        assert_eq!(snap.counter("echo.telemetry.bytes"), Some(72 * published));

        // The v1 collector decoded every v2 record via MaxMatch +
        // default-fill: near-match adaptation only, zero transformation
        // code written or compiled.
        let records = sys.take_events(s2);
        assert!(!records.is_empty());
        assert!(records.iter().all(|(ch, _)| *ch == tele));
        let v1 = telemetry::telemetry_format_v1();
        let mut last_seq = 0;
        for (_, v) in &records {
            let Value::Record(fields) = v else { panic!("not a record: {v:?}") };
            assert_eq!(fields.len(), v1.fields().len(), "morphed to the v1 shape");
            let seq = v.field(&v1, "seq").and_then(Value::as_i64).unwrap();
            assert!(seq > last_seq, "seq must advance: {seq} after {last_seq}");
            last_seq = seq;
            assert!(v.field(&v1, "elapsed_ns").and_then(Value::as_i64).unwrap() > 0);
            assert!(v.field(&v1, "published").and_then(Value::as_i64).unwrap() >= 0);
        }
        let stats = sys.morph_stats(s2);
        assert!(stats.near_matches >= 1, "MaxMatch path never taken: {stats:?}");
        assert_eq!(stats.morphs, 0, "a hand-written transformation ran: {stats:?}");
        assert_eq!(stats.compiles, 0, "transformation code was compiled: {stats:?}");
    }

    /// The virtual-time loop and the two-shard wall-clock runtime (both
    /// stateless, so one value drives any number of systems).
    fn both_drivers() -> [Box<dyn Driver>; 2] {
        [Box::new(VirtualTimeDriver), Box::new(WallClockDriver::new(2))]
    }

    /// The `echo.*` part of the system registry's snapshot — counters,
    /// gauges, histograms with their sample counts and buckets — as text.
    /// The sharded runtime's per-round timings are left out: they are the
    /// registry's only wall-clock samples, so no two runs agree on them.
    fn echo_metrics(sys: &EchoSystem) -> String {
        let mut snap = sys.registry().snapshot();
        snap.counters.retain(|(name, _)| name.starts_with("echo."));
        snap.gauges.retain(|(name, _)| name.starts_with("echo."));
        snap.histograms.retain(|(name, _)| {
            name.starts_with("echo.") && !name.starts_with("echo.shard.round.")
        });
        snap.to_text()
    }

    #[test]
    fn idle_bystanders_change_nothing_the_system_reports() {
        // One script — handshakes, a mixed-version fan-out, a fragmented
        // publish, a sink's crash window, an unsubscribe — run with the
        // processes it needs and again among 1,500 connected processes that
        // never send or receive. The run loop must not be able to tell.
        let script = |bystanders: usize, driver: &mut dyn Driver| {
            let mut sys = EchoSystem::new();
            let c = sys.add_process("creator", EchoVersion::V2);
            let src = sys.add_process("source", EchoVersion::V2);
            let old = sys.add_process("sink-v1", EchoVersion::V1);
            let new = sys.add_process("sink-v2", EchoVersion::V2);
            sys.connect_all(LinkParams::lan());
            for i in 0..bystanders {
                let idle = sys.add_process(format!("idle-{i}"), EchoVersion::V2);
                sys.connect(c, idle, LinkParams::lan());
                sys.connect(src, idle, LinkParams::lan());
            }
            let fmt = blob_format();
            let ch = sys.create_channel(c);
            sys.subscribe(src, ch, Role::source(), None).unwrap();
            sys.subscribe(old, ch, Role::sink(), Some(&fmt)).unwrap();
            sys.subscribe(new, ch, Role::sink(), Some(&fmt)).unwrap();
            sys.run_with(driver);
            sys.set_frame_budget(Some(64));
            let now = sys.now_ns();
            sys.set_crash_windows(old, &[(now, now + 2_000_000)]);
            for n in 0..3 {
                sys.publish(src, ch, &fmt, &blob(n, 40 + 100 * n as usize)).unwrap();
                sys.run_with(driver);
            }
            sys.unsubscribe(new, ch).unwrap();
            sys.run_with(driver);
            sys.publish(src, ch, &fmt, &blob(9, 300)).unwrap();
            sys.run_with(driver);
            (sys.take_events(old), sys.take_events(new), echo_metrics(&sys), sys.now_ns())
        };
        for mut driver in both_drivers() {
            let alone = script(0, &mut *driver);
            assert_eq!((alone.0.len(), alone.1.len()), (4, 3), "the script delivers");
            assert_eq!(alone, script(1500, &mut *driver));
        }
    }

    /// One fragment of a never-completed two-fragment message, traced so
    /// its dead letter shows up in the flight recorder.
    fn orphan_fragment(ch: ChannelId, seq: u64) -> WireBytes {
        proto::frame_qos(
            proto::FRAME_EVENT,
            ch,
            seq,
            TRACE_MARK | seq,
            QosTier::Reliable,
            0,
            2,
            0,
            b"half",
        )
    }

    /// Names of the nodes that quarantined something, in recorder order.
    fn quarantine_order(sys: &EchoSystem) -> Vec<String> {
        let events = sys.recorder().events();
        let at = events.iter().filter(|e| e.name == "echo.quarantine");
        at.map(|e| e.tag("node").expect("quarantines name their node").to_string()).collect()
    }

    #[test]
    fn partials_on_two_processes_expire_in_process_order_and_crashes_leave_the_set_clean() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.set_reassembly_limits(8, 1_000);
        // Both hold a record of the channel, where their fragment sets live.
        for s in [s1, s2] {
            sys.nodes[s.0].set_role(ch, Role::sink());
        }
        let buffered = |sys: &EchoSystem| sys.registry().snapshot().gauge("echo.frag.buffered");
        // The higher-numbered process starts reassembling first.
        sys.dispatch_frame(s2.0, c.0, &orphan_fragment(ch, 1));
        sys.dispatch_frame(s1.0, c.0, &orphan_fragment(ch, 2));
        sys.run();
        assert_eq!(buffered(&sys), Some(2));
        assert_eq!(sys.reassembling.iter().copied().collect::<Vec<_>>(), vec![s1.0, s2.0]);
        // Both sets are overdue at the same sweep: process order decides.
        sys.advance_ns(2_000);
        sys.run();
        assert_eq!(quarantine_order(&sys), ["pub-1", "sub-2"]);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.frag.timeout"), Some(2));
        assert_eq!(snap.counter("echo.deadletter.partial_fragments"), Some(2));
        assert_eq!(buffered(&sys), Some(0));
        assert!(sys.reassembling.is_empty(), "swept-empty processes leave the set");

        // A crash wipes a process's partials behind the set's back; the
        // next sweep notices and the gauge still returns to zero.
        sys.dispatch_frame(s2.0, c.0, &orphan_fragment(ch, 3));
        sys.run();
        assert_eq!(buffered(&sys), Some(1));
        let now = sys.now_ns();
        sys.set_crash_windows(s2, &[(now + 10, now + 20)]);
        sys.run();
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.crash.lost.partials"), Some(1));
        assert_eq!(snap.counter("echo.frag.timeout"), Some(2), "lost to the crash, not timed out");
        assert_eq!(buffered(&sys), Some(0));
        assert_eq!(sys.reassembly_depth(s2), 0);
        assert!(sys.reassembling.is_empty());
    }

    /// The tier books follow the wire: `sent` is the denominator of every
    /// tier identity, so a publish refused with a configuration error must
    /// not count a message the wire never saw.
    #[test]
    fn a_refused_publish_leaves_the_tier_books_where_the_wire_is() {
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", EchoVersion::V2);
        let near = sys.add_process("near", EchoVersion::V2);
        let lone = sys.add_process("unconnected", EchoVersion::V2);
        sys.connect(c, near, LinkParams::lan());
        let fmt = blob_format();
        let ch = sys.create_channel(c);
        let books = |sys: &EchoSystem| {
            let snap = sys.registry().snapshot();
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            (
                counter("echo.channel.reliable.sent"),
                counter("echo.frag.sent"),
                counter("simnet.messages"),
            )
        };

        // No route: the only sink was provisioned but never connected.
        sys.provision_sink(lone, ch, &fmt).unwrap();
        let refused = sys.publish(c, ch, &fmt, &blob(0, 10));
        assert!(matches!(refused, Err(EchoError::Net(NetError::NoRoute(..)))), "{refused:?}");
        assert_eq!(books(&sys), (0, 0, 0), "nothing was sent, queued or dropped");
        assert_eq!((sys.pending_retries(), sys.dead_letter_total(c)), (0, 0));

        // A sink ahead of the refused one is on the books, the refused one
        // is not — fragments included.
        assert!(sys.nodes[c.0].remove_member(ch, "unconnected"));
        sys.provision_sink(near, ch, &fmt).unwrap();
        sys.provision_sink(lone, ch, &fmt).unwrap();
        sys.set_frame_budget(Some(64));
        let refused = sys.publish(c, ch, &fmt, &blob(1, 200));
        assert!(matches!(refused, Err(EchoError::Net(NetError::NoRoute(..)))), "{refused:?}");
        let (sent, frags, on_wire) = books(&sys);
        assert_eq!(sent, 1, "the connected sink's message");
        assert!(frags > 1 && frags == on_wire, "its fragments, all on the wire: {frags}");

        // Oversized: the link refuses the first fragment frame.
        assert!(sys.nodes[c.0].remove_member(ch, "unconnected"));
        sys.run();
        assert_eq!(sys.take_events(near), vec![(ch, blob(1, 200))]);
        sys.net.set_link_mtu(sys.net_ids[c.0], sys.net_ids[near.0], 32);
        let before = books(&sys);
        let refused = sys.publish(c, ch, &fmt, &blob(2, 200));
        assert!(matches!(refused, Err(EchoError::Net(NetError::Oversized { .. }))), "{refused:?}");
        assert_eq!(books(&sys), before);
    }

    /// `publish` walks a cached resolution of the channel's sinks. After
    /// everything that can change the member list or the contact table, at
    /// the creator and at a non-creator source, the cache hands out what
    /// `sink_contacts` recomputes from the member list — and the next
    /// publish reaches exactly those processes.
    #[test]
    fn the_sink_index_follows_every_membership_and_contact_change() {
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", EchoVersion::V2);
        let src = sys.add_process("source", EchoVersion::V2);
        let [s1, s2, s3] = ["s1", "s2", "s3"].map(|n| sys.add_process(n, EchoVersion::V2));
        sys.connect_all(LinkParams::lan());
        let fmt = tick_format();
        let ch = sys.create_channel(c);
        sys.subscribe(src, ch, Role::source(), None).unwrap();
        sys.run();

        let mut n = 0;
        let mut check = |sys: &mut EchoSystem, step: &str| {
            for publisher in [c, src] {
                let oracle: Vec<usize> = sys.nodes[publisher.0]
                    .sink_contacts(ch)
                    .filter_map(|contact| sys.by_contact.get(contact).copied())
                    .collect();
                // Warm the cache, then ask again: the second answer is the
                // cached one.
                sys.sink_index(publisher.0, ch);
                assert_eq!(&*sys.sink_index(publisher.0, ch), oracle, "{step}: index");
                n += 1;
                assert_eq!(sys.publish(publisher, ch, &fmt, &tick(n)).unwrap(), oracle.len());
                sys.run();
                let mut reached: Vec<usize> = (0..sys.nodes.len())
                    .filter(|&i| !sys.take_events(ProcessId(i)).is_empty())
                    .collect();
                let mut expected = oracle;
                expected.sort_unstable();
                reached.sort_unstable();
                assert_eq!(reached, expected, "{step}: publish from process {}", publisher.0);
            }
        };
        check(&mut sys, "no sinks yet");

        sys.subscribe(s1, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        check(&mut sys, "subscribe");
        // The refresh that told `source` about s2 arrives in this run.
        sys.subscribe(s2, ch, Role::both(), Some(&fmt)).unwrap();
        sys.run();
        check(&mut sys, "second subscribe, refresh at the non-creator source");
        assert_eq!(sys.sink_index(src.0, ch).len(), 2);

        sys.unsubscribe(s1, ch).unwrap();
        sys.run();
        check(&mut sys, "unsubscribe");
        // s2 publishing skips itself.
        assert!(sys.sink_index(s2.0, ch).is_empty());

        // Provisioning changes the creator's list only; the source learns
        // of s3 with the next refresh.
        sys.provision_sink(s3, ch, &fmt).unwrap();
        check(&mut sys, "provision_sink");
        assert_eq!((sys.sink_index(c.0, ch).len(), sys.sink_index(src.0, ch).len()), (2, 1));
        sys.subscribe(s1, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        check(&mut sys, "refresh after provisioning");
        assert_eq!(sys.sink_index(src.0, ch).len(), 3);

        // A member whose contact resolves only once its process exists:
        // the join is on the creator's list before `add_process`.
        sys.nodes[c.0].add_member(ch, "late".into(), Role::sink()).unwrap();
        check(&mut sys, "member with an unresolved contact");
        assert_eq!(sys.sink_index(c.0, ch).len(), 3);
        let late = sys.add_process("late", EchoVersion::V2);
        sys.connect(c, late, LinkParams::lan());
        sys.nodes[late.0].expect_events(ch, &fmt);
        check(&mut sys, "add_process resolves the contact");
        assert_eq!(sys.sink_index(c.0, ch).len(), 4);

        // Crash and restart, of a publisher and of a sink.
        for (victim, step) in [(c, "publisher crash + restart"), (s2, "sink crash + restart")] {
            let now = sys.now_ns();
            sys.set_crash_windows(victim, &[(now + 10, now + 20)]);
            sys.run();
            assert_eq!(sys.epoch_of(victim), 1, "{step}");
            check(&mut sys, step);
        }
    }
}
