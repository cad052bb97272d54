//! ECho process state: channel bookkeeping plus the morphing receivers for
//! control messages and per-channel events.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

use morph::{
    deadletter, DeadLetterQueue, DeadReason, DecisionCache, MorphError, MorphReceiver, MorphStats,
    Transformation,
};
use obs::{ActiveSpan, FlightRecorder, Histogram, HistogramFamily, SpanEvent, TraceCtx, TraceId};
use pbio::{Encoder, PlanStore, RecordFormat, Value, WireBytes};

use crate::frag::{Fragment, Offer, PartialSet, ReassemblyBuffer};
use crate::proto::{self, ChannelId, FrameError, MemberInfo, QosTier};
use crate::EchoError;

/// How many recently seen `(sender, seq, frag_index)` triples a node
/// remembers for duplicate suppression.
const DEDUP_WINDOW: usize = 4096;

/// Default bound on in-progress fragment sets per channel.
const REASSEMBLY_CAPACITY: usize = 32;

/// Default virtual-clock age at which a partial fragment set dead-letters.
const REASSEMBLY_TIMEOUT_NS: u64 = 500_000_000;

/// How many quarantined messages a node keeps (counters track the true
/// totals beyond this bound).
const DLQ_CAPACITY: usize = 256;

/// Which historical ECho release a process runs (determines which
/// `ChannelOpenResponse` format it emits and understands natively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EchoVersion {
    /// ECho v1.0: three-list response format (Fig. 4a).
    V1,
    /// ECho v2.0: single-list response with role flags (Fig. 4b).
    V2,
}

/// Subscription role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Role {
    /// Subscribes as an event source.
    pub source: bool,
    /// Subscribes as an event sink.
    pub sink: bool,
}

impl Role {
    /// Source-only role.
    pub fn source() -> Role {
        Role { source: true, sink: false }
    }

    /// Sink-only role.
    pub fn sink() -> Role {
        Role { source: false, sink: true }
    }

    /// Source and sink.
    pub fn both() -> Role {
        Role { source: true, sink: true }
    }
}

/// A message to be sent on the network, addressed by contact string.
/// Carries framed bytes as a [`WireBytes`] view, so retry queues and
/// the wire share the frame's buffer instead of copying it.
#[derive(Debug, Clone)]
pub(crate) struct Outgoing {
    pub to_contact: String,
    pub bytes: WireBytes,
}

/// What became of one incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Verified, fresh, and processed (kind, channel, tier).
    Handled(u8, ChannelId, QosTier),
    /// A fragment that completed its set: the reassembled message was
    /// processed (channel, tier, set size).
    Reassembled(ChannelId, QosTier, u16),
    /// A fragment buffered into the channel's reassembly buffer, its set
    /// still incomplete.
    FragmentBuffered(ChannelId),
    /// Dropped by sequenced newest-wins policy: the frame's message seq
    /// trails the latest seen from its sender on this channel.
    Stale(ChannelId),
    /// Verified but already seen (duplicate suppression by sender seq and
    /// fragment index).
    Duplicate(u8, ChannelId),
    /// Refused by the epoch fence: the frame carries an epoch below the
    /// sender's known incarnation — it was in flight when its sender
    /// crashed, and delivering it would resurrect pre-crash state. Dead-
    /// lettered as [`DeadReason::StaleEpoch`].
    Fenced(ChannelId),
    /// Quarantined in the node's dead-letter queue, never decoded or
    /// already failed decoding/delivery.
    Quarantined(DeadReason),
}

/// The result of [`NodeState::handle_frame`]: the frame's fate plus any
/// follow-up messages to put on the wire, plus partial-set accounting
/// (sets this frame's arrival evicted or superseded — already
/// dead-lettered / dropped inside the node, surfaced here so the system
/// can count them).
#[derive(Debug)]
pub(crate) struct FrameOutcome {
    pub disposition: Disposition,
    pub outgoing: Vec<Outgoing>,
    /// Partial sets capacity-evicted (and dead-lettered) by this frame.
    pub evicted_partials: u16,
    /// Partial sets superseded (newest-wins) and dropped by this frame.
    pub stale_partials: u16,
    /// This frame bumped the sender's known epoch — the sender restarted
    /// (an explicit resume handshake or any higher-epoch frame).
    pub resumed: bool,
    /// For Reliable event frames that reached the receiver (handled,
    /// buffered, or recognized as a duplicate): the `(channel, seq,
    /// frag_index)` the sender may stop redelivering. The system folds it
    /// into the sender's journal as an ack.
    pub ack: Option<(ChannelId, u64, u16)>,
    /// For Reliable event frames freshly noted in the dedup window: the
    /// `(seq, frag_index)` a journaling receiver persists so the window
    /// survives its own crash.
    pub seen: Option<(u64, u16)>,
    /// For sequenced event frames that passed newest-wins: the `(channel,
    /// latest seq)` watermark after this frame — a journaling receiver
    /// persists it so newest-wins still suppresses pre-crash traffic after
    /// a restart.
    pub watermark: Option<(ChannelId, u64)>,
}

/// What one crash amnesia pass erased, for the system's
/// `echo.crash.lost.*` accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AmnesiaReport {
    /// Dedup triples forgotten.
    pub dedup: usize,
    /// Sequenced newest-wins watermarks forgotten.
    pub watermarks: usize,
    /// Partial fragment sets lost (each dead-lettered as crash-lost).
    pub partials: u16,
    /// Warm morph decisions invalidated across all receivers.
    pub decisions: usize,
}

impl FrameOutcome {
    fn settled(disposition: Disposition) -> FrameOutcome {
        FrameOutcome {
            disposition,
            outgoing: Vec::new(),
            evicted_partials: 0,
            stale_partials: 0,
            resumed: false,
            ack: None,
            seen: None,
            watermark: None,
        }
    }
}

type ControlInbox = Arc<Mutex<Vec<Value>>>;
type EventInbox = Arc<Mutex<Vec<(ChannelId, Value)>>>;

/// One ECho process.
pub(crate) struct NodeState {
    pub name: String,
    pub version: EchoVersion,
    control_rx: MorphReceiver,
    requests: ControlInbox,
    responses: ControlInbox,
    /// The event plane of every channel this node expects events on,
    /// sorted by channel: a frame resolves its channel's slot once and
    /// indexes from there on.
    planes: Vec<EventPlane>,
    /// `echo.stage.encode.ns` in the control registry — the publish-side
    /// stage of the latency attribution.
    encode_ns: Arc<Histogram>,
    events: EventInbox,
    /// Channels this node created, with their membership.
    owned: HashMap<ChannelId, Vec<MemberInfo>>,
    /// Latest membership view per subscribed channel.
    memberships: HashMap<ChannelId, Vec<MemberInfo>>,
    /// Per channel, the sinks of [`NodeState::sink_contacts`] resolved to
    /// process indices, as [`NodeState::cache_sink_index`] stored them.
    /// Volatile: an entry is dropped by whatever changes the channel's
    /// member list, and the lot by a crash.
    sink_index: HashMap<ChannelId, SinkIndex>,
    /// This node's role per channel.
    pub roles: HashMap<ChannelId, Role>,
    next_member_id: i64,
    /// Transformations to seed into future per-channel event receivers.
    shared_xforms: Vec<Transformation>,
    shared_formats: Vec<Arc<RecordFormat>>,
    /// Next outgoing frame sequence number.
    pub(crate) next_seq: u64,
    /// This process's incarnation number, stamped on every outgoing frame.
    /// Bumped by each crash-restart; receivers fence frames from older
    /// incarnations. Epoch 0 is the first incarnation.
    epoch: u32,
    /// Highest epoch seen per sender. Frames below a sender's known epoch
    /// are fenced ([`Disposition::Fenced`]); frames above it are an
    /// implicit resume. Volatile — cleared by crash amnesia (fencing is a
    /// receiver-freshness guard, not durable contract state).
    peer_epochs: HashMap<u64, u32>,
    /// Recently seen incoming `(sender, seq, frag_index)` triples, for
    /// duplicate suppression. Keyed per sender: two senders may
    /// legitimately emit overlapping sequence numbers without suppressing
    /// each other; fragments of one message share a seq and are told apart
    /// by index.
    seen_seqs: HashSet<(u64, u64, u16)>,
    seen_order: VecDeque<(u64, u64, u16)>,
    /// In-progress fragment sets, per channel.
    reassembly: HashMap<ChannelId, ReassemblyBuffer>,
    reassembly_capacity: usize,
    reassembly_timeout_ns: u64,
    /// Sequenced newest-wins watermark: latest message seq seen per
    /// (channel, sender). Frames trailing it are stale.
    latest_seq: HashMap<(ChannelId, u64), u64>,
    /// Virtual time of the current dispatch round, stamped by the system
    /// before frames are handled; reassembly ages against it.
    now_ns: u64,
    /// Quarantine for frames that could not be delivered.
    dlq: DeadLetterQueue,
    /// Flight recorder for causal traces, shared system-wide.
    recorder: Option<Arc<FlightRecorder>>,
    /// System-wide morph caches, attached when the system opts in: every
    /// receiver (control plane and event planes, existing and future)
    /// shares one decision cache and one conversion-plan store, so the
    /// cold-path work of MaxMatch + plan compilation is paid once per
    /// compatible receiver population instead of once per receiver.
    shared_caches: Option<(DecisionCache, PlanStore)>,
}

/// A channel's resolved fan-out: the sink process indices, and the size of
/// the contact table they were resolved against (it only grows, so its
/// size is its version).
struct SinkIndex {
    contacts: usize,
    sinks: Arc<[usize]>,
}

/// One channel's event plane at a node: the morphing receiver events are
/// delivered into, and the channel's latency attribution — wall-clock
/// `echo.stage.<stage>.ns` histograms in the receiver's registry, so one
/// snapshot answers "where did the microseconds go" for that channel's
/// deliveries.
struct EventPlane {
    channel: ChannelId,
    rx: MorphReceiver,
    /// Indexed by the `STAGE_*` constants.
    stages: HistogramFamily,
}

/// Receiver-side trace context for one frame: the `echo.handle` span (open
/// while the frame is dispatched) plus the trace id it travelled under.
/// Both are `None` when the frame carried no trace or no recorder is
/// attached.
struct HandleTrace {
    span: Option<ActiveSpan>,
    trace: Option<TraceId>,
}

/// The receiver-side stage labels of the latency attribution family, in
/// [`EventPlane::stages`] index order. Two more stages live elsewhere: `encode` in
/// the publisher's control registry, `queue_wait` (virtual time) in the
/// system registry.
const STAGE_LABELS: [&str; 4] = ["unframe", "decode", "morph", "deliver"];
const STAGE_UNFRAME: usize = 0;
const STAGE_DECODE: usize = 1;
const STAGE_MORPH: usize = 2;
const STAGE_DELIVER: usize = 3;

impl EventPlane {
    fn new(channel: ChannelId) -> EventPlane {
        let rx = MorphReceiver::new();
        let stages = HistogramFamily::labeled(rx.registry(), "echo.stage", "ns", &STAGE_LABELS);
        EventPlane { channel, rx, stages }
    }

    /// Records the unframe cost of a frame bound for this channel.
    fn record_unframe(&self, ns: u64) {
        self.stages.get(STAGE_UNFRAME).record(ns);
    }

    /// Runs the receiver over a payload. `deliver` is the whole receiver
    /// dispatch; `decode` and `morph` are carved out of it. All three come
    /// from the timing samples the receiver took for its own histograms
    /// ([`morph::ProcessTiming`]) — attribution without a second clock
    /// read on the hot path.
    fn deliver(
        &mut self,
        payload: &[u8],
        ctx: Option<TraceCtx>,
    ) -> Result<morph::Delivery, MorphError> {
        let (result, timing) = self.rx.process_timed(payload, ctx);
        // A warm replay's time is the whole Algorithm 2 pass, decoding
        // included; the morph stage is what remains after decode. A cold
        // pass books no morph time (`morph.decide_ns` has it).
        let morph_ns =
            if timing.warm { timing.total_ns.saturating_sub(timing.decode_ns) } else { 0 };
        self.stages.get(STAGE_DELIVER).record(timing.total_ns);
        self.stages.get(STAGE_DECODE).record(timing.decode_ns);
        self.stages.get(STAGE_MORPH).record(morph_ns);
        result
    }
}

impl NodeState {
    pub fn new(name: String, version: EchoVersion) -> NodeState {
        let requests: ControlInbox = Arc::new(Mutex::new(Vec::new()));
        let responses: ControlInbox = Arc::new(Mutex::new(Vec::new()));
        let mut control_rx = MorphReceiver::new();
        let req_sink = Arc::clone(&requests);
        control_rx.register_handler(&proto::channel_open_request(), move |v| {
            req_sink.lock().expect("inbox lock").push(v);
        });
        let resp_fmt = match version {
            EchoVersion::V1 => proto::channel_open_response_v1(),
            EchoVersion::V2 => proto::channel_open_response_v2(),
        };
        let resp_sink = Arc::clone(&responses);
        control_rx.register_handler(&resp_fmt, move |v| {
            resp_sink.lock().expect("inbox lock").push(v);
        });
        let dlq = DeadLetterQueue::with_registry(
            DLQ_CAPACITY,
            control_rx.registry(),
            "echo.node.deadletter",
        );
        let encode_ns = control_rx.registry().histogram("echo.stage.encode.ns");
        NodeState {
            name,
            version,
            control_rx,
            requests,
            responses,
            planes: Vec::new(),
            encode_ns,
            events: Arc::new(Mutex::new(Vec::new())),
            owned: HashMap::new(),
            memberships: HashMap::new(),
            sink_index: HashMap::new(),
            roles: HashMap::new(),
            next_member_id: 1,
            shared_xforms: Vec::new(),
            shared_formats: Vec::new(),
            next_seq: 0,
            epoch: 0,
            peer_epochs: HashMap::new(),
            seen_seqs: HashSet::new(),
            seen_order: VecDeque::new(),
            reassembly: HashMap::new(),
            reassembly_capacity: REASSEMBLY_CAPACITY,
            reassembly_timeout_ns: REASSEMBLY_TIMEOUT_NS,
            latest_seq: HashMap::new(),
            now_ns: 0,
            dlq,
            recorder: None,
            shared_caches: None,
        }
    }

    /// Attaches system-wide morph caches: the control receiver and every
    /// event receiver (existing and future) consult the shared decision
    /// cache and conversion-plan store before paying MaxMatch or a plan
    /// compile. Sharing is safe across mixed-version nodes because the
    /// decision cache keys on each receiver's compatibility fingerprint —
    /// receivers with different readers or transformations never exchange
    /// decisions.
    pub fn enable_shared_caches(&mut self, decisions: DecisionCache, plans: PlanStore) {
        self.control_rx.set_shared_decisions(decisions.clone());
        self.control_rx.set_plan_store(plans.clone());
        for plane in &mut self.planes {
            plane.rx.set_shared_decisions(decisions.clone());
            plane.rx.set_plan_store(plans.clone());
        }
        self.shared_caches = Some((decisions, plans));
    }

    /// Attaches the system flight recorder: incoming frames that carry a
    /// trace id get `echo.handle` spans, and the node's registries (control
    /// plane now, event planes as they are created) gain the recorder so
    /// morphing stages can attribute their spans.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.control_rx.registry().set_recorder(Arc::clone(&recorder));
        for plane in &self.planes {
            plane.rx.registry().set_recorder(Arc::clone(&recorder));
        }
        self.recorder = Some(recorder);
    }

    /// Allocates the next outgoing frame sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Records an incoming `(sender, seq, frag_index)` triple; returns
    /// false if it was seen before (a duplicate from the same sender). The
    /// memory is a bounded sliding window.
    fn note_seq(&mut self, sender: u64, seq: u64, index: u16) -> bool {
        if !self.seen_seqs.insert((sender, seq, index)) {
            return false;
        }
        self.seen_order.push_back((sender, seq, index));
        if self.seen_order.len() > DEDUP_WINDOW {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_seqs.remove(&old);
            }
        }
        true
    }

    /// Stamps the virtual time frames handled next will observe (the
    /// system sets this before each dispatch round; reassembly entries age
    /// against it).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Records one publish-side encode duration into the control
    /// registry's `echo.stage.encode.ns`.
    pub fn record_encode_ns(&self, ns: u64) {
        self.encode_ns.record(ns);
    }

    /// Re-bounds every (current and future) per-channel reassembly buffer.
    pub fn configure_reassembly(&mut self, capacity: usize, timeout_ns: u64) {
        self.reassembly_capacity = capacity.max(1);
        self.reassembly_timeout_ns = timeout_ns;
        for buf in self.reassembly.values_mut() {
            buf.set_limits(capacity, timeout_ns);
        }
    }

    /// In-progress fragment sets across all channels.
    pub fn reassembly_depth(&self) -> usize {
        self.reassembly.values().map(ReassemblyBuffer::len).sum()
    }

    /// Expires partial fragment sets whose first fragment is older than
    /// the reassembly timeout at `now_ns`, dead-lettering each with
    /// [`DeadReason::PartialFragments`]. Channels are visited in id order
    /// so the sweep is deterministic. Returns how many sets expired.
    pub fn sweep_reassembly(&mut self, now_ns: u64) -> u16 {
        self.now_ns = now_ns;
        let mut channels: Vec<ChannelId> = self.reassembly.keys().copied().collect();
        channels.sort_unstable();
        let mut expired = 0u16;
        for ch in channels {
            let sets = match self.reassembly.get_mut(&ch) {
                Some(buf) => buf.sweep(now_ns),
                None => Vec::new(),
            };
            for p in sets {
                self.quarantine_partial(&p, "reassembly timeout");
                expired += 1;
            }
        }
        expired
    }

    /// Dead-letters a partial fragment set, quarantining its first-received
    /// fragment frame as evidence and sealing the message's trace (if it
    /// carried one) with a `reassembly`-stage quarantine event.
    fn quarantine_partial(&mut self, p: &PartialSet, why: &str) {
        let detail = format!("{} of {} fragments ({})", p.received, p.count, why);
        let ctx = p.trace.map(|t| TraceCtx::root(TraceId(t)));
        self.quarantine_dropped(DeadReason::PartialFragments, "reassembly", &p.frame, &detail, ctx);
    }

    /// This process's current incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Starts the next incarnation (called by the system at restart,
    /// before anything is sent). Returns the new epoch.
    pub fn bump_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// Crash amnesia: drops every piece of volatile per-peer state — the
    /// dedup window, sequenced watermarks, peer epochs, in-progress
    /// fragment sets (each dead-lettered as [`DeadReason::CrashLost`]),
    /// and the morph receivers' private decision caches (a shared system
    /// cache survives: it models state outside the process). Durable
    /// configuration — channel ownership, memberships, roles, formats —
    /// stays, as does the outgoing sequence counter (modeled as derived
    /// from a restart-surviving monotonic source, so sequence numbers are
    /// never reused; see `JournalEntry::SeqFloor` for the journaled belt
    /// and braces). Returns what was lost, for the system's
    /// `echo.crash.lost.*` counters.
    pub fn crash_amnesia(&mut self) -> AmnesiaReport {
        let dedup = self.seen_seqs.len();
        self.seen_seqs.clear();
        self.seen_order.clear();
        let watermarks = self.latest_seq.len();
        self.latest_seq.clear();
        self.peer_epochs.clear();
        let mut channels: Vec<ChannelId> = self.reassembly.keys().copied().collect();
        channels.sort_unstable();
        let mut partials = 0u16;
        for ch in channels {
            let sets = self.reassembly.get_mut(&ch).map(ReassemblyBuffer::drain_all);
            for p in sets.unwrap_or_default() {
                let detail = format!("{} of {} fragments (crash)", p.received, p.count);
                let ctx = p.trace.map(|t| TraceCtx::root(TraceId(t)));
                self.quarantine_dropped(DeadReason::CrashLost, "crash", &p.frame, &detail, ctx);
                partials += 1;
            }
        }
        let mut decisions = self.control_rx.invalidate_decisions();
        for plane in &mut self.planes {
            decisions += plane.rx.invalidate_decisions();
        }
        self.sink_index.clear();
        AmnesiaReport { dedup, watermarks, partials, decisions }
    }

    /// Replays journaled dedup triples into the (fresh) sliding window,
    /// oldest first, restoring the receiver half of exactly-once.
    pub fn restore_seen(&mut self, triples: &[(u64, u64, u16)]) -> usize {
        let mut restored = 0;
        for &(sender, seq, index) in triples {
            if self.note_seq(sender, seq, index) {
                restored += 1;
            }
        }
        restored
    }

    /// Replays a journaled sequenced watermark (never regresses one).
    pub fn restore_watermark(&mut self, channel: ChannelId, sender: u64, seq: u64) {
        let w = self.latest_seq.entry((channel, sender)).or_insert(seq);
        *w = (*w).max(seq);
    }

    /// Applies a journaled sequence floor: the next allocated sequence
    /// number will not fall below it.
    pub fn restore_seq_floor(&mut self, floor: u64) {
        self.next_seq = self.next_seq.max(floor);
    }

    /// Opens the receiver-side trace for an incoming frame. Span ids do not
    /// cross the wire, so `echo.handle` joins the sender's trace (read
    /// best-effort from the frame header, checksum or not) as a second root.
    fn start_handle_trace(&self, bytes: &[u8]) -> HandleTrace {
        let trace = proto::peek_trace(bytes).map(TraceId);
        let span = match (self.recorder.as_ref(), trace) {
            (Some(rec), Some(t)) => {
                let mut s = rec.start(t, None, "echo.handle");
                s.tag("node", &self.name);
                Some(s)
            }
            _ => None,
        };
        HandleTrace { span, trace }
    }

    /// Closes a frame's trace on the failure path: records an
    /// `echo.quarantine` instant naming the stage that failed, finishes the
    /// `echo.handle` span, and returns the trace context a dead letter
    /// should embed (the id plus a frozen snapshot of the whole journey).
    fn seal_failed(&self, ht: HandleTrace, stage: &str) -> (Option<TraceId>, Vec<SpanEvent>) {
        let HandleTrace { span, trace } = ht;
        match (self.recorder.as_ref(), trace) {
            (Some(rec), Some(t)) => {
                let parent = span.as_ref().map(|s| s.id());
                rec.instant(
                    t,
                    parent,
                    "echo.quarantine",
                    &[("stage", stage), ("node", &self.name)],
                );
                if let Some(s) = span {
                    s.finish();
                }
                (Some(t), rec.trace_events(t))
            }
            _ => (None, Vec::new()),
        }
    }

    /// Classifies a processing failure for quarantine, sealing the frame's
    /// trace with the pipeline stage that rejected it.
    fn quarantine(
        &mut self,
        err: &EchoError,
        bytes: &[u8],
        ht: HandleTrace,
        stage: &str,
    ) -> Disposition {
        let reason = match err {
            EchoError::Morph(e) => deadletter::reason_for(e),
            EchoError::Pbio(_) => DeadReason::Undecodable,
            EchoError::MalformedFrame | EchoError::UnknownFrameKind(_) => DeadReason::Malformed,
            _ => DeadReason::TransformFailed,
        };
        let (trace, events) = self.seal_failed(ht, stage);
        self.dlq.push_traced(reason, bytes, err.to_string(), trace, events);
        Disposition::Quarantined(reason)
    }

    /// The node's dead-letter queue (quarantined frames + totals).
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// Quarantines an *outgoing* frame whose delivery was abandoned after
    /// the retry budget ran out, sealing its trace (if it carried one) with
    /// a `send-retry`-stage quarantine event.
    pub fn quarantine_send(&mut self, bytes: &[u8], detail: &str, ctx: Option<TraceCtx>) {
        self.quarantine_dropped(DeadReason::RetryExhausted, "send-retry", bytes, detail, ctx);
    }

    /// Quarantines a frame chosen as a load-shedding victim (a bounded
    /// queue was full and this was the oldest warm-traffic entry), sealing
    /// its trace (if it carried one) with a `shed`-stage quarantine event.
    pub fn quarantine_shed(&mut self, bytes: &[u8], detail: &str, ctx: Option<TraceCtx>) {
        self.quarantine_dropped(DeadReason::Shed, "shed", bytes, detail, ctx);
    }

    /// Quarantines a frame lost to a process crash — a retry-queue or
    /// ingress-buffer entry that died with the process's memory — sealing
    /// its trace (if it carried one) with a `crash`-stage quarantine event.
    pub fn quarantine_crash(&mut self, bytes: &[u8], detail: &str, ctx: Option<TraceCtx>) {
        self.quarantine_dropped(DeadReason::CrashLost, "crash", bytes, detail, ctx);
    }

    fn quarantine_dropped(
        &mut self,
        reason: DeadReason,
        stage: &str,
        bytes: &[u8],
        detail: &str,
        ctx: Option<TraceCtx>,
    ) {
        let (trace, events) = match (self.recorder.as_ref(), ctx) {
            (Some(rec), Some(c)) => {
                rec.instant(
                    c.trace,
                    c.parent,
                    "echo.quarantine",
                    &[("stage", stage), ("node", &self.name)],
                );
                (Some(c.trace), rec.trace_events(c.trace))
            }
            _ => (None, Vec::new()),
        };
        self.dlq.push_traced(reason, bytes, detail, trace, events);
    }

    /// Learns out-of-band meta-data (formats + transformations), seeding
    /// both the control receiver and every event receiver.
    pub fn import_metadata(&mut self, formats: &[Arc<RecordFormat>], xforms: &[Transformation]) {
        for f in formats {
            self.control_rx.import_format(Arc::clone(f));
            for plane in &mut self.planes {
                plane.rx.import_format(Arc::clone(f));
            }
            self.shared_formats.push(Arc::clone(f));
        }
        for t in xforms {
            self.control_rx.import_transformation(t.clone());
            for plane in &mut self.planes {
                plane.rx.import_transformation(t.clone());
            }
            self.shared_xforms.push(t.clone());
        }
    }

    /// Registers the event format this node expects on `channel`; received
    /// (possibly morphed) events land in the node's event log.
    pub fn expect_events(&mut self, channel: ChannelId, format: &Arc<RecordFormat>) {
        let slot = self.plane_slot(channel).unwrap_or_else(|at| {
            // A plane is most of a kilobyte and most nodes have one: grow
            // by exactly that, not to `Vec`'s minimum of four.
            self.planes.reserve_exact(1);
            self.planes.insert(at, EventPlane::new(channel));
            at
        });
        let rx = &mut self.planes[slot].rx;
        if let Some(rec) = &self.recorder {
            rx.registry().set_recorder(Arc::clone(rec));
        }
        if let Some((decisions, plans)) = &self.shared_caches {
            rx.set_shared_decisions(decisions.clone());
            rx.set_plan_store(plans.clone());
        }
        let sink = Arc::clone(&self.events);
        rx.register_handler(format, move |v| {
            sink.lock().expect("event lock").push((channel, v));
        });
        for f in &self.shared_formats {
            rx.import_format(Arc::clone(f));
        }
        for t in &self.shared_xforms {
            rx.import_transformation(t.clone());
        }
    }

    /// The slot of `channel`'s event plane, or where it would be inserted.
    fn plane_slot(&self, channel: ChannelId) -> Result<usize, usize> {
        self.planes.binary_search_by_key(&channel, |p| p.channel)
    }

    /// Creates a channel owned by this node.
    pub fn create_channel(&mut self, channel: ChannelId) {
        self.owned.insert(channel, Vec::new());
        self.sink_index.remove(&channel);
    }

    /// True when this node created `channel`.
    pub fn owns(&self, channel: ChannelId) -> bool {
        self.owned.contains_key(&channel)
    }

    /// The membership this node holds for `channel`: the authoritative
    /// list of a channel it created, else its latest refreshed view.
    pub fn members(&self, channel: ChannelId) -> Option<&[MemberInfo]> {
        self.owned.get(&channel).or_else(|| self.memberships.get(&channel)).map(Vec::as_slice)
    }

    /// Forgets the refreshed view of `channel` (the node unsubscribed).
    pub fn forget_membership(&mut self, channel: ChannelId) {
        self.memberships.remove(&channel);
        self.sink_index.remove(&channel);
    }

    /// Adds a member to an owned channel (idempotent on contact) and returns
    /// the updated member list.
    pub fn add_member(
        &mut self,
        channel: ChannelId,
        contact: String,
        role: Role,
    ) -> Result<&[MemberInfo], EchoError> {
        let id = self.next_member_id;
        let members = self.owned.get_mut(&channel).ok_or(EchoError::NotChannelOwner(channel))?;
        self.sink_index.remove(&channel);
        match members.iter_mut().find(|m| m.contact == contact) {
            Some(m) => {
                m.is_source |= role.source;
                m.is_sink |= role.sink;
            }
            None => {
                members.push(MemberInfo {
                    contact,
                    id,
                    is_source: role.source,
                    is_sink: role.sink,
                });
                self.next_member_id += 1;
            }
        }
        Ok(self.owned[&channel].as_slice())
    }

    /// Removes a member from an owned channel (idempotent). Returns true
    /// if the contact was subscribed.
    pub fn remove_member(&mut self, channel: ChannelId, contact: &str) -> bool {
        match self.owned.get_mut(&channel) {
            Some(members) => {
                self.sink_index.remove(&channel);
                let before = members.len();
                members.retain(|m| m.contact != contact);
                members.len() != before
            }
            None => false,
        }
    }

    /// Builds this node's version of the `ChannelOpenResponse` wire message
    /// for an owned channel.
    pub fn encode_response(&self, channel: ChannelId) -> Result<Vec<u8>, EchoError> {
        let members = self.owned.get(&channel).ok_or(EchoError::NotChannelOwner(channel))?;
        let (fmt, value) = match self.version {
            EchoVersion::V1 => {
                (proto::channel_open_response_v1(), proto::response_v1_value(channel, members))
            }
            EchoVersion::V2 => {
                (proto::channel_open_response_v2(), proto::response_v2_value(channel, members))
            }
        };
        Ok(Encoder::new(&fmt).encode(&value)?)
    }

    /// Processes one incoming network frame from `sender` (a system-wide
    /// sender identity; dedup keys on it so distinct senders never
    /// suppress each other's sequence numbers). Never fails: frames that
    /// cannot be verified, decoded, or delivered are quarantined in the
    /// node's dead-letter queue — a process on a hostile network degrades,
    /// it does not crash.
    pub fn handle_frame(&mut self, sender: u64, bytes: &WireBytes) -> FrameOutcome {
        let mut resumed = false;
        let mut outcome = self.handle_frame_inner(sender, bytes, &mut resumed);
        outcome.resumed = resumed;
        // Receiver-side recovery bookkeeping for Reliable event frames:
        // `ack` names the (channel, seq, frag) the sender may stop
        // redelivering; `seen` is the dedup triple a journaling receiver
        // persists. Only dispositions that verified the checksum get them
        // (the header peeks are unverified, but the CRC already passed).
        if bytes.first() == Some(&proto::FRAME_EVENT)
            && proto::peek_qos(bytes) == Some(QosTier::Reliable)
        {
            let key = proto::peek_channel(bytes)
                .zip(proto::peek_frag(bytes))
                .map(|(ch, (seq, index, _))| (ch, seq, index));
            match outcome.disposition {
                Disposition::Handled(..)
                | Disposition::Reassembled(..)
                | Disposition::FragmentBuffered(_) => {
                    outcome.ack = key;
                    outcome.seen = key.map(|(_, seq, index)| (seq, index));
                }
                // A duplicate still discharges the sender's redelivery
                // obligation — the message already arrived once.
                Disposition::Duplicate(..) => outcome.ack = key,
                _ => {}
            }
        }
        outcome
    }

    fn handle_frame_inner(
        &mut self,
        sender: u64,
        bytes: &WireBytes,
        resumed: &mut bool,
    ) -> FrameOutcome {
        let ht = self.start_handle_trace(bytes);
        let unframe_t0 = std::time::Instant::now();
        let frame = match proto::unframe(bytes) {
            Ok(f) => f,
            Err(
                e
                @ (FrameError::Truncated | FrameError::BadQos(_) | FrameError::BadFragment { .. }),
            ) => {
                let (trace, events) = self.seal_failed(ht, "unframe");
                self.dlq.push_traced(DeadReason::Malformed, bytes, e.to_string(), trace, events);
                return FrameOutcome::settled(Disposition::Quarantined(DeadReason::Malformed));
            }
            Err(FrameError::BadChecksum) => {
                // Corruption is *detected and rejected* — the damaged bytes
                // never reach a PBIO decoder. The trace id is read without
                // checksum protection, so attribution here is best-effort.
                let (trace, events) = self.seal_failed(ht, "unframe");
                self.dlq.push_traced(
                    DeadReason::Corrupt,
                    bytes,
                    "frame checksum mismatch",
                    trace,
                    events,
                );
                return FrameOutcome::settled(Disposition::Quarantined(DeadReason::Corrupt));
            }
        };
        // The channel's event plane is resolved here, once per frame. The
        // unframe cost goes to its stage family (event frames only —
        // control channels have none).
        let plane = match frame.kind {
            proto::FRAME_EVENT => self.plane_slot(frame.channel).ok(),
            _ => None,
        };
        if let Some(slot) = plane {
            self.planes[slot].record_unframe(unframe_t0.elapsed().as_nanos() as u64);
        }
        // Epoch fence, after checksum verification (a corrupt frame must
        // never move the fence) and before dedup (a fenced frame is
        // refused, not remembered). Below the sender's known incarnation:
        // the frame was in flight when its sender crashed — delivering it
        // would resurrect pre-crash state. Above it: an implicit resume
        // (the explicit handshake may itself be lost or reordered).
        let known = self.peer_epochs.get(&sender).copied().unwrap_or(0);
        if frame.epoch < known {
            let (trace, events) = self.seal_failed(ht, "epoch-fence");
            self.dlq.push_traced(
                DeadReason::StaleEpoch,
                bytes,
                format!("epoch {} fenced: sender resumed at epoch {known}", frame.epoch),
                trace,
                events,
            );
            return FrameOutcome::settled(Disposition::Fenced(frame.channel));
        }
        if frame.epoch > known {
            self.peer_epochs.insert(sender, frame.epoch);
            *resumed = true;
        }
        if !self.note_seq(sender, frame.seq, frame.frag_index) {
            if let (Some(rec), Some(t)) = (self.recorder.as_ref(), ht.trace) {
                rec.instant(
                    t,
                    ht.span.as_ref().map(|s| s.id()),
                    "echo.dedup",
                    &[("node", &self.name)],
                );
            }
            return FrameOutcome::settled(Disposition::Duplicate(frame.kind, frame.channel));
        }
        let ctx = ht.span.as_ref().map(|s| s.ctx());
        let (kind, channel, msg) = (frame.kind, frame.channel, frame.payload);
        match kind {
            proto::FRAME_CONTROL => {
                if frame.is_fragment() {
                    // The control plane must stay whole: a fragmented
                    // control frame is a protocol violation, not traffic.
                    return FrameOutcome::settled(self.quarantine(
                        &EchoError::MalformedFrame,
                        bytes,
                        ht,
                        "control",
                    ));
                }
                match self.handle_control(msg, ctx, frame.trace) {
                    Ok(outgoing) => FrameOutcome {
                        outgoing,
                        ..FrameOutcome::settled(Disposition::Handled(
                            kind,
                            channel,
                            QosTier::Reliable,
                        ))
                    },
                    Err(e) => FrameOutcome::settled(self.quarantine(&e, bytes, ht, "control")),
                }
            }
            proto::FRAME_EVENT => self.handle_event(sender, bytes, &frame, ht, plane),
            // A session-resume handshake: its whole job — the epoch bump —
            // already happened above. The empty frame delivers nothing, so
            // it never counts as an event delivery.
            proto::FRAME_RESUME => {
                FrameOutcome::settled(Disposition::Handled(kind, channel, QosTier::Reliable))
            }
            k => FrameOutcome::settled(self.quarantine(
                &EchoError::UnknownFrameKind(k),
                bytes,
                ht,
                "dispatch",
            )),
        }
    }

    /// Event-plane dispatch: sequenced newest-wins policy, fragment
    /// reassembly, then delivery into the channel's morphing receiver
    /// (`plane`: its slot, when this node expects events on the channel).
    fn handle_event(
        &mut self,
        sender: u64,
        bytes: &WireBytes,
        frame: &proto::Frame<'_>,
        ht: HandleTrace,
        plane: Option<usize>,
    ) -> FrameOutcome {
        let (channel, qos) = (frame.channel, frame.qos);
        let mut stale_partials = 0u16;
        let mut watermark = None;
        if qos == QosTier::SequencedUnreliable {
            let latest = self.latest_seq.entry((channel, sender)).or_insert(frame.seq);
            if frame.seq < *latest {
                // Newest-wins: a fresher message already arrived from this
                // sender — the stale frame is dropped, counted, never
                // dead-lettered (this is policy, not failure).
                if let (Some(rec), Some(t)) = (self.recorder.as_ref(), ht.trace) {
                    rec.instant(
                        t,
                        ht.span.as_ref().map(|s| s.id()),
                        "echo.stale",
                        &[("node", &self.name)],
                    );
                }
                return FrameOutcome::settled(Disposition::Stale(channel));
            }
            if frame.seq > *latest {
                *latest = frame.seq;
                // In-progress older sets from this sender are superseded.
                if let Some(buf) = self.reassembly.get_mut(&channel) {
                    stale_partials = buf.purge_below(sender, frame.seq).len() as u16;
                }
            }
            watermark = Some((channel, frame.seq));
        }
        let mut outcome = if frame.is_fragment() {
            self.handle_fragment(sender, bytes, frame, ht, plane)
        } else {
            let ctx = ht.span.as_ref().map(|s| s.ctx());
            if let Some(slot) = plane {
                if let Err(e) = self.planes[slot].deliver(frame.payload, ctx) {
                    let reason = deadletter::reason_for(&e);
                    let (trace, events) = self.seal_failed(ht, "event");
                    self.dlq.push_traced(reason, bytes, e.to_string(), trace, events);
                    return FrameOutcome {
                        stale_partials,
                        ..FrameOutcome::settled(Disposition::Quarantined(reason))
                    };
                }
            }
            FrameOutcome::settled(Disposition::Handled(frame.kind, channel, qos))
        };
        outcome.stale_partials += stale_partials;
        outcome.watermark = watermark;
        outcome
    }

    /// One fragment of a larger message: offer it to the channel's bounded
    /// reassembly buffer; deliver the reassembled payload when the set
    /// completes. Partial sets the offer evicted are dead-lettered here.
    fn handle_fragment(
        &mut self,
        sender: u64,
        bytes: &WireBytes,
        frame: &proto::Frame<'_>,
        ht: HandleTrace,
        plane: Option<usize>,
    ) -> FrameOutcome {
        let (channel, qos) = (frame.channel, frame.qos);
        let payload = bytes.slice(proto::FRAME_HEADER_LEN..bytes.len());
        let frag = Fragment { index: frame.frag_index, count: frame.frag_count, bytes: payload };
        let (capacity, timeout) = (self.reassembly_capacity, self.reassembly_timeout_ns);
        let buf = self
            .reassembly
            .entry(channel)
            .or_insert_with(|| ReassemblyBuffer::new(capacity, timeout));
        let (offer, evicted) = buf.offer(
            sender,
            frame.seq,
            frag,
            bytes.clone(),
            proto::peek_trace(bytes),
            self.now_ns,
        );
        let evicted_partials = evicted.len() as u16;
        for p in &evicted {
            self.quarantine_partial(p, "evicted for a fresher set");
        }
        let disposition = match offer {
            Offer::Complete(payload) => {
                let ctx = ht.span.as_ref().map(|s| s.ctx());
                if let Some(slot) = plane {
                    if let Err(e) = self.planes[slot].deliver(&payload, ctx) {
                        let reason = deadletter::reason_for(&e);
                        let (trace, events) = self.seal_failed(ht, "event");
                        self.dlq.push_traced(reason, bytes, e.to_string(), trace, events);
                        return FrameOutcome {
                            evicted_partials,
                            ..FrameOutcome::settled(Disposition::Quarantined(reason))
                        };
                    }
                }
                Disposition::Reassembled(channel, qos, frame.frag_count)
            }
            Offer::Buffered => Disposition::FragmentBuffered(channel),
            // The dedup window already suppresses true duplicates; a part
            // landing twice past the window is treated the same way.
            Offer::DuplicatePart => Disposition::Duplicate(frame.kind, channel),
            Offer::Mismatch => {
                let quarantined =
                    self.quarantine(&EchoError::MalformedFrame, bytes, ht, "reassembly");
                return FrameOutcome { evicted_partials, ..FrameOutcome::settled(quarantined) };
            }
        };
        FrameOutcome { evicted_partials, ..FrameOutcome::settled(disposition) }
    }

    /// `wire_trace` is the incoming frame's raw trace id; follow-up frames
    /// (membership responses) travel under the same trace, so a
    /// subscription's whole request→broadcast fan-out is one causal story.
    fn handle_control(
        &mut self,
        msg: &[u8],
        ctx: Option<TraceCtx>,
        wire_trace: u64,
    ) -> Result<Vec<Outgoing>, EchoError> {
        self.control_rx.process_traced(msg, ctx)?;
        let mut out = Vec::new();

        // Requests: only meaningful at channel creators.
        let reqs: Vec<Value> = self.requests.lock().expect("inbox lock").drain(..).collect();
        for req in reqs {
            let fmt = proto::channel_open_request();
            let channel = proto::channel_of(&req, &fmt).ok_or(EchoError::MalformedFrame)?;
            let contact = req
                .field(&fmt, "contact")
                .and_then(Value::as_str)
                .ok_or(EchoError::MalformedFrame)?
                .to_string();
            let role = Role {
                source: req.field(&fmt, "is_source").and_then(Value::as_i64) == Some(1),
                sink: req.field(&fmt, "is_sink").and_then(Value::as_i64) == Some(1),
            };
            if !self.owned.contains_key(&channel) {
                // Not ours: ignore (models a stale channel directory entry).
                continue;
            }
            if !role.source && !role.sink {
                // A role-less request is an unsubscribe.
                self.remove_member(channel, &contact);
            } else {
                self.add_member(channel, contact, role)?;
            }
            // Creator replies to the requester and refreshes every member —
            // the broadcast case where the paper notes negotiation is
            // impractical.
            let resp = self.encode_response(channel)?;
            let members = self.owned[&channel].clone();
            for m in &members {
                if m.contact != self.name {
                    let seq = self.alloc_seq();
                    out.push(Outgoing {
                        to_contact: m.contact.clone(),
                        bytes: proto::frame_qos(
                            proto::FRAME_CONTROL,
                            channel,
                            seq,
                            wire_trace,
                            QosTier::Reliable,
                            0,
                            1,
                            self.epoch,
                            &resp,
                        ),
                    });
                }
            }
        }

        // Responses: refresh membership views.
        let resps: Vec<Value> = self.responses.lock().expect("inbox lock").drain(..).collect();
        for resp in resps {
            let (fmt, members) = match self.version {
                EchoVersion::V1 => {
                    (proto::channel_open_response_v1(), proto::members_from_v1(&resp))
                }
                EchoVersion::V2 => {
                    (proto::channel_open_response_v2(), proto::members_from_v2(&resp))
                }
            };
            let channel = proto::channel_of(&resp, &fmt).ok_or(EchoError::MalformedFrame)?;
            self.memberships.insert(channel, members);
            self.sink_index.remove(&channel);
        }
        Ok(out)
    }

    /// The contacts of the sinks this node would publish to on `channel`
    /// (from its membership view, or the authoritative list for owned
    /// channels), excluding itself, in member-list order.
    pub fn sink_contacts(&self, channel: ChannelId) -> impl Iterator<Item = &str> {
        let members = self.members(channel).unwrap_or_default();
        members.iter().filter(|m| m.is_sink && m.contact != self.name).map(|m| &*m.contact)
    }

    /// The sinks of [`NodeState::sink_contacts`], recomputed from the member
    /// lists — the oracle the sink index cache is tested against.
    #[cfg(test)]
    pub fn sinks_of(&self, channel: ChannelId) -> Vec<String> {
        let list = self.owned.get(&channel).or_else(|| self.memberships.get(&channel));
        list.map(|ms| {
            ms.iter()
                .filter(|m| m.is_sink && m.contact != self.name)
                .map(|m| m.contact.clone())
                .collect()
        })
        .unwrap_or_default()
    }

    /// The cached resolution of [`NodeState::sink_contacts`] to process
    /// indices, if one was stored since the channel's member list last
    /// changed and against a contact table still `contacts` entries long.
    pub fn sink_index(&self, channel: ChannelId, contacts: usize) -> Option<Arc<[usize]>> {
        let cached = self.sink_index.get(&channel).filter(|c| c.contacts == contacts)?;
        Some(Arc::clone(&cached.sinks))
    }

    /// Stores `sinks` as the resolution of `channel`'s sink contacts
    /// against a contact table of `contacts` entries.
    pub fn cache_sink_index(&mut self, channel: ChannelId, contacts: usize, sinks: Arc<[usize]>) {
        self.sink_index.insert(channel, SinkIndex { contacts, sinks });
    }

    /// Hands over the events received so far.
    pub fn take_events(&mut self) -> Vec<(ChannelId, Value)> {
        std::mem::take(&mut *self.events.lock().expect("event lock"))
    }

    /// Control-plane morphing statistics.
    pub fn control_stats(&self) -> MorphStats {
        self.control_rx.stats()
    }

    /// Event-plane morphing statistics for one channel.
    pub fn event_stats(&self, channel: ChannelId) -> Option<MorphStats> {
        self.plane_slot(channel).ok().map(|slot| self.planes[slot].rx.stats())
    }

    /// The observability registry behind the control-plane receiver.
    pub fn control_registry(&self) -> &Arc<obs::Registry> {
        self.control_rx.registry()
    }

    /// The observability registry behind the event-plane receiver on
    /// `channel`, if one exists.
    pub fn event_registry(&self, channel: ChannelId) -> Option<&Arc<obs::Registry>> {
        self.plane_slot(channel).ok().map(|slot| self.planes[slot].rx.registry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_frame(seq: u64) -> WireBytes {
        proto::frame(proto::FRAME_EVENT, ChannelId(1), seq, proto::NO_TRACE, b"")
    }

    #[test]
    fn dedup_keys_on_sender_and_seq_not_seq_alone() {
        // Two independent senders may emit overlapping sequence numbers —
        // e.g. both starting their counters at 0 after a restart. Keying
        // dedup on the bare seq would silently drop the second sender's
        // traffic; the key must be the (sender, seq) pair.
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let f = event_frame(7);
        assert!(matches!(node.handle_frame(0, &f).disposition, Disposition::Handled(..)));
        assert!(
            matches!(node.handle_frame(1, &f).disposition, Disposition::Handled(..)),
            "a different sender's seq 7 is fresh traffic, not a duplicate"
        );
        // True duplicates — same sender, same seq — are still suppressed,
        // for each sender independently.
        assert!(matches!(node.handle_frame(0, &f).disposition, Disposition::Duplicate(..)));
        assert!(matches!(node.handle_frame(1, &f).disposition, Disposition::Duplicate(..)));
        assert!(matches!(node.handle_frame(2, &f).disposition, Disposition::Handled(..)));
    }

    #[test]
    fn dedup_window_is_bounded_and_forgets_oldest_pairs() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        assert!(matches!(
            node.handle_frame(0, &event_frame(0)).disposition,
            Disposition::Handled(..)
        ));
        // Flood the window with fresh pairs until the first is evicted.
        for seq in 1..=(DEDUP_WINDOW as u64) {
            assert!(matches!(
                node.handle_frame(0, &event_frame(seq)).disposition,
                Disposition::Handled(..)
            ));
        }
        // The oldest pair fell out of the sliding window: a replay of it is
        // no longer recognized (bounded memory trades off replay horizon).
        assert!(matches!(
            node.handle_frame(0, &event_frame(0)).disposition,
            Disposition::Handled(..)
        ));
        // A recent pair is still remembered.
        assert!(matches!(
            node.handle_frame(0, &event_frame(DEDUP_WINDOW as u64)).disposition,
            Disposition::Duplicate(..)
        ));
    }

    fn frag_frame(qos: QosTier, seq: u64, index: u16, count: u16, payload: &[u8]) -> WireBytes {
        proto::frame_qos(
            proto::FRAME_EVENT,
            ChannelId(1),
            seq,
            proto::NO_TRACE,
            qos,
            index,
            count,
            0,
            payload,
        )
    }

    #[test]
    fn fragments_buffer_then_reassemble_on_completion() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let a = frag_frame(QosTier::Reliable, 3, 0, 2, b"he");
        let b = frag_frame(QosTier::Reliable, 3, 1, 2, b"llo");
        assert!(matches!(
            node.handle_frame(0, &b).disposition,
            Disposition::FragmentBuffered(ChannelId(1))
        ));
        assert_eq!(node.reassembly_depth(), 1);
        assert!(matches!(
            node.handle_frame(0, &a).disposition,
            Disposition::Reassembled(ChannelId(1), QosTier::Reliable, 2)
        ));
        assert_eq!(node.reassembly_depth(), 0, "completed sets leave the buffer");
        // Replayed fragments of the finished set are plain duplicates.
        assert!(matches!(node.handle_frame(0, &a).disposition, Disposition::Duplicate(..)));
    }

    #[test]
    fn sequenced_channels_drop_stale_frames_newest_wins() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let newer = frag_frame(QosTier::SequencedUnreliable, 9, 0, 1, b"new");
        let older = frag_frame(QosTier::SequencedUnreliable, 4, 0, 1, b"old");
        assert!(matches!(node.handle_frame(0, &newer).disposition, Disposition::Handled(..)));
        assert!(matches!(
            node.handle_frame(0, &older).disposition,
            Disposition::Stale(ChannelId(1))
        ));
        // Another sender's seq 4 is fresh — watermarks are per sender.
        assert!(matches!(node.handle_frame(1, &older).disposition, Disposition::Handled(..)));
    }

    #[test]
    fn newer_sequenced_message_supersedes_in_progress_older_set() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let part = frag_frame(QosTier::SequencedUnreliable, 4, 0, 3, b"x");
        assert!(matches!(
            node.handle_frame(0, &part).disposition,
            Disposition::FragmentBuffered(_)
        ));
        let newer = frag_frame(QosTier::SequencedUnreliable, 9, 0, 1, b"new");
        let outcome = node.handle_frame(0, &newer);
        assert!(matches!(outcome.disposition, Disposition::Handled(..)));
        assert_eq!(outcome.stale_partials, 1, "the older partial set was purged");
        assert_eq!(node.reassembly_depth(), 0);
        assert_eq!(node.dead_letters().count(DeadReason::PartialFragments), 0, "policy, not DLQ");
    }

    #[test]
    fn partial_sets_expire_into_the_dlq_as_partial_fragments() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        node.configure_reassembly(8, 1_000);
        let part = frag_frame(QosTier::Reliable, 7, 0, 2, b"half");
        assert!(matches!(
            node.handle_frame(0, &part).disposition,
            Disposition::FragmentBuffered(_)
        ));
        assert_eq!(node.sweep_reassembly(999), 0, "not old enough yet");
        assert_eq!(node.sweep_reassembly(1_000), 1);
        assert_eq!(node.reassembly_depth(), 0);
        assert_eq!(node.dead_letters().count(DeadReason::PartialFragments), 1);
        // The late sibling now starts a fresh (doomed) set, not a revival.
        let late = frag_frame(QosTier::Reliable, 7, 1, 2, b"late");
        assert!(matches!(
            node.handle_frame(0, &late).disposition,
            Disposition::FragmentBuffered(_)
        ));
    }

    #[test]
    fn fragmented_control_frames_are_protocol_violations() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let bad = proto::frame_qos(
            proto::FRAME_CONTROL,
            ChannelId(1),
            1,
            proto::NO_TRACE,
            QosTier::Reliable,
            0,
            2,
            0,
            b"ctl",
        );
        assert!(matches!(
            node.handle_frame(0, &bad).disposition,
            Disposition::Quarantined(DeadReason::Malformed)
        ));
    }

    #[test]
    fn higher_epoch_resumes_and_older_epoch_frames_are_fenced() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        // Any higher-epoch frame is an implicit resume handshake.
        let fresh = proto::restamp_epoch(&event_frame(8), 1);
        let out = node.handle_frame(0, &fresh);
        assert!(matches!(out.disposition, Disposition::Handled(..)));
        assert!(out.resumed, "a higher epoch bumps the sender's incarnation");
        // Epoch-0 stragglers from the crashed incarnation are refused.
        let stale = node.handle_frame(0, &event_frame(9));
        assert!(matches!(stale.disposition, Disposition::Fenced(ChannelId(1))));
        assert!(stale.ack.is_none(), "a fenced frame is not an arrival");
        assert_eq!(node.dead_letters().count(DeadReason::StaleEpoch), 1);
        // Same-epoch traffic flows; a duplicate resume bump never happens.
        let again = node.handle_frame(0, &proto::restamp_epoch(&event_frame(10), 1));
        assert!(matches!(again.disposition, Disposition::Handled(..)));
        assert!(!again.resumed);
        // Other senders are unaffected by this sender's fence.
        assert!(matches!(
            node.handle_frame(1, &event_frame(9)).disposition,
            Disposition::Handled(..)
        ));
    }

    #[test]
    fn explicit_resume_handshake_bumps_without_delivering() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        let resume = proto::frame_qos(
            proto::FRAME_RESUME,
            ChannelId(0),
            1,
            proto::NO_TRACE,
            QosTier::Reliable,
            0,
            1,
            3,
            b"",
        );
        let out = node.handle_frame(0, &resume);
        assert!(matches!(out.disposition, Disposition::Handled(proto::FRAME_RESUME, ..)));
        assert!(out.resumed);
        assert!(out.ack.is_none(), "resume frames are not Reliable event traffic");
        // A duplicate of the same handshake is absorbed by dedup.
        assert!(matches!(node.handle_frame(0, &resume).disposition, Disposition::Duplicate(..)));
    }

    #[test]
    fn crash_amnesia_forgets_dedup_and_dead_letters_partials() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2);
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Handled(..)
        ));
        let part = frag_frame(QosTier::Reliable, 3, 0, 2, b"x");
        assert!(matches!(
            node.handle_frame(0, &part).disposition,
            Disposition::FragmentBuffered(_)
        ));
        let report = node.crash_amnesia();
        assert_eq!(report.dedup, 2);
        assert_eq!(report.partials, 1);
        assert_eq!(node.reassembly_depth(), 0);
        assert_eq!(node.dead_letters().count(DeadReason::CrashLost), 1);
        // The window is gone: a replay of seq 7 reads as fresh traffic —
        // which is exactly why exactly-once needs the journaled window.
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Handled(..)
        ));
        // Restoring the journaled triples brings suppression back.
        node.crash_amnesia();
        assert_eq!(node.restore_seen(&[(0, 7, 0), (0, 3, 0)]), 2);
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Duplicate(..)
        ));
    }
}
