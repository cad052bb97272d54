//! ECho process state and its receive path: a frame's header is read once,
//! the frame dispatched onto its channel's record ([`ChannelState`]), and
//! whatever the process gives up on is filed by one routine,
//! [`NodeState::dead_letter`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use morph::{
    deadletter, DeadLetterQueue, DeadReason, DecisionCache, Delivery, MorphReceiver, Transformation,
};
use obs::{ActiveSpan, FlightRecorder, Histogram, Registry, TraceCtx, TraceId};
use pbio::{Encoder, RecordFormat, Value, WireBytes};

use crate::dedup::{Dedup, Noted};
use crate::frag::{Fragment, Offer, PartialSet, ReassemblyBuffer};
use crate::metrics::DeadLetterBooks;
use crate::proto::{self, ChannelId, FrameError, MemberInfo, QosTier};
use crate::EchoError;

/// Default bound on in-progress fragment sets per channel.
const REASSEMBLY_CAPACITY: usize = 32;

/// Default virtual-clock age at which a partial fragment set dead-letters.
const REASSEMBLY_TIMEOUT_NS: u64 = 500_000_000;

/// How many quarantined messages a node keeps (the queue's total and the
/// system books count every letter beyond this bound).
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
    /// Verified, fresh, and processed (kind, channel, tier); an event
    /// frame's message reached the application.
    Handled(u8, ChannelId, QosTier),
    /// A fragment that completed its set: the reassembled message reached
    /// the application (channel, tier, set size).
    Reassembled(ChannelId, QosTier, u16),
    /// A fresh event message no application received: Algorithm 2 found
    /// no admissible match, or the process has no event plane on the
    /// channel (channel, size of the set it was reassembled from — 1 for a
    /// whole frame). A policy outcome, not a dead letter.
    Rejected(ChannelId, u16),
    /// A fragment buffered into the channel's reassembly buffer, its set
    /// still incomplete.
    FragmentBuffered(ChannelId),
    /// Dropped by sequenced newest-wins policy: the frame's message seq
    /// trails the latest seen from its sender on this channel.
    Stale(ChannelId),
    /// Verified but already seen (duplicate suppression by sender seq and
    /// fragment index), or beyond the dedup horizon
    /// ([`FrameOutcome::beyond_window`]).
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
    /// A [`Disposition::Duplicate`] decided by the horizon alone: the
    /// frame's seq is `DEDUP_WINDOW` or more behind the newest one noted
    /// from its sender.
    pub beyond_window: bool,
    /// For Reliable event frames that reached the receiver (handled,
    /// rejected, buffered, or recognized as a duplicate): the `(channel,
    /// seq, frag_index)` the sender may stop redelivering. The system
    /// folds it into the sender's journal as an ack.
    pub ack: Option<(ChannelId, u64, u16)>,
    /// For Reliable event frames freshly noted by dedup: the `(seq,
    /// frag_index, frag_count)` a journaling receiver persists so its
    /// duplicate state survives its own crash.
    pub seen: Option<(u64, u16, u16)>,
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
    /// Frames noted by dedup since the last amnesia, capped at the
    /// window.
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
            beyond_window: false,
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
    /// The process's one wall-clock registry: its control receiver and
    /// every event receiver report `morph.*` / `pbio.*` into it, beside
    /// the process's stage timings.
    registry: Arc<Registry>,
    control_rx: MorphReceiver,
    requests: ControlInbox,
    responses: ControlInbox,
    /// One record per channel this process knows of, sorted by id: a
    /// frame resolves its channel's slot once and indexes from there on.
    channels: Vec<ChannelState>,
    /// The latency attribution, `echo.stage.<stage>.ns` in the registry,
    /// on its clock and for sampled messages only ([`proto::sampled`]):
    /// the publish-side encode, and per event frame on a channel with an
    /// event receiver its unframe and its whole receiver dispatch.
    encode_ns: Arc<Histogram>,
    unframe_ns: Arc<Histogram>,
    deliver_ns: Arc<Histogram>,
    events: EventInbox,
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
    /// Duplicate suppression, per sender: two senders may legitimately
    /// emit overlapping sequence numbers without suppressing each other;
    /// fragments of one message share a seq and are told apart by index.
    dedup: Dedup,
    /// `(capacity, timeout_ns)` of every channel's reassembly buffer.
    reassembly_limits: (usize, u64),
    /// Virtual time of the current dispatch round, stamped by the system
    /// before frames are handled; reassembly ages against it.
    now_ns: u64,
    /// Quarantine for frames that could not be delivered.
    dlq: DeadLetterQueue,
    /// The system's `echo.deadletter.*` books, shared by every process and
    /// kept by [`NodeState::dead_letter`] as it files each letter.
    books: Arc<DeadLetterBooks>,
    /// Flight recorder for causal traces, shared system-wide.
    recorder: Option<Arc<FlightRecorder>>,
    /// The system-wide decision cache, attached when the system opts in:
    /// every receiver (control plane and event planes, existing and
    /// future) shares it, so the cold-path work of MaxMatch + compilation
    /// is paid once per compatible receiver population instead of once per
    /// receiver.
    shared_decisions: Option<DecisionCache>,
}

/// Everything a process keeps about one channel.
struct ChannelState {
    id: ChannelId,
    /// The role this process subscribed with, until it leaves.
    role: Option<Role>,
    /// True when this process created the channel: `members` is then the
    /// authoritative list, and refreshed views of it are ignored.
    owned: bool,
    /// The owned list, or the latest refreshed view.
    members: Option<Vec<MemberInfo>>,
    /// The sinks of [`NodeState::sink_contacts`] resolved to process
    /// indices, as [`NodeState::cache_sink_index`] stored them, after the
    /// size of the contact table they were resolved against (it only
    /// grows, so its size is its version). Volatile: dropped by
    /// [`ChannelState::members_mut`] and by a crash.
    sink_index: Option<(usize, Arc<[usize]>)>,
    /// The morphing receiver events are delivered into, when this process
    /// expects any here.
    plane: Option<MorphReceiver>,
    /// In-progress fragment sets.
    reassembly: ReassemblyBuffer,
    /// Sequenced newest-wins watermark: latest message seq seen per
    /// sender. Frames trailing it are stale.
    latest_seq: HashMap<u64, u64>,
}

impl ChannelState {
    /// The member list, for writing: the sink index resolved from it is
    /// dropped first, so no writer can forget to.
    fn members_mut(&mut self) -> &mut Option<Vec<MemberInfo>> {
        self.sink_index = None;
        &mut self.members
    }
}

/// The trace a frame travels under, as a dead letter or a policy instant
/// joins it: the trace context, plus — while this process handles the
/// frame — its open `echo.handle` span (the context then parents under
/// it). Empty when the frame carried no trace or no recorder is attached.
pub(crate) struct FrameTrace {
    ctx: Option<TraceCtx>,
    span: Option<ActiveSpan>,
}

/// A frame that is not being handled — queued, shed, given up — is
/// dead-lettered under the context it travels in.
impl From<Option<TraceCtx>> for FrameTrace {
    fn from(ctx: Option<TraceCtx>) -> FrameTrace {
        FrameTrace { ctx, span: None }
    }
}

impl NodeState {
    pub fn new(name: String, version: EchoVersion, books: Arc<DeadLetterBooks>) -> NodeState {
        NodeState::with_registry(name, version, books, Arc::new(Registry::new()))
    }

    /// [`NodeState::new`], reporting into `registry` and timing on its
    /// clock.
    fn with_registry(
        name: String,
        version: EchoVersion,
        books: Arc<DeadLetterBooks>,
        registry: Arc<Registry>,
    ) -> NodeState {
        let requests: ControlInbox = Arc::new(Mutex::new(Vec::new()));
        let responses: ControlInbox = Arc::new(Mutex::new(Vec::new()));
        let mut control_rx = MorphReceiver::with_registry(Arc::clone(&registry));
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
        NodeState {
            name,
            version,
            encode_ns: registry.histogram("echo.stage.encode.ns"),
            unframe_ns: registry.histogram("echo.stage.unframe.ns"),
            deliver_ns: registry.histogram("echo.stage.deliver.ns"),
            registry,
            control_rx,
            requests,
            responses,
            channels: Vec::new(),
            events: Arc::new(Mutex::new(Vec::new())),
            next_member_id: 1,
            shared_xforms: Vec::new(),
            shared_formats: Vec::new(),
            next_seq: 0,
            epoch: 0,
            peer_epochs: HashMap::new(),
            dedup: Dedup::default(),
            reassembly_limits: (REASSEMBLY_CAPACITY, REASSEMBLY_TIMEOUT_NS),
            now_ns: 0,
            dlq: DeadLetterQueue::new(DLQ_CAPACITY),
            books,
            recorder: None,
            shared_decisions: None,
        }
    }

    /// Attaches the system-wide decision cache: the control receiver and
    /// every event receiver (existing and future) consult it before paying
    /// MaxMatch or a compile. Sharing is safe across mixed-version nodes
    /// because the cache keys on each receiver's compatibility fingerprint —
    /// receivers with different readers or transformations never exchange
    /// decisions.
    pub fn enable_shared_caches(&mut self, decisions: DecisionCache) {
        self.control_rx.set_shared_decisions(decisions.clone());
        for rx in self.channels.iter_mut().filter_map(|c| c.plane.as_mut()) {
            rx.set_shared_decisions(decisions.clone());
        }
        self.shared_decisions = Some(decisions);
    }

    /// Attaches the system flight recorder: incoming frames that carry a
    /// trace id get `echo.handle` spans, and the node hands the recorder
    /// to its receivers with each traced message so morphing stages can
    /// attribute their spans.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Allocates the next outgoing frame sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Stamps the virtual time frames handled next will observe (the
    /// system sets this before each dispatch round; reassembly entries age
    /// against it).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Encodes one event message and allocates its seq, timing the encode
    /// into `echo.stage.encode.ns` when that seq is sampled.
    pub fn encode_event(
        &mut self,
        format: &Arc<RecordFormat>,
        event: &Value,
    ) -> Result<(u64, Vec<u8>), EchoError> {
        let started_ns = proto::sampled(self.next_seq).then(|| self.registry.now_ns());
        let msg = Encoder::new(format).encode(event)?;
        if let Some(started_ns) = started_ns {
            self.encode_ns.record(self.registry.now_ns().saturating_sub(started_ns));
        }
        Ok((self.alloc_seq(), msg))
    }

    /// Re-bounds every (current and future) per-channel reassembly buffer.
    pub fn configure_reassembly(&mut self, capacity: usize, timeout_ns: u64) {
        self.reassembly_limits = (capacity, timeout_ns);
        for ch in &mut self.channels {
            ch.reassembly.set_limits(capacity, timeout_ns);
        }
    }

    /// In-progress fragment sets across all channels.
    pub fn reassembly_depth(&self) -> usize {
        self.channels.iter().map(|c| c.reassembly.len()).sum()
    }

    /// Expires partial fragment sets whose first fragment is older than
    /// the reassembly timeout at `now_ns`, dead-lettering each with
    /// [`DeadReason::PartialFragments`]. Channels are visited in id order
    /// so the sweep is deterministic. Returns how many sets expired.
    pub fn sweep_reassembly(&mut self, now_ns: u64) -> u16 {
        self.now_ns = now_ns;
        let mut expired = 0u16;
        for at in 0..self.channels.len() {
            for p in self.channels[at].reassembly.sweep(now_ns) {
                let why = "reassembly timeout";
                self.dead_letter_partial(DeadReason::PartialFragments, "reassembly", &p, why);
                expired += 1;
            }
        }
        expired
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
    /// duplicate state, sequenced watermarks, peer epochs, in-progress
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
        let dedup = self.dedup.forget();
        self.peer_epochs.clear();
        let (mut watermarks, mut partials) = (0, 0u16);
        let mut decisions = self.control_rx.invalidate_decisions();
        for at in 0..self.channels.len() {
            let ch = &mut self.channels[at];
            watermarks += ch.latest_seq.len();
            ch.latest_seq.clear();
            ch.sink_index = None;
            decisions += ch.plane.as_mut().map_or(0, MorphReceiver::invalidate_decisions);
            for p in ch.reassembly.drain_all() {
                self.dead_letter_partial(DeadReason::CrashLost, "crash", &p, "crash");
                partials += 1;
            }
        }
        AmnesiaReport { dedup, watermarks, partials, decisions }
    }

    /// Replays journaled `(sender, seq, frag_index, frag_count)` notes into
    /// the (fresh) duplicate state, oldest first, restoring the receiver
    /// half of exactly-once. Returns how many were fresh.
    pub fn restore_seen(&mut self, seen: &[(u64, u64, u16, u16)]) -> usize {
        let mut restored = 0;
        for &(sender, seq, index, count) in seen {
            restored += usize::from(self.dedup.note(sender, seq, index, count) == Noted::Fresh);
        }
        restored
    }

    /// Replays a journaled sequenced watermark (never regresses one).
    pub fn restore_watermark(&mut self, channel: ChannelId, sender: u64, seq: u64) {
        let w = self.channel_mut(channel).latest_seq.entry(sender).or_insert(seq);
        *w = (*w).max(seq);
    }

    /// Applies a journaled sequence floor: the next allocated sequence
    /// number will not fall below it.
    pub fn restore_seq_floor(&mut self, floor: u64) {
        self.next_seq = self.next_seq.max(floor);
    }

    /// Opens the receiver-side trace for an incoming frame. Span ids do not
    /// cross the wire, so `echo.handle` joins the sender's trace (read
    /// best-effort from the frame header, checksum or not — a frame that
    /// fails it is still attributed) as a second root.
    fn start_handle_trace(&self, bytes: &[u8]) -> FrameTrace {
        let span = match (self.recorder.as_ref(), proto::peek_trace(bytes)) {
            (Some(rec), Some(t)) => {
                let mut s = rec.start(TraceId(t), None, "echo.handle");
                s.tag("node", &self.name);
                Some(s)
            }
            _ => None,
        };
        FrameTrace { ctx: span.as_ref().map(ActiveSpan::ctx), span }
    }

    /// Records a policy instant (`echo.dedup`, `echo.stale`) in the trace
    /// of a frame being handled.
    fn trace_instant(&self, trace: &FrameTrace, name: &str) {
        if let (Some(rec), Some(c)) = (self.recorder.as_ref(), trace.ctx) {
            rec.instant(c.trace, c.parent, name, &[("node", &self.name)]);
        }
    }

    /// Files a frame this process gives up on, received or its own — the
    /// one place a dead letter is filed or counted: an `echo.quarantine`
    /// instant naming the `stage`, a handled frame's `echo.handle` span
    /// finished, the trace frozen into the letter, the letter queued and
    /// counted in the system's `echo.deadletter.*` books.
    pub fn dead_letter(
        &mut self,
        reason: DeadReason,
        stage: &str,
        bytes: &WireBytes,
        detail: impl Into<String>,
        trace: impl Into<FrameTrace>,
    ) -> Disposition {
        let FrameTrace { ctx, span } = trace.into();
        let (trace, events) = match (self.recorder.as_ref(), ctx) {
            (Some(rec), Some(c)) => {
                let tags = [("stage", stage), ("node", &*self.name)];
                rec.instant(c.trace, c.parent, "echo.quarantine", &tags);
                if let Some(s) = span {
                    s.finish();
                }
                (Some(c.trace), rec.trace_events(c.trace))
            }
            _ => (None, Vec::new()),
        };
        self.dlq.push_traced(reason, bytes, detail, trace, events);
        self.books.count(reason);
        Disposition::Quarantined(reason)
    }

    /// Dead-letters a partial fragment set, its first-received fragment
    /// frame as the evidence, under the message's trace.
    fn dead_letter_partial(&mut self, reason: DeadReason, stage: &str, p: &PartialSet, why: &str) {
        let detail = format!("{} of {} fragments ({why})", p.received, p.count);
        let ctx = p.trace.map(|t| TraceCtx::root(TraceId(t)));
        self.dead_letter(reason, stage, &p.frame, detail, ctx);
    }

    /// The node's dead-letter queue (quarantined frames + totals).
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// Learns out-of-band meta-data (formats + transformations), seeding
    /// both the control receiver and every event receiver.
    pub fn import_metadata(&mut self, formats: &[Arc<RecordFormat>], xforms: &[Transformation]) {
        for f in formats {
            self.control_rx.import_format(Arc::clone(f));
            for rx in self.channels.iter_mut().filter_map(|c| c.plane.as_mut()) {
                rx.import_format(Arc::clone(f));
            }
            self.shared_formats.push(Arc::clone(f));
        }
        for t in xforms {
            self.control_rx.import_transformation(t.clone());
            for rx in self.channels.iter_mut().filter_map(|c| c.plane.as_mut()) {
                rx.import_transformation(t.clone());
            }
            self.shared_xforms.push(t.clone());
        }
    }

    /// Registers the event format this node expects on `channel`; received
    /// (possibly morphed) events land in the node's event log. The
    /// channel's receiver, made on first use, reports into the process's
    /// registry; the meta-data it is seeded with is a set, so seeding it
    /// again (a re-subscribe) leaves its compatibility fingerprint as it
    /// was.
    pub fn expect_events(&mut self, channel: ChannelId, format: &Arc<RecordFormat>) {
        let at = self.record(channel);
        let registry = &self.registry;
        let rx = self.channels[at]
            .plane
            .get_or_insert_with(|| MorphReceiver::with_registry(Arc::clone(registry)));
        if let Some(decisions) = &self.shared_decisions {
            rx.set_shared_decisions(decisions.clone());
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

    /// The slot of `channel`'s record, or where it would be inserted.
    fn slot(&self, channel: ChannelId) -> Result<usize, usize> {
        self.channels.binary_search_by_key(&channel, |c| c.id)
    }

    fn channel(&self, channel: ChannelId) -> Option<&ChannelState> {
        self.slot(channel).ok().map(|at| &self.channels[at])
    }

    /// The index of `channel`'s record, created if this process has none
    /// yet.
    fn record(&mut self, channel: ChannelId) -> usize {
        let at = match self.slot(channel) {
            Ok(at) => return at,
            Err(at) => at,
        };
        // A record with a plane is most of a kilobyte and most processes
        // have one: grow by exactly that, not to `Vec`'s minimum of four.
        self.channels.reserve_exact(1);
        let (capacity, timeout_ns) = self.reassembly_limits;
        let record = ChannelState {
            id: channel,
            role: None,
            owned: false,
            members: None,
            sink_index: None,
            plane: None,
            reassembly: ReassemblyBuffer::new(capacity, timeout_ns),
            latest_seq: HashMap::new(),
        };
        self.channels.insert(at, record);
        at
    }

    fn channel_mut(&mut self, channel: ChannelId) -> &mut ChannelState {
        let at = self.record(channel);
        &mut self.channels[at]
    }

    /// Creates a channel owned by this node.
    pub fn create_channel(&mut self, channel: ChannelId) {
        let ch = self.channel_mut(channel);
        ch.owned = true;
        *ch.members_mut() = Some(Vec::new());
    }

    /// The member list of a channel this node created, for writing.
    fn owned_members_mut(&mut self, channel: ChannelId) -> Option<&mut Vec<MemberInfo>> {
        let at = self.slot(channel).ok().filter(|&at| self.channels[at].owned)?;
        self.channels[at].members_mut().as_mut()
    }

    /// The membership this node holds for `channel`: the authoritative
    /// list of a channel it created, else its latest refreshed view.
    pub fn members(&self, channel: ChannelId) -> Option<&[MemberInfo]> {
        self.channel(channel)?.members.as_deref()
    }

    /// Records the role this node subscribed to `channel` with.
    pub fn set_role(&mut self, channel: ChannelId, role: Role) {
        self.channel_mut(channel).role = Some(role);
    }

    /// True when this node may publish on `channel`: it created the
    /// channel or subscribed as a source.
    pub fn may_publish(&self, channel: ChannelId) -> bool {
        self.channel(channel).is_some_and(|c| c.owned || c.role.is_some_and(|r| r.source))
    }

    /// The node unsubscribed from `channel`: it drops its role and its
    /// refreshed view of the membership.
    pub fn leave(&mut self, channel: ChannelId) {
        let ch = self.channel_mut(channel);
        ch.role = None;
        if !ch.owned {
            *ch.members_mut() = None;
        }
    }

    /// Adds a member to an owned channel (idempotent on contact).
    pub fn add_member(
        &mut self,
        channel: ChannelId,
        contact: String,
        role: Role,
    ) -> Result<(), EchoError> {
        let id = self.next_member_id;
        let members = self.owned_members_mut(channel).ok_or(EchoError::NotChannelOwner(channel))?;
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
        Ok(())
    }

    /// Removes a member from an owned channel (idempotent). Returns true
    /// if the contact was subscribed.
    pub fn remove_member(&mut self, channel: ChannelId, contact: &str) -> bool {
        self.owned_members_mut(channel).is_some_and(|members| {
            let before = members.len();
            members.retain(|m| m.contact != contact);
            members.len() != before
        })
    }

    /// Builds this node's version of the `ChannelOpenResponse` wire message
    /// announcing `members` as `channel`'s membership.
    fn encode_response(
        &self,
        channel: ChannelId,
        members: &[MemberInfo],
    ) -> Result<Vec<u8>, EchoError> {
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
        let trace = self.start_handle_trace(bytes);
        // Only a sampled frame starts the unframe timer, so its seq is
        // peeked before the checksum check; a frame that passes the check
        // carries the seq peeked here.
        let unframe_since = proto::peek_frag(bytes)
            .filter(|&(seq, ..)| proto::sampled(seq))
            .map(|_| self.registry.now_ns());
        let frame = match proto::unframe(bytes) {
            Ok(f) => f,
            // Corruption is *detected and rejected* — the damaged bytes
            // never reach a PBIO decoder. The trace id was read without
            // checksum protection, so attribution here is best-effort.
            Err(e) => {
                let reason = match e {
                    FrameError::BadChecksum => DeadReason::Corrupt,
                    _ => DeadReason::Malformed,
                };
                let quarantined = self.dead_letter(reason, "unframe", bytes, e.to_string(), trace);
                return FrameOutcome::settled(quarantined);
            }
        };
        // The channel's record is resolved here, once per frame. The
        // unframe stage times event frames for a receiver only — control
        // frames route on their payload, not their channel.
        let slot = self.slot(frame.channel);
        if let Some(since_ns) = unframe_since {
            if frame.kind == proto::FRAME_EVENT
                && slot.is_ok_and(|at| self.channels[at].plane.is_some())
            {
                self.unframe_ns.record(self.registry.now_ns().saturating_sub(since_ns));
            }
        }
        // Epoch fence, after checksum verification (a corrupt frame must
        // never move the fence) and before dedup (a fenced frame is
        // refused, not remembered). Below the sender's known incarnation:
        // the frame was in flight when its sender crashed — delivering it
        // would resurrect pre-crash state. Above it: an implicit resume
        // (the explicit handshake may itself be lost or reordered).
        let known = self.peer_epochs.get(&sender).copied().unwrap_or(0);
        if frame.epoch < known {
            let detail = format!("epoch {} fenced: sender resumed at epoch {known}", frame.epoch);
            self.dead_letter(DeadReason::StaleEpoch, "epoch-fence", bytes, detail, trace);
            return FrameOutcome::settled(Disposition::Fenced(frame.channel));
        }
        let resumed = frame.epoch > known;
        if resumed {
            self.peer_epochs.insert(sender, frame.epoch);
        }
        let noted = self.dedup.note(sender, frame.seq, frame.frag_index, frame.frag_count);
        let mut outcome = if noted == Noted::Fresh {
            self.dispatch(sender, bytes, &frame, trace, slot)
        } else {
            self.trace_instant(&trace, "echo.dedup");
            let duplicate = Disposition::Duplicate(frame.kind, frame.channel);
            let beyond_window = noted == Noted::BeyondWindow;
            FrameOutcome { beyond_window, ..FrameOutcome::settled(duplicate) }
        };
        outcome.resumed = resumed;
        // Receiver-side recovery bookkeeping for Reliable event frames:
        // `ack` names the (channel, seq, frag) the sender may stop
        // redelivering; `seen` is the note a journaling receiver persists.
        if frame.kind == proto::FRAME_EVENT && frame.qos == QosTier::Reliable {
            let key = (frame.channel, frame.seq, frame.frag_index);
            match outcome.disposition {
                Disposition::Handled(..)
                | Disposition::Reassembled(..)
                | Disposition::Rejected(..)
                | Disposition::FragmentBuffered(_) => {
                    outcome.ack = Some(key);
                    outcome.seen = Some((frame.seq, frame.frag_index, frame.frag_count));
                }
                // A duplicate still discharges the sender's redelivery
                // obligation — the message already arrived once.
                Disposition::Duplicate(..) => outcome.ack = Some(key),
                _ => {}
            }
        }
        outcome
    }

    /// Dispatches a verified, fresh frame on its kind (`slot`: its
    /// channel's record, or where one would go).
    fn dispatch(
        &mut self,
        sender: u64,
        bytes: &WireBytes,
        frame: &proto::Frame<'_>,
        trace: FrameTrace,
        slot: Result<usize, usize>,
    ) -> FrameOutcome {
        let handled = match frame.kind {
            proto::FRAME_EVENT => return self.handle_event(sender, bytes, frame, trace, slot),
            // The control plane must stay whole: a fragmented control
            // frame is a protocol violation, not traffic.
            proto::FRAME_CONTROL if frame.is_fragment() => Err(EchoError::MalformedFrame),
            proto::FRAME_CONTROL => self.handle_control(frame, trace.ctx),
            // A session-resume handshake: its whole job — the epoch bump —
            // already happened. The empty frame delivers nothing, so it
            // never counts as an event delivery.
            proto::FRAME_RESUME => Ok(Vec::new()),
            k => Err(EchoError::UnknownFrameKind(k)),
        };
        let e = match handled {
            Ok(outgoing) => {
                let handled = Disposition::Handled(frame.kind, frame.channel, QosTier::Reliable);
                return FrameOutcome { outgoing, ..FrameOutcome::settled(handled) };
            }
            Err(e) => e,
        };
        let reason = match &e {
            EchoError::Morph(e) => deadletter::reason_for(e),
            EchoError::Pbio(_) => DeadReason::Undecodable,
            EchoError::MalformedFrame | EchoError::UnknownFrameKind(_) => DeadReason::Malformed,
            _ => DeadReason::TransformFailed,
        };
        let stage = if frame.kind == proto::FRAME_CONTROL { "control" } else { "dispatch" };
        FrameOutcome::settled(self.dead_letter(reason, stage, bytes, e.to_string(), trace))
    }

    /// Event-plane dispatch onto the channel's record: sequenced
    /// newest-wins policy, fragment reassembly (partial sets the offer
    /// evicted are dead-lettered here), then delivery into the channel's
    /// morphing receiver. A frame for a channel this process has no record
    /// of settles as `Rejected` before any of that: nothing here reads the
    /// channel, so it costs no record, watermark or reassembly set.
    fn handle_event(
        &mut self,
        sender: u64,
        bytes: &WireBytes,
        frame: &proto::Frame<'_>,
        trace: FrameTrace,
        slot: Result<usize, usize>,
    ) -> FrameOutcome {
        let (channel, qos, parts) = (frame.channel, frame.qos, frame.frag_count);
        // One rejected frame, fragment or whole: a fragment starts no set,
        // so the fragment books (`echo.frag.*`, `partial_fragments`)
        // count nothing for it.
        let Ok(at) = slot else { return FrameOutcome::settled(Disposition::Rejected(channel, 1)) };
        let (mut stale_partials, mut watermark, mut evicted_partials) = (0, None, 0);
        if qos == QosTier::SequencedUnreliable {
            let ch = &mut self.channels[at];
            let latest = ch.latest_seq.entry(sender).or_insert(frame.seq);
            if frame.seq < *latest {
                // Newest-wins: a fresher message already arrived from this
                // sender — the stale frame is dropped, counted, never
                // dead-lettered (this is policy, not failure).
                self.trace_instant(&trace, "echo.stale");
                return FrameOutcome::settled(Disposition::Stale(channel));
            }
            if frame.seq > *latest {
                *latest = frame.seq;
                // In-progress older sets from this sender are superseded.
                stale_partials = ch.reassembly.purge_below(sender, frame.seq).len() as u16;
            }
            watermark = Some((channel, frame.seq));
        }
        let reassembled;
        let disposition = 'event: {
            let payload = if frame.is_fragment() {
                let fragment = Fragment {
                    index: frame.frag_index,
                    count: parts,
                    bytes: bytes.slice(proto::FRAME_HEADER_LEN..bytes.len()),
                };
                let wire_trace = (frame.trace != proto::NO_TRACE).then_some(frame.trace);
                let (offer, evicted) = self.channels[at].reassembly.offer(
                    sender,
                    frame.seq,
                    fragment,
                    bytes.clone(),
                    wire_trace,
                    self.now_ns,
                );
                evicted_partials = evicted.len() as u16;
                for p in &evicted {
                    let why = "evicted for a fresher set";
                    self.dead_letter_partial(DeadReason::PartialFragments, "reassembly", p, why);
                }
                match offer {
                    Offer::Complete(payload) => {
                        reassembled = payload;
                        &reassembled[..]
                    }
                    Offer::Buffered => break 'event Disposition::FragmentBuffered(channel),
                    // Dedup already suppresses duplicates inside its
                    // horizon; a part reaching the buffer twice anyway is
                    // treated the same way.
                    Offer::DuplicatePart => {
                        break 'event Disposition::Duplicate(frame.kind, channel)
                    }
                    Offer::Mismatch => {
                        let detail = EchoError::MalformedFrame.to_string();
                        let malformed = DeadReason::Malformed;
                        break 'event self.dead_letter(
                            malformed,
                            "reassembly",
                            bytes,
                            detail,
                            trace,
                        );
                    }
                }
            } else {
                frame.payload
            };
            // The deliver stage is the whole receiver dispatch of a sampled
            // message, timed by the receiver's own clock readings.
            let traced = self.recorder.as_ref().zip(trace.ctx);
            let sampled = proto::sampled(frame.seq);
            let delivered = self.channels[at].plane.as_mut().map(|rx| {
                let (result, total_ns) = rx.process_timed(payload, traced, sampled);
                if let Some(total_ns) = total_ns {
                    self.deliver_ns.record(total_ns);
                }
                result
            });
            match delivered {
                Some(Err(e)) => {
                    let reason = deadletter::reason_for(&e);
                    self.dead_letter(reason, "event", bytes, e.to_string(), trace)
                }
                None | Some(Ok(Delivery::Rejected)) => Disposition::Rejected(channel, parts),
                Some(Ok(_)) if frame.is_fragment() => Disposition::Reassembled(channel, qos, parts),
                Some(Ok(_)) => Disposition::Handled(frame.kind, channel, qos),
            }
        };
        FrameOutcome {
            evicted_partials,
            stale_partials,
            watermark,
            ..FrameOutcome::settled(disposition)
        }
    }

    /// Follow-up frames (membership responses) travel under the incoming
    /// frame's raw trace id, so a subscription's whole request→broadcast
    /// fan-out is one causal story.
    fn handle_control(
        &mut self,
        frame: &proto::Frame<'_>,
        ctx: Option<TraceCtx>,
    ) -> Result<Vec<Outgoing>, EchoError> {
        let (traced, sampled) = (self.recorder.as_ref().zip(ctx), proto::sampled(frame.seq));
        self.control_rx.process_timed(frame.payload, traced, sampled).0?;
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
            if !self.channel(channel).is_some_and(|c| c.owned) {
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
            let members = self.members(channel).unwrap_or_default().to_vec();
            let resp = self.encode_response(channel, &members)?;
            for m in &members {
                if m.contact != self.name {
                    let seq = self.alloc_seq();
                    out.push(Outgoing {
                        to_contact: m.contact.clone(),
                        bytes: proto::frame_qos(
                            proto::FRAME_CONTROL,
                            channel,
                            seq,
                            frame.trace,
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

        // Responses: refresh membership views (a creator's own list stays
        // authoritative).
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
            // No record: this process never joined the channel. Ignore the
            // response, as a request for a channel not ours is ignored —
            // a record is most of a kilobyte, and a peer must not be able
            // to make one per id it names.
            let Ok(at) = self.slot(channel) else { continue };
            let ch = &mut self.channels[at];
            if !ch.owned {
                *ch.members_mut() = Some(members);
            }
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

    /// The cached resolution of [`NodeState::sink_contacts`] to process
    /// indices, if one was stored since the channel's member list last
    /// changed and against a contact table still `contacts` entries long.
    pub fn sink_index(&self, channel: ChannelId, contacts: usize) -> Option<Arc<[usize]>> {
        let (resolved_with, sinks) = self.channel(channel)?.sink_index.as_ref()?;
        (*resolved_with == contacts).then(|| Arc::clone(sinks))
    }

    /// Stores `sinks` as the resolution of `channel`'s sink contacts
    /// against a contact table of `contacts` entries.
    pub fn cache_sink_index(&mut self, channel: ChannelId, contacts: usize, sinks: Arc<[usize]>) {
        self.channel_mut(channel).sink_index = Some((contacts, sinks));
    }

    /// Hands over the events received so far.
    pub fn take_events(&mut self) -> Vec<(ChannelId, Value)> {
        std::mem::take(&mut *self.events.lock().expect("event lock"))
    }

    /// The process's one wall-clock registry: every receiver's `morph.*` /
    /// `pbio.*` metrics and the `echo.stage.*` timings.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// True when this process has an event receiver on `channel`.
    pub fn has_event_plane(&self, channel: ChannelId) -> bool {
        self.channel(channel).is_some_and(|c| c.plane.is_some())
    }
}

#[cfg(test)]
mod tests {
    use simnet::XorShift64;

    use super::*;

    fn books() -> Arc<DeadLetterBooks> {
        books_on(&obs::Registry::new())
    }

    /// System books kept in `registry`, so a test can read back what a
    /// node filed ([`filed`]).
    fn books_on(registry: &obs::Registry) -> Arc<DeadLetterBooks> {
        Arc::new(DeadLetterBooks::new(registry))
    }

    /// Letters filed for `reason`, as the books in `registry` count them.
    fn filed(registry: &obs::Registry, reason: DeadReason) -> u64 {
        registry.counter(&format!("echo.deadletter.{}", reason.label())).get()
    }

    /// Test frames travel on channel 1, where the node has no event plane:
    /// a fresh event message there settles as `Rejected`.
    fn event_frame(seq: u64) -> WireBytes {
        proto::frame(proto::FRAME_EVENT, ChannelId(1), seq, proto::NO_TRACE, b"")
    }

    /// A node with a record of channel 1 — a sink's role — but no event
    /// plane there, so its fragments and watermarks have a place to live.
    fn member_node() -> NodeState {
        member_node_on(&obs::Registry::new())
    }

    /// [`member_node`], filing into books kept in `registry`.
    fn member_node_on(registry: &obs::Registry) -> NodeState {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books_on(registry));
        node.set_role(ChannelId(1), Role::sink());
        node
    }

    #[test]
    fn dedup_keys_on_sender_and_seq_not_seq_alone() {
        // Two independent senders may emit overlapping sequence numbers —
        // e.g. both starting their counters at 0 after a restart. Keying
        // dedup on the bare seq would silently drop the second sender's
        // traffic; the key must be the (sender, seq) pair.
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        let f = event_frame(7);
        assert!(matches!(node.handle_frame(0, &f).disposition, Disposition::Rejected(..)));
        assert!(
            matches!(node.handle_frame(1, &f).disposition, Disposition::Rejected(..)),
            "a different sender's seq 7 is fresh traffic, not a duplicate"
        );
        // True duplicates — same sender, same seq — are still suppressed,
        // for each sender independently.
        assert!(matches!(node.handle_frame(0, &f).disposition, Disposition::Duplicate(..)));
        assert!(matches!(node.handle_frame(1, &f).disposition, Disposition::Duplicate(..)));
        assert!(matches!(node.handle_frame(2, &f).disposition, Disposition::Rejected(..)));
    }

    #[test]
    fn a_replay_beyond_the_horizon_is_a_duplicate() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        let window = crate::dedup::DEDUP_WINDOW;
        for seq in 0..=window {
            let out = node.handle_frame(0, &event_frame(seq));
            assert!(matches!(out.disposition, Disposition::Rejected(..)));
        }
        // Seq 0 is a whole window behind the newest seq from its sender:
        // the horizon drops it, whatever became of it before.
        let old = node.handle_frame(0, &event_frame(0));
        assert!(matches!(old.disposition, Disposition::Duplicate(..)));
        assert!(old.beyond_window);
        // Seq 1 is one short of the horizon: dropped because it was noted.
        let recent = node.handle_frame(0, &event_frame(1));
        assert!(matches!(recent.disposition, Disposition::Duplicate(..)));
        assert!(!recent.beyond_window);
    }

    #[test]
    fn seqs_at_the_top_of_the_range_do_not_overflow() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        let mut decide = |seq| node.handle_frame(0, &event_frame(seq));
        assert!(matches!(decide(u64::MAX).disposition, Disposition::Rejected(..)));
        assert!(matches!(decide(u64::MAX - 1).disposition, Disposition::Rejected(..)));
        assert!(matches!(decide(u64::MAX).disposition, Disposition::Duplicate(..)));
        assert!(matches!(decide(u64::MAX - 1).disposition, Disposition::Duplicate(..)));
        let wrapped = decide(0);
        assert!(matches!(wrapped.disposition, Disposition::Duplicate(..)));
        assert!(wrapped.beyond_window, "seq 0 is far below the newest, u64::MAX");
    }

    #[test]
    fn two_senders_with_interleaved_gaps_keep_separate_windows() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        let fresh = |d: Disposition| matches!(d, Disposition::Rejected(..));
        let duplicate = |d: Disposition| matches!(d, Disposition::Duplicate(..));
        // Sender 0 sends the even seqs, sender 1 every third: the gaps are
        // other destinations' seqs, and neither sender's floor passes them.
        for seq in 0..30 {
            if seq % 2 == 0 {
                assert!(fresh(node.handle_frame(0, &event_frame(seq)).disposition));
            }
            if seq % 3 == 0 {
                assert!(fresh(node.handle_frame(1, &event_frame(seq)).disposition));
            }
        }
        for seq in 0..30 {
            let (a, b) = (&event_frame(seq), &event_frame(seq));
            assert_eq!(duplicate(node.handle_frame(0, a).disposition), seq % 2 == 0, "{seq}");
            assert_eq!(duplicate(node.handle_frame(1, b).disposition), seq % 3 == 0, "{seq}");
        }
        // The second pass noted every gap: both windows are now whole.
        for seq in 0..30 {
            assert!(duplicate(node.handle_frame(0, &event_frame(seq)).disposition));
            assert!(duplicate(node.handle_frame(1, &event_frame(seq)).disposition));
        }
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
        let mut node = member_node();
        let a = frag_frame(QosTier::Reliable, 3, 0, 2, b"he");
        let b = frag_frame(QosTier::Reliable, 3, 1, 2, b"llo");
        assert!(matches!(
            node.handle_frame(0, &b).disposition,
            Disposition::FragmentBuffered(ChannelId(1))
        ));
        assert_eq!(node.reassembly_depth(), 1);
        assert!(matches!(
            node.handle_frame(0, &a).disposition,
            Disposition::Rejected(ChannelId(1), 2)
        ));
        assert_eq!(node.reassembly_depth(), 0, "completed sets leave the buffer");
        // Replayed fragments of the finished set are plain duplicates.
        assert!(matches!(node.handle_frame(0, &a).disposition, Disposition::Duplicate(..)));
    }

    #[test]
    fn sequenced_channels_drop_stale_frames_newest_wins() {
        let mut node = member_node();
        let newer = frag_frame(QosTier::SequencedUnreliable, 9, 0, 1, b"new");
        let older = frag_frame(QosTier::SequencedUnreliable, 4, 0, 1, b"old");
        assert!(matches!(node.handle_frame(0, &newer).disposition, Disposition::Rejected(..)));
        assert!(matches!(
            node.handle_frame(0, &older).disposition,
            Disposition::Stale(ChannelId(1))
        ));
        // Another sender's seq 4 is fresh — watermarks are per sender.
        assert!(matches!(node.handle_frame(1, &older).disposition, Disposition::Rejected(..)));
    }

    #[test]
    fn newer_sequenced_message_supersedes_in_progress_older_set() {
        let registry = obs::Registry::new();
        let mut node = member_node_on(&registry);
        let part = frag_frame(QosTier::SequencedUnreliable, 4, 0, 3, b"x");
        assert!(matches!(
            node.handle_frame(0, &part).disposition,
            Disposition::FragmentBuffered(_)
        ));
        let newer = frag_frame(QosTier::SequencedUnreliable, 9, 0, 1, b"new");
        let outcome = node.handle_frame(0, &newer);
        assert!(matches!(outcome.disposition, Disposition::Rejected(..)));
        assert_eq!(outcome.stale_partials, 1, "the older partial set was purged");
        assert_eq!(node.reassembly_depth(), 0);
        assert_eq!(filed(&registry, DeadReason::PartialFragments), 0, "policy, not DLQ");
    }

    #[test]
    fn partial_sets_expire_into_the_dlq_as_partial_fragments() {
        let registry = obs::Registry::new();
        let mut node = member_node_on(&registry);
        node.configure_reassembly(8, 1_000);
        let part = frag_frame(QosTier::Reliable, 7, 0, 2, b"half");
        assert!(matches!(
            node.handle_frame(0, &part).disposition,
            Disposition::FragmentBuffered(_)
        ));
        assert_eq!(node.sweep_reassembly(999), 0, "not old enough yet");
        assert_eq!(node.sweep_reassembly(1_000), 1);
        assert_eq!(node.reassembly_depth(), 0);
        assert_eq!(filed(&registry, DeadReason::PartialFragments), 1);
        // The late sibling now starts a fresh (doomed) set, not a revival.
        let late = frag_frame(QosTier::Reliable, 7, 1, 2, b"late");
        assert!(matches!(
            node.handle_frame(0, &late).disposition,
            Disposition::FragmentBuffered(_)
        ));
    }

    #[test]
    fn event_frames_for_channels_never_joined_make_no_record() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        let frame = |channel, seq, tier, count| {
            let ch = ChannelId(channel);
            proto::frame_qos(proto::FRAME_EVENT, ch, seq, proto::NO_TRACE, tier, 0, count, 0, b"x")
        };
        let mut watermarks = 0;
        for seq in 0..100 {
            let channel = 1_000 + seq as u32;
            let out = node.handle_frame(0, &frame(channel, seq, QosTier::SequencedUnreliable, 1));
            assert_eq!(out.disposition, Disposition::Rejected(ChannelId(channel), 1));
            watermarks += usize::from(out.watermark.is_some());
        }
        assert_eq!(node.channels.len(), 0, "no record per channel named on the wire");
        assert_eq!(watermarks, 0, "nor a watermark to journal");
        // A fragment is one rejected frame too: no set is started.
        let out = node.handle_frame(0, &frame(5_000, 100, QosTier::Reliable, 2));
        assert_eq!(out.disposition, Disposition::Rejected(ChannelId(5_000), 1));
        assert_eq!((node.channels.len(), node.reassembly_depth()), (0, 0));
    }

    #[test]
    fn fragmented_control_frames_are_protocol_violations() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
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

    /// A `ChannelOpenResponse` frame naming `channel` — the wire's raw
    /// `int` — with one member, the creator.
    fn response_frame(channel: i64, seq: u64) -> WireBytes {
        let creator =
            MemberInfo { contact: "creator".into(), id: 1, is_source: false, is_sink: false };
        let Value::Record(mut fields) = proto::response_v2_value(ChannelId(0), &[creator]) else {
            unreachable!("a response is a record")
        };
        fields[0] = Value::Int(channel);
        let payload = Encoder::new(&proto::channel_open_response_v2())
            .encode(&Value::Record(fields))
            .unwrap();
        proto::frame(proto::FRAME_CONTROL, ChannelId(0), seq, proto::NO_TRACE, &payload)
    }

    #[test]
    fn responses_for_channels_never_joined_make_no_record() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        node.set_role(ChannelId(1), Role::sink());
        for seq in 0..64 {
            let out = node.handle_frame(0, &response_frame(1_000 + seq as i64, seq));
            assert!(matches!(out.disposition, Disposition::Handled(..)), "seq {seq}");
        }
        assert_eq!(node.channels.len(), 1, "a record per channel named on the wire");
        assert_eq!(node.members(ChannelId(1)), None);
        // The joined channel's view still refreshes.
        node.handle_frame(0, &response_frame(1, 64));
        assert_eq!(node.members(ChannelId(1)).map(<[MemberInfo]>::len), Some(1));
    }

    #[test]
    fn a_negative_channel_id_is_malformed() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
        node.set_role(ChannelId(1), Role::sink());
        let request = proto::channel_open_request();
        let join = [Value::Int(-1), Value::str("peer"), Value::Int(0), Value::Int(1)];
        let join = Encoder::new(&request).encode(&Value::Record(join.to_vec())).unwrap();
        let join = proto::frame(proto::FRAME_CONTROL, ChannelId(0), 1, proto::NO_TRACE, &join);
        for frame in [response_frame(-1, 0), join] {
            assert!(matches!(
                node.handle_frame(0, &frame).disposition,
                Disposition::Quarantined(DeadReason::Malformed)
            ));
        }
        assert_eq!(node.channels.len(), 1);
    }

    #[test]
    fn higher_epoch_resumes_and_older_epoch_frames_are_fenced() {
        let registry = obs::Registry::new();
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books_on(&registry));
        // Any higher-epoch frame is an implicit resume handshake.
        let fresh = proto::restamp_epoch(&event_frame(8), 1);
        let out = node.handle_frame(0, &fresh);
        assert!(matches!(out.disposition, Disposition::Rejected(..)));
        assert!(out.resumed, "a higher epoch bumps the sender's incarnation");
        // Epoch-0 stragglers from the crashed incarnation are refused.
        let stale = node.handle_frame(0, &event_frame(9));
        assert!(matches!(stale.disposition, Disposition::Fenced(ChannelId(1))));
        assert!(stale.ack.is_none(), "a fenced frame is not an arrival");
        assert_eq!(filed(&registry, DeadReason::StaleEpoch), 1);
        // Same-epoch traffic flows; a duplicate resume bump never happens.
        let again = node.handle_frame(0, &proto::restamp_epoch(&event_frame(10), 1));
        assert!(matches!(again.disposition, Disposition::Rejected(..)));
        assert!(!again.resumed);
        // Other senders are unaffected by this sender's fence.
        assert!(matches!(
            node.handle_frame(1, &event_frame(9)).disposition,
            Disposition::Rejected(..)
        ));
    }

    #[test]
    fn explicit_resume_handshake_bumps_without_delivering() {
        let mut node = NodeState::new("sink".into(), EchoVersion::V2, books());
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

    /// A clock that counts how often it is read (and never repeats itself).
    #[derive(Debug, Default)]
    struct CountingClock(std::sync::atomic::AtomicU64);

    impl obs::Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn only_a_sampled_event_frame_reads_the_process_clock() {
        let clock = Arc::new(CountingClock::default());
        let reads = || clock.0.load(std::sync::atomic::Ordering::Relaxed);
        let registry = Arc::new(Registry::with_clock(Arc::clone(&clock) as Arc<dyn obs::Clock>));
        let mut node =
            NodeState::with_registry("sink".into(), EchoVersion::V2, books(), registry.clone());
        let old = pbio::FormatBuilder::record("Tick").int("n").build_arc().unwrap();
        let new = pbio::FormatBuilder::record("Tick").int("n").int("scale").build_arc().unwrap();
        let retro = Transformation::new(new.clone(), old.clone(), "old.n = new.n * new.scale;");
        node.import_metadata(&[old.clone(), new.clone()], &[retro]);
        node.expect_events(ChannelId(1), &old);
        let event = Value::Record(vec![Value::Int(2), Value::Int(3)]);
        let event = Encoder::new(&new).encode(&event).unwrap();
        let frame =
            |seq| proto::frame(proto::FRAME_EVENT, ChannelId(1), seq, proto::NO_TRACE, &event);
        let mut deliver = |seq| {
            let before = reads();
            let out = node.handle_frame(0, &frame(seq));
            assert!(matches!(out.disposition, Disposition::Handled(..)), "seq {seq}");
            reads() - before
        };
        // The cold decision times itself whatever the seq; then a warm
        // unsampled morph reads the clock never, and a warm sampled one
        // five times: the unframe pair, then the receiver's entry, end of
        // decode and exit.
        let timed = (1..).find(|&seq| proto::sampled(seq)).unwrap();
        assert!(timed > 2 && !proto::sampled(timed + 1));
        deliver(1);
        assert_eq!(deliver(2), 0);
        assert_eq!(deliver(timed), 5);
        assert_eq!(deliver(timed + 1), 0);
        let snap = registry.snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count);
        for stage in ["echo.stage.unframe.ns", "echo.stage.deliver.ns", "morph.process_ns"] {
            assert_eq!(count(stage), Some(1), "{stage}");
        }
        assert_eq!(snap.counter("morph.messages"), Some(4));
        assert_eq!(node.take_events().len(), 4);
    }

    #[test]
    fn processes_share_one_text_of_a_transformation() {
        // Every process imports the control-plane transformations, as
        // `EchoSystem::add_process` does; none copies the Ecode text.
        let [a, b] = ["a", "b"].map(|name| {
            let mut node = NodeState::new(name.into(), EchoVersion::V1, books());
            node.import_metadata(&[], &[proto::response_retro_transformation()]);
            node
        });
        let text = |node: &NodeState| node.shared_xforms[0].source().as_ptr();
        assert_eq!(text(&a), text(&b));
        assert_eq!(text(&a), proto::response_retro_transformation().source().as_ptr());
    }

    #[test]
    fn crash_amnesia_forgets_dedup_and_dead_letters_partials() {
        let registry = obs::Registry::new();
        let mut node = member_node_on(&registry);
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Rejected(..)
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
        assert_eq!(filed(&registry, DeadReason::CrashLost), 1);
        // The state is gone: a replay of seq 7 reads as fresh traffic —
        // which is exactly why exactly-once needs the journaled notes.
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Rejected(..)
        ));
        // Restoring the journaled notes brings suppression back.
        node.crash_amnesia();
        assert_eq!(node.restore_seen(&[(0, 7, 0, 1), (0, 3, 0, 2)]), 2);
        assert!(matches!(
            node.handle_frame(0, &event_frame(7)).disposition,
            Disposition::Duplicate(..)
        ));
    }

    /// The seed of [`resealed_header_damage_is_counted_and_bounded`]:
    /// `FRAME_SEED`, or a fixed one.
    fn frame_seed() -> u64 {
        match std::env::var("FRAME_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| panic!("FRAME_SEED {v:?} is not a u64")),
            Err(_) => 28,
        }
    }

    /// Bytes `node` keeps beyond the frames it shares: per channel, per
    /// sender, per dead letter.
    fn held_bytes(node: &NodeState) -> usize {
        use std::mem::size_of;
        let channel = |c: &ChannelState| {
            size_of::<ChannelState>()
                + crate::frag::tests::held_bytes(&c.reassembly)
                + c.latest_seq.len() * size_of::<(u64, u64)>()
        };
        let letter = |l: &morph::DeadLetter| {
            size_of::<morph::DeadLetter>()
                + l.detail.capacity()
                + l.events.len() * size_of::<obs::SpanEvent>()
        };
        node.channels.iter().map(channel).sum::<usize>()
            + crate::dedup::tests::held_bytes(&node.dedup)
            + node.peer_epochs.len() * size_of::<(u64, u32)>()
            + node.dlq.letters().map(letter).sum::<usize>()
    }

    /// What the damage loop writes into header field `field` (`width`
    /// bytes): all zeros, all ones, seeded random values, and the edges of
    /// that field — unknown kinds and tiers, `index ≥ count`, epochs just
    /// and far behind or ahead of the sender's 7.
    fn damage_for(field: usize, width: usize, rng: &mut XorShift64) -> Vec<Vec<u8>> {
        let edges: &[u64] = match field {
            0 => &[1, 2, 3, 0x7F],
            4 => &[1, 2, 3],
            5 => &[2, 3, 0x8000],
            6 => &[1, 2, 4],
            7 => &[6, 8, 1 << 31],
            _ => &[1, 1 << (8 * width - 1)],
        };
        let mut values = vec![vec![0; width], vec![0xFF; width]];
        values.extend((0..6).map(|_| (0..width).map(|_| rng.next_u64() as u8).collect()));
        values.extend(edges.iter().map(|v| v.to_le_bytes()[..width].to_vec()));
        values
    }

    #[test]
    fn resealed_header_damage_is_counted_and_bounded() {
        // Each field of the 30 bytes the checksum covers is rewritten and
        // the checksum sealed again, so the damage reaches every check
        // behind the CRC. Every call must return; each frame the node gives
        // up on files exactly one dead letter (plus one per partial set it
        // evicts), counted by the node and by the system's books; and what
        // the node keeps grows by at most HELD_PER_BYTE bytes per frame
        // byte. A frame may claim 65,535 parts, and the reassembly set and
        // the dedup window keep one bit per claimed part: 2 × 8 KiB for the
        // 60-byte frames here.
        const HELD_PER_BYTE: usize = 320;
        let seed = frame_seed();
        eprintln!("FRAME_SEED={seed}");
        let mut rng = XorShift64::new(seed);
        let tick = pbio::FormatBuilder::record("Tick").int("n").string("text").build_arc().unwrap();
        let request = proto::channel_open_request();
        let mut base = Vec::new();
        for text in ["short".to_string(), "long ".repeat(20)] {
            let event = Value::Record(vec![Value::Int(1), Value::str(&text)]);
            let event = Encoder::new(&tick).encode(&event).unwrap();
            let join = vec![Value::Int(1), Value::str(&text), Value::Int(0), Value::Int(1)];
            let join = Encoder::new(&request).encode(&Value::Record(join)).unwrap();
            let frame = |kind, index, count, payload: &[u8]| {
                proto::frame_qos(
                    kind,
                    ChannelId(1),
                    40,
                    0xACE,
                    QosTier::Reliable,
                    index,
                    count,
                    7,
                    payload,
                )
            };
            for (kind, payload) in [
                (proto::FRAME_EVENT, &event),
                (proto::FRAME_CONTROL, &join),
                (proto::FRAME_RESUME, &event),
            ] {
                // Whole, and as the middle part of three.
                for (index, count) in [(0, 1), (1, 3)] {
                    base.push(frame(kind, index, count, payload));
                }
            }
        }
        let payloads = base.iter().map(|f| f.len() - proto::FRAME_HEADER_LEN);
        assert!(payloads.clone().any(|n| n < 64) && payloads.clone().any(|n| n > 64));
        // A sender of its own for every damaged frame, known at epoch 7.
        let hello = proto::frame_qos(
            proto::FRAME_RESUME,
            ChannelId(0),
            0,
            0,
            QosTier::Reliable,
            0,
            1,
            7,
            b"",
        );
        let (mut reached, mut quarantined, mut fenced) = (0, 0, 0);
        for framed in &base {
            let registry = obs::Registry::new();
            let mut node = NodeState::new("sink".into(), EchoVersion::V2, books_on(&registry));
            node.expect_events(ChannelId(1), &tick);
            // Letters per reason and in all, as the system's books count
            // them; then in all as the node's own queue does.
            let tally = |node: &NodeState| {
                let mut counts: Vec<u64> = DeadReason::ALL.map(|r| filed(&registry, r)).to_vec();
                counts.push(registry.counter("echo.deadletter.total").get());
                counts.push(node.dlq.total());
                counts
            };
            for field in 0..proto::HEADER_LAYOUT.len() - 1 {
                let at = proto::header_field(field);
                for value in damage_for(field, at.len(), &mut rng) {
                    let damaged = WireBytes::from(proto::tests::reseal(framed, at.start, &value));
                    let sender = rng.next_u64();
                    assert!(node.handle_frame(sender, &hello).resumed);
                    let (held, mut want) = (held_bytes(&node), tally(&node));
                    let out = node.handle_frame(sender, &damaged);
                    let case = format!("FRAME_SEED={seed}: field {field} = {value:02x?}");
                    let gave_up = match out.disposition {
                        Disposition::Quarantined(reason) => Some(reason),
                        Disposition::Fenced(_) => Some(DeadReason::StaleEpoch),
                        _ => None,
                    };
                    let filed = gave_up
                        .into_iter()
                        .chain((0..out.evicted_partials).map(|_| DeadReason::PartialFragments));
                    for reason in filed {
                        let at = DeadReason::ALL.iter().position(|&r| r == reason).unwrap();
                        for i in [at, DeadReason::ALL.len(), DeadReason::ALL.len() + 1] {
                            want[i] += 1;
                        }
                    }
                    assert_eq!(tally(&node), want, "{case}: dead letters per reason");
                    let grew = held_bytes(&node).saturating_sub(held);
                    assert!(grew <= HELD_PER_BYTE * damaged.len(), "{case}: kept {grew} bytes");
                    reached += usize::from(proto::unframe(&damaged).is_ok());
                    quarantined +=
                        usize::from(gave_up.is_some_and(|r| r != DeadReason::StaleEpoch));
                    fenced += usize::from(matches!(out.disposition, Disposition::Fenced(_)));
                }
            }
        }
        // The damage reached past the checksum, and each way out was taken.
        assert!(reached > 0 && quarantined > 0 && fenced > 0, "{reached} {quarantined} {fenced}");
    }
}
