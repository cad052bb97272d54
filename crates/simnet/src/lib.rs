//! # simnet — deterministic simulated network
//!
//! A small discrete-event network simulator standing in for the paper's
//! testbed LAN (see DESIGN.md "Substitutions"). Nodes exchange byte
//! messages over links with configurable latency and bandwidth; time is
//! virtual, so message-size effects on delivery latency — the motivation
//! behind the paper's Table 1 — are measurable exactly and reproducibly.
//!
//! ```
//! # fn main() -> Result<(), simnet::NetError> {
//! use simnet::{LinkParams, Network};
//!
//! let mut net = Network::new();
//! let a = net.add_node("client");
//! let b = net.add_node("server");
//! net.connect(a, b, LinkParams::lan());
//! net.send(a, b, b"hello".to_vec())?;
//! let d = net.step().expect("one message in flight");
//! assert_eq!(d.to, b);
//! assert_eq!(d.payload, b"hello");
//! assert!(net.now_ns() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fault;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use obs::{ActiveSpan, Counter, FlightRecorder, Registry, TraceCtx, VirtualClock};
use pbio::WireBytes;

use fault::FaultState;
pub use fault::{FaultPlan, FaultStats, XorShift64};

/// Identifies a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's position in its network's insertion order:
    /// [`Network::add_node`] hands out 0, 1, 2, … . A caller that adds its
    /// own nodes one-to-one can use this as a direct index instead of
    /// keeping a map.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Link characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth in bytes per second (0 means infinite).
    pub bandwidth_bps: u64,
}

impl LinkParams {
    /// A switched-LAN-like link: 100 µs latency, 100 MB/s.
    pub fn lan() -> LinkParams {
        LinkParams { latency_ns: 100_000, bandwidth_bps: 100_000_000 }
    }

    /// A WAN-like link: 40 ms latency, 1 MB/s.
    pub fn wan() -> LinkParams {
        LinkParams { latency_ns: 40_000_000, bandwidth_bps: 1_000_000 }
    }

    /// A constrained wireless-like link: 5 ms latency, 100 KB/s — the
    /// "low bandwidths of newly employed wireless links" of the paper's
    /// introduction.
    pub fn wireless() -> LinkParams {
        LinkParams { latency_ns: 5_000_000, bandwidth_bps: 100_000 }
    }

    /// Zero-latency, infinite-bandwidth link (pure functional testing).
    pub fn ideal() -> LinkParams {
        LinkParams { latency_ns: 0, bandwidth_bps: 0 }
    }

    /// Transmission (serialization) time for `len` bytes, in nanoseconds.
    fn tx_time_ns(&self, len: usize) -> u64 {
        if self.bandwidth_bps == 0 {
            0
        } else {
            (len as u128 * 1_000_000_000u128 / self.bandwidth_bps as u128) as u64
        }
    }
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams::ideal()
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Referenced node does not exist.
    UnknownNode(NodeId),
    /// No link between the two nodes.
    NoRoute(NodeId, NodeId),
    /// The link exists but is administratively down (partition modeling).
    LinkDown(NodeId, NodeId),
    /// An endpoint is inside a scheduled crash window
    /// ([`Network::set_crash_windows`]) — the process is down, not the wire.
    NodeDown(NodeId),
    /// The payload exceeds the link's MTU ([`Network::set_link_mtu`]);
    /// the frame never enters the wire. Senders are expected to fragment.
    Oversized {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Refused payload size in bytes.
        len: usize,
        /// The link's configured MTU in bytes.
        mtu: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::NoRoute(a, b) => write!(f, "no link between {a} and {b}"),
            NetError::LinkDown(a, b) => write!(f, "link between {a} and {b} is down"),
            NetError::NodeDown(n) => write!(f, "node {n} is crashed"),
            NetError::Oversized { from, to, len, mtu } => {
                write!(f, "{len}-byte frame exceeds the {mtu}-byte MTU of link {from}->{to}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message bytes — a [`WireBytes`] view sharing the sender's buffer, so
    /// cloning a delivery (inbox + return value) never copies the payload.
    pub payload: WireBytes,
    /// Virtual delivery time in nanoseconds.
    pub at_ns: u64,
}

#[derive(Debug)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: WireBytes,
    /// Open hop span, finished at delivery ([`Network::step`]). Boxed:
    /// only traced sends carry one, and the delivery heap moves an
    /// `InFlight` a dozen times between its push and its pop.
    span: Option<Box<ActiveSpan>>,
}

// Ordered by (deliver_at, seq); used through `Reverse` for a min-heap.
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

#[derive(Debug, Default, Clone)]
struct LinkState {
    params: LinkParams,
    /// Earliest virtual time the link's transmitter is free.
    next_free_ns: u64,
    /// Bytes carried (for traffic accounting).
    bytes: u64,
    /// Administratively down (sends fail; in-flight messages still arrive).
    down: bool,
    /// Maximum payload size accepted by the link; 0 means unlimited.
    mtu: usize,
    /// Fault-injection state, when a [`FaultPlan`] is attached — boxed, as
    /// most links carry none and it is most of a link's size.
    fault: Option<Box<FaultState>>,
    /// `simnet.link.<from>-><to>.bytes` / `.messages` in the attached
    /// registry, created on the link's first send — kept with the link so
    /// a send finds them with the lookup it makes anyway.
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

/// A crash-window boundary crossed as virtual time advanced — the raw
/// material of crash/restart recovery in the layer that owns the nodes
/// (see [`Network::take_crash_transitions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashTransition {
    /// The node whose window boundary was crossed.
    pub node: NodeId,
    /// The boundary instant: a window's `from_ns` (down) or `until_ns`
    /// (up). Windows are half-open, so the node is alive *at* `until_ns`.
    pub at_ns: u64,
    /// `false` when a window opened (the process crashed), `true` when it
    /// closed (the process restarted).
    pub up: bool,
}

/// Cached `simnet.*` counter handles for an attached registry.
#[derive(Debug)]
struct NetMetrics {
    registry: Arc<Registry>,
    total_bytes: Arc<Counter>,
    total_messages: Arc<Counter>,
    fault_dropped: Arc<Counter>,
    fault_corrupted: Arc<Counter>,
    fault_duplicated: Arc<Counter>,
    fault_reordered: Arc<Counter>,
    fault_partition_blocked: Arc<Counter>,
    crash_blocked: Arc<Counter>,
    crash_dropped: Arc<Counter>,
}

/// The simulated network: nodes, links, a virtual clock, and an event queue.
#[derive(Debug, Default)]
pub struct Network {
    names: Vec<String>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    queue: BinaryHeap<Reverse<InFlight>>,
    inboxes: Vec<VecDeque<Delivery>>,
    now_ns: u64,
    seq: u64,
    /// Mirror of `now_ns` readable by observers ([`obs::Clock`]); advanced
    /// on every step so registries on this clock stamp virtual time.
    clock: VirtualClock,
    metrics: Option<NetMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    /// Scheduled `[from_ns, until_ns)` crash windows per node — the
    /// server-loss mirror of [`FaultPlan`]'s partition windows.
    crash_windows: HashMap<NodeId, Vec<(u64, u64)>>,
    /// Every crash-window boundary, flattened and sorted by
    /// `(at_ns, restart-before-crash, node)` — rebuilt whenever windows
    /// change. `crash_cursor` marks the prefix already handed out by
    /// [`Network::take_crash_transitions`].
    crash_events: Vec<CrashTransition>,
    crash_cursor: usize,
}

impl Network {
    /// Creates an empty network at virtual time zero.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.names.push(name.into());
        self.inboxes.push(VecDeque::new());
        NodeId(self.names.len() - 1)
    }

    /// Connects two nodes bidirectionally with the same parameters.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert((a, b), LinkState { params, ..LinkState::default() });
        self.links.insert((b, a), LinkState { params, ..LinkState::default() });
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// A [`VirtualClock`] view of this network's virtual time. Handles are
    /// shared: build an [`obs::Registry`] on it (`Registry::with_clock`)
    /// and every snapshot and timer follows simulation time, making metric
    /// output fully deterministic.
    pub fn virtual_clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// Attaches a registry to receive traffic counters: totals
    /// (`simnet.bytes`, `simnet.messages`) and per directed link
    /// (`simnet.link.<from>-><to>.bytes` / `.messages`, named by node
    /// names). Counting starts at attachment; link handles are created on
    /// first send over each link.
    pub fn attach_registry(&mut self, registry: Arc<Registry>) {
        self.metrics = Some(NetMetrics {
            total_bytes: registry.counter("simnet.bytes"),
            total_messages: registry.counter("simnet.messages"),
            fault_dropped: registry.counter("simnet.fault.dropped"),
            fault_corrupted: registry.counter("simnet.fault.corrupted"),
            fault_duplicated: registry.counter("simnet.fault.duplicated"),
            fault_reordered: registry.counter("simnet.fault.reordered"),
            fault_partition_blocked: registry.counter("simnet.fault.partition_blocked"),
            crash_blocked: registry.counter("simnet.crash.blocked"),
            crash_dropped: registry.counter("simnet.crash.dropped"),
            registry,
        });
        // Handles fetched from a previously attached registry are stale.
        for link in self.links.values_mut() {
            link.counters = None;
        }
    }

    /// Attaches a [`FlightRecorder`] so traced sends
    /// ([`Network::send_traced`]) annotate each hop with a virtual-time
    /// link span and tag injected faults onto the trace. Build the
    /// recorder on this network's [`Network::virtual_clock`] for
    /// deterministic, byte-identical trace exports per seed.
    pub fn attach_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Attaches a [`FaultPlan`] to the (bidirectional) link between two
    /// nodes. Each direction draws faults from its own PRNG, seeded from the
    /// plan seed and the directed link identity, so runs are deterministic.
    /// Replaces any previous plan (and resets its fault counters). No-op for
    /// nonexistent links.
    pub fn set_fault_plan(&mut self, a: NodeId, b: NodeId, plan: FaultPlan) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.fault = Some(Box::new(FaultState::new(plan.clone(), key.0 .0, key.1 .0)));
            }
        }
    }

    /// Removes any fault plan from the (bidirectional) link.
    pub fn clear_fault_plan(&mut self, a: NodeId, b: NodeId) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.fault = None;
            }
        }
    }

    /// Fault accounting for the directed link `from → to`, if a plan is (or
    /// was) attached.
    pub fn fault_stats(&self, from: NodeId, to: NodeId) -> Option<FaultStats> {
        self.links.get(&(from, to)).and_then(|l| l.fault.as_ref()).map(|f| f.stats)
    }

    /// Aggregated fault accounting across every directed link.
    pub fn fault_totals(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for link in self.links.values() {
            if let Some(f) = &link.fault {
                total.absorb(&f.stats);
            }
        }
        total
    }

    /// Schedules crash windows for a node: during any half-open
    /// `[from_ns, until_ns)` window the node is down — sends from or to it
    /// are refused with [`NetError::NodeDown`], and in-flight messages
    /// reaching it are silently discarded (counted in an attached
    /// registry's `simnet.crash.dropped`). The mirror of [`FaultPlan`]'s scheduled
    /// partition windows for *process* loss: replica crashes become
    /// injectable and, being pure schedule, replayable per seed. Replaces
    /// any previous windows for the node.
    pub fn set_crash_windows(&mut self, node: NodeId, windows: &[(u64, u64)]) {
        self.crash_windows.insert(node, windows.to_vec());
        self.rebuild_crash_events();
    }

    /// Flattens the window schedule into the sorted boundary-event list.
    /// Boundaries already in the past when the schedule changes are marked
    /// taken, so late re-scheduling cannot replay old transitions.
    fn rebuild_crash_events(&mut self) {
        let mut events: Vec<CrashTransition> = Vec::new();
        for (&node, windows) in &self.crash_windows {
            for &(from, until) in windows {
                if from >= until {
                    continue; // degenerate window: never down
                }
                events.push(CrashTransition { node, at_ns: from, up: false });
                events.push(CrashTransition { node, at_ns: until, up: true });
            }
        }
        // Restarts sort before crashes at the same instant: back-to-back
        // windows `[a,b) [b,c)` then read as one continuous outage.
        events.sort_by_key(|e| (e.at_ns, !e.up, e.node.0));
        self.crash_cursor = events.iter().take_while(|e| e.at_ns < self.now_ns).count();
        self.crash_events = events;
    }

    /// Returns — once each — every crash-window boundary with
    /// `at_ns <= upto_ns`, in `(at_ns, restart-before-crash, node)` order.
    /// The layer owning the processes polls this as virtual time advances
    /// to run amnesia (window opened) and recovery (window closed) at
    /// deterministic instants; repeated calls never hand out a boundary
    /// twice, so replays observe the identical transition stream.
    pub fn take_crash_transitions(&mut self, upto_ns: u64) -> Vec<CrashTransition> {
        let start = self.crash_cursor;
        let mut end = start;
        while end < self.crash_events.len() && self.crash_events[end].at_ns <= upto_ns {
            end += 1;
        }
        self.crash_cursor = end;
        self.crash_events[start..end].to_vec()
    }

    /// The instant of the next crash-window boundary not yet handed out by
    /// [`Network::take_crash_transitions`], if any — an idle component can
    /// advance virtual time to it so restarts fire even when no traffic is
    /// in flight.
    pub fn next_crash_transition(&self) -> Option<u64> {
        self.crash_events.get(self.crash_cursor).map(|e| e.at_ns)
    }

    /// True when `at_ns` falls inside one of the node's crash windows.
    fn node_crashed_at(&self, node: NodeId, at_ns: u64) -> bool {
        self.crash_windows
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| at_ns >= from && at_ns < until))
    }

    /// When the node is down at `at_ns`, the `until_ns` of the covering
    /// crash window (merging back-to-back windows, so the returned instant
    /// is the first at which the node is actually alive again). `None`
    /// while the node is up — retry layers use this to *park* frames for a
    /// crashed peer until its scheduled restart instead of burning backoff
    /// attempts into a process that cannot answer.
    pub fn node_down_until(&self, node: NodeId, at_ns: u64) -> Option<u64> {
        let windows = self.crash_windows.get(&node)?;
        let mut t = at_ns;
        let mut covered = false;
        // Windows may be unsorted and may abut; chase the cover point until
        // no window contains it.
        while let Some(&(_, until)) = windows.iter().find(|&&(from, until)| t >= from && t < until)
        {
            covered = true;
            t = until;
        }
        covered.then_some(t)
    }

    /// Advances virtual time by `delta_ns` without delivering anything —
    /// models a component waiting (e.g. a retry backoff) while the network
    /// is quiet. Time never runs backwards past queued deliveries; they
    /// simply become due.
    pub fn advance_ns(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
        self.clock.set_ns(self.now_ns);
    }

    /// Queues a message for delivery, returning its delivery time. The time
    /// accounts for link serialization (bandwidth), propagation latency, and
    /// queueing behind earlier messages on the same directed link.
    ///
    /// The payload is taken as anything convertible to [`WireBytes`]: a
    /// `Vec<u8>` is promoted once, while passing an existing `WireBytes`
    /// (or a clone) enters the wire without copying a byte. Fault-injected
    /// duplication also only clones the view; corruption copies-on-write
    /// the single affected copy.
    ///
    /// If the link carries a [`FaultPlan`], the plan may drop the message
    /// (it still "sends" successfully — loss is silent to the sender),
    /// duplicate it, flip one byte of a queued copy, delay it (jitter or
    /// forced reordering), or — during a scheduled partition window — refuse
    /// it with [`NetError::LinkDown`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] / [`NetError::NoRoute`],
    /// [`NetError::LinkDown`] when the link is administratively down or
    /// inside a scheduled partition window, and [`NetError::NodeDown`] when
    /// either endpoint is inside a scheduled crash window
    /// ([`Network::set_crash_windows`]).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<WireBytes>,
    ) -> Result<u64, NetError> {
        self.send_traced(from, to, payload, None)
    }

    /// [`Network::send`] carrying a trace context: when a
    /// [`FlightRecorder`] is attached ([`Network::attach_recorder`]), the
    /// hop is annotated with a `simnet.link.<from>-><to>` span from
    /// departure to delivery, injected faults are tagged onto it
    /// (`fault=corrupt` / `duplicate` / `reorder`), dropped copies become
    /// `simnet.fault.dropped` instants, sends refused inside a
    /// scheduled partition window record `simnet.fault.partition_blocked`,
    /// and sends refused by a crash window record `simnet.crash.blocked`.
    /// With `ctx` of `None` (or no recorder) this is exactly [`Network::send`].
    ///
    /// # Errors
    ///
    /// As for [`Network::send`].
    pub fn send_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<WireBytes>,
        ctx: Option<TraceCtx>,
    ) -> Result<u64, NetError> {
        let payload: WireBytes = payload.into();
        if from.0 >= self.names.len() {
            return Err(NetError::UnknownNode(from));
        }
        if to.0 >= self.names.len() {
            return Err(NetError::UnknownNode(to));
        }
        let trace = match (&self.recorder, ctx) {
            (Some(rec), Some(ctx)) => Some((Arc::clone(rec), ctx)),
            _ => None,
        };
        let now = self.now_ns;
        // A crashed endpoint refuses traffic before the wire is consulted:
        // the process is down, not the link.
        for node in [from, to] {
            if self.node_crashed_at(node, now) {
                if let Some(m) = &self.metrics {
                    m.crash_blocked.inc();
                }
                if let Some((rec, ctx)) = &trace {
                    rec.instant_at(
                        ctx.trace,
                        ctx.parent,
                        "simnet.crash.blocked",
                        &[("node", &self.names[node.0])],
                        now,
                    );
                }
                return Err(NetError::NodeDown(node));
            }
        }
        let link_label = || format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
        let link = self.links.get_mut(&(from, to)).ok_or(NetError::NoRoute(from, to))?;
        if link.down {
            return Err(NetError::LinkDown(from, to));
        }
        if link.mtu != 0 && payload.len() > link.mtu {
            return Err(NetError::Oversized { from, to, len: payload.len(), mtu: link.mtu });
        }
        if let Some(f) = &mut link.fault {
            if f.plan.partitioned_at(now) {
                f.stats.partition_blocked += 1;
                if let Some(m) = &self.metrics {
                    m.fault_partition_blocked.inc();
                }
                if let Some((rec, ctx)) = &trace {
                    let label =
                        format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
                    rec.instant_at(
                        ctx.trace,
                        ctx.parent,
                        "simnet.fault.partition_blocked",
                        &[("link", &label)],
                        now,
                    );
                }
                return Err(NetError::LinkDown(from, to));
            }
        }
        let depart = now.max(link.next_free_ns);
        let tx = link.params.tx_time_ns(payload.len());
        let base_deliver = depart + tx + link.params.latency_ns;
        link.next_free_ns = depart + tx;

        // Decide the copies that actually enter the wire. `entered` counts
        // transmitted copies (including ones lost in flight) so traffic
        // accounting preserves the identity:
        //   messages carried == deliveries + fault.dropped
        // Each queued copy remembers which faults hit it so the trace can
        // tag the hop span.
        let payload_len = payload.len() as u64;
        struct Copy {
            at: u64,
            payload: WireBytes,
            corrupted: bool,
            reordered: bool,
            duplicate: bool,
        }
        // At most the original and one duplicate: no allocation.
        let mut queued: [Option<Copy>; 2] = [None, None];
        let mut delta = FaultStats::default();
        let mut entered: u64 = 1;
        let deliver_at = match &mut link.fault {
            Some(f) if f.plan.has_random_faults() => {
                if f.rng.chance_pm(f.plan.drop_pm) {
                    f.stats.dropped += 1;
                    delta.dropped = 1;
                    base_deliver
                } else {
                    // Duplication shares the frame as transmitted (a view
                    // clone, not a byte copy); each copy then draws its
                    // in-flight faults independently.
                    let dup = f.rng.chance_pm(f.plan.duplicate_pm).then(|| payload.clone());
                    let mut original = payload;
                    let (at, corrupted, reordered) =
                        Self::copy_faults(f, &mut delta, base_deliver, &mut original);
                    queued[0] = Some(Copy {
                        at,
                        payload: original,
                        corrupted,
                        reordered,
                        duplicate: false,
                    });
                    if let Some(mut copy) = dup {
                        entered += 1;
                        f.stats.duplicated += 1;
                        delta.duplicated += 1;
                        let (at2, corrupted, reordered) =
                            Self::copy_faults(f, &mut delta, base_deliver, &mut copy);
                        queued[1] = Some(Copy {
                            at: at2,
                            payload: copy,
                            corrupted,
                            reordered,
                            duplicate: true,
                        });
                    }
                    at
                }
            }
            _ => {
                queued[0] = Some(Copy {
                    at: base_deliver,
                    payload,
                    corrupted: false,
                    reordered: false,
                    duplicate: false,
                });
                base_deliver
            }
        };
        link.bytes += payload_len * entered;
        if let Some(m) = &self.metrics {
            let (bytes, messages) = link.counters.get_or_insert_with(|| {
                let link_name =
                    format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
                (
                    m.registry.counter(&format!("{link_name}.bytes")),
                    m.registry.counter(&format!("{link_name}.messages")),
                )
            });
            bytes.add(payload_len * entered);
            messages.add(entered);
            m.total_bytes.add(payload_len * entered);
            m.total_messages.add(entered);
            // Four read-modify-writes a send that drew no fault can skip.
            if delta != FaultStats::default() {
                m.fault_dropped.add(delta.dropped);
                m.fault_corrupted.add(delta.corrupted);
                m.fault_duplicated.add(delta.duplicated);
                m.fault_reordered.add(delta.reordered);
            }
        }
        if delta.dropped > 0 {
            if let Some((rec, ctx)) = &trace {
                rec.instant_at(
                    ctx.trace,
                    ctx.parent,
                    "simnet.fault.dropped",
                    &[("link", &link_label())],
                    depart,
                );
            }
        }
        for c in queued.into_iter().flatten() {
            let span = trace.as_ref().map(|(rec, ctx)| {
                let mut span = rec.start_at(ctx.trace, ctx.parent, &link_label(), depart);
                if c.duplicate {
                    span.tag("fault", "duplicate");
                }
                if c.corrupted {
                    span.tag("fault", "corrupt");
                }
                if c.reordered {
                    span.tag("fault", "reorder");
                }
                Box::new(span)
            });
            self.seq += 1;
            self.queue.push(Reverse(InFlight {
                deliver_at: c.at,
                seq: self.seq,
                from,
                to,
                payload: c.payload,
                span,
            }));
        }
        Ok(deliver_at)
    }

    /// Draws the in-flight faults for one queued copy: latency jitter,
    /// forced reordering delay, and single-byte corruption. Returns the
    /// copy's delivery time and whether it was corrupted / reordered.
    /// Corruption is the only fault that touches payload bytes, and it
    /// copies-on-write: un-faulted copies keep sharing the sender's buffer.
    fn copy_faults(
        f: &mut FaultState,
        delta: &mut FaultStats,
        base_deliver: u64,
        payload: &mut WireBytes,
    ) -> (u64, bool, bool) {
        let mut at = base_deliver;
        let mut reordered = false;
        let mut corrupted = false;
        if f.plan.jitter_ns > 0 {
            at += f.rng.below(f.plan.jitter_ns + 1);
        }
        if f.rng.chance_pm(f.plan.reorder_pm) {
            at += f.plan.reorder_extra_ns;
            f.stats.reordered += 1;
            delta.reordered += 1;
            reordered = true;
        }
        if f.rng.chance_pm(f.plan.corrupt_pm) && !payload.is_empty() {
            let idx = f.rng.below(payload.len() as u64) as usize;
            let flip = (f.rng.below(255) + 1) as u8; // never a zero XOR
            let mut bytes = payload.to_vec();
            bytes[idx] ^= flip;
            *payload = WireBytes::from(bytes);
            f.stats.corrupted += 1;
            delta.corrupted += 1;
            corrupted = true;
        }
        (at, corrupted, reordered)
    }

    /// Delivers the next in-flight message, advancing the clock to its
    /// delivery time and depositing it in the receiver's inbox. Messages
    /// whose destination is inside a crash window at delivery time are
    /// discarded (the process is not there to receive them) and accounted
    /// in an attached registry's `simnet.crash.dropped`. Returns `None` when nothing is in
    /// flight.
    pub fn step(&mut self) -> Option<Delivery> {
        let d = self.take_delivery(None)?;
        self.inboxes[d.to.0].push_back(d.clone());
        Some(d)
    }

    /// [`Network::step`] for a caller that dispatches the delivery itself:
    /// the same delivery pipeline (clock advance, hop-span finish,
    /// crash-window discards), but nothing is deposited in the receiver's
    /// inbox — there is nothing to [`Network::recv`] afterwards. With a
    /// cutoff, only a message landing strictly before `before_ns` is
    /// delivered and later traffic stays in flight: drivers use this to
    /// keep deliveries from crossing a crash-window boundary
    /// ([`Network::next_crash_transition`]). Each pop re-checks the bound,
    /// so a crash-discarded front never makes the loop overshoot past the
    /// cutoff into later traffic. Messages come out in global
    /// `(deliver_at, seq)` order, so a caller that buckets them (the
    /// wall-clock driver's per-shard mailboxes) keeps every destination's
    /// deliveries in simulated arrival order.
    pub fn take_delivery(&mut self, before_ns: Option<u64>) -> Option<Delivery> {
        loop {
            if let Some(limit) = before_ns {
                match self.queue.peek() {
                    Some(Reverse(m)) if m.deliver_at < limit => {}
                    _ => return None,
                }
            }
            let Reverse(mut m) = self.queue.pop()?;
            self.now_ns = self.now_ns.max(m.deliver_at);
            self.clock.set_ns(self.now_ns);
            let crashed = self.node_crashed_at(m.to, m.deliver_at);
            if let Some(mut span) = m.span.take() {
                if crashed {
                    span.tag("fault", "crash");
                    if let Some(rec) = &self.recorder {
                        rec.instant_at(
                            span.trace(),
                            Some(span.id()),
                            "simnet.crash.dropped",
                            &[("node", &self.names[m.to.0])],
                            m.deliver_at,
                        );
                    }
                }
                span.finish(); // commits [depart..deliver] on the virtual clock
            }
            if crashed {
                if let Some(mm) = &self.metrics {
                    mm.crash_dropped.inc();
                }
                continue;
            }
            return Some(Delivery {
                from: m.from,
                to: m.to,
                payload: m.payload,
                at_ns: m.deliver_at,
            });
        }
    }

    /// Drains the inbox of `node` (messages already delivered by
    /// [`Network::step`]).
    pub fn recv(&mut self, node: NodeId) -> Option<Delivery> {
        self.inboxes.get_mut(node.0)?.pop_front()
    }

    /// True when no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The delivery time of the earliest in-flight message, if any — the
    /// peek counterpart of [`Network::step`], so a driver can decide
    /// whether a crash-window boundary ([`Network::next_crash_transition`])
    /// falls due before the next delivery.
    pub fn next_delivery_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(m)| m.deliver_at)
    }

    /// Steps until idle, invoking `on_delivery` for each message (inboxes
    /// are bypassed). The callback may send more messages through the
    /// provided `&mut Network`. Returns the number of deliveries.
    pub fn run<F>(&mut self, mut on_delivery: F) -> usize
    where
        F: FnMut(&mut Network, Delivery),
    {
        let mut n = 0;
        while let Some(d) = self.take_delivery(None) {
            on_delivery(self, d);
            n += 1;
        }
        n
    }

    /// Administratively raises or lowers the (bidirectional) link between
    /// two nodes — partition modeling. Messages already in flight are still
    /// delivered; new sends fail with [`NetError::LinkDown`] while lowered.
    /// No-op for nonexistent links.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.down = !up;
            }
        }
    }

    /// Sets the MTU of the (bidirectional) link between two nodes: sends
    /// whose payload exceeds `mtu` bytes are refused with
    /// [`NetError::Oversized`] before entering the wire. An `mtu` of 0
    /// (the default) means unlimited. No-op for nonexistent links.
    pub fn set_link_mtu(&mut self, a: NodeId, b: NodeId, mtu: usize) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.mtu = mtu;
            }
        }
    }

    /// Total bytes carried across all directed links.
    pub fn total_bytes(&self) -> u64 {
        self.links.values().map(|l| l.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(params: LinkParams) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, params);
        (net, a, b)
    }

    #[test]
    fn crash_transitions_are_handed_out_once_in_boundary_order() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.set_crash_windows(a, &[(10, 20), (20, 30)]);
        net.set_crash_windows(b, &[(15, 25)]);
        assert_eq!(net.next_crash_transition(), Some(10));
        // Nothing is due before the first boundary.
        assert!(net.take_crash_transitions(9).is_empty());
        let first = net.take_crash_transitions(20);
        assert_eq!(
            first,
            vec![
                CrashTransition { node: a, at_ns: 10, up: false },
                CrashTransition { node: b, at_ns: 15, up: false },
                // Restart sorts before crash at the shared boundary, so
                // back-to-back windows read as one continuous outage.
                CrashTransition { node: a, at_ns: 20, up: true },
                CrashTransition { node: a, at_ns: 20, up: false },
            ]
        );
        // Already-taken boundaries never reappear.
        assert!(net.take_crash_transitions(20).is_empty());
        assert_eq!(net.next_crash_transition(), Some(25));
        let rest = net.take_crash_transitions(u64::MAX);
        assert_eq!(
            rest,
            vec![
                CrashTransition { node: b, at_ns: 25, up: true },
                CrashTransition { node: a, at_ns: 30, up: true },
            ]
        );
        assert_eq!(net.next_crash_transition(), None);
        // Re-scheduling after time advanced marks past boundaries taken.
        net.advance_ns(100);
        net.set_crash_windows(b, &[(40, 50), (200, 210)]);
        assert_eq!(net.next_crash_transition(), Some(200));
    }

    #[test]
    fn oversized_frames_are_refused_by_the_link_mtu() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.set_link_mtu(a, b, 64);
        assert_eq!(
            net.send(a, b, vec![0u8; 65]),
            Err(NetError::Oversized { from: a, to: b, len: 65, mtu: 64 })
        );
        // At or under the MTU passes; the setter covers both directions.
        net.send(a, b, vec![0u8; 64]).unwrap();
        assert_eq!(
            net.send(b, a, vec![0u8; 100]),
            Err(NetError::Oversized { from: b, to: a, len: 100, mtu: 64 })
        );
        // MTU 0 lifts the limit again.
        net.set_link_mtu(a, b, 0);
        net.send(a, b, vec![0u8; 4096]).unwrap();
    }

    #[test]
    fn delivery_time_accounts_for_latency_and_bandwidth() {
        // 1000 bytes at 1 MB/s = 1 ms tx; + 1 ms latency = 2 ms.
        let (mut net, a, b) = pair(LinkParams { latency_ns: 1_000_000, bandwidth_bps: 1_000_000 });
        let at = net.send(a, b, vec![0u8; 1000]).unwrap();
        assert_eq!(at, 2_000_000);
        let d = net.step().unwrap();
        assert_eq!(d.at_ns, 2_000_000);
        assert_eq!(net.now_ns(), 2_000_000);
    }

    #[test]
    fn messages_queue_behind_each_other() {
        let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 });
        let t1 = net.send(a, b, vec![0u8; 1000]).unwrap(); // tx 1 ms
        let t2 = net.send(a, b, vec![0u8; 1000]).unwrap(); // queued behind
        assert_eq!(t1, 1_000_000);
        assert_eq!(t2, 2_000_000);
    }

    #[test]
    fn deliveries_are_fifo_per_link() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.send(a, b, vec![1]).unwrap();
        net.send(a, b, vec![2]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![1]);
        assert_eq!(net.step().unwrap().payload, vec![2]);
        assert!(net.step().is_none());
    }

    #[test]
    fn bigger_messages_take_longer() {
        // The Table 1 motivation: a 12× larger (XML) message needs 12× the
        // wire time on the same link.
        let params = LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 };
        let (mut net, a, b) = pair(params);
        let small = net.send(a, b, vec![0u8; 1_000]).unwrap();
        let mut net2 = Network::new();
        let a2 = net2.add_node("a");
        let b2 = net2.add_node("b");
        net2.connect(a2, b2, params);
        let large = net2.send(a2, b2, vec![0u8; 12_000]).unwrap();
        assert_eq!(large, 12 * small);
    }

    #[test]
    fn no_route_and_unknown_node_errors() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        assert_eq!(net.send(a, b, vec![]).unwrap_err(), NetError::NoRoute(a, b));
        let ghost = NodeId(99);
        assert_eq!(net.send(ghost, a, vec![]).unwrap_err(), NetError::UnknownNode(ghost));
        assert_eq!(net.send(a, ghost, vec![]).unwrap_err(), NetError::UnknownNode(ghost));
    }

    #[test]
    fn run_allows_reactive_sends() {
        // b answers every message from a once.
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, b"ping".to_vec()).unwrap();
        let mut log = Vec::new();
        net.run(|net, d| {
            log.push((d.from, d.to, d.payload.clone()));
            if d.to == b {
                net.send(b, a, b"pong".to_vec()).unwrap();
            }
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].2, b"pong");
        assert!(net.is_idle());
    }

    #[test]
    fn recv_drains_inbox_in_order() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.send(a, b, vec![1]).unwrap();
        net.send(a, b, vec![2]).unwrap();
        net.step();
        net.step();
        assert_eq!(net.recv(b).unwrap().payload, vec![1]);
        assert_eq!(net.recv(b).unwrap().payload, vec![2]);
        assert!(net.recv(b).is_none());
        assert!(net.recv(a).is_none());
    }

    #[test]
    fn stats_account_bytes_and_messages() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let reg = Arc::new(Registry::new());
        net.attach_registry(Arc::clone(&reg));
        net.send(a, b, vec![0u8; 10]).unwrap();
        net.send(a, b, vec![0u8; 20]).unwrap();
        assert_eq!(reg.counter("simnet.link.a->b.bytes").get(), 30);
        assert_eq!(reg.counter("simnet.link.a->b.messages").get(), 2);
        assert_eq!(reg.counter("simnet.link.b->a.messages").get(), 0);
        assert_eq!(net.total_bytes(), 30);
    }

    #[test]
    fn links_are_bidirectional_but_independent() {
        let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000 });
        let t_ab = net.send(a, b, vec![0u8; 1000]).unwrap(); // 1 s tx
        let t_ba = net.send(b, a, vec![0u8; 1000]).unwrap(); // not queued behind a→b
        assert_eq!(t_ab, t_ba);
    }

    #[test]
    fn node_names_and_count() {
        let mut net = Network::new();
        let a = net.add_node("alpha");
        let b = net.add_node("beta");
        assert_eq!((a.index(), b.index()), (0, 1), "ids count insertions");
        assert_eq!(a.to_string(), "n0");
        // Names label the per-link rows.
        net.connect(a, b, LinkParams::ideal());
        let reg = Arc::new(Registry::new());
        net.attach_registry(Arc::clone(&reg));
        net.send(a, b, vec![0u8; 3]).unwrap();
        assert_eq!(reg.snapshot().counter("simnet.link.alpha->beta.bytes"), Some(3));
    }

    #[test]
    fn link_down_blocks_new_sends_but_delivers_in_flight() {
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, vec![1]).unwrap();
        net.set_link_up(a, b, false);
        assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::LinkDown(a, b));
        assert_eq!(net.send(b, a, vec![2]).unwrap_err(), NetError::LinkDown(b, a));
        // The message sent before the partition still arrives.
        assert_eq!(net.step().unwrap().payload, vec![1]);
        assert!(net.step().is_none());
        // Healing restores service.
        net.set_link_up(a, b, true);
        net.send(a, b, vec![3]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![3]);
    }

    #[test]
    fn set_link_up_on_missing_link_is_noop() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_link_up(a, b, false);
        assert_eq!(net.send(a, b, vec![]).unwrap_err(), NetError::NoRoute(a, b));
    }

    #[test]
    fn attached_registry_mirrors_traffic_and_virtual_time() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&reg));
        net.send(a, b, vec![0u8; 10]).unwrap();
        net.send(a, b, vec![0u8; 20]).unwrap();
        net.step();
        net.step();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("simnet.bytes"), Some(30));
        assert_eq!(snap.counter("simnet.messages"), Some(2));
        assert_eq!(snap.counter("simnet.link.a->b.bytes"), Some(30));
        assert_eq!(snap.counter("simnet.link.a->b.messages"), Some(2));
        assert_eq!(snap.counter("simnet.link.b->a.bytes"), None, "no reverse traffic");
        // The registry clock follows the simulation.
        assert!(net.now_ns() > 0);
        assert_eq!(snap.at_ns, net.now_ns());
    }

    #[test]
    fn crash_windows_block_sends_and_drop_inflight() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let reg = Arc::new(Registry::new());
        net.attach_registry(Arc::clone(&reg));
        // In flight before the crash: dropped at delivery time, since the
        // process is gone when the message arrives.
        net.send(a, b, vec![1]).unwrap();
        net.set_crash_windows(b, &[(50_000, 10_000_000)]);
        assert!(net.step().is_none(), "delivery inside the window is discarded");
        assert_eq!(reg.counter("simnet.crash.dropped").get(), 1);
        // New sends in either direction are refused while b is down.
        assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(net.send(b, a, vec![3]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(reg.counter("simnet.crash.blocked").get(), 2);
        // Windows are half-open: down at from_ns, back at until_ns.
        assert!(net.node_crashed_at(b, 50_000));
        assert!(!net.node_crashed_at(b, 49_999));
        assert!(!net.node_crashed_at(b, 10_000_000));
        // After the restart the node serves again.
        net.advance_ns(20_000_000);
        net.send(a, b, vec![4]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![4]);
        // Clearing windows forgets the schedule entirely.
        net.set_crash_windows(b, &[(0, u64::MAX)]);
        net.set_crash_windows(b, &[]);
        net.send(a, b, vec![5]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![5]);
    }

    #[test]
    fn crash_accounting_mirrors_to_registry() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&reg));
        net.set_crash_windows(b, &[(0, 1_000)]);
        assert_eq!(net.send(a, b, vec![1]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(reg.snapshot().counter("simnet.crash.blocked"), Some(1));
        // The window is half-open, so at exactly 1_000 ns b is back.
        net.advance_ns(1_000);
        net.send(a, b, vec![2]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![2]);
        assert_eq!(reg.snapshot().counter("simnet.crash.dropped"), Some(0));
    }

    #[test]
    fn payloads_share_the_senders_buffer_end_to_end() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let sent = WireBytes::from(vec![1u8, 2, 3]);
        net.send(a, b, sent.clone()).unwrap();
        let d = net.step().unwrap();
        assert!(d.payload.same_buffer(&sent), "delivery aliases the sent buffer");
        assert!(net.recv(b).unwrap().payload.same_buffer(&sent), "inbox copy is a view clone");
        assert_eq!(d.payload, sent);
    }

    #[test]
    fn take_delivery_keeps_each_destinations_order() {
        let mut net = Network::new();
        let src = net.add_node("src");
        let even = net.add_node("even");
        let odd = net.add_node("odd");
        net.connect(src, even, LinkParams::ideal());
        net.connect(src, odd, LinkParams::ideal());
        for i in 0..6u8 {
            let to = if i % 2 == 0 { even } else { odd };
            net.send(src, to, vec![i]).unwrap();
        }
        // The cutoff is strict: ideal links land at 0, so a cutoff of 0
        // holds every message back.
        assert!(net.take_delivery(Some(0)).is_none());
        let mut by_dest = [Vec::new(), Vec::new(), Vec::new()];
        while let Some(d) = net.take_delivery(Some(1)) {
            assert_eq!(d.from, src);
            by_dest[d.to.index()].push(d.payload[0]);
        }
        assert!(net.is_idle(), "the whole in-flight set is taken");
        assert_eq!(by_dest, [vec![], vec![0, 2, 4], vec![1, 3, 5]]);
        // Inboxes were bypassed, as in run().
        assert!(net.recv(even).is_none());
        assert!(net.recv(odd).is_none());
    }

    #[test]
    fn take_delivery_discards_frames_landing_in_a_crash_window() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let reg = Arc::new(Registry::new());
        net.attach_registry(Arc::clone(&reg));
        net.send(a, b, vec![1]).unwrap();
        net.set_crash_windows(b, &[(0, u64::MAX)]);
        assert!(net.take_delivery(None).is_none());
        assert!(net.is_idle());
        assert_eq!(reg.counter("simnet.crash.dropped").get(), 1);
    }

    #[test]
    fn tx_time_handles_infinite_bandwidth() {
        assert_eq!(LinkParams::ideal().tx_time_ns(1 << 20), 0);
        assert_eq!(
            LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000_000 }.tx_time_ns(1_000),
            1_000
        );
    }
}

#[cfg(test)]
#[path = "tests/partition.rs"]
mod partition_tests;
