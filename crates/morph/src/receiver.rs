//! Receiver-side message processing — the paper's Algorithm 2.
//!
//! A [`MorphReceiver`] owns the reader's registered formats and handlers,
//! the out-of-band meta-data it has learned (wire formats and their
//! retro-transformations), and a decision cache. The first message of an
//! unseen format pays for MaxMatch, transformation compilation (dynamic
//! code generation), and plan construction; every subsequent message of
//! that format replays the cached, fully specialized decision (Algorithm 2
//! lines 6–9).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use ecode::{root_used_fields, FusedProgram, ViewRoutes, VmScratch};
use obs::{
    ActiveSpan, Clock, Counter, FlightRecorder, Histogram, Registry, SpanId, Timer, TraceCtx,
};
use pbio::{
    format_id, parse_header, ConversionPlan, FormatId, FormatRegistry, PlanCache, PlanStore,
    RecordFormat, Tape, Value,
};

use crate::error::{MorphError, Result};
use crate::matching::{max_match, MatchConfig, MaxMatch};
use crate::weighted::{weighted_max_match, WeightProfile, WeightedConfig};
use crate::xform::{fuel_for, CompiledChain, Transformation, TransformationRegistry};

/// A message handler: receives the decoded (and possibly morphed) value,
/// shaped by the reader format it was registered for.
pub type Handler = Box<dyn FnMut(Value) + Send>;

/// The default handler: receives messages no reader format admitted, along
/// with the wire format they were decoded by.
pub type DefaultHandler = Box<dyn FnMut(&Arc<RecordFormat>, Value) + Send>;

/// How a processed message was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to the handler registered for this reader format id.
    Delivered(FormatId),
    /// Delivered to the default handler.
    DeliveredDefault,
    /// No admissible match and no default handler — dropped.
    Rejected,
}

/// Where the time of one [`MorphReceiver::process_timed`] call went, on the
/// receiver's registry clock — the samples the call itself recorded, handed
/// to a caller that attributes them further (echo's per-channel stages)
/// without timing the call a second time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessTiming {
    /// Entry to exit of the call. On a warm replay this is the call's
    /// `morph.process_ns` sample.
    pub total_ns: u64,
    /// The call's `pbio.decode_ns` sample: the projected decode of a warm
    /// morph replay, 0 for every other kind of call.
    pub decode_ns: u64,
    /// True when a cached decision was replayed (`morph.process_ns` got a
    /// sample); false on a cold pass or a failure before any decision.
    pub warm: bool,
}

/// A human-inspectable description of a cached Algorithm 2 decision —
/// what the receiver will do with every further message of one format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Explanation {
    /// Perfect match: decoded straight into this reader format.
    Exact {
        /// The reader format id messages are delivered as.
        target: FormatId,
    },
    /// Near match: specialized plan fills defaults / drops extras.
    NearMatch {
        /// The reader format id messages are delivered as.
        target: FormatId,
    },
    /// Full morph through a compiled transformation chain.
    Morph {
        /// The reader format id messages are delivered as.
        target: FormatId,
        /// Number of compiled transformation steps.
        chain_len: usize,
        /// Whether a final default-fill/extra-removal step — the conversion
        /// plan from the chain's last format to the reader's — runs after
        /// the chain.
        adapted: bool,
    },
    /// Routed to the default handler (decoded in the wire format).
    DefaultHandler,
    /// Dropped: no admissible match.
    Rejected,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Explanation::Exact { target } => write!(f, "exact match -> {target}"),
            Explanation::NearMatch { target } => {
                write!(f, "near match (defaults/removals) -> {target}")
            }
            Explanation::Morph { target, chain_len, adapted } => write!(
                f,
                "morph through {chain_len} transformation step(s){} -> {target}",
                if *adapted { " + adapter" } else { "" }
            ),
            Explanation::DefaultHandler => write!(f, "default handler"),
            Explanation::Rejected => write!(f, "rejected"),
        }
    }
}

/// A chosen (incoming, reader) pair, policy-independent.
struct Selected {
    from: usize,
    to: usize,
    perfect: bool,
}

impl<M: PartialOrd> From<MaxMatch<M>> for Selected {
    fn from(m: MaxMatch<M>) -> Selected {
        Selected { from: m.from, to: m.to, perfect: m.quality.is_perfect() }
    }
}

/// A point-in-time view of receiver activity (exposed for tests, examples,
/// and the evaluation harness).
///
/// Since the observability rework this is a *snapshot* assembled from the
/// receiver's registry-backed counters (see [`MorphReceiver::registry`]),
/// not live storage: the counters of record are `morph.messages`,
/// `morph.decision.hit`, `morph.decision.exact` and friends, catalogued in
/// `OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorphStats {
    /// Total messages processed.
    pub messages: u64,
    /// Messages whose format had a cached decision.
    pub cache_hits: u64,
    /// Decisions resolved as exact (perfect) matches.
    pub exact_matches: u64,
    /// Decisions that required a transformation chain (morphing proper).
    pub morphs: u64,
    /// Decisions resolved by near-match adaptation only (defaults/removal,
    /// no transformation code).
    pub near_matches: u64,
    /// Decisions routed to the default handler.
    pub defaults: u64,
    /// Decisions to reject.
    pub rejects: u64,
    /// Transformation snippets compiled (dynamic code generation events).
    pub compiles: u64,
}

/// The cached, specialized disposition for one wire format.
enum Decision {
    /// Single compiled plan straight from wire bytes to the reader format —
    /// used when no transformation code is needed (perfect or near match).
    Plan { plan: Arc<ConversionPlan>, target: FormatId, exact: bool },
    /// Full morph: the one plan the first message of the format takes and
    /// every later one replays. Boxed to keep the cached-decision enum small;
    /// the indirection is paid once per message.
    Morph(Box<MorphPlan>),
    /// Decode with the wire format and hand to the default handler.
    Default { decode: Arc<ConversionPlan> },
    /// Drop messages of this format.
    Reject,
}

/// A decision cache shared across receivers — the L2 behind each
/// receiver's private (lock-free) L1 decision map.
///
/// Entries are keyed by `(receiver fingerprint, wire format id)`, where the
/// fingerprint digests everything a decision depends on: the reader formats
/// (in registration order), the transformation set, the matching
/// thresholds, and default-handler presence. Two receivers consult the same
/// entry only when they would have computed the same decision, so sharing
/// is safe by construction; a receiver that learns a new transformation
/// moves to a new fingerprint and simply stops seeing the old entries.
///
/// The warm path never touches this cache (L1 hits are plain `HashMap`
/// lookups); only a receiver's *first* message of a format takes the read
/// lock here, and only the one receiver that actually computes the decision
/// takes the write lock. In a fan-out of thousands of identical
/// subscribers, MaxMatch + dynamic code generation then run **once**
/// system-wide instead of once per subscriber.
///
/// Cloning is an `Arc` bump; all clones share the same entries.
#[derive(Clone, Default)]
pub struct DecisionCache {
    inner: Arc<SharedDecisions>,
}

/// The map behind a [`DecisionCache`], keyed by (fingerprint, format id).
type SharedDecisions = RwLock<HashMap<(u64, FormatId), Arc<Decision>>>;

impl DecisionCache {
    /// Creates an empty shared cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    fn get(&self, fingerprint: u64, id: FormatId) -> Option<Arc<Decision>> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&(fingerprint, id))
            .cloned()
    }

    fn insert(&self, fingerprint: u64, id: FormatId, decision: Arc<Decision>) {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((fingerprint, id), decision);
    }

    /// Number of cached decisions across all fingerprints.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached decision.
    pub fn clear(&self) {
        self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

impl std::fmt::Debug for DecisionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionCache").field("decisions", &self.len()).finish()
    }
}

/// What a morph decision executes, built once at decide time: one projected
/// index pass, one composed VM program covering the whole transformation
/// chain, then (if the chain's end is a near match of the reader) the
/// conversion plan from the chain's end to the reader — a single pass
/// `wire bytes → Value(target)` with exactly one VM invocation, no tree of
/// the incoming message and no intermediate `Value` trees between steps.
struct MorphPlan {
    /// The projection of the wire format to the fields the program reads:
    /// it indexes each message for the program to read in place, checking
    /// it as a decode would; the fields it drops are parsed past.
    decode: ConversionPlan,
    /// The whole chain, compiled into one register program.
    program: FusedProgram,
    /// The program's reads of the message, compiled against `decode`.
    routes: ViewRoutes,
    /// Default output records (one per chain step), cloned per message as
    /// the program's writable roots.
    templates: Vec<Value>,
    /// Algorithm 2's default-fill and extra-removal of the chain's output,
    /// when its format is a near match of the reader's: the plan for that
    /// pair from the receiver's plan cache, run by
    /// [`ConversionPlan::convert`].
    adapter: Option<Arc<ConversionPlan>>,
    target: FormatId,
}

/// Pre-fetched handles for the receiver's hot-path metrics (`morph.*` in
/// `OBSERVABILITY.md`). Registry lookups lock; these are fetched once per
/// registry and updated lock-free per message.
struct RxMetrics {
    clock: Arc<dyn Clock>,
    messages: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    exact: Arc<Counter>,
    near: Arc<Counter>,
    morphs: Arc<Counter>,
    defaults: Arc<Counter>,
    rejects: Arc<Counter>,
    compiles: Arc<Counter>,
    shared_hits: Arc<Counter>,
    shared_inserts: Arc<Counter>,
    maxmatch_candidates: Arc<Counter>,
    vm_register_applies: Arc<Counter>,
    batch_copies: Arc<Counter>,
    batch_elems: Arc<Counter>,
    decide_ns: Arc<Histogram>,
    process_ns: Arc<Histogram>,
    compile_ns: Arc<Histogram>,
    maxmatch_ns: Arc<Histogram>,
    /// `pbio.decode_ns`: a warm morph's projected decode, split off the
    /// `process_ns` interval.
    decode_ns: Arc<Histogram>,
}

impl RxMetrics {
    fn new(registry: Arc<Registry>) -> RxMetrics {
        RxMetrics {
            clock: registry.clock(),
            messages: registry.counter("morph.messages"),
            hits: registry.counter("morph.decision.hit"),
            misses: registry.counter("morph.decision.miss"),
            exact: registry.counter("morph.decision.exact"),
            near: registry.counter("morph.decision.near"),
            morphs: registry.counter("morph.decision.morph"),
            defaults: registry.counter("morph.decision.default"),
            rejects: registry.counter("morph.decision.reject"),
            compiles: registry.counter("morph.compile.count"),
            shared_hits: registry.counter("morph.decision.shared_hit"),
            shared_inserts: registry.counter("morph.decision.shared_insert"),
            maxmatch_candidates: registry.counter("morph.maxmatch.candidates"),
            vm_register_applies: registry.counter("morph.vm.register.apply"),
            batch_copies: registry.counter("ecode.batch.copies"),
            batch_elems: registry.counter("ecode.batch.copied_elems"),
            decide_ns: registry.histogram("morph.decide_ns"),
            process_ns: registry.histogram("morph.process_ns"),
            compile_ns: registry.histogram("morph.compile_ns"),
            maxmatch_ns: registry.histogram("morph.maxmatch_ns"),
            decode_ns: registry.histogram("pbio.decode_ns"),
        }
    }

    fn timer(&self, histogram: &Arc<Histogram>) -> Timer {
        Timer::start(Arc::clone(histogram), Arc::clone(&self.clock))
    }
}

/// The morphing receiver (Algorithm 2).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use std::sync::{Arc, Mutex};
/// use morph::MorphReceiver;
/// use pbio::{Encoder, FormatBuilder, Value};
///
/// let fmt = FormatBuilder::record("Msg").int("load").build_arc()?;
/// let got = Arc::new(Mutex::new(Vec::new()));
/// let sink = Arc::clone(&got);
///
/// let mut rx = MorphReceiver::new();
/// rx.register_handler(&fmt, move |v| sink.lock().unwrap().push(v));
///
/// let wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(42)]))?;
/// rx.process(&wire)?;
/// assert_eq!(got.lock().unwrap().len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct MorphReceiver {
    config: MatchConfig,
    /// When set, MaxMatch runs importance-weighted (the paper's §6 future
    /// work) instead of field-count-based.
    weights: Option<(WeightProfile, WeightedConfig)>,
    /// Out-of-band meta-data: wire formats this receiver has learned.
    known: FormatRegistry,
    /// Out-of-band meta-data: retro-transformations keyed by source format.
    xforms: TransformationRegistry,
    /// Reader formats, in registration order.
    readers: Vec<Arc<RecordFormat>>,
    /// One handler per reader format id — a short vector scanned per
    /// delivery: a receiver registers a handful of formats, and a compare
    /// or two is cheaper than hashing the id.
    handlers: Vec<(FormatId, Handler)>,
    default_handler: Option<DefaultHandler>,
    cache: HashMap<FormatId, Arc<Decision>>,
    /// Optional L2: decisions shared with other receivers holding the same
    /// compatibility fingerprint (see [`DecisionCache`]).
    shared: Option<DecisionCache>,
    /// Memoized compatibility fingerprint; recomputed lazily after any
    /// mutation that can change decisions (new reader, new transformation,
    /// threshold change).
    fingerprint: Option<u64>,
    /// Compiled conversion plans, shared across decision-cache rebuilds.
    plans: PlanCache,
    metrics: RxMetrics,
    /// Trace sink for the message currently inside
    /// [`MorphReceiver::process_traced`]; cleared on exit.
    trace: Option<TraceSink>,
    /// The register VM's working memory and the morph program's root
    /// vector, reused message after message; both are left empty by every
    /// exit of a morph, cold or warm, errors included.
    vm: VmScratch,
    roots: Vec<Value>,
    /// The offset tape a morph reads its message through, reused message
    /// after message. It holds offsets only, never a value.
    tape: Tape,
}

/// Where the currently processed message's trace events go.
struct TraceSink {
    rec: Arc<FlightRecorder>,
    ctx: TraceCtx,
}

impl std::fmt::Debug for MorphReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorphReceiver")
            .field("config", &self.config)
            .field("readers", &self.readers.iter().map(|r| r.name()).collect::<Vec<_>>())
            .field("cached_decisions", &self.cache.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MorphReceiver {
    fn default() -> MorphReceiver {
        MorphReceiver::new()
    }
}

impl MorphReceiver {
    /// Creates a receiver with the default [`MatchConfig`], reporting into
    /// a private wall-clock [`Registry`].
    pub fn new() -> MorphReceiver {
        MorphReceiver::with_config(MatchConfig::new())
    }

    /// Creates a receiver with explicit thresholds and a private registry.
    pub fn with_config(config: MatchConfig) -> MorphReceiver {
        MorphReceiver::with_config_and_registry(config, Arc::new(Registry::new()))
    }

    /// Creates a receiver reporting into an external registry (e.g. one on
    /// a simulator's virtual clock, or shared with other components).
    pub fn with_registry(registry: Arc<Registry>) -> MorphReceiver {
        MorphReceiver::with_config_and_registry(MatchConfig::new(), registry)
    }

    /// Creates a receiver with explicit thresholds and registry.
    pub fn with_config_and_registry(config: MatchConfig, registry: Arc<Registry>) -> MorphReceiver {
        MorphReceiver {
            config,
            weights: None,
            known: FormatRegistry::new(),
            xforms: TransformationRegistry::new(),
            readers: Vec::new(),
            handlers: Vec::new(),
            default_handler: None,
            cache: HashMap::new(),
            shared: None,
            fingerprint: None,
            plans: PlanCache::new(Arc::clone(&registry)),
            metrics: RxMetrics::new(registry),
            trace: None,
            vm: VmScratch::default(),
            roots: Vec::new(),
            tape: Tape::default(),
        }
    }

    /// The registry this receiver's `morph.*` / `pbio.plan.*` metrics
    /// report into (names catalogued in `OBSERVABILITY.md`).
    ///
    /// ```
    /// # fn main() -> Result<(), morph::MorphError> {
    /// use morph::MorphReceiver;
    /// use pbio::{Encoder, FormatBuilder, Value};
    ///
    /// let fmt = FormatBuilder::record("Tick").int("n").build_arc()?;
    /// let mut rx = MorphReceiver::new();
    /// rx.register_handler(&fmt, |_| {});
    /// let wire = Encoder::new(&fmt).encode(&Value::Record(vec![1.into()]))?;
    /// rx.process(&wire)?;
    /// rx.process(&wire)?;
    ///
    /// // Algorithm 2: one cold decision, then cache hits only.
    /// let snap = rx.registry().snapshot();
    /// assert_eq!(snap.counter("morph.decision.miss"), Some(1));
    /// assert_eq!(snap.counter("morph.decision.hit"), Some(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn registry(&self) -> &Arc<Registry> {
        self.plans.registry()
    }

    /// Registers a reader format and the handler invoked for (possibly
    /// morphed) messages delivered in that format. Returns the format id.
    pub fn register_handler(
        &mut self,
        format: &Arc<RecordFormat>,
        handler: impl FnMut(Value) + Send + 'static,
    ) -> FormatId {
        let id = self.known.register(Arc::clone(format));
        if !self.readers.iter().any(|r| format_id(r) == id) {
            self.readers.push(Arc::clone(format));
        }
        match self.handlers.iter_mut().find(|(registered, _)| *registered == id) {
            Some((_, h)) => *h = Box::new(handler),
            None => self.handlers.push((id, Box::new(handler))),
        }
        self.cache.clear(); // decisions may change with a new reader format
        self.fingerprint = None;
        id
    }

    /// Registers the default handler for messages no reader format admits.
    pub fn register_default_handler(
        &mut self,
        handler: impl FnMut(&Arc<RecordFormat>, Value) + Send + 'static,
    ) {
        self.default_handler = Some(Box::new(handler));
        self.cache.clear();
        self.fingerprint = None;
    }

    /// Attaches a [`DecisionCache`] shared with other receivers: local
    /// decision-cache misses consult it (counted as
    /// `morph.decision.shared_hit`) before running MaxMatch + compilation,
    /// and freshly computed decisions are published into it
    /// (`morph.decision.shared_insert`). Receivers only ever see entries
    /// computed under their own compatibility fingerprint, so attaching
    /// one cache to heterogeneous receivers is safe.
    ///
    /// Weighted receivers ([`MorphReceiver::set_weight_profile`]) never
    /// consult or populate the shared cache.
    pub fn set_shared_decisions(&mut self, cache: DecisionCache) {
        self.shared = Some(cache);
    }

    /// Replaces the conversion-plan store with a shared one (see
    /// [`pbio::PlanCache::set_store`]): plan compilations are then shared
    /// with every other receiver holding the same store.
    pub fn set_plan_store(&mut self, store: PlanStore) {
        self.plans.set_store(store);
    }

    /// Drops every privately cached decision (the warm L1), modeling a
    /// process restart: the next message of each format pays the cold
    /// lookup again. A [`DecisionCache`] attached via
    /// [`MorphReceiver::set_shared_decisions`] is deliberately **not**
    /// cleared — it models state held outside the crashed process (the
    /// population's shared L2), so a restarted receiver re-warms from it
    /// at shared-hit cost instead of re-running MaxMatch + compilation.
    /// Returns the number of decisions dropped.
    pub fn invalidate_decisions(&mut self) -> usize {
        let dropped = self.cache.len();
        self.cache.clear();
        dropped
    }

    /// The receiver's compatibility fingerprint: a digest of everything a
    /// cached decision depends on. Receivers with equal fingerprints
    /// compute identical decisions, which is the sharing contract of
    /// [`DecisionCache`].
    fn compat_fingerprint(&mut self) -> u64 {
        if let Some(fp) = self.fingerprint {
            return fp;
        }
        // DefaultHasher with fixed keys: deterministic across runs.
        let mut h = DefaultHasher::new();
        for r in &self.readers {
            format_id(r).0.hash(&mut h);
        }
        // The transformation *set* (order-independent): EchoSystem-style
        // deployments distribute metadata identically to every node, so
        // set equality implies decision equality in practice.
        let mut edges: Vec<(u64, u64, u64)> = self
            .xforms
            .iter()
            .map(|t| {
                let mut ch = DefaultHasher::new();
                t.source().hash(&mut ch);
                (t.from_id().0, t.to_id().0, ch.finish())
            })
            .collect();
        edges.sort_unstable();
        edges.hash(&mut h);
        self.config.diff_threshold.hash(&mut h);
        self.config.mismatch_threshold.to_bits().hash(&mut h);
        self.default_handler.is_some().hash(&mut h);
        let fp = h.finish();
        self.fingerprint = Some(fp);
        fp
    }

    /// Learns a wire format (out-of-band meta-data arrival).
    pub fn import_format(&mut self, format: Arc<RecordFormat>) -> FormatId {
        self.known.register(format)
    }

    /// Learns a retro-transformation. Both endpoint formats become known.
    ///
    /// Invalidation is targeted: a new transformation edge can only change
    /// the decision for a wire format whose transformation closure reaches
    /// the edge's source format, so only those cached decisions are
    /// dropped. Warm decisions for unrelated formats survive the import.
    pub fn import_transformation(&mut self, t: Transformation) {
        let new_src = t.from_id();
        self.known.register(Arc::clone(t.from_format()));
        self.known.register(Arc::clone(t.to_format()));
        self.xforms.register(t);
        self.fingerprint = None;
        let known = &self.known;
        let xforms = &self.xforms;
        self.cache.retain(|id, _| match known.lookup(*id) {
            Ok(fm) => !xforms.closure(&fm).iter().any(|r| format_id(&r.format) == new_src),
            // A cached decision whose format is no longer resolvable is
            // stale by definition; drop it.
            Err(_) => false,
        });
    }

    /// Activity counters, assembled from the registry-backed metrics.
    pub fn stats(&self) -> MorphStats {
        let m = &self.metrics;
        MorphStats {
            messages: m.messages.get(),
            cache_hits: m.hits.get(),
            exact_matches: m.exact.get(),
            morphs: m.morphs.get(),
            near_matches: m.near.get(),
            defaults: m.defaults.get(),
            rejects: m.rejects.get(),
            compiles: m.compiles.get(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// Number of distinct wire formats with cached decisions.
    pub fn cached_decisions(&self) -> usize {
        self.cache.len()
    }

    /// Explains the cached decision for a wire format id, if one exists
    /// (i.e., at least one message of that format has been processed since
    /// the last cache invalidation).
    pub fn explain(&self, id: FormatId) -> Option<Explanation> {
        Some(match &**self.cache.get(&id)? {
            Decision::Plan { target, exact: true, .. } => Explanation::Exact { target: *target },
            Decision::Plan { target, exact: false, .. } => {
                Explanation::NearMatch { target: *target }
            }
            Decision::Morph(m) => Explanation::Morph {
                target: m.target,
                chain_len: m.templates.len(),
                adapted: m.adapter.is_some(),
            },
            Decision::Default { .. } => Explanation::DefaultHandler,
            Decision::Reject => Explanation::Rejected,
        })
    }

    /// Switches format matching to the importance-weighted variant: fields
    /// matching heavier patterns dominate admission and ranking decisions
    /// (see [`crate::weighted`]). Clears cached decisions.
    pub fn set_weight_profile(&mut self, profile: WeightProfile, config: WeightedConfig) {
        self.weights = Some((profile, config));
        self.cache.clear();
        self.fingerprint = None;
    }

    /// The paper's MaxMatch under the receiver's active policy: the one
    /// traversal, weighing by field count or by the importance profile.
    /// "Perfect" is structural under both, so zero-weight differences still
    /// route through the adapting plan.
    fn select(&self, set1: &[Arc<RecordFormat>], set2: &[Arc<RecordFormat>]) -> Option<Selected> {
        // Search cost scales with the candidate cross-product (every
        // (incoming, reader) pair is diffed), so that is what we count.
        self.metrics.maxmatch_candidates.add((set1.len() * set2.len()) as u64);
        let _span = self.metrics.timer(&self.metrics.maxmatch_ns);
        match &self.weights {
            None => max_match(set1, set2, &self.config).map(Into::into),
            Some((profile, cfg)) => weighted_max_match(set1, set2, profile, cfg).map(Into::into),
        }
    }

    /// Processes one incoming wire message (Algorithm 2).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::UnknownWireFormat`] when the message's format
    /// id has no out-of-band meta-data, and propagates wire-decoding or
    /// transformation-runtime failures. A *rejection* (no admissible match)
    /// is not an error — it returns [`Delivery::Rejected`].
    pub fn process(&mut self, msg: &[u8]) -> Result<Delivery> {
        self.process_traced(msg, None)
    }

    /// Like [`MorphReceiver::process`], but attributes the work to a causal
    /// trace: every stage of Algorithm 2 this message exercises is recorded
    /// as a span under `ctx` in the registry's attached
    /// [`FlightRecorder`](obs::FlightRecorder).
    ///
    /// A *warm* message (decision cache hit) emits `morph.lookup` tagged
    /// `result=hit`, plus — for morph decisions — one `morph.apply.fused`
    /// span covering the single-pass replay; other warm decisions stay at
    /// the lone lookup span because replaying them *is* the whole warm
    /// path. A *cold* message takes the same plan and additionally records
    /// `morph.decide` (with `morph.maxmatch` / `morph.compile` children)
    /// and `morph.apply` (with per-stage `morph.decode` /
    /// `morph.transform` / `morph.default_fill` children).
    ///
    /// With `ctx == None`, or when no recorder is attached to the
    /// receiver's registry, this is exactly `process`.
    ///
    /// # Errors
    ///
    /// Same contract as [`MorphReceiver::process`].
    pub fn process_traced(&mut self, msg: &[u8], ctx: Option<TraceCtx>) -> Result<Delivery> {
        self.process_timed(msg, ctx).0
    }

    /// [`MorphReceiver::process_traced`], also reporting the call's timing
    /// samples ([`ProcessTiming`]). A warm replay reads the registry clock
    /// at most three times — entry, after the projected decode of a morph,
    /// exit — and every histogram it feeds shares those readings.
    ///
    /// # Errors
    ///
    /// Same contract as [`MorphReceiver::process`].
    pub fn process_timed(
        &mut self,
        msg: &[u8],
        ctx: Option<TraceCtx>,
    ) -> (Result<Delivery>, ProcessTiming) {
        self.trace =
            ctx.and_then(|ctx| self.registry().recorder().map(|rec| TraceSink { rec, ctx }));
        let entered_ns = self.metrics.clock.now_ns();
        let mut timing = ProcessTiming::default();
        let result = self.process_inner(msg, entered_ns, &mut timing);
        self.trace = None;
        if !timing.warm {
            timing.total_ns = self.metrics.clock.now_ns().saturating_sub(entered_ns);
        }
        (result, timing)
    }

    fn process_inner(
        &mut self,
        msg: &[u8],
        entered_ns: u64,
        timing: &mut ProcessTiming,
    ) -> Result<Delivery> {
        self.metrics.messages.inc();
        let header = parse_header(msg).map_err(MorphError::Pbio)?;
        let id = header.format_id;

        // Lines 6–9: cached information fast path. `morph.process_ns`
        // deliberately covers only warm replays, so its distribution is the
        // steady-state per-message cost the paper's Fig. 10 compares against
        // the XML baseline; the cold path is `morph.decide_ns`. The L1 hit
        // is a plain `HashMap` lookup and the decision is replayed under a
        // borrow: no lock, and no reference count for warm receivers on
        // different shards to contend on.
        if let Some((decision, mut applier)) = self.cached(id) {
            applier.metrics.hits.inc();
            let mut lookup = applier.tspan("morph.lookup", None);
            if let Some(s) = lookup.as_mut() {
                s.tag("result", "hit");
            }
            return applier.replay(decision, msg, entered_ns, timing);
        }

        self.metrics.misses.inc();
        let mut lookup = self.tspan("morph.lookup", None);
        if let Some(s) = lookup.as_mut() {
            s.tag("result", "miss");
        }

        // L2: another receiver with the same compatibility fingerprint may
        // already have paid for this decision. Weighted matching is excluded
        // (profiles are per-receiver and not part of the fingerprint).
        if self.shared.is_some() && self.weights.is_none() {
            let fp = self.compat_fingerprint();
            let cached = self.shared.as_ref().and_then(|s| s.get(fp, id));
            if let Some(decision) = cached {
                if let Some(s) = lookup.as_mut() {
                    s.tag("source", "shared");
                }
                drop(lookup);
                self.metrics.shared_hits.inc();
                self.cache.insert(id, decision);
                let (decision, mut applier) = self.cached(id).expect("inserted above");
                // The sample starts here, as the L2 lookup is cold-path work.
                let started_ns = applier.metrics.clock.now_ns();
                return applier.replay(decision, msg, started_ns, timing);
            }
        }
        drop(lookup);

        let decision = {
            let _span = self.metrics.timer(&self.metrics.decide_ns);
            Arc::new(self.decide(id)?)
        };
        self.cache.insert(id, Arc::clone(&decision));
        if self.weights.is_none() {
            if let Some(shared) = self.shared.clone() {
                let fp = self.compat_fingerprint();
                shared.insert(fp, id, Arc::clone(&decision));
                self.metrics.shared_inserts.inc();
            }
        }
        self.split().1.apply(&decision, msg, None, &mut 0)
    }

    /// The cached decision for `id` next to everything applying it touches:
    /// the receiver split into disjoint borrows, so a warm hit runs under a
    /// reference into the cache instead of its own `Arc` clone.
    fn cached(&mut self, id: FormatId) -> Option<(&Decision, Applier<'_>)> {
        let (cache, applier) = self.split();
        Some((&**cache.get(&id)?, applier))
    }

    fn split(&mut self) -> (&HashMap<FormatId, Arc<Decision>>, Applier<'_>) {
        let MorphReceiver {
            cache, metrics, trace, handlers, default_handler, vm, roots, tape, ..
        } = self;
        let trace = trace.as_ref();
        let applier = Applier {
            metrics,
            trace,
            handlers,
            default_handler,
            vm,
            roots,
            tape,
            apply_span: None,
        };
        (cache, applier)
    }

    /// Starts a span under the in-flight trace, if one is attached.
    /// `parent = None` nests directly under the caller-provided context.
    fn tspan(&self, name: &str, parent: Option<SpanId>) -> Option<ActiveSpan> {
        span_in(self.trace.as_ref(), name, parent)
    }

    /// Runs the slow path of Algorithm 2 (lines 11–27) to produce a
    /// cacheable decision for format `id`.
    fn decide(&mut self, id: FormatId) -> Result<Decision> {
        let mut decide_span = self.tspan("morph.decide", None);
        let dparent = decide_span.as_ref().map(|s| s.id());
        let fm = self.known.lookup(id).map_err(|_| MorphError::UnknownWireFormat(id))?;

        // Line 4: Fr = reader formats with the same name as fm.
        let readers: Vec<Arc<RecordFormat>> =
            self.readers.iter().filter(|r| r.name() == fm.name()).map(Arc::clone).collect();

        // Line 11: MaxMatch(fm, Fr) — perfect match short-circuit.
        let mm_span = self.tspan("morph.maxmatch", dparent);
        if let Some(m) = self.select(std::slice::from_ref(&fm), &readers) {
            if m.perfect {
                if let Some(s) = mm_span {
                    s.finish();
                }
                if let Some(s) = decide_span.as_mut() {
                    s.tag("outcome", "exact");
                }
                self.metrics.exact.inc();
                let target = &readers[m.to];
                return Ok(Decision::Plan {
                    plan: self.plans.get_or_compile(&fm, target)?,
                    target: format_id(target),
                    exact: true,
                });
            }
        }

        // Line 5/16: Ft = formats reachable through transformations, incl. fm.
        let reachable = self.xforms.closure(&fm);
        let candidates: Vec<Arc<RecordFormat>> =
            reachable.iter().map(|r| Arc::clone(&r.format)).collect();

        // Line 16: MaxMatch(Ft, Fr).
        let selected = self.select(&candidates, &readers);
        if let Some(mut s) = mm_span {
            s.tag("candidates", &candidates.len().to_string());
            s.finish();
        }
        let Some(m) = selected else {
            // Lines 17–19: reject (or default-deliver when a default handler
            // exists — §3.2's "default handler (if any)").
            if self.default_handler.is_some() {
                if let Some(s) = decide_span.as_mut() {
                    s.tag("outcome", "default");
                }
                self.metrics.defaults.inc();
                return Ok(Decision::Default { decode: self.plans.get_or_compile(&fm, &fm)? });
            }
            if let Some(s) = decide_span.as_mut() {
                s.tag("outcome", "reject");
            }
            self.metrics.rejects.inc();
            return Ok(Decision::Reject);
        };

        let chosen = &reachable[m.from];
        let target = &readers[m.to];
        let target_id = format_id(target);

        if chosen.chain.is_empty() {
            // No transformation code needed: one specialized wire→target
            // plan covers decode + default-fill + extra-removal.
            if let Some(s) = decide_span.as_mut() {
                s.tag("outcome", "near");
            }
            self.metrics.near.inc();
            return Ok(Decision::Plan {
                plan: self.plans.get_or_compile(&fm, target)?,
                target: target_id,
                exact: false,
            });
        }

        // Lines 21–24: dynamic code generation, once, cached. The compiled
        // steps live only until they are fused: the decision keeps the one
        // program, and a chain that cannot be fused (255 steps or more — the
        // receiver's limit) fails the decision like a step that does not
        // compile.
        let compile_tspan = self.tspan("morph.compile", dparent);
        let compile_span = self.metrics.timer(&self.metrics.compile_ns);
        let chain = CompiledChain::compile(&chosen.chain)?;
        compile_span.stop();
        if let Some(mut s) = compile_tspan {
            s.tag("steps", &chain.steps().len().to_string());
            s.finish();
        }
        let program = chain.fuse()?;
        // Decode only what the chain reads.
        let used = root_used_fields(program.rcode(), 0, fm.fields().len());
        let decode = self.plans.project(&fm, &used)?;
        let routes = program.routes(&decode);
        // Lines 28–30: a near match of the reader is default-filled by the
        // plan near matches of the wire format take, shared the same way.
        let adapter =
            if m.perfect { None } else { Some(self.plans.get_or_compile(&chosen.format, target)?) };
        if let Some(s) = decide_span.as_mut() {
            s.tag("outcome", "morph");
        }
        self.metrics.compiles.add(chain.steps().len() as u64);
        self.metrics.morphs.inc();
        let templates =
            program.bindings()[1..].iter().map(|b| Value::default_record(&b.format)).collect();
        Ok(Decision::Morph(Box::new(MorphPlan {
            decode,
            program,
            routes,
            templates,
            adapter,
            target: target_id,
        })))
    }
}

/// [`MorphReceiver::tspan`] over a borrowed sink.
fn span_in(trace: Option<&TraceSink>, name: &str, parent: Option<SpanId>) -> Option<ActiveSpan> {
    trace.map(|t| t.rec.start(t.ctx.trace, parent.or(t.ctx.parent), name))
}

/// [`Applier::stage`] over borrowed parts.
fn stage_in(
    trace: Option<&TraceSink>,
    apply: Option<&ActiveSpan>,
    name: &str,
) -> Option<ActiveSpan> {
    apply.and_then(|a| span_in(trace, name, Some(a.id())))
}

/// What applying a decision touches — metrics, the in-flight trace, the
/// handlers and the VM's working memory — borrowed apart from the decision
/// cache ([`MorphReceiver::cached`]). Handlers must not recursively call
/// `process` (they receive values, not the receiver).
struct Applier<'a> {
    metrics: &'a RxMetrics,
    trace: Option<&'a TraceSink>,
    handlers: &'a mut Vec<(FormatId, Handler)>,
    default_handler: &'a mut Option<DefaultHandler>,
    vm: &'a mut VmScratch,
    roots: &'a mut Vec<Value>,
    tape: &'a mut Tape,
    /// The cold pass's `morph.apply` span, open while its stages run.
    apply_span: Option<ActiveSpan>,
}

impl Applier<'_> {
    fn tspan(&self, name: &str, parent: Option<SpanId>) -> Option<ActiveSpan> {
        span_in(self.trace, name, parent)
    }

    /// A stage span of the cold pass, under its `morph.apply` span; `None`
    /// on a warm replay (which has none) and when no trace is attached.
    fn stage(&self, name: &str) -> Option<ActiveSpan> {
        stage_in(self.trace, self.apply_span.as_ref(), name)
    }

    /// [`Applier::stage`] for a zero-duration event.
    fn stage_instant(&self, name: &str) {
        if let (Some(t), Some(a)) = (self.trace, &self.apply_span) {
            t.rec.instant(t.ctx.trace, Some(a.id()), name, &[]);
        }
    }

    /// `plan` over `msg`, as the `morph.decode` stage.
    fn decode(&self, plan: &ConversionPlan, msg: &[u8]) -> pbio::Result<Value> {
        let _s = self.stage("morph.decode");
        plan.execute(msg)
    }

    /// A warm replay, timed from `started_ns`: whatever the outcome, one
    /// `morph.process_ns` sample from a single closing clock read.
    fn replay(
        &mut self,
        decision: &Decision,
        msg: &[u8],
        started_ns: u64,
        timing: &mut ProcessTiming,
    ) -> Result<Delivery> {
        let result = self.apply(decision, msg, Some(started_ns), &mut timing.decode_ns);
        let elapsed_ns = self.metrics.clock.now_ns().saturating_sub(started_ns);
        self.metrics.process_ns.record(elapsed_ns);
        (timing.total_ns, timing.warm) = (elapsed_ns, true);
        result
    }

    /// Applies `decision` to `msg`. `warm_since` is the start of a warm
    /// replay's timing sample, `None` on the cold pass. Only the cold pass
    /// traces its stages: a warm replay is a single cached step, so beyond
    /// `morph.lookup` it records at most the one `morph.apply.fused` span
    /// of a morph, whose projected decode reports its `pbio.decode_ns`
    /// sample through `decode_ns`.
    fn apply(
        &mut self,
        decision: &Decision,
        msg: &[u8],
        warm_since: Option<u64>,
        decode_ns: &mut u64,
    ) -> Result<Delivery> {
        self.apply_span = if warm_since.is_none() { self.tspan("morph.apply", None) } else { None };
        match decision {
            Decision::Plan { plan, target, .. } => {
                let value = self.decode(plan, msg)?;
                self.invoke(*target, value);
                Ok(Delivery::Delivered(*target))
            }
            Decision::Morph(m) => {
                let mut replay_span =
                    if warm_since.is_some() { self.tspan("morph.apply.fused", None) } else { None };
                if let Some(s) = replay_span.as_mut() {
                    s.tag("steps", &m.templates.len().to_string());
                }
                let value = self.morph(m, msg, warm_since, decode_ns);
                // Emptied on every exit: a failed message's values do not
                // outlive it here.
                self.roots.clear();
                self.invoke(m.target, value?);
                Ok(Delivery::Delivered(m.target))
            }
            Decision::Default { decode } => {
                let value = self.decode(decode, msg)?;
                self.stage_instant("morph.default_delivery");
                if let Some(h) = self.default_handler.as_mut() {
                    h(decode.wire_format(), value);
                }
                Ok(Delivery::DeliveredDefault)
            }
            Decision::Reject => {
                self.stage_instant("morph.reject");
                Ok(Delivery::Rejected)
            }
        }
    }

    /// The single pass of a morph decision, `wire bytes → Value(target)`, in
    /// the receiver's reused root vector, tape and VM scratch: the projected
    /// index pass, one run of the whole chain reading the message in place
    /// under the message's instruction budget, then the adapting plan if
    /// the decision has one. The first message of a format runs it under the
    /// cold pass's stage spans; on a warm replay the index pass's share
    /// (timed from `warm_since`) is read off the clock once, recorded as
    /// `pbio.decode_ns` and reported through `decode_ns`.
    fn morph(
        &mut self,
        m: &MorphPlan,
        msg: &[u8],
        warm_since: Option<u64>,
        decode_ns: &mut u64,
    ) -> Result<Value> {
        let view = {
            let _s = self.stage("morph.decode");
            m.decode.index(msg, self.tape)?
        };
        if let Some(since_ns) = warm_since {
            *decode_ns = self.metrics.clock.now_ns().saturating_sub(since_ns);
            self.metrics.decode_ns.record(*decode_ns);
        }
        self.roots.clear();
        self.roots.extend(m.templates.iter().cloned());
        let stats = {
            let mut s = stage_in(self.trace, self.apply_span.as_ref(), "morph.transform");
            if let Some(s) = s.as_mut() {
                s.tag("steps", &m.templates.len().to_string());
            }
            m.program.run_view(&view, &m.routes, self.roots, fuel_for(msg.len()), self.vm)?
        };
        self.metrics.vm_register_applies.inc();
        self.metrics.batch_copies.add(stats.batch_copies);
        self.metrics.batch_elems.add(stats.batch_elems);
        let value = self.roots.pop().expect("fused program keeps its roots");
        Ok(match &m.adapter {
            Some(plan) => {
                let _s = self.stage("morph.default_fill");
                plan.convert(&value)
            }
            None => value,
        })
    }

    fn invoke(&mut self, target: FormatId, value: Value) {
        if let Some((_, h)) = self.handlers.iter_mut().find(|(id, _)| *id == target) {
            h(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::{BasicType, Encoder, FieldType, FormatBuilder};
    use std::sync::{Arc as SArc, Mutex};

    type Sink = SArc<Mutex<Vec<Value>>>;

    fn sink() -> (Sink, impl FnMut(Value) + Send + 'static) {
        let s: Sink = SArc::new(Mutex::new(Vec::new()));
        let c = SArc::clone(&s);
        (s, move |v| c.lock().unwrap().push(v))
    }

    fn member(extra: bool) -> Arc<RecordFormat> {
        let b = FormatBuilder::record("Member").string("info").int("ID");
        let b = if extra { b.int("is_source").int("is_sink") } else { b };
        b.build_arc().unwrap()
    }

    fn v2() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(true), "member_count")
            .build_arc()
            .unwrap()
    }

    fn v1() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(false), "member_count")
            .int("src_count")
            .var_array_of("src_list", member(false), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member(false), "sink_count")
            .build_arc()
            .unwrap()
    }

    /// The paper's Fig. 5 transformation source.
    pub(crate) const FIG5: &str = r#"
        int i;
        int sink_count = 0;
        int src_count = 0;
        old.member_count = new.member_count;
        for (i = 0; i < new.member_count; i++) {
            old.member_list[i].info = new.member_list[i].info;
            old.member_list[i].ID = new.member_list[i].ID;
            if (new.member_list[i].is_source) {
                old.src_list[src_count].info = new.member_list[i].info;
                old.src_list[src_count].ID = new.member_list[i].ID;
                src_count++;
            }
            if (new.member_list[i].is_sink) {
                old.sink_list[sink_count].info = new.member_list[i].info;
                old.sink_list[sink_count].ID = new.member_list[i].ID;
                sink_count++;
            }
        }
        old.src_count = src_count;
        old.sink_count = sink_count;
    "#;

    fn v2_message(n: usize) -> Vec<u8> {
        let members: Vec<Value> = (0..n)
            .map(|i| {
                Value::Record(vec![
                    Value::str(format!("host-{i}:500{i}")),
                    Value::Int(i as i64),
                    Value::Int(i64::from(i % 2 == 0)),
                    Value::Int(1),
                ])
            })
            .collect();
        let v = Value::Record(vec![Value::Int(n as i64), Value::Array(members)]);
        Encoder::new(&v2()).encode(&v).unwrap()
    }

    #[test]
    fn exact_match_delivers() {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        let id = rx.register_handler(&v2(), h);
        let d = rx.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id));
        assert_eq!(got.lock().unwrap().len(), 1);
        assert_eq!(rx.stats().exact_matches, 1);
        assert_eq!(rx.stats().morphs, 0);
    }

    #[test]
    fn morphing_delivers_old_format_to_old_client() {
        // The paper's headline scenario: a v1-only client receives a v2
        // message via the writer-supplied Fig. 5 transformation.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        let id1 = rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        let d = rx.process(&v2_message(3)).unwrap();
        assert_eq!(d, Delivery::Delivered(id1));
        let vals = got.lock().unwrap();
        let out = &vals[0];
        out.check(&v1()).unwrap();
        assert_eq!(out.field(&v1(), "member_count"), Some(&Value::Int(3)));
        assert_eq!(out.field(&v1(), "src_count"), Some(&Value::Int(2))); // members 0, 2
        assert_eq!(out.field(&v1(), "sink_count"), Some(&Value::Int(3)));
        drop(vals);
        assert_eq!(rx.stats().morphs, 1);
        assert_eq!(rx.stats().compiles, 1);
    }

    #[test]
    fn decisions_are_cached() {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        for _ in 0..5 {
            rx.process(&v2_message(2)).unwrap();
        }
        assert_eq!(got.lock().unwrap().len(), 5);
        let s = rx.stats();
        assert_eq!(s.messages, 5);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.compiles, 1, "DCG happens once, then the cache serves");
    }

    #[test]
    fn unknown_format_errors_without_metadata() {
        let mut rx = MorphReceiver::new();
        let (_, h) = sink();
        rx.register_handler(&v1(), h);
        // No import of v2, no transformation: the wire id is unknown.
        let err = rx.process(&v2_message(1)).unwrap_err();
        assert!(matches!(err, MorphError::UnknownWireFormat(_)));
    }

    #[test]
    fn near_match_fills_defaults_without_code() {
        // Incoming has one extra field and misses one — no transformation
        // registered, but thresholds admit the pair.
        let incoming =
            FormatBuilder::record("Load").int("cpu").int("net").int("extra").build_arc().unwrap();
        let reader =
            FormatBuilder::record("Load").int("cpu").int("net").int("mem").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();
        let d = rx.process(&wire).unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(
            got.lock().unwrap()[0],
            Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(0)])
        );
        assert_eq!(rx.stats().near_matches, 1);
    }

    #[test]
    fn exact_config_rejects_near_match() {
        let incoming = FormatBuilder::record("Load").int("cpu").int("x").build_arc().unwrap();
        let reader = FormatBuilder::record("Load").int("cpu").int("y").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::with_config(MatchConfig::exact());
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got.lock().unwrap().is_empty());
        assert_eq!(rx.stats().rejects, 1);
        // Rejection is cached too.
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert_eq!(rx.stats().cache_hits, 1);
    }

    /// MaxMatch shares the plan's relation: an array that changes length
    /// discipline is a field the plan will default, so the pair is a near
    /// match — never "exact" while the handler gets zeros for sent values.
    #[test]
    fn a_length_discipline_mismatch_is_a_near_match_not_an_exact_one() {
        let int = || FieldType::Basic(BasicType::Int(pbio::Width::W4));
        let wire_fmt = FormatBuilder::record("Samples")
            .int("n")
            .var_array_basic("vals", BasicType::Int(pbio::Width::W4), "n")
            .build_arc()
            .unwrap();
        let reader = FormatBuilder::record("Samples")
            .int("n")
            .fixed_array("vals", int(), 4)
            .build_arc()
            .unwrap();
        let sent: Vec<Value> = (1..=4).map(Value::Int).collect();
        let wire = Encoder::new(&wire_fmt)
            .encode(&Value::Record(vec![Value::Int(4), Value::Array(sent)]))
            .unwrap();
        let wire_id = format_id(&wire_fmt);

        // "Admit only perfect matches" does not admit it.
        let (got, h) = sink();
        let mut rx = MorphReceiver::with_config(MatchConfig::exact());
        rx.register_handler(&reader, h);
        rx.import_format(wire_fmt.clone());
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert_eq!(rx.explain(wire_id), Some(Explanation::Rejected));
        assert!(got.lock().unwrap().is_empty());
        assert_eq!((rx.stats().exact_matches, rx.stats().rejects), (0, 1));

        // The default thresholds do (one field of two defaulted: Mr 0.5),
        // and say what it is.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        let reader_id = rx.register_handler(&reader, h);
        rx.import_format(wire_fmt);
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Delivered(reader_id));
        assert_eq!(rx.explain(wire_id), Some(Explanation::NearMatch { target: reader_id }));
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.near"), Some(1));
        assert_eq!(snap.counter("morph.decision.exact"), Some(0));
        assert_eq!(
            got.lock().unwrap()[0],
            Value::Record(vec![Value::Int(4), Value::Array(vec![Value::Int(0); 4])])
        );
    }

    #[test]
    fn default_handler_catches_unmatched() {
        let incoming = FormatBuilder::record("Other").int("z").build_arc().unwrap();
        let reader = FormatBuilder::record("Load").int("cpu").build_arc().unwrap();
        let caught: SArc<Mutex<Vec<String>>> = SArc::new(Mutex::new(Vec::new()));
        let c = SArc::clone(&caught);
        let mut rx = MorphReceiver::new();
        let (_, h) = sink();
        rx.register_handler(&reader, h);
        rx.register_default_handler(move |fmt, _v| c.lock().unwrap().push(fmt.name().into()));
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming).encode(&Value::Record(vec![Value::Int(9)])).unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::DeliveredDefault);
        assert_eq!(caught.lock().unwrap().as_slice(), ["Other"]);
    }

    #[test]
    fn name_must_match_for_reader_set() {
        // Same shape, different record name: Fr is empty (line 4 filters by
        // name), so the message falls through to default/reject.
        let incoming = FormatBuilder::record("A").int("x").build_arc().unwrap();
        let reader = FormatBuilder::record("B").int("x").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got.lock().unwrap().is_empty());
    }

    #[test]
    fn two_step_chain_reaches_oldest_reader() {
        let r2 = FormatBuilder::record("M").int("a").int("b").int("c").build_arc().unwrap();
        let r1 = FormatBuilder::record("M").int("a").int("b").build_arc().unwrap();
        let r0 = FormatBuilder::record("M").int("total").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&r0, h);
        rx.import_transformation(Transformation::new(
            r2.clone(),
            r1.clone(),
            "old.a = new.a; old.b = new.b + new.c;",
        ));
        rx.import_transformation(Transformation::new(r1, r0.clone(), "old.total = new.a + new.b;"));
        let wire = Encoder::new(&r2)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();
        let d = rx.process(&wire).unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(6)]));
        assert_eq!(rx.stats().compiles, 2);
    }

    #[test]
    fn newer_reader_preferred_over_morph() {
        // A reader that understands v2 directly must win over the v1 +
        // transformation route (perfect match short-circuit, line 12).
        let (got2, h2) = sink();
        let (got1, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h1);
        let id2 = rx.register_handler(&v2(), h2);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        let d = rx.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        assert_eq!(got2.lock().unwrap().len(), 1);
        assert!(got1.lock().unwrap().is_empty());
    }

    #[test]
    fn registering_new_reader_invalidates_cache() {
        let (got1, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h1);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        rx.process(&v2_message(1)).unwrap();
        assert_eq!(rx.cached_decisions(), 1);
        // A v2-capable reader arrives; the next v2 message must go to it.
        let (got2, h2) = sink();
        let id2 = rx.register_handler(&v2(), h2);
        assert_eq!(rx.cached_decisions(), 0);
        let d = rx.process(&v2_message(1)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        assert_eq!(got1.lock().unwrap().len(), 1);
        assert_eq!(got2.lock().unwrap().len(), 1);
    }

    #[test]
    fn weighted_policy_changes_admission() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        // The incoming format is missing the reader's critical field; only
        // unimportant fields match.
        let incoming = FormatBuilder::record("Load")
            .int("debug_a")
            .int("debug_b")
            .int("debug_c")
            .build_arc()
            .unwrap();
        let reader = FormatBuilder::record("Load")
            .int("price")
            .int("debug_a")
            .int("debug_b")
            .int("debug_c")
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();

        // Unweighted, permissive thresholds: 1 missing field out of 4 -> Mr
        // 0.25, admitted.
        let (got, h) = sink();
        let mut rx = MorphReceiver::with_config(crate::matching::MatchConfig {
            diff_threshold: 8,
            mismatch_threshold: 0.3,
        });
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap().len(), 1);

        // Weighted: price carries almost all the importance, so the same
        // message is now inadmissible.
        let (got2, h2) = sink();
        let mut rx2 = MorphReceiver::new();
        rx2.register_handler(&reader, h2);
        rx2.import_format(incoming.clone());
        rx2.set_weight_profile(
            WeightProfile::new().weight("price", 100.0).weight("debug_*", 0.1),
            WeightedConfig { diff_threshold: 8.0, mismatch_threshold: 0.3 },
        );
        assert_eq!(rx2.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got2.lock().unwrap().is_empty());
    }

    #[test]
    fn weighted_policy_still_short_circuits_perfect_matches() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let fmt = FormatBuilder::record("M").int("a").int("b").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&fmt, h);
        rx.set_weight_profile(
            WeightProfile::new().weight("a", 5.0),
            WeightedConfig { diff_threshold: 0.0, mismatch_threshold: 0.0 },
        );
        let wire =
            Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(rx.stats().exact_matches, 1);
        drop(got);
    }

    #[test]
    fn setting_weights_invalidates_cache() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let incoming = FormatBuilder::record("M").int("junk").int("keep").build_arc().unwrap();
        let reader = FormatBuilder::record("M").int("keep").int("vital").build_arc().unwrap();
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        let (_, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming);
        // Default policy admits (Mr = 0.5 at the default threshold).
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(rx.cached_decisions(), 1);
        // Tight weighted policy: vital dominates -> reject from now on.
        rx.set_weight_profile(
            WeightProfile::new().weight("vital", 50.0),
            WeightedConfig { diff_threshold: 10.0, mismatch_threshold: 0.2 },
        );
        assert_eq!(rx.cached_decisions(), 0);
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
    }

    #[test]
    fn explain_reports_every_decision_kind() {
        use crate::receiver::Explanation;
        let (_, h) = sink();
        let mut rx = MorphReceiver::new();
        let v1_id = rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        let v2_id = pbio::format_id(&v2());
        assert!(rx.explain(v2_id).is_none(), "nothing cached yet");

        rx.process(&v2_message(1)).unwrap();
        let e = rx.explain(v2_id).unwrap();
        assert_eq!(e, Explanation::Morph { target: v1_id, chain_len: 1, adapted: false });
        assert!(e.to_string().contains("morph through 1 transformation"));

        // Exact decision for v1 messages.
        let wire = Encoder::new(&v1()).encode(&crate::receiver::tests::v1_value_of(&[])).unwrap();
        rx.process(&wire).unwrap();
        assert_eq!(
            rx.explain(pbio::format_id(&v1())).unwrap(),
            Explanation::Exact { target: v1_id }
        );

        // Rejection is explainable too.
        let stranger = FormatBuilder::record("Other").int("z").build_arc().unwrap();
        rx.import_format(stranger.clone());
        let wire = Encoder::new(&stranger).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        rx.process(&wire).unwrap();
        assert_eq!(rx.explain(pbio::format_id(&stranger)).unwrap(), Explanation::Rejected);
        assert_eq!(Explanation::Rejected.to_string(), "rejected");
        assert_eq!(Explanation::DefaultHandler.to_string(), "default handler");
    }

    /// Helper building an empty v1 response value for the explain test.
    pub(crate) fn v1_value_of(_: &[()]) -> Value {
        Value::Record(vec![
            Value::Int(0),
            Value::Array(vec![]),
            Value::Int(0),
            Value::Array(vec![]),
            Value::Int(0),
            Value::Array(vec![]),
        ])
    }

    #[test]
    fn stats_start_zeroed() {
        let rx = MorphReceiver::new();
        assert_eq!(rx.stats(), MorphStats::default());
        assert_eq!(rx.cached_decisions(), 0);
        assert!(!format!("{rx:?}").is_empty());
    }

    #[test]
    fn warm_morph_is_one_fused_vm_pass_with_no_intermediates() {
        // One plan, one count: the first message of a format and every
        // later one are each exactly one VM pass over the whole chain —
        // asserted through counters rather than timing.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        rx.process(&v2_message(3)).unwrap(); // cold: decides, caches, runs the plan
        for _ in 0..4 {
            rx.process(&v2_message(3)).unwrap(); // warm: replays it
        }
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.vm.register.apply"), Some(5), "cold + 4 warm");
        assert_eq!(snap.counter("morph.compile.count"), Some(1));
        // The decision compiled one plan — the projected decode it runs.
        assert_eq!(snap.counter("pbio.plan.miss"), Some(1));
        assert_eq!(snap.histogram("pbio.plan.compile_ns").unwrap().count, 1);
        // Each warm replay books its decode under `pbio.decode_ns` (the cold
        // pass does not), as the leading part of its own interval.
        let decode = snap.histogram("pbio.decode_ns").unwrap();
        let process = snap.histogram("morph.process_ns").unwrap();
        assert_eq!((decode.count, process.count), (4, 4));
        assert!(decode.sum <= process.sum, "decode {} > process {}", decode.sum, process.sum);

        // The first delivery equals every later one, and the oracle's: the
        // tree-walker over the full decode.
        let vals = got.lock().unwrap();
        assert_eq!(vals.len(), 5);
        assert!(vals[1..].iter().all(|v| v == &vals[0]));
        let full = ConversionPlan::identity(&v2()).unwrap().execute(&v2_message(3)).unwrap();
        let oracle = Transformation::new(v2(), v1(), FIG5).compile().unwrap().apply_interp(&full);
        assert_eq!(vals[0], oracle.unwrap());
        vals[4].check(&v1()).unwrap();
        assert_eq!(vals[4].field(&v1(), "src_count"), Some(&Value::Int(2)));
    }

    /// A clock that counts how often it is read (and never repeats itself).
    #[derive(Debug, Default)]
    struct CountingClock {
        reads: std::sync::atomic::AtomicU64,
    }

    impl Clock for CountingClock {
        fn now_ns(&self) -> u64 {
            self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn a_warm_replay_reads_the_clock_at_most_three_times() {
        let clock = SArc::new(CountingClock::default());
        let reads = |clock: &CountingClock| clock.reads.load(std::sync::atomic::Ordering::Relaxed);
        let registry = Arc::new(Registry::with_clock(SArc::clone(&clock) as Arc<dyn Clock>));
        let mut rx = MorphReceiver::with_registry(registry);
        rx.register_handler(&v1(), |_| {});
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        let v1_message = Encoder::new(&v1()).encode(&Value::default_record(&v1())).unwrap();
        rx.process(&v2_message(3)).unwrap(); // cold: a fused morph decision
        rx.process(&v1_message).unwrap(); // cold: an exact-match plan

        // Fused morph: entry, end of the projected decode, exit — shared by
        // morph.process_ns and pbio.decode_ns.
        let before = reads(&clock);
        let (result, timing) = rx.process_timed(&v2_message(3), None);
        result.unwrap();
        assert_eq!(reads(&clock) - before, 3);
        // The counting clock ticks once per read: the samples are the gaps.
        assert_eq!(timing, ProcessTiming { total_ns: 2, decode_ns: 1, warm: true });
        // A plan replay has no decode to split off.
        let before = reads(&clock);
        let (result, timing) = rx.process_timed(&v1_message, None);
        result.unwrap();
        assert_eq!(reads(&clock) - before, 2);
        assert_eq!(timing, ProcessTiming { total_ns: 1, decode_ns: 0, warm: true });

        // Each histogram still got its one sample per replay.
        let snap = rx.registry().snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count);
        assert_eq!(count("morph.process_ns"), Some(2));
        assert_eq!(count("pbio.decode_ns"), Some(1));
    }

    /// A morph runs in root and register storage the receiver keeps across
    /// messages. A message that fails inside the VM — the first of its format
    /// or a later one — must leave none of itself there: the next message
    /// delivers what it delivers to a receiver that never saw the bad one.
    #[test]
    fn a_failed_warm_replay_leaves_nothing_in_the_reused_scratch() {
        let item = FormatBuilder::record("Item").string("tag").int("v").build_arc().unwrap();
        let src = FormatBuilder::record("Pick")
            .int("n")
            .var_array_of("items", item, "n")
            .int("at")
            .build_arc()
            .unwrap();
        let dst = FormatBuilder::record("Pick").string("tag").int("total").build_arc().unwrap();
        let code = "int i; int total = 0; \
            for (i = 0; i < new.n; i++) { total = total + new.items[i].v; } \
            old.total = total; old.tag = new.items[new.at].tag;";
        let message = |at: i64| {
            let items = (0..4)
                .map(|i| Value::Record(vec![Value::str(format!("tag-{i}")), Value::Int(10 * i)]))
                .collect();
            let v = Value::Record(vec![Value::Int(4), Value::Array(items), Value::Int(at)]);
            Encoder::new(&src).encode(&v).unwrap()
        };
        let subscriber = || {
            let (got, h) = sink();
            let mut rx = MorphReceiver::new();
            rx.register_handler(&dst, h);
            rx.import_transformation(Transformation::new(src.clone(), dst.clone(), code));
            (got, rx)
        };
        let out_of_bounds = |rx: &mut MorphReceiver| {
            let err = rx.process(&message(7)).unwrap_err();
            assert!(err.to_string().contains("array index 7 out of bounds"), "{err}");
            assert!(rx.roots.is_empty(), "the failed message's roots were dropped");
        };

        let (got, mut rx) = subscriber();
        out_of_bounds(&mut rx); // the cold pass fails: the decision stays cached
        assert_eq!(rx.cached_decisions(), 1);
        rx.process(&message(0)).unwrap();
        out_of_bounds(&mut rx); // a warm replay fails
        rx.process(&message(2)).unwrap();

        let (expected, mut fresh) = subscriber();
        fresh.process(&message(0)).unwrap();
        fresh.process(&message(2)).unwrap();
        assert_eq!(*got.lock().unwrap(), *expected.lock().unwrap());
        assert_eq!(
            got.lock().unwrap().last(),
            Some(&Value::Record(vec![Value::str("tag-2"), Value::Int(60)]))
        );
        // One compile, and only the passes that succeeded are counted; the
        // three warm replays each left a sample, failed or not.
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.compile.count"), Some(1));
        assert_eq!(snap.counter("morph.vm.register.apply"), Some(2));
        assert_eq!(snap.histogram("morph.process_ns").map(|h| h.count), Some(3));
    }

    /// The receiver runs wire-supplied code on a budget: a transformation
    /// that never finishes costs its budget and an error — not the thread —
    /// on the first message and on every later one, leaves nothing behind,
    /// and the next format's messages flow as on a fresh receiver.
    #[test]
    fn a_looping_transformation_spends_its_budget_and_the_next_message_flows() {
        let spin = FormatBuilder::record("ChannelOpenResponse").int("spin").build_arc().unwrap();
        let spinning = Encoder::new(&spin).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        let subscriber = || {
            let (got, h) = sink();
            let mut rx = MorphReceiver::new();
            rx.register_handler(&v1(), h);
            rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
            (got, rx)
        };
        let (got, mut rx) = subscriber();
        rx.import_transformation(Transformation::new(spin.clone(), v1(), "while (1) {}"));
        for pass in ["cold", "warm"] {
            let err = rx.process(&spinning).unwrap_err();
            assert!(matches!(err, MorphError::Ecode(_)), "{pass}: {err}");
            assert!(err.to_string().contains("instruction budget exhausted"), "{pass}: {err}");
            assert_eq!(crate::deadletter::reason_for(&err), crate::DeadReason::TransformFailed);
            assert!(rx.roots.is_empty(), "{pass}: roots left behind");
        }
        assert_eq!(rx.registry().snapshot().counter("morph.vm.register.apply"), Some(0));
        rx.process(&v2_message(3)).unwrap();

        let (expected, mut fresh) = subscriber();
        fresh.process(&v2_message(3)).unwrap();
        assert_eq!(*got.lock().unwrap(), *expected.lock().unwrap());
        assert_eq!(got.lock().unwrap().len(), 1);
    }

    /// A chain of `steps` one-field revisions `M{f0}` ← … ← `M{f<steps>}`,
    /// each step adding one, and a message of the newest revision.
    fn revisions(steps: usize) -> (Vec<Transformation>, Vec<u8>) {
        let rev = |k: usize| {
            FormatBuilder::record("M").int(format!("f{k}")).build_arc().expect("a valid format")
        };
        let xforms = (0..steps)
            .map(|k| {
                let code = format!("old.f{k} = new.f{} + 1;", k + 1);
                Transformation::new(rev(k + 1), rev(k), code)
            })
            .collect();
        let wire = Encoder::new(&rev(steps)).encode(&Value::Record(vec![Value::Int(0)])).unwrap();
        (xforms, wire)
    }

    /// 254 steps is the longest chain a receiver runs; one more is a
    /// decide-time error like a step that does not compile — nothing cached,
    /// no other path taken — and a shorter route learned later still works.
    #[test]
    fn a_254_step_chain_morphs_and_a_255_step_chain_is_a_decide_time_error() {
        let reader = FormatBuilder::record("M").int("f0").build_arc().unwrap();
        let receiver = |steps: usize| {
            let (xforms, wire) = revisions(steps);
            let (got, h) = sink();
            let mut rx = MorphReceiver::new();
            rx.register_handler(&reader, h);
            for t in xforms {
                rx.import_transformation(t);
            }
            (got, rx, wire)
        };

        let (got, mut rx, wire) = receiver(254);
        for _ in 0..2 {
            assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        }
        assert_eq!(*got.lock().unwrap(), vec![Value::Record(vec![Value::Int(254)]); 2]);
        let id = parse_header(&wire).unwrap().format_id;
        assert!(matches!(rx.explain(id), Some(Explanation::Morph { chain_len: 254, .. })));

        let (got, mut rx, wire) = receiver(255);
        for _ in 0..2 {
            let err = rx.process(&wire).unwrap_err();
            assert!(matches!(err, MorphError::Ecode(_)), "{err}");
            assert!(err.to_string().contains("chain too long"), "{err}");
        }
        assert_eq!(rx.cached_decisions(), 0);
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.morph"), Some(0));
        assert_eq!(snap.counter("morph.vm.register.apply"), Some(0));
        assert!(got.lock().unwrap().is_empty());
        // A direct retro-transformation from the newest revision.
        let newest = FormatBuilder::record("M").int("f255").build_arc().unwrap();
        rx.import_transformation(Transformation::new(newest, reader.clone(), "old.f0 = -1;"));
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(*got.lock().unwrap(), vec![Value::Record(vec![Value::Int(-1)])]);
    }

    /// The span tree of a traced message, pinned once: the first message of
    /// a format records the decision and the stages of the one plan; the
    /// second replays that plan under a single span.
    #[test]
    fn a_cold_traced_morph_records_the_decision_and_the_stages_of_the_one_plan() {
        // The reader is v1.0 plus one field, so the chain's end is a near
        // match of it and the adapter stage runs too.
        let reader = FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(false), "member_count")
            .int("src_count")
            .var_array_of("src_list", member(false), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member(false), "sink_count")
            .int("extra")
            .build_arc()
            .unwrap();
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(256, registry.clock()));
        registry.set_recorder(Arc::clone(&recorder));
        let mut rx = MorphReceiver::with_registry(registry);
        rx.register_handler(&reader, |_| {});
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        // (name, parent's name) of every span of a trace, in start order.
        let tree = |trace: obs::TraceId| -> Vec<(String, Option<String>)> {
            let mut events = recorder.trace_events(trace);
            events.sort_by_key(|e| e.id.0);
            let name_of = |id: SpanId| events.iter().find(|e| e.id == id).map(|e| e.name.clone());
            events.iter().map(|e| (e.name.clone(), e.parent.and_then(name_of))).collect()
        };
        let spans = |tree: &[(&str, Option<&str>)]| -> Vec<(String, Option<String>)> {
            tree.iter().map(|(n, p)| (n.to_string(), p.map(str::to_string))).collect()
        };

        let cold = TraceCtx::root(recorder.next_trace_id());
        rx.process_traced(&v2_message(3), Some(cold)).unwrap();
        assert_eq!(
            tree(cold.trace),
            spans(&[
                ("morph.lookup", None),
                ("morph.decide", None),
                ("morph.maxmatch", Some("morph.decide")),
                ("morph.compile", Some("morph.decide")),
                ("morph.apply", None),
                ("morph.decode", Some("morph.apply")),
                ("morph.transform", Some("morph.apply")),
                ("morph.default_fill", Some("morph.apply")),
            ])
        );
        let events = recorder.trace_events(cold.trace);
        let tag =
            |name: &str, key: &str| events.iter().find(|e| e.name == name).and_then(|e| e.tag(key));
        assert_eq!(tag("morph.lookup", "result"), Some("miss"));
        assert_eq!(tag("morph.decide", "outcome"), Some("morph"));
        assert_eq!(tag("morph.transform", "steps"), Some("1"));

        let warm = TraceCtx::root(recorder.next_trace_id());
        rx.process_traced(&v2_message(3), Some(warm)).unwrap();
        assert_eq!(tree(warm.trace), spans(&[("morph.lookup", None), ("morph.apply.fused", None)]));
    }

    /// A chain that ends one near match short of the reader is default-filled
    /// by a plan from the receiver's plan cache: compiled once per (chain
    /// end, reader) pair, stored, and found by every receiver sharing the
    /// store — as a near match of the wire format is.
    #[test]
    fn an_adapted_morph_takes_its_default_fill_plan_from_the_plan_cache() {
        let reader = FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(false), "member_count")
            .int("src_count")
            .var_array_of("src_list", member(false), "src_count")
            .field_with_default(
                "epoch",
                FieldType::Basic(BasicType::Int(pbio::Width::W4)),
                Value::Int(9),
            )
            .build_arc()
            .unwrap();
        let store = PlanStore::new();
        let subscriber = || {
            let (got, h) = sink();
            let mut rx = MorphReceiver::new();
            rx.register_handler(&reader, h);
            rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
            rx.set_plan_store(store.clone());
            (got, rx)
        };
        let (got_a, mut a) = subscriber();
        let (got_b, mut b) = subscriber();
        for rx in [&mut a, &mut b] {
            for _ in 0..2 {
                rx.process(&v2_message(3)).unwrap();
            }
        }
        let adapted =
            Some(Explanation::Morph { target: format_id(&reader), chain_len: 1, adapted: true });
        assert_eq!(a.explain(format_id(&v2())), adapted);

        // The oracle: the tree-walker's v1.0 value, converted by name.
        let full = ConversionPlan::identity(&v2()).unwrap().execute(&v2_message(3)).unwrap();
        let end = Transformation::new(v2(), v1(), FIG5).compile().unwrap().apply_interp(&full);
        let oracle = pbio::convert_record(&end.unwrap(), &v1(), &reader);
        assert_eq!(oracle.field(&reader, "epoch"), Some(&Value::Int(9)));
        for got in [&got_a, &got_b] {
            assert_eq!(*got.lock().unwrap(), vec![oracle.clone(); 2]);
        }
        // A compiled its projection and the default-fill plan; B compiled its
        // projection and found the stored plan.
        assert_eq!(store.len(), 1);
        let plans = |rx: &MorphReceiver| {
            let snap = rx.registry().snapshot();
            (snap.counter("pbio.plan.miss"), snap.counter("pbio.plan.hit"))
        };
        assert_eq!(plans(&a), (Some(2), Some(0)));
        assert_eq!(plans(&b), (Some(1), Some(1)));
    }

    #[test]
    fn shared_cache_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecisionCache>();
        assert_send_sync::<Arc<Decision>>();
    }

    /// Builds a v1-reading receiver that knows the Fig. 5 transformation —
    /// the identical-subscriber shape of a fan-out deployment.
    fn v1_subscriber(shared: &DecisionCache) -> (Sink, MorphReceiver) {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        rx.set_shared_decisions(shared.clone());
        (got, rx)
    }

    #[test]
    fn shared_decision_cache_pays_maxmatch_and_compile_once() {
        let shared = DecisionCache::new();
        let (got_a, mut a) = v1_subscriber(&shared);
        let (got_b, mut b) = v1_subscriber(&shared);

        a.process(&v2_message(3)).unwrap(); // computes + publishes
        b.process(&v2_message(3)).unwrap(); // shared hit: no decide, no DCG

        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
        assert_eq!(a.stats().compiles, 1);
        assert_eq!(b.stats().compiles, 0, "B must reuse A's compiled decision");
        let snap_a = a.registry().snapshot();
        let snap_b = b.registry().snapshot();
        assert_eq!(snap_a.counter("morph.decision.shared_insert"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.morph"), Some(0), "decide() never ran on B");

        // Both delivered the same morphed value.
        assert_eq!(got_a.lock().unwrap()[0], got_b.lock().unwrap()[0]);

        // B's next message is a plain L1 hit: no further shared traffic.
        b.process(&v2_message(3)).unwrap();
        let snap_b = b.registry().snapshot();
        assert_eq!(snap_b.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.hit"), Some(1));

        shared.clear();
        assert!(shared.is_empty());
        assert!(!format!("{shared:?}").is_empty());
    }

    #[test]
    fn invalidate_decisions_cold_restarts_the_l1_but_spares_the_shared_l2() {
        let shared = DecisionCache::new();
        let (_, mut rx) = v1_subscriber(&shared);
        rx.process(&v2_message(4)).unwrap();
        assert_eq!(rx.cached_decisions(), 1);
        assert_eq!(shared.len(), 1);

        // Crash-restart amnesia: the private cache is gone, the shared
        // cache — held outside the process — survives.
        assert_eq!(rx.invalidate_decisions(), 1);
        assert_eq!(rx.cached_decisions(), 0);
        assert_eq!(shared.len(), 1, "the shared L2 outlives the restart");

        // Re-warming is a shared hit, not a recompile.
        rx.process(&v2_message(4)).unwrap();
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(rx.stats().compiles, 1, "MaxMatch + DCG ran once, pre-crash");
    }

    #[test]
    fn shared_cache_segregates_incompatible_receivers() {
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);

        // B reads v2 natively: same wire format, different fingerprint, and
        // must not inherit A's morph-to-v1 decision.
        let (got_b, hb) = sink();
        let mut b = MorphReceiver::new();
        let id2 = b.register_handler(&v2(), hb);
        b.set_shared_decisions(shared.clone());

        a.process(&v2_message(2)).unwrap();
        let d = b.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        got_b.lock().unwrap()[0].check(&v2()).unwrap();
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_hit"), Some(0));
        assert_eq!(shared.len(), 2, "one entry per fingerprint");
    }

    #[test]
    fn learning_a_transformation_moves_to_a_fresh_fingerprint() {
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);
        let (_, mut b) = v1_subscriber(&shared);
        a.process(&v2_message(1)).unwrap();

        // B learns an extra edge before its first message: its fingerprint
        // diverges from A's, so A's cached decision is invisible to it.
        let v0 =
            FormatBuilder::record("ChannelOpenResponse").int("member_count").build_arc().unwrap();
        b.import_transformation(Transformation::new(
            v1(),
            v0,
            "old.member_count = new.member_count;",
        ));
        b.process(&v2_message(1)).unwrap();
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_hit"), Some(0));
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_insert"), Some(1));
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn weighted_receivers_bypass_the_shared_cache() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);
        a.set_weight_profile(
            WeightProfile::new().weight("member_count", 1.0),
            WeightedConfig { diff_threshold: 100.0, mismatch_threshold: 1.0 },
        );
        a.process(&v2_message(1)).unwrap();
        assert!(shared.is_empty(), "weighted decisions must stay private");
        assert_eq!(a.registry().snapshot().counter("morph.decision.shared_insert"), Some(0));
    }

    #[test]
    fn importing_transformation_keeps_unrelated_warm_decisions() {
        // Targeted invalidation: a new transformation only drops cached
        // decisions whose reachable-format closure contains its source
        // format; unrelated warm decisions survive and keep serving hits.
        let unrelated = FormatBuilder::record("Heartbeat").int("seq").build_arc().unwrap();
        let (_, hu) = sink();
        let (_, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&unrelated, hu);
        rx.register_handler(&v1(), h1);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        let hb = Encoder::new(&unrelated).encode(&Value::Record(vec![Value::Int(7)])).unwrap();
        rx.process(&hb).unwrap(); // cache the Heartbeat decision
        rx.process(&v2_message(1)).unwrap(); // cache the v2 morph decision
        assert_eq!(rx.cached_decisions(), 2);
        let misses_before = rx.registry().snapshot().counter("morph.decision.miss");

        // A new edge out of v2 (v2 -> v2b) affects the v2 closure only: the
        // morph decision is dropped, the Heartbeat decision survives.
        let v2b = FormatBuilder::record("ChannelOpenResponseAudit")
            .int("member_count")
            .build_arc()
            .unwrap();
        rx.import_transformation(Transformation::new(
            v2(),
            v2b,
            "old.member_count = new.member_count;",
        ));
        assert_eq!(rx.cached_decisions(), 1);
        assert!(rx.explain(pbio::format_id(&unrelated)).is_some());
        assert!(rx.explain(pbio::format_id(&v2())).is_none());

        // The surviving decision still serves warm hits (no re-decide).
        rx.process(&hb).unwrap();
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.miss"), misses_before);

        // An edge into a format the Heartbeat closure *does* contain drops
        // the Heartbeat decision too.
        let hb0 = FormatBuilder::record("HeartbeatV0").int("seq").build_arc().unwrap();
        rx.import_transformation(Transformation::new(unrelated.clone(), hb0, "old.seq = new.seq;"));
        assert!(rx.explain(pbio::format_id(&unrelated)).is_none());
    }
}
