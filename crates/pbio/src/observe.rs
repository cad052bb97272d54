//! Instrumented entry points: the plan cache and observed encode/decode.
//!
//! PBIO's performance story is *amortization* — pay for meta-data analysis
//! and plan compilation once per format pair, then convert every message
//! with a straight-line routine. This module makes that amortization
//! measurable: [`PlanCache`] counts plan hits/misses and times compilations
//! (`pbio.plan.*`), while [`CodecMetrics`] carries pre-fetched handles for
//! the per-message encode/decode counters and latency histograms
//! (`pbio.encode.*` / `pbio.decode.*`). All metric names are catalogued in
//! `OBSERVABILITY.md` at the repository root.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use obs::{Clock, Counter, Histogram, Registry, Timer};

use crate::encode::Encoder;
use crate::error::Result;
use crate::meta::{format_id, FormatId};
use crate::plan::ConversionPlan;
use crate::types::RecordFormat;
use crate::value::Value;

/// How many independently locked segments a [`PlanStore`] spreads its
/// entries over. Concurrent warm-path readers on different segments never
/// contend, and a cold compile write-locks only the one segment its key
/// hashes to.
const STORE_SEGMENTS: usize = 16;

/// One independently locked slice of a [`PlanStore`]'s plan map.
type StoreSegment = RwLock<HashMap<(FormatId, FormatId), Arc<ConversionPlan>>>;

/// The shared, concurrently readable store behind one or more
/// [`PlanCache`] handles.
///
/// Entries are spread over `STORE_SEGMENTS` (16) independently locked
/// segments, so the warm path (plan lookup) takes a single segment read
/// lock — many threads resolving plans concurrently serialize only when
/// they hash to the same segment *and* one of them is compiling. Cloning a
/// `PlanStore` is an `Arc` bump: every clone sees (and contributes to) the
/// same compiled plans, which is how thousands of receivers share one
/// compile per format pair instead of paying it each.
#[derive(Debug, Clone, Default)]
pub struct PlanStore {
    segments: Arc<[StoreSegment; STORE_SEGMENTS]>,
}

impl PlanStore {
    /// Creates an empty store.
    pub fn new() -> PlanStore {
        PlanStore::default()
    }

    /// Which segment a format pair lives in (a cheap FNV-style mix of the
    /// two 64-bit ids — deterministic across runs and platforms).
    fn segment_of(key: (FormatId, FormatId)) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [key.0 .0, key.1 .0] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % STORE_SEGMENTS as u64) as usize
    }

    fn read(
        &self,
        key: (FormatId, FormatId),
    ) -> RwLockReadGuard<'_, HashMap<(FormatId, FormatId), Arc<ConversionPlan>>> {
        self.segments[PlanStore::segment_of(key)]
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(
        &self,
        key: (FormatId, FormatId),
    ) -> RwLockWriteGuard<'_, HashMap<(FormatId, FormatId), Arc<ConversionPlan>>> {
        self.segments[PlanStore::segment_of(key)]
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The compiled plan for a format pair, if present.
    pub fn get(&self, key: (FormatId, FormatId)) -> Option<Arc<ConversionPlan>> {
        self.read(key).get(&key).cloned()
    }

    /// Inserts a compiled plan, returning the canonical entry (an earlier
    /// racer's plan wins so every caller converges on one `Arc`).
    pub fn insert(
        &self,
        key: (FormatId, FormatId),
        plan: Arc<ConversionPlan>,
    ) -> Arc<ConversionPlan> {
        Arc::clone(self.write(key).entry(key).or_insert(plan))
    }

    /// Number of compiled plans across all segments.
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.read().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    /// True when no plans are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored plan.
    pub fn clear(&self) {
        for s in self.segments.iter() {
            s.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
    }
}

/// A memoizing store of compiled [`ConversionPlan`]s, keyed by
/// (wire format, native format) identity, with cache behaviour exported
/// through an [`obs::Registry`].
///
/// The morphing receiver's *decision* cache (Algorithm 2) can be
/// invalidated wholesale — by a new reader format or transformation — but
/// the conversion plans it referenced are still valid for their format
/// pairs. Keeping plans here means a decision-cache rebuild shows up as
/// `pbio.plan.hit` rather than a recompile, which is exactly the
/// distinction the paper's cost model cares about.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use std::sync::Arc;
/// use pbio::{FormatBuilder, PlanCache};
///
/// let cache = PlanCache::new(Arc::new(obs::Registry::new()));
/// let fmt = FormatBuilder::record("M").int("a").build_arc()?;
/// let p1 = cache.get_or_compile(&fmt, &fmt)?; // miss: compiles
/// let p2 = cache.get_or_compile(&fmt, &fmt)?; // hit: shared Arc
/// assert!(Arc::ptr_eq(&p1, &p2));
/// let snap = cache.registry().snapshot();
/// assert_eq!(snap.counter("pbio.plan.miss"), Some(1));
/// assert_eq!(snap.counter("pbio.plan.hit"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PlanCache {
    registry: Arc<Registry>,
    clock: Arc<dyn Clock>,
    plans: PlanStore,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    compile_ns: Arc<Histogram>,
}

impl PlanCache {
    /// Creates an empty cache reporting into `registry`, with a private
    /// [`PlanStore`] (use [`PlanCache::set_store`] to share one).
    pub fn new(registry: Arc<Registry>) -> PlanCache {
        PlanCache {
            clock: registry.clock(),
            hits: registry.counter("pbio.plan.hit"),
            misses: registry.counter("pbio.plan.miss"),
            compile_ns: registry.histogram("pbio.plan.compile_ns"),
            plans: PlanStore::new(),
            registry,
        }
    }

    /// A shareable handle to the underlying [`PlanStore`]. Handing this to
    /// another cache (via [`PlanCache::set_store`]) makes both resolve from
    /// — and compile into — the same plans; metrics stay per-cache.
    pub fn store(&self) -> PlanStore {
        self.plans.clone()
    }

    /// Replaces the underlying store with a shared one. Plans already in
    /// the old private store are abandoned (they are cheap views; the
    /// shared store re-converges on one compile per pair system-wide).
    pub fn set_store(&mut self, store: PlanStore) {
        self.plans = store;
    }

    /// The registry this cache reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Redirects future cache metrics into `registry`, re-fetching every
    /// handle. Cached plans are kept; totals already accumulated stay in
    /// the old registry.
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.clock = registry.clock();
        self.hits = registry.counter("pbio.plan.hit");
        self.misses = registry.counter("pbio.plan.miss");
        self.compile_ns = registry.histogram("pbio.plan.compile_ns");
        self.registry = registry;
    }

    /// Returns the cached plan for this format pair, compiling (and timing
    /// the compilation as `pbio.plan.compile_ns`) on first use.
    ///
    /// # Errors
    ///
    /// See [`ConversionPlan::compile`].
    pub fn get_or_compile(
        &self,
        wire: &Arc<RecordFormat>,
        native: &Arc<RecordFormat>,
    ) -> Result<Arc<ConversionPlan>> {
        let key = (format_id(wire), format_id(native));
        if let Some(plan) = self.plans.get(key) {
            self.hits.inc();
            return Ok(plan);
        }
        self.misses.inc();
        let timer = Timer::start(Arc::clone(&self.compile_ns), Arc::clone(&self.clock));
        let plan = Arc::new(ConversionPlan::compile(wire, native)?);
        timer.stop();
        // A concurrent compiler may have won the race; converge on its plan.
        Ok(self.plans.insert(key, plan))
    }

    /// Number of distinct format pairs with compiled plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan. Counters are cumulative and unaffected.
    pub fn clear(&self) {
        self.plans.clear();
    }
}

/// Pre-fetched metric handles for the per-message encode/decode hot paths.
///
/// Registry lookups take a lock; a codec constructs one `CodecMetrics` up
/// front and every subsequent [`Encoder::encode_observed`] /
/// [`ConversionPlan::execute_observed`] call touches only lock-free atomics
/// (plus one clock read per timing span).
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    clock: Arc<dyn Clock>,
    encode_bytes: Arc<Counter>,
    encode_messages: Arc<Counter>,
    encode_ns: Arc<Histogram>,
    decode_bytes: Arc<Counter>,
    decode_messages: Arc<Counter>,
    decode_ns: Arc<Histogram>,
}

impl CodecMetrics {
    /// Fetches the `pbio.encode.*` / `pbio.decode.*` handles from `registry`.
    pub fn new(registry: &Registry) -> CodecMetrics {
        CodecMetrics {
            clock: registry.clock(),
            encode_bytes: registry.counter("pbio.encode.bytes"),
            encode_messages: registry.counter("pbio.encode.messages"),
            encode_ns: registry.histogram("pbio.encode_ns"),
            decode_bytes: registry.counter("pbio.decode.bytes"),
            decode_messages: registry.counter("pbio.decode.messages"),
            decode_ns: registry.histogram("pbio.decode_ns"),
        }
    }
}

impl Encoder {
    /// [`Encoder::encode`], also recording message count, output bytes, and
    /// elapsed nanoseconds into `metrics`. Failed encodes record nothing.
    ///
    /// # Errors
    ///
    /// See [`Encoder::encode`].
    pub fn encode_observed(&self, value: &Value, metrics: &CodecMetrics) -> Result<Vec<u8>> {
        let timer = Timer::start(Arc::clone(&metrics.encode_ns), Arc::clone(&metrics.clock));
        match self.encode(value) {
            Ok(wire) => {
                timer.stop();
                metrics.encode_messages.inc();
                metrics.encode_bytes.add(wire.len() as u64);
                Ok(wire)
            }
            Err(e) => {
                timer.cancel();
                Err(e)
            }
        }
    }
}

impl ConversionPlan {
    /// [`ConversionPlan::execute`], also recording message count, input
    /// bytes, and elapsed nanoseconds into `metrics`. Failed decodes record
    /// nothing.
    ///
    /// # Errors
    ///
    /// See [`ConversionPlan::execute`].
    pub fn execute_observed(&self, buf: &[u8], metrics: &CodecMetrics) -> Result<Value> {
        let timer = Timer::start(Arc::clone(&metrics.decode_ns), Arc::clone(&metrics.clock));
        match self.execute(buf) {
            Ok(value) => {
                timer.stop();
                metrics.decode_messages.inc();
                metrics.decode_bytes.add(buf.len() as u64);
                Ok(value)
            }
            Err(e) => {
                timer.cancel();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FormatBuilder;

    fn fmt(name: &str) -> Arc<RecordFormat> {
        FormatBuilder::record(name).int("a").string("s").build_arc().unwrap()
    }

    #[test]
    fn plan_cache_compiles_once_per_pair() {
        let cache = PlanCache::new(Arc::new(Registry::new()));
        let f = fmt("M");
        let g = FormatBuilder::record("M").int("a").build_arc().unwrap();
        let p1 = cache.get_or_compile(&f, &g).unwrap();
        let p2 = cache.get_or_compile(&f, &g).unwrap();
        let p3 = cache.get_or_compile(&f, &f).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.len(), 2);
        let snap = cache.registry().snapshot();
        assert_eq!(snap.counter("pbio.plan.hit"), Some(1));
        assert_eq!(snap.counter("pbio.plan.miss"), Some(2));
        assert_eq!(snap.histogram("pbio.plan.compile_ns").unwrap().count, 2);
    }

    #[test]
    fn plan_cache_clear_keeps_counters() {
        let cache = PlanCache::new(Arc::new(Registry::new()));
        let f = fmt("M");
        cache.get_or_compile(&f, &f).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compile(&f, &f).unwrap();
        let snap = cache.registry().snapshot();
        assert_eq!(snap.counter("pbio.plan.miss"), Some(2), "recompile after clear");
    }

    #[test]
    fn shared_store_serves_both_caches_with_one_compile() {
        let a = PlanCache::new(Arc::new(Registry::new()));
        let mut b = PlanCache::new(Arc::new(Registry::new()));
        b.set_store(a.store());
        let f = fmt("M");
        let p1 = a.get_or_compile(&f, &f).unwrap();
        let p2 = b.get_or_compile(&f, &f).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "one compile, one canonical plan");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        // The second cache resolved from the shared store: a hit in its
        // own metrics, no second compile anywhere.
        assert_eq!(b.registry().snapshot().counter("pbio.plan.hit"), Some(1));
        assert_eq!(b.registry().snapshot().counter("pbio.plan.miss"), Some(0));
        assert_eq!(a.registry().snapshot().counter("pbio.plan.miss"), Some(1));
    }

    #[test]
    fn plan_store_concurrent_readers_and_compilers_converge() {
        let store = PlanStore::new();
        let formats: Vec<_> = (0..8)
            .map(|i| FormatBuilder::record(format!("F{i}")).int("a").build_arc().unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = store.clone();
                let formats = formats.clone();
                s.spawn(move || {
                    let cache = {
                        let mut c = PlanCache::new(Arc::new(Registry::new()));
                        c.set_store(store);
                        c
                    };
                    for _ in 0..50 {
                        for f in &formats {
                            cache.get_or_compile(f, f).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 8, "racing compilers converge on one plan per pair");
    }

    #[test]
    fn observed_codec_counts_bytes_messages_and_time() {
        let reg = Registry::new();
        let m = CodecMetrics::new(&reg);
        let f = fmt("M");
        let v = Value::Record(vec![Value::Int(7), Value::str("hello")]);
        let enc = Encoder::new(&f);
        let wire = enc.encode_observed(&v, &m).unwrap();
        let plan = ConversionPlan::identity(&f).unwrap();
        let back = plan.execute_observed(&wire, &m).unwrap();
        assert_eq!(back, v);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("pbio.encode.messages"), Some(1));
        assert_eq!(snap.counter("pbio.decode.messages"), Some(1));
        assert_eq!(snap.counter("pbio.encode.bytes"), Some(wire.len() as u64));
        assert_eq!(snap.counter("pbio.decode.bytes"), Some(wire.len() as u64));
        assert_eq!(snap.histogram("pbio.encode_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("pbio.decode_ns").unwrap().count, 1);
    }

    #[test]
    fn failed_operations_record_nothing() {
        let reg = Registry::new();
        let m = CodecMetrics::new(&reg);
        let f = fmt("M");
        // Wrong shape: encode fails.
        assert!(Encoder::new(&f).encode_observed(&Value::Int(1), &m).is_err());
        // Garbage bytes: decode fails.
        let plan = ConversionPlan::identity(&f).unwrap();
        assert!(plan.execute_observed(b"not a message", &m).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pbio.encode.messages").unwrap_or(0), 0);
        assert_eq!(snap.counter("pbio.decode.messages").unwrap_or(0), 0);
        assert_eq!(snap.histogram("pbio.encode_ns").unwrap().count, 0);
        assert_eq!(snap.histogram("pbio.decode_ns").unwrap().count, 0);
    }
}
