//! The plan cache: conversion plans compiled once per format pair, counted.
//!
//! PBIO's performance story is *amortization* — pay for meta-data analysis
//! and plan compilation once per format pair, then convert every message
//! with a straight-line routine. [`PlanCache`] makes that amortization
//! measurable: it counts plan hits/misses and times compilations
//! (`pbio.plan.*`, catalogued in `OBSERVABILITY.md` at the repository root).

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use obs::{Clock, Counter, Histogram, Registry, Timer};

use crate::error::Result;
use crate::meta::{format_id, FormatId};
use crate::plan::ConversionPlan;
use crate::types::RecordFormat;

/// The plan map behind a [`PlanStore`], keyed by (wire id, native id).
type Plans = RwLock<HashMap<(FormatId, FormatId), Arc<ConversionPlan>>>;

/// The shared store behind one or more [`PlanCache`] handles: one
/// poison-tolerant `RwLock` around the plan map. Only a receiver's cold
/// path — deciding what to do with a wire format it has not seen — looks a
/// plan up; the decision it then caches holds its plans directly, so warm
/// messages never come here and one lock is all the concurrency the store
/// needs. Cloning a `PlanStore` is an `Arc` bump: every clone sees (and
/// contributes to) the same compiled plans, which is how thousands of
/// receivers share one compile per format pair instead of paying it each.
#[derive(Debug, Clone, Default)]
pub struct PlanStore {
    plans: Arc<Plans>,
}

impl PlanStore {
    /// Creates an empty store.
    pub fn new() -> PlanStore {
        PlanStore::default()
    }

    /// The compiled plan for a format pair, if present.
    pub fn get(&self, key: (FormatId, FormatId)) -> Option<Arc<ConversionPlan>> {
        self.plans.read().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
    }

    /// Inserts a compiled plan, returning the canonical entry (an earlier
    /// racer's plan wins so every caller converges on one `Arc`).
    pub fn insert(
        &self,
        key: (FormatId, FormatId),
        plan: Arc<ConversionPlan>,
    ) -> Arc<ConversionPlan> {
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(plans.entry(key).or_insert(plan))
    }

    /// Number of compiled plans.
    pub fn len(&self) -> usize {
        self.plans.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when no plans are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored plan.
    pub fn clear(&self) {
        self.plans.write().unwrap_or_else(PoisonError::into_inner).clear();
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

    /// Compiles the projected decode of `format` ([`ConversionPlan::project`])
    /// — the plan a morph decision runs. A mask is no format pair, so the plan
    /// is not stored: the decision that asked for it keeps it, and every call
    /// is a `pbio.plan.miss` with its `pbio.plan.compile_ns` sample.
    ///
    /// # Errors
    ///
    /// See [`ConversionPlan::project`].
    pub fn project(&self, format: &Arc<RecordFormat>, used: &[bool]) -> Result<ConversionPlan> {
        self.misses.inc();
        let _timer = Timer::start(Arc::clone(&self.compile_ns), Arc::clone(&self.clock));
        ConversionPlan::project(format, used)
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
}
