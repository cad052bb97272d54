//! The plan cache: conversion plans compiled once per format pair, counted.
//!
//! PBIO's performance story is *amortization* — pay for meta-data analysis
//! and plan compilation once per format pair, then convert every message
//! with a straight-line routine. [`PlanCache`] makes that amortization
//! measurable: it counts plan hits/misses and times compilations
//! (`pbio.plan.*`, catalogued in `OBSERVABILITY.md` at the repository root).
//! Each cache belongs to one receiver and is never shared: what receivers
//! share is their morph *decisions* (`morph::DecisionCache`), which hold
//! their plans.

use std::collections::HashMap;
use std::sync::Arc;

use obs::{Clock, Counter, Histogram, Registry, Timer};

use crate::error::Result;
use crate::meta::{format_id, FormatId};
use crate::plan::ConversionPlan;
use crate::types::RecordFormat;

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
/// let mut cache = PlanCache::new(Arc::new(obs::Registry::new()));
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
    plans: HashMap<(FormatId, FormatId), Arc<ConversionPlan>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    compile_ns: Arc<Histogram>,
}

impl PlanCache {
    /// Creates an empty cache reporting into `registry`.
    pub fn new(registry: Arc<Registry>) -> PlanCache {
        PlanCache {
            clock: registry.clock(),
            hits: registry.counter("pbio.plan.hit"),
            misses: registry.counter("pbio.plan.miss"),
            compile_ns: registry.histogram("pbio.plan.compile_ns"),
            plans: HashMap::new(),
            registry,
        }
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
        &mut self,
        wire: &Arc<RecordFormat>,
        native: &Arc<RecordFormat>,
    ) -> Result<Arc<ConversionPlan>> {
        let key = (format_id(wire), format_id(native));
        if let Some(plan) = self.plans.get(&key) {
            self.hits.inc();
            return Ok(Arc::clone(plan));
        }
        self.misses.inc();
        let timer = Timer::start(Arc::clone(&self.compile_ns), Arc::clone(&self.clock));
        let plan = Arc::new(ConversionPlan::compile(wire, native)?);
        timer.stop();
        self.plans.insert(key, Arc::clone(&plan));
        Ok(plan)
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
        let mut cache = PlanCache::new(Arc::new(Registry::new()));
        let f = fmt("M");
        let g = FormatBuilder::record("M").int("a").build_arc().unwrap();
        let p1 = cache.get_or_compile(&f, &g).unwrap();
        let p2 = cache.get_or_compile(&f, &g).unwrap();
        let p3 = cache.get_or_compile(&f, &f).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.plans.len(), 2);
        let snap = cache.registry().snapshot();
        assert_eq!(snap.counter("pbio.plan.hit"), Some(1));
        assert_eq!(snap.counter("pbio.plan.miss"), Some(2));
        assert_eq!(snap.histogram("pbio.plan.compile_ns").unwrap().count, 2);
    }

    #[test]
    fn plan_cache_clear_keeps_counters() {
        let mut cache = PlanCache::new(Arc::new(Registry::new()));
        let f = fmt("M");
        cache.get_or_compile(&f, &f).unwrap();
        cache.plans.clear();
        cache.get_or_compile(&f, &f).unwrap();
        let snap = cache.registry().snapshot();
        assert_eq!(snap.counter("pbio.plan.miss"), Some(2), "recompile after clear");
    }
}
