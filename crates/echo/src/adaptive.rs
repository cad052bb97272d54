//! Load-adaptive shed watermarks for the system's bounded queues.
//!
//! The shed policy (`shed`) decides *who* is dropped; this module decides
//! *when* dropping starts. Each bounded queue — the retry queue and the
//! sharded runtime's mailboxes — owns a [`Bound`], whose
//! [`obs::AdaptiveThreshold`] is fed that queue's own arrival and drain
//! events on the virtual clock. When the windowed arrival rate overruns
//! the drain rate the effective capacity halves (down to a floor),
//! starting shed pressure *before* a fixed bound would overflow; when
//! drains catch back up it doubles back toward the configured base, with
//! hysteresis so the capacity does not flap.
//!
//! Every adaptation decision is counted (`echo.adaptive.<queue>.tightened`
//! / `.relaxed`), the live effective capacity is exported as a gauge
//! (`echo.adaptive.<queue>.capacity`), and each decision drops an
//! `echo.adaptive.tighten` / `echo.adaptive.relax` instant into the flight
//! recorder under the trace that triggered it. All inputs are virtual-time
//! window states, so two identical runs adapt identically — the chaos
//! suite replays adaptation byte-for-byte.

use std::sync::Arc;

use obs::{AdaptDecision, AdaptiveThreshold, Counter, FlightRecorder, Gauge, Registry, TraceCtx};

/// Window geometry shared by every adaptive queue and by the link
/// monitors ([`crate::EchoConfig::link_monitors`]): eight 1 ms slots, so
/// rates compare over the trailing 8 ms of virtual time — long enough to
/// smooth one round-trip's burst, short enough to react inside a chaos
/// scenario's partition window.
pub(crate) const WINDOW_SLOTS: usize = 8;
pub(crate) const WINDOW_SLOT_NS: u64 = 1_000_000;

/// Metric labels of the adaptive queues: the retry queue and the sharded
/// runtime's mailboxes.
pub(crate) const ADAPT_QUEUE_LABELS: [&str; 2] = ["retry", "mailbox"];

/// One bounded queue's adaptive watermark plus its accounting handles.
#[derive(Debug)]
pub(crate) struct AdaptiveQueue {
    label: &'static str,
    threshold: AdaptiveThreshold,
    tightened: Arc<Counter>,
    relaxed: Arc<Counter>,
    capacity_gauge: Arc<Gauge>,
}

impl AdaptiveQueue {
    fn new(registry: &Registry, label: &'static str, base: usize) -> AdaptiveQueue {
        let floor = (base / 8).max(1);
        let q = AdaptiveQueue {
            label,
            threshold: AdaptiveThreshold::new(base, floor, WINDOW_SLOTS, WINDOW_SLOT_NS),
            tightened: registry.counter(&format!("echo.adaptive.{label}.tightened")),
            relaxed: registry.counter(&format!("echo.adaptive.{label}.relaxed")),
            capacity_gauge: registry.gauge(&format!("echo.adaptive.{label}.capacity")),
        };
        q.capacity_gauge.set(base as i64);
        q
    }

    /// Re-evaluates the watermark against the windowed rates, counting and
    /// trace-instrumenting any capacity change under `ctx` (or as a free
    /// instant-less decision when the triggering frame carried no trace).
    fn evaluate(
        &mut self,
        now_ns: u64,
        recorder: &FlightRecorder,
        ctx: Option<TraceCtx>,
    ) -> Option<AdaptDecision> {
        let decision = self.threshold.evaluate(now_ns)?;
        let (counter, name) = match decision {
            AdaptDecision::Tighten => (&self.tightened, "echo.adaptive.tighten"),
            AdaptDecision::Relax => (&self.relaxed, "echo.adaptive.relax"),
        };
        counter.inc();
        self.capacity_gauge.set(self.threshold.capacity() as i64);
        if let Some(c) = ctx {
            recorder.instant(
                c.trace,
                c.parent,
                name,
                &[("queue", self.label), ("capacity", &self.threshold.capacity().to_string())],
            );
        }
        Some(decision)
    }
}

/// A queue's bound: the configured capacity, pulled down by the adaptive
/// watermark (when [`crate::EchoConfig::adaptive_shedding`] is set) while
/// arrivals overrun drains.
#[derive(Debug)]
pub(crate) struct Bound {
    /// The configured capacity — a ceiling once the bound adapts.
    pub capacity: usize,
    adaptive: Option<AdaptiveQueue>,
}

impl Bound {
    pub fn new(capacity: usize) -> Bound {
        Bound { capacity, adaptive: None }
    }

    /// Makes the bound load-adaptive around its capacity. Metric handles
    /// are created here — systems that never opt in keep their snapshot
    /// catalogue unchanged.
    pub fn adapt(&mut self, registry: &Registry, label: &'static str) {
        self.adaptive = Some(AdaptiveQueue::new(registry, label, self.capacity));
    }

    /// The effective bound right now.
    pub fn capacity_now(&self) -> usize {
        self.adaptive_capacity().map_or(self.capacity, |adaptive| self.capacity.min(adaptive))
    }

    /// Feeds `n` admissions into the arrival window and re-evaluates the
    /// watermark — before the admission test, so overload tightens the
    /// bound for the very frame that revealed it.
    pub fn arrived(&mut self, n: usize, now_ns: u64, rec: &FlightRecorder, ctx: Option<TraceCtx>) {
        if let Some(a) = self.adaptive.as_mut() {
            (0..n).for_each(|_| a.threshold.on_arrival(now_ns));
            a.evaluate(now_ns, rec, ctx);
        }
    }

    /// Feeds `n` departures into the drain window and re-evaluates.
    pub fn drained(&mut self, n: usize, now_ns: u64, rec: &FlightRecorder) {
        if let Some(a) = self.adaptive.as_mut() {
            (0..n).for_each(|_| a.threshold.on_drain(now_ns));
            a.evaluate(now_ns, rec, None);
        }
    }

    /// The adaptive watermark's current bound (≤ its base), once enabled.
    pub fn adaptive_capacity(&self) -> Option<usize> {
        self.adaptive.as_ref().map(|a| a.threshold.capacity())
    }

    /// True while the watermark holds the queue in its tightened regime.
    pub fn overloaded(&self) -> bool {
        self.adaptive.as_ref().is_some_and(|a| a.threshold.overloaded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::VirtualClock;

    #[test]
    fn decisions_count_and_export_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let rec = FlightRecorder::new(64, clock.clone());
        let mut q = AdaptiveQueue::new(&reg, "retry", 64);
        assert_eq!(q.threshold.capacity(), 64);
        // Overload: arrivals far outrun drains across the window.
        for i in 0..32 {
            q.threshold.on_arrival(i * 100_000);
        }
        let d = q.evaluate(3_200_000, &rec, None);
        assert_eq!(d, Some(AdaptDecision::Tighten));
        assert!(q.threshold.overloaded());
        assert_eq!(q.threshold.capacity(), 32);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("echo.adaptive.retry.tightened"), Some(1));
        assert_eq!(snap.gauge("echo.adaptive.retry.capacity"), Some(32));
        // Recovery: drains dominate in a fresh window.
        let later = 3_200_000 + 10 * WINDOW_SLOT_NS;
        for i in 0..16 {
            q.threshold.on_drain(later + i * 100_000);
        }
        let d = q.evaluate(later + 1_600_000, &rec, None);
        assert_eq!(d, Some(AdaptDecision::Relax));
        assert_eq!(q.threshold.capacity(), 64);
        assert_eq!(reg.snapshot().counter("echo.adaptive.retry.relaxed"), Some(1));
    }

    #[test]
    fn traced_decision_lands_in_the_recorder() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let rec = FlightRecorder::new(64, clock.clone());
        let mut q = AdaptiveQueue::new(&reg, "mailbox", 16);
        for i in 0..32 {
            q.threshold.on_arrival(i * 100_000);
        }
        let ctx = TraceCtx::root(obs::TraceId(7));
        q.evaluate(3_200_000, &rec, Some(ctx));
        let tree = rec.text_tree(obs::TraceId(7));
        assert!(tree.contains("echo.adaptive.tighten"), "missing instant in:\n{tree}");
        assert!(tree.contains("queue=mailbox"), "missing queue tag in:\n{tree}");
    }
}
