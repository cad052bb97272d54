//! Indexed metric families — pre-fetched per-shard handles.
//!
//! A sharded runtime wants one counter per shard (`echo.shard.0.frames`,
//! `echo.shard.1.frames`, …) updated from that shard's worker thread.
//! Registry lookup takes a lock, so a worker must never look its handle up
//! per event; a family fetches every member handle once, up front, and
//! indexing into it afterwards is lock-free. Handles are plain
//! [`Counter`]/[`Gauge`] `Arc`s, so every update is an atomic op and the
//! family is freely shared across threads.

use std::sync::Arc;

use crate::metric::{Counter, Gauge};
use crate::registry::Registry;

/// An indexed family of counters named `<prefix>.<i>.<name>`.
///
/// ```
/// let reg = obs::Registry::new();
/// let frames = obs::CounterFamily::new(&reg, "echo.shard", "frames", 4);
/// frames.get(2).add(10);
/// assert_eq!(reg.snapshot().counter("echo.shard.2.frames"), Some(10));
/// assert_eq!(frames.total(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct CounterFamily {
    handles: Vec<Arc<Counter>>,
}

impl CounterFamily {
    /// Fetches (creating on first use) the `n` member counters
    /// `<prefix>.0.<name>` … `<prefix>.n-1.<name>`.
    pub fn new(registry: &Registry, prefix: &str, name: &str, n: usize) -> CounterFamily {
        CounterFamily {
            handles: (0..n).map(|i| registry.counter(&format!("{prefix}.{i}.{name}"))).collect(),
        }
    }

    /// Fetches a family keyed by static labels instead of indices:
    /// `<prefix>.<label>.<name>` for each label, in label order. `get(i)`
    /// addresses the `i`-th label's counter.
    ///
    /// ```
    /// let reg = obs::Registry::new();
    /// let sent = obs::CounterFamily::labeled(
    ///     &reg,
    ///     "echo.channel",
    ///     "sent",
    ///     &["reliable", "sequenced", "unordered"],
    /// );
    /// sent.get(1).inc();
    /// assert_eq!(reg.snapshot().counter("echo.channel.sequenced.sent"), Some(1));
    /// ```
    pub fn labeled(
        registry: &Registry,
        prefix: &str,
        name: &str,
        labels: &[&str],
    ) -> CounterFamily {
        CounterFamily {
            handles: labels
                .iter()
                .map(|l| registry.counter(&format!("{prefix}.{l}.{name}")))
                .collect(),
        }
    }

    /// The member counter for index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &Arc<Counter> {
        &self.handles[i]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when the family has no members.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Sum across all members — the family's aggregate total.
    pub fn total(&self) -> u64 {
        self.handles.iter().map(|c| c.get()).sum()
    }
}

/// An indexed family of gauges named `<prefix>.<i>.<name>` (e.g. per-shard
/// mailbox depths).
#[derive(Debug, Clone)]
pub struct GaugeFamily {
    handles: Vec<Arc<Gauge>>,
}

impl GaugeFamily {
    /// Fetches (creating on first use) the `n` member gauges.
    pub fn new(registry: &Registry, prefix: &str, name: &str, n: usize) -> GaugeFamily {
        GaugeFamily {
            handles: (0..n).map(|i| registry.gauge(&format!("{prefix}.{i}.{name}"))).collect(),
        }
    }

    /// The member gauge for index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &Arc<Gauge> {
        &self.handles[i]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when the family has no members.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The largest member value — the family's high-water mark.
    pub fn max(&self) -> i64 {
        self.handles.iter().map(|g| g.get()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FlightRecorder;

    #[test]
    fn everything_shared_across_threads_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<crate::metric::Histogram>();
        assert_send_sync::<FlightRecorder>();
        assert_send_sync::<CounterFamily>();
        assert_send_sync::<GaugeFamily>();
    }

    #[test]
    fn family_members_are_registry_counters() {
        let reg = Registry::new();
        let fam = CounterFamily::new(&reg, "echo.shard", "frames", 3);
        assert_eq!(fam.len(), 3);
        assert!(!fam.is_empty());
        fam.get(0).add(1);
        fam.get(2).add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("echo.shard.0.frames"), Some(1));
        assert_eq!(snap.counter("echo.shard.1.frames"), Some(0));
        assert_eq!(snap.counter("echo.shard.2.frames"), Some(5));
        assert_eq!(fam.total(), 6);
        // The same name fetched directly aliases the family member.
        reg.counter("echo.shard.1.frames").inc();
        assert_eq!(fam.get(1).get(), 1);
    }

    #[test]
    fn gauge_family_tracks_high_water() {
        let reg = Registry::new();
        let fam = GaugeFamily::new(&reg, "echo.shard", "mailbox.depth", 2);
        fam.get(0).set(3);
        fam.get(1).set(9);
        assert_eq!(fam.max(), 9);
        assert_eq!(reg.snapshot().gauge("echo.shard.1.mailbox.depth"), Some(9));
        assert_eq!(GaugeFamily::new(&reg, "x", "y", 0).max(), 0);
    }

    #[test]
    fn labeled_family_members_follow_label_order() {
        let reg = Registry::new();
        let fam = CounterFamily::labeled(&reg, "echo.channel", "sent", &["reliable", "sequenced"]);
        assert_eq!(fam.len(), 2);
        fam.get(0).add(2);
        fam.get(1).add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("echo.channel.reliable.sent"), Some(2));
        assert_eq!(snap.counter("echo.channel.sequenced.sent"), Some(5));
        assert_eq!(fam.total(), 7);
    }

    #[test]
    fn concurrent_updates_from_many_threads_all_land() {
        let reg = Arc::new(Registry::new());
        let fam = Arc::new(CounterFamily::new(&reg, "echo.shard", "frames", 4));
        std::thread::scope(|s| {
            for shard in 0..4 {
                let fam = Arc::clone(&fam);
                s.spawn(move || {
                    for _ in 0..1000 {
                        fam.get(shard).inc();
                    }
                });
            }
        });
        assert_eq!(fam.total(), 4000);
        for shard in 0..4 {
            assert_eq!(fam.get(shard).get(), 1000);
        }
    }
}
