//! Rolling windows and windowed-rate gauges.
//!
//! A rate wants recent samples, not totals: "how many events were
//! delivered in the last 8 ms" is a question a plain [`crate::Counter`]
//! cannot answer. A [`RollingWindow`] keeps a fixed ring of time slots and
//! forgets old ones as time passes; a [`RateGauge`] ties a window to a
//! registry gauge through the pluggable [`Clock`], so virtual-time chaos
//! runs produce byte-identical rates.
//!
//! Everything here is deterministic integer math over clock readings —
//! no floats, no wall-clock reads, no allocation after construction. Fed
//! from a [`crate::VirtualClock`], two replays of the same event sequence
//! publish byte-identical rates.

use std::sync::Arc;

use crate::clock::Clock;
use crate::metric::Gauge;

/// One time slot of a [`RollingWindow`]: the totals recorded during a
/// single `slot_ns`-wide interval, tagged with which interval (epoch) they
/// belong to so a lazily reused slot can tell stale data from fresh.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u64,
    sum: u64,
    count: u64,
}

/// A fixed-slot rolling window over a monotonic nanosecond clock.
///
/// The window covers the last `slots × slot_ns` nanoseconds. Each slot
/// aggregates the samples of one `slot_ns`-wide interval; a slot is reused
/// (ring-style) once time moves `slots` intervals past it, so memory is
/// fixed at construction and both recording and reading are O(slots) worst
/// case with no allocation. Slots are reset lazily on access — a clock
/// that jumps forward by many windows simply finds every slot stale.
///
/// ```
/// let mut w = obs::RollingWindow::new(4, 1_000); // 4 µs window, 1 µs slots
/// w.record(0, 10);
/// w.record(1_500, 20);
/// assert_eq!(w.sum(1_500), 30);
/// // 4 µs later the first samples have aged out.
/// assert_eq!(w.sum(4_200), 20);
/// assert_eq!(w.sum(9_999), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RollingWindow {
    slot_ns: u64,
    slots: Vec<Slot>,
}

impl RollingWindow {
    /// Creates a window of `slots` slots, each `slot_ns` wide.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `slot_ns` is zero.
    pub fn new(slots: usize, slot_ns: u64) -> RollingWindow {
        assert!(slots > 0, "a rolling window needs at least one slot");
        assert!(slot_ns > 0, "slot width must be non-zero");
        RollingWindow { slot_ns, slots: vec![Slot::default(); slots] }
    }

    /// Total width of the window in nanoseconds (`u64::MAX` if wider).
    pub fn window_ns(&self) -> u64 {
        self.slot_ns.saturating_mul(self.slots.len() as u64)
    }

    /// Records a sample at clock reading `now_ns`.
    pub fn record(&mut self, now_ns: u64, value: u64) {
        let epoch = now_ns / self.slot_ns;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            *slot = Slot { epoch, sum: 0, count: 0 };
        }
        slot.sum += value;
        slot.count += 1;
    }

    /// Sum of the samples still inside the window at `now_ns`.
    pub fn sum(&self, now_ns: u64) -> u64 {
        self.fold(now_ns, |s| s.sum)
    }

    /// Number of samples still inside the window at `now_ns`.
    pub fn count(&self, now_ns: u64) -> u64 {
        self.fold(now_ns, |s| s.count)
    }

    /// Windowed rate: `sum / span` per second, where the span is the
    /// elapsed time rounded up to a slot boundary, capped at the window
    /// width — so early readings (before a full window has passed) are not
    /// diluted by time that never happened. The arithmetic saturates, so a
    /// clock near `u64::MAX` reads a full window.
    pub fn rate_per_sec(&self, now_ns: u64) -> u64 {
        let elapsed = (now_ns / self.slot_ns + 1).saturating_mul(self.slot_ns);
        let span = self.window_ns().min(elapsed);
        let rate = u128::from(self.sum(now_ns)) * 1_000_000_000 / u128::from(span);
        u64::try_from(rate).unwrap_or(u64::MAX)
    }

    /// Folds `f` over the slots whose epoch is still inside the window at
    /// `now_ns`. A slot written at epoch `e` stays visible while the
    /// current epoch is `< e + slots` — exactly until its ring position is
    /// reused.
    fn fold(&self, now_ns: u64, f: impl Fn(&Slot) -> u64) -> u64 {
        let epoch = now_ns / self.slot_ns;
        let n = self.slots.len() as u64;
        self.slots
            .iter()
            .filter(|s| (s.sum > 0 || s.count > 0) && s.epoch <= epoch && epoch - s.epoch < n)
            .map(f)
            .sum()
    }
}

/// A registry [`Gauge`] that publishes a windowed rate.
///
/// Each [`RateGauge::record`] stamps the sample with the owning clock,
/// folds it into the window, and refreshes the gauge to the current
/// rate-per-second — so `snapshot()` always shows the recent rate, and a
/// virtual clock makes the readings reproducible.
#[derive(Debug, Clone)]
pub struct RateGauge {
    clock: Arc<dyn Clock>,
    gauge: Arc<Gauge>,
    window: RollingWindow,
}

impl RateGauge {
    /// Wraps `gauge` in a window of `slots × slot_ns` read from `clock`.
    pub fn new(clock: Arc<dyn Clock>, gauge: Arc<Gauge>, slots: usize, slot_ns: u64) -> RateGauge {
        RateGauge { clock, gauge, window: RollingWindow::new(slots, slot_ns) }
    }

    /// Records a sample at the clock's current reading and refreshes the
    /// gauge.
    pub fn record(&mut self, value: u64) {
        let now = self.clock.now_ns();
        self.window.record(now, value);
        self.gauge.set(i64::try_from(self.window.rate_per_sec(now)).unwrap_or(i64::MAX));
    }

    /// Refreshes the gauge without recording — lets idle periods decay the
    /// published rate toward zero.
    pub fn refresh(&self) {
        let now = self.clock.now_ns();
        self.gauge.set(i64::try_from(self.window.rate_per_sec(now)).unwrap_or(i64::MAX));
    }

    /// The current windowed rate per second.
    pub fn rate_per_sec(&self) -> u64 {
        self.window.rate_per_sec(self.clock.now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::registry::Registry;

    #[test]
    fn window_forgets_old_slots() {
        let mut w = RollingWindow::new(4, 100);
        w.record(0, 5);
        w.record(150, 7);
        assert_eq!(w.sum(150), 12);
        assert_eq!(w.count(150), 2);
        // At t=399 both slots are still inside the 400 ns window.
        assert_eq!(w.sum(399), 12);
        // At t=400 the epoch-0 slot ages out; at t=500 the epoch-1 slot.
        assert_eq!(w.sum(400), 7);
        assert_eq!(w.sum(500), 0);
    }

    #[test]
    fn window_survives_arbitrary_clock_jumps() {
        let mut w = RollingWindow::new(4, 100);
        w.record(10, 1);
        // Jump far beyond the window: all slots stale.
        assert_eq!(w.sum(1_000_000), 0);
        w.record(1_000_000, 9);
        assert_eq!(w.sum(1_000_000), 9);
        // A reused ring position must not resurrect old data.
        let mut w = RollingWindow::new(2, 100);
        w.record(0, 3); // epoch 0, ring slot 0
        w.record(250, 4); // epoch 2, ring slot 0 — overwrites
        assert_eq!(w.sum(250), 4);
    }

    #[test]
    fn rate_uses_elapsed_span_before_window_fills() {
        let mut w = RollingWindow::new(10, 1_000_000); // 10 ms window
        w.record(500_000, 100); // 100 events in the first ms
                                // Span is one slot (1 ms), not the whole 10 ms window.
        assert_eq!(w.rate_per_sec(500_000), 100_000);
        // Once the window is full the span caps at 10 ms.
        assert_eq!(w.rate_per_sec(9_999_999), 10_000);
    }

    /// A clock at the end of time reads a full window: 5 over 4 ms is
    /// 1,250/s, and a window too wide for `u64` is `u64::MAX` wide.
    #[test]
    fn window_arithmetic_saturates_near_u64_max() {
        let now = u64::MAX - 10;
        let mut w = RollingWindow::new(4, 1_000_000);
        w.record(now, 5);
        assert_eq!(w.window_ns(), 4_000_000);
        assert_eq!(w.rate_per_sec(now), 1_250);
        let wide = RollingWindow::new(4, now);
        assert_eq!(wide.window_ns(), u64::MAX);
        assert_eq!(wide.rate_per_sec(now), 0);
    }

    #[test]
    fn rate_gauge_publishes_through_registry() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let mut rg = RateGauge::new(clock.clone(), reg.gauge("x.rate"), 4, 250_000_000);
        clock.set_ns(100_000_000);
        rg.record(10);
        // 10 events over the first 250 ms slot → 40/s.
        assert_eq!(reg.snapshot().gauge("x.rate"), Some(40));
        // A full idle window later, refresh decays the rate to zero.
        clock.set_ns(2_000_000_000);
        rg.refresh();
        assert_eq!(reg.snapshot().gauge("x.rate"), Some(0));
        assert_eq!(rg.rate_per_sec(), 0);
    }
}
