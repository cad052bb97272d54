//! Rolling windows, EWMAs, and load-adaptive thresholds.
//!
//! Load shedding wants *rates*, not totals: "how many frames arrived in
//! the last 10 ms" is what a shed decision needs, and a plain
//! [`crate::Counter`] cannot answer it. A [`RollingWindow`] keeps a fixed
//! ring of time slots and forgets old ones as time passes; an [`Ewma`]
//! smooths a sample stream with pure integer arithmetic; a [`RateGauge`]
//! ties a window to a registry gauge through the pluggable [`Clock`], so
//! virtual-time chaos runs produce byte-identical rates; and an
//! [`AdaptiveThreshold`] turns windowed arrival-vs-drain imbalance into
//! tighten/relax capacity decisions with hysteresis.
//!
//! Everything here is deterministic integer math over clock readings —
//! no floats, no wall-clock reads, no allocation after construction. Fed
//! from a [`crate::VirtualClock`], two replays of the same event sequence
//! make byte-identical decisions; that property is pinned by the chaos
//! suite and documented as an invariant in `ARCHITECTURE.md`.

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

/// An exponentially weighted moving average in pure integer arithmetic.
///
/// `alpha = num/den` is the weight of each new sample. Integer division
/// truncates, so the average is deterministic across platforms — the
/// property the byte-identical chaos replays rely on — at the cost of a
/// floor bias of at most one unit per update.
///
/// ```
/// let mut e = obs::Ewma::new(1, 4); // alpha = 0.25
/// e.observe(100);
/// assert_eq!(e.get(), 100); // first sample seeds the average
/// e.observe(200);
/// assert_eq!(e.get(), 125);
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    num: u64,
    den: u64,
    value: Option<u64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `num/den`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < num <= den`.
    pub fn new(num: u64, den: u64) -> Ewma {
        assert!(num > 0 && num <= den, "alpha must be in (0, 1]");
        Ewma { num, den, value: None }
    }

    /// Folds one sample in. The first sample seeds the average directly.
    pub fn observe(&mut self, sample: u64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => {
                let blended = u128::from(self.num) * u128::from(sample)
                    + u128::from(self.den - self.num) * u128::from(v);
                u64::try_from(blended / u128::from(self.den)).unwrap_or(u64::MAX)
            }
        });
    }

    /// The current average (0 before any sample).
    pub fn get(&self) -> u64 {
        self.value.unwrap_or(0)
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

/// A capacity decision made by [`AdaptiveThreshold::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptDecision {
    /// Arrivals outpace drains: the effective capacity was halved (not
    /// below the floor).
    Tighten,
    /// The overload cleared: the effective capacity was doubled (not above
    /// the base).
    Relax,
}

/// Fewest windowed arrivals before a tighten decision can trigger —
/// guards against reacting to a handful of samples at startup.
const MIN_ARRIVALS: u64 = 4;

/// A load-adaptive capacity: windowed arrival rate vs drain rate with
/// hysteresis.
///
/// The threshold watches two [`RollingWindow`]s — one fed by
/// [`AdaptiveThreshold::on_arrival`], one by
/// [`AdaptiveThreshold::on_drain`] — and derives the *effective* capacity
/// of a bounded queue from their imbalance:
///
/// - **tighten** (halve capacity, never below the floor) when windowed
///   arrivals exceed drains by more than 25% (`a·4 > d·5`);
/// - **relax** (double capacity, never above the base) when arrivals fall
///   below 75% of drains (`a·4 < d·3`) after an overload;
/// - the band in between changes nothing — that gap *is* the hysteresis,
///   so a load hovering near the boundary cannot flap the capacity.
///
/// Decisions are pure functions of clock readings and the two windows:
/// driven by a virtual clock, identical event sequences yield identical
/// decision sequences.
///
/// ```
/// use obs::{AdaptDecision, AdaptiveThreshold};
///
/// let mut t = AdaptiveThreshold::new(64, 8, 4, 1_000_000);
/// assert_eq!(t.capacity(), 64);
/// // A burst of arrivals with no drains tightens the bound.
/// for now in 0..8u64 {
///     t.on_arrival(now);
/// }
/// assert_eq!(t.evaluate(8), Some(AdaptDecision::Tighten));
/// assert_eq!(t.capacity(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    arrivals: RollingWindow,
    drains: RollingWindow,
    base: usize,
    floor: usize,
    capacity: usize,
    overloaded: bool,
}

impl AdaptiveThreshold {
    /// Creates a threshold that starts at `base` capacity and tightens no
    /// further than `floor`, judged over a `slots × slot_ns` window.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is zero or exceeds `base`.
    pub fn new(base: usize, floor: usize, slots: usize, slot_ns: u64) -> AdaptiveThreshold {
        assert!(floor > 0 && floor <= base, "need 0 < floor <= base");
        AdaptiveThreshold {
            arrivals: RollingWindow::new(slots, slot_ns),
            drains: RollingWindow::new(slots, slot_ns),
            base,
            floor,
            capacity: base,
            overloaded: false,
        }
    }

    /// Counts one arrival (an admission attempt) at `now_ns`.
    pub fn on_arrival(&mut self, now_ns: u64) {
        self.arrivals.record(now_ns, 1);
    }

    /// Counts one drain (a departure that freed a slot) at `now_ns`.
    pub fn on_drain(&mut self, now_ns: u64) {
        self.drains.record(now_ns, 1);
    }

    /// Re-judges the arrival/drain balance at `now_ns`, stepping the
    /// effective capacity at most once. Returns the decision taken, if
    /// any; callers count and trace it.
    pub fn evaluate(&mut self, now_ns: u64) -> Option<AdaptDecision> {
        let a = self.arrivals.count(now_ns);
        let d = self.drains.count(now_ns);
        if a >= MIN_ARRIVALS && a * 4 > d * 5 {
            self.overloaded = true;
            if self.capacity > self.floor {
                self.capacity = (self.capacity / 2).max(self.floor);
                return Some(AdaptDecision::Tighten);
            }
        } else if self.overloaded && a * 4 < d * 3 {
            if self.capacity < self.base {
                self.capacity = (self.capacity * 2).min(self.base);
                return Some(AdaptDecision::Relax);
            }
            self.overloaded = false;
        }
        None
    }

    /// The current effective capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True while the threshold considers the queue overloaded (set by a
    /// tighten, cleared only once capacity has relaxed back to base).
    pub fn overloaded(&self) -> bool {
        self.overloaded
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
    fn ewma_is_deterministic_integer_math() {
        let mut e = Ewma::new(1, 4);
        for s in [100, 200, 100, 50] {
            e.observe(s);
        }
        // 100 → 125 → 118 (floor) → 101: pure integer, same on every box.
        assert_eq!(e.get(), 101);
        assert_eq!(Ewma::new(1, 2).get(), 0);
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

    #[test]
    fn threshold_tightens_steps_down_and_relaxes_back() {
        let mut t = AdaptiveThreshold::new(64, 8, 4, 1_000);
        // Balanced load: nothing happens.
        for now in 0..8u64 {
            t.on_arrival(now);
            t.on_drain(now);
        }
        assert_eq!(t.evaluate(10), None);
        assert_eq!(t.capacity(), 64);
        // Sustained overload tightens stepwise down to the floor.
        for now in 10..40u64 {
            t.on_arrival(now);
        }
        assert_eq!(t.evaluate(40), Some(AdaptDecision::Tighten));
        assert_eq!(t.capacity(), 32);
        assert!(t.overloaded());
        assert_eq!(t.evaluate(41), Some(AdaptDecision::Tighten));
        assert_eq!(t.evaluate(42), Some(AdaptDecision::Tighten));
        assert_eq!(t.capacity(), 8);
        // At the floor further overload changes nothing.
        assert_eq!(t.evaluate(43), None);
        // The load clears: a full window later drains dominate → relax
        // back up to base, then the overload flag clears.
        let calm = 10_000u64;
        for i in 0..8u64 {
            t.on_drain(calm + i);
        }
        assert_eq!(t.evaluate(calm + 8), Some(AdaptDecision::Relax));
        assert_eq!(t.evaluate(calm + 9), Some(AdaptDecision::Relax));
        assert_eq!(t.evaluate(calm + 10), Some(AdaptDecision::Relax));
        assert_eq!(t.capacity(), 64);
        assert!(t.overloaded(), "flag clears only after capacity is back at base");
        assert_eq!(t.evaluate(calm + 11), None);
        assert!(!t.overloaded());
    }

    #[test]
    fn threshold_hysteresis_band_holds_steady() {
        let mut t = AdaptiveThreshold::new(16, 4, 2, 1_000);
        // Arrivals inside (0.75·d, 1.25·d]: never tightens, never relaxes.
        for now in 0..10u64 {
            t.on_arrival(now);
            t.on_drain(now);
        }
        for now in 10..20u64 {
            assert_eq!(t.evaluate(now), None);
        }
        assert_eq!(t.capacity(), 16);
        assert!(!t.overloaded());
    }
}
