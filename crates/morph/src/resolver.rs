//! Replicated meta-data resolution: failover, circuit breaking, and
//! stale-cache degradation.
//!
//! The paper's receiver-side processing (Algorithm 2) leans on an
//! out-of-band meta-data service: a cold format miss blocks on resolution,
//! so a dead or overloaded format server would stall every newly-evolved
//! exchange — even though warm paths replay cached decisions and need
//! nothing from it. This module keeps the control plane from becoming a
//! single point of failure:
//!
//! - [`ResolverPool`] spreads resolution over N [`crate::MetaServer`]
//!   replicas, round-robinning healthy endpoints and failing over when one
//!   errors.
//! - Each endpoint sits behind a **circuit breaker**
//!   (closed → open → half-open): after `failure_threshold` consecutive
//!   failures the endpoint is skipped entirely — a dead replica stops
//!   consuming retry budget — until a cooldown on the pool's [`Clock`]
//!   elapses and a half-open probe is allowed through. Cooldowns carry
//!   seeded deterministic jitter per `(endpoint, open-count)`, so replica
//!   probes desynchronize yet replay identically per seed.
//! - When *every* breaker is open, resolution fails fast with
//!   [`MorphError::Unavailable`] and [`ResolverPool::process`] degrades
//!   gracefully: warm formats keep flowing from the receiver's decision
//!   cache, while unknown-format messages are parked in a bounded
//!   [`PendingSet`] that drains automatically once a replica recovers.
//!
//! Breaker transitions are counted (`morph.breaker.open` / `.half_open` /
//! `.close` / `.rejected`) and, when a [`TraceCtx`] is supplied, recorded
//! as trace instants of the same names; the pending set mirrors its
//! activity as `morph.pending.*`. See `OBSERVABILITY.md`.

use std::collections::VecDeque;
use std::sync::Arc;

use obs::{Clock, Counter, Gauge, Registry, TraceCtx};
use pbio::{FormatId, WireBytes};

use crate::error::{MorphError, Result};
use crate::metaserver::{process_resolving, resolve_via, Endpoints, MetaClient, RetryPolicy};
use crate::receiver::{Delivery, MorphReceiver};

/// Tuning for a [`ResolverPool`]: breaker thresholds, cooldown schedule,
/// and pending-set bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverConfig {
    /// Consecutive failures that open an endpoint's breaker.
    pub failure_threshold: u32,
    /// Base cooldown before an open breaker admits a half-open probe, in
    /// nanoseconds on the pool clock.
    pub cooldown_ns: u64,
    /// Upper bound on the deterministic jitter added to each cooldown
    /// (drawn from `seed`, the endpoint index, and the open-count), so
    /// replica probes spread out instead of thundering together.
    pub probe_jitter_ns: u64,
    /// Seed for the deterministic probe-schedule jitter.
    pub seed: u64,
    /// Maximum messages parked while the control plane is unreachable;
    /// beyond it the oldest parked message is shed.
    pub pending_capacity: usize,
}

impl Default for ResolverConfig {
    /// 3 failures to open, 10 ms cooldown, ≤ 2 ms jitter, 32 parked.
    fn default() -> ResolverConfig {
        ResolverConfig {
            failure_threshold: 3,
            cooldown_ns: 10_000_000,
            probe_jitter_ns: 2_000_000,
            seed: 0,
            pending_capacity: 32,
        }
    }
}

impl ResolverConfig {
    /// The default configuration with a specific jitter seed.
    pub fn with_seed(seed: u64) -> ResolverConfig {
        ResolverConfig { seed, ..ResolverConfig::default() }
    }
}

/// A circuit breaker's position in the closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one trial request decides the fate.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        })
    }
}

/// One replica endpoint and its breaker bookkeeping.
#[derive(Debug)]
struct Endpoint {
    state: BreakerState,
    failures: u32,
    opened_at_ns: u64,
    /// Times this breaker has opened — salts the cooldown jitter so
    /// successive probe windows of one endpoint also desynchronize.
    opens: u64,
}

/// Stateless splitmix64 step, the workspace's deterministic-jitter PRNG.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded parking lot for messages whose wire format cannot be resolved
/// while the control plane is down.
///
/// Parking beyond the capacity sheds the *oldest* parked message (warm
/// drop-oldest policy) and returns its bytes so the caller can quarantine
/// them under [`crate::DeadReason::Shed`] — nothing disappears silently.
/// Activity is mirrored as `morph.pending.parked` / `.drained` /
/// `.dropped` / `.failed` counters and the `morph.pending.depth` gauge.
#[derive(Debug)]
pub struct PendingSet {
    capacity: usize,
    parked: VecDeque<(FormatId, WireBytes)>,
    parked_total: Arc<Counter>,
    drained: Arc<Counter>,
    dropped: Arc<Counter>,
    failed: Arc<Counter>,
    depth: Arc<Gauge>,
}

impl PendingSet {
    /// Creates a pending set bounded to `capacity` messages (clamped to at
    /// least one), with its metrics in `registry`.
    pub fn with_registry(capacity: usize, registry: &Registry) -> PendingSet {
        PendingSet {
            capacity: capacity.max(1),
            parked: VecDeque::new(),
            parked_total: registry.counter("morph.pending.parked"),
            drained: registry.counter("morph.pending.drained"),
            dropped: registry.counter("morph.pending.dropped"),
            failed: registry.counter("morph.pending.failed"),
            depth: registry.gauge("morph.pending.depth"),
        }
    }

    /// Parks a message awaiting `id`'s meta-data. Parking a [`WireBytes`]
    /// shares the receive buffer (no payload copy). When full, the oldest
    /// parked message is shed and returned for quarantining.
    pub fn park(&mut self, id: FormatId, bytes: impl Into<WireBytes>) -> Option<WireBytes> {
        self.parked_total.inc();
        let shed = if self.parked.len() >= self.capacity {
            self.dropped.inc();
            self.parked.pop_front().map(|(_, b)| b)
        } else {
            None
        };
        self.parked.push_back((id, bytes.into()));
        self.depth.set(self.parked.len() as i64);
        shed
    }

    /// Removes and returns the oldest parked message.
    pub fn pop(&mut self) -> Option<(FormatId, WireBytes)> {
        let front = self.parked.pop_front();
        self.depth.set(self.parked.len() as i64);
        front
    }

    /// Re-parks a message at the *front* (retains drain order) without
    /// counting a new admission — used when a drain hits a still-down
    /// control plane.
    fn unpop(&mut self, id: FormatId, bytes: WireBytes) {
        self.parked.push_front((id, bytes));
        self.depth.set(self.parked.len() as i64);
    }

    /// Messages currently parked (≤ capacity).
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// What a drain pass over the pending set accomplished.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Messages delivered exactly once out of the pending set.
    pub delivered: usize,
    /// Messages re-parked because the control plane went down again
    /// mid-drain.
    pub requeued: usize,
    /// Poison messages: resolution succeeded (or was unnecessary) but
    /// processing still failed. Returned with their error for the caller
    /// to quarantine; also counted as `morph.pending.failed`.
    pub failed: Vec<(WireBytes, MorphError)>,
}

/// How [`ResolverPool::process`] disposed of a message.
#[derive(Debug)]
pub enum PoolDelivery {
    /// Processed through the receiver (possibly after a pool resolution,
    /// which also triggered an automatic pending-set drain).
    Delivered(Delivery),
    /// The control plane is unreachable and the format unknown: the
    /// message was parked for later. When parking overflowed the pending
    /// set, `shed` carries the evicted oldest message's bytes for the
    /// caller to quarantine under [`crate::DeadReason::Shed`].
    Parked {
        /// Bytes shed from the pending set by this admission, if any.
        shed: Option<WireBytes>,
    },
}

/// A pool of replicated meta-server endpoints with per-endpoint circuit
/// breakers, round-robin failover, and a stale-cache degradation path.
///
/// The pool is transport-agnostic like [`MetaClient`]: every exchange goes
/// through a caller-supplied closure receiving `(endpoint_index, request)`
/// — the tests and examples route it over the simulated network, a real
/// deployment over sockets. Time for cooldowns comes from an explicit
/// [`Clock`], so a simulation's virtual clock makes every breaker
/// transition deterministic and replayable.
#[derive(Debug)]
pub struct ResolverPool {
    endpoints: Vec<Endpoint>,
    cursor: usize,
    cfg: ResolverConfig,
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    pending: PendingSet,
    opened: Arc<Counter>,
    half_opened: Arc<Counter>,
    closed: Arc<Counter>,
    rejected: Arc<Counter>,
    probes: Arc<Counter>,
}

impl ResolverPool {
    /// Creates a pool over `replicas` endpoints (clamped to at least one),
    /// with breaker metrics registered in `registry` and cooldowns measured
    /// on `clock`.
    pub fn new(
        replicas: usize,
        cfg: ResolverConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<Registry>,
    ) -> ResolverPool {
        let endpoints = (0..replicas.max(1))
            .map(|_| Endpoint {
                state: BreakerState::Closed,
                failures: 0,
                opened_at_ns: 0,
                opens: 0,
            })
            .collect();
        ResolverPool {
            endpoints,
            cursor: 0,
            pending: PendingSet::with_registry(cfg.pending_capacity, registry),
            cfg,
            clock,
            registry: Arc::clone(registry),
            opened: registry.counter("morph.breaker.open"),
            half_opened: registry.counter("morph.breaker.half_open"),
            closed: registry.counter("morph.breaker.close"),
            rejected: registry.counter("morph.breaker.rejected"),
            probes: registry.counter("morph.breaker.probes"),
        }
    }

    /// Number of replica endpoints.
    pub fn replicas(&self) -> usize {
        self.endpoints.len()
    }

    /// The breaker state of one endpoint.
    pub fn state(&self, endpoint: usize) -> BreakerState {
        self.endpoints[endpoint].state
    }

    /// The bounded parking lot for messages awaiting control-plane
    /// recovery.
    pub fn pending(&self) -> &PendingSet {
        &self.pending
    }

    /// True when every endpoint's breaker is open *and* still cooling
    /// down — the state in which resolution fails fast with
    /// [`MorphError::Unavailable`].
    pub fn all_open(&self) -> bool {
        let now = self.clock.now_ns();
        (0..self.endpoints.len()).all(|i| !self.endpoint_allowed(i, now))
    }

    /// This endpoint's cooldown for its current open window: the base plus
    /// deterministic jitter from `(seed, endpoint, open-count)`.
    fn cooldown_for(&self, endpoint: usize) -> u64 {
        let ep = &self.endpoints[endpoint];
        let salt = self
            .cfg
            .seed
            .wrapping_add((endpoint as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(ep.opens);
        self.cfg.cooldown_ns + splitmix(salt) % (self.cfg.probe_jitter_ns + 1)
    }

    /// Would this endpoint admit a request at `now` (without mutating it)?
    fn endpoint_allowed(&self, endpoint: usize, now_ns: u64) -> bool {
        let ep = &self.endpoints[endpoint];
        match ep.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                now_ns >= ep.opened_at_ns.saturating_add(self.cooldown_for(endpoint))
            }
        }
    }

    fn instant(&self, name: &str, endpoint: usize, ctx: Option<TraceCtx>) {
        if let (Some(rec), Some(c)) = (self.registry.recorder(), ctx) {
            rec.instant(c.trace, c.parent, name, &[("endpoint", &endpoint.to_string())]);
        }
    }

    /// Moves an open endpoint to half-open (cooldown elapsed).
    fn half_open(&mut self, endpoint: usize, ctx: Option<TraceCtx>) {
        self.endpoints[endpoint].state = BreakerState::HalfOpen;
        self.half_opened.inc();
        self.instant("morph.breaker.half_open", endpoint, ctx);
    }

    /// Health-checks every endpoint currently admissible (closed,
    /// half-open, or open with an elapsed cooldown) by exchanging a cheap
    /// liveness request, updating breakers from the outcome. Returns the
    /// number of endpoints that answered.
    ///
    /// Probes are counted as `morph.breaker.probes`; call this on a timer
    /// (virtual or real) for background health checking, then
    /// [`ResolverPool::drain`] to recover parked messages.
    pub fn probe<E>(&mut self, mut exchange: E, ctx: Option<TraceCtx>) -> usize
    where
        E: FnMut(usize, Vec<u8>) -> Result<Vec<u8>>,
    {
        let now = self.clock.now_ns();
        let mut healthy = 0;
        for i in 0..self.endpoints.len() {
            if !self.endpoint_allowed(i, now) {
                continue;
            }
            if self.endpoints[i].state == BreakerState::Open {
                self.half_open(i, ctx);
            }
            self.probes.inc();
            // A liveness ping: any well-formed answer (even "not found")
            // proves the replica is up.
            match exchange(i, MetaClient::want_format(FormatId(0))) {
                Ok(_) => {
                    self.on_success(i, ctx);
                    healthy += 1;
                }
                Err(_) => self.on_failure(i, ctx),
            }
        }
        healthy
    }

    /// [`crate::resolve_into_with_retry`] over the replica pool: each
    /// round-trip goes to the next admissible endpoint (round-robin with
    /// failover), failures trip that endpoint's breaker, and backoffs under
    /// `policy` separate retry rounds.
    ///
    /// # Errors
    ///
    /// [`MorphError::Unavailable`] *immediately* once every breaker is open
    /// — a dead control plane does not consume the retry budget;
    /// [`MorphError::RetryExhausted`] when live endpoints kept failing past
    /// `policy.budget`; protocol errors propagate unchanged.
    pub fn resolve<E, S>(
        &mut self,
        rx: &mut MorphReceiver,
        id: FormatId,
        policy: &RetryPolicy,
        mut exchange: E,
        mut sleep: S,
        ctx: Option<TraceCtx>,
    ) -> Result<Option<usize>>
    where
        E: FnMut(usize, Vec<u8>) -> Result<Vec<u8>>,
        S: FnMut(u64),
    {
        resolve_via(rx, id, policy, self, &mut exchange, &mut sleep, ctx)
    }

    /// Re-processes parked messages, oldest first, resolving their formats
    /// through the pool as needed. Each message leaves the pending set
    /// exactly once: delivered, re-parked in place when the control plane
    /// is (still) down, or returned in [`DrainReport::failed`] as poison.
    pub fn drain<E, S>(
        &mut self,
        rx: &mut MorphReceiver,
        policy: &RetryPolicy,
        mut exchange: E,
        mut sleep: S,
        ctx: Option<TraceCtx>,
    ) -> DrainReport
    where
        E: FnMut(usize, Vec<u8>) -> Result<Vec<u8>>,
        S: FnMut(u64),
    {
        let mut report = DrainReport::default();
        while let Some((id, bytes)) = self.pending.pop() {
            let outcome = process_resolving(rx, &bytes, ctx, |rx, id| {
                self.resolve(rx, id, policy, &mut exchange, &mut sleep, ctx)
            });
            match outcome {
                Ok(_) => {
                    self.pending.drained.inc();
                    report.delivered += 1;
                }
                Err(MorphError::Unavailable(_)) => {
                    // Still down: keep the message, stop draining.
                    self.pending.unpop(id, bytes);
                    report.requeued = self.pending.len();
                    return report;
                }
                Err(e) => {
                    self.pending.failed.inc();
                    report.failed.push((bytes, e));
                }
            }
        }
        report
    }

    /// The full graceful-degradation pipeline for one message:
    ///
    /// 1. Warm formats replay the receiver's cached decision — no pool
    ///    traffic, unaffected by control-plane death.
    /// 2. An unknown format resolves through the pool — failover, breakers,
    ///    and `policy` retries. Success also drains the pending set: the
    ///    automatic recovery moment after a half-open probe heals.
    /// 3. When every breaker is open the message is parked instead
    ///    ([`PoolDelivery::Parked`]); an overflowing park sheds the oldest
    ///    parked message and hands its bytes back for quarantining.
    ///
    /// # Errors
    ///
    /// Non-availability errors (decode failures, unknown-to-every-server
    /// formats, exhausted retries against live-but-failing replicas)
    /// propagate for the caller to quarantine.
    pub fn process<E, S>(
        &mut self,
        rx: &mut MorphReceiver,
        msg: &[u8],
        policy: &RetryPolicy,
        mut exchange: E,
        mut sleep: S,
        ctx: Option<TraceCtx>,
    ) -> Result<PoolDelivery>
    where
        E: FnMut(usize, Vec<u8>) -> Result<Vec<u8>>,
        S: FnMut(u64),
    {
        let mut unknown = None;
        let outcome = process_resolving(rx, msg, ctx, |rx, id| {
            unknown = Some(id);
            self.resolve(rx, id, policy, &mut exchange, &mut sleep, ctx)
        });
        match (outcome, unknown) {
            (Err(MorphError::Unavailable(_)), Some(id)) => {
                Ok(PoolDelivery::Parked { shed: self.pending.park(id, msg) })
            }
            (Ok(d), Some(_)) if !self.pending.is_empty() => {
                // The control plane just answered: recover anything parked
                // during the outage. Poison messages were already counted
                // (`morph.pending.failed`).
                let _ = self.drain(rx, policy, &mut exchange, &mut sleep, ctx);
                Ok(PoolDelivery::Delivered(d))
            }
            (outcome, _) => outcome.map(PoolDelivery::Delivered),
        }
    }
}

/// The replica-pool endpoint policy: round-robin over the endpoints whose
/// breaker admits a request, breakers fed by every outcome, and
/// [`MorphError::Unavailable`] when none admits one.
impl Endpoints for ResolverPool {
    fn tried(&self) -> &'static str {
        " across replicas"
    }

    /// Picks the next admissible endpoint round-robin, transitioning
    /// cooled-down open breakers to half-open on the way. Unavailable when
    /// every breaker rejects — counted as `morph.breaker.rejected`.
    fn pick(&mut self, ctx: Option<TraceCtx>) -> Result<usize> {
        let now = self.clock.now_ns();
        let n = self.endpoints.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if !self.endpoint_allowed(i, now) {
                continue;
            }
            if self.endpoints[i].state == BreakerState::Open {
                self.half_open(i, ctx);
            }
            self.cursor = (i + 1) % n;
            return Ok(i);
        }
        self.rejected.inc();
        if let (Some(rec), Some(c)) = (self.registry.recorder(), ctx) {
            rec.instant(c.trace, c.parent, "morph.breaker.rejected", &[]);
        }
        Err(MorphError::Unavailable(format!(
            "all {n} meta-server replicas have open circuit breakers"
        )))
    }

    /// Records a successful exchange: resets the failure count and closes
    /// a non-closed breaker.
    fn on_success(&mut self, endpoint: usize, ctx: Option<TraceCtx>) {
        let ep = &mut self.endpoints[endpoint];
        ep.failures = 0;
        if ep.state != BreakerState::Closed {
            ep.state = BreakerState::Closed;
            self.closed.inc();
            self.instant("morph.breaker.close", endpoint, ctx);
        }
    }

    /// Records a failed exchange: a half-open trial failure or reaching the
    /// threshold re-opens the breaker.
    fn on_failure(&mut self, endpoint: usize, ctx: Option<TraceCtx>) {
        let now = self.clock.now_ns();
        let ep = &mut self.endpoints[endpoint];
        ep.failures += 1;
        let trip = ep.state == BreakerState::HalfOpen || ep.failures >= self.cfg.failure_threshold;
        if trip && ep.state != BreakerState::Open {
            ep.state = BreakerState::Open;
            ep.opened_at_ns = now;
            ep.opens += 1;
            self.opened.inc();
            self.instant("morph.breaker.open", endpoint, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::VirtualClock;
    use pbio::{format_id, Encoder, FormatBuilder, RecordFormat, Value};
    use std::sync::Mutex;

    use crate::metaserver::MetaServer;
    use crate::xform::Transformation;

    fn v2() -> Arc<RecordFormat> {
        FormatBuilder::record("Msg").int("a").int("b").build_arc().unwrap()
    }

    fn v1() -> Arc<RecordFormat> {
        FormatBuilder::record("Msg").int("sum").build_arc().unwrap()
    }

    fn xform() -> Transformation {
        Transformation::new(v2(), v1(), "old.sum = new.a + new.b;")
    }

    fn seeded_server() -> Mutex<MetaServer> {
        let server = Mutex::new(MetaServer::new());
        server.lock().unwrap().register_transformation(xform());
        server
    }

    fn wire(a: i64, b: i64) -> Vec<u8> {
        Encoder::new(&v2()).encode(&Value::Record(vec![Value::Int(a), Value::Int(b)])).unwrap()
    }

    fn pool_on(clock: &Arc<VirtualClock>, replicas: usize, rx: &MorphReceiver) -> ResolverPool {
        let cfg = ResolverConfig { pending_capacity: 4, ..ResolverConfig::with_seed(7) };
        ResolverPool::new(replicas, cfg, Arc::<VirtualClock>::clone(clock) as _, rx.registry())
    }

    #[test]
    fn failover_skips_a_dead_replica_and_opens_its_breaker() {
        let clock = Arc::new(VirtualClock::new());
        let server = seeded_server();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let mut pool = pool_on(&clock, 2, &rx);
        let policy = RetryPolicy::with_seed(1);

        let mut calls = [0u32; 2];
        let installed = pool
            .resolve(
                &mut rx,
                format_id(&v2()),
                &policy,
                |ep, req| {
                    calls[ep] += 1;
                    if ep == 0 {
                        Err(MorphError::Config("replica 0 dead".into()))
                    } else {
                        server.lock().unwrap().handle(&req)
                    }
                },
                |_ns| {},
                None,
            )
            .unwrap();
        assert_eq!(installed, Some(1));
        assert!(matches!(rx.process(&wire(40, 2)).unwrap(), Delivery::Delivered(_)));
        // The dead replica tripped after `failure_threshold` failures and
        // took no more traffic.
        assert_eq!(pool.state(0), BreakerState::Open);
        assert_eq!(pool.state(1), BreakerState::Closed);
        assert_eq!(calls[0], 3, "threshold failures, then skipped");
        assert!(calls[1] >= 2, "format + transformation round-trips failed over");
        assert_eq!(rx.registry().snapshot().counter("morph.breaker.open"), Some(1));
    }

    #[test]
    fn all_breakers_open_fail_fast_without_consuming_budget() {
        let clock = Arc::new(VirtualClock::new());
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let mut pool = pool_on(&clock, 2, &rx);
        let policy = RetryPolicy { budget: 100, ..RetryPolicy::with_seed(1) };

        let calls = std::cell::Cell::new(0u32);
        let down = |_ep: usize, _req: Vec<u8>| -> Result<Vec<u8>> {
            calls.set(calls.get() + 1);
            Err(MorphError::Config("down".into()))
        };
        let err = pool.resolve(&mut rx, FormatId(9), &policy, down, |_ns| {}, None).unwrap_err();
        assert!(matches!(err, MorphError::Unavailable(_)));
        // 2 replicas × threshold 3 = 6 exchanges, far below the budget of
        // 100 — dead replicas stop consuming retries.
        assert_eq!(calls.get(), 6);
        assert!(pool.all_open());

        // While open and cooling, not a single byte goes out.
        let err = pool.resolve(&mut rx, FormatId(9), &policy, down, |_ns| {}, None).unwrap_err();
        assert!(matches!(err, MorphError::Unavailable(_)));
        assert_eq!(calls.get(), 6, "open breakers reject without an exchange");
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.breaker.open"), Some(2));
        assert!(snap.counter("morph.breaker.rejected").unwrap() >= 1);
    }

    #[test]
    fn half_open_probe_heals_and_closes_the_breaker() {
        let clock = Arc::new(VirtualClock::new());
        let server = seeded_server();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let mut pool = pool_on(&clock, 1, &rx);
        let policy = RetryPolicy::with_seed(1);

        let up = std::cell::Cell::new(false);
        let exchange = |_ep: usize, req: Vec<u8>| -> Result<Vec<u8>> {
            if up.get() {
                server.lock().unwrap().handle(&req)
            } else {
                Err(MorphError::Config("down".into()))
            }
        };
        let err =
            pool.resolve(&mut rx, format_id(&v2()), &policy, exchange, |_ns| {}, None).unwrap_err();
        assert!(matches!(err, MorphError::Unavailable(_)));
        assert_eq!(pool.state(0), BreakerState::Open);

        // The cooldown (base + jitter) elapses on the virtual clock; the
        // replica comes back.
        up.set(true);
        let cfg = ResolverConfig::with_seed(7);
        clock.advance_ns(cfg.cooldown_ns + cfg.probe_jitter_ns + 1);
        assert!(!pool.all_open(), "cooldown elapsed: a probe is admitted");
        let installed =
            pool.resolve(&mut rx, format_id(&v2()), &policy, exchange, |_ns| {}, None).unwrap();
        assert_eq!(installed, Some(1));
        assert_eq!(pool.state(0), BreakerState::Closed);
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.breaker.half_open"), Some(1));
        assert_eq!(snap.counter("morph.breaker.close"), Some(1));
    }

    #[test]
    fn half_open_trial_failure_reopens_immediately() {
        let clock = Arc::new(VirtualClock::new());
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let mut pool = pool_on(&clock, 1, &rx);
        let policy = RetryPolicy { budget: 0, ..RetryPolicy::with_seed(1) };

        let mut down = |_ep: usize, _req: Vec<u8>| -> Result<Vec<u8>> {
            Err(MorphError::Config("still down".into()))
        };
        for _ in 0..3 {
            let _ = pool.resolve(&mut rx, FormatId(9), &policy, &mut down, |_ns| {}, None);
        }
        assert_eq!(pool.state(0), BreakerState::Open);
        clock.advance_ns(ResolverConfig::default().cooldown_ns + 3_000_000);
        // One half-open trial fails: straight back to open, one exchange.
        let err =
            pool.resolve(&mut rx, FormatId(9), &policy, &mut down, |_ns| {}, None).unwrap_err();
        assert!(matches!(err, MorphError::RetryExhausted(_)));
        assert_eq!(pool.state(0), BreakerState::Open);
    }

    #[test]
    fn probe_health_checks_and_recovers_endpoints() {
        let clock = Arc::new(VirtualClock::new());
        let server = seeded_server();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let mut pool = pool_on(&clock, 2, &rx);

        // Healthy pool: both answer the liveness ping.
        let healthy = pool.probe(|_ep, req| server.lock().unwrap().handle(&req), None);
        assert_eq!(healthy, 2);

        // Kill both via repeated probe failures (threshold 3).
        for _ in 0..3 {
            let _ = pool.probe(|_ep, _req| Err(MorphError::Config("down".into())), None);
        }
        assert!(pool.all_open());
        assert_eq!(pool.probe(|_ep, req| server.lock().unwrap().handle(&req), None), 0);

        // Past the cooldown the probe goes through half-open and closes.
        let cfg = ResolverConfig::with_seed(7);
        clock.advance_ns(cfg.cooldown_ns + cfg.probe_jitter_ns + 1);
        let healthy = pool.probe(|_ep, req| server.lock().unwrap().handle(&req), None);
        assert_eq!(healthy, 2);
        assert_eq!(pool.state(0), BreakerState::Closed);
        assert_eq!(pool.state(1), BreakerState::Closed);
    }

    #[test]
    fn outage_parks_then_drains_exactly_once_on_recovery() {
        let clock = Arc::new(VirtualClock::new());
        let server = seeded_server();
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), move |v| sink.lock().unwrap().push(v));
        let mut pool = pool_on(&clock, 2, &rx);
        let policy = RetryPolicy::with_seed(1);
        let up = std::cell::Cell::new(false);
        let exchange = |_ep: usize, req: Vec<u8>| -> Result<Vec<u8>> {
            if up.get() {
                server.lock().unwrap().handle(&req)
            } else {
                Err(MorphError::Config("outage".into()))
            }
        };

        // Control plane down: unknown-format messages park, none error.
        for (a, b) in [(1, 2), (3, 4)] {
            let d = pool.process(&mut rx, &wire(a, b), &policy, exchange, |_ns| {}, None).unwrap();
            assert!(matches!(d, PoolDelivery::Parked { shed: None }));
        }
        assert_eq!(pool.pending().len(), 2);
        assert!(got.lock().unwrap().is_empty());

        // Heal; a fresh message resolves and auto-drains the backlog.
        up.set(true);
        let cfg = ResolverConfig::with_seed(7);
        clock.advance_ns(cfg.cooldown_ns + cfg.probe_jitter_ns + 1);
        let d = pool.process(&mut rx, &wire(5, 6), &policy, exchange, |_ns| {}, None).unwrap();
        assert!(matches!(d, PoolDelivery::Delivered(Delivery::Delivered(_))));
        assert!(pool.pending().is_empty());
        // Every message exactly once: the fresh one first, then the parked
        // backlog oldest-first.
        let sums: Vec<Value> = got.lock().unwrap().clone();
        assert_eq!(
            sums,
            vec![
                Value::Record(vec![Value::Int(11)]),
                Value::Record(vec![Value::Int(3)]),
                Value::Record(vec![Value::Int(7)]),
            ]
        );
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.pending.parked"), Some(2));
        assert_eq!(snap.counter("morph.pending.drained"), Some(2));
        assert_eq!(snap.gauge("morph.pending.depth"), Some(0));
    }

    #[test]
    fn pending_overflow_sheds_oldest_for_quarantining() {
        let reg = Arc::new(Registry::new());
        let mut pending = PendingSet::with_registry(2, &reg);
        assert!(pending.park(FormatId(1), b"m1").is_none());
        assert!(pending.park(FormatId(2), b"m2").is_none());
        let shed = pending.park(FormatId(3), b"m3");
        assert_eq!(shed.as_deref(), Some(&b"m1"[..]), "oldest message shed");
        assert_eq!(pending.len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("morph.pending.parked"), Some(3));
        assert_eq!(snap.counter("morph.pending.dropped"), Some(1));
        assert_eq!(snap.gauge("morph.pending.depth"), Some(2));
        // Drain order preserved for the survivors.
        assert_eq!(pending.pop().unwrap().0, FormatId(2));
        assert_eq!(pending.pop().unwrap().0, FormatId(3));
    }

    #[test]
    fn warm_traffic_flows_while_every_breaker_is_open() {
        let clock = Arc::new(VirtualClock::new());
        let server = seeded_server();
        let got = Arc::new(Mutex::new(0usize));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), move |_v| *sink.lock().unwrap() += 1);
        let mut pool = pool_on(&clock, 3, &rx);
        let policy = RetryPolicy::with_seed(1);

        // Warm the cache while the control plane is healthy.
        let d = pool
            .process(
                &mut rx,
                &wire(1, 1),
                &policy,
                |_ep, req| server.lock().unwrap().handle(&req),
                |_ns| {},
                None,
            )
            .unwrap();
        assert!(matches!(d, PoolDelivery::Delivered(_)));

        // Kill the whole control plane.
        let mut dead = |_ep: usize, _req: Vec<u8>| -> Result<Vec<u8>> {
            Err(MorphError::Config("dead".into()))
        };
        let _ = pool.resolve(&mut rx, FormatId(999), &policy, &mut dead, |_ns| {}, None);
        assert!(pool.all_open());

        // Warm messages still deliver, with zero exchanges.
        let mut calls = 0u32;
        for _ in 0..10 {
            let d = pool
                .process(
                    &mut rx,
                    &wire(2, 2),
                    &policy,
                    |_ep: usize, _req: Vec<u8>| -> Result<Vec<u8>> {
                        calls += 1;
                        Err(MorphError::Config("dead".into()))
                    },
                    |_ns| {},
                    None,
                )
                .unwrap();
            assert!(matches!(d, PoolDelivery::Delivered(_)));
        }
        assert_eq!(calls, 0, "stale-cache serving needs no control plane");
        assert_eq!(*got.lock().unwrap(), 11);
    }

    #[test]
    fn probe_schedules_are_deterministic_per_seed_and_desynchronized() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Arc::new(Registry::new());
        let mk = |seed| {
            ResolverPool::new(
                3,
                ResolverConfig::with_seed(seed),
                Arc::<VirtualClock>::clone(&clock) as _,
                &reg,
            )
        };
        let a = mk(42);
        let b = mk(42);
        let c = mk(43);
        let cooldowns = |p: &ResolverPool| (0..3).map(|i| p.cooldown_for(i)).collect::<Vec<_>>();
        assert_eq!(cooldowns(&a), cooldowns(&b), "same seed, same schedule");
        assert_ne!(cooldowns(&a), cooldowns(&c), "different seed, different schedule");
        let ca = cooldowns(&a);
        assert!(ca.windows(2).any(|w| w[0] != w[1]), "replica probes desynchronize");
        let base = ResolverConfig::default();
        for &c in &ca {
            assert!(c >= base.cooldown_ns && c <= base.cooldown_ns + base.probe_jitter_ns);
        }
    }
}
