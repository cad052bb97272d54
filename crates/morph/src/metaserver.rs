//! The format server: PBIO's out-of-band meta-data distribution service.
//!
//! The paper assumes format descriptions and their retro-transformations
//! reach receivers out of band ("the Protocol Y message meta-data includes
//! a specification of how to transform it", §3.1). In deployed PBIO
//! systems that job belongs to a *format server*: writers register their
//! meta-data once; any receiver that sees an unknown [`FormatId`] asks the
//! server and caches the answer.
//!
//! [`MetaServer`] and [`MetaClient`] implement that protocol over plain
//! byte messages, so they run over any transport (the integration tests
//! drive them over simulated-network request/response exchanges). The
//! client plugs into a [`crate::MorphReceiver`] through
//! [`MetaClient::resolve_into`] and [`process_with_resolution`].
//!
//! Wire protocol (all integers little-endian):
//!
//! ```text
//! request  := 0x01 format_id(u64)            ; want format meta-data
//!           | 0x02 format_id(u64)            ; want transformations FROM id
//!           | 0x03 len(u32) format_meta      ; register a format
//!           | 0x04 len(u32) xform_meta       ; register a transformation
//! response := 0x81 len(u32) format_meta      ; format found
//!           | 0x82 count(u32) {len(u32) xform_meta}*  ; transformations
//!           | 0x8e                           ; not found
//!           | 0x8f                           ; ack
//! ```

use std::sync::Arc;

use obs::TraceCtx;
use pbio::{
    deserialize_format, format_id, put_chunk, serialize_format, take_chunk, take_u32, FormatId,
    FormatRegistry, RecordFormat,
};

use crate::error::{MorphError, Result};
use crate::receiver::{Delivery, MorphReceiver};
use crate::xform::{Transformation, TransformationRegistry};

/// Request tag: fetch a format description by id.
pub const REQ_FORMAT: u8 = 0x01;
/// Request tag: fetch the transformations whose source is the given id.
pub const REQ_XFORMS: u8 = 0x02;
/// Request tag: register a format description.
pub const REQ_REGISTER_FORMAT: u8 = 0x03;
/// Request tag: register a transformation.
pub const REQ_REGISTER_XFORM: u8 = 0x04;
/// Response tag: a format description follows.
pub const RESP_FORMAT: u8 = 0x81;
/// Response tag: a list of transformations follows.
pub const RESP_XFORMS: u8 = 0x82;
/// Response tag: the id is unknown to the server.
pub const RESP_NOT_FOUND: u8 = 0x8e;
/// Response tag: registration accepted.
pub const RESP_ACK: u8 = 0x8f;

fn bad(msg: &str) -> MorphError {
    MorphError::Protocol(msg.to_string())
}

/// The length-prefixed chunk at `*pos`; a protocol error when it is cut short.
fn chunk<'b>(bytes: &'b [u8], pos: &mut usize) -> Result<&'b [u8]> {
    take_chunk(bytes, pos).ok_or_else(|| bad("truncated chunk"))
}

/// The server side: a registry of formats and transformations answering
/// byte-encoded requests. Transport-agnostic and purely request/response.
#[derive(Debug, Default)]
pub struct MetaServer {
    formats: FormatRegistry,
    xforms: TransformationRegistry,
    served: u64,
}

impl MetaServer {
    /// Creates an empty server.
    pub fn new() -> MetaServer {
        MetaServer::default()
    }

    /// Registers a format directly (server-side bootstrap).
    pub fn register_format(&mut self, format: Arc<RecordFormat>) -> FormatId {
        self.formats.register(format)
    }

    /// Registers a transformation directly (server-side bootstrap). Both
    /// endpoint formats become known.
    pub fn register_transformation(&mut self, t: Transformation) {
        self.formats.register(Arc::clone(t.from_format()));
        self.formats.register(Arc::clone(t.to_format()));
        self.xforms.register(t);
    }

    /// Number of requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.served
    }

    /// Handles one request message, producing the response message.
    ///
    /// # Errors
    ///
    /// Returns an error only for *malformed* requests; lookups that miss
    /// answer with [`RESP_NOT_FOUND`].
    pub fn handle(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.served += 1;
        let (&tag, rest) = request.split_first().ok_or_else(|| bad("empty request"))?;
        match tag {
            REQ_FORMAT => {
                let Ok(raw) = <[u8; 8]>::try_from(rest) else {
                    return Err(bad("REQ_FORMAT wants exactly a u64 id"));
                };
                let id = FormatId(u64::from_le_bytes(raw));
                match self.formats.lookup(id) {
                    Ok(fmt) => {
                        let mut out = vec![RESP_FORMAT];
                        put_chunk(&mut out, &serialize_format(&fmt));
                        Ok(out)
                    }
                    Err(_) => Ok(vec![RESP_NOT_FOUND]),
                }
            }
            REQ_XFORMS => {
                let Ok(raw) = <[u8; 8]>::try_from(rest) else {
                    return Err(bad("REQ_XFORMS wants exactly a u64 id"));
                };
                let id = FormatId(u64::from_le_bytes(raw));
                let ts = self.xforms.outgoing(id);
                let mut out = vec![RESP_XFORMS];
                out.extend_from_slice(&(ts.len() as u32).to_le_bytes());
                for t in ts {
                    put_chunk(&mut out, &t.serialize());
                }
                Ok(out)
            }
            REQ_REGISTER_FORMAT => {
                let fmt = deserialize_format(chunk(rest, &mut 0)?)?;
                self.formats.register(Arc::new(fmt));
                Ok(vec![RESP_ACK])
            }
            REQ_REGISTER_XFORM => {
                let t = Transformation::deserialize(chunk(rest, &mut 0)?)?;
                self.register_transformation(t);
                Ok(vec![RESP_ACK])
            }
            t => Err(bad(&format!("unknown request tag {t:#x}"))),
        }
    }
}

/// The client side: builds requests, parses responses, and installs the
/// results into a [`MorphReceiver`].
#[derive(Debug, Default)]
pub struct MetaClient;

impl MetaClient {
    /// Request bytes asking for the format with this id.
    pub fn want_format(id: FormatId) -> Vec<u8> {
        let mut out = vec![REQ_FORMAT];
        out.extend_from_slice(&id.0.to_le_bytes());
        out
    }

    /// Request bytes asking for the transformations out of this id.
    pub fn want_transformations(id: FormatId) -> Vec<u8> {
        let mut out = vec![REQ_XFORMS];
        out.extend_from_slice(&id.0.to_le_bytes());
        out
    }

    /// Request bytes registering a format (writer-side announcement).
    pub fn register_format(format: &RecordFormat) -> Vec<u8> {
        let mut out = vec![REQ_REGISTER_FORMAT];
        put_chunk(&mut out, &serialize_format(format));
        out
    }

    /// Request bytes registering a transformation (writer-side
    /// announcement of the retro-transformation shipped with a new format).
    pub fn register_transformation(t: &Transformation) -> Vec<u8> {
        let mut out = vec![REQ_REGISTER_XFORM];
        put_chunk(&mut out, &t.serialize());
        out
    }

    /// Parses a format response.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed responses; `Ok(None)` for
    /// [`RESP_NOT_FOUND`].
    pub fn parse_format(response: &[u8]) -> Result<Option<RecordFormat>> {
        let (&tag, rest) = response.split_first().ok_or_else(|| bad("empty response"))?;
        match tag {
            RESP_NOT_FOUND => Ok(None),
            RESP_FORMAT => Ok(Some(deserialize_format(chunk(rest, &mut 0)?)?)),
            t => Err(bad(&format!("unexpected response tag {t:#x}"))),
        }
    }

    /// Parses a transformations response.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed responses.
    pub fn parse_transformations(response: &[u8]) -> Result<Vec<Transformation>> {
        let (&tag, rest) = response.split_first().ok_or_else(|| bad("empty response"))?;
        if tag != RESP_XFORMS {
            return Err(bad(&format!("unexpected response tag {tag:#x}")));
        }
        let mut pos = 0;
        let n = take_u32(rest, &mut pos).ok_or_else(|| bad("truncated length"))?;
        let mut out = Vec::new(); // `n` comes off the wire and sizes no reservation
        for _ in 0..n {
            out.push(Transformation::deserialize(chunk(rest, &mut pos)?)?);
        }
        Ok(out)
    }

    /// Resolves an unknown wire format against a server (synchronously, via
    /// the caller-supplied `exchange` transport closure) and installs the
    /// format plus every transformation reachable from it into `rx`.
    /// Returns how many transformations were installed, or `Ok(None)` if
    /// the server does not know the format either.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol errors from `exchange`.
    pub fn resolve_into<E>(
        rx: &mut MorphReceiver,
        id: FormatId,
        mut exchange: E,
    ) -> Result<Option<usize>>
    where
        E: FnMut(Vec<u8>) -> Result<Vec<u8>>,
    {
        let resp = exchange(Self::want_format(id))?;
        let Some(fmt) = Self::parse_format(&resp)? else {
            return Ok(None);
        };
        let fmt = Arc::new(fmt);
        rx.import_format(Arc::clone(&fmt));
        // Pull the transformation closure breadth-first so multi-hop
        // revision chains (Fig. 1) resolve in one pass.
        let mut installed = 0;
        let mut frontier = vec![format_id(&fmt)];
        let mut seen = vec![format_id(&fmt)];
        while let Some(cur) = frontier.pop() {
            let resp = exchange(Self::want_transformations(cur))?;
            for t in Self::parse_transformations(&resp)? {
                let to = t.to_id();
                rx.import_transformation(t);
                installed += 1;
                if !seen.contains(&to) {
                    seen.push(to);
                    frontier.push(to);
                }
            }
        }
        Ok(Some(installed))
    }
}

/// Retry policy for meta-data exchanges over lossy transports: a bounded
/// number of re-attempts with capped exponential backoff and deterministic
/// jitter.
///
/// The backoff for attempt `n` (0-based) is
/// `min(max_backoff_ns, base_backoff_ns << n)` plus up to 50% jitter drawn
/// from `jitter_seed` — deterministic, so simulated-time tests replay
/// byte-for-byte, while distinct seeds (e.g. per node) still desynchronize
/// retry storms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts allowed after the first try (budget 0 = fail fast).
    pub budget: u32,
    /// Backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff ceiling, in nanoseconds.
    pub max_backoff_ns: u64,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 8 retries, 1 ms base, 50 ms cap.
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 8,
            base_backoff_ns: 1_000_000,
            max_backoff_ns: 50_000_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a specific jitter seed.
    pub fn with_seed(jitter_seed: u64) -> RetryPolicy {
        RetryPolicy { jitter_seed, ..RetryPolicy::default() }
    }

    /// Backoff (including jitter) before retry number `attempt` (0-based).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        // `checked_shl` only rejects shift *amounts* ≥ 64 — bits shifted
        // past the top are silently discarded, which would collapse the
        // backoff to ~0 (a hot retry spin) once `attempt` clears the base's
        // leading zeros. Saturate straight to the cap instead.
        let exp = if attempt >= self.base_backoff_ns.leading_zeros() {
            self.max_backoff_ns
        } else {
            (self.base_backoff_ns << attempt).min(self.max_backoff_ns)
        };
        // splitmix64 of (seed, attempt): stateless, deterministic jitter.
        let mut z =
            self.jitter_seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        exp.saturating_add(z % (exp / 2 + 1))
    }
}

/// Where the exchanges of one resolution go, and what their outcomes mean
/// for the next one — the policy [`resolve_via`] is parameterised by.
pub(crate) trait Endpoints {
    /// What the exhaustion error says was tried, after "failed N times".
    fn tried(&self) -> &'static str;
    /// The endpoint for the next exchange. An error ends the resolution
    /// there and then, without spending retry budget.
    fn pick(&mut self, ctx: Option<TraceCtx>) -> Result<usize>;
    /// The exchange with `endpoint` was answered.
    fn on_success(&mut self, endpoint: usize, ctx: Option<TraceCtx>);
    /// The exchange with `endpoint` failed.
    fn on_failure(&mut self, endpoint: usize, ctx: Option<TraceCtx>);
}

/// The one-server policy: always endpoint 0, always willing.
struct OneServer;

impl Endpoints for OneServer {
    fn tried(&self) -> &'static str {
        ""
    }
    fn pick(&mut self, _: Option<TraceCtx>) -> Result<usize> {
        Ok(0)
    }
    fn on_success(&mut self, _: usize, _: Option<TraceCtx>) {}
    fn on_failure(&mut self, _: usize, _: Option<TraceCtx>) {}
}

/// The resolution loop: [`MetaClient::resolve_into`] with every round-trip
/// sent to the endpoint `endpoints` picks and retried under `policy` — a
/// failed attempt waits out the backoff (the caller-supplied `sleep`, e.g.
/// advancing a simulated clock) and tries again until the budget is spent.
/// Progress is counted on the receiver's registry as
/// `morph.resolve.attempts` / `.retries` / `.resolved` / `.failures`; when
/// `ctx` is given and that registry has a recorder attached, the whole
/// resolution (every round-trip, every backoff) is one `morph.resolve` span
/// tagged with the total attempt count and the outcome (`resolved` /
/// `unknown` / `unavailable` / `failed`), and the endpoint policy records
/// under it.
pub(crate) fn resolve_via(
    rx: &mut MorphReceiver,
    id: FormatId,
    policy: &RetryPolicy,
    endpoints: &mut dyn Endpoints,
    exchange: &mut dyn FnMut(usize, Vec<u8>) -> Result<Vec<u8>>,
    sleep: &mut dyn FnMut(u64),
    ctx: Option<TraceCtx>,
) -> Result<Option<usize>> {
    let registry = Arc::clone(rx.registry());
    let span = ctx
        .and_then(|c| registry.recorder().map(|r| (r, c)))
        .map(|(r, c)| r.start(c.trace, c.parent, "morph.resolve"));
    let inner = span.as_ref().map(|s| s.ctx()).or(ctx);
    let attempts = registry.counter("morph.resolve.attempts");
    let retries = registry.counter("morph.resolve.retries");
    let resolved = registry.counter("morph.resolve.resolved");
    let failures = registry.counter("morph.resolve.failures");
    let mut tried = 0u64;
    let result = MetaClient::resolve_into(rx, id, |req| {
        let mut attempt = 0u32;
        loop {
            let endpoint = endpoints.pick(inner)?;
            attempts.inc();
            tried += 1;
            match exchange(endpoint, req.clone()) {
                Ok(resp) => {
                    endpoints.on_success(endpoint, inner);
                    return Ok(resp);
                }
                Err(e) => {
                    endpoints.on_failure(endpoint, inner);
                    if attempt >= policy.budget {
                        return Err(MorphError::RetryExhausted(format!(
                            "meta exchange failed {} times{}, last: {e}",
                            attempt + 1,
                            endpoints.tried()
                        )));
                    }
                    retries.inc();
                    sleep(policy.backoff_ns(attempt));
                    attempt += 1;
                }
            }
        }
    });
    let (outcome, counted) = match &result {
        Ok(Some(_)) => ("resolved", Some(resolved)),
        Ok(None) => ("unknown", None),
        Err(MorphError::Unavailable(_)) => ("unavailable", Some(failures)),
        Err(_) => ("failed", Some(failures)),
    };
    if let Some(counter) = counted {
        counter.inc();
    }
    if let Some(mut s) = span {
        s.tag("attempts", &tried.to_string());
        s.tag("outcome", outcome);
        s.finish();
    }
    result
}

/// Like [`MetaClient::resolve_into`], but each round-trip of the exchange
/// is retried under `policy`, with progress counted as
/// `morph.resolve.attempts` / `.retries` / `.resolved` / `.failures` on the
/// receiver's registry.
///
/// # Errors
///
/// [`MorphError::RetryExhausted`] once a single round-trip has failed
/// `policy.budget + 1` times; protocol errors from response parsing
/// propagate unchanged.
pub fn resolve_into_with_retry<E, S>(
    rx: &mut MorphReceiver,
    id: FormatId,
    policy: &RetryPolicy,
    mut exchange: E,
    mut sleep: S,
) -> Result<Option<usize>>
where
    E: FnMut(Vec<u8>) -> Result<Vec<u8>>,
    S: FnMut(u64),
{
    resolve_via(rx, id, policy, &mut OneServer, &mut |_, req| exchange(req), &mut sleep, None)
}

/// Algorithm 2 with out-of-band resolution around it: process the message,
/// and when its wire format is unknown `resolve` the meta-data and process
/// once more. A format the resolution does not know either stays
/// [`MorphError::UnknownWireFormat`].
pub(crate) fn process_resolving(
    rx: &mut MorphReceiver,
    msg: &[u8],
    ctx: Option<TraceCtx>,
    resolve: impl FnOnce(&mut MorphReceiver, FormatId) -> Result<Option<usize>>,
) -> Result<Delivery> {
    match rx.process_traced(msg, ctx) {
        Err(MorphError::UnknownWireFormat(id)) => {
            if resolve(rx, id)?.is_none() {
                return Err(MorphError::UnknownWireFormat(id));
            }
            rx.process_traced(msg, ctx)
        }
        other => other,
    }
}

/// [`process_with_resolution`] with a [`RetryPolicy`] on every meta-data
/// round-trip — the resilient path for lossy or partitioned networks.
///
/// # Errors
///
/// As [`process_with_resolution`], plus [`MorphError::RetryExhausted`]
/// when the transport stays broken past the budget.
pub fn process_with_resolution_retry<E, S>(
    rx: &mut MorphReceiver,
    msg: &[u8],
    policy: &RetryPolicy,
    exchange: E,
    sleep: S,
) -> Result<Delivery>
where
    E: FnMut(Vec<u8>) -> Result<Vec<u8>>,
    S: FnMut(u64),
{
    process_resolving(rx, msg, None, |rx, id| {
        resolve_into_with_retry(rx, id, policy, exchange, sleep)
    })
}

/// Convenience wrapper: process a message, and on
/// [`MorphError::UnknownWireFormat`] resolve the meta-data through
/// `exchange` and retry once — the full "unseen format arrives, meta-data
/// fetched out of band, morphing proceeds" flow.
///
/// # Errors
///
/// Propagates processing errors other than the first unknown-format miss,
/// and transport errors from `exchange`.
pub fn process_with_resolution<E>(
    rx: &mut MorphReceiver,
    msg: &[u8],
    exchange: E,
) -> Result<Delivery>
where
    E: FnMut(Vec<u8>) -> Result<Vec<u8>>,
{
    process_resolving(rx, msg, None, |rx, id| MetaClient::resolve_into(rx, id, exchange))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::{Encoder, FormatBuilder, Value};
    use std::sync::Mutex;

    fn v2() -> Arc<RecordFormat> {
        FormatBuilder::record("Msg").int("a").int("b").build_arc().unwrap()
    }

    fn v1() -> Arc<RecordFormat> {
        FormatBuilder::record("Msg").int("sum").build_arc().unwrap()
    }

    fn xform() -> Transformation {
        Transformation::new(v2(), v1(), "old.sum = new.a + new.b;")
    }

    #[test]
    fn format_fetch_roundtrip() {
        let mut server = MetaServer::new();
        let id = server.register_format(v2());
        let resp = server.handle(&MetaClient::want_format(id)).unwrap();
        let fmt = MetaClient::parse_format(&resp).unwrap().unwrap();
        assert_eq!(format_id(&fmt), id);
        // Unknown id → NotFound, not an error.
        let resp = server.handle(&MetaClient::want_format(FormatId(42))).unwrap();
        assert!(MetaClient::parse_format(&resp).unwrap().is_none());
        assert_eq!(server.requests_served(), 2);
    }

    #[test]
    fn registration_over_the_wire() {
        let mut server = MetaServer::new();
        let ack = server.handle(&MetaClient::register_format(&v2())).unwrap();
        assert_eq!(ack, vec![RESP_ACK]);
        let ack = server.handle(&MetaClient::register_transformation(&xform())).unwrap();
        assert_eq!(ack, vec![RESP_ACK]);
        // The transformation registration also made both formats known.
        let resp = server.handle(&MetaClient::want_format(format_id(&v1()))).unwrap();
        assert!(MetaClient::parse_format(&resp).unwrap().is_some());
        let resp = server.handle(&MetaClient::want_transformations(format_id(&v2()))).unwrap();
        assert_eq!(MetaClient::parse_transformations(&resp).unwrap().len(), 1);
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        let mut server = MetaServer::new();
        assert!(server.handle(&[]).is_err());
        assert!(server.handle(&[0x55]).is_err());
        assert!(server.handle(&[REQ_FORMAT, 1, 2]).is_err());
        assert!(server.handle(&[REQ_REGISTER_FORMAT, 9, 0, 0, 0, 1]).is_err());
        assert!(MetaClient::parse_format(&[]).is_err());
        assert!(MetaClient::parse_format(&[0x55]).is_err());
        assert!(MetaClient::parse_transformations(&[RESP_FORMAT]).is_err());
    }

    #[test]
    fn unknown_format_resolved_through_server_then_morphed() {
        // Writer side: announce the new format and its retro-transformation.
        let server = Mutex::new(MetaServer::new());
        server.lock().unwrap().handle(&MetaClient::register_format(&v2())).unwrap();
        server.lock().unwrap().handle(&MetaClient::register_transformation(&xform())).unwrap();

        // Reader side: only knows v1; has NO local meta-data about v2.
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), move |v| sink.lock().unwrap().push(v));

        let wire = Encoder::new(&v2())
            .encode(&Value::Record(vec![Value::Int(30), Value::Int(12)]))
            .unwrap();
        // Direct processing fails: unknown wire format.
        assert!(matches!(rx.process(&wire), Err(MorphError::UnknownWireFormat(_))));

        // With resolution it succeeds — one fetch, then cached forever.
        let d = process_with_resolution(&mut rx, &wire, |req| server.lock().unwrap().handle(&req))
            .unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(42)]));

        // Steady state: no more server traffic.
        let before = server.lock().unwrap().requests_served();
        for _ in 0..5 {
            process_with_resolution(&mut rx, &wire, |req| server.lock().unwrap().handle(&req))
                .unwrap();
        }
        assert_eq!(server.lock().unwrap().requests_served(), before);
    }

    #[test]
    fn resolution_pulls_multi_hop_chains() {
        let r0 = FormatBuilder::record("Msg").string("text").build_arc().unwrap();
        let server = Mutex::new(MetaServer::new());
        {
            let mut s = server.lock().unwrap();
            s.register_transformation(xform()); // v2 → v1
            s.register_transformation(Transformation::new(
                v1(),
                r0.clone(),
                r#"old.text = "sum=" + "" ; old.text = old.text;"#,
            ));
        }
        let mut rx = MorphReceiver::new();
        rx.register_handler(&r0, |_v| {});
        let installed = MetaClient::resolve_into(&mut rx, format_id(&v2()), |req| {
            server.lock().unwrap().handle(&req)
        })
        .unwrap();
        assert_eq!(installed, Some(2), "both hops fetched in one resolution");
    }

    #[test]
    fn transport_failures_propagate() {
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let err = MetaClient::resolve_into(&mut rx, FormatId(7), |_req| {
            Err(MorphError::Config("link down".into()))
        })
        .unwrap_err();
        assert!(matches!(err, MorphError::Config(_)));
        // And through the process wrapper.
        let wire =
            Encoder::new(&v2()).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let err = process_with_resolution(&mut rx, &wire, |_req| {
            Err(MorphError::Config("link down".into()))
        })
        .unwrap_err();
        assert!(matches!(err, MorphError::Config(_)));
    }

    #[test]
    fn retry_survives_transient_failures_within_budget() {
        let server = Mutex::new(MetaServer::new());
        server.lock().unwrap().register_transformation(xform());

        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), move |v| sink.lock().unwrap().push(v));

        let wire = Encoder::new(&v2())
            .encode(&Value::Record(vec![Value::Int(40), Value::Int(2)]))
            .unwrap();

        // Every round-trip fails twice before getting through.
        let policy = RetryPolicy { budget: 3, ..RetryPolicy::with_seed(11) }; // > 2 failures
        let mut calls = 0u32;
        let mut slept = 0u64;
        let d = process_with_resolution_retry(
            &mut rx,
            &wire,
            &policy,
            |req| {
                calls += 1;
                if calls.is_multiple_of(3) {
                    server.lock().unwrap().handle(&req)
                } else {
                    Err(MorphError::Config("transient".into()))
                }
            },
            |ns| slept += ns,
        )
        .unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(42)]));
        assert!(slept > 0, "backoff consumed (virtual) time");

        let snap = rx.registry().snapshot();
        assert!(snap.counter("morph.resolve.retries").unwrap() > 0);
        assert_eq!(snap.counter("morph.resolve.resolved"), Some(1));
        assert_eq!(snap.counter("morph.resolve.failures"), Some(0));
    }

    #[test]
    fn retry_budget_exhaustion_fails_cleanly() {
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let policy = RetryPolicy { budget: 2, ..RetryPolicy::default() };
        let mut calls = 0u32;
        let err = resolve_into_with_retry(
            &mut rx,
            FormatId(7),
            &policy,
            |_req| {
                calls += 1;
                Err(MorphError::Config("down".into()))
            },
            |_ns| {},
        )
        .unwrap_err();
        assert!(matches!(err, MorphError::RetryExhausted(_)));
        assert_eq!(calls, 3, "one try + two retries");
        assert_eq!(rx.registry().snapshot().counter("morph.resolve.failures"), Some(1));
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let p = RetryPolicy { budget: 10, ..RetryPolicy::with_seed(3) };
        let seq: Vec<u64> = (0..10).map(|a| p.backoff_ns(a)).collect();
        assert_eq!(seq, (0..10).map(|a| p.backoff_ns(a)).collect::<Vec<_>>());
        // Nominal value grows until the cap; jitter stays within +50%.
        for (a, &b) in seq.iter().enumerate() {
            let nominal = (p.base_backoff_ns << a.min(63) as u32).min(p.max_backoff_ns);
            assert!(b >= nominal && b <= nominal + nominal / 2 + 1, "attempt {a}: {b}");
        }
        assert!(seq[9] <= p.max_backoff_ns + p.max_backoff_ns / 2 + 1, "capped");
        // Huge attempt numbers never overflow.
        let _ = p.backoff_ns(u32::MAX);
    }

    #[test]
    fn backoff_saturates_at_the_cap_for_huge_attempts() {
        let p = RetryPolicy::with_seed(9);
        // Once `attempt` clears the base's leading zeros the shift would
        // push every bit off the top; the backoff must saturate at the cap,
        // never wrap toward 0 (which would turn retries into a hot spin).
        for a in [44, 58, 63, 64, 65, 100, 1_000, 1 << 20, u32::MAX] {
            let b = p.backoff_ns(a);
            assert!(b >= p.max_backoff_ns, "attempt {a}: {b} below the cap");
            assert!(
                b <= p.max_backoff_ns + p.max_backoff_ns / 2 + 1,
                "attempt {a}: {b} exceeds cap + 50% jitter"
            );
        }
        // The cap engages exactly where the exponential first crosses it
        // (1 ms << 6 = 64 ms > 50 ms) and never releases.
        assert!(p.base_backoff_ns << 5 < p.max_backoff_ns);
        assert!(p.base_backoff_ns << 6 > p.max_backoff_ns);
        for a in 6..70u32 {
            assert!(p.backoff_ns(a) >= p.max_backoff_ns, "attempt {a} is capped");
        }
    }

    /// An uncapped policy (`max_backoff_ns: u64::MAX`) saturates at the cap
    /// once the shift would overflow; the jitter added on top must saturate
    /// with it, not wrap toward zero (a hot retry spin in release builds, a
    /// panic in debug ones).
    #[test]
    fn backoff_of_an_uncapped_policy_saturates_instead_of_wrapping() {
        let p = RetryPolicy {
            budget: 100,
            base_backoff_ns: 1 << 40,
            max_backoff_ns: u64::MAX,
            jitter_seed: 5,
        };
        for attempt in 0..=100 {
            let b = p.backoff_ns(attempt);
            assert!(b >= p.base_backoff_ns, "attempt {attempt}: {b} below the base");
        }
        assert_eq!(p.backoff_ns(24), u64::MAX, "2^64 and beyond is the cap");
    }

    /// The one resolution loop under both endpoint policies, on a scripted
    /// exchange where every round-trip fails twice and then gets through:
    /// the same books and the same `morph.resolve` span either way.
    #[test]
    fn one_loop_keeps_the_same_books_under_both_endpoint_policies() {
        use crate::resolver::{ResolverConfig, ResolverPool};
        use obs::{FlightRecorder, Registry, VirtualClock};

        let server = Mutex::new(MetaServer::new());
        server.lock().unwrap().register_transformation(xform());
        let clock = Arc::new(VirtualClock::new());
        let policy = RetryPolicy { budget: 2, ..RetryPolicy::with_seed(11) };
        // (attempts, retries, resolved, failures) and the span's tags.
        let books = |rx: &MorphReceiver, rec: &FlightRecorder| {
            let snap = rx.registry().snapshot();
            let count = |what: &str| snap.counter(&format!("morph.resolve.{what}")).unwrap();
            let spans: Vec<_> =
                rec.events().into_iter().filter(|e| e.name == "morph.resolve").collect();
            let last = spans.last().expect("a morph.resolve span");
            let tag = |key: &str| last.tag(key).unwrap().to_string();
            (
                [count("attempts"), count("retries"), count("resolved"), count("failures")],
                (spans.len(), tag("attempts"), tag("outcome")),
            )
        };
        let traced_receiver = || {
            let registry = Arc::new(Registry::with_clock(clock.clone()));
            let rec = Arc::new(FlightRecorder::new(64, clock.clone()));
            registry.set_recorder(Arc::clone(&rec));
            let mut rx = MorphReceiver::with_registry(registry);
            rx.register_handler(&v1(), |_v| {});
            let ctx = TraceCtx::root(rec.next_trace_id());
            (rx, rec, ctx)
        };
        let mut calls = 0u32;
        let mut flaky = |_endpoint: usize, req: Vec<u8>| {
            calls += 1;
            if calls.is_multiple_of(3) {
                server.lock().unwrap().handle(&req)
            } else {
                Err(MorphError::Config("transient".into()))
            }
        };
        let slept = std::cell::Cell::new(0u64);
        let mut sleep = |ns: u64| slept.set(slept.get() + ns);

        // Format, transformations out of v2, transformations out of v1:
        // three round-trips, three attempts each.
        let expected = ([9, 6, 1, 0], (1, "9".to_string(), "resolved".to_string()));
        let (mut rx, rec, ctx) = traced_receiver();
        let id = format_id(&v2());
        let installed =
            resolve_via(&mut rx, id, &policy, &mut OneServer, &mut flaky, &mut sleep, Some(ctx));
        assert_eq!(installed.unwrap(), Some(1));
        assert_eq!(books(&rx, &rec), expected, "the one server");

        let (mut rx, rec, ctx) = traced_receiver();
        let cfg = ResolverConfig::with_seed(7);
        let mut pool = ResolverPool::new(2, cfg, clock.clone(), rx.registry());
        let installed = pool.resolve(&mut rx, id, &policy, &mut flaky, &mut sleep, Some(ctx));
        assert_eq!(installed.unwrap(), Some(1));
        assert_eq!(books(&rx, &rec), expected, "the replica pool");
        assert!(slept.get() > 0, "backoffs were waited out");

        // Past its budget a live-but-failing endpoint exhausts the retries,
        // and each policy says so in its own words.
        let mut down = |_endpoint: usize, _req: Vec<u8>| Err(MorphError::Config("down".into()));
        let unknown = FormatId(9);
        let err =
            resolve_via(&mut rx, unknown, &policy, &mut OneServer, &mut down, &mut sleep, None);
        let text = err.unwrap_err().to_string();
        assert!(text.ends_with("meta exchange failed 3 times, last: configuration error: down"));
        let err = pool.resolve(&mut rx, unknown, &policy, &mut down, &mut sleep, Some(ctx));
        let text = err.unwrap_err().to_string();
        assert!(text.ends_with("failed 3 times across replicas, last: configuration error: down"));
        assert_eq!(books(&rx, &rec).0, [15, 10, 1, 2]);

        // With every breaker open the pool answers at once: no exchange, no
        // attempt, no retry spent — one failure, one span saying why.
        while !pool.all_open() {
            let _ = pool.resolve(&mut rx, unknown, &policy, &mut down, &mut sleep, None);
        }
        let ([attempts, retries, _, failures], _) = books(&rx, &rec);
        let patient = RetryPolicy { budget: 100, ..policy.clone() };
        let err = pool.resolve(&mut rx, unknown, &patient, &mut down, &mut sleep, Some(ctx));
        assert!(matches!(err, Err(MorphError::Unavailable(_))));
        assert_eq!(
            books(&rx, &rec),
            ([attempts, retries, 1, failures + 1], (3, "0".to_string(), "unavailable".to_string()))
        );
    }

    #[test]
    fn backoff_jitter_bounded_over_ten_thousand_seed_attempt_pairs() {
        // Property: for every (seed, attempt) pair the backoff is at least
        // the capped exponential and at most 50% above it.
        for s in 0..100u64 {
            let seed = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (s << 7);
            let p = RetryPolicy::with_seed(seed);
            for attempt in 0..100u32 {
                let b = p.backoff_ns(attempt);
                let nominal = if attempt >= p.base_backoff_ns.leading_zeros() {
                    p.max_backoff_ns
                } else {
                    (p.base_backoff_ns << attempt).min(p.max_backoff_ns)
                };
                assert!(b >= nominal, "seed {seed} attempt {attempt}: {b} < {nominal}");
                assert!(
                    b <= nominal + nominal / 2 + 1,
                    "seed {seed} attempt {attempt}: {b} beyond +50% of {nominal}"
                );
            }
        }
    }

    #[test]
    fn resolution_miss_propagates_unknown_format() {
        let server = Mutex::new(MetaServer::new());
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), |_v| {});
        let wire =
            Encoder::new(&v2()).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let err =
            process_with_resolution(&mut rx, &wire, |req| server.lock().unwrap().handle(&req))
                .unwrap_err();
        assert!(matches!(err, MorphError::UnknownWireFormat(_)));
    }
}
