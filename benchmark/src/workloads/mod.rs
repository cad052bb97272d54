//! The four workloads. Each builds one `EchoSystem`, then runs closed-loop
//! operations against it: publish (or subscribe), drive the system to
//! idle, drain the sinks — all three timed as phases of one operation —
//! and only then verify what was delivered.

use std::sync::Arc;
use std::time::Instant;

use echo::{ChannelId, EchoSystem, QosTier};
use morph::Transformation;
use obs::Registry;
use pbio::{RecordFormat, Value};
use simnet::LinkParams;

mod cor_v2v1;
mod fanout_small;
mod join_churn;
mod reliable_frag;

/// Workload names, in the interleaving order of a full run.
pub const NAMES: [&str; 4] = ["cor_v2v1", "fanout_small", "join_churn", "reliable_frag"];

/// Operations per second of `--seconds`, per workload, in [`NAMES`] order.
/// The run length is a fixed operation count (`seconds × quota`, split
/// over the rounds) — never the clock — so the exact metrics repeat per
/// seed and peak memory does not depend on how fast the commit is. The
/// quotas are sized so that on the reference box (2 cores, see README)
/// the timed windows of a run add up to about `--seconds`.
const OPS_PER_SECOND: [u64; 4] = [2400, 32, 480, 1000];

/// Warm-up operations per round (not measured), in [`NAMES`] order.
const WARMUP_OPS: [u64; 4] = [200, 8, 20, 50];

/// `(measured operations, warm-up operations)` of one round of `name`
/// when a run is `seconds` long and split into `rounds` rounds.
pub fn round_ops(name: &str, seconds: u64, rounds: u64) -> Option<(u64, u64)> {
    let i = NAMES.iter().position(|n| *n == name)?;
    Some(((OPS_PER_SECOND[i] * seconds / rounds).max(1), WARMUP_OPS[i]))
}

/// The three `EchoSystem` calls an operation is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `publish()` / `subscribe()` / `unsubscribe()`.
    Publish,
    /// `run()` / `run_with()` to idle.
    Run,
    /// `take_events()` on every sink involved.
    Drain,
}

impl Phase {
    pub const ALL: [Phase; 3] = [Phase::Publish, Phase::Run, Phase::Drain];

    /// Span / metric stem of the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Publish => "echo.system.publish",
            Phase::Run => "echo.system.run",
            Phase::Drain => "echo.system.drain",
        }
    }
}

/// Times the phases of one operation as offsets from a shared epoch. The
/// operation's latency is first phase start → last phase end; whatever a
/// workload does after its last phase (verification) is outside it.
#[derive(Debug)]
pub struct OpClock {
    epoch: Instant,
    /// `(phase, start_ns, end_ns)` in call order.
    pub marks: Vec<(Phase, u64, u64)>,
}

impl OpClock {
    pub fn new(epoch: Instant) -> OpClock {
        OpClock { epoch, marks: Vec::with_capacity(8) }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.marks.push((phase, start, self.now()));
        out
    }

    /// `(start, end)` of the operation's timed window.
    pub fn window(&self) -> (u64, u64) {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => (first.1, last.2),
            _ => (0, 0),
        }
    }

    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.marks.iter().filter(|m| m.0 == phase).map(|m| m.2 - m.1).sum()
    }
}

/// What one operation delivered.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Sink deliveries (joins, for `join_churn`) that were present and
    /// verified equal to the expected value.
    pub deliveries: u64,
    /// True when a delivery the operation was owed never arrived.
    pub failed: bool,
}

/// What one frame of the workload looks like to the layers below
/// `EchoSystem` — enough for the traced run to push the same value
/// through each crate's public functions directly.
#[derive(Clone)]
pub struct LayerSpec {
    /// Format the publisher encodes in.
    pub wire_format: Arc<RecordFormat>,
    /// Format the sinks registered a handler for.
    pub reader_format: Arc<RecordFormat>,
    /// Retro-transformations distributed as meta-data (the chain from
    /// `wire_format` to `reader_format`; empty for identical formats).
    pub xforms: Vec<Transformation>,
    pub channel: ChannelId,
    pub tier: QosTier,
    pub frame_budget: Option<usize>,
    /// Fsync batch of the delivery journals, when journaling is on.
    pub journal_batch: Option<usize>,
    pub link: LinkParams,
    pub publishes_per_op: u64,
    pub sinks: u64,
    /// XSLT equivalent of `xforms` for the XML baseline, when one exists.
    pub stylesheet: Option<&'static str>,
}

/// A built, warmed-up workload.
pub trait Workload {
    /// Runs one operation, timing its phases into `clock`, then verifies
    /// the drained deliveries. `Err` is a correctness failure: a delivered
    /// value differs from the expected one, or arrived twice.
    fn op(&mut self, clock: &mut OpClock) -> Result<OpResult, String>;

    /// End-of-round checks (accounting identities over the whole round).
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn sys(&self) -> &EchoSystem;
    fn sys_mut(&mut self) -> &mut EchoSystem;
    fn spec(&self) -> &LayerSpec;

    /// The value the last operation published.
    fn last_value(&self) -> &Value;

    /// Registries of the receivers the operations exercise (`morph.*`,
    /// `pbio.*`, `ecode.*`, `echo.stage.*` live there), and of the
    /// publisher's control plane (`echo.stage.encode.ns`) last.
    fn registries(&self) -> Vec<Arc<Registry>>;
}

/// How much smaller than full size to build a workload: populations,
/// message sizes and operation counts are all divided by it (`verify`
/// runs at 1/20).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u64);

impl Scale {
    pub fn of(self, full: u64) -> u64 {
        (full / self.0).max(1)
    }
}

/// Builds and warms up workload `name`. `ops` is the number of operations
/// the caller will run (warm-up excluded); `join_churn` creates that many
/// joiner processes up front.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    warmup: u64,
    ops: u64,
) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "cor_v2v1" => Box::new(cor_v2v1::CorV2V1::new(seed, scale)?),
        "fanout_small" => Box::new(fanout_small::FanoutSmall::new(seed, scale)?),
        "join_churn" => Box::new(join_churn::JoinChurn::new(seed, warmup + ops)?),
        "reliable_frag" => Box::new(reliable_frag::ReliableFrag::new(seed, scale)?),
        other => return Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    };
    let mut clock = OpClock::new(Instant::now());
    for _ in 0..warmup {
        clock.marks.clear();
        let r = w.op(&mut clock)?;
        if r.failed {
            return Err(format!("{name}: a warm-up operation lost its delivery"));
        }
    }
    Ok(w)
}
