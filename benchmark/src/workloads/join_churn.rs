//! `join_churn` — cold path and control plane instead of warm path. A V2
//! creator owns a channel with 16 standing sinks (8 V1, 8 V2); the writer
//! publishes revision 3 of a 10-field `Reading` and sinks expect the
//! format three retro-steps back. One operation is one join: a fresh V1
//! process subscribes (request → v2.0 response broadcast to all members,
//! morphed v2→v1 cold at the joiner), receives its first event (cold:
//! MaxMatch over the 4-format closure, compile 3 steps, fuse, lower), and
//! unsubscribes. Shared caches are off, so every joiner pays the cold
//! path itself. A decision-cache, fusion or lowering change that speeds
//! `cor_v2v1` by making cold work heavier shows here, as does anything
//! that makes a membership refresh cost more.

use std::sync::Arc;

use echo::{ChannelId, EchoSystem, EchoVersion, ProcessId, QosTier, Role};
use morph::Transformation;
use obs::Registry;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::LinkParams;

use super::{LayerSpec, OpClock, OpResult, Phase, Workload};
use crate::err;
use crate::gen::Rng;

const STANDING_SINKS: usize = 16;
/// creator is not a member; writer + standing sinks + the joiner are.
const MEMBERS_WITH_JOINER: usize = 1 + STANDING_SINKS + 1;

/// Revisions 0–3 of `Reading`, oldest first.
fn revisions() -> Result<Vec<Arc<RecordFormat>>, String> {
    let base = || FormatBuilder::record("Reading").string("site");
    let tail = |b: FormatBuilder| b.long("seq").long("ts").long("lo").long("hi");
    Ok(vec![
        tail(base().long("value")).long("status").build_arc().map_err(err)?,
        tail(base().long("raw").long("scale")).long("status").build_arc().map_err(err)?,
        tail(base().long("raw").long("scale"))
            .long("status")
            .string("unit")
            .build_arc()
            .map_err(err)?,
        tail(base().long("raw").long("scale"))
            .long("code")
            .string("unit")
            .long("flags")
            .build_arc()
            .map_err(err)?,
    ])
}

const COMMON: &str =
    "old.site = new.site; old.seq = new.seq; old.ts = new.ts; old.lo = new.lo; old.hi = new.hi;";

/// Retro-steps r3→r2, r2→r1, r1→r0.
fn retro_chain(revs: &[Arc<RecordFormat>]) -> Vec<Transformation> {
    let step = |from: usize, body: &str| {
        Transformation::new(
            Arc::clone(&revs[from]),
            Arc::clone(&revs[from - 1]),
            format!("{COMMON} {body}"),
        )
    };
    vec![
        step(
            3,
            "old.raw = new.raw; old.scale = new.scale; old.status = new.code; old.unit = new.unit;",
        ),
        step(2, "old.raw = new.raw; old.scale = new.scale; old.status = new.status;"),
        step(1, "old.value = new.raw * new.scale; old.status = new.status;"),
    ]
}

pub struct JoinChurn {
    sys: EchoSystem,
    writer: ProcessId,
    standing: Vec<ProcessId>,
    /// Fresh V1 processes, one per join still to run (popped from the end).
    pool: Vec<ProcessId>,
    /// Joiners already used, for the receiver registries.
    used: Vec<ProcessId>,
    ch: ChannelId,
    r3: Arc<RecordFormat>,
    r0: Arc<RecordFormat>,
    rng: Rng,
    seq: i64,
    last: Value,
    spec: LayerSpec,
}

impl JoinChurn {
    pub fn new(seed: u64, joins: u64) -> Result<JoinChurn, String> {
        let revs = revisions()?;
        let chain = retro_chain(&revs);
        let (r0, r3) = (Arc::clone(&revs[0]), Arc::clone(&revs[3]));

        // Contact strings go into every membership response, so seeded
        // name lengths make the control traffic differ per seed — by a
        // byte or two per member, to keep `wire_bytes_per_op` comparable.
        let mut rng = Rng::new(seed, 3);
        let mut name = |role: &str, i: u64| {
            let len = rng.range(5, 6) as usize;
            format!("{role}-{i}-{}", rng.ident(len))
        };
        let mut sys = EchoSystem::new();
        sys.set_tracing(false);
        let creator = sys.add_process("creator", EchoVersion::V2);
        let writer = sys.add_process("writer", EchoVersion::V2);
        sys.connect(creator, writer, LinkParams::lan());
        // Members talk to the creator (control) and the writer (events);
        // they never talk to each other, so no full mesh.
        let member = |sys: &mut EchoSystem, name: String, version| {
            let p = sys.add_process(name, version);
            sys.connect(creator, p, LinkParams::lan());
            sys.connect(writer, p, LinkParams::lan());
            p
        };
        let standing: Vec<ProcessId> = (0..STANDING_SINKS)
            .map(|i| {
                let v = if i % 2 == 0 { EchoVersion::V1 } else { EchoVersion::V2 };
                member(&mut sys, name("sink", i as u64), v)
            })
            .collect();
        let pool: Vec<ProcessId> =
            (0..joins).map(|i| member(&mut sys, name("joiner", i), EchoVersion::V1)).collect();
        sys.distribute_metadata(&revs, &chain);

        let ch = sys.create_channel(creator);
        sys.subscribe(writer, ch, Role::source(), None).map_err(err)?;
        for &s in &standing {
            sys.subscribe(s, ch, Role::sink(), Some(&r0)).map_err(err)?;
        }
        sys.run();

        let spec = LayerSpec {
            wire_format: Arc::clone(&r3),
            reader_format: Arc::clone(&r0),
            xforms: chain,
            channel: ch,
            tier: QosTier::Reliable,
            frame_budget: None,
            journal_batch: None,
            link: LinkParams::lan(),
            publishes_per_op: 1,
            sinks: MEMBERS_WITH_JOINER as u64 - 1,
            stylesheet: None,
        };
        Ok(JoinChurn {
            sys,
            writer,
            standing,
            pool,
            used: Vec::new(),
            ch,
            r3,
            r0,
            rng,
            seq: 0,
            last: Value::Record(Vec::new()),
            spec,
        })
    }
}

impl Workload for JoinChurn {
    fn op(&mut self, clock: &mut OpClock) -> Result<OpResult, String> {
        let joiner = self.pool.pop().ok_or("join_churn: joiner pool exhausted")?;
        self.used.push(joiner);
        self.seq += 1;
        let (raw, scale) = (self.rng.range(-50_000, 50_000), self.rng.range(1, 9));
        let (ts, lo, hi, code, flags) = (
            self.rng.range(0, 1 << 40),
            self.rng.range(-100, 0),
            self.rng.range(0, 100),
            self.rng.range(0, 7),
            self.rng.range(0, 255),
        );
        let site_len = self.rng.range(2, 9) as usize;
        let site = format!("site-{}", self.rng.ident(site_len));
        let int = Value::Int;
        self.last = Value::Record(vec![
            Value::str(site.clone()),
            int(raw),
            int(scale),
            int(self.seq),
            int(ts),
            int(lo),
            int(hi),
            int(code),
            Value::str("kPa"),
            int(flags),
        ]);
        let expected = Value::Record(vec![
            Value::str(site),
            int(raw * scale),
            int(self.seq),
            int(ts),
            int(lo),
            int(hi),
            int(code),
        ]);

        let (sys, value) = (&mut self.sys, &self.last);
        // Join: request to the creator, v2.0 response broadcast to all members.
        clock
            .time(Phase::Publish, || sys.subscribe(joiner, self.ch, Role::sink(), Some(&self.r0)))
            .map_err(err)?;
        clock.time(Phase::Run, || sys.run());
        let members = sys.members(joiner, self.ch).map_or(0, |m| m.len());
        // First event: cold at the joiner, warm at the standing sinks.
        clock
            .time(Phase::Publish, || sys.publish(self.writer, self.ch, &self.r3, value))
            .map_err(err)?;
        clock.time(Phase::Run, || sys.run());
        let standing = &self.standing;
        let (first, others) = clock.time(Phase::Drain, || {
            let first = sys.take_events(joiner);
            let others: Vec<_> = standing.iter().map(|&s| sys.take_events(s)).collect();
            (first, others)
        });
        // Leave: the creator refreshes the remaining members.
        clock.time(Phase::Publish, || sys.unsubscribe(joiner, self.ch)).map_err(err)?;
        clock.time(Phase::Run, || sys.run());

        if members != MEMBERS_WITH_JOINER {
            return Err(format!(
                "join_churn join {}: joiner sees {members} members, expected {MEMBERS_WITH_JOINER}",
                self.seq
            ));
        }
        let mut failed = first.is_empty();
        for events in others.iter().chain(std::iter::once(&first)) {
            match events.as_slice() {
                [] => failed = true,
                [(_, v)] if *v == expected => {}
                _ => return Err(format!("join_churn join {}: wrong or repeated event", self.seq)),
            }
        }
        Ok(OpResult { deliveries: u64::from(!failed), failed })
    }

    fn sys(&self) -> &EchoSystem {
        &self.sys
    }

    fn sys_mut(&mut self) -> &mut EchoSystem {
        &mut self.sys
    }

    fn spec(&self) -> &LayerSpec {
        &self.spec
    }

    fn last_value(&self) -> &Value {
        &self.last
    }

    /// The joiners' event *and* control receivers: both go cold → warm
    /// once per join (the event chain and the v2→v1 response morph).
    fn registries(&self) -> Vec<Arc<Registry>> {
        let mut regs = Vec::with_capacity(2 * self.used.len() + 1);
        for &j in &self.used {
            regs.extend(self.sys.event_registry(j, self.ch).cloned());
            regs.push(Arc::clone(self.sys.control_registry(j)));
        }
        regs.push(Arc::clone(self.sys.control_registry(self.writer)));
        regs
    }
}
