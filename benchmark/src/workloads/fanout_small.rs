//! `fanout_small` — smallest packet, widest fan-out: one publisher, 2,000
//! provisioned morphing sinks, a 4-field `Reading` (≈60 wire bytes) with a
//! 3-assignment retro-transformation, shared morph caches, two worker
//! shards. Per-frame fixed cost (`simnet` hop, `EchoSystem` route / dedup
//! / settle / mailboxes, shard fork/join) dominates and per-byte work is
//! negligible — the mirror image of `cor_v2v1`. An `ecode` speed-up must
//! not move it; a driver or `EchoSystem` change must.

use std::sync::Arc;

use echo::{ChannelId, EchoSystem, EchoVersion, ProcessId, QosTier, WallClockDriver};
use morph::Transformation;
use obs::Registry;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::LinkParams;

use super::{LayerSpec, OpClock, OpResult, Phase, Scale, Workload};
use crate::err;
use crate::gen::Rng;

const SINKS: u64 = 2000;
const PUBLISHES_PER_OP: usize = 4;
/// Sinks whose delivered values are compared field by field (every sink's
/// delivery *count* is always checked).
const CHECKED_SINKS: usize = 16;
const SHARDS: usize = 2;

pub struct FanoutSmall {
    sys: EchoSystem,
    driver: WallClockDriver,
    publisher: ProcessId,
    sinks: Vec<ProcessId>,
    /// Indices into `sinks` of the value-checked sample, drawn from the seed.
    checked: Vec<usize>,
    ch: ChannelId,
    src: Arc<RecordFormat>,
    rng: Rng,
    seq: i64,
    last: Value,
    /// Reused across operations so the drain allocates only what
    /// `take_events` itself allocates.
    drained: Vec<Vec<(ChannelId, Value)>>,
    spec: LayerSpec,
}

impl FanoutSmall {
    pub fn new(seed: u64, scale: Scale) -> Result<FanoutSmall, String> {
        let src = FormatBuilder::record("Reading")
            .string("site")
            .long("raw")
            .long("scale")
            .long("seq")
            .build_arc()
            .map_err(err)?;
        let dst = FormatBuilder::record("Reading")
            .string("site")
            .long("value")
            .long("seq")
            .build_arc()
            .map_err(err)?;
        let retro = Transformation::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            "old.site = new.site; old.value = new.raw * new.scale; old.seq = new.seq;",
        );

        let mut sys = EchoSystem::new();
        sys.set_tracing(false);
        sys.enable_shared_morph_caches();
        let publisher = sys.add_process("publisher", EchoVersion::V2);
        let ch = sys.create_channel(publisher);
        let n_sinks = scale.of(SINKS);
        let sinks: Vec<ProcessId> = (0..n_sinks)
            .map(|i| {
                let s = sys.add_process(format!("sink-{i}"), EchoVersion::V2);
                sys.connect(publisher, s, LinkParams::lan());
                s
            })
            .collect();
        sys.distribute_metadata(
            &[Arc::clone(&src), Arc::clone(&dst)],
            std::slice::from_ref(&retro),
        );
        for &s in &sinks {
            sys.provision_sink(s, ch, &dst).map_err(err)?;
        }

        let mut rng = Rng::new(seed, 2);
        let mut order: Vec<usize> = (0..sinks.len()).collect();
        rng.shuffle(&mut order);
        order.truncate(CHECKED_SINKS);
        let spec = LayerSpec {
            wire_format: Arc::clone(&src),
            reader_format: dst,
            xforms: vec![retro],
            channel: ch,
            tier: QosTier::Reliable,
            frame_budget: None,
            journal_batch: None,
            link: LinkParams::lan(),
            publishes_per_op: PUBLISHES_PER_OP as u64,
            sinks: n_sinks,
            stylesheet: None,
        };
        Ok(FanoutSmall {
            sys,
            // One round's mailboxes hold a whole request even if every
            // sink hashes to one shard: this measures throughput, not shedding.
            driver: WallClockDriver::new(SHARDS).with_mailbox_capacity(
                (PUBLISHES_PER_OP * sinks.len()).max(echo::DEFAULT_MAILBOX_CAPACITY),
            ),
            publisher,
            drained: Vec::with_capacity(sinks.len()),
            sinks,
            checked: order,
            ch,
            src,
            rng,
            seq: 0,
            last: Value::Record(Vec::new()),
            spec,
        })
    }
}

impl Workload for FanoutSmall {
    fn op(&mut self, clock: &mut OpClock) -> Result<OpResult, String> {
        let mut expected = Vec::with_capacity(PUBLISHES_PER_OP);
        for _ in 0..PUBLISHES_PER_OP {
            self.seq += 1;
            let (raw, scale) = (self.rng.range(-50_000, 50_000), self.rng.range(1, 9));
            // 2–9 characters: the seed moves the frame size (and with it
            // virtual time and wire bytes) a little.
            let site_len = self.rng.range(2, 9) as usize;
            let site = format!("lab-{}", self.rng.ident(site_len));
            self.last = Value::Record(vec![
                Value::str(site.clone()),
                Value::Int(raw),
                Value::Int(scale),
                Value::Int(self.seq),
            ]);
            expected.push(Value::Record(vec![
                Value::str(site),
                Value::Int(raw * scale),
                Value::Int(self.seq),
            ]));
            let (sys, value) = (&mut self.sys, &self.last);
            clock
                .time(Phase::Publish, || sys.publish(self.publisher, self.ch, &self.src, value))
                .map_err(err)?;
        }
        let (sys, driver) = (&mut self.sys, &mut self.driver);
        clock.time(Phase::Run, || sys.run_with(driver));
        let (sinks, drained) = (&self.sinks, &mut self.drained);
        clock.time(Phase::Drain, || {
            drained.clear();
            drained.extend(sinks.iter().map(|&s| sys.take_events(s)));
        });

        let mut deliveries = 0u64;
        let mut failed = false;
        for (i, events) in self.drained.iter().enumerate() {
            if events.len() > PUBLISHES_PER_OP {
                return Err(format!("fanout_small: sink {i} got {} events for 4", events.len()));
            }
            failed |= events.len() < PUBLISHES_PER_OP;
            deliveries += events.len() as u64;
        }
        for &i in &self.checked {
            let got = self.drained[i].iter().map(|(_, v)| v);
            if !failed && !got.eq(expected.iter()) {
                return Err(format!("fanout_small: sink {i} delivered wrong or misordered values"));
            }
        }
        Ok(OpResult { deliveries, failed })
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

    fn registries(&self) -> Vec<Arc<Registry>> {
        let mut regs: Vec<Arc<Registry>> = self
            .checked
            .iter()
            .filter_map(|&i| self.sys.event_registry(self.sinks[i], self.ch).cloned())
            .collect();
        regs.push(Arc::clone(self.sys.control_registry(self.publisher)));
        regs
    }
}
