//! `reliable_frag` — the reliability path at large size: 64 KiB `Blob`
//! events on the Reliable tier, split into 47 fragments of ≤1400 bytes,
//! journaled, over a link that duplicates 50‰, reorders 100‰ (+300 µs)
//! and jitters 40 µs. `echo.frag` split/reassembly, dedup, the journal,
//! fault handling and the frame CRC do the work; formats are identical,
//! so `morph` does an exact-match lookup and `ecode` nothing — the bypass
//! workload for every morph/engine change.
//!
//! The link does not drop: the Reliable tier does not retransmit frames
//! lost in flight, so a dropping link loses ≈5% of 47-fragment messages,
//! and the benchmark contract wants workloads on which no operation fails.

use std::sync::Arc;

use echo::{ChannelId, EchoSystem, EchoVersion, ProcessId, QosTier};
use obs::Registry;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::{FaultPlan, LinkParams};

use super::{LayerSpec, OpClock, OpResult, Phase, Scale, Workload};
use crate::err;
use crate::gen::Rng;

const BLOB_BYTES: u64 = 64 * 1024;
const FRAME_BUDGET: usize = 1400;
const REASSEMBLY_SETS: usize = 64;
const REASSEMBLY_TIMEOUT_NS: u64 = 50_000_000;
const JOURNAL_BATCH: usize = 8;

pub struct ReliableFrag {
    sys: EchoSystem,
    publisher: ProcessId,
    sink: ProcessId,
    ch: ChannelId,
    fmt: Arc<RecordFormat>,
    rng: Rng,
    /// Seeded text the blobs are cut from (twice a blob long).
    pool: String,
    blob_len: usize,
    published: u64,
    last: Value,
    spec: LayerSpec,
}

impl ReliableFrag {
    pub fn new(seed: u64, scale: Scale) -> Result<ReliableFrag, String> {
        let fmt = FormatBuilder::record("Blob").int("n").string("data").build_arc().map_err(err)?;
        let mut sys = EchoSystem::new();
        sys.set_tracing(false);
        let publisher = sys.add_process("publisher", EchoVersion::V2);
        let sink = sys.add_process("sink", EchoVersion::V2);
        sys.connect(publisher, sink, LinkParams::lan());
        let ch = sys.create_channel(publisher);
        sys.set_channel_qos(ch, QosTier::Reliable);
        sys.set_frame_budget(Some(FRAME_BUDGET));
        sys.set_reassembly_limits(REASSEMBLY_SETS, REASSEMBLY_TIMEOUT_NS);
        sys.enable_journaling(JOURNAL_BATCH);
        sys.provision_sink(sink, ch, &fmt).map_err(err)?;
        sys.set_fault_plan(
            publisher,
            sink,
            FaultPlan::new(seed)
                .duplicate_per_mille(50)
                .reorder_per_mille(100, 300_000)
                .jitter_ns(40_000),
        );

        let mut rng = Rng::new(seed, 4);
        // A few bytes under 64 KiB, by seed: the last fragment's size (and
        // with it the virtual hop times) differs from seed to seed.
        let blob_len = scale.of(BLOB_BYTES) as usize - rng.below(32) as usize;
        let pool = rng.ident(2 * blob_len);
        let spec = LayerSpec {
            wire_format: Arc::clone(&fmt),
            reader_format: Arc::clone(&fmt),
            xforms: Vec::new(),
            channel: ch,
            tier: QosTier::Reliable,
            frame_budget: Some(FRAME_BUDGET),
            journal_batch: Some(JOURNAL_BATCH),
            link: LinkParams::lan(),
            publishes_per_op: 1,
            sinks: 1,
            stylesheet: None,
        };
        Ok(ReliableFrag {
            sys,
            publisher,
            sink,
            ch,
            fmt,
            rng,
            pool,
            blob_len,
            published: 0,
            last: Value::Record(Vec::new()),
            spec,
        })
    }

    fn counter(&self, name: &str) -> u64 {
        self.sys.registry().counter(name).get()
    }
}

impl Workload for ReliableFrag {
    fn op(&mut self, clock: &mut OpClock) -> Result<OpResult, String> {
        self.published += 1;
        let at = self.rng.below(self.blob_len as u64) as usize;
        self.last = Value::Record(vec![
            Value::Int(self.published as i64),
            Value::str(&self.pool[at..at + self.blob_len]),
        ]);
        let (sys, value) = (&mut self.sys, &self.last);
        clock
            .time(Phase::Publish, || sys.publish(self.publisher, self.ch, &self.fmt, value))
            .map_err(err)?;
        clock.time(Phase::Run, || sys.run());
        let events = clock.time(Phase::Drain, || sys.take_events(self.sink));
        match events.as_slice() {
            [] => Ok(OpResult { deliveries: 0, failed: true }),
            [(_, v)] if v == value => Ok(OpResult { deliveries: 1, failed: false }),
            [_] => Err(format!("reliable_frag blob {}: reassembled bytes differ", self.published)),
            many => Err(format!(
                "reliable_frag blob {}: delivered {} times",
                self.published,
                many.len()
            )),
        }
    }

    /// Lets any partial set time out, then checks that every published
    /// blob is accounted for: delivered, dead-lettered as a partial
    /// fragment set, or shed.
    fn finish(&mut self) -> Result<(), String> {
        self.sys.advance_ns(2 * REASSEMBLY_TIMEOUT_NS);
        self.sys.run();
        let late = self.sys.take_events(self.sink).len();
        let delivered = self.counter("echo.events.delivered");
        let partial = self.counter("echo.deadletter.partial_fragments");
        let shed = self.counter("echo.queue.shed");
        if late != 0 || delivered + partial + shed != self.published {
            return Err(format!(
                "reliable_frag: {delivered} delivered + {partial} partial + {shed} shed != {} \
                 published ({late} arrived after their operation)",
                self.published
            ));
        }
        if self.sys.reassembly_depth(self.sink) != 0 {
            return Err("reliable_frag: reassembly buffer not empty after the sweep".into());
        }
        Ok(())
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
        let rx = self.sys.event_registry(self.sink, self.ch).expect("sink expects events");
        vec![Arc::clone(rx), Arc::clone(self.sys.control_registry(self.publisher))]
    }
}
