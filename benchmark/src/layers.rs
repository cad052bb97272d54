//! The traced run's replay: after an operation, the value it published is
//! pushed through each layer's **public** functions directly — encode →
//! split → frame → hop → unframe → reassemble → process — one span per
//! call, so the end-to-end latency can be split into a per-layer budget
//! without any tracing inside the crates.

use std::sync::{Arc, Mutex};

use echo::frag::Offer;
use echo::{proto, Fragment, Journal, JournalEntry, ReassemblyBuffer};
use ecode::FusedProgram;
use morph::{max_match, CompiledChain, MatchConfig, MorphReceiver};
use obs::Registry;
use pbio::{ConversionPlan, Encoder, RecordFormat, Value, WireBytes};
use simnet::{Network, NodeId};
use xmlt::Stylesheet;

use crate::err;
use crate::gen::Rng;
use crate::span::{Recorder, SpanId};
use crate::workloads::LayerSpec;

/// The pipeline (encode → … → process) is replayed after every
/// operation. The pieces measured on their own — decode, the Ecode run,
/// journal appends, the cold path, a registry snapshot, the XML baseline —
/// run on a sample of the replays only: they touch as much memory again,
/// and running them every time slowed the *next* operation's receiver
/// work by a third. About this many samples are taken per traced segment.
const SAMPLES: u64 = 48;
/// At most every this-many-th replay is a sample.
const MAX_SAMPLE_GAP: u64 = 16;
/// Samples that also run the XML/XSLT baseline (it costs several PBIO
/// morphs at 10 KB and some 2,000 on a 64 KiB string).
const XML_SAMPLES: u32 = 12;
/// Receiver-side repetitions per replay for fan-out workloads: the system
/// handles one frame per sink back to back, so per-frame costs are
/// measured in a run of the same kind, not as one cold call.
const MAX_FANOUT_REPS: u64 = 256;

type Inbox = Arc<Mutex<Option<Value>>>;

/// A receiver as a sink would build it: a handler for the reader format
/// plus the distributed retro-transformations.
fn receiver(spec: &LayerSpec) -> (MorphReceiver, Inbox) {
    let inbox: Inbox = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&inbox);
    let mut rx = MorphReceiver::new();
    rx.register_handler(&spec.reader_format, move |v| {
        *slot.lock().expect("inbox lock") = Some(v);
    });
    for t in &spec.xforms {
        rx.import_transformation(t.clone());
    }
    (rx, inbox)
}

pub struct LayerBench {
    spec: LayerSpec,
    encoder: Encoder,
    decode_plan: ConversionPlan,
    /// The whole retro-chain as one register program (`None` when the
    /// formats are identical and no Ecode runs), with the step targets
    /// whose default records are its writable roots.
    program: Option<(FusedProgram, Vec<Arc<RecordFormat>>)>,
    warm_rx: MorphReceiver,
    inbox: Inbox,
    net: Network,
    nodes: (NodeId, NodeId),
    reassembly: ReassemblyBuffer,
    stylesheet: Option<Stylesheet>,
    /// Formats reachable from the wire format, for `max_match`.
    closure: Vec<Arc<RecordFormat>>,
    registry: Arc<Registry>,
    journal: Journal,
    rng: Rng,
    seq: u64,
    replays: u64,
    reassemblies: u64,
    sample_gap: u64,
    xml_runs: u32,
    /// Virtual send→deliver time of every replayed hop.
    pub hop_virt_ns: Vec<u64>,
    /// Sizes seen by the last replay.
    pub wire_bytes: usize,
    pub frames_per_publish: usize,
    pub xml_bytes: usize,
}

impl LayerBench {
    /// `replays` is how many operations the traced segment will replay.
    pub fn new(
        spec: &LayerSpec,
        registry: Arc<Registry>,
        seed: u64,
        replays: u64,
    ) -> Result<LayerBench, String> {
        let (warm_rx, inbox) = receiver(spec);
        let program = if spec.xforms.is_empty() {
            None
        } else {
            let chain = CompiledChain::compile(&spec.xforms).map_err(err)?;
            let targets = chain.steps().iter().map(|s| Arc::clone(s.to_format())).collect();
            Some((chain.fuse().map_err(err)?, targets))
        };
        let mut net = Network::new();
        let nodes = (net.add_node("replay-pub"), net.add_node("replay-sub"));
        net.connect(nodes.0, nodes.1, spec.link);
        let mut closure = vec![Arc::clone(&spec.wire_format)];
        closure.extend(spec.xforms.iter().map(|t| Arc::clone(t.to_format())));
        Ok(LayerBench {
            encoder: Encoder::new(&spec.wire_format),
            decode_plan: ConversionPlan::identity(&spec.wire_format).map_err(err)?,
            program,
            warm_rx,
            inbox,
            net,
            nodes,
            reassembly: ReassemblyBuffer::new(64, u64::MAX),
            stylesheet: match spec.stylesheet {
                Some(text) => Some(Stylesheet::parse(text).map_err(err)?),
                None => None,
            },
            closure,
            registry,
            journal: Journal::new(spec.journal_batch.unwrap_or(1)),
            rng: Rng::new(seed, 9),
            seq: 0,
            replays: 0,
            reassemblies: 0,
            sample_gap: (replays / SAMPLES).clamp(1, MAX_SAMPLE_GAP),
            xml_runs: 0,
            hop_virt_ns: Vec::new(),
            wire_bytes: 0,
            frames_per_publish: 0,
            xml_bytes: 0,
            spec: spec.clone(),
        })
    }

    /// Pushes `value` through the layers under a `replay` span of
    /// operation `op`.
    pub fn replay(&mut self, rec: &mut Recorder, value: &Value, op: u32) -> Result<(), String> {
        let root = rec.open("replay", None, op);
        let at = Some(root);
        self.seq += 1;
        self.replays += 1;

        let wire = rec.time("pbio.encode", at, op, || self.encoder.encode(value)).map_err(err)?;
        self.wire_bytes = wire.len();

        // Sender: split (when the message exceeds the frame budget), then
        // frame each piece. Every layer boundary gets its span whether or
        // not this workload puts work behind it: an unexercised layer reads
        // the recorder's floor (a few hundredths of a µs), not a constant 0.
        let payload = WireBytes::from(wire);
        let budget = self.spec.frame_budget.filter(|&b| payload.len() > b);
        let pieces = rec
            .time("echo.frag.split", at, op, || match budget {
                Some(budget) => echo::split_message(&payload, budget),
                None => Some(vec![Fragment { index: 0, count: 1, bytes: payload.clone() }]),
            })
            .ok_or("replay: message needs more than 65535 fragments")?;
        self.frames_per_publish = pieces.len();
        let mut frames: Vec<WireBytes> = Vec::with_capacity(pieces.len());
        for piece in &pieces {
            frames.push(rec.time("echo.proto.frame", at, op, || {
                proto::frame_qos(
                    proto::FRAME_EVENT,
                    self.spec.channel,
                    self.seq,
                    proto::NO_TRACE,
                    self.spec.tier,
                    piece.index,
                    piece.count,
                    0,
                    &piece.bytes,
                )
            }));
        }

        // Wire and receiver, once per sink (capped): hop and unframe each
        // frame, reassemble in a seeded shuffle of arrival order, then
        // Algorithm 2 on the whole message.
        let mut message = WireBytes::from(Vec::new());
        for _ in 0..self.spec.sinks.min(MAX_FANOUT_REPS) {
            let mut parts: Vec<(Fragment, WireBytes)> = Vec::with_capacity(frames.len());
            for frame in &frames {
                let v0 = self.net.now_ns();
                let (net, (a, b)) = (&mut self.net, self.nodes);
                let hop = rec.time("simnet.hop", at, op, || {
                    net.send(a, b, frame.clone())?;
                    net.step();
                    Ok::<_, simnet::NetError>(net.recv(b))
                });
                let bytes = hop.map_err(err)?.ok_or("replay: hop delivered nothing")?.payload;
                self.hop_virt_ns.push(self.net.now_ns() - v0);
                let parsed = rec.time("echo.proto.unframe", at, op, || proto::unframe(&bytes));
                let parsed = parsed.map_err(err)?;
                let body = bytes.slice(proto::FRAME_HEADER_LEN..bytes.len());
                let frag =
                    Fragment { index: parsed.frag_index, count: parsed.frag_count, bytes: body };
                parts.push((frag, bytes));
            }
            self.rng.shuffle(&mut parts);
            self.reassemblies += 1;
            let (buf, seq) = (&mut self.reassembly, self.reassemblies);
            message = rec
                .time("echo.frag.reassemble", at, op, || {
                    if parts.len() == 1 {
                        return parts.pop().map(|(frag, _)| frag.bytes);
                    }
                    let mut whole = None;
                    for (frag, frame) in parts {
                        if let (Offer::Complete(m), _) = buf.offer(1, seq, frag, frame, None, 0) {
                            whole = Some(m);
                        }
                    }
                    whole
                })
                .ok_or("replay: fragments did not reassemble")?;
            let rx = &mut self.warm_rx;
            rec.time("morph.warm_process", at, op, || rx.process(message.as_slice()))
                .map_err(err)?;
            if self.inbox.lock().expect("inbox lock").take().is_none() {
                return Err("replay: the standalone receiver delivered nothing".into());
            }
        }
        if self.replays.is_multiple_of(self.sample_gap) {
            self.replay_sampled(rec, at, op, value, &frames[0], message.as_slice())?;
        }
        rec.close(root);
        Ok(())
    }

    /// The pieces measured on their own, on a sample of the replays.
    fn replay_sampled(
        &mut self,
        rec: &mut Recorder,
        at: Option<SpanId>,
        op: u32,
        value: &Value,
        frame: &WireBytes,
        message: &[u8],
    ) -> Result<(), String> {
        // The two halves of a warm process.
        let decoded =
            rec.time("pbio.decode", at, op, || self.decode_plan.execute(message)).map_err(err)?;
        let mut roots = vec![decoded];
        let program = self.program.as_ref().map(|(program, targets)| {
            roots.extend(targets.iter().map(|f| Value::default_record(f)));
            program
        });
        rec.time("ecode.run", at, op, || program.map(|p| p.run_register(&mut roots)).transpose())
            .map_err(err)?;
        // What the Reliable tier journals for one frame: sent, seen, acked.
        let (channel, seq) = (self.spec.channel, self.seq);
        let entries = [
            JournalEntry::Sent { to: 1, channel, seq, frag_index: 0, frame: frame.clone() },
            JournalEntry::Seen { sender: 0, seq, frag_index: 0 },
            JournalEntry::Acked { to: 1, channel, seq, frag_index: 0 },
        ];
        for entry in entries {
            let journal = &mut self.journal;
            rec.time("echo.journal.append", at, op, || journal.append(0, entry));
        }

        // What a receiver pays once per wire format, each piece on its own.
        let (mut fresh, _inbox) = receiver(&self.spec);
        rec.time("morph.cold_process", at, op, || fresh.process(message)).map_err(err)?;
        let (closure, reader) = (&self.closure, [Arc::clone(&self.spec.reader_format)]);
        rec.time("morph.maxmatch", at, op, || max_match(closure, &reader, &MatchConfig::new()))
            .ok_or("replay: MaxMatch found no admissible pair")?;
        let chain = rec
            .time("ecode.compile", at, op, || CompiledChain::compile(&self.spec.xforms))
            .map_err(err)?;
        let fused = rec.time("ecode.fuse", at, op, || chain.fuse());
        if !self.spec.xforms.is_empty() {
            fused.map_err(err)?; // an empty chain has nothing to fuse, by contract
        }
        let wire = &self.spec.wire_format;
        rec.time("pbio.plan_compile", at, op, || ConversionPlan::compile(wire, wire))
            .map_err(err)?;
        let registry = &self.registry;
        std::hint::black_box(rec.time("obs.snapshot", at, op, || registry.snapshot()));

        // The XML/XSLT baseline on the same message: parse, roll back with
        // the stylesheet (when the workload has one), walk into a typed value.
        if self.xml_runs < XML_SAMPLES {
            self.xml_runs += 1;
            let xml = xmlt::value_to_xml(value, &self.spec.wire_format);
            self.xml_bytes = xml.len();
            let (sheet, spec) = (&self.stylesheet, &self.spec);
            rec.time("xmlt.morph", at, op, || {
                let doc = xmlt::parse(&xml)?;
                match sheet {
                    Some(s) => xmlt::element_to_value(&s.transform(&doc)?, &spec.reader_format),
                    None => xmlt::element_to_value(&doc, &spec.wire_format),
                }
            })
            .map_err(err)?;
        }
        Ok(())
    }
}
