//! One round: build a workload, run its operations closed-loop, and turn
//! the samples into metrics. An untraced round yields the end-to-end
//! metrics; a traced round yields the per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use obs::Registry;

use crate::layers::LayerBench;
use crate::noise;
use crate::span::Recorder;
use crate::stats::{median_grouped, percentile};
use crate::workloads::{self, OpClock, Phase, Scale, Workload};

pub struct RoundSpec {
    pub workload: String,
    pub seed: u64,
    pub warmup: u64,
    pub ops: u64,
    pub scale: Scale,
    pub traced: bool,
}

pub struct RoundOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Chrome-trace JSON of a traced round's first operations.
    pub trace: Option<String>,
}

/// Operations whose spans go into the chrome-trace file (the statistics
/// use every span).
const TRACE_FILE_OPS: u32 = 200;

/// Samples of one run of consecutive operations.
#[derive(Default)]
struct Segment {
    ops: u64,
    latency_ns: Vec<u64>,
    virt_ns: Vec<u64>,
    /// Per operation, the summed time of each [`Phase`].
    phase_ns: [Vec<u64>; 3],
    /// Σ timed windows.
    window_ns: u64,
    deliveries: u64,
    failed: u64,
    wire_bytes: u64,
}

impl Segment {
    fn absorb(&mut self, other: Segment) {
        self.ops += other.ops;
        self.latency_ns.extend(other.latency_ns);
        self.virt_ns.extend(other.virt_ns);
        for (mine, theirs) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            mine.extend(theirs);
        }
        self.window_ns += other.window_ns;
        self.deliveries += other.deliveries;
        self.failed += other.failed;
        self.wire_bytes += other.wire_bytes;
    }

    fn p50_us(&self) -> f64 {
        percentile(&mut self.latency_ns.clone(), 0.5) as f64 / 1e3
    }
}

/// Runs `ops` operations. `after_op` runs outside every timed window,
/// after the operation verified its deliveries.
fn run_segment(
    w: &mut dyn Workload,
    clock: &mut OpClock,
    ops: u64,
    mut after_op: impl FnMut(&mut dyn Workload, &OpClock) -> Result<(), String>,
) -> Result<Segment, String> {
    let mut seg = Segment { ops, ..Segment::default() };
    let bytes0 = w.sys().total_bytes();
    for _ in 0..ops {
        clock.marks.clear();
        let virt0 = w.sys().now_ns();
        let result = w.op(clock)?;
        seg.virt_ns.push(w.sys().now_ns() - virt0);
        let (start, end) = clock.window();
        seg.latency_ns.push(end - start);
        seg.window_ns += end - start;
        for (slot, phase) in seg.phase_ns.iter_mut().zip(Phase::ALL) {
            slot.push(clock.phase_ns(phase));
        }
        seg.deliveries += result.deliveries;
        seg.failed += u64::from(result.failed);
        after_op(w, clock)?;
    }
    seg.wire_bytes = w.sys().total_bytes() - bytes0;
    Ok(seg)
}

/// A traced round cycles through its three kinds of segment this many
/// times (fewer when it is short), so that slow drift of the machine lands
/// on all three alike and their ratios stay meaningful.
const TRACED_CYCLES: u64 = 8;

pub fn run_round(spec: &RoundSpec) -> Result<RoundOutput, String> {
    let calib_before = noise::calibrate();
    let started = Instant::now();
    // An untraced round is one plain segment. A traced round interleaves
    // plain segments, harness-traced segments (spans + replay) and
    // segments with the program's own tracing on, 1:2:1 in operations.
    let (cycles, per_cycle): (u64, [u64; 3]) = if spec.traced {
        let cycles = (spec.ops / 32).clamp(1, TRACED_CYCLES);
        let quarter = (spec.ops / (4 * cycles)).max(1);
        (cycles, [quarter, 2 * quarter, quarter])
    } else {
        (1, [spec.ops, 0, 0])
    };
    let total_ops = cycles * per_cycle.iter().sum::<u64>();
    let mut w = workloads::build(&spec.workload, spec.seed, spec.scale, spec.warmup, total_ops)?;
    let setup_s = started.elapsed().as_secs_f64();
    let (cpu0, wait0) = noise::schedstat();

    let epoch = Instant::now();
    let mut clock = OpClock::new(epoch);
    let mut rec = Recorder::new(epoch);
    let registry = Arc::clone(w.sys().registry());
    let mut bench = spec
        .traced
        .then(|| LayerBench::new(w.spec(), registry, spec.seed, cycles * per_cycle[1]))
        .transpose()?;
    let (mut plain, mut traced, mut sys_traced) =
        (Segment::default(), Segment::default(), Segment::default());
    let mut counts = Tally::default();
    let mut op_id = 0u32;
    for _ in 0..cycles {
        plain.absorb(run_segment(w.as_mut(), &mut clock, per_cycle[0], |_, _| Ok(()))?);
        let Some(bench) = bench.as_mut() else { break };
        let before = Tally::take(w.as_ref());
        traced.absorb(run_segment(w.as_mut(), &mut clock, per_cycle[1], |w, clock| {
            let (start, end) = clock.window();
            let root = rec.push("op", start, end, None, op_id);
            for &(phase, s, e) in &clock.marks {
                rec.push(phase.name(), s, e, Some(root), op_id);
            }
            bench.replay(&mut rec, w.last_value(), op_id)?;
            op_id += 1;
            Ok(())
        })?);
        counts.add(&Tally::take(w.as_ref()), &before);
        w.sys_mut().set_tracing(true);
        sys_traced.absorb(run_segment(w.as_mut(), &mut clock, per_cycle[2], |_, _| Ok(()))?);
        w.sys_mut().set_tracing(false);
    }
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut trace = None;
    if let Some(bench) = &bench {
        layer_metrics(&mut m, &rec, bench, &traced, &counts, w.as_ref());
        m.insert("obs.tracing_latency_ratio", sys_traced.p50_us() / plain.p50_us());
        m.insert("harness.latency_p50_us", plain.p50_us());
        m.insert("harness.traced_latency_p50_us", traced.p50_us());
        m.insert("harness.trace_overhead_share", traced.p50_us() / plain.p50_us() - 1.0);
        m.insert("harness.traced_ops", traced.ops as f64);
        trace = Some(rec.chrome_json(TRACE_FILE_OPS));
    }
    let attempted = plain.ops + traced.ops + sys_traced.ops;
    let failed = plain.failed + traced.failed + sys_traced.failed;
    w.finish()?;

    let secs = plain.window_ns as f64 / 1e9;
    m.insert("deliveries_per_s", plain.deliveries as f64 / secs);
    m.insert("latency_p50_us", plain.p50_us());
    m.insert("virt_latency_p99_us", percentile(&mut plain.virt_ns.clone(), 0.99) as f64 / 1e3);
    m.insert("wire_bytes_per_op", plain.wire_bytes as f64 / plain.ops as f64);
    m.insert("setup_s", setup_s);
    m.insert("harness.wall_p99_us", percentile(&mut plain.latency_ns.clone(), 0.99) as f64 / 1e3);
    let (cpu1, wait1) = noise::schedstat();
    let busy = (cpu1 - cpu0 + wait1 - wait0).max(1);
    m.insert("harness.runq_wait_share", (wait1 - wait0) as f64 / busy as f64);
    // The slower of the two spins: a round is as noisy as its worst end.
    m.insert("harness.calib_ns", calib_before.max(noise::calibrate()) as f64);
    m.insert("peak_rss_mib", noise::peak_rss_mib());
    Ok(RoundOutput { attempted, failed, metrics: m, trace })
}

/// Counters of the system registry read for the per-layer counts.
const SYS_COUNTERS: [&str; 8] = [
    "echo.frag.sent",
    "echo.frag.reassembled",
    "echo.journal.appended",
    "echo.dedup.dropped",
    "echo.retry.attempts",
    "echo.events.published",
    "simnet.bytes",
    "simnet.messages",
];
const FAULT_COUNTERS: [&str; 4] = [
    "simnet.fault.dropped",
    "simnet.fault.corrupted",
    "simnet.fault.duplicated",
    "simnet.fault.reordered",
];
const SHARD_FRAMES: [&str; 2] = ["echo.shard.0.frames", "echo.shard.1.frames"];
/// Counters summed over the workload's receiver registries.
const RX_COUNTERS: [&str; 7] = [
    "morph.messages",
    "morph.decision.hit",
    "morph.compile.count",
    "morph.vm.register.apply",
    "ecode.batch.copied_elems",
    "pbio.plan.hit",
    "pbio.plan.miss",
];
/// The program's own stage histograms, same registries.
const STAGES: [(&str, &str); 3] = [
    ("echo.system.stage.encode_us", "echo.stage.encode.ns"),
    ("echo.system.stage.unframe_us", "echo.stage.unframe.ns"),
    ("echo.system.stage.deliver_us", "echo.stage.deliver.ns"),
];

/// Registry readings at one instant; two of them bracket each traced
/// segment so that counts are taken at the same boundaries as the spans.
#[derive(Default)]
struct Tally {
    counters: BTreeMap<&'static str, u64>,
    /// Per stage histogram: `(sum_ns, count)`.
    stages: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    fn take(w: &dyn Workload) -> Tally {
        let sys: &Registry = w.sys().registry();
        let rx = w.registries();
        let mut counters = BTreeMap::new();
        for name in SYS_COUNTERS.into_iter().chain(FAULT_COUNTERS).chain(SHARD_FRAMES) {
            counters.insert(name, sys.counter(name).get());
        }
        for name in RX_COUNTERS {
            counters.insert(name, rx.iter().map(|r| r.counter(name).get()).sum());
        }
        let stages = STAGES
            .iter()
            .map(|&(_, hist)| {
                let hs: Vec<_> = rx.iter().map(|r| r.histogram(hist)).collect();
                (hist, (hs.iter().map(|h| h.sum()).sum(), hs.iter().map(|h| h.count()).sum()))
            })
            .collect();
        Tally { counters, stages }
    }

    /// Adds the growth from `earlier` to `later` to this tally.
    fn add(&mut self, later: &Tally, earlier: &Tally) {
        for (name, v) in &later.counters {
            *self.counters.entry(name).or_default() += v - earlier.counters[name];
        }
        for (name, (sum, n)) in &later.stages {
            let (sum0, n0) = earlier.stages[name];
            let slot = self.stages.entry(name).or_default();
            *slot = (slot.0 + sum - sum0, slot.1 + n - n0);
        }
    }
}

fn ratio(num: f64, den: f64, when_empty: f64) -> f64 {
    if den == 0.0 {
        when_empty
    } else {
        num / den
    }
}

/// Fills `m` with the per-layer metrics of one traced segment.
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    rec: &Recorder,
    bench: &LayerBench,
    seg: &Segment,
    delta: &Tally,
    w: &dyn Workload,
) {
    let mut by_name = rec.self_times_by_name();
    let mut p50_us =
        |span: &str| -> f64 { by_name.get_mut(span).map_or(0.0, |v| median_grouped(v) / 1e3) };
    let ops = seg.ops as f64;
    let count = |name: &str| delta.counters[name] as f64;
    let spec = w.spec();

    for (metric, span) in [
        ("pbio.encode_us", "pbio.encode"),
        ("pbio.decode_us", "pbio.decode"),
        ("pbio.plan_compile_us", "pbio.plan_compile"),
        ("ecode.run_us", "ecode.run"),
        ("ecode.compile_us", "ecode.compile"),
        ("ecode.fuse_us", "ecode.fuse"),
        ("morph.warm_process_us", "morph.warm_process"),
        ("morph.cold_process_us", "morph.cold_process"),
        ("morph.maxmatch_us", "morph.maxmatch"),
        ("echo.proto.frame_us", "echo.proto.frame"),
        ("echo.proto.unframe_us", "echo.proto.unframe"),
        ("echo.frag.split_us", "echo.frag.split"),
        ("echo.frag.reassemble_us", "echo.frag.reassemble"),
        ("simnet.hop_us", "simnet.hop"),
        ("echo.journal.append_us", "echo.journal.append"),
        ("xmlt.morph_us", "xmlt.morph"),
        ("obs.snapshot_us", "obs.snapshot"),
    ] {
        m.insert(metric, p50_us(span));
    }
    let xml_samples = by_name.get("xmlt.morph").map_or(0, Vec::len);
    m.insert("harness.xml_samples", xml_samples as f64);
    m.insert(
        "morph.cold_over_warm",
        ratio(m["morph.cold_process_us"], m["morph.warm_process_us"], 0.0),
    );
    m.insert("xmlt.over_pbio", ratio(m["xmlt.morph_us"], m["morph.warm_process_us"], 0.0));
    m.insert("xmlt.xml_bytes", bench.xml_bytes as f64);
    m.insert("pbio.wire_bytes", bench.wire_bytes as f64);
    // Virtual time has no outliers to guard against: the mean, so that a
    // short last fragment counts.
    let hop_virt_ns: u64 = bench.hop_virt_ns.iter().sum();
    m.insert(
        "simnet.hop_virt_us",
        ratio(hop_virt_ns as f64 / 1e3, bench.hop_virt_ns.len() as f64, 0.0),
    );

    let frames = bench.frames_per_publish as f64;
    let frame_bytes = bench.wire_bytes as f64 / frames + echo::proto::FRAME_HEADER_LEN as f64;
    m.insert("echo.proto.frame_ns_per_byte", m["echo.proto.frame_us"] * 1e3 / frame_bytes);

    // The budget, each layer at its median: sender work once per publish,
    // the wire and the frame check once per frame that crossed it
    // (duplicates and control frames included), reassembly and Algorithm 2
    // once per delivery, one journal append per entry journaled.
    let (publishes, sinks) = (spec.publishes_per_op as f64, spec.sinks as f64);
    let per_publish =
        m["pbio.encode_us"] + m["echo.frag.split_us"] + frames * m["echo.proto.frame_us"];
    let per_frame = m["simnet.hop_us"] + m["echo.proto.unframe_us"];
    let per_delivery = m["echo.frag.reassemble_us"] + m["morph.warm_process_us"];
    let layer_sum = publishes * (per_publish + sinks * per_delivery)
        + count("simnet.messages") / ops * per_frame
        + count("echo.journal.appended") / ops * m["echo.journal.append_us"];
    let latency = seg.p50_us();
    m.insert("echo.system.layer_sum_us", layer_sum);
    m.insert("echo.system.overhead_us", latency - layer_sum);
    m.insert("echo.system.overhead_share", (latency - layer_sum) / latency);
    let phases = ["echo.system.publish_us", "echo.system.run_us", "echo.system.drain_us"];
    for (slot, name) in seg.phase_ns.iter().zip(phases) {
        m.insert(name, percentile(&mut slot.clone(), 0.5) as f64 / 1e3);
    }

    // Counts, taken at the segment's boundaries.
    m.insert(
        "pbio.plan_hit_ratio",
        ratio(count("pbio.plan.hit"), count("pbio.plan.hit") + count("pbio.plan.miss"), 1.0),
    );
    m.insert("ecode.batch_elems_per_op", count("ecode.batch.copied_elems") / ops);
    m.insert(
        "morph.decision_hit_ratio",
        ratio(count("morph.decision.hit"), count("morph.messages"), 1.0),
    );
    m.insert("morph.compiles_per_op", count("morph.compile.count") / ops);
    m.insert("morph.register_applies_per_op", count("morph.vm.register.apply") / ops);
    m.insert("echo.frag.fragments_per_op", count("echo.frag.sent") / ops);
    let fragmented = if frames > 1.0 { count("echo.events.published") * sinks } else { 0.0 };
    m.insert("echo.frag.reassembled_share", ratio(count("echo.frag.reassembled"), fragmented, 1.0));
    m.insert("echo.journal.appended_per_op", count("echo.journal.appended") / ops);
    m.insert("simnet.bytes_per_op", count("simnet.bytes") / ops);
    let faults: f64 = FAULT_COUNTERS.iter().map(|n| count(n)).sum();
    m.insert("simnet.faults_per_kframe", ratio(1e3 * faults, count("simnet.messages"), 0.0));
    m.insert("echo.system.dedup_dropped_per_op", count("echo.dedup.dropped") / ops);
    m.insert("echo.system.retry_attempts_per_op", count("echo.retry.attempts") / ops);
    let shard: Vec<f64> = SHARD_FRAMES.iter().map(|n| count(n)).collect();
    let mean = shard.iter().sum::<f64>() / shard.len() as f64;
    m.insert(
        "echo.system.shard_imbalance",
        ratio(shard.iter().copied().fold(0.0, f64::max), mean, 1.0),
    );
    for (metric, hist) in STAGES {
        let (sum_ns, n) = delta.stages[hist];
        m.insert(metric, ratio(sum_ns as f64 / 1e3, n as f64, 0.0));
    }
}
