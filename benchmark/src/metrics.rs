//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees; the same six on every workload.
/// (`failed_share` is not here: the result line carries `attempted` and
/// `failed`, and the contract wants metrics that are never 0.)
pub const END_TO_END: [Metric; 6] = [
    e2e("deliveries_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("virt_latency_p99_us", "us", "lower", 0.03),
    e2e("wire_bytes_per_op", "B", "lower", 0.03),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
];

/// One layer each; no bounds. "better" is the direction an optimisation
/// of that layer would move it.
pub const PER_LAYER: [Metric; 54] = [
    layer("pbio.encode_us", "us", "lower"),
    layer("pbio.decode_us", "us", "lower"),
    layer("pbio.plan_compile_us", "us", "lower"),
    layer("pbio.plan_hit_ratio", "ratio", "higher"),
    layer("pbio.wire_bytes", "B", "lower"),
    layer("ecode.run_us", "us", "lower"),
    layer("ecode.compile_us", "us", "lower"),
    layer("ecode.fuse_us", "us", "lower"),
    layer("ecode.batch_elems_per_op", "count", "higher"),
    layer("morph.warm_process_us", "us", "lower"),
    layer("morph.cold_process_us", "us", "lower"),
    layer("morph.maxmatch_us", "us", "lower"),
    layer("morph.cold_over_warm", "ratio", "lower"),
    layer("morph.decision_hit_ratio", "ratio", "higher"),
    layer("morph.compiles_per_op", "count", "lower"),
    layer("morph.register_applies_per_op", "count", "lower"),
    layer("echo.proto.frame_us", "us", "lower"),
    layer("echo.proto.unframe_us", "us", "lower"),
    layer("echo.proto.frame_ns_per_byte", "ns/B", "lower"),
    layer("echo.frag.split_us", "us", "lower"),
    layer("echo.frag.reassemble_us", "us", "lower"),
    layer("echo.frag.fragments_per_op", "count", "lower"),
    layer("echo.frag.reassembled_share", "ratio", "higher"),
    layer("echo.journal.append_us", "us", "lower"),
    layer("echo.journal.appended_per_op", "count", "lower"),
    layer("simnet.hop_us", "us", "lower"),
    layer("simnet.hop_virt_us", "us", "lower"),
    layer("simnet.bytes_per_op", "B", "lower"),
    layer("simnet.faults_per_kframe", "count", "lower"),
    layer("echo.system.publish_us", "us", "lower"),
    layer("echo.system.run_us", "us", "lower"),
    layer("echo.system.drain_us", "us", "lower"),
    layer("echo.system.layer_sum_us", "us", "lower"),
    layer("echo.system.overhead_us", "us", "lower"),
    layer("echo.system.overhead_share", "ratio", "lower"),
    layer("echo.system.stage.encode_us", "us", "lower"),
    layer("echo.system.stage.unframe_us", "us", "lower"),
    layer("echo.system.stage.deliver_us", "us", "lower"),
    layer("echo.system.dedup_dropped_per_op", "count", "lower"),
    layer("echo.system.retry_attempts_per_op", "count", "lower"),
    layer("echo.system.shard_imbalance", "ratio", "lower"),
    layer("xmlt.morph_us", "us", "lower"),
    layer("xmlt.xml_bytes", "B", "lower"),
    layer("xmlt.over_pbio", "ratio", "higher"),
    layer("obs.tracing_latency_ratio", "ratio", "lower"),
    layer("obs.snapshot_us", "us", "lower"),
    layer("harness.latency_p50_us", "us", "lower"),
    layer("harness.traced_latency_p50_us", "us", "lower"),
    layer("harness.wall_p99_us", "us", "lower"),
    layer("harness.calib_ns", "ns", "lower"),
    layer("harness.runq_wait_share", "ratio", "lower"),
    layer("harness.trace_overhead_share", "ratio", "lower"),
    layer("harness.traced_ops", "count", "higher"),
    layer("harness.xml_samples", "count", "higher"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::NAMES;

    /// `BENCHMARK.json` at the repository root is the driver's view of
    /// this table; they must not drift.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, f64)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String, String, f64)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), m.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, NAMES);
    }
}
