//! The repository's benchmark: four workloads run end to end through
//! `EchoSystem`, every delivered value checked, every metric printed by
//! name and unit. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! benchmark run [--seed N] [--seconds S] [--traced]         all four, interleaved rounds, results file
//! benchmark compare A.json B.json                           judge two results files
//! benchmark verify                                          every workload at 1/20 size, <15 s
//! ```

mod gen;
mod json;
mod layers;
mod metrics;
mod noise;
mod report;
mod round;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::WorkloadReport;
use round::{RoundOutput, RoundSpec};
use workloads::{Scale, NAMES};

/// Rounds per run; every end-to-end metric is its best round's value.
const ROUNDS: u64 = 10;
const DEFAULT_SECONDS: u64 = 10;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `--key value` pairs and bare `--switch`es after the subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(text) => {
                text.parse().map_err(|_| format!("{key} wants a whole number, got {text:?}"))
            }
            None => Ok(default),
        }
    }
}

/// Where results and traces go: `out/` beside this package's manifest.
fn out_dir() -> Result<PathBuf, String> {
    let base = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "benchmark".to_string());
    let dir = PathBuf::from(base).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn metrics_json(metrics: &BTreeMap<&'static str, f64>) -> Json {
    Json::obj(metrics.iter().map(|(k, v)| (*k, Json::Num(*v))))
}

/// `round`: one (workload, round) in this process; prints one JSON line.
/// Internal — the other commands spawn it so that every round starts from
/// a fresh heap and reports its own peak memory.
fn cmd_round(flags: &Flags) -> Result<(), String> {
    let spec = RoundSpec {
        workload: flags.get("--workload").ok_or("round: --workload missing")?.to_string(),
        seed: flags.number("--seed", 1)?,
        warmup: flags.number("--warmup", 0)?,
        ops: flags.number("--ops", 1)?,
        scale: Scale(1),
        traced: flags.has("--traced"),
    };
    let out = round::run_round(&spec)?;
    if let (Some(path), Some(trace)) = (flags.get("--trace-file"), &out.trace) {
        std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
    }
    let line = Json::obj([
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{line}");
    Ok(())
}

/// What a child `round` printed.
struct ChildRound {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one round in a fresh child process and waits for it.
fn spawn_round(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<ChildRound, String> {
    // The one traced round of a run is as long as half the untraced
    // rounds together: its replays about double the cost of an operation.
    let (ops, warmup) = workloads::round_ops(workload, seconds, if traced { 2 } else { ROUNDS })
        .ok_or(format!("unknown workload {workload:?} (expected one of {NAMES:?})"))?;
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.arg("round").args(["--workload", workload]);
    cmd.args(["--seed", &seed.to_string(), "--ops", &ops.to_string()]);
    cmd.args(["--warmup", &warmup.to_string()]);
    if traced {
        let path = out_dir()?.join(format!("trace-{workload}.json"));
        cmd.arg("--traced").arg("--trace-file").arg(path);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(err)?;
    if !out.status.success() {
        return Err(format!("{workload}: round failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.lines().last().unwrap_or(""))?;
    let count =
        |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("round output lacks {k}"));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("round output lacks metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok(ChildRound {
        attempted: count("attempted")? as u64,
        failed: count("failed")? as u64,
        metrics,
    })
}

fn absorb(report: &mut WorkloadReport, round: ChildRound, traced: bool) {
    report.attempted += round.attempted;
    report.failed += round.failed;
    if traced {
        let layers = metrics::PER_LAYER.iter().map(|m| m.name);
        report.per_layer =
            layers.filter_map(|n| Some((n.to_string(), *round.metrics.get(n)?))).collect();
    } else {
        report.rounds.push(round.metrics);
    }
}

/// The driver's entry point: one workload, one line of JSON last on
/// stdout. `--trace 0` gives the end-to-end metrics (best of [`ROUNDS`]
/// fresh processes), `--trace 1` the per-layer metrics of one traced round.
fn cmd_contract(flags: &Flags) -> Result<(), String> {
    let workload =
        flags.get("--workload").ok_or("--workload missing (or: run | compare | verify)")?;
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", DEFAULT_SECONDS)?.max(1);
    let traced = flags.number("--trace", 0)? != 0;
    let mut report = WorkloadReport::default();
    for _ in 0..if traced { 1 } else { ROUNDS } {
        absorb(&mut report, spawn_round(workload, seed, seconds, traced)?, traced);
    }
    let value = |name: &str, v: f64| {
        (
            name.to_string(),
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(metrics::unit_of(name)))]),
        )
    };
    let metrics: Vec<(String, Json)> = if traced {
        report.per_layer.iter().map(|(n, v)| value(n, *v)).collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| value(m.name, report::summarize(m, &report.values(m.name)).value))
            .collect()
    };
    // A wrong, repeated or misaccounted delivery fails its round, and with
    // it this command, before anything is printed: a line means "correct".
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(())
}

/// `run`: the four workloads, [`ROUNDS`] interleaved rounds each, then
/// (with `--traced`) one traced round per workload. Prints the table and
/// writes the results file.
fn cmd_run(flags: &Flags) -> Result<(), String> {
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", DEFAULT_SECONDS)?.max(1);
    let mut reports: BTreeMap<String, WorkloadReport> = BTreeMap::new();
    for round in 0..ROUNDS {
        for name in NAMES {
            eprintln!("round {}/{ROUNDS}: {name}", round + 1);
            absorb(
                reports.entry(name.to_string()).or_default(),
                spawn_round(name, seed, seconds, false)?,
                false,
            );
        }
    }
    if flags.has("--traced") {
        for name in NAMES {
            eprintln!("traced round: {name}");
            absorb(
                reports.entry(name.to_string()).or_default(),
                spawn_round(name, seed, seconds, true)?,
                true,
            );
        }
    }
    report::print_table(&reports);
    let path = match flags.get("--out") {
        Some(p) => PathBuf::from(p),
        None => out_dir()?.join(format!("results-seed{seed}.json")),
    };
    let doc = report::to_json(seed, seconds, noise::machine_info(), &reports);
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

/// `compare A.json B.json`: non-zero exit when any row regressed.
fn cmd_compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else { return Err("compare wants exactly two results files".into()) };
    let read = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    match report::compare(&read(a)?, &read(b)?)? {
        0 => Ok(()),
        n => Err(format!("{n} row(s) regressed")),
    }
}

/// Metrics that must repeat bit for bit between two rounds of one seed:
/// virtual time, bytes, and every count the program keeps.
const EXACT: [&str; 18] = [
    "virt_latency_p99_us",
    "wire_bytes_per_op",
    "pbio.wire_bytes",
    "pbio.plan_hit_ratio",
    "ecode.batch_elems_per_op",
    "morph.decision_hit_ratio",
    "morph.compiles_per_op",
    "morph.register_applies_per_op",
    "echo.frag.fragments_per_op",
    "echo.frag.reassembled_share",
    "echo.journal.appended_per_op",
    "echo.system.dedup_dropped_per_op",
    "echo.system.retry_attempts_per_op",
    "echo.system.shard_imbalance",
    "simnet.hop_virt_us",
    "simnet.bytes_per_op",
    "simnet.faults_per_kframe",
    "xmlt.xml_bytes",
];

fn exact_metrics(out: &RoundOutput) -> Vec<(&'static str, f64)> {
    EXACT.iter().filter_map(|n| out.metrics.get_key_value(n).map(|(k, v)| (*k, *v))).collect()
}

/// `verify`: every workload at 1/20 size in this process — correctness
/// checks, no failed operation, exact metrics identical across two
/// repeats of one seed, and output that parses with the in-tree reader.
fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let seed = flags.number("--seed", 1)?;
    let scale = Scale(20);
    for name in NAMES {
        let (ops, warmup) =
            workloads::round_ops(name, DEFAULT_SECONDS, ROUNDS).expect("known name");
        for traced in [false, true] {
            let spec = RoundSpec {
                workload: name.to_string(),
                seed,
                warmup: scale.of(warmup),
                ops: scale.of(ops).max(8),
                scale,
                traced,
            };
            let (first, second) = (round::run_round(&spec)?, round::run_round(&spec)?);
            if first.failed != 0 {
                return Err(format!(
                    "{name}: {} of {} operations failed",
                    first.failed, first.attempted
                ));
            }
            if exact_metrics(&first) != exact_metrics(&second) {
                return Err(format!(
                    "{name}: exact metrics differ between two runs of seed {seed}:\n{:?}\n{:?}",
                    exact_metrics(&first),
                    exact_metrics(&second)
                ));
            }
            let text = metrics_json(&first.metrics).to_string();
            let back = Json::parse(&text)
                .map_err(|e| format!("{name}: emitted JSON does not parse: {e}"))?;
            if back.as_obj().map_or(0, <[_]>::len) != first.metrics.len() {
                return Err(format!("{name}: emitted JSON lost metrics"));
            }
            let catalogue: Vec<&str> = if traced {
                metrics::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                metrics::END_TO_END.iter().map(|m| m.name).collect()
            };
            if let Some(missing) = catalogue.iter().find(|n| !first.metrics.contains_key(**n)) {
                return Err(format!("{name}: metric {missing} was not produced"));
            }
            println!(
                "verify {name:<14} {:<8} ok: {} operations, {} exact metrics repeat",
                if traced { "traced" } else { "untraced" },
                first.attempted,
                exact_metrics(&first).len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("round") => cmd_round(&Flags(rest)),
        Some("run") => cmd_run(&Flags(rest)),
        Some("compare") => cmd_compare(rest),
        Some("verify") => cmd_verify(&Flags(rest)),
        _ => cmd_contract(&Flags(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
