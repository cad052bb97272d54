//! Results of a run: per workload, every end-to-end metric as its value
//! in the best round (with the median, min and max over the rounds and the
//! rounds themselves), the noise record, and the per-layer metrics of the
//! traced round — as a results file, as the table a person reads, and as
//! the rows `compare` judges.
//!
//! Why the best round and not the median round: on a shared box the
//! interference only ever slows a round down, and it comes in phases that
//! outlast several rounds. Ten runs of ten rounds on the reference box
//! gave, for `latency_p50_us` on `cor_v2v1`, a quartile spread of 9.5%
//! for the median round and 2.6% for the best round (`join_churn`: 27%
//! and 9%; `setup_s` on `cor_v2v1`: 21% and 2%).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Metric, END_TO_END};
use crate::stats::{max, median, min};

/// A round whose calibration spin is more than this share slower than the
/// run's best is flagged in the output (never dropped).
const CALIB_FLAG_SHARE: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The metric's value in its best round — the reported number.
    pub value: f64,
    /// The good-side quartile of the rounds: a quarter of the rounds are
    /// at least this good. `value..quartile` is how well the good rounds
    /// agree, which is how far `value` can be trusted.
    pub quartile: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn summarize(metric: &Metric, rounds: &[f64]) -> Summary {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(f64::total_cmp);
    if metric.better == "higher" {
        sorted.reverse();
    }
    let at = |i: usize| sorted.get(i).copied().unwrap_or(0.0);
    Summary {
        value: at(0),
        quartile: at(sorted.len() / 4),
        median: median(rounds),
        min: min(rounds),
        max: max(rounds),
    }
}

#[derive(Debug, Default)]
pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    /// One map per untraced round, in the order the rounds ran.
    pub rounds: Vec<BTreeMap<String, f64>>,
    /// Metrics of the traced round, when one was run.
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadReport {
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.rounds.iter().filter_map(|r| r.get(metric).copied()).collect()
    }

    /// Indices of rounds whose calibration was >10% off the best.
    pub fn flagged_rounds(&self, best_calib_ns: f64) -> Vec<usize> {
        self.rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.get("harness.calib_ns")
                    .is_some_and(|c| *c > best_calib_ns * (1.0 + CALIB_FLAG_SHARE))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Fastest calibration spin over every round of every workload.
pub fn best_calib_ns(reports: &BTreeMap<String, WorkloadReport>) -> f64 {
    min(&reports.values().flat_map(|r| r.values("harness.calib_ns")).collect::<Vec<_>>())
}

fn metric_json(metric: &Metric, values: &[f64]) -> Json {
    let s = summarize(metric, values);
    Json::obj([
        ("unit", Json::str(metric.unit)),
        ("value", Json::Num(s.value)),
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("rounds", Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())),
    ])
}

/// The results file.
pub fn to_json(
    seed: u64,
    seconds: u64,
    machine: Json,
    reports: &BTreeMap<String, WorkloadReport>,
) -> Json {
    let best = best_calib_ns(reports);
    let workloads = reports.iter().map(|(name, r)| {
        let e2e = END_TO_END.iter().map(|m| (m.name, metric_json(m, &r.values(m.name))));
        let noise = ["harness.calib_ns", "harness.runq_wait_share", "harness.wall_p99_us"]
            .map(|n| (n, metric_json(metrics::per_layer(n).expect("catalogued"), &r.values(n))));
        let flagged = r.flagged_rounds(best).into_iter().map(|i| Json::Num(i as f64)).collect();
        let layers = r.per_layer.iter().map(|(n, v)| {
            (
                n.clone(),
                Json::obj([("unit", Json::str(metrics::unit_of(n))), ("value", Json::Num(*v))]),
            )
        });
        let body = Json::obj([
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("failed_share", Json::Num(r.failed as f64 / r.attempted.max(1) as f64)),
            ("end_to_end", Json::obj(e2e)),
            ("noise", Json::obj(noise)),
            ("flagged_rounds", Json::Arr(flagged)),
            ("per_layer", Json::obj(layers)),
        ]);
        (name.clone(), body)
    });
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("machine", machine),
        ("workloads", Json::obj(workloads)),
    ])
}

/// The table a person reads: one row per (workload, end-to-end metric).
pub fn print_table(reports: &BTreeMap<String, WorkloadReport>) {
    let best = best_calib_ns(reports);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "best round", "median", "min", "max"
    );
    for (name, r) in reports {
        for m in &END_TO_END {
            let s = summarize(m, &r.values(m.name));
            println!(
                "{name:<14} {:<22} {:>14.3} {:>14.3} {:>14.3} {:>14.3}  {}",
                m.name, s.value, s.median, s.min, s.max, m.unit
            );
        }
        println!("{name:<14} {:<22} {:>14} of {} operations", "failed", r.failed, r.attempted);
        let flagged = r.flagged_rounds(best);
        if !flagged.is_empty() {
            println!("{name:<14} noisy rounds (calibration >10% off the best): {flagged:?}");
        }
        for (layer, v) in &r.per_layer {
            println!("{name:<14} {layer:<38} {v:>14.3}  {}", metrics::unit_of(layer));
        }
    }
}

/// One end-to-end metric of one workload, from the rounds a results file
/// records.
fn read_summary(doc: &Json, workload: &str, metric: &Metric) -> Option<Summary> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric.name)?;
    let rounds: Vec<f64> = m.get("rounds")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    (!rounds.is_empty()).then(|| summarize(metric, &rounds))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// On one side even the good rounds spread wider than the bound, and
    /// the two sides' good ranges overlap: the runs cannot tell a change
    /// from noise.
    Unresolved,
}

/// Judges B against A on one metric.
pub fn judge(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let spread = |s: &Summary| (s.quartile - s.value).abs() / s.value.abs().max(f64::MIN_POSITIVE);
    let range = |s: &Summary| (s.value.min(s.quartile), s.value.max(s.quartile));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let worse = match metric.better {
        "higher" => (a.value - b.value) / a.value,
        _ => (b.value - a.value) / a.value,
    };
    if spread(a).max(spread(b)) > metric.bound && overlap {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, end-to-end metric) of two results files
/// and returns how many rows regressed.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let names = a.get("workloads").and_then(Json::as_obj).ok_or("A: no workloads")?;
    println!(
        "{:<14} {:<20} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A best", "A min..max", "B best", "B min..max", "bound"
    );
    let mut regressed = 0;
    for (workload, _) in names {
        for m in &END_TO_END {
            let sa =
                read_summary(a, workload, m).ok_or(format!("A lacks {workload}/{}", m.name))?;
            let sb =
                read_summary(b, workload, m).ok_or(format!("B lacks {workload}/{}", m.name))?;
            let verdict = judge(m, &sa, &sb);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<14} {:<20} {:>12.3} {:>25} {:>12.3} {:>25} {:>5.0}%  {}",
                m.name,
                sa.value,
                format!("{:.3}..{:.3}", sa.min, sa.max),
                sb.value,
                format!("{:.3}..{:.3}", sb.min, sb.max),
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(rounds: &[f64]) -> Summary {
        summarize(metrics::end_to_end("latency_p50_us").unwrap(), rounds)
    }

    #[test]
    fn summary_takes_the_best_round_in_the_metric_s_direction() {
        let rounds = [110.0, 100.0, 140.0, 104.0, 120.0, 101.0, 180.0, 103.0];
        let s = lat(&rounds);
        assert_eq!((s.value, s.quartile, s.min, s.max), (100.0, 103.0, 100.0, 180.0));
        assert_eq!(s.median, 107.0);
        let thr = summarize(metrics::end_to_end("deliveries_per_s").unwrap(), &rounds);
        assert_eq!((thr.value, thr.quartile), (180.0, 120.0));
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let m = metrics::end_to_end("latency_p50_us").unwrap(); // lower is better
        let bound = m.bound;
        let a = lat(&[100.0, 101.0, 102.0, 130.0]);
        let scaled = |by: f64| lat(&[100.0 * by, 101.0 * by, 102.0 * by, 130.0 * by]);
        assert_eq!(judge(m, &a, &scaled(1.0 + bound / 2.0)), Verdict::Ok);
        assert_eq!(judge(m, &a, &scaled(1.0 + bound * 2.0)), Verdict::Regressed);
        assert_eq!(judge(m, &a, &scaled(0.5)), Verdict::Ok, "faster is never a regression");
        // Even the good rounds of B disagree by more than the bound, and
        // they straddle A: cannot tell.
        let wide = lat(&[90.0, 90.0 * (1.0 + 2.0 * bound), 200.0, 210.0]);
        assert_eq!(judge(m, &a, &wide), Verdict::Unresolved);
        // As wide, but every good round of B is slower than A's: regressed.
        let far = lat(&[200.0, 200.0 * (1.0 + 2.0 * bound), 500.0, 510.0]);
        assert_eq!(judge(m, &a, &far), Verdict::Regressed);
        // Exact metrics that repeat bit for bit are never "unresolved".
        let exact = lat(&[196.54; 5]);
        assert_eq!(judge(m, &exact, &exact), Verdict::Ok);
        let thr = metrics::end_to_end("deliveries_per_s").unwrap(); // higher is better
        let t = |v: f64| summarize(thr, &[v, v * 0.99, v * 0.9]);
        assert_eq!(
            judge(thr, &t(1000.0), &t(1000.0 * (1.0 - 2.0 * thr.bound))),
            Verdict::Regressed
        );
        assert_eq!(judge(thr, &t(1000.0), &t(1300.0)), Verdict::Ok);
    }

    #[test]
    fn results_file_round_trips_through_the_reader() {
        let mut r = WorkloadReport { attempted: 10, failed: 0, ..WorkloadReport::default() };
        for (lat, calib) in [(100.0, 50.0), (110.0, 70.0), (90.0, 51.0)] {
            let mut round: BTreeMap<String, f64> =
                END_TO_END.iter().map(|m| (m.name.to_string(), lat)).collect();
            round.insert("harness.calib_ns".into(), calib);
            r.rounds.push(round);
        }
        let reports = BTreeMap::from([("cor_v2v1".to_string(), r)]);
        let text = to_json(1, 10, Json::Null, &reports).to_string();
        let doc = Json::parse(&text).expect("parses");
        let m = metrics::end_to_end("latency_p50_us").unwrap();
        assert_eq!(read_summary(&doc, "cor_v2v1", m), Some(lat(&[100.0, 110.0, 90.0])));
        let flagged = doc.get("workloads").and_then(|w| w.get("cor_v2v1")?.get("flagged_rounds"));
        assert_eq!(flagged, Some(&Json::Arr(vec![Json::Num(1.0)])), "70 is >10% off 50");
        assert_eq!(compare(&doc, &doc), Ok(0));
    }
}
