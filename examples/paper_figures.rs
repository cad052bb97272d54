//! The timed figures of the paper's §5 — PBIO against XML — over its size
//! sweep, printed as EXPERIMENTS.md's tables:
//!
//! - Figure 8, encoding: `pbio::Encoder` vs XML string building;
//! - Figure 9, decoding without evolution: a cached conversion plan vs XML
//!   parse + walk into a typed record;
//! - Figure 10, decoding with evolution: a warm `MorphReceiver::process` of
//!   the v2.0 wire bytes, delivering the Fig. 5 rollback to a v1.0 handler,
//!   vs XML parse + XSLT + walk into the v1.0 record;
//! - Table 1's sizes, with the 10 MB end of the sweep that `tests/paper.rs`
//!   leaves out (the test asserts the other columns exactly).
//!
//! Each cell is the median per-call time over `ROUNDS` rounds; a round runs
//! one PBIO batch and then one XML batch, so both sides see the same machine
//! state. The ratios are printed, not checked: absolute times depend on the
//! hardware, and the core count is printed with them.
//!
//! Run with: `cargo run --release --example paper_figures`

use std::hint::black_box;
use std::time::Instant;

use message_morphing::paper::{
    fig5_transformation, members_for_size, response_v1, response_v2, table1_row, v2_message,
    FIG5_XSL, SWEEP,
};
use morph::MorphReceiver;
use pbio::{ConversionPlan, Encoder};
use xmlt::Stylesheet;

/// Interleaved PBIO/XML rounds per cell.
const ROUNDS: usize = 11;
/// Target length of one timed batch, in nanoseconds.
const BATCH_NS: u128 = 5_000_000;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("message-morphing, paper §5 figures: {cores} cores, {ROUNDS} interleaved rounds");

    let (v2, v1) = (response_v2(), response_v1());
    let encoder = Encoder::new(&v2);
    let plan = ConversionPlan::identity(&v2).expect("static formats compile");
    let stylesheet = Stylesheet::parse(FIG5_XSL).expect("stylesheet parses");
    let mut rx = MorphReceiver::new();
    rx.register_handler(&v1, |v| drop(black_box(v)));
    rx.import_transformation(fig5_transformation());

    let [mut fig8, mut fig9, mut fig10] = [(); 3].map(|()| Vec::new());
    for target in SWEEP {
        let msg = v2_message(members_for_size(target));
        let wire = encoder.encode(&msg).expect("workload conforms");
        let xml = xmlt::value_to_xml(&msg, &v2);
        // Warm before timing; on the first size this is the one cold decision.
        rx.process(&wire).expect("Fig. 5 morphs");

        fig8.push(race(
            || drop(black_box(encoder.encode(&msg))),
            || drop(black_box(xmlt::value_to_xml(&msg, &v2))),
        ));
        fig9.push(race(
            || drop(black_box(plan.execute(&wire))),
            || drop(black_box(xmlt::xml_to_value(&xml, &v2))),
        ));
        fig10.push(race(
            || {
                black_box(rx.process(&wire).expect("Fig. 5 morphs"));
            },
            || {
                let doc = xmlt::parse(&xml).expect("xml is well-formed");
                let out = stylesheet.transform(&doc).expect("stylesheet applies");
                drop(black_box(xmlt::element_to_value(&out, &v1)));
            },
        ));
    }

    print_figure("Figure 8 — Encoding cost (ms)", ["PBIO", "XML", "XML/PBIO"], &fig8);
    print_figure(
        "Figure 9 — Decoding cost without evolution (ms)",
        ["PBIO (cached plan)", "XML (parse + tree walk)", "XML/PBIO"],
        &fig9,
    );
    print_figure(
        "Figure 10 — Decoding cost with message evolution (ms)",
        ["PBIO morphing (warm process)", "XML/XSLT", "XSLT/morphing"],
        &fig10,
    );
    print_table1();
}

/// Median per-call nanoseconds of `pbio` and of `xml`, timed in `ROUNDS`
/// interleaved batches.
fn race(mut pbio: impl FnMut(), mut xml: impl FnMut()) -> (f64, f64) {
    let (pbio_batch, xml_batch) = (batch_len(&mut pbio), batch_len(&mut xml));
    let (mut p, mut x) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for _ in 0..ROUNDS {
        p.push(per_call_ns(&mut pbio, pbio_batch));
        x.push(per_call_ns(&mut xml, xml_batch));
    }
    (median(p), median(x))
}

/// Calls `f` once and sizes a batch to about `BATCH_NS` from that call.
fn batch_len(f: &mut impl FnMut()) -> u32 {
    let t = Instant::now();
    f();
    (BATCH_NS / t.elapsed().as_nanos().max(1)).clamp(1, 100_000) as u32
}

fn per_call_ns(f: &mut impl FnMut(), calls: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn print_figure(title: &str, [pbio, xml, ratio]: [&str; 3], rows: &[(f64, f64)]) {
    println!("\n{title}\n\n| size | {pbio} | {xml} | {ratio} |\n|---|---|---|---|");
    for (target, &(p, x)) in SWEEP.iter().zip(rows) {
        println!("| {} | {} | {} | {:.1}× |", size_label(*target), fmt_ms(p), fmt_ms(x), x / p);
    }
}

/// Table 1 in KB, the paper's 0.1 KB … 1000 KB columns plus 10 MB.
fn print_table1() {
    let targets = [SWEEP.as_slice(), &[10_000_000]].concat();
    println!("\nTable 1 — ChannelOpenResponse message size (KB)\n");
    println!("| | {} |", targets.iter().map(|&t| size_label(t)).collect::<Vec<_>>().join(" | "));
    println!("|---|{}", "---|".repeat(targets.len()));
    let rows: Vec<[usize; 5]> = targets
        .iter()
        .map(|&t| {
            let r = table1_row(members_for_size(t));
            [r.unencoded_v2, r.pbio_v2, r.unencoded_v1, r.xml_v2, r.xml_v1]
        })
        .collect();
    let names = ["Unencoded v2.0", "PBIO v2.0", "Unencoded v1.0", "XML v2.0", "XML v1.0"];
    for (i, name) in names.into_iter().enumerate() {
        let cells: Vec<_> = rows.iter().map(|r| fmt_kb(r[i])).collect();
        println!("| {name} | {} |", cells.join(" | "));
    }
}

fn size_label(bytes: usize) -> String {
    match bytes {
        1_000_000.. => format!("{}MB", bytes / 1_000_000),
        1_000.. => format!("{}KB", bytes / 1_000),
        _ => format!("{bytes}B"),
    }
}

/// Nanoseconds on the paper's millisecond axis.
fn fmt_ms(ns: f64) -> String {
    match ns / 1e6 {
        ms if ms >= 100.0 => format!("{ms:.0}"),
        ms if ms >= 1.0 => format!("{ms:.2}"),
        ms => format!("{ms:.4}"),
    }
}

/// Bytes in KB with the paper's precision.
fn fmt_kb(bytes: usize) -> String {
    match bytes as f64 / 1000.0 {
        kb if kb >= 100.0 => format!("{kb:.0}"),
        kb if kb >= 1.0 => format!("{kb:.1}"),
        kb => format!("{kb:.2}"),
    }
}
