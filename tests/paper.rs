//! The exact figures of the paper's §5 evaluation, on its own workload
//! (`message_morphing::paper`): Table 1's message sizes at every sweep
//! point, the delivery latency those sizes buy on constrained links, and
//! the Fig. 5 rollback agreeing with its XSLT twin.
//!
//! The timed figures (8–10) are ratios of wall-clock medians; they print
//! from `cargo run --release --example paper_figures`.

use std::sync::{Arc, Mutex};

use message_morphing::paper::{
    fig5_rollback, fig5_transformation, members_for_size, response_v1, response_v2, table1_row,
    v2_message, Table1Row, FIG5_XSL, SWEEP,
};
use morph::{CompiledChain, Delivery, MorphReceiver};
use pbio::{Encoder, Value};
use simnet::{LinkParams, Network};

/// Table 1, exact, at every sweep point: `(members, unencoded v2.0, PBIO
/// v2.0, unencoded v1.0, XML v2.0, XML v1.0)`.
const TABLE1: [(usize, usize, usize, usize, usize, usize); 5] = [
    (4, 100, 116, 276, 517, 887),
    (42, 1_012, 1_028, 2_784, 4_768, 8_244),
    (417, 10_012, 10_028, 27_534, 47_086, 81_948),
    (4_167, 100_012, 100_028, 275_034, 474_004, 830_202),
    (41_667, 1_000_012, 1_000_028, 2_750_034, 4_780_672, 8_425_206),
];

#[test]
fn table1_sizes_are_exact_at_every_sweep_point() {
    for (target, &(members, unencoded_v2, pbio_v2, unencoded_v1, xml_v2, xml_v1)) in
        SWEEP.into_iter().zip(&TABLE1)
    {
        let want = Table1Row { members, unencoded_v2, pbio_v2, unencoded_v1, xml_v2, xml_v1 };
        assert_eq!(table1_row(members_for_size(target)), want, "target {target} B");
    }
}

/// The paper's sentences over Table 1: "PBIO encoding adds less than 30
/// bytes", the v1.0 rollback "increases by three times", and XML inflates
/// both versions well past the binary baseline.
#[test]
fn table1_has_the_papers_shape() {
    for (target, &(n, ..)) in SWEEP.into_iter().zip(&TABLE1) {
        let r = table1_row(n);
        assert_eq!(r.pbio_v2 - r.unencoded_v2, pbio::HEADER_LEN, "target {target} B");
        assert!(r.pbio_v2 - r.unencoded_v2 < 30, "target {target} B");
        assert!(r.unencoded_v1 * 2 > r.unencoded_v2 * 5, "rollback > 2.5x at {target} B");
        assert!(r.xml_v1 > r.xml_v2, "target {target} B");
        assert!(r.xml_v2 > 3 * r.unencoded_v2, "target {target} B");
    }
}

/// One send of the 100 KB point per encoding over LAN, WAN and wireless:
/// exact virtual-time arrival, in nanoseconds (§1's "low bandwidths of
/// newly employed wireless links").
#[test]
fn constrained_link_latency_is_exact() {
    let (v2, v1) = (response_v2(), response_v1());
    let msg = v2_message(members_for_size(100_000));
    let v1_val = fig5_rollback(&msg);
    let encodings: [(&str, usize, [u64; 3]); 3] = [
        (
            "PBIO v2.0",
            Encoder::new(&v2).encode(&msg).unwrap().len(),
            [1_100_280, 140_028_000, 1_005_280_000],
        ),
        (
            "PBIO v1.0",
            Encoder::new(&v1).encode(&v1_val).unwrap().len(),
            [2_850_500, 315_050_000, 2_755_500_000],
        ),
        (
            "XML v1.0",
            xmlt::value_to_xml(&v1_val, &v1).len(),
            [8_402_020, 870_202_000, 8_307_020_000],
        ),
    ];
    let sizes: Vec<usize> = encodings.iter().map(|&(_, size, _)| size).collect();
    assert_eq!(sizes, [100_028, 275_050, 830_202]);
    for (name, size, want) in encodings {
        let got = [LinkParams::lan(), LinkParams::wan(), LinkParams::wireless()].map(|params| {
            let mut net = Network::new();
            let a = net.add_node("sender");
            let b = net.add_node("receiver");
            net.connect(a, b, params);
            net.send(a, b, vec![0u8; size]).unwrap()
        });
        assert_eq!(got, want, "{name} ({size} B): LAN / WAN / wireless arrival");
    }
}

/// What a v1.0 receiver delivers for a v2.0 message morphed by Fig. 5
/// equals what the XSLT twin makes of the same message's XML.
#[test]
fn fig5_ecode_and_its_xslt_twin_deliver_equal_v1_records() {
    let (v2, v1) = (response_v2(), response_v1());
    let stylesheet = xmlt::Stylesheet::parse(FIG5_XSL).unwrap();
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut rx = MorphReceiver::new();
    rx.register_handler(&v1, move |v| sink.lock().unwrap().push(v));
    rx.import_transformation(fig5_transformation());
    for n in [0, 1, 6, members_for_size(1_000), members_for_size(10_000)] {
        let msg = v2_message(n);
        let wire = Encoder::new(&v2).encode(&msg).unwrap();
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)), "{n} members");
        let morphed = got.lock().unwrap().pop().expect("one delivery");

        let doc = xmlt::parse(&xmlt::value_to_xml(&msg, &v2)).unwrap();
        let xslt = xmlt::element_to_value(&stylesheet.transform(&doc).unwrap(), &v1).unwrap();
        assert_eq!(morphed, xslt, "{n} members");
        morphed.check(&v1).unwrap();
        let Value::Record(fields) = &morphed else { panic!("a record") };
        assert_eq!(fields[2], Value::Int(n as i64), "every member is a source");
        assert_eq!(fields[4], Value::Int(n as i64), "every member is a sink");
    }
}

#[test]
fn v2_message_conforms() {
    for n in [0, 1, 7, 100] {
        v2_message(n).check(&response_v2()).unwrap();
    }
}

#[test]
fn members_for_size_hits_targets() {
    let v2 = response_v2();
    for target in SWEEP {
        let n = members_for_size(target);
        let size = |n| v2_message(n).native_record_size(&v2);
        assert!(size(n).abs_diff(target) <= size(n + 1).abs_diff(target), "target {target}");
        assert!(n == 0 || size(n).abs_diff(target) <= size(n - 1).abs_diff(target));
        assert!(size(n).abs_diff(target) * 50 < target, "target {target}: {} B", size(n));
    }
}

/// Fig. 5's register code as compiled: the listing `examples/vm_dump.rs`
/// prints for its one step.
const FIG5_STEP_LISTING: &str = concat!(
    "; register ISA: 28 insns, 4 regs, 2 roots, 0 strings, 0 fns\n",
    "   0  r3 = 0\n",
    "   1  r0 = r3\n",
    "   2  r3 = 0\n",
    "   3  r1 = r3\n",
    "   4  r3 = 0\n",
    "   5  r2 = r3\n",
    "   6  CopyPath root1.0 = root0.0\n",
    "   7  r3 = 0\n",
    "   8  r0 = r3\n",
    "   9  r3 = Load root0.0\n",
    "  10  r3 = ICmp.Lt r0, r3\n",
    "  11  Jz r3 -> 25\n",
    "  12  CopyPath root1.1[*] [r0] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  13  r3 = Load root0.1[*].2 [r0]\n",
    "  14  r3 = C2I r3\n",
    "  15  Jz r3 -> 18\n",
    "  16  CopyPath root1.3[*] [r2] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  17  r2 = r2 + 1\n",
    "  18  r3 = Load root0.1[*].3 [r0]\n",
    "  19  r3 = C2I r3\n",
    "  20  Jz r3 -> 23\n",
    "  21  CopyPath root1.5[*] [r1] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  22  r1 = r1 + 1\n",
    "  23  r0 = r0 + 1\n",
    "  24  Jmp 9\n",
    "  25  Store root1.2 = r2\n",
    "  26  Store root1.4 = r1\n",
    "  27  Ret\n",
);

/// Fig. 5 fused into a chain of one, as the receiver runs it: the step's
/// code, its main-body `Ret` turned into a jump to the trailer that syncs
/// the output's length fields.
const FIG5_FUSED_LISTING: &str = concat!(
    "; register ISA: 30 insns, 4 regs, 2 roots, 0 strings, 0 fns\n",
    "   0  r3 = 0\n",
    "   1  r0 = r3\n",
    "   2  r3 = 0\n",
    "   3  r1 = r3\n",
    "   4  r3 = 0\n",
    "   5  r2 = r3\n",
    "   6  CopyPath root1.0 = root0.0\n",
    "   7  r3 = 0\n",
    "   8  r0 = r3\n",
    "   9  r3 = Load root0.0\n",
    "  10  r3 = ICmp.Lt r0, r3\n",
    "  11  Jz r3 -> 25\n",
    "  12  CopyPath root1.1[*] [r0] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  13  r3 = Load root0.1[*].2 [r0]\n",
    "  14  r3 = C2I r3\n",
    "  15  Jz r3 -> 18\n",
    "  16  CopyPath root1.3[*] [r2] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  17  r2 = r2 + 1\n",
    "  18  r3 = Load root0.1[*].3 [r0]\n",
    "  19  r3 = C2I r3\n",
    "  20  Jz r3 -> 23\n",
    "  21  CopyPath root1.5[*] [r1] { .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }\n",
    "  22  r1 = r1 + 1\n",
    "  23  r0 = r0 + 1\n",
    "  24  Jmp 9\n",
    "  25  Store root1.2 = r2\n",
    "  26  Store root1.4 = r1\n",
    "  27  Jmp 28\n",
    "  28  SyncRoot root1\n",
    "  29  Ret\n",
);

/// The register code of the Fig. 5 transformation — compiled, and fused
/// into the one program a receiver runs — is pinned byte for byte: a
/// change to lowering, fusion or the disassembler shows here.
#[test]
fn fig5_disassembly_is_pinned() {
    let chain = CompiledChain::compile(&[fig5_transformation()]).unwrap();
    assert_eq!(chain.steps()[0].program().rcode().disassemble(), FIG5_STEP_LISTING);
    assert_eq!(chain.fuse().unwrap().rcode().disassemble(), FIG5_FUSED_LISTING);
}
