//! Disassembles the paper's Fig. 5 transformation as the receiver runs it.
//!
//! Compiles the v2.0 → v1.0 `ChannelOpenResponse` rollback — the
//! transformation `cor_v2v1` morphs with, there over ECho's response formats
//! — prints its register listing, then fuses it into the one program the
//! warm path executes, making the `CopyPath` superinstruction visible: each
//! pair of `info`/`ID` copies into a new list element is one two-entry row
//! that appends the whole element.
//!
//! Run with: `cargo run --example vm_dump`

use message_morphing::morph::CompiledChain;
use message_morphing::paper::fig5_transformation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled = CompiledChain::compile(&[fig5_transformation()])?;

    for (i, step) in compiled.steps().iter().enumerate() {
        println!(
            "== step {}: {} -> {} ==\n",
            i + 1,
            step.from_format().name(),
            step.to_format().name()
        );
        print!("{}", step.program().rcode().disassemble());
        println!();
    }

    let fused = compiled.fuse()?;
    println!("== fused chain: one pass, no intermediate trees ==\n");
    let reg = fused.rcode().disassemble();
    print!("{reg}");

    // The listing really shows the rows this example is about: one per
    // output list (`member_list`, `src_list`, `sink_list`), each filling
    // both fields of a new element from the member being read.
    for list in [1, 3, 5] {
        let row = format!("CopyPath root1.{list}[*] [r");
        let line = reg.lines().find(|l| l.contains(&row)).ok_or(format!("no row into {list}"))?;
        assert!(line.contains("{ .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }"), "{line}");
    }
    println!("\nthree two-entry rows, each appending a whole element to its list");
    Ok(())
}
