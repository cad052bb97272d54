//! Disassembles a morph chain's register code.
//!
//! Compiles a two-step telemetry chain (array copy loop plus scalar math
//! per step), prints each step's register listing, then fuses the chain and
//! prints the one program the warm path executes — making the
//! superinstructions visible: the whole-field assignments fuse into
//! `CopyPath` and each per-element copy loop collapses into one `BatchCopy`.
//!
//! Run with: `cargo run --example vm_dump`

use std::sync::Arc;

use message_morphing::prelude::*;
use pbio::{BasicType, Width};

fn samples(b: FormatBuilder) -> FormatBuilder {
    b.int("n").var_array_basic("vals", BasicType::Int(Width::W8), "n")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wide = samples(FormatBuilder::record("Telemetry")).long("a").long("b").build_arc()?;
    let narrow = samples(FormatBuilder::record("Telemetry")).long("a").build_arc()?;
    let copy = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
    let chain = [
        Transformation::new(
            Arc::clone(&wide),
            Arc::clone(&narrow),
            format!("{copy} old.a = new.a + new.b;"),
        ),
        Transformation::new(narrow, wide, format!("{copy} old.a = new.a; old.b = 0;")),
    ];
    let compiled = morph::CompiledChain::compile(&chain)?;

    for (i, step) in compiled.steps().iter().enumerate() {
        let prog = step.program();
        println!(
            "== step {}: {} -> {} ==\n",
            i + 1,
            step.from_format().name(),
            step.to_format().name()
        );
        print!("{}", prog.rcode().disassemble());
        println!();
    }

    let fused = compiled.fuse()?;
    println!("== fused chain: one pass, no intermediate trees ==\n");
    let reg = fused.rcode().disassemble();
    print!("{reg}");

    // The listing really shows the superinstructions this example is about.
    assert!(reg.contains("BatchCopy"), "array copy loops should batch:\n{reg}");
    assert!(reg.contains("CopyPath"), "field copies should fuse:\n{reg}");
    println!("\nboth copy superinstructions present: BatchCopy (array ranges), CopyPath (fields)");
    Ok(())
}
