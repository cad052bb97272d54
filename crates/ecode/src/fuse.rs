//! Chain fusion: compile a whole retro-transformation chain into **one**
//! register program.
//!
//! Run step by step — as the oracle, the tree-walker folded over the chain,
//! runs it — a chain costs one invocation per step and a freshly-allocated
//! intermediate `Value` tree between steps. Fusion inlines every step's
//! compiled body into a single instruction stream instead: the fused program
//! binds `m + 1` roots — the incoming message plus one output record per
//! step — and threads them through, so a morph is one VM entry with no
//! per-step dispatch. Between inlined bodies a [`RInsn::SyncRoot`]
//! re-establishes the length-field invariant exactly where the step-by-step
//! run calls [`pbio::sync_length_fields`], keeping the fused result
//! `Value`-identical to the oracle's (differentially tested in
//! `tests/proptests.rs`).
//!
//! The rewrite is purely mechanical, which is what makes it safe:
//!
//! * jump targets and string-pool indices are shifted by each step's
//!   placement offset;
//! * root indices shift by the step's position (step *i* reads root *i*,
//!   writes root *i + 1*) — on `Load`/`Store`, and on a `CopyPath` row and
//!   each of its entries;
//! * registers rebase by the sum of preceding steps' register files;
//! * a step's closing `Ret` becomes a jump to the step's trailer.

use pbio::format_id;

use crate::bytecode::{map_registers, CSeg, CopyEntry, CopyRow, RCode, RInsn};
use crate::error::{EcodeError, Result};
use crate::rvm::{self, Routed, ViewRoutes, VmScratch};
use crate::tast::Binding;
use crate::EcodeProgram;
use pbio::Value;

/// A transformation chain compiled into a single VM program — the one form
/// in which the register VM runs Ecode.
///
/// Build with [`FusedProgram::compose`]; execute with
/// [`FusedProgram::run_view`]: root 0 is the incoming message, read in place
/// and never written, and roots 1 to `m` are one record per step's target
/// format, in chain order. On return, the last root holds the final morphed
/// value.
#[derive(Debug, Clone)]
pub struct FusedProgram {
    rcode: RCode,
    bindings: Vec<Binding>,
}

impl FusedProgram {
    /// Fuses the compiled chain `steps` (each a two-root `new`/`old`
    /// transformation, in application order) into one program.
    ///
    /// # Errors
    ///
    /// Returns [`EcodeError::Runtime`] when the chain is empty, a step does
    /// not have exactly two roots, adjacent steps do not compose (step
    /// *i*'s output format differs from step *i + 1*'s input format), or
    /// the chain has 255 steps or more (roots are indexed by a `u8`).
    pub fn compose(steps: &[&EcodeProgram]) -> Result<FusedProgram> {
        if steps.is_empty() {
            return Err(EcodeError::runtime("cannot fuse an empty chain"));
        }
        if steps.len() >= u8::MAX as usize {
            return Err(EcodeError::runtime("chain too long to fuse"));
        }
        for (i, p) in steps.iter().enumerate() {
            if p.bindings().len() != 2 {
                return Err(EcodeError::runtime(format!(
                    "chain step {i} has {} roots, fusion needs exactly 2",
                    p.bindings().len()
                )));
            }
        }
        for (i, pair) in steps.windows(2).enumerate() {
            let out = format_id(&pair[0].bindings()[1].format);
            let inp = format_id(&pair[1].bindings()[0].format);
            if out != inp {
                return Err(EcodeError::runtime(format!(
                    "chain steps {i} and {} do not compose",
                    i + 1
                )));
            }
        }

        let mut bindings = Vec::with_capacity(steps.len() + 1);
        bindings.push(steps[0].bindings()[0].clone());
        for p in steps {
            bindings.push(p.bindings()[1].clone());
        }

        let mut insns: Vec<RInsn> = Vec::new();
        let mut strings: Vec<String> = Vec::new();
        let mut reg_base: u32 = 0;
        let last = steps.len() - 1;

        for (i, p) in steps.iter().enumerate() {
            let rc = p.rcode();
            let off = insns.len() as u32;
            let string_base = strings.len() as u32;
            // The trailer sits right after the step's body.
            let tail = off + rc.insns.len() as u32;

            for insn in &rc.insns {
                let shifted = match insn {
                    RInsn::Jmp(t) => RInsn::Jmp(t + off),
                    RInsn::Jz { cond, target } => RInsn::Jz { cond: *cond, target: target + off },
                    RInsn::Jnz { cond, target } => RInsn::Jnz { cond: *cond, target: target + off },
                    RInsn::ConstS { dst, s } => RInsn::ConstS { dst: *dst, s: s + string_base },
                    RInsn::Load { dst, root, segs, idx } => RInsn::Load {
                        dst: *dst,
                        root: root + i as u8,
                        segs: segs.clone(),
                        idx: idx.clone(),
                    },
                    RInsn::Store { src, root, segs, idx } => RInsn::Store {
                        src: *src,
                        root: root + i as u8,
                        segs: segs.clone(),
                        idx: idx.clone(),
                    },
                    RInsn::CopyPath(row) => RInsn::CopyPath(CopyRow {
                        dst_root: row.dst_root + i as u8,
                        entries: row
                            .entries
                            .iter()
                            .map(|e| CopyEntry { src_root: e.src_root + i as u8, ..e.clone() })
                            .collect(),
                        ..row.clone()
                    }),
                    RInsn::Ret => RInsn::Jmp(tail),
                    other => other.clone(),
                };
                insns.push(map_registers(&shifted, |r| r + reg_base));
            }
            insns.push(RInsn::SyncRoot((i + 1) as u8));
            if i == last {
                insns.push(RInsn::Ret);
            }

            strings.extend(rc.strings.iter().cloned());
            reg_base += rc.n_regs as u32;
        }

        let rcode = RCode { insns, strings, n_regs: reg_base as usize, n_roots: bindings.len() };
        Ok(FusedProgram { rcode, bindings })
    }

    /// Compiles every path along which the program reads root 0 against
    /// `plan` — the identity or projected plan that will index its messages
    /// ([`pbio::ConversionPlan::index`]) — for [`FusedProgram::run_view`].
    /// Once per plan: a route is the lookup a read would otherwise make in
    /// the plan, per message.
    pub fn routes(&self, plan: &pbio::ConversionPlan) -> ViewRoutes {
        ViewRoutes::compile(&self.rcode, plan)
    }

    /// Executes the fused chain — one register-VM pass — under an
    /// instruction budget, which also pays for the array elements and
    /// string bytes the program builds and copies, in working memory the
    /// caller keeps across messages: on warm `scratch` the VM itself
    /// allocates nothing. `view` is root 0 — the incoming message as
    /// [`pbio::ConversionPlan::index`] left it, read in place along `routes`
    /// compiled against the same plan — and `roots` holds the rest, one
    /// record per step's target format (a default one, or whatever the
    /// caller starts it from); the last receives the final value. No tree of
    /// the incoming message is built.
    ///
    /// # Errors
    ///
    /// Returns [`EcodeError::Runtime`] on division by zero, out-of-bounds
    /// reads, shape mismatches between roots and bound formats, a write to
    /// root 0, or fuel exhaustion.
    pub fn run_view(
        &self,
        view: &pbio::WireView<'_>,
        routes: &ViewRoutes,
        roots: &mut [Value],
        fuel: u64,
        scratch: &mut VmScratch,
    ) -> Result<()> {
        let view = Routed { view, routes };
        rvm::run_view(&self.rcode, &self.bindings, &view, roots, fuel, scratch)
    }

    /// [`FusedProgram::run_view`] over a decoded message, kept for the
    /// benchmark harness's `ecode.run` timing only: `roots[0]` is encoded
    /// under the first binding's format, indexed with
    /// [`pbio::ConversionPlan::identity`], and read in place, with no budget,
    /// while `roots[1..]` are written. What it times therefore includes that
    /// encoding and indexing. ROADMAP item 7(c) deletes it with the harness's
    /// call.
    ///
    /// # Errors
    ///
    /// As [`FusedProgram::run_view`], plus [`EcodeError::Runtime`] when
    /// `roots` is empty or `roots[0]` does not fit the first binding's
    /// format.
    pub fn run_register(&self, roots: &mut [Value]) -> Result<()> {
        let (input, rest) =
            roots.split_first_mut().ok_or_else(|| EcodeError::runtime("no root #0"))?;
        let format = &self.bindings[0].format;
        let pbio_err = |e: pbio::PbioError| EcodeError::runtime(e.to_string());
        let wire = pbio::Encoder::new(format).encode(input).map_err(pbio_err)?;
        let plan = pbio::ConversionPlan::identity(format).map_err(pbio_err)?;
        let mut tape = pbio::Tape::default();
        let view = plan.index(&wire, &mut tape).map_err(pbio_err)?;
        let routes = self.routes(&plan);
        self.run_view(&view, &routes, rest, u64::MAX, &mut VmScratch::default())
    }

    /// The fused register bytecode (inspection/metrics).
    pub fn rcode(&self) -> &RCode {
        &self.rcode
    }

    /// The fused root bindings: incoming message, then one per step.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Number of roots the fused program expects (`steps + 1`).
    pub fn n_roots(&self) -> usize {
        self.bindings.len()
    }
}

/// Scans `code` for the top-level fields of root `root` that it actually
/// reads or writes, returning a mask over `n_fields` entries. Conservative:
/// any access whose path does not start with a static field descent marks
/// every field used.
///
/// This feeds the projected decode of a fused morph plan: fields the chain
/// never touches are parsed but not materialized — so every instruction
/// that names a root must be listed here, or a field it reads is silently
/// delivered as its default.
pub fn root_used_fields(code: &RCode, root: u8, n_fields: usize) -> Vec<bool> {
    let mut used = vec![false; n_fields];
    let mut touch = |r: u8, first: Option<&CSeg>| {
        if r != root {
            return;
        }
        match first {
            Some(CSeg::Field(i)) if (*i as usize) < n_fields => used[*i as usize] = true,
            // Whole-root or dynamic access: give up field precision.
            _ => used.fill(true),
        }
    };
    for insn in &code.insns {
        // No wildcard arm: a new instruction has to be sorted into "names a
        // root" or "does not" before this compiles.
        match insn {
            RInsn::Load { root: r, segs, .. } | RInsn::Store { root: r, segs, .. } => {
                touch(*r, segs.first())
            }
            RInsn::CopyPath(row) => {
                for e in row.entries.iter() {
                    touch(row.dst_root, row.dst_segs.first().or(Some(&e.dst_leaf)));
                    touch(e.src_root, e.src_segs.first());
                }
            }
            RInsn::SyncRoot(r) => touch(*r, None),
            RInsn::ConstI { .. }
            | RInsn::ConstF { .. }
            | RInsn::ConstC { .. }
            | RInsn::ConstS { .. }
            | RInsn::Move { .. }
            | RInsn::IArith { .. }
            | RInsn::FArith { .. }
            | RInsn::AddImmI { .. }
            | RInsn::ICmp { .. }
            | RInsn::FCmp { .. }
            | RInsn::SCmp { .. }
            | RInsn::Concat { .. }
            | RInsn::NegI { .. }
            | RInsn::NegF { .. }
            | RInsn::Not { .. }
            | RInsn::I2F { .. }
            | RInsn::F2I { .. }
            | RInsn::C2I { .. }
            | RInsn::I2C { .. }
            | RInsn::FTest { .. }
            | RInsn::Jmp(_)
            | RInsn::Jz { .. }
            | RInsn::Jnz { .. }
            | RInsn::Ret => {}
        }
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_vm;
    use crate::EcodeCompiler;
    use pbio::FormatBuilder;
    use pbio::RecordFormat;
    use std::sync::Arc;

    fn fmt(name: &str, fields: &[&str]) -> Arc<RecordFormat> {
        let mut b = FormatBuilder::record(name);
        for f in fields {
            b = b.int(*f);
        }
        b.build_arc().unwrap()
    }

    fn step(from: &Arc<RecordFormat>, to: &Arc<RecordFormat>, src: &str) -> EcodeProgram {
        EcodeCompiler::new().bind_input("new", from).bind_output("old", to).compile(src).unwrap()
    }

    /// The oracle: each step on its own on the tree-walker, syncing between
    /// steps.
    fn staged(steps: &[&EcodeProgram], input: &Value) -> Value {
        let mut v = input.clone();
        for p in steps {
            let to = &p.bindings()[1].format;
            let mut roots = vec![v, Value::default_record(to)];
            p.run_interp(&mut roots).unwrap();
            v = roots.pop().unwrap();
            pbio::sync_length_fields(&mut v, to);
        }
        v
    }

    /// One default record per step's target format: the fused chain's
    /// roots 1 and up.
    fn outputs(steps: &[&EcodeProgram]) -> Vec<Value> {
        steps.iter().map(|p| Value::default_record(&p.bindings()[1].format)).collect()
    }

    /// Runs the fused chain on the message `first`, read in place, and
    /// returns the final value.
    fn fused(steps: &[&EcodeProgram], first: &Value) -> Value {
        let fp = FusedProgram::compose(steps).unwrap();
        let mut roots = outputs(steps);
        run_vm(&fp, first, &mut roots, u64::MAX).unwrap();
        roots.pop().unwrap()
    }

    #[test]
    fn fused_matches_tree_walker_on_scalar_chain() {
        let a = fmt("M", &["x", "y"]);
        let b = fmt("M", &["sum"]);
        let c = fmt("M", &["twice"]);
        let s1 = step(&a, &b, "old.sum = new.x + new.y;");
        let s2 = step(&b, &c, "old.twice = new.sum * 2;");
        let input = Value::Record(vec![Value::Int(3), Value::Int(4)]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), staged(&chain, &input));
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(14)]));
    }

    #[test]
    fn fused_syncs_length_fields_between_steps() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member.clone(), "n")
            .build_arc()
            .unwrap();
        let b = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member, "n")
            .build_arc()
            .unwrap();
        let c = fmt("M", &["total"]);
        // Step 1 copies items but "forgets" old.n — the inter-step sync must
        // repair it, because step 2 trusts new.n.
        let s1 = step(
            &a,
            &b,
            "int i; for (i = 0; i < new.n; i++) { old.items[i].ID = new.items[i].ID * 10; }",
        );
        let s2 =
            step(&b, &c, "int i; for (i = 0; i < new.n; i++) { old.total += new.items[i].ID; }");
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![
                Value::Record(vec![Value::Int(1)]),
                Value::Record(vec![Value::Int(2)]),
                Value::Record(vec![Value::Int(3)]),
            ]),
        ]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), staged(&chain, &input));
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(60)]));
    }

    #[test]
    fn fused_isolates_main_locals_across_steps() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let c = fmt("M", &["z"]);
        // Both steps use a local named/slotted identically; slot
        // rebasing must keep them distinct.
        let s1 = step(&a, &b, "int t = new.x * 2; old.y = t;");
        let s2 = step(&b, &c, "int t = new.y + 5; old.z = t;");
        let input = Value::Record(vec![Value::Int(10)]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(25)]));
    }

    #[test]
    fn single_step_chain_fuses() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let s1 = step(&a, &b, "old.y = new.x - 1;");
        let input = Value::Record(vec![Value::Int(9)]);
        assert_eq!(fused(&[&s1], &input), staged(&[&s1], &input));
    }

    #[test]
    fn compose_rejects_bad_chains() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let c = fmt("M", &["z"]);
        assert!(FusedProgram::compose(&[]).is_err());
        // Steps that do not compose: a→b then a→c.
        let s1 = step(&a, &b, "old.y = new.x;");
        let s2 = step(&a, &c, "old.z = new.x;");
        assert!(FusedProgram::compose(&[&s1, &s2]).is_err());
        // Wrong root count (single-root program).
        let one = EcodeCompiler::new().bind_output("r", &a).compile("r.x = 1;").unwrap();
        assert!(FusedProgram::compose(&[&one]).is_err());
    }

    #[test]
    fn fuel_budget_applies_to_fused_programs() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let s1 = step(&a, &b, "for (;;) {}");
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        let input = Value::Record(vec![Value::Int(1)]);
        assert!(run_vm(&fp, &input, &mut [Value::default_record(&b)], 1_000).is_err());
    }

    #[test]
    fn fused_register_stream_keeps_batch_superinstructions() {
        let elem = pbio::BasicType::Int(pbio::Width::W8);
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_basic("vals", elem.clone(), "n")
            .build_arc()
            .unwrap();
        let b = FormatBuilder::record("M")
            .int("n")
            .var_array_basic("vals", elem, "n")
            .build_arc()
            .unwrap();
        let body = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
        let s1 = step(&a, &b, body);
        let s2 = step(&b, &a, body);
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(4), Value::Int(5), Value::Int(6)]),
        ]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), staged(&chain, &input));
        assert_eq!(
            fused(&chain, &input),
            Value::Record(vec![
                Value::Int(3),
                Value::Array(vec![Value::Int(4), Value::Int(5), Value::Int(6)])
            ])
        );
    }

    #[test]
    fn used_field_scan_is_precise_for_static_paths() {
        let a = fmt("M", &["x", "y", "z"]);
        let b = fmt("M", &["out"]);
        let s1 = step(&a, &b, "old.out = new.x + new.z;");
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        assert_eq!(root_used_fields(fp.rcode(), 0, 3), vec![true, false, true]);
        // The output root is written, not part of root 0's mask.
        assert_eq!(root_used_fields(fp.rcode(), 1, 1), vec![true]);
    }

    #[test]
    fn used_field_scan_covers_len_and_arrays() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member, "n")
            .string("junk")
            .build_arc()
            .unwrap();
        let b = fmt("M", &["total"]);
        let s1 =
            step(&a, &b, "int i; for (i = 0; i < new.n; i++) { old.total += new.items[i].ID; }");
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        // `junk` is never touched; `items` is read by index, up to its
        // length field `n`.
        assert_eq!(root_used_fields(fp.rcode(), 0, 3), vec![true, true, false]);
    }

    /// The fused chain reading the message through the plan projected to
    /// `root_used_fields` must deliver what the tree-walker makes of the
    /// full message: a read the scan misses would surface here as a default
    /// value, or fail.
    fn assert_projection_is_invisible(steps: &[&EcodeProgram], used: &[bool], input: &Value) {
        let from = &steps[0].bindings()[0].format;
        let wire = pbio::Encoder::new(from).encode(input).unwrap();
        let plan = pbio::ConversionPlan::project(from, used).unwrap();
        assert_ne!(&plan.execute(&wire).unwrap(), input, "the projection dropped nothing");
        let fp = FusedProgram::compose(steps).unwrap();
        let mut tape = pbio::Tape::default();
        let view = plan.index(&wire, &mut tape).unwrap();
        let mut roots = outputs(steps);
        let scratch = &mut VmScratch::default();
        fp.run_view(&view, &fp.routes(&plan), &mut roots, u64::MAX, scratch).unwrap();
        assert_eq!(roots.pop().unwrap(), staged(steps, input));
    }

    #[test]
    fn used_field_scan_sees_every_entry_of_a_copy_row() {
        // `x` and `y` are read, and `pair` written, only by one two-entry row.
        let pair = fmt("P", &["a", "b"]);
        let a = FormatBuilder::record("M").int("x").string("skip").int("y").build_arc().unwrap();
        let b = FormatBuilder::record("M").int("spare").nested("pair", pair).build_arc().unwrap();
        let s1 = step(&a, &b, "old.pair.a = new.x; old.pair.b = new.y;");
        let insns = &s1.rcode().insns;
        assert!(matches!(&insns[..], [RInsn::CopyPath(r), RInsn::Ret] if r.entries.len() == 2));
        // A step's own code has no `SyncRoot`, so its destination mask shows
        // the row's `dst_root`.
        assert_eq!(root_used_fields(s1.rcode(), 1, 2), vec![false, true]);
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        let used = root_used_fields(fp.rcode(), 0, 3);
        assert_eq!(used, vec![true, false, true]);
        let input = Value::Record(vec![Value::Int(7), Value::str("unread"), Value::Int(9)]);
        assert_projection_is_invisible(&[&s1], &used, &input);
    }

    #[test]
    fn used_field_scan_sees_both_ends_of_a_batch_copy() {
        // `new.vals` is read, and `old.vals` written, only by the one
        // `CopyPath` the loop body lowers to.
        let vals = |b: FormatBuilder| {
            b.int("n").var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
        };
        let a = vals(FormatBuilder::record("M")).string("junk").build_arc().unwrap();
        let b = vals(FormatBuilder::record("M")).build_arc().unwrap();
        let s1 = step(&a, &b, "int i; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];");
        let names_vals = |i: &&RInsn| match i {
            RInsn::Load { segs, .. } | RInsn::Store { segs, .. } => {
                segs.first() == Some(&CSeg::Field(1))
            }
            RInsn::CopyPath(_) => true,
            _ => false,
        };
        let copies: Vec<&RInsn> = s1.rcode().insns.iter().filter(names_vals).collect();
        assert!(
            matches!(&copies[..], [RInsn::CopyPath(r)]
                if r.dst_segs[..] == [CSeg::Field(1)] && r.entries[0].src_segs[0] == CSeg::Field(1)),
            "{copies:?}"
        );
        assert_eq!(root_used_fields(s1.rcode(), 1, 2), vec![false, true]);
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        let used = root_used_fields(fp.rcode(), 0, 3);
        assert_eq!(used, vec![true, true, false]);
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(4), Value::Int(5), Value::Int(6)]),
            Value::str("unread"),
        ]);
        assert_projection_is_invisible(&[&s1], &used, &input);
    }
}
