//! # ecode — the Ecode transformation language
//!
//! A from-scratch implementation of E-Code (Eisenhauer, "Dynamic Code
//! Generation with the E-Code Language", GIT-CC-02-42), the C-subset that
//! the ICDCS 2005 *Message Morphing* paper uses to express format
//! transformations (its Fig. 5).
//!
//! The pipeline is lexer → parser → type checker → lowering to register
//! bytecode → register VM. Field names are resolved to
//! indices and numeric casts are inserted at compile time, so a compiled
//! transformation executes without consulting format meta-data — this
//! crate's analogue of the paper's dynamic *binary* code generation (see
//! DESIGN.md "Substitutions"). A tree-walking interpreter over the same
//! typed AST is the language's specification: the no-codegen baseline, and
//! the oracle every differential test holds the register VM to.
//!
//! ## Example: the paper's Fig. 5 pattern
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ecode::{EcodeCompiler, FusedProgram, VmScratch};
//! use pbio::{ConversionPlan, Encoder, FormatBuilder, Tape, Value};
//!
//! let newf = FormatBuilder::record("New").int("a").int("b").build_arc()?;
//! let oldf = FormatBuilder::record("Old").int("sum").build_arc()?;
//!
//! let program = EcodeCompiler::new()
//!     .bind_input("new", &newf)
//!     .bind_output("old", &oldf)
//!     .compile("old.sum = new.a + new.b;")?;
//! let fused = FusedProgram::compose(&[&program])?;
//!
//! // The VM reads the incoming message in place, from its wire bytes.
//! let msg = Encoder::new(&newf).encode(&Value::Record(vec![Value::Int(2), Value::Int(3)]))?;
//! let plan = ConversionPlan::identity(&newf)?;
//! let mut tape = Tape::default();
//! let view = plan.index(&msg, &mut tape)?;
//! let mut out = [Value::default_record(&oldf)];
//! fused.run_view(&view, &fused.routes(&plan), &mut out, 1 << 20, &mut VmScratch::default())?;
//! assert_eq!(out[0], Value::Record(vec![Value::Int(5)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod bytecode;
mod error;
mod fuse;
mod interp;
mod lexer;
mod lower;
mod parser;
mod rvm;
mod tast;
mod typeck;

use std::sync::Arc;

use pbio::{RecordFormat, Value};

pub use bytecode::{CopyEntry, CopyRow, RCode, RInsn, ScalarConv};
pub use error::{EcodeError, Pos, Result};
pub use fuse::{root_used_fields, FusedProgram};
pub use rvm::{ViewRoutes, VmScratch};
pub use tast::Binding;
use tast::TProgram;

/// Compiler for Ecode programs: binds root records, then compiles source.
///
/// Bind the roots in the order the execution will supply them; by
/// convention, transformations bind the incoming message as read-only
/// `new` and the outgoing message as writable `old` (paper Fig. 5).
#[derive(Debug, Clone, Default)]
pub struct EcodeCompiler {
    bindings: Vec<Binding>,
}

impl EcodeCompiler {
    /// Creates a compiler with no bindings.
    pub fn new() -> EcodeCompiler {
        EcodeCompiler { bindings: Vec::new() }
    }

    /// Binds a read-only root record.
    pub fn bind_input(mut self, name: impl Into<String>, format: &Arc<RecordFormat>) -> Self {
        self.bindings.push(Binding {
            name: name.into(),
            format: Arc::clone(format),
            writable: false,
        });
        self
    }

    /// Binds a writable root record.
    pub fn bind_output(mut self, name: impl Into<String>, format: &Arc<RecordFormat>) -> Self {
        self.bindings.push(Binding {
            name: name.into(),
            format: Arc::clone(format),
            writable: true,
        });
        self
    }

    /// Compiles Ecode source into an executable program.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, or type error, with position.
    pub fn compile(&self, src: &str) -> Result<EcodeProgram> {
        let ast = parser::parse(src)?;
        let typed = typeck::check(&ast, self.bindings.clone())?;
        let rcode = lower::lower(&typed);
        Ok(EcodeProgram { typed, rcode })
    }
}

/// A compiled Ecode program: run by the reference interpreter (the
/// specification and no-codegen baseline) here, and by the register VM
/// once fused into a chain ([`FusedProgram::compose`], then
/// [`FusedProgram::run_view`]).
#[derive(Debug, Clone)]
pub struct EcodeProgram {
    typed: TProgram,
    rcode: RCode,
}

impl EcodeProgram {
    /// Executes on the reference tree-walking interpreter — the language's
    /// specification, which the register VM is differentially tested
    /// against. `roots` must match the bindings in order and shape;
    /// writable roots are mutated in place.
    ///
    /// # Errors
    ///
    /// Returns [`EcodeError::Runtime`] on division by zero, out-of-bounds
    /// reads, or shape mismatches between roots and bound formats.
    pub fn run_interp(&self, roots: &mut [Value]) -> Result<()> {
        interp::run(&self.typed, roots)
    }

    /// Executes on the interpreter with an instruction budget, which also
    /// pays for what the run allocates and copies, as the VM's does: one
    /// unit per array element a write adds, one per byte of a
    /// concatenation's result or of a string copied, each charged before
    /// the allocation is made.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run_interp`], plus fuel exhaustion.
    pub fn run_interp_with_fuel(&self, roots: &mut [Value], fuel: u64) -> Result<()> {
        interp::run_with_fuel(&self.typed, roots, fuel)
    }

    /// The lowered register bytecode (inspection/metrics).
    pub fn rcode(&self) -> &RCode {
        &self.rcode
    }

    /// The root bindings, in execution order.
    pub fn bindings(&self) -> &[Binding] {
        &self.typed.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::FormatBuilder;

    /// Runs `fused` on the register VM as a receiver does: `input` encoded
    /// under root 0's format, indexed with the identity plan and read in
    /// place, `outputs` written as roots 1 and up.
    pub(crate) fn run_vm(
        fused: &FusedProgram,
        input: &Value,
        outputs: &mut [Value],
        fuel: u64,
    ) -> Result<()> {
        let format = &fused.bindings()[0].format;
        let wire = pbio::Encoder::new(format).encode(input).expect("the input fits its format");
        let plan = pbio::ConversionPlan::identity(format).expect("an identity plan");
        let mut tape = pbio::Tape::default();
        let view = plan.index(&wire, &mut tape).expect("an encoded message indexes");
        fused.run_view(&view, &fused.routes(&plan), outputs, fuel, &mut VmScratch::default())
    }

    /// `prog` fused alone, on the register VM: `roots[0]` is its input, the
    /// rest are written.
    fn vm(prog: &EcodeProgram, roots: &mut [Value], fuel: u64) -> Result<()> {
        let fused = FusedProgram::compose(&[prog]).expect("a two-root program fuses");
        let (input, outputs) = roots.split_first_mut().expect("an input root");
        run_vm(&fused, input, outputs, fuel)
    }

    /// `prog` on the tree-walker, its written roots' length fields synced
    /// after a run that returns, as the fused program's trailer syncs them.
    fn interp(prog: &EcodeProgram, roots: &mut [Value], fuel: u64) -> Result<()> {
        prog.run_interp_with_fuel(roots, fuel)?;
        for (root, binding) in roots.iter_mut().zip(prog.bindings()).skip(1) {
            pbio::sync_length_fields(root, &binding.format);
        }
        Ok(())
    }

    /// An engine: runs a program on roots under a budget.
    type Engine = fn(&EcodeProgram, &mut [Value], u64) -> Result<()>;

    const ENGINES: [(&str, Engine); 2] = [("vm", vm), ("interp", interp)];

    /// What an engine left behind: the roots, and success or the error's
    /// text.
    type Outcome = (Vec<Value>, std::result::Result<(), String>);

    /// Both engines on `prog` from `roots`, unbudgeted: they must leave the
    /// same roots — also after an error — and the same result or error
    /// text. Returns what they agreed on.
    fn both_engines(prog: &EcodeProgram, roots: &[Value]) -> Outcome {
        let run = |engine: Engine| {
            let mut after = roots.to_vec();
            let result = engine(prog, &mut after, u64::MAX).map_err(|e| e.to_string());
            (after, result)
        };
        let by_interp = run(interp);
        assert_eq!(run(vm), by_interp, "register VM vs tree-walker");
        by_interp
    }

    fn scalar_fmt() -> Arc<RecordFormat> {
        FormatBuilder::record("S").int("i").double("d").string("s").char("c").build_arc().unwrap()
    }

    /// `src` reading `new` and writing `r`, both of `scalar_fmt`.
    fn scalar_program(src: &str) -> EcodeProgram {
        let fmt = scalar_fmt();
        EcodeCompiler::new()
            .bind_input("new", &fmt)
            .bind_output("r", &fmt)
            .compile(src)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"))
    }

    fn scalar_roots() -> [Value; 2] {
        [Value::default_record(&scalar_fmt()), Value::default_record(&scalar_fmt())]
    }

    /// Runs [`scalar_program`] on both engines, asserting agreement, and
    /// returns the fields of `r` — where the cases below store the value
    /// under test.
    fn run_both(src: &str) -> Vec<Value> {
        let (mut roots, result) = both_engines(&scalar_program(src), &scalar_roots());
        result.unwrap_or_else(|e| panic!("{e}\n{src}"));
        match roots.pop() {
            Some(Value::Record(fields)) => fields,
            other => panic!("expected a record, got {other:?}"),
        }
    }

    /// The int `src` stores in `r.i`.
    fn int_of(src: &str) -> i64 {
        match run_both(src)[0] {
            Value::Int(v) => v,
            ref other => panic!("expected an int in r.i, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(int_of("r.i = 1 + 2 * 3;"), 7);
        assert_eq!(int_of("r.i = (1 + 2) * 3;"), 9);
        assert_eq!(int_of("r.i = 7 / 2;"), 3);
        assert_eq!(int_of("r.i = 7 % 3;"), 1);
        assert_eq!(int_of("r.i = -7 / 2;"), -3); // C truncation
        assert_eq!(int_of("r.i = -(3 - 5);"), 2);
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(run_both("r.d = 1.5 * 2.0 + 1;")[1], Value::Float(4.0));
        assert_eq!(run_both("r.d = 7 / 2.0;")[1], Value::Float(3.5));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(int_of("r.i = 1 < 2 && 2 < 3;"), 1);
        assert_eq!(int_of("r.i = 1 > 2 || 3 > 2;"), 1);
        assert_eq!(int_of("r.i = !(1 == 1);"), 0);
        assert_eq!(int_of("r.i = 1.5 > 1.0;"), 1);
        assert_eq!(int_of("r.i = \"abc\" == \"abc\";"), 1);
        assert_eq!(int_of("r.i = \"abc\" < \"abd\";"), 1);
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // Division by zero on the rhs must not occur.
        assert_eq!(int_of("r.i = 0 && 1 / 0;"), 0);
        assert_eq!(int_of("r.i = 1 || 1 / 0;"), 1);
    }

    #[test]
    fn loops_and_control_flow() {
        assert_eq!(int_of("int s = 0; int i; for (i = 1; i <= 10; i++) s += i; r.i = s;"), 55);
        assert_eq!(
            int_of("int s = 0; int i = 0; for (; i < 5;) { i++; if (i != 3) s += i; } r.i = s;"),
            12
        );
        assert_eq!(int_of("int i; for (i = 0; i != 7; i++) {} r.i = i;"), 7);
        assert_eq!(int_of("r.i = 1; if (r.i == 1) r.i = 3; else r.i = 2;"), 3);
    }

    #[test]
    fn incdec_semantics() {
        assert_eq!(int_of("int i = 5; int j = i++; r.i = j * 100 + i;"), 506);
        assert_eq!(int_of("int i = 5; int j = ++i; r.i = j * 100 + i;"), 606);
        assert_eq!(int_of("int i = 5; int j = i--; r.i = j * 100 + i;"), 504);
        assert_eq!(int_of("int i = 5; int j = --i; r.i = j * 100 + i;"), 404);
    }

    #[test]
    fn compound_assignment() {
        assert_eq!(int_of("int x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4; r.i = x;"), 2);
    }

    #[test]
    fn strings() {
        assert_eq!(run_both(r#"r.s = "foo" + "bar";"#)[2], Value::str("foobar"));
        assert_eq!(run_both(r#"r.s = "x"; r.s += "y";"#)[2], Value::str("xy"));
    }

    #[test]
    fn chars() {
        assert_eq!(run_both("r.c = 'A'; r.c += 1;")[3], Value::Char(b'B'));
        assert_eq!(int_of("char c = 'a'; r.i = c + 0;"), 97);
        assert_eq!(run_both("r.c = 'z'; r.c++;")[3], Value::Char(b'{'));
    }

    #[test]
    fn numeric_casts() {
        let fs = run_both("r.d = 3; r.i = 2.9;");
        assert_eq!(fs[1], Value::Float(3.0));
        assert_eq!(fs[0], Value::Int(2));
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        for (src, what) in [("r.i = 1 / 0;", "division"), ("r.i = 1 % 0;", "modulo")] {
            let (roots, result) = both_engines(&scalar_program(src), &scalar_roots());
            assert_eq!(result, Err(format!("runtime error: integer {what} by zero")));
            assert_eq!(roots, scalar_roots());
        }
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let prog = scalar_program("for (;;) {}");
        for (name, engine) in ENGINES {
            let err = engine(&prog, &mut scalar_roots(), 10_000).unwrap_err();
            assert_eq!(err.to_string(), "runtime error: instruction budget exhausted", "{name}");
        }
    }

    /// Ecode is what format transformations use: no calls (user functions
    /// or builtins), no ternary, no `while`, `return`, `break` or
    /// `continue`. Each is a typed compile error, never a panic.
    #[test]
    fn constructs_outside_the_language_are_compile_errors() {
        let fmt = FormatBuilder::record("T")
            .int("a")
            .int("b")
            .int("c")
            .int("n")
            .var_array_basic("l", pbio::BasicType::Int(pbio::Width::W8), "n")
            .build_arc()
            .unwrap();
        let compiler = EcodeCompiler::new().bind_input("new", &fmt).bind_output("r", &fmt);
        for src in [
            "r.a = f(new.a);",
            "r.a = max(new.a, new.b);",
            "r.n = len(new.l);",
            "r.a = new.a ? new.b : new.c;",
            "while (1) {}",
            "return;",
            "for (;;) { break; }",
            "for (;;) { continue; }",
            "int f(int a) { return a + 1; } r.a = f(new.a);",
            "void f() {} f();",
        ] {
            let err = compiler.compile(src).expect_err(src);
            assert!(
                matches!(
                    err,
                    EcodeError::Lex { .. } | EcodeError::Parse { .. } | EcodeError::Type { .. }
                ),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn wrong_root_count_rejected() {
        let prog = scalar_program("r.i = 1;");
        let fused = FusedProgram::compose(&[&prog]).unwrap();
        let input = Value::default_record(&scalar_fmt());
        let err = run_vm(&fused, &input, &mut [], u64::MAX).unwrap_err();
        assert_eq!(err.to_string(), "runtime error: program expects 2 root record(s), got 1");
        assert!(prog.run_interp(&mut [input]).is_err());
    }

    #[test]
    fn fig5_transformation_end_to_end() {
        // Full ChannelOpenResponse v2.0 → v1.0 rollback from the paper.
        let member_v2 = FormatBuilder::record("Member")
            .string("info")
            .int("ID")
            .int("is_source")
            .int("is_sink")
            .build_arc()
            .unwrap();
        let member_v1 =
            FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap();
        let v2 = FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member_v2, "member_count")
            .build_arc()
            .unwrap();
        let v1 = FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member_v1.clone(), "member_count")
            .int("src_count")
            .var_array_of("src_list", member_v1.clone(), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member_v1, "sink_count")
            .build_arc()
            .unwrap();
        let src = r#"
            int i;
            int sink_count = 0;
            int src_count = 0;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                old.member_list[i].ID = new.member_list[i].ID;
                if (new.member_list[i].is_source) {
                    old.src_list[src_count].info = new.member_list[i].info;
                    old.src_list[src_count].ID = new.member_list[i].ID;
                    src_count++;
                }
                if (new.member_list[i].is_sink) {
                    old.sink_list[sink_count].info = new.member_list[i].info;
                    old.sink_list[sink_count].ID = new.member_list[i].ID;
                    sink_count++;
                }
            }
            old.src_count = src_count;
            old.sink_count = sink_count;
        "#;
        let prog = EcodeCompiler::new()
            .bind_input("new", &v2)
            .bind_output("old", &v1)
            .compile(src)
            .unwrap();

        let member = |info: &str, id: i64, src: i64, sink: i64| {
            Value::Record(vec![Value::str(info), Value::Int(id), Value::Int(src), Value::Int(sink)])
        };
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![
                member("alice", 1, 1, 0),
                member("bob", 2, 0, 1),
                member("carol", 3, 1, 1),
            ]),
        ]);

        for (engine, run) in ENGINES {
            let mut roots = vec![input.clone(), Value::default_record(&v1)];
            run(&prog, &mut roots, u64::MAX).unwrap();
            let old = &roots[1];
            assert_eq!(old.field(&v1, "member_count"), Some(&Value::Int(3)), "{engine}");
            assert_eq!(old.field(&v1, "src_count"), Some(&Value::Int(2)), "{engine}");
            assert_eq!(old.field(&v1, "sink_count"), Some(&Value::Int(2)), "{engine}");
            let srcs = old.field(&v1, "src_list").unwrap().as_array().unwrap();
            assert_eq!(srcs.len(), 2);
            assert_eq!(srcs[0].as_record().unwrap()[0], Value::str("alice"));
            assert_eq!(srcs[1].as_record().unwrap()[0], Value::str("carol"));
            let sinks = old.field(&v1, "sink_list").unwrap().as_array().unwrap();
            assert_eq!(sinks[0].as_record().unwrap()[0], Value::str("bob"));
            assert_eq!(sinks[1].as_record().unwrap()[0], Value::str("carol"));
            // The result conforms to the v1 format (length fields agree).
            old.check(&v1).unwrap();
        }
    }

    #[test]
    fn read_out_of_bounds_is_error_but_write_extends() {
        let member = FormatBuilder::record("M").int("ID").build_arc().unwrap();
        let fmt = FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", member, "count")
            .build_arc()
            .unwrap();
        let compiler = EcodeCompiler::new().bind_input("new", &fmt).bind_output("r", &fmt);
        let roots = [Value::default_record(&fmt), Value::default_record(&fmt)];
        // Past the end of the message read in place, and of a written root.
        for read in ["r.count = new.list[5].ID;", "r.count = r.list[5].ID;"] {
            let (after, result) = both_engines(&compiler.compile(read).unwrap(), &roots);
            assert_eq!(result, Err("runtime error: array index 5 out of bounds (len 0)".into()));
            assert_eq!(after, roots, "{read}");
        }

        let write = compiler.compile("r.list[2].ID = 9; r.count = 3;").unwrap();
        let (after, result) = both_engines(&write, &roots);
        assert_eq!(result, Ok(()));
        let arr = after[1].field(&fmt, "list").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2], Value::Record(vec![Value::Int(9)]));
        after[1].check(&fmt).unwrap();
    }

    #[test]
    fn whole_record_copy() {
        let member = FormatBuilder::record("M").string("info").int("ID").build_arc().unwrap();
        let fmt = FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", member.clone(), "count")
            .int("best_count")
            .var_array_of("best", member, "best_count")
            .build_arc()
            .unwrap();
        let prog = EcodeCompiler::new()
            .bind_input("new", &fmt)
            .bind_output("r", &fmt)
            .compile("r.best[0] = r.list[1]; r.best_count = 1;")
            .unwrap();
        let r = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
            Value::Int(0),
            Value::Array(vec![]),
        ]);
        let (roots, result) = both_engines(&prog, &[Value::default_record(&fmt), r]);
        assert_eq!(result, Ok(()));
        let best = roots[1].field(&fmt, "best").unwrap().as_array().unwrap();
        assert_eq!(best[0], Value::Record(vec![Value::str("b"), Value::Int(2)]));
    }

    fn array_pair() -> (Arc<RecordFormat>, Arc<RecordFormat>) {
        let f = FormatBuilder::record("A")
            .int("n")
            .var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
            .build_arc()
            .unwrap();
        (f.clone(), f)
    }

    #[test]
    fn batch_copy_superinstruction_matches_scalar_loop() {
        let (src_f, dst_f) = array_pair();
        let code = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
        let prog = EcodeCompiler::new()
            .bind_input("new", &src_f)
            .bind_output("old", &dst_f)
            .compile(code)
            .unwrap();
        let input = Value::Record(vec![
            Value::Int(4),
            Value::Array((0..4).map(|k| Value::Int(k * 11)).collect()),
        ]);
        let (roots, result) = both_engines(&prog, &[input.clone(), Value::default_record(&dst_f)]);
        assert_eq!(result, Ok(()));
        assert_eq!(roots[1], input);
    }

    #[test]
    fn batch_copy_short_source_errors_like_scalar_loop() {
        let (src_f, dst_f) = array_pair();
        // Copies three elements past the source's end: the loop reads out of
        // bounds at index 2, after copying the in-range prefix, on both
        // engines.
        let code = "int i; for (i = 0; i < new.n + 3; i++) old.vals[i] = new.vals[i];";
        let prog = EcodeCompiler::new()
            .bind_input("new", &src_f)
            .bind_output("old", &dst_f)
            .compile(code)
            .unwrap();
        let input =
            Value::Record(vec![Value::Int(2), Value::Array(vec![Value::Int(7), Value::Int(8)])]);
        let (roots, result) = both_engines(&prog, &[input, Value::default_record(&dst_f)]);
        assert_eq!(result, Err("runtime error: array index 2 out of bounds (len 2)".into()));
        assert_eq!(roots[1].as_record().unwrap()[1].as_array().unwrap().len(), 2);
    }

    #[test]
    fn register_vm_honours_fuel() {
        let prog = scalar_program("for (;;) {}");
        assert!(vm(&prog, &mut scalar_roots(), 10_000).is_err());
    }

    /// The least budget under which `engine` finishes `prog` from `roots`.
    fn least_fuel(engine: Engine, prog: &EcodeProgram, roots: &[Value]) -> u64 {
        let (mut lo, mut hi) = (0, 1 << 20);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if engine(prog, &mut roots.to_vec(), mid).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// What a run allocates is charged to its budget, on both engines: a
    /// write `k` elements past an array's end costs `k` more than a write
    /// that adds one; `+` and `+=` one unit per byte of their result; and every copy of a string one unit per byte copied — the
    /// constant, and each read, move and store of it, as each engine makes
    /// them.
    #[test]
    fn allocation_is_charged_to_the_budget() {
        let (src_f, dst_f) = array_pair();
        let arrays = EcodeCompiler::new().bind_input("new", &src_f).bind_output("old", &dst_f);
        let array_roots = [Value::default_record(&src_f), Value::default_record(&dst_f)];
        // Per template, what nine more bytes in `t` cost on the VM and on the
        // tree-walker: 9 for the constant, 9 for each copy of `t` (the VM
        // moves it into its local; the tree-walker reads it at each use),
        // 18 for each two-`t` result built, and 9 or 18 for each store and
        // read of `r.s`.
        let templates = [
            ("r.s = T + T;", [9 + 9 + 18 + 18, 9 + 18 + 18 + 18]),
            ("r.s = T; r.s += T;", [9 + 9 + 9 + 9 + 18 + 18, 9 + 9 + 9 + 9 + 9 + 18 + 18]),
            ("string u = T; r.s = u;", [9 + 9 + 9 + 9, 9 + 9 + 9 + 9]),
        ];
        for (e, (name, engine)) in ENGINES.into_iter().enumerate() {
            let need = |k: usize| {
                let prog = arrays.compile(&format!("old.vals[{k}] = 1;")).unwrap();
                least_fuel(engine, &prog, &array_roots)
            };
            assert_eq!(need(994) - need(0), 994, "{name}");

            for (template, extra) in templates {
                let need = |t: &str| {
                    let src = format!("string t = \"{t}\"; {}", template.replace('T', "t"));
                    least_fuel(engine, &scalar_program(&src), &scalar_roots())
                };
                assert_eq!(need("0123456789") - need("0"), extra[e], "{name}: {template}");
            }
        }
    }

    #[test]
    fn register_vm_runtime_errors_match_tree_walker() {
        for src in ["r.i = 1 / 0;", "r.i = 1 % 0;", "r.s = r.s + \"x\"; r.i = 1 % r.i;"] {
            let (_, result) = both_engines(&scalar_program(src), &scalar_roots());
            assert!(result.is_err(), "{src}");
        }
    }
}
