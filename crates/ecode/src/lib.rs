//! # ecode — the Ecode transformation language
//!
//! A from-scratch implementation of E-Code (Eisenhauer, "Dynamic Code
//! Generation with the E-Code Language", GIT-CC-02-42), the C-subset that
//! the ICDCS 2005 *Message Morphing* paper uses to express format
//! transformations (its Fig. 5).
//!
//! The pipeline is lexer → parser → type checker → constant folding →
//! lowering to register bytecode → register VM. Field names are resolved to
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
//! use ecode::EcodeCompiler;
//! use pbio::{FormatBuilder, Value};
//!
//! let newf = FormatBuilder::record("New").int("a").int("b").build_arc()?;
//! let oldf = FormatBuilder::record("Old").int("sum").build_arc()?;
//!
//! let program = EcodeCompiler::new()
//!     .bind_input("new", &newf)
//!     .bind_output("old", &oldf)
//!     .compile("old.sum = new.a + new.b;")?;
//!
//! let mut roots = vec![
//!     Value::Record(vec![Value::Int(2), Value::Int(3)]),
//!     Value::default_record(&oldf),
//! ];
//! program.run(&mut roots)?;
//! assert_eq!(roots[1], Value::Record(vec![Value::Int(5)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod bytecode;
mod error;
mod fold;
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
pub use lexer::{lex, Spanned, Tok};
pub use parser::parse;
pub use rvm::{RunStats, ViewRoutes, VmScratch};
pub use tast::{Binding, TProgram, Ty};

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
        let mut typed = typeck::check(&ast, self.bindings.clone())?;
        fold::fold_program(&mut typed);
        let rcode = lower::lower(&typed);
        Ok(EcodeProgram { typed, rcode })
    }

    /// Compiles without the constant-folding pass (the `ablate`-style
    /// baseline; also handy when inspecting unoptimized bytecode).
    ///
    /// # Errors
    ///
    /// As [`EcodeCompiler::compile`].
    pub fn compile_unoptimized(&self, src: &str) -> Result<EcodeProgram> {
        let ast = parser::parse(src)?;
        let typed = typeck::check(&ast, self.bindings.clone())?;
        let rcode = lower::lower(&typed);
        Ok(EcodeProgram { typed, rcode })
    }
}

/// A compiled Ecode program, executable by the register VM (the
/// production engine) or the reference interpreter (the specification and
/// no-codegen baseline).
#[derive(Debug, Clone)]
pub struct EcodeProgram {
    typed: TProgram,
    rcode: RCode,
}

impl EcodeProgram {
    /// Executes on the register VM. `roots` must match the bindings in
    /// order and shape; writable roots are mutated in place. Returns the
    /// program's `return` value, if any.
    ///
    /// # Errors
    ///
    /// Returns [`EcodeError::Runtime`] on division by zero, out-of-bounds
    /// reads, or shape mismatches between roots and bound formats.
    pub fn run(&self, roots: &mut [Value]) -> Result<Option<Value>> {
        self.run_with_fuel(roots, u64::MAX)
    }

    /// Executes on the register VM with an instruction budget.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run`], plus fuel exhaustion.
    pub fn run_with_fuel(&self, roots: &mut [Value], fuel: u64) -> Result<Option<Value>> {
        self.run_register_with_fuel(roots, fuel).map(|(ret, _)| ret)
    }

    /// Executes on the reference tree-walking interpreter — the language's
    /// specification, which [`EcodeProgram::run`] is differentially tested
    /// against.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run`].
    pub fn run_interp(&self, roots: &mut [Value]) -> Result<Option<Value>> {
        interp::run(&self.typed, roots)
    }

    /// Executes on the interpreter with an instruction budget.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run`], plus fuel exhaustion.
    pub fn run_interp_with_fuel(&self, roots: &mut [Value], fuel: u64) -> Result<Option<Value>> {
        interp::run_with_fuel(&self.typed, roots, fuel)
    }

    /// As [`EcodeProgram::run`], also returning the run's
    /// batch-superinstruction statistics.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run`].
    pub fn run_register(&self, roots: &mut [Value]) -> Result<(Option<Value>, RunStats)> {
        rvm::run(&self.rcode, &self.typed.bindings, roots)
    }

    /// [`EcodeProgram::run_register`] with an instruction budget
    /// (`BatchCopy` charges per element moved, so a budget means the same
    /// whether or not a loop was batched).
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run_register`], plus fuel exhaustion.
    pub fn run_register_with_fuel(
        &self,
        roots: &mut [Value],
        fuel: u64,
    ) -> Result<(Option<Value>, RunStats)> {
        rvm::run_with_fuel(
            &self.rcode,
            &self.typed.bindings,
            roots,
            fuel,
            &mut VmScratch::default(),
        )
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

    fn scalar_fmt() -> Arc<RecordFormat> {
        FormatBuilder::record("S").int("i").double("d").string("s").char("c").build_arc().unwrap()
    }

    /// Runs `src` with a single writable root of `scalar_fmt`, on the
    /// register VM and the interpreter, asserting agreement; returns the
    /// final root and the return value.
    fn run_both(src: &str) -> (Value, Option<Value>) {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new()
            .bind_output("r", &fmt)
            .compile(src)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let mut roots_vm = vec![Value::default_record(&fmt)];
        let ret_vm = prog.run(&mut roots_vm).unwrap();
        let mut roots_it = vec![Value::default_record(&fmt)];
        let ret_it = prog.run_interp(&mut roots_it).unwrap();
        assert_eq!(roots_vm, roots_it, "vm/interp root divergence for {src}");
        assert_eq!(ret_vm, ret_it, "vm/interp return divergence for {src}");
        (roots_vm.pop().expect("one root"), ret_vm)
    }

    fn ret_int(src: &str) -> i64 {
        match run_both(src).1 {
            Some(Value::Int(v)) => v,
            other => panic!("expected int return, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ret_int("return 1 + 2 * 3;"), 7);
        assert_eq!(ret_int("return (1 + 2) * 3;"), 9);
        assert_eq!(ret_int("return 7 / 2;"), 3);
        assert_eq!(ret_int("return 7 % 3;"), 1);
        assert_eq!(ret_int("return -7 / 2;"), -3); // C truncation
        assert_eq!(ret_int("return -(3 - 5);"), 2);
    }

    #[test]
    fn float_arithmetic() {
        let (_, ret) = run_both("return 1.5 * 2.0 + 1;");
        assert_eq!(ret, Some(Value::Float(4.0)));
        let (_, ret) = run_both("return 7 / 2.0;");
        assert_eq!(ret, Some(Value::Float(3.5)));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ret_int("return 1 < 2 && 2 < 3;"), 1);
        assert_eq!(ret_int("return 1 > 2 || 3 > 2;"), 1);
        assert_eq!(ret_int("return !(1 == 1);"), 0);
        assert_eq!(ret_int("return 1.5 > 1.0;"), 1);
        assert_eq!(ret_int("return \"abc\" == \"abc\";"), 1);
        assert_eq!(ret_int("return \"abc\" < \"abd\";"), 1);
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // Division by zero on the rhs must not occur.
        assert_eq!(ret_int("return 0 && 1 / 0;"), 0);
        assert_eq!(ret_int("return 1 || 1 / 0;"), 1);
    }

    #[test]
    fn loops_and_control_flow() {
        assert_eq!(ret_int("int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s;"), 55);
        assert_eq!(
            ret_int("int s = 0; int i = 0; while (i < 5) { i++; if (i == 3) continue; s += i; } return s;"),
            12
        );
        assert_eq!(ret_int("int i; for (i = 0; ; i++) { if (i == 7) break; } return i;"), 7);
    }

    #[test]
    fn incdec_semantics() {
        assert_eq!(ret_int("int i = 5; int j = i++; return j * 100 + i;"), 506);
        assert_eq!(ret_int("int i = 5; int j = ++i; return j * 100 + i;"), 606);
        assert_eq!(ret_int("int i = 5; int j = i--; return j * 100 + i;"), 504);
        assert_eq!(ret_int("int i = 5; int j = --i; return j * 100 + i;"), 404);
    }

    #[test]
    fn compound_assignment() {
        assert_eq!(ret_int("int x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4; return x;"), 2);
    }

    #[test]
    fn ternary() {
        assert_eq!(ret_int("return 3 > 2 ? 10 : 20;"), 10);
        assert_eq!(ret_int("return 3 < 2 ? 10 : 20;"), 20);
        let (_, r) = run_both("return 1 ? 1 : 2.5;");
        assert_eq!(r, Some(Value::Float(1.0)));
    }

    #[test]
    fn strings() {
        let (_, r) = run_both(r#"return "foo" + "bar";"#);
        assert_eq!(r, Some(Value::str("foobar")));
        assert_eq!(ret_int(r#"return strlen("hello");"#), 5);
        let (_, r) = run_both(r#"return strcat("a", "b");"#);
        assert_eq!(r, Some(Value::str("ab")));
        let (root, _) = run_both(r#"r.s = "x"; r.s += "y";"#);
        assert_eq!(root.as_record().unwrap()[2], Value::str("xy"));
    }

    #[test]
    fn chars() {
        let (root, _) = run_both("r.c = 'A'; r.c += 1;");
        assert_eq!(root.as_record().unwrap()[3], Value::Char(b'B'));
        assert_eq!(ret_int("char c = 'a'; return c + 0;"), 97);
        let (root, _) = run_both("r.c = 'z'; r.c++;");
        assert_eq!(root.as_record().unwrap()[3], Value::Char(b'{'));
    }

    #[test]
    fn numeric_casts() {
        let (root, _) = run_both("r.d = 3; r.i = 2.9;");
        let fs = root.as_record().unwrap();
        assert_eq!(fs[1], Value::Float(3.0));
        assert_eq!(fs[0], Value::Int(2));
    }

    #[test]
    fn builtins() {
        assert_eq!(ret_int("return abs(-5);"), 5);
        assert_eq!(ret_int("return min(3, 7) + max(3, 7);"), 10);
        let (_, r) = run_both("return sqrt(9.0);");
        assert_eq!(r, Some(Value::Float(3.0)));
        let (_, r) = run_both("return floor(2.7) + ceil(2.1);");
        assert_eq!(r, Some(Value::Float(5.0)));
        let (_, r) = run_both("return fabs(-2.5);");
        assert_eq!(r, Some(Value::Float(2.5)));
        let (_, r) = run_both("return min(1.5, 2) + max(1, 0.5);");
        assert_eq!(r, Some(Value::Float(2.5)));
    }

    #[test]
    fn string_number_conversions() {
        assert_eq!(ret_int(r#"return atoi("42");"#), 42);
        assert_eq!(ret_int(r#"return atoi("  -17 trailing");"#), -17);
        assert_eq!(ret_int(r#"return atoi("+8");"#), 8);
        assert_eq!(ret_int(r#"return atoi("nope");"#), 0);
        let (_, r) = run_both(r#"return itoa(-5) + "!";"#);
        assert_eq!(r, Some(Value::str("-5!")));
        let (_, r) = run_both(r#"return atof("2.5xyz") * 2;"#);
        assert_eq!(r, Some(Value::Float(5.0)));
        let (_, r) = run_both(r#"return atof("garbage");"#);
        assert_eq!(r, Some(Value::Float(0.0)));
        let (_, r) = run_both("return ftoa(1.25);");
        assert_eq!(r, Some(Value::str("1.25")));
        // The evolution use case: a string id becomes an int id.
        assert_eq!(ret_int(r#"return atoi("id-42");"#), 0);
        assert_eq!(ret_int(r#"return atoi("1234") % 100;"#), 34);
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile("return 1 / 0;").unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(matches!(prog.run(&mut roots), Err(EcodeError::Runtime(_))));
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(matches!(prog.run_interp(&mut roots), Err(EcodeError::Runtime(_))));
        let prog2 = EcodeCompiler::new().bind_output("r", &fmt).compile("return 1 % 0;").unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(prog2.run(&mut roots).is_err());
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile("while (1) {}").unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(prog.run_with_fuel(&mut roots, 10_000).is_err());
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(prog.run_interp_with_fuel(&mut roots, 10_000).is_err());
    }

    #[test]
    fn wrong_root_count_rejected() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile("r.i = 1;").unwrap();
        assert!(prog.run(&mut []).is_err());
        assert!(prog.run_interp(&mut []).is_err());
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

        for engine in ["vm", "interp"] {
            let mut roots = vec![input.clone(), Value::default_record(&v1)];
            match engine {
                "vm" => prog.run(&mut roots).unwrap(),
                _ => prog.run_interp(&mut roots).unwrap(),
            };
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
    fn len_builtin_runs() {
        let member = FormatBuilder::record("M").string("info").int("ID").build_arc().unwrap();
        let fmt = FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", member, "count")
            .build_arc()
            .unwrap();
        let prog =
            EcodeCompiler::new().bind_input("r", &fmt).compile("return len(r.list);").unwrap();
        let mut roots = vec![Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
        ])];
        assert_eq!(prog.run(&mut roots).unwrap(), Some(Value::Int(2)));
        assert_eq!(prog.run_interp(&mut roots).unwrap(), Some(Value::Int(2)));
    }

    #[test]
    fn read_out_of_bounds_is_error_but_write_extends() {
        let member = FormatBuilder::record("M").int("ID").build_arc().unwrap();
        let fmt = FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", member, "count")
            .build_arc()
            .unwrap();
        let read =
            EcodeCompiler::new().bind_output("r", &fmt).compile("return r.list[5].ID;").unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(read.run(&mut roots).is_err());
        assert!(read.run_interp(&mut roots).is_err());

        let write = EcodeCompiler::new()
            .bind_output("r", &fmt)
            .compile("r.list[2].ID = 9; r.count = 3;")
            .unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        write.run(&mut roots).unwrap();
        let arr = roots[0].field(&fmt, "list").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2], Value::Record(vec![Value::Int(9)]));
        roots[0].check(&fmt).unwrap();
    }

    #[test]
    fn user_functions_basic() {
        assert_eq!(ret_int("int add(int a, int b) { return a + b; } return add(2, 3);"), 5);
        assert_eq!(ret_int("int twice(int x) { return x * 2; } return twice(twice(twice(1)));"), 8);
        let (_, r) = run_both("double half(double x) { return x / 2.0; } return half(5);");
        assert_eq!(r, Some(Value::Float(2.5)));
        let (_, r) =
            run_both(r#"string greet(string who) { return "hi " + who; } return greet("bob");"#);
        assert_eq!(r, Some(Value::str("hi bob")));
    }

    #[test]
    fn user_functions_recursion() {
        assert_eq!(
            ret_int("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } return fib(12);"),
            144
        );
        // Mutual recursion works because signatures are collected first.
        assert_eq!(
            ret_int(
                "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
                 int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
                 return is_even(10) * 10 + is_odd(7);"
            ),
            11
        );
    }

    #[test]
    fn user_functions_side_effects_on_roots() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new()
            .bind_output("r", &fmt)
            .compile("void bump() { r.i = r.i + 1; } bump(); bump(); bump();")
            .unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        prog.run(&mut roots).unwrap();
        assert_eq!(roots[0].as_record().unwrap()[0], Value::Int(3));
        let mut roots2 = vec![Value::default_record(&fmt)];
        prog.run_interp(&mut roots2).unwrap();
        assert_eq!(roots, roots2);
    }

    #[test]
    fn user_functions_shadow_builtins_and_fall_off_end() {
        // A user `max` wins over the builtin.
        assert_eq!(ret_int("int max(int a, int b) { return a * b; } return max(3, 4);"), 12);
        // Falling off the end of a non-void function yields zero.
        assert_eq!(ret_int("int f() { } return f() + 7;"), 7);
    }

    #[test]
    fn user_function_arg_coercion() {
        let (_, r) = run_both("double f(double x) { return x + 0.5; } return f(2);");
        assert_eq!(r, Some(Value::Float(2.5)));
        assert_eq!(ret_int("int f(int x) { return x; } return f('A');"), 65);
    }

    #[test]
    fn user_function_errors() {
        let fmt = scalar_fmt();
        let c = EcodeCompiler::new().bind_output("r", &fmt);
        // Duplicate definition.
        assert!(c.compile("int f() { return 1; } int f() { return 2; }").is_err());
        // Wrong arity.
        assert!(c.compile("int f(int a) { return a; } return f();").is_err());
        // Void returning a value / non-void bare return.
        assert!(c.compile("void f() { return 1; }").is_err());
        assert!(c.compile("int f() { return; } return f();").is_err());
        // Using a void call as a value.
        assert!(c.compile("void f() { } return f() + 1;").is_err());
        // Definitions after statements.
        assert!(c.compile("r.i = 1; int f() { return 1; }").is_err());
        // Unknown parameter type syntax.
        assert!(c.compile("int f(bogus a) { return 0; }").is_err());
    }

    #[test]
    fn runaway_recursion_overflows_cleanly() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new()
            .bind_output("r", &fmt)
            .compile("int f(int n) { return f(n + 1); } return f(0);")
            .unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        let err = prog.run(&mut roots).unwrap_err();
        assert!(matches!(err, EcodeError::Runtime(msg) if msg.contains("overflow")));
        let mut roots = vec![Value::default_record(&fmt)];
        let err = prog.run_interp(&mut roots).unwrap_err();
        assert!(matches!(err, EcodeError::Runtime(msg) if msg.contains("overflow")));
    }

    #[test]
    fn function_locals_are_isolated() {
        // Function locals must not clobber main-body locals or other frames.
        assert_eq!(
            ret_int(
                "int f(int x) { int a = x * 10; return a; }
                 int a = 1; int b = f(2); int c = f(3); return a + b + c;"
            ),
            51
        );
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
            .bind_output("r", &fmt)
            .compile("r.best[0] = r.list[1]; r.best_count = 1;")
            .unwrap();
        let mut roots = vec![Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
            Value::Int(0),
            Value::Array(vec![]),
        ])];
        prog.run(&mut roots).unwrap();
        let best = roots[0].field(&fmt, "best").unwrap().as_array().unwrap();
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
        let mut interp_roots = vec![input.clone(), Value::default_record(&dst_f)];
        prog.run_interp(&mut interp_roots).unwrap();
        let mut reg_roots = vec![input, Value::default_record(&dst_f)];
        let (_, stats) = prog.run_register(&mut reg_roots).unwrap();
        assert_eq!(interp_roots, reg_roots);
        assert_eq!(stats.batch_copies, 1, "loop should lower to one BatchCopy");
        assert_eq!(stats.batch_elems, 4);
        assert!(prog.rcode().disassemble().contains("BatchCopy"));
    }

    #[test]
    fn batch_copy_short_source_errors_like_scalar_loop() {
        let (src_f, dst_f) = array_pair();
        let code = "int i; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
        let prog = EcodeCompiler::new()
            .bind_input("new", &src_f)
            .bind_output("old", &dst_f)
            .compile(code)
            .unwrap();
        // Claims 5 elements, carries 2: the batch must report the scalar
        // loop's out-of-bounds read at index 2, after copying the in-range
        // prefix — as the tree-walker, which runs the loop, does.
        let input =
            Value::Record(vec![Value::Int(5), Value::Array(vec![Value::Int(7), Value::Int(8)])]);
        let mut interp_roots = vec![input.clone(), Value::default_record(&dst_f)];
        let interp_err = prog.run_interp(&mut interp_roots).unwrap_err();
        let mut reg_roots = vec![input, Value::default_record(&dst_f)];
        let reg_err = prog.run_register(&mut reg_roots).unwrap_err();
        assert_eq!(interp_err.to_string(), reg_err.to_string());
        assert_eq!(interp_err.to_string(), "runtime error: array index 2 out of bounds (len 2)");
        assert_eq!(interp_roots, reg_roots, "partial copy before the error must agree");
        assert_eq!(reg_roots[1].as_record().unwrap()[1].as_array().unwrap().len(), 2);
    }

    #[test]
    fn register_vm_honours_fuel() {
        let fmt = scalar_fmt();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile("while (1) {}").unwrap();
        let mut roots = vec![Value::default_record(&fmt)];
        assert!(prog.run_register_with_fuel(&mut roots, 10_000).is_err());
    }

    #[test]
    fn register_vm_runtime_errors_match_stack_vm() {
        let fmt = scalar_fmt();
        for src in ["return 1 / 0;", "return 1 % 0;", "return r.s + itoa(1 / 0);"] {
            let prog = EcodeCompiler::new().bind_output("r", &fmt).compile(src).unwrap();
            let mut a = vec![Value::default_record(&fmt)];
            let ea = prog.run_interp(&mut a).unwrap_err();
            let mut b = vec![Value::default_record(&fmt)];
            let eb = prog.run_register(&mut b).unwrap_err();
            assert_eq!(ea.to_string(), eb.to_string(), "error divergence for {src}");
        }
    }
}
