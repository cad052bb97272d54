//! Program-level integration tests: realistic Ecode programs run on the
//! register VM and on the reference interpreter (the oracle) and must agree.

use std::sync::Arc;

use ecode::{EcodeCompiler, EcodeError, EcodeProgram, FusedProgram, RInsn};
use pbio::{FormatBuilder, RecordFormat, Value};

fn scratch() -> Arc<RecordFormat> {
    let item = FormatBuilder::record("Item").string("key").int("val").build_arc().unwrap();
    FormatBuilder::record("Scratch")
        .int("n")
        .var_array_of("items", item, "n")
        .int("acc")
        .double("facc")
        .string("sacc")
        .build_arc()
        .unwrap()
}

fn empty_scratch(n_items: usize) -> Value {
    Value::Record(vec![
        Value::Int(n_items as i64),
        Value::Array(
            (0..n_items)
                .map(|i| Value::Record(vec![Value::str(format!("k{i}")), Value::Int(i as i64)]))
                .collect(),
        ),
        Value::Int(0),
        Value::Float(0.0),
        Value::Str(String::new()),
    ])
}

fn compile(src: &str) -> EcodeProgram {
    EcodeCompiler::new()
        .bind_output("s", &scratch())
        .compile(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"))
}

/// Runs on both engines, asserts agreement, returns (root, return value).
fn run_both(src: &str, input: Value) -> (Value, Option<Value>) {
    let prog = compile(src);
    let mut vm_roots = vec![input.clone()];
    let vm_ret = prog.run_with_fuel(&mut vm_roots, 50_000_000).unwrap();
    let mut it_roots = vec![input];
    let it_ret = prog.run_interp_with_fuel(&mut it_roots, 50_000_000).unwrap();
    assert_eq!(vm_roots, it_roots, "engine divergence (roots)");
    assert_eq!(vm_ret, it_ret, "engine divergence (return)");
    (vm_roots.pop().unwrap(), vm_ret)
}

#[test]
fn gcd_with_functions() {
    let src = r#"
        int gcd(int a, int b) {
            while (b != 0) {
                int t = b;
                b = a % b;
                a = t;
            }
            return a;
        }
        return gcd(462, 1071);
    "#;
    let (_, ret) = run_both(src, empty_scratch(0));
    assert_eq!(ret, Some(Value::Int(21)));
}

#[test]
fn selection_sort_on_root_array() {
    // Sort items by val, descending, using whole-record swaps.
    let src = r#"
        int i; int j; int best;
        for (i = 0; i < s.n; i++) {
            best = i;
            for (j = i + 1; j < s.n; j++) {
                if (s.items[j].val > s.items[best].val) best = j;
            }
            if (best != i) {
                s.acc = s.items[i].val;
                s.items[i] = s.items[best];
                s.items[best].val = s.acc;
            }
        }
    "#;
    let mut input = empty_scratch(0);
    // Shuffled values with matching keys.
    let vals = [3i64, 1, 4, 1, 5, 9, 2, 6];
    if let Value::Record(fields) = &mut input {
        fields[0] = Value::Int(vals.len() as i64);
        fields[1] = Value::Array(
            vals.iter()
                .map(|&v| Value::Record(vec![Value::str(format!("k{v}")), Value::Int(v)]))
                .collect(),
        );
    }
    let (root, _) = run_both(src, input);
    let out: Vec<i64> = root
        .field(&scratch(), "items")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|i| i.as_record().unwrap()[1].as_i64().unwrap())
        .collect();
    let mut expect = vals.to_vec();
    expect.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(out, expect);
}

#[test]
fn string_report_building() {
    let src = r#"
        string join(string acc, string piece) {
            if (strlen(acc) == 0) return piece;
            return acc + "," + piece;
        }
        int i;
        for (i = 0; i < s.n; i++) {
            s.sacc = join(s.sacc, s.items[i].key);
        }
    "#;
    let (root, _) = run_both(src, empty_scratch(3));
    assert_eq!(root.field(&scratch(), "sacc"), Some(&Value::str("k0,k1,k2")));
}

#[test]
fn numeric_integration_loop() {
    // Trapezoidal integral of x^2 on [0, 1] — floats + functions + loops.
    let src = r#"
        double f(double x) { return x * x; }
        int i;
        int steps = 1000;
        double h = 1.0 / steps;
        double sum = (f(0.0) + f(1.0)) / 2.0;
        for (i = 1; i < steps; i++) {
            sum += f(i * h);
        }
        s.facc = sum * h;
    "#;
    let (root, _) = run_both(src, empty_scratch(0));
    let Some(Value::Float(v)) = root.field(&scratch(), "facc").cloned() else {
        panic!("facc not set")
    };
    assert!((v - 1.0 / 3.0).abs() < 1e-5, "integral = {v}");
}

#[test]
fn collatz_with_early_exit() {
    let src = r#"
        int steps(int n) {
            int c = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                c++;
                if (c > 10000) return -1;
            }
            return c;
        }
        return steps(27);
    "#;
    let (_, ret) = run_both(src, empty_scratch(0));
    assert_eq!(ret, Some(Value::Int(111)));
}

#[test]
fn histogram_via_write_extension() {
    // Buckets grow on demand through auto-extending writes.
    let bucket = FormatBuilder::record("B").int("count").build_arc().unwrap();
    let fmt = FormatBuilder::record("H")
        .int("n")
        .var_array_of("buckets", bucket, "n")
        .build_arc()
        .unwrap();
    // Writes auto-extend; reads do not — so zero the buckets first (the
    // idiomatic Fig. 5 pattern writes before it ever reads the output).
    let src = r#"
        int i;
        for (i = 0; i < 7; i++) { h.buckets[i].count = 0; }
        for (i = 0; i < 50; i++) {
            int b = (i * i) % 7;
            h.buckets[b].count = h.buckets[b].count + 1;
        }
        h.n = 7;
    "#;
    let prog = EcodeCompiler::new().bind_output("h", &fmt).compile(src).unwrap();
    let mut roots = vec![Value::Record(vec![Value::Int(0), Value::Array(vec![])])];
    prog.run(&mut roots).unwrap();
    roots[0].check(&fmt).unwrap();
    let counts: Vec<i64> = roots[0]
        .field(&fmt, "buckets")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.as_record().unwrap()[0].as_i64().unwrap())
        .collect();
    assert_eq!(counts.iter().sum::<i64>(), 50);
    // i*i mod 7 only hits quadratic residues {0,1,2,4}.
    assert_eq!(counts.len(), 7);
    assert_eq!(counts[3], 0);
    assert_eq!(counts[5], 0);
    assert_eq!(counts[6], 0);
}

#[test]
fn fuel_bounds_function_heavy_programs() {
    let src = r#"
        int burn(int n) {
            int i; int s = 0;
            for (i = 0; i < n; i++) s += i;
            return s;
        }
        int i;
        for (i = 0; i < 1000000; i++) { s.acc = burn(1000); }
    "#;
    let prog = compile(src);
    let mut roots = vec![empty_scratch(0)];
    assert!(matches!(prog.run_with_fuel(&mut roots, 100_000), Err(EcodeError::Runtime(_))));
}

#[test]
fn compile_once_run_many_is_deterministic() {
    let src = "int i; for (i = 0; i < s.n; i++) { s.acc += s.items[i].val; }";
    let prog = compile(src);
    let mut expected = None;
    for _ in 0..5 {
        let mut roots = vec![empty_scratch(10)];
        prog.run(&mut roots).unwrap();
        let acc = roots[0].field(&scratch(), "acc").cloned();
        match &expected {
            None => expected = Some(acc),
            Some(e) => assert_eq!(&acc, e),
        }
    }
    assert_eq!(expected.unwrap(), Some(Value::Int(45)));
}

#[test]
fn bytecode_is_inspectable() {
    let prog = compile("s.acc = 3;");
    assert!(!prog.rcode().is_empty());
    // Exactly: the constant, Store, Ret.
    assert_eq!(prog.rcode().len(), 3);
    assert!(prog.rcode().disassemble().contains("r0 = 3"));
    assert_eq!(prog.bindings().len(), 1);
    assert_eq!(prog.bindings()[0].name, "s");
}

// -- CopyPath rows ------------------------------------------------------------

/// What one engine left behind: the roots, and the return value or the
/// error's text.
type Outcome = (Vec<Value>, Result<Option<Value>, String>);

/// Runs `prog` on the tree-walker (the oracle) and the register VM and
/// asserts they agree on the roots they leave — also after an error — and
/// on the return value or the error string.
fn both_engines(prog: &EcodeProgram, roots: &[Value]) -> Outcome {
    let text = |e: EcodeError| e.to_string();
    let mut interp = roots.to_vec();
    let by_interp = prog.run_interp(&mut interp).map_err(text);
    let mut register = roots.to_vec();
    let by_register = prog.run(&mut register).map_err(text);
    assert_eq!(by_interp, by_register, "register VM: result");
    assert_eq!(interp, register, "register VM: roots");
    (interp, by_interp)
}

/// The multi-entry rows of a program's register code, as (entries, whole).
fn rows(prog: &EcodeProgram) -> Vec<(usize, bool)> {
    prog.rcode()
        .insns
        .iter()
        .filter_map(|i| match i {
            RInsn::CopyPath(row) if row.entries.len() > 1 => Some((row.entries.len(), row.whole)),
            _ => None,
        })
        .collect()
}

fn member(v2: bool) -> Arc<RecordFormat> {
    let b = FormatBuilder::record("Member").string("info").int("ID");
    let b = if v2 { b.int("is_source").int("is_sink") } else { b };
    b.build_arc().unwrap()
}

fn response_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member(true), "member_count")
        .build_arc()
        .unwrap()
}

fn response_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member(false), "member_count")
        .int("src_count")
        .var_array_of("src_list", member(false), "src_count")
        .int("sink_count")
        .var_array_of("sink_list", member(false), "sink_count")
        .build_arc()
        .unwrap()
}

/// The paper's Fig. 5, verbatim.
const FIG5: &str = r#"
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

fn fig5() -> EcodeProgram {
    EcodeCompiler::new()
        .bind_input("new", &response_v2())
        .bind_output("old", &response_v1())
        .compile(FIG5)
        .unwrap()
}

fn v2_value(n: i64) -> Value {
    let members = (0..n).map(|i| {
        Value::Record(vec![
            Value::str(format!("tcp://host-{i}:{}", 4000 + i)),
            Value::Int(i),
            Value::Int(i64::from(i % 3 == 0)),
            Value::Int(i64::from(i % 2 == 0)),
        ])
    });
    Value::Record(vec![Value::Int(n), Value::Array(members.collect())])
}

#[test]
fn fig5_agrees_on_both_engines() {
    let prog = fig5();
    for n in [0, 1, 2, 7, 40] {
        let (roots, ret) =
            both_engines(&prog, &[v2_value(n), Value::default_record(&response_v1())]);
        assert_eq!(ret, Ok(None));
        roots[1].check(&response_v1()).unwrap();
        let list = |name| roots[1].field(&response_v1(), name).unwrap().as_array().unwrap().len();
        assert_eq!(
            (list("member_list"), list("src_list"), list("sink_list")),
            (n as usize, (n as usize).div_ceil(3), (n as usize).div_ceil(2))
        );
    }
    // A v2 message that lies about its length fails the same way everywhere,
    // with the members before the gap converted.
    let mut short = v2_value(3);
    short.as_record_mut().unwrap()[0] = Value::Int(5);
    let (roots, ret) = both_engines(&prog, &[short, Value::default_record(&response_v1())]);
    assert_eq!(ret, Err("runtime error: array index 3 out of bounds (len 3)".into()));
    assert_eq!(roots[1].field(&response_v1(), "member_list").unwrap().as_array().unwrap().len(), 3);
}

#[test]
fn fig5_lowers_to_three_whole_element_rows() {
    let prog = fig5();
    assert_eq!(rows(&prog), [(2, true); 3]);
    let listing = prog.rcode().disassemble();
    for list in [1, 3, 5] {
        let row = format!("CopyPath root1.{list}[*] [r");
        let line = listing.lines().find(|l| l.contains(&row)).unwrap_or_else(|| {
            panic!("no row into field {list}:\n{listing}");
        });
        assert!(line.contains("{ .0 = root0.1[*].0 [r0]; .1 = root0.1[*].1 [r0] }"), "{line}");
    }
    // The copy outside the loop stays the assignment it was.
    assert!(listing.contains("CopyPath root1.0 = root0.0"), "{listing}");
}

/// Fusing a chain moves each step's copy rows onto that step's roots: the
/// second step's scalar copy reads root 1 and writes root 2.
#[test]
fn fused_chain_remaps_copy_rows() {
    let samples = |b: FormatBuilder| {
        b.int("n").var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
    };
    let wide = samples(FormatBuilder::record("Telemetry")).long("a").long("b").build_arc().unwrap();
    let narrow = samples(FormatBuilder::record("Telemetry")).long("a").build_arc().unwrap();
    let copy = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
    let step = |from, to, tail: &str| {
        EcodeCompiler::new()
            .bind_input("new", from)
            .bind_output("old", to)
            .compile(&format!("{copy} {tail}"))
            .unwrap()
    };
    let (s1, s2) = (
        step(&wide, &narrow, "old.a = new.a + new.b;"),
        step(&narrow, &wide, "old.a = new.a; old.b = 0;"),
    );
    let listing = FusedProgram::compose(&[&s1, &s2]).unwrap().rcode().disassemble();
    assert!(listing.contains("CopyPath root2.2 = root1.2"), "{listing}");
}

/// Source and destination shapes for hand-written row programs: `in.a[]`
/// and `in.b[]` feed `out.items[]`, whose element has three fields.
fn row_formats() -> (Arc<RecordFormat>, Arc<RecordFormat>) {
    let a = FormatBuilder::record("A").int("x").string("s").build_arc().unwrap();
    let b = FormatBuilder::record("B").int("y").build_arc().unwrap();
    let item = FormatBuilder::record("Item").double("x").string("s").int("y").build_arc().unwrap();
    let input = FormatBuilder::record("In")
        .int("na")
        .var_array_of("a", a, "na")
        .int("nb")
        .var_array_of("b", b, "nb")
        .build_arc()
        .unwrap();
    let output =
        FormatBuilder::record("Out").int("n").var_array_of("items", item, "n").build_arc().unwrap();
    (input, output)
}

fn row_input(na: i64, nb: i64) -> Value {
    let a = (0..na).map(|i| Value::Record(vec![Value::Int(10 + i), Value::str(format!("s{i}"))]));
    let b = (0..nb).map(|i| Value::Record(vec![Value::Int(100 + i)]));
    Value::Record(vec![
        Value::Int(na),
        Value::Array(a.collect()),
        Value::Int(nb),
        Value::Array(b.collect()),
    ])
}

fn item(x: f64, s: &str, y: i64) -> Value {
    Value::Record(vec![Value::Float(x), Value::str(s), Value::Int(y)])
}

fn row_program(src: &str) -> EcodeProgram {
    let (input, output) = row_formats();
    EcodeCompiler::new().bind_input("in", &input).bind_output("out", &output).compile(src).unwrap()
}

fn out_with(items: Vec<Value>) -> Value {
    Value::Record(vec![Value::Int(items.len() as i64), Value::Array(items)])
}

/// One three-entry row (with an int→double conversion in its first entry)
/// written at `out.items[k]`, reading `in.a[i]` and `in.b[j]`.
const ROW: &str =
    "out.items[k].x = in.a[i].x; out.items[k].s = in.a[i].s; out.items[k].y = in.b[j].y;";

#[test]
fn row_appends_overwrites_and_fills_gaps() {
    let blank = item(0.0, "", 0);
    for (k, before, after) in [
        // One past the end: the element is appended whole.
        (0, vec![], vec![item(11.0, "s1", 100)]),
        (
            2,
            vec![item(1.0, "p", 1); 2],
            vec![item(1.0, "p", 1), item(1.0, "p", 1), item(11.0, "s1", 100)],
        ),
        // Below the length: overwritten in place.
        (0, vec![item(1.0, "p", 1); 2], vec![item(11.0, "s1", 100), item(1.0, "p", 1)]),
        // Beyond it: the gap is default-filled.
        (
            3,
            vec![item(1.0, "p", 1)],
            vec![item(1.0, "p", 1), blank.clone(), blank.clone(), item(11.0, "s1", 100)],
        ),
    ] {
        let prog = row_program(&format!("int i = 1; int j = 0; int k = {k}; {ROW}"));
        assert_eq!(rows(&prog), [(3, true)]);
        let (roots, ret) = both_engines(&prog, &[row_input(2, 1), out_with(before)]);
        assert_eq!(ret, Ok(None));
        assert_eq!(roots[1].as_record().unwrap()[1], Value::Array(after), "k = {k}");
    }
}

#[test]
fn row_stopped_by_a_bad_source_keeps_the_entries_before_it() {
    // `in.b[j]` is out of bounds: entry 2 of the row fails after entries 0
    // and 1 landed — in a default-extended element when appending, in the
    // old element when overwriting — on both engines, with the same text.
    for (k, before, after) in [
        (0, vec![], vec![item(10.0, "s0", 0)]),
        (0, vec![item(1.0, "p", 1)], vec![item(10.0, "s0", 1)]),
        (1, vec![], vec![item(0.0, "", 0), item(10.0, "s0", 0)]),
    ] {
        let prog = row_program(&format!("int i = 0; int j = 4; int k = {k}; {ROW}"));
        assert_eq!(rows(&prog), [(3, true)]);
        let (roots, ret) = both_engines(&prog, &[row_input(1, 2), out_with(before)]);
        assert_eq!(ret, Err("runtime error: array index 4 out of bounds (len 2)".into()));
        assert_eq!(roots[1].as_record().unwrap()[1], Value::Array(after), "k = {k}");
    }
    // A bad first source touches nothing; a bad destination subscript stops
    // the row after its first source was read, before any store.
    for (decls, error) in [
        ("int i = 7; int j = 0; int k = 0;", "array index 7 out of bounds (len 1)"),
        ("int i = 0; int j = 0; int k = 0 - 1;", "negative array index -1"),
    ] {
        let prog = row_program(&format!("{decls} {ROW}"));
        let (roots, ret) = both_engines(&prog, &[row_input(1, 2), out_with(vec![])]);
        assert_eq!(ret, Err(format!("runtime error: {error}")));
        assert_eq!(roots[1], out_with(vec![]));
    }
}

#[test]
fn rows_fold_only_where_the_reorder_is_invisible() {
    let folded = |src: &str| rows(&row_program(src));
    // Constant subscripts are as good as locals; a partial row is not whole.
    assert_eq!(folded("out.items[0].x = in.a[0].x; out.items[0].y = in.b[1].y;"), [(2, false)]);
    // Leaves out of order still share the navigation, but are not appended by value.
    assert_eq!(
        folded("int k; out.items[k].y = in.b[0].y; out.items[k].s = in.a[0].s; out.items[k].x = in.a[0].x;"),
        [(3, false)]
    );
    // Different elements, computed subscripts, a source in the destination
    // root, or a statement in between: no row.
    for src in [
        "int k; out.items[k].x = in.a[0].x; out.items[k + 1].y = in.b[0].y;",
        "int k; out.items[k + 0 * k].x = in.a[0].x; out.items[k + 0 * k].y = in.b[0].y;",
        "int k; out.items[k].x = in.a[in.nb].x; out.items[k].y = in.b[0].y;",
        "int k; out.items[k].y = in.b[0].y; out.items[1].x = out.items[0].x;",
        "int k; out.items[k].x = in.a[0].x; k = k; out.items[k].y = in.b[0].y;",
        "out.n = in.na; out.n = in.nb;",
    ] {
        assert_eq!(folded(src), [], "{src}");
    }
    // Rows of different destinations sit side by side, and a row ends where
    // its destination changes.
    assert_eq!(
        folded(
            "int k = 1; out.items[0].x = in.a[0].x; out.items[0].y = in.b[0].y; \
             out.items[k].x = in.a[0].x; out.items[k].s = in.a[0].s; out.items[k].y = in.b[0].y;"
        ),
        [(2, false), (3, true)]
    );
}

#[test]
fn register_fuel_is_charged_per_row_entry() {
    // One row of three entries and nothing else but the local initialisers:
    // sweeping the budget must visit every prefix of the row — nothing, the
    // default-extended element with entry 0, with entries 0–1, the whole
    // element — in that order, one budget unit apart, as three single
    // copies would.
    let prog = row_program(&format!("int i = 1; int j = 0; int k = 0; {ROW}"));
    let states =
        [vec![], vec![item(11.0, "", 0)], vec![item(11.0, "s1", 0)], vec![item(11.0, "s1", 100)]];
    let mut seen = Vec::new();
    for fuel in 0.. {
        let mut roots = vec![row_input(2, 1), out_with(vec![])];
        let result = prog.run_with_fuel(&mut roots, fuel);
        let items = roots[1].as_record().unwrap()[1].as_array().unwrap().to_vec();
        let at = states.iter().position(|s| *s == items).expect("a prefix state of the row");
        seen.push(at);
        match result {
            Ok(_) => break,
            Err(e) => assert_eq!(e.to_string(), "runtime error: instruction budget exhausted"),
        }
        assert!(fuel < 64, "the program never finished");
    }
    assert!(seen.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1), "{seen:?}");
    let at = |state| seen.iter().filter(|&&s| s == state).count();
    assert_eq!((at(1), at(2)), (1, 1), "one budget unit per entry: {seen:?}");
    assert_eq!(seen.last(), Some(&3));
}

#[test]
fn rows_survive_fusion_into_a_three_step_chain() {
    // v2 → v1 (Fig. 5's rows), then two steps that each rebuild the member
    // list through a row of their own: the fused register program keeps all
    // five rows, rebased onto the step roots, and equals the steps run one
    // by one on the tree-walker.
    let v1 = response_v1();
    let members = FormatBuilder::record("Members")
        .int("member_count")
        .var_array_of("member_list", member(false), "member_count")
        .build_arc()
        .unwrap();
    let rebuild = "int i; for (i = 0; i < new.member_count; i++) { \
        old.member_list[i].info = new.member_list[i].info; \
        old.member_list[i].ID = new.member_list[i].ID; }";
    let step = |from, to| {
        EcodeCompiler::new()
            .bind_input("new", from)
            .bind_output("old", to)
            .compile(rebuild)
            .unwrap()
    };
    let steps = [fig5(), step(&v1, &members), step(&members, &members)];
    let chain: Vec<&EcodeProgram> = steps.iter().collect();
    let fused = FusedProgram::compose(&chain).unwrap();
    let fused_rows: Vec<(u8, u8, usize)> = fused
        .rcode()
        .insns
        .iter()
        .filter_map(|i| match i {
            RInsn::CopyPath(row) if row.entries.len() > 1 => {
                Some((row.entries[1].src_root, row.dst_root, row.entries.len()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(fused_rows, [(0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 2, 2), (2, 3, 2)]);

    let mut roots = vec![v2_value(9)];
    roots.extend(steps.iter().map(|p| Value::default_record(&p.bindings()[1].format)));
    let mut by_register = roots;
    fused.run_register(&mut by_register).unwrap();

    let mut staged = v2_value(9);
    for p in &steps {
        let to = &p.bindings()[1].format;
        let (mut roots, ret) = both_engines(p, &[staged, Value::default_record(to)]);
        assert_eq!(ret, Ok(None));
        staged = roots.pop().unwrap();
        pbio::sync_length_fields(&mut staged, to);
    }
    assert_eq!(by_register.last(), Some(&staged));
    assert_eq!(staged.as_record().unwrap()[1].as_array().unwrap().len(), 9);
}
