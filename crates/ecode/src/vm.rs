//! The Ecode virtual machine: a stack interpreter over compiled bytecode.
//!
//! Values are [`pbio::Value`] trees; access paths into the bound root
//! records are resolved through pre-compiled field indices, so execution
//! never consults format meta-data except to materialize default elements
//! when a write extends an array (the `old.src_list[src_count] = ...`
//! pattern of the paper's Fig. 5, where the output list grows as the
//! transformation discovers sources).

use pbio::{FieldType, RecordFormat, Value};

use crate::bytecode::{CSeg, Code, Insn};
use crate::error::{EcodeError, Result};
use crate::tast::{ArithOp, Binding, Builtin, CmpOp};

/// Maximum user-function call depth (independent of fuel).
const MAX_CALL_DEPTH: usize = 64;

struct Frame {
    ret_pc: usize,
    prev_base: usize,
}

pub(crate) fn rt_err(msg: impl Into<String>) -> EcodeError {
    EcodeError::runtime(msg)
}

fn pop_int(stack: &mut Vec<Value>) -> Result<i64> {
    match stack.pop() {
        Some(Value::Int(v)) => Ok(v),
        Some(other) => Err(rt_err(format!("expected int on stack, found {}", other.kind_name()))),
        None => Err(rt_err("value stack underflow")),
    }
}

fn pop_float(stack: &mut Vec<Value>) -> Result<f64> {
    match stack.pop() {
        Some(Value::Float(v)) => Ok(v),
        Some(other) => {
            Err(rt_err(format!("expected double on stack, found {}", other.kind_name())))
        }
        None => Err(rt_err("value stack underflow")),
    }
}

fn pop_str(stack: &mut Vec<Value>) -> Result<String> {
    match stack.pop() {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => {
            Err(rt_err(format!("expected string on stack, found {}", other.kind_name())))
        }
        None => Err(rt_err("value stack underflow")),
    }
}

fn pop_char(stack: &mut Vec<Value>) -> Result<u8> {
    match stack.pop() {
        Some(Value::Char(c)) => Ok(c),
        Some(other) => Err(rt_err(format!("expected char on stack, found {}", other.kind_name()))),
        None => Err(rt_err("value stack underflow")),
    }
}

pub(crate) fn icmp(op: CmpOp, a: i64, b: i64) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn fcmp(op: CmpOp, a: f64, b: f64) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn scmp(op: CmpOp, a: &str, b: &str) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

pub(crate) fn iarith(op: ArithOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ArithOp::Add => Ok(a.wrapping_add(b)),
        ArithOp::Sub => Ok(a.wrapping_sub(b)),
        ArithOp::Mul => Ok(a.wrapping_mul(b)),
        ArithOp::Div => {
            if b == 0 {
                Err(rt_err("integer division by zero"))
            } else {
                Ok(a.wrapping_div(b))
            }
        }
        ArithOp::Mod => {
            if b == 0 {
                Err(rt_err("integer modulo by zero"))
            } else {
                Ok(a.wrapping_rem(b))
            }
        }
    }
}

pub(crate) fn farith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }
}

/// Pops the `k` pre-evaluated indices (in push order) into `scratch`.
fn gather_indices(stack: &mut Vec<Value>, k: usize, scratch: &mut Vec<usize>) -> Result<()> {
    scratch.clear();
    if k == 0 {
        return Ok(());
    }
    let to_usize = |v: Value| -> Result<usize> {
        match v {
            Value::Int(n) if n >= 0 => Ok(n as usize),
            Value::Int(n) => Err(rt_err(format!("negative array index {n}"))),
            other => {
                Err(rt_err(format!("array index is not an int (found {})", other.kind_name())))
            }
        }
    };
    if k == 1 {
        // The common single-subscript case avoids the drain machinery.
        let v = stack.pop().ok_or_else(|| rt_err("value stack underflow"))?;
        scratch.push(to_usize(v)?);
        return Ok(());
    }
    let start = stack.len().checked_sub(k).ok_or_else(|| rt_err("value stack underflow"))?;
    for v in stack.drain(start..) {
        scratch.push(to_usize(v)?);
    }
    Ok(())
}

/// Navigates a fused path for reading; returns a reference to the value.
pub(crate) fn nav<'v>(
    roots: &'v [Value],
    root: u8,
    segs: &[CSeg],
    idx: &[usize],
) -> Result<&'v Value> {
    let from = roots.get(root as usize).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    nav_from(from, segs, idx)
}

/// [`nav`] below an already resolved root record.
pub(crate) fn nav_from<'v>(mut cur: &'v Value, segs: &[CSeg], idx: &[usize]) -> Result<&'v Value> {
    let mut it = idx.iter();
    for seg in segs {
        match seg {
            CSeg::Field(i) => {
                cur = cur
                    .as_record()
                    .and_then(|fs| fs.get(*i as usize))
                    .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
            }
            CSeg::Index => {
                let n = *it.next().expect("one stack index per CSeg::Index");
                let arr = cur
                    .as_array()
                    .ok_or_else(|| rt_err("path index applied to a non-array value"))?;
                cur = arr.get(n).ok_or_else(|| {
                    rt_err(format!("array index {n} out of bounds (len {})", arr.len()))
                })?;
            }
        }
    }
    Ok(cur)
}

/// The declared type at the current position of a writing navigation.
#[derive(Clone, Copy)]
pub(crate) enum TyRef<'f> {
    Rec(&'f RecordFormat),
    Ty(&'f FieldType),
}

/// The array a writing navigation is about to subscript, with its declared
/// element type (what out-of-bounds writes extend it with).
pub(crate) fn array_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
) -> Result<(&'v mut Vec<Value>, &'f FieldType)> {
    let elem_ty = match ty {
        TyRef::Ty(FieldType::Array { elem, .. }) => elem.as_ref(),
        _ => return Err(rt_err("path index applied to a non-array field")),
    };
    let arr =
        cur.as_array_mut().ok_or_else(|| rt_err("path index applied to a non-array value"))?;
    Ok((arr, elem_ty))
}

/// Element `n` of `arr`, first extending the array with default elements
/// when `n` is at or past its end.
pub(crate) fn elem_mut<'v>(
    arr: &'v mut Vec<Value>,
    elem_ty: &FieldType,
    n: usize,
) -> &'v mut Value {
    if n >= arr.len() {
        arr.resize_with(n + 1, || Value::default_for(elem_ty));
    }
    &mut arr[n]
}

/// Record field `i` below a writing navigation.
pub(crate) fn field_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
    i: u32,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    let i = i as usize;
    let field_ty = match ty {
        TyRef::Rec(r) => r.fields().get(i),
        TyRef::Ty(FieldType::Record(r)) => r.fields().get(i),
        _ => None,
    }
    .ok_or_else(|| rt_err("path field does not match the bound format"))?
    .ty();
    let cur = cur
        .as_record_mut()
        .and_then(|fs| fs.get_mut(i))
        .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
    Ok((cur, TyRef::Ty(field_ty)))
}

/// One segment of a writing navigation; `idx` supplies the subscript of a
/// [`CSeg::Index`].
pub(crate) fn descend_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
    seg: CSeg,
    idx: &mut std::slice::Iter<'_, usize>,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    match seg {
        CSeg::Field(i) => field_mut(cur, ty, i),
        CSeg::Index => {
            let n = *idx.next().expect("one stack index per CSeg::Index");
            let (arr, elem_ty) = array_mut(cur, ty)?;
            Ok((elem_mut(arr, elem_ty, n), TyRef::Ty(elem_ty)))
        }
    }
}

/// [`descend_mut`] along every segment of `segs`.
pub(crate) fn walk_mut<'v, 'f>(
    mut cur: &'v mut Value,
    mut ty: TyRef<'f>,
    segs: &[CSeg],
    idx: &mut std::slice::Iter<'_, usize>,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    for seg in segs {
        (cur, ty) = descend_mut(cur, ty, *seg, idx)?;
    }
    Ok((cur, ty))
}

/// Navigates a fused path for writing, auto-extending arrays with
/// format-appropriate default elements, and stores `value` at the end.
pub(crate) fn write_path(
    roots: &mut [Value],
    bindings: &[Binding],
    root: u8,
    segs: &[CSeg],
    idx: &[usize],
    value: Value,
) -> Result<()> {
    let root_idx = root as usize;
    let binding = bindings.get(root_idx).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    let cur = roots.get_mut(root_idx).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    *walk_mut(cur, TyRef::Rec(&binding.format), segs, &mut idx.iter())?.0 = value;
    Ok(())
}

/// Executes compiled bytecode against the root values.
///
/// `roots` must have the same length and shapes as the program's bindings;
/// writable roots are mutated in place.
///
/// # Errors
///
/// Returns [`EcodeError::Runtime`] on division by zero, out-of-bounds reads,
/// shape mismatches between the roots and the bound formats, or fuel
/// exhaustion.
pub fn run(code: &Code, bindings: &[Binding], roots: &mut [Value]) -> Result<Option<Value>> {
    run_with_fuel(code, bindings, roots, u64::MAX)
}

/// [`run`] with an instruction budget — use in tests and anywhere untrusted
/// transformation code executes.
///
/// # Errors
///
/// As [`run`], plus fuel exhaustion.
pub fn run_with_fuel(
    code: &Code,
    bindings: &[Binding],
    roots: &mut [Value],
    mut fuel: u64,
) -> Result<Option<Value>> {
    if roots.len() != code.n_roots {
        return Err(rt_err(format!(
            "program expects {} root record(s), got {}",
            code.n_roots,
            roots.len()
        )));
    }
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    let mut locals: Vec<Value> = vec![Value::Int(0); code.n_locals];
    let mut frames: Vec<Frame> = Vec::new();
    let mut base: usize = 0;
    let mut idx_scratch: Vec<usize> = Vec::with_capacity(4);
    let mut pc: usize = 0;

    loop {
        if fuel == 0 {
            return Err(rt_err("instruction budget exhausted"));
        }
        fuel -= 1;
        let insn = code
            .insns
            .get(pc)
            .ok_or_else(|| rt_err("program counter ran off the end of the code"))?;
        pc += 1;
        match insn {
            Insn::ConstI(v) => stack.push(Value::Int(*v)),
            Insn::ConstF(v) => stack.push(Value::Float(*v)),
            Insn::ConstC(c) => stack.push(Value::Char(*c)),
            Insn::ConstS(i) => stack.push(Value::Str(code.strings[*i as usize].clone())),
            Insn::LoadLocal(slot) => stack.push(locals[base + *slot as usize].clone()),
            Insn::StoreLocal(slot) => {
                locals[base + *slot as usize] =
                    stack.pop().ok_or_else(|| rt_err("value stack underflow"))?;
            }
            Insn::Load { root, n_idx, segs } => {
                gather_indices(&mut stack, *n_idx as usize, &mut idx_scratch)?;
                let v = nav(roots, *root, segs, &idx_scratch)?.clone();
                stack.push(v);
            }
            Insn::LenOf { root, n_idx, segs } => {
                gather_indices(&mut stack, *n_idx as usize, &mut idx_scratch)?;
                let n = nav(roots, *root, segs, &idx_scratch)?
                    .as_array()
                    .map(|a| a.len() as i64)
                    .ok_or_else(|| rt_err("len() target is not an array"))?;
                stack.push(Value::Int(n));
            }
            Insn::Store { root, n_idx, segs } => {
                gather_indices(&mut stack, *n_idx as usize, &mut idx_scratch)?;
                let v = stack.pop().ok_or_else(|| rt_err("value stack underflow"))?;
                write_path(roots, bindings, *root, segs, &idx_scratch, v)?;
            }
            Insn::IArith(op) => {
                let b = pop_int(&mut stack)?;
                let a = pop_int(&mut stack)?;
                stack.push(Value::Int(iarith(*op, a, b)?));
            }
            Insn::FArith(op) => {
                let b = pop_float(&mut stack)?;
                let a = pop_float(&mut stack)?;
                stack.push(Value::Float(farith(*op, a, b)));
            }
            Insn::NegI => {
                let a = pop_int(&mut stack)?;
                stack.push(Value::Int(a.wrapping_neg()));
            }
            Insn::NegF => {
                let a = pop_float(&mut stack)?;
                stack.push(Value::Float(-a));
            }
            Insn::ICmp(op) => {
                let b = pop_int(&mut stack)?;
                let a = pop_int(&mut stack)?;
                stack.push(Value::Int(icmp(*op, a, b)));
            }
            Insn::FCmp(op) => {
                let b = pop_float(&mut stack)?;
                let a = pop_float(&mut stack)?;
                stack.push(Value::Int(fcmp(*op, a, b)));
            }
            Insn::SCmp(op) => {
                let b = pop_str(&mut stack)?;
                let a = pop_str(&mut stack)?;
                stack.push(Value::Int(scmp(*op, &a, &b)));
            }
            Insn::Concat => {
                let b = pop_str(&mut stack)?;
                let mut a = pop_str(&mut stack)?;
                a.push_str(&b);
                stack.push(Value::Str(a));
            }
            Insn::Not => {
                let a = pop_int(&mut stack)?;
                stack.push(Value::Int(i64::from(a == 0)));
            }
            Insn::I2F => {
                let a = pop_int(&mut stack)?;
                stack.push(Value::Float(a as f64));
            }
            Insn::F2I => {
                let a = pop_float(&mut stack)?;
                stack.push(Value::Int(a as i64));
            }
            Insn::C2I => {
                let c = pop_char(&mut stack)?;
                stack.push(Value::Int(i64::from(c)));
            }
            Insn::I2C => {
                let a = pop_int(&mut stack)?;
                stack.push(Value::Char(a as u8));
            }
            Insn::FTest => {
                let a = pop_float(&mut stack)?;
                stack.push(Value::Int(i64::from(a != 0.0)));
            }
            Insn::Jmp(t) => pc = *t as usize,
            Insn::Jz(t) => {
                if pop_int(&mut stack)? == 0 {
                    pc = *t as usize;
                }
            }
            Insn::Jnz(t) => {
                if pop_int(&mut stack)? != 0 {
                    pc = *t as usize;
                }
            }
            Insn::Dup => {
                let v = stack.last().ok_or_else(|| rt_err("value stack underflow"))?.clone();
                stack.push(v);
            }
            Insn::Pop => {
                stack.pop().ok_or_else(|| rt_err("value stack underflow"))?;
            }
            Insn::Call(builtin, argc) => {
                call_builtin(*builtin, *argc, &mut stack)?;
            }
            Insn::CallFn(idx) => {
                if frames.len() >= MAX_CALL_DEPTH {
                    return Err(rt_err("call stack overflow"));
                }
                let f = code
                    .funcs
                    .get(*idx as usize)
                    .ok_or_else(|| rt_err(format!("no function #{idx}")))?;
                let n_params = f.n_params as usize;
                let arg_start = stack
                    .len()
                    .checked_sub(n_params)
                    .ok_or_else(|| rt_err("value stack underflow"))?;
                frames.push(Frame { ret_pc: pc, prev_base: base });
                base = locals.len();
                locals.extend(stack.drain(arg_start..));
                locals.resize(base + f.n_locals as usize, Value::Int(0));
                pc = f.entry as usize;
            }
            Insn::RetVal => {
                let v = stack.pop().ok_or_else(|| rt_err("value stack underflow"))?;
                match frames.pop() {
                    Some(frame) => {
                        locals.truncate(base);
                        base = frame.prev_base;
                        pc = frame.ret_pc;
                        stack.push(v);
                    }
                    None => return Ok(Some(v)),
                }
            }
            Insn::SyncRoot(r) => {
                let ri = *r as usize;
                let binding = bindings.get(ri).ok_or_else(|| rt_err(format!("no root #{r}")))?;
                let root = roots.get_mut(ri).ok_or_else(|| rt_err(format!("no root #{r}")))?;
                pbio::sync_length_fields(root, &binding.format);
            }
            Insn::RetVoid => match frames.pop() {
                Some(frame) => {
                    locals.truncate(base);
                    base = frame.prev_base;
                    pc = frame.ret_pc;
                    // Void calls still leave a placeholder for the Pop that
                    // follows every expression statement.
                    stack.push(Value::Int(0));
                }
                None => return Ok(None),
            },
        }
    }
}

/// C `atoi` semantics: optional whitespace, optional sign, leading digits;
/// anything unparsable is 0.
pub(crate) fn atoi(s: &str) -> i64 {
    let t = s.trim_start();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
    let v = digits.parse::<i64>().unwrap_or(0);
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

/// C `atof`-ish semantics via Rust's parser on the leading float prefix.
pub(crate) fn atof(s: &str) -> f64 {
    let t = s.trim_start();
    // Find the longest prefix that parses.
    let mut best = 0.0;
    let mut len = 0;
    for (i, _) in t.char_indices().map(|(i, c)| (i + c.len_utf8(), c)) {
        if let Ok(v) = t[..i].parse::<f64>() {
            best = v;
            len = i;
        }
    }
    if len == 0 {
        0.0
    } else {
        best
    }
}

pub(crate) fn call_builtin(b: Builtin, argc: u8, stack: &mut Vec<Value>) -> Result<()> {
    match (b, argc) {
        (Builtin::Strlen, 1) => {
            let s = pop_str(stack)?;
            stack.push(Value::Int(s.len() as i64));
        }
        (Builtin::Strcat, 2) => {
            let b = pop_str(stack)?;
            let mut a = pop_str(stack)?;
            a.push_str(&b);
            stack.push(Value::Str(a));
        }
        (Builtin::AbsI, 1) => {
            let a = pop_int(stack)?;
            stack.push(Value::Int(a.wrapping_abs()));
        }
        (Builtin::AbsF, 1) => {
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.abs()));
        }
        (Builtin::MinI, 2) => {
            let b = pop_int(stack)?;
            let a = pop_int(stack)?;
            stack.push(Value::Int(a.min(b)));
        }
        (Builtin::MaxI, 2) => {
            let b = pop_int(stack)?;
            let a = pop_int(stack)?;
            stack.push(Value::Int(a.max(b)));
        }
        (Builtin::MinF, 2) => {
            let b = pop_float(stack)?;
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.min(b)));
        }
        (Builtin::MaxF, 2) => {
            let b = pop_float(stack)?;
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.max(b)));
        }
        (Builtin::Sqrt, 1) => {
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.sqrt()));
        }
        (Builtin::Floor, 1) => {
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.floor()));
        }
        (Builtin::Ceil, 1) => {
            let a = pop_float(stack)?;
            stack.push(Value::Float(a.ceil()));
        }
        (Builtin::Atoi, 1) => {
            let s = pop_str(stack)?;
            stack.push(Value::Int(atoi(&s)));
        }
        (Builtin::Itoa, 1) => {
            let a = pop_int(stack)?;
            stack.push(Value::Str(a.to_string()));
        }
        (Builtin::Atof, 1) => {
            let s = pop_str(stack)?;
            stack.push(Value::Float(atof(&s)));
        }
        (Builtin::Ftoa, 1) => {
            let a = pop_float(stack)?;
            stack.push(Value::Str(a.to_string()));
        }
        (b, n) => return Err(rt_err(format!("builtin {b:?} called with {n} arguments"))),
    }
    Ok(())
}
