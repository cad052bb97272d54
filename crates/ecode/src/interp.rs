//! Reference tree-walking interpreter over the typed AST.
//!
//! Exists for two reasons: (1) differential testing against the bytecode VM
//! — both must agree on every program — and (2) the "no dynamic code
//! generation" arm of the `ablate_vm` benchmark, quantifying what compiling
//! transformations buys over interpreting them.

use pbio::{FieldType, RecordFormat, Value};

use crate::error::{EcodeError, Result};
use crate::tast::*;

fn rt_err(msg: impl Into<String>) -> EcodeError {
    EcodeError::runtime(msg)
}

/// Control-flow signal from statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

/// Maximum user-function call depth (matches the VM's limit).
const MAX_CALL_DEPTH: usize = 64;

struct Interp<'p> {
    program: &'p TProgram,
    locals: Vec<Value>,
    fuel: u64,
    depth: usize,
}

/// A resolved runtime path (indices evaluated).
struct EvalPath {
    root: usize,
    segs: Vec<PathStep>,
}

enum PathStep {
    Field(usize),
    Index(usize),
}

impl<'p> Interp<'p> {
    fn burn(&mut self) -> Result<()> {
        if self.fuel == 0 {
            return Err(rt_err("instruction budget exhausted"));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn eval_segs(&mut self, roots: &mut [Value], segs: &[TSeg]) -> Result<Vec<PathStep>> {
        let mut out = Vec::with_capacity(segs.len());
        for s in segs {
            match s {
                TSeg::Field(i) => out.push(PathStep::Field(*i)),
                TSeg::Index(e) => {
                    let n = self.eval(roots, e)?;
                    let Value::Int(n) = n else {
                        return Err(rt_err("array index is not an int"));
                    };
                    if n < 0 {
                        return Err(rt_err(format!("negative array index {n}")));
                    }
                    out.push(PathStep::Index(n as usize));
                }
            }
        }
        Ok(out)
    }

    fn read(&mut self, roots: &mut [Value], root: usize, segs: &[TSeg]) -> Result<Value> {
        let p = EvalPath { root, segs: self.eval_segs(roots, segs)? };
        let mut cur: &Value = &roots[p.root];
        for s in &p.segs {
            cur = match s {
                PathStep::Field(i) => cur
                    .as_record()
                    .and_then(|fs| fs.get(*i))
                    .ok_or_else(|| rt_err("bad field access"))?,
                PathStep::Index(n) => {
                    let arr = cur.as_array().ok_or_else(|| rt_err("index on non-array"))?;
                    arr.get(*n).ok_or_else(|| {
                        rt_err(format!("array index {n} out of bounds (len {})", arr.len()))
                    })?
                }
            };
        }
        Ok(cur.clone())
    }

    fn len_of(&mut self, roots: &mut [Value], root: usize, segs: &[TSeg]) -> Result<Value> {
        let v = self.read(roots, root, segs)?;
        v.as_array()
            .map(|a| Value::Int(a.len() as i64))
            .ok_or_else(|| rt_err("len() target is not an array"))
    }

    fn write(
        &mut self,
        roots: &mut [Value],
        root: usize,
        segs: &[TSeg],
        value: Value,
    ) -> Result<()> {
        let steps = self.eval_segs(roots, segs)?;
        let binding = &self.program.bindings[root];
        enum TyRef<'f> {
            Rec(&'f RecordFormat),
            Ty(&'f FieldType),
        }
        let mut ty = TyRef::Rec(&binding.format);
        let mut cur: &mut Value = &mut roots[root];
        for s in &steps {
            match s {
                PathStep::Field(i) => {
                    let fty = match ty {
                        TyRef::Rec(r) => r.fields().get(*i),
                        TyRef::Ty(FieldType::Record(r)) => r.fields().get(*i),
                        _ => None,
                    }
                    .ok_or_else(|| rt_err("bad field access"))?
                    .ty();
                    cur = cur
                        .as_record_mut()
                        .and_then(|fs| fs.get_mut(*i))
                        .ok_or_else(|| rt_err("bad field access"))?;
                    ty = TyRef::Ty(fty);
                }
                PathStep::Index(n) => {
                    let elem_ty = match ty {
                        TyRef::Ty(FieldType::Array { elem, .. }) => elem.as_ref(),
                        _ => return Err(rt_err("index on non-array field")),
                    };
                    let arr = cur.as_array_mut().ok_or_else(|| rt_err("index on non-array"))?;
                    if *n >= arr.len() {
                        arr.resize_with(n + 1, || Value::default_for(elem_ty));
                    }
                    cur = &mut arr[*n];
                    ty = TyRef::Ty(elem_ty);
                }
            }
        }
        *cur = value;
        Ok(())
    }

    fn read_place(&mut self, roots: &mut [Value], place: &TPlace) -> Result<Value> {
        match place {
            TPlace::Local(slot) => Ok(self.locals[*slot].clone()),
            TPlace::Path { root, segs } => self.read(roots, *root, segs),
        }
    }

    fn write_place(&mut self, roots: &mut [Value], place: &TPlace, value: Value) -> Result<()> {
        match place {
            TPlace::Local(slot) => {
                self.locals[*slot] = value;
                Ok(())
            }
            TPlace::Path { root, segs } => self.write(roots, *root, segs, value),
        }
    }

    fn eval(&mut self, roots: &mut [Value], e: &TExpr) -> Result<Value> {
        self.burn()?;
        match &e.kind {
            TExprKind::ConstI(v) => Ok(Value::Int(*v)),
            TExprKind::ConstF(v) => Ok(Value::Float(*v)),
            TExprKind::ConstC(c) => Ok(Value::Char(*c)),
            TExprKind::ConstS(s) => Ok(Value::Str(s.clone())),
            TExprKind::ReadLocal(slot) => Ok(self.locals[*slot].clone()),
            TExprKind::ReadPath { root, segs } => self.read(roots, *root, segs),
            TExprKind::LenOf { root, segs } => self.len_of(roots, *root, segs),
            TExprKind::Assign { place, op, rhs } => {
                // Compound assignment reads the place *before* evaluating
                // the right-hand side, matching the VM's evaluation order.
                let cur = match op {
                    Some(_) => Some(self.read_place(roots, place)?),
                    None => None,
                };
                let rhs_v = self.eval(roots, rhs)?;
                let v = match op {
                    None => rhs_v,
                    Some(op) => {
                        let cur = cur.expect("read above for compound ops");
                        // Char compound arithmetic promotes then narrows, as
                        // the compiler does.
                        if e.ty == Ty::Char {
                            let a = cur.as_i64().ok_or_else(|| rt_err("bad char place"))?;
                            let b = match rhs_v {
                                Value::Int(b) => b,
                                other => {
                                    return Err(rt_err(format!(
                                        "bad compound operand {}",
                                        other.kind_name()
                                    )))
                                }
                            };
                            let TBinOp::IArith(aop) = op else {
                                return Err(rt_err("bad char compound operator"));
                            };
                            Value::Char(int_arith(*aop, a, b)? as u8)
                        } else {
                            binop(*op, cur, rhs_v)?
                        }
                    }
                };
                self.write_place(roots, place, v.clone())?;
                Ok(v)
            }
            TExprKind::Binary(op, l, r) => {
                let a = self.eval(roots, l)?;
                let b = self.eval(roots, r)?;
                binop(*op, a, b)
            }
            TExprKind::LogicalAnd(l, r) => {
                let a = self.eval(roots, l)?;
                if a.as_i64() == Some(0) {
                    return Ok(Value::Int(0));
                }
                let b = self.eval(roots, r)?;
                Ok(Value::Int(i64::from(b.as_i64() != Some(0))))
            }
            TExprKind::LogicalOr(l, r) => {
                let a = self.eval(roots, l)?;
                if a.as_i64() != Some(0) {
                    return Ok(Value::Int(1));
                }
                let b = self.eval(roots, r)?;
                Ok(Value::Int(i64::from(b.as_i64() != Some(0))))
            }
            TExprKind::NegI(inner) => {
                let Value::Int(v) = self.eval(roots, inner)? else {
                    return Err(rt_err("negation of non-int"));
                };
                Ok(Value::Int(v.wrapping_neg()))
            }
            TExprKind::NegF(inner) => {
                let Value::Float(v) = self.eval(roots, inner)? else {
                    return Err(rt_err("negation of non-double"));
                };
                Ok(Value::Float(-v))
            }
            TExprKind::Not(inner) => {
                let Value::Int(v) = self.eval(roots, inner)? else {
                    return Err(rt_err("logical not of non-int"));
                };
                Ok(Value::Int(i64::from(v == 0)))
            }
            TExprKind::Ternary(c, t, f) => {
                let Value::Int(cv) = self.eval(roots, c)? else {
                    return Err(rt_err("ternary condition is not an int"));
                };
                if cv != 0 {
                    self.eval(roots, t)
                } else {
                    self.eval(roots, f)
                }
            }
            TExprKind::IncDec { place, inc, post } => {
                let cur = self.read_place(roots, place)?;
                let is_char = e.ty == Ty::Char;
                let old = cur.as_i64().ok_or_else(|| rt_err("++/-- on non-integer place"))?;
                let new = if *inc { old.wrapping_add(1) } else { old.wrapping_sub(1) };
                let stored = if is_char { Value::Char(new as u8) } else { Value::Int(new) };
                self.write_place(roots, place, stored)?;
                let result = if *post { old } else { new };
                Ok(if is_char { Value::Char(result as u8) } else { Value::Int(result) })
            }
            TExprKind::Cast(kind, inner) => {
                let v = self.eval(roots, inner)?;
                Ok(match (kind, v) {
                    (CastKind::IntToDouble, Value::Int(v)) => Value::Float(v as f64),
                    (CastKind::DoubleToInt, Value::Float(v)) => Value::Int(v as i64),
                    (CastKind::CharToInt, Value::Char(c)) => Value::Int(i64::from(c)),
                    (CastKind::IntToChar, Value::Int(v)) => Value::Char(v as u8),
                    (CastKind::DoubleToBool, Value::Float(v)) => Value::Int(i64::from(v != 0.0)),
                    (k, v) => return Err(rt_err(format!("bad cast {k:?} on {}", v.kind_name()))),
                })
            }
            TExprKind::Call(builtin, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(roots, a)?);
                }
                call_builtin(*builtin, vs)
            }
            TExprKind::CallUser(idx, args) => {
                if self.depth >= MAX_CALL_DEPTH {
                    return Err(rt_err("call stack overflow"));
                }
                let f = &self.program.funcs[*idx];
                let mut frame: Vec<Value> = Vec::with_capacity(f.n_locals);
                for a in args {
                    frame.push(self.eval(roots, a)?);
                }
                frame.resize(f.n_locals, Value::Int(0));
                let saved = std::mem::replace(&mut self.locals, frame);
                self.depth += 1;
                let mut result = None;
                for s in &f.stmts {
                    match self.exec(roots, s) {
                        Ok(Flow::Normal) => {}
                        Ok(Flow::Return(v)) => {
                            result = v;
                            break;
                        }
                        Ok(Flow::Break | Flow::Continue) => {
                            unreachable!("checker rejects stray break/continue")
                        }
                        Err(e) => {
                            self.locals = saved;
                            self.depth -= 1;
                            return Err(e);
                        }
                    }
                }
                self.locals = saved;
                self.depth -= 1;
                Ok(result.unwrap_or_else(|| crate::tast::zero_value(&f.ret)))
            }
        }
    }

    fn exec(&mut self, roots: &mut [Value], s: &TStmt) -> Result<Flow> {
        self.burn()?;
        match s {
            TStmt::Empty => Ok(Flow::Normal),
            TStmt::Init(slot, e) => {
                let v = self.eval(roots, e)?;
                self.locals[*slot] = v;
                Ok(Flow::Normal)
            }
            TStmt::Expr(e) => {
                self.eval(roots, e)?;
                Ok(Flow::Normal)
            }
            TStmt::If(c, t, f) => {
                let Value::Int(cv) = self.eval(roots, c)? else {
                    return Err(rt_err("if condition is not an int"));
                };
                if cv != 0 {
                    self.exec(roots, t)
                } else if let Some(f) = f {
                    self.exec(roots, f)
                } else {
                    Ok(Flow::Normal)
                }
            }
            TStmt::Loop { cond, body, step } => {
                loop {
                    if let Some(c) = cond {
                        let Value::Int(cv) = self.eval(roots, c)? else {
                            return Err(rt_err("loop condition is not an int"));
                        };
                        if cv == 0 {
                            break;
                        }
                    }
                    match self.exec(roots, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if let Some(step) = step {
                        self.eval(roots, step)?;
                    }
                }
                Ok(Flow::Normal)
            }
            TStmt::Block(stmts) => {
                for s in stmts {
                    match self.exec(roots, s)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            TStmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(roots, e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            TStmt::Break => Ok(Flow::Break),
            TStmt::Continue => Ok(Flow::Continue),
        }
    }
}

fn int_arith(op: ArithOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ArithOp::Add => Ok(a.wrapping_add(b)),
        ArithOp::Sub => Ok(a.wrapping_sub(b)),
        ArithOp::Mul => Ok(a.wrapping_mul(b)),
        ArithOp::Div if b == 0 => Err(rt_err("integer division by zero")),
        ArithOp::Div => Ok(a.wrapping_div(b)),
        ArithOp::Mod if b == 0 => Err(rt_err("integer modulo by zero")),
        ArithOp::Mod => Ok(a.wrapping_rem(b)),
    }
}

fn binop(op: TBinOp, a: Value, b: Value) -> Result<Value> {
    match (op, a, b) {
        (TBinOp::IArith(o), Value::Int(a), Value::Int(b)) => Ok(Value::Int(int_arith(o, a, b)?)),
        (TBinOp::FArith(o), Value::Float(a), Value::Float(b)) => Ok(Value::Float(match o {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        })),
        (TBinOp::Concat, Value::Str(mut a), Value::Str(b)) => {
            a.push_str(&b);
            Ok(Value::Str(a))
        }
        (TBinOp::ICmp(o), Value::Int(a), Value::Int(b)) => Ok(Value::Int(cmp(o, &a, &b))),
        (TBinOp::FCmp(o), Value::Float(a), Value::Float(b)) => Ok(Value::Int(fcmp_val(o, a, b))),
        (TBinOp::SCmp(o), Value::Str(a), Value::Str(b)) => Ok(Value::Int(cmp(o, &a, &b))),
        (op, a, b) => {
            Err(rt_err(format!("bad operands for {op:?}: {} and {}", a.kind_name(), b.kind_name())))
        }
    }
}

fn cmp<T: PartialOrd + PartialEq>(op: CmpOp, a: &T, b: &T) -> i64 {
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

fn fcmp_val(op: CmpOp, a: f64, b: f64) -> i64 {
    cmp(op, &a, &b)
}

fn call_builtin(b: Builtin, mut args: Vec<Value>) -> Result<Value> {
    let bad = || rt_err(format!("bad builtin arguments for {b:?}"));
    match b {
        Builtin::Strlen => match args.pop() {
            Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
            _ => Err(bad()),
        },
        Builtin::Strcat => match (args.remove(0), args.remove(0)) {
            (Value::Str(mut a), Value::Str(b)) => {
                a.push_str(&b);
                Ok(Value::Str(a))
            }
            _ => Err(bad()),
        },
        Builtin::AbsI => match args.pop() {
            Some(Value::Int(v)) => Ok(Value::Int(v.wrapping_abs())),
            _ => Err(bad()),
        },
        Builtin::AbsF => match args.pop() {
            Some(Value::Float(v)) => Ok(Value::Float(v.abs())),
            _ => Err(bad()),
        },
        Builtin::MinI | Builtin::MaxI => match (args.remove(0), args.remove(0)) {
            (Value::Int(a), Value::Int(x)) => {
                Ok(Value::Int(if b == Builtin::MinI { a.min(x) } else { a.max(x) }))
            }
            _ => Err(bad()),
        },
        Builtin::MinF | Builtin::MaxF => match (args.remove(0), args.remove(0)) {
            (Value::Float(a), Value::Float(x)) => {
                Ok(Value::Float(if b == Builtin::MinF { a.min(x) } else { a.max(x) }))
            }
            _ => Err(bad()),
        },
        Builtin::Sqrt => match args.pop() {
            Some(Value::Float(v)) => Ok(Value::Float(v.sqrt())),
            _ => Err(bad()),
        },
        Builtin::Floor => match args.pop() {
            Some(Value::Float(v)) => Ok(Value::Float(v.floor())),
            _ => Err(bad()),
        },
        Builtin::Ceil => match args.pop() {
            Some(Value::Float(v)) => Ok(Value::Float(v.ceil())),
            _ => Err(bad()),
        },
        Builtin::Atoi => match args.pop() {
            Some(Value::Str(s)) => Ok(Value::Int(crate::rvm::atoi(&s))),
            _ => Err(bad()),
        },
        Builtin::Itoa => match args.pop() {
            Some(Value::Int(v)) => Ok(Value::Str(v.to_string())),
            _ => Err(bad()),
        },
        Builtin::Atof => match args.pop() {
            Some(Value::Str(s)) => Ok(Value::Float(crate::rvm::atof(&s))),
            _ => Err(bad()),
        },
        Builtin::Ftoa => match args.pop() {
            Some(Value::Float(v)) => Ok(Value::Str(v.to_string())),
            _ => Err(bad()),
        },
    }
}

/// Interprets the typed AST directly. The register VM's semantics match
/// this function exactly; differential tests enforce the agreement.
///
/// # Errors
///
/// Returns [`EcodeError::Runtime`] in the same situations as the VM.
pub fn run(program: &TProgram, roots: &mut [Value]) -> Result<Option<Value>> {
    run_with_fuel(program, roots, u64::MAX)
}

/// [`run`] with an instruction budget.
///
/// # Errors
///
/// As [`run`], plus fuel exhaustion.
pub fn run_with_fuel(program: &TProgram, roots: &mut [Value], fuel: u64) -> Result<Option<Value>> {
    if roots.len() != program.bindings.len() {
        return Err(rt_err(format!(
            "program expects {} root record(s), got {}",
            program.bindings.len(),
            roots.len()
        )));
    }
    let mut it = Interp { program, locals: vec![Value::Int(0); program.n_locals], fuel, depth: 0 };
    for s in &program.stmts {
        match it.exec(roots, s)? {
            Flow::Normal => {}
            Flow::Return(v) => return Ok(v),
            Flow::Break | Flow::Continue => unreachable!("checker rejects stray break/continue"),
        }
    }
    Ok(None)
}
