//! Reference tree-walking interpreter over the typed AST.
//!
//! It is the spec the register VM is tested against: both must agree on
//! every program, in roots and error strings. Its budget counts evaluation
//! steps rather than instructions, and, as the VM's does, pays for what a
//! run allocates — *k* units for a write that extends an array by *k*
//! elements, one per byte of a concatenation's result, one per byte of a
//! string a read, a constant or an assignment copies — before the
//! allocation is made, so a program that allocates without bound runs out
//! on both engines.

use pbio::{FieldType, RecordFormat, Value};

use crate::error::{EcodeError, Result};
use crate::rvm::text_bytes;
use crate::tast::*;

fn rt_err(msg: impl Into<String>) -> EcodeError {
    EcodeError::runtime(msg)
}

struct Interp<'p> {
    program: &'p TProgram,
    locals: Vec<Value>,
    fuel: u64,
}

/// One step of a path whose subscripts are evaluated.
enum PathStep {
    Field(usize),
    Index(usize),
}

impl<'p> Interp<'p> {
    fn burn(&mut self) -> Result<()> {
        self.charge(1)
    }

    /// Spends `units` of the budget, or fails without spending any.
    fn charge(&mut self, units: u64) -> Result<()> {
        self.fuel =
            self.fuel.checked_sub(units).ok_or_else(|| rt_err("instruction budget exhausted"))?;
        Ok(())
    }

    /// Pays for the string `op` builds from `a` and `b`, if it builds one.
    fn charge_concat(&mut self, op: TBinOp, a: &Value, b: &Value) -> Result<()> {
        match (op, a, b) {
            (TBinOp::Concat, Value::Str(a), Value::Str(b)) => {
                self.charge((a.len() + b.len()) as u64)
            }
            _ => Ok(()),
        }
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

    /// A clone of `v`, its string bytes paid first.
    fn paid_clone(&mut self, v: &Value) -> Result<Value> {
        self.charge(text_bytes(v))?;
        Ok(v.clone())
    }

    /// A clone of the value at a path, its subscripts evaluated.
    fn read(&mut self, roots: &mut [Value], root: usize, segs: &[TSeg]) -> Result<Value> {
        let steps = self.eval_segs(roots, segs)?;
        let mut cur: &Value = &roots[root];
        for s in &steps {
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
        self.paid_clone(cur)
    }

    fn write(
        &mut self,
        roots: &mut [Value],
        root: usize,
        segs: &[TSeg],
        value: Value,
    ) -> Result<()> {
        let steps = self.eval_segs(roots, segs)?;
        let program = self.program;
        let binding = &program.bindings[root];
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
                        self.charge((n + 1 - arr.len()) as u64)?;
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
            TPlace::Local(slot) => self.read_local(*slot),
            TPlace::Path { root, segs } => self.read(roots, *root, segs),
        }
    }

    fn read_local(&mut self, slot: usize) -> Result<Value> {
        self.charge(text_bytes(&self.locals[slot]))?;
        Ok(self.locals[slot].clone())
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
            TExprKind::ConstS(s) => {
                self.charge(s.len() as u64)?;
                Ok(Value::Str(s.clone()))
            }
            TExprKind::ReadLocal(slot) => self.read_local(*slot),
            TExprKind::ReadPath { root, segs } => self.read(roots, *root, segs),
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
                            self.charge_concat(*op, &cur, &rhs_v)?;
                            binop(*op, cur, rhs_v)?
                        }
                    }
                };
                let stored = self.paid_clone(&v)?;
                self.write_place(roots, place, stored)?;
                Ok(v)
            }
            TExprKind::Binary(op, l, r) => {
                let a = self.eval(roots, l)?;
                let b = self.eval(roots, r)?;
                self.charge_concat(*op, &a, &b)?;
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
        }
    }

    fn exec(&mut self, roots: &mut [Value], s: &TStmt) -> Result<()> {
        self.burn()?;
        match s {
            TStmt::Empty => {}
            TStmt::Init(slot, e) => {
                let v = self.eval(roots, e)?;
                self.locals[*slot] = v;
            }
            TStmt::Expr(e) => {
                self.eval(roots, e)?;
            }
            TStmt::If(c, t, f) => {
                let Value::Int(cv) = self.eval(roots, c)? else {
                    return Err(rt_err("if condition is not an int"));
                };
                if cv != 0 {
                    self.exec(roots, t)?;
                } else if let Some(f) = f {
                    self.exec(roots, f)?;
                }
            }
            TStmt::Loop { cond, body, step } => loop {
                if let Some(c) = cond {
                    let Value::Int(cv) = self.eval(roots, c)? else {
                        return Err(rt_err("loop condition is not an int"));
                    };
                    if cv == 0 {
                        break;
                    }
                }
                self.exec(roots, body)?;
                if let Some(step) = step {
                    self.eval(roots, step)?;
                }
            },
            TStmt::Block(stmts) => {
                for s in stmts {
                    self.exec(roots, s)?;
                }
            }
        }
        Ok(())
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

/// Interprets the typed AST directly. The register VM's semantics match
/// this function exactly; differential tests enforce the agreement.
///
/// # Errors
///
/// Returns [`EcodeError::Runtime`] in the same situations as the VM.
pub fn run(program: &TProgram, roots: &mut [Value]) -> Result<()> {
    run_with_fuel(program, roots, u64::MAX)
}

/// [`run`] with an instruction budget.
///
/// # Errors
///
/// As [`run`], plus fuel exhaustion.
pub fn run_with_fuel(program: &TProgram, roots: &mut [Value], fuel: u64) -> Result<()> {
    if roots.len() != program.bindings.len() {
        return Err(rt_err(format!(
            "program expects {} root record(s), got {}",
            program.bindings.len(),
            roots.len()
        )));
    }
    let mut it = Interp { program, locals: vec![Value::Int(0); program.n_locals], fuel };
    program.stmts.iter().try_for_each(|s| it.exec(roots, s))
}
