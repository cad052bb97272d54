//! Type checking: resolves names against root-record formats, inserts
//! implicit numeric casts, and lowers the untyped AST to [`TProgram`].
//!
//! All field names are resolved to indices *here*, at compile time — part of
//! the specialization that makes a compiled transformation run without
//! touching meta-data.

use std::sync::Arc;

use pbio::{BasicType, FieldType};

use crate::ast::*;
use crate::error::{EcodeError, Pos, Result};
use crate::tast::*;

struct Scope {
    names: Vec<(String, usize, Ty)>,
}

struct Checker<'a> {
    bindings: &'a [Binding],
    scopes: Vec<Scope>,
    n_locals: usize,
}

fn ty_of_field_type(ft: &FieldType) -> Ty {
    match ft {
        FieldType::Basic(b) => match b {
            BasicType::Int(_) | BasicType::UInt(_) | BasicType::Enum { .. } => Ty::Int,
            BasicType::Float(_) => Ty::Double,
            BasicType::Char => Ty::Char,
            BasicType::String => Ty::Str,
        },
        FieldType::Record(r) => Ty::Record(Arc::clone(r)),
        FieldType::Array { elem, .. } => Ty::Array(Box::new(ty_of_field_type(elem))),
    }
}

fn decl_ty(d: DeclTy) -> Ty {
    match d {
        DeclTy::Int | DeclTy::Long => Ty::Int,
        DeclTy::Double => Ty::Double,
        DeclTy::Char => Ty::Char,
        DeclTy::String => Ty::Str,
    }
}

impl<'a> Checker<'a> {
    fn lookup_local(&self, name: &str) -> Option<(usize, Ty)> {
        for scope in self.scopes.iter().rev() {
            for (n, slot, ty) in scope.names.iter().rev() {
                if n == name {
                    return Some((*slot, ty.clone()));
                }
            }
        }
        None
    }

    fn lookup_root(&self, name: &str) -> Option<usize> {
        self.bindings.iter().position(|b| b.name == name)
    }

    fn declare(&mut self, name: &str, ty: Ty) -> usize {
        let slot = self.n_locals;
        self.n_locals += 1;
        self.scopes.last_mut().expect("scope stack never empty").names.push((
            name.to_string(),
            slot,
            ty,
        ));
        slot
    }

    /// Inserts a cast so `e` has type `want`, or errors.
    fn coerce(&self, e: TExpr, want: &Ty, pos: Pos) -> Result<TExpr> {
        if &e.ty == want {
            return Ok(e);
        }
        let cast = match (&e.ty, want) {
            (Ty::Int, Ty::Double) => CastKind::IntToDouble,
            (Ty::Char, Ty::Double) => {
                // char → int → double
                let as_int =
                    TExpr { ty: Ty::Int, kind: TExprKind::Cast(CastKind::CharToInt, Box::new(e)) };
                return Ok(TExpr {
                    ty: Ty::Double,
                    kind: TExprKind::Cast(CastKind::IntToDouble, Box::new(as_int)),
                });
            }
            (Ty::Double, Ty::Int) => CastKind::DoubleToInt,
            (Ty::Char, Ty::Int) => CastKind::CharToInt,
            (Ty::Int, Ty::Char) => CastKind::IntToChar,
            (from, to) => {
                return Err(EcodeError::ty(pos, format!("cannot convert {from} to {to}")))
            }
        };
        Ok(TExpr { ty: want.clone(), kind: TExprKind::Cast(cast, Box::new(e)) })
    }

    /// Makes `e` usable as a condition (int 0/1-ish).
    fn as_cond(&self, e: TExpr, pos: Pos) -> Result<TExpr> {
        match e.ty {
            Ty::Int => Ok(e),
            Ty::Char => self.coerce(e, &Ty::Int, pos),
            Ty::Double => Ok(TExpr {
                ty: Ty::Int,
                kind: TExprKind::Cast(CastKind::DoubleToBool, Box::new(e)),
            }),
            ref other => {
                Err(EcodeError::ty(pos, format!("condition must be numeric, found {other}")))
            }
        }
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<TExpr> {
        let pos = e.pos;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(TExpr { ty: Ty::Int, kind: TExprKind::ConstI(*v) }),
            ExprKind::FloatLit(v) => Ok(TExpr { ty: Ty::Double, kind: TExprKind::ConstF(*v) }),
            ExprKind::StrLit(s) => Ok(TExpr { ty: Ty::Str, kind: TExprKind::ConstS(s.clone()) }),
            ExprKind::CharLit(c) => Ok(TExpr { ty: Ty::Char, kind: TExprKind::ConstC(*c) }),
            ExprKind::Ident(_) | ExprKind::Member(..) | ExprKind::Index(..) => {
                self.read_of_place_like(e)
            }
            ExprKind::Assign(op, lhs, rhs) => self.assignment(pos, *op, lhs, rhs),
            ExprKind::Binary(op, l, r) => self.binary(pos, *op, l, r),
            ExprKind::Unary(UnOp::Neg, inner) => {
                let te = self.expr(inner)?;
                match te.ty {
                    Ty::Int => Ok(TExpr { ty: Ty::Int, kind: TExprKind::NegI(Box::new(te)) }),
                    Ty::Char => {
                        let te = self.coerce(te, &Ty::Int, pos)?;
                        Ok(TExpr { ty: Ty::Int, kind: TExprKind::NegI(Box::new(te)) })
                    }
                    Ty::Double => Ok(TExpr { ty: Ty::Double, kind: TExprKind::NegF(Box::new(te)) }),
                    ref other => {
                        Err(EcodeError::ty(pos, format!("cannot negate a value of type {other}")))
                    }
                }
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let te = self.expr(inner)?;
                let te = self.as_cond(te, pos)?;
                Ok(TExpr { ty: Ty::Int, kind: TExprKind::Not(Box::new(te)) })
            }
            ExprKind::PostIncDec(target, inc) => self.incdec(pos, target, *inc, true),
            ExprKind::PreIncDec(target, inc) => self.incdec(pos, target, *inc, false),
        }
    }

    /// Resolves an ident/member/index chain into either a local read or a
    /// root path read.
    fn read_of_place_like(&mut self, e: &Expr) -> Result<TExpr> {
        match self.resolve_place(e)? {
            (TPlace::Local(slot), ty) => Ok(TExpr { ty, kind: TExprKind::ReadLocal(slot) }),
            (TPlace::Path { root, segs }, ty) => {
                Ok(TExpr { ty, kind: TExprKind::ReadPath { root, segs } })
            }
        }
    }

    /// Resolves an expression that denotes a location. Returns the place and
    /// its type.
    fn resolve_place(&mut self, e: &Expr) -> Result<(TPlace, Ty)> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    return Ok((TPlace::Local(slot), ty));
                }
                if let Some(root) = self.lookup_root(name) {
                    let ty = Ty::Record(Arc::clone(&self.bindings[root].format));
                    return Ok((TPlace::Path { root, segs: Vec::new() }, ty));
                }
                Err(EcodeError::ty(e.pos, format!("unknown identifier `{name}`")))
            }
            ExprKind::Member(base, field) => {
                let (place, base_ty) = self.resolve_place(base)?;
                let Ty::Record(fmt) = &base_ty else {
                    return Err(EcodeError::ty(
                        e.pos,
                        format!("`.{field}` applied to non-record type {base_ty}"),
                    ));
                };
                let idx = fmt.field_index(field).ok_or_else(|| {
                    EcodeError::ty(e.pos, format!("record `{}` has no field `{field}`", fmt.name()))
                })?;
                let fty = ty_of_field_type(fmt.fields()[idx].ty());
                match place {
                    TPlace::Path { root, mut segs } => {
                        segs.push(TSeg::Field(idx));
                        Ok((TPlace::Path { root, segs }, fty))
                    }
                    TPlace::Local(_) => Err(EcodeError::ty(
                        e.pos,
                        "record-typed locals are not supported; access fields through a bound \
                         root record",
                    )),
                }
            }
            ExprKind::Index(base, idx_expr) => {
                let (place, base_ty) = self.resolve_place(base)?;
                let Ty::Array(elem) = base_ty else {
                    return Err(EcodeError::ty(
                        e.pos,
                        format!("`[...]` applied to non-array type {base_ty}"),
                    ));
                };
                let ti = self.expr(idx_expr)?;
                let ti = self.coerce(ti, &Ty::Int, idx_expr.pos)?;
                match place {
                    TPlace::Path { root, mut segs } => {
                        segs.push(TSeg::Index(ti));
                        Ok((TPlace::Path { root, segs }, *elem))
                    }
                    TPlace::Local(_) => Err(EcodeError::ty(
                        e.pos,
                        "array-typed locals are not supported; index through a bound root record",
                    )),
                }
            }
            _ => Err(EcodeError::ty(e.pos, "expression is not assignable")),
        }
    }

    fn check_writable(&self, place: &TPlace, pos: Pos) -> Result<()> {
        if let TPlace::Path { root, .. } = place {
            let b = &self.bindings[*root];
            if !b.writable {
                return Err(EcodeError::ty(
                    pos,
                    format!("root record `{}` is bound read-only", b.name),
                ));
            }
        }
        Ok(())
    }

    fn assignment(&mut self, pos: Pos, op: AssignOp, lhs: &Expr, rhs: &Expr) -> Result<TExpr> {
        let (place, lty) = self.resolve_place(lhs)?;
        self.check_writable(&place, pos)?;
        let trhs = self.expr(rhs)?;
        let bin = match op {
            AssignOp::Set => None,
            AssignOp::Add if lty == Ty::Str => Some(TBinOp::Concat),
            AssignOp::Add => Some(self.arith_op_for(&lty, ArithOp::Add, pos)?),
            AssignOp::Sub => Some(self.arith_op_for(&lty, ArithOp::Sub, pos)?),
            AssignOp::Mul => Some(self.arith_op_for(&lty, ArithOp::Mul, pos)?),
            AssignOp::Div => Some(self.arith_op_for(&lty, ArithOp::Div, pos)?),
            AssignOp::Mod => Some(self.arith_op_for(&lty, ArithOp::Mod, pos)?),
        };
        let trhs = match &bin {
            Some(TBinOp::Concat) => self.coerce(trhs, &Ty::Str, pos)?,
            Some(TBinOp::IArith(_)) => self.coerce(trhs, &Ty::Int, pos)?,
            Some(TBinOp::FArith(_)) => self.coerce(trhs, &Ty::Double, pos)?,
            _ => self.coerce_assignable(trhs, &lty, pos)?,
        };
        Ok(TExpr { ty: lty, kind: TExprKind::Assign { place, op: bin, rhs: Box::new(trhs) } })
    }

    /// Coercion rules for plain assignment: numeric casts plus structural
    /// record/array compatibility.
    fn coerce_assignable(&self, e: TExpr, want: &Ty, pos: Pos) -> Result<TExpr> {
        match (&e.ty, want) {
            (Ty::Record(a), Ty::Record(b)) => {
                if a == b {
                    Ok(e)
                } else {
                    Err(EcodeError::ty(
                        pos,
                        format!(
                            "cannot assign record `{}` to record `{}` (structures differ)",
                            a.name(),
                            b.name()
                        ),
                    ))
                }
            }
            (Ty::Array(a), Ty::Array(b)) => {
                if a == b {
                    Ok(e)
                } else {
                    Err(EcodeError::ty(pos, "array element types differ"))
                }
            }
            _ => self.coerce(e, want, pos),
        }
    }

    fn arith_op_for(&self, ty: &Ty, op: ArithOp, pos: Pos) -> Result<TBinOp> {
        match ty {
            Ty::Int | Ty::Char => Ok(TBinOp::IArith(op)),
            Ty::Double if op == ArithOp::Mod => {
                Err(EcodeError::ty(pos, "`%` is not defined on double"))
            }
            Ty::Double => Ok(TBinOp::FArith(op)),
            other => Err(EcodeError::ty(pos, format!("arithmetic on non-numeric type {other}"))),
        }
    }

    fn binary(&mut self, pos: Pos, op: BinOp, l: &Expr, r: &Expr) -> Result<TExpr> {
        if matches!(op, BinOp::And | BinOp::Or) {
            let tl = self.expr(l)?;
            let tl = self.as_cond(tl, pos)?;
            let tr = self.expr(r)?;
            let tr = self.as_cond(tr, pos)?;
            let kind = if op == BinOp::And {
                TExprKind::LogicalAnd(Box::new(tl), Box::new(tr))
            } else {
                TExprKind::LogicalOr(Box::new(tl), Box::new(tr))
            };
            return Ok(TExpr { ty: Ty::Int, kind });
        }

        let tl = self.expr(l)?;
        let tr = self.expr(r)?;

        // String operations.
        if tl.ty == Ty::Str || tr.ty == Ty::Str {
            if tl.ty != Ty::Str || tr.ty != Ty::Str {
                return Err(EcodeError::ty(
                    pos,
                    format!(
                        "cannot combine {} and {} (strings only pair with strings)",
                        tl.ty, tr.ty
                    ),
                ));
            }
            return match op {
                BinOp::Add => Ok(TExpr {
                    ty: Ty::Str,
                    kind: TExprKind::Binary(TBinOp::Concat, Box::new(tl), Box::new(tr)),
                }),
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let c = cmp_of(op);
                    Ok(TExpr {
                        ty: Ty::Int,
                        kind: TExprKind::Binary(TBinOp::SCmp(c), Box::new(tl), Box::new(tr)),
                    })
                }
                _ => Err(EcodeError::ty(pos, "unsupported string operation")),
            };
        }

        if !tl.ty.is_numeric() || !tr.ty.is_numeric() {
            return Err(EcodeError::ty(
                pos,
                format!("operator needs numeric operands, found {} and {}", tl.ty, tr.ty),
            ));
        }
        let float = tl.ty == Ty::Double || tr.ty == Ty::Double;
        let want = if float { Ty::Double } else { Ty::Int };
        let tl = self.coerce(tl, &want, pos)?;
        let tr = self.coerce(tr, &want, pos)?;
        let (tbin, ty) = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let a = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    _ => ArithOp::Mod,
                };
                if float {
                    if a == ArithOp::Mod {
                        return Err(EcodeError::ty(pos, "`%` is not defined on double"));
                    }
                    (TBinOp::FArith(a), Ty::Double)
                } else {
                    (TBinOp::IArith(a), Ty::Int)
                }
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let c = cmp_of(op);
                (if float { TBinOp::FCmp(c) } else { TBinOp::ICmp(c) }, Ty::Int)
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        };
        Ok(TExpr { ty, kind: TExprKind::Binary(tbin, Box::new(tl), Box::new(tr)) })
    }

    fn incdec(&mut self, pos: Pos, target: &Expr, inc: bool, post: bool) -> Result<TExpr> {
        let (place, ty) = self.resolve_place(target)?;
        self.check_writable(&place, pos)?;
        if !matches!(ty, Ty::Int | Ty::Char) {
            return Err(EcodeError::ty(
                pos,
                format!("`++`/`--` needs an int or char place, found {ty}"),
            ));
        }
        Ok(TExpr { ty, kind: TExprKind::IncDec { place, inc, post } })
    }

    // -- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<TStmt> {
        match &s.kind {
            StmtKind::Empty => Ok(TStmt::Empty),
            StmtKind::Decl(dt, vars) => {
                let ty = decl_ty(*dt);
                let mut inits = Vec::new();
                for (name, init) in vars {
                    let te = match init {
                        Some(e) => {
                            let t = self.expr(e)?;
                            self.coerce(t, &ty, e.pos)?
                        }
                        None => zero_of(&ty),
                    };
                    let slot = self.declare(name, ty.clone());
                    inits.push(TStmt::Init(slot, te));
                }
                Ok(TStmt::Block(inits))
            }
            StmtKind::Expr(e) => Ok(TStmt::Expr(self.expr(e)?)),
            StmtKind::If(c, t, f) => {
                let tc = self.expr(c)?;
                let tc = self.as_cond(tc, c.pos)?;
                let tt = Box::new(self.stmt(t)?);
                let tf = match f {
                    Some(s) => Some(Box::new(self.stmt(s)?)),
                    None => None,
                };
                Ok(TStmt::If(tc, tt, tf))
            }
            StmtKind::For(init, cond, step, body) => {
                self.scopes.push(Scope { names: Vec::new() });
                let tinit = match init {
                    Some(s) => Some(self.stmt(s)?),
                    None => None,
                };
                let tcond = match cond {
                    Some(c) => {
                        let t = self.expr(c)?;
                        Some(self.as_cond(t, c.pos)?)
                    }
                    None => None,
                };
                let tstep = match step {
                    Some(e) => Some(self.expr(e)?),
                    None => None,
                };
                let tbody = self.stmt(body)?;
                self.scopes.pop();
                let mut out = Vec::new();
                if let Some(i) = tinit {
                    out.push(i);
                }
                out.push(TStmt::Loop { cond: tcond, body: Box::new(tbody), step: tstep });
                Ok(TStmt::Block(out))
            }
            StmtKind::Block(stmts) => {
                self.scopes.push(Scope { names: Vec::new() });
                let mut out = Vec::with_capacity(stmts.len());
                for s in stmts {
                    out.push(self.stmt(s)?);
                }
                self.scopes.pop();
                Ok(TStmt::Block(out))
            }
        }
    }
}

fn cmp_of(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => unreachable!("not a comparison"),
    }
}

fn zero_of(ty: &Ty) -> TExpr {
    match ty {
        Ty::Int => TExpr { ty: Ty::Int, kind: TExprKind::ConstI(0) },
        Ty::Double => TExpr { ty: Ty::Double, kind: TExprKind::ConstF(0.0) },
        Ty::Char => TExpr { ty: Ty::Char, kind: TExprKind::ConstC(0) },
        Ty::Str => TExpr { ty: Ty::Str, kind: TExprKind::ConstS(String::new()) },
        _ => unreachable!("locals are scalar"),
    }
}

/// Type-checks a parsed program against the given root bindings.
///
/// # Errors
///
/// Returns [`EcodeError::Type`] with the position of the first ill-typed
/// construct.
pub fn check(program: &[Stmt], bindings: Vec<Binding>) -> Result<TProgram> {
    let mut ck =
        Checker { bindings: &bindings, scopes: vec![Scope { names: Vec::new() }], n_locals: 0 };
    let stmts = program.iter().map(|s| ck.stmt(s)).collect::<Result<Vec<_>>>()?;
    let n_locals = ck.n_locals;
    Ok(TProgram { bindings, n_locals, stmts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use pbio::FormatBuilder;

    fn two_roots() -> Vec<Binding> {
        let member = FormatBuilder::record("Member")
            .string("info")
            .int("ID")
            .int("is_source")
            .int("is_sink")
            .build_arc()
            .unwrap();
        let newf = FormatBuilder::record("New")
            .int("member_count")
            .var_array_of("member_list", member.clone(), "member_count")
            .build_arc()
            .unwrap();
        let memv1 = FormatBuilder::record("MemberV1").string("info").int("ID").build_arc().unwrap();
        let oldf = FormatBuilder::record("Old")
            .int("member_count")
            .var_array_of("member_list", memv1.clone(), "member_count")
            .int("src_count")
            .var_array_of("src_list", memv1.clone(), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", memv1, "sink_count")
            .build_arc()
            .unwrap();
        vec![
            Binding { name: "new".into(), format: newf, writable: false },
            Binding { name: "old".into(), format: oldf, writable: true },
        ]
    }

    fn check_src(src: &str) -> Result<TProgram> {
        check(&parse(src).unwrap(), two_roots())
    }

    #[test]
    fn fig5_typechecks() {
        let src = r#"
            int i;
            int sink_count = 0, src_count = 0;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                old.member_list[i].ID = new.member_list[i].ID;
                if (new.member_list[i].is_source) {
                    old.src_list[src_count].info = new.member_list[i].info;
                    src_count++;
                }
            }
            old.src_count = src_count;
        "#;
        let p = check_src(src).unwrap();
        assert_eq!(p.n_locals, 3);
    }

    #[test]
    fn unknown_field_rejected() {
        let err = check_src("old.bogus = 1;").unwrap_err();
        assert!(matches!(err, EcodeError::Type { .. }), "{err}");
    }

    #[test]
    fn unknown_ident_rejected() {
        assert!(check_src("x = 1;").is_err());
    }

    #[test]
    fn readonly_root_rejected() {
        let err = check_src("new.member_count = 1;").unwrap_err();
        let EcodeError::Type { msg, .. } = err else { panic!() };
        assert!(msg.contains("read-only"));
    }

    #[test]
    fn string_int_mix_rejected() {
        assert!(check_src("int x = 1; x = x + \"s\";").is_err());
        assert!(check_src("old.member_list[0].info = 1;").is_err());
    }

    #[test]
    fn numeric_promotions_inserted() {
        let p = check_src("double d = 1; int x = 2.5; d = d + x;").unwrap();
        // Presence is enough; exact shapes exercised by execution tests.
        assert_eq!(p.n_locals, 2);
    }

    #[test]
    fn record_assignment_requires_same_structure() {
        // member_list elements of old/new differ (extra flags) → rejected.
        assert!(check_src("old.member_list[0] = new.member_list[0];").is_err());
        // src_list and sink_list elements share a structure → accepted.
        assert!(check_src("old.src_list[0] = old.sink_list[0];").is_ok());
    }

    #[test]
    fn incdec_needs_int_place() {
        assert!(check_src("double d = 0; d++;").is_err());
        assert!(check_src("int i = 0; i++; ++i; i--; --i;").is_ok());
        assert!(check_src("(1 + 2)++;").is_err());
    }

    #[test]
    fn condition_must_be_numeric() {
        assert!(check_src("if (\"s\") {}").is_err());
        assert!(check_src("if (1.5) {}").is_ok());
    }

    #[test]
    fn block_scoping() {
        assert!(check_src("{ int x = 1; } x = 2;").is_err());
        assert!(check_src("int x = 1; { int x = 2; x = 3; } x = 4;").is_ok());
        assert!(check_src("for (int i = 0; i < 3; i++) {} i = 1;").is_err());
    }
}
