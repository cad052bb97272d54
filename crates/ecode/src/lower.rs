//! Lowers the typed AST to register bytecode.
//!
//! The lowering keeps the tree-walking interpreter's evaluation order exactly
//! (the interpreter is the semantic oracle), then goes further than a
//! mechanical translation:
//!
//! * **Local pinning + stack-discipline temporaries.** Locals occupy the low
//!   registers; expression temporaries are allocated upward and released per
//!   statement. A read of a local usually uses its register directly — a
//!   copy is inserted only when a later-evaluated sibling expression could
//!   write locals, so an operand keeps the value it had when it was evaluated.
//! * **Linear-scan compaction.** After lowering, virtual temporaries are
//!   remapped onto a minimal set of physical registers by a classic
//!   linear-scan over live intervals (extended across backward jumps so
//!   loop-carried values stay live).
//! * **Superinstructions.** Whole field copies (`dst.f = src.g`, with an
//!   optional scalar cast) become one [`RInsn::CopyPath`], and a run of
//!   adjacent copies into fields of the same destination record (Fig. 5's
//!   `old.src_list[k].info = …; old.src_list[k].ID = …;`) becomes one
//!   `CopyPath` *row* that navigates to that record once; the canonical
//!   per-element array-copy loop becomes one [`RInsn::BatchCopy`] when both
//!   element types are identical and fixed-stride on the wire
//!   ([`pbio::FieldType::wire_stride`] — metadata surfaced by the plan
//!   layer for exactly this purpose).

use std::sync::Arc;

use pbio::FieldType;

use crate::bytecode::{map_registers, CSeg, CopyEntry, CopyRow, RCode, RFnCode, RInsn, ScalarConv};
use crate::tast::{
    ArithOp, Binding, CastKind, CmpOp, TBinOp, TExpr, TExprKind, TPlace, TProgram, TSeg, TStmt, Ty,
};

// ---------------------------------------------------------------------------
// Expression predicates (conservative syntactic analyses)
// ---------------------------------------------------------------------------

/// Walks `e` and every sub-expression (including dynamic path indices),
/// returning true as soon as `f` matches a node.
fn any_node(e: &TExpr, f: &mut dyn FnMut(&TExprKind) -> bool) -> bool {
    fn segs_any(segs: &[TSeg], f: &mut dyn FnMut(&TExprKind) -> bool) -> bool {
        segs.iter().any(|s| match s {
            TSeg::Field(_) => false,
            TSeg::Index(e) => any_node(e, f),
        })
    }
    fn place_any(place: &TPlace, f: &mut dyn FnMut(&TExprKind) -> bool) -> bool {
        match place {
            TPlace::Local(_) => false,
            TPlace::Path { segs, .. } => segs_any(segs, f),
        }
    }
    if f(&e.kind) {
        return true;
    }
    match &e.kind {
        TExprKind::ConstI(_)
        | TExprKind::ConstF(_)
        | TExprKind::ConstC(_)
        | TExprKind::ConstS(_)
        | TExprKind::ReadLocal(_) => false,
        TExprKind::ReadPath { segs, .. } | TExprKind::LenOf { segs, .. } => segs_any(segs, f),
        TExprKind::Assign { place, rhs, .. } => place_any(place, f) || any_node(rhs, f),
        TExprKind::Binary(_, l, r) | TExprKind::LogicalAnd(l, r) | TExprKind::LogicalOr(l, r) => {
            any_node(l, f) || any_node(r, f)
        }
        TExprKind::NegI(x) | TExprKind::NegF(x) | TExprKind::Not(x) | TExprKind::Cast(_, x) => {
            any_node(x, f)
        }
        TExprKind::Ternary(c, t, e2) => any_node(c, f) || any_node(t, f) || any_node(e2, f),
        TExprKind::IncDec { place, .. } => place_any(place, f),
        TExprKind::Call(_, args) | TExprKind::CallUser(_, args) => {
            args.iter().any(|a| any_node(a, f))
        }
    }
}

/// True if evaluating `e` can write any local of the current frame. User
/// functions cannot touch the caller's locals, so `CallUser` itself does not
/// count (its argument expressions are still walked).
fn writes_locals(e: &TExpr) -> bool {
    any_node(e, &mut |k| {
        matches!(
            k,
            TExprKind::Assign { place: TPlace::Local(_), .. }
                | TExprKind::IncDec { place: TPlace::Local(_), .. }
        )
    })
}

/// True if `e` has no side effects at all (no assignments, no increments,
/// no user-function calls — builtins are pure).
fn is_pure(e: &TExpr) -> bool {
    !any_node(e, &mut |k| {
        matches!(k, TExprKind::Assign { .. } | TExprKind::IncDec { .. } | TExprKind::CallUser(..))
    })
}

/// True if `e` reads the local with this slot.
fn reads_local(e: &TExpr, slot: usize) -> bool {
    any_node(e, &mut |k| matches!(k, TExprKind::ReadLocal(s) if *s == slot))
}

/// True if `e` reads through the root binding with this index.
fn reads_root(e: &TExpr, root: usize) -> bool {
    any_node(e, &mut |k| {
        matches!(k,
            TExprKind::ReadPath { root: r, .. } | TExprKind::LenOf { root: r, .. } if *r == root)
    })
}

// ---------------------------------------------------------------------------
// Per-frame lowering
// ---------------------------------------------------------------------------

struct FnLower<'a> {
    insns: &'a mut Vec<RInsn>,
    strings: &'a mut Vec<String>,
    bindings: &'a [Binding],
    /// Locals (including parameters) are pinned to registers `0..n_locals`.
    n_locals: u32,
    /// Next free virtual temporary (stack discipline, reset per statement).
    next_temp: u32,
    break_patches: Vec<Vec<usize>>,
    continue_patches: Vec<Vec<usize>>,
}

impl FnLower<'_> {
    fn emit(&mut self, i: RInsn) -> usize {
        self.insns.push(i);
        self.insns.len() - 1
    }

    fn here(&self) -> u32 {
        self.insns.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.insns[at] {
            RInsn::Jmp(t) => *t = to,
            RInsn::Jz { target, .. } | RInsn::Jnz { target, .. } => *target = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn string_const(&mut self, s: &str) -> u32 {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return i as u32;
        }
        self.strings.push(s.to_string());
        (self.strings.len() - 1) as u32
    }

    fn alloc_temp(&mut self) -> u32 {
        let r = self.next_temp;
        self.next_temp += 1;
        r
    }

    fn is_temp(&self, r: u32) -> bool {
        r >= self.n_locals
    }

    /// Picks a destination register for a binary result, reusing an operand
    /// temporary when possible (execution computes before writing, so a
    /// destination may alias its operands).
    fn result_reg(&mut self, a: u32, b: u32) -> u32 {
        if self.is_temp(a) {
            a
        } else if self.is_temp(b) {
            b
        } else {
            self.alloc_temp()
        }
    }

    /// Lowers `e`, returning the register holding its value. The register
    /// may be a pinned local (for plain local reads and local-assignment
    /// results) — callers that evaluate something with local side effects
    /// *afterwards* must stabilize it via [`FnLower::operand`].
    fn expr(&mut self, e: &TExpr) -> u32 {
        match &e.kind {
            TExprKind::ConstI(v) => {
                let t = self.alloc_temp();
                self.emit(RInsn::ConstI { dst: t, v: *v });
                t
            }
            TExprKind::ConstF(v) => {
                let t = self.alloc_temp();
                self.emit(RInsn::ConstF { dst: t, v: *v });
                t
            }
            TExprKind::ConstC(c) => {
                let t = self.alloc_temp();
                self.emit(RInsn::ConstC { dst: t, v: *c });
                t
            }
            TExprKind::ConstS(s) => {
                let idx = self.string_const(s);
                let t = self.alloc_temp();
                self.emit(RInsn::ConstS { dst: t, s: idx });
                t
            }
            TExprKind::ReadLocal(slot) => *slot as u32,
            TExprKind::ReadPath { root, segs } => {
                let (segs, idx) = self.path(segs);
                let t = self.alloc_temp();
                self.emit(RInsn::Load { dst: t, root: *root as u8, segs, idx });
                t
            }
            TExprKind::LenOf { root, segs } => {
                let (segs, idx) = self.path(segs);
                let t = self.alloc_temp();
                self.emit(RInsn::LenOf { dst: t, root: *root as u8, segs, idx });
                t
            }
            TExprKind::Assign { place, op, rhs } => self
                .assign(place, op.as_ref(), rhs, true, &e.ty)
                .expect("want_value returns a register"),
            TExprKind::Binary(op, l, r) => {
                let a = self.operand(l, writes_locals(r));
                let b = self.expr(r);
                let dst = self.result_reg(a, b);
                self.emit(binop_insn(*op, dst, a, b));
                dst
            }
            TExprKind::LogicalAnd(l, r) => {
                // l ? (r != 0) : 0
                let t = self.alloc_temp();
                let a = self.expr(l);
                let jz = self.emit(RInsn::Jz { cond: a, target: 0 });
                let b = self.expr(r);
                let z = self.alloc_temp();
                self.emit(RInsn::ConstI { dst: z, v: 0 });
                self.emit(RInsn::ICmp { op: CmpOp::Ne, dst: t, a: b, b: z });
                let done = self.emit(RInsn::Jmp(0));
                let f = self.here();
                self.patch(jz, f);
                self.emit(RInsn::ConstI { dst: t, v: 0 });
                let end = self.here();
                self.patch(done, end);
                t
            }
            TExprKind::LogicalOr(l, r) => {
                let t = self.alloc_temp();
                let a = self.expr(l);
                let jnz = self.emit(RInsn::Jnz { cond: a, target: 0 });
                let b = self.expr(r);
                let z = self.alloc_temp();
                self.emit(RInsn::ConstI { dst: z, v: 0 });
                self.emit(RInsn::ICmp { op: CmpOp::Ne, dst: t, a: b, b: z });
                let done = self.emit(RInsn::Jmp(0));
                let tr = self.here();
                self.patch(jnz, tr);
                self.emit(RInsn::ConstI { dst: t, v: 1 });
                let end = self.here();
                self.patch(done, end);
                t
            }
            TExprKind::NegI(x) => {
                let s = self.expr(x);
                let dst = if self.is_temp(s) { s } else { self.alloc_temp() };
                self.emit(RInsn::NegI { dst, src: s });
                dst
            }
            TExprKind::NegF(x) => {
                let s = self.expr(x);
                let dst = if self.is_temp(s) { s } else { self.alloc_temp() };
                self.emit(RInsn::NegF { dst, src: s });
                dst
            }
            TExprKind::Not(x) => {
                let s = self.expr(x);
                let dst = if self.is_temp(s) { s } else { self.alloc_temp() };
                self.emit(RInsn::Not { dst, src: s });
                dst
            }
            TExprKind::Ternary(c, t, f) => {
                let res = self.alloc_temp();
                let cv = self.expr(c);
                let jz = self.emit(RInsn::Jz { cond: cv, target: 0 });
                let tv = self.expr(t);
                if tv != res {
                    self.emit(RInsn::Move { dst: res, src: tv });
                }
                let done = self.emit(RInsn::Jmp(0));
                let fpos = self.here();
                self.patch(jz, fpos);
                let fv = self.expr(f);
                if fv != res {
                    self.emit(RInsn::Move { dst: res, src: fv });
                }
                let end = self.here();
                self.patch(done, end);
                res
            }
            TExprKind::IncDec { place, inc, post } => {
                let is_char = e.ty == Ty::Char;
                let old = self.alloc_temp();
                self.load_place_into(place, old);
                if is_char {
                    self.emit(RInsn::C2I { dst: old, src: old });
                }
                let newv = self.alloc_temp();
                let imm = if *inc { 1 } else { -1 };
                self.emit(RInsn::AddImmI { dst: newv, src: old, imm });
                let stored = if is_char {
                    let c = self.alloc_temp();
                    self.emit(RInsn::I2C { dst: c, src: newv });
                    c
                } else {
                    newv
                };
                self.store_place_from(place, stored);
                if *post {
                    if is_char {
                        let c = self.alloc_temp();
                        self.emit(RInsn::I2C { dst: c, src: old });
                        c
                    } else {
                        old
                    }
                } else {
                    stored
                }
            }
            TExprKind::Cast(kind, inner) => {
                let s = self.expr(inner);
                let dst = if self.is_temp(s) { s } else { self.alloc_temp() };
                self.emit(match kind {
                    CastKind::IntToDouble => RInsn::I2F { dst, src: s },
                    CastKind::DoubleToInt => RInsn::F2I { dst, src: s },
                    CastKind::CharToInt => RInsn::C2I { dst, src: s },
                    CastKind::IntToChar => RInsn::I2C { dst, src: s },
                    CastKind::DoubleToBool => RInsn::FTest { dst, src: s },
                });
                dst
            }
            TExprKind::Call(builtin, args) => {
                let regs = self.arg_regs(args);
                let dst = self.alloc_temp();
                self.emit(RInsn::Call { f: *builtin, dst, args: regs });
                dst
            }
            TExprKind::CallUser(idx, args) => {
                let regs = self.arg_regs(args);
                let dst = self.alloc_temp();
                self.emit(RInsn::CallFn { f: *idx as u32, dst, args: regs });
                dst
            }
        }
    }

    /// Lowers an operand whose value must survive until the consuming
    /// instruction executes. If the result aliases a pinned local and
    /// something evaluated in between can write locals, the value is copied
    /// into a temporary (a copy at evaluation time, paid only when needed).
    fn operand(&mut self, e: &TExpr, later_writes_locals: bool) -> u32 {
        let r = self.expr(e);
        if later_writes_locals && !self.is_temp(r) {
            let t = self.alloc_temp();
            self.emit(RInsn::Move { dst: t, src: r });
            t
        } else {
            r
        }
    }

    /// Lowers call arguments left-to-right, stabilizing any local-aliasing
    /// argument that a later argument could clobber.
    fn arg_regs(&mut self, args: &[TExpr]) -> Arc<[u32]> {
        let mut regs = Vec::with_capacity(args.len());
        for (k, a) in args.iter().enumerate() {
            let later = args[k + 1..].iter().any(writes_locals);
            regs.push(self.operand(a, later));
        }
        regs.into()
    }

    /// Lowers a path's dynamic indices left-to-right into registers and
    /// returns the compiled segments plus the index registers.
    fn path(&mut self, segs: &[TSeg]) -> (Arc<[CSeg]>, Arc<[u32]>) {
        let idx_exprs: Vec<&TExpr> = segs
            .iter()
            .filter_map(|s| match s {
                TSeg::Index(e) => Some(e),
                TSeg::Field(_) => None,
            })
            .collect();
        let mut out = Vec::with_capacity(segs.len());
        let mut regs = Vec::with_capacity(idx_exprs.len());
        let mut k = 0;
        for seg in segs {
            match seg {
                TSeg::Field(i) => out.push(CSeg::Field(*i as u32)),
                TSeg::Index(e) => {
                    let later = idx_exprs[k + 1..].iter().any(|x| writes_locals(x));
                    regs.push(self.operand(e, later));
                    out.push(CSeg::Index);
                    k += 1;
                }
            }
        }
        (out.into(), regs.into())
    }

    fn load_place_into(&mut self, place: &TPlace, dst: u32) {
        match place {
            TPlace::Local(slot) => {
                self.emit(RInsn::Move { dst, src: *slot as u32 });
            }
            TPlace::Path { root, segs } => {
                let (segs, idx) = self.path(segs);
                self.emit(RInsn::Load { dst, root: *root as u8, segs, idx });
            }
        }
    }

    fn store_place_from(&mut self, place: &TPlace, src: u32) {
        match place {
            TPlace::Local(slot) => {
                if *slot as u32 != src {
                    self.emit(RInsn::Move { dst: *slot as u32, src });
                }
            }
            TPlace::Path { root, segs } => {
                let (segs, idx) = self.path(segs);
                self.emit(RInsn::Store { src, root: *root as u8, segs, idx });
            }
        }
    }

    /// Lowers `place op= rhs`, returning the register holding the stored
    /// value iff `want_value`. Evaluation order is the interpreter's:
    /// compound assignments read the place first, plain assignments
    /// evaluate the value before the destination's indices.
    fn assign(
        &mut self,
        place: &TPlace,
        op: Option<&TBinOp>,
        rhs: &TExpr,
        want_value: bool,
        place_ty: &Ty,
    ) -> Option<u32> {
        let char_arith = *place_ty == Ty::Char && matches!(op, Some(TBinOp::IArith(_)));
        let stored = if let Some(op) = op {
            let old = self.alloc_temp();
            self.load_place_into(place, old);
            if char_arith {
                self.emit(RInsn::C2I { dst: old, src: old });
            }
            let b = self.expr(rhs);
            self.emit(binop_insn(*op, old, old, b));
            if char_arith {
                self.emit(RInsn::I2C { dst: old, src: old });
            }
            old
        } else {
            let idx_writes = match place {
                TPlace::Local(_) => false,
                TPlace::Path { segs, .. } => segs.iter().any(|s| match s {
                    TSeg::Index(e) => writes_locals(e),
                    TSeg::Field(_) => false,
                }),
            };
            self.operand(rhs, idx_writes)
        };
        self.store_place_from(place, stored);
        want_value.then_some(stored)
    }

    /// Recognizes a plain whole-field copy statement `dst_path = src_path`
    /// (with an optional scalar cast) and emits a single-entry
    /// [`RInsn::CopyPath`]. Returns false when the shape or the reorder
    /// legality (destination indices must be pure) does not hold.
    fn try_copy_path(&mut self, e: &TExpr) -> bool {
        let Some(copy) = field_copy(e) else { return false };
        // The superinstruction performs the load after the destination's
        // indices are evaluated (a plain assignment evaluates its value
        // first), so the destination indices must be side-effect free.
        let dst_pure = copy.dst_segs.iter().all(|s| match s {
            TSeg::Index(e) => is_pure(e),
            TSeg::Field(_) => true,
        });
        if !dst_pure {
            return false;
        }
        let entry = self.copy_entry(&copy);
        let (dst_segs, dst_idx) = self.path(copy.dst_segs);
        let (_, prefix) = dst_segs.split_last().expect("a path place has a segment");
        self.emit(RInsn::CopyPath(CopyRow {
            dst_root: copy.dst_root as u8,
            dst_segs: prefix.into(),
            dst_idx,
            entries: [entry].into(),
            whole: false,
        }));
        true
    }

    /// Lowers a copy's source subscripts and packs it as a row entry.
    fn copy_entry(&mut self, copy: &FieldCopy<'_>) -> CopyEntry {
        let (src_segs, src_idx) = self.path(copy.src_segs);
        let dst_leaf = match copy.dst_segs.last().expect("a path place has a segment") {
            TSeg::Field(i) => CSeg::Field(*i as u32),
            TSeg::Index(_) => CSeg::Index,
        };
        CopyEntry { src_root: copy.src_root as u8, src_segs, src_idx, dst_leaf, conv: copy.conv }
    }

    /// Recognizes a run of two or more adjacent field copies into the same
    /// destination record at the head of `stmts` and emits them as one
    /// [`RInsn::CopyPath`] row. Returns how many statements the row took
    /// (0: no row starts here).
    ///
    /// The row evaluates every index before its first store and reads no
    /// register in between, so entries may only be folded when that is
    /// unobservable: every subscript in the run is a local or a constant
    /// (pure, cannot fail, cannot see a store), and no source reads the
    /// destination root.
    fn try_copy_row(&mut self, stmts: &[TStmt]) -> usize {
        let Some((first, prefix, _)) = stmts.first().and_then(row_copy) else { return 0 };
        let row: Vec<(FieldCopy<'_>, usize)> = stmts
            .iter()
            .map_while(row_copy)
            .take_while(|(c, p, _)| c.dst_root == first.dst_root && *p == prefix)
            .map(|(c, _, leaf)| (c, leaf))
            .collect();
        if row.len() < 2 {
            return 0;
        }
        let mark = self.next_temp;
        let entries: Vec<CopyEntry> = row.iter().map(|(copy, _)| self.copy_entry(copy)).collect();
        let (dst_segs, dst_idx) = self.path(prefix);
        // Whole-element rows: the prefix selects an array element whose
        // record has exactly the row's leaves as fields, in order.
        let elem_fields = match place_ty(self.bindings.get(first.dst_root), prefix) {
            Some(FieldType::Record(r)) if matches!(prefix.last(), Some(TSeg::Index(_))) => {
                r.fields().len()
            }
            _ => 0,
        };
        let whole =
            row.len() == elem_fields && row.iter().map(|(_, leaf)| *leaf).eq(0..elem_fields);
        self.emit(RInsn::CopyPath(CopyRow {
            dst_root: first.dst_root as u8,
            dst_segs,
            dst_idx,
            entries: entries.into(),
            whole,
        }));
        self.next_temp = mark;
        row.len()
    }

    /// Lowers a statement list, folding runs of field copies into rows.
    fn stmts(&mut self, stmts: &[TStmt]) {
        let mut at = 0;
        while at < stmts.len() {
            match self.try_copy_row(&stmts[at..]) {
                0 => {
                    self.stmt(&stmts[at]);
                    at += 1;
                }
                taken => at += taken,
            }
        }
    }

    /// Recognizes the canonical array-copy loop
    /// `for (; i < limit; i++) dst.f[i] = src.g[i];` and emits one
    /// [`RInsn::BatchCopy`]. Legality: the limit is pure, reads neither `i`
    /// nor the destination root; both paths index with `i` as their only
    /// (final) dynamic segment; the roots differ; and both element types
    /// are identical and fixed-stride on the wire.
    fn try_batch_copy(&mut self, cond: Option<&TExpr>, body: &TStmt, step: Option<&TExpr>) -> bool {
        let Some(c) = cond else { return false };
        let TExprKind::Binary(TBinOp::ICmp(CmpOp::Lt), l, limit) = &c.kind else {
            return false;
        };
        let TExprKind::ReadLocal(i) = l.kind else { return false };
        if !is_pure(limit) || reads_local(limit, i) {
            return false;
        }
        let Some(step) = step else { return false };
        if !step_is_increment(step, i) {
            return false;
        }
        let Some(assign) = single_assign_stmt(body) else { return false };
        let TExprKind::Assign { place: TPlace::Path { root: d, segs: dsegs }, op: None, rhs } =
            &assign.kind
        else {
            return false;
        };
        let TExprKind::ReadPath { root: s, segs: ssegs } = &rhs.kind else {
            return false;
        };
        if s == d || reads_root(limit, *d) {
            return false;
        }
        let Some(d_fields) = static_array_path(dsegs, i) else { return false };
        let Some(s_fields) = static_array_path(ssegs, i) else { return false };
        let (Some(de), Some(se)) =
            (place_ty(self.bindings.get(*d), dsegs), place_ty(self.bindings.get(*s), ssegs))
        else {
            return false;
        };
        if de != se || de.wire_stride().is_none() {
            return false;
        }
        let mark = self.next_temp;
        let limit_reg = self.expr(limit);
        self.emit(RInsn::BatchCopy {
            counter: i as u32,
            limit: limit_reg,
            src_root: *s as u8,
            src_segs: s_fields.into(),
            dst_root: *d as u8,
            dst_segs: d_fields.into(),
        });
        self.next_temp = mark;
        true
    }

    /// Lowers an expression evaluated for effect only (statement position),
    /// using the single-instruction forms where possible.
    fn expr_stmt(&mut self, e: &TExpr) {
        let mark = self.next_temp;
        match &e.kind {
            TExprKind::Assign { place, op, rhs } => {
                if !(op.is_none() && self.try_copy_path(e)) {
                    self.assign(place, op.as_ref(), rhs, false, &e.ty);
                }
            }
            // `i++` in statement position: one superinstruction, no temps.
            TExprKind::IncDec { place: TPlace::Local(slot), inc, .. } if e.ty == Ty::Int => {
                let r = *slot as u32;
                self.emit(RInsn::AddImmI { dst: r, src: r, imm: if *inc { 1 } else { -1 } });
            }
            _ => {
                self.expr(e);
            }
        }
        self.next_temp = mark;
    }

    fn stmt(&mut self, s: &TStmt) {
        match s {
            TStmt::Empty => {}
            TStmt::Init(slot, e) => {
                let mark = self.next_temp;
                let v = self.expr(e);
                if v != *slot as u32 {
                    self.emit(RInsn::Move { dst: *slot as u32, src: v });
                }
                self.next_temp = mark;
            }
            TStmt::Expr(e) => self.expr_stmt(e),
            TStmt::If(c, t, f) => {
                let mark = self.next_temp;
                let cv = self.expr(c);
                let jz = self.emit(RInsn::Jz { cond: cv, target: 0 });
                self.next_temp = mark;
                self.stmt(t);
                match f {
                    Some(f) => {
                        let done = self.emit(RInsn::Jmp(0));
                        let fpos = self.here();
                        self.patch(jz, fpos);
                        self.stmt(f);
                        let end = self.here();
                        self.patch(done, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(jz, end);
                    }
                }
            }
            TStmt::Loop { cond, body, step } => {
                if self.try_batch_copy(cond.as_ref(), body, step.as_ref()) {
                    return;
                }
                self.break_patches.push(Vec::new());
                self.continue_patches.push(Vec::new());
                let top = self.here();
                let exit_jump = cond.as_ref().map(|c| {
                    let mark = self.next_temp;
                    let cv = self.expr(c);
                    let j = self.emit(RInsn::Jz { cond: cv, target: 0 });
                    self.next_temp = mark;
                    j
                });
                self.stmt(body);
                let step_pos = self.here();
                if let Some(step) = step {
                    self.expr_stmt(step);
                }
                self.emit(RInsn::Jmp(top));
                let end = self.here();
                if let Some(j) = exit_jump {
                    self.patch(j, end);
                }
                for j in self.break_patches.pop().expect("pushed above") {
                    self.patch(j, end);
                }
                for j in self.continue_patches.pop().expect("pushed above") {
                    self.patch(j, step_pos);
                }
            }
            TStmt::Block(stmts) => self.stmts(stmts),
            TStmt::Return(e) => {
                let mark = self.next_temp;
                match e {
                    Some(e) => {
                        let v = self.expr(e);
                        self.emit(RInsn::Ret { src: Some(v) });
                    }
                    None => {
                        self.emit(RInsn::Ret { src: None });
                    }
                }
                self.next_temp = mark;
            }
            TStmt::Break => {
                let j = self.emit(RInsn::Jmp(0));
                self.break_patches.last_mut().expect("checker validated loop depth").push(j);
            }
            TStmt::Continue => {
                let j = self.emit(RInsn::Jmp(0));
                self.continue_patches.last_mut().expect("checker validated loop depth").push(j);
            }
        }
    }
}

/// The statement shape `dst_path = src_path` / `dst_path = (cast) src_path`.
struct FieldCopy<'e> {
    dst_root: usize,
    dst_segs: &'e [TSeg],
    src_root: usize,
    src_segs: &'e [TSeg],
    conv: Option<ScalarConv>,
}

fn field_copy(e: &TExpr) -> Option<FieldCopy<'_>> {
    let TExprKind::Assign { place: TPlace::Path { root, segs }, op: None, rhs } = &e.kind else {
        return None;
    };
    let (src, conv) = match &rhs.kind {
        TExprKind::Cast(kind, inner) => {
            let conv = match kind {
                CastKind::IntToDouble => ScalarConv::I2F,
                CastKind::DoubleToInt => ScalarConv::F2I,
                CastKind::CharToInt => ScalarConv::C2I,
                CastKind::IntToChar => ScalarConv::I2C,
                CastKind::DoubleToBool => return None,
            };
            (&inner.kind, Some(conv))
        }
        other => (other, None),
    };
    let TExprKind::ReadPath { root: src_root, segs: src_segs } = src else { return None };
    Some(FieldCopy { dst_root: *root, dst_segs: segs, src_root: *src_root, src_segs, conv })
}

/// A field copy that may join a [`RInsn::CopyPath`] row, split into the
/// copy, its destination prefix and its leaf field. See
/// [`FnLower::try_copy_row`] for why subscripts must be plain.
fn row_copy(s: &TStmt) -> Option<(FieldCopy<'_>, &[TSeg], usize)> {
    let TStmt::Expr(e) = s else { return None };
    let copy = field_copy(e)?;
    let (leaf, prefix) = copy.dst_segs.split_last()?;
    let TSeg::Field(leaf) = leaf else { return None };
    let plain = copy.src_segs.iter().chain(prefix).all(|s| match s {
        TSeg::Index(e) => matches!(e.kind, TExprKind::ReadLocal(_) | TExprKind::ConstI(_)),
        TSeg::Field(_) => true,
    });
    (plain && !prefix.is_empty() && copy.src_root != copy.dst_root).then_some((copy, prefix, *leaf))
}

/// The declared type a path into `binding`'s record ends at.
fn place_ty<'f>(binding: Option<&'f Binding>, segs: &[TSeg]) -> Option<&'f FieldType> {
    let mut fields = binding?.format.fields();
    let mut ty: Option<&FieldType> = None;
    for seg in segs {
        ty = Some(match (seg, ty) {
            (TSeg::Field(i), _) => fields.get(*i)?.ty(),
            (TSeg::Index(_), Some(FieldType::Array { elem, .. })) => elem,
            (TSeg::Index(_), _) => return None,
        });
        if let Some(FieldType::Record(r)) = ty {
            fields = r.fields();
        }
    }
    ty
}

fn binop_insn(op: TBinOp, dst: u32, a: u32, b: u32) -> RInsn {
    match op {
        TBinOp::IArith(o) => RInsn::IArith { op: o, dst, a, b },
        TBinOp::FArith(o) => RInsn::FArith { op: o, dst, a, b },
        TBinOp::Concat => RInsn::Concat { dst, a, b },
        TBinOp::ICmp(o) => RInsn::ICmp { op: o, dst, a, b },
        TBinOp::FCmp(o) => RInsn::FCmp { op: o, dst, a, b },
        TBinOp::SCmp(o) => RInsn::SCmp { op: o, dst, a, b },
    }
}

/// `i++`, `++i`, or `i += 1` on exactly this local.
fn step_is_increment(step: &TExpr, slot: usize) -> bool {
    match &step.kind {
        TExprKind::IncDec { place: TPlace::Local(s), inc: true, .. } => *s == slot,
        TExprKind::Assign {
            place: TPlace::Local(s),
            op: Some(TBinOp::IArith(ArithOp::Add)),
            rhs,
        } => *s == slot && matches!(rhs.kind, TExprKind::ConstI(1)),
        _ => false,
    }
}

/// Unwraps nested single-statement blocks down to one `Expr` statement and
/// returns its expression.
fn single_assign_stmt(body: &TStmt) -> Option<&TExpr> {
    match body {
        TStmt::Expr(e) => Some(e),
        TStmt::Block(stmts) => {
            let mut inner = None;
            for s in stmts {
                match s {
                    TStmt::Empty => {}
                    other => {
                        if inner.is_some() {
                            return None;
                        }
                        inner = Some(other);
                    }
                }
            }
            single_assign_stmt(inner?)
        }
        _ => None,
    }
}

/// A path of the shape `field.field...[i]`: all static fields with exactly
/// one dynamic index — `ReadLocal(slot)` — as the final segment. Returns
/// the field-only prefix.
fn static_array_path(segs: &[TSeg], slot: usize) -> Option<Vec<CSeg>> {
    let (last, prefix) = segs.split_last()?;
    let TSeg::Index(e) = last else { return None };
    let TExprKind::ReadLocal(s) = e.kind else { return None };
    if s != slot {
        return None;
    }
    let mut out = Vec::with_capacity(prefix.len());
    for seg in prefix {
        match seg {
            TSeg::Field(i) => out.push(CSeg::Field(*i as u32)),
            TSeg::Index(_) => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Linear-scan register compaction
// ---------------------------------------------------------------------------

/// Remaps the virtual temporaries of the instruction region `[start, end)`
/// onto a minimal physical set via linear scan. Pinned registers
/// (`0..n_pinned` — the frame's locals) keep their identity; temporary live
/// intervals span `[first occurrence, last occurrence]`, extended to the
/// jump site of any backward jump they overlap so loop-carried values are
/// not clobbered across iterations. Returns the frame's register count.
fn compact(insns: &mut [RInsn], start: usize, end: usize, n_pinned: u32) -> u32 {
    use std::collections::HashMap;

    let mut occ: HashMap<u32, (usize, usize)> = HashMap::new();
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for (pos, insn) in insns.iter().enumerate().take(end).skip(start) {
        let seen = std::cell::RefCell::new(Vec::new());
        let _ = map_registers(insn, |r| {
            seen.borrow_mut().push(r);
            r
        });
        for r in seen.into_inner() {
            let e = occ.entry(r).or_insert((pos, pos));
            e.0 = e.0.min(pos);
            e.1 = e.1.max(pos);
        }
        let target = match insn {
            RInsn::Jmp(t) | RInsn::Jz { target: t, .. } | RInsn::Jnz { target: t, .. } => {
                Some(*t as usize)
            }
            _ => None,
        };
        if let Some(t) = target {
            if t <= pos {
                loops.push((t, pos));
            }
        }
    }

    let mut ivals: Vec<(u32, usize, usize)> =
        occ.into_iter().filter(|(r, _)| *r >= n_pinned).map(|(r, (s, e))| (r, s, e)).collect();
    // Extend intervals across backward jumps until fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for iv in &mut ivals {
            for &(t, j) in &loops {
                if iv.1 <= j && iv.2 >= t && iv.2 < j {
                    iv.2 = j;
                    changed = true;
                }
            }
        }
    }
    ivals.sort_by_key(|&(r, s, _)| (s, r));

    let mut map: HashMap<u32, u32> = HashMap::new();
    let mut active: Vec<(usize, u32)> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut next = n_pinned;
    for (r, s, e) in ivals {
        active.retain(|&(aend, phys)| {
            if aend < s {
                free.push(phys);
                false
            } else {
                true
            }
        });
        let phys = free.pop().unwrap_or_else(|| {
            let p = next;
            next += 1;
            p
        });
        active.push((e, phys));
        map.insert(r, phys);
    }

    for insn in insns.iter_mut().take(end).skip(start) {
        *insn = map_registers(insn, |r| if r < n_pinned { r } else { *map.get(&r).unwrap_or(&r) });
    }
    next
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Lowers a type-checked program to register bytecode: the main body first,
/// then each function, each frame compacted by linear scan.
pub(crate) fn lower(program: &TProgram) -> RCode {
    let mut insns: Vec<RInsn> = Vec::new();
    let mut strings: Vec<String> = Vec::new();

    {
        let mut fl = FnLower {
            insns: &mut insns,
            strings: &mut strings,
            bindings: &program.bindings,
            n_locals: program.n_locals as u32,
            next_temp: program.n_locals as u32,
            break_patches: Vec::new(),
            continue_patches: Vec::new(),
        };
        fl.stmts(&program.stmts);
        fl.emit(RInsn::Ret { src: None });
    }
    let main_end = insns.len();

    let mut regions: Vec<(usize, usize, usize, usize)> = Vec::new();
    for f in &program.funcs {
        let entry = insns.len();
        let mut fl = FnLower {
            insns: &mut insns,
            strings: &mut strings,
            bindings: &program.bindings,
            n_locals: f.n_locals as u32,
            next_temp: f.n_locals as u32,
            break_patches: Vec::new(),
            continue_patches: Vec::new(),
        };
        fl.stmts(&f.stmts);
        // Implicit return for falling off the end: zero of the return type
        // for non-void.
        match &f.ret {
            Ty::Void => {
                fl.emit(RInsn::Ret { src: None });
            }
            Ty::Double => {
                let t = fl.alloc_temp();
                fl.emit(RInsn::ConstF { dst: t, v: 0.0 });
                fl.emit(RInsn::Ret { src: Some(t) });
            }
            Ty::Char => {
                let t = fl.alloc_temp();
                fl.emit(RInsn::ConstC { dst: t, v: 0 });
                fl.emit(RInsn::Ret { src: Some(t) });
            }
            Ty::Str => {
                let idx = fl.string_const("");
                let t = fl.alloc_temp();
                fl.emit(RInsn::ConstS { dst: t, s: idx });
                fl.emit(RInsn::Ret { src: Some(t) });
            }
            _ => {
                let t = fl.alloc_temp();
                fl.emit(RInsn::ConstI { dst: t, v: 0 });
                fl.emit(RInsn::Ret { src: Some(t) });
            }
        }
        regions.push((entry, insns.len(), f.n_params, f.n_locals));
    }

    let n_regs = compact(&mut insns, 0, main_end, program.n_locals as u32) as usize;
    let mut funcs = Vec::with_capacity(regions.len());
    for (entry, end, n_params, n_locals) in regions {
        let n_regs_f = compact(&mut insns, entry, end, n_locals as u32);
        funcs.push(RFnCode { entry: entry as u32, n_params: n_params as u32, n_regs: n_regs_f });
    }

    RCode { insns, strings, n_regs, n_roots: program.bindings.len(), funcs }
}
