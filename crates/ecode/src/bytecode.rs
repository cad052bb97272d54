//! The register instruction set of the Ecode virtual machine.
//!
//! [`RInsn`]/[`RCode`] are three-address instructions over a flat file of
//! `Value` registers, produced by `lower.rs` from the typed AST. Access paths
//! into the bound root records are *fused* into single [`RInsn::Load`] /
//! [`RInsn::Store`] instructions whose field indices were resolved at compile
//! time; dynamic array subscripts are evaluated into index registers first,
//! then consumed by the access. This is the closest this reproduction gets
//! to the paper's native code generation, and it adds superinstructions
//! ([`RInsn::CopyPath`], [`RInsn::BatchCopy`]) that fold the hot sequences
//! of a morph into single dispatches — a `CopyPath` carries a whole *row* of
//! field copies into one destination record. The tree-walking interpreter
//! over the same typed AST is the semantic reference the register VM is
//! checked against.

use std::sync::Arc;

use crate::tast::{ArithOp, Builtin, CmpOp};

/// One compiled segment of a fused access path. Field indices are resolved
/// at compile time; `Index` consumes the next of the instruction's index
/// registers (one per `Index`, in path order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CSeg {
    /// Descend into the record field with this index.
    Field(u32),
    /// Descend into the array element whose subscript is in the next index
    /// register.
    Index,
}

/// A scalar conversion folded into a [`RInsn::CopyPath`] superinstruction
/// (the load→convert→store chain of a field copy with an implicit cast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarConv {
    /// int → float.
    I2F,
    /// float → int (truncating).
    F2I,
    /// char → int.
    C2I,
    /// int → char (wrapping).
    I2C,
}

/// One `destination leaf = conv(source path)` pair of a [`CopyRow`].
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEntry {
    /// Root binding index of the source path.
    pub src_root: u8,
    /// Compiled source path segments.
    pub src_segs: Arc<[CSeg]>,
    /// Registers holding the source path's dynamic indices.
    pub src_idx: Arc<[u32]>,
    /// Last segment of the destination path, below the row's shared
    /// prefix. A `CSeg::Index` leaf (single-entry rows only) takes the
    /// last of the row's `dst_idx` registers.
    pub dst_leaf: CSeg,
    /// Optional scalar conversion applied to the copied value.
    pub conv: Option<ScalarConv>,
}

/// The operands of [`RInsn::CopyPath`]:
/// `dst_root.dst_segs.leaf = conv(source path)` for each entry, in order.
///
/// Observable behaviour is that of the entries executed one after the
/// other as single copies: fuel is charged per entry, and when entry *j*
/// fails (its source read, or the budget) the destination keeps entries
/// `< j` — the element default-extended, exactly as *j* single copies would
/// have left it. In a row of two or more entries no source may read the
/// destination root (lowering folds only such runs).
#[derive(Debug, Clone, PartialEq)]
pub struct CopyRow {
    /// Root binding index of the destination record.
    pub dst_root: u8,
    /// Destination segments shared by every entry: the whole path but the
    /// leaf.
    pub dst_segs: Arc<[CSeg]>,
    /// Registers holding the destination path's dynamic indices.
    pub dst_idx: Arc<[u32]>,
    /// The copies, in statement order; never empty.
    pub entries: Arc<[CopyEntry]>,
    /// True when `dst_segs` ends in an array subscript and the entries'
    /// leaves are exactly the element record's fields, in order: a write
    /// one past the array's end then pushes the record built from the
    /// copied values instead of extending with a default element and
    /// overwriting it.
    pub whole: bool,
}

/// One register-machine instruction. Registers are indices into a per-frame
/// file of `Value` slots; locals occupy the low registers, expression
/// temporaries the rest (compacted by linear scan after lowering).
#[derive(Debug, Clone, PartialEq)]
pub enum RInsn {
    /// `dst = <int constant>`.
    ConstI {
        /// Destination register.
        dst: u32,
        /// Constant value.
        v: i64,
    },
    /// `dst = <float constant>`.
    ConstF {
        /// Destination register.
        dst: u32,
        /// Constant value.
        v: f64,
    },
    /// `dst = <char constant>`.
    ConstC {
        /// Destination register.
        dst: u32,
        /// Constant value.
        v: u8,
    },
    /// `dst = strings[s]`.
    ConstS {
        /// Destination register.
        dst: u32,
        /// String pool index.
        s: u32,
    },
    /// `dst = src` (clones the value).
    Move {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// Fused path read: `dst = root.segs` with dynamic indices taken from
    /// the `idx` registers (one per `CSeg::Index`, in path order).
    Load {
        /// Destination register.
        dst: u32,
        /// Root binding index.
        root: u8,
        /// Compiled path segments.
        segs: Arc<[CSeg]>,
        /// Registers holding the dynamic indices.
        idx: Arc<[u32]>,
    },
    /// Fused path write: `root.segs = src` (auto-extending arrays).
    Store {
        /// Source register.
        src: u32,
        /// Root binding index.
        root: u8,
        /// Compiled path segments.
        segs: Arc<[CSeg]>,
        /// Registers holding the dynamic indices.
        idx: Arc<[u32]>,
    },
    /// Fused array-length read: `dst = len(root.segs)`.
    LenOf {
        /// Destination register.
        dst: u32,
        /// Root binding index.
        root: u8,
        /// Compiled path segments.
        segs: Arc<[CSeg]>,
        /// Registers holding the dynamic indices.
        idx: Arc<[u32]>,
    },
    /// `dst = a <op> b` on ints.
    IArith {
        /// Operator.
        op: ArithOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a <op> b` on floats.
    FArith {
        /// Operator.
        op: ArithOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = src + imm` on ints — the `i++` / `i += k` superinstruction.
    AddImmI {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
        /// Immediate addend.
        imm: i64,
    },
    /// `dst = (a <op> b) as int 0/1` on ints.
    ICmp {
        /// Operator.
        op: CmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = (a <op> b) as int 0/1` on floats.
    FCmp {
        /// Operator.
        op: CmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = (a <op> b) as int 0/1` on strings.
    SCmp {
        /// Operator.
        op: CmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a ++ b` (string concatenation).
    Concat {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = -src` on an int.
    NegI {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// `dst = -src` on a float.
    NegF {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// `dst = (src == 0) as int`.
    Not {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// int → float.
    I2F {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// float → int (truncating).
    F2I {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// char → int.
    C2I {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// int → char (wrapping).
    I2C {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// float → 0/1 int (non-zero test).
    FTest {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// Unconditional jump to absolute instruction index.
    Jmp(u32),
    /// Jump if the condition register holds int 0.
    Jz {
        /// Condition register (must hold an int).
        cond: u32,
        /// Jump target.
        target: u32,
    },
    /// Jump if the condition register holds a non-zero int.
    Jnz {
        /// Condition register (must hold an int).
        cond: u32,
        /// Jump target.
        target: u32,
    },
    /// `dst = builtin(args...)`.
    Call {
        /// The builtin.
        f: Builtin,
        /// Destination register.
        dst: u32,
        /// Argument registers, in order.
        args: Arc<[u32]>,
    },
    /// `dst = funcs[f](args...)` — arguments are copied into the callee's
    /// first registers (Lua-style register windows).
    CallFn {
        /// Function index into [`RCode::funcs`].
        f: u32,
        /// Destination register (receives the return value; int 0 for void).
        dst: u32,
        /// Argument registers, in order.
        args: Arc<[u32]>,
    },
    /// Return. In the main body, finishes the program with `src`'s value
    /// (or no value). In a function, returns to the caller, writing the
    /// value into the caller's `CallFn` destination register.
    Ret {
        /// Register holding the return value, if any.
        src: Option<u32>,
    },
    /// Re-synchronize the length-field invariant of this root binding (see
    /// [`pbio::sync_length_fields`]). Only emitted by chain fusion — the
    /// one-instruction trailer between inlined steps.
    SyncRoot(u8),
    /// Superinstruction: a row of field copies into one destination record
    /// ([`CopyRow`]) — the load→convert→store chains of adjacent statements
    /// like Fig. 5's `old.src_list[k].info = …; old.src_list[k].ID = …;` in
    /// one dispatch with one destination navigation, and without staging
    /// values in registers. A lone field copy is the one-entry row.
    CopyPath(CopyRow),
    /// Superinstruction: the whole-array copy loop
    /// `for (; counter < limit; counter++) dst.segs[counter] = src.segs[counter]`
    /// executed as one bounds check plus one bulk range clone. Lowering only
    /// emits this when both element types are identical and fixed-stride on
    /// the wire ([`pbio::FieldType::wire_stride`]), so a range clone is
    /// observationally identical to the per-element loop. On exit the
    /// counter register holds the limit, exactly as the loop would leave it.
    BatchCopy {
        /// Register holding the loop counter (read and written).
        counter: u32,
        /// Register holding the exclusive end index (read once — legal
        /// because the recognized loop's limit expression is pure and
        /// disjoint from the destination root).
        limit: u32,
        /// Root binding index of the source array's record.
        src_root: u8,
        /// Static path (fields only) to the source array.
        src_segs: Arc<[CSeg]>,
        /// Root binding index of the destination array's record.
        dst_root: u8,
        /// Static path (fields only) to the destination array.
        dst_segs: Arc<[CSeg]>,
    },
}

/// Frame layout of one compiled user function in the register ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RFnCode {
    /// Absolute instruction index of the function's first instruction.
    pub entry: u32,
    /// Number of parameters (registers `0..n_params` of the frame).
    pub n_params: u32,
    /// Total frame registers including parameters and temporaries.
    pub n_regs: u32,
}

/// A compiled register-machine program: instructions plus constant pools
/// and frame layout. Produced by the lowering pass from the typed AST and
/// checked against the tree-walking interpreter by differential tests.
#[derive(Debug, Clone)]
pub struct RCode {
    /// Instruction stream (main body first, then each function).
    pub insns: Vec<RInsn>,
    /// String constant pool.
    pub strings: Vec<String>,
    /// Register-file size of the main body.
    pub n_regs: usize,
    /// Number of root bindings expected at run time.
    pub n_roots: usize,
    /// User-function frame layouts, indexed by `RInsn::CallFn`.
    pub funcs: Vec<RFnCode>,
}

impl RCode {
    /// A rough size metric used in tests and reports (instruction count).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Renders a human-readable disassembly of the register program — one
    /// instruction per line with `rN` register operands, function entry
    /// markers, and superinstructions spelled out.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.insns.len() * 32);
        let _ = writeln!(
            out,
            "; register ISA: {} insns, {} regs, {} roots, {} strings, {} fns",
            self.insns.len(),
            self.n_regs,
            self.n_roots,
            self.strings.len(),
            self.funcs.len()
        );
        for (pc, insn) in self.insns.iter().enumerate() {
            for (fi, f) in self.funcs.iter().enumerate() {
                if f.entry as usize == pc {
                    let _ = writeln!(out, "fn#{fi}: ; {} params, {} regs", f.n_params, f.n_regs);
                }
            }
            let _ = writeln!(out, "{pc:4}  {}", render_rinsn(insn, &self.strings));
        }
        out
    }
}

fn render_segs(segs: &[CSeg]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for seg in segs {
        match seg {
            CSeg::Field(i) => {
                let _ = write!(s, ".{i}");
            }
            CSeg::Index => s.push_str("[*]"),
        }
    }
    s
}

fn render_regs(idx: &[u32]) -> String {
    idx.iter().map(|r| format!("r{r}")).collect::<Vec<_>>().join(",")
}

fn render_path(root: u8, segs: &[CSeg], idx: &[u32]) -> String {
    let mut s = format!("root{root}{}", render_segs(segs));
    if !idx.is_empty() {
        s.push_str(&format!(" [{}]", render_regs(idx)));
    }
    s
}

fn render_rinsn(insn: &RInsn, strings: &[String]) -> String {
    match insn {
        RInsn::ConstI { dst, v } => format!("r{dst} = {v}"),
        RInsn::ConstF { dst, v } => format!("r{dst} = {v:?}"),
        RInsn::ConstC { dst, v } => format!("r{dst} = char {v}"),
        RInsn::ConstS { dst, s } => format!(
            "r{dst} = {:?}",
            strings.get(*s as usize).map(String::as_str).unwrap_or("<bad>")
        ),
        RInsn::Move { dst, src } => format!("r{dst} = r{src}"),
        RInsn::Load { dst, root, segs, idx } => {
            format!("r{dst} = Load {}", render_path(*root, segs, idx))
        }
        RInsn::Store { src, root, segs, idx } => {
            format!("Store {} = r{src}", render_path(*root, segs, idx))
        }
        RInsn::LenOf { dst, root, segs, idx } => {
            format!("r{dst} = LenOf {}", render_path(*root, segs, idx))
        }
        RInsn::IArith { op, dst, a, b } => format!("r{dst} = IArith.{op:?} r{a}, r{b}"),
        RInsn::FArith { op, dst, a, b } => format!("r{dst} = FArith.{op:?} r{a}, r{b}"),
        RInsn::AddImmI { dst, src, imm } => format!("r{dst} = r{src} + {imm}"),
        RInsn::ICmp { op, dst, a, b } => format!("r{dst} = ICmp.{op:?} r{a}, r{b}"),
        RInsn::FCmp { op, dst, a, b } => format!("r{dst} = FCmp.{op:?} r{a}, r{b}"),
        RInsn::SCmp { op, dst, a, b } => format!("r{dst} = SCmp.{op:?} r{a}, r{b}"),
        RInsn::Concat { dst, a, b } => format!("r{dst} = Concat r{a}, r{b}"),
        RInsn::NegI { dst, src } => format!("r{dst} = NegI r{src}"),
        RInsn::NegF { dst, src } => format!("r{dst} = NegF r{src}"),
        RInsn::Not { dst, src } => format!("r{dst} = Not r{src}"),
        RInsn::I2F { dst, src } => format!("r{dst} = I2F r{src}"),
        RInsn::F2I { dst, src } => format!("r{dst} = F2I r{src}"),
        RInsn::C2I { dst, src } => format!("r{dst} = C2I r{src}"),
        RInsn::I2C { dst, src } => format!("r{dst} = I2C r{src}"),
        RInsn::FTest { dst, src } => format!("r{dst} = FTest r{src}"),
        RInsn::Jmp(t) => format!("Jmp {t}"),
        RInsn::Jz { cond, target } => format!("Jz r{cond} -> {target}"),
        RInsn::Jnz { cond, target } => format!("Jnz r{cond} -> {target}"),
        RInsn::Call { f, dst, args } => format!("r{dst} = Call {f:?}({})", render_regs(args)),
        RInsn::CallFn { f, dst, args } => format!("r{dst} = CallFn #{f}({})", render_regs(args)),
        RInsn::Ret { src: Some(r) } => format!("Ret r{r}"),
        RInsn::Ret { src: None } => "Ret".to_string(),
        RInsn::SyncRoot(r) => format!("SyncRoot root{r}"),
        RInsn::CopyPath(CopyRow { dst_root, dst_segs, dst_idx, entries, .. }) => {
            let conv = |e: &CopyEntry| e.conv.map(|c| format!(" conv={c:?}")).unwrap_or_default();
            let src = |e: &CopyEntry| render_path(e.src_root, &e.src_segs, &e.src_idx);
            match &entries[..] {
                // A lone copy prints as the assignment it is.
                [e] => {
                    let full: Vec<CSeg> = dst_segs.iter().copied().chain([e.dst_leaf]).collect();
                    format!(
                        "CopyPath {} = {}{}",
                        render_path(*dst_root, &full, dst_idx),
                        src(e),
                        conv(e)
                    )
                }
                row => {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|e| format!("{} = {}{}", render_segs(&[e.dst_leaf]), src(e), conv(e)))
                        .collect();
                    format!(
                        "CopyPath {} {{ {} }}",
                        render_path(*dst_root, dst_segs, dst_idx),
                        cells.join("; ")
                    )
                }
            }
        }
        RInsn::BatchCopy { counter, limit, src_root, src_segs, dst_root, dst_segs } => format!(
            "BatchCopy {}[r{counter}..r{limit}] = {}[r{counter}..r{limit}]",
            render_path(*dst_root, dst_segs, &[]),
            render_path(*src_root, src_segs, &[]),
        ),
    }
}

/// Rewrites every register operand of `insn` through `f` — used by linear
/// scan (virtual → physical remap) and by chain fusion (shifting each
/// step's main-body registers into its slice of the composed frame).
pub(crate) fn map_registers(insn: &RInsn, f: impl Fn(u32) -> u32) -> RInsn {
    let map_list = |l: &Arc<[u32]>| -> Arc<[u32]> { l.iter().map(|&r| f(r)).collect() };
    match insn {
        RInsn::ConstI { dst, v } => RInsn::ConstI { dst: f(*dst), v: *v },
        RInsn::ConstF { dst, v } => RInsn::ConstF { dst: f(*dst), v: *v },
        RInsn::ConstC { dst, v } => RInsn::ConstC { dst: f(*dst), v: *v },
        RInsn::ConstS { dst, s } => RInsn::ConstS { dst: f(*dst), s: *s },
        RInsn::Move { dst, src } => RInsn::Move { dst: f(*dst), src: f(*src) },
        RInsn::Load { dst, root, segs, idx } => {
            RInsn::Load { dst: f(*dst), root: *root, segs: Arc::clone(segs), idx: map_list(idx) }
        }
        RInsn::Store { src, root, segs, idx } => {
            RInsn::Store { src: f(*src), root: *root, segs: Arc::clone(segs), idx: map_list(idx) }
        }
        RInsn::LenOf { dst, root, segs, idx } => {
            RInsn::LenOf { dst: f(*dst), root: *root, segs: Arc::clone(segs), idx: map_list(idx) }
        }
        RInsn::IArith { op, dst, a, b } => {
            RInsn::IArith { op: *op, dst: f(*dst), a: f(*a), b: f(*b) }
        }
        RInsn::FArith { op, dst, a, b } => {
            RInsn::FArith { op: *op, dst: f(*dst), a: f(*a), b: f(*b) }
        }
        RInsn::AddImmI { dst, src, imm } => {
            RInsn::AddImmI { dst: f(*dst), src: f(*src), imm: *imm }
        }
        RInsn::ICmp { op, dst, a, b } => RInsn::ICmp { op: *op, dst: f(*dst), a: f(*a), b: f(*b) },
        RInsn::FCmp { op, dst, a, b } => RInsn::FCmp { op: *op, dst: f(*dst), a: f(*a), b: f(*b) },
        RInsn::SCmp { op, dst, a, b } => RInsn::SCmp { op: *op, dst: f(*dst), a: f(*a), b: f(*b) },
        RInsn::Concat { dst, a, b } => RInsn::Concat { dst: f(*dst), a: f(*a), b: f(*b) },
        RInsn::NegI { dst, src } => RInsn::NegI { dst: f(*dst), src: f(*src) },
        RInsn::NegF { dst, src } => RInsn::NegF { dst: f(*dst), src: f(*src) },
        RInsn::Not { dst, src } => RInsn::Not { dst: f(*dst), src: f(*src) },
        RInsn::I2F { dst, src } => RInsn::I2F { dst: f(*dst), src: f(*src) },
        RInsn::F2I { dst, src } => RInsn::F2I { dst: f(*dst), src: f(*src) },
        RInsn::C2I { dst, src } => RInsn::C2I { dst: f(*dst), src: f(*src) },
        RInsn::I2C { dst, src } => RInsn::I2C { dst: f(*dst), src: f(*src) },
        RInsn::FTest { dst, src } => RInsn::FTest { dst: f(*dst), src: f(*src) },
        RInsn::Jmp(t) => RInsn::Jmp(*t),
        RInsn::Jz { cond, target } => RInsn::Jz { cond: f(*cond), target: *target },
        RInsn::Jnz { cond, target } => RInsn::Jnz { cond: f(*cond), target: *target },
        RInsn::Call { f: b, dst, args } => {
            RInsn::Call { f: *b, dst: f(*dst), args: map_list(args) }
        }
        RInsn::CallFn { f: fi, dst, args } => {
            RInsn::CallFn { f: *fi, dst: f(*dst), args: map_list(args) }
        }
        RInsn::Ret { src } => RInsn::Ret { src: src.map(&f) },
        RInsn::SyncRoot(r) => RInsn::SyncRoot(*r),
        RInsn::CopyPath(row) => RInsn::CopyPath(CopyRow {
            dst_idx: map_list(&row.dst_idx),
            entries: row
                .entries
                .iter()
                .map(|e| CopyEntry { src_idx: map_list(&e.src_idx), ..e.clone() })
                .collect(),
            ..row.clone()
        }),
        RInsn::BatchCopy { counter, limit, src_root, src_segs, dst_root, dst_segs } => {
            RInsn::BatchCopy {
                counter: f(*counter),
                limit: f(*limit),
                src_root: *src_root,
                src_segs: Arc::clone(src_segs),
                dst_root: *dst_root,
                dst_segs: Arc::clone(dst_segs),
            }
        }
    }
}

impl std::fmt::Display for RCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembly_is_line_per_insn() {
        let code = RCode {
            insns: vec![
                RInsn::ConstI { dst: 0, v: 1 },
                RInsn::ConstS { dst: 1, s: 0 },
                RInsn::Load {
                    dst: 1,
                    root: 0,
                    segs: vec![CSeg::Field(2), CSeg::Index].into(),
                    idx: vec![0].into(),
                },
                RInsn::Ret { src: None },
            ],
            strings: vec!["hello".into()],
            n_regs: 2,
            n_roots: 1,
            funcs: vec![RFnCode { entry: 3, n_params: 0, n_regs: 0 }],
        };
        let text = code.disassemble();
        assert_eq!(text.lines().count(), 1 + code.insns.len() + 1 /* fn marker */);
        assert!(text.contains("r1 = \"hello\""));
        assert!(text.contains("r1 = Load root0.2[*] [r0]"));
        assert!(text.contains("fn#0:"));
        assert_eq!(code.to_string(), text);
    }

    fn entry(segs: &[CSeg], idx: &[u32], leaf: u32, conv: Option<ScalarConv>) -> CopyEntry {
        CopyEntry {
            src_root: 0,
            src_segs: segs.into(),
            src_idx: idx.into(),
            dst_leaf: CSeg::Field(leaf),
            conv,
        }
    }

    #[test]
    fn register_disassembly_renders_superinstructions() {
        let code = RCode {
            insns: vec![
                RInsn::ConstI { dst: 0, v: 0 },
                RInsn::BatchCopy {
                    counter: 0,
                    limit: 1,
                    src_root: 0,
                    src_segs: vec![CSeg::Field(1)].into(),
                    dst_root: 1,
                    dst_segs: vec![CSeg::Field(2)].into(),
                },
                RInsn::CopyPath(CopyRow {
                    dst_root: 1,
                    dst_segs: vec![].into(),
                    dst_idx: vec![].into(),
                    entries: vec![entry(&[CSeg::Field(0)], &[], 0, Some(ScalarConv::I2F))].into(),
                    whole: false,
                }),
                RInsn::CopyPath(CopyRow {
                    dst_root: 1,
                    dst_segs: vec![CSeg::Field(2), CSeg::Index].into(),
                    dst_idx: vec![0].into(),
                    entries: vec![
                        entry(&[CSeg::Field(1), CSeg::Index, CSeg::Field(0)], &[1], 0, None),
                        entry(&[CSeg::Field(1), CSeg::Index, CSeg::Field(1)], &[1], 1, None),
                    ]
                    .into(),
                    whole: true,
                }),
                RInsn::Ret { src: None },
            ],
            strings: vec![],
            n_regs: 2,
            n_roots: 2,
            funcs: vec![],
        };
        let text = code.disassemble();
        assert_eq!(text.lines().count(), 1 + code.insns.len());
        assert!(text.contains("BatchCopy root1.2[r0..r1] = root0.1[r0..r1]"));
        assert!(text.contains("CopyPath root1.0 = root0.0 conv=I2F"));
        assert!(text.contains(
            "CopyPath root1.2[*] [r0] { .0 = root0.1[*].0 [r1]; .1 = root0.1[*].1 [r1] }"
        ));
        assert_eq!(code.to_string(), text);
        assert_eq!(code.len(), 5);
        assert!(!code.is_empty());
    }

    #[test]
    fn map_registers_rewrites_every_operand() {
        let insn = RInsn::CallFn { f: 3, dst: 1, args: vec![0, 2].into() };
        let shifted = map_registers(&insn, |r| r + 10);
        assert_eq!(shifted, RInsn::CallFn { f: 3, dst: 11, args: vec![10, 12].into() });
        // Jump targets and roots are not register operands.
        assert_eq!(map_registers(&RInsn::Jmp(5), |r| r + 10), RInsn::Jmp(5));
        assert_eq!(map_registers(&RInsn::SyncRoot(2), |r| r + 10), RInsn::SyncRoot(2));
        // A row's index registers live on the instruction and on each entry.
        let row = RInsn::CopyPath(CopyRow {
            dst_root: 1,
            dst_segs: vec![CSeg::Field(2), CSeg::Index].into(),
            dst_idx: vec![0].into(),
            entries: vec![entry(&[CSeg::Field(1), CSeg::Index], &[1], 0, None)].into(),
            whole: false,
        });
        let RInsn::CopyPath(row) = map_registers(&row, |r| r + 10) else {
            panic!("map_registers changed the instruction kind");
        };
        assert_eq!((&row.dst_idx[..], &row.entries[0].src_idx[..]), (&[10][..], &[11][..]));
    }
}
