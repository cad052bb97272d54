//! Typed abstract syntax tree: the output of type checking and the shared
//! input of both the bytecode compiler and the reference interpreter.
#![allow(missing_docs)] // variant names mirror the grammar and are self-describing

use std::fmt;
use std::sync::Arc;

use pbio::RecordFormat;

/// Static types of Ecode expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// 64-bit signed integer (`int` / `long`).
    Int,
    /// 64-bit float (`double`).
    Double,
    /// One-byte character (`char`).
    Char,
    /// String (`string`).
    Str,
    /// A record bound to a PBIO format.
    Record(Arc<RecordFormat>),
    /// An array of elements.
    Array(Box<Ty>),
}

impl Ty {
    /// True for `Int`, `Double`, `Char`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::Double | Ty::Char)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Double => write!(f, "double"),
            Ty::Char => write!(f, "char"),
            Ty::Str => write!(f, "string"),
            Ty::Record(r) => write!(f, "record {}", r.name()),
            Ty::Array(e) => write!(f, "{e}[]"),
        }
    }
}

/// Comparison operators, shared across numeric and string comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators on a single numeric domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Typed binary operations — the domain is explicit, so execution needs no
/// dynamic dispatch on operand kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TBinOp {
    /// Integer arithmetic.
    IArith(ArithOp),
    /// Float arithmetic (`Mod` is not available on doubles).
    FArith(ArithOp),
    /// String concatenation.
    Concat,
    /// Integer comparison → int 0/1.
    ICmp(CmpOp),
    /// Float comparison → int 0/1.
    FCmp(CmpOp),
    /// String comparison → int 0/1.
    SCmp(CmpOp),
}

/// Implicit conversions inserted by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// int → double.
    IntToDouble,
    /// double → int (C truncation).
    DoubleToInt,
    /// char → int promotion.
    CharToInt,
    /// int → char (wrapping, as C assignment does).
    IntToChar,
    /// double used as a condition: push 1 if non-zero.
    DoubleToBool,
}

/// One segment of an access path.
#[derive(Debug, Clone, PartialEq)]
pub enum TSeg {
    /// Fixed field index (resolved from the field name at compile time —
    /// the specialization step that removes runtime name lookups).
    Field(usize),
    /// Dynamic array index.
    Index(TExpr),
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum TPlace {
    /// Local variable slot.
    Local(usize),
    /// Path into a bound root record.
    Path {
        /// Index of the root binding.
        root: usize,
        /// Segments from the root.
        segs: Vec<TSeg>,
    },
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub struct TExpr {
    /// Static type.
    pub ty: Ty,
    /// Expression body.
    pub kind: TExprKind,
}

/// Typed expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum TExprKind {
    ConstI(i64),
    ConstF(f64),
    ConstC(u8),
    ConstS(String),
    ReadLocal(usize),
    /// Read through a path into a root (clones the navigated value).
    ReadPath {
        /// Index of the root binding.
        root: usize,
        /// Segments from the root.
        segs: Vec<TSeg>,
    },
    /// Assignment; the expression value is the stored value.
    Assign {
        /// Target location.
        place: TPlace,
        /// `Some(op)` for compound assignment.
        op: Option<TBinOp>,
        /// Right-hand side (already cast to the place's type).
        rhs: Box<TExpr>,
    },
    Binary(TBinOp, Box<TExpr>, Box<TExpr>),
    /// Short-circuit `&&` (both sides int-typed conditions).
    LogicalAnd(Box<TExpr>, Box<TExpr>),
    /// Short-circuit `||`.
    LogicalOr(Box<TExpr>, Box<TExpr>),
    /// Integer negation.
    NegI(Box<TExpr>),
    /// Float negation.
    NegF(Box<TExpr>),
    /// Logical not (int operand).
    Not(Box<TExpr>),
    /// `place++` / `place--` etc. on an int or char place; value has the
    /// place's type.
    IncDec {
        /// Target location.
        place: TPlace,
        /// Increment (`true`) or decrement.
        inc: bool,
        /// Postfix (value before) or prefix (value after).
        post: bool,
    },
    Cast(CastKind, Box<TExpr>),
}

/// A typed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum TStmt {
    /// Initialize a local slot.
    Init(usize, TExpr),
    Expr(TExpr),
    If(TExpr, Box<TStmt>, Option<Box<TStmt>>),
    /// A `for` loop's condition, body and step (its initializer is the
    /// statement before it).
    Loop {
        /// `None` means `true`.
        cond: Option<TExpr>,
        /// Loop body.
        body: Box<TStmt>,
        /// Executed after the body.
        step: Option<TExpr>,
    },
    Block(Vec<TStmt>),
    Empty,
}

/// A root record binding: name, format, and whether the program may write
/// through it.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Name visible in the program (`new`, `old`, ...).
    pub name: String,
    /// The PBIO format describing the root record's shape.
    pub format: Arc<RecordFormat>,
    /// Whether assignment through this root is allowed.
    pub writable: bool,
}

/// A fully type-checked program.
#[derive(Debug, Clone)]
pub struct TProgram {
    /// Root bindings, in binding order (execution receives the root values
    /// in the same order).
    pub bindings: Vec<Binding>,
    /// Number of local slots the program uses.
    pub n_locals: usize,
    /// Top-level statements.
    pub stmts: Vec<TStmt>,
}
