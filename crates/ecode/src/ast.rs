//! Untyped abstract syntax tree produced by the parser.
#![allow(missing_docs)] // variant names mirror the grammar and are self-describing

use crate::error::Pos;

/// Declared local-variable type keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclTy {
    /// `int` (64-bit at runtime, like `long`).
    Int,
    /// `long`.
    Long,
    /// `double`.
    Double,
    /// `char`.
    Char,
    /// `string` (Ecode extension over C, as in the original E-Code report).
    String,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Compound-assignment operators (`None` is plain `=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// An expression with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Position for diagnostics.
    pub pos: Pos,
    /// The expression proper.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    CharLit(u8),
    /// Variable or root-record reference.
    Ident(String),
    /// `expr.field`
    Member(Box<Expr>, String),
    /// `expr[expr]`
    Index(Box<Expr>, Box<Expr>),
    /// `lhs op= rhs`
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Unary(UnOp, Box<Expr>),
    /// `expr++` / `expr--` (postfix); the bool is true for increment.
    PostIncDec(Box<Expr>, bool),
    /// `++expr` / `--expr` (prefix); the bool is true for increment.
    PreIncDec(Box<Expr>, bool),
}

/// A statement with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Position for diagnostics.
    pub pos: Pos,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `int a = 1, b;`
    Decl(DeclTy, Vec<(String, Option<Expr>)>),
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) then else?`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `for (init; cond; step) body` — any clause may be absent.
    For(Option<Box<Stmt>>, Option<Expr>, Option<Expr>, Box<Stmt>),
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// `;`
    Empty,
}
