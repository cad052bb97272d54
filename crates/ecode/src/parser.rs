//! Recursive-descent parser for Ecode.

use crate::ast::*;
use crate::error::{EcodeError, Pos, Result};
use crate::lexer::{lex, Spanned, Tok};

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_pos(&self) -> Pos {
        self.toks[self.pos].pos
    }

    fn bump(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(EcodeError::parse(
                self.peek_pos(),
                format!("expected {}, found {}", t.describe(), self.peek().describe()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(EcodeError::parse(
                self.peek_pos(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn decl_ty(&mut self) -> Option<DeclTy> {
        let ty = match self.peek() {
            Tok::KwInt => DeclTy::Int,
            Tok::KwLong => DeclTy::Long,
            Tok::KwDouble => DeclTy::Double,
            Tok::KwChar => DeclTy::Char,
            Tok::KwString => DeclTy::String,
            _ => return None,
        };
        self.bump();
        Some(ty)
    }

    // -- statements ---------------------------------------------------------

    fn program(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        while self.peek() != &Tok::Eof {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let pos = self.peek_pos();
        let kind = match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                StmtKind::Empty
            }
            Tok::LBrace => {
                self.bump();
                let mut body = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    if self.peek() == &Tok::Eof {
                        return Err(EcodeError::parse(pos, "unterminated block"));
                    }
                    body.push(self.stmt()?);
                }
                StmtKind::Block(body)
            }
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat(&Tok::KwElse) { Some(Box::new(self.stmt()?)) } else { None };
                StmtKind::If(cond, then, els)
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                let cond = if self.peek() == &Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen { None } else { Some(self.expr()?) };
                self.expect(&Tok::RParen)?;
                StmtKind::For(init, cond, step, Box::new(self.stmt()?))
            }
            _ => return self.simple_stmt(),
        };
        Ok(Stmt { pos, kind })
    }

    /// A declaration or expression statement terminated by `;` (also the
    /// only statements allowed in a `for` initializer).
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let pos = self.peek_pos();
        if let Some(ty) = self.decl_ty() {
            let mut vars = Vec::new();
            loop {
                let name = self.ident()?;
                let init = if self.eat(&Tok::Assign) { Some(self.expr()?) } else { None };
                vars.push((name, init));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::Semi)?;
            return Ok(Stmt { pos, kind: StmtKind::Decl(ty, vars) });
        }
        let e = self.expr()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt { pos, kind: StmtKind::Expr(e) })
    }

    // -- expressions ----------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr> {
        let lhs = self.logic_or()?;
        let op = match self.peek() {
            Tok::Assign => AssignOp::Set,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::SlashAssign => AssignOp::Div,
            Tok::PercentAssign => AssignOp::Mod,
            _ => return Ok(lhs),
        };
        let pos = self.peek_pos();
        self.bump();
        let rhs = self.assignment()?; // right-associative
        Ok(Expr { pos, kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)) })
    }

    fn binary_level<F>(&mut self, next: F, table: &[(Tok, BinOp)]) -> Result<Expr>
    where
        F: Fn(&mut Parser) -> Result<Expr>,
    {
        let mut lhs = next(self)?;
        'outer: loop {
            for (tok, op) in table {
                if self.peek() == tok {
                    let pos = self.peek_pos();
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr { pos, kind: ExprKind::Binary(*op, Box::new(lhs), Box::new(rhs)) };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn logic_or(&mut self) -> Result<Expr> {
        self.binary_level(Parser::logic_and, &[(Tok::OrOr, BinOp::Or)])
    }

    fn logic_and(&mut self) -> Result<Expr> {
        self.binary_level(Parser::equality, &[(Tok::AndAnd, BinOp::And)])
    }

    fn equality(&mut self) -> Result<Expr> {
        self.binary_level(Parser::relational, &[(Tok::Eq, BinOp::Eq), (Tok::Ne, BinOp::Ne)])
    }

    fn relational(&mut self) -> Result<Expr> {
        self.binary_level(
            Parser::additive,
            &[
                (Tok::Le, BinOp::Le),
                (Tok::Ge, BinOp::Ge),
                (Tok::Lt, BinOp::Lt),
                (Tok::Gt, BinOp::Gt),
            ],
        )
    }

    fn additive(&mut self) -> Result<Expr> {
        self.binary_level(
            Parser::multiplicative,
            &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
        )
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        self.binary_level(
            Parser::unary,
            &[(Tok::Star, BinOp::Mul), (Tok::Slash, BinOp::Div), (Tok::Percent, BinOp::Mod)],
        )
    }

    fn unary(&mut self) -> Result<Expr> {
        let pos = self.peek_pos();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr { pos, kind: ExprKind::Unary(UnOp::Neg, Box::new(e)) })
            }
            Tok::Plus => {
                self.bump();
                self.unary()
            }
            Tok::Bang => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr { pos, kind: ExprKind::Unary(UnOp::Not, Box::new(e)) })
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let inc = self.peek() == &Tok::PlusPlus;
                self.bump();
                let e = self.unary()?;
                Ok(Expr { pos, kind: ExprKind::PreIncDec(Box::new(e), inc) })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            let pos = self.peek_pos();
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    e = Expr { pos, kind: ExprKind::Member(Box::new(e), name) };
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr { pos, kind: ExprKind::Index(Box::new(e), Box::new(idx)) };
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr { pos, kind: ExprKind::PostIncDec(Box::new(e), true) };
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr { pos, kind: ExprKind::PostIncDec(Box::new(e), false) };
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let pos = self.peek_pos();
        let kind = match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            Tok::FloatLit(v) => {
                self.bump();
                ExprKind::FloatLit(v)
            }
            Tok::StrLit(s) => {
                self.bump();
                ExprKind::StrLit(s)
            }
            Tok::CharLit(c) => {
                self.bump();
                ExprKind::CharLit(c)
            }
            Tok::Ident(name) => {
                self.bump();
                ExprKind::Ident(name)
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(EcodeError::parse(
                    pos,
                    format!("expected expression, found {}", other.describe()),
                ))
            }
        };
        Ok(Expr { pos, kind })
    }
}

/// Parses Ecode source text into its statement list.
///
/// # Errors
///
/// Returns [`EcodeError::Lex`] or [`EcodeError::Parse`] with the position of
/// the failure.
pub(crate) fn parse(src: &str) -> Result<Vec<Stmt>> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Vec<Stmt> {
        parse(src).unwrap()
    }

    #[test]
    fn parses_paper_fig5_transformation() {
        // The exact transformation of the paper's Figure 5 (modulo
        // normalized identifiers).
        let src = r#"
            int i;
            int sink_count = 0;
            int src_count = 0;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                old.member_list[i].ID = new.member_list[i].ID;
                if (new.member_list[i].is_source) {
                    old.src_count = src_count + 1;
                    old.src_list[src_count].info = new.member_list[i].info;
                    old.src_list[src_count].ID = new.member_list[i].ID;
                    src_count++;
                }
                if (new.member_list[i].is_sink) {
                    old.sink_count = sink_count + 1;
                    old.sink_list[sink_count].info = new.member_list[i].info;
                    old.sink_list[sink_count].ID = new.member_list[i].ID;
                    sink_count++;
                }
            }
        "#;
        let prog = ok(src);
        assert_eq!(prog.len(), 5);
        assert!(matches!(prog[4].kind, StmtKind::For(..)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = ok("x = 1 + 2 * 3;");
        let StmtKind::Expr(e) = &p[0].kind else { panic!() };
        let ExprKind::Assign(AssignOp::Set, _, rhs) = &e.kind else { panic!() };
        let ExprKind::Binary(BinOp::Add, _, r) = &rhs.kind else { panic!() };
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn assignment_right_associative() {
        let p = ok("a = b = 1;");
        let StmtKind::Expr(e) = &p[0].kind else { panic!() };
        let ExprKind::Assign(_, _, rhs) = &e.kind else { panic!() };
        assert!(matches!(rhs.kind, ExprKind::Assign(..)));
    }

    #[test]
    fn member_and_index_chains() {
        let p = ok("v = a.b[i + 1].c;");
        let StmtKind::Expr(e) = &p[0].kind else { panic!() };
        let ExprKind::Assign(_, _, rhs) = &e.kind else { panic!() };
        let ExprKind::Member(inner, c) = &rhs.kind else { panic!() };
        assert_eq!(c, "c");
        assert!(matches!(inner.kind, ExprKind::Index(..)));
    }

    #[test]
    fn multi_declarations() {
        let p = ok("int a = 1, b, c = 3;");
        let StmtKind::Decl(DeclTy::Int, vars) = &p[0].kind else { panic!() };
        assert_eq!(vars.len(), 3);
        assert!(vars[1].1.is_none());
    }

    #[test]
    fn for_clauses_optional() {
        ok("for (;;) {}");
        ok("for (i = 0; ; i++) ;");
        ok("for (int i = 0; i < 3; ) {}");
    }

    #[test]
    fn dangling_else_binds_inner() {
        let p = ok("if (a) if (b) x = 1; else x = 2;");
        let StmtKind::If(_, then, els) = &p[0].kind else { panic!() };
        assert!(els.is_none());
        assert!(matches!(then.kind, StmtKind::If(_, _, Some(_))));
    }

    #[test]
    fn prefix_incdec() {
        let p = ok("++i; --j;");
        assert!(matches!(
            &p[0].kind,
            StmtKind::Expr(Expr { kind: ExprKind::PreIncDec(_, true), .. })
        ));
        assert!(matches!(
            &p[1].kind,
            StmtKind::Expr(Expr { kind: ExprKind::PreIncDec(_, false), .. })
        ));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("x = ;").unwrap_err();
        match err {
            EcodeError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("if x").is_err());
        assert!(parse("{ x = 1;").is_err());
        assert!(parse("int;").is_err());
        assert!(parse("x = (1;").is_err());
    }
}
