//! Recursive-descent parser for MinC with C operator precedence.

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use crate::CompileError;

/// Deepest nesting the parser accepts, counting each statement, each
/// expression and each prefix operator as one level (so a parenthesized
/// expression costs two). Parsing and lowering recurse once per level:
/// without a cap, a hostile input of a few hundred thousand `(`
/// overflows the stack and aborts the process instead of reporting an
/// error.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    depth: usize,
}

/// Parse a token stream (as produced by [`crate::lexer::lex`]) into a
/// [`Program`].
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

impl<'a> Parser<'a> {
    /// Run `f` one nesting level down, failing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth == MAX_DEPTH {
            return Err(CompileError::new(
                self.line(),
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, want: &TokenKind) -> bool {
        if self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: TokenKind, what: &str) -> Result<(), CompileError> {
        if self.eat(&want) {
            Ok(())
        } else {
            Err(CompileError::new(
                self.line(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, CompileError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Ident(s) => Ok(s.clone()),
            other => Err(CompileError::new(
                line,
                format!("expected {what}, found {:?}", other),
            )),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut prog = Program::default();
        while *self.peek() != TokenKind::Eof {
            let line = self.line();
            // ptr arrays: `ptr name[N];`
            if *self.peek() == TokenKind::KwPtr {
                self.bump();
                let def = self.array_rest(ArrayClass::Ptr, line)?;
                prog.arrays.push(def);
                continue;
            }
            let scalar = match self.peek() {
                TokenKind::KwInt => Some(ScalarTy::Int),
                TokenKind::KwFloat => Some(ScalarTy::Float),
                TokenKind::KwVoid => None,
                other => {
                    return Err(CompileError::new(
                        line,
                        format!("expected declaration, found {:?}", other),
                    ))
                }
            };
            self.bump();
            // Distinguish `int name[...]` (array) from `int name(` (function).
            if let (Some(sc), TokenKind::LBracket) = (scalar, self.peek_ahead(1)) {
                let class = match sc {
                    ScalarTy::Int => ArrayClass::Int,
                    ScalarTy::Float => ArrayClass::Float,
                };
                let def = self.array_rest(class, line)?;
                prog.arrays.push(def);
            } else {
                let f = self.func_rest(scalar, line)?;
                prog.funcs.push(f);
            }
        }
        Ok(prog)
    }

    fn array_rest(&mut self, class: ArrayClass, line: u32) -> Result<ArrayDef, CompileError> {
        let name = self.ident("array name")?;
        self.expect(TokenKind::LBracket, "'['")?;
        let len = match self.bump() {
            TokenKind::Int(v) if v > 0 => v as usize,
            other => {
                return Err(CompileError::new(
                    line,
                    format!(
                        "array length must be a positive integer literal, found {:?}",
                        other
                    ),
                ))
            }
        };
        self.expect(TokenKind::RBracket, "']'")?;
        self.expect(TokenKind::Semi, "';'")?;
        Ok(ArrayDef {
            name,
            class,
            len,
            line,
        })
    }

    fn func_rest(&mut self, ret: Option<ScalarTy>, line: u32) -> Result<FuncDef, CompileError> {
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = match self.bump() {
                    TokenKind::KwInt => ScalarTy::Int,
                    TokenKind::KwFloat => ScalarTy::Float,
                    other => {
                        return Err(CompileError::new(
                            self.line(),
                            format!("expected parameter type, found {:?}", other),
                        ))
                    }
                };
                let pname = self.ident("parameter name")?;
                params.push((ty, pname));
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma, "','")?;
            }
        }
        let body = self.block()?;
        Ok(FuncDef {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(CompileError::new(
                    self.line(),
                    "unexpected end of input in block",
                ));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let kind = match self.peek().clone() {
            TokenKind::KwInt | TokenKind::KwFloat => {
                let ty = if *self.peek() == TokenKind::KwInt {
                    ScalarTy::Int
                } else {
                    ScalarTy::Float
                };
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Assign, "'=' (declarations need initializers)")?;
                let init = self.expr()?;
                self.expect(TokenKind::Semi, "';'")?;
                StmtKind::Decl { ty, name, init }
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen, "'('")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                let then_body = self.stmt_or_block()?;
                let else_body = if self.eat(&TokenKind::KwElse) {
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen, "'('")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                let body = self.stmt_or_block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen, "'('")?;
                let init = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_semi()?))
                };
                let cond = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi, "';'")?;
                let step = if *self.peek() == TokenKind::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_nosemi()?))
                };
                self.expect(TokenKind::RParen, "')'")?;
                let body = self.stmt_or_block()?;
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            TokenKind::KwReturn => {
                self.bump();
                let v = if *self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi, "';'")?;
                StmtKind::Return(v)
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi, "';'")?;
                StmtKind::Break
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi, "';'")?;
                StmtKind::Continue
            }
            TokenKind::LBrace => StmtKind::Block(self.block()?),
            _ => {
                let s = self.simple_stmt_semi()?;
                return Ok(s);
            }
        };
        Ok(Stmt { kind, line })
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if *self.peek() == TokenKind::LBrace {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Assignment / store / declaration / expression statement followed by `;`.
    fn simple_stmt_semi(&mut self) -> Result<Stmt, CompileError> {
        // Allow `int i = 0` inside for-init.
        if matches!(self.peek(), TokenKind::KwInt | TokenKind::KwFloat) {
            let line = self.line();
            let ty = if *self.peek() == TokenKind::KwInt {
                ScalarTy::Int
            } else {
                ScalarTy::Float
            };
            self.bump();
            let name = self.ident("variable name")?;
            self.expect(TokenKind::Assign, "'='")?;
            let init = self.expr()?;
            self.expect(TokenKind::Semi, "';'")?;
            return Ok(Stmt {
                kind: StmtKind::Decl { ty, name, init },
                line,
            });
        }
        let s = self.simple_stmt_nosemi()?;
        self.expect(TokenKind::Semi, "';'")?;
        Ok(s)
    }

    /// Assignment / store / expression statement with no trailing `;`
    /// (the for-step position).
    fn simple_stmt_nosemi(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        if let TokenKind::Ident(name) = self.peek().clone() {
            match self.peek_ahead(1) {
                TokenKind::Assign => {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    return Ok(Stmt {
                        kind: StmtKind::Assign { name, value },
                        line,
                    });
                }
                TokenKind::LBracket => {
                    // Could be a store `a[i] = e` — parse index then check '='.
                    let save = self.pos;
                    self.bump();
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket, "']'")?;
                    if self.eat(&TokenKind::Assign) {
                        let value = self.expr()?;
                        return Ok(Stmt {
                            kind: StmtKind::StoreIndex {
                                array: name,
                                index,
                                value,
                            },
                            line,
                        });
                    }
                    // Not a store: rewind and fall through to expression.
                    self.pos = save;
                }
                _ => {}
            }
        }
        let e = self.expr()?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            line,
        })
    }

    // ----- expressions, precedence climbing -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::logic_or)
    }

    fn logic_or(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.logic_and()?;
        while *self.peek() == TokenKind::OrOr {
            let line = self.line();
            self.bump();
            let rhs = self.logic_and()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::LOr,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        Ok(lhs)
    }

    fn logic_and(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.bit_or()?;
        while *self.peek() == TokenKind::AndAnd {
            let line = self.line();
            self.bump();
            let rhs = self.bit_or()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::LAnd,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(&[(TokenKind::Pipe, BinOp::Or)], Self::bit_xor)
    }
    fn bit_xor(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(&[(TokenKind::Caret, BinOp::Xor)], Self::bit_and)
    }
    fn bit_and(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(&[(TokenKind::Amp, BinOp::And)], Self::equality)
    }
    fn equality(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::NotEq, BinOp::Ne)],
            Self::relational,
        )
    }
    fn relational(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            &[
                (TokenKind::Lt, BinOp::Lt),
                (TokenKind::Le, BinOp::Le),
                (TokenKind::Gt, BinOp::Gt),
                (TokenKind::Ge, BinOp::Ge),
            ],
            Self::shift,
        )
    }
    fn shift(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
            Self::additive,
        )
    }
    fn additive(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            &[
                (TokenKind::Plus, BinOp::Add),
                (TokenKind::Minus, BinOp::Sub),
            ],
            Self::multiplicative,
        )
    }
    fn multiplicative(&mut self) -> Result<Expr, CompileError> {
        self.binary_level(
            &[
                (TokenKind::Star, BinOp::Mul),
                (TokenKind::Slash, BinOp::Div),
                (TokenKind::Percent, BinOp::Rem),
            ],
            Self::unary,
        )
    }

    fn binary_level(
        &mut self,
        table: &[(TokenKind, BinOp)],
        next: fn(&mut Self) -> Result<Expr, CompileError>,
    ) -> Result<Expr, CompileError> {
        let mut lhs = next(self)?;
        'outer: loop {
            for (tk, op) in table {
                if self.peek() == tk {
                    let line = self.line();
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr {
                        kind: ExprKind::Binary {
                            op: *op,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                        line,
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::unary_here)
    }

    fn unary_here(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    line,
                })
            }
            TokenKind::Bang => {
                self.bump();
                let operand = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    line,
                })
            }
            // Casts: `(int) e` / `(float) e`.
            TokenKind::LParen
                if matches!(self.peek_ahead(1), TokenKind::KwInt | TokenKind::KwFloat)
                    && *self.peek_ahead(2) == TokenKind::RParen =>
            {
                self.bump();
                let op = if *self.peek() == TokenKind::KwInt {
                    UnOp::CastInt
                } else {
                    UnOp::CastFloat
                };
                self.bump();
                self.bump(); // ')'
                let operand = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op,
                        operand: Box::new(operand),
                    },
                    line,
                })
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump().clone() {
            TokenKind::Int(v) => Ok(Expr {
                kind: ExprKind::IntLit(v),
                line,
            }),
            TokenKind::Float(v) => Ok(Expr {
                kind: ExprKind::FloatLit(v),
                line,
            }),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(name) => match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma, "','")?;
                        }
                    }
                    Ok(Expr {
                        kind: ExprKind::Call { callee: name, args },
                        line,
                    })
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket, "']'")?;
                    Ok(Expr {
                        kind: ExprKind::Index {
                            array: name,
                            index: Box::new(index),
                        },
                        line,
                    })
                }
                _ => Ok(Expr {
                    kind: ExprKind::Var(name),
                    line,
                }),
            },
            other => Err(CompileError::new(
                line,
                format!("expected expression, found {:?}", other),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| {
            format!(
                "int main() {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        // At the cap (two levels per parenthesis) it still parses.
        assert!(parse(&lex(&deep(MAX_DEPTH / 2 - 2)).unwrap()).is_ok());
        for src in [
            deep(200_000),
            format!("int main() {{ return {}1; }}", "-".repeat(200_000)),
            format!("int main() {}{}", "{".repeat(200_000), "}".repeat(200_000)),
        ] {
            let e = parse(&lex(&src).unwrap()).unwrap_err();
            assert!(e.message.contains("nesting deeper than 128 levels"), "{e}");
        }
    }

    #[test]
    fn parses_arrays_and_funcs() {
        let p = parse_src("int a[10]; float w[4]; ptr next[8]; void main() { }");
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.arrays[2].class, ArrayClass::Ptr);
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].ret, None);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("int main() { return 1 + 2 * 3; }");
        let ret = &p.funcs[0].body[0];
        match &ret.kind {
            StmtKind::Return(Some(Expr {
                kind:
                    ExprKind::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    },
                ..
            })) => {
                assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse_src(
            "int main() {
                int s = 0;
                for (int i = 0; i < 10; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; } else s = s - 1;
                    while (s > 100) { s = s / 2; break; }
                }
                return s;
            }",
        );
        assert_eq!(p.funcs[0].body.len(), 3);
    }

    #[test]
    fn parses_store_vs_index_expr() {
        let p = parse_src("int a[4]; int main() { a[0] = a[1] + 1; return a[0]; }");
        assert!(matches!(
            p.funcs[0].body[0].kind,
            StmtKind::StoreIndex { .. }
        ));
    }

    #[test]
    fn parses_casts_and_logicals() {
        let p = parse_src(
            "int main() { int x = (int)(1.5) + 2; if (x > 0 && x < 9 || !x) return 1; return 0; }",
        );
        assert_eq!(p.funcs[0].body.len(), 3);
    }

    #[test]
    fn error_on_missing_semi() {
        let toks = lex("int main() { return 1 }").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn for_with_empty_clauses() {
        let p = parse_src(
            "int main() { int i = 0; for (;;) { i = i + 1; if (i > 3) break; } return i; }",
        );
        match &p.funcs[0].body[1].kind {
            StmtKind::For {
                init, cond, step, ..
            } => {
                assert!(init.is_none() && cond.is_none() && step.is_none());
            }
            other => panic!("unexpected {:?}", other),
        }
    }
}
