//! Recursive-descent parser for expressions, queries, schema DDL and view
//! DDL.
//!
//! "We are quite liberal with the exact syntax and assume it to be self
//! explanatory" (§2) — the grammar here covers every form the paper writes,
//! including both query spellings (`select P from P in Person` and the
//! abbreviated `select P from Person` / `select A in Adult`), `select the`,
//! parameterized class declarations `class Adult(A) includes …`, and the
//! `imaginary` keyword of §5.
//!
//! Keywords are contextual (see [`crate::lexer`]); the paper's own examples
//! use `Name` and `Children` as attribute names, so nothing is reserved.

use ov_oodb::{AggFunc, BinOp, Expr, SelectExpr, Symbol, UnOp, Value};

use crate::ast::{ImportWhat, IncludeSpec, Stmt, TypeExpr};
use crate::error::{Pos, QueryError, Result};
use crate::lexer::{Lexer, Tok, Token};

/// Parses a complete statement script.
pub fn parse_program(src: &str) -> Result<Vec<Stmt>> {
    Parser::run(src, |p| {
        let mut out = Vec::new();
        while !p.at_eof() {
            out.push(p.statement()?);
        }
        Ok(out)
    })
}

/// Parses a single expression (must consume all input).
pub fn parse_expr(src: &str) -> Result<Expr> {
    Parser::run(src, |p| {
        let e = p.expr()?;
        p.expect_eof()?;
        Ok(e)
    })
}

/// Parses a single `select …` query (must consume all input).
pub fn parse_select(src: &str) -> Result<SelectExpr> {
    Parser::run(src, |p| {
        p.expect_kw("select")?;
        let s = p.select_body()?;
        p.expect_eof()?;
        Ok(s)
    })
}

/// Parses a type expression (must consume all input).
pub fn parse_type(src: &str) -> Result<TypeExpr> {
    Parser::run(src, |p| {
        let t = p.type_expr()?;
        p.expect_eof()?;
        Ok(t)
    })
}

/// Hard cap on parser nesting. Each grammar level is several stack frames
/// (`expr_prec` → `unary` → `postfix` → `primary`), so this keeps a
/// maximally nested input (`((((…1…))))`, `{{{{…}}}}`) comfortably inside
/// the default thread stack instead of overflowing it. An installed
/// [`Budget`](crate::Budget) with a lower depth cap tightens this further.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    /// Tokens are scanned as the grammar asks for them and borrow from the
    /// source; error positions are computed from it ([`Pos::at`]).
    lexer: Lexer<'a>,
    /// The current token and the one after it — all the grammar looks at.
    cur: Token<'a>,
    next: Token<'a>,
    /// The first lexical error, met while scanning ahead. The token stream
    /// ends ([`Tok::Eof`]) where it happened; see [`Parser::run`].
    lex_error: Option<QueryError>,
    /// Current nesting depth of recursive grammar productions.
    depth: usize,
    /// The effective cap (see [`MAX_PARSE_DEPTH`]).
    depth_cap: usize,
}

impl<'a> Parser<'a> {
    /// Runs the production `parse` over `src`. A lexical error anywhere in
    /// the text is reported before anything the grammar has to say, as if
    /// the whole text were tokenized before parsing began: one the parser
    /// scanned into replaces its verdict on the truncated stream, and after
    /// a syntax error the rest of the text is scanned for one.
    fn run<T>(src: &'a str, parse: impl FnOnce(&mut Parser<'a>) -> Result<T>) -> Result<T> {
        let mut lexer = Lexer::new(src);
        let mut lex_error = None;
        let cur = scan(&mut lexer, &mut lex_error);
        let next = scan(&mut lexer, &mut lex_error);
        let mut p = Parser {
            lexer,
            cur,
            next,
            lex_error,
            depth: 0,
            depth_cap: crate::budget::parse_depth_cap(MAX_PARSE_DEPTH),
        };
        let parsed = parse(&mut p);
        if parsed.is_err() {
            while p.lex_error.is_none() && p.next.tok != Tok::Eof {
                p.next = scan(&mut p.lexer, &mut p.lex_error);
            }
        }
        match p.lex_error {
            Some(e) => Err(e),
            None => parsed,
        }
    }

    /// Enters one level of recursive grammar nesting, erring (a typed
    /// [`QueryError::ResourceExhausted`] when a budget set the cap, a parse
    /// error otherwise) instead of overflowing the stack. Paired with
    /// [`Parser::ascend`]; a `?`-propagated error may skip the `ascend`,
    /// which is fine — a failed parse abandons the whole `Parser`.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > self.depth_cap {
            self.depth -= 1;
            return Err(if self.depth_cap < MAX_PARSE_DEPTH {
                QueryError::ResourceExhausted(crate::budget::BudgetBreach {
                    limit: "recursion depth",
                    allowed: self.depth_cap as u64,
                })
            } else {
                self.error("input nested too deeply")
            });
        }
        Ok(())
    }

    /// Leaves one level of recursive grammar nesting.
    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &Tok<'a> {
        &self.cur.tok
    }

    fn peek2(&self) -> &Tok<'a> {
        &self.next.tok
    }

    fn pos(&self) -> Pos {
        Pos::at(self.lexer.source(), self.cur.pos)
    }

    /// Passes the current token. Past the end there is only more
    /// [`Tok::Eof`], at the same position.
    fn bump(&mut self) {
        let next = scan(&mut self.lexer, &mut self.lex_error);
        self.cur = std::mem::replace(&mut self.next, next);
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn error(&self, msg: impl Into<String>) -> QueryError {
        QueryError::Parse {
            pos: self.pos(),
            msg: msg.into(),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                tok.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error(format!(
                "unexpected {} after complete input",
                self.peek().describe()
            )))
        }
    }

    /// Is the current token the identifier `kw`?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if *s == kw)
    }

    /// Consumes the identifier `kw` if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn expect_ident(&mut self) -> Result<Symbol> {
        match self.peek() {
            Tok::Ident(s) => {
                let sym = Symbol::new(s);
                self.bump();
                Ok(sym)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn expect_oid_lit(&mut self) -> Result<u64> {
        match self.peek() {
            Tok::OidLit(n) => {
                let n = *n;
                self.bump();
                Ok(n)
            }
            other => Err(self.error(format!("expected oid literal, found {}", other.describe()))),
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt> {
        let stmt = match self.peek() {
            Tok::Ident(kw) => match *kw {
                "database" => {
                    self.bump();
                    Stmt::Database(self.expect_ident()?)
                }
                "class" => self.class_stmt()?,
                "attribute" => self.attribute_stmt()?,
                "object" => self.object_stmt()?,
                "name" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.expect(Tok::Eq)?;
                    let oid = self.expect_oid_lit()?;
                    Stmt::NameDecl { name, oid }
                }
                "create" => {
                    self.bump();
                    self.expect_kw("view")?;
                    Stmt::CreateView(self.expect_ident()?)
                }
                "import" => self.import_stmt()?,
                "hide" => self.hide_stmt()?,
                "set" => self.set_stmt()?,
                "delete" => {
                    self.bump();
                    Stmt::Delete(self.expr()?)
                }
                "insert" => {
                    self.bump();
                    let class = self.expect_ident()?;
                    self.expect_kw("value")?;
                    let value = self.expr()?;
                    Stmt::Insert { class, value }
                }
                _ => Stmt::Query(self.expr()?),
            },
            _ => Stmt::Query(self.expr()?),
        };
        // Semicolons terminate statements; the final one may omit it.
        if !self.at_eof() {
            self.expect(Tok::Semi)?;
        }
        Ok(stmt)
    }

    /// `class C(…) includes …` (virtual) or `class C inherits … type […]`
    /// (base).
    fn class_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("class")?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            loop {
                params.push(self.expect_ident()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        if self.at_kw("includes") {
            self.bump();
            let mut includes = vec![self.include_spec()?];
            while *self.peek() == Tok::Comma {
                self.bump();
                includes.push(self.include_spec()?);
            }
            return Ok(Stmt::VirtualClassDecl {
                name,
                params,
                includes,
            });
        }
        if !params.is_empty() {
            return Err(self.error("only virtual classes (with `includes`) may take parameters"));
        }
        let mut parents = Vec::new();
        if self.eat_kw("inherits") {
            parents.push(self.expect_ident()?);
            while *self.peek() == Tok::Comma {
                self.bump();
                parents.push(self.expect_ident()?);
            }
        }
        let mut stored = Vec::new();
        if self.eat_kw("type") {
            self.expect(Tok::LBracket)?;
            if *self.peek() != Tok::RBracket {
                loop {
                    let field = self.expect_ident()?;
                    self.expect(Tok::Colon)?;
                    let ty = self.type_expr()?;
                    stored.push((field, ty));
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RBracket)?;
        }
        Ok(Stmt::ClassDecl {
            name,
            parents,
            stored,
        })
    }

    fn include_spec(&mut self) -> Result<IncludeSpec> {
        if self.eat_kw("like") {
            return Ok(IncludeSpec::Like(self.expect_ident()?));
        }
        if self.eat_kw("imaginary") {
            self.expect(Tok::LParen)?;
            self.expect_kw("select")?;
            let q = self.select_body()?;
            self.expect(Tok::RParen)?;
            return Ok(IncludeSpec::Imaginary(q));
        }
        if *self.peek() == Tok::LParen {
            self.bump();
            self.expect_kw("select")?;
            let q = self.select_body()?;
            self.expect(Tok::RParen)?;
            return Ok(IncludeSpec::Query(q));
        }
        Ok(IncludeSpec::Class(self.expect_ident()?))
    }

    /// `attribute A[(p: T, …)] [of type T] in class C [has value E]`.
    fn attribute_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("attribute")?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            loop {
                let p = self.expect_ident()?;
                self.expect(Tok::Colon)?;
                let t = self.type_expr()?;
                params.push((p, t));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let mut ty = None;
        if self.eat_kw("of") {
            self.expect_kw("type")?;
            ty = Some(self.type_expr()?);
        }
        self.expect_kw("in")?;
        self.expect_kw("class")?;
        let class = self.expect_ident()?;
        let mut body = None;
        if self.eat_kw("has") {
            self.expect_kw("value")?;
            body = Some(self.expr()?);
        }
        Ok(Stmt::AttributeDecl {
            name,
            params,
            ty,
            class,
            body,
        })
    }

    fn object_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("object")?;
        let oid = self.expect_oid_lit()?;
        self.expect_kw("in")?;
        let class = self.expect_ident()?;
        self.expect_kw("value")?;
        let value = self.expr()?;
        Ok(Stmt::ObjectDecl { oid, class, value })
    }

    fn import_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("import")?;
        let mut class_name = None;
        if self.eat_kw("all") {
            self.expect_kw("classes")?;
        } else {
            self.expect_kw("class")?;
            class_name = Some(self.expect_ident()?);
        }
        // The alias may come before or after the `from database D` clause:
        // `import class C as X from database D` and
        // `import class C from database D as X` both parse.
        let mut alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect_kw("from")?;
        // `from view V` is a cosmetic alias for `from database V`: the
        // source name resolves at bind time (views before databases), and
        // serialization always prints `database` so scripts round-trip.
        if !self.eat_kw("view") {
            self.expect_kw("database")?;
        }
        let db = self.expect_ident()?;
        if alias.is_none() && self.eat_kw("as") {
            alias = Some(self.expect_ident()?);
        }
        let what = match class_name {
            None => {
                if alias.is_some() {
                    return Err(self.error("`import all classes` cannot take an alias"));
                }
                ImportWhat::AllClasses
            }
            Some(name) => ImportWhat::Class { name, alias },
        };
        Ok(Stmt::Import { what, db })
    }

    fn hide_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("hide")?;
        if self.eat_kw("class") {
            return Ok(Stmt::HideClass(self.expect_ident()?));
        }
        if !(self.eat_kw("attribute") || self.eat_kw("attributes")) {
            return Err(self.error("expected `attribute`, `attributes` or `class` after `hide`"));
        }
        let mut attrs = vec![self.expect_ident()?];
        while *self.peek() == Tok::Comma {
            self.bump();
            attrs.push(self.expect_ident()?);
        }
        self.expect_kw("in")?;
        self.expect_kw("class")?;
        let class = self.expect_ident()?;
        Ok(Stmt::HideAttrs { attrs, class })
    }

    /// `set E.A = V` — the target must be an attribute access.
    fn set_stmt(&mut self) -> Result<Stmt> {
        self.expect_kw("set")?;
        let target = self.expr_prec(4)?; // stop before `=` (precedence 3)
        let Expr::Attr { recv, name, args } = target else {
            return Err(self.error("the target of `set` must be `expr.Attribute`"));
        };
        if !args.is_empty() {
            return Err(self.error("cannot assign to a parameterized attribute"));
        }
        self.expect(Tok::Eq)?;
        let value = self.expr()?;
        Ok(Stmt::SetAttr {
            target: *recv,
            attr: name,
            value,
        })
    }

    // -----------------------------------------------------------------
    // Types
    // -----------------------------------------------------------------

    fn type_expr(&mut self) -> Result<TypeExpr> {
        self.descend()?;
        let r = self.type_expr_inner();
        self.ascend();
        r
    }

    fn type_expr_inner(&mut self) -> Result<TypeExpr> {
        match self.peek() {
            Tok::LBrace => {
                self.bump();
                let inner = self.type_expr()?;
                self.expect(Tok::RBrace)?;
                Ok(TypeExpr::Set(Box::new(inner)))
            }
            Tok::LBracket => {
                self.bump();
                let mut fields = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        let name = self.expect_ident()?;
                        self.expect(Tok::Colon)?;
                        fields.push((name, self.type_expr()?));
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(TypeExpr::Tuple(fields))
            }
            Tok::Ident("list") => {
                self.bump();
                self.expect(Tok::LParen)?;
                let inner = self.type_expr()?;
                self.expect(Tok::RParen)?;
                Ok(TypeExpr::List(Box::new(inner)))
            }
            Tok::Ident(_) => Ok(TypeExpr::Name(self.expect_ident()?)),
            other => Err(self.error(format!("expected a type, found {}", other.describe()))),
        }
    }

    // -----------------------------------------------------------------
    // Expressions (precedence climbing)
    // -----------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.expr_prec(1)
    }

    /// Parses at minimum precedence `min_prec` (1 = everything).
    fn expr_prec(&mut self, min_prec: u8) -> Result<Expr> {
        self.descend()?;
        let r = self.expr_prec_inner(min_prec);
        self.ascend();
        r
    }

    fn expr_prec_inner(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary()?;
        while let Some(op) = self.peek_binop() {
            // `isa` is handled as a comparison-level postfix.
            if let PeekedOp::IsA = op {
                if 3 < min_prec {
                    break;
                }
                self.bump();
                let class = self.expect_ident()?;
                lhs = Expr::IsA {
                    expr: Box::new(lhs),
                    class,
                };
                continue;
            }
            let PeekedOp::Bin(bop) = op else {
                unreachable!()
            };
            let prec = bop.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.expr_prec(prec + 1)?; // left associative
            lhs = Expr::Binary {
                op: bop,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<PeekedOp> {
        let op = match self.peek() {
            Tok::Plus => BinOp::Add,
            Tok::PlusPlus => BinOp::Concat,
            Tok::Minus => BinOp::Sub,
            Tok::Star => BinOp::Mul,
            Tok::Slash => BinOp::Div,
            Tok::Percent => BinOp::Mod,
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::Ident(s) => match *s {
                "and" => BinOp::And,
                "or" => BinOp::Or,
                "in" => BinOp::In,
                "union" => BinOp::Union,
                "intersect" => BinOp::Intersect,
                "except" => BinOp::Except,
                "isa" => return Some(PeekedOp::IsA),
                _ => return None,
            },
            _ => return None,
        };
        Some(PeekedOp::Bin(op))
    }

    fn unary(&mut self) -> Result<Expr> {
        // Guarded separately from `expr_prec`: prefix chains (`not not …`,
        // `--…`) recurse here without passing back through it.
        self.descend()?;
        let e = self.unary_inner();
        self.ascend();
        e
    }

    fn unary_inner(&mut self) -> Result<Expr> {
        if self.at_kw("not") {
            self.bump();
            let e = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            });
        }
        if *self.peek() == Tok::Minus {
            self.bump();
            let e = self.unary()?;
            // Fold negation of numeric literals so `-5` is a literal.
            return Ok(match e {
                Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                Expr::Lit(Value::Float(x)) => Expr::Lit(Value::Float(-x)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while *self.peek() == Tok::Dot {
            self.bump();
            let name = self.expect_ident()?;
            let mut args = Vec::new();
            if *self.peek() == Tok::LParen {
                self.bump();
                if *self.peek() != Tok::RParen {
                    loop {
                        args.push(self.expr()?);
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
            }
            e = Expr::Attr {
                recv: Box::new(e),
                name,
                args,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        // A literal's value is built before its token is passed, so no
        // token is ever copied.
        let lit = match self.peek() {
            Tok::Int(i) => Some(Value::Int(*i)),
            Tok::Float(x) => Some(Value::Float(*x)),
            Tok::Str(s) => Some(Value::str(s)),
            Tok::OidLit(n) => Some(Value::Oid(ov_oodb::Oid(*n))),
            _ => None,
        };
        if let Some(v) = lit {
            self.bump();
            return Ok(Expr::Lit(v));
        }
        match self.peek() {
            Tok::LParen => {
                self.bump();
                let e = if self.at_kw("select") {
                    self.bump();
                    Expr::Select(self.select_body()?)
                } else {
                    self.expr()?
                };
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut fields = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        let name = self.expect_ident()?;
                        self.expect(Tok::Colon)?;
                        fields.push((name, self.expr()?));
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(Expr::TupleCons(fields))
            }
            Tok::LBrace => {
                self.bump();
                let mut items = Vec::new();
                if *self.peek() != Tok::RBrace {
                    loop {
                        items.push(self.expr()?);
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Expr::SetCons(items))
            }
            Tok::Ident(word) => match *word {
                "true" => {
                    self.bump();
                    Ok(Expr::Lit(Value::Bool(true)))
                }
                "false" => {
                    self.bump();
                    Ok(Expr::Lit(Value::Bool(false)))
                }
                "null" => {
                    self.bump();
                    Ok(Expr::Lit(Value::Null))
                }
                "self" => {
                    self.bump();
                    Ok(Expr::SelfRef)
                }
                "if" => {
                    self.bump();
                    let cond = self.expr()?;
                    self.expect_kw("then")?;
                    let then = self.expr()?;
                    self.expect_kw("else")?;
                    let els = self.expr()?;
                    Ok(Expr::If {
                        cond: Box::new(cond),
                        then: Box::new(then),
                        els: Box::new(els),
                    })
                }
                "select" => {
                    self.bump();
                    Ok(Expr::Select(self.select_body()?))
                }
                "exists" => {
                    self.bump();
                    self.expect(Tok::LParen)?;
                    self.expect_kw("select")?;
                    let q = self.select_body()?;
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Exists(q))
                }
                "list" if *self.peek2() == Tok::LParen => {
                    self.bump();
                    self.bump();
                    let mut items = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            items.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::ListCons(items))
                }
                _ => {
                    if let Some(func) = AggFunc::from_name(word) {
                        if *self.peek2() == Tok::LParen {
                            self.bump();
                            self.bump();
                            let arg = self.expr()?;
                            self.expect(Tok::RParen)?;
                            return Ok(Expr::Aggregate {
                                func,
                                arg: Box::new(arg),
                            });
                        }
                    }
                    let name = self.expect_ident()?;
                    // `Name(args)` — a parameterized-class instance such as
                    // the paper's `Resident(USA)` (§4.1).
                    if *self.peek() == Tok::LParen {
                        self.bump();
                        let mut args = Vec::new();
                        if *self.peek() != Tok::RParen {
                            loop {
                                args.push(self.expr()?);
                                if *self.peek() == Tok::Comma {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::Apply { name, args });
                    }
                    Ok(Expr::Name(name))
                }
            },
            other => Err(self.error(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }

    /// Parses the body of a select (after the `select` keyword):
    /// `[the] [distinct] proj (from bindings | in coll) [where cond]`.
    fn select_body(&mut self) -> Result<SelectExpr> {
        let mut the = false;
        let mut distinct = false;
        // `the` / `distinct` flags — contextual: `select the ...` where the
        // next-next token shape decides. We accept them greedily unless the
        // word is immediately followed by `from`/`in` (then it was the
        // projection variable itself).
        loop {
            if self.at_kw("the") && !is_proj_terminator(self.peek2()) {
                self.bump();
                the = true;
            } else if self.at_kw("distinct") && !is_proj_terminator(self.peek2()) {
                self.bump();
                distinct = true;
            } else {
                break;
            }
        }
        let proj = self.expr_prec(4)?; // stop before `in` (precedence 3)
        let mut bindings = Vec::new();
        if self.eat_kw("in") {
            // `select A in Adult [where …]` — abbreviated form; the
            // projection must be a bare variable.
            let Expr::Name(var) = &proj else {
                return Err(
                    self.error("in `select X in C`, the projection X must be a plain variable")
                );
            };
            let coll = self.expr_prec(4)?;
            bindings.push((*var, coll));
        } else {
            self.expect_kw("from")?;
            loop {
                let binding = self.parse_from_binding(&proj)?;
                bindings.push(binding);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let filter = if self.eat_kw("where") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        Ok(SelectExpr {
            distinct,
            the,
            proj: Box::new(proj),
            bindings,
            filter,
        })
    }

    /// One `from` binding: `V in Coll`, or the paper's abbreviated
    /// `from Person` (the bound variable is then the projection variable).
    fn parse_from_binding(&mut self, proj: &Expr) -> Result<(Symbol, Expr)> {
        // Explicit form: IDENT `in` …
        if let (Tok::Ident(v), Tok::Ident(kw)) = (self.peek(), self.peek2()) {
            if *kw == "in" {
                let var = Symbol::new(v);
                self.bump();
                self.bump();
                let coll = self.expr_prec(4)?;
                return Ok((var, coll));
            }
        }
        // Abbreviated form: the collection only. Bind the projection
        // variable (paper: "select P from Person where P.Age >= 21").
        let coll = self.expr_prec(4)?;
        let var = implied_variable(proj).ok_or_else(|| {
            self.error(
                "binding without `in` requires the projection to be a plain variable \
                 (as in `select P from Person`)",
            )
        })?;
        Ok((var, coll))
    }
}

/// Scans one more token. The first lexical error is kept in `lex_error`
/// and ends the stream: from then on every token is [`Tok::Eof`].
fn scan<'a>(lexer: &mut Lexer<'a>, lex_error: &mut Option<QueryError>) -> Token<'a> {
    if lex_error.is_none() {
        match lexer.next_token() {
            Ok(token) => return token,
            Err(e) => *lex_error = Some(e),
        }
    }
    Token {
        tok: Tok::Eof,
        pos: lexer.source().len(),
    }
}

enum PeekedOp {
    Bin(BinOp),
    IsA,
}

/// For `select X …`, the variable implied by an abbreviated binding: `X`
/// itself if the projection is a name or a path rooted at a name.
fn implied_variable(proj: &Expr) -> Option<Symbol> {
    match proj {
        Expr::Name(v) => Some(*v),
        Expr::Attr { recv, .. } => implied_variable(recv),
        Expr::TupleCons(fields) => fields.iter().find_map(|(_, e)| implied_variable(e)),
        _ => None,
    }
}

/// Tokens that mean the preceding word was the projection, not a flag.
fn is_proj_terminator(tok: &Tok) -> bool {
    matches!(tok, Tok::Ident("from" | "in"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    fn roundtrip(src: &str) {
        let e = parse_expr(src).unwrap();
        let printed = e.to_string();
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
        assert_eq!(e, e2, "round-trip mismatch for `{src}` → `{printed}`");
    }

    #[test]
    fn parses_paper_adult_query() {
        let q = parse_select("select P from Person where P.Age >= 21").unwrap();
        assert_eq!(q.bindings, vec![(sym("P"), Expr::name("Person"))]);
        assert_eq!(*q.proj, Expr::name("P"));
        assert!(q.filter.is_some());
    }

    #[test]
    fn parses_explicit_binding_form() {
        let q = parse_select("select F from F in Family where F.Size > 5").unwrap();
        assert_eq!(q.bindings, vec![(sym("F"), Expr::name("Family"))]);
    }

    #[test]
    fn parses_select_the_in_form() {
        // Paper Example 5: "select the A in Address where A.City = self.City".
        let q = parse_select("select the A in Address where A.City = self.City").unwrap();
        assert!(q.the);
        assert_eq!(q.bindings, vec![(sym("A"), Expr::name("Address"))]);
    }

    #[test]
    fn select_projecting_a_variable_named_the() {
        // `select the from ...` must treat `the` as the projection when
        // followed directly by `from`.
        let q = parse_select("select the from the in Person").unwrap();
        assert!(!q.the);
        assert_eq!(*q.proj, Expr::name("the"));
    }

    #[test]
    fn parses_family_imaginary_query_projection() {
        let q = parse_select(
            r#"select [Husband: H, Wife: H.Spouse] from H in Person where H.Sex = "male""#,
        )
        .unwrap();
        match &*q.proj {
            Expr::TupleCons(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, sym("Husband"));
            }
            other => panic!("expected tuple projection, got {other:?}"),
        }
    }

    #[test]
    fn parses_multi_binding_select() {
        let q =
            parse_select("select [A: X, B: Y] from X in Rich, Y in Beautiful where X = Y").unwrap();
        assert_eq!(q.bindings.len(), 2);
    }

    #[test]
    fn abbreviated_binding_from_path_projection() {
        // "select E.Name from Employee" — implied variable E.
        let q = parse_select("select E.Name from Employee").unwrap();
        assert_eq!(q.bindings, vec![(sym("E"), Expr::name("Employee"))]);
    }

    #[test]
    fn nested_select_membership() {
        let q = parse_select(
            "select F from Family where F.Size > 5 and F in (select F from Family where F.Father.Age < 25)",
        )
        .unwrap();
        let filter = q.filter.unwrap();
        assert!(matches!(*filter, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn precedence_and_or_cmp() {
        let e = parse_expr("a = 1 or b = 2 and c = 3").unwrap();
        // `or` binds loosest.
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn isa_parses_at_comparison_level() {
        let e = parse_expr("P isa Adult and Q isa Minor").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
        roundtrip("P isa Adult and Q isa Minor");
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Lit(Value::Int(-5)));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::Lit(Value::Float(-2.5)));
        assert!(matches!(
            parse_expr("-x").unwrap(),
            Expr::Unary { op: UnOp::Neg, .. }
        ));
    }

    #[test]
    fn roundtrips() {
        for src in [
            "self.City",
            "[City: self.City, Street: self.Street, Zip_Code: self.Zip_Code]",
            "(select P from P in Person where P.Age >= 21)",
            "a + b * c - d / e % f",
            "not (a and b) or c",
            "x in s union t",
            "{1, 2, 3} intersect {2}",
            "list(1, 2) ",
            "if a then 1 else 2",
            "count((select P from P in Person))",
            "exists(select P from P in Person where P.Age < 0)",
            "e.Raise(100, x + 1)",
            "self.Husband.Children",
            "-x + 3",
            r#""a" ++ "b""#,
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn parses_class_decl() {
        let stmts = parse_program(
            "class Person type [Name: string, Age: integer];\n\
             class Employee inherits Person type [Salary: integer];",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        match &stmts[1] {
            Stmt::ClassDecl {
                name,
                parents,
                stored,
            } => {
                assert_eq!(*name, sym("Employee"));
                assert_eq!(parents, &[sym("Person")]);
                assert_eq!(stored.len(), 1);
            }
            other => panic!("expected ClassDecl, got {other:?}"),
        }
    }

    #[test]
    fn parses_virtual_class_forms() {
        let stmts = parse_program(
            "class Adult includes (select P from Person where P.Age >= 21);\n\
             class Ship includes Tanker, Cruiser, Trawler;\n\
             class On_Sale includes like On_Sale_Spec;\n\
             class Family includes imaginary (select [Husband: H] from H in Person);",
        )
        .unwrap();
        let kinds: Vec<_> = stmts
            .iter()
            .map(|s| match s {
                Stmt::VirtualClassDecl { includes, .. } => includes
                    .iter()
                    .map(|i| match i {
                        IncludeSpec::Class(_) => "class",
                        IncludeSpec::Query(_) => "query",
                        IncludeSpec::Like(_) => "like",
                        IncludeSpec::Imaginary(_) => "imaginary",
                    })
                    .collect::<Vec<_>>(),
                other => panic!("expected VirtualClassDecl, got {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                vec!["query"],
                vec!["class", "class", "class"],
                vec!["like"],
                vec!["imaginary"]
            ]
        );
    }

    #[test]
    fn parses_parameterized_class() {
        let stmts =
            parse_program("class Adult(A) includes (select P from Person where P.Age > A);")
                .unwrap();
        match &stmts[0] {
            Stmt::VirtualClassDecl { params, .. } => assert_eq!(params, &[sym("A")]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn base_class_with_params_rejected() {
        assert!(parse_program("class C(X) type [A: integer];").is_err());
    }

    #[test]
    fn parses_attribute_decls() {
        let stmts = parse_program(
            "attribute Address in class Employee;\n\
             attribute Address in class Manager has value self.Company.Address;\n\
             attribute Raise(amount: integer) of type integer in class Employee has value self.Salary + amount;",
        )
        .unwrap();
        match &stmts[0] {
            Stmt::AttributeDecl { body, ty, .. } => {
                assert!(body.is_none());
                assert!(ty.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[2] {
            Stmt::AttributeDecl {
                params, ty, body, ..
            } => {
                assert_eq!(params.len(), 1);
                assert!(ty.is_some());
                assert!(body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_view_header_statements() {
        let stmts = parse_program(
            "create view My_View;\n\
             import all classes from database Chrysler;\n\
             import class Person from database Ford as Ford_Person;\n\
             hide attribute Salary in class Employee;\n\
             hide attributes Name, Age in class Policy;\n\
             hide class Secret;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 6);
        assert_eq!(stmts[0], Stmt::CreateView(sym("My_View")));
        assert!(matches!(
            &stmts[1],
            Stmt::Import { what: ImportWhat::AllClasses, db } if *db == sym("Chrysler")
        ));
        assert!(matches!(
            &stmts[2],
            Stmt::Import {
                what: ImportWhat::Class { alias: Some(a), .. },
                ..
            } if *a == sym("Ford_Person")
        ));
        match &stmts[4] {
            Stmt::HideAttrs { attrs, .. } => assert_eq!(attrs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stmts[5], Stmt::HideClass(sym("Secret")));
    }

    #[test]
    fn parses_object_and_name_decls() {
        let stmts = parse_program(
            r#"object #1 in Person value [Name: "Maggy", Age: 65];
               name maggy = #1;"#,
        )
        .unwrap();
        assert!(matches!(&stmts[0], Stmt::ObjectDecl { oid: 1, .. }));
        assert!(matches!(&stmts[1], Stmt::NameDecl { oid: 1, .. }));
    }

    #[test]
    fn parses_updates() {
        let stmts = parse_program(
            r#"set maggy.Age = 66;
               insert Person value [Name: "Bart"];
               delete maggy;"#,
        )
        .unwrap();
        assert!(matches!(&stmts[0], Stmt::SetAttr { attr, .. } if *attr == sym("Age")));
        assert!(matches!(&stmts[1], Stmt::Insert { .. }));
        assert!(matches!(&stmts[2], Stmt::Delete(_)));
    }

    #[test]
    fn set_requires_attribute_target() {
        assert!(parse_program("set maggy = 3;").is_err());
    }

    #[test]
    fn missing_semicolon_between_statements_errors() {
        assert!(parse_program("create view V create view W;").is_err());
    }

    #[test]
    fn query_statement_falls_through() {
        let stmts = parse_program("select P from P in Person;").unwrap();
        assert!(matches!(&stmts[0], Stmt::Query(Expr::Select(_))));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_expr("a +").unwrap_err();
        match err {
            QueryError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Positions are computed from token offsets only when an error is
    /// built: far into a long script, and past multi-byte characters, they
    /// are the line and the character column of the offending token.
    #[test]
    fn error_positions_deep_in_a_script_and_past_multibyte_characters() {
        let pos_of = |src: &str| match parse_program(src).unwrap_err() {
            QueryError::Parse { pos, .. } => pos,
            other => panic!("unexpected {other:?}"),
        };
        let mut script = String::new();
        for i in 1..=1000 {
            if i == 900 {
                script.push_str("insert Person value [Id: ];\n");
            } else {
                script.push_str(&format!("insert Person value [Id: {i}];\n"));
            }
        }
        assert_eq!(pos_of(&script), Pos { line: 900, col: 26 });
        // `é` and `≥` are one column each, whatever their byte length.
        assert_eq!(
            pos_of("select P from P in Person\nwhere P.Né ≥ \"é\" )"),
            Pos { line: 2, col: 18 }
        );
    }

    /// Tokens are scanned on demand, yet a lexical error anywhere in the
    /// text is still what comes back: before an earlier syntax error, and
    /// after a parse that would otherwise have succeeded.
    #[test]
    fn a_lexical_error_anywhere_comes_before_any_syntax_error() {
        let lex_error_at = |src: &str| match parse_program(src).unwrap_err() {
            QueryError::Lex { pos, .. } => pos,
            other => panic!("{src:?}: expected a lexical error, got {other:?}"),
        };
        // A syntax error on line 1, a bad character on line 3.
        assert_eq!(
            lex_error_at("select from;\ncount(Person);\nx ~ y;"),
            Pos { line: 3, col: 4 }
        );
        // Complete statements, then an unterminated string.
        assert_eq!(
            lex_error_at("count(Person);\n\"abc"),
            Pos { line: 2, col: 5 }
        );
        // The first of two lexical errors, in text order.
        assert_eq!(lex_error_at("a ! b; c ~ d"), Pos { line: 1, col: 4 });
        // Without one, the syntax error stands.
        assert!(matches!(
            parse_program("select from;\ncount(Person);"),
            Err(QueryError::Parse { .. })
        ));
    }

    #[test]
    fn string_literals_yield_the_same_value_borrowed_or_owned() {
        assert_eq!(
            parse_expr(r#""plain""#).unwrap(),
            Expr::Lit(Value::str("plain"))
        );
        assert_eq!(
            parse_expr(r#""a\nb\t\"q\"\\""#).unwrap(),
            Expr::Lit(Value::str("a\nb\t\"q\"\\"))
        );
    }

    #[test]
    fn aggregate_vs_identifier() {
        // `count` not followed by `(` is a plain name.
        assert_eq!(parse_expr("count").unwrap(), Expr::name("count"));
        assert!(matches!(
            parse_expr("count(x)").unwrap(),
            Expr::Aggregate {
                func: AggFunc::Count,
                ..
            }
        ));
    }

    #[test]
    fn type_exprs_parse() {
        assert_eq!(
            parse_type("{[City: string]}").unwrap().to_string(),
            "{[City: string]}"
        );
        assert_eq!(
            parse_type("list(Person)").unwrap().to_string(),
            "list(Person)"
        );
        assert!(parse_type("{").is_err());
    }

    // ------------------------------------------------------------------
    // Fuzz-style hardening: every malformed input must return Err, never
    // panic or overflow the stack.
    // ------------------------------------------------------------------

    #[test]
    fn truncated_inputs_error_cleanly() {
        for src in [
            "",
            "select",
            "select P from",
            "select P from P in",
            "select P from P in Person where",
            "class Person type [Name:",
            "object #1 in Person value [",
            "1 +",
            "(1 + 2",
            "[Name: \"x\"",
            "{1, 2,",
            "\"unterminated",
            "P.",
            "#",
            "#i",
        ] {
            assert!(parse_expr(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn garbage_inputs_error_cleanly() {
        for src in [
            "\u{0}\u{0}\u{0}",
            "%%%@@!!",
            "select select select",
            "1e999999999999",
            "#18446744073709551616",
            "#i18446744073709551615",
            "where where where",
            ");;;](",
            "\\q",
        ] {
            assert!(parse_expr(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn deeply_nested_expressions_hit_the_depth_cap_not_the_stack() {
        // 10k nested parens would overflow the parser's recursion without
        // the depth cap; with it, a clean error comes back.
        let deep = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
        let e = parse_expr(&deep).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
        // Same for prefix operators, set literals, and nested selects.
        let deep = format!("{}1", "not ".repeat(10_000));
        assert!(parse_expr(&deep).is_err());
        let deep = format!("{}1{}", "{".repeat(10_000), "}".repeat(10_000));
        assert!(parse_expr(&deep).is_err());
        let deep = format!("{}{{[A: string]}}", "list(".repeat(10_000));
        assert!(parse_type(&deep).is_err());
    }

    #[test]
    fn nesting_below_the_cap_still_parses() {
        // Each paren level costs two depth units (binary + prefix tiers).
        let ok = format!("{}1{}", "(".repeat(40), ")".repeat(40));
        assert!(parse_expr(&ok).is_ok());
    }

    #[test]
    fn budget_tightens_the_parse_depth_cap_to_a_typed_breach() {
        let budget = std::sync::Arc::new(crate::Budget::new().with_max_depth(8));
        let deep = format!("{}1{}", "(".repeat(30), ")".repeat(30));
        let err = crate::budget::with(budget, || parse_expr(&deep)).unwrap_err();
        assert!(
            matches!(err, QueryError::ResourceExhausted(_)),
            "budget-capped depth must be a typed breach: {err}"
        );
        // The same input parses fine without a budget.
        assert!(parse_expr(&deep).is_ok());
    }
}
