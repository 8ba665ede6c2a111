//! Recursive-descent parser for the frontend language.
//!
//! The surface syntax is Relay-flavoured; see the crate docs and the model
//! sources in `acrobat-models` for full-scale examples.  The parser resolves
//! nothing — names are checked by the type checker.

use std::collections::BTreeMap;

use acrobat_tensor::Shape;

use crate::ast::*;
use crate::lexer::{lex, Tok, Token};
use crate::{IrError, Result};

/// Parses a complete module (ADT declarations plus function definitions).
///
/// The built-in `List` ADT is always available.
///
/// # Errors
///
/// Returns [`IrError::Lex`] / [`IrError::Parse`] with source positions;
/// a program nested deeper than [`MAX_NESTING`] is a parse error.
///
/// ```
/// let m = acrobat_ir::parse_module("def @main(%x: Int) -> Int { %x + 1 }")?;
/// assert_eq!(m.functions["main"].params.len(), 1);
/// # Ok::<(), acrobat_ir::IrError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Module> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, module: Module::with_prelude() };
    while !p.at(&Tok::Eof) {
        if p.at(&Tok::KwType) {
            p.parse_typedef()?;
        } else if p.at(&Tok::KwDef) {
            p.parse_fndef()?;
        } else {
            return Err(p.err("expected `type` or `def` at top level"));
        }
    }
    Ok(p.module)
}

/// Deepest nesting of expressions, types and blocks the parser accepts.
/// The descent, and every later pass over the tree it builds down to the
/// tree's `Drop`, recurses once per level, so unbounded nesting is a stack
/// overflow — which aborts the process instead of returning an error.  48
/// is over four times the deepest shipped model (StackRNN, 11) and two
/// thirds of what an unoptimized build parses, checks and analyzes on a
/// 2 MiB thread (call nesting gives out at 72).
pub const MAX_NESTING: usize = 48;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of [`Parser::nested`] currently open.
    depth: usize,
    module: Module,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn err(&self, msg: &str) -> IrError {
        let tok = &self.tokens[self.pos];
        IrError::Parse { line: tok.line, col: tok.col, msg: format!("{msg}, found {:?}", tok.tok) }
    }

    /// Runs `parse` one nesting level down, or fails once the program nests
    /// deeper than [`MAX_NESTING`].  Every production that re-enters
    /// itself goes through here.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn mk(&mut self, kind: ExprKind) -> Expr {
        Expr { id: self.module.fresh_id(), kind }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            _ => {
                self.pos -= 1;
                Err(self.err(&format!("expected {what}")))
            }
        }
    }

    // ---- declarations ----------------------------------------------------

    fn parse_typedef(&mut self) -> Result<()> {
        self.expect(&Tok::KwType, "`type`")?;
        let name = self.ident("type name")?;
        let mut type_vars = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                type_vars.push(self.ident("type variable")?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBracket, "`]`")?;
        }
        self.expect(&Tok::LBrace, "`{`")?;
        let mut ctors = Vec::new();
        loop {
            let cname = self.ident("constructor name")?;
            let mut fields = Vec::new();
            if self.eat(&Tok::LParen) {
                loop {
                    fields.push(self.parse_type()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "`)`")?;
            }
            ctors.push(Ctor { name: cname, fields });
            if !self.eat(&Tok::Comma) {
                break;
            }
            if self.at(&Tok::RBrace) {
                break; // trailing comma
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.module.adts.insert(name.clone(), Adt { name, type_vars, ctors });
        Ok(())
    }

    fn parse_fndef(&mut self) -> Result<()> {
        self.expect(&Tok::KwDef, "`def`")?;
        let name = match self.bump() {
            Tok::Global(n) => n,
            _ => {
                self.pos -= 1;
                return Err(self.err("expected `@function_name`"));
            }
        };
        self.expect(&Tok::LParen, "`(`")?;
        let params = self.parse_params()?;
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::ThinArrow, "`->`")?;
        let ret = self.parse_type()?;
        let body = self.parse_block()?;
        self.module.functions.insert(name.clone(), FnDef { name, params, ret, body });
        Ok(())
    }

    fn parse_params(&mut self) -> Result<Vec<Param>> {
        let mut params = Vec::new();
        if self.at(&Tok::RParen) {
            return Ok(params);
        }
        loop {
            let (name, kind) = match self.bump() {
                Tok::Local(n) => (n, ParamKind::Input),
                Tok::Model(n) => (n, ParamKind::Model),
                _ => {
                    self.pos -= 1;
                    return Err(self.err("expected parameter (`%name` or `$name`)"));
                }
            };
            let ty = if self.eat(&Tok::Colon) {
                self.parse_type()?
            } else {
                let v = self.module.next_type_var;
                self.module.next_type_var += 1;
                Type::Var(v)
            };
            params.push(Param { name, ty, kind });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(params)
    }

    // ---- types -----------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type> {
        self.nested(Parser::parse_type_inner)
    }

    fn parse_type_inner(&mut self) -> Result<Type> {
        match self.bump() {
            Tok::Ident(name) => match name.as_str() {
                "Tensor" => {
                    self.expect(&Tok::LBracket, "`[` after Tensor")?;
                    let dims = self.parse_shape_lit()?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    Ok(Type::Tensor(Shape::from(dims)))
                }
                "Int" => Ok(Type::Int),
                "Float" => Ok(Type::Float),
                "Bool" => Ok(Type::Bool),
                _ => {
                    let mut args = Vec::new();
                    if self.eat(&Tok::LBracket) {
                        loop {
                            args.push(self.parse_type()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RBracket, "`]`")?;
                    }
                    Ok(Type::Adt { name, args })
                }
            },
            Tok::LParen => {
                let mut parts = vec![self.parse_type()?];
                while self.eat(&Tok::Comma) {
                    parts.push(self.parse_type()?);
                }
                self.expect(&Tok::RParen, "`)`")?;
                if parts.len() == 1 {
                    Ok(parts.pop().expect("one element"))
                } else {
                    Ok(Type::Tuple(parts))
                }
            }
            Tok::KwFn => {
                self.expect(&Tok::LParen, "`(`")?;
                let mut params = Vec::new();
                if !self.at(&Tok::RParen) {
                    loop {
                        params.push(self.parse_type()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen, "`)`")?;
                self.expect(&Tok::ThinArrow, "`->`")?;
                let ret = Box::new(self.parse_type()?);
                Ok(Type::Fn { params, ret })
            }
            _ => {
                self.pos -= 1;
                Err(self.err("expected a type"))
            }
        }
    }

    fn parse_shape_lit(&mut self) -> Result<Vec<usize>> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut dims = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                match self.bump() {
                    Tok::Int(v) if v >= 0 => dims.push(v as usize),
                    _ => {
                        self.pos -= 1;
                        return Err(self.err("expected a dimension"));
                    }
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(dims)
    }

    // ---- statements / blocks ----------------------------------------------

    /// Parses `{ stmt* expr }` where statements are `let`-bindings, `phase;`
    /// markers, or discarded expressions terminated by `;`.
    fn parse_block(&mut self) -> Result<Expr> {
        self.nested(|p| {
            p.expect(&Tok::LBrace, "`{`")?;
            let e = p.parse_stmts()?;
            p.expect(&Tok::RBrace, "`}`")?;
            Ok(e)
        })
    }

    /// Parses a statement sequence into its `let` spine.  The spine is a
    /// loop, not a recursion, so its length is not nesting: the bindings
    /// are collected in order and folded from the tail, which assigns
    /// expression ids in the same (innermost-`Let`-first) order a
    /// recursive descent would.
    fn parse_stmts(&mut self) -> Result<Expr> {
        let mut bindings: Vec<(Pattern, Expr)> = Vec::new();
        let tail = loop {
            if self.eat(&Tok::KwLet) {
                let pat = self.parse_pattern()?;
                self.expect(&Tok::Assign, "`=`")?;
                let value = self.parse_expr()?;
                self.expect(&Tok::Semi, "`;` after let")?;
                bindings.push((pat, value));
                continue;
            }
            if self.at(&Tok::KwPhase) && self.peek2() == &Tok::Semi {
                self.bump();
                self.bump();
                let marker = self.mk(ExprKind::PhaseBoundary);
                bindings.push((Pattern::Wildcard, marker));
                continue;
            }
            let e = self.parse_expr()?;
            if !self.eat(&Tok::Semi) {
                break e;
            }
            bindings.push((Pattern::Wildcard, e));
        };
        Ok(bindings.into_iter().rev().fold(tail, |body, (pat, value)| {
            self.mk(ExprKind::Let { pat, value: Box::new(value), body: Box::new(body) })
        }))
    }

    fn parse_pattern(&mut self) -> Result<Pattern> {
        match self.bump() {
            Tok::Local(n) => {
                if n == "_" {
                    Ok(Pattern::Wildcard)
                } else {
                    Ok(Pattern::Var(n))
                }
            }
            Tok::LParen => {
                let mut names = Vec::new();
                loop {
                    match self.bump() {
                        Tok::Local(n) => names.push(n),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("expected `%name` in tuple pattern"));
                        }
                    }
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Pattern::Tuple(names))
            }
            _ => {
                self.pos -= 1;
                Err(self.err("expected a binding pattern"))
            }
        }
    }

    // ---- expressions -------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Parser::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.parse_and()?;
            lhs = self.mk(ExprKind::ScalarBin {
                op: ScalarBinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.parse_cmp()?;
            lhs = self.mk(ExprKind::ScalarBin {
                op: ScalarBinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Tok::Lt => ScalarBinOp::Lt,
            Tok::Le => ScalarBinOp::Le,
            Tok::Gt => ScalarBinOp::Gt,
            Tok::Ge => ScalarBinOp::Ge,
            Tok::EqEq => ScalarBinOp::Eq,
            Tok::Ne => ScalarBinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_additive()?;
        Ok(self.mk(ExprKind::ScalarBin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ScalarBinOp::Add,
                Tok::Minus => ScalarBinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = self.mk(ExprKind::ScalarBin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ScalarBinOp::Mul,
                Tok::Slash => ScalarBinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = self.mk(ExprKind::ScalarBin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Minus) {
            let operand = self.nested(Parser::parse_unary)?;
            return Ok(
                self.mk(ExprKind::ScalarUn { op: ScalarUnOp::Neg, operand: Box::new(operand) })
            );
        }
        if self.eat(&Tok::Bang) {
            let operand = self.nested(Parser::parse_unary)?;
            return Ok(
                self.mk(ExprKind::ScalarUn { op: ScalarUnOp::Not, operand: Box::new(operand) })
            );
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_atom()?;
        while self.at(&Tok::Dot) {
            self.bump();
            match self.bump() {
                Tok::Int(i) if i >= 0 => {
                    e = self.mk(ExprKind::Proj { tuple: Box::new(e), index: i as usize });
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.err("expected tuple index after `.`"));
                }
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(args)
    }

    fn parse_attrs(&mut self) -> Result<BTreeMap<String, AttrValue>> {
        let mut attrs = BTreeMap::new();
        if !self.eat(&Tok::LBracket) {
            return Ok(attrs);
        }
        loop {
            let key = self.ident("attribute name")?;
            self.expect(&Tok::Assign, "`=`")?;
            let value = match self.peek().clone() {
                Tok::Int(v) => {
                    self.bump();
                    AttrValue::Int(v)
                }
                Tok::Float(v) => {
                    self.bump();
                    AttrValue::Float(v)
                }
                Tok::Minus => {
                    self.bump();
                    match self.bump() {
                        Tok::Int(v) => AttrValue::Int(-v),
                        Tok::Float(v) => AttrValue::Float(-v),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("expected number after `-`"));
                        }
                    }
                }
                Tok::LParen => AttrValue::Shape(self.parse_shape_lit()?),
                _ => return Err(self.err("expected attribute value")),
            };
            attrs.insert(key, value);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(attrs)
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(self.mk(ExprKind::IntLit(v)))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(self.mk(ExprKind::FloatLit(v)))
            }
            Tok::KwTrue => {
                self.bump();
                Ok(self.mk(ExprKind::BoolLit(true)))
            }
            Tok::KwFalse => {
                self.bump();
                Ok(self.mk(ExprKind::BoolLit(false)))
            }
            Tok::Local(n) => {
                self.bump();
                // `%f(args)` applies a lambda-typed variable.
                if self.at(&Tok::LParen) {
                    let args = self.parse_args()?;
                    return Ok(self.mk(ExprKind::Call { callee: Callee::Var(n), args }));
                }
                Ok(self.mk(ExprKind::Var(n)))
            }
            Tok::Model(n) => {
                self.bump();
                Ok(self.mk(ExprKind::Var(n)))
            }
            Tok::Global(n) => {
                self.bump();
                if self.at(&Tok::LParen) {
                    let args = self.parse_args()?;
                    Ok(self.mk(ExprKind::Call { callee: Callee::Global(n), args }))
                } else {
                    // Bare global reference: sugar for an eta-expanded lambda
                    // is handled in `map` below; elsewhere it is an error at
                    // type checking time, so represent it as a call-less var.
                    Err(self.err("global function reference requires arguments (use `map(@f, …)` or a lambda)"))
                }
            }
            Tok::LParen => {
                self.bump();
                let mut parts = vec![self.parse_expr()?];
                while self.eat(&Tok::Comma) {
                    parts.push(self.parse_expr()?);
                }
                self.expect(&Tok::RParen, "`)`")?;
                if parts.len() == 1 {
                    Ok(parts.pop().expect("one element"))
                } else {
                    Ok(self.mk(ExprKind::Tuple(parts)))
                }
            }
            Tok::KwIf => {
                self.bump();
                let cond = self.parse_expr()?;
                let then = self.parse_block()?;
                self.expect(&Tok::KwElse, "`else`")?;
                let els = if self.at(&Tok::KwIf) {
                    self.nested(Parser::parse_atom)?
                } else {
                    self.parse_block()?
                };
                Ok(self.mk(ExprKind::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                }))
            }
            Tok::KwMatch => {
                self.bump();
                let scrutinee = self.parse_expr()?;
                self.expect(&Tok::LBrace, "`{`")?;
                let mut arms = Vec::new();
                loop {
                    let ctor = self.ident("constructor pattern")?;
                    let mut binders = Vec::new();
                    if self.eat(&Tok::LParen) {
                        loop {
                            match self.bump() {
                                Tok::Local(n) => binders.push(n),
                                _ => {
                                    self.pos -= 1;
                                    return Err(self.err("expected `%name` binder"));
                                }
                            }
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen, "`)`")?;
                    }
                    self.expect(&Tok::FatArrow, "`=>`")?;
                    let body = if self.at(&Tok::LBrace) {
                        self.parse_block()?
                    } else {
                        self.parse_expr()?
                    };
                    arms.push(Arm { ctor, binders, body });
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                    if self.at(&Tok::RBrace) {
                        break;
                    }
                }
                self.expect(&Tok::RBrace, "`}`")?;
                Ok(self.mk(ExprKind::Match { scrutinee: Box::new(scrutinee), arms }))
            }
            Tok::KwParallel => {
                self.bump();
                let args = self.parse_args()?;
                Ok(self.mk(ExprKind::Parallel(args)))
            }
            Tok::KwFn => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let params = self.parse_params()?;
                self.expect(&Tok::RParen, "`)`")?;
                let body = self.parse_block()?;
                Ok(self.mk(ExprKind::Lambda { params, body: Box::new(body) }))
            }
            Tok::KwMap => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let func = if let Tok::Global(g) = self.peek().clone() {
                    // Sugar: `map(@f, xs)` ≡ `map(fn(%__map_arg) { @f(%__map_arg) }, xs)`.
                    self.bump();
                    let v = self.module.next_type_var;
                    self.module.next_type_var += 1;
                    let arg = self.mk(ExprKind::Var("__map_arg".into()));
                    let call =
                        self.mk(ExprKind::Call { callee: Callee::Global(g), args: vec![arg] });
                    self.mk(ExprKind::Lambda {
                        params: vec![Param {
                            name: "__map_arg".into(),
                            ty: Type::Var(v),
                            kind: ParamKind::Input,
                        }],
                        body: Box::new(call),
                    })
                } else {
                    self.parse_expr()?
                };
                self.expect(&Tok::Comma, "`,`")?;
                let list = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(self.mk(ExprKind::Map { func: Box::new(func), list: Box::new(list) }))
            }
            Tok::Ident(name) => {
                self.bump();
                // `item` / `sample` / `rand_range` intrinsics.
                match name.as_str() {
                    "item" | "sample" => {
                        let mut args = self.parse_args()?;
                        if args.len() != 1 {
                            return Err(self.err(&format!("`{name}` takes exactly one argument")));
                        }
                        let kind = if name == "item" { SyncKind::Item } else { SyncKind::Sample };
                        return Ok(self.mk(ExprKind::Sync {
                            kind,
                            tensor: Box::new(args.pop().expect("one arg")),
                        }));
                    }
                    "rand_range" => {
                        let attrs = self.parse_attrs()?;
                        let args = self.parse_args()?;
                        if !args.is_empty() {
                            return Err(self.err("`rand_range` takes attributes, not arguments"));
                        }
                        let get = |k: &str| match attrs.get(k) {
                            Some(AttrValue::Int(v)) => Ok(*v),
                            _ => Err(self.err(&format!("`rand_range` needs integer attr `{k}`"))),
                        };
                        let lo = get("lo")?;
                        let hi = get("hi")?;
                        return Ok(self.mk(ExprKind::RandRange { lo, hi }));
                    }
                    "to_float" => {
                        let mut args = self.parse_args()?;
                        if args.len() != 1 {
                            return Err(self.err("`to_float` takes exactly one argument"));
                        }
                        return Ok(self.mk(ExprKind::ScalarUn {
                            op: ScalarUnOp::ToFloat,
                            operand: Box::new(args.pop().expect("one arg")),
                        }));
                    }
                    _ => {}
                }
                let first_upper = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                if first_upper {
                    // Constructor application (possibly nullary: `Nil`).
                    let args = if self.at(&Tok::LParen) { self.parse_args()? } else { Vec::new() };
                    Ok(self.mk(ExprKind::Call { callee: Callee::Ctor(name), args }))
                } else {
                    // Tensor operator call with optional attributes.
                    let attrs = self.parse_attrs()?;
                    let args = self.parse_args()?;
                    Ok(self.mk(ExprKind::Call { callee: Callee::Op { name, attrs }, args }))
                }
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        parse_module(src).unwrap()
    }

    #[test]
    fn minimal_fn() {
        let m = parse("def @main(%x: Int) -> Int { %x + 1 }");
        let f = &m.functions["main"];
        assert_eq!(f.params[0].kind, ParamKind::Input);
        assert!(matches!(f.body.kind, ExprKind::ScalarBin { op: ScalarBinOp::Add, .. }));
    }

    #[test]
    fn model_params() {
        let m = parse("def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { matmul(%x, $w) }");
        let f = &m.functions["main"];
        assert_eq!(f.params[0].kind, ParamKind::Model);
        assert_eq!(f.params[1].kind, ParamKind::Input);
        assert_eq!(f.params[0].ty, Type::tensor(&[2, 2]));
    }

    #[test]
    fn rnn_listing_parses() {
        // Mirror of the paper's Listing 1.
        let src = r#"
            def @rnn(%inps: List[Tensor[(1, 8)]], %state: Tensor[(1, 8)],
                     $bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)])
                -> List[Tensor[(1, 8)]] {
                match %inps {
                    Nil => Nil,
                    Cons(%inp, %tail) => {
                        let %inp_linear = add($bias, matmul(%inp, $i_wt));
                        let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                        Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
                    }
                }
            }
            def @main($bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)],
                      $init: Tensor[(1, 8)], $c_wt: Tensor[(8, 4)], $c_bias: Tensor[(1, 4)],
                      %inps: List[Tensor[(1, 8)]]) -> List[Tensor[(1, 4)]] {
                let %states = @rnn(%inps, $init, $bias, $i_wt, $h_wt);
                phase;
                map(fn(%p: Tensor[(1, 8)]) { relu(add($c_bias, matmul(%p, $c_wt))) }, %states)
            }
        "#;
        let m = parse(src);
        assert_eq!(m.functions.len(), 2);
        // @main body: Let -> Let(phase) -> Map
        let mut saw_phase = false;
        let mut saw_map = false;
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| match &e.kind {
            ExprKind::PhaseBoundary => saw_phase = true,
            ExprKind::Map { .. } => saw_map = true,
            _ => {}
        });
        assert!(saw_phase && saw_map);
    }

    #[test]
    fn typedef_tree() {
        let m = parse(
            "type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }
             def @main(%t: Tree[Tensor[(1, 2)]]) -> Int { 0 }",
        );
        let adt = &m.adts["Tree"];
        assert_eq!(adt.type_vars, vec!["a"]);
        assert_eq!(adt.ctors.len(), 2);
        assert_eq!(adt.ctors[1].fields.len(), 2);
    }

    #[test]
    fn parallel_and_tuple_destructure() {
        let m = parse(
            "def @f(%x: Int) -> Int { %x }
             def @main(%x: Int) -> Int {
                let (%a, %b) = parallel(@f(%x), @f(%x));
                %a + %b
             }",
        );
        let mut saw = false;
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::Parallel(es) = &e.kind {
                assert_eq!(es.len(), 2);
                saw = true;
            }
        });
        assert!(saw);
    }

    #[test]
    fn op_attrs() {
        let m = parse("def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 8)] { concat[axis=1](%x, %x) }");
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::Call { callee: Callee::Op { name, attrs }, .. } = &e.kind {
                assert_eq!(name, "concat");
                assert_eq!(attrs.get("axis"), Some(&AttrValue::Int(1)));
            }
        });
    }

    #[test]
    fn sync_intrinsics() {
        let m = parse("def @main(%x: Tensor[(1, 1)]) -> Bool { item(%x) > sample(%x) }");
        let mut kinds = Vec::new();
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::Sync { kind, .. } = &e.kind {
                kinds.push(*kind);
            }
        });
        assert_eq!(kinds, vec![SyncKind::Item, SyncKind::Sample]);
    }

    #[test]
    fn rand_range_attrs() {
        let m = parse("def @main(%x: Int) -> Int { rand_range[lo=20, hi=40]() }");
        let mut ok = false;
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::RandRange { lo: 20, hi: 40 } = e.kind {
                ok = true;
            }
        });
        assert!(ok);
    }

    #[test]
    fn if_else_chain() {
        let m = parse(
            "def @main(%x: Int) -> Int {
                if %x < 0 { 0 } else if %x < 10 { 1 } else { 2 }
            }",
        );
        assert!(matches!(m.functions["main"].body.kind, ExprKind::If { .. }));
    }

    #[test]
    fn projection() {
        let m = parse("def @main(%x: (Int, Bool)) -> Int { %x.0 }");
        assert!(matches!(m.functions["main"].body.kind, ExprKind::Proj { index: 0, .. }));
    }

    #[test]
    fn map_global_sugar() {
        let m = parse(
            "def @f(%x: Int) -> Int { %x }
             def @main(%xs: List[Int]) -> List[Int] { map(@f, %xs) }",
        );
        let mut saw_lambda = false;
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::Map { func, .. } = &e.kind {
                saw_lambda = matches!(func.kind, ExprKind::Lambda { .. });
            }
        });
        assert!(saw_lambda, "map(@f, …) should desugar to a lambda");
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_module("def @main(%x: Int) -> Int {\n  %x +\n}").unwrap_err();
        match err {
            IrError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bare_global_rejected() {
        assert!(parse_module("def @main(%x: Int) -> Int { @main }").is_err());
    }

    #[test]
    fn ctor_nullary_without_parens() {
        let m = parse("def @main(%x: Int) -> List[Int] { Nil }");
        assert!(matches!(
            &m.functions["main"].body.kind,
            ExprKind::Call { callee: Callee::Ctor(c), args } if c == "Nil" && args.is_empty()
        ));
    }

    #[test]
    fn statement_sequencing_desugars_to_let() {
        let m = parse("def @main(%x: Int) -> Int { %x + 1; %x + 2 }");
        assert!(matches!(
            &m.functions["main"].body.kind,
            ExprKind::Let { pat: Pattern::Wildcard, .. }
        ));
    }
}
