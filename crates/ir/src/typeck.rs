//! Type and shape checker.
//!
//! The checker is an *elaboration* pass: besides validating the program it
//! (1) records the type of every expression in [`Module::expr_types`],
//! (2) resolves every tensor-operator call site to its
//!     [`acrobat_tensor::PrimOp`] in [`Module::op_prims`] — including static
//!     shape inference for the operator's result, and
//! (3) rewrites overloaded scalar syntax on tensors (`%a + %b`,
//!     `$bias + matmul(…)` as in the paper's Listing 1) into explicit
//!     operator calls so that downstream passes see a uniform IR.
//!
//! All tensor shapes are static, as in the paper's models (dynamism lives in
//! the *control flow*, not in operator shapes; variable-length data is
//! carried by recursive ADTs).

use std::collections::{BTreeMap, HashMap};

use acrobat_tensor::{PrimOp, Shape};

use crate::ast::*;
use crate::ops;
use crate::{IrError, Result};

/// Type checks and elaborates a module.
///
/// # Errors
///
/// Returns [`IrError::Type`] / [`IrError::Unresolved`] describing the first
/// problem found.
///
/// ```
/// let m = acrobat_ir::parse_module(
///     "def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { relu(%x) }",
/// )?;
/// let typed = acrobat_ir::typeck::check_module(m)?;
/// assert!(!typed.op_prims.is_empty());
/// # Ok::<(), acrobat_ir::IrError>(())
/// ```
pub fn check_module(mut module: Module) -> Result<Module> {
    let fn_sigs: BTreeMap<String, (Vec<Type>, Type)> = module
        .functions
        .iter()
        .map(|(name, f)| {
            (name.clone(), (f.params.iter().map(|p| p.ty.clone()).collect(), f.ret.clone()))
        })
        .collect();

    let mut functions = std::mem::take(&mut module.functions);
    let mut ctx = Ctx {
        adts: &module.adts,
        fn_sigs: &fn_sigs,
        expr_types: BTreeMap::new(),
        op_prims: BTreeMap::new(),
        subst: HashMap::new(),
        next_var: module.next_type_var,
        func: String::new(),
        next_expr_id: module.next_expr_id,
    };

    for (name, f) in functions.iter_mut() {
        ctx.func = name.clone();
        let mut env: HashMap<String, Type> = HashMap::new();
        for p in &f.params {
            if !p.ty.is_concrete() {
                return Err(ctx.error(format!(
                    "parameter `{}` of @{} must have a concrete type annotation",
                    p.name, name
                )));
            }
            env.insert(p.name.clone(), p.ty.clone());
        }
        let body_ty = ctx.check(&mut f.body, &mut env)?;
        ctx.unify(&body_ty, &f.ret.clone()).map_err(|e| {
            ctx.error(format!("body of @{name} has type {body_ty}, declared {}: {e}", f.ret))
        })?;
    }

    // Resolve all recorded types through the final substitution.
    let resolved: BTreeMap<ExprId, Type> =
        ctx.expr_types.iter().map(|(id, t)| (*id, ctx.resolve(t))).collect();

    module.functions = functions;
    module.expr_types = resolved;
    module.op_prims = ctx.op_prims;
    module.next_type_var = ctx.next_var;
    module.next_expr_id = ctx.next_expr_id;
    Ok(module)
}

/// The bindings one `let` pattern shadowed: each name with the type it
/// had before, restored when the binding's scope ends.
type Shadowed = Vec<(String, Option<Type>)>;

struct Ctx<'a> {
    adts: &'a BTreeMap<String, Adt>,
    fn_sigs: &'a BTreeMap<String, (Vec<Type>, Type)>,
    expr_types: BTreeMap<ExprId, Type>,
    op_prims: BTreeMap<ExprId, PrimOp>,
    subst: HashMap<u32, Type>,
    next_var: u32,
    func: String,
    next_expr_id: u32,
}

impl<'a> Ctx<'a> {
    fn error(&self, msg: String) -> IrError {
        IrError::Type { func: self.func.clone(), msg }
    }

    fn fresh(&mut self) -> Type {
        let v = self.next_var;
        self.next_var += 1;
        Type::Var(v)
    }

    fn fresh_expr_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr_id);
        self.next_expr_id += 1;
        id
    }

    /// Follows the substitution one level.
    fn shallow(&self, t: &Type) -> Type {
        let mut t = t.clone();
        while let Type::Var(v) = t {
            match self.subst.get(&v) {
                Some(next) => t = next.clone(),
                None => return Type::Var(v),
            }
        }
        t
    }

    /// Fully applies the substitution.
    fn resolve(&self, t: &Type) -> Type {
        match self.shallow(t) {
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| self.resolve(t)).collect()),
            Type::Adt { name, args } => {
                Type::Adt { name, args: args.iter().map(|t| self.resolve(t)).collect() }
            }
            Type::Fn { params, ret } => Type::Fn {
                params: params.iter().map(|t| self.resolve(t)).collect(),
                ret: Box::new(self.resolve(&ret)),
            },
            other => other,
        }
    }

    fn occurs(&self, v: u32, t: &Type) -> bool {
        match self.shallow(t) {
            Type::Var(w) => v == w,
            Type::Tuple(ts) => ts.iter().any(|t| self.occurs(v, t)),
            Type::Adt { args, .. } => args.iter().any(|t| self.occurs(v, t)),
            Type::Fn { params, ret } => {
                params.iter().any(|t| self.occurs(v, t)) || self.occurs(v, &ret)
            }
            _ => false,
        }
    }

    fn unify(&mut self, a: &Type, b: &Type) -> std::result::Result<(), String> {
        let (a, b) = (self.shallow(a), self.shallow(b));
        match (&a, &b) {
            (Type::Var(v), _) => {
                if let Type::Var(w) = b {
                    if w == *v {
                        return Ok(());
                    }
                }
                if self.occurs(*v, &b) {
                    return Err(format!("occurs check failed: ?{v} in {b}"));
                }
                self.subst.insert(*v, b);
                Ok(())
            }
            (_, Type::Var(_)) => self.unify(&b, &a),
            (Type::Tensor(s1), Type::Tensor(s2)) => {
                if s1 == s2 {
                    Ok(())
                } else {
                    Err(format!("tensor shapes differ: {s1} vs {s2}"))
                }
            }
            (Type::Int, Type::Int) | (Type::Float, Type::Float) | (Type::Bool, Type::Bool) => {
                Ok(())
            }
            (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.clone().iter().zip(ys.clone().iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Type::Adt { name: n1, args: a1 }, Type::Adt { name: n2, args: a2 })
                if n1 == n2 && a1.len() == a2.len() =>
            {
                for (x, y) in a1.clone().iter().zip(a2.clone().iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Type::Fn { params: p1, ret: r1 }, Type::Fn { params: p2, ret: r2 })
                if p1.len() == p2.len() =>
            {
                for (x, y) in p1.clone().iter().zip(p2.clone().iter()) {
                    self.unify(x, y)?;
                }
                self.unify(&r1.clone(), &r2.clone())
            }
            _ => Err(format!("cannot unify {a} with {b}")),
        }
    }

    /// Instantiates an ADT constructor: returns (field types, adt type) with
    /// the ADT's type variables replaced by fresh unification variables.
    fn instantiate_ctor(&mut self, ctor_name: &str) -> Result<(Vec<Type>, Type)> {
        let adt =
            self.adts.values().find(|a| a.ctors.iter().any(|c| c.name == ctor_name)).ok_or_else(
                || IrError::Unresolved { kind: "constructor", name: ctor_name.into() },
            )?;
        let mapping: HashMap<&str, Type> =
            adt.type_vars.iter().map(|v| (v.as_str(), self.fresh())).collect();
        fn subst_ty(t: &Type, mapping: &HashMap<&str, Type>) -> Type {
            match t {
                Type::Adt { name, args }
                    if args.is_empty() && mapping.contains_key(name.as_str()) =>
                {
                    mapping[name.as_str()].clone()
                }
                Type::Adt { name, args } => Type::Adt {
                    name: name.clone(),
                    args: args.iter().map(|a| subst_ty(a, mapping)).collect(),
                },
                Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| subst_ty(t, mapping)).collect()),
                Type::Fn { params, ret } => Type::Fn {
                    params: params.iter().map(|t| subst_ty(t, mapping)).collect(),
                    ret: Box::new(subst_ty(ret, mapping)),
                },
                other => other.clone(),
            }
        }
        let ctor = adt.ctors.iter().find(|c| c.name == ctor_name).expect("ctor exists");
        let fields = ctor.fields.iter().map(|f| subst_ty(f, &mapping)).collect();
        let adt_ty = Type::Adt {
            name: adt.name.clone(),
            args: adt.type_vars.iter().map(|v| mapping[v.as_str()].clone()).collect(),
        };
        Ok((fields, adt_ty))
    }

    /// Requires `t` to resolve to a tensor type, returning its shape.
    fn as_tensor(&self, t: &Type) -> std::result::Result<Shape, String> {
        match self.shallow(t) {
            Type::Tensor(s) => Ok(s),
            other => Err(format!("expected a tensor, got {other}")),
        }
    }

    fn record(&mut self, id: ExprId, ty: Type) -> Type {
        self.expr_types.insert(id, ty.clone());
        ty
    }

    /// Checks a `let` spine as a loop: its length is not nesting, and one
    /// `check` frame per binding overflows a 2 MiB stack within a few
    /// dozen bindings in debug builds.  Values are checked and patterns
    /// bound in order, then the tail; the bindings are then unwound
    /// innermost first, each `Let` taking its body's type — the same
    /// fresh variables, unifications and recorded types, in the same
    /// order, as a recursion.
    fn check_let_spine(
        &mut self,
        expr: &mut Expr,
        env: &mut HashMap<String, Type>,
    ) -> Result<Type> {
        let mut frames: Vec<(ExprId, Shadowed)> = Vec::new();
        let mut cur = expr;
        while matches!(cur.kind, ExprKind::Let { .. }) {
            let id = cur.id;
            let ExprKind::Let { pat, value, body } = &mut cur.kind else { unreachable!() };
            let vty = self.check(value, env)?;
            let mut shadowed = Shadowed::new();
            match pat {
                Pattern::Var(name) => {
                    shadowed.push((name.clone(), env.insert(name.clone(), vty)));
                }
                Pattern::Wildcard => {}
                Pattern::Tuple(names) => {
                    let parts: Vec<Type> = (0..names.len()).map(|_| self.fresh()).collect();
                    self.unify(&vty, &Type::Tuple(parts.clone()))
                        .map_err(|e| self.error(format!("tuple pattern: {e}")))?;
                    for (n, t) in names.iter().zip(parts) {
                        shadowed.push((n.clone(), env.insert(n.clone(), t)));
                    }
                }
            }
            frames.push((id, shadowed));
            cur = body;
        }
        let mut ty = self.check(cur, env)?;
        for (id, shadowed) in frames.into_iter().rev() {
            for (name, old) in shadowed {
                match old {
                    Some(t) => env.insert(name, t),
                    None => env.remove(&name),
                };
            }
            ty = self.record(id, ty);
        }
        Ok(ty)
    }

    fn check(&mut self, expr: &mut Expr, env: &mut HashMap<String, Type>) -> Result<Type> {
        if matches!(expr.kind, ExprKind::Let { .. }) {
            return self.check_let_spine(expr, env);
        }
        let id = expr.id;
        let ty = match &mut expr.kind {
            ExprKind::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| IrError::Unresolved { kind: "variable", name: name.clone() })?,
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Float,
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::PhaseBoundary => Type::Int,
            ExprKind::RandRange { lo, hi } => {
                if lo > hi {
                    return Err(self.error(format!("rand_range: lo {lo} > hi {hi}")));
                }
                if hi.checked_sub(*lo).and_then(|d| d.checked_add(1)).is_none() {
                    return Err(self.error(format!(
                        "rand_range: [{lo}, {hi}] spans more than {} values",
                        i64::MAX
                    )));
                }
                Type::Int
            }
            ExprKind::Let { .. } => unreachable!("let spines are checked by check_let_spine"),
            ExprKind::If { cond, then, els } => {
                let cty = self.check(cond, env)?;
                self.unify(&cty, &Type::Bool)
                    .map_err(|e| self.error(format!("if condition: {e}")))?;
                let tty = self.check(then, env)?;
                let ety = self.check(els, env)?;
                self.unify(&tty, &ety)
                    .map_err(|e| self.error(format!("if branches disagree: {e}")))?;
                tty
            }
            ExprKind::Match { scrutinee, arms } => {
                let sty = self.check(scrutinee, env)?;
                if arms.is_empty() {
                    return Err(self.error("match with no arms".into()));
                }
                // All arms must belong to one ADT; check exhaustiveness.
                let first_adt = self
                    .adts
                    .values()
                    .find(|a| a.ctors.iter().any(|c| c.name == arms[0].ctor))
                    .ok_or_else(|| IrError::Unresolved {
                        kind: "constructor",
                        name: arms[0].ctor.clone(),
                    })?
                    .name
                    .clone();
                let adt = self.adts[&first_adt].clone();
                let mut covered: Vec<&str> = Vec::new();
                let result = self.fresh();
                for arm in arms.iter_mut() {
                    let ctor = adt.ctors.iter().find(|c| c.name == arm.ctor).ok_or_else(|| {
                        self.error(format!(
                            "match arm `{}` is not a constructor of `{}`",
                            arm.ctor, adt.name
                        ))
                    })?;
                    if covered.contains(&arm.ctor.as_str()) {
                        return Err(self.error(format!("duplicate match arm `{}`", arm.ctor)));
                    }
                    covered.push(&arm.ctor);
                    if ctor.fields.len() != arm.binders.len() {
                        return Err(self.error(format!(
                            "constructor `{}` has {} fields, pattern binds {}",
                            arm.ctor,
                            ctor.fields.len(),
                            arm.binders.len()
                        )));
                    }
                    let (fields, adt_ty) = self.instantiate_ctor(&arm.ctor)?;
                    self.unify(&sty, &adt_ty)
                        .map_err(|e| self.error(format!("match scrutinee: {e}")))?;
                    let mut shadowed = Vec::new();
                    for (binder, fty) in arm.binders.iter().zip(fields) {
                        shadowed.push((binder.clone(), env.insert(binder.clone(), fty)));
                    }
                    let aty = self.check(&mut arm.body, env)?;
                    self.unify(&aty, &result)
                        .map_err(|e| self.error(format!("match arms disagree: {e}")))?;
                    for (name, old) in shadowed {
                        match old {
                            Some(t) => env.insert(name, t),
                            None => env.remove(&name),
                        };
                    }
                }
                if covered.len() != adt.ctors.len() {
                    let missing: Vec<&str> = adt
                        .ctors
                        .iter()
                        .map(|c| c.name.as_str())
                        .filter(|c| !covered.contains(c))
                        .collect();
                    return Err(self.error(format!(
                        "non-exhaustive match on `{}`: missing {missing:?}",
                        adt.name
                    )));
                }
                result
            }
            ExprKind::Call { callee, args } => {
                let arg_tys: Vec<Type> = {
                    let mut tys = Vec::with_capacity(args.len());
                    for a in args.iter_mut() {
                        tys.push(self.check(a, env)?);
                    }
                    tys
                };
                match callee {
                    Callee::Global(name) => {
                        let (params, ret) = self
                            .fn_sigs
                            .get(name)
                            .ok_or_else(|| IrError::Unresolved {
                                kind: "function",
                                name: name.clone(),
                            })?
                            .clone();
                        if params.len() != arg_tys.len() {
                            return Err(self.error(format!(
                                "@{name} takes {} arguments, got {}",
                                params.len(),
                                arg_tys.len()
                            )));
                        }
                        for (i, (p, a)) in params.iter().zip(&arg_tys).enumerate() {
                            self.unify(a, p)
                                .map_err(|e| self.error(format!("argument {i} of @{name}: {e}")))?;
                        }
                        ret
                    }
                    Callee::Ctor(name) => {
                        let (fields, adt_ty) = self.instantiate_ctor(name)?;
                        if fields.len() != arg_tys.len() {
                            return Err(self.error(format!(
                                "constructor `{name}` takes {} fields, got {}",
                                fields.len(),
                                arg_tys.len()
                            )));
                        }
                        for (i, (f, a)) in fields.iter().zip(&arg_tys).enumerate() {
                            self.unify(a, f)
                                .map_err(|e| self.error(format!("field {i} of `{name}`: {e}")))?;
                        }
                        adt_ty
                    }
                    Callee::Var(name) => {
                        let fty = env.get(name).cloned().ok_or_else(|| IrError::Unresolved {
                            kind: "variable",
                            name: name.clone(),
                        })?;
                        let ret = self.fresh();
                        let want = Type::Fn { params: arg_tys.clone(), ret: Box::new(ret.clone()) };
                        self.unify(&fty, &want)
                            .map_err(|e| self.error(format!("calling `%{name}`: {e}")))?;
                        ret
                    }
                    Callee::Op { name, attrs } => {
                        let prim = ops::build_prim(name, attrs)
                            .map_err(|e| self.error(format!("operator `{name}`: {e}")))?;
                        let mut shapes = Vec::with_capacity(arg_tys.len());
                        for (i, t) in arg_tys.iter().enumerate() {
                            shapes.push(self.as_tensor(t).map_err(|e| {
                                self.error(format!("argument {i} of `{name}`: {e}"))
                            })?);
                        }
                        let shape_refs: Vec<&Shape> = shapes.iter().collect();
                        let out = acrobat_tensor::infer_shape(&prim, &shape_refs)
                            .map_err(|e| self.error(format!("operator `{name}`: {e}")))?;
                        self.op_prims.insert(id, prim);
                        Type::Tensor(out)
                    }
                }
            }
            ExprKind::Tuple(parts) => {
                let mut tys = Vec::with_capacity(parts.len());
                for p in parts.iter_mut() {
                    tys.push(self.check(p, env)?);
                }
                Type::Tuple(tys)
            }
            ExprKind::Proj { tuple, index } => {
                let index = *index;
                let tty = self.check(tuple, env)?;
                match self.shallow(&tty) {
                    Type::Tuple(parts) => parts.get(index).cloned().ok_or_else(|| {
                        self.error(format!("tuple has {} fields, no index {index}", parts.len()))
                    })?,
                    other => return Err(self.error(format!("projection on non-tuple {other}"))),
                }
            }
            ExprKind::Lambda { params, body } => {
                let mut shadowed = Vec::new();
                for p in params.iter() {
                    shadowed.push((p.name.clone(), env.insert(p.name.clone(), p.ty.clone())));
                }
                let rty = self.check(body, env)?;
                for (name, old) in shadowed {
                    match old {
                        Some(t) => env.insert(name, t),
                        None => env.remove(&name),
                    };
                }
                Type::Fn {
                    params: params.iter().map(|p| p.ty.clone()).collect(),
                    ret: Box::new(rty),
                }
            }
            ExprKind::Map { func, list } => {
                // Check the list first so that an inline lambda's parameter
                // type can be inferred from the element type before its body
                // is checked.
                let lty = self.check(list, env)?;
                let elem = self.fresh();
                self.unify(&lty, &Type::list(elem.clone()))
                    .map_err(|e| self.error(format!("map over non-list: {e}")))?;
                if let ExprKind::Lambda { params, .. } = &func.kind {
                    if params.len() == 1 {
                        self.unify(&params[0].ty, &elem)
                            .map_err(|e| self.error(format!("map function parameter: {e}")))?;
                    }
                }
                let fty = self.check(func, env)?;
                let out = self.fresh();
                let want = Type::Fn { params: vec![elem], ret: Box::new(out.clone()) };
                self.unify(&fty, &want).map_err(|e| self.error(format!("map function: {e}")))?;
                Type::list(out)
            }
            ExprKind::Parallel(parts) => {
                let mut tys = Vec::with_capacity(parts.len());
                for p in parts.iter_mut() {
                    tys.push(self.check(p, env)?);
                }
                Type::Tuple(tys)
            }
            ExprKind::ScalarBin { op, lhs, rhs } => {
                let op = *op;
                let lty = self.check(lhs, env)?;
                let rty = self.check(rhs, env)?;
                let l = self.shallow(&lty);
                let r = self.shallow(&rty);
                // Overloading: arithmetic on tensors elaborates to a tensor
                // operator call (the paper's Listing 1 writes `bias + dense(…)`).
                if matches!(l, Type::Tensor(_)) || matches!(r, Type::Tensor(_)) {
                    let prim = match op {
                        ScalarBinOp::Add => PrimOp::Add,
                        ScalarBinOp::Sub => PrimOp::Sub,
                        ScalarBinOp::Mul => PrimOp::Mul,
                        ScalarBinOp::Div => PrimOp::Div,
                        _ => {
                            return Err(self.error(format!(
                                "operator `{}` is not defined on tensors",
                                op.symbol()
                            )))
                        }
                    };
                    let ls = self.as_tensor(&l).map_err(|e| self.error(e))?;
                    let rs = self.as_tensor(&r).map_err(|e| self.error(e))?;
                    let out = acrobat_tensor::infer_shape(&prim, &[&ls, &rs])
                        .map_err(|e| self.error(format!("tensor `{}`: {e}", op.symbol())))?;
                    // Elaborate in place: ScalarBin → Call(Op).
                    let name = prim.name().to_string();
                    self.op_prims.insert(id, prim);
                    let lhs_e = std::mem::replace(
                        lhs.as_mut(),
                        Expr { id: self.fresh_expr_id(), kind: ExprKind::IntLit(0) },
                    );
                    let rhs_e = std::mem::replace(
                        rhs.as_mut(),
                        Expr { id: self.fresh_expr_id(), kind: ExprKind::IntLit(0) },
                    );
                    expr.kind = ExprKind::Call {
                        callee: Callee::Op { name, attrs: BTreeMap::new() },
                        args: vec![lhs_e, rhs_e],
                    };
                    return Ok(self.record(id, Type::Tensor(out)));
                }
                self.unify(&lty, &rty)
                    .map_err(|e| self.error(format!("`{}` operands: {e}", op.symbol())))?;
                let operand = self.shallow(&lty);
                match op {
                    ScalarBinOp::And | ScalarBinOp::Or => {
                        self.unify(&operand, &Type::Bool)
                            .map_err(|e| self.error(format!("`{}`: {e}", op.symbol())))?;
                        Type::Bool
                    }
                    ScalarBinOp::Add | ScalarBinOp::Sub | ScalarBinOp::Mul | ScalarBinOp::Div => {
                        match operand {
                            Type::Int | Type::Float => operand,
                            Type::Var(_) => {
                                // Default numeric literals to Int.
                                self.unify(&operand, &Type::Int).map_err(|e| self.error(e))?;
                                Type::Int
                            }
                            other => {
                                return Err(self
                                    .error(format!("`{}` is not defined on {other}", op.symbol())))
                            }
                        }
                    }
                    _ => {
                        match operand {
                            Type::Int | Type::Float | Type::Bool => {}
                            Type::Var(_) => {
                                self.unify(&operand, &Type::Int).map_err(|e| self.error(e))?;
                            }
                            other => {
                                return Err(self
                                    .error(format!("`{}` is not defined on {other}", op.symbol())))
                            }
                        }
                        Type::Bool
                    }
                }
            }
            ExprKind::ScalarUn { op, operand } => {
                let op = *op;
                let oty = self.check(operand, env)?;
                match op {
                    ScalarUnOp::Neg => {
                        let t = self.shallow(&oty);
                        match t {
                            Type::Int | Type::Float => t,
                            other => {
                                return Err(self.error(format!("`-` is not defined on {other}")))
                            }
                        }
                    }
                    ScalarUnOp::Not => {
                        self.unify(&oty, &Type::Bool)
                            .map_err(|e| self.error(format!("`!`: {e}")))?;
                        Type::Bool
                    }
                    ScalarUnOp::ToFloat => {
                        self.unify(&oty, &Type::Int)
                            .map_err(|e| self.error(format!("`to_float`: {e}")))?;
                        Type::Float
                    }
                }
            }
            ExprKind::Sync { kind, tensor } => {
                let kind = *kind;
                let tty = self.check(tensor, env)?;
                let shape = self.as_tensor(&tty).map_err(|e| self.error(e))?;
                if kind == SyncKind::Item && shape.numel() != 1 {
                    return Err(self.error(format!(
                        "`item` requires a single-element tensor, got shape {shape}"
                    )));
                }
                Type::Float
            }
        };
        Ok(self.record(id, ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    fn check(src: &str) -> Result<Module> {
        check_module(parse_module(src)?)
    }

    #[test]
    fn simple_tensor_fn() {
        let m = check(
            "def @main($w: Tensor[(2, 3)], %x: Tensor[(1, 2)]) -> Tensor[(1, 3)] { matmul(%x, $w) }",
        )
        .unwrap();
        assert_eq!(m.op_prims.len(), 1);
        assert!(m.op_prims.values().any(|p| *p == PrimOp::MatMul));
    }

    #[test]
    fn shape_mismatch_caught() {
        let err = check(
            "def @main($w: Tensor[(3, 3)], %x: Tensor[(1, 2)]) -> Tensor[(1, 3)] { matmul(%x, $w) }",
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Type { .. }), "{err}");
    }

    #[test]
    fn return_type_mismatch_caught() {
        let err =
            check("def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 3)] { relu(%x) }").unwrap_err();
        assert!(err.to_string().contains("declared"));
    }

    #[test]
    fn tensor_plus_elaborates_to_add() {
        let m = check(
            "def @main(%a: Tensor[(1, 4)], %b: Tensor[(1, 4)]) -> Tensor[(1, 4)] { %a + %b }",
        )
        .unwrap();
        let body = &m.functions["main"].body;
        assert!(matches!(
            &body.kind,
            ExprKind::Call { callee: Callee::Op { name, .. }, .. } if name == "add"
        ));
        assert_eq!(m.op_prims[&body.id], PrimOp::Add);
    }

    #[test]
    fn bias_broadcast_via_plus() {
        let m = check(
            "def @main($b: Tensor[(1, 4)], %x: Tensor[(2, 4)]) -> Tensor[(2, 4)] { $b + %x }",
        );
        assert!(m.is_ok());
    }

    #[test]
    fn recursive_list_fn() {
        let src = r#"
            def @len(%xs: List[Tensor[(1, 2)]]) -> Int {
                match %xs {
                    Nil => 0,
                    Cons(%h, %t) => 1 + @len(%t)
                }
            }
            def @main(%xs: List[Tensor[(1, 2)]]) -> Int { @len(%xs) }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn non_exhaustive_match_rejected() {
        let src = r#"
            def @main(%xs: List[Int]) -> Int {
                match %xs { Nil => 0 }
            }
        "#;
        let err = check(src).unwrap_err();
        assert!(err.to_string().contains("non-exhaustive"), "{err}");
    }

    #[test]
    fn match_binder_arity_rejected() {
        let src = r#"
            def @main(%xs: List[Int]) -> Int {
                match %xs { Nil => 0, Cons(%h) => %h }
            }
        "#;
        assert!(check(src).is_err());
    }

    #[test]
    fn map_with_lambda_infers_param() {
        let src = r#"
            def @main(%xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] {
                map(fn(%p) { relu(%p) }, %xs)
            }
        "#;
        let m = check(src).unwrap();
        // The lambda parameter type must have been inferred as the tensor.
        let mut found = false;
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            if let ExprKind::Var(n) = &e.kind {
                if n == "p" {
                    assert_eq!(m.type_of(e.id), &Type::tensor(&[1, 2]));
                    found = true;
                }
            }
        });
        assert!(found);
    }

    #[test]
    fn map_global_sugar_typechecks() {
        let src = r#"
            def @f(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { relu(%x) }
            def @main(%xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] { map(@f, %xs) }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn item_requires_single_element() {
        assert!(check("def @main(%x: Tensor[(1, 1)]) -> Float { item(%x) }").is_ok());
        let err = check("def @main(%x: Tensor[(1, 2)]) -> Float { item(%x) }").unwrap_err();
        assert!(err.to_string().contains("single-element"), "{err}");
        // `sample` has no such restriction.
        assert!(check("def @main(%x: Tensor[(1, 2)]) -> Float { sample(%x) }").is_ok());
    }

    #[test]
    fn parallel_yields_tuple() {
        let src = r#"
            def @f(%x: Int) -> Int { %x + 1 }
            def @main(%x: Int) -> Int {
                let (%a, %b) = parallel(@f(%x), @f(%x));
                %a + %b
            }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(matches!(
            check("def @main(%x: Int) -> Int { @nope(%x) }").unwrap_err(),
            IrError::Unresolved { kind: "function", .. }
        ));
        assert!(matches!(
            check("def @main(%x: Int) -> Int { %y }").unwrap_err(),
            IrError::Unresolved { kind: "variable", .. }
        ));
        assert!(check("def @main(%x: Tensor[(1, 1)]) -> Tensor[(1, 1)] { blah(%x) }").is_err());
    }

    #[test]
    fn if_condition_must_be_bool() {
        assert!(check("def @main(%x: Int) -> Int { if %x { 1 } else { 2 } }").is_err());
        assert!(check("def @main(%x: Int) -> Int { if %x > 0 { 1 } else { 2 } }").is_ok());
    }

    #[test]
    fn mixed_int_float_arith_rejected() {
        let err = check("def @main(%x: Int) -> Float { %x + 0.5 }").unwrap_err();
        assert!(err.to_string().contains("operands"), "{err}");
        assert!(check("def @main(%x: Int) -> Float { to_float(%x) + 0.5 }").is_ok());
    }

    #[test]
    fn tuple_projection_and_pattern() {
        let src = r#"
            def @main(%x: (Int, Bool)) -> Int {
                let (%a, %b) = %x;
                if %b { %a } else { %x.0 }
            }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn concat_axis_shapes() {
        let ok = check(
            "def @main(%a: Tensor[(1, 4)], %b: Tensor[(1, 4)]) -> Tensor[(1, 8)] { concat[axis=1](%a, %b) }",
        );
        assert!(ok.is_ok());
        let bad = check(
            "def @main(%a: Tensor[(1, 4)], %b: Tensor[(2, 4)]) -> Tensor[(1, 8)] { concat[axis=1](%a, %b) }",
        );
        assert!(bad.is_err());
    }

    #[test]
    fn everything_reachable_is_typed() {
        let src = r#"
            def @main(%xs: List[Tensor[(1, 2)]]) -> List[Tensor[(1, 2)]] {
                map(fn(%p) { relu(%p) }, %xs)
            }
        "#;
        let m = check(src).unwrap();
        crate::ast::visit_exprs(&m.functions["main"].body, &mut |e| {
            assert!(m.expr_types.contains_key(&e.id), "untyped expr {:?}", e.kind);
        });
    }
}
