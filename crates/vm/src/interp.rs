//! The Relay-VM-style interpreter backend.
//!
//! This backend deliberately executes the way Relay's interpreted virtual
//! machine does (the paper's §E.2 baseline — up to 13.45× slower than AOT
//! compilation):
//!
//! * every scalar is **boxed** on the heap and every scalar operation
//!   allocates a fresh box (§D.2) — the box holds the typed word an AOT
//!   register holds, and the operation is the AOT executor's own
//!   ([`crate::aot::scalar_bin`]), so only the boxing differs;
//! * variables live in an association-list environment searched linearly by
//!   *string comparison*;
//! * global calls re-resolve the callee by name on every invocation;
//! * `match` arms re-resolve constructor tags by name.
//!
//! Dynamic batching itself is unchanged — both backends share the
//! [`crate::Session`] machinery — so the VM-vs-AOT gap isolates pure
//! control-flow-interpretation overhead, exactly as in Table 7.
//!
//! The VM backend runs instances sequentially (no fibers); models with
//! tensor-dependent control flow still execute, but each sync point flushes
//! immediately, forfeiting cross-instance batching — the reason the paper's
//! prototype restricts VM measurements to the non-TDC models.

use std::sync::Arc;

use acrobat_ir::{Arm, Callee, Expr, ExprKind, Module, Pattern, SyncKind, Type};

use crate::aot::{bin_op, scalar_bin, scalar_un, un_op};
use crate::session::{ExecCtx, RtHandle, RunSession, VmError};
use crate::value::{Closure, Value, Word};

/// The interpreter backend.
#[derive(Debug)]
pub struct VmBackend {
    module: Arc<Module>,
}

type Env = Vec<(String, Value)>;

impl VmBackend {
    /// Creates a backend over the analyzed module.
    pub fn new(module: Arc<Module>) -> VmBackend {
        VmBackend { module }
    }

    /// Runs `@main` for one instance.
    ///
    /// # Errors
    ///
    /// Propagates runtime and input errors.
    pub fn run_instance(
        &self,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.call("main", args, run, rt, ctx)
    }

    fn call(
        &self,
        name: &str,
        args: Vec<Value>,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
    ) -> Result<Value, VmError> {
        // Name-based resolution on every call, as an interpreted VM does.
        let f = self
            .module
            .functions
            .get(name)
            .unwrap_or_else(|| panic!("unknown function @{name} (typeck admitted it)"));
        let mut env: Env = f.params.iter().map(|p| p.name.clone()).zip(args).collect();
        self.eval(&f.body, &mut env, run, rt, ctx)
    }

    fn lookup(env: &Env, name: &str) -> Value {
        // Linear scan from the innermost binding.
        for (n, v) in env.iter().rev() {
            if n == name {
                return v.clone();
            }
        }
        panic!("unbound variable %{name} (typeck admitted it)")
    }

    fn type_of(&self, e: &Expr) -> Result<&Type, VmError> {
        self.module
            .expr_types
            .get(&e.id)
            .ok_or_else(|| VmError::Unsupported(format!("untyped expression {}", e.id)))
    }

    /// Boxes the register bits `bits` of `e`'s result.
    fn boxed(&self, e: &Expr, bits: u64) -> Result<Value, VmError> {
        let ty = self.type_of(e)?;
        let word = Word::from_bits(ty, bits)
            .ok_or_else(|| VmError::Unsupported(format!("a scalar of type {ty}")))?;
        Ok(Value::scalar(word))
    }

    fn eval(
        &self,
        expr: &Expr,
        env: &mut Env,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
    ) -> Result<Value, VmError> {
        match &expr.kind {
            ExprKind::Var(name) => Ok(Self::lookup(env, name)),
            ExprKind::IntLit(v) => Ok(Value::scalar(Word::Int(*v))),
            ExprKind::FloatLit(v) => Ok(Value::scalar(Word::Float(*v))),
            ExprKind::BoolLit(v) => Ok(Value::scalar(Word::Bool(*v))),
            ExprKind::PhaseBoundary => Ok(Value::scalar(Word::Int(0))),
            ExprKind::RandRange { lo, hi } => {
                Ok(Value::scalar(Word::Int(ctx.rng.next_range(*lo, *hi))))
            }
            ExprKind::Let { pat, value, body } => {
                let v = self.eval(value, env, run, rt, ctx)?;
                if run.is_phase_boundary(expr.id) {
                    run.bump_phase(ctx);
                }
                let saved = env.len();
                match pat {
                    Pattern::Var(n) => env.push((n.clone(), v)),
                    Pattern::Wildcard => {}
                    Pattern::Tuple(ns) => match v {
                        Value::Tuple(parts) => {
                            for (n, p) in ns.iter().zip(parts.iter()) {
                                env.push((n.clone(), p.clone()));
                            }
                        }
                        other => panic!("tuple pattern on {other:?}"),
                    },
                }
                let r = self.eval(body, env, run, rt, ctx)?;
                env.truncate(saved);
                Ok(r)
            }
            ExprKind::If { cond, then, els } => {
                let c = self.eval(cond, env, run, rt, ctx)?.bits() != 0;
                let (taken, skipped) = if c { (then, els) } else { (els, then) };
                let r = self.eval(taken, env, run, rt, ctx)?;
                run.apply_ghosts(ctx, taken.id);
                let _ = skipped;
                Ok(r)
            }
            ExprKind::Match { scrutinee, arms } => {
                let sv = self.eval(scrutinee, env, run, rt, ctx)?;
                let (tag, fields) = match &sv {
                    Value::Adt { tag, fields } => (*tag, fields.clone()),
                    other => panic!("match on non-ADT {other:?}"),
                };
                // Per-arm name→tag resolution, VM-style.
                let arm: &Arm = arms
                    .iter()
                    .find(|a| run.ctors.tag(&a.ctor) == tag)
                    .expect("exhaustive match (typeck)");
                let saved = env.len();
                for (b, f) in arm.binders.iter().zip(fields.iter()) {
                    env.push((b.clone(), f.clone()));
                }
                let r = self.eval(&arm.body, env, run, rt, ctx)?;
                env.truncate(saved);
                Ok(r)
            }
            ExprKind::Call { callee, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env, run, rt, ctx)?);
                }
                match callee {
                    Callee::Op { name, attrs } => {
                        // Relay's VM re-resolves the packed function and
                        // re-validates operator attributes on *every*
                        // invocation; mirror that dynamic dispatch cost.
                        let _prim = acrobat_ir::ops::build_prim(name, attrs)
                            .expect("typeck validated the operator");
                        Ok(run.exec_op_site(rt, ctx, expr.id, &argv))
                    }
                    Callee::Global(name) => self.call(name, argv, run, rt, ctx),
                    Callee::Ctor(name) => {
                        Ok(Value::Adt { tag: run.ctors.tag(name), fields: Arc::new(argv) })
                    }
                    Callee::Var(name) => {
                        let f = Self::lookup(env, name);
                        match f {
                            Value::Closure(c) => self.apply_closure(&c, argv, run, rt, ctx),
                            other => panic!("calling non-closure {other:?}"),
                        }
                    }
                }
            }
            ExprKind::Tuple(parts) => {
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    vs.push(self.eval(p, env, run, rt, ctx)?);
                }
                Ok(Value::Tuple(Arc::new(vs)))
            }
            ExprKind::Proj { tuple, index } => {
                let t = self.eval(tuple, env, run, rt, ctx)?;
                match t {
                    Value::Tuple(parts) => Ok(parts[*index].clone()),
                    other => panic!("projection on {other:?}"),
                }
            }
            ExprKind::Lambda { params, body } => Ok(Value::Closure(Arc::new(Closure {
                params: params.iter().map(|p| p.name.clone()).collect(),
                body: Arc::new((**body).clone()),
                env: env.clone(), // capture by deep environment copy, VM-style
            }))),
            ExprKind::Map { func, list } => {
                let f = self.eval(func, env, run, rt, ctx)?;
                let l = self.eval(list, env, run, rt, ctx)?;
                let closure = match f {
                    Value::Closure(c) => c,
                    other => panic!("map over non-closure {other:?}"),
                };
                // Collect elements.
                let mut items = Vec::new();
                let mut cur = l;
                let cons = run.ctors.tag("Cons");
                let nil = run.ctors.tag("Nil");
                loop {
                    match cur {
                        Value::Adt { tag, fields } if tag == cons => {
                            items.push(fields[0].clone());
                            cur = fields[1].clone();
                        }
                        Value::Adt { tag, .. } if tag == nil => break,
                        other => panic!("map over non-list {other:?}"),
                    }
                }
                // Instance parallelism: all elements start at the same depth
                // (§4.1); afterwards the counter resumes at the maximum.
                let d0 = ctx.depth;
                let mut dmax = d0;
                let mut results = Vec::with_capacity(items.len());
                for item in items {
                    ctx.depth = d0;
                    results.push(self.apply_closure(&closure, vec![item], run, rt, ctx)?);
                    dmax = dmax.max(ctx.depth);
                }
                ctx.depth = dmax;
                // Rebuild the list.
                let mut out = Value::Adt { tag: nil, fields: Arc::new(vec![]) };
                for r in results.into_iter().rev() {
                    out = Value::Adt { tag: cons, fields: Arc::new(vec![r, out]) };
                }
                Ok(out)
            }
            ExprKind::Parallel(parts) => {
                // Sequential evaluation with concurrent-depth semantics (the
                // VM backend has no fibers).
                let d0 = ctx.depth;
                let mut dmax = d0;
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    ctx.depth = d0;
                    vs.push(self.eval(p, env, run, rt, ctx)?);
                    dmax = dmax.max(ctx.depth);
                }
                ctx.depth = dmax;
                Ok(Value::Tuple(Arc::new(vs)))
            }
            ExprKind::ScalarBin { op, lhs, rhs } => {
                let ty = self.type_of(lhs)?;
                let op = bin_op(*op, ty).ok_or_else(|| {
                    VmError::Unsupported(format!("scalar `{}` on {ty}", op.symbol()))
                })?;
                let a = self.eval(lhs, env, run, rt, ctx)?.bits();
                let b = self.eval(rhs, env, run, rt, ctx)?.bits();
                self.boxed(expr, scalar_bin(op, a, b)?)
            }
            ExprKind::ScalarUn { op, operand } => {
                let ty = self.type_of(operand)?;
                let op = un_op(*op, ty)
                    .ok_or_else(|| VmError::Unsupported(format!("scalar {op:?} on {ty}")))?;
                let a = self.eval(operand, env, run, rt, ctx)?.bits();
                self.boxed(expr, scalar_un(op, a))
            }
            ExprKind::Sync { kind, tensor } => {
                let t = self.eval(tensor, env, run, rt, ctx)?;
                let r = t.as_tensor().get().expect("tensor forced before its fusion group closed");
                let v = match kind {
                    SyncKind::Item => run.item(rt, r)?,
                    SyncKind::Sample => run.sample(rt, ctx, r)?,
                };
                Ok(Value::scalar(Word::Float(v)))
            }
        }
    }

    fn apply_closure(
        &self,
        c: &Closure,
        args: Vec<Value>,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
    ) -> Result<Value, VmError> {
        let mut env: Env = c.env.clone();
        for (p, a) in c.params.iter().zip(args) {
            env.push((p.clone(), a));
        }
        self.eval(&c.body, &mut env, run, rt, ctx)
    }
}
