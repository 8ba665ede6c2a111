//! The AOT-compiled backend (§D.2, §E.2 of the paper).
//!
//! The paper compiles the Relay program ahead of time to C++: control flow
//! becomes native, variables become stack slots, zero-dimensional tensors
//! become native scalars, and inline depth-computation code is emitted
//! directly into the program (Listing 2).  Here the same lowering targets a
//! pre-resolved code tree:
//!
//! * variables are frame **slot indices** (no name lookups),
//! * scalars are native `i64`/`f64`/`bool` values (no boxing),
//! * call targets and constructor tags are resolved at compile time,
//! * lambdas are lifted to top-level functions with explicit captures,
//! * ghost-operator bumps and phase boundaries are compiled in.
//!
//! With tensor-dependent control flow, `parallel` branches and `map`
//! elements execute as **fibers** (scoped threads coordinated by the
//! run's [`acrobat_runtime::FiberHub`]) so instance parallelism survives
//! sync points (§4.2).

use std::collections::BTreeMap;
use std::sync::Arc;

use acrobat_ir::{
    Callee, Expr, ExprId, ExprKind, Module, Pattern, ScalarBinOp, ScalarUnOp, SyncKind,
};

use crate::session::{ExecCtx, RtHandle, RunSession, Session, VmError};
use crate::value::Value;

/// One compiled function.
#[derive(Debug)]
pub struct CodeFn {
    /// Number of frame slots.
    pub nslots: usize,
    /// Number of parameters (occupying slots `0..nparams`).
    pub nparams: usize,
    /// Body.
    pub code: Code,
    /// Diagnostic name.
    pub name: String,
}

/// A compiled expression (slot-resolved, tag-resolved).
#[derive(Debug)]
pub enum Code {
    /// Read a frame slot.
    Get(u16),
    /// Integer constant.
    ConstInt(i64),
    /// Float constant.
    ConstFloat(f64),
    /// Boolean constant.
    ConstBool(bool),
    /// `let` (slot `None` discards); `phase_bump` marks a phase boundary.
    Let {
        /// Destination slot.
        slot: Option<u16>,
        /// Phase boundary after evaluating the value (§4.1).
        phase_bump: bool,
        /// Bound value.
        value: Box<Code>,
        /// Continuation.
        body: Box<Code>,
    },
    /// Tuple-destructuring `let`.
    LetTuple {
        /// Destination slots.
        slots: Vec<u16>,
        /// Bound tuple.
        value: Box<Code>,
        /// Continuation.
        body: Box<Code>,
    },
    /// Conditional with compiled-in ghost paddings (§B.3).
    If {
        /// Condition.
        cond: Box<Code>,
        /// Then branch.
        then: Box<Code>,
        /// Else branch.
        els: Box<Code>,
        /// Ghost bumps after the then branch.
        ghost_then: u32,
        /// Ghost bumps after the else branch.
        ghost_els: u32,
    },
    /// Tag dispatch.
    Match {
        /// Scrutinee.
        scrutinee: Box<Code>,
        /// `(tag, field slots, body)` per arm.
        arms: Vec<(u32, Vec<u16>, Code)>,
    },
    /// Direct call of a compiled function.
    Call {
        /// Function index.
        func: usize,
        /// Arguments.
        args: Vec<Code>,
    },
    /// Tuple construction.
    MakeTuple(Vec<Code>),
    /// Tuple projection.
    Proj {
        /// Tuple.
        tuple: Box<Code>,
        /// Index.
        index: usize,
    },
    /// ADT construction with a resolved tag.
    MakeAdt {
        /// Constructor tag.
        tag: u32,
        /// Fields.
        fields: Vec<Code>,
    },
    /// Tensor-operator call site (records into the DFG).
    Op {
        /// The operator call site id (keys all static metadata).
        site: ExprId,
        /// Operand code.
        args: Vec<Code>,
    },
    /// `map` over a list with a lifted lambda.
    Map {
        /// Lifted lambda function index.
        func: usize,
        /// Enclosing-frame slots captured by the lambda (appended to the
        /// element argument).
        captures: Vec<u16>,
        /// List operand.
        list: Box<Code>,
    },
    /// `parallel(…)` concurrent branches.
    Parallel(Vec<Code>),
    /// Scalar binary operation on native values.
    ScalarBin {
        /// Operator.
        op: ScalarBinOp,
        /// Left operand.
        lhs: Box<Code>,
        /// Right operand.
        rhs: Box<Code>,
    },
    /// Scalar unary operation.
    ScalarUn {
        /// Operator.
        op: ScalarUnOp,
        /// Operand.
        operand: Box<Code>,
    },
    /// Tensor-value sync (`item` / `sample`).
    Sync {
        /// Which intrinsic.
        kind: SyncKind,
        /// Tensor operand.
        tensor: Box<Code>,
    },
    /// Seeded random integer.
    RandRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

/// A whole compiled program.
#[derive(Debug)]
pub struct AotProgram {
    fns: Vec<CodeFn>,
    main: usize,
}

impl AotProgram {
    /// Compiles an analyzed module.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unsupported`] for constructs the AOT backend does
    /// not lower (first-class closure calls outside `map`).
    pub fn compile(module: &Module, session: &Session) -> Result<AotProgram, VmError> {
        let mut c = Compiler { session, fns: Vec::new(), fn_index: BTreeMap::new() };
        // Pre-register indices so recursion and forward references resolve.
        for (i, name) in module.functions.keys().enumerate() {
            c.fn_index.insert(name.clone(), i);
            c.fns.push(CodeFn {
                nslots: 0,
                nparams: 0,
                code: Code::ConstInt(0),
                name: name.clone(),
            });
        }
        for (name, f) in &module.functions {
            let idx = c.fn_index[name];
            let mut scope = Scope::default();
            for p in &f.params {
                scope.bind(&p.name);
            }
            let nparams = f.params.len();
            let code = c.compile_expr(&f.body, &mut scope)?;
            c.fns[idx] = CodeFn { nslots: scope.max, nparams, code, name: name.clone() };
        }
        let main = c.fn_index["main"];
        Ok(AotProgram { fns: c.fns, main })
    }

    /// The compiled functions (for inspection in tests).
    pub fn functions(&self) -> &[CodeFn] {
        &self.fns
    }
}

#[derive(Default)]
struct Scope {
    names: Vec<(String, u16)>,
    next: u16,
    max: usize,
}

impl Scope {
    fn bind(&mut self, name: &str) -> u16 {
        let slot = self.next;
        self.names.push((name.to_string(), slot));
        self.next += 1;
        self.max = self.max.max(self.next as usize);
        slot
    }

    fn lookup(&self, name: &str) -> Option<u16> {
        self.names.iter().rev().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    fn save(&self) -> (usize, u16) {
        (self.names.len(), self.next)
    }

    fn restore(&mut self, mark: (usize, u16)) {
        self.names.truncate(mark.0);
        self.next = mark.1;
    }
}

struct Compiler<'m> {
    session: &'m Session,
    fns: Vec<CodeFn>,
    fn_index: BTreeMap<String, usize>,
}

impl<'m> Compiler<'m> {
    fn compile_expr(&mut self, expr: &Expr, scope: &mut Scope) -> Result<Code, VmError> {
        Ok(match &expr.kind {
            ExprKind::Var(name) => {
                let slot = scope
                    .lookup(name)
                    .unwrap_or_else(|| panic!("unbound %{name} (typeck admitted it)"));
                Code::Get(slot)
            }
            ExprKind::IntLit(v) => Code::ConstInt(*v),
            ExprKind::FloatLit(v) => Code::ConstFloat(*v),
            ExprKind::BoolLit(v) => Code::ConstBool(*v),
            ExprKind::PhaseBoundary => Code::ConstInt(0),
            ExprKind::RandRange { lo, hi } => Code::RandRange { lo: *lo, hi: *hi },
            ExprKind::Let { pat, value, body } => {
                let v = self.compile_expr(value, scope)?;
                let phase_bump = self.session.is_phase_boundary(expr.id);
                let mark = scope.save();
                let code = match pat {
                    Pattern::Var(n) => {
                        let slot = scope.bind(n);
                        let b = self.compile_expr(body, scope)?;
                        Code::Let {
                            slot: Some(slot),
                            phase_bump,
                            value: Box::new(v),
                            body: Box::new(b),
                        }
                    }
                    Pattern::Wildcard => {
                        let b = self.compile_expr(body, scope)?;
                        Code::Let { slot: None, phase_bump, value: Box::new(v), body: Box::new(b) }
                    }
                    Pattern::Tuple(ns) => {
                        let slots: Vec<u16> = ns.iter().map(|n| scope.bind(n)).collect();
                        let b = self.compile_expr(body, scope)?;
                        Code::LetTuple { slots, value: Box::new(v), body: Box::new(b) }
                    }
                };
                scope.restore(mark);
                code
            }
            ExprKind::If { cond, then, els } => {
                let ghost = |e: &Expr| -> u32 {
                    self.session.analysis.ghosts.get(&e.id).copied().unwrap_or(0) as u32
                };
                Code::If {
                    ghost_then: ghost(then),
                    ghost_els: ghost(els),
                    cond: Box::new(self.compile_expr(cond, scope)?),
                    then: Box::new(self.compile_expr(then, scope)?),
                    els: Box::new(self.compile_expr(els, scope)?),
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.compile_expr(scrutinee, scope)?;
                let mut compiled = Vec::with_capacity(arms.len());
                for arm in arms {
                    let tag = self.session.ctors.tag(&arm.ctor);
                    let mark = scope.save();
                    let slots: Vec<u16> = arm.binders.iter().map(|b| scope.bind(b)).collect();
                    let body = self.compile_expr(&arm.body, scope)?;
                    scope.restore(mark);
                    compiled.push((tag, slots, body));
                }
                Code::Match { scrutinee: Box::new(s), arms: compiled }
            }
            ExprKind::Call { callee, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.compile_expr(a, scope)?);
                }
                match callee {
                    Callee::Op { .. } => Code::Op { site: expr.id, args: argv },
                    Callee::Global(name) => Code::Call { func: self.fn_index[name], args: argv },
                    Callee::Ctor(name) => {
                        Code::MakeAdt { tag: self.session.ctors.tag(name), fields: argv }
                    }
                    Callee::Var(name) => {
                        return Err(VmError::Unsupported(format!(
                            "AOT lowering of first-class closure call `%{name}(…)` \
                             (use `map` or a global function)"
                        )))
                    }
                }
            }
            ExprKind::Tuple(parts) => {
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    vs.push(self.compile_expr(p, scope)?);
                }
                Code::MakeTuple(vs)
            }
            ExprKind::Proj { tuple, index } => {
                Code::Proj { tuple: Box::new(self.compile_expr(tuple, scope)?), index: *index }
            }
            ExprKind::Lambda { .. } => {
                return Err(VmError::Unsupported("AOT lowering of a lambda outside `map`".into()))
            }
            ExprKind::Map { func, list } => {
                let l = self.compile_expr(list, scope)?;
                let ExprKind::Lambda { params, body } = &func.kind else {
                    return Err(VmError::Unsupported("map over a non-lambda".into()));
                };
                // Lambda lifting: free variables become extra parameters.
                let mut free = Vec::new();
                collect_free_vars(
                    body,
                    &params.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
                    &mut free,
                );
                let captures: Vec<u16> = free
                    .iter()
                    .map(|n| scope.lookup(n).unwrap_or_else(|| panic!("capture %{n} not in scope")))
                    .collect();
                let mut lscope = Scope::default();
                for p in params {
                    lscope.bind(&p.name);
                }
                for n in &free {
                    lscope.bind(n);
                }
                let nparams = params.len() + free.len();
                let code = self.compile_expr(body, &mut lscope)?;
                let idx = self.fns.len();
                self.fns.push(CodeFn {
                    nslots: lscope.max,
                    nparams,
                    code,
                    name: format!("lambda#{idx}"),
                });
                Code::Map { func: idx, captures, list: Box::new(l) }
            }
            ExprKind::Parallel(parts) => {
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    vs.push(self.compile_expr(p, scope)?);
                }
                Code::Parallel(vs)
            }
            ExprKind::ScalarBin { op, lhs, rhs } => Code::ScalarBin {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs, scope)?),
                rhs: Box::new(self.compile_expr(rhs, scope)?),
            },
            ExprKind::ScalarUn { op, operand } => {
                Code::ScalarUn { op: *op, operand: Box::new(self.compile_expr(operand, scope)?) }
            }
            ExprKind::Sync { kind, tensor } => {
                Code::Sync { kind: *kind, tensor: Box::new(self.compile_expr(tensor, scope)?) }
            }
        })
    }
}

/// Free variables of a lambda body (excluding its parameters and locals).
fn collect_free_vars(body: &Expr, bound: &[String], out: &mut Vec<String>) {
    fn walk(e: &Expr, bound: &mut Vec<String>, out: &mut Vec<String>) {
        match &e.kind {
            ExprKind::Var(n) if !bound.contains(n) && !out.contains(n) => {
                out.push(n.clone());
            }
            ExprKind::Let { pat, value, body } => {
                walk(value, bound, out);
                let mark = bound.len();
                match pat {
                    Pattern::Var(n) => bound.push(n.clone()),
                    Pattern::Wildcard => {}
                    Pattern::Tuple(ns) => bound.extend(ns.iter().cloned()),
                }
                walk(body, bound, out);
                bound.truncate(mark);
            }
            ExprKind::Match { scrutinee, arms } => {
                walk(scrutinee, bound, out);
                for arm in arms {
                    let mark = bound.len();
                    bound.extend(arm.binders.iter().cloned());
                    walk(&arm.body, bound, out);
                    bound.truncate(mark);
                }
            }
            ExprKind::Lambda { params, body } => {
                let mark = bound.len();
                bound.extend(params.iter().map(|p| p.name.clone()));
                walk(body, bound, out);
                bound.truncate(mark);
            }
            ExprKind::Call { args, .. } => args.iter().for_each(|a| walk(a, bound, out)),
            ExprKind::Tuple(es) | ExprKind::Parallel(es) => {
                es.iter().for_each(|x| walk(x, bound, out))
            }
            ExprKind::Proj { tuple, .. } => walk(tuple, bound, out),
            ExprKind::Map { func, list } => {
                walk(func, bound, out);
                walk(list, bound, out);
            }
            ExprKind::If { cond, then, els } => {
                walk(cond, bound, out);
                walk(then, bound, out);
                walk(els, bound, out);
            }
            ExprKind::ScalarBin { lhs, rhs, .. } => {
                walk(lhs, bound, out);
                walk(rhs, bound, out);
            }
            ExprKind::ScalarUn { operand, .. } => walk(operand, bound, out),
            ExprKind::Sync { tensor, .. } => walk(tensor, bound, out),
            _ => {}
        }
    }
    let mut b = bound.to_vec();
    walk(body, &mut b, out);
}

/// The AOT execution backend.
#[derive(Debug)]
pub struct AotBackend {
    program: AotProgram,
}

impl AotBackend {
    /// Compiles the module for execution.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn compile(module: &Module, session: &Session) -> Result<AotBackend, VmError> {
        Ok(AotBackend { program: AotProgram::compile(module, session)? })
    }

    /// The compiled program.
    pub fn program(&self) -> &AotProgram {
        &self.program
    }

    /// Runs `@main` for one instance.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_instance(
        &self,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        self.call(self.program.main, args, run, rt, ctx)
    }

    fn call(
        &self,
        func: usize,
        args: Vec<Value>,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
    ) -> Result<Value, VmError> {
        let f = &self.program.fns[func];
        debug_assert_eq!(args.len(), f.nparams, "arity of {}", f.name);
        let mut frame: Vec<Value> = Vec::with_capacity(f.nslots);
        frame.extend(args);
        frame.resize(f.nslots, Value::Int(0));
        self.exec(&f.code, &mut frame, run, rt, ctx)
    }

    #[allow(clippy::too_many_lines)]
    fn exec(
        &self,
        code: &Code,
        frame: &mut Vec<Value>,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
    ) -> Result<Value, VmError> {
        Ok(match code {
            Code::Get(slot) => frame[*slot as usize].clone(),
            Code::ConstInt(v) => Value::Int(*v),
            Code::ConstFloat(v) => Value::Float(*v),
            Code::ConstBool(v) => Value::Bool(*v),
            Code::RandRange { lo, hi } => Value::Int(ctx.rng.next_range(*lo, *hi)),
            Code::Let { slot, phase_bump, value, body } => {
                let v = self.exec(value, frame, run, rt, ctx)?;
                if *phase_bump {
                    run.bump_phase(ctx);
                }
                if let Some(s) = slot {
                    frame[*s as usize] = v;
                }
                self.exec(body, frame, run, rt, ctx)?
            }
            Code::LetTuple { slots, value, body } => {
                let v = self.exec(value, frame, run, rt, ctx)?;
                match v {
                    Value::Tuple(parts) => {
                        for (s, p) in slots.iter().zip(parts.iter()) {
                            frame[*s as usize] = p.clone();
                        }
                    }
                    other => panic!("tuple pattern on {other:?}"),
                }
                self.exec(body, frame, run, rt, ctx)?
            }
            Code::If { cond, then, els, ghost_then, ghost_els } => {
                let c = match self.exec(cond, frame, run, rt, ctx)? {
                    Value::Bool(b) => b,
                    other => panic!("non-bool condition {other:?}"),
                };
                let (taken, ghosts) = if c { (then, *ghost_then) } else { (els, *ghost_els) };
                let r = self.exec(taken, frame, run, rt, ctx)?;
                ctx.depth += ghosts as u64;
                r
            }
            Code::Match { scrutinee, arms } => {
                let s = self.exec(scrutinee, frame, run, rt, ctx)?;
                let (tag, fields) = match &s {
                    Value::Adt { tag, fields } => (*tag, fields.clone()),
                    other => panic!("match on {other:?}"),
                };
                let (_, slots, body) =
                    arms.iter().find(|(t, _, _)| *t == tag).expect("exhaustive match (typeck)");
                for (slot, f) in slots.iter().zip(fields.iter()) {
                    frame[*slot as usize] = f.clone();
                }
                self.exec(body, frame, run, rt, ctx)?
            }
            Code::Call { func, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.exec(a, frame, run, rt, ctx)?);
                }
                self.call(*func, argv, run, rt, ctx)?
            }
            Code::MakeTuple(parts) => {
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    vs.push(self.exec(p, frame, run, rt, ctx)?);
                }
                Value::Tuple(Arc::new(vs))
            }
            Code::Proj { tuple, index } => match self.exec(tuple, frame, run, rt, ctx)? {
                Value::Tuple(parts) => parts[*index].clone(),
                other => panic!("projection on {other:?}"),
            },
            Code::MakeAdt { tag, fields } => {
                let mut vs = Vec::with_capacity(fields.len());
                for f in fields {
                    vs.push(self.exec(f, frame, run, rt, ctx)?);
                }
                Value::Adt { tag: *tag, fields: Arc::new(vs) }
            }
            Code::Op { site, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.exec(a, frame, run, rt, ctx)?);
                }
                run.exec_op_site(rt, ctx, *site, &argv)
            }
            Code::Map { func, captures, list } => {
                let l = self.exec(list, frame, run, rt, ctx)?;
                let captured: Vec<Value> =
                    captures.iter().map(|s| frame[*s as usize].clone()).collect();
                let func = *func;
                // Collect list elements.
                let cons = run.ctors.tag("Cons");
                let nil = run.ctors.tag("Nil");
                let mut items = Vec::new();
                let mut cur = l;
                loop {
                    match cur {
                        Value::Adt { tag, fields } if tag == cons => {
                            items.push(fields[0].clone());
                            cur = fields[1].clone();
                        }
                        Value::Adt { tag, .. } if tag == nil => break,
                        other => panic!("map over {other:?}"),
                    }
                }
                let jobs: Vec<Job<'_>> = items
                    .into_iter()
                    .map(|item| {
                        let captured = captured.clone();
                        Box::new(
                            move |this: &AotBackend,
                                  run: &RunSession<'_>,
                                  rt: &mut RtHandle<'_>,
                                  ctx: &mut ExecCtx| {
                                let mut argv = Vec::with_capacity(1 + captured.len());
                                argv.push(item);
                                argv.extend(captured);
                                this.call(func, argv, run, rt, ctx)
                            },
                        ) as Job<'_>
                    })
                    .collect();
                let results = self.run_branches(run, rt, ctx, jobs)?;
                let mut out = Value::Adt { tag: nil, fields: Arc::new(vec![]) };
                for r in results.into_iter().rev() {
                    out = Value::Adt { tag: cons, fields: Arc::new(vec![r, out]) };
                }
                out
            }
            Code::Parallel(parts) => {
                // Each branch runs on a snapshot of the frame (branches are
                // independent by definition; bindings do not leak out).
                let jobs: Vec<Job<'_>> = parts
                    .iter()
                    .map(|part| {
                        let snapshot: Vec<Value> = frame.clone();
                        Box::new(
                            move |this: &AotBackend,
                                  run: &RunSession<'_>,
                                  rt: &mut RtHandle<'_>,
                                  ctx: &mut ExecCtx| {
                                let mut fr = snapshot;
                                this.exec(part, &mut fr, run, rt, ctx)
                            },
                        ) as Job<'_>
                    })
                    .collect();
                let results = self.run_branches(run, rt, ctx, jobs)?;
                Value::Tuple(Arc::new(results))
            }
            Code::ScalarBin { op, lhs, rhs } => {
                let a = self.exec(lhs, frame, run, rt, ctx)?;
                let b = self.exec(rhs, frame, run, rt, ctx)?;
                scalar_bin(*op, &a, &b)?
            }
            Code::ScalarUn { op, operand } => {
                let v = self.exec(operand, frame, run, rt, ctx)?;
                match op {
                    ScalarUnOp::Neg => match v {
                        Value::Int(x) => Value::Int(x.wrapping_neg()),
                        Value::Float(x) => Value::Float(-x),
                        other => panic!("neg on {other:?}"),
                    },
                    ScalarUnOp::Not => Value::Bool(!v.as_bool()),
                    ScalarUnOp::ToFloat => Value::Float(v.as_int() as f64),
                }
            }
            Code::Sync { kind, tensor } => {
                let t = self.exec(tensor, frame, run, rt, ctx)?;
                let r = t.as_tensor();
                let v = match kind {
                    SyncKind::Item => run.item(rt, r)?,
                    SyncKind::Sample => run.sample(rt, ctx, r)?,
                };
                Value::Float(v)
            }
        })
    }
}

/// One branch of a `map`/`parallel` construct.
type Job<'a> = Box<
    dyn FnOnce(
            &AotBackend,
            &RunSession<'_>,
            &mut RtHandle<'_>,
            &mut ExecCtx,
        ) -> Result<Value, VmError>
        + Send
        + 'a,
>;

impl AotBackend {
    /// Runs branch jobs with concurrent-depth semantics (§4.1): all branches
    /// start at the parent depth; afterwards the parent resumes at the
    /// maximum.  In fiber mode (tensor-dependent control flow present) the
    /// branches run as fibers — fork-join instance parallelism (§4.2);
    /// child pseudo-random streams are split from the parent's so DRNN-style
    /// models stay seed-reproducible per fiber (§E.1).
    fn run_branches(
        &self,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        jobs: Vec<Job<'_>>,
    ) -> Result<Vec<Value>, VmError> {
        let d0 = ctx.depth;
        if !run.fiber_mode || jobs.len() <= 1 {
            let mut dmax = d0;
            let mut out = Vec::with_capacity(jobs.len());
            for job in jobs {
                ctx.depth = d0;
                out.push(job(self, run, rt, ctx)?);
                dmax = dmax.max(ctx.depth);
            }
            ctx.depth = dmax;
            return Ok(out);
        }
        let n = jobs.len();
        let cell = rt.shared().expect("fiber-mode branches share the run context");
        let mut ctxs: Vec<ExecCtx> = (0..n)
            .map(|i| {
                let mut c = ctx.fork(i);
                c.rng = crate::session::Prng::new(ctx.rng.next_u64(), i);
                c
            })
            .collect();
        let results: Vec<Result<Value, VmError>> = std::thread::scope(|scope| {
            let hub = &run.hub;
            let g = hub.fork(n);
            let mut handles = Vec::with_capacity(n);
            for (job, cctx) in jobs.into_iter().zip(ctxs.iter_mut()) {
                handles.push(
                    std::thread::Builder::new()
                        .stack_size(16 << 20)
                        .spawn_scoped(scope, move || {
                            let mut rt = RtHandle::Shared(cell);
                            let r = job(self, run, &mut rt, cctx);
                            hub.finish_child(g);
                            r
                        })
                        .expect("spawn fiber"),
                );
            }
            hub.join_while(g, || {
                handles.into_iter().map(|h| h.join().expect("fiber panicked")).collect()
            })
        });
        ctx.depth = ctxs.iter().map(|c| c.depth).max().unwrap_or(d0);
        results.into_iter().collect()
    }
}

/// Integer arithmetic wraps (the same answer with and without overflow
/// checks); integer division by zero, or of `i64::MIN` by `-1`, has no
/// answer and fails the request.
fn scalar_bin(op: ScalarBinOp, a: &Value, b: &Value) -> Result<Value, VmError> {
    use ScalarBinOp::*;
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            Add => Value::Int(x.wrapping_add(*y)),
            Sub => Value::Int(x.wrapping_sub(*y)),
            Mul => Value::Int(x.wrapping_mul(*y)),
            Div => Value::Int(
                x.checked_div(*y)
                    .ok_or_else(|| VmError::Input(format!("integer division {x} / {y}")))?,
            ),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            And | Or => panic!("logic on ints"),
        },
        (Value::Float(x), Value::Float(y)) => match op {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            And | Or => panic!("logic on floats"),
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            And => Value::Bool(*x && *y),
            Or => Value::Bool(*x || *y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            _ => panic!("arith on bools"),
        },
        (x, y) => panic!("scalar op {op:?} on {x:?} and {y:?}"),
    })
}
