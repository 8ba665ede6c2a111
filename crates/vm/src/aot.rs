//! The AOT-compiled backend (§D.2, §E.2 of the paper).
//!
//! The paper compiles the unbatched program ahead of time to C++ so that
//! host-side DFG construction stops being the limit once kernels are
//! batched: control flow becomes native, variables become stack slots,
//! zero-dimensional tensors become native scalars, and the inline depth
//! computation is emitted straight into the program (Listing 2).  This
//! module is that lowering, to register code instead of C++.
//!
//! # Lowering ([`AotProgram::compile`])
//!
//! Every function of the type-checked, analysed module — and every `map`
//! lambda, lifted to a function whose extra parameters are its captures —
//! becomes one flat array of [`Instr`]s with jumps for `if` and `match`.
//!
//! * **Registers** are frame-relative `u16` indices of plain `u64` words.
//!   What a word means is fixed here, from `expr_types`, and never looked
//!   at again: a tensor is its DFG [`ValueId`], an `Int` its `i64` bits, a
//!   `Float` its `f64` bits, a `Bool` 0 or 1, a tuple or ADT value the
//!   index of its cell in the run's arena.  Scalar instructions are typed
//!   ([`BinOp::IAdd`] ≠ [`BinOp::FAdd`]), constructor tags and `Cons`/`Nil`
//!   are resolved, and anything that cannot be typed or resolved is a
//!   [`VmError::Unsupported`] from `Executable::new`, not a failure during
//!   a request.  A register is written once per straight-line region
//!   (sibling `if`/`match` arms and `parallel` branches reuse each other's),
//!   so a value read late is still the value computed early.
//! * **Fusion groups** are resolved here too.  Static blocks are
//!   straight-line, so when a group's closing site is lowered the registers
//!   holding every kernel input and receiving every kernel output are
//!   known: an operator site that does not close its group compiles to *no
//!   code*, a closing site to one [`Instr::Emit`] whose [`EmitDesc`] names
//!   the pre-resolved [`Unit`], those registers, and a hoisted static depth
//!   or "inline counter".  A tuple built from a tensor whose group has not
//!   emitted yet is patched right after the emit ([`Instr::SetField`]).
//! * **`parallel` and `map`** run in place in the parent's frame when the
//!   model has no tensor-dependent control flow — depth saved, restored per
//!   branch and max-joined ([`Instr::DepthGet`] / [`Instr::DepthSet`] /
//!   [`Instr::DepthMax`], §4.1) — and `map` is a loop over the list cells
//!   calling the lifted lambda.  In fiber mode the leading [`Instr::Fork`]
//!   runs the same branch code (or lambda calls) on forked fibers instead
//!   (§4.2) and jumps to the join.
//!
//! [`AotProgram`]'s `Display` is the disassembly.
//!
//! # Execution ([`AotProgram::run`])
//!
//! One loop over the current function's instructions.  A fiber's state is
//! a [`Machine`]: one growable register buffer in which frames are
//! windows, and an explicit stack of return frames — a program call is
//! "push frame, jump", never Rust recursion, so recursion depth is bounded
//! by [`MAX_FRAMES`] and [`MAX_REG_WORDS`] ([`VmError::DepthExceeded`])
//! rather than by the native stack.  Tuple and ADT cells live in a per-run
//! arena that is cleared, not freed, between requests.  Steady state
//! allocates nothing per DFG node.
//!
//! The boundary with the outside world is [`AotProgram::bind`] (request
//! inputs → words, validated against `@main`'s parameter types) and
//! [`AotProgram::output`] (result word → [`OutputValue`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use acrobat_analysis::blocks::BlockId;
use acrobat_analysis::fusion::{FusionGroup, GroupId};
use acrobat_ir::{
    Callee, Expr, ExprId, ExprKind, Module, ParamKind, Pattern, ScalarBinOp, ScalarUnOp, SyncKind,
    Type,
};
use acrobat_runtime::{ExecutionContext, Unit, ValueId};
use parking_lot::Mutex;

use crate::session::{CtorTable, ExecCtx, Handle, Prng, RtHandle, RunSession, Session, VmError};
use crate::value::{InputValue, OutputValue};

/// Frame-stack budget of one fiber: a program call beyond this many live
/// frames fails the request with [`VmError::DepthExceeded`].  A constant,
/// not an option — it bounds what a runaway recursion can cost (frames are
/// heap words, a few dozen bytes each) without limiting any real model.
pub const MAX_FRAMES: usize = 1 << 20;

/// Register-stack budget of one fiber, in words (128 MiB): what
/// [`MAX_FRAMES`] frames of a 16-register function come to.  A function
/// with more registers reaches this first, and fails the same way — the
/// frame count alone would let a runaway recursion through a 100-register
/// function ask for most of a gigabyte before it was stopped.
pub const MAX_REG_WORDS: usize = 1 << 24;

/// A frame-relative register index.
type Reg = u16;

/// Cell tag of a tuple (ADT cells carry their constructor's tag).
const TUPLE: u32 = u32::MAX;

/// A range of the program's operand pool.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u16,
}

/// Typed scalar binary operations (`I` = `i64`, `F` = `f64`, `B` = `bool`).
/// Integer arithmetic wraps — the same answer with and without overflow
/// checks; integer division with no answer fails the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    IAdd,
    ISub,
    IMul,
    IDiv,
    ILt,
    ILe,
    IGt,
    IGe,
    IEq,
    INe,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FLt,
    FLe,
    FGt,
    FGe,
    FEq,
    FNe,
    BAnd,
    BOr,
    BEq,
    BNe,
}

/// Typed scalar unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    INeg,
    FNeg,
    Not,
    IToF,
}

/// One instruction.  Jump targets are indices into the same function.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// `dst = bits` (an `Int`, `Float` or `Bool` literal).
    Const { dst: Reg, bits: u64 },
    /// `dst = src`.
    Move { dst: Reg, src: Reg },
    /// `dst = a op b`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = op a`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst` = the next integer in `[lo, hi]` of the fiber's random stream.
    Rand { dst: Reg, lo: Reg, hi: Reg },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when the `Bool` in `cond` is false.
    JumpIfNot { cond: Reg, to: u32 },
    /// Jump when the cell in `cell` does not carry `tag`.
    JumpIfTagNe { cell: Reg, tag: u32, to: u32 },
    /// Ghost-operator padding after a conditional branch (§B.3).
    Ghost { bumps: u32 },
    /// Program-phase boundary (§4.1).
    PhaseBump,
    /// `dst` = the inline depth counter.
    DepthGet { dst: Reg },
    /// Inline depth counter = `src`.
    DepthSet { src: Reg },
    /// `acc = max(acc, inline depth counter)`.
    DepthMax { acc: Reg },
    /// `dst` = a new arena cell `tag(fields…)`.
    MakeCell { dst: Reg, tag: u32, fields: Span },
    /// `dst = cell.index`.
    Field { dst: Reg, cell: Reg, index: u16 },
    /// `cell.index = src` (list building; late tensors of open groups).
    SetField { cell: Reg, index: u16, src: Reg },
    /// Push a frame and jump to function `func`; its result lands in `dst`.
    Call { func: u32, args: Span, dst: Reg },
    /// Pop the frame, handing `src` to the caller.
    Ret { src: Reg },
    /// Append the DFG node of a fusion group whose last site is here.
    Emit { desc: u32 },
    /// `item` / `sample`: force `tensor`, leave a `Float` in `dst`.
    Sync { kind: SyncKind, dst: Reg, tensor: Reg },
    /// Fiber mode only: run the branches (or `map` elements) of `desc` on
    /// forked fibers and jump to its join.  Otherwise a no-op: the in-place
    /// code that follows does the work.
    Fork { desc: u32 },
    /// End of `parallel` branch `branch` of fork `fork`: where a forked
    /// fiber stops.  A no-op in place.
    BranchEnd { fork: u32, branch: u16 },
}

/// Everything [`Instr::Emit`] needs, resolved at lowering time.
#[derive(Debug)]
struct EmitDesc {
    /// Kernel, output arity and shared-operand slots of the group.
    unit: Unit,
    /// Register holding each kernel input, in slot order.
    inputs: Box<[Reg]>,
    /// Register receiving each kernel output, in slot order.
    outputs: Box<[Reg]>,
    /// Hoisted static depth (§B.1); `None` takes the inline counter.
    static_depth: Option<u64>,
    /// Enclosing static block, for grain-size coarsening (§B.2).
    block: BlockId,
    /// Whether this group's closing site is also its block's last site.
    closes_block: bool,
}

/// One `parallel` branch: where its code starts and where its value lands.
#[derive(Debug, Clone, Copy)]
struct Branch {
    start: u32,
    result: Reg,
}

/// What [`Instr::Fork`] runs on fibers.
#[derive(Debug)]
enum ForkDesc {
    /// The branches of a `parallel`, each a code range of the same function.
    Branches { branches: Box<[Branch]>, join: u32 },
    /// The elements of a `map`: one call of `func(element, captures…)` each.
    Map { list: Reg, func: u32, captures: Span, dst: Reg, cons: u32, nil: u32, join: u32 },
}

/// One lowered function.
#[derive(Debug)]
struct AotFn {
    name: String,
    nparams: u16,
    nregs: u16,
    code: Box<[Instr]>,
}

/// How a type crosses the request boundary (see [`Layouts`]).
#[derive(Debug)]
enum Layout {
    Tensor,
    Int,
    Float,
    Bool,
    Tuple(Box<[u32]>),
    Adt(Box<[CtorLayout]>),
    /// Function types and unresolved type variables: never a `@main`
    /// parameter, a result only of programs that return them.
    Opaque,
}

#[derive(Debug)]
struct CtorLayout {
    name: String,
    tag: u32,
    fields: Box<[u32]>,
}

/// The types reachable from `@main`'s signature, flattened once so that
/// converting a request's inputs and outputs instantiates no generic ADT
/// and allocates nothing of its own.  Both backends check request inputs
/// against them ([`Layouts::check`]).
#[derive(Debug, Default)]
pub(crate) struct Layouts {
    table: Vec<Layout>,
    /// Layout of each `@main` parameter; `None` for `$` model parameters.
    params: Vec<Option<u32>>,
    ret: u32,
}

/// A whole lowered program.
#[derive(Debug)]
pub struct AotProgram {
    fns: Vec<AotFn>,
    main: u32,
    /// Operand lists of `Call` and `MakeCell`, and `map` captures.
    pool: Vec<Reg>,
    emits: Vec<EmitDesc>,
    forks: Vec<ForkDesc>,
    layouts: Layouts,
    /// Constructor names by tag, for the disassembly.
    ctors: CtorTable,
}

fn unsupported(what: impl fmt::Display) -> VmError {
    VmError::Unsupported(format!("AOT lowering: {what}"))
}

/// Rejects a lambda anywhere but as `map`'s function, with the error
/// [`AotProgram::compile`] gives it.  The analysis classifies operator
/// operands only inside `map` lambdas, and the kernel library reads those
/// classes, so the pipeline runs this module-only check before it builds
/// kernels.
///
/// # Errors
///
/// [`VmError::Unsupported`] naming "a lambda outside `map`".
pub fn check_lambdas(module: &Module) -> Result<(), VmError> {
    fn walk(e: &Expr) -> Result<(), VmError> {
        match &e.kind {
            ExprKind::Lambda { .. } => Err(unsupported("a lambda outside `map`")),
            ExprKind::Map { func, list } => {
                let func = match &func.kind {
                    ExprKind::Lambda { body, .. } => body,
                    _ => func,
                };
                walk(func).and_then(|()| walk(list))
            }
            _ => {
                let mut result = Ok(());
                e.for_each_child(|c| {
                    if result.is_ok() {
                        result = walk(c);
                    }
                });
                result
            }
        }
    }
    module.functions.values().try_for_each(|f| walk(&f.body))
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A lowered expression: a register, or a tuple that exists only as its
/// component registers until something needs it as one word.
#[derive(Debug, Clone)]
enum Val {
    Reg(Reg),
    Tuple(Vec<Reg>),
}

/// Per-function lowering state.
#[derive(Default)]
struct Body {
    code: Vec<Instr>,
    scope: Vec<(String, Val)>,
    next: Reg,
    nregs: Reg,
    /// Operand registers and result register of each operator site whose
    /// group is still open.
    open_sites: HashMap<ExprId, (Vec<Reg>, Reg)>,
    /// Tensor registers an upcoming `Emit` will write, each with the cell
    /// fields that already copied it and must be patched after the emit.
    awaiting: HashMap<Reg, Vec<(Reg, u16)>>,
    /// Results fused away inside their kernel: never written, never read.
    fused: HashSet<Reg>,
    /// Component registers of the tuple cells built into a *fresh* register
    /// (one this region writes exactly once): a projection reads the
    /// component, never the cell — whose field may not have been patched
    /// yet.  A cell delivered `into` a register shared by sibling arms is
    /// not recorded: which arm built it is only known when the program
    /// runs, so a projection after the merge loads from the cell.
    tuples: HashMap<Reg, Vec<Reg>>,
}

impl Body {
    fn fresh(&mut self) -> Result<Reg, VmError> {
        let r = self.next;
        self.next =
            r.checked_add(1).ok_or_else(|| unsupported("a function needs > 65535 registers"))?;
        self.nregs = self.nregs.max(self.next);
        Ok(r)
    }

    /// The register a result was asked `into`, or a fresh one.
    fn dst(&mut self, into: Option<Reg>) -> Result<Reg, VmError> {
        into.map_or_else(|| self.fresh(), Ok)
    }

    fn constant(&mut self, bits: u64, into: Option<Reg>) -> Result<Reg, VmError> {
        let dst = self.dst(into)?;
        self.code.push(Instr::Const { dst, bits });
        Ok(dst)
    }

    /// A register something other than a kernel is about to read as a word:
    /// not a tensor whose group has yet to emit, nor one fused away.
    fn readable(&self, r: Reg) -> Result<Reg, VmError> {
        if self.awaiting.contains_key(&r) || self.fused.contains(&r) {
            return Err(unsupported(format!(
                "r{r} is read before the fusion group that produces it emits its kernel"
            )));
        }
        Ok(r)
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn lookup(&self, name: &str) -> Option<&Val> {
        self.scope.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Ends a sibling region (an `if`/`match` arm, a `parallel` branch):
    /// its registers are dead past the merge and the next sibling reuses
    /// them.
    fn release(&mut self, mark: Reg) {
        self.next = mark;
        self.awaiting.retain(|r, _| *r < mark);
        self.fused.retain(|r| *r < mark);
        self.tuples.retain(|cell, parts| *cell < mark && parts.iter().all(|r| *r < mark));
    }

    /// Points the jump at `at` to the current end of the code.
    fn land(&mut self, at: u32) {
        let here = self.pc();
        match &mut self.code[at as usize] {
            Instr::Jump { to } | Instr::JumpIfNot { to, .. } | Instr::JumpIfTagNe { to, .. } => {
                *to = here
            }
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }
}

struct Lowering<'m> {
    session: &'m Session,
    module: &'m Module,
    groups: HashMap<GroupId, &'m FusionGroup>,
    fn_index: BTreeMap<&'m str, u32>,
    fns: Vec<Option<AotFn>>,
    pool: Vec<Reg>,
    emits: Vec<EmitDesc>,
    forks: Vec<ForkDesc>,
}

impl AotProgram {
    /// Lowers an analyzed module.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unsupported`], naming the construct, for anything
    /// the lowering cannot type or resolve: a first-class closure call, a
    /// lambda outside `map`, a scalar operator on operands it is not
    /// defined for, a `match` that misses a constructor, a variable or
    /// capture that is not in scope, a fusion group whose inputs are not
    /// all emitted before it closes, a function that needs more than 65535
    /// registers.
    pub fn compile(module: &Module, session: &Session) -> Result<AotProgram, VmError> {
        let blocks = &session.analysis.blocks.blocks;
        let mut lo = Lowering {
            session,
            module,
            groups: blocks.iter().flat_map(|b| &b.groups).map(|g| (g.id, g)).collect(),
            // Indices first, so recursion and forward references resolve.
            fn_index: (0u32..).zip(module.functions.keys()).map(|(i, n)| (n.as_str(), i)).collect(),
            fns: module.functions.keys().map(|_| None).collect(),
            pool: Vec::new(),
            emits: Vec::new(),
            forks: Vec::new(),
        };
        for (name, f) in &module.functions {
            let params: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
            let lowered = lo.function(format!("@{name}"), &params, &f.body)?;
            lo.fns[lo.fn_index[name.as_str()] as usize] = Some(lowered);
        }
        let main = *lo.fn_index.get("main").ok_or_else(|| unsupported("no @main"))?;
        let layouts = Layouts::of_main(module, session)?;
        Ok(AotProgram {
            fns: lo.fns.into_iter().map(|f| f.expect("every function lowered")).collect(),
            main,
            pool: lo.pool,
            emits: lo.emits,
            forks: lo.forks,
            layouts,
            ctors: session.ctors.clone(),
        })
    }
}

/// The typed instruction for `op` on operands of type `ty`.
pub(crate) fn bin_op(op: ScalarBinOp, ty: &Type) -> Option<BinOp> {
    use ScalarBinOp::*;
    Some(match (ty, op) {
        (Type::Int, Add) => BinOp::IAdd,
        (Type::Int, Sub) => BinOp::ISub,
        (Type::Int, Mul) => BinOp::IMul,
        (Type::Int, Div) => BinOp::IDiv,
        (Type::Int, Lt) => BinOp::ILt,
        (Type::Int, Le) => BinOp::ILe,
        (Type::Int, Gt) => BinOp::IGt,
        (Type::Int, Ge) => BinOp::IGe,
        (Type::Int, Eq) => BinOp::IEq,
        (Type::Int, Ne) => BinOp::INe,
        (Type::Float, Add) => BinOp::FAdd,
        (Type::Float, Sub) => BinOp::FSub,
        (Type::Float, Mul) => BinOp::FMul,
        (Type::Float, Div) => BinOp::FDiv,
        (Type::Float, Lt) => BinOp::FLt,
        (Type::Float, Le) => BinOp::FLe,
        (Type::Float, Gt) => BinOp::FGt,
        (Type::Float, Ge) => BinOp::FGe,
        (Type::Float, Eq) => BinOp::FEq,
        (Type::Float, Ne) => BinOp::FNe,
        (Type::Bool, And) => BinOp::BAnd,
        (Type::Bool, Or) => BinOp::BOr,
        (Type::Bool, Eq) => BinOp::BEq,
        (Type::Bool, Ne) => BinOp::BNe,
        _ => return None,
    })
}

/// The typed instruction for `op` on an operand of type `ty`.
pub(crate) fn un_op(op: ScalarUnOp, ty: &Type) -> Option<UnOp> {
    Some(match (op, ty) {
        (ScalarUnOp::Neg, Type::Int) => UnOp::INeg,
        (ScalarUnOp::Neg, Type::Float) => UnOp::FNeg,
        (ScalarUnOp::Not, Type::Bool) => UnOp::Not,
        (ScalarUnOp::ToFloat, Type::Int) => UnOp::IToF,
        _ => return None,
    })
}

impl<'m> Lowering<'m> {
    fn function(&mut self, name: String, params: &[&str], body: &Expr) -> Result<AotFn, VmError> {
        let mut b = Body::default();
        for p in params {
            let r = b.fresh()?;
            b.scope.push((p.to_string(), Val::Reg(r)));
        }
        let result = self.lower(&mut b, body, None)?;
        let src = self.word(&mut b, result)?;
        b.code.push(Instr::Ret { src });
        Ok(AotFn { name, nparams: params.len() as u16, nregs: b.nregs, code: b.code.into() })
    }

    fn type_of(&self, e: &Expr) -> Result<&'m Type, VmError> {
        self.module
            .expr_types
            .get(&e.id)
            .ok_or_else(|| unsupported(format!("untyped expression {}", e.id)))
    }

    fn span(&mut self, regs: &[Reg]) -> Result<Span, VmError> {
        let start = self.pool.len() as u32;
        let len = u16::try_from(regs.len()).map_err(|_| unsupported("more than 65535 operands"))?;
        self.pool.extend_from_slice(regs);
        Ok(Span { start, len })
    }

    /// Builds `dst = tag(fields…)`.  A field still awaiting its group's
    /// `Emit` is patched into the cell right after that emit.
    fn make_cell(
        &mut self,
        b: &mut Body,
        dst: Reg,
        tag: u32,
        fields: &[Reg],
    ) -> Result<(), VmError> {
        for (i, r) in fields.iter().enumerate() {
            match b.awaiting.get_mut(r) {
                Some(patches) => patches.push((dst, i as u16)),
                None => drop(b.readable(*r)?),
            }
        }
        let fields = self.span(fields)?;
        b.code.push(Instr::MakeCell { dst, tag, fields });
        Ok(())
    }

    /// `val` in one register — which, for a tensor, may still await its
    /// group's emit: cells and kernel inputs take such operands.
    fn operand(&mut self, b: &mut Body, val: Val) -> Result<Reg, VmError> {
        match val {
            Val::Reg(r) => Ok(r),
            Val::Tuple(parts) => {
                let dst = b.fresh()?;
                self.make_cell(b, dst, TUPLE, &parts)?;
                b.tuples.insert(dst, parts);
                Ok(dst)
            }
        }
    }

    /// `val` as one word that is read here and now.
    fn word(&mut self, b: &mut Body, val: Val) -> Result<Reg, VmError> {
        let r = self.operand(b, val)?;
        b.readable(r)
    }

    /// Hands `val` to whoever asked for it `into` a specific register.
    fn deliver(&mut self, b: &mut Body, val: Val, into: Option<Reg>) -> Result<Val, VmError> {
        let Some(dst) = into else { return Ok(val) };
        match val {
            Val::Reg(r) if r == dst => {}
            Val::Reg(r) => b.code.push(Instr::Move { dst, src: b.readable(r)? }),
            Val::Tuple(parts) => self.make_cell(b, dst, TUPLE, &parts)?,
        }
        Ok(Val::Reg(dst))
    }

    /// No fusion group spans control flow: static blocks end at every
    /// construct that calls this.
    fn groups_closed(&self, b: &Body, at: &str) -> Result<(), VmError> {
        match b.open_sites.keys().next() {
            None => Ok(()),
            Some(site) => Err(unsupported(format!("operator site {site} is still open at {at}"))),
        }
    }

    /// Lowers `expr`.  With `into`, the value is left in that register.
    fn lower(&mut self, b: &mut Body, expr: &Expr, into: Option<Reg>) -> Result<Val, VmError> {
        match &expr.kind {
            ExprKind::Var(name) => {
                let val = b
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| unsupported(format!("unbound %{name}")))?;
                self.deliver(b, val, into)
            }
            ExprKind::IntLit(v) => Ok(Val::Reg(b.constant(*v as u64, into)?)),
            ExprKind::FloatLit(v) => Ok(Val::Reg(b.constant(v.to_bits(), into)?)),
            ExprKind::BoolLit(v) => Ok(Val::Reg(b.constant(u64::from(*v), into)?)),
            ExprKind::PhaseBoundary => Ok(Val::Reg(b.constant(0, into)?)),
            ExprKind::RandRange { lo, hi } => {
                let (lo, hi) = (b.constant(*lo as u64, None)?, b.constant(*hi as u64, None)?);
                let dst = b.dst(into)?;
                b.code.push(Instr::Rand { dst, lo, hi });
                Ok(Val::Reg(dst))
            }
            ExprKind::Let { pat, value, body } => {
                let v = self.lower(b, value, None)?;
                // A tuple-destructuring `let` has never crossed its phase
                // boundary on this backend (the Relay-VM baseline does, which
                // is one reason the two build different DFGs); every recorded
                // paper artifact has that in it, so it stays until they are
                // re-recorded together.
                let crosses = !matches!(pat, Pattern::Tuple(_));
                if crosses && self.session.is_phase_boundary(expr.id) {
                    b.code.push(Instr::PhaseBump);
                }
                let mark = b.scope.len();
                match pat {
                    Pattern::Var(n) => b.scope.push((n.clone(), v)),
                    Pattern::Wildcard => {}
                    Pattern::Tuple(names) => {
                        for (i, n) in names.iter().enumerate() {
                            let part = self.project(b, v.clone(), i, None)?;
                            b.scope.push((n.clone(), part));
                        }
                    }
                }
                let out = self.lower(b, body, into)?;
                b.scope.truncate(mark);
                Ok(out)
            }
            ExprKind::If { cond, then, els } => {
                let c = self.lower(b, cond, None)?;
                let cond = self.word(b, c)?;
                self.groups_closed(b, "`if`")?;
                let dst = b.dst(into)?;
                let to_else = b.pc();
                b.code.push(Instr::JumpIfNot { cond, to: 0 });
                let mark = b.next;
                self.arm(b, then, dst)?;
                let to_end = b.pc();
                b.code.push(Instr::Jump { to: 0 });
                b.release(mark);
                b.land(to_else);
                self.arm(b, els, dst)?;
                b.release(mark);
                b.land(to_end);
                Ok(Val::Reg(dst))
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.lower(b, scrutinee, None)?;
                let cell = self.word(b, s)?;
                self.groups_closed(b, "`match`")?;
                let (first, last) = match arms.as_slice() {
                    [first, .., last] => (first, last),
                    [only] => (only, only),
                    [] => return Err(unsupported("`match` with no arms")),
                };
                let adt = self.module.adt_of_ctor(&first.ctor);
                let ctors = adt.map_or(&[][..], |a| &a.ctors);
                if let Some(c) = ctors.iter().find(|c| arms.iter().all(|a| a.ctor != c.name)) {
                    return Err(unsupported(format!("`match` has no arm for `{}`", c.name)));
                }
                let dst = b.dst(into)?;
                let mark = b.next;
                let mut to_end = Vec::with_capacity(arms.len());
                for arm in arms {
                    if !ctors.iter().any(|c| c.name == arm.ctor) {
                        return Err(unsupported(format!(
                            "`match` arm `{}` of another type",
                            arm.ctor
                        )));
                    }
                    // The last arm needs no test: the arms are exhaustive.
                    let miss = (!std::ptr::eq(arm, last)).then(|| {
                        b.code.push(Instr::JumpIfTagNe {
                            cell,
                            tag: self.session.ctors.tag(&arm.ctor),
                            to: 0,
                        });
                        b.pc() - 1
                    });
                    let scope = b.scope.len();
                    for (i, binder) in arm.binders.iter().enumerate() {
                        let r = b.fresh()?;
                        b.code.push(Instr::Field { dst: r, cell, index: i as u16 });
                        b.scope.push((binder.clone(), Val::Reg(r)));
                    }
                    self.arm(b, &arm.body, dst)?;
                    b.scope.truncate(scope);
                    b.release(mark);
                    if let Some(miss) = miss {
                        to_end.push(b.pc());
                        b.code.push(Instr::Jump { to: 0 });
                        b.land(miss);
                    }
                }
                to_end.into_iter().for_each(|j| b.land(j));
                Ok(Val::Reg(dst))
            }
            ExprKind::Call { callee, args } => match callee {
                Callee::Op { .. } => self.op_site(b, expr.id, args, into),
                Callee::Global(name) => {
                    let func = *self
                        .fn_index
                        .get(name.as_str())
                        .ok_or_else(|| unsupported(format!("call of unknown @{name}")))?;
                    let regs = self.operands(b, args)?;
                    self.groups_closed(b, "a call")?;
                    regs.iter().try_for_each(|r| b.readable(*r).map(drop))?;
                    let args = self.span(&regs)?;
                    let dst = b.dst(into)?;
                    b.code.push(Instr::Call { func, args, dst });
                    Ok(Val::Reg(dst))
                }
                Callee::Ctor(name) => {
                    let fields = self.operands(b, args)?;
                    let dst = b.dst(into)?;
                    self.make_cell(b, dst, self.session.ctors.tag(name), &fields)?;
                    Ok(Val::Reg(dst))
                }
                Callee::Var(name) => Err(unsupported(format!(
                    "first-class closure call `%{name}(…)` (use `map` or a global function)"
                ))),
            },
            ExprKind::Tuple(parts) => {
                let regs = self.operands(b, parts)?;
                self.deliver(b, Val::Tuple(regs), into)
            }
            ExprKind::Proj { tuple, index } => {
                let t = self.lower(b, tuple, None)?;
                self.project(b, t, *index, into)
            }
            ExprKind::Lambda { .. } => Err(unsupported("a lambda outside `map`")),
            ExprKind::Map { func, list } => self.map(b, func, list, into),
            ExprKind::Parallel(parts) => self.parallel(b, parts, into),
            ExprKind::ScalarBin { op, lhs, rhs } => {
                let (lt, rt) = (self.type_of(lhs)?, self.type_of(rhs)?);
                let op = bin_op(*op, lt).filter(|_| lt == rt).ok_or_else(|| {
                    unsupported(format!("scalar `{}` on {lt} and {rt}", op.symbol()))
                })?;
                let (l, r) = (self.lower(b, lhs, None)?, self.lower(b, rhs, None)?);
                let (a, bb) = (self.word(b, l)?, self.word(b, r)?);
                let dst = b.dst(into)?;
                b.code.push(Instr::Bin { op, dst, a, b: bb });
                Ok(Val::Reg(dst))
            }
            ExprKind::ScalarUn { op, operand } => {
                let ty = self.type_of(operand)?;
                let op =
                    un_op(*op, ty).ok_or_else(|| unsupported(format!("scalar {op:?} on {ty}")))?;
                let v = self.lower(b, operand, None)?;
                let a = self.word(b, v)?;
                let dst = b.dst(into)?;
                b.code.push(Instr::Un { op, dst, a });
                Ok(Val::Reg(dst))
            }
            ExprKind::Sync { kind, tensor } => {
                let t = self.lower(b, tensor, None)?;
                let tensor = self.word(b, t)?;
                self.groups_closed(b, "a sync point")?;
                let dst = b.dst(into)?;
                b.code.push(Instr::Sync { kind: *kind, dst, tensor });
                Ok(Val::Reg(dst))
            }
        }
    }

    fn operands(&mut self, b: &mut Body, exprs: &[Expr]) -> Result<Vec<Reg>, VmError> {
        let mut regs = Vec::with_capacity(exprs.len());
        for e in exprs {
            let v = self.lower(b, e, None)?;
            regs.push(self.operand(b, v)?);
        }
        Ok(regs)
    }

    /// Component `index` of a tuple: a register the lowering already knows
    /// — the tuple never became a cell, or became one in a fresh register of
    /// this region ([`Body::tuples`]) — or else a load from the tuple's cell
    /// (a parameter, a call result, the merged value of `if`/`match` arms).
    fn project(
        &mut self,
        b: &mut Body,
        tuple: Val,
        index: usize,
        into: Option<Reg>,
    ) -> Result<Val, VmError> {
        let tuple = match tuple {
            Val::Reg(cell) => b.tuples.get(&cell).cloned().map_or(Val::Reg(cell), Val::Tuple),
            parts => parts,
        };
        match tuple {
            Val::Tuple(parts) => {
                let part =
                    *parts.get(index).ok_or_else(|| unsupported("tuple index out of range"))?;
                self.deliver(b, Val::Reg(part), into)
            }
            Val::Reg(cell) => {
                let (cell, dst) = (b.readable(cell)?, b.dst(into)?);
                b.code.push(Instr::Field { dst, cell, index: index as u16 });
                Ok(Val::Reg(dst))
            }
        }
    }

    /// One `if`/`match` arm: its value into `dst`, then its ghost padding.
    fn arm(&mut self, b: &mut Body, body: &Expr, dst: Reg) -> Result<(), VmError> {
        self.lower(b, body, Some(dst))?;
        self.groups_closed(b, "the end of a branch")?;
        if let Some(&bumps) = self.session.analysis.ghosts.get(&body.id).filter(|&&n| n > 0) {
            b.code.push(Instr::Ghost { bumps: bumps as u32 });
        }
        Ok(())
    }

    /// A tensor-operator call site.  Records where its operands and result
    /// live; emits code only if it is the last site of its fusion group.
    fn op_site(
        &mut self,
        b: &mut Body,
        site: ExprId,
        args: &[Expr],
        into: Option<Reg>,
    ) -> Result<Val, VmError> {
        let info =
            *self.session.analysis.site_info.get(&site).ok_or_else(|| {
                unsupported(format!("operator site {site} is in no fusion group"))
            })?;
        // An operand may still await its own group's emit: it is read when
        // *this* group emits, not here.
        let regs = self.operands(b, args)?;
        let dst = b.dst(into)?;
        b.open_sites.insert(site, (regs, dst));
        if !info.closes_group {
            b.awaiting.insert(dst, Vec::new());
            return Ok(Val::Reg(dst));
        }

        let engine = self.session.engine();
        let library = engine.library();
        let group = self.groups[&info.group];
        let mut inputs = Vec::new();
        for &(from, arg) in library.bindings_for_group(info.group) {
            let r =
                b.open_sites.get(&from).and_then(|(regs, _)| regs.get(arg)).copied().ok_or_else(
                    || {
                        unsupported(format!(
                            "kernel input ({from}, {arg}) of group {:?} was never lowered",
                            info.group
                        ))
                    },
                )?;
            if b.awaiting.contains_key(&r) || b.fused.contains(&r) {
                return Err(unsupported(format!(
                    "kernel input ({from}, {arg}) of group {:?} is not emitted before the group closes",
                    info.group
                )));
            }
            inputs.push(r);
        }
        let never_lowered = |member: &ExprId| {
            unsupported(format!("site {member} of group {:?} was never lowered", info.group))
        };
        let outputs = library.outputs_for_group(info.group).iter();
        let outputs = outputs
            .map(|s| b.open_sites.get(s).map(|(_, r)| *r).ok_or_else(|| never_lowered(s)))
            .collect::<Result<Vec<Reg>, _>>()?;
        b.code.push(Instr::Emit { desc: self.emits.len() as u32 });
        self.emits.push(EmitDesc {
            unit: engine.unit(info.group).clone(),
            inputs: inputs.into(),
            outputs: outputs.clone().into(),
            static_depth: self.session.static_depth(group.sites.iter().copied()),
            block: info.block,
            closes_block: info.closes_block,
        });
        for member in &group.sites {
            let (_, r) = b.open_sites.remove(member).ok_or_else(|| never_lowered(member))?;
            let patches = b.awaiting.remove(&r).unwrap_or_default();
            if !outputs.contains(&r) {
                b.fused.insert(r);
            }
            for (cell, index) in patches {
                b.code.push(Instr::SetField { cell, index, src: b.readable(r)? });
            }
        }
        Ok(Val::Reg(dst))
    }

    /// `parallel(e₀, …)`: in place, every branch starts at the depth the
    /// construct was entered with and the parent resumes at the maximum
    /// (§4.1); in fiber mode the leading `Fork` runs the same branch code on
    /// forked fibers and lands on the join.
    fn parallel(
        &mut self,
        b: &mut Body,
        parts: &[Expr],
        into: Option<Reg>,
    ) -> Result<Val, VmError> {
        self.groups_closed(b, "`parallel`")?;
        let fork = self.forks.len() as u32;
        self.forks.push(ForkDesc::Branches { branches: Box::new([]), join: 0 });
        b.code.push(Instr::Fork { desc: fork });
        let (d0, dmax) = (b.fresh()?, b.fresh()?);
        b.code.push(Instr::DepthGet { dst: d0 });
        b.code.push(Instr::DepthGet { dst: dmax });
        let results = (0..parts.len()).map(|_| b.fresh()).collect::<Result<Vec<Reg>, _>>()?;
        let mark = b.next;
        let mut branches = Vec::with_capacity(parts.len());
        for (i, (part, &result)) in parts.iter().zip(&results).enumerate() {
            b.code.push(Instr::DepthSet { src: d0 });
            branches.push(Branch { start: b.pc(), result });
            self.lower(b, part, Some(result))?;
            self.groups_closed(b, "the end of a `parallel` branch")?;
            b.code.push(Instr::BranchEnd { fork, branch: i as u16 });
            b.code.push(Instr::DepthMax { acc: dmax });
            b.release(mark);
        }
        b.code.push(Instr::DepthSet { src: dmax });
        self.forks[fork as usize] = ForkDesc::Branches { branches: branches.into(), join: b.pc() };
        self.deliver(b, Val::Tuple(results), into)
    }

    /// `map(fn(%x) { … }, list)`: the lambda is lifted to a function whose
    /// extra parameters are its free variables; in place, a loop walks the
    /// list cells, calls it with concurrent-depth semantics and appends
    /// each result to the output list by patching the previous cell's tail.
    fn map(
        &mut self,
        b: &mut Body,
        func: &Expr,
        list: &Expr,
        into: Option<Reg>,
    ) -> Result<Val, VmError> {
        let l = self.lower(b, list, None)?;
        let list = self.word(b, l)?;
        self.groups_closed(b, "`map`")?;
        let ExprKind::Lambda { params, body } = &func.kind else {
            return Err(unsupported("`map` over a function value that is not a lambda"));
        };
        let mut names: Vec<String> = params.iter().map(|p| p.name.clone()).collect();
        let mut free = Vec::new();
        collect_free_vars(body, &names, &mut free);
        let mut captures = Vec::with_capacity(free.len());
        for n in &free {
            let val = b
                .lookup(n)
                .cloned()
                .ok_or_else(|| unsupported(format!("capture %{n} is not in scope")))?;
            captures.push(self.word(b, val)?);
        }
        names.extend(free);
        let lifted = self.fns.len() as u32;
        self.fns.push(None);
        let params: Vec<&str> = names.iter().map(String::as_str).collect();
        self.fns[lifted as usize] =
            Some(self.function(format!("lambda#{lifted}"), &params, body)?);

        let (cons, nil) = (self.session.ctors.tag("Cons"), self.session.ctors.tag("Nil"));
        let dst = b.dst(into)?;
        let fork = self.forks.len() as u32;
        let captures_span = self.span(&captures)?;
        b.code.push(Instr::Fork { desc: fork });
        let (d0, dmax) = (b.fresh()?, b.fresh()?);
        b.code.push(Instr::DepthGet { dst: d0 });
        b.code.push(Instr::DepthGet { dst: dmax });
        // A dummy head cell makes "append" one case: patch the last tail.
        let (head, last, cur) = (b.fresh()?, b.fresh()?, b.fresh()?);
        let (item, result, cell) = (b.fresh()?, b.fresh()?, b.fresh()?);
        let dummy = self.span(&[list, list])?;
        b.code.push(Instr::MakeCell { dst: head, tag: cons, fields: dummy });
        b.code.push(Instr::Move { dst: last, src: head });
        b.code.push(Instr::Move { dst: cur, src: list });
        let top = b.pc();
        b.code.push(Instr::JumpIfTagNe { cell: cur, tag: cons, to: 0 });
        b.code.push(Instr::Field { dst: item, cell: cur, index: 0 });
        b.code.push(Instr::Field { dst: cur, cell: cur, index: 1 });
        b.code.push(Instr::DepthSet { src: d0 });
        let mut args = vec![item];
        args.extend(&captures);
        let args = self.span(&args)?;
        b.code.push(Instr::Call { func: lifted, args, dst: result });
        b.code.push(Instr::DepthMax { acc: dmax });
        let fields = self.span(&[result, result])?;
        b.code.push(Instr::MakeCell { dst: cell, tag: cons, fields });
        b.code.push(Instr::SetField { cell: last, index: 1, src: cell });
        b.code.push(Instr::Move { dst: last, src: cell });
        b.code.push(Instr::Jump { to: top });
        b.land(top);
        let empty = self.span(&[])?;
        b.code.push(Instr::MakeCell { dst: cell, tag: nil, fields: empty });
        b.code.push(Instr::SetField { cell: last, index: 1, src: cell });
        b.code.push(Instr::Field { dst, cell: head, index: 1 });
        b.code.push(Instr::DepthSet { src: dmax });
        let (captures, join) = (captures_span, b.pc());
        self.forks.push(ForkDesc::Map { list, func: lifted, captures, dst, cons, nil, join });
        Ok(Val::Reg(dst))
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
                bound.extend(pat.names().iter().cloned());
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

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The return half of a program call: where the caller resumes.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    pc: u32,
    base: u32,
    dst: Reg,
}

/// One fiber's execution state, reused across the instances of a request
/// and — pooled by the backend — across requests.
#[derive(Debug, Default)]
pub(crate) struct Machine {
    /// The register stack; a frame is the window `base .. base + nregs`.
    regs: Vec<u64>,
    frames: Vec<Frame>,
    /// Argument buffer of the `Emit` in flight.
    args: Vec<ValueId>,
}

/// What one request needs besides its execution context, pooled with it by
/// the session so a steady-state request allocates none of it.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The calling thread's machine (a sequential run's only one).
    pub(crate) machine: Machine,
    /// The run's tuple/ADT cells: cleared, not freed, between requests.
    pub(crate) arena: Vec<u64>,
    /// `@main`'s argument words, one per parameter per instance.
    pub(crate) main_args: Vec<u64>,
}

/// Register-stack and arena capacity, in words, above which a request's
/// scratch is dropped rather than pooled: one deep recursion must not pin
/// its high-water mark.
const POOLED_WORDS: usize = 1 << 16;

impl Scratch {
    /// Whether this scratch grew past [`POOLED_WORDS`] and must not be
    /// pooled.
    pub(crate) fn oversized(&self) -> bool {
        self.machine.regs.capacity().max(self.arena.capacity()) > POOLED_WORDS
    }
}

impl Machine {
    /// Grows the register stack to hold a frame ending at `end`, within
    /// [`MAX_REG_WORDS`].
    fn reserve(&mut self, end: usize) -> Result<(), VmError> {
        if end > MAX_REG_WORDS {
            return Err(VmError::DepthExceeded { limit: self.frames.len() });
        }
        if self.regs.len() < end {
            self.regs.resize(end.max(2 * self.regs.len()).min(MAX_REG_WORDS), 0);
        }
        Ok(())
    }
}

/// How a fiber reaches the run's cell arena: owned outright when the run
/// is sequential, behind the run's own lock when its fibers share it.
pub(crate) type Heap<'a> = Handle<'a, Vec<u64>>;

/// Appends the cell `tag(fields…)` — a header word, then one word per field
/// — and returns its index.
fn new_cell(arena: &mut Vec<u64>, tag: u32, fields: impl Iterator<Item = u64>) -> u64 {
    let at = arena.len() as u64;
    arena.push(tag as u64);
    arena.extend(fields);
    at
}

fn tag_of(arena: &[u64], cell: u64) -> u32 {
    arena[cell as usize] as u32
}

/// Where a fiber starts executing.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A call of `func`, its arguments already in registers `0..`.
    Call(u32),
    /// `parallel` branch `branch` of fork `fork` of function `func`, on a
    /// copy of the parent's frame: from `at.start` to the matching
    /// `BranchEnd`, yielding `at.result`.
    Branch { func: u32, fork: u32, branch: u16, at: Branch },
}

impl AotProgram {
    /// Runs one instance: `@main` over `args`.
    pub(crate) fn run_main(
        &self,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        heap: &mut Heap<'_>,
        ctx: &mut ExecCtx,
        m: &mut Machine,
        args: &[u64],
    ) -> Result<u64, VmError> {
        m.reserve(args.len())?;
        m.regs[..args.len()].copy_from_slice(args);
        self.run(run, rt, heap, ctx, m, Entry::Call(self.main))
    }

    /// The execute loop: runs from `entry` until the entry frame returns.
    #[allow(clippy::too_many_lines)]
    fn run(
        &self,
        run: &RunSession<'_>,
        rt: &mut RtHandle<'_>,
        heap: &mut Heap<'_>,
        ctx: &mut ExecCtx,
        m: &mut Machine,
        entry: Entry,
    ) -> Result<u64, VmError> {
        let (mut f, mut pc, until) = match entry {
            Entry::Call(func) => (func as usize, 0, None),
            Entry::Branch { func, fork, branch, at } => {
                (func as usize, at.start as usize, Some((fork, branch, at.result)))
            }
        };
        let mut base = 0usize;
        m.frames.clear();
        m.reserve(self.fns[f].nregs as usize)?;
        let mut code = &*self.fns[f].code;
        loop {
            let instr = code[pc];
            pc += 1;
            match instr {
                Instr::Const { dst, bits } => m.regs[base + dst as usize] = bits,
                Instr::Move { dst, src } => {
                    m.regs[base + dst as usize] = m.regs[base + src as usize]
                }
                Instr::Bin { op, dst, a, b } => {
                    let (a, b) = (m.regs[base + a as usize], m.regs[base + b as usize]);
                    m.regs[base + dst as usize] = scalar_bin(op, a, b)?;
                }
                Instr::Un { op, dst, a } => {
                    m.regs[base + dst as usize] = scalar_un(op, m.regs[base + a as usize]);
                }
                Instr::Rand { dst, lo, hi } => {
                    let (lo, hi) = (m.regs[base + lo as usize], m.regs[base + hi as usize]);
                    m.regs[base + dst as usize] = ctx.rng.next_range(lo as i64, hi as i64) as u64;
                }
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfNot { cond, to } => {
                    if m.regs[base + cond as usize] == 0 {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfTagNe { cell, tag, to } => {
                    let cell = m.regs[base + cell as usize];
                    if heap.with(|arena| tag_of(arena, cell)) != tag {
                        pc = to as usize;
                    }
                }
                Instr::Ghost { bumps } => ctx.depth += bumps as u64,
                Instr::PhaseBump => run.bump_phase(ctx),
                Instr::DepthGet { dst } => m.regs[base + dst as usize] = ctx.depth,
                Instr::DepthSet { src } => ctx.depth = m.regs[base + src as usize],
                Instr::DepthMax { acc } => {
                    let acc = &mut m.regs[base + acc as usize];
                    *acc = (*acc).max(ctx.depth);
                }
                Instr::MakeCell { dst, tag, fields } => {
                    let fields = &self.pool[fields.start as usize..][..fields.len as usize];
                    let words = fields.iter().map(|&r| m.regs[base + r as usize]);
                    m.regs[base + dst as usize] = heap.with(|arena| new_cell(arena, tag, words));
                }
                Instr::Field { dst, cell, index } => {
                    let at = m.regs[base + cell as usize] as usize + 1 + index as usize;
                    m.regs[base + dst as usize] = heap.with(|arena| arena[at]);
                }
                Instr::SetField { cell, index, src } => {
                    let at = m.regs[base + cell as usize] as usize + 1 + index as usize;
                    let word = m.regs[base + src as usize];
                    heap.with(|arena| arena[at] = word);
                }
                Instr::Call { func, args, dst } => {
                    if m.frames.len() >= MAX_FRAMES {
                        return Err(VmError::DepthExceeded { limit: MAX_FRAMES });
                    }
                    let callee = &self.fns[func as usize];
                    let callee_base = base + self.fns[f].nregs as usize;
                    m.reserve(callee_base + callee.nregs as usize)?;
                    let args = &self.pool[args.start as usize..][..args.len as usize];
                    for (i, &r) in args.iter().enumerate() {
                        m.regs[callee_base + i] = m.regs[base + r as usize];
                    }
                    m.frames.push(Frame { func: f as u32, pc: pc as u32, base: base as u32, dst });
                    (f, base, pc, code) = (func as usize, callee_base, 0, &*callee.code);
                }
                Instr::Ret { src } => {
                    let word = m.regs[base + src as usize];
                    let Some(caller) = m.frames.pop() else { return Ok(word) };
                    (f, base, pc) =
                        (caller.func as usize, caller.base as usize, caller.pc as usize);
                    code = &*self.fns[f].code;
                    m.regs[base + caller.dst as usize] = word;
                }
                Instr::Emit { desc } => {
                    let desc = &self.emits[desc as usize];
                    m.args.clear();
                    m.args.extend(desc.inputs.iter().map(|&r| ValueId(m.regs[base + r as usize])));
                    let first = run.emit_unit(
                        rt,
                        ctx,
                        &desc.unit,
                        desc.static_depth,
                        desc.block,
                        desc.closes_block,
                        &m.args,
                    );
                    for (slot, &r) in desc.outputs.iter().enumerate() {
                        m.regs[base + r as usize] = first.0 + slot as u64;
                    }
                }
                Instr::Sync { kind, dst, tensor } => {
                    let tensor = ValueId(m.regs[base + tensor as usize]);
                    let value = match kind {
                        SyncKind::Item => run.item(rt, tensor)?,
                        SyncKind::Sample => run.sample(rt, ctx, tensor)?,
                    };
                    m.regs[base + dst as usize] = value.to_bits();
                }
                Instr::Fork { desc } => {
                    // A run whose fibers share its context is in fiber mode.
                    if let (Handle::Shared(rt), Handle::Shared(heap)) = (&*rt, &*heap) {
                        let frame = base..base + self.fns[f].nregs as usize;
                        let shared = Shared { run, rt, heap };
                        if let Some(join) =
                            self.fork(&shared, ctx, &mut m.regs[frame], f as u32, desc)?
                        {
                            pc = join as usize;
                        }
                    }
                }
                Instr::BranchEnd { fork, branch } => match until {
                    Some((f, b, result)) if (f, b) == (fork, branch) && m.frames.is_empty() => {
                        return Ok(m.regs[base + result as usize]);
                    }
                    _ => {}
                },
            }
        }
    }

    /// Fiber mode (§4.2): runs the branches of fork `desc` — `parallel`
    /// branches on copies of `frame`, or one lifted-lambda call per `map`
    /// element — as forked fibers, writes their results into `frame` and
    /// returns the join to jump to.  All children start at the parent's
    /// depth and the parent resumes at their maximum (§4.1); each child's
    /// pseudo-random stream is split from the parent's so DRNN-style
    /// models stay seed-reproducible per fiber (§E.1).  Fewer than two
    /// branches run in place (`None`), on the parent's own stream.
    fn fork(
        &self,
        shared: &Shared<'_, '_>,
        ctx: &mut ExecCtx,
        frame: &mut [u64],
        func: u32,
        desc: u32,
    ) -> Result<Option<u32>, VmError> {
        // What each child starts from: its entry and its initial registers.
        let (children, join): (Vec<(Entry, Vec<u64>)>, u32) = match &self.forks[desc as usize] {
            ForkDesc::Branches { branches, join } => {
                let entry = |(i, at): (u16, &Branch)| Entry::Branch {
                    func,
                    fork: desc,
                    branch: i,
                    at: *at,
                };
                ((0..).zip(branches.iter()).map(|b| (entry(b), frame.to_vec())).collect(), *join)
            }
            ForkDesc::Map { list, func, captures, cons, join, .. } => {
                let captures = &self.pool[captures.start as usize..][..captures.len as usize];
                let mut children = Vec::new();
                let arena = shared.heap.lock();
                let mut cur = frame[*list as usize] as usize;
                while tag_of(&arena, cur as u64) == *cons {
                    let mut regs = vec![arena[cur + 1]];
                    regs.extend(captures.iter().map(|&r| frame[r as usize]));
                    children.push((Entry::Call(*func), regs));
                    cur = arena[cur + 2] as usize;
                }
                (children, *join)
            }
        };
        let n = children.len();
        if n <= 1 {
            return Ok(None);
        }
        let mut ctxs: Vec<ExecCtx> = (0..n)
            .map(|i| {
                let mut c = ctx.fork(i);
                c.rng = Prng::new(ctx.rng.next_u64(), i);
                c
            })
            .collect();
        let results: Vec<Result<u64, VmError>> = std::thread::scope(|scope| {
            let hub = &shared.run.hub;
            let g = hub.fork(n);
            let mut handles = Vec::with_capacity(n);
            for ((entry, regs), cctx) in children.into_iter().zip(ctxs.iter_mut()) {
                let fiber = move || {
                    let mut m = Machine { regs, ..Machine::default() };
                    let (mut rt, mut heap) =
                        (Handle::Shared(shared.rt), Handle::Shared(shared.heap));
                    let r = self.run(shared.run, &mut rt, &mut heap, cctx, &mut m, entry);
                    hub.finish_child(g);
                    r
                };
                handles.push(
                    std::thread::Builder::new().spawn_scoped(scope, fiber).expect("spawn fiber"),
                );
            }
            hub.join_while(g, || {
                handles.into_iter().map(|h| h.join().expect("fiber panicked")).collect()
            })
        });
        ctx.depth = ctxs.iter().map(|c| c.depth).max().unwrap_or(ctx.depth);
        match &self.forks[desc as usize] {
            ForkDesc::Branches { branches, .. } => {
                for (branch, word) in branches.iter().zip(results) {
                    frame[branch.result as usize] = word?;
                }
            }
            ForkDesc::Map { dst, cons, nil, .. } => {
                let items = results.into_iter().collect::<Result<Vec<u64>, _>>()?;
                let mut arena = shared.heap.lock();
                let mut list = new_cell(&mut arena, *nil, [].into_iter());
                for item in items.into_iter().rev() {
                    list = new_cell(&mut arena, *cons, [item, list].into_iter());
                }
                frame[*dst as usize] = list;
            }
        }
        Ok(Some(join))
    }
}

/// What the fibers of one fiber-mode run share.
struct Shared<'a, 's> {
    run: &'a RunSession<'s>,
    rt: &'a Mutex<ExecutionContext>,
    heap: &'a Mutex<Vec<u64>>,
}

pub(crate) fn scalar_bin(op: BinOp, a: u64, b: u64) -> Result<u64, VmError> {
    let (x, y) = (a as i64, b as i64);
    let (p, q) = (f64::from_bits(a), f64::from_bits(b));
    Ok(match op {
        BinOp::IAdd => x.wrapping_add(y) as u64,
        BinOp::ISub => x.wrapping_sub(y) as u64,
        BinOp::IMul => x.wrapping_mul(y) as u64,
        BinOp::IDiv => {
            x.checked_div(y).ok_or_else(|| VmError::Input(format!("integer division {x} / {y}")))?
                as u64
        }
        BinOp::ILt => u64::from(x < y),
        BinOp::ILe => u64::from(x <= y),
        BinOp::IGt => u64::from(x > y),
        BinOp::IGe => u64::from(x >= y),
        BinOp::IEq | BinOp::BEq => u64::from(a == b),
        BinOp::INe | BinOp::BNe => u64::from(a != b),
        BinOp::FAdd => (p + q).to_bits(),
        BinOp::FSub => (p - q).to_bits(),
        BinOp::FMul => (p * q).to_bits(),
        BinOp::FDiv => (p / q).to_bits(),
        BinOp::FLt => u64::from(p < q),
        BinOp::FLe => u64::from(p <= q),
        BinOp::FGt => u64::from(p > q),
        BinOp::FGe => u64::from(p >= q),
        BinOp::FEq => u64::from(p == q),
        BinOp::FNe => u64::from(p != q),
        BinOp::BAnd => a & b,
        BinOp::BOr => a | b,
    })
}

pub(crate) fn scalar_un(op: UnOp, a: u64) -> u64 {
    match op {
        UnOp::INeg => (a as i64).wrapping_neg() as u64,
        UnOp::FNeg => (-f64::from_bits(a)).to_bits(),
        UnOp::Not => a ^ 1,
        UnOp::IToF => (a as i64 as f64).to_bits(),
    }
}

// ---------------------------------------------------------------------------
// The request boundary
// ---------------------------------------------------------------------------

/// One level of a request input resolved against its layout
/// ([`Layouts::resolve`]).
enum Resolved<'a> {
    /// A tensor: the next uploaded input tensor.
    Tensor,
    /// A scalar, as its register word.
    Word(u64),
    /// A tuple or constructor cell: its tag and its fields with their
    /// layouts.
    Cell { tag: u32, layouts: &'a [u32], fields: &'a [InputValue] },
}

impl Layouts {
    pub(crate) fn of_main(module: &Module, session: &Session) -> Result<Layouts, VmError> {
        let main = module.functions.get("main").ok_or_else(|| unsupported("no @main"))?;
        let mut layouts = Layouts::default();
        let mut ids = HashMap::new();
        for p in &main.params {
            let layout = match p.kind {
                ParamKind::Model => None,
                ParamKind::Input => Some(layouts.id(&p.ty, module, session, &mut ids)),
            };
            layouts.params.push(layout);
        }
        layouts.ret = layouts.id(&main.ret, module, session, &mut ids);
        Ok(layouts)
    }

    fn id(
        &mut self,
        ty: &Type,
        module: &Module,
        session: &Session,
        ids: &mut HashMap<Type, u32>,
    ) -> u32 {
        if let Some(&id) = ids.get(ty) {
            return id;
        }
        // Registered before its fields are visited: ADTs are recursive.
        let id = self.table.len() as u32;
        self.table.push(Layout::Opaque);
        ids.insert(ty.clone(), id);
        self.table[id as usize] = match ty {
            Type::Tensor(_) => Layout::Tensor,
            Type::Int => Layout::Int,
            Type::Float => Layout::Float,
            Type::Bool => Layout::Bool,
            Type::Tuple(parts) => {
                Layout::Tuple(parts.iter().map(|t| self.id(t, module, session, ids)).collect())
            }
            Type::Adt { name, args } => match module.adts.get(name) {
                None => Layout::Opaque,
                Some(adt) => {
                    let ctors = adt.ctors.iter().map(|c| CtorLayout {
                        name: c.name.clone(),
                        tag: session.ctors.tag(&c.name),
                        fields: c
                            .fields
                            .iter()
                            .map(|f| {
                                self.id(&instantiate(f, &adt.type_vars, args), module, session, ids)
                            })
                            .collect(),
                    });
                    Layout::Adt(ctors.collect())
                }
            },
            Type::Fn { .. } | Type::Var(_) => Layout::Opaque,
        };
        id
    }

    /// Checks one instance's `%` inputs, as many as `@main` takes, against
    /// their parameter types.
    ///
    /// # Errors
    ///
    /// [`VmError::Input`] for a value that does not have its parameter's
    /// type (an unknown constructor among them).
    pub(crate) fn check(&self, inputs: &[InputValue]) -> Result<(), VmError> {
        let params = self.params.iter().flatten();
        params.zip(inputs).try_for_each(|(&layout, value)| self.check_value(layout, value))
    }

    fn check_value(&self, layout: u32, value: &InputValue) -> Result<(), VmError> {
        match self.resolve(layout, value)? {
            Resolved::Cell { layouts, fields, .. } => {
                layouts.iter().zip(fields).try_for_each(|(&l, field)| self.check_value(l, field))
            }
            Resolved::Tensor | Resolved::Word(_) => Ok(()),
        }
    }

    /// Resolves the outermost level of `value` against `layout` — the one
    /// place an input is matched against its type, for both backends.
    fn resolve<'a>(&'a self, layout: u32, value: &'a InputValue) -> Result<Resolved<'a>, VmError> {
        let mismatch = |want: &str| VmError::Input(format!("expected {want}, got {value:?}"));
        match (&self.table[layout as usize], value) {
            (Layout::Tensor, InputValue::Tensor(_)) => Ok(Resolved::Tensor),
            (Layout::Int, InputValue::Int(x)) => Ok(Resolved::Word(*x as u64)),
            (Layout::Float, InputValue::Float(x)) => Ok(Resolved::Word(x.to_bits())),
            (Layout::Bool, InputValue::Bool(x)) => Ok(Resolved::Word(u64::from(*x))),
            (Layout::Tuple(layouts), InputValue::Tuple(parts)) if layouts.len() == parts.len() => {
                Ok(Resolved::Cell { tag: TUPLE, layouts, fields: parts })
            }
            (Layout::Adt(ctors), InputValue::Adt { ctor, fields }) => {
                match ctors.iter().find(|c| c.name == *ctor && c.fields.len() == fields.len()) {
                    Some(c) => Ok(Resolved::Cell { tag: c.tag, layouts: &c.fields, fields }),
                    None => Err(mismatch("a constructor of the parameter's type")),
                }
            }
            (Layout::Tensor, _) => Err(mismatch("a tensor")),
            (Layout::Int, _) => Err(mismatch("an Int")),
            (Layout::Float, _) => Err(mismatch("a Float")),
            (Layout::Bool, _) => Err(mismatch("a Bool")),
            (Layout::Tuple(parts), _) => Err(mismatch(&format!("a {}-tuple", parts.len()))),
            (Layout::Adt(_), _) => Err(mismatch("an ADT value")),
            (Layout::Opaque, _) => Err(mismatch("a value of a first-order type")),
        }
    }
}

/// A constructor field type with the ADT's type variables replaced by the
/// instance's arguments.
fn instantiate(field: &Type, vars: &[String], args: &[Type]) -> Type {
    match field {
        Type::Adt { name, args: none } if none.is_empty() && vars.contains(name) => {
            let at = vars.iter().position(|v| v == name).expect("just found");
            args.get(at).cloned().unwrap_or(Type::Var(0))
        }
        Type::Adt { name, args: inner } => Type::Adt {
            name: name.clone(),
            args: inner.iter().map(|t| instantiate(t, vars, args)).collect(),
        },
        Type::Tuple(parts) => {
            Type::Tuple(parts.iter().map(|t| instantiate(t, vars, args)).collect())
        }
        other => other.clone(),
    }
}

impl AotProgram {
    /// Converts one instance's inputs to `@main` argument words, appended to
    /// `out`: `weights` holds the uploaded value of every `$` parameter (and
    /// `None` for every `%` one), `tensors` yields the instance's uploaded
    /// input tensors in traversal order.
    ///
    /// # Errors
    ///
    /// [`VmError::Input`] when a value does not have its parameter's type.
    pub(crate) fn bind(
        &self,
        weights: &[Option<ValueId>],
        inputs: &[InputValue],
        tensors: &mut impl Iterator<Item = ValueId>,
        arena: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) -> Result<(), VmError> {
        let mut inputs = inputs.iter();
        for (layout, weight) in self.layouts.params.iter().zip(weights) {
            out.push(match (weight, layout) {
                (Some(weight), _) => weight.0,
                (None, Some(layout)) => {
                    let value =
                        inputs.next().ok_or_else(|| VmError::Input("too few inputs".into()))?;
                    self.input_word(*layout, value, tensors, arena)?
                }
                (None, None) => {
                    return Err(VmError::Input("a `$` parameter was not uploaded".into()))
                }
            });
        }
        Ok(())
    }

    fn input_word(
        &self,
        layout: u32,
        value: &InputValue,
        tensors: &mut impl Iterator<Item = ValueId>,
        arena: &mut Vec<u64>,
    ) -> Result<u64, VmError> {
        match self.layouts.resolve(layout, value)? {
            Resolved::Tensor => tensors
                .next()
                .map(|v| v.0)
                .ok_or_else(|| VmError::Input("tensor not uploaded".into())),
            Resolved::Word(word) => Ok(word),
            Resolved::Cell { tag, layouts, fields } => {
                // The cell first, then its fields in place: no scratch buffer.
                let at = new_cell(arena, tag, layouts.iter().map(|_| 0)) as usize;
                for (i, (layout, field)) in layouts.iter().zip(fields).enumerate() {
                    let word = self.input_word(*layout, field, tensors, arena)?;
                    arena[at + 1 + i] = word;
                }
                Ok(at as u64)
            }
        }
    }

    /// Converts `@main`'s result word back to a host value, downloading its
    /// tensors.
    ///
    /// # Errors
    ///
    /// Propagates download errors; [`VmError::Input`] for a result that has
    /// no host representation (a function).
    pub(crate) fn output(
        &self,
        word: u64,
        arena: &[u64],
        ctx: &mut ExecutionContext,
    ) -> Result<OutputValue, VmError> {
        self.output_value(self.layouts.ret, word, arena, ctx)
    }

    fn output_value(
        &self,
        layout: u32,
        word: u64,
        arena: &[u64],
        ctx: &mut ExecutionContext,
    ) -> Result<OutputValue, VmError> {
        let mut fields = |layouts: &[u32]| -> Result<Vec<OutputValue>, VmError> {
            let words = &arena[word as usize + 1..][..layouts.len()];
            layouts.iter().zip(words).map(|(l, w)| self.output_value(*l, *w, arena, ctx)).collect()
        };
        Ok(match &self.layouts.table[layout as usize] {
            Layout::Tensor => OutputValue::Tensor(ctx.download(ValueId(word))?),
            Layout::Int => OutputValue::Int(word as i64),
            Layout::Float => OutputValue::Float(f64::from_bits(word)),
            Layout::Bool => OutputValue::Bool(word != 0),
            Layout::Tuple(layouts) => OutputValue::Tuple(fields(layouts)?),
            Layout::Adt(ctors) => {
                let tag = tag_of(arena, word);
                let ctor = ctors.iter().find(|c| c.tag == tag);
                let ctor =
                    ctor.ok_or_else(|| VmError::Input("model output of another type".into()))?;
                OutputValue::Adt { ctor: ctor.name.clone(), fields: fields(&ctor.fields)? }
            }
            Layout::Opaque => {
                return Err(VmError::Input("a function escaped as a model output".into()))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

impl fmt::Display for AotProgram {
    /// One instruction per line: `pc  text`, registers `rN`, jump targets
    /// `@pc`, an `Emit` as `kK <- inputs ($ marks a shared operand) ->
    /// outputs depth=… block=… [closes_block]`.
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let regs = |span: Span| {
            let regs = &self.pool[span.start as usize..][..span.len as usize];
            regs.iter().map(|r| format!("r{r}")).collect::<Vec<_>>().join(", ")
        };
        let callee = |func: u32| &self.fns[func as usize].name;
        for (i, f) in self.fns.iter().enumerate() {
            if i > 0 {
                writeln!(out)?;
            }
            let params = (0..f.nparams).map(|r| format!("r{r}")).collect::<Vec<_>>().join(", ");
            writeln!(out, "fn {}({params}) regs={}", f.name, f.nregs)?;
            for (pc, instr) in f.code.iter().enumerate() {
                write!(out, "  {pc:04}  ")?;
                match *instr {
                    Instr::Const { dst, bits } => write!(out, "r{dst} = const {bits:#x}")?,
                    Instr::Move { dst, src } => write!(out, "r{dst} = r{src}")?,
                    Instr::Bin { op, dst, a, b } => write!(out, "r{dst} = {op:?} r{a}, r{b}")?,
                    Instr::Un { op, dst, a } => write!(out, "r{dst} = {op:?} r{a}")?,
                    Instr::Rand { dst, lo, hi } => write!(out, "r{dst} = rand r{lo}..=r{hi}")?,
                    Instr::Jump { to } => write!(out, "jump @{to:04}")?,
                    Instr::JumpIfNot { cond, to } => write!(out, "unless r{cond} jump @{to:04}")?,
                    Instr::JumpIfTagNe { cell, tag, to } => {
                        let ctor = self.ctor_name(tag);
                        write!(out, "unless r{cell} is {ctor} jump @{to:04}")?;
                    }
                    Instr::Ghost { bumps } => write!(out, "depth += {bumps} (ghost)")?,
                    Instr::PhaseBump => write!(out, "phase += 1")?,
                    Instr::DepthGet { dst } => write!(out, "r{dst} = depth")?,
                    Instr::DepthSet { src } => write!(out, "depth = r{src}")?,
                    Instr::DepthMax { acc } => write!(out, "r{acc} = max r{acc}, depth")?,
                    Instr::MakeCell { dst, tag, fields } => {
                        write!(out, "r{dst} = {}({})", self.ctor_name(tag), regs(fields))?;
                    }
                    Instr::Field { dst, cell, index } => write!(out, "r{dst} = r{cell}.{index}")?,
                    Instr::SetField { cell, index, src } => {
                        write!(out, "r{cell}.{index} = r{src}")?
                    }
                    Instr::Call { func, args, dst } => {
                        write!(out, "r{dst} = call {}({})", callee(func), regs(args))?;
                    }
                    Instr::Ret { src } => write!(out, "ret r{src}")?,
                    Instr::Emit { desc } => write!(out, "emit {}", self.emits[desc as usize])?,
                    Instr::Sync { kind, dst, tensor } => {
                        write!(out, "r{dst} = {kind:?} r{tensor}")?
                    }
                    Instr::Fork { desc } => match &self.forks[desc as usize] {
                        ForkDesc::Branches { branches, join } => {
                            write!(out, "fork")?;
                            for b in branches.iter() {
                                write!(out, " @{:04}->r{}", b.start, b.result)?;
                            }
                            write!(out, " join @{join:04}")?;
                        }
                        ForkDesc::Map { list, func, captures, dst, join, .. } => write!(
                            out,
                            "fork r{dst} = map {}(_, {}) over r{list} join @{join:04}",
                            callee(*func),
                            regs(*captures)
                        )?,
                    },
                    Instr::BranchEnd { branch, .. } => write!(out, "end of branch {branch}")?,
                }
                writeln!(out)?;
            }
        }
        Ok(())
    }
}

impl AotProgram {
    fn ctor_name(&self, tag: u32) -> &str {
        if tag == TUPLE {
            "tuple"
        } else {
            self.ctors.name(tag)
        }
    }
}

impl fmt::Display for EmitDesc {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "k{} <-", self.unit.kernel.0)?;
        for (slot, r) in self.inputs.iter().enumerate() {
            let shared = if self.unit.shared_slots.contains(&(slot as u16)) { "$" } else { "" };
            write!(out, " {shared}r{r}")?;
        }
        write!(out, " ->")?;
        for r in self.outputs.iter() {
            write!(out, " r{r}")?;
        }
        match self.static_depth {
            Some(d) => write!(out, " depth={d}")?,
            None => write!(out, " depth=inline")?,
        }
        write!(out, " block=b{}", self.block.0)?;
        if self.closes_block {
            write!(out, " closes_block")?;
        }
        Ok(())
    }
}
