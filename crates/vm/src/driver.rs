//! Batch execution driver: runs a compiled model over a mini-batch.
//!
//! The driver owns the full lifecycle the paper's Fig. 1 runtime half
//! describes: upload weights and instance inputs (batched transfers),
//! execute the unbatched program for every instance — sequentially when the
//! model has no tensor-dependent control flow, concurrently on fibers when
//! it does (§4.2) — flushing the DFG at sync points, then drain the final
//! DFG and download the results.
//!
//! Where the program runs depends on the backend.  The AOT executor
//! ([`crate::aot`]) keeps its call stack in heap frames, so a sequential
//! run drives every instance inline on the calling thread, and a
//! fiber-mode run gives each instance a default-size thread.  The
//! Relay-VM interpreter ([`crate::interp`]) recurses natively and alone
//! still runs on a big-stack thread.  The boundary conversions follow the
//! same split: request inputs become arena words and result words become
//! [`OutputValue`]s once per request ([`crate::aot::AotProgram::bind`] /
//! [`crate::aot::AotProgram::output`]); the interpreter keeps its boxed
//! [`Value`]s.
//!
//! Each `run` call is self-contained: it pins the session's current
//! [`Engine`](acrobat_runtime::Engine), acquires a private
//! [`ExecutionContext`] (pooled across mini-batches), and executes without
//! taking any shared lock on the hot path — so any number of mini-batches
//! may run concurrently against one [`Executable`].  That lifecycle is
//! written once, in `Executable::run_group`: a solo run is a group of one
//! request, a cohort ([`crate::cohort`]) a group of several.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acrobat_ir::ParamKind;
use acrobat_runtime::{CancelToken, Deadline, Engine, ExecutionContext, RuntimeStats, ValueId};
use acrobat_tensor::{FaultPlan, Tensor, TensorError};

use crate::aot::{AotBackend, Layouts, Scratch};
use crate::interp::VmBackend;
use crate::session::{ExecCtx, Handle, RunSession, Session, VmError};
use crate::value::{InputValue, OutputValue, TensorRef, Value, Word};

/// Which execution backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Relay-VM-style tree-walking interpreter (the §E.2 baseline).
    Vm,
    /// AOT-compiled execution (ACROBAT's default).
    Aot,
}

enum BackendImpl {
    /// The interpreter, and `@main`'s parameter layouts to check its
    /// inputs against (the AOT program carries its own).
    Vm(VmBackend, Layouts),
    Aot(Box<AotBackend>),
}

/// A ready-to-run model: session plus backend.
pub struct Executable {
    /// The shared session.
    pub session: Arc<Session>,
    backend: BackendImpl,
}

impl std::fmt::Debug for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executable")
            .field(
                "backend",
                &match self.backend {
                    BackendImpl::Vm(..) => "vm",
                    BackendImpl::Aot(_) => "aot",
                },
            )
            .finish()
    }
}

/// Result of one mini-batch run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-instance outputs of `@main`.
    pub outputs: Vec<OutputValue>,
    /// Runtime statistics for the batch.
    pub stats: RuntimeStats,
}

/// Per-run options (all default to "off").
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-instance pseudo-random-stream keys (§E.1).  When absent, an
    /// instance is keyed by its position in the batch; providing stable keys
    /// makes an instance's stream independent of which slot (or thread) it
    /// is submitted on.
    pub keys: Option<Vec<u64>>,
    /// A deterministic fault to inject into this run's device memory
    /// (testing; see `acrobat_tensor::FaultPlan`).  The fault is scoped to
    /// this run's context only.
    pub fault: Option<FaultPlan>,
    /// Virtual deadline budget in modeled microseconds
    /// ([`Deadline::Virtual`]).  Deterministic: the same run with the same
    /// budget always spends the same modeled time, so it either always or
    /// never misses.
    pub deadline_us: Option<f64>,
    /// Cooperative cancellation token; polled at flush boundaries and
    /// between batched launches.
    pub cancel: Option<CancelToken>,
}

/// One request as [`Executable::run_group`] sees it: the triple
/// [`Executable::run_with`] takes, borrowed.
#[derive(Clone, Copy)]
pub(crate) struct Member<'a> {
    pub(crate) params: &'a BTreeMap<String, Tensor>,
    pub(crate) instances: &'a [Vec<InputValue>],
    pub(crate) opts: &'a RunOptions,
}

/// Whether the module contains tensor-dependent control flow.
pub fn module_has_sync(module: &acrobat_ir::Module) -> bool {
    module.functions.values().any(|f| f.body.contains_sync())
}

impl Executable {
    /// Builds an executable over a compiled engine.
    ///
    /// Fiber mode is enabled automatically for the AOT backend when the
    /// model has tensor-dependent control flow; the VM backend always runs
    /// sequentially (as the paper's Relay-VM baseline does).
    ///
    /// # Errors
    ///
    /// Propagates AOT lowering errors.
    pub fn new(engine: Engine, kind: BackendKind, seed: u64) -> Result<Executable, VmError> {
        let engine = Arc::new(engine);
        let analysis = engine.analysis().clone();
        let fiber_mode = kind == BackendKind::Aot && module_has_sync(&analysis.module);
        let session = Session::new(engine, seed, fiber_mode);
        let backend = match kind {
            BackendKind::Vm => BackendImpl::Vm(
                VmBackend::new(Arc::new(analysis.module.clone())),
                Layouts::of_main(&analysis.module, &session)?,
            ),
            BackendKind::Aot => {
                BackendImpl::Aot(Box::new(AotBackend::compile(&analysis.module, &session)?))
            }
        };
        Ok(Executable { session: Arc::new(session), backend })
    }

    /// The AOT backend's lowered program, disassembled — one instruction per
    /// line, each `Emit` with its pre-resolved descriptor.  `None` for the
    /// Relay-VM backend, which interprets the syntax tree.
    pub fn disassemble(&self) -> Option<String> {
        match &self.backend {
            BackendImpl::Vm(..) => None,
            BackendImpl::Aot(aot) => Some(aot.program().to_string()),
        }
    }

    /// Runs one mini-batch.
    ///
    /// `params` binds every `$`-parameter of `@main` by name; `instances`
    /// provides, per instance, the `%`-parameter values in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Input`] for missing/mismatched bindings and
    /// propagates runtime errors (including simulated device OOM).
    pub fn run(
        &self,
        params: &BTreeMap<String, Tensor>,
        instances: &[Vec<InputValue>],
    ) -> Result<RunResult, VmError> {
        self.run_with(params, instances, &RunOptions::default())
    }

    /// Runs one mini-batch with explicit [`RunOptions`].
    ///
    /// # Errors
    ///
    /// As [`Executable::run`], plus [`VmError::Input`] when `opts.keys` has
    /// the wrong arity or `opts.deadline_us` is NaN.
    pub fn run_with(
        &self,
        params: &BTreeMap<String, Tensor>,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<RunResult, VmError> {
        let solo = self.run_group(&[Member { params, instances, opts }], false).pop();
        solo.expect("one result per member")
    }

    /// The request lifecycle, for `k >= 1` requests sharing one execution
    /// context: validate each member, arm one context, execute the valid
    /// members' concatenated instances as one mini-batch, settle and record.
    /// A solo run is a group of one.  `partitioned` is set by
    /// [`Executable::run_cohort`] alone and makes the context classify its
    /// flushes as shared or solo across the members.
    ///
    /// The contract, for every exit: a run that succeeds is merged into the
    /// session aggregate once per member (statistics split by instance
    /// count — the identity for one member) and its context is pooled; a
    /// run that fails quarantines its context and merges nothing; each
    /// request lands in exactly one outcome bucket.  A failed group of one
    /// *is* that request's genuine outcome.  A failed group of several is
    /// never recorded: every member re-runs alone, so the trigger reproduces
    /// its own error and the peers their exact solo results.
    pub(crate) fn run_group(
        &self,
        members: &[Member<'_>],
        partitioned: bool,
    ) -> Vec<Result<RunResult, VmError>> {
        let session = &*self.session;
        let mut out: Vec<_> = members.iter().map(|_| None).collect();
        let mut settle = |i: usize, result: Result<RunResult, VmError>| {
            session.record_outcome(&result);
            out[i] = Some(result);
        };
        // Pin the engine and validate every member before acquiring any
        // per-run resources; a malformed request touches nothing but a
        // counter.
        let run = RunSession::new(session);
        let mut accepted = Vec::new();
        let (mut counts, mut starts) = (Vec::new(), Vec::new());
        let (mut inst_refs, mut keys) = (Vec::new(), Vec::new());
        for (i, m) in members.iter().enumerate() {
            let n = m.instances.len();
            let given = m.opts.keys.as_ref().map_or(n, Vec::len);
            if given != n {
                settle(i, Err(VmError::Input(format!("{given} rng keys for {n} instances"))));
                continue;
            }
            // `spent >= NaN` never trips: a NaN budget would silently mean
            // "no deadline".
            if m.opts.deadline_us.is_some_and(f64::is_nan) {
                settle(i, Err(VmError::Input("the deadline budget is NaN".into())));
                continue;
            }
            accepted.push(i);
            counts.push(n);
            starts.push(inst_refs.len());
            inst_refs.extend(m.instances);
            // Member-relative keys: instance j draws the random streams it
            // draws solo, whatever its merged slot.
            match &m.opts.keys {
                Some(given) => keys.extend(given),
                None => keys.extend(0..n as u64),
            }
        }
        if let Some(&first) = accepted.first() {
            // Take a private execution context and arm its lifecycle state:
            // at most one fault plan, the strictest budget (on success every
            // member's share of the time is below the total, hence below
            // its own budget), the first cancel token.
            let opts = || accepted.iter().map(|&i| members[i].opts);
            let mut ctx = run.acquire_context();
            if let Some(fault) = opts().find_map(|o| o.fault) {
                ctx.mem_mut().arm_fault(fault);
            }
            if let Some(budget_us) = opts().filter_map(|o| o.deadline_us).reduce(f64::min) {
                ctx.set_deadline(Deadline::virtual_us(budget_us));
            }
            if let Some(token) = opts().find_map(|o| o.cancel.clone()) {
                ctx.set_cancel(token);
            }
            if partitioned {
                ctx.set_instance_partition(starts);
            }
            match self.run_pinned(&run, ctx, members[first].params, &inst_refs, &keys) {
                (Ok((outputs, stats)), ctx) => {
                    let shares = stats.split(&counts);
                    run.finish(ctx, &shares);
                    let mut outputs = outputs.into_iter();
                    for ((&i, n), stats) in accepted.iter().zip(counts).zip(shares) {
                        let outputs = outputs.by_ref().take(n).collect();
                        settle(i, Ok(RunResult { outputs, stats }));
                    }
                }
                (Err(e), ctx) => {
                    run.abandon(ctx);
                    if accepted.len() == 1 {
                        settle(first, Err(e));
                    } else {
                        for &i in &accepted {
                            out[i] = self.run_group(&members[i..=i], false).pop();
                        }
                    }
                }
            }
        }
        out.into_iter().map(|r| r.expect("every member settled")).collect()
    }

    /// Executes one validated mini-batch on its pinned engine: upload → bind
    /// → drive → drain → collect.  Returns the context alongside the result
    /// (it moves by value across the fiber-mode thread scope) so the caller
    /// can pool or quarantine it from every exit.
    ///
    /// `instances` is a slice of references so a group can concatenate its
    /// members' instance lists without cloning any tensors.
    fn run_pinned(
        &self,
        run: &RunSession<'_>,
        mut ctx: ExecutionContext,
        params: &BTreeMap<String, Tensor>,
        instances: &[&Vec<InputValue>],
        keys: &[u64],
    ) -> (Result<(Vec<OutputValue>, RuntimeStats), VmError>, ExecutionContext) {
        let uploaded = match upload(run, &mut ctx, params, instances) {
            Ok(uploaded) => uploaded,
            Err(e) => return (Err(e), ctx),
        };
        match &self.backend {
            BackendImpl::Vm(vm, layouts) => {
                run_vm(vm, layouts, run, ctx, &uploaded, instances, keys)
            }
            BackendImpl::Aot(aot) => {
                let mut scratch = aot.acquire();
                let (result, ctx) =
                    run_aot(aot, &mut scratch, run, ctx, &uploaded, instances, keys);
                // A failed run's machine is dropped with its context.
                if result.is_ok() {
                    aot.release(scratch);
                }
                (result, ctx)
            }
        }
    }
}

/// The interpreter recurses natively and model recursion depth is
/// input-dependent (long sequences, deep trees), so the Relay-VM baseline
/// runs on a thread with a generous stack.
const VM_STACK: usize = 64 << 20;

/// Fiber-hub watchdog: a hub that reaches neither a flush point nor
/// termination for this long fails the run with a structured
/// [`VmError::DriveTimeout`] instead of hanging.  A constant, not an option:
/// nothing ever set another value.
const DRIVE_STALL: Duration = Duration::from_secs(60);

/// What [`upload`] put on the device for one mini-batch.
struct Uploaded {
    /// Per `@main` parameter: the weight's DFG value for a `$` parameter,
    /// `None` for a `%` one.
    weights: Vec<Option<ValueId>>,
    /// Every instance's input tensors, in instance then traversal order.
    tensors: Vec<ValueId>,
}

/// Uploads a mini-batch to its context: the weights, then every instance's
/// input tensors as one batched transfer; validates names and arity.
fn upload(
    session: &Session,
    ctx: &mut ExecutionContext,
    params: &BTreeMap<String, Tensor>,
    instances: &[&Vec<InputValue>],
) -> Result<Uploaded, VmError> {
    let main = session.analysis.module.functions.get("main").expect("main exists");

    // Upload weights (outside the per-batch accounting, as weights persist
    // across mini-batches in a serving system).
    let mut weights = Vec::with_capacity(main.params.len());
    for p in &main.params {
        weights.push(match p.kind {
            ParamKind::Input => None,
            ParamKind::Model => {
                let host = params.get(&p.name).ok_or_else(|| {
                    VmError::Input(format!("missing model parameter ${}", p.name))
                })?;
                let dev = ctx.mem_mut().upload(host)?;
                Some(ctx.ready_value(dev))
            }
        });
    }

    // Upload all instance input tensors as one batched transfer.
    let input_count = weights.iter().filter(|w| w.is_none()).count();
    let mut all_tensors: Vec<&Tensor> = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        if inst.len() != input_count {
            return Err(VmError::Input(format!(
                "instance {i} provides {} inputs, @main expects {input_count}",
                inst.len()
            )));
        }
        for v in inst.iter() {
            v.tensors(&mut all_tensors);
        }
    }
    Ok(Uploaded { weights, tensors: ctx.upload_inputs(&all_tensors)? })
}

/// Drains a driven run: flushes the remaining work and closes the run's
/// statistics.  The hub is per-run, so its switch count is exactly this
/// run's fiber activity.
fn drain(
    run: &RunSession<'_>,
    ctx: &mut ExecutionContext,
    exec_start: Instant,
) -> Result<f64, VmError> {
    // A run poisoned by a failed eager launch reports that failure, not
    // whatever draining its half-executed DFG would raise.
    if let Some(e) = run.poisoned() {
        return Err(e.into());
    }
    ctx.flush()?;
    ctx.charge_fiber_switches(run.hub.switch_count());
    Ok(exec_start.elapsed().as_secs_f64() * 1e6)
}

/// The run's statistics, with program host time excluding the time spent
/// inside flush (measured separately as `host_wall_us`).
fn closed_stats(ctx: &ExecutionContext, program_host_us: f64) -> RuntimeStats {
    let mut stats = *ctx.stats();
    stats.program_host_us = (program_host_us - stats.host_wall_us).max(0.0);
    stats
}

type Outcome = (Result<(Vec<OutputValue>, RuntimeStats), VmError>, ExecutionContext);

/// The AOT path: bind the inputs to arena words, run `@main` per instance
/// — inline on this thread, or one fiber per instance when the model has
/// tensor-dependent control flow — drain, convert the result words.
fn run_aot(
    aot: &AotBackend,
    scratch: &mut Scratch,
    run: &RunSession<'_>,
    mut ctx: ExecutionContext,
    uploaded: &Uploaded,
    instances: &[&Vec<InputValue>],
    keys: &[u64],
) -> Outcome {
    let program = aot.program();
    let weights = &uploaded.weights;
    let mut tensors = uploaded.tensors.iter().copied();
    for inst in instances {
        let (arena, args) = (&mut scratch.arena, &mut scratch.main_args);
        if let Err(e) = program.bind(weights, inst, &mut tensors, arena, args) {
            return (Err(e), ctx);
        }
    }
    let n = weights.len();
    let main_args = &scratch.main_args;
    let args_of = |i: usize| &main_args[i * n..(i + 1) * n];
    let exec_start = Instant::now();
    let words: Result<Vec<u64>, VmError> = if !run.fiber_mode {
        let (mut rt, mut heap) = (Handle::Own(&mut ctx), Handle::Own(&mut scratch.arena));
        let machine = &mut scratch.machine;
        let each = keys.iter().enumerate().map(|(i, &key)| {
            let mut ectx = ExecCtx::new(i, key, run.seed, run.hoist_base);
            program.run_main(run, &mut rt, &mut heap, &mut ectx, machine, args_of(i))
        });
        each.collect()
    } else {
        // Fiber interleaving is nondeterministic, so window signatures must
        // be order-invariant: switch the DFG to lane-canonical signing
        // ([`acrobat_runtime::Dfg::set_lane_canonical`]) before any fiber
        // appends.  Sequential runs keep the cheaper arrival-order chain
        // (their arrival order is deterministic).
        ctx.set_lane_canonical(true);
        // The run's instance fibers share this run's context and arena
        // behind run-local locks; other concurrent runs have their own.
        let cell = parking_lot::Mutex::new(ctx);
        let heap = parking_lot::Mutex::new(std::mem::take(&mut scratch.arena));
        let words = std::thread::scope(|scope| {
            let mut fibers = Vec::with_capacity(instances.len());
            for (i, &key) in keys.iter().enumerate() {
                run.hub.register();
                let (cell, heap, args) = (&cell, &heap, args_of(i));
                let fiber = move || {
                    let (mut rt, mut heap) = (Handle::Shared(cell), Handle::Shared(heap));
                    let mut ectx = ExecCtx::new(i, key, run.seed, run.hoist_base);
                    let mut machine = Default::default();
                    let word =
                        program.run_main(run, &mut rt, &mut heap, &mut ectx, &mut machine, args);
                    run.hub.finish();
                    word
                };
                let spawned = std::thread::Builder::new().spawn_scoped(scope, fiber);
                fibers.push(spawned.expect("spawn fiber"));
            }
            let flush = || {
                let mut rt = cell.lock();
                if let Err(e) = rt.flush() {
                    drop(rt);
                    run.poison(e);
                }
            };
            let stalled = run.hub.drive_timeout(flush, Some(DRIVE_STALL)).err();
            if stalled.is_some() {
                // The watchdog fired: cancel the hub so parked fibers drain
                // and poison the run so running fibers fail fast at their
                // next sync, then join them.
                run.poison(TensorError::Cancelled);
                run.hub.cancel();
            }
            let words: Vec<_> =
                fibers.into_iter().map(|f| f.join().expect("fiber panicked")).collect();
            match stalled {
                Some(timeout) => Err(VmError::DriveTimeout(timeout)),
                None => words.into_iter().collect(),
            }
        });
        scratch.arena = heap.into_inner();
        ctx = cell.into_inner();
        words
    };
    let result = words.and_then(|words| {
        let program_host_us = drain(run, &mut ctx, exec_start)?;
        let outputs = words.iter().map(|w| program.output(*w, &scratch.arena, &mut ctx));
        Ok((outputs.collect::<Result<_, _>>()?, closed_stats(&ctx, program_host_us)))
    });
    (result, ctx)
}

/// The Relay-VM path: check the inputs against `@main`'s types, box them as
/// [`Value`]s, interpret `@main` per instance sequentially on one big-stack
/// thread, drain, unbox the results.
fn run_vm(
    vm: &VmBackend,
    layouts: &Layouts,
    run: &RunSession<'_>,
    mut ctx: ExecutionContext,
    uploaded: &Uploaded,
    instances: &[&Vec<InputValue>],
    keys: &[u64],
) -> Outcome {
    if let Err(e) = instances.iter().try_for_each(|inst| layouts.check(inst)) {
        return (Err(e), ctx);
    }
    let mut ids = uploaded.tensors.iter().copied();
    let instance_args: Vec<Vec<Value>> = instances
        .iter()
        .map(|inst| {
            let mut inputs = inst.iter();
            let arg = |w: &Option<ValueId>| match w {
                Some(weight) => Value::Tensor(TensorRef::ready(*weight)),
                None => convert_input(inputs.next().expect("arity checked"), run, &mut ids),
            };
            uploaded.weights.iter().map(arg).collect()
        })
        .collect();
    let exec_start = Instant::now();
    let values: Result<Vec<Value>, VmError> = std::thread::scope(|scope| {
        let ctx = &mut ctx;
        let program = move || {
            let mut rt = Handle::Own(ctx);
            let each = instance_args.into_iter().enumerate().map(|(i, args)| {
                let mut ectx = ExecCtx::new(i, keys[i], run.seed, run.hoist_base);
                vm.run_instance(run, &mut rt, &mut ectx, args)
            });
            each.collect()
        };
        let big_stack = std::thread::Builder::new().stack_size(VM_STACK);
        let executor = big_stack.spawn_scoped(scope, program).expect("spawn executor");
        executor.join().expect("executor panicked")
    });
    let result = values.and_then(|values| {
        let program_host_us = drain(run, &mut ctx, exec_start)?;
        let outputs = values.iter().map(|v| convert_output(v, run, &mut ctx));
        Ok((outputs.collect::<Result<_, _>>()?, closed_stats(&ctx, program_host_us)))
    });
    (result, ctx)
}

fn convert_input(
    v: &InputValue,
    session: &Session,
    ids: &mut impl Iterator<Item = ValueId>,
) -> Value {
    match v {
        InputValue::Tensor(_) => {
            Value::Tensor(TensorRef::ready(ids.next().expect("uploaded tensor id")))
        }
        InputValue::Int(x) => Value::scalar(Word::Int(*x)),
        InputValue::Float(x) => Value::scalar(Word::Float(*x)),
        InputValue::Bool(x) => Value::scalar(Word::Bool(*x)),
        InputValue::Tuple(parts) => {
            Value::Tuple(Arc::new(parts.iter().map(|p| convert_input(p, session, ids)).collect()))
        }
        InputValue::Adt { ctor, fields } => Value::Adt {
            tag: session.ctors.tag(ctor),
            fields: Arc::new(fields.iter().map(|f| convert_input(f, session, ids)).collect()),
        },
    }
}

fn convert_output(
    v: &Value,
    session: &Session,
    ctx: &mut ExecutionContext,
) -> Result<OutputValue, VmError> {
    Ok(match v {
        Value::Tensor(r) => {
            let vid = r.get().ok_or_else(|| VmError::Input("dangling tensor in output".into()))?;
            OutputValue::Tensor(ctx.download(vid)?)
        }
        Value::BoxedScalar(w) => match **w {
            Word::Int(x) => OutputValue::Int(x),
            Word::Float(x) => OutputValue::Float(x),
            Word::Bool(x) => OutputValue::Bool(x),
        },
        Value::Tuple(parts) => OutputValue::Tuple(
            parts.iter().map(|p| convert_output(p, session, ctx)).collect::<Result<_, _>>()?,
        ),
        Value::Adt { tag, fields } => OutputValue::Adt {
            ctor: session.ctors.name(*tag).to_string(),
            fields: fields
                .iter()
                .map(|f| convert_output(f, session, ctx))
                .collect::<Result<_, _>>()?,
        },
        Value::Closure(_) => {
            return Err(VmError::Input("closure escaped as a model output".into()))
        }
    })
}
