//! Batch execution driver: runs a compiled model over a mini-batch.
//!
//! The driver owns the full lifecycle the paper's Fig. 1 runtime half
//! describes: bind the weights (resident in the context's arena across
//! requests, uploaded only when a request brings a different [`Params`])
//! and upload the instance inputs (one batched transfer),
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
//! same split.  The AOT executor crosses the request boundary once each
//! way: one walk over the inputs checks them, writes `@main`'s argument
//! words and lists the tensors for the batched upload
//! ([`crate::aot::AotProgram::bind`]), and one pass over the result words
//! builds the [`OutputValue`]s ([`crate::aot::AotProgram::outputs`]).  The
//! interpreter checks its inputs first and keeps its boxed [`Value`]s.
//!
//! Each `run` call is self-contained: it checks a private
//! [`ExecutionContext`] and the AOT executor's scratch out of the session's
//! pool, and executes without taking any shared lock on the hot path — so
//! any number of mini-batches may run concurrently against one
//! [`Executable`].  A run batches the instances of its own request only,
//! as the paper's runtime does (§4): a caller holding several requests
//! passes their instances to one call, with its own keys.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acrobat_ir::ParamKind;
use acrobat_runtime::{CancelToken, Deadline, Engine, ExecutionContext, RuntimeStats, ValueId};
use acrobat_tensor::{FaultPlan, Params, Tensor, TensorError};

use crate::aot::{AotProgram, Layouts, Scratch};
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
    Aot(Box<AotProgram>),
}

/// A ready-to-run model: session plus backend.
pub struct Executable {
    /// The shared session.
    pub session: Session,
    backend: BackendImpl,
    /// `@main`'s `$` parameter names, in declaration order, looked up once
    /// here: a request's [`Params`] binds them by name.
    weights: Box<[String]>,
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
                BackendImpl::Aot(Box::new(AotProgram::compile(&analysis.module, &session)?))
            }
        };
        // Both backends found `@main` above.
        let main = &analysis.module.functions["main"];
        let weights = main.params.iter().filter(|p| p.kind == ParamKind::Model);
        let weights = weights.map(|p| p.name.clone()).collect();
        Ok(Executable { session, backend, weights })
    }

    /// The AOT backend's lowered program, disassembled — one instruction per
    /// line, each `Emit` with its pre-resolved descriptor.  `None` for the
    /// Relay-VM backend, which interprets the syntax tree.
    pub fn disassemble(&self) -> Option<String> {
        match &self.backend {
            BackendImpl::Vm(..) => None,
            BackendImpl::Aot(aot) => Some(aot.to_string()),
        }
    }

    /// Runs one mini-batch.
    ///
    /// `params` binds every `$`-parameter of `@main` by name (a pooled
    /// context keeps them resident: a request that brings the `Params` the
    /// context's last request brought uploads no weights); `instances`
    /// provides, per instance, the `%`-parameter values in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Input`] for missing/mismatched bindings and
    /// propagates runtime errors (including simulated device OOM).
    pub fn run(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
    ) -> Result<RunResult, VmError> {
        self.run_with(params, instances, &RunOptions::default())
    }

    /// Runs one mini-batch with explicit [`RunOptions`].
    ///
    /// The request lifecycle: validate the request's options and weights,
    /// check one context out of the pool, walk the inputs into its scratch,
    /// arm the context from `opts`, upload, execute, settle.  Every exit
    /// lands the request in exactly one outcome bucket.  A malformed
    /// request is rejected before anything reaches the context — it uploads
    /// nothing, and the context goes straight back to the pool — so it
    /// costs nothing but a counter; a run that succeeds merges its
    /// statistics and pools its context; a run that fails quarantines its
    /// context and merges nothing.
    ///
    /// # Errors
    ///
    /// As [`Executable::run`], plus [`VmError::Input`] when `opts.keys` has
    /// the wrong arity or `opts.deadline_us` is NaN.
    pub fn run_with(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<RunResult, VmError> {
        let session = &self.session;
        let weights = match self.validate(params, instances, opts) {
            Ok(weights) => weights,
            Err(e) => {
                session.record_failure(&e);
                return Err(e);
            }
        };
        let run = RunSession::new(session);
        let (mut ctx, mut scratch) = session.checkout();
        let mut tensors = Vec::new();
        if let Err(e) = self.bind_inputs(&ctx, &mut scratch, instances, &mut tensors) {
            // The walk wrote the scratch only, which the next checkout clears.
            session.check_in(ctx, scratch);
            session.record_failure(&e);
            return Err(e);
        }
        if let Some(fault) = opts.fault {
            ctx.mem_mut().arm_fault(fault);
        }
        if let Some(budget_us) = opts.deadline_us {
            ctx.set_deadline(Deadline::virtual_us(budget_us));
        }
        if let Some(token) = &opts.cancel {
            ctx.set_cancel(token.clone());
        }
        let keys = opts.keys.as_deref();
        match self.run_batch(&run, ctx, &mut scratch, params, &weights, &tensors, instances, keys) {
            (Ok((outputs, stats)), ctx) => {
                run.finish(ctx, scratch, &stats);
                Ok(RunResult { outputs, stats })
            }
            // A failed run's scratch is dropped with its context.
            (Err(e), ctx) => {
                session.quarantine(ctx);
                session.record_failure(&e);
                Err(e)
            }
        }
    }

    /// Checks the request's options and weights before checkout: the key
    /// arity, the deadline budget and every `$` parameter.  Returns the
    /// index in `params` of each `$` parameter, in `@main`'s order.
    fn validate(
        &self,
        params: &Params,
        instances: &[Vec<InputValue>],
        opts: &RunOptions,
    ) -> Result<Vec<usize>, VmError> {
        let n = instances.len();
        let given = opts.keys.as_ref().map_or(n, Vec::len);
        if given != n {
            return Err(VmError::Input(format!("{given} rng keys for {n} instances")));
        }
        // `spent >= NaN` never trips: a NaN budget would silently mean "no
        // deadline".
        if opts.deadline_us.is_some_and(f64::is_nan) {
            return Err(VmError::Input("the deadline budget is NaN".into()));
        }
        let weights = self.weights.iter().map(|name| {
            let missing = || VmError::Input(format!("missing model parameter ${name}"));
            params.index_of(name).ok_or_else(missing)
        });
        weights.collect()
    }

    /// The request's input walk, before anything reaches `ctx`: checks
    /// every instance against `@main`'s parameter types and lists its
    /// tensors into `tensors`, in upload order.  The AOT executor's walk
    /// also writes `@main`'s argument words into `scratch`, naming the
    /// values the upload will register from `ctx`'s next one; the Relay-VM
    /// baseline checks first and boxes its arguments after the upload.
    fn bind_inputs<'a>(
        &self,
        ctx: &ExecutionContext,
        scratch: &mut Scratch,
        instances: &'a [Vec<InputValue>],
        tensors: &mut Vec<&'a Tensor>,
    ) -> Result<(), VmError> {
        match &self.backend {
            BackendImpl::Vm(_, layouts) => {
                instances.iter().try_for_each(|inst| layouts.check(inst))?;
                instances.iter().flatten().for_each(|v| v.tensors(tensors));
                Ok(())
            }
            BackendImpl::Aot(program) => {
                program.bind(instances, ctx.next_value(), scratch, tensors)
            }
        }
    }

    /// Executes one bound mini-batch: upload → drive → drain → collect.
    /// Returns the context alongside the result (it moves by value across
    /// the fiber-mode thread scope) so the caller can pool or quarantine it
    /// from every exit.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        run: &RunSession<'_>,
        mut ctx: ExecutionContext,
        scratch: &mut Scratch,
        params: &Params,
        weights: &[usize],
        tensors: &[&Tensor],
        instances: &[Vec<InputValue>],
        keys: Option<&[u64]>,
    ) -> Outcome {
        let uploaded = match upload(&mut ctx, params, weights, tensors) {
            Ok(uploaded) => uploaded,
            Err(e) => return (Err(e), ctx),
        };
        match &self.backend {
            BackendImpl::Vm(vm, layouts) => {
                run_vm(vm, layouts, run, ctx, &uploaded, instances, keys)
            }
            BackendImpl::Aot(program) => {
                // The walk named the values the upload registered: the
                // inputs right after the weights, from the context's next
                // value, which nothing registered between the two.
                let inputs = uploaded.weights.0 + weights.len() as u64;
                assert_eq!(uploaded.inputs.0, inputs, "input values follow the weights");
                run_aot(program, scratch, run, ctx, instances.len(), keys)
            }
        }
    }
}

/// Instance `i`'s pseudo-random-stream key: the caller's, or its slot.
fn key(keys: Option<&[u64]>, i: usize) -> u64 {
    keys.map_or(i as u64, |keys| keys[i])
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

/// The first DFG value of what [`upload`] registered: values are numbered
/// consecutively, the weights first.
struct Uploaded {
    /// `$` parameter `j`, in `@main`'s order, is `weights + j`.
    weights: ValueId,
    /// Input tensor `k`, in instance then traversal order, is `inputs + k`.
    inputs: ValueId,
}

/// Uploads a bound mini-batch to its context: binds the weights (`entries`
/// are their indices in `params`; [`ExecutionContext::bind_params`] keeps
/// them resident, so a warm context with the same `params` transfers none),
/// then uploads the input `tensors` as one batched transfer.
fn upload(
    ctx: &mut ExecutionContext,
    params: &Params,
    entries: &[usize],
    tensors: &[&Tensor],
) -> Result<Uploaded, VmError> {
    let weights = ctx.bind_params(params, entries)?;
    Ok(Uploaded { weights, inputs: ctx.upload_inputs(tensors)? })
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

/// The AOT path, on inputs already bound to `scratch`'s argument words: run
/// `@main` per instance — inline on this thread, or one fiber per instance
/// when the model has tensor-dependent control flow — drain, convert the
/// result words.
fn run_aot(
    program: &AotProgram,
    scratch: &mut Scratch,
    run: &RunSession<'_>,
    mut ctx: ExecutionContext,
    instances: usize,
    keys: Option<&[u64]>,
) -> Outcome {
    let n = program.arity();
    let main_args = &scratch.main_args;
    let args_of = |i: usize| &main_args[i * n..(i + 1) * n];
    let exec_start = Instant::now();
    let words: Result<Vec<u64>, VmError> = if !run.fiber_mode {
        let (mut rt, mut heap) = (Handle::Own(&mut ctx), Handle::Own(&mut scratch.arena));
        let machine = &mut scratch.machine;
        let each = (0..instances).map(|i| {
            let mut ectx = ExecCtx::new(i, key(keys, i), run.seed, run.hoist_base);
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
            let mut fibers = Vec::with_capacity(instances);
            for i in 0..instances {
                run.hub.register();
                let (cell, heap, args) = (&cell, &heap, args_of(i));
                let fiber = move || {
                    let (mut rt, mut heap) = (Handle::Shared(cell), Handle::Shared(heap));
                    let mut ectx = ExecCtx::new(i, key(keys, i), run.seed, run.hoist_base);
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
        let outputs = program.outputs(&words, &scratch.arena, &mut ctx)?;
        Ok((outputs, closed_stats(&ctx, program_host_us)))
    });
    (result, ctx)
}

/// The Relay-VM path: box the inputs as [`Value`]s, interpret `@main` per
/// instance sequentially on one big-stack thread, drain, unbox the results.
fn run_vm(
    vm: &VmBackend,
    layouts: &Layouts,
    run: &RunSession<'_>,
    mut ctx: ExecutionContext,
    uploaded: &Uploaded,
    instances: &[Vec<InputValue>],
    keys: Option<&[u64]>,
) -> Outcome {
    let mut ids = (uploaded.inputs.0..).map(ValueId);
    let instance_args: Vec<Vec<Value>> = instances
        .iter()
        .map(|inst| {
            let (mut inputs, mut weight) = (inst.iter(), uploaded.weights.0);
            let mut arg = |is_weight| match is_weight {
                true => {
                    weight += 1;
                    Value::Tensor(TensorRef::ready(ValueId(weight - 1)))
                }
                false => convert_input(inputs.next().expect("arity checked"), run, &mut ids),
            };
            layouts.weight_slots().map(&mut arg).collect()
        })
        .collect();
    let exec_start = Instant::now();
    let values: Result<Vec<Value>, VmError> = std::thread::scope(|scope| {
        let ctx = &mut ctx;
        let program = move || {
            let mut rt = Handle::Own(ctx);
            let each = instance_args.into_iter().enumerate().map(|(i, args)| {
                let mut ectx = ExecCtx::new(i, key(keys, i), run.seed, run.hoist_base);
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
            ctor: session.ctors.name(*tag).into(),
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

#[cfg(test)]
mod tests {
    use acrobat_analysis::{analyze, AnalysisOptions};
    use acrobat_codegen::KernelLibrary;
    use acrobat_ir::{parse_module, typeck};
    use acrobat_runtime::{DeviceModel, RuntimeOptions};

    use super::*;

    const MODEL: &str = "def @main($w: Tensor[(4, 4)], $b: Tensor[(1, 4)], %x: Tensor[(1, 4)]) \
                         -> Tensor[(1, 4)] { tanh(add($b, matmul(%x, $w))) }";
    /// Bytes of `MODEL`'s weights and of one instance's input.
    const WEIGHT_BYTES: u64 = 4 * (16 + 4);
    const INPUT_BYTES: u64 = 4 * 4;

    fn build(src: &str, kind: BackendKind) -> Executable {
        let module = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let analysis = Arc::new(analyze(module, AnalysisOptions::default()).unwrap());
        let library = KernelLibrary::build(&analysis);
        let engine =
            Engine::new(analysis, library, DeviceModel::default(), RuntimeOptions::default());
        Executable::new(engine, kind, 7).unwrap()
    }

    fn executable() -> Executable {
        build(MODEL, BackendKind::Aot)
    }

    fn params(scale: f32) -> Params {
        Params::from([
            ("w".to_string(), Tensor::from_fn(&[4, 4], |i| (i as f32 - 7.5) * 0.1 * scale)),
            ("b".to_string(), Tensor::from_fn(&[1, 4], |i| i as f32 * 0.05)),
        ])
    }

    fn instances(n: usize) -> Vec<Vec<InputValue>> {
        let x = |i: usize| Tensor::from_fn(&[1, 4], move |j| ((i * 5 + j) % 7) as f32 * 0.3);
        (0..n).map(|i| vec![InputValue::Tensor(x(i))]).collect()
    }

    /// Host→device bytes of one request's `upload` on a context checked
    /// out of the executable's pool, which goes back to the pool after.
    fn uploaded_bytes(exe: &Executable, params: &Params, instances: &[Vec<InputValue>]) -> u64 {
        let (mut ctx, mut scratch) = exe.session.checkout();
        let weights = exe.validate(params, instances, &RunOptions::default()).expect("valid");
        let mut tensors = Vec::new();
        exe.bind_inputs(&ctx, &mut scratch, instances, &mut tensors).expect("well-formed");
        upload(&mut ctx, params, &weights, &tensors).expect("uploads");
        let bytes = ctx.mem_mut().stats().upload_bytes;
        exe.session.check_in(ctx, scratch);
        bytes
    }

    #[test]
    fn warm_request_uploads_inputs_only() {
        let exe = executable();
        let p = params(1.0);
        let batch = instances(3);
        assert_eq!(uploaded_bytes(&exe, &p, &batch), WEIGHT_BYTES + 3 * INPUT_BYTES, "cold");
        for _ in 0..3 {
            assert_eq!(uploaded_bytes(&exe, &p, &batch), 3 * INPUT_BYTES, "warm: inputs only");
        }
        let shared = p.clone();
        assert_eq!(uploaded_bytes(&exe, &shared, &batch), 3 * INPUT_BYTES, "a clone is the same");
        assert_eq!(exe.session.idle_count(), 1, "one context served every request");
    }

    /// Two `Params` with equal contents are two identities: alternating
    /// them on one context re-uploads the weights on every switch, and
    /// every request computes the same bits.
    #[test]
    fn alternating_params_reupload_and_keep_bits() {
        let exe = executable();
        let (a, b) = (params(1.0), params(1.0));
        let batch = instances(5);
        let bits = |r: RunResult| -> Vec<u32> {
            let tensors = r.outputs.iter().flat_map(|o| o.tensors().into_iter().cloned());
            tensors.flat_map(|t| t.data().to_vec()).map(f32::to_bits).collect()
        };
        let reference = bits(exe.run(&a, &batch).unwrap());
        for p in [&b, &a, &b, &a] {
            assert_eq!(uploaded_bytes(&exe, p, &batch), WEIGHT_BYTES + 5 * INPUT_BYTES, "switch");
            assert_eq!(bits(exe.run(p, &batch).unwrap()), reference, "same bits");
        }
        assert_eq!(exe.session.idle_count(), 1, "one context served every request");
    }

    /// An upload fault on a cold context fails the request while the
    /// weights are being made resident; the context is quarantined, and the
    /// next request starts on a fresh one and completes.
    #[test]
    fn upload_fault_on_a_cold_context_quarantines_it() {
        let exe = executable();
        let (p, batch) = (params(1.0), instances(2));
        let fault = FaultPlan::parse("upload:0:oom").unwrap();
        let opts = RunOptions { fault: Some(fault), ..RunOptions::default() };
        let err = exe.run_with(&p, &batch, &opts).unwrap_err();
        assert!(matches!(err, VmError::Tensor(TensorError::DeviceOom { .. })), "{err}");
        assert_eq!(exe.session.quarantined_count(), 1);
        let recovered = exe.run(&p, &batch).expect("the next request recovers");
        let fresh = executable().run(&p, &batch).unwrap();
        assert_eq!(recovered.outputs, fresh.outputs);
        assert_eq!(uploaded_bytes(&exe, &p, &batch), 2 * INPUT_BYTES, "and is resident after");
    }

    /// A BiRNN-shaped `@main`: a list of tensors per instance, and a scalar.
    const LISTS: &str = "def @main($w: Tensor[(1, 2)], %xs: List[Tensor[(1, 2)]], %n: Int) \
                         -> List[Tensor[(1, 2)]] { map(fn(%x) { add(%x, $w) }, %xs) }";

    /// Instance `i` of a well-formed `LISTS` request: `3 + 5 i` tokens.
    fn list_instance(i: usize) -> Vec<InputValue> {
        let token = |j: usize| InputValue::Tensor(Tensor::fill(&[1, 2], (i * 31 + j) as f32));
        vec![InputValue::list((0..3 + 5 * i).map(token).collect()), InputValue::Int(i as i64)]
    }

    /// The fields (head, tail) of cell `at` of a list.
    fn cell(list: &mut InputValue, at: usize) -> &mut Vec<InputValue> {
        let InputValue::Adt { fields, .. } = list else { unreachable!("not a list cell") };
        match at {
            0 => fields,
            _ => cell(&mut fields[1], at - 1),
        }
    }

    /// A malformed input anywhere in a request — its last instance, deep
    /// in a list, a tensor of another shape, a constructor of another type
    /// — fails the request with the same `VmError::Input` on both
    /// backends before anything reaches the context: it uploads nothing,
    /// quarantines nothing, and the context goes back to the pool, where
    /// the next request finds it.
    #[test]
    fn malformed_inputs_upload_nothing_on_both_backends() {
        let p = Params::from([("w".to_string(), Tensor::fill(&[1, 2], 0.5))]);
        let good: Vec<_> = (0..4).map(list_instance).collect();
        let mut bad_last = good.clone();
        bad_last[3][1] = InputValue::Float(3.0);
        let mut deep = good.clone();
        cell(&mut deep[2][0], 9)[0] = InputValue::Int(5);
        let mut shape = good.clone();
        cell(&mut shape[1][0], 3)[0] = InputValue::Tensor(Tensor::ones(&[1, 3]));
        let mut ctor = good.clone();
        cell(&mut ctor[3][0], 8)[1] = InputValue::Adt { ctor: "Leaf".into(), fields: vec![] };
        let cases = [("last", bad_last), ("deep", deep), ("shape", shape), ("ctor", ctor)];
        let mut messages = Vec::new();
        for kind in [BackendKind::Aot, BackendKind::Vm] {
            let exe = build(LISTS, kind);
            let reference = exe.run(&p, &good).expect("a good request").outputs;
            for (name, batch) in &cases {
                let err = exe.run(&p, batch).expect_err(name);
                assert!(matches!(err, VmError::Input(_)), "{kind:?} {name}: {err:?}");
                assert_eq!(exe.session.quarantined_count(), 0, "{kind:?} {name}");
                assert_eq!(exe.session.idle_upload_bytes(), [0], "{kind:?} {name}: uploaded");
                assert_eq!(exe.run(&p, &good).unwrap().outputs, reference, "{kind:?} {name}");
                assert_eq!(exe.session.idle_count(), 1, "{kind:?} {name}: one context");
                messages.push((name, err.to_string()));
            }
            assert_eq!(exe.session.outcomes().failed, cases.len() as u64, "{kind:?}");
        }
        let (aot, vm) = messages.split_at(cases.len());
        assert_eq!(aot, vm, "both backends report the same first mismatch");
    }
}
