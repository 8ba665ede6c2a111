//! The mutable per-mini-batch half of the execution stack.
//!
//! An [`ExecutionContext`] ties the DFG, the scheduler scratch, the device
//! memory and the per-run statistics together for *one* mini-batch, against
//! an immutable shared [`Engine`].  Contexts are cheap to construct, own no
//! locks, and are `Send`, so a serving system runs one per in-flight
//! request with zero shared-state synchronization on the flush hot path.

use std::sync::Arc;

use acrobat_analysis::fusion::GroupId;
use acrobat_codegen::backend::LaneExecutor;
use acrobat_codegen::exec::{finish_prepared, prepare_batched_kernel_with};
use acrobat_tensor::{DeviceMem, DeviceTensor, FaultClass, Params, Tensor, TensorError};

use crate::dfg::{Dfg, NodeId, ValueId};
use crate::engine::{Engine, Unit};
use crate::plan_cache::{CacheConfig, CacheOutcome};
use crate::resilience::{CancelToken, Deadline};
use crate::scheduler::{self, Plan, SchedulerKind, SchedulerScratch};
use crate::stats::RuntimeStats;

/// Per-mini-batch execution state over a shared [`Engine`].
///
/// Typical lifecycle per mini-batch: acquire (or [`Engine::new_context`]),
/// upload inputs, interleave [`ExecutionContext::add_unit`] (from the
/// executing program) with [`ExecutionContext::flush`] (at sync points),
/// read results, inspect [`ExecutionContext::stats`], then hand it back to
/// the pool that [`ExecutionContext::reset`]s it for the next mini-batch.
#[derive(Debug)]
pub struct ExecutionContext {
    /// The shared immutable engine (kernels, analysis, device model,
    /// options).  A context serves this engine for life: a re-tune replaces
    /// the engine and drops its contexts.
    engine: Arc<Engine>,
    mem: DeviceMem,
    dfg: Dfg,
    stats: RuntimeStats,
    units: u64,
    /// Per-kernel launch counts (PGO profile data), drained per run and
    /// aggregated by the session.
    profile: std::collections::BTreeMap<acrobat_codegen::KernelId, u64>,
    /// Scheduler working memory, reused across flushes so steady-state
    /// planning performs no allocations.
    sched_scratch: SchedulerScratch,
    /// Per-context plan-cache front ([`crate::plan_cache::PlanL1`]):
    /// absorbs steady-state probes so a warm flush touches no shared
    /// state.  Deliberately *retained* across [`ExecutionContext::reset`]
    /// — a pooled context's warm set is what makes repeated-shape serving
    /// hit without ever taking the shared cache's read lock.
    plan_l1: crate::plan_cache::PlanL1,
    /// The current flush's plan, reused for the same reason.
    plan_buf: Plan,
    /// The request's latency budget, checked at flush boundaries and
    /// between batched launches.
    deadline: Deadline,
    /// Cooperative cancellation flag, checked at the same points.
    cancel: Option<CancelToken>,
    /// Set once this context observes any fault, cancellation or deadline
    /// miss.  A tainted context is quarantined by its pool: dropped on
    /// release, never recycled into another request.
    tainted: bool,
    /// Kernel-executor state kept across launches: the flushing thread's
    /// working memory (compiled-path flat scratch and tiles, checked
    /// mode's snapshot and oracle registers) and the lane-split helper
    /// threads, each with its own — started on this context's first split
    /// launch, parked between launches, joined when the context drops.  So
    /// the steady-state execute phase allocates nothing and spawns nothing.
    lanes: LaneExecutor,
}

impl ExecutionContext {
    /// Creates a fresh context over an engine.
    pub fn new(engine: Arc<Engine>) -> ExecutionContext {
        let device_memory = engine.options().device_memory;
        let mut dfg = Dfg::new();
        dfg.set_signature_tracking(engine.options().plan_cache);
        ExecutionContext {
            engine,
            mem: DeviceMem::new(device_memory),
            dfg,
            stats: RuntimeStats::default(),
            units: 0,
            profile: Default::default(),
            sched_scratch: SchedulerScratch::new(),
            plan_l1: crate::plan_cache::PlanL1::new(),
            plan_buf: Plan::default(),
            deadline: Deadline::Unlimited,
            cancel: None,
            tainted: false,
            lanes: LaneExecutor::default(),
        }
    }

    /// Arms the request's deadline (checked at flush boundaries and
    /// between batched launches).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Arms the request's cancellation token (checked at the same points).
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Whether this context observed a fault, cancellation or deadline
    /// miss and must be quarantined instead of recycled.
    pub fn tainted(&self) -> bool {
        self.tainted
    }

    /// Raises [`TensorError::Cancelled`] / [`TensorError::DeadlineExceeded`]
    /// if the request was cancelled or ran out of budget; taints the
    /// context so it cannot be recycled.
    ///
    /// # Errors
    ///
    /// The interrupt, classified [`FaultClass::Interrupt`].
    pub fn check_interrupt(&mut self) -> Result<(), TensorError> {
        if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            self.tainted = true;
            return Err(TensorError::Cancelled);
        }
        if let Err(e) = self.deadline.check(self.stats.total_us()) {
            self.tainted = true;
            return Err(e);
        }
        Ok(())
    }

    /// The engine this context executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The accumulated statistics for this context's runs.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Active options (owned by the engine).
    pub fn options(&self) -> &crate::RuntimeOptions {
        self.engine.options()
    }

    /// The kernel library (owned by the engine).
    pub fn library(&self) -> &acrobat_codegen::KernelLibrary {
        self.engine.library()
    }

    /// The device model in use (owned by the engine).
    pub fn model(&self) -> &crate::DeviceModel {
        self.engine.model()
    }

    /// Per-kernel launch counts observed so far (profile data for PGO,
    /// aggregated across contexts by the caller).
    pub fn take_profile(&mut self) -> std::collections::BTreeMap<acrobat_codegen::KernelId, u64> {
        std::mem::take(&mut self.profile)
    }

    /// Clears the DFG, device memory, fault plan and statistics for a fresh
    /// mini-batch (called on pool reuse).  The DFG keeps its buffers
    /// ([`Dfg::clear`]), the arena is not re-zeroed and keeps its resident
    /// parameters ([`ExecutionContext::bind_params`]), so a warm request
    /// repeats none of the previous one's setup.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.mem.clear_fault();
        let _ = self.mem.take_stats();
        self.dfg.clear();
        self.dfg.set_signature_tracking(self.engine.options().plan_cache);
        // `plan_l1` is NOT cleared: frozen plans are engine-scoped and a
        // context never outlives its engine's pool, so the warm set carries
        // over and the next request's repeated shapes hit without touching
        // shared state.
        self.stats = RuntimeStats::default();
        self.units = 0;
        self.profile.clear();
        self.deadline = Deadline::Unlimited;
        self.cancel = None;
        self.tainted = false;
    }

    /// Uploads a batch of host tensors as one transfer operation (the
    /// paper's batched memcpys, §D.3) and registers them as ready values,
    /// numbered consecutively: returns the first — the value
    /// [`Self::next_value`] named before the call — and tensor `i` is
    /// `ValueId(first.0 + i)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] if device memory is exhausted.
    pub fn upload_inputs(&mut self, tensors: &[&Tensor]) -> Result<ValueId, TensorError> {
        let first = self.next_value();
        let before = self.mem.stats();
        let handles = self.mem.upload_batched(tensors)?;
        let after = self.mem.stats();
        self.charge_transfers(
            after.upload_bytes - before.upload_bytes,
            after.upload_ops - before.upload_ops,
        );
        for h in handles {
            self.dfg.ready_value(h);
        }
        Ok(first)
    }

    /// The value the next registered tensor gets: values are numbered
    /// consecutively from 0 after a reset.
    pub fn next_value(&self) -> ValueId {
        ValueId(self.dfg.value_count() as u64)
    }

    /// Charges `ops` host↔device transfers of `bytes` in total: their
    /// modeled copy time and per-operation API overhead.
    fn charge_transfers(&mut self, bytes: u64, ops: u64) {
        let model = self.engine.model();
        self.stats.memcpy_bytes += bytes;
        self.stats.memcpy_ops += ops;
        self.stats.memcpy_us += model.memcpy_time_us(bytes, ops);
        self.stats.cuda_api_us += ops as f64 * model.memcpy_overhead_us;
    }

    /// Registers a tensor already in this context's arena as a ready value.
    /// Model weights get theirs from [`ExecutionContext::bind_params`].
    pub fn ready_value(&mut self, tensor: DeviceTensor) -> ValueId {
        self.dfg.ready_value(tensor)
    }

    /// Binds a request's model parameters: the tensors `entries`
    /// (positions in `params`) stay resident in this context's arena
    /// across requests ([`DeviceMem::make_resident`] — uploaded on the
    /// first request that brings this `params`, and again only when a
    /// request brings a different one) and are registered as ready values.
    /// Returns the first: entry `i`'s value is `ValueId(first.0 + i)`.
    /// Call it first thing in a request, before any other upload.
    ///
    /// Like the per-request weight upload it replaces, this charges no
    /// modeled time — weights persist across mini-batches in a serving
    /// system — while the arena's high-water mark
    /// ([`RuntimeStats::device_peak_elements`]) and capacity still count
    /// the resident weights on every request.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`] or an injected upload fault from
    /// an upload; nothing is resident then.
    pub fn bind_params(
        &mut self,
        params: &Params,
        entries: &[usize],
    ) -> Result<ValueId, TensorError> {
        let first = self.next_value();
        for h in self.mem.make_resident(params, entries)? {
            self.dfg.ready_value(h.clone());
        }
        Ok(first)
    }

    /// Direct access to device memory (weight upload, result download,
    /// fault arming).
    pub fn mem_mut(&mut self) -> &mut DeviceMem {
        &mut self.mem
    }

    /// Appends one scheduling unit to the DFG.
    ///
    /// `unit_head` is false when grain-size coarsening merges this node into
    /// the previous one's scheduling unit (same static block); construction
    /// and scheduling overheads are then charged once per block.
    ///
    /// Returns the node's output values (one per kernel output slot).
    /// Convenience form of [`ExecutionContext::add_unit_in_lane`] for
    /// callers that name the group and hold their arguments in a `Vec`.
    pub fn add_unit(
        &mut self,
        group: GroupId,
        instance: usize,
        depth: u64,
        phase: u32,
        args: Vec<ValueId>,
        unit_head: bool,
    ) -> Vec<ValueId> {
        let engine = Arc::clone(&self.engine);
        let unit = engine.unit(group);
        let lane = crate::dfg::lane::root(instance);
        let first = self.add_unit_in_lane(unit, instance, lane, depth, phase, &args, unit_head);
        (0..unit.outputs as u64).map(|k| ValueId(first.0 + k)).collect()
    }

    /// Appends one scheduling unit on an explicit fiber lane (see
    /// [`crate::dfg::lane`]; fiber-mode drivers pass each fiber's fork-path
    /// lane so lane-canonical window signing is invariant to the OS
    /// interleaving of fibers) and returns its first output value — output
    /// slot `k` is `ValueId(first.0 + k)`, for `k < unit.outputs`.
    ///
    /// This is the per-node hot path of program drive: `unit` was resolved
    /// once per engine ([`Engine::unit`]), `args` is borrowed, and nothing
    /// here allocates once the DFG's buffers have grown.
    #[allow(clippy::too_many_arguments)]
    pub fn add_unit_in_lane(
        &mut self,
        unit: &Unit,
        instance: usize,
        lane: u64,
        depth: u64,
        phase: u32,
        args: &[ValueId],
        unit_head: bool,
    ) -> ValueId {
        // Shared-operand signature: nodes batch only when their shared
        // kernel operands are identical tensors.
        let mut shared_sig = 0xcbf29ce484222325u64;
        for &slot in &*unit.shared_slots {
            shared_sig ^= args[slot as usize].0.wrapping_add(0x9E3779B97F4A7C15);
            shared_sig = shared_sig.wrapping_mul(0x100000001b3);
        }
        let charge = !self.engine.options().coarsen || unit_head;
        if charge {
            self.units += 1;
            let cost = self.engine.model().dfg_node_cost_us;
            self.stats.dfg_construction_us += cost;
        }
        let (_, first) = self.dfg.add_node_in_lane(
            unit.kernel,
            instance,
            lane,
            depth,
            phase,
            shared_sig,
            args,
            unit.outputs as usize,
        );
        self.stats.nodes = self.dfg.node_count();
        first
    }

    /// Enables lane-canonical window signing on this context's DFG (see
    /// [`crate::Dfg::set_lane_canonical`]).  Fiber-mode drivers call this
    /// once per run, before the first [`ExecutionContext::add_unit_in_lane`].
    ///
    /// Lane-canonical mode forces signature tracking on even with the plan
    /// cache off: the per-lane accumulators are what the flush path sorts
    /// to emit batches in canonical lane order, and without that order
    /// fresh plans would emit in fiber *arrival* order — making device
    /// placement of intermediates, and hence the `gather_copies` vs
    /// `contiguous_hits` split, a function of the OS interleave.
    pub fn set_lane_canonical(&mut self, on: bool) {
        self.dfg.set_lane_canonical(on);
        if on && !self.engine.options().plan_cache {
            self.dfg.set_signature_tracking(true);
        }
    }

    /// The tensor behind a value, if already materialized.
    pub fn tensor(&self, v: ValueId) -> Option<&DeviceTensor> {
        self.dfg.tensor(v)
    }

    /// Forces a value: flushes the DFG if it is still pending.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn force(&mut self, v: ValueId) -> Result<DeviceTensor, TensorError> {
        if self.dfg.tensor(v).is_none() {
            self.flush()?;
        }
        self.dfg.tensor(v).cloned().ok_or(TensorError::StaleHandle)
    }

    /// Downloads a value to the host (forcing it first).
    ///
    /// # Errors
    ///
    /// Propagates flush and transfer errors.
    pub fn download(&mut self, v: ValueId) -> Result<Tensor, TensorError> {
        if self.dfg.tensor(v).is_none() {
            self.flush()?;
        }
        let t = self.dfg.tensor(v).ok_or(TensorError::StaleHandle)?;
        let host = self.mem.download(t)?;
        // One transfer of what `DeviceMem::download` counted.
        self.charge_transfers(host.shape().byte_size() as u64, 1);
        Ok(host)
    }

    /// Executes all pending DFG nodes in batched kernel launches, retrying
    /// transient faults up to the engine's `max_retries` times.
    ///
    /// The flush boundary is also the request's interrupt point: the
    /// deadline and cancellation token are checked on entry and between
    /// batched launches, and an interrupt surfaces as
    /// [`TensorError::Cancelled`] / [`TensorError::DeadlineExceeded`]
    /// (class [`FaultClass::Interrupt`] — never retried).  Transient
    /// faults are retried after an exponential backoff (`backoff_us`)
    /// charged as virtual time to this context's statistics; the
    /// retry replans the aborted plan's pending suffix, which is
    /// bit-for-bit equivalent to an uninterrupted flush.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DeviceOom`], kernel errors, or an interrupt;
    /// a scheduling inconsistency (a batch whose dependences are unmet) is
    /// a bug and panics.
    pub fn flush(&mut self) -> Result<(), TensorError> {
        self.check_interrupt()?;
        let max_retries = self.engine.options().max_retries;
        let mut attempt = 0u32;
        loop {
            let e = match self.flush_once() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            if e.fault_class() != FaultClass::Transient || attempt >= max_retries {
                self.tainted = true;
                return Err(e);
            }
            attempt += 1;
            let backoff = crate::resilience::backoff_us(attempt);
            self.stats.retries += 1;
            self.stats.retry_backoff_us += backoff;
            // The backoff counts against a virtual deadline; a request that
            // runs out of budget while backing off stops retrying.
            self.check_interrupt()?;
        }
    }

    /// One flush attempt, in four stages: plan the pending window, charge
    /// the modeled cost of planning, execute the plan, settle the outcome.
    fn flush_once(&mut self) -> Result<(), TensorError> {
        if !self.dfg.has_pending() {
            return Ok(());
        }
        let wall = std::time::Instant::now();
        // The plan buffer leaves the context for the duration of the attempt
        // so the stages can read it next to `&mut self`.
        let mut plan = std::mem::take(&mut self.plan_buf);
        let outcome = self.plan_window(&mut plan);
        self.charge_scheduling(&plan, outcome);
        let run = self.execute_plan(&plan);
        let result = self.settle(run);
        self.plan_buf = plan;
        self.stats.device_peak_elements = self.mem.stats().peak_elements;
        self.stats.host_wall_us += wall.elapsed().as_secs_f64() * 1e6;
        result
    }

    /// Stage 1 — plans the pending window into `plan` and returns the
    /// plan-cache outcome (`None` with the cache off).  Cache on
    /// ([`crate::plan_cache`]): probe the per-context L1 then the engine's
    /// shared cache on the window's structural signature; a hit remaps the
    /// frozen plan onto the current window, a miss schedules fresh and (for
    /// healthy contexts) publishes the result.
    fn plan_window(&mut self, plan: &mut Plan) -> Option<CacheOutcome> {
        let options = self.engine.options();
        if !options.plan_cache {
            // Canonical-emission parity with the cached path: a clean
            // lane-canonical (fiber-mode) window derives its canonical node
            // order here even with the plan cache off, so fresh plans emit
            // batches in lane-key order rather than fiber arrival order.
            // Device placement of intermediates — and with it the
            // `gather_copies`/`contiguous_hits` split — is then a pure
            // function of the workload, not the OS interleave.  Sequential
            // windows (`win_track` off) return `None` at once and pay nothing.
            let _ = self.dfg.window_signature();
            scheduler::plan_into(options.scheduler, &self.dfg, &mut self.sched_scratch, plan);
            return None;
        }
        let cfg = CacheConfig::from_options(options, self.tainted);
        let outcome = crate::plan_cache::plan_cached(
            &cfg,
            &mut self.dfg,
            &mut self.sched_scratch,
            &mut self.plan_l1,
            self.engine.plan_cache(),
            plan,
        );
        // Run-to-run determinism audit trail: XOR the window's signature
        // token (accumulators + length, NOT the run-varying base) into an
        // order-independent digest.  XOR makes the digest invariant to flush
        // order and to how windows are partitioned across worker contexts, so
        // two runs of the same workload — at any worker count — must agree
        // bit for bit.  Dirty (bypassed) windows have no signature and fold
        // nothing.
        if let Some(w) = self.dfg.window_signature() {
            self.stats.plan_sig_chain ^= w.chain_token();
        }
        match outcome {
            CacheOutcome::Hit => {
                self.stats.plan_cache_hits += 1;
                if options.checked {
                    // Every hit must be bit-identical to a fresh schedule,
                    // including the batch binding layout.
                    crate::check::validate_cached_plan(&self.dfg, plan, options.scheduler);
                }
            }
            CacheOutcome::Miss { evicted } => {
                self.stats.plan_cache_misses += 1;
                self.stats.plan_cache_evictions += evicted;
            }
            CacheOutcome::Bypass => self.stats.plan_cache_misses += 1,
        }
        Some(outcome)
    }

    /// Stage 2 — charges the modeled host cost of planning `plan`, in one
    /// place: per elementary decision, scaled so that with coarsening the
    /// inline scheduler pays per scheduling unit.
    fn charge_scheduling(&mut self, plan: &Plan, outcome: Option<CacheOutcome>) {
        let options = self.engine.options();
        let model = self.engine.model();
        let per_decision = match options.scheduler {
            SchedulerKind::InlineDepth => model.sched_inline_cost_us,
            SchedulerKind::Agenda => model.sched_agenda_cost_us,
        };
        let unit_ratio = if options.coarsen && self.dfg.node_count() > 0 {
            (self.units as f64 / self.dfg.node_count() as f64).min(1.0)
        } else {
            1.0
        };
        // With the cache on, every *signed* flush pays signature folding
        // per node; a hit replaces the per-decision scheduling work with
        // the O(n) remap, a miss pays folding on top of the full schedule.
        // A bypassed (dirty) window was never signed — incremental folding
        // stopped the moment the window went dirty and the probe never ran
        // — so it must not be charged signing cost it didn't pay.
        let node_window = plan.num_nodes() as f64;
        let sig_us = match outcome {
            Some(CacheOutcome::Hit) => {
                node_window * (model.sched_sig_cost_us + model.sched_remap_cost_us) * unit_ratio
            }
            Some(CacheOutcome::Miss { .. }) => node_window * model.sched_sig_cost_us * unit_ratio,
            Some(CacheOutcome::Bypass) | None => 0.0,
        };
        let decision_us = match outcome {
            Some(CacheOutcome::Hit) => 0.0,
            _ => plan.decisions as f64 * per_decision * unit_ratio,
        };
        self.stats.plan_sig_us += sig_us;
        self.stats.scheduling_us += sig_us + decision_us;
    }

    /// Stage 3 — the single walk over `plan`: one batched launch per batch,
    /// in plan order.
    ///
    /// The fault contract, whatever stops the walk — a fault or error while
    /// a launch prepares or executes, or an interrupt between batches (a
    /// cancelled or over-budget request stops after the launch in flight,
    /// never mid-batch): launches before the failure are committed and
    /// accounted and stay so; the failing launch and the rest of the plan
    /// are charged nothing and stay pending, so the next flush replans
    /// them from scratch; this attempt's scheduling cost stays charged —
    /// planning genuinely ran, and a retry replans (and recharges) just
    /// like a real system.
    fn execute_plan(&mut self, plan: &Plan) -> Result<(), TensorError> {
        // Pinned for the walk so kernel programs can be borrowed from the
        // engine across the `&mut self` launch steps.
        let engine = Arc::clone(&self.engine);
        let options = engine.options();
        let mut checker = options
            .checked
            .then(|| crate::check::FlushChecker::validate_plan(&self.dfg, plan, options.scheduler));
        for (b, batch) in plan.batches().enumerate() {
            if b > 0 {
                self.check_interrupt()?;
            }
            self.launch_batch(&engine, batch, &mut checker)?;
        }
        if let Some(c) = checker {
            c.finish(&self.dfg);
        }
        Ok(())
    }

    /// One batched launch over the nodes of `batch`: prepare → select →
    /// execute lanes → finish → account → complete → check.  Nothing is
    /// accounted or materialized unless every step before it succeeded.
    fn launch_batch(
        &mut self,
        engine: &Engine,
        batch: &[NodeId],
        checker: &mut Option<crate::check::FlushChecker>,
    ) -> Result<(), TensorError> {
        let options = engine.options();
        let lanes = batch.len();
        let kernel_id = self.dfg.node(batch[0]).kernel;
        let program = engine.library().kernel(kernel_id);
        let mode = if options.gather_fusion {
            acrobat_codegen::BatchMode::GatherFused
        } else {
            acrobat_codegen::BatchMode::ExplicitGather
        };
        // Prepare straight out of the DFG value table — no per-lane
        // tensor-handle clones and no per-launch argument vectors.
        let dfg = &self.dfg;
        let prep =
            prepare_batched_kernel_with(&mut self.mem, program, lanes, mode, |lane, slot| {
                debug_assert_eq!(dfg.node(batch[lane]).kernel, kernel_id);
                dfg.tensor(dfg.args(batch[lane])[slot])
                    .expect("scheduler produced unmet dependency")
            })?;
        let (kernel, fresh) = engine.backend().select(program);
        if fresh {
            self.stats.backend_compiles += 1;
        } else {
            self.stats.backend_hits += 1;
        }
        // Elapsed wall of the execute phase (a split launch's ranges overlap).
        let exec_wall = std::time::Instant::now();
        kernel.execute_lanes(
            &self.mem.exec_view(),
            program,
            &prep,
            lane_parts(prep.stats.flops, lanes),
            &mut self.lanes,
            options.checked,
        )?;
        self.stats.exec_wall_us += exec_wall.elapsed().as_secs_f64() * 1e6;
        let outs = finish_prepared(&self.mem, &prep)?;

        // PGO profiles count operator *invocations* (DFG nodes), not batched
        // launches — the paper prioritizes by execution frequency (§D.1).
        *self.profile.entry(kernel_id).or_default() += lanes as u64;
        self.account_launch(lanes, &prep.stats, program.schedule.as_ref());
        self.dfg.complete_batch(batch, outs);
        if let Some(c) = checker {
            c.after_batch(&self.dfg, batch);
        }
        Ok(())
    }

    /// Per-launch accounting: the launch's exact counts and its modeled
    /// kernel, gather and launch-API time.
    fn account_launch(
        &mut self,
        lanes: usize,
        lstats: &acrobat_codegen::KernelLaunchStats,
        schedule: Option<&acrobat_codegen::Schedule>,
    ) {
        let model = self.engine.model();
        let stats = &mut self.stats;
        stats.kernel_launches += lstats.launches;
        stats.flops += lstats.flops;
        stats.gather_copies += lstats.gather_copies;
        stats.gather_bytes += lstats.gather_bytes;
        stats.contiguous_hits += lstats.contiguous_hits;
        let gather_us = model.gather_time_us(lstats);
        let kernel_us = model.kernel_time_us(lstats, schedule, lanes);
        let api_us = lstats.launches as f64 * model.launch_overhead_us
            + lstats.gather_copies as f64 * model.launch_overhead_us * 0.5;
        stats.kernel_time_us += kernel_us + gather_us;
        stats.cuda_api_us += api_us;
    }

    /// Stage 4 — settles the attempt.  An abort (the context stays
    /// well-defined and resumable, see [`Self::execute_plan`]) is recorded
    /// and taints the context.  A clean flush is counted.
    fn settle(&mut self, run: Result<(), TensorError>) -> Result<(), TensorError> {
        if let Err(e) = run {
            self.stats.aborted_flushes += 1;
            self.tainted = true;
            if self.engine.options().checked {
                if let Err(msg) = self.dfg.verify_consistent() {
                    panic!("checked mode: DFG inconsistent after aborted flush: {msg}");
                }
            }
            return Err(e);
        }
        self.stats.flushes += 1;
        Ok(())
    }

    /// Cross-checks the DFG's pending/bucket/value indices against each
    /// other (see [`crate::Dfg::verify_consistent`]).  O(nodes); used by
    /// checked-mode tests, especially after error paths.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn verify_consistent(&self) -> Result<(), String> {
        self.dfg.verify_consistent()
    }

    /// Charges fiber-switch costs observed by a [`crate::FiberHub`].
    pub fn charge_fiber_switches(&mut self, switches: u64) {
        let us = switches as f64 * self.engine.model().fiber_switch_cost_us;
        self.stats.fiber_switches += switches;
        self.stats.fiber_us += us;
    }
}

/// Launch size, in FLOPs, from which the execute phase of one launch is
/// split across cores: handing a range to a parked helper and joining it
/// costs 2–20 µs at the median, and from this size a split returns
/// 26–47 µs of a ≈ 90 µs launch on a 2-vCPU AVX-512 Xeon whose two vCPUs
/// often share one core, so split ranges run 1.3–1.7×, not 2×, faster
/// (DESIGN §9 has the measurements and the per-workload launch sizes on
/// either side).
pub const SPLIT_MIN_FLOPS: u64 = 6_000_000;

/// The machine's available parallelism, measured once per process: the
/// one core count every policy reads ([`lane_parts`]; `kernel_backend`
/// prints it as its host's CPU count).  A machine property, never an
/// option.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lane-split policy: how many lane ranges one launch's execute phase
/// runs as ([`acrobat_codegen::CompiledKernel::execute_lanes`]) — a
/// function of the launch's own `flops` and lane count and of [`cores`],
/// never of an option.
pub fn lane_parts(flops: u64, lanes: usize) -> usize {
    if flops < SPLIT_MIN_FLOPS {
        return 1;
    }
    cores().min(lanes)
}

// Contexts move between serving threads (and sit inside per-run mutexes in
// fiber mode); keep that a compile-time guarantee.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ExecutionContext>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::engine::RuntimeOptions;
    use acrobat_analysis::{analyze, AnalysisOptions, AnalysisResult};
    use acrobat_codegen::KernelLibrary;
    use acrobat_ir::{parse_module, typeck};

    fn setup(src: &str, options: RuntimeOptions) -> (Arc<AnalysisResult>, ExecutionContext) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = Arc::new(analyze(m, AnalysisOptions::default()).unwrap());
        let lib = KernelLibrary::build(&a);
        let engine = Arc::new(Engine::new(a.clone(), lib, DeviceModel::default(), options));
        (a, engine.new_context())
    }

    const PROGRAM: &str = "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        relu(matmul(%x, $w))
    }";

    /// The arguments of one unit of `group`: `x` in each batched input
    /// slot, `w` in each shared one.
    fn program_args(lib: &KernelLibrary, group: GroupId, x: ValueId, w: ValueId) -> Vec<ValueId> {
        use acrobat_analysis::ArgClass;
        let inputs = lib.kernel_for_group(group).inputs.iter();
        inputs
            .map(|inp| match inp.class {
                ArgClass::Batched => x,
                ArgClass::Shared => w,
            })
            .collect()
    }

    #[test]
    fn manual_batch_execution() {
        let (a, mut rt) = setup(PROGRAM, RuntimeOptions::default());
        let group = a.blocks.blocks[0].groups[0].id;
        let w_host = Tensor::from_fn(&[2, 2], |i| i as f32);
        let w = rt.mem_mut().upload(&w_host).unwrap();
        let wv = rt.ready_value(w);

        let xs: Vec<Tensor> = (0..4).map(|i| Tensor::fill(&[1, 2], i as f32 - 1.5)).collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let first = rt.upload_inputs(&refs).unwrap();
        let xvs: Vec<ValueId> = (0..4).map(|i| ValueId(first.0 + i)).collect();

        // Input slot order: discover batched-vs-shared from the kernel.
        let mut outs = Vec::new();
        for (i, xv) in xvs.iter().enumerate() {
            let args = program_args(rt.library(), group, *xv, wv);
            let o = rt.add_unit(group, i, 0, 0, args, true);
            outs.push(o[0]);
        }
        rt.flush().unwrap();
        assert_eq!(rt.stats().kernel_launches, 1, "4 instances, one launch");
        assert_eq!(rt.stats().nodes, 4);
        for (x, o) in xs.iter().zip(&outs) {
            let got = rt.download(*o).unwrap();
            let mm =
                acrobat_tensor::execute(&acrobat_tensor::PrimOp::MatMul, &[x, &w_host]).unwrap();
            let want = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Relu, &[&mm]).unwrap();
            assert!(got.allclose(&want, 1e-6));
        }
        assert!(rt.stats().total_us() > 0.0);
    }

    #[test]
    fn force_triggers_flush() {
        let (a, mut rt) = setup(PROGRAM, RuntimeOptions::default());
        let group = a.blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
        let wv = rt.ready_value(w);
        let x = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
        let args = program_args(rt.library(), group, x, wv);
        let o = rt.add_unit(group, 0, 0, 0, args, true);
        assert!(rt.tensor(o[0]).is_none());
        let t = rt.force(o[0]).unwrap();
        assert_eq!(rt.mem_mut().read(&t).unwrap(), &[2.0, 2.0]);
        assert_eq!(rt.stats().flushes, 1);
        // Flushing with nothing pending is free.
        rt.flush().unwrap();
        assert_eq!(rt.stats().flushes, 1);
    }

    #[test]
    fn gather_fusion_toggle_changes_accounting_not_results() {
        let run = |fusion: bool| {
            let (a, mut rt) =
                setup(PROGRAM, RuntimeOptions { gather_fusion: fusion, ..Default::default() });
            let group = a.blocks.blocks[0].groups[0].id;
            let w = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
            let wv = rt.ready_value(w);
            let mut outs = Vec::new();
            for i in 0..3 {
                // Interleave pad allocations to scatter instance tensors.
                let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32)]).unwrap();
                rt.mem_mut().alloc(&acrobat_tensor::Shape::new(&[3 + i])).unwrap();
                let args = program_args(rt.library(), group, x, wv);
                outs.push(rt.add_unit(group, i, 0, 0, args, true)[0]);
            }
            rt.flush().unwrap();
            let results: Vec<Tensor> = outs.iter().map(|o| rt.download(*o).unwrap()).collect();
            (results, rt.stats().gather_copies, rt.stats().gather_bytes)
        };
        let (r_fused, gc_fused, gb_fused) = run(true);
        let (r_gather, gc_gather, gb_gather) = run(false);
        for (a, b) in r_fused.iter().zip(&r_gather) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(gc_fused, 0);
        assert_eq!(gb_fused, 0);
        assert!(gc_gather > 0 && gb_gather > 0);
    }

    #[test]
    fn oom_propagates() {
        let (a, mut rt) =
            setup(PROGRAM, RuntimeOptions { device_memory: 16, ..Default::default() });
        let _ = a;
        let big = Tensor::zeros(&[32]);
        assert!(matches!(rt.upload_inputs(&[&big]), Err(TensorError::DeviceOom { .. })));
    }

    #[test]
    fn checked_mode_passes_and_matches_unchecked() {
        for kind in SchedulerKind::ALL {
            for gather_fusion in [true, false] {
                let run = |checked: bool| {
                    let (a, mut rt) = setup(
                        PROGRAM,
                        RuntimeOptions {
                            scheduler: kind,
                            gather_fusion,
                            checked,
                            ..Default::default()
                        },
                    );
                    let group = a.blocks.blocks[0].groups[0].id;
                    let w = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
                    let wv = rt.ready_value(w);
                    let mut outs = Vec::new();
                    for i in 0..4 {
                        let x =
                            rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.5)]).unwrap();
                        rt.mem_mut().alloc(&acrobat_tensor::Shape::new(&[1 + i])).unwrap();
                        let args = program_args(rt.library(), group, x, wv);
                        outs.push(rt.add_unit(group, i, 0, 0, args, true)[0]);
                    }
                    rt.flush().unwrap();
                    rt.verify_consistent().unwrap();
                    outs.iter().map(|o| rt.download(*o).unwrap()).collect::<Vec<Tensor>>()
                };
                let checked = run(true);
                let plain = run(false);
                for (a, b) in checked.iter().zip(&plain) {
                    assert_eq!(a.data(), b.data(), "{kind:?} fusion={gather_fusion}");
                }
            }
        }
    }

    #[test]
    fn aborted_flush_is_resumable_with_consistent_stats() {
        use acrobat_tensor::FaultPlan;
        // Two fused groups per instance → a two-batch plan; failing the
        // second launch aborts the flush halfway through.
        let src = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            matmul(matmul(%x, $w1), $w2)
        }";
        let build = || {
            let (a, mut rt) = setup(src, RuntimeOptions { checked: true, ..Default::default() });
            let block = &a.blocks.blocks[0];
            let (g0, g1) = (block.groups[0].id, block.groups[1].id);
            let w1 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
            let w1v = rt.ready_value(w1);
            let w2 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| 1.0 - i as f32)).unwrap();
            let w2v = rt.ready_value(w2);
            let mut outs = Vec::new();
            for i in 0..3 {
                let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.0)]).unwrap();
                let o0 = rt.add_unit(g0, i, 0, 0, vec![x, w1v], true);
                outs.push(rt.add_unit(g1, i, 1, 0, vec![o0[0], w2v], false)[0]);
            }
            (rt, outs)
        };
        // Unfaulted reference outputs.
        let (mut rt, outs) = build();
        rt.flush().unwrap();
        let want: Vec<Tensor> = outs.iter().map(|o| rt.download(*o).unwrap()).collect();

        for plan in ["launch:1:kernel", "launch:1:oom", "launch:0:kernel"] {
            let fault = FaultPlan::parse(plan).unwrap();
            let (mut rt, outs) = build();
            rt.mem_mut().arm_fault(fault);
            let err = rt.flush().expect_err("fault must surface");
            match fault.kind {
                acrobat_tensor::FaultKind::Oom => {
                    assert!(matches!(err, TensorError::DeviceOom { .. }), "{plan}")
                }
                acrobat_tensor::FaultKind::Kernel => {
                    assert!(matches!(err, TensorError::Injected { .. }), "{plan}")
                }
            }
            // The abort is recorded, the completed prefix is accounted, and
            // nothing counts as a finished flush.
            assert_eq!(rt.stats().aborted_flushes, 1, "{plan}");
            assert_eq!(rt.stats().flushes, 0, "{plan}");
            let acrobat_tensor::FaultMode::Nth(nth) = fault.mode else { unreachable!() };
            assert_eq!(rt.stats().kernel_launches, nth, "{plan}: prefix accounted");
            assert!(rt.stats().host_wall_us > 0.0, "{plan}");
            rt.verify_consistent().unwrap();

            // The context is resumable: clear the fault, flush again, and
            // the results match the unfaulted run bit for bit.
            rt.mem_mut().clear_fault();
            rt.flush().unwrap();
            assert_eq!(rt.stats().flushes, 1, "{plan}");
            assert_eq!(rt.stats().aborted_flushes, 1, "{plan}");
            for (o, w) in outs.iter().zip(&want) {
                assert_eq!(rt.download(*o).unwrap().data(), w.data(), "{plan}");
            }
        }
    }

    #[test]
    fn gather_and_upload_faults_are_recoverable() {
        use acrobat_tensor::FaultPlan;
        // Gather faults need the explicit-gather path with scattered lanes.
        let (a, mut rt) = setup(
            PROGRAM,
            RuntimeOptions { gather_fusion: false, checked: true, ..Default::default() },
        );
        let group = a.blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
        let wv = rt.ready_value(w);
        let mut outs = Vec::new();
        for i in 0..3 {
            let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32)]).unwrap();
            rt.mem_mut().alloc(&acrobat_tensor::Shape::new(&[3 + i])).unwrap();
            let args = program_args(rt.library(), group, x, wv);
            outs.push(rt.add_unit(group, i, 0, 0, args, true)[0]);
        }
        rt.mem_mut().arm_fault(FaultPlan::parse("gather:0:oom").unwrap());
        assert!(matches!(rt.flush(), Err(TensorError::DeviceOom { .. })));
        assert_eq!(rt.stats().aborted_flushes, 1);
        rt.verify_consistent().unwrap();
        rt.mem_mut().clear_fault();
        rt.flush().unwrap();
        assert!(rt.stats().gather_copies > 0);
        for (i, o) in outs.iter().enumerate() {
            let x = Tensor::fill(&[1, 2], i as f32);
            let w_host = Tensor::from_fn(&[2, 2], |i| i as f32);
            let mm =
                acrobat_tensor::execute(&acrobat_tensor::PrimOp::MatMul, &[&x, &w_host]).unwrap();
            let want = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Relu, &[&mm]).unwrap();
            assert!(rt.download(*o).unwrap().allclose(&want, 1e-6));
        }

        // Upload faults surface from upload_inputs and clear cleanly too.
        let (_, mut rt) = setup(PROGRAM, RuntimeOptions { checked: true, ..Default::default() });
        rt.mem_mut().arm_fault(FaultPlan::parse("upload:0:oom").unwrap());
        let x = Tensor::ones(&[1, 2]);
        assert!(matches!(rt.upload_inputs(&[&x]), Err(TensorError::DeviceOom { .. })));
        rt.verify_consistent().unwrap();
        rt.mem_mut().clear_fault();
        let first = rt.upload_inputs(&[&x]).unwrap();
        assert_eq!(rt.next_value(), ValueId(first.0 + 1), "one value registered");
    }

    #[test]
    fn coarsening_reduces_charged_overheads() {
        // Two groups in one block: with coarsening, only the unit head is
        // charged for DFG construction.
        let src = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            matmul(matmul(%x, $w1), $w2)
        }";
        let run = |coarsen: bool| {
            let (a, mut rt) = setup(src, RuntimeOptions { coarsen, ..Default::default() });
            let block = &a.blocks.blocks[0];
            assert_eq!(block.groups.len(), 2);
            let w1 = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
            let w1v = rt.ready_value(w1);
            let w2 = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
            let w2v = rt.ready_value(w2);
            let x = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
            let g0 = block.groups[0].id;
            let g1 = block.groups[1].id;
            let o0 = rt.add_unit(g0, 0, 0, 0, vec![x, w1v], true);
            let _o1 = rt.add_unit(g1, 0, 1, 0, vec![o0[0], w2v], false);
            rt.flush().unwrap();
            rt.stats().dfg_construction_us
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn transient_faults_retry_with_backoff_bit_for_bit() {
        let src = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            matmul(matmul(%x, $w1), $w2)
        }";
        let build = |options: RuntimeOptions| {
            let (a, mut rt) = setup(src, options);
            let block = &a.blocks.blocks[0];
            let (g0, g1) = (block.groups[0].id, block.groups[1].id);
            let w1 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
            let w1v = rt.ready_value(w1);
            let w2 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| 1.0 - i as f32)).unwrap();
            let w2v = rt.ready_value(w2);
            let mut outs = Vec::new();
            for i in 0..3 {
                let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.0)]).unwrap();
                let o0 = rt.add_unit(g0, i, 0, 0, vec![x, w1v], true);
                outs.push(rt.add_unit(g1, i, 1, 0, vec![o0[0], w2v], false)[0]);
            }
            (rt, outs)
        };
        // Fault-free reference outputs.
        let (mut rt, outs) = build(RuntimeOptions { checked: true, ..Default::default() });
        rt.flush().unwrap();
        let want: Vec<Tensor> = outs.iter().map(|o| rt.download(*o).unwrap()).collect();
        assert!(!rt.tainted(), "clean run is recyclable");

        // A one-shot kernel fault is transient: the retry replans the
        // pending suffix and the run completes bit-for-bit.
        let retrying = RuntimeOptions { checked: true, max_retries: 2, ..Default::default() };
        let (mut rt, outs) = build(retrying);
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::parse("launch:1:kernel").unwrap());
        rt.flush().expect("transient fault retried to success");
        assert_eq!(rt.stats().retries, 1);
        assert_eq!(rt.stats().aborted_flushes, 1);
        assert_eq!(rt.stats().flushes, 1);
        assert_eq!(rt.stats().retry_backoff_us, 50.0, "first backoff = base");
        assert!(rt.tainted(), "a fault was observed: quarantine on release");
        for (o, w) in outs.iter().zip(&want) {
            assert_eq!(rt.download(*o).unwrap().data(), w.data(), "retry is bit-for-bit");
        }

        // Fatal faults (OOM) are never retried.
        let (mut rt, _) = build(retrying);
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::parse("launch:1:oom").unwrap());
        assert!(matches!(rt.flush(), Err(TensorError::DeviceOom { .. })));
        assert_eq!(rt.stats().retries, 0, "fatal faults surface immediately");

        // A permanent transient fault exhausts the retry budget.
        let (mut rt, _) = build(retrying);
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::storm(
            acrobat_tensor::FaultSite::Launch,
            1_000_000,
            7,
            acrobat_tensor::FaultKind::Kernel,
        ));
        assert!(matches!(rt.flush(), Err(TensorError::Injected { .. })));
        assert_eq!(rt.stats().retries, 2, "bounded by max_retries");
        assert_eq!(rt.stats().aborted_flushes, 3, "initial attempt + 2 retries");
        assert_eq!(rt.stats().retry_backoff_us, 50.0 + 100.0, "exponential backoff");
    }

    /// A retry that replans a partially completed window takes the dirty
    /// `Bypass` path: the window was never signed (incremental folding
    /// stopped at the first completion), so the bypass must charge *zero*
    /// signing cost — a faulted-and-retried run's `plan_sig_us` balances
    /// exactly with a clean run's, which signed the same window once.
    /// Regression test: the bypass used to fall into the `Miss` arm and
    /// double-charge `sched_sig_cost_us` for folding that never happened.
    #[test]
    fn retry_bypass_charges_no_signing_cost() {
        let src = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            matmul(matmul(%x, $w1), $w2)
        }";
        let build = |options: RuntimeOptions| {
            let (a, mut rt) = setup(src, options);
            let block = &a.blocks.blocks[0];
            let (g0, g1) = (block.groups[0].id, block.groups[1].id);
            let w1 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
            let w1v = rt.ready_value(w1);
            let w2 = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| 1.0 - i as f32)).unwrap();
            let w2v = rt.ready_value(w2);
            let mut outs = Vec::new();
            for i in 0..3 {
                let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.0)]).unwrap();
                let o0 = rt.add_unit(g0, i, 0, 0, vec![x, w1v], true);
                outs.push(rt.add_unit(g1, i, 1, 0, vec![o0[0], w2v], false)[0]);
            }
            (rt, outs)
        };
        let opts = RuntimeOptions {
            plan_cache: true,
            checked: true,
            max_retries: 2,
            ..Default::default()
        };

        // Clean reference: one signed miss covering the 6-node window.
        let (mut clean, outs) = build(opts);
        clean.flush().unwrap();
        let clean_stats = *clean.stats();
        assert_eq!(clean_stats.plan_cache_misses, 1);
        assert!(clean_stats.plan_sig_us > 0.0, "a signed miss charges folding");
        let want: Vec<Tensor> = outs.iter().map(|o| clean.download(*o).unwrap()).collect();

        // Faulted run: batch 0 completes, batch 1 faults, the retry replans
        // the 3-node pending suffix through the dirty-window bypass.
        let (mut rt, outs) = build(opts);
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::parse("launch:1:kernel").unwrap());
        rt.flush().expect("transient fault retried to success");
        let s = *rt.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(
            s.plan_cache_misses, 2,
            "signed first attempt + bypassed retry both count as misses"
        );
        assert_eq!(
            s.plan_sig_us, clean_stats.plan_sig_us,
            "the bypassed retry must charge zero signing cost"
        );
        assert_eq!(
            s.plan_sig_chain, clean_stats.plan_sig_chain,
            "only the signed window folds into the determinism digest"
        );
        for (o, w) in outs.iter().zip(&want) {
            assert_eq!(rt.download(*o).unwrap().data(), w.data(), "retry is bit-for-bit");
        }
    }

    #[test]
    fn interrupts_surface_and_taint() {
        use crate::resilience::{CancelToken, Deadline};
        let (a, mut rt) = setup(PROGRAM, RuntimeOptions::default());
        let group = a.blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
        let wv = rt.ready_value(w);
        let x = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
        let args = program_args(rt.library(), group, x, wv);
        rt.add_unit(group, 0, 0, 0, args, true);
        let token = CancelToken::new();
        rt.set_cancel(token.clone());
        rt.flush().expect("un-cancelled flush proceeds");
        assert!(!rt.tainted());
        token.cancel();
        assert_eq!(rt.flush(), Err(TensorError::Cancelled));
        assert!(rt.tainted(), "cancellation quarantines the context");

        // A zero virtual budget trips deterministically on the first check;
        // the interrupt is not a device fault and is never retried.
        let (_, mut rt) = setup(PROGRAM, RuntimeOptions { max_retries: 3, ..Default::default() });
        rt.set_deadline(Deadline::virtual_us(0.0));
        assert!(matches!(rt.flush(), Err(TensorError::DeadlineExceeded { .. })));
        assert_eq!(rt.stats().retries, 0, "interrupts are never retried");
        assert!(rt.tainted());
    }

    #[test]
    fn retried_aborts_launch_each_planned_batch_once_bit_for_bit() {
        use acrobat_tensor::{DeviceMem, FaultKind, FaultPlan, FaultSite};
        let build = || {
            let options = RuntimeOptions { checked: true, max_retries: 2, ..Default::default() };
            let (a, mut rt) = setup(PROGRAM, options);
            let group = a.blocks.blocks[0].groups[0].id;
            let w = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32)).unwrap();
            let wv = rt.ready_value(w);
            let mut outs = Vec::new();
            for i in 0..4 {
                let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.5)]).unwrap();
                let args = program_args(rt.library(), group, x, wv);
                outs.push(rt.add_unit(group, i, 0, 0, args, true)[0]);
            }
            (rt, outs)
        };
        let (mut rt, outs) = build();
        rt.flush().unwrap();
        let planned_batches = rt.stats().kernel_launches;
        assert_eq!(planned_batches, 1, "4 lanes, one planned batch");
        let want: Vec<Tensor> = outs.iter().map(|o| rt.download(*o).unwrap()).collect();

        // A seeded storm whose first two launches fault and whose third
        // succeeds: the flush aborts twice in a row, then its second retry
        // runs the same 4-lane batch as one launch.
        let storm = |seed| FaultPlan::storm(FaultSite::Launch, 500_000, seed, FaultKind::Kernel);
        let trips = |seed| {
            let mut mem = DeviceMem::new(0);
            mem.arm_fault(storm(seed));
            [(); 3].map(|()| mem.trip_fault(FaultSite::Launch).is_err())
        };
        let seed = (0..).find(|&seed| trips(seed) == [true, true, false]).unwrap();
        let (mut rt, outs) = build();
        rt.mem_mut().arm_fault(storm(seed));
        rt.flush().expect("the second retry succeeds");
        let s = rt.stats();
        assert_eq!((s.aborted_flushes, s.retries, s.flushes), (2, 2, 1));
        assert_eq!(s.kernel_launches, planned_batches, "each planned batch launches once");
        for (o, w) in outs.iter().zip(&want) {
            assert_eq!(rt.download(*o).unwrap().data(), w.data(), "retry is bit-for-bit");
        }
    }

    #[test]
    fn recycled_context_carries_no_stale_pending_nodes() {
        // An *abandoned* (never-flushed, never-faulted) run is not tainted;
        // recycling it (the `reset` a pool's checkout performs) must still
        // not leak its pending DFG nodes, armed fault plan or device memory
        // into the next request.
        let (a, mut rt) = setup(PROGRAM, RuntimeOptions::default());
        let group = a.blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
        let wv = rt.ready_value(w);
        let x = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
        let args = program_args(rt.library(), group, x, wv);
        rt.add_unit(group, 0, 0, 0, args, true);
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::parse("launch:5:kernel").unwrap());
        assert!(!rt.tainted());

        rt.reset();
        assert!(rt.mem_mut().armed_fault().is_none(), "armed plan cleared");
        let mem = rt.mem_mut().stats();
        assert_eq!((mem.upload_bytes, mem.peak_elements), (0, 0), "device memory cleared");
        rt.flush().unwrap();
        assert_eq!(rt.stats().flushes, 0, "no stale pending nodes");
        assert_eq!(rt.stats().kernel_launches, 0);
    }

    #[test]
    fn lane_split_policy_follows_launch_size_and_lane_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Below the constant a launch never splits, however many lanes.
        assert_eq!(lane_parts(0, 64), 1);
        assert_eq!(lane_parts(SPLIT_MIN_FLOPS - 1, 64), 1);
        // From the constant up: one range per core, never more than lanes.
        assert_eq!(lane_parts(SPLIT_MIN_FLOPS, 64), cores.min(64));
        assert_eq!(lane_parts(u64::MAX, 3), cores.min(3));
        assert_eq!(lane_parts(SPLIT_MIN_FLOPS, 1), 1, "one lane has nothing to split");
        // The largest launches of the host-bound benchmark workloads
        // (`tree_host`, `drnn_fiber`, `birnn_serve2`; DESIGN §9) never split.
        for largest_launch in [334_000, 574_000, 552_000] {
            assert_eq!(lane_parts(largest_launch, 64), 1, "{largest_launch} FLOP");
        }
    }

    #[test]
    fn parallel_path_faults_roll_back_and_resume_bit_for_bit() {
        use acrobat_tensor::FaultPlan;
        // Two chained launches of 2·256·256 FLOPs per lane, just wide enough
        // that each is over the split constant, so its lanes execute on
        // several threads.
        const D: usize = 256;
        const LANES: usize = SPLIT_MIN_FLOPS as usize / (2 * D * D) + 1;
        let src = format!(
            "def @main($w1: Tensor[({D}, {D})], $w2: Tensor[({D}, {D})], %x: Tensor[(1, {D})]) \
             -> Tensor[(1, {D})] {{ matmul(matmul(%x, $w1), $w2) }}"
        );
        let build = || {
            let (a, mut rt) = setup(&src, RuntimeOptions { checked: true, ..Default::default() });
            let block = &a.blocks.blocks[0];
            let (g0, g1) = (block.groups[0].id, block.groups[1].id);
            let weight = |k: usize| Tensor::from_fn(&[D, D], |i| ((i * 7 + k) % 13) as f32 / 64.0);
            let w1 = rt.mem_mut().upload(&weight(1)).unwrap();
            let w1v = rt.ready_value(w1);
            let w2 = rt.mem_mut().upload(&weight(5)).unwrap();
            let w2v = rt.ready_value(w2);
            let mut outs = Vec::new();
            for i in 0..LANES {
                let x = Tensor::from_fn(&[1, D], |j| ((i + j) % 11) as f32 * 0.1 - 0.5);
                let x = rt.upload_inputs(&[&x]).unwrap();
                let o0 = rt.add_unit(g0, i, 0, 0, vec![x, w1v], true);
                outs.push(rt.add_unit(g1, i, 1, 0, vec![o0[0], w2v], false)[0]);
            }
            (rt, outs)
        };
        let (mut rt, outs) = build();
        rt.flush().unwrap();
        let clean = *rt.stats();
        assert_eq!(clean.kernel_launches, 2);
        let launch_flops = clean.flops / clean.kernel_launches;
        assert!(launch_flops >= SPLIT_MIN_FLOPS, "each launch crosses the split constant");
        let want: Vec<Tensor> = outs.iter().map(|o| rt.download(*o).unwrap()).collect();

        // Fail the second launch: the first — executed as a lane split — is
        // committed and accounted, the failing one and nothing after it is,
        // and the resumed flush completes bit for bit.
        let (mut rt, outs) = build();
        rt.mem_mut().arm_fault(FaultPlan::parse("launch:1:kernel").unwrap());
        assert!(matches!(rt.flush(), Err(TensorError::Injected { .. })));
        assert_eq!(rt.stats().aborted_flushes, 1);
        assert_eq!(rt.stats().kernel_launches, 1, "only the committed launch is accounted");
        assert_eq!(rt.stats().flops, launch_flops);
        rt.verify_consistent().unwrap();
        rt.mem_mut().clear_fault();
        rt.flush().unwrap();
        assert_eq!((rt.stats().flushes, rt.stats().kernel_launches), (1, 2));
        assert_eq!(rt.stats().flops, clean.flops);
        assert_eq!(rt.stats().kernel_time_us, clean.kernel_time_us);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (o, w) in outs.iter().zip(&want) {
            assert_eq!(bits(&rt.download(*o).unwrap()), bits(w));
        }
    }

    /// Pool reuse is `reset`: it clears the statistics, the profile and
    /// the armed fault plan of the previous request.
    #[test]
    fn pool_reuse_resets_state_and_fault_plan() {
        let (a, mut rt) = setup(PROGRAM, RuntimeOptions::default());
        let group = a.blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::ones(&[2, 2])).unwrap();
        let wv = rt.ready_value(w);
        let x = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
        let args = program_args(rt.library(), group, x, wv);
        rt.add_unit(group, 0, 0, 0, args, true);
        rt.flush().unwrap();
        rt.mem_mut().arm_fault(acrobat_tensor::FaultPlan::parse("upload:0:oom").unwrap());

        rt.reset();
        assert_eq!(rt.stats(), &RuntimeStats::default(), "stats cleared on reuse");
        assert!(rt.take_profile().is_empty(), "profile cleared on reuse");
        // The armed fault from the previous request must not fire.
        let first = rt.upload_inputs(&[&Tensor::ones(&[1, 2])]).unwrap();
        assert_eq!(rt.next_value(), ValueId(first.0 + 1), "one value registered");
    }
}
