//! Execution session: the machinery shared by both backends.
//!
//! A [`Session`] owns everything *request-invariant*: the [`Engine`], a
//! pool of idle warm state (an [`ExecutionContext`] paired with the AOT
//! executor's scratch), and the aggregate statistics/profile merged across
//! completed runs.  Each call to `Executable::run` builds a [`RunSession`]
//! — the per-run coordination state (fiber hub, poison flag) — and checks
//! one warm pair out of the pool, so concurrent mini-batches never contend
//! on a shared runtime lock.  A successful request takes three shared
//! locks: the checkout, the aggregate merge and the check-in.
//!
//! The engine changes only through `&mut` ([`Session::retune`], the PGO
//! step of §D.1): no run can be in flight then, so a run reads the engine
//! without pinning it, and the re-tune simply empties the pool.
//!
//! An [`ExecCtx`] is the per-fiber execution state holding the *inline
//! depth counter* of §4.1, the program-phase counter, the per-instance
//! pseudo-random stream (§E.1) and — for the Relay-VM baseline only — the
//! open fusion-group accumulators.
//!
//! Neither executor executes a tensor operator: each appends one DFG node
//! per fusion group, when the group's last site runs (the lazy DFG
//! construction of §2.2, at the granularity the static analysis chose).
//! What they share is the append itself, `RunSession::emit_unit`: depth
//! choice, scheduling-unit head, `ExecutionContext::add_unit_in_lane`, the
//! eager-mode flush.  How they get there is the Table 7 comparison.  The
//! AOT lowering knows at compile time which registers feed and receive
//! every group ([`crate::aot`]); the interpreter calls
//! [`RunSession::exec_op_site`] at every operator site, which looks the
//! site up, accumulates its operands and searches the bindings when the
//! group closes.
//!
//! How the context is threaded depends on the mode, via [`RtHandle`]:
//! sequential execution passes `RtHandle::Own(&mut ctx)` — direct mutable
//! access, zero lock acquisitions on the flush hot path — while fiber mode
//! (tensor-dependent control flow) shares the run's context between its
//! instance fibers behind a *per-run* mutex (`RtHandle::Shared`), which is
//! still invisible to other concurrent mini-batches.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acrobat_analysis::blocks::BlockId;
use acrobat_analysis::fusion::GroupId;
use acrobat_analysis::AnalysisResult;
use acrobat_codegen::KernelLibrary;
use acrobat_ir::ExprId;
use acrobat_runtime::{Engine, ExecutionContext, FiberHub, RuntimeStats, Unit, ValueId};
use acrobat_tensor::{DeviceTensor, TensorError};
use parking_lot::Mutex;

use crate::aot::Scratch;
use crate::value::{TensorRef, Value};

/// Errors produced during model execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum VmError {
    /// Tensor/runtime failure.
    Tensor(TensorError),
    /// The backend does not support a required feature (e.g. the Relay-VM
    /// backend and tensor-dependent control flow).
    Unsupported(String),
    /// Malformed inputs.
    Input(String),
    /// The request was cooperatively cancelled via its
    /// [`acrobat_runtime::CancelToken`].
    Cancelled,
    /// The request exceeded its deadline budget.
    DeadlineExceeded {
        /// Microseconds spent when the deadline check fired.
        spent_us: f64,
        /// The request's budget in microseconds.
        budget_us: f64,
    },
    /// The fiber hub stalled past its watchdog budget; the run was
    /// cancelled and drained instead of hanging.
    DriveTimeout(acrobat_runtime::DriveTimeout),
    /// The program's call depth exceeded the AOT executor's frame-stack
    /// budget ([`crate::aot::MAX_FRAMES`] frames, or fewer of a function
    /// wide enough to fill [`crate::aot::MAX_REG_WORDS`] first): deep or
    /// runaway recursion fails its own request instead of overflowing a
    /// native stack or exhausting memory.
    DepthExceeded {
        /// The number of live frames the fiber was not allowed to exceed.
        limit: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Tensor(e) => write!(f, "tensor error: {e}"),
            VmError::Unsupported(s) => write!(f, "unsupported: {s}"),
            VmError::Input(s) => write!(f, "bad input: {s}"),
            VmError::Cancelled => write!(f, "request cancelled"),
            VmError::DeadlineExceeded { spent_us, budget_us } => {
                write!(f, "deadline exceeded: spent {spent_us:.1}us of {budget_us:.1}us budget")
            }
            VmError::DriveTimeout(t) => write!(f, "{t}"),
            VmError::DepthExceeded { limit } => {
                write!(f, "call depth exceeded: more than {limit} live frames")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<TensorError> for VmError {
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::Cancelled => VmError::Cancelled,
            TensorError::DeadlineExceeded { spent_us, budget_us } => {
                VmError::DeadlineExceeded { spent_us, budget_us }
            }
            other => VmError::Tensor(other),
        }
    }
}

impl VmError {
    /// Whether this is a cooperative-cancellation outcome.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, VmError::Cancelled)
    }

    /// Whether this is a deadline miss.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, VmError::DeadlineExceeded { .. })
    }
}

/// Module-wide constructor tags (name → dense id) plus arities.
#[derive(Debug, Clone, Default)]
pub struct CtorTable {
    by_name: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl CtorTable {
    /// Builds the table from a module's ADTs.
    pub fn build(module: &acrobat_ir::Module) -> CtorTable {
        let mut t = CtorTable::default();
        for adt in module.adts.values() {
            for c in &adt.ctors {
                let tag = t.names.len() as u32;
                t.by_name.insert(c.name.clone(), tag);
                t.names.push(c.name.clone());
            }
        }
        t
    }

    /// Tag of a constructor name.
    ///
    /// # Panics
    ///
    /// Panics on unknown names (prevented by type checking, and for request
    /// inputs by the layout check both backends run).
    pub fn tag(&self, name: &str) -> u32 {
        self.by_name[name]
    }

    /// Name of a tag.
    pub fn name(&self, tag: u32) -> &str {
        &self.names[tag as usize]
    }
}

/// A seeded splitmix64 stream (the paper uses pre-determined seeds so
/// pseudo-random control flow is identical across frameworks, §E.1).
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// Seeds the stream for one instance by its slot position (the default
    /// key — see [`Prng::keyed`]).
    pub fn new(seed: u64, instance: usize) -> Prng {
        Prng::keyed(seed, instance as u64)
    }

    /// Seeds the stream from a stable `(seed, key)` pair.
    ///
    /// The key — by default the instance index — travels *with* the
    /// instance, not with its submission slot, so an instance's
    /// pseudo-random stream (and therefore its tensor-dependent control
    /// flow) is bit-for-bit identical no matter in which order or on which
    /// thread the mini-batch submits it.
    pub fn keyed(seed: u64, key: u64) -> Prng {
        Prng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(key.wrapping_add(1)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.  Total: the span is taken modulo 2^64
    /// (`0` stands for the full `i64` range), so no `lo`/`hi` overflows.
    pub fn next_range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
        let draw = self.next_u64();
        lo.wrapping_add(draw.checked_rem(span).unwrap_or(draw) as i64)
    }
}

/// A fusion group being accumulated for one dynamic block execution.
#[derive(Debug, Default)]
struct GroupAccum {
    /// Recorded argument references, keyed by (site, argument index).
    args: Vec<((ExprId, usize), TensorRef)>,
    /// Result reference per executed site.
    results: Vec<(ExprId, TensorRef)>,
}

/// Per-fiber execution state.
#[derive(Debug)]
pub struct ExecCtx {
    /// Mini-batch instance index (DFG lane).
    pub instance: usize,
    /// Fork-path lane key ([`acrobat_runtime::lane`]): identifies *which
    /// fiber* of the instance is appending, independent of scheduling
    /// order.  Roots at [`acrobat_runtime::lane::root`]`(instance)`;
    /// each `parallel`/`map` branch derives a child key, so the key
    /// encodes the fork path and two runs assign identical keys to the
    /// same program branch no matter how the OS interleaves fibers.
    pub lane: u64,
    /// Inline depth counter (§4.1).
    pub depth: u64,
    /// Program-phase counter (§4.1).
    pub phase: u32,
    /// Per-instance pseudo-random stream.
    pub rng: Prng,
    open: HashMap<GroupId, GroupAccum>,
    current_block: Option<BlockId>,
}

impl ExecCtx {
    /// Fresh context for an instance.  `key` seeds the instance's
    /// pseudo-random stream ([`Prng::keyed`]); callers that do not care
    /// about submission-order stability pass the instance index.
    pub fn new(instance: usize, key: u64, seed: u64, hoist_base: u64) -> ExecCtx {
        ExecCtx {
            instance,
            lane: acrobat_runtime::lane::root(instance),
            depth: hoist_base,
            phase: 0,
            rng: Prng::keyed(seed, key),
            open: HashMap::new(),
            current_block: None,
        }
    }

    /// Forks a child context for `parallel`/`map` branch `branch`: same
    /// depth origin, same instance, independent group state, and a child
    /// lane key derived from the parent's fork path (schedule-independent
    /// fiber identity for canonical window signing).
    pub fn fork(&self, branch: usize) -> ExecCtx {
        ExecCtx {
            instance: self.instance,
            lane: acrobat_runtime::lane::child(self.lane, branch),
            depth: self.depth,
            phase: self.phase,
            rng: self.rng.clone(),
            open: HashMap::new(),
            current_block: None,
        }
    }
}

/// How an executor reaches a piece of per-run state.
///
/// Sequential runs own it outright (`Own`) — method calls compile to
/// direct field access, no synchronization.  Fiber-mode runs share it among
/// the run's fibers behind a lock that belongs to *this run only*
/// (`Shared`); other concurrent mini-batches have their own and never touch
/// it.
#[derive(Debug)]
pub enum Handle<'a, T> {
    /// Exclusive access (sequential execution) — lock-free.
    Own(&'a mut T),
    /// Per-run shared access (fiber mode).
    Shared(&'a Mutex<T>),
}

/// How an executor reaches the run's [`ExecutionContext`].
pub type RtHandle<'a> = Handle<'a, ExecutionContext>;

impl<T> Handle<'_, T> {
    /// Runs `f` with mutable access (locking only in fiber mode, and only
    /// the run-local lock).
    #[inline]
    pub fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        match self {
            Handle::Own(own) => f(own),
            Handle::Shared(m) => f(&mut m.lock()),
        }
    }
}

/// Aggregate state merged across completed runs (all contexts).
#[derive(Debug, Default)]
struct Aggregate {
    stats: RuntimeStats,
    runs: u64,
    profile: BTreeMap<acrobat_codegen::KernelId, u64>,
    outcomes: ServeOutcomes,
}

/// Terminal-outcome counters for every request submitted to a session,
/// including requests rejected before they acquired an execution context
/// (malformed options count as failed).  Completed runs are the only ones
/// that contribute runtime statistics to [`Session::aggregate_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcomes {
    /// Runs that finished and merged their statistics.
    pub completed: u64,
    /// Runs that failed with a fatal (non-interrupt) error.
    pub failed: u64,
    /// Runs cancelled via their [`acrobat_runtime::CancelToken`].
    pub cancelled: u64,
    /// Runs that exceeded their deadline budget.
    pub deadline_exceeded: u64,
    /// Runs aborted by the fiber-hub stall watchdog.
    pub timed_out: u64,
}

impl ServeOutcomes {
    /// Total requests observed (every submitted request lands in exactly
    /// one counter).
    pub fn total(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.deadline_exceeded + self.timed_out
    }
}

/// Idle warm pairs kept per session; beyond this, released ones are
/// dropped.
const MAX_IDLE: usize = 8;

/// The shared execution session for one compiled model.
///
/// Immutable per request: concurrent `run` calls share it by reference and
/// synchronize only on the pool (at checkout and check-in) and the
/// aggregate merge (once per run) — never on the flush hot path.
pub struct Session {
    /// Static-analysis results (module, site info, hoisting, phases,
    /// ghosts).
    pub analysis: Arc<AnalysisResult>,
    /// The engine; replaced only through `&mut` ([`Session::retune`]).
    engine: Arc<Engine>,
    /// Idle warm state, reused across mini-batches so a steady-state
    /// request constructs neither a context nor a register stack.  Every
    /// pooled context was built against `engine`.
    idle: Mutex<Vec<(ExecutionContext, Scratch)>>,
    /// Contexts quarantined (dropped instead of pooled) so far.
    quarantined: AtomicU64,
    /// Whether fibers are active (TDC present and backend supports them).
    pub fiber_mode: bool,
    /// Constructor tags.
    pub ctors: CtorTable,
    /// Random seed for the batch.
    pub seed: u64,
    /// First dynamic depth (above all statically hoisted depths, so a
    /// dynamic consumer never shares a depth bucket with a hoisted
    /// producer).
    pub hoist_base: u64,
    hoist_index: BTreeMap<ExprId, u64>,
    /// Statistics and PGO profile merged across completed runs.
    aggregate: Mutex<Aggregate>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("fiber_mode", &self.fiber_mode)
            .field("seed", &self.seed)
            .field("hoist_base", &self.hoist_base)
            .finish()
    }
}

impl Session {
    /// Builds a session over an engine.
    pub fn new(engine: Arc<Engine>, seed: u64, fiber_mode: bool) -> Session {
        let analysis = engine.analysis().clone();
        // Static depths for hoisted sites: their order of appearance.
        let mut hoist_index = BTreeMap::new();
        for (i, site) in analysis.hoisted.iter().enumerate() {
            hoist_index.insert(*site, i as u64);
        }
        let hoist_base = hoist_index.len() as u64;
        let ctors = CtorTable::build(&analysis.module);
        Session {
            analysis,
            engine,
            idle: Mutex::default(),
            quarantined: AtomicU64::new(0),
            fiber_mode,
            ctors,
            seed,
            hoist_base,
            hoist_index,
            aggregate: Mutex::new(Aggregate::default()),
        }
    }

    /// The engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Re-tunes the kernel library (PGO re-scheduling, §D.1): installs
    /// [`Engine::retuned`]'s engine and empties the pool, whose contexts
    /// were all built against the old one.  `&mut` makes this a step
    /// between runs, never during one; the aggregate and the outcome and
    /// quarantine counters carry over.
    pub fn retune(&mut self, retune: impl FnOnce(&mut KernelLibrary)) {
        self.engine = Arc::new(self.engine.retuned(retune));
        self.idle.get_mut().clear();
    }

    /// Statistics merged across every completed run (all contexts, serial
    /// or concurrent).
    pub fn aggregate_stats(&self) -> RuntimeStats {
        self.aggregate.lock().stats
    }

    /// Number of completed runs merged into [`Session::aggregate_stats`].
    pub fn runs_completed(&self) -> u64 {
        self.aggregate.lock().runs
    }

    /// Drains the PGO profile aggregated across completed runs.
    pub fn take_profile(&self) -> BTreeMap<acrobat_codegen::KernelId, u64> {
        std::mem::take(&mut self.aggregate.lock().profile)
    }

    /// Terminal-outcome counters across every request submitted so far.
    pub fn outcomes(&self) -> ServeOutcomes {
        self.aggregate.lock().outcomes
    }

    /// Contexts quarantined (dropped instead of recycled) because a run
    /// observed a fault, cancellation, or deadline miss.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Warm pairs currently pooled.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().len()
    }

    /// Buckets a failed request into its terminal-outcome counter (a
    /// completed one is counted by [`RunSession::finish`]).
    pub fn record_failure(&self, error: &VmError) {
        let o = &mut self.aggregate.lock().outcomes;
        match error {
            VmError::Cancelled => o.cancelled += 1,
            VmError::DeadlineExceeded { .. } => o.deadline_exceeded += 1,
            VmError::DriveTimeout(_) => o.timed_out += 1,
            _ => o.failed += 1,
        }
    }

    /// Checks a warm pair out of the pool, its context reset and its
    /// scratch emptied, or builds a fresh one.
    pub(crate) fn checkout(&self) -> (ExecutionContext, Scratch) {
        let popped = self.idle.lock().pop();
        match popped {
            Some((mut ctx, mut scratch)) => {
                ctx.reset();
                scratch.arena.clear();
                scratch.main_args.clear();
                (ctx, scratch)
            }
            None => (self.engine.new_context(), Scratch::default()),
        }
    }

    /// Returns a pair after a run: a tainted context is quarantined, an
    /// oversized scratch is replaced, and beyond [`MAX_IDLE`] the pair is
    /// dropped.  Whatever is dropped — a context joins its lane-split
    /// helper threads — is dropped outside the pool lock.
    fn check_in(&self, ctx: ExecutionContext, scratch: Scratch) {
        if ctx.tainted() {
            self.quarantine(ctx);
            return;
        }
        let scratch = if scratch.oversized() { Scratch::default() } else { scratch };
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE {
            idle.push((ctx, scratch));
            return;
        }
        drop(idle);
    }

    /// Drops a context that must not serve another request, and counts it:
    /// a tainted one at check-in, and a failed run's, whose statistics are
    /// never merged.
    pub(crate) fn quarantine(&self, ctx: ExecutionContext) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        drop(ctx);
    }

    /// Applies a ghost-operator padding after a conditional branch (§B.3).
    pub fn apply_ghosts(&self, ctx: &mut ExecCtx, branch: ExprId) {
        if let Some(&bumps) = self.analysis.ghosts.get(&branch) {
            ctx.depth += bumps as u64;
        }
    }

    /// Crosses a program-phase boundary: later work schedules strictly after
    /// all earlier phases (§4.1); the depth counter restarts.
    pub fn bump_phase(&self, ctx: &mut ExecCtx) {
        ctx.phase += 1;
        ctx.depth = self.hoist_base;
    }

    /// The static depth of a fusion group made of `sites` (in execution
    /// order): groups whose sites are all hoisted run at the first one's
    /// hoist index (§B.1); `None` for everything else, which takes the
    /// inline depth counter.
    pub fn static_depth(&self, mut sites: impl Iterator<Item = ExprId>) -> Option<u64> {
        let depth = *self.hoist_index.get(&sites.next()?)?;
        sites.all(|s| self.hoist_index.contains_key(&s)).then_some(depth)
    }

    /// Whether a `let` site is a phase boundary.
    pub fn is_phase_boundary(&self, let_site: ExprId) -> bool {
        self.analysis.phase_boundaries.contains(&let_site)
    }
}

/// Per-run coordination state: one mini-batch's fiber hub and poison
/// flag.  Dereferences to the shared [`Session`].
#[derive(Debug)]
pub struct RunSession<'s> {
    session: &'s Session,
    /// Fiber coordination for this run (used when the model has
    /// tensor-dependent control flow).
    pub hub: FiberHub,
    /// A flush failure (e.g. device OOM, cancellation, deadline miss) that
    /// fibers must observe instead of waiting forever.
    poison: Mutex<Option<TensorError>>,
}

impl Deref for RunSession<'_> {
    type Target = Session;

    fn deref(&self) -> &Session {
        self.session
    }
}

impl<'s> RunSession<'s> {
    /// Starts a run.
    pub fn new(session: &'s Session) -> RunSession<'s> {
        RunSession { session, hub: FiberHub::new(), poison: Mutex::new(None) }
    }

    /// Merges this completed run into the session aggregate — one ledger
    /// run and one completed outcome per entry of `member_stats`, the
    /// requests that shared it — under one lock, then checks the warm pair
    /// back in.
    pub(crate) fn finish(
        &self,
        mut ctx: ExecutionContext,
        scratch: Scratch,
        member_stats: &[RuntimeStats],
    ) {
        let profile = ctx.take_profile();
        {
            let mut agg = self.session.aggregate.lock();
            for stats in member_stats {
                agg.stats.merge(stats);
            }
            agg.runs += member_stats.len() as u64;
            agg.outcomes.completed += member_stats.len() as u64;
            for (k, v) in profile {
                *agg.profile.entry(k).or_default() += v;
            }
        }
        self.session.check_in(ctx, scratch);
    }

    /// Records a flush failure; fibers observe it at their next sync.  The
    /// first failure wins — later ones (typically cascades from draining)
    /// are dropped.
    pub fn poison(&self, e: TensorError) {
        let mut p = self.poison.lock();
        if p.is_none() {
            *p = Some(e);
        }
    }

    /// The recorded failure, if any.
    pub fn poisoned(&self) -> Option<TensorError> {
        self.poison.lock().clone()
    }

    /// Executes (records) one tensor-operator call site — the Relay-VM
    /// baseline's path, deliberately dynamic: every call looks the site up,
    /// accumulates its operands into the open group and, on the group's
    /// last site, searches the bindings.  The AOT lowering resolves all of
    /// that at compile time ([`crate::aot`]) and shares only
    /// [`RunSession::emit_unit`].
    ///
    /// `args` are the evaluated operand values.  Returns the site's (lazy)
    /// tensor result.
    pub fn exec_op_site(
        &self,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        site: ExprId,
        args: &[Value],
    ) -> Value {
        let info = self.analysis.site_info[&site];
        let accum = ctx.open.entry(info.group).or_default();
        for (i, a) in args.iter().enumerate() {
            accum.args.push(((site, i), a.as_tensor().clone()));
        }
        let result = TensorRef::pending();
        accum.results.push((site, result.clone()));
        if info.closes_group {
            self.close_group(rt, ctx, info.group, info.block, info.closes_block);
        }
        Value::Tensor(result)
    }

    fn close_group(
        &self,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        group: GroupId,
        block: BlockId,
        closes_block: bool,
    ) {
        let accum = ctx.open.remove(&group).expect("open group");
        // Bindings are per group (several groups may share one deduplicated
        // kernel program); they are immutable engine state, read without
        // touching the execution context.
        let library = self.engine().library();
        let bindings = library.bindings_for_group(group);
        let output_sites = library.outputs_for_group(group);
        let mut arg_ids = Vec::with_capacity(bindings.len());
        for binding in bindings {
            let r = accum
                .args
                .iter()
                .find(|(k, _)| k == binding)
                .map(|(_, r)| r)
                .unwrap_or_else(|| panic!("missing kernel input binding {binding:?}"));
            let vid = r.get().unwrap_or_else(|| {
                panic!("fusion invariant violated: input {binding:?} not materialized")
            });
            arg_ids.push(vid);
        }
        let static_depth = self.session.static_depth(accum.results.iter().map(|(s, _)| *s));
        let unit = self.engine().unit(group);
        let first = self.emit_unit(rt, ctx, unit, static_depth, block, closes_block, &arg_ids);

        // Fill the escaping results.
        for (slot, site) in output_sites.iter().enumerate() {
            let (_, r) =
                accum.results.iter().find(|(s, _)| s == site).expect("output site recorded");
            r.set(ValueId(first.0 + slot as u64));
        }
    }

    /// Appends the DFG node of a fusion group whose last site just ran —
    /// the one step both executors share.  Returns the node's first output
    /// value (output slot `k` is `ValueId(first.0 + k)`).
    ///
    /// Depth: a statically hoisted group uses its static depth and does not
    /// advance the dynamic counter (§B.1); everything else takes the inline
    /// counter and bumps it.  The node heads a scheduling unit unless the
    /// previous node of this fiber left the same static block open (§B.2).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_unit(
        &self,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        unit: &Unit,
        static_depth: Option<u64>,
        block: BlockId,
        closes_block: bool,
        args: &[ValueId],
    ) -> ValueId {
        let depth = static_depth.unwrap_or_else(|| {
            ctx.depth += 1;
            ctx.depth - 1
        });
        let unit_head = ctx.current_block != Some(block);
        ctx.current_block = if closes_block { None } else { Some(block) };
        rt.with(|rt| {
            let first = rt.add_unit_in_lane(
                unit,
                ctx.instance,
                ctx.lane,
                depth,
                ctx.phase,
                args,
                unit_head,
            );
            if rt.options().eager && self.poisoned().is_none() {
                // PyTorch-style eager execution: every operator runs
                // immediately as its own launch — no auto-batching (§E.3
                // baseline).  A failed launch poisons the run, which stops
                // flushing eagerly and fails at its next sync or its drain.
                if let Err(e) = rt.flush() {
                    self.poison(e);
                }
            }
            first
        })
    }

    /// Forces a tensor value: blocks (fiber mode) or flushes (sequential)
    /// until it is materialized.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn force(&self, rt: &mut RtHandle<'_>, v: ValueId) -> Result<DeviceTensor, VmError> {
        loop {
            if let Some(e) = self.poisoned() {
                return Err(e.into());
            }
            let ready = rt.with(|rt| -> Result<Option<DeviceTensor>, VmError> {
                if let Some(t) = rt.tensor(v) {
                    return Ok(Some(t.clone()));
                }
                if !self.fiber_mode {
                    rt.flush()?;
                }
                Ok(None)
            })?;
            match ready {
                Some(t) => return Ok(t),
                // Sequential: the flush above materialized it.
                None if !self.fiber_mode => {}
                // Fiber mode: suspend until the driver flushes.
                None => self.hub.wait_for_flush(),
            }
        }
    }

    /// Reads the single element of a forced tensor (`item`).
    ///
    /// # Errors
    ///
    /// Propagates flush/read errors.
    pub fn item(&self, rt: &mut RtHandle<'_>, v: ValueId) -> Result<f64, VmError> {
        let t = self.force(rt, v)?;
        let v = rt.with(|rt| -> Result<f64, VmError> { Ok(rt.mem_mut().read(&t)?[0] as f64) })?;
        Ok(v)
    }

    /// `sample(%t)`: forces the tensor, then draws from the instance's
    /// pseudo-random stream (§E.1).
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn sample(
        &self,
        rt: &mut RtHandle<'_>,
        ctx: &mut ExecCtx,
        v: ValueId,
    ) -> Result<f64, VmError> {
        let _ = self.force(rt, v)?;
        Ok(ctx.rng.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
    use acrobat_ir::{parse_module, typeck};
    use acrobat_runtime::{DeviceModel, RuntimeOptions};
    use acrobat_tensor::{FaultPlan, Tensor};

    use super::*;

    const PROGRAM: &str = "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        relu(matmul(%x, $w))
    }";

    fn session() -> Session {
        let m = typeck::check_module(parse_module(PROGRAM).unwrap()).unwrap();
        let a = Arc::new(analyze(m, AnalysisOptions::default()).unwrap());
        let lib = KernelLibrary::build(&a);
        let engine = Engine::new(a, lib, DeviceModel::default(), RuntimeOptions::default());
        Session::new(Arc::new(engine), 7, false)
    }

    /// Appends `n` units of `PROGRAM`'s one group, `x` in each batched
    /// slot and an uploaded `w` in each shared one, and returns their
    /// outputs.
    fn add_units(rt: &mut ExecutionContext, n: usize) -> Result<Vec<ValueId>, TensorError> {
        let group = rt.engine().analysis().blocks.blocks[0].groups[0].id;
        let w = rt.mem_mut().upload(&Tensor::from_fn(&[2, 2], |i| i as f32))?;
        let w = rt.ready_value(w);
        let mut outs = Vec::new();
        for i in 0..n {
            let x = rt.upload_inputs(&[&Tensor::fill(&[1, 2], i as f32 - 1.5)])?[0];
            let inputs = rt.library().kernel_for_group(group).inputs.iter();
            let args: Vec<_> =
                inputs.map(|inp| if inp.class == ArgClass::Shared { w } else { x }).collect();
            outs.push(rt.add_unit(group, i, 0, 0, args, true)[0]);
        }
        Ok(outs)
    }

    fn run_units(rt: &mut ExecutionContext) -> Result<Vec<Tensor>, TensorError> {
        let outs = add_units(rt, 4)?;
        rt.flush()?;
        outs.iter().map(|o| rt.download(*o)).collect()
    }

    #[test]
    fn pool_quarantines_context_after_aborted_flush() {
        let session = session();
        let (mut clean, scratch) = session.checkout();
        let reference = run_units(&mut clean).unwrap();
        session.check_in(clean, scratch);
        assert_eq!(session.idle_count(), 1, "clean context is recycled");
        assert_eq!(session.quarantined_count(), 0);

        // Abort the recycled context's flush (no retry configured, so the
        // injected fault surfaces) and audit what the pool does with it.
        let (mut faulty, scratch) = session.checkout();
        assert_eq!(session.idle_count(), 0, "checkout reused the idle context");
        assert_eq!(faulty.stats(), &RuntimeStats::default(), "and reset it");
        faulty.mem_mut().arm_fault(FaultPlan::parse("launch:0:kernel").unwrap());
        let err = run_units(&mut faulty).unwrap_err();
        assert!(matches!(err, TensorError::Injected { .. }), "wrong error: {err}");
        assert!(faulty.tainted(), "aborted flush must taint the context");
        assert_eq!(faulty.stats().aborted_flushes, 1);
        session.check_in(faulty, scratch);
        assert_eq!(session.idle_count(), 0, "tainted context must not be recycled");
        assert_eq!(session.quarantined_count(), 1);

        // The next checkout constructs a fresh context — no armed fault, no
        // stale DFG or stats — and reproduces the reference bit-for-bit.
        let (mut fresh, scratch) = session.checkout();
        assert!(fresh.mem_mut().armed_fault().is_none(), "fault plan leaked through the pool");
        assert!(!fresh.tainted());
        assert_eq!(fresh.stats().nodes, 0);
        let again = run_units(&mut fresh).unwrap();
        for (r, g) in reference.iter().zip(&again) {
            assert_eq!(r.data(), g.data(), "post-quarantine run diverged");
        }
        session.check_in(fresh, scratch);
        assert_eq!(session.idle_count(), 1);
        assert_eq!(session.quarantined_count(), 1);
    }

    #[test]
    fn pool_quarantines_tainted_contexts() {
        // A context that aborted a flush holds stale pending DFG nodes,
        // partial device memory and an armed fault plan — the pool must
        // drop it, never recycle it.
        let session = session();
        let (mut rt, scratch) = session.checkout();
        add_units(&mut rt, 1).unwrap();
        rt.mem_mut().arm_fault(FaultPlan::parse("launch:0:kernel").unwrap());
        assert!(rt.flush().is_err());
        assert!(rt.tainted());
        assert!(rt.mem_mut().armed_fault().is_some(), "fault plan still armed at release");
        session.check_in(rt, scratch);
        assert_eq!(session.idle_count(), 0, "tainted context dropped");
        assert_eq!(session.quarantined_count(), 1);

        // The replacement context the pool hands out is pristine.
        let (mut fresh, scratch) = session.checkout();
        assert!(fresh.mem_mut().armed_fault().is_none());
        assert_eq!(fresh.stats(), &RuntimeStats::default());
        assert!(!fresh.tainted());
        fresh.flush().unwrap();
        assert_eq!(fresh.stats().flushes, 0, "no stale pending nodes to execute");
        session.check_in(fresh, scratch);
        assert_eq!(session.idle_count(), 1, "clean contexts still pool");

        // A failed run's context is quarantined even when nothing tainted
        // it: the driver abandons it.
        let (abandoned, _) = session.checkout();
        session.quarantine(abandoned);
        assert_eq!(session.idle_count(), 0);
        assert_eq!(session.quarantined_count(), 2);
    }

    /// At most [`MAX_IDLE`] pairs stay pooled, and a scratch grown past the
    /// pooled cap comes back as a fresh one.
    #[test]
    fn pool_caps_idle_pairs_and_scratch_words() {
        let session = session();
        let mut pairs: Vec<_> = (0..MAX_IDLE + 2).map(|_| session.checkout()).collect();
        pairs[0].1.arena.resize(1 << 17, 0);
        assert!(pairs[0].1.oversized());
        pairs.into_iter().for_each(|(ctx, scratch)| session.check_in(ctx, scratch));
        assert_eq!(session.idle_count(), MAX_IDLE);
        let pooled: Vec<_> = (0..MAX_IDLE).map(|_| session.checkout()).collect();
        assert!(pooled.iter().all(|(_, s)| !s.oversized()), "the oversized scratch was not pooled");
        assert_eq!(session.quarantined_count(), 0);
    }

    /// A re-tune replaces the engine and empties the pool: no context
    /// built against the old engine serves another request, and the
    /// counters carry over.
    #[test]
    fn retune_empties_the_pool() {
        let mut session = session();
        let (ctx, scratch) = session.checkout();
        RunSession::new(&session).finish(ctx, scratch, &[RuntimeStats::default()]);
        assert_eq!(session.idle_count(), 1);
        let old = Arc::clone(session.engine());

        session.retune(|_| {});
        assert!(!Arc::ptr_eq(session.engine(), &old), "a new engine");
        assert_eq!(session.idle_count(), 0, "no pooled context predates the re-tune");
        let (ctx, _) = session.checkout();
        assert!(Arc::ptr_eq(ctx.engine(), session.engine()));
        assert_eq!((session.runs_completed(), session.outcomes().completed), (1, 1));
    }

    #[test]
    fn prng_deterministic_and_distinct_per_instance() {
        let mut a = Prng::new(42, 0);
        let mut b = Prng::new(42, 0);
        let mut c = Prng::new(42, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
        for _ in 0..100 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            let r = a.next_range(20, 40);
            assert!((20..=40).contains(&r));
        }
    }

    #[test]
    fn prng_stream_follows_key_not_slot() {
        // The keyed constructor is the position-independent generalization
        // of `new`: key == instance index reproduces the legacy streams.
        let mut by_slot = Prng::new(7, 3);
        let mut by_key = Prng::keyed(7, 3);
        for _ in 0..16 {
            assert_eq!(by_slot.next_u64(), by_key.next_u64());
        }
        // Distinct keys give distinct streams regardless of slot.
        assert_ne!(Prng::keyed(7, 0).next_u64(), Prng::keyed(7, 1).next_u64());
    }

    #[test]
    fn ctor_table_tags() {
        let m = acrobat_ir::parse_module(
            "type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }
             def @main(%x: Int) -> Int { %x }",
        )
        .unwrap();
        let t = CtorTable::build(&m);
        assert_ne!(t.tag("Nil"), t.tag("Cons"));
        assert_eq!(t.name(t.tag("Leaf")), "Leaf");
        assert_eq!(t.name(t.tag("Node")), "Node");
    }
}
