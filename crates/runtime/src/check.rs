//! Checked mode: flush-invariant validation and a deterministic explorer
//! for the [`crate::FiberHub`] fiber/flush protocol.
//!
//! Auto-batching is only sound if it is *semantically invisible* — batched
//! execution must be bit-for-bit equivalent to unbatched eager execution.
//! PR 1 rebuilt the flush hot path around incremental indices and
//! allocation-free planning, so the equivalence now rests on invariants
//! that are easy to break silently.  This module enforces them at runtime
//! when [`crate::RuntimeOptions::checked`] is set:
//!
//! * every plan is an exact partition of the pending set,
//! * batches respect topological dependences and agree on
//!   `(kernel, shared_sig)`,
//! * the bucket/pending/`pending_pos` indices stay mutually consistent
//!   ([`crate::Dfg::verify_consistent`]),
//! * values transition Pending→Ready exactly once,
//! * [`crate::scheduler::Plan::decisions`] and the batch partition itself
//!   match the reference schedulers in [`crate::scheduler::reference`].
//!
//! All checks are panics: an invariant violation is a bug in the runtime,
//! never a recoverable condition.  With `checked` off (the default) none of
//! this code runs — the hot path pays one branch per flush.
//!
//! The [`hubsim`] submodule is the protocol explorer: a single-threaded
//! model of [`crate::FiberHub`] driven by seeded interleavings, standing in
//! for `loom` (dependencies are fixed).  It detects flushes overlapping
//! runnable fibers, lost wakeups, counter underflows and non-termination,
//! asserts switch-count confluence, and bounds flush counts to a
//! schedule-independence envelope (exact for fork-free traces).

use crate::dfg::{Dfg, NodeId};
use crate::scheduler::{self, Plan, SchedulerKind};

/// Validates one flush of the runtime end to end.
///
/// Created by [`FlushChecker::validate_plan`] before the first batch
/// launches; fed every completed batch via [`FlushChecker::after_batch`];
/// closed out by [`FlushChecker::finish`] when the flush completes.
#[derive(Debug)]
pub struct FlushChecker {
    /// Planned nodes not yet observed complete.
    remaining: usize,
}

impl FlushChecker {
    /// Checks a freshly produced plan against the pending set, the
    /// dependence structure, the batching compatibility rule and the
    /// reference schedulers.
    ///
    /// # Panics
    ///
    /// Panics on any invariant violation (a runtime bug).
    pub fn validate_plan(dfg: &Dfg, plan: &Plan, kind: SchedulerKind) -> FlushChecker {
        // The plan must partition the pending set exactly: every pending
        // node once, nothing else.
        let mut planned: Vec<NodeId> = plan.batches().flatten().copied().collect();
        planned.sort_unstable();
        assert!(
            planned.windows(2).all(|w| w[0] < w[1]),
            "checked mode: plan schedules a node more than once"
        );
        let mut pending = dfg.pending().to_vec();
        pending.sort_unstable();
        assert_eq!(
            planned, pending,
            "checked mode: plan is not an exact partition of the pending set"
        );

        // Per batch: one (kernel, shared_sig) class, outputs still pending,
        // and every pending-produced argument launched in an earlier batch.
        let mut done: std::collections::HashSet<NodeId> =
            std::collections::HashSet::with_capacity(planned.len());
        for batch in plan.batches() {
            let head = dfg.node(batch[0]);
            for &id in batch {
                let n = dfg.node(id);
                assert_eq!(
                    (n.kernel, n.shared_sig),
                    (head.kernel, head.shared_sig),
                    "checked mode: batch mixes (kernel, shared_sig) classes"
                );
                assert!(!n.executed, "checked mode: plan schedules an executed node");
                for v in n.outputs() {
                    assert!(
                        dfg.tensor(v).is_none(),
                        "checked mode: planned node {id:?} already has a Ready output"
                    );
                }
                for a in dfg.args(id) {
                    if let Some(p) = dfg.producer(*a) {
                        assert!(
                            done.contains(&p),
                            "checked mode: {id:?} launches before its dependency {p:?}"
                        );
                    }
                }
            }
            done.extend(batch.iter().copied());
        }

        // The accounting contract: the optimized scheduler must produce the
        // reference partition and charge the reference decision count.
        let reference = scheduler::reference::plan(kind, dfg);
        assert_eq!(
            plan.to_batches(),
            reference.to_batches(),
            "checked mode: {kind:?} diverges from the reference partition"
        );
        assert_eq!(
            plan.decisions, reference.decisions,
            "checked mode: {kind:?} decision count diverges from the reference"
        );

        if let Err(e) = dfg.verify_consistent() {
            panic!("checked mode: DFG inconsistent before flush: {e}");
        }
        FlushChecker { remaining: planned.len() }
    }

    /// Checks the post-conditions of one completed batch: every node
    /// executed, off the pending set, with all outputs materialized (the
    /// Pending→Ready transition happened, and `complete_batch` enforces it
    /// happens at most once).
    ///
    /// # Panics
    ///
    /// Panics on any invariant violation.
    pub fn after_batch(&mut self, dfg: &Dfg, batch: &[NodeId]) {
        for &id in batch {
            let n = dfg.node(id);
            assert!(n.executed, "checked mode: completed node {id:?} not marked executed");
            assert!(!dfg.is_pending(id), "checked mode: completed node {id:?} still pending");
            for v in n.outputs() {
                assert!(
                    dfg.tensor(v).is_some(),
                    "checked mode: completed node {id:?} output {v:?} not materialized"
                );
            }
        }
        self.remaining -= batch.len();
    }

    /// Closes out a successful flush: the whole plan ran, nothing is left
    /// pending, and the DFG indices are consistent.
    ///
    /// # Panics
    ///
    /// Panics on any invariant violation.
    pub fn finish(self, dfg: &Dfg) {
        assert_eq!(self.remaining, 0, "checked mode: flush completed only part of its plan");
        assert!(!dfg.has_pending(), "checked mode: pending nodes survived a full flush");
        if let Err(e) = dfg.verify_consistent() {
            panic!("checked mode: DFG inconsistent after flush: {e}");
        }
    }
}

/// Checked-mode gate for plan-cache hits ([`crate::plan_cache`]): re-runs
/// the optimized scheduler from scratch on the live pending window and
/// asserts the cached, remapped plan is bit-for-bit identical — batch
/// partition, launch order, flat-CSR layout, decision count — and that
/// every batch's binding layout (kernel, shared-operand signature) is
/// homogeneous on the *current* DFG, not just the one the plan was frozen
/// from.  The differential fuzzer runs the whole config matrix in checked
/// mode, so every hit it produces passes through here.
///
/// # Panics
///
/// Panics if the cached plan diverges from a fresh schedule in any way (a
/// signature collision or a remap bug — both runtime bugs).
pub fn validate_cached_plan(dfg: &Dfg, cached: &Plan, kind: SchedulerKind) {
    let mut scratch = scheduler::SchedulerScratch::new();
    let mut fresh = Plan::default();
    scheduler::plan_into(kind, dfg, &mut scratch, &mut fresh);
    assert_eq!(
        cached.decisions, fresh.decisions,
        "checked mode: cached plan's decision count diverges from a fresh schedule"
    );
    assert!(
        *cached == fresh,
        "checked mode: cached plan is not bit-identical to a fresh schedule \
         (cached {:?} vs fresh {:?})",
        cached.to_batches(),
        fresh.to_batches()
    );
    for batch in cached.batches() {
        let head = dfg.node(batch[0]);
        for &id in batch {
            let n = dfg.node(id);
            assert_eq!(
                (n.kernel, n.shared_sig),
                (head.kernel, head.shared_sig),
                "checked mode: cached batch binding layout is not homogeneous on the live DFG"
            );
        }
    }
}

pub mod hubsim {
    //! Deterministic single-threaded explorer for the fiber/flush protocol.
    //!
    //! [`crate::FiberHub`] coordinates OS threads with a mutex, a condvar
    //! and five counters; its bugs are interleaving bugs.  This simulator
    //! replays the protocol's lock-section-granularity transitions —
    //! either over seeded random schedules ([`run`] / [`explore`]) or over
    //! the **entire reachable state space** ([`exhaustive`], loom-style) —
    //! and checks the safety and liveness properties directly:
    //!
    //! * **no flush overlaps a runnable fiber** — the driver releases the
    //!   hub lock around its flush callback, so this is exactly the window
    //!   the [`FiberOp::Fork`] resume race (fixed in this PR) raced into;
    //! * **no lost wakeups / deadlock** — if no actor can step and not
    //!   everyone finished, the schedule found a stuck state;
    //! * **no counter underflow**;
    //! * **termination** within a step budget;
    //! * **schedule independence** — the switch count equals the number of
    //!   sync points in the trace, on every interleaving; [`explore`]
    //!   asserts this confluence.  Flush counts are schedule-independent
    //!   too, fork-join traces included: the join-handoff protocol
    //!   ([`crate::FiberHub::finish_child`] hands the parent a `joinable`
    //!   baton under the hub lock, and the driver holds flushes while one
    //!   is outstanding) closed the historical benign race where the driver
    //!   could flush in the gap between "children finished" and "parent
    //!   re-registered", splitting one window into two on some schedules.
    //!   [`explore`] still reports the observed
    //!   `[flushes_min, flushes_max]` envelope and [`exhaustive`] the tight
    //!   one over all schedules — under the current protocol tests assert
    //!   they are *exact* (`min == max`) on every trace, which is what
    //!   makes fiber-mode DFG window boundaries (and therefore plan-cache
    //!   signature streams) deterministic run to run.
    //!
    //! `legacy = true` replays the pre-fix protocol (resume not gated on an
    //! in-progress flush; driver returns while fork-join parents are still
    //! suspended; no join handoff) and exists so regression tests can prove
    //! the explorer actually finds those bugs.

    /// One action in a fiber's script.
    #[derive(Debug, Clone)]
    pub enum FiberOp {
        /// Suspend at a sync point until the next flush
        /// (`FiberHub::wait_for_flush`).
        Wait,
        /// Fork one child fiber per script (`FiberHub::fork`), then park
        /// joining them (`FiberHub::join_while`).
        Fork(Vec<Vec<FiberOp>>),
    }

    /// Protocol outcome of one (or many agreeing) simulated schedules.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SimStats {
        /// Flushes the driver performed.
        pub flushes: u64,
        /// Fiber suspensions at sync points.
        pub switches: u64,
        /// Interleaving steps executed (schedule-dependent; informational).
        pub steps: u64,
    }

    /// splitmix64 — the workspace's standard seeded PRNG recurrence.
    #[derive(Debug)]
    struct Prng(u64);

    impl Prng {
        fn new(seed: u64) -> Prng {
            Prng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn next_below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Micro-state of one simulated fiber, at lock-section granularity.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum FiberState {
        /// Pre-instantiated but not yet activated by its parent's fork.
        NotStarted,
        /// About to execute its next op (or finish when the script is done).
        Ready,
        /// Children registered and spawned; about to take the suspend lock
        /// section (`runnable -= 1; suspended += 1`).
        PreSuspend,
        /// Parked inside `join_while`'s join; resumes when all children
        /// finished (and, in the fixed protocol, no flush is in progress).
        /// In the fixed protocol a parent whose children all finished is
        /// *joinable*: the driver refuses to start a flush until it has
        /// resumed (the join handoff).
        Suspended,
        /// Parked at a sync point taken at generation `gen`.
        Waiting {
            gen: u64,
        },
        Finished,
    }

    /// A script op with fork targets resolved to fiber ids.  All fibers —
    /// including not-yet-forked children — are instantiated up front, so
    /// fiber ids are schedule-independent and simulator states from
    /// different interleavings can be compared (the basis of
    /// [`exhaustive`]'s memoization).
    #[derive(Debug, Clone)]
    enum SimOp {
        Wait,
        Fork(Vec<usize>),
    }

    #[derive(Debug, Clone)]
    struct SimFiber {
        ops: Vec<SimOp>,
        ip: usize,
        state: FiberState,
        parent: Option<usize>,
        /// Unfinished children (the suspend-join barrier).
        unjoined: usize,
    }

    /// The hub counters, signed so underflows are detected, not wrapped.
    #[derive(Debug, Clone, Default)]
    struct Hub {
        runnable: i64,
        waiting: i64,
        resuming: i64,
        suspended: i64,
        /// Set while the driver is inside its flush callback (tracked in
        /// both protocols purely to detect overlap violations).
        flushing: bool,
        generation: u64,
        flushes: u64,
        switches: u64,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Driver {
        Idle,
        MidFlush,
        Done,
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Fiber(usize),
        Driver,
    }

    /// One simulator configuration: every fiber's micro-state plus the hub
    /// and the driver.
    #[derive(Debug, Clone)]
    struct Sim {
        fibers: Vec<SimFiber>,
        hub: Hub,
        driver: Driver,
    }

    fn instantiate(fibers: &mut Vec<SimFiber>, script: &[FiberOp], parent: Option<usize>) {
        let id = fibers.len();
        let state = if parent.is_none() { FiberState::Ready } else { FiberState::NotStarted };
        fibers.push(SimFiber { ops: Vec::new(), ip: 0, state, parent, unjoined: 0 });
        let ops = script
            .iter()
            .map(|op| match op {
                FiberOp::Wait => SimOp::Wait,
                FiberOp::Fork(children) => SimOp::Fork(
                    children
                        .iter()
                        .map(|c| {
                            let child = fibers.len();
                            instantiate(fibers, c, Some(id));
                            child
                        })
                        .collect(),
                ),
            })
            .collect();
        fibers[id].ops = ops;
    }

    impl Sim {
        fn new(scripts: &[Vec<FiberOp>]) -> Sim {
            let mut fibers = Vec::new();
            for s in scripts {
                instantiate(&mut fibers, s, None);
            }
            let hub = Hub { runnable: scripts.len() as i64, ..Default::default() };
            Sim { fibers, hub, driver: Driver::Idle }
        }

        fn enabled(&self, legacy: bool, out: &mut Vec<Step>) {
            out.clear();
            for (i, f) in self.fibers.iter().enumerate() {
                let can = match f.state {
                    FiberState::NotStarted | FiberState::Finished => false,
                    FiberState::Ready | FiberState::PreSuspend => true,
                    FiberState::Suspended => f.unjoined == 0 && (legacy || !self.hub.flushing),
                    FiberState::Waiting { gen } => self.hub.generation != gen,
                };
                if can {
                    out.push(Step::Fiber(i));
                }
            }
            match self.driver {
                Driver::Idle => {
                    let quiesced = self.hub.runnable == 0 && self.hub.resuming == 0;
                    // The fixed driver keeps waiting while fork-join parents
                    // are suspended with nobody at a sync point: they will
                    // resume and may need flushes.  The legacy driver
                    // returned early in that state (the lost-wakeup bug).
                    // It also holds the flush while any *joinable* parent
                    // (children all finished, resume imminent) exists — the
                    // join-handoff protocol: flushing in that gap would make
                    // the flush boundary a race against the parent's wakeup,
                    // i.e. a schedule-dependent DFG window.
                    let joinable = self
                        .fibers
                        .iter()
                        .any(|f| f.state == FiberState::Suspended && f.unjoined == 0);
                    let hold =
                        !legacy && ((self.hub.waiting == 0 && self.hub.suspended > 0) || joinable);
                    if quiesced && !hold {
                        out.push(Step::Driver);
                    }
                }
                Driver::MidFlush => out.push(Step::Driver),
                Driver::Done => {}
            }
        }

        fn apply(&mut self, step: Step) {
            match step {
                Step::Driver => match self.driver {
                    Driver::Idle => {
                        if self.hub.waiting == 0 {
                            self.driver = Driver::Done;
                        } else {
                            self.hub.flushing = true;
                            self.driver = Driver::MidFlush;
                        }
                    }
                    Driver::MidFlush => {
                        self.hub.flushes += 1;
                        self.hub.flushing = false;
                        self.hub.resuming = self.hub.waiting;
                        self.hub.generation += 1;
                        self.driver = Driver::Idle;
                    }
                    Driver::Done => unreachable!("done driver is never enabled"),
                },
                Step::Fiber(i) => match self.fibers[i].state {
                    FiberState::Ready => {
                        let op = self.fibers[i].ops.get(self.fibers[i].ip).cloned();
                        match op {
                            None => {
                                self.fibers[i].state = FiberState::Finished;
                                self.hub.runnable -= 1;
                                if let Some(p) = self.fibers[i].parent {
                                    self.fibers[p].unjoined -= 1;
                                }
                            }
                            Some(SimOp::Wait) => {
                                self.hub.switches += 1;
                                self.hub.runnable -= 1;
                                self.hub.waiting += 1;
                                self.fibers[i].state =
                                    FiberState::Waiting { gen: self.hub.generation };
                                self.fibers[i].ip += 1;
                            }
                            Some(SimOp::Fork(children)) => {
                                for c in children {
                                    self.hub.runnable += 1;
                                    self.fibers[i].unjoined += 1;
                                    self.fibers[c].state = FiberState::Ready;
                                }
                                self.fibers[i].state = FiberState::PreSuspend;
                                self.fibers[i].ip += 1;
                            }
                        }
                    }
                    FiberState::PreSuspend => {
                        self.hub.runnable -= 1;
                        self.hub.suspended += 1;
                        self.fibers[i].state = FiberState::Suspended;
                    }
                    FiberState::Suspended => {
                        self.hub.suspended -= 1;
                        self.hub.runnable += 1;
                        self.fibers[i].state = FiberState::Ready;
                    }
                    FiberState::Waiting { .. } => {
                        self.hub.waiting -= 1;
                        self.hub.resuming -= 1;
                        self.hub.runnable += 1;
                        self.fibers[i].state = FiberState::Ready;
                    }
                    FiberState::NotStarted | FiberState::Finished => {
                        unreachable!("inactive fiber is never enabled")
                    }
                },
            }
        }

        fn violation(&self) -> Option<String> {
            if self.hub.flushing && self.hub.runnable > 0 {
                return Some("flush overlapping a runnable fiber".into());
            }
            let h = &self.hub;
            if h.runnable < 0 || h.waiting < 0 || h.resuming < 0 || h.suspended < 0 {
                return Some(format!("counter underflow: {h:?}"));
            }
            None
        }

        fn terminal(&self) -> bool {
            self.driver == Driver::Done
                && self.fibers.iter().all(|f| f.state == FiberState::Finished)
        }

        /// Canonical state key: per-fiber `(ip, state)` packed into a `u64`
        /// (with `Waiting` generations normalized to fresh/stale relative to
        /// the hub generation), plus the driver/flushing mode.  Counters and
        /// flush/switch totals are excluded: the former are derivable from
        /// the fiber states, the latter are path totals accumulated outside
        /// the key by [`exhaustive`].
        fn key(&self) -> (Vec<u64>, u8) {
            let fibers = self
                .fibers
                .iter()
                .map(|f| {
                    let tag = match f.state {
                        FiberState::NotStarted => 0u64,
                        FiberState::Ready => 1,
                        FiberState::PreSuspend => 2,
                        FiberState::Suspended => 3,
                        FiberState::Waiting { gen } if gen == self.hub.generation => 4,
                        FiberState::Waiting { .. } => 5,
                        FiberState::Finished => 6,
                    };
                    ((f.ip as u64) << 3) | tag
                })
                .collect();
            let mode = match self.driver {
                Driver::Idle => 0u8,
                Driver::MidFlush => 2,
                Driver::Done => 4,
            } | u8::from(self.hub.flushing);
            (fibers, mode)
        }
    }

    /// Runs one seeded interleaving of `scripts` (each entry is one
    /// top-level fiber, registered before the driver starts, as the VM
    /// driver does).
    ///
    /// # Errors
    ///
    /// Returns a description of the first protocol violation the schedule
    /// exposes (flush overlapping a runnable fiber, lost wakeup/deadlock,
    /// counter underflow, or non-termination).
    pub fn run(scripts: &[Vec<FiberOp>], seed: u64, legacy: bool) -> Result<SimStats, String> {
        const STEP_BUDGET: u64 = 1_000_000;
        let mut sim = Sim::new(scripts);
        let mut prng = Prng::new(seed);
        let mut steps = 0u64;
        let mut enabled: Vec<Step> = Vec::new();
        loop {
            sim.enabled(legacy, &mut enabled);
            if enabled.is_empty() {
                if sim.terminal() {
                    return Ok(SimStats {
                        flushes: sim.hub.flushes,
                        switches: sim.hub.switches,
                        steps,
                    });
                }
                return Err(format!(
                    "lost wakeup / deadlock after {steps} steps: driver {:?}, hub {:?}",
                    sim.driver, sim.hub
                ));
            }
            steps += 1;
            if steps > STEP_BUDGET {
                return Err(format!("no termination within {STEP_BUDGET} steps"));
            }
            sim.apply(enabled[prng.next_below(enabled.len())]);
            if let Some(v) = sim.violation() {
                return Err(format!("{v} after {steps} steps"));
            }
        }
    }

    /// Exhaustively enumerates **every** reachable interleaving of
    /// `scripts` (loom-style, with state-graph memoization), checking the
    /// protocol invariants at every state and returning the exact
    /// flush-count envelope over all complete executions.
    ///
    /// Unlike the sampled [`explore`], a clean result here is a proof over
    /// the whole schedule space of the trace, and the returned bounds are
    /// tight — real-thread runs of the same trace must land inside them.
    ///
    /// # Errors
    ///
    /// Returns the first violation found anywhere in the state space, or an
    /// error if the trace exceeds the state budget (keep traces small).
    pub fn exhaustive(scripts: &[Vec<FiberOp>], legacy: bool) -> Result<ExploreStats, String> {
        use std::collections::{BTreeSet, HashMap};
        const STATE_BUDGET: usize = 1 << 17;
        type Memo = HashMap<(Vec<u64>, u8), BTreeSet<u64>>;

        /// Flush counts reachable from `sim` to termination.
        fn go(sim: &Sim, legacy: bool, memo: &mut Memo) -> Result<BTreeSet<u64>, String> {
            if let Some(v) = sim.violation() {
                return Err(v);
            }
            let key = sim.key();
            if let Some(s) = memo.get(&key) {
                return Ok(s.clone());
            }
            if memo.len() > STATE_BUDGET {
                return Err(format!("state budget ({STATE_BUDGET}) exceeded"));
            }
            let mut enabled = Vec::new();
            sim.enabled(legacy, &mut enabled);
            if enabled.is_empty() {
                if sim.terminal() {
                    memo.insert(key, BTreeSet::from([0]));
                    return Ok(BTreeSet::from([0]));
                }
                return Err(format!(
                    "lost wakeup / deadlock: driver {:?}, hub {:?}",
                    sim.driver, sim.hub
                ));
            }
            let mut out = BTreeSet::new();
            for &step in &enabled {
                let mut next = sim.clone();
                let before = next.hub.flushes;
                next.apply(step);
                let delta = next.hub.flushes - before;
                for v in go(&next, legacy, memo)? {
                    out.insert(v + delta);
                }
            }
            memo.insert(key, out.clone());
            Ok(out)
        }

        fn total_waits(scripts: &[Vec<FiberOp>]) -> u64 {
            scripts
                .iter()
                .flatten()
                .map(|op| match op {
                    FiberOp::Wait => 1,
                    FiberOp::Fork(children) => total_waits(children),
                })
                .sum()
        }

        let mut memo = Memo::new();
        let flushes = go(&Sim::new(scripts), legacy, &mut memo)?;
        Ok(ExploreStats {
            switches: total_waits(scripts),
            flushes_min: flushes.first().copied().unwrap_or(0),
            flushes_max: flushes.last().copied().unwrap_or(0),
        })
    }

    /// Aggregate outcome of exploring many interleavings of one trace.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ExploreStats {
        /// Switch count — identical on every schedule (asserted).
        pub switches: u64,
        /// Fewest flushes any schedule performed.
        pub flushes_min: u64,
        /// Most flushes any schedule performed.  Under the join-handoff
        /// protocol this equals `flushes_min` on every trace — fork-join
        /// included — because flushes only happen at true global
        /// quiescence (see the module docs).  Legacy mode can diverge.
        pub flushes_max: u64,
    }

    impl ExploreStats {
        /// The flush count, when it is schedule-independent.
        ///
        /// # Panics
        ///
        /// Panics if the schedules disagreed (`flushes_min != flushes_max`).
        pub fn exact_flushes(&self) -> u64 {
            assert_eq!(
                self.flushes_min, self.flushes_max,
                "flush count is schedule-dependent for this trace"
            );
            self.flushes_min
        }
    }

    /// Explores `count` seeded interleavings of `scripts`, checking every
    /// schedule for protocol violations and asserting switch-count
    /// confluence.  Returns the switch count and the flush-count envelope.
    ///
    /// # Errors
    ///
    /// Returns the first violation any schedule exposes, or a switch-count
    /// divergence between schedules.
    pub fn explore(
        scripts: &[Vec<FiberOp>],
        seed: u64,
        count: u64,
        legacy: bool,
    ) -> Result<ExploreStats, String> {
        let mut agg: Option<ExploreStats> = None;
        for i in 0..count {
            let schedule_seed = seed ^ i.wrapping_mul(0xD1B54A32D192ED03);
            let stats = run(scripts, schedule_seed, legacy)?;
            match &mut agg {
                None => {
                    agg = Some(ExploreStats {
                        switches: stats.switches,
                        flushes_min: stats.flushes,
                        flushes_max: stats.flushes,
                    });
                }
                Some(a) => {
                    if a.switches != stats.switches {
                        return Err(format!(
                            "switch count diverged across schedules: {} vs {} (seed {schedule_seed})",
                            a.switches, stats.switches
                        ));
                    }
                    a.flushes_min = a.flushes_min.min(stats.flushes);
                    a.flushes_max = a.flushes_max.max(stats.flushes);
                }
            }
        }
        Ok(agg.unwrap_or(ExploreStats { switches: 0, flushes_min: 0, flushes_max: 0 }))
    }

    /// Generates a seeded random fork-join trace: `fibers` top-level
    /// scripts of at most `max_ops` ops each, forking up to `depth` levels
    /// deep.
    pub fn random_scripts(
        seed: u64,
        fibers: usize,
        max_ops: usize,
        depth: usize,
    ) -> Vec<Vec<FiberOp>> {
        let mut prng = Prng::new(seed);
        (0..fibers).map(|_| random_script(&mut prng, max_ops, depth)).collect()
    }

    fn random_script(prng: &mut Prng, max_ops: usize, depth: usize) -> Vec<FiberOp> {
        let n = prng.next_below(max_ops + 1);
        (0..n)
            .map(|_| {
                if depth > 0 && prng.next_below(4) == 0 {
                    let kids = 1 + prng.next_below(2);
                    FiberOp::Fork(
                        (0..kids).map(|_| random_script(prng, max_ops.min(2), depth - 1)).collect(),
                    )
                } else {
                    FiberOp::Wait
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::hubsim::{self, FiberOp};

    #[test]
    fn explorer_exact_flush_counts_on_lockstep_trace() {
        // Mirrors fiber.rs's fibers_sync_at_flush_points: 4 fibers × 3
        // waits → exactly 3 flushes and 12 switches, on every schedule.
        let scripts = vec![vec![FiberOp::Wait, FiberOp::Wait, FiberOp::Wait]; 4];
        let stats = hubsim::explore(&scripts, 7, 200, false).unwrap();
        assert_eq!(stats.exact_flushes(), 3);
        assert_eq!(stats.switches, 12);
    }

    #[test]
    fn explorer_handles_uneven_wait_counts() {
        // Fibers with 1, 2 and 4 waits: flushes == the maximum (each flush
        // wakes everyone still alive), switches == the sum.
        let scripts =
            vec![vec![FiberOp::Wait], vec![FiberOp::Wait, FiberOp::Wait], vec![FiberOp::Wait; 4]];
        let stats = hubsim::explore(&scripts, 11, 200, false).unwrap();
        assert_eq!(stats.exact_flushes(), 4);
        assert_eq!(stats.switches, 7);
    }

    #[test]
    fn explorer_fork_join_trace_is_clean() {
        // A parent forking two waiting children while a sibling also waits.
        let scripts = vec![
            vec![FiberOp::Fork(vec![vec![FiberOp::Wait], vec![FiberOp::Wait]]), FiberOp::Wait],
            vec![FiberOp::Wait],
        ];
        let stats = hubsim::explore(&scripts, 3, 500, false).unwrap();
        assert_eq!(stats.exact_flushes(), 2, "children sync once, then the parent");
        assert_eq!(stats.switches, 4, "two children, the sibling, then the parent");
        // The exhaustive enumerator proves the count over ALL schedules.
        assert_eq!(hubsim::exhaustive(&scripts, false).unwrap(), stats);
    }

    #[test]
    fn explorer_random_trees_have_exact_flush_counts() {
        // Under the join-handoff protocol the flush count is
        // schedule-independent on *every* trace, fork-join included: the
        // driver never flushes while a joinable parent is in flight, so
        // flushes happen only at true global quiescence.  (Before the
        // handoff this corpus exhibited a benign join/flush race and the
        // envelope could only be asserted as a containment.)
        for trace_seed in 0..40u64 {
            let scripts = hubsim::random_scripts(trace_seed, 1 + (trace_seed as usize % 4), 4, 2);
            let stats = hubsim::explore(&scripts, trace_seed.wrapping_mul(31), 25, false)
                .unwrap_or_else(|e| panic!("trace seed {trace_seed}: {e}"));
            assert_eq!(
                stats.flushes_min, stats.flushes_max,
                "trace seed {trace_seed}: flush count diverged across schedules"
            );
        }
    }

    #[test]
    fn exhaustive_proves_join_handoff_closes_the_boundary_race() {
        // The exact trace from the old benign race: a parent whose child
        // finishes without syncing, while a sibling waits.  Legacy-lineage
        // protocols served 1 or 2 flushes depending on whether the driver
        // won the race against the parent's resume; the handoff pins it.
        let scripts = vec![vec![FiberOp::Fork(vec![vec![]]), FiberOp::Wait], vec![FiberOp::Wait]];
        let exact = hubsim::exhaustive(&scripts, false).unwrap();
        assert_eq!(exact.exact_flushes(), 1, "parent's wait must coalesce into the sibling's");
        // Deeper variant: the race window also existed at every fork level.
        let nested = vec![
            vec![
                FiberOp::Fork(vec![vec![FiberOp::Fork(vec![vec![]]), FiberOp::Wait]]),
                FiberOp::Wait,
            ],
            vec![FiberOp::Wait, FiberOp::Wait],
        ];
        let exact = hubsim::exhaustive(&nested, false).unwrap();
        assert_eq!(exact.flushes_min, exact.flushes_max, "nested fork-join must stay exact");
    }

    #[test]
    fn explorer_finds_legacy_resume_race() {
        // Regression for the suspend_while resume race: a parent suspends
        // joining a child that finishes without syncing, while a sibling
        // waits for a flush.  Legacy protocol: the parent may resume while
        // the driver is mid-flush.  The exhaustive enumerator must expose
        // it; the fixed protocol must be clean on every schedule.
        let scripts = vec![vec![FiberOp::Fork(vec![vec![]])], vec![FiberOp::Wait]];
        let err = hubsim::exhaustive(&scripts, true)
            .expect_err("enumerator failed to find the legacy resume race");
        assert!(err.contains("flush overlapping"), "unexpected violation: {err}");
        assert_eq!(hubsim::exhaustive(&scripts, false).unwrap().exact_flushes(), 1);
        hubsim::explore(&scripts, 5, 256, false).unwrap();
    }

    #[test]
    fn explorer_finds_legacy_early_return() {
        // Regression for the driver returning while a fork-join parent is
        // still suspended: the parent then waits for a flush that never
        // comes.  The legacy protocol deadlocks or races; fixed is clean.
        let scripts = vec![vec![FiberOp::Fork(vec![vec![]]), FiberOp::Wait]];
        assert!(
            hubsim::exhaustive(&scripts, true).is_err(),
            "enumerator failed to find the legacy early-return deadlock"
        );
        let legacy_violations = (0..64u64).filter(|&s| hubsim::run(&scripts, s, true).is_err());
        assert!(legacy_violations.count() > 0, "sampling failed to find the deadlock");
        let stats = hubsim::explore(&scripts, 9, 256, false).unwrap();
        assert_eq!(stats.exact_flushes(), 1, "the parent's post-join wait still gets its flush");
    }

    #[test]
    fn exhaustive_bounds_contain_sampled_envelopes() {
        // The sampled envelope can only ever see a subset of the schedules
        // the enumerator proves over.
        for trace_seed in 0..12u64 {
            let scripts = hubsim::random_scripts(trace_seed, 1 + (trace_seed as usize % 2), 3, 1);
            let exact = hubsim::exhaustive(&scripts, false)
                .unwrap_or_else(|e| panic!("trace seed {trace_seed}: {e}"));
            let sampled = hubsim::explore(&scripts, trace_seed, 50, false).unwrap();
            assert_eq!(sampled.switches, exact.switches, "trace seed {trace_seed}");
            assert!(
                exact.flushes_min <= sampled.flushes_min
                    && sampled.flushes_max <= exact.flushes_max,
                "trace seed {trace_seed}: sampled {sampled:?} outside exact {exact:?}"
            );
        }
    }
}
