//! The immutable, shareable half of the execution stack.
//!
//! ACROBAT computes the expensive artifacts once, at compile time — batched
//! kernels, static analysis, execution plans (§3–§4 of the paper) — and
//! only the cheap DFG-and-flush machinery runs per mini-batch (§2.2, §5).
//! The object model mirrors that split: an [`Engine`] owns the
//! request-invariant artifacts and is immutable and `Send + Sync`, shared
//! via `Arc` by every concurrent mini-batch (the way TVM shares one
//! compiled module across per-call execution state); all mutable per-batch
//! state lives in a [`crate::ExecutionContext`].  `Model::run` therefore
//! needs no global runtime lock: each request takes its own context —
//! usually a pooled one — and executes independently.
//!
//! Profile-guided re-scheduling (§D.1) is a step between runs, the way TVM
//! builds a new module after tuning: the aggregated profile is applied to a
//! *clone* of the kernel library via [`Engine::retuned`], producing a new
//! engine that replaces the old one, and the old one's contexts with it.

use std::collections::BTreeMap;
use std::sync::Arc;

use acrobat_analysis::fusion::GroupId;
use acrobat_analysis::{AnalysisResult, ArgClass};
use acrobat_codegen::{KernelId, KernelLibrary, KernelProgram, SpecializedBackend};
use serde::{Deserialize, Serialize};

use crate::context::ExecutionContext;
use crate::device::DeviceModel;
use crate::scheduler::SchedulerKind;

/// Configuration of the execution stack, resolved at compile time and owned
/// by the [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOptions {
    /// Scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Gather-operator fusion (§5.2): `true` launches kernels that read
    /// scattered operands in place; `false` performs explicit gathers.
    pub gather_fusion: bool,
    /// Grain-size coarsening (§B.2): charge DFG-construction and scheduling
    /// overheads per static block rather than per fusion group.
    pub coarsen: bool,
    /// Eager execution: flush after every node (PyTorch-style, no
    /// auto-batching — the §E.3 baseline).
    pub eager: bool,
    /// Device memory capacity in `f32` elements.
    pub device_memory: usize,
    /// Checked mode ([`crate::check`]): validate every flush against the
    /// scheduler/DFG invariants and the reference schedulers.  Orders of
    /// magnitude slower; costs the hot path one branch per flush when off.
    #[serde(default)]
    pub checked: bool,
    /// Retries per flush of a transient device fault, each after an
    /// exponential backoff charged as modeled time (50 µs, doubling per
    /// retry).  Fatal faults and interrupts are never retried.  0 (the
    /// default) disables retry: every fault surfaces to the caller.
    #[serde(default)]
    pub max_retries: u32,
    /// Flush-plan memoization ([`crate::plan_cache`]): structurally
    /// repeated pending windows are served by remapping a frozen plan
    /// instead of re-running the scheduler.  Off by default — the paper
    /// configuration reschedules every flush, and all default artifacts
    /// are produced with the cache off.
    #[serde(default)]
    pub plan_cache: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            scheduler: SchedulerKind::InlineDepth,
            gather_fusion: true,
            coarsen: true,
            eager: false,
            device_memory: 64 << 20, // 256 MB
            checked: false,
            max_retries: 0,
            plan_cache: false,
        }
    }
}

/// One fusion group as the DFG sees it — its kernel, its output arity and
/// which of its input slots are shared operands — resolved once per engine
/// ([`Engine::unit`]) rather than once per appended node.  Group → kernel
/// bindings are a function of the analysis alone, so a re-tuned engine
/// ([`Engine::retuned`]) resolves every group to an equal `Unit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// The batched kernel that executes the group.
    pub kernel: KernelId,
    /// Number of kernel output slots.
    pub outputs: u32,
    /// Input slots classified [`acrobat_analysis::ArgClass::Shared`],
    /// ascending: the operands folded into a node's `shared_sig`.
    pub shared_slots: Box<[u16]>,
}

impl Unit {
    fn of(program: &KernelProgram) -> Unit {
        let shared_slots = (0u16..)
            .zip(&program.inputs)
            .filter(|(_, input)| input.class == ArgClass::Shared)
            .map(|(slot, _)| slot)
            .collect();
        Unit { kernel: program.id, outputs: program.outputs.len() as u32, shared_slots }
    }
}

/// The immutable compiled artifact shared by all concurrent mini-batches.
///
/// Everything in here is request-invariant: the kernel library generated by
/// codegen, the static-analysis results, the device cost model and the
/// resolved options.  An engine is never mutated after construction —
/// [`Engine::retuned`] builds a *new* engine for PGO re-scheduling.
#[derive(Debug)]
pub struct Engine {
    analysis: Arc<AnalysisResult>,
    library: Arc<KernelLibrary>,
    /// Per fusion group, its pre-resolved [`Unit`].
    units: BTreeMap<GroupId, Unit>,
    model: DeviceModel,
    options: RuntimeOptions,
    /// The shared flush-plan cache ([`crate::plan_cache`]).  Engine-resident
    /// so every context serving the same compiled model shares one warm
    /// set; a re-tuned engine ([`Engine::retuned`]) builds a fresh cache,
    /// which is the wholesale invalidation the PGO path needs.
    plan_cache: crate::plan_cache::PlanCache,
    /// The kernel executor's compiled-kernel cache
    /// ([`acrobat_codegen::backend`]).  Engine-resident for the same reason
    /// as the plan cache: it is shared lock-free by every pooled context,
    /// and a re-tuned engine ([`Engine::retuned`]) builds a fresh one,
    /// which is exactly the invalidation a retuned library needs.
    backend: SpecializedBackend,
}

impl Engine {
    /// Builds an engine from compile-time artifacts.
    pub fn new(
        analysis: Arc<AnalysisResult>,
        library: KernelLibrary,
        model: DeviceModel,
        options: RuntimeOptions,
    ) -> Engine {
        // Empty: kernels compile on their first launch.
        let backend = SpecializedBackend::new(library.len());
        let groups = analysis.blocks.blocks.iter().flat_map(|b| &b.groups);
        let units = groups.map(|g| (g.id, Unit::of(library.kernel_for_group(g.id)))).collect();
        Engine {
            analysis,
            library: Arc::new(library),
            units,
            model,
            options,
            plan_cache: crate::plan_cache::PlanCache::new(),
            backend,
        }
    }

    /// The static-analysis results.
    pub fn analysis(&self) -> &Arc<AnalysisResult> {
        &self.analysis
    }

    /// The kernel library.
    pub fn library(&self) -> &KernelLibrary {
        &self.library
    }

    /// The pre-resolved scheduling unit of a fusion group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not from this engine's analysis.
    pub fn unit(&self, group: GroupId) -> &Unit {
        &self.units[&group]
    }

    /// The device cost model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// The resolved options.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// The shared flush-plan cache.
    pub fn plan_cache(&self) -> &crate::plan_cache::PlanCache {
        &self.plan_cache
    }

    /// The kernel executor's compiled-kernel cache.
    pub fn backend(&self) -> &SpecializedBackend {
        &self.backend
    }

    /// Starts a fresh [`ExecutionContext`] (one mini-batch's mutable state)
    /// against this engine.
    pub fn new_context(self: &Arc<Engine>) -> ExecutionContext {
        ExecutionContext::new(Arc::clone(self))
    }

    /// Derives a new engine with a re-tuned kernel library (PGO, §D.1):
    /// clones the library, lets `retune` mutate the clone, and wraps the
    /// result.  The caller replaces this engine with it, and drops the
    /// contexts built against this one.
    pub fn retuned(&self, retune: impl FnOnce(&mut KernelLibrary)) -> Engine {
        let mut library = (*self.library).clone();
        retune(&mut library);
        // A retuned library can change batch schedules; stale plans and
        // stale compiled kernels must not survive the re-tune, so the new
        // engine is built from scratch, with an empty plan cache and an
        // empty backend.
        Engine::new(Arc::clone(&self.analysis), library, self.model, self.options)
    }
}

// `Engine` must stay shareable across serving threads without locks; keep
// this a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};
