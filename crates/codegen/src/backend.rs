//! Kernel execution.
//!
//! Batched kernel launches always go through two phases: *preparation*
//! ([`crate::exec::prepare_batched_kernel_with`] — sequential, performs the
//! gather/allocation effects) and *execution* (pure per-lane compute, which
//! [`CompiledKernel::execute_lanes`] can split by lane range across the
//! parked helper threads of a [`LaneExecutor`]).  Execution always runs a
//! compiled kernel: [`SpecializedBackend`] is a compile-once cache — a
//! kernel is lowered on its first launch into a monomorphized
//! allocation-free [`CompiledKernel`] and every later launch of any lane
//! count reuses it.  Lowering one kernel costs about a
//! microsecond (DESIGN §11), so nothing rations it.
//!
//! The reference per-instruction interpreter
//! ([`crate::exec::execute_prepared`]) is the oracle: compiled execution
//! must produce bit-for-bit the same arena contents, and checked mode
//! enforces this by re-executing each compiled launch through it and
//! comparing output bits.

use std::ops::Range;
use std::sync::OnceLock;

use acrobat_tensor::arena::ExecView;
use acrobat_tensor::TensorError;

use crate::exec::{execute_prepared, ExecScratch, PreparedLaunch};
use crate::kernel::KernelProgram;
use crate::spec::CompiledKernel;

mod helpers;

/// The kernel executor, of which there is one: every launch runs a
/// compiled kernel ([`SpecializedBackend`]).
///
/// Kept only because the frozen benchmark harness
/// (`benchmark/src/profiles.rs`) still names it through
/// `CompileOptions::with_kernel_backend`, its last caller; the harness
/// change that retires that file deletes both.
#[derive(Debug, Clone, Copy)]
pub enum KernelBackendKind {
    /// Compiled execution.
    Spec,
}

impl CompiledKernel {
    /// Runs the execution phase for `lane_range` of a prepared launch of
    /// `program`, the kernel this was compiled from.
    ///
    /// With `checked` set, the launch is re-executed through the reference
    /// interpreter and the output regions are compared bit for bit; any
    /// divergence panics with the kernel name (executor bugs are not
    /// recoverable data faults).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on kernel failures.
    pub fn execute(
        &self,
        view: &ExecView<'_>,
        program: &KernelProgram,
        prep: &PreparedLaunch,
        lane_range: Range<usize>,
        scratch: &mut BackendScratch,
        checked: bool,
    ) -> Result<(), TensorError> {
        self.run_lanes(view, prep, lane_range.clone(), scratch)?;
        if checked {
            verify_against_interp(view, program, prep, lane_range, scratch)?;
        }
        Ok(())
    }

    /// Runs the whole execution phase of a prepared launch, split into
    /// `parts` contiguous lane ranges (clamped to `1..=lanes`).
    ///
    /// The calling thread takes range 0 with `exec`'s own scratch; ranges
    /// `1..parts` run on `exec`'s helper threads, each with its own
    /// (started on `exec`'s first split launch and parked between
    /// launches, so a steady-state split spawns nothing and allocates no
    /// working memory).  Each range writes its own slice of the launch's
    /// reserved outputs and reads only data produced before the launch —
    /// the [`ExecView`] contract — so the arena contents are bit-identical
    /// for every `parts`.  Every range runs to completion; when several
    /// fail, the lowest range's error is returned, whatever the thread
    /// timing, and a helper's panic (a checked-mode divergence) is
    /// re-raised on the caller with its own message.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on kernel failures.
    pub fn execute_lanes(
        &self,
        view: &ExecView<'_>,
        program: &KernelProgram,
        prep: &PreparedLaunch,
        parts: usize,
        exec: &mut LaneExecutor,
        checked: bool,
    ) -> Result<(), TensorError> {
        let lanes = prep.batch;
        let parts = parts.clamp(1, lanes);
        if parts == 1 {
            return self.execute(view, program, prep, 0..lanes, &mut exec.scratch, checked);
        }
        // Even contiguous split; every range is non-empty as parts <= lanes.
        let range = move |p: usize| p * lanes / parts..(p + 1) * lanes / parts;
        let job = |p: usize, scratch: &mut BackendScratch| {
            self.execute(view, program, prep, range(p), scratch, checked)
        };
        exec.helpers.run(parts, &mut exec.scratch, &job)
    }
}

/// What one execution context keeps for the execute phase across launches:
/// its own working memory, which runs every launch's range 0, and the
/// helper threads that run ranges `1..parts` of a split launch
/// ([`CompiledKernel::execute_lanes`]).  The helpers are started on the
/// first split launch, park between launches and are joined on drop.
#[derive(Debug, Default)]
pub struct LaneExecutor {
    /// The calling thread's working memory.
    pub scratch: BackendScratch,
    helpers: helpers::LaneHelpers,
}

/// Snapshots the compiled outputs for `lane_range`, re-executes through the
/// interpreter (overwriting the same regions, so memory afterwards holds
/// the reference bits either way) and panics on any bit mismatch.
fn verify_against_interp(
    view: &ExecView<'_>,
    program: &KernelProgram,
    prep: &PreparedLaunch,
    lane_range: Range<usize>,
    scratch: &mut BackendScratch,
) -> Result<(), TensorError> {
    let lanes = lane_range.len();
    scratch.check.clear();
    // SAFETY: the compiled path just wrote these exact regions from this
    // work unit; reading back our own writes is race-free.
    for ((_, _, shape), handle) in program.outputs.iter().zip(&prep.out_handles) {
        let n = shape.numel();
        let region = unsafe { view.read(handle.offset() + lane_range.start * n, lanes * n) };
        scratch.check.extend_from_slice(region);
    }
    execute_prepared(view, program, prep, lane_range.clone(), &mut scratch.interp)?;
    let mut at = 0;
    for (out_idx, ((_, _, shape), handle)) in
        program.outputs.iter().zip(&prep.out_handles).enumerate()
    {
        let n = shape.numel();
        // SAFETY: as above — this work unit's own freshly written region.
        let region = unsafe { view.read(handle.offset() + lane_range.start * n, lanes * n) };
        for (i, (&reference, &compiled)) in
            region.iter().zip(&scratch.check[at..at + lanes * n]).enumerate()
        {
            assert!(
                reference.to_bits() == compiled.to_bits(),
                "specialized backend diverged from reference interpreter on kernel `{}` \
                 output {} element {} (lanes {:?}): compiled {:?} != reference {:?}",
                program.name,
                out_idx,
                i,
                lane_range,
                compiled,
                reference,
            );
        }
        at += lanes * n;
    }
    Ok(())
}

/// Reusable per-thread working memory for the execution phase.
///
/// An execution context keeps one for its own thread and each of its
/// helpers keeps one ([`LaneExecutor`]), so a warm execute phase allocates
/// nothing: the compiled kernel's flat scratch, tiles and staged inputs
/// (each bounded by the kernel's footprint × [`crate::spec::LANE_BLOCK`],
/// whatever the launch width, plus one period buffer per shared fused
/// operand) and checked
/// mode's snapshot and interpreter registers all persist across launches.
#[derive(Debug, Default)]
pub struct BackendScratch {
    /// Interpreter register scratch (checked mode's oracle).
    pub interp: ExecScratch,
    pub(crate) flat: Vec<f32>,
    pub(crate) tiles: Vec<f32>,
    pub(crate) inputs: Vec<f32>,
    pub(crate) fused_in: Vec<crate::spec::FusedIn>,
    check: Vec<f32>,
}

/// The specialized backend: a compile-once cache of [`CompiledKernel`]s
/// indexed by [`crate::KernelId`].
///
/// A kernel is lowered on its first launch and every later launch — of any
/// lane count, from any pooled context — borrows it from a lock-free
/// [`OnceLock`] cell.  Retuning builds a fresh backend, which is exactly
/// the invalidation the plan cache already follows.
#[derive(Debug)]
pub struct SpecializedBackend {
    cache: Vec<OnceLock<CompiledKernel>>,
}

impl SpecializedBackend {
    /// Creates an empty backend for a library of `kernels` kernels.
    pub fn new(kernels: usize) -> SpecializedBackend {
        SpecializedBackend { cache: (0..kernels).map(|_| OnceLock::new()).collect() }
    }

    /// The compiled form of `program`, lowering it if this is its first
    /// launch, and whether this call compiled it (for stats).
    ///
    /// # Panics
    ///
    /// Panics if `program` is not from the library this backend was sized
    /// for.
    pub fn select(&self, program: &KernelProgram) -> (&CompiledKernel, bool) {
        let mut fresh = false;
        let kernel = self.cache[program.id.0 as usize].get_or_init(|| {
            fresh = true;
            CompiledKernel::compile(program)
        });
        (kernel, fresh)
    }

    /// Number of kernels compiled so far.
    pub fn compiled_count(&self) -> usize {
        self.cache.iter().filter(|c| c.get().is_some()).count()
    }
}
