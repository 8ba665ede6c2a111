//! Kernel execution backends.
//!
//! Batched kernel launches always go through two phases: *preparation*
//! ([`crate::exec::prepare_batched_kernel_with`] — sequential, performs the
//! gather/allocation effects) and *execution* (pure per-lane compute, which
//! [`Selection::execute_lanes`] can split across threads by lane range).
//! This module chooses how the execution phase runs ([`Selection`]):
//!
//! * [`SpecializedBackend`] ([`KernelBackendKind::Spec`], the default) — a
//!   compile-once cache: a kernel is lowered on its first launch into a
//!   monomorphized allocation-free [`crate::spec::CompiledKernel`] and
//!   every later launch of any lane count reuses it.  Lowering one kernel
//!   costs about a microsecond (DESIGN §11), so nothing rations it.
//! * the reference per-instruction interpreter
//!   ([`crate::exec::execute_prepared`], [`KernelBackendKind::Interp`]) —
//!   the oracle: what checked mode re-executes every compiled launch
//!   through, and the other side of the fuzz/chaos `backend` axis.
//!
//! Compiled execution must produce bit-for-bit the same arena contents as
//! the interpreter; checked mode enforces this at runtime by re-executing
//! each compiled launch through the interpreter and comparing output bits.

use std::ops::Range;
use std::sync::OnceLock;

use acrobat_tensor::arena::ExecView;
use acrobat_tensor::TensorError;
use serde::{Deserialize, Serialize};

use crate::exec::{execute_prepared, ExecScratch, PreparedLaunch};
use crate::kernel::KernelProgram;
use crate::spec::CompiledKernel;

/// Which kernel-execution backend the runtime drives.
///
/// The two produce the same bits and the same modeled statistics, so every
/// published artifact is reproduced unchanged under either; they differ in
/// host wall-clock only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelBackendKind {
    /// The reference per-instruction interpreter: the oracle compiled
    /// execution is compared against, one lane at a time.
    Interp,
    /// Specialized execution: every kernel is compiled on its first launch
    /// ([`SpecializedBackend`]).
    #[default]
    Spec,
}

/// How the execution phase of one launch runs: the outcome of
/// [`SpecializedBackend::select`], or [`Selection::Interp`] when the engine
/// has no specialized backend.
#[derive(Debug, Clone, Copy)]
pub enum Selection<'k> {
    /// Execute through the reference interpreter.
    Interp,
    /// Execute through a compiled kernel.
    Compiled {
        /// The kernel's monomorphized form, shared by every lane count.
        kernel: &'k CompiledKernel,
        /// Whether this launch triggered the compilation (for stats).
        fresh: bool,
    },
}

impl Selection<'_> {
    /// Whether this selection runs the compiled path.
    pub fn is_compiled(&self) -> bool {
        matches!(self, Selection::Compiled { .. })
    }

    /// Whether this selection compiled its kernel on this launch.
    pub fn is_fresh_compile(&self) -> bool {
        matches!(self, Selection::Compiled { fresh: true, .. })
    }

    /// Runs the execution phase for `lane_range` of a prepared launch.
    ///
    /// With `checked` set and a compiled selection, the launch is
    /// re-executed through the reference interpreter and the output
    /// regions are compared bit for bit; any divergence panics with the
    /// kernel name (backend bugs are not recoverable data faults).
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
        match self {
            Selection::Interp => {
                execute_prepared(view, program, prep, lane_range, &mut scratch.interp)
            }
            Selection::Compiled { kernel, .. } => {
                kernel.execute(view, prep, lane_range.clone(), scratch)?;
                if checked {
                    verify_against_interp(view, program, prep, lane_range, scratch)?;
                }
                Ok(())
            }
        }
    }

    /// Runs the whole execution phase of a prepared launch, split into
    /// `parts` contiguous lane ranges (clamped to `1..=lanes`).
    ///
    /// The calling thread takes range 0 with `scratch[0]`; ranges
    /// `1..parts` run on scoped threads with `scratch[1..parts]` (grown on
    /// first use and kept by the caller, so a steady-state split allocates
    /// no working memory).  Each range writes its own slice of the
    /// launch's reserved outputs and reads only data produced before the
    /// launch — the [`ExecView`] contract — so the arena contents are
    /// bit-identical for every `parts`.  Every range runs to completion;
    /// when several fail, the lowest range's error is returned, whatever
    /// the thread timing.
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
        scratch: &mut Vec<BackendScratch>,
        checked: bool,
    ) -> Result<(), TensorError> {
        let lanes = prep.batch;
        let parts = parts.clamp(1, lanes);
        if scratch.len() < parts {
            scratch.resize_with(parts, BackendScratch::default);
        }
        let (own, helpers) = scratch.split_first_mut().expect("parts >= 1");
        if parts == 1 {
            return self.execute(view, program, prep, 0..lanes, own, checked);
        }
        // Even contiguous split; every range is non-empty as parts <= lanes.
        let range = move |p: usize| p * lanes / parts..(p + 1) * lanes / parts;
        std::thread::scope(|scope| {
            let handles: Vec<_> = helpers[..parts - 1]
                .iter_mut()
                .enumerate()
                .map(|(i, s)| {
                    scope.spawn(move || self.execute(view, program, prep, range(i + 1), s, checked))
                })
                .collect();
            let mut result = self.execute(view, program, prep, range(0), own, checked);
            // Joined in range order, so the first error kept is the lowest
            // range's.  A helper's panic (a checked-mode divergence) is
            // re-raised with its own message.
            for handle in handles {
                result = result.and(handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            result
        })
    }
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
/// An execution context keeps one instance per lane range it has ever
/// split a launch into ([`Selection::execute_lanes`]), so a warm execute
/// phase allocates nothing: interpreter register buffers, the compiled
/// path's flat scratch, tiles and materialized inputs (each bounded by the
/// kernel's footprint × [`crate::spec::LANE_BLOCK`], whatever the launch
/// width) and the checked-mode snapshot all persist across launches.
#[derive(Debug, Default)]
pub struct BackendScratch {
    /// Interpreter register scratch.
    pub interp: ExecScratch,
    pub(crate) flat: Vec<f32>,
    pub(crate) tiles: Vec<f32>,
    pub(crate) inputs: Vec<f32>,
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
    /// launch.
    ///
    /// # Panics
    ///
    /// Panics if `program` is not from the library this backend was sized
    /// for.
    pub fn select(&self, program: &KernelProgram) -> Selection<'_> {
        let mut fresh = false;
        let kernel = self.cache[program.id.0 as usize].get_or_init(|| {
            fresh = true;
            CompiledKernel::compile(program)
        });
        Selection::Compiled { kernel, fresh }
    }

    /// Number of kernels compiled so far.
    pub fn compiled_count(&self) -> usize {
        self.cache.iter().filter(|c| c.get().is_some()).count()
    }
}
