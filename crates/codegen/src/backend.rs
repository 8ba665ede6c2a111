//! Kernel execution backends.
//!
//! Batched kernel launches always go through two phases: *preparation*
//! ([`crate::exec::prepare_batched_kernel_with`] — sequential, performs the
//! gather/allocation effects) and *execution* (pure per-lane compute, which
//! [`Selection::execute_lanes`] can split across threads by lane range).
//! This module abstracts the execution phase behind the [`KernelBackend`]
//! trait:
//!
//! * [`InterpBackend`] — the reference per-instruction interpreter
//!   ([`crate::exec::execute_prepared`]), always available, default.
//! * [`SpecializedBackend`] — PGO-gated compilation of hot
//!   `(kernel, batch-size-class)` pairs into monomorphized allocation-free
//!   closures ([`crate::spec::CompiledKernel`]).  Per-kernel launch counters
//!   are pre-seeded from hotness estimates (static frequency analysis, or
//!   the aggregated PGO profile after retuning), so kernels that the
//!   profile says are hot compile on their first post-retune launch while
//!   cold kernels never pay compilation.
//!
//! Every backend must produce bit-for-bit the same arena contents as the
//! interpreter; checked mode enforces this at runtime by re-executing each
//! compiled launch through the interpreter and comparing output bits.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use acrobat_tensor::arena::ExecView;
use acrobat_tensor::TensorError;
use serde::{Deserialize, Serialize};

use crate::exec::{execute_prepared, ExecScratch, PreparedLaunch};
use crate::kernel::{KernelId, KernelProgram};
use crate::spec::CompiledKernel;

/// Which kernel-execution backend the runtime drives.
///
/// The default is the reference interpreter, so all modeled statistics and
/// published experiment artifacts are reproduced unchanged unless a run
/// explicitly opts into specialized execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelBackendKind {
    /// The reference per-instruction interpreter.
    #[default]
    Interp,
    /// PGO-gated specialized execution with an interpreter fallback for
    /// cold kernels.
    Spec,
}

/// Number of batch-size classes a kernel can be specialized for.
pub const NUM_SIZE_CLASSES: usize = 8;

/// Floor-log2 bucket of the lane count, capped at
/// [`NUM_SIZE_CLASSES`]` - 1`: 1 → 0, 2–3 → 1, 4–7 → 2, …, ≥128 → 7.
///
/// Class only selects loop tiling in the compiled kernel; it never changes
/// results.
pub fn size_class(lanes: usize) -> usize {
    let lanes = lanes.max(1);
    ((usize::BITS - 1 - lanes.leading_zeros()) as usize).min(NUM_SIZE_CLASSES - 1)
}

/// Execution-phase strategy for batched kernel launches.
///
/// Implementations are engine-resident: shared immutably (`Send + Sync`)
/// across every pooled execution context, with interior mutability for
/// launch counters and compiled-kernel caches.  The contract is strict
/// bit-for-bit agreement with the reference interpreter on the arena
/// contents of every launch.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Short stable name for logs and bench output.
    fn name(&self) -> &'static str;

    /// Decides how the execution phase of one launch of `program` over
    /// `lanes` lanes should run, updating hotness counters as a side
    /// effect.
    fn select(&self, program: &KernelProgram, lanes: usize) -> Selection;

    /// Number of `(kernel, size-class)` pairs compiled so far.
    fn compiled_count(&self) -> usize {
        0
    }
}

/// The reference backend: every launch executes through the
/// per-instruction interpreter.
#[derive(Debug, Default, Clone, Copy)]
pub struct InterpBackend;

impl KernelBackend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn select(&self, _program: &KernelProgram, _lanes: usize) -> Selection {
        Selection::Interp
    }
}

/// Outcome of [`KernelBackend::select`] for one launch.
#[derive(Debug, Clone)]
pub enum Selection {
    /// Execute through the reference interpreter.
    Interp,
    /// Execute through a compiled kernel.
    Compiled {
        /// The monomorphized kernel for this `(kernel, size-class)` pair.
        kernel: Arc<CompiledKernel>,
        /// Whether this launch triggered the compilation (for stats).
        fresh: bool,
    },
}

impl Selection {
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
                kernel.execute(
                    view,
                    prep,
                    lane_range.clone(),
                    &mut scratch.flat,
                    &mut scratch.tiles,
                    &mut scratch.inputs,
                )?;
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
/// split a launch into ([`Selection::execute_lanes`]), which kills the
/// per-launch allocations the interpreter used to make: interpreter
/// register buffers, the compiled path's flat scratch and tiles, and the
/// checked-mode snapshot all persist across launches.
#[derive(Debug, Default)]
pub struct BackendScratch {
    /// Interpreter register scratch.
    pub interp: ExecScratch,
    flat: Vec<f32>,
    tiles: Vec<f32>,
    inputs: Vec<f32>,
    check: Vec<f32>,
}

/// PGO-gated specialized backend.
///
/// Per-kernel launch counters decide when a kernel is hot enough to
/// compile; counters are pre-seeded with hotness estimates so that a good
/// profile (static frequency analysis at engine build, the aggregated PGO
/// profile after retuning) makes hot kernels compile on their first launch.
/// Compiled kernels are cached per `(kernel, batch-size-class)` in
/// lock-free [`OnceLock`] cells shared by all pooled contexts; retuning
/// builds a fresh backend, which is exactly the invalidation the plan
/// cache already follows.
#[derive(Debug)]
pub struct SpecializedBackend {
    threshold: u64,
    counters: Vec<AtomicU64>,
    cache: Vec<[OnceLock<Arc<CompiledKernel>>; NUM_SIZE_CLASSES]>,
}

impl SpecializedBackend {
    /// Creates a backend for a library of `kernels` kernels that compiles a
    /// kernel once its launch count reaches `threshold` (minimum 1).
    pub fn new(kernels: usize, threshold: u64) -> SpecializedBackend {
        SpecializedBackend {
            threshold: threshold.max(1),
            counters: (0..kernels).map(|_| AtomicU64::new(0)).collect(),
            cache: (0..kernels).map(|_| std::array::from_fn(|_| OnceLock::new())).collect(),
        }
    }

    /// Pre-seeds the launch counter of `kernel` with an estimated hotness
    /// weight, as if it had already launched `weight` times.
    pub fn seed(&mut self, kernel: KernelId, weight: u64) {
        if let Some(counter) = self.counters.get_mut(kernel.0 as usize) {
            let c = counter.get_mut();
            *c = (*c).max(weight.min(self.threshold));
        }
    }

    /// The compile-gating launch-count threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl KernelBackend for SpecializedBackend {
    fn name(&self) -> &'static str {
        "spec"
    }

    fn select(&self, program: &KernelProgram, lanes: usize) -> Selection {
        let id = program.id.0 as usize;
        let Some(counter) = self.counters.get(id) else {
            // Defensive: a program outside the library this backend was
            // sized for always interprets.
            return Selection::Interp;
        };
        let count = counter.fetch_add(1, Ordering::Relaxed) + 1;
        if count < self.threshold {
            return Selection::Interp;
        }
        let class = size_class(lanes);
        let mut fresh = false;
        let kernel = self.cache[id][class].get_or_init(|| {
            fresh = true;
            Arc::new(CompiledKernel::compile(program, class))
        });
        Selection::Compiled { kernel: Arc::clone(kernel), fresh }
    }

    fn compiled_count(&self) -> usize {
        self.cache.iter().flat_map(|classes| classes.iter()).filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_bucket_by_log2() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(7), 2);
        assert_eq!(size_class(8), 3);
        assert_eq!(size_class(64), 6);
        assert_eq!(size_class(128), 7);
        assert_eq!(size_class(100_000), 7);
    }
}
