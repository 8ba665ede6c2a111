//! End-to-end batched tensor-kernel generation (§5 of the paper).
//!
//! ACROBAT avoids vendor libraries entirely: every tensor kernel an input
//! program needs — including fused and coarsened combinations no library
//! ships — is generated by the compiler.  This crate is that generator:
//!
//! * [`kernel`] — compiles each fusion group from the static analysis into a
//!   [`kernel::KernelProgram`]: a straight-line register program over
//!   [`acrobat_tensor::PrimOp`]s, with every external input classified as
//!   *shared* (loaded once per batch) or *batched* (indexed per instance),
//!   exactly as the batched kernel ③ in the paper's Fig. 1;
//! * [`library`] — deduplicates structurally identical programs into a
//!   [`library::KernelLibrary`] (duplicated functions share kernels);
//! * [`exec`] — a launch's preparation for both batched-argument access
//!   styles of §5.2 (explicit gather and gather fusion), and the reference
//!   interpreter for kernel programs: checked mode's oracle and DyNet-sim's
//!   executor;
//! * [`backend`] / [`spec`] — the kernel executor: a
//!   [`backend::SpecializedBackend`] compiles each kernel once, on its
//!   first launch, into a monomorphized allocation-free execution plan
//!   bit-identical to the interpreter;
//! * [`autosched`] — a simulation of TVM's auto-scheduler (§D.1): a
//!   randomized search over tiling/vectorization/unrolling parameters
//!   against an analytical cost model, with an iteration budget that can be
//!   prioritized by profile-guided invocation frequencies (Table 9) and
//!   DietCode-style handling of the variable batch extent.

#![deny(missing_docs)]

pub mod autosched;
pub mod backend;
#[cfg(test)]
mod batch;
pub mod exec;
pub mod kernel;
pub mod library;
pub mod spec;

pub use autosched::{autoschedule, Schedule, ScheduleOptions};
pub use backend::{BackendScratch, KernelBackendKind, LaneExecutor, SpecializedBackend};
pub use exec::{
    execute_prepared, finish_prepared, prepare_batched_kernel_with, run_batched_kernel_with,
    BatchMode, ExecScratch, KernelLaunchStats, PreparedLaunch,
};
pub use kernel::{KInstr, KernelId, KernelInput, KernelProgram, RegId};
pub use library::KernelLibrary;
pub use spec::CompiledKernel;
