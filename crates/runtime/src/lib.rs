//! The ACROBAT runtime: lazy DFG construction, dynamic batching, fibers and
//! a simulated accelerator.
//!
//! This is the dynamic half of the paper's hybrid static+dynamic design.
//! The AOT-compiled program (in `acrobat-vm`) executes per-instance and
//! *lazily* records tensor work as dataflow-graph nodes ([`dfg`]); when a
//! value is actually needed — at a tensor-dependent control-flow decision,
//! or at the end of the mini-batch — the runtime
//! [`ExecutionContext::flush`]es: the scheduler ([`scheduler`]) picks
//! batches of compatible nodes and each batch becomes one batched-kernel
//! launch on the simulated device ([`device`]).
//!
//! The execution stack is split for concurrent serving ([`engine`]): an
//! immutable `Send + Sync` [`Engine`] holds everything request-invariant
//! (kernel library, analysis, device model, options) and is `Arc`-shared;
//! each in-flight mini-batch owns a private [`ExecutionContext`] with all
//! mutable flush state, so the hot path takes no shared locks.
//!
//! Two schedulers are provided:
//!
//! * [`scheduler::SchedulerKind::InlineDepth`] — ACROBAT's scheme (§4.1):
//!   depths were computed *while building* the DFG (by AOT-generated code),
//!   so scheduling is a near-free bucket sort by `(phase, depth, kernel)`;
//! * [`scheduler::SchedulerKind::Agenda`] — DyNet's agenda-based scheme:
//!   repeatedly pick the available kernel class with the lowest average
//!   depth, recomputed from the graph topology at flush time.
//!
//! DyNet's depth-based scheme is modeled by the DyNet baseline simulator
//! (`acrobat-baselines`), which Table 4 compares against.
//!
//! Tensor-dependent control flow is handled with fibers ([`fiber`]): all
//! instances of the mini-batch execute concurrently; when an instance needs
//! a tensor value it suspends; when no instance can make progress the DFG is
//! flushed and everyone resumes (§4.2, Fig. 3).  Fibers are realized as
//! cooperatively-coordinated OS threads — same semantics as the paper's
//! Boost fibers (many logical stacks, suspension at sync points), traded for
//! implementation simplicity; the *counts* the evaluation relies on (nodes,
//! launches, bytes) are unaffected.
//!
//! All device-side costs come from the analytical [`device::DeviceModel`]
//! (see DESIGN.md for the substitution rationale); host-side overheads (DFG
//! construction, scheduling) are charged per the per-event constants in the
//! model, and every raw count is also reported in [`stats::RuntimeStats`].

#![deny(missing_docs)]

pub mod check;
pub mod context;
pub mod device;
pub mod dfg;
pub mod engine;
pub mod fiber;
pub mod hash;
pub mod plan_cache;
pub mod resilience;
pub mod scheduler;
pub mod stats;

pub use check::FlushChecker;
pub use context::{cores, ExecutionContext};
pub use device::DeviceModel;
pub use dfg::{lane, Dfg, NodeId, ValueId, WindowSig};
pub use engine::{Engine, RuntimeOptions, Unit};
pub use fiber::{DriveTimeout, FiberHub, JoinId};
pub use plan_cache::{CacheConfig, CacheOutcome, CachedPlan, PlanCache, PlanL1};
pub use resilience::{CancelToken, Deadline};
pub use scheduler::SchedulerKind;
pub use stats::RuntimeStats;
