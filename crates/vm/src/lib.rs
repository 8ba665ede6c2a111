//! Execution backends for ACROBAT programs.
//!
//! Two backends execute the (analyzed) frontend program, reproducing the
//! paper's §E.2 comparison:
//!
//! * [`interp::VmBackend`] — a Relay-VM-style interpreter: boxed scalars,
//!   name-resolved environments, per-node dispatch.  Slow on
//!   control-flow-heavy models, exactly like the paper's Relay VM baseline
//!   (Table 7).
//! * [`aot::AotProgram`] — the AOT-compiled path (§D.2): the program is
//!   lowered at compile time to flat, typed register code — one instruction
//!   array per function, registers that are plain words, calls that push
//!   heap frames, and one pre-resolved `Emit` per fusion group (an operator
//!   site that does not close its group is no code at all) — with
//!   compiled-in inline depth computation, ghost-operator bumps and phase
//!   boundaries, and fiber-based concurrency for tensor-dependent control
//!   flow (§4.2).  `Executable::disassemble` prints it.
//!
//! Both backends append to the same lazy DFG through one function
//! ([`session::RunSession`]'s `emit_unit`), so measured differences isolate
//! program-execution overhead: the interpreter resolves per call what the
//! lowering resolved once.
//!
//! The top-level entry point is [`Executable`]: build with
//! [`Executable::new`], run mini-batches with [`Executable::run`].

#![deny(missing_docs)]

pub mod aot;
pub mod driver;
pub mod interp;
pub mod session;
pub mod value;

pub use acrobat_tensor::Params;
pub use driver::{module_has_sync, BackendKind, Executable, RunOptions, RunResult};
pub use session::{
    BrokerStats, ExecCtx, Handle, Prng, RtHandle, RunSession, ServeOutcomes, Session, VmError,
};
pub use value::{InputValue, OutputValue, TensorRef, Value, Word};
