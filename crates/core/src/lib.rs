//! ACROBAT: compile-time optimized auto-batching for dynamic deep learning.
//!
//! This crate is the public face of the reproduction of *ACROBAT:
//! Optimizing Auto-batching of Dynamic Deep Learning at Compile Time*
//! (MLSYS 2024).  It wires the full pipeline of the paper's Fig. 1 together:
//!
//! 1. parse + type/shape check the input program (`acrobat-ir`),
//! 2. run the hybrid static analyses — parameter-reuse taint analysis, code
//!    duplication, kernel fusion, grain coarsening, operator hoisting,
//!    program phases, ghost operators (`acrobat-analysis`),
//! 3. generate and auto-schedule batched kernels (`acrobat-codegen`),
//! 4. lower to the AOT backend (or the Relay-VM-style baseline) and execute
//!    mini-batches with lazy DFG construction, dynamic batching and fibers
//!    (`acrobat-vm` + `acrobat-runtime`).
//!
//! # Quickstart
//!
//! ```
//! use acrobat_core::{compile, CompileOptions, InputValue, Params, Tensor};
//!
//! let model = compile(
//!     "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
//!          relu(matmul(%x, $w))
//!      }",
//!     &CompileOptions::default(),
//! )?;
//! let params = Params::from([("w".to_string(), Tensor::ones(&[2, 2]))]);
//! let batch: Vec<Vec<InputValue>> =
//!     (0..8).map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 2], i as f32))]).collect();
//! let result = model.run(&params, &batch)?;
//! assert_eq!(result.outputs.len(), 8);
//! assert_eq!(result.stats.kernel_launches, 1, "eight instances, one batched launch");
//! # Ok::<(), acrobat_core::CompileError>(())
//! ```

#![deny(missing_docs)]

mod error;
mod model;
mod options;

pub use error::{CompileError, RunError};
pub use model::{compile, Model};
pub use options::{CompileOptions, OptLevel};

// Re-export the API surface users need.
pub use acrobat_analysis::{AnalysisOptions, AnalysisResult, ArgClass};
pub use acrobat_codegen::{Schedule, ScheduleOptions};
pub use acrobat_runtime::{
    CancelToken, Deadline, DeviceModel, Engine, RuntimeOptions, RuntimeStats, SchedulerKind,
};
pub use acrobat_tensor::{FaultKind, FaultMode, FaultPlan, FaultSite, Shape, Tensor};
pub use acrobat_vm::{
    BackendKind, BrokerStats, CohortRequest, InputValue, OutputValue, Params, RunOptions,
    RunResult, ServeOutcomes, VmError,
};
