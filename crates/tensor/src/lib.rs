//! CPU tensor substrate for the ACROBAT reproduction.
//!
//! The ACROBAT paper generates CUDA kernels through TVM; this crate is the
//! stand-in substrate: a small, fully self-contained tensor library that the
//! rest of the workspace builds batched execution on top of.  It provides
//!
//! * [`Shape`] — dense row-major shapes with stride arithmetic,
//! * [`Tensor`] — owned host tensors (model weights, inputs, references),
//! * [`DeviceMem`] / [`DeviceTensor`] — an arena-allocated simulated device
//!   memory with explicit byte accounting for uploads, gathers and copies,
//! * [`Params`] — bound, immutable model weights with an identity, which
//!   an arena keeps resident across requests,
//! * [`PrimOp`] — the primitive tensor operators the frontend language can
//!   invoke, with shape inference, FLOP counting and a reference executor.
//!
//! Batched launches live one layer up, in `acrobat-codegen`'s `exec`: one
//! launch runs a kernel program for every lane, reading batched operands
//! either through an explicit gather ([`DeviceMem::gather`], DyNet-style)
//! or in place through their offsets (ACROBAT's gather fusion, §5.2).
//!
//! # Example
//!
//! ```
//! use acrobat_tensor::{Tensor, PrimOp, execute};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![0.5; 4], &[2, 2])?;
//! let out = execute(&PrimOp::Add, &[&a, &b])?;
//! assert_eq!(out.data(), &[1.5, 2.5, 3.5, 4.5]);
//! # Ok::<(), acrobat_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arena;
mod error;
pub mod ops;
mod params;
mod shape;
mod tensor;

pub use arena::{
    DeviceMem, DeviceTensor, ExecView, FaultKind, FaultMode, FaultPlan, FaultSite, MemStats,
};
pub use error::{FaultClass, TensorError};
pub use ops::{
    execute, execute_into, execute_slices, flops, infer_shape, map_binary, map_unary,
    map_unary_instantiations, matmul_packed, matmul_packed_instantiations, matmul_raw,
    matmul_raw_instantiations, packed_width, BinaryKind, MapUnaryFn, MatmulFn, PackedMatmulFn,
    PackedRhs, PrimOp, UnaryKind,
};
pub use params::Params;
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
