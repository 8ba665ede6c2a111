//! The frontend language of the ACROBAT reproduction.
//!
//! ACROBAT accepts dynamic deep-learning computations written in "a simple
//! Turing-complete functional language" (the functional subset of Relay).
//! This crate provides a faithful miniature of that input language:
//!
//! * algebraic data types with generics (`type List[a] { Nil, Cons(a, List[a]) }`),
//! * recursive functions, `match`, `let`, `if`, tuples,
//! * tensor intrinsics drawn from [`acrobat_tensor::PrimOp`] with
//!   attribute syntax (`concat[axis=1](%a, %b)`),
//! * native scalars (`Int`, `Float`, `Bool`) — the paper lowers Relay's
//!   zero-dimensional tensors to native C++ scalars in its AOT backend
//!   (§D.2); here scalars are native in the IR and it is the *Relay-VM
//!   baseline* that deliberately boxes them,
//! * tensor-dependent control flow via the sync intrinsics `item(%t)`
//!   (read a scalar out of a tensor — forces DFG evaluation) and
//!   `sample(%t)` (force evaluation, then draw a seeded pseudo-random
//!   number: the paper's §E.1 device for emulating tensor-dependent
//!   decisions without trained weights),
//! * the paper's annotations: `parallel(e₁, e₂, …)` marks concurrent calls
//!   (Fig. 2), `phase;` marks a manual program-phase boundary (§4.1), and
//!   `$`-prefixed `@main` parameters declare model parameters (the seeds of
//!   the parameter-reuse taint analysis, §5.1).
//!
//! # Pipeline position
//!
//! `acrobat-ir` owns parsing ([`parse_module`]), type/shape checking
//! ([`typeck::check_module`]) and pretty-printing. Static analyses live in
//! `acrobat-analysis`; execution in `acrobat-vm`.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
//!         relu(matmul(%x, $w))
//!     }
//! "#;
//! let module = acrobat_ir::parse_module(src)?;
//! let typed = acrobat_ir::typeck::check_module(module)?;
//! assert!(typed.functions.contains_key("main"));
//! # Ok::<(), acrobat_ir::IrError>(())
//! ```

#![deny(missing_docs)]

pub mod ast;
mod error;
mod lexer;
pub mod ops;
mod parser;
mod printer;
pub mod typeck;

pub use ast::{
    Adt, Arm, Callee, Ctor, Expr, ExprId, ExprKind, FnDef, Module, Param, ParamKind, Pattern,
    ScalarBinOp, ScalarUnOp, SyncKind, Type,
};
pub use error::IrError;
pub use parser::{parse_module, MAX_NESTING};
pub use printer::print_module;

/// Result alias for fallible frontend operations.
pub type Result<T> = std::result::Result<T, IrError>;
