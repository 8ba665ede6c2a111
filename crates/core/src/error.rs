use std::fmt;

use acrobat_ir::IrError;
use acrobat_vm::VmError;

/// Errors from compiling or running a model.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Parsing or type checking failed.
    Frontend(IrError),
    /// Lowering or execution failed.
    Execution(VmError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "frontend: {e}"),
            CompileError::Execution(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Frontend(e) => Some(e),
            CompileError::Execution(e) => Some(e),
        }
    }
}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<VmError> for CompileError {
    fn from(e: VmError) -> Self {
        CompileError::Execution(e)
    }
}

/// Alias for the serving-side reading of [`CompileError`]: every error a
/// [`crate::Model::run`] call can return, including the resilience
/// outcomes (cancellation, deadline misses).
pub type RunError = CompileError;

impl CompileError {
    /// The underlying execution error, when this is an execution failure.
    pub fn as_vm(&self) -> Option<&VmError> {
        match self {
            CompileError::Execution(e) => Some(e),
            CompileError::Frontend(_) => None,
        }
    }

    /// Whether the request was cooperatively cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.as_vm().is_some_and(VmError::is_cancelled)
    }

    /// Whether the request missed its deadline budget.
    pub fn is_deadline_exceeded(&self) -> bool {
        self.as_vm().is_some_and(VmError::is_deadline_exceeded)
    }
}
