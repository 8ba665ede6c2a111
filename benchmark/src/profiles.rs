//! The only two configurations the benchmark runs.  Both are built here so
//! that a product-side `Profile::{Paper, Serving}` (ROADMAP item 3) is a
//! one-line change to the benchmark.

use acrobat_codegen::KernelBackendKind;
use acrobat_core::CompileOptions;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `CompileOptions::default()`: the configuration the paper's figures
    /// and tables are regenerated with.
    Paper,
    /// Plan cache + specialized kernel backend (default threshold) + batch
    /// broker: the configuration anyone would deploy.
    Serving,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::Serving => "serving",
        }
    }

    pub fn options(self, seed: u64) -> CompileOptions {
        let options = CompileOptions { seed, ..CompileOptions::default() };
        match self {
            Profile::Paper => options,
            Profile::Serving => options
                .with_plan_cache(true)
                .with_kernel_backend(KernelBackendKind::Spec)
                .with_broker(true),
        }
    }
}
