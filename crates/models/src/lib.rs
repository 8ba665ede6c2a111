//! The seven evaluation models of the ACROBAT paper (Table 3), each
//! implemented twice:
//!
//! * as an ACROBAT frontend program (the `source()` of each module), and
//! * as a DyNet-style computation-graph builder (for the Table 4/5/8
//!   comparisons), consuming the *same* instances and the *same* seeded
//!   pseudo-random streams so control-flow decisions match across
//!   frameworks (§E.1).
//!
//! | Model | Control flow | Data |
//! |---|---|---|
//! | [`treelstm`] | recursive, instance parallel | SST-like random trees |
//! | [`mvrnn`] | recursive, instance parallel | SST-like random trees (matrix+vector leaves) |
//! | [`birnn`] | iterative, two directions | XNLI-like sentence lengths |
//! | [`nestedrnn`] | nested loops, random trip counts | synthetic |
//! | [`drnn`] | recursive generation, TDC + fork-join | random root vectors |
//! | [`berxit`] | early-exit transformer encoder, TDC | fixed-length sequences |
//! | [`stackrnn`] | shift-reduce parser, argmax-driven TDC | XNLI-like sentences |
//!
//! Datasets are seeded synthetic generators ([`data`]) matching the
//! structural statistics of the originals — auto-batching behaviour depends
//! only on control-flow structure, not token identities (see DESIGN.md).

#![deny(missing_docs)]

pub mod berxit;
pub mod birnn;
pub mod data;
pub mod drnn;
pub mod mvrnn;
pub mod nestedrnn;
pub mod stackrnn;
pub mod testkit;
pub mod treelstm;

#[cfg(test)]
pub(crate) use testkit as tests_support;

use acrobat_baselines::dynet::DynetConfig;
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{Params, Tensor, TensorError};
use acrobat_vm::{InputValue, OutputValue};

/// The two model sizes of the evaluation (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSize {
    /// Hidden 256 (MV-RNN 64; Berxit base-like).
    Small,
    /// Hidden 512 (MV-RNN 128; Berxit large-like, 18 layers).
    Large,
}

/// A model ready for both frameworks.
pub struct ModelSpec {
    /// Model name as in Table 3.
    pub name: &'static str,
    /// The ACROBAT frontend program.
    pub source: String,
    /// Model parameters (`$`-bindings of `@main`), bound once.
    pub params: Params,
    /// Generates a mini-batch of instances (the `%`-bindings per instance).
    #[allow(clippy::type_complexity)]
    pub make_instances: Box<dyn Fn(u64, usize) -> Vec<Vec<InputValue>> + Send + Sync>,
    /// Runs the DyNet implementation on the same instances, or `None` for
    /// models without a DyNet counterpart.
    #[allow(clippy::type_complexity)]
    pub dynet_run: Option<
        Box<
            dyn Fn(
                    &DynetConfig,
                    &[Vec<InputValue>],
                    u64,
                ) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError>
                + Send
                + Sync,
        >,
    >,
    /// Extracts the comparable output tensors of one instance.
    pub flatten_output: fn(&OutputValue) -> Vec<Tensor>,
    /// Control-flow properties, for the Table 2 survey.
    pub properties: Properties,
}

impl std::fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSpec").field("name", &self.name).finish()
    }
}

/// Control-flow properties (the columns of Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Properties {
    /// Iterative control flow.
    pub iterative: bool,
    /// Recursive control flow.
    pub recursive: bool,
    /// Tensor-dependent control flow.
    pub tensor_dependent: bool,
    /// High instance (control-flow) parallelism.
    pub instance_parallel: bool,
}

/// Default output flattener: collects every tensor in the output.
pub fn all_tensors(o: &OutputValue) -> Vec<Tensor> {
    o.tensors().into_iter().cloned().collect()
}

/// The full model suite in Table 3/4 order.
pub fn suite(size: ModelSize) -> Vec<ModelSpec> {
    vec![
        treelstm::spec(size),
        mvrnn::spec(size),
        birnn::spec(size),
        nestedrnn::spec(size),
        drnn::spec(size),
        berxit::spec(size),
        stackrnn::spec(size),
    ]
}

/// Hidden size used by most models (§7.1).
pub fn hidden_for(size: ModelSize) -> usize {
    match size {
        ModelSize::Small => 256,
        ModelSize::Large => 512,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_models() {
        let s = suite(ModelSize::Small);
        assert_eq!(s.len(), 7);
        let names: Vec<&str> = s.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["TreeLSTM", "MV-RNN", "BiRNN", "NestedRNN", "DRNN", "Berxit", "StackRNN"]
        );
    }
}
