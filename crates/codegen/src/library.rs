//! The kernel library: all generated kernels of a compiled program.

use std::collections::BTreeMap;

use acrobat_analysis::fusion::GroupId;
use acrobat_analysis::AnalysisResult;

use crate::kernel::{compile_group, KernelId, KernelProgram};

/// All batched kernels generated for one program, with structural
/// deduplication: fusion groups that compile to identical programs (e.g.
/// the two copies of a duplicated function, or two structurally identical
/// matmul sites) share one kernel.
///
/// Because a kernel may serve several groups, the *bindings* — which
/// operator call site / argument position feeds each input slot, and which
/// site each output belongs to — are stored per group, not on the shared
/// kernel program.
#[derive(Debug, Clone, Default)]
pub struct KernelLibrary {
    kernels: Vec<KernelProgram>,
    group_kernel: BTreeMap<GroupId, KernelId>,
    group_bindings: BTreeMap<GroupId, Vec<(acrobat_ir::ExprId, usize)>>,
    group_outputs: BTreeMap<GroupId, Vec<acrobat_ir::ExprId>>,
}

impl KernelLibrary {
    /// Generates the library for an analyzed module.
    pub fn build(analysis: &AnalysisResult) -> KernelLibrary {
        let mut lib = KernelLibrary::default();
        let mut by_sig: BTreeMap<String, KernelId> = BTreeMap::new();
        for block in &analysis.blocks.blocks {
            for group in &block.groups {
                let mut program = compile_group(analysis, block, group);
                lib.group_bindings
                    .insert(group.id, program.inputs.iter().map(|i| i.binding).collect());
                lib.group_outputs
                    .insert(group.id, program.outputs.iter().map(|(s, _, _)| *s).collect());
                let sig = program.signature();
                let id = match by_sig.get(&sig) {
                    Some(&id) => id,
                    None => {
                        let id = KernelId(lib.kernels.len() as u32);
                        program.id = id;
                        by_sig.insert(sig, id);
                        lib.kernels.push(program);
                        id
                    }
                };
                lib.group_kernel.insert(group.id, id);
            }
        }
        lib
    }

    /// Input-slot bindings of a group: `(site, arg index)` per kernel input
    /// slot, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not from the same analysis.
    pub fn bindings_for_group(&self, group: GroupId) -> &[(acrobat_ir::ExprId, usize)] {
        &self.group_bindings[&group]
    }

    /// Output sites of a group, in output-slot order.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not from the same analysis.
    pub fn outputs_for_group(&self, group: GroupId) -> &[acrobat_ir::ExprId] {
        &self.group_outputs[&group]
    }

    /// The kernel compiled for a fusion group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not from the same analysis.
    pub fn kernel_for_group(&self, group: GroupId) -> &KernelProgram {
        &self.kernels[self.group_kernel[&group].0 as usize]
    }

    /// The kernel for a raw id.
    pub fn kernel(&self, id: KernelId) -> &KernelProgram {
        &self.kernels[id.0 as usize]
    }

    /// Mutable access for the auto-scheduler.
    pub fn kernel_mut(&mut self, id: KernelId) -> &mut KernelProgram {
        &mut self.kernels[id.0 as usize]
    }

    /// Kernel id for a fusion group.
    pub fn kernel_id_for_group(&self, group: GroupId) -> KernelId {
        self.group_kernel[&group]
    }

    /// Iterates over all distinct kernels.
    pub fn iter(&self) -> impl Iterator<Item = &KernelProgram> {
        self.kernels.iter()
    }

    /// Number of distinct kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_analysis::{analyze, AnalysisOptions};
    use acrobat_ir::{parse_module, typeck};

    fn build(src: &str) -> (AnalysisResult, KernelLibrary) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = analyze(m, AnalysisOptions::default()).unwrap();
        let lib = KernelLibrary::build(&a);
        (a, lib)
    }

    #[test]
    fn duplicated_functions_share_kernels() {
        // BiRNN-style duplication: @step__c0 and @step__c1 have structurally
        // identical bodies → one kernel.
        let src = r#"
            def @step(%x: Tensor[(1, 4)], $w: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
                tanh(matmul(%x, $w))
            }
            def @main($wf: Tensor[(4, 4)], $wb: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
                add(@step(%x, $wf), @step(%x, $wb))
            }
        "#;
        let (a, lib) = build(src);
        let groups: usize = a.blocks.blocks.iter().map(|b| b.groups.len()).sum();
        assert!(groups > lib.len(), "{groups} groups share {} kernels", lib.len());
        // Every group resolves to a kernel.
        for block in &a.blocks.blocks {
            for g in &block.groups {
                let k = lib.kernel_for_group(g.id);
                assert!(!k.instrs.is_empty());
            }
        }
    }

    #[test]
    fn distinct_shapes_get_distinct_kernels() {
        let src = r#"
            def @main($w1: Tensor[(4, 4)], $w2: Tensor[(4, 8)], %x: Tensor[(1, 4)]) -> Tensor[(1, 8)] {
                matmul(relu(matmul(%x, $w1)), $w2)
            }
        "#;
        let (_, lib) = build(src);
        assert_eq!(lib.len(), 2);
    }

    /// Building is linear in a fusion group's size: a 2 000-op `let` chain
    /// (one fused group) builds one 2 000-instruction kernel.  The analysis
    /// still recurses per `let`, hence the big-stack thread.
    #[test]
    fn long_let_chain_builds_one_kernel() {
        const OPS: usize = 2_000;
        let mut body = String::from("let %v0 = relu(%x);\n");
        for i in 1..OPS {
            body.push_str(&format!("let %v{i} = relu(%v{});\n", i - 1));
        }
        let src =
            format!("def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {{\n{body}%v{}\n}}", OPS - 1);
        let lib = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || build(&src).1)
            .expect("spawns")
            .join()
            .expect("no panic");
        assert_eq!(lib.len(), 1, "the chain is one fused group");
        assert_eq!(lib.kernel(KernelId(0)).instrs.len(), OPS);
    }
}
