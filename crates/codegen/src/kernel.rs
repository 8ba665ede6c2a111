//! Kernel programs: the compiled form of a fusion group.

use std::collections::HashMap;

use acrobat_analysis::{AnalysisResult, ArgClass};
use acrobat_ir::{ExprId, Type};
use acrobat_tensor::{PrimOp, Shape};

/// Identifier of a generated kernel within a [`crate::KernelLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

/// A virtual register within a kernel program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub u32);

/// One instruction of a kernel program.
#[derive(Debug, Clone, PartialEq)]
pub struct KInstr {
    /// The primitive operator.
    pub op: PrimOp,
    /// Input registers.
    pub args: Vec<RegId>,
    /// Destination register.
    pub out: RegId,
    /// Result shape (per instance).
    pub shape: Shape,
}

/// An external input of a kernel program.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelInput {
    /// Register the input is loaded into.
    pub reg: RegId,
    /// Shared (one tensor per batch) vs batched (one per instance).
    pub class: ArgClass,
    /// Per-instance shape.
    pub shape: Shape,
    /// Which operator call site / argument position this slot is fed from
    /// at runtime.
    pub binding: (ExprId, usize),
}

/// A straight-line batched kernel program compiled from one fusion group.
///
/// The program is the analogue of the CUDA kernel ACROBAT generates per
/// (fused) operator: one launch executes `instrs` for every instance lane in
/// the batch, loading [`ArgClass::Shared`] inputs once.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    /// Kernel identity (assigned by the library).
    pub id: KernelId,
    /// Diagnostic name, e.g. `"fused_matmul_add_sigmoid"`.
    pub name: String,
    /// External inputs in binding order.
    pub inputs: Vec<KernelInput>,
    /// Instructions in execution order.
    pub instrs: Vec<KInstr>,
    /// Registers whose values leave the kernel, in site order, with the
    /// producing site (for the runtime to map results back to DFG values).
    pub outputs: Vec<(ExprId, RegId, Shape)>,
    /// Floating-point work per instance (for the device cost model).
    pub flops_per_instance: u64,
    /// Bytes of external input read per instance.
    pub input_bytes_per_instance: u64,
    /// Bytes of output written per instance.
    pub output_bytes_per_instance: u64,
    /// Optimized schedule, if the auto-scheduler has run.
    pub schedule: Option<crate::Schedule>,
}

impl KernelProgram {
    /// Structural signature for deduplication: instruction sequence, input
    /// classes and shapes (ignoring binding sites and names).
    pub fn signature(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for i in &self.inputs {
            let _ = write!(s, "{}:{};", i.class, i.shape);
        }
        let _ = write!(s, "->");
        for k in &self.instrs {
            let _ = write!(s, "{}(", k.op);
            for a in &k.args {
                let _ = write!(s, "r{},", a.0);
            }
            let _ = write!(s, ")r{};", k.out.0);
        }
        for (_, r, sh) in &self.outputs {
            let _ = write!(s, "out:r{}:{};", r.0, sh);
        }
        s
    }

    /// A one-instruction program: `op` over inputs of the given classes and
    /// per-instance shapes, in argument order, producing one `shape` output
    /// — the dense vendor kernel of a framework without fusion (DyNet-sim)
    /// as a launchable program.
    pub fn single_op(op: PrimOp, inputs: Vec<(ArgClass, Shape)>, shape: Shape) -> KernelProgram {
        let n = inputs.len() as u32;
        let out = RegId(n);
        let shapes: Vec<&Shape> = inputs.iter().map(|(_, s)| s).collect();
        let flops = acrobat_tensor::flops(&op, &shapes);
        let input_bytes = shapes.iter().map(|s| s.byte_size() as u64).sum();
        KernelProgram {
            id: KernelId(0),
            name: op.name().to_string(),
            instrs: vec![KInstr {
                args: (0..n).map(RegId).collect(),
                op,
                out,
                shape: shape.clone(),
            }],
            inputs: (0..)
                .zip(inputs)
                .map(|(i, (class, shape))| KernelInput {
                    reg: RegId(i),
                    class,
                    shape,
                    binding: (ExprId(0), i as usize),
                })
                .collect(),
            output_bytes_per_instance: shape.byte_size() as u64,
            outputs: vec![(ExprId(0), out, shape)],
            flops_per_instance: flops,
            input_bytes_per_instance: input_bytes,
            schedule: None,
        }
    }
}

/// Compiles one fusion group of a static block into a kernel program.
///
/// `analysis` supplies operator resolutions, types and argument classes; the
/// group's sites must belong to `block`.
///
/// # Panics
///
/// Panics if the analysis tables are inconsistent with the block (internal
/// error).
pub fn compile_group(
    analysis: &AnalysisResult,
    block: &acrobat_analysis::blocks::StaticBlock,
    group: &acrobat_analysis::fusion::FusionGroup,
) -> KernelProgram {
    let module = &analysis.module;
    let mut next_reg = 0u32;
    let mut fresh = || {
        let r = RegId(next_reg);
        next_reg += 1;
        r
    };

    // The group's sites as block indices, and a membership mask over the
    // block, built once: every lookup below is O(1).
    let mut block_index: HashMap<ExprId, usize> = HashMap::with_capacity(block.sites.len());
    for (i, s) in block.sites.iter().enumerate() {
        block_index.entry(s.site).or_insert(i);
    }
    let indices: Vec<usize> =
        group.sites.iter().map(|site| *block_index.get(site).expect("site in block")).collect();
    let mut in_group = vec![false; block.sites.len()];
    for &idx in &indices {
        in_group[idx] = true;
    }

    let mut inputs: Vec<KernelInput> = Vec::new();
    let mut instrs: Vec<KInstr> = Vec::new();
    let mut site_reg: Vec<Option<RegId>> = vec![None; block.sites.len()];
    let mut names: Vec<&'static str> = Vec::new();

    for (&site, &idx) in group.sites.iter().zip(&indices) {
        let node = &block.sites[idx];
        let prim = module.op_prims[&site].clone();
        names.push(prim.name());
        let classes = &analysis.arg_classes[&site];
        let mut args = Vec::with_capacity(node.arg_exprs.len());
        for (a, arg_expr) in node.arg_exprs.iter().enumerate() {
            let reg = match node.arg_sources[a] {
                Some(p) if in_group[p] => site_reg[p].expect("producer precedes consumer"),
                _ => {
                    // External input: class from taint analysis, except
                    // cross-group intermediates which are always per-instance.
                    let class = match node.arg_sources[a] {
                        Some(_) => ArgClass::Batched,
                        None => classes.get(a).copied().unwrap_or(ArgClass::Batched),
                    };
                    let shape = match module.expr_types.get(arg_expr) {
                        Some(Type::Tensor(s)) => s.clone(),
                        _ => Shape::scalar(),
                    };
                    let reg = fresh();
                    inputs.push(KernelInput { reg, class, shape, binding: (site, a) });
                    reg
                }
            };
            args.push(reg);
        }
        let out = fresh();
        let shape = match module.expr_types.get(&site) {
            Some(Type::Tensor(s)) => s.clone(),
            _ => Shape::scalar(),
        };
        site_reg[idx] = Some(out);
        instrs.push(KInstr { op: prim, args, out, shape });
    }

    // Outputs: results consumed outside the group.  `internal_consumers[i]`
    // counts the argument slots of group members that read block site `i`.
    let mut internal_consumers = vec![0usize; block.sites.len()];
    for &j in &indices {
        for &p in block.sites[j].arg_sources.iter().flatten() {
            internal_consumers[p] += 1;
        }
    }
    let mut outputs = Vec::new();
    for ((&site, &idx), instr) in group.sites.iter().zip(&indices).zip(&instrs) {
        let node = &block.sites[idx];
        let escapes_group = node.escapes || node.internal_uses > internal_consumers[idx];
        if escapes_group || internal_consumers[idx] == 0 {
            outputs.push((site, instr.out, instr.shape.clone()));
        }
    }

    let flops: u64 = group
        .sites
        .iter()
        .zip(&indices)
        .map(|(&site, &idx)| {
            let node = &block.sites[idx];
            let shapes: Vec<Shape> = node
                .arg_exprs
                .iter()
                .map(|e| match module.expr_types.get(e) {
                    Some(Type::Tensor(s)) => s.clone(),
                    _ => Shape::scalar(),
                })
                .collect();
            let refs: Vec<&Shape> = shapes.iter().collect();
            acrobat_tensor::flops(&module.op_prims[&site], &refs)
        })
        .sum();

    let input_bytes: u64 = inputs.iter().map(|i| i.shape.byte_size() as u64).sum();
    let output_bytes: u64 = outputs.iter().map(|(_, _, s)| s.byte_size() as u64).sum();

    let mut name = names.join("_");
    if names.len() > 1 {
        name = format!("fused_{name}");
    }
    if name.len() > 64 {
        name.truncate(64);
    }

    KernelProgram {
        id: KernelId(0), // assigned by the library
        name,
        inputs,
        instrs,
        outputs,
        flops_per_instance: flops,
        input_bytes_per_instance: input_bytes,
        output_bytes_per_instance: output_bytes,
        schedule: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_analysis::{analyze, AnalysisOptions};
    use acrobat_ir::{parse_module, typeck};

    fn compile_first(src: &str, opts: AnalysisOptions) -> (AnalysisResult, Vec<KernelProgram>) {
        let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
        let a = analyze(m, opts).unwrap();
        let mut programs = Vec::new();
        for block in &a.blocks.blocks {
            for group in &block.groups {
                programs.push(compile_group(&a, block, group));
            }
        }
        (a, programs)
    }

    const FUSED: &str =
        "def @main($w: Tensor[(4, 4)], $b: Tensor[(1, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
        sigmoid(add($b, matmul(%x, $w)))
    }";

    #[test]
    fn fused_group_compiles_to_one_program() {
        let (_, programs) = compile_first(FUSED, AnalysisOptions::default());
        assert_eq!(programs.len(), 1);
        let p = &programs[0];
        assert_eq!(p.instrs.len(), 3);
        assert_eq!(p.name, "fused_matmul_add_sigmoid");
        // Inputs: x (batched), w (shared), b (shared).
        assert_eq!(p.inputs.len(), 3);
        let shared = p.inputs.iter().filter(|i| i.class == ArgClass::Shared).count();
        assert_eq!(shared, 2);
        // Single output: the sigmoid result.
        assert_eq!(p.outputs.len(), 1);
        assert!(p.flops_per_instance >= 2 * 4 * 4, "matmul flops counted");
    }

    #[test]
    fn unfused_compiles_three_programs_with_intermediates() {
        let (_, programs) = compile_first(FUSED, AnalysisOptions::none());
        assert_eq!(programs.len(), 3);
        // The add kernel takes the matmul intermediate as a batched input.
        let add = programs.iter().find(|p| p.name == "add").unwrap();
        assert!(add.inputs.iter().any(|i| i.class == ArgClass::Batched));
        assert_eq!(add.outputs.len(), 1);
    }

    #[test]
    fn signatures_dedup_identical_structures() {
        let src = "def @main($w1: Tensor[(4, 4)], $w2: Tensor[(4, 4)], %x: Tensor[(1, 4)], %y: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
            let %a = relu(matmul(%x, $w1));
            let %s = item(sum_rows(sum_rows(%a)));
            if %s > 0.0 { relu(matmul(%y, $w2)) } else { %a }
        }";
        let (_, programs) = compile_first(src, AnalysisOptions::default());
        let relu_matmuls: Vec<&KernelProgram> =
            programs.iter().filter(|p| p.name.contains("matmul_relu")).collect();
        assert_eq!(relu_matmuls.len(), 2);
        assert_eq!(relu_matmuls[0].signature(), relu_matmuls[1].signature());
    }

    #[test]
    fn multi_output_group() {
        // Horizontal group with two escaping results.
        let src = "def @main($wi: Tensor[(4, 4)], $wf: Tensor[(4, 4)], %x: Tensor[(1, 4)]) -> (Tensor[(1, 4)], Tensor[(1, 4)]) {
            (matmul(%x, $wi), matmul(%x, $wf))
        }";
        let (_, programs) = compile_first(src, AnalysisOptions::default());
        assert_eq!(programs.len(), 1, "horizontal fusion merges both matmuls");
        assert_eq!(programs[0].outputs.len(), 2);
    }
}
