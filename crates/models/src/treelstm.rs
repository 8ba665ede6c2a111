//! TreeLSTM (Socher et al. 2013) over SST-like random parse trees.
//!
//! Recursive control flow with high instance parallelism (sibling subtrees
//! encode concurrently, Table 2).  The leaf rule initializes the cell state
//! from a *constant zero tensor* — the §E.4 case where ACROBAT's taint
//! analysis recognizes a reusable constant while stock DyNet re-creates and
//! re-executes the fill per leaf.

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Shape, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, hidden_for, ModelSize, ModelSpec, Properties};

/// The frontend program, parameterized by hidden size and class count.
pub fn source(d: usize, classes: usize) -> String {
    let d2 = 2 * d;
    format!(
        r#"
type Tree[a] {{ Leaf(a), Node(Tree[a], Tree[a]) }}

def @leaf(%e: Tensor[(1, {d})],
          $lwi: Tensor[({d}, {d})], $lwo: Tensor[({d}, {d})], $lwu: Tensor[({d}, {d})],
          $lbi: Tensor[(1, {d})], $lbo: Tensor[(1, {d})], $lbu: Tensor[(1, {d})])
    -> (Tensor[(1, {d})], Tensor[(1, {d})]) {{
    let %i = sigmoid(add(matmul(%e, $lwi), $lbi));
    let %o = sigmoid(add(matmul(%e, $lwo), $lbo));
    let %u = tanh(add(matmul(%e, $lwu), $lbu));
    let %c = add(mul(%i, %u), zeros[shape=(1, {d})]());
    (mul(%o, tanh(%c)), %c)
}}

def @enc(%t: Tree[Tensor[(1, {d})]],
         $lwi: Tensor[({d}, {d})], $lwo: Tensor[({d}, {d})], $lwu: Tensor[({d}, {d})],
         $lbi: Tensor[(1, {d})], $lbo: Tensor[(1, {d})], $lbu: Tensor[(1, {d})],
         $nwi: Tensor[({d2}, {d})], $nwf: Tensor[({d2}, {d})], $nwo: Tensor[({d2}, {d})], $nwu: Tensor[({d2}, {d})],
         $nbi: Tensor[(1, {d})], $nbf: Tensor[(1, {d})], $nbo: Tensor[(1, {d})], $nbu: Tensor[(1, {d})])
    -> (Tensor[(1, {d})], Tensor[(1, {d})]) {{
    match %t {{
        Leaf(%e) => @leaf(%e, $lwi, $lwo, $lwu, $lbi, $lbo, $lbu),
        Node(%l, %r) => {{
            let (%lp, %rp) = parallel(
                @enc(%l, $lwi, $lwo, $lwu, $lbi, $lbo, $lbu, $nwi, $nwf, $nwo, $nwu, $nbi, $nbf, $nbo, $nbu),
                @enc(%r, $lwi, $lwo, $lwu, $lbi, $lbo, $lbu, $nwi, $nwf, $nwo, $nwu, $nbi, $nbf, $nbo, $nbu));
            let %x = concat[axis=1](%lp.0, %rp.0);
            let %i = sigmoid(add(matmul(%x, $nwi), $nbi));
            let %f = sigmoid(add(matmul(%x, $nwf), $nbf));
            let %o = sigmoid(add(matmul(%x, $nwo), $nbo));
            let %u = tanh(add(matmul(%x, $nwu), $nbu));
            let %c = add(mul(%i, %u), mul(%f, add(%lp.1, %rp.1)));
            (mul(%o, tanh(%c)), %c)
        }}
    }}
}}

def @main($lwi: Tensor[({d}, {d})], $lwo: Tensor[({d}, {d})], $lwu: Tensor[({d}, {d})],
          $lbi: Tensor[(1, {d})], $lbo: Tensor[(1, {d})], $lbu: Tensor[(1, {d})],
          $nwi: Tensor[({d2}, {d})], $nwf: Tensor[({d2}, {d})], $nwo: Tensor[({d2}, {d})], $nwu: Tensor[({d2}, {d})],
          $nbi: Tensor[(1, {d})], $nbf: Tensor[(1, {d})], $nbo: Tensor[(1, {d})], $nbu: Tensor[(1, {d})],
          $wc: Tensor[({d}, {classes})], $bc: Tensor[(1, {classes})],
          %t: Tree[Tensor[(1, {d})]]) -> Tensor[(1, {classes})] {{
    let (%h, %c) = @enc(%t, $lwi, $lwo, $lwu, $lbi, $lbo, $lbu,
                        $nwi, $nwf, $nwo, $nwu, $nbi, $nbf, $nbo, $nbu);
    relu(add(matmul(%h, $wc), $bc))
}}
"#
    )
}

/// Model parameters for hidden size `d` and `classes` output classes.
pub fn params(d: usize, classes: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0x7ee, 999);
    let mut p = BTreeMap::new();
    for name in ["lwi", "lwo", "lwu"] {
        p.insert(name.into(), data::weight(&mut rng, d, d));
    }
    for name in ["lbi", "lbo", "lbu"] {
        p.insert(name.into(), data::embedding(&mut rng, d));
    }
    for name in ["nwi", "nwf", "nwo", "nwu"] {
        p.insert(name.into(), data::weight(&mut rng, 2 * d, d));
    }
    for name in ["nbi", "nbf", "nbo", "nbu"] {
        p.insert(name.into(), data::embedding(&mut rng, d));
    }
    p.insert("wc".into(), data::weight(&mut rng, d, classes));
    p.insert("bc".into(), data::embedding(&mut rng, classes));
    p
}

/// Builds the spec at an explicit hidden size (tests use tiny sizes).
pub fn spec_with(d: usize, classes: usize) -> ModelSpec {
    let params = params(d, classes, 0x715);
    let dynet_params = params.clone();
    ModelSpec {
        name: "TreeLSTM",
        source: source(d, classes),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed, i);
                    let leaves = data::sst_length(&mut rng);
                    vec![data::random_tree(&mut rng, leaves, &mut |r| {
                        InputValue::Tensor(data::embedding(r, d))
                    })]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, _seed| {
            run_dynet(cfg.clone(), &dynet_params, d, instances)
        })),
        flatten_output: all_tensors,
        properties: Properties {
            recursive: true,
            instance_parallel: true,
            ..Properties::default()
        },
    }
}

/// The Table 3 configuration.
pub fn spec(size: ModelSize) -> ModelSpec {
    spec_with(hidden_for(size), 5)
}

struct DyParams {
    by_name: BTreeMap<String, NodeRef>,
}

fn dy_setup(
    cg: &mut ComputationGraph,
    params: &BTreeMap<String, Tensor>,
) -> Result<DyParams, TensorError> {
    let mut by_name = BTreeMap::new();
    for (k, v) in params {
        by_name.insert(k.clone(), cg.parameter(v)?);
    }
    Ok(DyParams { by_name })
}

fn linear(
    cg: &mut ComputationGraph,
    x: NodeRef,
    w: NodeRef,
    b: NodeRef,
    act: PrimOp,
) -> Result<NodeRef, TensorError> {
    let mm = cg.apply(PrimOp::MatMul, &[x, w])?;
    let s = cg.apply(PrimOp::Add, &[mm, b])?;
    cg.apply(act, &[s])
}

fn dy_enc(
    cg: &mut ComputationGraph,
    p: &DyParams,
    d: usize,
    t: &InputValue,
) -> Result<(NodeRef, NodeRef), TensorError> {
    let g = |n: &str| p.by_name[n];
    match t {
        InputValue::Adt { ctor, fields } if ctor == "Leaf" => {
            let e = match &fields[0] {
                InputValue::Tensor(t) => cg.input(t)?,
                other => panic!("leaf field {other:?}"),
            };
            let i = linear(cg, e, g("lwi"), g("lbi"), PrimOp::Sigmoid)?;
            let o = linear(cg, e, g("lwo"), g("lbo"), PrimOp::Sigmoid)?;
            let u = linear(cg, e, g("lwu"), g("lbu"), PrimOp::Tanh)?;
            // Constant zero cell state — re-created per leaf under stock
            // DyNet (§E.4), cached under DN++.
            let z = cg.constant(0.0, &Shape::new(&[1, d]));
            let iu = cg.apply(PrimOp::Mul, &[i, u])?;
            let c = cg.apply(PrimOp::Add, &[iu, z])?;
            let tc = cg.apply(PrimOp::Tanh, &[c])?;
            Ok((cg.apply(PrimOp::Mul, &[o, tc])?, c))
        }
        InputValue::Adt { ctor, fields } if ctor == "Node" => {
            let (lh, lc) = dy_enc(cg, p, d, &fields[0])?;
            let (rh, rc) = dy_enc(cg, p, d, &fields[1])?;
            let x = cg.apply(PrimOp::Concat { axis: 1 }, &[lh, rh])?;
            let i = linear(cg, x, g("nwi"), g("nbi"), PrimOp::Sigmoid)?;
            let f = linear(cg, x, g("nwf"), g("nbf"), PrimOp::Sigmoid)?;
            let o = linear(cg, x, g("nwo"), g("nbo"), PrimOp::Sigmoid)?;
            let u = linear(cg, x, g("nwu"), g("nbu"), PrimOp::Tanh)?;
            let iu = cg.apply(PrimOp::Mul, &[i, u])?;
            let cc = cg.apply(PrimOp::Add, &[lc, rc])?;
            let fc = cg.apply(PrimOp::Mul, &[f, cc])?;
            let c = cg.apply(PrimOp::Add, &[iu, fc])?;
            let tc = cg.apply(PrimOp::Tanh, &[c])?;
            Ok((cg.apply(PrimOp::Mul, &[o, tc])?, c))
        }
        other => panic!("not a tree: {other:?}"),
    }
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    d: usize,
    instances: &[Vec<InputValue>],
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    acrobat_baselines::dynet::run_minibatch(
        cfg,
        instances.len(),
        |cg| dy_setup(cg, params),
        |cg, p, i| {
            let (h, _c) = dy_enc(cg, p, d, &instances[i][0])?;
            let out = linear(cg, h, p.by_name["wc"], p.by_name["bc"], PrimOp::Relu)?;
            Ok(vec![out])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        check_acrobat_vs_dynet(&spec_with(4, 3), 4, 0xABCD);
    }

    #[test]
    fn dynet_leaf_constants_hurt_stock() {
        let spec = spec_with(4, 3);
        let instances = (spec.make_instances)(0x11, 6);
        let stock =
            (spec.dynet_run.as_ref().unwrap())(&DynetConfig::default(), &instances, 0x11).unwrap();
        let improved_cfg = DynetConfig {
            improvements: acrobat_baselines::dynet::Improvements::all(),
            ..Default::default()
        };
        let improved = (spec.dynet_run.as_ref().unwrap())(&improved_cfg, &instances, 0x11).unwrap();
        assert!(
            improved.1.kernel_launches < stock.1.kernel_launches,
            "DN++ reduces launches: {} vs {}",
            improved.1.kernel_launches,
            stock.1.kernel_launches
        );
    }
}
