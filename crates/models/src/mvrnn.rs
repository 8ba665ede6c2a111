//! MV-RNN (Socher et al. 2012): matrix-vector recursive network over
//! SST-like trees.
//!
//! Every leaf carries a *(vector, matrix)* pair; internal nodes multiply
//! each child's vector by the sibling's matrix — products of two
//! **intermediate activations**, which stock DyNet's first-argument matmul
//! heuristic cannot batch (§E.4), forcing sequential execution.  This is
//! the model where the DN++ shape-based heuristic (Table 8) matters most,
//! and where Cortex's mandatory leaf copies are the most expensive (each
//! leaf ships a `d×d` matrix, §7.2.2).

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, ModelSize, ModelSpec, Properties};

/// MV-RNN hidden sizes: 64 (small) / 128 (large), §7.1.
pub fn hidden(size: ModelSize) -> usize {
    match size {
        ModelSize::Small => 64,
        ModelSize::Large => 128,
    }
}

/// The frontend program.
pub fn source(d: usize, classes: usize) -> String {
    let d2 = 2 * d;
    format!(
        r#"
type Tree[a] {{ Leaf(a), Node(Tree[a], Tree[a]) }}

def @enc(%t: Tree[(Tensor[(1, {d})], Tensor[({d}, {d})])],
         $w: Tensor[({d2}, {d})], $b: Tensor[(1, {d})],
         $wm1: Tensor[({d}, {d})], $wm2: Tensor[({d}, {d})])
    -> (Tensor[(1, {d})], Tensor[({d}, {d})]) {{
    match %t {{
        Leaf(%p) => %p,
        Node(%l, %r) => {{
            let (%lv, %rv) = parallel(
                @enc(%l, $w, $b, $wm1, $wm2),
                @enc(%r, $w, $b, $wm1, $wm2));
            let %c1 = matmul(%lv.0, %rv.1);
            let %c2 = matmul(%rv.0, %lv.1);
            let %v = tanh(add(matmul(concat[axis=1](%c1, %c2), $w), $b));
            let %m = add(matmul(%lv.1, $wm1), matmul(%rv.1, $wm2));
            (%v, %m)
        }}
    }}
}}

def @main($w: Tensor[({d2}, {d})], $b: Tensor[(1, {d})],
          $wm1: Tensor[({d}, {d})], $wm2: Tensor[({d}, {d})],
          $wc: Tensor[({d}, {classes})], $bc: Tensor[(1, {classes})],
          %t: Tree[(Tensor[(1, {d})], Tensor[({d}, {d})])]) -> Tensor[(1, {classes})] {{
    let (%v, %m) = @enc(%t, $w, $b, $wm1, $wm2);
    relu(add(matmul(%v, $wc), $bc))
}}
"#
    )
}

/// Model parameters.
pub fn params(d: usize, classes: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0x3141, 999);
    BTreeMap::from([
        ("w".into(), data::weight(&mut rng, 2 * d, d)),
        ("b".into(), data::embedding(&mut rng, d)),
        ("wm1".into(), data::weight(&mut rng, d, d)),
        ("wm2".into(), data::weight(&mut rng, d, d)),
        ("wc".into(), data::weight(&mut rng, d, classes)),
        ("bc".into(), data::embedding(&mut rng, classes)),
    ])
}

fn leaf_input(rng: &mut Prng, d: usize) -> InputValue {
    InputValue::Tuple(vec![
        InputValue::Tensor(data::embedding(rng, d)),
        // Near-identity leaf matrix for stability.
        InputValue::Tensor(Tensor::from_fn(&[d, d], |i| {
            let (r, c) = (i / d, i % d);
            let noise = (rng.next_f64() as f32 - 0.5) * 0.1 / d as f32;
            if r == c {
                1.0 + noise
            } else {
                noise
            }
        })),
    ])
}

/// Builds the spec at an explicit hidden size.
pub fn spec_with(d: usize, classes: usize) -> ModelSpec {
    let params = params(d, classes, 0x39);
    let dynet_params = params.clone();
    ModelSpec {
        name: "MV-RNN",
        source: source(d, classes),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed, i);
                    let leaves = data::sst_length(&mut rng);
                    vec![data::random_tree(&mut rng, leaves, &mut |r| leaf_input(r, d))]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, _| {
            run_dynet(cfg.clone(), &dynet_params, instances)
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
    spec_with(hidden(size), 5)
}

fn dy_enc(
    cg: &mut ComputationGraph,
    p: &BTreeMap<String, NodeRef>,
    t: &InputValue,
) -> Result<(NodeRef, NodeRef), TensorError> {
    match t {
        InputValue::Adt { ctor, fields } if ctor == "Leaf" => match &fields[0] {
            InputValue::Tuple(parts) => {
                let (v, m) = match (&parts[0], &parts[1]) {
                    (InputValue::Tensor(v), InputValue::Tensor(m)) => (v, m),
                    other => panic!("leaf {other:?}"),
                };
                Ok((cg.input(v)?, cg.input(m)?))
            }
            other => panic!("leaf {other:?}"),
        },
        InputValue::Adt { ctor, fields } if ctor == "Node" => {
            let (lv, lm) = dy_enc(cg, p, &fields[0])?;
            let (rv, rm) = dy_enc(cg, p, &fields[1])?;
            // Activation×activation products: unbatchable under stock DyNet.
            let c1 = cg.apply(PrimOp::MatMul, &[lv, rm])?;
            let c2 = cg.apply(PrimOp::MatMul, &[rv, lm])?;
            let x = cg.apply(PrimOp::Concat { axis: 1 }, &[c1, c2])?;
            let mm = cg.apply(PrimOp::MatMul, &[x, p["w"]])?;
            let s = cg.apply(PrimOp::Add, &[mm, p["b"]])?;
            let v = cg.apply(PrimOp::Tanh, &[s])?;
            let m1 = cg.apply(PrimOp::MatMul, &[lm, p["wm1"]])?;
            let m2 = cg.apply(PrimOp::MatMul, &[rm, p["wm2"]])?;
            let m = cg.apply(PrimOp::Add, &[m1, m2])?;
            Ok((v, m))
        }
        other => panic!("not a tree: {other:?}"),
    }
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    instances: &[Vec<InputValue>],
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    acrobat_baselines::dynet::run_minibatch(
        cfg,
        instances.len(),
        |cg| {
            let mut by_name = BTreeMap::new();
            for (k, v) in params {
                by_name.insert(k.clone(), cg.parameter(v)?);
            }
            Ok(by_name)
        },
        |cg, p, i| {
            let (v, _m) = dy_enc(cg, p, &instances[i][0])?;
            let mm = cg.apply(PrimOp::MatMul, &[v, p["wc"]])?;
            let s = cg.apply(PrimOp::Add, &[mm, p["bc"]])?;
            Ok(vec![cg.apply(PrimOp::Relu, &[s])?])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        check_acrobat_vs_dynet(&spec_with(4, 3), 3, 0xBEEF);
    }

    #[test]
    fn stock_matmul_heuristic_hurts_mvrnn() {
        let spec = spec_with(4, 3);
        let instances = (spec.make_instances)(0x5, 4);
        let stock =
            (spec.dynet_run.as_ref().unwrap())(&DynetConfig::default(), &instances, 0).unwrap();
        let improved_cfg = DynetConfig {
            improvements: acrobat_baselines::dynet::Improvements::all(),
            ..Default::default()
        };
        let improved = (spec.dynet_run.as_ref().unwrap())(&improved_cfg, &instances, 0).unwrap();
        assert!(
            improved.1.kernel_launches < stock.1.kernel_launches,
            "DN++ batches activation products: {} vs {}",
            improved.1.kernel_launches,
            stock.1.kernel_launches
        );
    }
}
