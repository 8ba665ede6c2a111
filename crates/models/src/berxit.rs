//! Berxit: early-exit BERT-style inference (Xin et al. 2021).
//!
//! A transformer encoder whose layers all share weights (as in the paper's
//! configuration, Table 3) and that may exit after any layer; the exit
//! decision is tensor-dependent, emulated with the seeded `sample` stream
//! (§E.1).  Mostly-static compute with a little control flow — the class of
//! model that benefits *least* from overhead-reducing optimizations (§7.3)
//! and whose large activations blow DyNet's memory at batch 64 (Table 4).
//!
//! Dimensions are scaled relative to BERT (see EXPERIMENTS.md): hidden
//! 96/144 instead of 768/1024, sequence 32 instead of 128 — the layer
//! *structure* (self-attention + FFN + layer norms, shared weights, 12/18
//! layers) is preserved.

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Shape, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, ModelSize, ModelSpec, Properties};

/// Probability of exiting after each layer.
pub const EXIT_P: f64 = 0.15;

/// Scaled dimensions per size: (hidden, ffn, seq, layers).
pub fn dims(size: ModelSize) -> (usize, usize, usize, usize) {
    match size {
        ModelSize::Small => (96, 384, 32, 12),
        ModelSize::Large => (144, 576, 32, 18),
    }
}

/// The frontend program.
pub fn source(d: usize, f: usize, s: usize, layers: i64) -> String {
    let inv_sqrt_d = 1.0 / (d as f64).sqrt();
    format!(
        r#"
def @layer(%x: Tensor[({s}, {d})],
           $wq: Tensor[({d}, {d})], $wk: Tensor[({d}, {d})], $wv: Tensor[({d}, {d})],
           $wo: Tensor[({d}, {d})],
           $w1: Tensor[({d}, {f})], $b1: Tensor[(1, {f})],
           $w2: Tensor[({f}, {d})], $b2: Tensor[(1, {d})]) -> Tensor[({s}, {d})] {{
    let %q = matmul(%x, $wq);
    let %k = matmul(%x, $wk);
    let %v = matmul(%x, $wv);
    let %scores = mul(matmul(%q, transpose(%k)), fill[value={inv_sqrt_d}, shape=(1, 1)]());
    let %attn = matmul(softmax_rows(%scores), %v);
    let %x1 = layer_norm(add(%x, matmul(%attn, $wo)));
    let %ff = add(matmul(gelu(add(matmul(%x1, $w1), $b1)), $w2), $b2);
    layer_norm(add(%x1, %ff))
}}

def @encode(%x: Tensor[({s}, {d})], %n: Int,
            $wq: Tensor[({d}, {d})], $wk: Tensor[({d}, {d})], $wv: Tensor[({d}, {d})],
            $wo: Tensor[({d}, {d})],
            $w1: Tensor[({d}, {f})], $b1: Tensor[(1, {f})],
            $w2: Tensor[({f}, {d})], $b2: Tensor[(1, {d})]) -> Tensor[({s}, {d})] {{
    if %n <= 0 {{ %x }} else {{
        let %y = @layer(%x, $wq, $wk, $wv, $wo, $w1, $b1, $w2, $b2);
        if sample(%y) < {EXIT_P} {{ %y }}
        else {{ @encode(%y, %n - 1, $wq, $wk, $wv, $wo, $w1, $b1, $w2, $b2) }}
    }}
}}

def @main($wq: Tensor[({d}, {d})], $wk: Tensor[({d}, {d})], $wv: Tensor[({d}, {d})],
          $wo: Tensor[({d}, {d})],
          $w1: Tensor[({d}, {f})], $b1: Tensor[(1, {f})],
          $w2: Tensor[({f}, {d})], $b2: Tensor[(1, {d})],
          %x: Tensor[({s}, {d})]) -> Tensor[({s}, {d})] {{
    @encode(%x, {layers}, $wq, $wk, $wv, $wo, $w1, $b1, $w2, $b2)
}}
"#
    )
}

/// Model parameters (one shared layer).
pub fn params(d: usize, f: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0xbe27, 999);
    let mut p = BTreeMap::new();
    for name in ["wq", "wk", "wv", "wo"] {
        p.insert(name.to_string(), data::weight(&mut rng, d, d));
    }
    p.insert("w1".into(), data::weight(&mut rng, d, f));
    p.insert("b1".into(), data::embedding(&mut rng, f));
    p.insert("w2".into(), data::weight(&mut rng, f, d));
    p.insert("b2".into(), data::embedding(&mut rng, d));
    p
}

/// Builds the spec at explicit dimensions.
pub fn spec_with(d: usize, f: usize, s: usize, layers: i64) -> ModelSpec {
    let params = params(d, f, 0xbe);
    let dynet_params = params.clone();
    ModelSpec {
        name: "Berxit",
        source: source(d, f, s, layers),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed ^ 0xbe11, i);
                    vec![InputValue::Tensor(Tensor::from_fn(&[s, d], |_| {
                        (rng.next_f64() as f32 - 0.5) * 0.6
                    }))]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, seed| {
            run_dynet(cfg.clone(), &dynet_params, layers, instances, seed)
        })),
        flatten_output: all_tensors,
        properties: Properties { tensor_dependent: true, ..Default::default() },
    }
}

/// The Table 3 configuration.
pub fn spec(size: ModelSize) -> ModelSpec {
    let (d, f, s, layers) = dims(size);
    spec_with(d, f, s, layers as i64)
}

fn dy_layer(
    cg: &mut ComputationGraph,
    p: &BTreeMap<String, NodeRef>,
    x: NodeRef,
    d: usize,
) -> Result<NodeRef, TensorError> {
    let q = cg.apply(PrimOp::MatMul, &[x, p["wq"]])?;
    let k = cg.apply(PrimOp::MatMul, &[x, p["wk"]])?;
    let v = cg.apply(PrimOp::MatMul, &[x, p["wv"]])?;
    let kt = cg.apply(PrimOp::Transpose, &[k])?;
    let qk = cg.apply(PrimOp::MatMul, &[q, kt])?;
    let scale = cg.constant(1.0 / (d as f32).sqrt(), &Shape::new(&[1, 1]));
    // Broadcast multiply — no batched vendor kernel (§E.4).
    let scores = cg.apply(PrimOp::Mul, &[qk, scale])?;
    let sm = cg.apply(PrimOp::SoftmaxRows, &[scores])?;
    let attn = cg.apply(PrimOp::MatMul, &[sm, v])?;
    let ao = cg.apply(PrimOp::MatMul, &[attn, p["wo"]])?;
    let res1 = cg.apply(PrimOp::Add, &[x, ao])?;
    let x1 = cg.apply(PrimOp::LayerNormRows { eps: 1e-5 }, &[res1])?;
    let h1 = cg.apply(PrimOp::MatMul, &[x1, p["w1"]])?;
    let h1b = cg.apply(PrimOp::Add, &[h1, p["b1"]])?;
    let g = cg.apply(PrimOp::Gelu, &[h1b])?;
    let h2 = cg.apply(PrimOp::MatMul, &[g, p["w2"]])?;
    let h2b = cg.apply(PrimOp::Add, &[h2, p["b2"]])?;
    let res2 = cg.apply(PrimOp::Add, &[x1, h2b])?;
    cg.apply(PrimOp::LayerNormRows { eps: 1e-5 }, &[res2])
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    layers: i64,
    instances: &[Vec<InputValue>],
    seed: u64,
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    let d = params["wq"].shape().dim(0);
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
            let mut rng = Prng::new(seed, i);
            let mut x = match &instances[i][0] {
                InputValue::Tensor(t) => cg.input(t)?,
                other => panic!("{other:?}"),
            };
            for _ in 0..layers {
                x = dy_layer(cg, p, x, d)?;
                // Tensor-dependent exit: force the activations, draw.
                let _ = cg.forward(x)?;
                if rng.next_f64() < EXIT_P {
                    break;
                }
            }
            Ok(vec![x])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        check_acrobat_vs_dynet(&spec_with(8, 16, 4, 5), 4, 0xBE27);
    }
}
