//! Bidirectional RNN (Schuster & Paliwal 1997) for token classification
//! over XNLI-like sentences.
//!
//! This model exercises two of ACROBAT's analyses directly:
//!
//! * the same `@rnn` function runs with forward weights and again with
//!   backward weights — the §C.1 *code duplication* case: without
//!   duplication, the weights degrade to batched arguments;
//! * per-token output classifiers follow the recursive stage — the §B.3
//!   *program phases* case: without phases, output operators of
//!   different-length sentences land at different depths and batch poorly.

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, hidden_for, ModelSize, ModelSpec, Properties};

/// The frontend program.
pub fn source(d: usize, classes: usize) -> String {
    let d2 = 2 * d;
    format!(
        r#"
def @rnn(%xs: List[Tensor[(1, {d})]], %h: Tensor[(1, {d})],
         $w: Tensor[({d2}, {d})], $b: Tensor[(1, {d})]) -> List[Tensor[(1, {d})]] {{
    match %xs {{
        Nil => Nil,
        Cons(%x, %rest) => {{
            let %nh = tanh(add(matmul(concat[axis=1](%h, %x), $w), $b));
            Cons(%nh, @rnn(%rest, %nh, $w, $b))
        }}
    }}
}}

def @rev(%xs: List[Tensor[(1, {d})]], %acc: List[Tensor[(1, {d})]]) -> List[Tensor[(1, {d})]] {{
    match %xs {{
        Nil => %acc,
        Cons(%x, %rest) => @rev(%rest, Cons(%x, %acc))
    }}
}}

def @zipcat(%a: List[Tensor[(1, {d})]], %b: List[Tensor[(1, {d})]]) -> List[Tensor[(1, {d2})]] {{
    match %a {{
        Nil => Nil,
        Cons(%x, %ar) => match %b {{
            Nil => Nil,
            Cons(%y, %br) => Cons(concat[axis=1](%x, %y), @zipcat(%ar, %br))
        }}
    }}
}}

def @main($wf: Tensor[({d2}, {d})], $bf: Tensor[(1, {d})],
          $wb: Tensor[({d2}, {d})], $bb: Tensor[(1, {d})],
          $h0: Tensor[(1, {d})],
          $wc: Tensor[({d2}, {classes})], $bc: Tensor[(1, {classes})],
          %xs: List[Tensor[(1, {d})]]) -> List[Tensor[(1, {classes})]] {{
    let %fwd = @rnn(%xs, $h0, $wf, $bf);
    let %bwd_r = @rnn(@rev(%xs, Nil), $h0, $wb, $bb);
    let %bwd = @rev(%bwd_r, Nil);
    let %both = @zipcat(%fwd, %bwd);
    map(fn(%p) {{ relu(add(matmul(%p, $wc), $bc)) }}, %both)
}}
"#
    )
}

/// Model parameters.
pub fn params(d: usize, classes: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0xb1d1, 999);
    BTreeMap::from([
        ("wf".into(), data::weight(&mut rng, 2 * d, d)),
        ("bf".into(), data::embedding(&mut rng, d)),
        ("wb".into(), data::weight(&mut rng, 2 * d, d)),
        ("bb".into(), data::embedding(&mut rng, d)),
        ("h0".into(), Tensor::zeros(&[1, d])),
        ("wc".into(), data::weight(&mut rng, 2 * d, classes)),
        ("bc".into(), data::embedding(&mut rng, classes)),
    ])
}

/// Builds the spec at an explicit hidden size.
pub fn spec_with(d: usize, classes: usize) -> ModelSpec {
    let params = params(d, classes, 0xb1);
    let dynet_params = params.clone();
    ModelSpec {
        name: "BiRNN",
        source: source(d, classes),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed, i);
                    let len = data::xnli_length(&mut rng);
                    vec![data::sentence(&mut rng, len, d)]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, _| {
            run_dynet(cfg.clone(), &dynet_params, instances)
        })),
        flatten_output: all_tensors,
        properties: Properties { iterative: true, ..Properties::default() },
    }
}

/// The Table 3 configuration.
pub fn spec(size: ModelSize) -> ModelSpec {
    spec_with(hidden_for(size), 3)
}

fn instance_tokens(v: &InputValue) -> Vec<&Tensor> {
    let mut out = Vec::new();
    v.tensors(&mut out);
    out
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
            let tokens = instance_tokens(&instances[i][0]);
            let toks: Vec<NodeRef> =
                tokens.iter().map(|t| cg.input(t)).collect::<Result<_, _>>()?;
            let step = |cg: &mut ComputationGraph,
                        h: NodeRef,
                        x: NodeRef,
                        w: NodeRef,
                        b: NodeRef|
             -> Result<NodeRef, TensorError> {
                let cat = cg.apply(PrimOp::Concat { axis: 1 }, &[h, x])?;
                let mm = cg.apply(PrimOp::MatMul, &[cat, w])?;
                let s = cg.apply(PrimOp::Add, &[mm, b])?;
                cg.apply(PrimOp::Tanh, &[s])
            };
            let mut fwd = Vec::with_capacity(toks.len());
            let mut h = p["h0"];
            for &x in &toks {
                h = step(cg, h, x, p["wf"], p["bf"])?;
                fwd.push(h);
            }
            let mut bwd = vec![0usize; toks.len()];
            let mut h = p["h0"];
            for (k, &x) in toks.iter().enumerate().rev() {
                h = step(cg, h, x, p["wb"], p["bb"])?;
                bwd[k] = h;
            }
            let mut outs = Vec::with_capacity(toks.len());
            for (f, b) in fwd.into_iter().zip(bwd) {
                let cat = cg.apply(PrimOp::Concat { axis: 1 }, &[f, b])?;
                let mm = cg.apply(PrimOp::MatMul, &[cat, p["wc"]])?;
                let s = cg.apply(PrimOp::Add, &[mm, p["bc"]])?;
                outs.push(cg.apply(PrimOp::Relu, &[s])?);
            }
            Ok(outs)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        check_acrobat_vs_dynet(&spec_with(4, 3), 4, 0xB1D1);
    }

    #[test]
    fn duplication_fires_for_two_directions() {
        let spec = spec_with(4, 3);
        let model =
            acrobat_core::compile(&spec.source, &acrobat_core::CompileOptions::default()).unwrap();
        let copies =
            model.analysis().module.functions.keys().filter(|n| n.starts_with("rnn__c")).count();
        assert_eq!(copies, 2, "forward/backward @rnn duplicated");
    }
}
