//! NestedRNN: an RNN loop nested inside a GRU loop, each iterating a
//! pseudo-random number of times (Table 3).
//!
//! This is the evaluation's Table 9 model: the inner RNN cell executes many
//! times per outer GRU step, so the PGO-prioritized auto-scheduler gives
//! the inner kernels most of the tuning budget (§E.5).

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Shape, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, hidden_for, ModelSize, ModelSpec, Properties};

/// Loop-bound configuration (the paper uses `[20, 40]` for both loops).
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Inner RNN trip-count bounds (inclusive).
    pub inner: (i64, i64),
    /// Outer GRU trip-count bounds (inclusive).
    pub outer: (i64, i64),
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { inner: (20, 40), outer: (20, 40) }
    }
}

/// The frontend program.
pub fn source(d: usize, bounds: Bounds) -> String {
    let (ilo, ihi) = bounds.inner;
    let (olo, ohi) = bounds.outer;
    format!(
        r#"
def @inner(%h: Tensor[(1, {d})], %n: Int,
           $wi: Tensor[({d}, {d})], $bi: Tensor[(1, {d})]) -> Tensor[(1, {d})] {{
    if %n <= 0 {{ %h }} else {{
        @inner(tanh(add(matmul(%h, $wi), $bi)), %n - 1, $wi, $bi)
    }}
}}

def @outer(%h: Tensor[(1, {d})], %n: Int,
           $wi: Tensor[({d}, {d})], $bi: Tensor[(1, {d})],
           $wz: Tensor[({d}, {d})], $wr: Tensor[({d}, {d})], $wh: Tensor[({d}, {d})])
    -> Tensor[(1, {d})] {{
    if %n <= 0 {{ %h }} else {{
        let %hh = @inner(%h, rand_range[lo={ilo}, hi={ihi}](), $wi, $bi);
        let %z = sigmoid(matmul(%hh, $wz));
        let %r = sigmoid(matmul(%hh, $wr));
        let %hc = tanh(matmul(mul(%r, %hh), $wh));
        let %nh = add(mul(%z, %hh), mul(sub(ones[shape=(1, {d})](), %z), %hc));
        @outer(%nh, %n - 1, $wi, $bi, $wz, $wr, $wh)
    }}
}}

def @main($wi: Tensor[({d}, {d})], $bi: Tensor[(1, {d})],
          $wz: Tensor[({d}, {d})], $wr: Tensor[({d}, {d})], $wh: Tensor[({d}, {d})],
          %h0: Tensor[(1, {d})]) -> Tensor[(1, {d})] {{
    @outer(%h0, rand_range[lo={olo}, hi={ohi}](), $wi, $bi, $wz, $wr, $wh)
}}
"#
    )
}

/// Model parameters.
pub fn params(d: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0x2e57, 999);
    let mut p = BTreeMap::new();
    for name in ["wi", "wz", "wr", "wh"] {
        p.insert(name.to_string(), data::weight(&mut rng, d, d));
    }
    p.insert("bi".into(), data::embedding(&mut rng, d));
    p
}

/// Builds the spec at explicit size and bounds.
pub fn spec_with(d: usize, bounds: Bounds) -> ModelSpec {
    let params = params(d, 0x2e);
    let dynet_params = params.clone();
    ModelSpec {
        name: "NestedRNN",
        source: source(d, bounds),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed ^ 0x17, i);
                    vec![InputValue::Tensor(data::embedding(&mut rng, d))]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, seed| {
            run_dynet(cfg.clone(), &dynet_params, bounds, instances, seed)
        })),
        flatten_output: all_tensors,
        // The random trip counts emulate data-dependent iteration without
        // consulting tensor values (the paper's §E.1 protocol), so the
        // model is not tensor-dependent in the Table 2 sense.
        properties: Properties { iterative: true, ..Default::default() },
    }
}

/// The Table 3 configuration.
pub fn spec(size: ModelSize) -> ModelSpec {
    spec_with(hidden_for(size), Bounds::default())
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    bounds: Bounds,
    instances: &[Vec<InputValue>],
    seed: u64,
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    let d = params["bi"].shape().dim(1);
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
            // Identical pseudo-random trip counts as the ACROBAT run: the
            // ExecCtx stream is Prng::new(seed, instance), consumed once for
            // the outer count and once per outer step for the inner count.
            let mut rng = Prng::new(seed, i);
            let mut h = match &instances[i][0] {
                InputValue::Tensor(t) => cg.input(t)?,
                other => panic!("{other:?}"),
            };
            let outer = rng.next_range(bounds.outer.0, bounds.outer.1);
            let act = |cg: &mut ComputationGraph, x: NodeRef, w: NodeRef, op: PrimOp| {
                let mm = cg.apply(PrimOp::MatMul, &[x, w])?;
                cg.apply(op, &[mm])
            };
            for _ in 0..outer {
                let inner = rng.next_range(bounds.inner.0, bounds.inner.1);
                let mut hh = h;
                for _ in 0..inner {
                    let mm = cg.apply(PrimOp::MatMul, &[hh, p["wi"]])?;
                    let s = cg.apply(PrimOp::Add, &[mm, p["bi"]])?;
                    hh = cg.apply(PrimOp::Tanh, &[s])?;
                }
                let z = act(cg, hh, p["wz"], PrimOp::Sigmoid)?;
                let r = act(cg, hh, p["wr"], PrimOp::Sigmoid)?;
                let rh = cg.apply(PrimOp::Mul, &[r, hh])?;
                let hc = act(cg, rh, p["wh"], PrimOp::Tanh)?;
                let ones = cg.constant(1.0, &Shape::new(&[1, d]));
                let zc = cg.apply(PrimOp::Sub, &[ones, z])?;
                let a = cg.apply(PrimOp::Mul, &[z, hh])?;
                let b = cg.apply(PrimOp::Mul, &[zc, hc])?;
                h = cg.apply(PrimOp::Add, &[a, b])?;
            }
            Ok(vec![h])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        // Tiny bounds keep the test fast while still nesting the loops.
        check_acrobat_vs_dynet(&spec_with(4, Bounds { inner: (2, 4), outer: (2, 3) }), 4, 0x2E57);
    }
}
